"""End-to-end command-line checks: exit codes, literal human output, and the
frozen JSON schema."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cli_reference
import relext
from relext import algebra, cli, exactla, extensions, hochschild, repmod
from relext.fixtures import fixture_path
from relext.quiver import Path


EX1 = fixture_path("ex1.quiv")
EX2 = fixture_path("ex2.quiv")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- info ----------------------------------------------------------------------


def test_info_human(capsys):
    code, out, err = run(capsys, "info", EX1, "C")
    assert code == 0 and err == ""
    assert "dim          11" in out
    assert "triangular   true" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", EX2, "Ctilde", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 16
    assert d["center_dim"] == 3
    assert d["zero_length"] > 0


# -- hh ------------------------------------------------------------------------


def test_hh_literal_dimension_line(capsys):
    code, out, _ = run(capsys, "hh", EX1, "Ctilde", "--degree", "1")
    assert code == 0
    assert "dim HH^1 = 2" in out
    assert out.count("representative") == 2


def test_hh_degree_zero(capsys):
    code, out, _ = run(capsys, "hh", EX2, "B", "--degree", "0")
    assert code == 0
    assert "dim HH^0 = 2" in out


def test_hh_json_with_oracle(capsys):
    code, out, _ = run(
        capsys, "hh", EX2, "Ctilde", "--format", "json", "--oracle"
    )
    assert code == 0
    d = json.loads(out)
    assert d["degrees"]["0"]["dim"] == 3
    assert d["degrees"]["1"]["dim"] == 3
    assert d["oracle"]["agrees"] is True
    assert d["oracle"]["bar_dims"] == {"0": 3, "1": 3}


def test_hh_oracle_human(capsys):
    code, out, _ = run(capsys, "hh", EX1, "B", "--oracle")
    assert code == 0
    assert "oracle" in out and "agree" in out


# -- hcoh ----------------------------------------------------------------------


def test_hcoh_human(capsys):
    code, out, _ = run(capsys, "hcoh", EX1, "B", "--arrows", "eps")
    assert code == 0
    assert "dim H^0 = 0" in out
    assert "dim H^1 = 1" in out


def test_hcoh_json(capsys):
    code, out, _ = run(
        capsys,
        "hcoh",
        EX2,
        "Ctilde",
        "--arrows",
        "eps,eps2",
        "--format",
        "json",
        "--oracle",
    )
    assert code == 0
    d = json.loads(out)
    assert d["degrees"]["0"]["dim"] == 2
    assert d["degrees"]["1"]["dim"] == 2
    assert d["oracle"]["agrees"] is True


def test_hcoh_unknown_arrow(capsys):
    code, out, err = run(capsys, "hcoh", EX1, "B", "--arrows", "zeta")
    assert code == 2
    assert err.startswith("error:")


# -- verify --------------------------------------------------------------------


def test_verify_human_all_pass(capsys):
    code, out, _ = run(
        capsys, "verify", EX2, "--base", "C", "--tilde", "Ctilde",
        "--split", "eps",
    )
    assert code == 0
    assert out.count("PASS") >= 4
    assert "FAIL" not in out
    assert "result: ALL PASS" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", EX2, "--base", "C", "--tilde", "Ctilde",
        "--split", "eps", "--format", "json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["command"] == "verify"
    assert d["hh1_C"] == 1 and d["hh1_B"] == 2 and d["hh1_Ctilde"] == 3
    assert d["h1_B_Eprime"] == 1
    assert d["curlyE_Esec_B"] == 0
    assert [r["pass"] for r in d["rows"]] == [True, True, True, True]
    assert set(d["phi_ranks"]) == {
        "deg0_B_to_C",
        "deg1_B_to_C",
        "deg0_Ctilde_to_B",
        "deg1_Ctilde_to_B",
    }


def test_verify_default_split_is_all_new_arrows(capsys):
    code, out, _ = run(
        capsys, "verify", EX1, "--base", "C", "--tilde", "Ctilde",
        "--format", "json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["split"] == ["eps", "eps2"]
    assert d["all_pass"] is True


def test_verify_empty_split(capsys):
    code, out, _ = run(
        capsys, "verify", EX1, "--base", "C", "--tilde", "Ctilde",
        "--split", "", "--format", "json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["split"] == []
    assert d["hh1_B"] == d["hh1_C"]


def test_verify_json_byte_stable(capsys):
    args = (
        "verify", EX2, "--base", "C", "--tilde", "Ctilde",
        "--split", "eps2", "--format", "json",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.endswith("\n")


# -- poset ---------------------------------------------------------------------


def test_poset_human(capsys):
    code, out, _ = run(capsys, "poset", EX1, "--base", "C", "--tilde", "Ctilde")
    assert code == 0
    assert "monotone" in out and "surjective" in out


def test_poset_json(capsys):
    code, out, _ = run(
        capsys, "poset", EX2, "--base", "C", "--tilde", "Ctilde",
        "--format", "json",
    )
    assert code == 0
    d = json.loads(out)
    assert [n["dim_hh1"] for n in d["nodes"]] == [1, 2, 2, 3]
    assert len(d["edges"]) == 4
    assert d["triangles_commute"] is True


# sha256 of `poset chain.quiv --base C --tilde Ctilde --format json` on the
# chain family of bench/chain.py, by (k, field)
POSET_SHA256 = {
    (5, "Q"): "6cceda4af0a17c26249c04f5c4da624c30acf05cdd4686731a5626eaff3359bc",
    (6, "Q"): "e14b69ac99ad7d0ed0950d44ce895a90eb18c378abf562d8547090edfe3f7ddf",
    (5, "F7"): "245d828b0fb997333114e87846bcbfac545891f49841d6a6629ce18e380df420",
}


@pytest.mark.parametrize("k, fld", sorted(POSET_SHA256))
def test_poset_json_is_pinned_on_the_chain(capsys, tmp_path, chain_text, k, fld):
    path = tmp_path / "chain.quiv"
    path.write_text(chain_text(k))
    field = [] if fld == "Q" else ["--field", fld]
    code, out, err = run(
        capsys, "poset", str(path), "--base", "C", "--tilde", "Ctilde",
        "--format", "json", *field,
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == POSET_SHA256[(k, fld)]


# -- ext2 and cup ----------------------------------------------------------------


def test_ext2(capsys):
    code, out, _ = run(capsys, "ext2", EX1, "C", "--format", "json")
    assert code == 0
    assert json.loads(out)["ext2_dimension"] == 2


def test_cup(capsys):
    code, out, _ = run(capsys, "cup", EX2, "Ctilde", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["unit_law"] is True
    for pair in d["pairs"]:
        assert pair["product_is_cocycle"] is True
        assert pair["commutator_is_coboundary"] is True


# -- field override and failure modes -------------------------------------------


def test_field_override(capsys):
    code, out, _ = run(
        capsys, "hh", EX2, "Ctilde", "--field", "F7", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert d["field"] == "F7"
    assert d["degrees"]["1"]["dim"] == 3


def _ex1_with_fields(tmp_path, specs):
    """ex1 with `field <spec>` declared in its blocks C, B, Ctilde in turn."""
    lines = []
    specs = iter(specs)
    for line in open(EX1, encoding="utf-8").read().splitlines():
        lines.append(line)
        if line.startswith("algebra "):
            lines.append("field %s" % next(specs))
    path = tmp_path / "ex1_fields.quiv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("verb", ["verify", "poset"])
def test_family_uses_the_declared_field(capsys, tmp_path, verb):
    declared = _ex1_with_fields(tmp_path, ["F5"] * 3)
    for fmt in ("human", "json"):
        family = ["--base", "C", "--tilde", "Ctilde", "--format", fmt]
        want = run(capsys, verb, EX1, *family, "--field", "F5")
        assert want[0] == 0 and want[2] == ""
        assert run(capsys, verb, declared, *family) == want


@pytest.mark.parametrize("verb", ["verify", "poset"])
def test_family_rejects_mismatched_fields(capsys, tmp_path, verb):
    mixed = _ex1_with_fields(tmp_path, ["F5", "F5", "Q"])
    code, out, err = run(capsys, verb, mixed, "--base", "C", "--tilde", "Ctilde")
    assert code == 2 and out == ""
    assert err == "error: algebras C and Ctilde declare different fields, F5 and Q\n"


def test_bad_field_spec(capsys):
    code, _, err = run(capsys, "info", EX1, "C", "--field", "F4")
    assert code == 2 and err.startswith("error:")


def test_unknown_algebra_name(capsys):
    code, _, err = run(capsys, "info", EX1, "Z")
    assert code == 2
    assert "Z" in err and "available" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/path.quiv", "C")
    assert code == 2 and err.startswith("error:")


def test_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.quiv"
    bad.write_text("algebra A\nvertices 1\narrow a 1 9\nend\n")
    code, _, err = run(capsys, "info", str(bad), "A")
    assert code == 2
    assert "line 3" in err


def test_zero_denominator_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.quiv"
    bad.write_text(
        "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\nrel 1/0*a.b\nend\n"
    )
    code, out, err = run(capsys, "info", str(bad), "A")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "line 5" in err and "'1/0'" in err


def test_unknown_split_arrow(capsys):
    code, _, err = run(
        capsys, "verify", EX1, "--base", "C", "--tilde", "Ctilde",
        "--split", "bogus",
    )
    assert code == 2 and err.startswith("error:")


def test_repeated_split_arrow(capsys):
    code, out, err = run(
        capsys, "verify", EX1, "--base", "C", "--tilde", "Ctilde",
        "--split", "eps,eps",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "repeats" in err


def test_hcoh_repeated_arrow(capsys):
    code, out, err = run(capsys, "hcoh", EX1, "Ctilde", "--arrows", "eps,eps")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "repeats" in err


# C has the commutativity relation a.b = 2 c.d, while Ctilde modulo e has
# a.b = c.d: same basis labels, different products
PRODUCT_MISMATCH = """\
algebra C
vertices 1 2 3 4
arrow a 1 2
arrow b 2 4
arrow c 1 3
arrow d 3 4
rel a.b - 2*c.d
end

algebra Ctilde
extension_of C
vertices 1 2 3 4
arrow a 1 2
arrow b 2 4
arrow c 1 3
arrow d 3 4
arrow e 4 1
new e
rel a.b - c.d
rel b.e
rel d.e
rel e.a
rel e.c
end
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("verify", "--split", ","),
        ("verify", "--split", "e"),
        ("poset",),
    ],
)
def test_base_disagreeing_on_products_rejected(capsys, tmp_path, argv):
    path = tmp_path / "mismatch.quiv"
    path.write_text(PRODUCT_MISMATCH)
    code, out, err = run(
        capsys, argv[0], str(path), "--base", "C", "--tilde", "Ctilde", *argv[1:]
    )
    assert code == 2 and out == ""
    assert "does not reduce to the declared base algebra" in err


@pytest.mark.parametrize("verb", ["verify", "poset"])
def test_base_not_a_subalgebra_names_the_paths(capsys, monkeypatch, verb):
    """e_1 e_1 in ex1's Ctilde given a coordinate on a path through the new
    arrows passes the reduction and Ext^2 gates; the refusal names the two
    base paths whose products disagree."""
    from relext import extensions

    real = extensions.build

    def corrupting(block, field=None):
        alg = real(block, field=field)
        if block.name == "Ctilde":
            v = alg.idem_index[alg.quiver.vertices[0]]
            k = next(g for g, p in enumerate(alg.basis)
                     if any(alg.quiver.arrows[a].name in ("eps", "eps2")
                            for a in p.arrows))
            alg.products[v] = {**alg.products[v],
                               v: {v: alg.field.one(), k: alg.field.one()}}
        return alg

    monkeypatch.setattr(extensions, "build", corrupting)
    code, out, err = run(capsys, verb, EX1, "--base", "C", "--tilde", "Ctilde")
    assert code == 2 and out == ""
    assert "not a subalgebra" in err
    assert "products of base paths e_1 and e_1 disagree" in err


# a commutative square whose new arrow c meets the old path a.b in the
# relation a.b - c.d: the ideal of c holds a.b, so it is not the span of the
# paths through c, and Ctilde modulo c kills a.b
SQUARE_TILDE = """\
algebra Ctilde
extension_of C
vertices 1 2 3 4
arrow a 1 2
arrow b 2 4
arrow c 1 3
arrow d 3 4
new c
rel a.b - c.d
end
"""
SQUARE_BASE = "algebra C\nvertices 1 2 3 4\narrow a 1 2\narrow b 2 4\narrow d 3 4\n"


@pytest.mark.parametrize("base_rels", ["", "rel a.b\n"], ids=["free", "ab"])
@pytest.mark.parametrize("verb", ["verify", "poset"])
def test_ideal_not_spanned_by_paths_does_not_reduce(capsys, tmp_path, verb, base_rels):
    """The gate reports a new-arrow ideal larger than its paths' span as
    Ctilde not reducing to C: with C free on its arrows Ctilde modulo c
    differs from C; with a.b = 0 in C it equals C, but the tower cannot be
    formed by restricting Ctilde's tables."""
    path = tmp_path / "square.quiv"
    path.write_text(SQUARE_BASE + base_rels + "end\n\n" + SQUARE_TILDE)
    code, out, err = run(capsys, verb, str(path), "--base", "C", "--tilde", "Ctilde")
    assert code == 2 and out == ""
    assert "does not reduce to the declared base algebra" in err


# relation extension whose two new arrows 1 -> 4 are tied by the binomial
# delta.eps2 - delta.eps: the ideal of eps2 holds delta.eps, a path that
# avoids eps2, so neither single arrow splits the ideal
NON_SPLITTING = """\
algebra C
vertices 1 2 3 4
arrow alpha 4 2
arrow beta 2 1
arrow gamma 4 3
arrow delta 3 1
rel alpha.beta
rel gamma.delta
end

algebra Ctilde
extension_of C
vertices 1 2 3 4
arrow alpha 4 2
arrow beta 2 1
arrow gamma 4 3
arrow delta 3 1
arrow eps 1 4
arrow eps2 1 4
new eps eps2
rel alpha.beta
rel beta.eps2
rel gamma.delta
rel eps.gamma
rel delta.eps2 - delta.eps
rel beta.eps.alpha - beta.eps2.alpha
end
"""


def test_non_splitting_subset(capsys, tmp_path):
    path = tmp_path / "nonsplit.quiv"
    path.write_text(NON_SPLITTING)
    fam = ["--base", "C", "--tilde", "Ctilde"]
    for split in ("eps", "eps2"):
        code, out, err = run(capsys, "verify", str(path), *fam, "--split", split)
        assert code == 2 and out == ""
        assert "the chosen arrow subset does not split the ideal" in err
    code, out, _ = run(capsys, "poset", str(path), *fam, "--format", "json")
    d = json.loads(out)
    assert code == 0
    assert [n["arrows"] for n in d["nodes"]] == [[], ["eps", "eps2"]]
    assert [(e["lower"], e["upper"]) for e in d["edges"]] == [([], ["eps", "eps2"])]
    code, out, err = run(capsys, "hcoh", str(path), "Ctilde", "--arrows", "eps2")
    assert code == 2 and out == ""
    assert "ideal of ['eps2'] is not spanned by the paths through those arrows" in err


# -- internal arithmetic failures exit 3 ------------------------------------------


def _raise(exc):
    def patched(*args, **kwargs):
        raise exc

    return patched


@pytest.mark.parametrize(
    "target, exc, argv",
    [
        (
            (hochschild.CohomologySpace, "class_coordinates"),
            ArithmeticError("class coordinates fail substitution"),
            ("poset", EX1, "--base", "C", "--tilde", "Ctilde"),
        ),
        (
            (exactla, "_check_substitution"),
            ArithmeticError("solve: the solution fails substitution"),
            ("verify", EX2, "--base", "C", "--tilde", "Ctilde"),
        ),
        (
            (exactla.RationalField, "inv"),
            ZeroDivisionError("inverse of zero"),
            ("info", EX2, "Ctilde"),
        ),
    ],
    ids=["class-coordinates", "solve-substitution", "field-inverse"],
)
def test_internal_arithmetic_failure_exits_3(capsys, monkeypatch, target, exc, argv):
    """An ArithmeticError raised inside a verb, ZeroDivisionError included,
    is an internal failure: exit 3 with one stderr line, neither a failed
    check (exit 1) nor bad input (exit 2)."""
    monkeypatch.setattr(*target, _raise(exc))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "internal error: %s\n" % exc


@pytest.mark.parametrize(
    "argv", [("hh", EX1, "C"), ("hcoh", EX1, "Ctilde", "--arrows", "eps")], ids=["hh", "hcoh"]
)
def test_any_other_exception_is_an_internal_error(capsys, monkeypatch, argv):
    """An exception that is neither an ArithmeticError nor bad input, here a
    KeyError out of the runner, exits 3 with one stderr line naming its
    type and message, not a traceback."""
    monkeypatch.setitem(cli._RUNNERS, argv[0], _raise(KeyError("vertex '9'")))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: \"vertex '9'\"\n"


def test_internal_arithmetic_failure_prints_no_traceback():
    """The same in a process of its own: the interpreter exits 3 and stderr
    holds one line and no traceback."""
    script = (
        "import sys\n"
        "from relext import cli, hochschild\n"
        "def fail(self, vec):\n"
        "    raise ArithmeticError('class coordinates fail substitution')\n"
        "hochschild.CohomologySpace.class_coordinates = fail\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, "poset", EX1, "--base", "C", "--tilde", "Ctilde"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "internal error: class coordinates fail substitution\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "verb, k", [("verify", None), ("verify", 3), ("poset", 5)],
    ids=["verify-ex1", "verify-chain3", "poset-chain5"],
)
def test_verify_and_poset_make_no_path(capsys, monkeypatch, tmp_path, chain_text, verb, k):
    """verify and poset read basis words, endpoint tables, products and
    indices, and print no basis label: neither constructs a Path, in human
    or JSON form, on ex1 or on the chain family."""
    path = EX1
    if k is not None:
        path = tmp_path / "chain.quiv"
        path.write_text(chain_text(k))
    made = []
    init = Path.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Path, "__init__", counted)
    for fmt in ("human", "json"):
        argv = (verb, str(path), "--base", "C", "--tilde", "Ctilde", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out
    assert made == []


def _no_derivations(alg, m):
    """derivation_space with every derivation lost: the inner ones then
    fail the relation constraints."""
    return exactla.Subspace.zero(m.field, hochschild.arrow_layout(alg, m).total)


def _empty_layout(alg, m):
    """arrow_layout with every arrow's slice emptied: every nonzero a.x - x.a
    then leaves it."""
    n = len(alg.quiver.arrows)
    return hochschild.ArrowLayout([[] for _ in range(n)], [0] * n, 0)


@pytest.mark.parametrize(
    "name, patched, argv, msg",
    [
        (
            "derivation_space",
            _no_derivations,
            ("hh", EX1, "C", "--degree", "1"),
            "an inner derivation failed the relation constraints",
        ),
        ("arrow_layout", _empty_layout, ("hh", EX1, "C"), "inner derivation leaves the arrow slice"),
    ],
    ids=["inner-not-derivation", "inner-leaves-slice"],
)
def test_failed_inner_derivation_check_exits_3(capsys, monkeypatch, name, patched, argv, msg):
    """The two checks on the inner derivations fail only on an internal
    fault, as a graded bimodule passes both: exit 3 with one stderr line,
    not the exit 2 of bad input."""
    monkeypatch.setattr(hochschild, name, patched)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "internal error: %s\n" % msg


def test_lift_that_fails_its_check_exits_3(capsys, monkeypatch):
    """A solved lift that fails the defining conditions is an internal
    fault, not bad input: exit 3 with one stderr line naming the base and
    total blocks, the derivations checked and the dimension of the ideal."""
    monkeypatch.setattr(extensions, "_lift_holds", lambda e, checks: False)
    code, out, err = run(capsys, "verify", EX2, "--base", "C", "--tilde", "Ctilde")
    assert code == 3 and out == ""
    assert err == (
        "internal error: solved lift fails the defining conditions: base C, "
        "total Ctilde, 4 derivations checked, ideal of dim 8\n"
    )


@pytest.mark.parametrize(
    "verb, msg",
    [
        ("verify", "projection of an inner derivation is not inner"),
        ("poset", "arrow layout of C (4 slots) is not that of Ctilde restricted to it "
         "(4 slots kept)"),
    ],
)
def test_failed_projection_identity_exits_3(capsys, monkeypatch, verb, msg):
    """A derivation_map slot that some ad(x) reads, sent to the next base
    slot, breaks p(ad(x)) = ad(p(x)), and the order of the slots that
    poset checks first.  That is an internal fault, not bad input: exit 3
    with one stderr line."""
    real = extensions.SplitPresentation.derivation_map

    def shifted(sp):
        dm = dict(real(sp))
        ad = extensions.regular_h1(sp.total).ad.values()
        n = extensions.regular_h1(sp.base).layout.total
        t = next(t for t in dm if any(t in vec for vec in ad))
        dm[t] = (dm[t] + 1) % n
        return dm

    monkeypatch.setattr(extensions.SplitPresentation, "derivation_map", shifted)
    code, out, err = run(capsys, verb, EX2, "--base", "C", "--tilde", "Ctilde")
    assert code == 3 and out == ""
    assert err == "internal error: %s\n" % msg


@pytest.mark.parametrize(
    "argv, err",
    [
        (("ext2", EX1, "C"), "projective cover of a module of dim 11 over 'C' failed to surject"),
        (("info", EX1, "C"), "projective cover of a module of dim 1 over 'C' failed to surject"),
    ],
    ids=["ext2", "info"],
)
def test_cover_that_fails_to_surject_exits_3(capsys, monkeypatch, argv, err):
    """A projective cover that fails to surject is an internal fault, not
    bad input: repmod.ModuleCheckError, exit 3 with one stderr line naming
    the algebra and the dimension of the module covered."""
    monkeypatch.setattr(repmod.ModuleMap, "is_surjective", lambda self: False)
    code, out, got = run(capsys, *argv)
    assert code == 3 and out == ""
    assert got == "internal error: %s\n" % err


def test_kernel_not_closed_under_an_arrow_exits_3(capsys, monkeypatch):
    """The same for a kernel whose arrow images leave it: the first kernel
    ext2 takes is that of the cover (dim 18) of the dual of ex1's C."""
    monkeypatch.setattr(exactla.Subspace, "coordinates_of", lambda self, v: None)
    code, out, err = run(capsys, "ext2", EX1, "C")
    assert code == 3 and out == ""
    assert err.startswith(
        "internal error: kernel of a map from a module of dim 18 over 'C' is not "
        "closed under arrow "
    )
    assert err.count("\n") == 1


def test_cover_map_that_fails_to_commute_exits_3(capsys, monkeypatch):
    """One entry of the first cover map ext2 builds, for the dual of ex1's
    C (dim 11, covered by dim 18), doubled at the first vertex in quiver
    order that has one: ModuleMap's commutation check
    is an internal fault, not bad input, so exit 3 with one stderr line
    naming the algebra and both dimensions."""
    real = repmod.ModuleMap
    calls = []

    def corrupting(source, target, mats):
        if not calls:
            f = source.algebra.field
            v = next(v for v in source.algebra.quiver.vertices if any(mats.get(v, ())))
            i = next(i for i, img in enumerate(mats[v]) if img)
            mats[v][i] = {k: f.add(c, c) for k, c in mats[v][i].items()}
        calls.append(mats)
        return real(source, target, mats)

    monkeypatch.setattr(repmod, "ModuleMap", corrupting)
    code, out, err = run(capsys, "ext2", EX1, "C")
    assert code == 3 and out == ""
    assert err == (
        "internal error: map from a module of dim 18 to one of dim 11 over 'C': "
        "map does not commute with arrow 'beta'\n"
    )


def test_module_check_error_is_internal_and_exported():
    assert issubclass(repmod.ModuleCheckError, ValueError)
    assert issubclass(repmod.ModuleCheckError, ArithmeticError)
    assert relext.ModuleCheckError is repmod.ModuleCheckError
    assert "ModuleCheckError" in relext.__all__


def test_build_whose_table_fails_its_certificate_exits_3(capsys, monkeypatch):
    """A structure constant corrupted on its way into the certificate, e_2
    b_beta doubled in ex2's Ctilde, is an internal fault, not bad input:
    algebra.BuildCheckError, exit 3 with one stderr line naming the check,
    the basis element and the algebra."""
    certify = algebra._verify_build

    def corrupted(alg, block, relations=None):
        k = [p.label() for p in alg.basis].index("beta")
        alg.products[alg.idem_index["2"]][k] = {k: alg.field.from_fraction(2)}
        certify(alg, block, relations)

    monkeypatch.setattr(algebra, "_verify_build", corrupted)
    code, out, err = run(capsys, "info", EX2, "Ctilde")
    assert code == 3 and out == ""
    assert err == "internal error: unit law fails at basis 5 (beta) of 'Ctilde'\n"


@pytest.mark.parametrize(
    "argv, name",
    [(("hh", EX1, "C", "--oracle"), "C"), (("cup", EX1, "C"), "C"),
     (("hcoh", EX1, "Ctilde", "--arrows", "eps", "--oracle"), "Ctilde")],
    ids=["hh", "cup", "hcoh"],
)
def test_table_not_graded_by_the_idempotents_exits_3(capsys, monkeypatch, argv, name):
    """A table corrupted after its certificate, e_v b_a = 2 b_a for the
    first arrow a from v, reaches the bar complex's bigrading
    (hochschild._bigrades): an internal fault, exit 3 with one line, not
    bad input."""
    certify = algebra._verify_build

    def corrupted(alg, block, relations=None):
        certify(alg, block, relations)
        k = alg.arrow_basis[0]
        alg.products[alg.idem_index[alg.src[k]]][k] = {k: alg.field.from_fraction(2)}

    monkeypatch.setattr(algebra, "_verify_build", corrupted)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == (
        "internal error: basis element 5 of algebra %s is not homogeneous under the "
        "vertex idempotents on the left: 1 of them act on it, 0 as the identity\n" % name
    )


def test_build_check_error_is_internal_and_exported():
    assert issubclass(algebra.BuildCheckError, algebra.AlgebraBuildError)
    assert issubclass(algebra.BuildCheckError, ValueError)
    assert issubclass(algebra.BuildCheckError, ArithmeticError)
    assert relext.BuildCheckError is algebra.BuildCheckError
    assert "BuildCheckError" in relext.__all__


# -- parsing leaks nothing between calls ---------------------------------------


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call; argparse errors exit 2."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_leaks_no_option_between_calls(capsys, monkeypatch):
    """A sequence that switches --format, --field and --degree away from
    their defaults and back, and --split on and off, with an argparse error
    in the middle, gives what each call gives through a freshly built
    argparse parser."""
    calls = [
        ("info", EX1, "C"),
        ("info", EX1, "C", "--format", "json"),
        ("info", EX1, "C"),
        ("hh", EX2, "B", "--field", "F7", "--format", "json"),
        ("hh", EX2, "B", "--format", "json"),
        ("hh", EX1, "Ctilde", "--degree", "0"),
        ("hh", EX1, "Ctilde", "--degree", "2"),
        ("hh", EX1, "Ctilde"),
        ("verify", EX1, "--base", "C", "--tilde", "Ctilde", "--split", "eps"),
        ("verify", EX1, "--base", "C", "--tilde", "Ctilde"),
    ]
    reused = [_outcome(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_exact_parse", lambda argv: None)
    fresh = [_outcome(capsys, argv) for argv in calls]
    assert [r[0] for r in reused] == [0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
    for argv, got, want in zip(calls, reused, fresh):
        assert got == want, argv
    assert reused[0] == reused[2] and reused[4][1] != reused[3][1]
    assert reused[5][1] != reused[7][1] and reused[8][1] != reused[9][1]


# -- one table for the exact parse and for argparse ------------------------------

VERBS = ("info", "hh", "hcoh", "verify", "poset", "ext2", "cup")
VALUES = ("ex1.quiv", "C", "Ctilde", "eps,eps2", "a b", "", "human", "json", "xml",
          "0", "1", "2", "both", "F7", "Q", "info", "-", "-5", "-x", "--")
OPTIONS = ("--format", "--field", "--degree", "--oracle", "--arrows", "--base", "--tilde", "--split")
ABBREVIATIONS = ("--form", "--fi", "--deg", "--or", "--arr", "--ba", "--ti", "--spl", "--f", "--")
HELP = ("-h", "--help")


def _argparse_outcome(parser, argv):
    """parser.parse_args(argv) as a dict, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


_pieces = st.one_of(
    st.sampled_from(VALUES).map(lambda v: [v]),
    st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)).map(list),
    st.sampled_from(OPTIONS).map(lambda o: [o]),
    st.tuples(st.sampled_from(ABBREVIATIONS), st.sampled_from(VALUES)).map(list),
    st.tuples(st.sampled_from(OPTIONS + ABBREVIATIONS), st.sampled_from(VALUES)).map(
        lambda ov: ["%s=%s" % ov]
    ),
    st.sampled_from(HELP).map(lambda h: [h]),
)
PLAIN = tuple(v for v in VALUES if not v.startswith("-"))
POSITIONALS = {"info": 2, "hh": 2, "hcoh": 2, "verify": 1, "poset": 1, "ext2": 2, "cup": 2}
REQUIRED = {"hcoh": ("--arrows",), "verify": ("--base", "--tilde"), "poset": ("--base", "--tilde")}


@st.composite
def _argvs(draw):
    """A verb's positionals and required options with plain values, now
    and then one of them left out, plus up to three pieces that may be
    well-formed or not, in any order; now and then the first token is no
    verb."""
    verb = draw(st.sampled_from(VERBS))
    pieces = [[draw(st.sampled_from(PLAIN))] for _ in range(POSITIONALS[verb])]
    pieces += [[flag, draw(st.sampled_from(PLAIN))] for flag in REQUIRED.get(verb, ())]
    if draw(st.integers(0, 4)) == 0:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    pieces += draw(st.lists(_pieces, max_size=3))
    pieces = draw(st.permutations(pieces))
    if draw(st.integers(0, 9)) == 0:
        verb = draw(st.sampled_from(("inf", "bogus", "-h", "--format", "")))
    return [verb] + [t for piece in pieces for t in piece]


@settings(max_examples=1500, deadline=None)
@given(_argvs())
def test_exact_parse_agrees_with_argparse(argv):
    """Wherever the table's exact parse accepts an argv, its namespace is
    the one argparse makes of it, through the parser cli built before and
    through the one it builds now from the table; wherever argparse exits,
    with help or a usage error, the exact parse declines."""
    fast = cli._exact_parse(list(argv))
    want = _argparse_outcome(cli_reference.parser(), list(argv))
    assert _argparse_outcome(cli._argparse_parser(), list(argv)) == want
    if fast is not None:
        assert vars(fast) == want
    if want is None:
        assert fast is None


def test_exact_parse_accepts_each_verb_in_any_order():
    """The well-formed command lines of every verb, with options before,
    between and after the positionals, repeated options (the last one
    counts) and empty values, are read without argparse, as argparse reads
    them."""
    argvs = [
        ["info", EX1, "C"],
        ["info", "--format", "json", EX1, "--field", "F7", "C"],
        ["hh", EX1, "Ctilde", "--degree", "0", "--oracle", "--degree", "both"],
        ["hcoh", EX1, "Ctilde", "--arrows", "eps", "--oracle"],
        ["hcoh", "--arrows", "", EX1, "Ctilde"],
        ["verify", EX1, "--base", "C", "--tilde", "Ctilde", "--split", "eps"],
        ["poset", "--tilde", "Ctilde", EX1, "--base", "C", "--format", "human"],
        ["ext2", EX2, "C", "--field", "Q"],
        ["cup", EX2, "B", "--format", "json", "--format", "human"],
    ]
    for argv in argvs:
        got = cli._exact_parse(argv)
        assert got is not None, argv
        assert vars(got) == _argparse_outcome(cli_reference.parser(), argv), argv


with open(os.path.join(os.path.dirname(__file__), "data", "cli_help_expected.json"), encoding="utf-8") as _fh:
    HELP_EXPECTED = json.load(_fh)


@pytest.mark.parametrize("line", sorted(HELP_EXPECTED))
def test_help_and_usage_errors_are_argparse_text(line, capsys, monkeypatch):
    """`relext --help`, each `relext VERB --help` and three usage errors
    (missing arguments, a value outside its choices, an extra argument)
    print what the parser cli built before printed and exit as it did: the
    text recorded from it, under Python 3.11 where it was recorded, and
    the text of tests/cli_reference.py under every version, as argparse's
    layout differs between versions."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split(" ")
    got = _outcome(capsys, argv)
    try:
        cli_reference.parser().parse_args(argv)
    except SystemExit as e:
        out = capsys.readouterr()
        assert got == (e.code, out.out, out.err)
    want = HELP_EXPECTED[line]
    assert got[0] == want["code"]
    if sys.version_info[:2] == (3, 11):
        assert got[1:] == (want["stdout"], want["stderr"])


def test_a_valid_command_loads_no_dataclasses_inspect_or_argparse():
    """A fresh interpreter that imports relext and relext.cli and runs a
    valid command loads none of dataclasses, inspect and argparse: each
    start would pay for them, and no verb needs them."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import relext, relext.cli\n"
        "code = relext.cli.main(sys.argv[1:])\n"
        "heavy = {'dataclasses', 'inspect', 'argparse'} & (set(sys.modules) - before)\n"
        "print(code, sorted(heavy))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, "info", EX1, "C", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
