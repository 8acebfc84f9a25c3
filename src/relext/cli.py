"""Command-line front-end.

Verbs:

  info FILE ALGEBRA            dimensions and structural predicates
  hh FILE ALGEBRA              cohomology with coefficients in the algebra
  hcoh FILE ALGEBRA --arrows   cohomology with coefficients in an arrow ideal
  verify FILE --base --tilde   the four-identity report for one splitting
  poset FILE --base --tilde    the poset of partial extensions
  ext2 FILE ALGEBRA            dimension of the second self-extension space
  cup FILE ALGEBRA             cup-product checks on degree 1 classes

Common flags: --format {human,json}, --field SPEC (Q or F<p>), and for the
cohomology verbs --degree {0,1,both} and --oracle (recompute dimensions from
the bar complex relative to the vertex idempotents and flag agreement).

Exit status: 0 when everything asked for holds, 1 when a mathematical check
fails (an identity row, oracle disagreement, a cup-product property), 2 for
unusable input (unreadable file, parse error, unknown names, or a family
that fails the structural gates), 3 for an internal arithmetic failure (an
ArithmeticError, such as a solution or class coordinates failing
substitution, a built structure-constant table failing its certificate
(algebra.BuildCheckError), a solved derivation lift failing its defining
conditions (extensions.LiftCheckError), a cohomology projection failing
p(ad(x)) = ad(p(x)) or another of its identities, or a poset node whose
arrow layout is not Ctilde's restricted (extensions.ProjectionCheckError),
a projective cover that fails to surject, a kernel not closed under an
arrow or a module map that does not commute with one
(repmod.ModuleCheckError), a basis element of an algebra or bimodule
that the vertex idempotents do not grade (hochschild._bigrades, in the
bar oracle and cup), or a division by zero), reported as one line on
stderr; any other exception is a fault too, and exits 3 with the line
"internal error: <type>: <message>" where Python would print a traceback.
Output is deterministic byte for byte; machine output is JSON with frozen
keys as documented in the README.

One table, _VERBS, holds the verbs, their positionals and their options.
A well-formed command line is read off it directly; any other (help, an
abbreviated or `--flag=value` option, a value outside its choices, a
missing or extra argument) goes to argparse's parser, built from the same
table only then, so help and usage errors are argparse's text and exit 2.
"""

from __future__ import annotations

import json
import sys
import types

from . import bimod, exactla, extensions, hochschild, qdsl, repmod
from .algebra import build, is_triangular


class InputError(Exception):
    pass


# -- shared helpers -----------------------------------------------------------


def _read_file(path: str) -> "qdsl.PresentationFile":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror or e))
    return qdsl.parse(text)


def _get_block(pf, name: str):
    try:
        return pf.block(name)
    except KeyError:
        raise InputError(
            "no algebra named %r in this file (available: %s)"
            % (name, ", ".join(pf.names()))
        )


def _field_override(spec):
    if spec is None:
        return None
    return exactla.field_from_spec(spec)


def _build_algebra(pf, name: str, field_spec):
    return build(_get_block(pf, name), field=_field_override(field_spec))


def _format_element(alg, vec: dict) -> str:
    """An element of alg, given by its sparse coordinates, term by term in
    basis order."""
    f = alg.field
    terms = []
    for i in sorted(vec):
        label = alg.basis[i].label()
        s = f.format(vec[i])
        if s == "1":
            terms.append((False, label))
        elif s == "-1":
            terms.append((True, label))
        elif s.startswith("-"):
            terms.append((True, "%s*%s" % (s[1:], label)))
        else:
            terms.append((False, "%s*%s" % (s, label)))
    if not terms:
        return "0"
    neg, txt = terms[0]
    out = "-" + txt if neg else txt
    for neg, txt in terms[1:]:
        out += (" - " if neg else " + ") + txt
    return out


def _representative_entries(alg, m, layout, vec):
    """(arrow name, element string) pairs for the nonzero arrow values of a
    derivation given in sparse arrow coordinates; elements print in ambient
    terms."""
    out = []
    for arrow, o, block in zip(alg.quiver.arrows, layout.offsets, layout.blocks):
        v = {i: vec[o + u] for u, i in enumerate(block) if o + u in vec}
        if v:
            out.append((arrow.name, _format_element(alg, m.to_ambient(v))))
    return out


def _pass(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def _emit(args, human_lines, payload) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join(human_lines) + "\n"


# -- verb: info ---------------------------------------------------------------


def _run_info(args):
    pf = _read_file(args.file)
    alg = _build_algebra(pf, args.algebra, args.field)
    block = alg.block
    payload = {
        "command": "info",
        "algebra": block.name,
        "field": alg.field.name,
        "dim": alg.dim,
        "vertices": len(alg.quiver.vertices),
        "arrows": len(alg.quiver.arrows),
        "relations": len(block.relations),
        "zero_length": alg.zero_length,
        "triangular": is_triangular(alg),
        "gldim_le_2": repmod.gldim_at_most(alg, 2),
        "center_dim": extensions.center(alg).dim,
    }
    lines = [
        "algebra %s over %s" % (block.name, alg.field.name),
        "  dim          %d" % payload["dim"],
        "  vertices     %d" % payload["vertices"],
        "  arrows       %d" % payload["arrows"],
        "  relations    %d" % payload["relations"],
        "  zero length  %d" % payload["zero_length"],
        "  triangular   %s" % ("true" if payload["triangular"] else "false"),
        "  gldim <= 2   %s" % ("true" if payload["gldim_le_2"] else "false"),
        "  center dim   %d" % payload["center_dim"],
    ]
    return _emit(args, lines, payload), True


# -- verbs: hh and hcoh -------------------------------------------------------


def _degree_sections(alg, m, degrees):
    """(payload fragment, human lines) for the requested degrees."""
    lines = []
    payload = {}
    if "0" in degrees:
        space = hochschild.h0(m)
        entry = {
            "dim": space.dim,
            "representatives": [_format_element(alg, m.to_ambient(v)) for v in space.rows],
        }
        payload["0"] = entry
        lines.append("dim %s = %d" % (degrees["0"], space.dim))
        for i, rep in enumerate(entry["representatives"]):
            lines.append("  representative %d: %s" % (i + 1, rep))
    if "1" in degrees:
        space = hochschild.h1(alg, m)
        reps = space.representatives()
        entry = {
            "dim": space.dim,
            "representatives": [
                [
                    {"arrow": a, "value": v}
                    for a, v in _representative_entries(alg, m, space.layout, r)
                ]
                for r in reps
            ],
        }
        payload["1"] = entry
        lines.append("dim %s = %d" % (degrees["1"], space.dim))
        for i, rep in enumerate(entry["representatives"]):
            lines.append("  representative %d:" % (i + 1))
            for pair in rep:
                lines.append("    %s -> %s" % (pair["arrow"], pair["value"]))
    return payload, lines


def _oracle_section(alg, m, payload, lines):
    calc = hochschild.calculator(alg, m)
    bars = {}
    agrees = True
    for deg, entry in payload["degrees"].items():
        bars[deg] = calc.bar_h(int(deg))
        if bars[deg] != entry["dim"]:
            agrees = False
    payload["oracle"] = {"bar_dims": bars, "agrees": agrees}
    for deg in sorted(bars):
        lines.append("oracle: full-complex dim in degree %s = %d" % (deg, bars[deg]))
    lines.append("oracle agreement: %s" % _pass(agrees))
    return agrees


def _wanted_degrees(args, label0: str, label1: str) -> dict:
    if args.degree == "0":
        return {"0": label0}
    if args.degree == "1":
        return {"1": label1}
    return {"0": label0, "1": label1}


def _parse_arrow_list(alg, spec: str) -> tuple:
    names = tuple(s for s in (part.strip() for part in spec.split(",")) if s)
    if not names:
        raise InputError("expected a comma-separated arrow list")
    if len(set(names)) != len(names):
        raise InputError("arrow list %s repeats a name" % ",".join(names))
    known = {a.name for a in alg.quiver.arrows}
    for n in names:
        if n not in known:
            raise InputError(
                "no arrow named %r in algebra %s" % (n, alg.block.name)
            )
    return names


def _run_cohomology(args):
    """hh, with coefficients in the algebra, and hcoh, in the ideal of
    --arrows; they differ only in the coefficient bimodule, the header's
    coefficient phrase and hcoh's "arrows" payload key."""
    pf = _read_file(args.file)
    alg = _build_algebra(pf, args.algebra, args.field)
    payload = {"command": args.verb, "algebra": alg.block.name, "field": alg.field.name}
    if args.verb == "hh":
        m = extensions.regular_bimodule_of(alg)
        coefficients, labels = "itself", ("HH^0", "HH^1")
    else:
        names = _parse_arrow_list(alg, args.arrows)
        try:
            m = bimod.arrow_ideal_bimodule(alg, names)
        except ValueError as e:
            raise InputError(str(e))
        coefficients, labels = "the ideal (%s)" % ", ".join(names), ("H^0", "H^1")
        payload["arrows"] = list(names)
    lines = [
        "algebra %s over %s, coefficients in %s"
        % (alg.block.name, alg.field.name, coefficients)
    ]
    payload["degrees"], sec_lines = _degree_sections(alg, m, _wanted_degrees(args, *labels))
    lines += sec_lines
    ok = _oracle_section(alg, m, payload, lines) if args.oracle else True
    return _emit(args, lines, payload), ok


# -- verb: verify -------------------------------------------------------------


def _family(args) -> "extensions.Family":
    pf = _read_file(args.file)
    base_block = _get_block(pf, args.base)
    tilde_block = _get_block(pf, args.tilde)
    if not tilde_block.new_arrows:
        raise InputError(
            "algebra %s declares no new arrows to split" % tilde_block.name
        )
    return extensions.Family(
        base_block, tilde_block, field=_field_override(args.field)
    )


def _split_arg(fam, spec):
    if spec is None:
        return fam.new_arrows
    return tuple(s for s in (part.strip() for part in spec.split(",")) if s)


def _run_verify(args):
    fam = _family(args)
    subset = _split_arg(fam, args.split)
    report = fam.verify(subset)
    d = report.to_dict()
    payload = {
        "command": "verify",
        "base": fam.base.block.name,
        "tilde": fam.full.block.name,
    }
    payload.update(d)

    lines = [
        "family %s -> partial(%s) -> %s over %s"
        % (fam.base.block.name, ", ".join(subset), fam.full.block.name, d["field"]),
        "dimensions:",
        "  HH^0: C=%d B=%d Ctilde=%d" % (d["hh0_C"], d["hh0_B"], d["hh0_Ctilde"]),
        "  HH^1: C=%d B=%d Ctilde=%d" % (d["hh1_C"], d["hh1_B"], d["hh1_Ctilde"]),
        "  H^0(B,E')=%d  H^0(Ct,E'')=%d" % (d["h0_B_Eprime"], d["h0_Ct_Esec"]),
        "  H^1(C,E')=%d  H^1(B,E')=%d  H^1(Ct,E'')=%d  H^1(B,E'')=%d  H^1(Ct,E)=%d"
        % (
            d["h1_C_Eprime"],
            d["h1_B_Eprime"],
            d["h1_Ct_Esec"],
            d["h1_B_Esec"],
            d["h1_Ct_E"],
        ),
        "  End over C-env of E'=%d  End over B-env of E''=%d"
        % (d["end_Ce_Eprime"], d["end_Be_Esec"]),
        "  maps E'->C space=%d  maps E''->B space=%d"
        % (d["curlyE_Eprime_C"], d["curlyE_Esec_B"]),
        "rows:",
    ]
    for r in d["rows"]:
        lines.append(
            "  %-24s %d = %s   %s"
            % (r["name"], r["lhs"], " + ".join(str(x) for x in r["rhs"]), _pass(r["pass"]))
        )
    lines += [
        "refinement a: %d = %d + %d   %s"
        % (
            d["h1_B_Eprime"],
            d["h1_C_Eprime"],
            d["end_Ce_Eprime"],
            _pass(d["refinement_a_pass"]),
        ),
        "refinement b: %d = %d + %d   %s"
        % (
            d["h1_Ct_Esec"],
            d["h1_B_Esec"],
            d["end_Be_Esec"],
            _pass(d["refinement_b_pass"]),
        ),
        "pushout:  %d = %d + %d - %d   %s"
        % (
            d["hh1_B"],
            d["hh1_Ctilde"],
            d["h1_B_Eprime"],
            d["h1_Ct_E"],
            _pass(d["pushout_pass"]),
        ),
        "projection ranks: deg0 B->C %d/%d, deg1 B->C %d/%d, deg0 Ct->B %d/%d, deg1 Ct->B %d/%d   %s"
        % (
            d["phi_ranks"]["deg0_B_to_C"],
            d["hh0_C"],
            d["phi_ranks"]["deg1_B_to_C"],
            d["hh1_C"],
            d["phi_ranks"]["deg0_Ctilde_to_B"],
            d["hh0_B"],
            d["phi_ranks"]["deg1_Ctilde_to_B"],
            d["hh1_B"],
            _pass(d["surjective"]),
        ),
        "deg0 kernel equals ideal-intersect-center: %s" % _pass(d["kernel_deg0_matches"]),
        "ideal-valued classes embed: %s %s"
        % (_pass(d["ideal_classes_embed"]), _pass(d["ideal_classes_embed_tilde"])),
        "center action on complement ideal: symmetric=%s positive-part-annihilates=%s literal-annihilation=%s"
        % (
            "yes" if d["center_symmetric_on_complement"] else "no",
            "yes" if d["center_positive_part_annihilates"] else "no",
            "yes" if d["center_annihilates_complement"] else "no",
        ),
        "derivation lifts solvable: %s" % _pass(d["lifts_ok"]),
        "result: %s" % ("ALL PASS" if d["all_pass"] else "FAILED"),
    ]
    return _emit(args, lines, payload), d["all_pass"]


# -- verb: poset --------------------------------------------------------------


def _run_poset(args):
    fam = _family(args)
    d = fam.poset().to_dict()
    field_name = fam.base.field.name
    payload = {
        "command": "poset",
        "base": fam.base.block.name,
        "tilde": fam.full.block.name,
        "field": field_name,
    }
    payload.update(d)
    ok = (
        d["monotone"]
        and d["surjective"]
        and d["triangles_commute"]
        and d["minimum"] == []
        and set(d["maximum"]) == set(fam.new_arrows)
    )

    def fmt_arrows(arrows):
        return "(%s)" % ", ".join(arrows)

    lines = [
        "poset of partial extensions %s -> %s over %s"
        % (fam.base.block.name, fam.full.block.name, field_name)
    ]
    for n in d["nodes"]:
        lines.append("  node %-16s dim HH^1 = %d" % (fmt_arrows(n["arrows"]), n["dim_hh1"]))
    for e in d["edges"]:
        lines.append(
            "  edge %s < %s: rank %d, surjective %s, monotone %s"
            % (
                fmt_arrows(e["lower"]),
                fmt_arrows(e["upper"]),
                e["phi_rank"],
                "yes" if e["surjective"] else "no",
                "yes" if e["monotone"] else "no",
            )
        )
    lines += [
        "  triangles commute: %s" % ("yes" if d["triangles_commute"] else "no"),
        "  minimum %s, maximum %s" % (fmt_arrows(d["minimum"]), fmt_arrows(d["maximum"])),
        "result: %s" % ("ALL PASS" if ok else "FAILED"),
    ]
    return _emit(args, lines, payload), ok


# -- verb: ext2 ---------------------------------------------------------------


def _run_ext2(args):
    pf = _read_file(args.file)
    alg = _build_algebra(pf, args.algebra, args.field)
    dim = repmod.ext2_dimension(alg)
    payload = {
        "command": "ext2",
        "algebra": alg.block.name,
        "field": alg.field.name,
        "ext2_dimension": dim,
    }
    lines = [
        "algebra %s over %s" % (alg.block.name, alg.field.name),
        "ext2 dimension = %d" % dim,
    ]
    return _emit(args, lines, payload), True


# -- verb: cup ----------------------------------------------------------------


def _run_cup(args):
    pf = _read_file(args.file)
    alg = _build_algebra(pf, args.algebra, args.field)
    f = alg.field
    m = extensions.regular_bimodule_of(alg)
    space = extensions.regular_h1(alg)
    reps = space.representatives()
    cochains = [hochschild.derivation_to_cochain(alg, m, r) for r in reps]
    calc = hochschild.calculator(alg, m)

    unit = hochschild.unit_cochain(alg)
    unit_ok = all(
        hochschild.cup01(alg, unit, c) == c == hochschild.cup10(alg, c, unit)
        for c in cochains
    )

    pairs = []
    all_ok = unit_ok
    for i in range(len(cochains)):
        for j in range(i, len(cochains)):
            fg = hochschild.cup_product(alg, cochains[i], cochains[j])
            gf = hochschild.cup_product(alg, cochains[j], cochains[i])
            cocycle = not calc.coboundary(2, fg) and not calc.coboundary(2, gf)
            diff = dict(fg)
            for k, v in gf.items():
                diff[k] = f.sub(diff.get(k, f.zero()), v)
            commutator = calc.is_coboundary(diff)
            pairs.append(
                {
                    "i": i + 1,
                    "j": j + 1,
                    "product_is_cocycle": cocycle,
                    "commutator_is_coboundary": commutator,
                }
            )
            if not (cocycle and commutator):
                all_ok = False

    payload = {
        "command": "cup",
        "algebra": alg.block.name,
        "field": alg.field.name,
        "dim_hh1": space.dim,
        "unit_law": unit_ok,
        "pairs": pairs,
        "all_pass": all_ok,
    }
    lines = [
        "algebra %s over %s" % (alg.block.name, alg.field.name),
        "dim HH^1 = %d" % space.dim,
        "unit law: %s" % _pass(unit_ok),
    ]
    for p in pairs:
        lines.append(
            "pair (%d,%d): product cocycle %s, commutator coboundary %s"
            % (
                p["i"],
                p["j"],
                _pass(p["product_is_cocycle"]),
                _pass(p["commutator_is_coboundary"]),
            )
        )
    lines.append("result: %s" % ("ALL PASS" if all_ok else "FAILED"))
    return _emit(args, lines, payload), all_ok


# -- argument parsing and dispatch --------------------------------------------


# The command line, one table for both parsers: verb -> (help, positionals,
# options).  A positional is (name, help).  An option is (flag, kind,
# default, required, help), where kind is str for any value, a tuple for a
# choice among its values, or bool for a flag that stores True.
_COMMON = (
    ("--format", ("human", "json"), "human", False, None),
    ("--field", str, None, False, "field override: Q or F<p>"),
)
_DEGREE_ORACLE = (
    ("--degree", ("0", "1", "both"), "both", False, None),
    ("--oracle", bool, False, False, None),
)
_FILE_ALGEBRA = (("file", "presentation file"), ("algebra", "algebra name within the file"))
_FILE = _FILE_ALGEBRA[:1]
_SPLIT_HELP = "comma-separated new arrows of the partial extension (default: all declared new arrows)"
_VERBS = {
    "info": ("dimensions and structural predicates", _FILE_ALGEBRA, _COMMON),
    "hh": ("cohomology with coefficients in the algebra", _FILE_ALGEBRA, _COMMON + _DEGREE_ORACLE),
    "hcoh": (
        "cohomology with arrow-ideal coefficients",
        _FILE_ALGEBRA,
        _COMMON + (("--arrows", str, None, True, "comma-separated arrow names"),) + _DEGREE_ORACLE,
    ),
    "verify": (
        "verify the extension identities",
        _FILE,
        _COMMON + (
            ("--base", str, None, True, "base algebra name"),
            ("--tilde", str, None, True, "full extension algebra name"),
            ("--split", str, None, False, _SPLIT_HELP),
        ),
    ),
    "poset": (
        "poset of partial extensions",
        _FILE,
        _COMMON + (("--base", str, None, True, None), ("--tilde", str, None, True, None)),
    ),
    "ext2": ("second self-extension dimension", _FILE_ALGEBRA, _COMMON),
    "cup": ("cup-product checks in degree 1", _FILE_ALGEBRA, _COMMON),
}


def _exact_parse(argv: list):
    """The namespace argparse makes of a well-formed argv, read off _VERBS
    without argparse: the verb, each positional and each option given by
    its exact flag, a value after it that does not start with '-' and lies
    among its choices, every required option present, and the defaults.
    None for any other argv, which argparse then reads: help, an
    abbreviated or `--flag=value` option, any other token starting with
    '-', a value outside its choices, a missing or an extra argument."""
    if not argv or argv[0] not in _VERBS:
        return None
    _, positionals, options = _VERBS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _, _ in options}
    values = {"verb": argv[0]}
    values.update((name, None) for name, _ in positionals)
    values.update((flag[2:], default) for flag, _, default, _, _ in options)
    given, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        kind = kinds.get(token)
        if kind is None:
            return None
        seen.add(token)
        if kind is bool:
            values[token[2:]] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") or (kind is not str and value not in kind):
            return None
        values[token[2:]] = value
    if len(given) != len(positionals):
        return None
    if any(required and flag not in seen for flag, _, _, required, _ in options):
        return None
    values.update(zip((name for name, _ in positionals), given))
    return types.SimpleNamespace(**values)


def _argparse_parser():
    """argparse's parser on _VERBS, built for the argv that _exact_parse
    declines, so help and usage errors are argparse's text and exit 2."""
    import argparse

    top = argparse.ArgumentParser(
        prog="relext",
        description="bound quiver algebras, their degree 0/1 Hochschild "
        "cohomology, and partial relation extensions",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (verb_help, positionals, options) in _VERBS.items():
        p = sub.add_parser(verb, help=verb_help)
        for name, arg_help in positionals:
            p.add_argument(name, help=arg_help)
        for flag, kind, default, required, arg_help in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=arg_help)
            else:
                choices = None if kind is str else kind
                p.add_argument(
                    flag, choices=choices, default=default, required=required, help=arg_help
                )
    return top


_RUNNERS = {
    "info": _run_info,
    "hh": _run_cohomology,
    "hcoh": _run_cohomology,
    "verify": _run_verify,
    "poset": _run_poset,
    "ext2": _run_ext2,
    "cup": _run_cup,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _exact_parse(argv)
    if args is None:
        args = _argparse_parser().parse_args(argv)
    try:
        text, ok = _RUNNERS[args.verb](args)
    except ArithmeticError as e:
        sys.stderr.write("internal error: %s\n" % e)
        return 3
    except (InputError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except Exception as e:
        sys.stderr.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return 3
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
