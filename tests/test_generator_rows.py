"""The bimodule systems cut to the generators against their all-basis
forms (tests/generator_reference.py), and verify's dimensions under
relabelling, which reorders the arrows that the generator rows follow."""

import contextlib
import io
import json
import os
import sys
import tempfile
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import generator_reference as gen
from families import squares
from relext import bimod, cli, extensions, hochschild, qdsl
from relext.exactla import QQ, PrimeField
from relext.algebra import build
from relext.extensions import Family, SplitError, lift_derivations
from split_reference import split_presentation
from test_extensions import UNLIFTABLE, _split_pairs

# bench/chain.py relabels and parses presentations; it is only read from here
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
import chain as bench_chain  # noqa: E402

HALFSQUARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "halfsquare.quiv")
FAMILIES = ["ex1", "ex2", "chain1", "chain2", "chain3", "squares1", "squares2", "squares3",
            "halfsquare"]
FIELDS = {"Q": QQ, "F7": PrimeField(7)}


def _family(name, files, chain_text, field):
    if name in files:
        pf = files[name]
    elif name.startswith("chain"):
        pf = qdsl.parse(chain_text(int(name[5:])))
    elif name.startswith("squares"):
        pf = qdsl.parse(squares(int(name[7:])))
    else:
        with open(HALFSQUARE) as fh:
            pf = qdsl.parse(fh.read())
    return Family(pf.block("C"), pf.block("Ctilde"), field)


def _subsets(fam):
    """Every subset of the new arrows whose partial extension exists."""
    for r in range(len(fam.new_arrows) + 1):
        for combo in combinations(fam.new_arrows, r):
            try:
                fam.partial(combo)
            except SplitError:
                continue
            yield combo


cases = pytest.mark.parametrize(
    "name, field", [(n, f) for f in FIELDS for n in FAMILIES]
)


@cases
def test_hom_rows_are_the_arrow_rows_of_the_all_basis_system(
    files, chain_text, monkeypatch, name, field
):
    """hom_equations keeps exactly the rows of the acting arrows, in order,
    and the hom space and the pairing space 𝓔 it feeds are the all-basis
    ones as Subspaces, on every split of the family."""
    fam = _family(name, files, chain_text, FIELDS[field])
    for sp in _split_pairs(fam):
        e, inside = sp.ext_over_base, sp.base_inside
        arrows = set(sp.base.arrow_index_in_basis.values())
        for m, n in ((e, e), (e, inside)):
            var, rows, keys = bimod.hom_equations(m, n)
            ref_var, ref_rows, ref_keys = gen.hom_equations(m, n)
            assert var == ref_var
            kept = [(k, r) for k, r in zip(ref_keys, ref_rows) if k[0] in arrows]
            assert list(zip(keys, rows)) == kept
        space = bimod.bimodule_hom_space(e, e)
        pairing = bimod.curly_E(e, inside)
        with monkeypatch.context() as mp:
            mp.setattr(bimod, "hom_equations", gen.hom_equations)
            assert bimod.bimodule_hom_space(e, e) == space
            assert bimod.curly_E(e, inside) == pairing


@cases
def test_hom_rows_by_bigrade_match_the_all_i_system(files, chain_text, name, field):
    """hom_equations, with its unknowns read from N bucketed by bigrade and
    only the x_i visited where an arrow acts on x_i or on some n_k graded
    like it, gives the (var, rows, keys) of the system that compares every
    pair (i, j) and visits every x_i for every acting arrow, in the same
    order, on every split of the family: for E over the base into itself,
    into the base inside the total and back, and for E and the regular
    bimodule over the total."""
    fam = _family(name, files, chain_text, FIELDS[field])
    for sp in _split_pairs(fam):
        e, inside = sp.ext_over_base, sp.base_inside
        regular = extensions.regular_bimodule_of(sp.total)
        for m, n in ((e, e), (e, inside), (inside, e), (sp.ext, sp.ext), (regular, regular)):
            arrows = m.acting.arrow_index_in_basis.values()
            assert bimod.hom_equations(m, n) == gen.hom_equations(m, n, arrows)


@cases
def test_h0_on_the_diagonal_matches_the_all_basis_system(files, chain_text, name, field):
    """h0 over the diagonal unknowns with arrow rows gives the canonical
    rows of the all-coordinate system with idempotent rows, on the regular
    bimodule of every partial extension and on every bimodule of every
    split."""
    fam = _family(name, files, chain_text, FIELDS[field])
    for combo in _subsets(fam):
        m = extensions.regular_bimodule_of(fam.partial(combo))
        assert hochschild.h0(m) == gen.h0(m)
    for sp in _split_pairs(fam):
        for m in (sp.ext, sp.ext_over_base, sp.base_inside):
            assert hochschild.h0(m) == gen.h0(m)


@cases
def test_lift_sides_at_the_arrows_match_the_all_basis_system(files, chain_text, name, field):
    """Right-hand sides at the base arrows only give every input the alpha
    (or the missing lift) of right-hand sides at every base basis element,
    on every split.  The inputs are the derivation and inner bases and
    every arrow coordinate unit vector."""
    f = FIELDS[field]
    for sp in _split_pairs(_family(name, files, chain_text, f)):
        _assert_lifts_match(sp)


def _assert_lifts_match(sp):
    f = sp.field
    space = extensions.regular_h1(sp.base)
    dvecs = list(space.derivations.rows + space.inner.rows)
    dvecs += [{u: f.one()} for u in range(space.layout.total)]
    alphas = [w.alpha for w in lift_derivations(sp, dvecs)]
    assert alphas == gen.lift_alphas(sp, dvecs)
    return alphas


@pytest.mark.parametrize("field", FIELDS)
def test_missing_lifts_match_the_all_basis_system(field):
    """On a split where some inputs have no lift, the arrow sides find
    the same missing lifts as sides at every basis element."""
    pf = qdsl.parse(UNLIFTABLE)
    f = FIELDS[field]
    sp = split_presentation(
        build(pf.block("C"), field=f), build(pf.block("T"), field=f), ("z",)
    )
    alphas = _assert_lifts_match(sp)
    assert None in alphas and any(a is not None for a in alphas)


# -- verify under relabelling -----------------------------------------------


def _verify_json(text, split):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.quiv")
        with open(path, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        argv = ["verify", path, "--base", "C", "--tilde", "Ctilde", "--format", "json",
                "--split", ",".join(split)]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) in (0, 1)
    return json.loads(out.getvalue())


def _blocks(kind, k):
    if kind == "chain":
        return bench_chain.chain(k)
    return bench_chain.parse(squares(k))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([("chain", 1), ("chain", 2), ("chain", 3), ("squares", 1), ("squares", 2)]),
    st.integers(1, 10**6),
    st.data(),
)
def test_verify_is_invariant_under_relabelling(family, seed, data):
    """Renaming every vertex and arrow and reordering every declaration
    (bench/chain.py's relabel) leaves every dimension, rank and verdict of
    verify's JSON as it was, for any split; the split itself comes back
    under the inverse renaming.  The generator rows follow the arrow
    order, which relabelling shuffles."""
    blocks = _blocks(*family)
    new = [n for b in blocks for n in b["new"]]
    split = data.draw(st.lists(st.sampled_from(new), unique=True, min_size=1))
    relabelled, back = bench_chain.relabel(blocks, seed)
    name = {v: n for n, v in back.items()}
    want = _verify_json(bench_chain.render(blocks), split)
    got = _verify_json(bench_chain.render(relabelled), [name[a] for a in split])
    assert sorted(back[a] for a in got.pop("split")) == sorted(want.pop("split"))
    assert got == want
