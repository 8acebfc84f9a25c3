"""Degree 0/1 cohomology: the derivation method against the bar-complex
oracle, which runs relative to the vertex idempotents, complex identities,
the coboundary and its action index against hand-written references and
against the full bar complex of bar_reference, the oracle's input contract,
the cached arrow layout, the cup product, H0 from the vertices and arrows
against the all-basis commutant builders of dense_reference, and the class
basis in derivation coordinates against the tagged RREF of
class_reference."""

import os
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from relext import bimod, exactla, extensions, hochschild, qdsl
from relext.algebra import build
from relext.extensions import center
import bar_reference
from bar_reference import FullBarCalculator
from class_reference import TaggedClasses
from copies import replaced
from dense_reference import (
    DenseSubspace,
    center_reference,
    action_tables,
    commutator,
    h0_reference,
    stores_no_zero,
)
from derivation_reference import inner_space
from families import squares
from split_reference import sub_bimodule
from relext.exactla import PrimeField, QQ
from relext.hochschild import (
    calculator,
    cup01,
    cup10,
    cup_product,
    derivation_space,
    derivation_to_cochain,
    h0,
    h1,
    unit_cochain,
)

HH = {
    # (fixture, algebra) -> (dim HH^0, dim HH^1)
    ("ex1", "C"): (1, 0),
    ("ex1", "B"): (1, 1),
    ("ex1", "Ctilde"): (1, 2),
    ("ex2", "C"): (1, 1),
    ("ex2", "B"): (2, 2),
    ("ex2", "Ctilde"): (3, 3),
}


@pytest.mark.parametrize("key", sorted(HH))
def test_regular_coefficient_dimensions(algebras, key):
    alg = algebras[key]
    m = bimod.regular_bimodule(alg)
    assert h0(m).dim == HH[key][0]
    assert h1(alg, m).dim == HH[key][1]


COEFF = {
    # tag -> (dim H^0, dim H^1) with ideal coefficients
    "ex1:B,E'": (0, 1),
    "ex1:C,E'": (0, 0),
    "ex1:Ct,E''": (0, 1),
    "ex1:B,E''": (0, 0),
    "ex1:Ct,E": (0, 2),
    "ex2:B,E'": (1, 1),
    "ex2:C,E'": (1, 0),
    "ex2:Ct,E''": (1, 1),
    "ex2:B,E''": (1, 0),
    "ex2:Ct,E": (2, 2),
}


def test_ideal_coefficient_dimensions(corpus_pairs):
    seen = {}
    for tag, alg, m in corpus_pairs:
        if tag in COEFF:
            seen[tag] = (h0(m).dim, h1(alg, m).dim)
    assert seen == COEFF


def test_dual_method_agreement_whole_corpus(corpus_pairs):
    for tag, alg, m in corpus_pairs:
        calc = calculator(alg, m)
        assert calc.bar_h(0) == h0(m).dim, tag
        assert calc.bar_h(1) == h1(alg, m).dim, tag


def test_complex_identities_whole_corpus(corpus_pairs):
    for tag, alg, m in corpus_pairs:
        assert bar_reference.verify_complex(alg, m), tag
        assert FullBarCalculator(alg, m).verify_complex(), tag


def test_arrow_layout_is_scanned_once_per_bimodule(corpus_pairs):
    """Repeated calls return the layout cached on the bimodule, and it
    equals a fresh scan of M for each arrow's bigraded slice."""
    for tag, alg, m in corpus_pairs:
        layout = hochschild.arrow_layout(alg, m)
        assert hochschild.arrow_layout(alg, m) is layout, tag
        assert m._layout is layout, tag
        blocks = [
            [i for i in range(m.dim) if (m.src[i], m.tgt[i]) == (a.source, a.target)]
            for a in alg.quiver.arrows
        ]
        offsets = [sum(map(len, blocks[:k])) for k in range(len(blocks))]
        assert (layout.blocks, layout.offsets, layout.total) == (
            blocks, offsets, sum(map(len, blocks))
        ), tag


def test_ad_is_built_once_per_bimodule(corpus_pairs, monkeypatch):
    """h0 and h1 on one bimodule share the ad(x) kept on it, which equals a
    fresh build on a new view of the same span; once it is kept, h0 reads
    no product."""
    reads = []
    real = bimod.Bimodule.touched
    monkeypatch.setattr(
        bimod.Bimodule, "touched", lambda m, side, a: reads.append(a) or real(m, side, a)
    )
    for tag, alg, m in corpus_pairs:
        hochschild.h0(m)
        ad = m._ad
        assert hochschild.h1(alg, m).ad is ad, tag
        fresh = bimod.Bimodule(m.acting, m.ambient, m.amb_index, m.embed)
        assert hochschild._inner_derivations(alg, fresh) == ad, tag
        del reads[:]
        hochschild.h0(m)
        assert not reads, tag


def test_inner_dimension_rank_nullity(algebras):
    for key in sorted(HH):
        alg = algebras[key]
        m = bimod.regular_bimodule(alg)
        # dim Inn(A, A) = rank b^1 = dim A - dim Z(A)
        assert FullBarCalculator(alg, m).b1_rank == alg.dim - center(alg).dim


def test_relative_inner_dimension_rank_nullity(algebras):
    for key in sorted(HH):
        alg = algebras[key]
        m = bimod.regular_bimodule(alg)
        calc = calculator(alg, m)
        # Z(A) lies in A^E = C^0, so rank b^1 = |C^0| - dim Z(A)
        assert calc.b1_rank == len(calc.c0_keys) - center(alg).dim, key


def test_representatives_are_cocycles_and_independent(algebras):
    alg = algebras[("ex2", "Ctilde")]
    m = bimod.regular_bimodule(alg)
    space = h1(alg, m)
    calc = calculator(alg, m)
    f = alg.field
    reps = space.representatives()
    assert len(reps) == space.dim
    for r in reps:
        assert space.derivations.contains(r)
        cochain = derivation_to_cochain(alg, m, r)
        assert cochain and _no_zero(f, cochain)
        assert calc.coboundary(1, cochain) == {}
    # no nonzero combination of representatives is inner: reduce pairwise
    for i, r in enumerate(reps):
        assert not space.inner.contains(r)
        for s in reps[i + 1 :]:
            assert space.inner.reduce(_minus(f, r, s))


def _reference_classes(space):
    """Representatives grown one dense Subspace sum at a time, and a solve
    for class coordinates against the inner basis and those
    representatives."""
    f = space.algebra.field
    n = space.layout.total
    reps = []
    span = DenseSubspace.of(space.inner)
    for b in space.derivations.rows:
        b = f.dense(b, n)
        if not span.contains(b):
            reps.append(b)
            span = span.sum(DenseSubspace.from_vectors(f, n, [b]))
    cols = [f.dense(b, n) for b in space.inner.rows] + reps
    rows = [f.sparse([c[i] for c in cols]) for i in range(n)]

    def coordinates(vec):
        (sol,) = exactla.solve_rows(f, len(cols), rows, [f.sparse(list(vec))])
        return None if sol is None else f.dense(sol, len(cols))[space.inner.dim :]

    return reps, coordinates


def _no_zero_vectors(f, vecs):
    """stores_no_zero on the nonempty sparse vectors of a list."""
    return stores_no_zero(f, {k: v for k, v in enumerate(vecs) if v})


def test_class_basis_matches_dense_reference(corpus_pairs_by_field):
    """Representatives and class coordinates, on the corpus over Q and F7,
    equal the dense reference's; neither they nor the values of the
    representatives store a zero."""
    inside = outside = 0
    for tag, alg, m in corpus_pairs_by_field["Q"] + corpus_pairs_by_field["F7"]:
        tag = "%s/%s" % (tag, alg.field.name)
        space = h1(alg, m)
        f = alg.field
        n = space.layout.total
        reps, coordinates = _reference_classes(space)
        got = space.representatives()
        assert got == [f.sparse(r) for r in reps], tag
        assert stores_no_zero(f, dict(enumerate(got))), tag
        for r in got:
            assert _no_zero_vectors(f, hochschild.derivation_values(alg, m, r)), tag
        units = [{j: f.one()} for j in range(n)]
        for v in list(space.derivations.rows) + units:
            want = coordinates(f.dense(v, n))
            if want is None:
                with pytest.raises(ValueError, match="does not represent a class"):
                    space.class_coordinates(v)
                outside += 1
            else:
                coords = space.class_coordinates(v)
                assert coords == f.sparse(want), tag
                assert _no_zero_vectors(f, [coords]), tag
                inside += 1
    assert inside and outside


HALFSQUARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "halfsquare.quiv")


def _tagged_corpus(files, chain_text, corpus_pairs_by_field, field):
    """(tag, algebra, bimodule) over the field: the ex1/ex2 pairs, and the
    regular bimodule of every partial extension of ex1, ex2, chain k <= 4,
    squares k <= 3 and both families of halfsquare.quiv."""
    out = list(corpus_pairs_by_field[field.name])
    with open(HALFSQUARE, encoding="utf-8") as fh:
        half = qdsl.parse(fh.read())
    towers = [(n, files[n], "C", "Ctilde") for n in sorted(files)]
    towers += [("chain%d" % k, qdsl.parse(chain_text(k)), "C", "Ctilde") for k in (1, 2, 3, 4)]
    towers += [("squares%d" % k, qdsl.parse(squares(k)), "C", "Ctilde") for k in (1, 2, 3)]
    towers += [("halfsquare", half, "C", "Ctilde"), ("halfsquare", half, "D", "Dtilde")]
    for name, pf, base, tilde in towers:
        fam = extensions.Family(pf.block(base), pf.block(tilde), field)
        for r in range(len(fam.new_arrows) + 1):
            for combo in combinations(fam.new_arrows, r):
                try:
                    alg = fam.partial(combo)
                except extensions.SplitError:
                    continue
                tag = "%s:%s_%s" % (name, base, ",".join(combo))
                out.append((tag, alg, bimod.regular_bimodule(alg)))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_class_basis_matches_tagged_reference(files, chain_text, corpus_pairs_by_field, field):
    """Representatives and class coordinates, read in derivation
    coordinates, equal those of the tagged RREF of class_reference on the
    derivation basis, the inner basis, a combination of the derivations and
    every unit vector (most of which are no derivation)."""
    corpus = _tagged_corpus(files, chain_text, corpus_pairs_by_field, field)
    nonzero = outside = 0
    for tag, alg, m in corpus:
        space = h1(alg, m)
        ref = TaggedClasses(space)
        assert space.representatives() == ref.representatives(), tag
        f = alg.field
        total = space.layout.total
        mix = {}
        for k, row in enumerate(space.derivations.rows):
            f.axpy(mix, f.from_fraction(k + 1), row)
        units = [{j: f.one()} for j in range(total)]
        for v in [*space.derivations.rows, *space.inner.rows, mix, *units]:
            try:
                want = ref.class_coordinates(v)
            except ValueError:
                with pytest.raises(ValueError, match="does not represent a class"):
                    space.class_coordinates(v)
                outside += 1
                continue
            assert space.class_coordinates(v) == want, tag
            nonzero += bool(want)
    # ex1/ex2 pairs, 4 partials of each fixture, 2 + 4 + 8 + 16 of chain
    # k <= 4, 2 + 4 + 8 of squares k <= 3 and 2 + 2 of halfsquare
    assert len(corpus) == 16 + 8 + 30 + 14 + 4
    assert nonzero > 100 and outside > 100


def _space_with_classes(algebras):
    """H1 of ex2's Ctilde, which has inner derivations, RREF rows and
    representatives; (space, k, rep) with k the pivot of an RREF row."""
    alg = algebras[("ex2", "Ctilde")]
    space = h1(alg, bimod.regular_bimodule(alg))
    reps, rows = space._class_basis()
    assert reps and rows
    return space, rows[0][0], reps[0]


def test_class_coordinates_substitution_catches_a_corrupt_row(algebras):
    """An RREF row with an entry planted on a representative gives wrong
    coordinates to every derivation with a nonzero entry at its pivot, and
    the substitution check raises."""
    space, k, rep = _space_with_classes(algebras)
    f = space.algebra.field
    der_k = space.derivations.rows[k]
    assert space.class_coordinates(der_k) == TaggedClasses(space).class_coordinates(der_k)
    reps, rows = space._classes
    corrupt = dict(rows[0][1])
    corrupt[rep] = f.add(corrupt.get(rep, f.zero()), f.one())
    space._classes = (reps, ((k, f.sparse(corrupt)),) + rows[1:])
    with pytest.raises(ArithmeticError, match="fail substitution"):
        space.class_coordinates(der_k)


def test_class_basis_checks_the_rank_of_the_inner_rows(algebras):
    """An inner row with no entry on a pivot of Der reads as zero in
    derivation coordinates; h1 rules it out by checking inner inside Der,
    and _class_basis by the rank."""
    space, _, _ = _space_with_classes(algebras)
    f = space.algebra.field
    pivots = {min(row) for row in space.derivations.rows}
    j = next(j for j in range(space.layout.total) if j not in pivots)
    inner = exactla.Subspace.from_sparse(
        f, space.layout.total, space.inner.rows + ({j: f.one()},)
    )
    assert inner.dim == space.inner.dim + 1
    bad = replaced(space, inner=inner, _classes=None)
    with pytest.raises(ArithmeticError, match="dependent"):
        bad.representatives()


def test_inner_space_inside_derivation_space(corpus_pairs):
    for tag, alg, m in corpus_pairs:
        der = derivation_space(alg, m)
        inn = inner_space(alg, m)
        for v in inn.rows:
            assert der.contains(v), tag


def test_single_arrow_path_algebra():
    alg = build(qdsl.parse("algebra A\nvertices 1 2\narrow a 1 2\nend\n").block("A"))
    m = bimod.regular_bimodule(alg)
    assert derivation_space(alg, m).dim == 1
    assert inner_space(alg, m).dim == 1
    assert h1(alg, m).dim == 0
    assert h0(m).dim == 1
    assert calculator(alg, m).bar_h(1) == 0


def test_semisimple_no_arrows():
    alg = build(qdsl.parse("algebra S\nvertices 1 2 3\nend\n").block("S"))
    m = bimod.regular_bimodule(alg)
    assert h1(alg, m).dim == 0
    assert h0(m).dim == 3
    calc = calculator(alg, m)
    assert calc.bar_h(0) == 3 and calc.bar_h(1) == 0


def test_zero_bimodule_cohomology(algebras):
    alg = algebras[("ex1", "C")]
    z = sub_bimodule(alg, ())
    assert h0(z).dim == 0
    assert h1(alg, z).dim == 0
    calc = calculator(alg, z)
    assert calc.bar_h(0) == 0 and calc.bar_h(1) == 0


def test_trivial_arrow_actions_give_no_inner_derivations(algebras):
    # one-dimensional bimodule where every arrow acts by zero: the span of
    # the cycle beta.eps.alpha of ex2 B.  Commutators with diagonal
    # elements vanish, so the inner space is zero
    alg = algebras[("ex2", "B")]
    (i,) = [i for i, p in enumerate(alg.basis) if p.label() == "beta.eps.alpha"]
    m = sub_bimodule(alg, (i,))
    assert m.diagonal_indices() == [0]
    left, right = action_tables(m)
    for name, a in alg.arrow_index_in_basis.items():
        assert not left[a] and not right[a], name
    assert inner_space(alg, m).dim == 0
    assert h0(m).dim == 1


def _no_zero(f, cochain):
    return all(not f.is_zero(c) for c in cochain.values())


def test_cup_products(algebras):
    alg = algebras[("ex1", "Ctilde")]
    m = bimod.regular_bimodule(alg)
    f = alg.field
    calc = calculator(alg, m)
    space = h1(alg, m)
    reps = [derivation_to_cochain(alg, m, r) for r in space.representatives()]
    one = unit_cochain(alg)
    assert reps and _no_zero(f, one) and all(_no_zero(f, c) for c in reps)

    for c in reps:
        # unit laws
        left, right = cup01(alg, one, c), cup10(alg, c, one)
        assert left == c and right == c
        assert _no_zero(f, left) and _no_zero(f, right)
    for ci in reps:
        for cj in reps:
            fg = cup_product(alg, ci, cj)
            assert _no_zero(f, fg)
            # the product of cocycles is a cocycle
            assert calc.coboundary(2, fg) == {}
            # graded commutativity on classes: f x g - g x f bounds
            gf = cup_product(alg, cj, ci)
            diff = dict(fg)
            for k, val in gf.items():
                diff[k] = f.sub(diff.get(k, f.zero()), val)
            assert calc.is_coboundary(diff)


def test_coboundaries_are_coboundaries(algebras):
    alg = algebras[("ex1", "C")]
    m = bimod.regular_bimodule(alg)
    calc = FullBarCalculator(alg, m)
    f = alg.field
    # b^2 of a handful of unit 1-cochains must be coboundaries; zero too
    assert calc.is_coboundary({})
    for a in range(0, alg.dim, 3):
        for t in range(0, m.dim, 4):
            img = calc.coboundary(1, {a * m.dim + t: f.one()})
            assert _no_zero(f, img)
            assert calc.is_coboundary(img)


def test_relative_coboundaries_are_coboundaries(algebras):
    alg = algebras[("ex1", "C")]
    m = bimod.regular_bimodule(alg)
    calc = calculator(alg, m)
    f = alg.field
    # b^2 of every relative unit 1-cochain is a coboundary; zero too
    assert calc.is_coboundary({})
    assert calc.c1_keys
    for key in calc.c1_keys:
        img = calc.coboundary(1, {key: f.one()})
        assert _no_zero(f, img)
        assert calc.is_coboundary(img)


# -- the coboundary against hand-written b1, b2, b3 ----------------------------


def _add(f, out, key, c):
    nv = f.add(out.get(key, f.zero()), c)
    if f.is_zero(nv):
        out.pop(key, None)
    else:
        out[key] = nv


def reference_b1(calc, i):
    """b1 of the i-th M basis vector: a |-> a.x - x.a."""
    col = {}
    for a in range(calc.alg.dim):
        for t, c in commutator(calc.m, a, i).items():
            col[a * calc.m.dim + t] = c
    return col


def reference_b2(calc, f1):
    """b2 of a sparse degree 1 cochain {(a, t) key: coeff}."""
    f, m, da = calc.field, calc.m, calc.alg.dim
    left, right = calc.tables
    out = {}
    for key, v in f1.items():
        a, t = divmod(key, m.dim)
        # c0 . f(c1) over c0 = g
        for g, table in enumerate(left):
            for t2, x in table.get(t, {}).items():
                _add(f, out, (g * da + a) * m.dim + t2, f.mul(v, x))
        # -f(c0 c1)
        for g, h, c in calc.prod_fibers[a]:
            _add(f, out, (g * da + h) * m.dim + t, f.neg(f.mul(v, c)))
        # f(c0) . c1 over c1 = h
        for h, table in enumerate(right):
            for t2, x in table.get(t, {}).items():
                _add(f, out, (a * da + h) * m.dim + t2, f.mul(v, x))
    return out


def reference_b3(calc, f2):
    """b3 of a sparse degree 2 cochain {(g, h, t) key: coeff}."""
    f, m, da = calc.field, calc.m, calc.alg.dim
    dm = m.dim
    left, right = calc.tables
    out = {}

    def c3_key(k, g, h, t):
        return ((k * da + g) * da + h) * dm + t

    for key, v in f2.items():
        gh, t = divmod(key, dm)
        g, h = divmod(gh, da)
        # c0 . F(c1, c2)
        for k, table in enumerate(left):
            for t2, x in table.get(t, {}).items():
                _add(f, out, c3_key(k, g, h, t2), f.mul(v, x))
        # -F(c0 c1, c2)
        for k, l, c in calc.prod_fibers[g]:
            _add(f, out, c3_key(k, l, h, t), f.neg(f.mul(v, c)))
        # +F(c0, c1 c2)
        for k, l, c in calc.prod_fibers[h]:
            _add(f, out, c3_key(g, k, l, t), f.mul(v, c))
        # -F(c0, c1) . c2
        for k, table in enumerate(right):
            for t2, x in table.get(t, {}).items():
                _add(f, out, c3_key(g, h, k, t2), f.neg(f.mul(v, x)))
    return out


def _coboundary_cases(files, chain_text, field):
    """(tag, algebra, bimodule): every ex1/ex2 block and the chain family
    at k <= 3 with regular coefficients, and the new-arrow ideal of every
    split of each family, over the acting algebra and over the base."""
    families = {
        n: extensions.Family(pf.block("C"), pf.block("Ctilde"), field=field)
        for n, pf in files.items()
    }
    for k in (1, 2, 3):
        pf = qdsl.parse(chain_text(k))
        families["chain%d" % k] = extensions.Family(
            pf.block("C"), pf.block("Ctilde"), field=field
        )
    for n, pf in files.items():
        for blk in pf.blocks:
            alg = build(blk, field=field)
            yield "%s:%s" % (n, blk.name), alg, bimod.regular_bimodule(alg)
    for n, fam in families.items():
        if n.startswith("chain"):
            for alg in (fam.base, fam.full):
                yield "%s:%s" % (n, alg.block.name), alg, bimod.regular_bimodule(alg)
        subsets = [
            s for r in range(len(fam.new_arrows) + 1)
            for s in combinations(fam.new_arrows, r)
        ]
        for upper in subsets:
            for lower in subsets:
                if set(lower) < set(upper):
                    sp = fam.split(lower, upper)
                    tag = "%s:%s<%s" % (n, ",".join(lower), ",".join(upper))
                    yield tag + ":E", sp.total, sp.ext
                    yield tag + ":E/base", sp.base, sp.ext_over_base


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_coboundary_matches_references(files, chain_text, field):
    """coboundary equals b1 on every basis vector of M, b2 on every basis
    1-cochain, and b3 on every image of b2 and on every basis 2-cochain
    that such an image touches, as whole dicts.  The images of b2 go to
    zero, so the basis 2-cochains are what gives b3 nonzero values."""
    cases = splits = 0
    one = field.one()
    for tag, alg, m in _coboundary_cases(files, chain_text, field):
        calc = FullBarCalculator(alg, m)
        for i in range(m.dim):
            assert calc.coboundary(0, {i: one}) == reference_b1(calc, i), tag
        touched = set()
        for key in range(alg.dim * m.dim):
            img = calc.coboundary(1, {key: one})
            assert img == reference_b2(calc, {key: one}), tag
            assert calc.coboundary(2, img) == reference_b3(calc, img), tag
            touched.update(img)
        for key in touched:
            assert calc.coboundary(2, {key: one}) == reference_b3(calc, {key: one}), tag
        cases += 1
        splits += tag.endswith("E")
    assert cases > 50 and splits > 20


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_action_index_holds_the_nonzero_table_entries(files, chain_text, field):
    """acts_at lists every nonzero entry of the two action tables exactly
    once, under the coordinate acted on, in ascending acting index."""
    for tag, alg, m in _coboundary_cases(files, chain_text, field):
        for tables, at in zip(action_tables(m), FullBarCalculator(alg, m).acts_at):
            want = {
                (g, t, t2): x
                for g, table in enumerate(tables)
                for t, row in table.items()
                for t2, x in row.items()
                if not field.is_zero(x)
            }
            got = [(g, t, t2, x) for t, lst in enumerate(at) for g, t2, x in lst]
            assert len(got) == len(want), tag
            assert {(g, t, t2): x for g, t, t2, x in got} == want, tag
            for lst in at:
                assert [g for g, _, _ in lst] == sorted(g for g, _, _ in lst), tag


def _relative_keys(alg, m, n):
    """The keys of the relative basis n-cochains, n = 0, 1 or 2, read off
    the ends of the basis paths and m.src/m.tgt rather than the idempotents:
    composable tuples of paths of positive length, with a value in
    e_v M e_w for v the source of the first and w the target of the last."""
    ends = [(p.source, p.target) for p in alg.basis]
    if n == 0:
        return [t for t in range(m.dim) if m.src[t] == m.tgt[t]]
    tuples = [(c,) for c, p in enumerate(alg.basis) if p.length]
    for _ in range(n - 1):
        tuples = [
            cs + (c,)
            for cs in tuples
            for c, p in enumerate(alg.basis)
            if p.length and ends[cs[-1]][1] == ends[c][0]
        ]
    keys = []
    for cs in tuples:
        args = 0
        for c in cs:
            args = args * alg.dim + c
        grade = (ends[cs[0]][0], ends[cs[-1]][1])
        keys += [args * m.dim + t for t in range(m.dim) if (m.src[t], m.tgt[t]) == grade]
    return sorted(keys)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_relative_coboundary_matches_references(files, chain_text, field):
    """The relative basis cochains are the keys of _relative_keys, and on
    each of them in degrees 0, 1 and 2 the coboundary equals the
    hand-written full b1, b2 and b3, as whole dicts; so does b3 on every
    image of b2."""
    cases = 0
    one = field.one()
    for tag, alg, m in _coboundary_cases(files, chain_text, field):
        calc = calculator(alg, m)
        ref = FullBarCalculator(alg, m)
        assert calc.c0_keys == _relative_keys(alg, m, 0), tag
        assert calc.c1_keys == _relative_keys(alg, m, 1), tag
        for t in calc.c0_keys:
            assert calc.coboundary(0, {t: one}) == reference_b1(ref, t), tag
        for key in calc.c1_keys:
            img = calc.coboundary(1, {key: one})
            assert img == reference_b2(ref, {key: one}), tag
            assert calc.coboundary(2, img) == reference_b3(ref, img), tag
        for key in _relative_keys(alg, m, 2):
            assert calc.coboundary(2, {key: one}) == reference_b3(ref, {key: one}), tag
        cases += 1
    assert cases > 50


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_relative_action_index_holds_the_radical_table_entries(files, chain_text, field):
    """The relative acts_at lists every nonzero entry of the two action tables
    whose acting basis element is not an idempotent exactly once, under the
    coordinate acted on, in ascending acting index; prod_fibers lists the
    products of two such elements."""
    for tag, alg, m in _coboundary_cases(files, chain_text, field):
        calc = calculator(alg, m)
        idem = set(alg.idem_index.values())
        for tables, at in zip(action_tables(m), calc.acts_at):
            want = {
                (g, t, t2): x
                for g, table in enumerate(tables)
                if g not in idem
                for t, row in table.items()
                for t2, x in row.items()
            }
            got = [(g, t, t2, x) for t, lst in enumerate(at) for g, t2, x in lst]
            assert len(got) == len(want), tag
            assert {(g, t, t2): x for g, t, t2, x in got} == want, tag
            for lst in at:
                assert [g for g, _, _ in lst] == sorted(g for g, _, _ in lst), tag
        fibers = {
            (p, g, h): c
            for g, row in enumerate(alg.products)
            for h, cell in row.items()
            if g not in idem and h not in idem
            for p, c in cell.items()
        }
        got = [(p, g, h, c) for p, lst in enumerate(calc.prod_fibers) for g, h, c in lst]
        assert len(got) == len(fibers), tag
        assert {(p, g, h): c for p, g, h, c in got} == fibers, tag


# -- the relative complex against the full one ---------------------------------


FIELDS = [QQ, PrimeField(7)]
_AGREEMENT = {}  # field name -> cases of _agreement_cases, built once


def _agreement_cases(files, chain_text, field):
    """(tag, algebra, bimodule, full reference, regular?): every ex1/ex2
    block and both blocks of the chain family at k <= 4, with coefficients
    in the algebra and in the arrow ideal (as hcoh builds it) of each new
    arrow and of all of them."""
    if field.name not in _AGREEMENT:
        pfs = [(n, files[n]) for n in sorted(files)]
        pfs += [("chain%d" % k, qdsl.parse(chain_text(k))) for k in (1, 2, 3, 4)]
        cases = []
        for n, pf in pfs:
            for blk in pf.blocks:
                alg = build(blk, field=field)
                tag = "%s:%s" % (n, blk.name)
                m = bimod.regular_bimodule(alg)
                cases.append((tag, alg, m, FullBarCalculator(alg, m), True))
                news = tuple(blk.new_arrows)
                for arrows in sorted({(a,) for a in news} | {news} - {()}):
                    m = bimod.arrow_ideal_bimodule(alg, arrows)
                    cases.append(
                        ("%s,(%s)" % (tag, ",".join(arrows)), alg, m,
                         FullBarCalculator(alg, m), False)
                    )
        _AGREEMENT[field.name] = cases
    return _AGREEMENT[field.name]


def _minus(f, u, v):
    out = dict(u)
    for k, x in v.items():
        out[k] = f.sub(out.get(k, f.zero()), x)
    return f.sparse(out)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_relative_complex_agrees_with_full_reference(files, chain_text, field):
    """On every agreement case: the same H0 and H1 dimensions, the full
    coboundary on every relative basis cochain of degree 0, 1 and 2, and
    the same coboundary verdict on every cup product of H1 representatives
    and on every cup commutator."""
    one = field.one()
    ideals = commutators = 0
    for tag, alg, m, ref, regular in _agreement_cases(files, chain_text, field):
        calc = calculator(alg, m)
        assert (calc.bar_h(0), calc.bar_h(1)) == (ref.bar_h(0), ref.bar_h(1)), tag
        for n in (0, 1, 2):
            for key in _relative_keys(alg, m, n):
                assert calc.coboundary(n, {key: one}) == ref.coboundary(n, {key: one}), tag
        ideals += not regular
        if not regular:
            continue
        reps = [derivation_to_cochain(alg, m, r) for r in h1(alg, m).representatives()]
        for ci in reps:
            for cj in reps:
                fg, gf = cup_product(alg, ci, cj), cup_product(alg, cj, ci)
                assert calc.is_coboundary(fg) == ref.is_coboundary(fg), tag
                diff = _minus(field, fg, gf)
                assert calc.is_coboundary(diff) == ref.is_coboundary(diff), tag
                commutators += 1
    assert ideals > 10 and commutators > 20


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_relative_complex_agrees_with_full_reference_on_random_cochains(
    files, chain_text, data
):
    """On a drawn agreement case, random relative cochains of degree 0, 1
    and 2 have the full coboundary, and b(psi) + chi for random relative
    psi and chi is a coboundary for both complexes or for neither."""
    field = data.draw(st.sampled_from(FIELDS), label="field")
    cases = _agreement_cases(files, chain_text, field)
    tag, alg, m, ref, _ = data.draw(st.sampled_from(cases), label="case")
    calc = calculator(alg, m)

    def cochain(n):
        keys = _relative_keys(alg, m, n)
        if not keys:
            return {}
        picked = data.draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
        coeffs = st.integers(-3, 3).map(field.from_fraction)
        return field.sparse({k: data.draw(coeffs) for k in picked})

    for n in (0, 1, 2):
        fn = cochain(n)
        assert calc.coboundary(n, fn) == ref.coboundary(n, fn), tag
    psi, chi = cochain(1), cochain(2)
    img = calc.coboundary(1, psi)
    assert calc.is_coboundary(img) and ref.is_coboundary(img), tag
    phi = _minus(field, img, chi)
    assert calc.is_coboundary(phi) == ref.is_coboundary(phi), tag


# -- input contracts -------------------------------------------------------------


def test_derivation_coordinates_outside_the_layout_are_rejected(algebras):
    """On ex1 Ctilde (6 arrow coordinates) a derivation with an entry at
    coordinate 6, 8 or -1 is not silently cut to the first 6."""
    alg = algebras[("ex1", "Ctilde")]
    m = bimod.regular_bimodule(alg)
    space = h1(alg, m)
    assert space.layout.total == 6
    r = space.representatives()[0]
    one = alg.field.one()
    assert derivation_to_cochain(alg, m, r)
    for extra in (6, 8, -1):
        vec = dict(r)
        vec[extra] = one
        for fn in (hochschild.derivation_values, derivation_to_cochain):
            with pytest.raises(ValueError, match=r"coordinate outside range\(6\)"):
                fn(alg, m, vec)


def test_sparse_entry_points_reject_dense_lists(presentations):
    """A dense list is not read as a sparse vector: on ex1 Ctilde the list
    [1, 0, 0, 0, 0, 0] used to give derivation_values nonzero values, and a
    lift, without an error, and reduce and to_ambient failed on an
    unrelated error."""
    sp = presentations["ex1"]["CCt"]
    alg = sp.total
    m = bimod.regular_bimodule(alg)
    space = h1(alg, m)
    one, zero = alg.field.one(), alg.field.zero()
    dense = [one] + [zero] * (space.layout.total - 1)
    calls = [
        lambda: hochschild.derivation_values(alg, m, dense),
        lambda: derivation_to_cochain(alg, m, dense),
        lambda: space.derivations.reduce(dense),
        lambda: m.to_ambient([one] + [zero] * (m.dim - 1)),
        lambda: extensions.lift_derivations(sp, [[one, zero, zero]]),
    ]
    want = r"expected a sparse vector \{coordinate: x\}, got list"
    for call in calls:
        with pytest.raises(TypeError, match=want):
            call()


# -- the oracle's input contract ------------------------------------------------


def test_coboundary_rejects_cochains_not_relative_to_the_vertices(algebras):
    """An idempotent argument, arguments that do not compose, a value
    outside e_s(c1) M e_t(cn) and a key out of range each raise ValueError
    naming the key, from coboundary and from is_coboundary."""
    alg = algebras[("ex1", "C")]
    m = bimod.regular_bimodule(alg)
    calc = calculator(alg, m)
    one = alg.field.one()
    da, dm = alg.dim, m.dim
    arrows = {(p.source, p.target): c for c, p in enumerate(alg.basis) if p.length == 1}
    (u, w), c = next(iter(arrows.items()))
    e_u, e_w = alg.idem_index[u], alg.idem_index[w]
    good1 = c * dm + c  # c with the value c, in e_u M e_w
    # an arrow that does not start at w, so (c, d) does not compose
    d = next(a for (s, _), a in arrows.items() if s != w)
    bad = {
        0: [(c, "outside e_%s M e_%s" % (u, u)), (da * dm, "out of range")],
        1: [
            (e_u * dm + e_u, "argument 1 is the idempotent"),
            (c * dm + e_u, "outside e_%s M e_%s" % (u, w)),
        ],
        2: [
            ((c * da + d) * dm + c, "arguments 1 and 2 do not compose"),
            ((e_u * da + c) * dm + c, "argument 1 is the idempotent"),
            ((c * da + e_w) * dm + c, "argument 2 is the idempotent"),
            (-1, "out of range"),
        ],
    }
    good = {0: {e_u: one}, 1: {good1: one}, 2: {}}
    for n, cases in bad.items():
        for key, why in cases:
            cochain = dict(good[n])
            cochain[key] = one
            with pytest.raises(ValueError, match=r"key %d\b.*%s" % (key, why)):
                calc.coboundary(n, cochain)
            if n == 2:
                with pytest.raises(ValueError, match=r"key %d\b.*%s" % (key, why)):
                    calc.is_coboundary(cochain)
    full = FullBarCalculator(alg, m)
    assert calc.coboundary(1, {good1: one}) == full.coboundary(1, {good1: one})


def test_calculator_rejects_bases_without_one_bigrade(algebras, presentations):
    """The calculator raises when the idempotents' rows give a basis element
    of M two left grades or none, or scale a basis element of A.  M reads
    its actions off its ambient's products, so the bimodule side is reached
    through the ambient of an ext_over_base with corrupted idempotent rows:
    its acting algebra, the base, keeps its own products."""
    sp = presentations["ex1"]["CCt"]
    base, total, e = sp.base, sp.total, sp.ext_over_base
    f = base.field
    t = next(t for t in range(e.dim) if e.src[t] != e.src[0])
    g = e.amb_index[t]
    e_v = total.idem_index[e.src[0]]
    e_t = total.idem_index[e.src[t]]

    def with_row(row, cell):
        products = list(total.products)
        products[row] = {h: c for h, c in total.products[row].items() if h != g}
        if cell:
            products[row][g] = cell
        return replaced(total, products=products)

    for ambient, count in (
        (with_row(e_v, {g: f.one()}), "2 of them"),
        (with_row(e_t, None), "0 of them"),
    ):
        bad = bimod.Bimodule(base, ambient, e.amb_index, sp.section)
        want = "basis element %d of the bimodule .*left: %s" % (t, count)
        with pytest.raises(ValueError, match=want):
            hochschild.HochschildCalculator(base, bad)
    alg = algebras[("ex1", "C")]
    m = bimod.regular_bimodule(alg)
    t = next(t for t in range(m.dim) if m.src[t] != m.src[0])
    e_t = alg.idem_index[m.src[t]]
    products = list(alg.products)
    products[e_t] = dict(alg.products[e_t])
    products[e_t][t] = {t: f.from_fraction(2)}
    scaled = replaced(alg, products=products)
    zero = bimod.Bimodule(scaled, scaled, (), range(alg.dim))
    want = "basis element %d of algebra C .*left: 1 of them act on it, 0 as" % t
    with pytest.raises(ValueError, match=want):
        hochschild.HochschildCalculator(scaled, zero)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_center_is_regular_h0(files, chain_text, field):
    """H0 from rows for the vertices and arrows only equals the all-basis
    h0_reference as canonical bases, not only in dimension: on the regular
    bimodule of every block, on the ideal of each single new arrow and of
    all of them, and on every split's ext and ext_over_base.  The center,
    H0 of the regular bimodule, equals the structure-constant
    center_reference."""
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in (1, 2, 3, 5)]
    count = 0
    for pf in pfs:
        fam = extensions.Family(pf.block("C"), pf.block("Ctilde"), field)
        bimodules = []
        for blk in pf.blocks:
            alg = build(blk, field=field)
            assert center(alg) == center_reference(alg), blk.name
            bimodules.append(bimod.regular_bimodule(alg))
        for arrows in [(a,) for a in fam.new_arrows] + [fam.new_arrows]:
            bimodules.append(bimod.arrow_ideal_bimodule(fam.full, arrows))
        for r in range(len(fam.new_arrows) + 1):
            for combo in combinations(fam.new_arrows, r):
                try:
                    fam.partial(combo)
                except extensions.SplitError:
                    continue
                for sp in (fam.split((), combo), fam.split(combo, fam.new_arrows)):
                    bimodules += [sp.ext, sp.ext_over_base]
        for m in bimodules:
            assert h0(m) == h0_reference(m), m
        count += len(bimodules)
    # ex1, ex2 and chain k = 1, 2, 3, 5: the regular bimodules of their
    # 14 blocks, 21 arrow ideals, and 4 bimodules for each of the 54 valid
    # subsets
    assert count == 14 + 21 + 4 * 54
