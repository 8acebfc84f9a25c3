"""Degree 0/1 cohomology: the derivation method against the full-complex
oracle, complex identities, the coboundary and its action index against
hand-written references, the cached arrow layout, and the cup product."""

from itertools import combinations

import pytest

from relext import bimod, exactla, extensions, hochschild, qdsl
from relext.algebra import build, center
from dense_reference import DenseSubspace
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
    inner_space,
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
        assert hochschild.verify_complex(alg, m), tag


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
        assert layout.algebra is alg and layout.bimodule is m, tag
        assert (layout.blocks, layout.offsets, layout.total) == (
            blocks, offsets, sum(map(len, blocks))
        ), tag


def test_inner_dimension_rank_nullity(algebras):
    for key in sorted(HH):
        alg = algebras[key]
        m = bimod.regular_bimodule(alg)
        # dim Inn(A, A) = rank b^1 = dim A - dim Z(A)
        assert calculator(alg, m).b1_rank == alg.dim - center(alg).dim


def test_representatives_are_cocycles_and_independent(algebras):
    alg = algebras[("ex2", "Ctilde")]
    m = bimod.regular_bimodule(alg)
    space = h1(alg, m)
    calc = calculator(alg, m)
    f = alg.field
    reps = space.representatives()
    assert len(reps) == space.dim
    for r in reps:
        assert space.is_cocycle(f.sparse(r))
        cochain = derivation_to_cochain(alg, m, r)
        assert cochain and _no_zero(f, cochain)
        assert calc.coboundary(1, cochain) == {}
    # no nonzero combination of representatives is inner: reduce pairwise
    for i, r in enumerate(reps):
        assert not space.inner.contains(f.sparse(r))
        for s in reps[i + 1 :]:
            assert not space.same_class(f.sparse(r), f.sparse(s))


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


def test_class_basis_matches_dense_reference(corpus_pairs):
    inside = outside = 0
    for tag, alg, m in corpus_pairs:
        space = h1(alg, m)
        f = alg.field
        n = space.layout.total
        reps, coordinates = _reference_classes(space)
        assert space.representatives() == reps, tag
        units = [[f.one() if i == j else f.zero() for i in range(n)] for j in range(n)]
        for v in [f.dense(b, n) for b in space.derivations.rows] + units:
            want = coordinates(v)
            if want is None:
                with pytest.raises(ValueError, match="does not represent a class"):
                    space.class_coordinates(v)
                outside += 1
            else:
                assert space.class_coordinates(v) == want, tag
                inside += 1
    assert inside and outside


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
    z = bimod.zero_bimodule(alg)
    assert h0(z).dim == 0
    assert h1(alg, z).dim == 0
    calc = calculator(alg, z)
    assert calc.bar_h(0) == 0 and calc.bar_h(1) == 0


def test_trivial_arrow_actions_give_no_inner_derivations(algebras):
    # one-dimensional bimodule where every arrow acts by zero: commutators
    # with diagonal elements vanish, so the inner space is zero
    alg = algebras[("ex1", "C")]
    f = alg.field
    v = alg.quiver.vertices[0]
    left, right = [], []
    for j in range(alg.dim):
        p = alg.basis[j]
        stat = p.length == 0 and p.vertex == v
        table = {0: {0: f.one() if stat else f.zero()}}
        left.append(table)
        right.append(table)
    m = bimod.Bimodule.from_actions(alg, left, right, (v,), (v,))
    assert inner_space(alg, m).dim == 0


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
    calc = calculator(alg, m)
    f = alg.field
    # b^2 of a handful of unit 1-cochains must be coboundaries; zero too
    assert calc.is_coboundary({})
    for a in range(0, alg.dim, 3):
        for t in range(0, m.dim, 4):
            img = calc.coboundary(1, {a * m.dim + t: f.one()})
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
        for t, c in calc.m.commutator(a, i).items():
            col[a * calc.m.dim + t] = c
    return col


def reference_b2(calc, f1):
    """b2 of a sparse degree 1 cochain {(a, t) key: coeff}."""
    f, m, da = calc.field, calc.m, calc.alg.dim
    out = {}
    for key, v in f1.items():
        a, t = divmod(key, m.dim)
        # c0 . f(c1) over c0 = g
        for g, table in enumerate(m.left):
            for t2, x in table.get(t, {}).items():
                _add(f, out, (g * da + a) * m.dim + t2, f.mul(v, x))
        # -f(c0 c1)
        for g, h, c in calc.prod_fibers[a]:
            _add(f, out, (g * da + h) * m.dim + t, f.neg(f.mul(v, c)))
        # f(c0) . c1 over c1 = h
        for h, table in enumerate(m.right):
            for t2, x in table.get(t, {}).items():
                _add(f, out, (a * da + h) * m.dim + t2, f.mul(v, x))
    return out


def reference_b3(calc, f2):
    """b3 of a sparse degree 2 cochain {(g, h, t) key: coeff}."""
    f, m, da = calc.field, calc.m, calc.alg.dim
    dm = m.dim
    out = {}

    def c3_key(k, g, h, t):
        return ((k * da + g) * da + h) * dm + t

    for key, v in f2.items():
        gh, t = divmod(key, dm)
        g, h = divmod(gh, da)
        # c0 . F(c1, c2)
        for k, table in enumerate(m.left):
            for t2, x in table.get(t, {}).items():
                _add(f, out, c3_key(k, g, h, t2), f.mul(v, x))
        # -F(c0 c1, c2)
        for k, l, c in calc.prod_fibers[g]:
            _add(f, out, c3_key(k, l, h, t), f.neg(f.mul(v, c)))
        # +F(c0, c1 c2)
        for k, l, c in calc.prod_fibers[h]:
            _add(f, out, c3_key(g, k, l, t), f.mul(v, c))
        # -F(c0, c1) . c2
        for k, table in enumerate(m.right):
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
        calc = calculator(alg, m)
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
    """acts_at lists every nonzero entry of m.left and m.right exactly once,
    under the coordinate acted on, in ascending acting index."""
    for tag, alg, m in _coboundary_cases(files, chain_text, field):
        for tables, at in zip((m.left, m.right), calculator(alg, m).acts_at):
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


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_center_is_regular_h0(files, chain_text, field):
    """The center and H0 of the regular bimodule are one subspace, equal as
    canonical bases, not only in dimension."""
    blocks = [b for n in sorted(files) for b in files[n].blocks]
    for k in (3, 5):
        blocks += qdsl.parse(chain_text(k)).blocks
    for blk in blocks:
        alg = build(blk, field=field)
        assert center(alg) == h0(bimod.regular_bimodule(alg)), blk.name
