"""Degree 0/1 cohomology: the derivation method against the full-complex
oracle, complex identities, and the cup product."""

import pytest

from relext import bimod, hochschild, qdsl
from relext.algebra import build, center
from relext.exactla import Matrix, PrimeField, QQ
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
        assert space.is_cocycle(r)
        flat = derivation_to_cochain(alg, m, r)
        img = calc.b2_apply(
            {i: c for i, c in enumerate(flat) if not f.is_zero(c)}
        )
        assert all(f.is_zero(c) for c in img.values())
    # no nonzero combination of representatives is inner: reduce pairwise
    for i, r in enumerate(reps):
        assert not space.inner.contains(list(r))
        for s in reps[i + 1 :]:
            assert not space.same_class(list(r), list(s))


def test_inner_space_inside_derivation_space(corpus_pairs):
    for tag, alg, m in corpus_pairs:
        der = derivation_space(alg, m)
        inn = inner_space(alg, m)
        for v in inn.basis:
            assert der.contains(list(v)), tag


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
        mat = Matrix.from_rows(f, [[f.one() if stat else f.zero()]])
        left.append(mat)
        right.append(mat)
    m = bimod.Bimodule.from_actions(alg, left, right, (v,), (v,))
    assert inner_space(alg, m).dim == 0


def test_cup_products(algebras):
    alg = algebras[("ex1", "Ctilde")]
    m = bimod.regular_bimodule(alg)
    f = alg.field
    calc = calculator(alg, m)
    space = h1(alg, m)
    reps = [derivation_to_cochain(alg, m, r) for r in space.representatives()]
    one = unit_cochain(alg)

    # degree 0 cup degree 0 is the algebra product
    z = list(alg.one().coords)
    assert hochschild.cup00(alg, z, z) == list(alg.multiply_coords(z, z))

    for c in reps:
        # unit laws
        assert list(cup01(alg, one, c)) == list(c)
        assert list(cup10(alg, c, one)) == list(c)
    for ci in reps:
        for cj in reps:
            fg = cup_product(alg, ci, cj)
            # the product of cocycles is a cocycle
            assert all(f.is_zero(x) for x in calc.b3_apply(fg).values())
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
            img = calc.b2_apply({calc.c1_key(a, t): f.one()})
            assert calc.is_coboundary(img)


def _chain_text(k: int) -> str:
    """The type-A chain 1 -> ... -> 2k+1 with zero relations a(2j+1).a(2j+2),
    and its relation extension by arrows e(j+1): 2j+3 -> 2j+1."""
    verts = "vertices " + " ".join(str(i) for i in range(1, 2 * k + 2))
    arrows = ["arrow a%d %d %d" % (i, i, i + 1) for i in range(1, 2 * k + 1)]
    rels = ["rel a%d.a%d" % (2 * j + 1, 2 * j + 2) for j in range(k)]
    news = ["arrow e%d %d %d" % (j + 1, 2 * j + 3, 2 * j + 1) for j in range(k)]
    ext = []
    for j in range(k):
        ext += ["rel a%d.e%d" % (2 * j + 2, j + 1), "rel e%d.a%d" % (j + 1, 2 * j + 1)]
        if j:
            ext.append("rel e%d.e%d" % (j + 1, j))
    new = "new " + " ".join("e%d" % (j + 1) for j in range(k))
    base = ["algebra C", verts] + arrows + rels + ["end"]
    full = ["algebra Ctilde", "extension_of C", verts] + arrows + news + [new]
    return "\n".join(base + full + rels + ext + ["end", ""])


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_center_is_regular_h0(files, field):
    """The center and H0 of the regular bimodule are one subspace, equal as
    canonical bases, not only in dimension."""
    blocks = [b for n in sorted(files) for b in files[n].blocks]
    for k in (3, 5):
        blocks += qdsl.parse(_chain_text(k)).blocks
    for blk in blocks:
        alg = build(blk, field=field)
        assert center(alg) == h0(bimod.regular_bimodule(alg)), blk.name
