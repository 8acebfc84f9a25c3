"""Acceptance gate: one test per shipped criterion, exact integer equality.

Every criterion is asserted exactly as stated; none is weakened.  Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import pytest

import bar_reference
from relext import bimod, qdsl, repmod
from relext.algebra import build, is_triangular
from relext.extensions import regular_h1
from relext.fixtures import fixture_text
from relext.hochschild import (
    calculator,
    cup01,
    cup10,
    cup_product,
    derivation_to_cochain,
    h0,
    h1,
    unit_cochain,
)


ONE_ARROW_SUBSETS = [(), ("eps",), ("eps2",), ("eps", "eps2")]


def test_criterion_01_first_example_regular_hh1(algebras):
    """First fixture: dim HH^1 is 0 for C, 1 for B, 2 for the full extension."""
    assert regular_h1(algebras[("ex1", "C")]).dim == 0
    assert regular_h1(algebras[("ex1", "B")]).dim == 1
    assert regular_h1(algebras[("ex1", "Ctilde")]).dim == 2


def test_criterion_02_second_example_dimension_table(reports, algebras):
    """Second fixture: HH^1 ladder 1/2/3 and the coefficient dimensions of
    the one-arrow splitting, including the claimed nonvanishing of the
    square-zero pairing space of the complement ideal over B."""
    assert regular_h1(algebras[("ex2", "C")]).dim == 1
    assert regular_h1(algebras[("ex2", "B")]).dim == 2
    assert regular_h1(algebras[("ex2", "Ctilde")]).dim == 3
    rep = reports[("ex2", ("eps",))]
    assert rep.h1_C_Eprime == 0
    assert rep.h1_B_Eprime == 1
    assert rep.end_Ce_Eprime == 1
    assert rep.curlyE_Esec_B != 0


def test_criterion_03_row_identities_all_splittings(reports):
    """All four dimension identities hold on both fixtures for every subset
    of the new arrows, including the degenerate empty and full splittings."""
    for name in ("ex1", "ex2"):
        for subset in ONE_ARROW_SUBSETS:
            rep = reports[(name, tuple(subset))]
            for row in rep.rows:
                assert row["pass"], (name, subset, row)


def test_criterion_04_refinement_identities_all_splittings(reports):
    """dim H^1(B,E') = dim H^1(C,E') + dim End_{C^e}(E') and the analogous
    identity one level up, on every corpus splitting."""
    for key, rep in reports.items():
        assert rep.refinement_a_pass, key
        assert rep.refinement_b_pass, key


def test_criterion_05_pushout_identity(reports):
    """dim HH^1(B) = dim HH^1(full) + dim H^1(B,E') - dim H^1(full,E);
    on the second fixture's one-arrow splitting: 2 = 3 + 1 - 2."""
    for key, rep in reports.items():
        assert rep.pushout_pass, key
    rep = reports[("ex2", ("eps",))]
    assert (rep.hh1_B, rep.hh1_Ctilde, rep.h1_B_Eprime, rep.h1_Ct_E) == (
        2,
        3,
        1,
        2,
    )
    assert 2 == 3 + 1 - 2


def test_criterion_06_square_zero_pairing_and_center_annihilation(reports):
    """The square-zero pairing space of E' over C vanishes on every corpus
    splitting, and every central basis element of B annihilates the
    complement ideal on both sides."""
    for key, rep in reports.items():
        assert rep.curlyE_Eprime_C == 0, key
    for key, rep in reports.items():
        assert rep.center_annihilates_complement, key


def test_criterion_07_every_base_derivation_lifts(reports):
    """Every normalized derivation class of C lifts to both the partial and
    the full extension."""
    for key, rep in reports.items():
        assert rep.lifts_ok, key


def test_criterion_08_boolean_poset_profiles(posets):
    """Both fixtures yield the four-element Boolean poset of partial
    extensions with dim HH^1 profiles (0,1,1,2) and (1,2,2,3), monotone and
    surjective along every edge, with commuting projection triangles."""
    profiles = {"ex1": [0, 1, 1, 2], "ex2": [1, 2, 2, 3]}
    for name, want in profiles.items():
        po = posets[name]
        assert [n.dim_hh1 for n in po.nodes] == want
        assert po.monotone
        assert po.surjective
        assert po.triangles_commute


def test_criterion_09_dual_method_oracle(corpus_pairs):
    """Bar-complex and derivation-method dimensions agree in degrees 0 and 1
    for every (algebra, bimodule) pair in the corpus, and the differentials
    compose to zero exactly."""
    for tag, alg, m in corpus_pairs:
        calc = calculator(alg, m)
        assert calc.bar_h(0) == h0(m).dim, tag
        assert calc.bar_h(1) == h1(alg, m).dim, tag
        assert bar_reference.verify_complex(alg, m), tag


def test_criterion_10_second_extension_dimension(algebras):
    """ext2_dimension(C) equals dim(full extension) - dim(C) on both
    fixtures: 2 = 13 - 11 and 8 = 16 - 8."""
    for name, want in (("ex1", 2), ("ex2", 8)):
        c = algebras[(name, "C")]
        ct = algebras[(name, "Ctilde")]
        assert repmod.ext2_dimension(c) == want
        assert ct.dim - c.dim == want


def test_criterion_11_base_algebra_predicates(algebras):
    """gldim_at_most(C,2) and is_triangular(C) hold on both fixtures; the
    partial extension B is not triangular (the new arrow closes a cycle)."""
    for name in ("ex1", "ex2"):
        c = algebras[(name, "C")]
        assert repmod.gldim_at_most(c, 2)
        assert is_triangular(c)
        assert not is_triangular(algebras[(name, "B")])


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_criterion_12_cup_product_graded_commutator(algebras, name):
    """On both fixtures' full extension: for all pairs of degree-1 cocycle
    representatives, f x g - g x f is a coboundary, and cupping with the
    unit 0-cochain is the identity."""
    alg = algebras[(name, "Ctilde")]
    m = bimod.regular_bimodule(alg)
    f = alg.field
    calc = calculator(alg, m)
    reps = [
        derivation_to_cochain(alg, m, r)
        for r in h1(alg, m).representatives()
    ]
    one = unit_cochain(alg)
    for c in reps:
        assert cup01(alg, one, c) == c
        assert cup10(alg, c, one) == c
    for ci in reps:
        for cj in reps:
            fg = cup_product(alg, ci, cj)
            gf = cup_product(alg, cj, ci)
            assert all(not f.is_zero(x) for x in list(fg.values()) + list(gf.values()))
            diff = dict(fg)
            for k, val in gf.items():
                diff[k] = f.sub(diff.get(k, f.zero()), val)
            assert calc.is_coboundary(diff)


ERROR_FIXTURES = {
    "syntax": "algebra A\nvertices 1\nfrobnicate x\nend\n",
    "unknown-arrow": "algebra A\nvertices 1 2\narrow a 1 2\nrel a.zz\nend\n",
    "unknown-name": "algebra A\nvertices 1\narrow a 1 9\nend\n",
    "duplicate-name": (
        "algebra A\nvertices 1\nend\nalgebra A\nvertices 1\nend\n"
    ),
    "short-relation": "algebra A\nvertices 1 2\narrow a 1 2\nrel a\nend\n",
    "non-composable": (
        "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 1 3\nrel a.b\nend\n"
    ),
    "non-parallel": (
        "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 2 2\n"
        "rel a.b + a.c\nend\n"
    ),
    "duplicate-term": (
        "algebra A\nvertices 1 2\narrow a 1 2\narrow b 2 2\n"
        "rel a.b + 2*a.b\nend\n"
    ),
    "zero-coefficient": (
        "algebra A\nvertices 1 2\narrow a 1 2\narrow b 2 2\nrel 0*a.b\nend\n"
    ),
}


def test_criterion_13_parser_round_trip_and_error_classes():
    """Fixture files serialize back byte-identically, and every documented
    parse-error class raises a diagnostic carrying its kind and location."""
    for name in ("ex1", "ex2"):
        text = fixture_text(name + ".quiv")
        assert qdsl.serialize(qdsl.parse(text)) == text
    for kind, text in ERROR_FIXTURES.items():
        with pytest.raises(qdsl.ParseError) as exc:
            qdsl.parse(text)
        assert exc.value.kind == kind
        assert exc.value.line >= 1 and exc.value.col >= 1
        assert ("line %d" % exc.value.line) in str(exc.value)
