"""Split presentations, cohomology projections, derivation lifts, the
four-identity verifier, and the extension poset."""

import gc
import weakref

import pytest

from relext import exactla, extensions, hochschild, qdsl
from relext.algebra import build
from relext.exactla import Matrix
from relext.extensions import (
    SplitError,
    build_split,
    hochschild_projection,
    lift_derivation,
    split_presentation,
    verify_theorem,
)


# -- presentations -------------------------------------------------------------


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_build_split_shapes(files, name):
    base = files[name].block("C")
    full = files[name].block("Ctilde")
    sp = build_split(base, full, ("eps",))
    assert sp.new_arrows == ("eps",)
    assert sp.base.dim + sp.ext.dim == sp.total.dim
    # the bundled B block presents the same algebra
    b = build(files[name].block("B"))
    assert b.dim == sp.total.dim
    assert [p.label() for p in b.basis] == [p.label() for p in sp.total.basis]


def test_split_products_match_pair_form(presentations):
    # (c,e)(c',e') = (cc', ce' + ec'): check on every basis pair
    sp = presentations["ex2"]["CB"]
    b, e, f = sp.total, sp.ext, sp.field
    for i in range(sp.base.dim):
        si = sp.section[i]
        for g in e.amb_index:
            left = b.product_coords(si, g)
            right = b.product_coords(g, si)
            # both products stay inside the ideal span
            for t, c in enumerate(left):
                if not f.is_zero(c):
                    assert t in set(e.amb_index)
            for t, c in enumerate(right):
                if not f.is_zero(c):
                    assert t in set(e.amb_index)


def test_projection_section_identity(presentations):
    sp = presentations["ex1"]["CCt"]
    f = sp.field
    for i in range(sp.base.dim):
        unit = [f.zero()] * sp.base.dim
        unit[i] = f.one()
        assert sp.project_coords(sp.include_coords(unit)) == unit


def test_unknown_subset_rejected(files):
    with pytest.raises(SplitError):
        build_split(
            files["ex1"].block("C"), files["ex1"].block("Ctilde"), ("nope",)
        )


def test_opposite_relation_rule():
    # new arrow 2 -> 1 against a base with no relation 1 -> 2
    base_text = "algebra C\nvertices 1 2\narrow a 1 2\nend\n"
    full_text = (
        "algebra T\nvertices 1 2\narrow a 1 2\narrow z 2 1\n"
        "rel a.z\nrel z.a\nend\n"
    )
    base = build(qdsl.parse(base_text).block("C"))
    full = build(qdsl.parse(full_text).block("T"))
    with pytest.raises(SplitError):
        split_presentation(base, full, ("z",))


def test_non_subalgebra_section_rejected():
    # the total algebra kills a.b, the base does not: the label-matched
    # section cannot be multiplicative
    base_text = (
        "algebra C\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 1 3\n"
        "rel a.b - c.b2\nend\n"
    )
    # build a clean failing pair instead: base has no relation, total kills a.b
    base = build(
        qdsl.parse(
            "algebra C\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\nend\n"
        ).block("C")
    )
    total = build(
        qdsl.parse(
            "algebra T\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\nrel a.b\nend\n"
        ).block("T")
    )
    with pytest.raises((SplitError, ValueError)):
        split_presentation(base, total, ())


# -- projections ---------------------------------------------------------------


def test_projection_is_identity_on_trivial_split(algebras):
    c = algebras[("ex2", "C")]
    sp = split_presentation(c, c, ())
    for deg in (0, 1):
        m = hochschild_projection(sp, deg)
        assert m == Matrix.identity(c.field, m.rows)


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_projection_surjective_on_families(presentations, name):
    for key in ("CB", "BCt", "CCt"):
        sp = presentations[name][key]
        p0 = hochschild_projection(sp, 0)
        p1 = hochschild_projection(sp, 1)
        assert exactla.rank(p0) == extensions.regular_h0(sp.base).dim
        assert exactla.rank(p1) == extensions.regular_h1(sp.base).dim


def test_projection_maps_unit_to_unit(presentations):
    sp = presentations["ex2"]["BCt"]
    src = extensions.regular_h0(sp.total)
    tgt = extensions.regular_h0(sp.base)
    one_src = src.coordinates_of(list(sp.total.one().coords))
    one_tgt = tgt.coordinates_of(list(sp.base.one().coords))
    m = hochschild_projection(sp, 0)
    assert m.mat_vec(one_src) == one_tgt


# -- lifting -------------------------------------------------------------------


def test_lift_zero_derivation(presentations):
    from relext.hochschild import arrow_layout

    sp = presentations["ex1"]["CCt"]
    layout = arrow_layout(sp.base, extensions.regular_bimodule_of(sp.base))
    zero = [sp.field.zero()] * layout.total
    w = lift_derivation(sp, zero)
    assert w.ok
    assert all(
        sp.field.is_zero(x) for row in w.alpha.entries for x in row
    )


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_lift_every_derivation_basis_element(presentations, name):
    for key in ("CB", "CCt"):
        sp = presentations[name][key]
        space = extensions.regular_h1(sp.base)
        for d in space.derivations.basis:
            assert lift_derivation(sp, list(d)).ok
        for d in space.inner.basis:
            assert lift_derivation(sp, list(d)).ok


# -- the verifier --------------------------------------------------------------


def test_reports_all_pass(reports):
    for key, rep in reports.items():
        assert rep.all_pass, (key, rep.to_dict())


FROZEN_EX2 = {
    "hh0_C": 1,
    "hh0_B": 2,
    "hh0_Ctilde": 3,
    "hh1_C": 1,
    "hh1_B": 2,
    "hh1_Ctilde": 3,
    "h0_B_Eprime": 1,
    "h0_Ct_Esec": 1,
    "h1_C_Eprime": 0,
    "h1_B_Eprime": 1,
    "h1_Ct_Esec": 1,
    "h1_B_Esec": 0,
    "h1_Ct_E": 2,
    "end_Ce_Eprime": 1,
    "end_Be_Esec": 1,
    "curlyE_Eprime_C": 0,
    "curlyE_Esec_B": 0,
}


def test_frozen_dimensions_ex2(reports):
    d = reports[("ex2", ("eps",))].to_dict()
    for k, v in FROZEN_EX2.items():
        assert d[k] == v, (k, d[k], v)


def test_report_schema_keys(reports):
    d = reports[("ex1", ("eps",))].to_dict()
    for k in (
        "field",
        "split",
        "hh1_C",
        "hh1_B",
        "hh1_Ctilde",
        "h1_B_Eprime",
        "curlyE_Esec_B",
        "rows",
        "refinement_a_pass",
        "refinement_b_pass",
        "pushout_pass",
        "phi_ranks",
        "surjective",
        "kernel_deg0_matches",
        "ideal_classes_embed",
        "lifts_ok",
        "all_pass",
    ):
        assert k in d, k
    assert len(d["rows"]) == 4
    for r in d["rows"]:
        assert set(r) == {"name", "lhs", "rhs", "pass"}


def test_row_verdicts_recomputable(reports):
    rep = reports[("ex2", ("eps2",))]
    rows = rep.rows
    assert rows[0]["pass"] == (rep.hh0_B == rep.h0_B_Eprime + rep.hh0_C)
    assert rows[3]["pass"] == (
        rep.hh1_Ctilde == rep.h1_Ct_Esec + rep.curlyE_Esec_B + rep.hh1_B
    )


def test_degenerate_splits(reports):
    # S = all: the second family collapses, E'' = 0
    for name in ("ex1", "ex2"):
        rep = reports[(name, ("eps", "eps2"))]
        assert rep.h1_Ct_Esec == 0 and rep.h0_Ct_Esec == 0
        assert rep.curlyE_Esec_B == 0
        assert rep.hh1_B == rep.hh1_Ctilde
        # S = empty: the first family collapses, E' = 0
        rep0 = reports[(name, ())]
        assert rep0.h1_B_Eprime == 0 and rep0.h0_B_Eprime == 0
        assert rep0.hh1_B == rep0.hh1_C


def test_square_zero_map_space_is_zero_everywhere(reports):
    # the map space of the square-zero pairing vanishes for both the chosen
    # ideal against the base and the complement against the partial algebra
    for key, rep in reports.items():
        assert rep.curlyE_Eprime_C == 0, key
        assert rep.curlyE_Esec_B == 0, key


def test_center_flags(reports):
    for (name, subset), rep in reports.items():
        assert rep.center_symmetric_on_complement, (name, subset)
        assert rep.center_positive_part_annihilates, (name, subset)
        if subset == ("eps", "eps2"):
            # no complement ideal left: annihilation is vacuous
            assert rep.center_annihilates_complement
        else:
            # the identity of the partial algebra acts as the identity on
            # the complement ideal, so literal annihilation always fails
            assert not rep.center_annihilates_complement


def test_field_override(files):
    rep = extensions.verify_theorem(
        files["ex1"].block("C"),
        files["ex1"].block("Ctilde"),
        ("eps",),
        field=exactla.PrimeField(5),
    )
    assert rep.field_name == "F5"
    assert rep.all_pass
    assert (rep.hh1_C, rep.hh1_B, rep.hh1_Ctilde) == (0, 1, 2)


# -- the poset -----------------------------------------------------------------


PROFILES = {"ex1": [0, 1, 1, 2], "ex2": [1, 2, 2, 3]}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_poset_profile(posets, name):
    po = posets[name]
    assert [n.dim_hh1 for n in po.nodes] == PROFILES[name]
    assert [n.arrows for n in po.nodes] == [
        (),
        ("eps",),
        ("eps2",),
        ("eps", "eps2"),
    ]
    assert len(po.edges) == 4
    assert po.monotone and po.surjective and po.triangles_commute
    assert po.nodes[po.minimum].arrows == ()
    assert po.nodes[po.maximum].arrows == ("eps", "eps2")


def test_poset_serialization(posets):
    d = posets["ex1"].to_dict()
    assert [n["dim_hh1"] for n in d["nodes"]] == PROFILES["ex1"]
    assert d["minimum"] == [] and d["maximum"] == ["eps", "eps2"]
    for e in d["edges"]:
        assert e["surjective"] and e["monotone"]
    assert d["triangles_commute"]


def test_poset_node_index(posets):
    po = posets["ex2"]
    assert po.node_index(("eps",)) == 1
    with pytest.raises(KeyError):
        po.node_index(("zzz",))


def test_cohomology_caches_die_with_the_algebra(files):
    """Cached regular cohomology and bar-complex calculators live on the
    algebra and bimodule objects, so nothing pins them once dropped."""
    alg = build(files["ex2"].block("Ctilde"))
    m = extensions.regular_bimodule_of(alg)
    assert extensions.regular_bimodule_of(alg) is m
    assert extensions.regular_h0(alg).dim == 3
    assert extensions.regular_h1(alg) is extensions.regular_h1(alg)
    assert hochschild.bar_h(alg, m, 1) == 3
    assert hochschild.calculator(alg, m) is hochschild.calculator(alg, m)
    refs = [weakref.ref(alg), weakref.ref(m)]
    del alg, m
    gc.collect()
    assert [r() for r in refs] == [None, None]
