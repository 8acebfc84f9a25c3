"""Split presentations, cohomology projections, derivation lifts, the
four-identity verifier, and the extension poset."""

import gc
import json
import os
import weakref
from itertools import combinations

import pytest

from relext import algebra, bimod, exactla, extensions, hochschild, qdsl
from relext.algebra import build
from relext.extensions import center
import bar_reference
import dense_reference as ref
from relext.exactla import QQ, PrimeField
from relext.extensions import (
    Family,
    ProjectionCheckError,
    SplitError,
    hochschild_projection,
    lift_derivations,
    verify_theorem,
)
from families import squares
from poset_reference import reference_poset
from projection_reference import reference_projection
from split_reference import direct_sum_check, split_presentation
from test_cli import NON_SPLITTING

HALFSQUARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "halfsquare.quiv")
# b.x = -b.y and x.a = -y.a: the ideal of x alone holds b.y, so a subset
# splits only if it holds both x and y or neither
LINKED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "linked.quiv")


# -- presentations -------------------------------------------------------------


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_family_split_shapes(files, name):
    base = files[name].block("C")
    full = files[name].block("Ctilde")
    fam = Family(base, full)
    sp = fam.split((), ("eps",))
    assert sp.new_arrows == ("eps",)
    assert sp.base is fam.base and sp.total is fam.partial(("eps",))
    assert sp.base.dim + sp.ext.dim == sp.total.dim
    # the bundled B block presents the same algebra
    b = build(files[name].block("B"))
    assert b.dim == sp.total.dim
    assert [p.label() for p in b.basis] == [p.label() for p in sp.total.basis]


def test_split_products_match_pair_form(presentations):
    # (c,e)(c',e') = (cc', ce' + ec'): check on every basis pair
    sp = presentations["ex2"]["CB"]
    b, e = sp.total, sp.ext
    for i in range(sp.base.dim):
        si = sp.section[i]
        for g in e.amb_index:
            # both products stay inside the ideal span
            assert set(b.product_coords(si, g)) <= set(e.amb_index)
            assert set(b.product_coords(g, si)) <= set(e.amb_index)


def test_projection_section_identity(presentations):
    sp = presentations["ex1"]["CCt"]
    f = sp.field
    for i in range(sp.base.dim):
        unit = {i: f.one()}
        assert sp.project_coords({sp.section[i]: f.one()}) == unit


def test_unknown_subset_rejected(families):
    fam = families["ex1"]
    with pytest.raises(SplitError):
        fam.partial(("nope",))
    with pytest.raises(SplitError):
        fam.split((), ("eps", "nope"))
    with pytest.raises(SplitError, match="does not contain"):
        fam.split(("eps",), ("eps2",))
    with pytest.raises(SplitError):
        fam.verify(("nope",))


def test_repeated_arrow_name_rejected(families):
    fam = families["ex1"]
    with pytest.raises(SplitError, match="repeats"):
        fam.partial(("eps", "eps"))
    with pytest.raises(SplitError, match="repeats"):
        fam.split((), ("eps", "eps"))
    with pytest.raises(SplitError, match="repeats"):
        fam.verify(("eps", "eps"))


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_verify_builds_the_full_split_once(files, monkeypatch, name):
    """verify on every subset computes the part over C < Ctilde once per
    family: h^1 of Ctilde with coefficients in E and the lifts through it do
    not depend on the subset.  The reports equal those of one fresh family
    per subset."""
    pf = files[name]
    new = tuple(pf.block("Ctilde").new_arrows)
    subsets = [c for r in range(len(new) + 1) for c in combinations(new, r)]
    fresh = {
        c: Family(pf.block("C"), pf.block("Ctilde")).verify(c).to_dict()
        for c in subsets
    }

    calls = []
    real = Family.split

    def counting(self, lower, upper):
        sp = real(self, lower, upper)
        calls.append((sp.base, sp.total))
        return sp

    monkeypatch.setattr(Family, "split", counting)
    fam = Family(pf.block("C"), pf.block("Ctilde"))
    for combo in reversed(subsets):
        assert fam.verify(combo).to_dict() == fresh[combo]
    # once, for the part that does not depend on S, which is also the split
    # C < B_S of S = all new arrows and B_S < Ctilde of S = ()
    assert calls.count((fam.base, fam.full)) == 1


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_verify_computes_h1_of_the_full_ideal_once(files, monkeypatch, name):
    """H^1(Ctilde, E), E the ideal of all new arrows, is computed once per
    verify on a fresh family, on the default split, the empty one, a
    one-arrow split and all new arrows listed in reverse: the split C < B_S
    of S = all and B_S < Ctilde of S = () share it with the part of verify
    that does not depend on S.  The reports equal those of a fresh family."""
    pf = files[name]
    new = tuple(pf.block("Ctilde").new_arrows)
    real = extensions.h1
    for subset in (new, (), new[:1], tuple(reversed(new))):
        fam = Family(pf.block("C"), pf.block("Ctilde"))
        full_ideal = tuple(bimod.square_zero_ideal_paths(fam.full, new))
        calls = []

        def counting(alg, m):
            if alg is fam.full and tuple(m.amb_index) == full_ideal:
                calls.append(m)
            return real(alg, m)

        monkeypatch.setattr(extensions, "h1", counting)
        report = fam.verify(subset)
        monkeypatch.setattr(extensions, "h1", real)
        assert len(calls) == 1
        fresh = Family(pf.block("C"), pf.block("Ctilde")).verify(subset)
        assert report.to_dict() == fresh.to_dict()


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_family_builds_each_partial_once(files, monkeypatch, name):
    """verify on every subset and then poset share one family: one quotient
    for the gate, one restriction per valid proper non-empty subset, none
    for C or Ctilde, and poset reads the partials verify left.  A
    restriction keeps Ctilde's tables, so only C and Ctilde are built.  On
    a fresh family, poset restricts each such subset once and leaves none
    of them in the family."""
    calls = []
    builds = []
    real = extensions.quotient_by_arrows
    real_restrict = extensions.restrict
    real_build = extensions.build

    def counting(alg, arrows):
        calls.append(tuple(arrows))
        return real(alg, arrows)

    def counting_restrict(alg, arrows, kept):
        calls.append(tuple(sorted(arrows)))
        return real_restrict(alg, arrows, kept)

    def counting_build(block, field=None):
        builds.append(block.name)
        return real_build(block, field=field)

    monkeypatch.setattr(extensions, "quotient_by_arrows", counting)
    monkeypatch.setattr(extensions, "restrict", counting_restrict)
    monkeypatch.setattr(extensions, "build", counting_build)
    monkeypatch.setattr(algebra, "build", counting_build)
    fam = Family(files[name].block("C"), files[name].block("Ctilde"))
    assert calls == [("eps", "eps2")]
    for r in range(len(fam.new_arrows) + 1):
        for combo in combinations(fam.new_arrows, r):
            fam.verify(combo)
    assert calls == [("eps", "eps2"), ("eps2",), ("eps",)]
    po = fam.poset()
    assert [n.arrows for n in po.nodes] == [(), ("eps",), ("eps2",), ("eps", "eps2")]
    assert calls == [("eps", "eps2"), ("eps2",), ("eps",)]
    assert builds == ["C", "Ctilde"]

    calls.clear()
    fresh = Family(files[name].block("C"), files[name].block("Ctilde"))
    assert fresh.poset().to_dict() == po.to_dict()
    assert calls == [("eps", "eps2"), ("eps2",), ("eps",)]
    assert set(fresh._partials) == {(), fresh.new_arrows}


def _comparable_pairs(fam):
    """(S, T) for every pair of valid subsets with S in T, T = S included."""
    nodes = []
    for r in range(len(fam.new_arrows) + 1):
        for combo in combinations(fam.new_arrows, r):
            try:
                fam.partial(combo)
            except SplitError:
                continue
            nodes.append(combo)
    return [(s, t) for s in nodes for t in nodes if set(s) <= set(t)]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_family_splits_match_checked_split_presentation(files, chain_text, field):
    """On every comparable pair of ex1, ex2 and chain k <= 4, the family's
    index maps equal those of the fully checked split_presentation of the
    same two partials, which raises nothing, and the family builds no
    bimodule until one is read."""
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in range(1, 5)]
    count = 0
    for pf in pfs:
        fam = Family(pf.block("C"), pf.block("Ctilde"), field)
        for lower, upper in _comparable_pairs(fam):
            sp = fam.split(lower, upper)
            assert sp._ext is None and sp._ext_over_base is None
            ref = split_presentation(fam.partial(lower), fam.partial(upper), sp.new_arrows)
            assert (sp.base, sp.total) == (ref.base, ref.total)
            assert sp.new_arrows == ref.new_arrows
            assert sp.section == ref.section
            assert sp.projection == ref.projection
            assert sp.derivation_map() == ref.derivation_map()
            count += 1
    # 9 pairs per 2-arrow fixture, 3**k for chain k
    assert count == 9 + 9 + 3 + 9 + 27 + 81


def _corrupted_family(files, monkeypatch, corrupt):
    """Family of ex1 with corrupt(Ctilde) applied right after the build;
    returns the SplitError raised and the built (C, Ctilde)."""
    built = {}
    real = extensions.build

    def corrupting(block, field=None):
        alg = built[block.name] = real(block, field=field)
        if block.name == "Ctilde":
            corrupt(alg)
        return alg

    monkeypatch.setattr(extensions, "build", corrupting)
    with pytest.raises(SplitError) as err:
        Family(files["ex1"].block("C"), files["ex1"].block("Ctilde"))
    return err.value, built["C"], built["Ctilde"]


def _new_paths(alg, names):
    return [g for g, p in enumerate(alg.basis)
            if any(alg.quiver.arrows[k].name in names for k in p.arrows)]


def test_family_refuses_a_base_that_is_not_a_subalgebra(files, monkeypatch):
    """A product of two base paths with a coordinate on a new-arrow path
    passes the reduction and Ext^2 gates, which drop such coordinates; the
    family's subalgebra check and split_presentation both refuse it."""
    names = ("eps", "eps2")

    def corrupt(alg):
        v = alg.idem_index[alg.quiver.vertices[0]]
        k = _new_paths(alg, names)[0]
        alg.products[v] = {**alg.products[v], v: {v: alg.field.one(), k: alg.field.one()}}

    err, c, ct = _corrupted_family(files, monkeypatch, corrupt)
    assert "not a subalgebra" in str(err)
    named = "products of base paths e_1 and e_1 disagree"
    assert named in str(err)
    with pytest.raises(SplitError, match=named):
        split_presentation(c, ct, names)


def test_family_refuses_an_ideal_that_does_not_square_to_zero(files, monkeypatch):
    """A nonzero product of two new-arrow paths keeps the ideal closed and
    leaves C unchanged, so the gates pass it; the family's square-zero
    check refuses it, and so does split_presentation."""
    names = ("eps", "eps2")

    def corrupt(alg):
        g, h = _new_paths(alg, names)[:2]
        alg.products[g] = {**alg.products[g], h: {h: alg.field.one()}}

    err, c, ct = _corrupted_family(files, monkeypatch, corrupt)
    assert "does not square to zero" in str(err)
    with pytest.raises(ValueError, match="does not square to zero"):
        split_presentation(c, ct, names)


def test_poset_builds_no_bimodule_per_pair(files, monkeypatch):
    """poset reads each pair's projection off the index maps: no arrow
    ideal and no verified span is built, and the only bimodules are the
    regular bimodules of the nodes, one per node.  The projection
    is computed on the Hasse edges and the pairs (S, Ctilde), which among
    ex2's 4 nodes are all 5 proper comparable pairs, and the triangle check
    still sees a broken projection."""
    fam = Family(files["ex2"].block("C"), files["ex2"].block("Ctilde"))
    calls, regulars, verified = [], [], []
    real_ideal = bimod.arrow_ideal_bimodule
    real_verify = bimod.Bimodule.verify
    real_regular = bimod.regular_bimodule
    real_projection = extensions.hochschild_projection
    real_images = extensions._class_images

    def ideal(*args):
        calls.append("arrow_ideal_bimodule")
        return real_ideal(*args)

    def verify(m):
        verified.append(m)
        return real_verify(m)

    def regular(alg):
        regulars.append(alg)
        return real_regular(alg)

    def images(sp):
        calls.append((sp.base.dim, sp.total.dim))
        return real_images(sp)

    monkeypatch.setattr(bimod, "arrow_ideal_bimodule", ideal)
    monkeypatch.setattr(bimod.Bimodule, "verify", verify)
    monkeypatch.setattr(bimod, "regular_bimodule", regular)
    monkeypatch.setattr(extensions, "_class_images", images)
    po = fam.poset()
    assert po.triangles_commute
    # 5 proper comparable pairs among 4 nodes, no arrow ideal built
    assert len(calls) == 5 and all(isinstance(c, tuple) for c in calls)
    assert verified == []
    assert len({id(a) for a in regulars}) == len(regulars) == 4

    def broken(sp, degree):
        images = real_projection(sp, degree)
        if sp.base is fam.base and sp.total is fam.full:
            images = [{} for _ in images]
        return images

    monkeypatch.setattr(extensions, "hochschild_projection", broken)
    assert not fam.poset().triangles_commute


def test_poset_projects_on_hasse_edges_and_top_pairs(chain_text, monkeypatch):
    """At chain k=4, of the 65 comparable pairs poset computes the class
    map of the 43 that are Hasse edges or pairs (S, Ctilde): the 15 pairs
    (S, Ctilde) through hochschild_projection, each with its layout check,
    and the 28 other Hasse edges through _class_images alone."""
    pf = qdsl.parse(chain_text(4))
    fam = Family(pf.block("C"), pf.block("Ctilde"))
    counts = {"hochschild_projection": 0, "_class_images": 0, "_check_layout_restricts": 0}
    for name in counts:
        real = getattr(extensions, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(extensions, name, counting)
    po = fam.poset()
    assert counts == {
        "hochschild_projection": 15, "_class_images": 43, "_check_layout_restricts": 15
    }
    assert len(po.edges) == 32 and po.triangles_commute


def _poset_fields(po):
    nodes = [(n.arrows, n.dim_hh1) for n in po.nodes]
    edges = [(e.lower, e.upper, e.phi_rank, e.surjective, e.monotone) for e in po.edges]
    return nodes, edges, po.triangles_commute, po.minimum, po.maximum


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_poset_matches_the_all_pairs_reference(files, chain_text, field):
    """On ex1, ex2, both halfsquare families, chain k <= 6 and squares
    k <= 3, poset gives the nodes, edges, triangle flag and JSON of the
    reference that projects and checks every comparable pair."""
    towers = [(files[n], "C", "Ctilde") for n in sorted(files)]
    half = qdsl.parse(open(HALFSQUARE, encoding="utf-8").read())
    towers += [(half, "C", "Ctilde"), (half, "D", "Dtilde")]
    towers += [(qdsl.parse(chain_text(k)), "C", "Ctilde") for k in range(1, 7)]
    towers += [(qdsl.parse(squares(k)), "C", "Ctilde") for k in range(1, 4)]
    for pf, base, tilde in towers:
        po = Family(pf.block(base), pf.block(tilde), field).poset()
        want = reference_poset(Family(pf.block(base), pf.block(tilde), field))
        assert _poset_fields(po) == _poset_fields(want)
        assert json.dumps(po.to_dict()) == json.dumps(want.to_dict())
        assert po.triangles_commute


def test_linked_pairs_decide_the_split_like_direct_sum_check(files, chain_text):
    """On every subset S of ex1, ex2, both halfsquare families, squares
    k <= 3, chain k <= 6 and the linked family, partial(S) refuses S
    exactly when the reference direct_sum_check of J_S + J_{not S} is
    False.  Every subset splits but on the linked family, where the four
    subsets holding one of x and y do not."""
    towers = [(files[n], "C", "Ctilde") for n in sorted(files)]
    half = qdsl.parse(open(HALFSQUARE, encoding="utf-8").read())
    towers += [(half, "C", "Ctilde"), (half, "D", "Dtilde")]
    towers += [(qdsl.parse(squares(k)), "C", "Ctilde") for k in range(1, 4)]
    towers += [(qdsl.parse(chain_text(k)), "C", "Ctilde") for k in range(1, 7)]
    towers.append((qdsl.parse(open(LINKED, encoding="utf-8").read()), "C", "Ctilde"))
    refused = []
    count = 0
    for pf, base, tilde in towers:
        fam = Family(pf.block(base), pf.block(tilde))
        for r in range(len(fam.new_arrows) + 1):
            for s in combinations(fam.new_arrows, r):
                comp = [n for n in fam.new_arrows if n not in s]
                want = direct_sum_check(fam.full, [s, comp])
                assert fam._splits(s) == want
                try:
                    fam.partial(s)
                except SplitError as err:
                    assert not want and "does not split" in str(err)
                    refused.append(s)
                count += 1
    assert refused == [("x",), ("y",), ("x", "z"), ("y", "z")]
    # 4 per fixture, 2 per halfsquare family, 2 + 4 + 8 for squares,
    # 2 + ... + 64 for chain, 8 for linked
    assert count == 4 + 4 + 2 + 2 + 14 + 126 + 8


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_poset_and_verify_where_some_subsets_do_not_split(field):
    """On the linked family, poset has the four subsets that split as its
    nodes and their four covers as its edges, () < (x, y) and (z) < (x, y,
    z) among them, matches the all-pairs reference, and verify passes on
    each node."""
    pf = qdsl.parse(open(LINKED, encoding="utf-8").read())
    po = Family(pf.block("C"), pf.block("Ctilde"), field).poset()
    want = reference_poset(Family(pf.block("C"), pf.block("Ctilde"), field))
    assert [n.arrows for n in po.nodes] == [(), ("z",), ("x", "y"), ("x", "y", "z")]
    assert [(e.lower, e.upper) for e in po.edges] == [(0, 2), (0, 1), (1, 3), (2, 3)]
    assert _poset_fields(po) == _poset_fields(want)
    assert json.dumps(po.to_dict()) == json.dumps(want.to_dict())
    fam = Family(pf.block("C"), pf.block("Ctilde"), field)
    assert all(fam.verify(n.arrows).all_pass for n in po.nodes)


def test_poset_edges_are_the_covers_of_inclusion(files, chain_text):
    """On every family, the edges are exactly the pairs S < T of nodes with
    no node strictly between, each once, even where a cover adds more than
    one arrow: on the linked family and on a family whose two new arrows
    split only together."""
    towers = [files[n] for n in sorted(files)]
    towers += [qdsl.parse(chain_text(3)), qdsl.parse(squares(2))]
    towers += [qdsl.parse(open(LINKED, encoding="utf-8").read()), qdsl.parse(NON_SPLITTING)]
    for pf in towers:
        po = Family(pf.block("C"), pf.block("Ctilde")).poset()
        nodes = [set(n.arrows) for n in po.nodes]
        covers = {
            (i, j)
            for i, s in enumerate(nodes)
            for j, t in enumerate(nodes)
            if s < t and not any(s < u < t for u in nodes)
        }
        edges = [(e.lower, e.upper) for e in po.edges]
        assert len(edges) == len(covers) and set(edges) == covers


def test_poset_holds_two_rank_layers_of_partials(chain_text, monkeypatch):
    """At chain k=5, whenever poset restricts Ctilde to a node of rank r,
    the partial algebras it built that are still alive all have rank r or
    r + 1, and none is alive once it returns: it drops each rank once the
    rank below is done, and keeps none in the family."""
    pf = qdsl.parse(chain_text(5))
    fam = Family(pf.block("C"), pf.block("Ctilde"))
    real = extensions.restrict
    built = []  # (rank, weak reference) per partial built
    seen = []  # (rank being built, ranks alive) per restriction

    def tracking(alg, arrows, kept):
        rank = len(fam.new_arrows) - len(arrows)
        gc.collect()
        seen.append((rank, {r for r, ref in built if ref() is not None}))
        out = real(alg, arrows, kept)
        built.append((rank, weakref.ref(out)))
        return out

    monkeypatch.setattr(extensions, "restrict", tracking)
    po = fam.poset()
    assert len(po.nodes) == 32 and len(built) == 30
    assert all(alive <= {rank, rank + 1} for rank, alive in seen)
    # the last node of rank 1 is built while rank 2 and the rest of rank 1
    # are alive
    assert seen[-1] == (1, {1, 2})
    gc.collect()
    assert [ref() for _, ref in built] == [None] * 30


def test_poset_frees_each_dropped_rank_by_reference_counting(chain_text, monkeypatch):
    """As above with the cyclic garbage collector off: the partial algebras
    of a dropped rank, their regular bimodules and H^1 are freed by
    reference counting alone, so at most ranks r and r + 1 are alive while
    rank r is built, and none once poset returns."""
    pf = qdsl.parse(chain_text(5))
    fam = Family(pf.block("C"), pf.block("Ctilde"))
    real = extensions.restrict
    built = []  # (rank, weak reference) per partial built
    seen = []  # (rank being built, ranks alive) per restriction

    def tracking(alg, arrows, kept):
        rank = len(fam.new_arrows) - len(arrows)
        seen.append((rank, {r for r, ref in built if ref() is not None}))
        out = real(alg, arrows, kept)
        built.append((rank, weakref.ref(out)))
        return out

    monkeypatch.setattr(extensions, "restrict", tracking)
    enabled = gc.isenabled()
    gc.disable()
    try:
        po = fam.poset()
        assert len(po.nodes) == 32 and len(built) == 30
        assert all(alive <= {rank, rank + 1} for rank, alive in seen)
        assert [ref() for _, ref in built] == [None] * 30
    finally:
        if enabled:
            gc.enable()


def test_poset_sees_a_corrupted_ad_of_ctilde(files, chain_text):
    """Doubling one stored ad(x) of Ctilde whose projection to a node is
    nonzero makes poset raise on that node's pair (S, Ctilde)."""
    for pf in (files["ex2"], qdsl.parse(chain_text(3))):
        fam = Family(pf.block("C"), pf.block("Ctilde"))
        fam.poset()
        ad = extensions.regular_h1(fam.full).ad
        sp = fam.split((), fam.new_arrows)
        x = next(x for x, vec in ad.items() if extensions.project_derivation(sp, vec))
        ad[x] = {t: fam.full.field.add(c, c) for t, c in ad[x].items()}
        with pytest.raises(ProjectionCheckError, match="inner derivation is not inner"):
            fam.poset()


def test_poset_sees_a_corrupted_layout_slot(files, chain_text):
    """One slot of one node's arrow layout pointed at another basis path,
    or one more slot in one of its blocks, set after the node's cohomology
    is built, makes poset raise: the first as a projected derivation off
    its slice, the second, which derivation_map alone lets pass, on the
    layout check."""
    for pf in (files["ex2"], qdsl.parse(chain_text(3))):
        for extra in (False, True):
            fam = Family(pf.block("C"), pf.block("Ctilde"))
            fam.poset()
            node = fam.partial(fam.new_arrows[:1])
            extensions.regular_h1(node)
            layout = hochschild.arrow_layout(node, extensions.regular_bimodule_of(node))
            k = next(k for k, b in enumerate(layout.blocks) if b)
            block = layout.blocks[k]
            if extra:
                block.append(next(i for i in range(node.dim) if i not in block))
                layout.offsets[k + 1:] = [o + 1 for o in layout.offsets[k + 1:]]
                layout.total += 1
                sp = fam.split(fam.new_arrows[:1], fam.new_arrows)
                assert sp.derivation_map()
                match = "arrow layout of Ctilde_minus_.* slots kept"
            else:
                block[0] = (block[0] + 1) % node.dim
                match = "leaves the bigraded slice"
            with pytest.raises(ProjectionCheckError, match=match):
                fam.poset()


def test_poset_sees_a_shifted_index_map(files, chain_text):
    """Swapping the Ctilde indices of two basis paths of one node makes
    poset raise on that node's pair (S, Ctilde)."""
    for pf in (files["ex2"], qdsl.parse(chain_text(3))):
        fam = Family(pf.block("C"), pf.block("Ctilde"))
        key = fam.new_arrows[:1]
        fam.partial(key)
        index = list(fam._index[key])
        g = next(i for i in range(len(index) - 1) if index[i + 1] == index[i] + 1)
        index[g], index[g + 1] = index[g + 1], index[g]
        fam._index[key] = tuple(index)
        with pytest.raises(ProjectionCheckError):
            fam.poset()


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
    targets = (center(c).dim, extensions.regular_h1(c).dim)
    for deg in (0, 1):
        m = hochschild_projection(sp, deg)
        # the images of the identity on a space of the target's dimension
        assert m == [{i: c.field.one()} for i in range(targets[deg])]


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_projection_surjective_on_families(presentations, name):
    for key in ("CB", "BCt", "CCt"):
        sp = presentations[name][key]
        p0 = hochschild_projection(sp, 0)
        p1 = hochschild_projection(sp, 1)
        n0, n1 = center(sp.base).dim, extensions.regular_h1(sp.base).dim
        assert exactla.rank(sp.field, n0, p0) == n0
        assert exactla.rank(sp.field, n1, p1) == n1


def test_projection_maps_unit_to_unit(presentations):
    sp = presentations["ex2"]["BCt"]
    src = center(sp.total)
    tgt = center(sp.base)
    f = sp.field
    one_src = src.coordinates_of({i: f.one() for i in sp.total.idem_index.values()})
    one_tgt = tgt.coordinates_of({i: f.one() for i in sp.base.idem_index.values()})
    m = hochschild_projection(sp, 0)
    assert exactla.compose(f, m, [one_src]) == [one_tgt]
    # the dense reference: the images as rows, applied to the row vector
    mat = ref.from_images(f, m, tgt.dim)
    assert ref.mat_vec(ref.transpose(mat), ref.dense(f, one_src, src.dim)) == ref.dense(
        f, one_tgt, tgt.dim
    )


def _projection_families(files, chain_text, field):
    """Families of ex1, ex2, chain k <= 4 and squares k <= 3."""
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in range(1, 5)]
    pfs += [qdsl.parse(squares(k)) for k in range(1, 4)]
    return [Family(pf.block("C"), pf.block("Ctilde"), field) for pf in pfs]


def _outcome(project, sp):
    """("images", the images) or ("error", type, message) of project(sp)."""
    try:
        return ("images", project(sp))
    except SplitError as err:
        return ("error", type(err), str(err))


def _degree1(sp):
    return hochschild_projection(sp, 1)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_projection_matches_reduction_reference(files, chain_text, field):
    """On every comparable pair of ex1, ex2, chain k <= 4 and squares k <= 3,
    the identity check on the stored ad(x) and one reduction per
    representative give the images of the reduction reference.  With an
    extra representative, an arrow coordinate whose projection is no
    derivation of the base, both raise the same SplitError: class
    coordinates fail to reduce where the reference's membership test
    fails."""
    pairs = errors = 0
    for fam in _projection_families(files, chain_text, field):
        for lower, upper in _comparable_pairs(fam):
            sp = fam.split(lower, upper)
            got = _outcome(_degree1, sp)
            assert got[0] == "images"
            assert got == _outcome(reference_projection, sp)
            pairs += 1
            src = extensions.regular_h1(sp.total)
            der = extensions.regular_h1(sp.base).derivations
            dm = sp.derivation_map()
            outside = [t for t in dm if not der.contains({dm[t]: field.one()})]
            if not outside:
                continue
            reps = src.representatives()
            src.representatives = lambda: reps + [{outside[0]: field.one()}]
            try:
                got = _outcome(_degree1, sp)
                assert got == _outcome(reference_projection, sp)
            finally:
                del src.representatives
            assert got[1:] == (
                ProjectionCheckError, "projection of a derivation breaks a base relation"
            )
            errors += 1
    # 9 pairs per 2-arrow fixture, 3**k for chain k and squares k
    assert pairs == 9 + 9 + 3 + 9 + 27 + 81 + 3 + 9 + 27
    assert errors > 0


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_projection_identity_sees_a_shifted_derivation_map(files, chain_text, field):
    """Shifting a derivation_map entry that some ad(x) reads breaks
    p(ad(x)) = ad(p(x)), and the identity check raises on every proper
    pair where the base has two coordinates to shift between."""
    raised = 0
    for fam in _projection_families(files, chain_text, field):
        for lower, upper in _comparable_pairs(fam):
            sp = fam.split(lower, upper)
            n = extensions.regular_h1(sp.base).layout.total
            ad = extensions.regular_h1(sp.total).ad.values()
            dm = sp.derivation_map()
            read = [t for t in dm if any(t in vec for vec in ad)]
            if lower == upper or not read or n < 2:
                continue
            dm[read[0]] = (dm[read[0]] + 1) % n
            with pytest.raises(SplitError, match="inner derivation is not inner"):
                hochschild_projection(sp, 1)
            raised += 1
    assert raised > 20


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_projection_identity_sees_a_corrupted_ad(files, chain_text, field):
    """Doubling one stored ad(x) of the total whose projection is nonzero
    makes the identity check raise, on every proper pair of ex1, ex2,
    chain k <= 4 and squares k <= 3 that has one, though the inner space,
    built before, is intact and the reduction reference still passes."""
    raised = 0
    for fam in _projection_families(files, chain_text, field):
        for lower, upper in _comparable_pairs(fam):
            sp = fam.split(lower, upper)
            ad = extensions.regular_h1(sp.total).ad
            seen = [x for x, vec in ad.items() if extensions.project_derivation(sp, vec)]
            if lower == upper or not seen:
                continue
            kept = ad[seen[0]]
            ad[seen[0]] = {t: field.add(c, c) for t, c in kept.items()}
            try:
                with pytest.raises(SplitError, match="inner derivation is not inner"):
                    hochschild_projection(sp, 1)
                assert _outcome(reference_projection, sp)[0] == "images"
            finally:
                ad[seen[0]] = kept
            raised += 1
    assert raised > 20


# -- lifting -------------------------------------------------------------------


def test_lift_rejects_coordinates_outside_the_base_layout(presentations):
    """A base derivation with two entries past its arrow layout does not
    lift as if they were absent."""
    sp = presentations["ex1"]["CCt"]
    der = extensions.regular_h1(sp.base).derivations
    n = der.ambient_dim
    one = sp.field.one()
    for d in der.rows:
        assert lift_derivations(sp, [d])[0].ok
        padded = {**d, n: one, n + 1: one}
        with pytest.raises(ValueError, match=r"coordinate outside range\(%d\)" % n):
            lift_derivations(sp, [padded])


def test_lift_zero_derivation(presentations):
    sp = presentations["ex1"]["CCt"]
    (w,) = lift_derivations(sp, [{}])
    assert w.ok
    assert w.alpha == {}


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_lift_every_derivation_basis_element(presentations, name):
    for key in ("CB", "CCt"):
        sp = presentations[name][key]
        space = extensions.regular_h1(sp.base)
        for basis in (space.derivations.rows, space.inner.rows):
            witnesses = lift_derivations(sp, list(basis))
            assert len(witnesses) == len(basis)
            assert all(w.ok for w in witnesses)


def _reference_lift(sp, dvec):
    """alpha of one derivation, or None, as the lift was solved before all
    derivations shared one system: the (d(c) x, x d(c)) of every pair
    (c, x) are the right-hand sides of the graded hom equations, and one
    echelon with the right-hand side as its smallest column is solved per
    derivation."""
    e = sp.ext_over_base
    f = sp.field
    one = f.one()
    dvals = hochschild.derivation_values(
        sp.base, extensions.regular_bimodule_of(sp.base), dvec
    )
    var = {}
    graded = []
    for i in range(e.dim):
        graded.append([])
        for j in range(e.dim):
            if (e.src[i], e.tgt[i]) == (e.src[j], e.tgt[j]):
                var[(i, j)] = len(var)
                graded[i].append((j, var[(i, j)]))
    rows = []
    left, right = ref.action_tables(e)
    for a, da in enumerate(dvals):
        actions = ((left[a], left[a]), (right[a], right[a]))
        for i in range(e.dim):
            lr = (e.left_act(da, {i: one}), e.right_act(da, {i: one}))
            for (am, an), value in zip(actions, lr):
                eqs = {}
                for k, col in graded[i]:
                    for j, c in an.get(k, {}).items():
                        eq = eqs.setdefault(j, {})
                        eq[col] = f.add(eq.get(col, f.zero()), c)
                for g, c in am.get(i, {}).items():
                    for j, col in graded[g]:
                        eq = eqs.setdefault(j, {})
                        eq[col] = f.sub(eq.get(col, f.zero()), c)
                for j in eqs.keys() | value.keys():
                    eq = f.sparse(eqs.get(j, {}))
                    if eq or j in value:
                        rows.append({**eq, len(var): value.get(j, f.zero())})
    ech = exactla._column_echelon(f, rows)
    if -len(var) in ech.rows:
        return None
    unknown = list(var)
    alpha = {}
    for row in ech.reduced_rows():
        x = row.get(-len(var), f.zero())
        if not f.is_zero(x):
            g, k = unknown[-max(row)]
            alpha.setdefault(g, {})[k] = x
    return alpha


def _split_pairs(fam):
    """split((), S) and split(S, all) for every subset S that splits."""
    for r in range(len(fam.new_arrows) + 1):
        for combo in combinations(fam.new_arrows, r):
            try:
                fam.partial(combo)
            except SplitError:
                continue
            yield fam.split((), combo)
            yield fam.split(combo, fam.new_arrows)


# z.a = 0 but z.b != 0: a -> b, b -> 0, c -> 0 is no derivation of C (it
# sends the relation a.c to b.c), and it has no lift, since x d(a) = z.b
# would have to be alpha(z) a, a multiple of z.a = 0
UNLIFTABLE = (
    "algebra C\nvertices 1 2 3\narrow a 1 2\narrow b 1 2\narrow c 2 3\nrel a.c\nend\n"
    "algebra T\nvertices 1 2 3\narrow a 1 2\narrow b 1 2\narrow c 2 3\narrow z 3 1\n"
    "rel a.c\nrel z.a\nrel c.z\nend\n"
)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_lifts_match_per_derivation_reference(files, chain_text, field):
    """One system for all derivations of a split gives each the verdict and
    the alpha of its own solve, on every split of ex1, ex2 and chain k <= 4,
    and on a split where some inputs have no lift.  The inputs are the
    derivation and inner bases and every arrow coordinate unit vector."""
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in (1, 2, 3, 4)]
    pf = qdsl.parse(UNLIFTABLE)
    splits = [split_presentation(
        build(pf.block("C"), field=field), build(pf.block("T"), field=field), ("z",)
    )]
    for pf in pfs:
        splits += _split_pairs(Family(pf.block("C"), pf.block("Ctilde"), field))
    verdicts = set()
    for sp in splits:
        space = extensions.regular_h1(sp.base)
        n = space.layout.total
        dvecs = list(space.derivations.rows + space.inner.rows)
        dvecs += [{u: field.one()} for u in range(n)]
        got = lift_derivations(sp, dvecs)
        assert [w.derivation for w in got] == dvecs
        assert ref.stores_no_zero(field, {k: w.derivation for k, w in enumerate(got)})
        assert [w.alpha for w in got] == [_reference_lift(sp, d) for d in dvecs]
        verdicts.update(w.ok for w in got)
    assert verdicts == {True, False}


def _lift_sides(sp, dvec):
    """{(j, i): (d(c_j) x_i, x_i d(c_j))} over the pairs with d(c_j) != 0."""
    e = sp.ext_over_base
    one = sp.field.one()
    dvals = hochschild.derivation_values(
        sp.base, extensions.regular_bimodule_of(sp.base), dvec
    )
    return {
        (j, i): (e.left_act(dj, {i: one}), e.right_act(dj, {i: one}))
        for j, dj in enumerate(dvals)
        if dj
        for i in range(e.dim)
    }


def _failing_pairs(e, sides, alpha):
    """The pairs (c_j, x_i), all of them, on which a lifting condition fails;
    the check before it skipped the pairs where every term is 0."""
    f = e.field
    one = f.one()

    def minus_alpha(u, v):
        out = dict(u)
        for g, c in v.items():
            for t, x in alpha.get(g, {}).items():
                out[t] = f.sub(out.get(t, f.zero()), f.mul(c, x))
        return f.sparse(out)

    out = set()
    for j in range(e.acting.dim):
        for i in range(e.dim):
            dx, xd = sides.get((j, i), ({}, {}))
            ax = alpha.get(i, {})
            if minus_alpha(e.right_act({j: one}, ax), e.act(1, j, i)) != xd:
                out.add((j, i))
            elif minus_alpha(e.left_act({j: one}, ax), e.act(0, j, i)) != dx:
                out.add((j, i))
    return out


def _lift_cases(presentations):
    for name in ("ex1", "ex2"):
        for key in ("CB", "BCt", "CCt"):
            sp = presentations[name][key]
            der = extensions.regular_h1(sp.base).derivations
            for d in der.rows:
                (w,) = lift_derivations(sp, [d])
                yield sp.ext_over_base, sp.field, _lift_sides(sp, d), w.alpha


def test_lift_check_rejects_broken_alpha(presentations):
    """The check of a solved lift accepts the witness's alpha, and rejects
    it with one entry moved off the vertex bigrade or with one side of the
    conditions negated."""
    moved = negated = 0
    for e, f, sides, amat in _lift_cases(presentations):
        one = f.one()
        assert extensions._lift_holds(e, [(sides, amat)])
        assert not _failing_pairs(e, sides, amat)
        off = [(g, k) for g in range(e.dim) for k in range(e.dim)
               if (e.src[g], e.tgt[g]) != (e.src[k], e.tgt[k])]
        if off:
            g, k = off[0]
            bad = {r: dict(v) for r, v in amat.items()}
            bad.setdefault(g, {})[k] = f.add(bad.get(g, {}).get(k, f.zero()), one)
            assert not extensions._lift_holds(e, [(sides, bad)])
            # one call checks every lift of a split, and fails if one fails
            assert not extensions._lift_holds(e, [(sides, amat), (sides, bad)])
            moved += 1
        hits = [p for p, (dx, _) in sides.items() if dx]
        if hits:
            dx, xd = sides[hits[0]]
            broken = dict(sides)
            broken[hits[0]] = ({t: f.neg(c) for t, c in dx.items()}, xd)
            assert not extensions._lift_holds(e, [(broken, amat)])
            negated += 1
    assert moved and negated


def test_lift_check_visits_every_pair_a_term_can_be_nonzero_on(presentations):
    """Breaks that fail only on pairs (c, x) the check visits for one reason
    alone.  Adding a parallel basis element to one alpha(y) breaks it on
    pairs with xc = cx = 0 and d(c) = 0, visited because alpha(x) != 0, or
    on pairs with alpha(x) = 0 and d(c) = 0, visited because xc or cx is
    not 0.  Giving d(c) x a value where alpha(x) = 0 and xc = cx = 0 breaks
    it on a pair visited because d(c) != 0.  The full pairwise check fails
    each break on such pairs only, and the sparse check rejects it."""
    by_alpha = by_action = by_d = 0
    for e, f, sides, amat in _lift_cases(presentations):
        one = f.one()
        left, right = ref.action_tables(e)
        acted = {
            (j, i) for j in range(e.acting.dim) for i in left[j].keys() | right[j].keys()
        }
        for i in range(e.dim):
            for k in range(e.dim):
                if (e.src[i], e.tgt[i]) != (e.src[k], e.tgt[k]):
                    continue
                bad = {r: dict(v) for r, v in amat.items()}
                bad[i] = f.sparse({**bad.get(i, {}), k: f.add(bad.get(i, {}).get(k, f.zero()), one)})
                if not bad[i]:
                    del bad[i]
                fails = _failing_pairs(e, sides, bad)
                if fails and not fails & (acted | set(sides)):
                    assert not extensions._lift_holds(e, [(sides, bad)])
                    by_alpha += 1
                if fails and all(p in acted and p not in sides and p[1] not in bad for p in fails):
                    assert not extensions._lift_holds(e, [(sides, bad)])
                    by_action += 1
        for j, i in sorted(set(sides) - acted):
            if i not in amat:
                broken = dict(sides)
                broken[(j, i)] = ({i: one}, sides[(j, i)][1])
                assert _failing_pairs(e, broken, amat) == {(j, i)}
                assert not extensions._lift_holds(e, [(broken, amat)])
                by_d += 1
    assert by_alpha and by_action and by_d


def test_lift_that_fails_its_check_raises(presentations, monkeypatch):
    """A solved alpha that fails the independent check is an internal
    fault, reported as SplitError, not as a derivation without a lift."""
    sp = presentations["ex2"]["CCt"]
    der = extensions.regular_h1(sp.base).derivations
    monkeypatch.setattr(extensions, "_lift_holds", lambda e, checks: False)
    with pytest.raises(SplitError, match="fails the defining conditions"):
        lift_derivations(sp, der.rows)


def test_lifts_are_solved_once_per_subset(files, monkeypatch):
    """verify with S = all new arrows lifts through the same split C < Ctilde
    as the part of verify that does not depend on S, so one solve serves
    both, and a second verify of S, in another order, solves nothing."""
    calls = []
    real = extensions.lift_derivations

    def counting(sp, dvecs):
        calls.append(sp.new_arrows)
        return real(sp, dvecs)

    monkeypatch.setattr(extensions, "lift_derivations", counting)
    fam = Family(files["ex2"].block("C"), files["ex2"].block("Ctilde"))
    assert fam.verify(("eps", "eps2")).lifts_ok
    assert calls == [("eps", "eps2")]
    fam.verify(("eps2", "eps"))
    assert calls == [("eps", "eps2")]
    fam.verify(("eps",))
    assert calls == [("eps", "eps2"), ("eps",)]


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


def test_cohomology_caches_die_with_the_algebra(files):
    """Cached regular cohomology and bar-complex calculators live on the
    algebra and bimodule objects, so nothing pins them once dropped."""
    alg = build(files["ex2"].block("Ctilde"))
    m = extensions.regular_bimodule_of(alg)
    assert extensions.regular_bimodule_of(alg) is m
    assert center(alg).dim == 3
    assert extensions.regular_h1(alg) is extensions.regular_h1(alg)
    assert bar_reference.bar_h(alg, m, 1) == 3
    assert hochschild.calculator(alg, m) is hochschild.calculator(alg, m)
    refs = [weakref.ref(alg), weakref.ref(m)]
    del alg, m
    gc.collect()
    assert [r() for r in refs] == [None, None]
