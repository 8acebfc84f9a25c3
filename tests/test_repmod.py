"""Right modules: projectives, covers, syzygies, hom spaces, Ext^2."""

import os
import re

import pytest

import dense_reference as ref
import module_reference as modref
from build_reference import from_arrow_names
from cover_reference import cover_mats, path_matrix
from dense_reference import DenseSubspace
from families import squares
from relext import qdsl, repmod
from relext.algebra import build
from relext.exactla import QQ, Matrix, PrimeField, Subspace


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_projectives_and_regular_decomposition(algebras, name):
    for alg_name in ("C", "B", "Ctilde"):
        alg = algebras[(name, alg_name)]
        total = 0
        for v in alg.quiver.vertices:
            p = repmod.projective(alg, v)
            assert repmod.is_projective(p)
            # dim e_v A = number of basis paths starting at v
            expect = sum(1 for q in alg.basis if q.source == v)
            assert p.total_dim == expect
            total += expect
        assert total == alg.dim


def test_simple_tops(algebras):
    alg = algebras[("ex1", "C")]
    for v in alg.quiver.vertices:
        s = repmod.simple(alg, v)
        assert s.total_dim == 1
        cover = repmod.projective_cover(s)
        assert cover.cover.total_dim == repmod.projective(alg, v).total_dim


def test_hom_from_projective_is_fiber(algebras):
    # Hom_A(P_v, M) has dimension dim(M e_v) = dim of M at vertex v
    alg = algebras[("ex2", "C")]
    m = repmod.regular(alg)
    for v in alg.quiver.vertices:
        p = repmod.projective(alg, v)
        h = repmod.hom_space(p, m)
        assert h.dim == m.dims[v]


def test_syzygy_exactness(algebras):
    alg = algebras[("ex2", "C")]
    for v in alg.quiver.vertices:
        s = repmod.simple(alg, v)
        cd = repmod.projective_cover(s)
        assert cd.cover_map.kernel()[0].total_dim == cd.cover.total_dim - s.total_dim


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_gldim_at_most_two_for_base(algebras, name):
    assert repmod.gldim_at_most(algebras[(name, "C")], 2)


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_pd_builds_one_cover_per_step(algebras, monkeypatch, name):
    """pd_at_most(M, n) with pd M = s <= n builds s + 1 projective covers:
    one per syzygy step, and none twice."""
    calls = []
    cover = repmod.projective_cover
    monkeypatch.setattr(repmod, "projective_cover", lambda m: calls.append(m) or cover(m))
    for alg_name in ("C", "B", "Ctilde"):
        alg = algebras[(name, alg_name)]
        for v in alg.quiver.vertices:
            s = repmod.simple(alg, v)
            pd = next((n for n in range(4) if repmod.pd_at_most(s, n)), None)
            if pd is None:
                continue
            calls.clear()
            assert repmod.pd_at_most(s, 3)
            assert len(calls) == pd + 1, (alg_name, v)


def test_projective_cover_is_the_reference_sum(algebras, monkeypatch):
    """P_v + P_v + P_w has two generators at v; its cover is one sum built in
    one pass, entry for entry the per-vertex projectives P_v, P_v, P_w summed
    arrow by arrow (tests/module_reference.py), and a cover of the same
    dimensions."""
    alg = algebras[("ex1", "C")]
    v, w = alg.quiver.vertices[:2]
    m = modref.direct_sum(alg, [modref.projective(alg, u) for u in (v, v, w)])
    calls = []
    real = repmod.projective_sum
    monkeypatch.setattr(repmod, "projective_sum", lambda a, us: calls.append(list(us)) or real(a, us))
    cd = repmod.projective_cover(modref.on_support(m))
    assert [g for g, _ in cd.gens] == [v, v, w]
    assert calls == [[v, v, w]]
    assert modref.same_module(cd.cover, m)
    assert cd.cover_map.is_surjective()


EXT2 = {"ex1": 2, "ex2": 8}


@pytest.mark.parametrize("name", sorted(EXT2))
def test_ext2_gate(algebras, name):
    c = algebras[(name, "C")]
    ct = algebras[(name, "Ctilde")]
    assert repmod.ext2_dimension(c) == EXT2[name]
    assert repmod.ext2_dimension(c) == ct.dim - c.dim


def test_injective_cogenerator_dimension(algebras):
    alg = algebras[("ex1", "C")]
    inj = repmod.injective_cogenerator(alg)
    assert inj.total_dim == alg.dim


def test_zero_and_direct_sum(algebras):
    alg = algebras[("ex1", "C")]
    z = modref.direct_sum(alg, [])
    assert z.is_zero() and repmod.is_projective(modref.on_support(z))
    assert modref.same_module(repmod.projective_sum(alg, []), z)
    s1 = repmod.simple(alg, alg.quiver.vertices[0])
    s2 = repmod.simple(alg, alg.quiver.vertices[1])
    d = modref.direct_sum(alg, [s1, s2])
    assert d.total_dim == 2


# -- references: the explicit restriction, the dense hom builder, two covers
# per pd step --------------------------------------------------------------


def reference_hom_space(m, n):
    """Hom(M, N) from the dense system, one row per equation entry, over
    the dense matrices of the arrow maps, with M and N padded out to every
    vertex and arrow."""
    m, n = modref.padded(m), modref.padded(n)
    alg = m.algebra
    f = alg.field
    offs = {}
    pos = 0
    for v in alg.quiver.vertices:
        offs[v] = pos
        pos += m.dims[v] * n.dims[v]
    rows = []
    for a in alg.quiver.arrows:
        x, y = a.source, a.target
        rm = ref.from_images(f, m.rho[a.name], m.dims[y])
        rn = ref.from_images(f, n.rho[a.name], n.dims[y])
        for i in range(m.dims[x]):
            for j in range(n.dims[y]):
                row = [f.zero()] * pos
                for k in range(m.dims[y]):
                    idx = offs[y] + k * n.dims[y] + j
                    row[idx] = f.add(row[idx], rm.entries[i][k])
                for l in range(n.dims[x]):
                    idx = offs[x] + i * n.dims[x] + l
                    row[idx] = f.sub(row[idx], rn.entries[l][j])
                rows.append(row)
    return ref.kernel(Matrix(f, len(rows), pos, rows))


def _images(m):
    """The sparse images of the rows of a dense matrix."""
    return [m.field.sparse(row) for row in m.entries]


def _cover_hom_images(syz, n):
    """Flattened Hom(Omega^2, N) vectors of the maps restricted from
    Hom(P1, N): summand k's generator goes to the j-th basis vector of N."""
    alg = n.algebra
    f = alg.field
    run = {v: 0 for v in alg.quiver.vertices}
    offsets = []
    for gv, _ in syz.gens:
        offsets.append(dict(run))
        for v, paths in modref.projective_paths(alg, gv).items():
            run[v] += len(paths)
    incl = syz.inclusion
    vecs = []
    for k, (gv, _) in enumerate(syz.gens):
        paths = modref.projective_paths(alg, gv)
        for j in range(n.dims[gv]):
            mats = {}
            for w in alg.quiver.vertices:
                full = ref.zero(f, syz.cover.dims[w], n.dims[w])
                for r, g in enumerate(paths[w]):
                    pm = path_matrix(n, alg.basis[g])
                    full.entries[offsets[k][w] + r] = f.dense(pm[j], n.dims[w])
                mats[w] = full
            # phi: P1 -> N and psi = phi after the inclusion; building each
            # FullModuleMap checks that it commutes with every arrow
            modref.FullModuleMap(syz.cover, n, {w: _images(m) for w, m in mats.items()})
            psi = {
                v: ref.mul(ref.from_images(f, incl.mats[v], syz.cover.dims[v]), mats[v])
                for v in mats
            }
            modref.FullModuleMap(incl.source, n, {v: _images(m) for v, m in psi.items()})
            vecs.append([x for v in alg.quiver.vertices for row in psi[v].entries
                         for x in row])
    return vecs


def reference_ext2(alg):
    """dim Hom(Omega^2 M, N) minus the maps that extend to the cover of
    Omega M, for M = DA and N = A, in the all-vertex format."""
    n = modref.projective_sum(alg, alg.quiver.vertices)
    s1 = modref.syzygy(repmod.injective_cogenerator(alg))
    s2 = modref.syzygy(s1.kernel)
    h = reference_hom_space(s2.kernel, n)
    restricted = DenseSubspace.from_vectors(alg.field, h.ambient_dim, _cover_hom_images(s2, n))
    for b in restricted.basis:
        assert h.contains(list(b)), "restricted cover map escaped the hom space"
    return h.dim - restricted.dim


def reference_gldim_at_most(alg, n):
    """The pd loop that builds one cover for is_projective and another for
    the syzygy, in the all-vertex format."""

    def pd_at_most(m):
        cur = m
        for _ in range(n):
            if modref.is_projective(cur):
                return True
            cur = modref.syzygy(cur).kernel
        return modref.is_projective(cur)

    return all(pd_at_most(modref.simple(alg, v)) for v in alg.quiver.vertices)


def _reference_cases(files, chain_text, field):
    blocks = [b for n in ("ex1", "ex2") for b in files[n].blocks]
    for k in range(1, 5):
        blocks += qdsl.parse(chain_text(k)).blocks
    return [build(b, field) for b in blocks]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_counts_match_references(files, chain_text, field):
    """Every ex1/ex2 block and chain k <= 4 (C and Ctilde): Ext^2 by the
    count equals the explicit restriction, gldim bounds equal the two-cover
    loop's, and the sparse hom space equals the dense one literally."""
    algs = _reference_cases(files, chain_text, field)
    assert len(algs) == 14
    for alg in algs:
        assert repmod.ext2_dimension(alg) == reference_ext2(alg)
        for n in range(4):
            assert repmod.gldim_at_most(alg, n) == reference_gldim_at_most(alg, n)
        dual, reg = repmod.injective_cogenerator(alg), repmod.regular(alg)
        h = repmod.hom_space(dual, reg)
        assert isinstance(h, Subspace)
        assert DenseSubspace.of(h) == reference_hom_space(dual, reg)


# -- the declared relations hold by construction (repmod's docstring); the
# constructor checks shapes only, and this reference checks the relations --


def relations_act_by_zero(rep):
    """Every declared relation acts by zero on rep: the sum of its terms'
    path matrices, weighted by the coefficients, vanishes."""
    rep = modref.padded(rep)
    alg = rep.algebra
    f = alg.field
    for rel in alg.block.relations:
        acc = [{} for _ in range(rep.dims[rel.source])]
        for t in rel.terms:
            pm = path_matrix(rep, from_arrow_names(alg.quiver, t.arrows))
            c = f.from_fraction(t.coeff)
            for row, img in zip(acc, pm):
                for j, x in img.items():
                    row[j] = f.add(row.get(j, f.zero()), f.mul(c, x))
        if any(f.sparse(row) for row in acc):
            return False
    return True


HALFSQUARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "halfsquare.quiv")


def _module_cases(files, chain_text, field):
    """The reference cases, squares k <= 3 (commutativity relations) and
    both families of halfsquare.quiv (non-unit coefficients)."""
    algs = _reference_cases(files, chain_text, field)
    algs += [build(b, field) for k in range(1, 4) for b in qdsl.parse(squares(k)).blocks]
    with open(HALFSQUARE, encoding="utf-8") as fh:
        algs += [build(b, field) for b in qdsl.parse(fh.read()).blocks]
    return algs


def _reference_sum(alg, vertices):
    """modref.projective_sum stored on its support, with each per-vertex
    projective built on its support too."""
    for v in dict.fromkeys(vertices):
        modref.on_support(modref.projective(alg, v))
    return modref.on_support(modref.projective_sum(alg, vertices))


def built_modules(alg, monkeypatch, check=None, reference=False, maps=False):
    """Every module that ext2_dimension and gldim_at_most(alg, 2) construct:
    sums of projectives, the dual, simples and kernels, each passed to check
    (when given) as it is built.  With reference, the sums are built as
    tests/module_reference.py builds them, so the per-vertex projectives
    and the sums of the covers' summands are among the modules too.  With
    maps, every module map is listed too, in the order of construction."""
    built = []
    init = repmod.Representation.__init__
    map_init = repmod.ModuleMap.__init__

    def checked_init(rep, *fields):
        init(rep, *fields)
        if check is not None:
            check(rep)
        built.append(rep)

    def listed_map_init(m, *fields):
        map_init(m, *fields)
        built.append(m)

    with monkeypatch.context() as mp:
        mp.setattr(repmod.Representation, "__init__", checked_init)
        if maps:
            mp.setattr(repmod.ModuleMap, "__init__", listed_map_init)
        if reference:
            mp.setattr(repmod, "projective_sum", _reference_sum)
        repmod.ext2_dimension(alg)
        repmod.gldim_at_most(alg, 2)
    return built


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_built_modules_satisfy_the_relations(files, chain_text, monkeypatch, field):
    """Every module that ext2_dimension and gldim_at_most(alg, 2) construct,
    on the reference cases, squares k <= 3 and halfsquare."""

    def check(rep):
        assert relations_act_by_zero(rep), (rep.algebra.block.name, rep)

    for alg in _module_cases(files, chain_text, field):
        assert built_modules(alg, monkeypatch, check)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_cover_map_matches_path_by_path_reference(files, chain_text, monkeypatch, field):
    """The prefix walk gives the cover map of every module that
    ext2_dimension and gldim_at_most(alg, 2) construct with the reference
    sums of projectives, entry for entry as the lift of each generator
    times the path matrix of each basis path."""
    modules = deep = 0
    for alg in _module_cases(files, chain_text, field):
        for rep in built_modules(alg, monkeypatch, reference=True):
            cd = repmod.projective_cover(rep)
            mats = modref.padded_map(cd.cover_map).mats
            assert mats == cover_mats(modref.padded(rep), cd.gens), (alg.block.name, rep)
            modules += 1
            # the nonzero images of basis paths of length >= 2
            for w, imgs in mats.items():
                ps = [g for gv, _ in cd.gens for g in modref.projective_paths(alg, gv)[w]]
                deep += sum(bool(img) and alg.basis[g].length > 1 for g, img in zip(ps, imgs))
    assert modules > 900 and deep > 1000


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_projective_sums_match_the_per_vertex_reference(files, chain_text, monkeypatch, field):
    """The one-pass sum gives, entry for entry, the per-vertex projectives
    summed arrow by arrow (tests/module_reference.py): for the regular
    module, each projective, and the cover of every module whose cover
    ext2_dimension and gldim_at_most(alg, 2) build."""
    covers = []
    real = repmod.projective_cover

    def recording(m):
        cd = real(m)
        covers.append(cd)
        return cd

    for alg in _module_cases(files, chain_text, field):
        assert modref.same_module(repmod.regular(alg), modref.projective_sum(alg, alg.quiver.vertices))
        for v in alg.quiver.vertices:
            assert modref.same_module(repmod.projective(alg, v), modref.projective(alg, v))
        del covers[:]
        with monkeypatch.context() as mp:
            mp.setattr(repmod, "projective_cover", recording)
            repmod.ext2_dimension(alg)
            repmod.gldim_at_most(alg, 2)
        assert covers
        for cd in covers:
            want = modref.projective_sum(alg, [gv for gv, _ in cd.gens])
            assert modref.same_module(cd.cover, want), (alg.block.name, cd.gens)


def test_constructor_accepts_a_module_breaking_the_relations(algebras):
    """On ex1's C every arrow map the 1x1 identity: alpha.beta acts as the
    identity, so the helper flags what the constructor lets through."""
    alg = algebras[("ex1", "C")]
    f = alg.field
    dims = {v: 1 for v in alg.quiver.vertices}
    rep = repmod.Representation(alg, dims, {a.name: [{0: f.one()}] for a in alg.quiver.arrows})
    assert not relations_act_by_zero(rep)
    assert relations_act_by_zero(repmod.simple(alg, alg.quiver.vertices[0]))


def test_constructor_refuses_bad_shapes(algebras):
    """A module stores its support: a vertex outside the quiver or without a
    positive dimension, an arrow out of the support without a matrix, a
    matrix out of a vertex outside the support, and images out of range
    (at a target outside the support, any nonzero image) are refused."""
    alg = algebras[("ex1", "C")]
    f = alg.field
    dims = {v: 1 for v in alg.quiver.vertices}
    rho = {a.name: [{}] for a in alg.quiver.arrows}
    for v, d in (("z", 1), ("5", 0), ("5", -1)):
        with pytest.raises(ValueError, match="dimension %d for vertex '%s'" % (d, v)):
            repmod.Representation(alg, dict(dims, **{v: d}), rho)
    with pytest.raises(ValueError, match="missing matrix for arrow 'gamma'"):
        repmod.Representation(alg, dims, {n: m for n, m in rho.items() if n != "gamma"})
    # gamma: 5 -> 3 leaves a vertex outside the support
    no5 = {v: 1 for v in alg.quiver.vertices if v != "5"}
    with pytest.raises(ValueError, match="4 matrices for the 3 arrows out of the support"):
        repmod.Representation(alg, no5, rho)
    for bad in ([], [{}, {}], [{1: f.one()}], [{-1: f.one()}]):
        with pytest.raises(ValueError, match="matrix for 'alpha' does not map 1 coordinates into 1"):
            repmod.Representation(alg, dims, dict(rho, alpha=bad))
    # beta: 3 -> 1 into a vertex outside the support maps onto 0 coordinates
    no1 = {v: 1 for v in alg.quiver.vertices if v != "1"}
    assert repmod.Representation(alg, no1, rho).total_dim == 4
    with pytest.raises(ValueError, match="matrix for 'beta' does not map 1 coordinates into 0"):
        repmod.Representation(alg, no1, dict(rho, beta=[{0: f.one()}]))


def test_shape_and_commutation_faults_are_module_check_errors(algebras):
    """Only relext builds modules, so a module or module map failing its
    checks is an internal fault: ModuleCheckError, naming the algebra, and
    for a map the dimensions of both modules."""
    alg = algebras[("ex1", "C")]
    other = algebras[("ex1", "Ctilde")]
    f = alg.field
    dims = {v: 1 for v in alg.quiver.vertices}
    rho = {a.name: [{}] for a in alg.quiver.arrows}
    with pytest.raises(repmod.ModuleCheckError, match="vertex '5' of a module over 'C'"):
        repmod.Representation(alg, dict(dims, **{"5": 0}), rho)
    zero = repmod.Representation(alg, dims, rho)
    ident = repmod.Representation(
        alg, dims, {a.name: [{0: f.one()}] for a in alg.quiver.arrows}
    )
    units = {v: [{0: f.one()}] for v in alg.quiver.vertices}
    what = "map from a module of dim 5 to one of dim 5 over 'C': "
    cases = [
        ({v: m for v, m in units.items() if v != "5"}, "missing matrix at vertex '5'"),
        (dict(units, **{"5": [{1: f.one()}]}), "map shape mismatch at vertex '5'"),
        (units, "map does not commute with arrow 'alpha'"),
    ]
    for mats, msg in cases:
        with pytest.raises(repmod.ModuleCheckError, match=re.escape(what + msg)):
            repmod.ModuleMap(zero, ident, mats)
    # a block at a vertex outside the source's support
    sink = repmod.simple(alg, "1")
    with pytest.raises(
        repmod.ModuleCheckError,
        match=re.escape("map from a module of dim 1 to one of dim 5 over 'C': "
                        "matrices at 2 vertices, not 1"),
    ):
        repmod.ModuleMap(sink, ident, {"1": [{0: f.one()}], "2": []})
    elsewhere = repmod.simple(other, other.quiver.vertices[0])
    with pytest.raises(repmod.ModuleCheckError, match="over different algebras, 'C' and 'Ctilde'"):
        repmod.ModuleMap(zero, elsewhere, units)


def test_hom_space_over_different_algebras_is_a_module_check_error(algebras):
    """hom_space refuses modules over two algebras as ModuleMap does: a
    ModuleCheckError naming both, still a ValueError."""
    c, ct = algebras[("ex1", "C")], algebras[("ex1", "Ctilde")]
    with pytest.raises(
        repmod.ModuleCheckError,
        match="hom space between modules over different algebras, 'C' and 'Ctilde'",
    ) as err:
        repmod.hom_space(repmod.simple(c, "1"), repmod.simple(ct, "1"))
    assert isinstance(err.value, ValueError)


# -- modules on their support, against the all-vertex format -----------------


def _support_cases(files, chain_text, field):
    """Every ex1/ex2 block, chain k <= 6 and squares k <= 3."""
    texts = [chain_text(k) for k in range(1, 7)] + [squares(k) for k in range(1, 4)]
    blocks = [b for n in ("ex1", "ex2") for b in files[n].blocks]
    blocks += [b for t in texts for b in qdsl.parse(t).blocks]
    return [build(b, field) for b in blocks]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_built_modules_match_the_all_vertex_reference(files, chain_text, monkeypatch, field):
    """Every module and module map that ext2_dimension and
    gldim_at_most(alg, 2) build, padded out to every vertex and arrow,
    equals entry for entry the one that the all-vertex reference
    (tests/module_reference.py) builds at the same step, and passes its
    checks: every vertex and arrow, commutation with every arrow.  Each
    stored module holds positive dimensions only."""
    count = 0
    for alg in _support_cases(files, chain_text, field):
        got = built_modules(alg, monkeypatch, maps=True)
        want = modref.built_in_order(alg)
        assert len(got) == len(want), alg.block.name
        for g, w in zip(got, want):
            if isinstance(w, modref.FullModuleMap):
                assert isinstance(g, repmod.ModuleMap)
                assert modref.same_map(g, w), (alg.block.name, g.source, g.target)
            else:
                assert isinstance(g, repmod.Representation)
                assert modref.same_module(g, w), (alg.block.name, g)
                assert all(d > 0 for d in g.dims.values())
        count += len(got)
    assert count > 950


def _module(alg, dims, rho):
    """A module over alg given on its support, checked by the all-vertex
    constructor too."""
    rep = repmod.Representation(alg, dims, rho)
    modref.padded(rep)
    return rep


def test_kernel_support_skips_a_vertex(algebras):
    """On ex1's C (2 -alpha-> 3 -beta-> 1, 3 -delta-> 4, alpha.beta = 0),
    S_2 + P_3 onto S_3 has the kernel S_2 + S_1 + S_4: supported at 2 and 1
    but not at 3 between them.  It stores alpha, into 3, with a zero image,
    and neither beta nor delta; it equals the all-vertex kernel."""
    alg = algebras[("ex1", "C")]
    f = alg.field
    m = modref.on_support(
        modref.direct_sum(alg, [repmod.simple(alg, "2"), repmod.projective(alg, "3")])
    )
    assert m.dims == {"2": 1, "3": 1, "1": 1, "4": 1}
    onto = repmod.ModuleMap(
        m, repmod.simple(alg, "3"), {"2": [{}], "3": [{0: f.one()}], "1": [{}], "4": [{}]}
    )
    ker, incl = onto.kernel()
    assert ker.dims == {"2": 1, "1": 1, "4": 1}
    assert ker.rho == {"alpha": [{}]}
    assert sorted(incl.mats) == ["1", "2", "4"]
    assert repr(ker) == "Representation(1:1, 2:1, 4:1)"
    full_ker, full_incl = modref.padded_map(onto).kernel()
    assert modref.same_module(ker, full_ker)
    assert modref.same_map(incl, full_incl)


def test_simple_at_a_source_and_at_a_sink(algebras):
    """S_2 at a source stores its one arrow out, alpha, with a zero image;
    S_1 at a sink stores no arrow.  S_1 is projective, and the cover of S_2
    is P_2 (e_2, alpha, alpha.delta) with kernel its radical, at 3 and 4,
    which stores beta, into 1, with a zero image."""
    alg = algebras[("ex1", "C")]
    source, sink = repmod.simple(alg, "2"), repmod.simple(alg, "1")
    assert (source.dims, source.rho) == ({"2": 1}, {"alpha": [{}]})
    assert (sink.dims, sink.rho) == ({"1": 1}, {})
    for s, v in ((source, "2"), (sink, "1")):
        assert modref.same_module(s, modref.simple(alg, v))
        assert repr(s) == "Representation(%s:1)" % v
    assert repmod.is_projective(sink)
    cd = repmod.projective_cover(source)
    assert cd.gens == [("2", {0: alg.field.one()})]
    assert cd.cover.dims == {"2": 1, "3": 1, "4": 1}
    ker = cd.cover_map.kernel()[0]
    one = alg.field.one()
    assert (ker.dims, ker.rho) == ({"3": 1, "4": 1}, {"beta": [{}], "delta": [{0: one}]})


def test_zero_kernel(algebras):
    """The cover of a projective has the zero kernel: no vertex, no arrow,
    no block of its inclusion."""
    alg = algebras[("ex1", "C")]
    for v in alg.quiver.vertices:
        cd = repmod.projective_cover(repmod.projective(alg, v))
        ker, incl = cd.cover_map.kernel()
        assert ker.is_zero() and ker.total_dim == 0
        assert (ker.dims, ker.rho, incl.mats) == ({}, {}, {})
        assert repr(ker) == "Representation()"
        assert modref.padded(ker).is_zero()
        assert repmod.hom_space(ker, repmod.regular(alg)).dim == 0
