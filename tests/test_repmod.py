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
        syz = modref.syzygy(s)
        assert syz.kernel.total_dim == syz.cover.total_dim - s.total_dim


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


def _same_module(a, b):
    """Equal entry for entry: the same dimensions and arrow images."""
    return a.dims == b.dims and a.rho == b.rho


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
    cd = repmod.projective_cover(m)
    assert [g for g, _ in cd.gens] == [v, v, w]
    assert calls == [[v, v, w]]
    assert _same_module(cd.cover, m)
    assert cd.cover.dims == m.dims and cd.cover_map.is_surjective()


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
    assert z.is_zero() and repmod.is_projective(z)
    assert _same_module(repmod.projective_sum(alg, []), z)
    s1 = repmod.simple(alg, alg.quiver.vertices[0])
    s2 = repmod.simple(alg, alg.quiver.vertices[1])
    d = modref.direct_sum(alg, [s1, s2])
    assert d.total_dim == 2


# -- references: the explicit restriction, the dense hom builder, two covers
# per pd step --------------------------------------------------------------


def reference_hom_space(m, n):
    """Hom(M, N) from the dense system, one row per equation entry, over
    the dense matrices of the arrow maps."""
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
            # ModuleMap checks that it commutes with every arrow
            repmod.ModuleMap(syz.cover, n, {w: _images(m) for w, m in mats.items()})
            psi = {
                v: ref.mul(ref.from_images(f, incl.mats[v], syz.cover.dims[v]), mats[v])
                for v in mats
            }
            repmod.ModuleMap(incl.source, n, {v: _images(m) for v, m in psi.items()})
            vecs.append([x for v in alg.quiver.vertices for row in psi[v].entries
                         for x in row])
    return vecs


def reference_ext2(alg):
    """dim Hom(Omega^2 M, N) minus the maps that extend to the cover of
    Omega M, for M = DA and N = A."""
    n = repmod.regular(alg)
    s1 = modref.syzygy(repmod.injective_cogenerator(alg))
    s2 = modref.syzygy(s1.kernel)
    h = reference_hom_space(s2.kernel, n)
    restricted = DenseSubspace.from_vectors(alg.field, h.ambient_dim, _cover_hom_images(s2, n))
    for b in restricted.basis:
        assert h.contains(list(b)), "restricted cover map escaped the hom space"
    return h.dim - restricted.dim


def reference_gldim_at_most(alg, n):
    """The pd loop that builds one cover for is_projective and another for
    the syzygy."""

    def pd_at_most(m):
        cur = m
        for _ in range(n):
            if repmod.is_projective(cur):
                return True
            cur = modref.syzygy(cur).kernel
        return repmod.is_projective(cur)

    return all(pd_at_most(repmod.simple(alg, v)) for v in alg.quiver.vertices)


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


def built_modules(alg, monkeypatch, check=None, reference=False):
    """Every module that ext2_dimension and gldim_at_most(alg, 2) construct:
    sums of projectives, the dual, simples and kernels, each passed to check
    (when given) as it is built.  With reference, the sums are built as
    tests/module_reference.py builds them, so the per-vertex projectives
    and the sums of the covers' summands are among the modules too."""
    built = []
    init = repmod.Representation.__init__

    def checked_init(rep, *fields):
        init(rep, *fields)
        if check is not None:
            check(rep)
        built.append(rep)

    with monkeypatch.context() as mp:
        mp.setattr(repmod.Representation, "__init__", checked_init)
        if reference:
            mp.setattr(repmod, "projective_sum", modref.projective_sum)
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
            assert cd.cover_map.mats == cover_mats(rep, cd.gens), (alg.block.name, rep)
            modules += 1
            # the nonzero images of basis paths of length >= 2
            for w, imgs in cd.cover_map.mats.items():
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
        assert _same_module(repmod.regular(alg), modref.projective_sum(alg, alg.quiver.vertices))
        for v in alg.quiver.vertices:
            assert _same_module(repmod.projective(alg, v), modref.projective(alg, v))
        del covers[:]
        with monkeypatch.context() as mp:
            mp.setattr(repmod, "projective_cover", recording)
            repmod.ext2_dimension(alg)
            repmod.gldim_at_most(alg, 2)
        assert covers
        for cd in covers:
            want = modref.projective_sum(alg, [gv for gv, _ in cd.gens])
            assert _same_module(cd.cover, want), (alg.block.name, cd.gens)


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
    alg = algebras[("ex1", "C")]
    f = alg.field
    dims = {v: 1 for v in alg.quiver.vertices}
    rho = {a.name: [{}] for a in alg.quiver.arrows}
    with pytest.raises(ValueError, match="missing dimension for vertex '5'"):
        repmod.Representation(alg, {v: 1 for v in alg.quiver.vertices[:-1]}, rho)
    with pytest.raises(ValueError, match="missing matrix for arrow 'gamma'"):
        repmod.Representation(alg, dims, {n: m for n, m in rho.items() if n != "gamma"})
    for bad in ([], [{}, {}], [{1: f.one()}], [{-1: f.one()}]):
        with pytest.raises(ValueError, match="matrix for 'alpha' does not map 1 coordinates into 1"):
            repmod.Representation(alg, dims, dict(rho, alpha=bad))


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
        repmod.Representation(alg, {v: 1 for v in alg.quiver.vertices[:-1]}, rho)
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
    elsewhere = repmod.simple(other, other.quiver.vertices[0])
    with pytest.raises(repmod.ModuleCheckError, match="over different algebras, 'C' and 'Ctilde'"):
        repmod.ModuleMap(zero, elsewhere, units)
