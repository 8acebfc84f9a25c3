"""The all-vertex module format, the per-vertex projectives and the
arrow-by-arrow direct sum that repmod replaced.

repmod.Representation stored a dimension at every vertex and a map at every
arrow, zeros included, and ModuleMap a block at every vertex; both checked
every one of them, and ModuleMap checked commutation with every arrow.
FullRepresentation and FullModuleMap keep that format and those checks.
repmod now stores a module on its support; padded and padded_map write a
module or map of either format out to every vertex and arrow, and the
tests compare the two formats entry for entry.

projective built e_i.A by walking every vertex and every arrow of the
quiver, and regular and every projective cover summed such projectives
arrow by arrow with direct_sum.  repmod builds the sum in one pass over
the summands' own paths.

projective_cover, syzygy and built_in_order run the minimal resolutions of
ext2_dimension and gldim_at_most in the all-vertex format: the top by the
radical at every vertex, the cover as the per-vertex sum, its map path by
path (tests/cover_reference.py), and kernels vertex by vertex.
"""

from __future__ import annotations

from relext import exactla, repmod
from relext.exactla import Subspace
from relext.repmod import CoverData, ModuleCheckError


def _fits(images, nsource: int, ntarget: int) -> bool:
    return len(images) == nsource and all(
        not img or (min(img) >= 0 and max(img) < ntarget) for img in images
    )


class FullRepresentation:
    """A module with a dimension at every vertex and a map at every arrow."""

    def __init__(self, algebra, dims: dict, rho: dict):
        self.algebra = A = algebra
        self.dims = dims  # vertex -> int, for every vertex
        self.rho = rho  # arrow name -> images of the basis of M_source, for every arrow
        for v in A.quiver.vertices:
            if v not in self.dims:
                raise ModuleCheckError(
                    "missing dimension for vertex %r of a module over %r" % (v, A.block.name)
                )
        for a in A.quiver.arrows:
            m = self.rho.get(a.name)
            if m is None:
                raise ModuleCheckError(
                    "missing matrix for arrow %r of a module over %r" % (a.name, A.block.name)
                )
            if not _fits(m, self.dims[a.source], self.dims[a.target]):
                raise ModuleCheckError(
                    "matrix for %r does not map %d coordinates into %d in a module over %r"
                    % (a.name, self.dims[a.source], self.dims[a.target], A.block.name)
                )

    @property
    def total_dim(self) -> int:
        return sum(self.dims[v] for v in self.algebra.quiver.vertices)

    def is_zero(self) -> bool:
        return self.total_dim == 0


class FullModuleMap:
    """A module map with a block at every vertex, checked for shape at every
    vertex and for commutation with every arrow."""

    def __init__(self, source, target, mats: dict):
        self.source = source
        self.target = target
        self.mats = mats  # vertex -> images of the basis of source_v, for every vertex
        A = source.algebra
        if target.algebra is not A:
            raise ModuleCheckError(
                "map between modules over different algebras, %r and %r"
                % (A.block.name, target.algebra.block.name)
            )
        f = A.field
        for v in A.quiver.vertices:
            m = self.mats.get(v)
            if m is None:
                raise self._fault("missing matrix at vertex %r" % (v,))
            if not _fits(m, source.dims[v], target.dims[v]):
                raise self._fault("map shape mismatch at vertex %r" % (v,))
        for a in A.quiver.arrows:
            lhs = exactla.compose(f, self.mats[a.target], source.rho[a.name])
            rhs = exactla.compose(f, target.rho[a.name], self.mats[a.source])
            if lhs != rhs:
                raise self._fault("map does not commute with arrow %r" % (a.name,))

    def _fault(self, what: str) -> ModuleCheckError:
        return ModuleCheckError(
            "map from a module of dim %d to one of dim %d over %r: %s"
            % (self.source.total_dim, self.target.total_dim, self.source.algebra.block.name, what)
        )

    def is_surjective(self) -> bool:
        f = self.source.algebra.field
        dims = self.target.dims
        return all(
            exactla.rank(f, dims[v], self.mats[v]) == dims[v] for v in self.mats if dims[v]
        )

    def kernel(self):
        """The kernel subrepresentation and its inclusion map."""
        A = self.source.algebra
        f = A.field
        bases = {
            v: exactla.kernel(f, self.target.dims[v], self.mats[v])
            if self.source.dims[v] else Subspace.zero(f, 0)
            for v in A.quiver.vertices
        }
        rho = {}
        for a in A.quiver.arrows:
            images = []
            for img in exactla.compose(f, self.source.rho[a.name], bases[a.source].rows):
                coords = bases[a.target].coordinates_of(img)
                if coords is None:
                    raise ModuleCheckError(
                        "kernel of a map from a module of dim %d over %r is not "
                        "closed under arrow %r" % (self.source.total_dim, A.block.name, a.name)
                    )
                images.append(coords)
            rho[a.name] = images
        ker = FullRepresentation(A, {v: bases[v].dim for v in bases}, rho)
        incl = FullModuleMap(ker, self.source, {v: list(bases[v].rows) for v in bases})
        return ker, incl


def _zeros(n: int) -> list:
    return [{} for _ in range(n)]


def padded(rep) -> FullRepresentation:
    """rep written out to every vertex and arrow, zeros included; a module
    in either format."""
    alg = rep.algebra
    dims = {v: rep.dims.get(v, 0) for v in alg.quiver.vertices}
    rho = {
        a.name: rep.rho[a.name] if a.name in rep.rho else _zeros(dims[a.source])
        for a in alg.quiver.arrows
    }
    return FullRepresentation(alg, dims, rho)


def padded_map(m) -> FullModuleMap:
    """m written out to every vertex, with its source and target padded."""
    source, target = padded(m.source), padded(m.target)
    mats = {
        v: m.mats[v] if v in m.mats else _zeros(source.dims[v])
        for v in source.algebra.quiver.vertices
    }
    return FullModuleMap(source, target, mats)


def on_support(full) -> repmod.Representation:
    """An all-vertex module stored on its support, as repmod stores it."""
    q = full.algebra.quiver
    dims = {v: d for v, d in full.dims.items() if d}
    rho = {a.name: full.rho[a.name] for a in q.arrows if a.source in dims}
    return repmod.Representation(full.algebra, dims, rho)


def same_module(rep, full) -> bool:
    """rep, padded, equals full entry for entry: the same dimensions and
    arrow images at every vertex and arrow."""
    p = padded(rep)
    return p.dims == full.dims and p.rho == full.rho


def same_map(m, full) -> bool:
    """m, padded, equals full entry for entry, its source and target too."""
    p = padded_map(m)
    return (
        p.mats == full.mats
        and same_module(m.source, full.source)
        and same_module(m.target, full.target)
    )


def coords_of_vertex_pair(alg, x, y) -> list:
    """Basis indices lying in e_x A e_y, in basis order
    (BoundQuiverAlgebra.coords_of_vertex_pair, which nothing in the package
    called)."""
    return list(alg.paths_from(x).get(y, ()))


def projective_paths(alg, i) -> dict:
    """Basis paths of e_i.A at each vertex: v -> algebra basis indices."""
    return {v: coords_of_vertex_pair(alg, i, v) for v in alg.quiver.vertices}


def projective(alg, i) -> FullRepresentation:
    """The indecomposable projective e_i.A; at the generating vertex the
    stationary path sits at coordinate 0."""
    paths = projective_paths(alg, i)
    dims = {v: len(paths[v]) for v in alg.quiver.vertices}
    rho = {}
    for a in alg.quiver.arrows:
        ia = alg.arrow_index_in_basis[a.name]
        dst_pos = {g: k for k, g in enumerate(paths[a.target])}
        rho[a.name] = [
            {dst_pos[k]: c for k, c in alg.product_coords(g, ia).items()}
            for g in paths[a.source]
        ]
    return FullRepresentation(alg, dims, rho)


def direct_sum(alg, reps) -> FullRepresentation:
    """The modules of reps (either format) summed in order, blockwise on
    every arrow."""
    reps = [padded(r) for r in reps]
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    rho = {}
    for a in alg.quiver.arrows:
        images = []
        shift = 0
        for r in reps:
            images += [{shift + j: x for j, x in img.items()} for img in r.rho[a.name]]
            shift += r.dims[a.target]
        rho[a.name] = images
    return FullRepresentation(alg, dims, rho)


def projective_sum(alg, vertices) -> FullRepresentation:
    """direct_sum of one projective per listed vertex, built once per
    vertex as the parent's projective_cover did."""
    vertices = list(vertices)
    built = {v: projective(alg, v) for v in dict.fromkeys(vertices)}
    return direct_sum(alg, [built[v] for v in vertices])


def simple(alg, vertex) -> FullRepresentation:
    dims = {v: (1 if v == vertex else 0) for v in alg.quiver.vertices}
    return FullRepresentation(alg, dims, {a.name: _zeros(dims[a.source]) for a in alg.quiver.arrows})


def projective_cover(m) -> CoverData:
    """The minimal cover of m (either format), in the all-vertex format: at
    every vertex, the top completes the span of the images of every arrow
    into it; the cover is the per-vertex sum, and its map sends each
    generator's lift along every basis path from its vertex."""
    from cover_reference import cover_mats  # cover_reference imports this module

    m = padded(m)
    alg = m.algebra
    f = alg.field
    gens = []
    for v in alg.quiver.vertices:
        span = exactla.Echelon(f)
        for a in alg.quiver.arrows:
            if a.target == v:
                for img in m.rho[a.name]:
                    span.insert(img)
        for j in range(m.dims[v]):
            if span.insert({j: f.one()}) is not None:
                gens.append((v, {j: f.one()}))
    cover = projective_sum(alg, [gv for gv, _ in gens])
    cover_map = FullModuleMap(cover, m, cover_mats(m, gens))
    assert cover_map.is_surjective()
    return CoverData(cover, cover_map, gens)


class SyzygyData(CoverData):
    """A cover together with its kernel, the syzygy, and the inclusion."""

    def __init__(self, cover, cover_map, gens: list, kernel, inclusion):
        super().__init__(cover, cover_map, gens)
        self.kernel = kernel
        self.inclusion = inclusion


def syzygy(m) -> SyzygyData:
    """The all-vertex cover of m (either format) with its kernel, as
    repmod.syzygy returned it before ext2_of_modules read the kernel of
    each cover map itself."""
    cd = projective_cover(m)
    return SyzygyData(cd.cover, cd.cover_map, cd.gens, *cd.cover_map.kernel())


def is_projective(m) -> bool:
    return m.is_zero() or projective_cover(m).cover.total_dim == m.total_dim


def built_in_order(alg) -> list:
    """Every module and module map that repmod.ext2_dimension and then
    repmod.gldim_at_most(alg, 2) build, in the all-vertex format and in the
    order repmod builds them: the dual and the regular module, then per
    cover the sum and its map, and per kernel the module and its inclusion.
    The dual is repmod's, padded: it is nonzero at every vertex."""
    built = []

    def cover(m):
        cd = projective_cover(m)
        built.extend((cd.cover, cd.cover_map))
        return cd

    def kernel(cd):
        ker, incl = cd.cover_map.kernel()
        built.extend((ker, incl))
        return ker

    dual = padded(repmod.injective_cogenerator(alg))
    built += [dual, projective_sum(alg, alg.quiver.vertices)]
    kernel(cover(kernel(cover(dual))))
    for v in alg.quiver.vertices:
        # pd_at_most(S_v, 2): a cover per step, a kernel unless it is
        # projective, and is_projective on the second syzygy
        cur = simple(alg, v)
        built.append(cur)
        for _ in range(2):
            cd = cover(cur)
            if cd.cover.total_dim == cur.total_dim:
                break
            cur = kernel(cd)
        else:
            if not cur.is_zero() and cover(cur).cover.total_dim != cur.total_dim:
                break  # pd S_v > 2: gldim_at_most stops at the first such simple
    return built
