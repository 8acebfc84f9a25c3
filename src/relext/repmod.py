"""Right modules over a bound quiver algebra, as quiver representations.

A right module M assigns to each vertex v the space M_v = M.e_v and to each
arrow a: x -> y a linear map M_x -> M_y acting on row vectors, given as the
list of the images of the basis of M_x, each a sparse {coordinate: x} on
the basis of M_y; so the map of a path composes its arrow maps in path
order.  A module is stored on its support: dims holds the vertices where
M_v is nonzero, rho exactly the arrows out of them, and every other vertex
and arrow is 0 (read dims.get(v, 0) and rho.get(name, ())).  A module map
holds one image list per vertex of its source's support.  Projectives
P_i = e_i.A are graded by path target, and a sum of them is built in one
pass over its summands' own paths (BoundQuiverAlgebra.paths_from); the
dual of the regular module (the injective cogenerator) is graded by path
source.

Projective covers are minimal, one summand P_v per basis vector of the top,
and syzygies are kernels of covers with their inclusion maps.
ext2_dimension counts dim Ext^2 from hom dimensions along one minimal
resolution, and gldim_at_most bounds the projective dimensions of the
simples.

Modules satisfy the declared relations by construction, so the constructor
checks shapes only:
- projective_sum (projective, regular, the cover of projective_cover),
  injective_cogenerator: arrow maps are structure constants that
  _verify_build certified as those of kQ/I, so a path acts by right
  multiplication by its normal form (on DA, by the transpose of left
  multiplication), a relation by 0; a sum acts blockwise on its summands.
- simple: every arrow map is 0; qdsl rejects relation terms under 2 arrows.
- ModuleMap.kernel: a submodule through an injective inclusion, which
  ModuleMap checks commutes with every arrow out of the kernel's support
  (the others act on 0).
A cover that fails to surject, a kernel not closed under an arrow, and a
module or module map failing a shape or commutation check are internal
faults: ModuleCheckError, an ArithmeticError as well as a ValueError,
naming the algebra and the sizes.
"""

from __future__ import annotations

from . import exactla
from .algebra import BoundQuiverAlgebra
from .exactla import Subspace


class ModuleCheckError(ValueError, ArithmeticError):
    """A module built here that fails its own check: an internal fault, not
    bad input."""


def _fits(images, nsource: int, ntarget: int) -> bool:
    return len(images) == nsource and all(
        not img or (min(img) >= 0 and max(img) < ntarget) for img in images
    )


def _out(alg: BoundQuiverAlgebra, vertices) -> list:
    q = alg.quiver  # the arrows out of the vertices, vertex by vertex
    return [q.arrows[ai] for v in vertices for ai in q.out_arrows[v]]


def _one_algebra(what: str, m, n):
    if n.algebra is not m.algebra:
        raise ModuleCheckError(
            "%s between modules over different algebras, %r and %r"
            % (what, m.algebra.block.name, n.algebra.block.name)
        )


class Representation:
    """A module on its support: dims maps each vertex where it is nonzero to
    its dimension, and rho each arrow out of those vertices to its map."""

    def __init__(self, algebra: BoundQuiverAlgebra, dims: dict, rho: dict):
        self.algebra = A = algebra
        self.dims = dims
        self.rho = rho
        for v, d in dims.items():
            if v not in A.quiver.vertex_index or d <= 0:
                raise self._fault("dimension %r for vertex %r" % (d, v))
        out = _out(A, dims)
        for a in out:
            m, ns, nt = rho.get(a.name), dims[a.source], dims.get(a.target, 0)
            if m is None:
                raise self._fault("missing matrix for arrow %r" % (a.name,))
            if not _fits(m, ns, nt):
                what = "matrix for %r does not map %d coordinates into %d" % (a.name, ns, nt)
                raise self._fault(what)
        if len(rho) != len(out):
            what = "%d matrices for the %d arrows out of the support" % (len(rho), len(out))
            raise self._fault(what)

    def _fault(self, what: str) -> ModuleCheckError:
        return ModuleCheckError("%s of a module over %r" % (what, self.algebra.block.name))

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def __repr__(self):
        order = sorted(self.dims, key=self.algebra.quiver.vertex_index.get)
        return "Representation(%s)" % ", ".join("%s:%d" % (v, self.dims[v]) for v in order)


class ModuleMap:
    def __init__(self, source: Representation, target: Representation, mats: dict):
        self.source = source
        self.target = target
        self.mats = mats
        _one_algebra("map", source, target)
        for v, d in source.dims.items():
            m = mats.get(v)
            if m is None:
                raise self._fault("missing matrix at vertex %r" % (v,))
            if not _fits(m, d, target.dims.get(v, 0)):
                raise self._fault("map shape mismatch at vertex %r" % (v,))
        if len(mats) != len(source.dims):
            raise self._fault("matrices at %d vertices, not %d" % (len(mats), len(source.dims)))
        f = source.algebra.field
        for a in _out(source.algebra, source.dims):
            lhs = exactla.compose(f, mats.get(a.target, ()), source.rho[a.name])
            rhs = exactla.compose(f, target.rho.get(a.name, ()), mats[a.source])
            if lhs != rhs:
                raise self._fault("map does not commute with arrow %r" % (a.name,))

    def _fault(self, what: str) -> ModuleCheckError:
        return ModuleCheckError(
            "map from a module of dim %d to one of dim %d over %r: %s"
            % (self.source.total_dim, self.target.total_dim, self.source.algebra.block.name, what)
        )

    def is_surjective(self) -> bool:
        f = self.source.algebra.field
        return all(
            v in self.mats and exactla.rank(f, d, self.mats[v]) == d
            for v, d in self.target.dims.items()
        )

    def kernel(self):
        """The kernel subrepresentation and its inclusion map."""
        A = self.source.algebra
        f = A.field
        # vertex -> Subspace of row vectors killed by mats[v], where nonzero
        bases = {}
        for v, m in self.mats.items():
            b = exactla.kernel(f, self.target.dims.get(v, 0), m)
            if b.dim:
                bases[v] = b
        rho = {}
        for a in _out(A, bases):
            at = bases.get(a.target) or Subspace.zero(f, self.source.dims.get(a.target, 0))
            images = []
            for img in exactla.compose(f, self.source.rho[a.name], bases[a.source].rows):
                coords = at.coordinates_of(img)
                if coords is None:
                    raise ModuleCheckError(
                        "kernel of a map from a module of dim %d over %r is not "
                        "closed under arrow %r" % (self.source.total_dim, A.block.name, a.name)
                    )
                images.append(coords)
            rho[a.name] = images
        ker = Representation(A, {v: b.dim for v, b in bases.items()}, rho)
        incl = ModuleMap(ker, self.source, {v: list(b.rows) for v, b in bases.items()})
        return ker, incl


def simple(alg: BoundQuiverAlgebra, vertex) -> Representation:
    return Representation(alg, {vertex: 1}, {a.name: [{}] for a in _out(alg, [vertex])})


def projective_sum(alg: BoundQuiverAlgebra, vertices) -> Representation:
    """The direct sum of the projectives e_v.A over the listed vertices, one
    summand per entry, repeats included.  At each vertex w the summands sit
    in list order, each with its paths from v to w in basis order, so the
    stationary path of a summand comes first among its paths at v.  Built
    in one pass over the summands' own paths: a path g of e_v.A ending at x
    meets only the arrows a out of x, and g.a = products[g][a] lies in
    e_v A e_y for a: x -> y, placed at the summand's offset at y.  dims
    holds the vertices in the order the summands' paths first reach them."""
    dims = {}
    rho = {}
    place = {}  # v -> {basis index h in e_v.A: its position in e_v A e_target(h)}
    for v in vertices:
        paths = alg.paths_from(v)
        pos = place.get(v)
        if pos is None:
            pos = place[v] = {h: r for hs in paths.values() for r, h in enumerate(hs)}
        for a in _out(alg, paths):
            ia = alg.arrow_index_in_basis[a.name]
            off = dims.get(a.target, 0)  # this summand's offset, as dims grows below
            rho.setdefault(a.name, []).extend(
                {off + pos[h]: c for h, c in alg.products[g].get(ia, {}).items()}
                for g in paths[a.source]
            )
        for w, hs in paths.items():
            dims[w] = dims.get(w, 0) + len(hs)
    return Representation(alg, dims, rho)


def projective(alg: BoundQuiverAlgebra, i) -> Representation:
    """The indecomposable projective e_i.A; at the generating vertex the
    stationary path sits at coordinate 0."""
    return projective_sum(alg, [i])


def regular(alg: BoundQuiverAlgebra) -> Representation:
    """A as a right module over itself, graded by path target."""
    return projective_sum(alg, alg.quiver.vertices)


def injective_cogenerator(alg: BoundQuiverAlgebra) -> Representation:
    """The dual of A as a right module: basis p* for paths p, p* sitting at
    the source of p, with (p* . a) = sum of q* over a.q reducing to p."""
    by_source = {
        v: sorted(i for ps in alg.paths_from(v).values() for i in ps)
        for v in alg.quiver.vertices
    }
    dims = {v: len(by_source[v]) for v in alg.quiver.vertices}
    rho = {}
    for a in alg.quiver.arrows:
        ia = alg.arrow_index_in_basis[a.name]
        # p* with source(p) = a.source; a.q has the source of a
        src_pos = {p: k for k, p in enumerate(by_source[a.source])}
        images = [{} for _ in src_pos]
        for u, q in enumerate(by_source[a.target]):
            for p, c in alg.product_coords(ia, q).items():
                images[src_pos[p]][u] = c
        rho[a.name] = images
    return Representation(alg, dims, rho)


class CoverData:
    """A projective cover: gens[k] = (vertex, lifted top vector in M)."""

    def __init__(self, cover: Representation, cover_map: ModuleMap, gens: list):
        self.cover = cover
        self.cover_map = cover_map
        self.gens = gens


def projective_cover(m: Representation) -> CoverData:
    alg = m.algebra
    f = alg.field
    # vertex -> echelon of the radical there, the images of the arrows into it
    spans = {v: exactla.Echelon(f) for v in m.dims}
    for a in _out(alg, m.dims):
        for img in m.rho[a.name]:
            if img:  # images into a vertex outside the support are all empty
                spans[a.target].insert(img)
    gens = []  # a basis of the top, completing the radical, in vertex order
    for v in sorted(m.dims, key=alg.quiver.vertex_index.get):
        for j in range(m.dims[v]):
            if spans[v].insert({j: f.one()}) is not None:
                gens.append((v, {j: f.one()}))
    cover = projective_sum(alg, [gv for gv, _ in gens])
    mats = {}
    for gv, lift in gens:
        # lift.p for each basis path p from gv, by the prefix walk: p = q.a
        # with q met earlier (BoundQuiverAlgebra.prefix_index), and
        # lift.(q.a) = (lift.q).rho(a)
        pw = alg.paths_from(gv)
        image = {}
        for g in sorted(g for ps in pw.values() for g in ps):
            w = alg.words[g]
            if w:
                rho = m.rho.get(alg.quiver.arrows[w[-1]].name, ())
                image[g] = exactla.compose(f, rho, [image[alg.prefix_index(g)]])[0]
            else:
                image[g] = lift
        for w, ps in pw.items():
            mats.setdefault(w, []).extend(image[g] for g in ps)
    cover_map = ModuleMap(cover, m, mats)
    if not cover_map.is_surjective():
        raise ModuleCheckError(
            "projective cover of a module of dim %d over %r failed to surject"
            % (m.total_dim, alg.block.name)
        )
    return CoverData(cover, cover_map, gens)


def is_projective(m: Representation) -> bool:
    """A module is projective iff its minimal cover is an isomorphism."""
    return m.is_zero() or projective_cover(m).cover.total_dim == m.total_dim


def pd_at_most(m: Representation, n: int) -> bool:
    """pd M <= n, with one minimal cover per step: M is projective iff its
    cover has M's dimension, and otherwise pd M <= n iff pd(Omega M) <= n-1."""
    cur = m
    for _ in range(n):
        cd = projective_cover(cur)
        if cd.cover.total_dim == cur.total_dim:
            return True
        cur = cd.cover_map.kernel()[0]
    return is_projective(cur)


def gldim_at_most(alg: BoundQuiverAlgebra, n: int) -> bool:
    return all(pd_at_most(simple(alg, v), n) for v in alg.quiver.vertices)


def hom_space(m: Representation, n: Representation) -> Subspace:
    """Hom_A(M, N) in the flattened per-vertex matrices F_v (vertex order,
    row-major, over the vertices where M and N are both nonzero): the
    solutions of rho_M(a) F_y = F_x rho_N(a) for every arrow a: x -> y with
    M_x and N_y nonzero, one sparse row per entry (i, j) of that equation."""
    _one_algebra("hom space", m, n)
    alg = m.algebra
    f = alg.field
    offs = {}
    pos = 0
    for v in sorted(m.dims.keys() & n.dims.keys(), key=alg.quiver.vertex_index.get):
        offs[v] = pos
        pos += m.dims[v] * n.dims[v]
    rows = []
    for a in _out(alg, m.dims):
        x, y = a.source, a.target
        if y not in n.dims:
            continue
        rm = m.rho[a.name]  # images of the basis of M_x in M_y
        ncols = {}  # j -> [(l, entry j of the image of N_x's basis vector l)]
        for l, img in enumerate(n.rho.get(a.name, ())):
            for j, c in img.items():
                ncols.setdefault(j, []).append((l, c))
        for i in range(m.dims[x]):
            for j in range(n.dims[y]):
                # (rm . F_y)[i][j] = sum_k rm[i][k] F_y[k][j]
                row = {offs[y] + k * n.dims[y] + j: c for k, c in rm[i].items()}
                # minus (F_x . rn)[i][j] = sum_l F_x[i][l] rn[l][j]
                for l, c in ncols.get(j, ()):
                    idx = offs[x] + i * n.dims[x] + l
                    row[idx] = f.sub(row.get(idx, f.zero()), c)
                rows.append(row)
    return exactla.null_space(f, pos, rows)


def ext2_of_modules(m: Representation, n: Representation) -> int:
    """dim Ext^2(M, N), counted from hom dimensions along the minimal
    resolution P1 -> P0 -> M.

    Ext^2(M, N) = Ext^1(Omega M, N), as Ext^1 and Ext^2 vanish on P0.
    Hom(-, N) turns 0 -> Omega^2 M -> P1 -> Omega M -> 0 into the exact
    sequence
        0 -> Hom(Omega M, N) -> Hom(P1, N) -> Hom(Omega^2 M, N)
          -> Ext^1(Omega M, N) -> Ext^1(P1, N) = 0,
    so dim Ext^2 = dim Hom(Omega^2 M, N) - dim Hom(P1, N) + dim Hom(Omega M, N).
    Hom(P_v, N) = N e_v (Yoneda), so dim Hom(P1, N) is the sum of dim N e_v
    over the generators v of the cover."""
    omega1 = projective_cover(m).cover_map.kernel()[0]
    cd = projective_cover(omega1)
    omega2 = cd.cover_map.kernel()[0]
    hom_p1 = sum(n.dims.get(v, 0) for v, _ in cd.gens)
    return hom_space(omega2, n).dim - hom_p1 + hom_space(omega1, n).dim


def ext2_dimension(alg: BoundQuiverAlgebra) -> int:
    """dim Ext^2 from the dual of the regular module into the regular one."""
    return ext2_of_modules(injective_cogenerator(alg), regular(alg))
