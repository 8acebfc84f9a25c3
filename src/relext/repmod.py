"""Right modules over a bound quiver algebra, as quiver representations.

A right module M assigns to each vertex v the space M_v = M.e_v and to each
arrow a: x -> y a dims[x] by dims[y] matrix acting on row vectors, so the
matrix of a path is the product of its arrow matrices in path order.  The
indecomposable projective P_i = e_i.A is graded by path target; the dual of
the regular module (the injective cogenerator) is graded by path source.

Projective covers are minimal: one summand P_v per basis vector of the top.
Syzygies are kernels of covers, kept as subrepresentations with explicit
inclusion maps, which is what the extension-group computations consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactla
from .algebra import BoundQuiverAlgebra
from .exactla import Matrix, Subspace
from .quiver import Path


def _matrix(field, nrows, ncols, rows) -> Matrix:
    rows = [list(r) for r in rows]
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError("shape mismatch building %dx%d matrix" % (nrows, ncols))
    return Matrix(field, nrows, ncols, rows)


@dataclass(eq=False)
class Representation:
    algebra: BoundQuiverAlgebra
    dims: dict  # vertex -> int
    rho: dict  # arrow name -> Matrix, dims[source] x dims[target]

    def __post_init__(self):
        A = self.algebra
        f = A.field
        for v in A.quiver.vertices:
            if v not in self.dims:
                raise ValueError("missing dimension for vertex %r" % (v,))
        for a in A.quiver.arrows:
            m = self.rho.get(a.name)
            if m is None:
                raise ValueError("missing matrix for arrow %r" % (a.name,))
            if m.rows != self.dims[a.source] or m.cols != self.dims[a.target]:
                raise ValueError(
                    "matrix for %r is %dx%d, expected %dx%d"
                    % (a.name, m.rows, m.cols, self.dims[a.source], self.dims[a.target])
                )
        # the declared relations must act by zero
        for rel in A.block.relations:
            acc = None
            for t in rel.terms:
                pm = self.path_matrix(Path.from_arrow_names(A.quiver, t.arrows))
                c = f.from_fraction(t.coeff)
                scaled = [[f.mul(c, x) for x in row] for row in pm.entries]
                if acc is None:
                    acc = scaled
                else:
                    acc = [
                        [f.add(a_, b_) for a_, b_ in zip(r1, r2)]
                        for r1, r2 in zip(acc, scaled)
                    ]
            if acc is not None and any(
                not f.is_zero(x) for row in acc for x in row
            ):
                raise ValueError("a relation does not annihilate this representation")

    @property
    def total_dim(self) -> int:
        return sum(self.dims[v] for v in self.algebra.quiver.vertices)

    def path_matrix(self, path: Path) -> Matrix:
        f = self.algebra.field
        if path.length == 0:
            return Matrix.identity(f, self.dims[path.vertex])
        q = self.algebra.quiver
        m = self.rho[q.arrows[path.arrows[0]].name]
        for i in path.arrows[1:]:
            m = m.mul(self.rho[q.arrows[i].name])
        return m

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        ds = ", ".join(
            "%s:%d" % (v, self.dims[v]) for v in self.algebra.quiver.vertices
        )
        return "Representation(%s)" % ds


@dataclass(eq=False)
class ModuleMap:
    source: Representation
    target: Representation
    mats: dict  # vertex -> Matrix, dims_source[v] x dims_target[v]

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("modules over different algebras")
        A = self.source.algebra
        for v in A.quiver.vertices:
            m = self.mats.get(v)
            if m is None:
                raise ValueError("missing matrix at vertex %r" % (v,))
            if m.rows != self.source.dims[v] or m.cols != self.target.dims[v]:
                raise ValueError("map shape mismatch at vertex %r" % (v,))
        for a in A.quiver.arrows:
            lhs = self.source.rho[a.name].mul(self.mats[a.target])
            rhs = self.mats[a.source].mul(self.target.rho[a.name])
            if lhs != rhs:
                raise ValueError("map does not commute with arrow %r" % (a.name,))

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        if then.source is not self.target:
            raise ValueError("composition target/source mismatch")
        return ModuleMap(
            self.source,
            then.target,
            {v: self.mats[v].mul(then.mats[v]) for v in self.mats},
        )

    def is_surjective(self) -> bool:
        return all(
            exactla.rank(self.mats[v]) == self.target.dims[v] for v in self.mats
        )

    def kernel(self):
        """The kernel subrepresentation and its inclusion map."""
        A = self.source.algebra
        f = A.field
        bases = {}  # vertex -> Subspace of row vectors killed by mats[v]
        for v in A.quiver.vertices:
            bases[v] = exactla.kernel(self.mats[v].transpose())
        dims = {v: bases[v].dim for v in bases}
        rho = {}
        for a in A.quiver.arrows:
            rows = []
            for bvec in bases[a.source].basis:
                img = self.source.rho[a.name].transpose().mat_vec(list(bvec))
                coords = bases[a.target].coordinates_of(img)
                if coords is None:
                    raise ValueError(
                        "kernel is not closed under arrow %r" % (a.name,)
                    )
                rows.append(coords)
            rho[a.name] = _matrix(f, dims[a.source], dims[a.target], rows)
        ker = Representation(A, dims, rho)
        incl = ModuleMap(
            ker,
            self.source,
            {
                v: _matrix(f, dims[v], self.source.dims[v], [list(b) for b in bases[v].basis])
                for v in bases
            },
        )
        return ker, incl


def zero_rep(alg: BoundQuiverAlgebra) -> Representation:
    f = alg.field
    dims = {v: 0 for v in alg.quiver.vertices}
    rho = {a.name: Matrix.zero(f, 0, 0) for a in alg.quiver.arrows}
    return Representation(alg, dims, rho)


def simple(alg: BoundQuiverAlgebra, vertex) -> Representation:
    f = alg.field
    dims = {v: (1 if v == vertex else 0) for v in alg.quiver.vertices}
    rho = {
        a.name: Matrix.zero(f, dims[a.source], dims[a.target])
        for a in alg.quiver.arrows
    }
    return Representation(alg, dims, rho)


def projective_paths(alg: BoundQuiverAlgebra, i) -> dict:
    """Basis paths of e_i.A at each vertex: v -> algebra basis indices."""
    return {v: alg.coords_of_vertex_pair(i, v) for v in alg.quiver.vertices}


def projective(alg: BoundQuiverAlgebra, i) -> Representation:
    """The indecomposable projective e_i.A; at the generating vertex the
    stationary path sits at coordinate 0."""
    f = alg.field
    paths = projective_paths(alg, i)
    dims = {v: len(paths[v]) for v in alg.quiver.vertices}
    rho = {}
    for a in alg.quiver.arrows:
        ia = alg.arrow_index_in_basis[a.name]
        src_list = paths[a.source]
        dst_list = paths[a.target]
        dst_pos = {g: k for k, g in enumerate(dst_list)}
        rows = []
        for g in src_list:
            prod = alg.mult_coords[g][ia]
            row = [f.zero()] * len(dst_list)
            for k, c in enumerate(prod):
                if not f.is_zero(c):
                    row[dst_pos[k]] = c
            rows.append(row)
        rho[a.name] = _matrix(f, dims[a.source], dims[a.target], rows)
    return Representation(alg, dims, rho)


def regular(alg: BoundQuiverAlgebra) -> Representation:
    """A as a right module over itself, graded by path target."""
    return direct_sum(alg, [projective(alg, v) for v in alg.quiver.vertices])


def injective_cogenerator(alg: BoundQuiverAlgebra) -> Representation:
    """The dual of A as a right module: basis p* for paths p, p* sitting at
    the source of p, with (p* . a) = sum of q* over a.q reducing to p."""
    f = alg.field
    by_source = {
        v: [i for i, p in enumerate(alg.basis) if p.source == v]
        for v in alg.quiver.vertices
    }
    dims = {v: len(by_source[v]) for v in alg.quiver.vertices}
    rho = {}
    for a in alg.quiver.arrows:
        ia = alg.arrow_index_in_basis[a.name]
        src_list = by_source[a.source]  # p* with source(p) = a.source
        dst_list = by_source[a.target]
        rows = []
        for p in src_list:
            row = []
            for q in dst_list:
                # coefficient of p inside a.q
                row.append(alg.mult_coords[ia][q][p])
            rows.append(row)
        rho[a.name] = _matrix(f, dims[a.source], dims[a.target], rows)
    return Representation(alg, dims, rho)


def direct_sum(alg: BoundQuiverAlgebra, reps) -> Representation:
    f = alg.field
    reps = list(reps)
    dims = {
        v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices
    }
    rho = {}
    for a in alg.quiver.arrows:
        nr, nc = dims[a.source], dims[a.target]
        m = Matrix.zero(f, nr, nc)
        ro = co = 0
        for r in reps:
            blk = r.rho[a.name]
            for i in range(blk.rows):
                for j in range(blk.cols):
                    m.entries[ro + i][co + j] = blk.entries[i][j]
            ro += r.dims[a.source]
            co += r.dims[a.target]
        rho[a.name] = m
    return Representation(alg, dims, rho)


@dataclass(eq=False)
class CoverData:
    """A projective cover: gens[k] = (vertex, lifted top vector in M)."""

    cover: Representation
    cover_map: ModuleMap
    gens: list

    def summand_offsets(self, alg) -> list:
        """Per summand: vertex -> row offset of its block inside the cover."""
        run = {v: 0 for v in alg.quiver.vertices}
        out = []
        for gv, _ in self.gens:
            paths = projective_paths(alg, gv)
            here = dict(run)
            out.append(here)
            for v in alg.quiver.vertices:
                run[v] += len(paths[v])
        return out


def projective_cover(m: Representation) -> CoverData:
    alg = m.algebra
    f = alg.field
    gens = []
    for v in alg.quiver.vertices:
        rows = []
        for a in alg.quiver.arrows:
            if a.target == v:
                rows.extend(m.rho[a.name].entries)
        rad = Subspace.from_vectors(f, m.dims[v], rows)
        cur = rad
        for j in range(m.dims[v]):
            e = [f.zero()] * m.dims[v]
            e[j] = f.one()
            if not cur.contains(e):
                gens.append((v, tuple(e)))
                cur = cur.sum(Subspace.from_vectors(f, m.dims[v], [e]))
    summands = [projective(alg, gv) for gv, _ in gens]
    cover = direct_sum(alg, summands)
    mats = {}
    for w in alg.quiver.vertices:
        rows = []
        for gv, lift in gens:
            for g in projective_paths(alg, gv)[w]:
                pm = m.path_matrix(alg.basis[g])
                rows.append(pm.transpose().mat_vec(list(lift)))
        mats[w] = _matrix(f, cover.dims[w], m.dims[w], rows)
    cover_map = ModuleMap(cover, m, mats)
    if not cover_map.is_surjective():
        raise ValueError("projective cover failed to surject")
    return CoverData(cover, cover_map, gens)


@dataclass(eq=False)
class SyzygyData:
    cover: Representation
    cover_map: ModuleMap
    kernel: Representation
    inclusion: ModuleMap
    gens: list


def syzygy(m: Representation) -> SyzygyData:
    cd = projective_cover(m)
    ker, incl = cd.cover_map.kernel()
    return SyzygyData(cd.cover, cd.cover_map, ker, incl, cd.gens)


def is_projective(m: Representation) -> bool:
    if m.is_zero():
        return True
    cd = projective_cover(m)
    return cd.cover.total_dim == m.total_dim


def pd_at_most(m: Representation, n: int) -> bool:
    """Projective dimension bound via iterated minimal syzygies."""
    cur = m
    for _ in range(n):
        if is_projective(cur):
            return True
        cur = syzygy(cur).kernel
    return is_projective(cur)


def gldim_at_most(alg: BoundQuiverAlgebra, n: int) -> bool:
    return all(pd_at_most(simple(alg, v), n) for v in alg.quiver.vertices)


@dataclass(eq=False)
class HomSpace:
    """Hom_A(M, N) as a subspace of flattened per-vertex matrices."""

    source: Representation
    target: Representation
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def matrices(self, vec) -> dict:
        f = self.source.algebra.field
        out = {}
        pos = 0
        for v in self.source.algebra.quiver.vertices:
            nr, nc = self.source.dims[v], self.target.dims[v]
            rows = [
                [vec[pos + i * nc + j] for j in range(nc)] for i in range(nr)
            ]
            out[v] = _matrix(f, nr, nc, rows)
            pos += nr * nc
        return out


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """Solve the arrow-commutation equations for maps M -> N."""
    alg = m.algebra
    if n.algebra is not alg:
        raise ValueError("modules over different algebras")
    f = alg.field
    offs = {}
    pos = 0
    for v in alg.quiver.vertices:
        offs[v] = pos
        pos += m.dims[v] * n.dims[v]
    total = pos
    rows = []
    for a in alg.quiver.arrows:
        x, y = a.source, a.target
        rm = m.rho[a.name]  # m.dims[x] x m.dims[y]
        rn = n.rho[a.name]  # n.dims[x] x n.dims[y]
        for i in range(m.dims[x]):
            for j in range(n.dims[y]):
                row = [f.zero()] * total
                # (rm . F_y)[i][j] : sum_k rm[i][k] F_y[k][j]
                for k in range(m.dims[y]):
                    c = rm.entries[i][k]
                    if not f.is_zero(c):
                        row[offs[y] + k * n.dims[y] + j] = f.add(
                            row[offs[y] + k * n.dims[y] + j], c
                        )
                # -(F_x . rn)[i][j] : sum_l F_x[i][l] rn[l][j]
                for l in range(n.dims[x]):
                    c = rn.entries[l][j]
                    if not f.is_zero(c):
                        idx = offs[x] + i * n.dims[x] + l
                        row[idx] = f.sub(row[idx], c)
                rows.append(row)
    mat = Matrix(f, len(rows), total, rows)
    return HomSpace(m, n, exactla.kernel(mat))


def _cover_hom_images(syz: SyzygyData, omega2_incl: ModuleMap, n: Representation):
    """Flattened Hom(Omega^2, N) vectors of maps restricted from Hom(P1, N).

    A map out of the cover P1 = direct sum of P_v is freely determined by the
    image of each summand generator, one basis vector of N_v at a time.
    """
    alg = n.algebra
    f = alg.field
    cd = CoverData(syz.cover, syz.cover_map, syz.gens)
    offsets = cd.summand_offsets(alg)
    k2 = omega2_incl.source
    vecs = []
    for k, (gv, _) in enumerate(syz.gens):
        paths = projective_paths(alg, gv)
        for j in range(n.dims[gv]):
            # phi sends the generator of summand k to the j-th basis vector
            mats = {}
            for w in alg.quiver.vertices:
                full = Matrix.zero(f, syz.cover.dims[w], n.dims[w])
                base = offsets[k][w]
                for r, g in enumerate(paths[w]):
                    pm = n.path_matrix(alg.basis[g])
                    full.entries[base + r] = list(pm.entries[j])
                mats[w] = full
            phi = ModuleMap(syz.cover, n, mats)
            psi = omega2_incl.compose(phi)
            flat = []
            for v in alg.quiver.vertices:
                for row in psi.mats[v].entries:
                    flat.extend(row)
            vecs.append(flat)
    return vecs


def ext2_of_modules(m: Representation, n: Representation) -> int:
    """dim Ext^2(M, N) = dim Hom(Omega^2 M, N) minus the maps that extend
    to the projective cover of Omega M."""
    s1 = syzygy(m)
    s2 = syzygy(s1.kernel)
    h = hom_space(s2.kernel, n)
    vecs = _cover_hom_images(s2, s2.inclusion, n)
    f = m.algebra.field
    amb = h.space.ambient_dim
    restricted = Subspace.from_vectors(f, amb, vecs)
    for b in restricted.basis:
        if not h.space.contains(list(b)):
            raise ValueError("restricted cover map escaped the hom space")
    return h.dim - restricted.dim


def ext2_dimension(alg: BoundQuiverAlgebra) -> int:
    """dim Ext^2 from the dual of the regular module into the regular one."""
    return ext2_of_modules(injective_cogenerator(alg), regular(alg))
