"""Hochschild cohomology in degrees 0 and 1 with bimodule coefficients.

Two independent computations back every number.  The primary one works in
arrow coordinates: a derivation vanishing on the stationary paths is
determined by its values d(a) in the bigraded slice e_src(a) . M . e_tgt(a),
subject to one linear constraint per declared relation; inner derivations
come from the diagonal part of M.  The oracle re-derives the same dimensions
from the full bar complex, b(i+1) acting on Hom(A^tensor i, M) by

    (b f)(c0,...,ci) = c0 f(c1...) + sum_j (-1)^j f(.. c_{j-1} c_j ..)
                       + (-1)^(i+1) f(...) ci,

whose degree 2 kernel is large enough (dim A squared times dim M rows) that
it goes straight to an exactla.Echelon over integer cochain keys, without
dense matrices.

Cup products are supported in total degree at most 2 with coefficients in
the algebra itself, and membership in the image of b2 decides whether a
degree 2 cocycle is a coboundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactla
from .algebra import BoundQuiverAlgebra
from .bimod import Bimodule
from .exactla import Matrix, Subspace
from .quiver import Path


# -- arrow-coordinate layout ------------------------------------------------


@dataclass(eq=False)
class ArrowLayout:
    """Coordinates for derivation values: one bigraded block per arrow."""

    algebra: BoundQuiverAlgebra
    bimodule: Bimodule
    blocks: list  # per arrow (declaration order): list of M basis indices
    offsets: list
    total: int

    def embed(self, vec):
        """Arrow-coordinate vector -> per-arrow M vectors."""
        out = []
        for k, block in enumerate(self.blocks):
            m = self.bimodule.zero_vec()
            for u, i in enumerate(block):
                m[i] = vec[self.offsets[k] + u]
            out.append(m)
        return out

    def project(self, k: int, mvec):
        """Slice the block of arrow k out of a full M vector; the rest of
        the vector must be zero there or the derivation value is invalid."""
        f = self.bimodule.field
        block = set(self.blocks[k])
        for i, c in enumerate(mvec):
            if i not in block and not f.is_zero(c):
                raise ValueError("value of a derivation leaves its bigraded slice")
        return [mvec[i] for i in self.blocks[k]]


def arrow_layout(alg: BoundQuiverAlgebra, m: Bimodule) -> ArrowLayout:
    if m.acting is not alg:
        raise ValueError("bimodule is not over this algebra")
    blocks = []
    offsets = []
    run = 0
    for a in alg.quiver.arrows:
        block = [
            i for i in range(m.dim) if m.src[i] == a.source and m.tgt[i] == a.target
        ]
        blocks.append(block)
        offsets.append(run)
        run += len(block)
    return ArrowLayout(alg, m, blocks, offsets, run)


# -- degree 0 -----------------------------------------------------------------


def h0(m: Bimodule) -> Subspace:
    """{x in M : a.x = x.a for all a}, cut out by every basis element."""
    f = m.field
    rows = []
    for a in range(m.acting.dim):
        la, ra = m.left_mats[a], m.right_mats[a]
        for j in range(m.dim):
            rows.append(
                [f.sub(la.entries[i][j], ra.entries[i][j]) for i in range(m.dim)]
            )
    return exactla.kernel(Matrix(f, len(rows), m.dim, rows))


# -- degree 1, arrow coordinates ----------------------------------------------


def _path_value(layout: ArrowLayout, arrows: tuple, dvals: list):
    """d(path) for a path given by quiver arrow indices, via the Leibniz
    rule, with d(arrow k) = dvals[k] as an M vector."""
    alg = layout.algebra
    m = layout.bimodule
    f = m.field
    q = alg.quiver
    out = m.zero_vec()
    for j in range(len(arrows)):
        val = dvals[arrows[j]]
        if all(f.is_zero(c) for c in val):
            continue
        if j > 0:
            pre = alg.nf_coords(Path(q, None, arrows[:j]))
            val = m.left_act(pre, val)
        if j + 1 < len(arrows):
            suf = alg.nf_coords(Path(q, None, arrows[j + 1 :]))
            val = m.right_act(suf, val)
        for t, c in enumerate(val):
            if not f.is_zero(c):
                out[t] = f.add(out[t], c)
    return out


def derivation_space(alg: BoundQuiverAlgebra, m: Bimodule) -> Subspace:
    """Derivations d with d(e_v) = 0, in arrow coordinates: the kernel of
    the relation constraints sum_t c_t d(p_t) = 0."""
    layout = arrow_layout(alg, m)
    f = m.field
    q = alg.quiver
    rows = []
    for rel in alg.block.relations:
        # accumulate the M.dim x total constraint block of this relation
        acc = [[f.zero()] * layout.total for _ in range(m.dim)]
        for term in rel.terms:
            c = f.from_fraction(term.coeff)
            arrows = tuple(q.arrow_index[n] for n in term.arrows)
            for k_pos in range(len(arrows)):
                k = arrows[k_pos]
                for u, i in enumerate(layout.blocks[k]):
                    unit = m.zero_vec()
                    unit[i] = f.one()
                    # contribution of this single unknown along this term
                    val = unit
                    if k_pos > 0:
                        pre = alg.nf_coords(Path(q, None, arrows[:k_pos]))
                        val = m.left_act(pre, val)
                    if k_pos + 1 < len(arrows):
                        suf = alg.nf_coords(Path(q, None, arrows[k_pos + 1 :]))
                        val = m.right_act(suf, val)
                    col = layout.offsets[k] + u
                    for t, x in enumerate(val):
                        if not f.is_zero(x):
                            acc[t][col] = f.add(acc[t][col], f.mul(c, x))
        for row in acc:
            if any(not f.is_zero(x) for x in row):
                rows.append(row)
    mat = Matrix(f, len(rows), layout.total, rows)
    return exactla.kernel(mat)


def inner_space(alg: BoundQuiverAlgebra, m: Bimodule) -> Subspace:
    """Span of c |-> c.x - x.c over diagonal x, in arrow coordinates."""
    layout = arrow_layout(alg, m)
    f = m.field
    vecs = []
    for i in m.diagonal_indices():
        unit = m.zero_vec()
        unit[i] = f.one()
        vec = [f.zero()] * layout.total
        for k, a in enumerate(alg.quiver.arrows):
            ia = alg.arrow_index_in_basis[a.name]
            ax = m.left_act_basis(ia, unit)
            xa = m.right_act_basis(ia, unit)
            diff = [f.sub(p_, q_) for p_, q_ in zip(ax, xa)]
            for u, idx in enumerate(layout.blocks[k]):
                vec[layout.offsets[k] + u] = diff[idx]
            # the difference must not leave the bigraded slice
            block = set(layout.blocks[k])
            for t, c in enumerate(diff):
                if t not in block and not f.is_zero(c):
                    raise ValueError("inner derivation leaves the arrow slice")
        vecs.append(vec)
    total = layout.total
    return Subspace.from_vectors(f, total, vecs)


@dataclass(eq=False)
class CohomologySpace:
    """H1 presented as normalized derivations modulo inner ones."""

    algebra: BoundQuiverAlgebra
    bimodule: Bimodule
    layout: ArrowLayout
    derivations: Subspace
    inner: Subspace

    @property
    def dim(self) -> int:
        return self.derivations.dim - self.inner.dim

    def is_cocycle(self, vec) -> bool:
        return self.derivations.contains(vec)

    def same_class(self, u, v) -> bool:
        f = self.algebra.field
        diff = [f.sub(a, b) for a, b in zip(u, v)]
        return all(f.is_zero(c) for c in self.inner.reduce(diff))

    def representatives(self) -> list:
        """Derivations whose classes form a basis of H1."""
        f = self.algebra.field
        reps = []
        span = self.inner
        for b in self.derivations.basis:
            if not span.contains(list(b)):
                reps.append(list(b))
                span = span.sum(
                    Subspace.from_vectors(f, span.ambient_dim, [list(b)])
                )
        return reps


def h1(alg: BoundQuiverAlgebra, m: Bimodule) -> CohomologySpace:
    layout = arrow_layout(alg, m)
    der = derivation_space(alg, m)
    inn = inner_space(alg, m)
    for b in inn.basis:
        if not der.contains(list(b)):
            raise ValueError("an inner derivation failed the relation constraints")
    return CohomologySpace(alg, m, layout, der, inn)


def derivation_to_cochain(
    alg: BoundQuiverAlgebra, m: Bimodule, vec
) -> list:
    """Flat degree 1 bar cochain (basis index, M coordinate) of the
    derivation with the given arrow coordinates."""
    layout = arrow_layout(alg, m)
    f = m.field
    dvals = layout.embed(vec)
    out = [f.zero()] * (alg.dim * m.dim)
    for p_idx, p in enumerate(alg.basis):
        if p.length == 0:
            continue
        val = _path_value(layout, p.arrows, dvals)
        for t, c in enumerate(val):
            out[p_idx * m.dim + t] = c
    return out


# -- bar complex oracle -------------------------------------------------------


class HochschildCalculator:
    """Bar-complex machinery for one (algebra, bimodule) pair, with the
    degree 2 image echelon cached for coboundary tests."""

    def __init__(self, alg: BoundQuiverAlgebra, m: Bimodule):
        if m.acting is not alg:
            raise ValueError("bimodule is not over this algebra")
        self.alg = alg
        self.m = m
        self.field = alg.field
        self._fibers = None
        self._b2 = None
        self._b1_rank = None

    # fibers[p] = nonzero (g, h, coeff) with basis_g . basis_h hitting basis_p
    @property
    def prod_fibers(self):
        if self._fibers is None:
            f = self.field
            A = self.alg
            fibers = [[] for _ in range(A.dim)]
            for g in range(A.dim):
                row = A.mult_coords[g]
                for h in range(A.dim):
                    for p, c in enumerate(row[h]):
                        if not f.is_zero(c):
                            fibers[p].append((g, h, c))
            self._fibers = fibers
        return self._fibers

    def c1_key(self, a: int, t: int) -> int:
        return a * self.m.dim + t

    def c2_key(self, g: int, h: int, t: int) -> int:
        return (g * self.alg.dim + h) * self.m.dim + t

    def b1_column(self, i: int) -> dict:
        """b1 of the i-th M basis vector: a |-> a.x - x.a."""
        f = self.field
        m = self.m
        unit = m.zero_vec()
        unit[i] = f.one()
        col = {}
        for a in range(self.alg.dim):
            ax = m.left_act_basis(a, unit)
            xa = m.right_act_basis(a, unit)
            for t in range(m.dim):
                c = f.sub(ax[t], xa[t])
                if not f.is_zero(c):
                    col[self.c1_key(a, t)] = c
        return col

    def b2_apply(self, f1: dict) -> dict:
        """b2 of a sparse degree 1 cochain {(a, t) key: coeff}."""
        f = self.field
        m = self.m
        A = self.alg
        out = {}

        def add(key, c):
            nv = f.add(out.get(key, f.zero()), c)
            if f.is_zero(nv):
                out.pop(key, None)
            else:
                out[key] = nv

        for key, v in f1.items():
            a, t = divmod(key, m.dim)
            # c0 . f(c1) over c0 = g
            for g in range(A.dim):
                row = m.left_mats[g].entries[t]
                for t2, x in enumerate(row):
                    if not f.is_zero(x):
                        add(self.c2_key(g, a, t2), f.mul(v, x))
            # -f(c0 c1)
            for g, h, c in self.prod_fibers[a]:
                add(self.c2_key(g, h, t), f.neg(f.mul(v, c)))
            # f(c0) . c1 over c1 = h
            for h in range(A.dim):
                row = m.right_mats[h].entries[t]
                for t2, x in enumerate(row):
                    if not f.is_zero(x):
                        add(self.c2_key(a, h, t2), f.mul(v, x))
        return out

    def b3_apply(self, f2: dict) -> dict:
        """b3 of a sparse degree 2 cochain {(g, h, t) key: coeff}."""
        f = self.field
        m = self.m
        A = self.alg
        dm, da = m.dim, A.dim
        out = {}

        def add(key, c):
            nv = f.add(out.get(key, f.zero()), c)
            if f.is_zero(nv):
                out.pop(key, None)
            else:
                out[key] = nv

        def c3_key(k, g, h, t):
            return ((k * da + g) * da + h) * dm + t

        for key, v in f2.items():
            gh, t = divmod(key, dm)
            g, h = divmod(gh, da)
            # c0 . F(c1, c2)
            for k in range(da):
                row = m.left_mats[k].entries[t]
                for t2, x in enumerate(row):
                    if not f.is_zero(x):
                        add(c3_key(k, g, h, t2), f.mul(v, x))
            # -F(c0 c1, c2)
            for k, l, c in self.prod_fibers[g]:
                add(c3_key(k, l, h, t), f.neg(f.mul(v, c)))
            # +F(c0, c1 c2)
            for k, l, c in self.prod_fibers[h]:
                add(c3_key(g, k, l, t), f.mul(v, c))
            # -F(c0, c1) . c2
            for k in range(da):
                row = m.right_mats[k].entries[t]
                for t2, x in enumerate(row):
                    if not f.is_zero(x):
                        add(c3_key(g, h, k, t2), f.neg(f.mul(v, x)))
        return out

    def _build_b2(self):
        if self._b2 is None:
            ech = exactla.Echelon(self.field)
            f = self.field
            for a in range(self.alg.dim):
                for t in range(self.m.dim):
                    col = self.b2_apply({self.c1_key(a, t): f.one()})
                    ech.insert(col)
            self._b2 = ech
        return self._b2

    @property
    def b1_rank(self) -> int:
        if self._b1_rank is None:
            ech = exactla.Echelon(self.field)
            for i in range(self.m.dim):
                ech.insert(self.b1_column(i))
            self._b1_rank = ech.rank
        return self._b1_rank

    def bar_h(self, n: int) -> int:
        """dim H^n from the bar complex; n is 0 or 1."""
        if n == 0:
            return self.m.dim - self.b1_rank
        if n == 1:
            c1_dim = self.alg.dim * self.m.dim
            return (c1_dim - self._build_b2().rank) - self.b1_rank
        raise ValueError("bar_h supports degrees 0 and 1")

    def is_coboundary(self, f2: dict) -> bool:
        """Is this degree 2 cochain in the image of b2?"""
        return self._build_b2().contains(f2)

    def verify_complex(self) -> bool:
        """b2 b1 = 0 on every M basis vector, b3 b2 = 0 on every degree 1
        basis cochain; raises on any failure."""
        f = self.field
        for i in range(self.m.dim):
            if self.b2_apply(self.b1_column(i)):
                raise ValueError("b2 after b1 is nonzero on basis vector %d" % i)
        for a in range(self.alg.dim):
            for t in range(self.m.dim):
                col = self.b2_apply({self.c1_key(a, t): f.one()})
                if self.b3_apply(col):
                    raise ValueError(
                        "b3 after b2 is nonzero on cochain (%d, %d)" % (a, t)
                    )
        return True


def calculator(alg: BoundQuiverAlgebra, m: Bimodule) -> HochschildCalculator:
    """The bar-complex calculator of (alg, m), built once per bimodule."""
    calc = m._calculator
    if calc is None or calc.alg is not alg:
        calc = m._calculator = HochschildCalculator(alg, m)
    return calc


def bar_h(alg: BoundQuiverAlgebra, m: Bimodule, n: int) -> int:
    return calculator(alg, m).bar_h(n)


def is_coboundary(alg: BoundQuiverAlgebra, m: Bimodule, f2: dict) -> bool:
    return calculator(alg, m).is_coboundary(f2)


def verify_complex(alg: BoundQuiverAlgebra, m: Bimodule) -> bool:
    return calculator(alg, m).verify_complex()


# -- cup products (coefficients in the algebra, total degree <= 2) ------------


def unit_cochain(alg: BoundQuiverAlgebra):
    """The unit of A as a degree 0 cochain."""
    return list(alg.one().coords)


def cup00(alg: BoundQuiverAlgebra, x, y) -> list:
    return list(alg.multiply_coords(tuple(x), tuple(y)))


def cup01(alg: BoundQuiverAlgebra, x, f1) -> list:
    """(x cup f)(c) = x . f(c), a degree 1 cochain."""
    fld = alg.field
    d = alg.dim
    out = [fld.zero()] * (d * d)
    for c in range(d):
        seg = alg.multiply_coords(tuple(x), tuple(f1[c * d : (c + 1) * d]))
        for t, v in enumerate(seg):
            out[c * d + t] = v
    return out


def cup10(alg: BoundQuiverAlgebra, f1, x) -> list:
    """(f cup x)(c) = f(c) . x, a degree 1 cochain."""
    fld = alg.field
    d = alg.dim
    out = [fld.zero()] * (d * d)
    for c in range(d):
        seg = alg.multiply_coords(tuple(f1[c * d : (c + 1) * d]), tuple(x))
        for t, v in enumerate(seg):
            out[c * d + t] = v
    return out


def cup_product(alg: BoundQuiverAlgebra, f1, g1) -> dict:
    """(f cup g)(c0, c1) = f(c0) . g(c1) as a sparse degree 2 cochain, for
    two degree 1 cochains with coefficients in the algebra."""
    fld = alg.field
    d = alg.dim
    out = {}
    for c0 in range(d):
        fc0 = tuple(f1[c0 * d : (c0 + 1) * d])
        if all(fld.is_zero(c) for c in fc0):
            continue
        for c1 in range(d):
            gc1 = tuple(g1[c1 * d : (c1 + 1) * d])
            if all(fld.is_zero(c) for c in gc1):
                continue
            prod = alg.multiply_coords(fc0, gc1)
            for t, v in enumerate(prod):
                if not fld.is_zero(v):
                    out[(c0 * d + c1) * d + t] = v
    return out
