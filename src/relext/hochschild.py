"""Hochschild cohomology in degrees 0 and 1 with bimodule coefficients.

Two independent computations back every number.  The primary one works in
arrow coordinates: a derivation vanishing on the stationary paths is
determined by its values d(a) in the bigraded slice e_src(a) . M . e_tgt(a),
subject to one linear constraint per declared relation; inner derivations
come from the diagonal part of M.  The oracle re-derives the same dimensions
from the bar complex reduced relative to E = kQ0, the span of the vertex
idempotents.  Its n-cochains are the E-bimodule maps from the n-th tensor
power of rad A over E to M: a value in e_v M e_w at each composable tuple
(c1, ..., cn) of radical basis paths, v the start of c1 and w the end of cn.
b acts on them by the bar formula

    (b f)(c0,...,cn) = c0 f(c1,...,cn) + sum_j (-1)^j f(..., c_{j-1} c_j, ...)
                       + (-1)^(n+1) f(c0,...,c_{n-1}) cn,    j = 1..n,

with every ci radical.  The idempotent terms of the full complex cancel in
pairs on such cochains (HochschildCalculator says how), and since E is
separable and A = E + rad A the relative complex computes the same
cohomology as the full one (Cibils, Tensor Hochschild homology and
cohomology, 2000; Happel, LNM 1404, 1989).  The oracle reads only structure
constants, A's and those of M's ambient algebra through M's index maps,
never the arrows or relations.

HochschildCalculator.coboundary applies b in degrees 0, 1 and 2 to sparse
cochains over the full complex's integer keys, and the image of the degree
1 cochains goes straight to an exactla.Echelon.  At the chain family's
k = 64 there are 255 degree 1 cochains where the full complex has 147,456.

Cup products are supported in total degree at most 2 with coefficients in
the algebra itself, on the same sparse cochains.  The cup product of two
normalized derivations is a relative 2-cochain, and membership in the
relative image of b2 decides whether it is a coboundary.
"""

from __future__ import annotations

import bisect

from . import exactla
from .algebra import BoundQuiverAlgebra
from .bimod import Bimodule
from .exactla import Matrix, Subspace


# -- arrow-coordinate layout ------------------------------------------------


class ArrowLayout:
    """Coordinates for derivation values: one bigraded block per arrow."""

    def __init__(self, blocks: list, offsets: list, total: int):
        self.blocks = blocks  # per arrow (declaration order): list of M basis indices
        self.offsets = offsets
        self.total = total


def arrow_layout(alg: BoundQuiverAlgebra, m: Bimodule) -> ArrowLayout:
    """The arrow-coordinate layout of m, scanned once per bimodule."""
    if m.acting is not alg:
        raise ValueError("bimodule is not over this algebra")
    if m._layout is None:
        slices = {}  # (source, target) -> M basis indices, ascending
        for i, grade in enumerate(zip(m.src, m.tgt)):
            slices.setdefault(grade, []).append(i)
        blocks = [list(slices.get((a.source, a.target), ())) for a in alg.quiver.arrows]
        offsets = []
        run = 0
        for block in blocks:
            offsets.append(run)
            run += len(block)
        m._layout = ArrowLayout(blocks, offsets, run)
    return m._layout


# -- degree 0 -----------------------------------------------------------------


def h0(m: Bimodule) -> Subspace:
    """{x in M : a.x = x.a for all a}, the kernel of x |-> ad(x).  Each e_v
    acts as the projection onto the paths at v, so x commutes with every
    e_v iff x lies on the diagonal (Bimodule.diagonal_indices), and then x
    commutes with everything iff ad(x) = 0 on every arrow: every other
    basis element is a path, a product a.q of an arrow and a shorter path,
    and if x commutes with a and with q then a.q.x = a.x.q = x.a.q, so by
    induction on length x commutes with every basis element.  So H0 is the
    kernel of the map sending the diagonal x_i to the ad(x_i) that h1
    keeps, mapped back to M in ascending order, so its canonical rows stay
    canonical."""
    ad = _inner_derivations(m.acting, m)
    diag = list(ad)
    ker = exactla.kernel(m.field, arrow_layout(m.acting, m).total, ad.values())
    return Subspace(m.field, m.dim, tuple({diag[c]: x for c, x in v.items()} for v in ker.rows))


# -- degree 1, arrow coordinates ----------------------------------------------


def derivation_space(alg: BoundQuiverAlgebra, m: Bimodule) -> Subspace:
    """Derivations d with d(e_v) = 0, in arrow coordinates: the kernel of
    the relation constraints sum_t c_t d(p_t) = 0.  By the Leibniz rule the
    unknown x_i of d(a_k) enters d(a_1...a_n) as a_1...a_(k-1).x_i.a_(k+1)...a_n,
    found by acting with the term's arrows one at a time, which M's being a
    bimodule allows: (ab).x = a.(b.x)."""
    layout = arrow_layout(alg, m)
    f = m.field
    one = f.one()
    q = alg.quiver
    rows = []
    for rel in alg.block.relations:
        # the constraint rows of this relation, one per M coordinate t
        acc = {}
        for term in rel.terms:
            c = f.from_fraction(term.coeff)
            arrows = [alg.arrow_index_in_basis[n] for n in term.arrows]
            for k_pos, name in enumerate(term.arrows):
                k = q.arrow_index[name]
                for u, i in enumerate(layout.blocks[k]):
                    # contribution of this single unknown along this term
                    val = {i: one}
                    for a in arrows[k_pos + 1 :]:
                        val = m.right_act({a: one}, val)
                    for a in reversed(arrows[:k_pos]):
                        val = m.left_act({a: one}, val)
                    col = layout.offsets[k] + u
                    for t, x in val.items():
                        eq = acc.setdefault(t, {})
                        eq[col] = f.add(eq.get(col, f.zero()), f.mul(c, x))
        rows += [eq for eq in map(f.sparse, acc.values()) if eq]
    return exactla.null_space(f, layout.total, rows)


def _inner_derivations(alg: BoundQuiverAlgebra, m: Bimodule) -> dict:
    """{i: ad(x_i)} over the diagonal x_i, i ascending: the sparse arrow
    coordinates of c |-> c.x_i - x_i.c, read arrow by arrow off the nonzero
    products a.x_i and x_i.a (Bimodule.touched), so a pair whose products
    both vanish costs nothing.  Built once per bimodule and kept on it, for
    h0 and h1 to share; callers read it and do not change it.  Raises
    ArithmeticError, an internal fault, when a difference, after
    cancellation, leaves the bigraded slice of its arrow: in a graded
    bimodule a.x_i and x_i.a both lie in that slice."""
    layout = arrow_layout(alg, m)
    if m._ad is not None:
        return m._ad
    f = m.field
    ad = {i: {} for i in m.diagonal_indices()}
    for k, a in enumerate(alg.quiver.arrows):
        ia = alg.arrow_index_in_basis[a.name]
        vals = {}  # i -> a.x_i - x_i.a in M coordinates
        for side, sign in ((0, f.one()), (1, f.neg(f.one()))):
            for i, img in m.touched(side, ia):
                if i in ad:
                    f.axpy(vals.setdefault(i, {}), sign, img)
        col = {t: layout.offsets[k] + u for u, t in enumerate(layout.blocks[k])}
        for i, val in vals.items():
            for t, c in val.items():
                if t not in col:
                    raise ArithmeticError("inner derivation leaves the arrow slice")
                ad[i][col[t]] = c
    m._ad = ad
    return ad


class CohomologySpace:
    """H1 presented as normalized derivations modulo inner ones."""

    def __init__(
        self,
        algebra: BoundQuiverAlgebra,
        bimodule: Bimodule,
        layout: ArrowLayout,
        derivations: Subspace,
        inner: Subspace,
        ad: dict,  # diagonal index i of the bimodule -> ad(x_i), spanning inner
    ):
        self.algebra = algebra
        self.bimodule = bimodule
        self.layout = layout
        self.derivations = derivations
        self.inner = inner
        self.ad = ad
        self._classes = None  # set by _class_basis

    @property
    def dim(self) -> int:
        return self.derivations.dim - self.inner.dim

    def _class_basis(self) -> tuple:
        """(reps, rows) from one RREF in derivation coordinates.  Der's rows
        are canonical, so a derivation v is sum v[p_k] der_k over their
        pivots p_k (h1 checks inner in Der).  The RREF is of the inner rows
        in these coordinates, der_k in column m - 1 - k: der_k lies in
        span(inner, der_0, ..., der_(k-1)) iff a vector of that row space
        has largest index k, iff k is a pivot.  reps are the other k,
        ascending; rows are the RREF rows (k, {j: x}) by pivot k, and there
        are dim inner of them, as the inner rows are independent."""
        if self._classes is None:
            f = self.algebra.field
            m = self.derivations.dim
            col = {min(row): m - 1 - k for k, row in enumerate(self.derivations.rows)}
            mat = [
                f.dense({col[p]: c for p, c in b.items() if p in col}, m)
                for b in self.inner.rows
            ]
            ech, rank, pivots = exactla.rref(Matrix(f, len(mat), m, mat))
            if rank != self.inner.dim:
                raise ArithmeticError("the inner basis is dependent in derivation coordinates")
            rows = tuple(
                (m - 1 - p, {m - 1 - j: x for j, x in f.sparse(row).items()})
                for row, p in zip(ech.entries, pivots)
            )
            spanned = {k for k, _ in rows}
            self._classes = (tuple(k for k in range(m) if k not in spanned), rows)
        return self._classes

    def representatives(self) -> list:
        """Derivations whose classes form a basis of H1, as sparse arrow
        coordinates."""
        return [self.derivations.rows[k] for k in self._class_basis()[0]]

    def class_coordinates(self, vec: dict) -> dict:
        """Coordinates {class index: x} of the class of a derivation, given
        by its sparse arrow coordinates, in the basis of classes of
        representatives(); raises ValueError when vec is no derivation.
        Its derivation coordinates, less the RREF rows (inner derivations)
        at their pivots, lie on the representatives only; they are checked
        by substitution, vec - sum x_i rep_i must be inner."""
        f = self.algebra.field
        reps, rows = self._class_basis()
        coords = self.derivations.coordinates_of(vec)
        if coords is None:
            raise ValueError("vector does not represent a class of this space")
        for k, row in rows:
            c = coords.get(k)
            if c is not None:
                f.axpy(coords, f.neg(c), row)
        out = {i: coords[k] for i, k in enumerate(reps) if k in coords}
        res = f.sparse(vec)
        for i, c in out.items():
            f.axpy(res, f.neg(c), self.derivations.rows[reps[i]])
        if not self.inner.contains(res):
            raise ArithmeticError("class coordinates fail substitution")
        return out


def h1(alg: BoundQuiverAlgebra, m: Bimodule) -> CohomologySpace:
    """H1(alg, m) in arrow coordinates.  The ad(x) that span the inner
    derivations are built once, off the nonzero products, and kept as
    `ad`; hochschild_projection checks its identity on them."""
    layout = arrow_layout(alg, m)
    der = derivation_space(alg, m)
    ad = _inner_derivations(alg, m)
    inn = Subspace.from_sparse(m.field, layout.total, ad.values())
    for b in inn.rows:
        if not der.contains(b):
            raise ArithmeticError("an inner derivation failed the relation constraints")
    return CohomologySpace(alg, m, layout, der, inn, ad)


def derivation_values(alg: BoundQuiverAlgebra, m: Bimodule, vec: dict) -> list:
    """d(b_p) as a sparse M vector for every basis element b_p of alg, for
    the derivation with the given sparse arrow coordinates; raises
    ValueError on a coordinate outside the layout.

    One pass over the basis, in order: a basis path of positive length is
    q.a for its last arrow a and a basis path q met earlier
    (BoundQuiverAlgebra.prefix_index), so by the Leibniz rule
    d(q.a) = d(q).a + q.d(a).  A term is skipped where its factor d(q) or
    d(a) is 0, so a derivation supported on a few arrows acts only along
    the paths through them."""
    layout = arrow_layout(alg, m)
    exactla._check_coordinates(layout.total, vec)
    # d(a) per arrow a, read off vec's own slots: the arrow of a slot is the
    # last one whose block starts at or before it
    offsets, blocks = layout.offsets, layout.blocks
    dvals = {}
    for t in sorted(vec):
        k = bisect.bisect_right(offsets, t) - 1
        dvals.setdefault(k, {})[blocks[k][t - offsets[k]]] = vec[t]
    f = m.field
    one = f.one()
    in_basis = [alg.arrow_index_in_basis[a.name] for a in alg.quiver.arrows]
    out = []
    for g, w in enumerate(alg.words):
        val = {}
        if w:
            k, qi = w[-1], alg.prefix_index(g)
            if out[qi]:
                val = m.right_act({in_basis[k]: one}, out[qi])
            if k in dvals:
                f.axpy(val, one, m.left_act({qi: one}, dvals[k]))
        out.append(val)
    return out


def derivation_to_cochain(alg: BoundQuiverAlgebra, m: Bimodule, vec: dict) -> dict:
    """The degree 1 bar cochain of the derivation with the given sparse
    arrow coordinates, sparse under the key p * dim M + t of (basis index p,
    M coordinate t)."""
    return {
        p * m.dim + t: c
        for p, val in enumerate(derivation_values(alg, m, vec))
        for t, c in val.items()
    }


# -- bar complex oracle -------------------------------------------------------


def _bigrades(field, dim: int, what: str, left: dict, right: dict) -> list:
    """(v, w) per basis element x of a space with e_v . x = x = x . e_w,
    read off left[v] and right[w], the sparse tables {i: {j: c}} of the
    vertex idempotents acting; raises unless, on each side, exactly one
    idempotent fixes x and the others kill it."""
    one = field.one()
    sides = []
    for side, tables in (("left", left), ("right", right)):
        grade = [[] for _ in range(dim)]
        for v, table in tables.items():
            for i, row in table.items():
                grade[i].append(v if row == {i: one} else None)
        for i, vs in enumerate(grade):
            if len(vs) != 1 or vs[0] is None:
                raise ValueError(
                    "basis element %d of %s is not homogeneous under the vertex "
                    "idempotents on the %s: %d of them act on it, %d as the identity"
                    % (i, what, side, len(vs), sum(v is not None for v in vs))
                )
        sides.append([vs[0] for vs in grade])
    return list(zip(*sides))


class HochschildCalculator:
    """The bar complex of (A, M) relative to E = kQ0, the span of the vertex
    idempotents, with the degree 2 image echelon cached for coboundary tests.

    Each basis element x of A or M has one bigrade (v, w), e_v . x = x = x . e_w,
    read off the idempotents' rows and columns of the structure constants
    of A and of M's ambient algebra (never off arrows, relations or m.src).
    An n-cochain is a sparse dict without zeros, under the full complex's key
    ((c1 * dim A + c2) * ... + cn) * dim M + t for its value in M coordinate t
    at (c1, ..., cn); it is relative when every ci is a radical basis element
    (not an idempotent), the ci compose (the right grade of each is the left
    grade of the next) and t lies in e_v M e_w for v the left grade of c1 and
    w the right grade of cn.  So the degree 0 cochains are M^E, the sum of
    the e_v M e_v, and the degree 1 ones are the keys c * dim M + t with t in
    the slice of the radical c: c0_keys and c1_keys list their basis keys.

    Extended by zero to idempotent arguments, a relative cochain f is
    E-balanced: f(..., c e_v, c', ...) = f(..., c, e_v c', ...), and
    e_v f(c1, ...) = f(e_v c1, ...) and f(..., cn) e_v = f(..., cn e_v).  So
    at a tuple (c0, ..., cn) of the full coboundary with ci = e_v, the terms
    cancel in pairs of opposite sign: c0 f(c1, ...) against -f(c0 c1, ...)
    when i = 0, the middle terms j = i and j = i + 1 when 0 < i < n, and the
    last middle term against the right action when i = n (a tuple with two
    idempotents gets no term at all).  The coboundary therefore skips every
    idempotent factor, in acts_at and in prod_fibers, and returns exactly
    the full coboundary's dict.  Since E is separable and A = E + rad A,
    including the relative complex into the full one is a
    quasi-isomorphism, so both compute the same cohomology, and a relative
    cochain is a full coboundary exactly when it is a relative one."""

    def __init__(self, alg: BoundQuiverAlgebra, m: Bimodule):
        if m.acting is not alg:
            raise ValueError("bimodule is not over this algebra")
        self.alg = alg
        self.m = m
        self.field = alg.field
        idems = alg.idem_index
        self._idem = set(idems.values())
        self._a_grades = _bigrades(
            alg.field,
            alg.dim,
            "algebra %s" % alg.block.name,
            {v: alg.products[i] for v, i in idems.items()},
            {v: alg.column(i) for v, i in idems.items()},
        )
        self._m_grades = _bigrades(
            alg.field,
            m.dim,
            "the bimodule",
            {v: dict(m.touched(0, i)) for v, i in idems.items()},
            {v: dict(m.touched(1, i)) for v, i in idems.items()},
        )
        slices = {}
        for t, grade in enumerate(self._m_grades):
            slices.setdefault(grade, []).append(t)
        self.c0_keys = [t for t, (v, w) in enumerate(self._m_grades) if v == w]
        self.c1_keys = [
            c * m.dim + t
            for c, grade in enumerate(self._a_grades)
            if c not in self._idem
            for t in slices.get(grade, ())
        ]
        self._fibers = None
        self._acts = None
        self._b2 = None
        self._b1_rank = None

    # fibers[p] = nonzero (g, h, coeff) with radical basis_g . basis_h hitting
    # basis_p; a pair with an idempotent factor is left out
    @property
    def prod_fibers(self):
        if self._fibers is None:
            idem = self._idem
            fibers = [[] for _ in range(self.alg.dim)]
            for g, row in enumerate(self.alg.products):
                if g in idem:
                    continue
                for h, cell in row.items():
                    if h in idem:
                        continue
                    for p, c in cell.items():
                        fibers[p].append((g, h, c))
            self._fibers = fibers
        return self._fibers

    # acts_at = (left_at, right_at): left_at[t] = nonzero (g, t2, x) with x the
    # t2-coordinate of basis_g . m_t for radical g, in g order, then the
    # order of the ambient product's coordinates
    @property
    def acts_at(self):
        if self._acts is None:

            def index(side):
                at = [[] for _ in range(self.m.dim)]
                for g in range(self.alg.dim):
                    if g in self._idem:
                        continue
                    for t, img in self.m.touched(side, g):
                        at[t] += ((g, t2, x) for t2, x in img.items())
                return at

            self._acts = (index(0), index(1))
        return self._acts

    def _why_not_relative(self, n: int, key: int):
        """None when this n-cochain key is relative (class docstring), else
        the reason it is not."""
        da, dm = self.alg.dim, self.m.dim
        if not 0 <= key < da**n * dm:
            return "it is out of range"
        args, t = divmod(key, dm)
        cs = []
        for _ in range(n):
            args, c = divmod(args, da)
            cs.append(c)
        cs.reverse()
        ga, gm = self._a_grades, self._m_grades
        for i, c in enumerate(cs):
            if c in self._idem:
                return "argument %d is the idempotent basis element %d" % (i + 1, c)
            if i and ga[cs[i - 1]][1] != ga[c][0]:
                return "arguments %d and %d do not compose" % (i, i + 1)
        v, w = (ga[cs[0]][0], ga[cs[-1]][1]) if n else (gm[t][0], gm[t][0])
        if gm[t] != (v, w):
            return "M coordinate %d lies outside e_%s M e_%s" % (t, v, w)
        return None

    def _check_relative(self, n: int, cochain: dict):
        """Raise ValueError naming the first key of this n-cochain that is
        not relative."""
        for key in cochain:
            why = self._why_not_relative(n, key)
            if why is not None:
                raise ValueError(
                    "degree %d cochain key %d is not relative to the vertex "
                    "idempotents: %s" % (n, key, why)
                )

    def coboundary(self, n: int, cochain: dict) -> dict:
        """The (n+1)-cochain b f of the module docstring, for a sparse
        relative n-cochain f; the oracle uses n = 0, 1 and 2.  Its j-th
        middle term splits the j-th argument of f over the radical products
        that hit it.  Raises ValueError on a key that is not relative."""
        self._check_relative(n, cochain)
        f = self.field
        left_at, right_at = self.acts_at
        da, dm = self.alg.dim, self.m.dim
        first = da**n  # key weight of c0 among the n + 1 arguments
        out = {}

        def add(key, c):
            nv = f.add(out.get(key, f.zero()), c)
            if f.is_zero(nv):
                out.pop(key, None)
            else:
                out[key] = nv

        for key, v in cochain.items():
            args, t = divmod(key, dm)
            # c0 . f(c1, ..., cn)
            for g, t2, x in left_at[t]:
                add((g * first + args) * dm + t2, f.mul(v, x))
            # (-1)^j f(..., c_{j-1} c_j, ...), argument j of f has weight low
            for j in range(1, n + 1):
                low = da ** (n - j)
                high, rest = divmod(args, low * da)
                c, tail = divmod(rest, low)
                sv = f.neg(v) if j % 2 else v
                for g, h, x in self.prod_fibers[c]:
                    add((((high * da + g) * da + h) * low + tail) * dm + t, f.mul(sv, x))
            # (-1)^(n+1) f(c0, ..., c_{n-1}) . cn
            sv = v if n % 2 else f.neg(v)
            for h, t2, x in right_at[t]:
                add((args * da + h) * dm + t2, f.mul(sv, x))
        return out

    def _build_b2(self):
        if self._b2 is None:
            ech = exactla.Echelon(self.field)
            one = self.field.one()
            for key in self.c1_keys:
                ech.insert(self.coboundary(1, {key: one}))
            self._b2 = ech
        return self._b2

    @property
    def b1_rank(self) -> int:
        """The rank of b on the degree 0 cochains M^E."""
        if self._b1_rank is None:
            ech = exactla.Echelon(self.field)
            one = self.field.one()
            for t in self.c0_keys:
                ech.insert(self.coboundary(0, {t: one}))
            self._b1_rank = ech.rank
        return self._b1_rank

    def bar_h(self, n: int) -> int:
        """dim H^n from the relative bar complex; n is 0 or 1."""
        if n == 0:
            return len(self.c0_keys) - self.b1_rank
        if n == 1:
            return (len(self.c1_keys) - self._build_b2().rank) - self.b1_rank
        raise ValueError("bar_h supports degrees 0 and 1")

    def is_coboundary(self, f2: dict) -> bool:
        """Is this relative degree 2 cochain in the image of b2?  Raises
        ValueError on a key that is not relative."""
        self._check_relative(2, f2)
        return self._build_b2().contains(f2)


def calculator(alg: BoundQuiverAlgebra, m: Bimodule) -> HochschildCalculator:
    """The bar-complex calculator of (alg, m), built once per bimodule."""
    calc = m._calculator
    if calc is None or calc.alg is not alg:
        calc = m._calculator = HochschildCalculator(alg, m)
    return calc


# -- cup products (coefficients in the algebra, total degree <= 2) ------------


def unit_cochain(alg: BoundQuiverAlgebra) -> dict:
    """The unit of A as a degree 0 cochain."""
    return {alg.idem_index[v]: alg.field.one() for v in alg.quiver.vertices}


def _values(cochain: dict, d: int) -> dict:
    """A degree 1 cochain with coefficients in A as {c: f(c)}, each f(c)
    sparse, for d = dim A."""
    out = {}
    for key, v in cochain.items():
        c, t = divmod(key, d)
        out.setdefault(c, {})[t] = v
    return out


def cup01(alg: BoundQuiverAlgebra, x: dict, f1: dict) -> dict:
    """(x cup f)(c) = x . f(c), a degree 1 cochain."""
    d = alg.dim
    return {
        c * d + t: v
        for c, fc in _values(f1, d).items()
        for t, v in alg.multiply_sparse(x, fc).items()
    }


def cup10(alg: BoundQuiverAlgebra, f1: dict, x: dict) -> dict:
    """(f cup x)(c) = f(c) . x, a degree 1 cochain."""
    d = alg.dim
    return {
        c * d + t: v
        for c, fc in _values(f1, d).items()
        for t, v in alg.multiply_sparse(fc, x).items()
    }


def cup_product(alg: BoundQuiverAlgebra, f1: dict, g1: dict) -> dict:
    """(f cup g)(c0, c1) = f(c0) . g(c1), a degree 2 cochain, for two
    degree 1 cochains with coefficients in the algebra."""
    d = alg.dim
    gv = _values(g1, d)
    return {
        (c0 * d + c1) * d + t: v
        for c0, fc0 in _values(f1, d).items()
        for c1, gc1 in gv.items()
        for t, v in alg.multiply_sparse(fc0, gc1).items()
    }
