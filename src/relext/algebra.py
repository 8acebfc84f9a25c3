"""Finite-dimensional bound quiver algebras kQ/I.

The relation ideal is spanned length by length through the exact recurrence

    I_L = Q1 * I_{L-1}  +  I_{L-1} * Q1  +  { relations whose longest term has length L },

propagating only the spanning vectors that grew the rank (discarding a
redundant vector is safe because its arrow multiples lie in the span of the
retained vectors' multiples).  Every spanning vector enters an
exactla.Echelon keyed by paths, whose pivot is the largest path in (length,
arrow declaration order), so reduction rewrites long paths into shorter or
earlier ones.  Construction stops at the first length all of whose paths
reduce to zero; admissibility guarantees such a length exists, and a cap
guards non-admissible input.

For homogeneous relations (all terms of one relation the same length, the
only kind the bundled presentations use) the computed basis is provably the
set of reduction-irreducible paths.  Relations mixing term lengths are
accepted and go through the same filtration; the consistency checks run on
every build (declared relations vanish, reduction is multiplicative,
associativity, unit law) and raise AlgebraBuildError on any discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactla, qdsl
from .exactla import Field
from .quiver import Path, Quiver, compose, is_acyclic


class NotFiniteDimensionalError(ValueError):
    pass


class AlgebraBuildError(ValueError):
    pass


@dataclass
class AlgebraElement:
    algebra: "BoundQuiverAlgebra"
    coords: tuple

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        return AlgebraElement(
            self.algebra, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        f = self.algebra.field
        return AlgebraElement(
            self.algebra, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        f = self.algebra.field
        return AlgebraElement(self.algebra, tuple(f.mul(other, a) for a in self.coords))

    def __rmul__(self, scalar):
        f = self.algebra.field
        return AlgebraElement(self.algebra, tuple(f.mul(scalar, a) for a in self.coords))

    def __neg__(self):
        f = self.algebra.field
        return AlgebraElement(self.algebra, tuple(f.neg(a) for a in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def is_zero(self) -> bool:
        f = self.algebra.field
        return all(f.is_zero(c) for c in self.coords)

    def __repr__(self):
        A = self.algebra
        f = A.field
        parts = []
        for i, c in enumerate(self.coords):
            if f.is_zero(c):
                continue
            lbl = A.basis[i].label()
            parts.append(lbl if c == f.one() else "%s*%s" % (f.format(c), lbl))
        return " + ".join(parts) if parts else "0"


@dataclass(eq=False)
class BoundQuiverAlgebra:
    block: qdsl.AlgebraBlock
    quiver: Quiver
    field: Field
    basis: tuple  # of Path, deterministic order
    dim: int
    zero_length: int  # every path of length >= this is zero in the algebra
    basis_index: dict  # Path -> int
    mult_coords: list  # dim x dim lists of coordinate tuples
    idem_index: dict  # vertex -> basis index of its stationary path
    arrow_index_in_basis: dict  # arrow name -> basis index
    _nf_cache: dict
    _echelon: exactla.Echelon
    _center: exactla.Subspace | None = None  # set by center()
    _regular: "Bimodule | None" = None  # set by extensions.regular_bimodule_of
    _regular_h1: "CohomologySpace | None" = None  # set by extensions.regular_h1

    # -- elements ----------------------------------------------------------

    def zero(self) -> AlgebraElement:
        z = self.field.zero()
        return AlgebraElement(self, tuple(z for _ in range(self.dim)))

    def one(self) -> AlgebraElement:
        f = self.field
        coords = [f.zero()] * self.dim
        for v in self.quiver.vertices:
            coords[self.idem_index[v]] = f.one()
        return AlgebraElement(self, tuple(coords))

    def idempotent(self, vertex) -> AlgebraElement:
        f = self.field
        coords = [f.zero()] * self.dim
        coords[self.idem_index[vertex]] = f.one()
        return AlgebraElement(self, tuple(coords))

    def basis_element(self, i: int) -> AlgebraElement:
        f = self.field
        coords = [f.zero()] * self.dim
        coords[i] = f.one()
        return AlgebraElement(self, tuple(coords))

    # -- normal forms ------------------------------------------------------

    def nf_coords(self, path: Path) -> tuple:
        """Coordinates of a quiver path's class in the path basis."""
        f = self.field
        if path in self._nf_cache:
            return self._nf_cache[path]
        if path.length >= self.zero_length:
            out = tuple(f.zero() for _ in range(self.dim))
        else:
            red = self._echelon.reduce({path: f.one()})
            coords = [f.zero()] * self.dim
            for p, c in red.items():
                i = self.basis_index.get(p)
                if i is None:
                    raise AlgebraBuildError(
                        "reduction of %s leaves non-basis path %s"
                        % (path.label(), p.label())
                    )
                coords[i] = c
            out = tuple(coords)
        self._nf_cache[path] = out
        return out

    def product_coords(self, i: int, j: int) -> tuple:
        return self.mult_coords[i][j]

    def multiply_coords(self, a: tuple, b: tuple) -> tuple:
        f = self.field
        out = [f.zero()] * self.dim
        for i, ca in enumerate(a):
            if f.is_zero(ca):
                continue
            row = self.mult_coords[i]
            for j, cb in enumerate(b):
                if f.is_zero(cb):
                    continue
                cell = row[j]
                c = f.mul(ca, cb)
                for k, ck in enumerate(cell):
                    if not f.is_zero(ck):
                        out[k] = f.add(out[k], f.mul(c, ck))
        return tuple(out)

    def coords_of_vertex_pair(self, x, y) -> list:
        """Basis indices lying in e_x A e_y."""
        return [
            i for i, p in enumerate(self.basis) if p.source == x and p.target == y
        ]

    def __repr__(self):
        return "BoundQuiverAlgebra(%s, dim %d, %s)" % (
            self.block.name,
            self.dim,
            self.field.name,
        )


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.algebra is not b.algebra:
        raise ValueError("elements of different algebras")
    return AlgebraElement(a.algebra, a.algebra.multiply_coords(a.coords, b.coords))


def _relation_vector(q: Quiver, field: Field, rel: qdsl.RelationExpr) -> dict:
    vec = {}
    for t in rel.terms:
        p = Path.from_arrow_names(q, t.arrows)
        c = field.from_fraction(t.coeff)
        if p in vec:
            c = field.add(vec[p], c)
        vec[p] = c
    return {p: c for p, c in vec.items() if not field.is_zero(c)}


def build(
    block: qdsl.AlgebraBlock,
    field: Field | None = None,
    max_len_cap: int = 64,
) -> BoundQuiverAlgebra:
    """Construct the bound quiver algebra of a validated presentation block."""
    if max_len_cap < 2:
        raise ValueError("max_len_cap must be >= 2")
    f = field if field is not None else exactla.field_from_spec(block.field_spec)
    q = Quiver(block.vertices, block.arrows)

    rel_by_len = {}  # longest term length -> list of relation vectors
    for rel in block.relations:
        vec = _relation_vector(q, f, rel)
        if not vec:
            continue  # terms cancelled syntactically
        L = max(p.length for p in vec)
        rel_by_len.setdefault(L, []).append(vec)

    ech = exactla.Echelon(f)
    one = f.one()

    # alive[L]: length-L paths whose class is nonzero, in declaration order
    alive = {0: [Path.stationary(q, v) for v in q.vertices]}
    alive[1] = [Path(q, None, (i,)) for i in range(len(q.arrows))]

    frontier = []  # echelon rows inserted at the previous length
    zero_length = None
    for L in range(2, max_len_cap + 1):
        incoming = list(rel_by_len.get(L, ()))
        for z in frontier:
            for i in range(len(q.arrows)):
                arrow_path = Path(q, None, (i,))
                left = {}
                right = {}
                for p, c in z.items():
                    lp = compose(arrow_path, p)
                    if lp is not None:
                        left[lp] = c
                    rp = compose(p, arrow_path)
                    if rp is not None:
                        right[rp] = c
                if left:
                    incoming.append(left)
                if right:
                    incoming.append(right)
        frontier = []
        for vec in incoming:
            row = ech.insert(vec)
            if row is not None:
                frontier.append(row)
        nxt = []
        for p in alive[L - 1]:
            for i, a in enumerate(q.arrows):
                if a.source == p.target:
                    cand = Path(q, None, p.arrows + (i,))
                    if not ech.contains({cand: one}):
                        nxt.append(cand)
        nxt.sort(key=lambda p: p.arrows)
        alive[L] = nxt
        if not nxt:
            zero_length = L
            break
    if zero_length is None:
        raise NotFiniteDimensionalError(
            "algebra %r is not finite-dimensional within cap %d"
            % (block.name, max_len_cap)
        )

    # basis: reduction-irreducible paths below the vanishing length
    basis = []
    for L in range(zero_length):
        for p in alive.get(L, []):
            if p not in ech.rows:
                basis.append(p)
    basis.sort(key=lambda p: p.sort_key())
    basis = tuple(basis)
    dim = len(basis)
    basis_index = {p: i for i, p in enumerate(basis)}

    alg = BoundQuiverAlgebra(
        block=block,
        quiver=q,
        field=f,
        basis=basis,
        dim=dim,
        zero_length=zero_length,
        basis_index=basis_index,
        mult_coords=[],
        idem_index={},
        arrow_index_in_basis={},
        _nf_cache={},
        _echelon=ech,
    )
    for v in q.vertices:
        p = Path.stationary(q, v)
        if p not in basis_index:
            raise AlgebraBuildError("stationary path at %r was eliminated" % (v,))
        alg.idem_index[v] = basis_index[p]
    for i, a in enumerate(q.arrows):
        p = Path(q, None, (i,))
        if p not in basis_index:
            raise AlgebraBuildError(
                "arrow %r is zero in the algebra; ideal is not admissible" % (a.name,)
            )
        alg.arrow_index_in_basis[a.name] = basis_index[p]

    zero_row = tuple(f.zero() for _ in range(dim))
    mult = []
    for p in basis:
        row = []
        for r in basis:
            pq = compose(p, r)
            if pq is None or pq.length >= zero_length:
                row.append(zero_row)
            else:
                row.append(alg.nf_coords(pq))
        mult.append(row)
    alg.mult_coords = mult

    _verify_build(alg, block, alive)
    return alg


def _verify_build(alg: BoundQuiverAlgebra, block: qdsl.AlgebraBlock, alive):
    f = alg.field
    # declared relations vanish
    for rel in block.relations:
        acc = [f.zero()] * alg.dim
        for p, c in _relation_vector(alg.quiver, f, rel).items():
            coords = (
                alg.nf_coords(p)
                if p.length < alg.zero_length
                else tuple(f.zero() for _ in range(alg.dim))
            )
            for k, x in enumerate(coords):
                if not f.is_zero(x):
                    acc[k] = f.add(acc[k], f.mul(c, x))
        if any(not f.is_zero(x) for x in acc):
            raise AlgebraBuildError(
                "a declared relation of %r does not vanish" % alg.block.name
            )
    # reduction is multiplicative on classes of generated paths
    enumerated = [p for L in sorted(alive) if L < alg.zero_length for p in alive[L]]
    for p in enumerated:
        pc = alg.nf_coords(p)
        for r in enumerated:
            pq = compose(p, r)
            if pq is None:
                continue
            lhs = (
                alg.nf_coords(pq)
                if pq.length < alg.zero_length
                else tuple(f.zero() for _ in range(alg.dim))
            )
            rhs = alg.multiply_coords(pc, alg.nf_coords(r))
            if lhs != rhs:
                raise AlgebraBuildError(
                    "inconsistent reduction at %s * %s in %r"
                    % (p.label(), r.label(), alg.block.name)
                )
    # associativity on all basis triples, using table sparsity
    nonzero = [
        [
            [(k, c) for k, c in enumerate(alg.mult_coords[i][j]) if not f.is_zero(c)]
            for j in range(alg.dim)
        ]
        for i in range(alg.dim)
    ]
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = nonzero[i][j]
            for l in range(alg.dim):
                acc = {}
                for k, c in ij:
                    for m, d in nonzero[k][l]:
                        acc[m] = f.add(acc.get(m, f.zero()), f.mul(c, d))
                for k, c in nonzero[j][l]:
                    for m, d in nonzero[i][k]:
                        acc[m] = f.sub(acc.get(m, f.zero()), f.mul(c, d))
                if any(not f.is_zero(x) for x in acc.values()):
                    raise AlgebraBuildError(
                        "associativity fails on basis triple (%d,%d,%d)" % (i, j, l)
                    )
    # unit law
    e = alg.one()
    for i in range(alg.dim):
        b = alg.basis_element(i)
        if (e * b).coords != b.coords or (b * e).coords != b.coords:
            raise AlgebraBuildError("unit law fails at basis %d" % i)


def quotient_by_arrows(alg: BoundQuiverAlgebra, arrows) -> BoundQuiverAlgebra:
    """The bound quiver algebra with the listed arrows deleted.

    Relation terms containing a deleted arrow are dropped; relations left
    with no term disappear.  This presents the quotient of the original
    algebra by the two-sided ideal the deleted arrows generate, and the
    dimension identity dim(quotient) + dim(ideal) = dim(original) is
    checked on every call.
    """
    arrows = frozenset(arrows)
    block = alg.block
    unknown = arrows - {a[0] for a in block.arrows}
    if unknown:
        raise ValueError("not arrows of %r: %s" % (block.name, sorted(unknown)))
    if not arrows:
        return alg

    kept_arrows = tuple(a for a in block.arrows if a[0] not in arrows)
    kept_rels = []
    for rel in block.relations:
        kept = tuple(t for t in rel.terms if not any(n in arrows for n in t.arrows))
        if kept:
            kept_rels.append(qdsl.RelationExpr(kept, rel.source, rel.target))
    sub_block = qdsl.AlgebraBlock(
        name="%s_minus_%s" % (block.name, "_".join(sorted(arrows))),
        field_spec=block.field_spec,
        vertices=block.vertices,
        arrows=kept_arrows,
        relations=tuple(kept_rels),
        extension_of=None,
        new_arrows=(),
    )
    quot = build(sub_block, field=alg.field, max_len_cap=max(alg.zero_length, 2))

    ideal_dim = ideal_subspace(alg, arrows).dim
    if quot.dim + ideal_dim != alg.dim:
        raise AlgebraBuildError(
            "quotient dimension %d + ideal dimension %d != %d"
            % (quot.dim, ideal_dim, alg.dim)
        )
    return quot


def ideal_subspace(alg: BoundQuiverAlgebra, arrows) -> exactla.Subspace:
    """The two-sided ideal generated by the given arrows, as a subspace."""
    f = alg.field
    gens = [
        list(alg.basis_element(alg.arrow_index_in_basis[a]).coords) for a in arrows
    ]
    span = exactla.Subspace.from_vectors(f, alg.dim, gens)
    while True:
        extra = []
        for vec in span.basis:
            for i in range(alg.dim):
                left = alg.multiply_coords(alg.basis_element(i).coords, vec)
                if not span.contains(left):
                    extra.append(list(left))
                right = alg.multiply_coords(vec, alg.basis_element(i).coords)
                if not span.contains(right):
                    extra.append(list(right))
        if not extra:
            return span
        span = exactla.Subspace.from_vectors(
            f, alg.dim, [list(v) for v in span.basis] + extra
        )


def center(alg: BoundQuiverAlgebra) -> exactla.Subspace:
    """{z : zb = bz for all b}, the kernel of the stacked commutator maps;
    computed once per algebra.  It is also the degree 0 Hochschild
    cohomology of the regular bimodule."""
    if alg._center is None:
        f = alg.field
        rows = []
        for j in range(alg.dim):
            for k in range(alg.dim):
                rows.append(
                    [
                        f.sub(alg.mult_coords[i][j][k], alg.mult_coords[j][i][k])
                        for i in range(alg.dim)
                    ]
                )
        alg._center = exactla.kernel(exactla.Matrix.from_rows(f, rows))
    return alg._center


def is_triangular(alg: BoundQuiverAlgebra) -> bool:
    return is_acyclic(alg.quiver)
