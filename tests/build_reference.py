"""The enumeration builder that algebra.build replaced.

It spans the relation ideal length by length through the recurrence

    I_L = Q1 * I_{L-1}  +  I_{L-1} * Q1  +  { relations whose longest term has length L },

keeping every spanning vector that grew the rank as a row of an
exactla.Echelon keyed by paths, whose pivot is the largest path in (length,
arrow declaration order).  It stops at the first length all of whose paths
reduce to zero.  Every path through a relation is its own echelon row, so on
the relation extensions, with their cycles, the row count grows
exponentially with the size.  The tests compare the Groebner build with it:
the leading terms of an ideal depend only on the ideal and the order, so the
basis, the vanishing length and the structure constants must agree.

enumerate_paths, the listing of every path up to a length, is kept here
too; the package no longer enumerates paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from relext import exactla, qdsl
from relext.algebra import (
    AlgebraBuildError,
    BoundQuiverAlgebra,
    NotFiniteDimensionalError,
    _by_source,
    _relation_vector,
)
from relext.exactla import Field
from relext.quiver import Path, Quiver, compose


def normal_form(ech: exactla.Echelon, vec: dict) -> dict:
    """vec modulo the echelon's span: eliminate pivot keys, largest first,
    until none is left."""
    f = ech.field
    vec = {k: c for k, c in vec.items() if not f.is_zero(c)}
    while True:
        hits = [k for k in vec if k in ech.rows]
        if not hits:
            return vec
        top = max(hits)
        ech._subtract(vec, top, ech.rows[top])


@dataclass(eq=False)
class ReferenceAlgebra(BoundQuiverAlgebra):
    """A build whose normal forms reduce by the echelon of the ideal."""

    _echelon: exactla.Echelon | None = None

    def nf_coords(self, path: Path) -> dict:
        """Nonzero coordinates {k: c} of a quiver path's class in the path
        basis."""
        if path in self._nf_cache:
            return self._nf_cache[path]
        out = {}
        if path.length < self.zero_length:
            for p, c in normal_form(self._echelon, {path: self.field.one()}).items():
                i = self.basis_index.get(p)
                if i is None:
                    raise AlgebraBuildError(
                        "reduction of %s leaves non-basis path %s"
                        % (path.label(), p.label())
                    )
                out[i] = c
        self._nf_cache[path] = out
        return out


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

    alg = ReferenceAlgebra(
        block=block,
        quiver=q,
        field=f,
        basis=basis,
        dim=dim,
        zero_length=zero_length,
        basis_index=basis_index,
        products=[],
        idem_index={},
        arrow_index_in_basis={},
        _nf_cache={},
        _rules=None,
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

    # b_p b_r is zero unless r starts where p ends
    starts = _by_source(basis)
    for p in basis:
        row = {}
        for j in starts.get(p.target, ()):
            cell = alg.nf_coords(compose(p, basis[j]))
            if cell:
                row[j] = cell
        alg.products.append(row)

    all_pairs_certificate(alg, block, alive)
    return alg


def alive_paths(alg: BoundQuiverAlgebra) -> dict:
    """Length -> the paths grown by arrows from the previous length's whose
    class is nonzero, in declaration order, below the vanishing length."""
    q = alg.quiver
    alive = {0: [Path.stationary(q, v) for v in q.vertices]}
    for L in range(1, alg.zero_length):
        grown = [
            Path(q, None, p.arrows + (i,))
            for p in alive[L - 1]
            for i, a in enumerate(q.arrows)
            if a.source == p.target
        ]
        alive[L] = sorted((p for p in grown if alg.nf_coords(p)), key=lambda p: p.arrows)
    return alive


def all_pairs_certificate(alg: BoundQuiverAlgebra, block: qdsl.AlgebraBlock, alive):
    """Raise AlgebraBuildError unless the declared relations vanish, the
    structure constants are graded, reduction is multiplicative on the
    generated paths, and the basis is associative with the idempotents as
    unit.

    Graded: each nonzero b_i b_j has tgt(b_i) = src(b_j) and only
    coordinates k with src(b_k) = src(b_i), tgt(b_k) = tgt(b_j).  Given it,
    (b_i b_j) b_l and b_i (b_j b_l) both vanish when tgt(b_i) != src(b_j),
    so associativity is checked on composable pairs (i, j) only, as
    multiplicativity is on composable paths."""
    f = alg.field
    basis = alg.basis
    products = alg.products
    # declared relations vanish
    for rel in block.relations:
        acc = {}
        for p, c in _relation_vector(alg.quiver, f, rel).items():
            for k, x in alg.nf_coords(p).items():
                acc[k] = f.add(acc.get(k, f.zero()), f.mul(c, x))
        if f.sparse(acc):
            raise AlgebraBuildError(
                "a declared relation of %r does not vanish" % alg.block.name
            )
    # the structure constants are graded
    for i, row in enumerate(products):
        src, tgt = basis[i].source, basis[i].target
        for j, cell in row.items():
            for k in cell:
                if not (
                    tgt == basis[j].source
                    and basis[k].source == src
                    and basis[k].target == basis[j].target
                ):
                    raise AlgebraBuildError(
                        "structure constant (%d,%d,%d) of %r breaks the grading"
                        % (i, j, k, alg.block.name)
                    )
    # reduction is multiplicative on classes of generated paths
    enumerated = [p for L in sorted(alive) if L < alg.zero_length for p in alive[L]]
    starts = _by_source(enumerated)
    for p in enumerated:
        pc = alg.nf_coords(p)
        for s in starts.get(p.target, ()):
            r = enumerated[s]
            if alg.nf_coords(compose(p, r)) != alg.multiply_sparse(pc, alg.nf_coords(r)):
                raise AlgebraBuildError(
                    "inconsistent reduction at %s * %s in %r"
                    % (p.label(), r.label(), alg.block.name)
                )
    # associativity on composable basis pairs (i, j) and every l: acc[l]
    # holds (b_i b_j) b_l - b_i (b_j b_l), over the nonzero products only
    starts = _by_source(basis)
    for i in range(alg.dim):
        row_i = products[i]
        for j in starts.get(basis[i].target, ()):
            acc = {}
            for k, c in row_i.get(j, {}).items():
                for l, cell in products[k].items():
                    out = acc.setdefault(l, {})
                    for m, d in cell.items():
                        out[m] = f.add(out.get(m, f.zero()), f.mul(c, d))
            for l, cell in products[j].items():
                out = acc.setdefault(l, {})
                for k, c in cell.items():
                    for m, d in row_i.get(k, {}).items():
                        out[m] = f.sub(out.get(m, f.zero()), f.mul(c, d))
            bad = [l for l, out in acc.items() if f.sparse(out)]
            if bad:
                raise AlgebraBuildError(
                    "associativity fails on basis triple (%d,%d,%d)" % (i, j, min(bad))
                )
    # unit law
    one = {i: f.one() for i in alg.idem_index.values()}
    for i in range(alg.dim):
        b = {i: f.one()}
        if alg.multiply_sparse(one, b) != b or alg.multiply_sparse(b, one) != b:
            raise AlgebraBuildError("unit law fails at basis %d" % i)


def enumerate_paths(q: Quiver, max_len: int) -> list:
    """All paths of length <= max_len, ordered by (length, arrow indices).

    The listing is prefix closed: dropping the last arrow of any entry
    yields an earlier entry.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out = [Path.stationary(q, v) for v in q.vertices]
    frontier = out[:]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for i, a in enumerate(q.arrows):
                if a.source == p.target:
                    nxt.append(Path(q, None, p.arrows + (i,)))
        nxt.sort(key=lambda p: p.arrows)
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out
