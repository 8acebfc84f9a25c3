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
    _verify_build,
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

    _verify_build(alg, block, alive)
    return alg
