"""The two-pass versions of exactla.null_space and of hochschild's class
basis, as they were before each was read off one elimination.

null_space eliminates with each row's pivot at its smallest column, builds
the kernel vectors from the reduced rows and then runs a second echelon,
Subspace.from_sparse, on them.  TaggedClasses finds the representatives
and class coordinates of a CohomologySpace by one RREF of the dense
(dim inner + dim Der) x (n + dim inner + dim Der) matrix of the rows
[v_k | tag k], v the inner basis then the derivation basis.  The tests
compare exactla.null_space and CohomologySpace with these.
"""

from __future__ import annotations

from relext import exactla
from relext.exactla import Matrix, Subspace


def null_space(field, ncols: int, rows) -> Subspace:
    """Canonical basis of {x : row . x = 0} for sparse rows {column: x}."""
    reduced = exactla._column_echelon(field, rows).reduced_rows()
    pivots = {-max(row): row for row in reduced}
    vectors = {c: {c: field.one()} for c in range(ncols) if c not in pivots}
    for pc, row in pivots.items():
        # pivot row: x_pc + sum(row[-j] x_j over free j) = 0
        for k, x in row.items():
            if -k != pc:
                vectors[-k][pc] = field.neg(x)
    return Subspace.from_sparse(field, ncols, vectors.values())


class TaggedClasses:
    """Representatives and class coordinates of a CohomologySpace from one
    RREF of the rows [v_k | tag k], tag k in column n + m - 1 - k, for v the
    inner basis then the derivation basis (m vectors of length n).

    A row with a tag pivot is a relation among the v_k led by its largest
    k, so the tag pivots mark the v_k spanned by earlier ones.  The others,
    as (k, v_k), form w: the inner basis, then the representatives.  A row
    with a coordinate pivot p is [r | t] with r = sum t_k v_k and t zero off
    w; rows holds each as (p, r, t)."""

    def __init__(self, space):
        f = self.field = space.algebra.field
        self.inner_dim = space.inner.dim
        n = space.layout.total
        vecs = space.inner.rows + space.derivations.rows
        m = len(vecs)
        rows = [f.dense(v, n) + [f.zero()] * m for v in vecs]
        for k, row in enumerate(rows):
            row[n + m - 1 - k] = f.one()
        ech, _, pivots = exactla.rref(Matrix(f, m, n + m, rows))
        spanned = {n + m - 1 - p for p in pivots if p >= n}
        self.w = tuple((k, vecs[k]) for k in range(m) if k not in spanned)
        self.rows = []
        for row, p in zip(ech.entries, pivots):
            if p < n:
                t = {k: row[n + m - 1 - k] for k, _ in self.w}
                self.rows.append((p, f.sparse(row[:n]), f.sparse(t)))

    def representatives(self) -> list:
        return [v for _, v in self.w[self.inner_dim :]]

    def class_coordinates(self, vec: dict) -> dict:
        """{class index: x}; a vector v of the span of w is sum v[p] r over
        the rows (p, r, t), so its coordinates in w are sum v[p] t."""
        f = self.field
        vec = f.sparse(vec)
        res = dict(vec)
        coords = {}
        for p, r, t in self.rows:
            c = vec.get(p)
            if c is None:
                continue
            f.axpy(res, f.neg(c), r)
            f.axpy(coords, c, t)
        if res:
            raise ValueError("vector does not represent a class of this space")
        acc = {}
        for k, v in self.w:
            if k in coords:
                f.axpy(acc, coords[k], v)
        if acc != vec:
            raise ArithmeticError("class coordinates fail substitution")
        return {
            i: coords[k] for i, (k, _) in enumerate(self.w[self.inner_dim :]) if k in coords
        }
