"""Dense references for relext.exactla and its callers.

These are the dense operations the sparse subspace rows and image lists
replaced: Matrix arithmetic on the entries of an exactla.Matrix record,
Gauss-Jordan elimination with the leftmost pivot first, rank, kernel and
solve, and a Subspace over dense coordinate tuples.  The tests compare the
sparse engine, and the modules built on it, against them, and check with
stores_no_zero that its sparse tables and vectors hold no zero.
action_tables rebuilds a bimodule's two action tables from its accessor.

It also keeps the two commutant builders that hochschild.h0 replaced, each
with one block of rows per basis element of the acting algebra instead of
per vertex and arrow: center_reference on the structure constants and
h0_reference on the action tables, with commutator, the a.x_i - x_i.a
that Bimodule used to compute for them, and subspace_sum, the span of two
sparse Subspaces (Subspace.sum, which nothing in the package called).
"""

from __future__ import annotations

from dataclasses import dataclass

from relext import exactla
from relext.exactla import Matrix, Subspace


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    """The span of u and w, two Subspaces of one ambient space."""
    u._check_compatible(w)
    return Subspace.from_sparse(u.field, u.ambient_dim, u.rows + w.rows)


def stores_no_zero(field, table):
    """Every {i: {j: c}} of the table holds nonzero c and no empty row."""
    return all(
        row and all(not field.is_zero(c) for c in row.values())
        for row in table.values()
    )


def action_tables(m):
    """(left, right) of a bimodule m: per acting basis element a, the table
    {i: {j: c}} of the nonzero coordinates of a.x_i, or of x_i.a, i
    ascending, rebuilt from Bimodule.touched.  These are the tables a
    Bimodule stored before it read its actions off the ambient products."""
    return tuple(
        [dict(m.touched(side, a)) for a in range(m.acting.dim)] for side in (0, 1)
    )


# -- commutants, one block of rows per basis element ---------------------------


def center_reference(alg):
    """{z : zb = bz for all b}, one block of rows (z b_j - b_j z)_k per
    basis element b_j, on the structure constants."""
    f = alg.field
    rows = []
    for j in range(alg.dim):
        eqs = {}  # k -> {i: coefficient of z_i in (z b_j - b_j z)_k}
        for i, row in enumerate(alg.products):
            for k, c in row.get(j, {}).items():
                eq = eqs.setdefault(k, {})
                eq[i] = f.add(eq.get(i, f.zero()), c)
        for i, cell in alg.products[j].items():
            for k, c in cell.items():
                eq = eqs.setdefault(k, {})
                eq[i] = f.sub(eq.get(i, f.zero()), c)
        rows += [eq for eq in map(f.sparse, eqs.values()) if eq]
    return exactla.null_space(f, alg.dim, rows)


def commutator(m, a: int, i: int) -> dict:
    """a.x_i - x_i.a for the acting basis element a of the bimodule m,
    sparse."""
    f = m.field
    out = m.act(0, a, i)
    f.axpy(out, f.neg(f.one()), m.act(1, a, i))
    return out


def h0_reference(m):
    """{x in M : a.x = x.a for all a}, one block of rows per basis element
    a of the acting algebra, on the action tables."""
    f = m.field
    rows = []
    for a in range(m.acting.dim):
        eqs = {}  # coordinate j -> {i: coefficient of x_i in (a.x - x.a)_j}
        for i in range(m.dim):
            for j, c in commutator(m, a, i).items():
                eqs.setdefault(j, {})[i] = c
        rows += eqs.values()
    return exactla.null_space(f, m.dim, rows)


# -- matrix arithmetic ---------------------------------------------------------


def zero(field, rows: int, cols: int) -> Matrix:
    z = field.zero()
    return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])


def identity(field, n: int) -> Matrix:
    m = zero(field, n, n)
    for i in range(n):
        m.entries[i][i] = field.one()
    return m


def from_rows(field, rows) -> Matrix:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return Matrix(field, len(rows), ncols, rows)


def from_images(field, images, ncols: int) -> Matrix:
    """The matrix whose rows are the sparse images of a linear map."""
    return Matrix(field, len(images), ncols, [field.dense(img, ncols) for img in images])


def transpose(m: Matrix) -> Matrix:
    return Matrix(
        m.field,
        m.cols,
        m.rows,
        [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)],
    )


def mat_vec(m: Matrix, v: list) -> list:
    f = m.field
    if len(v) != m.cols:
        raise ValueError("length mismatch")
    out = []
    for row in m.entries:
        s = f.zero()
        for a, x in zip(row, v):
            if not f.is_zero(a) and not f.is_zero(x):
                s = f.add(s, f.mul(a, x))
        out.append(s)
    return out


def mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    f = a.field
    out = zero(f, a.rows, b.cols)
    for i in range(a.rows):
        for k in range(a.cols):
            x = a.entries[i][k]
            if f.is_zero(x):
                continue
            for j in range(b.cols):
                y = b.entries[k][j]
                if not f.is_zero(y):
                    out.entries[i][j] = f.add(out.entries[i][j], f.mul(x, y))
    return out


# -- Gauss-Jordan elimination, leftmost pivot first ----------------------------


def rref_in_place(field, rows) -> tuple:
    """Reduce rows to canonical RREF; returns (rank, pivot_columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if not field.is_zero(rows[i][c])), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][c])
        if not field.is_zero(field.sub(inv, field.one())):
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            factor = rows[i][c]
            if i == r or field.is_zero(factor):
                continue
            rowi = rows[i]
            for j in range(c, ncols):
                if not field.is_zero(prow[j]):
                    rowi[j] = field.sub(rowi[j], field.mul(factor, prow[j]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def rref(m: Matrix) -> tuple:
    work = [row[:] for row in m.entries]
    rank_, pivots = rref_in_place(m.field, work)
    return Matrix(m.field, m.rows, m.cols, work), rank_, pivots


def rank(m: Matrix) -> int:
    return rref(m)[1]


def span(field, vectors) -> tuple:
    """The canonical RREF basis of the span of dense vectors."""
    rows = [list(v) for v in vectors]
    rank_ = rref_in_place(field, rows)[0] if rows else 0
    return tuple(tuple(r) for r in rows[:rank_])


def kernel(m: Matrix) -> "DenseSubspace":
    """The right null space {x : m x = 0}."""
    f = m.field
    red, _, pivots = rref(m)
    vectors = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r_i, pc in enumerate(pivots):
            v[pc] = f.neg(red.entries[r_i][fc])
        vectors.append(v)
    return DenseSubspace(f, m.cols, span(f, vectors))


def solve(m: Matrix, rhs: list):
    """A solution of m x = rhs with the free variables 0, or None."""
    f = m.field
    work = [row[:] + [b] for row, b in zip(m.entries, rhs)]
    _, pivots = rref_in_place(f, work) if work else (0, [])
    if m.cols in pivots:
        return None
    sol = [f.zero()] * m.cols
    for r_i, pc in enumerate(pivots):
        sol[pc] = work[r_i][m.cols]
    return sol


# -- subspaces over dense coordinate tuples ------------------------------------


@dataclass(frozen=True)
class DenseSubspace:
    """A span held as its canonical RREF basis of dense tuples; equality is
    literal on that basis."""

    field: object
    ambient_dim: int
    basis: tuple

    @staticmethod
    def from_vectors(field, ambient_dim: int, vectors) -> "DenseSubspace":
        vectors = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length != ambient_dim")
        return DenseSubspace(field, ambient_dim, span(field, vectors))

    @staticmethod
    def of(space) -> "DenseSubspace":
        """The dense form of a sparse exactla.Subspace."""
        f, n = space.field, space.ambient_dim
        return DenseSubspace(f, n, tuple(tuple(f.dense(r, n)) for r in space.rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _eliminate(self, v: list) -> list:
        """Subtract v[lead] times each basis row from v in place, leads
        found by scanning the dense rows; returns those multiples."""
        f = self.field
        coeffs = [f.zero()] * self.dim
        for i, row in enumerate(self.basis):
            lead = next(j for j, x in enumerate(row) if not f.is_zero(x))
            c = v[lead]
            if f.is_zero(c):
                continue
            coeffs[i] = c
            for j in range(lead, self.ambient_dim):
                if not f.is_zero(row[j]):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return coeffs

    def reduce(self, v) -> list:
        v = list(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient_dim")
        self._eliminate(v)
        return v

    def contains(self, v) -> bool:
        return all(self.field.is_zero(x) for x in self.reduce(v))

    def coordinates_of(self, v):
        v = list(v)
        coeffs = self._eliminate(v)
        if any(not self.field.is_zero(x) for x in v):
            return None
        return coeffs

    def sum(self, other: "DenseSubspace") -> "DenseSubspace":
        return DenseSubspace.from_vectors(
            self.field, self.ambient_dim, list(self.basis) + list(other.basis)
        )

    def intersect(self, other: "DenseSubspace") -> "DenseSubspace":
        """The kernel of [basis(self) | -basis(other)] gives the coefficient
        pairs (lambda, mu) with lambda . self = mu . other."""
        f = self.field
        da, db = self.dim, other.dim
        if da == 0 or db == 0:
            return DenseSubspace(f, self.ambient_dim, ())
        ents = []
        for coord in range(self.ambient_dim):
            row = [self.basis[i][coord] for i in range(da)]
            row += [f.neg(other.basis[j][coord]) for j in range(db)]
            ents.append(row)
        vecs = []
        for kv in kernel(Matrix(f, self.ambient_dim, da + db, ents)).basis:
            v = [f.zero()] * self.ambient_dim
            for i in range(da):
                for coord in range(self.ambient_dim):
                    v[coord] = f.add(v[coord], f.mul(kv[i], self.basis[i][coord]))
            vecs.append(v)
        return DenseSubspace.from_vectors(f, self.ambient_dim, vecs)
