"""Exact linear algebra over Q or a prime field F_p.

Scalars are plain values (fractions.Fraction for Q, small ints in [0, p) for
F_p); a Field object supplies the arithmetic.  Every rank, kernel, solve,
span and normal-form question in the package goes through one sparse
elimination engine, Echelon, whose rows are dicts keyed by any totally
ordered keys: paths in the algebra builder, cochain indices in the bar
complex, and negated column indices behind the dense Matrix entry points
here.  Those entry points return the canonical reduced row echelon form, so
two spans are equal iff their echelonized bases compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    pass


class Field:
    """Abstract exact field; concrete: RationalField, PrimeField."""

    name = "?"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, fr):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero()

    def format(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class RationalField(Field):
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, fr):
        return Fraction(fr)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def format(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)


class PrimeField(Field):
    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise FieldError("F_p needs a prime p, got %r" % (p,))
        self.p = p
        self.name = "F%d" % p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise FieldError("denominator divisible by %d" % self.p)
        return (fr.numerator * pow(fr.denominator, -1, self.p)) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def format(self, a) -> str:
        return "%d mod %d" % (a % self.p, self.p)


QQ = RationalField()


def field_from_spec(spec: str) -> Field:
    """Parse a field spec string: "Q" or "F<p>"."""
    if spec == "Q":
        return QQ
    if spec.startswith("F") and spec[1:].isdigit():
        return PrimeField(int(spec[1:]))
    raise FieldError("unknown field spec %r (expected Q or F<p>)" % (spec,))


@dataclass
class Matrix:
    """Dense row-major matrix over an exact field."""

    field: Field
    rows: int
    cols: int
    entries: list

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zero(field, n, n)
        for i in range(n):
            m.entries[i][i] = field.one()
        return m

    @staticmethod
    def from_rows(field: Field, rows: list) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return Matrix(field, len(rows), ncols, rows)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def mat_vec(self, v: list) -> list:
        f = self.field
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        out = []
        for row in self.entries:
            s = f.zero()
            for a, x in zip(row, v):
                if not f.is_zero(a) and not f.is_zero(x):
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        f = self.field
        out = Matrix.zero(f, self.rows, other.cols)
        for i in range(self.rows):
            row = self.entries[i]
            orow = out.entries[i]
            for k in range(self.cols):
                a = row[k]
                if f.is_zero(a):
                    continue
                brow = other.entries[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not f.is_zero(b):
                        orow[j] = f.add(orow[j], f.mul(a, b))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )


class Echelon:
    """Incremental sparse echelon form over an exact field.

    A row is a dict {key: scalar} without zero entries; keys may be any
    totally ordered hashable values.  The pivot of a row is its largest key
    and carries coefficient 1, and no two rows share a pivot.  `insert` and
    `contains` eliminate only while the leading key is a pivot; `reduce`
    eliminates every pivot key, which gives the unique normal form of a
    vector modulo the span; `reduced_rows` back-substitutes once, into the
    canonical reduced form.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows = {}  # pivot key -> row dict, pivot coefficient 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _subtract(self, vec: dict, key, row: dict):
        """vec -= vec[key] * row, dropping the entries that cancel."""
        f = self.field
        c = vec[key]
        for k, x in row.items():
            old = vec.get(k)
            nv = f.neg(f.mul(c, x)) if old is None else f.sub(old, f.mul(c, x))
            if f.is_zero(nv):
                del vec[k]
            else:
                vec[k] = nv

    def _reduce_lead(self, vec: dict) -> dict:
        f = self.field
        vec = {k: c for k, c in vec.items() if not f.is_zero(c)}
        rows = self.rows
        while vec:
            top = max(vec)
            row = rows.get(top)
            if row is None:
                break
            self._subtract(vec, top, row)
        return vec

    def insert(self, vec: dict):
        """Add vec to the span; returns the new row, or None when vec
        already lies in the span."""
        f = self.field
        vec = self._reduce_lead(vec)
        if not vec:
            return None
        top = max(vec)
        lead = vec[top]
        if not f.is_zero(f.sub(lead, f.one())):
            inv = f.inv(lead)
            vec = {k: f.mul(inv, c) for k, c in vec.items()}
        self.rows[top] = vec
        return vec

    def contains(self, vec: dict) -> bool:
        return not self._reduce_lead(vec)

    def reduce(self, vec: dict) -> dict:
        """Normal form of vec modulo the span: no key of it is a pivot."""
        f = self.field
        vec = {k: c for k, c in vec.items() if not f.is_zero(c)}
        rows = self.rows
        while True:
            hits = [k for k in vec if k in rows]
            if not hits:
                return vec
            top = max(hits)
            self._subtract(vec, top, rows[top])

    def reduced_rows(self) -> list:
        """The rows in canonical reduced form (no row holds another row's
        pivot), largest pivot first; the echelon keeps them as its rows."""
        done = {}
        for piv in sorted(self.rows):
            row = dict(self.rows[piv])
            # earlier rows are reduced and hold no pivot but their own
            for k in [k for k in row if k != piv and k in done]:
                self._subtract(row, k, done[k])
            done[piv] = row
        self.rows = done
        return [done[p] for p in sorted(done, reverse=True)]


def _column_echelon(field: Field, rows) -> Echelon:
    """Echelon of dense rows keyed by -column, so the pivot of a row is its
    leftmost nonzero entry."""
    ech = Echelon(field)
    for row in rows:
        ech.insert({-j: x for j, x in enumerate(row)})
    return ech


def _dense(field: Field, row: dict, ncols: int) -> list:
    out = [field.zero()] * ncols
    for k, x in row.items():
        out[-k] = x
    return out


def rref(m: Matrix) -> tuple:
    """Canonical reduced row echelon form: (Matrix, rank, pivot_columns)."""
    f = m.field
    rows = _column_echelon(f, m.entries).reduced_rows()
    pivots = [-max(row) for row in rows]
    work = [_dense(f, row, m.cols) for row in rows]
    work += [[f.zero()] * m.cols for _ in range(m.rows - len(rows))]
    return Matrix(f, m.rows, m.cols, work), len(rows), pivots


def rank(m: Matrix) -> int:
    return _column_echelon(m.field, m.entries).rank


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space; dim = cols - rank."""
    f = m.field
    red, rk, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for fc in free:
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r_i, pc in enumerate(pivots):
            # pivot row r_i: x_pc + sum(red[r_i][j] x_j over free j) = 0
            v[pc] = f.neg(red.entries[r_i][fc])
        vectors.append(v)
    return Subspace.from_vectors(f, m.cols, vectors)


def solve(m: Matrix, rhs: list) -> list | None:
    """A particular solution of m x = rhs (free variables 0), or None when
    the system is inconsistent."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length %d != rows %d" % (len(rhs), m.rows))
    f = m.field
    # the right-hand side is column m.cols, the smallest key
    ech = _column_echelon(f, [row + [b] for row, b in zip(m.entries, rhs)])
    if -m.cols in ech.rows:
        return None
    sol = [f.zero()] * m.cols
    for row in ech.reduced_rows():
        sol[-max(row)] = row.get(-m.cols, f.zero())
    if any(not f.is_zero(f.sub(a, b)) for a, b in zip(m.mat_vec(sol), rhs)):
        raise ArithmeticError("solve: the solution fails substitution")
    return sol


@dataclass(frozen=True)
class Subspace:
    """Subspace of field^ambient_dim with a canonical RREF basis.

    Equality of subspaces is literal equality of the stored bases.
    """

    field: Field
    ambient_dim: int
    basis: tuple  # tuple of coordinate tuples, RREF rows, no zero rows

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient_dim")
        rows = _column_echelon(field, rows).reduced_rows()
        return Subspace(
            field, ambient_dim, tuple(tuple(_dense(field, r, ambient_dim)) for r in rows)
        )

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace.from_vectors(
            field, ambient_dim, Matrix.identity(field, ambient_dim).entries
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: list) -> list:
        """Residue of v modulo this subspace (zero iff v is contained)."""
        f = self.field
        v = list(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient_dim")
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if not f.is_zero(x))
            c = v[lead]
            if f.is_zero(c):
                continue
            for j in range(lead, self.ambient_dim):
                if not f.is_zero(row[j]):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def contains(self, v) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(v))

    def coordinates_of(self, v) -> list | None:
        """Coefficients of v in the stored basis, or None if v is outside."""
        f = self.field
        v = list(v)
        coeffs = [f.zero()] * len(self.basis)
        for i, row in enumerate(self.basis):
            lead = next(j for j, x in enumerate(row) if not f.is_zero(x))
            c = v[lead]
            if f.is_zero(c):
                continue
            coeffs[i] = c
            for j in range(lead, self.ambient_dim):
                if not f.is_zero(row[j]):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        if any(not f.is_zero(x) for x in v):
            return None
        return coeffs

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(
            self.field, self.ambient_dim, list(self.basis) + list(other.basis)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Canonical intersection; dims satisfy the Grassmann formula."""
        self._check_compatible(other)
        f = self.field
        da, db = self.dim, other.dim
        if da == 0 or db == 0:
            return Subspace.zero(f, self.ambient_dim)
        # columns: [basis(self) | -basis(other)]; kernel rows give lambda|mu
        cols = da + db
        ents = []
        for coord in range(self.ambient_dim):
            row = [self.basis[i][coord] for i in range(da)]
            row += [f.neg(other.basis[j][coord]) for j in range(db)]
            ents.append(row)
        ker = kernel(Matrix(f, self.ambient_dim, cols, ents))
        vecs = []
        for kv in ker.basis:
            v = [f.zero()] * self.ambient_dim
            for i in range(da):
                c = kv[i]
                if f.is_zero(c):
                    continue
                for coord in range(self.ambient_dim):
                    v[coord] = f.add(v[coord], f.mul(c, self.basis[i][coord]))
            vecs.append(v)
        return Subspace.from_vectors(f, self.ambient_dim, vecs)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                "ambient dimension mismatch: %d vs %d"
                % (self.ambient_dim, other.ambient_dim)
            )


def intersect(a: Subspace, b: Subspace) -> Subspace:
    return a.intersect(b)

