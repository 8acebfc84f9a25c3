"""Exact linear algebra over Q or a prime field F_p.

Scalars are plain values (for Q an int when integral, a fractions.Fraction
otherwise; small ints in [0, p) for F_p); a Field object supplies the
arithmetic.  Every rank, kernel, solve, span and normal-form question in the
package goes through one sparse elimination engine, Echelon, whose rows are
dicts keyed by any totally ordered keys: cochain indices in the bar complex,
columns in null_space, and negated columns behind solve_rows, rank,
Subspace.from_sparse and rref.  The entry points take sparse rows
{column: x}; null_space, solve_rows and rank raise TypeError on a row that
is not a dict and ValueError on a column outside range(ncols), and
solve_rows does the same for a right-hand side {row index: b}.  A Subspace
holds the canonical reduced basis of its span as sparse rows, so two spans
are equal iff their rows compare equal.

A linear map is the list of the images of its source basis, each a sparse
{coordinate: x}; rank and kernel take such a list with the target's
dimension, and compose chains two of them.
Matrix is a plain dense record, read and returned only by rref.
"""

from __future__ import annotations

from fractions import Fraction

from .quiver import Frozen


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

    def sparse(self, vec) -> dict:
        """The nonzero entries of a dense vector, or of a dict {key: scalar},
        as a dict."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        return {k: c for k, c in items if not self.is_zero(c)}

    def axpy(self, acc: dict, c, vec: dict):
        """acc += c * vec in place, for sparse vectors, dropping the entries
        of acc that cancel: the one kernel behind every elimination step,
        written by each field as a plain loop with no method call per
        entry."""
        raise NotImplementedError

    def dense(self, vec: dict, n: int) -> list:
        """The length-n list of a sparse vector {index: scalar}."""
        out = [self.zero()] * n
        for k, c in vec.items():
            out[k] = c
        return out

    def format(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


def _int_if_integral(x):
    """x as an int when its denominator is 1, else x itself."""
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    name = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def from_fraction(self, fr):
        if type(fr) is int:
            return fr
        return _int_if_integral(fr if isinstance(fr, Fraction) else Fraction(fr))

    def add(self, a, b):
        return _int_if_integral(a + b)

    def sub(self, a, b):
        return _int_if_integral(a - b)

    def mul(self, a, b):
        return _int_if_integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _int_if_integral(1 / Fraction(a))

    def is_zero(self, a):
        return a == 0

    def sparse(self, vec) -> dict:
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        return {k: c for k, c in items if c != 0}

    def axpy(self, acc: dict, c, vec: dict):
        get = acc.get
        for k, x in vec.items():
            y = get(k, 0) + c * x
            if y == 0:
                acc.pop(k, None)
            elif type(y) is int or y.denominator != 1:
                acc[k] = y
            else:
                acc[k] = y.numerator

    def format(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)


# Miller-Rabin on the first 13 prime bases is exact below _PRIME_BOUND
# (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    # b witnesses n composite unless b^d = 1 or some b^(d 2^r) = -1
    return all(
        pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
        for b in _PRIME_BASES
    )


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise FieldError("F_p needs p below %d, got %r" % (_PRIME_BOUND, p))
        if not _is_prime(p):
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
        if type(fr) is int:
            return fr % self.p
        if not isinstance(fr, Fraction):
            fr = Fraction(fr)
        if fr.denominator == 1:
            return fr.numerator % self.p
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

    def sparse(self, vec) -> dict:
        p = self.p
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        return {k: c for k, c in items if c % p != 0}

    def axpy(self, acc: dict, c, vec: dict):
        p = self.p
        get = acc.get
        for k, x in vec.items():
            y = (get(k, 0) + c * x) % p
            if y:
                acc[k] = y
            else:
                acc.pop(k, None)

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


class Matrix:
    """A dense row-major matrix: the record rref reads and returns.  Equal
    to a Matrix with equal fields, and unhashable."""

    def __init__(self, field: Field, rows: int, cols: int, entries: list):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.rows, self.cols, self.entries) == (
                other.field, other.rows, other.cols, other.entries
            )
        return NotImplemented

    __hash__ = None


class Echelon:
    """Incremental sparse echelon form over an exact field.

    A row is a dict {key: scalar} without zero entries; keys may be any
    totally ordered hashable values.  The pivot of a row is its largest key
    and carries coefficient 1, and no two rows share a pivot.  `insert` and
    `contains` eliminate only while the leading key is a pivot;
    `reduced_rows` back-substitutes once, into the canonical reduced form.
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
        f.axpy(vec, f.neg(vec[key]), row)

    def _reduce_lead(self, vec: dict) -> dict:
        vec = self.field.sparse(vec)
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
            scaled = {}
            f.axpy(scaled, f.inv(lead), vec)
            vec = scaled
        self.rows[top] = vec
        return vec

    def contains(self, vec: dict) -> bool:
        return not self._reduce_lead(vec)

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
    """Echelon of sparse rows {column: x} keyed by -column, so the pivot of a
    row is its leftmost nonzero entry."""
    ech = Echelon(field)
    for row in rows:
        ech.insert({-j: x for j, x in row.items()})
    return ech


def _dense(field: Field, row: dict, ncols: int) -> list:
    out = [field.zero()] * ncols
    for k, x in row.items():
        out[-k] = x
    return out


def rref(m: Matrix) -> tuple:
    """Canonical reduced row echelon form: (Matrix, rank, pivot_columns)."""
    f = m.field
    rows = _column_echelon(f, (dict(enumerate(row)) for row in m.entries)).reduced_rows()
    pivots = [-max(row) for row in rows]
    work = [_dense(f, row, m.cols) for row in rows]
    work += [[f.zero()] * m.cols for _ in range(m.rows - len(rows))]
    return Matrix(f, m.rows, m.cols, work), len(rows), pivots


def rank(field: Field, ncols: int, rows) -> int:
    """Rank of sparse rows {column: x} over range(ncols), such as the images
    of a linear map into a space of dimension ncols."""
    rows = list(rows)
    for row in rows:
        _check_coordinates(ncols, row)
    return _column_echelon(field, rows).rank


def compose(field: Field, outer: list, inner: list) -> list:
    """outer after inner, for linear maps given as the lists of the images
    of their source bases, each a sparse {coordinate: x}; the coordinates
    of inner's images index outer's list."""
    out = []
    for img in inner:
        acc = {}
        for k, c in img.items():
            field.axpy(acc, c, outer[k])
        out.append(acc)
    return out


def kernel(field: Field, ncols: int, images) -> "Subspace":
    """Canonical basis of {lam : sum lam_j images[j] = 0}, for a linear map
    given by the sparse images of its source basis in a space of dimension
    ncols, each image checked as rank checks its rows: the null space of
    the rows {j: entry t of images[j]}, one per target coordinate t."""
    images = list(images)
    eqs = {}  # target coordinate t -> {j: entry t of images[j]}
    for j, img in enumerate(images):
        _check_coordinates(ncols, img)
        for t, x in img.items():
            eqs.setdefault(t, {})[j] = x
    return null_space(field, len(images), eqs.values())


def null_space(field: Field, ncols: int, rows) -> "Subspace":
    """Canonical basis of {x : row . x = 0} for sparse rows {column: x},
    read off one elimination: a reduced row with pivot pc, its largest
    column, reads x_pc = -sum row[c] x_c over free columns c < pc.  So the
    vector of a free column c, {c: 1} plus -row[c] at each such pc, has its
    smallest coordinate c with coefficient 1 and no other free column: the
    vectors, c ascending, are the canonical rows of a Subspace."""
    ech = Echelon(field)
    for row in rows:
        _check_coordinates(ncols, row)
        ech.insert(row)
    ech.reduced_rows()
    vectors = {c: {c: field.one()} for c in range(ncols) if c not in ech.rows}
    for pc, row in ech.rows.items():
        for c, x in row.items():
            if c != pc:
                vectors[c][pc] = field.neg(x)
    return Subspace(field, ncols, tuple(vectors.values()))


def solve_rows(field: Field, ncols: int, rows: list, rhs_list) -> list:
    """Particular solutions (free variables 0) of row . x = rhs[r] for the
    sparse rows {column: x}, one per sparse right-hand side {row index: b}
    in rhs_list, each a sparse {column: x} or None when that side is
    inconsistent.  Side k is column ncols + k, keyed below every unknown,
    so one echelon serves every side: a row is zero on the unknowns iff its
    pivot is a side's column, and side k is consistent iff no such row has
    an entry in column ncols + k.  The canonical reduced form is unique, so
    each solution is the one its side would get alone."""
    for row in rows:
        _check_coordinates(ncols, row)
    aug = [dict(row) for row in rows]
    for k, rhs in enumerate(rhs_list):
        _check_coordinates(len(rows), rhs)
        for r, b in rhs.items():
            aug[r][ncols + k] = b
    sols = [{} for _ in rhs_list]
    for row in _column_echelon(field, aug).reduced_rows():
        for k, x in row.items():
            if -k >= ncols:
                sols[-k - ncols][-max(row)] = x
    # a side with an entry in a row that is zero on the unknowns is inconsistent
    sols = [None if any(c >= ncols for c in sol) else sol for sol in sols]
    _check_substitution(field, rows, rhs_list, sols)
    return sols


def _check_substitution(field: Field, rows, rhs_list, sols):
    """Raise unless every solution reproduces its side on every row."""
    by_column = {}  # column -> [(row index, x)]
    for r, row in enumerate(rows):
        for j, x in row.items():
            by_column.setdefault(j, []).append((r, x))
    for rhs, sol in zip(rhs_list, sols):
        if sol is None:
            continue
        images = {}
        for j, s in sol.items():
            for r, x in by_column.get(j, ()):
                images[r] = field.add(images.get(r, field.zero()), field.mul(x, s))
        if field.sparse(images) != field.sparse(rhs):
            raise ArithmeticError("solve: the solution fails substitution")


def _check_coordinates(ambient_dim: int, vec: dict):
    if not isinstance(vec, dict):
        raise TypeError(
            "expected a sparse vector {coordinate: x}, got %s" % type(vec).__name__
        )
    if vec and (min(vec) < 0 or max(vec) >= ambient_dim):
        raise ValueError("coordinate outside range(%d): %r" % (ambient_dim, sorted(vec)))


class Subspace(Frozen):
    """Subspace of field^ambient_dim, held as its canonical reduced basis:
    sparse rows {coordinate: x} in ascending order of their pivots, where
    the pivot of a row is its smallest coordinate, with coefficient 1, and
    no row has an entry on another row's pivot.  So the coefficient of a
    vector v on the row with pivot p is v[p], and v lies in the span iff
    v - sum v[p] row_p = 0.  Vectors are sparse {coordinate: x} too, and
    every entry point raises TypeError on anything else and ValueError on a
    coordinate outside range(ambient_dim).

    Equality of subspaces is literal equality of the stored rows.
    """

    def __init__(self, field: Field, ambient_dim: int, rows: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)  # canonical reduced rows, pivots ascending
        # pivot -> row index, not part of equality
        object.__setattr__(self, "_at", {min(row): i for i, row in enumerate(rows)})

    def _key(self) -> tuple:
        return (self.field, self.ambient_dim, self.rows)

    @staticmethod
    def from_sparse(field: Field, ambient_dim: int, vectors) -> "Subspace":
        """The span of sparse vectors {coordinate: x}."""
        vectors = list(vectors)
        for v in vectors:
            _check_coordinates(ambient_dim, v)
        rows = _column_echelon(field, vectors).reduced_rows()
        return Subspace(field, ambient_dim, tuple({-k: x for k, x in r.items()} for r in rows))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """Residue of v modulo this subspace, v - sum v[p] row_p; empty iff
        v lies in it."""
        _check_coordinates(self.ambient_dim, v)
        f = self.field
        res = f.sparse(v)
        # no row has an entry on another row's pivot, so res[p] stays v[p]
        for p, c in list(res.items()):
            i = self._at.get(p)
            if i is not None:
                f.axpy(res, f.neg(c), self.rows[i])
        return res

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def coordinates_of(self, v: dict) -> dict | None:
        """The coefficients {row index: x} of v on the rows, or None if v is
        outside."""
        if self.reduce(v):
            return None
        f = self.field
        return {self._at[p]: c for p, c in v.items() if p in self._at and not f.is_zero(c)}

    def combination(self, coords: dict) -> dict:
        """sum coords[i] rows[i], the vector with these coordinates."""
        f = self.field
        out = {}
        for i, c in coords.items():
            f.axpy(out, c, self.rows[i])
        return out

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_sparse(self.field, self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Canonical intersection: sum lam_i rows[i] lies in other iff
        sum lam_i (rows[i] mod other) = 0, so lam runs over the kernel of
        i |-> rows[i] mod other."""
        self._check_compatible(other)
        lams = kernel(self.field, self.ambient_dim, map(other.reduce, self.rows)).rows
        return Subspace.from_sparse(
            self.field, self.ambient_dim, [self.combination(lam) for lam in lams]
        )

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                "ambient dimension mismatch: %d vs %d"
                % (self.ambient_dim, other.ambient_dim)
            )
