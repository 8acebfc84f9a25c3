"""Exact linear algebra: echelon form, solving, kernels, subspace lattice."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relext import exactla
from relext.exactla import QQ, Matrix, PrimeField, Subspace, field_from_spec

scalars = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def rational_matrices(max_side=4):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(
        lambda rc: st.lists(
            st.lists(scalars, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(lambda rows: Matrix.from_rows(QQ, rows))
    )


def vectors(n):
    return st.lists(scalars, min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_rref_idempotent_and_rank_bound(m):
    red, rk, pivots = exactla.rref(m)
    again, rk2, pivots2 = exactla.rref(red)
    assert again == red and rk2 == rk and pivots2 == pivots
    assert 0 <= rk <= min(m.rows, m.cols)
    assert len(pivots) == rk


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_kernel_annihilates_and_rank_nullity(m):
    ker = exactla.kernel(m)
    assert ker.dim == m.cols - exactla.rank(m)
    for v in ker.basis:
        assert all(x == 0 for x in m.mat_vec(list(v)))


@settings(max_examples=40, deadline=None)
@given(rational_matrices().flatmap(lambda m: st.tuples(st.just(m), vectors(m.cols))))
def test_solve_reproduces_consistent_rhs(mx):
    m, x = mx
    rhs = m.mat_vec(x)
    sol = exactla.solve(m, rhs)
    assert sol is not None
    assert m.mat_vec(sol) == rhs


def test_solve_detects_inconsistency():
    m = Matrix.from_rows(QQ, [[Fraction(0)]])
    assert exactla.solve(m, [Fraction(1)]) is None
    m2 = Matrix.from_rows(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert exactla.solve(m2, [Fraction(0), Fraction(1)]) is None


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(vectors(n), min_size=0, max_size=3),
            st.lists(vectors(n), min_size=0, max_size=3),
            st.just(n),
        )
    )
)
def test_subspace_modular_dimension_law(uwn):
    us, ws, n = uwn
    u = Subspace.from_vectors(QQ, n, us)
    w = Subspace.from_vectors(QQ, n, ws)
    assert u.sum(w).dim + exactla.intersect(u, w).dim == u.dim + w.dim
    for v in us:
        assert u.contains(v)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(vectors(n), min_size=1, max_size=4).map(lambda vs: (n, vs))))
def test_subspace_coordinates_reconstruct(nvs):
    n, vs = nvs
    u = Subspace.from_vectors(QQ, n, vs)
    for v in vs:
        coords = u.coordinates_of(v)
        assert coords is not None
        rebuilt = [Fraction(0)] * n
        for c, b in zip(coords, u.basis):
            for i, x in enumerate(b):
                rebuilt[i] += c * x
        assert rebuilt == [Fraction(x) for x in v]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_prime_field_axioms(a, b, c):
    f = PrimeField(5)
    assert f.add(a, f.neg(a)) == f.zero()
    assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one()


def test_matrix_multiplication_associative():
    def mat(rows):
        return Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])

    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 1]])
    c = mat([[2], [5]])
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.transpose().transpose() == a


def test_field_from_spec():
    assert field_from_spec("Q") is QQ
    assert field_from_spec("F7").name == "F7"
    try:
        field_from_spec("R")
    except exactla.FieldError:
        pass
    else:
        raise AssertionError("expected FieldError")


# -- dense reference: Gauss-Jordan elimination, leftmost pivot first --------


def _reference_rref_in_place(field, rows):
    """Reduce rows to canonical RREF; returns (rank, pivot_columns).  This is
    the dense Gauss-Jordan elimination the sparse engine replaced."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        # find a pivot row at or below r
        sel = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        # normalize pivot to 1
        inv = field.inv(rows[r][c])
        if not field.is_zero(field.sub(inv, field.one())):
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        # eliminate everywhere else
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if field.is_zero(factor):
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


def _reference_rref(m):
    work = [row[:] for row in m.entries]
    rank, pivots = _reference_rref_in_place(m.field, work)
    return Matrix(m.field, m.rows, m.cols, work), rank, pivots


def _reference_span(field, n, vectors):
    rows = [list(v) for v in vectors]
    rank = _reference_rref_in_place(field, rows)[0] if rows else 0
    return tuple(tuple(r) for r in rows[:rank])


def _reference_kernel(m):
    f = m.field
    red, _, pivots = _reference_rref(m)
    vectors = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r_i, pc in enumerate(pivots):
            v[pc] = f.neg(red.entries[r_i][fc])
        vectors.append(v)
    return _reference_span(f, m.cols, vectors)


def _reference_solve(m, rhs):
    f = m.field
    work = [row[:] + [b] for row, b in zip(m.entries, rhs)]
    _, pivots = _reference_rref_in_place(f, work) if work else (0, [])
    if m.cols in pivots:
        return None
    sol = [f.zero()] * m.cols
    for r_i, pc in enumerate(pivots):
        sol[pc] = work[r_i][m.cols]
    return sol


F7 = PrimeField(7)


def field_matrices(max_side=5):
    """(field, matrix, rhs) over Q or F_7, biased towards rank deficiency."""
    q_entries = st.sampled_from([Fraction(0)] * 3 + [Fraction(x, d) for x in (-2, -1, 1, 3) for d in (1, 2)])
    p_entries = st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5, 6])

    def build(args):
        field, entries, rows, cols = args
        mat = st.lists(
            st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
        return st.tuples(
            st.just(field),
            mat.map(lambda r: Matrix(field, rows, cols, r)),
            st.lists(entries, min_size=rows, max_size=rows),
        )

    return st.tuples(
        st.sampled_from([(QQ, q_entries), (F7, p_entries)]),
        st.integers(0, max_side),
        st.integers(0, max_side),
    ).flatmap(lambda a: build((a[0][0], a[0][1], a[1], a[2])))


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_sparse_engine_matches_dense_reference(fmr):
    field, m, rhs = fmr
    assert exactla.rref(m) == _reference_rref(m)
    assert exactla.rank(m) == _reference_rref(m)[1]
    assert exactla.kernel(m).basis == _reference_kernel(m)
    assert exactla.solve(m, rhs) == _reference_solve(m, rhs)
    assert Subspace.from_vectors(field, m.cols, m.entries).basis == _reference_span(
        field, m.cols, m.entries
    )


def test_solve_raises_when_substitution_fails(monkeypatch):
    m = Matrix.from_rows(QQ, [[Fraction(1), Fraction(2)]])
    assert exactla.solve(m, [Fraction(3)]) == [Fraction(3), Fraction(0)]
    monkeypatch.setattr(Matrix, "mat_vec", lambda self, v: [Fraction(0)] * self.rows)
    with pytest.raises(ArithmeticError):
        exactla.solve(m, [Fraction(3)])


def test_echelon_normal_form_and_reduced_rows():
    q = Fraction
    ech = exactla.Echelon(QQ)
    assert ech.insert({3: q(2), 2: q(2)}) == {3: 1, 2: 1}
    # only the leading key is eliminated, so the row keeps key 2 until asked
    assert ech.insert({3: q(1), 1: q(1)}) == {2: 1, 1: -1}
    assert ech.insert({2: q(5), 1: q(-5)}) is None
    assert ech.rank == 2
    assert ech.contains({3: q(1), 1: q(1)})
    assert not ech.contains({1: q(1)})
    # the normal form holds no pivot key
    assert ech.reduce({3: q(1), 0: q(4)}) == {1: -1, 0: 4}
    assert ech.reduced_rows() == [{3: 1, 1: 1}, {2: 1, 1: -1}]
