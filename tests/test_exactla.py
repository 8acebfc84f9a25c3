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


def _sparse_rows(m):
    return [m.field.sparse(row) for row in m.entries]


def _solve_one(m, rhs):
    """solve_rows for one dense right-hand side, its solution dense."""
    f = m.field
    (sol,) = exactla.solve_rows(f, m.cols, _sparse_rows(m), [f.sparse(rhs)])
    return None if sol is None else f.dense(sol, m.cols)


@settings(max_examples=40, deadline=None)
@given(rational_matrices().flatmap(lambda m: st.tuples(st.just(m), vectors(m.cols))))
def test_solve_reproduces_consistent_rhs(mx):
    m, x = mx
    rhs = m.mat_vec(x)
    sol = _solve_one(m, rhs)
    assert sol is not None
    assert m.mat_vec(sol) == rhs


def test_solve_detects_inconsistency():
    m = Matrix.from_rows(QQ, [[Fraction(0)]])
    assert _solve_one(m, [Fraction(1)]) is None
    m2 = Matrix.from_rows(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert _solve_one(m2, [Fraction(0), Fraction(1)]) is None
    # an inconsistent side leaves the others alone
    sols = exactla.solve_rows(
        QQ, 2, _sparse_rows(m2), [{1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}, {}]
    )
    assert sols == [None, {0: Fraction(2)}, {}]


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
    assert u.sum(w).dim + u.intersect(w).dim == u.dim + w.dim
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
    assert _solve_one(m, rhs) == _reference_solve(m, rhs)
    assert Subspace.from_vectors(field, m.cols, m.entries).basis == _reference_span(
        field, m.cols, m.entries
    )


@settings(max_examples=100, deadline=None)
@given(field_matrices().flatmap(
    lambda fmr: st.tuples(
        st.just(fmr),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.sampled_from([fmr[0].zero(), fmr[0].one(), fmr[0].from_int(3)]),
                    min_size=max(fmr[1].rows, fmr[1].cols),
                    max_size=max(fmr[1].rows, fmr[1].cols),
                ),
            ),
            max_size=5,
        ),
    )
))
def test_solve_rows_batch_matches_one_at_a_time(case):
    """Right-hand sides m x for random x, which are consistent, mixed with
    free ones, mostly inconsistent on rank deficient m: solving all of them
    from one echelon gives each the solution, or None, that solving it alone
    gives, and that the dense reference gives."""
    (field, m, _), picks = case
    sides = []
    for image, vec in picks:
        rhs = m.mat_vec(vec[: m.cols]) if image else vec[: m.rows]
        sides.append(field.sparse(rhs))
    rows = _sparse_rows(m)
    batch = exactla.solve_rows(field, m.cols, rows, sides)
    assert batch == [exactla.solve_rows(field, m.cols, rows, [rhs])[0] for rhs in sides]
    for rhs, sol in zip(sides, batch):
        want = _reference_solve(m, field.dense(rhs, m.rows))
        assert (None if sol is None else field.dense(sol, m.cols)) == want
    for (image, _), sol in zip(picks, batch):
        assert sol is not None or not image


def _reference_reduce(u, v):
    """Subspace.reduce before its pivot rows were cached: find each basis
    row's leading entry by scanning the dense row."""
    f = u.field
    v = list(v)
    coeffs = [f.zero()] * u.dim
    for i, row in enumerate(u.basis):
        lead = next(j for j, x in enumerate(row) if not f.is_zero(x))
        c = v[lead]
        if f.is_zero(c):
            continue
        coeffs[i] = c
        for j in range(lead, u.ambient_dim):
            if not f.is_zero(row[j]):
                v[j] = f.sub(v[j], f.mul(c, row[j]))
    return v, coeffs


@settings(max_examples=150, deadline=None)
@given(field_matrices().flatmap(
    lambda fmr: st.lists(
        st.lists(
            st.sampled_from([fmr[0].zero()] * 3 + [fmr[0].one(), fmr[0].from_int(2), fmr[0].from_int(-1)]),
            min_size=fmr[1].cols,
            max_size=fmr[1].cols,
        ),
        max_size=4,
    ).map(lambda probes: (fmr[0], fmr[1], probes))
))
def test_subspace_reduce_matches_dense_reference(fmp):
    field, m, probes = fmp
    u = Subspace.from_vectors(field, m.cols, m.entries)
    # the spanning rows, sums of two of them, and the free probes
    vecs = list(m.entries) + probes
    vecs += [[field.add(a, b) for a, b in zip(x, y)] for x, y in zip(vecs, vecs[1:])]
    for v in vecs:
        residue, coeffs = _reference_reduce(u, v)
        inside = all(field.is_zero(x) for x in residue)
        assert u.reduce(v) == residue
        assert u.contains(v) == inside
        assert u.coordinates_of(v) == (coeffs if inside else None)
    for v in m.entries:
        assert u.contains(v)


def test_solve_raises_when_substitution_fails(monkeypatch):
    m = Matrix.from_rows(QQ, [[Fraction(1), Fraction(2)]])
    assert _solve_one(m, [Fraction(3)]) == [Fraction(3), Fraction(0)]
    real = exactla.Echelon.reduced_rows

    def doubled(self):
        """the reduced rows with every right-hand side entry doubled"""
        return [{k: 2 * x if k <= -m.cols else x for k, x in row.items()} for row in real(self)]

    monkeypatch.setattr(exactla.Echelon, "reduced_rows", doubled)
    with pytest.raises(ArithmeticError):
        _solve_one(m, [Fraction(3)])


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
