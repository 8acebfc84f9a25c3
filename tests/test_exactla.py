"""Exact linear algebra: echelon form, solving, kernels, subspace lattice,
linear maps as image lists; the sparse engine against dense references."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import class_reference
import dense_reference as ref
from dense_reference import DenseSubspace
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
        ).map(lambda rows: ref.from_rows(QQ, rows))
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
    ker = exactla.null_space(QQ, m.cols, _sparse_rows(m))
    assert ker.dim == m.cols - exactla.rank(QQ, m.cols, _sparse_rows(m))
    for v in ker.rows:
        assert all(x == 0 for x in ref.mat_vec(m, QQ.dense(v, m.cols)))


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
    rhs = ref.mat_vec(m, x)
    sol = _solve_one(m, rhs)
    assert sol is not None
    assert ref.mat_vec(m, sol) == rhs


def test_solve_detects_inconsistency():
    m = ref.from_rows(QQ, [[Fraction(0)]])
    assert _solve_one(m, [Fraction(1)]) is None
    m2 = ref.from_rows(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert _solve_one(m2, [Fraction(0), Fraction(1)]) is None
    # an inconsistent side leaves the others alone
    sols = exactla.solve_rows(
        QQ, 2, _sparse_rows(m2), [{1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}, {}]
    )
    assert sols == [None, {0: Fraction(2)}, {}]


F7 = PrimeField(7)


def field_vectors(field, n):
    """Vectors of length n over Q or F_7, mostly zero so spans overlap."""
    if field is QQ:
        entries = st.sampled_from([Fraction(0)] * 3 + [Fraction(x, d) for x in (-2, -1, 1, 3) for d in (1, 2)])
    else:
        entries = st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5, 6])
    return st.lists(entries, min_size=n, max_size=n)


def spanning_sets(max_vectors=3):
    """(field, n, us, ws): two lists of vectors in field^n, Q or F_7."""
    return st.tuples(st.sampled_from([QQ, F7]), st.integers(1, 4)).flatmap(
        lambda fn: st.tuples(
            st.just(fn[0]),
            st.just(fn[1]),
            st.lists(field_vectors(*fn), max_size=max_vectors),
            st.lists(field_vectors(*fn), max_size=max_vectors),
        )
    )


def _span(field, n, vectors):
    return Subspace.from_sparse(field, n, [field.sparse(v) for v in vectors])


@settings(max_examples=60, deadline=None)
@given(spanning_sets())
def test_subspace_modular_dimension_law(case):
    """The Grassmann formula over Q and F_7."""
    f, n, us, ws = case
    u = _span(f, n, us)
    w = _span(f, n, ws)
    assert ref.subspace_sum(u, w).dim + u.intersect(w).dim == u.dim + w.dim
    for v in us:
        assert u.contains(f.sparse(v))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(vectors(n), min_size=1, max_size=4).map(lambda vs: (n, vs))))
def test_subspace_coordinates_reconstruct(nvs):
    n, vs = nvs
    u = _span(QQ, n, vs)
    for v in vs:
        coords = u.coordinates_of(QQ.sparse(v))
        assert coords is not None
        assert u.combination(coords) == QQ.sparse(v)
        rebuilt = [Fraction(0)] * n
        for i, c in coords.items():
            for j, x in u.rows[i].items():
                rebuilt[j] += c * x
        assert rebuilt == [Fraction(x) for x in v]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_prime_field_axioms(a, b, c):
    f = PrimeField(5)
    assert f.add(a, f.neg(a)) == f.zero()
    assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one()


def is_q_value(x) -> bool:
    """An int, or a Fraction that is not an integer: the values QQ makes."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


# Q values as the field makes them: ints and non-integral Fractions
q_values = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(
        lambda x: x.denominator != 1
    ),
)


@settings(max_examples=300, deadline=None)
@given(q_values, q_values, scalars)
def test_rational_field_matches_fraction_and_returns_ints_when_integral(a, b, fr):
    x, y = Fraction(a), Fraction(b)
    results = [
        (QQ.add(a, b), x + y),
        (QQ.sub(a, b), x - y),
        (QQ.mul(a, b), x * y),
        (QQ.neg(a), -x),
        (QQ.from_fraction(fr), fr),
        (QQ.from_fraction(a.numerator), Fraction(a.numerator)),
    ]
    if a != 0:
        results.append((QQ.inv(a), 1 / x))
    for got, want in results:
        assert got == want and is_q_value(got), (a, b, fr, got)
    assert is_q_value(QQ.zero()) and is_q_value(QQ.one())


def _from_fraction_by_copy(field, fr):
    """from_fraction through a new Fraction, for every argument type."""
    fr = Fraction(fr)
    if field is QQ:
        return fr.numerator if fr.denominator == 1 else fr
    if fr.denominator % field.p == 0:
        raise exactla.FieldError("denominator divisible by %d" % field.p)
    return (fr.numerator * pow(fr.denominator, -1, field.p)) % field.p


def _same(got, want):
    return got == want and type(got) is type(want)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([QQ, F7]),
    st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-6, max_value=6, max_denominator=21),
    ),
)
def test_field_fast_paths_match_the_copying_path(field, x):
    """from_fraction reads an int or a Fraction as it is, and QQ.inv
    returns +-1 without a Fraction: each gives the value and type of the
    path through a new Fraction, and F_p refuses a denominator that p
    divides on both."""
    for arg in (x, Fraction(x), int(x) if Fraction(x).denominator == 1 else str(x)):
        try:
            want = _from_fraction_by_copy(field, arg)
        except exactla.FieldError:
            with pytest.raises(exactla.FieldError, match="denominator divisible by 7"):
                field.from_fraction(arg)
            continue
        assert _same(field.from_fraction(arg), want), (field, arg)
    if field is QQ and x != 0:
        want = 1 / Fraction(x)
        assert _same(QQ.inv(x), want.numerator if want.denominator == 1 else want)
    assert _same(QQ.inv(1), 1) and _same(QQ.inv(-1), -1) and _same(QQ.inv(Fraction(-1)), -1)
    with pytest.raises(exactla.FieldError):
        F7.from_fraction(Fraction(3, 14))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([QQ, F7]).flatmap(
        lambda field: st.tuples(
            st.just(field),
            st.dictionaries(
                st.integers(0, 5),
                q_values if field is QQ else st.integers(-20, 20),
                max_size=6,
            ),
        )
    )
)
def test_echelon_insert_matches_the_per_entry_path(case):
    """insert drops the zero entries (7 and 14 too over F_7), keeps a row
    whose lead is already one as it is, and scales any other row by the
    inverse of its lead, with the values, types and key order of a
    per-entry is_zero filter and f.mul."""
    field, vec = case
    row = exactla.Echelon(field).insert(dict(vec))
    nonzero = {k: c for k, c in vec.items() if not field.is_zero(c)}
    if not nonzero:
        assert row is None
        return
    lead = nonzero[max(nonzero)]
    want = nonzero
    if not field.is_zero(field.sub(lead, field.one())):
        inv = field.inv(lead)
        want = {k: field.mul(inv, c) for k, c in nonzero.items()}
    assert list(row) == list(want)
    assert all(_same(row[k], want[k]) for k in want)


def _exact(field, x):
    """x as a Fraction (Q) or as its residue in range(p) (F_p)."""
    return Fraction(x) if field is QQ else x % field.p


@st.composite
def axpy_cases(draw):
    """(field, acc, c, vec, cancel): sparse acc, a scalar c and vec over Q
    or F_7, where acc[k] = -c vec[k] on the keys of cancel, so those
    entries must cancel; vec may hold zeros, which must leave acc alone."""
    field = draw(st.sampled_from([QQ, F7]))
    values = q_values if field is QQ else st.integers(0, 6)
    nonzero = values.filter(lambda x: _exact(field, x) != 0)
    keys = st.integers(0, 7)
    vec = draw(st.dictionaries(keys, values, max_size=6))
    c = draw(values)
    acc = draw(st.dictionaries(keys, nonzero, max_size=6))
    cancel = draw(st.sets(st.sampled_from(sorted(vec)))) if vec else set()
    for k in cancel:
        x = -_exact(field, c) * _exact(field, vec[k])
        y = (x.numerator if x.denominator == 1 else x) if field is QQ else x % field.p
        if _exact(field, y) == 0:
            acc.pop(k, None)
        else:
            acc[k] = y
    return field, acc, c, vec, {k for k in cancel if k in acc}


@settings(max_examples=300, deadline=None)
@given(axpy_cases())
def test_axpy_matches_elementwise_arithmetic(case):
    """Field.axpy is acc + c vec entry by entry, in Fraction or mod p
    arithmetic, keeps exactly the nonzero sums (the cancelled entries are
    dropped, no zero is added), leaves the keys outside vec alone, and over
    Q makes every integral value an int."""
    field, acc, c, vec, cancel = case
    want = {}
    for k in acc.keys() | vec.keys():
        x = _exact(field, acc.get(k, 0)) + _exact(field, c) * _exact(field, vec.get(k, 0))
        if _exact(field, x) != 0:
            want[k] = _exact(field, x)
    before = dict(acc)
    field.axpy(acc, c, vec)
    assert {k: _exact(field, x) for k, x in acc.items()} == want
    assert not cancel & acc.keys()
    assert all(acc[k] is before[k] for k in before.keys() - vec.keys())
    if field is QQ:
        assert all(is_q_value(x) for x in acc.values()), acc
    else:
        assert all(0 < x < field.p for x in acc.values()), acc


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, F7]).flatmap(
        lambda f: st.tuples(
            st.just(f),
            st.lists(q_values if f is QQ else st.integers(-14, 14), max_size=8),
        )
    )
)
def test_sparse_keeps_what_is_zero_rejects(case):
    """Field.sparse of a list or a dict keeps the entries the field's
    is_zero rejects, the values themselves, in order; over F_7 a multiple
    of 7 counts as zero."""
    field, dense = case
    want = {k: x for k, x in enumerate(dense) if _exact(field, x) != 0}
    assert field.sparse(dense) == want
    got = field.sparse(dict(enumerate(dense)))
    assert got == want and list(got) == list(want)
    assert all(got[k] is dense[k] for k in got)
    assert all(field.is_zero(x) != (k in want) for k, x in enumerate(dense))


def test_matrix_multiplication_associative():
    """The dense reference arithmetic, and compose on the same maps: the
    rows of a are the images of a map, so a . b is b after a."""

    def mat(rows):
        return ref.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])

    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 1]])
    c = mat([[2], [5]])
    assert ref.mul(ref.mul(a, b), c) == ref.mul(a, ref.mul(b, c))
    assert ref.transpose(ref.transpose(a)) == a
    ab = exactla.compose(QQ, _sparse_rows(b), _sparse_rows(a))
    assert ab == _sparse_rows(ref.mul(a, b))
    assert exactla.compose(QQ, _sparse_rows(c), ab) == _sparse_rows(ref.mul(ref.mul(a, b), c))


def test_field_from_spec():
    assert field_from_spec("Q") is QQ
    assert field_from_spec("F7").name == "F7"
    try:
        field_from_spec("R")
    except exactla.FieldError:
        pass
    else:
        raise AssertionError("expected FieldError")


def test_prime_field_accepts_a_large_prime_quickly():
    # trial division up to the square root would take minutes here
    p = 2**61 - 1
    start = time.perf_counter()
    assert field_from_spec("F%d" % p).p == p
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [0, 1, 561, 3215031751])
def test_prime_field_refuses_non_primes(n):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    with pytest.raises(exactla.FieldError, match="needs a prime"):
        PrimeField(n)


def test_prime_field_refuses_p_at_or_above_the_exact_bound():
    # the bound itself is a strong pseudoprime to every base of the test
    for p in (exactla._PRIME_BOUND, 2**89 - 1):
        with pytest.raises(exactla.FieldError, match="below %d" % exactla._PRIME_BOUND):
            PrimeField(p)


def test_primality_agrees_with_trial_division():
    for n in range(10**5):
        trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert exactla._is_prime(n) == trial, n


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
    rows = _sparse_rows(m)
    assert exactla.rref(m) == ref.rref(m)
    assert exactla.rank(field, m.cols, rows) == ref.rank(m)
    assert DenseSubspace.of(exactla.null_space(field, m.cols, rows)) == ref.kernel(m)
    assert _solve_one(m, rhs) == ref.solve(m, rhs)
    assert DenseSubspace.of(Subspace.from_sparse(field, m.cols, rows)) == (
        DenseSubspace.from_vectors(field, m.cols, m.entries)
    )


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_kernel_of_images_is_canonical_and_matches_dense_reference(fmr):
    """kernel of the map whose source basis goes to the matrix rows: its
    rows are canonical and map to 0, it has dimension len(images) - rank,
    and it is the dense right kernel of the transpose."""
    field, m, _ = fmr
    images = _sparse_rows(m)
    ker = exactla.kernel(field, m.cols, images)
    assert ker == Subspace.from_sparse(field, m.rows, ker.rows)
    assert all(not img for img in exactla.compose(field, images, ker.rows))
    assert ker.dim == len(images) - exactla.rank(field, m.cols, images)
    assert DenseSubspace.of(ker) == ref.kernel(ref.transpose(m))


def test_kernel_checks_each_image():
    """kernel checks its images as rank checks its rows: a dense list image
    is a TypeError, a coordinate that is negative or at least ncols a
    ValueError."""
    with pytest.raises(TypeError, match="sparse vector"):
        exactla.kernel(QQ, 2, [{0: 1}, [0, 1]])
    with pytest.raises(ValueError, match="outside range"):
        exactla.kernel(F7, 2, [{-1: 1}])
    with pytest.raises(ValueError, match="outside range"):
        exactla.kernel(QQ, 2, [{0: 1}, {2: 3}])
    assert exactla.kernel(QQ, 2, [{0: 1}, {0: 2}, {1: 1}]).rows == ({0: 1, 1: Fraction(-1, 2)},)
    assert exactla.kernel(QQ, 0, [{}, {}]).rows == ({0: 1}, {1: 1})
    assert exactla.kernel(F7, 3, []).rows == ()


@settings(max_examples=100, deadline=None)
@given(field_matrices().flatmap(
    lambda fmr: st.tuples(
        st.just(fmr),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.sampled_from([fmr[0].zero(), fmr[0].one(), fmr[0].from_fraction(3)]),
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
        rhs = ref.mat_vec(m, vec[: m.cols]) if image else vec[: m.rows]
        sides.append(field.sparse(rhs))
    rows = _sparse_rows(m)
    batch = exactla.solve_rows(field, m.cols, rows, sides)
    assert batch == [exactla.solve_rows(field, m.cols, rows, [rhs])[0] for rhs in sides]
    for rhs, sol in zip(sides, batch):
        want = ref.solve(m, field.dense(rhs, m.rows))
        assert (None if sol is None else field.dense(sol, m.cols)) == want
    for (image, _), sol in zip(picks, batch):
        assert sol is not None or not image


@settings(max_examples=150, deadline=None)
@given(field_matrices().flatmap(
    lambda fmr: st.lists(
        st.lists(
            st.sampled_from([fmr[0].zero()] * 3 + [fmr[0].one(), fmr[0].from_fraction(2), fmr[0].from_fraction(-1)]),
            min_size=fmr[1].cols,
            max_size=fmr[1].cols,
        ),
        max_size=4,
    ).map(lambda probes: (fmr[0], fmr[1], probes))
))
def test_subspace_reduce_matches_dense_reference(fmp):
    field, m, probes = fmp
    u = Subspace.from_sparse(field, m.cols, _sparse_rows(m))
    dense = DenseSubspace.from_vectors(field, m.cols, m.entries)
    # the spanning rows, sums of two of them, and the free probes
    vecs = list(m.entries) + probes
    vecs += [[field.add(a, b) for a, b in zip(x, y)] for x, y in zip(vecs, vecs[1:])]
    for v in vecs:
        residue = dense.reduce(v)
        coeffs = dense.coordinates_of(v)
        inside = all(field.is_zero(x) for x in residue)
        assert u.reduce(field.sparse(v)) == field.sparse(residue)
        assert u.contains(field.sparse(v)) == inside
        assert u.coordinates_of(field.sparse(v)) == (
            field.sparse(coeffs) if inside else None
        )
    for v in m.entries:
        assert u.contains(field.sparse(v))


def kernel_cases():
    """(field, ncols, rows) over Q or F_7, ncols = 0 allowed, with zero
    rows, repeated rows and sums of two rows mixed in."""
    return st.tuples(st.sampled_from([QQ, F7]), st.integers(0, 5)).flatmap(
        lambda fn: st.tuples(
            st.just(fn[0]),
            st.just(fn[1]),
            st.lists(field_vectors(*fn), max_size=5),
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(["zero", "repeat", "sum"])),
                max_size=3,
            ),
        )
    )


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_null_space_matches_two_pass_reference(case):
    """null_space, read off one elimination, equals the canonical basis the
    two-pass reference gets by a second echelon."""
    field, n, vecs, picks = case
    rows = [field.sparse(v) for v in vecs]
    for i, j, how in picks:
        if how == "zero" or not rows:
            rows.append({})
            continue
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        row = dict(a)
        if how == "sum":
            field.axpy(row, field.one(), b)
        rows.append(row)
    assert exactla.null_space(field, n, rows) == class_reference.null_space(field, n, rows)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exactla.null_space(QQ, 2, [{5: 1}]),
        lambda: exactla.null_space(QQ, 2, [{0: 1, 5: 1}]),
        lambda: exactla.null_space(F7, 2, [{-1: 1}]),
        lambda: exactla.solve_rows(QQ, 1, [{1: 1}], [{}]),
        lambda: exactla.solve_rows(F7, 2, [{0: 1}, {0: 1, 2: 3}], [{0: 1}]),
        lambda: exactla.solve_rows(QQ, 2, [{0: 1}, {1: 1}], [{-1: 5}]),
        lambda: exactla.solve_rows(QQ, 2, [{0: 1}], [{}, {3: 5}]),
    ],
    ids=["null-space-beyond", "null-space-one-beyond", "null-space-negative",
         "solve-beyond", "solve-second-row-beyond", "side-negative", "side-beyond"],
)
def test_rows_and_sides_outside_their_range_are_rejected(call):
    with pytest.raises(ValueError, match="outside range"):
        call()


@pytest.mark.parametrize("row", [[0, 1], ((0, 1),), None], ids=["list", "tuple", "none"])
def test_rows_and_sides_that_are_not_dicts_are_rejected(row):
    with pytest.raises(TypeError, match="sparse vector"):
        exactla.null_space(QQ, 2, [{0: 1}, row])
    with pytest.raises(TypeError, match="sparse vector"):
        exactla.solve_rows(QQ, 2, [{0: 1}, row], [{}])
    with pytest.raises(TypeError, match="sparse vector"):
        exactla.solve_rows(QQ, 2, [{0: 1}], [row])


def test_rank_checks_each_row():
    """rank checks its rows as null_space does: a column outside
    range(ncols), negative or too large, is a ValueError, and a dense list
    row a TypeError, where an unchecked rank returned 2 and raised
    AttributeError."""
    with pytest.raises(ValueError, match="outside range"):
        exactla.rank(QQ, 8, [{-3: 1}, {7: 2}])
    with pytest.raises(ValueError, match="outside range"):
        exactla.rank(F7, 7, [{0: 1}, {7: 2}])
    with pytest.raises(TypeError, match="sparse vector"):
        exactla.rank(QQ, 2, [{0: 1}, [0, 1]])
    assert exactla.rank(QQ, 8, [{3: 1}, {7: 2}]) == 2
    assert exactla.rank(QQ, 0, []) == 0


def test_rows_inside_the_columns_still_solve():
    assert exactla.null_space(QQ, 2, [{1: 1}]).rows == ({0: 1},)
    assert exactla.null_space(QQ, 2, [{0: 1, 1: -1}]).rows == ({0: 1, 1: 1},)
    assert exactla.null_space(QQ, 0, [{}]).rows == ()
    assert exactla.solve_rows(QQ, 2, [{1: 2}], [{0: 3}]) == [{1: Fraction(3, 2)}]


def test_solve_raises_when_substitution_fails(monkeypatch):
    m = ref.from_rows(QQ, [[Fraction(1), Fraction(2)]])
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
    assert ech.reduced_rows() == [{3: 1, 1: 1}, {2: 1, 1: -1}]


def test_subspace_rejects_coordinates_outside_the_ambient_space():
    f = QQ
    u = Subspace.from_sparse(f, 2, [{0: f.one(), 1: f.one()}])
    for v in ({2: f.one()}, {-1: f.one()}, {0: f.one(), 2: f.zero()}):
        for op in (u.contains, u.reduce, u.coordinates_of):
            with pytest.raises(ValueError, match="outside range"):
                op(v)
    with pytest.raises(ValueError, match="outside range"):
        Subspace.from_sparse(f, 2, [{2: f.one()}])
    # inside the range the answers stand
    assert u.coordinates_of({0: f.one(), 1: f.one()}) == {0: f.one()}
    assert u.reduce({0: f.one()}) == {1: -f.one()}
    assert u.reduce({1: f.one()}) == {1: f.one()}


@settings(max_examples=150, deadline=None)
@given(spanning_sets(max_vectors=4).flatmap(
    lambda c: st.tuples(st.just(c), st.lists(field_vectors(c[0], c[1]), max_size=4))
))
def test_sparse_subspaces_match_dense_reference(case):
    """Over Q and F_7: the sparse rows are the dense canonical basis, and
    reduce, contains, coordinates_of, sum, intersect and == agree with the
    dense Subspace."""
    (f, n, us, ws), probes = case
    u, w = _span(f, n, us), _span(f, n, ws)
    du = DenseSubspace.from_vectors(f, n, us)
    dw = DenseSubspace.from_vectors(f, n, ws)
    assert DenseSubspace.of(u) == du and DenseSubspace.of(w) == dw
    assert DenseSubspace.of(ref.subspace_sum(u, w)) == du.sum(dw)
    assert DenseSubspace.of(u.intersect(w)) == du.intersect(dw)
    assert (u == w) == (du == dw)
    assert u == _span(f, n, us[::-1])
    for v in us + ws + probes:
        sv = f.sparse(v)
        assert u.reduce(sv) == f.sparse(du.reduce(v))
        assert u.contains(sv) == du.contains(v)
        coords = du.coordinates_of(v)
        assert u.coordinates_of(sv) == (None if coords is None else f.sparse(coords))


def linear_maps():
    """(field, a, b, (p, q, r)): a: F^p -> F^q and b: F^r -> F^p as the
    dense images of their source bases, over Q or F_7."""
    return st.tuples(
        st.sampled_from([QQ, F7]), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
    ).flatmap(lambda c: st.tuples(
        st.just(c[0]),
        st.lists(field_vectors(c[0], c[2]), min_size=c[1], max_size=c[1]),
        st.lists(field_vectors(c[0], c[1]), min_size=c[3], max_size=c[3]),
        st.just(c[1:]),
    ))


@settings(max_examples=150, deadline=None)
@given(linear_maps())
def test_rank_and_compose_match_dense_reference(case):
    """rank of an image list is the rank of its dense matrix, and compose
    is the dense product in the row convention: b's rows times a."""
    f, a, b, (p, q, r) = case
    ma, mb = Matrix(f, p, q, a), Matrix(f, r, p, b)
    sa, sb = _sparse_rows(ma), _sparse_rows(mb)
    assert exactla.rank(f, q, sa) == ref.rank(ma)
    assert exactla.rank(f, p, sb) == ref.rank(mb)
    assert exactla.compose(f, sa, sb) == _sparse_rows(ref.mul(mb, ma))
