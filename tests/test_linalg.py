import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkunneth.field import Field
from dgkunneth import linalg
from dgkunneth.linalg import (
    Matrix,
    hstack,
    kernel_basis,
    left_inverse,
    quotient,
    rank,
    rref,
    solve,
    vstack,
)

Q = Field.rationals()
F5 = Field.prime(5)
F101 = Field.prime(101)


def mat(field, rows):
    return Matrix.from_int_rows(field, rows, cols=len(rows[0]) if rows else 0)


def test_rref_identity():
    m = Matrix.identity(Q, 2)
    red, pivots, r = rref(m)
    assert red == m
    assert pivots == [0, 1]
    assert r == 2


def test_rref_zero():
    m = Matrix.zeros(F101, 3, 3)
    red, pivots, r = rref(m)
    assert red == m
    assert pivots == []
    assert r == 0


def test_rref_rank_one():
    # hand Gaussian elimination: [[1,2],[2,4]] -> [[1,2],[0,0]]
    m = mat(Q, [[1, 2], [2, 4]])
    red, pivots, r = rref(m)
    assert red == mat(Q, [[1, 2], [0, 0]])
    assert pivots == [0]
    assert r == 1


def test_rref_fraction_entries():
    m = Matrix(Q, 2, 2, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    red, pivots, r = rref(m)
    assert r == 1
    assert red.rows_at([0]) == Matrix(Q, 1, 2, [[Fraction(1), Fraction(2, 3)]])


def test_kernel_identity_empty():
    k = kernel_basis(Matrix.identity(F5, 3))
    assert k.rows == 0
    assert k.cols == 3


def test_kernel_zero_map():
    k = kernel_basis(Matrix.zeros(Q, 2, 3))
    assert k.rows == 3


def test_kernel_f5_line():
    # x + y = 0 mod 5: kernel is the line through (1, 4)
    k = kernel_basis(mat(F5, [[1, 1]]))
    assert k.rows == 1
    x, y = k.arr[0].tolist()
    assert (x + y) % 5 == 0
    assert (x, y) != (0, 0)
    # spans (1, 4): some scalar multiple matches
    assert any((c * 1 % 5, c * 4 % 5) == (x, y) for c in range(1, 5))


def test_solve_and_left_inverse():
    m = mat(Q, [[1, 2], [3, 4], [5, 6]])
    rhs = mat(Q, [[1], [1], [1]])
    x = solve(m, rhs)
    assert x is not None
    assert m @ x == rhs
    li = left_inverse(m)
    assert li @ m == Matrix.identity(Q, 2)
    bad = solve(mat(Q, [[1, 0], [0, 0]]), mat(Q, [[0], [1]]))
    assert bad is None


def test_quotient_no_relations():
    qs = quotient(Q, 3, Matrix.zeros(Q, 0, 3))
    assert qs.dim == 3
    assert qs.projection == Matrix.identity(Q, 3)


def test_quotient_everything():
    qs = quotient(F5, 2, Matrix.identity(F5, 2))
    assert qs.dim == 0


def test_quotient_diagonal_line():
    # ambient 2, relation (1, -1): images of e1 and e2 agree
    qs = quotient(Q, 2, mat(Q, [[1, -1]]))
    assert qs.dim == 1
    assert qs.projection.columns([0]) == qs.projection.columns([1])
    assert (qs.projection @ qs.section) == Matrix.identity(Q, 1)


def test_matmul_kron_consistency():
    a = mat(F101, [[1, 2], [3, 4]])
    b = mat(F101, [[0, 1], [1, 0]])
    assert a @ b == mat(F101, [[2, 1], [4, 3]])
    k = a.kron(b)
    assert k.rows == 4 and k.cols == 4
    # (a kron b)(x kron y) = ax kron by
    x, y = mat(F101, [[1], [5]]), mat(F101, [[2], [7]])
    assert x.kron(y) == mat(F101, [[2], [7], [10], [35]])
    assert k @ x.kron(y) == (a @ x).kron(b @ y)


def test_stack_helpers():
    a = mat(Q, [[1], [2]])
    b = mat(Q, [[3], [4]])
    assert hstack([a, b]) == mat(Q, [[1, 3], [2, 4]])
    assert vstack([a, b]) == mat(Q, [[1], [2], [3], [4]])


def test_constructor_checks_the_row_count_of_empty_data():
    for f in (F101, Q):
        assert Matrix(f, 0, 5, []).arr.shape == (0, 5)
        assert Matrix(f, 3, 0, [[], [], []]).arr.shape == (3, 0)
        for rows, cols, data in ((3, 0, []), (0, 5, [[]]), (2, 0, [[]]), (3, 5, [])):
            with pytest.raises(ValueError):
                Matrix(f, rows, cols, data)


def test_zeros_and_identity_are_shared_read_only():
    for f in (F101, Q, Field.prime(2 ** 61 - 1)):
        for rows, cols in ((0, 3), (3, 0), (2, 3), (4, 4)):
            z = Matrix.zeros(f, rows, cols)
            assert z is Matrix.zeros(f, rows, cols)
            assert z == Matrix(f, rows, cols, [[f.zero] * cols for _ in range(rows)])
        for n in (0, 1, 3):
            e = Matrix.identity(f, n)
            assert e is Matrix.identity(f, n)
            assert e == Matrix(f, n, n, [[f.one if i == j else f.zero for j in range(n)]
                                         for i in range(n)])
        for shared in (Matrix.zeros(f, 2, 3), Matrix.identity(f, 3)):
            with pytest.raises(ValueError):
                shared.arr[0, 0] = f.one


def test_zeros_and_identity_live_on_their_field_object():
    # an equal field built later gets matrices over itself, not over the
    # first one, and the kernel memo holds none of them
    f, g = Field.prime(101), Field.prime(101)
    zf, ef = Matrix.zeros(f, 2, 3), Matrix.identity(f, 3)
    zg, eg = Matrix.zeros(g, 2, 3), Matrix.identity(g, 3)
    assert (zf.field, ef.field, zg.field, eg.field) == (f, f, g, g)
    assert zg.field is g and eg.field is g and zg is not zf and eg is not ef
    assert zg == zf and eg == ef and not g.memo
    # at most _SHARED_CAP shapes per field, the oldest out first
    for n in range(linalg._SHARED_CAP + 5):
        Matrix.zeros(g, 0, n)
    assert len(g.shared) == linalg._SHARED_CAP and (2, 3) not in g.shared
    assert Matrix.identity(g, 3) is not eg


def test_only_small_zeros_and_identities_are_kept():
    # a matrix over the gate is built, equal and read-only, but not stored
    f = Field.prime(101)
    side = math.isqrt(linalg._SHARED_GATE)
    small, large = Matrix.identity(f, side), Matrix.identity(f, side + 1)
    assert small is Matrix.identity(f, side) and side in f.shared
    assert large is not Matrix.identity(f, side + 1) and side + 1 not in f.shared
    assert large == Matrix(f, side + 1, side + 1,
                           [[int(i == j) for j in range(side + 1)] for i in range(side + 1)])
    zero = Matrix.zeros(f, 1, linalg._SHARED_GATE + 1)
    assert zero.is_zero() and not zero.arr.flags.writeable
    assert (1, linalg._SHARED_GATE + 1) not in f.shared
    assert Matrix.zeros(f, 1, linalg._SHARED_GATE) is Matrix.zeros(f, 1, linalg._SHARED_GATE)


def test_equality_and_hash_read_entries_not_layout():
    # int64 matrices compare and hash their bytes in row order, so a
    # transposed view equals a fresh copy of it; the shape tells apart
    # matrices with the same entries in order
    for f in (F101, Q, Field.prime(2 ** 61 - 1)):
        a = mat(f, [[1, 2, 3], [4, 5, 6]])
        t = a.transpose()
        fresh = mat(f, [[1, 4], [2, 5], [3, 6]])
        assert not t.arr.flags.c_contiguous
        assert t == fresh and hash(t) == hash(fresh)
        assert a != mat(f, [[1, 2], [3, 4], [5, 6]])
        assert a != mat(f, [[1, 2, 3], [4, 5, 7]])
        assert a != mat(Field.prime(103), [[1, 2, 3], [4, 5, 6]])
        assert a.arr.dtype == f.dtype


@st.composite
def small_matrix(draw, field):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    if field.p:
        elems = st.integers(0, field.p - 1)
    else:
        elems = st.integers(-4, 4).map(field.of_int)
    data = draw(st.lists(st.lists(elems, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix(field, rows, cols, data)


@settings(max_examples=60, deadline=None)
@given(small_matrix(F101))
def test_rref_idempotent_fp(m):
    red, pivots, r = rref(m)
    red2, pivots2, r2 = rref(red)
    assert red2 == red and pivots2 == pivots and r2 == r


@settings(max_examples=60, deadline=None)
@given(small_matrix(Q))
def test_rank_nullity_q(m):
    r = rank(m)
    k = kernel_basis(m)
    assert k.rows + r == m.cols
    assert (m @ k.transpose()).is_zero()
    if k.rows:
        assert rank(k) == k.rows


@settings(max_examples=60, deadline=None)
@given(small_matrix(F101))
def test_quotient_invariants_fp(m):
    qs = quotient(F101, m.cols, m)
    assert qs.dim == m.cols - rank(m)
    assert qs.projection @ qs.section == Matrix.identity(F101, qs.dim)
    assert (qs.projection @ m.transpose()).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_matrix(Q))
def test_rref_matches_generic_row_space_q(m):
    red, pivots, r = rref(m)
    # the reduced rows and the original rows span the same space
    both = vstack([m, red]) if m.rows else red
    assert rank(both) == r


def test_solve_multiple_rhs():
    m = mat(F101, [[2, 0], [0, 3]])
    rhs = mat(F101, [[4, 2], [9, 6]])
    x = solve(m, rhs)
    assert m @ x == rhs


def test_field_parse_roundtrip():
    assert Q.parse("3/4") == Fraction(3, 4)
    assert Q.to_str(Fraction(-3, 4)) == "-3/4"
    assert Q.to_str(Fraction(5)) == "5/1"
    assert F101.parse("42") == 42
    with pytest.raises(ValueError):
        F101.parse("101")
    with pytest.raises(ValueError):
        Field.prime(10)


def test_field_prime_large_moduli():
    assert Field.prime(2 ** 61 - 1).p == 2 ** 61 - 1
    # Carmichael number, strong pseudoprime to base 2, to bases 2..7, composite
    for n in (561, 2047, 3215031751, 2 ** 61 + 1):
        with pytest.raises(ValueError, match="prime"):
            Field.prime(n)
    with pytest.raises(ValueError, match="below 2\\^64"):
        Field.prime(2 ** 64 + 1)
