"""The exact kernels in `linalg` against independent references.

Over F_p the reference is the plain Gauss-Jordan below, on lists of Python
ints, at one int64 prime (101), at 2^31 - 1 (int64 storage whose products
need the Python-int fallback once an inner dimension exceeds 1) and at two
object-dtype primes; row reduction is also checked at p = 2 and 3, where
entries cancel often.  Over Q the reference is sympy, when it is installed.
The products with one identity Kronecker factor, and the balancing
relations written by index, are checked against the same matrices with the
Kronecker products built.  The field memo of `kernel_mod_image` and the
tensor presentations is checked against the undecorated kernels.
Every matrix strategy includes 0 x n, n x 0 and rank-deficient shapes, and
seeded sparse matrices of up to 60 x 60 exercise cancellation and fill-in
in the sparse elimination loop.
"""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkunneth import linalg, tensor
from dgkunneth.dgalgebra import StructureError
from dgkunneth.dgmodule import LEFT, RIGHT, DGModule, cohomology
from dgkunneth.field import Field
from dgkunneth.genlab import (
    CorpusProfile,
    generate_corpus,
    make_exterior,
    make_field_algebra,
    regular_module,
)
from dgkunneth.linalg import (
    Matrix,
    drop_zero_rows,
    from_blocks,
    hstack,
    kernel_basis,
    kernel_mod_image,
    left_inverse,
    quotient,
    rank,
    rref,
    solve,
)
from dgkunneth.resolve import semifree_resolve
from dgkunneth.tensor import TensorComplex, balanced_tensor, tensor_cohomology

PRIMES = (101, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59)
SMALL_PRIMES = (2, 3)
Q = Field.rationals()


# ---------------------------------------------------------------------------
# the F_p reference: lists of ints, one row operation at a time


def ref_rref(rows, ncols, p):
    a = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def ref_null_rows(red, pivots, ncols, p):
    """e_j - sum_i red[i][j] e_{pivots[i]} for each non-pivot column j."""
    out = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[j] = 1
        for i, jp in enumerate(pivots):
            v[jp] = -red[i][j] % p
        out.append(v)
    return out


def ref_matmul(a, b, inner, cols, p):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) % p for j in range(cols)]
            for i in range(len(a))]


def ref_kron(a, b, shape_a, shape_b, zero=0):
    (ra, ca), (rb, cb) = shape_a, shape_b
    out = [[zero] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k][j * cb + m] = a[i][j] * b[k][m]
    return out


def entries(p):
    # zeros and +-1 often, so that ranks drop and pivots move
    return st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))


@st.composite
def int_matrices(draw, p, max_dim=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.lists(entries(p), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if rows >= 2 and draw(st.booleans()):
        # rank-deficient: the last row is a combination of the first two
        c = draw(entries(p))
        data[-1] = [(c * x + y) % p for x, y in zip(data[0], data[1])]
    return rows, cols, data


def as_lists(m: Matrix):
    return m.arr.tolist()


@st.composite
def block_lists(draw, p, rows, cols, elem=None):
    """Up to three (r, c, array) blocks inside rows x cols, possibly
    overlapping, with entries in (-p, p) (or drawn from `elem`), in the
    storage dtype of F_p (object over Q)."""
    if elem is None:
        elem = st.integers(-(p - 1), p - 1)
    dtype = np.int64 if 0 < p < 2 ** 32 else object
    out = []
    for _ in range(draw(st.integers(0, 3)) if rows and cols else 0):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        h, w = draw(st.integers(0, rows - r)), draw(st.integers(0, cols - c))
        blk = draw(st.lists(st.lists(elem, min_size=w, max_size=w), min_size=h, max_size=h))
        out.append((r, c, np.array(blk, dtype=dtype).reshape(h, w)))
    return out


def ref_from_blocks(blocks, rows, cols, zero):
    out = [[zero] * cols for _ in range(rows)]
    for r, c, blk in blocks:
        for i, row in enumerate(blk.tolist()):
            for j, x in enumerate(row):
                out[r + i][c + j] += x
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_storage_dtype_follows_the_prime(p):
    m = Matrix.identity(Field.prime(p), 3)
    assert m.arr.dtype == (np.int64 if p < 2 ** 32 else object)
    assert Matrix.identity(Q, 3).arr.dtype == object


@pytest.mark.parametrize("p", PRIMES + SMALL_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_reduction_matches_reference(p, data):
    f = Field.prime(p)
    rows, cols, d = data.draw(int_matrices(p))
    m = Matrix(f, rows, cols, d)
    red, pivots, r = rref(m)
    ref, ref_piv = ref_rref(d, cols, p)
    assert (as_lists(red), pivots, r) == (ref, ref_piv, len(ref_piv))
    assert rank(m) == len(ref_piv)
    assert as_lists(kernel_basis(m)) == ref_null_rows(ref, ref_piv, cols, p)
    qs = quotient(f, cols, m)
    assert qs.pivots == tuple(ref_piv)
    assert as_lists(qs.projection) == ref_null_rows(ref, ref_piv, cols, p)
    free = [j for j in range(cols) if j not in ref_piv]
    assert as_lists(qs.section) == [[int(j == jf) for jf in free] for j in range(cols)]
    assert as_lists(drop_zero_rows(m)) == [row for row in d if any(row)]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_and_left_inverse_match_reference(p, data):
    f = Field.prime(p)
    rows, cols, d = data.draw(int_matrices(p))
    k = data.draw(st.integers(0, 3))
    rhs = data.draw(st.lists(st.lists(entries(p), min_size=k, max_size=k),
                             min_size=rows, max_size=rows))
    m = Matrix(f, rows, cols, d)
    x = solve(m, Matrix(f, rows, k, rhs))
    red, piv = ref_rref([a + b for a, b in zip(d, rhs)] if rows else [], cols + k, p)
    if any(c >= cols for c in piv):
        assert x is None
    else:
        want = [[0] * k for _ in range(cols)]
        for i, c in enumerate(piv):
            want[c] = red[i][cols:]
        assert as_lists(x) == want
    eye = [[int(i == j) for j in range(rows)] for i in range(rows)]
    red, piv = ref_rref([a + b for a, b in zip(d, eye)], cols + rows, p)
    if sum(1 for c in piv if c < cols) < cols:
        with pytest.raises(ValueError):
            left_inverse(m)
    else:
        assert as_lists(left_inverse(m)) == [red[i][cols:] for i in range(cols)]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_mod_image_matches_four_eliminations(p, data):
    # the kernel basis, solve, quotient and left inverse give the same maps:
    # the kernel basis has the identity in its free rows
    f = Field.prime(p)
    rows, cols, d = data.draw(int_matrices(p))
    d_out = Matrix(f, rows, cols, d)
    incl = kernel_basis(d_out).transpose()
    k = data.draw(st.integers(0, 3))
    x = data.draw(st.lists(st.lists(entries(p), min_size=k, max_size=k),
                           min_size=incl.cols, max_size=incl.cols))
    d_in = incl @ Matrix(f, incl.cols, k, x)
    want = quotient(f, incl.cols, solve(incl, d_in).transpose())
    got = kernel_mod_image(f, d_in, d_out)
    assert (got.cocycle_incl, got.space.relations, got.space.projection) == \
        (incl, want.relations, want.projection)
    assert got.class_map == want.projection @ left_inverse(incl)
    assert got.rep_map == incl @ want.section
    # a column outside the kernel, also when the kernel is zero
    off = next((j for j in range(cols) if any(r[j] for r in d)), None)
    if off is not None:
        e = Matrix(f, cols, 1, [[int(j == off)] for j in range(cols)])
        assert kernel_mod_image(f, hstack([d_in, e]), d_out) is None


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_match_reference(p, data):
    f = Field.prime(p)
    ra, ca, a = data.draw(int_matrices(p))
    cb = data.draw(st.integers(0, 4))
    b = data.draw(st.lists(st.lists(entries(p), min_size=cb, max_size=cb),
                           min_size=ca, max_size=ca))
    ma, mb = Matrix(f, ra, ca, a), Matrix(f, ca, cb, b)
    assert as_lists(ma @ mb) == ref_matmul(a, b, ca, cb, p)
    assert as_lists(ma.kron(mb)) == \
        [[x % p for x in row] for row in ref_kron(a, b, (ra, ca), (ca, cb))]
    assert as_lists(ma.kron_columns(ma)) == \
        [[a[i][s] * a[j][s] % p for s in range(ca)] for i in range(ra) for j in range(ra)]
    blocks = data.draw(block_lists(p, ra, ca))
    assert as_lists(from_blocks(f, ra, ca, blocks)) == \
        [[x % p for x in row] for row in ref_from_blocks(blocks, ra, ca, 0)]


def test_int64_products_take_the_overflow_guard():
    # (p-1)^2 * 7 > 2^63: an int64 accumulation would wrap around
    p = 2 ** 31 - 1
    f = Field.prime(p)
    rng = random.Random(20240601)
    a = [[p - 1 - rng.randrange(3) for _ in range(7)] for _ in range(5)]
    b = [[p - 1 - rng.randrange(3) for _ in range(4)] for _ in range(7)]
    ma, mb = Matrix(f, 5, 7, a), Matrix(f, 7, 4, b)
    for prod in (ma @ mb, ma.times_kron_eye(mb, 1), ma.times_eye_kron(1, mb)):
        assert prod.arr.dtype == np.int64
        assert as_lists(prod) == ref_matmul(a, b, 7, 4, p)


# one field per storage: int64 with int64 products, int64 whose products of
# inner dimension 2 or more run on Python ints, object ints, and Fractions
ONE_FACTOR_FIELDS = {"F101": Field.prime(101), "F2^31-1": Field.prime(2 ** 31 - 1),
                     "F2^61-1": Field.prime(2 ** 61 - 1), "Q": Q}


@pytest.mark.parametrize("label", sorted(ONE_FACTOR_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_factor_products_match_the_kronecker_products(label, data):
    """B @ (X (x) I_k) and B @ (I_k (x) X) equal the products with the
    Kronecker product built, entry for entry and type for type, for k = 0,
    1 and 3 and for X or B with no rows or no columns."""
    f = ONE_FACTOR_FIELDS[label]
    elem = q_entries if f.p is None else entries(f.p)

    def matrix(rows, cols):
        rows_data = data.draw(st.lists(st.lists(elem, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows))
        return Matrix(f, rows, cols, rows_data)

    k = data.draw(st.sampled_from([0, 1, 3]))
    x = matrix(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
    b = matrix(data.draw(st.integers(0, 3)), x.rows * k)
    eye = Matrix.identity(f, k)
    for got, want in ((b.times_kron_eye(x, k), b @ x.kron(eye)),
                      (b.times_eye_kron(k, x), b @ eye.kron(x))):
        assert got == want and got.arr.dtype == want.arr.dtype
        assert [type(v) for v in got.arr.flat] == [type(v) for v in want.arr.flat]


def test_one_factor_products_reject_mismatches():
    f = Field.prime(101)
    b, x = Matrix.zeros(f, 2, 6), Matrix.zeros(f, 3, 2)
    assert b.times_kron_eye(x, 2).cols == b.times_eye_kron(2, x).cols == 4
    for product in (lambda: b.times_kron_eye(x, 3), lambda: b.times_eye_kron(1, x)):
        with pytest.raises(ValueError, match="cannot multiply"):
            product()
    for other in (Matrix.zeros(Q, 3, 2), Matrix.zeros(Field.prime(103), 3, 2)):
        for product in (lambda: b.times_kron_eye(other, 2), lambda: b.times_eye_kron(2, other)):
            with pytest.raises(ValueError, match="field mismatch"):
                product()


@pytest.mark.parametrize("p", PRIMES)
def test_seeded_tall_rank_deficient_matrices(p):
    f = Field.prime(p)
    rng = random.Random(f"oracle:{p}")
    for _ in range(5):
        rows, cols, rk = rng.randint(6, 14), rng.randint(4, 10), rng.randint(0, 4)
        left = [[rng.randrange(p) for _ in range(rk)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rk)]
        d = ref_matmul(left, right, rk, cols, p)
        m = Matrix(f, rows, cols, d)
        ref, piv = ref_rref(d, cols, p)
        assert rref(m)[1] == piv and len(piv) <= rk
        assert as_lists(rref(m)[0]) == ref
        assert as_lists(kernel_basis(m)) == ref_null_rows(ref, piv, cols, p)


def sparse_case(rng, p):
    """(rows, cols, data, fill_col): a 20-60 x 20-60 matrix at most 10%
    nonzero, over F_p or (p = 0) over Q.  One row repeats an earlier row,
    one is a multiple of another, and the rows e_c0 + e_fill and, later,
    e_c0 + e_c2 (c0 < fill < c2, columns zero elsewhere) make the later
    row's pivot `fill`, a column where that row held zero."""
    def entry():
        if p:
            return rng.randrange(1, p)
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    rows, cols = rng.randint(20, 60), rng.randint(20, 60)
    density = rng.uniform(0.03, 0.08)
    c0, fill, c2 = sorted(rng.sample(range(cols), 3))
    zero = 0 if p else Fraction(0)
    data = [[entry() if j not in (c0, fill, c2) and rng.random() < density else zero
             for j in range(cols)] for _ in range(rows)]
    i, j, k, l = sorted(rng.sample(range(rows), 4))
    data[j] = list(data[i])
    scale = entry()
    data[l] = [x * scale % p if p else x * scale for x in data[k]]
    x, y = sorted(rng.sample([r for r in range(rows) if r not in (i, j, k, l)], 2))
    data[x] = [int(c in (c0, fill)) + zero for c in range(cols)]
    data[y] = [int(c in (c0, c2)) + zero for c in range(cols)]
    return rows, cols, data, fill


@pytest.mark.parametrize("p", PRIMES + SMALL_PRIMES)
def test_sparse_row_reduction_matches_reference(p):
    f = Field.prime(p)
    rng = random.Random(f"sparse:{p}")
    for _ in range(6):
        rows, cols, d, fill = sparse_case(rng, p)
        m = Matrix(f, rows, cols, d)
        red, pivots, r = rref(m)
        ref, ref_piv = ref_rref(d, cols, p)
        assert (as_lists(red), pivots, r) == (ref, ref_piv, len(ref_piv))
        assert fill in pivots
        assert rank(m) == len(pivots)
        assert as_lists(kernel_basis(m)) == ref_null_rows(ref, ref_piv, cols, p)


def test_published_tensor_relations_match_reference():
    f = Field.prime(101)
    for inst in generate_corpus(CorpusProfile(field=f, instance_count=10)):
        tc = TensorComplex(inst.m, inst.n)
        for t in range(tc.lo, tc.hi + 1):
            rel = tc.space(t).relations
            d = as_lists(rel)
            ref, ref_piv = ref_rref(d, rel.cols, 101)
            red, pivots, r = rref(rel)
            assert (as_lists(red), pivots) == (ref, ref_piv)
            assert r == rank(rel) == len(ref_piv)


def kron_relations(tc, t):
    """The relations of degree t of `tc` from identity Kronecker placements:
    rows (j, p, u, c, v) of (act_M (x) I)^T at block (p+j, .) minus
    (I (x) act_N)^T at block (p, .), zero rows dropped."""
    f, a, m, n = tc.field, tc.algebra, tc.m, tc.n
    blocks = tc.blocks(t)
    offsets = {p: off for p, q, off, dmp, dnq in blocks}
    amb = sum(dmp * dnq for p, q, off, dmp, dnq in blocks)
    placed, nrows = [], 0
    for j in a.degrees():
        for p in m.degrees():
            dmp, dj, dnq = m.dim(p), a.dim(j), n.dim(t - p - j)
            if p + j in offsets:
                eye = Matrix.identity(f, dnq)
                placed.append((nrows, offsets[p + j], m.action_map(p, j).kron(eye).arr.T))
            if p in offsets:
                eye = Matrix.identity(f, dmp)
                placed.append((nrows, offsets[p], -eye.kron(n.action_map(t - p - j, j)).arr.T))
            nrows += dmp * dj * dnq
    return drop_zero_rows(from_blocks(f, nrows, amb, placed))


@pytest.mark.parametrize("p", (101, None, 2 ** 61 - 1), ids=("F101", "Q", "F2^61-1"))
def test_balancing_rows_match_the_kronecker_placements(p):
    f = Field.prime(p) if p else Q
    for inst in generate_corpus(CorpusProfile(field=f, instance_count=20)):
        m, n = inst.m, inst.n
        tc = TensorComplex(m, n)
        for t in range(tc.lo, tc.hi + 1):
            assert tc.space(t).relations == kron_relations(tc, t), (inst.name, t)
        for i in m.degrees():
            for j in n.degrees():
                xact, yact = m.action_map(i, 0), n.action_map(j, 0)
                dx, dy = xact.rows, yact.rows
                rel = (xact.kron(Matrix.identity(f, dy))
                       - Matrix.identity(f, dx).kron(yact)).transpose()
                want = quotient(f, dx * dy, drop_zero_rows(rel))
                got = balanced_tensor(xact, yact)
                assert (got.projection, got.section) == (want.projection, want.section)


# ---------------------------------------------------------------------------
# the field memo of kernel_mod_image and the tensor presentations


@pytest.mark.parametrize("p", (101, None, 2 ** 61 - 1), ids=("F101", "Q", "F2^61-1"))
def test_memoized_kernels_match_the_undecorated_kernels(p, monkeypatch):
    f = Field.prime(p) if p else Field.rationals()
    sizes = []
    for _ in range(2):
        # the second corpus is equal to the first in new objects: all hits
        for inst in generate_corpus(CorpusProfile(field=f, instance_count=20)):
            for mod in (inst.m, inst.n):
                for i in mod.degrees():
                    cohomology(mod, i)
            tc = TensorComplex(inst.m, inst.n)
            for t in range(tc.lo, tc.hi + 1):
                tensor_cohomology(tc, t)
            for i in (-1, 0):
                balanced_tensor(inst.m.action_map(i, 0), inst.n.action_map(-1 - i, 0))
        sizes.append(len(f.memo))
    assert sizes[0] == sizes[1]
    # quotient is no memoized kernel: it stores nothing of its own
    kernels = {"kernel_mod_image": kernel_mod_image, "_presentation": tensor._presentation}
    assert {name for name, *_ in f.memo} == set(kernels)
    # built again with nothing stored or looked up, nested kernels included
    entries = list(f.memo.items())
    monkeypatch.setattr(linalg, "_MEMO_GATE", -1)
    for (name, *args), out in entries:
        assert out == kernels[name].__wrapped__(f, *args)
    assert len(f.memo) == len(entries)


def _count_balancing(monkeypatch):
    calls = []
    balancing = tensor._balancing

    def counted(*args):
        calls.append(args)
        return balancing(*args)

    monkeypatch.setattr(tensor, "_balancing", counted)
    return calls


def test_presentation_hit_writes_no_balancing_rows(monkeypatch):
    f = Field.prime(101)
    calls = _count_balancing(monkeypatch)
    spaces, counts = [], []
    for _ in range(2):
        # equal modules over a new algebra object each time: equal keys
        a = make_exterior(f)
        m, n = regular_module(a, RIGHT), regular_module(a, LEFT)
        tc = TensorComplex(m, n)
        spaces.append([tc.space(t) for t in range(tc.lo, tc.hi + 1)]
                      + [balanced_tensor(m.action_map(0, 0), n.action_map(0, 0))])
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == counts[0]
    assert all(x is y for x, y in zip(*spaces))


def test_presentations_differing_in_one_action_block_or_offset_differ(monkeypatch):
    f = Field.prime(101)
    one, two = Matrix.identity(f, 1), Matrix.from_int_rows(f, [[2]])
    # one block x (x) k (x) y, x and y of dimension 1, in an ambient of 3:
    # the relation is e_xoff - e_yoff (or - 2 e_yoff)
    blocks = [(((1, 1, 1), 1, 0, one, one),), (((1, 1, 1), 2, 0, one, one),),
              (((1, 1, 1), 1, 0, one, two),), (((1, 1, 1), 1, 2, one, one),)]
    got = [tensor._presentation(f, 3, b) for b in blocks]
    assert len({(sp.relations, sp.projection) for sp in got}) == len(blocks)
    # two complexes whose N differs in one action block, on one field
    a = make_exterior(f)
    m, n = regular_module(a, RIGHT), regular_module(a, LEFT)
    key = next(k for k, act in n.action.items() if k[1] and not act.is_zero())
    bent = DGModule(LEFT, a, n.window, n.dims, n.diff,
                    {**n.action, key: n.action[key].scale(f.of_int(2))})
    tcs = [TensorComplex(m, n), TensorComplex(m, bent)]
    degrees = range(tcs[0].lo, tcs[0].hi + 1)
    spaces = [[tc.space(t) for t in degrees] for tc in tcs]
    assert spaces[0] != spaces[1]
    monkeypatch.setattr(linalg, "_MEMO_GATE", -1)
    assert got == [tensor._presentation.__wrapped__(f, 3, b) for b in blocks]
    assert spaces == [[TensorComplex(tc.m, tc.n).space(t) for t in degrees] for tc in tcs]


def test_presentation_over_the_gate_hashes_no_matrix(monkeypatch):
    f = Field.prime(101)
    a = make_field_algebra(f)
    # x = k^17 over k: ambient 17, and 17^2 > 256 before any input cell
    eye = Matrix.identity(f, 17)
    m = DGModule(RIGHT, a, (0, 0), {0: 17}, {}, {(0, 0): eye})
    n = regular_module(a, LEFT)

    def no_hash(self):
        raise AssertionError("hashed a matrix over the gate")

    monkeypatch.setattr(Matrix, "__hash__", no_hash)
    assert balanced_tensor(eye, Matrix.identity(f, 1)).dim == 17
    assert TensorComplex(m, n).space(0).dim == 17
    assert not f.memo


def test_memo_keys_are_values():
    # equal Fractions in distinct objects share an entry
    q = Field.rationals()
    a = Matrix(q, 1, 2, [[Fraction(1, 2), Fraction(3)]])
    b = Matrix(q, 1, 2, [[Fraction(2, 4), Fraction(6, 2)]])
    assert a.arr[0, 0] is not b.arr[0, 0]
    first = kernel_mod_image(q, Matrix.zeros(q, 2, 0), a)
    assert kernel_mod_image(q, Matrix.zeros(q, 2, 0), b) is first and len(q.memo) == 1
    # hash(-1) == hash(-2) over Q, and 0 and 2^61 - 1 hash alike as Python
    # ints: equal hashes with different entries are different entries
    for f, x, y in ((Field.rationals(), -1, -2), (Field.prime(2 ** 64 - 59), 0, 2 ** 61 - 1)):
        d_outs = [Matrix(f, 1, 2, [[f.one, f.of_int(v)]]) for v in (x, y)]
        assert hash(d_outs[0]) == hash(d_outs[1]) and d_outs[0] != d_outs[1]
        spaces = [kernel_mod_image(f, Matrix.zeros(f, 2, 0), d) for d in d_outs]
        assert spaces[0].cocycle_incl != spaces[1].cocycle_incl
        assert [space.cocycle_incl for space in spaces] == [kernel_basis(d).transpose() for d in d_outs]
        assert len(f.memo) == 2


def test_memo_stores_only_presentations_within_the_gate():
    f = Field.prime(101)
    assert linalg._MEMO_GATE == 256
    # an ambient dimension first counts its square: 16^2 cells are stored
    tensor._presentation(f, 16, ())
    assert len(f.memo) == 1
    tensor._presentation(f, 17, ())
    # a matrix last gives the ambient dimension: 8^2 + 25 x 8 cells are too many
    kernel_mod_image(f, Matrix.zeros(f, 8, 0), Matrix.zeros(f, 25, 8))
    assert len(f.memo) == 1
    # 8^2 + 24 x 8 cells are stored, one more column of d_in is not; the
    # kernel's own quotient, on the image in 8 coordinates, stores nothing
    d_out = Matrix.zeros(f, 24, 8)
    kernel_mod_image(f, Matrix.zeros(f, 8, 0), d_out)
    assert len(f.memo) == 2
    kernel_mod_image(f, Matrix.zeros(f, 8, 1), d_out)
    assert [name for name, *_ in f.memo] == ["_presentation", "kernel_mod_image"]


def test_a_stored_presentation_stores_nothing_inside_it():
    # a presentation under the gate stores one entry, its quotient none; a
    # later quotient request with the same relations stores none either, as
    # quotient is no memoized kernel
    f = Field.prime(101)
    a = make_exterior(f)
    m, n = regular_module(a, RIGHT), regular_module(a, LEFT)
    sp = balanced_tensor(m.action_map(0, 0), n.action_map(0, 0))
    assert [name for name, *_ in f.memo] == ["_presentation"]
    assert quotient(f, sp.ambient_dim, sp.relations) == sp
    assert [name for name, *_ in f.memo] == ["_presentation"]
    # a resolution is no presentation: the cohomology it computes inside is
    # stored for equal modules of other instances, but not its quotients
    a.h0()   # kept on the algebra, so the resolution makes no quotient call of its own
    f.memo.clear()
    semifree_resolve(regular_module(a, RIGHT), 2)
    names = [name for name, *_ in f.memo]
    assert names[-1] == "_resolve" and "kernel_mod_image" in names and "quotient" not in names


def test_memo_never_exceeds_the_cap():
    f = Field.prime(101)
    cap = linalg._MEMO_CAP
    assert cap == 1024
    d_in = Matrix.zeros(f, 2, 0)
    d_outs = [Matrix.from_int_rows(f, [[a, b]]) for a in range(1, 12) for b in range(101)]
    for d in d_outs[:cap]:
        kernel_mod_image(f, d_in, d)
    assert len(f.memo) == cap
    # one more entry, on another shape, and its quotient none: the first
    # entry goes
    d_out = Matrix.from_int_rows(f, [[1, 2, 3]])
    kernel_mod_image(f, Matrix.zeros(f, 3, 0), d_out)
    assert len(f.memo) == cap
    assert list(f.memo)[-1] == ("kernel_mod_image", Matrix.zeros(f, 3, 0), d_out)
    assert ("kernel_mod_image", d_in, d_outs[0]) not in f.memo
    assert ("kernel_mod_image", d_in, d_outs[1]) in f.memo
    for d in d_outs[cap:]:
        kernel_mod_image(f, d_in, d)
        assert len(f.memo) == cap


def test_memoized_d_squared_failure_raises_for_every_module():
    # d^{-1} = d^0 = [1]: no cocycle in degree 0, but a nonzero image into it
    f = Field.prime(101)
    a = make_field_algebra(f)
    for _ in range(2):
        m = DGModule(RIGHT, a, (-1, 1), {-1: 1, 0: 1, 1: 1},
                     {i: Matrix.identity(f, 1) for i in (-1, 0)},
                     {(i, 0): Matrix.identity(f, 1) for i in (-1, 0, 1)})
        with pytest.raises(StructureError, match="image not inside cocycles"):
            cohomology(m, 0)
        assert None in f.memo.values()


# ---------------------------------------------------------------------------
# Q against sympy


q_entries = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def q_matrices(draw, max_dim=4):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.lists(q_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if rows >= 2 and draw(st.booleans()):
        data[-1] = [2 * x - y for x, y in zip(data[0], data[1])]
    return rows, cols, data


def to_sympy(sympy, rows, cols, data):
    return sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator)
                                     for row in data for x in row])


def from_sympy(sm):
    return [[Fraction(int(x.p), int(x.q)) for x in sm.row(i)] for i in range(sm.rows)]


@settings(max_examples=40, deadline=None)
@given(q_matrices())
def test_q_row_reduction_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, cols, data = case
    m = Matrix(Q, rows, cols, data)
    sm = to_sympy(sympy, rows, cols, data)
    red, pivots, r = rref(m)
    sred, spiv = sm.rref()
    assert (as_lists(red), pivots) == (from_sympy(sred), list(spiv))
    assert r == rank(m) == sm.rank()
    kernel = [[Fraction(int(x.p), int(x.q)) for x in v] for v in sm.nullspace()]
    assert as_lists(kernel_basis(m)) == kernel
    qs = quotient(Q, cols, m)
    assert as_lists(qs.projection) == kernel
    assert as_lists(drop_zero_rows(m)) == [row for row in data if any(row)]


@settings(max_examples=40, deadline=None)
@given(q_matrices(), st.data())
def test_q_solve_products_and_left_inverse_match_sympy(case, data):
    sympy = pytest.importorskip("sympy")
    rows, cols, d = case
    m = Matrix(Q, rows, cols, d)
    sm = to_sympy(sympy, rows, cols, d)
    if rows and cols:
        rhs = data.draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                                 min_size=rows, max_size=rows))
        x = solve(m, Matrix(Q, rows, 1, [[v] for v in rhs]))
        try:
            sol, params = sm.gauss_jordan_solve(to_sympy(sympy, rows, 1, [[v] for v in rhs]))
        except ValueError:
            assert x is None
        else:
            want = sol.subs({t: 0 for t in params})
            assert as_lists(x) == from_sympy(want)
    aug = sympy.Matrix.hstack(sm, sympy.eye(rows))
    sred, spiv = aug.rref()
    if sum(1 for c in spiv if c < cols) < cols:
        with pytest.raises(ValueError):
            left_inverse(m)
    else:
        want = from_sympy(sred[:cols, cols:]) if cols else []
        assert as_lists(left_inverse(m)) == want
    cb = data.draw(st.integers(0, 3))
    b = data.draw(st.lists(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                                    min_size=cb, max_size=cb), min_size=cols, max_size=cols))
    prod = m @ Matrix(Q, cols, cb, b)
    if rows and cb:
        assert as_lists(prod) == from_sympy(sm * to_sympy(sympy, cols, cb, b))
    else:
        assert prod.arr.shape == (rows, cb)
    assert as_lists(m.kron(Matrix(Q, cols, cb, b))) == \
        ref_kron(d, b, (rows, cols), (cols, cb), Fraction(0))
    blocks = data.draw(block_lists(0, rows, cols, q_entries))
    built = from_blocks(Q, rows, cols, blocks)
    assert as_lists(built) == ref_from_blocks(blocks, rows, cols, Fraction(0))
    assert all(type(x) is Fraction for x in built.arr.flat)


def test_sparse_q_row_reduction_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sparse:Q")
    for _ in range(3):
        rows, cols, d, fill = sparse_case(rng, 0)
        m = Matrix(Q, rows, cols, d)
        red, pivots, r = rref(m)
        sred, spiv = to_sympy(sympy, rows, cols, d).rref()
        assert (as_lists(red), pivots) == (from_sympy(sred), list(spiv))
        assert fill in pivots
        assert r == rank(m) == len(spiv)


# ---------------------------------------------------------------------------
# read-only arrays


def test_matrix_arrays_are_read_only():
    for f in (Field.prime(101), Field.prime(2 ** 61 - 1), Q):
        m = Matrix.from_int_rows(f, [[1, 2], [3, 4]])
        for derived in (m, m.transpose(), m.columns(slice(0, 1)), m @ m, m.kron(m), -m,
                        m.times_kron_eye(m, 1), m.times_eye_kron(1, m), kernel_basis(m),
                        rref(m)[0]):
            with pytest.raises(ValueError):
                derived.arr[0, 0] = f.one
        assert m == Matrix.from_int_rows(f, [[1, 2], [3, 4]])


def test_solve_and_left_inverse_do_not_alias_their_inputs():
    f = Field.prime(101)
    m = Matrix.from_int_rows(f, [[1, 0], [0, 1], [1, 1]])
    rhs = Matrix.from_int_rows(f, [[2], [3], [5]])
    x = solve(m, rhs)
    li = left_inverse(m)
    for out in (x, li):
        assert out.arr.base is None
        assert not np.shares_memory(out.arr, m.arr)
        assert not np.shares_memory(out.arr, rhs.arr)
    assert m @ x == rhs and li @ m == Matrix.identity(f, 2)


def test_tensor_complex_caches_cannot_be_changed_through_results():
    inst = generate_corpus(CorpusProfile(field=Field.prime(101), instance_count=4))[3]
    tc = TensorComplex(inst.m, inst.n)
    degrees = [t for t in range(tc.lo, tc.hi + 1) if tc.space(t).relations.rows]
    assert degrees
    for t in degrees:
        rel, sp = tc.space(t).relations, tc.space(t)
        for m in (rel, rel.transpose(), sp.projection, sp.section, tc.diff(t - 1)):
            if m.rows and m.cols:
                with pytest.raises(ValueError):
                    m.arr[0, 0] = 1
        # matrices computed from the cached ones are new arrays
        assert not np.shares_memory((-rel).arr, rel.arr)
        assert not np.shares_memory(drop_zero_rows(rel).arr, rel.arr)
        fresh = TensorComplex(inst.m, inst.n)
        assert tc.space(t).relations is rel and rel == fresh.space(t).relations
        assert (sp.projection, sp.section) == \
            (fresh.space(t).projection, fresh.space(t).section)
