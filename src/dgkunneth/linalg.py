"""Exact dense linear algebra over Q or F_p.

Matrices are dense, row-major, immutable by convention.  Linear maps use
the column convention throughout: a map V -> W is a (dim W) x (dim V)
matrix acting on column vectors, and bilinear maps are matrices on
Kronecker-ordered tensor bases (index of e_u (x) e_v is u*dimV2 + v).

Row reduction over F_p is vectorized with numpy int64; over Q it runs on
gcd-normalized integer rows so no Fraction arithmetic happens inside the
elimination loop.  Results are canonical: the reduced row echelon form is
unique, and every derived basis (kernels, quotient bases) is determined
by its pivot columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .field import Field


class Matrix:
    """Dense matrix over an exact field; data is row-major lists."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"shape mismatch: want {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_int_rows(cls, field: Field, rows, cols: int | None = None) -> "Matrix":
        data = [[field.of_int(x) for x in r] for r in rows]
        ncols = cols if cols is not None else (len(data[0]) if data else 0)
        return cls(field, len(data), ncols, data)

    @classmethod
    def column(cls, field: Field, vec) -> "Matrix":
        return cls(field, len(vec), 1, [[x] for x in vec])

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def __add__(self, other) -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other) -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.sub(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.neg(a) for a in row] for row in self.data])

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.mul(c, a) for a in row] for row in self.data])

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(f, self.rows, other.cols)
        if f.is_prime_field:
            if _fits_int64(f.p, self.cols):
                prod = (_np(self) @ _np(other)) % f.p
                return _from_np(f, prod)
        else:
            out = _matmul_q(self, other)
            if out is not None:
                return out
        bt = other.transpose().data
        out = [[_dot(f, ra, cb) for cb in bt] for ra in self.data]
        return Matrix(f, self.rows, other.cols, out)

    def apply(self, vec):
        """Apply to a column vector given as a list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        return [_dot(f, row, vec) for row in self.data]

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; acts on x (x) y with index u*cols2 + v."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        rows, cols = self.rows * other.rows, self.cols * other.cols
        if rows == 0 or cols == 0:
            return Matrix.zeros(f, rows, cols)
        if f.is_prime_field and _fits_int64(f.p, 1):
            return _from_np(f, np.kron(_np(self), _np(other)) % f.p)
        if not f.is_prime_field:
            ia, da = _scale_to_int(self)
            ib, db = _scale_to_int(other)
            ma = max((abs(x) for row in ia for x in row), default=0)
            mb = max((abs(x) for row in ib for x in row), default=0)
            if ma * mb < 2 ** 62:
                prod = np.kron(np.array(ia, dtype=np.int64).reshape(self.rows, self.cols),
                               np.array(ib, dtype=np.int64).reshape(other.rows, other.cols))
                d = da * db
                data = [[Fraction(int(x), d) for x in row] for row in prod]
                return Matrix(f, rows, cols, data)
        out = [[f.zero] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if a == f.zero:
                    continue
                for k in range(other.rows):
                    orow = other.data[k]
                    trow = out[i * other.rows + k]
                    base = j * other.cols
                    for l in range(other.cols):
                        b = orow[l]
                        if b != f.zero:
                            trow[base + l] = f.mul(a, b)
        return Matrix(f, rows, cols, out)


def _dot(f: Field, xs, ys):
    acc = f.zero
    for a, b in zip(xs, ys):
        if a != f.zero and b != f.zero:
            acc = f.add(acc, f.mul(a, b))
    return acc


def _scale_to_int(m: Matrix):
    """(integer matrix, common denominator) with m = ints / den."""
    den = 1
    for row in m.data:
        for x in row:
            den = lcm(den, x.denominator)
    ints = [[int(x * den) for x in row] for row in m.data]
    return ints, den


def _matmul_q(a: Matrix, b: Matrix):
    # rational product via integer matrices; None when int64 could overflow
    ia, da = _scale_to_int(a)
    ib, db = _scale_to_int(b)
    ma = max((abs(x) for row in ia for x in row), default=0)
    mb = max((abs(x) for row in ib for x in row), default=0)
    if ma * mb * max(a.cols, 1) >= 2 ** 62:
        return None
    prod = np.array(ia, dtype=np.int64).reshape(a.rows, a.cols) @ \
        np.array(ib, dtype=np.int64).reshape(b.rows, b.cols)
    d = da * db
    data = [[Fraction(int(x), d) for x in row] for row in prod]
    return Matrix(a.field, a.rows, b.cols, data)


def _fits_int64(p: int, inner: int) -> bool:
    # products (p-1)^2 summed `inner` times must stay below 2^63
    return (p - 1) ** 2 * max(inner, 1) < 2 ** 62


def _np(m: Matrix) -> np.ndarray:
    return np.array(m.data, dtype=np.int64).reshape(m.rows, m.cols)


def _from_np(field: Field, arr: np.ndarray) -> Matrix:
    rows, cols = arr.shape
    return Matrix(field, rows, cols, [[int(x) for x in row] for row in arr])


def hstack(ms) -> Matrix:
    ms = list(ms)
    f = ms[0].field
    rows = ms[0].rows
    if any(m.rows != rows for m in ms):
        raise ValueError("row count mismatch in hstack")
    data = [sum((m.data[i] for m in ms), []) for i in range(rows)]
    return Matrix(f, rows, sum(m.cols for m in ms), data)


def vstack(ms) -> Matrix:
    ms = list(ms)
    f = ms[0].field
    cols = ms[0].cols
    if any(m.cols != cols for m in ms):
        raise ValueError("column count mismatch in vstack")
    data = [row for m in ms for row in m.data]
    return Matrix(f, len(data), cols, data)


# ---------------------------------------------------------------------------
# Row reduction


def rref(m: Matrix):
    """Unique reduced row echelon form.

    Returns (reduced, pivots, rank); pivot columns are strictly increasing.
    """
    if m.rows == 0 or m.cols == 0:
        return m, [], 0
    if m.field.is_prime_field:
        red, pivots = _rref_fp(m)
    else:
        red, pivots = _rref_q(m)
    return red, pivots, len(pivots)


def _rref_fp(m: Matrix):
    p = m.field.p
    if not _fits_int64(p, 2):
        return _rref_generic(m)
    a = _np(m) % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return _from_np(m.field, a), pivots


def _rref_generic(m: Matrix):
    # field-generic Gauss-Jordan, used only for very large primes
    f = m.field
    a = [list(row) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if a[i][c] != f.zero), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != f.zero:
                factor = a[i][c]
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(f, m.rows, m.cols, a), pivots


def _int_rows(m: Matrix):
    """Clear denominators and strip content: primitive integer rows."""
    out = []
    for row in m.data:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        ints = [int(x * den) for x in row] if den != 1 else [x.numerator for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


def _reduce_int_row(row):
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def _rref_q(m: Matrix):
    work = _int_rows(m)
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        a = work[r][c]
        for i in range(r + 1, nrows):
            b = work[i][c]
            if b:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                pr = work[r]
                work[i] = _reduce_int_row([fa * x - fb * y for x, y in zip(work[i], pr)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # back-substitution over the pivot rows
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        a = work[idx][c]
        for i in range(idx):
            b = work[i][c]
            if b:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                pr = work[idx]
                work[i] = _reduce_int_row([fa * x - fb * y for x, y in zip(work[i], pr)])
    data = []
    for idx in range(nrows):
        if idx < len(pivots):
            a = work[idx][pivots[idx]]
            data.append([Fraction(x, a) for x in work[idx]])
        else:
            data.append([Fraction(0)] * ncols)
    return Matrix(m.field, nrows, ncols, data), pivots


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_basis(m: Matrix) -> Matrix:
    """Rows form the canonical basis of ker(m) acting on column vectors."""
    red, pivots, r = rref(m)
    f = m.field
    free = [j for j in range(m.cols) if j not in set(pivots)]
    rows = []
    for jf in free:
        v = [f.zero] * m.cols
        v[jf] = f.one
        for i, jp in enumerate(pivots):
            v[jp] = f.neg(red.data[i][jf])
        rows.append(v)
    return Matrix(f, len(rows), m.cols, rows)


def solve(m: Matrix, rhs: Matrix):
    """Exact solution X of m @ X = rhs with free variables zero, or None."""
    if rhs.rows != m.rows:
        raise ValueError("rhs row count mismatch")
    aug = hstack([m, rhs]) if m.cols else rhs
    red, pivots, _ = rref(aug)
    f = m.field
    if any(p >= m.cols for p in pivots):
        return None
    x = Matrix.zeros(f, m.cols, rhs.cols)
    for i, p in enumerate(pivots):
        x.data[p] = red.data[i][m.cols:]
    return x


def left_inverse(m: Matrix) -> Matrix:
    """L with L @ m = I; requires full column rank."""
    aug = hstack([m, Matrix.identity(m.field, m.rows)])
    red, pivots, r = rref(aug)
    in_m = [p for p in pivots if p < m.cols]
    if len(in_m) != m.cols:
        raise ValueError("matrix does not have full column rank")
    rows = [red.data[i][m.cols:] for i in range(m.cols)]
    return Matrix(m.field, m.cols, m.rows, rows)


# ---------------------------------------------------------------------------
# Quotient spaces


@dataclass(frozen=True)
class QuotientSpace:
    """V/W presented with a deterministic basis.

    The quotient basis is indexed by the non-pivot columns of rref(relations);
    projection (q x a) and section (a x q) satisfy projection @ section = I
    and projection annihilates every relation row.
    """
    field: Field
    ambient_dim: int
    relations: Matrix
    quotient_dim: int
    projection: Matrix
    section: Matrix
    pivots: tuple

    def project(self, vec):
        return self.projection.apply(vec)


def quotient(field: Field, ambient_dim: int, relations: Matrix) -> QuotientSpace:
    """Quotient of k^ambient_dim by the row span of `relations`."""
    if relations.cols != ambient_dim:
        raise ValueError(f"relations have {relations.cols} columns, ambient dim is {ambient_dim}")
    red, pivots, r = rref(relations)
    free = [j for j in range(ambient_dim) if j not in set(pivots)]
    q = len(free)
    proj = Matrix.zeros(field, q, ambient_dim)
    for k, jf in enumerate(free):
        proj.data[k][jf] = field.one
        for i, jp in enumerate(pivots):
            proj.data[k][jp] = field.neg(red.data[i][jf])
    sec = Matrix.zeros(field, ambient_dim, q)
    for k, jf in enumerate(free):
        sec.data[jf][k] = field.one
    return QuotientSpace(field, ambient_dim, relations, q, proj, sec, tuple(pivots))


def drop_zero_rows(m: Matrix) -> Matrix:
    z = m.field.zero
    rows = [row for row in m.data if any(x != z for x in row)]
    return Matrix(m.field, len(rows), m.cols, rows)
