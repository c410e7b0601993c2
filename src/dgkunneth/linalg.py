"""Exact dense linear algebra over Q or F_p.

A `Matrix` wraps one read-only 2-D numpy array, and every kernel here takes
arrays and returns a new array: nothing is written in place after a matrix
is built.  The dtype is the field's `dtype`.  Over F_p the entries are the
canonical residues in [0, p), stored as int64 when the product of two
residues fits (`fits_int64(p, 1)`, i.e. p <= 2^31), and as Python ints
in an object array otherwise.  Over Q the array has object dtype and holds
`Fraction`s.

Linear maps use the column convention throughout: a map V -> W is a
(dim W) x (dim V) matrix acting on column vectors, and bilinear maps are
matrices on Kronecker-ordered tensor bases (index of e_u (x) e_v is
u*dimV2 + v).  A vector is an n x 1 `Matrix`, and a batch of vectors is
the columns of one; coordinate lists appear only in JSON.  A map applied
to one tensor factor, B @ (X (x) I) or B @ (I (x) X), is one product with X
(`times_kron_eye`, `times_eye_kron`) that never builds the Kronecker product.

One elimination loop serves every field and dtype (`_reduced_rows`): it
works on sparse rows, {column: entry} dicts of the nonzero entries, with
Python ints mod p over F_p and Fractions over Q, and only the final RREF
is written as an array.  Every int64 product is guarded by `fits_int64`
and is computed on Python ints when an accumulation could overflow; over Q
products run on integer matrices over one common denominator.
Results are canonical: the reduced row echelon form is unique, and every
derived basis (kernels, quotient bases) is determined by its pivot columns.
The kernel basis vector of free column j is 1 at j and 0 at the other free
columns, so as columns the kernel basis has the identity in its free rows:
a kernel vector's coordinates are its free entries (`kernel_mod_image`).

`kernel_mod_image`, tensor presentations (by action blocks) and
`resolve.semifree_resolve` look (kernel name, *arguments) up by value in
`Field.memo`, the memo of the field object they get, as small presentations
and modules recur across instances (`memoized`).  It stores calls whose
arguments hold at most 256 cells only, counting ambient**2 besides for a
presentation, and at most 1,024 entries, oldest out first.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import lcm
from operator import attrgetter

import numpy as np

from .field import Field, fits_int64

_SHARED_GATE, _SHARED_CAP = 256, 1024   # the most cells a kept matrix holds, the matrices per field


def _zeros(f: Field, rows: int, cols: int) -> np.ndarray:
    if f.p:
        return np.zeros((rows, cols), dtype=f.dtype)
    out = np.empty((rows, cols), dtype=object)
    out.fill(f.zero)
    return out


def _share(f: Field, key, arr: np.ndarray) -> "Matrix":
    """The matrix of `arr`, kept in `f.shared` under `key` when it holds at
    most `_SHARED_GATE` cells: (rows, cols) for zeros, n for the n x n
    identity; at most `_SHARED_CAP`, oldest out first."""
    m = Matrix._of(f, arr)
    if arr.size <= _SHARED_GATE:
        f.shared[key] = m
        if len(f.shared) > _SHARED_CAP:
            del f.shared[next(iter(f.shared))]
    return m


def _reduce(f: Field, arr: np.ndarray) -> np.ndarray:
    """Canonical residues of integer-valued entries; the identity over Q."""
    return arr % f.p if f.p else arr


class Matrix:
    """Dense matrix over an exact field, wrapping one read-only 2-D array.

    `arr` is int64 over F_p for p <= 2^31 and object otherwise (Python ints
    over larger F_p, Fractions over Q); its entries are canonical field
    elements.  Writing into `arr` raises; operations return new matrices.
    """

    __slots__ = ("field", "rows", "cols", "arr")

    def __init__(self, field: Field, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        arr = np.array(data, dtype=field.dtype)
        if rows == 0 and len(data) == 0:
            arr = arr.reshape(0, cols)
        if arr.shape != (rows, cols):
            raise ValueError(f"shape mismatch: want {rows}x{cols}")
        self._set(field, _reduce(field, arr))

    def _set(self, field: Field, arr: np.ndarray):
        arr.setflags(write=False)
        self.field = field
        self.rows, self.cols = arr.shape
        self.arr = arr

    @classmethod
    def _of(cls, field: Field, arr: np.ndarray) -> "Matrix":
        """Wrap a fresh array already holding canonical elements of the
        field's dtype; the array becomes read-only."""
        m = cls.__new__(cls)
        m._set(field, arr)
        return m

    # Zero and identity matrices are read-only, so one instance per small shape
    # is shared by every caller, on the field object it was built over (`_share`).
    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        m = field.shared.get((rows, cols))
        return _share(field, (rows, cols), _zeros(field, rows, cols)) if m is None else m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = field.shared.get(n)
        if m is None:
            a = _zeros(field, n, n)
            np.fill_diagonal(a, field.one)
            m = _share(field, n, a)
        return m

    @classmethod
    def from_int_rows(cls, field: Field, rows, cols: int | None = None) -> "Matrix":
        data = [[field.of_int(x) for x in r] for r in rows]
        ncols = cols if cols is not None else (len(data[0]) if data else 0)
        return cls(field, len(data), ncols, data)

    @classmethod
    def column(cls, field: Field, vec) -> "Matrix":
        return cls(field, len(vec), 1, np.array(vec, dtype=field.dtype).reshape(-1, 1))

    def columns(self, index) -> "Matrix":
        """The columns picked by a slice or an index list, in that order."""
        return Matrix._of(self.field, self.arr[:, index])

    def rows_at(self, index) -> "Matrix":
        """The rows picked by a slice or an index list, in that order."""
        return Matrix._of(self.field, self.arr[index])

    def is_zero(self) -> bool:
        return not self.arr.any()

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self.arr.T)

    def __eq__(self, other):
        if not isinstance(other, Matrix) or (self.field is not other.field
                                             and self.field != other.field):
            return False
        a, b = self.arr, other.arr
        if a.shape != b.shape:
            return False
        if a.dtype == b.dtype == np.int64:
            return a.tobytes() == b.tobytes()
        return bool(np.array_equal(a, b))

    def __hash__(self):
        if self.arr.dtype == np.int64:
            return hash((self.rows, self.cols, self.arr.tobytes()))
        return hash((self.rows, self.cols, tuple(self.arr.ravel().tolist())))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def __add__(self, other) -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(self.field, _reduce(self.field, self.arr + other.arr))

    def __sub__(self, other) -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(self.field, _reduce(self.field, self.arr - other.arr))

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.field, _reduce(self.field, -self.arr))

    def scale(self, c) -> "Matrix":
        """c times self, for one scalar c or a list of one scalar per column."""
        c = np.asarray(c, dtype=self.arr.dtype)
        return Matrix._of(self.field, _reduce(self.field, self.arr * c))

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_product(other, other.rows, other.cols)
        return Matrix._of(self.field, _matmul(self.field, self.arr, other.arr))

    def _check_product(self, other: "Matrix", rows: int, cols: int):
        """Raise unless self times a rows x cols matrix over other's field is defined."""
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {rows}x{cols}")

    def times_kron_eye(self, x: "Matrix", k: int) -> "Matrix":
        """self @ (x (x) I_k) as one product with x, by (A (x) B) vec(Y) =
        vec(B Y A^T) (Van Loan 2000): column a*k + t of self meets row a of x."""
        self._check_product(x, x.rows * k, x.cols * k)
        s = self.arr.reshape(self.rows, x.rows, k).transpose(0, 2, 1)
        prod = _matmul(self.field, s.reshape(self.rows * k, x.rows), x.arr)
        prod = prod.reshape(self.rows, k, x.cols).transpose(0, 2, 1)
        return Matrix._of(self.field, prod.reshape(self.rows, x.cols * k))

    def times_eye_kron(self, k: int, x: "Matrix") -> "Matrix":
        """self @ (I_k (x) x) as one product with x: each run of x.rows
        columns of self is one row of it."""
        self._check_product(x, x.rows * k, x.cols * k)
        prod = _matmul(self.field, self.arr.reshape(self.rows * k, x.rows), x.arr)
        return Matrix._of(self.field, prod.reshape(self.rows, k * x.cols))

    def kron_columns(self, other: "Matrix") -> "Matrix":
        """Column-wise Kronecker product: column s is self[:, s] (x) other[:, s]."""
        if self.cols != other.cols:
            raise ValueError("column count mismatch in kron_columns")
        prod = (self.arr[:, None] * other.arr[None]).reshape(self.rows * other.rows, self.cols)
        return Matrix._of(self.field, _reduce(self.field, prod))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; acts on x (x) y with index u*cols2 + v."""
        f = self.field
        if f is not other.field and f != other.field:
            raise ValueError("field mismatch")
        a, b = self.arr, other.arr
        (ra, ca), (rb, cb) = a.shape, b.shape
        if a.dtype == object:
            # Python-level products only for pairs of nonzero entries: most
            # entries of the tensor presentations are zero
            out = _zeros(f, ra * rb, ca * cb)
            i, j = a.nonzero()
            k, l = b.nonzero()
            out[np.add.outer(i * rb, k), np.add.outer(j * cb, l)] = \
                _reduce(f, np.multiply.outer(a[i, j], b[k, l]))
            return Matrix._of(f, out)
        # the product of two residues fits int64 whenever that is the dtype
        prod = a[:, None, :, None] * b[None, :, None, :]
        return Matrix._of(f, prod.reshape(ra * rb, ca * cb) % f.p)


def _matmul(f: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows, inner = a.shape
    if rows == 0 or inner == 0 or b.shape[1] == 0:
        return _zeros(f, rows, b.shape[1])
    if not f.p:
        return _matmul_q(a, b)
    if a.dtype == object or not fits_int64(f.p, inner):
        prod = a.astype(object) @ b.astype(object) % f.p
        return prod.astype(a.dtype)
    return a @ b % f.p


_numerator = np.frompyfunc(attrgetter("numerator"), 1, 1)
_denominator = np.frompyfunc(attrgetter("denominator"), 1, 1)


def _scale_to_int(a: np.ndarray):
    """(integer object array, common denominator) with a = ints / den."""
    dens = _denominator(a)
    den = lcm(*set(dens.flat))
    return _numerator(a) * (den // dens), den


_fraction = np.frompyfunc(Fraction, 2, 1)


def _fractions(num: np.ndarray, den: int) -> np.ndarray:
    """Fraction(num, den) entrywise for a 2-D integer object array.  Only the
    nonzero entries are built: most entries over Q are zero."""
    out = np.full(num.shape, Fraction(0), dtype=object)
    rows, cols = num.nonzero()
    out[rows, cols] = _fraction(num[rows, cols], den)
    return out


def _matmul_q(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # rational product via integer matrices: int64 when it cannot overflow
    ia, da = _scale_to_int(a)
    ib, db = _scale_to_int(b)
    ma = np.abs(ia).max()
    mb = np.abs(ib).max()
    if ma * mb * a.shape[1] < 2 ** 62:
        prod = ia.astype(np.int64) @ ib.astype(np.int64)
    else:
        prod = ia @ ib
    return _fractions(prod.astype(object), da * db)


def hstack(ms) -> Matrix:
    ms = list(ms)
    if any(m.rows != ms[0].rows for m in ms):
        raise ValueError("row count mismatch in hstack")
    return Matrix._of(ms[0].field, np.hstack([m.arr for m in ms]))


def vstack(ms) -> Matrix:
    ms = list(ms)
    if any(m.cols != ms[0].cols for m in ms):
        raise ValueError("column count mismatch in vstack")
    return Matrix._of(ms[0].field, np.vstack([m.arr for m in ms]))


def from_blocks(field: Field, rows: int, cols: int, blocks) -> Matrix:
    """The rows x cols matrix that is the sum of the given blocks.

    Each block is (r, c, array): a 2-D array of integer or field entries
    (negated entries allowed) placed with its top-left corner at (r, c).
    Overlapping blocks add up.
    """
    out = _zeros(field, rows, cols)
    for r, c, blk in blocks:
        h, w = blk.shape
        region = out[r:r + h, c:c + w]
        if out.dtype == object:
            # most block entries over Q are zero: add only the others
            nz = blk != 0
            region[nz] += blk[nz]
        else:
            region += blk
    return Matrix._of(field, _reduce(field, out))


def from_entries(field: Field, rows: int, cols: int, entries) -> Matrix:
    """The rows x cols sum of items (row indices, column indices, values),
    each broadcast together and naming no position twice."""
    out = _zeros(field, rows, cols)
    for i, j, vals in entries:
        out[i, j] += vals
    return Matrix._of(field, _reduce(field, out))


# ---------------------------------------------------------------------------
# Row reduction


def rref(m: Matrix):
    """Unique reduced row echelon form.

    Returns (reduced, pivots, rank); pivot columns are strictly increasing.
    """
    if m.rows == 0 or m.cols == 0:
        return m, [], 0
    kept = _reduced_rows(m)
    pivots = sorted(kept)
    flat, vals = [], []
    for i, c in enumerate(pivots):
        row = kept[c]
        flat += [i * m.cols + j for j in row]
        vals += row.values()
    out = _zeros(m.field, m.rows, m.cols)
    out.put(flat, vals)
    return Matrix._of(m.field, out), pivots, len(pivots)


def rank(m: Matrix) -> int:
    return len(_reduced_rows(m)) if m.rows and m.cols else 0


def _reduced_rows(m: Matrix) -> dict:
    """The nonzero rows of rref(m) as {pivot column: {column: entry}}.

    Rows enter in order.  Every kept row is 1 at its pivot column and 0 at
    the other pivot columns, so a new row is reduced by one pass over the
    pivot columns it holds.  If a nonzero row remains, its leading column
    becomes a pivot and is cleared from the kept rows that hold it, found
    through `holders`; an entry there is stale once the kept row's entry
    has cancelled.
    """
    p = m.field.p
    rows = [{} for _ in range(m.rows)]
    i, j = m.arr.nonzero()
    for r, c, x in zip(i.tolist(), j.tolist(), m.arr[i, j].tolist()):
        rows[r][c] = x
    kept = {}
    holders = {}          # column -> pivot columns of kept rows that held it
    for row in rows:
        for c in [c for c in row if c in kept]:
            _subtract(row, row[c], kept[c], p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p) if p else 1 / row[lead]
        row = {c: x * inv % p for c, x in row.items()} if p else \
            {c: x * inv for c, x in row.items()}
        others = [c for c in row if c != lead]
        for c in others:
            holders.setdefault(c, set()).add(lead)
        for k in holders.pop(lead, ()):
            krow = kept[k]
            if lead in krow:
                _subtract(krow, krow[lead], row, p)
                for c in others:
                    holders[c].add(k)
        kept[lead] = row
    return kept


def _subtract(row: dict, a, other: dict, p):
    """row -= a * other on {column: entry} rows, over F_p or (p None) Q;
    entries that cancel are dropped."""
    for c, x in other.items():
        y = row.get(c, 0) - a * x
        if p:
            y %= p
        if y:
            row[c] = y
        else:
            del row[c]


def _null_rows(f: Field, red: np.ndarray, pivots, n: int):
    """(rows, free): for each non-pivot column j, in order, the row
    e_j - sum_i red[i, j] e_{pivots[i]}; these span the kernel of `red`."""
    pset = set(pivots)
    free = [j for j in range(n) if j not in pset]
    out = _zeros(f, len(free), n)
    out[range(len(free)), free] = f.one
    if pivots:
        out[:, pivots] = _reduce(f, -red[:len(pivots)][:, free].T)
    return out, free


def kernel_basis(m: Matrix) -> Matrix:
    """Rows form the canonical basis of ker(m) acting on column vectors."""
    red, pivots, _ = rref(m)
    return Matrix._of(m.field, _null_rows(m.field, red.arr, pivots, m.cols)[0])


def solve(m: Matrix, rhs: Matrix):
    """Exact solution X of m @ X = rhs with free variables zero, or None."""
    if rhs.rows != m.rows:
        raise ValueError("rhs row count mismatch")
    aug = hstack([m, rhs]) if m.cols else rhs
    red, pivots, r = rref(aug)
    if pivots and pivots[-1] >= m.cols:
        return None
    x = _zeros(m.field, m.cols, rhs.cols)
    x[pivots] = red.arr[:r, m.cols:]
    return Matrix._of(m.field, x)


_MEMO_GATE, _MEMO_CAP = 256, 1024   # the most cells a stored call reads, the entries per field
_MISS = object()


def _cells(x) -> int:
    """Entries a memoized argument holds: a matrix's, a tuple's items', a
    module's diff and action entries, and none for a number."""
    if isinstance(x, Matrix):
        return x.arr.size
    if isinstance(x, (int, np.integer)):
        return 0
    if isinstance(x, tuple):
        return sum(map(_cells, x))
    return sum(m.arr.size for m in (*x.diff.values(), *x.action.values()))


def memoized(kernel):
    """`kernel(f, *args)`, looked up by value as (kernel name, *args) in
    `f.memo`, the memo of the field object f.  Only calls whose arguments
    hold at most `_MEMO_GATE` cells, read before any key is hashed, are stored,
    a presentation (ambient dimension first, or a matrix last) counting
    ambient**2 besides; a call that raises stores nothing.  The cap is
    enforced after the kernel ran, as a kernel may store entries of its own
    on the way (a resolution the presentations of its cohomology)."""
    @wraps(kernel)
    def run(f: Field, *args):
        ambient = args[0] if isinstance(args[0], int) else getattr(args[-1], "cols", 0)
        if ambient ** 2 + sum(map(_cells, args)) > _MEMO_GATE:
            return kernel(f, *args)
        key = (kernel.__name__, *args)
        if (out := f.memo.get(key, _MISS)) is _MISS:
            out = f.memo[key] = kernel(f, *args)
            while len(f.memo) > _MEMO_CAP:
                del f.memo[next(iter(f.memo))]
        return out
    return run


@dataclass(frozen=True)
class Cohomology:
    """ker(d_out)/im(d_in) with deterministic bases."""
    cocycle_incl: Matrix          # ambient <- Z, the canonical kernel basis as columns
    space: QuotientSpace          # Z / im(d_in)
    class_map: Matrix             # H <- ambient (valid on cocycles only)
    rep_map: Matrix               # ambient <- H

    @property
    def dim(self) -> int:
        return self.space.dim


@memoized
def kernel_mod_image(f: Field, d_in: Matrix, d_out: Matrix) -> Cohomology | None:
    """ker(d_out)/im(d_in), or None when im(d_in) is not inside ker(d_out).
    The kernel basis has the identity in its rows `free`, so d_in has its
    rows `free` as coordinates and class_map keeps those entries."""
    red, pivots, _ = rref(d_out)
    rows, free = _null_rows(f, red.arr, pivots, d_out.cols)
    incl, img = Matrix._of(f, rows.T), Matrix._of(f, d_in.arr[free])
    if incl @ img != d_in:
        return None
    space = quotient(f, len(free), img.transpose())
    class_map = _zeros(f, space.dim, d_out.cols)
    class_map[:, free] = space.projection.arr
    return Cohomology(incl, space, Matrix._of(f, class_map), incl @ space.section)


def left_inverse(m: Matrix) -> Matrix:
    """L with L @ m = I; requires full column rank."""
    aug = hstack([m, Matrix.identity(m.field, m.rows)])
    red, pivots, _ = rref(aug)
    if sum(1 for p in pivots if p < m.cols) != m.cols:
        raise ValueError("matrix does not have full column rank")
    return Matrix._of(m.field, red.arr[:m.cols, m.cols:].copy())


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
    dim: int
    projection: Matrix
    section: Matrix
    pivots: tuple


def quotient(field: Field, ambient_dim: int, relations: Matrix) -> QuotientSpace:
    """Quotient of k^ambient_dim by the row span of `relations`."""
    if relations.cols != ambient_dim:
        raise ValueError(f"relations have {relations.cols} columns, ambient dim is {ambient_dim}")
    if not relations.rows:
        eye = Matrix.identity(field, ambient_dim)
        return QuotientSpace(field, ambient_dim, relations, ambient_dim, eye, eye, ())
    red, pivots, _ = rref(relations)
    proj, free = _null_rows(field, red.arr, pivots, ambient_dim)
    q = len(free)
    sec = _zeros(field, ambient_dim, q)
    sec[free, range(q)] = field.one
    return QuotientSpace(field, ambient_dim, relations, q, Matrix._of(field, proj),
                         Matrix._of(field, sec), tuple(pivots))


def drop_zero_rows(m: Matrix) -> Matrix:
    return Matrix._of(m.field, m.arr[(m.arr != 0).any(axis=1)])
