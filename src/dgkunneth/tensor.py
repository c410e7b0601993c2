"""Tensor products of DG modules.

Three layers:
  * `balanced_tensor`: x (x)_R y for a right module x and a left module y
    over an ordinary ring R, given by their action matrices, presented as
    the quotient of x (x) y by the balancing relations
    (x.r) (x) y - x (x) (r.y), with the maps it induces.
  * `TensorComplex`: M (x)_A N for a right module M and a left module N, as a
    DG k-module with per-degree quotient presentations, lazily materialized.
  * degree-level maps: the bijection M^0 (x)_{A^0} N^0 -> (M (x)_A N)^0 and
    the map phi = (d_M (x) id) (+) (id (x) d_N) feeding the verification layer.

`_presentation`, memoized by its blocks' dims, offsets and action matrices,
builds both quotients by `_balancing`, the one writer of balancing rows, per
block: one for a balanced tensor, one per (A^j, M^p) for degree t of
M (x)_A N.  `_descend` checks that an ambient map descends to quotients.

Bases are deterministic: ambient bigraded bases are ordered block-major by
the left degree (ascending), then left index, then right index; quotient
bases come from the pivot rule in `linalg.quotient`.
"""
from __future__ import annotations

import numpy as np

from .checks import DescentError, failed, passed
from .dgalgebra import StructureError
from .dgmodule import LEFT, RIGHT, DGModule, cohomology_space
from .field import Field
from .linalg import (
    Cohomology,
    Matrix,
    QuotientSpace,
    drop_zero_rows,
    from_blocks,
    from_entries,
    memoized,
    quotient,
    rank,
    solve,  # unused here; perfbench/test_perfbench.py asserts this by-name import
)


# ---------------------------------------------------------------------------
# Balancing relations and descent


def _balancing(xact: Matrix, yact: Matrix, dims, xoff: int, yoff: int, row0: int):
    """The `from_entries` items of the rows (x_u . r_c) (x) y_v - x_u (x) (r_c . y_v)
    for x_u in x, r_c in R and y_v in y, (dx, dr, dy) = `dims`, at row
    row0 + (u*dr + c)*dy + v.  `xact` is the action x (x) R -> x' and `yact`
    the action R (x) y -> y'; block x' (x) y starts at column `xoff` and block
    x (x) y' at column `yoff`."""
    dx, dr, dy = dims
    # x_u . r_c is column uc = u*dr + c of xact, and r_c . y_v is column
    # cv = c*dy + v of yact, so the row is row0 + uc*dy + v = row0 + u*dr*dy + cv
    s, uc = xact.arr.nonzero()
    v = np.arange(dy)
    xr = ((row0 + uc * dy)[:, None] + v, (xoff + s * dy)[:, None] + v, xact.arr[s, uc][:, None])
    s, cv = yact.arr.nonzero()
    u = np.arange(dx)[:, None]
    return xr, (row0 + u * (dr * dy) + cv, yoff + u * yact.rows + s, -yact.arr[s, cv])


def _descend(src: QuotientSpace, dst: QuotientSpace, amb: Matrix, message: str) -> Matrix:
    """The map that `amb`, from src's ambient space to dst's, induces on the
    quotient bases; DescentError(message) unless it kills src's relations."""
    pa = dst.projection @ amb
    rel = src.relations
    if rel.rows and not (pa @ rel.transpose()).is_zero():
        raise DescentError(message)
    return pa @ src.section


# ---------------------------------------------------------------------------
# Balanced tensors over an ordinary ring


@memoized
def _presentation(f: Field, amb: int, blocks: tuple) -> QuotientSpace:
    """k^amb modulo the rows `_balancing` writes for each of `blocks`, stacked."""
    items, nrows = [], 0
    for dims, xoff, yoff, xact, yact in blocks:
        items += _balancing(xact, yact, dims, xoff, yoff, nrows)
        nrows += dims[0] * dims[1] * dims[2]
    return quotient(f, amb, drop_zero_rows(from_entries(f, nrows, amb, items)))


def balanced_tensor(xact: Matrix, yact: Matrix) -> QuotientSpace:
    """x (x)_R y, where `xact` is the right action x (x) R -> x, a
    (dim x) x (dim x * dim R) matrix, and `yact` the left action
    R (x) y -> y, a (dim y) x (dim R * dim y) matrix."""
    dx, dy = xact.rows, yact.rows
    if xact.cols * dy != yact.cols * dx:
        raise StructureError("balanced tensor over rings of different dimensions")
    dr = (xact.cols + yact.cols) // (dx + dy) if dx + dy else 0   # dim R
    return _presentation(xact.field, dx * dy, (((dx, dr, dy), 0, 0, xact, yact),))


def induced_balanced_map(src: QuotientSpace, dst: QuotientSpace,
                         fmat: Matrix, gmat: Matrix) -> Matrix:
    """The map f (x) g between balanced tensor quotients.

    `fmat` and `gmat` must be equivariant: the relation span of the source
    is verified to map into the relation span of the target.
    """
    return _descend(src, dst, fmat.kron(gmat),
                    "induced map does not descend to the balanced quotient")


# ---------------------------------------------------------------------------
# The DG tensor complex M (x)_A N


class TensorComplex:
    """M (x)_A N with per-degree quotient presentations, built on demand.

    The differential is d(x (x) y) = d(x) (x) y + (-1)^{|x|} x (x) d(y),
    verified on construction to descend to each quotient.
    """

    def __init__(self, m: DGModule, n: DGModule):
        if m.side != RIGHT:
            raise StructureError("left factor must be a right module")
        if n.side != LEFT:
            raise StructureError("right factor must be a left module")
        if m.algebra != n.algebra:
            raise StructureError("tensor factors over different algebras")
        self.m = m
        self.n = n
        self.algebra = m.algebra
        self.field: Field = m.field
        self.lo = m.window[0] + n.window[0]
        self.hi = m.window[1] + n.window[1]
        self._layouts = {}
        self._spaces = {}
        self._diffs = {}

    def _layout(self, t: int):
        """(blocks, {p: offset}, ambient dim) of degree t, built once."""
        if t not in self._layouts:
            blocks, offsets, off = [], {}, 0
            for p in self.m.degrees():
                dmp, dnq = self.m.dim(p), self.n.dim(t - p)
                if dnq:
                    blocks.append((p, t - p, off, dmp, dnq))
                    offsets[p] = off
                    off += dmp * dnq
            self._layouts[t] = blocks, offsets, off
        return self._layouts[t]

    def blocks(self, t: int):
        """Bigraded blocks (p, q, offset, dim M^p, dim N^q) with p ascending."""
        return self._layout(t)[0]

    def space(self, t: int) -> QuotientSpace:
        if t not in self._spaces:
            _, offsets, amb = self._layout(t)
            # rows (j, p, u, c, v): (m_u . a_c) (x) n_v - m_u (x) (a_c . n_v) for
            # m_u in M^p, a_c in A^j, n_v in N^{t-p-j}, in blocks (p+j, .) and (p, .);
            # a block missing from degree t has a zero factor and gets no entries
            m, n, a = self.m, self.n, self.algebra
            blocks = tuple(((m.dim(p), a.dim(j), n.dim(t - p - j)), offsets.get(p + j, 0),
                            offsets.get(p, 0), m.action_map(p, j), n.action_map(t - p - j, j))
                           for j in a.degrees() for p in m.degrees() if n.dim(t - p - j))
            self._spaces[t] = _presentation(self.field, amb, blocks)
        return self._spaces[t]

    def ambient_diff(self, t: int) -> Matrix:
        f = self.field
        src, _, cols = self._layout(t)
        _, tgt, rows = self._layout(t + 1)
        blocks = []
        for p, q, off, dmp, dnq in src:
            # d(x (x) y) = d(x) (x) y + (-1)^p x (x) d(y)
            if p + 1 in tgt:
                blocks.append((tgt[p + 1], off,
                               self.m.diff_map(p).kron(Matrix.identity(f, dnq)).arr))
            if p in tgt:
                term = Matrix.identity(f, dmp).kron(self.n.diff_map(q)).arr
                blocks.append((tgt[p], off, -term if p % 2 else term))
        return from_blocks(f, rows, cols, blocks)

    def diff(self, t: int) -> Matrix:
        if t not in self._diffs:
            self._diffs[t] = _descend(self.space(t), self.space(t + 1), self.ambient_diff(t),
                                      f"tensor differential does not descend at degree {t}")
        return self._diffs[t]


# ---------------------------------------------------------------------------
# k-linear cohomology of a presented complex degree


def tensor_cohomology(tc: TensorComplex, t: int) -> Cohomology:
    """H^t(M (x)_A N) = ker(d^t)/im(d^{t-1})."""
    return cohomology_space(tc.field, tc.diff(t - 1), tc.diff(t))


# ---------------------------------------------------------------------------
# Degree-level maps


def degree0_iso_check(tc: TensorComplex, bal: QuotientSpace):
    """Matrix and bijectivity evidence for M^0 (x)_{A^0} N^0 -> (M (x)_A N)^0.

    `tc` is M (x)_A N, with windows bounded above by 0, and `bal` is
    M^0 (x)_{A^0} N^0 (the middle space of `phi_summands`).  Returns
    (matrix, CheckResult).
    """
    if tc.m.window[1] > 0 or tc.n.window[1] > 0:
        raise StructureError("degree-0 comparison needs windows <= 0")
    sp = tc.space(0)
    # ambient spaces agree: the only block in degree 0 is (0, 0)
    mat = sp.projection @ bal.section
    ok = bal.dim == sp.dim and rank(mat) == bal.dim
    if ok:
        return mat, passed("degree0_obvious_map_bijective",
                           dim=bal.dim)
    return mat, failed("degree0_obvious_map_bijective",
                       counterexample={"balanced_dim": bal.dim,
                                       "tensor_dim": sp.dim})


def phi_summands(m: DGModule, n: DGModule):
    """(B1, B2, Mid, phi1, phi2) for phi: B1 (+) B2 -> Mid = M^0 (x)_{A^0} N^0."""
    b1 = balanced_tensor(m.action_map(-1, 0), n.action_map(0, 0))
    b2 = balanced_tensor(m.action_map(0, 0), n.action_map(-1, 0))
    mid = balanced_tensor(m.action_map(0, 0), n.action_map(0, 0))
    f = m.field
    phi1 = induced_balanced_map(b1, mid, m.diff_map(-1), Matrix.identity(f, n.dim(0)))
    phi2 = induced_balanced_map(b2, mid, Matrix.identity(f, m.dim(0)), n.diff_map(-1))
    return b1, b2, mid, phi1, phi2


def minus1_comparison(tc: TensorComplex, b1: QuotientSpace, b2: QuotientSpace) -> Matrix:
    """The comparison map B1 (+) B2 -> (M (x)_A N)^{-1} on quotient bases,
    for the summands B1 = M^{-1} (x)_{A^0} N^0 and B2 = M^0 (x)_{A^0} N^{-1}
    of `phi_summands` and tc = M (x)_A N."""
    _, offsets, amb = tc._layout(-1)
    blocks = [(offsets.get(-1, 0), 0, b1.section.arr), (offsets.get(0, 0), b1.dim, b2.section.arr)]
    return tc.space(-1).projection @ from_blocks(tc.field, amb, b1.dim + b2.dim, blocks)


def tensor_map(src: TensorComplex, dst: TensorComplex, fmaps, gmaps, t: int) -> Matrix:
    """Quotient-level matrix of f (x) g at degree t.

    `fmaps(p)` and `gmaps(q)` return the degree components of strict
    morphisms m_src -> m_dst and n_src -> n_dst.  Relation rows of the
    source are verified to map into the target relation span.
    """
    blocks, _, cols = src._layout(t)
    _, tgt, rows = dst._layout(t)
    # a source block whose target block has a zero factor maps to zero
    amb = from_blocks(src.field, rows, cols, [(tgt[p], off, fmaps(p).kron(gmaps(q)).arr)
                                              for p, q, off, dmp, dnq in blocks if p in tgt])
    return _descend(src.space(t), dst.space(t), amb, f"tensor map does not descend at degree {t}")
