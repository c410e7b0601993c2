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

Bases are deterministic: ambient bigraded bases are ordered block-major by
the left degree (ascending), then left index, then right index; quotient
bases come from the pivot rule in `linalg.quotient`.
"""
from __future__ import annotations

import numpy as np

from .checks import DescentError, failed, passed
from .dgalgebra import StructureError
from .dgmodule import LEFT, RIGHT, DGModule
from .field import Field
from .linalg import (
    Cohomology,
    Matrix,
    QuotientSpace,
    drop_zero_rows,
    from_blocks,
    from_entries,
    hstack,
    kernel_mod_image,
    quotient,
    rank,
    solve,  # unused here; perfbench/test_perfbench.py asserts this by-name import
)


# ---------------------------------------------------------------------------
# Balanced tensors over an ordinary ring


def balanced_tensor(xact: Matrix, yact: Matrix) -> QuotientSpace:
    """x (x)_R y, where `xact` is the right action x (x) R -> x, a
    (dim x) x (dim x * dim R) matrix, and `yact` the left action
    R (x) y -> y, a (dim y) x (dim R * dim y) matrix."""
    f = xact.field
    dx, dy = xact.rows, yact.rows
    if xact.cols * dy != yact.cols * dx:
        raise StructureError("balanced tensor over rings of different dimensions")
    dr = (xact.cols + yact.cols) // (dx + dy) if dx + dy else 0   # dim R
    # row c*dx*dy + u*dy + v is (x_u . r_c) (x) y_v - x_u (x) (r_c . y_v), where
    # x_u . r_c is xa[s, u, c] at x_s and r_c . y_v is ya[s, c, v] at y_s
    xa = xact.arr.reshape(dx, dx, dr)
    ya = yact.arr.reshape(dy, dr, dy)
    s, u, c = xa.nonzero()
    v = np.arange(dy)
    right = (((c * dx + u) * dy)[:, None] + v, (s * dy)[:, None] + v, xa[s, u, c][:, None])
    s, c, v = ya.nonzero()
    off = np.arange(dx)[:, None] * dy   # u*dy for every u
    left = (c * dx * dy + v + off, s + off, -ya[s, c, v])
    rel = drop_zero_rows(from_entries(f, dr * dx * dy, dx * dy, (right, left)))
    return quotient(f, dx * dy, rel)


def induced_balanced_map(src: QuotientSpace, dst: QuotientSpace,
                         fmat: Matrix, gmat: Matrix) -> Matrix:
    """The map f (x) g between balanced tensor quotients.

    `fmat` and `gmat` must be equivariant: the relation span of the source
    is verified to map into the relation span of the target.
    """
    amb = fmat.kron(gmat)
    out = dst.projection @ amb @ src.section
    if src.relations.rows:
        img = dst.projection @ amb @ src.relations.transpose()
        if not img.is_zero():
            raise DescentError("induced map does not descend to the balanced quotient")
    return out


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
        self._spaces = {}
        self._rels = {}
        self._diffs = {}

    def blocks(self, t: int):
        """Bigraded blocks (p, q, offset, dim M^p, dim N^q) with p ascending."""
        out = []
        off = 0
        for p in self.m.degrees():
            dmp, dnq = self.m.dim(p), self.n.dim(t - p)
            if dnq:
                out.append((p, t - p, off, dmp, dnq))
                off += dmp * dnq
        return out

    def ambient_dim(self, t: int) -> int:
        bl = self.blocks(t)
        if not bl:
            return 0
        p, q, off, dmp, dnq = bl[-1]
        return off + dmp * dnq

    def _block_offset(self, t: int, p: int):
        for bp, bq, off, dmp, dnq in self.blocks(t):
            if bp == p:
                return off, dmp, dnq
        return None

    def relations(self, t: int) -> Matrix:
        if t in self._rels:
            return self._rels[t]
        f = self.field
        offsets = {p: off for p, q, off, dmp, dnq in self.blocks(t)}
        # rows (j, p, u, c, v): (m_u . a_c) (x) n_v - m_u (x) (a_c . n_v) for
        # m_u in M^p, a_c in A^j, n_v in N^{t-p-j}, in blocks (p+j, .) and (p, .)
        blocks = []
        nrows = 0
        a = self.algebra
        for j in a.degrees():
            dj = a.dim(j)
            if dj == 0:
                continue
            for p in self.m.degrees():
                dmp = self.m.dim(p)
                q = t - p - j
                dnq = self.n.dim(q)
                if dnq == 0:
                    continue
                if p + j in offsets:
                    act_m = self.m.action_map(p, j)           # M^p (x) A^j -> M^{p+j}
                    blocks.append((nrows, offsets[p + j],
                                   act_m.kron(Matrix.identity(f, dnq)).arr.T))
                if p in offsets:
                    act_n = self.n.action_map(q, j)           # A^j (x) N^q -> N^{q+j}
                    blocks.append((nrows, offsets[p],
                                   -Matrix.identity(f, dmp).kron(act_n).arr.T))
                nrows += dmp * dj * dnq
        rel = drop_zero_rows(from_blocks(f, nrows, self.ambient_dim(t), blocks))
        self._rels[t] = rel
        return rel

    def space(self, t: int) -> QuotientSpace:
        if t not in self._spaces:
            self._spaces[t] = quotient(self.field, self.ambient_dim(t), self.relations(t))
        return self._spaces[t]

    def dim(self, t: int) -> int:
        return self.space(t).dim

    def ambient_diff(self, t: int) -> Matrix:
        f = self.field
        tgt = {p: off for p, q, off, dmp, dnq in self.blocks(t + 1)}
        blocks = []
        for p, q, off, dmp, dnq in self.blocks(t):
            # d(x (x) y) = d(x) (x) y + (-1)^p x (x) d(y)
            dm = self.m.diff_map(p)
            if p + 1 in tgt and dm.rows:
                blocks.append((tgt[p + 1], off, dm.kron(Matrix.identity(f, dnq)).arr))
            dn_map = self.n.diff_map(q)
            if p in tgt and dn_map.rows:
                term = Matrix.identity(f, dmp).kron(dn_map).arr
                blocks.append((tgt[p], off, -term if p % 2 else term))
        return from_blocks(f, self.ambient_dim(t + 1), self.ambient_dim(t), blocks)

    def diff(self, t: int) -> Matrix:
        if t in self._diffs:
            return self._diffs[t]
        amb = self.ambient_diff(t)
        sp, sp1 = self.space(t), self.space(t + 1)
        rel = self.space(t).relations
        if rel.rows:
            img = sp1.projection @ amb @ rel.transpose()
            if not img.is_zero():
                raise DescentError(f"tensor differential does not descend at degree {t}")
        d = sp1.projection @ amb @ sp.section
        self._diffs[t] = d
        return d

    def embed_block(self, t: int, p: int, cols: int) -> Matrix:
        """Ambient embedding of the (p, t-p) block as a matrix."""
        blk = self._block_offset(t, p)
        blocks = []
        if blk is not None:
            off, dmp, dnq = blk
            blocks.append((off, 0, Matrix.identity(self.field, min(cols, dmp * dnq)).arr))
        return from_blocks(self.field, self.ambient_dim(t), cols, blocks)


# ---------------------------------------------------------------------------
# k-linear cohomology of a presented complex degree


def tensor_cohomology(tc: TensorComplex, t: int) -> Cohomology:
    """H^t(M (x)_A N) = ker(d^t)/im(d^{t-1})."""
    coh = kernel_mod_image(tc.field, tc.diff(t - 1), tc.diff(t))
    if coh is None:
        raise StructureError("image is not contained in the kernel (d^2 != 0)")
    return coh


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
    return tc.space(-1).projection @ hstack([
        tc.embed_block(-1, -1, b1.ambient_dim) @ b1.section,
        tc.embed_block(-1, 0, b2.ambient_dim) @ b2.section])


def tensor_map(src: TensorComplex, dst: TensorComplex, fmaps, gmaps, t: int) -> Matrix:
    """Quotient-level matrix of f (x) g at degree t.

    `fmaps(p)` and `gmaps(q)` return the degree components of strict
    morphisms m_src -> m_dst and n_src -> n_dst.  Relation rows of the
    source are verified to map into the target relation span.
    """
    tgt = {p: off for p, q, off, dmp, dnq in dst.blocks(t)}
    # a source block whose target block has a zero factor maps to zero
    blocks = [(tgt[p], off, fmaps(p).kron(gmaps(q)).arr)
              for p, q, off, dmp, dnq in src.blocks(t) if p in tgt]
    amb = from_blocks(src.field, dst.ambient_dim(t), src.ambient_dim(t), blocks)
    sp, dp = src.space(t), dst.space(t)
    if sp.relations.rows:
        img = dp.projection @ amb @ sp.relations.transpose()
        if not img.is_zero():
            raise DescentError(f"tensor map does not descend at degree {t}")
    return dp.projection @ amb @ sp.section
