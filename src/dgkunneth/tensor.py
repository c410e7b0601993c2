"""Tensor products of DG modules.

Three layers:
  * `RingModule` / `BalancedTensorSpace`: balanced tensor products of ordinary
    (one-degree) modules over an ordinary ring, presented as quotients of the
    plain tensor product by the balancing relations (x.r) (x) y - x (x) (r.y).
  * `TensorComplex`: M (x)_A N for a right module M and a left module N, as a
    DG k-module with per-degree quotient presentations, lazily materialized.
  * degree-level maps: the bijection M^0 (x)_{A^0} N^0 -> (M (x)_A N)^0 and
    the map phi = (d_M (x) id) (+) (id (x) d_N) feeding the verification layer.

Bases are deterministic: ambient bigraded bases are ordered block-major by
the left degree (ascending), then left index, then right index; quotient
bases come from the pivot rule in `linalg.quotient`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import DescentError, failed, passed
from .dgalgebra import DGAlgebra, StructureError, degree_zero_ring
from .dgmodule import LEFT, RIGHT, CohomologyModule, DGModule
from .field import Field
from .linalg import (
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
# Ordinary modules over an ordinary ring, and balanced tensors


@dataclass(frozen=True)
class RingModule:
    """A finite-dimensional one-sided module over a degree-0 algebra."""
    ring: DGAlgebra
    side: str
    dim: int
    action: Matrix   # right: (dim, dim * r); left: (dim, r * dim)

    def __post_init__(self):
        r = self.ring.dim(0)
        if self.action.rows != self.dim or self.action.cols != self.dim * r:
            raise StructureError("ring module action has wrong shape")


def module_degree_ring_module(m: DGModule, i: int) -> RingModule:
    """M^i as a module over A^0."""
    return RingModule(degree_zero_ring(m.algebra), m.side, m.dim(i), m.action_map(i, 0))


def cohomology_ring_module(coh: CohomologyModule) -> RingModule:
    """H^i(M) as a module over H^0(A)."""
    return RingModule(coh.module.algebra.h0().ring, coh.module.side,
                      coh.dim, coh.h0_action)


def restrict_ring_module(rm: RingModule, ringmap: Matrix, new_ring: DGAlgebra) -> RingModule:
    """Pull back along a ring map new_ring -> rm.ring given by `ringmap`."""
    f = rm.ring.field
    eye = Matrix.identity(f, rm.dim)
    if rm.side == RIGHT:
        action = rm.action @ eye.kron(ringmap)
    else:
        action = rm.action @ ringmap.kron(eye)
    return RingModule(new_ring, rm.side, rm.dim, action)


def cohomology_over_degree_zero(coh: CohomologyModule) -> RingModule:
    """H^i(M) as an A^0-module via A^0 ->> H^0(A)."""
    h0 = coh.module.algebra.h0()
    return restrict_ring_module(cohomology_ring_module(coh), h0.projection,
                                degree_zero_ring(coh.module.algebra))


@dataclass(frozen=True)
class BalancedTensorSpace:
    """x (x)_R y for a right module x and a left module y over R."""
    ring: DGAlgebra
    xmod: RingModule
    ymod: RingModule
    space: QuotientSpace

    @property
    def dim(self) -> int:
        return self.space.quotient_dim

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim


def balanced_tensor(x: RingModule, y: RingModule) -> BalancedTensorSpace:
    if x.ring != y.ring:
        raise StructureError("balanced tensor over different rings")
    if x.side != RIGHT or y.side != LEFT:
        raise StructureError("balanced tensor needs (right, left) modules")
    f = x.ring.field
    dx, dy, dr = x.dim, y.dim, x.ring.dim(0)
    # row c*dx*dy + u*dy + v is (x_u . r_c) (x) y_v - x_u (x) (r_c . y_v), where
    # x_u . r_c is xa[s, u, c] at x_s and r_c . y_v is ya[s, c, v] at y_s
    xa = x.action.arr.reshape(dx, dx, dr)
    ya = y.action.arr.reshape(dy, dr, dy)
    s, u, c = xa.nonzero()
    v = np.arange(dy)
    right = (((c * dx + u) * dy)[:, None] + v, (s * dy)[:, None] + v, xa[s, u, c][:, None])
    s, c, v = ya.nonzero()
    off = np.arange(dx)[:, None] * dy   # u*dy for every u
    left = (c * dx * dy + v + off, s + off, -ya[s, c, v])
    rel = drop_zero_rows(from_entries(f, dr * dx * dy, dx * dy, (right, left)))
    return BalancedTensorSpace(x.ring, x, y, quotient(f, dx * dy, rel))


def induced_balanced_map(src: BalancedTensorSpace, dst: BalancedTensorSpace,
                         fmat: Matrix, gmat: Matrix, check: bool = True) -> Matrix:
    """The map f (x) g between balanced tensor quotients.

    `fmat` and `gmat` must be equivariant; with `check` the relation span of
    the source is verified to map into the relation span of the target.
    """
    amb = fmat.kron(gmat)
    out = dst.space.projection @ amb @ src.space.section
    if check and src.space.relations.rows:
        img = dst.space.projection @ amb @ src.space.relations.transpose()
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
        plo = max(self.m.window[0], t - self.n.window[1])
        phi = min(self.m.window[1], t - self.n.window[0])
        for p in range(plo, phi + 1):
            dmp, dnq = self.m.dim(p), self.n.dim(t - p)
            if dmp and dnq:
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
                if dmp == 0 or dnq == 0:
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
        return self.space(t).quotient_dim

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


@dataclass(frozen=True)
class CohomologySpace:
    """H at one degree of a complex given by matrices d_in, d_out."""
    degree: int
    cocycle_incl: Matrix
    space: QuotientSpace
    class_map: Matrix
    rep_map: Matrix

    @property
    def dim(self) -> int:
        return self.space.quotient_dim


def space_cohomology(field: Field, degree: int, d_in: Matrix, d_out: Matrix) -> CohomologySpace:
    """ker(d_out)/im(d_in) with class and representative maps."""
    parts = kernel_mod_image(field, d_in, d_out)
    if parts is None:
        raise StructureError("image is not contained in the kernel (d^2 != 0)")
    return CohomologySpace(degree, *parts)


def tensor_cohomology(tc: TensorComplex, t: int) -> CohomologySpace:
    return space_cohomology(tc.field, t, tc.diff(t - 1), tc.diff(t))


# ---------------------------------------------------------------------------
# Degree-level maps


def degree0_iso_check(tc: TensorComplex, bal: BalancedTensorSpace):
    """Matrix and bijectivity evidence for M^0 (x)_{A^0} N^0 -> (M (x)_A N)^0.

    `tc` is M (x)_A N, with windows bounded above by 0, and `bal` is
    M^0 (x)_{A^0} N^0 (the middle space of `phi_summands`).  Returns
    (matrix, CheckResult).
    """
    if tc.m.window[1] > 0 or tc.n.window[1] > 0:
        raise StructureError("degree-0 comparison needs windows <= 0")
    sp = tc.space(0)
    # ambient spaces agree: the only block in degree 0 is (0, 0)
    mat = sp.projection @ bal.space.section
    ok = bal.dim == sp.quotient_dim and rank(mat) == bal.dim
    if ok:
        return mat, passed("degree0_obvious_map_bijective",
                           dim=bal.dim)
    return mat, failed("degree0_obvious_map_bijective",
                       counterexample={"balanced_dim": bal.dim,
                                       "tensor_dim": sp.quotient_dim})


def phi_summands(m: DGModule, n: DGModule):
    """(B1, B2, Mid, phi1, phi2) for phi: B1 (+) B2 -> Mid = M^0 (x)_{A^0} N^0."""
    b1 = balanced_tensor(module_degree_ring_module(m, -1),
                         module_degree_ring_module(n, 0))
    b2 = balanced_tensor(module_degree_ring_module(m, 0),
                         module_degree_ring_module(n, -1))
    mid = balanced_tensor(module_degree_ring_module(m, 0),
                          module_degree_ring_module(n, 0))
    f = m.field
    phi1 = induced_balanced_map(b1, mid, m.diff_map(-1), Matrix.identity(f, n.dim(0)))
    phi2 = induced_balanced_map(b2, mid, Matrix.identity(f, m.dim(0)), n.diff_map(-1))
    return b1, b2, mid, phi1, phi2


def minus1_comparison(tc: TensorComplex, b1: BalancedTensorSpace,
                      b2: BalancedTensorSpace) -> Matrix:
    """The comparison map B1 (+) B2 -> (M (x)_A N)^{-1} on quotient bases,
    for the summands B1 = M^{-1} (x)_{A^0} N^0 and B2 = M^0 (x)_{A^0} N^{-1}
    of `phi_summands` and tc = M (x)_A N."""
    return tc.space(-1).projection @ hstack([
        tc.embed_block(-1, -1, b1.ambient_dim) @ b1.space.section,
        tc.embed_block(-1, 0, b2.ambient_dim) @ b2.space.section])


def tensor_map(src: TensorComplex, dst: TensorComplex, fmaps, gmaps, t: int,
               check: bool = True) -> Matrix:
    """Quotient-level matrix of f (x) g at degree t.

    `fmaps(p)` and `gmaps(q)` return the degree components of strict
    morphisms m_src -> m_dst and n_src -> n_dst.  With `check`, relation
    rows of the source are verified to map into the target relation span.
    """
    tgt = {p: off for p, q, off, dmp, dnq in dst.blocks(t)}
    # a source block whose target block has a zero factor maps to zero
    blocks = [(tgt[p], off, fmaps(p).kron(gmaps(q)).arr)
              for p, q, off, dmp, dnq in src.blocks(t) if p in tgt]
    amb = from_blocks(src.field, dst.ambient_dim(t), src.ambient_dim(t), blocks)
    sp, dp = src.space(t), dst.space(t)
    if check and sp.relations.rows:
        img = dp.projection @ amb @ sp.relations.transpose()
        if not img.is_zero():
            raise DescentError(f"tensor map does not descend at degree {t}")
    return dp.projection @ amb @ sp.section
