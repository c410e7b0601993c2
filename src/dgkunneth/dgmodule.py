"""One-sided DG modules over a nonpositive DG algebra.

Covers the data model and validators, strict morphisms, degree shift,
smart truncation, free modules, and cohomology with its H^0(A)-module
structure.  `validate_module` is the one axiom checker, for algebras too
(`regular_module`), and `cohomology_space` the one d^2 != 0 check of a
presented cohomology.  A free module's generators come in runs,
everywhere in the package: a run is a block of generators of one degree,
given as a (degree, count) pair, whose d(g), or images under a map, are
the columns of one matrix.  `free_module` builds one in a pass from the
top degree down that can draw each run's d(g) from the differential just
built, and `free_map_blocks` builds a map out of a free right module into
a right module with one product per run.

A module is never written after construction: every builder makes a new
`DGModule`, nothing assigns into its `dims`, `diff` or `action`, and the
matrices are read-only.  So `cohomology` computes H^i once per module and
degree and keeps the result on the module, and `shift(m, 0)` returns m and
`smart_truncate(m, j)` for j at or above the top returns m, cache and all.

`dims` holds the nonzero dimensions only, and `degrees()` their degrees.
Loops over a module or a free layout visit those degrees alone, so the
cost follows the data; the degree window only bounds the module (for
truncation, the default top degrees of `theta` and the JSON format).

Sign conventions (fixed once, validated by every d^2/Leibniz check):
  left Leibniz   d(a.m) = d(a).m + (-1)^{|a|} a.d(m)
  right Leibniz  d(m.a) = d(m).a + (-1)^{|m|} m.d(a)
  shift          M[k]^i = M^{i+k}, d_{M[k]} = (-1)^k d_M; the right action
                 is untwisted, the left action twists by (-1)^{k|a|}
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dgalgebra import DGAlgebra, StructureError, Violation, nonzero_dims
from .field import Field
from .linalg import (
    Cohomology,
    Matrix,
    from_blocks,
    kernel_basis,
    kernel_mod_image,
    solve,
)

LEFT = "left"
RIGHT = "right"


class DGModule:
    """A graded module over a DGAlgebra on a finite degree window."""

    __slots__ = ("side", "algebra", "window", "dims", "diff", "action", "_coh")

    def __init__(self, side: str, algebra: DGAlgebra, window: tuple, dims: dict,
                 diff: dict, action: dict):
        if side not in (LEFT, RIGHT):
            raise StructureError(f"unknown side {side!r}")
        self.side = side
        self.algebra = algebra
        self.window = tuple(window)
        self.dims = nonzero_dims(dims, self.window)
        self.diff = dict(diff)
        self.action = dict(action)
        self._check_shapes()
        self._coh = {}            # degree -> CohomologyModule, filled by `cohomology`

    def _check_shapes(self):
        a = self.algebra
        for i, m in self.diff.items():
            if m.rows != self.dim(i + 1) or m.cols != self.dim(i):
                raise StructureError(f"module diff at degree {i}: {m.rows}x{m.cols}")
        for (i, j), m in self.action.items():
            want = (self.dim(i + j), self.dim(i) * a.dim(j))
            if (m.rows, m.cols) != want:
                raise StructureError(f"action at ({i},{j}): {m.rows}x{m.cols}, want {want}")

    @property
    def field(self) -> Field:
        return self.algebra.field

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def degrees(self):
        """The degrees i with M^i != 0, ascending: `dims` is built in order."""
        return self.dims.keys()

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def diff_map(self, i: int) -> Matrix:
        m = self.diff.get(i)
        return Matrix.zeros(self.field, self.dim(i + 1), self.dim(i)) if m is None else m

    def action_map(self, i: int, j: int) -> Matrix:
        """Bilinear action in degree (module i, algebra j).

        Right modules: source is M^i (x) A^j; left modules: A^j (x) M^i.
        """
        m = self.action.get((i, j))
        return Matrix.zeros(self.field, self.dim(i + j), self.dim(i) * self.algebra.dim(j)) \
            if m is None else m

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, DGModule):
            return NotImplemented
        if (self.side != other.side or self.algebra != other.algebra
                or self.window != other.window or self.dims != other.dims):
            return False
        for i in self.degrees():
            if self.diff_map(i) != other.diff_map(i):
                return False
            for j in self.algebra.degrees():
                if self.action_map(i, j) != other.action_map(i, j):
                    return False
        return True

    def __hash__(self):
        # equal modules hash alike: the action is left to `__eq__`
        return hash((self.side, self.window, tuple(self.dims.items()),
                     tuple(self.diff_map(i) for i in self.degrees())))

    def __repr__(self):
        return f"DGModule({self.side}, dims={self.dims})"


def regular_module(a: DGAlgebra, side: str) -> DGModule:
    """A as a module over itself."""
    diff = {i: a.diff_map(i) for i in a.degrees()}
    action = {(i, j): a.mult_map(i, j) if side == RIGHT else a.mult_map(j, i)
              for i in a.degrees() for j in a.degrees() if a.dim(i + j)}
    return DGModule(side, a, (a.min_degree, 0), dict(a.dims), diff, action)


def _first_mismatch(lhs: Matrix, rhs: Matrix, dims: tuple) -> tuple:
    """The first column where lhs and rhs differ, as Kronecker indices over `dims`."""
    return tuple(map(int, np.unravel_index(np.argwhere(lhs.arr != rhs.arr)[0, 1], dims)))


def validate_module(m: DGModule) -> list:
    """DG module axioms: d^2, Leibniz, associativity of the action, unit.

    A `basis` names the first failing column in its Kronecker order: (m, a)
    or (a, m) for Leibniz, (m, a_j, a_k) or (a_k, a_j, m) for associativity,
    on the right or the left."""
    out = []
    a = m.algebra
    for i in m.degrees():
        if not (m.diff_map(i + 1) @ m.diff_map(i)).is_zero():
            out.append(Violation("d_squared", {"degree": i}))
    for i in m.degrees():
        di = m.dim(i)
        for j in a.degrees():
            dj = a.dim(j)
            act = m.action_map(i, j)
            lhs = m.diff_map(i + j) @ act
            if m.side == RIGHT:
                rhs = m.action_map(i + 1, j).times_kron_eye(m.diff_map(i), dj)
                t2 = m.action_map(i, j + 1).times_eye_kron(di, a.diff_map(j))
                rhs = rhs + (t2 if i % 2 == 0 else -t2)
                degrees, dims = (i, j), (di, dj)
            else:
                # stored source order is A^j (x) M^i
                t2 = m.action_map(i + 1, j).times_eye_kron(dj, m.diff_map(i))
                rhs = m.action_map(i, j + 1).times_kron_eye(a.diff_map(j), di)
                rhs = rhs + (t2 if j % 2 == 0 else -t2)
                degrees, dims = (j, i), (dj, di)
            if lhs != rhs:
                out.append(Violation("leibniz", {"degrees": degrees,
                                                 "basis": _first_mismatch(lhs, rhs, dims)}))
            for k in a.degrees():
                dk = a.dim(k)
                if m.side == RIGHT:
                    l2 = m.action_map(i + j, k).times_kron_eye(act, dk)
                    r2 = m.action_map(i, j + k).times_eye_kron(di, a.mult_map(j, k))
                else:
                    # (a b).m = a.(b m): act over A^k then A^j on the outside
                    l2 = m.action_map(i, k + j).times_kron_eye(a.mult_map(k, j), di)
                    r2 = m.action_map(i + j, k).times_eye_kron(dk, act)
                if l2 != r2:
                    dims3 = (di, dj, dk) if m.side == RIGHT else (dk, dj, di)
                    out.append(Violation("associativity", {
                        "degrees": (i, j, k), "basis": _first_mismatch(l2, r2, dims3)}))
    return out + _unit_violations(m)


def _unit_violations(m: DGModule) -> list:
    """m.1 = m (`right_unit`) or 1.m = m (`left_unit`), per degree of m."""
    out = []
    for i in m.degrees():
        di = m.dim(i)
        if m.side == RIGHT:
            got = m.action_map(i, 0).times_eye_kron(di, m.algebra.unit)
        else:
            got = m.action_map(i, 0).times_kron_eye(m.algebra.unit, di)
        if got != Matrix.identity(m.field, di):
            out.append(Violation("right_unit" if m.side == RIGHT else "left_unit", {"degree": i}))
    return out


# ---------------------------------------------------------------------------
# Strict morphisms


class StrictMorphism:
    """A degree-0, differential- and action-preserving module map."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: DGModule, target: DGModule, maps: dict):
        if source.side != target.side or source.algebra != target.algebra:
            raise StructureError("morphism endpoints incompatible")
        self.source = source
        self.target = target
        self.maps = dict(maps)
        for i, m in self.maps.items():
            if (m.rows, m.cols) != (target.dim(i), source.dim(i)):
                raise StructureError(f"morphism component at degree {i} has wrong shape")

    def map_at(self, i: int) -> Matrix:
        m = self.maps.get(i)
        return Matrix.zeros(self.source.field, self.target.dim(i), self.source.dim(i)) \
            if m is None else m

    def __eq__(self, other):
        if not isinstance(other, StrictMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        degs = set(self.maps) | set(other.maps)
        return all(self.map_at(i) == other.map_at(i) for i in degs)

    @classmethod
    def identity(cls, m: DGModule) -> "StrictMorphism":
        return cls(m, m, {i: Matrix.identity(m.field, m.dim(i)) for i in m.degrees()})

    @classmethod
    def zero(cls, source: DGModule, target: DGModule) -> "StrictMorphism":
        return cls(source, target, {})

    def compose(self, first: "StrictMorphism") -> "StrictMorphism":
        """self o first."""
        if first.target != self.source:
            raise StructureError("composition mismatch")
        degs = set(first.maps) | set(self.maps)
        maps = {i: self.map_at(i) @ first.map_at(i) for i in degs}
        return StrictMorphism(first.source, self.target, maps)


def validate_morphism(fm: StrictMorphism) -> list:
    """Chain map and equivariance; both sides of each equation start in
    the source, so only the source's degrees can break them."""
    out = []
    src, tgt = fm.source, fm.target
    a = src.algebra
    for i in src.degrees():
        if fm.map_at(i + 1) @ src.diff_map(i) != tgt.diff_map(i) @ fm.map_at(i):
            out.append(Violation("chain_map", {"degree": i}))
        for j in a.degrees():
            dj = a.dim(j)
            lhs = fm.map_at(i + j) @ src.action_map(i, j)
            if src.side == RIGHT:
                rhs = tgt.action_map(i, j).times_kron_eye(fm.map_at(i), dj)
            else:
                rhs = tgt.action_map(i, j).times_eye_kron(dj, fm.map_at(i))
            if lhs != rhs:
                out.append(Violation("equivariance", {"degrees": (i, j)}))
    return out


# ---------------------------------------------------------------------------
# Shift and truncation


def shift(m: DGModule, k: int) -> DGModule:
    """M[k] with M[k]^i = M^{i+k} and d' = (-1)^k d; M[0] is M itself."""
    if k == 0:
        return m
    lo, hi = m.window
    dims = {i - k: m.dim(i) for i in m.degrees()}
    diff = {i - k: -d if k % 2 else d for i, d in m.diff.items()}
    action = {}
    for (i, j), mat in m.action.items():
        if m.side == LEFT and (k * j) % 2 == 1:
            mat = -mat
        action[(i - k, j)] = mat
    return DGModule(m.side, m.algebra, (lo - k, hi - k), dims, diff, action)


def smart_truncate(m: DGModule, j: int) -> DGModule:
    """Degrees < j unchanged, ker(d^j) at degree j, zero above.

    Preserves cohomology in degrees <= j and kills it above.
    """
    return _truncate(m, j)[0]


def _truncate(m: DGModule, j: int):
    """`smart_truncate(m, j)` and the inclusion of its degree-j component
    into M^j, None when the truncation is m itself or zero."""
    lo, hi = m.window
    if j >= hi:
        return m, None
    if j < lo:
        return DGModule(m.side, m.algebra, (j, j), {j: 0}, {}, {}), None
    incl = kernel_basis(m.diff_map(j)).transpose()   # M^j <- ker
    dims = {i: d for i, d in m.dims.items() if i < j}
    diff = {}
    for i in dims:
        d = m.diff_map(i)
        if i + 1 == j:
            x = solve(incl, d)
            if x is None:
                raise StructureError("differential does not land in cocycles")
            diff[i] = x
        else:
            diff[i] = d
    if incl.cols:
        dims[j] = incl.cols
    action = {}
    a = m.algebra
    for i in dims:
        for ja in a.degrees():
            if i + ja not in dims:
                continue
            act = m.action_map(i, ja)
            if i == j:
                act = act.times_kron_eye(incl, a.dim(ja)) if m.side == RIGHT \
                    else act.times_eye_kron(a.dim(ja), incl)
            if i + ja == j:
                restricted = solve(incl, act)
                if restricted is None:
                    raise StructureError("action does not preserve cocycles")
                act = restricted
            action[(i, ja)] = act
    return DGModule(m.side, m.algebra, (lo, j), dims, diff, action), incl


def transport_morphism(fm: StrictMorphism, source: DGModule, target: DGModule, k: int,
                       s_in: Matrix | None = None, t_in: Matrix | None = None) -> StrictMorphism:
    """fm: M -> M' moved onto `source` = M[k] and `target` = M'[k], or onto
    their truncations at 0, whose degree-0 inclusions `_truncate` gave as
    s_in and t_in: f^{i+k} in degree i and t_in^{-1} f^k s_in in degree 0;
    fm itself on its own ends."""
    if source is fm.source and target is fm.target:
        return fm
    maps = {i: fm.map_at(i + k) for i in source.degrees()}
    if 0 in maps:
        f0 = maps[0] if s_in is None else maps[0] @ s_in
        maps[0] = f0 if t_in is None else solve(t_in, f0)
        if maps[0] is None:
            raise StructureError("morphism does not preserve cocycles")
    return StrictMorphism(source, target, maps)


# ---------------------------------------------------------------------------
# Direct sums and cones


def direct_sum(m1: DGModule, m2: DGModule) -> DGModule:
    if m1.side != m2.side or m1.algebra != m2.algebra:
        raise StructureError("direct sum endpoints incompatible")
    f = m1.field
    a = m1.algebra
    lo = min(m1.window[0], m2.window[0])
    hi = max(m1.window[1], m2.window[1])
    dims = {i: m1.dim(i) + m2.dim(i) for i in sorted({*m1.degrees(), *m2.degrees()})}
    diff = {}
    for i in dims:
        d1, d2 = m1.diff_map(i), m2.diff_map(i)
        diff[i] = from_blocks(f, dims.get(i + 1, 0), dims[i],
                              [(0, 0, d1.arr), (d1.rows, d1.cols, d2.arr)])
    action = {}
    for i in dims:
        for j in a.degrees():
            dj = a.dim(j)
            if i + j not in dims:
                continue
            a1, a2 = m1.action_map(i, j).arr, m2.action_map(i, j).arr
            tgt1, n1, n2 = m1.dim(i + j), m1.dim(i), m2.dim(i)
            if m1.side == RIGHT:
                # column u * dj + c: the summands' columns follow each other
                blocks = [(0, 0, a1), (tgt1, n1 * dj, a2)]
            else:
                # column c * dims[i] + u: interleaved per algebra basis vector c
                blocks = []
                for c in range(dj):
                    blocks.append((0, c * dims[i], a1[:, c * n1:(c + 1) * n1]))
                    blocks.append((tgt1, c * dims[i] + n1, a2[:, c * n2:(c + 1) * n2]))
            action[(i, j)] = from_blocks(f, dims[i + j], dims[i] * dj, blocks)
    return DGModule(m1.side, a, (lo, hi), dims, diff, action)


def mapping_cone(fm: StrictMorphism) -> DGModule:
    """cone(f) = target (+) source[1], d(n, m) = (d n + f m, -d m)."""
    shifted = shift(fm.source, 1)
    cone = direct_sum(fm.target, shifted)
    diff = dict(cone.diff)
    for i in cone.degrees():
        fmat, block = fm.map_at(i + 1), diff[i]
        diff[i] = from_blocks(cone.field, block.rows, block.cols,
                              [(0, 0, block.arr), (0, fm.target.dim(i), fmat.arr)])
    return DGModule(cone.side, cone.algebra, cone.window, cone.dims, diff, cone.action)


# ---------------------------------------------------------------------------
# Free modules on runs of generators


@dataclass(frozen=True)
class FreeLayout:
    """Basis bookkeeping for a free module on runs of generators.

    `runs` holds one (degree e, count n) pair per run of generators, in
    creation order, taken as given.  In degree i the basis is the list of
    pairs (g, b) for generators g with dim A^{i-e_g} > 0 and b a basis index
    of A^{i-e_g}, ordered by generator, then b; so a run is one block of
    n * dim A^{i-e} positions.  Where two runs meet, nothing changes if
    they are split or joined: the order of the basis is the same.
    """
    algebra: DGAlgebra
    runs: tuple

    def offsets(self, i: int) -> list:
        """First position of each run's block in degree i, then dim i."""
        return list(accumulate((n * self.algebra.dim(i - e) for e, n in self.runs), initial=0))

    def dim(self, i: int) -> int:
        return self.offsets(i)[-1]

    def degrees(self) -> list:
        """The degrees e + j with A^j != 0, ascending: where the module is nonzero."""
        return sorted({e + j for e, _ in self.runs for j in self.algebra.degrees()})

    def window(self):
        degrees = [e for e, _ in self.runs]
        return (min(degrees) + self.algebra.min_degree, max(degrees)) if degrees else (0, 0)


def free_module(algebra: DGAlgebra, side: str, runs, diffs=None):
    """(module, layout): the free DG module on `runs`, (degree, count) pairs
    of generators, built in one pass from the top degree down.  `diffs[r]`
    holds the d(g) of run r as the columns of one matrix in degree e + 1,
    or None when they are zero; all are zero when `diffs` is None.  Or
    `diffs` is a function `draw(d, count)` returning the d(g) of a run of
    `count` generators of degree e as columns, from d = d^{e+1} of the
    module being built: A is nonpositive, so d^{e+1} involves only generators
    above e and is final.  Callers make each d(g) a cocycle."""
    lay = FreeLayout(algebra, tuple(runs))
    f, draw = algebra.field, diffs if callable(diffs) else None
    offsets = {i: lay.offsets(i) for i in lay.degrees()}
    dims = {i: offs[-1] for i, offs in offsets.items()}
    action = {(i, j): _free_action(lay, side, offsets[i], offsets[i + j], i, j)
              for i in dims for j in algebra.degrees() if i + j in dims}
    images = [None] * len(lay.runs) if draw or diffs is None else [_nonzero(d) for d in diffs]
    diff = {}
    for i in sorted({*dims, *(e for e, _ in lay.runs)}, reverse=True):
        for r, (e, n) in enumerate(lay.runs):
            if draw and e == i:
                d = diff.get(i + 1) or Matrix.zeros(f, dims.get(i + 2, 0), dims.get(i + 1, 0))
                images[r] = _nonzero(draw(d, n))
        if i in dims:
            diff[i] = _free_diff(lay, side, images, offsets[i],
                                 offsets.get(i + 1) or lay.offsets(i + 1), action, i)
    return DGModule(side, algebra, lay.window(), dims, diff, action), lay


def _nonzero(m):
    """m, or None when it is None or zero: a zero run adds no block."""
    return None if m is None or m.is_zero() else m


def _free_action(lay: FreeLayout, side: str, src, tgt, i: int, j: int) -> Matrix:
    """The action block at (module i, algebra j); `src` and `tgt` are the
    layout's offsets in degrees i and i + j.  An absent product is zero."""
    algebra = lay.algebra
    dj = algebra.dim(j)
    blocks = []
    for r, (e, n) in enumerate(lay.runs):
        mult = algebra.mult.get((i - e, j) if side == RIGHT else (j, i - e))
        if mult is None or not mult.arr.size:
            continue
        da, h, arr = algebra.dim(i - e), mult.rows, mult.arr
        if side == RIGHT:
            # (g.e_b).e_c = g.(e_b e_c), column (src + t da + b) * dj + c for generator t
            blocks += [(tgt[r] + t * h, (src[r] + t * da) * dj, arr) for t in range(n)]
        else:
            # e_c.(e_b.g) = (e_c e_b).g, column c * dim i + src + t da + b
            blocks += [(tgt[r] + t * h, c * src[-1] + src[r] + t * da, arr[:, c * da:(c + 1) * da])
                       for c in range(dj) for t in range(n)]
    return from_blocks(algebra.field, tgt[-1], src[-1] * dj, blocks)


def _free_diff(lay: FreeLayout, side: str, images, src, tgt, action, i: int) -> Matrix:
    """d^i; `images[r]` holds the d(g) of run r as columns (None when all
    are zero), `src` and `tgt` are the offsets in degrees i and i + 1, and
    `action` is the module's action by degree pair."""
    algebra = lay.algebra
    blocks = []
    for r, (e, n) in enumerate(lay.runs):
        # d(g.a) = d(g).a + (-1)^{|g|} g.d(a) (right),
        # d(a.g) = d(a).g + (-1)^{|a|} a.d(g) (left); absent d(a) is zero
        da, dalg = algebra.dim(i - e), algebra.diff.get(i - e)
        if dalg is not None and dalg.arr.size:
            arr = -dalg.arr if side == RIGHT and e % 2 else dalg.arr
            blocks += [(tgt[r] + t * dalg.rows, src[r] + t * da, arr) for t in range(n)]
        if da and tgt[-1] and images[r] is not None:
            blocks.append((0, src[r], _run_map(side, action[e + 1, i - e], images[r], da, i - e)))
    return from_blocks(algebra.field, tgt[-1], src[-1], blocks)


def free_map_blocks(lay: FreeLayout, images, action_at, i: int, degree_shift: int) -> list:
    """`from_blocks` blocks of the degree-i matrix of g.a |-> images[g].a on
    the free right module `lay`, into a right module with action
    `action_at(k, j)` in degree (k, j).  `images[r]` holds the images of run
    r as the columns of one matrix in degree e + degree_shift, or None; runs
    past the end of `images` and zero images map to 0.  One product serves
    each run."""
    offs = lay.offsets(i)
    return [(0, offs[r], _run_map(RIGHT, action_at(e + degree_shift, i - e), imgs, da, 0))
            for r, ((e, _), imgs) in enumerate(zip(lay.runs, images))
            if (da := lay.algebra.dim(i - e)) and _nonzero(imgs) is not None]


def _run_map(side: str, act: Matrix, imgs: Matrix, da: int, sign: int):
    """The array act @ (imgs (x) I_da) on the right; (-1)^sign act @ (I_da
    (x) imgs) on the left, its columns reordered from (b, g) to (g, b)."""
    if side == RIGHT:
        return act.times_kron_eye(imgs, da).arr
    blk = act.times_eye_kron(da, imgs).arr
    blk = blk.reshape(act.rows, da, imgs.cols).transpose(0, 2, 1).reshape(blk.shape)
    return -blk if sign % 2 else blk


# ---------------------------------------------------------------------------
# Cohomology


@dataclass(frozen=True)
class CohomologyModule(Cohomology):
    """H^i(M) with deterministic basis and its H^0(A)-module structure;
    `cocycle_incl`, `class_map` and `rep_map` live in M^i."""
    degree: int
    h0_action: Matrix             # bilinear over H0(A), kron order per side


def cohomology(m: DGModule, i: int) -> CohomologyModule:
    """H^i(M) = ker(d^i)/im(d^{i-1}) with its H^0(A) action, computed on
    the first call for (m, i) and returned from `m` after that."""
    coh = m._coh.get(i)
    if coh is None:
        coh = m._coh[i] = _cohomology(m, i)
    return coh


def cohomology_space(f: Field, d_in: Matrix, d_out: Matrix) -> Cohomology:
    """ker(d_out)/im(d_in) without an H^0(A) action, from the memo: the one
    d^2 != 0 check of a presented cohomology, a module's or a tensor complex's."""
    if (coh := kernel_mod_image(f, d_in, d_out)) is None:
        raise StructureError("d^2 != 0: image not inside cocycles")
    return coh


def _cohomology(m: DGModule, i: int) -> CohomologyModule:
    coh = cohomology_space(m.field, m.diff_map(i - 1), m.diff_map(i))
    h0 = m.algebra.h0()
    # the class of rep_v . a_u (right) or a_u . rep_v (left), for all v, u at once
    if m.side == RIGHT:
        pairs = coh.rep_map.kron(h0.section)
    else:
        pairs = h0.section.kron(coh.rep_map)
    act = coh.class_map @ m.action_map(i, 0) @ pairs
    return CohomologyModule(**vars(coh), degree=i, h0_action=act)
