"""Nonpositive DG algebras: data model, axiom validation, degree-zero cohomology ring.

A DG algebra lives in degrees <= 0 with a degree +1 differential.  As for
modules, `dims` holds the nonzero dimensions only (`nonzero_dims`), so loops
over `degrees()` cost what the data does, and `min_degree` is read off
`dims`: the lowest nonzero degree, which bounds free layouts and regular
modules.  A declared bound lives in the JSON format alone.  A's axioms are
those of A as a right module over itself plus the left unit.
All structure maps follow the column convention of `linalg`: the product on
A^i x A^j is a matrix (dim A^{i+j}) x (dim A^i * dim A^j) acting on
Kronecker-ordered tensor coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .field import Field
from .linalg import Matrix, quotient, QuotientSpace


class StructureError(Exception):
    """Malformed input data (bad shapes, inconsistent dimensions)."""


@dataclass(frozen=True)
class Violation:
    """A failed axiom, with enough location data to reproduce it."""
    axiom: str
    where: dict = dc_field(default_factory=dict)

    def __str__(self):
        return f"{self.axiom} at {self.where}"


def nonzero_dims(dims: dict, window: tuple) -> dict:
    """The nonzero entries of `dims` in ascending degree; an empty window
    lo..hi, a degree outside it or a negative dimension is a StructureError."""
    lo, hi = window
    if lo > hi:
        raise StructureError(f"empty degree window {window}")
    if not all(lo <= i <= hi for i in dims):
        raise StructureError(f"dims {dims} reach outside the window {window}")
    out = {i: int(d) for i, d in sorted(dims.items()) if d}
    if any(d < 0 for d in out.values()):
        raise StructureError("negative dimension")
    return out


class DGAlgebra:
    """A = (+) A^i for i <= 0, with product, unit, differential."""

    __slots__ = ("field", "dims", "mult", "diff", "unit", "_h0")

    def __init__(self, field: Field, dims: dict, mult: dict, diff: dict, unit: Matrix):
        self.field = field
        self.dims = nonzero_dims(dims, (-math.inf, 0))
        self.mult = dict(mult)
        self.diff = dict(diff)
        self.unit = unit              # a column in A^0
        if (unit.rows, unit.cols) != (self.dim(0), 1):
            raise StructureError("unit is not a column of length dim A^0")
        self._check_shapes()
        self._h0 = None

    def _check_shapes(self):
        for i, m in self.diff.items():
            if m.rows != self.dim(i + 1) or m.cols != self.dim(i):
                raise StructureError(f"diff at degree {i} has shape {m.rows}x{m.cols}")
        for (i, j), m in self.mult.items():
            want_r, want_c = self.dim(i + j), self.dim(i) * self.dim(j)
            if m.rows != want_r or m.cols != want_c:
                raise StructureError(f"mult at ({i},{j}) has shape {m.rows}x{m.cols}, "
                                     f"want {want_r}x{want_c}")

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def degrees(self):
        """The degrees i with A^i != 0, ascending."""
        return self.dims.keys()

    @property
    def min_degree(self) -> int:
        """The lowest degree i with A^i != 0, or 0 for the zero algebra."""
        return next(iter(self.dims), 0)

    def diff_map(self, i: int) -> Matrix:
        m = self.diff.get(i)
        return Matrix.zeros(self.field, self.dim(i + 1), self.dim(i)) if m is None else m

    def mult_map(self, i: int, j: int) -> Matrix:
        m = self.mult.get((i, j))
        return Matrix.zeros(self.field, self.dim(i + j), self.dim(i) * self.dim(j)) \
            if m is None else m

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, DGAlgebra):
            return NotImplemented
        degs = self.degrees()
        return ((self.field, self.dims, self.unit) == (other.field, other.dims, other.unit)
                and all(self.diff_map(i) == other.diff_map(i) for i in degs)
                and all(self.mult_map(i, j) == other.mult_map(i, j) for i in degs for j in degs))

    def __hash__(self):
        return hash((self.field, tuple(self.dims.items())))

    def __repr__(self):
        return f"DGAlgebra({self.field!r}, dims={self.dims})"

    def h0(self) -> QuotientSpace:
        if self._h0 is None:
            self._h0 = h0_ring(self)
        return self._h0


def validate_algebra(a: DGAlgebra) -> list:
    """The Violations of d^2 = 0, Leibniz, associativity and the units, none
    for a valid algebra: those of A as a right module over itself, then 1.a = a."""
    from .dgmodule import LEFT, RIGHT, _unit_violations, regular_module, validate_module
    return validate_module(regular_module(a, RIGHT)) + _unit_violations(regular_module(a, LEFT))


def h0_ring(a: DGAlgebra) -> QuotientSpace:
    """H^0(A) = A^0 / im(d^{-1}) as a quotient of A^0, with projection and
    section to A^0."""
    space = quotient(a.field, a.dim(0), a.diff_map(-1).transpose())
    proj, sec = space.projection, space.section
    # the projection must be multiplicative, else the input was not a DG algebra
    pm = proj @ a.mult_map(0, 0)
    if pm != pm @ sec.kron(sec) @ proj.kron(proj):
        raise StructureError("projection to H^0 is not multiplicative; input algebra invalid")
    return space
