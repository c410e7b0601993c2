"""Hand-built modules that only the tests use."""
from dgkunneth.dgalgebra import DGAlgebra
from dgkunneth.dgmodule import RIGHT, DGModule, free_module
from dgkunneth.field import Field
from dgkunneth.genlab import make_dual_numbers
from dgkunneth.linalg import Matrix


def make_koszul_like(field: Field, depth: int, side: str = RIGHT) -> DGModule:
    """The periodic complex over k[t]/(t^2): generators g_0..g_depth at
    degrees 0..-depth with d(g_k) = g_{k-1} t."""
    a = make_dual_numbers(field)
    runs = [(-k, 1) for k in range(depth + 1)]
    # layout degree -k+1 only sees generator k-1, with basis (g_{k-1}, g_{k-1} t)
    diffs = [None if k == 0 else Matrix.from_int_rows(field, [[0], [1]])
             for k in range(depth + 1)]
    mod, _ = free_module(a, side, runs, diffs)
    return mod


def make_left_unit_only(field: Field, mirror: bool = False) -> DGAlgebra:
    """k<e, x> in degree 0 with unit e, e.e = e, e.x = x and x.e = x.x = 0:
    associative, and e is a left unit but not a right unit.  The mirror has
    x.e = x and e.x = 0, so there e is a right unit only."""
    # columns e(x)e, e(x)x, x(x)e, x(x)x
    mult = [[1, 0, 0, 0], [0, 0, 1, 0] if mirror else [0, 1, 0, 0]]
    return DGAlgebra(field, {0: 2}, {(0, 0): Matrix.from_int_rows(field, mult)}, {},
                     Matrix.from_int_rows(field, [[1], [0]]))
