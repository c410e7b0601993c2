import pytest

from dgkunneth.checks import DescentError
from dgkunneth.dgalgebra import StructureError
from dgkunneth.dgmodule import LEFT, RIGHT, DGModule, free_module, shift, validate_module
from dgkunneth.field import Field
from dgkunneth.genlab import (
    instance_rng,
    make_dual_numbers,
    make_exterior,
    make_field_algebra,
    make_koszul_dg,
    random_module,
    regular_module,
    simple_module_dual_numbers,
)
from dgkunneth.linalg import Matrix, hstack, rank
from dgkunneth.tensor import (
    TensorComplex,
    balanced_tensor,
    degree0_iso_check,
    phi_summands,
    tensor_cohomology,
)

Q = Field.rationals()
F101 = Field.prime(101)


@pytest.fixture(params=[Q, F101], ids=["Q", "F101"])
def k(request):
    return request.param


def evaluation_map(tc, t):
    """Ambient evaluation a (x) n -> a.n for the unit-law isomorphism."""
    n = tc.n
    cols = []
    for p, q, off, dmp, dnq in tc.blocks(t):
        cols.append(n.action_map(q, p))
    if not cols:
        return Matrix.zeros(tc.field, n.dim(t), 0)
    return hstack(cols)


def test_unit_law_regular_tensor(k):
    # A (x)_A N -> N is an isomorphism of DG modules
    for mk in (make_exterior, make_koszul_dg, make_dual_numbers):
        a = mk(k)
        m = regular_module(a, RIGHT)
        n = regular_module(a, LEFT)
        tc = TensorComplex(m, n)
        for t in range(tc.lo, tc.hi + 1):
            ev = evaluation_map(tc, t) @ tc.space(t).section
            assert tc.space(t).dim == n.dim(t)
            assert rank(ev) == n.dim(t)
            # chain map against the induced differential
            ev1 = evaluation_map(tc, t + 1) @ tc.space(t + 1).section
            assert n.diff_map(t) @ ev == ev1 @ tc.diff(t)


def test_unit_law_right_factor(k):
    # M (x)_A A -> M, m (x) a |-> m.a, is an isomorphism of DG modules
    for mk in (make_exterior, make_koszul_dg):
        a = mk(k)
        rng = instance_rng(16, 4)
        m = random_module(a, 'right', rng)
        n = regular_module(a, LEFT)
        tc = TensorComplex(m, n)
        for t in range(tc.lo, tc.hi + 1):
            cols = [m.action_map(p, q) for p, q, off, dmp, dnq in tc.blocks(t)]
            ev_amb = hstack(cols) if cols else Matrix.zeros(k, m.dim(t), 0)
            ev = ev_amb @ tc.space(t).section
            assert tc.space(t).dim == m.dim(t)
            assert rank(ev) == m.dim(t)


def test_trivial_algebra_convolution_dims(k):
    a = make_field_algebra(k)
    rng = instance_rng(11, 0)
    m = random_module(a, RIGHT, rng)
    n = random_module(a, LEFT, rng)
    tc = TensorComplex(m, n)
    for t in range(tc.lo, tc.hi + 1):
        want = sum(m.dim(p) * n.dim(t - p) for p in m.degrees())
        assert tc.space(t).dim == want
        assert tc.space(t).relations.rows == 0


def test_exterior_self_tensor_dims(k):
    a = make_exterior(k)
    tc = TensorComplex(regular_module(a, RIGHT), regular_module(a, LEFT))
    assert tc.space(0).dim == 1
    assert tc.space(-1).dim == 1
    assert tc.space(-2).dim == 0


def test_tensor_differential_squares_to_zero(k):
    for mk in (make_exterior, make_koszul_dg):
        a = mk(k)
        rng = instance_rng(12, 1)
        m = random_module(a, RIGHT, rng)
        n = random_module(a, LEFT, rng)
        tc = TensorComplex(m, n)
        for t in range(tc.lo, tc.hi):
            assert (tc.diff(t + 1) @ tc.diff(t)).is_zero()


def test_tensor_differential_that_breaks_leibniz_does_not_descend(k):
    # Lambda acting on itself, with d(eps) = 1 in M only: d(1.eps) = 1 but
    # d(1).eps + 1.d(eps) = 0, so the degree -1 relation eps (x) 1 - 1 (x) eps
    # maps to 1 (x) 1, and degree 0 has no relation to absorb it
    a = make_exterior(k)
    m, n = regular_module(a, RIGHT), regular_module(a, LEFT)
    bad = DGModule(RIGHT, a, m.window, m.dims, {-1: Matrix.identity(k, 1)}, m.action)
    assert {v.axiom for v in validate_module(bad)} == {"leibniz"}
    assert TensorComplex(m, n).diff(-1).rows == 1
    tc = TensorComplex(bad, n)
    assert tc.space(-1).relations.rows == 1 and tc.space(0).relations.rows == 0
    with pytest.raises(DescentError) as exc:
        tc.diff(-1)
    assert str(exc.value) == "tensor differential does not descend at degree -1"


def _degree_tensor(m, n, i, j):
    """M^i (x)_{A^0} N^j."""
    return balanced_tensor(m.action_map(i, 0), n.action_map(j, 0))


def test_balanced_plain_tensor(k):
    a = make_field_algebra(k)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    b = _degree_tensor(m, n, 0, 0)
    assert b.dim == 1


def test_balanced_dual_numbers_regular(k):
    # k[t]/(t^2) (x)_{k[t]/(t^2)} k[t]/(t^2): relations cut 4 -> 2
    a = make_dual_numbers(k)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    b = _degree_tensor(m, n, 0, 0)
    assert b.dim == 2


def test_balanced_simple_over_dual_numbers(k):
    # k (x)_{k[t]/t^2} k with t acting by zero: dim 1
    a = make_dual_numbers(k)
    x = simple_module_dual_numbers(a, RIGHT)
    y = simple_module_dual_numbers(a, LEFT)
    b = _degree_tensor(x, y, 0, 0)
    assert b.dim == 1


def test_balanced_tensor_rejects_rings_of_different_dimensions(k):
    # A^0 of the dual numbers acts on x, the field k on y
    x = regular_module(make_dual_numbers(k), RIGHT)
    y = regular_module(make_field_algebra(k), LEFT)
    with pytest.raises(StructureError, match="different dimensions"):
        balanced_tensor(x.action_map(0, 0), y.action_map(0, 0))


def test_balancedness_on_random_instances(k):
    a = make_koszul_dg(k)
    rng = instance_rng(13, 2)
    m = random_module(a, RIGHT, rng, span=3)
    n = random_module(a, LEFT, rng, span=3)
    xact = m.action_map(m.window[1], 0)
    yact = n.action_map(n.window[1], 0)
    proj = balanced_tensor(xact, yact).projection
    for c in range(a.dim(0)):
        rvec = Matrix.identity(k, a.dim(0)).columns([c])
        for u in range(xact.rows):
            xu = Matrix.identity(k, xact.rows).columns([u])
            # x is a right module: kron order x (x) r
            xr = xact @ xu.kron(rvec)
            for v in range(yact.rows):
                yv = Matrix.identity(k, yact.rows).columns([v])
                # y is a left module: kron order r (x) y
                ry = yact @ rvec.kron(yv)
                assert proj @ xr.kron(yv) == proj @ xu.kron(ry)


def _degree0(m, n):
    return degree0_iso_check(TensorComplex(m, n), _degree_tensor(m, n, 0, 0))


def test_degree0_iso_trivial_and_exterior(k):
    a = make_field_algebra(k)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    mat, res = _degree0(m, n)
    assert res.ok
    assert mat == Matrix.identity(k, 1)

    a = make_exterior(k)
    mat, res = _degree0(regular_module(a, RIGHT), regular_module(a, LEFT))
    assert res.ok
    assert mat.rows == 1 and mat.cols == 1


def test_degree0_iso_random(k):
    for mk in (make_koszul_dg, make_dual_numbers, make_exterior):
        a = mk(k)
        for idx in range(6):
            rng = instance_rng(14, idx)
            m = random_module(a, RIGHT, rng)
            n = random_module(a, LEFT, rng)
            m = shift(m, m.window[1])   # force windows <= 0
            n = shift(n, n.window[1])
            mat, res = _degree0(m, n)
            assert res.ok, (mk.__name__, idx)


def _phi(m, n):
    """phi = (d_M (x) id) (+) (id (x) d_N) into M^0 (x)_{A^0} N^0."""
    _, _, _, phi1, phi2 = phi_summands(m, n)
    return hstack([phi1, phi2])


def test_phi_zero_when_differentials_vanish(k):
    a = make_exterior(k)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    assert _phi(m, n).is_zero()


def test_phi_surjective_contractible(k):
    # M = (K --1--> K) in degrees -1, 0; N = K; phi has rank 1 so H^0 = 0
    a = make_field_algebra(k)
    m, _ = free_module(a, RIGHT, [(0, 1), (-1, 1)], [None, Matrix.identity(k, 1)])
    n = regular_module(a, LEFT)
    phi = _phi(m, n)
    assert rank(phi) == 1
    tc = TensorComplex(m, n)
    assert tensor_cohomology(tc, 0).dim == 0


def test_tensor_top_degree_bound(k):
    a = make_koszul_dg(k)
    rng = instance_rng(15, 3)
    m = random_module(a, RIGHT, rng)
    n = random_module(a, LEFT, rng)
    tc = TensorComplex(m, n)
    assert tc.hi == m.window[1] + n.window[1]
    assert tc.space(tc.hi + 1).dim == 0
