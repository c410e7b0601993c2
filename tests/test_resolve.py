from dataclasses import replace

import pytest

from dgkunneth.checks import all_ok
from dgkunneth.dgmodule import (
    LEFT,
    RIGHT,
    StrictMorphism,
    direct_sum,
    mapping_cone,
    shift,
    smart_truncate,
    validate_module,
    validate_morphism,
)
from dgkunneth.field import Field
from dgkunneth.genlab import (
    instance_rng,
    make_dual_numbers,
    make_exterior,
    make_field_algebra,
    make_koszul_dg,
    random_module,
    random_morphism,
    regular_module,
    simple_module_dual_numbers,
)
from dgkunneth.resolve import (
    ResourceCapError,
    check_depth_stabilization,
    check_resolution_independence,
    check_theta_der_functoriality,
    cohomology_dim,
    derived_tensor_top,
    lift_through_resolutions,
    semifree_resolve,
    sup_cohomology,
    theta_der,
)
from dgkunneth.tensor import tensor_cohomology

Q = Field.rationals()
F101 = Field.prime(101)


@pytest.fixture(params=[Q, F101], ids=["Q", "F101"])
def k(request):
    return request.param


def test_resolution_of_free_module(k):
    # A as a right module over itself: stage 0 suffices, rho is a quasi-iso
    a = make_exterior(k)
    m = regular_module(a, RIGHT)
    res = semifree_resolve(m, depth=3)
    assert validate_module(res.p) == []
    assert validate_morphism(res.rho) == []
    assert max(res.gen_degrees) == sup_cohomology(m)


def test_resolution_zero_cohomology(k):
    a = make_exterior(k)
    m = mapping_cone(StrictMorphism.identity(regular_module(a, RIGHT)))
    res = semifree_resolve(m, depth=3)
    assert res.generator_count() == 0
    assert res.p.total_dim() == 0


def test_classical_periodic_resolution(k):
    # k over k[t]/(t^2): one generator in each degree 0, -1, -2, -3 at depth 3
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    res = semifree_resolve(m, depth=3)
    assert sorted(res.gen_degrees, reverse=True) == [0, -1, -2, -3]
    # d(g_k) = g_{k-1}.t pattern: each differential has rank 1 per degree
    for i in (-3, -2, -1):
        assert res.p.dim(i) == 2
        assert cohomology_dim(res.p, i) == 0 or i == -3


def test_classical_oracle_tor_dims(k):
    # dim H^0(M (x)^L N) = 1 and dim H^{-1}(P (x) N) = 1 (Tor_1 = k):
    # expected values from the hand-computed periodic resolution, where
    # (P (x) N)^{-k} has basis [g_k (x) 1] and the induced differential is 0
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    n = simple_module_dual_numbers(a, LEFT)
    top, setup = derived_tensor_top(m, n)
    assert top.dim == 1
    assert tensor_cohomology(setup.tc, -1).dim == 1


def test_derived_tensor_trivial_algebra(k):
    a = make_field_algebra(k)
    rng = instance_rng(300, 0)
    m = random_module(a, RIGHT, rng)
    n = random_module(a, LEFT, rng)
    top, setup = derived_tensor_top(m, n)
    # over a field eta is an isomorphism: derived = plain
    from dgkunneth.tensor import TensorComplex
    plain = tensor_cohomology(TensorComplex(setup.mG, setup.nG), 0)
    assert top.dim == plain.dim


def test_theta_der_dual_numbers(k):
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    n = simple_module_dual_numbers(a, LEFT)
    w = theta_der(m, n)
    assert w.ok, [r for r in w.evidence if not r.ok]
    assert w.source.dim == 1
    assert w.target.dim == 1


def test_theta_der_semifree_input(k):
    # M already semi-free (regular module): stage 0 reproduces M itself with
    # rho an isomorphism, and the derived and plain maps agree on the nose
    a = make_exterior(k)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    w = theta_der(m, n)
    assert w.ok
    assert w.theta_der == w.mn.theta
    assert w.eta_h0 @ w.theta_der == w.mn.theta


def test_theta_der_random_instances(k):
    for fam in (make_exterior, make_dual_numbers, make_koszul_dg):
        a = fam(k)
        for idx in range(4):
            rng = instance_rng(301, idx)
            m = random_module(a, RIGHT, rng)
            n = random_module(a, LEFT, rng)
            w = theta_der(m, n)
            assert w.ok, (fam.__name__, idx, [r.name for r in w.evidence if not r.ok])


def test_diagram_ii_corpus(k):
    a = make_koszul_dg(k)
    for idx in range(4):
        rng = instance_rng(302, idx)
        m = random_module(a, RIGHT, rng)
        n = random_module(a, LEFT, rng)
        res = [r for r in theta_der(m, n).evidence
               if r.name == "derived_diagram_commutes"]
        assert len(res) == 1 and res[0].ok, res[0].counterexample


def test_depth_stabilization(k):
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    n = simple_module_dual_numbers(a, LEFT)
    res = check_depth_stabilization(m, n, theta_der(m, n))
    assert res.ok
    assert res.details["dim"] == 1

    a2 = make_field_algebra(k)
    rng = instance_rng(303, 0)
    m2, n2 = random_module(a2, RIGHT, rng), random_module(a2, LEFT, rng)
    res2 = check_depth_stabilization(m2, n2, theta_der(m2, n2))
    assert res2.ok


def test_resolution_independence(k):
    for fam in (make_dual_numbers, make_koszul_dg):
        a = fam(k)
        rng = instance_rng(304, 1)
        m = random_module(a, RIGHT, rng)
        n = random_module(a, LEFT, rng)
        res = check_resolution_independence(m, n)
        assert res.ok, res.counterexample


def test_resolution_variant_still_valid(k):
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    for v in (1, 2, 5):
        res = semifree_resolve(m, depth=3, variant=v)
        assert validate_module(res.p) == []
        assert validate_morphism(res.rho) == []


def test_deterministic_resolution(k):
    a = make_koszul_dg(k)
    rng = instance_rng(305, 2)
    m = random_module(a, RIGHT, rng)
    r1 = semifree_resolve(m, depth=3)
    r2 = semifree_resolve(m, depth=3)
    assert r1.gen_degrees == r2.gen_degrees
    assert r1.gen_diffs == r2.gen_diffs
    assert r1.p == r2.p


def test_lift_identity(k):
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    res = semifree_resolve(m, depth=3)
    lift = lift_through_resolutions(res, res, StrictMorphism.identity(m))
    assert all_ok(lift.evidence), [r for r in lift.evidence if not r.ok]
    assert validate_morphism(lift.phi) == []


def _derived_witnesses(f, g):
    """theta_der for the sources and the targets at the common bounds (the
    larger sup of cohomology) and the common depth (the larger width + 2)."""
    def top(a, b):
        sups = [s for s in (sup_cohomology(a), sup_cohomology(b)) if s is not None]
        return max(sups, default=max(a.window[1], b.window[1]))

    i0, j0 = top(f.source, f.target), top(g.source, g.target)
    d = max(-smart_truncate(shift(x, j0), 0).window[0] for x in (g.source, g.target)) + 2
    return (theta_der(f.source, g.source, depth=d, i0=i0, j0=j0),
            theta_der(f.target, g.target, depth=d, i0=i0, j0=j0))


def test_theta_der_functoriality_identity_zero(k):
    a = make_koszul_dg(k)
    rng = instance_rng(306, 0)
    m = random_module(a, RIGHT, rng)
    n = random_module(a, LEFT, rng)
    w = theta_der(m, n)
    res = check_theta_der_functoriality(StrictMorphism.identity(m),
                                        StrictMorphism.identity(n), w, w)
    assert all_ok(res), [r for r in res if not r.ok]
    res = check_theta_der_functoriality(StrictMorphism.zero(m, m),
                                        StrictMorphism.zero(n, n), w, w)
    assert all_ok(res), [r for r in res if not r.ok]


def test_theta_der_functoriality_random(k):
    a = make_dual_numbers(k)
    rng = instance_rng(307, 0)
    for idx in range(3):
        m = random_module(a, RIGHT, rng)
        mp = random_module(a, RIGHT, rng)
        n = random_module(a, LEFT, rng)
        np_ = random_module(a, LEFT, rng)
        f = random_morphism(m, mp, rng)
        g = random_morphism(n, np_, rng)
        res = check_theta_der_functoriality(f, g, *_derived_witnesses(f, g))
        assert all_ok(res), (idx, [r for r in res if not r.ok])


def test_theta_der_functoriality_detects_a_wrong_theta_der(k):
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    n = simple_module_dual_numbers(a, LEFT)
    w = theta_der(m, n)
    assert not w.theta_der.is_zero()
    ident = (StrictMorphism.identity(m), StrictMorphism.identity(n))
    assert all_ok(check_theta_der_functoriality(*ident, w, w))
    doubled = replace(w, theta_der=w.theta_der.scale(k.of_int(2)))
    res = check_theta_der_functoriality(*ident, w, doubled)
    assert [r.name for r in res if not r.ok] == ["theta_der_naturality"]


def test_theta_der_functoriality_rejects_mismatched_witnesses(k):
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    n = simple_module_dual_numbers(a, LEFT)
    w = theta_der(m, n)
    ident = (StrictMorphism.identity(m), StrictMorphism.identity(n))
    deeper = theta_der(m, n, depth=w.setup.depth + 1)
    with pytest.raises(ValueError, match="bounds or depths"):
        check_theta_der_functoriality(*ident, w, deeper)
    higher = theta_der(m, n, i0=w.setup.i0 + 1)
    with pytest.raises(ValueError, match="bounds or depths"):
        check_theta_der_functoriality(*ident, higher, w)
    other = theta_der(direct_sum(m, m), n)
    assert other.setup.depth == w.setup.depth
    with pytest.raises(ValueError, match="match"):
        check_theta_der_functoriality(*ident, other, w)
    with pytest.raises(ValueError, match="match"):
        check_theta_der_functoriality(*ident, w, other)


def test_generator_cap(k):
    # k over k[x,y]/(x,y)^2 has 2^stage generators; the cap must trip
    from dgkunneth.genlab import make_ordinary, ordinary_module
    from dgkunneth.linalg import Matrix
    z3 = [0, 0, 0]
    a = make_ordinary(k, [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], z3, z3],
        [[0, 0, 1], z3, z3],
    ])
    m = ordinary_module(a, RIGHT, Matrix.from_int_rows(k, [[1, 0, 0]]))
    with pytest.raises(ResourceCapError):
        semifree_resolve(m, depth=8, cap=6)


def test_theta_der_cohomologically_bounded_input(k):
    # pad M with an acyclic summand above its cohomological top: theta_der
    # must agree with the unpadded witness
    a = make_dual_numbers(k)
    m = simple_module_dual_numbers(a, RIGHT)
    n = simple_module_dual_numbers(a, LEFT)
    junk = mapping_cone(StrictMorphism.identity(
        shift(simple_module_dual_numbers(a, RIGHT), -1)))
    padded = direct_sum(m, junk)
    assert sup_cohomology(padded) == 0
    assert padded.window[1] > 0
    w_plain = theta_der(m, n)
    w_pad = theta_der(padded, n)
    assert w_pad.ok, [r.name for r in w_pad.evidence if not r.ok]
    assert w_pad.theta_der.rows == w_plain.theta_der.rows
