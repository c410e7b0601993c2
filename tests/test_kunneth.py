from dataclasses import replace

import pytest

from dgkunneth.checks import all_ok
from dgkunneth.dgmodule import LEFT, RIGHT, StrictMorphism, direct_sum, free_module, shift
from dgkunneth.field import Field
from dgkunneth.genlab import (
    instance_rng,
    make_dual_numbers,
    make_exterior,
    make_field_algebra,
    make_koszul_dg,
    make_upper_triangular2,
    random_module,
    random_morphism,
    regular_module,
)
from dgkunneth.kunneth import (
    check_exact_sequences,
    check_functoriality,
    check_representative_independence,
    check_translation_invariance,
    theta,
)
from dgkunneth.linalg import Matrix

Q = Field.rationals()
F101 = Field.prime(101)

FAMILIES = (make_field_algebra, make_exterior, make_dual_numbers,
            make_koszul_dg, make_upper_triangular2)


@pytest.fixture(params=[Q, F101], ids=["Q", "F101"])
def k(request):
    return request.param


def test_theta_trivial_field(k):
    a = make_field_algebra(k)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    w = theta(m, n)
    assert w.ok
    assert w.theta == Matrix.identity(k, 1)


def test_theta_exterior_self(k):
    a = make_exterior(k)
    w = theta(regular_module(a, RIGHT), regular_module(a, LEFT))
    assert w.ok
    assert w.source.dim == 1
    assert w.target.dim == 1


def test_theta_zero_top_cohomology(k):
    # M = (K --1--> K): H^0(M) = 0, so both sides are empty
    a = make_field_algebra(k)
    m, _ = free_module(a, RIGHT, [0, -1], [[], [k.one]])
    n = regular_module(a, LEFT)
    w = theta(m, n)
    assert w.ok
    assert w.source.dim == 0
    assert w.target.dim == 0
    assert w.theta.rows == 0 and w.theta.cols == 0


def test_theta_on_random_instances(k):
    for fam in FAMILIES:
        a = fam(k)
        for idx in range(6):
            rng = instance_rng(101, idx)
            m = random_module(a, RIGHT, rng)
            n = random_module(a, LEFT, rng)
            w = theta(m, n)
            assert w.ok, (fam.__name__, idx, [r for r in w.evidence if not r.ok])


def test_exact_sequences_trivial(k):
    a = make_field_algebra(k)
    res = check_exact_sequences(theta(regular_module(a, RIGHT), regular_module(a, LEFT)))
    assert all_ok(res), [r for r in res if not r.ok]


def test_exact_sequences_exterior(k):
    a = make_exterior(k)
    res = check_exact_sequences(theta(regular_module(a, RIGHT), regular_module(a, LEFT)))
    assert all_ok(res), [r for r in res if not r.ok]
    names = {r.name for r in res}
    assert {"sequence_phi_pi", "sequence_replaced_by_piM",
            "sequence_apply_tensor_N0", "sequence_combined",
            "degree0_obvious_map_bijective", "degree_minus1_surjective"} <= names


def test_exact_sequences_random(k):
    for fam in FAMILIES:
        a = fam(k)
        for idx in range(4):
            rng = instance_rng(103, idx)
            m = random_module(a, RIGHT, rng)
            n = random_module(a, LEFT, rng)
            res = check_exact_sequences(theta(m, n))
            assert all_ok(res), (fam.__name__, idx, [r for r in res if not r.ok])


def test_representative_independence(k):
    a = make_koszul_dg(k)
    for idx in range(4):
        rng = instance_rng(104, idx)
        m = random_module(a, RIGHT, rng)
        n = random_module(a, LEFT, rng)
        w = theta(m, n)
        res = check_representative_independence(w, samples=20, seed=idx)
        assert res.ok, res.counterexample


def _witnesses(f, g):
    """theta for the sources and the targets at the common window tops."""
    i0 = max(f.source.window[1], f.target.window[1])
    j0 = max(g.source.window[1], g.target.window[1])
    return theta(f.source, g.source, i0, j0), theta(f.target, g.target, i0, j0)


def test_functoriality_identity_and_zero(k):
    a = make_koszul_dg(k)
    rng = instance_rng(105, 0)
    m = random_module(a, RIGHT, rng)
    n = random_module(a, LEFT, rng)
    w = theta(m, n)
    res = check_functoriality(StrictMorphism.identity(m), StrictMorphism.identity(n), w, w)
    assert all_ok(res), [r for r in res if not r.ok]
    res = check_functoriality(StrictMorphism.zero(m, m), StrictMorphism.zero(n, n), w, w)
    assert all_ok(res)


def test_functoriality_random_morphisms(k):
    for fam in (make_exterior, make_dual_numbers, make_koszul_dg):
        a = fam(k)
        rng = instance_rng(106, 0)
        for idx in range(4):
            m = random_module(a, RIGHT, rng)
            mp = random_module(a, RIGHT, rng)
            n = random_module(a, LEFT, rng)
            np_ = random_module(a, LEFT, rng)
            f = random_morphism(m, mp, rng)
            g = random_morphism(n, np_, rng)
            res = check_functoriality(f, g, *_witnesses(f, g))
            assert all_ok(res), (fam.__name__, idx, [r for r in res if not r.ok])


def test_functoriality_composites(k):
    a = make_dual_numbers(k)
    rng = instance_rng(107, 0)
    m = random_module(a, RIGHT, rng)
    f1 = random_morphism(m, m, rng)
    f2 = random_morphism(m, m, rng)
    n = random_module(a, LEFT, rng)
    g1 = random_morphism(n, n, rng)
    g2 = random_morphism(n, n, rng)
    f, g = f2.compose(f1), g2.compose(g1)
    res = check_functoriality(f, g, *_witnesses(f, g))
    assert all_ok(res), [r for r in res if not r.ok]


def _nonzero_instance(k):
    """An instance whose theta is a nonzero matrix."""
    a = make_koszul_dg(k)
    for idx in range(20):
        rng = instance_rng(109, idx)
        m = random_module(a, RIGHT, rng)
        n = random_module(a, LEFT, rng)
        w = theta(m, n)
        if not w.theta.is_zero():
            return m, n, w
    raise AssertionError("no instance with a nonzero theta")


def test_functoriality_detects_a_wrong_theta(k):
    m, n, w = _nonzero_instance(k)
    ident = (StrictMorphism.identity(m), StrictMorphism.identity(n))
    assert all_ok(check_functoriality(*ident, w, w))
    doubled = replace(w, theta=w.theta.scale(k.of_int(2)))
    res = check_functoriality(*ident, w, doubled)
    assert [r.name for r in res if not r.ok] == ["theta_naturality"]


def test_functoriality_rejects_mismatched_witnesses(k):
    m, n, w = _nonzero_instance(k)
    ident = (StrictMorphism.identity(m), StrictMorphism.identity(n))
    higher = theta(m, n, m.window[1] + 1, n.window[1])
    with pytest.raises(ValueError, match="bounds"):
        check_functoriality(*ident, w, higher)
    other = theta(direct_sum(m, m), n)
    with pytest.raises(ValueError, match="match"):
        check_functoriality(*ident, other, w)
    with pytest.raises(ValueError, match="match"):
        check_functoriality(*ident, w, other)


def test_translation_invariance(k):
    for fam in (make_exterior, make_koszul_dg):
        a = fam(k)
        rng = instance_rng(108, 1)
        m = shift(random_module(a, RIGHT, rng), -2)
        n = shift(random_module(a, LEFT, rng), 1)
        res = check_translation_invariance(m, n)
        assert res.ok, res.counterexample


def test_theta_at_larger_bounds(k):
    # bounding degrees above the window tops gives the trivial statement
    a = make_exterior(k)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    w = theta(m, n, i0=2, j0=1)
    assert w.ok
    assert w.source.dim == 0


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["exterior", "dual", "koszul"]))
def test_theta_bijective_for_arbitrary_seeds(seed, family):
    # the headline claim as a free-form property: any generated instance
    # yields a well-defined bijection
    k = F101
    a = {"exterior": make_exterior, "dual": make_dual_numbers,
         "koszul": make_koszul_dg}[family](k)
    rng = instance_rng(seed, 0)
    m = random_module(a, RIGHT, rng)
    n = random_module(a, LEFT, rng)
    w = theta(m, n)
    assert w.ok, [r.name for r in w.evidence if not r.ok]
