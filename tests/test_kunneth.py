from dataclasses import replace

import pytest

from dgkunneth import kunneth
from dgkunneth.checks import all_ok
from dgkunneth.dgmodule import (
    LEFT,
    RIGHT,
    DGModule,
    StrictMorphism,
    cohomology,
    direct_sum,
    free_module,
    shift,
)
from dgkunneth.field import Field
from dgkunneth.genlab import (
    CorpusProfile,
    generate_instance,
    instance_rng,
    make_dual_numbers,
    make_exterior,
    make_field_algebra,
    make_koszul_dg,
    make_upper_triangular2,
    random_module,
    random_morphism,
    regular_module,
    simple_module_dual_numbers,
)
from dgkunneth.kunneth import (
    check_exact_sequences,
    check_functoriality,
    check_representative_independence,
    theta,
)
from dgkunneth.linalg import Matrix, hstack, kernel_mod_image, quotient, rref, vstack
from dgkunneth.suite import plain_checks
from dgkunneth.tensor import (
    TensorComplex,
    balanced_tensor,
    degree0_iso_check,
    phi_summands,
    tensor_cohomology,
)

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
    m, _ = free_module(a, RIGHT, [(0, 1), (-1, 1)], [None, Matrix.identity(k, 1)])
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


def test_exact_sequences_rank_each_map_once(k, monkeypatch):
    # phi is the first map of two sequences; it is row-reduced once
    a = make_koszul_dg(k)
    rng = instance_rng(103, 1)
    w = theta(random_module(a, RIGHT, rng), random_module(a, LEFT, rng))
    ranked = []
    orig = kunneth.rank

    def counted(mat):
        ranked.append(mat)
        return orig(mat)

    monkeypatch.setattr(kunneth, "rank", counted)
    res = check_exact_sequences(w)
    assert all_ok(res), [r for r in res if not r.ok]
    assert len(ranked) == len({id(m) for m in ranked}) == 9
    phi = next(r for r in res if r.name == "sequence_phi_pi")
    combined = next(r for r in res if r.name == "sequence_combined")
    assert phi.details["image_rank"] == combined.details["image_rank"]


def test_representative_independence(k):
    a = make_koszul_dg(k)
    for idx in range(4):
        rng = instance_rng(104, idx)
        m = random_module(a, RIGHT, rng)
        n = random_module(a, LEFT, rng)
        w = theta(m, n)
        res = check_representative_independence(w, samples=20, seed=idx)
        assert res.ok, res.counterexample


def test_plain_checks_detect_a_wrong_theta(k):
    # k[t]/(t^2) on its simple modules: a 1 x 1 theta, doubled
    a = make_dual_numbers(k)
    w = theta(simple_module_dual_numbers(a, RIGHT), simple_module_dual_numbers(a, LEFT))
    assert check_representative_independence(w).ok
    assert all_ok(check_exact_sequences(w))
    doubled = replace(w, theta=w.theta.scale(k.of_int(2)))
    res = check_representative_independence(doubled)
    assert (res.name, res.ok) == ("representative_independence", False)
    assert res.counterexample["reason"] == "defining_formula"
    res = check_exact_sequences(doubled)
    assert [r.name for r in res if not r.ok] == ["comparison_route_matches_theta"]


@pytest.mark.parametrize("fill, failing", [
    (0, ["theta_bijective", "representative_independence",
         "comparison_route_matches_theta"]),
    (1, ["theta_well_defined", "theta_bijective", "representative_independence",
         "comparison_route_matches_theta"]),
], ids=["zero", "all_ones"])
def test_plain_checks_detect_a_wrong_class_assignment(monkeypatch, fill, failing):
    # inst0010 of the published F_101 profile: dual numbers, a 2-dim source
    # with 3 relations.  The zero assignment kills every relation but has
    # rank 0; the all-ones one sends a relation to a nonzero class too
    inst = generate_instance(CorpusProfile(field=F101), 10)
    assert inst.family == "dual_numbers"
    assert all_ok(plain_checks(theta(inst.m, inst.n)))
    orig = kunneth.class_assignment

    def constant(*args):
        t = orig(*args)
        return Matrix.from_int_rows(F101, [[fill] * t.cols for _ in range(t.rows)])

    monkeypatch.setattr(kunneth, "class_assignment", constant)
    w = theta(inst.m, inst.n)
    assert w.source.relations.rows == 3
    bad = [r for r in plain_checks(w) if not r.ok]
    assert [r.name for r in bad] == failing
    if fill:
        # the first relation with a nonzero image, as its row and that image
        assert bad[0].counterexample == {"relation_row": 1, "relation": ["0", "0", "0", "1"],
                                         "image": ["1", "1"]}


def test_plain_checks_detect_a_non_surjective_minus1_comparison(monkeypatch):
    # inst0000 of the published F_101 profile: the comparison
    # B1 (+) B2 -> (M (x)_A N)^{-1} replaced by zero has rank 0 below the
    # nonzero quotient, and no other check reads it
    inst = generate_instance(CorpusProfile(field=F101), 0)
    assert all_ok(plain_checks(theta(inst.m, inst.n)))
    orig = kunneth.minus1_comparison

    def zero(*args):
        t = orig(*args)
        return Matrix.zeros(F101, t.rows, t.cols)

    monkeypatch.setattr(kunneth, "minus1_comparison", zero)
    bad = [r for r in plain_checks(theta(inst.m, inst.n)) if not r.ok]
    assert [r.name for r in bad] == ["degree_minus1_surjective"]
    assert bad[0].counterexample["rank"] == 0 < bad[0].counterexample["dim"]


@pytest.mark.parametrize("field, expected", [
    (F101, {"pair": (0, 0), "sample": 0, "base": ["1"], "perturbed": ["35"]}),
    (Q, {"pair": (0, 0), "sample": 1, "base": ["1/1"], "perturbed": ["0/1"]}),
], ids=["F101", "Q"])
def test_representative_independence_detects_a_moving_class(field, expected):
    # inst0001 of the published profile: d^{-1} of mT replaced by a map whose
    # first column is the representative of the first class, so a perturbation
    # by a coboundary moves that class; the first failing sample is pinned
    inst = generate_instance(CorpusProfile(field=field), 1)
    w = theta(inst.m, inst.n)
    mT, d = w.mT, w.mT.diff_map(-1)
    diff = dict(mT.diff)
    diff[-1] = hstack([w.hm.rep_map.columns([0]), Matrix.zeros(field, d.rows, d.cols - 1)])
    bad = DGModule(mT.side, mT.algebra, mT.window, mT.dims, diff, mT.action)
    res = check_representative_independence(replace(w, mT=bad))
    assert (res.name, res.ok, res.counterexample) == (
        "representative_independence", False, expected)


# the calls of `induced_balanced_map` in `check_exact_sequences`, in order
_SEQUENCE_MAPS = ("map_130_1", "map_130_2", "map_131_2", "map_133_2")


@pytest.mark.parametrize("zeroed, failing", [
    ("map_130_2", {"sequence_replaced_by_piM": None}),
    ("map_131_2", {"sequence_apply_tensor_N0": None}),
    ("map_133_2", {"sequence_combined": None,
                   "comparison_route_matches_theta": {"reason": "pi_mn_not_surjective"}}),
    ("degree0", {"sequence_phi_pi": None,
                 "comparison_route_matches_theta": {"kappa": [["0"]], "theta": [["1"]]}}),
])
def test_exact_sequences_detect_a_zero_map(monkeypatch, zeroed, failing):
    # inst0001 of the published F_101 profile with one presentation map
    # replaced by zero: its sequence loses surjectivity (final rank 0), and
    # the comparison route fails with it where it reads that map
    inst = generate_instance(CorpusProfile(field=F101), 1)
    w = theta(inst.m, inst.n)
    assert all_ok(check_exact_sequences(w))
    calls = []
    orig_map, orig_deg0 = kunneth.induced_balanced_map, kunneth.degree0_iso_check

    def induced(*args, **kwargs):
        t = orig_map(*args, **kwargs)
        calls.append(_SEQUENCE_MAPS[len(calls)])
        return Matrix.zeros(F101, t.rows, t.cols) if calls[-1] == zeroed else t

    def degree0(*args):
        mat, res = orig_deg0(*args)
        return (Matrix.zeros(F101, mat.rows, mat.cols) if zeroed == "degree0" else mat), res

    monkeypatch.setattr(kunneth, "induced_balanced_map", induced)
    monkeypatch.setattr(kunneth, "degree0_iso_check", degree0)
    bad = [r for r in check_exact_sequences(w) if not r.ok]
    assert calls == list(_SEQUENCE_MAPS)
    assert [r.name for r in bad] == list(failing)
    for r in bad:
        if r.name.startswith("sequence_"):
            assert r.counterexample["final_rank"] == 0 < r.counterexample["final_dim"]
        else:
            assert r.counterexample == failing[r.name]


def test_dimension_match_detects_a_missing_boundary(monkeypatch):
    # inst0000 of the published F_101 profile: H^{i0} (x) H^{j0} is zero, but
    # with d^{-1} of M (x)_A N read as zero every degree-0 tensor survives
    # in the target.  theta cannot be bijective then, and pi = the class map
    # of that target no longer kills the image of phi
    inst = generate_instance(CorpusProfile(field=F101), 0)
    assert all_ok(plain_checks(theta(inst.m, inst.n)))

    def no_boundaries(tc, t):
        d = tc.diff(t - 1)
        return kernel_mod_image(tc.field, Matrix.zeros(F101, d.rows, d.cols), tc.diff(t))

    monkeypatch.setattr(kunneth, "tensor_cohomology", no_boundaries)
    w = theta(inst.m, inst.n)
    bad = [r for r in plain_checks(w) if not r.ok]
    assert [r.name for r in bad] == ["dimension_match", "theta_bijective", "sequence_phi_pi"]
    assert bad[0].counterexample == {"source_dim": 0, "target_dim": w.target.dim}
    assert w.target.dim > 0


def test_pim_surjective_detects_a_zero_class_map():
    # inst0001 of the published F_101 profile with the class map M^0 -> H^0(M)
    # replaced by zero: the replacement sequences and the comparison route
    # read that map, so they fail with it
    w = theta(*_published_pair(1))
    bad = [r for r in check_exact_sequences(replace(w, hm=replace(
        w.hm, class_map=Matrix.zeros(F101, w.hm.dim, w.mT.dim(0))))) if not r.ok]
    assert [r.name for r in bad] == ["sequence_apply_tensor_N0", "sequence_combined",
                                     "comparison_route_matches_theta", "piM_surjective"]
    assert bad[-1].counterexample == {"rank": 0}


def test_balanced_ring_comparison_detects_an_extra_relation():
    # inst0001 of the published F_101 profile with the theta source
    # H^{i0}(M) (x)_{H^0(A)} H^{j0}(N) given its first basis vector as one
    # more relation: it no longer matches the tensor over A^0, and the
    # comparison route, which reads both presentations, names the mismatch
    w = theta(*_published_pair(1))
    src = w.source
    extra = vstack([src.relations, src.section.columns([0]).transpose()])
    bad_src = quotient(F101, src.ambient_dim, extra)
    bad = [r for r in check_exact_sequences(replace(w, source=bad_src)) if not r.ok]
    assert [r.name for r in bad] == ["balanced_ring_comparison", "comparison_route_matches_theta"]
    assert bad[0].counterexample == {"h0_dim": src.dim, "hbar_dim": src.dim - 1}
    assert bad[1].counterexample == {"reason": "presentation_mismatch"}


def test_degree0_bijectivity_detects_a_missing_relation():
    # inst0001 of the published F_101 profile: M^0 (x)_{A^0} N^0 presented
    # without its first reduced relation is one dimension too large for
    # (M (x)_A N)^0
    w = theta(*_published_pair(1))
    mid = phi_summands(w.mT, w.nT)[2]
    assert degree0_iso_check(w.tc, mid)[1].ok
    red, _, r = rref(mid.relations)
    fewer = quotient(F101, mid.ambient_dim, red.rows_at(slice(1, r)))
    res = degree0_iso_check(w.tc, fewer)[1]
    assert (res.name, res.ok) == ("degree0_obvious_map_bijective", False)
    assert res.counterexample == {"balanced_dim": mid.dim + 1, "tensor_dim": mid.dim}


def _published_pair(idx):
    """(M, N) of instance `idx` of the published F_101 profile."""
    inst = generate_instance(CorpusProfile(field=F101), idx)
    return inst.m, inst.n


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


def test_functoriality_names_a_map_that_does_not_descend(k):
    # over the dual numbers k[e]/e^2 with A^0 = A, swapping 1 and e on the
    # regular module is a chain map (d = 0) but not A-linear, so H^0 of it
    # does not descend to the balanced tensor H^0(M) (x)_{H^0(A)} H^0(N)
    a = make_dual_numbers(k)
    m, n = regular_module(a, RIGHT), regular_module(a, LEFT)
    w = theta(m, n)
    swap = StrictMorphism(m, m, {0: Matrix.from_int_rows(k, [[0, 1], [1, 0]])})
    res = check_functoriality(swap, StrictMorphism.identity(n), w, w)
    assert [(r.name, r.ok) for r in res] == [("theta_naturality", False)]
    assert res[0].counterexample == {
        "reason": "induced map does not descend to the balanced quotient"}


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


def _theta_in_place(m, n):
    """theta built at the window tops (i0, j0) directly, without translating
    the tops to degree 0 first."""
    i0, j0 = m.window[1], n.window[1]
    hm, hn = cohomology(m, i0), cohomology(n, j0)
    source = balanced_tensor(hm.h0_action, hn.h0_action)
    tc = TensorComplex(m, n)
    target = tensor_cohomology(tc, i0 + j0)
    tmat = target.class_map @ tc.space(i0 + j0).projection @ hm.rep_map.kron(hn.rep_map)
    return tmat @ source.section


def test_translation_invariance(k):
    # the translate-to-zero route of `theta` and the direct construction at
    # (i0, j0) give identical matrices on identical bases
    for fam in (make_exterior, make_koszul_dg):
        a = fam(k)
        rng = instance_rng(108, 1)
        m = shift(random_module(a, RIGHT, rng), -2)
        n = shift(random_module(a, LEFT, rng), 1)
        assert _theta_in_place(m, n) == theta(m, n).theta


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
