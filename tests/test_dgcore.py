import ast
import pathlib
import re
from dataclasses import fields, replace

import pytest

from dgkunneth import dgmodule, genlab, linalg
from dgkunneth.dgalgebra import (
    DGAlgebra,
    StructureError,
    Violation,
    h0_ring,
    validate_algebra,
)
from dgkunneth.dgmodule import (
    LEFT,
    RIGHT,
    DGModule,
    StrictMorphism,
    cohomology,
    direct_sum,
    free_module,
    mapping_cone,
    shift,
    smart_truncate,
    transport_morphism,
    validate_module,
    validate_morphism,
)
from dgkunneth.field import Field
from dgkunneth.genlab import (
    CorpusProfile,
    generate_corpus,
    instance_rng,
    make_dual_numbers,
    make_exterior,
    make_field_algebra,
    make_koszul_dg,
    make_truncated_poly3,
    make_upper_triangular2,
    random_module,
    random_morphism,
    regular_module,
    simple_module_dual_numbers,
)
from dgkunneth.linalg import Matrix, kernel_basis, solve
from dgkunneth.serialize import module_from_json, module_to_json
from dgkunneth.tensor import TensorComplex, tensor_cohomology
from dg_examples import make_koszul_like, make_left_unit_only

Q = Field.rationals()
F101 = Field.prime(101)


@pytest.fixture(params=[Q, F101], ids=["Q", "F101"])
def k(request):
    return request.param


def test_field_algebra_valid(k):
    a = make_field_algebra(k)
    assert validate_algebra(a) == []
    assert a.dim(0) == 1


def test_exterior_valid(k):
    a = make_exterior(k)
    assert validate_algebra(a) == []
    assert a.dims == {-1: 1, 0: 1}


def test_algebra_dims_keep_nonzero_degrees_inside_the_window(k):
    a = make_dual_numbers(k)
    wide = DGAlgebra(k, {-3: 0, -1: 0, 0: 2}, a.mult, {}, a.unit)
    assert wide.dims == {0: 2} and list(wide.degrees()) == [0]
    assert wide == DGAlgebra(k, {0: 2}, a.mult, {}, a.unit)
    assert validate_algebra(wide) == []
    # the lowest degree is read off dims; a bound below it is the reader's
    assert (wide.min_degree, make_exterior(k).min_degree) == (0, -1)
    assert DGAlgebra(k, {}, {}, {}, Matrix.zeros(k, 0, 1)).min_degree == 0
    with pytest.raises(StructureError, match=r"outside the window \(-inf, 0\)"):
        DGAlgebra(k, {0: 2, 1: 1}, a.mult, {}, a.unit)
    with pytest.raises(StructureError, match="negative dimension"):
        DGAlgebra(k, {0: 2, -1: -1}, a.mult, {}, a.unit)


def test_exterior_family_raises_on_a_violation(monkeypatch):
    # a StructureError, not an assert that python -O would strip
    monkeypatch.setattr(genlab, "validate_algebra",
                        lambda a: [Violation("d_squared", {"degree": -1})])
    with pytest.raises(StructureError, match="exterior algebra axioms fail: d_squared"):
        make_exterior(F101)


def test_contractible_exterior_valid(k):
    # d(eps) = 1 still satisfies d^2 = 0 and Leibniz on eps.eps
    a = make_exterior(k, contractible=True)
    assert validate_algebra(a) == []


def test_ordinary_families_valid(k):
    for mk in (make_dual_numbers, make_truncated_poly3, make_upper_triangular2):
        assert validate_algebra(mk(k)) == []


def test_upper_triangular_noncommutative(k):
    a = make_upper_triangular2(k)
    e11, e12 = (Matrix.identity(k, 3).columns([u]) for u in (0, 1))

    def product(x, y):
        return a.mult_map(0, 0) @ x.kron(y)

    assert product(e11, e12) == e12
    assert product(e12, e11).is_zero()


def test_koszul_dg_valid(k):
    a = make_koszul_dg(k)
    assert validate_algebra(a) == []


def test_algebra_equality_is_by_structure(k):
    # an algebra equals itself at once, and a separately built copy by value
    a = make_exterior(k)
    assert a == a
    assert a == make_exterior(k) and make_exterior(k) == a
    assert make_dual_numbers(k) != a and a != make_dual_numbers(k)


def test_broken_leibniz_is_reported(k):
    a = make_exterior(k)
    # corrupt d(eps) so Leibniz on (eps, eps) fails: d(eps.eps)=d(0)=0 but
    # d(eps).eps - eps.d(eps) = eps - (-eps).. use d(eps)=1 with eps^2 = eps to break
    bad_mult = dict(a.mult)
    bad_mult[(-1, -1)] = Matrix.zeros(k, 0, 1)
    bad_diff = {-1: Matrix.from_int_rows(k, [[1]])}
    from dgkunneth.dgalgebra import DGAlgebra
    broken = DGAlgebra(k, {-1: 1, 0: 1},
                       {**bad_mult, (0, -1): Matrix.from_int_rows(k, [[2]])},
                       bad_diff, Matrix.identity(k, 1))
    report = validate_algebra(broken)
    assert any(v.axiom in ("leibniz", "left_unit", "right_unit") for v in report)


def test_each_unit_check_can_fail_alone(k):
    # e is a unit on one side only, and nothing else fails
    assert validate_algebra(make_left_unit_only(k)) == [Violation("right_unit", {"degree": 0})]
    assert validate_algebra(make_left_unit_only(k, mirror=True)) == \
        [Violation("left_unit", {"degree": 0})]


def test_h0_ring_cases(k):
    assert h0_ring(make_field_algebra(k)).dim == 1
    assert h0_ring(make_exterior(k)).dim == 1
    assert h0_ring(make_exterior(k, contractible=True)).dim == 0
    assert h0_ring(make_koszul_dg(k)).dim == 1


def test_regular_module_valid_both_sides(k):
    for a in (make_exterior(k), make_koszul_dg(k), make_upper_triangular2(k)):
        for side in (LEFT, RIGHT):
            m = regular_module(a, side)
            assert validate_module(m) == []


def test_module_leibniz_mutation_detected(k):
    # free module A.e over the koszul algebra (d(eps) = t != 0); flipping the
    # sign of the degree (0,-1) action breaks Leibniz and the report names a pair
    a = make_koszul_dg(k)
    m = regular_module(a, RIGHT)
    assert validate_module(m) == []
    bad_action = dict(m.action)
    bad_action[(0, -1)] = -m.action_map(0, -1)
    from dgkunneth.dgmodule import DGModule
    broken = DGModule(RIGHT, a, m.window, m.dims, m.diff, bad_action)
    report = validate_module(broken)
    assert report
    leib = [v for v in report if v.axiom == "leibniz"]
    assert leib and "basis" in leib[0].where


def _plus_ones(mat):
    return mat + linalg.from_entries(mat.field, mat.rows, mat.cols, [(slice(None), slice(None), 1)])


def _plus_corner(mat):
    """mat plus 1 in its bottom-right entry: the mismatches then sit at
    basis vectors other than the first."""
    if not (mat.rows and mat.cols):
        return mat
    return mat + linalg.from_entries(mat.field, mat.rows, mat.cols,
                                     [(mat.rows - 1, mat.cols - 1, 1)])


# The full violation lists, in order, for the Koszul DG algebra (and the
# upper triangular one, whose single degree has dimension 3), the sum of two
# copies of the Koszul algebra's regular module (dimension 4 in each degree
# against the algebra's 2) and its identity morphism, with every product,
# action or component corrupted.  Each `where`, basis included, reaches
# `validate` and the input-gate CLI reports.  An algebra is checked as its
# own right regular module, so its right units come before its left ones.
ONES_MODULE = [
    ("leibniz", {"degrees": (-1, -1), "basis": (0, 1)}),
    ("leibniz", {"degrees": (-1, 0), "basis": (0, 0)}),
    ("associativity", {"degrees": (-1, 0, 0), "basis": (0, 0, 0)}),
    ("leibniz", {"degrees": (0, -1), "basis": (0, 0)}),
    ("associativity", {"degrees": (0, -1, 0), "basis": (0, 0, 0)}),
    ("associativity", {"degrees": (0, 0, -1), "basis": (0, 0, 0)}),
    ("associativity", {"degrees": (0, 0, 0), "basis": (0, 0, 0)}),
    ("right_unit", {"degree": -1}),
    ("right_unit", {"degree": 0}),
]
MORPHISM = [
    ("chain_map", {"degree": -1}),
    ("equivariance", {"degrees": (-1, 0)}),
    ("equivariance", {"degrees": (0, -1)}),
    ("equivariance", {"degrees": (0, 0)}),
]
BROKEN_REPORTS = {
    ("koszul algebra", "ones"): [
        ("leibniz", {"degrees": (-1, -1), "basis": (0, 1)}),
        ("leibniz", {"degrees": (-1, 0), "basis": (0, 0)}),
        ("associativity", {"degrees": (-1, 0, 0), "basis": (0, 0, 1)}),
        ("leibniz", {"degrees": (0, -1), "basis": (0, 0)}),
        ("associativity", {"degrees": (0, -1, 0), "basis": (0, 0, 1)}),
        ("associativity", {"degrees": (0, 0, -1), "basis": (0, 0, 1)}),
        ("associativity", {"degrees": (0, 0, 0), "basis": (0, 0, 1)}),
        ("right_unit", {"degree": -1}),
        ("right_unit", {"degree": 0}),
        ("left_unit", {"degree": -1}),
        ("left_unit", {"degree": 0}),
    ],
    ("koszul algebra", "corner"): [
        ("leibniz", {"degrees": (-1, -1), "basis": (0, 1)}),
        ("leibniz", {"degrees": (-1, 0), "basis": (0, 1)}),
        ("leibniz", {"degrees": (0, -1), "basis": (1, 0)}),
    ],
    ("upper triangular algebra", "corner"): [
        ("associativity", {"degrees": (0, 0, 0), "basis": (1, 2, 2)}),
        ("right_unit", {"degree": 0}),
        ("left_unit", {"degree": 0}),
    ],
    (RIGHT, "ones"): ONES_MODULE,
    # a right module's basis is (m, a_j, a_k) ...
    (RIGHT, "corner"): [
        ("leibniz", {"degrees": (-1, -1), "basis": (2, 1)}),
        ("leibniz", {"degrees": (-1, 0), "basis": (2, 1)}),
        ("associativity", {"degrees": (-1, 0, 0), "basis": (2, 1, 1)}),
        ("leibniz", {"degrees": (0, -1), "basis": (3, 0)}),
        ("associativity", {"degrees": (0, -1, 0), "basis": (2, 1, 1)}),
        ("associativity", {"degrees": (0, 0, -1), "basis": (2, 1, 1)}),
        ("associativity", {"degrees": (0, 0, 0), "basis": (2, 1, 1)}),
    ],
    # ... and a left module's (a_k, a_j, m); it reports Leibniz at
    # (algebra, module) degrees
    (LEFT, "ones"): [
        ("leibniz", {"degrees": (-1, -1), "basis": (0, 1)}),
        ("leibniz", {"degrees": (0, -1), "basis": (0, 0)}),
        ("associativity", {"degrees": (-1, 0, 0), "basis": (0, 0, 0)}),
        ("leibniz", {"degrees": (-1, 0), "basis": (0, 0)}),
        *ONES_MODULE[4:7],
        ("left_unit", {"degree": -1}),
        ("left_unit", {"degree": 0}),
    ],
    (LEFT, "corner"): [
        ("leibniz", {"degrees": (-1, -1), "basis": (0, 3)}),
        ("leibniz", {"degrees": (0, -1), "basis": (1, 2)}),
        ("associativity", {"degrees": (-1, 0, 0), "basis": (1, 1, 2)}),
        ("leibniz", {"degrees": (-1, 0), "basis": (0, 3)}),
        ("associativity", {"degrees": (0, -1, 0), "basis": (1, 1, 2)}),
        ("associativity", {"degrees": (0, 0, -1), "basis": (1, 1, 2)}),
        ("associativity", {"degrees": (0, 0, 0), "basis": (1, 1, 2)}),
    ],
    (RIGHT + " morphism", "ones"): MORPHISM,
    (LEFT + " morphism", "ones"): MORPHISM,
}


@pytest.mark.parametrize("case,corruption", sorted(BROKEN_REPORTS))
def test_violation_lists_are_pinned(k, case, corruption):
    corrupt = {"ones": _plus_ones, "corner": _plus_corner}[corruption]
    if case.endswith("algebra"):
        a = (make_koszul_dg if case.startswith("koszul") else make_upper_triangular2)(k)
        report = validate_algebra(DGAlgebra(
            k, a.dims, {ij: corrupt(x) for ij, x in a.mult.items()},
            a.diff, a.unit))
    else:
        side, _, morphism = case.partition(" ")
        r = regular_module(make_koszul_dg(k), side)
        m = direct_sum(r, r)
        if morphism:
            maps = StrictMorphism.identity(m).maps
            report = validate_morphism(StrictMorphism(m, m, {i: corrupt(x)
                                                              for i, x in maps.items()}))
        else:
            report = validate_module(DGModule(side, m.algebra, m.window, m.dims, m.diff,
                                              {ij: corrupt(x) for ij, x in m.action.items()}))
    assert [(v.axiom, v.where) for v in report] == BROKEN_REPORTS[case, corruption]


def test_the_format_doc_lists_every_violation_name():
    # every string constant in the first argument of a `Violation(...)` in src/
    built = set()
    for path in pathlib.Path(dgmodule.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Violation":
                built |= {c.value for c in ast.walk(node.args[0])
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    doc = (pathlib.Path(__file__).resolve().parents[1] / "docs" / "format.md").read_text()
    table = re.findall(r"^\| `(\w+)` \|", doc.split("## Axiom violations")[1], re.M)
    assert sorted(table) == sorted(built)
    assert {"right_unit", "left_unit", "associativity"} <= built


def h0_action_violations(m, coh) -> list:
    """Where the H^0(A)-action on `coh` = H^i(m) fails to be well defined:
    a coboundary acting to a nonzero class, an element of im d_A^{-1}
    acting on a class as nonzero, or the unit acting other than as the
    identity."""
    out = []
    i = coh.degree
    f, a = m.field, m.algebra
    h0 = a.h0()

    def class_of_product(x, y):
        """The class of x.y (right) or y.x (left), for x in M^i and y in A^0."""
        return coh.class_map @ m.action_map(i, 0) @ (x.kron(y) if m.side == RIGHT else y.kron(x))

    for b in range(m.dim(i - 1)):
        w = m.diff_map(i - 1).columns([b])
        for u in range(h0.dim):
            if not class_of_product(w, h0.section.columns([u])).is_zero():
                out.append(("coboundary", b, u))
    for b in range(a.dim(-1)):
        da = a.diff_map(-1).columns([b])
        for v in range(coh.dim):
            if not class_of_product(coh.rep_map.columns([v]), da).is_zero():
                out.append(("boundary_of_algebra", b, v))
    unit = h0.projection @ a.unit
    eye = Matrix.identity(f, coh.dim)
    got = coh.h0_action @ (eye.kron(unit) if m.side == RIGHT else unit.kron(eye))
    if got != eye:
        out.append(("unit", i))
    return out


def test_cohomology_zero_differential(k):
    a = make_exterior(k)
    m = regular_module(a, RIGHT)   # d = 0, dims 1 in degrees -1, 0
    h0 = cohomology(m, 0)
    hm1 = cohomology(m, -1)
    assert h0.dim == 1
    assert hm1.dim == 1
    assert h0_action_violations(m, h0) == []
    assert h0_action_violations(m, hm1) == []


def test_h0_action_well_defined_on_a_corpus_slice(k):
    checked = 0
    for inst in generate_corpus(CorpusProfile(field=k, instance_count=12)):
        for mod in (inst.m, inst.n):
            for i in mod.degrees():
                coh = cohomology(mod, i)
                assert h0_action_violations(mod, coh) == [], (inst.name, mod.side, i)
                checked += coh.dim > 0
    assert checked > 12


def test_h0_action_violations_detects_a_wrong_action(k):
    # the unit acting on H^0 as 2: the action is no longer unital
    a = make_exterior(k)
    m = regular_module(a, RIGHT)
    coh = cohomology(m, 0)
    bad = replace(coh, h0_action=coh.h0_action.scale(k.of_int(2)))
    assert h0_action_violations(m, bad) == [("unit", 0)]


def test_cohomology_is_computed_once_per_module_and_degree(k):
    m = make_koszul_like(k, 3)
    for i in range(-4, 2):
        assert cohomology(m, i) is cohomology(m, i)
    # M[0] is M itself and shares its cache; a module rebuilt from the same
    # data computes its own
    assert shift(m, 0) is m
    rebuilt = DGModule(m.side, m.algebra, m.window, m.dims, m.diff, m.action)
    assert cohomology(rebuilt, 0) is not cohomology(m, 0)


@pytest.mark.parametrize("field", [F101, Q, Field.prime(2 ** 61 - 1)],
                         ids=["F101", "Q", "F2^61-1"])
def test_cached_cohomology_equals_a_fresh_computation(field):
    # the second call returns the stored result; a separately built equal
    # module computes its own, and the two agree in every field
    for inst in generate_corpus(CorpusProfile(field=field, instance_count=6)):
        for mod in (inst.m, inst.n):
            twin = module_from_json(inst.algebra, module_to_json(mod))
            assert twin == mod and twin is not mod
            for i in range(mod.window[0] - 1, mod.window[1] + 2):
                cohomology(mod, i)
                cached, fresh = cohomology(mod, i), cohomology(twin, i)
                for fld in fields(cached):
                    assert getattr(cached, fld.name) == getattr(fresh, fld.name), fld.name


def test_cohomology_contractible(k):
    # K --1--> K in degrees -1, 0 over A = K
    a = make_field_algebra(k)
    m, _ = free_module(a, RIGHT, [(0, 1), (-1, 1)], [None, Matrix.identity(k, 1)])
    assert validate_module(m) == []
    assert cohomology(m, 0).dim == 0
    assert cohomology(m, -1).dim == 0


def test_class_of_and_representatives(k):
    a = make_exterior(k)
    m = regular_module(a, LEFT)
    h = cohomology(m, -1)
    # eps is a cocycle with nonzero class (im d = 0)
    cls = h.class_map @ Matrix.identity(k, 1)
    assert not cls.is_zero()
    assert (h.class_map @ Matrix.zeros(k, 1, 1)).is_zero()
    rep = h.rep_map @ cls
    assert h.class_map @ rep == cls


def test_class_of_rejects_non_cocycle(k):
    # class_map is valid on cocycles only: the generator of degree -1 maps
    # onto the one of degree 0, so it lies outside the cocycles H^{-1} uses
    a = make_field_algebra(k)
    m, _ = free_module(a, RIGHT, [(0, 1), (-1, 1)], [None, Matrix.identity(k, 1)])
    h = cohomology(m, -1)
    assert not (m.diff_map(-1) @ Matrix.identity(k, 1)).is_zero()
    assert h.cocycle_incl.cols == 0
    assert solve(h.cocycle_incl, Matrix.column(k, [k.one])) is None


def test_class_constant_on_cosets(k):
    a = make_dual_numbers(k)
    m = make_koszul_like(k, 3)
    h = cohomology(m, -1)
    rng = instance_rng(7, 0)
    d = m.diff_map(-2)
    z = h.rep_map @ Matrix.column(k, [k.one] * h.dim)
    base = h.class_map @ z
    for _ in range(20):
        w = Matrix.column(k, [k.of_int(rng.randint(-3, 3)) for _ in range(m.dim(-2))])
        assert h.class_map @ (z + d @ w) == base


def test_shift_basics(k):
    a = make_exterior(k)
    m = regular_module(a, RIGHT)
    assert shift(m, 0) is m
    fm = StrictMorphism.identity(m)
    assert transport_morphism(fm, shift(m, 0), shift(m, 0), 0) is fm
    assert shift(shift(m, 1), -1) == m
    s = shift(m, -3)
    assert s.window == (2, 3)
    assert validate_module(s) == []


def test_shift_left_module_valid(k):
    a = make_koszul_dg(k)
    m = regular_module(a, LEFT)
    for kk in (-2, -1, 1, 2):
        s = shift(m, kk)
        assert validate_module(s) == [], f"shift by {kk}"
        assert shift(s, -kk) == m


def test_shift_concentrated(k):
    a = make_field_algebra(k)
    m, _ = free_module(a, RIGHT, [(-3, 1)])
    s = shift(m, -3)
    assert s.dim(0) == 1 and s.window == (0, 0)


def test_shift_cohomology_dims(k):
    a = make_dual_numbers(k)
    m = make_koszul_like(k, 2)
    for kk in (-1, 1, 2):
        s = shift(m, kk)
        for i in range(-4, 2):
            hs, hm = cohomology(s, i), cohomology(m, i + kk)
            assert hs.dim == hm.dim
            # the identity on representatives commutes with taking classes:
            # shifting only scales the differential, so the presentations agree
            assert hs.class_map == hm.class_map
            assert hs.rep_map == hm.rep_map


def test_transport_morphism_computes_no_kernel(k, monkeypatch):
    # the truncation and its inclusion share one kernel of d^0, and moving a
    # morphism onto the truncation computes none: degree 0 is restricted
    # through the inclusion the truncation returned
    calls = []
    monkeypatch.setattr(dgmodule, "kernel_basis", lambda x: calls.append(x) or kernel_basis(x))
    r = regular_module(make_koszul_dg(k), RIGHT)
    t, incl = dgmodule._truncate(shift(r, -1), 0)
    assert len(calls) == 1 and 0 < incl.cols < r.dim(-1)
    fm = random_morphism(r, r, instance_rng(8, 0))
    ft = transport_morphism(fm, t, t, -1, incl, incl)
    ident = transport_morphism(StrictMorphism.identity(r), t, t, -1, incl, incl)
    assert len(calls) == 1
    assert t == smart_truncate(shift(r, -1), 0) and ident == StrictMorphism.identity(t)
    z = kernel_basis(r.diff_map(-1)).transpose()
    assert not ft.map_at(0).is_zero() and ft.map_at(0) == solve(z, fm.map_at(-1) @ z)
    assert all(ft.map_at(i) == fm.map_at(i - 1) for i in t.degrees() if i < 0)
    assert validate_morphism(ft) == []


def test_module_equals_itself_without_comparing_matrices(k, monkeypatch):
    m = make_koszul_like(k, 3)
    copy = module_from_json(m.algebra, module_to_json(m))
    assert copy is not m and copy == m and m == copy

    def refuse(self, other):
        raise AssertionError("a matrix was compared")

    monkeypatch.setattr(Matrix, "__eq__", refuse)
    assert m == m and not m != m


def test_smart_truncate_noop_above_window(k):
    a = make_exterior(k)
    m = regular_module(a, LEFT)
    assert smart_truncate(m, 0) is m
    assert smart_truncate(m, 5) is m


def test_smart_truncate_kills_module(k):
    # K --1--> K in degrees 0, 1: kernel at 0 is zero, module vanishes
    a = make_field_algebra(k)
    m0, _ = free_module(a, RIGHT, [(0, 1), (-1, 1)], [None, Matrix.identity(k, 1)])
    m = shift(m0, -1)   # degrees 0, 1
    t = smart_truncate(m, 0)
    assert t.window == (0, 0)
    assert t.dim(0) == 0


def test_smart_truncate_preserves_low_cohomology(k):
    a = make_dual_numbers(k)
    m = make_koszul_like(k, 3, side=LEFT)
    t = smart_truncate(m, -1)
    assert validate_module(t) == []
    for i in (-3, -2, -1):
        assert cohomology(t, i).dim == cohomology(m, i).dim
    assert cohomology(t, 0).dim == 0
    # idempotent at the same degree
    assert smart_truncate(t, -1) is t


def test_direct_sum_and_cone(k):
    a = make_koszul_dg(k)
    m1 = regular_module(a, RIGHT)
    m2 = regular_module(a, RIGHT)
    s = direct_sum(m1, m2)
    assert validate_module(s) == []
    for i in s.degrees():
        assert s.dim(i) == m1.dim(i) + m2.dim(i)
    cone = mapping_cone(StrictMorphism.identity(m1))
    assert validate_module(cone) == []
    for i in range(cone.window[0] - 1, cone.window[1] + 2):
        assert cohomology(cone, i).dim == 0


def test_mapping_cone_left_module(k):
    a = make_exterior(k)
    m = regular_module(a, LEFT)
    cone = mapping_cone(StrictMorphism.identity(m))
    assert validate_module(cone) == []
    for i in range(-3, 2):
        assert cohomology(cone, i).dim == 0


def test_random_modules_validate(k):
    for fam in (make_exterior, make_dual_numbers, make_koszul_dg, make_upper_triangular2):
        a = fam(k)
        for idx in range(12):
            rng = instance_rng(42, idx)
            for side in (LEFT, RIGHT):
                m = random_module(a, side, rng)
                assert validate_module(m) == [], f"{fam.__name__} {side} {idx}"
                assert max(m.dims.values()) <= 4


def test_random_morphisms_validate(k):
    a = make_koszul_dg(k)
    rng = instance_rng(43, 0)
    for idx in range(8):
        m = random_module(a, RIGHT, rng)
        mp = random_module(a, RIGHT, rng)
        f = random_morphism(m, mp, rng)
        assert validate_morphism(f) == []
        g = random_morphism(m, m, rng)
        assert validate_morphism(g) == []
    ident = StrictMorphism.identity(m)
    assert validate_morphism(ident) == []


def test_koszul_like_module(k):
    m = make_koszul_like(k, 3)
    assert validate_module(m) == []
    assert m.dims == {0: 2, -1: 2, -2: 2, -3: 2}
    assert cohomology(m, 0).dim == 1


def test_simple_module_dual_numbers(k):
    a = make_dual_numbers(k)
    for side in (LEFT, RIGHT):
        m = simple_module_dual_numbers(a, side)
        assert validate_module(m) == []


def _field_module(k, dims, d_minus1, d0):
    """A right module over k in degrees -1..1 with the given d^{-1}, d^0."""
    a = make_field_algebra(k)
    action = {(i, 0): Matrix.identity(k, dims[i]) for i in dims}
    diff = {-1: Matrix.from_int_rows(k, d_minus1, dims[-1]),
            0: Matrix.from_int_rows(k, d0, dims[0])}
    return DGModule(RIGHT, a, (-1, 1), dims, diff, action)


def test_cohomology_rejects_d_squared_without_cocycles(k):
    # d^{-1} = d^0 = [1]: no cocycle in degree 0, but a nonzero image into it
    m = _field_module(k, {-1: 1, 0: 1, 1: 1}, [[1]], [[1]])
    assert [v.axiom for v in validate_module(m)] == ["d_squared"]
    with pytest.raises(StructureError, match="image not inside cocycles"):
        cohomology(m, 0)
    # M (x)_k k has the differentials of M
    tc = TensorComplex(m, regular_module(m.algebra, LEFT))
    with pytest.raises(StructureError, match="image not inside cocycles"):
        tensor_cohomology(tc, 0)


def test_one_cohomology_costs_two_eliminations(k, monkeypatch):
    # the kernel of d^0 and the quotient by the image of d^{-1}, nothing else,
    # counted on a new field object, whose memo starts cold
    k = Field(k.kind, k.p)
    m = _field_module(k, {-1: 1, 0: 2, 1: 1}, [[1], [0]], [[0, 1]])
    m.algebra.h0()
    calls = []
    orig = linalg.rref

    def counted(mat):
        calls.append(mat.rows * mat.cols)
        return orig(mat)

    monkeypatch.setattr(linalg, "rref", counted)
    coh = cohomology(m, 0)
    assert (coh.dim, len(calls)) == (0, 2)
    del calls[:]
    # M (x)_k k has the differentials of M: the field's memo holds its H^0
    sp = tensor_cohomology(TensorComplex(m, regular_module(m.algebra, LEFT)), 0)
    assert (sp.dim, len(calls)) == (0, 0)
    assert (sp.class_map, sp.rep_map) == (coh.class_map, coh.rep_map)
