import json
from dataclasses import fields
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkunneth.dgalgebra import StructureError
from dgkunneth.field import Field
from dgkunneth.genlab import (
    CorpusProfile,
    generate_corpus,
    instance_rng,
    make_field_algebra,
    make_koszul_dg,
    random_module,
)
from dgkunneth.dgmodule import LEFT, RIGHT, DGModule
from dgkunneth.serialize import (
    algebra_from_json,
    algebra_to_json,
    dumps_canonical,
    field_from_json,
    field_to_json,
    instance_from_json,
    instance_to_json,
    module_from_json,
    module_to_json,
    profile_from_json,
    profile_to_json,
)

Q = Field.rationals()
F101 = Field.prime(101)


@pytest.fixture(params=[Q, F101], ids=["Q", "F101"])
def k(request):
    return request.param


def test_field_roundtrip(k):
    assert field_from_json(field_to_json(k)) == k


def test_algebra_roundtrip(k):
    a = make_koszul_dg(k)
    d = algebra_to_json(a)
    back = algebra_from_json(k, d)
    assert back == a
    assert dumps_canonical(algebra_to_json(back)) == dumps_canonical(d)


def test_json_writes_nonzero_dims_and_reads_dense_files(k):
    # files carry the nonzero degrees that memory holds, and an algebra's
    # min_degree is written as its lowest nonzero degree
    a = make_field_algebra(k)
    d = algebra_to_json(a)
    assert (d["min_degree"], d["dims"]) == (0, {"0": 1})
    m = DGModule(RIGHT, a, (-3, 1), {-3: 0, 0: 1, 1: 0}, {}, {(0, 0): a.unit})
    md = module_to_json(m)
    assert (md["window"], md["dims"]) == ([-3, 1], {"0": 1})
    # a dense file of the earlier format, with a declared bound below the
    # data, reads to an equal object
    dense = {**d, "min_degree": -2, "dims": {"-2": 0, "-1": 0, "0": 1}}
    assert algebra_from_json(k, dense) == a
    assert algebra_to_json(algebra_from_json(k, dense)) == d
    assert module_from_json(a, {**md, "dims": {str(i): m.dim(i) for i in range(-3, 2)}}) == m
    # the reader holds dims to the declared bound and to the module window
    for degree in ("-3", "1"):
        with pytest.raises(StructureError, match=r"outside the window \(-2, 0\)"):
            algebra_from_json(k, {**dense, "dims": {"0": 1, degree: 1}})
    with pytest.raises(StructureError, match=r"outside the window \(-3, 1\)"):
        module_from_json(a, {**md, "dims": {"0": 1, "2": 1}})


@pytest.mark.parametrize("table, key", [("diff", "x"), ("diff", "0,0"), ("mult", "0"),
                                        ("mult", "0,0,0"), ("mult", "0,y")])
def test_malformed_map_key_is_structural_error(k, table, key):
    d = algebra_to_json(make_field_algebra(k))
    d[table] = {key: [["1"]]}
    with pytest.raises(StructureError, match=f"bad {table} key"):
        algebra_from_json(k, d)


def test_rational_elements_read_in_the_interchange_form():
    q = Field.rationals()
    assert (q.parse("-3/4"), q.parse("5"), q.parse("+2/6")) == \
        (Fraction(-3, 4), Fraction(5), Fraction(1, 3))
    for text in ("1e5", "1.5", " 5", "1_0", "0x10", ""):
        with pytest.raises(ValueError, match="not of the form"):
            q.parse(text)


def test_module_roundtrip(k):
    a = make_koszul_dg(k)
    for side in (LEFT, RIGHT):
        for idx in range(5):
            m = random_module(a, side, instance_rng(200, idx))
            d = module_to_json(m)
            back = module_from_json(a, d)
            assert back == m
            assert dumps_canonical(module_to_json(back)) == dumps_canonical(d)


def _corpus_text(corpus) -> str:
    return dumps_canonical([instance_to_json(inst) for inst in corpus])


def test_instance_and_corpus_roundtrip(k):
    # every instance of a corpus, in the form a report's shrunk_instance has
    prof = CorpusProfile(field=k, instance_count=6, seed=77)
    corpus = generate_corpus(prof)
    text = _corpus_text(corpus)
    corpus2 = [instance_from_json(d) for d in json.loads(text)]
    for a, b in zip(corpus, corpus2):
        assert (a.name, a.family) == (b.name, b.family)
        assert a.algebra == b.algebra
        assert a.m == b.m
        assert a.n == b.n
    # canonical bytes are stable under a round trip
    assert _corpus_text(corpus2) == text
    assert profile_to_json(profile_from_json(profile_to_json(prof))) == profile_to_json(prof)


def test_seed_determinism(k):
    prof = CorpusProfile(field=k, instance_count=8, seed=123)
    c1 = generate_corpus(prof)
    c2 = generate_corpus(prof)
    assert _corpus_text(c1) == _corpus_text(c2)
    other = CorpusProfile(field=k, instance_count=8, seed=124)
    assert _corpus_text(generate_corpus(other)) != _corpus_text(c1)


@settings(max_examples=30, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
def test_rational_string_form(num, den):
    from fractions import Fraction
    f = Field.rationals()
    x = Fraction(num, den)
    s = f.to_str(x)
    assert "/" in s
    n, d = s.split("/")
    assert int(d) > 0
    assert f.parse(s) == x


def test_profile_from_partial_json(k):
    prof = profile_from_json({"field": field_to_json(k), "instance_count": 3})
    assert prof.instance_count == 3
    assert prof.max_per_degree_dim == 4


def test_an_omitted_profile_key_takes_the_profile_default(k):
    # CorpusProfile owns the defaults: a file without the key gets its value
    got, want = profile_from_json({"field": field_to_json(k)}), CorpusProfile(k)
    assert [getattr(got, f.name) for f in fields(CorpusProfile)] == \
        [getattr(want, f.name) for f in fields(CorpusProfile)]
    # a key that is present is still type-checked, null included
    for key in ("max_per_degree_dim", "degree_span", "instance_count", "seed"):
        for bad in (None, 2.5, "4", True):
            with pytest.raises(StructureError, match=f"{key} must be"):
                profile_from_json({"field": field_to_json(k), key: bad})
    for bad in (None, 0, [], ""):
        with pytest.raises(StructureError, match="family_mix must be"):
            profile_from_json({"field": field_to_json(k), "family_mix": bad})
    with pytest.raises(StructureError, match="family mix must have a positive weight"):
        profile_from_json({"field": field_to_json(k), "family_mix": {}})


def test_tensor_presentation_audit(k):
    # the exported quotient presentation can be re-verified by a third party
    from dgkunneth.genlab import regular_module
    from dgkunneth.dgmodule import LEFT as L, RIGHT as R
    from dgkunneth.serialize import matrix_from_json, tensor_complex_to_json
    from dgkunneth.tensor import TensorComplex
    a = make_koszul_dg(k)
    tc = TensorComplex(regular_module(a, R), regular_module(a, L))
    blob = tensor_complex_to_json(tc, range(tc.lo, tc.hi + 1))
    from dgkunneth.linalg import Matrix
    for key, entry in blob["degrees"].items():
        amb, q = entry["ambient_dim"], entry["quotient_dim"]
        rel = matrix_from_json(k, len(entry["relations"]), amb, entry["relations"])
        proj = matrix_from_json(k, q, amb, entry["projection"])
        sec = matrix_from_json(k, amb, q, entry["section"])
        assert proj @ sec == Matrix.identity(k, q)
        if rel.rows:
            assert (proj @ rel.transpose()).is_zero()
        assert sum(dmp * dnq for _, _, _, dmp, dnq in entry["blocks"]) == amb


def test_resolution_stage_audit(k):
    # stage tags prove semi-freeness: d(g) only involves strictly earlier stages
    from dgkunneth.dgmodule import FreeLayout, RIGHT as R
    from dgkunneth.genlab import make_dual_numbers, simple_module_dual_numbers
    from dgkunneth.resolve import semifree_resolve
    from dgkunneth.serialize import resolution_to_json
    a = make_dual_numbers(k)
    res = semifree_resolve(simple_module_dual_numbers(a, R), depth=3)
    blob = resolution_to_json(res)
    degrees = [g["degree"] for g in blob["generators"]]
    stages = [g["stage"] for g in blob["generators"]]
    lay = FreeLayout(a, tuple((e, 1) for e in degrees))
    for gi, gen in enumerate(blob["generators"]):
        dvec = [k.parse(x) for x in gen["diff"]]
        i = gen["degree"] + 1
        assert len(dvec) in (0, lay.dim(i))
        for pos, val in enumerate(dvec):
            if val != k.zero:
                # generator g spans positions offs[g] .. offs[g + 1] - 1
                offs = list(accumulate((a.dim(i - e) for e in degrees), initial=0))
                other = next(g for g in range(len(degrees)) if offs[g] <= pos < offs[g + 1])
                assert stages[other] < stages[gi]


def _json_dumps(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_VALUES = st.recursive(_JSON_SCALARS, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4)
    | st.dictionaries(st.integers(), kids, max_size=4)), max_leaves=40)


@settings(max_examples=100, deadline=None)
@given(_VALUES)
def test_canonical_json_is_json_dumps(x):
    # canonical JSON is defined as these bytes, so an auditor can rebuild them
    assert dumps_canonical(x) == _json_dumps(x)


@pytest.mark.parametrize("x", [
    [], {}, (), [[]], {"a": {}}, {"a": [{}, [], [[], {"b": ()}]], "c": {"d": {"e": []}}},
    {"pair": (["1", "0"], ["0", "50"]), "sample": 3},
    {"é\x00": "ü\n\t\x1f \ud800\"\\", "\x7f": ["ÿ"]},
    [1e-05, -0.0, float("nan"), float("inf"), -float("inf"), 1e300, 0.1],
    {9: "a", 10: "b", -1: "c"}, {1.5: 0, 2: 1}, {None: 1}, {False: 0, True: 1},
    [np.float64(0.5), np.float64("nan")], {np.float64(1.5): np.float64(-0.0)},
    "top", 7, None, True, 2.5,
])
def test_canonical_json_edge_cases(x):
    assert dumps_canonical(x) == _json_dumps(x)


@pytest.mark.parametrize("x", [np.int64(1), {1, 2}, {"a": [np.int64(1)]}, {(1, 2): 0}])
def test_canonical_json_rejects_what_json_rejects(x):
    for write in (dumps_canonical, _json_dumps):
        with pytest.raises(TypeError):
            write(x)


def test_canonical_json_transient_memory_is_under_three_outputs():
    # json.dumps under an indent holds every chunk until the end: 7.9x the
    # output on this report; the one-pass writer keeps about two outputs
    import tracemalloc
    from dgkunneth.suite import run_suite
    body = run_suite(CorpusProfile(field=F101, instance_count=20)).as_json()
    del body["timing"]
    tracemalloc.start()
    try:
        text = dumps_canonical(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _json_dumps(body)
    assert peak <= 3 * len(text), (peak, len(text))
