"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dgkunneth  # noqa: E402
from dgkunneth import checks, serialize, suite  # noqa: E402
from dgkunneth.genlab import CorpusProfile, generate_corpus  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload("tiny", "harness self-test", field="F101", instances=4, derived=2,
                          functoriality=1, witness=True, pass_s=1.0, pool_factor=3)


def _bound_targets():
    """Every (owner, attribute, object) the tracer is expected to wrap."""
    out = []
    mods = [m for name, m in sys.modules.items()
            if name == "dgkunneth" or name.startswith("dgkunneth.")]
    for layer in tracer.LAYERS:
        owner = sys.modules[layer.module]
        cls_name, _, attr = layer.attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            out.append((cls, attr, cls.__dict__[attr]))
            continue
        orig = getattr(owner, attr)
        out += [(m, k, v) for m in mods for k, v in vars(m).items() if v is orig]
    return out


def test_unpatch_restores_the_original_objects():
    import dgkunneth.serialize  # noqa: F401
    before = _bound_targets()
    # names bound by `from .linalg import solve` in other modules are found too
    assert {m.__name__ for m, k, v in before if k == "solve"} >= {
        "dgkunneth.linalg", "dgkunneth.tensor", "dgkunneth.dgmodule", "dgkunneth.resolve"}
    tr = tracer.Tracer()
    tr.patch()
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in before)
    finally:
        tr.unpatch()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in before)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before
               if isinstance(owner, type))


def test_gate_rejects_a_failed_check():
    ok = [checks.passed("a")] * 3
    assert workloads.gate(ok, 3, [], False) == []
    bad = ok[:2] + [checks.failed("b", counterexample={})]
    assert any("check b failed" in p for p in workloads.gate(bad, 3, [], False))
    assert workloads.gate(ok, 4, [], False) == ["3 checks, expected 4"]


def test_gate_requires_the_witness_non_injectivity():
    field = workloads.make_field("F101")
    witness = suite.witness_checks(field)
    assert workloads.gate(witness, 5, witness, True) == []
    assert workloads.gate(witness[:4], 4, witness[:4], True)


def test_closed_loop_pass_reproduces_run_suite():
    inputs = workloads.build_inputs(TINY, workloads.PUBLISHED_SEED)
    profile = CorpusProfile(workloads.make_field("F101"), instance_count=TINY.instances)
    assert [i.name for i in inputs.corpus] == [i.name for i in generate_corpus(profile)]
    res = workloads.verify_pass(inputs)
    assert res.problems == []
    body = suite.run_suite(profile, derived_count=TINY.derived,
                           functoriality_instances=TINY.functoriality).as_json()
    del body["timing"]
    expected = hashlib.sha256(serialize.dumps_canonical(body).encode()).hexdigest()
    assert res.report_sha256 == expected


def test_traced_pass_counts_repeat_and_self_time_fits():
    tr = tracer.Tracer()
    first = run.traced_pass(tr, TINY, 7)
    second = run.traced_pass(tr, TINY, 7)
    for res, setup_table, table in (first, second):
        assert res.problems == []
        assert 0 < table["_self_total_s"] <= res.seconds
        # the template plus a pool pool_factor times the corpus
        assert setup_table["genlab.generate_instance"]["calls"] == \
            TINY.instances * (1 + TINY.pool_factor)
    counts = [{k: (v["calls"], v["cells"]) if isinstance(v, dict) else v
               for k, v in t.items() if k != "_self_total_s"} for _, _, t in (first, second)]
    assert counts[0] == counts[1]
    assert first[2]["linalg.rref"]["calls"] > 0
    assert first[2]["resolve.semifree_resolve"]["calls"] > 0
    assert first[0].report_sha256 == second[0].report_sha256


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(200)))[0] == 95.0
    assert run.tail(list(range(1000)))[0] == 99.0
    p, value, beyond = run.tail(list(range(1, 101)))
    assert (p, value, beyond) == (90.0, 90, 10)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert all(workloads.WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in tracer.per_layer_metrics()]
