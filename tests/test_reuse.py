"""Each witness is built once per battery and handed to the checks after it.

The canonical suite reports are pinned to the hashes the code gave while
every check still rebuilt its own objects, and the construction counts per
battery are measured by wrapping `theta` and `semifree_resolve` by name.
"""
import hashlib
import sys
from dataclasses import replace

import pytest

from dgkunneth import kunneth, resolve, suite
from dgkunneth.checks import failed
from dgkunneth.cli import main
from dgkunneth.field import Field
from dgkunneth.genlab import CorpusProfile, generate_corpus
from dgkunneth.serialize import dumps_canonical

F101 = Field.prime(101)
FIELDS = {"F101": F101, "Q": Field.rationals()}
# sha256 of the canonical run_suite report without `timing`, default seed,
# 12 instances, 6 derived, 2 functoriality
REPORT_SHA256 = {
    "F101": "0071c681277e5ef343f7255db81be7f733621accfdca81439a7c9b104fe053f4",
    "Q": "b5d3aed4dc890c396c609b2e27564782938e42d6cd8c5c51e570b3a1818b218c",
}


@pytest.mark.parametrize("label", sorted(REPORT_SHA256))
def test_small_suite_report_is_pinned(label):
    report = suite.run_suite(CorpusProfile(field=FIELDS[label], instance_count=12),
                             derived_count=6, functoriality_instances=2).as_json()
    report.pop("timing")
    assert len(report["checks"]) == 12 * 13 + 6 * 8 + 2 * 20 + 5
    digest = hashlib.sha256(dumps_canonical(report).encode()).hexdigest()
    assert digest == REPORT_SHA256[label]


def _count_calls(monkeypatch, module, name):
    """Wrap `module.name` wherever the package binds it; returns the call log."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("dgkunneth") \
                and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_batteries_build_each_witness_once(monkeypatch):
    corpus = generate_corpus(CorpusProfile(field=F101, instance_count=6))
    originals = (kunneth.theta, resolve.semifree_resolve)
    thetas = _count_calls(monkeypatch, kunneth, "theta")
    builds = _count_calls(monkeypatch, resolve, "semifree_resolve")
    passing = 0
    for inst in corpus:
        thetas.clear()
        assert all(r.ok for r in suite.plain_kunneth_checks(inst))
        assert len(thetas) == 1, inst.name
        builds.clear()
        if all(r.ok for r in suite.derived_kunneth_checks(inst)):
            passing += 1
            # variant 0 at width+2, +3, +4, and variants 1 and 2
            assert len(builds) == 5, inst.name
    assert passing > 0
    monkeypatch.undo()
    assert (suite.theta, resolve.semifree_resolve) == originals


def test_functoriality_builds_each_witness_once(monkeypatch):
    inst = generate_corpus(CorpusProfile(field=F101, instance_count=1))[0]
    originals = (kunneth.theta, resolve.theta_der, resolve.semifree_resolve)
    thetas = _count_calls(monkeypatch, kunneth, "theta")
    derived = _count_calls(monkeypatch, resolve, "theta_der")
    builds = _count_calls(monkeypatch, resolve, "semifree_resolve")
    results = suite.functoriality_pair_checks(inst, 7919, True)
    assert [r.name for r in results].count("theta_der_naturality") == 4
    assert all(r.ok for r in results)
    # one theta(M, N) and one theta_der(M, N) for the four pairs (each was
    # built once per pair and side, 8 times); theta_der itself calls theta
    # twice, for (P, N) and for the truncated (M, N)
    assert (len(thetas), len(derived), len(builds)) == (1 + 2, 1, 1)
    for log in (thetas, derived, builds):
        log.clear()
    results = suite.functoriality_pair_checks(inst, 7919, False)
    assert len(results) == 4 and all(r.ok for r in results)
    assert (len(thetas), len(derived), len(builds)) == (1, 0, 0)
    monkeypatch.undo()
    assert (suite.theta, suite.theta_der, resolve.semifree_resolve) == originals


def test_functoriality_reports_witness_failures_per_pair_and_side(monkeypatch):
    inst = generate_corpus(CorpusProfile(field=F101, instance_count=1))[0]
    orig = suite.theta

    def broken(m, n):
        w = orig(m, n)
        return replace(w, evidence=w.evidence + [failed("injected")])

    monkeypatch.setattr(suite, "theta", broken)
    results = suite.functoriality_pair_checks(inst, 7919, False)
    injected = [r for r in results if r.name == "injected"]
    assert [r.details["pair"] for r in injected] == \
        ["identity", "identity", "zero", "zero", "random", "random",
         "composite", "composite"]
    assert len({id(r) for r in injected}) == 8


def test_jobs_clamped_to_cpu_count(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(suite, "Pool", FakePool)
    monkeypatch.setattr(suite.os, "cpu_count", lambda: 3)
    report = suite.run_suite(CorpusProfile(field=F101, instance_count=2),
                             derived_count=0, functoriality_instances=0, jobs=64)
    assert report.ok
    assert sizes == [3]


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError):
        suite.run_suite(CorpusProfile(field=F101, instance_count=2), jobs=0)
    assert main(["suite", "--jobs", "0"]) == 2
