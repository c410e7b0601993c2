"""Each witness is built once per battery and handed to the checks after it.

The canonical suite reports are pinned to the hashes the code gave while
every check still rebuilt its own objects, and the construction counts per
battery are measured by wrapping `theta` and `semifree_resolve` by name.
"""
import hashlib
import sys

import pytest

from dgkunneth import kunneth, resolve, suite
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
