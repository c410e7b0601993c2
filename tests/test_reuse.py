"""Each witness is built once per instance and handed to the checks after it.

The canonical suite reports are pinned to the hashes the code gave while
every check still rebuilt its own objects, and the construction counts per
battery and per suite run are measured by wrapping `theta` and
`semifree_resolve` by name.  A test that counts builds or computations
runs on a field object of its own: a field carries the memo of resolutions
and presentations from test to test.
"""
import concurrent.futures
import hashlib
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import replace

import pytest

from dgkunneth import dgalgebra, dgmodule, kunneth, resolve, suite
from dgkunneth.checks import failed, passed
from dgkunneth.cli import main
from dgkunneth.field import Field
from dgkunneth.genlab import CorpusProfile, generate_corpus, generate_instance
from dgkunneth.serialize import dumps_canonical

F101 = Field.prime(101)
# F_(2^61-1) stores matrices as object arrays of Python ints
FIELDS = {"F101": F101, "Q": Field.rationals(), "F2^61-1": Field.prime(2 ** 61 - 1)}
# sha256 of the canonical run_suite report without `timing`, default seed,
# 12 instances, 6 derived, 2 functoriality; re-pinned when the resolution
# depths became 2, 3 and 4 for every N, which changed only the
# `depth_stabilization` depths of the instances where N has width > 0
REPORT_SHA256 = {
    "F101": "3c62a05f87e2c9ff5bbb058f50af124491857e7e4c0fbe343be36123e9ac3187",
    "Q": "48b172ac40edfa28bca77658b76c3b4f6f920958e6ac8e5d28b5f5c0c137b094",
    "F2^61-1": "ea6da59ed998f330ca9f444c51cb3726160dd618736cf015d5fee6c696404a10",
}


# the same for the published F_101 profile: 200 instances, 100 derived, 13
# functoriality (the benchmark's `suite_f101` report); the re-pin changed
# `depth_stabilization.details.depths` in 71 records and
# `lift_solvable.details.generators` in 8
PUBLISHED_F101_SHA256 = "7b96ac3f19facfac12bb81742ef77ac7fe9bead3405fb68f84f820d7f81de995"


def _small_suite(field, jobs=1):
    return suite.run_suite(CorpusProfile(field=field, instance_count=12),
                           derived_count=6, functoriality_instances=2, jobs=jobs)


def _digest(report):
    body = report.as_json()
    body.pop("timing")
    assert len(body["checks"]) == 12 * 13 + 6 * 8 + 2 * 20 + 5
    return hashlib.sha256(dumps_canonical(body).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(REPORT_SHA256))
def test_small_suite_report_is_pinned(label):
    assert _digest(_small_suite(FIELDS[label])) == REPORT_SHA256[label]


def test_published_f101_report_is_pinned(monkeypatch):
    counted = {name: _count_calls(monkeypatch, module, name)
               for module, name in ((dgmodule, "_cohomology"), (kunneth, "theta"),
                                    (resolve, "semifree_resolve"),
                                    (resolve, "SemiFreeResolution"),
                                    (resolve, "_certify_resolution"),
                                    (dgalgebra, "validate_algebra"))}
    lift_solves = _count_lift_solves(monkeypatch)
    body = suite.run_suite(CorpusProfile(field=Field.prime(101))).as_json()
    body.pop("timing")
    assert len(body["checks"]) == 200 * 13 + 100 * 8 + 13 * 20 + 5
    assert hashlib.sha256(dumps_canonical(body).encode()).hexdigest() == PUBLISHED_F101_SHA256
    # a copy of a module starts with an empty cohomology cache, so a witness
    # that rebuilds one raises the H^i count; stage 0 of a resolution scans
    # H^i in the nonzero degrees from the top down, also on an acyclic
    # module; each family algebra is built and validated once per field
    # object, plus once for the witness checks.  The 300 resolution requests have
    # 156 distinct (module, depth, variant) keys: each is built once and
    # certified, the 81 without generators too; the H^i of a shared P and its
    # target are computed once for all the instances that share them;
    # theta_der's bounds read only dim H^i, through the memo, and 87 of the
    # 100 derived instances have their class tops at the window tops, so
    # their theta_der stands on the plain battery's theta(M, N)
    assert {name: len(calls) for name, calls in counted.items()} == {
        "_cohomology": 1114, "theta": 513, "semifree_resolve": 300,
        "SemiFreeResolution": 156, "_certify_resolution": 156, "validate_algebra": 8}
    # the functoriality lifts make one solve per run of generators: 68 runs
    # that hold 96 generators
    assert (len(lift_solves), sum(lift_solves)) == (68, 96)


def _count_lift_solves(monkeypatch):
    """The columns of each `solve` that `lift_through_resolutions` makes."""
    solve, lift = resolve.solve, resolve.lift_through_resolutions
    inside, cols = [], []

    def counted_solve(m, rhs):
        if inside:
            cols.append(rhs.cols)
        return solve(m, rhs)

    def counted_lift(*args):
        inside.append(True)
        try:
            return lift(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(resolve, "solve", counted_solve)
    monkeypatch.setattr(resolve, "lift_through_resolutions", counted_lift)
    return cols


def test_small_suite_report_is_pinned_under_two_hash_seeds():
    # fresh interpreters, one after the other: the hash seed fixes the order
    # of every set and of every dict keyed by strings
    paths = [str(pathlib.Path(suite.__file__).resolve().parents[1]),
             str(pathlib.Path(__file__).resolve().parent)]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_reuse as t; "
            "print(t._digest(t._small_suite(t.F101)))")
    for seed in ("0", "12345"):
        out = subprocess.run([sys.executable, "-c", code, *paths],
                             env={**os.environ, "PYTHONHASHSEED": seed}, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == [REPORT_SHA256["F101"]], seed


def test_small_suite_report_is_pinned_with_two_workers():
    # a real pool of 2 processes (fewer where fewer CPUs exist)
    assert _digest(_small_suite(F101, jobs=2)) == REPORT_SHA256["F101"]


def test_two_workers_share_a_field_per_chunk(monkeypatch):
    # a pool task carries its chunk in one pickle, as this fake pool does:
    # the chunk's instances share one unpickled field, with its memo and
    # its family algebras, and the report is the one of a single process
    chunks = []

    class ChunkPool:
        def __init__(self, max_workers, **kwargs):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            out = []
            for start in range(0, len(items), chunksize):
                chunk = pickle.loads(pickle.dumps(items[start:start + chunksize]))
                assert len({id(inst.algebra.field) for inst, *_ in chunk}) == 1
                assert len({id(inst.algebra) for inst, *_ in chunk}) == \
                    len({inst.family for inst, *_ in chunk})
                chunks.append(len(chunk))
                out += [fn(x) for x in chunk]
            return out

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ChunkPool)
    monkeypatch.setattr(suite.os, "cpu_count", lambda: 2)
    built = _count_calls(monkeypatch, resolve, "SemiFreeResolution")
    body = suite.run_suite(CorpusProfile(field=Field.prime(101)), jobs=2).as_json()
    body.pop("timing")
    assert hashlib.sha256(dumps_canonical(body).encode()).hexdigest() == PUBLISHED_F101_SHA256
    # 189 of the 300 requests build, against 156 in one process and 300
    # when every instance travels alone
    assert chunks == [50] * 4 and len(built) == 189


def test_a_used_field_pickles_like_a_new_one():
    # pool tasks do not ship the field's memo, and a warm memo changes no report
    f = Field.prime(101)
    assert _digest(_small_suite(f)) == REPORT_SHA256["F101"]
    assert f.memo
    assert pickle.dumps(f) == pickle.dumps(Field.prime(101))
    assert pickle.loads(pickle.dumps(f)).memo == {}
    assert _digest(_small_suite(f, jobs=2)) == REPORT_SHA256["F101"]


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


def test_check_records_are_slotted_and_pickle_equal():
    # the --jobs 2 path ships every record through the pool as a pickle
    for r in (passed("p", dim=2), failed("f", {"why": 1}, rank=0),
              passed("p", dim=2).tagged("instance", "x")):
        assert not hasattr(r, "__dict__")
        assert pickle.loads(pickle.dumps(r)) == r


def test_tagged_copies_and_leaves_the_shared_evidence_as_it_is():
    inst = generate_corpus(CorpusProfile(field=F101, instance_count=1))[0]
    w = kunneth.theta(inst.m, inst.n)
    before = [dict(r.details) for r in w.evidence]
    tagged = suite._tag(w.evidence, inst.name)
    assert [r.details for r in w.evidence] == before
    assert [r.details for r in tagged] == [{**d, "instance": inst.name} for d in before]
    assert all(t is not r and t.details is not r.details for t, r in zip(tagged, w.evidence))
    r = failed("f", {"why": 1})
    assert r.tagged("pair", "zero").counterexample is r.counterexample


def test_check_record_json_is_unchanged():
    assert passed("p").as_json() == {"name": "p", "status": "pass"}
    assert passed("p", dim=2).as_json() == {"name": "p", "status": "pass", "details": {"dim": 2}}
    assert failed("f").as_json() == {"name": "f", "status": "fail", "counterexample": {}}
    assert failed("f", {"why": 1}, rank=0).tagged("instance", "x").as_json() == {
        "name": "f", "status": "fail", "details": {"rank": 0, "instance": "x"},
        "counterexample": {"why": 1}}


def test_batteries_build_each_witness_once(monkeypatch):
    corpus = generate_corpus(CorpusProfile(field=Field.prime(101), instance_count=6))
    originals = (kunneth.theta, resolve.semifree_resolve)
    thetas = _count_calls(monkeypatch, kunneth, "theta")
    builds = _count_calls(monkeypatch, resolve, "semifree_resolve")
    passing = 0
    for inst in corpus:
        thetas.clear()
        assert all(r.ok for r in suite.plain_kunneth_checks(inst))
        assert len(thetas) == 1, inst.name
        thetas.clear()
        builds.clear()
        if all(r.ok for r in suite.derived_kunneth_checks(inst)):
            passing += 1
            # variant 0 at depth 2, variant 1 at depth 3 and variant 2 at
            # depth 4, shared by both deep checks
            assert len(builds) == 3, inst.name
            # theta(M, N) once, and theta(P, N) for each of the 3 resolutions
            assert len(thetas) == 4, inst.name
    assert passing > 0
    monkeypatch.undo()
    assert (suite.theta, resolve.semifree_resolve) == originals


def test_suite_reuses_the_witnesses_for_functoriality(monkeypatch):
    thetas = _count_calls(monkeypatch, kunneth, "theta")
    builds = _count_calls(monkeypatch, resolve, "semifree_resolve")
    f = Field.prime(101)
    for i, inst in enumerate(generate_corpus(CorpusProfile(field=f, instance_count=12))):
        suite.plain_kunneth_checks(inst)
        if i < 6:
            suite.derived_kunneth_checks(inst)
    # 12 plain thetas, and 6 derived instances with 4 thetas and 3 builds each
    assert (len(thetas), len(builds)) == (12 + 6 * 4, 6 * 3)
    thetas.clear()
    builds.clear()
    _small_suite(f)
    # the functoriality squares of the first 2 instances build nothing more,
    # and the derived battery stands on the plain theta(M, N) of each of the
    # 6 derived instances, whose class tops are all its window tops
    assert (len(thetas), len(builds)) == (12 + 6 * 3, 6 * 3)


def test_derived_battery_computes_each_cohomology_once(monkeypatch):
    # inst0001 (koszul_dg): the battery asks for H^i 62 times, and the
    # resolution build and certification ask for H^t(mG) and H^t(P) again
    # and again; only 26 distinct (module, degree) pairs are computed, as
    # theta(M, N) and theta(P, nG) read mG, nG and P themselves (M[0] is M);
    # theta_der's bounds read dim H^i of M and N without their H^0(A) action
    inst = generate_corpus(CorpusProfile(field=Field.prime(101), instance_count=2))[1]
    requested = _count_calls(monkeypatch, dgmodule, "cohomology")
    computed = _count_calls(monkeypatch, dgmodule, "_cohomology")
    assert all(r.ok for r in suite.derived_kunneth_checks(inst))
    assert (len(requested), len(computed)) == (62, 26)


def test_functoriality_builds_each_witness_once(monkeypatch):
    inst = generate_corpus(CorpusProfile(field=Field.prime(101), instance_count=1))[0]
    originals = (kunneth.theta, resolve.theta_der, resolve.semifree_resolve)
    thetas = _count_calls(monkeypatch, kunneth, "theta")
    derived = _count_calls(monkeypatch, resolve, "theta_der")
    builds = _count_calls(monkeypatch, resolve, "semifree_resolve")
    results = suite.functoriality_pair_checks(inst, 7919, True)
    assert [r.name for r in results].count("theta_der_naturality") == 4
    assert all(r.ok for r in results)
    # one theta(M, N) and one theta_der(M, N) for the four pairs (each was
    # built once per pair and side, 8 times); theta_der stands on that
    # theta(M, N), as the class tops are the window tops, and calls theta
    # once more, for (P, N)
    assert (len(thetas), len(derived), len(builds)) == (1 + 1, 1, 1)
    for log in (thetas, derived, builds):
        log.clear()
    results = suite.functoriality_pair_checks(inst, 7919, False)
    assert len(results) == 4 and all(r.ok for r in results)
    assert (len(thetas), len(derived), len(builds)) == (1, 0, 0)
    monkeypatch.undo()
    assert (suite.theta, suite.theta_der, resolve.semifree_resolve) == originals


def test_the_derived_battery_stands_on_the_plain_theta_where_the_bounds_coincide():
    # 87 of the first 100 published F_101 instances, the derived ones, have
    # their class tops at their window tops, inst0000 among them; inst0013
    # is the first that does not, and its derived battery builds its own
    # theta(M, N) at the class tops
    profile = CorpusProfile(field=Field.prime(101))
    tops = [(resolve._top_class_degree(inst.m), resolve._top_class_degree(inst.n)) ==
            (inst.m.window[1], inst.n.window[1]) for inst in generate_corpus(profile)[:100]]
    assert (sum(tops), tops.index(False)) == (87, 13)
    for idx, shared in ((0, True), (13, False)):
        inst = generate_instance(profile, idx)
        out = suite.run_batteries(inst, {"plain": (), "derived": ()})
        assert all(r.ok for results, _, _ in out.values() for r in results), idx
        plain, derived = out["plain"][2], out["derived"][2]
        assert (derived.mn is plain) == shared, idx
        assert (derived.mn.m, derived.mn.n) == (inst.m, inst.n)
        assert (derived.mn.i0, derived.mn.j0) == (resolve._top_class_degree(inst.m),
                                                  resolve._top_class_degree(inst.n))


def test_a_shrink_candidate_builds_its_own_theta(monkeypatch):
    # the derived battery always fails here, so its failure is shrunk; the
    # candidates are handed the original plain witness, whose modules are
    # not theirs, and each states theta_der on a theta(M, N) of its own
    inst = generate_instance(CorpusProfile(field=Field.prime(101)), 1)
    orig, calls = suite.theta_der, []

    def broken(m, n, mn=None):
        w = orig(m, n, mn)
        calls.append((m, n, mn, w.mn))
        return replace(w, evidence=w.evidence + [failed("injected")])

    monkeypatch.setattr(suite, "theta_der", broken)
    out = suite.run_batteries(inst, {"plain": (), "derived": ()})
    plain = out["plain"][2]
    first_failed = next(r for r in out["derived"][0] if not r.ok)
    assert "shrunk_instance" in first_failed.counterexample
    (m0, _, handed0, used0), *candidates = calls
    assert m0 is inst.m and handed0 is plain and used0 is plain
    assert candidates
    for m, n, handed, used in candidates:
        assert handed is plain and used is not plain
        assert used.m is m and used.n is n


def test_functoriality_checks_build_and_compare_no_module(monkeypatch):
    # on the 13 functoriality instances of the published F_101 profile, the
    # squares move each morphism onto the witnesses' own modules: no module
    # is built or compared inside the two checks
    counts = {"built": 0, "compared": 0}
    inside = [False]
    init, eq = dgmodule.DGModule.__init__, dgmodule.DGModule.__eq__

    def counted_init(self, *args):
        counts["built"] += inside[0]
        init(self, *args)

    def counted_eq(self, other):
        counts["compared"] += inside[0]
        return eq(self, other)

    def counted_check(check):
        def run(*args):
            inside[0] = True
            try:
                return check(*args)
            finally:
                inside[0] = False
        return run

    monkeypatch.setattr(dgmodule.DGModule, "__init__", counted_init)
    monkeypatch.setattr(dgmodule.DGModule, "__eq__", counted_eq)
    for name in ("check_functoriality", "check_theta_der_functoriality"):
        monkeypatch.setattr(suite, name, counted_check(getattr(suite, name)))
    profile = CorpusProfile(field=Field.prime(101), instance_count=13)
    squares = 0
    for i, inst in enumerate(generate_corpus(profile)):
        results = suite.functoriality_pair_checks(inst, profile.seed + 7919 + i, True)
        assert all(r.ok for r in results), inst.name
        squares += sum(r.name.endswith("_naturality") for r in results)
    assert squares == 13 * 4 * 2
    assert counts == {"built": 0, "compared": 0}


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


def test_suite_functoriality_records_match_the_battery_alone(monkeypatch):
    # the plain battery fails on the broken theta and gets a shrunk
    # instance; the derived battery stands on that theta and fails with it,
    # but its shrink candidates build their own, unbroken theta and keep
    # nothing failing; the witnesses the squares share carry no shrunk instance
    profile = CorpusProfile(field=F101, instance_count=1)
    inst = generate_corpus(profile)[0]
    orig = suite.theta

    def broken(m, n):
        w = orig(m, n)
        return replace(w, evidence=w.evidence + [failed("injected")])

    monkeypatch.setattr(suite, "theta", broken)
    report = suite.run_suite(profile, derived_count=1, functoriality_instances=1)
    # in report order: the plain battery's record, then the derived one's
    plain, derived = [r for r in report.checks if r.name == "injected" and "pair" not in r.details]
    assert "shrunk_instance" in plain.counterexample and derived.counterexample == {}
    fun = [r.as_json() for r in report.checks if "pair" in r.details]
    alone = suite.functoriality_pair_checks(inst, profile.seed + 7919, True)
    assert fun == [r.as_json() for r in alone]
    # both witnesses of both squares of each of the 4 pairs
    assert len([r for r in alone if r.name == "injected"]) == 16
    assert not any("shrunk_instance" in (r.counterexample or {}) for r in alone)


def test_jobs_clamped_to_cpu_count(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(suite.os, "cpu_count", lambda: 3)
    report = suite.run_suite(CorpusProfile(field=F101, instance_count=2),
                             derived_count=0, functoriality_instances=0, jobs=64)
    assert report.ok
    assert sizes == [3]


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError):
        suite.run_suite(CorpusProfile(field=F101, instance_count=2), jobs=0)
    assert main(["suite", "--jobs", "0"]) == 2
