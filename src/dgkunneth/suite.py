"""Suite drivers: per-instance check batteries and machine-readable reports.

Checks are pure per instance, so corpora can be processed with a process
pool; results are always assembled in instance order, keeping reports
deterministic for a fixed profile and seed.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dc_field
from multiprocessing import Pool

from .checks import all_ok, failed
from .dgmodule import StrictMorphism
from .genlab import (
    CorpusProfile,
    Instance,
    generate_corpus,
    instance_rng,
    noninjectivity_witness,
    random_morphism,
)
from .kunneth import (
    check_exact_sequences,
    check_functoriality,
    check_representative_independence,
    theta,
)
from .resolve import (
    ResourceCapError,
    check_depth_stabilization,
    check_resolution_independence,
    check_theta_der_functoriality,
    theta_der,
)


@dataclass
class Report:
    command: str
    instance_refs: list = dc_field(default_factory=list)
    checks: list = dc_field(default_factory=list)
    profile: dict | None = None
    seed: int | None = None
    timing: dict = dc_field(default_factory=dict)
    extra: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all_ok(self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def as_json(self) -> dict:
        out = {
            "format": "dgkunneth-report/1",
            "command": self.command,
            "instance_refs": self.instance_refs,
            "checks": [c.as_json() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "failed": sum(1 for c in self.checks if not c.ok),
                "status": "pass" if self.ok else "fail",
            },
            "timing": self.timing,
        }
        if self.profile is not None:
            out["profile"] = self.profile
        if self.seed is not None:
            out["seed"] = self.seed
        out.update(self.extra)
        return out


def _tag(results, inst_name):
    for r in results:
        r.details = dict(r.details)
        r.details["instance"] = inst_name
    return results


def _guard(fn, inst_name, label):
    """Run a check battery; unexpected exceptions become failed results."""
    try:
        return fn()
    except Exception as exc:   # noqa: BLE001 - bundled, never swallowed
        return [failed(label, counterexample={"exception": type(exc).__name__,
                                              "message": str(exc),
                                              "instance": inst_name})]


def _attach_shrunk(results, inst: Instance, battery) -> list:
    """On failure, try a simple shrink (truncations, zeroed entries) that
    keeps the same check failing, and embed the smaller instance.

    A resolution that outgrew the generator cap is not shrunk: the cap
    depends only on the sizes involved, and each candidate would rerun the
    whole battery."""
    from .genlab import shrink_instance
    from .serialize import instance_to_json

    fails = [r for r in results if not r.ok]
    if not fails or (fails[0].counterexample or {}).get("exception") == \
            ResourceCapError.__name__:
        return results
    name = fails[0].name

    def still_failing(cand):
        return any((not r.ok) and r.name == name for r in battery(cand))

    small = shrink_instance(inst, still_failing)
    if small is not inst:
        fails[0].counterexample = dict(fails[0].counterexample or {})
        fails[0].counterexample["shrunk_instance"] = instance_to_json(small)
    return results


def _plain_battery(inst: Instance, samples: int) -> list:
    out = []
    w = theta(inst.m, inst.n)
    out.extend(w.evidence)
    out.append(check_representative_independence(w, samples=samples))
    out.extend(check_exact_sequences(w))
    return out


def plain_kunneth_checks(inst: Instance, samples: int = 20) -> list:
    results = _guard(lambda: _plain_battery(inst, samples), inst.name,
                     "plain_kunneth_battery")
    if not all_ok(results):
        results = _attach_shrunk(
            results, inst,
            lambda cand: _guard(lambda: _plain_battery(cand, samples), cand.name,
                                "plain_kunneth_battery"))
    return _tag(results, inst.name)


def _derived_battery(inst: Instance, stabilization: bool, independence: bool) -> list:
    out = []
    w = theta_der(inst.m, inst.n)
    out.extend(w.evidence)
    if stabilization:
        out.append(check_depth_stabilization(w))
    if independence:
        out.append(check_resolution_independence(w))
    return out


def derived_kunneth_checks(inst: Instance, stabilization: bool = True,
                           independence: bool = True) -> list:
    results = _guard(lambda: _derived_battery(inst, stabilization, independence),
                     inst.name, "derived_kunneth_battery")
    if not all_ok(results):
        results = _attach_shrunk(
            results, inst,
            lambda cand: _guard(lambda: _derived_battery(cand, stabilization, independence),
                                cand.name, "derived_kunneth_battery"))
    return _tag(results, inst.name)


def functoriality_pair_checks(inst: Instance, pair_seed: int, derived: bool) -> list:
    """Four morphism pairs per call: identity, zero, random, composite.

    All are endomorphisms of (M, N), so theta(M, N) and theta_der(M, N), at
    their default bounds and depth, are built once and serve as source and
    target witness of every square; the squares themselves are per pair."""
    def run():
        rng = instance_rng(pair_seed, 0)
        m, n = inst.m, inst.n
        pairs = [
            ("identity", StrictMorphism.identity(m), StrictMorphism.identity(n)),
            ("zero", StrictMorphism.zero(m, m), StrictMorphism.zero(n, n)),
        ]
        f1 = random_morphism(m, m, rng)
        g1 = random_morphism(n, n, rng)
        f2 = random_morphism(m, m, rng)
        g2 = random_morphism(n, n, rng)
        pairs.append(("random", f1, g1))
        pairs.append(("composite", f2.compose(f1), g2.compose(g1)))
        w = theta(m, n)
        wd = theta_der(m, n) if derived else None
        out = []
        for label, fm, gm in pairs:
            res = check_functoriality(fm, gm, w, w)
            if derived:
                res += check_theta_der_functoriality(fm, gm, wd, wd)
            for r in res:
                r.details = dict(r.details)
                r.details["pair"] = label
            out.extend(res)
        return out
    return _tag(_guard(run, inst.name, "functoriality_battery"), inst.name)


def witness_checks(field) -> list:
    w = noninjectivity_witness(field)
    return w.checks


def _t1_worker(args):
    inst, samples = args
    t0 = time.perf_counter()
    out = plain_kunneth_checks(inst, samples)
    return inst.name, out, time.perf_counter() - t0


def _t2_worker(args):
    inst, stab, indep = args
    t0 = time.perf_counter()
    out = derived_kunneth_checks(inst, stab, indep)
    return inst.name, out, time.perf_counter() - t0


def _fun_worker(args):
    inst, seed, derived = args
    t0 = time.perf_counter()
    out = functoriality_pair_checks(inst, seed, derived)
    return inst.name, out, time.perf_counter() - t0


def _run_batch(worker, items, jobs):
    if jobs > 1 and len(items) > 1:
        with Pool(jobs) as pool:
            return pool.map(worker, items, chunksize=1)
    return [worker(x) for x in items]


def _collect(report: Report, batch, prefix: str):
    per = report.timing.setdefault("per_instance", {})
    for name, results, dt in batch:
        report.checks.extend(results)
        per[f"{prefix}:{name}"] = round(dt, 4)


def run_suite(profile: CorpusProfile, derived_count: int = 100,
              functoriality_instances: int = 13, jobs: int = 1) -> Report:
    """Generate the corpus and run the plain and derived suites plus functoriality.

    The plain battery runs on every instance; the derived battery on the first
    `derived_count`; functoriality on the first `functoriality_instances`
    (4 morphism pairs each, both the plain and the derived square).  `jobs`
    must be at least 1 and is capped at the number of CPUs.
    """
    from .serialize import profile_to_json

    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)

    report = Report("suite", profile=profile_to_json(profile), seed=profile.seed)
    t0 = time.perf_counter()
    corpus = generate_corpus(profile)
    report.timing["generate"] = round(time.perf_counter() - t0, 3)
    report.instance_refs = [inst.name for inst in corpus]

    t0 = time.perf_counter()
    _collect(report, _run_batch(_t1_worker, [(inst, 20) for inst in corpus], jobs),
             "plain")
    report.timing["plain_kunneth"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    derived = corpus[:derived_count]
    _collect(report, _run_batch(_t2_worker, [(inst, True, True) for inst in derived], jobs),
             "derived")
    report.timing["derived_kunneth"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    fun = corpus[:functoriality_instances]
    items = [(inst, profile.seed + 7919 + i, True) for i, inst in enumerate(fun)]
    _collect(report, _run_batch(_fun_worker, items, jobs), "functoriality")
    report.timing["functoriality"] = round(time.perf_counter() - t0, 3)

    report.checks.extend(witness_checks(profile.field))
    report.extra["witness_field"] = "rationals" if not profile.field.p else f"F{profile.field.p}"
    return report
