"""Suite drivers: per-instance check batteries and machine-readable reports.

A battery is a witness, theta(M, N) or theta_der(M, N), and the checks run
on it (`plain_checks`, `derived_checks`, shared with the CLI).  `run_suite`
runs all batteries of an instance in one worker, so the functoriality
squares reuse the plain and derived witnesses.  Instances are processed in
a process pool; results are assembled in report order, keeping reports
deterministic for a fixed profile and seed.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dc_field, replace
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
    shrink_instance,
)
from .kunneth import (
    KunnethWitness,
    check_exact_sequences,
    check_functoriality,
    check_representative_independence,
    theta,
)
from .resolve import (
    DerivedKunnethWitness,
    ResourceCapError,
    check_depth_stabilization,
    check_resolution_independence,
    check_theta_der_functoriality,
    deeper_witnesses,
    theta_der,
)
from .serialize import REPORT_FORMAT, instance_to_json, profile_to_json


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
            "format": REPORT_FORMAT,
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


def _tag(results, inst_name, key="instance"):
    """Copies of `results` with `inst_name` under `key` in their details.

    A witness's evidence is shared by every battery that reads the witness,
    so a record is copied before it is labelled, never edited in place."""
    return [replace(r, details={**r.details, key: inst_name}) for r in results]


def crashed(label, exc, inst_name=None):
    """An unexpected exception in a battery, as one failed result naming
    the instance when there is one; the CLI's pair commands have none."""
    ce = {"exception": type(exc).__name__, "message": str(exc)}
    return failed(label, counterexample=ce if inst_name is None else {**ce, "instance": inst_name})


def _attach_shrunk(results, inst: Instance, battery) -> list:
    """On failure, try a simple shrink (truncations, zeroed entries) that
    keeps the same check failing, and embed the smaller instance in a copy
    of the first failed result.

    A resolution that outgrew the generator cap is not shrunk: the cap
    depends only on the sizes involved, and each candidate would rerun the
    whole battery."""
    fails = [r for r in results if not r.ok]
    if not fails or (fails[0].counterexample or {}).get("exception") == \
            ResourceCapError.__name__:
        return results
    name = fails[0].name

    def still_failing(cand):
        return any((not r.ok) and r.name == name for r in battery(cand))

    small = shrink_instance(inst, still_failing)
    if small is not inst:
        ce = {**(fails[0].counterexample or {}), "shrunk_instance": instance_to_json(small)}
        results = [replace(r, counterexample=ce) if r is fails[0] else r for r in results]
    return results


def _battery(run, inst: Instance, label: str):
    """(results, witness) of one battery, `run(inst) -> (checks, witness)`.

    An unexpected exception becomes one failed `label` check and no
    witness; a failure gets a shrunk instance; results carry the instance
    name."""
    def guarded(cand):
        try:
            return run(cand)
        except Exception as exc:   # noqa: BLE001 - bundled, never swallowed
            return [crashed(label, exc, cand.name)], None

    results, w = guarded(inst)
    if not all_ok(results):
        results = _attach_shrunk(results, inst, lambda cand: guarded(cand)[0])
    return _tag(results, inst.name), w


def plain_checks(w: KunnethWitness, samples: int = 20) -> list:
    """The plain battery on theta(M, N): its evidence, representative
    independence and the exact sequences."""
    return [*w.evidence, check_representative_independence(w, samples=samples),
            *check_exact_sequences(w)]


def _plain_battery(inst: Instance, samples: int):
    w = theta(inst.m, inst.n)
    return plain_checks(w, samples), w


def plain_kunneth_checks(inst: Instance, samples: int = 20) -> list:
    return _battery(lambda cand: _plain_battery(cand, samples), inst,
                    "plain_kunneth_battery")[0]


def derived_checks(w: DerivedKunnethWitness, stabilization: bool = True,
                   independence: bool = True) -> list:
    """The derived battery on theta_der(M, N): its evidence, depth
    stabilization and resolution independence.  Both checks read the same
    two deeper witnesses, built once."""
    out = list(w.evidence)
    deeper = deeper_witnesses(w) if stabilization or independence else None
    if stabilization:
        out.append(check_depth_stabilization(w, deeper))
    if independence:
        out.append(check_resolution_independence(deeper))
    return out


def _derived_battery(inst: Instance, stabilization: bool, independence: bool):
    w = theta_der(inst.m, inst.n)
    return derived_checks(w, stabilization, independence), w


def derived_kunneth_checks(inst: Instance, stabilization: bool = True,
                           independence: bool = True) -> list:
    return _battery(lambda cand: _derived_battery(cand, stabilization, independence),
                    inst, "derived_kunneth_battery")[0]


def functoriality_pair_checks(inst: Instance, pair_seed: int, derived: bool) -> list:
    """Four morphism pairs per call: identity, zero, random, composite.

    All are endomorphisms of (M, N), so theta(M, N) and theta_der(M, N), at
    their default bounds and depth, are built once and serve as source and
    target witness of every square; the squares themselves are per pair."""
    return _functoriality(inst, pair_seed, derived, None, None)


def _functoriality(inst: Instance, pair_seed: int, derived: bool, w, wd) -> list:
    """`functoriality_pair_checks` on the witnesses `w` = theta(M, N) and
    `wd` = theta_der(M, N) where the other batteries built them; a None is
    built here."""
    def run():
        rng = instance_rng(pair_seed, 0)
        m, n = inst.m, inst.n
        f1, g1 = random_morphism(m, m, rng), random_morphism(n, n, rng)
        f2, g2 = random_morphism(m, m, rng), random_morphism(n, n, rng)
        pairs = [("identity", StrictMorphism.identity(m), StrictMorphism.identity(n)),
                 ("zero", StrictMorphism.zero(m, m), StrictMorphism.zero(n, n)),
                 ("random", f1, g1), ("composite", f2.compose(f1), g2.compose(g1))]
        wt = theta(m, n) if w is None else w
        wdt = theta_der(m, n) if derived and wd is None else wd
        out = []
        for label, fm, gm in pairs:
            res = check_functoriality(fm, gm, wt, wt)
            if derived:
                res += check_theta_der_functoriality(fm, gm, wdt, wdt)
            out.extend(_tag(res, label, "pair"))
        return out

    try:
        results = run()
    except Exception as exc:   # noqa: BLE001 - bundled, never swallowed
        results = [crashed("functoriality_battery", exc, inst.name)]
    return _tag(results, inst.name)


def witness_checks(field) -> list:
    w = noninjectivity_witness(field)
    return w.checks


# (report prefix, timing key) of each battery, in report order
_BATTERIES = (("plain", "plain_kunneth"), ("derived", "derived_kunneth"),
              ("functoriality", "functoriality"))


def _instance_worker(args):
    """Every battery of one instance, {prefix: (results, seconds)}.  The
    functoriality squares reuse the theta(M, N) and theta_der(M, N) that the
    plain and derived batteries built; only a witness whose battery raised
    is built again."""
    inst, derived, pair_seed = args
    out, wd = {}, None
    t0 = time.perf_counter()
    results, w = _battery(lambda cand: _plain_battery(cand, 20), inst, "plain_kunneth_battery")
    out["plain"] = (results, time.perf_counter() - t0)
    if derived:
        t0 = time.perf_counter()
        results, wd = _battery(lambda cand: _derived_battery(cand, True, True), inst,
                               "derived_kunneth_battery")
        out["derived"] = (results, time.perf_counter() - t0)
    if pair_seed is not None:
        t0 = time.perf_counter()
        out["functoriality"] = (_functoriality(inst, pair_seed, True, w, wd),
                                time.perf_counter() - t0)
    return out


def _run_batch(worker, items, jobs):
    """`worker` over `items`, in order; a pool gets two contiguous chunks per
    worker, each one pickle, so a chunk's instances share one field with its
    memo and family algebras (chunk sizes measured: `BENCH_27.json`)."""
    if jobs > 1 and len(items) > 1:
        with Pool(jobs) as pool:
            return pool.map(worker, items, chunksize=-(-len(items) // (2 * jobs)))
    return [worker(x) for x in items]


def run_suite(profile: CorpusProfile, derived_count: int = 100,
              functoriality_instances: int = 13, jobs: int = 1) -> Report:
    """Generate the corpus and run the plain and derived suites plus functoriality.

    The plain battery runs on every instance; the derived battery on the first
    `derived_count`; functoriality on the first `functoriality_instances`
    (4 morphism pairs each, both the plain and the derived square).  `jobs`
    must be at least 1 and is capped at the number of CPUs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)

    report = Report("suite", profile=profile_to_json(profile), seed=profile.seed)
    t0 = time.perf_counter()
    corpus = generate_corpus(profile)
    report.timing["generate"] = round(time.perf_counter() - t0, 3)
    report.instance_refs = [inst.name for inst in corpus]

    items = [(inst, i < derived_count,
              profile.seed + 7919 + i if i < functoriality_instances else None)
             for i, inst in enumerate(corpus)]
    t0 = time.perf_counter()
    batch = _run_batch(_instance_worker, items, jobs)
    report.timing["batteries"] = round(time.perf_counter() - t0, 3)

    per = report.timing["per_instance"] = {}
    for prefix, key in _BATTERIES:
        runs = [(inst.name, *b[prefix]) for inst, b in zip(corpus, batch) if prefix in b]
        for name, results, dt in runs:
            report.checks.extend(results)
            per[f"{prefix}:{name}"] = round(dt, 4)
        report.timing[key] = round(sum(dt for _, _, dt in runs), 3)

    report.checks.extend(witness_checks(profile.field))
    report.extra["witness_field"] = "rationals" if not profile.field.p else f"F{profile.field.p}"
    return report
