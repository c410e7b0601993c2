"""Suite drivers: per-instance check batteries and machine-readable reports.

A battery is a witness, theta(M, N) or theta_der(M, N), and the checks run
on it.  `run_batteries` runs an instance's batteries for `run_suite` and
the single-pair commands, and hands each battery the witnesses built before
it: the derived battery stands on the plain theta(M, N) where the bounds
coincide, and the functoriality squares on both witnesses.  `run_suite`
runs all batteries of an instance in one worker.  Instances are processed in
a process pool; results are assembled in report order, keeping reports
deterministic for a fixed profile and seed.
"""
from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field as dc_field, replace

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
    return [r.tagged(key, inst_name) for r in results]


def crashed(label, exc, inst_name):
    """An unexpected exception in a battery on the instance `inst_name`, as
    one failed result."""
    return failed(label, counterexample={"exception": type(exc).__name__, "message": str(exc),
                                         "instance": inst_name})


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
    small = shrink_instance(inst, lambda cand: any(not r.ok and r.name == name
                                                   for r in battery(cand)))
    if small is not inst:
        ce = {**(fails[0].counterexample or {}), "shrunk_instance": instance_to_json(small)}
        results = [replace(r, counterexample=ce) if r is fails[0] else r for r in results]
    return results


def plain_checks(w: KunnethWitness, samples: int = 20) -> list:
    """The plain battery on theta(M, N): its evidence, representative
    independence and the exact sequences."""
    return [*w.evidence, check_representative_independence(w, samples=samples),
            *check_exact_sequences(w)]


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


def _plain(inst: Instance, built: dict, *args):
    w = theta(inst.m, inst.n)
    return plain_checks(w, *args), w


def _derived(inst: Instance, built: dict, *args):
    w = theta_der(inst.m, inst.n, built.get("plain"))
    return derived_checks(w, *args), w


def _functoriality(inst: Instance, built: dict, pair_seed: int, derived: bool):
    """(checks, None) of four morphism pairs: identity, zero, random,
    composite.  All are endomorphisms of (M, N), so theta(M, N) and
    theta_der(M, N) serve as source and target witness of every square; one
    missing from `built` is built here, once.  `derived` adds the theta_der squares."""
    rng = instance_rng(pair_seed, 0)
    m, n = inst.m, inst.n
    f1, g1 = random_morphism(m, m, rng), random_morphism(n, n, rng)
    f2, g2 = random_morphism(m, m, rng), random_morphism(n, n, rng)
    pairs = [("identity", StrictMorphism.identity(m), StrictMorphism.identity(n)),
             ("zero", StrictMorphism.zero(m, m), StrictMorphism.zero(n, n)),
             ("random", f1, g1), ("composite", f2.compose(f1), g2.compose(g1))]
    wt = built.get("plain") or theta(m, n)
    wdt = (built.get("derived") or theta_der(m, n, wt)) if derived else None
    out = []
    for label, fm, gm in pairs:
        res = check_functoriality(fm, gm, wt, wt)
        if derived:
            res += check_theta_der_functoriality(fm, gm, wdt, wdt)
        out.extend(_tag(res, label, "pair"))
    return out, None


# each battery, in report order, to its report prefix (its timing key and the
# stem of its crash label) and its runner
_BATTERIES = {"plain": ("plain_kunneth", _plain), "derived": ("derived_kunneth", _derived),
              "functoriality": ("functoriality", _functoriality)}


def run_batteries(inst: Instance, batteries: dict) -> dict:
    """{battery: (results, seconds, witness)} of each of `batteries`, {battery:
    args}, in order.  Each runner, `run(inst, built, *args) -> (checks,
    witness)`, reads the witnesses built before it, {battery: witness}; an
    exception becomes one failed `<prefix>_battery` check and no witness.
    "plain" and "derived" shrink a failure, and a candidate, whose modules
    are its own, builds its own witnesses.  Results carry no instance tag:
    the suite's callers add it, the single-pair commands do not."""
    out, built = {}, {}
    for name, args in batteries.items():
        prefix, run = _BATTERIES[name]

        def guarded(cand):
            try:
                return run(cand, built, *args)
            except Exception as exc:   # noqa: BLE001 - bundled, never swallowed
                return [crashed(f"{prefix}_battery", exc, cand.name)], None

        t0 = time.perf_counter()
        results, built[name] = guarded(inst)
        if name != "functoriality" and not all_ok(results):
            results = _attach_shrunk(results, inst, lambda cand: guarded(cand)[0])
        out[name] = (results, time.perf_counter() - t0, built[name])
    return out


def _alone(inst: Instance, battery: str, *args) -> list:
    """One battery's results, tagged as the suite reports them."""
    return _tag(run_batteries(inst, {battery: args})[battery][0], inst.name)


def plain_kunneth_checks(inst: Instance, samples: int = 20) -> list:
    return _alone(inst, "plain", samples)


def derived_kunneth_checks(inst: Instance, stabilization: bool = True,
                           independence: bool = True) -> list:
    return _alone(inst, "derived", stabilization, independence)


def functoriality_pair_checks(inst: Instance, pair_seed: int, derived: bool) -> list:
    """The squares of `_functoriality`, with both witnesses built for them."""
    return _alone(inst, "functoriality", pair_seed, derived)


def witness_checks(field) -> list:
    return noninjectivity_witness(field).checks


def _instance_worker(args):
    """`run_batteries` on one item (instance, batteries), as {battery:
    (results, seconds)}: the witnesses stay in the worker."""
    inst, batteries = args
    return {name: (_tag(results, inst.name), dt)
            for name, (results, dt, _) in run_batteries(inst, batteries).items()}


def _end_with_parent():
    """Pool initializer: a thread that exits this worker when the command ends,
    so none outlives a command killed by a signal.  It waits on the command,
    not on the parent: under forkserver the fork server, which outlives it."""
    from multiprocessing import parent_process

    def watch():
        parent_process().join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _run_batch(worker, items, jobs):
    """`worker` over `items`, in order; a pool gets two contiguous chunks per
    worker, each one pickle, so a chunk's instances share one field with its
    memo and family algebras (chunk sizes measured: `BENCH_27.json`).  A dead
    worker raises `BrokenExecutor`.  The pool's module is imported here alone."""
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(jobs, initializer=_end_with_parent) as pool:
            return list(pool.map(worker, items, chunksize=-(-len(items) // (2 * jobs))))
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

    items = []
    for i, inst in enumerate(corpus):
        batteries = {"plain": ()}
        if i < derived_count:
            batteries["derived"] = ()
        if i < functoriality_instances:
            batteries["functoriality"] = (profile.seed + 7919 + i, True)
        items.append((inst, batteries))
    t0 = time.perf_counter()
    batch = _run_batch(_instance_worker, items, jobs)
    report.timing["batteries"] = round(time.perf_counter() - t0, 3)

    per = report.timing["per_instance"] = {}
    for battery, (prefix, _) in _BATTERIES.items():
        runs = [(inst.name, *b[battery]) for inst, b in zip(corpus, batch) if battery in b]
        for name, results, dt in runs:
            report.checks.extend(results)
            per[f"{battery}:{name}"] = round(dt, 4)
        report.timing[prefix] = round(sum(dt for _, _, dt in runs), 3)

    report.checks.extend(witness_checks(profile.field))
    report.extra["witness_field"] = "rationals" if not profile.field.p else f"F{profile.field.p}"
    return report
