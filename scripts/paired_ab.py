#!/usr/bin/env python3
"""Paired in-process A/B timing of two source trees on one corpus.

    python scripts/paired_ab.py BASE_ROOT CHANGED_ROOT --reps 6 [--cold]

Each ROOT is a checkout holding `src/dgkunneth`.  The two packages are
loaded under distinct names (`ab_base`, `ab_changed`) in one process, and
each tree's own `run_suite` plans the published F_101 corpus (seed
20240601, the first `--instances`): its instances and which batteries run
on each, taken from the batch it is stopped before running.  Every rep
visits the instances in order and runs that per-instance work for both
trees back to back, the order alternating per instance, so drift on a
shared machine lands on both sides alike.  Each instance's verdict time is
its median over the reps.

By default every rep reuses the corpus and field of the first, as the
benchmark's passes do (a warm memo after rep 1); `--cold` builds a new
field and corpus for every rep, so every rep starts with an empty memo, as
a user's single `run_suite` does.  The reports of the two trees must agree
check for check, else the script exits 1.

Prints each tree's p50 and tail (the highest of p99.9 ... p50 with at least
ten instances beyond it, nearest rank) and the median over instances of
the per-instance ratio changed/base.
"""
import argparse
import gc
import importlib.util
import math
import pathlib
import statistics
import sys
import time

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Planned(Exception):
    """Carries the items `run_suite` hands to its batch runner."""


def load(root: str, name: str):
    """The `dgkunneth` package under `root`/src, imported as `name`."""
    pkg = pathlib.Path(root).resolve() / "src" / "dgkunneth"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("field", "genlab", "serialize", "suite")}


def plan(pkg, instances: int) -> list:
    """`run_suite`'s items (instance, derived?, pair seed or None) on the
    first `instances` of the published F_101 corpus, over a new field."""
    suite = pkg["suite"]

    def stop(worker, items, jobs):
        raise Planned(items)

    profile = pkg["genlab"].CorpusProfile(field=pkg["field"].Field.prime(101),
                                          instance_count=instances)
    saved, suite._run_batch = suite._run_batch, stop
    try:
        suite.run_suite(profile)
    except Planned as planned:
        return planned.args[0]
    finally:
        suite._run_batch = saved
    raise RuntimeError("run_suite ran no batch")


def verdict(pkg, item):
    """(seconds, canonical checks) of run_suite's work on one item."""
    t0 = time.perf_counter()
    out = pkg["suite"]._instance_worker(item)
    seconds = time.perf_counter() - t0
    checks = [c.as_json() for results, _ in out.values() for c in results]
    return seconds, pkg["serialize"].dumps_canonical(checks)


def tail(values):
    """(percentile, value): the highest percentile with ten values beyond."""
    vals = sorted(values)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100 * len(vals)))
        if len(vals) - rank >= 10 or p == 50.0:
            return p, vals[rank - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("changed")
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--reps", type=int, default=6)
    ap.add_argument("--cold", action="store_true", help="a new field and corpus every rep")
    args = ap.parse_args(argv)
    trees = {"base": load(args.base, "ab_base"), "changed": load(args.changed, "ab_changed")}
    times = {name: [[] for _ in range(args.instances)] for name in trees}
    items = {}
    for rep in range(args.reps):
        if args.cold or not items:
            items = {name: plan(pkg, args.instances) for name, pkg in trees.items()}
        gc.collect()
        for i in range(args.instances):
            order = list(trees) if (rep + i) % 2 == 0 else list(trees)[::-1]
            reports = {}
            for name in order:
                seconds, reports[name] = verdict(trees[name], items[name][i])
                times[name][i].append(seconds)
            if reports["base"] != reports["changed"]:
                print(f"error: the trees' checks differ on instance {i}", file=sys.stderr)
                return 1
    medians = {name: [statistics.median(t) for t in per] for name, per in times.items()}
    mode = "cold" if args.cold else "warm"
    for name, root in (("base", args.base), ("changed", args.changed)):
        p, value = tail(medians[name])
        print(f"{name:<8} p50 {1000 * statistics.median(medians[name]):.3f} ms  "
              f"p{p:g} {1000 * value:.3f} ms  ({root})")
    ratios = [c / b for b, c in zip(medians["base"], medians["changed"]) if b > 0]
    print(f"median per-instance ratio changed/base {statistics.median(ratios):.3f} "
          f"over {len(ratios)} instances, {args.reps} reps, {mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
