"""Verification benchmark for dgkunneth.

    python3 perfbench/run.py --workload suite_f101 --seed 20240601 --seconds 45 --trace 0

Run from the repository root or anywhere else; the package is imported from
the `src/` directory beside `perfbench/`.  One process, `jobs=1`, closed
loop: a single caller verifies one instance at a time.  With `--trace 0` the
last line of stdout carries the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced pass.  Exit codes: 0 correct, 1 the
correctness gate failed, 2 the package or the arguments are unusable.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("suite_f101", "suite_q", "plain_wide")
SETUP_SAMPLES = 3
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's default seed)")
    ap.add_argument("--seconds", type=int, default=45,
                    help="run length; sets the number of passes (default 45)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be between 1 and 600")
    return args


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def setup(workload: str, seed):
    """Import the package and generate the inputs; returns (inputs, seconds)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]
    inputs = workloads.build_inputs(wl, wl.default_seed if seed is None else seed)
    return inputs, time.perf_counter() - t0


def probe_setup(args) -> dict:
    """Time one set-up in a fresh interpreter; returns its time and input hash."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--setup-probe"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def percentile(sorted_vals, p):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    vals = sorted(samples)
    for p in PERCENTILES:
        value, beyond = percentile(vals, p)
        if beyond >= 10:
            return p, value, beyond
    return 50.0, *percentile(vals, 50.0)


def provenance(args, wl):
    import numpy
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": commit or None,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": {"run": wl.default_seed if args.seed is None else args.seed,
                  "default": wl.default_seed, "second": wl.second_seed},
        "workload": {"name": wl.name, "field": wl.field, "instances": wl.instances,
                     "derived": wl.derived, "functoriality": wl.functoriality,
                     "witness": wl.witness, "generators": wl.generators,
                     "passes": wl.passes(args.seconds), "why": wl.why},
    }


def emit(correct, attempted, failed, metrics, info):
    print("info " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    # reads 0 on a correct build, so it is reported here and not gated
    print(f"  {'check_fail_ratio':<52} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} checks)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(args, inputs, setup_samples, info):
    import workloads
    wl = inputs.workload
    passes = []
    for k in range(wl.passes(args.seconds)):
        res = workloads.verify_pass(inputs)
        log(f"{wl.name} pass {k + 1}/{wl.passes(args.seconds)}: {res.seconds:.3f} s, "
            f"{len(res.checks)} checks, report {res.report_sha256[:12]}")
        passes.append(res)
    # every pass verifies the same corpus: an instance's verdict time is its
    # median over the passes
    verdicts = [statistics.median(v) for v in zip(*(res.verdict_s for res in passes))]
    p, tail_value, beyond = tail(verdicts)
    checks = [c for res in passes for c in res.checks]
    failed = sum(1 for c in checks if not c.ok)
    problems = [msg for res in passes for msg in res.problems]
    if len({res.report_sha256 for res in passes}) != 1:
        problems.append("the canonical report differs between passes")
    info.update({
        "pass_seconds": [res.seconds for res in passes],
        "report_sha256": passes[0].report_sha256,
        "setup_samples_s": setup_samples,
        "verdicts": len(verdicts),
        "verdict_tail_percentile": p,
        "verdict_tail_beyond": beyond,
        "stratum_fallbacks": inputs.fallbacks,
        "problems": problems[:20],
    })
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "verify_s": {"value": statistics.median(res.seconds for res in passes), "unit": "s"},
        "verdict_ms_p50": {"value": 1000 * statistics.median(verdicts), "unit": "ms"},
        "verdict_ms_tail": {"value": 1000 * tail_value, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    return not problems, len(checks), failed, metrics


def traced_pass(tr, wl, seed: int):
    """Traced set-up and traced pass; returns (pass result, setup table, pass table)."""
    import workloads
    tr.clear()
    tr.patch()
    try:
        inputs = workloads.build_inputs(wl, seed)
        setup_table = tr.aggregate()
        tr.clear()
        res = workloads.verify_pass(inputs)
    finally:
        tr.unpatch()
    table = tr.aggregate()
    distinct, builds = tr.resolve_keys()
    table["resolve.generators_adjoined"] = tr.generators
    table["resolve.distinct_ratio"] = distinct / builds if builds else 0.0
    return res, setup_table, table


def run_traced(inputs, info):
    import tracer
    import workloads
    wl = inputs.workload
    base = workloads.verify_pass(inputs)
    log(f"{wl.name} untraced pass: {base.seconds:.3f} s")
    tr = tracer.Tracer()
    passes = []
    for k in range(2):
        passes.append(traced_pass(tr, wl, inputs.seed))
        log(f"{wl.name} traced pass {k + 1}/2: {passes[-1][0].seconds:.3f} s")
    problems = list(base.problems)
    for res, _, table in passes:
        problems += res.problems
        if res.report_sha256 != base.report_sha256:
            problems.append("traced report hash differs from the untraced one")
        if table["_self_total_s"] > res.seconds:
            problems.append(f"self times sum to {table['_self_total_s']:.3f} s, "
                            f"more than the traced pass's {res.seconds:.3f} s")
    metrics, counts = {}, []
    for name, unit, _, _ in tracer.per_layer_metrics():
        if name == "trace.overhead_ratio":
            value = statistics.median(res.seconds for res, _, _ in passes) / base.seconds - 1
        else:
            values = []
            for _, setup_table, table in passes:
                layer, _, stat = name.rpartition(".")
                src = setup_table if layer in tracer.SETUP_LAYERS else table
                values.append(src[name] if name in src else src[layer][stat])
            if unit != "s":
                counts.append((name, values))
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    for name, values in counts:
        if values[0] != values[1]:
            problems.append(f"count {name} differs between traced passes: {values}")
    checks = base.checks + [c for res, _, _ in passes for c in res.checks]
    failed = sum(1 for c in checks if not c.ok)
    info.update({
        "untraced_pass_s": base.seconds,
        "traced_pass_s": [res.seconds for res, _, _ in passes],
        "report_sha256": base.report_sha256,
        "self_total_s": [table["_self_total_s"] for _, _, table in passes],
        "targets": {name: target for name, _, _, target in tracer.per_layer_metrics()},
        "problems": problems[:20],
    })
    return not problems, len(checks), failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgkunneth" / "__init__.py").is_file():
        print(f"error: no dgkunneth package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        inputs, seconds = setup(args.workload, args.seed)
        import workloads
        print(json.dumps({"setup_s": seconds, "inputs_sha256": workloads.inputs_digest(inputs)}))
        return 0
    inputs, first = setup(args.workload, args.seed)
    import dgkunneth
    import workloads
    if Path(dgkunneth.__file__).resolve().parent != SRC / "dgkunneth":
        print(f"error: dgkunneth imported from {dgkunneth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = inputs.workload
    info = {"provenance": provenance(args, wl)}
    log(f"{wl.name}: set-up {first:.3f} s, {wl.instances} instances")
    if args.trace:
        correct, attempted, failed, metrics = run_traced(inputs, info)
    else:
        samples = [first]
        digest = workloads.inputs_digest(inputs)
        for _ in range(SETUP_SAMPLES - 1):
            probe = probe_setup(args)
            if probe["inputs_sha256"] != digest:
                print("error: the same seed generated different inputs", file=sys.stderr)
                return 1
            samples.append(probe["setup_s"])
        correct, attempted, failed, metrics = run_untraced(args, inputs, samples, info)
    emit(correct, attempted, failed, metrics, info)
    if not correct:
        log("correctness gate failed: " + "; ".join(info["problems"][:5]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
