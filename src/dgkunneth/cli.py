"""Command-line surface: validate instances, run the verification suites, emit reports.

Exit codes: 0 all checks pass, 1 at least one verification failure,
2 structural or parse error, 3 a worker of `suite --jobs` died and no report
was written.  Reports are canonical JSON (sorted keys); identical inputs and
seeds give byte-identical reports apart from the `timing` subtree.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from concurrent.futures import BrokenExecutor
from dataclasses import replace

from .checks import failed, passed
from .dgalgebra import StructureError, validate_algebra
from .dgmodule import validate_module
from .field import Field
from .genlab import CorpusProfile, GenerationError, Instance
from .resolve import ResourceCapError
from .serialize import (
    dumps_canonical,
    instance_from_json,
    matrix_to_json,
    module_file_from_json,
    profile_from_json,
    resolution_to_json,
    tensor_complex_to_json,
)
from .suite import _BATTERIES, Report, crashed, run_batteries, run_suite
from .tensor import tensor_cohomology

DEFAULT_FIELD_ENV = "DGKUNNETH_FIELD"


def parse_field_spec(spec: str) -> Field:
    s = spec.strip().lower()
    if s in ("q", "rationals"):
        return Field.rationals()
    for prefix in ("fp", "f", "prime:"):
        if s.startswith(prefix) and s[len(prefix):].isdigit():
            return Field.prime(int(s[len(prefix):]))
    if s.isdigit():
        return Field.prime(int(s))
    raise StructureError(f"cannot parse field spec {spec!r} (use Q or F<p>)")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise StructureError(f"{path}: JSON nested too deeply") from None


def write_atomic(path: str, text: str):
    """Write `text` to `path` through a temporary file in its directory,
    with the mode `open(path, "w")` gives a new file: 0o666 less the umask."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        umask = os.umask(0)   # only setting the umask reads it
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(report: Report, out: str | None) -> int:
    fails = [c for c in report.checks if not c.ok]
    for c in fails:
        print(f"FAIL {c.name} {c.details.get('instance', '')}".rstrip())
    print(f"{report.command}: {len(report.checks)} checks, {len(fails)} failures -> "
          f"{'PASS' if report.ok else 'FAIL'}")
    if out:
        write_atomic(out, dumps_canonical(report.as_json()))
    return 0 if report.ok else 1


def load_instance(m_path: str, n_path: str | None):
    """(instance refs, Instance) of one instance file, the form of a report's
    `shrunk_instance`, or of two module files, M's and N's."""
    if n_path is None:
        blob = load_json(m_path)
        if isinstance(blob, dict) and "module" in blob:
            raise StructureError(f"{m_path} is a module file: give two module files (M's and "
                                 "N's) or one instance object, such as a report's shrunk_instance")
        inst = instance_from_json(blob)
        return [inst.name], inst
    m_name, m_alg, m_mod = module_file_from_json(load_json(m_path))
    n_name, n_alg, n_mod = module_file_from_json(load_json(n_path))
    if m_mod is None or n_mod is None:
        raise StructureError("both files must carry a module")
    if m_alg.field != n_alg.field or m_alg != n_alg:
        raise StructureError("the two modules live over different algebras")
    return [m_name, n_name], Instance(f"{m_name} (x) {n_name}", "unknown", m_alg, m_mod, n_mod)


def _axioms(name: str, violations):
    if violations:
        return failed(name, counterexample={"violations": [str(v) for v in violations]})
    return passed(name)


def cmd_validate(args) -> int:
    report = Report("validate", instance_refs=[args.path])
    t0 = time.perf_counter()
    name, algebra, module = module_file_from_json(load_json(args.path))
    report.checks.append(_axioms("algebra_axioms", validate_algebra(algebra)))
    if module is not None:
        report.checks.append(_axioms("module_axioms", validate_module(module)))
    report.timing["validate"] = round(time.perf_counter() - t0, 3)
    return emit(report, args.out)


def _pair_command(args, command: str, battery: str, fields) -> int:
    """Gate the instance on its axioms, so that invalid inputs fail the report
    instead of crashing the verification layer, then run its `battery` and
    add the report fields `fields(witness)`; an exception there fails the
    battery as one crash record, as one inside it does."""
    refs, inst = load_instance(args.m_path, args.n_path)
    report = Report(command, instance_refs=refs)
    t0 = time.perf_counter()
    report.checks += [_axioms("input_algebra_axioms", validate_algebra(inst.algebra)),
                      _axioms("input_m_axioms", validate_module(inst.m)),
                      _axioms("input_n_axioms", validate_module(inst.n))]
    if report.ok:
        results, _, w = run_batteries(inst, {battery: ()})[battery]
        report.checks.extend(results)
        if w is not None:
            try:
                report.extra.update(fields(w))
            except Exception as exc:   # noqa: BLE001 - bundled, never swallowed
                report.checks.append(crashed(f"{_BATTERIES[battery][0]}_battery", exc, inst.name))
    report.timing[command.replace("-", "_")] = round(time.perf_counter() - t0, 3)
    return emit(report, args.out)


def _theta_fields(w) -> dict:
    return dict(theta=matrix_to_json(w.theta), source_dim=w.source.dim, target_dim=w.target.dim,
                tensor_presentation=tensor_complex_to_json(w.tc, degrees=(-1, 0)))


def _theta_der_fields(w) -> dict:
    return dict(theta_der=matrix_to_json(w.theta_der), source_dim=w.source.dim,
                target_dim=w.target.dim, resolution=resolution_to_json(w.resolution),
                # one degree below the top: the formula makes no claim there
                tor1_negative_control_dim=tensor_cohomology(w.plain.tc, -1).dim)


def build_profile(args) -> CorpusProfile:
    """The profile file, else the published profile over F101.  `--field`
    and `--seed` override either; `$DGKUNNETH_FIELD` applies without a file."""
    kwargs = {} if args.seed is None else {"seed": args.seed}
    spec = args.field or (None if args.profile else os.environ.get(DEFAULT_FIELD_ENV))
    if spec:
        kwargs["field"] = parse_field_spec(spec)
    if args.profile:
        return replace(profile_from_json(load_json(args.profile)), **kwargs)
    return CorpusProfile(**{"field": Field.prime(101), **kwargs})


def cmd_suite(args) -> int:
    profile = build_profile(args)
    report = run_suite(profile, jobs=args.jobs)
    return emit(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgkunneth",
        description="Exact verification of top-degree tensor cohomology isomorphisms")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate an instance file")
    v.add_argument("path")
    v.add_argument("--out", help="write the JSON report here")
    v.set_defaults(fn=cmd_validate)

    for command, witness, battery, fields in (
            ("kunneth", "theta", "plain", _theta_fields),
            ("derived-kunneth", "theta_der", "derived", _theta_der_fields)):
        k = sub.add_parser(command, help=f"build and verify {witness} for two instance files, "
                           "or for one file in the form of a report's shrunk_instance")
        k.add_argument("m_path")
        k.add_argument("n_path", nargs="?")
        k.add_argument("--out")
        k.set_defaults(fn=lambda args, c=command, b=battery, f=fields:
                       _pair_command(args, c, b, f))

    s = sub.add_parser("suite", help="generate a corpus and run all verification suites")
    s.add_argument("--profile", help="profile JSON file (defaults to the published profile)")
    s.add_argument("--field", help="field spec: Q or F<p>; overrides the profile file's field "
                   "(default: the file's, else $DGKUNNETH_FIELD, else F101)")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_suite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StructureError, GenerationError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, ValueError, KeyError, BrokenExecutor) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BrokenExecutor) else 2


if __name__ == "__main__":
    sys.exit(main())
