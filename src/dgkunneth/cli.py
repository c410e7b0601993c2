"""Command-line surface: validate instances, run the verification suites, emit reports.

Exit codes: 0 all checks pass, 1 at least one verification failure,
2 structural or parse error.  Reports are canonical JSON (sorted keys);
identical inputs and seeds give byte-identical reports apart from the
`timing` subtree.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace

from .checks import failed, passed
from .dgalgebra import StructureError, validate_algebra
from .dgmodule import LEFT, RIGHT, validate_module
from .field import Field
from .genlab import CorpusProfile, GenerationError
from .kunneth import theta
from .resolve import ResourceCapError, theta_der
from .serialize import (
    dumps_canonical,
    matrix_to_json,
    module_file_from_json,
    profile_from_json,
    resolution_to_json,
    tensor_complex_to_json,
)
from .suite import Report, crashed, derived_checks, plain_checks, run_suite
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
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(report: Report, out: str | None) -> int:
    for c in report.checks:
        if not c.ok:
            print(f"FAIL {c.name} {c.details.get('instance', '')}".rstrip())
    n_fail = sum(1 for c in report.checks if not c.ok)
    print(f"{report.command}: {len(report.checks)} checks, {n_fail} failures -> "
          f"{'PASS' if report.ok else 'FAIL'}")
    if out:
        write_atomic(out, dumps_canonical(report.as_json()))
    return report.exit_code


def load_instance_pair(m_path: str, n_path: str):
    m_name, m_alg, m_mod = module_file_from_json(load_json(m_path))
    n_name, n_alg, n_mod = module_file_from_json(load_json(n_path))
    if m_mod is None or n_mod is None:
        raise StructureError("both files must carry a module")
    if m_alg.field != n_alg.field or m_alg != n_alg:
        raise StructureError("the two modules live over different algebras")
    if m_mod.side != RIGHT:
        raise StructureError(f"{m_path}: left factor must be a right module")
    if n_mod.side != LEFT:
        raise StructureError(f"{n_path}: right factor must be a left module")
    return (m_name, n_name), m_mod, n_mod


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


def _input_checks(m, n) -> list:
    """Axiom gate for the single-pair commands; invalid inputs fail the
    report instead of crashing the verification layer."""
    return [_axioms("input_algebra_axioms", validate_algebra(m.algebra)),
            _axioms("input_m_axioms", validate_module(m)),
            _axioms("input_n_axioms", validate_module(n))]


def _pair_command(args, command: str, battery) -> int:
    """Gate the two instance files on their axioms, then run `battery(report,
    m, n)`; an exception there becomes one failed `<command>_battery` check."""
    refs, m, n = load_instance_pair(args.m_path, args.n_path)
    report = Report(command, instance_refs=list(refs))
    t0 = time.perf_counter()
    report.checks.extend(_input_checks(m, n))
    if report.ok:
        try:
            battery(report, m, n)
        except Exception as exc:   # noqa: BLE001 - bundled, never swallowed
            report.checks.append(crashed(f"{command.replace('-', '_')}_battery", exc))
    report.timing[command.replace("-", "_")] = round(time.perf_counter() - t0, 3)
    return emit(report, args.out)


def _kunneth_battery(report, m, n):
    w = theta(m, n)
    report.checks.extend(plain_checks(w))
    report.extra.update(theta=matrix_to_json(w.theta), source_dim=w.source.dim,
                        target_dim=w.target.dim,
                        tensor_presentation=tensor_complex_to_json(w.tc, degrees=(-1, 0)))


def _derived_kunneth_battery(report, m, n):
    w = theta_der(m, n)
    report.checks.extend(derived_checks(w))
    report.extra.update(theta_der=matrix_to_json(w.theta_der), source_dim=w.source.dim,
                        target_dim=w.target.dim,
                        resolution=resolution_to_json(w.resolution),
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

    for command, witness, battery in (("kunneth", "theta", _kunneth_battery),
                                      ("derived-kunneth", "theta_der", _derived_kunneth_battery)):
        k = sub.add_parser(command, help=f"build and verify {witness} for two instance files")
        k.add_argument("m_path")
        k.add_argument("n_path")
        k.add_argument("--out")
        k.set_defaults(fn=lambda args, c=command, b=battery: _pair_command(args, c, b))

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
    except (json.JSONDecodeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
