import concurrent.futures
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest

from dgkunneth import cli, suite
from dgkunneth.checks import failed
from dgkunneth.cli import build_parser, build_profile, main, parse_field_spec
from dgkunneth.dgalgebra import DGAlgebra, StructureError
from dgkunneth.dgmodule import LEFT, RIGHT, direct_sum, shift
from dgkunneth.field import Field
from dgkunneth.genlab import (
    PROFILE_CAPS,
    CorpusProfile,
    Instance,
    make_dual_numbers,
    make_exterior,
    make_koszul_dg,
    regular_module,
    simple_module_dual_numbers,
)
from dgkunneth.serialize import (
    dumps_canonical,
    instance_to_json,
    module_file_from_json,
    module_file_to_json,
)
from dg_examples import make_left_unit_only

F101 = Field.prime(101)


def write_instance(tmp_path, name, algebra, module):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_canonical(module_file_to_json(algebra, module, name)))
    return str(path)


@pytest.fixture
def exterior_pair(tmp_path):
    a = make_exterior(F101)
    m = write_instance(tmp_path, "m", a, regular_module(a, RIGHT))
    n = write_instance(tmp_path, "n", a, regular_module(a, LEFT))
    return m, n


def test_parse_field_spec():
    assert parse_field_spec("Q").kind == "rationals"
    assert parse_field_spec("F101").p == 101
    assert parse_field_spec("Fp7").p == 7
    with pytest.raises(Exception):
        parse_field_spec("F10")


def test_validate_pass(exterior_pair, capsys):
    m, _ = exterior_pair
    assert main(["validate", m]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_validate_axiom_failure(tmp_path):
    a = make_koszul_dg(F101)
    m = regular_module(a, RIGHT)
    blob = module_file_to_json(a, m, "bad")
    # corrupt one differential entry: d^2 = 0 then fails
    blob["algebra"]["diff"]["-1"][0][0] = "5"
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(blob))
    assert main(["validate", str(path)]) == 1


def test_validate_reports_a_missing_right_unit_alone(tmp_path):
    # e is a left unit of A only: its left regular module is valid
    a = make_left_unit_only(F101)
    path = write_instance(tmp_path, "left_unit_only", a, regular_module(a, LEFT))
    out = tmp_path / "report.json"
    assert main(["validate", path, "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["algebra_axioms"]["counterexample"] == \
        {"violations": ["right_unit at {'degree': 0}"]}
    assert checks["module_axioms"]["status"] == "pass"


def test_kunneth_command(exterior_pair, tmp_path, capsys):
    m, n = exterior_pair
    out = tmp_path / "report.json"
    assert main(["kunneth", m, n, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["status"] == "pass"
    assert report["theta"] == [["1"]]
    names = {c["name"] for c in report["checks"]}
    assert "theta_bijective" in names
    assert "sequence_combined" in names


def test_kunneth_mismatched_algebras(tmp_path):
    a1 = make_exterior(F101)
    a2 = make_koszul_dg(F101)
    m = write_instance(tmp_path, "m", a1, regular_module(a1, RIGHT))
    n = write_instance(tmp_path, "n", a2, regular_module(a2, LEFT))
    assert main(["kunneth", m, n]) == 2


def test_kunneth_side_mismatch(tmp_path):
    a = make_exterior(F101)
    m = write_instance(tmp_path, "m", a, regular_module(a, LEFT))
    n = write_instance(tmp_path, "n", a, regular_module(a, LEFT))
    assert main(["kunneth", m, n]) == 2


def test_derived_kunneth_command(tmp_path):
    from dgkunneth.genlab import make_dual_numbers, simple_module_dual_numbers
    a = make_dual_numbers(F101)
    m = write_instance(tmp_path, "m", a, simple_module_dual_numbers(a, RIGHT))
    n = write_instance(tmp_path, "n", a, simple_module_dual_numbers(a, LEFT))
    out = tmp_path / "report.json"
    assert main(["derived-kunneth", m, n, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["status"] == "pass"
    assert report["source_dim"] == 1
    assert report["target_dim"] == 1
    assert report["tor1_negative_control_dim"] == 1
    # the stabilization check compares depths 2, 3 and 4, for every N
    stab = [c for c in report["checks"] if c["name"] == "depth_stabilization"]
    assert stab[0]["details"]["depths"] == [2, 3, 4]


def test_suite_roundtrip(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical({
        "field": {"kind": "prime", "p": 101},
        "instance_count": 6,
        "seed": 42,
    }))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["suite", "--profile", str(profile), "--out", str(out1)]) == 0
    assert main(["suite", "--profile", str(profile), "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("timing")
    r2.pop("timing")
    assert dumps_canonical(r1) == dumps_canonical(r2)


def test_kunneth_invalid_module_fails_cleanly(tmp_path):
    # an axiom-breaking input must yield a verification failure, not a crash
    a = make_koszul_dg(F101)
    m = regular_module(a, RIGHT)
    blob = module_file_to_json(a, m, "bad")
    blob["module"]["diff"]["-1"][0][0] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(blob))
    n = write_instance(tmp_path, "n", a, regular_module(a, LEFT))
    out = tmp_path / "r.json"
    assert main(["kunneth", str(bad), str(n), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    fails = [c for c in report["checks"] if c["status"] == "fail"]
    assert fails and "violations" in fails[0]["counterexample"]


def test_validate_empty_module(tmp_path):
    from dgkunneth.dgmodule import DGModule
    a = make_exterior(F101)
    empty = DGModule(RIGHT, a, (0, 0), {0: 0}, {}, {})
    path = write_instance(tmp_path, "empty", a, empty)
    assert main(["validate", path]) == 0


def test_validate_dims_outside_the_window_is_structural_error(tmp_path, capsys):
    # a dimension outside the window is rejected, not silently dropped
    a = make_exterior(F101)
    blob = module_file_to_json(a, regular_module(a, RIGHT), "m")
    blob["module"]["window"] = [0, 0]
    blob["module"]["diff"], blob["module"]["action"] = {}, {}
    for degree in ("5", "-7"):
        blob["module"]["dims"] = {"0": 1, degree: 3}
        path = tmp_path / f"outside{degree}.json"
        path.write_text(dumps_canonical(blob))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dims ") and "outside the window (0, 0)" in err


def test_validate_algebra_dims_outside_min_degree_is_structural_error(tmp_path, capsys):
    # an algebra dimension above 0 or below min_degree is rejected, not dropped
    a = make_exterior(F101)
    blob = module_file_to_json(a, regular_module(a, RIGHT), "m")
    for degree in ("1", "-2"):
        blob["algebra"]["dims"] = {"-1": 1, "0": 1, degree: 1}
        path = tmp_path / f"outside{degree}.json"
        path.write_text(dumps_canonical(blob))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dims ") and "outside the window (-1, 0)" in err


def _dual_numbers_pair(tmp_path, min_degree):
    """Instance files of k (x) k over k[t]/(t^2) declared with `min_degree`;
    the algebra lists degree 0 alone, as a missing degree reads as 0."""
    a = make_dual_numbers(F101)
    paths = []
    for side in (RIGHT, LEFT):
        blob = module_file_to_json(a, simple_module_dual_numbers(a, side), side)
        blob["algebra"]["min_degree"] = min_degree
        path = tmp_path / f"{side}{min_degree}.json"
        path.write_text(dumps_canonical(blob))
        paths.append(str(path))
    return paths


def test_algebra_cost_follows_its_data_not_min_degree(tmp_path, monkeypatch):
    calls = Counter()
    for name in ("mult_map", "diff_map"):
        def counted(self, *args, orig=getattr(DGAlgebra, name), name=name):
            calls[name] += 1
            return orig(self, *args)

        monkeypatch.setattr(DGAlgebra, name, counted)
    counts = {}
    for min_degree in (-2, -200):
        paths = _dual_numbers_pair(tmp_path, min_degree)
        for command in ("kunneth", "derived-kunneth"):
            calls.clear()
            assert main([command, *paths]) == 0
            counts[command, min_degree] = dict(calls)
    for command in ("kunneth", "derived-kunneth"):
        assert counts[command, -2] == counts[command, -200]
    # so a million empty degrees cost nothing: walking them would take hours
    paths = _dual_numbers_pair(tmp_path, -10 ** 6)
    t0 = time.perf_counter()
    assert main(["kunneth", *paths]) == 0 and main(["derived-kunneth", *paths]) == 0
    assert time.perf_counter() - t0 < 10


def test_one_algebra_declared_with_different_bounds_is_one_algebra(tmp_path):
    # the declared min_degree bounds a file's dims; it is not the algebra's
    m_path, _ = _dual_numbers_pair(tmp_path, -1)
    _, n_path = _dual_numbers_pair(tmp_path, 0)
    for command in ("kunneth", "derived-kunneth"):
        assert main([command, m_path, n_path]) == 0


def test_report_resolution_spans_the_data_not_the_declared_bound(tmp_path):
    out = tmp_path / "r.json"
    assert main(["derived-kunneth", *_dual_numbers_pair(tmp_path, -10 ** 5),
                 "--out", str(out)]) == 0
    p = json.loads(out.read_text())["resolution"]["p"]
    assert p["window"] == [-2, 0] and len(p["dims"]) <= 3


def test_far_apart_summands_make_a_small_file_and_a_fast_run(tmp_path):
    # M (+) M[10^6] over the dual numbers: 4 dimensions a million degrees
    # apart, so a file or a run linear in the gap would show
    a = make_dual_numbers(F101)
    paths = []
    for side in (RIGHT, LEFT):
        s = simple_module_dual_numbers(a, side)
        paths.append(write_instance(tmp_path, side, a, direct_sum(s, shift(s, 10 ** 6))))
    assert all(pathlib.Path(p).stat().st_size < 10_000 for p in paths)
    t0 = time.perf_counter()
    assert main(["derived-kunneth", *paths]) == 0
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("element", ["1e10000000", "1e5", "1.5"])
def test_exponent_and_decimal_elements_are_structural_errors(tmp_path, capsys, element):
    # Fraction reads these, and "1e10000000" as an integer of ten million digits
    a = make_koszul_dg(Field.rationals())
    blob = module_file_to_json(a, regular_module(a, RIGHT), "m")
    path = tmp_path / "m.json"
    blob["algebra"]["unit"][0] = "1"
    path.write_text(dumps_canonical(blob))
    assert main(["validate", str(path)]) == 0
    blob["algebra"]["unit"][0] = element
    path.write_text(dumps_canonical(blob))
    t0 = time.perf_counter()
    assert main(["validate", str(path)]) == 2
    assert time.perf_counter() - t0 < 1
    assert "bad field element" in capsys.readouterr().err


def test_suite_zero_instances_is_structural_error(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical({
        "field": {"kind": "prime", "p": 101},
        "instance_count": 0,
    }))
    assert main(["suite", "--profile", str(profile)]) == 2


def test_importing_the_cli_leaves_multiprocessing_out():
    # a fresh interpreter: only a suite with --jobs above 1 imports the pool
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dgkunneth.cli; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["False"]


# hooks for the suite's pool workers, imported from a module file so that a
# worker started by any method finds them: `killed` SIGKILLs the worker that
# takes inst0003 while it runs that instance, as the kernel's OOM killer does,
# and `busy` keeps that worker a minute; both append the name of each
# instance they take to taken.txt beside the module
_HOOKS = """
import os, signal, time
from dgkunneth import suite
worker = suite._instance_worker

def killed(item):
    if item[0].name == "inst0003":
        os.kill(os.getpid(), signal.SIGKILL)
    return worker(item)

def busy(item):
    with open(os.path.join(os.path.dirname(__file__), "taken.txt"), "a") as fh:
        fh.write(item[0].name + "\\n")
    if item[0].name == "inst0003":
        time.sleep(60)
    return worker(item)
"""

# the CLI with the suite's worker replaced by the hook argv[3] and its pool
# started by the method argv[4]
_HOOKED_CLI = """
import multiprocessing, sys
sys.path[:0] = sys.argv[1:3]
import hooks
from dgkunneth import cli, suite
multiprocessing.set_start_method(sys.argv[4])
suite._instance_worker = getattr(hooks, sys.argv[3])
suite.os.cpu_count = lambda: 2
sys.exit(cli.main(sys.argv[5:]))
"""


def _hooked_suite(tmp_path, hook: str, method: str, *args, **kwargs) -> subprocess.Popen:
    """A 4-instance `suite --jobs 2` through `_HOOKED_CLI`, in a session of
    its own: the command, its two pool workers and, with "forkserver", the
    fork server."""
    hooks = tmp_path / "hooks"
    hooks.mkdir()
    (hooks / "hooks.py").write_text(_HOOKS)
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical({"field": {"kind": "prime", "p": 101},
                                        "instance_count": 4}))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    return subprocess.Popen([sys.executable, "-c", _HOOKED_CLI, str(src), str(hooks), hook,
                             method, "suite", "--profile", str(profile), "--jobs", "2", *args],
                            start_new_session=True, **kwargs)


def _session_ends(pgid: int, seconds: float) -> bool:
    """Whether no process of the session `pgid`, zombies too, is left within
    `seconds`."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def _end_session(proc: subprocess.Popen):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def test_a_killed_worker_ends_the_suite_with_exit_3_and_no_report(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    proc = _hooked_suite(tmp_path, "killed", "fork", "--out", str(out / "report.json"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=30)
        # the pool is shut down: no process of the session is left
        assert _session_ends(proc.pid, 5)
    finally:
        _end_session(proc)
    assert proc.returncode == 3
    (line,) = err.splitlines()
    assert line.startswith("error: BrokenProcessPool: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_no_worker_outlives_a_suite_killed_by_sigterm(tmp_path, method):
    # SIGTERM ends the command at once, and each worker ends with it, also
    # one whose parent is the fork server; a worker that has ended counts
    # until init reaps it
    taken = tmp_path / "hooks" / "taken.txt"
    proc = _hooked_suite(tmp_path, "busy", method,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while "inst0003" not in (taken.read_text() if taken.exists() else ""):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == -signal.SIGTERM
        assert _session_ends(proc.pid, 10)
    finally:
        _end_session(proc)


@pytest.mark.parametrize("key, value", [("instance_count", 10 ** 9),
                                        ("degree_span", 10 ** 5),
                                        ("max_per_degree_dim", 10 ** 5)])
def test_suite_extreme_profile_size_is_structural_error(tmp_path, monkeypatch, key, value):
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: started.append("pool"))
    monkeypatch.setattr(suite, "generate_corpus", lambda *args: started.append("corpus"))
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical({"field": {"kind": "prime", "p": 101}, key: value}))
    t0 = time.perf_counter()
    assert main(["suite", "--profile", str(profile), "--jobs", "2"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert started == []
    cap = PROFILE_CAPS[key]
    assert getattr(CorpusProfile(F101, **{key: cap}), key) == cap
    with pytest.raises(StructureError, match=f"{key} {cap + 1} exceeds its cap {cap}"):
        CorpusProfile(F101, **{key: cap + 1})


@pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
def test_suite_bad_family_weight_is_structural_error(tmp_path, monkeypatch, weight):
    # rejected when the profile is built, before any instance is drawn
    started = []
    monkeypatch.setattr(suite, "generate_corpus", lambda *args: started.append("corpus"))
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical({"field": {"kind": "prime", "p": 101},
                                        "instance_count": 3,
                                        "family_mix": {"field": weight, "dual_numbers": 2}}))
    assert main(["suite", "--profile", str(profile)]) == 2
    assert started == []


def test_suite_zero_family_weight_is_legal(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical({"field": {"kind": "prime", "p": 101},
                                        "instance_count": 3,
                                        "family_mix": {"field": 0, "dual_numbers": 2}}))
    out = tmp_path / "r.json"
    assert main(["suite", "--profile", str(profile), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["profile"]["family_mix"] == {"dual_numbers": 2.0, "field": 0.0}


def test_suite_field_flag(tmp_path, monkeypatch):
    # environment variable supplies the default field spec
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical({
        "field": {"kind": "rationals"},
        "instance_count": 3,
        "seed": 1,
    }))
    out = tmp_path / "r.json"
    assert main(["suite", "--profile", str(profile), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["profile"]["field"] == {"kind": "rationals"}

    monkeypatch.setenv("DGKUNNETH_FIELD", "F7")
    prof = build_profile(build_parser().parse_args(["suite", "--seed", "3"]))
    assert (prof.field, prof.seed) == (Field.prime(7), 3)
    prof = build_profile(build_parser().parse_args(["suite", "--field", "Q"]))
    assert prof.field == Field.rationals()
    # a profile file wins over the environment; --seed still overrides its seed
    prof = build_profile(build_parser().parse_args(
        ["suite", "--profile", str(profile), "--seed", "9"]))
    assert (prof.field, prof.seed, prof.instance_count) == (Field.rationals(), 9, 3)
    # ... and --field overrides its field, as --seed does its seed
    prof = build_profile(build_parser().parse_args(
        ["suite", "--profile", str(profile), "--field", "F7"]))
    assert (prof.field, prof.seed, prof.instance_count) == (Field.prime(7), 1, 3)


def _set(path, value):
    """A corruption that sets blob[path[0]][path[1]]... to `value`."""
    def corrupt(blob):
        *outer, last = path
        for key in outer:
            blob = blob[key]
        blob[last] = value
    return corrupt


def _drop(*path):
    """A corruption that deletes blob[path[0]][path[1]]..."""
    def corrupt(blob):
        *outer, last = path
        for key in outer:
            blob = blob[key]
        del blob[last]
    return corrupt


def _left_m(blob):
    blob["m"] = blob["n"]


def _koszul_instance():
    a = make_koszul_dg(Field.rationals())
    return Instance("koszul", "koszul_dg", a, regular_module(a, RIGHT), regular_module(a, LEFT))


def _module_file(blob):
    """The instance object replaced by the module file of its M."""
    inst = _koszul_instance()
    blob.clear()
    blob.update(module_file_to_json(inst.algebra, inst.m, "m"))


# the one-file form given a module file names both input forms
_ONE_MODULE_FILE = ("is a module file: give two module files (M's and N's) or one "
                    "instance object, such as a report's shrunk_instance")


@pytest.mark.parametrize("command, corrupt, err", [
    ("validate", _set(("algebra", "mult", "0,0", 0, 0), "1/0"), "bad field element '1/0'"),
    ("validate", _set(("module", "action", "0,0", 0, 0), ["1/1"]),
     "a field element must be a string"),
    ("validate", _set(("module", "dims"), 5), "dims must be an object, got 5"),
    ("validate", _set(("module", "window"), None), "window must be an array, got None"),
    ("validate", None, "an instance file must be an object"),
    ("kunneth", _drop("m"), "instance has no 'm'"),
    ("derived-kunneth", _left_m, "koszul: m must be a right and n a left module"),
    ("kunneth", None, "instance must be an object"),
    ("kunneth", _set(("n", "window"), None), "window must be an array, got None"),
    ("validate", _drop("module", "dims"), "module has no 'dims'"),
    ("validate", _drop("algebra", "unit"), "algebra has no 'unit'"),
    ("validate", _drop("field"), "instance file has no 'field'"),
    ("derived-kunneth", _drop("n", "side"), "module has no 'side'"),
    ("kunneth", _drop("algebra", "min_degree"), "algebra has no 'min_degree'"),
    ("kunneth", _module_file, _ONE_MODULE_FILE),
    ("derived-kunneth", _module_file, _ONE_MODULE_FILE),
], ids=["zero_denominator", "nested_entry", "dims_not_an_object", "window_null",
        "top_level_list", "instance_without_m", "instance_m_left_module",
        "instance_top_level_list", "instance_window_null", "module_without_dims",
        "algebra_without_unit", "file_without_field", "instance_n_without_side",
        "instance_algebra_without_min_degree", "kunneth_one_module_file",
        "derived_kunneth_one_module_file"])
def test_malformed_instance_file_is_structural_error(tmp_path, capsys, command, corrupt, err):
    # `validate` reads a module file, the pair commands one instance file; a
    # missing key is named with the object that lacks it, never a bare KeyError
    if command == "validate":
        a = make_koszul_dg(Field.rationals())
        blob = module_file_to_json(a, regular_module(a, RIGHT), "m")
    else:
        blob = instance_to_json(_koszul_instance())
    if corrupt is None:
        blob = [blob]
    else:
        corrupt(blob)
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(blob))
    assert main([command, str(path)]) == 2
    text = capsys.readouterr().err
    assert text.startswith("error: ") and err in text and "KeyError" not in text


@pytest.mark.parametrize("corrupt, err", [
    (_set(("family_mix",), [1]), "family_mix must be an object"),
    (_set(("field",), None), "field must be an object, got None"),
    (_set(("instance_count",), None), "instance_count must be an integer, got None"),
    (_set(("field", "p"), 101.5), "the modulus p must be an integer, got 101.5"),
    (_set(("instance_count",), 2.7), "instance_count must be an integer, got 2.7"),
    (_drop("field"), "profile has no 'field'"),
], ids=["family_mix_list", "field_null", "instance_count_null", "fractional_modulus",
        "fractional_instance_count", "profile_without_field"])
def test_malformed_profile_is_structural_error(tmp_path, monkeypatch, capsys, corrupt, err):
    started = []
    monkeypatch.setattr(suite, "generate_corpus", lambda *args: started.append("corpus"))
    blob = {"field": {"kind": "prime", "p": 101}, "instance_count": 3}
    corrupt(blob)
    profile = tmp_path / "profile.json"
    profile.write_text(dumps_canonical(blob))
    assert main(["suite", "--profile", str(profile)]) == 2
    text = capsys.readouterr().err
    assert text.startswith("error: ") and err in text and "KeyError" not in text
    assert started == []


def test_oversized_modulus_is_structural_error():
    assert main(["suite", "--field", f"F{2 ** 64 + 1}"]) == 2


@pytest.mark.parametrize("argv", [["validate", "X"], ["kunneth", "X", "X"],
                                  ["derived-kunneth", "X", "X"], ["suite", "--profile", "X"],
                                  ["kunneth", "X"], ["derived-kunneth", "X"]],
                         ids=["validate", "kunneth", "derived-kunneth", "suite",
                              "kunneth-one-file", "derived-kunneth-one-file"])
def test_deeply_nested_file_is_structural_error(tmp_path, capsys, argv):
    # 400 KB of "[" overflows the JSON decoder's recursion: exit 2, not a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 400_000)
    t0 = time.perf_counter()
    assert main([str(path) if a == "X" else a for a in argv]) == 2
    assert time.perf_counter() - t0 < 1
    assert "nested too deeply" in capsys.readouterr().err


def test_gen_and_depth_flag_are_rejected(exterior_pair, tmp_path, capsys):
    # neither the corpus writer nor the resolution depth is part of the CLI
    m, n = exterior_pair
    for argv in (["gen", "--out", str(tmp_path / "c.json")],
                 ["derived-kunneth", m, n, "--depth", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not (tmp_path / "c.json").exists()


# sha256 of each canonical report without `timing`, for the instance files
# that scripts/export_examples.py writes; recorded before the suite and the
# CLI shared one check list per battery.  The exterior and koszul
# derived-kunneth reports were re-pinned when the resolution depths became
# 2, 3 and 4 for every N: only the stabilization depths and the resolution's
# depth changed
CLI_REPORT_SHA256 = {
    ("kunneth", "exterior"): "4a25f1f00ae575b788f6579d0d8c849b9773407d66aa8fa7f6780e8fcb55582b",
    ("kunneth", "dualnum"): "7d3892cd4fff8f3632b01245ddb1304b8ed6e9eb2503bdcaba1bb76d29a20d52",
    ("kunneth", "koszul"): "d0cfa4a1b24c5ff67472b4e50991dfdcebd87df08e62f5f43ebde6bd752e4f2e",
    ("derived-kunneth", "exterior"):
        "4ac19c8e33655a79cbcad543e6cf7a98e24e421ac39cb39a388b4e57bd9c4d01",
    ("derived-kunneth", "dualnum"):
        "e30f86f987af8cb73d5e29277575f148896edb29af05683714c51b39e1aa7cda",
    ("derived-kunneth", "koszul"):
        "fab2f656de086dc7ff1fa5c04466bbe8170edd8a35f6e7636327c1f12d39aeb0",
}


def test_exported_examples_give_the_pinned_reports(tmp_path):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "export_examples.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    for (command, pair), expected in CLI_REPORT_SHA256.items():
        out = tmp_path / f"{command}_{pair}.json"
        assert main([command, str(tmp_path / f"{pair}_m.json"),
                     str(tmp_path / f"{pair}_n.json"), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        report.pop("timing")
        digest = hashlib.sha256(dumps_canonical(report).encode()).hexdigest()
        assert digest == expected, (command, pair)


def _inject(monkeypatch, name):
    """Make `suite.<name>` add a failed check "injected" to its witness's
    evidence while M has more than one dimension, so that a shrink keeps it
    failing down to a smaller M."""
    orig = getattr(suite, name)

    def broken(m, n, *rest):
        w = orig(m, n, *rest)
        if m.total_dim() < 2:
            return w
        return replace(w, evidence=w.evidence + [failed("injected")])

    monkeypatch.setattr(suite, name, broken)


@pytest.mark.parametrize("command, witness", [("kunneth", "theta"),
                                              ("derived-kunneth", "theta_der")])
def test_a_failing_pair_report_replays_from_its_shrunk_instance(tmp_path, monkeypatch,
                                                                command, witness):
    _inject(monkeypatch, witness)
    a = make_exterior(F101)
    m = write_instance(tmp_path, "m", a, direct_sum(regular_module(a, RIGHT),
                                                    regular_module(a, RIGHT)))
    n = write_instance(tmp_path, "n", a, regular_module(a, LEFT))
    out = tmp_path / "report.json"
    assert main([command, m, n, "--out", str(out)]) == 1
    fails = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"]
    names = [c["name"] for c in fails]
    assert names[0] == "injected"
    shrunk = fails[0]["counterexample"]["shrunk_instance"]
    assert shrunk["name"] == "m (x) n"
    assert 2 <= sum(shrunk["m"]["dims"].values()) < 4
    path = tmp_path / "shrunk.json"
    path.write_text(dumps_canonical(shrunk))
    replay = tmp_path / "replay.json"
    assert main([command, str(path), "--out", str(replay)]) == 1
    report = json.loads(replay.read_text())
    assert report["instance_refs"] == ["m (x) n"]
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == names


def test_one_instance_file_gives_the_report_of_its_two_module_files(tmp_path):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "export_examples.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    sides = [module_file_from_json(json.loads((tmp_path / f"dualnum_{x}.json").read_text()))
             for x in "mn"]
    inst = Instance("dualnum", "dual_numbers", sides[0][1], sides[0][2], sides[1][2])
    one = tmp_path / "dualnum.json"
    one.write_text(dumps_canonical(instance_to_json(inst)))
    for command in ("kunneth", "derived-kunneth"):
        reports = []
        for paths in ([str(tmp_path / "dualnum_m.json"), str(tmp_path / "dualnum_n.json")],
                      [str(one)]):
            out = tmp_path / "report.json"
            assert main([command, *paths, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert [r.pop("instance_refs") for r in reports] == [["dualnum_m", "dualnum_n"],
                                                             ["dualnum"]]
        for r in reports:
            r.pop("timing")
        assert reports[0]["checks"] == reports[1]["checks"]
        assert reports[0] == reports[1]


def test_a_crashed_pair_battery_names_its_instance(exterior_pair, tmp_path, monkeypatch):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(suite, "theta", crash)
    out = tmp_path / "report.json"
    assert main(["kunneth", *exterior_pair, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    fails = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in fails] == ["plain_kunneth_battery"]
    ce = fails[0]["counterexample"]
    assert {k: ce[k] for k in ("exception", "message", "instance")} == \
        {"exception": "RuntimeError", "message": "boom", "instance": "m (x) n"}
    assert "theta" not in report


@pytest.mark.parametrize("command, builder, label", [
    ("kunneth", "tensor_complex_to_json", "plain_kunneth_battery"),
    ("derived-kunneth", "resolution_to_json", "derived_kunneth_battery"),
])
def test_a_crash_building_the_report_fields_is_a_crash_record(exterior_pair, tmp_path,
                                                             monkeypatch, command, builder,
                                                             label):
    # the report fields are built after the battery; an exception there is
    # the battery's crash record, the report is written and the exit code 1
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, builder, crash)
    out = tmp_path / "report.json"
    assert main([command, *exterior_pair, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    fails = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in fails] == [label]
    assert fails[0]["counterexample"] == \
        {"exception": "RuntimeError", "message": "boom", "instance": "m (x) n"}
    assert len(report["checks"]) > 4 and "source_dim" not in report


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_a_report_takes_the_mode_of_a_new_file(exterior_pair, tmp_path, umask):
    old = os.umask(umask)
    try:
        out = tmp_path / "report.json"
        assert main(["kunneth", *exterior_pair, "--out", str(out)]) == 0
        plain = tmp_path / "plain.txt"
        with open(plain, "w"):
            pass
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777 == 0o666 & ~umask
