"""Smoke test of scripts/paired_ab.py: one tree against itself, 5 instances."""
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mode", ["warm", "cold"])
def test_paired_ab_runs_one_tree_against_itself(mode):
    cmd = [sys.executable, str(ROOT / "scripts" / "paired_ab.py"), str(ROOT), str(ROOT),
           "--instances", "5", "--reps", "2"]
    out = subprocess.run(cmd + (["--cold"] if mode == "cold" else []), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["base", "changed"]
    assert all(" p50 " in line for line in lines[:2])
    assert lines[2].startswith("median per-instance ratio changed/base ")
    assert lines[2].endswith(f"over 5 instances, 2 reps, {mode}")
