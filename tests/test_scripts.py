"""Smoke tests of scripts/: each script runs as a subprocess on a small
budget and must finish with its own success line (or, for the demo
generator, write demos that get the committed demos' verdicts)."""
from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from kyfan_tilt.cli import run_analyze

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ("stable_quadratic", "unstable_slide", "inconclusive_split", "stable_least_squares")


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("probe_vs_verdict.py", ["--trials", "2"]),
    ],
)
def test_script_passes(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT: PASSED" in proc.stdout, proc.stdout


def test_make_demo_problems_gives_the_committed_verdicts(tmp_path):
    # regenerated demos may differ from the committed ones in the last bit
    # of a float, so the verdicts and exit codes are compared, not bytes
    proc = run_script("make_demo_problems.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in DEMOS:
        got, got_code = run_analyze(json.loads((tmp_path / f"{name}.json").read_text()))
        want, want_code = run_analyze(json.loads((ROOT / "demo" / f"{name}.json").read_text()))
        assert got_code == want_code, name
        assert got["verdict"]["status"] == want["verdict"]["status"], name


def test_report_digests_on_degenerate():
    # every operation of the degenerate workload at seed 1 with its exit code
    # and report digest, the same in two runs; standard error names the BLAS
    # thread count and the numpy version the digests were taken with
    runs = []
    for _ in range(2):
        proc = run_script("report_digests.py", "--workload", "degenerate", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("blas_threads=")]
        assert len(lines) == 1, proc.stderr
        found = re.fullmatch(r"blas_threads=(\d+|None) numpy=(\S+)", lines[0])
        assert found and found.group(2) == np.__version__, lines[0]
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 51
    for name, (code, digest) in runs[0].items():
        assert code in (0, 1, 2), name
        assert len(digest) == 64 and int(digest, 16) >= 0, name
