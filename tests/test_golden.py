"""Golden reports: the canonical CLI output on the four demo problems.

Each case runs a command on a file under demo/ and compares the report with
tests/golden/<case>.json: every leaf that is not a float must match exactly,
floats to 1e-9 relative, and the verdict witness up to a global sign (a unit
kernel direction and its negative certify the same thing).

After an intended change to the reports, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the cases that compare() rejects, so that a last-bit
change of a float leaves the committed file as it is.
"""
from __future__ import annotations

import json
import math
import pathlib
import shutil
import sys

import pytest

from kyfan_tilt.cli import main
from kyfan_tilt.io import canonical_dumps

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# case name -> (argv with {demo} standing for the demo directory, exit code)
CASES = {
    "analyze_stable_quadratic": (["analyze", "{demo}/stable_quadratic.json"], 0),
    "analyze_unstable_slide": (["analyze", "{demo}/unstable_slide.json"], 1),
    "analyze_inconclusive_split": (["analyze", "{demo}/inconclusive_split.json"], 2),
    "analyze_stable_least_squares": (["analyze", "{demo}/stable_least_squares.json"], 0),
    "tilt_inconclusive_split_rot8": (
        ["tilt", "{demo}/inconclusive_split.json", "--rotation-samples", "8"],
        2,
    ),
}

REL = 1e-9
ABS = 1e-12  # floor for residuals that sit at rounding level


def run_case(name, out):
    argv, _ = CASES[name]
    argv = [a.format(demo=ROOT / "demo") for a in argv] + ["--out", str(out)]
    code = main(argv)
    with open(out) as fh:
        return json.load(fh), code


def _witness_sign(got, want):
    """+1 or -1, whichever makes the witness data closer to the golden one."""
    g, w = got["data"], want["data"]
    plus = sum(abs(a - b) for a, b in zip(g, w))
    minus = sum(abs(a + b) for a, b in zip(g, w))
    return 1.0 if plus <= minus else -1.0


def compare(got, want, path="", sign=1.0):
    """List of mismatch descriptions between two decoded reports."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        out = []
        for k in sorted(want):
            s = sign
            if k == "witness" and isinstance(want[k], dict) and isinstance(got[k], dict):
                s = _witness_sign(got[k], want[k])
            out += compare(got[k], want[k], f"{path}.{k}", s)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]", sign)
        return out
    if isinstance(want, float) and isinstance(got, float):
        if not math.isclose(sign * got, want, rel_tol=REL, abs_tol=ABS):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    got, code = run_case(name, tmp_path / "report.json")
    assert code == CASES[name][1]
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    mismatches = compare(got, want)
    assert not mismatches, "\n".join(mismatches[:20])


def test_compare_accepts_flipped_witness_only():
    want = {"witness": {"rows": 1, "cols": 2, "data": [0.6, -0.8]}, "x": 1.0}
    flipped = {"witness": {"rows": 1, "cols": 2, "data": [-0.6, 0.8]}, "x": 1.0}
    assert compare(flipped, want) == []
    assert compare({**flipped, "x": -1.0}, want)
    assert compare({"witness": {"rows": 1, "cols": 2, "data": [0.6, 0.8]}, "x": 1.0}, want)


def regenerate(golden):
    """Write golden/<case>.json for every case whose file is missing or
    mismatches the fresh report; keep the files that compare() accepts.
    Returns the names of the cases written."""
    golden = pathlib.Path(golden)
    golden.mkdir(exist_ok=True)
    tmp = golden / ".tmp.json"
    written = []
    try:
        for case in sorted(CASES):
            report, _ = run_case(case, tmp)
            path = golden / f"{case}.json"
            if path.exists() and not compare(report, json.loads(path.read_text())):
                continue
            path.write_text(canonical_dumps(report))
            written.append(case)
    finally:
        tmp.unlink(missing_ok=True)
    return written


def test_regenerate_keeps_the_committed_files(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    before = {p.name: p.read_bytes() for p in golden.iterdir()}
    assert regenerate(golden) == []
    assert {p.name: p.read_bytes() for p in golden.iterdir()} == before


if __name__ == "__main__":
    for case in regenerate(GOLDEN):
        print(f"wrote tests/golden/{case}.json")
    sys.exit(0)
