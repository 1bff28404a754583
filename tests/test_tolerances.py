"""The tolerance table is live: each knob moves the decision it names, and
every value, from the command line or the problem file, is checked.

Each boundary instance flips only when its one tolerance is widened."""
from __future__ import annotations

import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from kyfan_tilt.cli import main
from kyfan_tilt.config import Tolerances
from kyfan_tilt.io import matrix_to_json, unvec, vec
from kyfan_tilt.subgrad import subdiff_membership

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPLIT = str(ROOT / "demo" / "inconclusive_split.json")


def problem_dict(X, Gamma, kappa, nu=1.0):
    """Quadratic problem with Q = I whose Gamma_bar is Gamma at X."""
    n, m = X.shape
    Q = np.eye(n * m)
    L = -unvec(Q @ vec(X), n, m) - Gamma / nu
    return {
        "n": n,
        "m": m,
        "kappa": kappa,
        "nu": nu,
        "X": matrix_to_json(X),
        "theta": {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)},
    }


def write_json(tmp_path, obj):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_subdiff_knob_moves_stationarity(tmp_path, capsys):
    # the trailing subgradient singular value 1e-6 must be 0
    pf = write_json(tmp_path, problem_dict(np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 1e-6]), 2))
    code, report = run(capsys, "analyze", pf)
    assert code == 3 and report["error"]["kind"] == "stationarity"
    code, report = run(capsys, "analyze", pf, "--tol.subdiff=1e-4")
    assert code == 0 and report["verdict"]["status"] == "Stable"


def test_sum_rel_knob_moves_tight_split(tmp_path, capsys):
    # the beta mass falls 5e-7 short of kappa1 = 1: Strict by default
    X = np.diag([3.0, 0.0, 0.0])
    Gamma = np.diag([1.0, 0.5, 0.5 - 5e-7])
    ok, cert = subdiff_membership(X, Gamma, 2)
    assert ok and not cert.tight
    ok, cert = subdiff_membership(X, Gamma, 2, tols=Tolerances(sum_rel=1e-5))
    assert ok and cert.tight
    pf = write_json(tmp_path, problem_dict(X, Gamma, 2))
    _, report = run(capsys, "subgrad-check", pf)
    assert report["certificate"]["tight"] is False
    _, report = run(capsys, "subgrad-check", pf, "--tol.sum_rel", "1e-5")
    assert report["certificate"]["tight"] is True


def test_margin_knob_accepts_witness(capsys):
    # best sandwich margin on this demo is -0.408
    code, report = run(capsys, "tilt", SPLIT)
    assert code == 2
    assert report["certificate"]["search"]["best_margin"] == pytest.approx(-0.408, abs=1e-3)
    code, report = run(capsys, "tilt", SPLIT, "--tol.margin=0.5")
    assert code == 1 and report["status"] == "Unstable"
    assert report["certificate"]["witness_residuals"]["margin"] >= -0.5


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
def test_bad_tolerance_on_command_line_exits_three(tmp_path, capsys, value):
    pf = write_json(tmp_path, problem_dict(np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0]), 2))
    code, report = run(capsys, "analyze", pf, f"--tol.cone={value}")
    assert code == 3
    assert report["error"]["message"].startswith("--tol.cone:")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0, -1, "abc"])
def test_bad_tolerance_in_problem_exits_three(tmp_path, capsys, value):
    d = problem_dict(np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0]), 2)
    d["tolerances"] = {"cone": value}
    code, report = run(capsys, "analyze", write_json(tmp_path, d))
    assert code == 3
    assert report["error"]["message"].startswith("tolerances.cone:")


def test_every_tolerance_is_read():
    src = "\n".join(p.read_text() for p in (ROOT / "src" / "kyfan_tilt").glob("*.py"))
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"\btols\.{f.name}\b", src)]
    assert unread == []
