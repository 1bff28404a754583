"""The tolerance table is live: each knob moves the decision it names, and
every value, from the command line or the problem file, is checked.

Each boundary instance flips only when its one tolerance is moved: widened,
or for group_rel narrowed, which splits a group."""
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
from kyfan_tilt.spectral import eigen_grouped
from kyfan_tilt.subgrad import subdiff_membership

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPLIT = str(ROOT / "demo" / "inconclusive_split.json")


def problem_dict(X, Gamma, kappa, nu=1.0, Q=None):
    """Quadratic problem (Q = I by default) whose Gamma_bar is Gamma at X."""
    n, m = X.shape
    Q = np.eye(n * m) if Q is None else Q
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


def slide_problem(curvature):
    """The exact slide case (n = 3) with Q = I - (1 - curvature) w w^T, w the
    hull element E_11: the curvature along w is `curvature`."""
    w = vec(np.diag([0.0, 1.0, 0.0]))
    Q = np.eye(9) - (1.0 - curvature) * np.outer(w, w)
    return problem_dict(np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0]), 2, Q=Q)


def test_kernel_rel_knob_moves_the_restricted_kernel(tmp_path, capsys):
    # curvature 1e-7 along w: above the cutoff 1e-9 * ||Q||_F by default
    pf = write_json(tmp_path, slide_problem(1e-7))
    code, report = run(capsys, "tilt", pf)
    assert code == 0 and report["status"] == "Stable"
    cert = report["certificate"]
    assert cert["restricted_lambda_min"] == pytest.approx(1e-7, rel=1e-6)
    code, report = run(capsys, "tilt", pf, "--tol.kernel_rel=1e-6")
    assert code == 1 and report["status"] == "Unstable"
    assert report["certificate"]["intersection_dim"] == 1


def test_kernel_floor_knob_moves_the_restricted_kernel(tmp_path, capsys):
    # Q = 1e-4 I: kernel_rel * ||Q||_F = 3e-13 is below the floor, so the
    # floor is the cutoff; the restricted lambda_min 1e-4 is above the
    # default floor 1e-12 and below 1e-3, where the whole hull is kernel
    pf = write_json(tmp_path, problem_dict(np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0]), 2,
                                           Q=1e-4 * np.eye(9)))
    code, report = run(capsys, "tilt", pf)
    assert code == 0 and report["status"] == "Stable"
    cert = report["certificate"]
    assert cert["restricted_cutoff"] == 1e-12
    assert cert["restricted_lambda_min"] == pytest.approx(1e-4, rel=1e-9)
    code, report = run(capsys, "tilt", pf, "--tol.kernel_floor=1e-3")
    assert code == 1 and report["status"] == "Unstable"
    assert report["certificate"]["restricted_cutoff"] == 1e-3


def test_group_rel_knob_moves_the_grouping(tmp_path, capsys):
    # X's singular values 2 + 1e-9 and 2 are one group at the default
    # group_rel * sigma_1 = 3e-8, so Gamma's 1/2, 1/2 share the kappa mass
    # in it; at 1e-10 (3e-10) they split, the kappa-th group {2 + 1e-9}
    # needs Gamma = 1 there, and stationarity fails
    pf = write_json(tmp_path, problem_dict(np.diag([3.0, 2.0 + 1e-9, 2.0]), np.diag([1.0, 0.5, 0.5]), 2))
    code, report = run(capsys, "analyze", pf)
    assert code == 0 and report["verdict"]["status"] == "Stable"
    code, report = run(capsys, "analyze", pf, "--tol.group_rel=1e-10")
    assert code == 3 and report["error"]["kind"] == "stationarity"


def test_psd_rel_knob_moves_the_psd_check(tmp_path, capsys):
    # curvature -1e-6 along w: below -1e-8 * ||Q||_F by default
    pf = write_json(tmp_path, slide_problem(-1e-6))
    code, report = run(capsys, "analyze", pf)
    assert code == 3 and report["error"]["kind"] == "precondition"
    assert "lambda_min = -1.000e-06" in report["error"]["message"]
    code, report = run(capsys, "analyze", pf, "--tol.psd_rel=1e-5")
    assert code == 1 and report["verdict"]["status"] == "Unstable"


def test_sigma_class_knob_moves_the_beta_split(tmp_path, capsys):
    # the critical block's subgradient singular values 1 - 1e-6 and 1e-6 are
    # interior (beta_plus) at sigma_class 1e-7, and 1 and 0 at 1e-5
    pf = write_json(tmp_path, problem_dict(np.diag([3.0, 2.0, 2.0]), np.diag([1.0, 1 - 1e-6, 1e-6]), 2))
    code, report = run(capsys, "subgrad-check", pf)
    assert code == 0
    sets = report["index_sets"]
    assert sets["beta_plus"] == [1, 2] and sets["beta1"] == [] and sets["beta0"] == []
    code, report = run(capsys, "subgrad-check", pf, "--tol.sigma_class=1e-5")
    assert code == 0
    sets = report["index_sets"]
    assert sets["beta_plus"] == [] and sets["beta1"] == [1] and sets["beta0"] == [2]


def test_cone_knob_moves_the_critical_cone_test(tmp_path, capsys):
    # G couples beta1 to beta0 by 1e-6, against cone * (1 + ||G||_F) ~ 2e-7:
    # outside the critical cone (d2 = +inf) by default, inside at 1e-5
    pf = write_json(tmp_path, problem_dict(np.diag([2.0, 2.0]), np.diag([1.0, 0.0]), 1))
    G = tmp_path / "g.json"
    G.write_text(json.dumps(matrix_to_json(np.array([[1.0, 1e-6], [1e-6, 0.0]]))))
    code, report = run(capsys, "d2", pf, str(G))
    assert code == 0 and report["value"] == "+inf"
    code, report = run(capsys, "d2", pf, str(G), "--tol.cone=1e-5")
    assert code == 0 and np.isfinite(report["value"])


def test_pinv_rel_knob_moves_the_general_form(tmp_path, capsys):
    # X's singular value 1e-6 sits 1e-6 from the zero block of the frame;
    # against the default cutoff pinv_rel * (3 + 1e-6) ~ 3e-10 that gap is
    # inverted, and its term carries the whole value 1e6 of G, which couples
    # the two; at 1e-5 (cutoff 3e-5) the general form drops it and reads 0,
    # while the explicit form, which has no pseudo-inverse, stays
    pf = write_json(tmp_path, problem_dict(np.diag([3.0, 1e-6, 0.0]), np.diag([1.0, 1.0, 0.0]), 2))
    G = tmp_path / "g.json"
    G.write_text(json.dumps(matrix_to_json(np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]) / np.sqrt(2))))
    code, report = run(capsys, "d2", pf, str(G), "--cross-check")
    assert code == 0 and report["value"] == pytest.approx(1e6, rel=1e-9)
    assert report["cross_check"]["general_form"] == pytest.approx(1e6, rel=1e-9)
    code, wide = run(capsys, "d2", pf, str(G), "--cross-check", "--tol.pinv_rel=1e-5")
    assert code == 0 and wide["value"] == report["value"]
    assert wide["cross_check"]["general_form"] == 0.0


def test_orth_knob_moves_the_symmetry_check():
    # ||Z - Z^T||_F = sqrt(2) * 1e-9 against orth * 4 * max(1, ||Z||_F) = 4e-10
    Z = np.diag([0.4, 0.3, 0.2, 0.1])
    Z[0, 1] += 1e-9
    with pytest.raises(ValueError, match="not symmetric"):
        eigen_grouped(Z)
    assert len(eigen_grouped(Z, tols=Tolerances(orth=1e-9)).lam) == 4


def test_removed_angle_tolerance_is_unknown(tmp_path, capsys):
    pf = write_json(tmp_path, slide_problem(1.0))
    code, report = run(capsys, "analyze", pf, "--tol.angle=1e-9")
    assert code == 3
    assert report["error"]["message"] == "--tol.angle: unknown tolerance name"


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
