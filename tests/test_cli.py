"""Command-line interface: exit codes, schema errors, byte-identical reports."""
from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import projector_complement
from kyfan_tilt.cli import main
from kyfan_tilt.instances import random_membership_instance
from kyfan_tilt.io import matrix_to_json, unvec, vec

X3 = np.diag([3.0, 2.0, 1.0])
G3 = np.diag([1.0, 1.0, 0.0])


def problem_dict(X, Gamma, kappa, Q=None, nu=1.0, **extra):
    n, m = X.shape
    if Q is None:
        Q = np.eye(n * m)
    L = -unvec(Q @ vec(X), n, m) - Gamma / nu
    d = {
        "n": n,
        "m": m,
        "kappa": kappa,
        "nu": nu,
        "X": matrix_to_json(X),
        "theta": {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)},
    }
    d.update(extra)
    return d


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def slide_kernel_Q():
    W = np.zeros((3, 3))
    W[1, 1] = 1.0
    return projector_complement(W)


def inconclusive_problem():
    X = np.diag([3.0, 2.0, 2.0, 2.0, 2.0, 1.0])
    G = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    return problem_dict(X, G, 3, Q=projector_complement(W))


# ---------------------------------------------------------------- analyze


def test_analyze_stable_exit_zero(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, "analyze", pf)
    assert code == 0
    report = json.loads(cap.out)
    assert report["verdict"]["status"] == "Stable"
    assert report["problem"]["n"] == 3
    assert report["certificate"]["member"] is True
    assert "timings" not in report


def test_analyze_unstable_exit_one(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2, Q=slide_kernel_Q()))
    code, cap = run(capsys, "analyze", pf)
    assert code == 1
    report = json.loads(cap.out)
    assert report["verdict"]["status"] == "Unstable"
    assert report["verdict"]["witness"] is not None


def test_analyze_inconclusive_exit_two(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", inconclusive_problem())
    code, cap = run(capsys, "analyze", pf)
    assert code == 2
    assert json.loads(cap.out)["verdict"]["status"] == "Inconclusive"


def test_analyze_byte_identical_reports(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2, Q=slide_kernel_Q()))
    f1, f2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    c1, _ = run(capsys, "analyze", pf, "--out", f1)
    c2, _ = run(capsys, "analyze", pf, "--out", f2)
    assert c1 == c2 == 1
    b1 = open(f1, "rb").read()
    assert b1 == open(f2, "rb").read()
    assert b1.endswith(b"\n")


def test_analyze_timings_flag_attaches_clock(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, "analyze", pf, "--timings")
    assert code == 0
    assert "timings" in json.loads(cap.out)


def test_analyze_probe_writes_csv(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    out = str(tmp_path / "r.json")
    code, _ = run(capsys, "analyze", pf, "--probe", "--out", out)
    assert code == 0
    csv = open(out + ".probe.csv").read()
    assert csv.startswith("tilt_id,V_norm,solution_displacement,residual")
    report = json.load(open(out))
    assert report["oracle"]["probe"]["agrees_with_verdict"] is True


def test_analyze_cross_check_attaches_quotient(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, "analyze", pf, "--cross-check", "--d2-samples", "2")
    assert code == 0
    report = json.loads(cap.out)
    assert len(report["d2_samples"]) == 2
    qc = report["oracle"]["quotient"]
    assert qc["oracle_rel_gap"] <= 1e-2 or qc["divergent"]


@pytest.mark.parametrize("seed", [20, 33])
def test_analyze_cross_check_uses_unit_direction(tmp_path, capsys, seed):
    # on these instances the raw in-cone direction (norm 4-5) put the quotient
    # oracle off by 0.12; the oracle's ball and tau grid assume a unit direction
    X, Gamma, kappa, _ = random_membership_instance(np.random.default_rng(seed), well_separated=True)
    pf = write_json(tmp_path, "p.json", problem_dict(X, Gamma, kappa))
    code, cap = run(capsys, "analyze", pf, "--cross-check")
    assert code == 0
    qc = json.loads(cap.out)["oracle"]["quotient"]
    assert qc["direction_norm"] == pytest.approx(1.0, abs=1e-12)
    assert not qc["divergent"]
    assert qc["oracle_rel_gap"] <= 1e-2


def test_analyze_cross_check_zero_direction_reports_no_gap(tmp_path, capsys):
    # on this instance the in-cone draw is the zero matrix: closed form and
    # oracle are both 0, which compares nothing, so no gap is reported
    X, Gamma, kappa, _ = random_membership_instance(np.random.default_rng(0), well_separated=True)
    pf = write_json(tmp_path, "p.json", problem_dict(X, Gamma, kappa))
    code, cap = run(capsys, "analyze", pf, "--cross-check")
    assert code == 0
    qc = json.loads(cap.out)["oracle"]["quotient"]
    assert qc["direction_norm"] == 0.0
    assert qc["oracle_rel_gap"] is None


def test_analyze_stationarity_failure_exit_three(tmp_path, capsys):
    bad = problem_dict(X3, G3, 2)
    bad["theta"]["L"] = matrix_to_json(np.zeros((3, 3)))  # grad no longer matches
    pf = write_json(tmp_path, "p.json", bad)
    code, cap = run(capsys, "analyze", pf)
    assert code == 3
    err = json.loads(cap.out)["error"]
    assert err["kind"] == "stationarity"
    assert err["subdiff_distance"] > 0


# ---------------------------------------------------------------- d2


def test_d2_frozen_value(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    G = np.zeros((3, 3))
    G[0, 2] = G[2, 0] = 1.0
    gf = write_json(tmp_path, "g.json", matrix_to_json(G))
    code, cap = run(capsys, "d2", pf, gf, "--cross-check")
    assert code == 0
    report = json.loads(cap.out)
    assert report["value"] == pytest.approx(1.0, abs=1e-10)
    assert report["cross_check"]["general_form"] == pytest.approx(1.0, abs=1e-10)
    assert report["cross_check"]["oracle_rel_gap"] <= 1e-2


def test_d2_outside_cone_reports_infinity(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(np.diag([2.0, 2.0]), np.diag([1.0, 0.0]), 1))
    gf = write_json(tmp_path, "g.json", matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]])))
    code, cap = run(capsys, "d2", pf, gf)
    assert code == 0
    assert json.loads(cap.out)["value"] == "+inf"


def test_d2_rejects_non_subgradient_gamma(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    gf = write_json(tmp_path, "g.json", matrix_to_json(np.eye(3)))
    bad = write_json(tmp_path, "gam.json", matrix_to_json(2.0 * np.eye(3)))
    code, cap = run(capsys, "d2", pf, gf, "--gamma", bad)
    assert code == 3
    assert json.loads(cap.out)["error"]["kind"] == "non_subgradient"


# ---------------------------------------------------------------- subgrad-check


def test_subgrad_check_member_and_not(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, "subgrad-check", pf)
    assert code == 0
    report = json.loads(cap.out)
    assert report["member"] is True
    assert report["certificate"]["case"] == "InteriorGroup"
    bad = write_json(tmp_path, "gam.json", matrix_to_json(2.0 * np.eye(3)))
    code, cap = run(capsys, "subgrad-check", pf, "--gamma", bad)
    assert code == 1
    report = json.loads(cap.out)
    assert report["member"] is False
    assert report["diagnostic"]


# ---------------------------------------------------------------- tilt


def test_tilt_exit_codes(tmp_path, capsys):
    stable = write_json(tmp_path, "s.json", problem_dict(X3, G3, 2))
    unstable = write_json(tmp_path, "u.json", problem_dict(X3, G3, 2, Q=slide_kernel_Q()))
    inconclusive = write_json(tmp_path, "i.json", inconclusive_problem())
    assert run(capsys, "tilt", stable)[0] == 0
    assert run(capsys, "tilt", unstable)[0] == 1
    assert run(capsys, "tilt", inconclusive)[0] == 2


def test_tilt_rotation_override(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2, Q=slide_kernel_Q()))
    code, cap = run(capsys, "tilt", pf, "--rotation-samples", "4", "--seed", "7")
    assert code == 1
    assert json.loads(cap.out)["certificate"]["rotation_samples"] == 4


# ---------------------------------------------------------------- schema and flags


def test_schema_errors_exit_three(tmp_path, capsys):
    d = problem_dict(X3, G3, 2)
    del d["kappa"]
    pf = write_json(tmp_path, "p.json", d)
    code, cap = run(capsys, "analyze", pf)
    assert code == 3
    assert "kappa" in json.loads(cap.out)["error"]["message"]

    code, cap = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, cap = run(capsys, "analyze", str(bad))
    assert code == 3
    assert "invalid JSON" in json.loads(cap.out)["error"]["message"]


def test_tolerance_overrides_parse(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, "analyze", pf, "--tol.subdiff=1e-6", "--tol.cone", "1e-6")
    assert code == 0
    tols = json.loads(cap.out)["tolerances"]
    assert tols["subdiff"] == 1e-6 and tols["cone"] == 1e-6


def test_unknown_flag_exits_three(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, "analyze", pf, "--tol.nonsense=1")
    assert code == 3
    code, cap = run(capsys, "analyze", pf, "--frobnicate")
    assert code == 3


def test_usage_error_exits_three(capsys):
    assert run(capsys, "analyze")[0] == 3  # missing argument
    assert run(capsys, "no-such-command")[0] == 3


# ---------------------------------------------------------------- oracle-validate


def test_oracle_validate_smoke(capsys):
    code, cap = run(capsys, "oracle-validate", "--suite", "formulas", "--count", "5")
    assert code == 0
    lines = cap.out.strip().split("\n")
    assert lines and all("PASS" in l for l in lines)


def test_oracle_validate_unknown_suite(capsys):
    assert run(capsys, "oracle-validate", "--suite", "bogus")[0] == 3
