"""Command-line interface: exit codes, schema errors, byte-identical reports."""
from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from conftest import projector_complement
from kyfan_tilt import cli
from kyfan_tilt.cli import main
from kyfan_tilt.instances import ZERO_STRICT, random_incone_direction, random_membership_instance
from kyfan_tilt.io import matrix_to_json, unvec, vec
from kyfan_tilt.subgrad import subdiff_membership

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


def schema_error(capsys, *argv):
    """The message of a command that must exit 3 with a schema error."""
    code, cap = run(capsys, *argv)
    assert code == 3
    error = json.loads(cap.out)["error"]
    assert error["kind"] == "schema"
    return error["message"]


def unreadable_files(tmp_path):
    """A path that does not exist and a file that is not JSON."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    return str(tmp_path / "missing.json"), str(bad)


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
    b1 = pathlib.Path(f1).read_bytes()
    assert b1 == pathlib.Path(f2).read_bytes()
    assert b1.endswith(b"\n")


def test_analyze_timings_flag_attaches_clock(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, "analyze", pf, "--timings")
    assert code == 0
    assert "timings" in json.loads(cap.out)


def test_analyze_probe_attaches_the_probe_section(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    out = str(tmp_path / "r.json")
    code, _ = run(capsys, "analyze", pf, "--probe", "--out", out)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "r.json"]
    section = json.loads(pathlib.Path(out).read_text())["oracle"]["probe"]
    assert section["consistent_with"] == "Stable"
    assert section["agrees_with_verdict"] is True
    assert section["mu_min"] > section["mu_cut"]
    assert len(section["rows"]) == 4


def split_plane_problem():
    """inconclusive_split's X and Gamma with the kernel spanned by an
    off-diagonal pair of the beta1 block and one of the beta0 block."""
    X = np.diag([3.0, 2.0, 2.0, 2.0, 2.0, 1.0])
    G = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    W1, W2 = np.zeros((6, 6)), np.zeros((6, 6))
    W1[1, 2] = W1[2, 1] = W2[3, 4] = W2[4, 3] = 1 / np.sqrt(2)
    Q = np.eye(36) - np.outer(vec(W1), vec(W1)) - np.outer(vec(W2), vec(W2))
    return problem_dict(X, G, 3, Q=Q)


@pytest.mark.parametrize("problem", [inconclusive_problem, split_plane_problem])
def test_probe_reads_unstable_where_the_verdict_is_inconclusive(problem):
    # at the steered graph point near Xbar the second-order form has a null
    # direction: the evidence that these two Inconclusive are Unstable
    report, code = cli.run_analyze(problem(), probe=True)
    assert code == 2
    assert report["verdict"]["status"] == "Inconclusive"
    section = report["oracle"]["probe"]
    assert section["consistent_with"] == "Unstable"
    assert section["agrees_with_verdict"] is None
    steered = section["rows"][0]
    assert steered["point"] == "steered"
    assert steered["mu"] <= section["mu_cut"]


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
    # analyze reports the in-cone draw at unit norm (raw, it has norm 4-5)
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
    # Gamma_bar = -X3 has negative diagonal: no common ordered SVD
    assert err["first_failed"] == "no simultaneous ordered SVD pair exists"


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
    assert report["cross_check"]["oracle_rel_gap"] <= 1e-2


def test_d2_cross_check_scales_a_long_direction(tmp_path, capsys):
    # G = 4 W/||W||: the oracle's difference t scales with 1/||G||, so a
    # long direction reads as well as a unit one (the closed form is 14.62)
    rng = np.random.default_rng(0)
    X, Gamma, kappa, _ = random_membership_instance(rng, n=3, case=ZERO_STRICT, well_separated=True)
    ok, cert = subdiff_membership(X, Gamma, kappa)
    assert ok
    W = random_incone_direction(rng, cert)
    pf = write_json(tmp_path, "p.json", problem_dict(X, Gamma, kappa))
    gf = write_json(tmp_path, "g.json", matrix_to_json(4.0 * W / np.linalg.norm(W)))
    code, cap = run(capsys, "d2", pf, gf, "--cross-check")
    assert code == 0
    report = json.loads(cap.out)
    assert report["value"] == pytest.approx(14.62, abs=1e-2)
    assert report["cross_check"]["oracle_rel_gap"] <= 1e-2


def test_d2_cross_check_zero_direction_skips_the_oracle(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    gf = write_json(tmp_path, "g.json", matrix_to_json(np.zeros((3, 3))))
    code, cap = run(capsys, "d2", pf, gf, "--cross-check")
    assert code == 0
    report = json.loads(cap.out)
    assert report["value"] == 0.0
    assert report["cross_check"] == {"oracle": None, "oracle_divergent": None, "oracle_rel_gap": None}


def test_d2_outside_cone_reports_infinity(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(np.diag([2.0, 2.0]), np.diag([1.0, 0.0]), 1))
    gf = write_json(tmp_path, "g.json", matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]])))
    code, cap = run(capsys, "d2", pf, gf)
    assert code == 0
    assert json.loads(cap.out)["value"] == "+inf"
    # the oracle diverges too: both sides +inf is no gap
    code, cap = run(capsys, "d2", pf, gf, "--cross-check")
    assert code == 0
    cc = json.loads(cap.out)["cross_check"]
    assert cc == {"oracle": "+inf", "oracle_divergent": True, "oracle_rel_gap": 0.0}


def small_gap_files(tmp_path, gap):
    """X = diag(3, gap, 0), Gamma = diag(1, 1, 0), kappa = 2 and the
    coupling direction (E23 + E32)/sqrt(2), whose d2 is 1/gap."""
    X = np.diag([3.0, gap, 0.0])
    pf = write_json(tmp_path, "p.json", problem_dict(X, np.diag([1.0, 1.0, 0.0]), 2))
    G = np.zeros((3, 3))
    G[1, 2] = G[2, 1] = 1.0 / np.sqrt(2.0)
    return pf, write_json(tmp_path, "g.json", matrix_to_json(G))


def test_d2_cross_check_one_sided_divergence_is_an_infinite_gap(tmp_path, capsys, monkeypatch):
    # a finite closed form (1e4) across a 1e-4 singular-value gap: the
    # oracle reads it finite and close; an oracle reading +inf there would
    # make the gap +inf
    pf, gf = small_gap_files(tmp_path, 1e-4)
    code, cap = run(capsys, "d2", pf, gf, "--cross-check")
    assert code == 0
    report = json.loads(cap.out)
    assert report["value"] == pytest.approx(1e4, rel=1e-9)
    cc = report["cross_check"]
    assert cc["oracle_divergent"] is False
    assert cc["oracle_rel_gap"] <= 1e-2
    monkeypatch.setattr(cli, "d2_envelope_oracle", lambda *a, **k: (float("inf"), True))
    code, cap = run(capsys, "d2", pf, gf, "--cross-check")
    cc = json.loads(cap.out)["cross_check"]
    assert cc == {"oracle": "+inf", "oracle_divergent": True, "oracle_rel_gap": "+inf"}


@pytest.mark.parametrize("gap", [1e-2, 1e-6])
def test_d2_cross_check_reads_small_gaps(tmp_path, capsys, gap):
    # the steps of the envelope oracle stay below the smallest gap, so any
    # gap reads finite (1e-4 is the test above)
    pf, gf = small_gap_files(tmp_path, gap)
    code, cap = run(capsys, "d2", pf, gf, "--cross-check")
    assert code == 0
    report = json.loads(cap.out)
    assert report["value"] == pytest.approx(1.0 / gap, rel=1e-9)
    cc = report["cross_check"]
    assert cc["oracle_divergent"] is False
    assert cc["oracle_rel_gap"] <= 1e-2


def test_d2_rejects_non_subgradient_gamma(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    gf = write_json(tmp_path, "g.json", matrix_to_json(np.eye(3)))
    bad = write_json(tmp_path, "gam.json", matrix_to_json(2.0 * np.eye(3)))
    code, cap = run(capsys, "d2", pf, gf, "--gamma", bad)
    assert code == 3
    assert json.loads(cap.out)["error"]["kind"] == "non_subgradient"


def test_d2_names_the_file_that_failed_to_load(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    gf = write_json(tmp_path, "g.json", matrix_to_json(np.eye(3)))
    missing, bad = unreadable_files(tmp_path)
    msg = schema_error(capsys, "d2", missing, gf)
    assert msg.startswith("problem file: ") and "missing.json" in msg
    msg = schema_error(capsys, "d2", pf, missing)
    assert msg.startswith("G file: ") and "missing.json" in msg
    assert schema_error(capsys, "d2", pf, bad).startswith("G file: invalid JSON")
    msg = schema_error(capsys, "d2", pf, gf, "--gamma", missing)
    assert msg.startswith("gamma file: ") and "missing.json" in msg
    assert schema_error(capsys, "d2", pf, gf, "--gamma", bad).startswith("gamma file: invalid JSON")


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


def test_subgrad_check_names_the_file_that_failed_to_load(tmp_path, capsys):
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    missing, bad = unreadable_files(tmp_path)
    msg = schema_error(capsys, "subgrad-check", missing)
    assert msg.startswith("problem file: ") and "missing.json" in msg
    msg = schema_error(capsys, "subgrad-check", pf, "--gamma", missing)
    assert msg.startswith("gamma file: ") and "missing.json" in msg
    assert schema_error(capsys, "subgrad-check", pf, "--gamma", bad).startswith("gamma file: invalid JSON")


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

    # integers beyond the float range overflow float(); they are schema
    # errors naming the field, not a traceback and exit 1
    d = problem_dict(X3, G3, 2)
    d["nu"] = 10**400
    code, cap = run(capsys, "analyze", write_json(tmp_path, "nu.json", d))
    assert code == 3
    assert json.loads(cap.out)["error"]["message"].startswith("nu: must be finite")
    d = problem_dict(X3, G3, 2)
    d["X"]["data"][0] = 10**400
    code, cap = run(capsys, "analyze", write_json(tmp_path, "x.json", d))
    assert code == 3
    assert json.loads(cap.out)["error"]["message"] == "X.data: entries must be finite"

    # a boolean is no matrix dimension, although bool is an int subclass
    # (it used to reach reshape, raise TypeError and exit 1)
    d = problem_dict(X3, G3, 2)
    d["X"] = {"rows": True, "cols": 9, "data": d["X"]["data"]}
    code, cap = run(capsys, "analyze", write_json(tmp_path, "rows.json", d))
    assert code == 3
    assert json.loads(cap.out)["error"]["message"] == "X.rows/cols: must be nonnegative integers"


@pytest.mark.parametrize(
    "command, flag",
    [
        ("analyze", "--seed"),
        ("analyze", "--rotation-samples"),
        ("analyze", "--d2-samples"),
        ("tilt", "--seed"),
        ("tilt", "--rotation-samples"),
    ],
)
def test_negative_resource_knobs_exit_three(tmp_path, capsys, command, flag):
    # the problem file's options reject negative values; the flags must too
    # (a negative --rotation-samples used to run none and echo it, a
    # negative --seed to exit 0 or fail inside numpy)
    pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
    code, cap = run(capsys, command, pf, flag, "-3")
    assert code == 3
    error = json.loads(cap.out)["error"]
    assert error["kind"] == "schema"
    assert error["message"].startswith(f"{flag}: must be >= 0")


@pytest.mark.parametrize(
    "command, flag",
    [
        ("analyze", "--rotation-samples"),
        ("analyze", "--d2-samples"),
        ("tilt", "--rotation-samples"),
        ("analyze", "options.rotation_samples"),
    ],
)
def test_huge_resource_knobs_exit_three_before_any_work(tmp_path, capsys, monkeypatch, command, flag):
    # 10**12 rotation samples would hold 10**12 hull bases: the bound is
    # checked at parse time, before validation or the verdict run
    def no_work(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(cli.ProblemSpec, "validate", no_work)
    if flag.startswith("options."):
        pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2, options={"rotation_samples": 10**12}))
        code, cap = run(capsys, command, pf)
    else:
        pf = write_json(tmp_path, "p.json", problem_dict(X3, G3, 2))
        code, cap = run(capsys, command, pf, flag, str(10**12))
    assert code == 3
    error = json.loads(cap.out)["error"]
    assert error["kind"] == "schema"
    assert error["message"].startswith(f"{flag}: must be <= ")


def test_rotation_sample_bound_scales_with_nm():
    # (samples + 1) * nm^2 <= 2^27 floats; nm = 9 allows 1,657,007 samples
    d = problem_dict(X3, G3, 2, options={"rotation_samples": 2**27 // 81 - 1})
    assert cli.problem_from_dict(d)[2]["rotation_samples"] == 2**27 // 81 - 1
    d["options"]["rotation_samples"] += 1
    with pytest.raises(cli.SchemaError, match="must be <= 1657007,"):
        cli.problem_from_dict(d)
    with pytest.raises(cli.SchemaError, match="--d2-samples: must be <= 10000"):
        cli.run_analyze(problem_dict(X3, G3, 2), d2_samples=cli.MAX_D2_SAMPLES + 1)


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
    # oracle-validate is no command: exit 3, never click's 2
    code, cap = run(capsys, "oracle-validate")
    assert code == 3
    assert "No such command 'oracle-validate'" in cap.err
