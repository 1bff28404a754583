"""Tilt-stability verdicts: hull construction, sandwich test, kernel intersection."""
from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_quadratic_spec, projector_complement
from kyfan_tilt.instances import (
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_membership_instance,
)
from kyfan_tilt import cli
from kyfan_tilt.instances import random_orthogonal
from kyfan_tilt.io import matrix_to_json, vec
from kyfan_tilt.subgrad import subdiff_membership
from kyfan_tilt.tilt import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    LeastSquaresTheta,
    ProblemSpec,
    QuadraticTheta,
    StationarityError,
    TiltOptions,
    build_upsilon,
    generic_kernel_test,
    stationarity_gap,
    tilt_check,
    upsilon_residuals,
)

seeds = st.integers(0, 2**31 - 1)
CASES = [INTERIOR, ZERO_STRICT, ZERO_TIGHT]


def spec_with_kernel(X, Gamma, kappa, W):
    """Quadratic problem stationary at X whose Hessian kernel is span{W}."""
    return make_quadratic_spec(X, Gamma, kappa, projector_complement(W))


# the running degenerate example: a repeated middle group split 2/0/2 by Gamma
X6 = np.diag([3.0, 2.0, 2.0, 2.0, 2.0, 1.0])
G6 = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
K6 = 3


# ---------------------------------------------------------------- validation


def test_validate_rejects_malformed_problems():
    X = np.diag([3.0, 2.0])
    Q = np.eye(4)
    good = make_quadratic_spec(X, np.diag([1.0, 0.0]), 1, Q)
    good.validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X.T @ np.ones((2, 1)), nu=1.0, kappa=1, theta=good.theta).validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X, nu=-1.0, kappa=1, theta=good.theta).validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X, nu=1.0, kappa=3, theta=good.theta).validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X, nu=1.0, kappa=1, theta=QuadraticTheta(Q=np.eye(3), L=np.zeros((2, 2)))).validate()
    with pytest.raises(ValueError):  # indefinite Hessian
        ProblemSpec(
            Xbar=X, nu=1.0, kappa=1, theta=QuadraticTheta(Q=-np.eye(4), L=np.zeros((2, 2)))
        ).validate()


def test_validate_flags_nonstationary_point():
    X = np.diag([3.0, 2.0])
    theta = QuadraticTheta(Q=np.eye(4), L=np.zeros((2, 2)))  # grad = X != subgradient
    with pytest.raises(StationarityError) as ei:
        ProblemSpec(Xbar=X, nu=1.0, kappa=1, theta=theta).validate()
    assert ei.value.distance > 0.1
    assert stationarity_gap(X, -X, 1) == pytest.approx(ei.value.distance)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_validate_accepts_constructed_stationary_points(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    cert = spec.validate()
    assert cert.kappa == kappa
    assert np.max(np.abs(spec.gamma_bar() - Gamma)) < 1e-12


# ---------------------------------------------------------------- hull structure


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_hull_basis_orthonormal(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    ups = build_upsilon(spec)
    B = ups.hull_basis
    assert B.shape[0] == X.size
    if B.shape[1]:  # the strict zero case can have a trivial direction set
        assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_exactness_matches_block_census(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    ups = build_upsilon(spec)
    cert = ups.cert
    n1, npl, n0 = len(cert.beta1), len(cert.beta_plus), len(cert.beta0)
    if case == INTERIOR:
        want = (npl == 0 and (n0 == 0 or n1 == 0)) or (npl > 0 and n0 == 0 and n1 == 0)
    elif case == ZERO_STRICT:
        want = True
    else:
        want = npl == 0 and n1 == 0
    assert ups.exact == want, (case, n1, npl, n0)


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_hull_membership_residual(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    ups = build_upsilon(spec)
    coeff = rng.standard_normal(ups.hull_basis.shape[1])
    W = (ups.hull_basis @ coeff).reshape(X.shape)
    assert upsilon_residuals(ups, W)["off_hull"] < 1e-9


def test_build_upsilon_raises_off_stationarity():
    X = np.diag([3.0, 2.0])
    theta = QuadraticTheta(Q=np.eye(4), L=np.zeros((2, 2)))
    with pytest.raises(StationarityError):
        build_upsilon(ProblemSpec(Xbar=X, nu=1.0, kappa=1, theta=theta))


# ---------------------------------------------------------------- sandwich residuals


def test_sandwich_margin_on_engineered_directions():
    spec = make_quadratic_spec(X6, G6, K6, np.eye(X6.size))
    ups = build_upsilon(spec)
    assert not ups.exact
    # beta1 = {1,2}, beta0 = {3,4}: push the beta0 diagonal above lambda_min(beta1)
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    res = upsilon_residuals(ups, W)
    assert res["off_hull"] < 1e-12
    assert res["margin"] == pytest.approx(-0.5, abs=1e-12)
    assert res["upper"] == pytest.approx(0.0, abs=1e-12)
    assert res["lower"] == pytest.approx(0.5, abs=1e-12)
    # the one-sided slide along a single beta1 singular value is admissible
    W2 = np.zeros((6, 6))
    W2[1, 1] = 1.0
    assert upsilon_residuals(ups, W2)["margin"] >= -1e-12


# ---------------------------------------------------------------- verdicts


def test_verdict_stable_definite_hessian():
    rng = np.random.default_rng(0)
    X, Gamma, kappa, _ = random_membership_instance(rng)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    v = tilt_check(spec)
    assert v.status == STABLE
    assert v.certificate["kernel_dim"] == 0


def test_verdict_stable_kernel_transverse():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    Wsk = np.zeros((3, 3))
    Wsk[0, 1], Wsk[1, 0] = 1.0, -1.0  # skew inside the leading block: off-hull
    v = tilt_check(spec_with_kernel(X, Gamma, 2, Wsk / np.sqrt(2)))
    assert v.status == STABLE
    assert v.certificate["kernel_dim"] == 1
    assert v.certificate["sigma_min_stacked"] > 0.5


def test_verdict_unstable_exact_case():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    W = np.zeros((3, 3))
    W[1, 1] = 1.0  # critical singular value slide
    v = tilt_check(spec_with_kernel(X, Gamma, 2, W))
    assert v.status == UNSTABLE
    assert v.certificate["exact"]
    assert v.witness is not None
    assert np.linalg.norm(v.witness) == pytest.approx(1.0, abs=1e-12)
    assert v.certificate["witness_residuals"]["off_hull"] < 1e-9
    assert v.certificate["kernel_residual"] < 1e-9


def test_sigma_min_stacked_vanishes_when_the_kernel_meets_the_hull():
    # the exact slide case in rotated coordinates: the kernel lies in the
    # hull, so the stacked system is singular; sqrt(1 - maxcos) read 1e-8
    # here whenever maxcos rounded just below 1
    E = np.zeros((3, 3))
    E[1, 1] = 1.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        U, V = random_orthogonal(rng, 3), random_orthogonal(rng, 3)
        X = U @ np.diag([3.0, 2.0, 1.0]) @ V.T
        Gamma = U @ np.diag([1.0, 1.0, 0.0]) @ V.T
        v = tilt_check(spec_with_kernel(X, Gamma, 2, U @ E @ V.T))
        assert v.status == UNSTABLE and v.certificate["exact"], seed
        assert v.certificate["max_principal_cosine"] == pytest.approx(1.0, abs=1e-12)
        assert v.certificate["sigma_min_stacked"] < 1e-10, seed


def test_verdict_unstable_inexact_case_needs_search():
    W = np.zeros((6, 6))
    W[1, 1] = 1.0
    v = tilt_check(spec_with_kernel(X6, G6, K6, W))
    assert v.status == UNSTABLE
    assert not v.certificate["exact"]
    res = v.certificate["witness_residuals"]
    assert res["off_hull"] < 1e-9
    assert res["margin"] >= -1e-8
    assert v.certificate["kernel_residual"] < 1e-9


def test_verdict_inconclusive_engineered():
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    v = tilt_check(spec_with_kernel(X6, G6, K6, W))
    assert v.status == INCONCLUSIVE
    assert v.certificate["intersection_dim"] >= 1
    assert v.certificate["search"]["best_margin"] < -1e-3


def test_witness_search_reports_starts_that_ran():
    # an Inconclusive search exhausts every start; starts_used counts them
    # all, not the index of the best one.  The intersection is span{W}, so
    # the starts are +W and -W, one margin evaluation each; both margins
    # are equal and the best stays the first.
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    cert = tilt_check(spec_with_kernel(X6, G6, K6, W)).certificate
    assert cert["intersection_dim"] == 1
    assert cert["search"]["starts_used"] == 2
    assert cert["search"]["margin_evals"] == 2


# ---------------------------------------------------------------- one factorization per analysis

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"


def _problem(X, Gamma, kappa, theta):
    n, m = X.shape
    return {"n": n, "m": m, "kappa": kappa, "nu": 1.0, "X": matrix_to_json(X), "theta": theta}


def _quadratic_kernel_in_hull():
    """X6/G6 with the Hessian kernel span{E_11}, a hull element (nm = 36)."""
    W = np.zeros((6, 6))
    W[1, 1] = 1.0
    Q = projector_complement(W)
    L = -(Q @ vec(X6)).reshape(6, 6) - G6
    return _problem(X6, G6, K6, {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)})


def _least_squares_generic_kernel():
    """X6/G6 with theta = 0.5||P vec X - b||^2, P the projector off a random
    unit w orthogonal to vec G6 (so that b exists); kernel span{w}."""
    w = np.random.default_rng(4).standard_normal(36)
    g = vec(G6) / np.linalg.norm(vec(G6))
    w -= (w @ g) * g
    w /= np.linalg.norm(w)
    P = np.eye(36) - np.outer(w, w)
    b = P @ vec(X6) + vec(G6)
    return _problem(X6, G6, K6, {"type": "least_squares", "A": matrix_to_json(P), "b": b.tolist()})


class _GramCounting(np.ndarray):
    """An A that counts the square products A^T A formed from it."""

    grams = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        args = [x.view(np.ndarray) if isinstance(x, _GramCounting) else x for x in inputs]
        out = getattr(ufunc, method)(*args, **kwargs)
        if ufunc is np.matmul and all(isinstance(x, _GramCounting) for x in inputs):
            _GramCounting.grams += 1
        return out


def _demo(name):
    return lambda: json.loads((DEMO / f"{name}.json").read_text())


FACTOR_CASES = {
    "stable_quadratic": _demo("stable_quadratic"),
    "stable_least_squares": _demo("stable_least_squares"),
    "unstable_slide": _demo("unstable_slide"),
    "inconclusive_split": _demo("inconclusive_split"),
    "quadratic_kernel_in_hull": _quadratic_kernel_in_hull,
    "least_squares_generic_kernel": _least_squares_generic_kernel,
}


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_one_hessian_factorization_per_analysis(monkeypatch, name):
    problem = FACTOR_CASES[name]()
    nm = problem["n"] * problem["m"]
    shapes = {"eigh": [], "eigvalsh": [], "svd": []}
    for fn in shapes:
        def counted(a, *args, _fn=fn, _orig=getattr(np.linalg, fn), **kwargs):
            shapes[_fn].append(np.shape(a))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, counted)
    parse = cli.problem_from_dict

    def parse_counting_gram(*args, **kwargs):
        spec, tols, options = parse(*args, **kwargs)
        if isinstance(spec.theta, LeastSquaresTheta):
            spec.theta.A = spec.theta.A.view(_GramCounting)
        return spec, tols, options

    monkeypatch.setattr(cli, "problem_from_dict", parse_counting_gram)
    _GramCounting.grams = 0
    report, code = cli.run_analyze(problem)
    assert code in (0, 1, 2)
    hull_dim = report["upsilon"]["hull_dim"]
    assert shapes["eigh"].count((nm, nm)) == 1
    assert shapes["eigvalsh"].count((nm, nm)) == 0
    assert shapes["svd"].count((nm, hull_dim)) == 0
    if problem["theta"]["type"] == "least_squares":
        assert _GramCounting.grams == 1


@settings(max_examples=15, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_rotation_sampling_keeps_verdict(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    base = tilt_check(spec, options=TiltOptions(seed=3))
    rot = tilt_check(spec, options=TiltOptions(seed=3, rotation_samples=4))
    assert base.status == rot.status == STABLE


def test_rotation_sampling_keeps_unstable_verdict():
    W = np.zeros((6, 6))
    W[1, 1] = 1.0
    spec = spec_with_kernel(X6, G6, K6, W)
    for k in (0, 4, 8):
        v = tilt_check(spec, options=TiltOptions(seed=1, rotation_samples=k))
        assert v.status == UNSTABLE, k


def test_tilt_check_deterministic():
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    spec = spec_with_kernel(X6, G6, K6, W)
    a = tilt_check(spec, options=TiltOptions(seed=9))
    b = tilt_check(spec, options=TiltOptions(seed=9))
    assert a.status == b.status
    assert a.certificate == b.certificate


def test_nu_scaling_invariance():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    W = np.zeros((3, 3))
    W[1, 1] = 1.0
    Q = projector_complement(W)
    for nu in (0.5, 1.0, 4.0):
        spec = make_quadratic_spec(X, Gamma, 2, Q / nu, nu=nu)
        assert np.max(np.abs(spec.gamma_bar() - Gamma)) < 1e-12
        assert tilt_check(spec).status == UNSTABLE


# ---------------------------------------------------------------- generic predicate variant


def test_generic_kernel_test_three_phases():
    w = np.array([1.0, 0.0, 0.0])
    hull = np.eye(3)[:, :2]
    # kernel {0}: stable regardless of the predicate
    v = generic_kernel_test(np.eye(3), lambda x: True, hull)
    assert v.status == STABLE
    # kernel = span{e1} inside the hull, predicate accepts it
    H = np.eye(3) - np.outer(w, w)
    v = generic_kernel_test(H, lambda x: abs(x[0]) > 0.9, hull)
    assert v.status == UNSTABLE
    assert v.witness is not None
    # same kernel, predicate never satisfied
    v = generic_kernel_test(H, lambda x: False, hull)
    assert v.status == INCONCLUSIVE
