"""Ky-Fan subdifferential: membership test and certificates."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_psi, oracle_psi_membership
from kyfan_tilt.config import DEFAULT_TOLS
from kyfan_tilt.instances import (
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_membership_instance,
    random_orthogonal,
)
from kyfan_tilt.spectral import group_singular
from kyfan_tilt.subgrad import (
    INTERIOR_GROUP,
    ZERO_GROUP,
    psi_value,
    simultaneous_svd,
    subdiff_membership,
)

seeds = st.integers(0, 2**31 - 1)
CASES = [INTERIOR, ZERO_STRICT, ZERO_TIGHT]


def random_matrix(rng, n=None, m=None):
    if n is None:
        n = int(rng.integers(2, 6))
    if m is None:
        m = n + int(rng.integers(0, 4))
    return rng.standard_normal((n, m)) * rng.uniform(0.3, 3.0)


# ---------------------------------------------------------------- value


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_psi_value_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    X = random_matrix(rng)
    kappa = int(rng.integers(1, X.shape[0] + 1))
    assert psi_value(X, kappa) == pytest.approx(oracle_psi(X, kappa), rel=1e-12, abs=1e-12)


def test_psi_value_stack_matches_single_calls():
    # one stacked call equals the one-matrix calls bit for bit, kappa = n
    # and tied singular values included; one matrix still gives a float
    rng = np.random.default_rng(41)
    for n, m in ((1, 1), (2, 3), (3, 3), (4, 6)):
        Xs = rng.standard_normal((6, n, m))
        Xs[0] = 0.0
        Xs[0, np.arange(n), np.arange(n)] = 1.5
        for kappa in range(1, n + 1):
            values = psi_value(Xs, kappa)
            assert values.shape == (6,)
            for X, v in zip(Xs, values):
                single = psi_value(X, kappa)
                assert type(single) is float and single == v
    assert psi_value(np.zeros((2, 4, 3, 5)), 2).shape == (2, 4)


def test_psi_value_rejects_bad_kappa():
    X = np.eye(3)
    with pytest.raises(ValueError):
        psi_value(X, 0)
    with pytest.raises(ValueError):
        psi_value(X, 4)


# ---------------------------------------------------------------- membership: two routes agree


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_membership_true_on_constructed_members(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, info = random_membership_instance(rng, case=case)
    ok, cert = subdiff_membership(X, Gamma, kappa)
    assert ok, f"closed-form route rejected a constructed member ({info})"
    assert oracle_psi_membership(X, Gamma, kappa), "support-function oracle disagrees"
    assert cert is not None and cert.kappa == kappa
    # the certificate reuses the partition that built the pair, with kappa
    # located in it: the grouping of the pair's singular values afresh,
    # field by field, with each representative np.mean's, bit for bit
    got, fresh = cert.grouping, group_singular(cert.pair, kappa)
    assert got.nu.dtype == fresh.nu.dtype and got.nu.tobytes() == fresh.nu.tobytes()
    means = [np.mean(cert.pair.sigma[g]) for g in fresh.groups]
    assert fresh.nu.tobytes() == np.array(means, dtype=float).tobytes()
    assert len(got.groups) == len(fresh.groups)
    assert all(np.array_equal(a, b) for a, b in zip(got.groups, fresh.groups))
    for name in ("b", "c"):
        assert np.array_equal(getattr(got, name), getattr(fresh, name)), name
    # the subgradient's values on the pair, taken as one stacked product:
    # on beta_plus each is U[:, i] @ Gamma @ V[:, i] alone, bit for bit, and
    # every other one is clamped to 0 or 1
    U, V = cert.pair.U, cert.pair.V
    alone = [float(U[:, i] @ Gamma @ V[:, i]) for i in range(cert.pair.n)]
    for i, v in enumerate(cert.sigma_gamma_vals.tolist()):
        assert v == alone[i] if i in cert.beta_plus else v in (0.0, 1.0), i
    assert (got.s, got.r, got.kappa) == (fresh.s, fresh.r, fresh.kappa)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_membership_agrees_on_random_gamma(seed):
    rng = np.random.default_rng(seed)
    X = random_matrix(rng)
    kappa = int(rng.integers(1, X.shape[0] + 1))
    Gamma = rng.standard_normal(X.shape) * rng.uniform(0.1, 1.5)
    ok, _ = subdiff_membership(X, Gamma, kappa)
    assert ok == oracle_psi_membership(X, Gamma, kappa)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([1e-12, 1e-3]))
@example(seed=861, eps=1e-3)
def test_membership_routes_agree_under_perturbation(seed, eps):
    # tiny noise must not flip membership; at 1e-3 both routes must still agree.
    # The closed-form route runs at the oracle's sum bound (1e-8 * kappa, not
    # the default sum_rel's 1e-7 * kappa): a sum of singular values between
    # the two bounds, as in seed 861 (kappa + 6.3e-8), splits the routes by
    # their thresholds alone
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng)
    G = Gamma + eps * rng.standard_normal(Gamma.shape)
    tols = dataclasses.replace(DEFAULT_TOLS, sum_rel=1e-8)
    ok, _ = subdiff_membership(X, G, kappa, tols=tols)
    assert ok == oracle_psi_membership(X, G, kappa)
    if eps <= 1e-12:
        assert ok


def test_membership_diagnostics_name_first_failure():
    X = np.diag([3.0, 2.0, 1.0])
    ok, cert, why = subdiff_membership(X, 2.0 * np.eye(3), 2, with_diagnostics=True)
    assert not ok and cert is None
    assert "1" in why  # complains about a singular value bound, not alignment


# ---------------------------------------------------------------- simultaneous SVD


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_simultaneous_svd_diagonalizes_both(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    pair = simultaneous_svd(X, Gamma)
    assert pair is not None
    n, m = X.shape
    dx = pair.U.T @ X @ pair.V
    dg = pair.U.T @ Gamma @ pair.V
    for D in (dx, dg):
        diag_part = np.hstack([np.diag(np.diag(D[:, :n])), np.zeros((n, m - n))])
        assert np.max(np.abs(D - diag_part)) < 1e-9
    sx = np.diag(dx[:, :n])
    assert np.all(np.diff(sx) <= 1e-10)  # nonincreasing
    assert np.all(sx >= -1e-12)


def test_simultaneous_svd_absent_for_misaligned_pair():
    X = np.diag([2.0, 1.0])
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    Gamma = R @ np.diag([1.0, 0.4]) @ R.T  # singular frames rotated off X's
    assert simultaneous_svd(X, Gamma) is None
    ok, cert = subdiff_membership(X, Gamma, 1)
    assert not ok and not oracle_psi_membership(X, Gamma, 1)


def test_simultaneous_svd_uses_block_freedom():
    # X has a repeated group; Gamma diagonalizes only after rotating inside it
    rng = np.random.default_rng(3)
    n, m = 4, 5
    Q = random_orthogonal(rng, 2)
    U = np.eye(n)
    V = np.eye(m)
    X = np.diag([3.0, 2.0, 2.0, 1.0]) @ np.eye(n, m)
    B = Q @ np.diag([0.9, 0.4]) @ Q.T
    Gamma = np.zeros((n, m))
    Gamma[0, 0] = 1.0
    Gamma[1:3, 1:3] = B
    Gamma[3, 3] = 0.1
    pair = simultaneous_svd(U @ X @ V.T, U @ Gamma @ V.T)
    assert pair is not None
    g = np.diag((pair.U.T @ Gamma @ pair.V)[:, :n])
    assert np.allclose(np.sort(g[1:3]), [0.4, 0.9], atol=1e-10)


# ---------------------------------------------------------------- certificate structure


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_certificate_matches_generator_layout(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, info = random_membership_instance(rng, case=case)
    ok, cert = subdiff_membership(X, Gamma, kappa)
    assert ok
    if case == INTERIOR:
        assert cert.case == INTERIOR_GROUP
    else:
        assert cert.case == ZERO_GROUP
    n1, n_plus, n0 = info["beta_composition"]
    assert len(cert.beta1) == n1
    assert len(cert.beta_plus) == n_plus
    assert len(cert.beta0) == n0
    assert cert.kappa0 == len(cert.alpha)
    assert cert.kappa1 == kappa - cert.kappa0
    assert cert.grouping.r == info["r"]
    # beta splits exactly
    merged = np.sort(np.concatenate([cert.beta1, cert.beta_plus, cert.beta0]))
    assert np.array_equal(merged, np.sort(cert.beta))
    # zeta: distinct, descending, in (0, 1], groups partition beta1 + beta_plus
    assert np.all(np.diff(cert.zeta) < 0) if len(cert.zeta) > 1 else True
    if len(cert.zeta):
        assert 0 < cert.zeta[-1] and cert.zeta[0] <= 1 + 1e-12
    covered = np.sort(np.concatenate([np.asarray(g) for g in cert.beta_js])) if cert.beta_js else np.array([], int)
    expect = np.sort(np.concatenate([cert.beta1, cert.beta_plus]))
    assert np.array_equal(covered, expect)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_tight_flag_tracks_case(seed):
    rng = np.random.default_rng(seed)
    for case, want in ((ZERO_TIGHT, True), (ZERO_STRICT, False), (INTERIOR, True)):
        X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
        ok, cert = subdiff_membership(X, Gamma, kappa)
        assert ok
        assert cert.tight == want, case

