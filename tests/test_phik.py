"""Sum-of-largest-eigenvalues map: values, subgradients, second subderivative."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fantope_project, oracle_dirderiv, oracle_phi, oracle_phi_membership
from kyfan_tilt.oracle import d2_quotient_oracle
from kyfan_tilt.phik import (
    IN_CONE,
    OUTSIDE,
    phi_dir_deriv,
    phi_second_subderiv,
    phi_subdiff_membership,
    phi_value,
)
from kyfan_tilt.spectral import sym

seeds = st.integers(0, 2**31 - 1)


def random_sym(rng, p=None):
    if p is None:
        p = int(rng.integers(2, 7))
    return sym(rng.standard_normal((p, p)) * rng.uniform(0.5, 2.0))


def random_member(rng, Z, kappa):
    """Construct S in the subdifferential from Z's eigenvectors."""
    lam, Q = np.linalg.eigh(Z)
    lam, Q = lam[::-1], Q[:, ::-1]
    p = len(lam)
    # weights: descending in [0,1] summing to kappa, constant on eigen-groups
    w = np.zeros(p)
    w[:kappa] = 1.0
    # smear mass across a boundary group when adjacent eigenvalues are equal
    i = kappa - 1
    while i + 1 < p and abs(lam[i + 1] - lam[kappa - 1]) < 1e-12:
        i += 1
    j = kappa - 1
    while j - 1 >= 0 and abs(lam[j - 1] - lam[kappa - 1]) < 1e-12:
        j -= 1
    if i > j:
        w[j : i + 1] = (kappa - j) / (i - j + 1)
    return (Q * w) @ Q.T


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_phi_value_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    Z = random_sym(rng)
    kappa = int(rng.integers(1, Z.shape[0] + 1))
    assert abs(phi_value(Z, kappa) - oracle_phi(Z, kappa)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_phi_complementarity(seed):
    rng = np.random.default_rng(seed)
    Z = random_sym(rng)
    p = Z.shape[0]
    kappa = int(rng.integers(1, p))
    lhs = phi_value(Z, kappa) - phi_value(-Z, p - kappa)
    assert abs(lhs - np.trace(Z)) <= 1e-10 * (1 + abs(np.trace(Z)))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_phi_membership_agrees_with_fantope_oracle(seed):
    rng = np.random.default_rng(seed)
    Z = random_sym(rng)
    p = Z.shape[0]
    kappa = int(rng.integers(1, p + 1))
    if rng.uniform() < 0.5:
        S = random_member(rng, Z, kappa)
    else:
        S = sym(rng.standard_normal((p, p)))
    got, _ = phi_subdiff_membership(Z, S, kappa)
    want = oracle_phi_membership(Z, S, kappa)
    assert got == want


def test_phi_membership_degenerate_group():
    Z = np.diag([2.0, 2.0, 1.0])
    # any convex split of mass 1 over the top group is a subgradient
    S = np.diag([0.4, 0.6, 0.0])
    ok, cert = phi_subdiff_membership(Z, S, 1)
    assert ok
    bad = np.diag([1.1, -0.1, 0.0])
    ok2, _ = phi_subdiff_membership(Z, bad, 1)
    assert not ok2


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_phi_dir_deriv_matches_fd(seed):
    rng = np.random.default_rng(seed)
    Z = random_sym(rng)
    kappa = int(rng.integers(1, Z.shape[0] + 1))
    H = sym(rng.standard_normal(Z.shape))
    fd = oracle_dirderiv(lambda Y: phi_value(Y, kappa), Z, H)
    assert abs(phi_dir_deriv(Z, H, kappa) - fd) <= 1e-4 * (1 + abs(fd))


def test_phi_second_subderiv_frozen():
    # Z = diag(3,2,1), kappa=1, S = e1 e1^T, H = E12 + E21:
    # the only contribution is the coupling to the lower eigenvalues,
    # 2 * H12^2 / (3 - 2) = 2.
    Z = np.diag([3.0, 2.0, 1.0])
    S = np.diag([1.0, 0.0, 0.0])
    H = np.zeros((3, 3))
    H[0, 1] = H[1, 0] = 1.0
    v = phi_second_subderiv(Z, S, H, 1)
    assert v.reason == IN_CONE
    assert abs(v.value - 2.0) <= 1e-12


def test_phi_second_subderiv_requires_subgradient():
    Z = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        phi_second_subderiv(Z, np.diag([2.0, 0.0, 0.0]), np.eye(3), 1)


def test_phi_second_subderiv_outside_cone():
    # top group {2,2}: direction with phi' strictly above <S,H> is out of cone
    Z = np.diag([2.0, 2.0, 1.0])
    S = np.diag([1.0, 0.0, 0.0])
    H = np.diag([0.0, 1.0, 0.0])
    v = phi_second_subderiv(Z, S, H, 1)
    assert v.reason == OUTSIDE and not v.is_finite


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_phi_second_subderiv_homogeneity(seed):
    rng = np.random.default_rng(seed)
    Z = random_sym(rng, p=4)
    kappa = int(rng.integers(1, 5))
    S = random_member(rng, Z, kappa)
    ok, _ = phi_subdiff_membership(Z, S, kappa)
    if not ok:
        return
    H = sym(rng.standard_normal((4, 4)))
    v = phi_second_subderiv(Z, S, H, kappa)
    if not v.is_finite:
        return
    v2 = phi_second_subderiv(Z, S, 2.0 * H, kappa)
    assert abs(v2.value - 4.0 * v.value) <= 1e-9 * (1 + abs(v.value))


def test_phi_second_subderiv_vs_quotient_oracle():
    # independent epi-quotient cross-check with the Fantope prox as polish
    rng = np.random.default_rng(7)
    Z = np.diag([3.0, 2.0, 2.0, 0.5])
    kappa = 2
    S = np.diag([1.0, 0.7, 0.3, 0.0])
    lam, Q = np.linalg.eigh(Z)
    R = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    Z, S = R @ Z @ R.T, R @ S @ R.T
    ok, _ = phi_subdiff_membership(Z, S, kappa)
    assert ok
    for _ in range(3):
        H = sym(rng.standard_normal((4, 4)))
        v = phi_second_subderiv(Z, S, H, kappa)
        if not v.is_finite:
            continue
        # the oracle passes stacks; phi_value and the Fantope projection
        # take one matrix each
        res = d2_quotient_oracle(
            lambda Ys: np.array([phi_value(sym(Y), kappa) for Y in Ys]),
            Z,
            S,
            H,
            prox_fn=lambda Ys, ts: np.stack(
                [sym(Y) - fantope_project(sym(Y), kappa, t) for Y, t in zip(Ys, ts)]
            ),
        )
        assert abs(res.value - v.value) / (1 + abs(v.value)) <= 1e-2
