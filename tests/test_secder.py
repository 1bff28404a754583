"""Second subderivative of the Ky-Fan norm: cone, closed form against the
reference forms of tests/reference.py, zero set."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyfan_tilt.instances import (
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_incone_direction,
    random_membership_instance,
)
from kyfan_tilt.oracle import d2_envelope_oracle, kyfan_matrix_prox
from kyfan_tilt.secder import (
    IN_CONE,
    critical_cone_membership,
    d2_psi_explicit,
    d2_zero_set_membership,
)
from kyfan_tilt.subgrad import subdiff_membership
from reference import d2_nuclear, d2_psi_general, d2_spectral

seeds = st.integers(0, 2**31 - 1)
CASES = [INTERIOR, ZERO_STRICT, ZERO_TIGHT]


def member_with_cert(rng, case=None, **kw):
    X, Gamma, kappa, info = random_membership_instance(rng, case=case, **kw)
    ok, cert = subdiff_membership(X, Gamma, kappa)
    assert ok, info
    return X, Gamma, kappa, cert


# ---------------------------------------------------------------- frozen values
# worked out by hand through the embedding: B(G) couples the leading singular
# pair to the trailing one, (nu_1 I - B(X))^+ contributes 1/(nu_1 - nu_j)


def test_frozen_value_interior_coupling():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    G = np.zeros((3, 3))
    G[0, 2] = G[2, 0] = 1.0
    out = d2_psi_general(X, Gamma, G, 2)
    assert out.reason == IN_CONE
    assert out.value == pytest.approx(1.0, abs=1e-12)
    exp = d2_psi_explicit(subdiff_membership(X, Gamma, 2)[1], G)
    assert exp.value == pytest.approx(1.0, abs=1e-12)


def test_frozen_value_spectral_coupling():
    X = np.diag([3.0, 2.0])
    Gamma = np.diag([1.0, 0.0])
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = d2_psi_general(X, Gamma, G, 1)
    assert out.reason == IN_CONE
    assert out.value == pytest.approx(2.0, abs=1e-12)
    spec = d2_spectral(X, Gamma, G)
    assert spec.value == pytest.approx(2.0, abs=1e-12)


def test_frozen_value_zero_direction():
    # direction supported on the inactive block: no coupling, d2 = 0
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    G = np.zeros((3, 3))
    G[2, 2] = 1.0
    out = d2_psi_general(X, Gamma, G, 2)
    assert out.reason == IN_CONE
    assert out.value == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- route agreement


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES), st.booleans())
def test_general_equals_explicit(seed, case, in_cone):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, cert = member_with_cert(rng, case=case)
    if in_cone:
        G = random_incone_direction(rng, cert)
    else:
        G = rng.standard_normal(X.shape)
    a = d2_psi_general(X, Gamma, G, kappa, cert=cert)
    b = d2_psi_explicit(cert, G)
    assert a.reason == b.reason
    if a.is_finite:
        assert abs(a.value - b.value) <= 1e-9 * (1.0 + abs(a.value))
    else:
        assert math.isinf(a.value) and math.isinf(b.value)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([0.5, 2.0, 10.0]))
def test_positive_homogeneity_degree_two(seed, t):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, cert = member_with_cert(rng)
    G = random_incone_direction(rng, cert)
    base = d2_psi_general(X, Gamma, G, kappa, cert=cert)
    scaled = d2_psi_general(X, Gamma, t * G, kappa, cert=cert)
    assert scaled.reason == base.reason
    if base.is_finite:
        assert abs(scaled.value - t**2 * base.value) <= 1e-9 * (1.0 + abs(base.value))


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_nonnegative_on_cone(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, cert = member_with_cert(rng, case=case)
    G = random_incone_direction(rng, cert)
    out = d2_psi_general(X, Gamma, G, kappa, cert=cert)
    assert out.reason == IN_CONE
    assert out.value >= -1e-9


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES), st.booleans())
def test_finite_iff_cone_member(seed, case, in_cone):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, cert = member_with_cert(rng, case=case)
    if in_cone:
        G = random_incone_direction(rng, cert)
    else:
        G = rng.standard_normal(X.shape) * rng.uniform(0.2, 2.0)
    cone = critical_cone_membership(cert, G)
    out = d2_psi_general(X, Gamma, G, kappa, cert=cert)
    assert out.is_finite == cone.member
    if in_cone:
        assert cone.member


def test_rejects_non_subgradient():
    X = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        d2_psi_general(X, 2.0 * np.eye(3), np.eye(3), 2)


# ---------------------------------------------------------------- specializations


@settings(max_examples=40, deadline=None)
@given(seeds, st.booleans())
def test_nuclear_specialization(seed, in_cone):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = n + int(rng.integers(0, 3))
    X, Gamma, kappa, cert = member_with_cert(rng, n=n, m=m, kappa=n)
    G = random_incone_direction(rng, cert) if in_cone else rng.standard_normal((n, m))
    a = d2_nuclear(X, Gamma, G)
    b = d2_psi_general(X, Gamma, G, n, cert=cert)
    assert a.reason == b.reason
    if a.is_finite:
        assert abs(a.value - b.value) <= 1e-9 * (1.0 + abs(b.value))


@settings(max_examples=40, deadline=None)
@given(seeds, st.booleans())
def test_spectral_specialization(seed, in_cone):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = n + int(rng.integers(0, 3))
    X, Gamma, kappa, cert = member_with_cert(rng, n=n, m=m, kappa=1)
    G = random_incone_direction(rng, cert) if in_cone else rng.standard_normal((n, m))
    a = d2_spectral(X, Gamma, G)
    b = d2_psi_general(X, Gamma, G, 1, cert=cert)
    assert a.reason == b.reason
    if a.is_finite:
        assert abs(a.value - b.value) <= 1e-9 * (1.0 + abs(b.value))


# ---------------------------------------------------------------- zero set


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES), st.booleans())
def test_zero_set_iff_value_vanishes(seed, case, in_cone):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, cert = member_with_cert(rng, case=case)
    if in_cone:
        G = random_incone_direction(rng, cert)
    else:
        G = rng.standard_normal(X.shape)
    flag = d2_zero_set_membership(cert, G)
    out = d2_psi_general(X, Gamma, G, kappa, cert=cert)
    assert flag == (out.is_finite and out.value <= 1e-9)


def test_zero_set_contains_inactive_block_direction():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    ok, cert = subdiff_membership(X, Gamma, 2)
    assert ok
    G0 = np.zeros((3, 3))
    G0[2, 2] = 1.0
    assert d2_zero_set_membership(cert, G0)
    G1 = np.zeros((3, 3))
    G1[0, 2] = G1[2, 0] = 1.0  # couples the groups: positive curvature
    assert not d2_zero_set_membership(cert, G1)
    # sliding the critical singular value is curvature-free: also in the set
    assert d2_zero_set_membership(cert, np.diag([0.0, 1.0, -1.0]))


# ---------------------------------------------------------------- envelope oracle spot check


def test_quotient_oracle_agrees_on_separated_instance():
    rng = np.random.default_rng(7)
    X, Gamma, kappa, cert = member_with_cert(rng, well_separated=True)
    W = random_incone_direction(rng, cert)
    if np.linalg.norm(W) < 1e-9:
        W = random_incone_direction(np.random.default_rng(8), cert)
    W = W / np.linalg.norm(W)
    closed = d2_psi_general(X, Gamma, W, kappa, cert=cert)
    assert closed.is_finite
    value, divergent = d2_envelope_oracle(
        X, Gamma, W, prox_fn=lambda Y, t, k=kappa: kyfan_matrix_prox(Y, t, k)
    )
    assert not divergent
    assert abs(value - closed.value) <= 1e-2 * (1.0 + abs(closed.value))
