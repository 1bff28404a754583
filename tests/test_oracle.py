"""Numerical oracles: prox maps, envelope quotient for d2, tilt probe."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_quadratic_spec,
    oracle_psi_membership,
    oracle_vector_prox_enum,
    oracle_vector_prox_qp,
    projector_complement,
)
from kyfan_tilt import oracle
from kyfan_tilt.instances import (
    random_incone_direction,
    random_membership_instance,
    random_orthogonal,
)
from kyfan_tilt.cli import _probe_steer
from kyfan_tilt.oracle import (
    _proj_capped_l1,
    d2_envelope_oracle,
    kyfan_matrix_prox,
    kyfan_vector_prox,
    prox_differences,
    tilt_probe,
)
from kyfan_tilt.secder import critical_cone_membership
from kyfan_tilt.subgrad import subdiff_membership
from kyfan_tilt.tilt import tilt_check

seeds = st.integers(0, 2**31 - 1)


# ---------------------------------------------------------------- vector prox


def test_vector_prox_frozen():
    # kappa = 1: residual after peeling the l1-ball projection of (5, 1)
    out = kyfan_vector_prox(np.array([5.0, 1.0]), 1.0, 1)
    assert np.allclose(out, [4.0, 1.0], atol=1e-12)
    # point already inside t * dual ball: prox collapses to zero
    assert np.allclose(kyfan_vector_prox(np.array([0.3, -0.2]), 1.0, 1), 0.0, atol=1e-12)


def test_vector_prox_rejects_bad_step():
    with pytest.raises(ValueError):
        kyfan_vector_prox(np.ones(3), 0.0, 1)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_vector_prox_matches_qp(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    kappa = int(rng.integers(1, d + 1))
    x = rng.standard_normal(d) * rng.uniform(0.5, 4.0)
    t = float(rng.uniform(0.2, 3.0))
    mine = kyfan_vector_prox(x, t, kappa)
    ref = oracle_vector_prox_qp(x, t, kappa)
    assert np.max(np.abs(mine - ref)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_vector_prox_nonexpansive_and_moreau(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    kappa = int(rng.integers(1, d + 1))
    t = float(rng.uniform(0.2, 3.0))
    x = rng.standard_normal(d) * 3.0
    y = rng.standard_normal(d) * 3.0
    px, py = kyfan_vector_prox(x, t, kappa), kyfan_vector_prox(y, t, kappa)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-10
    # Moreau: the complement lives in t * {||.||_inf <= 1, ||.||_1 <= kappa}
    dual = x - px
    assert np.max(np.abs(dual)) <= t + 1e-10
    assert np.sum(np.abs(dual)) <= t * kappa + 1e-10
    # and supports the prox point: <prox, dual> = t * h_kappa(prox)
    h = np.sum(np.sort(np.abs(px))[::-1][:kappa])
    assert abs(np.dot(px, dual) - t * h) < 1e-9 * (1.0 + abs(t * h))


def prox_case(rng, i):
    """A seeded vector prox case with k <= 8: every fourth has ties and
    zeros, every fifth has kappa = k, and x and t share a scale from 1e-6
    to 1e6."""
    k = int(rng.integers(1, 9))
    kappa = k if i % 5 == 0 else int(rng.integers(1, k + 1))
    scale = 10.0 ** rng.uniform(-6, 6)
    x = rng.standard_normal(k) * rng.uniform(0.5, 4.0)
    if i % 4 == 0:
        x = np.round(x) * rng.choice([-1.0, 1.0], size=k)
    t = float(rng.uniform(0.1, 3.0))
    return x * scale, t * scale, kappa, scale


def test_vector_prox_matches_enumeration():
    rng = np.random.default_rng(2024)
    for i in range(2400):
        x, t, kappa, scale = prox_case(rng, i)
        ref = oracle_vector_prox_enum(x, t, kappa)
        assert np.max(np.abs(kyfan_vector_prox(x, t, kappa) - ref)) <= 1e-10 * scale, (x, t, kappa)


def l1_budget_misses(prox):
    """Run `prox` on 2000 seeded cases; return the number of cases where the
    l1 cap of the dual ball binds and the cases among them where the
    projection x - prox misses l1 norm t * kappa by more than rounding."""
    rng = np.random.default_rng(99)
    binding, misses = 0, []
    for i in range(2000):
        x, t, kappa, _ = prox_case(rng, i)
        if np.sum(np.minimum(np.abs(x), t)) <= t * kappa * (1 + 1e-12):
            continue
        binding += 1
        l1 = float(np.sum(np.abs(x - prox(x, t, kappa))))
        if abs(l1 - t * kappa) > 1e-13 * t * kappa:
            misses.append((x, t, kappa))
    return binding, misses


def test_vector_prox_meets_the_l1_budget_exactly():
    # when the l1 cap of the dual ball binds, the projection x - prox has l1
    # norm t * kappa up to rounding, not up to a stopping tolerance
    binding, misses = l1_budget_misses(kyfan_vector_prox)
    assert not misses, misses[0]
    assert binding > 500


def test_l1_budget_check_catches_a_projection_short_of_the_cap():
    # a projection that stops 1e-11 short of the binding l1 cap, as a
    # bisection with a stopping tolerance does, fails the check above
    def approximate(x, t, kappa):
        p = kyfan_vector_prox(x, t, kappa)
        return p + 1e-11 * np.sign(p)

    _, misses = l1_budget_misses(approximate)
    assert misses


def test_vector_prox_long_vector_is_feasible():
    # an O(k^2) breakpoint table would not fit in memory at this length
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100_000)
    t, kappa = 0.5, 100
    dual = x - kyfan_vector_prox(x, t, kappa)
    assert np.max(np.abs(dual)) <= t
    assert abs(float(np.sum(np.abs(dual))) - t * kappa) <= 1e-9 * t * kappa


# ---------------------------------------------------------------- matrix prox


def test_matrix_prox_is_orthogonally_equivariant():
    rng = np.random.default_rng(11)
    for i in range(200):
        n = int(rng.integers(1, 6))
        m = n + int(rng.integers(0, 3))
        X = rng.standard_normal((n, m)) * 2.0
        if i % 4 == 0:  # repeated singular values
            X = np.zeros((n, m))
            X[np.arange(n), np.arange(n)] = np.round(rng.uniform(0.5, 3.0, n))
        kappa = int(rng.integers(1, n + 1))
        t = float(rng.uniform(0.2, 2.0))
        Q, R = random_orthogonal(rng, n), random_orthogonal(rng, m)
        lhs = kyfan_matrix_prox(Q @ X @ R, t, kappa)
        rhs = Q @ kyfan_matrix_prox(X, t, kappa) @ R
        assert np.max(np.abs(lhs - rhs)) <= 1e-12, (X, t, kappa)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_matrix_prox_optimality_via_membership(seed):
    # Z = prox_{t Psi}(Y)  iff  (Y - Z) / t is a subgradient at Z;
    # checked through the independent support-function route
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = n + int(rng.integers(0, 3))
    kappa = int(rng.integers(1, n + 1))
    Y = rng.standard_normal((n, m)) * rng.uniform(0.5, 3.0)
    t = float(rng.uniform(0.2, 2.0))
    Z = kyfan_matrix_prox(Y, t, kappa)
    assert oracle_psi_membership(Z, (Y - Z) / t, kappa, tol=1e-7)


def test_matrix_prox_stack_matches_single_calls():
    # one stacked call, mixed steps, kappa = n and tied singular values
    # included, equals the one-matrix calls bit for bit
    rng = np.random.default_rng(17)
    for n, m in ((1, 1), (2, 3), (3, 3), (4, 6)):
        Ys = rng.standard_normal((8, n, m)) * 2.0
        Ys[1] = 0.0
        Ys[1, np.arange(n), np.arange(n)] = 2.0  # all singular values tied
        Ys[2] = 0.0
        Ys[2, np.arange(n), np.arange(n)] = np.round(rng.uniform(0.5, 3.0, n))
        ts = rng.uniform(0.05, 3.0, 8)
        for kappa in range(1, n + 1):
            stacked = kyfan_matrix_prox(Ys, ts, kappa)
            for Y, t, Z in zip(Ys, ts, stacked):
                assert np.array_equal(Z, kyfan_matrix_prox(Y, float(t), kappa))


def test_capped_l1_rows_match_single_rows():
    # rows where the l1 cap binds sit next to rows where it does not, and
    # next to rows that the box alone leaves inside; each row equals its
    # one-row projection bit for bit
    rng = np.random.default_rng(23)
    for i in range(300):
        x, t, kappa, _ = prox_case(rng, i)
        k = len(x)
        xs = np.stack([x, 0.01 * x, x[::-1], np.abs(x) + 0.3 * t, np.zeros(k)])
        ts = t * np.array([1.0, 1.0, 0.5, 2.0, 1.0])
        budgets = ts * np.array([kappa, kappa, 1, k, kappa])
        rows = _proj_capped_l1(xs, ts, budgets)
        for xr, tr, br, yr in zip(xs, ts, budgets, rows):
            assert np.array_equal(yr, _proj_capped_l1(xr[None], tr[None], br[None])[0])
    # and both kinds occur
    y = _proj_capped_l1(np.array([[3.0, 2.0], [0.2, 0.1]]), np.ones(2), np.ones(2))
    assert np.array_equal(y, [[1.0, 0.0], [0.2, 0.1]])


def test_matrix_prox_large_step_kills_small_matrix():
    Y = 0.1 * np.eye(3)
    assert np.allclose(kyfan_matrix_prox(Y, 1.0, 3), 0.0, atol=1e-12)


# ---------------------------------------------------------------- envelope quotient


def envelope(X, Gamma, W, kappa):
    return d2_envelope_oracle(X, Gamma, W, prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, kappa))


def test_quotient_oracle_quadratic_landscape():
    # Psi = ||Y||^2 has prox Y / (1 + 2 lam) and d2 Psi(x | 2x)(w) = 2||w||^2;
    # the quotient is 2||w||^2 / (1 + 2 lam) at every lam, so the
    # extrapolation leaves an error of 8 lam_0 lam_1 ||w||^2, here 1.0e-6
    # relative.  One prox call on 8 rows
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3))
    w = rng.standard_normal((2, 3))
    calls = []

    def prox_fn(Y, t):
        calls.append(len(Y))
        return Y / (1.0 + 2.0 * t[:, None, None])

    value, divergent = d2_envelope_oracle(x, 2.0 * x, w, prox_fn=prox_fn)
    exact = 2.0 * float(np.sum(w * w))
    assert not divergent
    assert abs(value - exact) <= 1e-5 * exact
    assert calls == [8]


def frozen_spectral_problem():
    X = np.diag([3.0, 2.0])
    W = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    return X, np.diag([1.0, 0.0]), W


def test_quotient_oracle_matches_frozen_spectral_value():
    X, Gamma, W = frozen_spectral_problem()
    value, divergent = envelope(X, Gamma, W, 1)
    assert not divergent
    assert abs(value - 1.0) < 1e-4  # 2.0 scaled by ||W||^2 = 1/2


def test_quotient_oracle_flags_divergence_outside_cone():
    # repeated top group split by Gamma; coupling direction exits the cone,
    # so lam * h levels off at the squared distance to it
    X = np.diag([2.0, 2.0])
    Gamma = np.diag([1.0, 0.0])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert envelope(X, Gamma, W, 1) == (math.inf, True)


def test_quotient_oracle_draws_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("the envelope oracle drew a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    X, Gamma, W = frozen_spectral_problem()
    value, _ = envelope(X, Gamma, W, 1)
    assert abs(value - 1.0) < 1e-4


def test_envelope_oracle_is_exactly_2_homogeneous():
    # t scales with 1/||w||, so a power-of-two scale of w moves no rounding:
    # d2 at 4w is 16 times d2 at w bit for bit, and w = 0 reads 0
    rng = np.random.default_rng(5)
    X, Gamma, kappa, _ = random_membership_instance(rng, well_separated=True)
    ok, cert = subdiff_membership(X, Gamma, kappa)
    assert ok
    W = random_incone_direction(rng, cert)
    value, divergent = envelope(X, Gamma, W, kappa)
    assert not divergent
    assert envelope(X, Gamma, 4.0 * W, kappa) == (16.0 * value, False)
    assert envelope(X, Gamma, np.zeros_like(W), kappa) == (0.0, False)


def test_prox_differences_match_separate_prox_calls():
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((3, 2, 4))
    D = 1e-3 * rng.standard_normal((3, 2, 4))
    lam = np.array([0.5, 0.1, 0.02])
    got = prox_differences(Y, lam, D, prox_fn=lambda Z, t: kyfan_matrix_prox(Z, t, 2))
    for i in range(3):
        want = kyfan_matrix_prox(Y[i] + D[i], lam[i], 2) - kyfan_matrix_prox(Y[i], lam[i], 2)
        assert np.allclose(got[i], want, rtol=0, atol=1e-14)


# about one out-of-cone draw in a thousand has a smaller cone residual, and
# may read finite: its lam * h levels off only at steps far below the
# oracle's, which are bound to the smallest gap
_OUTSIDE_RESOLUTION = 1e-2


def _cone_residual(cone):
    """The largest residual of the critical-cone test, the violation of its
    sandwich lower <= varpi <= upper included."""
    res = cone.residuals
    worst = max([v for k, v in res.items() if k not in ("lower", "upper")], default=0.0)
    lower, upper = res["lower"], res["upper"]
    hi, lo = (upper, lower) if cone.varpi is None else (cone.varpi, cone.varpi)
    return max(worst, lower - hi, lo - upper, 0.0)


def test_envelope_oracle_flags_out_of_cone_draws(capsys):
    rng = np.random.default_rng(36)
    outside, divergent, unresolved = 0, 0, 0
    while outside < 600:
        X, Gamma, kappa, _ = random_membership_instance(rng)
        ok, cert = subdiff_membership(X, Gamma, kappa)
        assert ok
        W = rng.standard_normal(X.shape)
        W /= np.linalg.norm(W)
        cone = critical_cone_membership(cert, W)
        if cone.member:
            continue
        outside += 1
        if _cone_residual(cone) < _OUTSIDE_RESOLUTION:
            unresolved += 1
            continue
        divergent += int(envelope(X, Gamma, W, kappa)[1])
    with capsys.disabled():
        print(
            f"envelope oracle: {divergent}/{outside - unresolved} out-of-cone draws divergent, "
            f"{unresolved} below cone residual {_OUTSIDE_RESOLUTION:g}"
        )
    assert divergent == outside - unresolved
    assert unresolved <= 6


# ---------------------------------------------------------------- steered prox-Jacobian probe


def stable_spec():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    return make_quadratic_spec(X, Gamma, 2, np.eye(9))


def sliding_spec():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    W = np.zeros((3, 3))
    W[1, 1] = 1.0
    return make_quadratic_spec(X, Gamma, 2, projector_complement(W))


def probe(spec, seed=0):
    """The probe as `analyze --probe` runs it, steered by the certificate."""
    return tilt_probe(spec, _probe_steer(spec.validate()), seed)


def test_probe_classifies_stable_and_unstable():
    stable = probe(stable_spec())
    assert stable["consistent_with"] == "Stable"
    assert stable["mu_min"] == pytest.approx(1.0, abs=1e-6)  # Q = I, and Psi adds curvature >= 0
    sliding = probe(sliding_spec())
    assert sliding["consistent_with"] == "Unstable"
    assert abs(sliding["mu_min"]) <= sliding["mu_cut"]
    assert [row["point"] for row in sliding["rows"]] == ["steered", "minty0", "minty1", "minty2"]


def test_probe_readings_do_not_depend_on_the_chunk_size(monkeypatch):
    # each prox row is computed as it is alone, so chunks of two central
    # differences give the one-chunk readings bit for bit
    whole = probe(sliding_spec(), seed=3)
    monkeypatch.setattr(oracle, "_STACK_FLOATS", 4 * 9)
    assert probe(sliding_spec(), seed=3) == whole


@pytest.mark.parametrize("t, expected", [(1e-5, "Stable"), (1e-8, "Unstable"), (0.0, "Unstable")])
def test_probe_mu_cut_flips_between_a_small_curvature_and_none(t, expected):
    # unstable_slide's X and Gamma with Q_t = I - (1 - t) e e^T, e = vec E_22:
    # the reading tracks t to rounding, and mu_cut (3.8e-6 here) falls
    # between 1e-5 and 0; at 1e-8 the verdict's cutoff (2.8e-9) still
    # reads Stable, below mu_cut
    X, Gamma = np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0])
    e = np.zeros(9)
    e[4] = 1.0
    spec = make_quadratic_spec(X, Gamma, 2, np.eye(9) - (1 - t) * np.outer(e, e))
    got = probe(spec)
    assert got["consistent_with"] == expected
    assert got["mu_min"] == pytest.approx(t, abs=1e-8)
    assert tilt_check(spec).status == ("Unstable" if t == 0 else "Stable")


def test_probe_rejects_a_sign_flipped_steer():
    # inconclusive_split's X and Gamma: X's group at 2 holds beta1 = {1, 2}
    # and beta0 = {3, 4}.  The flipped pattern lifts beta0 above beta1,
    # where Gamma_bar is no subgradient, so X' is no prox fixed point
    X = np.diag([3.0, 2.0, 2.0, 2.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    spec = make_quadratic_spec(X, Gamma, 3, np.eye(36))
    steer = _probe_steer(spec.validate())
    assert tilt_probe(spec, steer)["prox_residual"] <= 1e-14
    with pytest.raises(ValueError, match="off the graph"):
        tilt_probe(spec, -steer)


def set_element(cert):
    """A certified set element, built as perfbench's decisive_direction
    builds it: the first beta1 diagonal, else the normalized beta_plus
    diagonal, in pair coordinates.  The strict cone pins the beta_plus
    diagonal, so off the tight case that one is no set element; None when
    there is none."""
    n, m = cert.pair.n, cert.pair.m
    H = np.zeros((n, m))
    if len(cert.beta1):
        H[cert.beta1[0], cert.beta1[0]] = 1.0
    elif len(cert.beta_plus) and cert.tight:
        H[cert.beta_plus, cert.beta_plus] = 1.0 / np.sqrt(len(cert.beta_plus))
    else:
        return None
    return cert.pair.U @ H @ cert.pair.V.T


def test_probe_agrees_with_planted_kernels(capsys):
    # Q = I - w w^T: w a set element is Unstable, w generic is Stable, and
    # both the probe and the verdict must say so, in all three cases
    rng = np.random.default_rng(37)
    cases = ("interior", "zero_strict", "zero_tight")
    draws, disagree = 0, []
    while draws < 360:
        X, Gamma, kappa, _ = random_membership_instance(rng, case=cases[draws % 3])
        ok, cert = subdiff_membership(X, Gamma, kappa)
        assert ok
        W, expected = (set_element(cert), "Unstable") if draws % 2 == 0 else (
            rng.standard_normal(X.shape), "Stable")
        if W is None:
            continue
        spec = make_quadratic_spec(X, Gamma, kappa, projector_complement(W))
        got = probe(spec, seed=draws)
        if got["consistent_with"] != expected or tilt_check(spec).status != expected:
            disagree.append((draws, expected, got["mu_min"], got["mu_cut"]))
        draws += 1
    with capsys.disabled():
        print(f"tilt probe: {len(disagree)} disagreements in {draws} planted-kernel draws")
    assert disagree == []
