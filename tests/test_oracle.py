"""Numerical oracles: prox maps, difference-quotient probe, tilt solver."""
from __future__ import annotations

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
from kyfan_tilt.instances import (
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_incone_direction,
    random_membership_instance,
    random_orthogonal,
)
from kyfan_tilt.oracle import (
    ProbeConfig,
    QuotientConfig,
    SolverConfig,
    SolverError,
    _proj_capped_l1,
    d2_quotient_oracle,
    kyfan_matrix_prox,
    kyfan_vector_prox,
    probe_csv,
    solve_tilted,
    tilt_probe,
)
from kyfan_tilt.subgrad import psi_value, subdiff_membership

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


def test_vector_prox_meets_the_l1_budget_exactly():
    # when the l1 cap of the dual ball binds, the projection x - prox has l1
    # norm t * kappa up to rounding, not up to a stopping tolerance
    rng = np.random.default_rng(99)
    binding = 0
    for i in range(2000):
        x, t, kappa, _ = prox_case(rng, i)
        if np.sum(np.minimum(np.abs(x), t)) <= t * kappa * (1 + 1e-12):
            continue
        binding += 1
        l1 = float(np.sum(np.abs(x - kyfan_vector_prox(x, t, kappa))))
        assert abs(l1 - t * kappa) <= 1e-13 * t * kappa, (x, t, kappa)
    assert binding > 500


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


# ---------------------------------------------------------------- difference quotient


def test_quotient_oracle_quadratic_landscape():
    # ||Y||^2 from x = 0 along a unit w: the quotient is 2||w'||^2, whose
    # minimum over the ball of radius 2 tau around w is 2(1 - 2 tau)^2.  The
    # tau-scaled step reaches it at every tau within a few steps; a step
    # equal to the radius leaves the small-tau rows near their centres
    x = np.zeros((2, 3))
    w = np.zeros((2, 3))
    w[0, 1] = 1.0
    rows = []

    def value_fn(Y):
        rows.append(len(Y))
        return np.sum(Y * Y, axis=(1, 2))

    res = d2_quotient_oracle(
        value_fn, x, 2.0 * x, w, prox_fn=lambda Y, t: Y / (1.0 + 2.0 * t[:, None, None])
    )
    assert not res.divergent
    assert abs(res.value - 2.0) < 1e-3 * 2.0
    for tau, q in res.per_tau:
        exact = 2.0 * (1.0 - 2.0 * tau) ** 2
        assert abs(q - exact) <= 1e-12 * exact, (tau, q, exact)
    assert len(rows) <= 30


def frozen_spectral_problem():
    X = np.diag([3.0, 2.0])
    W = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    return X, np.diag([1.0, 0.0]), W


def test_quotient_oracle_matches_frozen_spectral_value():
    X, Gamma, W = frozen_spectral_problem()
    res = d2_quotient_oracle(
        lambda Y: psi_value(Y, 1),
        X,
        Gamma,
        W,
        prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, 1),
    )
    assert not res.divergent
    assert abs(res.value - 1.0) < 1e-2  # 2.0 scaled by ||W||^2 = 1/2


def test_quotient_oracle_flags_divergence_outside_cone():
    # repeated top group split by Gamma; coupling direction exits the cone,
    # so the quotient grows like 2/tau
    X = np.diag([2.0, 2.0])
    Gamma = np.diag([1.0, 0.0])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = d2_quotient_oracle(
        lambda Y: psi_value(Y, 1), X, Gamma, W, prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, 1)
    )
    assert res.divergent
    assert res.value > 1e3


def test_quotient_oracle_draws_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("the quotient oracle drew a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    X, Gamma, W = frozen_spectral_problem()
    res = d2_quotient_oracle(
        lambda Y: psi_value(Y, 1), X, Gamma, W, prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, 1)
    )
    assert abs(res.value - 1.0) < 1e-2


def test_quotient_oracle_value_calls_are_one_per_iterate():
    # value_fn(x) once, then the centres, then one call per Davis-Yin step
    # carrying one row per tau still descending; a tau that stops never
    # comes back, and descent_steps caps the steps
    cfg = QuotientConfig(tau_grid=(1e-1, 1e-2, 1e-3), descent_steps=7)
    rows = []

    def value_fn(Y):
        rows.append(len(Y))
        return psi_value(Y, 1)

    X, Gamma, W = frozen_spectral_problem()
    d2_quotient_oracle(value_fn, X, Gamma, W, cfg, prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, 1))
    assert rows[:2] == [1, len(cfg.tau_grid)]
    assert 2 < len(rows) <= 2 + cfg.descent_steps
    steps = rows[1:]
    assert all(0 < b <= a for a, b in zip(steps, steps[1:])), rows


def test_quotient_oracle_rows_stop_before_the_cap():
    # every tau row stops at its fixed point before the 200-step default
    # cap: a 10,000-step cap gives the same per_tau bit for bit, on the
    # instance family of acceptance criterion 06
    rng = np.random.default_rng(606)
    cases = [INTERIOR, ZERO_STRICT, ZERO_TIGHT]
    done = 0
    while done < 30:
        X, Gamma, kappa, _ = random_membership_instance(
            rng, case=cases[done % 3], well_separated=True
        )
        ok, cert = subdiff_membership(X, Gamma, kappa)
        assert ok
        W = random_incone_direction(rng, cert)
        nw = np.linalg.norm(W)
        if nw < 1e-9:
            continue
        W = W / nw

        def per_tau(cfg, k=kappa):
            return d2_quotient_oracle(
                lambda Y: psi_value(Y, k),
                X,
                Gamma,
                W,
                cfg,
                prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, k),
            ).per_tau

        assert per_tau(None) == per_tau(QuotientConfig(descent_steps=10_000)), done
        done += 1


def test_quotient_lockstep_matches_sub_grid_runs():
    # each tau's row of the lockstep descent is independent of the others:
    # the 9-tau per_tau equals the entries of 2-tau runs, bit for bit
    rng = np.random.default_rng(3)
    X = np.diag([3.0, 2.0, 2.0]) + 0.1 * rng.standard_normal((3, 3))
    Gamma = np.diag([1.0, 0.5, 0.5])
    W = rng.standard_normal((3, 3))
    W /= np.linalg.norm(W)
    cfg = QuotientConfig(descent_steps=40)
    taus = cfg.tau_grid

    def run(grid):
        return d2_quotient_oracle(
            lambda Y: psi_value(Y, 2),
            X,
            Gamma,
            W,
            QuotientConfig(tau_grid=grid, descent_steps=cfg.descent_steps),
            prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, 2),
        ).per_tau

    full = run(taus)
    assert len(full) == 9
    for i in range(0, 9, 2):
        pair = (taus[i], taus[i + 1]) if i + 1 < 9 else (taus[i - 1], taus[i])
        sub = dict(run(pair))
        for tau, q in full:
            if tau in sub:
                assert sub[tau] == q, (tau, sub[tau], q)


def test_quotient_config_validation():
    with pytest.raises(ValueError):
        QuotientConfig(tau_grid=np.array([]))
    with pytest.raises(ValueError):
        QuotientConfig(ball_factor=-1.0)


# ---------------------------------------------------------------- tilt solver + probe


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


def test_solve_tilted_untilted_recovers_stationary_point():
    spec = stable_spec()
    X = solve_tilted(spec, np.zeros((3, 3)))
    assert np.max(np.abs(X - spec.Xbar)) < 1e-7


def test_solve_tilted_raises_without_budget():
    # ill-conditioned curvature: two iterations cannot reach the fixed point
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    Q = np.diag(np.linspace(0.05, 1.0, 9))
    spec = make_quadratic_spec(X, Gamma, 2, Q)
    V = np.full((3, 3), 0.1)
    with pytest.raises(SolverError):
        solve_tilted(spec, V, ProbeConfig(solver=SolverConfig(max_iters=2)))


def test_probe_classifies_stable_and_unstable():
    cfg = ProbeConfig(seed=0)
    stable = tilt_probe(stable_spec(), cfg)
    assert stable.consistent_with == "Stable"
    assert stable.data["max_displacement_ratio"] < 10.0
    sliding = tilt_probe(sliding_spec(), cfg)
    assert sliding.consistent_with == "Unstable"
    assert sliding.data["max_displacement_ratio"] > cfg.lipschitz_threshold


def test_probe_takes_one_hessian_eigenvalue_solve(monkeypatch):
    calls = []
    orig = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spec = stable_spec()
    result = tilt_probe(spec, ProbeConfig(seed=0))
    assert calls == [(9, 9)]
    assert len(result.data["rows"]) == 19
    # solve_tilted computes its own step, the same one
    X = solve_tilted(spec, np.zeros((3, 3)))
    assert result.data["rows"][0]["solution_displacement"] == float(np.linalg.norm(X - spec.Xbar))


def test_probe_rows_match_single_magnitude_probes():
    # each solve of the lockstep stack is independent of the others: a
    # probe's rows equal the rows of the probes with one magnitude each
    spec = stable_spec()
    cfg = ProbeConfig(seed=4, tilt_magnitudes=(1e-4, 1e-3, 1e-2))
    full = {row["tilt_id"]: row for row in tilt_probe(spec, cfg).data["rows"]}
    for mi, mag in enumerate(cfg.tilt_magnitudes):
        single = tilt_probe(spec, ProbeConfig(seed=4, tilt_magnitudes=(mag,))).data["rows"]
        assert single[0] == full["untilted"]
        for row in single[1:]:
            di = row["tilt_id"].split("_")[0]
            assert row == {**full[f"{di}_m{mi}"], "tilt_id": row["tilt_id"]}


def test_probe_raises_for_the_first_solve_in_order():
    # the untilted solve comes first: its error is the probe's
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    spec = make_quadratic_spec(X, Gamma, 2, np.diag(np.linspace(0.05, 1.0, 9)))
    spec.Xbar = spec.Xbar + 1e-3  # start off the minimizer so no solve stops at once
    cfg = ProbeConfig(seed=0, solver=SolverConfig(max_iters=3))
    with pytest.raises(SolverError) as alone:
        solve_tilted(spec, np.zeros((3, 3)), cfg)
    with pytest.raises(SolverError) as probe:
        tilt_probe(spec, cfg)
    assert str(probe.value) == str(alone.value)


def test_probe_csv_layout():
    out = probe_csv(tilt_probe(stable_spec(), ProbeConfig(seed=1)))
    lines = out.strip().split("\n")
    assert lines[0] == "tilt_id,V_norm,solution_displacement,residual"
    assert len(lines) > 3
    assert all(len(l.split(",")) == 4 for l in lines[1:])
