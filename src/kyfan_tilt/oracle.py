"""Brute-force validators, independent of the closed-form routes.

Three tools: an epi-quotient sampler for second subderivatives, an exact
Ky-Fan proximal map (vector dual bisection + spectral transfer), and a
proximal-gradient tilt probe that solves perturbed problems and estimates
the solution-map modulus.

Everything here is sampling- or solver-based on purpose: the library's
closed forms are validated against these, never the other way round.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral import svd_ordered

__all__ = [
    "QuotientConfig",
    "QuotientResult",
    "d2_quotient_oracle",
    "kyfan_vector_prox",
    "kyfan_matrix_prox",
    "SolverConfig",
    "SolverError",
    "solve_tilted",
    "ProbeConfig",
    "ProbeResult",
    "tilt_probe",
    "probe_csv",
]


# ---------------------------------------------------------------------------
# epi-quotient oracle
# ---------------------------------------------------------------------------


def _default_tau_grid():
    return tuple(np.geomspace(1e-1, 1e-5, 9))


@dataclasses.dataclass
class QuotientConfig:
    """tau_grid must be strictly decreasing; the candidate ball around the
    base direction has radius ball_factor * tau."""

    tau_grid: tuple = dataclasses.field(default_factory=_default_tau_grid)
    ball_factor: float = 2.0
    samples_per_tau: int = 200
    polish_steps: int = 40
    descent_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        taus = np.asarray(self.tau_grid, dtype=float)
        if taus.size == 0 or np.any(taus <= 0) or np.any(np.diff(taus) >= 0):
            raise ValueError("tau_grid must be nonempty, positive, strictly decreasing")
        if self.ball_factor <= 0 or self.samples_per_tau < 1:
            raise ValueError("ball_factor must be positive, samples_per_tau >= 1")


@dataclasses.dataclass
class QuotientResult:
    value: float
    extrapolated: float
    per_tau: list
    divergent: bool
    diagnostics: dict


def d2_quotient_oracle(
    value_fn, x, v, w, cfg: QuotientConfig | None = None, prox_fn=None
) -> QuotientResult:
    """Sampled second-order difference quotient of a convex value_fn.

    For each tau the quotient

        2 * (value_fn(x + tau*w') - value_fn(x) - tau*<v, w'>) / tau**2

    is minimized over w' in the ball of radius ball_factor*tau around w,
    and the two smallest taus are Richardson-extrapolated.  The shrinking
    ball is what makes the minimum track the second subderivative instead
    of collapsing to the global minimizer of the tilted function.

    The per-tau subproblem is the convex program

        min value_fn(Y) - <v, Y>   over  Y in ball(x + tau*w, tau*rho),

    so when prox_fn(Y, t) ~ prox of t*value_fn is supplied it is solved by
    three-operator (Davis-Yin) splitting; otherwise random sampling plus a
    projected pattern search stands in.  Candidates from either route are
    scored through value_fn alone, so a bad prox can only weaken the
    minimum, never fake agreement.  Deterministic for a fixed seed; sample
    seeds are derived by counter.
    """
    cfg = cfg or QuotientConfig()
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    h0 = float(value_fn(x))

    def quotient(tau, wp):
        lin = float(np.sum(v * wp))
        return 2.0 * (float(value_fn(x + tau * wp)) - h0 - tau * lin) / tau**2

    per_tau = []
    for ti, tau in enumerate(cfg.tau_grid):
        rho = cfg.ball_factor * tau
        best_q = quotient(tau, w)
        best_wp = w.copy()
        for si in range(cfg.samples_per_tau):
            rng = np.random.default_rng((cfg.seed, ti, si))
            d = rng.standard_normal(x.shape)
            d /= max(np.linalg.norm(d), 1e-300)
            cand = w + rho * rng.uniform(0.0, 1.0) * d
            q = quotient(tau, cand)
            if q < best_q:
                best_q, best_wp = q, cand
        if prox_fn is not None:
            center = x + tau * w
            radius = tau * rho

            def proj(Y):
                D = Y - center
                nd = float(np.linalg.norm(D))
                return center + D * (radius / nd) if nd > radius else Y

            t = radius
            Z = x + tau * best_wp
            for _ in range(cfg.descent_steps):
                Yg = proj(Z)
                Yf = prox_fn(2.0 * Yg - Z + t * v, t)
                Z = Z + Yf - Yg
                q = quotient(tau, (Yg - x) / tau)
                if q < best_q:
                    best_q, best_wp = q, (Yg - x) / tau
        else:
            step = 0.5 * rho
            for it in range(cfg.polish_steps):
                rng = np.random.default_rng((cfg.seed, ti, 10**6 + it))
                d = rng.standard_normal(x.shape)
                d /= max(np.linalg.norm(d), 1e-300)
                improved = False
                for sgn in (1.0, -1.0):
                    cand = best_wp + sgn * step * d
                    dv = cand - w
                    nd = float(np.linalg.norm(dv))
                    if nd > rho:
                        cand = w + dv * (rho / nd)
                    q = quotient(tau, cand)
                    if q < best_q:
                        best_q, best_wp = q, cand
                        improved = True
                if not improved:
                    step *= 0.7
        per_tau.append((float(tau), float(best_q)))

    qs = [q for _, q in per_tau]
    taus = [t for t, _ in per_tau]
    t1, t2 = taus[-1], taus[-2]
    q1, q2 = qs[-1], qs[-2]
    extrapolated = (t2 * q1 - t1 * q2) / (t2 - t1)
    tail_increasing = len(qs) >= 3 and qs[-1] > qs[-2] > qs[-3]
    divergent = tail_increasing and qs[-1] > 50.0 * (1.0 + abs(qs[0]))
    diagnostics = {
        "monotone_decreasing": bool(all(qs[i + 1] <= qs[i] + 1e-9 * (1 + abs(qs[i])) for i in range(len(qs) - 1))),
        "tail_increasing": bool(tail_increasing),
        "ray_quotient_smallest_tau": quotient(t1, w),
    }
    value = math.inf if divergent else float(extrapolated)
    return QuotientResult(
        value=value,
        extrapolated=float(extrapolated),
        per_tau=per_tau,
        divergent=bool(divergent),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# exact Ky-Fan proximal map
# ---------------------------------------------------------------------------


def _proj_capped_l1(x, cap, budget):
    """Projection onto {y : |y_i| <= cap, sum |y_i| <= budget}."""
    y = np.clip(x, -cap, cap)
    if float(np.sum(np.abs(y))) <= budget * (1 + 1e-15):
        return y
    a = np.abs(x)
    scale = max(1.0, float(np.max(a)))
    lo, hi = 0.0, float(np.max(a))
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        s = float(np.sum(np.minimum(np.maximum(a - lam, 0.0), cap)))
        if s > budget:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-12 * scale:
            break
    lam = 0.5 * (lo + hi)
    return np.sign(x) * np.minimum(np.maximum(a - lam, 0.0), cap)


def kyfan_vector_prox(x, t: float, kappa: int) -> np.ndarray:
    """prox of t * (sum of the kappa largest |x_i|), by Moreau decomposition.

    The conjugate unit ball is B = {y : ||y||_inf <= 1, ||y||_1 <= kappa},
    so prox(x) = x - proj_{t*B}(x); when kappa >= len(x) the l1 cap is
    inactive and this is plain soft-thresholding at t.  The l1 multiplier is
    found by bisection with inner clamping (tolerance 1e-12).
    """
    x = np.asarray(x, dtype=float)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return x - _proj_capped_l1(x, float(t), float(t) * kappa)


def kyfan_matrix_prox(X, t: float, kappa: int) -> np.ndarray:
    """Spectral transfer of the vector prox through the ordered SVD."""
    pair = svd_ordered(np.asarray(X, dtype=float))
    p = kyfan_vector_prox(pair.sigma, t, kappa)
    return pair.U @ np.diag(p) @ pair.V1.T


# ---------------------------------------------------------------------------
# tilted solves and the empirical probe
# ---------------------------------------------------------------------------


class SolverError(RuntimeError):
    pass


@dataclasses.dataclass
class SolverConfig:
    max_iters: int = 5000
    step_rule: str = "lipschitz"
    stop_tol: float = 1e-10


@dataclasses.dataclass
class ProbeConfig:
    delta: float = 1.0
    tilt_magnitudes: tuple = (1e-4, 1e-3, 1e-2)
    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    lipschitz_threshold: float = 100.0
    directions: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.delta <= 0 or any(m <= 0 for m in self.tilt_magnitudes):
            raise ValueError("delta and tilt magnitudes must be positive")
        if self.lipschitz_threshold <= 0:
            raise ValueError("lipschitz_threshold must be positive")


def _solve_tilted(spec, V, delta, solver: SolverConfig):
    """FISTA with function restarts on nu*theta(X) - <V,X> + Psi_kappa(X),
    iterates projected into the delta-ball around Xbar.  Returns the point,
    the prox-gradient residual, and the iteration count."""
    from .subgrad import psi_value

    Xbar = np.asarray(spec.Xbar, dtype=float)
    V = np.asarray(V, dtype=float)
    nu, kappa = spec.nu, spec.kappa
    H = spec.hessian()
    lmax = float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1]) if H.size else 0.0
    L = max(nu * lmax, 1e-12)
    if solver.step_rule == "lipschitz":
        step = 1.0 / L
    else:
        step = float(solver.step_rule)

    def grad_g(X):
        return nu * spec.grad_theta(X) - V

    # Restarts only compare objective differences, so theta is reconstructed
    # up to a constant by the quadratic identity theta(X) = 0.5<grad(X)+grad(0), X> + const.
    g0 = spec.grad_theta(np.zeros_like(Xbar))

    def composite(X):
        quad = 0.5 * float(np.sum((spec.grad_theta(X) + g0) * X))
        return nu * quad - float(np.sum(V * X)) + psi_value(X, kappa)

    def proj_ball(X):
        D = X - Xbar
        nd = float(np.linalg.norm(D))
        if nd > delta:
            return Xbar + D * (delta / nd)
        return X

    def T(X):
        return proj_ball(kyfan_matrix_prox(X - step * grad_g(X), step, kappa))

    X = Xbar.copy()
    Z = Xbar.copy()
    tk = 1.0
    f_prev = composite(X)
    res = math.inf
    for it in range(solver.max_iters):
        Xn = T(Z)
        res = float(np.linalg.norm(Xn - Z)) / step
        fn = composite(Xn)
        if fn > f_prev + 1e-15 * (1 + abs(f_prev)):
            # function restart: drop momentum
            Z = X.copy()
            tk = 1.0
            Xn = T(Z)
            fn = composite(Xn)
            res = float(np.linalg.norm(Xn - Z)) / step
        tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        Z = Xn + ((tk - 1.0) / tn) * (Xn - X)
        X, tk, f_prev = Xn, tn, fn
        fixed_res = float(np.linalg.norm(X - T(X))) / step
        if fixed_res <= solver.stop_tol * (1.0 + float(np.linalg.norm(Xbar))):
            return X, fixed_res, it + 1
    raise SolverError(
        f"proximal gradient did not reach stop_tol={solver.stop_tol:.1e} in "
        f"{solver.max_iters} iterations (residual {res:.3e})"
    )


def solve_tilted(spec, V, cfg: ProbeConfig | None = None) -> np.ndarray:
    """argmin of nu*theta(X) - <V,X> + Psi_kappa(X) over the delta-ball."""
    cfg = cfg or ProbeConfig()
    X, _, _ = _solve_tilted(spec, V, cfg.delta, cfg.solver)
    return X


@dataclasses.dataclass
class ProbeResult:
    consistent_with: str
    data: dict


def tilt_probe(spec, cfg: ProbeConfig | None = None) -> ProbeResult:
    """Empirical single-valued-Lipschitz probe of the local solution map.

    Solves the untilted problem and a grid of tilted ones (antipodal
    direction pairs x magnitudes), then reports the max pairwise ratio of
    solution displacement to tilt displacement.  Ratio below
    lipschitz_threshold is consistent with Stable, above with Unstable.
    Sampling +/-D together matters: a solution that slides only one way
    along a flat direction is missed when every tilt happens to point away
    from it.
    """
    cfg = cfg or ProbeConfig()
    rng = np.random.default_rng(cfg.seed)
    n, m = spec.Xbar.shape
    dirs = []
    for _ in range(cfg.directions):
        D = rng.standard_normal((n, m))
        D /= np.linalg.norm(D)
        dirs.extend([D, -D])
    solves = []  # (tilt_id, V, X, residual)
    X0, res0, _ = _solve_tilted(spec, np.zeros((n, m)), cfg.delta, cfg.solver)
    solves.append(("untilted", np.zeros((n, m)), X0, res0))
    for di, D in enumerate(dirs):
        for mi, mag in enumerate(cfg.tilt_magnitudes):
            V = mag * D
            X, res, _ = _solve_tilted(spec, V, cfg.delta, cfg.solver)
            solves.append((f"d{di}_m{mi}", V, X, res))
    rows = []
    for tilt_id, V, X, res in solves:
        rows.append(
            {
                "tilt_id": tilt_id,
                "V_norm": float(np.linalg.norm(V)),
                "solution_displacement": float(np.linalg.norm(X - spec.Xbar)),
                "residual": float(res),
            }
        )
    max_ratio = 0.0
    worst_pair = None
    for i in range(len(solves)):
        for j in range(i + 1, len(solves)):
            dv = float(np.linalg.norm(solves[i][1] - solves[j][1]))
            if dv <= 0:
                continue
            dx = float(np.linalg.norm(solves[i][2] - solves[j][2]))
            if dx / dv > max_ratio:
                max_ratio = dx / dv
                worst_pair = (solves[i][0], solves[j][0])
    verdict = "Stable" if max_ratio <= cfg.lipschitz_threshold else "Unstable"
    return ProbeResult(
        consistent_with=verdict,
        data={
            "max_displacement_ratio": max_ratio,
            "worst_pair": worst_pair,
            "lipschitz_threshold": cfg.lipschitz_threshold,
            "rows": rows,
        },
    )


def probe_csv(result: ProbeResult) -> str:
    lines = ["tilt_id,V_norm,solution_displacement,residual"]
    for row in result.data["rows"]:
        lines.append(
            f"{row['tilt_id']},{row['V_norm']:.17g},"
            f"{row['solution_displacement']:.17g},{row['residual']:.17g}"
        )
    return "\n".join(lines) + "\n"
