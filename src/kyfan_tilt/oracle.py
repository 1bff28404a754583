"""Brute-force validators, independent of the closed-form routes.

Three tools: a shrinking-ball difference-quotient oracle for second
subderivatives, an exact Ky-Fan proximal map (the vector prox from the
breakpoints of its dual projection, transferred through the SVD), and a
proximal-gradient tilt probe that solves perturbed problems and estimates
the solution-map modulus.

Everything here is solver-based on purpose: the library's closed forms are
validated against these, never the other way round.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "QuotientResult",
    "d2_quotient_oracle",
    "kyfan_vector_prox",
    "kyfan_matrix_prox",
    "SolverError",
    "ProbeResult",
    "tilt_probe",
    "probe_csv",
]


# ---------------------------------------------------------------------------
# epi-quotient oracle
# ---------------------------------------------------------------------------


# the quotient oracle's strictly decreasing tau grid; the candidate ball
# around the base direction has radius _BALL_FACTOR * tau, and
# _DESCENT_STEPS caps each tau's Davis-Yin descent, which stops earlier at
# its fixed point.  The oracles read their constants at call time
_TAU_GRID = tuple(np.geomspace(1e-1, 1e-5, 9))
_BALL_FACTOR = 2.0
_DESCENT_STEPS = 200


@dataclasses.dataclass
class QuotientResult:
    value: float
    per_tau: list
    divergent: bool


def _norms(D):
    """Frobenius norm of each matrix of the stack D (k, n, m), rounded as
    np.linalg.norm rounds one matrix: the square root of a dot of the
    raveled matrix."""
    k = len(D)
    return np.sqrt((D.reshape(k, 1, -1) @ D.reshape(k, -1, 1))[:, 0, 0])


def _inner(A, B):
    """<A_i, B_i> for each matrix of the stack A * B, summed as np.sum sums
    one matrix (pairwise, over the raveled matrix)."""
    P = A * B
    return np.sum(P.reshape(len(P), -1), axis=-1)


# stop rule of the quotient oracle's descent (see d2_quotient_oracle); the
# residual of the tau = 1e-5 ball (radius 2e-10) bottoms out at a few eps*||x||
_STOP_REL = 1e-6
_STOP_ULPS = 16.0
_EPS = float(np.finfo(float).eps)


def _proj_ball(Y, centre, radius):
    """Projection of each matrix of the stack Y onto the ball of its radius
    (scalar or one per matrix) around centre."""
    D = Y - centre
    nd = _norms(D)
    out = nd > radius
    scale = radius / np.where(out, nd, radius)
    return np.where(out[:, None, None], centre + D * scale[:, None, None], Y)


def d2_quotient_oracle(value_fn, x, v, w, *, prox_fn) -> QuotientResult:
    """Shrinking-ball second-order difference quotient of a convex value_fn.

    For each tau the quotient

        2 * (value_fn(x + tau*w') - value_fn(x) - tau*<v, w'>) / tau**2

    is minimized over w' in the ball of radius _BALL_FACTOR*tau around w,
    and the two smallest taus are Richardson-extrapolated.  The shrinking
    ball is what makes the minimum track the second subderivative instead
    of collapsing to the global minimizer of the tilted function.

    The per-tau subproblem is the convex program

        min value_fn(Y) - <v, Y>   over  Y in ball(x + tau*w, _BALL_FACTOR*tau**2),

    solved by three-operator (Davis-Yin) splitting from the ball centre,
    with step _BALL_FACTOR*tau (the radius over tau) and prox_fn(Y, t) ~
    prox of t*value_fn.  In the coordinates w' = (Y - x)/tau the quotient
    has O(1) slope and the ball radius _BALL_FACTOR*tau, so that step is a
    fixed fraction of the ball at every tau.  A tau's descent stops at its
    fixed point, once the residual ||Yf - Yg|| is at or below
    max(1e-6 * radius, 16 * eps * ||centre||) (the second term is the
    rounding floor of the small balls), or after _DESCENT_STEPS steps.  The
    centre and every iterate are scored through value_fn alone, so a bad
    prox can only weaken the minimum, never fake agreement.  Nothing is
    sampled: the result is a function of the inputs.

    Both callables take stacks: value_fn(Y) maps Y of shape (k, n, m) to
    its k values, and prox_fn(Y, t) maps Y with steps t of shape (k,) to
    the k proximal points.  The taus run in lockstep, one stack row each:
    value_fn scores x alone, then the centres, then every Davis-Yin step
    makes one ball projection, one prox_fn call and one value_fn call
    over the taus still descending.  A tau leaves the stack when it stops,
    so each row's result is the one its tau gives alone.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    h0 = float(np.asarray(value_fn(x[None]), dtype=float)[0])
    tau = np.array(_TAU_GRID, dtype=float)
    # squared one scalar at a time: np.float64 ** 2 and the array square
    # round differently on some values
    tau2 = np.array([t**2 for t in _TAU_GRID], dtype=float)
    T = tau[:, None, None]

    def quotient(rows, wp):
        lin = _inner(v, wp)
        val = np.asarray(value_fn(x + T[rows] * wp), dtype=float)
        return 2.0 * (val - h0 - tau[rows] * lin) / tau2[rows]

    center = x + T * w
    step = _BALL_FACTOR * tau
    radius = tau * step
    stop = np.maximum(_STOP_REL * radius, _STOP_ULPS * _EPS * _norms(center))
    live = np.arange(len(tau))
    best = quotient(live, np.broadcast_to(w, center.shape))
    Z = center
    for _ in range(_DESCENT_STEPS):
        Yg = _proj_ball(Z, center[live], radius[live])
        Yf = prox_fn(2.0 * Yg - Z + step[live, None, None] * v, step[live])
        Z = Z + Yf - Yg
        q = quotient(live, (Yg - x) / T[live])
        best[live] = np.where(q < best[live], q, best[live])
        going = _norms(Yf - Yg) > stop[live]
        if not going.all():
            live, Z = live[going], Z[going]
            if not live.size:
                break
    per_tau = [(float(t), float(q)) for t, q in zip(tau, best)]

    qs = [q for _, q in per_tau]
    (t2, q2), (t1, q1) = per_tau[-2], per_tau[-1]
    extrapolated = (t2 * q1 - t1 * q2) / (t2 - t1)
    tail_increasing = len(qs) >= 3 and qs[-1] > qs[-2] > qs[-3]
    divergent = tail_increasing and qs[-1] > 50.0 * (1.0 + abs(qs[0]))
    value = math.inf if divergent else float(extrapolated)
    return QuotientResult(value=value, per_tau=per_tau, divergent=bool(divergent))


# ---------------------------------------------------------------------------
# exact Ky-Fan proximal map
# ---------------------------------------------------------------------------


def _searchsorted_rows(a, v, side):
    """np.searchsorted(a[r], v[r], side) for every row r of a, whose rows
    are sorted.  Keyed as complex (row, value), which numpy orders
    lexicographically, all rows make one flat sorted array and one search."""
    r = np.arange(len(a))[:, None]
    ka, kv = np.empty(a.shape, complex), np.empty(v.shape, complex)
    ka.real, ka.imag, kv.real, kv.imag = r, a, r, v
    return np.searchsorted(ka.ravel(), kv.ravel(), side).reshape(v.shape) - r * a.shape[1]


def _proj_capped_l1(x, cap, budget):
    """Projection of each row x_r of x (rows, k) onto
    {y : |y_i| <= cap_r, sum |y_i| <= budget_r}.

    When the l1 cap binds, y = sign(x) * clip(|x| - lam, 0, cap) with the
    multiplier lam >= 0 solving s(lam) = budget, where
    s(lam) = sum clip(|x_i| - lam, 0, cap) is nonincreasing and piecewise
    linear with kinks at |x_i| and |x_i| - cap.  s is evaluated at every
    kink from sorted prefix sums, and lam is interpolated on the one piece
    where s crosses the budget: O(k log k) per row, no iteration.
    """
    c = cap[:, None]
    y = np.clip(x, -c, c)
    over = np.sum(np.abs(y), axis=1) > budget * (1 + 1e-15)
    if not over.any():
        return y
    x, c, budget = x[over], c[over], budget[over, None]
    a = np.abs(x)
    srt = np.sort(a, axis=1)
    prefix = np.concatenate((np.zeros((len(a), 1)), np.cumsum(srt, axis=1)), axis=1)
    knots = np.sort(np.concatenate((srt - c, srt), axis=1), axis=1)
    lo = _searchsorted_rows(srt, knots, "right")  # a_i <= lam: clipped to 0
    hi = _searchsorted_rows(srt, knots + c, "left")  # a_i >= lam + cap: capped
    r = np.arange(len(a))[:, None]
    s = c * (srt.shape[1] - hi) + (prefix[r, hi] - prefix[r, lo]) - knots * (hi - lo)
    # s is k * cap >= s(0) > budget at the first kink and 0 at the last, so
    # the crossing lies at some lam > 0; j == 0 only by rounding
    j = np.argmax(s <= budget, axis=1)[:, None]
    jm = np.maximum(j - 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = knots[r, jm] + (s[r, jm] - budget) / (s[r, jm] - s[r, j]) * (
            knots[r, j] - knots[r, jm]
        )
    proj = np.sign(x) * np.minimum(np.maximum(a - lam, 0.0), c)
    y[over] = np.where(j > 0, proj, y[over])
    return y


def kyfan_vector_prox(x, t, kappa: int) -> np.ndarray:
    """prox of t * (sum of the kappa largest |x_i|), by Moreau decomposition.

    The conjugate unit ball is B = {y : ||y||_inf <= 1, ||y||_1 <= kappa},
    so prox(x) = x - proj_{t*B}(x); when kappa >= len(x) the l1 cap is
    inactive and this is plain soft-thresholding at t.  The projection is
    exact: its l1 multiplier is read off the breakpoints of a piecewise
    linear equation (Wu, Ding, Sun & Toh, SIAM J. Optim. 24(2), 2014).

    x may carry leading axes (..., k); t is a scalar or one step per
    vector, broadcast to x.shape[:-1].
    """
    x = np.asarray(x, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1]).reshape(-1)
    if np.any(t <= 0):
        raise ValueError(f"t must be positive, got {t.min()}")
    rows = x.reshape(-1, x.shape[-1])
    return (rows - _proj_capped_l1(rows, t, t * kappa)).reshape(x.shape)


def kyfan_matrix_prox(X, t, kappa: int) -> np.ndarray:
    """Spectral transfer of the vector prox through a reduced SVD.

    X is one matrix or a stack (..., n, m), with t a scalar or one step per
    matrix; the stack takes one np.linalg.svd call.  The prox depends only
    on the singular subspaces, not on the signs or the basis chosen inside
    a repeated singular value, so no sign convention is needed."""
    U, sigma, Vt = np.linalg.svd(np.asarray(X, dtype=float), full_matrices=False)
    p = kyfan_vector_prox(sigma, t, kappa)
    return U @ (p[..., :, None] * Vt)


# ---------------------------------------------------------------------------
# tilted solves and the empirical probe
# ---------------------------------------------------------------------------


class SolverError(RuntimeError):
    pass


# the probe's tilted solves: FISTA iterates stay in the _DELTA-ball around
# Xbar and stop at a fixed-point residual of _STOP_TOL * (1 + ||Xbar||), or
# fail after _MAX_ITERS iterations.  The probe tilts along _DIRECTIONS
# antipodal pairs of unit directions at each of _TILT_MAGNITUDES; a
# displacement ratio above _LIPSCHITZ_THRESHOLD reads as Unstable
_DELTA = 1.0
_MAX_ITERS = 5000
_STOP_TOL = 1e-10
_DIRECTIONS = 3
_TILT_MAGNITUDES = (1e-4, 1e-3, 1e-2)
_LIPSCHITZ_THRESHOLD = 100.0


def _hessian_lmax(spec) -> float:
    """lambda_max of the symmetrized Hessian of theta (0 when nm = 0)."""
    H = spec.hessian()
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1]) if H.size else 0.0


def _solve_tilted(spec, V, lmax: float):
    """FISTA with function restarts on nu*theta(X) - <V_r,X> + Psi_kappa(X)
    for each tilt V_r of the stack V (k, n, m), iterates projected into the
    _DELTA-ball around Xbar; lmax is _hessian_lmax(spec), passed in so that
    a probe computes it once.

    The solves advance in lockstep, one stack row each, with momentum,
    restarts and the fixed-point stop kept per row; a row leaves the stack
    when it stops.  Returns the points and their prox-gradient residuals,
    one per tilt.  SolverError names the first tilt, in stack order, that
    exhausts _MAX_ITERS."""
    from .subgrad import psi_value

    Xbar = np.asarray(spec.Xbar, dtype=float)
    V = np.asarray(V, dtype=float)
    nu, kappa = spec.nu, spec.kappa
    step = 1.0 / max(nu * lmax, 1e-12)

    # Restarts only compare objective differences, so theta is reconstructed
    # up to a constant by the quadratic identity theta(X) = 0.5<grad(X)+grad(0), X> + const.
    g0 = spec.grad_theta(np.zeros_like(Xbar))

    def composite(X, V):
        quad = 0.5 * _inner(spec.grad_theta(X) + g0, X)
        return nu * quad - _inner(V, X) + psi_value(X, kappa)

    def T(X, V):
        G = nu * spec.grad_theta(X) - V
        return _proj_ball(kyfan_matrix_prox(X - step * G, step, kappa), Xbar, _DELTA)

    k = len(V)
    X_out, res_out = np.empty_like(V), np.empty(k)
    live = np.arange(k)
    X = np.broadcast_to(Xbar, V.shape).copy()
    Z = X.copy()
    tk = np.ones(k)
    f_prev = composite(X, V)
    res = np.full(k, math.inf)
    tol = _STOP_TOL * (1.0 + float(np.linalg.norm(Xbar)))
    for _ in range(_MAX_ITERS):
        Xn = T(Z, V)
        res = _norms(Xn - Z) / step
        fn = composite(Xn, V)
        r = fn > f_prev + 1e-15 * (1 + np.abs(f_prev))
        if r.any():
            # function restart: drop momentum
            Z[r] = X[r]
            tk[r] = 1.0
            Xn[r] = T(Z[r], V[r])
            fn[r] = composite(Xn[r], V[r])
            res[r] = _norms(Xn[r] - Z[r]) / step
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        Z = Xn + ((tk - 1.0) / tn)[:, None, None] * (Xn - X)
        X, tk, f_prev = Xn, tn, fn
        fixed_res = _norms(X - T(X, V)) / step
        done = fixed_res <= tol
        if done.any():
            X_out[live[done]], res_out[live[done]] = X[done], fixed_res[done]
            keep = ~done
            live, X, Z, V, tk, f_prev, res = (a[keep] for a in (live, X, Z, V, tk, f_prev, res))
            if not live.size:
                return X_out, res_out
    raise SolverError(
        f"proximal gradient did not reach stop_tol={_STOP_TOL:.1e} in "
        f"{_MAX_ITERS} iterations (residual {float(res[0]):.3e})"
    )


@dataclasses.dataclass
class ProbeResult:
    consistent_with: str
    data: dict


def tilt_probe(spec, seed=0) -> ProbeResult:
    """Empirical single-valued-Lipschitz probe of the local solution map.

    Solves the untilted problem and a grid of tilted ones (antipodal
    direction pairs x magnitudes), then reports the max pairwise ratio of
    solution displacement to tilt displacement.  Ratio below
    _LIPSCHITZ_THRESHOLD is consistent with Stable, above with Unstable.
    Sampling +/-D together matters: a solution that slides only one way
    along a flat direction is missed when every tilt happens to point away
    from it.  seed draws the directions.
    """
    rng = np.random.default_rng(seed)
    n, m = spec.Xbar.shape
    dirs = []
    for _ in range(_DIRECTIONS):
        D = rng.standard_normal((n, m))
        D /= np.linalg.norm(D)
        dirs.extend([D, -D])
    tilts = [("untilted", np.zeros((n, m)))]
    for di, D in enumerate(dirs):
        for mi, mag in enumerate(_TILT_MAGNITUDES):
            tilts.append((f"d{di}_m{mi}", mag * D))
    Vs = np.stack([V for _, V in tilts])
    Xs, res = _solve_tilted(spec, Vs, _hessian_lmax(spec))
    solves = [(tid, V, X, r) for (tid, V), X, r in zip(tilts, Xs, res)]
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
    verdict = "Stable" if max_ratio <= _LIPSCHITZ_THRESHOLD else "Unstable"
    return ProbeResult(
        consistent_with=verdict,
        data={
            "max_displacement_ratio": max_ratio,
            "worst_pair": worst_pair,
            "lipschitz_threshold": _LIPSCHITZ_THRESHOLD,
            "rows": rows,
        },
    )


def probe_csv(rows) -> str:
    """The probe's rows (ProbeResult.data["rows"]) as CSV text."""
    lines = ["tilt_id,V_norm,solution_displacement,residual"]
    for row in rows:
        lines.append(
            f"{row['tilt_id']},{row['V_norm']:.17g},"
            f"{row['solution_displacement']:.17g},{row['residual']:.17g}"
        )
    return "\n".join(lines) + "\n"
