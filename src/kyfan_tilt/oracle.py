"""Brute-force validators, independent of the closed-form routes.

Three tools: a Moreau-envelope oracle for second subderivatives, which reads
d2 from differences of the proximal map alone, an exact Ky-Fan proximal map
(the vector prox from the breakpoints of its dual projection, transferred
through the SVD), and a tilt probe that reads the second-order form of the
problem from the prox map's Jacobian at a steered graph point and at a few
uniform ones.

Everything here is built on the prox map alone on purpose, and imports no
other module of the package: the library's closed forms are validated
against these, never the other way round.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "prox_differences",
    "d2_envelope_oracle",
    "kyfan_vector_prox",
    "kyfan_matrix_prox",
    "tilt_probe",
]


# ---------------------------------------------------------------------------
# Moreau-envelope oracle
# ---------------------------------------------------------------------------


def _inner(A, B):
    """<A_i, B_i> for each matrix of the stack A * B, summed as np.sum sums
    one matrix (pairwise, over the raveled matrix)."""
    P = A * B
    return np.sum(P.reshape(len(P), -1), axis=-1)


def _spectral_scale(x):
    """(s_1, g) of the matrix x: its largest singular value, and the
    smallest of its positive singular values and positive gaps between them
    (ties below 1e-10 * max(1, s_1)), 1.0 when there is none."""
    s = np.linalg.svd(x, compute_uv=False)
    s1 = float(s[0])
    scales = np.concatenate((s, -np.diff(s)))
    scales = scales[scales > 1e-10 * max(1.0, s1)]
    return s1, (float(scales.min()) if scales.size else 1.0)


def prox_differences(Y, lam, D, *, prox_fn):
    """prox_fn(Y_i + D_i, lam_i) - prox_fn(Y_i, lam_i) for each row i of the
    stacks Y and D (k, n, m), with steps lam (k,): one prox_fn call on 2k
    rows."""
    k = len(D)
    P = prox_fn(np.concatenate((Y, Y + D)), np.concatenate((lam, lam)))
    return P[k:] - P[:k]


def d2_envelope_oracle(x, v, w, *, prox_fn):
    """Second subderivative d2 Psi(x | v)(w) of a convex Psi, read from the
    gradient of its Moreau envelope; returns (value, divergent).

    With P the prox of lam*Psi, the envelope's gradient is (Y - P(Y))/lam,
    and at Y = x + lam*v

        h(lam) = <t*w - (P(Y + t*w) - P(Y)), w> / (lam * t)

    is its difference quotient along w, which rises to d2 Psi(x | v)(w) as
    lam and t/lam fall to 0 (Rockafellar & Wets, Variational Analysis,
    ch. 13; Poliquin & Rockafellar 1996).  It is read at the four steps
    lam_k = 1e-2 * g * 10**(-k/2), with t_k = 0.1 * lam_k / ||w|| and
    (s_1, g) = _spectral_scale(x), so that Y keeps x's singular structure.
    The value is the Richardson extrapolation to lam = 0 of the first two
    h(lam_k), h being affine in lam to first order: the rounding error of h
    grows like 1/lam**2, so the largest steps read d2 best.

    Outside the domain of d2, lam*h(lam) tends to the squared distance of
    w to it; inside it falls like lam.  The smallest steps tell the two
    apart best: the reading is divergent (value +inf) when lam*h,
    extrapolated to lam = 0 from the last two steps, keeps more than a
    quarter of its last value, and that value stands above its rounding
    floor 1e3 * eps * (1 + s_1) * ||w|| / t.

    prox_fn(Y, t) maps a stack Y (k, n, m) with steps t (k,) to the k
    proximal points.  It is the only callable, called once on 8 rows, and
    nothing is sampled.  h is 2-homogeneous in w, since t scales with
    1/||w||; w = 0 reads (0.0, False).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    nw = float(np.linalg.norm(w))
    if nw == 0:
        return 0.0, False
    s1, g = _spectral_scale(x)
    lam = 1e-2 * g * 10.0 ** (-np.arange(4) / 2)
    t = 0.1 * lam / nw
    T = t[:, None, None]
    dP = prox_differences(x + lam[:, None, None] * v, lam, T * w, prox_fn=prox_fn)
    h = _inner(T * w - dP, w) / (lam * t)

    def at_zero(y, k):  # the line through rows k and k + 1 of (lam, y), read at lam = 0
        return (lam[k] * y[k + 1] - lam[k + 1] * y[k]) / (lam[k] - lam[k + 1])

    a = lam * h
    floor = 1e3 * np.finfo(float).eps * (1.0 + s1) * nw / t[-1]
    if at_zero(a, 2) > 0.25 * a[-1] and a[-1] > floor:
        return math.inf, True
    return float(at_zero(h, 0)), False


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
# the steered prox-Jacobian probe
# ---------------------------------------------------------------------------

# floats in one chunk of the probe's stacked prox calls, two n x m per difference
_STACK_FLOATS = 1 << 20
# uniform (Minty) points read besides the steered one
_MINTY_POINTS = 3
# Jacobian eigenvalues at or below this are normal directions (infinite curvature)
_JACOBIAN_CUT = 1e-6


def tilt_probe(spec, steer, seed=0) -> dict:
    """Second-order test of tilt stability from prox differences alone:
    {"consistent_with": "Stable" or "Unstable", "mu_min", "mu_cut",
    "epsilon", "prox_residual", "rows"}, one row per reading.

    Tilt stability is positive definiteness of <nu*H W, W> + d2 Psi at the
    graph points near (Xbar, Gamma_bar) (Poliquin & Rockafellar 1998).  At
    a graph point Y = X + Gamma the prox P of Psi_kappa (step 1) has
    P(Y) = X, and an eigenpair (j, E) of its symmetrized Jacobian with j > 0
    carries the curvature (1 - j) / j of Psi.  A reading at Y is
    mu = lambda_min(E^T nu*H E + diag((1 - j) / j)) over the eigenpairs with
    j > _JACOBIAN_CUT (+inf when none), the Jacobian being the central
    difference of P with step h, one column per coordinate.

    The readings are taken at Y' = X' + Gamma_bar, X' = Xbar + eps * steer,
    off the kink of P at Xbar + Gamma_bar, and at _MINTY_POINTS points
    Xbar + Gamma_bar + eps * R / ||R||, R from default_rng(seed), with
    eps = 1e-4 * g (the envelope oracle's scale of Xbar) and h = 1e-3 * eps.
    steer (U diag(s) V^T on the certificate's pair, data from the caller)
    must keep Gamma_bar a subgradient at X': ValueError when P(Y') misses X'
    by more than h.  The prox rows go through prox_differences in chunks of
    _STACK_FLOATS floats.  The probe reads Unstable when min mu <= mu_cut =
    100 * eps_mach * (1 + ||Y'||) / h * max(1, nu * ||H||_F), the rounding
    of a prox value over h, times nu * ||H||; Stable otherwise.
    """
    Xbar = np.asarray(spec.Xbar, dtype=float)
    n, m = Xbar.shape
    nm, kappa = n * m, spec.kappa
    Gamma, nuH = spec.gamma_bar(), spec.nu * np.asarray(spec.hessian(), dtype=float)
    eps = 1e-4 * _spectral_scale(Xbar)[1]
    h = 1e-3 * eps
    Xs = Xbar + eps * np.asarray(steer, dtype=float)
    residual = float(np.linalg.norm(kyfan_matrix_prox(Xs + Gamma, 1.0, kappa) - Xs))
    if not residual <= h:
        raise ValueError(f"steered point off the graph: prox residual {residual:.3e} > h = {h:.3e}")
    R = np.random.default_rng(seed).standard_normal((_MINTY_POINTS, n, m))
    R *= eps / np.linalg.norm(R.reshape(_MINTY_POINTS, -1), axis=1)[:, None, None]
    points = np.concatenate(((Xs + Gamma)[None], Xbar + Gamma + R))

    # row i of the stack differences P across point i // nm along coordinate i % nm
    total, step = len(points) * nm, max(1, _STACK_FLOATS // (2 * nm))
    dP = np.empty((total, nm))
    for lo in range(0, total, step):
        i = np.arange(lo, min(lo + step, total))
        D = np.zeros((len(i), n, m))
        D.reshape(len(i), nm)[np.arange(len(i)), i % nm] = 2.0 * h
        dP[i] = prox_differences(
            points[i // nm] - 0.5 * D, np.ones(len(i)), D,
            prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, kappa),
        ).reshape(len(i), nm)
    J = dP.reshape(len(points), nm, nm) / (2.0 * h)
    # sym J is PSD up to rounding: its singular triplets with u.v > 0 are its eigenpairs
    # (with two BLAS threads on a busy host, eigh of this stack took 45-90 ms, svd 0.7 ms)
    E, j, Vt = np.linalg.svd(0.5 * (J + J.transpose(0, 2, 1)))
    j *= np.sign(np.einsum("rik,rki->rk", E, Vt))
    rows = []
    for name, jr, Er in zip(["steered"] + [f"minty{k}" for k in range(_MINTY_POINTS)], j, E):
        keep = jr > _JACOBIAN_CUT
        M = Er[:, keep].T @ nuH @ Er[:, keep] + np.diag((1.0 - jr[keep]) / jr[keep])
        mu = float(np.linalg.eigvalsh(M)[0]) if keep.any() else math.inf
        rows.append({"point": name, "mu": mu, "rank": int(keep.sum())})
    mu_min = min(row["mu"] for row in rows)
    scale = (1.0 + float(np.linalg.norm(points[0]))) * max(1.0, float(np.linalg.norm(nuH)))
    mu_cut = 100.0 * np.finfo(float).eps * scale / h
    return {
        "consistent_with": "Unstable" if mu_min <= mu_cut else "Stable",
        "mu_min": mu_min,
        "mu_cut": mu_cut,
        "epsilon": eps,
        "prox_residual": residual,
        "rows": rows,
    }
