"""Seeded constructors for structured random instances.

Builds (X, Gamma, kappa) triples that satisfy subgradient membership by
construction, spanning the interior-group case and both zero-group cases
with controllable beta1/beta_plus/beta0 composition, plus directions lying
in (or near the boundary of) the critical cone.  These are samplers, not
validators: nothing here evaluates the formulas under test.
"""
from __future__ import annotations

import numpy as np

from .spectral import sym
from .subgrad import INTERIOR_GROUP

__all__ = [
    "random_orthogonal",
    "random_membership_instance",
    "random_incone_direction",
]

INTERIOR = "interior"
ZERO_STRICT = "zero_strict"
ZERO_TIGHT = "zero_tight"


def random_orthogonal(rng, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((0, 0))
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _interior_fractions(rng, count, total):
    """count values in (0.1, 0.9) summing to total (0 < total < count)."""
    for _ in range(50):
        u = rng.uniform(0.2, 0.8, size=count)
        v = u * (total / np.sum(u))
        if np.all(v > 0.05) and np.all(v < 0.95):
            return v
    return np.full(count, total / count)


def _split_sizes(rng, total, parts):
    """parts positive integers summing to total (parts <= total)."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False)) if parts > 1 else np.array([], dtype=int)
    edges = np.concatenate([[0], cuts, [total]])
    return np.diff(edges).astype(int)


def _beta_composition(rng, size, mass, allow_slack):
    """(n1, n_plus, n0, plus_vals): #ones, #fractional, #zeros within a
    block of `size` entries whose values sum to `mass` exactly, or to
    strictly less than `mass` when allow_slack (zero-group strict case)."""
    if allow_slack:
        # total must land well below the budget, each value in (0, 1)
        n1 = int(rng.integers(0, min(size, mass - 1) + 1)) if mass >= 1 else 0
        budget = mass - n1  # >= 1
        n_plus = int(rng.integers(0, size - n1 + 1))
        if n_plus == 0:
            return n1, 0, size - n1, np.zeros(0)
        frac_total = rng.uniform(0.15, 0.85) * min(float(budget), float(n_plus))
        vals = _interior_fractions(rng, n_plus, frac_total)
        return n1, n_plus, size - n1 - n_plus, vals
    for _ in range(50):
        n1 = int(rng.integers(0, min(size, mass) + 1))
        rem = mass - n1
        if rem == 0:
            return n1, 0, size - n1, np.zeros(0)
        if size - n1 <= rem:
            continue  # cannot fit rem strictly-fractional values each < 1
        n_plus = int(rng.integers(rem + 1, size - n1 + 1))
        vals = _interior_fractions(rng, n_plus, float(rem))
        return n1, n_plus, size - n1 - n_plus, vals
    # deterministic fallback: clamp everything
    n1 = min(size, mass)
    return n1, 0, size - n1, np.zeros(0)


def _group_values(rng, s, well_separated):
    gap = 0.5 if well_separated else 0.15
    base = 0.5 if well_separated else 0.3
    vals = base + np.cumsum(gap + rng.uniform(0.0, 1.0, size=s))
    return vals[::-1].copy()  # descending


def random_membership_instance(
    rng,
    n: int | None = None,
    m: int | None = None,
    kappa: int | None = None,
    case: str | None = None,
    well_separated: bool = False,
):
    """Random (X, Gamma, kappa, info) with Gamma in the subdifferential.

    info records the construction: case, group sizes, zero-block size, and
    the beta composition (ones / fractional / zeros).
    """
    if n is None:
        n = int(rng.integers(2, 7))
    if m is None:
        m = int(rng.integers(n, 9))
    if case is None:
        case = [INTERIOR, ZERO_STRICT, ZERO_TIGHT][int(rng.integers(0, 3))]
    if kappa is None:
        if case == INTERIOR:
            kappa = int(rng.integers(1, n + 1)) if n > 1 else 1
        else:
            kappa = int(rng.integers(1, n + 1))
    kappa = int(kappa)

    if case == INTERIOR:
        # positive part must cover kappa
        q = int(rng.integers(kappa, n + 1))
        s = int(rng.integers(1, q + 1))
        sizes = _split_sizes(rng, q, s)
        bounds = np.cumsum(sizes)
        r = int(np.searchsorted(bounds, kappa))  # 0-based group containing kappa
        kappa0 = int(bounds[r - 1]) if r > 0 else 0
        kappa1 = kappa - kappa0
        beta_size = int(sizes[r])
        n1, n_plus, n0, plus_vals = _beta_composition(rng, beta_size, kappa1, allow_slack=False)
        gvals = []
        for l, sz in enumerate(sizes):
            if l < r:
                gvals.extend([1.0] * sz)
            elif l == r:
                gvals.extend([1.0] * n1)
                gvals.extend(sorted(plus_vals, reverse=True))
                gvals.extend([0.0] * n0)
            else:
                gvals.extend([0.0] * sz)
        gvals.extend([0.0] * (n - q))
        group_vals = _group_values(rng, s, well_separated)
        sigma = np.concatenate([np.full(sz, gv) for sz, gv in zip(sizes, group_vals)] + [np.zeros(n - q)])
        info = {
            "case": INTERIOR,
            "sizes": sizes.tolist(),
            "zero_block": n - q,
            "r": r + 1,
            "beta_composition": (n1, n_plus, n0),
        }
    else:
        # zero-group cases: kappa exceeds the positive count q
        q = int(rng.integers(0, kappa))
        nz = n - q
        kappa1 = kappa - q
        assert 1 <= kappa1 <= nz  # q < kappa <= n
        n1, n_plus, n0, plus_vals = _beta_composition(
            rng, nz, kappa1, allow_slack=case == ZERO_STRICT
        )
        if q > 0:
            sizes = _split_sizes(rng, q, int(rng.integers(1, q + 1)))
        else:
            sizes = np.array([], dtype=int)
        group_vals = _group_values(rng, len(sizes), well_separated)
        sigma = np.concatenate(
            [np.full(sz, gv) for sz, gv in zip(sizes, group_vals)] + [np.zeros(nz)]
        ) if len(sizes) else np.zeros(n)
        gvals = [1.0] * q
        gvals.extend([1.0] * n1)
        gvals.extend(sorted(plus_vals, reverse=True))
        gvals.extend([0.0] * n0)
        info = {
            "case": case,
            "sizes": sizes.tolist(),
            "zero_block": nz,
            "r": len(sizes) + 1,
            "beta_composition": (n1, n_plus, n0),
        }
    gvals = np.asarray(gvals, dtype=float)
    U = random_orthogonal(rng, n)
    V = random_orthogonal(rng, m)
    X = U @ np.diag(sigma) @ V[:, :n].T
    Gamma = U @ np.diag(gvals) @ V[:, :n].T
    return X, Gamma, kappa, info


def _shifted_sym(rng, k, floor=None, ceil=None):
    """Random symmetric k x k with eigenvalues above floor / below ceil."""
    S = sym(rng.standard_normal((k, k)))
    if k == 0:
        return S
    w = np.linalg.eigvalsh(S)
    if floor is not None:
        S = S + (floor - w[0] + abs(rng.normal(0, 0.5))) * np.eye(k)
    if ceil is not None:
        S = S + (ceil - w[-1] - abs(rng.normal(0, 0.5))) * np.eye(k)
    return S


def random_incone_direction(rng, cert) -> np.ndarray:
    """Random W in the critical cone of the certificate's (X, Gamma)."""
    pair = cert.pair
    n, m = pair.n, pair.m
    H = rng.standard_normal((n, m))
    b1, bp, b0 = cert.beta1, cert.beta_plus, cert.beta0
    beta = cert.beta
    if cert.case == INTERIOR_GROUP:
        varpi = float(rng.normal(0, 1))
        S1 = _shifted_sym(rng, len(b1), floor=varpi)
        S0 = _shifted_sym(rng, len(b0), ceil=varpi)
        B = H[np.ix_(beta, beta)]
        K = 0.5 * (B - B.T)  # keep a random skew part, rebuild the sym part
        Snew = np.zeros((len(beta), len(beta)))
        loc = {int(i): k for k, i in enumerate(beta)}
        i1 = [loc[int(i)] for i in b1]
        ip = [loc[int(i)] for i in bp]
        i0 = [loc[int(i)] for i in b0]
        if len(i1):
            Snew[np.ix_(i1, i1)] = S1
        if len(ip):
            Snew[np.ix_(ip, ip)] = varpi * np.eye(len(ip))
        if len(i0):
            Snew[np.ix_(i0, i0)] = S0
        H[np.ix_(beta, beta)] = Snew + K
    else:
        # zero cases constrain the whole beta row block over cols beta and c
        H[np.ix_(beta, beta)] = 0.0
        H[np.ix_(beta, np.arange(n, m))] = 0.0
        tight = cert.case != INTERIOR_GROUP and cert.tight
        if tight:
            varpi = abs(float(rng.normal(0, 1))) + 0.1
            S1 = _shifted_sym(rng, len(b1), floor=varpi)
            if len(b1):
                H[np.ix_(b1, b1)] = S1
            if len(bp):
                H[np.ix_(bp, bp)] = varpi * np.eye(len(bp))
            if len(b0):
                cols0 = np.concatenate([b0, np.arange(n, m)]).astype(int)
                DE = rng.standard_normal((len(b0), len(cols0)))
                s1 = np.linalg.svd(DE, compute_uv=False)[0]
                DE *= rng.uniform(0.1, 0.9) * varpi / max(s1, 1e-300)
                H[np.ix_(b0, cols0)] = DE
        else:
            S1 = _shifted_sym(rng, len(b1), floor=0.0)
            if len(b1):
                H[np.ix_(b1, b1)] = S1
    return pair.U @ H @ pair.V.T
