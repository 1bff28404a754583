"""Ky-Fan sum of the k largest eigenvalues of a symmetric matrix.

phi_k(Z) = lambda_1(Z) + ... + lambda_k(Z).  Closed-form subdifferential,
directional derivative and second subderivative, all expressed through the
tolerance-grouped eigendecomposition of Z.  Everything here is the
symmetric-matrix engine that the rectangular results are reduced to through
the symmetric embedding.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .spectral import EigenGrouping, eigen_grouped, sym

__all__ = [
    "PhiSubgradCert",
    "SecondSubderivValue",
    "phi_value",
    "phi_subdiff_membership",
    "phi_dir_deriv",
    "phi_second_subderiv",
]

IN_CONE = "InCone"
OUTSIDE = "OutsideCriticalCone"


@dataclasses.dataclass
class PhiSubgradCert:
    """Witness that S lies in the subdifferential of phi_k at Z.

    theta_blocks are the eigenvector blocks Q_{theta_1}..Q_{theta_{r-1}}
    carrying weight one, r is the 1-based critical group index, and xi are
    the eigenvalues of the critical block of S in the critical eigenspace
    (an element of the capped simplex with mass l_k(Z)).
    """

    theta_blocks: list
    r: int
    xi: np.ndarray
    mass: float


@dataclasses.dataclass
class SecondSubderivValue:
    """Extended-real second subderivative value with provenance.

    value is a float, possibly math.inf.  reason is "InCone" exactly when
    value is finite.  terms itemizes the contributions (one entry per
    summand family of the closed form used).
    """

    value: float
    reason: str
    terms: dict

    def __post_init__(self):
        finite = math.isfinite(self.value)
        if finite != (self.reason == IN_CONE):
            raise ValueError("finite value must pair with reason InCone")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def _grouping_for(Z, kappa, tols):
    eg = eigen_grouped(Z, tols=tols)
    p = Z.shape[0]
    if not (1 <= kappa <= p):
        raise ValueError(f"kappa must be in [1, {p}], got {kappa}")
    r = eg.group_index_of(kappa - 1)
    before = sum(len(eg.theta[j]) for j in range(r - 1))
    mass = kappa - before  # l_kappa(Z): position of kappa inside its group
    return eg, r, mass


def phi_value(Z: np.ndarray, kappa: int) -> float:
    """Sum of the kappa largest eigenvalues."""
    Z = sym(np.asarray(Z, dtype=float))
    p = Z.shape[0]
    if not (1 <= kappa <= p):
        raise ValueError(f"kappa must be in [1, {p}], got {kappa}")
    lam = np.linalg.eigvalsh(Z)[::-1]
    return float(np.sum(lam[:kappa]))


def phi_subdiff_membership(
    Z: np.ndarray,
    S: np.ndarray,
    kappa: int,
    tols: Tolerances = DEFAULT_TOLS,
):
    """Decide S in subdiff phi_k(Z) and produce a certificate.

    S belongs to the subdifferential iff, in the grouped eigenbasis of Z,
    S = sum_{l<r} Q_l Q_l^T + Q_r W Q_r^T with W symmetric, 0 <= W <= I and
    tr W = l_k(Z).  Residuals are compared with tols.subdiff.  Returns
    (bool, PhiSubgradCert | None).
    """
    tol = tols.subdiff
    Z = np.asarray(Z, dtype=float)
    S = np.asarray(S, dtype=float)
    if np.linalg.norm(S - S.T) > tol * max(1.0, np.linalg.norm(S)):
        return False, None
    eg, r, mass = _grouping_for(Z, kappa, tols)
    R = S.copy()
    for j in range(r - 1):
        Qj = eg.Q[:, eg.theta[j]]
        R = R - Qj @ Qj.T
    Qr = eg.Q[:, eg.theta[r - 1]]
    W = Qr.T @ R @ Qr
    resid = np.linalg.norm(R - Qr @ W @ Qr.T)
    if resid > tol:
        return False, None
    w = np.linalg.eigvalsh(sym(W))[::-1]
    if len(w) and (w[0] > 1 + tol or w[-1] < -tol):
        return False, None
    if abs(float(np.trace(W)) - mass) > max(tol, tols.sum_rel * kappa):
        return False, None
    cert = PhiSubgradCert(
        theta_blocks=[eg.Q[:, eg.theta[j]] for j in range(r - 1)],
        r=r,
        xi=np.clip(w, 0.0, 1.0),
        mass=float(mass),
    )
    return True, cert


def phi_dir_deriv(Z: np.ndarray, H: np.ndarray, kappa: int,
                  tols: Tolerances = DEFAULT_TOLS) -> float:
    """Directional derivative phi_k'(Z; H).

    Equals sum_{l<r} tr(Q_l^T H Q_l) + phi_{l_k(Z)}(Q_r^T H Q_r) where r is
    the critical eigenvalue group of Z at position kappa.
    """
    Z = np.asarray(Z, dtype=float)
    H = sym(np.asarray(H, dtype=float))
    eg, r, mass = _grouping_for(Z, kappa, tols)
    val = 0.0
    for j in range(r - 1):
        Qj = eg.Q[:, eg.theta[j]]
        val += float(np.trace(Qj.T @ H @ Qj))
    Qr = eg.Q[:, eg.theta[r - 1]]
    val += phi_value(Qr.T @ H @ Qr, mass)
    return val


def _grouped_pinv_weights(eg: EigenGrouping, l: int, pinv_rel: float):
    """Reciprocals 1/(mu_l - mu_g) on the grouped spectrum, zero on group l.

    Working with group representatives (not raw eigenvalues) keeps the
    pseudo-inverse consistent with the tolerance grouping: raw within-group
    spreads are below group_tol but far above the pinv cutoff, and their
    reciprocals would be garbage.
    """
    mu = eg.mu
    cutoff = pinv_rel * max(1.0, abs(mu[l - 1]) + float(np.max(np.abs(eg.lam))))
    w = np.zeros(len(mu))
    for g in range(len(mu)):
        d = mu[l - 1] - mu[g]
        if abs(d) > cutoff:
            w[g] = 1.0 / d
    return w


def phi_second_subderiv(
    Z: np.ndarray,
    S: np.ndarray,
    H: np.ndarray,
    kappa: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> SecondSubderivValue:
    """Second subderivative d^2 phi_k(Z | S)(H).

    Requires S in the subdifferential (raises ValueError otherwise).  The
    value is finite iff the directional derivative is attained by S, i.e.
    phi_{l_k}(Q_r^T H Q_r) = <S - sum_{l<r} Q_l Q_l^T, H>; then

        d^2 = 2 [ sum_{l<r} tr(Q_l^T H (mu_l I - Z)^+ H Q_l)
                  + <S_tilde, H (mu_r I - Z)^+ H> ].
    """
    Z = np.asarray(Z, dtype=float)
    S = np.asarray(S, dtype=float)
    H = sym(np.asarray(H, dtype=float))
    ok, cert = phi_subdiff_membership(Z, S, kappa, tols=tols)
    if not ok:
        raise ValueError("S is not a subgradient of phi_k at Z")
    eg, r, mass = _grouping_for(Z, kappa, tols)
    Qr = eg.Q[:, eg.theta[r - 1]]
    Mr = Qr.T @ H @ Qr
    S_tilde = S.copy()
    for j in range(r - 1):
        Qj = eg.Q[:, eg.theta[j]]
        S_tilde = S_tilde - Qj @ Qj.T
    cond_gap = phi_value(Mr, int(round(mass))) if mass == int(mass) else None
    lin = float(np.sum(S_tilde * H))
    # the critical-block Ky-Fan value must be attained by the multiplier
    if cond_gap is None or abs(cond_gap - lin) > tols.cond_rel * (1.0 + np.linalg.norm(H)):
        return SecondSubderivValue(math.inf, OUTSIDE, {})
    Ht = eg.Q.T @ H @ eg.Q  # H in the eigenbasis
    terms = {}
    total = 0.0
    trace_terms = []
    for j in range(r - 1):
        w = _grouped_pinv_weights(eg, j + 1, tols.pinv_rel)
        acc = 0.0
        for g in range(len(eg.mu)):
            if w[g] == 0.0:
                continue
            blk = Ht[np.ix_(eg.theta[j], eg.theta[g])]
            acc += w[g] * float(np.sum(blk * blk))
        trace_terms.append(2.0 * acc)
        total += 2.0 * acc
    terms["trace"] = trace_terms
    # critical term against the multiplier block
    Wr = Qr.T @ S_tilde @ Qr
    w = _grouped_pinv_weights(eg, r, tols.pinv_rel)
    acc = 0.0
    for g in range(len(eg.mu)):
        if w[g] == 0.0:
            continue
        blk = Ht[np.ix_(eg.theta[r - 1], eg.theta[g])]
        acc += w[g] * float(np.trace(Wr @ blk @ blk.T))
    terms["critical"] = 2.0 * acc
    total += 2.0 * acc
    return SecondSubderivValue(total, IN_CONE, terms)
