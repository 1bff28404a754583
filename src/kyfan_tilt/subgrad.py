"""Subdifferential of the matrix Ky-Fan kappa-norm Psi_k(X) = sum of the k
largest singular values, via simultaneous singular value decompositions.

Gamma is a subgradient at X iff some orthogonal pair (U, V) is an ordered
SVD of X and Gamma at the same time and the singular values of Gamma obey
the index-set conditions determined by where kappa falls among the singular
value groups of X:

  InteriorGroup (kappa inside a positive group a_r):
      sigma_alpha(Gamma) = 1,  sigma_beta(Gamma) in [0,1] summing to
      kappa - |alpha|,  sigma_gamma(Gamma) = 0;
  ZeroGroup (kappa beyond the positive part):
      sigma_a(Gamma) = 1,  sigma_b(Gamma) in [0,1] summing to at most
      kappa - |a|.

Multipliers for the embedded formulation are recovered in the frame of the
symmetric embedding.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .spectral import (
    EmbeddingFrame,
    SingularGrouping,
    SvdPair,
    bmap_adjoint,
    build_frame,
    group_singular,
    svd_ordered,
)

__all__ = [
    "SubgradCertificate",
    "MultiplierElement",
    "psi_value",
    "simultaneous_svd",
    "subdiff_membership",
    "multiplier_from_xi",
    "multiplier_membership",
    "INTERIOR_GROUP",
    "ZERO_GROUP",
]

INTERIOR_GROUP = "InteriorGroup"
ZERO_GROUP = "ZeroGroup"


def psi_value(X: np.ndarray, kappa: int) -> float:
    """Sum of the kappa largest singular values of X."""
    X = np.asarray(X, dtype=float)
    n = min(X.shape)
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    s = np.linalg.svd(X, compute_uv=False)
    return float(np.sum(s[:kappa]))


@dataclasses.dataclass
class SubgradCertificate:
    """Certificate for Gamma in subdiff Psi_kappa(X).

    case is InteriorGroup or ZeroGroup.  alpha/beta/gamma are row index
    arrays (gamma includes the zero block of X in the interior case);
    beta1/beta_plus/beta0 split beta by sigma_i(Gamma) = 1 / in (0,1) / = 0.
    zeta are the distinct nonzero subgradient singular values on beta in
    descending order with beta_j their index groups.  pair is a simultaneous
    ordered SVD of (X, Gamma); sigma_gamma_vals its Gamma diagonal.
    kappa0 = |alpha|; kappa1 = kappa - kappa0 is the mass left for the
    critical block.  tight: whether the beta mass is exhausted within
    sum_rel (always True for InteriorGroup; it splits the ZeroGroup case).
    """

    case: str
    kappa: int
    kappa0: int
    kappa1: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    beta1: np.ndarray
    beta_plus: np.ndarray
    beta0: np.ndarray
    zeta: np.ndarray
    beta_js: list
    pair: SvdPair
    grouping: SingularGrouping
    sigma_gamma_vals: np.ndarray
    warnings: list
    tight: bool


def simultaneous_svd(X: np.ndarray, Gamma: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Search for an ordered SVD pair shared by X and Gamma.

    Returns an SvdPair whose (U, V) diagonalize both matrices with
    nonincreasing singular values, or None when no such pair exists
    (absence is an answer, not an error).

    Construction: start from an ordered SVD of X; inside each positive
    singular group of X the same rotation must act on U and V columns, so
    the corresponding Gamma block must be symmetric PSD and is
    eigen-rotated; the zero block of X admits independent row/column
    rotations and is handled by a rectangular SVD; all off-diagonal
    coupling blocks of Gamma must already vanish, and the assembled
    diagonal must be globally nonincreasing.
    """
    X = np.asarray(X, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    if X.shape != Gamma.shape:
        raise ValueError("X and Gamma must have equal shapes")
    pair = svd_ordered(X)
    n, m = pair.n, pair.m
    gtol = tols.subdiff * max(1.0, float(np.linalg.norm(Gamma)))
    grouping = group_singular(pair, kappa=1, tols=tols)
    U = pair.U.copy()
    V = pair.V.copy()
    K = U.T @ Gamma @ V  # n x m
    d = np.full(n, np.nan)
    # positive groups: common rotation, block must be symmetric PSD
    for g in grouping.groups:
        B = K[np.ix_(g, g)]
        if np.linalg.norm(B - B.T) > gtol:
            return None
        w, R = np.linalg.eigh(0.5 * (B + B.T))
        w = w[::-1]
        R = R[:, ::-1]
        if len(w) and w[-1] < -gtol:
            return None
        U[:, g] = U[:, g] @ R
        V[:, g] = V[:, g] @ R
        d[g] = np.clip(w, 0.0, None)
    # zero block of X: independent rotations over rows b and columns b + c
    b = grouping.b
    if len(b):
        cols = np.concatenate([b, grouping.c]).astype(int)
        Bb = K[np.ix_(b, cols)]
        L, s, Rt = np.linalg.svd(Bb, full_matrices=True)
        U[:, b] = U[:, b] @ L
        V[:, cols] = V[:, cols] @ Rt.T
        d[b] = s[: len(b)]
    # all coupling blocks must vanish (recheck on the rotated pair)
    K2 = U.T @ Gamma @ V
    D = np.zeros((n, m))
    D[:, :n] = np.diag(d)
    if np.linalg.norm(K2 - D) > 10 * gtol * max(1.0, np.sqrt(n)):
        return None
    # global ordering across groups
    if np.any(np.diff(d) > gtol):
        return None
    out = SvdPair(U=U, V=V, sigma=pair.sigma)
    if np.linalg.norm(out.reconstruct() - X) > tols.subdiff * max(1.0, np.linalg.norm(X)) * 10:
        return None
    return out


def _classify_beta(vals, beta, sigma_class):
    beta1, beta_plus, beta0, warn = [], [], [], []
    for i in beta:
        v = vals[i]
        if v >= 1 - sigma_class:
            beta1.append(i)
        elif v <= sigma_class:
            beta0.append(i)
        else:
            beta_plus.append(i)
        if sigma_class < abs(v) <= 10 * sigma_class or sigma_class < abs(v - 1) <= 10 * sigma_class:
            warn.append(
                f"sigma_{i}(Gamma)={v:.3e} is within 10x of the {0 if abs(v) < 0.5 else 1} boundary"
            )
    return (
        np.array(beta1, dtype=int),
        np.array(beta_plus, dtype=int),
        np.array(beta0, dtype=int),
        warn,
    )


def _zeta_groups(vals, beta1, beta_plus, sigma_class):
    """Distinct nonzero subgradient values on beta, descending, with their
    index groups (beta1 first when present, clamped to exactly 1).  Interior
    values chain transitively at the classification tolerance."""
    zeta, beta_js = [], []
    if len(beta1):
        zeta.append(1.0)
        beta_js.append(np.asarray(beta1, dtype=int))
    rest = [(float(vals[i]), int(i)) for i in beta_plus]
    rest.sort(key=lambda t: (-t[0], t[1]))
    n_fixed = len(zeta)  # interior values never join the clamped 1-group
    prev = None
    for v, i in rest:
        if prev is not None and abs(v - prev) <= sigma_class:
            beta_js[-1] = np.append(beta_js[-1], i)
        else:
            zeta.append(v)
            beta_js.append(np.array([i], dtype=int))
        prev = v
    # representative = mean over the group (except the clamped 1-group)
    for j in range(n_fixed, len(zeta)):
        zeta[j] = float(np.mean(vals[beta_js[j]]))
    return np.array(zeta), beta_js


def subdiff_membership(
    X: np.ndarray,
    Gamma: np.ndarray,
    kappa: int,
    tols: Tolerances = DEFAULT_TOLS,
    with_diagnostics: bool = False,
):
    """Decide Gamma in subdiff Psi_kappa(X); return (bool, certificate).

    With with_diagnostics=True a third element describes the first failed
    condition (useful for reporting why a membership check failed).
    """
    X = np.asarray(X, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)

    def out(ok, cert, why):
        if with_diagnostics:
            return ok, cert, why
        return ok, cert

    pair = simultaneous_svd(X, Gamma, tols=tols)
    if pair is None:
        return out(False, None, "no simultaneous ordered SVD pair exists")
    grouping = group_singular(pair, kappa, tols=tols)
    n = pair.n
    vals = np.array([float(pair.U[:, i] @ Gamma @ pair.V[:, i]) for i in range(n)])
    r, s = grouping.r, grouping.s
    gtol = tols.subdiff * max(1.0, float(np.linalg.norm(Gamma)))
    sum_tol = tols.sum_rel * kappa
    if r <= s:
        alpha = (
            np.concatenate([grouping.groups[l] for l in range(r - 1)]).astype(int)
            if r > 1
            else np.array([], dtype=int)
        )
        beta = grouping.groups[r - 1].astype(int)
        after = [grouping.groups[l] for l in range(r, s)] + ([grouping.b] if len(grouping.b) else [])
        gamma_idx = np.concatenate(after).astype(int) if after else np.array([], dtype=int)
        case = INTERIOR_GROUP
    else:
        alpha = grouping.a.astype(int)
        beta = grouping.b.astype(int)
        gamma_idx = np.array([], dtype=int)
        case = ZERO_GROUP
    kappa0 = len(alpha)
    if np.any(np.abs(vals[alpha] - 1.0) > max(gtol, tols.sigma_class)):
        return out(False, None, "a leading subgradient singular value differs from 1")
    if len(beta) and (
        np.min(vals[beta]) < -max(gtol, tols.sigma_class)
        or np.max(vals[beta]) > 1 + max(gtol, tols.sigma_class)
    ):
        return out(False, None, "a critical-block subgradient singular value leaves [0, 1]")
    if len(gamma_idx) and np.max(np.abs(vals[gamma_idx])) > max(gtol, tols.sigma_class):
        return out(False, None, "a trailing subgradient singular value is nonzero")
    beta_sum = float(np.sum(vals[beta])) if len(beta) else 0.0
    if case == INTERIOR_GROUP:
        if abs(beta_sum - (kappa - kappa0)) > sum_tol:
            return out(False, None, "critical-block singular values do not sum to kappa - kappa0")
    else:
        if beta_sum > (kappa - kappa0) + sum_tol:
            return out(False, None, "critical-block singular values exceed kappa - kappa0")
    vals = vals.copy()
    vals[alpha] = 1.0
    if len(gamma_idx):
        vals[gamma_idx] = 0.0
    beta1, beta_plus, beta0, warn = _classify_beta(vals, beta, tols.sigma_class)
    vals[beta1] = 1.0
    vals[beta0] = 0.0
    zeta, beta_js = _zeta_groups(vals, beta1, beta_plus, tols.sigma_class)
    tight = case == INTERIOR_GROUP or (
        abs(float(np.sum(vals[beta])) - (kappa - kappa0)) <= tols.sum_rel * max(1, kappa)
    )
    cert = SubgradCertificate(
        case=case,
        kappa=kappa,
        kappa0=kappa0,
        kappa1=kappa - kappa0,
        alpha=alpha,
        beta=beta,
        gamma=gamma_idx,
        beta1=beta1,
        beta_plus=beta_plus,
        beta0=beta0,
        zeta=zeta,
        beta_js=beta_js,
        pair=pair,
        grouping=grouping,
        sigma_gamma_vals=vals,
        warnings=warn,
        tight=bool(tight),
    )
    return out(True, cert, "")


@dataclasses.dataclass
class MultiplierElement:
    """Element of the multiplier set for the embedded formulation.

    M is symmetric (n+m)x(n+m) with off-diagonal block Gamma/2; xi is its
    coordinate vector on the critical frame block (split (xi1; xi2; xi3)
    over [b(+), c, b(-)] in the ZeroGroup case).
    """

    M: np.ndarray
    xi: np.ndarray
    M11: np.ndarray
    M22: np.ndarray
    case: str


def _mass_check(xi, mass, tol):
    return (
        float(np.min(xi, initial=np.inf)) >= -tol
        and float(np.max(xi, initial=-np.inf)) <= 1 + tol
        and abs(float(np.sum(xi)) - mass) <= max(tol, 1e-9 * max(1.0, mass))
    )


def multiplier_from_xi(
    cert: SubgradCertificate,
    frame: EmbeddingFrame,
    xi: np.ndarray,
    tols: Tolerances = DEFAULT_TOLS,
) -> MultiplierElement:
    """Assemble the multiplier with critical-block weights xi.

    InteriorGroup: xi must equal the subgradient singular values on beta
    (the multiplier is unique).  ZeroGroup: xi = (xi1; xi2; xi3) over the
    zero-space frame columns with xi1 - xi3 = sigma_b(Gamma), entries in
    [0, 1], total mass kappa - kappa0.  Raises ValueError on infeasible xi.
    """
    tol = tols.subdiff
    xi = np.asarray(xi, dtype=float)
    n = cert.pair.n
    mass = float(cert.kappa1)
    if cert.case == INTERIOR_GROUP:
        target = cert.sigma_gamma_vals[cert.beta]
        if xi.shape != target.shape:
            raise ValueError(f"xi must have length {len(target)}")
        if np.max(np.abs(xi - target), initial=0.0) > max(tol, tols.sigma_class):
            raise ValueError("xi must equal the critical-block subgradient singular values")
        if not _mass_check(xi, mass, tol):
            raise ValueError("xi violates the capped-simplex constraints")
        M = np.zeros((frame.P.shape[0],) * 2)
        for l in range(cert.grouping.r - 1):
            Pl = frame.block(("a", l + 1))
            M += Pl @ Pl.T
        Pr = frame.block(("a", cert.grouping.r))
        M += Pr @ np.diag(xi) @ Pr.T
    else:
        nb = len(cert.beta)
        nc = len(cert.grouping.c)
        if xi.shape != (2 * nb + nc,):
            raise ValueError(f"xi must have length {2 * nb + nc}")
        xi1, xi2, xi3 = xi[:nb], xi[nb : nb + nc], xi[nb + nc :]
        sig_b = cert.sigma_gamma_vals[cert.beta]
        if np.max(np.abs((xi1 - xi3) - sig_b), initial=0.0) > max(tol, tols.sigma_class):
            raise ValueError("xi1 - xi3 must reproduce the zero-block subgradient values")
        if not _mass_check(xi, mass, tol):
            raise ValueError("xi violates the capped-simplex constraints")
        M = np.zeros((frame.P.shape[0],) * 2)
        for l in range(cert.grouping.s):
            Pl = frame.block(("a", l + 1))
            M += Pl @ Pl.T
        P0 = frame.P0
        M += P0 @ np.diag(xi) @ P0.T
    return MultiplierElement(
        M=M, xi=xi, M11=M[:n, :n], M22=M[n:, n:], case=cert.case
    )


def multiplier_membership(
    X: np.ndarray,
    Gamma: np.ndarray,
    M: np.ndarray,
    kappa: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> bool:
    """Decide whether M is a multiplier for (X, Gamma).

    Recovers xi by projecting M minus the weight-one frame blocks onto the
    critical frame columns and checks the capped-simplex and linkage
    conditions; the residual off the expected span must vanish.  The
    recovered xi is checked at the classification tolerance sigma_class.
    """
    tol = tols.subdiff
    X = np.asarray(X, dtype=float)
    M = np.asarray(M, dtype=float)
    n, m = X.shape
    if M.shape != (n + m, n + m):
        return False
    if np.linalg.norm(M - M.T) > tol * max(1.0, np.linalg.norm(M)):
        return False
    if np.linalg.norm(bmap_adjoint(M, n) - Gamma) > tol * max(1.0, np.linalg.norm(Gamma)):
        return False
    ok, cert = subdiff_membership(X, Gamma, kappa, tols=tols)
    if not ok:
        return False
    frame = build_frame(cert.pair, cert.grouping)
    R = M.copy()
    upto = cert.grouping.r - 1 if cert.case == INTERIOR_GROUP else cert.grouping.s
    for l in range(upto):
        Pl = frame.block(("a", l + 1))
        R = R - Pl @ Pl.T
    Pc = (
        frame.block(("a", cert.grouping.r))
        if cert.case == INTERIOR_GROUP
        else frame.P0
    )
    W = Pc.T @ R @ Pc
    if np.linalg.norm(R - Pc @ W @ Pc.T) > 10 * tol * max(1.0, np.linalg.norm(M)):
        return False
    xi = np.diag(W).copy()
    if np.linalg.norm(W - np.diag(xi)) > 10 * tol * max(1.0, np.linalg.norm(M)):
        return False
    try:
        xi_tols = dataclasses.replace(tols, subdiff=max(tol, tols.sigma_class))
        multiplier_from_xi(cert, frame, xi, tols=xi_tols)
    except ValueError:
        return False
    return True
