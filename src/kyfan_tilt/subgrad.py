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
"""
from __future__ import annotations

import dataclasses
import math
from operator import sub

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .spectral import SingularGrouping, SvdPair, fro_norm, group_singular, svd_ordered

__all__ = [
    "SubgradCertificate",
    "psi_value",
    "simultaneous_svd",
    "subdiff_membership",
    "INTERIOR_GROUP",
    "ZERO_GROUP",
]

INTERIOR_GROUP = "InteriorGroup"
ZERO_GROUP = "ZeroGroup"


def psi_value(X: np.ndarray, kappa: int):
    """Sum of the kappa largest singular values of X: a float for one
    matrix, an array of values for a stack (..., n, m)."""
    X = np.asarray(X, dtype=float)
    n = min(X.shape[-2:])
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    s = np.linalg.svd(X, compute_uv=False)
    values = np.sum(s[..., :kappa], axis=-1)
    return float(values) if X.ndim == 2 else values


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
    X, Gamma, gtol = _operands(X, Gamma, tols)
    return _simultaneous_pair(X, Gamma, 1, gtol, tols)[0]


def _operands(X, Gamma, tols: Tolerances):
    """X and Gamma as float arrays of equal shape, and the membership
    tolerance gtol = tols.subdiff * max(1, ||Gamma||_F)."""
    X = np.asarray(X, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    if X.shape != Gamma.shape:
        raise ValueError("X and Gamma must have equal shapes")
    return X, Gamma, tols.subdiff * max(1.0, fro_norm(Gamma))


def _simultaneous_pair(X, Gamma, kappa: int, gtol: float, tols: Tolerances):
    """simultaneous_svd's (pair or None), with the grouping of X's singular
    values that built it, located at kappa."""
    pair = svd_ordered(X)
    n, m = pair.n, pair.m
    grouping = group_singular(pair, kappa, tols=tols)
    U = pair.U.copy()
    V = pair.V.copy()
    K = U.T @ Gamma @ V  # n x m
    d = np.empty(n)  # every position is set below, by its group or the zero block
    # positive groups (runs of consecutive indices from 0): common rotation,
    # block must be symmetric PSD.  A 1 x 1 block is its own eigenvalue,
    # with eigenvector 1.  The column blocks are rotated in Fortran order,
    # the layout in which BLAS has always rounded these products
    hi = 0
    for g in grouping.groups:
        lo, hi = hi, hi + len(g)
        B = K[lo:hi, lo:hi]
        if hi - lo == 1:
            w = B[0]
        else:
            if fro_norm(B - B.T) > gtol:
                return None, grouping
            w, R = np.linalg.eigh(0.5 * (B + B.T))
            w = w[::-1]
            R = R[:, ::-1]
            U[:, lo:hi] = np.asfortranarray(U[:, lo:hi]) @ R
            V[:, lo:hi] = np.asfortranarray(V[:, lo:hi]) @ R
        if w[-1] < -gtol:
            return None, grouping
        d[lo:hi] = w
    np.maximum(d, 0.0, out=d)  # the groups' eigenvalues clipped at 0
    # zero block of X (the trailing rows b): independent rotations over rows
    # b and columns b + c, the trailing columns
    if len(grouping.b):
        b, cols = slice(hi, n), slice(hi, m)
        L, s, Rt = np.linalg.svd(K[b, cols], full_matrices=True)
        U[:, b] = np.asfortranarray(U[:, b]) @ L
        V[:, cols] = np.asfortranarray(V[:, cols]) @ Rt.T
        d[b] = s[: n - hi]
    # all coupling blocks must vanish (recheck on the rotated pair): K2 - D
    # with D = [Diag(d) 0], formed in place
    K2 = U.T @ Gamma @ V
    K2.flat[:: m + 1] -= d
    if fro_norm(K2) > 10 * gtol * max(1.0, math.sqrt(n)):
        return None, grouping
    # global ordering across groups: no value rises above its predecessor
    d = d.tolist()
    if n > 1 and max(map(sub, d[1:], d)) > gtol:
        return None, grouping
    out = SvdPair(U=U, V=V, sigma=pair.sigma)
    if fro_norm(out.reconstruct() - X) > tols.subdiff * max(1.0, fro_norm(X)) * 10:
        return None, grouping
    return out, grouping


def _classify_beta(vals, beta, sigma_class):
    """Split beta by vals[i] (vals: a list of floats, clamped in place to 1
    or 0 there) into index lists beta1 (= 1), beta_plus (in (0, 1)) and beta0
    (= 0) at the classification tolerance, with a warning for each value
    within 10x of a boundary."""
    beta1, beta_plus, beta0, warn = [], [], [], []
    for i in beta:
        v = vals[i]
        if v >= 1 - sigma_class:
            beta1.append(i)
            vals[i] = 1.0
        elif v <= sigma_class:
            beta0.append(i)
            vals[i] = 0.0
        else:
            beta_plus.append(i)
        if sigma_class < abs(v) <= 10 * sigma_class or sigma_class < abs(v - 1) <= 10 * sigma_class:
            warn.append(
                f"sigma_{i}(Gamma)={v:.3e} is within 10x of the {0 if abs(v) < 0.5 else 1} boundary"
            )
    return beta1, beta_plus, beta0, warn


def _zeta_groups(vals, beta1, beta_plus, sigma_class):
    """Distinct nonzero subgradient values on beta, descending, with their
    index groups (beta1 first when present, clamped to exactly 1).  Interior
    values chain transitively at the classification tolerance (vals: a list)."""
    zeta, groups = [], []
    if beta1:
        zeta.append(1.0)
        groups.append(beta1)
    n_fixed = len(zeta)  # interior values never join the clamped 1-group
    prev = None
    # descending value, ties in index order (the sort is stable)
    for i in sorted(beta_plus, key=vals.__getitem__, reverse=True):
        v = vals[i]
        if prev is not None and abs(v - prev) <= sigma_class:
            groups[-1].append(i)
        else:
            zeta.append(v)
            groups.append([i])
        prev = v
    # representative = mean over the group (except the clamped 1-group),
    # rounded as np.mean rounds it
    for j in range(n_fixed, len(zeta)):
        zeta[j] = float(np.add.reduce(np.array([vals[i] for i in groups[j]]))) / len(groups[j])
    return np.array(zeta), [np.array(g, dtype=int) for g in groups]


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
    def out(ok, cert, why):
        if with_diagnostics:
            return ok, cert, why
        return ok, cert

    X, Gamma, gtol = _operands(X, Gamma, tols)
    # pair has X's singular values, so their partition is the one that built it
    pair, grouping = _simultaneous_pair(X, Gamma, kappa, gtol, tols)
    if pair is None:
        return out(False, None, "no simultaneous ordered SVD pair exists")
    U, V = pair.U, pair.V
    r, s, n = grouping.r, grouping.s, pair.n
    # U[:, i] @ Gamma @ V[:, i] stacked: the same gemv and dot per slice
    vals = (U.T[:, None, :] @ Gamma @ V.T[:n, :, None]).ravel().tolist()
    sum_tol = tols.sum_rel * kappa
    # the index sets are runs of consecutive positions: alpha = [0, lo),
    # beta = [lo, hi), gamma = [hi, n)
    if r <= s:
        lo, hi = int(grouping.groups[r - 1][0]), int(grouping.groups[r - 1][-1]) + 1
        case = INTERIOR_GROUP
    else:
        lo, hi = n - len(grouping.b), n
        case = ZERO_GROUP
    alpha, beta, gamma_idx = np.arange(lo), np.arange(lo, hi), np.arange(hi, n)
    kappa0 = lo
    tol = max(gtol, tols.sigma_class)
    # |v - 1| > tol for some v iff it holds at the largest or the smallest
    head, crit, tail = vals[:lo], vals[lo:hi], vals[hi:]
    if head and (max(head) - 1.0 > tol or 1.0 - min(head) > tol):
        return out(False, None, "a leading subgradient singular value differs from 1")
    if crit and (min(crit) < -tol or max(crit) > 1 + tol):
        return out(False, None, "a critical-block subgradient singular value leaves [0, 1]")
    if tail and max(map(abs, tail)) > tol:
        return out(False, None, "a trailing subgradient singular value is nonzero")
    beta_sum = float(np.add.reduce(np.array(crit)))
    if case == INTERIOR_GROUP:
        if abs(beta_sum - (kappa - kappa0)) > sum_tol:
            return out(False, None, "critical-block singular values do not sum to kappa - kappa0")
    else:
        if beta_sum > (kappa - kappa0) + sum_tol:
            return out(False, None, "critical-block singular values exceed kappa - kappa0")
    beta1, beta_plus, beta0, warn = _classify_beta(vals, range(lo, hi), tols.sigma_class)
    zeta, beta_js = _zeta_groups(vals, beta1, beta_plus, tols.sigma_class)
    vals[:lo] = [1.0] * lo
    vals[hi:] = [0.0] * (n - hi)
    vals = np.array(vals)
    # the critical block's values after the clamps to 1 and 0 above
    tight = case == INTERIOR_GROUP or (
        abs(float(np.add.reduce(vals[lo:hi])) - (kappa - kappa0)) <= tols.sum_rel * max(1, kappa)
    )
    cert = SubgradCertificate(
        case=case,
        kappa=kappa,
        kappa0=kappa0,
        kappa1=kappa - kappa0,
        alpha=alpha,
        beta=beta,
        gamma=gamma_idx,
        beta1=np.array(beta1, dtype=int),
        beta_plus=np.array(beta_plus, dtype=int),
        beta0=np.array(beta0, dtype=int),
        zeta=zeta,
        beta_js=beta_js,
        pair=pair,
        grouping=grouping,
        sigma_gamma_vals=vals,
        warnings=warn,
        tight=bool(tight),
    )
    return out(True, cert, "")
