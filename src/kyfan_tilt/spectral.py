"""Ordered spectral decompositions of rectangular matrices.

A rectangular matrix X in R^{n x m} (n <= m) is handled through its full
ordered SVD.  This module provides deterministic full SVDs, tolerance-based
grouping of equal singular values, and the symmetric and skew parts of
square blocks.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULT_TOLS, Tolerances

__all__ = [
    "SvdPair",
    "SingularGrouping",
    "svd_ordered",
    "group_singular",
    "sym",
    "skew",
]


def sym(A):
    """Symmetric part (A + A^T)/2 for square A, or for each matrix of a
    stack of them (transposing the last two axes)."""
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def skew(A):
    """Skew part (A - A^T)/2 for square A."""
    return 0.5 * (A - A.T)


# ---------------------------------------------------------------------------
# ordered SVD
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SvdPair:
    """Full ordered SVD: X = U [Diag(sigma) 0] V^T.

    U is n x n, V is m x m orthogonal, sigma has length n and is
    nonincreasing.  V1 denotes the first n columns of V.
    """

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[0]

    @property
    def V1(self) -> np.ndarray:
        return self.V[:, : self.n]

    def reconstruct(self) -> np.ndarray:
        return self.U @ (self.sigma[:, None] * self.V1.T)


def _fix_signs(U, V):
    """Flip matched column pairs so each U column has its largest-magnitude
    entry positive (first index wins ties)."""
    n = U.shape[1]

    def signs(A):
        cols = np.arange(A.shape[1])
        return np.where(A[np.argmax(np.abs(A), axis=0), cols] < 0, -1.0, 1.0)

    s = signs(U)
    # trailing V columns have no U partner; apply the rule to themselves
    return U * s, V * np.concatenate([s, signs(V[:, n:])])


def svd_ordered(X: np.ndarray) -> SvdPair:
    """Deterministic full SVD with nonincreasing singular values.

    Requires n <= m; raises ValueError otherwise.  The sign convention
    (largest-magnitude entry of each left singular vector positive, matched
    flip on V) makes repeated calls on equal inputs byte-identical.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {X.shape}")
    n, m = X.shape
    if n > m:
        raise ValueError(f"rows must not exceed columns, got {n} x {m}")
    U, s, Vt = np.linalg.svd(X, full_matrices=True)
    V = Vt.T
    U, V = _fix_signs(U, V)
    return SvdPair(U=U, V=V, sigma=s)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SingularGrouping:
    """Partition of singular values into maximal tolerance-chained groups.

    groups[l] (0-based l = 0..s-1) are the positive groups a_1..a_s in
    descending value order; the zero block b is kept separately.  nu[l] is
    the group representative (mean).  r is the 1-based index of the group
    containing position kappa (r == s+1 means the zero block).
    """

    nu: np.ndarray
    groups: list  # list of np.ndarray of indices, positive groups only
    b: np.ndarray  # indices of the zero block (subset of range(n))
    c: np.ndarray  # column indices n..m-1 of the rectangular kernel
    s: int
    r: int
    kappa: int

    @property
    def a(self) -> np.ndarray:
        """All indices with positive singular values."""
        if self.groups:
            return np.concatenate(self.groups)
        return np.array([], dtype=int)


def _chain_groups(values: np.ndarray, gap: float) -> list:
    """Split a nonincreasing vector into maximal transitively-chained runs:
    consecutive entries at most gap apart stay in one group."""
    groups = []
    start = 0
    for i in range(1, len(values)):
        if abs(values[i - 1] - values[i]) > gap:
            groups.append(np.arange(start, i))
            start = i
    if len(values):
        groups.append(np.arange(start, len(values)))
    return groups


def group_singular(pair: SvdPair, kappa: int,
                   tols: Tolerances = DEFAULT_TOLS) -> SingularGrouping:
    """Group the singular values of an ordered SVD and locate kappa.

    The tolerance is tols.group_rel * max(1, sigma_1).  Grouping is
    transitive: a chain of gaps each below the tolerance forms one group.
    """
    sigma = pair.sigma
    n, m = pair.n, pair.m
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    group_tol = tols.group_rel * max(1.0, sigma[0] if len(sigma) else 0.0)
    runs = _chain_groups(sigma, group_tol)
    # the trailing run is the zero block iff everything in it is ~0
    if runs and sigma[runs[-1][0]] <= group_tol:
        b = runs[-1]
        pos_runs = runs[:-1]
    else:
        b = np.array([], dtype=int)
        pos_runs = runs
    s = len(pos_runs)
    nu = np.array([float(np.mean(sigma[g])) for g in pos_runs])
    # locate kappa (1-based position) in the partition
    r = s + 1
    count = 0
    for l, g in enumerate(pos_runs):
        count += len(g)
        if kappa <= count:
            r = l + 1
            break
    if r == s + 1 and kappa > count + len(b):
        raise AssertionError("kappa not covered by the partition")
    return SingularGrouping(
        nu=nu, groups=pos_runs, b=b, c=np.arange(n, m), s=s, r=r, kappa=kappa
    )
