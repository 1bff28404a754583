"""Ordered spectral decompositions of rectangular matrices.

A rectangular matrix X in R^{n x m} (n <= m) is handled through its full
ordered SVD.  This module provides deterministic full SVDs, tolerance-based
grouping of equal singular values, and the symmetric and skew parts of
square blocks.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances

__all__ = [
    "SvdPair",
    "SingularGrouping",
    "svd_ordered",
    "group_singular",
    "sym",
    "skew",
    "fro_norm",
]


def sym(A):
    """Symmetric part (A + A^T)/2 for square A, or for each matrix of a
    stack of them (transposing the last two axes)."""
    return 0.5 * (A + A.swapaxes(-1, -2))


def skew(A):
    """Skew part (A - A^T)/2 for square A."""
    return 0.5 * (A - A.T)


def fro_norm(A) -> float:
    """||A||_F of a float array as np.linalg.norm rounds it (sqrt of a dot)."""
    a = A.ravel(order="K")
    return math.sqrt(a.dot(a))


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


def _signs(A):
    """A list of +1.0 or -1.0 per column of A: the sign of its largest-magnitude
    entry (first index wins ties, as max keeps the first; +1 for a zero)."""
    return [-1.0 if v < 0 else 1.0 for v in map(functools.partial(max, key=abs), A.T.tolist())]


def _fix_signs(U, V):
    """Flip matched column pairs, in place (when any flips), so each U column
    has its largest-magnitude entry positive; the trailing V columns have no U
    partner and follow the rule themselves."""
    n = U.shape[1]
    s = _signs(U)
    if -1.0 in s:
        s = np.array(s)
        U *= s
        V[:, :n] *= s
    if len(V) > n:
        T = V[:, n:]
        t = _signs(T)
        if -1.0 in t:
            T *= np.array(t)


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
    _fix_signs(U, V)
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


def _group_of(groups, kappa: int) -> int:
    """1-based index of the group holding position kappa (1-based);
    len(groups) + 1 past the positive groups, in the zero block."""
    count = 0
    for l, g in enumerate(groups):
        count += len(g)
        if kappa <= count:
            return l + 1
    return len(groups) + 1


def group_singular(pair: SvdPair, kappa: int,
                   tols: Tolerances = DEFAULT_TOLS) -> SingularGrouping:
    """Group the singular values of an ordered SVD and locate kappa.

    The tolerance is tols.group_rel * max(1, sigma_1).  Grouping is
    transitive: a chain of gaps each below the tolerance forms one group,
    so groups are maximal runs of consecutive positions.  A group's
    representative nu is its mean, rounded as np.mean rounds it.
    """
    n, m = pair.n, pair.m
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    sigma = pair.sigma.tolist()
    group_tol = tols.group_rel * max(1.0, sigma[0])
    # runs end where consecutive values lie more than group_tol apart
    ends = [i for i in range(1, n) if abs(sigma[i - 1] - sigma[i]) > group_tol] + [n]
    runs = list(zip([0] + ends[:-1], ends))
    # the trailing run is the zero block iff everything in it is ~0
    zero = sigma[runs[-1][0]] <= group_tol
    b = np.arange(*runs.pop()) if zero else np.array([], dtype=int)
    nu = np.array([float(np.add.reduce(pair.sigma[lo:hi])) / (hi - lo) for lo, hi in runs])
    groups = [np.arange(lo, hi) for lo, hi in runs]
    return SingularGrouping(nu=nu, groups=groups, b=b, c=np.arange(n, m), s=len(groups),
                            r=_group_of(groups, kappa), kappa=kappa)
