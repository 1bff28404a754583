"""Ordered spectral decompositions and the symmetric embedding.

A rectangular matrix X in R^{n x m} (n <= m) is studied through the
symmetric embedding

    B(X) = [[0, X], [X^T, 0]]  in  S^{n+m},

whose eigenvalues are +/- the singular values of X plus m - n zeros.  This
module provides deterministic full SVDs, tolerance-based grouping of equal
singular values, and the orthogonal frame that diagonalizes B(X) with
eigenvalues in nonincreasing order.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULT_TOLS, Tolerances

__all__ = [
    "SvdPair",
    "SingularGrouping",
    "EmbeddingFrame",
    "svd_ordered",
    "group_singular",
    "bmap",
    "build_frame",
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


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def bmap(X: np.ndarray) -> np.ndarray:
    """Symmetric embedding B(X) = [[0, X], [X^T, 0]]."""
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    Z = np.zeros((n + m, n + m))
    Z[:n, n:] = X
    Z[n:, :n] = X.T
    return Z


@dataclasses.dataclass
class EmbeddingFrame:
    """Orthogonal frame diagonalizing B(X) with nonincreasing eigenvalues.

    Column layout: [a_1 .. a_s | b(+) | c | b(-) | -a_s .. -a_1], i.e. the
    positive singular groups, the 2|b| + (m-n) dimensional zero eigenspace,
    then the negative groups in ascending magnitude.  column_blocks maps
    each block key (("a", l), "b+", "c", "b-", "zero", ("-a", l)) to its
    half-open column range in P.
    """

    P: np.ndarray
    column_blocks: dict
    eigenvalues: np.ndarray  # grouped representatives, one per column
    n: int
    m: int


def build_frame(pair: SvdPair, grouping: SingularGrouping) -> EmbeddingFrame:
    """Assemble the (n+m) x (n+m) frame P with P^T B(X) P diagonal.

    Raises ValueError if the grouping does not partition range(n).
    """
    n, m = pair.n, pair.m
    idx_all = sorted(
        [int(i) for g in grouping.groups for i in g] + [int(i) for i in grouping.b]
    )
    if idx_all != list(range(n)):
        raise ValueError("grouping does not partition the row indices")
    U, V = pair.U, pair.V
    isq = 1.0 / np.sqrt(2.0)
    cols = []
    eigs = []
    blocks = {}
    pos = 0

    def push(name, block_cols, vals):
        nonlocal pos
        k = block_cols.shape[1]
        cols.append(block_cols)
        eigs.extend(vals)
        blocks[name] = (pos, pos + k)
        pos += k

    for l, g in enumerate(grouping.groups):
        Pg = np.vstack([U[:, g] * isq, V[:, g] * isq])
        push(("a", l + 1), Pg, [grouping.nu[l]] * len(g))
    zero_start = pos
    bidx = grouping.b
    if len(bidx):
        push("b+", np.vstack([U[:, bidx] * isq, V[:, bidx] * isq]), [0.0] * len(bidx))
    cidx = grouping.c
    if len(cidx):
        Pc = np.vstack([np.zeros((n, len(cidx))), V[:, cidx]])
        push("c", Pc, [0.0] * len(cidx))
    if len(bidx):
        push("b-", np.vstack([U[:, bidx] * isq, -V[:, bidx] * isq]), [0.0] * len(bidx))
    blocks["zero"] = (zero_start, pos)
    for l in range(grouping.s - 1, -1, -1):
        g = grouping.groups[l][::-1]  # reversed inside the group
        Pg = np.vstack([U[:, g] * isq, -V[:, g] * isq])
        push(("-a", l + 1), Pg, [-grouping.nu[l]] * len(g))
    P = np.hstack(cols) if cols else np.zeros((n + m, 0))
    return EmbeddingFrame(
        P=P, column_blocks=blocks, eigenvalues=np.array(eigs), n=n, m=m
    )
