"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's certificate machinery:
subgradient membership goes through the support-function / dual-ball
characterization (plain SVD only), and the vector prox through exhaustive
enumeration of its KKT active sets (and a small convex program when cvxpy
is installed).  The random rotation of degenerate SVD blocks that the
hull-invariance test applies is built here too, from index bookkeeping on
the certificate's singular values.
"""
from __future__ import annotations

import numpy as np
import pytest

from kyfan_tilt.instances import (
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_membership_instance,
    random_orthogonal,
)
from kyfan_tilt.io import unvec, vec
from kyfan_tilt.secder import ZERO_GROUP_STRICT, ZERO_GROUP_TIGHT
from kyfan_tilt.spectral import SvdPair
from kyfan_tilt.subgrad import INTERIOR_GROUP
from kyfan_tilt.tilt import ProblemSpec, QuadraticTheta


# ---------------------------------------------------------------------------
# value oracles
# ---------------------------------------------------------------------------


def oracle_psi(X, kappa):
    s = np.linalg.svd(np.asarray(X, dtype=float), compute_uv=False)
    return float(np.sum(np.sort(s)[::-1][:kappa]))


def oracle_psi_membership(X, Gamma, kappa, tol=1e-8):
    """Support-function test: Gamma is a subgradient iff it lies in the dual
    ball {sigma_1 <= 1, sum sigma <= kappa} and <Gamma, X> attains Psi_kappa(X)."""
    X = np.asarray(X, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    s = np.linalg.svd(Gamma, compute_uv=False)
    scale = 1.0 + float(np.linalg.norm(X))
    return bool(
        s[0] <= 1 + tol
        and float(np.sum(s)) <= kappa + tol * max(1, kappa)
        and abs(float(np.sum(Gamma * X)) - oracle_psi(X, kappa)) <= tol * scale
    )


def oracle_vector_prox_enum(x, t, kappa):
    """Prox of t * (sum of kappa largest |.|) by exhaustive enumeration of
    the KKT active sets, for 1 <= kappa <= len(x) <= 8.

    The prox keeps signs and the order of |x|, so with a = |x| sorted
    descending the solution q, with theta its kappa-th largest entry, splits
    a into a top block [0, i1) (q = a - t), a tie block [i1, i2) (q = theta)
    and a tail [i2, k) (q = a), i1 < kappa <= i2.  For theta > 0 the tie
    block's multipliers (a - theta) / t sum to kappa - i1, which fixes
    theta; for theta = 0 the tie block runs to the end.  Every (i1, i2)
    gives one candidate point, and the true prox is among them, so the
    candidate of least objective value is the prox."""
    x = np.asarray(x, dtype=float)
    k = len(x)
    assert 1 <= kappa <= k <= 8
    order = np.argsort(-np.abs(x), kind="stable")
    a = np.abs(x)[order]

    def objective(q):
        top = np.sort(np.abs(q))[::-1][:kappa]
        return 0.5 * float(np.sum((q - a) ** 2)) + t * float(np.sum(top))

    cands = []
    for i1 in range(kappa):
        for i2 in range(kappa, k + 1):
            theta = (float(np.sum(a[i1:i2])) - (kappa - i1) * t) / (i2 - i1)
            cands.append(np.concatenate([a[:i1] - t, np.full(i2 - i1, theta), a[i2:]]))
        cands.append(np.concatenate([a[:i1] - t, np.zeros(k - i1)]))
    q = min(cands, key=objective)
    p = np.empty(k)
    p[order] = q
    return np.sign(x) * p


def oracle_vector_prox_qp(x, t, kappa):
    """Reference prox of t * (sum of kappa largest |.|): the active-set
    enumeration, checked against cvxpy's QP solution when cvxpy is
    installed."""
    ref = oracle_vector_prox_enum(x, t, kappa)
    try:
        import cvxpy as cp
    except ImportError:
        return ref
    x = np.asarray(x, dtype=float)
    p = cp.Variable(len(x))
    obj = 0.5 * cp.sum_squares(p - x) + t * cp.sum_largest(cp.abs(p), kappa)
    prob = cp.Problem(cp.Minimize(obj))
    # default gap tolerances leave ~1e-6 play in flat directions
    prob.solve(
        solver=cp.CLARABEL,
        tol_gap_abs=1e-12,
        tol_gap_rel=1e-12,
        tol_feas=1e-12,
    )
    if prob.status not in ("optimal", "optimal_inaccurate"):
        prob.solve(solver=cp.SCS, eps=1e-10)
    qp = np.asarray(p.value, dtype=float)
    assert np.max(np.abs(qp - ref)) < 1e-6, (x, t, kappa, qp, ref)
    return ref


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def make_quadratic_spec(X, Gamma, kappa, Q, nu=1.0):
    """ProblemSpec with exact stationarity: L chosen so -nu*grad = Gamma."""
    n, m = X.shape
    L = -unvec(Q @ vec(X), n, m) - Gamma / nu
    return ProblemSpec(Xbar=X, nu=nu, kappa=kappa, theta=QuadraticTheta(Q=Q, L=L))


def projector_complement(w):
    """I - w w^T / ||w||^2 as the Hessian: PSD with kernel span{w}."""
    w = vec(w)
    w = w / np.linalg.norm(w)
    return np.eye(len(w)) - np.outer(w, w)


def rotate_degenerate_blocks(cert, rng, tol=1e-9):
    """Another simultaneous ordered SVD of the certificate's (X, Gamma).

    Consecutive indices whose X singular values and Gamma diagonal values
    both agree within tol form a sub-block; one random orthogonal R (the Q
    factor of a Gaussian) acts on the U and V columns of each sub-block, and
    an independent one on V's kernel columns n..m-1.  Both X = U [S 0] V^T
    and Gamma keep their diagonal forms.  Written without the library's
    grouping, so that the hull invariance it tests is checked from outside."""
    pair = cert.pair
    n, m = pair.n, pair.m
    sx, sg = pair.sigma, cert.sigma_gamma_vals
    U, V = pair.U.copy(), pair.V.copy()

    def orthogonal(k):
        return np.linalg.qr(rng.standard_normal((k, k)))[0]

    start = 0
    for i in range(1, n + 1):
        if i == n or abs(sx[i] - sx[start]) > tol or abs(sg[i] - sg[start]) > tol:
            R = orthogonal(i - start)
            U[:, start:i] = U[:, start:i] @ R
            V[:, start:i] = V[:, start:i] @ R
            start = i
    if m > n:
        V[:, n:] = V[:, n:] @ orthogonal(m - n)
    return SvdPair(U=U, V=V, sigma=pair.sigma.copy())


def hull_elements(cert, case):
    """The hull's orthonormal block-template basis in U^T G V coordinates,
    one n x m matrix per element, in the library's column order: the
    symmetric pairs of alpha and beta1 (row by row), the beta_plus
    diagonal (interior and tight cases only: the strict cone pins it),
    then the free block (row by row)."""
    n, m = cert.pair.n, cert.pair.m
    A = np.concatenate([cert.alpha, cert.beta1]).astype(int)
    bp = cert.beta_plus if case != ZERO_GROUP_STRICT else []
    isq = 1.0 / np.sqrt(2.0)
    elems = []
    for ii in range(len(A)):
        for jj in range(ii, len(A)):
            i, j = int(A[ii]), int(A[jj])
            H = np.zeros((n, m))
            if i == j:
                H[i, i] = 1.0
            else:
                H[i, j] = isq
                H[j, i] = isq
            elems.append(H)
    if len(bp):
        H = np.zeros((n, m))
        H[bp, bp] = 1.0 / np.sqrt(len(bp))
        elems.append(H)
    if case == INTERIOR_GROUP:
        free_rows = np.concatenate([cert.beta0, cert.gamma]).astype(int)
        free_cols = np.concatenate([cert.beta0, cert.gamma, np.arange(n, m)]).astype(int)
    elif case == ZERO_GROUP_TIGHT:
        free_rows = cert.beta0.astype(int)
        free_cols = np.concatenate([cert.beta0, np.arange(n, m)]).astype(int)
    else:
        free_rows = free_cols = np.array([], dtype=int)
    for i in free_rows:
        for j in free_cols:
            H = np.zeros((n, m))
            H[i, j] = 1.0
            elems.append(H)
    return elems


def dense_hull_basis(ups, pair=None):
    """The reference hull basis B (nm x hull_dim): column k is vec(U H_k
    V^T) for the k-th template element, on the spectrum's pair (or on
    `pair`).  The library never forms it."""
    pair = ups.pair if pair is None else pair
    elems = hull_elements(ups.cert, ups.case)
    if not elems:
        return np.zeros((pair.n * pair.m, 0))
    return np.column_stack([vec(pair.U @ H @ pair.V.T) for H in elems])


def _rotated(rng, X, Gamma, W):
    U = random_orthogonal(rng, X.shape[0])
    V = random_orthogonal(rng, X.shape[1])
    return U @ X @ V.T, U @ Gamma @ V.T, U @ W @ V.T


def tilt_family():
    """The acceptance gate's tilt family (criterion 09): (label, spec,
    expected status) triples, 10 Stable and 10 Unstable."""
    rng = np.random.default_rng(909)
    fam = []

    def add(label, X, Gamma, kappa, W, expected, rotate=False):
        if rotate:
            X, Gamma, W = _rotated(rng, X, Gamma, W)
        Q = np.eye(X.size) if W is None else projector_complement(W)
        fam.append((label, make_quadratic_spec(X, Gamma, kappa, Q), expected))

    X3 = np.diag([3.0, 2.0, 1.0])
    G3 = np.diag([1.0, 1.0, 0.0])
    X6 = np.diag([3.0, 2.0, 2.0, 2.0, 2.0, 1.0])
    G6 = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

    def E(n, m, pairs):
        M = np.zeros((n, m))
        for i, j, v in pairs:
            M[i, j] = v
        return M

    # ---- Stable: definite Hessians
    g = np.random.default_rng(1)
    for case in (INTERIOR, ZERO_STRICT, ZERO_TIGHT):
        X, Gamma, kappa, _ = random_membership_instance(g, case=case)
        add(f"pd-{case}", X, Gamma, kappa, None, "Stable")
    # ---- Stable: kernel transverse to the direction set
    add("skew-distinct", X3, G3, 2, E(3, 3, [(0, 1, 1 / np.sqrt(2)), (1, 0, -1 / np.sqrt(2))]), "Stable")
    add("alpha-gamma-entry", X3, G3, 2, E(3, 3, [(0, 2, 1.0)]), "Stable", rotate=True)
    add("skew-cross-split", X6, G6, 3, E(6, 6, [(2, 3, 1 / np.sqrt(2)), (3, 2, -1 / np.sqrt(2))]), "Stable")
    add(
        "strict-trivial-hull",
        np.hstack([np.diag([2.0, 1.0, 0.0, 0.0]), np.zeros((4, 0))]),
        np.diag([1.0, 1.0, 0.5, 0.2]),
        3,
        E(4, 4, [(2, 2, 1.0)]),
        "Stable",
    )
    add("rect-offblock", np.hstack([np.diag([3.0, 1.0]), np.zeros((2, 2))]),
        np.hstack([np.diag([1.0, 0.0]), np.zeros((2, 2))]), 1,
        E(2, 4, [(0, 1, 1.0)]), "Stable", rotate=True)
    add("skew-plus-group", np.diag([2.0, 2.0, 1.0]), np.diag([0.5, 0.5, 0.0]), 1,
        E(3, 3, [(0, 1, 1 / np.sqrt(2)), (1, 0, -1 / np.sqrt(2))]), "Stable")
    add("zero-col-entry", np.hstack([np.diag([2.0, 1.0, 0.0]), np.zeros((3, 2))]),
        np.hstack([np.diag([1.0, 1.0, 0.4]), np.zeros((3, 2))]), 3,
        E(3, 5, [(2, 3, 1.0)]), "Stable")

    # ---- Unstable: Hessian kernel spanned by a certified set element
    add("top-slide", np.diag([2.0, 1.0]), np.diag([1.0, 0.0]), 1,
        E(2, 2, [(0, 0, 1.0)]), "Unstable")
    add("beta1-slide", X3, G3, 2, E(3, 3, [(1, 1, 1.0)]), "Unstable", rotate=True)
    add("varpi-pair", np.diag([3.0, 2.0, 2.0, 1.0]), np.diag([1.0, 0.5, 0.5, 0.0]), 2,
        E(4, 4, [(1, 1, 1 / np.sqrt(2)), (2, 2, 1 / np.sqrt(2))]), "Unstable")
    add("spectral-varpi", np.diag([2.0, 2.0, 1.0]), np.diag([0.5, 0.5, 0.0]), 1,
        E(3, 3, [(0, 0, 1 / np.sqrt(2)), (1, 1, 1 / np.sqrt(2))]), "Unstable", rotate=True)
    add("varpi-wide", X6, np.diag([1.0, 0.7, 0.7, 0.3, 0.3, 0.0]), 3,
        E(6, 6, [(1, 1, 0.5), (2, 2, 0.5), (3, 3, 0.5), (4, 4, 0.5)]), "Unstable")
    add("nuclear-strict-grow", np.diag([2.0, 1.0, 0.0, 0.0]),
        np.diag([1.0, 1.0, 1.0, 0.3]), 4, E(4, 4, [(2, 2, 1.0)]), "Unstable")
    add("tight-joint-grow", np.diag([2.0, 1.0, 0.0, 0.0]),
        np.diag([1.0, 1.0, 1.0, 0.0]), 3,
        E(4, 4, [(2, 2, 1.0), (3, 3, 1.0)]), "Unstable")
    add("tight-rect-grow", np.hstack([np.diag([2.0, 1.0, 0.0, 0.0]), np.zeros((4, 2))]),
        np.hstack([np.diag([1.0, 1.0, 1.0, 0.0]), np.zeros((4, 2))]), 3,
        E(4, 6, [(2, 2, 1.0), (3, 3, 1 / np.sqrt(2)), (3, 4, 1 / np.sqrt(2))]), "Unstable")
    add("degenerate-one-way", X6, G6, 3, E(6, 6, [(1, 1, 1.0)]), "Unstable")
    add("rank-zero-grow", np.zeros((2, 3)), E(2, 3, [(0, 0, 1.0)]), 1,
        E(2, 3, [(0, 0, 1.0)]), "Unstable")
    return fam


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
