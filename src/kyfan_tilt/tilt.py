"""Tilt-stability analysis via the kernel-intersection criterion.

The decision object is a structured set of matrix directions built from the
simultaneous SVD certificate of (Xbar, Gamma_bar := -nu * grad theta(Xbar)):
a block-sparsity template whose linear hull and residual inequality (the
critical cone's sandwich, with its bounds from secder.sandwich) are
recorded separately.  The set is exact, equal to its hull, when the
sandwich has at most one of its three terms (lower side, upper side,
varpi pin).  The verdict procedure, with H the (PSD) Hessian of theta at
Xbar and B an orthonormal basis of the hull:

  1. R := B^T H B, the Hessian restricted to the hull; since H is PSD,
     ker H  intersect  span B = B ker R (the reduced-Hessian test), so H
     itself is never factored.  B = (U kron V) S is the simultaneous SVD
     applied to a block selection S, so R is contracted from the Hessian
     factor (Q, or A for least squares) and column blocks of U and V, a
     band of the factor's rows at a time; B itself is never formed,
  2. N := B * (eigenvectors of R with eigenvalue <= the kernel cutoff),
     built for those q columns only: R's eigenvalues alone give q and
     lambda_min, so q = 0 computes no vector; for q = 1 on a hull wider
     than _EIGH_MAX_SIDE with a clear gap the vector comes from shifted
     inverse iteration, checked by its residual, and otherwise (q >= 2, a
     small hull, a narrow gap, a failed check) from the full
     eigendecomposition,
  3. N = {0}                 -> Stable (sufficient certificate),
  4. N != {0} and exact      -> Unstable with the unit element of N that
                                depends on span N alone (see tilt_check),
  5. otherwise               -> maximize the (concave, 1-homogeneous)
                                sandwich margin over the unit sphere of N;
                                a feasible point is an Unstable witness,
                                exhaustion degrades to Inconclusive.

Phase 5 never reports Unstable from the hull alone: a witness must satisfy
the recorded inequality within tolerance.  Steps 1-2 run once per analysis:
rotating the degenerate blocks of the simultaneous SVD changes neither the
hull's span nor the margin, so each rotation sample is only one more round
of phase 5, on a random orthonormal frame of the same N.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .io import unvec, vec
from .secder import ZERO_GROUP_STRICT, ZERO_GROUP_TIGHT, fine_case, sandwich
from .spectral import SvdPair, fro_norm, sym
from .subgrad import INTERIOR_GROUP, SubgradCertificate, subdiff_membership

__all__ = [
    "QuadraticTheta",
    "LeastSquaresTheta",
    "ProblemSpec",
    "HullBlocks",
    "UpsilonSpec",
    "TiltVerdict",
    "TiltOptions",
    "StationarityError",
    "build_upsilon",
    "tilt_check",
    "upsilon_residuals",
    "STABLE",
    "UNSTABLE",
    "INCONCLUSIVE",
]

STABLE = "Stable"
UNSTABLE = "Unstable"
INCONCLUSIVE = "Inconclusive"


class StationarityError(ValueError):
    """-nu * grad theta(Xbar) is not a subgradient; carries a best-effort
    distance diagnostic in .distance and the first failed membership
    condition in .first_failed."""

    def __init__(self, message, distance=None, first_failed=None):
        super().__init__(message)
        self.distance = distance
        self.first_failed = first_failed


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class QuadraticTheta:
    """theta(X) = 0.5 vec(X)^T Q vec(X) + <L, X>, row-major vec.

    grad takes one matrix or a stack (..., n, m)."""

    Q: np.ndarray
    L: np.ndarray

    def grad(self, X):
        *lead, n, m = X.shape
        return (self.Q @ X.reshape(*lead, n * m, 1)).reshape(X.shape) + self.L

    def hessian(self):
        return np.asarray(self.Q, dtype=float)

    def check_hessian(self, nm: int, tols: Tolerances, bound: float):
        """Q must be symmetric PSD nm x nm (bound: hessian_bound()).  One pass
        over square tiles sums ||Q - Q^T||_F and writes S = sym(Q) + psd_rel *
        max(1, ||Q||_F) * I as its lower block columns only, for K = ceil(nm /
        _TILE) blocks of even width.  PSD is their block Cholesky factorization
        in place (_block_cholesky_ok), so besides Q about nm^2 / 2 + nm * _TILE
        / 2 floats are held.  The eigenvalues are computed only on failure, for
        the lambda_min of the message, after the columns are dropped."""
        Q = self.hessian()
        if Q.shape != (nm, nm):
            raise ValueError(f"Hessian must be {nm} x {nm}, got {Q.shape}")
        hscale = max(1.0, bound)
        shift = tols.psd_rel * hscale
        K = -(-nm // _TILE)
        e = [k * nm // K for k in range(K + 1)]
        cols = [np.empty((nm - e[k], e[k + 1] - e[k])) for k in range(K)]
        skew_sq = 0.0
        for k, C in enumerate(cols):
            J = slice(e[k], e[k + 1])
            for i in range(k, K):
                I = slice(e[i], e[i + 1])
                A, Bt = Q[I, J], Q[J, I].T
                D = A - Bt
                skew_sq += (1.0 if i == k else 2.0) * float(np.vdot(D, D))
                tile = C[e[i] - e[k] : e[i + 1] - e[k]]
                np.add(A, Bt, out=tile)
                tile *= 0.5
            w = C.shape[1]
            C[:w].flat[:: w + 1] += shift
        if math.sqrt(skew_sq) > tols.orth * hscale * nm:
            raise ValueError("Hessian of theta must be symmetric")
        if not _block_cholesky_ok(cols):
            del cols
            lmin = np.linalg.eigvalsh(sym(Q))[0]
            raise ValueError(
                f"Hessian of theta must be PSD at Xbar (lambda_min = {lmin:.3e})"
            ) from None

    def hessian_bound(self) -> float:
        """||Q||_F, an upper bound on lambda_max(Q)."""
        return fro_norm(self.hessian())

    def restricted_hessian(self, hull: HullBlocks):
        """sym(B^T Q B), a band of Q's rows at a time: the rows of matrix
        rows lo..hi-1 of G add B[band]^T (Q[band] B)."""
        Q = self.hessian()
        m = hull.m
        R = np.zeros((hull.dim, hull.dim))
        for lo, hi in hull.bands(m):
            hull.left(hull.right(Q[lo * m : hi * m]), lo, hi, R)
        return sym(R)

    def hessian_times(self, w):
        return self.Q @ w


@dataclasses.dataclass
class LeastSquaresTheta:
    """theta(X) = 0.5 * || A vec(X) - b ||^2.

    The verdict never forms the Hessian A^T A: it works with A B and
    A^T (A w).  hessian() forms it for the oracles.  grad takes one matrix
    or a stack (..., n, m)."""

    A: np.ndarray
    b: np.ndarray

    def grad(self, X):
        *lead, n, m = X.shape
        r = self.A @ X.reshape(*lead, n * m, 1) - self.b[:, None]
        return (self.A.T @ r).reshape(X.shape)

    def hessian(self):
        return self.A.T @ self.A

    def check_hessian(self, nm: int, tols: Tolerances, bound: float):
        """A^T A is symmetric PSD by construction; only the shape of A is
        checked."""
        if self.A.ndim != 2 or self.A.shape[1] != nm:
            raise ValueError(f"A must have {nm} columns, got shape {self.A.shape}")

    def hessian_bound(self) -> float:
        """||A||_F^2, an upper bound on lambda_max(A^T A) = ||A||_2^2."""
        return fro_norm(np.asarray(self.A, dtype=float)) ** 2

    def restricted_hessian(self, hull: HullBlocks):
        """B^T A^T A B, as the sum of (A_k B)^T (A_k B) over bands A_k of
        A's rows."""
        A = np.asarray(self.A, dtype=float)
        R = np.zeros((hull.dim, hull.dim))
        for lo, hi in hull.bands(1, len(A)):
            AB = hull.right(A[lo:hi])
            R += AB.T @ AB
        return R

    def hessian_times(self, w):
        return self.A.T @ (self.A @ w)


def _capped_simplex_proj(h, mass):
    """Euclidean projection of h onto {0 <= x <= 1, sum x = mass}.

    The projection is clip(h - lam, 0, 1) for the lam at which
    s(lam) = sum clip(h_i - lam, 0, 1) equals mass.  s is nonincreasing and
    piecewise linear with breakpoints h_i - 1 and h_i, so it is evaluated at
    every breakpoint and lam is interpolated on the piece where s reaches
    mass.  h is one singular-value group, so the k x 2k table is small.
    """
    h = np.asarray(h, dtype=float)
    k = len(h)
    if k == 0:
        return h.copy()
    mass = min(max(float(mass), 0.0), float(k))
    knots = np.sort(np.concatenate((h - 1.0, h)))
    s = np.clip(h[None, :] - knots[:, None], 0.0, 1.0).sum(axis=1)
    j = int(np.argmax(s <= mass))  # s is k at the first breakpoint, 0 at the last
    if j == 0:
        return np.ones(k)
    lam = knots[j - 1] + (s[j - 1] - mass) / (s[j - 1] - s[j]) * (knots[j] - knots[j - 1])
    return np.clip(h - lam, 0.0, 1.0)


def stationarity_gap(X, Gamma, kappa, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Best-effort distance from Gamma to the subdifferential at X.

    Projects onto the diagonal subgradient family of the canonical ordered
    SVD of X (an upper bound on the true distance; 0 iff membership holds
    up to the canonical pair's alignment)."""
    from .spectral import group_singular, svd_ordered

    X = np.asarray(X, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    pair = svd_ordered(X)
    grouping = group_singular(pair, kappa, tols=tols)
    K = pair.U.T @ Gamma @ pair.V
    h = np.diag(K[:, : pair.n]).copy()
    target = np.zeros_like(h)
    r, s = grouping.r, grouping.s
    if r <= s:
        for l in range(r - 1):
            target[grouping.groups[l]] = 1.0
        beta = grouping.groups[r - 1]
        mass = kappa - sum(len(grouping.groups[l]) for l in range(r - 1))
        target[beta] = _capped_simplex_proj(h[beta], mass)
    else:
        a = grouping.a
        target[a] = 1.0
        beta = grouping.b
        clipped = np.clip(h[beta], 0.0, 1.0)
        mass = kappa - len(a)
        if np.sum(clipped) > mass:
            clipped = _capped_simplex_proj(h[beta], mass)
        target[beta] = clipped
    off = K.copy()
    off[np.arange(pair.n), np.arange(pair.n)] = 0.0
    return math.sqrt(fro_norm(off) ** 2 + fro_norm(h - target) ** 2)


@dataclasses.dataclass
class ProblemSpec:
    """min_X nu * theta(X) + Psi_kappa(X), analyzed at the candidate Xbar.

    theta is QuadraticTheta or LeastSquaresTheta.
    """

    Xbar: np.ndarray
    nu: float
    kappa: int
    theta: object

    @property
    def n(self) -> int:
        return self.Xbar.shape[0]

    @property
    def m(self) -> int:
        return self.Xbar.shape[1]

    def hessian(self) -> np.ndarray:
        return self.theta.hessian()

    def gamma_bar(self) -> np.ndarray:
        return -self.nu * self.theta.grad(np.asarray(self.Xbar, dtype=float))

    @functools.cached_property
    def hessian_bound(self) -> float:
        """theta.hessian_bound(), once per spec: for the PSD check and the cutoff."""
        return self.theta.hessian_bound()

    def validate(self, tols: Tolerances = DEFAULT_TOLS) -> SubgradCertificate:
        """Check shapes, PSD Hessian, and stationarity; return the
        subgradient certificate for (Xbar, Gamma_bar)."""
        X = np.asarray(self.Xbar, dtype=float)
        if X.ndim != 2 or X.shape[0] > X.shape[1]:
            raise ValueError(f"Xbar must be n x m with n <= m, got {X.shape}")
        n, m = X.shape
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not (1 <= self.kappa <= n):
            raise ValueError(f"kappa must be in [1, {n}], got {self.kappa}")
        self.theta.check_hessian(n * m, tols, self.hessian_bound)
        Gamma = self.gamma_bar()
        ok, cert, why = subdiff_membership(
            X, Gamma, self.kappa, tols=tols, with_diagnostics=True
        )
        if not ok:
            gap = stationarity_gap(X, Gamma, self.kappa, tols=tols)
            raise StationarityError(
                f"-nu * grad theta(Xbar) is not a subgradient of Psi_kappa at "
                f"Xbar (best-effort distance {gap:.3e})",
                distance=gap,
                first_failed=why,
            )
        return cert


# ---------------------------------------------------------------------------
# the structured direction set
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pair_positions(a):
    """Flat positions kl, lk of (k, l) and (l, k), k <= l row by row, in an
    a x a block, with the weights of the symmetric pair elements: a product
    with B gathers (P[kl] + P[lk]) * gather, an expansion scatters
    c * scatter to both positions.  Shared, so never written to."""
    k, l = np.triu_indices(a)
    diag = k == l
    return (
        k * a + l,
        l * a + k,
        np.where(diag, 1.0, 1.0 / math.sqrt(2.0)),
        np.where(diag, 0.5, 1.0 / math.sqrt(2.0)),
    )


class HullBlocks:
    """The hull's orthonormal basis B = (U kron V) S, held as blocks of U and
    V: B itself (nm x dim) is never formed.

    With row-major vec, vec(U H V^T) = (U kron V) vec(H), and S selects the
    block template in U^T G V coordinates, in this order:
      1. the symmetric pairs of `pairs` (alpha and beta1): E_kk, and
         (E_kl + E_lk) / sqrt 2 for k < l, row by row;
      2. the beta_plus diagonal I / sqrt|beta_plus|, when `beta_plus` is
         nonempty (always empty in the strict case);
      3. the free block: E_ij for i in `rows`, j in `cols`, row by row.
    So a product with B contracts one side with the V columns of the pairs
    and the free block at once and then each block with its U columns; the
    beta_plus column is held densely (nm floats), as bp_col.  The column
    blocks, bp_col and the gather indices are computed once, here.
    """

    def __init__(self, pair: SvdPair, pairs, beta_plus, rows, cols):
        U, V = pair.U, pair.V
        self.n, self.m = pair.n, pair.m
        self.pairs, self.beta_plus, self.rows, self.cols = pairs, beta_plus, rows, cols
        self.UP, self.UR = U[:, pairs], U[:, rows]
        # V columns of the pairs, then those of the free block
        self.V = V[:, np.concatenate([pairs, cols])]
        self.kl, self.lk, self.scatter, self.gather = _pair_positions(len(pairs))
        self.bp_col = None
        if len(beta_plus):
            D = U[:, beta_plus] @ V[:, beta_plus].T
            self.bp_col = D.ravel() / math.sqrt(len(beta_plus))
        self.free_at = len(self.kl) + (self.bp_col is not None)
        self.dim = self.free_at + len(rows) * len(cols)

    def bands(self, row_floats, total=None):
        """(lo, hi) bands over `total` items (default the n matrix rows of
        G), each item holding row_floats rows of a product with B: a band's
        product and the temporaries that contract it again, about 3 * dim
        floats a row, stay within _STACK_FLOATS."""
        total = self.n if total is None else total
        per_row = 3 * self.dim
        step = max(1, _STACK_FLOATS // max(1, row_floats * per_row))
        return [(lo, min(lo + step, total)) for lo in range(0, total, step)]

    def right(self, M):
        """M @ B for a (k, nm) M, contracted a chunk of rows at a time."""
        k, n, m = len(M), self.n, self.m
        a, npair = len(self.pairs), len(self.kl)
        out = np.empty((k, self.dim))
        step = max(1, _SUB_FLOATS // max(1, n * self.V.shape[1] + a * a))
        for lo in range(0, k, step):
            rows = slice(lo, min(lo + step, k))
            j = rows.stop - lo
            Y = (M[rows].reshape(j * n, m) @ self.V).reshape(j, n, self.V.shape[1])
            if npair:
                P = (self.UP.T @ Y[:, :, :a]).reshape(j, -1)
                pair_sums = P.take(self.kl, axis=1) + P.take(self.lk, axis=1)
                out[rows, :npair] = pair_sums * self.gather
            if self.bp_col is not None:
                out[rows, npair] = M[rows] @ self.bp_col
            if self.dim > self.free_at:
                out[rows, self.free_at :] = (self.UR.T @ Y[:, :, a:]).reshape(j, -1)
        return out

    def left(self, X, lo, hi, out):
        """Add B[band]^T X into the (dim, k) `out`, for a (band rows, k) X,
        where the band is the vec rows of matrix rows lo..hi-1 of G."""
        b, k, m = hi - lo, X.shape[1], self.m
        a, npair = len(self.pairs), len(self.kl)
        Z = self.V.T @ X.reshape(b, m, k)
        if npair:
            P = (self.UP[lo:hi].T @ Z[:, :a].reshape(b, -1)).reshape(-1, k)
            pair_sums = P.take(self.kl, axis=0)
            pair_sums += P.take(self.lk, axis=0)
            pair_sums *= self.gather[:, None]
            out[:npair] += pair_sums
        if self.bp_col is not None:
            out[npair] += self.bp_col[lo * m : hi * m] @ X
        if self.dim > self.free_at:
            out[self.free_at :] += (self.UR[lo:hi].T @ Z[:, a:].reshape(b, -1)).reshape(-1, k)

    def expand(self, C):
        """B @ C for a (dim, k) C, as a C-ordered (nm, k) array."""
        k, n, m = C.shape[1], self.n, self.m
        a, npair = len(self.pairs), len(self.kl)
        W = np.zeros((k, n, m))
        if npair:
            H = np.zeros((k, a * a))
            H[:, self.kl] = H[:, self.lk] = C[:npair].T * self.scatter
            W += self.UP @ H.reshape(k, a, a) @ self.V[:, :a].T
        if self.bp_col is not None:
            W += np.multiply.outer(C[npair], self.bp_col.reshape(n, m))
        if self.dim > self.free_at:
            F = C[self.free_at :].T.reshape(k, len(self.rows), len(self.cols))
            W += self.UR @ F @ self.V[:, a:].T
        return np.ascontiguousarray(W.reshape(k, n * m).T)

    def off_hull(self, H):
        """||H - P H||_F for H = U^T W V, P the orthogonal projection onto
        the template: the distance of W from the hull."""
        D = np.array(H, dtype=float)
        A, bp = (self.pairs[:, None], self.pairs), self.beta_plus
        D[A] -= sym(D[A])
        if len(bp):
            D[bp, bp] -= D[bp, bp].mean()
        D[self.rows[:, None], self.cols] = 0.0
        return fro_norm(D)


@dataclasses.dataclass
class UpsilonSpec:
    """Structured direction set: linear hull plus residual inequality.

    hull holds an orthonormal basis of the linear hull in vectorized
    G-space as blocks of the pair's U and V.  The recorded cone_constraint
    is the sandwich inequality of the block template ("none" when no
    inequality survives the block dimensions); exact=True means the set
    equals its hull, so any nonzero hull element in the Hessian kernel is
    already a witness.
    """

    case: str
    pair: SvdPair
    block_dims: dict
    hull: HullBlocks
    cone_constraint: str
    exact: bool
    cert: SubgradCertificate


def _hull_blocks(cert: SubgradCertificate, case: str) -> HullBlocks:
    """The block template of the case on the certificate's pair."""
    n, m = cert.pair.n, cert.pair.m
    pairs = np.concatenate([cert.alpha, cert.beta1]).astype(int)
    bp = cert.beta_plus.astype(int)
    if case == INTERIOR_GROUP:
        rows = np.concatenate([cert.beta0, cert.gamma]).astype(int)
        cols = np.concatenate([cert.beta0, cert.gamma, np.arange(n, m)]).astype(int)
    elif case == ZERO_GROUP_TIGHT:
        rows = cert.beta0.astype(int)
        cols = np.concatenate([cert.beta0, np.arange(n, m)]).astype(int)
    else:
        # the strict cone pins every beta row outside beta1 x beta1, so no
        # free block and no beta_plus diagonal
        rows = cols = bp = np.array([], dtype=int)
    return HullBlocks(cert.pair, pairs, bp, rows, cols)


# the recorded inequality of a non-exact set, per case
_CONSTRAINTS = {
    INTERIOR_GROUP: "lambda_max(S(D_beta0)) <= varpi <= lambda_min(C_beta1)",
    ZERO_GROUP_TIGHT: "max(sigma_1([D E]), 0) <= varpi <= lambda_min(C_beta1)",
}


def build_upsilon(
    spec: ProblemSpec,
    tols: Tolerances = DEFAULT_TOLS,
    cert: SubgradCertificate | None = None,
) -> UpsilonSpec:
    """Assemble the structured set for (Xbar, Gamma_bar) on the
    certificate's simultaneous SVD.

    Raises StationarityError when Gamma_bar is not a subgradient.  The hull
    is built once per analysis: rotating the degenerate blocks of the SVD
    leaves its span and the sandwich margin unchanged.  It is held as index
    blocks and column blocks of U and V (HullBlocks); no nm-sized basis is
    formed.
    """
    if cert is None:
        cert = spec.validate(tols=tols)
    pair = cert.pair
    n, m = pair.n, pair.m
    case = fine_case(cert)
    # exact iff the sandwich has at most one term: a lower side, an upper
    # side (beta1) and a varpi pin (beta_plus); the strict case has none
    lower_side = case == ZERO_GROUP_TIGHT or len(cert.beta0) > 0
    terms = lower_side + (len(cert.beta1) > 0) + (len(cert.beta_plus) > 0)
    exact = case == ZERO_GROUP_STRICT or terms <= 1
    constraint = "none" if exact else _CONSTRAINTS[case]
    block_dims = {
        "alpha": len(cert.alpha),
        "beta1": len(cert.beta1),
        "beta_plus": len(cert.beta_plus),
        "beta0": len(cert.beta0),
        "gamma": len(cert.gamma),
        "c": m - n,
    }
    return UpsilonSpec(
        case=case,
        pair=pair,
        block_dims=block_dims,
        hull=_hull_blocks(cert, case),
        cone_constraint=constraint,
        exact=exact,
        cert=cert,
    )


def _sandwich(ups: UpsilonSpec, H: np.ndarray):
    """(margin, lower, upper, varpi) of the recorded inequality on a stack H
    of U^T W V matrices, shape (k, n, m): the bounds of secder.sandwich and
    the margin, each a length-k array (varpi is None without beta_plus).

    margin >= 0 means W satisfies the constraint; +inf when vacuous.  With
    an empty beta_plus the scalar is existential and the margin is the
    interval length upper - lower."""
    lower, upper, varpi = sandwich(ups.cert, H)
    up_ok, lo_ok = np.isfinite(upper), np.isfinite(lower)
    if varpi is None:
        return np.where(up_ok & lo_ok, upper - lower, math.inf), lower, upper, None
    margin = np.minimum(
        np.where(up_ok, upper - varpi, math.inf),
        np.where(lo_ok, varpi - lower, math.inf),
    )
    return margin, lower, upper, varpi


def upsilon_residuals(ups: UpsilonSpec, W: np.ndarray) -> dict:
    """Membership residuals of W: distance to the hull plus the sandwich
    margin (negative margin = violated inequality)."""
    H = ups.pair.U.T @ np.asarray(W, dtype=float) @ ups.pair.V
    off_hull = ups.hull.off_hull(H)
    margin, lower, upper, varpi = (
        None if a is None else float(a[0]) for a in _sandwich(ups, H[None])
    )
    return {
        "off_hull": off_hull,
        "margin": margin,
        "lower": lower,
        "upper": upper,
        "varpi": varpi,
    }


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TiltVerdict:
    """status in {Stable, Unstable, Inconclusive}; certificate holds the
    proof data (restricted_lambda_min, the smallest eigenvalue of the
    Hessian restricted to the hull, against restricted_cutoff for Stable;
    witness residuals for Unstable; search diagnostics for Inconclusive).
    witness is a unit-Frobenius matrix."""

    status: str
    certificate: dict
    witness: np.ndarray | None = None


@dataclasses.dataclass
class TiltOptions:
    seed: int = 0
    rotation_samples: int = 0


# witness search: starts on the unit sphere of the intersection, ascent
# steps per start, and the finite-difference step of the supergradients
_SEARCH_STARTS = 64
_SEARCH_STEPS = 500
_FD_STEP = 1e-6
# a start stalls, and stops, after _STALL_STEPS consecutive steps in which
# its margin never rose above its best by more than _STALL_RISE times the
# remaining distance tols.margin - best to a hit.  The rise is relative
# because near a kink the ascent oscillates with shrinking steps, and tiny
# absolute rises would keep such a start running to the step limit
_STALL_STEPS = 20
_STALL_RISE = 1e-3
# floats held by one stacked margin evaluation of the witness search (its
# coefficient rows and their W, U^T W and U^T W V); larger batches of
# directions are evaluated in chunks of this size
_STACK_FLOATS = 1 << 20
# floats held by the contraction temporaries of one chunk of rows in a
# product M @ B with the hull basis; the bands of such products that the
# restricted Hessian sums are sized by _STACK_FLOATS
_SUB_FLOATS = 1 << 16
# widest block of a quadratic theta's Hessian check: the tiles of its
# symmetry pass and the diagonal blocks of its Cholesky factorization
_TILE = 256
# inverse iteration for a lone kernel vector of the restricted Hessian
# (_lone_kernel_vector): the smallest relative eigenvalue gap it takes, its
# shift below lambda_min as a share of the gap, its start's seed, its steps
_INVIT_GAP_REL = 1e-6
_INVIT_SHIFT_REL = 1e-8
_INVIT_SEED = 0
_INVIT_STEPS = 4
# up to this side the lone kernel vector comes from eigh instead: there the
# LAPACK call costs less than the Python steps of inverse iteration (eigh
# 31 against 34 us at side 16, 37 against 36 us at side 17, timeit minima
# with OpenBLAS on 2 vCPUs)
_EIGH_MAX_SIDE = 16


def _lower_inv(L):
    """Inverse of a nonsingular lower-triangular L, by halves:
    [A 0; C D]^-1 = [A^-1 0; -D^-1 C A^-1 D^-1].  Below side 32 the
    general LAPACK inverse is as fast; above it the halving is faster
    (0.5 against 2.4 ms at side 256 with OpenBLAS on 2 vCPUs)."""
    w = len(L)
    if w <= 32:
        return np.linalg.inv(L)
    h = w // 2
    Ai, Di = _lower_inv(L[:h, :h]), _lower_inv(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = Ai, Di
    out[h:, :h] = -(Di @ (L[h:, :h] @ Ai))
    return out


def _block_cholesky_ok(cols) -> bool:
    """Whether the symmetric matrix S held as its lower block columns
    cols[k] = S[e_k:, e_k:e_k+1] is positive definite.

    Right-looking block Cholesky in place, which overwrites cols and keeps
    no factor: each diagonal block goes to LAPACK as its transpose (Fortran
    order, the same values), the rows below it become L21 = S21 L11^-T,
    and L21 L21^T is subtracted from the later columns."""
    for k, C in enumerate(cols):
        w = C.shape[1]
        try:
            L11 = np.linalg.cholesky(C[:w].T)
        except np.linalg.LinAlgError:
            return False
        if len(C) == w:
            continue
        L21 = C[w:] @ _lower_inv(L11).T
        o = 0
        for D in cols[k + 1 :]:
            p = o + D.shape[1]
            D -= L21[o:] @ L21[o:p].T
            o = p
    return True


@functools.lru_cache(maxsize=None)
def _invit_start(d):
    """The fixed Gaussian start of _lone_kernel_vector for side d (not the
    ones vector, to which a structured kernel can be orthogonal).  Shared,
    so never written to."""
    return np.random.default_rng(_INVIT_SEED).standard_normal(d)


def _lone_kernel_vector(R, lam):
    """The unit eigenvector of the symmetric d x d R for its smallest
    eigenvalue lam[0] (lam: R's eigenvalues, ascending), as a (d, 1) array,
    or None where the shortcut does not apply.

    With a clear gap, lam[1] - lam[0] > _INVIT_GAP_REL * max|lam|, it runs
    inverse iteration y <- (R - sigma I)^-1 y, by the inverse of the
    Cholesky factor, from a fixed Gaussian start, with sigma = lam[0] -
    max(_INVIT_SHIFT_REL * gap, 4 d eps max|lam|): each step shrinks every
    other eigencomponent by (lam[0] - sigma) / (lam[j] - sigma) <=
    max(_INVIT_SHIFT_REL, 4 d eps / _INVIT_GAP_REL).  After step 2 and each
    later one (a start with a small kernel part needs more, up to
    _INVIT_STEPS), y is kept once ||R y - lam[0] y|| <= d eps (max|lam| +
    ||R||_F): d eps ||R||_F bounds the rounding of the residual itself, as
    |fl(R y) - R y| <= gamma_d |R| |y| entrywise, gamma_d < d eps.  None on a
    narrow gap, a failed factorization or a residual above the bound.  R's
    diagonal is shifted in place and restored.  For d > _EIGH_MAX_SIDE."""
    d = len(R)
    eps = np.finfo(float).eps
    scale = max(abs(lam[0]), abs(lam[-1]))
    gap = lam[1] - lam[0]
    if not gap > _INVIT_GAP_REL * scale:
        return None
    sigma = lam[0] - max(_INVIT_SHIFT_REL * gap, 4 * d * eps * scale)
    diag = R.diagonal().copy()
    R.flat[:: d + 1] -= sigma
    try:
        Li = _lower_inv(np.linalg.cholesky(R))
    except np.linalg.LinAlgError:
        return None
    finally:
        R.flat[:: d + 1] = diag
    y = _invit_start(d)
    for step in range(_INVIT_STEPS):
        y = Li.T @ (Li @ y)
        y /= fro_norm(y)
        if step and fro_norm(R @ y - lam[0] * y) <= d * eps * (scale + fro_norm(R)):
            return y[:, None]
    return None


def _restricted_kernel(R, cutoff: float):
    """(Y, lambda_min) of the symmetric R: the orthonormal eigenvectors of R
    with eigenvalue <= cutoff as the q columns of Y, and R's smallest
    eigenvalue.

    The spectrum comes from eigvalsh; q = 0 needs no vectors.  A lone
    vector (q = 1) of a side above _EIGH_MAX_SIDE comes from
    _lone_kernel_vector; eigh gives the vectors when q >= 2, on the small
    sides, or where the shortcut does not apply.  For q >= 2 the basis
    itself matters, not only its span: the witness search starts from its
    unit axes."""
    lam = np.linalg.eigvalsh(R)
    q = int(np.count_nonzero(lam <= cutoff))
    if q == 0:
        return np.zeros((len(R), 0)), float(lam[0])
    Y = _lone_kernel_vector(R, lam) if q == 1 and len(R) > _EIGH_MAX_SIDE else None
    if Y is None:
        Y = np.linalg.eigh(R)[1][:, :q]
    return Y, float(lam[0])


def _kernel_in_hull(theta, hull: HullBlocks, cutoff: float):
    """Orthonormal basis of ker H  intersect  span B, and lambda_min(B^T H B)
    (+inf on an empty hull).

    For PSD H and orthonormal B the intersection is B ker(B^T H B): the basis
    is B times the eigenvectors of B^T H B with eigenvalue <= cutoff, built
    only for those columns.  The eigenvalues come first (eigvalsh), and
    eigenvectors only for the q at or below the cutoff (_restricted_kernel):
    none on a Stable verdict, one by shifted inverse iteration with a
    residual check when q = 1, the hull is wider than _EIGH_MAX_SIDE and
    the gap is clear, and otherwise from eigh."""
    if hull.dim == 0:
        return np.zeros((hull.n * hull.m, 0)), math.inf
    Y, lam_min = _restricted_kernel(theta.restricted_hessian(hull), cutoff)
    N = hull.expand(Y) if Y.shape[1] else np.zeros((hull.n * hull.m, 0))
    return N, lam_min


def _rowdot(A, B):
    """Row-wise dot products, each rounded as the 1-D `a @ b` (BLAS dot)."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _search_witness(ups, N, rng, tols: Tolerances):
    """Maximize the sandwich margin over the unit sphere of span(N).

    The margin is a minimum of concave 1-homogeneous spectral functions of
    the direction, so projected supergradient ascent from multiple starts
    finds the global max on the sphere; finite-difference supergradients
    suffice at this scale.  On a one-dimensional span the sphere is
    {+e, -e}: those two are the only starts and there is nothing to ascend.

    The result is that of running the starts one after another, stopping at
    the first margin above tols.margin and accepting a best margin >=
    -tols.margin; only the schedule differs.  All starts advance in
    lockstep: each step evaluates the 2q central-difference probes of every
    active start in one stacked evaluation (chunked to _STACK_FLOATS) and
    the new points in another.  A start leaves the lockstep when it hits,
    goes non-finite, flattens (projected gradient below 1e-12), stalls (see
    _STALL_STEPS), or when a lower-indexed start has hit, since the
    sequential search would never reach it.  Afterwards the first start
    that hit ends the search: the best margin is taken over the starts up
    to it (ties to the earlier start, and within a start to the earlier
    step), and starts_used and margin_evals count what the sequential
    search would have run."""
    q = N.shape[1]
    n, m = ups.pair.n, ups.pair.m
    U, V = ups.pair.U, ups.pair.V
    rows = max(1, _STACK_FLOATS // (q + 3 * n * m))

    def pair_coords(C):
        # U^T W V for each row c of C, W = unvec(N @ c); the stacked
        # products round exactly as N @ c and U.T @ W @ V do one at a time
        return U.T @ (N @ C[:, :, None]).reshape(len(C), n, m) @ V

    def stacked(k, rows_of):
        # margins at k coefficient rows, built and evaluated a chunk at a time
        out = np.empty(k)
        for lo in range(0, k, rows):
            r = np.arange(lo, min(lo + rows, k))
            out[r] = _sandwich(ups, pair_coords(rows_of(r)))[0]
        return out

    def margins(C):
        return stacked(len(C), lambda r: C[r])

    def probe_margins(points):
        # row r: point r // 2q, coordinate r % q, +h in the first q rows of
        # each point and -h in the next q, scaled back to the unit sphere
        def probes(r):
            P = points[r // (2 * q)]
            P[np.arange(len(r)), r % q] += np.where((r // q) % 2 == 0, _FD_STEP, -_FD_STEP)
            return P / np.sqrt(_rowdot(P, P))[:, None]

        return stacked(2 * q * len(points), probes).reshape(len(points), 2, q)

    # the unit axes, then random unit directions; these are drawn even when
    # q == 1, so that the rounds searched after this one see the same stream
    R = rng.standard_normal((max(0, _SEARCH_STARTS - q), q))
    C = np.vstack([np.eye(min(q, _SEARCH_STARTS), q), R / np.sqrt(_rowdot(R, R))[:, None]])
    steps = _SEARCH_STEPS
    if q == 1:
        C, steps = np.vstack([C[0], -C[0]]), 0
    S = len(C)
    vals = margins(C)
    evals = np.ones(S, dtype=int)
    best = np.where(vals > -math.inf, vals, -math.inf)
    best_c = C.copy()
    flat_for = np.zeros(S, dtype=int)  # consecutive steps without a real rise
    hit = vals > tols.margin
    first = int(np.argmax(hit)) if hit.any() else S
    active = np.flatnonzero(~hit & np.isfinite(vals) & (np.arange(S) < first))
    for t in range(steps):
        active = active[active < first]
        if not len(active):
            break
        c = C[active]
        M = probe_margins(c)
        evals[active] += 2 * q
        g = (M[:, 0] - M[:, 1]) / (2 * _FD_STEP)
        g -= _rowdot(g, c)[:, None] * c
        gn = np.sqrt(_rowdot(g, g))
        moving = ~(gn < 1e-12)
        active, c, g, gn = active[moving], c[moving], g[moving], gn[moving]
        c = c + (0.5 / (1.0 + 0.05 * t)) * g / gn[:, None]
        c /= np.sqrt(_rowdot(c, c))[:, None]
        C[active] = c
        val = margins(c)
        evals[active] += 1
        b = best[active]
        rose = val > b + _STALL_RISE * (tols.margin - b)
        flat_for[active] = np.where(rose, 0, flat_for[active] + 1)
        up = val > b
        best[active[up]] = val[up]
        best_c[active[up]] = c[up]
        now = val > tols.margin
        if now.any():
            first = min(first, int(active[now][0]))
        active = active[~now & np.isfinite(val) & (flat_for[active] < _STALL_STEPS)]
    ran = min(first + 1, S)
    i = int(np.argmax(best[:ran]))
    margin = float(best[i])
    diagnostics = {"starts_used": ran, "margin_evals": int(evals[:ran].sum()), "best_margin": margin}
    if margin >= -tols.margin:
        W = unvec(N @ best_c[i], n, m)
        W /= fro_norm(W)
        return W, diagnostics
    return None, diagnostics


def tilt_check(
    spec: ProblemSpec,
    ups: UpsilonSpec | None = None,
    options: TiltOptions | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> TiltVerdict:
    """Decide tilt stability of Xbar for min nu*theta + Psi_kappa.

    Pure given its options.seed.  The intersection N (q columns) is built
    once; each rotation sample is one more witness-search round: round 0
    searches N, round r >= 1 searches N @ R_r, R_r the Q factor of a q x q
    Gaussian from default_rng(seed).  The rounds share the search stream
    default_rng(seed + 1); the first witness ends the search, and the best
    margin is kept over the rounds (ties to the earlier round).
    """
    options = options or TiltOptions()
    if ups is None:
        ups = build_upsilon(spec, tols=tols)
    theta = spec.theta
    cutoff = max(tols.kernel_rel * spec.hessian_bound, tols.kernel_floor)
    N, lam_min = _kernel_in_hull(theta, ups.hull, cutoff)
    base_cert = {
        "hull_dim": ups.hull.dim,
        "restricted_lambda_min": lam_min,
        "restricted_cutoff": cutoff,
        "case": ups.case,
        "exact": ups.exact,
        "rotation_samples": options.rotation_samples,
    }
    q = N.shape[1]
    if q == 0:
        return TiltVerdict(STABLE, base_cert)
    base_cert["intersection_dim"] = q

    def unstable(W, round_):
        res = upsilon_residuals(ups, W)
        kres = fro_norm(theta.hessian_times(vec(W)))
        return TiltVerdict(
            UNSTABLE,
            {**base_cert, "witness_residuals": res, "kernel_residual": kres, "variant": round_},
            witness=W,
        )

    if ups.exact:
        # P e_j / ||P e_j|| for P = N N^T and j the first row of N of
        # largest norm: a function of span N alone, whatever basis the
        # kernel step returns
        w = (N * N[int(np.argmax((N * N).sum(axis=1)))]).sum(axis=1)
        W = unvec(w, spec.n, spec.m)
        W /= fro_norm(W)
        return unstable(W, 0)
    rng_rot = np.random.default_rng(options.seed) if options.rotation_samples else None
    rng = np.random.default_rng(options.seed + 1)
    rounds = 1 + options.rotation_samples
    best, best_round = -math.inf, 0
    starts_used = margin_evals = 0
    for r in range(rounds):
        frame = N if r == 0 else N @ np.linalg.qr(rng_rot.standard_normal((q, q)))[0]
        W, diag = _search_witness(ups, frame, rng, tols)
        starts_used += diag["starts_used"]
        margin_evals += diag["margin_evals"]
        if diag["best_margin"] > best:
            best, best_round = diag["best_margin"], r
        if W is not None:
            return unstable(W, r)
    return TiltVerdict(
        INCONCLUSIVE,
        {
            **base_cert,
            "search": {
                "best_margin": best,
                "variant": best_round,
                "rounds": rounds,
                "starts_used": starts_used,
                "margin_evals": margin_evals,
            },
            "note": "kernel meets the hull but no certified set member was found",
        },
    )
