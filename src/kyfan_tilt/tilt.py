"""Tilt-stability analysis via the kernel-intersection criterion.

The decision object is a structured set of matrix directions built from the
simultaneous SVD certificate of (Xbar, Gamma_bar := -nu * grad theta(Xbar)):
a block-sparsity template whose linear hull and residual inequality (an
eigenvalue / singular-value sandwich on the critical blocks) are recorded
separately.  The verdict procedure:

  1. K := kernel of the vectorized Hessian of theta at Xbar, from the one
     eigendecomposition of the analysis (ProblemSpec.hessian_factor, which
     the PSD check of validate reads as well),
  2. N := K  intersect  hull, via principal angles,
  3. N = {0}                 -> Stable (sufficient certificate),
  4. N != {0} and exact      -> Unstable with any unit element of N,
  5. otherwise               -> maximize the (concave, 1-homogeneous)
                                sandwich margin over the unit sphere of N;
                                a feasible point is an Unstable witness,
                                exhaustion degrades to Inconclusive.

Phase 5 never reports Unstable from the hull alone: a witness must satisfy
the recorded inequality within tolerance.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .io import unvec, vec
from .secder import ZERO_GROUP_STRICT, ZERO_GROUP_TIGHT, fine_case
from .spectral import SvdPair, sym
from .subgrad import INTERIOR_GROUP, SubgradCertificate, subdiff_membership

__all__ = [
    "QuadraticTheta",
    "LeastSquaresTheta",
    "ProblemSpec",
    "HessianFactor",
    "UpsilonSpec",
    "TiltVerdict",
    "TiltOptions",
    "StationarityError",
    "build_upsilon",
    "tilt_check",
    "generic_kernel_test",
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
    distance diagnostic in .distance."""

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class QuadraticTheta:
    """theta(X) = 0.5 vec(X)^T Q vec(X) + <L, X>, row-major vec."""

    Q: np.ndarray
    L: np.ndarray

    def grad(self, X):
        n, m = X.shape
        return unvec(self.Q @ vec(X), n, m) + self.L

    def hessian(self):
        return np.asarray(self.Q, dtype=float)


@dataclasses.dataclass
class LeastSquaresTheta:
    """theta(X) = 0.5 * || A vec(X) - b ||^2.

    The Hessian A^T A is formed on the first hessian() call and kept."""

    A: np.ndarray
    b: np.ndarray
    _gram: np.ndarray | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def grad(self, X):
        n, m = X.shape
        r = self.A @ vec(X) - self.b
        return unvec(self.A.T @ r, n, m)

    def hessian(self):
        if self._gram is None:
            self._gram = self.A.T @ self.A
        return self._gram


@dataclasses.dataclass
class HessianFactor:
    """One eigendecomposition of sym(H): every eigenvalue (ascending) and
    the eigenvectors with eigenvalue <= kernel_tol, an orthonormal basis of
    the kernel.  The other eigenvectors are not kept."""

    eigenvalues: np.ndarray
    kernel: np.ndarray
    kernel_tol: float


def _factor_hessian(H: np.ndarray, tols: Tolerances) -> HessianFactor:
    lam, Q = np.linalg.eigh(sym(H))
    lmax = float(lam[-1]) if len(lam) else 0.0
    ktol = max(tols.kernel_rel * max(lmax, 0.0), tols.kernel_floor)
    return HessianFactor(eigenvalues=lam, kernel=Q[:, lam <= ktol], kernel_tol=ktol)


def _capped_simplex_proj(h, mass):
    """Euclidean projection of h onto {0 <= x <= 1, sum x = mass}."""
    h = np.asarray(h, dtype=float)
    k = len(h)
    if k == 0:
        return h.copy()
    mass = min(max(float(mass), 0.0), float(k))
    lo, hi = float(np.min(h)) - 1.0, float(np.max(h))
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        s = float(np.sum(np.clip(h - lam, 0.0, 1.0)))
        if s > mass:
            lo = lam
        else:
            hi = lam
        if hi - lo < 1e-14:
            break
    return np.clip(h - 0.5 * (lo + hi), 0.0, 1.0)


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
    return float(np.sqrt(np.linalg.norm(off) ** 2 + np.linalg.norm(h - target) ** 2))


@dataclasses.dataclass
class ProblemSpec:
    """min_X nu * theta(X) + Psi_kappa(X), analyzed at the candidate Xbar.

    theta is QuadraticTheta or LeastSquaresTheta.  The Hessian's
    eigendecomposition is computed once and kept (hessian_factor), so the
    fields are not to be changed after it is first asked for.
    """

    Xbar: np.ndarray
    nu: float
    kappa: int
    theta: object
    _factor: tuple | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.Xbar.shape[0]

    @property
    def m(self) -> int:
        return self.Xbar.shape[1]

    def hessian(self) -> np.ndarray:
        return self.theta.hessian()

    def hessian_factor(self, tols: Tolerances = DEFAULT_TOLS) -> HessianFactor:
        """The eigendecomposition of sym(Hessian) behind both the PSD check
        and the kernel; computed once per kernel cutoff."""
        key = (tols.kernel_rel, tols.kernel_floor)
        if self._factor is None or self._factor[0] != key:
            self._factor = (key, _factor_hessian(self.hessian(), tols))
        return self._factor[1]

    def grad_theta(self, X) -> np.ndarray:
        return self.theta.grad(np.asarray(X, dtype=float))

    def gamma_bar(self) -> np.ndarray:
        return -self.nu * self.grad_theta(self.Xbar)

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
        H = self.hessian()
        if H.shape != (n * m, n * m):
            raise ValueError(f"Hessian must be {n * m} x {n * m}, got {H.shape}")
        hscale = max(1.0, float(np.linalg.norm(H)))
        if np.linalg.norm(H - H.T) > tols.orth * hscale * n * m:
            raise ValueError("Hessian of theta must be symmetric")
        w = self.hessian_factor(tols).eigenvalues
        if len(w) and w[0] < -tols.psd_rel * hscale:
            raise ValueError(
                f"Hessian of theta must be PSD at Xbar (lambda_min = {w[0]:.3e})"
            )
        Gamma = self.gamma_bar()
        ok, cert = subdiff_membership(X, Gamma, self.kappa, tols=tols)
        if not ok:
            gap = stationarity_gap(X, Gamma, self.kappa, tols=tols)
            raise StationarityError(
                f"-nu * grad theta(Xbar) is not a subgradient of Psi_kappa at "
                f"Xbar (best-effort distance {gap:.3e})",
                distance=gap,
            )
        return cert


# ---------------------------------------------------------------------------
# the structured direction set
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class UpsilonSpec:
    """Structured direction set: linear hull plus residual inequality.

    hull_basis has orthonormal columns in vectorized G-space.  The recorded
    cone_constraint is the sandwich inequality of the block template
    ("none" when no inequality survives the block dimensions); exact=True
    means the set equals its hull, so any nonzero hull element in the
    Hessian kernel is already a witness.
    """

    case: str
    pair: SvdPair
    block_dims: dict
    hull_basis: np.ndarray
    cone_constraint: str
    exact: bool
    cert: SubgradCertificate


def _hull_elements(cert: SubgradCertificate, case: str, n: int, m: int):
    """Orthonormal block-template basis in U^T G V coordinates."""
    A = np.concatenate([cert.alpha, cert.beta1]).astype(int)
    bp = cert.beta_plus
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
        free_cols = np.concatenate(
            [cert.beta0, cert.gamma, np.arange(n, m)]
        ).astype(int)
    elif case == ZERO_GROUP_TIGHT:
        free_rows = cert.beta0.astype(int)
        free_cols = np.concatenate([cert.beta0, np.arange(n, m)]).astype(int)
    else:
        free_rows = np.array([], dtype=int)
        free_cols = np.array([], dtype=int)
    for i in free_rows:
        for j in free_cols:
            H = np.zeros((n, m))
            H[i, j] = 1.0
            elems.append(H)
    return elems


def _interior_vacuous(cert) -> bool:
    has1, hasp, has0 = len(cert.beta1) > 0, len(cert.beta_plus) > 0, len(cert.beta0) > 0
    if not hasp:
        return (not has0) or (not has1)
    return (not has0) and (not has1)


def build_upsilon(
    spec: ProblemSpec,
    tols: Tolerances = DEFAULT_TOLS,
    cert: SubgradCertificate | None = None,
    pair: SvdPair | None = None,
) -> UpsilonSpec:
    """Assemble the structured set for (Xbar, Gamma_bar).

    Raises StationarityError when Gamma_bar is not a subgradient.  `pair`
    overrides the certificate's simultaneous SVD (used for re-rotation
    sampling of degenerate blocks).
    """
    if cert is None:
        cert = spec.validate(tols=tols)
    if pair is None:
        pair = cert.pair
    n, m = pair.n, pair.m
    case = fine_case(cert)
    elems = _hull_elements(cert, case, n, m)
    if elems:
        cols = [vec(pair.U @ H @ pair.V.T) for H in elems]
        basis = np.column_stack(cols)
    else:
        basis = np.zeros((n * m, 0))
    if case == INTERIOR_GROUP:
        exact = _interior_vacuous(cert)
        constraint = (
            "none"
            if exact
            else "lambda_max(S(D_beta0)) <= varpi <= lambda_min(C_beta1)"
        )
    elif case == ZERO_GROUP_STRICT:
        exact = True
        constraint = "none"
    else:
        exact = len(cert.beta_plus) == 0 and len(cert.beta1) == 0
        constraint = (
            "none"
            if exact
            else "max(sigma_1([D E]), 0) <= varpi <= lambda_min(C_beta1)"
        )
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
        hull_basis=basis,
        cone_constraint=constraint,
        exact=exact,
        cert=cert,
    )


def _sandwich(ups: UpsilonSpec, W: np.ndarray):
    """(margin, lower, upper, varpi) of the recorded inequality at W.

    margin >= 0 means W satisfies the constraint; +inf when vacuous.  With
    an empty beta_plus the scalar is existential and the margin is the
    interval length upper - lower."""
    cert = ups.cert
    pair = ups.pair
    n = pair.n
    H = pair.U.T @ np.asarray(W, dtype=float) @ pair.V
    H1, Hc = H[:, :n], H[:, n:]
    b1, bp, b0 = cert.beta1, cert.beta_plus, cert.beta0
    upper = (
        float(np.linalg.eigvalsh(sym(H1[np.ix_(b1, b1)]))[0]) if len(b1) else math.inf
    )
    if ups.case == ZERO_GROUP_TIGHT:
        if len(b0):
            DE = np.hstack([H1[np.ix_(b0, b0)], Hc[b0, :]])
            lower = max(float(np.linalg.svd(DE, compute_uv=False)[0]), 0.0)
        else:
            lower = 0.0
    elif ups.case == INTERIOR_GROUP:
        lower = (
            float(np.linalg.eigvalsh(sym(H1[np.ix_(b0, b0)]))[-1])
            if len(b0)
            else -math.inf
        )
    else:  # strict zero case: no inequality
        return math.inf, -math.inf, math.inf, None
    if len(bp):
        varpi = float(np.trace(H1[np.ix_(bp, bp)])) / len(bp)
        parts = []
        if math.isfinite(upper):
            parts.append(upper - varpi)
        if math.isfinite(lower):
            parts.append(varpi - lower)
        margin = min(parts) if parts else math.inf
        return margin, lower, upper, varpi
    if math.isfinite(upper) and math.isfinite(lower):
        return upper - lower, lower, upper, None
    return math.inf, lower, upper, None


def upsilon_residuals(ups: UpsilonSpec, W: np.ndarray) -> dict:
    """Membership residuals of W: distance to the hull plus the sandwich
    margin (negative margin = violated inequality)."""
    w = vec(W)
    coeff = ups.hull_basis.T @ w
    off_hull = float(np.linalg.norm(w - ups.hull_basis @ coeff))
    margin, lower, upper, varpi = _sandwich(ups, W)
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
    proof data (intersection dimensions and the stacked-system smallest
    singular value for Stable; witness residuals for Unstable; search
    diagnostics for Inconclusive).  witness is a unit-Frobenius matrix."""

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


def _orth(B: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the column span."""
    if B.size == 0:
        return B.reshape(B.shape[0], 0)
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    keep = s > tol * max(1.0, s[0] if len(s) else 0.0)
    return U[:, keep]


def _intersect(K: np.ndarray, L: np.ndarray, tols: Tolerances):
    """Intersection basis of two orthonormal-column subspaces (principal
    cosines >= 1 - tols.angle) plus the largest principal cosine and
    sigma_min of the stacked system.

    sigma_min = sqrt(1 - maxcos) is taken as ||K u1 - L v1|| / sqrt(2) from
    the top singular pair (u1, v1) of K^T L: the same number, without the
    cancellation in 1 - maxcos when the subspaces meet."""
    if K.shape[1] == 0 or L.shape[1] == 0:
        return np.zeros((K.shape[0], 0)), 0.0, 1.0
    M = K.T @ L
    Um, sv, Vt = np.linalg.svd(M)
    maxcos = float(sv[0])
    take = sv >= 1.0 - tols.angle
    N = _orth(K @ Um[:, take]) if np.any(take) else np.zeros((K.shape[0], 0))
    smin_stacked = float(np.linalg.norm(K @ Um[:, 0] - L @ Vt[0])) / math.sqrt(2.0)
    return N, maxcos, smin_stacked


def _rotate_pair(cert: SubgradCertificate, rng, tols: Tolerances) -> SvdPair:
    """Random joint rotation of degenerate blocks that preserves both X and
    Gamma diagonal structure: common rotations within (sigma_X, sigma_Gamma)
    equal-value sub-blocks, a free rotation on the kernel columns."""
    pair = cert.pair
    U = pair.U.copy()
    V = pair.V.copy()
    vals = cert.sigma_gamma_vals

    def subsplit(idx):
        out = []
        cur = [idx[0]]
        for i in idx[1:]:
            if abs(vals[i] - vals[cur[-1]]) <= tols.sigma_class:
                cur.append(i)
            else:
                out.append(cur)
                cur = [i]
        out.append(cur)
        return out

    blocks = list(cert.grouping.groups)
    if len(cert.grouping.b):
        blocks.append(cert.grouping.b)
    for g in blocks:
        for sb in subsplit(list(g)):
            k = len(sb)
            R = np.linalg.qr(rng.standard_normal((k, k)))[0]
            U[:, sb] = U[:, sb] @ R
            V[:, sb] = V[:, sb] @ R
    c = cert.grouping.c
    if len(c):
        R = np.linalg.qr(rng.standard_normal((len(c), len(c))))[0]
        V[:, c] = V[:, c] @ R
    return SvdPair(U=U, V=V, sigma=pair.sigma.copy())


def _search_witness(ups, N, rng, tols: Tolerances):
    """Maximize the sandwich margin over the unit sphere of span(N).

    The margin is a minimum of concave 1-homogeneous spectral functions of
    the direction, so projected supergradient ascent from multiple starts
    finds the global max on the sphere; finite-difference supergradients
    suffice at this scale.  Results merge deterministically by
    (margin, start index); the search stops at the first margin above
    tols.margin and accepts a best margin >= -tols.margin.  On a
    one-dimensional span the sphere is {+e, -e}: those two are the only
    starts and there is nothing to ascend."""
    q = N.shape[1]
    n, m = ups.pair.n, ups.pair.m

    def margin_of(c):
        W = unvec(N @ c, n, m)
        return _sandwich(ups, W)[0]

    starts = []
    for i in range(min(q, _SEARCH_STARTS)):
        e = np.zeros(q)
        e[i] = 1.0
        starts.append(e)
    while len(starts) < _SEARCH_STARTS:
        v = rng.standard_normal(q)
        starts.append(v / np.linalg.norm(v))
    # the random starts are drawn even when q == 1, so that the variants
    # searched after this one see the same random stream
    steps = _SEARCH_STEPS
    if q == 1:
        starts, steps = [starts[0], -starts[0]], 0
    best = (-math.inf, -1, None)
    evals = 0
    ran = 0
    for idx, c0 in enumerate(starts):
        ran = idx + 1
        c = c0.copy()
        val = margin_of(c)
        evals += 1
        if val > best[0]:
            best = (val, idx, c.copy())
        if best[0] > tols.margin:
            break
        h = _FD_STEP
        for t in range(steps):
            if not math.isfinite(val):
                break
            g = np.zeros(q)
            for j in range(q):
                cp = c.copy()
                cp[j] += h
                cm = c.copy()
                cm[j] -= h
                g[j] = (margin_of(cp / np.linalg.norm(cp)) - margin_of(cm / np.linalg.norm(cm))) / (2 * h)
                evals += 2
            g -= (g @ c) * c
            gn = float(np.linalg.norm(g))
            if gn < 1e-12:
                break
            c = c + (0.5 / (1.0 + 0.05 * t)) * g / gn
            c /= np.linalg.norm(c)
            val = margin_of(c)
            evals += 1
            if val > best[0]:
                best = (val, idx, c.copy())
            if best[0] > tols.margin:
                break
        if best[0] > tols.margin:
            break
    margin, _, c = best
    diagnostics = {"starts_used": ran, "margin_evals": evals, "best_margin": margin}
    if c is not None and margin >= -tols.margin:
        W = unvec(N @ c, n, m)
        W /= np.linalg.norm(W)
        return W, diagnostics
    return None, diagnostics


def tilt_check(
    spec: ProblemSpec,
    ups: UpsilonSpec | None = None,
    options: TiltOptions | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> TiltVerdict:
    """Decide tilt stability of Xbar for min nu*theta + Psi_kappa.

    Pure given its options.seed.  With rotation_samples > 0 the hulls of
    re-rotated degenerate pairs are unioned for the Stable test and each
    sampled pattern is searched for witnesses; verdict disagreement between
    samples degrades to Inconclusive.
    """
    options = options or TiltOptions()
    if ups is None:
        ups = build_upsilon(spec, tols=tols)
    cert = ups.cert
    factor = spec.hessian_factor(tols)
    K = factor.kernel
    variants = [ups]
    if options.rotation_samples > 0:
        rng_rot = np.random.default_rng(options.seed)
        for _ in range(options.rotation_samples):
            pair2 = _rotate_pair(cert, rng_rot, tols)
            variants.append(build_upsilon(spec, tols=tols, cert=cert, pair=pair2))
        union = _orth(np.hstack([v.hull_basis for v in variants]))
    else:
        union = ups.hull_basis  # orthonormal by construction
    N_union, maxcos, smin = _intersect(K, union, tols)
    base_cert = {
        "kernel_dim": int(K.shape[1]),
        "hull_dim": int(ups.hull_basis.shape[1]),
        "kernel_tol": factor.kernel_tol,
        "max_principal_cosine": maxcos,
        "sigma_min_stacked": smin,
        "case": ups.case,
        "exact": ups.exact,
        "rotation_samples": options.rotation_samples,
    }
    if N_union.shape[1] == 0:
        return TiltVerdict(STABLE, base_cert)

    def unstable(v, v_idx, N, W):
        res = upsilon_residuals(v, W)
        kres = float(np.linalg.norm(spec.hessian() @ vec(W)))
        return TiltVerdict(
            UNSTABLE,
            {
                **base_cert,
                "intersection_dim": int(N.shape[1]),
                "witness_residuals": res,
                "kernel_residual": kres,
                "variant": v_idx,
            },
            witness=W,
        )

    # per-variant intersections (a witness must live in a single pattern)
    rng = np.random.default_rng(options.seed + 1)
    best_diag = None
    for v_idx, v in enumerate(variants):
        N = N_union if len(variants) == 1 else _intersect(K, v.hull_basis, tols)[0]
        if N.shape[1] == 0:
            continue
        if v.exact:
            W = unvec(N[:, 0], spec.n, spec.m)
            W /= np.linalg.norm(W)
            return unstable(v, v_idx, N, W)
        W, diag = _search_witness(v, N, rng, tols)
        if best_diag is None or diag["best_margin"] > best_diag["best_margin"]:
            best_diag = {**diag, "variant": v_idx}
        if W is not None:
            return unstable(v, v_idx, N, W)
    return TiltVerdict(
        INCONCLUSIVE,
        {
            **base_cert,
            "intersection_dim": int(N_union.shape[1]),
            "search": best_diag or {"best_margin": None},
            "note": "kernel meets the hull but no certified set member was found",
        },
    )


def generic_kernel_test(
    hessian: np.ndarray,
    wset_membership,
    hull: np.ndarray,
    seed: int = 0,
    starts: int = 64,
    tols: Tolerances = DEFAULT_TOLS,
) -> TiltVerdict:
    """Kernel-intersection test for a caller-supplied direction set.

    hull: basis (columns) of the linear hull of the set; wset_membership:
    predicate on vectors of the ambient space.  Same three phases as
    tilt_check with predicate sampling instead of margin ascent."""
    factor = _factor_hessian(np.asarray(hessian, dtype=float), tols)
    K = factor.kernel
    L = _orth(np.asarray(hull, dtype=float))
    N, maxcos, smin = _intersect(K, L, tols)
    base = {
        "kernel_dim": int(K.shape[1]),
        "hull_dim": int(L.shape[1]),
        "kernel_tol": factor.kernel_tol,
        "max_principal_cosine": maxcos,
        "sigma_min_stacked": smin,
    }
    if N.shape[1] == 0:
        return TiltVerdict(STABLE, base)
    rng = np.random.default_rng(seed)
    q = N.shape[1]
    cands = []
    for i in range(q):
        e = np.zeros(q)
        e[i] = 1.0
        cands.extend([e, -e])
    while len(cands) < max(starts, 2 * q):
        v = rng.standard_normal(q)
        cands.append(v / np.linalg.norm(v))
    for idx, c in enumerate(cands):
        w = N @ c
        if wset_membership(w):
            return TiltVerdict(
                UNSTABLE,
                {**base, "intersection_dim": q, "sample_index": idx},
                witness=w / np.linalg.norm(w),
            )
    return TiltVerdict(
        INCONCLUSIVE,
        {**base, "intersection_dim": q, "samples_tried": len(cands)},
    )
