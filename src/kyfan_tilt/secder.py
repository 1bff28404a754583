"""Critical cones and second subderivatives of the matrix Ky-Fan norm.

d^2 Psi_kappa(X | Gamma) is evaluated from one closed form, which itemizes
its summand families in terms of the symmetric/skew parts of U^T G V and is
gated by the critical cone, whose membership test also ships with
per-condition residuals.  The bounds of the cone's inequality on the
critical block, lower <= varpi <= upper, come from `sandwich` alone, on a
stack of U^T G V matrices; tilt's direction set takes its margin on them.
The zero set of d^2 Psi_kappa has its own test, written from the pattern of
the vanishing summands rather than from the value.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .spectral import fro_norm, skew, sym
from .subgrad import INTERIOR_GROUP, SubgradCertificate

__all__ = [
    "CriticalConeCert",
    "SecondSubderivValue",
    "critical_cone_membership",
    "d2_psi_explicit",
    "d2_zero_set_membership",
    "fine_case",
    "sandwich",
    "IN_CONE",
    "OUTSIDE",
    "ZERO_GROUP_STRICT",
    "ZERO_GROUP_TIGHT",
]

IN_CONE = "InCone"
OUTSIDE = "OutsideCriticalCone"
ZERO_GROUP_STRICT = "ZeroGroupStrict"
ZERO_GROUP_TIGHT = "ZeroGroupTight"


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


@dataclasses.dataclass
class CriticalConeCert:
    """Outcome of the critical-cone test with per-condition residuals.

    varpi is the common diagonal value of the interior block: pinned when
    beta_plus is nonempty, otherwise the midpoint of the feasible interval
    with its infinite ends clipped to -+1e30; None in the strict case.
    residuals includes the interval endpoints under "lower"/"upper".
    """

    member: bool
    varpi: float | None
    case: str
    residuals: dict


def fine_case(cert: SubgradCertificate) -> str:
    """InteriorGroup, or the ZeroGroup case split by the certificate's tight flag."""
    if cert.case == INTERIOR_GROUP:
        return INTERIOR_GROUP
    return ZERO_GROUP_TIGHT if cert.tight else ZERO_GROUP_STRICT


def _lam_min(M):
    return float(np.linalg.eigvalsh(sym(M))[0]) if M.size else math.inf


def sandwich(cert: SubgradCertificate, H: np.ndarray):
    """(lower, upper, varpi) of the critical block on a stack H of U^T G V
    matrices, shape (k, n, m): lower and upper are length-k arrays, varpi
    one too, or None without beta_plus.

    upper is lambda_min(sym H_beta1) (+inf without beta1).  lower is
    lambda_max(sym H_beta0) in the interior case (-inf without beta0), and
    max(sigma_1([H_beta0,beta0  H_beta0,c]), 0) in the tight case, where the
    negative-eigenvalue copies of beta1/beta_plus force varpi >= 0 even when
    beta0 and c are empty.  varpi is the mean diagonal of H_beta_plus.  The
    strict case bounds nothing: (-inf, +inf, None)."""
    k, n = len(H), cert.pair.n
    case = fine_case(cert)
    if case == ZERO_GROUP_STRICT:
        return np.full(k, -math.inf), np.full(k, math.inf), None
    b1, bp, b0 = cert.beta1, cert.beta_plus, cert.beta0

    def block(idx):
        return H[:, idx[:, None], idx]

    upper = np.linalg.eigvalsh(sym(block(b1)))[:, 0] if len(b1) else np.full(k, math.inf)
    if case == INTERIOR_GROUP:
        lower = np.linalg.eigvalsh(sym(block(b0)))[:, -1] if len(b0) else np.full(k, -math.inf)
    elif len(b0):
        DE = np.concatenate([block(b0), H[:, b0, n:]], axis=2)
        lower = np.maximum(np.linalg.svd(DE, compute_uv=False)[:, 0], 0.0)
    else:
        lower = np.zeros(k)
    varpi = np.trace(block(bp), axis1=1, axis2=2) / len(bp) if len(bp) else None
    return lower, upper, varpi


def _h_blocks(cert: SubgradCertificate, G: np.ndarray):
    pair = cert.pair
    H = pair.U.T @ np.asarray(G, dtype=float) @ pair.V
    n = pair.n
    return H[:, :n], H[:, n:]


def critical_cone_membership(
    cert: SubgradCertificate, G: np.ndarray, tols: Tolerances = DEFAULT_TOLS
) -> CriticalConeCert:
    """Membership of G in the critical cone of Psi_kappa at (X, Gamma).

    The cone pins down the symmetric part of the critical block of U^T G V:
    block-diagonal over (beta1, beta_plus, beta0) with a scalar diagonal on
    beta_plus, sandwiched between the bounds of `sandwich`; in the
    zero-group cases whole rows of the critical block are pinned instead.
    G is a member iff the directional derivative of Psi_kappa at X along G
    equals <Gamma, G>.  Residuals are compared with
    tols.cone * (1 + ||G||_F).
    """
    G = np.asarray(G, dtype=float)
    tol = tols.cone * (1.0 + fro_norm(G))
    pair = cert.pair
    H = pair.U.T @ G @ pair.V
    case = fine_case(cert)
    beta = cert.beta
    loc = {int(i): k for k, i in enumerate(beta)}
    i1, ip, i0 = ([loc[int(i)] for i in b] for b in (cert.beta1, cert.beta_plus, cert.beta0))
    res: dict = {}
    if case == INTERIOR_GROUP:
        S = sym(H[np.ix_(beta, beta)])
        res["cross"] = float(
            fro_norm(S[np.ix_(i1, ip)])
            + fro_norm(S[np.ix_(i1, i0)])
            + fro_norm(S[np.ix_(ip, i0)])
        )
    else:
        # zero-group cases: constraints act on whole rows [H_bb, H_bc]
        S = np.hstack([H[np.ix_(beta, beta)], H[beta, pair.n :]])
        ic = list(range(len(beta), S.shape[1]))
        S1 = S[np.ix_(i1, i1)]
        res["beta1_sym"] = fro_norm(skew(S1)) if S1.size else 0.0
        free = [(i1, i1)]
        if case == ZERO_GROUP_TIGHT:
            free += [(ip, ip), (i0, i0), (i0, ic)]
        mask = np.ones_like(S, dtype=bool)
        for rows, cols in free:
            if rows and cols:
                mask[np.ix_(rows, cols)] = False
        res["off_pattern"] = fro_norm(S[mask]) if S.size else 0.0
        if case == ZERO_GROUP_STRICT:
            res["beta1_psd"] = max(0.0, -_lam_min(S1))
            member = all(v <= tol for v in res.values())
            res["lower"], res["upper"] = -math.inf, math.inf
            return CriticalConeCert(member, None, case, res)
    lower, upper, varpi = (
        None if a is None else float(a[0]) for a in sandwich(cert, H[None])
    )
    if varpi is not None:
        Spp = S[np.ix_(ip, ip)]
        res["scalar_block"] = fro_norm(Spp - varpi * np.eye(len(ip)))
        sandwich_ok = lower - tol <= varpi <= upper + tol
    else:
        res["scalar_block"] = 0.0
        sandwich_ok = lower <= upper + 2 * tol
        varpi = 0.5 * (max(lower, -1e30) + min(upper, 1e30))
    member = all(v <= tol for v in res.values()) and sandwich_ok
    res["lower"], res["upper"] = lower, upper
    return CriticalConeCert(member, varpi, case, res)


def _outside(cone: CriticalConeCert) -> SecondSubderivValue:
    return SecondSubderivValue(math.inf, OUTSIDE, {"cone_residuals": cone.residuals})


# ---------------------------------------------------------------------------
# explicit route (itemized summand families)
# ---------------------------------------------------------------------------


def _st_blocks(cert, G):
    H1, Hc = _h_blocks(cert, G)
    return sym(H1), skew(H1), Hc


def _beta_families(cert):
    """(zeta_j, beta_j) pairs including the zero family (0, beta0)."""
    fams = [(float(z), np.asarray(bj, dtype=int)) for z, bj in zip(cert.zeta, cert.beta_js)]
    if len(cert.beta0):
        fams.append((0.0, cert.beta0))
    return fams


def _sq(M):
    return float(np.sum(M * M))


def d2_psi_explicit(
    cert: SubgradCertificate, G: np.ndarray, tols: Tolerances = DEFAULT_TOLS
) -> SecondSubderivValue:
    """d^2 Psi_kappa(X | Gamma)(G) from the itemized closed form.

    All sums run over ordered pairs of singular value groups of X; S and T
    are the symmetric and skew parts of U^T G V1 and the "c" terms couple to
    the rectangular kernel columns.  Outside the critical cone: +inf.
    """
    G = np.asarray(G, dtype=float)
    cone = critical_cone_membership(cert, G, tols=tols)
    if not cone.member:
        return _outside(cone)
    S, T, Hc = _st_blocks(cert, G)
    grouping = cert.grouping
    nu, groups, b = grouping.nu, grouping.groups, grouping.b
    r, s = grouping.r, grouping.s
    fams = _beta_families(cert)
    terms: dict = {}
    if cert.case == INTERIOR_GROUP:
        nur = float(nu[r - 1])
        alpha_groups = [(float(nu[l]), groups[l]) for l in range(r - 1)]
        lower_groups = [(float(nu[l]), groups[l]) for l in range(r, s)]
        if len(b):
            lower_groups.append((0.0, b))
        tneg_groups = [(float(nu[l]), groups[l]) for l in range(s)]
        if len(b):
            tneg_groups.append((0.0, b))
        f1 = sum(
            2.0 * _sq(S[np.ix_(g, gp)]) / (nl - nlp)
            for nl, g in alpha_groups
            for nlp, gp in lower_groups
        )
        f2 = sum(
            2.0 * (1.0 - z) / (nl - nur) * _sq(S[np.ix_(g, bj)])
            for nl, g in alpha_groups
            for z, bj in fams
            if z > 0.0 and len(bj)
        )
        f8 = sum(
            2.0 / (nl - nur) * _sq(S[np.ix_(g, cert.beta0)])
            for nl, g in alpha_groups
            if len(cert.beta0)
        )
        f3 = sum(
            2.0 * z * _sq(S[np.ix_(bj, gp)]) / (nur - nlp)
            for z, bj in fams
            if z > 0.0
            for nlp, gp in lower_groups
        )
        f4 = sum(
            2.0 * _sq(T[np.ix_(g, gp)]) / (nl + nlp)
            for nl, g in alpha_groups
            for nlp, gp in tneg_groups
        )
        f5 = sum(
            2.0 * z * _sq(T[np.ix_(bj, gp)]) / (nur + nlp)
            for z, bj in fams
            if z > 0.0
            for nlp, gp in tneg_groups
        )
        f6 = sum((z / nur) * _sq(Hc[bj, :]) for z, bj in fams if z > 0.0)
        f7 = sum((1.0 / nl) * _sq(Hc[g, :]) for nl, g in alpha_groups)
        terms.update(f1=f1, f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7, f8=f8)
    else:
        pos = [(float(nu[l]), groups[l]) for l in range(s)]
        g1 = sum(
            2.0 * (1.0 - z) / nl * _sq(S[np.ix_(g, bj)])
            for nl, g in pos
            for z, bj in fams
            if z > 0.0 and len(bj)
        )
        g3 = sum(
            2.0 / nl * _sq(S[np.ix_(g, cert.beta0)]) for nl, g in pos if len(cert.beta0)
        )
        g2 = sum(
            2.0 * _sq(T[np.ix_(g, gp)]) / (nl + nlp) for nl, g in pos for nlp, gp in pos
        )
        g5 = sum(
            2.0 * (1.0 + z) / nl * _sq(T[np.ix_(g, bj)])
            for nl, g in pos
            for z, bj in fams
            if len(bj)
        )
        g4 = sum((1.0 / nl) * _sq(Hc[g, :]) for nl, g in pos)
        terms.update(g1=g1, g2=g2, g3=g3, g4=g4, g5=g5)
    total = float(sum(terms.values()))
    return SecondSubderivValue(total, IN_CONE, terms)


# ---------------------------------------------------------------------------
# zero set of the second subderivative
# ---------------------------------------------------------------------------


def d2_zero_set_membership(
    cert: SubgradCertificate, G: np.ndarray, tols: Tolerances = DEFAULT_TOLS
) -> bool:
    """Whether G lies in the zero set {d^2 Psi(X|Gamma)(.) = 0}.

    Equivalent to critical-cone membership plus the vanishing of every
    summand family: with A = alpha + beta1 + beta_plus (interior case) the
    A-rows/columns must be a symmetric pattern with no coupling to
    beta0/gamma/c and no symmetric part on alpha x beta_plus; in the
    zero-group cases only the alpha rows are constrained beyond the cone.
    Residuals are compared with the cone tolerance.
    """
    G = np.asarray(G, dtype=float)
    tol = tols.cone * (1.0 + fro_norm(G))
    cone = critical_cone_membership(cert, G, tols=tols)
    if not cone.member:
        return False
    H1, Hc = _h_blocks(cert, G)
    if cert.case == INTERIOR_GROUP:
        A = np.concatenate([cert.alpha, cert.beta1, cert.beta_plus]).astype(int)
        rest = np.concatenate([cert.beta0, cert.gamma]).astype(int)
        r_off = 0.0
        if len(A) and len(rest):
            r_off = float(
                fro_norm(H1[np.ix_(A, rest)]) + fro_norm(H1[np.ix_(rest, A)])
            )
        r_c = fro_norm(Hc[A, :]) if len(A) and Hc.size else 0.0
        r_skew = fro_norm(skew(H1[np.ix_(A, A)])) if len(A) else 0.0
        ab1 = np.concatenate([cert.alpha, cert.beta1]).astype(int)
        r_plus = 0.0
        if len(ab1) and len(cert.beta_plus):
            Ssym = sym(H1)
            r_plus = fro_norm(Ssym[np.ix_(ab1, cert.beta_plus)])
        return max(r_off, r_c, r_skew, r_plus) <= tol
    # zero-group cases
    alpha = cert.alpha
    ab1 = np.concatenate([alpha, cert.beta1]).astype(int)
    bad = np.concatenate([cert.beta_plus, cert.beta0]).astype(int)
    r_off = 0.0
    if len(alpha) and len(bad):
        r_off = float(
            fro_norm(H1[np.ix_(alpha, bad)]) + fro_norm(H1[np.ix_(bad, alpha)])
        )
    r_c = fro_norm(Hc[alpha, :]) if len(alpha) and Hc.size else 0.0
    r_skew = fro_norm(skew(H1[np.ix_(ab1, ab1)])) if len(ab1) else 0.0
    return max(r_off, r_c, r_skew) <= tol
