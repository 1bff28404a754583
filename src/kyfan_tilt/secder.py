"""Critical cones and second subderivatives of the matrix Ky-Fan norm.

Two independent evaluation routes are provided for d^2 Psi_kappa(X | Gamma):

* a general route through the symmetric embedding (frame blocks and grouped
  pseudo-inverses), and
* an explicit route itemizing the closed-form summand families in terms of
  the symmetric/skew parts of U^T G V.

Both are gated by the critical cone, whose membership test also ships with
per-condition residuals.  Specializations for the nuclear norm (kappa = n)
and the spectral norm (kappa = 1) are written out independently so they can
cross-check the general machinery.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .phik import IN_CONE, OUTSIDE, SecondSubderivValue
from .spectral import bmap, build_frame, skew, sym
from .subgrad import (
    INTERIOR_GROUP,
    SubgradCertificate,
    subdiff_membership,
)

__all__ = [
    "CriticalConeCert",
    "SecondSubderivValue",
    "critical_cone_membership",
    "d2_psi_general",
    "d2_psi_explicit",
    "d2_nuclear",
    "d2_spectral",
    "d2_zero_set_membership",
    "fine_case",
    "ZERO_GROUP_STRICT",
    "ZERO_GROUP_TIGHT",
]

ZERO_GROUP_STRICT = "ZeroGroupStrict"
ZERO_GROUP_TIGHT = "ZeroGroupTight"


@dataclasses.dataclass
class CriticalConeCert:
    """Outcome of the critical-cone test with per-condition residuals.

    varpi is the common diagonal value of the interior block (pinned when
    beta_plus is nonempty, otherwise the midpoint of the feasible interval;
    one-sided intervals report the finite endpoint).  residuals includes the
    interval endpoints under "lower"/"upper".
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


def _lam_max(M):
    return float(np.linalg.eigvalsh(sym(M))[-1]) if M.size else -math.inf


def _midpoint(lo, hi):
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi
    if math.isinf(hi):
        return lo
    return 0.5 * (lo + hi)


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
    beta_plus, sandwiched between the extreme eigenvalues of the outer
    blocks; in the zero-group cases whole rows of the critical block are
    pinned instead.  G is a member iff the directional derivative of
    Psi_kappa at X along G equals <Gamma, G>.  Residuals are compared with
    tols.cone * (1 + ||G||_F).
    """
    G = np.asarray(G, dtype=float)
    tol = tols.cone * (1.0 + float(np.linalg.norm(G)))
    H1, Hc = _h_blocks(cert, G)
    case = fine_case(cert)
    res: dict = {}
    beta = cert.beta
    b1 = cert.beta1
    bp = cert.beta_plus
    b0 = cert.beta0

    if case == INTERIOR_GROUP:
        S = sym(H1[np.ix_(beta, beta)])
        loc = {int(i): k for k, i in enumerate(beta)}
        i1 = [loc[int(i)] for i in b1]
        ip = [loc[int(i)] for i in bp]
        i0 = [loc[int(i)] for i in b0]
        res["cross"] = float(
            np.linalg.norm(S[np.ix_(i1, ip)])
            + np.linalg.norm(S[np.ix_(i1, i0)])
            + np.linalg.norm(S[np.ix_(ip, i0)])
        )
        upper = _lam_min(S[np.ix_(i1, i1)])
        lower = _lam_max(S[np.ix_(i0, i0)])
        if ip:
            Spp = S[np.ix_(ip, ip)]
            varpi = float(np.trace(Spp)) / len(ip)
            res["scalar_block"] = float(np.linalg.norm(Spp - varpi * np.eye(len(ip))))
            sandwich_ok = lower - tol <= varpi <= upper + tol
        else:
            res["scalar_block"] = 0.0
            sandwich_ok = lower <= upper + 2 * tol
            varpi = _midpoint(max(lower, -1e30), min(upper, 1e30))
        res["lower"], res["upper"] = lower, upper
        member = res["cross"] <= tol and res["scalar_block"] <= tol and sandwich_ok
        return CriticalConeCert(member, varpi, case, res)

    # zero-group cases: constraints act on whole rows of [H1_bb, Hc_b]
    rows = np.hstack([H1[np.ix_(beta, beta)], Hc[beta, :]]) if len(beta) else np.zeros((0, 0))
    loc = {int(i): k for k, i in enumerate(beta)}
    i1 = [loc[int(i)] for i in b1]
    ip = [loc[int(i)] for i in bp]
    i0 = [loc[int(i)] for i in b0]
    ic = list(range(len(beta), rows.shape[1])) if rows.size else []
    S1 = rows[np.ix_(i1, i1)] if i1 else np.zeros((0, 0))
    res["beta1_sym"] = float(np.linalg.norm(skew(S1))) if S1.size else 0.0

    if case == ZERO_GROUP_STRICT:
        mask = np.ones_like(rows, dtype=bool)
        if i1:
            mask[np.ix_(i1, i1)] = False
        res["off_pattern"] = float(np.linalg.norm(rows[mask])) if rows.size else 0.0
        res["beta1_psd"] = max(0.0, -_lam_min(sym(S1))) if S1.size else 0.0
        member = (
            res["beta1_sym"] <= tol
            and res["off_pattern"] <= tol
            and res["beta1_psd"] <= tol
        )
        res["lower"], res["upper"] = -math.inf, math.inf
        return CriticalConeCert(member, None, case, res)

    # tight case
    mask = np.ones_like(rows, dtype=bool)
    if i1:
        mask[np.ix_(i1, i1)] = False
    if ip:
        mask[np.ix_(ip, ip)] = False
    if i0:
        mask[np.ix_(i0, i0)] = False
        if ic:
            mask[np.ix_(i0, ic)] = False
    res["off_pattern"] = float(np.linalg.norm(rows[mask])) if rows.size else 0.0
    DE = (
        np.hstack([rows[np.ix_(i0, i0)], rows[np.ix_(i0, ic)] if ic else np.zeros((len(i0), 0))])
        if i0
        else np.zeros((0, 0))
    )
    # the negative-eigenvalue copies of beta1/beta_plus force varpi >= 0 in
    # the tight case even when beta0 and c are empty
    lower = max(float(np.linalg.svd(DE, compute_uv=False)[0]) if DE.size else 0.0, 0.0)
    upper = _lam_min(sym(S1))
    if ip:
        Spp = rows[np.ix_(ip, ip)]
        varpi = float(np.trace(Spp)) / len(ip)
        res["scalar_block"] = float(np.linalg.norm(Spp - varpi * np.eye(len(ip))))
        sandwich_ok = lower - tol <= varpi <= upper + tol
    else:
        res["scalar_block"] = 0.0
        sandwich_ok = lower <= upper + 2 * tol
        varpi = _midpoint(lower, min(upper, 1e30))
    res["lower"], res["upper"] = lower, upper
    member = (
        res["beta1_sym"] <= tol
        and res["off_pattern"] <= tol
        and res["scalar_block"] <= tol
        and sandwich_ok
    )
    return CriticalConeCert(member, varpi, case, res)


# ---------------------------------------------------------------------------
# general route (embedded frame, grouped pseudo-inverse)
# ---------------------------------------------------------------------------


def _require_cert(X, Gamma, kappa, tols):
    ok, cert = subdiff_membership(X, Gamma, kappa, tols=tols)
    if not ok:
        raise ValueError("Gamma is not a subgradient of Psi_kappa at X")
    return cert


def _outside(cone: CriticalConeCert) -> SecondSubderivValue:
    return SecondSubderivValue(math.inf, OUTSIDE, {"cone_residuals": cone.residuals})


def d2_psi_general(
    X: np.ndarray,
    Gamma: np.ndarray,
    G: np.ndarray,
    kappa: int,
    tols: Tolerances = DEFAULT_TOLS,
    cert: SubgradCertificate | None = None,
) -> SecondSubderivValue:
    """d^2 Psi_kappa(X | Gamma)(G) through the symmetric embedding.

    On the critical cone the value is

      r <= s:   sum_{l<r} tr Xi_l  +  < U_r^T (Gamma - sum_{l<r} U_l V_l^T) V_r , Xi_r >
      r = s+1:  sum_{l<=s} tr Xi_l - 2 < Gamma_b , G V_a Sigma_a^{-1} U_a^T G >

    with Xi_l = 2 P_l^T B(G) (nu_l I - B(X))^+ B(G) P_l evaluated on the
    grouped spectrum.  Outside the cone the value is +inf.
    """
    X = np.asarray(X, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    G = np.asarray(G, dtype=float)
    if cert is None:
        cert = _require_cert(X, Gamma, kappa, tols)
    cone = critical_cone_membership(cert, G, tols=tols)
    if not cone.member:
        return _outside(cone)
    grouping = cert.grouping
    frame = build_frame(cert.pair, grouping)
    T = frame.P.T @ bmap(G) @ frame.P
    # frame column groups with grouped eigenvalues
    fgroups = []
    for l in range(grouping.s):
        lo, hi = frame.column_blocks[("a", l + 1)]
        fgroups.append((float(grouping.nu[l]), np.arange(lo, hi)))
    lo, hi = frame.column_blocks["zero"]
    if hi > lo:
        fgroups.append((0.0, np.arange(lo, hi)))
    for l in range(grouping.s):
        lo, hi = frame.column_blocks[("-a", l + 1)]
        fgroups.append((-float(grouping.nu[l]), np.arange(lo, hi)))
    sig_scale = float(np.max(np.abs(frame.eigenvalues), initial=1.0))

    def xi_block(l_idx):
        """2 * sum_g T_{l,g} T_{l,g}^T / (nu_l - e_g) on the grouped spectrum."""
        nu_l, cols_l = fgroups[l_idx]
        cutoff = tols.pinv_rel * max(1.0, abs(nu_l) + sig_scale)
        out = np.zeros((len(cols_l), len(cols_l)))
        for g, (e_g, cols_g) in enumerate(fgroups):
            d = nu_l - e_g
            if abs(d) <= cutoff:
                continue
            blk = T[np.ix_(cols_l, cols_g)]
            out += (blk @ blk.T) / d
        return 2.0 * out

    terms: dict = {}
    total = 0.0
    U, V = cert.pair.U, cert.pair.V
    r, s = grouping.r, grouping.s
    n_trace = (r - 1) if cert.case == INTERIOR_GROUP else s
    trace_terms = []
    for l in range(n_trace):
        t = float(np.trace(xi_block(l)))
        trace_terms.append(t)
        total += t
    terms["trace"] = trace_terms
    if cert.case == INTERIOR_GROUP:
        resid = Gamma.copy()
        for l in range(r - 1):
            g = grouping.groups[l]
            resid = resid - U[:, g] @ V[:, g].T
        ar = grouping.groups[r - 1]
        Gblock = U[:, ar].T @ resid @ V[:, ar]
        crit = float(np.sum(Gblock * xi_block(r - 1)))
        terms["critical"] = crit
        total += crit
    else:
        a = grouping.a
        resid = Gamma.copy()
        for l in range(s):
            g = grouping.groups[l]
            resid = resid - U[:, g] @ V[:, g].T
        if len(a):
            sig_rep = np.concatenate(
                [np.full(len(g), grouping.nu[l]) for l, g in enumerate(grouping.groups)]
            )
            core = G @ V[:, a] @ np.diag(1.0 / sig_rep) @ U[:, a].T @ G
            zb = -2.0 * float(np.sum(resid * core))
        else:
            zb = 0.0
        terms["zero_block"] = zb
        total += zb
    return SecondSubderivValue(total, IN_CONE, terms)


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
# independent specializations
# ---------------------------------------------------------------------------


def d2_nuclear(
    X: np.ndarray, Gamma: np.ndarray, G: np.ndarray, tols: Tolerances = DEFAULT_TOLS
) -> SecondSubderivValue:
    """Second subderivative of the nuclear norm (kappa = n), written out
    directly from its two-branch closed form."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    cert = _require_cert(X, Gamma, n, tols)
    G = np.asarray(G, dtype=float)
    cone = critical_cone_membership(cert, G, tols=tols)
    if not cone.member:
        return _outside(cone)
    S, T, Hc = _st_blocks(cert, G)
    grouping = cert.grouping
    nu, groups = grouping.nu, grouping.groups
    pos = [(float(nu[l]), groups[l]) for l in range(grouping.s)]
    terms: dict = {}
    terms["skew_pairs"] = sum(
        2.0 * _sq(T[np.ix_(g, gp)]) / (nl + nlp) for nl, g in pos for nlp, gp in pos
    )
    terms["kernel_cols"] = sum((1.0 / nl) * _sq(Hc[g, :]) for nl, g in pos)
    if len(grouping.b):
        fams = _beta_families(cert)
        terms["rank_deficient"] = sum(
            2.0 * (1.0 - z) / nl * _sq(S[np.ix_(g, bj)])
            + 2.0 * (1.0 + z) / nl * _sq(T[np.ix_(g, bj)])
            for nl, g in pos
            for z, bj in fams
            if len(bj)
        )
    total = float(sum(terms.values()))
    return SecondSubderivValue(total, IN_CONE, terms)


def d2_spectral(
    X: np.ndarray, Gamma: np.ndarray, G: np.ndarray, tols: Tolerances = DEFAULT_TOLS
) -> SecondSubderivValue:
    """Second subderivative of the spectral norm (kappa = 1), written out
    directly; zero matrix -> 0 on the critical cone."""
    X = np.asarray(X, dtype=float)
    cert = _require_cert(X, Gamma, 1, tols)
    G = np.asarray(G, dtype=float)
    cone = critical_cone_membership(cert, G, tols=tols)
    if not cone.member:
        return _outside(cone)
    grouping = cert.grouping
    if grouping.s == 0:
        return SecondSubderivValue(0.0, IN_CONE, {"zero_matrix": 0.0})
    S, T, Hc = _st_blocks(cert, G)
    nu, groups, b = grouping.nu, grouping.groups, grouping.b
    nu1 = float(nu[0])
    lower_groups = [(float(nu[l]), groups[l]) for l in range(1, grouping.s)]
    if len(b):
        lower_groups.append((0.0, b))
    tneg_groups = [(float(nu[l]), groups[l]) for l in range(grouping.s)]
    if len(b):
        tneg_groups.append((0.0, b))
    fams = [(z, bj) for z, bj in _beta_families(cert) if z > 0.0]
    terms = {
        "sym_lower": sum(
            2.0 * z * _sq(S[np.ix_(bj, gp)]) / (nu1 - nlp)
            for z, bj in fams
            for nlp, gp in lower_groups
        ),
        "skew_all": sum(
            2.0 * z * _sq(T[np.ix_(bj, gp)]) / (nu1 + nlp)
            for z, bj in fams
            for nlp, gp in tneg_groups
        ),
        "kernel_cols": sum((z / nu1) * _sq(Hc[bj, :]) for z, bj in fams),
    }
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
    tol = tols.cone * (1.0 + float(np.linalg.norm(G)))
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
                np.linalg.norm(H1[np.ix_(A, rest)]) + np.linalg.norm(H1[np.ix_(rest, A)])
            )
        r_c = float(np.linalg.norm(Hc[A, :])) if len(A) and Hc.size else 0.0
        r_skew = float(np.linalg.norm(skew(H1[np.ix_(A, A)]))) if len(A) else 0.0
        ab1 = np.concatenate([cert.alpha, cert.beta1]).astype(int)
        r_plus = 0.0
        if len(ab1) and len(cert.beta_plus):
            Ssym = sym(H1)
            r_plus = float(np.linalg.norm(Ssym[np.ix_(ab1, cert.beta_plus)]))
        return max(r_off, r_c, r_skew, r_plus) <= tol
    # zero-group cases
    alpha = cert.alpha
    ab1 = np.concatenate([alpha, cert.beta1]).astype(int)
    bad = np.concatenate([cert.beta_plus, cert.beta0]).astype(int)
    r_off = 0.0
    if len(alpha) and len(bad):
        r_off = float(
            np.linalg.norm(H1[np.ix_(alpha, bad)]) + np.linalg.norm(H1[np.ix_(bad, alpha)])
        )
    r_c = float(np.linalg.norm(Hc[alpha, :])) if len(alpha) and Hc.size else 0.0
    r_skew = float(np.linalg.norm(skew(H1[np.ix_(ab1, ab1)]))) if len(ab1) else 0.0
    return max(r_off, r_c, r_skew) <= tol
