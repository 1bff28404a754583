"""Reference second-subderivative forms that the verdict never runs.

The library evaluates d^2 Psi_kappa(X | Gamma) from one closed form,
`secder.d2_psi_explicit`.  This module holds the forms that check it:

* the general form through the symmetric embedding B(X) = [[0, X], [X^T, 0]]
  (frame blocks and grouped pseudo-inverses), with the frame that
  diagonalizes B(X), and
* the nuclear-norm (kappa = n) and spectral-norm (kappa = 1) forms, written
  out from their own closed forms.

They take the cone and the U^T G V blocks from the library, as the explicit
form does, and never import the oracle.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from kyfan_tilt.config import DEFAULT_TOLS, Tolerances
from kyfan_tilt.secder import (
    IN_CONE,
    SecondSubderivValue,
    _beta_families,
    _outside,
    _sq,
    _st_blocks,
    critical_cone_membership,
)
from kyfan_tilt.spectral import SingularGrouping, SvdPair
from kyfan_tilt.subgrad import INTERIOR_GROUP, SubgradCertificate, subdiff_membership

# default pseudo-inverse cutoff of the general form
PINV_REL = 1e-10


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


# ---------------------------------------------------------------------------
# general form (embedded frame, grouped pseudo-inverse)
# ---------------------------------------------------------------------------


def _require_cert(X, Gamma, kappa, tols):
    ok, cert = subdiff_membership(X, Gamma, kappa, tols=tols)
    if not ok:
        raise ValueError("Gamma is not a subgradient of Psi_kappa at X")
    return cert


def d2_psi_general(
    X: np.ndarray,
    Gamma: np.ndarray,
    G: np.ndarray,
    kappa: int,
    tols: Tolerances = DEFAULT_TOLS,
    cert: SubgradCertificate | None = None,
    pinv_rel: float = PINV_REL,
) -> SecondSubderivValue:
    """d^2 Psi_kappa(X | Gamma)(G) through the symmetric embedding.

    On the critical cone the value is

      r <= s:   sum_{l<r} tr Xi_l  +  < U_r^T (Gamma - sum_{l<r} U_l V_l^T) V_r , Xi_r >
      r = s+1:  sum_{l<=s} tr Xi_l - 2 < Gamma_b , G V_a Sigma_a^{-1} U_a^T G >

    with Xi_l = 2 P_l^T B(G) (nu_l I - B(X))^+ B(G) P_l evaluated on the
    grouped spectrum.  The pseudo-inverse drops the frame groups whose
    eigenvalue lies within pinv_rel * max(1, |nu_l| + sigma_1) of nu_l.
    Outside the cone the value is +inf.
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
        cutoff = pinv_rel * max(1.0, abs(nu_l) + sig_scale)
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
# specializations
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
