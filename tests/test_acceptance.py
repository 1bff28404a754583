"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Every test prints its verdict line through capsys.disabled() so the lines
appear in any pytest run; the assert after the print keeps the gate honest.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from conftest import (
    QP_CHECK_ACTIVE,
    dense_hull_basis,
    make_quadratic_spec,
    oracle_vector_prox_qp,
    projector_complement,
    rotate_degenerate_blocks,
    tilt_family,
)
from kyfan_tilt import tilt
from kyfan_tilt.cli import run_analyze
from kyfan_tilt.instances import (
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_incone_direction,
    random_membership_instance,
    random_orthogonal,
)
from kyfan_tilt.io import canonical_dumps, matrix_to_json, unvec, vec
from kyfan_tilt.oracle import d2_envelope_oracle, kyfan_matrix_prox, kyfan_vector_prox, tilt_probe
from kyfan_tilt.secder import (
    critical_cone_membership,
    d2_psi_explicit,
    d2_zero_set_membership,
)
from kyfan_tilt.spectral import group_singular, svd_ordered
from kyfan_tilt.subgrad import subdiff_membership
from kyfan_tilt.tilt import TiltOptions, build_upsilon, tilt_check
from reference import bmap, build_frame, d2_nuclear, d2_psi_general, d2_spectral

CASES = [INTERIOR, ZERO_STRICT, ZERO_TIGHT]


def emit(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def member_with_cert(rng, **kw):
    X, Gamma, kappa, info = random_membership_instance(rng, **kw)
    ok, cert = subdiff_membership(X, Gamma, kappa)
    assert ok, info
    return X, Gamma, kappa, cert


def rel_gap(a, b):
    return abs(a - b) / (1.0 + abs(a))


# ---------------------------------------------------------------- 1


def test_acceptance_01_formula_cross_agreement(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    combos = []
    for n in range(2, 7):
        for kappa in range(1, n + 1):
            for case in CASES:
                combos.append((n, kappa, case))
    max_rel, done, case_seen, kappa_seen = 0.0, 0, set(), set()
    while done < 500:
        n, kappa, case = combos[done % len(combos)]
        m = n + int(rng.integers(0, 3))
        X, Gamma, kappa, cert = member_with_cert(rng, n=n, m=m, kappa=kappa, case=case)
        G = random_incone_direction(rng, cert)
        a = d2_psi_general(X, Gamma, G, kappa, cert=cert)
        b = d2_psi_explicit(cert, G)
        assert a.is_finite and b.is_finite, (case, n, kappa)
        max_rel = max(max_rel, rel_gap(a.value, b.value))
        case_seen.add(case)
        kappa_seen.add((n, kappa))
        done += 1
    dt = time.perf_counter() - t0
    ok = max_rel <= 1e-9 and dt < 60.0 and len(case_seen) == 3
    emit(capsys, 1, "formula-cross-agreement", ok, f"n=500 max_rel={max_rel:.2e} time={dt:.1f}s")


# ---------------------------------------------------------------- 2


def test_acceptance_02_specialization_identities(capsys):
    rng = np.random.default_rng(202)
    worst = 0.0
    for which in ("nuclear", "spectral"):
        for i in range(200):
            n = int(rng.integers(2, 6))
            m = n + int(rng.integers(0, 3))
            kappa = n if which == "nuclear" else 1
            X, Gamma, kappa, cert = member_with_cert(rng, n=n, m=m, kappa=kappa)
            if i % 2 == 0:
                G = random_incone_direction(rng, cert)
            else:
                G = rng.standard_normal((n, m))
            a = d2_nuclear(X, Gamma, G) if which == "nuclear" else d2_spectral(X, Gamma, G)
            b = d2_psi_explicit(cert, G)
            assert a.reason == b.reason, (which, i)
            if a.is_finite:
                worst = max(worst, rel_gap(a.value, b.value))
    emit(capsys, 2, "specialization-identities", worst <= 1e-9, f"n=400 max_rel={worst:.2e}")


# ---------------------------------------------------------------- 3


def test_acceptance_03_convexity_and_homogeneity(capsys):
    rng = np.random.default_rng(303)
    min_val, worst = np.inf, 0.0
    for i in range(200):
        X, Gamma, kappa, cert = member_with_cert(rng, case=CASES[i % 3])
        G = random_incone_direction(rng, cert)
        base = d2_psi_explicit(cert, G)
        assert base.is_finite
        min_val = min(min_val, base.value)
        for t in (0.5, 2.0, 10.0):
            scaled = d2_psi_explicit(cert, t * G)
            worst = max(worst, abs(scaled.value - t**2 * base.value) / (1.0 + abs(base.value)))
    ok = min_val >= -1e-9 and worst <= 1e-9
    emit(capsys, 3, "convexity-homogeneity", ok, f"min_value={min_val:.2e} max_scale_err={worst:.2e}")


# ---------------------------------------------------------------- 4


def test_acceptance_04_domain_identity(capsys):
    rng = np.random.default_rng(404)
    disagreements, in_cone_count = 0, 0
    for i in range(1000):
        X, Gamma, kappa, cert = member_with_cert(rng, case=CASES[i % 3])
        G = random_incone_direction(rng, cert)
        if i % 3 == 1:
            G = G + 1e-3 * rng.standard_normal(G.shape)
        elif i % 3 == 2:
            G = rng.standard_normal(G.shape)
        cone = critical_cone_membership(cert, G)
        val = d2_psi_general(X, Gamma, G, kappa, cert=cert)
        if val.is_finite != cone.member:
            disagreements += 1
        in_cone_count += int(cone.member)
    ok = disagreements == 0 and 0 < in_cone_count < 1000
    emit(
        capsys, 4, "domain-identity", ok,
        f"n=1000 disagreements={disagreements} in_cone={in_cone_count}",
    )


def _zero_direction(cert):
    """A structurally curvature-free in-cone direction, in pair coordinates."""
    n, m = cert.pair.n, cert.pair.m
    H = np.zeros((n, m))
    if cert.case == "InteriorGroup":
        if len(cert.gamma):
            i = int(cert.gamma[0])
            H[i, i] = 1.0
        elif len(cert.beta0):
            i = int(cert.beta0[0])
            H[i, i] = -1.0
    else:
        if len(cert.beta1):
            i = int(cert.beta1[0])
            H[i, i] = 1.0
    return cert.pair.U @ H @ cert.pair.V.T


# ---------------------------------------------------------------- 5


def test_acceptance_05_zero_set(capsys):
    rng = np.random.default_rng(505)
    mismatches = 0
    members = {c: 0 for c in CASES}
    others = {c: 0 for c in CASES}
    for case in CASES:
        for i in range(300):
            X, Gamma, kappa, cert = member_with_cert(rng, case=case)
            if i % 3 == 0:
                G = random_incone_direction(rng, cert)
            elif i % 3 == 1:
                G = _zero_direction(cert)
            else:
                G = rng.standard_normal(X.shape)
            flag = d2_zero_set_membership(cert, G)
            val = d2_psi_general(X, Gamma, G, kappa, cert=cert)
            if flag != (val.is_finite and val.value <= 1e-9):
                mismatches += 1
            members[case] += int(flag)
            others[case] += int(not flag)
    ok = mismatches == 0 and all(members[c] > 0 and others[c] > 0 for c in CASES)
    emit(
        capsys, 5, "zero-set-characterization", ok,
        f"n=900 mismatches={mismatches} members={[members[c] for c in CASES]}",
    )


# ---------------------------------------------------------------- 6


def _quotient(X, Gamma, W, kappa):
    return d2_envelope_oracle(X, Gamma, W, prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, kappa))


def _near_degenerate(rng, gap, frames):
    """X = U diag(3, gap, 0) V^T, Gamma = U diag(1, 1, 0) V^T, kappa = 2 and
    the direction U (E23 + E32)/sqrt(2) V^T, whose d2 is 1/gap, for each of
    `frames` random orthogonal U, V (the identity when frames is 0)."""
    E = np.zeros((3, 3))
    E[1, 2] = E[2, 1] = 1.0 / np.sqrt(2.0)
    pairs = [(random_orthogonal(rng, 3), random_orthogonal(rng, 3)) for _ in range(frames)]
    for U, V in pairs or [(np.eye(3), np.eye(3))]:
        yield U @ np.diag([3.0, gap, 0.0]) @ V.T, U @ np.diag([1.0, 1.0, 0.0]) @ V.T, U @ E @ V.T


def test_acceptance_06_quotient_oracle(capsys):
    """The envelope oracle agrees with the shipped closed form in the cone,
    on well-separated instances and across singular-value gaps down to
    1e-6, and reads divergent at unit directions outside the cone."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst, done = 0.0, 0
    while done < 100:
        X, Gamma, kappa, cert = member_with_cert(
            rng, case=CASES[done % 3], well_separated=True
        )
        W = random_incone_direction(rng, cert)
        nw = np.linalg.norm(W)
        if nw < 1e-9:
            continue
        W = W / nw
        closed = d2_psi_explicit(cert, W)
        value, divergent = _quotient(X, Gamma, W, kappa)
        assert not divergent, done
        worst = max(worst, rel_gap(closed.value, value))
        done += 1
    rng = np.random.default_rng(607)
    worst_gap, near = 0.0, 0
    for gap in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for X, Gamma, W in [*_near_degenerate(rng, gap, 0), *_near_degenerate(rng, gap, 20)]:
            ok, cert = subdiff_membership(X, Gamma, 2)
            assert ok, gap
            closed = d2_psi_explicit(cert, W)
            value, divergent = _quotient(X, Gamma, W, 2)
            assert not divergent, gap
            worst_gap = max(worst_gap, rel_gap(closed.value, value))
            near += 1
    rng = np.random.default_rng(612)
    outside, divergent = 0, 0
    while outside < 30:
        X, Gamma, kappa, cert = member_with_cert(
            rng, case=CASES[outside % 3], well_separated=True
        )
        W = rng.standard_normal(X.shape)
        W = W / np.linalg.norm(W)
        if d2_psi_explicit(cert, W).is_finite:
            continue
        divergent += int(_quotient(X, Gamma, W, kappa)[1])
        outside += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-2 and worst_gap <= 1e-2 and divergent == outside and dt < 300.0
    emit(
        capsys, 6, "quotient-oracle-agreement", ok,
        f"n=100 max_rel={worst:.2e} near_degenerate={near} max_rel={worst_gap:.2e} "
        f"outside={outside} divergent={divergent} time={dt:.2f}s",
    )


# ---------------------------------------------------------------- 7


def test_acceptance_07_frame_identities(capsys):
    rng = np.random.default_rng(707)
    worst_orth, worst_rec = 0.0, 0.0
    for i in range(200):
        kind = i % 5
        n = int(rng.integers(2, 7))
        m = n + int(rng.integers(0, 3))
        if kind == 0:
            X = rng.standard_normal((n, m)) * rng.uniform(0.3, 3.0)
        elif kind == 1:  # rank-deficient
            r = int(rng.integers(1, n))
            X = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        elif kind == 2:  # square zero
            X = np.zeros((n, n))
        elif kind == 3:  # rectangular zero
            X = np.zeros((n, m))
        else:  # repeated singular groups
            U = random_orthogonal(rng, n)
            V = random_orthogonal(rng, m)
            vals = np.sort(rng.choice([2.0, 2.0, 1.0, 0.0], size=n))[::-1]
            X = U @ np.diag(vals) @ V[:, :n].T
        pair = svd_ordered(X)
        grouping = group_singular(pair, 1)
        frame = build_frame(pair, grouping)
        P = frame.P
        worst_orth = max(worst_orth, float(np.max(np.abs(P.T @ P - np.eye(P.shape[1])))))
        rec = P @ np.diag(frame.eigenvalues) @ P.T
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - bmap(X)))))
    ok = worst_orth <= 1e-10 and worst_rec <= 1e-10
    emit(capsys, 7, "frame-identities", ok, f"n=200 orth={worst_orth:.2e} recon={worst_rec:.2e}")


# ---------------------------------------------------------------- 8


def test_acceptance_08_prox_correctness(capsys):
    rng = np.random.default_rng(808)
    matrix_fail = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(0, 3))
        kappa = int(rng.integers(1, n + 1))
        Y = rng.standard_normal((n, m)) * rng.uniform(0.3, 3.0)
        t = float(rng.uniform(0.2, 2.5))
        Z = kyfan_matrix_prox(Y, t, kappa)
        ok, _ = subdiff_membership(Z, (Y - Z) / t, kappa)
        matrix_fail += int(not ok)
    worst_vec = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        kappa = int(rng.integers(1, d + 1))
        x = rng.standard_normal(d) * rng.uniform(0.5, 4.0)
        t = float(rng.uniform(0.2, 3.0))
        mine = kyfan_vector_prox(x, t, kappa)
        ref = oracle_vector_prox_qp(x, t, kappa)
        worst_vec = max(worst_vec, float(np.max(np.abs(mine - ref))))
    # the envelope oracle's small steps: error relative to the step
    worst_small = 0.0
    for t in (1e-2, 1e-4, 1e-6, 1e-8):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            kappa = int(rng.integers(1, d + 1))
            x = rng.standard_normal(d) * rng.uniform(0.5, 4.0)
            err = np.max(np.abs(kyfan_vector_prox(x, t, kappa) - oracle_vector_prox_qp(x, t, kappa)))
            worst_small = max(worst_small, float(err) / t)
    ok = matrix_fail == 0 and worst_vec <= 1e-6 and worst_small <= 1e-6
    emit(
        capsys, 8, "prox-correctness", ok,
        f"matrix_fail={matrix_fail}/200 vector_max_err={worst_vec:.2e} "
        f"small_step_max_err/t={worst_small:.2e} qp={'active' if QP_CHECK_ACTIVE else 'inactive'}",
    )


# ---------------------------------------------------------------- 9


@pytest.mark.slow
def test_acceptance_09_verdict_vs_probe(capsys):
    t0 = time.perf_counter()
    fam = tilt_family()
    assert len(fam) == 20
    mism, worst_res = [], 0.0
    for label, spec, expected in fam:
        verdict = tilt_check(spec, options=TiltOptions(seed=5))
        probe = tilt_probe(spec, seed=11)
        if verdict.status != expected or probe.consistent_with != expected:
            mism.append((label, expected, verdict.status, probe.consistent_with))
        if verdict.status == "Unstable":
            res = verdict.certificate["witness_residuals"]
            total = res["off_hull"] + max(0.0, -res["margin"]) + verdict.certificate["kernel_residual"]
            worst_res = max(worst_res, total)
    dt = time.perf_counter() - t0
    ok = not mism and worst_res <= 1e-8 and dt < 600.0
    emit(
        capsys, 9, "verdict-vs-probe", ok,
        f"n=20 mismatches={mism or 0} witness_res={worst_res:.2e} time={dt:.1f}s",
    )


# ---------------------------------------------------------------- 10


def _decisive_kernel(rng, cert):
    """A set element with certified nonnegative margin, pair coordinates."""
    n, m = cert.pair.n, cert.pair.m
    H = np.zeros((n, m))
    if len(cert.beta1):
        i = int(cert.beta1[0])
        H[i, i] = 1.0
    elif len(cert.beta_plus):
        for i in cert.beta_plus:
            H[int(i), int(i)] = 1.0 / np.sqrt(len(cert.beta_plus))
    return cert.pair.U @ H @ cert.pair.V.T


def _span_gap(A, B):
    """||(I - A A^T) B||_F for A with orthonormal columns."""
    return float(np.linalg.norm(B - A @ (A.T @ B)))


def _margin_gap(a, b):
    """Largest |a - b| over two margin arrays: 0 where both hold the same
    infinity (a vacuous inequality stays vacuous), inf where one does."""
    with np.errstate(invalid="ignore"):
        d = np.abs(a - b)
    return float(np.max(np.where(a == b, 0.0, d), initial=0.0))


def test_acceptance_10_pair_invariance(capsys):
    """Rotating the degenerate blocks of the simultaneous SVD (the test's own
    rotation code) moves neither the hull's span nor the sandwich margins of
    hull elements, and rotation samples leave the verdict unchanged."""
    rng = np.random.default_rng(1010)
    rng_rot = np.random.default_rng(1011)
    changes = []
    span_worst = margin_worst = 0.0
    statuses = {"Stable": 0, "Unstable": 0, "Inconclusive": 0}
    for i in range(100):
        X, Gamma, kappa, cert = member_with_cert(rng, case=CASES[i % 3])
        mode = i % 4
        if mode in (0, 1):
            Q = np.eye(X.size)
        elif mode == 2:
            Q = projector_complement(rng.standard_normal(X.shape))
        else:
            W = _decisive_kernel(rng, cert)
            if np.linalg.norm(W) < 1e-9:
                Q = np.eye(X.size)
            else:
                Q = projector_complement(W)
        spec = make_quadratic_spec(X, Gamma, kappa, Q)
        ups = build_upsilon(spec)
        n, m = X.shape
        rotated = rotate_degenerate_blocks(ups.cert, rng_rot)
        B = dense_hull_basis(ups)
        B_rot = dense_hull_basis(ups, pair=rotated)
        span_worst = max(span_worst, _span_gap(B, B_rot), _span_gap(B_rot, B))
        if B.shape[1]:
            C = rng_rot.standard_normal((5, B.shape[1]))
            Ws = (C / np.linalg.norm(C, axis=1, keepdims=True)) @ B.T
            Ws = Ws.reshape(5, n, m)
            here = tilt._sandwich(ups, ups.pair.U.T @ Ws @ ups.pair.V)[0]
            there = tilt._sandwich(
                dataclasses.replace(ups, pair=rotated), rotated.U.T @ Ws @ rotated.V
            )[0]
            margin_worst = max(margin_worst, _margin_gap(here, there))
        base = tilt_check(spec, ups=ups, options=TiltOptions(seed=7))
        rot = tilt_check(spec, ups=ups, options=TiltOptions(seed=7, rotation_samples=8))
        statuses[base.status] += 1
        if base.status != rot.status:
            changes.append((i, base.status, rot.status))
    ok = (
        not changes
        and statuses["Stable"] > 0
        and statuses["Unstable"] > 0
        and span_worst <= 1e-12
        and margin_worst <= 1e-12
    )
    emit(
        capsys, 10, "pair-invariance", ok,
        f"n=100 changes={changes or 0} statuses={statuses} "
        f"span_gap={span_worst:.1e} margin_gap={margin_worst:.1e}",
    )


# ---------------------------------------------------------------- 11


def test_acceptance_11_determinism(capsys):
    X3 = np.diag([3.0, 2.0, 1.0])
    G3 = np.diag([1.0, 1.0, 0.0])
    W = np.zeros((3, 3))
    W[1, 1] = 1.0

    def problem(Q):
        n, m = X3.shape
        L = -unvec(Q @ vec(X3), n, m) - G3
        return {
            "n": n, "m": m, "kappa": 2, "nu": 1.0,
            "X": matrix_to_json(X3),
            "theta": {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)},
        }

    identical = True
    for Q, probe in ((np.eye(9), True), (projector_complement(W), False)):
        p = problem(Q)
        r1, c1 = run_analyze(p, cross_check=True, probe=probe, d2_samples=2)
        r2, c2 = run_analyze(p, cross_check=True, probe=probe, d2_samples=2)
        if c1 != c2 or canonical_dumps(r1).encode() != canonical_dumps(r2).encode():
            identical = False
    emit(capsys, 11, "determinism", identical, "2 problems x 2 runs byte-identical")
