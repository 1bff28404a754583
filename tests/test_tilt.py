"""Tilt-stability verdicts: hull construction, sandwich test, kernel intersection."""
from __future__ import annotations

import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_hull_basis, make_quadratic_spec, projector_complement, tilt_family
from kyfan_tilt.instances import (
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_membership_instance,
)
from kyfan_tilt import cli, io, tilt
from kyfan_tilt.config import DEFAULT_TOLS
from kyfan_tilt.instances import random_incone_direction, random_orthogonal
from kyfan_tilt.io import matrix_from_json, matrix_to_json, unvec, vec
from kyfan_tilt.secder import critical_cone_membership, sandwich
from kyfan_tilt.subgrad import subdiff_membership
from kyfan_tilt.tilt import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    LeastSquaresTheta,
    ProblemSpec,
    QuadraticTheta,
    StationarityError,
    TiltOptions,
    build_upsilon,
    stationarity_gap,
    tilt_check,
    upsilon_residuals,
)
from reference import d2_psi_general

seeds = st.integers(0, 2**31 - 1)
CASES = [INTERIOR, ZERO_STRICT, ZERO_TIGHT]


def spec_with_kernel(X, Gamma, kappa, W):
    """Quadratic problem stationary at X whose Hessian kernel is span{W}."""
    return make_quadratic_spec(X, Gamma, kappa, projector_complement(W))


# the running degenerate example: a repeated middle group split 2/0/2 by Gamma
X6 = np.diag([3.0, 2.0, 2.0, 2.0, 2.0, 1.0])
G6 = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
K6 = 3


# ---------------------------------------------------------------- validation


def test_validate_rejects_malformed_problems():
    X = np.diag([3.0, 2.0])
    Q = np.eye(4)
    good = make_quadratic_spec(X, np.diag([1.0, 0.0]), 1, Q)
    good.validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X.T @ np.ones((2, 1)), nu=1.0, kappa=1, theta=good.theta).validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X, nu=-1.0, kappa=1, theta=good.theta).validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X, nu=1.0, kappa=3, theta=good.theta).validate()
    with pytest.raises(ValueError):
        ProblemSpec(Xbar=X, nu=1.0, kappa=1, theta=QuadraticTheta(Q=np.eye(3), L=np.zeros((2, 2)))).validate()
    with pytest.raises(ValueError):  # indefinite Hessian
        ProblemSpec(
            Xbar=X, nu=1.0, kappa=1, theta=QuadraticTheta(Q=-np.eye(4), L=np.zeros((2, 2)))
        ).validate()


def test_validate_flags_nonstationary_point():
    X = np.diag([3.0, 2.0])
    theta = QuadraticTheta(Q=np.eye(4), L=np.zeros((2, 2)))  # grad = X != subgradient
    with pytest.raises(StationarityError) as ei:
        ProblemSpec(Xbar=X, nu=1.0, kappa=1, theta=theta).validate()
    assert ei.value.distance > 0.1
    assert stationarity_gap(X, -X, 1) == pytest.approx(ei.value.distance)


def capped_simplex_proj_enum(h, mass):
    """Projection onto {0 <= x <= 1, sum x = mass} by enumerating every
    assignment of each coordinate to 0, 1 or free; a free block is h - lam
    with lam fixed by the sum.  The projection is the feasible candidate
    nearest to h."""
    k = len(h)
    states = np.array(list(itertools.product((0, 1, 2), repeat=k)))
    free = states == 2
    nfree = free.sum(axis=1)
    ones = (states == 1).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = ((free * h).sum(axis=1) - (mass - ones)) / nfree
    cand = np.where(free, h - lam[:, None], (states == 1).astype(float))
    ok = (
        np.all(cand >= -1e-12, axis=1)
        & np.all(cand <= 1 + 1e-12, axis=1)
        & (np.abs(cand.sum(axis=1) - mass) <= 1e-12)
    )
    cand = cand[ok]
    return cand[np.argmin(np.sum((cand - h) ** 2, axis=1))]


def test_capped_simplex_proj_matches_enumeration():
    rng = np.random.default_rng(7)
    for i in range(300):
        k = int(rng.integers(1, 9))
        h = rng.standard_normal(k) * rng.choice([0.3, 1.0, 3.0])
        if i % 3 == 0:
            h = np.round(h * 2) / 2  # ties, and ties one apart
        mass = [0.0, float(k), float(rng.integers(0, k + 1)), float(rng.uniform(0, k))][i % 4]
        got = tilt._capped_simplex_proj(h, mass)
        assert np.max(np.abs(got - capped_simplex_proj_enum(h, mass))) <= 1e-10, (h, mass)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_validate_accepts_constructed_stationary_points(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    cert = spec.validate()
    assert cert.kappa == kappa
    assert np.max(np.abs(spec.gamma_bar() - Gamma)) < 1e-12


# ---------------------------------------------------------------- hull structure


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_hull_basis_orthonormal(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    ups = build_upsilon(spec)
    B = dense_hull_basis(ups)
    assert B.shape == (X.size, ups.hull.dim)
    if B.shape[1]:  # the strict zero case can have a trivial direction set
        assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_exactness_matches_block_census(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    ups = build_upsilon(spec)
    cert = ups.cert
    n1, npl, n0 = len(cert.beta1), len(cert.beta_plus), len(cert.beta0)
    if case == INTERIOR:
        want = (npl == 0 and (n0 == 0 or n1 == 0)) or (npl > 0 and n0 == 0 and n1 == 0)
    elif case == ZERO_STRICT:
        want = True
    else:
        want = npl == 0 and n1 == 0
    assert ups.exact == want, (case, n1, npl, n0)
    # tight: kappa - kappa0 >= 1 puts a unit of Gamma's mass on beta1 or
    # beta_plus, so the sandwich keeps two terms and the set is never exact
    if case == ZERO_TIGHT:
        assert not ups.exact and n1 + npl > 0, (n1, npl, n0)


def test_hull_basis_lies_in_the_cone():
    # every column of the hull basis, expanded densely by the library, is a
    # critical-cone direction up to its sandwich: the pattern residuals
    # vanish (cross in the interior case, beta1_sym and off_pattern in the
    # zero cases).  The strict case has no beta_plus diagonal, which its
    # cone pins to zero
    zero = ("beta1_sym", "off_pattern")
    keys = {INTERIOR: ("cross",), ZERO_STRICT: zero, ZERO_TIGHT: zero}
    strict_with_plus = 0
    for seed in range(900):
        case = CASES[seed % 3]
        rng = np.random.default_rng(seed)
        X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
        ups = build_upsilon(make_quadratic_spec(X, Gamma, kappa, np.eye(X.size)))
        strict_with_plus += case == ZERO_STRICT and len(ups.cert.beta_plus) > 0
        for col in ups.hull.expand(np.eye(ups.hull.dim)).T:
            res = critical_cone_membership(ups.cert, unvec(col, *X.shape)).residuals
            assert max(res[k] for k in keys[case]) <= 1e-12, (seed, case, res)
    assert strict_with_plus >= 150, strict_with_plus


def test_strict_beta_plus_slide_is_stable():
    # Xbar = diag(3,0,0), Gamma = diag(1,0.5,0.2), kappa = 2: the strict case
    # with beta_plus = {1,2}.  The Hessian kernel diag(0,1,1)/sqrt 2 lies
    # outside the critical cone (d2 Psi = +inf there), so it is no witness
    X = np.diag([3.0, 0.0, 0.0])
    Gamma = np.diag([1.0, 0.5, 0.2])
    W = np.diag([0.0, 1.0, 1.0]) / np.sqrt(2)
    spec = spec_with_kernel(X, Gamma, 2, W)
    assert not d2_psi_general(X, Gamma, W, 2).is_finite
    v = tilt_check(spec)
    assert v.status == STABLE
    assert v.certificate["case"] == "ZeroGroupStrict" and v.certificate["hull_dim"] == 1


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_hull_membership_residual(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    ups = build_upsilon(spec)
    B = dense_hull_basis(ups)
    coeff = rng.standard_normal(B.shape[1])
    W = (B @ coeff).reshape(X.shape)
    assert upsilon_residuals(ups, W)["off_hull"] < 1e-9


def _block_product_instances():
    """Seeded instances of the three cases (n up to 6, m up to 8), plus the
    zero matrix with Gamma = 0, whose hull is empty."""
    out = []
    for seed in range(90):
        rng = np.random.default_rng(seed)
        X, Gamma, kappa, _ = random_membership_instance(rng, case=CASES[seed % 3])
        out.append((X, Gamma, kappa))
    out.append((np.zeros((2, 3)), np.zeros((2, 3)), 1))
    return out


@pytest.mark.parametrize("banded", [False, True])
def test_hull_blocks_match_the_dense_basis(monkeypatch, banded):
    # every product with the block-held hull against the reference basis B:
    # M @ B, B^T X (band by band, and summed over the bands), B @ C, the
    # distance to the hull, and both restricted Hessians
    if banded:  # one matrix row of G per band, one row of M per chunk
        monkeypatch.setattr(tilt, "_STACK_FLOATS", 1)
        monkeypatch.setattr(tilt, "_SUB_FLOATS", 1)
    seen = {"beta_plus": 0, "no_beta_plus": 0, "m>n": 0, "no_free_block": 0, "empty_hull": 0}
    for X, Gamma, kappa in _block_product_instances():
        n, m = X.shape
        nm = n * m
        ups = build_upsilon(make_quadratic_spec(X, Gamma, kappa, np.eye(nm)))
        hull, B = ups.hull, dense_hull_basis(ups)
        assert B.shape == (nm, hull.dim)
        rng = np.random.default_rng(nm + hull.dim)
        M = rng.standard_normal((5, nm))
        X2 = rng.standard_normal((nm, 4))
        C = rng.standard_normal((hull.dim, 3))
        tol = 1e-13 * nm
        assert np.max(np.abs(hull.right(M) - M @ B), initial=0.0) <= tol
        total = np.zeros((hull.dim, 4))
        for lo, hi in hull.bands(m):
            band = slice(lo * m, hi * m)
            got = np.zeros((hull.dim, 4))
            hull.left(X2[band], lo, hi, got)
            assert np.max(np.abs(got - B[band].T @ X2[band]), initial=0.0) <= tol
            hull.left(X2[band], lo, hi, total)
        assert np.max(np.abs(total - B.T @ X2), initial=0.0) <= tol
        assert hull.expand(C).shape == (nm, 3)
        assert np.max(np.abs(hull.expand(C) - B @ C), initial=0.0) <= tol
        for W in (rng.standard_normal((n, m)), unvec(B @ C[:, 0], n, m)):
            w = vec(W)
            want = np.linalg.norm(w - B @ (B.T @ w))
            assert abs(upsilon_residuals(ups, W)["off_hull"] - want) <= tol * np.linalg.norm(w)
        G = rng.standard_normal((nm, nm))
        Q = G @ G.T
        A = rng.standard_normal((nm + 2, nm))
        R_q = QuadraticTheta(Q=Q, L=np.zeros((n, m))).restricted_hessian(hull)
        R_ls = LeastSquaresTheta(A=A, b=np.zeros(nm + 2)).restricted_hessian(hull)
        assert R_q.shape == R_ls.shape == (hull.dim, hull.dim)
        assert np.max(np.abs(R_q - 0.5 * (B.T @ Q @ B + (B.T @ Q @ B).T)), initial=0.0) <= tol * np.linalg.norm(Q)
        assert np.max(np.abs(R_ls - (A @ B).T @ (A @ B)), initial=0.0) <= tol * np.linalg.norm(A) ** 2
        cert = ups.cert
        seen["beta_plus" if len(cert.beta_plus) else "no_beta_plus"] += hull.dim > 0
        seen["m>n"] += m > n and hull.dim > 0
        seen["no_free_block"] += hull.dim > 0 and hull.dim == hull.free_at
        seen["empty_hull"] += hull.dim == 0
    assert all(seen.values()), seen


def test_verdict_path_forms_no_dense_hull_basis():
    # nm = 1024 with a 574-dimensional hull (45 symmetric pairs of alpha and
    # beta1, a 23 x 23 free block) and the Hessian kernel spanned by a hull
    # element: validation excluded, the hull, the restricted Hessian, its
    # kernel and the witness never hold an nm x hull_dim array beside the
    # contraction temporaries
    n = 32
    X = np.diag([3.0] + [2.0] * 16 + [1.0] * 15)
    Gamma = np.diag([1.0] * 9 + [0.0] * 23)
    ok, cert = subdiff_membership(X, Gamma, 9)
    assert ok
    W = np.zeros((n, n))
    W[0, 0] = 1.0
    spec = spec_with_kernel(X, Gamma, 9, cert.pair.U @ W @ cert.pair.V.T)
    tracemalloc.start()
    try:
        ups = build_upsilon(spec, cert=cert)
        v = tilt_check(spec, ups=ups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hull_dim = v.certificate["hull_dim"]
    assert hull_dim == 45 + 23 * 23
    assert v.status == UNSTABLE and v.certificate["intersection_dim"] == 1
    dense = n * n * hull_dim * 8
    assert peak < dense + 8 * tilt._STACK_FLOATS, (peak, dense)


def test_build_upsilon_raises_off_stationarity():
    X = np.diag([3.0, 2.0])
    theta = QuadraticTheta(Q=np.eye(4), L=np.zeros((2, 2)))
    with pytest.raises(StationarityError):
        build_upsilon(ProblemSpec(Xbar=X, nu=1.0, kappa=1, theta=theta))


# ---------------------------------------------------------------- sandwich residuals


def test_sandwich_margin_on_engineered_directions():
    spec = make_quadratic_spec(X6, G6, K6, np.eye(X6.size))
    ups = build_upsilon(spec)
    assert not ups.exact
    # beta1 = {1,2}, beta0 = {3,4}: push the beta0 diagonal above lambda_min(beta1)
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    res = upsilon_residuals(ups, W)
    assert res["off_hull"] < 1e-12
    assert res["margin"] == pytest.approx(-0.5, abs=1e-12)
    assert res["upper"] == pytest.approx(0.0, abs=1e-12)
    assert res["lower"] == pytest.approx(0.5, abs=1e-12)
    # the one-sided slide along a single beta1 singular value is admissible
    W2 = np.zeros((6, 6))
    W2[1, 1] = 1.0
    assert upsilon_residuals(ups, W2)["margin"] >= -1e-12


def _bounds_instances():
    """Seeded interior and tight instances with random and in-cone
    directions."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        case = (INTERIOR, ZERO_TIGHT)[seed % 2]
        X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
        ups = build_upsilon(make_quadratic_spec(X, Gamma, kappa, np.eye(X.size)))
        yield ups, rng.standard_normal(X.shape)
        yield ups, random_incone_direction(rng, ups.cert)


def test_cone_and_margin_read_the_same_bounds():
    seen = {"beta_plus": 0, "in_cone": 0, "outside": 0}
    for ups, G in _bounds_instances():
        cone = critical_cone_membership(ups.cert, G)
        res = upsilon_residuals(ups, G)
        assert cone.residuals["lower"] == res["lower"]
        assert cone.residuals["upper"] == res["upper"]
        if len(ups.cert.beta_plus):
            assert cone.varpi == res["varpi"]
            seen["beta_plus"] += 1
        else:
            assert res["varpi"] is None
        seen["in_cone" if cone.member else "outside"] += 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("case", CASES)
def test_stacked_sandwich_matches_single_calls(case):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
        ok, cert = subdiff_membership(X, Gamma, kappa)
        assert ok
        H = rng.standard_normal((64, *X.shape))
        stacked = sandwich(cert, H)
        singles = [sandwich(cert, H[i : i + 1]) for i in range(64)]
        for k, got in enumerate(stacked):
            if got is None:
                assert all(one[k] is None for one in singles)
            else:
                assert np.array_equal(got, np.concatenate([one[k] for one in singles]))


# ---------------------------------------------------------------- verdicts


def test_verdict_stable_definite_hessian():
    rng = np.random.default_rng(0)
    X, Gamma, kappa, _ = random_membership_instance(rng)
    X3, G3 = np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0])
    # Q = I: the restricted Hessian is the identity, or empty (+inf) when
    # the hull is
    for X, Gamma, kappa, want in ((X, Gamma, kappa, math.inf), (X3, G3, 2, 1.0)):
        v = tilt_check(make_quadratic_spec(X, Gamma, kappa, np.eye(X.size)))
        assert v.status == STABLE
        assert (v.certificate["hull_dim"] > 0) == (want == 1.0)
        assert v.certificate["restricted_lambda_min"] == pytest.approx(want, abs=1e-12)
        assert v.certificate["restricted_cutoff"] < 1e-6


def test_verdict_stable_kernel_transverse():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    Wsk = np.zeros((3, 3))
    Wsk[0, 1], Wsk[1, 0] = 1.0, -1.0  # skew inside the leading block: off-hull
    v = tilt_check(spec_with_kernel(X, Gamma, 2, Wsk / np.sqrt(2)))
    assert v.status == STABLE
    # the kernel direction is orthogonal to the hull: B^T Q B = I
    assert v.certificate["restricted_lambda_min"] == pytest.approx(1.0, abs=1e-12)
    assert v.certificate["restricted_cutoff"] < 1e-6


def test_verdict_unstable_exact_case():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    W = np.zeros((3, 3))
    W[1, 1] = 1.0  # critical singular value slide
    v = tilt_check(spec_with_kernel(X, Gamma, 2, W))
    assert v.status == UNSTABLE
    assert v.certificate["exact"]
    assert v.witness is not None
    assert np.linalg.norm(v.witness) == pytest.approx(1.0, abs=1e-12)
    assert v.certificate["witness_residuals"]["off_hull"] < 1e-9
    assert v.certificate["kernel_residual"] < 1e-9


class _Namespace:
    """`base` with some attributes replaced."""

    def __init__(self, base, **replaced):
        self.__dict__.update(replaced)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def _wide_slide():
    """diag(7, ..., 1) with Gamma = diag(1, ..., 1, 0), kappa = 6, and the
    Hessian kernel span{E_00}, a hull element: exact Unstable with q = 1 on
    a hull of dimension 22, above tilt._EIGH_MAX_SIDE."""
    X, G = np.diag(np.arange(7.0, 0.0, -1.0)), np.diag([1.0] * 6 + [0.0])
    W = np.zeros((7, 7))
    W[0, 0] = 1.0
    Q = projector_complement(W)
    L = -(Q @ vec(X)).reshape(7, 7) - G
    return _problem(X, G, 6, {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)})


def _exact_kernel_problems():
    """Exact-case Unstable problems: the unstable_slide demo (q = 1), X3/G3
    in random coordinates with the kernel along the beta1 slide alone
    (q = 1) and along it and the gamma entry (q = 2), both hull elements,
    and _wide_slide (q = 1 on a wider hull)."""
    X3, G3 = np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0])
    problems = [json.loads((DEMO / "unstable_slide.json").read_text())]
    rng = np.random.default_rng(5)
    U, V = random_orthogonal(rng, 3), random_orthogonal(rng, 3)
    slide, entry = np.zeros((3, 3)), np.zeros((3, 3))
    slide[1, 1] = entry[2, 2] = 1.0
    for kernel in ([slide], [slide, entry]):
        Q = np.eye(9)
        for E in kernel:
            w = vec(U @ E @ V.T)
            Q -= np.outer(w, w)
        L = -(Q @ vec(U @ X3 @ V.T)).reshape(3, 3) - U @ G3 @ V.T
        theta = {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)}
        problems.append(_problem(U @ X3 @ V.T, U @ G3 @ V.T, 2, theta))
    return problems + [_wide_slide()]


def test_exact_witness_does_not_depend_on_the_kernel_basis(monkeypatch):
    # the kernel basis comes back negated (for q = 1 on a hull wider than
    # tilt._EIGH_MAX_SIDE the inverse-iteration vector, otherwise eigh's
    # eigenvectors), or for q = 2 turned by 90 degrees (a rotation that is
    # exact in floating point): the span is the same, so the report is too,
    # byte for byte
    turns = {"negated": lambda Y: -Y, "rotated": lambda Y: np.column_stack([Y[:, 1], -Y[:, 0]])}
    lone = tilt._lone_kernel_vector
    qs = []
    for problem in _exact_kernel_problems():
        report, code = cli.run_analyze(problem)
        assert code == 1 and report["upsilon"]["exact"]
        q = report["verdict"]["certificate"]["intersection_dim"]
        inverse_iteration = q == 1 and report["upsilon"]["hull_dim"] > tilt._EIGH_MAX_SIDE
        qs.append((q, inverse_iteration))
        for name, turn in turns.items():
            if name == "rotated" and q != 2:
                continue
            turned = []

            def lone_vector(R, lam, _turn=turn, _turned=turned):
                y = lone(R, lam)
                _turned.append(y.shape[1])
                return _turn(y)

            def eigh(a, _turn=turn, _turned=turned):
                lam, Y = np.linalg.eigh(a)
                kernel = lam <= 1e-9  # these kernels sit at rounding level
                Y = Y.copy()
                Y[:, kernel] = _turn(Y[:, kernel])
                _turned.append(int(kernel.sum()))
                return lam, Y

            with monkeypatch.context() as mp:
                if inverse_iteration:
                    mp.setattr(tilt, "_lone_kernel_vector", lone_vector)
                else:
                    mp.setattr(tilt, "np", _Namespace(np, linalg=_Namespace(np.linalg, eigh=eigh)))
                again, code_again = cli.run_analyze(problem)
            assert turned == [q], (name, turned)
            assert code_again == code
            assert io.canonical_dumps(again) == io.canonical_dumps(report), (name, q)
    assert sorted(qs) == [(1, False), (1, False), (1, True), (2, False)]


def test_restricted_lambda_min_vanishes_when_the_kernel_meets_the_hull():
    # the exact slide case in rotated coordinates: the kernel lies in the
    # hull, so the Hessian restricted to the hull is singular
    E = np.zeros((3, 3))
    E[1, 1] = 1.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        U, V = random_orthogonal(rng, 3), random_orthogonal(rng, 3)
        X = U @ np.diag([3.0, 2.0, 1.0]) @ V.T
        Gamma = U @ np.diag([1.0, 1.0, 0.0]) @ V.T
        v = tilt_check(spec_with_kernel(X, Gamma, 2, U @ E @ V.T))
        assert v.status == UNSTABLE and v.certificate["exact"], seed
        cert = v.certificate
        assert cert["restricted_lambda_min"] <= cert["restricted_cutoff"], seed
        assert cert["intersection_dim"] == 1, seed


def _planted_psd(rng, d, q, gap, off_ones=False):
    """Symmetric PSD d x d with q zero eigenvalues (its planted kernel), then
    gap, then eigenvalues in [gap, 1], 1 among them, in random eigenvectors.
    With off_ones the kernel is orthogonal to the all-ones vector."""
    M = rng.standard_normal((d, d))
    if off_ones:
        M[:, :q] -= M[:, :q].mean(axis=0)
    V = np.linalg.qr(M)[0]
    lam = np.concatenate([np.zeros(q), [gap, 1.0], rng.uniform(gap, 1.0, d - q - 2)])
    R = (V * lam) @ V.T
    return 0.5 * (R + R.T)


def test_restricted_kernel_matches_the_eigh_reference(monkeypatch):
    # q from the eigenvalues, and for q = 1 with a clear gap on a side above
    # tilt._EIGH_MAX_SIDE the inverse-iteration vector: the same q,
    # lambda_min and kernel span as eigh's, which is called only for q >= 2,
    # the narrow gap and the small side
    cutoff, eps = 1e-9, np.finfo(float).eps
    eigh_calls = []

    def eigh(a):
        eigh_calls.append(a.shape)
        return np.linalg.eigh(a)

    monkeypatch.setattr(tilt, "np", _Namespace(np, linalg=_Namespace(np.linalg, eigh=eigh)))
    rng = np.random.default_rng(31)
    cases = [(d, q, gap, False) for d in (7, 120) for q in (0, 1, 2) for gap in (1.0, 1e-2, 1e-4, 1e-5, 1e-7)]
    cases += [(120, 1, gap, True) for gap in (1.0, 1e-4)]
    for d, q, gap, off_ones in cases:
        R = _planted_psd(rng, d, q, gap, off_ones)
        lam_ref, Y_ref = np.linalg.eigh(R)
        N_ref = Y_ref[:, lam_ref <= cutoff]
        before = R.copy()
        eigh_calls.clear()
        Y, lam_min = tilt._restricted_kernel(R, cutoff)
        assert np.array_equal(R, before)
        assert Y.shape == (d, q) == N_ref.shape, (d, q, gap)
        assert abs(lam_min - lam_ref[0]) <= 4 * d * eps * np.linalg.norm(R, 2)
        if q:
            assert np.allclose(Y.T @ Y, np.eye(q), atol=1e-12)
            sin = np.linalg.norm(Y - N_ref @ (N_ref.T @ Y), 2)
            assert sin <= 1e-10, (d, q, gap, sin)
        by_eigh = q >= 2 or q == 1 and (gap <= tilt._INVIT_GAP_REL or d <= tilt._EIGH_MAX_SIDE)
        assert eigh_calls == ([(d, d)] if by_eigh else []), (d, q, gap)
    assert np.array_equal(tilt._restricted_kernel(np.zeros((1, 1)), cutoff)[0], np.ones((1, 1)))


def test_kernel_step_on_both_sides_of_the_eigh_side(monkeypatch):
    # the lone kernel vector of side tilt._EIGH_MAX_SIDE comes from eigh;
    # one side above, inverse iteration runs, and eigh only where it refuses
    # its vector.  On both sides the vector spans eigh's line and meets the
    # residual bound of _lone_kernel_vector
    eps, cutoff, side = np.finfo(float).eps, 1e-9, tilt._EIGH_MAX_SIDE
    eigh_calls, lone_results = [], []
    lone = tilt._lone_kernel_vector

    def eigh(a):
        eigh_calls.append(a.shape)
        return np.linalg.eigh(a)

    def lone_vector(R, lam):
        lone_results.append(lone(R, lam))
        return lone_results[-1]

    monkeypatch.setattr(tilt, "np", _Namespace(np, linalg=_Namespace(np.linalg, eigh=eigh)))
    monkeypatch.setattr(tilt, "_lone_kernel_vector", lone_vector)
    rng = np.random.default_rng(32)
    for d in (side, side + 1):
        for gap in (1.0, 1e-2, 1e-4, 1e-5):
            R = _planted_psd(rng, d, 1, gap)
            lam, Y_ref = np.linalg.eigh(R)
            eigh_calls.clear()
            lone_results.clear()
            Y, lam_min = tilt._restricted_kernel(R, cutoff)
            assert len(lone_results) == (d > side), (d, gap)
            refused = d <= side or lone_results[0] is None
            assert eigh_calls == ([(d, d)] if refused else []), (d, gap)
            y = Y[:, 0]
            assert abs(y @ Y_ref[:, 0]) >= 1 - 1e-12, (d, gap)
            scale = max(abs(lam[0]), abs(lam[-1]))
            assert np.linalg.norm(R @ y - lam_min * y) <= d * eps * scale, (d, gap)


def test_lone_kernel_vector_keeps_clean_kernels():
    # planted exact one-dimensional kernels with gap 1, 300 per side: inverse
    # iteration keeps every vector (its bound covers the rounding of the
    # residual itself, and a start with a small kernel component takes more
    # steps), and each spans eigh's line
    rng = np.random.default_rng(0)
    for d in (17, 30, 120):
        for _ in range(300):
            R = _planted_psd(rng, d, 1, 1.0)
            y = tilt._lone_kernel_vector(R, np.linalg.eigvalsh(R))
            assert y is not None, d
            assert abs(y[:, 0] @ np.linalg.eigh(R)[1][:, 0]) >= 1 - 1e-12, d


def test_verdict_unstable_inexact_case_needs_search():
    W = np.zeros((6, 6))
    W[1, 1] = 1.0
    v = tilt_check(spec_with_kernel(X6, G6, K6, W))
    assert v.status == UNSTABLE
    assert not v.certificate["exact"]
    res = v.certificate["witness_residuals"]
    assert res["off_hull"] < 1e-9
    assert res["margin"] >= -1e-8
    assert v.certificate["kernel_residual"] < 1e-9


def test_verdict_inconclusive_engineered():
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    v = tilt_check(spec_with_kernel(X6, G6, K6, W))
    assert v.status == INCONCLUSIVE
    assert v.certificate["intersection_dim"] >= 1
    assert v.certificate["search"]["best_margin"] < -1e-3


def test_witness_search_reports_starts_that_ran():
    # an Inconclusive search exhausts every start; starts_used counts them
    # all, not the index of the best one.  The intersection is span{W}, so
    # the starts are +W and -W, one margin evaluation each; both margins
    # are equal and the best stays the first.
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    cert = tilt_check(spec_with_kernel(X6, G6, K6, W)).certificate
    assert cert["intersection_dim"] == 1
    assert cert["search"]["starts_used"] == 2
    assert cert["search"]["margin_evals"] == 2


# ---------------------------------------------------------------- witness search


def _sequential_search(ups, N, rng, margin_tol, steps):
    """Reference witness search: the starts run one after another, each
    margin from upsilon_residuals.  Returns (W, diagnostics, hit_step,
    stalled), where hit_step is the ascent step at which a margin first
    exceeded margin_tol (-1 at the start point, None when no start hit) and
    stalled counts the starts stopped by the stall rule."""
    q = N.shape[1]
    n, m = ups.pair.n, ups.pair.m

    def margin_of(c):
        return upsilon_residuals(ups, unvec(N @ c, n, m))["margin"]

    starts = []
    for i in range(min(q, tilt._SEARCH_STARTS)):
        e = np.zeros(q)
        e[i] = 1.0
        starts.append(e)
    while len(starts) < tilt._SEARCH_STARTS:
        v = rng.standard_normal(q)
        starts.append(v / np.linalg.norm(v))
    if q == 1:
        starts, steps = [starts[0], -starts[0]], 0
    best, evals, ran, hit_step, stalled = (-math.inf, None), 0, 0, None, 0
    for idx, c in enumerate(starts):
        ran = idx + 1
        val = margin_of(c)
        evals += 1
        if val > best[0]:
            best = (val, c.copy())
        if best[0] > margin_tol:
            hit_step = -1
            break
        h = tilt._FD_STEP
        start_best, flat_for = val, 0
        for t in range(steps):
            if not math.isfinite(val):
                break
            g = np.zeros(q)
            for j in range(q):
                cp, cm = c.copy(), c.copy()
                cp[j] += h
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
                best = (val, c.copy())
            if best[0] > margin_tol:
                hit_step = t
                break
            # the stall rule: no rise above this start's best by a share of
            # its remaining distance to a hit, _STALL_STEPS steps running
            if val > start_best + tilt._STALL_RISE * (margin_tol - start_best):
                flat_for = 0
            else:
                flat_for += 1
            if val > start_best:
                start_best = val
            if flat_for >= tilt._STALL_STEPS:
                stalled += 1
                break
        if hit_step is not None:
            break
    margin, c = best
    diagnostics = {"starts_used": ran, "margin_evals": evals, "best_margin": margin}
    if c is None or margin < -margin_tol:
        return None, diagnostics, hit_step, stalled
    W = unvec(N @ c, n, m)
    return W / np.linalg.norm(W), diagnostics, hit_step, stalled


def _compare_with_sequential_reference(monkeypatch, steps, seeds):
    """Run the lockstep search and the sequential reference on random
    q = 2, 3 subspaces of the X6/G6 hull, half of them in rotated
    coordinates; a third lean toward the admissible beta1 slide so that
    some searches hit after ascent steps.  Asserts that the two agree and
    returns how often each kind of search occurred."""
    monkeypatch.setattr(tilt, "_SEARCH_STEPS", steps)
    slide = np.zeros((6, 6))
    slide[1, 1] = 1.0
    seen = {"exhausted": 0, "hit_after_ascent": 0, "several_starts": 0, "stalled": 0, "stalled_then_hit": 0}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        U, V = np.eye(6), np.eye(6)
        if seed % 4 >= 2:
            U, V = random_orthogonal(rng, 6), random_orthogonal(rng, 6)
        ups = build_upsilon(make_quadratic_spec(U @ X6 @ V.T, U @ G6 @ V.T, K6, np.eye(36)))
        B = dense_hull_basis(ups)
        q = 2 + seed % 2
        N = B @ rng.standard_normal((B.shape[1], q))
        if seed % 3 == 0:
            N[:, 0] = 0.3 * N[:, 0] + vec(U @ slide @ V.T)
        N = np.linalg.qr(N)[0]
        W, diag = tilt._search_witness(ups, N, np.random.default_rng(seed + 7), DEFAULT_TOLS)
        W_ref, ref, hit_step, stalled = _sequential_search(
            ups, N, np.random.default_rng(seed + 7), DEFAULT_TOLS.margin, steps
        )
        assert diag["starts_used"] == ref["starts_used"], seed
        assert diag["margin_evals"] == ref["margin_evals"], seed
        if ref["best_margin"] == -math.inf:
            assert diag["best_margin"] == -math.inf, seed
        else:
            assert abs(diag["best_margin"] - ref["best_margin"]) <= 1e-12, seed
        assert (W is None) == (W_ref is None), seed
        if W is not None:
            assert np.max(np.abs(W - W_ref)) <= 1e-12, seed
        seen["exhausted"] += hit_step is None
        seen["hit_after_ascent"] += hit_step is not None and hit_step >= 0
        seen["several_starts"] += ref["starts_used"] > 1
        seen["stalled"] += stalled > 0
        seen["stalled_then_hit"] += stalled > 0 and hit_step is not None
    return seen


def test_witness_search_matches_sequential_reference(monkeypatch):
    # 8 steps: no start runs long enough to stall
    seen = _compare_with_sequential_reference(monkeypatch, 8, range(48))
    assert seen.pop("stalled") == seen.pop("stalled_then_hit") == 0
    assert all(seen.values()), seen


def test_witness_search_stall_stop_matches_sequential_reference(monkeypatch):
    # enough steps for starts to stall: some searches exhaust with stalled
    # starts, and in one a stalled start precedes the start that hits
    seen = _compare_with_sequential_reference(monkeypatch, 60, range(15))
    assert all(seen.values()), seen


def _positive_margin_element(cert):
    """I on beta1 plus I/2 on beta_plus, in G coordinates: a hull element
    whose sandwich margin is at least 1/2 (0 when both blocks are empty)."""
    H = np.zeros((cert.pair.n, cert.pair.m))
    H[cert.beta1, cert.beta1] = 1.0
    H[cert.beta_plus, cert.beta_plus] = 0.5
    return cert.pair.U @ H @ cert.pair.V.T


def test_stall_stop_keeps_every_search_decision(monkeypatch):
    # random q = 2, 3 subspaces of the hulls of random instances of all three
    # cases; seven in eight contain a set element with positive margin, in a
    # random direction of the subspace, so that most searches hit, some
    # after other starts stalled.  The search at the defaults must reach
    # the same decision as the one whose starts never stall
    tol = DEFAULT_TOLS.margin
    searches = hits = saved_on_hit = exhausted = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        X, Gamma, kappa, _ = random_membership_instance(rng, case=CASES[seed % 3])
        ups = build_upsilon(make_quadratic_spec(X, Gamma, kappa, np.eye(X.size)))
        if ups.exact:
            continue
        B = dense_hull_basis(ups)
        q = min(2 + seed % 2, B.shape[1])
        N = B @ rng.standard_normal((B.shape[1], q))
        if seed % 8:
            N[:, 0] = vec(_positive_margin_element(ups.cert))
            N = np.linalg.qr(N)[0] @ random_orthogonal(rng, q)
        N = np.linalg.qr(N)[0]
        W, diag = tilt._search_witness(ups, N, np.random.default_rng(seed), DEFAULT_TOLS)
        with monkeypatch.context() as mp:
            mp.setattr(tilt, "_STALL_STEPS", tilt._SEARCH_STEPS + 1)
            W_full, full = tilt._search_witness(ups, N, np.random.default_rng(seed), DEFAULT_TOLS)
        hit = diag["best_margin"] > tol
        assert (W is None) == (W_full is None), seed
        assert hit == (full["best_margin"] > tol), seed
        assert diag["margin_evals"] <= full["margin_evals"], seed
        searches += 1
        hits += hit
        saved_on_hit += hit and diag["margin_evals"] < full["margin_evals"]
        exhausted += W is None
    assert searches >= 100 and hits >= 50, (searches, hits)
    assert saved_on_hit and exhausted, (saved_on_hit, exhausted)


def test_split_plane_search_stops_stalled_starts():
    # the kernel is spanned by two hull elements, an off-diagonal of the
    # beta1 block and one of the beta0 block: every unit kernel direction
    # has margin -(|c1| + |c2|) <= -1/sqrt(2), so all 64 starts run, and
    # each stops when it stalls or flattens instead of running all 500
    # steps (155,072 evaluations without the stall stop); the counts are
    # those of the sequential search
    s2 = 1 / np.sqrt(2)
    W1, W2 = np.zeros((6, 6)), np.zeros((6, 6))
    W1[1, 2] = W1[2, 1] = s2
    W2[3, 4] = W2[4, 3] = s2
    Q = np.eye(36) - np.outer(vec(W1), vec(W1)) - np.outer(vec(W2), vec(W2))
    v = tilt_check(make_quadratic_spec(X6, G6, K6, Q), options=TiltOptions(seed=1))
    assert v.status == INCONCLUSIVE
    assert v.certificate["intersection_dim"] == 2
    search = v.certificate["search"]
    assert search["starts_used"] == 64
    assert search["margin_evals"] == 18_807
    assert search["best_margin"] == pytest.approx(-s2, abs=1e-12)


def test_witness_search_memory_stays_within_the_stack_cap(monkeypatch):
    # q = 32 directions on an nm = 1024 hull: symmetric off-diagonals of the
    # beta1 and beta0 blocks, where every unit direction has margin
    # lambda_min(beta1 part) - lambda_max(beta0 part) < 0, so no start hits
    # and each of the two steps probes all 64 starts
    monkeypatch.setattr(tilt, "_SEARCH_STEPS", 2)
    n = 32
    X = np.diag([3.0] + [2.0] * 16 + [1.0] * 15)
    Gamma = np.diag([1.0] * 9 + [0.0] * 23)
    spec = make_quadratic_spec(X, Gamma, 9, np.eye(n * n))
    ok, cert = subdiff_membership(X, Gamma, 9)
    assert ok
    ups = build_upsilon(spec, cert=cert)
    assert not ups.exact
    U, V = ups.pair.U, ups.pair.V
    elems = []
    for block in (cert.beta1, cert.beta0):
        for a, i in enumerate(block):
            for j in block[a + 1 :]:
                H = np.zeros((n, n))
                H[i, j] = H[j, i] = 1 / np.sqrt(2)
                elems.append(vec(U @ H @ V.T))
    rng = np.random.default_rng(0)
    q = 32
    N = np.linalg.qr(np.column_stack(elems) @ rng.standard_normal((len(elems), q)))[0]
    B = dense_hull_basis(ups)
    assert np.max(np.abs(B @ (B.T @ N) - N)) < 1e-12
    tracemalloc.start()
    try:
        W, diag = tilt._search_witness(ups, N, np.random.default_rng(1), DEFAULT_TOLS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W is None and diag["starts_used"] == 64
    assert diag["margin_evals"] == 64 * (1 + 2 * (2 * q + 1))
    cap = 8 * tilt._STACK_FLOATS + N.nbytes
    unchunked = 64 * 2 * q * N.shape[0] * 8
    assert cap < unchunked / 3
    assert peak < cap, (peak, cap)


# ---------------------------------------------------------------- one factorization per analysis

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"


def _problem(X, Gamma, kappa, theta):
    n, m = X.shape
    return {"n": n, "m": m, "kappa": kappa, "nu": 1.0, "X": matrix_to_json(X), "theta": theta}


def _quadratic_kernel_in_hull():
    """X6/G6 with the Hessian kernel span{E_11}, a hull element (nm = 36)."""
    W = np.zeros((6, 6))
    W[1, 1] = 1.0
    Q = projector_complement(W)
    L = -(Q @ vec(X6)).reshape(6, 6) - G6
    return _problem(X6, G6, K6, {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)})


def _least_squares_generic_kernel():
    """X6/G6 with theta = 0.5||P vec X - b||^2, P the projector off a random
    unit w orthogonal to vec G6 (so that b exists); kernel span{w}."""
    w = np.random.default_rng(4).standard_normal(36)
    g = vec(G6) / np.linalg.norm(vec(G6))
    w -= (w @ g) * g
    w /= np.linalg.norm(w)
    P = np.eye(36) - np.outer(w, w)
    b = P @ vec(X6) + vec(G6)
    return _problem(X6, G6, K6, {"type": "least_squares", "A": matrix_to_json(P), "b": b.tolist()})


class _GramCounting(np.ndarray):
    """An A that counts the square products A^T A formed from it."""

    grams = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        args = [x.view(np.ndarray) if isinstance(x, _GramCounting) else x for x in inputs]
        out = getattr(ufunc, method)(*args, **kwargs)
        if ufunc is np.matmul and all(isinstance(x, _GramCounting) for x in inputs):
            _GramCounting.grams += 1
        return out


def _quadratic_three_blocks():
    """n = 20, m = 30 (nm = 600: three blocks of the PSD check) with a
    generic Hessian kernel of dimension nm / 8."""
    rng = np.random.default_rng(5)
    X, Gamma, kappa, _ = random_membership_instance(rng, n=20, m=30, case=ZERO_STRICT)
    W = np.linalg.qr(rng.standard_normal((600, 75)))[0]
    Q = np.eye(600) - W @ W.T
    L = -(Q @ vec(X)).reshape(X.shape) - Gamma
    return _problem(X, Gamma, kappa, {"type": "quadratic", "Q": matrix_to_json(Q), "L": matrix_to_json(L)})


def _demo(name):
    return lambda: json.loads((DEMO / f"{name}.json").read_text())


FACTOR_CASES = {
    "stable_quadratic": _demo("stable_quadratic"),
    "stable_least_squares": _demo("stable_least_squares"),
    "unstable_slide": _demo("unstable_slide"),
    "inconclusive_split": _demo("inconclusive_split"),
    "quadratic_kernel_in_hull": _quadratic_kernel_in_hull,
    "quadratic_wide_slide": _wide_slide,
    "least_squares_generic_kernel": _least_squares_generic_kernel,
    "quadratic_three_blocks": _quadratic_three_blocks,
}


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_one_hessian_factorization_per_analysis(monkeypatch, name):
    # the verdict works on the Hessian restricted to the hull: no nm x nm
    # (or nm x hull_dim) eigendecomposition or SVD, and no eigenvectors of
    # the restricted Hessian when the intersection has q = 0 columns.  A
    # lone kernel vector (q = 1) comes from one hull_dim x hull_dim eigh up
    # to tilt._EIGH_MAX_SIDE, and above it from one Cholesky factorization
    # of that side and the inverse of its factor; the PSD check of a
    # quadratic theta is one Cholesky factorization, of the whole sym(Q)
    # when nm <= _TILE and else of its diagonal blocks in turn, with no
    # nm x nm array handed to np.linalg; A^T A is never formed
    problem = FACTOR_CASES[name]()
    nm = problem["n"] * problem["m"]
    shapes = {"eigh": [], "eigvalsh": [], "svd": [], "cholesky": [], "inv": []}
    for fn in shapes:
        def counted(a, *args, _fn=fn, _orig=getattr(np.linalg, fn), **kwargs):
            shapes[_fn].append(np.shape(a))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, counted)
    parse = cli.problem_from_dict

    def parse_counting_gram(*args, **kwargs):
        spec, tols, options = parse(*args, **kwargs)
        if isinstance(spec.theta, LeastSquaresTheta):
            spec.theta.A = spec.theta.A.view(_GramCounting)
        return spec, tols, options

    monkeypatch.setattr(cli, "problem_from_dict", parse_counting_gram)
    _GramCounting.grams = 0
    report, code = cli.run_analyze(problem)
    assert code in (0, 1, 2)
    hull_dim = report["upsilon"]["hull_dim"]
    assert hull_dim < nm
    for fn in ("eigh", "eigvalsh", "svd"):
        assert shapes[fn].count((nm, nm)) == 0, fn
        assert shapes[fn].count((nm, hull_dim)) == 0, fn
    q = report["verdict"]["certificate"].get("intersection_dim", 0)
    inverse_iteration = q == 1 and hull_dim > tilt._EIGH_MAX_SIDE
    if q <= 1:
        assert shapes["eigh"].count((hull_dim, hull_dim)) == (q == 1 and not inverse_iteration)
    cholesky = list(shapes["cholesky"])
    if inverse_iteration:
        cholesky.remove((hull_dim, hull_dim))
    # the inverse of the lone kernel vector's factor: LAPACK inverses of the
    # leaves of the halving, whose sides add up to hull_dim
    kernel_inv = hull_dim if inverse_iteration else 0
    quadratic = problem["theta"]["type"] == "quadratic"
    if nm <= tilt._TILE:
        assert cholesky == ([(nm, nm)] if quadratic else [])
        assert sum(a for a, _ in shapes["inv"]) == kernel_inv
    else:
        assert quadratic
        sides = [a for a, b in cholesky if a == b]
        assert len(sides) == len(cholesky) > 1
        assert sum(sides) == nm and max(sides) <= tilt._TILE
        assert all(shape != (nm, nm) for calls in shapes.values() for shape in calls)
    assert _GramCounting.grams == 0


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_one_hessian_bound_per_analysis(monkeypatch, name):
    # ||Q||_F (||A||_F^2 for least squares) scales both the PSD check and
    # the kernel cutoff; an analysis computes it once, for either theta
    calls = []
    for cls in (QuadraticTheta, LeastSquaresTheta):
        def counted(self, _orig=cls.hessian_bound):
            calls.append(type(self))
            return _orig(self)

        monkeypatch.setattr(cls, "hessian_bound", counted)
    problem = FACTOR_CASES[name]()
    report, code = cli.run_analyze(problem)
    assert code in (0, 1, 2)
    want = QuadraticTheta if problem["theta"]["type"] == "quadratic" else LeastSquaresTheta
    assert calls == [want]


# ---------------------------------------------------------------- the PSD and symmetry check


def _check_outcome(Q):
    try:
        theta = QuadraticTheta(Q, np.zeros(len(Q)))
        theta.check_hessian(len(Q), DEFAULT_TOLS, theta.hessian_bound())
    except ValueError as exc:
        return str(exc)
    return None


def _reference_outcome(Q):
    """check_hessian's decision from its definition: ||Q - Q^T||_F against
    orth * nm * max(1, ||Q||_F), then lambda_min(sym Q) from eigvalsh
    against -psd_rel * max(1, ||Q||_F)."""
    scale = max(1.0, np.linalg.norm(Q))
    if np.linalg.norm(Q - Q.T) > DEFAULT_TOLS.orth * len(Q) * scale:
        return "Hessian of theta must be symmetric"
    lmin = np.linalg.eigvalsh(0.5 * (Q + Q.T))[0]
    if lmin < -DEFAULT_TOLS.psd_rel * scale:
        return f"Hessian of theta must be PSD at Xbar (lambda_min = {lmin:.3e})"
    return None


def test_psd_and_symmetry_decisions_match_the_eigenvalue_reference():
    # sizes on both sides of the block edges at _TILE = 256 and 2 * 256;
    # lambda_min(sym Q) = -t * psd_rel * max(1, ||Q||_F) along a unit
    # vector v spread over every block, and skew parts at 0.5 and 2 times
    # the symmetry bound, spread over every tile, or at 0.8 and 1.25 times
    # it in the corner entries (0, nm-1), which lie in an off-diagonal tile
    # once nm > _TILE and must count twice; scale 1e-3 puts ||Q||_F below 1
    assert tilt._TILE == 256
    rng = np.random.default_rng(22)
    checked = 0
    for nm in (36, 255, 256, 257, 513):
        V = random_orthogonal(rng, nm)
        lam = rng.uniform(0.5, 2.0, nm)
        lam[0] = 0.0
        base = (V * lam) @ V.T
        base = 0.5 * (base + base.T)
        v = V[:, 0]
        spread = rng.standard_normal((nm, nm))
        spread = (spread - spread.T) / np.linalg.norm(spread - spread.T)
        corner = np.zeros((nm, nm))
        corner[0, -1], corner[-1, 0] = 0.5**0.5, -(0.5**0.5)
        for c in (1e-3, 1.0, 1e3):
            scale = max(1.0, c * np.linalg.norm(lam))
            for t in (0.0, 0.5, 0.9, 1.1, 2.0, 100.0):
                Q = c * base - t * DEFAULT_TOLS.psd_rel * scale * np.outer(v, v)
                expected = _reference_outcome(Q)
                assert (expected is None) == (t < 1), (nm, c, t)
                assert _check_outcome(Q) == expected, (nm, c, t)
                checked += 1
            for f, skew in ((0.5, spread), (2.0, spread), (0.8, corner), (1.25, corner)):
                Q = c * base + 0.5 * f * DEFAULT_TOLS.orth * nm * scale * skew
                expected = _reference_outcome(Q)
                assert (expected is None) == (f < 1), (nm, c, f)
                assert _check_outcome(Q) == expected, (nm, c, f)
                checked += 1
    assert checked == 5 * 3 * 10


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psd_check_memory_stays_within_budget():
    # nm = 1088 (n = 32, m = 34) with a kernel of dimension nm / 8: the
    # lower block columns of sym(Q) + shift and the factorization's
    # temporaries stay within 1.25 nm^2 floats besides Q, where a full copy
    # of sym(Q) and a factor of the same size took 2 nm^2
    nm = 32 * 34
    rng = np.random.default_rng(7)
    W = np.linalg.qr(rng.standard_normal((nm, nm // 8)))[0]
    Q = np.eye(nm) - W @ W.T
    theta = QuadraticTheta(Q, np.zeros(nm))
    peak = _traced_peak(lambda: theta.check_hessian(nm, DEFAULT_TOLS, theta.hessian_bound()))
    assert peak <= 1.25 * nm * nm * 8, peak / (nm * nm * 8)
    # the exit-3 path: curvature below -1 along a unit v on the last 200
    # coordinates is met only in the last diagonal block; the columns are
    # dropped before the eigenvalues of the message, so the peak stays
    # within the same budget, and below that of holding an nm x nm
    # sym(Q) + shift while they are computed
    v = np.zeros(nm)
    v[-200:] = rng.standard_normal(200)
    v /= np.linalg.norm(v)
    bad = QuadraticTheta(Q - 2.0 * np.outer(v, v), np.zeros(nm))
    with pytest.raises(ValueError, match=r"must be PSD at Xbar \(lambda_min = -1"):
        bad.check_hessian(nm, DEFAULT_TOLS, bad.hessian_bound())
    reference = nm * nm * 8 + _traced_peak(lambda: np.linalg.eigvalsh(0.5 * (bad.Q + bad.Q.T)))

    def failing():
        with pytest.raises(ValueError):
            bad.check_hessian(nm, DEFAULT_TOLS, bad.hessian_bound())

    peak = _traced_peak(failing)
    assert peak <= 1.25 * nm * nm * 8, peak / (nm * nm * 8)
    assert peak <= reference


@settings(max_examples=15, deadline=None)
@given(seeds, st.sampled_from(CASES))
def test_rotation_sampling_keeps_verdict(seed, case):
    rng = np.random.default_rng(seed)
    X, Gamma, kappa, _ = random_membership_instance(rng, case=case)
    spec = make_quadratic_spec(X, Gamma, kappa, np.eye(X.size))
    base = tilt_check(spec, options=TiltOptions(seed=3))
    rot = tilt_check(spec, options=TiltOptions(seed=3, rotation_samples=4))
    assert base.status == rot.status == STABLE


def test_rotation_sampling_keeps_unstable_verdict():
    W = np.zeros((6, 6))
    W[1, 1] = 1.0
    spec = spec_with_kernel(X6, G6, K6, W)
    for k in (0, 4, 8):
        v = tilt_check(spec, options=TiltOptions(seed=1, rotation_samples=k))
        assert v.status == UNSTABLE, k


def test_tilt_check_deterministic():
    W = np.zeros((6, 6))
    W[2, 2] = 1.0
    W[3, 3] = W[4, 4] = 0.5
    spec = spec_with_kernel(X6, G6, K6, W)
    a = tilt_check(spec, options=TiltOptions(seed=9))
    b = tilt_check(spec, options=TiltOptions(seed=9))
    assert a.status == b.status
    assert a.certificate == b.certificate


def test_nu_scaling_invariance():
    X = np.diag([3.0, 2.0, 1.0])
    Gamma = np.diag([1.0, 1.0, 0.0])
    W = np.zeros((3, 3))
    W[1, 1] = 1.0
    Q = projector_complement(W)
    for nu in (0.5, 1.0, 4.0):
        spec = make_quadratic_spec(X, Gamma, 2, Q / nu, nu=nu)
        assert np.max(np.abs(spec.gamma_bar() - Gamma)) < 1e-12
        assert tilt_check(spec).status == UNSTABLE


def _scale_problems():
    """The quadratic demos and the acceptance gate's tilt family, as
    problem dicts."""
    problems = [_demo(name)() for name in ("stable_quadratic", "unstable_slide", "inconclusive_split")]
    for _, spec, _ in tilt_family():
        theta = {"type": "quadratic", "Q": matrix_to_json(spec.theta.Q), "L": matrix_to_json(spec.theta.L)}
        problems.append(_problem(spec.Xbar, -spec.gamma_bar(), spec.kappa, theta))
    return problems


SCALE_PROBLEMS = _scale_problems()


def _outcome(problem):
    report, code = cli.run_analyze(problem)
    verdict = report["verdict"]
    return code, verdict["status"], verdict["certificate"].get("intersection_dim")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(SCALE_PROBLEMS) - 1), st.floats(-4.0, 4.0))
def test_joint_scaling_keeps_the_verdict(k, log_c):
    # X -> cX with Q -> Q/c and L unchanged keeps grad theta(Xbar), so
    # Gamma_bar, the hull and the Hessian kernel are unchanged
    problem = SCALE_PROBLEMS[k]
    c = 10.0**log_c
    theta = problem["theta"]
    scaled = {
        **problem,
        "X": matrix_to_json(matrix_from_json(problem["X"]) * c),
        "theta": {**theta, "Q": matrix_to_json(matrix_from_json(theta["Q"]) / c)},
    }
    assert _outcome(scaled) == _outcome(problem), (k, c)
