"""Ordered SVD, grouping, the symmetric embedding, and the eigen frame."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from kyfan_tilt.spectral import fro_norm, group_singular, svd_ordered
from reference import bmap, build_frame

seeds = st.integers(0, 2**31 - 1)


def random_rect(rng, n=None, m=None):
    if n is None:
        n = int(rng.integers(1, 7))
    if m is None:
        m = int(rng.integers(n, 9))
    return rng.standard_normal((n, m)) * rng.uniform(0.5, 3.0)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_svd_ordered_reconstructs(seed):
    rng = np.random.default_rng(seed)
    X = random_rect(rng)
    pair = svd_ordered(X)
    assert np.allclose(pair.U @ np.diag(pair.sigma) @ pair.V1.T, X, atol=1e-10)
    assert np.all(np.diff(pair.sigma) <= 1e-14)
    assert np.allclose(pair.U.T @ pair.U, np.eye(pair.n), atol=1e-12)
    assert np.allclose(pair.V.T @ pair.V, np.eye(pair.m), atol=1e-12)


def test_svd_ordered_rejects_tall():
    with pytest.raises(ValueError):
        svd_ordered(np.zeros((3, 2)))


def test_group_singular_known_layout():
    X = np.diag([3.0, 3.0, 2.0, 0.0, 0.0])
    X = np.hstack([X, np.zeros((5, 2))])
    pair = svd_ordered(X)
    g = group_singular(pair, kappa=4)
    assert [list(a) for a in g.groups] == [[0, 1], [2]]
    assert list(g.b) == [3, 4]
    assert list(g.c) == [5, 6]
    assert g.s == 2 and g.r == 3  # kappa=4 lands in the zero block
    g2 = group_singular(pair, kappa=2)
    assert g2.r == 1


def test_group_singular_merges_close_values():
    X = np.diag([2.0, 2.0 + 1e-12, 1.0])
    pair = svd_ordered(X)
    g = group_singular(pair, kappa=1)
    assert [len(a) for a in g.groups] == [2, 1]


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_bmap_spectrum_is_plus_minus_sigma(seed):
    rng = np.random.default_rng(seed)
    X = random_rect(rng)
    n, m = X.shape
    lam = np.linalg.eigvalsh(bmap(X))
    sig = np.linalg.svd(X, compute_uv=False)
    expected = np.sort(np.concatenate([sig, -sig, np.zeros(m - n)]))
    assert np.allclose(np.sort(lam), expected, atol=1e-10)


def frame_for(X, kappa):
    pair = svd_ordered(X)
    grouping = group_singular(pair, kappa)
    return build_frame(pair, grouping), pair


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_frame_orthonormal_and_reconstructs(seed):
    rng = np.random.default_rng(seed)
    X = random_rect(rng)
    n = X.shape[0]
    kappa = int(rng.integers(1, n + 1))
    if rng.uniform() < 0.3:
        # rank-deficient variants, including the all-zero matrix
        r = int(rng.integers(0, n))
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        s[r:] = 0.0
        X = (U * s) @ Vt
    frame, pair = frame_for(X, kappa)
    P = frame.P
    assert np.linalg.norm(P.T @ P - np.eye(P.shape[1])) <= 1e-10
    recon = (P * frame.eigenvalues) @ P.T
    assert np.linalg.norm(recon - bmap(X)) <= 1e-10 * (1 + np.linalg.norm(X))


def test_frame_eigenvalues_square_diag():
    X = np.diag([2.0, 1.0])
    frame, _ = frame_for(X, 1)
    assert np.allclose(frame.eigenvalues, [2.0, 1.0, -1.0, -2.0])
    X2 = np.hstack([X, np.zeros((2, 2))])
    frame2, _ = frame_for(X2, 1)
    assert np.allclose(frame2.eigenvalues, [2.0, 1.0, 0.0, 0.0, -1.0, -2.0])


def test_frame_square_zero_matrix():
    X = np.zeros((3, 3))
    frame, _ = frame_for(X, 2)
    assert np.allclose(frame.eigenvalues, 0.0)
    assert np.linalg.norm(frame.P.T @ frame.P - np.eye(6)) <= 1e-10



def _laid_out(A, layout):
    """A copy of A's values in the given memory layout."""
    if layout == "F":
        return np.asfortranarray(A)
    if layout == "strided":
        # every other element of a larger array, along every axis
        big = np.zeros(tuple(2 * k + 1 for k in A.shape))
        view = (slice(1, None, 2),) * A.ndim
        big[view] = A
        return big[view]
    if layout == "reversed":
        return A[(slice(None, None, -1),) * A.ndim]
    return np.ascontiguousarray(A)


_shapes = array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=16)
# Gaussian values of one scale, where the order of the sum shows in the last
# bit, at scales from subnormal squares to overflowing ones; and Hypothesis's
# own edge values
_norm_arrays = st.tuples(_shapes, seeds, st.sampled_from([-320.0, -160.0, 0.0, 100.0, 160.0])).map(
    lambda t: np.random.default_rng(t[1]).standard_normal(t[0]) * 10.0 ** t[2]
) | arrays(np.float64, _shapes, elements=st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(_norm_arrays, st.sampled_from(["C", "F", "strided", "reversed"]))
def test_fro_norm_equals_numpy_norm_bitwise(A, layout):
    # C-ordered, Fortran-ordered, strided and reversed float arrays, 1-D and
    # 2-D, empty ones among them
    A = _laid_out(A, layout)
    with np.errstate(over="ignore"):  # both overflow to inf alike
        got, want = fro_norm(A), np.linalg.norm(A)
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()
