"""Seeded operation lists for the benchmark workloads.

Every workload is a list of `Op`s: one problem (the object `kyfan-tilt
analyze` gets from `json.load`, with its numbers held as arrays until the
operation runs), the `run_analyze` keyword arguments, and the set of
verdicts that count as correct.  The same seed always gives the same list.

The arrays become Python lists only just before their operation, outside
its clock, as `json.load` would produce them: at nm = 2400 one problem's
lists take 184 MB, and holding every problem of the ladder as lists would
take 1.25 GB.

* `ladder`      the closed-form verdict route at nm = 80 .. 2400;
* `degenerate`  small instances where the kernel meets the hull and the
                sandwich inequality decides (witness search, rotations),
                plus the oracle route on two demos.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from kyfan_tilt.instances import random_membership_instance, random_orthogonal
from kyfan_tilt.io import unvec, vec
from kyfan_tilt.subgrad import INTERIOR_GROUP, subdiff_membership

STABLE = "Stable"
UNSTABLE = "Unstable"
INCONCLUSIVE = "Inconclusive"
CASES = ("interior", "zero_tight", "zero_strict")

LADDER_SIZES = (8, 16, 32, 48)
# hull dimension windows, as shares of nm, per certificate case: drawing
# until the hull lands in the window keeps the work of a rung nearly the
# same from seed to seed
HULL_WINDOW = {
    "interior": (0.30, 0.45),
    "zero_tight": (0.15, 0.30),
    "zero_strict": (0.0, 0.10),
}
# quadratic instances of these cases get a kernel through a certified set
# element (Unstable); every other ladder instance has a generic kernel
LADDER_UNSTABLE = ("interior", "zero_tight")
ORACLE_OPTS = {"cross_check": True, "probe": True, "d2_samples": 4}
# demos that also run the oracle route (cross-check, probe, d2 samples) in
# the degenerate workload: about 2.3 s of the quotient oracle and the
# probe's FISTA solves, below the witness search's share
ORACLE_DEMOS = ("stable_quadratic", "inconclusive_split")


@dataclasses.dataclass
class Op:
    """One operation.  `problem` holds its numbers as arrays; `materialize()`
    turns them into the lists `json.load` would give."""

    name: str
    problem: dict
    kwargs: dict
    labels: frozenset
    oracle_checks: bool = False
    heavy: bool = False

    def materialize(self):
        return _materialize(self.problem)


def _materialize(obj):
    if isinstance(obj, dict):
        return {k: _materialize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# ---------------------------------------------------------------------------
# problem dicts
# ---------------------------------------------------------------------------


def matrix_json(X):
    """The {"rows", "cols", "data"} object of io.matrix_to_json, with the
    row-major data kept as an array until the operation materializes it."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return {"rows": int(X.shape[0]), "cols": int(X.shape[1]), "data": X.ravel().copy()}


def quadratic_problem(X, Gamma, kappa, Q, nu=1.0):
    """Quadratic theta with L chosen so that -nu * grad theta(X) = Gamma."""
    n, m = X.shape
    L = -unvec(Q @ vec(X), n, m) - Gamma / nu
    return {
        "n": n,
        "m": m,
        "kappa": int(kappa),
        "nu": float(nu),
        "X": matrix_json(X),
        "theta": {"type": "quadratic", "Q": matrix_json(Q), "L": matrix_json(L)},
    }


def least_squares_problem(X, kappa, A, b, nu=1.0):
    n, m = X.shape
    return {
        "n": n,
        "m": m,
        "kappa": int(kappa),
        "nu": float(nu),
        "X": matrix_json(X),
        "theta": {"type": "least_squares", "A": matrix_json(A), "b": np.array(b, dtype=float)},
    }


def projector_complement(W):
    """I - w w^T / ||w||^2: PSD with kernel span{vec W}."""
    w = vec(W)
    w = w / np.linalg.norm(w)
    return np.eye(len(w)) - np.outer(w, w)


def decisive_direction(cert):
    """A set element with certified nonnegative sandwich margin (zero when
    the certificate has neither beta1 nor beta_plus)."""
    n, m = cert.pair.n, cert.pair.m
    H = np.zeros((n, m))
    if len(cert.beta1):
        i = int(cert.beta1[0])
        H[i, i] = 1.0
    elif len(cert.beta_plus):
        for i in cert.beta_plus:
            H[int(i), int(i)] = 1.0 / np.sqrt(len(cert.beta_plus))
    return cert.pair.U @ H @ cert.pair.V.T


def hull_dim(cert, n, m):
    """Dimension of the structured set's linear hull (tilt._hull_elements
    counts the same elements)."""
    a = len(cert.alpha) + len(cert.beta1)
    dim = a * (a + 1) // 2 + (1 if len(cert.beta_plus) else 0)
    if cert.case == INTERIOR_GROUP:
        free = len(cert.beta0) + len(cert.gamma)
    elif cert.tight:
        free = len(cert.beta0)
    else:
        free = 0
    return dim + free * (free + m - n)


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def _draw_member(rng, n, m, case, window, need_decisive):
    nm = n * m
    for _ in range(2000):
        X, Gamma, kappa, _ = random_membership_instance(rng, n=n, m=m, case=case)
        ok, cert = subdiff_membership(X, Gamma, kappa)
        if not ok or (case != "interior" and cert.tight != (case == "zero_tight")):
            continue
        h = hull_dim(cert, n, m)
        if not window[0] * nm <= h <= window[1] * nm:
            continue
        if need_decisive and np.linalg.norm(decisive_direction(cert)) < 1e-9:
            continue
        return X, Gamma, kappa, cert
    raise RuntimeError(f"no {case} instance at n={n} with hull in {window}")


def _ladder_quadratic(rng, X, Gamma, kappa, kdim, W):
    """Q = M M^T / nm with kernel exactly span(K): K holds vec W (when
    given) plus generic directions."""
    nm = X.size
    R = rng.standard_normal((nm, kdim))
    if W is not None:
        R[:, 0] = vec(W)
    K = np.linalg.qr(R)[0]
    M = rng.standard_normal((nm, nm - kdim))
    M -= K @ (K.T @ M)
    Q = (M @ M.T) / nm
    return quadratic_problem(X, Gamma, kappa, 0.5 * (Q + Q.T))


def _ladder_least_squares(rng, X, Gamma, kappa, kdim, nu=1.0):
    """A with nm - kdim rows and null(A) a generic subspace orthogonal to
    vec Gamma; b = A vec X + s with A^T s = vec Gamma / nu."""
    nm = X.size
    g = vec(Gamma) / nu
    R = rng.standard_normal((nm, kdim))
    G = rng.standard_normal((nm - kdim, nm)) / np.sqrt(nm)
    s = rng.standard_normal(nm - kdim)
    gnorm = np.linalg.norm(g)
    if gnorm > 0:
        R -= np.outer(g / gnorm, (g / gnorm) @ R)
        s /= np.linalg.norm(s)
        G += np.outer(s, g - G.T @ s)
    else:  # Gamma = 0: b = A vec X is stationary
        s[:] = 0.0
    K = np.linalg.qr(R)[0]
    A = G - (G @ K) @ K.T
    b = A @ vec(X) + s
    return least_squares_problem(X, kappa, A, b, nu=nu)


def ladder_ops(seed, sizes=LADDER_SIZES):
    """Six operations per rung, listed round-robin over the rungs so that
    every size is sampled across the whole pass."""
    rng = np.random.default_rng([seed, 1])
    rungs = []
    for n in sizes:
        ops = []
        rungs.append(ops)
        m = n + 2
        kdim = max(1, n * m // 8)
        for case in CASES:
            unstable = case in LADDER_UNSTABLE
            X, Gamma, kappa, cert = _draw_member(rng, n, m, case, HULL_WINDOW[case], unstable)
            W = decisive_direction(cert) if unstable else None
            ops.append(
                Op(
                    f"ladder-n{n}-{case}-quadratic",
                    _ladder_quadratic(rng, X, Gamma, kappa, kdim, W),
                    {"seed": seed},
                    frozenset([UNSTABLE if unstable else STABLE]),
                    heavy=n == max(sizes),
                )
            )
            ops.append(
                Op(
                    f"ladder-n{n}-{case}-least_squares",
                    _ladder_least_squares(rng, X, Gamma, kappa, kdim),
                    {"seed": seed},
                    frozenset([STABLE]),
                    heavy=n == max(sizes),
                )
            )
    return [op for ops in zip(*rungs) for op in ops]


# ---------------------------------------------------------------------------
# demos and the engineered tilt family
# ---------------------------------------------------------------------------

X3 = np.diag([3.0, 2.0, 1.0])
G3 = np.diag([1.0, 1.0, 0.0])
X6 = np.diag([3.0, 2.0, 2.0, 2.0, 2.0, 1.0])
G6 = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def _E(n, m, entries):
    M = np.zeros((n, m))
    for i, j, v in entries:
        M[i, j] = v
    return M


def demo_problems():
    """The four problems of demo/, rebuilt as scripts/make_demo_problems.py
    builds them with its default seed: (name, problem, verdict labels).

    inconclusive_split's only kernel direction in the hull violates the
    sandwich inequality, so Stable is a correct answer too."""
    rng = np.random.default_rng(0)
    Wslide = _E(3, 3, [(1, 1, 1.0)])
    Wsplit = _E(6, 6, [(2, 2, 1.0), (3, 3, 0.5), (4, 4, 0.5)])
    A = rng.standard_normal((3 * 3 + 5, 3 * 3))
    s = A @ np.linalg.solve(A.T @ A, vec(G3))
    return [
        ("stable_quadratic", quadratic_problem(X3, G3, 2, np.eye(9)), {STABLE}),
        ("unstable_slide", quadratic_problem(X3, G3, 2, projector_complement(Wslide)), {UNSTABLE}),
        (
            "inconclusive_split",
            quadratic_problem(X6, G6, 3, projector_complement(Wsplit)),
            {INCONCLUSIVE, STABLE},
        ),
        ("stable_least_squares", least_squares_problem(X3, 2, A, A @ vec(X3) + s), {STABLE}),
    ]


def rotate(rng, *mats):
    """U M V^T for each n x m matrix M, one random U and V for all."""
    U = random_orthogonal(rng, mats[0].shape[0])
    V = random_orthogonal(rng, mats[0].shape[1])
    return [None if M is None else U @ M @ V.T for M in mats]


def tilt_family(rng):
    """The 20 engineered instances of the acceptance gate's tilt family
    (10 Stable, 10 Unstable), the definite ones drawn as the gate draws
    them; rng rotates the definite ones and those the gate rotates, which
    leaves every verdict and nearly all of the work unchanged.  Returns
    (label, problem, expected status) triples."""
    fam = []
    s2 = 1 / np.sqrt(2)

    def add(label, X, Gamma, kappa, W, expected, rotated=False):
        if rotated:
            X, Gamma, W = rotate(rng, X, Gamma, W)
        Q = np.eye(X.size) if W is None else projector_complement(W)
        fam.append((label, quadratic_problem(X, Gamma, kappa, Q), expected))

    base = np.random.default_rng(1)
    for case in CASES:
        X, Gamma, kappa, _ = random_membership_instance(base, case=case)
        add(f"pd-{case}", X, Gamma, kappa, None, STABLE, rotated=True)
    add("skew-distinct", X3, G3, 2, _E(3, 3, [(0, 1, s2), (1, 0, -s2)]), STABLE)
    add("alpha-gamma-entry", X3, G3, 2, _E(3, 3, [(0, 2, 1.0)]), STABLE, rotated=True)
    add("skew-cross-split", X6, G6, 3, _E(6, 6, [(2, 3, s2), (3, 2, -s2)]), STABLE)
    add("strict-trivial-hull", np.diag([2.0, 1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.5, 0.2]), 3,
        _E(4, 4, [(2, 2, 1.0)]), STABLE)
    add("rect-offblock", np.hstack([np.diag([3.0, 1.0]), np.zeros((2, 2))]),
        np.hstack([np.diag([1.0, 0.0]), np.zeros((2, 2))]), 1,
        _E(2, 4, [(0, 1, 1.0)]), STABLE, rotated=True)
    add("skew-plus-group", np.diag([2.0, 2.0, 1.0]), np.diag([0.5, 0.5, 0.0]), 1,
        _E(3, 3, [(0, 1, s2), (1, 0, -s2)]), STABLE)
    add("zero-col-entry", np.hstack([np.diag([2.0, 1.0, 0.0]), np.zeros((3, 2))]),
        np.hstack([np.diag([1.0, 1.0, 0.4]), np.zeros((3, 2))]), 3,
        _E(3, 5, [(2, 3, 1.0)]), STABLE)

    add("top-slide", np.diag([2.0, 1.0]), np.diag([1.0, 0.0]), 1, _E(2, 2, [(0, 0, 1.0)]), UNSTABLE)
    add("beta1-slide", X3, G3, 2, _E(3, 3, [(1, 1, 1.0)]), UNSTABLE, rotated=True)
    add("varpi-pair", np.diag([3.0, 2.0, 2.0, 1.0]), np.diag([1.0, 0.5, 0.5, 0.0]), 2,
        _E(4, 4, [(1, 1, s2), (2, 2, s2)]), UNSTABLE)
    add("spectral-varpi", np.diag([2.0, 2.0, 1.0]), np.diag([0.5, 0.5, 0.0]), 1,
        _E(3, 3, [(0, 0, s2), (1, 1, s2)]), UNSTABLE, rotated=True)
    add("varpi-wide", X6, np.diag([1.0, 0.7, 0.7, 0.3, 0.3, 0.0]), 3,
        _E(6, 6, [(1, 1, 0.5), (2, 2, 0.5), (3, 3, 0.5), (4, 4, 0.5)]), UNSTABLE)
    add("nuclear-strict-grow", np.diag([2.0, 1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 1.0, 0.3]), 4,
        _E(4, 4, [(2, 2, 1.0)]), UNSTABLE)
    add("tight-joint-grow", np.diag([2.0, 1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 1.0, 0.0]), 3,
        _E(4, 4, [(2, 2, 1.0), (3, 3, 1.0)]), UNSTABLE)
    add("tight-rect-grow", np.hstack([np.diag([2.0, 1.0, 0.0, 0.0]), np.zeros((4, 2))]),
        np.hstack([np.diag([1.0, 1.0, 1.0, 0.0]), np.zeros((4, 2))]), 3,
        _E(4, 6, [(2, 2, 1.0), (3, 3, s2), (3, 4, s2)]), UNSTABLE)
    add("degenerate-one-way", X6, G6, 3, _E(6, 6, [(1, 1, 1.0)]), UNSTABLE)
    add("rank-zero-grow", np.zeros((2, 3)), _E(2, 3, [(0, 0, 1.0)]), 1,
        _E(2, 3, [(0, 0, 1.0)]), UNSTABLE)
    return fam


def split_plane_problem():
    """inconclusive_split's X and Gamma with a two-dimensional kernel spanned
    by two hull elements: an off-diagonal of the beta1 block and one of the
    beta0 block.  Every nonzero kernel direction has margin
    -(|c1| + |c2|) < 0, so no witness exists, the search runs every start to
    its step limit, and the verdict is Inconclusive (Stable is also right)."""
    s2 = 1 / np.sqrt(2)
    W1 = vec(_E(6, 6, [(1, 2, s2), (2, 1, s2)]))
    W2 = vec(_E(6, 6, [(3, 4, s2), (4, 3, s2)]))
    Q = np.eye(36) - np.outer(W1, W1) - np.outer(W2, W2)
    return quadratic_problem(X6, G6, 3, Q)


def degenerate_ops(seed):
    """Demos and tilt family at rotation_samples 0 and 8, the split-plane
    search, and the oracle route on ORACLE_DEMOS (heavy operations)."""
    rng = np.random.default_rng([seed, 2])
    demos = demo_problems()
    cases = [(f"demo-{name}", p, labels, {}) for name, p, labels in demos]
    cases += [
        (f"family-{label}", p, {expected}, {"seed": seed})
        for label, p, expected in tilt_family(rng)
    ]
    ops = []
    for rot in (0, 8):
        for name, p, labels, kw in cases:
            ops.append(Op(f"{name}-rot{rot}", p, {**kw, "rotation_samples": rot}, frozenset(labels)))
    ops.append(
        Op(
            "split-plane-rot0",
            split_plane_problem(),
            {"seed": seed, "rotation_samples": 0},
            frozenset([INCONCLUSIVE, STABLE]),
            heavy=True,
        )
    )
    ops += [
        Op(f"oracle-{name}", p, dict(ORACLE_OPTS), frozenset(labels), oracle_checks=True, heavy=True)
        for name, p, labels in demos
        if name in ORACLE_DEMOS
    ]
    return ops


WORKLOADS = {"ladder": ladder_ops, "degenerate": degenerate_ops}
