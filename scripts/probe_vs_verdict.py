#!/usr/bin/env python3
"""Check the analytic tilt verdict against the prox-Jacobian tilt probe.

For a batch of random stationary quadratic instances (plus two engineered
ones), run tilt_check and then tilt_probe, steered as `analyze --probe`
steers it, on the same problem and tabulate agreement with the probe's
mu_min.  Inconclusive verdicts are reported separately: the probe gives a
reading there, not a contradiction.
"""
import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kyfan_tilt.cli import _probe_steer  # noqa: E402
from kyfan_tilt.io import vec, unvec  # noqa: E402
from kyfan_tilt.subgrad import subdiff_membership  # noqa: E402
from kyfan_tilt.tilt import ProblemSpec, QuadraticTheta, tilt_check  # noqa: E402
from kyfan_tilt.oracle import tilt_probe  # noqa: E402


def quadratic_spec(X, Gamma, kappa, Q, nu=1.0):
    n, m = X.shape
    L = -unvec(Q @ vec(X), n, m) - Gamma / nu
    return ProblemSpec(Xbar=X, nu=nu, kappa=kappa, theta=QuadraticTheta(Q=Q, L=L))


def projector_complement(W):
    w = vec(W) / np.linalg.norm(vec(W))
    return np.eye(len(w)) - np.outer(w, w)


def random_member(rng, n, m, kappa):
    """Stationary pair: X with repeated/zero singular values, Gamma from the
    subdifferential via an extreme multiplier (mass on the top values)."""
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = sorted(rng.choice([0.0, 1.0, 1.0, 2.0, 3.0], size=n), reverse=True)
    svals = np.array(vals, dtype=float)
    xi = np.zeros(n)
    take = float(kappa)
    for i in range(n):
        if take <= 0:
            break
        if svals[i] > 0:
            xi[i] = min(1.0, take)
            take -= xi[i]
    if take > 1e-12:
        return None  # not enough positive mass for this kappa; skip
    X = U @ np.hstack([np.diag(svals), np.zeros((n, m - n))]) @ V.T
    G = U @ np.hstack([np.diag(xi), np.zeros((n, m - n))]) @ V.T
    ok, _ = subdiff_membership(X, G, kappa)
    return (X, G) if ok else None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    specs = []
    X3, G3 = np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0])
    specs.append(("pd-3x3", quadratic_spec(X3, G3, 2, np.eye(9))))
    W = np.zeros((3, 3))
    W[1, 1] = 1.0
    specs.append(("slide-3x3", quadratic_spec(X3, G3, 2, projector_complement(W))))
    made = 0
    while made < args.trials:
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(0, 3))
        kappa = int(rng.integers(1, n + 1))
        pair = random_member(rng, n, m, kappa)
        if pair is None:
            continue
        X, G = pair
        if rng.random() < 0.5:
            Q = np.eye(n * m) * (0.5 + rng.random())
        else:
            Q = projector_complement(rng.standard_normal((n, m)))
        specs.append((f"rand-{made:02d}", quadratic_spec(X, G, kappa, Q)))
        made += 1

    print("=" * 76)
    print(f"analytic tilt verdict vs numerical probe   ({len(specs)} instances)")
    print("=" * 76)
    agree = disagree = abstain = 0
    t0 = time.time()
    for name, spec in specs:
        verdict = tilt_check(spec)
        probe = tilt_probe(spec, _probe_steer(spec.validate()), args.seed)
        mark = ""
        if verdict.status == "Inconclusive":
            abstain += 1
            mark = "  (verdict abstains)"
        elif verdict.status == probe["consistent_with"]:
            agree += 1
        else:
            disagree += 1
            mark = "  <-- DISAGREE"
        print(f"  {name:<10} verdict={verdict.status:<12} probe={probe['consistent_with']:<9}"
              f" mu={probe['mu_min']:10.3e}{mark}")
    dt = time.time() - t0
    print("-" * 76)
    print(f"agree={agree}  disagree={disagree}  abstain={abstain}  ({dt:.1f}s)")
    print("RESULT:", "PASSED" if disagree == 0 else "FAILED")
    return 0 if disagree == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
