#!/usr/bin/env python3
"""Sweep the second-subderivative formulas against each other and the oracle.

Per case (interior / zero_strict / zero_tight), draws random membership
instances with in-cone directions and records the worst relative gap between
d2_psi_general and d2_psi_explicit, plus the worst gap of the sampled
difference-quotient oracle on a smaller subsample (the oracle is slow).
Each case draws from its own generator, seeded by --seed and the case's
position, so the same --seed gives the same lines on every run.
The oracle comparison uses unit directions and well-separated singular
values: the shrinking-ball quotient needs tau well inside the spectral
gaps before the quadratic regime is visible.
"""
import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kyfan_tilt.instances import (  # noqa: E402
    INTERIOR,
    ZERO_STRICT,
    ZERO_TIGHT,
    random_incone_direction,
    random_membership_instance,
)
from kyfan_tilt.oracle import d2_quotient_oracle, kyfan_matrix_prox  # noqa: E402
from kyfan_tilt.secder import d2_psi_explicit, d2_psi_general  # noqa: E402
from kyfan_tilt.subgrad import psi_value, subdiff_membership  # noqa: E402


def rel_gap(a, b):
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-case", type=int, default=150)
    ap.add_argument("--oracle-per-case", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("=" * 76)
    print("second-subderivative formula sweep")
    print("=" * 76)
    t0 = time.time()
    overall_ok = True
    for ci, case in enumerate((INTERIOR, ZERO_STRICT, ZERO_TIGHT)):
        rng = np.random.default_rng((args.seed, ci))
        worst_pair = 0.0
        worst_oracle = 0.0
        finite = infinite = 0
        oracle_runs = 0
        for i in range(args.per_case):
            X, Gamma, kappa, _ = random_membership_instance(
                rng, case=case, well_separated=True
            )
            ok, cert = subdiff_membership(X, Gamma, kappa)
            if not ok:
                continue
            G = random_incone_direction(rng, cert)
            a = d2_psi_general(X, Gamma, G, kappa, cert=cert)
            b = d2_psi_explicit(cert, G)
            if a.is_finite != b.is_finite:
                print(f"  !! finiteness mismatch at {case} draw {i}")
                overall_ok = False
                continue
            if not a.is_finite:
                infinite += 1
                continue
            finite += 1
            worst_pair = max(worst_pair, rel_gap(a.value, b.value))
            ng = float(np.linalg.norm(G))
            if oracle_runs < args.oracle_per_case and ng > 1e-9:
                W = G / ng
                aw = d2_psi_general(X, Gamma, W, kappa, cert=cert)
                # psi_value and the prox take the oracle's stacks of matrices
                q = d2_quotient_oracle(
                    lambda Y, k=kappa: psi_value(Y, k),
                    X,
                    Gamma,
                    W,
                    prox_fn=lambda Y, t, k=kappa: kyfan_matrix_prox(Y, t, k),
                )
                if not q.divergent:
                    worst_oracle = max(worst_oracle, rel_gap(aw.value, q.value))
                    oracle_runs += 1
        line_ok = worst_pair <= 1e-9 and worst_oracle <= 1e-2
        overall_ok = overall_ok and line_ok
        print(
            f"  {case:<12} finite={finite:>4} infinite={infinite:>3}"
            f"  worst general-vs-explicit={worst_pair:.3e}"
            f"  worst vs-oracle({oracle_runs})={worst_oracle:.3e}"
            f"  [{'ok' if line_ok else 'FAIL'}]"
        )
    print("-" * 76)
    print(f"elapsed {time.time() - t0:.1f}s")
    print("RESULT:", "PASSED" if overall_ok else "FAILED")
    return 0 if overall_ok else 1


if __name__ == "__main__":
    sys.exit(main())
