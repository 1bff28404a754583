#!/usr/bin/env python3
"""Exit code and report digest of every operation of a benchmark workload.

    python3 scripts/report_digests.py --workload ladder|degenerate [--seed N]

Builds the seeded operation list of perfbench/workloads.py, runs each
operation as the benchmark does (`cli.run_analyze` on the problem dict, then
`io.canonical_dumps` of the report) and prints one JSON object,
{op name: [exit code, sha256 of the canonical report]}.  Two checkouts that
print the same object give the same reports, byte for byte, on that
workload: the parity check of a change that must not move a report.

Reports depend on the BLAS thread count, so one line on standard error
gives the count the loaded OpenBLAS reports (perfbench/run.py's
_blas_threads; None when it cannot be read) and the numpy version, for a
parity claim to quote.
"""
import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from kyfan_tilt import cli, io  # noqa: E402
from run import _blas_threads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digests(workload, seed):
    out = {}
    for op in WORKLOADS[workload](seed):
        report, code = cli.run_analyze(op.materialize(), **op.kwargs)
        text = io.canonical_dumps(report)
        out[op.name] = [code, hashlib.sha256(text.encode()).hexdigest()]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"blas_threads={_blas_threads()} numpy={np.__version__}", file=sys.stderr)
    print(json.dumps(digests(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
