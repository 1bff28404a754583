#!/usr/bin/env python3
"""kyfan-tilt benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload ladder|degenerate \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
./src.  Each operation is what `kyfan-tilt analyze` does between `json.load`
and writing the file: `cli.run_analyze` on an in-memory problem dict, then
`io.canonical_dumps` of the report.  Every operation is checked (verdict
labels, exit code, byte-identical reports across passes, oracle agreement
where the oracle route runs); failures are counted, not fatal.

--trace 0 prints the end-to-end metrics of untraced passes.  --trace 1 runs
the same untraced passes, then one traced pass with spans around each
layer's public functions, prints the per-layer metrics, and writes the spans
to .perfbench/.  The last line of standard output is the result object;
the line before it holds provenance and sample counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "metrics.json").read_text())
# set-up runs at least SETUP_MIN times and until SETUP_MIN_S seconds have
# passed (at most SETUP_MAX times); setup_s is the median
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 3, 1.0, 200
# Passes over the operation list per 20 s of --seconds, (heavy, all): every
# pass runs the light operations, the first passes also the heavy ones
# (the top ladder rung; the split-plane search and the oracle route).
# That is about 35 s of operations on a 2-core x86 box, and the counts
# depend on the arguments only.  The machine's speed drifts by up to 1.8x
# over spans of seconds (a shared host), so each operation's time is its
# best over its passes, and the cheap operations get the most samples.
PASSES_PER_20S = {"ladder": (1, 5), "degenerate": (3, 12)}
ORACLE_GAP_BOUND = 1e-2


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# operations and checks
# ---------------------------------------------------------------------------


class Runner:
    """Runs and checks operations; remembers each operation's report digest
    so that later passes (traced or not) must reproduce it byte for byte."""

    def __init__(self, cli, io):
        self.cli = cli
        self.io = io
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.report_bytes = 0
        self.gap_max = 0.0

    def run(self, idx, op, tracer=None, counted=True):
        """One operation: returns its wall time in seconds.  With a tracer
        the operation is the root span of everything it calls.  An operation
        that is not `counted` (a set-up warm-up) is checked all the same but
        adds to `attempted` only when it fails."""
        problem = op.materialize()
        if tracer is not None:
            tracer.op = idx
            span = tracer.begin("op", "bench")
        t0 = time.perf_counter()
        try:
            report, code = self.cli.run_analyze(problem, **op.kwargs)
            text = self.io.canonical_dumps(report)
        except Exception as exc:  # a failing operation is counted, the run goes on
            dt = time.perf_counter() - t0
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return dt
        finally:
            if tracer is not None:
                tracer.end(span)
        dt = time.perf_counter() - t0
        data = text.encode()
        self.report_bytes += len(data)
        why = self.check(op, report, code)
        digest = hashlib.sha256(data).hexdigest()
        if why is None and self.digests.setdefault(idx, digest) != digest:
            why = "report bytes differ from an earlier pass"
        if why is not None:
            self._fail(op, why)
        elif counted:
            self.attempted += 1
        return dt

    def _fail(self, op, why):
        self.attempted += 1
        self.failures.append({"op": op.name, "why": why})

    def check(self, op, report, code):
        if code == 3 or "verdict" not in report:
            return f"exit code {code}: {report.get('error')}"
        status = report["verdict"]["status"]
        if status not in op.labels:
            return f"verdict {status} not in {sorted(op.labels)}"
        if not op.oracle_checks:
            return None
        oracle = report.get("oracle") or {}
        probe = oracle.get("probe") or {"error": "no probe section"}
        if "error" in probe:
            return f"probe error: {probe['error']}"
        if probe.get("agrees_with_verdict") is False:
            return f"probe says {probe.get('consistent_with')}, verdict {status}"
        quotient = oracle.get("quotient") or {}
        if quotient.get("divergent", True):
            return "quotient oracle divergent"
        gap = quotient.get("oracle_rel_gap")
        if gap is None or not gap <= ORACLE_GAP_BOUND:
            return f"oracle_rel_gap {gap} above {ORACLE_GAP_BOUND}"
        self.gap_max = max(self.gap_max, gap)
        return None

    def run_pass(self, ops, tracer=None, heavy=True):
        """One pass over the operation list, heavy operations included or
        not: {op index: seconds}."""
        return {idx: self.run(idx, op, tracer)
                for idx, op in enumerate(ops) if heavy or not op.heavy}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, nearest-rank.  With ten samples or fewer no percentile
    qualifies and the minimum (percentile 0) is reported."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 0, xs[0]
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, runner_bytes, gap_max, traced_s, untraced_s):
    summ = tracer.summary()
    self_s, incl, calls = summ["self_s"], summ["incl_s"], summ["calls"]
    out = {
        "cli.problem_from_dict_s": incl.get("problem_from_dict", 0.0),
        "io.canonical_dumps_s": incl.get("canonical_dumps", 0.0),
        "io.report_bytes": runner_bytes,
        "spectral.svd_ordered_s": incl.get("svd_ordered", 0.0),
        "spectral.svd_ordered_calls": calls.get("svd_ordered", 0),
        "subgrad.subdiff_membership_s": incl.get("subdiff_membership", 0.0),
        "subgrad.subdiff_membership_calls": calls.get("subdiff_membership", 0),
        "subgrad.psi_value_s": incl.get("psi_value", 0.0),
        "subgrad.psi_value_calls": calls.get("psi_value", 0),
        "secder.d2_s": incl.get("d2", 0.0),
        "secder.d2_calls": calls.get("d2", 0),
        "tilt.validate_s": incl.get("validate", 0.0),
        "tilt.build_upsilon_s": incl.get("build_upsilon", 0.0),
        "tilt.tilt_check_s": incl.get("tilt_check", 0.0),
        "oracle.quotient_s": incl.get("quotient", 0.0),
        "oracle.probe_s": incl.get("probe", 0.0),
        "oracle.matrix_prox_s": incl.get("matrix_prox", 0.0),
        "oracle.matrix_prox_calls": calls.get("matrix_prox", 0),
        "oracle.quotient_rel_gap_max": gap_max,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_frac": self_s["bench"] / summ["root_s"] if summ["root_s"] else 0.0,
    }
    for layer in ("cli", "spectral", "subgrad", "secder", "tilt", "oracle"):
        out[f"{layer}.self_s"] = self_s[layer]
    out.update(tracer.counts)
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    src = ROOT / "src"
    if not (src / "kyfan_tilt" / "__init__.py").is_file():
        raise ImportError(f"kyfan_tilt sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from kyfan_tilt import cli, io

    return cli, io


def measure(workload, seed, seconds, trace, build=None):
    """Set up, run the passes, and return (result dict, detail dict).
    `build(seed)` overrides the workload's operation list (self-test)."""
    cli, io = import_library()
    import workloads

    build = build or workloads.WORKLOADS[workload]
    runner = Runner(cli, io)
    setups = []
    t_setup = time.perf_counter()

    def set_up_enough():
        if trace:
            return len(setups) >= 1
        return len(setups) >= SETUP_MAX or (
            len(setups) >= SETUP_MIN and time.perf_counter() - t_setup >= SETUP_MIN_S
        )

    while not set_up_enough():
        ops = None  # free the previous set-up's arrays first
        t0 = time.perf_counter()
        ops = build(seed)
        runner.run(0, ops[0], counted=False)  # warm-up; its report is the reference
        setups.append(time.perf_counter() - t0)

    heavy_passes, passes = (max(1, round(n * seconds / 20.0)) for n in PASSES_PER_20S[workload])
    op_s = [[] for _ in ops]
    for j in range(max(passes, heavy_passes)):
        for idx, dt in runner.run_pass(ops, heavy=j < heavy_passes).items():
            op_s[idx].append(dt)
    best = [min(samples) for samples in op_s]

    detail = {
        "workload": workload,
        "ops_per_pass": len(ops),
        "passes": passes,
        "heavy_passes": heavy_passes,
        "setup_repeats": len(setups),
        "provenance": provenance(seed),
    }
    if trace:
        import tracing

        tracer = tracing.Tracer()
        bytes_before = runner.report_bytes
        tracer.install()
        try:
            traced = runner.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(
            tracer, runner.report_bytes - bytes_before, runner.gap_max,
            math.fsum(traced.values()), math.fsum(statistics.median(t) for t in op_s),
        )
        path = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
        tracer.write(path, {"provenance": detail["provenance"], "ops": [op.name for op in ops]})
        detail.update(spans_file=str(path.relative_to(ROOT)), spans=len(tracer.spans),
                      not_traced=tracer.missing)
        names = SPEC["per_layer"]
    else:
        p, tail_s = tail(best)
        values = {
            "setup_s": statistics.median(setups),
            "batch_s": math.fsum(best),
            "op_p50_s": statistics.median(best),
            "op_tail_s": tail_s,
            "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        detail.update(op_samples=len(best), op_tail_percentile=p,
                      op_s={op.name: t for op, t in zip(ops, op_s)})
        names = SPEC["end_to_end"]
    detail["failures"] = runner.failures[:20]
    metrics = {name: {"value": values[name], "unit": names[name]["unit"]} for name in names}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for f in detail["failures"]:
        print(f"FAILED {f['op']}: {f['why']}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
