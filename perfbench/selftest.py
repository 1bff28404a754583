#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about half a minute).

    python3 perfbench/selftest.py

Checks that each workload generator reproduces its verdict labels, that the
rebuilt demos equal demo/*.json, that every metric named in BENCHMARK.json is
emitted with its unit in both trace modes, that a deliberately wrong label
is counted as a failed operation, and that the trace shims replace every
binding of each traced function and restore all of them.  Exits nonzero on
the first failed check.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run

run.import_library()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kyfan_tilt import io as kio  # noqa: E402
from kyfan_tilt.cli import problem_from_dict  # noqa: E402

SEED = 3


def check(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def run_ops(ops):
    cli, io = run.import_library()
    runner = run.Runner(cli, io)
    runner.run_pass(ops)
    return runner


def test_generators():
    ladder = workloads.ladder_ops(SEED, sizes=(6, 8))
    runner = run_ops(ladder)
    check(not runner.failures, f"ladder labels at n = 6, 8 ({runner.failures})")
    for op in ladder:
        spec, _, _ = problem_from_dict(op.materialize())
        cert = spec.validate()
        report, _ = run.import_library()[0].run_analyze(op.materialize(), **op.kwargs)
        check(
            report["upsilon"]["hull_dim"] == workloads.hull_dim(cert, spec.n, spec.m),
            f"hull_dim formula matches the report on {op.name}",
        )
    degenerate = workloads.degenerate_ops(SEED)
    check(any(op.oracle_checks for op in degenerate), "degenerate runs the oracle route")
    runner = run_ops(degenerate)
    check(not runner.failures, f"degenerate labels and oracle checks ({runner.failures})")


def same(a, b):
    """Equal structure and numbers equal to 1e-12: the demo files were
    written on another machine, where a LAPACK solve can round differently."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a))
    return a == b


def test_demos_match_files():
    for name, problem, _ in workloads.demo_problems():
        path = run.ROOT / "demo" / f"{name}.json"
        if not path.is_file():
            print(f"--  {path.name} absent, comparison skipped")
            continue
        check(
            same(workloads._materialize(problem), json.loads(path.read_text())),
            f"rebuilt {name} equals demo/{path.name} to 1e-12",
        )
    X = np.random.default_rng(0).standard_normal((3, 4))
    check(
        workloads._materialize(workloads.matrix_json(X)) == kio.matrix_to_json(X),
        "matrix_json materializes to io.matrix_to_json",
    )


def tiny_build(seed):
    return workloads.degenerate_ops(seed)[:3]


def test_metric_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = run.measure("degenerate", SEED, 0, trace, build=tiny_build)
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"--trace {trace} emits every {key} metric with its unit")
        check(
            all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
            f"--trace {trace} values are numbers",
        )
        check(result["failed"] == 0 and result["attempted"] >= 1, f"--trace {trace} attempted/failed")
    spec = {name: v["unit"] for name, v in run.SPEC["end_to_end"].items()}
    check(spec == {m["name"]: m["unit"] for m in bench["end_to_end"]}, "metrics.json matches BENCHMARK.json (end_to_end)")
    spec = {name: v["unit"] for name, v in run.SPEC["per_layer"].items()}
    check(spec == {m["name"]: m["unit"] for m in bench["per_layer"]}, "metrics.json matches BENCHMARK.json (per_layer)")
    check(set(run.SPEC["workloads"]) == {w["name"] for w in bench["workloads"]}, "workload names match")


def test_wrong_label_counts():
    def build(seed):
        ops = tiny_build(seed)
        wrong = {"Stable": "Unstable"}.get(next(iter(ops[1].labels)), "Stable")
        ops[1] = dataclasses.replace(ops[1], labels=frozenset([wrong]))
        return ops

    result, detail = run.measure("degenerate", SEED, 0, 0, build=build)
    check(result["failed"] == 1 and not result["correct"], "a wrong label is one failed operation")
    ok = result["metrics"]["ok_frac"]["value"]
    check(ok == (result["attempted"] - 1) / result["attempted"], f"ok_frac counts it ({ok})")
    check(detail["failures"][0]["op"].startswith("demo-unstable_slide"), "the failure names the operation")


def test_shims_reach_every_binding():
    originals = {}
    for _, _, owner, attr in tracing.TRACED:
        fn = vars(owner)[attr]
        originals[fn] = tracing.bindings(fn)
    search = vars(tracing.tilt)["_search_witness"]
    originals[search] = tracing.bindings(search)
    validate = tracing.tilt.ProblemSpec.validate
    check(len(originals[vars(tracing.subgrad)["subdiff_membership"]]) >= 4,
          "subdiff_membership is bound in several modules")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        left = {fn.__name__: tracing.bindings(fn) for fn in originals}
        check(all(not b for b in left.values()), f"no binding left unpatched ({left})")
        check(tracing.tilt.ProblemSpec.validate is not validate, "ProblemSpec.validate patched on the class")
    finally:
        tracer.uninstall()
    check(all(tracing.bindings(fn) == b for fn, b in originals.items()), "every binding restored")
    check(tracing.tilt.ProblemSpec.validate is validate, "ProblemSpec.validate restored")


def main():
    test_shims_reach_every_binding()
    test_demos_match_files()
    test_metric_names()
    test_wrong_label_counts()
    test_generators()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
