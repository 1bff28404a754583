"""Command-line driver: problem ingestion, the analysis pipeline
(subgradient check -> certificate -> structured set -> verdict -> optional
oracle cross-checks), and deterministic JSON report emission.

Exit codes: 0 Stable / membership, 1 Unstable / non-membership, 2
Inconclusive, 3 input or precondition error.  Reports are byte-identical
for identical inputs, flags, and seeds at a fixed BLAS thread count
(timings are omitted unless requested, since they are not reproducible).
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
import time

import click
import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .instances import random_incone_direction
from .io import SchemaError, canonical_dumps, matrix_from_json, matrix_to_json
from .oracle import d2_envelope_oracle, kyfan_matrix_prox, tilt_probe
from .secder import d2_psi_explicit
from .subgrad import INTERIOR_GROUP, subdiff_membership
from .tilt import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    LeastSquaresTheta,
    ProblemSpec,
    QuadraticTheta,
    StationarityError,
    TiltOptions,
    build_upsilon,
    tilt_check,
)

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_VERDICT_EXIT = {STABLE: EXIT_STABLE, UNSTABLE: EXIT_UNSTABLE, INCONCLUSIVE: EXIT_INCONCLUSIVE}

# resource bounds, checked at parse time.  A rotation sample is one more
# witness-search round and holds no basis; (samples + 1) * nm^2 <= 2^27, the
# bound from when each held an nm x hull_dim basis, stays so that no value
# changes its exit code.  MAX_D2_SAMPLES caps --d2-samples
ROTATION_FLOATS = 2**27
MAX_D2_SAMPLES = 10_000

# the tolerance table's field names, in declaration order
TOLERANCE_NAMES = tuple(f.name for f in dataclasses.fields(Tolerances))


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def _require(d, key, where):
    if key not in d:
        raise SchemaError(f"{where}: missing required field '{key}'")
    return d[key]


def _as_int(v, where, lo=None, hi=None):
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
        raise SchemaError(f"{where}: expected an integer, got {v!r}")
    v = int(v)
    if lo is not None and v < lo:
        raise SchemaError(f"{where}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise SchemaError(f"{where}: must be <= {hi}, got {v}")
    return v


def _rotation_samples(v, where, nm):
    """Rotation samples, bounded so that (v + 1) * nm^2 <= ROTATION_FLOATS;
    0 is always allowed."""
    return _as_int(v, where, lo=0, hi=max(0, ROTATION_FLOATS // (nm * nm) - 1))


def _as_real(v, where, positive=False):
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            raise SchemaError(f"{where}: expected a number, got {v!r}")
        try:
            v = float(v)
        except OverflowError:
            raise SchemaError(f"{where}: must be finite, got an integer beyond the float range") from None
    if not v - v == 0.0:  # inf - inf and nan - nan are nan
        raise SchemaError(f"{where}: must be finite, got {v}")
    if positive and v <= 0:
        raise SchemaError(f"{where}: must be positive, got {v}")
    return v


def _theta_from_dict(d, n, m):
    if not isinstance(d, dict):
        raise SchemaError("theta: expected an object")
    kind = _require(d, "type", "theta")
    if kind == "quadratic":
        Q = matrix_from_json(_require(d, "Q", "theta"), where="theta.Q")
        L = matrix_from_json(_require(d, "L", "theta"), where="theta.L")
        if Q.shape != (n * m, n * m):
            raise SchemaError(f"theta.Q: expected shape {(n * m, n * m)}, got {Q.shape}")
        if L.shape != (n, m):
            raise SchemaError(f"theta.L: expected shape {(n, m)}, got {L.shape}")
        return QuadraticTheta(Q=Q, L=L)
    if kind == "least_squares":
        A = matrix_from_json(_require(d, "A", "theta"), where="theta.A")
        b = _require(d, "b", "theta")
        if A.shape[1] != n * m:
            raise SchemaError(f"theta.A: expected {n * m} columns, got {A.shape[1]}")
        if not isinstance(b, list) or len(b) != A.shape[0]:
            raise SchemaError(f"theta.b: expected a list of {A.shape[0]} numbers")
        bv = np.array([_as_real(x, "theta.b") for x in b], dtype=float)
        return LeastSquaresTheta(A=A, b=bv)
    raise SchemaError(f"theta.type: unknown type {kind!r} (quadratic | least_squares)")


def _with_tolerances(tols, values, where):
    """The one tolerance parser: the problem's `tolerances` object (where
    "tolerances.") and the --tol.<name> overrides (where "--tol.") both come
    through here.  Each value must be a finite positive number."""
    if not isinstance(values, dict):
        raise SchemaError(f"{where.rstrip('.')}: expected an object")
    if not values:
        return tols
    updates = {}
    for k, v in values.items():
        if k not in TOLERANCE_NAMES:
            raise SchemaError(f"{where}{k}: unknown tolerance name")
        updates[k] = _as_real(v, f"{where}{k}", positive=True)
    return dataclasses.replace(tols, **updates)


def problem_from_dict(d, tol_overrides=None):
    """Validate the problem JSON and build (ProblemSpec, Tolerances, options).

    tol_overrides ({name: number}, from --tol.<name>) win over the
    problem's own `tolerances` object."""
    if not isinstance(d, dict):
        raise SchemaError("problem: expected a JSON object at the top level")
    n = _as_int(_require(d, "n", "problem"), "n", lo=1)
    m = _as_int(_require(d, "m", "problem"), "m", lo=1)
    if n > m:
        raise SchemaError(f"n: must satisfy n <= m, got n={n}, m={m}")
    kappa = _as_int(_require(d, "kappa", "problem"), "kappa", lo=1, hi=n)
    nu = _as_real(_require(d, "nu", "problem"), "nu", positive=True)
    X = matrix_from_json(_require(d, "X", "problem"), where="X")
    if X.shape != (n, m):
        raise SchemaError(f"X: expected shape {(n, m)}, got {X.shape}")
    theta = _theta_from_dict(_require(d, "theta", "problem"), n, m)
    tols = _with_tolerances(DEFAULT_TOLS, d.get("tolerances", {}), "tolerances.")
    tols = _with_tolerances(tols, tol_overrides or {}, "--tol.")
    opts_in = d.get("options", {})
    if not isinstance(opts_in, dict):
        raise SchemaError("options: expected an object")
    options = {"rotation_samples": 0, "seed": 0}
    for k, v in opts_in.items():
        if k not in options:
            raise SchemaError(f"options.{k}: unknown option")
        if k == "rotation_samples":
            options[k] = _rotation_samples(v, f"options.{k}", n * m)
        else:
            options[k] = _as_int(v, f"options.{k}", lo=0)
    spec = ProblemSpec(Xbar=X, nu=nu, kappa=kappa, theta=theta)
    return spec, tols, options


def load_problem_file(path, where="problem file"):
    """Parse a JSON file; errors are schema errors that start with `where`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"{where}: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"{where}: invalid JSON ({e})") from e


def _load_matrix(path, where):
    return matrix_from_json(load_problem_file(path, f"{where} file"), where=where)


def _parse_extra_tols(args):
    """Pick --tol.<name>[=value] pairs out of unparsed arguments as
    {name: float}; anything else is an error (exit 3, never click's usage
    exit).  Names and ranges are checked by _with_tolerances."""
    overrides = {}
    i = 0
    while i < len(args):
        a = args[i]
        if a.startswith("--tol."):
            body = a[len("--tol.") :]
            if "=" in body:
                name, val = body.split("=", 1)
            else:
                name = body
                if i + 1 >= len(args):
                    raise SchemaError(f"--tol.{name}: missing value")
                i += 1
                val = args[i]
            try:
                overrides[name] = float(val)
            except ValueError:
                raise SchemaError(f"--tol.{name}: expected a number, got {val!r}") from None
        else:
            raise SchemaError(f"unknown argument {a!r}")
        i += 1
    return overrides


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _index_sets(cert):
    return {
        "alpha": cert.alpha.tolist(),
        "beta": cert.beta.tolist(),
        "gamma": cert.gamma.tolist(),
        "beta1": cert.beta1.tolist(),
        "beta_plus": cert.beta_plus.tolist(),
        "beta0": cert.beta0.tolist(),
    }


def _cert_summary(cert):
    return {
        "member": True,
        "case": cert.case,
        "tight": bool(cert.tight),
        "kappa": int(cert.kappa),
        "kappa0": int(cert.kappa0),
        "kappa1": int(cert.kappa1),
        "zeta": cert.zeta.tolist(),
        "sigma": cert.pair.sigma.tolist(),
        "sigma_gamma": cert.sigma_gamma_vals.tolist(),
        "warnings": list(cert.warnings),
    }


def _problem_echo(spec):
    return {
        "n": spec.n,
        "m": spec.m,
        "kappa": spec.kappa,
        "nu": spec.nu,
        "theta_type": "quadratic" if isinstance(spec.theta, QuadraticTheta) else "least_squares",
        "X": matrix_to_json(spec.Xbar),
    }


def _verdict_dict(verdict):
    return {
        "status": verdict.status,
        "certificate": verdict.certificate,
        "witness": None if verdict.witness is None else matrix_to_json(verdict.witness),
    }


def _emit(report, out):
    text = canonical_dumps(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _error_report(kind, message, **extra):
    return {"error": {"kind": kind, "message": message, **extra}}


def _probe_steer(cert):
    """The tilt probe's steering pattern U diag(s) V^T, s = +1 on beta1 and -1
    on beta0 (interior case), 2, 1 and 1/2 on beta1, beta_plus and beta0
    (tight case), +1 on beta1 (strict case): data, not the certificate."""
    n = cert.pair.n
    s = np.zeros(n)
    if cert.case == INTERIOR_GROUP:
        s[cert.beta1], s[cert.beta0] = 1.0, -1.0
    elif cert.tight:
        s[cert.beta1], s[cert.beta_plus], s[cert.beta0] = 2.0, 1.0, 0.5
    else:
        s[cert.beta1] = 1.0
    return (cert.pair.U * s) @ cert.pair.V[:, :n].T


def _quotient_check(X, Gamma, W, kappa, closed):
    """Envelope oracle for d2 Psi_kappa(X | Gamma)(W), at any W.
    Returns (value, divergent, gap) with gap the relative gap to the
    closed-form value `closed` when both are finite, +inf when exactly one
    is, 0.0 when both are +inf.  kyfan_matrix_prox takes the oracle's stack
    as it is.  Glue only: the oracle shares no code with the closed forms."""
    value, divergent = d2_envelope_oracle(
        X, Gamma, W, prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, kappa)
    )
    if math.isfinite(value) and closed.is_finite:
        gap = abs(value - closed.value) / (1 + abs(closed.value))
    else:
        gap = 0.0 if value == closed.value else math.inf
    return value, divergent, gap


# ---------------------------------------------------------------------------
# pipeline entry points (importable; the click layer is a thin shell)
# ---------------------------------------------------------------------------


def run_analyze(
    problem: dict,
    seed=None,
    rotation_samples=None,
    cross_check=False,
    probe=False,
    d2_samples=0,
    timings=False,
    tol_overrides=None,
):
    """Full pipeline on a problem dict; returns (report, exit_code)."""
    t_start = time.perf_counter()
    spec, tols, options = problem_from_dict(problem, tol_overrides)
    seed = options["seed"] if seed is None else _as_int(seed, "--seed", lo=0)
    rot = (
        options["rotation_samples"]
        if rotation_samples is None
        else _rotation_samples(rotation_samples, "--rotation-samples", spec.n * spec.m)
    )
    d2_samples = _as_int(d2_samples, "--d2-samples", lo=0, hi=MAX_D2_SAMPLES)
    stamps = {}
    try:
        t0 = time.perf_counter()
        cert = spec.validate(tols=tols)
        stamps["validate_s"] = time.perf_counter() - t0
    except StationarityError as e:
        return (
            _error_report(
                "stationarity", str(e), subdiff_distance=e.distance, first_failed=e.first_failed
            ),
            EXIT_ERROR,
        )
    except ValueError as e:
        return _error_report("precondition", str(e)), EXIT_ERROR
    t0 = time.perf_counter()
    ups = build_upsilon(spec, tols=tols, cert=cert)
    verdict = tilt_check(
        spec, ups=ups, options=TiltOptions(seed=seed, rotation_samples=rot), tols=tols
    )
    stamps["verdict_s"] = time.perf_counter() - t0

    report = {
        "problem": _problem_echo(spec),
        "tolerances": dict(vars(tols)),
        "certificate": _cert_summary(cert),
        "index_sets": _index_sets(cert),
        "upsilon": {
            "case": ups.case,
            "exact": bool(ups.exact),
            "hull_dim": ups.hull.dim,
            "cone_constraint": ups.cone_constraint,
            "block_dims": ups.block_dims,
        },
        "verdict": _verdict_dict(verdict),
        "d2_samples": None,
        "oracle": None,
    }

    if d2_samples:
        rng = np.random.default_rng(seed + 1000)
        samples = []
        for i in range(d2_samples):
            kind = "in_cone" if i % 2 == 0 else "random"
            if kind == "in_cone":
                W = random_incone_direction(rng, cert)
            else:
                W = rng.standard_normal((spec.n, spec.m))
            v = d2_psi_explicit(cert, W, tols=tols)
            samples.append(
                {
                    "index": i,
                    "kind": kind,
                    "direction_norm": float(np.linalg.norm(W)),
                    "value": v.value,
                    "reason": v.reason,
                }
            )
        report["d2_samples"] = samples

    if cross_check or probe:
        oracle_section = {}
        if cross_check:
            t0 = time.perf_counter()
            rng = np.random.default_rng(seed + 2000)
            W = random_incone_direction(rng, cert)
            norm = np.linalg.norm(W)
            if norm > 0:
                W = W / norm  # the report checks a unit direction
            Gamma = spec.gamma_bar()
            closed = d2_psi_explicit(cert, W, tols=tols)
            value, divergent, rel = _quotient_check(spec.Xbar, Gamma, W, spec.kappa, closed)
            if norm == 0:
                rel = None  # the zero direction checks nothing
            oracle_section["quotient"] = {
                "direction_norm": float(np.linalg.norm(W)),
                "closed_form": closed.value,
                "oracle": value,
                "oracle_rel_gap": rel,
                "divergent": divergent,
            }
            stamps["cross_check_s"] = time.perf_counter() - t0
        if probe:
            t0 = time.perf_counter()
            try:
                pres = tilt_probe(spec, _probe_steer(cert), seed)
            except ValueError as e:
                oracle_section["probe"] = {"error": str(e)}
            else:
                agr = None
                if verdict.status in (STABLE, UNSTABLE):
                    agr = bool(pres["consistent_with"] == verdict.status)
                oracle_section["probe"] = {**pres, "agrees_with_verdict": agr}
            stamps["probe_s"] = time.perf_counter() - t0
        report["oracle"] = oracle_section

    if timings:
        stamps["total_s"] = time.perf_counter() - t_start
        report["timings"] = stamps
    return report, _VERDICT_EXIT[verdict.status]


def _gamma(spec, gamma):
    """The subgradient candidate: `gamma` if given, else Gamma_bar."""
    Gamma = spec.gamma_bar() if gamma is None else np.asarray(gamma, dtype=float)
    if Gamma.shape != (spec.n, spec.m):
        raise SchemaError(f"gamma: expected shape {(spec.n, spec.m)}, got {Gamma.shape}")
    return Gamma


def run_d2(problem: dict, G, gamma=None, cross_check=False, tol_overrides=None):
    """Second subderivative at (Xbar, Gamma) in direction G; (report, code)."""
    spec, tols, _ = problem_from_dict(problem, tol_overrides)
    G = np.asarray(G, dtype=float)
    if G.shape != (spec.n, spec.m):
        raise SchemaError(f"G: expected shape {(spec.n, spec.m)}, got {G.shape}")
    Gamma = _gamma(spec, gamma)
    ok, cert = subdiff_membership(spec.Xbar, Gamma, spec.kappa, tols=tols)
    if not ok:
        return (
            _error_report("non_subgradient", "Gamma is not a subgradient of Psi_kappa at Xbar"),
            EXIT_ERROR,
        )
    v = d2_psi_explicit(cert, G, tols=tols)
    report = {"value": v.value, "reason": v.reason, "terms": v.terms}
    if cross_check:
        if np.linalg.norm(G) == 0:
            value = divergent = gap = None  # the zero direction checks nothing
        else:
            value, divergent, gap = _quotient_check(spec.Xbar, Gamma, G, spec.kappa, v)
        report["cross_check"] = {
            "oracle": value,
            "oracle_divergent": divergent,
            "oracle_rel_gap": gap,
        }
    return report, 0


def run_subgrad_check(problem: dict, gamma=None, tol_overrides=None):
    spec, tols, options = problem_from_dict(problem, tol_overrides)
    Gamma = _gamma(spec, gamma)
    ok, cert, why = subdiff_membership(
        spec.Xbar, Gamma, spec.kappa, tols=tols, with_diagnostics=True
    )
    report = {"member": bool(ok), "diagnostic": why}
    if ok:
        report["certificate"] = _cert_summary(cert)
        report["index_sets"] = _index_sets(cert)
    return report, (0 if ok else 1)


def run_tilt(problem: dict, seed=None, rotation_samples=None, tol_overrides=None):
    """The verdict section of run_analyze, or its error report; (report, code)."""
    report, code = run_analyze(
        problem, seed=seed, rotation_samples=rotation_samples, tol_overrides=tol_overrides
    )
    return (report if "error" in report else report["verdict"]), code


# ---------------------------------------------------------------------------
# click shell
# ---------------------------------------------------------------------------

_EXTRA = dict(ignore_unknown_options=True, allow_extra_args=True)


@click.group()
def cli():
    """Tilt-stability analysis of Ky-Fan kappa-norm regularized problems."""


def _guarded(fn):
    """Run a command body, mapping library errors to exit code 3."""
    try:
        return fn()
    except SchemaError as e:
        _emit(_error_report("schema", str(e)), None)
        return EXIT_ERROR
    except ValueError as e:
        _emit(_error_report("precondition", str(e)), None)
        return EXIT_ERROR


@cli.command(context_settings=_EXTRA)
@click.argument("problem_file", type=str)
@click.option("--out", type=str, default=None, help="write the JSON report here")
@click.option("--seed", type=int, default=None, help="override options.seed")
@click.option("--rotation-samples", type=int, default=None, help="re-rotations of degenerate blocks")
@click.option("--cross-check", is_flag=True, help="attach oracle cross-checks")
@click.option("--probe", is_flag=True, help="attach the prox-Jacobian tilt probe")
@click.option("--d2-samples", type=int, default=0, help="evaluate d2 on sampled directions")
@click.option("--timings", is_flag=True, help="attach wall-clock timings (breaks byte-identity)")
@click.pass_context
def analyze(ctx, problem_file, out, seed, rotation_samples, cross_check, probe, d2_samples, timings):
    """Full analysis pipeline; exit 0 Stable, 1 Unstable, 2 Inconclusive, 3 error."""

    def body():
        overrides = _parse_extra_tols(ctx.args)
        problem = load_problem_file(problem_file)
        report, code = run_analyze(
            problem,
            seed=seed,
            rotation_samples=rotation_samples,
            cross_check=cross_check,
            probe=probe,
            d2_samples=d2_samples,
            timings=timings,
            tol_overrides=overrides,
        )
        _emit(report, out)
        return code

    return _guarded(body)


@cli.command(context_settings=_EXTRA)
@click.argument("problem_file", type=str)
@click.argument("g_file", type=str)
@click.option("--gamma", "gamma_file", type=str, default=None, help="matrix file overriding Gamma")
@click.option("--cross-check", is_flag=True, help="attach the envelope oracle's value and its gap")
@click.option("--out", type=str, default=None)
@click.pass_context
def d2(ctx, problem_file, g_file, gamma_file, cross_check, out):
    """Second subderivative in a direction read from G_FILE (matrix JSON)."""

    def body():
        overrides = _parse_extra_tols(ctx.args)
        problem = load_problem_file(problem_file)
        G = _load_matrix(g_file, "G")
        gamma = None if gamma_file is None else _load_matrix(gamma_file, "gamma")
        report, code = run_d2(
            problem, G, gamma=gamma, cross_check=cross_check, tol_overrides=overrides
        )
        _emit(report, out)
        return code

    return _guarded(body)


@cli.command("subgrad-check", context_settings=_EXTRA)
@click.argument("problem_file", type=str)
@click.option("--gamma", "gamma_file", type=str, default=None, help="matrix file overriding Gamma")
@click.option("--out", type=str, default=None)
@click.pass_context
def subgrad_check(ctx, problem_file, gamma_file, out):
    """Check -nu*grad theta(Xbar) (or --gamma) against the subdifferential."""

    def body():
        overrides = _parse_extra_tols(ctx.args)
        problem = load_problem_file(problem_file)
        gamma = None if gamma_file is None else _load_matrix(gamma_file, "gamma")
        report, code = run_subgrad_check(problem, gamma=gamma, tol_overrides=overrides)
        _emit(report, out)
        return code

    return _guarded(body)


@cli.command(context_settings=_EXTRA)
@click.argument("problem_file", type=str)
@click.option("--out", type=str, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--rotation-samples", type=int, default=None)
@click.pass_context
def tilt(ctx, problem_file, out, seed, rotation_samples):
    """Verdict only; exit 0 Stable, 1 Unstable, 2 Inconclusive, 3 error."""

    def body():
        overrides = _parse_extra_tols(ctx.args)
        problem = load_problem_file(problem_file)
        report, code = run_tilt(
            problem, seed=seed, rotation_samples=rotation_samples, tol_overrides=overrides
        )
        _emit(report, out)
        return code

    return _guarded(body)


def main(argv=None):
    """Console entry point; maps click usage errors to exit code 3 so that
    2 stays reserved for Inconclusive."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as e:  # --help and friends
        return int(e.exit_code)
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return EXIT_ERROR
    except click.exceptions.Abort:
        return EXIT_ERROR
    return int(rv) if rv is not None else 0


if __name__ == "__main__":
    sys.exit(main())
