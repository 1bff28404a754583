"""Command-line driver: problem ingestion, the analysis pipeline
(subgradient check -> certificate -> structured set -> verdict -> optional
oracle cross-checks), and deterministic JSON report emission.

Exit codes: 0 Stable / membership, 1 Unstable / non-membership, 2
Inconclusive, 3 input or precondition error.  Reports are byte-identical
for identical inputs, flags, and seeds (timings are omitted unless
requested, since they are not reproducible).
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
from .instances import random_incone_direction, random_membership_instance
from .io import SchemaError, canonical_dumps, matrix_from_json, matrix_to_json
from .oracle import (
    ProbeConfig,
    ProbeResult,
    QuotientConfig,
    SolverError,
    d2_quotient_oracle,
    kyfan_matrix_prox,
    kyfan_vector_prox,
    probe_csv,
    tilt_probe,
)
from .secder import d2_psi_explicit, d2_psi_general
from .subgrad import psi_value, subdiff_membership
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


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def _require(d, key, where):
    if key not in d:
        raise SchemaError(f"{where}: missing required field '{key}'")
    return d[key]


def _as_int(v, where, lo=None, hi=None):
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise SchemaError(f"{where}: expected an integer, got {v!r}")
    v = int(v)
    if lo is not None and v < lo:
        raise SchemaError(f"{where}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise SchemaError(f"{where}: must be <= {hi}, got {v}")
    return v


def _as_real(v, where, positive=False):
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise SchemaError(f"{where}: expected a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
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
    names = {f.name for f in dataclasses.fields(Tolerances)}
    updates = {}
    for k, v in values.items():
        if k not in names:
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
        options[k] = _as_int(v, f"options.{k}", lo=0)
    spec = ProblemSpec(Xbar=X, nu=nu, kappa=kappa, theta=theta)
    return spec, tols, options


def load_problem_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"problem file: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"problem file: invalid JSON ({e})") from e


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
        "alpha": [int(i) for i in cert.alpha],
        "beta": [int(i) for i in cert.beta],
        "gamma": [int(i) for i in cert.gamma],
        "beta1": [int(i) for i in cert.beta1],
        "beta_plus": [int(i) for i in cert.beta_plus],
        "beta0": [int(i) for i in cert.beta0],
    }


def _cert_summary(cert):
    return {
        "member": True,
        "case": cert.case,
        "tight": bool(cert.tight),
        "kappa": int(cert.kappa),
        "kappa0": int(cert.kappa0),
        "kappa1": int(cert.kappa1),
        "zeta": [float(z) for z in cert.zeta],
        "sigma": [float(s) for s in cert.pair.sigma],
        "sigma_gamma": [float(s) for s in cert.sigma_gamma_vals],
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


def _quotient_check(X, Gamma, W, kappa, seed, closed):
    """Sampled quotient oracle for d2 Psi_kappa(X | Gamma)(W) and its
    relative gap to the closed-form value `closed` (None unless both are
    finite).  Glue only: the oracle shares no code with the closed forms."""
    q = d2_quotient_oracle(
        lambda Y: psi_value(Y, kappa),
        X,
        Gamma,
        W,
        QuotientConfig(seed=seed),
        prox_fn=lambda Y, t: kyfan_matrix_prox(Y, t, kappa),
    )
    gap = None
    if closed.is_finite and math.isfinite(q.value):
        gap = abs(q.value - closed.value) / (1 + abs(closed.value))
    return q, gap


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
    seed = options["seed"] if seed is None else int(seed)
    rot = options["rotation_samples"] if rotation_samples is None else int(rotation_samples)
    stamps = {}
    try:
        t0 = time.perf_counter()
        cert = spec.validate(tols=tols)
        stamps["validate_s"] = time.perf_counter() - t0
    except StationarityError as e:
        return (
            _error_report("stationarity", str(e), subdiff_distance=e.distance),
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
        "tolerances": dataclasses.asdict(tols),
        "certificate": _cert_summary(cert),
        "index_sets": _index_sets(cert),
        "upsilon": {
            "case": ups.case,
            "exact": bool(ups.exact),
            "hull_dim": int(ups.hull_basis.shape[1]),
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
        for i in range(int(d2_samples)):
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
                W = W / norm  # the oracle's ball and tau grid assume a unit direction
            Gamma = spec.gamma_bar()
            closed = d2_psi_explicit(cert, W, tols=tols)
            general = d2_psi_general(spec.Xbar, Gamma, W, spec.kappa, tols=tols, cert=cert)
            q, rel = _quotient_check(spec.Xbar, Gamma, W, spec.kappa, seed, closed)
            if norm == 0:
                rel = None  # the zero direction checks nothing
            oracle_section["quotient"] = {
                "direction_norm": float(np.linalg.norm(W)),
                "closed_form": closed.value,
                "general_form": general.value,
                "oracle": q.value,
                "oracle_rel_gap": rel,
                "divergent": q.divergent,
            }
            stamps["cross_check_s"] = time.perf_counter() - t0
        if probe:
            t0 = time.perf_counter()
            try:
                pres = tilt_probe(spec, ProbeConfig(seed=seed))
            except SolverError as e:
                oracle_section["probe"] = {"error": str(e)}
            else:
                agr = None
                if verdict.status in (STABLE, UNSTABLE):
                    agr = bool(pres.consistent_with == verdict.status)
                oracle_section["probe"] = {
                    "consistent_with": pres.consistent_with,
                    "max_displacement_ratio": pres.data["max_displacement_ratio"],
                    "lipschitz_threshold": pres.data["lipschitz_threshold"],
                    "agrees_with_verdict": agr,
                    "rows": pres.data["rows"],
                }
            stamps["probe_s"] = time.perf_counter() - t0
        report["oracle"] = oracle_section

    if timings:
        stamps["total_s"] = time.perf_counter() - t_start
        report["timings"] = stamps
    return report, _VERDICT_EXIT[verdict.status]


def run_d2(problem: dict, G, gamma=None, cross_check=False, tol_overrides=None):
    """Second subderivative at (Xbar, Gamma) in direction G; (report, code)."""
    spec, tols, options = problem_from_dict(problem, tol_overrides)
    G = np.asarray(G, dtype=float)
    if G.shape != (spec.n, spec.m):
        raise SchemaError(f"G: expected shape {(spec.n, spec.m)}, got {G.shape}")
    Gamma = spec.gamma_bar() if gamma is None else np.asarray(gamma, dtype=float)
    if Gamma.shape != (spec.n, spec.m):
        raise SchemaError(f"gamma: expected shape {(spec.n, spec.m)}, got {Gamma.shape}")
    ok, cert = subdiff_membership(spec.Xbar, Gamma, spec.kappa, tols=tols)
    if not ok:
        return (
            _error_report("non_subgradient", "Gamma is not a subgradient of Psi_kappa at Xbar"),
            EXIT_ERROR,
        )
    v = d2_psi_explicit(cert, G, tols=tols)
    report = {"value": v.value, "reason": v.reason, "terms": v.terms}
    if cross_check:
        general = d2_psi_general(spec.Xbar, Gamma, G, spec.kappa, tols=tols, cert=cert)
        cc = {"general_form": general.value}
        if v.is_finite:
            q, cc["oracle_rel_gap"] = _quotient_check(
                spec.Xbar, Gamma, G, spec.kappa, options["seed"], v
            )
            cc["oracle"] = q.value
            cc["oracle_divergent"] = q.divergent
        report["cross_check"] = cc
    return report, 0


def run_subgrad_check(problem: dict, gamma=None, tol_overrides=None):
    spec, tols, options = problem_from_dict(problem, tol_overrides)
    Gamma = spec.gamma_bar() if gamma is None else np.asarray(gamma, dtype=float)
    if Gamma.shape != (spec.n, spec.m):
        raise SchemaError(f"gamma: expected shape {(spec.n, spec.m)}, got {Gamma.shape}")
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
# oracle-validate suites
# ---------------------------------------------------------------------------


def _suite_formulas(seed, count):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        X, Gamma, kappa, _ = random_membership_instance(rng)
        ok, cert = subdiff_membership(X, Gamma, kappa)
        if not ok:
            return False, {"reason": "constructed instance failed membership"}
        W = random_incone_direction(rng, cert)
        ve = d2_psi_explicit(cert, W)
        vg = d2_psi_general(X, Gamma, W, kappa, cert=cert)
        if not (ve.is_finite and vg.is_finite):
            return False, {"reason": "in-cone direction evaluated infinite"}
        rel = abs(ve.value - vg.value) / (1 + abs(ve.value))
        v2 = d2_psi_explicit(cert, 2.0 * W)
        hom = abs(v2.value - 4.0 * ve.value) / (1 + abs(4.0 * ve.value))
        worst = max(worst, rel, hom)
        if worst > 1e-9:
            return False, {"max_rel_gap": worst}
    return True, {"instances": count, "max_rel_gap": worst}


def _suite_prox(seed, count):
    rng = np.random.default_rng(seed)
    worst_nonexp = 0.0
    for _ in range(count):
        k = int(rng.integers(2, 9))
        kervec = int(rng.integers(1, k + 1))
        t = float(rng.uniform(0.1, 3.0))
        x = rng.standard_normal(k) * 3
        y = rng.standard_normal(k) * 3
        px = kyfan_vector_prox(x, t, kervec)
        py = kyfan_vector_prox(y, t, kervec)
        # Moreau: the projection part x - prox must lie in t*B
        proj = x - px
        l1cap = t * kervec * (1 + 1e-12)
        if np.max(np.abs(proj)) > t * (1 + 1e-10) or np.sum(np.abs(proj)) > l1cap + 1e-10:
            return False, {"reason": "projection left the dual ball"}
        worst_nonexp = max(worst_nonexp, float(np.linalg.norm(px - py) - np.linalg.norm(x - y)))
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 8))
        Xr = rng.standard_normal((n, m)) * 2
        kap = int(rng.integers(1, n + 1))
        P = kyfan_matrix_prox(Xr, t, kap)
        ok, _ = subdiff_membership(P, (Xr - P) / t, kap, tols=Tolerances(subdiff=1e-7))
        if not ok:
            return False, {"reason": "matrix prox optimality violated"}
    if worst_nonexp > 1e-10:
        return False, {"nonexpansiveness_slack": worst_nonexp}
    return True, {"instances": count, "nonexpansiveness_slack": worst_nonexp}


def _suite_quotient(seed, count):
    rng = np.random.default_rng(seed)
    count = min(count, 20)
    worst = 0.0
    done = 0
    while done < count:
        X, Gamma, kappa, _ = random_membership_instance(rng, well_separated=True)
        ok, cert = subdiff_membership(X, Gamma, kappa)
        if not ok:
            return False, {"reason": "constructed instance failed membership"}
        W = random_incone_direction(rng, cert)
        if np.linalg.norm(W) < 1e-9:
            continue  # cone is trivial for this instance; nothing to compare
        done += 1
        W /= np.linalg.norm(W)
        _, rel = _quotient_check(X, Gamma, W, kappa, seed, d2_psi_explicit(cert, W))
        if rel is None:
            return False, {"reason": "infinite value on an in-cone direction"}
        worst = max(worst, rel)
        if worst > 1e-2:
            return False, {"max_rel_gap": worst}
    return True, {"instances": count, "max_rel_gap": worst}


_SUITES = {"formulas": _suite_formulas, "prox": _suite_prox, "quotient": _suite_quotient}


def run_oracle_validate(suite="all", seed=0, count=50):
    names = list(_SUITES) if suite == "all" else [suite]
    if any(nm not in _SUITES for nm in names):
        raise SchemaError(f"--suite: unknown suite {suite!r} (all | formulas | prox | quotient)")
    lines = []
    all_ok = True
    for nm in names:
        ok, details = _SUITES[nm](seed, count)
        all_ok = all_ok and ok
        detail_str = ", ".join(f"{k}={v}" for k, v in sorted(details.items()))
        lines.append(f"{nm}: {'PASS' if ok else 'FAIL'} ({detail_str})")
    return lines, (0 if all_ok else 1)


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
    except SolverError as e:
        _emit(_error_report("solver", str(e)), None)
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
@click.option("--probe", is_flag=True, help="attach the empirical tilt probe (CSV next to --out)")
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
        if probe and out and "error" not in report:
            section = report["oracle"]["probe"]
            if section.get("rows"):
                with open(out + ".probe.csv", "w") as fh:
                    fh.write(probe_csv(ProbeResult(section["consistent_with"], section)))
        return code

    return _guarded(body)


@cli.command(context_settings=_EXTRA)
@click.argument("problem_file", type=str)
@click.argument("g_file", type=str)
@click.option("--gamma", "gamma_file", type=str, default=None, help="matrix file overriding Gamma")
@click.option("--cross-check", is_flag=True, help="attach general-formula and oracle values")
@click.option("--out", type=str, default=None)
@click.pass_context
def d2(ctx, problem_file, g_file, gamma_file, cross_check, out):
    """Second subderivative in a direction read from G_FILE (matrix JSON)."""

    def body():
        overrides = _parse_extra_tols(ctx.args)
        problem = load_problem_file(problem_file)
        G = matrix_from_json(load_problem_file(g_file), where="G")
        gamma = None
        if gamma_file is not None:
            gamma = matrix_from_json(load_problem_file(gamma_file), where="gamma")
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
        gamma = None
        if gamma_file is not None:
            gamma = matrix_from_json(load_problem_file(gamma_file), where="gamma")
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


@cli.command("oracle-validate")
@click.option("--suite", type=str, default="all", help="all | formulas | prox | quotient")
@click.option("--seed", type=int, default=0)
@click.option("--count", type=int, default=50)
def oracle_validate(suite, seed, count):
    """Cross-validation suites; nonzero exit on any failure."""

    def body():
        lines, code = run_oracle_validate(suite=suite, seed=seed, count=count)
        for line in lines:
            click.echo(line)
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
