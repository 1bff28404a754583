"""Tolerance defaults shared across the package.

Every tolerance used anywhere in the library lives in this single table so
the CLI can override any of them by name (``--tol.<name> <value>``).  Names
ending in ``_rel`` are multiplied by a problem-dependent scale at the point
of use; the others are absolute unless their comment names a scale.
"""
from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class Tolerances:
    # grouping of singular values: group_rel * max(1, sigma_1)
    group_rel: float = 1e-8
    # classification of subgradient singular values against {0, 1}
    sigma_class: float = 1e-7
    # trace/sum conditions: sum_rel * kappa
    sum_rel: float = 1e-7
    # subdifferential membership residuals, scaled by max(1, ||Gamma||_F)
    subdiff: float = 1e-8
    # critical-cone residuals, scaled by (1 + ||G||_F)
    cone: float = 1e-7
    # kernel cutoff of the Hessian restricted to the hull: kernel_rel * s,
    # floored at kernel_floor; s >= lambda_max is ||Q||_F (quadratic theta)
    # or ||A||_F^2 (least squares)
    kernel_rel: float = 1e-9
    kernel_floor: float = 1e-12
    # hessian positive-semidefiniteness check: lambda_min >= -psd_rel *
    # max(1, ||H||_F) (quadratic theta; A^T A is PSD by construction)
    psd_rel: float = 1e-8
    # Hessian symmetry check: ||H - H^T||_F <= orth * nm * max(1, ||H||_F)
    orth: float = 1e-10
    # witness feasibility margin for instability certificates
    margin: float = 1e-8


DEFAULT_TOLS = Tolerances()
