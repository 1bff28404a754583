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
    # grouping of singular/eigen values: group_rel * max(1, sigma_1)
    group_rel: float = 1e-8
    # pseudo-inverse cutoff: pinv_rel * max(1, |mu| + ||Z||_2)
    pinv_rel: float = 1e-10
    # second-subderivative domain condition for the symmetric-matrix function:
    # cond_rel * (1 + ||H||_F)
    cond_rel: float = 1e-8
    # classification of subgradient singular values against {0, 1}
    sigma_class: float = 1e-7
    # trace/sum conditions: sum_rel * kappa
    sum_rel: float = 1e-7
    # subdifferential membership residuals, scaled by max(1, ||Gamma||_F)
    subdiff: float = 1e-8
    # critical-cone residuals, scaled by (1 + ||G||_F)
    cone: float = 1e-7
    # hessian kernel cutoff: kernel_rel * lambda_max, floored at kernel_floor
    kernel_rel: float = 1e-9
    kernel_floor: float = 1e-12
    # hessian positive-semidefiniteness check (relative to lambda_max)
    psd_rel: float = 1e-8
    # hessian symmetry check: orth * nm * max(1, ||H||_F)
    orth: float = 1e-10
    # principal-angle cutoff for subspace intersection: cos >= 1 - angle
    angle: float = 1e-9
    # witness feasibility margin for instability certificates
    margin: float = 1e-8


DEFAULT_TOLS = Tolerances()
