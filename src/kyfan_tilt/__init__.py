"""Tilt-stability analysis of Ky-Fan kappa-norm regularized problems.

Closed-form subdifferential tests, the closed form of the second
subderivative, critical cones, and the kernel-intersection tilt criterion for

    min_X  nu * theta(X) + Psi_kappa(X),

with Psi_kappa the sum of the kappa largest singular values, each route
cross-validated by independent brute-force oracles.
"""

from .config import DEFAULT_TOLS, Tolerances
from .io import SchemaError, canonical_dumps, matrix_from_json, matrix_to_json, unvec, vec
from .oracle import (
    d2_envelope_oracle,
    kyfan_matrix_prox,
    kyfan_vector_prox,
    tilt_probe,
)
from .secder import (
    CriticalConeCert,
    SecondSubderivValue,
    critical_cone_membership,
    d2_psi_explicit,
    d2_zero_set_membership,
)
from .spectral import group_singular, svd_ordered
from .subgrad import SubgradCertificate, psi_value, subdiff_membership
from .tilt import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    LeastSquaresTheta,
    ProblemSpec,
    QuadraticTheta,
    StationarityError,
    TiltOptions,
    TiltVerdict,
    UpsilonSpec,
    build_upsilon,
    tilt_check,
)

__version__ = "0.1.0"
