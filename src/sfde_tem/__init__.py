"""Explicit truncated Euler-Maruyama scheme for super-linear delay SFDEs.

The package simulates systems dx = f(x_t) dt + g(x_t) dB whose coefficients
depend on the whole recent path segment x_t through distributed-delay
integrals, clipping each step to a ball whose radius grows as the step size
shrinks so that super-linear coefficients cannot blow the iteration up.
Monte Carlo harnesses measure the strong convergence rate against coupled
fine-grid references, the uniform moment bound, and the exponential decay
of stable systems.
"""

from .brownian import BrownianGrid, coarsen, generate, total_increment
from .errors import (
    ConfigurationError,
    DegenerateFitError,
    NumericalError,
    SfdeTemError,
    UnsupportedPointError,
)
from .experiments import (
    ErrorTable,
    MomentCurve,
    StabilityReport,
    admissible_nu,
    fit_rate,
    moment_estimate,
    phi_diagnostic,
    stability_decay,
    strong_error,
)
from .model import (
    GammaSpec,
    SfdeModel,
    builtin_example1,
    builtin_example2,
    builtin_gbm_oracle,
    gamma_inverse_numeric,
    gbm_closed_form,
    get_model,
    rate_lambda,
    truncate,
    truncation_radius,
)
from .scheme import (
    CLASSIC_EM,
    TRUNCATED_EM,
    PathRecord,
    SchemeConfig,
    continuous_extension,
    init_segment,
    segment_at,
    simulate,
    tem_step,
)
from .segment import (
    Segment,
    boxcar_weight,
    constant_segment,
    constant_weight,
    lerp_eval,
    normalize,
    shift_append,
    weighted_integral,
)

__all__ = [
    "BrownianGrid",
    "CLASSIC_EM",
    "ConfigurationError",
    "DegenerateFitError",
    "ErrorTable",
    "GammaSpec",
    "MomentCurve",
    "NumericalError",
    "PathRecord",
    "SchemeConfig",
    "Segment",
    "SfdeModel",
    "SfdeTemError",
    "StabilityReport",
    "TRUNCATED_EM",
    "UnsupportedPointError",
    "admissible_nu",
    "boxcar_weight",
    "builtin_example1",
    "builtin_example2",
    "builtin_gbm_oracle",
    "coarsen",
    "constant_segment",
    "constant_weight",
    "continuous_extension",
    "fit_rate",
    "gamma_inverse_numeric",
    "gbm_closed_form",
    "generate",
    "get_model",
    "init_segment",
    "lerp_eval",
    "moment_estimate",
    "normalize",
    "phi_diagnostic",
    "rate_lambda",
    "segment_at",
    "shift_append",
    "simulate",
    "stability_decay",
    "strong_error",
    "tem_step",
    "total_increment",
    "truncate",
    "truncation_radius",
    "weighted_integral",
]
