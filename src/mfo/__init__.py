"""Mean field optimization: solvers, transport bridging, certificates.

Minimize a convex function of an aggregate contribution over probability
measures on parameter/decision pairs whose parameter marginal is
prescribed.  The package provides empirical-measure primitives, exact
optimal transport with the bridging construction, Frank-Wolfe and
stochastic Frank-Wolfe solvers with duality-gap certificates, marginal
quantization, and three fully worked games (traffic assignment,
exhaustible-resource competition, congested crowd motion).
"""

from .measures import (
    EmpiricalMeasure,
    first_marginal,
    mix,
    validate_feasible,
)
from .problem import (
    DualCertificate,
    MfoProblem,
    OracleError,
    aggregate,
    dual_value,
    fw_gap,
    linearized_solve,
    value_directional_derivative,
)
from .quantize import SourceDistribution, estimate_d1, quantize_grid, quantize_sample
from .solvers import SolveReport, SolverConfig, fw_solve, sfw_solve
from .transport import Coupling, MetricSpec, bridge, ot_solve

__all__ = [
    "Coupling",
    "DualCertificate",
    "EmpiricalMeasure",
    "MetricSpec",
    "MfoProblem",
    "OracleError",
    "SolveReport",
    "SolverConfig",
    "SourceDistribution",
    "aggregate",
    "bridge",
    "dual_value",
    "estimate_d1",
    "first_marginal",
    "fw_gap",
    "fw_solve",
    "linearized_solve",
    "mix",
    "ot_solve",
    "quantize_grid",
    "quantize_sample",
    "sfw_solve",
    "validate_feasible",
    "value_directional_derivative",
]

__version__ = "0.1.0"
