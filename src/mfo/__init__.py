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
    ConditionalFamily,
    EmpiricalMeasure,
    disintegrate,
    first_marginal,
    mix,
    push_forward,
    validate_feasible,
)
from .problem import (
    AggregateVector,
    DualCertificate,
    MfoProblem,
    OracleError,
    aggregate,
    dual_value,
    fw_gap,
    linearized_solve,
    u_lambda,
    value_directional_derivative,
)
from .quantize import SourceDistribution, estimate_d1, quantize_grid, quantize_sample
from .solvers import SolveReport, SolverConfig, candidate_objective, fw_solve, sfw_solve
from .transport import Coupling, MetricSpec, assignment_solve, bridge, d1, glue, ot_solve

__all__ = [
    "AggregateVector",
    "ConditionalFamily",
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
    "assignment_solve",
    "bridge",
    "candidate_objective",
    "d1",
    "disintegrate",
    "dual_value",
    "estimate_d1",
    "first_marginal",
    "fw_gap",
    "fw_solve",
    "glue",
    "linearized_solve",
    "mix",
    "ot_solve",
    "push_forward",
    "quantize_grid",
    "quantize_sample",
    "sfw_solve",
    "u_lambda",
    "validate_feasible",
    "value_directional_derivative",
]

__version__ = "0.1.0"
