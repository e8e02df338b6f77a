"""Duality-based bounds for a constrained life-cycle portfolio problem.

An agent with CRRA preferences chooses consumption, a nonnegative
wealth-capped stock position, and life-insurance purchases while
earning mortality-risky labor income.  Trading constraints make the
primal problem intractable, but every nonnegative drift adjustment
v = (v0, v_minus) of the bond and stock defines a fictitious
unconstrained market whose closed-form value function upper-bounds the
true one.  The package minimizes that upper bound over affine and
small-network adjustment policies, simulates the candidate feedback
strategy implied by the minimizer to get a lower bound, and reports
the certified duality gap and welfare loss.
"""

from .closed_form import compute_g, origin_upper_bound, precompute_aggregates
from .drift_policy import make_policy
from .errors import NumericalError, ValidationError
from .lower_bound import SimulationConfig, simulate_candidate_value
from .market import preset_scenario
from .optimizer import OptimizerConfig, minimize_upper_bound
from .quadrature import UniformGrid
from .report import build_report

__version__ = "0.1.0"

# the names the README's library snippet and the demos import; every
# other name stays importable from its submodule
__all__ = [
    "__version__",
    "NumericalError",
    "OptimizerConfig",
    "SimulationConfig",
    "UniformGrid",
    "ValidationError",
    "build_report",
    "compute_g",
    "make_policy",
    "minimize_upper_bound",
    "origin_upper_bound",
    "precompute_aggregates",
    "preset_scenario",
    "simulate_candidate_value",
]
