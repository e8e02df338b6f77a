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

from .closed_form import (
    DualAggregates,
    FeedbackStrategy,
    GFunction,
    UpperBoundValue,
    compute_g,
    crra_dual_inverse,
    crra_utility,
    feedback_strategy,
    g_value,
    hjb_residual,
    origin_upper_bound,
    precompute_aggregates,
    upper_bound_retirement,
    upper_bound_working,
    welfare_loss,
)
from .config import RunConfig, build_run_config, parse_kv_file
from .constraints import (
    ConstraintKind,
    ConstraintSpec,
    clamp_stock_position,
    in_effective_domain,
    support,
)
from .drift_policy import (
    AffinePolicy,
    MlpPolicy,
    TablePolicy,
    init_params,
    make_policy,
    snake,
)
from .errors import NumericalError, ValidationError
from .lower_bound import (
    BudgetCheck,
    SimulationConfig,
    SimulationResult,
    simulate_candidate_value,
    sobol_normals,
)
from .market import (
    CoefficientCurve,
    MarketScenario,
    kappa,
    log_state_price_increment,
    preset_scenario,
    validate,
)
from .mortality import MortalityModel
from .optimizer import OptimizerConfig, OptimizationTrace, minimize_upper_bound
from .quadrature import UniformGrid, prefix_trapezoid, trapezoid
from .report import BoundsReport, build_report, emit_csv, read_vstar_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AffinePolicy",
    "BoundsReport",
    "BudgetCheck",
    "CoefficientCurve",
    "ConstraintKind",
    "ConstraintSpec",
    "DualAggregates",
    "FeedbackStrategy",
    "GFunction",
    "MarketScenario",
    "MlpPolicy",
    "MortalityModel",
    "NumericalError",
    "OptimizationTrace",
    "OptimizerConfig",
    "RunConfig",
    "SimulationConfig",
    "SimulationResult",
    "TablePolicy",
    "UniformGrid",
    "UpperBoundValue",
    "ValidationError",
    "build_report",
    "build_run_config",
    "clamp_stock_position",
    "compute_g",
    "crra_dual_inverse",
    "crra_utility",
    "emit_csv",
    "feedback_strategy",
    "g_value",
    "hjb_residual",
    "in_effective_domain",
    "init_params",
    "kappa",
    "log_state_price_increment",
    "make_policy",
    "minimize_upper_bound",
    "origin_upper_bound",
    "parse_kv_file",
    "precompute_aggregates",
    "prefix_trapezoid",
    "preset_scenario",
    "read_vstar_csv",
    "simulate_candidate_value",
    "snake",
    "sobol_normals",
    "support",
    "trapezoid",
    "upper_bound_retirement",
    "upper_bound_working",
    "validate",
    "welfare_loss",
]
