"""Multi-start minimization of the upper bound over policy parameters.

``minimize_upper_bound(g, policy_kind, config)`` takes as objective the
initial-state upper bound of the problem that ``g`` carries, as a
function of the flat parameter vector of a drift-adjustment policy.
It is smooth almost everywhere (the positive-part wrappers kink only
on a measure-zero set), so the minimizer is BFGS fed with the exact
gradient: the closed form's adjoint pass gives dJ/dv at the grid nodes
and the policy family's vector-Jacobian product carries it onto the
parameters, both from the one evaluation that yields the value.

Each start draws its own initialization from the configured seed;
starts are independent, and the reduction picks the lowest final
objective with ties broken by the lowest start index, so results are
reproducible regardless of evaluation order.  The starts therefore run
in two processes: ``scipy.optimize`` is imported once, then one child
is forked, and it and the caller take starts from one shared queue.
The child's per-start results come back pickled and are merged in
start order, so the trace equals that of one process bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import drift_policy
from .closed_form import GFunction, origin_upper_bound, origin_upper_bound_and_gradient
from .errors import NumericalError, ValidationError
from .fork import IndexQueue, in_two_processes

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "StartOutcome",
    "upper_bound_and_gradient",
    "minimize_upper_bound",
]

_MAX_INIT_RETRIES = 3  # redraws of a start whose initial objective is non-finite
_GTOL = 1e-10  # BFGS stopping rule on the gradient norm
_XRTOL = 1e-12  # BFGS stopping rule on the relative step


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start protocol.

    ``iterations_per_start`` caps the solver iterations of each start
    (0 returns the best initialization unmodified).
    """

    num_starts: int = 30
    iterations_per_start: int = 50

    def __post_init__(self) -> None:
        if self.num_starts < 1:
            raise ValidationError("num_starts must be positive")
        if self.iterations_per_start < 0:
            raise ValidationError("iterations_per_start must be nonnegative")


@dataclass(frozen=True)
class StartOutcome:
    """How one start's solver run ended, as scipy reports it.

    ``grad_norm`` is the Euclidean norm of the exact gradient at the
    solver's final point.
    """

    status: int
    message: str
    nit: int
    nfev: int
    njev: int
    grad_norm: float


@dataclass
class OptimizationTrace:
    """Per-iteration incumbents and the winning start.

    ``entries`` rows are (start index, iteration, incumbent objective);
    the incumbent is the running best within the start, so each start's
    sequence is nonincreasing.  ``outcomes`` holds one ``StartOutcome``
    per start, or None where no solver ran (zero iterations).
    """

    entries: list[tuple[int, int, float]] = field(default_factory=list)
    per_start_final: list[float] = field(default_factory=list)
    outcomes: list[StartOutcome | None] = field(default_factory=list)
    best_params: np.ndarray | None = None
    best_objective: float = float("inf")
    best_start: int = -1


def upper_bound_and_gradient(g: GFunction, policy):
    """Objective value and its exact gradient in the policy's flat parameters.

    A non-finite gradient at a finite value raises ``NumericalError``;
    at a non-finite value both are returned as they are, so the line
    search can step back.
    """
    value, d_v0, d_vm = origin_upper_bound_and_gradient(g, policy)
    grad = policy.vjp(g.grid.nodes, d_v0, d_vm)
    if np.isfinite(value) and not np.all(np.isfinite(grad)):
        raise NumericalError("upper-bound gradient is non-finite at a finite value")
    return value, grad


def _run_single_start(minimize, value_and_grad, x0, f0, config, start_idx):
    """One local minimization from x0 (objective f0).

    Returns the start's trace entries (its per-iteration incumbents),
    the best point and value, and the solver's ``StartOutcome``.
    """
    best_x = np.asarray(x0, dtype=float)
    best_f = f0
    entries = [(start_idx, 0, best_f)]
    if config.iterations_per_start == 0:
        return entries, best_x, best_f, None

    def callback(intermediate_result):
        nonlocal best_x, best_f
        fk = float(intermediate_result.fun)
        if np.isfinite(fk) and fk < best_f:
            best_f = fk
            best_x = np.asarray(intermediate_result.x, dtype=float).copy()
        entries.append((start_idx, len(entries), best_f))

    res = minimize(
        value_and_grad,
        x0,
        method="BFGS",
        jac=True,
        callback=callback,
        options={
            "maxiter": config.iterations_per_start,
            "gtol": _GTOL,
            "xrtol": _XRTOL,
        },
    )
    outcome = StartOutcome(
        status=int(res.status),
        message=str(res.message),
        nit=int(res.nit),
        nfev=int(res.nfev),
        njev=int(res.njev),
        grad_norm=float(np.linalg.norm(res.jac)),
    )
    f_final = float(res.fun)
    if np.isfinite(f_final) and f_final < best_f:
        best_f = f_final
        best_x = np.asarray(res.x, dtype=float)
    return entries, best_x, best_f, outcome


def minimize_upper_bound(
    g: GFunction,
    policy_kind: str,
    config: OptimizerConfig,
    seed: int = 0,
    activation: str = drift_policy.MlpPolicy.activation,
    snake_a: float = drift_policy.MlpPolicy.snake_a,
):
    """Minimize J~(0, W0, Y0) of ``g``'s problem over flat policy parameters.

    Returns (best policy, trace).  Initializations are drawn per start
    from ``seed``; a start whose initial objective is non-finite is
    redrawn up to ``_MAX_INIT_RETRIES`` times before failing.  The
    returned objective is the minimum over every start's final value.

    The starts run in this process and one forked child, which take
    them from one queue (without ``os.fork`` this process takes them
    all).  If starts fail, the error of the lowest failing start is
    raised, as one process running the starts in order would raise it.
    """

    def build(params):
        return drift_policy.make_policy(
            policy_kind,
            params,
            t_retire=g.scenario.T_R,
            activation=activation,
            snake_a=snake_a,
        )

    def objective(params):
        # policy by keyword: the perfbench tracer counts repeated
        # evaluations from the policy at args[2] or kwargs["policy"]
        return origin_upper_bound(g, policy=build(params))

    def value_and_grad(params):
        return upper_bound_and_gradient(g, build(params))

    minimize = None
    if config.iterations_per_start:
        # imported here, once and before the fork: validate needs no scipy
        from scipy.optimize import minimize

    def run_start(start):
        x0 = None
        for retry in range(_MAX_INIT_RETRIES + 1):
            candidate = drift_policy.init_params(policy_kind, (seed, start, retry))
            f0 = float(objective(candidate))
            if np.isfinite(f0):
                x0 = candidate
                break
        if x0 is None:
            raise NumericalError(
                f"start {start}: objective non-finite after {_MAX_INIT_RETRIES} redraws"
            )
        return _run_single_start(minimize, value_and_grad, x0, f0, config, start)

    def run_starts(queue):
        """Results of the starts taken from ``queue``, and the first failure."""
        done = {}
        for start in queue:
            try:
                done[start] = run_start(start)
            except Exception as exc:
                queue.stop()  # every lower start is already taken
                return done, (start, exc)
        return done, None

    with IndexQueue(config.num_starts) as queue:
        parts = in_two_processes(lambda: run_starts(queue), lambda: run_starts(queue))
    failures = [failure for _, failure in parts if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]

    results = {start: result for done, _ in parts for start, result in done.items()}
    trace = OptimizationTrace()
    for start in range(config.num_starts):
        entries, x_final, f_final, outcome = results[start]
        trace.entries.extend(entries)
        trace.per_start_final.append(f_final)
        trace.outcomes.append(outcome)
        if f_final < trace.best_objective:
            trace.best_objective = f_final
            trace.best_params = x_final
            trace.best_start = start

    return build(trace.best_params), trace
