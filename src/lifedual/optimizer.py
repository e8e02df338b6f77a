"""Multi-start minimization of the upper bound over policy parameters.

``minimize_upper_bound(g, policy_kind, config)`` takes as objective the
initial-state upper bound of the problem that ``g`` carries, as a
function of the flat parameter vector of a drift-adjustment policy.
It is smooth almost everywhere (the positive-part wrappers kink only
on a measure-zero set), so the minimizer is BFGS fed with the exact
gradient: the closed form reads the value at node 0 of its one table
builder and runs the adjoint back through the same tables for dJ/dv at
the grid nodes, and the policy family's pullback carries that onto the
parameters, all in the one evaluation that yields the value.

``_bfgs`` is that BFGS in numpy, so no scipy module is loaded.  It
keeps scipy's conventions (identity start, first trial step, Wolfe
constants 1e-4 and 0.9) and searches each line for the strong Wolfe
conditions (Nocedal & Wright, Algorithms 3.5 and 3.6), zooming by a
safeguarded cubic.  A non-finite objective is a step too long.  When
the zoom runs out of trial steps it takes the lowest point that met
sufficient decrease, and an update with y.s <= 0 is skipped, so the
inverse Hessian stays positive definite.

Each start draws its initialization from the configured seed, through
``drift_policy.init_params`` on the key (seed, start, retry), where
``retry`` numbers every draw of the start; the draws are a counter-based
stream in integer arithmetic, so no ``numpy.random`` is loaded.  A start
redraws when its initial objective is non-finite, and when BFGS ends on
an exactly zero gradient: both families output max(z, 0), and a point
whose outputs are all clamped at the grid nodes lies on a flat region
(the zero-adjustment bound) that BFGS's line search accepts.  Starts
are independent, and the reduction picks the lowest final objective
with ties broken by the lowest start index, so results are
reproducible regardless of evaluation order.  The starts therefore run
in two processes: the caller takes the even start indices and a child
it forks the odd ones.  Within a process the starts advance in
lockstep: ``_bfgs`` and its line search are generators that yield each
trial point and are sent its value and gradient, and each round stacks
every live start's point into one batched evaluation
(``upper_bounds_and_gradients``), whose rows are bit-identical to
evaluating each point alone.  A start leaves the round robin when it
finishes or fails.  Once a start fails, the higher starts of that
process stop, and the error of the lowest failing start over both
processes is raised, as one process running the starts in order would
raise it.  A start's one record is a frozen ``StartOutcome``: its
incumbents, final point and solver end.  The odd records come back
pickled and are merged in start order, so the list equals that of one
process bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import drift_policy
from .closed_form import GFunction, origin_upper_bounds
from .errors import NumericalError, ValidationError
from .fork import in_two_processes

__all__ = [
    "OptimizerConfig",
    "StartOutcome",
    "upper_bounds_and_gradients",
    "minimize_upper_bound",
]

_MAX_INIT_RETRIES = 3  # redraws of a start whose initial objective is non-finite
_MAX_FLAT_REDRAWS = 3  # redraws of a start whose BFGS run ends on a zero gradient
_GTOL = 1e-10  # BFGS stopping rule on the largest gradient entry
_XRTOL = 1e-12  # BFGS stopping rule on the relative step
_STALL_ULPS = 4  # BFGS stops once an iteration lowers f by at most this many ulp(f)
_C1, _C2 = 1e-4, 0.9  # strong Wolfe constants: sufficient decrease, curvature
_LINE_STEPS = 10  # trial steps of each line-search phase (bracket, then zoom)


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start protocol.

    ``iterations_per_start`` caps the solver iterations of each start;
    at 0 each start ends at its initialization, with status 1 (or 0
    where the gradient there is already below tolerance).
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
    """The record of one start: its incumbents and how its BFGS run ended.

    ``values`` holds the objective at the initialization and then at
    each accepted iterate; BFGS never accepts a rise in f, so each is
    the start's incumbent and the sequence is nonincreasing.
    ``params`` is the final point.  ``status`` is 0 when a stopping
    rule held (the largest gradient entry at most ``_GTOL``, a relative
    step at most ``_XRTOL``, or a decrease of f at most ``_STALL_ULPS``
    ulp), 1 when ``nit`` reached the iteration cap and 2 when a line
    search found no step of sufficient decrease; ``message`` says which.
    ``nfev`` counts the evaluations of value and gradient over all the
    start's draws; ``grad_norm`` is the Euclidean norm of the exact
    gradient at the final point.  The rest is the record of the last
    attempt; ``redraws`` counts the draws before it, so that attempt
    started from the draw with retry = ``redraws``.
    """

    status: int
    message: str
    nfev: int
    grad_norm: float
    values: tuple[float, ...]
    params: tuple[float, ...]
    redraws: int = 0

    @property
    def nit(self) -> int:
        return len(self.values) - 1

    @property
    def final(self) -> float:
        return self.values[-1]


def upper_bounds_and_gradients(g: GFunction, family, params):
    """Objective values and exact gradients for each row of a parameter stack.

    ``params`` is (k, p) for the ``drift_policy.PolicyFamily`` given;
    returns the k values and the (k, p) gradients in the flat
    parameters.  One forward pass of the family at ``g``'s nodes feeds
    one node-0 pass of the closed form, whose adjoint the family's
    pullback carries onto the parameters.
    """
    v0, vm, pullback = family.forward(params, g.grid.nodes, horizon=g.scenario.T)
    values, d_v0, d_vm = origin_upper_bounds(g, v0, vm)
    return values, pullback(d_v0, d_vm)


def _cubic_step(lo, hi):
    """Trial step of a zoom between the bracket ends ``lo`` and ``hi``.

    Each end is (step, value, slope).  The minimizer of the cubic that
    matches both ends' values and slopes (Nocedal & Wright, eq. 3.59)
    is taken when it lies in the middle 80 % of the bracket; otherwise,
    or when an end is not finite, the midpoint.
    """
    (a0, f0, d0), (a1, f1, d1) = lo[:3], hi[:3]
    mid = 0.5 * (a0 + a1)
    if not math.isfinite(f1 + d1):
        return mid
    e1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    rad = e1 * e1 - d0 * d1
    if not rad >= 0.0:
        return mid
    e2 = math.copysign(math.sqrt(rad), a1 - a0)
    denom = d1 - d0 + 2.0 * e2
    if denom == 0.0:
        return mid
    a = a1 - (a1 - a0) * (d1 + e2 - e1) / denom
    margin = 0.1 * abs(a1 - a0)
    return a if min(a0, a1) + margin <= a <= max(a0, a1) - margin else mid


def _line_search(value_and_grad, x, p, f, g, alpha):
    """A step along ``p`` from ``x`` that meets the strong Wolfe conditions.

    Brackets from the trial step ``alpha``, doubling it while the slope
    stays negative (Algorithm 3.5), then zooms (Algorithm 3.6).  A
    non-finite value fails the sufficient-decrease test, so it bounds
    the bracket from above; in the zoom such a trial is not counted, and
    the bracket halves until it is no wider than the relative step of
    ``_XRTOL``.  Returns (step, value, slope, gradient), or None; when
    neither phase meets both conditions within ``_LINE_STEPS`` counted
    trial steps, the lowest trial point that met sufficient decrease is
    returned, and None only when none did.

    A generator: ``value_and_grad(x)`` is a generator too, and the
    search takes each trial's value and gradient with ``yield from``.
    """
    slope0 = float(g @ p)
    p_norm, x_norm = np.linalg.norm(p), np.linalg.norm(x)
    best = None

    def decreases(point):
        return point[1] <= f + _C1 * point[0] * slope0  # False for NaN

    def trial(a):
        nonlocal best
        fa, ga = yield from value_and_grad(x + a * p)
        point = (a, float(fa), float(ga @ p), ga)
        if decreases(point) and (best is None or point[1] < best[1]):
            best = point
        return point

    def curved(point):
        return abs(point[2]) <= -_C2 * slope0

    def zoom(lo, hi):
        trials = 0
        while trials < _LINE_STEPS:
            point = yield from trial(_cubic_step(lo, hi))
            if not math.isfinite(point[1]):
                # past a wall of +inf or NaN: halve again, free of the trial
                # count, until the bracket is a relative step of _XRTOL
                hi = point
                if abs(hi[0] - lo[0]) * p_norm <= _XRTOL * (_XRTOL + x_norm):
                    break
                continue
            trials += 1
            if not decreases(point) or point[1] >= lo[1]:
                hi = point
                continue
            if curved(point):
                return point
            if point[2] * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = point
        return best

    prev = (0.0, f, slope0, g)
    for i in range(_LINE_STEPS):
        point = yield from trial(alpha)
        if not decreases(point) or (i > 0 and point[1] >= prev[1]):
            return (yield from zoom(prev, point))
        if curved(point):
            return point
        if point[2] >= 0.0:
            return (yield from zoom(point, prev))
        prev = point
        alpha *= 2.0
    return best


def _bfgs(x0, first, maxiter):
    """Minimize from ``x0`` by BFGS; return the start's ``StartOutcome``.

    A generator: it yields each point to evaluate and is sent the value
    and the gradient there; its return value is the result.  ``first``
    is the (value, gradient) at ``x0``, counted as the first
    evaluation.  The inverse Hessian starts at the identity, and the
    first trial step of each line search is
    min(1, 2.02 (f - f_prev) / slope), with f_prev = f0 + |g0| / 2 at
    the first iteration, as in scipy.  Every accepted point met
    sufficient decrease, so f never rises.  See ``StartOutcome`` for
    the stopping rules.
    """
    nfev = 1

    def evaluate(x):
        nonlocal nfev
        nfev += 1
        return (yield x)

    x = np.asarray(x0, dtype=float)
    f, g = first
    f = float(f)
    f_prev = f + float(np.linalg.norm(g)) / 2.0
    H = np.eye(x.size)
    values = [f]
    status, message = 0, None
    if np.max(np.abs(g)) <= _GTOL:
        message = "gradient below tolerance"
    while message is None:
        if len(values) > maxiter:
            status, message = 1, "iteration limit reached"
            break
        p = -(H @ g)
        slope = float(g @ p)
        step = None
        if slope < 0.0:  # else H lost positive definiteness to rounding
            alpha = min(1.0, 2.02 * (f - f_prev) / slope)
            step = yield from _line_search(evaluate, x, p, f, g, alpha if alpha > 0.0 else 1.0)
        if step is None:
            status, message = 2, "line search found no decrease"
            break
        a, f_new, _, g_new = step
        s, y = a * p, g_new - g
        x = x + s
        f_prev, f, g = f, f_new, g_new
        values.append(f)
        sy = float(s @ y)
        if sy > 0.0:  # else skip the update, keeping H positive definite
            Hy = H @ y
            H += ((sy + y @ Hy) / sy**2) * np.outer(s, s)
            H -= np.outer(Hy, s / sy) + np.outer(s / sy, Hy)
        if np.max(np.abs(g)) <= _GTOL:
            message = "gradient below tolerance"
        elif np.linalg.norm(s) <= _XRTOL * (_XRTOL + np.linalg.norm(x)):
            message = "relative step below tolerance"
        elif f_prev - f <= _STALL_ULPS * math.ulp(f):
            message = "objective change at rounding level"
    return StartOutcome(
        status=status,
        message=message,
        nfev=nfev,
        grad_norm=float(np.linalg.norm(g)),
        values=tuple(values),
        params=tuple(x.tolist()),
    )


def _start(policy_kind, seed, start, maxiter):
    """One start as a generator of points to evaluate; returns its ``StartOutcome``.

    Draw ``retry`` of the start is ``init_params`` on (seed, start,
    retry).  A draw whose objective is non-finite is redrawn, up to
    ``_MAX_INIT_RETRIES`` times over the start; otherwise ``_bfgs`` runs
    from it (the draw's evaluation yields the gradient too and is
    BFGS's first).  A run that ends on a gradient of exactly 0 sat on
    the positive part's flat region; it is redrawn up to
    ``_MAX_FLAT_REDRAWS`` times while iterations remain, and each new
    attempt gets the iterations that are left of ``maxiter``.  The
    record is the last attempt's; its redraws and nfev count all draws.
    """
    non_finite = flat = spent = 0
    for retry in itertools.count():
        x0 = drift_policy.init_params(policy_kind, (seed, start, retry))
        first = yield x0
        if not np.isfinite(first[0]):
            non_finite += 1
            if non_finite > _MAX_INIT_RETRIES:
                raise NumericalError(
                    f"start {start}: objective non-finite after {_MAX_INIT_RETRIES} redraws"
                )
            continue
        outcome = yield from _bfgs(x0, first, maxiter)
        maxiter -= outcome.nit
        spent += outcome.nfev
        if outcome.grad_norm != 0.0 or flat == _MAX_FLAT_REDRAWS or maxiter == 0:
            return replace(outcome, nfev=non_finite + spent, redraws=retry)
        flat += 1


def _lockstep(evaluate, runs):
    """Advance the start generators ``runs`` together; return (outcomes, failure).

    Each round stacks the point every live start yielded into one call
    of ``evaluate``, which returns the values and the gradients, and
    sends each start its row.  A start fails on an exception of its own
    or on a non-finite gradient at a finite value; ``failure`` is
    (start, error) of the lowest failing start, or None, and no start
    above it advances further.
    """
    outcomes, points, failure = {}, {}, None

    def advance(start, sent):
        nonlocal failure
        try:
            if sent is not None:
                value, grad = sent
                if np.isfinite(value) and not np.all(np.isfinite(grad)):
                    raise NumericalError("upper-bound gradient is non-finite at a finite value")
            points[start] = runs[start].send(sent)
        except StopIteration as stop:
            outcomes[start] = stop.value
        except Exception as exc:
            failure = (start, exc)

    for start in sorted(runs):
        if failure is None:
            advance(start, None)
    while points:
        starts = sorted(points)
        values, grads = evaluate(np.stack([points.pop(start) for start in starts]))
        for row, start in enumerate(starts):
            if failure is None or start < failure[0]:
                advance(start, (values[row], grads[row]))
    return outcomes, failure


def _check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2^64): ``seeded_uniforms`` folds each key word mod 2^64."""
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must be a nonnegative integer below 2**64")


def minimize_upper_bound(
    g: GFunction,
    policy_kind: str,
    config: OptimizerConfig,
    seed: int = 0,
    activation: str = drift_policy.PolicyFamily.activation,
    snake_a: float = drift_policy.PolicyFamily.snake_a,
):
    """Minimize J~(0, W0, Y0) of ``g``'s problem over flat policy parameters.

    Returns (best policy, outcomes): one ``StartOutcome`` per start, in
    start order, and the policy at the final point of the first start
    with the lowest final value.  Initializations are drawn per start
    from ``seed``; a start whose initial objective is non-finite is
    redrawn up to ``_MAX_INIT_RETRIES`` times before failing; that
    evaluation yields the gradient too and is BFGS's first, so no start
    evaluates its initialization twice.  A start whose BFGS run ends on
    an exactly zero gradient is redrawn up to ``_MAX_FLAT_REDRAWS``
    times within its ``iterations_per_start``.  With
    ``iterations_per_start`` at 0, each start ends at its first finite
    draw (status 1, or 0 where the gradient is below tolerance).

    This process runs the even starts and a forked child the odd ones,
    each half in lockstep, and only the odd outcomes come back (without
    ``os.fork`` this process runs both halves).  If starts fail, the
    error of the lowest failing start is raised, as one process running
    the starts in order would raise it.  ``_check_seed`` checks ``seed``.
    """
    _check_seed(seed)
    family = drift_policy.PolicyFamily(
        policy_kind, t_retire=g.scenario.T_R, activation=activation, snake_a=snake_a
    )

    def run_half(first):
        starts = range(first, config.num_starts, 2)
        maxiter = config.iterations_per_start
        runs = {start: _start(policy_kind, seed, start, maxiter) for start in starts}
        return _lockstep(lambda params: upper_bounds_and_gradients(g, family, params), runs)

    # init_params maps its draws through statistics.NormalDist: imported
    # before the fork, once for both halves
    import statistics  # noqa: F401

    parts = in_two_processes(lambda: run_half(0), lambda: run_half(1))
    failures = [failure for _, failure in parts if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]

    done = {start: outcome for part, _ in parts for start, outcome in part.items()}
    outcomes = [done[start] for start in range(config.num_starts)]
    # min keeps the first of equal finals: the lowest start wins a tie
    best = min(outcomes, key=lambda outcome: outcome.final)
    return family.policy(best.params), outcomes
