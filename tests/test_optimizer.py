"""The exact objective gradient and the multi-start reduction."""

import dataclasses
import os
import time
from unittest import mock

import numpy as np
import pytest

from lifedual.closed_form import (
    compute_g,
    origin_upper_bound,
    origin_upper_bound_and_gradient,
    upper_bound,
)
from lifedual.drift_policy import (
    AFFINE_N_PARAMS,
    MLP_N_PARAMS,
    AffinePolicy,
    init_params,
    make_policy,
)
from lifedual.errors import NumericalError, ValidationError
from lifedual.market import preset_scenario
from lifedual.optimizer import (
    _GTOL,
    _STALL_ULPS,
    OptimizerConfig,
    _bfgs,
    minimize_upper_bound,
    upper_bound_and_gradient,
)
from lifedual.quadrature import UniformGrid

SC = preset_scenario("example1")


def _g(n=100, scenario=SC):
    return compute_g(scenario, UniformGrid(0.0, scenario.T, n))


def _central_differences(g, build, params, step=1e-6):
    grad = np.empty(params.size)
    for i in range(params.size):
        h = step * max(1.0, abs(params[i]))
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (
            origin_upper_bound(g, build(up))
            - origin_upper_bound(g, build(dn))
        ) / (2.0 * h)
    return grad


@pytest.mark.parametrize("n", [100, 77])  # T_R = 20 is a node at n=100, not at 77
@pytest.mark.parametrize(
    "kind, activation, std",
    [("affine", "relu", 0.01), ("mlp", "relu", 0.1), ("mlp", "snake", 0.1)],
)
def test_adjoint_gradient_matches_central_differences(n, kind, activation, std):
    sc = preset_scenario("example2")
    g = _g(n, sc)

    def build(p):
        return make_policy(kind, p, t_retire=sc.T_R, activation=activation)

    rng = np.random.default_rng(n)
    n_params = AFFINE_N_PARAMS if kind == "affine" else MLP_N_PARAMS
    for _ in range(3):
        params = rng.normal(0.0, std, n_params)
        v0, vm = build(params)(g.grid.nodes)
        clamped = np.concatenate([v0, vm]) == 0.0
        # some positive-part outputs clamped to 0, but not all of them
        if clamped.any() and not clamped.all():
            break
    else:
        pytest.fail("no parameter draw with partly clamped outputs")
    value, grad = upper_bound_and_gradient(g, build(params))
    assert value == origin_upper_bound(g, build(params))
    assert upper_bound(g, build(params), 0.0, sc.W0, sc.Y0) == value
    fd = _central_differences(g, build, params)
    assert np.linalg.norm(fd) > 0.0
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def _rosenbrock(x):
    value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    grad = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                     200.0 * (x[1] - x[0] ** 2)])
    return value, grad


def _bfgs_values(value_and_grad, x0, maxiter):
    """``_bfgs``'s result and the objective at each accepted point."""
    seen = []
    x0 = np.asarray(x0, dtype=float)
    x, f, outcome = _bfgs(value_and_grad, x0, value_and_grad(x0), maxiter,
                          lambda x, f: seen.append(f))
    return x, f, outcome, seen


def test_bfgs_solves_rosenbrock():
    x, f, outcome, seen = _bfgs_values(_rosenbrock, [-1.2, 1.0], 200)
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0.0, atol=1e-8)
    assert outcome.status == 0 and outcome.nit == len(seen)
    assert outcome.nfev == outcome.njev
    assert all(b <= a for a, b in zip(seen, seen[1:]))


def test_bfgs_iteration_limit_and_zero_gradient():
    _, _, outcome, seen = _bfgs_values(_rosenbrock, [-1.2, 1.0], 5)
    assert (outcome.status, outcome.nit, len(seen)) == (1, 5, 5)
    x, f, outcome, seen = _bfgs_values(lambda x: (float(x @ x), 2.0 * x), [0.0, 0.0], 5)
    assert (outcome.status, outcome.nit, outcome.nfev, seen) == (0, 0, 1, [])
    assert f == 0.0 and np.array_equal(x, [0.0, 0.0])


def test_bfgs_steps_back_from_an_infinite_objective():
    # f = a.x - log(1 - |x|^2) is +inf outside the unit ball; the first
    # trial step from 0 lands outside it, and the search steps back
    a = np.array([3.0, 0.0])
    evaluated = []

    def barrier(x):
        inside = x @ x < 1.0
        evaluated.append(inside)
        if not inside:
            return float("inf"), np.full(2, np.nan)
        return a @ x - np.log1p(-(x @ x)), a + 2.0 * x / (1.0 - x @ x)

    x, f, outcome, seen = _bfgs_values(barrier, [0.0, 0.0], 50)
    assert not all(evaluated)
    assert outcome.status == 0 and np.isfinite(seen).all()
    t = (np.sqrt(40.0) - 2.0) / 6.0  # 3 = 2t / (1 - t^2)
    np.testing.assert_allclose(x, [-t, 0.0], rtol=0.0, atol=1e-8)


def test_bfgs_stops_when_f_changes_at_rounding_level():
    # the constant 1e6 puts f's ulp far above the decrease that is left
    # while the gradient is still above the tolerance
    def shifted(x):
        value = 1e6 + 0.5 * (x[0] ** 2 + 100.0 * x[1] ** 2) + x[0] ** 4
        return value, np.array([x[0] + 4.0 * x[0] ** 3, 100.0 * x[1]])

    x, f, outcome, seen = _bfgs_values(shifted, [1e-5, 1e-5], 50)
    assert outcome.status == 0 and outcome.message == "objective change at rounding level"
    assert outcome.nit < 50 and outcome.grad_norm > _GTOL
    assert 0.0 <= seen[-2] - seen[-1] <= _STALL_ULPS * np.spacing(f)


@pytest.mark.parametrize("start", [0, 4])  # the seed-0 desk starts that descend
def test_bfgs_matches_scipy_on_the_desk_affine_starts(start):
    from scipy.optimize import minimize

    g = _g()

    def value_and_grad(params):
        return upper_bound_and_gradient(g, make_policy("affine", params, t_retire=SC.T_R))

    x0 = init_params("affine", (0, start, 0))
    _, f, outcome, _ = _bfgs_values(value_and_grad, x0, 50)
    ref = minimize(value_and_grad, x0, method="BFGS", jac=True,
                   options={"maxiter": 50, "gtol": 1e-10, "xrtol": 1e-12})
    assert f < -9.45 and outcome.status == 0
    assert f == pytest.approx(ref.fun, rel=1e-12, abs=0.0)


def test_objective_needs_a_grid_starting_at_0():
    anchored = compute_g(SC, UniformGrid(5.0, SC.T, 50))
    zero = AffinePolicy(params=(0.0,) * 8, t_retire=SC.T_R)
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=0)
    for call in (
        lambda: origin_upper_bound(anchored, zero),
        lambda: origin_upper_bound_and_gradient(anchored, zero),
        lambda: minimize_upper_bound(anchored, "affine", cfg),
    ):
        with pytest.raises(ValidationError, match="starting at 0"):
            call()


def test_non_finite_gradient_raises():
    g = _g(50)
    nodes = g.grid.nodes
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=5)
    with mock.patch(
        "lifedual.optimizer.origin_upper_bound_and_gradient",
        return_value=(-9.0, np.full(nodes.size, np.nan), np.zeros(nodes.size)),
    ):
        with pytest.raises(NumericalError, match="gradient"):
            minimize_upper_bound(g, "affine", cfg, seed=0)


def test_start_outcomes_report_the_solver_end():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=2, iterations_per_start=8)
    policy, trace = minimize_upper_bound(g, "affine", cfg, seed=3)
    assert len(trace.outcomes) == 2
    for start, outcome in enumerate(trace.outcomes):
        assert outcome.nit == max(it for s, it, _ in trace.entries if s == start)
        assert outcome.nfev >= outcome.njev >= 1
        assert outcome.message
    best = trace.outcomes[trace.best_start]
    _, grad = upper_bound_and_gradient(g, policy)
    assert best.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-12)
    _, zero_it = minimize_upper_bound(
        g, "affine", OptimizerConfig(num_starts=1, iterations_per_start=0)
    )
    assert zero_it.outcomes == [None]


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(num_starts=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(iterations_per_start=-1)


def test_zero_iterations_returns_best_initialization():
    g = _g()
    cfg = OptimizerConfig(num_starts=3, iterations_per_start=0)
    policy, trace = minimize_upper_bound(g, "affine", cfg, seed=9)
    inits = [init_params("affine", (9, s, 0)) for s in range(3)]
    values = [
        origin_upper_bound(g, AffinePolicy(params=tuple(p), t_retire=SC.T_R))
        for p in inits
    ]
    k = int(np.argmin(values))
    assert trace.best_start == k
    assert trace.best_objective == values[k]
    assert np.array_equal(trace.best_params, inits[k])
    assert np.array_equal(np.asarray(policy.params), inits[k])


def test_slack_constraint_recovers_zero_adjustment():
    # without income the unconstrained stock demand is 5/6 of wealth,
    # inside [0, W], so the best adjustment is v = 0 and the optimizer
    # must land on the unadjusted value from above
    sc = dataclasses.replace(SC, Y0=0.0)
    g = _g(scenario=sc)
    j0 = origin_upper_bound(g, AffinePolicy(params=(0.0,) * 8, t_retire=sc.T_R))
    cfg = OptimizerConfig(num_starts=3, iterations_per_start=30)
    _, trace = minimize_upper_bound(g, "affine", cfg, seed=5)
    assert trace.best_objective >= j0 - 1e-12
    assert trace.best_objective <= j0 + 1e-6 * abs(j0)


def test_multi_start_is_reproducible():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=2, iterations_per_start=10)
    _, t1 = minimize_upper_bound(g, "affine", cfg, seed=3)
    _, t2 = minimize_upper_bound(g, "affine", cfg, seed=3)
    assert np.array_equal(t1.best_params, t2.best_params)
    assert t1.entries == t2.entries
    _, t3 = minimize_upper_bound(g, "affine", cfg, seed=4)
    assert not np.array_equal(t1.best_params, t3.best_params)


def test_incumbent_sequences_are_nonincreasing():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=2, iterations_per_start=25)
    _, trace = minimize_upper_bound(g, "mlp", cfg, seed=1)
    for s in range(2):
        inc = [f for (start, _, f) in trace.entries if start == s]
        assert len(inc) >= 1
        assert all(b <= a + 1e-15 for a, b in zip(inc, inc[1:]))
    assert trace.best_objective == min(trace.per_start_final)
    # a bounded local step should not lose to its own initialization
    first = {s: None for s in range(2)}
    for start, it, f in trace.entries:
        if it == 0:
            first[start] = f
    assert all(
        final <= first[s] + 1e-15
        for s, final in enumerate(trace.per_start_final)
    )


def test_bad_initialization_is_redrawn():
    g = _g(50)
    bad = tuple(init_params("affine", (7, 0, 0)))
    real = origin_upper_bound

    def fake(gg, policy):
        if np.array_equal(policy.params, bad):
            return float("nan")
        return real(gg, policy)

    cfg = OptimizerConfig(num_starts=1, iterations_per_start=0)
    with mock.patch("lifedual.optimizer.origin_upper_bound", side_effect=fake):
        _, trace = minimize_upper_bound(g, "affine", cfg, seed=7)
    assert np.array_equal(trace.best_params, init_params("affine", (7, 0, 1)))


def test_unrecoverable_initialization_raises():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=0)
    with mock.patch(
        "lifedual.optimizer.origin_upper_bound", return_value=float("nan")
    ):
        with pytest.raises(NumericalError, match="redraws"):
            minimize_upper_bound(g, "affine", cfg, seed=7)


def test_exact_ties_go_to_the_lowest_start():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=4, iterations_per_start=0)
    with mock.patch("lifedual.optimizer.origin_upper_bound", return_value=-1.0):
        _, trace = minimize_upper_bound(g, "affine", cfg, seed=0)
    assert trace.best_start == 0


@pytest.mark.parametrize(
    "kind, activation, preset, num_starts, iterations",
    [
        ("affine", "relu", "example1", 5, 50),
        ("mlp", "snake", "example2", 4, 10),
        ("affine", "relu", "example1", 1, 50),
    ],
    ids=["affine", "snake", "one-start"],
)
def test_forked_starts_equal_one_process(
    kind, activation, preset, num_starts, iterations, monkeypatch
):
    # the Snake case runs BFGS's and the MLP's matrix products in the
    # child; one start still forks once, and the child finds the queue empty
    g = _g(100, preset_scenario(preset))
    cfg = OptimizerConfig(num_starts=num_starts, iterations_per_start=iterations)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    _, forked = minimize_upper_bound(g, kind, cfg, seed=0, activation=activation)
    assert forks == [os.getpid()]
    monkeypatch.delattr(os, "fork")
    _, serial = minimize_upper_bound(g, kind, cfg, seed=0, activation=activation)
    for name in ("entries", "per_start_final", "outcomes", "best_start"):
        assert getattr(forked, name) == getattr(serial, name), name
    assert forked.best_params.tobytes() == serial.best_params.tobytes()


def _fail_starts(g, failures, seed=0):
    """Patch the objective so each start in ``failures`` fails.

    ``failures`` maps a start index to (kind, predicate, delay): the
    start fails by exhausting its init redraws (kind "redraws", a
    non-finite value) or by a non-finite gradient at its first BFGS
    point ("gradient"), where ``predicate()`` holds, ``delay`` seconds
    after its first failing evaluation.  Elsewhere the first evaluation
    of a process sleeps 0.2 s, so the failing process takes a start first.
    """
    # every redraw of a failing start, as its first point may be a redraw
    first_points = {
        init_params("affine", (seed, s, r)).tobytes(): s for s in failures for r in range(4)
    }
    slept = set()
    real_value, real_grad = origin_upper_bound, origin_upper_bound_and_gradient

    def failing(policy):
        """The kind of failure at this evaluation, or None."""
        start = first_points.get(np.asarray(policy.params, dtype=float).tobytes())
        fails = start is not None and failures[start][1]()
        key = start if fails else "first evaluation"
        if key not in slept:
            slept.add(key)
            time.sleep(failures[start][2] if fails else 0.2)
        return failures[start][0] if fails else None

    def value(gg, policy):
        return float("nan") if failing(policy) == "redraws" else real_value(gg, policy)

    def value_and_grad(gg, policy):
        value, d_v0, d_vm = real_grad(gg, policy)
        kind = failing(policy)
        if kind == "redraws":
            return float("nan"), d_v0, d_vm
        if kind == "gradient":
            return value, np.full_like(d_v0, np.nan), np.full_like(d_vm, np.nan)
        return value, d_v0, d_vm

    return mock.patch.multiple(
        "lifedual.optimizer",
        origin_upper_bound=value,
        origin_upper_bound_and_gradient=value_and_grad,
    )


def _in_child(flag):
    parent = os.getpid()
    return lambda: (os.getpid() != parent) == flag


@pytest.mark.parametrize("kind", ["redraws", "gradient"])
@pytest.mark.parametrize("in_child", [True, False], ids=["child", "parent"])
def test_failing_start_raises_in_caller_and_reaps_child(kind, in_child):
    g = _g(50)
    cfg = OptimizerConfig(num_starts=3, iterations_per_start=5)
    here = _in_child(in_child)
    with _fail_starts(g, {s: (kind, here, 0.0) for s in range(3)}):
        with pytest.raises(NumericalError, match=kind) as err:
            minimize_upper_bound(g, "affine", cfg, seed=0)
    assert err.type is NumericalError
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "serial"])
@pytest.mark.parametrize(
    "lower, higher, match",
    [("redraws", "gradient", "start 1: .*redraws"), ("gradient", "redraws", "gradient")],
    ids=["redraws-below-gradient", "gradient-below-redraws"],
)
def test_lowest_failing_start_wins(lower, higher, match, forked, monkeypatch):
    # start 2 fails at once, start 1 only after 0.5 s, yet start 1's
    # error is raised, as one process running the starts in order raises it
    g = _g(50)
    cfg = OptimizerConfig(num_starts=4, iterations_per_start=5)
    if not forked:
        monkeypatch.delattr(os, "fork")
    always = lambda: True  # noqa: E731
    with _fail_starts(g, {1: (lower, always, 0.5), 2: (higher, always, 0.0)}):
        with pytest.raises(NumericalError, match=match):
            minimize_upper_bound(g, "affine", cfg, seed=0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
