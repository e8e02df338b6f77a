"""The exact objective gradient, the batched objective and the multi-start reduction."""

import dataclasses
import os
import time
from unittest import mock

import numpy as np
import pytest

from lifedual import drift_policy
from lifedual.closed_form import compute_g, origin_upper_bound, origin_upper_bounds
from lifedual.config import build_run_config
from lifedual.drift_policy import (
    AFFINE_N_PARAMS,
    MLP_N_PARAMS,
    PolicyFamily,
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
    upper_bounds_and_gradients,
)
from lifedual.quadrature import UniformGrid

from dual_reference import upper_bound

SC = preset_scenario("example1")


def _g(n=100, scenario=SC):
    return compute_g(scenario, UniformGrid(0.0, scenario.T, n))


def _value_and_gradient(g, policy):
    """One policy's objective and parameter gradient, as a one-row stack."""
    values, grads = upper_bounds_and_gradients(g, policy.family, np.asarray(policy.params)[None])
    return float(values[0]), grads[0]


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
    value, grad = _value_and_gradient(g, build(params))
    assert value == origin_upper_bound(g, build(params))
    assert upper_bound(g, build(params), 0.0, sc.W0, sc.Y0) == value
    fd = _central_differences(g, build, params)
    assert np.linalg.norm(fd) > 0.0
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def _stack_families():
    """(family, parameter stack) pairs: affine, ReLU and Snake, some outputs clamped."""
    rng = np.random.default_rng(11)
    families = [
        (PolicyFamily("affine", t_retire=20.0), 0.01),
        (PolicyFamily("mlp", activation="relu"), 0.1),
        (PolicyFamily("mlp", activation="snake"), 0.1),
    ]
    return [(family, rng.normal(0.0, std, (7, family.n_params))) for family, std in families]


@pytest.mark.parametrize("n", [100, 77])  # T_R = 20 is a node at n=100, not at 77
def test_a_batch_equals_its_rows_evaluated_alone(n):
    sc = preset_scenario("example2")
    g = _g(n, sc)
    for family, stack in _stack_families():
        values, grads = upper_bounds_and_gradients(g, family, stack)
        v0, vm, _ = family.forward(stack, g.grid.nodes)
        node_values, d_v0, d_vm = origin_upper_bounds(g, v0, vm)
        assert values.tobytes() == node_values.tobytes()
        for i, row in enumerate(stack):
            policy = family.policy(row)
            value, grad = _value_and_gradient(g, policy)
            assert value == values[i] == origin_upper_bound(g, policy), family
            assert grad.tobytes() == grads[i].tobytes(), family
            # one row through each batched stage: the policy's forward
            # pass, the node gradient and the pullback
            row_v0, row_vm, pullback = family.forward(row[None], g.grid.nodes)
            alone = origin_upper_bounds(g, row_v0, row_vm)
            assert alone[1].tobytes() == d_v0[i].tobytes(), family
            assert alone[2].tobytes() == d_vm[i].tobytes(), family
            assert pullback(d_v0[i : i + 1], d_vm[i : i + 1])[0].tobytes() == grads[i].tobytes()
            # reordered and shorter stacks give the same rows
            again, again_grads = upper_bounds_and_gradients(g, family, stack[i::-1])
            assert again[0] == values[i] and again_grads[0].tobytes() == grads[i].tobytes()
            # the full curves' node 0 (precompute_aggregates) gives the
            # objective at the initial state, bit for bit
            assert upper_bound(g, policy, 0.0, sc.W0, sc.Y0) == values[i], family


def test_a_snake_value_and_gradient_runs_the_hidden_layer_once(monkeypatch):
    g = _g(100, preset_scenario("example2"))
    family, stack = _stack_families()[2]
    calls = []
    real = drift_policy.snake

    def counting(x, a):
        calls.append(np.shape(x))
        return real(x, a)

    monkeypatch.setattr(drift_policy, "snake", counting)
    upper_bounds_and_gradients(g, family, stack)
    assert calls == [(len(stack), g.grid.n_intervals + 1, 10)]
    calls.clear()
    _value_and_gradient(g, family.policy(stack[0]))
    assert len(calls) == 1


# per start (status, nit, nfev, redraws, final objective) of its last
# attempt, at seed 0 on the n=100 grid, captured when the draws came from
# seeded_uniforms and a start ending on a zero gradient was redrawn; a
# redrawn start's nfev (recaptured since) counts all its draws' evaluations
_SNAKE_PROTOCOL_STARTS = [
    (1, 49, 81, 2, -9.238941710293453),
    (2, 27, 65, 1, -9.194620341162986),
    (2, 20, 49, 0, -9.228771873122815),
    (0, 2, 17, 3, -8.810623388185784),
    (1, 48, 93, 1, -9.24713253094521),
    (0, 2, 10, 3, -8.810623388185784),
    (1, 49, 80, 1, -9.248852139352852),
    (2, 24, 55, 0, -9.215952831553313),
    (1, 48, 72, 3, -9.249054026375541),
    (1, 50, 88, 0, -9.238933802729555),
    (2, 26, 72, 2, -9.179197297998066),
    (2, 30, 107, 0, -9.195561186081717),
    (1, 47, 74, 3, -9.238938835564314),
    (1, 50, 141, 0, -9.247696319557678),
    (1, 50, 76, 0, -9.248611150372163),
    (1, 50, 90, 1, -9.24851991672983),
    (0, 2, 10, 3, -8.810623388185784),
    (1, 50, 75, 0, -9.238917393323254),
    (1, 50, 96, 0, -9.24819772040817),
    (2, 28, 69, 0, -9.226810378087011),
    (1, 50, 113, 0, -9.178142050176934),
    (1, 50, 107, 0, -9.247390061468607),
    (1, 48, 96, 3, -9.24486182771631),
    (0, 27, 140, 0, -9.17748098335663),
    (1, 50, 88, 0, -9.247965371011245),
    (1, 49, 107, 1, -9.24894380171835),
    (1, 50, 97, 1, -9.244637550513167),
    (0, 30, 85, 0, -9.177757315023118),
    (2, 33, 96, 3, -9.209363519208758),
    (2, 27, 75, 0, -9.202272106542758),
]
_DESK_AFFINE_STARTS = [
    (0, 9, 36, 1, -9.451881002652218),
    (0, 14, 37, 1, -9.451881002652215),
    (0, 3, 13, 2, -9.318277815391284),
    (2, 10, 39, 0, -9.45188100265222),
    (0, 17, 42, 0, -9.451881002652216),
]


@pytest.mark.parametrize(
    "preset, kind, activation, golden",
    [
        ("example2", "mlp", "snake", _SNAKE_PROTOCOL_STARTS),
        ("example1", "affine", "relu", _DESK_AFFINE_STARTS),
    ],
    ids=["snake-30x50", "desk-affine"],
)
def test_start_trajectories_match_the_golden_record(preset, kind, activation, golden):
    g = _g(100, preset_scenario(preset))
    cfg = OptimizerConfig(num_starts=len(golden), iterations_per_start=50)
    _, outcomes = minimize_upper_bound(g, kind, cfg, seed=0, activation=activation)
    got = [(o.status, o.nit, o.nfev, o.redraws, o.final) for o in outcomes]
    assert got == golden


def _rosenbrock(x):
    value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    grad = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                     200.0 * (x[1] - x[0] ** 2)])
    return value, grad


def _bfgs_values(value_and_grad, x0, maxiter):
    """``_bfgs``'s final point, final value, outcome and accepted values.

    Drives the generator: each point it yields is sent
    ``value_and_grad`` there.  The accepted values are the outcome's
    incumbents after the initialization's.
    """
    x0 = np.asarray(x0, dtype=float)
    run = _bfgs(x0, value_and_grad(x0), maxiter)
    try:
        point = next(run)
        while True:
            point = run.send(value_and_grad(point))
    except StopIteration as stop:
        outcome = stop.value
    return np.array(outcome.params), outcome.final, outcome, list(outcome.values[1:])


def test_bfgs_solves_rosenbrock():
    x, f, outcome, seen = _bfgs_values(_rosenbrock, [-1.2, 1.0], 200)
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0.0, atol=1e-8)
    assert outcome.status == 0 and outcome.nit == len(seen)
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


def test_bfgs_reaches_a_minimum_at_an_infinite_wall():
    # f = -x^2 - x is +inf from x = 1 on, so its infimum -2 lies at the
    # wall; a trial step that overshoots the wall by far more than 2^10
    # times the room left is halved back without using up the search
    def wall(x):
        if x[0] >= 1.0:
            return float("inf"), np.full(1, np.nan)
        return -x[0] ** 2 - x[0], np.array([-2.0 * x[0] - 1.0])

    x, f, outcome, seen = _bfgs_values(wall, [0.0], 50)
    assert x[0] < 1.0 and np.isfinite(seen).all()
    assert f <= -2.0 + 1e-9


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


# the seed-0 desk starts whose last attempt descends, each from that
# attempt's draw (start, redraws) in _DESK_AFFINE_STARTS
@pytest.mark.parametrize("start, retry", [(0, 1), (1, 1), (4, 0)], ids=["0", "1", "4"])
def test_bfgs_matches_scipy_on_the_desk_affine_starts(start, retry):
    from scipy.optimize import minimize

    g = _g()

    def value_and_grad(params):
        return _value_and_gradient(g, make_policy("affine", params, t_retire=SC.T_R))

    x0 = init_params("affine", (0, start, retry))
    _, f, outcome, _ = _bfgs_values(value_and_grad, x0, 50)
    ref = minimize(value_and_grad, x0, method="BFGS", jac=True,
                   options={"maxiter": 50, "gtol": 1e-10, "xrtol": 1e-12})
    assert f < -9.45 and outcome.status == 0
    assert f == pytest.approx(ref.fun, rel=1e-12, abs=0.0)


def test_objective_needs_a_grid_starting_at_0():
    anchored = compute_g(SC, UniformGrid(5.0, SC.T, 50))
    zero = make_policy("affine", (0.0,) * 8, t_retire=SC.T_R)
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=0)
    nodes = np.zeros((1, 51))
    for call in (
        lambda: origin_upper_bound(anchored, zero),
        lambda: origin_upper_bounds(anchored, nodes, nodes),
        lambda: minimize_upper_bound(anchored, "affine", cfg),
    ):
        with pytest.raises(ValidationError, match="starting at 0"):
            call()


def test_non_finite_gradient_raises():
    g = _g(50)

    def nan_gradient(gg, v0, vm):
        return np.full(len(v0), -9.0), np.full_like(v0, np.nan), np.zeros_like(vm)

    cfg = OptimizerConfig(num_starts=1, iterations_per_start=5)
    with mock.patch("lifedual.optimizer.origin_upper_bounds", side_effect=nan_gradient):
        with pytest.raises(NumericalError, match="gradient"):
            minimize_upper_bound(g, "affine", cfg, seed=0)


def test_start_outcomes_report_the_solver_end():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=2, iterations_per_start=8)
    policy, outcomes = minimize_upper_bound(g, "affine", cfg, seed=3)
    assert len(outcomes) == 2
    for start, outcome in enumerate(outcomes):
        assert outcome.nit == len(outcome.values) - 1 <= cfg.iterations_per_start
        assert outcome.final == outcome.values[-1]
        assert outcome.nfev >= outcome.nit + 1
        assert outcome.message
        x0 = init_params("affine", (3, start, outcome.redraws))
        assert outcome.values[0] == origin_upper_bound(
            g, make_policy("affine", x0, t_retire=SC.T_R)
        )
    [best] = [outcome for outcome in outcomes if outcome.params == policy.params]
    value, grad = _value_and_gradient(g, policy)
    assert value == best.final
    assert best.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-12)
    _, zero_it = minimize_upper_bound(
        g, "affine", OptimizerConfig(num_starts=1, iterations_per_start=0)
    )
    [outcome] = zero_it
    assert outcome.nit == 0 and outcome.nfev == 1
    assert outcome.params == tuple(init_params("affine", (0, 0, 0)))
    assert outcome.status in (0, 1)


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(num_starts=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(iterations_per_start=-1)


def test_zero_iterations_returns_best_initialization():
    g = _g()
    cfg = OptimizerConfig(num_starts=3, iterations_per_start=0)
    policy, outcomes = minimize_upper_bound(g, "affine", cfg, seed=9)
    inits = [init_params("affine", (9, s, 0)) for s in range(3)]
    values = [
        origin_upper_bound(g, make_policy("affine", p, t_retire=SC.T_R))
        for p in inits
    ]
    k = int(np.argmin(values))
    assert [outcome.values for outcome in outcomes] == [(value,) for value in values]
    assert [outcome.params for outcome in outcomes] == [tuple(p) for p in inits]
    assert np.array_equal(np.asarray(policy.params), inits[k])


def test_slack_constraint_recovers_zero_adjustment():
    # without income the unconstrained stock demand is 5/6 of wealth,
    # inside [0, W], so the best adjustment is v = 0 and the optimizer
    # must land on the unadjusted value from above
    sc = dataclasses.replace(SC, Y0=0.0)
    g = _g(scenario=sc)
    j0 = origin_upper_bound(g, make_policy("affine", (0.0,) * 8, t_retire=sc.T_R))
    cfg = OptimizerConfig(num_starts=3, iterations_per_start=30)
    _, outcomes = minimize_upper_bound(g, "affine", cfg, seed=5)
    best = min(outcome.final for outcome in outcomes)
    assert best >= j0 - 1e-12
    assert best <= j0 + 1e-6 * abs(j0)


def test_multi_start_is_reproducible():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=2, iterations_per_start=10)
    p1, o1 = minimize_upper_bound(g, "affine", cfg, seed=3)
    p2, o2 = minimize_upper_bound(g, "affine", cfg, seed=3)
    assert p1.params == p2.params
    assert o1 == o2
    p3, _ = minimize_upper_bound(g, "affine", cfg, seed=4)
    assert p1.params != p3.params


def test_incumbent_sequences_are_nonincreasing():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=2, iterations_per_start=25)
    policy, outcomes = minimize_upper_bound(g, "mlp", cfg, seed=1)
    for outcome in outcomes:
        inc = outcome.values
        assert len(inc) >= 1
        assert all(b <= a + 1e-15 for a, b in zip(inc, inc[1:]))
    assert _value_and_gradient(g, policy)[0] == min(outcome.final for outcome in outcomes)
    # a bounded local step should not lose to its own initialization
    assert all(outcome.final <= outcome.values[0] + 1e-15 for outcome in outcomes)


def _edit_rows(edit):
    """Patch the optimizer's batched objective to rewrite each row.

    ``edit(params, value, grad)`` returns the row's (value, grad).
    """
    real = upper_bounds_and_gradients

    def patched(g, family, params):
        values, grads = real(g, family, params)
        rows = [edit(*row) for row in zip(params, values, grads)]
        return np.array([value for value, _ in rows]), np.array([grad for _, grad in rows])

    return mock.patch("lifedual.optimizer.upper_bounds_and_gradients", patched)


def test_bad_initialization_is_redrawn():
    g = _g(50)
    bad = init_params("affine", (7, 0, 0))

    def nan_at_bad(params, value, grad):
        return (float("nan") if np.array_equal(params, bad) else value), grad

    cfg = OptimizerConfig(num_starts=1, iterations_per_start=0)
    with _edit_rows(nan_at_bad):
        policy, [outcome] = minimize_upper_bound(g, "affine", cfg, seed=7)
    assert np.array_equal(policy.params, init_params("affine", (7, 0, 1)))
    assert outcome.nfev == 2  # the non-finite draw's evaluation counts


@pytest.mark.parametrize(
    "iterations, redraws, nit",
    [(5, 3, 0), (2, 3, 0), (1, 0, 1)],
    ids=["redrawn", "redrawn-with-what-is-left", "no-iterations-left"],
)
def test_a_start_ending_on_a_zero_gradient_is_redrawn(iterations, redraws, nit):
    # the gradient is exact only at the first draw, so BFGS's first
    # iterate from it, and every later draw, sits on a flat region; the
    # first attempt takes one iteration, and each redraw gets what is left
    g = _g(50)
    first = init_params("affine", (7, 0, 0))

    def flat_after_first(params, value, grad):
        return value, (grad if np.array_equal(params, first) else np.zeros_like(grad))

    cfg = OptimizerConfig(num_starts=1, iterations_per_start=iterations)
    with _edit_rows(flat_after_first):
        policy, [outcome] = minimize_upper_bound(g, "affine", cfg, seed=7)
    assert (outcome.redraws, outcome.nit, outcome.grad_norm) == (redraws, nit, 0.0)
    assert outcome.message == "gradient below tolerance"
    if redraws:
        # the record is the last attempt's, from its own draw
        last = init_params("affine", (7, 0, redraws))
        assert policy.params == outcome.params == tuple(last)
        assert outcome.values == (origin_upper_bound(g, policy),)


def test_a_redraw_searches_again():
    # a zero gradient at the first draw only: with no iterations the start
    # keeps that draw; with some, it redraws and BFGS descends from the
    # draw of its last attempt
    g = _g(50)
    first = init_params("affine", (7, 0, 0))

    def flat_first(params, value, grad):
        return value, (np.zeros_like(grad) if np.array_equal(params, first) else grad)

    with _edit_rows(flat_first):
        _, [kept] = minimize_upper_bound(g, "affine", OptimizerConfig(1, 0), seed=7)
        _, [searched] = minimize_upper_bound(g, "affine", OptimizerConfig(1, 20), seed=7)
    assert (kept.redraws, kept.nit, kept.grad_norm) == (0, 0, 0.0)
    assert kept.params == tuple(first)
    assert searched.redraws >= 1 and searched.nit > 0 and searched.grad_norm > 0.0
    x0 = init_params("affine", (7, 0, searched.redraws))
    assert searched.values[0] == origin_upper_bound(g, make_policy("affine", x0, t_retire=SC.T_R))
    assert searched.final < searched.values[0]


DESK = build_run_config(preset="example1", desk_scale=True)


def test_desk_fit_finds_the_best_at_every_seed(monkeypatch):
    # without the flat-end redraw, seeds 16, 39, 43, 45, 47 and 48 end more
    # than 1e-6 above the best: every start that searches stalls on the
    # positive part's flat region
    monkeypatch.delattr(os, "fork")  # fifty fits in this process
    g = _g(DESK.n_intervals)
    finals = {
        seed: min(outcome.final for outcome in minimize_upper_bound(
            g, "affine", DESK.optimizer, seed=seed
        )[1])
        for seed in range(50)
    }
    best = min(finals.values())
    assert {seed: final for seed, final in finals.items() if final > best + 1e-6} == {}


@pytest.mark.parametrize("seed", [100, 109])
def test_desk_upper_bound_does_not_depend_on_the_seed(seed):
    # without the flat-end redraw every start stalls at these seeds, and
    # the desk run certifies -9.3118333 instead of -9.4518598
    g = _g(DESK.n_intervals)
    cert = _g(DESK.simulation.n_steps)
    uppers = [
        origin_upper_bound(cert, minimize_upper_bound(g, "affine", DESK.optimizer, seed=s)[0])
        for s in (0, seed)
    ]
    assert uppers[1] == pytest.approx(uppers[0], rel=0.0, abs=1e-6)
    assert uppers[0] == pytest.approx(-9.4518598, rel=0.0, abs=1e-7)


def test_nfev_counts_the_evaluations_of_every_draw(monkeypatch):
    # without os.fork both halves of the starts evaluate in this process,
    # so a wrapper sees every row; at seed 0 the desk starts redraw 1, 1,
    # 2, 0 and 0 times, and their records count the abandoned attempts too
    monkeypatch.delattr(os, "fork")
    rows = []
    real = upper_bounds_and_gradients

    def counting(g, family, params):
        rows.append(len(params))
        return real(g, family, params)

    with mock.patch("lifedual.optimizer.upper_bounds_and_gradients", counting):
        _, outcomes = minimize_upper_bound(_g(DESK.n_intervals), "affine", DESK.optimizer)
    assert [outcome.redraws for outcome in outcomes] == [1, 1, 2, 0, 0]
    assert sum(outcome.nfev for outcome in outcomes) == sum(rows) == 167


def test_fit_refuses_a_seed_the_draws_would_fold():
    # seeded_uniforms folds each key word mod 2^64, so seeds 2^64 and -2^64
    # would fit seed 0's starts and -1 seed 2^64 - 1's; the library refuses
    # them as the config does
    g = _g(50)
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=0)
    refused = r"^seed must be a nonnegative integer below 2\*\*64$"
    for seed in (2**64, -1, -(2**64)):
        with pytest.raises(ValidationError, match=refused):
            minimize_upper_bound(g, "affine", cfg, seed=seed)
    _, (outcome,) = minimize_upper_bound(g, "affine", cfg, seed=2**64 - 1)
    assert outcome.params == tuple(init_params("affine", (2**64 - 1, 0, outcome.redraws)))


def test_unrecoverable_initialization_raises():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=0)
    with _edit_rows(lambda params, value, grad: (float("nan"), grad)):
        with pytest.raises(NumericalError, match="redraws"):
            minimize_upper_bound(g, "affine", cfg, seed=7)


def test_exact_ties_go_to_the_lowest_start():
    g = _g(50)
    cfg = OptimizerConfig(num_starts=4, iterations_per_start=0)
    with _edit_rows(lambda params, value, grad: (-1.0, grad)):
        policy, outcomes = minimize_upper_bound(g, "affine", cfg, seed=0)
    assert [outcome.final for outcome in outcomes] == [-1.0] * 4
    assert policy.params == outcomes[0].params == tuple(init_params("affine", (0, 0, 0)))


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
    # child; one start still forks once, and the child's odd half is empty
    g = _g(100, preset_scenario(preset))
    cfg = OptimizerConfig(num_starts=num_starts, iterations_per_start=iterations)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    forked = minimize_upper_bound(g, kind, cfg, seed=0, activation=activation)
    assert forks == [os.getpid()]
    monkeypatch.delattr(os, "fork")
    serial = minimize_upper_bound(g, kind, cfg, seed=0, activation=activation)
    # the whole start records (incumbents, final points, solver ends) and
    # the returned policy; the policy's parameters also bit for bit
    assert len(forked[1]) == num_starts
    assert forked == serial
    assert np.array(forked[0].params).tobytes() == np.array(serial[0].params).tobytes()


def _fail_starts(g, failures, seed=0):
    """Patch the batched objective so each start in ``failures`` fails.

    ``failures`` maps a start index to (kind, predicate, delay): the
    start fails by exhausting its init redraws (kind "redraws", a
    non-finite value) or by a non-finite gradient at its first BFGS
    point ("gradient"), where ``predicate()`` holds.  The evaluation
    whose rows first hold a start's failure sleeps ``delay`` seconds.
    """
    # every redraw of a failing start, as its first point may be a redraw
    first_points = {
        init_params("affine", (seed, s, r)).tobytes(): s for s in failures for r in range(4)
    }
    slept = set()

    def fail(params, value, grad):
        start = first_points.get(params.tobytes())
        if start is None or not failures[start][1]():
            return value, grad
        kind, _, delay = failures[start]
        if start not in slept:
            slept.add(start)
            time.sleep(delay)
        if kind == "redraws":
            return float("nan"), grad
        return value, np.full_like(grad, np.nan)

    return _edit_rows(fail)


def _in_child(flag):
    # the even half runs in the caller and the odd half in the child it forks
    caller = os.getpid()
    return lambda: (os.getpid() != caller) == flag


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
