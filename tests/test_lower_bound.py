"""Sobol driver, candidate simulation, and dual-identity verifiers."""

import dataclasses
import mmap
import os
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import qmc

from lifedual.cli import main
from lifedual.closed_form import (
    compute_g,
    feedback_coefficients,
    feedback_controls,
    origin_upper_bound,
    precompute_aggregates,
)
from lifedual.config import build_run_config
from lifedual.drift_policy import init_params, make_policy
from lifedual.errors import NumericalError, ValidationError
from lifedual.lower_bound import (
    _INCREMENTS,
    _LEVEL_ERROR,
    _UTIL,
    NORMALS_NOTE,
    SimulationConfig,
    _checkpoints,
    _direction_file,
    _dual_summary,
    _path_pass,
    _scipy_path,
    dual_checks,
    simulate_candidate_value,
    sobol_normals,
)
from lifedual.market import CoefficientCurve, preset_scenario
from lifedual.quadrature import UniformGrid

SC = preset_scenario("example1")
ZERO = make_policy("affine", (0.0,) * 8, t_retire=SC.T_R)
# overflows the state-price streams of a 100-node g
EXTREME = make_policy(
    "affine", np.abs(np.random.default_rng((100, 1)).normal(0.0, 0.03, 8)), t_retire=SC.T_R
)


def _g(n_steps):
    """g on the path grid of ``n_steps`` steps, the grid the pass steps on."""
    return compute_g(SC, UniformGrid(0.0, SC.T, n_steps))


def _grid_integers(cfg):
    levels, row = sobol_normals(cfg)
    return levels, np.stack([row(k) for k in range(cfg.n_steps)])


def _qmc_normals(cfg):
    """The (n_paths, n_steps) inverse-CDF matrix of scipy's engine.

    Each point u is mapped to inv_cdf(max(u, 1e-12)); u is a multiple
    of 2^-m, so the map is a table of every such multiple.
    """
    engine = qmc.Sobol(d=cfg.n_steps, scramble=False)
    engine.fast_forward(1 + cfg.sobol_skip)
    n = 2 ** (cfg.sobol_skip + cfg.n_paths).bit_length()
    grid = engine.random(cfg.n_paths) * n
    index = grid.astype(np.int64)
    assert np.array_equal(index, grid)
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(max(k / n, 1e-12)) for k in range(n)])[index]


def _normal_matrix(cfg):
    levels, index = _grid_integers(cfg)
    return levels[index].T


def test_sobol_first_points_dimension_one():
    cfg = SimulationConfig(n_paths=3, n_steps=1, sobol_skip=0)
    z = _normal_matrix(cfg)
    # the radical-inverse sequence starts 1/2, 3/4, 1/4 after the origin
    ref = [0.0, 0.6744897501960817, -0.6744897501960817]
    assert z[:, 0] == pytest.approx(ref, abs=1e-12)


def test_sobol_moments_per_dimension():
    cfg = SimulationConfig(n_paths=2**14, n_steps=8)
    z = _normal_matrix(cfg)
    assert z.shape == (2**14, 8)
    assert np.all(np.abs(z.mean(axis=0)) < 0.01)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 0.01)


@pytest.mark.parametrize(
    "cfg",
    [
        SimulationConfig(),  # desk scale, m = 15
        SimulationConfig(n_paths=40000, n_steps=3, sobol_skip=30000),  # m = 17
        SimulationConfig(n_paths=1001, n_steps=300),  # odd path count
        SimulationConfig(n_paths=5, n_steps=1, sobol_skip=0),
        # last point 2^16 - 1, and one point more: m = 16 and m = 17
        SimulationConfig(n_paths=2000, n_steps=5, sobol_skip=2**16 - 2001),
        SimulationConfig(n_paths=2000, n_steps=5, sobol_skip=2**16 - 2000),
        SimulationConfig(n_paths=3, n_steps=21201),  # every direction number
        # fewest paths a config allows, from the origin: m = 2
        SimulationConfig(n_paths=2, n_steps=4, sobol_skip=0),
    ],
    ids=["desk", "m17", "ragged-chunk", "one-step", "m16-top", "m17-bottom", "max-dim",
         "two-paths"],
)
def test_sobol_table_matches_direct_inverse_cdf(cfg):
    levels, index = _grid_integers(cfg)
    assert index.shape == (cfg.n_steps, cfg.n_paths)
    assert len(levels) == 2 ** (cfg.sobol_skip + cfg.n_paths).bit_length()
    assert np.array_equal(levels[index].T, _qmc_normals(cfg))


@pytest.mark.parametrize(
    "cfg",
    [SimulationConfig(), SimulationConfig(n_paths=40000, n_steps=3, sobol_skip=30000)],
    ids=["m15", "m17"],
)
def test_sobol_levels_match_ndtri_within_the_stated_error(cfg):
    # NORMALS_NOTE states the levels' error against the exact quantile;
    # scipy's ndtri, the stream's earlier quantile, lies within it too
    levels, _ = sobol_normals(cfg)
    u = np.arange(len(levels)) / len(levels)
    u[0] = 1e-12
    assert np.max(np.abs(levels - ndtri(u))) <= _LEVEL_ERROR
    assert f"absolute error below {_LEVEL_ERROR:.1e}" in NORMALS_NOTE


@settings(max_examples=30, deadline=None)
@given(
    n_paths=st.integers(2, 300),
    n_steps=st.integers(1, 64),
    sobol_skip=st.integers(0, 5000),
)
def test_sobol_rows_match_engine_and_repeat(n_paths, n_steps, sobol_skip):
    cfg = SimulationConfig(n_paths=n_paths, n_steps=n_steps, sobol_skip=sobol_skip)
    levels, row = sobol_normals(cfg)
    direct = _qmc_normals(cfg)
    for k in range(n_steps):
        first = row(k)
        assert np.array_equal(levels[first], direct[:, k])
        assert np.array_equal(row(k), first)


@pytest.mark.parametrize(
    "cfg",
    [
        SimulationConfig(n_paths=20000, n_steps=40),  # desk paths, cut at n // 2
        SimulationConfig(n_paths=1001, n_steps=20, sobol_skip=4001),  # unaligned skip
        SimulationConfig(n_paths=3, n_steps=6, sobol_skip=0),  # m = 2, h = 1
        SimulationConfig(n_paths=2, n_steps=4, sobol_skip=1),  # m = 2, from index 2
    ],
    ids=["desk", "skip-4001", "m2", "m2-skip"],
)
def test_sobol_row_on_unaligned_ranges(cfg):
    # a block's row is the slice of the whole row, wherever the block
    # starts and ends relative to the 2^h points of one high-table entry
    _, row = sobol_normals(cfg)
    n = cfg.n_paths
    cut = n // 2
    ranges = {(0, cut), (cut, n), (1, n - 1), (0, 1), (n - 1, n), (n // 3, 2 * n // 3)}
    for k in range(cfg.n_steps):
        whole = row(k)
        for lo, hi in ranges:
            assert np.array_equal(row(k, lo, hi), whole[lo:hi]), (k, lo, hi)


def test_sobol_normals_desk_scale_memory():
    # reading every desk row holds one row (160 KB), its two XOR tables
    # and the 2^15-entry level table, never the (1000, 20000) stream; the
    # peak, 0.77 MB, comes while the direction integers are built beside
    # the level table
    tracemalloc.start()
    try:
        levels, row = sobol_normals(SimulationConfig(n_paths=20000, n_steps=1000))
        for k in range(1000):
            row(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.mark.parametrize("dim, m", [(1, 2), (1000, 15), (21201, 30)])
def test_direction_file_streams_the_np_load_slices(dim, m):
    # vinit is stored Fortran-ordered, so each column's head is one read
    with np.load(_scipy_path("stats", "_sobol_direction_numbers.npz")) as data:
        poly, vinit = data["poly"][:dim], data["vinit"][:dim, :m]
    streamed = _direction_file(dim, m)
    assert np.array_equal(streamed[0], poly) and streamed[0].dtype == poly.dtype
    assert np.array_equal(streamed[1], vinit) and streamed[1].dtype == vinit.dtype


def test_sobol_dimension_validation():
    with pytest.raises(ValidationError):
        sobol_normals(SimulationConfig(n_paths=4, n_steps=0))
    with pytest.raises(ValidationError):
        sobol_normals(SimulationConfig(n_paths=4, n_steps=30000))
    with pytest.raises(ValidationError):
        build_run_config({"sim.n_steps": "30000"})


def test_simulation_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(n_paths=1)
    with pytest.raises(ValidationError):
        SimulationConfig(n_steps=0)
    with pytest.raises(ValidationError):
        SimulationConfig(sobol_skip=-1)


def test_simulation_config_sobol_point_limit():
    # checked on construction: no engine is built and no array allocated
    SimulationConfig(n_paths=2**30 - 1 - 4000, sobol_skip=4000)
    with pytest.raises(ValidationError, match="Sobol points"):
        SimulationConfig(n_paths=2**30 - 4000, sobol_skip=4000)
    with pytest.raises(ValidationError):
        SimulationConfig(n_paths=20000, sobol_skip=2**30)


def test_simulation_is_deterministic():
    g = _g(50)
    cfg = SimulationConfig(n_paths=512, n_steps=50)
    a = simulate_candidate_value(g, ZERO, cfg)
    b = simulate_candidate_value(g, ZERO, cfg)
    assert a.value == b.value
    assert np.array_equal(a.mean_wealth, b.mean_wealth)
    c = simulate_candidate_value(
        g, ZERO, SimulationConfig(n_paths=512, n_steps=50, sobol_skip=0)
    )
    assert c.value != a.value


def test_std_error_scales_with_path_count():
    g = _g(100)
    small = simulate_candidate_value(g, ZERO, SimulationConfig(n_paths=2000, n_steps=100))
    large = simulate_candidate_value(g, ZERO, SimulationConfig(n_paths=8000, n_steps=100))
    assert 1.7 < small.std_error / large.std_error < 2.3


def test_initial_controls_match_closed_form():
    g = _g(50)
    cfg = SimulationConfig(n_paths=256, n_steps=50)
    res = simulate_candidate_value(g, ZERO, cfg)
    agg = precompute_aggregates(g, ZERO)
    c0 = (SC.W0 + SC.Y0 * agg.income_annuity[0]) / agg.tilde_f2[0]
    assert res.mean_consumption[0] == pytest.approx(c0, rel=1e-12)
    assert res.mean_face_value[0] == pytest.approx(c0 * g.values[0] - SC.W0, rel=1e-10)
    assert res.mean_face_value[0] > 0
    assert res.mean_wealth[0] == SC.W0
    assert res.times[0] == 0.0 and res.times[-1] == SC.T


def test_the_path_pass_evaluates_the_policy_once():
    # the kernel's v0 comes with the aggregate curves, not from a second call
    g = _g(50)
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return ZERO(t)

    for entry in (simulate_candidate_value, dual_checks):
        calls.clear()
        entry(g, counted, SimulationConfig(n_paths=64, n_steps=50))
        assert calls == [g.grid.nodes.shape], entry.__name__


def test_path_pass_needs_a_grid_starting_at_0():
    # a g anchored at 5 used to run, flat-extrapolating the curves over [0, 5]
    anchored = compute_g(SC, UniformGrid(5.0, SC.T, 100))
    with pytest.raises(ValidationError, match="starting at 0"):
        simulate_candidate_value(anchored, ZERO, SimulationConfig(n_paths=64, n_steps=10))


def test_path_pass_steps_on_the_grid_of_g():
    # the paths step on g's nodes, so g must have sim.n_steps intervals
    for entry in (simulate_candidate_value, dual_checks):
        with pytest.raises(ValidationError, match="sim.n_steps = 50, but g has 100 steps"):
            entry(_g(100), ZERO, SimulationConfig(n_paths=64, n_steps=50))


@pytest.mark.parametrize("n_steps", [77, 1012, 1024])
def test_retirement_between_nodes_is_rejected(n_steps):
    # T_R = 20 of T = 50 falls inside a step, which would pay income Y dt
    # past retirement and inflate the lower bound
    cfg = SimulationConfig(n_paths=64, n_steps=n_steps)
    for entry in (simulate_candidate_value, dual_checks):
        with pytest.raises(ValidationError, match=f"sim.n_steps = {n_steps} puts T_R"):
            entry(_g(n_steps), ZERO, cfg)


def test_income_stops_at_retirement(monkeypatch):
    # the feedback rule runs on the working steps only, and sees income on
    # every path there; retired steps are the Merton multiply
    g = _g(10)
    k_retire = round(10 * SC.T_R / SC.T)
    seen = []

    def recorded(W, y, *coef):
        seen.append(np.min(y))
        return feedback_controls(W, y, *coef)

    monkeypatch.setattr("lifedual.lower_bound.feedback_controls", recorded)
    monkeypatch.delattr(os, "fork")  # both blocks step here, where the recorder runs
    simulate_candidate_value(g, ZERO, SimulationConfig(n_paths=64, n_steps=10, sobol_skip=0))
    assert len(seen) == 2 * k_retire
    assert all(ymin > 0 for ymin in seen)


def test_zero_stock_half_spend_override_grows_wealth(monkeypatch):
    # theta = 0 and c (1 + lam g) at most half the income leave a strictly
    # positive riskless drift, so mean wealth must increase while income
    # flows; the retired steps keep the Merton rule
    g = _g(200)
    k_retire = round(200 * SC.T_R / SC.T)
    cap_max = g.bequest_factor[:k_retire].max()

    def half_spend(W, y, *coef):
        return np.zeros_like(W), y / (2.0 * cap_max)

    monkeypatch.setattr("lifedual.lower_bound.feedback_controls", half_spend)
    res = simulate_candidate_value(g, ZERO, SimulationConfig(n_paths=128, n_steps=200))
    assert np.all(np.diff(res.mean_wealth[: k_retire + 1]) > 0)
    assert res.value < 0  # CRRA gamma > 1 keeps utility negative


def _reference_pass(g, pol, cfg):
    """The candidate by the general Euler step at every node.

    Applies ``feedback_controls`` on ``feedback_coefficients`` of the
    node curves (y = 0 once retired, the liquidity cap while working),
    on the same normals as the pass; returns the value, its standard
    error, and the mean wealth, consumption and face value.
    """
    sc, t, dt = g.scenario, g.grid.nodes, g.grid.step
    agg = precompute_aggregates(g, pol)
    coef = np.stack(
        feedback_coefficients(sc, agg.income_annuity, agg.tilde_f2, agg.kappa_v, g.sigma), axis=1
    )
    lam = np.asarray(sc.mortality.hazard(t))
    disc = g.survival * np.exp(-sc.delta_tilde * t)
    cap = g.bequest_factor
    levels, row = sobol_normals(cfg)

    def u(x):
        return np.maximum(x, 1e-300) ** (1.0 - sc.gamma) / (1.0 - sc.gamma)

    W, Y = np.full(cfg.n_paths, sc.W0), np.full(cfg.n_paths, sc.Y0)
    util = np.zeros(cfg.n_paths)
    mean_w, mean_c = [], []
    for k in range(cfg.n_steps):
        working = t[k] < sc.T_R
        y = Y if working else 0.0
        theta, c = feedback_controls(W, y, *coef[k])
        if working:
            c = np.where(W <= 1e-12, np.minimum(c, Y / cap[k]), c)
        mean_w.append(W.mean())
        mean_c.append(c.mean())
        util += disc[k] * cap[k] * dt * u(c)
        dz = np.sqrt(dt) * levels[row(k)]
        drift = (g.r[k] + lam[k]) * W + theta * (g.mu[k] - g.r[k]) - c * cap[k] + y
        W = np.maximum(W + drift * dt + theta * g.sigma[k] * dz, 0.0)
        Y = Y * np.exp((sc.mu_Y - 0.5 * sc.sigma_Y**2) * dt + sc.sigma_Y * dz)
    mean_w.append(W.mean())
    util += disc[-1] * u(W)
    mean_c = np.array(mean_c)
    return {
        "value": util.mean(),
        "std_error": util.std(ddof=1) / np.sqrt(cfg.n_paths),
        "mean_wealth": np.array(mean_w),
        "mean_consumption": mean_c,
        "mean_face_value": g.values[:-1] * mean_c - np.array(mean_w[:-1]),
    }


def _assert_pass_matches_the_general_step(sc, pol):
    g = compute_g(sc, UniformGrid(0.0, sc.T, 75))
    cfg = SimulationConfig(n_paths=2048, n_steps=75)
    sim = simulate_candidate_value(g, pol, cfg)
    ref = _reference_pass(g, pol, cfg)
    # the face value g c - W cancels where it crosses zero, so its
    # tolerance is relative to the largest wealth it subtracts
    tol = {"mean_face_value": 1e-12 * ref["mean_wealth"].max()}
    for name, expected in ref.items():
        close = pytest.approx(expected, rel=1e-12, abs=tol.get(name, 0.0))
        assert getattr(sim, name) == close, name


def test_general_step_reproduces_default_pass():
    # working steps apply the folded feedback rule and retired steps the
    # Merton multiply; stepping the rule itself at every node is the same
    pol = make_policy(
        "affine", (0.01, 0.0002, 0.005, 0.0, 0.01, 0.0, 0.005, 0.0), t_retire=SC.T_R
    )
    _assert_pass_matches_the_general_step(SC, pol)


@pytest.mark.parametrize("mu", [0.12, 0.01], ids=["fraction-above-1", "fraction-below-0"])
def test_retired_merton_step_matches_the_general_step(mu):
    # retired, the default pass steps W (alpha + beta dz) with theta* =
    # W clip(a, 0, 1); the Merton fraction a = (mu - r)/(gamma sigma^2)
    # is 5/3 at mu = 0.12 (theta* clipped to W) and -1/6 at mu = 0.01
    # (theta* = 0), where the general step clips W a instead
    sc = dataclasses.replace(SC, mu=CoefficientCurve.constant(mu))
    a = (sc.mu(sc.T) - sc.r(sc.T)) / (sc.gamma * sc.sigma(sc.T) ** 2)
    assert a > 1.0 if mu > 0.1 else a < 0.0
    _assert_pass_matches_the_general_step(sc, ZERO)


def test_pass_without_a_working_step_matches_the_general_step():
    # with T_R = 0 no step pays income: the candidate's first step is
    # already the Merton multiply, and the pass drops Y after node 0
    _assert_pass_matches_the_general_step(dataclasses.replace(SC, T_R=0.0), ZERO)


def test_starved_paths_stay_finite():
    poor = dataclasses.replace(preset_scenario("example1"), W0=1e-12)
    g = compute_g(poor, UniformGrid(0.0, poor.T, 100))
    res = simulate_candidate_value(
        g, ZERO, SimulationConfig(n_paths=64, n_steps=100)
    )
    assert np.isfinite(res.value)
    assert np.all(res.mean_wealth >= 0.0)
    # at the floor, consumption is capped by the liquidity rule
    lam0 = poor.mortality.hazard(0.0)
    cap0 = poor.Y0 / (1.0 + lam0 * g.values[0])
    assert res.mean_consumption[0] <= cap0 * (1.0 + 1e-12)
    # captured while the floor branch still capped the death benefit
    # beside consumption; M = c g makes capping c alone the same rule
    assert res.value == pytest.approx(-10.76735064313255, rel=1e-12)
    assert res.mean_consumption[:3] == pytest.approx(
        [28.246505715977232, 28.338830164071172, 28.47968195555211], rel=1e-12
    )
    assert res.mean_wealth[-1] == pytest.approx(131.14371321503253, rel=1e-12)


def test_weak_duality_for_sampled_policies():
    g = _g(250)
    cfg = SimulationConfig(n_paths=4000, n_steps=250)
    for i in range(3):
        pol = make_policy("affine", np.abs(init_params("affine", (21, i))), t_retire=SC.T_R)
        upper = origin_upper_bound(g, pol)
        res = simulate_candidate_value(g, pol, cfg)
        assert res.value <= upper + 3.0 * res.std_error
    for i in range(2):
        pol = make_policy("mlp", init_params("mlp", (22, i)), activation="snake")
        upper = origin_upper_bound(g, pol)
        res = simulate_candidate_value(g, pol, cfg)
        assert res.value <= upper + 3.0 * res.std_error


def test_overflowing_dual_streams_flag_the_checks_only():
    # an extreme adjustment overflows the state-price streams: the checks
    # come out NaN (without warnings) while the candidate value is finite
    sim = simulate_candidate_value(_g(100), EXTREME, SimulationConfig(n_paths=1024, n_steps=100))
    assert np.isfinite(sim.value)
    assert np.isnan(sim.budget.z_score)
    assert np.isnan(sim.martingale_z[-1][1])


def test_budget_identity_zero_adjustment_semianalytic():
    # with a zero adjustment and constant coefficients both sides of the
    # budget identity have closed forms via lognormal moments:
    #   E[pi_t c*_t] = c0 e^{-rho3 t},  E[pi_t Y_t] = Y0 e^{-rate1 t}
    rho3 = 0.02 / 1.5 + (0.5 / 1.5) * 0.02 + 0.5 * (0.5 / 1.5**2) * 0.25**2
    rate1 = 0.02 - 0.01 - 0.05 * (-0.25)
    lam = lambda s: np.exp((45.0 + s - 86.3) / 9.5) / 9.5
    cumhaz = lambda s: np.exp((45.0 + s - 86.3) / 9.5) - np.exp((45.0 - 86.3) / 9.5)
    g_an = lambda s: (1.0 - np.exp(-rho3 * (50.0 - s))) / rho3 + np.exp(-rho3 * (50.0 - s))

    f2_quad = quad(
        lambda s: np.exp(-cumhaz(s) - rho3 * s) * (1.0 + lam(s) * g_an(s)),
        0.0, 50.0, epsabs=1e-12, limit=200,
    )[0] + np.exp(-cumhaz(50.0) - rho3 * 50.0)
    ann_quad = quad(
        lambda s: np.exp(-cumhaz(s) - rate1 * s), 0.0, 20.0, epsabs=1e-12, limit=200
    )[0]
    c0 = (SC.W0 + SC.Y0 * ann_quad) / f2_quad
    lhs_exact = c0 * f2_quad
    rhs_exact = SC.W0 + SC.Y0 * ann_quad

    chk = simulate_candidate_value(
        _g(500), ZERO, SimulationConfig(n_paths=2**13, n_steps=500)
    ).budget
    # level anchors are loose (the unscrambled partial block drifts both
    # sides together by ~1 s.e.); the identity itself is the tight check
    assert chk.lhs == pytest.approx(lhs_exact, rel=5e-3)
    assert chk.rhs == pytest.approx(rhs_exact, rel=5e-3)
    assert abs(chk.lhs - chk.rhs) <= 3.0 * chk.std_error
    assert abs(chk.z_score) < 3.0


def test_budget_and_martingale_for_nonzero_adjustment():
    pol = make_policy(
        "affine", (0.01, 0.0002, 0.005, 0.0, 0.01, 0.0, 0.005, 0.0), t_retire=SC.T_R
    )
    cfg = SimulationConfig(n_paths=2**13, n_steps=500)
    sim = simulate_candidate_value(_g(500), pol, cfg)
    chk = sim.budget
    assert abs(chk.z_score) < 3.0
    zs = sim.martingale_z
    assert [t for t, _ in zs] == [12.5, 25.0, 37.5, 50.0]
    assert all(abs(z) < 3.0 for _, z in zs)


# values of the small protocol below, captured when the candidate
# simulation and the two dual verifiers still ran as separate passes
# (100 steps, where the path grid is g's grid)
FUSED_POLICY = make_policy(
    "affine", (0.01, 0.0002, 0.005, 0.0, 0.01, 0.0, 0.005, 0.0), t_retire=SC.T_R
)
FUSED_GOLDENS = {
    100: (
        -9.561666470781898,
        0.0396035632206979,
        0.23647252204497612,
        [12.5, 25.0, 37.5, 50.0],
        [0.6759861443391401, 0.8812137010537932, 1.1455284909309345, -0.21239255849925837],
    ),
}


def test_fused_pass_reproduces_reference_values():
    for n_steps, (value, se, budget_z, times, zs) in FUSED_GOLDENS.items():
        sim = simulate_candidate_value(
            _g(n_steps), FUSED_POLICY, SimulationConfig(n_paths=2**11, n_steps=n_steps)
        )
        assert sim.value == pytest.approx(value, rel=1e-12)
        assert sim.std_error == pytest.approx(se, rel=1e-12)
        assert sim.budget.z_score == pytest.approx(budget_z, rel=1e-12)
        assert [t for t, _ in sim.martingale_z] == times
        assert [z for _, z in sim.martingale_z] == pytest.approx(zs, rel=1e-12)


def _fields(sim):
    return {f.name: getattr(sim, f.name) for f in dataclasses.fields(sim)}


# 20000 paths are the desk-scale blocks, each writing 640 KB of finals
@pytest.mark.parametrize("n_paths", [2**11, 1001, 64, 20000])
def test_forked_blocks_equal_one_block(n_paths, monkeypatch):
    cfg = SimulationConfig(n_paths=n_paths, n_steps=75)
    g = _g(75)
    forked = simulate_candidate_value(g, FUSED_POLICY, cfg)
    forked_checks = dual_checks(g, FUSED_POLICY, cfg)
    monkeypatch.delattr(os, "fork")
    _assert_same_result(forked, simulate_candidate_value(g, FUSED_POLICY, cfg))
    assert forked_checks == dual_checks(g, FUSED_POLICY, cfg)


def _assert_same_result(a, b):
    """Bit equality of two entry results: ``SimulationResult``s or check tuples."""
    if not dataclasses.is_dataclass(a):
        assert a == b
        return
    a, b = _fields(a), _fields(b)
    for name, value in b.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(a[name], value), name
        else:
            assert a[name] == value, name


@pytest.mark.parametrize(
    "entry, command",
    [(simulate_candidate_value, "run"), (dual_checks, "verify")],
    ids=["candidate", "dual_checks"],
)
def test_forked_pass_holds_no_path_state_in_the_caller(entry, command, tmp_path, monkeypatch):
    # the CLI calls the pass in its forked certificate worker, so the node
    # constants, the stream, the finals and both blocks live below the CLI
    # process, which reads back only the report or the checks.  verify's
    # martingale z-scores need the 500-step grid and the default skip to pass
    n_paths, n_steps = 2**14, 500
    finals_bytes = (_INCREMENTS + len(_checkpoints(n_steps))) * n_paths * 8
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        "opt.num_starts = 2\nopt.iterations_per_start = 25\n"
        f"sim.n_paths = {n_paths}\nsim.n_steps = {n_steps}\n",
        encoding="utf-8",
    )
    argv = [command, "--config", str(run_cfg), "--out", str(tmp_path / "out"), "--seed", "0"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < finals_bytes / 8
    cfg = SimulationConfig(n_paths=2**14, n_steps=20, sobol_skip=0)
    g = _g(20)
    forked = entry(g, FUSED_POLICY, cfg)
    monkeypatch.delattr(os, "fork")
    _assert_same_result(forked, entry(g, FUSED_POLICY, cfg))


def _maps_shared_memory(a):
    """Whether ``a`` views an ``mmap``, through numpy bases and memoryviews."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return isinstance(a, mmap.mmap)


def test_path_pass_summarizes_the_one_buffer_both_blocks_wrote(monkeypatch):
    # the summaries read the shared mapping the two blocks wrote in place,
    # forked or not: every column is set (each path's utility is negative),
    # and no joined copy is made
    value, se, budget_z, times, zs = FUSED_GOLDENS[100]
    g, cfg = _g(100), SimulationConfig(n_paths=2**11, n_steps=100)

    def inspected(finals, t_nodes, w0):
        seen = _maps_shared_memory(finals), finals.shape, bool(np.all(finals[_UTIL] < 0.0))
        return seen, _dual_summary(finals, t_nodes, w0)

    monkeypatch.setattr("lifedual.lower_bound._dual_summary", inspected)
    forked = _path_pass(g, FUSED_POLICY, cfg, True)
    monkeypatch.delattr(os, "fork")
    serial = _path_pass(g, FUSED_POLICY, cfg, True)
    assert np.array_equal(forked[2], serial[2])
    assert forked[:2] + forked[3:] == serial[:2] + serial[3:]
    rows = _INCREMENTS + len(_checkpoints(cfg.n_steps))
    for mean, std_error, _, seen, (budget, martingale_z) in (forked, serial):
        assert seen == (True, (rows, cfg.n_paths), True)
        assert (mean, std_error) == pytest.approx((value, se), rel=1e-12)
        assert budget.z_score == pytest.approx(budget_z, rel=1e-12)
        assert [t for t, _ in martingale_z] == times
        assert [z for _, z in martingale_z] == pytest.approx(zs, rel=1e-12)


def test_candidate_pass_traces_no_copy_of_the_finals(monkeypatch):
    # the finals live in the shared mapping, which tracemalloc does not see;
    # one block's rows and the level table come to about one finals' worth
    # (1.3 times here), and a traced copy of the finals (a pickled block, its
    # unpickled copy, a concatenation) would add at least its own size.  The
    # whole pass runs here, where tracemalloc sees it
    monkeypatch.delattr(os, "fork")
    cfg = SimulationConfig(n_paths=2**14, n_steps=20, sobol_skip=0)
    g = _g(20)
    finals_bytes = (_INCREMENTS + len(_checkpoints(cfg.n_steps))) * cfg.n_paths * 8
    tracemalloc.start()
    try:
        simulate_candidate_value(g, FUSED_POLICY, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * finals_bytes


def _nan_theta_in(block_is_child):
    caller = os.getpid()

    def rule(W, y, *coef):
        theta, c = feedback_controls(W, y, *coef)
        # block 0 steps in the caller, block 1 in the child it forks
        assert os.getpid() == caller or os.getppid() == caller
        if (os.getpid() != caller) == block_is_child:
            theta = np.full_like(W, np.nan)
        return theta, c

    return rule


# "parent" fails block 0, in the caller that forks block 1, and "child"
# fails block 1
@pytest.mark.parametrize("block_is_child", [True, False], ids=["child", "parent"])
def test_failing_block_raises_in_caller_and_reaps_child(block_is_child, monkeypatch):
    monkeypatch.setattr("lifedual.lower_bound.feedback_controls", _nan_theta_in(block_is_child))
    with pytest.raises(NumericalError, match="non-finite wealth at step 0") as err:
        simulate_candidate_value(_g(10), ZERO, SimulationConfig(n_paths=256, n_steps=10))
    assert err.type is NumericalError
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_non_finite_initial_wealth_names_t_0():
    # node 0's check reads the initial wealth, which no step produced
    g = compute_g(dataclasses.replace(SC, W0=np.inf), UniformGrid(0.0, SC.T, 10))
    with pytest.raises(NumericalError, match=r"^non-finite initial wealth \(t=0\.0000\)$"):
        simulate_candidate_value(g, ZERO, SimulationConfig(n_paths=64, n_steps=10))


def _nan_equal(a, b):
    return np.array_equal(np.asarray(a, float), np.asarray(b, float), equal_nan=True)


@pytest.mark.parametrize("n_paths, n_steps", [(128, 100), (4096, 200)], ids=["128-paths", "forked"])
@pytest.mark.parametrize(
    "sc, pol",
    [
        (SC, ZERO),
        (SC, make_policy("affine", np.abs(init_params("affine", (21, 0))), t_retire=SC.T_R)),
        (SC, EXTREME),
        (dataclasses.replace(SC, T_R=0.0), ZERO),  # no step pays income
    ],
    ids=["zero", "sampled", "extreme", "no-working-step"],
)
def test_dual_checks_equal_the_fused_pass(sc, pol, n_paths, n_steps):
    g = compute_g(sc, UniformGrid(0.0, sc.T, n_steps))
    cfg = SimulationConfig(n_paths=n_paths, n_steps=n_steps)
    sim = simulate_candidate_value(g, pol, cfg)
    budget, martingale_z = dual_checks(g, pol, cfg)
    assert _nan_equal(dataclasses.astuple(budget), dataclasses.astuple(sim.budget))
    assert _nan_equal(martingale_z, sim.martingale_z)


def test_dual_checks_step_no_candidate(monkeypatch):
    def no_controls(*args):
        raise AssertionError("candidate controls formed")

    monkeypatch.setattr("lifedual.lower_bound.feedback_controls", no_controls)
    cfg = SimulationConfig(n_paths=4096, n_steps=50)  # forked: the child is checked too
    budget, martingale_z = dual_checks(_g(50), ZERO, cfg)
    assert np.isfinite(budget.z_score) and len(martingale_z) == 4
    with pytest.raises(AssertionError, match="candidate controls formed"):
        simulate_candidate_value(_g(50), ZERO, cfg)
