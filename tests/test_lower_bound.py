"""Sobol driver, candidate simulation, and dual-identity verifiers."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from lifedual.closed_form import compute_g, origin_upper_bound, precompute_aggregates
from lifedual.drift_policy import AffinePolicy, init_params, make_policy
from lifedual.errors import ValidationError
from lifedual.lower_bound import (
    SimulationConfig,
    simulate_candidate_value,
    sobol_normals,
)
from lifedual.market import preset_scenario
from lifedual.quadrature import UniformGrid

SC = preset_scenario("example1")
ZERO = AffinePolicy(params=(0.0,) * 8, t_retire=SC.T_R)


def _g100():
    return compute_g(SC, UniformGrid(0.0, SC.T, 100))


def test_sobol_first_points_dimension_one():
    cfg = SimulationConfig(n_paths=3, n_steps=1, sobol_skip=0)
    z = sobol_normals(cfg)
    # the radical-inverse sequence starts 1/2, 3/4, 1/4 after the origin
    ref = [0.0, 0.6744897501960817, -0.6744897501960817]
    assert z[:, 0] == pytest.approx(ref, abs=1e-12)


def test_sobol_moments_per_dimension():
    cfg = SimulationConfig(n_paths=2**14, n_steps=8)
    z = sobol_normals(cfg)
    assert z.shape == (2**14, 8)
    assert np.all(np.abs(z.mean(axis=0)) < 0.01)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 0.01)


def test_sobol_dimension_validation():
    with pytest.raises(ValidationError):
        sobol_normals(SimulationConfig(n_paths=4, n_steps=0))
    with pytest.raises(ValidationError):
        sobol_normals(SimulationConfig(n_paths=4, n_steps=30000))


def test_simulation_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(n_paths=1)
    with pytest.raises(ValidationError):
        SimulationConfig(n_steps=0)
    with pytest.raises(ValidationError):
        SimulationConfig(sobol_skip=-1)


def test_simulation_is_deterministic():
    g = _g100()
    cfg = SimulationConfig(n_paths=512, n_steps=50)
    a = simulate_candidate_value(SC, g, ZERO, cfg)
    b = simulate_candidate_value(SC, g, ZERO, cfg)
    assert a.value == b.value
    assert np.array_equal(a.mean_wealth, b.mean_wealth)
    c = simulate_candidate_value(
        SC, g, ZERO, SimulationConfig(n_paths=512, n_steps=50, sobol_skip=0)
    )
    assert c.value != a.value


def test_std_error_scales_with_path_count():
    g = _g100()
    small = simulate_candidate_value(SC, g, ZERO, SimulationConfig(n_paths=2000, n_steps=100))
    large = simulate_candidate_value(SC, g, ZERO, SimulationConfig(n_paths=8000, n_steps=100))
    assert 1.7 < small.std_error / large.std_error < 2.3


def test_initial_controls_match_closed_form():
    g = _g100()
    cfg = SimulationConfig(n_paths=256, n_steps=50)
    res = simulate_candidate_value(SC, g, ZERO, cfg)
    agg = precompute_aggregates(SC, g, ZERO)
    c0 = (SC.W0 + SC.Y0 * agg.income_annuity[0]) / agg.tilde_f2[0]
    assert res.mean_consumption[0] == pytest.approx(c0, rel=1e-12)
    assert res.mean_face_value[0] == pytest.approx(c0 * agg.g[0] - SC.W0, rel=1e-10)
    assert res.mean_face_value[0] > 0
    assert res.mean_wealth[0] == SC.W0
    assert res.times[0] == 0.0 and res.times[-1] == SC.T


def test_income_stops_at_retirement():
    g = _g100()
    seen = []

    def override(t, W, y):
        seen.append((t, np.max(np.asarray(y))))
        c = np.full_like(W, 1.0)
        return np.zeros_like(W), c, c * 30.0

    simulate_candidate_value(
        SC, g, ZERO, SimulationConfig(n_paths=64, n_steps=10, sobol_skip=0),
        controls_override=override,
    )
    for t, ymax in seen:
        assert (ymax > 0) == (t < SC.T_R)


def test_zero_stock_half_spend_override_grows_wealth():
    # theta = 0 and c(1 + lam g) at half the financing inflow leave a
    # strictly positive riskless drift, so mean wealth must increase
    g = _g100()

    def override(t, W, y):
        lam = SC.mortality.hazard(t)
        c = ((SC.r(t) + lam) * W + y) / (2.0 * (1.0 + lam * g(t)))
        return np.zeros_like(W), c, c * g(t)

    res = simulate_candidate_value(
        SC, g, ZERO, SimulationConfig(n_paths=128, n_steps=200),
        controls_override=override,
    )
    assert np.all(np.diff(res.mean_wealth) > 0)
    assert res.value < 0  # CRRA gamma > 1 keeps utility negative


def test_starved_paths_stay_finite():
    poor = dataclasses.replace(preset_scenario("example1"), W0=1e-12)
    g = compute_g(poor, UniformGrid(0.0, poor.T, 100))
    res = simulate_candidate_value(
        poor, g, ZERO, SimulationConfig(n_paths=64, n_steps=100)
    )
    assert np.isfinite(res.value)
    assert np.all(res.mean_wealth >= 0.0)
    # at the floor, consumption is capped by the liquidity rule
    lam0 = poor.mortality.hazard(0.0)
    cap0 = poor.Y0 / (1.0 + lam0 * g(0.0))
    assert res.mean_consumption[0] <= cap0 * (1.0 + 1e-12)


def test_weak_duality_for_sampled_policies():
    g = _g100()
    cfg = SimulationConfig(n_paths=4000, n_steps=250)
    for i in range(3):
        pol = make_policy("affine", np.abs(init_params("affine", (21, i))), t_retire=SC.T_R)
        upper = origin_upper_bound(SC, g, pol)
        res = simulate_candidate_value(SC, g, pol, cfg)
        assert res.value <= upper + 3.0 * res.std_error
    for i in range(2):
        pol = make_policy("mlp", init_params("mlp", (22, i)), activation="snake")
        upper = origin_upper_bound(SC, g, pol)
        res = simulate_candidate_value(SC, g, pol, cfg)
        assert res.value <= upper + 3.0 * res.std_error


def test_overflowing_dual_streams_flag_the_checks_only():
    # an extreme adjustment overflows the state-price streams: the checks
    # come out NaN (without warnings) while the candidate value is finite
    pol = make_policy(
        "affine", np.abs(init_params("affine", (100, 1), affine_std=0.03)), t_retire=SC.T_R
    )
    sim = simulate_candidate_value(SC, _g100(), pol, SimulationConfig(n_paths=1024, n_steps=100))
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

    g = compute_g(SC, UniformGrid(0.0, SC.T, 250))
    chk = simulate_candidate_value(
        SC, g, ZERO, SimulationConfig(n_paths=2**13, n_steps=500)
    ).budget
    # level anchors are loose (the unscrambled partial block drifts both
    # sides together by ~1 s.e.); the identity itself is the tight check
    assert chk.lhs == pytest.approx(lhs_exact, rel=5e-3)
    assert chk.rhs == pytest.approx(rhs_exact, rel=5e-3)
    assert abs(chk.lhs - chk.rhs) <= 3.0 * chk.std_error
    assert abs(chk.z_score) < 3.0


def test_budget_and_martingale_for_nonzero_adjustment():
    pol = AffinePolicy(
        params=(0.01, 0.0002, 0.005, 0.0, 0.01, 0.0, 0.005, 0.0), t_retire=SC.T_R
    )
    g = compute_g(SC, UniformGrid(0.0, SC.T, 250))
    cfg = SimulationConfig(n_paths=2**13, n_steps=500)
    sim = simulate_candidate_value(SC, g, pol, cfg)
    chk = sim.budget
    assert abs(chk.z_score) < 3.0
    zs = sim.martingale_z
    assert [t for t, _ in zs] == [12.5, 25.0, 37.5, 50.0]
    assert all(abs(z) < 3.0 for _, z in zs)


def test_fused_pass_reproduces_reference_values():
    # values of the small protocol below, captured when the candidate
    # simulation and the two dual verifiers still ran as separate passes
    pol = AffinePolicy(
        params=(0.01, 0.0002, 0.005, 0.0, 0.01, 0.0, 0.005, 0.0), t_retire=SC.T_R
    )
    sim = simulate_candidate_value(
        SC, _g100(), pol, SimulationConfig(n_paths=2**11, n_steps=100)
    )
    assert sim.value == pytest.approx(-9.561666470781898, rel=1e-12)
    assert sim.std_error == pytest.approx(0.0396035632206979, rel=1e-12)
    assert sim.budget.z_score == pytest.approx(0.23647252204497612, rel=1e-12)
    assert [t for t, _ in sim.martingale_z] == [12.5, 25.0, 37.5, 50.0]
    assert [z for _, z in sim.martingale_z] == pytest.approx(
        [0.6759861443391401, 0.8812137010537932, 1.1455284909309345, -0.21239255849925837],
        rel=1e-12,
    )
