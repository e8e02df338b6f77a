"""Scenario curves, adjusted price of risk, kernel moments, validation."""

import numpy as np
import pytest

from lifedual.errors import ValidationError
from lifedual.lower_bound import SimulationConfig, sobol_normals
from lifedual.market import (
    CoefficientCurve,
    MarketScenario,
    kappa,
    preset_scenario,
    validate,
)


def test_constant_preset_kappa():
    sc = preset_scenario("example1")
    # -(0.07 - 0.02)/0.2
    assert kappa(sc, 0.0) == pytest.approx(-0.25, abs=1e-15)
    assert kappa(sc, 37.2) == pytest.approx(-0.25, abs=1e-15)


def test_kappa_vanishes_when_adjustment_offsets_spread():
    sc = preset_scenario("example1")
    assert kappa(sc, 3.0, v0=0.05, v_minus=0.0) == pytest.approx(0.0, abs=1e-15)


def test_sinusoid_preset_kappa_at_pi():
    sc = preset_scenario("example2")
    # mu(pi) = 0.07 + 0.03*sin(pi/2) = 0.10
    assert kappa(sc, np.pi) == pytest.approx(-0.4, abs=1e-12)


def test_kappa_rejects_degenerate_volatility():
    sc = preset_scenario("example1")
    bad = MarketScenario(
        r=sc.r,
        mu=sc.mu,
        sigma=CoefficientCurve.constant(0.0),
        mu_Y=sc.mu_Y,
        sigma_Y=sc.sigma_Y,
        Y0=sc.Y0,
        W0=sc.W0,
        gamma=sc.gamma,
        delta_tilde=sc.delta_tilde,
        T_R=sc.T_R,
        T=sc.T,
        mortality=sc.mortality,
    )
    with pytest.raises(ValidationError):
        kappa(bad, 1.0)


def _log_kernel_increment(sc, t, dt, dZ):
    # Euler increment of log pi with v = 0: -r dt + kappa dZ - kappa^2/2 dt
    k = kappa(sc, t)
    return -sc.r(t) * dt + k * dZ - 0.5 * k * k * dt


def test_state_price_kernel_is_unbiased_under_qmc():
    # E[pi_t] = beta_t * E[ksi_t] with E[ksi_t] = 1: accumulate Euler
    # log-increments to t=1 over QMC paths and compare
    sc = preset_scenario("example1")
    cfg = SimulationConfig(n_paths=2**14, n_steps=20, sobol_skip=0)
    dt = 1.0 / cfg.n_steps
    levels, row = sobol_normals(cfg)
    index = np.stack([row(k) for k in range(cfg.n_steps)])
    dZ = levels[index].T * np.sqrt(dt)
    log_pi = np.zeros(cfg.n_paths)
    for k in range(cfg.n_steps):
        log_pi += _log_kernel_increment(sc, k * dt, dt, dZ[:, k])
    xi = np.exp(log_pi + 0.02 * 1.0)  # strip beta = e^{-rt}
    se = xi.std(ddof=1) / np.sqrt(cfg.n_paths)
    assert abs(xi.mean() - 1.0) < 3 * se


def test_accumulated_log_kernel_moments():
    # with v=0 and constant coefficients, log pi over [0,t] is normal
    # with mean -(r + kappa^2/2)t and variance kappa^2 t
    sc = preset_scenario("example1")
    t = 1.0
    cfg = SimulationConfig(n_paths=2**14, n_steps=20)
    dt = t / cfg.n_steps
    levels, row = sobol_normals(cfg)
    index = np.stack([row(k) for k in range(cfg.n_steps)])
    dZ = levels[index].T * np.sqrt(dt)
    log_pi = np.zeros(cfg.n_paths)
    for k in range(cfg.n_steps):
        log_pi += _log_kernel_increment(sc, k * dt, dt, dZ[:, k])
    mean_expected = -(0.02 + 0.5 * 0.25**2) * t
    var_expected = 0.25**2 * t
    assert abs(log_pi.mean() - mean_expected) < 0.01 * abs(mean_expected)
    assert abs(log_pi.var(ddof=1) - var_expected) < 0.01 * var_expected


def test_curve_shapes():
    const = CoefficientCurve.constant(0.02)
    assert const(np.array([0.0, 10.0])).tolist() == [0.02, 0.02]
    sin = CoefficientCurve.sinusoid(0.07, 0.03, 0.5)
    assert sin(np.pi) == pytest.approx(0.10, abs=1e-15)
    table = CoefficientCurve.from_table([(0.0, 1.0), (2.0, 3.0)])
    assert table(1.0) == pytest.approx(2.0)
    assert table(5.0) == pytest.approx(3.0)  # flat extrapolation
    with pytest.raises(ValidationError):
        CoefficientCurve.from_table([])
    with pytest.raises(ValidationError):
        CoefficientCurve.from_table([(0.0, 1.0), (0.0, 2.0)])


def test_validate_passes_base_parameters():
    assert validate(preset_scenario("example1")).passed
    assert validate(preset_scenario("example2")).passed


def _with(sc, **kw):
    from dataclasses import replace

    return replace(sc, **kw)


def test_validate_flags_income_volatility():
    sc = _with(preset_scenario("example1"), sigma_Y=0.3)
    report = validate(sc)
    assert not report.passed
    assert any(name == "income_vol_dominated" for name, _ in report.failures)


def test_validate_sharpe_boundary_is_non_strict():
    # mu_Y/sigma_Y = 0.007/0.02 = 0.35 = mu/sigma exactly -> pass
    sc = _with(preset_scenario("example1"), mu_Y=0.007, sigma_Y=0.02)
    assert validate(sc).passed
    # nudge over the boundary -> fail
    sc = _with(preset_scenario("example1"), mu_Y=0.0071, sigma_Y=0.02)
    report = validate(sc)
    assert any(name == "income_sharpe_dominated" for name, _ in report.failures)


def test_validate_flags_horizons_and_wealth():
    sc = preset_scenario("example1")
    assert not validate(_with(sc, T_R=50.0)).passed
    assert ("horizon_order", -5.0) in validate(_with(sc, T_R=-5.0)).failures
    assert validate(_with(sc, T_R=0.0)).passed
    assert not validate(_with(sc, W0=0.0)).passed
    assert not validate(_with(sc, gamma=0.8)).passed


def test_validate_reports_first_violation_time():
    # sinusoidal drift dipping below the income Sharpe bound mid-course
    sc = _with(
        preset_scenario("example2"),
        mu_Y=0.012,
        sigma_Y=0.05,
    )
    # mu/sigma dips to (0.07-0.03)/0.2 = 0.2 < 0.24 at sin(t/2) = -1
    report = validate(sc)
    names = [name for name, _ in report.failures]
    assert "income_sharpe_dominated" in names
    t_bad = dict(report.failures)["income_sharpe_dominated"]
    assert 0.0 < t_bad < 50.0


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name", ["mu_Y", "sigma_Y", "Y0", "W0", "gamma", "delta_tilde", "T_R", "T"]
)
def test_validate_rejects_non_finite_scalar(name, value):
    report = validate(_with(preset_scenario("example1"), **{name: value}))
    assert not report.passed
    assert (f"{name}_finite", 0.0) in report.failures


@pytest.mark.parametrize("name", ["r", "mu", "sigma"])
def test_validate_rejects_non_finite_curve(name):
    curve = CoefficientCurve.from_table([(0.0, 0.05), (10.0, float("nan"))])
    report = validate(_with(preset_scenario("example1"), **{name: curve}))
    assert not report.passed
    t_bad = dict(report.failures)[f"{name}_finite"]
    assert 0.0 < t_bad <= 10.0
