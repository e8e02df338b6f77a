"""Closed-form values vs independent quadrature oracles and HJB residuals.

The oracle integrals below are written directly from the value-function
definitions with plain Gompertz formulas and adaptive quadrature, not
through the package's prefix-trapezoid machinery, so agreement checks
the whole aggregate pipeline.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from lifedual.closed_form import (
    compute_g,
    crra_utility,
    feedback_coefficients,
    feedback_controls,
    origin_upper_bound,
    precompute_aggregates,
)
from lifedual.drift_policy import make_policy
from lifedual.errors import ValidationError
from lifedual.market import preset_scenario
from lifedual.quadrature import UniformGrid

from dual_reference import g_value, hjb_residual, upper_bound

SC = preset_scenario("example1")
ZERO = make_policy("affine", (0.0,) * 8, t_retire=SC.T_R)
# a time-varying adjustment, positive and continuous at T_R = 20:
# a5 = a1 + 20 (a2 - a6) and a7 = a3 + 20 (a4 - a8)
ADJUSTED = make_policy(
    "affine",
    (0.02, 5e-4, 0.01, 2e-4, 0.02 + 20 * 6e-4, -1e-4, 0.01 + 20 * 1e-4, 1e-4),
    t_retire=SC.T_R,
)

# constant-coefficient aggregates for the preset: kappa_0 = -0.25 and
# rho = delta~/gamma + (gamma-1)/gamma r + (gamma-1)/(2 gamma^2) kappa^2
RHO = 0.02 / 1.5 + (0.5 / 1.5) * 0.02 + 0.5 * (0.5 / 1.5**2) * 0.25**2


def _lam(s):
    return np.exp((45.0 + s - 86.3) / 9.5) / 9.5


def _cumhaz(t1, t2):
    return np.exp((45.0 + t2 - 86.3) / 9.5) - np.exp((45.0 + t1 - 86.3) / 9.5)


def _g_analytic(t, T=50.0):
    tau = T - t
    return (1.0 - np.exp(-RHO * tau)) / RHO + np.exp(-RHO * tau)


def _f2_oracle(t):
    integrand = lambda s: (
        np.exp(-_cumhaz(t, s) - RHO * (s - t)) * (1.0 + _lam(s) * _g_analytic(s))
    )
    val, err = quad(integrand, t, 50.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return val + np.exp(-_cumhaz(t, 50.0) - RHO * (50.0 - t))


def _annuity_oracle(t):
    rate1 = 0.02 - 0.01 - 0.05 * (-0.25)
    integrand = lambda s: np.exp(-_cumhaz(t, s) - rate1 * (s - t))
    val, err = quad(integrand, t, 20.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return val


def test_crra_examples():
    assert crra_utility(4.0, 1.5) == pytest.approx(-1.0, abs=1e-15)


def test_g_terminal_node_is_exactly_one():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    assert g.values[-1] == 1.0
    assert np.all(g.values > 0)


def test_g_matches_constant_coefficient_analytic_form():
    fine = compute_g(SC, UniformGrid(0.0, SC.T, 4000))
    assert g_value(fine, 0.0) == pytest.approx(_g_analytic(0.0), rel=1e-7)
    assert g_value(fine, 32.5) == pytest.approx(_g_analytic(32.5), rel=1e-7)
    # pinned desk-grid value so coarse-grid drift is caught early
    desk = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    assert g_value(desk, 0.0) == pytest.approx(27.725727871765223, abs=1e-12)
    with pytest.raises(ValidationError):
        g_value(desk, -0.5)


def test_g_needs_a_grid_ending_at_the_horizon():
    # a g on [0, 30] for T = 50 used to make a finite, wrong objective
    with pytest.raises(ValidationError, match="horizon"):
        compute_g(SC, UniformGrid(0.0, 30.0, 100))


def test_aggregates_match_quadrature_oracles():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 4000))
    agg = precompute_aggregates(g, ZERO)
    assert agg.tilde_f2[0] == pytest.approx(_f2_oracle(0.0), rel=1e-6)
    assert agg.income_annuity[0] == pytest.approx(_annuity_oracle(0.0), rel=1e-6)
    # annuity is exhausted at retirement
    i_tr = int(round(SC.T_R / SC.T * 4000))
    assert agg.income_annuity[i_tr] == pytest.approx(0.0, abs=1e-12)


def test_origin_value_matches_quadrature_oracle():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 4000))
    f3 = SC.W0 + SC.Y0 * _annuity_oracle(0.0)
    oracle = crra_utility(f3, 1.5) * _f2_oracle(0.0) ** 1.5
    assert origin_upper_bound(g, ZERO) == pytest.approx(oracle, rel=1e-6)
    coarse = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    assert origin_upper_bound(coarse, ZERO) == pytest.approx(oracle, rel=2e-3)


def test_retirement_value_matches_quadrature_oracle():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 4000))
    ub = upper_bound(g, ZERO, 25.0, 150.0)
    oracle = crra_utility(150.0, 1.5) * _f2_oracle(25.0) ** 1.5
    assert ub == pytest.approx(oracle, rel=1e-6)


def test_terminal_retirement_value_is_bare_utility():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    ub = upper_bound(g, ZERO, SC.T, 123.0)
    assert ub == pytest.approx(crra_utility(123.0, 1.5), rel=1e-14)
    agg = precompute_aggregates(compute_g(SC, UniformGrid(SC.T, SC.T, 100)), ZERO)
    assert agg.tilde_f2[0] == pytest.approx(1.0, abs=1e-14)


def test_value_homogeneity_in_wealth_and_income():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    k = 3.7
    vr1 = upper_bound(g, ZERO, 30.0, 100.0)
    vrk = upper_bound(g, ZERO, 30.0, k * 100.0)
    assert vrk == pytest.approx(k ** (1.0 - 1.5) * vr1, rel=1e-12)
    jw1 = upper_bound(g, ZERO, 10.0, 100.0, 40.0)
    jwk = upper_bound(g, ZERO, 10.0, k * 100.0, k * 40.0)
    assert jwk == pytest.approx(k ** (1.0 - 1.5) * jw1, rel=1e-12)


def test_working_value_pastes_onto_retirement_branch():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    w = upper_bound(g, ZERO, SC.T_R, 140.0, 50.0)
    r = upper_bound(g, ZERO, SC.T_R, 140.0)
    assert w == r  # annuity empty at the breakpoint
    # from T_R on the income drops out of the value
    for t in (SC.T_R, 30.0, SC.T):
        retired = upper_bound(g, ZERO, t, 140.0)
        assert all(upper_bound(g, ZERO, t, 140.0, y) == retired for y in (0.0, 50.0, 1e6))


def test_phase_domain_validation():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    for t, W, Y in (
        (-0.5, 100.0, 50.0),
        (SC.T + 0.5, 100.0, 0.0),
        (10.0, -5.0, 50.0),
        (10.0, 0.0, 50.0),
        (10.0, 100.0, -1.0),
    ):
        with pytest.raises(ValidationError):
            upper_bound(g, ZERO, t, W, Y)


def _controls_at(g, policy, t, W, Y=0.0):
    """(theta*, c*, M*) at one state, from aggregates on a grid anchored at t."""
    anchored = compute_g(SC, UniformGrid(t, SC.T, g.grid.n_intervals))
    agg = precompute_aggregates(anchored, policy)
    y = Y if t < SC.T_R else 0.0
    theta, c = feedback_controls(
        W, y, *feedback_coefficients(
            SC, agg.income_annuity[0], agg.tilde_f2[0], agg.kappa_v[0], SC.sigma(t)
        )
    )
    return theta, c, c * anchored.values[0]


def test_feedback_strategy_examples():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    # retired, zero adjustment: theta = -W kappa/(gamma sigma) = W*0.25/0.3
    theta, _, _ = _controls_at(g, ZERO, 30.0, 200.0)
    assert theta == pytest.approx(200.0 * 0.25 / 0.3, rel=1e-12)
    # kappa_v = 0 makes the stock position vanish
    flat = make_policy("affine", (0.05, 0, 0, 0, 0.05, 0, 0, 0), t_retire=SC.T_R)
    assert _controls_at(g, flat, 30.0, 200.0)[0] == 0.0
    # a large stock-drift adjustment pushes the demand past W -> clamped
    steep = make_policy("affine", (0, 0, 0.1, 0, 0, 0, 0.1, 0), t_retire=SC.T_R)
    assert _controls_at(g, steep, 30.0, 200.0)[0] == 200.0
    # at zero wealth the clamp leaves no stock position
    assert _controls_at(g, ZERO, 30.0, 0.0)[0] == 0.0


def test_insurance_scales_consumption_by_g():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    for t, W, Y in ((5.0, 180.0, 50.0), (35.0, 90.0, 0.0)):
        _, c_star, m_star = _controls_at(g, ZERO, t, W, Y)
        assert m_star / c_star == pytest.approx(g_value(g, t), rel=1e-12)


def test_hjb_residual_spot_checks():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 400))

    bequest = lambda t, W: crra_utility(W, 1.5) * g_value(g, t) ** 1.5
    assert abs(hjb_residual("bequest", bequest, (12.3, 80.0), g)) < 1e-4

    retire = lambda t, W: upper_bound(g, ZERO, t, W)
    assert abs(hjb_residual("retirement", retire, (31.7, 150.0), g, ZERO)) < 1e-4

    working = lambda t, W, Y: upper_bound(g, ZERO, t, W, Y)
    assert abs(hjb_residual("working", working, (8.9, 120.0, 40.0), g, ZERO)) < 1e-4


def test_hjb_residual_with_a_time_varying_adjustment():
    # exercises the v0 and v_minus terms, which the zero policy leaves at 0
    g = compute_g(SC, UniformGrid(0.0, SC.T, 400))
    rng = np.random.default_rng(2024)
    retire = lambda t, W: upper_bound(g, ADJUSTED, t, W)
    working = lambda t, W, Y: upper_bound(g, ADJUSTED, t, W, Y)
    for _ in range(20):
        p = (rng.uniform(21.0, 49.0), rng.uniform(10.0, 300.0))
        assert abs(hjb_residual("retirement", retire, p, g, ADJUSTED)) < 1e-4
    for _ in range(20):
        p = (rng.uniform(1.0, 19.0), rng.uniform(10.0, 300.0), rng.uniform(5.0, 100.0))
        assert abs(hjb_residual("working", working, p, g, ADJUSTED)) < 1e-4


def test_hjb_residual_flags_wrong_value_functions():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 400))
    # values of the adjusted market, checked against the unadjusted equation
    retire = lambda t, W: upper_bound(g, ADJUSTED, t, W)
    assert abs(hjb_residual("retirement", retire, (30.0, 150.0), g)) > 1e-3
    working = lambda t, W, Y: upper_bound(g, ADJUSTED, t, W, Y)
    assert abs(hjb_residual("working", working, (8.0, 120.0, 40.0), g)) > 1e-3
    # a bequest value with the wrong power of g
    bequest = lambda t, W: crra_utility(W, 1.5) * g_value(g, t) ** 1.4
    assert abs(hjb_residual("bequest", bequest, (12.3, 80.0), g)) > 1e-3


def test_hjb_residual_argument_validation():
    g = compute_g(SC, UniformGrid(0.0, SC.T, 100))
    bequest = lambda t, W: crra_utility(W, 1.5) * g_value(g, t) ** 1.5
    with pytest.raises(ValidationError):
        hjb_residual("unknown", bequest, (10.0, 80.0), g)
    with pytest.raises(ValidationError):
        hjb_residual("bequest", bequest, (0.0, 80.0), g)  # boundary point
    working = lambda t, W, Y: upper_bound(g, ZERO, t, W, Y)
    with pytest.raises(ValidationError):
        hjb_residual("working", working, (8.9, 120.0, 0.0), g, ZERO)
