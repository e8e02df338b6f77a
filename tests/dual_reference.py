"""Reference J~ at any state and a finite-difference HJB verifier, for tests.

The package evaluates the upper bound only at the initial state
(``origin_upper_bound``).  Tests also read J~(t, W, Y) and g(t) at
other instants; both come from public calls on a grid anchored at t,
so each value is node 0 of the shipped curves and is a smooth function
of t (no interpolation kinks), as the HJB verifier needs.
"""

import numpy as np

from lifedual.closed_form import GFunction, compute_g, crra_utility, precompute_aggregates
from lifedual.drift_policy import evaluate as evaluate_policy
from lifedual.errors import ValidationError
from lifedual.market import kappa
from lifedual.quadrature import UniformGrid


def _anchored(g: GFunction, t: float) -> GFunction:
    """g of ``g``'s scenario and size on [t, T]."""
    scenario = g.scenario
    return compute_g(scenario, UniformGrid(float(t), scenario.T, g.grid.n_intervals))


def g_value(g: GFunction, t: float) -> float:
    """g at one instant, from a grid of ``g``'s size anchored at t (no interpolation)."""
    if not 0 <= t <= g.scenario.T:
        raise ValidationError("t outside [0, T]")
    return float(_anchored(g, t).values[0])


def upper_bound(g: GFunction, policy, t: float, W: float, Y: float = 0.0) -> float:
    """Upper bound J~(t, W, Y) = u(W + Y ann(t)) F2~(t)^gamma, t in [0, T].

    Node 0 of ``precompute_aggregates`` on a g anchored at t.  From T_R
    on the income annuity is empty, so Y drops out and the value is the
    retirement value V_R(t, W); at t = T F2~ = 1 and it reduces to the
    terminal utility u(W).
    """
    scenario = g.scenario
    if not 0 <= t <= scenario.T:
        raise ValidationError("upper-bound value requires t in [0, T]")
    if W <= 0:
        raise ValidationError("W must be positive")
    if Y < 0:
        raise ValidationError("Y must be nonnegative")
    agg = precompute_aggregates(_anchored(g, t), policy)
    gam = scenario.gamma
    return float(crra_utility(W + Y * agg.income_annuity[0], gam) * agg.tilde_f2[0] ** gam)


def hjb_residual(kind: str, value_fn, point, g: GFunction, policy=None) -> float:
    """Normalized HJB residual of a value-function closure at a point.

    One equation in (t, W, Y) covers the three phases of ``kind``:

        0 = -(lam+dt~) V + V_t + V_W ((r+lam+v0) W + Y) + V_Y mu_Y Y
            + V_YY sigma_Y^2 Y^2/2 - (V_W kappa_v - V_WY sigma_Y Y)^2/(2 V_WW)
            + g/(1-g) (1+lam g(t)) V_W^((g-1)/g)

    "working" takes value_fn(t, W, Y) on [0, T_R] with Y > 0;
    "retirement" takes value_fn(t, W) on [T_R, T] (Y = 0); "bequest"
    takes value_fn(t, W) on [0, T] with lam = v = Y = 0.  The scenario
    and the grid size of g(t) are ``g``'s.  Derivatives are central
    finite differences of the closure (relative steps 1e-5), so the
    check exercises the shipped evaluation path end to end; the
    residual is the terms' sum over the largest term magnitude.

    The support-function term is zero for the exercised (cone)
    constraints.  Interior points only: t must stay clear of the domain
    ends by the differencing step.  v must be continuous over [0, T_R]:
    an anchored-grid closure integrates across T_R, where a jump of v
    leaves a trapezoid error O(h * jump) that moves with t and so
    breaks every working-phase point, not only those near T_R.
    """
    sc = g.scenario
    phases = {  # kind: (domain, mortality and adjustment apply, income applies)
        "bequest": (0.0, sc.T, False, False),
        "retirement": (sc.T_R, sc.T, True, False),
        "working": (0.0, sc.T_R, True, True),
    }
    if kind not in phases:
        raise ValidationError(f"unknown HJB kind {kind!r}")
    lo, hi, insured, working = phases[kind]
    if working:
        t, W, Y = point
        f = value_fn
    else:
        (t, W), Y = point, 0.0
        f = lambda tt, ww, yy: value_fn(tt, ww)

    h_t = 1e-5 * sc.T
    h_w = 1e-5 * max(1.0, abs(W))
    if not (lo + h_t < t < hi - h_t) or W <= h_w:
        raise ValidationError("HJB residual requires an interior point")
    if working and Y <= 0:
        raise ValidationError("working-phase residual requires Y > 0")

    V = f(t, W, Y)
    if working:
        # With capitalized income the value varies on the scale of total
        # implied wealth, not W alone, so a W-step taken from |W| makes
        # the second difference cancel to roundoff when income dominates.
        # First differences stay well-conditioned at the naive step, so
        # probe the slope once and re-step from the value's own scale.
        slope = (f(t, W + h_w, Y) - f(t, W - h_w, Y)) / (2.0 * h_w)
        if np.isfinite(slope) and slope != 0.0:
            h_w = min(1e-5 * max(1.0, abs(W), abs(V / slope)), 0.5 * W)
    V_t = (f(t + h_t, W, Y) - f(t - h_t, W, Y)) / (2.0 * h_t)
    w_up, w_dn = f(t, W + h_w, Y), f(t, W - h_w, Y)
    V_w = (w_up - w_dn) / (2.0 * h_w)
    V_ww = (w_up - 2.0 * V + w_dn) / (h_w * h_w)
    V_y = V_yy = V_wy = 0.0
    if working:
        h_y = 1e-5 * max(1.0, abs(Y))
        y_up, y_dn = f(t, W, Y + h_y), f(t, W, Y - h_y)
        V_y = (y_up - y_dn) / (2.0 * h_y)
        V_yy = (y_up - 2.0 * V + y_dn) / (h_y * h_y)
        V_wy = (
            f(t, W + h_w, Y + h_y)
            - f(t, W + h_w, Y - h_y)
            - f(t, W - h_w, Y + h_y)
            + f(t, W - h_w, Y - h_y)
        ) / (4.0 * h_w * h_y)

    lam = g_t = v0 = vm = 0.0
    if insured:
        lam = float(sc.mortality.hazard(t))
        g_t = g_value(g, t)
        if policy is not None:
            v0, vm = (float(x) for x in evaluate_policy(policy, t, horizon=sc.T))
    r = float(sc.r(t))
    kv = float(kappa(sc, t, v0, vm))
    gam = sc.gamma
    terms = np.array(
        [
            -(lam + sc.delta_tilde) * V,
            V_t,
            V_w * ((r + lam + v0) * W + Y),
            V_y * sc.mu_Y * Y,
            0.5 * V_yy * sc.sigma_Y**2 * Y**2,
            -0.5 * (V_w * kv - V_wy * sc.sigma_Y * Y) ** 2 / V_ww,
            gam / (1.0 - gam) * (1.0 + lam * g_t) * V_w ** ((gam - 1.0) / gam),
        ]
    )
    return float(terms.sum() / np.max(np.abs(terms)))
