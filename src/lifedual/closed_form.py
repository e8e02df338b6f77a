"""Closed-form value functions, feedback strategies, and HJB verifiers.

For a deterministic drift adjustment v(t) = (v0(t), v_minus(t)) the
value of the adjusted (unconstrained) market is available in closed
form, and minimizing it over v yields a certified upper bound for the
constrained problem.  With CRRA utility u(c) = c^(1-gamma)/(1-gamma)
the value functions factor into powers of two aggregates:

* post-death (bequest) value     V_B(t, M) = u(M) * g(t)^gamma,
* retirement phase               V_R(t, W) = u(F1~) * F2~(t)^gamma,
* working phase                  J~(t, W, Y) = u(F3~) * F2~(t)^gamma,

where, writing kappa_v for the adjusted price of risk, lam for the
force of mortality, and dt~ for the subjective discount,

    F_B(tau, s)  = exp(-((g-1)/g)∫_0^tau r(s-u) du
                        - (1/2)((g-1)/g^2)∫_0^tau kappa_0(s-u)^2 du),
    g(t)   = ∫_t^T e^{-(dt~/g)(s-t)} F_B(s-t, s) ds + e^{-(dt~/g)(T-t)} F_B(T-t, T),
    F_3(tau, s)  = same as F_B with r+v0 and kappa_v,
    F2~(t) = ∫_t^T e^{-∫_t^s lam} e^{-(dt~/g)(s-t)} (1 + lam(s) g(s)) F_3(s-t, s) ds
             + e^{-∫_t^T lam} e^{-(dt~/g)(T-t)} F_3(T-t, T),
    F_1(tau, s)  = exp(mu_Y tau - ∫_0^tau (r+v0)(s-u) du + sigma_Y ∫_0^tau kappa_v(s-u) du),
    ann(t) = ∫_t^{T_R} e^{-∫_t^s lam} F_1(s-t, s) ds        (income annuity),
    F3~(t, W, Y) = W + Y * ann(t),   F1~ = W  (zero support function).

Every inner integral ∫_0^{s-t} q(s-u) du equals a difference of prefix
integrals Q(s) - Q(t) on one shared grid, so all aggregate curves come
out of cumulative-trapezoid tables in O(n).  Point evaluations at
arbitrary t rebuild the tables on a grid anchored at t (same cost),
which keeps finite-difference HJB verification clean; the simulator
instead interpolates the precomputed curves linearly (documented fast
path, error O(h^2), consistent with the trapezoid order).

The optimal feedback controls attached to the upper bound are

    theta* = min{ max{ -F3~ kappa_v/(gamma sigma) - (sigma_Y/sigma) Y ann, 0 }, W },
    c*     = F3~/F2~,       M* = c* g(t),

with face value M* - W (insurance purchased at rate lam*(M*-W)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drift_policy import evaluate as evaluate_policy
from .errors import ValidationError
from .market import MarketScenario, kappa
from .quadrature import UniformGrid, prefix_trapezoid, prefix_value_at

__all__ = [
    "GFunction",
    "DualAggregates",
    "UpperBoundValue",
    "FeedbackStrategy",
    "crra_utility",
    "crra_dual_inverse",
    "compute_g",
    "g_value",
    "precompute_aggregates",
    "origin_upper_bound",
    "upper_bound_working",
    "upper_bound_retirement",
    "feedback_controls",
    "feedback_strategy",
    "welfare_loss",
    "hjb_residual",
]


def crra_utility(c, gamma: float):
    """Power utility c^(1-gamma)/(1-gamma) (gamma != 1)."""
    c = np.asarray(c, dtype=float)
    out = c ** (1.0 - gamma) / (1.0 - gamma)
    return out if out.ndim else float(out)


def crra_dual_inverse(z, gamma: float):
    """Inverse marginal utility f(z) = z^(-1/gamma); strictly decreasing."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValidationError("marginal-utility level must be positive")
    out = z ** (-1.0 / gamma)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# g(t) — the bequest aggregate


@dataclass(frozen=True)
class GFunction:
    """g(t) on a grid; g(T) = 1 exactly and g > 0 everywhere.

    Calling interpolates linearly between nodes (exact at nodes).
    """

    grid: UniformGrid
    values: np.ndarray
    scenario: MarketScenario

    def __call__(self, t):
        out = np.interp(t, self.grid.nodes, self.values)
        return out if np.ndim(out) else float(out)


def compute_g(scenario: MarketScenario, grid: UniformGrid) -> GFunction:
    """Evaluate g on the grid via prefix-quotient trapezoid tables.

    The integrand e^{-(dt~/g)(s-t)} F_B(s-t, s) factors into
    bnode(s)/bnode(t) with bnode(s) = exp(-∫_{t0}^s rate_B), so one
    cumulative table yields g at every node; the terminal node comes
    out exactly 1.
    """
    gam = scenario.gamma
    if gam == 1.0:
        raise ValidationError("gamma = 1 is outside the implemented utility branch")
    s = grid.nodes
    k0 = np.asarray(kappa(scenario, s))
    rate_b = (
        scenario.delta_tilde / gam
        + (gam - 1.0) / gam * np.asarray(scenario.r(s))
        + 0.5 * (gam - 1.0) / gam**2 * k0**2
    )
    bnode = np.exp(-prefix_trapezoid(rate_b, grid))
    cg = prefix_trapezoid(bnode, grid)
    values = (cg[-1] - cg + bnode[-1]) / bnode
    return GFunction(grid=grid, values=values, scenario=scenario)


def g_value(scenario: MarketScenario, t: float, n_intervals: int = 400) -> float:
    """g at one instant, from a grid anchored at t (no interpolation)."""
    if not 0 <= t <= scenario.T:
        raise ValidationError("t outside [0, T]")
    return float(compute_g(scenario, UniformGrid(t, scenario.T, n_intervals)).values[0])


# ---------------------------------------------------------------------------
# Policy aggregates


@dataclass(frozen=True)
class DualAggregates:
    """Per-policy aggregate curves on a shared grid.

    Immutable snapshot holding everything the bound, the feedback
    controls, and the simulator need: the drift adjustment at the
    nodes, the adjusted price of risk, g, F2~, and the income annuity
    (zero at and beyond T_R).
    """

    grid: UniformGrid
    scenario: MarketScenario
    policy: object
    v0: np.ndarray
    v_minus: np.ndarray
    kappa_v: np.ndarray
    g: np.ndarray
    tilde_f2: np.ndarray
    income_annuity: np.ndarray

    def interp_curves(self, t):
        """Linear interpolation of (g, F2~, ann, kappa_v) at time(s) t."""
        nodes = self.grid.nodes
        g = np.interp(t, nodes, self.g)
        f2 = np.interp(t, nodes, self.tilde_f2)
        ann = np.interp(t, nodes, self.income_annuity)
        kv = np.interp(t, nodes, self.kappa_v)
        ann = np.where(np.asarray(t) >= self.scenario.T_R, 0.0, ann)
        return g, f2, ann, kv

    def value_at(self, t, W, Y=0.0) -> float:
        """Upper-bound value from interpolated curves (fast path)."""
        _, f2, ann, _ = self.interp_curves(t)
        f3 = W + Y * ann
        gam = self.scenario.gamma
        return float(crra_utility(f3, gam) * f2**gam)


def precompute_aggregates(
    scenario: MarketScenario,
    g: GFunction,
    policy,
    grid: UniformGrid | None = None,
) -> DualAggregates:
    """Build the aggregate curves for one policy.

    Reuses ``g`` when the grids coincide, otherwise recomputes g on the
    requested grid (same machinery, so node values stay exact).  All
    curves cost O(n) via prefix-quotient tables.
    """
    if grid is None:
        grid = g.grid
    gam = scenario.gamma
    if gam == 1.0:
        raise ValidationError("gamma = 1 is outside the implemented utility branch")
    if grid is g.grid or (
        grid.t_start == g.grid.t_start
        and grid.t_end == g.grid.t_end
        and grid.n_intervals == g.grid.n_intervals
    ):
        g_nodes = g.values
    else:
        g_nodes = compute_g(scenario, grid).values

    s = grid.nodes
    mort = scenario.mortality
    lam = np.asarray(mort.hazard(s))
    # survival weight relative to the grid start (exact Gompertz exponent)
    lam_rel = np.asarray(mort.cumulative_hazard(grid.t_start, s))
    surv = np.exp(-lam_rel)

    v0, vm = evaluate_policy(policy, s, horizon=scenario.T)
    v0 = np.broadcast_to(np.asarray(v0, dtype=float), s.shape)
    vm = np.broadcast_to(np.asarray(vm, dtype=float), s.shape)
    kv = np.asarray(kappa(scenario, s, v0, vm))
    r_v = np.asarray(scenario.r(s)) + v0

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        rate3 = scenario.delta_tilde / gam + (gam - 1.0) / gam * r_v + 0.5 * (
            gam - 1.0
        ) / gam**2 * kv**2
        f3node = np.exp(-prefix_trapezoid(rate3, grid))
        e2 = surv * (1.0 + lam * g_nodes) * f3node
        c2 = prefix_trapezoid(e2, grid)
        tilde_f2 = (c2[-1] - c2 + surv[-1] * f3node[-1]) / (surv * f3node)

        # income annuity: integrate F_1 up to T_R (empty past retirement)
        rate1 = -scenario.mu_Y + r_v - scenario.sigma_Y * kv
        f1node = np.exp(-prefix_trapezoid(rate1, grid))
        e1 = surv * f1node
        c1 = prefix_trapezoid(e1, grid)
        ann = np.zeros_like(s)
        if grid.t_start < scenario.T_R:
            c1_tr = prefix_value_at(c1, e1, grid, min(scenario.T_R, grid.t_end))
            pre = s <= scenario.T_R
            ann[pre] = (c1_tr - c1[pre]) / e1[pre]

    return DualAggregates(
        grid=grid,
        scenario=scenario,
        policy=policy,
        v0=v0,
        v_minus=vm,
        kappa_v=kv,
        g=np.asarray(g_nodes),
        tilde_f2=tilde_f2,
        income_annuity=ann,
    )


# ---------------------------------------------------------------------------
# Upper-bound values


@dataclass(frozen=True)
class UpperBoundValue:
    """Value of the adjusted market at one state.

    ``tilde_f3`` is the wealth-plus-income-annuity aggregate W + Y*ann;
    in the retirement phase the annuity is empty, so it coincides with
    the pure-wealth aggregate (W under a zero support function).
    Negative for gamma > 1 (power utility is bounded above by 0).
    """

    value: float
    tilde_f2: float
    tilde_f3: float
    t: float
    W: float
    Y: float | None
    policy: object


def _anchored_aggregates(scenario, g, policy, t, n_intervals):
    n = n_intervals if n_intervals is not None else g.grid.n_intervals
    grid = UniformGrid(float(t), scenario.T, n)
    return precompute_aggregates(scenario, g, policy, grid)


def origin_upper_bound(scenario: MarketScenario, g: GFunction, policy) -> float:
    """J~ at the initial state (t=0, W0, Y0) on the shared grid.

    This is the optimizer's objective; it touches only the first node
    of the aggregate tables, where the prefix quotients are exactly
    conditioned, so it is finite for every nonnegative adjustment.
    """
    if g.grid.t_start != 0.0:
        raise ValidationError("objective evaluation expects a grid starting at 0")
    agg = precompute_aggregates(scenario, g, policy)
    gam = scenario.gamma
    f3 = scenario.W0 + scenario.Y0 * agg.income_annuity[0]
    return float(crra_utility(f3, gam) * agg.tilde_f2[0] ** gam)


def upper_bound_working(
    scenario: MarketScenario,
    g: GFunction,
    policy,
    t: float,
    W: float,
    Y: float,
    n_intervals: int | None = None,
) -> UpperBoundValue:
    """Working-phase upper bound J~(t, W, Y), t in [0, T_R].

    Aggregates are rebuilt on a grid anchored at t, so the value is a
    smooth function of t (no interpolation kinks) — the property the
    finite-difference HJB verifier relies on.  At t = T_R the income
    annuity is empty and the value pastes continuously onto the
    retirement branch.
    """
    if not 0 <= t <= scenario.T_R:
        raise ValidationError("working-phase value requires t in [0, T_R]")
    if W <= 0:
        raise ValidationError("W must be positive")
    if Y < 0:
        raise ValidationError("Y must be nonnegative")
    agg = _anchored_aggregates(scenario, g, policy, t, n_intervals)
    gam = scenario.gamma
    f2 = float(agg.tilde_f2[0])
    f3 = float(W + Y * agg.income_annuity[0])
    return UpperBoundValue(
        value=float(crra_utility(f3, gam) * f2**gam),
        tilde_f2=f2,
        tilde_f3=f3,
        t=float(t),
        W=float(W),
        Y=float(Y),
        policy=policy,
    )


def upper_bound_retirement(
    scenario: MarketScenario,
    g: GFunction,
    policy,
    t: float,
    W: float,
    n_intervals: int | None = None,
) -> UpperBoundValue:
    """Retirement-phase upper bound V_R(t, W), t in [T_R, T].

    With a zero support function the wealth aggregate is W itself, so
    V_R = u(W) * F2~(t)^gamma; at t = T the integral term vanishes,
    F2~ = 1, and V_R reduces to the terminal utility u(W).
    """
    if not scenario.T_R <= t <= scenario.T:
        raise ValidationError("retirement-phase value requires t in [T_R, T]")
    if W <= 0:
        raise ValidationError("W must be positive")
    agg = _anchored_aggregates(scenario, g, policy, t, n_intervals)
    gam = scenario.gamma
    f2 = float(agg.tilde_f2[0])
    return UpperBoundValue(
        value=float(crra_utility(W, gam) * f2**gam),
        tilde_f2=f2,
        tilde_f3=float(W),
        t=float(t),
        W=float(W),
        Y=None,
        policy=policy,
    )


# ---------------------------------------------------------------------------
# Feedback strategy


@dataclass(frozen=True)
class FeedbackStrategy:
    """Optimal controls at one state.

    theta_star is clamped to [0, W]; M_star/c_star = g(t) exactly (both
    share the ratio F3~/F2~); face_value = M_star - W is the insurance
    payout bought at rate hazard*(face value).
    """

    theta_star: float
    c_star: float
    m_star: float
    face_value: float


def feedback_controls(scenario: MarketScenario, W, y, ann, f2, kv, g_t, sigma):
    """Optimal (theta*, c*, M*) from the aggregate curves at one time.

    Vectorised over wealth W and the income flow y (zero once retired);
    ann, F2~, kappa_v, g(t) and sigma(t) are the curve values at that
    time.  theta* is clipped to [0, W] and M* = c* g(t).
    """
    f3 = W + y * ann
    c = f3 / f2
    theta = -f3 * kv / (scenario.gamma * sigma) - scenario.sigma_Y / sigma * y * ann
    return np.clip(theta, 0.0, W), c, c * g_t


def feedback_strategy(
    scenario: MarketScenario,
    g: GFunction,
    policy,
    t: float,
    W: float,
    Y: float = 0.0,
    n_intervals: int | None = None,
) -> FeedbackStrategy:
    """Optimal (theta*, c*, M*) at a positive-wealth state.

    Aggregates come from a grid anchored at t (no interpolation).  The
    zero-wealth liquidity rule lives in the simulator, not here.
    """
    if W <= 0:
        raise ValidationError(
            "feedback strategy needs W > 0 (the simulator handles the W = 0 rule)"
        )
    if Y < 0 or not 0 <= t <= scenario.T:
        raise ValidationError("feedback strategy needs Y >= 0 and t in [0, T]")
    agg = _anchored_aggregates(scenario, g, policy, t, n_intervals)
    y = Y if t < scenario.T_R else 0.0
    theta, c, m = feedback_controls(
        scenario, W, y, agg.income_annuity[0], agg.tilde_f2[0], agg.kappa_v[0],
        agg.g[0], float(scenario.sigma(t)),
    )
    return FeedbackStrategy(
        theta_star=float(theta), c_star=float(c), m_star=float(m), face_value=float(m - W)
    )


# ---------------------------------------------------------------------------
# Report arithmetic


def welfare_loss(upper: float, lower: float, gamma: float) -> float:
    """Certified welfare-loss bound L = 1 - (lower/upper)^(1/(1-gamma)).

    The fraction of initial wealth-and-income an agent would give up,
    at most, by following the candidate strategy instead of the
    (unknown) optimum; both bounds must be strictly negative for
    gamma > 1 and ordered lower <= upper.
    """
    if gamma <= 1:
        raise ValidationError("welfare loss implemented for gamma > 1")
    if upper >= 0 or lower >= 0:
        raise ValidationError("bounds must be strictly negative for gamma > 1")
    if lower > upper:
        raise ValidationError("expected lower <= upper")
    return float(1.0 - (lower / upper) ** (1.0 / (1.0 - gamma)))


# ---------------------------------------------------------------------------
# HJB residual verification


def _fd1(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _fd2(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def hjb_residual(
    kind: str,
    value_fn,
    point,
    scenario: MarketScenario,
    policy=None,
    n_intervals: int = 400,
) -> float:
    """Normalized HJB residual of a value-function closure at a point.

    kind selects the equation; derivatives are central finite
    differences of the supplied closure (relative steps 1e-5), so the
    check exercises the shipped evaluation path end to end.  The
    returned residual is the sum of the equation's terms divided by
    the largest term magnitude.

    * "bequest":    value_fn(t, W);  0 = -dt~ V + V_t + V_W r W
                    - kappa_0^2 V_W^2/(2 V_WW) + g/(1-g) V_W^((g-1)/g)
    * "retirement": value_fn(t, W);  0 = -(lam+dt~) V + V_t
                    + V_W (r+lam+v0) W - kappa_v^2 V_W^2/(2 V_WW)
                    + g/(1-g) (1+lam g(t)) V_W^((g-1)/g)
    * "working":    value_fn(t, W, Y);  adds the income terms
                    V_W Y + V_Y mu_Y Y + V_YY sigma_Y^2 Y^2/2 and the
                    cross term -(V_W kappa_v - V_WY sigma_Y Y)^2/(2 V_WW).

    The support-function term is zero for the exercised constraint
    (cone constraints); interior points only — the time coordinate must
    stay clear of the domain ends (and of T_R, where affine policies
    may kink) by at least the differencing step.
    """
    gam = scenario.gamma
    dt_ = scenario.delta_tilde
    T = scenario.T

    if kind == "bequest":
        t, W = point
        lo, hi = 0.0, T
    elif kind == "retirement":
        t, W = point
        lo, hi = scenario.T_R, T
    elif kind == "working":
        t, W, Y = point
        lo, hi = 0.0, scenario.T_R
    else:
        raise ValidationError(f"unknown HJB kind {kind!r}")

    h_t = 1e-5 * T
    h_w = 1e-5 * max(1.0, abs(W))
    if not (lo + h_t < t < hi - h_t) or W <= h_w:
        raise ValidationError("HJB residual requires an interior point")

    if kind == "bequest":
        f_t = lambda tt: value_fn(tt, W)
        f_w = lambda ww: value_fn(t, ww)
        V = value_fn(t, W)
        V_t = _fd1(f_t, t, h_t)
        V_w = _fd1(f_w, W, h_w)
        V_ww = _fd2(f_w, W, h_w)
        r = float(scenario.r(t))
        k0 = float(kappa(scenario, t))
        terms = np.array(
            [
                -dt_ * V,
                V_t,
                V_w * r * W,
                -0.5 * k0**2 * V_w**2 / V_ww,
                gam / (1.0 - gam) * V_w ** ((gam - 1.0) / gam),
            ]
        )
        return float(terms.sum() / np.max(np.abs(terms)))

    lam = float(scenario.mortality.hazard(t))
    r = float(scenario.r(t))
    if policy is None:
        v0, vm = 0.0, 0.0
    else:
        v0, vm = (float(x) for x in evaluate_policy(policy, t, horizon=T))
    kv = float(kappa(scenario, t, v0, vm))
    g_t = g_value(scenario, t, n_intervals)
    bequest_gain = gam / (1.0 - gam) * (1.0 + lam * g_t)

    if kind == "retirement":
        f_t = lambda tt: value_fn(tt, W)
        f_w = lambda ww: value_fn(t, ww)
        V = value_fn(t, W)
        V_t = _fd1(f_t, t, h_t)
        V_w = _fd1(f_w, W, h_w)
        V_ww = _fd2(f_w, W, h_w)
        terms = np.array(
            [
                -(lam + dt_) * V,
                V_t,
                V_w * (r + lam + v0) * W,
                -0.5 * kv**2 * V_w**2 / V_ww,
                bequest_gain * V_w ** ((gam - 1.0) / gam),
            ]
        )
        return float(terms.sum() / np.max(np.abs(terms)))

    if Y <= 0:
        raise ValidationError("working-phase residual requires Y > 0")
    h_y = 1e-5 * max(1.0, abs(Y))
    V = value_fn(t, W, Y)
    # With capitalized income the value varies on the scale of total
    # implied wealth, not W alone, so a W-step taken from |W| makes the
    # second difference cancel to roundoff when income dominates.
    # First differences stay well-conditioned at the naive step, so
    # probe the slope once and re-step from the value's own scale.
    slope = _fd1(lambda ww: value_fn(t, ww, Y), W, h_w)
    if np.isfinite(slope) and slope != 0.0:
        h_w = min(1e-5 * max(1.0, abs(W), abs(V / slope)), 0.5 * W)
    V_t = _fd1(lambda tt: value_fn(tt, W, Y), t, h_t)
    V_w = _fd1(lambda ww: value_fn(t, ww, Y), W, h_w)
    V_ww = _fd2(lambda ww: value_fn(t, ww, Y), W, h_w)
    V_y = _fd1(lambda yy: value_fn(t, W, yy), Y, h_y)
    V_yy = _fd2(lambda yy: value_fn(t, W, yy), Y, h_y)
    V_wy = (
        value_fn(t, W + h_w, Y + h_y)
        - value_fn(t, W + h_w, Y - h_y)
        - value_fn(t, W - h_w, Y + h_y)
        + value_fn(t, W - h_w, Y - h_y)
    ) / (4.0 * h_w * h_y)
    terms = np.array(
        [
            -(lam + dt_) * V,
            V_t,
            V_w * ((r + lam + v0) * W + Y),
            V_y * scenario.mu_Y * Y,
            0.5 * V_yy * scenario.sigma_Y**2 * Y**2,
            -0.5 * (V_w * kv - V_wy * scenario.sigma_Y * Y) ** 2 / V_ww,
            bequest_gain * V_w ** ((gam - 1.0) / gam),
        ]
    )
    return float(terms.sum() / np.max(np.abs(terms)))
