"""Closed-form value functions and feedback strategies.

For a deterministic drift adjustment v(t) = (v0(t), v_minus(t)) the
value of the adjusted (unconstrained) market is available in closed
form, and minimizing it over v yields a certified upper bound for the
constrained problem.  With CRRA utility u(c) = c^(1-gamma)/(1-gamma)
the value functions factor into powers of two aggregates:

* post-death (bequest) value     V_B(t, M) = u(M) * g(t)^gamma,
* upper-bound value              J~(t, W, Y) = u(F3~) * F2~(t)^gamma,

valid on [0, T]; from T_R on the income annuity is empty, so J~ is the
retirement value V_R(t, W) = u(W) * F2~(t)^gamma,

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
    F3~(t, W, Y) = W + Y * ann(t)   (zero support function).

Every inner integral ∫_0^{s-t} q(s-u) du equals a difference of prefix
integrals Q(s) - Q(t) on one shared grid, so all aggregate curves come
out of cumulative-trapezoid tables in O(n).  The policy-independent
node curves (survival, r, mu, sigma, 1 + lam g) are built once per
grid with g by ``compute_g(scenario, grid)``, whose ``GFunction`` is
the problem handle: it carries the scenario and grid, so no entry
point below takes a scenario beside it.

One private builder, ``_tables``, forms every prefix table of both
curves for a (k, n+1) stack of adjustments at the nodes, one row per
candidate.  At node 0 every quotient's denominator is 1, so the bounds
read F2~(0) = c2[n] + surv[n] f3node[n] and ann(0) = c1 at T_R there
(``_node0``).  That read serves ``origin_upper_bounds(g, v0, v_minus)``,
the optimizer's objective J~(0, W0, Y0), which runs the adjoint back
through the same tables for dJ/dv at the nodes, O(n) per row.
``origin_upper_bound`` is one policy's objective.
``precompute_aggregates(g, policy)`` forms the full curves as
quotients of the same tables for the path pass.  The certificate's
two bounds share one grid: the path pass steps on the nodes of the g it
is given and reads its curves there, and the upper bound it is paired
with is that g's ``origin_upper_bound``.

The optimal feedback controls attached to the upper bound are

    theta* = min{ max{ -F3~ kappa_v/(gamma sigma) - (sigma_Y/sigma) Y ann, 0 }, W },
    c*     = F3~/F2~,       M* = c* g(t),

with face value M* - W (insurance purchased at rate lam*(M*-W)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .drift_policy import evaluate as evaluate_policy
from .errors import ValidationError
from .market import MarketScenario, kappa, price_of_risk
from .quadrature import (
    UniformGrid,
    prefix_trapezoid,
    prefix_trapezoid_adjoint,
    prefix_value_at,
    prefix_value_weights,
)

__all__ = [
    "GFunction",
    "DualAggregates",
    "crra_utility",
    "compute_g",
    "precompute_aggregates",
    "origin_upper_bound",
    "origin_upper_bounds",
    "feedback_coefficients",
    "feedback_controls",
]


def crra_utility(c, gamma: float):
    """Power utility c^(1-gamma)/(1-gamma) (gamma != 1)."""
    c = np.asarray(c, dtype=float)
    out = c ** (1.0 - gamma) / (1.0 - gamma)
    return out if out.ndim else float(out)


def _discount_rate(scenario: MarketScenario, r, k):
    """dt~/g + ((g-1)/g) r + (1/2)((g-1)/g^2) k^2, the rate of F_B (r, kappa_0) and F_3."""
    gam = scenario.gamma
    return scenario.delta_tilde / gam + (gam - 1.0) / gam * r + 0.5 * (gam - 1.0) / gam**2 * k**2


# ---------------------------------------------------------------------------
# g(t) — the bequest aggregate


@dataclass(frozen=True)
class GFunction:
    """g(t) on a grid; g(T) = 1 exactly and g > 0 everywhere.

    Also the problem handle: ``scenario`` and ``grid`` are the instance
    every bound, the optimizer and the path pass read.  The
    remaining fields are the policy-independent node curves that every
    aggregate pass on this grid reads: the survival weight relative to
    the grid start (exact Gompertz exponent), the market coefficients
    r, mu, sigma, and the bequest factor 1 + hazard * g.
    """

    grid: UniformGrid
    values: np.ndarray
    scenario: MarketScenario
    survival: np.ndarray
    r: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    bequest_factor: np.ndarray

    @cached_property
    def origin_weights(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Node weights of the prefix values at T and at T_R (None from T_R on).

        F2~(0) is linear in c2 through the first, and ann(0) in e1
        through the second; the objective's adjoint pass reads both.
        """
        grid = self.grid
        at_t = prefix_value_weights(grid, grid.t_end)
        if grid.t_start >= self.scenario.T_R:
            return at_t, None
        return at_t, prefix_value_weights(grid, min(self.scenario.T_R, grid.t_end))


def compute_g(scenario: MarketScenario, grid: UniformGrid) -> GFunction:
    """Evaluate g on the grid via prefix-quotient trapezoid tables.

    The integrand e^{-(dt~/g)(s-t)} F_B(s-t, s) factors into
    bnode(s)/bnode(t) with bnode(s) = exp(-∫_{t0}^s rate_B), so one
    cumulative table yields g at every node; the terminal node comes
    out exactly 1.  The grid must end at the horizon T, where g = 1.
    """
    if scenario.gamma == 1.0:
        raise ValidationError("gamma = 1 is outside the implemented utility branch")
    if grid.t_end != scenario.T:
        raise ValidationError("g needs a grid ending at the horizon T")
    s = grid.nodes
    rate_b = _discount_rate(scenario, np.asarray(scenario.r(s)), np.asarray(kappa(scenario, s)))
    bnode = np.exp(-prefix_trapezoid(rate_b, grid))
    cg = prefix_trapezoid(bnode, grid)
    values = (cg[-1] - cg + bnode[-1]) / bnode
    mort = scenario.mortality
    return GFunction(
        grid=grid,
        values=values,
        scenario=scenario,
        survival=np.exp(-np.asarray(mort.cumulative_hazard(grid.t_start, s))),
        r=np.asarray(scenario.r(s)),
        mu=np.asarray(scenario.mu(s)),
        sigma=np.asarray(scenario.sigma(s)),
        bequest_factor=1.0 + np.asarray(mort.hazard(s)) * values,
    )


# ---------------------------------------------------------------------------
# Policy aggregates


def _tables(g: GFunction, v0, v_minus):
    """(kappa_v, f3node, c2, f1node, e1, c1) for a (k, n+1) stack of node adjustments.

    f3node and f1node are the exponentials of the F2~ and annuity rate
    prefix tables; c2 integrates e2 = surv (1 + lam g) f3node and c1
    integrates e1 = surv f1node.  Every bound and curve reads these.
    """
    scenario = g.scenario
    grid = g.grid
    surv = g.survival
    kv = price_of_risk(g.mu, g.r, g.sigma, v0, v_minus)
    r_v = g.r + v0
    with np.errstate(all="ignore"):
        f3node = np.exp(-prefix_trapezoid(_discount_rate(scenario, r_v, kv), grid))
        c2 = prefix_trapezoid(surv * g.bequest_factor * f3node, grid)
        f1node = np.exp(-prefix_trapezoid(-scenario.mu_Y + r_v - scenario.sigma_Y * kv, grid))
        e1 = surv * f1node
        c1 = prefix_trapezoid(e1, grid)
    return kv, f3node, c2, f1node, e1, c1


def _node0(g: GFunction, tables):
    """F2~ and ann at node 0 of ``g``'s grid, per row of ``_tables``.

    There every quotient's denominator is 1, so F2~(0) = c2[n] +
    surv[n] f3node[n] and ann(0) = c1 at T_R (zero from T_R on).
    """
    _, f3node, c2, _, e1, c1 = tables
    t_r, grid = g.scenario.T_R, g.grid
    with np.errstate(all="ignore"):
        f2 = c2[:, -1] + g.survival[-1] * f3node[:, -1]
        if grid.t_start >= t_r:
            return f2, np.zeros(len(f2))
        return f2, prefix_value_at(c1, e1, grid, min(t_r, grid.t_end))


def _node_adjustments(g: GFunction, policy):
    """One policy's (v0, v_minus) at ``g``'s nodes, as one-row stacks."""
    s = g.grid.nodes
    v0, vm = evaluate_policy(policy, s, horizon=g.scenario.T)
    return (np.broadcast_to(np.asarray(v, dtype=float), s.shape)[None] for v in (v0, vm))


@dataclass(frozen=True)
class DualAggregates:
    """One policy's curves at a ``GFunction``'s nodes, as the path pass reads them.

    The adjustment v0, the adjusted price of risk, F2~, and the income
    annuity (zero at and beyond T_R).
    """

    v0: np.ndarray
    kappa_v: np.ndarray
    tilde_f2: np.ndarray
    income_annuity: np.ndarray


def precompute_aggregates(g: GFunction, policy) -> DualAggregates:
    """Build the aggregate curves for one policy on ``g``'s grid.

    Both curves are prefix quotients of ``_tables``:
    F2~(t) = (c2[n] - c2(t) + surv[n] f3node[n]) / (surv(t) f3node(t))
    and ann(t) = (c1(T_R) - c1(t)) / e1(t), with c1(T_R) = ann(0) from
    ``_node0``, so every curve costs O(n).  Survival that underflows to
    0 on the grid makes F2~ 0/0 there and raises ``ValidationError``.
    """
    scenario = g.scenario
    s = g.grid.nodes
    surv = g.survival
    if not surv.all():  # survival is nonincreasing, so argmin finds its first 0
        raise ValidationError(
            f"survival underflows to 0 from t = {s[np.argmin(surv)]:g} on, where F2~ is 0/0; "
            f"shorten scenario.horizon = {scenario.T:g}"
        )
    v0, vm = _node_adjustments(g, policy)
    tables = _tables(g, v0, vm)
    _, ann0 = _node0(g, tables)
    kv, f3node, c2, _, e1, c1 = (table[0] for table in tables)
    with np.errstate(all="ignore"):
        tilde_f2 = (c2[-1] - c2 + surv[-1] * f3node[-1]) / (surv * f3node)
        ann = np.where(s <= scenario.T_R, (ann0[0] - c1) / e1, 0.0)
    return DualAggregates(v0=v0[0], kappa_v=kv, tilde_f2=tilde_f2, income_annuity=ann)


# ---------------------------------------------------------------------------
# Upper-bound values


def _check_origin(g: GFunction) -> None:
    if g.grid.t_start != 0.0:
        raise ValidationError("initial-state aggregates need a grid starting at 0")


def origin_upper_bounds(g: GFunction, v0, v_minus):
    """J~(0, W0, Y0) for each row of a (k, n+1) stack of adjustments at the nodes.

    Returns ``(values, dJ/dv0, dJ/dv_minus)``: the k values and the
    exact gradients as (k, n+1) arrays over ``g.grid.nodes``.  Each
    row's value and gradient are bit-identical to those of the same row
    evaluated alone.

    The value is the ``_node0`` read; the gradient is reverse mode
    through the same tables, with J = u(F3~) F2~^gamma and
    F3~ = W0 + Y0 ann(0).  The scalar tail (the powers of F2~(0) and
    F3~) is taken row by row on numpy scalars, as for one row.
    """
    _check_origin(g)
    scenario = g.scenario
    grid = g.grid
    gam = scenario.gamma
    surv = g.survival
    tables = _tables(g, np.asarray(v0, dtype=float), np.asarray(v_minus, dtype=float))
    f2, ann = _node0(g, tables)
    rows = list(zip(f2, scenario.W0 + scenario.Y0 * ann))  # (F2~(0), F3~) per row
    values = np.array([float(crra_utility(f3, gam) * f2**gam) for f2, f3 in rows])

    kv, f3node, _, f1node, _, _ = tables
    w_t, w_tr = g.origin_weights
    with np.errstate(all="ignore"):
        d_f2 = np.array([gam * crra_utility(f3, gam) * f2 ** (gam - 1.0) for f2, f3 in rows])
        d_f3 = np.array([f3 ** (-gam) * f2**gam for f2, f3 in rows])

        # F2~ chain: F2~(0) = c2[n] + surv[n] f3node[n]
        d_f3node = d_f2[:, None] * w_t * surv * g.bequest_factor
        d_f3node[:, -1] += d_f2 * surv[-1]
        d_rate3 = prefix_trapezoid_adjoint(-d_f3node * f3node, grid)

        # annuity chain: ann(0) = ∫_0^{T_R} e1
        d_rate1 = np.zeros_like(d_rate3)
        if w_tr is not None:
            d_e1 = (scenario.Y0 * d_f3)[:, None] * w_tr
            d_rate1 = prefix_trapezoid_adjoint(-d_e1 * surv * f1node, grid)

        # rate3 = _discount_rate(r_v, kappa_v), rate1 = -mu_Y + r_v - sigma_Y kappa_v,
        # r_v = r + v0 and kappa_v = price_of_risk(mu, r, sigma, v0, v_minus)
        d_rv = (gam - 1.0) / gam * d_rate3 + d_rate1
        d_kv = (gam - 1.0) / gam**2 * kv * d_rate3 - scenario.sigma_Y * d_rate1
        d_kv_sig = d_kv / g.sigma
    return values, d_rv + d_kv_sig, -d_kv_sig


def origin_upper_bound(g: GFunction, policy) -> float:
    """J~ at the initial state (t=0, W0, Y0): one policy's ``origin_upper_bounds``.

    Read at node 0, where the prefix quotients are exactly conditioned,
    so it is finite for every nonnegative adjustment.
    """
    return float(origin_upper_bounds(g, *_node_adjustments(g, policy))[0][0])


# ---------------------------------------------------------------------------
# Feedback strategy


def feedback_coefficients(scenario: MarketScenario, ann, f2, kv, sigma):
    """Node coefficients (ann, 1/F2~, a, b) of the feedback rule.

    Vectorised over times: ann, F2~, kappa_v and sigma are the curve
    values there.  With F3~ = W + y ann, the rule of
    ``feedback_controls`` is c* = F3~ / F2~ and theta* = F3~ a - y b,
    where a = -kappa_v/(gamma sigma) and b = sigma_Y ann / sigma, so a
    caller that applies it at many states forms these once per time.
    """
    return ann, 1.0 / f2, -kv / (scenario.gamma * sigma), scenario.sigma_Y * ann / sigma


def feedback_controls(W, y, ann, inv_f2, a, b):
    """Optimal (theta*, c*) at one time from its feedback coefficients.

    Vectorised over wealth W and the income flow y (zero once retired);
    (ann, inv_f2, a, b) is ``feedback_coefficients`` at that time.
    theta* is clipped to [0, W]; the death benefit is M* = c* g(t).
    The path pass calls it on working steps only; from T_R on it steps
    the same rule as one multiply (``lower_bound`` module docstring).
    """
    f3 = W + y * ann
    theta = f3 * a - y * b
    # np.clip(theta, 0.0, W) bit for bit, at half its cost on the pass's arrays
    return np.minimum(np.maximum(theta, 0.0), W), f3 * inv_f2

