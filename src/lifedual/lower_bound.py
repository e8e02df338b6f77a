"""Quasi-Monte-Carlo lower bound and dual-identity checks in one path pass.

The optimized drift adjustment induces a *feasible* candidate strategy:
apply the closed-form feedback controls (theta*, c*, M*) to the true
(constrained) wealth dynamics

    dW = {[r(t) + lam(t)] W + theta*(mu - r) - c* - lam M* + Y_t} dt
         + theta* sigma dZ,

with the liquidity rule at the zero-wealth boundary: consumption (and
with it the death benefit M* = c* g) is truncated at Y/(1 + lam g) so
the drift cannot push wealth negative.  Expected utility along these
paths,

    Jbar = E[ ∫_0^T e^{-Lam(s) - dt~ s} u(c*_s) ds
              + ∫_0^T lam(s) e^{-Lam(s) - dt~ s} u(M*_s) g(s)^gamma ds
              + e^{-Lam(T) - dt~ T} u(W_T) ],

is a genuine lower bound for the problem value (weak duality), so the
pair (Jbar, J~) certifies the duality gap.

Paths are driven by a Sobol sequence: one point of dimension n_steps
per path, mapped to normals by the inverse CDF, with a configurable
number of initial points skipped.  Wealth uses Euler-Maruyama steps
(the feedback drift precludes exact stepping); income uses exact
log-normal steps; utility integrals use the left-endpoint rule,
consistent with previsible controls.

The same pass over the same normals checks the dual bookkeeping: the
static budget identity

    E[ ∫ pi_v e^{-Lam} (c* + lam M*) dt + pi_{v,T} e^{-Lam(T)} W*_T ]
        = W_0 + E[ ∫ pi_v e^{-Lam} Y dt ],

for the closed-form optimal streams c*_t proportional to
(e^{dt~ t} pi_t e^{Lam})^{-1/gamma}, and the martingale property of the
discounted optimal-wealth process

    H_t = beta_t e^{-Lam} W*_t + ∫_0^t beta e^{-Lam} (c* - Y + lam M*) ds,

checked under the physical measure through the density ksi_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .closed_form import GFunction, feedback_controls, precompute_aggregates
from .errors import NumericalError, ValidationError
from .market import MarketScenario

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "BudgetCheck",
    "sobol_normals",
    "simulate_candidate_value",
]

_MAX_SOBOL_DIM = 21201
_UTILITY_FLOOR = 1e-300  # utility of a starved path is astronomically negative, not -inf


@dataclass(frozen=True)
class SimulationConfig:
    """Path-generation protocol.

    ``sobol_skip`` initial sequence points are discarded (the leading
    all-zeros point is always dropped on top of that).  ``seed`` is
    recorded for provenance; the sequence itself is unscrambled, so the
    stream is fully determined by (n_paths, n_steps, sobol_skip).
    """

    n_paths: int = 20000
    n_steps: int = 1000
    sobol_skip: int = 4000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise ValidationError("need at least 2 paths")
        if self.n_steps < 1:
            raise ValidationError("need at least 1 step")
        if self.sobol_skip < 0:
            raise ValidationError("sobol_skip must be nonnegative")


def sobol_normals(config: SimulationConfig) -> np.ndarray:
    """Standard-normal increments, one Sobol point per path.

    Returns an (n_paths, n_steps) array: unscrambled Sobol points
    after the skip, mapped through the inverse normal CDF (double
    precision, max absolute error well below 1e-9).  Deterministic
    given the config.
    """
    if config.n_steps > _MAX_SOBOL_DIM:
        raise ValidationError(f"Sobol dimension must lie in [1, {_MAX_SOBOL_DIM}]")
    engine = qmc.Sobol(d=config.n_steps, scramble=False)
    engine.fast_forward(1 + config.sobol_skip)
    pts = engine.random(config.n_paths)
    np.clip(pts, 1e-12, 1.0 - 1e-12, out=pts)
    return ndtri(pts, out=pts)


@dataclass(frozen=True)
class BudgetCheck:
    """Static budget identity: lhs should equal rhs within QMC noise."""

    lhs: float
    rhs: float
    z_score: float
    std_error: float


@dataclass(frozen=True)
class SimulationResult:
    """Candidate value estimate with trajectory summaries and dual checks.

    ``times`` has n_steps+1 entries; wealth means align with it, while
    the control summaries (face value, consumption) are recorded at
    the n_steps left endpoints.  ``budget`` and ``martingale_z`` are
    the static-budget and kernel-martingale checks on the same paths.
    """

    value: float
    std_error: float
    times: np.ndarray
    mean_wealth: np.ndarray
    mean_face_value: np.ndarray
    mean_consumption: np.ndarray
    n_paths: int
    budget: BudgetCheck
    martingale_z: list[tuple[float, float]]


def _mean_se(x):
    """Path mean and its sample standard error."""
    return x.mean(), x.std(ddof=1) / np.sqrt(len(x))


def simulate_candidate_value(
    scenario: MarketScenario,
    g: GFunction,
    policy,
    config: SimulationConfig,
    controls_override=None,
) -> SimulationResult:
    """Estimate Jbar for the candidate strategy induced by ``policy``.

    Controls are recomputed each step from the current state via the
    feedback formulas on linearly interpolated aggregate curves.  The
    optional ``controls_override(t, W, Y) -> (theta, c, M)`` replaces
    the feedback rule (used to exercise alternative feasible recipes);
    the liquidity truncation still applies on the zero-wealth boundary.

    The same pass simulates log pi_v and log ksi_v (left-endpoint Euler
    increments), evaluates the closed-form optimal streams
    c*_t = c0 (pi_t e^{delta t})^{-1/gamma}, M*_t = g(t) c*_t and
    W*_t = c*_t F2~(t) - Y_t ann(t) at every step boundary, and
    accumulates the survival-weighted pricing integrals by the
    trapezoid rule (the income flow stops at retirement, so that
    integrand's right/left limits are tracked separately around T_R).
    The budget check standardizes spend + terminal - income against
    W0; the martingale check standardizes the increments of H_t
    between quarter-horizon checkpoints (the first against the exact
    H_0 = W0).  Overflow in these dual streams is left to show as a
    non-finite z-score.

    Returns the path mean, its sample standard error (conservative for
    a low-discrepancy stream), mean trajectories of wealth, face value
    M* - W, and consumption, and the two dual checks.
    """
    gam = scenario.gamma
    mort = scenario.mortality
    n_steps = config.n_steps
    dt = scenario.T / n_steps
    agg = precompute_aggregates(scenario, g, policy, g.grid)
    t_nodes = np.arange(n_steps + 1) * dt
    g_n, f2_n, ann_n, kv_n = agg.interp_curves(t_nodes)
    if not all(np.all(np.isfinite(a)) for a in (g_n, f2_n, ann_n, kv_n)):
        raise NumericalError("aggregate curves are not finite; adjustment too extreme")

    r_n = np.asarray(scenario.r(t_nodes)) + np.zeros_like(t_nodes)
    mu_n = np.asarray(scenario.mu(t_nodes)) + np.zeros_like(t_nodes)
    sig_n = np.asarray(scenario.sigma(t_nodes)) + np.zeros_like(t_nodes)
    lam_n = np.asarray(mort.hazard(t_nodes))
    cum_haz = np.asarray(mort.cumulative_hazard(0.0, t_nodes))
    surv_n = np.exp(-cum_haz)
    disc_n = np.exp(-cum_haz - scenario.delta_tilde * t_nodes)
    w_cons = disc_n * dt
    w_beq = lam_n * disc_n * g_n**gam * dt
    cap_fac = 1.0 + lam_n * g_n
    working = t_nodes < scenario.T_R

    v0_n = np.asarray(policy(t_nodes)[0]) + np.zeros_like(t_nodes)
    # deterministic part of the kernel: log beta by the left rule,
    # matching the frozen-coefficient ksi increments below
    log_beta = np.concatenate([[0.0], -np.cumsum((r_n[:-1] + v0_n[:-1]) * dt)])
    c0 = (scenario.W0 + scenario.Y0 * ann_n[0]) / f2_n[0]
    check_steps = {max(j * n_steps // 4, 1) for j in range(1, 5)}  # quarters, last at T

    dZ = sobol_normals(config)
    dZ *= np.sqrt(dt)

    W = np.full(config.n_paths, scenario.W0)
    Y = np.full(config.n_paths, scenario.Y0)
    util = np.zeros(config.n_paths)
    mean_wealth = np.empty(n_steps + 1)
    mean_face = np.empty(n_steps)
    mean_cons = np.empty(n_steps)
    log_xi = np.zeros(config.n_paths)
    spend = np.zeros(config.n_paths)  # int pi e^{-Lam}(c* + lam M*) dt
    income = np.zeros(config.n_paths)  # int pi e^{-Lam} Y dt
    finance = np.zeros(config.n_paths)  # int beta e^{-Lam}(c* - Y + lam M*) dt
    h_prev = np.full(config.n_paths, float(scenario.W0))
    martingale_z = []

    for k in range(n_steps + 1):
        t = t_nodes[k]
        # income flows on [0, T_R]: the right limit at T_R still pays,
        # the segment opening at T_R does not
        y_k = Y if working[k] else 0.0
        y_close = Y if t <= scenario.T_R else 0.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            log_pi = log_beta[k] + log_xi
            pi_surv = np.exp(log_pi) * surv_n[k]
            beta_surv = np.exp(log_beta[k]) * surv_n[k]
            c_star = c0 * np.exp(-(scenario.delta_tilde * t + log_pi) / gam)
            lam_m = lam_n[k] * g_n[k] * c_star
            f_spend = pi_surv * (c_star + lam_m)
            if k > 0:
                spend += 0.5 * dt * (prev_spend + f_spend)
                income += 0.5 * dt * (prev_income + pi_surv * y_close)
                finance += 0.5 * dt * (prev_finance + beta_surv * (c_star - y_close + lam_m))
            prev_spend = f_spend
            prev_income = pi_surv * y_k
            prev_finance = beta_surv * (c_star - y_k + lam_m)
            if k in check_steps:
                w_star = c_star * f2_n[k] - y_k * ann_n[k]
                h = np.exp(log_xi) * (beta_surv * w_star + finance)
                mean, se = _mean_se(h - h_prev)
                martingale_z.append((float(t), float(mean / se)))
                h_prev = h
            if k == n_steps:
                terminal = pi_surv * w_star  # W*_T = c*_T since F2~(T) = 1
                diff = spend + terminal - income
                mean, se = _mean_se(diff)
                budget = BudgetCheck(
                    lhs=float((spend + terminal).mean()),
                    rhs=float(scenario.W0 + income.mean()),
                    z_score=float((mean - scenario.W0) / se),
                    std_error=float(se),
                )
                break
            dz = dZ[:, k]
            log_xi = log_xi + kv_n[k] * dz - 0.5 * kv_n[k] * kv_n[k] * dt

        if controls_override is None:
            theta, c, m = feedback_controls(
                scenario, W, y_k, ann_n[k], f2_n[k], kv_n[k], g_n[k], sig_n[k]
            )
        else:
            theta, c, m = controls_override(t, W, y_k)
            theta = np.clip(theta, 0.0, W)
        at_floor = W <= 1e-12
        if working[k] and np.any(at_floor):
            cap = Y / cap_fac[k]
            c = np.where(at_floor, np.minimum(c, cap), c)
            m = np.where(at_floor, c * g_n[k], m)

        mean_wealth[k] = W.mean()
        mean_face[k] = (m - W).mean()
        mean_cons[k] = c.mean()
        util += w_cons[k] * np.maximum(c, _UTILITY_FLOOR) ** (1.0 - gam) / (1.0 - gam)
        util += w_beq[k] * np.maximum(m, _UTILITY_FLOOR) ** (1.0 - gam) / (1.0 - gam)

        drift = (r_n[k] + lam_n[k]) * W + theta * (mu_n[k] - r_n[k]) - c - lam_n[k] * m + y_k
        W = W + drift * dt + theta * sig_n[k] * dz
        np.maximum(W, 0.0, out=W)
        if not np.all(np.isfinite(W)):
            raise NumericalError(f"non-finite wealth at step {k} (t={t:.4f})")
        if working[k]:
            Y = Y * np.exp(
                (scenario.mu_Y - 0.5 * scenario.sigma_Y**2) * dt
                + scenario.sigma_Y * dz
            )

    mean_wealth[-1] = W.mean()
    disc_T = np.exp(-mort.cumulative_hazard(0.0, scenario.T) - scenario.delta_tilde * scenario.T)
    util += disc_T * np.maximum(W, _UTILITY_FLOOR) ** (1.0 - gam) / (1.0 - gam)

    value, se = _mean_se(util)
    return SimulationResult(
        value=float(value),
        std_error=float(se),
        times=np.concatenate([t_nodes[:-1], [scenario.T]]),
        mean_wealth=mean_wealth,
        mean_face_value=mean_face,
        mean_consumption=mean_cons,
        n_paths=config.n_paths,
        budget=budget,
        martingale_z=martingale_z,
    )
