"""Certified bounds for the constant-coefficient life-cycle scenario.

Optimizes an affine drift-adjustment policy for the "example1" preset
(constant equity premium), simulates the candidate feedback strategy
it induces, and prints the bound pair plus two diagnostics: the budget
identity of the simulated paths and the shape of the mean insurance
demand: positive and falling over working life, and zero within
quadrature error from retirement on.
"""

import time

import numpy as np

from lifedual import (
    OptimizerConfig,
    SimulationConfig,
    UniformGrid,
    build_report,
    compute_g,
    make_policy,
    minimize_upper_bound,
    origin_upper_bound,
    precompute_aggregates,
    preset_scenario,
    simulate_candidate_value,
)

N_INTERVALS = 100  # the optimizer's search grid; the bounds use the path grid
OPT = OptimizerConfig(num_starts=5, iterations_per_start=50)
SIM = SimulationConfig(n_paths=20_000, n_steps=1_000)

scenario = preset_scenario("example1")
print(
    f"scenario example1: W0={scenario.W0:g} Y0={scenario.Y0:g} "
    f"gamma={scenario.gamma:g} T_R={scenario.T_R:g} T={scenario.T:g}"
)

# g carries the scenario and grid; every bound below reads them from it.
# The optimizer searches on g; the certificate's two bounds read cert,
# g on the grid of the simulation's steps.
g = compute_g(scenario, UniformGrid(0.0, scenario.T, N_INTERVALS))
cert = compute_g(scenario, UniformGrid(0.0, scenario.T, SIM.n_steps))
print(f"bequest multiplier g(0) = {g.values[0]:.6f}")

# Upper bound: minimize the closed-form dual value over affine policies,
# then evaluate the winner on the path grid.
t0 = time.perf_counter()
policy, starts = minimize_upper_bound(g, "affine", OPT, seed=0)
upper = origin_upper_bound(cert, policy)
print(
    f"upper bound   J~   = {upper:.7f}  "
    f"(best of {OPT.num_starts} starts, {time.perf_counter() - t0:.1f}s; "
    f"{min(start.final for start in starts):.7f} on the search grid)"
)
# Each start's record: its incumbents, final point and how BFGS ended.
for k, start in enumerate(starts):
    print(
        f"  start {k}: final {start.final:.7f} after {start.nit:>2} iterations, "
        f"{start.nfev:>3} evaluations ({start.message})"
    )

# Lower bound: run the induced strategy on quasi-Monte Carlo paths.
t0 = time.perf_counter()
sim = simulate_candidate_value(cert, policy, SIM)
print(
    f"lower bound   Jbar = {sim.value:.7f} +- {sim.std_error:.1e}  "
    f"({SIM.n_paths} paths x {SIM.n_steps} steps, {time.perf_counter() - t0:.1f}s)"
)

# The certificate: signed gap upper - lower, and a welfare loss only
# when the bounds are ordered.
rep = build_report(upper, sim.value, sim.std_error, scenario.gamma)
print(
    f"certificate {rep.certificate}: duality gap {rep.duality_gap:+.5f}  "
    f"relative {100 * rep.relative_gap:+.3f}%"
    + ("" if rep.welfare_loss is None else f"  welfare loss {100 * rep.welfare_loss:.4f}%")
)

# The discounted value of what the paths spend should equal initial
# wealth plus the discounted value of income (one z-score per run,
# computed by the simulation pass above on the same paths).
chk = sim.budget
print(
    f"budget identity: spending {chk.lhs:.2f} vs resources {chk.rhs:.2f}  "
    f"(z = {chk.z_score:+.2f})"
)

# Insurance demand along the mean path: positive face value is term
# cover on top of wealth, negative means selling cover (annuity side).
# Once retired the fitted adjustment is zero, where F2~ = g and the face
# value M* - W = W (g/F2~ - 1) vanishes in exact arithmetic; what is left
# is the trapezoid mismatch eps = max|g/F2~ - 1| of the zero adjustment,
# taken per phase (working life and retirement).  Only values beyond
# twice that share of mean wealth carry a sign.
zero = precompute_aggregates(cert, make_policy("affine", np.zeros(8), t_retire=scenario.T_R))
mismatch = np.abs(cert.values / zero.tilde_f2 - 1.0)
node_working = cert.grid.nodes < scenario.T_R
eps_working, eps_retired = mismatch[node_working].max(), mismatch[~node_working].max()
face = sim.mean_face_value
t_left = sim.times[: len(face)]
eps = np.where(t_left < scenario.T_R, eps_working, eps_retired)
tol = 2.0 * eps * sim.mean_wealth[: len(face)]
print(
    f"mean face value at issue: {face[0]:+,.1f}  (zero tolerance 2 x eps x wealth, "
    f"eps {eps_working:.2e} working, {eps_retired:.2e} retired)"
)
signed = np.nonzero(np.abs(face) > tol)[0]
for a, b in zip(signed[:-1], signed[1:]):
    if np.sign(face[a]) != np.sign(face[b]):
        print(f"  switches sign near t = {t_left[b]:.2f}")
if signed.size and signed[-1] + 1 < len(face):
    print(f"  within quadrature error of zero from t = {t_left[signed[-1] + 1]:.2f}")
print(f"mean face value at t={t_left[-1]:g}: {face[-1]:+,.2f}")
