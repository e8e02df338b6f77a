"""Certified bounds for the constant-coefficient life-cycle scenario.

Optimizes an affine drift-adjustment policy for the "example1" preset
(constant equity premium), simulates the candidate feedback strategy
it induces, and prints the bound pair plus two diagnostics: the budget
identity of the simulated paths and where the mean insurance demand
switches from buying cover to annuitizing.
"""

import time

import numpy as np

from lifedual import (
    OptimizerConfig,
    SimulationConfig,
    UniformGrid,
    compute_g,
    minimize_upper_bound,
    preset_scenario,
    simulate_candidate_value,
    welfare_loss,
)

N_INTERVALS = 100  # quadrature grid for g and the dual aggregates
OPT = OptimizerConfig(num_starts=5, iterations_per_start=50)
SIM = SimulationConfig(n_paths=20_000, n_steps=1_000)

scenario = preset_scenario("example1")
print(
    f"scenario example1: W0={scenario.W0:g} Y0={scenario.Y0:g} "
    f"gamma={scenario.gamma:g} T_R={scenario.T_R:g} T={scenario.T:g}"
)

g = compute_g(scenario, UniformGrid(0.0, scenario.T, N_INTERVALS))
print(f"bequest multiplier g(0) = {g(0.0):.6f}")

# Upper bound: minimize the closed-form dual value over affine policies.
t0 = time.perf_counter()
policy, trace = minimize_upper_bound(scenario, g, "affine", OPT, seed=0)
upper = trace.best_objective
print(
    f"upper bound   J~   = {upper:.7f}  "
    f"(best of {OPT.num_starts} starts, {time.perf_counter() - t0:.1f}s)"
)

# Lower bound: run the induced strategy on quasi-Monte Carlo paths.
t0 = time.perf_counter()
sim = simulate_candidate_value(scenario, g, policy, SIM)
print(
    f"lower bound   Jbar = {sim.value:.7f} +- {sim.std_error:.1e}  "
    f"({SIM.n_paths} paths x {SIM.n_steps} steps, {time.perf_counter() - t0:.1f}s)"
)

gap = abs(upper - sim.value)
print(
    f"duality gap {gap:.5f}  relative {100 * gap / abs(sim.value):.3f}%  "
    f"welfare loss {100 * welfare_loss(upper, sim.value, scenario.gamma):.4f}%"
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
face = sim.mean_face_value
t_left = sim.times[: len(face)]
print(f"mean face value at issue: {face[0]:+,.1f}")
for k in np.nonzero(np.diff(np.sign(face)))[0]:
    print(f"  switches sign near t = {t_left[k]:.2f}")
print(f"mean face value at t={t_left[-1]:g}: {face[-1]:+,.2f}")
