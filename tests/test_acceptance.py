"""End-to-end acceptance criteria at the reduced desk protocol.

Each test prints one ``[criterion N] PASS/FAIL`` line with the measured
quantities before asserting, so a transcript shows every verdict.  The
shared protocol is 5 starts x 50 iterations on the n=100 quadrature
grid with 20,000 Sobol paths x 1,000 steps, master seed 0 (run with
``-rA`` to see the lines for passing tests too).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from lifedual.cli import main
from lifedual.closed_form import (
    compute_g,
    crra_utility,
    g_value,
    hjb_residual,
    origin_upper_bound,
    upper_bound_retirement,
    upper_bound_working,
    welfare_loss,
)
from lifedual.drift_policy import init_params, make_policy
from lifedual.lower_bound import SimulationConfig, simulate_candidate_value
from lifedual.market import preset_scenario
from lifedual.mortality import MortalityModel
from lifedual.optimizer import OptimizerConfig, minimize_upper_bound
from lifedual.quadrature import UniformGrid

N_INTERVALS = 100
OPT = OptimizerConfig(num_starts=5, iterations_per_start=50)
SIM = SimulationConfig(n_paths=20000, n_steps=1000)


def _desk_run(preset: str, kind: str, activation: str = "relu"):
    scenario = preset_scenario(preset)
    g = compute_g(scenario, UniformGrid(0.0, scenario.T, N_INTERVALS))
    t0 = time.perf_counter()
    policy, trace = minimize_upper_bound(
        scenario, g, kind, OPT, seed=0, activation=activation
    )
    sim = simulate_candidate_value(scenario, g, policy, SIM)
    runtime = time.perf_counter() - t0
    upper, lower = trace.best_objective, sim.value
    return SimpleNamespace(
        scenario=scenario,
        g=g,
        policy=policy,
        upper=upper,
        lower=lower,
        std_error=sim.std_error,
        relative_gap=abs(upper - lower) / abs(lower),
        sim=sim,
        runtime=runtime,
    )


@pytest.fixture(scope="module")
def ex1_affine():
    return _desk_run("example1", "affine")


@pytest.fixture(scope="module")
def ex1_relu():
    return _desk_run("example1", "mlp", "relu")


@pytest.fixture(scope="module")
def ex2_runs():
    return {
        "affine": _desk_run("example2", "affine"),
        "relu": _desk_run("example2", "mlp", "relu"),
        "snake": _desk_run("example2", "mlp", "snake"),
    }


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_example1_affine_bounds(ex1_affine):
    r = ex1_affine
    upper_ok = abs(r.upper - (-8.4851)) <= 0.01
    lower_ok = abs(r.lower - (-8.5064)) <= 0.01
    gap_ok = r.relative_gap <= 0.005
    time_ok = r.runtime <= 900.0
    _verdict(
        1,
        upper_ok and lower_ok and gap_ok and time_ok,
        f"upper {r.upper:.7f} (target -8.4851±0.01: {'ok' if upper_ok else 'off'}), "
        f"lower {r.lower:.7f} (target -8.5064±0.01: {'ok' if lower_ok else 'off'}), "
        f"relative gap {100 * r.relative_gap:.4f}% (≤0.5%: {'ok' if gap_ok else 'off'}), "
        f"runtime {r.runtime:.1f}s (≤900s: {'ok' if time_ok else 'off'})",
    )
    assert gap_ok and time_ok
    assert upper_ok and lower_ok


def test_criterion_02_example1_network_parity(ex1_affine, ex1_relu):
    diff = abs(ex1_relu.upper - ex1_affine.upper)
    parity_ok = diff <= 0.005
    gap_ok = ex1_relu.relative_gap <= 0.005
    _verdict(
        2,
        parity_ok and gap_ok,
        f"ReLU upper {ex1_relu.upper:.7f} vs affine {ex1_affine.upper:.7f} "
        f"(|diff| {diff:.5f} ≤ 0.005: {'ok' if parity_ok else 'off'}), "
        f"relative gap {100 * ex1_relu.relative_gap:.4f}% (≤0.5%: {'ok' if gap_ok else 'off'})",
    )
    assert parity_ok and gap_ok


def test_criterion_03_example2_activation_ordering(ex2_runs):
    gaps = {k: r.relative_gap for k, r in ex2_runs.items()}
    order_ok = gaps["snake"] < gaps["relu"] < gaps["affine"]
    snake_ok = gaps["snake"] <= 0.006
    affine_ok = gaps["affine"] >= 0.012
    _verdict(
        3,
        order_ok and snake_ok and affine_ok,
        "relative gaps affine {affine:.4%}, relu {relu:.4%}, snake {snake:.4%}".format(
            **gaps
        )
        + f" (snake<relu<affine: {'ok' if order_ok else 'off'}, "
        f"snake≤0.6%: {'ok' if snake_ok else 'off'}, "
        f"affine≥1.2%: {'ok' if affine_ok else 'off'})",
    )
    assert order_ok and snake_ok and affine_ok


def test_criterion_04_welfare_loss_arithmetic():
    loss1 = welfare_loss(-8.4850600, -8.5064352, 1.5)
    loss2 = welfare_loss(-8.3259363, -8.3489955, 1.5)
    ok1 = abs(loss1 - 0.005019) <= 1e-6
    ok2 = abs(loss2 - 0.005516) <= 1e-6
    _verdict(
        4,
        ok1 and ok2,
        f"loss {100 * loss1:.4f}% (target 0.5019%), {100 * loss2:.4f}% (target 0.5516%)",
    )
    assert ok1 and ok2


def test_criterion_05_hjb_residual_suite():
    scenario = preset_scenario("example1")
    g = compute_g(scenario, UniformGrid(0.0, scenario.T, 400))
    zero = make_policy("affine", np.zeros(8), t_retire=scenario.T_R)
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()

    bequest = lambda t, W: crra_utility(W, 1.5) * g_value(scenario, t, 400) ** 1.5
    retire = lambda t, W: upper_bound_retirement(scenario, g, zero, t, W, 400).value
    working = lambda t, W, Y: upper_bound_working(scenario, g, zero, t, W, Y, 400).value

    worst = 0.0
    for _ in range(50):
        p = (rng.uniform(1.0, 49.0), rng.uniform(10.0, 300.0))
        worst = max(worst, abs(hjb_residual("bequest", bequest, p, scenario)))
    for _ in range(50):
        p = (rng.uniform(21.0, 49.0), rng.uniform(10.0, 300.0))
        worst = max(worst, abs(hjb_residual("retirement", retire, p, scenario, zero)))
    for _ in range(50):
        p = (rng.uniform(1.0, 19.0), rng.uniform(10.0, 300.0), rng.uniform(5.0, 100.0))
        worst = max(worst, abs(hjb_residual("working", working, p, scenario, zero)))
    elapsed = time.perf_counter() - t0

    res_ok = worst < 1e-4
    time_ok = elapsed < 10.0
    _verdict(
        5,
        res_ok and time_ok,
        f"max |residual| {worst:.2e} (<1e-4: {'ok' if res_ok else 'off'}) "
        f"over 150 points in {elapsed:.1f}s (<10s: {'ok' if time_ok else 'off'})",
    )
    assert res_ok and time_ok


def test_criterion_06_budget_identity(ex1_affine):
    t0 = time.perf_counter()
    chk = simulate_candidate_value(
        ex1_affine.scenario,
        ex1_affine.g,
        ex1_affine.policy,
        SimulationConfig(n_paths=2**14, n_steps=1000),
    ).budget
    elapsed = time.perf_counter() - t0
    z_ok = abs(chk.z_score) <= 3.0
    time_ok = elapsed < 60.0
    _verdict(
        6,
        z_ok and time_ok,
        f"z {chk.z_score:+.3f} (|z|≤3: {'ok' if z_ok else 'off'}), "
        f"lhs {chk.lhs:.4f} rhs {chk.rhs:.4f}, {elapsed:.1f}s",
    )
    assert z_ok and time_ok


def test_criterion_07_weak_duality_random_policies():
    scenario = preset_scenario("example1")
    g = compute_g(scenario, UniformGrid(0.0, scenario.T, N_INTERVALS))
    cfg = SimulationConfig(n_paths=4096, n_steps=250)
    violations = []
    for i in range(10):
        pol = make_policy(
            "affine",
            np.abs(init_params("affine", (100, i), affine_std=0.03)),
            t_retire=scenario.T_R,
        )
        upper = origin_upper_bound(scenario, g, pol)
        sim = simulate_candidate_value(scenario, g, pol, cfg)
        if sim.value > upper + 3.0 * sim.std_error:
            violations.append(("affine", i, sim.value, upper))
    for i in range(10):
        pol = make_policy(
            "mlp",
            init_params("mlp", (200, i)),
            activation="snake" if i % 2 else "relu",
        )
        upper = origin_upper_bound(scenario, g, pol)
        sim = simulate_candidate_value(scenario, g, pol, cfg)
        if sim.value > upper + 3.0 * sim.std_error:
            violations.append(("mlp", i, sim.value, upper))
    _verdict(
        7,
        not violations,
        f"Jbar ≤ J~ + 3 s.e. for 20/20 random policies"
        if not violations
        else f"violations: {violations}",
    )
    assert not violations


def test_criterion_08_mortality_oracle():
    mort = MortalityModel(x=45.0, m=86.3, b=9.5)
    integral, err = quad(lambda s: mort.hazard(s), 0.0, 50.0, epsabs=1e-13, limit=200)
    assert err < 1e-11
    surv_diff = abs(mort.survival(50.0) - np.exp(-integral))
    add_worst = max(
        abs(
            mort.cumulative_hazard(0.0, 50.0)
            - mort.cumulative_hazard(0.0, t)
            - mort.cumulative_hazard(t, 50.0)
        )
        for t in (1.0, 7.3, 20.0, 33.617, 49.5)
    )
    surv_ok = surv_diff <= 1e-10
    add_ok = add_worst <= 1e-14
    _verdict(
        8,
        surv_ok and add_ok,
        f"survival(50) vs quadrature diff {surv_diff:.2e} (≤1e-10: "
        f"{'ok' if surv_ok else 'off'}), additivity worst {add_worst:.2e} "
        f"(≤1e-14: {'ok' if add_ok else 'off'})",
    )
    assert surv_ok and add_ok


def test_criterion_09_face_value_spoon_shape(ex1_affine):
    face = ex1_affine.sim.mean_face_value
    t_left = ex1_affine.sim.times[:-1]
    f0 = face[0]
    start_ok = f0 > 0.0
    sign_flips = np.nonzero(np.diff(np.sign(face)) != 0)[0]
    t_cross = float(t_left[sign_flips[0] + 1]) if sign_flips.size else None
    cross_ok = t_cross is not None and 10.0 < t_cross < 20.0
    idx_late = int(np.argmin(np.abs(t_left - 49.5)))
    late_ok = abs(face[idx_late]) < 0.05 * abs(f0)
    _verdict(
        9,
        start_ok and cross_ok and late_ok,
        f"face(0) {f0:+.2f} (>0: {'ok' if start_ok else 'off'}), "
        f"zero crossing at {'t=%.2f' % t_cross if t_cross is not None else 'none'} "
        f"(in (10,20): {'ok' if cross_ok else 'off'}), "
        f"|face(49.5)| {abs(face[idx_late]):.2f} vs 5% of face(0) "
        f"{0.05 * abs(f0):.2f} ({'ok' if late_ok else 'off'})",
    )
    assert start_ok and late_ok
    assert cross_ok


def test_criterion_10_bit_identical_reruns(tmp_path):
    args = ["run", "--preset", "example1", "--desk-scale", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "bounds.csv").read_bytes()
    b = (tmp_path / "b" / "bounds.csv").read_bytes()
    ok = a == b
    _verdict(10, ok, f"bounds.csv identical across reruns: {ok} ({len(a)} bytes)")
    assert ok
