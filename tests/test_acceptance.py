"""End-to-end acceptance criteria at the reduced desk protocol.

Each test prints one ``[criterion N] PASS/FAIL`` line with the measured
quantities before asserting, so a transcript shows every verdict.  The
shared protocol is ``config.DESK_SCALE``, the one ``--desk-scale``
applies, with master seed 0 (run with ``-rA`` to see the lines for
passing tests too).

Where the anchors come from: the bound pair of criterion 1
(-8.4851 / -8.5064) is the affine row of the paper's Example 1 table,
the two pairs behind criterion 4 are that table's Example 1 and
Example 2 rows, and the face-value shape of criterion 9 follows the
paper's face-value figure and its finding that trading constraints
reduce life-insurance demand.  ``PAPER.md`` holds only the abstract,
not the table or the figure, so the parameters behind the anchors
cannot be checked against the presets from this repository.
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
    origin_upper_bound,
    precompute_aggregates,
)
from lifedual.config import build_run_config
from lifedual.drift_policy import init_params, make_policy
from lifedual.lower_bound import SimulationConfig, simulate_candidate_value
from lifedual.market import preset_scenario
from lifedual.mortality import MortalityModel
from lifedual.optimizer import minimize_upper_bound
from lifedual.quadrature import UniformGrid
from lifedual.report import build_report

from dual_reference import g_value, hjb_residual, upper_bound

DESK = build_run_config(desk_scale=True)
N_INTERVALS, OPT, SIM = DESK.n_intervals, DESK.optimizer, DESK.simulation
FACE_TOL_MARGIN = 2.0  # c in the face-value zero tolerance c * eps * mean wealth


def _path_g(scenario, n_steps):
    """g on the path grid, the grid of the certificate's two bounds."""
    return compute_g(scenario, UniformGrid(0.0, scenario.T, n_steps))


def _desk_run(preset: str, kind: str, activation: str = "relu"):
    # as ``lifedual run``: search on N_INTERVALS, certify on the path grid
    scenario = preset_scenario(preset)
    g = compute_g(scenario, UniformGrid(0.0, scenario.T, N_INTERVALS))
    cert = _path_g(scenario, SIM.n_steps)
    t0 = time.perf_counter()
    policy, _ = minimize_upper_bound(g, kind, OPT, seed=0, activation=activation)
    sim = simulate_candidate_value(cert, policy, SIM)
    runtime = time.perf_counter() - t0
    upper = origin_upper_bound(cert, policy)
    report = build_report(upper, sim.value, sim.std_error, scenario.gamma)
    return SimpleNamespace(
        scenario=scenario,
        cert=cert,
        policy=policy,
        upper=report.upper_bound,
        lower=report.lower_bound,
        std_error=report.lower_std_error,
        relative_gap=report.relative_gap,
        report=report,
        sim=sim,
        runtime=runtime,
    )


@pytest.fixture(scope="module")
def ex1_affine():
    return _desk_run("example1", "affine")


@pytest.fixture(scope="module")
def ex1_zero(ex1_affine):
    """The zero adjustment (unconstrained market) on the same normal stream."""
    r = ex1_affine
    zero = make_policy("affine", np.zeros(8), t_retire=r.scenario.T_R)
    return zero, simulate_candidate_value(r.cert, zero, SIM)


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
    # The method certifies lower <= value <= upper, so a candidate that
    # does better than the paper's must pass: the paper's lower bound is
    # a floor, and weak duality (within 3 s.e.) guards the other side.
    r = ex1_affine
    upper_ok = abs(r.upper - (-8.4851)) <= 0.01
    lower_floor = -8.5064 - 0.01
    lower_ok = r.lower >= lower_floor
    # no valid lower bound clears a floor that the upper bound lies below,
    # so such a miss is the upper anchor's, not a second finding
    lower_forced = not lower_ok and r.upper < lower_floor
    duality_margin = r.upper + 3.0 * r.std_error - r.lower
    duality_ok = duality_margin >= 0.0
    gap_ok = r.relative_gap <= 0.005
    time_ok = r.runtime <= 900.0
    failing = [
        name
        for name, ok in (
            ("upper anchor", upper_ok),
            ("lower floor", lower_ok or lower_forced),
            ("weak duality", duality_ok),
            ("gap", gap_ok),
            ("runtime", time_ok),
        )
        if not ok
    ]
    lower_note = "ok" if lower_ok else "off"
    if lower_forced:
        lower_note += ", forced by upper < floor"
    _verdict(
        1,
        upper_ok and lower_ok and duality_ok and gap_ok and time_ok,
        f"upper {r.upper:.7f} (target -8.4851±0.01: {'ok' if upper_ok else 'off'}), "
        f"lower {r.lower:.7f} (floor ≥{lower_floor:.4f}: {lower_note}), "
        f"weak-duality margin upper+3se-lower {duality_margin:+.5f} "
        f"(≥0: {'ok' if duality_ok else 'off'}), "
        f"relative gap {100 * r.relative_gap:.4f}% (≤0.5%: {'ok' if gap_ok else 'off'}), "
        f"runtime {r.runtime:.1f}s (≤900s: {'ok' if time_ok else 'off'})"
        + (f"; failing: {', '.join(failing)}" if failing else ""),
    )
    assert gap_ok and time_ok and duality_ok
    assert upper_ok, f"upper anchor: {r.upper:.7f} vs -8.4851±0.01"
    assert lower_ok, f"lower floor: {r.lower:.7f} < {lower_floor:.4f}"


def test_criterion_02_example1_network_parity(ex1_affine, ex1_relu):
    diff = abs(ex1_relu.upper - ex1_affine.upper)
    parity_ok = diff <= 0.005
    gap_ok = ex1_relu.relative_gap <= 0.005
    # a crossed pair has a negative gap, so the gap bound alone would pass it
    certs = {k: r.report.certificate for k, r in (("affine", ex1_affine), ("relu", ex1_relu))}
    cert_ok = all(c == "ordered" for c in certs.values())
    _verdict(
        2,
        parity_ok and gap_ok and cert_ok,
        f"ReLU upper {ex1_relu.upper:.7f} vs affine {ex1_affine.upper:.7f} "
        f"(|diff| {diff:.5f} ≤ 0.005: {'ok' if parity_ok else 'off'}), "
        f"relative gap {100 * ex1_relu.relative_gap:.4f}% (≤0.5%: {'ok' if gap_ok else 'off'}), "
        f"certificates affine {certs['affine']}, relu {certs['relu']} "
        f"(ordered: {'ok' if cert_ok else 'off'})",
    )
    assert parity_ok and gap_ok and cert_ok


def test_criterion_03_example2_activation_ordering(ex2_runs):
    gaps = {k: r.relative_gap for k, r in ex2_runs.items()}
    order_ok = gaps["snake"] < gaps["relu"] < gaps["affine"]
    snake_ok = gaps["snake"] <= 0.006
    affine_ok = gaps["affine"] >= 0.012
    # a crossed run's negative gap would sort first and pass the ordering
    crossed = [k for k, r in ex2_runs.items() if r.report.certificate != "ordered"]
    cert_ok = not crossed
    _verdict(
        3,
        order_ok and snake_ok and affine_ok and cert_ok,
        "relative gaps affine {affine:.4%}, relu {relu:.4%}, snake {snake:.4%}".format(
            **gaps
        )
        + f" (snake<relu<affine: {'ok' if order_ok else 'off'}, "
        f"snake≤0.6%: {'ok' if snake_ok else 'off'}, "
        f"affine≥1.2%: {'ok' if affine_ok else 'off'}, "
        f"all ordered: {'ok' if cert_ok else 'off, crossed ' + ', '.join(crossed)})",
    )
    assert order_ok and snake_ok and affine_ok and cert_ok


def test_criterion_04_welfare_loss_arithmetic():
    # the published pairs are ordered, so their certificates carry a loss
    loss1 = build_report(-8.4850600, -8.5064352, 0.0, 1.5).welfare_loss
    loss2 = build_report(-8.3259363, -8.3489955, 0.0, 1.5).welfare_loss
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

    bequest = lambda t, W: crra_utility(W, 1.5) * g_value(g, t) ** 1.5
    retire = lambda t, W: upper_bound(g, zero, t, W)
    working = lambda t, W, Y: upper_bound(g, zero, t, W, Y)

    worst = 0.0
    for _ in range(50):
        p = (rng.uniform(1.0, 49.0), rng.uniform(10.0, 300.0))
        worst = max(worst, abs(hjb_residual("bequest", bequest, p, g)))
    for _ in range(50):
        p = (rng.uniform(21.0, 49.0), rng.uniform(10.0, 300.0))
        worst = max(worst, abs(hjb_residual("retirement", retire, p, g, zero)))
    for _ in range(50):
        p = (rng.uniform(1.0, 19.0), rng.uniform(10.0, 300.0), rng.uniform(5.0, 100.0))
        worst = max(worst, abs(hjb_residual("working", working, p, g, zero)))
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
        ex1_affine.cert,
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
    cfg = SimulationConfig(n_paths=4096, n_steps=250)
    g = _path_g(scenario, cfg.n_steps)
    violations = []
    for i in range(10):
        pol = make_policy(
            "affine",
            np.abs(np.random.default_rng((100, i)).normal(0.0, 0.03, 8)),
            t_retire=scenario.T_R,
        )
        upper = origin_upper_bound(g, pol)
        sim = simulate_candidate_value(g, pol, cfg)
        if sim.value > upper + 3.0 * sim.std_error:
            violations.append(("affine", i, sim.value, upper))
    for i in range(10):
        pol = make_policy(
            "mlp",
            init_params("mlp", (200, i)),
            activation="snake" if i % 2 else "relu",
        )
        upper = origin_upper_bound(g, pol)
        sim = simulate_candidate_value(g, pol, cfg)
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


def test_criterion_09_face_value_spoon_shape(ex1_affine, ex1_zero):
    # Face value M* - W = (W + Y ann) g/F2~ - W.  For v >= 0 the F2~ rate
    # is at least g's rate, so F2~ <= g and the face value is >= Y ann > 0
    # over working life; from T_R on the fitted v* is 0, where F2~ = g
    # exactly, so the face value is zero up to the trapezoid mismatch
    # eps = max|g/F2~ - 1| of the zero adjustment on the path grid,
    # taken per phase: ~7.1e-8 over working life, ~1.24e-5 in retirement
    # at 1,000 steps.  One global eps would put the working-life floor
    # above Y ann near T_R.  Values within tol = c * eps(phase) * mean
    # wealth carry no sign.
    r = ex1_affine
    zero, sim0 = ex1_zero
    agg0 = precompute_aggregates(r.cert, zero)
    mismatch = np.abs(r.cert.values / agg0.tilde_f2 - 1.0)
    node_working = r.cert.grid.nodes < r.scenario.T_R
    eps_working = float(np.max(mismatch[node_working]))
    eps_retired = float(np.max(mismatch[~node_working]))
    face = r.sim.mean_face_value
    face0 = sim0.mean_face_value
    t_left = r.sim.times[:-1]
    wealth = r.sim.mean_wealth[:-1]
    working = t_left < r.scenario.T_R
    retired = ~working
    tol = FACE_TOL_MARGIN * np.where(working, eps_working, eps_retired) * wealth
    f0 = face[0]

    start_ok = f0 > 0.0
    above_ok = bool(np.all(face[working] > tol[working]))
    falling_ok = bool(np.all(np.diff(face[working]) <= 0.0))
    retired_ok = bool(np.all(np.abs(face[retired]) <= tol[retired]))
    signed = face[np.abs(face) > tol]
    sign_ok = bool(np.all(signed > 0.0) or np.all(signed < 0.0))
    idx_late = int(np.argmin(np.abs(t_left - 49.5)))
    late_ok = abs(face[idx_late]) < 0.05 * abs(f0)
    below_zero_ok = f0 < face0[0] and bool(
        np.all(face[working] <= face0[working] + tol[working])
    )
    k_min = int(np.argmin(face[working] - tol[working]))
    retired_peak = float(np.max(np.abs(face[retired]) / wealth[retired]))
    _verdict(
        9,
        start_ok and above_ok and falling_ok and retired_ok and sign_ok
        and late_ok and below_zero_ok,
        f"face(0) {f0:+.2f} (>0: {'ok' if start_ok else 'off'}); "
        f"eps working {eps_working:.4e}, retired {eps_retired:.4e}, "
        f"tol = {FACE_TOL_MARGIN:g}*eps(phase)*mean W; "
        f"before T_R: tightest face {face[working][k_min]:.3f} vs tol "
        f"{tol[working][k_min]:.3f} at t={t_left[working][k_min]:.2f} "
        f"(above: {'ok' if above_ok else 'off'}), "
        f"non-increasing: {'ok' if falling_ok else 'off'}; "
        f"from T_R: peak |face|/W {retired_peak:.4e} vs {FACE_TOL_MARGIN:g}*eps retired "
        f"(within tol: {'ok' if retired_ok else 'off'}); "
        f"no sign change beyond tol: {'ok' if sign_ok else 'off'}; "
        f"|face(49.5)| {abs(face[idx_late]):.2f} vs 5% of face(0) "
        f"{0.05 * abs(f0):.2f} ({'ok' if late_ok else 'off'}); "
        f"constrained vs zero-adjustment face(0) {f0:.2f} vs {face0[0]:.2f}, "
        f"below within tol before T_R: {'ok' if below_zero_ok else 'off'}",
    )
    assert start_ok and late_ok
    assert above_ok and falling_ok, "face value not positive and falling before T_R"
    assert retired_ok and sign_ok, "face value carries a sign beyond tol"
    assert below_zero_ok, "constrained face value above the zero-adjustment one"


def test_criterion_10_bit_identical_reruns(tmp_path):
    args = ["run", "--preset", "example1", "--desk-scale", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "bounds.csv").read_bytes()
    b = (tmp_path / "b" / "bounds.csv").read_bytes()
    ok = a == b
    _verdict(10, ok, f"bounds.csv identical across reruns: {ok} ({len(a)} bytes)")
    assert ok


# the desk certificates (upper, lower, s.e., budget z, martingale z at
# t = 12.5, 25, 37.5, 50) as the CLI's desk runs print them, captured at
# commit afa9beb; a change of the normal stream (ROADMAP item 3a)
# recaptures them
DESK_CERTIFICATES = {
    "example1 affine": (
        -9.451859789426367, -9.460286525154842, 0.013049421350367931, -0.5061911875788649,
        [1.9611301713527127, 2.0153471033737684, 2.015625278270482, -1.3627323745458375],
    ),
    "example2 snake": (
        -9.246768324691908, -9.266606689648292, 0.01178788050374896, -0.7346269739997169,
        [1.7532072976242796, 2.409575115290991, 1.8392453008470009, -1.347929685283498],
    ),
}


def test_desk_certificates_reproduce_their_goldens(ex1_affine, ex2_runs):
    runs = {"example1 affine": ex1_affine, "example2 snake": ex2_runs["snake"]}
    for name, (upper, lower, se, budget_z, zs) in DESK_CERTIFICATES.items():
        r = runs[name]
        got = (r.upper, r.lower, r.std_error, r.sim.budget.z_score)
        assert got == pytest.approx((upper, lower, se, budget_z), rel=1e-12), name
        assert [t for t, _ in r.sim.martingale_z] == [12.5, 25.0, 37.5, 50.0], name
        assert [z for _, z in r.sim.martingale_z] == pytest.approx(zs, rel=1e-12), name
