"""Config parsing, report arithmetic, CSV artifacts, CLI exit codes."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

import lifedual.cli
import lifedual.lower_bound
from lifedual.cli import main
from lifedual.closed_form import compute_g, origin_upper_bound, welfare_loss
from lifedual.config import DESK_SCALE, build_run_config, parse_kv_file
from lifedual.constraints import ConstraintKind
from lifedual.drift_policy import init_params, make_policy
from lifedual.errors import NumericalError, ValidationError
from lifedual.lower_bound import SimulationConfig, simulate_candidate_value
from lifedual.market import preset_scenario
from lifedual.optimizer import OptimizerConfig, minimize_upper_bound
from lifedual.quadrature import UniformGrid
from lifedual.report import build_report, emit_csv, read_vstar_csv

SMALL_RUN_CFG = """\
# reduced pipeline-exercise protocol
opt.num_starts = 2
opt.iterations_per_start = 0
quadrature.n_intervals = 50
sim.n_paths = 4096
sim.n_steps = 200
"""

VERIFY_CFG = """\
opt.num_starts = 2
opt.iterations_per_start = 25
quadrature.n_intervals = 100
sim.n_paths = 8192
sim.n_steps = 500
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_kv_file_basics(tmp_path):
    path = _write(
        tmp_path,
        "a.cfg",
        "# comment\n\nscenario.w0 = 150\npolicy.kind= mlp # trailing comment\n"
        "opt.algorithm =NelderMead\nsim.note = a=b\n",
    )
    kv = parse_kv_file(path)
    assert kv == {
        "scenario.w0": "150",
        "policy.kind": "mlp",
        "opt.algorithm": "NelderMead",
        "sim.note": "a=b",  # only the first '=' splits
    }


def test_parse_kv_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        parse_kv_file(str(tmp_path / "missing.cfg"))
    bad = _write(tmp_path, "bad.cfg", "just words\n")
    with pytest.raises(ValidationError, match=":1:"):
        parse_kv_file(bad)
    dup = _write(tmp_path, "dup.cfg", "seed = 1\nseed = 2\n")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_kv_file(dup)
    empty_key = _write(tmp_path, "ek.cfg", "= 3\n")
    with pytest.raises(ValidationError, match="empty key"):
        parse_kv_file(empty_key)


def test_build_run_config_precedence():
    # desk scale trumps the file value
    cfg = build_run_config({"sim.n_paths": "7777"}, desk_scale=True)
    assert cfg.simulation.n_paths == int(DESK_SCALE["sim.n_paths"])
    # explicit seed trumps the file seed and threads into the simulation
    cfg = build_run_config({"seed": "9"}, seed=3)
    assert cfg.seed == 3 and cfg.simulation.seed == 3
    assert build_run_config({"seed": "9"}).seed == 9
    # explicit preset trumps the file preset
    cfg = build_run_config({"scenario.preset": "example2"})
    assert cfg.preset == "example2" and cfg.scenario.mu.amplitude == 0.03
    cfg = build_run_config({"scenario.preset": "example2"}, preset="example1")
    assert cfg.preset == "example1" and cfg.scenario.mu.amplitude == 0.0
    # explicit out dir trumps the file out dir
    assert build_run_config({"out.dir": "cfg"}, out_dir="cli").out_dir == "cli"
    assert build_run_config({"out.dir": "cfg"}).out_dir == "cfg"


def test_build_run_config_curve_spellings():
    kv = {
        "scenario.mu.base": "0.07",
        "scenario.mu.amplitude": "0.03",
        "scenario.mu.frequency": "0.5",
        "scenario.r.table": "0:0.02, 25:0.03",
    }
    sc = build_run_config(kv).scenario
    assert sc.mu(np.pi) == pytest.approx(0.07 + 0.03 * np.sin(0.5 * np.pi))
    assert sc.r(12.5) == pytest.approx(0.025)
    assert sc.r(40.0) == pytest.approx(0.03)  # flat extrapolation
    with pytest.raises(ValidationError, match="both"):
        build_run_config({"scenario.r": "0.02", "scenario.r.base": "0.03"})
    with pytest.raises(ValidationError, match="table"):
        build_run_config({"scenario.r.table": "0:0.02", "scenario.r.amplitude": "0.1"})
    with pytest.raises(ValidationError, match="t:value"):
        build_run_config({"scenario.r.table": "0.02"})


def test_build_run_config_constraint_and_unknown_keys():
    cfg = build_run_config(
        {"constraint.kind": "min_capital", "constraint.min_capital": "5"}
    )
    assert cfg.constraint.kind is ConstraintKind.MIN_CAPITAL
    assert cfg.constraint.min_capital == 5.0
    assert build_run_config({}).constraint is None
    with pytest.raises(ValidationError):
        build_run_config({"constraint.kind": "nope"})
    with pytest.raises(ValidationError, match="scenario.w00"):
        build_run_config({"scenario.w00": "1"})
    with pytest.raises(ValidationError):
        build_run_config({"policy.kind": "spline"})


# ---------------------------------------------------------------------------
# report arithmetic and artifact round trips


def test_build_report_identities():
    rep = build_report(
        method="affine",
        activation=None,
        upper_bound=-8.0,
        lower_bound=-8.2,
        lower_std_error=0.01,
        gamma=1.5,
        wall_clock={"total": 1.0},
        policy_params=(0.0,) * 8,
        vstar_times=[0.0, 50.0],
        vstar_v0=[0.0, 0.0],
        vstar_v_minus=[0.0, 0.0],
        provenance={"seed": 0},
    )
    assert rep.duality_gap == abs(rep.upper_bound - rep.lower_bound)
    assert rep.relative_gap == rep.duality_gap / abs(rep.lower_bound)
    assert rep.welfare_loss == welfare_loss(-8.0, -8.2, 1.5)


def test_build_report_rejects_crossed_bounds():
    with pytest.raises(NumericalError):
        build_report(
            method="affine",
            activation=None,
            upper_bound=-9.0,
            lower_bound=-8.0,
            lower_std_error=0.001,
            gamma=1.5,
            wall_clock={},
            policy_params=(),
            vstar_times=[0.0],
            vstar_v0=[0.0],
            vstar_v_minus=[0.0],
            provenance={},
        )


def test_vstar_round_trip_reproduces_the_bound(tmp_path):
    sc = preset_scenario("example1")
    g = compute_g(sc, UniformGrid(0.0, sc.T, 50))
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=15)
    policy, trace = minimize_upper_bound(sc, g, "affine", cfg, seed=2)
    sim = simulate_candidate_value(
        sc, g, policy, SimulationConfig(n_paths=256, n_steps=50)
    )
    v0, vm = policy(g.grid.nodes)
    rep = build_report(
        method="affine",
        activation=None,
        upper_bound=trace.best_objective,
        lower_bound=sim.value,
        lower_std_error=sim.std_error,
        gamma=sc.gamma,
        wall_clock={},
        policy_params=policy.params,
        vstar_times=g.grid.nodes,
        vstar_v0=v0,
        vstar_v_minus=vm,
        provenance={"seed": 2},
    )
    paths = emit_csv(rep, sim, trace, str(tmp_path))
    vstar_path = [p for p in paths if p.endswith("vstar.csv")][0]
    table = read_vstar_csv(vstar_path)
    # the bound only reads the adjustment at the grid nodes, and 17
    # significant digits reproduce them exactly
    revalued = origin_upper_bound(sc, g, table)
    assert revalued == pytest.approx(trace.best_objective, abs=1e-10)


def test_read_vstar_csv_rejects_other_headers(tmp_path):
    path = _write(tmp_path, "x.csv", "a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError, match="header"):
        read_vstar_csv(path)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_wellformed_artifacts(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0

    header, rows = _read_csv(out / "bounds.csv")
    assert header[:8] == [
        "method",
        "activation",
        "upper_bound",
        "lower_bound",
        "lower_std_error",
        "duality_gap",
        "relative_gap",
        "welfare_loss",
    ]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    upper, lower = float(row["upper_bound"]), float(row["lower_bound"])
    assert lower <= upper + 3.0 * float(row["lower_std_error"])
    assert float(row["duality_gap"]) == abs(upper - lower)
    assert float(row["relative_gap"]) == abs(upper - lower) / abs(lower)
    assert row["seed"] == "0" and row["n_paths"] == "4096"

    _, vrows = _read_csv(out / "vstar.csv")
    assert len(vrows) == 51  # quadrature nodes
    assert all(float(r[1]) >= 0 and float(r[2]) >= 0 for r in vrows)

    _, frows = _read_csv(out / "facevalue.csv")
    assert len(frows) == 200  # one per simulation step
    _, wrows = _read_csv(out / "wealth.csv")
    assert len(wrows) == 201  # step boundaries
    assert wrows[0][1] == "200"  # W0
    assert wrows[-1][2] == ""  # no terminal consumption
    assert all(r[2] != "" for r in wrows[:-1])

    _, trows = _read_csv(out / "trace.csv")
    assert len(trows) == 2  # two starts, zero solver iterations
    assert (out / "report.txt").read_text(encoding="utf-8").startswith(
        "life-cycle duality bounds"
    )


def test_cli_run_is_deterministic(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "1"]) == 0
    a = (tmp_path / "a" / "bounds.csv").read_bytes()
    b = (tmp_path / "b" / "bounds.csv").read_bytes()
    assert a == b


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--preset", "example1"]) == 0
    assert "valid" in capsys.readouterr().out
    bad = _write(tmp_path, "bad.cfg", "scenario.sigma_y = 0.3\n")
    assert main(["validate", "--config", bad]) == 1
    assert "income_vol_dominated" in capsys.readouterr().out


def test_cli_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing]) == 1
    assert "error:" in capsys.readouterr().err
    typo = _write(tmp_path, "typo.cfg", "sim.npaths = 100\n")
    assert main(["run", "--config", typo]) == 1
    # run refuses an invalid scenario before any heavy work
    bad = _write(tmp_path, "bad.cfg", "scenario.sigma_y = 0.3\n")
    assert main(["run", "--config", bad, "--out", str(tmp_path)]) == 1


def test_cli_verify_passes_for_optimized_policy(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.cfg", VERIFY_CFG)
    assert main(["verify", "--config", cfg, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    assert out.count("kernel martingale") == 4


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_draws_one_normal_stream(tmp_path, monkeypatch, command):
    calls = []
    draw = lifedual.lower_bound.sobol_normals

    def counting(config):
        calls.append(config)
        return draw(config)

    monkeypatch.setattr(lifedual.lower_bound, "sobol_normals", counting)
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_non_finite_dual_check_exits_2(tmp_path, monkeypatch, capsys, command):
    sc = preset_scenario("example1")
    extreme = make_policy(
        "affine", np.abs(init_params("affine", (100, 1), affine_std=0.03)), t_retire=sc.T_R
    )
    simulate = lifedual.cli.simulate_candidate_value
    monkeypatch.setattr(
        lifedual.cli,
        "simulate_candidate_value",
        lambda scenario, g, policy, config: simulate(scenario, g, extreme, config),
    )
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_readme_config_example_is_accepted(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = build_run_config(parse_kv_file(_write(tmp_path, "readme.cfg", block)))
    assert cfg.policy_kind == "mlp" and cfg.simulation.n_paths == 20000


def test_cli_gfun_matches_library_curve(tmp_path):
    out = tmp_path / "g"
    assert main(["gfun", "--preset", "example1", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "gfun.csv")
    assert header == ["t", "g"]
    sc = preset_scenario("example1")
    g = compute_g(sc, UniformGrid(0.0, sc.T, 100))
    assert len(rows) == 101
    assert [float(r[1]) for r in rows] == pytest.approx(list(g.values), rel=1e-15)
    assert float(rows[-1][1]) == 1.0
