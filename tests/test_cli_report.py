"""Config parsing, report arithmetic, CSV artifacts, CLI exit codes."""

import csv
import dataclasses
import os
import pickle
import re
import subprocess
import sys
import tomllib
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lifedual
import lifedual.cli
import lifedual.drift_policy
import lifedual.lower_bound
import lifedual.market
import lifedual.report
from lifedual.cli import main
from lifedual.closed_form import compute_g, origin_upper_bound
from lifedual.config import (
    _MORTALITY_KEYS,
    _OPTIMIZER_KEYS,
    _RUN_KEYS,
    _SCENARIO_KEYS,
    _SIMULATION_KEYS,
    DESK_SCALE,
    RunConfig,
    build_run_config,
    parse_kv_file,
)
from lifedual.drift_policy import make_policy
from lifedual.errors import NumericalError, ValidationError
from lifedual.lower_bound import SimulationConfig, simulate_candidate_value
from lifedual.market import preset_scenario
from lifedual.optimizer import OptimizerConfig, StartOutcome, minimize_upper_bound
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


def _record(path, value):
    """Append ``value`` to ``path``, pickled.

    run and verify call the library in their forked certificate worker,
    so a wrapper there records into a file, not into this process.
    """
    with open(path, "ab") as fh:
        pickle.dump(value, fh)


def _recorded(path):
    """Every value ``_record`` appended to ``path``, in order."""
    values = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            values.append(pickle.load(fh))
    return values


# ---------------------------------------------------------------------------
# config parsing


def test_parse_kv_file_basics(tmp_path):
    path = _write(
        tmp_path,
        "a.cfg",
        "# comment\n\nscenario.w0 = 150\npolicy.kind= mlp # trailing comment\n"
        "opt.num_starts =7\nsim.note = a=b\n",
    )
    kv = parse_kv_file(path)
    assert kv == {
        "scenario.w0": "150",
        "policy.kind": "mlp",
        "opt.num_starts": "7",
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


def test_parse_kv_file_rejects_text_that_is_not_utf8(tmp_path, capsys):
    # a typed error naming the file, not a bare UnicodeDecodeError
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"seed = 0\n\xff\xfe\x00\x01\n")
    with pytest.raises(ValidationError, match=f"^cannot read config file: {re.escape(str(path))} "):
        parse_kv_file(str(path))
    assert main(["validate", "--config", str(path)]) == 1
    assert "error: cannot read config file" in capsys.readouterr().err


def test_build_run_config_precedence():
    # desk scale trumps the file value
    cfg = build_run_config({"sim.n_paths": "7777"}, desk_scale=True)
    assert cfg.simulation.n_paths == int(DESK_SCALE["sim.n_paths"])
    # explicit seed trumps the file seed
    cfg = build_run_config({"seed": "9"}, seed=3)
    assert cfg.seed == 3
    assert build_run_config({"seed": "9"}).seed == 9
    # explicit preset trumps the file preset
    cfg = build_run_config({"scenario.preset": "example2"})
    assert cfg.preset == "example2" and cfg.scenario.mu.amplitude == 0.03
    cfg = build_run_config({"scenario.preset": "example2"}, preset="example1")
    assert cfg.preset == "example1" and cfg.scenario.mu.amplitude == 0.0
    # explicit out dir trumps the file out dir
    assert build_run_config({"out.dir": "cfg"}, out_dir="cli").out_dir == "cli"
    assert build_run_config({"out.dir": "cfg"}).out_dir == "cfg"
    # unset keys keep the dataclass defaults
    assert build_run_config({}) == RunConfig(scenario=preset_scenario("example1"))


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
    for key, value in (
        ("scenario.r", "high"),
        ("scenario.mu.amplitude", "high"),
        ("scenario.mu.table", "0:nan"),
        ("scenario.sigma_y", "inf"),
    ):
        with pytest.raises(ValidationError, match=f"{key}: expected a finite number"):
            build_run_config({key: value})


def test_build_run_config_unknown_keys():
    # the constraint descriptor, the optimizer choice, the BFGS
    # tolerances and the initialization scales are not config keys
    for key, value in (
        ("constraint.kind", "short_sale"),
        ("constraint.min_capital", "5"),
        ("opt.algorithm", "BFGS"),
        ("opt.obj_tol", "1e-10"),
        ("opt.param_tol", "1e-12"),
        ("policy.affine_init_std", "0.01"),
        ("policy.mlp_init_std", "0.01"),
    ):
        with pytest.raises(ValidationError, match=f"unknown config keys: \\['{key}'\\]"):
            build_run_config({key: value})
    with pytest.raises(ValidationError, match="scenario.w00"):
        build_run_config({"scenario.w00": "1"})
    with pytest.raises(ValidationError):
        build_run_config({"policy.kind": "spline"})
    # the activation is checked for the affine kind too
    with pytest.raises(ValidationError, match="activation"):
        build_run_config({"policy.activation": "tanh"})


# ---------------------------------------------------------------------------
# report arithmetic and artifact round trips


def test_build_report_identities():
    rep = build_report(-8.0, -8.2, 0.01, 1.5)
    assert rep.duality_gap == rep.upper_bound - rep.lower_bound > 0
    assert rep.relative_gap == rep.duality_gap / abs(rep.lower_bound)
    assert rep.certificate == "ordered"
    assert rep.welfare_loss == 1.0 - (-8.2 / -8.0) ** (1.0 / (1.0 - 1.5))
    # crossed within 3 s.e.: the gaps keep their sign, no welfare loss
    crossed = build_report(-8.2, -8.19, 0.01, 1.5)
    assert crossed.duality_gap == -8.2 - -8.19 < 0
    assert crossed.relative_gap == crossed.duality_gap / 8.19
    assert crossed.certificate == "crossed" and crossed.welfare_loss is None


def test_build_report_welfare_loss_published_identities():
    assert build_report(-8.4850600, -8.5064352, 0.0, 1.5).welfare_loss == pytest.approx(
        0.005019, abs=1e-6
    )
    assert build_report(-8.3259363, -8.3489955, 0.0, 1.5).welfare_loss == pytest.approx(
        0.005516, abs=1e-6
    )
    # an ordered pair's loss needs gamma > 1 and both bounds negative
    with pytest.raises(ValidationError, match="gamma > 1"):
        build_report(-8.0, -8.5, 0.0, 1.0)
    with pytest.raises(ValidationError, match="strictly negative"):
        build_report(8.0, -8.5, 0.0, 1.5)
    # a crossed pair has no loss, so neither check applies to it
    crossed = build_report(-8.5, -8.0, 1.0, 1.0)
    assert crossed.certificate == "crossed" and crossed.welfare_loss is None


def test_build_report_rejects_crossed_bounds():
    with pytest.raises(NumericalError):
        build_report(-9.0, -8.0, 0.001, 1.5)
    with pytest.raises(NumericalError, match="non-finite"):
        build_report(-9.0, float("nan"), 0.001, 1.5)


@settings(max_examples=200, deadline=None)
@given(
    upper=st.floats(-1e6, -1e-6),
    lower=st.floats(-1e6, -1e-6),
    std_error=st.floats(0.0, 10.0),
    gamma=st.floats(1.01, 10.0),
)
def test_build_report_certificate_property(upper, lower, std_error, gamma):
    try:
        rep = build_report(upper, lower, std_error, gamma)
    except NumericalError:
        assert lower > upper + 3.0 * std_error
        return
    numbers = dataclasses.astuple(rep)
    assert all(np.isfinite(x) for x in numbers if x is not None)
    assert rep.duality_gap == upper - lower
    assert rep.certificate == ("ordered" if upper >= lower else "crossed")
    assert (rep.welfare_loss is None) == (lower > upper)


def test_vstar_round_trip_reproduces_the_bound(tmp_path):
    # the fit searches on 50 intervals and the certificate reads the path
    # grid of 100 steps; vstar.csv tabulates the policy where the bound
    # reads it, and 17 significant digits reproduce the values exactly
    sc = preset_scenario("example1")
    g = compute_g(sc, UniformGrid(0.0, sc.T, 50))
    cert = compute_g(sc, UniformGrid(0.0, sc.T, 100))
    cfg = OptimizerConfig(num_starts=1, iterations_per_start=15)
    policy, outcomes = minimize_upper_bound(g, "affine", cfg, seed=2)
    upper = origin_upper_bound(cert, policy)
    sim = simulate_candidate_value(
        cert, policy, SimulationConfig(n_paths=256, n_steps=100)
    )
    rep = build_report(upper, sim.value, sim.std_error, sc.gamma)
    run = RunConfig(scenario=sc, n_intervals=50, out_dir=str(tmp_path), seed=2)
    paths = emit_csv(rep, run, policy, outcomes, sim, {})
    vstar_path = [p for p in paths if p.endswith("vstar.csv")][0]
    table = read_vstar_csv(vstar_path)
    assert table.times == tuple(cert.grid.nodes)
    assert origin_upper_bound(cert, table) == upper


_PINNED_CSVS = {
    "bounds.csv": [
        "method,activation,upper_bound,lower_bound,lower_std_error,duality_gap,relative_gap,"
        "welfare_loss,seed,n_intervals,n_paths,n_steps,sobol_skip,num_starts,"
        "iterations_per_start,certificate",
        "affine,,-9.25,-9.5,0.125,0.25,0.026315789473684209,0.051939058171745045,"
        "7,100,20000,1000,4000,2,50,ordered",
    ],
    "vstar.csv": ["t,v0,v_minus", "0,0.10000000000000001,0.25", "20,0.125,0", "50,0.125,0"],
    "trace.csv": ["iteration,incumbent_objective,start_id", "0,-9,0", "1,-9.25,0", "0,-8.5,1"],
    "facevalue.csv": ["t,mean_face_value", "0,150.5", "20,0.10000000000000001"],
    "wealth.csv": [
        "t,mean_wealth,mean_consumption", "0,200,12.5", "20,310.25,0.33333333333333331", "50,0,",
    ],
}

_PINNED_REPORT = """\
life-cycle duality bounds
=========================
method:            affine
upper bound:       -9.25
lower bound:       -9.5
lower std error:   0.125
certificate:       ordered
duality gap:       0.25
relative gap:      2.6315789473684208 %
welfare loss:      5.1939058171745049 %

wall clock [s]:
  g_function   0.001
  optimize     0.500
  total        0.501

dual checks:
  budget identity: lhs 900.5, rhs 900, z -0.25
  kernel martingale at t=12.5: z 1.5
  kernel martingale at t=50: z -0.5

provenance:
  activation = {empty}
  budget_z = -0.2500
  code_version = {code}
  iterations_per_start = 50
  n_intervals = 100
  n_paths = 20000
  n_steps = 1000
  num_starts = 2
  numpy_version = {numpy}
  policy_kind = affine
  preset = example1
  scipy_version = {scipy}
  seed = 7
  snake_a = {empty}
  sobol_skip = 4000
  {normals}

policy parameters:
  0.10000000000000001, 0, 0.25, 0, 0.125, 0, 0, 0

optimizer starts (the last attempt's solver outcome; |grad| at the final point):
  start  0: final -9.25, status 0, nit 1, nfev 7, redraws 1, |grad| 1.000e-11: gradient below tolerance
  start  1: final -8.5, status 1, nit 0, nfev 3, redraws 0, |grad| 5.000e-01: iteration limit reached
"""


def test_emit_csv_writes_the_pinned_artifact_text(tmp_path):
    # a hand-built run: every artifact's full text, with its header,
    # %.17g floats, the empty terminal consumption cell and CRLF rows;
    # report.txt is pinned outside its peak-RSS numbers
    out = tmp_path / "nested" / "out"
    cfg = build_run_config({"opt.num_starts": "2"}, out_dir=str(out), seed=7)
    policy = make_policy(
        "affine", (0.1, 0.0, 0.25, 0.0, 0.125, 0.0, 0.0, 0.0), t_retire=cfg.scenario.T_R
    )
    sim = SimpleNamespace(
        times=np.array([0.0, 20.0, 50.0]),
        mean_face_value=np.array([150.5, 0.1]),
        mean_wealth=np.array([200.0, 310.25, 0.0]),
        mean_consumption=np.array([12.5, 1.0 / 3.0]),
        budget=SimpleNamespace(lhs=900.5, rhs=900.0, z_score=-0.25),
        martingale_z=[(12.5, 1.5), (50.0, -0.5)],
    )
    outcomes = [
        StartOutcome(0, "gradient below tolerance", 7, 1e-11, (-9.0, -9.25), (0.1,) * 8, 1),
        StartOutcome(1, "iteration limit reached", 3, 0.5, (-8.5,), (0.0,) * 8),
    ]
    clock = {"g_function": 0.001, "optimize": 0.5, "total": 0.501}
    rep = build_report(-9.25, -9.5, 0.125, 1.5)
    paths = emit_csv(rep, cfg, policy, outcomes, sim, clock)
    assert paths == [str(out / name) for name in (*_PINNED_CSVS, "report.txt")]
    for name, lines in _PINNED_CSVS.items():
        assert (out / name).read_bytes().decode("utf-8") == "".join(
            line + "\r\n" for line in lines
        ), name
    text = (out / "report.txt").read_bytes().decode("utf-8")
    rss = r"peak RSS \[MB\] \(getrusage; [^\n]*\n  self +\d+\.\d\d\n  children +\d+\.\d\d\n\n"
    assert len(re.findall(rss, text)) == 1
    assert re.sub(rss, "", text) == _PINNED_REPORT.format(
        empty="",
        code=lifedual.__version__,
        numpy=np.__version__,
        scipy=metadata.version("scipy"),
        normals=lifedual.lower_bound.NORMALS_NOTE,
    )


@pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
def test_read_vstar_csv_reports_an_unreadable_path(tmp_path, name):
    # a typed error, as parse_kv_file gives, not a bare OSError
    with pytest.raises(ValidationError, match="^cannot read v\\* table: "):
        read_vstar_csv(str(tmp_path / name))


def test_read_vstar_csv_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "v.csv"
    path.write_bytes(b"t,v0,v_minus\n0,\xff,0\n")
    with pytest.raises(ValidationError, match=f"^cannot read v\\* table: {re.escape(str(path))} "):
        read_vstar_csv(str(path))


def test_read_vstar_csv_rejects_other_headers(tmp_path):
    path = _write(tmp_path, "x.csv", "a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError, match="header"):
        read_vstar_csv(path)


@pytest.mark.parametrize(
    "body, line",
    [("0,0,0\n1\n", 3), ("0,0,0\n\n", 3), ("1,abc,0\n", 2), ("0,0,0,0\n", 2)],
    ids=["short", "blank", "not-a-number", "long"],
)
def test_read_vstar_csv_rejects_malformed_rows(tmp_path, body, line):
    path = _write(tmp_path, "v.csv", "t,v0,v_minus\n" + body)
    with pytest.raises(ValidationError, match=f"{re.escape(path)}: line {line}:"):
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
    assert header[-1] == "certificate"
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    upper, lower = float(row["upper_bound"]), float(row["lower_bound"])
    assert lower <= upper + 3.0 * float(row["lower_std_error"])
    assert float(row["duality_gap"]) == upper - lower
    assert float(row["relative_gap"]) == (upper - lower) / abs(lower)
    assert row["certificate"] == ("ordered" if upper >= lower else "crossed")
    assert (row["welfare_loss"] == "") == (row["certificate"] == "crossed")
    assert row["seed"] == "0" and row["n_paths"] == "4096"

    _, vrows = _read_csv(out / "vstar.csv")
    assert len(vrows) == 201  # path-grid nodes
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
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert text.startswith("life-cycle duality bounds")
    assert "start  0: final" in text and "start  1: final" in text
    for pkg in ("numpy", "scipy"):
        assert f"  {pkg}_version = {metadata.version(pkg)}\n" in text
    assert "  activation = \n" in text and "  snake_a = \n" in text
    # the provenance names the Snake frequency, and only under Snake
    snake = build_run_config(
        {"policy.kind": "mlp", "policy.activation": "snake", "policy.snake_a": "7.5"}
    )
    sim = SimpleNamespace(budget=SimpleNamespace(z_score=0.0))
    prov = lifedual.report._provenance(snake, sim)
    assert (prov["activation"], prov["snake_a"]) == ("snake", 7.5)
    relu = lifedual.report._provenance(dataclasses.replace(snake, activation="relu"), sim)
    assert (relu["activation"], relu["snake_a"]) == ("relu", "")


def test_cli_run_writes_each_start_record(tmp_path, monkeypatch):
    # with solver iterations, trace.csv holds each start's incumbents,
    # start by start, and report.txt one line per start with its solver
    # end; the outcomes the worker writes are the library's
    written = tmp_path / "written.pickle"
    emit = lifedual.cli.emit_csv

    def capture(report, cfg, policy, outcomes, sim, clock):
        _record(written, (cfg, policy, outcomes))
        return emit(report, cfg, policy, outcomes, sim, clock)

    monkeypatch.setattr(lifedual.cli, "emit_csv", capture)
    text = SMALL_RUN_CFG.replace("opt.iterations_per_start = 0", "opt.iterations_per_start = 5")
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0

    ((run, policy, outcomes),) = _recorded(written)
    g = compute_g(run.scenario, UniformGrid(0.0, run.scenario.T, run.n_intervals))
    fit = minimize_upper_bound(g, run.policy_kind, run.optimizer, seed=run.seed)
    assert (policy, outcomes) == fit
    assert len(outcomes) == 2 and sum(outcome.nit for outcome in outcomes) > 0

    header, trows = _read_csv(out / "trace.csv")
    assert header == ["iteration", "incumbent_objective", "start_id"]
    assert [(int(it), float(value), int(start)) for it, value, start in trows] == [
        (it, value, start)
        for start, outcome in enumerate(outcomes)
        for it, value in enumerate(outcome.values)
    ]
    lines = [
        line for line in (out / "report.txt").read_text(encoding="utf-8").splitlines()
        if line.startswith("  start ")
    ]
    assert len(lines) == 2
    for start, (line, outcome) in enumerate(zip(lines, outcomes)):
        fields = re.match(
            r"  start +(\d+): final (\S+), status (\d), nit (\d+), nfev (\d+), redraws (\d+), "
            r"\|grad\| ",
            line,
        )
        assert fields is not None, line
        assert (int(fields[1]), float(fields[2])) == (start, outcome.final)
        assert tuple(map(int, fields.groups()[2:])) == (
            outcome.status, outcome.nit, outcome.nfev, outcome.redraws
        )
        assert line.endswith(f": {outcome.message}")


def test_report_prints_the_dual_checks_of_the_run(tmp_path, monkeypatch):
    # report.txt holds the budget check and the martingale z-scores of the
    # run's own pass to 17 digits, so each reads back as the same float
    sims = tmp_path / "sims.pickle"
    simulate = lifedual.cli.simulate_candidate_value

    def recorded(g, policy, config):
        sim = simulate(g, policy, config)
        _record(sims, sim)
        return sim

    monkeypatch.setattr(lifedual.cli, "simulate_candidate_value", recorded)
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    (sim,) = _recorded(sims)
    text = (out / "report.txt").read_text(encoding="utf-8")
    martingale = re.findall(r"^  kernel martingale at t=(\S+): z (\S+)$", text, re.M)
    assert [(float(t), float(z)) for t, z in martingale] == sim.martingale_z
    budget = re.search(r"^  budget identity: lhs (\S+), rhs (\S+), z (\S+)$", text, re.M)
    assert tuple(map(float, budget.groups())) == (
        sim.budget.lhs, sim.budget.rhs, sim.budget.z_score
    )
    peak = re.search(r"^peak RSS \[MB\].*\n  self +(\S+)\n  children +(\S+)$", text, re.M)
    assert float(peak[1]) > 0.0 and float(peak[2]) > 0.0


def test_cli_run_is_deterministic(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "1"]) == 0
    a = (tmp_path / "a" / "bounds.csv").read_bytes()
    b = (tmp_path / "b" / "bounds.csv").read_bytes()
    assert a == b


def test_cli_run_reports_a_crossed_certificate(tmp_path, monkeypatch, capsys):
    # a lower bound above the upper one, but within 3 s.e., is reported
    # as a crossed certificate: signed gaps, no welfare loss, exit 0
    simulate = lifedual.cli.simulate_candidate_value
    fitted = tmp_path / "upper.pickle"

    def crossed(g, policy, config):
        # g is the path grid's, whose bound is the reported upper bound
        sim = simulate(g, policy, config)
        upper = origin_upper_bound(g, policy)
        _record(fitted, upper)
        return dataclasses.replace(sim, value=upper + 0.5 * sim.std_error)

    monkeypatch.setattr(lifedual.cli, "simulate_candidate_value", crossed)
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    stdout = capsys.readouterr().out
    assert "certificate   crossed\n" in stdout and "welfare loss" not in stdout

    header, rows = _read_csv(out / "bounds.csv")
    row = dict(zip(header, rows[0]))
    assert [float(row["upper_bound"])] == _recorded(fitted)
    assert row["certificate"] == "crossed" and row["welfare_loss"] == ""
    assert float(row["duality_gap"]) < 0 and float(row["relative_gap"]) < 0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "certificate:       crossed\n" in text and "welfare loss" not in text
    for path in out.iterdir():
        assert not re.search(r"\bnan\b", path.read_text(encoding="utf-8"), re.I), path.name


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--preset", "example1"]) == 0
    assert "valid" in capsys.readouterr().out
    bad = _write(tmp_path, "bad.cfg", "scenario.sigma_y = 0.3\n")
    assert main(["validate", "--config", bad]) == 1
    assert "income_vol_dominated" in capsys.readouterr().out


def _optimizer_must_not_run(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(lifedual.cli, "minimize_upper_bound", never)


def test_cli_error_exit_codes(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing]) == 1
    assert "error:" in capsys.readouterr().err
    typo = _write(tmp_path, "typo.cfg", "sim.npaths = 100\n")
    assert main(["run", "--config", typo]) == 1
    # run refuses an invalid scenario before any heavy work
    bad = _write(tmp_path, "bad.cfg", "scenario.sigma_y = 0.3\n")
    assert main(["run", "--config", bad, "--out", str(tmp_path)]) == 1
    # --out naming an existing file is a typed error, not a traceback,
    # and run reports it before optimizing
    blocker = _write(tmp_path, "blocker", "")
    small = _write(tmp_path, "small.cfg", SMALL_RUN_CFG)
    capsys.readouterr()
    _optimizer_must_not_run(monkeypatch)
    for argv in (["gfun"], ["run", "--config", small]):
        assert main([*argv, "--out", blocker]) == 1
        assert "error: cannot write" in capsys.readouterr().err
    # a Snake frequency of 0 is refused while the config is read, before g
    zero = _write(
        tmp_path, "zero.cfg", "policy.kind = mlp\npolicy.activation = snake\npolicy.snake_a = 0\n"
    )
    monkeypatch.setattr(lifedual.cli, "compute_g", None)  # a call would raise TypeError
    for command in ("validate", "run"):
        assert main([command, "--config", zero, "--out", str(tmp_path / "zero")]) == 1
        assert "error: snake frequency must be positive" in capsys.readouterr().err


def test_cli_negative_seed_exits_1_before_the_fit(tmp_path, monkeypatch, capsys):
    # the starts' draws would fold a negative seed mod 2^64 onto another
    # seed's, so the config refuses it, from the flag or the file, before g
    _optimizer_must_not_run(monkeypatch)
    monkeypatch.setattr(lifedual.cli, "compute_g", None)  # a call would raise TypeError
    from_file = _write(tmp_path, "seed.cfg", "seed = -3\n")
    from_flag = ["--preset", "example1", "--desk-scale", "--seed", "-1"]
    for source in (from_flag, ["--config", from_file]):
        for command in ("run", "verify"):
            assert main([command, *source, "--out", str(tmp_path / "out")]) == 1
            assert "error: seed must be a nonnegative integer" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        build_run_config(seed=-1)


def test_cli_seed_of_2_64_exits_1_before_the_fit(tmp_path, monkeypatch, capsys):
    # seeded_uniforms folds each key word mod 2^64, so seed 2^64 would draw
    # seed 0's starts; the config refuses it, from the flag or the file
    assert build_run_config(seed=2**64 - 1).seed == 2**64 - 1
    _optimizer_must_not_run(monkeypatch)
    monkeypatch.setattr(lifedual.cli, "compute_g", None)  # a call would raise TypeError
    from_file = _write(tmp_path, "seed.cfg", f"seed = {2**64}\n")
    from_flag = ["--preset", "example1", "--desk-scale", "--seed", str(2**64)]
    for source in (from_flag, ["--config", from_file]):
        for command in ("run", "verify"):
            assert main([command, *source, "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert "error: seed must be a nonnegative integer below 2**64" in err
    for kv, seed in (({}, 2**64), ({"seed": str(2**70)}, None)):
        with pytest.raises(ValidationError, match="^seed must be "):
            build_run_config(kv, seed=seed)


def test_cli_negative_retirement_date_exits_1_before_the_fit(tmp_path, monkeypatch, capsys):
    # a T_R below 0 fails the scenario's horizon order, so run stops
    # before optimizing, like every other invalid scenario
    _optimizer_must_not_run(monkeypatch)
    for t_retire in ("-0.013", "-5"):
        cfg = _write(tmp_path, "early.cfg", SMALL_RUN_CFG + f"scenario.t_retire = {t_retire}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"horizon_order: first violation at t={float(t_retire):g}" in err
        assert main(["validate", "--config", cfg]) == 1
        assert "horizon_order" in capsys.readouterr().out
    ok = _write(tmp_path, "retired.cfg", "scenario.t_retire = 0\n")
    assert main(["validate", "--config", ok]) == 0


def test_cli_sobol_point_limit_exits_1(tmp_path, monkeypatch, capsys):
    # both Sobol limits are config checks, so the run stops before optimizing
    _optimizer_must_not_run(monkeypatch)
    huge = _write(tmp_path, "huge.cfg", "sim.n_paths = 2000000000\n")
    assert main(["run", "--config", huge, "--out", str(tmp_path)]) == 1
    assert "Sobol points" in capsys.readouterr().err
    deep = _write(tmp_path, "deep.cfg", "sim.n_steps = 30000\n")
    assert main(["run", "--config", deep, "--out", str(tmp_path)]) == 1
    assert "Sobol dimension" in capsys.readouterr().err


def test_sobol_skip_that_would_size_the_level_table_is_refused(tmp_path, capsys):
    # a skip of 10^9 would make sobol_normals build a 2^30-entry table
    # (8.6 GB) for any number of paths; refused when the config is read
    build_run_config({"sim.sobol_skip": str(2**16 - 1)}, desk_scale=True)
    for skip in (2**16, 10**9):
        with pytest.raises(ValidationError, match="^sim.sobol_skip = "):
            build_run_config({"sim.sobol_skip": str(skip)}, desk_scale=True)
    cfg = _write(tmp_path, "skip.cfg", "sim.sobol_skip = 1000000000\n")
    assert main(["validate", "--config", cfg]) == 1
    assert "error: sim.sobol_skip = 1000000000 must lie in" in capsys.readouterr().err


def test_cli_retirement_between_path_nodes_exits_1(tmp_path, monkeypatch, capsys):
    # T_R = 20 of T = 50 falls inside a step of a 1012-step path grid; a
    # config check, so the run stops before optimizing
    _optimizer_must_not_run(monkeypatch)
    text = SMALL_RUN_CFG.replace("sim.n_steps = 200", "sim.n_steps = 1012")
    cfg = _write(tmp_path, "off.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "error: sim.n_steps = 1012 puts T_R = 20 inside a step" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="sim.n_steps = 1012 puts T_R"):
        build_run_config({"sim.n_steps": "1012"})


def test_cli_survival_underflow_exits_1(tmp_path, capsys):
    # at a 200-year horizon survival is exactly 0 on the grid from t = 105,
    # where F2~ is 0/0: a scenario error naming survival, not the adjustment
    text = (
        "scenario.horizon = 200\nscenario.t_retire = 150\nopt.num_starts = 2\n"
        "opt.iterations_per_start = 5\nquadrature.n_intervals = 50\n"
        "sim.n_paths = 256\nsim.n_steps = 200\n"
    )
    cfg = _write(tmp_path, "long.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert "survival" in err and "t = 105" in err and "scenario.horizon = 200" in err


@pytest.mark.parametrize(
    "key, value",
    [("sim.n_paths", "2e4"), ("scenario.mu.table", "0:0.07, 10:abc")],
    ids=["sim.n_paths", "scenario.mu.table"],
)
def test_cli_malformed_value_is_a_typed_error(tmp_path, key, value):
    cfg = _write(tmp_path, "bad.cfg", f"{key} = {value}\n")
    proc = _python("-m", "lifedual.cli", "validate", "--config", cfg)
    assert proc.returncode == 1
    assert any(ln.startswith("error:") and key in ln for ln in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


def _python(*args):
    """A fresh interpreter on this checkout of lifedual.

    Its stdout is a block-buffered pipe even where the environment sets
    PYTHONUNBUFFERED, so output lost to a missing flush shows.
    """
    src = str(Path(lifedual.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_cli_module_exit_flushes_output(tmp_path):
    # python -m lifedual.cli leaves by os._exit, after flushing its streams
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    out = tmp_path / "out"
    proc = _python(
        "-m", "lifedual.cli", "run", "--preset", "example1", "--config", cfg,
        "--out", str(out), "--seed", "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"wrote {out / 'report.txt'}\n")
    typo = _write(tmp_path, "typo.cfg", "sim.npaths = 100\n")
    proc = _python("-m", "lifedual.cli", "run", "--config", typo)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "sim.npaths" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_script_ends_like_the_module():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert target == {"lifedual": "lifedual.cli:exit_main"}


_LIST_SCIPY = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cold_start_imports_no_scipy_stats():
    # importing the CLI loads numpy only; the Sobol stream needs no scipy.stats
    proc = _python("-c", f"import sys\nimport lifedual.cli\n{_LIST_SCIPY}")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")]

    runner = (
        "import sys\nfrom lifedual import cli\n"
        "status = cli.main(['validate', '--preset', 'example1'])\n"
        f"{_LIST_SCIPY}\nsys.exit(status)"
    )
    proc = _python("-c", runner)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "scenario valid"
    assert lines[1:] == [""]  # validate imports no scipy module at all


_SMALL_IMPORT_CFG = (
    "opt.num_starts = 2\nopt.iterations_per_start = 5\n"
    "sim.n_paths = 256\nsim.n_steps = 100\n"
)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_run_and_verify_import_no_scipy(tmp_path, command):
    # the optimizer's BFGS is numpy and the level table comes from the
    # stdlib; the Sobol direction numbers are read from scipy's file
    # without importing any scipy module, and the provenance's package
    # versions without importlib.metadata.  The fit and the path pass run
    # in the forked certificate worker, so statistics, which maps their
    # draws to normals, and the decimal and fractions it imports never
    # enter this process, nor does numpy.random with the OpenSSL of its secrets
    cfg = _write(tmp_path, "small.cfg", _SMALL_IMPORT_CFG)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]
    held = ("numpy.random", "secrets", "_hashlib", "statistics", "decimal", "fractions")
    runner = (
        "import sys\nfrom lifedual import cli\n"
        f"status = cli.main({argv!r})\n"
        "print('importlib.metadata' in sys.modules)\n"
        f"print(*[m in sys.modules for m in {held!r}])\n"
        f"{_LIST_SCIPY}\nsys.exit(status)"
    )
    proc = _python("-c", runner)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["False", " ".join(["False"] * len(held)), ""]


def test_no_process_of_run_or_verify_imports_numpy_random(tmp_path):
    # the starts draw from seeded_uniforms, so neither the CLI process nor
    # any forked child (-X importtime writes each one's imports to the
    # shared stderr) loads numpy.random or the OpenSSL of its secrets;
    # statistics is imported once, in the worker, before the fit forks
    cfg = _write(tmp_path, "small.cfg", _SMALL_IMPORT_CFG)
    for command in ("run", "verify"):
        proc = _python(
            "-X", "importtime", "-m", "lifedual.cli", command, "--config", cfg,
            "--out", str(tmp_path / command), "--seed", "0",
        )
        assert proc.returncode == 0, proc.stderr
        imports = [
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        imported = set(imports)
        assert {"numpy", "lifedual.optimizer"} <= imported  # the log is read
        assert {"statistics", "decimal"} <= imported  # the children's imports too
        assert imports.count("statistics") == 1, command
        banned = [
            name for name in imported
            if name.split(".")[0] in ("secrets", "_hashlib") or name.startswith("numpy.random")
        ]
        assert banned == [], command


def test_cli_verify_passes_for_optimized_policy(tmp_path, capsys):
    cfg = _write(tmp_path, "ver.cfg", VERIFY_CFG)
    assert main(["verify", "--config", cfg, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    assert out.count("kernel martingale") == 4


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_draws_one_normal_stream(tmp_path, monkeypatch, command):
    # the stream is built in the forked certificate worker, so each draw
    # appends a line to a file rather than to a list of this process
    calls = tmp_path / "draws.txt"
    draw = lifedual.lower_bound.sobol_normals

    def counting(config):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return draw(config)

    monkeypatch.setattr(lifedual.lower_bound, "sobol_normals", counting)
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 0
    assert len(calls.read_text(encoding="utf-8").splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_runs_its_numerics_in_one_worker(tmp_path, monkeypatch, command):
    # the CLI process reads the config and prints; the scenario check, g
    # (once per grid), the fit, the path pass and the artifacts run in one
    # forked worker, so each wrapper appends its name and pid to a file
    calls = tmp_path / "calls.txt"

    def logged(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    logged(lifedual.market, "validate")
    logged(lifedual.cli, "compute_g")
    logged(lifedual.cli, "minimize_upper_bound")
    logged(lifedual.lower_bound, "_path_pass")
    logged(lifedual.cli, "emit_csv")
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 0
    names, pids = zip(*(line.split() for line in calls.read_text(encoding="utf-8").splitlines()))
    assert list(names) == [
        "validate", "compute_g", "compute_g", "minimize_upper_bound", "_path_pass",
        *(["emit_csv"] if command == "run" else []),
    ]
    assert len(set(pids)) == 1 and pids[0] != str(os.getpid())


# the path pass each command calls, and how to set the budget z in its result
_DUAL_ENTRY = {
    "run": (
        "simulate_candidate_value",
        lambda sim, z: dataclasses.replace(sim, budget=dataclasses.replace(sim.budget, z_score=z)),
    ),
    "verify": (
        "dual_checks",
        lambda checks, z: (dataclasses.replace(checks[0], z_score=z), checks[1]),
    ),
}


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_non_finite_dual_check_exits_2(tmp_path, monkeypatch, capsys, command):
    sc = preset_scenario("example1")
    extreme = make_policy(
        "affine", np.abs(np.random.default_rng((100, 1)).normal(0.0, 0.03, 8)), t_retire=sc.T_R
    )
    name, with_budget_z = _DUAL_ENTRY[command]
    entry = getattr(lifedual.cli, name)

    def budget_z4(g, policy, config):
        # finite, but past the |z| <= 3 that run and verify share
        return with_budget_z(entry(g, policy, config), 4.0)

    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    for fake in (
        lambda g, policy, config: entry(g, extreme, config),
        budget_z4,
    ):
        monkeypatch.setattr(lifedual.cli, name, fake)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 2
        assert "numerical failure" in capsys.readouterr().err


def test_cli_fit_failure_in_the_child_exits_2(tmp_path, monkeypatch, capsys):
    # every draw of every start makes the upper bound non-finite, so the
    # fit fails in the forked worker; the error comes back through the pipe
    monkeypatch.setattr(
        lifedual.drift_policy, "init_params", lambda kind, seed: np.full(8, np.nan)
    )
    cfg = _write(tmp_path, "run.cfg", SMALL_RUN_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "objective non-finite after 3 redraws" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_block(lang):
    """The first fenced ``lang`` block of README.md."""
    return re.search(rf"```{lang}\n(.*?)```", _readme(), re.S).group(1)


def test_readme_config_example_is_accepted(tmp_path):
    block = _readme_block("ini")
    cfg = build_run_config(parse_kv_file(_write(tmp_path, "readme.cfg", block)))
    assert cfg.policy_kind == "mlp" and cfg.simulation.n_paths == 20000


def test_readme_documents_every_config_key():
    # the README is the only user-facing list of the keys build_run_config accepts
    words = {w.rstrip(".") for w in re.findall(r"[\w.]+", _readme())}
    keys = {
        *_MORTALITY_KEYS,
        *_SCENARIO_KEYS,
        *_OPTIMIZER_KEYS,
        *_SIMULATION_KEYS,
        *_RUN_KEYS,
        *DESK_SCALE,
        "scenario.preset",
        "seed",
        "scenario.r",
        "scenario.mu",
        "scenario.sigma",
    }
    assert sorted(keys - words) == []
    for spelling in (".base", ".amplitude", ".frequency", ".table"):
        assert any(w.startswith("scenario.") and w.endswith(spelling) for w in words), spelling


def test_readme_library_quick_start_runs(capsys):
    exec(_readme_block("python"), {})
    # bounds, then the certificate line, then the dual checks
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[1].split()[0] == "ordered"


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
