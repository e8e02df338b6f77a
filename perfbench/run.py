"""Benchmark of the ``lifedual`` command line, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload run-ex1-affine --seed 0 --seconds 20 --trace 0

A closed loop with one client: each invocation is a fresh interpreter,
started only after the previous one has exited.  The program comes from
``src/`` of the working directory; nothing is installed or built.
``--seed`` names the run: every workload runs ``lifedual`` with seed 0
(see ``WORKLOADS``), so every run does the same work.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``, ``relative_gap``).
``--trace 1`` alternates untraced invocations with invocations run
under ``perfbench/tracer.py`` and reports the per-layer metrics named
in ``BENCHMARK.json``, the tracing overhead among them.

Every invocation's output is checked (exit status, artifacts, finite
and uncrossed bounds, byte-identical reruns); the share that failed is
``failed / attempted`` in the result line.  A record with every sample,
the bounds, the verifier z-scores and the machine goes to
``.perfbench_work/results/``.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
RUN_BUDGET_S = 170.0  # every run exits within 180 s
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
STALL_ITERATIONS = 4  # a start ending this early sat on a plateau
ARTIFACTS = ("bounds.csv", "vstar.csv", "trace.csv", "facevalue.csv", "wealth.csv", "report.txt")

# workload -> (subcommand, flags).  All use the n=100 grid and
# 20,000 x 1,000 Sobol paths.  lifedual's seed stays 0 (the CLI default
# and the README quick start) whatever the benchmark seed.  The seed
# picks the optimizer's start points, and some starts stall on a
# plateau within a few BFGS iterations while the rest descend; how many
# stall depends on the seed.  Between seeds the Snake run's objective
# evaluations range from 78k to 144k, and on example1 at desk scale 2
# of 10 seeds stall all five starts and certify a 1.47 % gap instead of
# 0.089 %.  Seed-dependent work and gaps would swamp every bound;
# optimizer.stalled_start_frac keeps the behaviour visible.
WORKLOADS = {
    "run-ex1-affine": ("run", ["--preset", "example1", "--desk-scale", "--seed", "0"]),
    "run-ex2-snake": ("run", ["--config", os.path.join("perfbench", "run-ex2-snake.cfg"),
                              "--seed", "0"]),
    "verify-ex1-affine": ("verify", ["--preset", "example1", "--desk-scale", "--seed", "0"]),
}

# per-layer metric -> the hooked functions it needs (tracer.HOOKS names)
NEEDS = {
    "closed_form.compute_g_ms": ("closed_form.compute_g",),
    "config.build_run_config_ms": ("config.build_run_config",),
    "market.validate_ms": ("market.validate",),
    "closed_form.origin_upper_bound.calls": ("closed_form.origin_upper_bound",),
    "closed_form.origin_upper_bound.self_s": ("closed_form.origin_upper_bound",),
    "closed_form.origin_upper_bound.us_per_call": ("closed_form.origin_upper_bound",),
    "drift_policy.evaluate.self_s": ("drift_policy.evaluate",),
    "optimizer.minimize_upper_bound_s": ("optimizer.minimize_upper_bound",),
    "optimizer.numerical_gradient.calls": ("optimizer.numerical_gradient",),
    "optimizer.numerical_gradient.self_s": ("optimizer.numerical_gradient",),
    "optimizer.objective_evals": ("closed_form.origin_upper_bound",),
    "optimizer.evals_per_start": ("closed_form.origin_upper_bound", "drift_policy.init_params"),
    "optimizer.repeat_eval_frac": ("closed_form.origin_upper_bound", "drift_policy.init_params"),
    "lower_bound.sobol_normals.calls": ("lower_bound.sobol_normals",),
    "lower_bound.sobol_normals.self_s": ("lower_bound.sobol_normals",),
    "lower_bound.normals_mb_computed": ("lower_bound.sobol_normals",),
    "lower_bound.simulate_candidate_value.self_s": ("lower_bound.simulate_candidate_value",),
    "lower_bound.verify_budget_constraint.self_s": ("lower_bound.verify_budget_constraint",),
    "lower_bound.kernel_martingale_zscores.self_s": ("lower_bound.kernel_martingale_zscores",),
    "report.emit_csv_ms": ("report.emit_csv",),
}
PATH_DRIVERS = (
    "lower_bound.simulate_candidate_value",
    "lower_bound.verify_budget_constraint",
    "lower_bound.kernel_martingale_zscores",
)
LAYERS = ("setup", "cli", "config", "market", "closed_form", "drift_policy",
          "optimizer", "lower_bound", "report", "trace", "exit")


class BenchError(Exception):
    """The benchmark cannot run here (no program, no metric list)."""


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)
    spans: str | None = None
    bytes_written: int = 0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(argv: list[str], log_prefix: str, deadline: float) -> Invocation:
    """Run one child to completion; its peak RSS comes from wait4 on that child."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env())
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_prefix + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(log_prefix + ".err", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def _parse_bounds(path: str) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    return {k: float(row[k]) for k in ("upper_bound", "lower_bound", "lower_std_error", "relative_gap")}


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join("src", "lifedual")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.command, self.flags = WORKLOADS[workload]
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.run_dir = os.path.join(WORK, f"{workload}-seed{seed}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.out_dir = os.path.join(self.run_dir, "out")
        self.digest_dir = os.path.join(WORK, "digests")
        os.makedirs(self.digest_dir, exist_ok=True)
        self.source = _source_digest()
        self.invocations: list[Invocation] = []
        self.bounds: dict[str, float] = {}
        self.zscores: dict[str, float] = {}

    # -- invocations ------------------------------------------------------

    def invoke(self, command: str, traced: bool = False) -> Invocation:
        n = len(self.invocations)
        log = os.path.join(self.run_dir, f"inv{n:03d}")
        args = [command, *self.flags]
        if command == "run":
            shutil.rmtree(self.out_dir, ignore_errors=True)
            args += ["--out", self.out_dir]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), log + ".spans",
                    str(time.monotonic_ns()), f"{self.workload}/{self.seed}/{n}", "--", *args]
        else:
            argv = [sys.executable, "-m", "lifedual.cli", *args]
        inv = _spawn(argv, log, self.deadline)
        if traced:
            inv.spans = log + ".spans"
        inv.problems = self.check(command, inv)
        if command == "run":
            inv.bytes_written = sum(
                entry.stat().st_size for entry in os.scandir(self.out_dir) if entry.is_file()
            ) if os.path.isdir(self.out_dir) else 0
        self.invocations.append(inv)
        return inv

    def check(self, command: str, inv: Invocation) -> list[str]:
        """Output checks; every problem found makes the invocation count as failed."""
        if inv.returncode != 0:
            return [f"exit code {inv.returncode}: {inv.stderr.strip()[-300:]}"]
        if command == "validate":
            return [] if "scenario valid" in inv.stdout else ["validate did not report a valid scenario"]
        problems = []
        if command == "run":
            missing = [a for a in ARTIFACTS if not os.path.isfile(os.path.join(self.out_dir, a))]
            if missing:
                return [f"missing artifacts {missing}"]
            try:
                b = _parse_bounds(os.path.join(self.out_dir, "bounds.csv"))
            except (StopIteration, KeyError, ValueError) as exc:
                return [f"unreadable bounds.csv: {exc!r}"]
            if not all(math.isfinite(v) for v in b.values()):
                problems.append(f"non-finite bounds {b}")
            elif b["lower_bound"] > b["upper_bound"] + 3.0 * b["lower_std_error"]:
                problems.append(f"crossed bounds {b}")
            self.bounds = b
            match = re.search(r"^budget z\s+(\S+)", inv.stdout, re.M)
            if match:
                self.zscores["budget"] = float(match.group(1))
            # the README promises byte-identical CSVs; report.txt also
            # carries the run's wall-clock phase timings
            h = hashlib.sha256()
            for name in ARTIFACTS:
                if not name.endswith(".csv"):
                    continue
                with open(os.path.join(self.out_dir, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
            digest = h.hexdigest()
        else:
            if "verification passed" not in inv.stdout:
                problems.append("verify did not print 'verification passed'")
            match = re.search(r"budget identity:.*z (\S+)", inv.stdout)
            if match:
                self.zscores["budget"] = float(match.group(1))
            for t, z in re.findall(r"kernel martingale at t=\s*(\S+): z (\S+)", inv.stdout):
                self.zscores[f"martingale_t{t}"] = float(z)
            digest = hashlib.sha256(inv.stdout.encode()).hexdigest()
        # the first invocation of this workload's command with this
        # program source in the checkout sets the expected output (the
        # lifedual seed is the same in every run)
        digest_path = os.path.join(
            self.digest_dir, f"{self.workload}-{command}-{self.source}.txt"
        )
        if os.path.exists(digest_path):
            with open(digest_path, encoding="utf-8") as fh:
                if fh.read().strip() != digest:
                    problems.append("output differs from the first invocation")
        else:
            with open(digest_path, "w", encoding="utf-8") as fh:
                fh.write(digest + "\n")
        return problems

    def setup_times(self) -> list[float]:
        """Fresh ``lifedual validate`` processes: interpreter, import, config, validation."""
        return [self.invoke("validate").wall_s for _ in range(SETUP_REPEATS)]

    def measure(self, traced: bool) -> tuple[list[Invocation], list[Invocation]]:
        """Closed loop for ``seconds``; with tracing, untraced and traced alternate."""
        plain, marked = [], []
        t0 = time.monotonic()
        while True:
            plain.append(self.invoke(self.command))
            if traced:
                marked.append(self.invoke(self.command, traced=True))
            cycle = (time.monotonic() - t0) / len(plain)
            now = time.monotonic()
            if now - t0 + cycle > self.seconds or now + 2 * cycle > self.deadline:
                return plain, marked

    # -- result -----------------------------------------------------------

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)


def _importtime() -> dict[str, float]:
    """Cumulative import times of lifedual and scipy.stats from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lifedual.cli"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing lifedual.cli failed: {proc.stderr.strip()[-300:]}")
    lifedual_us = scipy_stats_us = 0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not match:
            continue
        cumulative, indent, name = int(match.group(2)), len(match.group(3)), match.group(4)
        if indent == 1 and (name == "lifedual" or name.startswith("lifedual.")):
            lifedual_us += cumulative
        if name == "scipy.stats" and not scipy_stats_us:
            scipy_stats_us = cumulative
    return {"setup.import_s": lifedual_us / 1e6, "setup.scipy_stats_import_s": scipy_stats_us / 1e6}


def _stalled_start_frac(out_dir: str) -> float:
    """Share of optimizer starts in trace.csv that ended within STALL_ITERATIONS."""
    path = os.path.join(out_dir, "trace.csv")
    if not os.path.isfile(path):  # the run failed its checks
        return 0.0
    last: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            last[row["start_id"]] = max(last.get(row["start_id"], 0), int(row["iteration"]))
    return sum(1 for it in last.values() if it <= STALL_ITERATIONS) / len(last)


def _load_spans(prefix: str):
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["n_spans"]
    cols = []
    with open(prefix + ".bin", "rb") as fh:
        for _ in range(4):
            col = array("q")
            col.fromfile(fh, n)
            cols.append(col)
    return meta, cols


def layer_metrics(inv: Invocation) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one traced invocation; self time = span - children."""
    meta, (name_idx, parent, start, end) = _load_spans(inv.spans)
    names = meta["names"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    self_ns = dur[:]
    for i in range(n):
        if parent[i] >= 0:
            self_ns[parent[i]] -= dur[i]
    wall_ns = int(inv.wall_s * 1e9)
    # the invocation itself is the root; what no span covers is the span
    # write-out and interpreter exit
    root_self = wall_ns - sum(dur[i] for i in range(n) if parent[i] < 0)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i in range(n):
        name = names[name_idx[i]]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i] / 1e9
        own[name] = own.get(name, 0.0) + self_ns[i] / 1e9
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in own.items():
        layer_self[name.split(".", 1)[0]] += s
    layer_self["exit"] += root_self / 1e9

    c = meta["counters"]
    path_time = sum(total.get(name, 0.0) for name in PATH_DRIVERS)
    evals = c["objective_evals"]
    m = {
        "config.build_run_config_ms": 1e3 * total.get("config.build_run_config", 0.0),
        "market.validate_ms": 1e3 * total.get("market.validate", 0.0),
        "closed_form.compute_g_ms": 1e3 * total.get("closed_form.compute_g", 0.0),
        "closed_form.origin_upper_bound.calls": calls.get("closed_form.origin_upper_bound", 0),
        "closed_form.origin_upper_bound.self_s": own.get("closed_form.origin_upper_bound", 0.0),
        "closed_form.origin_upper_bound.us_per_call": 1e6
        * total.get("closed_form.origin_upper_bound", 0.0)
        / max(calls.get("closed_form.origin_upper_bound", 0), 1),
        "drift_policy.evaluate.self_s": own.get("drift_policy.evaluate", 0.0),
        "optimizer.minimize_upper_bound_s": total.get("optimizer.minimize_upper_bound", 0.0),
        "optimizer.numerical_gradient.calls": calls.get("optimizer.numerical_gradient", 0),
        "optimizer.numerical_gradient.self_s": own.get("optimizer.numerical_gradient", 0.0),
        "optimizer.objective_evals": evals,
        "optimizer.evals_per_start": evals / max(c["starts"], 1),
        "optimizer.repeat_eval_frac": c["repeat_evals"] / max(evals, 1),
        "lower_bound.sobol_normals.calls": calls.get("lower_bound.sobol_normals", 0),
        "lower_bound.sobol_normals.self_s": own.get("lower_bound.sobol_normals", 0.0),
        "lower_bound.normals_mb_computed": c["normals_bytes"] / 1e6,
        "lower_bound.simulate_candidate_value.self_s": own.get("lower_bound.simulate_candidate_value", 0.0),
        "lower_bound.verify_budget_constraint.self_s": own.get("lower_bound.verify_budget_constraint", 0.0),
        "lower_bound.kernel_martingale_zscores.self_s": own.get("lower_bound.kernel_martingale_zscores", 0.0),
        "lower_bound.path_steps_per_s": c["path_steps"] / path_time if path_time else 0.0,
        "lower_bound.rss_growth_mb": (
            c.get("rss_after_paths_kb", 0) - c.get("rss_before_paths_kb", 0)
        ) / 1024.0,
        "report.emit_csv_ms": 1e3 * total.get("report.emit_csv", 0.0),
        "trace.traced_wall_s": inv.wall_s,
        "report.bytes_written": inv.bytes_written,
    }
    for layer, s in layer_self.items():
        m[f"self.{layer}_s"] = s
    absent = sorted(
        {metric for metric, hooks in NEEDS.items() for h in hooks if h in meta["absent"]}
        | {a for a in meta["absent"] if a in NEEDS}
    )
    return m, absent


def _machine(seed: int) -> dict[str, object]:
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=10).stdout.strip()
        l3_mb = int(l3) / 2**20 if l3.isdigit() and int(l3) else None
    except (OSError, subprocess.SubprocessError):
        l3_mb = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_mb": l3_mb,
        "python": platform.python_version(),
        **versions,
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _median_dicts(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: _median([d[k] for d in dicts]) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not os.path.isfile(os.path.join("src", "lifedual", "cli.py")):
            raise BenchError("no lifedual program under src/ of the working directory")
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        return _run(args, spec)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace, spec: dict) -> int:
    bench = Bench(args.workload, args.seed, args.seconds)
    setup = bench.setup_times()
    plain, traced = bench.measure(bool(args.trace))
    if bench.command == "verify":
        # verify certifies no gap itself: an untimed run with the same
        # flags and seed gives the bounds of the policy it checks
        bench.invoke("run")

    walls = [inv.wall_s for inv in plain]
    record: dict[str, object] = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": _machine(args.seed),
        "setup_s": setup,
        "wall_s": walls,
        "peak_rss_mb": [inv.rss_mb for inv in plain],
        "bounds": bench.bounds,
        "zscores": bench.zscores,
        "problems": [p for inv in bench.invocations for p in inv.problems],
    }
    if args.trace:
        samples = [layer_metrics(inv) for inv in traced if inv.spans and not inv.problems]
        if not samples:
            print("perfbench: no traced invocation passed its checks:", *record["problems"],
                  sep="\n", file=sys.stderr)
            return 1
        layer_values = _median_dicts([values for values, _ in samples])
        layer_values.update(_median_dicts([_importtime() for _ in range(IMPORTTIME_REPEATS)]))
        # every run invocation (verify's untimed one too) writes the same
        # trace.csv, so the last one stands for all
        layer_values["optimizer.stalled_start_frac"] = _stalled_start_frac(bench.out_dir)
        layer_values["trace.untraced_wall_s"] = _median(walls)
        layer_values["trace.overhead_frac"] = (
            layer_values["trace.traced_wall_s"] / layer_values["trace.untraced_wall_s"] - 1.0
        )
        absent = sorted({a for _, missing in samples for a in missing})
        record["absent"] = absent
        record["layers"] = layer_values
        wanted = spec["per_layer"]
        values = layer_values
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([inv.rss_mb for inv in plain]),
            "relative_gap": bench.bounds.get("relative_gap"),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = len(bench.invocations), bench.failed
    record.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  metrics=metrics)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record_path = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"wall_s median {_median(walls):.4f} over {len(walls)} invocations; "
          f"setup_s median {_median(setup):.4f} over {len(setup)}")
    print(f"bounds {json.dumps(bench.bounds)}  z {json.dumps(bench.zscores)}")
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    if args.trace and record["absent"]:
        print(f"absent (hooked function missing): {', '.join(record['absent'])}")
    print(f"record {record_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
