"""Bound certificates and CSV artifact emission.

``build_report`` turns a bound pair into its certificate, a
``BoundsReport``: the bounds, the lower bound's standard error, the
signed gap upper - lower, the signed relative gap gap/|lower|, the
status ``ordered`` or ``crossed`` that follows from the gap's sign, and
the welfare loss of an ordered pair.  ``emit_csv`` writes it with the
run that produced it (config, policy, the optimizer's per-start
outcomes, simulation, clock):

* ``bounds.csv``     one row: method, the certificate's numbers (an
                     empty welfare-loss cell when crossed), the protocol
                     sizes and the ``certificate`` status
* ``vstar.csv``      optimized drift adjustment (t, v0, v_minus) at the
                     nodes of the path grid
* ``trace.csv``      each start's incumbents (iteration, objective,
                     start), start by start, of its last attempt
* ``facevalue.csv``  mean simulated insurance face value per time step
* ``wealth.csv``     mean simulated wealth and consumption per step
* ``report.txt``     human-readable summary with full provenance, the
                     dual checks and each optimizer start's solver outcome,
                     evaluation count over all its draws and redraw count

All floating-point output uses 17 significant digits, so re-reading an
artifact reproduces the binary values exactly; nothing in the files
depends on wall-clock time or memory use except the explicitly
labelled wall-clock and peak-RSS blocks of report.txt (bounds.csv
itself is bit-identical across repeat runs).
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .drift_policy import TablePolicy, evaluate
from .errors import NumericalError, ValidationError
from .lower_bound import NORMALS_NOTE, _scipy_path

__all__ = [
    "BoundsReport",
    "build_report",
    "emit_csv",
    "read_vstar_csv",
    "write_gfun_csv",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class BoundsReport:
    """The certificate of one bound pair (see ``build_report``)."""

    upper_bound: float
    lower_bound: float
    lower_std_error: float
    duality_gap: float
    relative_gap: float
    welfare_loss: float | None

    @property
    def certificate(self) -> str:
        return "ordered" if self.duality_gap >= 0.0 else "crossed"


def build_report(upper: float, lower: float, std_error: float, gamma: float) -> BoundsReport:
    """Turn a bound pair into its certificate; no other code does.

    The gap upper - lower and the relative gap gap/|lower| keep their
    sign, so a pair whose lower bound lies above the upper one within
    3 standard errors reads ``crossed``, with negative gaps and no
    welfare loss.  Beyond 3 standard errors the pair certifies nothing
    and a ``NumericalError`` is raised.  An ordered pair's welfare loss
    1 - (lower/upper)^(1/(1-gamma)) (Bick, Kraft & Munk 2013) bounds the
    share of initial wealth and income that the candidate gives up
    against the optimum; it needs gamma > 1 and both bounds negative.
    """
    upper, lower, std_error = float(upper), float(lower), float(std_error)
    if not all(map(math.isfinite, (upper, lower, std_error))):
        raise NumericalError("non-finite bound or standard error")
    if lower > upper + 3.0 * std_error:
        raise NumericalError(
            "lower bound exceeds upper bound beyond Monte Carlo error "
            f"({_fmt(lower)} > {_fmt(upper)} + 3*{_fmt(std_error)})"
        )
    if lower == 0.0:
        raise ValidationError("relative gap undefined for a zero lower bound")
    gap = upper - lower
    loss = None
    if gap >= 0.0:
        if gamma <= 1:
            raise ValidationError("welfare loss implemented for gamma > 1")
        if upper >= 0 or lower >= 0:
            raise ValidationError("bounds must be strictly negative for gamma > 1")
        loss = 1.0 - (lower / upper) ** (1.0 / (1.0 - gamma))
    return BoundsReport(upper, lower, std_error, gap, gap / abs(lower), loss)


def _provenance(cfg, sim) -> dict[str, object]:
    from . import __version__

    activation = cfg.activation if cfg.policy_kind == "mlp" else ""
    # scipy's version.py read as a file, so neither scipy nor
    # importlib.metadata is imported
    scipy_version: dict[str, object] = {}
    with open(_scipy_path("version.py"), encoding="utf-8") as fh:
        exec(fh.read(), scipy_version)
    return {
        "code_version": __version__,
        # the Sobol stream reads scipy's direction-number file
        "numpy_version": np.__version__,
        "scipy_version": scipy_version["version"],
        "preset": cfg.preset,
        "seed": cfg.seed,
        "n_intervals": cfg.n_intervals,
        "n_paths": cfg.simulation.n_paths,
        "n_steps": cfg.simulation.n_steps,
        "sobol_skip": cfg.simulation.sobol_skip,
        "num_starts": cfg.optimizer.num_starts,
        "iterations_per_start": cfg.optimizer.iterations_per_start,
        "policy_kind": cfg.policy_kind,
        "activation": activation,
        "snake_a": cfg.snake_a if activation == "snake" else "",
        "budget_z": f"{sim.budget.z_score:.4f}",
    }


def _write(path: str, write, *args) -> str:
    """Every artifact's writer: make the directory, ``write(file, *args)``, return ``path``."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write(fh, *args)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    return path


def _write_csv(fh, header, rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)


def emit_csv(report: BoundsReport, cfg, policy, outcomes, sim, clock) -> list[str]:
    """Write the artifact set into ``cfg.out_dir``; returns the written paths.

    The fitted ``policy`` is tabulated at the path grid's nodes
    ``sim.times``, where the upper bound reads it; ``outcomes`` is the
    optimizer's ``StartOutcome`` list in start order, ``sim`` the
    simulation result (step times, mean wealth / face value /
    consumption curves, budget check) and ``clock`` the wall-clock
    seconds per phase.  Each CSV is a header and a generator of rows.
    """
    prov = _provenance(cfg, sim)
    # the certificate status comes last, so readers of the earlier
    # columns by position keep working
    bounds = {
        "method": prov["policy_kind"],
        "activation": prov["activation"],
        "upper_bound": _fmt(report.upper_bound),
        "lower_bound": _fmt(report.lower_bound),
        "lower_std_error": _fmt(report.lower_std_error),
        "duality_gap": _fmt(report.duality_gap),
        "relative_gap": _fmt(report.relative_gap),
        "welfare_loss": "" if report.welfare_loss is None else _fmt(report.welfare_loss),
        **{
            key: str(prov[key])
            for key in (
                "seed",
                "n_intervals",
                "n_paths",
                "n_steps",
                "sobol_skip",
                "num_starts",
                "iterations_per_start",
            )
        },
        "certificate": report.certificate,
    }
    v0, vm = evaluate(policy, sim.times, horizon=cfg.scenario.T)
    tables = {
        "bounds.csv": (bounds.keys(), [bounds.values()]),
        "vstar.csv": (
            ("t", "v0", "v_minus"),
            ((_fmt(t), _fmt(a), _fmt(b)) for t, a, b in zip(sim.times, v0, vm)),
        ),
        "trace.csv": (
            ("iteration", "incumbent_objective", "start_id"),
            (
                (it, _fmt(value), start)
                for start, outcome in enumerate(outcomes)
                for it, value in enumerate(outcome.values)
            ),
        ),
        "facevalue.csv": (
            ("t", "mean_face_value"),
            ((_fmt(t), _fmt(fv)) for t, fv in zip(sim.times, sim.mean_face_value)),
        ),
        # wealth is recorded at all step boundaries, consumption only at
        # the left endpoints; the terminal row gets an empty consumption cell
        "wealth.csv": (
            ("t", "mean_wealth", "mean_consumption"),
            (
                (_fmt(t), _fmt(w), "" if c is None else _fmt(c))
                for t, w, c in zip_longest(sim.times, sim.mean_wealth, sim.mean_consumption)
            ),
        ),
    }
    paths = [
        _write(os.path.join(cfg.out_dir, name), _write_csv, *table)
        for name, table in tables.items()
    ]
    report_path = os.path.join(cfg.out_dir, "report.txt")
    return paths + [_write(report_path, _write_text, report, prov, policy, outcomes, sim, clock)]


def _peak_rss_lines() -> list[str]:
    """getrusage's peak RSS of this process and of its reaped children, where it exists."""
    try:
        import resource
    except ImportError:  # no getrusage on this platform
        return []
    unit = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss is in bytes there, else kB
    lines = ["peak RSS [MB] (getrusage; the kernel samples the high-water mark):"]
    for who in ("SELF", "CHILDREN"):
        peak = resource.getrusage(getattr(resource, f"RUSAGE_{who}")).ru_maxrss
        lines.append(f"  {who.lower():<12} {peak / unit:.2f}")
    return lines + [""]


def _write_text(fh, report: BoundsReport, prov, policy, outcomes, sim, clock) -> None:
    activation = prov["activation"]
    lines = [
        "life-cycle duality bounds",
        "=========================",
        f"method:            {prov['policy_kind']}"
        + (f" ({activation})" if activation else ""),
        f"upper bound:       {_fmt(report.upper_bound)}",
        f"lower bound:       {_fmt(report.lower_bound)}",
        f"lower std error:   {_fmt(report.lower_std_error)}",
        f"certificate:       {report.certificate}",
        f"duality gap:       {_fmt(report.duality_gap)}",
        f"relative gap:      {_fmt(100.0 * report.relative_gap)} %",
    ]
    if report.welfare_loss is not None:
        lines.append(f"welfare loss:      {_fmt(100.0 * report.welfare_loss)} %")
    budget = sim.budget
    lines += [
        "",
        "wall clock [s]:",
        *(f"  {phase:<12} {seconds:.3f}" for phase, seconds in clock.items()),
        "",
        *_peak_rss_lines(),
        "dual checks:",
        f"  budget identity: lhs {_fmt(budget.lhs)}, rhs {_fmt(budget.rhs)}, "
        f"z {_fmt(budget.z_score)}",
        *(f"  kernel martingale at t={_fmt(t)}: z {_fmt(z)}" for t, z in sim.martingale_z),
        "",
        "provenance:",
        *(f"  {key} = {prov[key]}" for key in sorted(prov)),
        f"  {NORMALS_NOTE}",
        "",
        "policy parameters:",
        "  " + ", ".join(map(_fmt, policy.params)),
        "",
        "optimizer starts (the last attempt's solver outcome; |grad| at the final point):",
        *(
            f"  start {start:>2}: final {_fmt(outcome.final)}, status {outcome.status}, "
            f"nit {outcome.nit}, nfev {outcome.nfev}, redraws {outcome.redraws}, "
            f"|grad| {outcome.grad_norm:.3e}: {outcome.message}"
            for start, outcome in enumerate(outcomes)
        ),
        "",
    ]
    fh.write("\n".join(lines))


def read_vstar_csv(path: str) -> TablePolicy:
    """Load an exported v*(t) table back into an interpolating policy."""
    times, v0, vm = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read v* table: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"cannot read v* table: {path} is not UTF-8 text ({exc.reason})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != ["t", "v0", "v_minus"]:
        raise ValidationError(f"{path}: unexpected header {header}")
    for row in reader:
        try:
            t, a, b = map(float, row)
        except ValueError:
            raise ValidationError(
                f"{path}: line {reader.line_num}: expected t, v0, v_minus, got {row}"
            ) from None
        times.append(t)
        v0.append(a)
        vm.append(b)
    return TablePolicy(
        times=tuple(times), v0_values=tuple(v0), v_minus_values=tuple(vm)
    )


def write_gfun_csv(g, path: str) -> None:
    """Write the consumption-annuity curve g(t) at its grid nodes."""
    rows = ((_fmt(t), _fmt(v)) for t, v in zip(g.grid.nodes, g.values))
    _write(path, _write_csv, ("t", "g"), rows)
