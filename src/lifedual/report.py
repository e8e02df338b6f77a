"""Bound summaries and CSV artifact emission.

One run produces a ``BoundsReport`` (the Table-style row: upper and
lower bound, gap, relative gap, welfare loss, wall-clock per phase,
policy parameters, provenance) plus plottable artifacts:

* ``bounds.csv``     one row with the bound summary and protocol sizes
* ``vstar.csv``      optimized drift adjustment (t, v0, v_minus) at the
                     quadrature nodes
* ``trace.csv``      optimizer incumbents (iteration, objective, start)
* ``facevalue.csv``  mean simulated insurance face value per time step
* ``wealth.csv``     mean simulated wealth and consumption per step
* ``report.txt``     human-readable summary with full provenance and
                     each optimizer start's solver outcome

All floating-point output uses 17 significant digits, so re-reading an
artifact reproduces the binary values exactly; nothing in the files
depends on wall-clock time except the explicitly labelled timing block
of report.txt (bounds.csv itself is bit-identical across repeat runs).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .closed_form import welfare_loss
from .drift_policy import TablePolicy
from .errors import NumericalError, ValidationError

__all__ = [
    "BoundsReport",
    "build_report",
    "emit_csv",
    "read_vstar_csv",
    "write_gfun_csv",
]

_NORMALS_NOTE = (
    "normals: unscrambled Sobol points (origin dropped, then sobol_skip "
    "points skipped) mapped through the inverse normal CDF "
    "(scipy.special.ndtri, absolute error below 1e-8); the stream is "
    "fully determined by (n_paths, n_steps, sobol_skip)."
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class BoundsReport:
    """Summary row for one (scenario, policy family) run."""

    method: str
    activation: str | None
    upper_bound: float
    lower_bound: float
    lower_std_error: float
    duality_gap: float
    relative_gap: float
    welfare_loss: float
    wall_clock: dict[str, float] = field(default_factory=dict)
    policy_params: tuple[float, ...] = ()
    vstar_times: np.ndarray | None = None
    vstar_v0: np.ndarray | None = None
    vstar_v_minus: np.ndarray | None = None
    provenance: dict[str, object] = field(default_factory=dict)


def build_report(
    *,
    method: str,
    activation: str | None,
    upper_bound: float,
    lower_bound: float,
    lower_std_error: float,
    gamma: float,
    wall_clock: dict[str, float],
    policy_params,
    vstar_times,
    vstar_v0,
    vstar_v_minus,
    provenance: dict[str, object],
) -> BoundsReport:
    """Assemble a report; derived columns are computed here so the
    identities gap = |upper - lower| and relative gap = gap/|lower|
    hold exactly in every artifact."""
    if lower_bound > upper_bound + 3.0 * lower_std_error:
        raise NumericalError(
            "lower bound exceeds upper bound beyond Monte Carlo error "
            f"({_fmt(lower_bound)} > {_fmt(upper_bound)} + 3*{_fmt(lower_std_error)})"
        )
    gap = abs(upper_bound - lower_bound)
    if lower_bound == 0.0:
        raise ValidationError("relative gap undefined for a zero lower bound")
    loss = welfare_loss(
        upper=max(upper_bound, lower_bound),
        lower=min(upper_bound, lower_bound),
        gamma=gamma,
    )
    return BoundsReport(
        method=method,
        activation=activation,
        upper_bound=float(upper_bound),
        lower_bound=float(lower_bound),
        lower_std_error=float(lower_std_error),
        duality_gap=gap,
        relative_gap=gap / abs(lower_bound),
        welfare_loss=loss,
        wall_clock=dict(wall_clock),
        policy_params=tuple(float(p) for p in policy_params),
        vstar_times=np.asarray(vstar_times, dtype=float),
        vstar_v0=np.asarray(vstar_v0, dtype=float),
        vstar_v_minus=np.asarray(vstar_v_minus, dtype=float),
        provenance=dict(provenance),
    )


_BOUNDS_COLUMNS = (
    "method",
    "activation",
    "upper_bound",
    "lower_bound",
    "lower_std_error",
    "duality_gap",
    "relative_gap",
    "welfare_loss",
    "seed",
    "n_intervals",
    "n_paths",
    "n_steps",
    "sobol_skip",
    "num_starts",
    "iterations_per_start",
)


def _write_rows(path: str, header, rows) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def emit_csv(report: BoundsReport, trajectories, trace, out_dir: str) -> list[str]:
    """Write the artifact set into out_dir; returns the written paths.

    ``trajectories`` is the simulation result carrying the step times
    and the mean wealth / face value / consumption curves; ``trace`` is
    the optimizer trace with (start, iteration, incumbent) entries.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    row = [
        report.method,
        report.activation or "",
        _fmt(report.upper_bound),
        _fmt(report.lower_bound),
        _fmt(report.lower_std_error),
        _fmt(report.duality_gap),
        _fmt(report.relative_gap),
        _fmt(report.welfare_loss),
    ]
    # the provenance columns follow the computed ones
    row += [str(report.provenance.get(c, "")) for c in _BOUNDS_COLUMNS[len(row) :]]
    bounds_path = os.path.join(out_dir, "bounds.csv")
    _write_rows(bounds_path, _BOUNDS_COLUMNS, [row])
    paths.append(bounds_path)

    vstar_path = os.path.join(out_dir, "vstar.csv")
    _write_rows(
        vstar_path,
        ("t", "v0", "v_minus"),
        (
            (_fmt(t), _fmt(a), _fmt(b))
            for t, a, b in zip(report.vstar_times, report.vstar_v0, report.vstar_v_minus)
        ),
    )
    paths.append(vstar_path)

    trace_path = os.path.join(out_dir, "trace.csv")
    _write_rows(
        trace_path,
        ("iteration", "incumbent_objective", "start_id"),
        ((it, _fmt(obj), start) for start, it, obj in trace.entries),
    )
    paths.append(trace_path)

    face_path = os.path.join(out_dir, "facevalue.csv")
    _write_rows(
        face_path,
        ("t", "mean_face_value"),
        (
            (_fmt(t), _fmt(fv))
            for t, fv in zip(trajectories.times, trajectories.mean_face_value)
        ),
    )
    paths.append(face_path)

    # wealth is recorded at all step boundaries, consumption only at the
    # left endpoints; the terminal row gets an empty consumption cell.
    wealth_path = os.path.join(out_dir, "wealth.csv")
    cons = list(trajectories.mean_consumption) + [None] * (
        len(trajectories.times) - len(trajectories.mean_consumption)
    )
    _write_rows(
        wealth_path,
        ("t", "mean_wealth", "mean_consumption"),
        (
            (_fmt(t), _fmt(w), "" if c is None else _fmt(c))
            for t, w, c in zip(trajectories.times, trajectories.mean_wealth, cons)
        ),
    )
    paths.append(wealth_path)

    report_path = os.path.join(out_dir, "report.txt")
    try:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(_render_text(report, trace))
    except OSError as exc:
        raise ValidationError(f"cannot write {report_path}: {exc}") from None
    paths.append(report_path)
    return paths


def _render_text(report: BoundsReport, trace) -> str:
    lines = [
        "life-cycle duality bounds",
        "=========================",
        f"method:            {report.method}"
        + (f" ({report.activation})" if report.activation else ""),
        f"upper bound:       {_fmt(report.upper_bound)}",
        f"lower bound:       {_fmt(report.lower_bound)}",
        f"lower std error:   {_fmt(report.lower_std_error)}",
        f"duality gap:       {_fmt(report.duality_gap)}",
        f"relative gap:      {_fmt(100.0 * report.relative_gap)} %",
        f"welfare loss:      {_fmt(100.0 * report.welfare_loss)} %",
        "",
        "wall clock [s]:",
    ]
    for phase, seconds in report.wall_clock.items():
        lines.append(f"  {phase:<12} {seconds:.3f}")
    lines.append("")
    lines.append("provenance:")
    for key in sorted(report.provenance):
        lines.append(f"  {key} = {report.provenance[key]}")
    lines.append(f"  {_NORMALS_NOTE}")
    lines.append("")
    lines.append("policy parameters:")
    lines.append("  " + ", ".join(_fmt(p) for p in report.policy_params))
    lines.append("")
    lines.append("optimizer starts (scipy outcome; |grad| at the final point):")
    for start, (final, outcome) in enumerate(zip(trace.per_start_final, trace.outcomes)):
        head = f"  start {start:>2}: final {_fmt(final)}"
        if outcome is None:
            lines.append(head + ", no solver iterations")
            continue
        lines.append(
            f"{head}, status {outcome.status}, nit {outcome.nit}, "
            f"nfev {outcome.nfev}, njev {outcome.njev}, "
            f"|grad| {outcome.grad_norm:.3e}: {outcome.message}"
        )
    lines.append("")
    return "\n".join(lines)


def read_vstar_csv(path: str) -> TablePolicy:
    """Load an exported v*(t) table back into an interpolating policy."""
    times, v0, vm = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "v0", "v_minus"]:
            raise ValidationError(f"{path}: unexpected header {header}")
        for row in reader:
            times.append(float(row[0]))
            v0.append(float(row[1]))
            vm.append(float(row[2]))
    return TablePolicy(
        times=tuple(times), v0_values=tuple(v0), v_minus_values=tuple(vm)
    )


def write_gfun_csv(g, path: str) -> None:
    """Write the consumption-annuity curve g(t) at its grid nodes."""
    _write_rows(
        path,
        ("t", "g"),
        ((_fmt(t), _fmt(v)) for t, v in zip(g.grid.nodes, g.values)),
    )
