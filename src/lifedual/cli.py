"""Command-line entry point.

Subcommands
-----------
run       optimize the upper bound, simulate the candidate lower bound,
          verify the budget identity, and write the CSV artifact set
validate  check scenario coefficient conditions and report violations
verify    optimize, then step only the dual streams and print the budget
          and kernel-martingale checks (no candidate simulation)
gfun      write the consumption-annuity curve g(t) as CSV

Common flags: ``--config PATH`` (flat key=value file), ``--preset
NAME`` (a ``market.PRESETS`` name), ``--out DIR``, ``--seed N``,
``--desk-scale`` (the protocol ``config.DESK_SCALE``).  Exit codes:
0 success, 1 validation failure, 2 numerical failure.

Once the config is read, ``run`` and ``verify`` do the rest in one forked
certificate worker (``lifedual.fork``), so the CLI process runs no numerics;
a failed scenario check carries its violations back as the error's note.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, fork, market
from .closed_form import compute_g, origin_upper_bound
from .config import DESK_SCALE, RunConfig, build_run_config, parse_kv_file
from .errors import NumericalError, ValidationError
from .lower_bound import dual_checks, simulate_candidate_value
from .optimizer import minimize_upper_bound
from .quadrature import UniformGrid
from .report import build_report, emit_csv, write_gfun_csv

__all__ = ["main", "exit_main"]

# largest |z| that run's budget check and verify's dual checks accept
_Z_LIMIT = 3.0


def _within_z_limit(*zs) -> bool:
    """True when every z-score is at most ``_Z_LIMIT`` in size; NaN is not."""
    return all(abs(z) <= _Z_LIMIT for z in zs)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--preset", choices=sorted(market.PRESETS), help="named base scenario")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="master seed")
    parser.add_argument(
        "--desk-scale",
        action="store_true",
        help="apply the reduced acceptance protocol: "
        + ", ".join(f"{key}={value}" for key, value in DESK_SCALE.items()),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifedual",
        description="duality bounds for a constrained life-cycle "
        "consumption/investment/insurance problem",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("run", "optimize, simulate, verify, and write artifacts"),
        ("validate", "check scenario coefficient conditions"),
        ("verify", "budget and kernel-martingale checks only"),
        ("gfun", "emit the consumption-annuity curve g(t) as CSV"),
    ):
        _add_common_flags(sub.add_parser(name, help=desc))
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    kv = parse_kv_file(args.config) if args.config else {}
    return build_run_config(
        kv,
        preset=args.preset,
        out_dir=args.out,
        seed=args.seed,
        desk_scale=args.desk_scale,
    )


def _validate_or_die(cfg: RunConfig) -> None:
    result = market.validate(cfg.scenario)
    if not result.passed:
        exc = ValidationError("scenario validation failed")
        exc.add_note(str(result))
        raise exc


def _fit(cfg: RunConfig):
    """Build g on the search and path grids and minimize the upper bound.

    The optimizer searches on g over the grid of ``quadrature.n_intervals``.
    Returns ``cert``, g on the path grid of ``sim.n_steps``, which the
    certificate's bounds, checks and ``vstar.csv`` read; the fitted
    policy, the optimizer's ``StartOutcome`` list and each phase's
    wall-clock seconds.
    """
    clock: dict[str, float] = {}

    t0 = time.perf_counter()
    g = compute_g(cfg.scenario, UniformGrid(0.0, cfg.scenario.T, cfg.n_intervals))
    cert = compute_g(cfg.scenario, UniformGrid(0.0, cfg.scenario.T, cfg.simulation.n_steps))
    clock["g_function"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    policy, outcomes = minimize_upper_bound(
        g, cfg.policy_kind, cfg.optimizer,
        seed=cfg.seed, activation=cfg.activation, snake_a=cfg.snake_a,
    )
    clock["optimize"] = time.perf_counter() - t0
    return cert, policy, outcomes, clock


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)

    def certify():
        _validate_or_die(cfg)
        try:  # an unusable --out fails here, not after the optimizer and the paths
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot write {cfg.out_dir}: {exc}") from None
        cert, policy, outcomes, clock = _fit(cfg)
        t0 = time.perf_counter()
        upper = origin_upper_bound(cert, policy)
        sim = simulate_candidate_value(cert, policy, config=cfg.simulation)
        clock["simulate"] = time.perf_counter() - t0
        clock["total"] = sum(clock.values())
        budget = sim.budget
        if not _within_z_limit(budget.z_score):
            raise NumericalError(
                f"budget identity violated: z = {budget.z_score:.2f} "
                f"(lhs {budget.lhs:.6f}, rhs {budget.rhs:.6f})"
            )
        report = build_report(upper, sim.value, sim.std_error, cfg.scenario.gamma)
        return report, budget, emit_csv(report, cfg, policy, outcomes, sim, clock)

    report, budget, paths = fork.in_two_processes(lambda: None, certify)[1]
    print(f"upper bound   {report.upper_bound:.7f}")
    print(f"lower bound   {report.lower_bound:.7f}  (s.e. {report.lower_std_error:.2e})")
    print(f"certificate   {report.certificate}")
    print(f"relative gap  {100.0 * report.relative_gap:.4f} %")
    if report.welfare_loss is not None:
        print(f"welfare loss  {100.0 * report.welfare_loss:.4f} %")
    print(f"budget z      {budget.z_score:+.3f}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    result = market.validate(cfg.scenario)
    print(str(result))
    return 0 if result.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)

    def certify():
        _validate_or_die(cfg)
        cert, policy, _, _ = _fit(cfg)
        return dual_checks(cert, policy, cfg.simulation)

    budget, martingale_z = fork.in_two_processes(lambda: None, certify)[1]
    print(
        f"budget identity: lhs {budget.lhs:.6f}  rhs {budget.rhs:.6f}  "
        f"z {budget.z_score:+.3f}"
    )
    for t, z in martingale_z:
        print(f"kernel martingale at t={t:7.3f}: z {z:+.3f}")
    if not _within_z_limit(budget.z_score, *(z for _, z in martingale_z)):
        raise NumericalError(f"verification z-scores outside +/-{_Z_LIMIT:g}")
    print("verification passed")
    return 0


def _cmd_gfun(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _validate_or_die(cfg)
    grid = UniformGrid(0.0, cfg.scenario.T, cfg.n_intervals)
    g = compute_g(cfg.scenario, grid)
    path = os.path.join(cfg.out_dir, "gfun.csv")
    write_gfun_csv(g, path)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "verify": _cmd_verify,
    "gfun": _cmd_gfun,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(*getattr(exc, "__notes__", ()), f"error: {exc}", sep="\n", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def exit_main() -> None:
    """Run ``main()`` on the process arguments and end the process.

    The entry point of ``python -m lifedual.cli`` and the ``lifedual``
    script.  After flushing stdout and stderr it leaves by ``os._exit``:
    every artifact is closed by then, and the interpreter's teardown of
    numpy would only add to each invocation's time.
    """
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    exit_main()
