"""Command-line entry point.

Subcommands
-----------
run       optimize the upper bound, simulate the candidate lower bound,
          verify the budget identity, and write the CSV artifact set
validate  check scenario coefficient conditions and report violations
verify    optimize, simulate, and print the budget and kernel-martingale
          checks of that path pass
gfun      write the consumption-annuity curve g(t) as CSV

Common flags: ``--config PATH`` (flat key=value file), ``--preset
example1|example2``, ``--out DIR``, ``--seed N``, ``--desk-scale``
(reduced acceptance protocol).  Exit codes: 0 success, 1 validation
failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, market
from .closed_form import compute_g
from .config import RunConfig, build_run_config, parse_kv_file
from .drift_policy import evaluate as evaluate_policy
from .drift_policy import flatten
from .errors import NumericalError, ValidationError
from .lower_bound import simulate_candidate_value
from .optimizer import minimize_upper_bound
from .quadrature import UniformGrid
from .report import build_report, emit_csv, write_gfun_csv

__all__ = ["main"]


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument(
        "--preset", choices=("example1", "example2"), help="named base scenario"
    )
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="master seed")
    parser.add_argument(
        "--desk-scale",
        action="store_true",
        help="apply the reduced acceptance protocol (5 starts, n=100 grid)",
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
        print(str(result), file=sys.stderr)
        raise ValidationError("scenario validation failed")


def _optimize(cfg: RunConfig, g):
    policy, trace = minimize_upper_bound(
        cfg.scenario,
        g,
        cfg.policy_kind,
        cfg.optimizer,
        seed=cfg.seed,
        activation=cfg.activation,
        snake_a=cfg.snake_a,
    )
    return policy, trace


def _provenance(cfg: RunConfig) -> dict[str, object]:
    return {
        "code_version": __version__,
        "preset": cfg.preset or "example1",
        "seed": cfg.seed,
        "n_intervals": cfg.n_intervals,
        "n_paths": cfg.simulation.n_paths,
        "n_steps": cfg.simulation.n_steps,
        "sobol_skip": cfg.simulation.sobol_skip,
        "num_starts": cfg.optimizer.num_starts,
        "iterations_per_start": cfg.optimizer.iterations_per_start,
        "algorithm": cfg.optimizer.algorithm,
        "policy_kind": cfg.policy_kind,
        "activation": cfg.activation if cfg.policy_kind == "mlp" else "",
    }


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _validate_or_die(cfg)
    clock: dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    grid = UniformGrid(0.0, cfg.scenario.T, cfg.n_intervals)
    g = compute_g(cfg.scenario, grid)
    clock["g_function"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    policy, trace = _optimize(cfg, g)
    clock["optimize"] = time.perf_counter() - t0
    upper = trace.best_objective

    t0 = time.perf_counter()
    sim = simulate_candidate_value(cfg.scenario, g, policy, cfg.simulation)
    clock["simulate"] = time.perf_counter() - t0
    budget = sim.budget
    if not np.isfinite(budget.z_score):
        raise NumericalError("budget check produced a non-finite z-score")
    if abs(budget.z_score) > 5.0:
        raise NumericalError(
            f"budget identity violated: z = {budget.z_score:.2f} "
            f"(lhs {budget.lhs:.6f}, rhs {budget.rhs:.6f})"
        )
    clock["total"] = time.perf_counter() - t_total

    v0, vm = evaluate_policy(policy, grid.nodes, horizon=cfg.scenario.T)
    prov = _provenance(cfg)
    prov["budget_z"] = f"{budget.z_score:.4f}"
    report = build_report(
        method=cfg.policy_kind,
        activation=cfg.activation if cfg.policy_kind == "mlp" else None,
        upper_bound=upper,
        lower_bound=sim.value,
        lower_std_error=sim.std_error,
        gamma=cfg.scenario.gamma,
        wall_clock=clock,
        policy_params=flatten(policy),
        vstar_times=grid.nodes,
        vstar_v0=v0,
        vstar_v_minus=vm,
        provenance=prov,
    )
    paths = emit_csv(report, sim, trace, cfg.out_dir)

    print(f"upper bound   {report.upper_bound:.7f}")
    print(f"lower bound   {report.lower_bound:.7f}  (s.e. {report.lower_std_error:.2e})")
    print(f"relative gap  {100.0 * report.relative_gap:.4f} %")
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
    _validate_or_die(cfg)
    grid = UniformGrid(0.0, cfg.scenario.T, cfg.n_intervals)
    g = compute_g(cfg.scenario, grid)
    policy, _ = _optimize(cfg, g)
    sim = simulate_candidate_value(cfg.scenario, g, policy, cfg.simulation)
    budget = sim.budget
    print(
        f"budget identity: lhs {budget.lhs:.6f}  rhs {budget.rhs:.6f}  "
        f"z {budget.z_score:+.3f}"
    )
    ok = np.isfinite(budget.z_score) and abs(budget.z_score) <= 3.0
    for t, z in sim.martingale_z:
        print(f"kernel martingale at t={t:7.3f}: z {z:+.3f}")
        ok = ok and np.isfinite(z) and abs(z) <= 3.0
    if not ok:
        raise NumericalError("verification z-scores outside +/-3")
    print("verification passed")
    return 0


def _cmd_gfun(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _validate_or_die(cfg)
    grid = UniformGrid(0.0, cfg.scenario.T, cfg.n_intervals)
    g = compute_g(cfg.scenario, grid)
    os.makedirs(cfg.out_dir, exist_ok=True)
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
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
