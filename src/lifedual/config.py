"""Flat key=value run configuration.

The on-disk format is plain text, one ``dotted.key = value`` per line,
``#`` comments and blank lines ignored — trivially parseable and
diff-friendly.  ``build_run_config`` merges a parsed file with
command-line overrides and returns a fully validated ``RunConfig``
bundling the scenario, policy choice, optimizer, simulation and
quadrature settings, output directory and master seed.

Coefficient curves accept three spellings, e.g. for the stock drift::

    scenario.mu = 0.07                      # constant
    scenario.mu.base = 0.07                 # sinusoid
    scenario.mu.amplitude = 0.03
    scenario.mu.frequency = 0.5
    scenario.mu.table = 0:0.07, 10:0.05     # piecewise-linear table
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .drift_policy import PolicyFamily
from .errors import ValidationError
from .lower_bound import SimulationConfig, check_path_grid
from .market import CoefficientCurve, MarketScenario, preset_scenario
from .optimizer import OptimizerConfig, _check_seed

__all__ = ["RunConfig", "parse_kv_file", "build_run_config", "DESK_SCALE"]

# Reduced protocol used for acceptance runs: fewer starts, the
# standard grid and the full simulation budget.
DESK_SCALE = {
    "opt.num_starts": "5",
    "opt.iterations_per_start": "50",
    "quadrature.n_intervals": "100",
    "sim.n_paths": "20000",
    "sim.n_steps": "1000",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, resolved and validated."""

    scenario: MarketScenario
    policy_kind: str = "affine"
    activation: str = PolicyFamily.activation
    snake_a: float = PolicyFamily.snake_a
    optimizer: OptimizerConfig = OptimizerConfig()
    simulation: SimulationConfig = SimulationConfig()
    n_intervals: int = 100
    out_dir: str = "out"
    seed: int = 0
    preset: str = "example1"  # the base scenario's name

    def __post_init__(self) -> None:
        # the family the fit builds checks the policy kind and its settings
        PolicyFamily(
            self.policy_kind,
            t_retire=self.scenario.T_R,
            activation=self.activation,
            snake_a=self.snake_a,
        )
        if self.n_intervals < 1:
            raise ValidationError("quadrature.n_intervals must be positive")
        _check_seed(self.seed)


def parse_kv_file(path) -> dict[str, str]:
    """Parse a key=value file into a string map.

    Keys must be unique; a line without '=' (after stripping comments)
    is an error reported with its line number.
    """
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"cannot read config file: {path} is not UTF-8 text ({exc.reason})"
        ) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _number(key: str, text: str, kind=float):
    """``kind(text)``, with a malformed or non-finite value reported against its key."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not -math.inf < value < math.inf:  # NaN fails too; exact for huge integers
        noun = "an integer" if kind is int else "a finite number"
        raise ValidationError(f"{key}: expected {noun}, got {text!r}")
    return value


# config key -> (dataclass field, type); unset keys keep the field default
_MORTALITY_KEYS = {
    "mortality.initial_age": ("x", float),
    "mortality.modal_age": ("m", float),
    "mortality.dispersion": ("b", float),
}
_SCENARIO_KEYS = {
    "scenario.mu_y": ("mu_Y", float),
    "scenario.sigma_y": ("sigma_Y", float),
    "scenario.y0": ("Y0", float),
    "scenario.w0": ("W0", float),
    "scenario.gamma": ("gamma", float),
    "scenario.delta_tilde": ("delta_tilde", float),
    "scenario.t_retire": ("T_R", float),
    "scenario.horizon": ("T", float),
}
_OPTIMIZER_KEYS = {
    "opt.num_starts": ("num_starts", int),
    "opt.iterations_per_start": ("iterations_per_start", int),
}
_SIMULATION_KEYS = {
    "sim.n_paths": ("n_paths", int),
    "sim.n_steps": ("n_steps", int),
    "sim.sobol_skip": ("sobol_skip", int),
}
_RUN_KEYS = {
    "policy.kind": ("policy_kind", str),
    "policy.activation": ("activation", str),
    "policy.snake_a": ("snake_a", float),
    "quadrature.n_intervals": ("n_intervals", int),
    "out.dir": ("out_dir", str),
}


def _pop_fields(kv, keys) -> dict:
    """Keyword arguments for those of ``keys`` that ``kv`` sets."""
    fields = {}
    for key, (field, kind) in keys.items():
        if key in kv:
            text = kv.pop(key)
            fields[field] = text if kind is str else _number(key, text, kind)
    return fields


def _parse_table(key: str, text: str) -> list[tuple[float, float]]:
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValidationError(f"{key}: table entry {chunk!r} must look like t:value")
        t_str, v_str = chunk.split(":", 1)
        points.append((_number(key, t_str), _number(key, v_str)))
    if not points:
        raise ValidationError(f"{key}: curve table is empty")
    return points


def _pop_curve(kv, name, default: CoefficientCurve) -> CoefficientCurve:
    """Resolve scenario.<name> given as a constant, sinusoid parts, or table."""
    flat = f"scenario.{name}"
    parts = {k: kv.pop(flat + "." + k) for k in ("base", "amplitude", "frequency", "table")
             if flat + "." + k in kv}
    if flat in kv:
        if parts:
            raise ValidationError(f"{flat} given both as a constant and with sub-keys")
        return CoefficientCurve.constant(_number(flat, kv.pop(flat)))
    if "table" in parts:
        if len(parts) > 1:
            raise ValidationError(f"{flat}.table excludes the sinusoid sub-keys")
        return CoefficientCurve.from_table(_parse_table(flat + ".table", parts["table"]))
    if parts:
        def part(key, fallback):
            return _number(f"{flat}.{key}", parts[key]) if key in parts else fallback

        return CoefficientCurve.sinusoid(
            part("base", default.base), part("amplitude", 0.0), part("frequency", 0.0)
        )
    return default


def build_run_config(
    kv: dict[str, str] | None = None,
    *,
    preset: str | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
    desk_scale: bool = False,
) -> RunConfig:
    """Resolve file keys plus command-line overrides into a RunConfig.

    Precedence, lowest to highest: preset defaults, config-file keys,
    the desk-scale preset, then the explicit --out/--seed overrides.
    Unknown keys are rejected so typos cannot silently change a run, and
    so is a ``sim.n_steps`` that puts T_R inside a path step.
    """
    kv = dict(kv or {})
    if desk_scale:
        kv.update(DESK_SCALE)

    preset_name = kv.pop("scenario.preset", RunConfig.preset)
    if preset is not None:
        preset_name = preset
    base = preset_scenario(preset_name)

    # read order (mortality, curves, scalars) fixes which bad value is reported first
    mortality = replace(base.mortality, **_pop_fields(kv, _MORTALITY_KEYS))
    curves = {name: _pop_curve(kv, name, getattr(base, name)) for name in ("r", "mu", "sigma")}
    scalars = _pop_fields(kv, _SCENARIO_KEYS)
    scenario = replace(base, **curves, **scalars, mortality=mortality)

    file_seed = kv.pop("seed", None)
    if seed is None and file_seed is not None:
        seed = _number("seed", file_seed, int)
    optimizer = OptimizerConfig(**_pop_fields(kv, _OPTIMIZER_KEYS))
    simulation = SimulationConfig(**_pop_fields(kv, _SIMULATION_KEYS))
    run = _pop_fields(kv, _RUN_KEYS)
    if out_dir is not None:
        run["out_dir"] = out_dir
    if seed is not None:
        run["seed"] = seed
    config = RunConfig(
        scenario=scenario,
        optimizer=optimizer,
        simulation=simulation,
        preset=preset_name,
        **run,
    )
    if kv:
        raise ValidationError(f"unknown config keys: {sorted(kv)}")
    if 0.0 <= scenario.T_R < scenario.T:  # market.validate reports any other horizon
        check_path_grid(scenario, simulation.n_steps)
    return config
