"""Market scenario: deterministic coefficient curves and dual-market kernels.

The economy has one bond with rate r(t) and one stock with appreciation
rate mu(t) and volatility sigma(t) > 0, plus a labor-income stream Y_t
following a geometric Brownian motion (drift mu_Y, volatility sigma_Y,
driven by the same Brownian motion as the stock) that stops at the
retirement date T_R.  A drift adjustment v = (v0, v_minus) >= 0 defines
a fictitious unconstrained market with coefficients
(r + v0, mu + v_minus, sigma), whose market price of risk is

    kappa_v(t) = -(mu(t) + v_minus - (r(t) + v0)) / sigma(t)

and whose state-price density pi_v accumulates, in log space,

    d log pi_v = -(r + v0) dt + kappa_v dZ - kappa_v^2/2 dt.

The scenario also carries the preference parameters (CRRA gamma,
subjective discount delta_tilde), the horizon pair (T_R, T), and the
mortality law, so one object fully describes a problem instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .mortality import MortalityModel

__all__ = [
    "CoefficientCurve",
    "MarketScenario",
    "ValidationReport",
    "PRESETS",
    "preset_scenario",
    "kappa",
    "price_of_risk",
    "validate",
]


@dataclass(frozen=True)
class CoefficientCurve:
    """Deterministic time-dependent coefficient.

    Three shapes cover the use cases: a constant, a sinusoidal
    perturbation base + amplitude*sin(frequency*t), and a
    piecewise-linear table interpolated in t (flat extrapolation).
    """

    base: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    table_t: tuple[float, ...] | None = None
    table_v: tuple[float, ...] | None = None

    @classmethod
    def constant(cls, value: float) -> "CoefficientCurve":
        return cls(base=float(value))

    @classmethod
    def sinusoid(cls, base: float, amplitude: float, frequency: float) -> "CoefficientCurve":
        return cls(base=float(base), amplitude=float(amplitude), frequency=float(frequency))

    @classmethod
    def from_table(cls, points: list[tuple[float, float]]) -> "CoefficientCurve":
        if not points:
            raise ValidationError("curve table must contain at least one point")
        pts = sorted(points)
        ts = tuple(float(t) for t, _ in pts)
        if len(set(ts)) != len(ts):
            raise ValidationError("curve table times must be distinct")
        return cls(table_t=ts, table_v=tuple(float(v) for _, v in pts))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.table_t is not None:
            out = np.interp(t_arr, self.table_t, self.table_v)
        elif self.amplitude != 0.0:
            out = self.base + self.amplitude * np.sin(self.frequency * t_arr)
        else:
            out = np.full_like(t_arr, self.base)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MarketScenario:
    """Full problem instance: market curves, income, preferences, horizons."""

    r: CoefficientCurve
    mu: CoefficientCurve
    sigma: CoefficientCurve
    mu_Y: float
    sigma_Y: float
    Y0: float
    W0: float
    gamma: float
    delta_tilde: float
    T_R: float
    T: float
    mortality: MortalityModel = field(default_factory=MortalityModel)


# name -> stock drift of the base scenarios ``--preset`` names; the rest is shared
PRESETS = {
    "example1": CoefficientCurve.constant(0.07),
    "example2": CoefficientCurve.sinusoid(0.07, 0.03, 0.5),
}


def preset_scenario(name: str) -> MarketScenario:
    """The named base scenario, whose stock drift is ``PRESETS[name]``."""
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return MarketScenario(
        r=CoefficientCurve.constant(0.02),
        mu=PRESETS[name],
        sigma=CoefficientCurve.constant(0.2),
        mu_Y=0.01,
        sigma_Y=0.05,
        Y0=50.0,
        W0=200.0,
        gamma=1.5,
        delta_tilde=0.02,
        T_R=20.0,
        T=50.0,
        mortality=MortalityModel(x=45.0, m=86.3, b=9.5),
    )


def kappa(scenario: MarketScenario, t, v0=0.0, v_minus=0.0):
    """Price of risk -(mu + v_minus - (r + v0))/sigma of the adjusted market.

    With v = 0 this is the baseline kappa_0 = -(mu - r)/sigma.
    """
    sig = scenario.sigma(t)
    if np.any(np.asarray(sig) <= 0):
        raise ValidationError("sigma(t) must be positive")
    out = price_of_risk(scenario.mu(t), scenario.r(t), sig, v0, v_minus)
    return out if np.ndim(out) else float(out)


def price_of_risk(mu, r, sigma, v0=0.0, v_minus=0.0):
    """``kappa``'s arithmetic on curve values already taken, unchecked."""
    return -(mu + v_minus - (r + v0)) / sigma


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of scenario validation; failures carry the first bad t."""

    passed: bool
    failures: tuple[tuple[str, float], ...]

    def __str__(self) -> str:  # human-readable summary for the CLI
        if self.passed:
            return "scenario valid"
        lines = [f"  {name}: first violation at t={t:g}" for name, t in self.failures]
        return "scenario invalid:\n" + "\n".join(lines)


_SCALAR_FIELDS = ("mu_Y", "sigma_Y", "Y0", "W0", "gamma", "delta_tilde", "T_R", "T")


def validate(scenario: MarketScenario, n_check: int = 1000) -> ValidationReport:
    """Check scenario invariants on a dense time grid.

    Conditions: sigma > 0; income feasibility sigma_Y <= sigma(t) and
    mu_Y/sigma_Y <= mu(t)/sigma(t) (these make the income stream
    priceable in every adjusted market); 0 <= T_R < T; positive
    initial wealth; nonnegative initial income; gamma > 1 (the
    implemented utility branch — gamma = 1 is singular in the closed
    forms and gamma < 1 is untested).  A non-finite scalar field or
    curve value fails on its own (``<name>_finite``), and the
    conditions above are then not checked, since NaN compares false.
    """
    failures = [
        (f"{name}_finite", 0.0)
        for name in _SCALAR_FIELDS
        if not np.isfinite(getattr(scenario, name))
    ]
    if failures:
        return ValidationReport(passed=False, failures=tuple(failures))
    ts = np.linspace(0.0, scenario.T, n_check)

    def first_bad(mask) -> float:
        return float(ts[np.argmax(mask)])

    curves = {name: np.asarray(getattr(scenario, name)(ts)) for name in ("r", "mu", "sigma")}
    for name, values in curves.items():
        bad = ~np.isfinite(values)
        if bad.any():
            failures.append((f"{name}_finite", first_bad(bad)))
    if failures:
        return ValidationReport(passed=False, failures=tuple(failures))

    sig, mu = curves["sigma"], curves["mu"]
    bad = sig <= 0
    if bad.any():
        failures.append(("sigma_positive", first_bad(bad)))
    else:
        bad = scenario.sigma_Y > sig
        if bad.any():
            failures.append(("income_vol_dominated", first_bad(bad)))
        if scenario.sigma_Y > 0:
            bad = scenario.mu_Y / scenario.sigma_Y > mu / sig
            if bad.any():
                failures.append(("income_sharpe_dominated", first_bad(bad)))
    if not 0.0 <= scenario.T_R < scenario.T:
        failures.append(("horizon_order", scenario.T_R))
    if not scenario.W0 > 0:
        failures.append(("initial_wealth_positive", 0.0))
    if scenario.Y0 < 0:
        failures.append(("initial_income_nonnegative", 0.0))
    if not scenario.gamma > 1:
        failures.append(("gamma_supported", 0.0))
    if scenario.delta_tilde < 0:
        failures.append(("discount_nonnegative", 0.0))
    return ValidationReport(passed=not failures, failures=tuple(failures))
