"""Gompertz mortality law.

An individual of initial age x faces the force of mortality (hazard
rate)

    lambda_{x+t} = (1/b) * exp((x + t - m)/b),

with modal age m and dispersion b.  Because the hazard is an
exponential in t, every integral of it has an exact closed form,

    ∫_{t1}^{t2} lambda_{x+s} ds = e^{(x+t2-m)/b} - e^{(x+t1-m)/b},

which this module uses directly instead of quadrature: the survival
probabilities appear inside deeply nested integrals elsewhere, and the
exact exponent removes one discretization-error source from those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["MortalityModel"]


def _check_nonnegative(t, name: str = "t") -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValidationError(f"{name} must be nonnegative")
    return arr


@dataclass(frozen=True)
class MortalityModel:
    """Gompertz mortality for an individual of initial age ``x``.

    Parameters
    ----------
    x : float
        Initial age in years.
    m : float
        Modal age of the death distribution (years).
    b : float
        Dispersion parameter (years).
    """

    x: float = 45.0
    m: float = 86.3
    b: float = 9.5

    def __post_init__(self) -> None:
        if not np.isfinite(self.b) or self.b <= 0:
            raise ValidationError("dispersion b must be positive and finite")
        if not np.isfinite(self.x) or self.x < 0:
            raise ValidationError("initial age x must be nonnegative and finite")
        if not np.isfinite(self.m):
            raise ValidationError("modal age m must be finite")

    def hazard(self, t):
        """Force of mortality lambda_{x+t}; strictly increasing in t."""
        t = _check_nonnegative(t)
        out = np.exp((self.x + t - self.m) / self.b) / self.b
        return out if out.ndim else float(out)

    def cumulative_hazard(self, t1, t2):
        """Exact ∫_{t1}^{t2} lambda_{x+s} ds for 0 <= t1 <= t2."""
        t1 = _check_nonnegative(t1, "t1")
        t2 = np.asarray(t2, dtype=float)
        if np.any(t2 < t1):
            raise ValidationError("cumulative_hazard requires t1 <= t2")
        out = np.exp((self.x + t2 - self.m) / self.b) - np.exp(
            (self.x + t1 - self.m) / self.b
        )
        return out if out.ndim else float(out)

    def survival(self, t):
        """Survival probability exp(-∫_0^t lambda); equals 1 at t = 0."""
        t = _check_nonnegative(t)
        out = np.exp(-self.cumulative_hazard(0.0, t))
        return out if np.ndim(out) else float(out)
