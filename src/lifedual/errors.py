"""Exception types shared across the package.

Two failure families matter to callers: configuration/domain problems
that are detectable before any numerics run, and numerical breakdowns
discovered mid-computation (blown-up paths, non-finite objectives).
The command-line driver maps them to distinct exit codes.
"""

from __future__ import annotations

__all__ = ["ValidationError", "NumericalError"]


class ValidationError(ValueError):
    """A configuration, scenario, or argument failed a domain check."""


class NumericalError(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""
