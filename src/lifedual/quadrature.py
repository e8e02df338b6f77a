"""Trapezoidal quadrature on uniform time grids.

All deterministic integrals in the bound computations have the shape

    I(t) = ∫_t^T base(s) · exp(-∫_0^{s-t} q(s-u) du) ds,

where the inner exponent is itself an integral of scenario
coefficients.  Substituting w = s - u turns every inner exponent into a
difference of prefix integrals along the *same* node family,

    ∫_0^{s-t} q(s-u) du = Q(s) - Q(t),   Q(s) = ∫_{t0}^s q(w) dw,

so a single cumulative-trapezoid table serves every (t, s) pair.  This
module provides the grid type, the prefix trapezoid table, its value
between nodes, and their adjoints (the transposes of these linear
maps, which the reverse-mode gradient of the upper bound runs
through); the closed-form module builds its aggregates out of these
prefix tables in O(n) per curve.  The prefix tables, their adjoint and
the off-node prefix value act along the last axis, so one call serves
a stack of curves, row by row with the arithmetic of one curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "UniformGrid",
    "prefix_trapezoid",
    "prefix_value_at",
    "prefix_trapezoid_adjoint",
    "prefix_value_weights",
]


@dataclass(frozen=True)
class UniformGrid:
    """Uniform partition of [t_start, t_end] into n_intervals cells.

    Nodes are t_start + k*h for k = 0..n_intervals with
    h = (t_end - t_start)/n_intervals.
    """

    t_start: float
    t_end: float
    n_intervals: int

    def __post_init__(self) -> None:
        if self.n_intervals < 1:
            raise ValidationError("n_intervals must be >= 1")
        if not self.t_start <= self.t_end:
            raise ValidationError("grid requires t_start <= t_end")

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / self.n_intervals

    @cached_property
    def nodes(self) -> np.ndarray:
        """The n_intervals + 1 nodes, built once per grid (read-only)."""
        nodes = np.linspace(self.t_start, self.t_end, self.n_intervals + 1)
        nodes.flags.writeable = False
        return nodes


def prefix_trapezoid(values: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Cumulative trapezoid table P with P[k] = ∫_{t0}^{t_k} v dt, along the last axis.

    P[0] = 0 and P[n] is the composite rule h (v0/2 + v1 + ... + vn/2),
    exact for integrands affine on each cell; differences P[j] - P[i]
    reproduce the rule on [t_i, t_j] (it is additive over sub-intervals).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != grid.n_intervals + 1:
        raise ValidationError(
            f"expected {grid.n_intervals + 1} node values, got {values.shape[-1]}"
        )
    h = grid.step
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    np.cumsum(0.5 * h * (values[..., 1:] + values[..., :-1]), axis=-1, out=out[..., 1:])
    return out


@lru_cache(maxsize=64)
def _partial_cell(grid: UniformGrid, t: float) -> tuple[int, float]:
    """Cell index j with nodes[j] <= t and the offset t - nodes[j].

    j = n_intervals when t is the grid end (no partial cell is left).
    Memoized: the optimizer's objective asks for T_R's cell on its grid
    at every evaluation.
    """
    nodes = grid.nodes
    if not nodes[0] <= t <= nodes[-1]:
        raise ValidationError(f"t={t} outside grid [{nodes[0]}, {nodes[-1]}]")
    j = int(np.searchsorted(nodes, t, side="right")) - 1
    j = min(j, grid.n_intervals)  # t == t_end lands past the last cell
    return j, t - nodes[j]


def prefix_value_at(prefix: np.ndarray, values: np.ndarray, grid: UniformGrid, t: float):
    """Prefix integral ∫_{t0}^{t} v dt at an off-node point t, along the last axis.

    The last partial cell is closed with one trapezoid using the
    linearly interpolated integrand value at t, so the result stays
    O(h²)-consistent with the node table.  A scalar for one table, an
    array over the leading axes for a stack.
    """
    j, d = _partial_cell(grid, t)
    if j == grid.n_intervals:
        return prefix[..., -1]
    frac = d / grid.step
    v_t = values[..., j] + frac * (values[..., j + 1] - values[..., j])
    return prefix[..., j] + 0.5 * (values[..., j] + v_t) * d


def prefix_trapezoid_adjoint(adjoint: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Transpose of ``prefix_trapezoid``: node sensitivities of Σ_k a_k P[k].

    With R_k = Σ_{i>=k} a_i, value m enters the cell to its right for
    every k > m and the cell to its left for every k >= m, so the
    result is (h/2)(R_{m+1} + R_m) with R_{n+1} = 0 and no left cell at
    m = 0.  a_0 drops out because P[0] = 0.  Along the last axis.
    """
    adjoint = np.asarray(adjoint, dtype=float)
    tail = np.cumsum(adjoint[..., ::-1], axis=-1)[..., ::-1]
    out = np.zeros(adjoint.shape[:-1] + (grid.n_intervals + 1,))
    out[..., :-1] += tail[..., 1:]
    out[..., 1:] += tail[..., 1:]
    return 0.5 * grid.step * out


def prefix_value_weights(grid: UniformGrid, t: float) -> np.ndarray:
    """Node weights w with ``prefix_value_at(prefix_trapezoid(v), v, grid, t)`` = w·v.

    Full cells up to node j carry the trapezoid weights; the partial
    cell [t_j, t] adds d(2 - f)/2 to v_j and d f/2 to v_{j+1}, where
    d = t - t_j and f = d/h.
    """
    j, d = _partial_cell(grid, t)
    h = grid.step
    w = np.zeros(grid.n_intervals + 1)
    if j > 0:
        w[: j + 1] = h
        w[0] = w[j] = 0.5 * h
    if j < grid.n_intervals:
        frac = d / h
        w[j] += 0.5 * d * (2.0 - frac)
        w[j + 1] += 0.5 * d * frac
    return w
