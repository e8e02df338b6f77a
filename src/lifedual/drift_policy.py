"""Parameterized drift-adjustment policies v(t) = (v0(t), v_minus(t)).

The dual decision variable is a deterministic map from time to a
nonnegative drift adjustment of the bond and stock.  Two families are
implemented:

* ``AffinePolicy`` — one affine function of t per component and phase,
  wrapped in a positive part, with separate coefficient pairs before
  and after the retirement date:

      v(t) = ((a1 + a2 t)^+, (a3 + a4 t)^+)    for t <  T_R,
      v(t) = ((a5 + a6 t)^+, (a7 + a8 t)^+)    for t >= T_R.

* ``MlpPolicy`` — a 1-10-2 feedforward network in t with ReLU or Snake
  activation and positive-part outputs, a single network over the
  whole horizon.  Parameters are laid out as [w1..w30, b1..b12]:
  hidden weights w1..w10 and biases b1..b10 form the hidden nodes
  H_i = f(w_i t + b_i); output weights w11..w20 with bias b11 produce
  v0 = (sum_i w_{10+i} H_i + b11)^+, and w21..w30 with b12 produce
  v_minus.  42 parameters total.

The Snake activation x + sin^2(a x)/a perturbs the identity by a
bounded periodic ripple, which suits drift adjustments that must track
an oscillating market coefficient.

Both families are exposed to the optimizer as flat parameter vectors;
outputs are nonnegative by construction so the optimizer never needs
feasibility penalties.  Each family's ``vjp`` maps sensitivities of a
scalar to v0 and v_minus at a set of times back onto the flat
parameters (the positive part passes the sensitivity only where its
argument is positive), which turns the upper bound's node gradient
into the optimizer's parameter gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "AffinePolicy",
    "MlpPolicy",
    "TablePolicy",
    "snake",
    "evaluate",
    "init_params",
    "make_policy",
    "AFFINE_N_PARAMS",
    "MLP_N_PARAMS",
]

AFFINE_N_PARAMS = 8
MLP_N_PARAMS = 42
_HIDDEN = 10
_INIT_STD = 1e-2  # scale of the initial parameter draws


def snake(x, a: float):
    """Snake activation x + sin^2(a*x)/a for frequency a > 0.

    Equals x whenever a*x is an integer multiple of pi, and never
    deviates from the identity by more than 1/a.
    """
    if a <= 0:
        raise ValidationError("snake frequency a must be positive")
    x = np.asarray(x, dtype=float)
    out = x + np.sin(a * x) ** 2 / a
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AffinePolicy:
    """Piecewise-affine drift adjustment with a breakpoint at t_retire."""

    params: tuple[float, ...]
    t_retire: float

    def __post_init__(self) -> None:
        if len(self.params) != AFFINE_N_PARAMS:
            raise ValidationError(
                f"affine policy takes {AFFINE_N_PARAMS} parameters, got {len(self.params)}"
            )

    def _pre_activation(self, t):
        a = self.params
        working = t < self.t_retire
        z0 = np.where(working, a[0] + a[1] * t, a[4] + a[5] * t)
        zm = np.where(working, a[2] + a[3] * t, a[6] + a[7] * t)
        return working, z0, zm

    def __call__(self, t):
        _, z0, zm = self._pre_activation(np.asarray(t, dtype=float))
        return np.maximum(z0, 0.0), np.maximum(zm, 0.0)

    def vjp(self, t, d_v0, d_vm) -> np.ndarray:
        """Gradient of Σ d_v0·v0(t) + d_vm·v_minus(t) in the 8 parameters."""
        t = np.asarray(t, dtype=float)
        working, z0, zm = self._pre_activation(t)
        g0 = np.where(z0 > 0.0, d_v0, 0.0)
        gm = np.where(zm > 0.0, d_vm, 0.0)
        out = np.empty(AFFINE_N_PARAMS)
        for base, phase in ((0, working), (4, ~working)):
            out[base : base + 4] = [
                g0[phase].sum(),
                (g0 * t)[phase].sum(),
                gm[phase].sum(),
                (gm * t)[phase].sum(),
            ]
        return out


@dataclass(frozen=True)
class MlpPolicy:
    """1-10-2 network in t with positive-part outputs."""

    params: tuple[float, ...]
    activation: str = "relu"
    snake_a: float = 10.0

    def __post_init__(self) -> None:
        if len(self.params) != MLP_N_PARAMS:
            raise ValidationError(
                f"mlp policy takes {MLP_N_PARAMS} parameters, got {len(self.params)}"
            )
        if self.activation not in ("relu", "snake"):
            raise ValidationError("activation must be 'relu' or 'snake'")
        if self.activation == "snake" and self.snake_a <= 0:
            raise ValidationError("snake frequency must be positive")

    def _forward(self, t):
        """Hidden pre-activations z, activations h and the two raw outputs."""
        p = np.asarray(self.params)
        w_hidden = p[:_HIDDEN]
        w_out0 = p[_HIDDEN : 2 * _HIDDEN]
        w_out1 = p[2 * _HIDDEN : 3 * _HIDDEN]
        b_hidden = p[30:40]
        b_out0, b_out1 = p[40], p[41]
        z = np.multiply.outer(t, w_hidden) + b_hidden
        if self.activation == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = snake(z, self.snake_a)
        return z, h, h @ w_out0 + b_out0, h @ w_out1 + b_out1

    def __call__(self, t):
        _, _, o0, o1 = self._forward(np.asarray(t, dtype=float))
        return np.maximum(o0, 0.0), np.maximum(o1, 0.0)

    def vjp(self, t, d_v0, d_vm) -> np.ndarray:
        """Gradient of Σ d_v0·v0(t) + d_vm·v_minus(t) in the 42 parameters.

        Backpropagation through the positive-part outputs and the hidden
        layer; ReLU passes where z > 0, Snake has slope 1 + sin(2 a z).
        """
        t = np.asarray(t, dtype=float)
        z, h, o0, o1 = self._forward(t)
        g0 = np.where(o0 > 0.0, d_v0, 0.0)
        g1 = np.where(o1 > 0.0, d_vm, 0.0)
        p = np.asarray(self.params)
        dh = np.multiply.outer(g0, p[_HIDDEN : 2 * _HIDDEN]) + np.multiply.outer(
            g1, p[2 * _HIDDEN : 3 * _HIDDEN]
        )
        if self.activation == "relu":
            dz = np.where(z > 0.0, dh, 0.0)
        else:
            dz = dh * (1.0 + np.sin(2.0 * self.snake_a * z))
        return np.concatenate(
            [t @ dz, g0 @ h, g1 @ h, dz.sum(axis=0), [g0.sum(), g1.sum()]]
        )


@dataclass(frozen=True)
class TablePolicy:
    """Drift adjustment linearly interpolated from tabulated values.

    Used to re-evaluate exported v*(t) tables; at the table's own nodes
    interpolation is exact, so bounds recomputed from a round-tripped
    table match the original to serialization precision.
    """

    times: tuple[float, ...]
    v0_values: tuple[float, ...]
    v_minus_values: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.times)
        if n < 2:
            raise ValidationError("table policy needs at least two nodes")
        if len(self.v0_values) != n or len(self.v_minus_values) != n:
            raise ValidationError("table policy columns must share a length")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("table policy times must be increasing")
        if min(self.v0_values) < 0 or min(self.v_minus_values) < 0:
            raise ValidationError("table policy values must be nonnegative")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        v0 = np.interp(t, self.times, self.v0_values)
        vm = np.interp(t, self.times, self.v_minus_values)
        return v0, vm


def evaluate(policy, t, horizon: float | None = None):
    """Evaluate a policy at time(s) t, optionally checking t in [0, horizon]."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValidationError("policy evaluation requires t >= 0")
    if horizon is not None and np.any(t_arr > horizon):
        raise ValidationError(f"policy evaluation requires t <= {horizon}")
    return policy(t)


def init_params(kind: str, seed) -> np.ndarray:
    """Draw a flat initial parameter vector, deterministic given seed.

    Parameters are N(0, _INIT_STD): affine coefficients of that size
    make the initial v(t) over a multi-decade horizon comparable to the
    drift spreads being adjusted, and the same scale keeps the
    network's initial outputs small without flattening its gradients.
    """
    rng = np.random.default_rng(seed)
    if kind == "affine":
        return rng.normal(0.0, _INIT_STD, AFFINE_N_PARAMS)
    if kind == "mlp":
        return rng.normal(0.0, _INIT_STD, MLP_N_PARAMS)
    raise ValidationError(f"unknown policy kind {kind!r}")


def make_policy(
    kind: str,
    params,
    *,
    t_retire: float | None = None,
    activation: str = MlpPolicy.activation,
    snake_a: float = MlpPolicy.snake_a,
):
    """Build a policy from a flat parameter vector.

    The affine kind needs the retirement breakpoint; the network kind
    needs the activation choice.  Lengths are checked (8 or 42).
    """
    params = tuple(float(p) for p in np.asarray(params, dtype=float))
    if kind == "affine":
        if t_retire is None:
            raise ValidationError("affine policy requires t_retire")
        return AffinePolicy(params=params, t_retire=float(t_retire))
    if kind == "mlp":
        return MlpPolicy(params=params, activation=activation, snake_a=snake_a)
    raise ValidationError(f"unknown policy kind {kind!r}")
