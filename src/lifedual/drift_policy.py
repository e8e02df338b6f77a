"""Parameterized drift-adjustment policies v(t) = (v0(t), v_minus(t)).

The dual decision variable is a deterministic map from time to a
nonnegative drift adjustment of the bond and stock.  A policy is a
``PolicyFamily`` (a kind with its fixed settings) and a flat parameter
vector of that family; ``PolicyFamily.policy(params)`` builds the
``Policy``.  Two kinds are implemented:

* ``affine`` — one affine function of t per component and phase,
  wrapped in a positive part, with separate coefficient pairs before
  and after the retirement date (the family's ``t_retire``):

      v(t) = ((a1 + a2 t)^+, (a3 + a4 t)^+)    for t <  T_R,
      v(t) = ((a5 + a6 t)^+, (a7 + a8 t)^+)    for t >= T_R.

* ``mlp`` — a 1-10-2 feedforward network in t with ReLU or Snake
  activation and positive-part outputs, a single network over the
  whole horizon.  Parameters are laid out as [w1..w30, b1..b12]:
  hidden weights w1..w10 and biases b1..b10 form the hidden nodes
  H_i = f(w_i t + b_i); output weights w11..w20 with bias b11 produce
  v0 = (sum_i w_{10+i} H_i + b11)^+, and w21..w30 with b12 produce
  v_minus.  42 parameters total.

The Snake activation x + sin^2(a x)/a perturbs the identity by a
bounded periodic ripple, which suits drift adjustments that must track
an oscillating market coefficient.

Outputs are nonnegative by construction, so the optimizer searches the
flat parameters with no feasibility penalties.  A family's ``forward``
evaluates a (k, p) stack of parameter rows at a set of times in one
pass and returns, beside v0 and v_minus, the pullback that maps
sensitivities of a scalar to v0 and v_minus back onto each row's flat
parameters (the positive part passes the sensitivity only where its
argument is positive).  The pullback reuses the forward pass's hidden
layer, so a value-and-gradient evaluation runs it once; it carries the
adjoint of the node-0 read of the closed form's one table builder onto
the optimizer's parameters.  A policy's ``__call__`` is the one-row
case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Policy",
    "PolicyFamily",
    "TablePolicy",
    "snake",
    "evaluate",
    "init_params",
    "make_policy",
    "seeded_uniforms",
    "AFFINE_N_PARAMS",
    "MLP_N_PARAMS",
]

AFFINE_N_PARAMS = 8
MLP_N_PARAMS = 42
_N_PARAMS = {"affine": AFFINE_N_PARAMS, "mlp": MLP_N_PARAMS}
_HIDDEN = 10
_INIT_STD = 1e-2  # scale of the initial parameter draws
_INIT_TAG = 1  # purpose tag of the initialization draws in the seeded stream
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment, 2^64 over the golden ratio
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


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
class PolicyFamily:
    """A policy kind with its fixed settings: many parameter rows, one pass.

    ``t_retire`` is the affine kind's breakpoint; ``activation`` and
    ``snake_a`` are the network's, checked for every kind.
    ``policy(params)`` builds one member; ``forward`` evaluates a stack
    of them.
    """

    kind: str
    t_retire: float | None = None
    activation: str = "relu"
    snake_a: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in _N_PARAMS:
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        if self.kind == "affine" and self.t_retire is None:
            raise ValidationError("affine policy requires t_retire")
        if self.activation not in ("relu", "snake"):
            raise ValidationError("activation must be 'relu' or 'snake'")
        if self.activation == "snake" and self.snake_a <= 0:
            raise ValidationError("snake frequency must be positive")

    @property
    def n_params(self) -> int:
        return _N_PARAMS[self.kind]

    def policy(self, params) -> Policy:
        """The member with the flat parameter vector ``params``."""
        return Policy(self, tuple(float(p) for p in np.asarray(params, dtype=float)))

    def forward(self, params, t, horizon: float | None = None):
        """(v0, v_minus, pullback) of each row of ``params`` at the times t.

        ``params`` is (k, n_params); v0 and v_minus are (k, *t.shape).
        ``pullback(d_v0, d_vm)`` takes (k, t.size) sensitivities and
        returns the (k, n_params) gradients of
        Σ d_v0·v0(t) + d_vm·v_minus(t), row by row; for the affine kind
        t must be increasing, as the grid nodes are.  t is checked as
        by ``evaluate``.  Each row's numbers are bit-identical to those
        of the row evaluated alone.
        """
        t = _checked_times(t, horizon)
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != self.n_params:
            raise ValidationError(
                f"{self.kind} policy rows take {self.n_params} parameters, got {params.shape}"
            )
        flat = t.reshape(-1)
        if self.kind == "affine":
            v0, vm, pullback = _affine_forward(params, flat, self.t_retire)
        else:
            v0, vm, pullback = _mlp_forward(params, flat, self.activation, self.snake_a)
        shape = params.shape[:1] + t.shape
        return v0.reshape(shape), vm.reshape(shape), pullback


def _affine_forward(params, t, t_retire):
    """``PolicyFamily.forward`` of the affine kind at a 1-D array of times."""
    a = [params[:, i, None] for i in range(AFFINE_N_PARAMS)]
    working = t < t_retire
    z0 = np.where(working, a[0] + a[1] * t, a[4] + a[5] * t)
    zm = np.where(working, a[2] + a[3] * t, a[6] + a[7] * t)

    def pullback(d_v0, d_vm):
        # each phase sums a contiguous slice of every row, which keeps a
        # row's pairwise sum that of one policy (a boolean mask does not)
        j = int(np.count_nonzero(working))
        if not working[:j].all():
            raise ValidationError("the affine pullback needs increasing times")
        g0 = np.where(z0 > 0.0, d_v0, 0.0)
        gm = np.where(zm > 0.0, d_vm, 0.0)
        g0t, gmt = g0 * t, gm * t
        out = np.empty((len(params), AFFINE_N_PARAMS))
        for base, phase in ((0, slice(None, j)), (4, slice(j, None))):
            for col, terms in enumerate((g0, g0t, gm, gmt)):
                out[:, base + col] = terms[:, phase].sum(axis=-1)
        return out

    return np.maximum(z0, 0.0), np.maximum(zm, 0.0), pullback


def _mlp_forward(params, t, activation, snake_a):
    """``PolicyFamily.forward`` of the network kind at a 1-D array of times.

    Every product is a stacked matmul, (k, m, H) @ (k, H, 1) and its
    transposes, which reproduces the numbers of one row's 2-D products.
    """
    w_hidden = params[:, None, :_HIDDEN]
    w_out0 = params[:, _HIDDEN : 2 * _HIDDEN, None]
    w_out1 = params[:, 2 * _HIDDEN : 3 * _HIDDEN, None]
    b_hidden = params[:, None, 30:40]
    z = t[:, None] * w_hidden + b_hidden
    h = np.maximum(z, 0.0) if activation == "relu" else snake(z, snake_a)
    o0 = (h @ w_out0)[..., 0] + params[:, 40, None]
    o1 = (h @ w_out1)[..., 0] + params[:, 41, None]

    def pullback(d_v0, d_vm):
        """Backpropagation; ReLU passes where z > 0, Snake has slope 1 + sin(2 a z)."""
        g0 = np.where(o0 > 0.0, d_v0, 0.0)
        g1 = np.where(o1 > 0.0, d_vm, 0.0)
        dh = g0[..., None] * w_out0.transpose(0, 2, 1) + g1[..., None] * w_out1.transpose(0, 2, 1)
        if activation == "relu":
            dz = np.where(z > 0.0, dh, 0.0)
        else:
            dz = dh * (1.0 + np.sin(2.0 * snake_a * z))
        return np.concatenate(
            [
                (t @ dz),
                (g0[:, None, :] @ h)[:, 0],
                (g1[:, None, :] @ h)[:, 0],
                dz.sum(axis=1),
                g0.sum(axis=-1, keepdims=True),
                g1.sum(axis=-1, keepdims=True),
            ],
            axis=-1,
        )

    return np.maximum(o0, 0.0), np.maximum(o1, 0.0), pullback


@dataclass(frozen=True)
class Policy:
    """One member of a family: the family and its flat parameters."""

    family: PolicyFamily
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.params) != self.family.n_params:
            raise ValidationError(
                f"{self.family.kind} policy takes {self.family.n_params} parameters, "
                f"got {len(self.params)}"
            )

    def __call__(self, t):
        v0, vm, _ = self.family.forward(np.asarray(self.params)[None], t)
        return v0[0][()], vm[0][()]


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
        if not np.all(np.isfinite([self.times, self.v0_values, self.v_minus_values])):
            raise ValidationError("table policy entries must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("table policy times must be increasing")
        if min(self.v0_values) < 0 or min(self.v_minus_values) < 0:
            raise ValidationError("table policy values must be nonnegative")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        v0 = np.interp(t, self.times, self.v0_values)
        vm = np.interp(t, self.times, self.v_minus_values)
        return v0, vm


def _checked_times(t, horizon: float | None) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValidationError("policy evaluation requires t >= 0")
    if horizon is not None and np.any(t_arr > horizon):
        raise ValidationError(f"policy evaluation requires t <= {horizon}")
    return t_arr


def evaluate(policy, t, horizon: float | None = None):
    """Evaluate a policy at time(s) t, optionally checking t in [0, horizon]."""
    _checked_times(t, horizon)
    return policy(t)


def _mix(z: int) -> int:
    """splitmix64's output function: a bijection of 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def seeded_uniforms(key, count: int) -> list[float]:
    """``count`` doubles in (0, 1), a pure function of the integer tuple ``key``.

    A counter-based splitmix64 stream (Steele, Lea & Flood 2014): the
    key's words are folded into a 64-bit state, word by word, and output
    i mixes the state plus (i + 1) increments.  Each output keeps its top
    53 bits plus one half, over 2^53, so it is never 0.  Above 1/2 the
    half rounds to even, and the one word that would round to 1 gives
    the largest double below 1.  The first word of a key is a purpose
    tag, so no two uses share a stream.
    """
    state = 0
    for word in key:
        state = _mix((state + _GAMMA + operator.index(word)) & _MASK64)
    out = []
    for i in range(1, count + 1):
        top = _mix((state + i * _GAMMA) & _MASK64) >> 11
        out.append(min((top + 0.5) / 2.0**53, _BELOW_ONE))
    return out


def init_params(kind: str, key) -> np.ndarray:
    """Draw a flat initial parameter vector, a pure function of ``key``.

    ``key`` is an integer or a tuple of them (the optimizer's is (seed,
    start, retry)); the draws are ``seeded_uniforms`` under the
    initialization tag, mapped through the normal inverse CDF.
    Parameters are N(0, _INIT_STD): affine coefficients of that size
    make the initial v(t) over a multi-decade horizon comparable to the
    drift spreads being adjusted, and the same scale keeps the
    network's initial outputs small without flattening its gradients.
    ``statistics`` is imported here, so only a process that draws loads it.
    """
    from statistics import NormalDist

    if kind not in _N_PARAMS:
        raise ValidationError(f"unknown policy kind {kind!r}")
    key = (key,) if np.ndim(key) == 0 else tuple(key)
    n = _N_PARAMS[kind]
    inv_cdf = NormalDist(0.0, _INIT_STD).inv_cdf
    return np.fromiter(map(inv_cdf, seeded_uniforms((_INIT_TAG, *key), n)), float, n)


def make_policy(
    kind: str,
    params,
    *,
    t_retire: float | None = None,
    activation: str = PolicyFamily.activation,
    snake_a: float = PolicyFamily.snake_a,
) -> Policy:
    """Build a policy from a flat parameter vector.

    The affine kind needs the retirement breakpoint; the network kind
    needs the activation choice.  Lengths are checked (8 or 42).
    """
    family = PolicyFamily(kind, t_retire=t_retire, activation=activation, snake_a=snake_a)
    return family.policy(params)
