"""Quasi-Monte-Carlo lower bound and dual-identity checks in one path pass.

The optimized drift adjustment induces a *feasible* candidate strategy:
apply the closed-form feedback controls (theta*, c*, M*) to the true
(constrained) wealth dynamics

    dW = {[r(t) + lam(t)] W + theta*(mu - r) - c* - lam M* + Y_t} dt
         + theta* sigma dZ,

with the liquidity rule at the zero-wealth boundary: consumption (and
with it the death benefit M* = c* g) is truncated at Y/(1 + lam g) so
the drift cannot push wealth negative.  Expected utility along these
paths,

    Jbar = E[ ∫_0^T e^{-Lam(s) - dt~ s} u(c*_s) ds
              + ∫_0^T lam(s) e^{-Lam(s) - dt~ s} u(M*_s) g(s)^gamma ds
              + e^{-Lam(T) - dt~ T} u(W_T) ],

is a genuine lower bound for the problem value (weak duality), so the
pair (Jbar, J~) certifies the duality gap.
``simulate_candidate_value(g, policy, config)`` estimates it for the
problem that ``g`` carries, the same handle the upper bound reads: its
curves are the quotients of the closed form's one table builder, whose
node-0 read is that upper bound, and the policy is evaluated once.

Paths are driven by scipy's unscrambled ``qmc.Sobol`` stream, one
point of dimension n_steps per path, mapped to normals by the inverse
CDF of ``statistics.NormalDist``, so no scipy module is imported;
``sobol_normals`` builds it in numpy one step at a time, so no
(n_steps, n_paths) array exists.  Wealth uses Euler-Maruyama steps
(the feedback drift precludes exact stepping); income uses exact
log-normal steps; utility integrals use the left-endpoint rule,
consistent with previsible controls.

Every node constant is formed once per run and read as a Python
float.  Since M* = c* g at every path, the liquidity floor included,
the two utility integrands fold into one power: u(c) weighted by
e^{-Lam - dt~ t} (1 + lam g) dt, with c^(1-gamma) formed as
exp((1-gamma) log c) for every gamma.  While income flows, the
controls are c* = F3~ (1/F2~) and theta* = F3~ a - Y b with node
coefficients a and b, and the Euler step is the one line
W [1 + (r + lam) dt] + theta* [(mu - r) dt + sigma dz] - c* [(1 + lam g) dt]
+ Y dt, each bracketed factor but dz a node constant.  From T_R on
there is no income and the rule is Merton's: for W >= 0 (the floor
keeps it so) theta* = W clip(a, 0, 1) and c* = W/F2~, so the same
step is one multiplication W (alpha + beta dz) with node constants
alpha = 1 + (r + lam) dt - (1 + lam g) dt/F2~ + clip(a, 0, 1)(mu - r) dt
and beta = clip(a, 0, 1) sigma.  A working step then costs 47
elementwise passes over its paths and a retired step 24, counting the
Sobol row and its gather as one pass each.  The pass sums W and c*
per step (retired, sum c* = (sum W)/F2~); the mean face value is g
times mean c* less mean W.

The same pass over the same normals checks the dual bookkeeping: the
static budget identity

    E[ ∫ pi_v e^{-Lam} (c* + lam M*) dt + pi_{v,T} e^{-Lam(T)} W*_T ]
        = W_0 + E[ ∫ pi_v e^{-Lam} Y dt ],

for the closed-form optimal streams c*_t proportional to
(e^{dt~ t} pi_t e^{Lam})^{-1/gamma}, and the martingale property of the
discounted optimal-wealth process

    H_t = beta_t e^{-Lam} W*_t + ∫_0^t beta e^{-Lam} (c* - Y + lam M*) ds,

checked under the physical measure through the density ksi_t.

The pass advances two generator streams in lockstep, as ``optimizer``
advances its starts: the dual stream (log ksi, the spend, financing
and income sums, the martingale increments and the terminal value) and
the candidate stream (W, its utility, the per-step sums of W and c*,
and the non-finite-wealth check).  At each node a block draws dz,
sends (dz, Y) to each stream and steps the income Y, which it drops
after T_R's closing half-cell; each stream reads only its own node
constants.  ``dual_checks(g, policy, config)`` runs no candidate
stream.

The calling process checks the grid, evaluates the policy once
(``precompute_aggregates``) and forms the node constants and the Sobol
stream.  The paths are independent, so it runs them as the two blocks
[0, n/2) and [n/2, n): the first in the caller, the second in a child
forked by ``lifedual.fork.in_two_processes``.  Each block writes its
per-path finals into its own columns of one shared buffer, so only the
second block's per-step sums cross its pipe.  Without ``os.fork`` both
blocks run in the caller; a forked and a serial run step the same two
blocks, so they agree bit for bit.  The CLI calls the pass from its
certificate worker, so its own process holds no path state.
"""

from __future__ import annotations

import importlib.util
import mmap
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    GFunction,
    _check_origin,
    feedback_coefficients,
    feedback_controls,
    precompute_aggregates,
)
from .errors import NumericalError, ValidationError
from .fork import in_two_processes

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "BudgetCheck",
    "NORMALS_NOTE",
    "check_path_grid",
    "sobol_normals",
    "simulate_candidate_value",
    "dual_checks",
]

_MAX_SOBOL_DIM = 21201  # dimensions in the Joe-Kuo direction-number file
_SOBOL_BITS = 30  # width of the direction integers, as in scipy's engine
_MAX_SOBOL_POINTS = 2**_SOBOL_BITS  # 30-bit Gray codes index this many points
_MAX_SOBOL_SKIP = 2**16  # a larger skip, not the paths, would size the level table
_UTILITY_FLOOR = 1e-300  # utility of a starved path is astronomically negative, not -inf
_SKIP_PIECE = 2**14  # bytes a skip inflates at once: a column tail is ~160 KB

# The largest |levels[k] - Phi^-1(k / 2^m)| over k = 1 .. 2^m - 1 against mpmath's
# erfinv at 40 digits: 1.35e-15 at m = 15 (k = 10), 2.63e-15 at m = 17 (k = 2).
_LEVEL_ERROR = 2.7e-15
# The stream of ``sobol_normals`` as report.txt states it.
NORMALS_NOTE = (
    "normals: unscrambled Sobol points (origin dropped, then sobol_skip "
    "points skipped) mapped through the inverse normal CDF "
    f"(statistics.NormalDist().inv_cdf; absolute error below {_LEVEL_ERROR:.1e}, "
    "measured on tables of 2^15 and 2^17 levels); the stream is fully "
    "determined by (n_paths, n_steps, sobol_skip)."
)


@dataclass(frozen=True)
class SimulationConfig:
    """Path-generation protocol.

    ``sobol_skip`` initial sequence points are discarded (the leading
    all-zeros point is always dropped on top of that).  The sequence is
    unscrambled, so the stream is fully determined by (n_paths, n_steps,
    sobol_skip).  A skip below 2^16 keeps the paths, not the skip,
    sizing the level table of ``sobol_normals``.
    """

    n_paths: int = 20000
    n_steps: int = 1000
    sobol_skip: int = 4000

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise ValidationError("need at least 2 paths")
        if not 1 <= self.n_steps <= _MAX_SOBOL_DIM:
            raise ValidationError(
                f"n_steps (the Sobol dimension) must lie in [1, {_MAX_SOBOL_DIM}]"
            )
        if not 0 <= self.sobol_skip < _MAX_SOBOL_SKIP:
            raise ValidationError(
                f"sim.sobol_skip = {self.sobol_skip} must lie in [0, {_MAX_SOBOL_SKIP})"
            )
        if 1 + self.sobol_skip + self.n_paths > _MAX_SOBOL_POINTS:
            raise ValidationError(
                f"1 + sobol_skip + n_paths must not exceed {_MAX_SOBOL_POINTS} Sobol points"
            )


def check_path_grid(scenario, n_steps: int) -> int:
    """The node of T_R on the path grid of ``n_steps`` steps over [0, T].

    Raises ``ValidationError`` naming ``sim.n_steps`` when T_R falls
    inside a step: a step across T_R would pay income past retirement.
    """
    k_retire = n_steps * scenario.T_R / scenario.T
    if abs(k_retire - round(k_retire)) > 1e-9 * n_steps:
        raise ValidationError(
            f"sim.n_steps = {n_steps} puts T_R = {scenario.T_R:g} inside a step; "
            "n_steps * T_R / T must be an integer"
        )
    return round(k_retire)


def _scipy_path(*parts: str) -> str:
    """The path of a file in the installed scipy package, found without importing it."""
    return os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], *parts)


def _column_heads(member, rows: int, cols: int) -> np.ndarray:
    """The first ``rows`` entries of the first ``cols`` columns of a ``.npy`` stream.

    The stored array is 1-D (one column) or 2-D in Fortran order, so
    each column is one contiguous run: its head is read and the rest
    skipped a piece at a time, holding no more than the result and one piece.
    """
    version = np.lib.format.read_magic(member)
    read_header = {
        (1, 0): np.lib.format.read_array_header_1_0,
        (2, 0): np.lib.format.read_array_header_2_0,
    }[version]
    shape, fortran_order, dtype = read_header(member)
    if len(shape) == 2 and not fortran_order:
        raise ValueError("expected a 1-D or Fortran-ordered array")
    cols = min(cols, shape[1] if len(shape) == 2 else 1)
    heads = np.empty((cols, rows), dtype)
    tail = (shape[0] - rows) * dtype.itemsize
    for j in range(cols):
        if j:  # skip the tail of the column before, one piece at a time
            for done in range(0, tail, _SKIP_PIECE):
                member.seek(min(_SKIP_PIECE, tail - done), os.SEEK_CUR)
        heads[j] = np.frombuffer(member.read(rows * dtype.itemsize), dtype)
    return heads.T


def _direction_file(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``poly[:dim]`` and ``vinit[:dim, :m]`` of scipy's direction-number file.

    Both are read from the ``.npz`` member streams, so the whole
    21201 x 18 ``vinit`` table is never held.
    """
    import zipfile

    with zipfile.ZipFile(_scipy_path("stats", "_sobol_direction_numbers.npz")) as npz:
        with npz.open("poly.npy") as member:
            poly = _column_heads(member, dim, 1)[:, 0]
        with npz.open("vinit.npy") as member:
            vinit = _column_heads(member, dim, m)
    return poly, vinit


def _direction_integers(dim: int, m: int) -> np.ndarray:
    """The first m of scipy's 30 Sobol direction integers, as (dim, m) int64.

    Row j holds the top m bits of V[j, b] for b < m, where V[j, b] is
    the 30-bit integer XORed into coordinate j when bit b of a point's
    Gray code is set; a point below 2^m reads no other column.  The
    primitive polynomials and initial numbers (Joe & Kuo 2008) come
    from the ``.npz`` file scipy ships, read without importing any scipy
    submodule; the recurrence is Bratley & Fox (1988), as in
    ``scipy.stats._sobol``.  The first dimension is the van der Corput
    sequence (all direction numbers 1).
    """
    poly, vinit = _direction_file(dim, m)
    deg = np.frexp(poly)[1] - 1  # degree of each primitive polynomial
    v = np.zeros((dim, m), dtype=np.int64)
    v[:, : vinit.shape[1]] = vinit
    v[0] = 1
    # v_b = v_{b-d} ^ XOR over k = 1..d of a_k (v_{b-k} << k), where a_k is
    # bit d - k of the polynomial, for the dimensions of degree d <= b;
    # column b is set before any later column reads it
    for b in range(1, m):
        rows = np.flatnonzero(deg[1:] <= b) + 1
        d, p = deg[rows], poly[rows]
        new = v[rows, b - d]
        for k in range(1, d.max(initial=0) + 1):
            tap = (k <= d) & ((p >> np.maximum(d - k, 0)) & 1 == 1)
            new ^= np.where(tap, v[rows, max(b - k, 0)] << k, 0)
        v[rows, b] = new
    return v << np.arange(m - 1, -1, -1)  # v_b < 2^(b+1)


def sobol_normals(
    config: SimulationConfig,
) -> tuple[np.ndarray, Callable[..., np.ndarray]]:
    """Standard-normal increments, one Sobol point per path, as (levels, row).

    The unscrambled Sobol points used are those with sequence index
    1 + sobol_skip .. sobol_skip + n_paths, all below 2^m with
    m = (sobol_skip + n_paths).bit_length(), so only the top m of the
    30 bits of each coordinate can be set and every coordinate is an
    integer multiple of 2^-m.  ``levels`` holds the inverse normal CDF
    (its error is in ``NORMALS_NOTE``) of the 2^m grid values k / 2^m,
    clipped to [1e-12, 1 - 1e-12]; since
    1 + sobol_skip + n_paths <= 2^30, it has at most
    2 (sobol_skip + n_paths) entries.  ``row(k)`` returns the int64 grid
    integers of coordinate k (time step k) for every path, so
    ``levels[row(k)]`` is step k's normal increment per path; it equals
    column k of scipy's ``qmc.Sobol(d=n_steps, scramble=False)`` points
    after ``fast_forward(1 + sobol_skip)``, times 2^m.  ``row(k, lo, hi)``
    returns the same integers for paths lo..hi-1 only, so a block of
    paths builds just its own part.

    Point i is the XOR of the direction integers selected by its Gray
    code i ^ (i >> 1) (Bratley & Fox 1988).  Split i = j 2^h + l with
    h = ceil(m/2): the high half of the Gray code is the Gray code of j,
    and the low half is that of l XOR (j & 1) 2^(h-1).  ``row(k)``
    therefore XOR-reduces coordinate k's direction integers into two
    small tables, one masked reduce each: A over the 2^h values of l
    (in that order) and B over the values of j that the paths reach,
    with the parity term folded into B.  Consecutive points then read
    ``(B[:, None] ^ A).ravel()``, sliced to the paths asked for, so no
    path gathers from a table.  Each call builds its row afresh, so a
    reader may ask for a row more than once and nothing of size
    n_steps x n_paths is held.  Deterministic given the config.
    ``statistics`` is imported here, so only a process that builds a
    stream loads it.
    """
    from statistics import NormalDist

    m = (config.sobol_skip + config.n_paths).bit_length()
    # Phi^-1(1 - k/2^m) = -Phi^-1(k/2^m) holds exactly in inv_cdf, as
    # 1 - k/2^m is exact, so half the table is computed and mirrored
    n, half = 2**m, 2 ** (m - 1)
    inv_cdf = NormalDist().inv_cdf
    levels = np.empty(n)
    levels[0] = inv_cdf(1e-12)
    levels[1:half] = np.fromiter(map(inv_cdf, (k / n for k in range(1, half))), float, half - 1)
    levels[half] = 0.0
    levels[half + 1 :] = -levels[half - 1 : 0 : -1]

    top = _direction_integers(config.n_steps, m)
    h = (m + 1) // 2  # m >= 2, since n_paths >= 2
    dirs = top[:, np.r_[:m, h - 1]]  # the parity of j selects direction h - 1
    first = 1 + config.sobol_skip  # sequence index of path 0
    j0 = first >> h
    # each table XOR-reduces mask & direction over the first axis, with
    # the mask -1 where a direction enters an entry and 0 where not
    low = np.arange(2**h)
    low_mask = -((low ^ (low >> 1)) >> np.arange(h)[:, None] & 1)
    high = np.arange(j0, ((first + config.n_paths - 1) >> h) + 1)
    high_mask = -(np.vstack([(high ^ (high >> 1)) >> np.arange(m - h)[:, None], high]) & 1)

    def row(k: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        hi = config.n_paths if hi is None else hi
        j_lo, j_hi = (first + lo) >> h, (first + hi - 1) >> h
        a = np.bitwise_xor.reduce(low_mask & dirs[k, :h, None], axis=0)
        b_mask = high_mask[:, j_lo - j0 : j_hi - j0 + 1]
        b = np.bitwise_xor.reduce(b_mask & dirs[k, h:, None], axis=0)
        skip = first + lo - (j_lo << h)
        return (b[:, None] ^ a).ravel()[skip : skip + hi - lo]

    return levels, row


@dataclass(frozen=True)
class BudgetCheck:
    """Static budget identity: lhs should equal rhs within QMC noise."""

    lhs: float
    rhs: float
    z_score: float
    std_error: float


@dataclass(frozen=True)
class SimulationResult:
    """Candidate value estimate with trajectory summaries and dual checks.

    ``times`` holds the n_steps+1 nodes of the path grid; wealth means
    align with it, while the control summaries (face value,
    consumption) are recorded at the n_steps left endpoints.
    ``budget`` and ``martingale_z`` are the static-budget and
    kernel-martingale checks on the same paths.
    """

    value: float
    std_error: float
    times: np.ndarray
    mean_wealth: np.ndarray
    mean_face_value: np.ndarray
    mean_consumption: np.ndarray
    budget: BudgetCheck
    martingale_z: list[tuple[float, float]]


def _mean_se(x):
    """Path mean and its sample standard error."""
    return x.mean(), x.std(ddof=1) / np.sqrt(len(x))


# rows of the per-path finals: the candidate's utility, the budget sums,
# then one martingale increment per checkpoint
_UTIL, _SPEND, _TERMINAL, _INCOME, _INCREMENTS = range(5)


def _checkpoints(n_steps: int) -> dict[int, int]:
    """Martingale checkpoints: step of each quarter horizon -> its finals row."""
    steps = sorted({max(j * n_steps // 4, 1) for j in range(1, 5)})
    return {k: _INCREMENTS + j for j, k in enumerate(steps)}


def _node_floats(*curves):
    """(k, each curve's value at node k) for each node k, as Python floats.

    A memoryview yields floats, not numpy scalars, and holds no float
    object between reads.
    """
    return enumerate(zip(*map(memoryview, curves)))


def _dual_summary(
    finals: np.ndarray, t_nodes: np.ndarray, w0: float
) -> tuple[BudgetCheck, list[tuple[float, float]]]:
    """The budget check and martingale z-scores from a pass's per-path finals.

    Overflow in the dual streams is left to show as a non-finite z-score.
    """
    spend, terminal, income = finals[_SPEND:_INCREMENTS]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, budget_se = _mean_se(spend + terminal - income)
        budget = BudgetCheck(
            lhs=float((spend + terminal).mean()),
            rhs=float(w0 + income.mean()),
            z_score=float((mean - w0) / budget_se),
            std_error=float(budget_se),
        )
        martingale_z = []
        for k, j in _checkpoints(len(t_nodes) - 1).items():
            mean, inc_se = _mean_se(finals[j])
            martingale_z.append((float(t_nodes[k]), float(mean / inc_se)))
    return budget, martingale_z


def _path_pass(g: GFunction, policy, config: SimulationConfig, candidate: bool):
    """Step every path on the nodes of ``g``'s grid; return its summaries.

    Returns (value, se, means, budget, martingale_z): the path mean of
    the utility and its standard error, the per-step path means of W
    and c (2 x (n_steps + 1)) and ``_dual_summary``'s two checks.  The
    candidate stream runs only when ``candidate`` is true; otherwise
    the utility row and ``means`` stay zero.
    """
    scenario, gam = g.scenario, g.scenario.gamma
    n_paths, n_steps = config.n_paths, config.n_steps
    _check_origin(g)
    if g.grid.n_intervals != n_steps:
        raise ValidationError(f"sim.n_steps = {n_steps}, but g has {g.grid.n_intervals} steps")
    k_retire = check_path_grid(scenario, n_steps)
    agg = precompute_aggregates(g, policy)
    curves = g.values, agg.tilde_f2, agg.income_annuity, agg.kappa_v
    if not all(np.all(np.isfinite(a)) for a in curves):
        raise NumericalError("aggregate curves are not finite; adjustment too extreme")
    f2_n, ann_n, kv_n, v0_n = agg.tilde_f2, agg.income_annuity, agg.kappa_v, agg.v0
    t_nodes, dt = g.grid.nodes, g.grid.step

    r_n, sig_n, surv_n, cap_fac = g.r, g.sigma, g.survival, g.bequest_factor
    lam_n = np.asarray(scenario.mortality.hazard(t_nodes))
    disc_n = surv_n * np.exp(-scenario.delta_tilde * t_nodes)
    # node coefficients of the candidate step, with M = c g: the feedback
    # rule's, the Euler step's, and the weight of c^(1-gamma) for
    # consumption plus bequest, w u(c) + lam w g^gamma u(c g) = w (1 + lam g) u(c)
    # with w = disc dt
    _, inv_f2, a_n, b_n = feedback_coefficients(scenario, ann_n, f2_n, kv_n, sig_n)
    grow_n = 1.0 + (r_n + lam_n) * dt
    excess_n = (g.mu - r_n) * dt
    rho_n = cap_fac * dt
    # retired, the rule is Merton's: theta* = W clip(a, 0, 1) for W >= 0 and
    # c* = W / F2~, so the Euler step is W (alpha + beta dz)
    a_bar = np.clip(a_n, 0.0, 1.0)
    alpha_n = grow_n - rho_n * inv_f2 + a_bar * excess_n
    y_drift = (scenario.mu_Y - 0.5 * scenario.sigma_Y**2) * dt  # exact log-normal income step

    # deterministic part of the kernel: log beta by the left rule,
    # matching the frozen-coefficient ksi increments below
    log_beta = np.concatenate([[0.0], -np.cumsum((r_n[:-1] + v0_n[:-1]) * dt)])
    c0 = (scenario.W0 + scenario.Y0 * ann_n[0]) / f2_n[0]
    # node factors of the dual integrands at log ksi = 0: beta e^{-Lam},
    # c*, and beta e^{-Lam} c* (1 + lam g), the spend and financing rate
    half = 0.5 * dt
    bs_n = np.exp(log_beta) * surv_n
    c_star0 = c0 * np.exp(-(scenario.delta_tilde * t_nodes + log_beta) / gam)
    rate_n = bs_n * c_star0 * cap_fac
    # trapezoid weights, the half-cells closing and opening at a node
    node = np.arange(n_steps + 1)
    spend_n = (half * (node > 0) + half * (node < n_steps)) * rate_n
    income_n = (half * ((node > 0) & (node <= k_retire)) + half * (node < k_retire)) * bs_n
    checks = _checkpoints(n_steps)

    def power(x):
        """x^(1-gamma) of the floored x, one formula for every gamma."""
        return np.exp((1.0 - gam) * np.log(np.maximum(x, _UTILITY_FLOOR)))

    levels, row = sobol_normals(config)
    levels *= np.sqrt(dt)
    # every path's finals, zero-filled in an anonymous mapping a forked block shares
    finals = np.frombuffer(mmap.mmap(-1, (_INCREMENTS + len(checks)) * n_paths * 8))
    finals = finals.reshape(-1, n_paths)

    def dual_stream(lo: int, hi: int):
        """The dual stream of paths [lo, hi), sent (dz, Y) at each node."""
        # spend = int pi e^{-Lam}(c* + lam M*) dt, income = int pi e^{-Lam} Y dt
        spend, terminal, income = finals[_SPEND:_INCREMENTS, lo:hi]
        finance = np.zeros(hi - lo)  # int beta e^{-Lam}(c* - Y + lam M*) dt
        log_xi = np.zeros(hi - lo)
        h_prev = float(scenario.W0)
        for k, (spend_w, income_w, rate, bs, c_star, f2, ann, kv) in _node_floats(
            spend_n, income_n, rate_n, bs_n, c_star0, f2_n, ann_n, kv_n
        ):
            dz, Y = yield
            xi = np.exp(log_xi)
            e = np.exp(log_xi * (-1.0 / gam))
            e_w = spend_w * e
            finance += e_w
            spend += xi * e_w
            if income_w:  # zero after T_R
                y_w = income_w * Y
                finance -= y_w
                income += xi * y_w
                del y_w
            if k in checks:
                y_k = Y if k < k_retire else 0.0
                # before the last node the running sum holds node k's opening half-cell
                fin = finance - half * (rate * e - bs * y_k) if k < n_steps else finance
                # H = ksi (beta e^{-Lam} W* + fin); W* = c* F2~ - Y ann is kept as no row
                h = xi * (bs * (c_star * e * f2 - y_k * ann) + fin)
                del fin, y_k
                finals[checks[k], lo:hi] = h - h_prev
                h_prev = h
            if k == n_steps:
                break
            log_xi += kv * dz
            log_xi -= 0.5 * kv * kv * dt
        terminal[:] = bs * c_star * f2 * (xi * e)  # pi e^{-Lam} W*_T
        yield  # the horizon's send returns here

    def candidate_stream(lo: int, hi: int, sums: np.ndarray):
        """The candidate stream of paths [lo, hi), sent (dz, Y) at each node."""
        W = np.full(hi - lo, scenario.W0)
        util = finals[_UTIL, lo:hi]
        for k, (ann, inv_f, a, b, cap, u, grow, excess, sig, rho, alpha, beta) in _node_floats(
            ann_n, inv_f2, a_n, b_n, cap_fac, disc_n * rho_n / (1.0 - gam), grow_n, excess_n,
            sig_n, rho_n, alpha_n, a_bar * sig_n
        ):
            dz, Y = yield
            # after the floor every W is >= 0 or not finite, so the
            # sum is finite exactly when every path's wealth is
            w_sum = sums[0, k] = np.add.reduce(W)
            if not np.isfinite(w_sum):
                raise NumericalError(
                    f"non-finite wealth at step {k - 1} (t={t_nodes[k - 1]:.4f})" if k
                    else "non-finite initial wealth (t=0.0000)"
                )
            if k == n_steps:
                break
            if k < k_retire:
                theta, c = feedback_controls(W, Y, ann, inv_f, a, b)
                # the liquidity rule caps c (and M = c g) at the floor
                if np.minimum.reduce(W) <= 1e-12:
                    c = np.where(W <= 1e-12, np.minimum(c, Y / cap), c)
                sums[1, k] = np.add.reduce(c)
                util += u * power(c)
                W = W * grow + theta * (excess + sig * dz) - c * rho
                W += Y * dt
                del theta, c  # no control row outlives its step
            else:  # retired: c* = W / F2~
                sums[1, k] = w_sum * inv_f
                util += u * power(W * inv_f)
                W *= alpha + beta * dz
            np.maximum(W, 0.0, out=W)
        util += disc_n[-1] * power(W) / (1.0 - gam)
        yield

    def block(lo: int, hi: int) -> np.ndarray:
        """Step paths [lo, hi) into columns [lo, hi) of ``finals``; return per-step sums."""
        sums = np.zeros((2, n_steps + 1))
        streams = [dual_stream(lo, hi)] + ([candidate_stream(lo, hi, sums)] if candidate else [])
        for stream in streams:
            next(stream)  # to its first receive
        Y = np.full(hi - lo, scenario.Y0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(n_steps + 1):
                dz = levels[row(k, lo, hi)] if k < n_steps else None
                for stream in streams:
                    stream.send((dz, Y))
                # no node after T_R's closing half-cell reads Y
                Y = Y * np.exp(y_drift + scenario.sigma_Y * dz) if k < k_retire else None
        return sums

    cut = n_paths // 2
    s0, s1 = in_two_processes(lambda: block(0, cut), lambda: block(cut, n_paths))
    return (*_mean_se(finals[_UTIL]), (s0 + s1) / n_paths,
            *_dual_summary(finals, t_nodes, scenario.W0))


def simulate_candidate_value(
    g: GFunction,
    policy,
    config: SimulationConfig,
) -> SimulationResult:
    """Estimate Jbar for the candidate strategy induced by ``policy``.

    ``g`` carries the scenario and the path grid, on whose nodes every
    curve is read: it starts at 0, has ``config.n_steps`` intervals and
    puts T_R on a node (a step across T_R would pay income past
    retirement), or a ``ValidationError`` names ``sim.n_steps``.  Before
    T_R, the controls are ``closed_form.feedback_controls`` of the
    current state; from T_R on, the Merton step of the module docstring.

    The dual stream simulates log ksi_v (left-endpoint Euler increments)
    and evaluates the closed-form optimal streams
    c*_t = c0 (pi_t e^{delta t})^{-1/gamma}, M*_t = g(t) c*_t and
    W*_t = c*_t F2~(t) - Y_t ann(t) at every step boundary.  With
    pi_t = beta_t ksi_t, every pricing integrand is a node scalar times
    ksi, e = ksi^{-1/gamma}, ksi e or Y, so the trapezoid sums
    accumulate those with node weights built once (the income flow
    stops at retirement: the right limit at T_R still pays, the cell
    opening at T_R does not).  The budget check standardizes
    spend + terminal - income against W0; the martingale check
    standardizes the increments of H_t between quarter-horizon
    checkpoints (the first against the exact H_0 = W0).  Overflow in
    these dual streams is left to show as a non-finite z-score.

    Returns the path mean, its sample standard error (the iid formula,
    not a valid error for a low-discrepancy stream; ROADMAP item 3),
    mean trajectories of wealth, face value M* - W, and consumption,
    and the two dual checks.
    """
    value, se, means, budget, martingale_z = _path_pass(g, policy, config, True)
    return SimulationResult(
        value=float(value),
        std_error=float(se),
        times=g.grid.nodes,
        mean_wealth=means[0],
        mean_face_value=g.values[:-1] * means[1, :-1] - means[0, :-1],
        mean_consumption=means[1, :-1],
        budget=budget,
        martingale_z=martingale_z,
    )


def dual_checks(
    g: GFunction, policy, config: SimulationConfig
) -> tuple[BudgetCheck, list[tuple[float, float]]]:
    """The budget check and martingale z-scores, without the candidate.

    Runs only the dual stream of ``simulate_candidate_value``'s pass
    over the same paths and blocks, so the result equals that pass's
    ``budget`` and ``martingale_z`` bit for bit, non-finite z-scores
    included.  No control, wealth or utility is formed, so no
    non-finite wealth can stop it.
    """
    return _path_pass(g, policy, config, False)[3:]
