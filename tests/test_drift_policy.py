"""Policy families: snake activation, parameter handling, nonnegativity, seeded draws."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifedual.drift_policy import (
    AFFINE_N_PARAMS,
    MLP_N_PARAMS,
    PolicyFamily,
    TablePolicy,
    evaluate,
    init_params,
    make_policy,
    seeded_uniforms,
    snake,
)
from lifedual import drift_policy
from lifedual.errors import ValidationError


def test_snake_values():
    assert snake(0.0, 10.0) == 0.0
    # a*x = pi -> sin^2 term vanishes, identity recovered
    assert snake(np.pi / 10.0, 10.0) == pytest.approx(np.pi / 10.0, abs=1e-15)
    x = 0.37
    assert snake(x, 5.0) == pytest.approx(x + np.sin(5 * x) ** 2 / 5.0)


@given(
    x=st.floats(min_value=-50, max_value=50),
    a=st.floats(min_value=0.1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_snake_deviates_from_identity_by_at_most_one_over_a(x, a):
    d = snake(x, a) - x
    assert 0.0 <= d <= 1.0 / a + 1e-12


def test_snake_rejects_nonpositive_frequency():
    with pytest.raises(ValidationError):
        snake(1.0, 0.0)
    with pytest.raises(ValidationError):
        snake(1.0, -2.0)


def test_affine_policy_breakpoint_and_positive_part():
    pol = make_policy("affine", (0.1, -0.02, -1.0, 0.01, 0.3, 0.0, 0.0, 0.005), t_retire=20.0)
    v0, vm = pol(np.array([0.0, 10.0, 20.0, 40.0]))
    assert v0 == pytest.approx([0.1, 0.0, 0.3, 0.3])  # (0.1 - 0.02t)^+ then 0.3
    assert vm == pytest.approx([0.0, 0.0, 0.1, 0.2])  # (-1 + 0.01t)^+ then 0.005t
    s0, sm = pol(5.0)
    assert s0 == pytest.approx(0.1 - 0.02 * 5)
    assert sm == 0.0


def test_affine_vjp_needs_increasing_times():
    family = PolicyFamily("affine", t_retire=20.0)
    params = np.array([[0.1, 0.0, 0.1, 0.0, 0.1, 0.0, 0.1, 0.0]])
    ones = np.ones((1, 2))
    _, _, pullback = family.forward(params, np.array([10.0, 30.0]))
    assert pullback(ones, ones)[0, [0, 4]] == pytest.approx([1.0, 1.0])
    _, _, pullback = family.forward(params, np.array([30.0, 10.0]))
    with pytest.raises(ValidationError, match="increasing"):
        pullback(ones, ones)


def test_param_length_validation():
    with pytest.raises(ValidationError):
        make_policy("affine", (1.0,) * 7, t_retire=20.0)
    with pytest.raises(ValidationError):
        make_policy("mlp", (0.0,) * 41)
    with pytest.raises(ValidationError):
        make_policy("mlp", (0.0,) * 42, activation="tanh")
    with pytest.raises(ValidationError):
        make_policy("mlp", (0.0,) * 42, activation="snake", snake_a=0.0)


def test_mlp_layout_manual_forward_pass():
    rng = np.random.default_rng(7)
    p = rng.normal(0.0, 0.5, MLP_N_PARAMS)
    pol = make_policy("mlp", p, activation="relu")
    t = 3.25
    h = np.maximum(p[:10] * t + p[30:40], 0.0)
    v0_ref = max(h @ p[10:20] + p[40], 0.0)
    vm_ref = max(h @ p[20:30] + p[41], 0.0)
    v0, vm = pol(t)
    assert v0 == pytest.approx(v0_ref, rel=1e-14)
    assert vm == pytest.approx(vm_ref, rel=1e-14)


def test_mlp_snake_dispatch_differs_from_relu():
    # positive hidden weights and output bias keep both outputs off the
    # clipping boundary so the activations are actually compared
    p = tuple(np.r_[np.full(10, 0.1), np.ones(20), np.zeros(10), 5.0, 5.0])
    relu = make_policy("mlp", p, activation="relu")
    snk = make_policy("mlp", p, activation="snake", snake_a=10.0)
    t = np.linspace(0.3, 50.0, 11)
    assert not np.allclose(relu(t)[0], snk(t)[0])
    # with zero hidden weights and biases both activations see h = f(0)
    zero = tuple(np.r_[np.zeros(10), np.ones(20), np.zeros(12)])
    assert make_policy("mlp", zero, activation="relu")(t)[0] == pytest.approx(
        make_policy("mlp", zero, activation="snake")(t)[0]
    )


@given(seed=st.integers(min_value=0, max_value=2**31), t=st.floats(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_policy_outputs_nonnegative(seed, t):
    rng = np.random.default_rng(seed)
    aff = make_policy("affine", rng.normal(0, 1, 8), t_retire=20.0)
    mlp = make_policy("mlp", rng.normal(0, 1, 42), activation="snake")
    for pol in (aff, mlp):
        v0, vm = pol(t)
        assert v0 >= 0.0 and vm >= 0.0


def test_init_params_deterministic_and_scaled():
    a = init_params("affine", 11)
    b = init_params("affine", 11)
    c = init_params("affine", 12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (AFFINE_N_PARAMS,)
    m = init_params("mlp", 11)
    assert m.shape == (MLP_N_PARAMS,)
    with pytest.raises(ValidationError):
        init_params("table", 0)


def test_mix_is_splitmix64():
    # the first outputs of Vigna's splitmix64.c seeded with 0: output k
    # mixes k increments of the golden-ratio constant
    gamma = 0x9E3779B97F4A7C15
    assert [drift_policy._mix(k * gamma % 2**64) for k in (1, 2, 3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_seeded_uniforms_follow_the_uniform_and_normal_laws():
    from scipy import stats

    n = 10**5
    u = seeded_uniforms((drift_policy._INIT_TAG, 0), n)
    assert len(u) == n and 0.0 < min(u) and max(u) < 1.0
    assert stats.kstest(u, "uniform").pvalue > 0.01  # 0.066 for this key
    inv_cdf = NormalDist(0.0, drift_policy._INIT_STD).inv_cdf
    normals = [inv_cdf(x) for x in u]
    assert stats.kstest(normals, "norm", args=(0.0, drift_policy._INIT_STD)).pvalue > 0.01
    # init_params is the head of that stream for the key 0
    assert init_params("mlp", 0).tolist() == normals[:MLP_N_PARAMS]


def test_seeded_uniforms_are_keyed():
    assert seeded_uniforms((1, 2, 3), 5) == seeded_uniforms((1, 2, 3), 5)
    assert seeded_uniforms((1, 2, 3), 3) == seeded_uniforms((1, 2, 3), 5)[:3]
    streams = [seeded_uniforms(key, 5) for key in ((1, 0), (2, 0), (0, 1), (1, 0, 0), (1,))]
    assert len({tuple(stream) for stream in streams}) == len(streams)
    # an int key is the one-word tuple
    assert np.array_equal(init_params("affine", 11), init_params("affine", (11,)))
    assert np.array_equal(init_params("affine", np.int64(11)), init_params("affine", (11,)))


@pytest.mark.parametrize("word", [0, 2**64 - 1])
def test_seeded_uniforms_stay_inside_the_unit_interval(monkeypatch, word):
    # the extreme 64-bit outputs map to 2^-54 and 1 - 2^-53, never 0 or 1
    # (the top one plus one half would round to 1), so the normal inverse
    # CDF is finite at every draw
    monkeypatch.setattr(drift_policy, "_mix", lambda z: word)
    [u] = seeded_uniforms((0,), 1)
    assert u == (2.0**-54 if word == 0 else 1.0 - 2.0**-53)
    assert np.isfinite(init_params("affine", 0)).all()


def test_params_make_policy_round_trip():
    p = init_params("mlp", 5)
    pol = make_policy("mlp", p, activation="snake", snake_a=7.0)
    assert np.array_equal(pol.params, p)
    assert pol.family.snake_a == 7.0
    q = init_params("affine", 5)
    aff = make_policy("affine", q, t_retire=20.0)
    assert np.array_equal(aff.params, q)
    with pytest.raises(ValidationError):
        make_policy("affine", q)  # breakpoint required
    with pytest.raises(ValidationError):
        make_policy("spline", q, t_retire=20.0)


def test_evaluate_domain_checks():
    pol = make_policy("affine", (0.1, 0, 0.1, 0, 0.1, 0, 0.1, 0), t_retire=20.0)
    v0, _ = evaluate(pol, 10.0, horizon=50.0)
    assert v0 == pytest.approx(0.1)
    with pytest.raises(ValidationError):
        evaluate(pol, -1.0)
    with pytest.raises(ValidationError):
        pol(-1.0)
    with pytest.raises(ValidationError):
        evaluate(pol, 51.0, horizon=50.0)


def test_table_policy_interpolation_and_validation():
    tab = TablePolicy(times=(0.0, 10.0, 50.0), v0_values=(0.0, 1.0, 1.0), v_minus_values=(2.0, 0.0, 4.0))
    v0, vm = tab(np.array([0.0, 5.0, 10.0, 30.0]))
    assert v0 == pytest.approx([0.0, 0.5, 1.0, 1.0])
    assert vm == pytest.approx([2.0, 1.0, 0.0, 2.0])
    with pytest.raises(ValidationError):
        TablePolicy(times=(0.0,), v0_values=(0.0,), v_minus_values=(0.0,))
    with pytest.raises(ValidationError):
        TablePolicy(times=(0.0, 0.0), v0_values=(0.0, 0.0), v_minus_values=(0.0, 0.0))
    with pytest.raises(ValidationError):
        TablePolicy(times=(0.0, 1.0), v0_values=(0.0, -0.1), v_minus_values=(0.0, 0.0))
    with pytest.raises(ValidationError):
        TablePolicy(times=(0.0, 1.0), v0_values=(0.0,), v_minus_values=(0.0, 0.0))


@pytest.mark.parametrize(
    "times, v0, vm",
    [
        ((0.0, float("nan"), 2.0), (0.0, float("nan"), 1.0), (0.0, 0.0, float("inf"))),
        ((0.0, float("nan"), 2.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 1.0, 2.0), (0.0, float("nan"), 1.0), (0.0, 0.0, 0.0)),
        ((0.0, 1.0, 2.0), (0.0, 0.0, 0.0), (0.0, 0.0, float("inf"))),
        ((0.0, 1.0, float("inf")), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ],
    ids=["all", "nan-time", "nan-v0", "inf-v-minus", "inf-time"],
)
def test_table_policy_rejects_non_finite_entries(times, v0, vm):
    with pytest.raises(ValidationError, match="finite"):
        TablePolicy(times=times, v0_values=v0, v_minus_values=vm)
