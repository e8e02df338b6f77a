"""Trapezoid tables: exactness, additivity, convergence order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from lifedual.errors import ValidationError
from lifedual.quadrature import (
    UniformGrid,
    prefix_trapezoid,
    prefix_trapezoid_adjoint,
    prefix_value_at,
    prefix_value_weights,
)


def test_grid_nodes_and_step():
    grid = UniformGrid(0.0, 50.0, 100)
    assert grid.step == 0.5
    nodes = grid.nodes
    assert nodes.shape == (101,)
    assert nodes[0] == 0.0 and nodes[-1] == 50.0
    assert np.allclose(np.diff(nodes), 0.5)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        UniformGrid(0.0, 1.0, 0)
    with pytest.raises(ValidationError):
        UniformGrid(2.0, 1.0, 10)


def test_trapezoid_exact_for_affine_integrands():
    # the rule integrates a + b*t exactly regardless of resolution
    grid = UniformGrid(1.0, 4.0, 3)
    vals = 2.0 + 0.5 * grid.nodes
    exact = 2.0 * 3.0 + 0.25 * (16.0 - 1.0)
    assert prefix_trapezoid(vals, grid)[-1] == pytest.approx(exact, abs=1e-14)


def test_trapezoid_shape_mismatch():
    grid = UniformGrid(0.0, 1.0, 4)
    with pytest.raises(ValidationError):
        prefix_trapezoid(np.ones(4), grid)


def test_trapezoid_second_order_convergence():
    # halving the step shrinks the error by ~4 for a smooth integrand
    exact = 1.0 - np.cos(2.0)
    errors = []
    for n in (40, 80, 160):
        grid = UniformGrid(0.0, 2.0, n)
        errors.append(abs(prefix_trapezoid(np.sin(grid.nodes), grid)[-1] - exact))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)


def test_prefix_matches_full_rule_and_starts_at_zero():
    grid = UniformGrid(0.0, 5.0, 17)
    vals = np.exp(-0.3 * grid.nodes)
    prefix = prefix_trapezoid(vals, grid)
    assert prefix[0] == 0.0
    assert prefix[-1] == pytest.approx(trapezoid(vals, dx=grid.step), abs=1e-14)


@given(
    n=st.integers(min_value=1, max_value=60),
    i=st.integers(min_value=0, max_value=60),
    j=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_prefix_differences_are_interval_integrals(n, i, j, seed):
    i, j = sorted((i % (n + 1), j % (n + 1)))
    grid = UniformGrid(0.0, 3.0, n)
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, n + 1)
    prefix = prefix_trapezoid(vals, grid)
    if i == j:
        assert prefix[j] - prefix[i] == 0.0
        return
    assert prefix[j] - prefix[i] == pytest.approx(
        trapezoid(vals[i : j + 1], dx=grid.step), abs=1e-12
    )


def test_prefix_value_at_nodes_and_interior():
    grid = UniformGrid(0.0, 2.0, 8)
    vals = grid.nodes**2
    prefix = prefix_trapezoid(vals, grid)
    # node queries reproduce the table entries exactly
    for k in (0, 3, 8):
        assert prefix_value_at(prefix, vals, grid, grid.nodes[k]) == prefix[k]
    # interior query: trapezoid of the linearly interpolated integrand
    t = 0.6  # inside cell [0.5, 0.75]
    v_t = vals[2] + ((t - 0.5) / 0.25) * (vals[3] - vals[2])
    expected = prefix[2] + 0.5 * (vals[2] + v_t) * (t - 0.5)
    assert prefix_value_at(prefix, vals, grid, t) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValidationError):
        prefix_value_at(prefix, vals, grid, 2.5)


@pytest.mark.parametrize("n, t", [(7, 0.0), (7, 1.3), (7, 20.0 / 7.0), (10, 5.0), (10, 10.0)])
def test_adjoints_are_transposes_of_the_prefix_maps(n, t):
    grid = UniformGrid(0.0, 10.0, n)
    rng = np.random.default_rng(n)
    v, a = rng.normal(size=n + 1), rng.normal(size=n + 1)
    assert a @ prefix_trapezoid(v, grid) == pytest.approx(
        prefix_trapezoid_adjoint(a, grid) @ v, rel=1e-13
    )
    w = prefix_value_weights(grid, t)
    assert w @ v == pytest.approx(
        prefix_value_at(prefix_trapezoid(v, grid), v, grid, t), rel=1e-13, abs=1e-15
    )
