"""Gompertz mortality: closed forms against an independent quadrature oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lifedual.errors import ValidationError
from lifedual.mortality import MortalityModel

BASE = MortalityModel(x=45.0, m=86.3, b=9.5)


def test_hazard_at_zero_matches_direct_formula():
    # (1/9.5) * exp((45 - 86.3)/9.5), evaluated independently
    expected = np.exp((45.0 - 86.3) / 9.5) / 9.5
    assert BASE.hazard(0.0) == pytest.approx(expected, rel=1e-15)
    assert BASE.hazard(0.0) == pytest.approx(0.0013621918533844402, rel=1e-12)


def test_hazard_is_increasing_and_vectorized():
    t = np.linspace(0.0, 50.0, 201)
    lam = BASE.hazard(t)
    assert lam.shape == t.shape
    assert np.all(np.diff(lam) > 0)
    assert isinstance(BASE.hazard(1.0), float)


def test_survival_against_adaptive_quadrature():
    # acceptance-grade oracle: integrate the hazard numerically and
    # compare with the closed-form survival at the horizon
    integral, err = integrate.quad(BASE.hazard, 0.0, 50.0, epsabs=1e-13, limit=200)
    assert err < 1e-12
    assert BASE.survival(50.0) == pytest.approx(np.exp(-integral), abs=1e-10)
    assert BASE.survival(50.0) == pytest.approx(0.08325839237108343, rel=1e-12)


def test_survival_at_zero_is_one():
    assert BASE.survival(0.0) == 1.0


@given(
    t1=st.floats(min_value=0.0, max_value=40.0),
    dt1=st.floats(min_value=0.0, max_value=20.0),
    dt2=st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_cumulative_hazard_additivity(t1, dt1, dt2):
    t2, t3 = t1 + dt1, t1 + dt1 + dt2
    whole = BASE.cumulative_hazard(t1, t3)
    split = BASE.cumulative_hazard(t1, t2) + BASE.cumulative_hazard(t2, t3)
    assert whole == pytest.approx(split, abs=1e-14)


def test_cumulative_hazard_example_value():
    # e^{(45+50-86.3)/9.5} - e^{(45-86.3)/9.5}
    assert BASE.cumulative_hazard(0.0, 50.0) == pytest.approx(
        2.4858063459402326, rel=1e-12
    )


def test_density_integrates_to_death_probability():
    # ∫_0^T survival·hazard = 1 - survival(T)
    integral, _ = integrate.quad(
        lambda t: BASE.survival(t) * BASE.hazard(t), 0.0, 50.0, epsabs=1e-12, limit=200
    )
    assert integral == pytest.approx(1.0 - BASE.survival(50.0), abs=1e-10)


def test_parameter_and_argument_validation():
    with pytest.raises(ValidationError):
        MortalityModel(x=45.0, m=86.3, b=0.0)
    with pytest.raises(ValidationError):
        MortalityModel(x=-1.0)
    with pytest.raises(ValidationError):
        BASE.hazard(-0.5)
    with pytest.raises(ValidationError):
        BASE.cumulative_hazard(2.0, 1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["x", "m", "b"])
def test_non_finite_parameter_is_rejected(name, value):
    with pytest.raises(ValidationError, match="finite"):
        MortalityModel(**{name: value})
