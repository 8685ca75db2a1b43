"""Property tests of periodic functions, run when hypothesis is installed."""

import math

import numpy as np
import pytest

import commbound as cb

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
coeff_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.builds(complex, finite, finite),
    min_size=1,
    max_size=7,
)


@given(coeff_dicts, st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_property_polynomial_evaluates_as_sum(coeffs, x):
    p = cb.from_coefficients(coeffs)
    want = sum(a * np.exp(1j * n * x) for n, a in coeffs.items())
    assert abs(p(x) - want) <= 1e-10 * (1.0 + abs(want))


@given(coeff_dicts)
@settings(max_examples=40, deadline=None)
def test_property_stored_coefficients_recovered(coeffs):
    p = cb.from_coefficients(coeffs)
    for n, a in coeffs.items():
        assert cb.fourier_coefficient(p, n) == complex(a)


@given(coeff_dicts)
@settings(max_examples=30, deadline=None)
def test_property_radius_covers_sampled_values(coeffs):
    # every value lies inside the reported enclosing disc
    p = cb.from_coefficients(coeffs)
    r = cb.chebyshev_radius(p, grid_size=2048)
    vals = p.sample(np.linspace(-math.pi, math.pi, 257))
    spread = np.max(np.abs(vals[:, None] - vals[None, :]))
    assert r >= spread / 2.0 - 1e-9
