"""Property tests of the square-root envelopes, run when hypothesis is installed."""

import math

import numpy as np
import pytest

import commbound as cb
from test_positive_bounds import SIZES, envelopes

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@given(st.integers(min_value=1, max_value=400), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_property_pedersen_line_dominates_sqrt(N, delta):
    line = cb.pedersen_line(N)
    assert line.value(delta) >= math.sqrt(delta) - 1e-12


@given(st.floats(min_value=0.25, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_property_tangent_line_dominates_sqrt(a, delta):
    line = cb.tangent_line(a)
    assert line.value(delta) >= math.sqrt(delta) - 1e-12


@given(st.integers(min_value=1, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_property_tail_decreases(N):
    s = cb.sqrt_series(N + 1)
    assert 1.0 - s.partial(N + 1) <= 1.0 - s.partial(N) + 1e-16


@given(st.sampled_from(SIZES), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_property_closed_form_against_brute_force(size, delta):
    for env, ref in envelopes(*size):
        want, prov = ref(delta)
        val, got = env.evaluate_with_provenance(delta)
        if delta < 0.25 or not ref.sqrt:
            assert (val, got) == (want, prov)
        else:
            assert want <= val <= np.nextafter(want, 2.0)
