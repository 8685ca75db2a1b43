"""Property tests of bound curves, run when hypothesis is installed."""

import pytest

import commbound as cb

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

line_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)


@given(line_lists, st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_property_curve_is_minimum_of_lines(pairs, delta):
    lines = [cb.BoundLine(m, b, 2.0, "l%d" % i) for i, (m, b) in enumerate(pairs)]
    curve = cb.BoundCurve(lines=lines)
    want = min(m * delta + b for m, b in pairs)
    assert curve.evaluate(delta) == want
