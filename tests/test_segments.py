"""BoundCurve.segments against the frozen stack sweep, bit for bit: the
rows (start, end, slope, intercept, provenance) with the floats as hex."""

import functools

import numpy as np
import pytest

import commbound as cb
from frozen_segments import segments as frozen_segments


def segment_bits(rows):
    assert all(tuple(map(type, row)) == (float,) * 4 + (str,) for row in rows)
    return [(a.hex(), e.hex(), m.hex(), b.hex(), p) for a, e, m, b, p in rows]


def assert_frozen(curve, lo=0.0, hi=None):
    """segments(lo, hi) equals the frozen sweep's (start, end, BoundLine)
    triples, converted into rows."""
    got = curve.segments(lo, hi)
    assert segment_bits(got) == segment_bits(
        [(a, e, l.slope, l.intercept, l.provenance)
         for a, e, l in frozen_segments(curve, lo, hi)])
    return got


@functools.lru_cache(maxsize=None)
def curve_of(name, *args):
    """A read-only curve, built once: gamma0 or pedersen_envelope with
    args, or the truncation envelope of a builtin or of complex_poly at
    N_max args[0]."""
    if name in ("gamma0", "pedersen_envelope"):
        return getattr(cb, name)(*args)
    f = (cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125})
         if name == "complex" else getattr(cb, "builtin_" + name)())
    return cb.truncation_envelope(f, *args)


def lines_curve(*lines, delta_max=1.0):
    """A curve of (slope, intercept) lines, named by their index."""
    return cb.BoundCurve([cb.BoundLine(m, b, delta_max, "line %d" % i)
                          for i, (m, b) in enumerate(lines)])


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1e-300, 1.0), (1e-5, 1.0),
                                    (1e-3, 1.0), (0.2, 0.3), (0.3, 0.9),
                                    (1e-5, 0.5)])
def test_default_gamma0(lo, hi):
    assert_frozen(curve_of("gamma0"), lo, hi)


def test_pedersen_envelope():
    assert_frozen(curve_of("pedersen_envelope", 1000), 1e-6, 1.0)


def test_gamma0_small_grid():
    segs = assert_frozen(curve_of("gamma0", 64, 3))
    assert segs[-2][4] == "tangent a=0.625"


@pytest.mark.parametrize("N_max, a_grid", [(1, 2), (2, 2), (3, 5), (64, 16),
                                           (2000, 256)])
@pytest.mark.parametrize("name", ["gamma0", "pedersen_envelope"])
def test_small_envelopes(name, N_max, a_grid):
    # windows whose lo lies below, near and above 1/N_max
    curve = curve_of(name, *((N_max, a_grid) if name == "gamma0" else (N_max,)))
    for lo, hi in [(1e-3, 1.0), (0.3, 0.9), (1e-5, 0.5), (0.0, 1.0),
                   (0.5 / N_max, 1.0), (0.9 / N_max, 1.0), (2.0 / N_max, 1.0),
                   (5e-324, 1.0), (-0.0, 1.0)]:
        if lo < hi:
            assert_frozen(curve, lo, hi)


@pytest.mark.parametrize("N_max", [16, 128])
@pytest.mark.parametrize("name", ["triangle", "bump", "complex"])
def test_truncation_envelopes(name, N_max):
    curve = curve_of(name, N_max)
    for lo, hi in [(0.0, None), (0.5, 1.5), (1.9, None)]:
        assert_frozen(curve, lo, hi)


def test_equal_slopes_keep_the_least_intercept():
    curve = lines_curve((1.0, 0.5), (1.0, 0.25), (0.0, 0.75), (1.0, 0.25),
                        (2.0, 0.0), (0.0, 0.75))
    segs = assert_frozen(curve)
    assert [row[4] for row in segs] == ["line 4", "line 1", "line 2"]
    assert_frozen(curve, -0.0)


def test_line_overtaken_exactly_at_its_start():
    # line 1 takes over from line 0 at 0.5, where line 2 takes over from it
    segs = assert_frozen(lines_curve((2.0, 0.0), (1.0, 0.5), (0.0, 1.0)))
    assert [(a, e, p) for a, e, _, _, p in segs] == [
        (0.0, 0.5, "line 0"), (0.5, 1.0, "line 2")]


def test_every_line_but_the_last_active_only_left_of_lo():
    curve = lines_curve((3.0, 0.0), (2.0, 0.1), (1.0, 0.3), (0.0, 0.6))
    assert [(a, e, p) for a, e, _, _, p in assert_frozen(curve, 0.5)] \
        == [(0.5, 1.0, "line 3")]
    assert len(assert_frozen(curve)) == 4


def test_single_line():
    assert assert_frozen(lines_curve((0.5, 0.25)), 0.125, 0.75) == [
        (0.125, 0.75, 0.5, 0.25, "line 0")]


def test_rows_build_no_bound_line(monkeypatch):
    curve = curve_of("gamma0", 64, 3)

    def refuse(self):
        raise AssertionError("segments() built a BoundLine")

    monkeypatch.setattr(cb.BoundLine, "__post_init__", refuse)
    assert len(curve.segments(1e-3, 1.0)) == 58


def test_family_that_drops_one_line_per_pass():
    # tangents to sqrt, each active on its own piece, then a flat line
    # below all of them on [0, 1]: each pass drops only the last tangent,
    # so the 300 lines take 300 passes
    a = np.linspace(0.25, 1.0, 299)
    curve = cb.BoundCurve(arrays=(np.r_[0.5 / np.sqrt(a), 0.0],
                                  np.r_[0.5 * np.sqrt(a), 0.1], 1.0,
                                  "line {}".format))
    assert segment_bits(assert_frozen(curve)) == [
        ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0",
         (0.1).hex(), "line 299")]
    segs = assert_frozen(cb.BoundCurve(arrays=(0.5 / np.sqrt(a),
                                               0.5 * np.sqrt(a), 1.0,
                                               "line {}".format)))
    assert len(segs) == 299
