"""Replay the mutation checks: every mutant in MUTANTS must fail its tests.

    python tools/mutants.py [NAME ...]

A mutant is one exact text replacement in one file of src/commbound, and
the tests that must catch it.  For each mutant (all of them, or those
named), src/ and tests/ are copied into a temporary directory, the old
text, which must occur exactly once in its file, is replaced by the new
text, and pytest runs only the mutant's tests there, in a fresh
interpreter.  The mutant is killed when pytest reports a failed test (exit
code 1) and survives when every test passes; any other pytest exit, such as
a collection error or a test id that names nothing, is an error.  Before
the mutants, the same tests run once on an unmutated copy and must pass.

Prints one line per mutant and exits 1 if a mutant survives, errs or has
lost its old text, else 0.  Mutants whose code a change rewrites must be
restated in the table with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file old new tests")

CB = "tests/test_circle_bounds.py::"
PB = "tests/test_positive_bounds.py::"
PF = "tests/test_periodic_fn.py::"
CLI = "tests/test_experiments_cli.py::"
ML = "tests/test_matrix_lab.py::"
BK = "tests/test_backends.py::"

MUTANTS = [
    # bound lines and curves (bound_curve.py)
    Mutant("check-line-slope-strict", "bound_curve.py",
           "if not slope >= 0.0:", "if not slope > 0.0:",
           [CB + "TestBoundLine::test_zero_and_negative_zero_accepted",
            CB + "TestBoundCurve::test_valid_arrays_accepted"]),
    Mutant("check-line-intercept-strict", "bound_curve.py",
           "if not intercept >= 0.0:", "if not intercept > 0.0:",
           [CB + "TestBoundLine::test_zero_and_negative_zero_accepted",
            CB + "TestBoundCurve::test_valid_arrays_accepted"]),
    Mutant("curve-arrays-sign-check-dropped", "bound_curve.py",
           "_check_line(self._m.min(initial=np.inf), "
           "self._b.min(initial=np.inf),",
           "_check_line(0.0, 0.0,",
           [CB + "TestBoundCurve"]),
    Mutant("curve-arrays-shape-check-dropped", "bound_curve.py",
           "if self._m.ndim != 1 or self._m.shape != self._b.shape:",
           "if False:",
           [CB + "TestBoundCurve"]),
    Mutant("segment-rows-swap-slope-and-intercept", "bound_curve.py",
           "slopes[k].tolist(), intercepts[k].tolist(),",
           "intercepts[k].tolist(), slopes[k].tolist(),",
           ["tests/test_segments.py"]),
    # the circle envelope (circle_bounds.py)
    Mutant("line-0-intercept-raised-1e-9", "circle_bounds.py",
           "lines.append(BoundLine(m, b, 2.0, prov))",
           "lines.append(BoundLine(m, b * (1.0 + 1e-9) if N == 0 else b, "
           "2.0, prov))",
           [CB + "TestLineZeroIsTheCap"]),
    Mutant("rows-by-head-symmetry", "circle_bounds.py",
           "    real = f.real_valued\n",
           "    real = f.real_valued and bool(np.all(c[::-1] == np.conj(c)))\n",
           [CB + "TestTruncationEnvelope::"
            "test_real_f_with_asymmetric_head_takes_no_disk"]),
    # lazy layer imports (__init__.py, experiments_cli.py)
    Mutant("package-star-imports-a-layer", "__init__.py",
           '__version__ = "0.1.0"\n',
           'from .circle_bounds import *\n\n__version__ = "0.1.0"\n',
           [BK + "TestLayersLoaded::test_import_loads_no_layer"]),
    Mutant("submodule-lookup-loads-every-layer", "__init__.py",
           "    if name in _SUBMODULES:\n",
           "    if name in _SUBMODULES:\n        _surface()\n",
           [BK + "TestLayersLoaded::test_command_loads_its_layers"]),
    Mutant("cli-imports-the-layers-eagerly", "experiments_cli.py",
           "import numpy as np\n",
           "import numpy as np\n\n"
           "from . import circle_bounds, matrix_lab, positive_bounds\n",
           [BK + "TestLayersLoaded"]),
    Mutant("quadrature-error-looked-up-eagerly", "experiments_cli.py",
           "    except (ValueError, OSError) as err:\n",
           "    except (ValueError, OSError, _quadrature_error()) as err:\n",
           [BK + "TestLayersLoaded::test_command_loads_its_layers"]),
    # the command line (experiments_cli.py)
    Mutant("json-segments-swap-m-and-b", "experiments_cli.py",
           '"delta_end", "m", "b",', '"delta_end", "b", "m",',
           [CLI + "TestCurveSqrt::test_json_format_lists_segments"]),
    Mutant("violation-line-unsuppressed", "experiments_cli.py",
           "with contextlib.suppress(OSError, ValueError):\n"
           '            print("validate',
           'if True:\n            print("validate',
           [CLI + "TestMainReturns::"
            "test_violation_on_a_closed_stderr_exits_one"]),
    # validation sweeps and the probe (matrix_lab.py)
    Mutant("violation-at-the-largest-index", "matrix_lab.py",
           "i = int(bad[0])", "i = int(bad[-1])",
           ["tests/test_spectral.py::TestSweepReplay::"
            "test_violation_raises_at_smallest_index"]),
    Mutant("probe-start-swaps-h-and-a", "matrix_lab.py",
           "hraw = g[:, 0] * _SQRT2\n    araw = g[:, 1] / math.sqrt(dim)",
           "hraw = g[:, 1] * _SQRT2\n    araw = g[:, 0] / math.sqrt(dim)",
           [ML + "TestProbeAgainstFrozenCopy"]),
    # the public surface (matrix_lab.py)
    Mutant("stream-left-out-of-all", "matrix_lab.py",
           '    "stream",\n', "",
           ["tests/test_backends.py::TestPublicSurface"]),
    # the sqrt envelope (positive_bounds.py)
    Mutant("exact-minimizer-wins-ties", "positive_bounds.py",
           "(exact < vals)", "(exact <= vals)",
           [PB + "TestOnePath::test_ties_go_to_the_stored_line"]),
    Mutant("pedersen-line-rounds-to-nearest", "positive_bounds.py",
           "    b = _step_up(b, _SERIES_ULPS)\n    m = n * b\n"
           "    m = _step_up(m, _excess(n, b, m) > 0.0)\n",
           "    m = n * b\n",
           [PB + "TestExactLines::test_pedersen_lines_round_up"]),
    Mutant("tangent-rounds-to-nearest", "positive_bounds.py",
           "    e = _excess(r, r, a)\n    b = 0.5 * _step_up(r, e < 0.0)\n"
           "    r = np.where(e > 0.0, np.nextafter(r, 0.0), r)\n"
           "    m = 0.5 / r\n"
           "    return _step_up(m, _excess(m, r, 0.5) < 0.0), b\n",
           "    return 0.5 / r, 0.5 * r\n",
           [PB + "TestExactLines::test_tangents_round_up"]),
    Mutant("no-fourth-candidate", "positive_bounds.py",
           "return np.clip(n + [-2, -1, 0, self._n_max], 0, hi)",
           "return np.clip(n + [-2, -1, 0], 0, hi[:3])",
           [PB + "TestClosedForm", PB + "TestOnePath"]),
    # the sampling contract (periodic_fn.py)
    Mutant("sample-without-the-cast", "periodic_fn.py",
           "            v = v.real\n"
           "        return v.astype(np.complex128 if np.iscomplexobj(v) "
           "else float,\n"
           "                        copy=False)",
           "            v = v.real\n        return v",
           [PF + "TestSampleDtype::test_narrow_rule_error_covers_true_error"]),
    Mutant("sample-keeps-complex-for-real-f", "periodic_fn.py",
           "        if self.real_valued:\n            v = v.real\n", "",
           [CB + "TestEtaLower::test_real_samples_equal_complex_samples"]),
    # the pair term (periodic_fn.py): the real part, all that real series
    # and the bump take, and a complex series' imaginary part
    Mutant("real-term-drops-a-neg", "periodic_fn.py",
           "t *= c.real", "t *= a_pos.real",
           [PF + "TestRealPairTerm"]),
    Mutant("real-term-zeroes-negative-pairs", "periodic_fn.py",
           "t *= c.real", "t *= max(c.real, 0.0)",
           [PF + "TestRealSumsAgainstFrozenCopy"]),
    Mutant("real-term-drops-sine", "periodic_fn.py",
           "        t -= sine\n", "        pass\n",
           [CB + "TestSweepAgainstFrozenCopy::"
            "test_lines_equal_frozen_copy[bump-16]",
            PF + "TestRealSumsAgainstFrozenCopy::"
            "test_running_sums[conjugate]"]),
    Mutant("real-term-sine-sign-flipped", "periodic_fn.py",
           "        t -= sine\n", "        t += sine\n",
           [CB + "TestSweepAgainstFrozenCopy::"
            "test_lines_equal_frozen_copy[bump-16]",
            PF + "TestRealSumsAgainstFrozenCopy::"
            "test_running_sums[conjugate]"]),
    Mutant("imaginary-sine-sign-flipped", "periodic_fn.py",
           "c.imag * t + s.real * sine", "c.imag * t - s.real * sine",
           [PF + "TestRealPairTerm::"
            "test_complex_pairs_within_4_ulps_of_the_complex_term",
            PF + "TestRealSumsAgainstFrozenCopy::test_rule[complex]"]),
    Mutant("imaginary-sine-dropped", "periodic_fn.py",
           "c.imag * t + s.real * sine", "c.imag * t",
           [PF + "TestFromCoefficients::"
            "test_complex_series_samples_in_a_few_grid_arrays",
            CB + "TestSweepAgainstFrozenCopy::"
            "test_lines_equal_frozen_copy[complex-4]"]),
    # the running sums (periodic_fn.py), which the rule, the sweep and the
    # refinement share
    Mutant("sums-skip-small-pairs", "periodic_fn.py",
           "if a != 0.0 or b != 0.0 or not finite:",
           "if abs(a) > 1e-2 or abs(b) > 1e-2 or not finite:",
           [CB + "TestRealSweepAgainstFrozenCopy"]),
    Mutant("zero-pair-test-reads-a-only", "periodic_fn.py",
           "if a != 0.0 or b != 0.0 or not finite:",
           "if a != 0.0 or not finite:",
           [CB + "TestSweepAgainstFrozenCopy::"
            "test_lines_equal_frozen_copy[complex-4]",
            PF + "TestRealSumsAgainstFrozenCopy::test_rule[complex]"]),
    Mutant("zero-pairs-skipped-at-any-angle", "periodic_fn.py",
           "if a != 0.0 or b != 0.0 or not finite:",
           "if a != 0.0 or b != 0.0:",
           [PF + "TestRealSumsAgainstFrozenCopy::"
            "test_rule[negzero-all-zero]"]),
    Mutant("finite-check-ignores-the-order", "periodic_fn.py",
           "np.isfinite(d * x)", "np.isfinite(x)",
           [PF + "TestRealSumsAgainstFrozenCopy::test_rule[zero-pairs]"]),
    Mutant("no-real-series-check", "periodic_fn.py",
           "real = bool(np.all(coeffs[::-1] == np.conj(coeffs)))",
           "real = True",
           [PF + "TestRealSumsAgainstFrozenCopy"]),
    Mutant("maximum-for-fmax-in-the-bump", "periodic_fn.py",
           "np.fmax(v, 0.0, out=v)", "np.maximum(v, 0.0, out=v)",
           [PF + "TestMaskFreeBump"]),
    # the complex disk (periodic_fn.py)
    Mutant("disk-returns-the-support-reach", "periodic_fn.py",
           "best = center, float(d[k])", "best = center, r",
           [PF + "TestSmallestDisk"]),
    Mutant("disk-keeps-the-last-center", "periodic_fn.py",
           "if d[k] < best[1]:", "if True:",
           [PF + "TestSmallestDisk::test_polygon_radius_is_the_circle_radius"]),
    Mutant("disk-without-the-power-of-two-scaling", "periodic_fn.py",
           "e = int(np.frexp(top)[1])", "e = 0",
           [PF + "TestSmallestDisk::test_huge_clouds_scale_without_overflow",
            CB + "TestScaleByPowersOfTwo"]),
    # the trapezoid ladder (periodic_fn.py)
    Mutant("aitken-single-difference", "periodic_fn.py",
           "spread = np.maximum(np.max(np.abs(np.diff(X, axis=0)), axis=0), "
           "floor)",
           "spread = np.maximum(np.abs(X[-1] - X[-2]), floor)",
           [PF + "TestErrorEstimatesCoverTrueErrors"]),
    Mutant("ladder-keeps-finer-memo", "periodic_fn.py",
           "        return value, error, Ks\n",
           "        memo = self.__dict__.setdefault('memo', {})\n"
           "        for r, m in enumerate(ns.tolist()):\n"
           "            if m in memo and memo[m][1] <= error[r]:\n"
           "                value[r], error[r], Ks[r] = memo[m]\n"
           "            memo[m] = value[r], error[r], Ks[r]\n"
           "        return value, error, Ks\n",
           [CB + "TestTruncationEnvelope::"
            "test_lines_do_not_depend_on_earlier_requests"]),
    Mutant("tail-block-drops-its-first-order", "periodic_fn.py",
           "i = slice(max(2 * a - 1, 0), 2 * b + 1)",
           "i = slice(2 * a, 2 * b + 1)",
           [CB + "TestTruncationEnvelope::test_tails_equal_one_fetch_per_block",
            PF + "TestDyadicTail::test_coefficient_l1_equals_the_old_code"]),
    Mutant("tail-fetch-one-order-short", "circle_bounds.py",
           "_signed_orders(0, 4 * cut[-1])", "_signed_orders(0, 4 * cut[-1])[:-1]",
           [CB + "TestTruncationEnvelope::test_tails_equal_one_fetch_per_block"]),
    Mutant("no-rounding-floor", "periodic_fn.py",
           "floor = np.log2(K) * np.finfo(float).eps * self.peak[level]",
           "floor = 0.0",
           [PF + "TestFourierCoefficient::test_unreachable_target_raises"]),
]


def copy_tree(dest):
    for part in ("src", "tests"):
        shutil.copytree(HERE / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))


def pytest(root, tests):
    """pytest's exit code on the test ids, run in root, and the last lines
    of its output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    return done.returncode, "\n".join(done.stdout.splitlines()[-5:])


def run_mutant(m):
    """(outcome, seconds, pytest's last lines) of one mutant in a fresh
    copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        path = root / "src" / "commbound" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return "old text found %d times" % text.count(m.old), 0.0, ""
        path.write_text(text.replace(m.old, m.new))
        code, tail = pytest(root, m.tests)
    outcome = {0: "SURVIVED", 1: "killed"}.get(code, "pytest error %d" % code)
    return outcome, time.perf_counter() - start, tail


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)))
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        copy_tree(Path(tmp))
        code, tail = pytest(Path(tmp), tests)
    if code != 0:
        print("the unmutated tests fail (pytest exit %d):\n%s" % (code, tail))
        return 1
    print("the unmutated tests pass (%d test ids)" % len(tests))
    bad = 0
    for m in mutants:
        outcome, seconds, tail = run_mutant(m)
        bad += outcome != "killed"
        print("%-8s %5.1f s  %s (%s)" % (outcome, seconds, m.name, m.file))
        if outcome.startswith("pytest error"):
            print(tail)
    print("%d of %d mutants killed" % (len(mutants) - bad, len(mutants)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
