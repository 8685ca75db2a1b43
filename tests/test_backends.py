"""The package runs on numpy alone: a fresh interpreter never loads numba
or scipy and computes the same curves as this process."""

import os
import subprocess
import sys

import commbound as cb


def run_snippet(code, **env_overrides):
    env = dict(os.environ)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )


class TestSelection:
    def test_forced_numpy_backend(self):
        out = run_snippet(
            "import sys, commbound\n"
            "print(sorted(m for m in ('numba', 'scipy') if m in sys.modules))"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_thread_pin_accepted(self):
        out = run_snippet(
            "import commbound as cb; print(cb.gamma0(50, 32).evaluate(0.25))",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0.5"


class TestNumpyBackendEndToEnd:
    def test_curves_match_default_backend(self):
        code = (
            "import commbound as cb\n"
            "g = cb.gamma0(500, 128)\n"
            "print(repr(g.evaluate(0.1)), repr(g.evaluate(0.7)))\n"
        )
        out = run_snippet(code)
        assert out.returncode == 0, out.stderr
        g = cb.gamma0(500, 128)
        want = "%r %r" % (g.evaluate(0.1), g.evaluate(0.7))
        assert out.stdout.strip() == want
