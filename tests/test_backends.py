"""The package runs on numpy alone: a fresh interpreter never loads numba
or scipy and computes the same curves as this process.  Its public surface
is the union of its layer modules' __all__ lists, and each command loads
only the layer modules it runs."""

import os
import subprocess
import sys

import pytest

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
            "commbound.__all__\n"
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


class TestNumpyRandomUnloaded:
    """The complex disk draws no shuffle, so complex circle runs never
    import numpy.random (about 5 MB of peak RSS); validate and probe draw
    from Philox and still do."""

    def test_complex_chebyshev_radius(self):
        out = run_snippet(
            "import sys, commbound as cb\n"
            "f = cb.from_coefficients({1: 0.5, -2: 0.25j, 3: 0.125})\n"
            "assert cb.chebyshev_radius(f) > 0.0\n"
            "print('numpy.random' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_complex_curve_circle(self, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text('{"1": 0.5, "-2": [0, 0.25], "3": 0.125}')
        out = run_snippet(
            "import sys\n"
            "from commbound.experiments_cli import main\n"
            "assert main(['curve', 'circle', '--steps', '50', '--function', "
            "%r, '--out', %r]) == 0\n"
            "print('numpy.random' in sys.modules)"
            % (str(path), str(tmp_path / "curve.csv")))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


SQRT = ["commbound.bound_curve", "commbound.positive_bounds"]
CIRCLE = ["commbound.bound_curve", "commbound.circle_bounds",
          "commbound.periodic_fn"]
LAB = ["commbound.matrix_lab"]


class TestLayersLoaded:
    """Importing the package or the CLI loads no layer module, and each
    command of the benchmark's workloads, at its defaults, loads exactly
    the layers it runs; so does a refused sqrt command, although main
    reports a circle layer's QuadratureError too."""

    LOADED = ("sorted(m for m in sys.modules if m.startswith('commbound.')"
              " and m != 'commbound.experiments_cli')")

    @pytest.mark.parametrize("module", ["commbound", "commbound.experiments_cli"])
    def test_import_loads_no_layer(self, module):
        out = run_snippet("import sys, %s\nprint(%s)" % (module, self.LOADED))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, code, layers", [
        ("curve sqrt --steps 1", 2, SQRT),
        ("curve sqrt", 0, SQRT),
        ("curve sqrt --format json", 0, SQRT),
        ("validate sqrt", 0, SQRT + LAB),
        ("probe", 0, SQRT + LAB),
        ("curve circle", 0, CIRCLE),
        ("lower circle --function triangle", 0, CIRCLE),
        ("validate circle", 0, CIRCLE + LAB),
        ("curve circle --function bump", 0, CIRCLE),
        ("lower circle", 0, CIRCLE),
    ])
    def test_command_loads_its_layers(self, argv, code, layers, tmp_path):
        out = run_snippet(
            "import sys\n"
            "from commbound.experiments_cli import main\n"
            "assert main(%r) == %d\n"
            "print(%s)" % (argv.split() + ["--out", str(tmp_path / "out")],
                           code, self.LOADED))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == str(sorted(layers))

    def test_star_import_binds_the_surface(self):
        out = run_snippet("from commbound import *\n"
                          "print(sorted(n for n in dir() if n[0] != '_'))")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str([n for n in PUBLIC if n[0] != "_"])


LAYERS = (cb.periodic_fn, cb.bound_curve, cb.circle_bounds, cb.positive_bounds,
          cb.matrix_lab)

PUBLIC = """
    BoundCurve BoundLine DecompositionError InstancePair PeriodicFunction
    PowerSeries ProbeResult QuadratureError SampleRecord SqrtEnvelope
    TangentParam TrigPolynomial ViolationError __version__ block_offdiag
    block_pair builtin_bump builtin_triangle chebyshev_radius
    coefficient_l1 commutator continuity_bound derivative_fourier_norm
    eta_lower folk_line fourier_coefficient fourier_coefficient_estimate
    from_coefficients gamma0 haar_unitary hermitian_calculus instance_pair
    lower_bound_instance op_norm pedersen_envelope pedersen_line
    power_series_line probe_max_commutator random_contraction
    random_positive_contraction range_extent reflect_function
    reflect_instance sample_sweep split_line sqrt_series stream
    tangent_line truncate truncation_envelope unitary_calculus
""".split()


class TestPublicSurface:
    def test_package_names(self):
        assert len(PUBLIC) == 51
        assert sorted(cb.__all__) == PUBLIC

    @pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
    def test_each_listed_name_is_defined_in_its_module(self, module):
        assert module.__all__
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name

    def test_no_name_in_two_modules(self):
        names = [n for m in LAYERS for n in m.__all__]
        assert len(names) == len(set(names))
        assert sorted(names + ["__version__"]) == PUBLIC

    def test_package_names_are_the_modules_objects(self):
        for module in LAYERS:
            for name in module.__all__:
                assert getattr(cb, name) is getattr(module, name), name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from commbound import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(cb.__all__)
        for name, value in namespace.items():
            assert value is getattr(cb, name)
