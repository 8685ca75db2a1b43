"""Traced replay of one commbound CLI command, in a fresh interpreter.

    python3 perfbench/trace_cmd.py SPANS_PATH CLI_ARG...

The command runs in-process through `experiments_cli.main`, with a span
around every call it makes into a layer's public functions (the curve
builders, curve evaluation, eta_lower, the sweep, the probe).  A layer call
made inside another layer span is not recorded on its own, so each span is
a call made by the CLI or by this file.  Commands on the sqrt side first
compute the series cold, so its cost is measured apart from the gamma0
table it feeds.  After the command, in spans grouped under "extra":

- `validate` is replayed per (seed, index) through instance_pair,
  commutator/op_norm, the spectral calculus and curve.evaluate, and every
  replayed record must equal the reported one bit for bit;
- `curve circle` computes the coefficients |n| <= 16, coefficient_l1 and
  chebyshev_radius on a fresh function object, the work a cold envelope
  starts with.

Spans stay in memory and are written as JSON to SPANS_PATH at the end.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import commbound
from commbound import circle_bounds, experiments_cli, matrix_lab, positive_bounds
from commbound import periodic_fn

# documented defaults of the CLI, used by the parts replayed outside it
SQRT_N_MAX = 100000
CIRCLE_N_MAX = 16
FUNCTIONS = {"triangle": commbound.builtin_triangle,
             "bump": commbound.builtin_bump}


class Tracer:
    """Spans (name, parent, start, end) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = []  # (span index, is layer span)

    def _begin(self, name, layer):
        parent = self._open[-1][0] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append((len(self.spans) - 1, layer))

    def _end(self):
        idx, _ = self._open.pop()
        self.spans[idx][3] = time.perf_counter()

    def group(self, name, fn, *args):
        self._begin(name, False)
        try:
            return fn(*args)
        finally:
            self._end()

    def call(self, name, fn, *args, **kwargs):
        if self._open and self._open[-1][1]:
            return fn(*args, **kwargs)
        self._begin(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + int(value)


def _traced_curve(tracer, module, curve):
    """Route the curve interface the CLI uses through spans."""
    for method in ("evaluate", "evaluate_with_provenance", "segments"):
        name = "evaluate" if method.startswith("evaluate") else method
        setattr(curve, method,
                tracer.wrap("%s.%s" % (module, name), getattr(curve, method)))
    return curve


class CommandHooks:
    """Spans around the layer calls `experiments_cli` makes, installed on
    the module attributes it looks up, for the duration of one command."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.curve = None
        self._saved = []

    def _builder(self, module, name, fn):
        def build(*args, **kwargs):
            curve = self.tracer.call("%s.%s" % (module, name), fn, *args, **kwargs)
            self.curve = _traced_curve(self.tracer, module, curve)
            if name == "gamma0":
                self.tracer.counters["positive_bounds.gamma0.lines"] = curve.size
            return curve
        return build

    def _probe(self, fn):
        def probe(*args, **kwargs):
            res = self.tracer.call("matrix_lab.probe_max_commutator", fn,
                                   *args, **kwargs)
            self.tracer.count("matrix_lab.probe_max_commutator.iterations",
                              res.iterations)
            return res
        return probe

    def __enter__(self):
        t = self.tracer
        hooks = [
            (positive_bounds, "gamma0",
             self._builder("positive_bounds", "gamma0", positive_bounds.gamma0)),
            (circle_bounds, "truncation_envelope",
             self._builder("circle_bounds", "truncation_envelope",
                           circle_bounds.truncation_envelope)),
            (circle_bounds, "eta_lower",
             t.wrap("circle_bounds.eta_lower", circle_bounds.eta_lower)),
            (matrix_lab, "sample_sweep",
             t.wrap("matrix_lab.sample_sweep", matrix_lab.sample_sweep)),
            (matrix_lab, "probe_max_commutator",
             self._probe(matrix_lab.probe_max_commutator)),
        ]
        for module, attr, hook in hooks:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, hook)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        return False


def replay_sweep(tracer, report, curve):
    """Recompute every validate record from its (seed, index); returns the
    number of records that differ from the report in delta, measured or
    bound.  `curve` is the traced curve the command built."""
    positive = report["target"] == "sqrt"
    role = "positive" if positive else "unitary"
    mode = report["spectrum_mode"]
    dims = report["dims"]
    seed = report["seed"]
    f = np.sqrt if positive else FUNCTIONS[report["function"]]()
    calculus = matrix_lab.hermitian_calculus if positive else matrix_lab.unitary_calculus
    calc_name = "matrix_lab.%s" % calculus.__name__
    instance = tracer.wrap("matrix_lab.instance_pair", matrix_lab.instance_pair)
    calc = tracer.wrap(calc_name, calculus)

    def norm(x, a):
        return tracer.call("matrix_lab.op_norm", lambda: matrix_lab.op_norm(
            matrix_lab.commutator(x, a)))

    mismatches = 0
    for i, rec in enumerate(report["records"]):
        m = None
        if positive:
            m = mode if mode != "both" else ("uniform" if i % 2 == 0 else "atoms")
        pair = instance(role, dims[i % len(dims)], seed, i, m)
        delta = norm(pair.x, pair.a)
        measured = norm(calc(f, pair.x), pair.a)
        bound = curve.evaluate(min(delta, curve.delta_max))
        if (delta, measured, bound) != (rec["delta"], rec["measured"], rec["bound"]):
            mismatches += 1
    return mismatches


def decompose_coefficients(tracer, name):
    """The coefficient work of a cold envelope, on a fresh function object."""
    f = FUNCTIONS[name]()
    fce = tracer.wrap("periodic_fn.fourier_coefficient_estimate",
                      periodic_fn.fourier_coefficient_estimate)
    for k in range(CIRCLE_N_MAX + 1):
        for n in ((0,) if k == 0 else (k, -k)):
            fce(f, n)
    tracer.call("periodic_fn.chebyshev_radius", periodic_fn.chebyshev_radius, f)
    tracer.call("periodic_fn.coefficient_l1", periodic_fn.coefficient_l1, f)


def main(argv):
    spans_path, cli = argv[0], argv[1:]
    out_path = cli[cli.index("--out") + 1]
    tracer = Tracer()
    hooks = CommandHooks(tracer)
    sqrt_side = cli[:2] in (["curve", "sqrt"], ["validate", "sqrt"]) \
        or cli[0] == "probe"

    def command():
        if sqrt_side:
            tracer.call("positive_bounds.sqrt_series",
                        positive_bounds.sqrt_series, SQRT_N_MAX)
        with hooks:
            return tracer.group("experiments_cli.main", experiments_cli.main, cli)

    code = tracer.group("command", command)
    mismatches = None
    if code == 0 and cli[0] == "validate":
        with open(out_path) as fh:
            report = json.load(fh)
        mismatches = tracer.group("extra", replay_sweep, tracer, report,
                                  hooks.curve)
    if code == 0 and cli[:2] == ["curve", "circle"]:
        name = cli[cli.index("--function") + 1] if "--function" in cli \
            else "triangle"
        tracer.group("extra", decompose_coefficients, tracer, name)
    with open(spans_path, "w") as fh:
        json.dump({"exit_code": code, "replay_mismatches": mismatches,
                   "spans": tracer.spans, "counters": tracer.counters}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
