"""Command-line front door: curve emission, validation sweeps, the probe.

Output contracts: CSV with a header row, %.12e float formatting, LF line
endings; JSON reports carry a schema_version field and sorted keys.  Files
are written atomically (temp file in the target directory, then rename).
Identical configuration and seed produce byte-identical output.

Config precedence: command-line flags > JSON config file (--config, keys
named like the flags with underscores) > built-in defaults.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import circle_bounds, matrix_lab, positive_bounds
from .periodic_fn import (
    QuadratureError,
    builtin_bump,
    builtin_triangle,
    from_coefficients,
)

_SCHEMA_VERSION = 1
_FORMATS = ("csv", "json")

# largest |n| a --function coefficient file may carry; a trig polynomial of
# degree N is stored densely over -N..N
MAX_ORDER = 2 ** 16
# largest --n-max and --a-grid: the circle envelope's time grows as n_max^2
# (every search step sums all degrees at 2 n_max points), the sqrt side
# keeps n_max + a_grid lines
MAX_CIRCLE_N = 128
MAX_SQRT_LINES = 10 ** 6
# largest --steps of curve and lower (delta grid points), --samples,
# --restarts and probe --steps; the probe keeps about 0.8 MB per restart
# at dim 64
MAX_GRID_STEPS = 10 ** 6
MAX_SAMPLES = 10 ** 5
MAX_RESTARTS = 1024
MAX_PROBE_STEPS = 10 ** 8
# rows per block of CSV text: a block is formatted and written before the
# next is made, so a long grid's text is never held whole
_CSV_ROWS = 2 ** 14

_DEFAULTS = {
    ("curve", "sqrt"): dict(delta_min=1e-3, delta_max=1.0, steps=500,
                            n_max=100000, a_grid=1024, fmt="csv",
                            pedersen_only=False, out="-"),
    ("curve", "circle"): dict(function="triangle", delta_min=0.0,
                              delta_max=1.99, steps=500, n_max=16,
                              fmt="csv", out="-"),
    ("lower", "circle"): dict(function="bump", delta_min=0.0, delta_max=1.99,
                              steps=500, fmt="csv", out="-"),
    ("validate", "sqrt"): dict(samples=2000, dims="2-8", seed=0,
                               spectrum_mode="both", n_max=100000,
                               a_grid=1024, fmt="json", out="-"),
    ("validate", "circle"): dict(function="triangle", samples=1000,
                                 dims="2-8", seed=0, n_max=16, fmt="json",
                                 out="-"),
    ("probe", None): dict(delta=0.25, dim=2, steps=20000, restarts=64,
                          seed=0, n_max=100000, a_grid=1024, fmt="csv",
                          out="-"),
}


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    command: str
    target: Optional[str] = None
    function: Optional[str] = None
    delta_min: float = 0.0
    delta_max: float = 1.0
    steps: int = 500
    n_max: int = 16
    a_grid: int = 1024
    samples: int = 0
    dims: tuple = ()
    seed: int = 0
    delta: float = 0.25
    dim: int = 2
    restarts: int = 64
    spectrum_mode: str = "both"
    pedersen_only: bool = False
    out: str = "-"
    fmt: str = "csv"


def _atomic_write(path, text):
    """Write text, a string or an iterable of strings written one after
    the other, to stdout or atomically to path."""
    chunks = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".commbound-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12e" % float(v)


def _csv_chunks(header, rows):
    """The CSV text of header and rows in blocks of _CSV_ROWS rows; rows
    may be any iterable and is consumed one block at a time."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(itertools.islice(rows, _CSV_ROWS)):
        yield "".join(",".join(map(_cell, row)) + "\n" for row in block)


def _json_chunks(doc, key=None):
    """The text of json.dumps(doc, indent=2, sort_keys=True) plus a newline,
    in blocks.  doc[key], when a key is given, is a top-level list of flat
    objects or arrays and may be any iterable: it is consumed one block of
    _CSV_ROWS items at a time, and each item goes through the C encoder
    with separators that lay it out as indent=2 does at that depth."""
    if key is None:
        yield json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return
    # a raw newline never occurs inside a JSON string, so the key's line
    # is the only match
    marker = '\n  "%s": ' % key
    head, _, tail = json.dumps(dict(doc, **{key: None}), indent=2,
                               sort_keys=True).partition(marker + "null")
    encode = json.JSONEncoder(sort_keys=True,
                              separators=(",\n      ", ": ")).encode
    yield head + marker + "["
    items = iter(doc[key])
    sep, close = "\n    ", "]"
    while block := list(itertools.islice(items, _CSV_ROWS)):
        yield sep + ",\n    ".join(
            t if len(t) == 2 else t[0] + "\n      " + t[1:-1] + "\n    " + t[-1]
            for t in map(encode, block))
        sep, close = ",\n    ", "\n  ]"
    yield close + tail + "\n"


def _segments_json(curve, lo, hi, label):
    # segments() runs here, so an error in it comes before any output
    segs = curve.segments(lo, hi)
    return _json_chunks({
        "schema_version": _SCHEMA_VERSION,
        "curve": label,
        "segments": (
            {"delta_start": a, "delta_end": b, "m": line.slope,
             "b": line.intercept, "provenance": line.provenance}
            for a, b, line in segs
        ),
    }, "segments")


def _select_function(name):
    if name == "triangle":
        return builtin_triangle()
    if name == "bump":
        return builtin_bump()
    # anything else is a path to a JSON coefficient map {"n": [re, im] or re}
    with open(name) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("%s: coefficient file must hold a JSON object" % name)
    mapping = {}
    for k, v in raw.items():
        try:
            n = int(k)
        except ValueError:
            raise ValueError("%s: Fourier order %r is not an integer" % (name, k))
        if abs(n) > MAX_ORDER:
            raise ValueError("%s: Fourier order %d exceeds the cap |n| <= %d"
                             % (name, n, MAX_ORDER))
        parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                   for p in parts):
            raise ValueError("%s: coefficient for order %s must be a real "
                             "number or [re, im], got %s"
                             % (name, k, json.dumps(v)))
        # json reads NaN and +-Infinity; a huge integer would overflow float
        if not all(abs(p) <= sys.float_info.max for p in parts):
            raise ValueError("%s: coefficient for order %s must be finite, "
                             "got %s" % (name, k, json.dumps(v)))
        mapping[n] = complex(parts[0], parts[1])
    return from_coefficients(mapping)


def _parse_dims(text):
    dims = []
    for part in str(text).split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(p) for p in part.split("-", 1))
            for end in (lo, hi):  # checked before a huge range is built
                matrix_lab._check_dim(end)
            dims.extend(range(lo, hi + 1))
        elif part:
            dims.append(int(part))
    return tuple(dims)


def cmd_curve_sqrt(cfg: RunConfig) -> int:
    if not 0.0 < cfg.delta_min < cfg.delta_max <= 1.0:
        raise ValueError("sqrt curve grid must satisfy 0 < min < max <= 1")
    if cfg.steps < 2:
        raise ValueError("steps must be at least 2")
    if cfg.pedersen_only:
        curve = positive_bounds.pedersen_envelope(cfg.n_max)
        label = "sqrt pedersen-only"
    else:
        curve = positive_bounds.gamma0(cfg.n_max, cfg.a_grid)
        label = "sqrt gamma0"
    if cfg.fmt == "json":
        _atomic_write(cfg.out,
                      _segments_json(curve, cfg.delta_min, cfg.delta_max, label))
        return 0
    grid = np.linspace(cfg.delta_min, cfg.delta_max, cfg.steps)

    def rows():
        # one curve evaluation per block of rows
        for s in range(0, grid.size, _CSV_ROWS):
            d = grid[s:s + _CSV_ROWS]
            for x, g in zip(d.tolist(), curve.evaluate(d).tolist()):
                yield x, g, math.sqrt(x), g / math.sqrt(x)

    _atomic_write(cfg.out, _csv_chunks(
        ["delta", "gamma0", "sqrt_delta", "ratio"], rows()))
    return 0


def cmd_curve_circle(cfg: RunConfig) -> int:
    if not 0.0 <= cfg.delta_min < cfg.delta_max < 2.0:
        raise ValueError("circle curve grid must satisfy 0 <= min < max < 2")
    if cfg.steps < 2:
        raise ValueError("steps must be at least 2")
    f = _select_function(cfg.function)
    curve = circle_bounds.truncation_envelope(f, cfg.n_max)
    if cfg.fmt == "json":
        _atomic_write(cfg.out, _segments_json(curve, max(cfg.delta_min, 0.0),
                                              cfg.delta_max,
                                              "circle upper %s" % cfg.function))
        return 0
    grid = np.linspace(cfg.delta_min, cfg.delta_max, cfg.steps)
    lowers = circle_bounds.eta_lower(f, grid)

    def rows():
        # one curve evaluation per block of rows
        for s in range(0, grid.size, _CSV_ROWS):
            d = grid[s:s + _CSV_ROWS]
            uppers, provs = curve.evaluate_with_provenance(d)
            yield from zip(d.tolist(), uppers.tolist(),
                           lowers[s:s + _CSV_ROWS].tolist(), provs)

    _atomic_write(cfg.out, _csv_chunks(
        ["delta", "upper", "lower", "active_line_provenance"], rows()))
    return 0


def cmd_lower_circle(cfg: RunConfig) -> int:
    if not 0.0 <= cfg.delta_min < cfg.delta_max < 2.0:
        raise ValueError("lower-bound grid must satisfy 0 <= min < max < 2")
    if cfg.steps < 2:
        raise ValueError("steps must be at least 2")
    f = _select_function(cfg.function)
    grid = np.linspace(cfg.delta_min, cfg.delta_max, cfg.steps)
    lowers = circle_bounds.eta_lower(f, grid)

    def rows():
        for s in range(0, grid.size, _CSV_ROWS):
            yield from zip(grid[s:s + _CSV_ROWS].tolist(),
                           lowers[s:s + _CSV_ROWS].tolist())

    if cfg.fmt == "json":
        _atomic_write(cfg.out, _json_chunks({
            "schema_version": _SCHEMA_VERSION,
            "curve": "circle lower %s" % cfg.function,
            "columns": ["delta", "lower"],
            "rows": rows(),
        }, "rows"))
        return 0
    _atomic_write(cfg.out, _csv_chunks(["delta", "lower"], rows()))
    return 0


def _records_rows(records):
    return ((r.seed, r.dim, r.delta, r.measured, r.bound, r.margin)
            for r in records)


def cmd_validate(cfg: RunConfig) -> int:
    if cfg.samples < 1:
        raise ValueError("samples must be at least 1")
    if not cfg.dims:
        raise ValueError("dims must be nonempty")
    if cfg.target == "sqrt":
        curve = positive_bounds.gamma0(cfg.n_max, cfg.a_grid)
        role = "positive"
        f = np.sqrt
        fname = "sqrt"
    else:
        f = _select_function(cfg.function)
        curve = circle_bounds.truncation_envelope(f, cfg.n_max)
        role = "unitary"
        fname = cfg.function
    try:
        records = matrix_lab.sample_sweep(f, role, cfg.samples, cfg.dims,
                                          cfg.seed, curve,
                                          spectrum_mode=cfg.spectrum_mode)
    except matrix_lab.ViolationError as err:
        report = {"schema_version": _SCHEMA_VERSION, "command": "validate",
                  "target": cfg.target, "status": "violation",
                  "violation": err.payload}
        _atomic_write(cfg.out, _json_chunks(report))
        print("validate %s: BOUND VIOLATION (%s)" % (cfg.target, err),
              file=sys.stderr)
        return 1
    margins = [r.margin for r in records]
    k = int(np.argmin(margins))
    summary = {
        "command": "validate",
        "target": cfg.target,
        "function": fname,
        "samples": cfg.samples,
        "dims": list(cfg.dims),
        "seed": cfg.seed,
        "spectrum_mode": cfg.spectrum_mode if cfg.target == "sqrt" else None,
        "violations": 0,
        "min_margin": margins[k],
        "min_margin_seed": records[k].seed,
        "min_margin_index": k,
    }
    if cfg.fmt == "csv":
        text = _csv_chunks(["seed", "dim", "delta", "measured", "bound",
                            "margin"], _records_rows(records))
    else:
        report = dict(summary)
        report["schema_version"] = _SCHEMA_VERSION
        report["records"] = (
            {"seed": r.seed, "dim": r.dim, "delta": r.delta,
             "measured": r.measured, "bound": r.bound, "margin": r.margin}
            for r in records
        )
        text = _json_chunks(report, "records")
    _atomic_write(cfg.out, text)
    if cfg.out not in (None, "-"):
        print("validate %s: %d samples, 0 violations, min margin %.12e "
              "at seed %d index %d"
              % (cfg.target, cfg.samples, margins[k], records[k].seed, k))
    return 0


def cmd_probe(cfg: RunConfig) -> int:
    if not 0.0 < cfg.delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    curve = positive_bounds.gamma0(cfg.n_max, cfg.a_grid)
    result = matrix_lab.probe_max_commutator(cfg.delta, cfg.dim, cfg.steps,
                                             cfg.seed, restarts=cfg.restarts)
    g0 = curve.evaluate(cfg.delta)
    best = result.record.measured
    sq = math.sqrt(cfg.delta)
    header = ["delta", "best", "sqrt_delta", "gap_sqrt", "gamma0",
              "gap_gamma0", "iterations", "restarts"]
    row = (cfg.delta, best, sq, sq - best, g0, g0 - best,
           result.iterations, result.restarts)
    if cfg.fmt == "json":
        obj = {"schema_version": _SCHEMA_VERSION, "command": "probe",
               "dim": cfg.dim, "seed": cfg.seed}
        obj.update({k: (v if isinstance(v, (int, str)) else float(v))
                    for k, v in zip(header, row)})
        text = _json_chunks(obj)
    else:
        text = _csv_chunks(header, [row])
    _atomic_write(cfg.out, text)
    return 0


def _add_output_flags(p):
    p.add_argument("--out", default=None, help="output path ('-' for stdout)")
    p.add_argument("--format", dest="fmt", choices=_FORMATS,
                   default=None, help="output format")
    p.add_argument("--config", default=None,
                   help="JSON config file (flags override it)")


def _add_grid_flags(p):
    p.add_argument("--delta-min", type=float, default=None)
    p.add_argument("--delta-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)


def build_parser():
    p = argparse.ArgumentParser(
        prog="commbound",
        description="Certified upper/lower bound curves for commutator norms "
                    "of functions of unitaries and positive contractions.")
    sub = p.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="emit bound-curve data")
    csub = curve.add_subparsers(dest="target", required=True)
    cs = csub.add_parser("sqrt", help="gamma0 envelope for f(x)=sqrt(x)")
    _add_grid_flags(cs)
    cs.add_argument("--n-max", type=int, default=None)
    cs.add_argument("--a-grid", type=int, default=None)
    cs.add_argument("--pedersen-only", action="store_true", default=None)
    _add_output_flags(cs)
    cc = csub.add_parser("circle", help="upper/lower curves for periodic f")
    cc.add_argument("--function", default=None,
                    help="triangle | bump | path to coefficient JSON")
    _add_grid_flags(cc)
    cc.add_argument("--n-max", type=int, default=None)
    _add_output_flags(cc)

    lower = sub.add_parser("lower", help="emit lower-bound data")
    lsub = lower.add_subparsers(dest="target", required=True)
    lc = lsub.add_parser("circle", help="constructive lower bound for periodic f")
    lc.add_argument("--function", default=None,
                    help="triangle | bump | path to coefficient JSON")
    _add_grid_flags(lc)
    _add_output_flags(lc)

    val = sub.add_parser("validate", help="random-matrix validation sweep")
    vsub = val.add_subparsers(dest="target", required=True)
    vs = vsub.add_parser("sqrt", help="validate gamma0 on random (H, A)")
    vs.add_argument("--samples", type=int, default=None)
    vs.add_argument("--dims", default=None, help="e.g. 2-8 or 2,4,8")
    vs.add_argument("--seed", type=int, default=None)
    vs.add_argument("--spectrum-mode", dest="spectrum_mode", default=None,
                    choices=["uniform", "atoms", "both"])
    vs.add_argument("--n-max", type=int, default=None)
    vs.add_argument("--a-grid", type=int, default=None)
    _add_output_flags(vs)
    vc = vsub.add_parser("circle", help="validate the truncation envelope "
                                        "on random (V, A)")
    vc.add_argument("--function", default=None)
    vc.add_argument("--samples", type=int, default=None)
    vc.add_argument("--dims", default=None)
    vc.add_argument("--seed", type=int, default=None)
    vc.add_argument("--n-max", type=int, default=None)
    _add_output_flags(vc)

    pr = sub.add_parser("probe", help="hill-climb probe of the sqrt modulus")
    pr.add_argument("--delta", type=float, default=None)
    pr.add_argument("--dim", type=int, default=None)
    pr.add_argument("--steps", type=int, default=None)
    pr.add_argument("--restarts", type=int, default=None)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--n-max", type=int, default=None)
    pr.add_argument("--a-grid", type=int, default=None)
    _add_output_flags(pr)
    return p


_INT_KEYS = ("steps", "n_max", "a_grid", "samples", "seed", "dim", "restarts")
_FLOAT_KEYS = ("delta_min", "delta_max", "delta")


def _check_config_value(name, v):
    """Refuse a config value whose JSON type does not match its flag."""
    if name == "pedersen_only":
        ok, kind = isinstance(v, bool), "true or false"
    elif name in _INT_KEYS:
        ok, kind = isinstance(v, int) and not isinstance(v, bool), "an integer"
    elif name in _FLOAT_KEYS:
        # an integer too large for a float is refused, not an OverflowError
        ok = isinstance(v, float) or (isinstance(v, int) and not isinstance(
            v, bool) and abs(v) <= sys.float_info.max)
        kind = "a number"
    elif name == "fmt":
        ok, kind = v in _FORMATS, "one of " + ", ".join(_FORMATS)
    else:
        ok, kind = isinstance(v, str), "a string"
    if not ok:
        raise ValueError("config key %s must be %s, got %s"
                         % (name, kind, json.dumps(v)))


def _resolve(args) -> RunConfig:
    key = (args.command, getattr(args, "target", None))
    defaults = _DEFAULTS[key]
    from_file = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise ValueError("config file must hold a JSON object")
        allowed = set(defaults) | {"out", "fmt", "dims"}
        unknown = sorted(set(from_file) - allowed)
        if unknown:
            raise ValueError(
                "unknown config keys for %s %s: %s"
                % (args.command, key[1] or "", ", ".join(unknown))
            )
        for name, v in sorted(from_file.items()):
            _check_config_value(name, v)

    def get(name):
        v = getattr(args, name, None)
        if v is not None:
            return v
        if name in from_file:
            return from_file[name]
        return defaults.get(name)

    cfg = RunConfig(command=args.command, target=key[1])
    for name in ("function", "delta_min", "delta_max", "steps", "n_max",
                 "a_grid", "samples", "seed", "delta", "dim", "restarts",
                 "spectrum_mode", "pedersen_only", "out", "fmt"):
        v = get(name)
        if v is not None:
            setattr(cfg, name, float(v) if name in _FLOAT_KEYS else v)
    dims = get("dims")
    if dims is not None:
        cfg.dims = _parse_dims(dims)
    caps = {"n_max": MAX_CIRCLE_N if key[1] == "circle" else MAX_SQRT_LINES,
            "a_grid": MAX_SQRT_LINES, "samples": MAX_SAMPLES,
            "restarts": MAX_RESTARTS,
            "steps": MAX_PROBE_STEPS if key[0] == "probe" else MAX_GRID_STEPS}
    for name, cap in caps.items():
        if name in defaults and getattr(cfg, name) > cap:
            raise ValueError("--%s %d exceeds the cap %d" % (
                name.replace("_", "-"), getattr(cfg, name), cap))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "curve" and cfg.target == "sqrt":
            return cmd_curve_sqrt(cfg)
        if args.command == "curve" and cfg.target == "circle":
            return cmd_curve_circle(cfg)
        if args.command == "lower":
            return cmd_lower_circle(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "probe":
            return cmd_probe(cfg)
    except (ValueError, OSError, QuadratureError) as err:
        print("commbound: %s" % err, file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
