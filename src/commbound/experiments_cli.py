"""Command-line front door: curve emission, validation sweeps, the probe.

Output contracts: CSV with a header row, %.12e float formatting, LF line
endings; JSON reports carry a schema_version field and sorted keys.  Files
are written atomically (temp file in the target directory, then rename).
Identical configuration and seed produce byte-identical output.

Config precedence: command-line flags > JSON config file (--config, keys
named like the flags with underscores, and fmt for --format) > built-in
defaults.  _COMMANDS, at the end, defines every command's flags, defaults,
caps and handler.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from collections import namedtuple

import numpy as np

_SCHEMA_VERSION = 1
_FORMATS = ("csv", "json")

# largest |n| a --function coefficient file may carry; a trig polynomial of
# degree N is stored densely over -N..N
MAX_ORDER = 2 ** 16
# largest --n-max and --a-grid: the circle envelope's time grows as n_max^2
# (every search step sums all degrees at 2 n_max points); curve sqrt keeps
# n_max + a_grid lines, validate sqrt and probe n_max + 1024
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


def _atomic_write(path, text):
    """Write text, a string or an iterable of strings written one after
    the other, to stdout or atomically to path."""
    chunks = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        # Python sets sys.stdout to None when it starts with fd 1 closed
        if sys.stdout is None:
            raise OSError(errno.EBADF, "stdout is closed")
        sys.stdout.writelines(chunks)
        return
    # write through a symlink, as open() does, not over it
    path = os.path.realpath(path)
    # mkstemp's file is 0600; the file gets the mode open() would give it:
    # an existing file's own, else 0o666 less the umask
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".commbound-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.chmod(tmp, mode)
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
        "segments": (dict(zip(("delta_start", "delta_end", "m", "b",
                               "provenance"), row)) for row in segs),
    }, "segments")


class _JsonObject(dict):
    """A JSON object that also keeps its key-value pairs, repeats included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _load_json(path, **kwargs):
    """json.load of the file at path; a file nested too deeply for the
    decoder's recursion is refused with a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh, **kwargs)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None


def _select_function(name):
    from . import periodic_fn

    if name == "triangle":
        return periodic_fn.builtin_triangle()
    if name == "bump":
        return periodic_fn.builtin_bump()
    # anything else is a path to a JSON coefficient map {"n": [re, im] or re}
    raw = _load_json(name, object_pairs_hook=_JsonObject)
    if not isinstance(raw, dict):
        raise ValueError("%s: coefficient file must hold a JSON object" % name)
    mapping = {}
    for k, v in raw.pairs:
        try:
            n = int(k)
        except ValueError:
            raise ValueError("%s: Fourier order %r is not an integer" % (name, k))
        if abs(n) > MAX_ORDER:
            raise ValueError("%s: Fourier order %d exceeds the cap |n| <= %d"
                             % (name, n, MAX_ORDER))
        # a repeated key, or keys such as "1" and "01" that int() equates
        if n in mapping:
            raise ValueError("%s: Fourier order %d is given more than once"
                             % (name, n))
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
    # the envelope's lines reach slope MAX_ORDER * l1 and intercept 2 * l1,
    # so their values on [0, 2] stay below 2 (MAX_ORDER + 1) l1
    with np.errstate(over="ignore"):
        reach = 2.0 * (MAX_ORDER + 1) * np.abs(list(mapping.values())).sum()
    if not np.isfinite(reach):
        raise ValueError("%s: coefficients too large: 2 (%d + 1) sum |a_n| "
                         "overflows a float" % (name, MAX_ORDER))
    return periodic_fn.from_coefficients(mapping)


def _parse_dims(text):
    from . import matrix_lab

    dims = []
    for part in str(text).split(","):
        part = part.strip()
        if part:
            lo, hi = (map(int, part.split("-", 1)) if "-" in part[1:]
                      else (int(part),) * 2)
            # every entry lies between the two ends, checked before a huge
            # range is built
            for end in (lo, hi):
                matrix_lab._check_dim(end)
            dims.extend(range(lo, hi + 1))
    return tuple(dims)


def _grid(cfg, what, unit):
    """The delta grid of a curve or lower command, checked to lie in
    (0, 1] when unit is set (sqrt) and in [0, 2) otherwise (circle)."""
    lo, hi = cfg.delta_min, cfg.delta_max
    if not (0.0 < lo < hi <= 1.0 if unit else 0.0 <= lo < hi < 2.0):
        raise ValueError("%s grid must satisfy %s" % (
            what, "0 < min < max <= 1" if unit else "0 <= min < max < 2"))
    if cfg.steps < 2:
        raise ValueError("steps must be at least 2")
    return np.linspace(lo, hi, cfg.steps)


def _grid_rows(grid, columns):
    """The rows (delta, *columns(d, j)) over the grid, made one block of
    _CSV_ROWS deltas d = grid[j] at a time."""
    for s in range(0, grid.size, _CSV_ROWS):
        j = slice(s, s + _CSV_ROWS)
        yield from zip(grid[j].tolist(), *columns(grid[j], j))


def cmd_curve_sqrt(cfg) -> int:
    from . import positive_bounds

    grid = _grid(cfg, "sqrt curve", unit=True)
    curve = (positive_bounds.pedersen_envelope(cfg.n_max) if cfg.pedersen_only
             else positive_bounds.gamma0(cfg.n_max, cfg.a_grid))
    if cfg.fmt == "json":
        label = "sqrt pedersen-only" if cfg.pedersen_only else "sqrt gamma0"
        _atomic_write(cfg.out,
                      _segments_json(curve, cfg.delta_min, cfg.delta_max, label))
        return 0

    def columns(d, j):
        g, r = curve.evaluate(d), np.sqrt(d)
        return g.tolist(), r.tolist(), (g / r).tolist()

    _atomic_write(cfg.out, _csv_chunks(
        ["delta", "gamma0", "sqrt_delta", "ratio"], _grid_rows(grid, columns)))
    return 0


def cmd_curve_circle(cfg) -> int:
    from . import circle_bounds

    grid = _grid(cfg, "circle curve", unit=False)
    f = _select_function(cfg.function)
    curve = circle_bounds.truncation_envelope(f, cfg.n_max)
    if cfg.fmt == "json":
        _atomic_write(cfg.out, _segments_json(
            curve, cfg.delta_min, cfg.delta_max, "circle upper %s" % cfg.function))
        return 0
    lowers = circle_bounds.eta_lower(f, grid)

    def columns(d, j):
        uppers, provs = curve.evaluate_with_provenance(d)
        return uppers.tolist(), lowers[j].tolist(), provs

    _atomic_write(cfg.out, _csv_chunks(
        ["delta", "upper", "lower", "active_line_provenance"],
        _grid_rows(grid, columns)))
    return 0


def cmd_lower_circle(cfg) -> int:
    from . import circle_bounds

    grid = _grid(cfg, "lower-bound", unit=False)
    f = _select_function(cfg.function)
    lowers = circle_bounds.eta_lower(f, grid)
    rows = _grid_rows(grid, lambda d, j: [lowers[j].tolist()])
    if cfg.fmt == "json":
        _atomic_write(cfg.out, _json_chunks({
            "schema_version": _SCHEMA_VERSION,
            "curve": "circle lower %s" % cfg.function,
            "columns": ["delta", "lower"],
            "rows": rows,
        }, "rows"))
        return 0
    _atomic_write(cfg.out, _csv_chunks(["delta", "lower"], rows))
    return 0


def cmd_validate(cfg) -> int:
    from . import matrix_lab

    if cfg.samples < 1:
        raise ValueError("samples must be at least 1")
    if not cfg.dims:
        raise ValueError("dims must be nonempty")
    if cfg.target == "sqrt":
        from . import positive_bounds

        curve = positive_bounds.gamma0(cfg.n_max)
        f, fname, role, mode = np.sqrt, "sqrt", "positive", cfg.spectrum_mode
    else:
        from . import circle_bounds

        f = _select_function(cfg.function)
        curve = circle_bounds.truncation_envelope(f, cfg.n_max)
        fname, role, mode = cfg.function, "unitary", None
    try:
        records = matrix_lab.sample_sweep(f, role, cfg.samples, cfg.dims,
                                          cfg.seed, curve, spectrum_mode=mode)
    except matrix_lab.ViolationError as err:
        report = {"schema_version": _SCHEMA_VERSION, "command": "validate",
                  "target": cfg.target, "status": "violation",
                  "violation": err.payload}
        _atomic_write(cfg.out, _json_chunks(report))
        # a closed stderr must not turn the violation into exit 2
        with contextlib.suppress(OSError, ValueError):
            print("validate %s: BOUND VIOLATION (%s)" % (cfg.target, err),
                  file=sys.stderr)
        return 1
    margins = [r.margin for r in records]
    k = int(np.argmin(margins))
    columns = ["seed", "dim", "delta", "measured", "bound", "margin"]
    rows = ([getattr(r, c) for c in columns] for r in records)
    if cfg.fmt == "csv":
        text = _csv_chunks(columns, rows)
    else:
        text = _json_chunks({
            "schema_version": _SCHEMA_VERSION, "command": "validate",
            "target": cfg.target, "function": fname,
            "samples": cfg.samples, "dims": list(cfg.dims), "seed": cfg.seed,
            "spectrum_mode": mode, "violations": 0,
            "min_margin": margins[k], "min_margin_seed": records[k].seed,
            "min_margin_index": k,
            "records": (dict(zip(columns, row)) for row in rows),
        }, "records")
    _atomic_write(cfg.out, text)
    if cfg.out not in (None, "-"):
        print("validate %s: %d samples, 0 violations, min margin %.12e "
              "at seed %d index %d"
              % (cfg.target, cfg.samples, margins[k], records[k].seed, k))
    return 0


def cmd_probe(cfg) -> int:
    from . import matrix_lab, positive_bounds

    if not 0.0 < cfg.delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    matrix_lab._check_dim(cfg.dim)
    curve = positive_bounds.gamma0(cfg.n_max)
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


# One command: its handler and help text; its options, name -> default in
# the order the parser adds the flags; and its caps, name -> largest value
# in the order they are checked.
_Command = namedtuple("_Command", "handler help defaults caps")


# the argparse keywords of each option's flag, apart from its default;
# the type or choices also check the option's config value
_OPTIONS = {
    "function": dict(help="triangle | bump | path to coefficient JSON"),
    "delta_min": dict(type=float),
    "delta_max": dict(type=float),
    "steps": dict(type=int),
    "n_max": dict(type=int),
    "a_grid": dict(type=int),
    "pedersen_only": dict(action="store_true"),
    "samples": dict(type=int),
    "dims": dict(help="e.g. 2-8 or 2,4,8"),
    "seed": dict(type=int),
    "spectrum_mode": dict(choices=["uniform", "atoms", "both"]),
    "delta": dict(type=float),
    "dim": dict(type=int),
    "restarts": dict(type=int),
    "out": dict(help="output path ('-' for stdout)"),
    "fmt": dict(choices=_FORMATS, help="output format"),
}
_GROUPS = {"curve": "emit bound-curve data",
           "lower": "emit lower-bound data",
           "validate": "random-matrix validation sweep"}
_COMMANDS = {
    ("curve", "sqrt"): _Command(
        cmd_curve_sqrt, "gamma0 envelope for f(x)=sqrt(x)",
        dict(delta_min=1e-3, delta_max=1.0, steps=500, n_max=100000,
             a_grid=1024, pedersen_only=False, out="-", fmt="csv"),
        dict(n_max=MAX_SQRT_LINES, a_grid=MAX_SQRT_LINES,
             steps=MAX_GRID_STEPS)),
    ("curve", "circle"): _Command(
        cmd_curve_circle, "upper/lower curves for periodic f",
        dict(function="triangle", delta_min=0.0, delta_max=1.99, steps=500,
             n_max=16, out="-", fmt="csv"),
        dict(n_max=MAX_CIRCLE_N, steps=MAX_GRID_STEPS)),
    ("lower", "circle"): _Command(
        cmd_lower_circle, "constructive lower bound for periodic f",
        dict(function="bump", delta_min=0.0, delta_max=1.99, steps=500,
             out="-", fmt="csv"),
        dict(steps=MAX_GRID_STEPS)),
    ("validate", "sqrt"): _Command(
        cmd_validate, "validate gamma0 on random (H, A)",
        dict(samples=2000, dims="2-8", seed=0, spectrum_mode="both",
             n_max=100000, out="-", fmt="json"),
        dict(n_max=MAX_SQRT_LINES, samples=MAX_SAMPLES)),
    ("validate", "circle"): _Command(
        cmd_validate, "validate the truncation envelope on random (V, A)",
        dict(function="triangle", samples=1000, dims="2-8", seed=0, n_max=16,
             out="-", fmt="json"),
        dict(n_max=MAX_CIRCLE_N, samples=MAX_SAMPLES)),
    ("probe", None): _Command(
        cmd_probe, "hill-climb probe of the sqrt modulus",
        dict(delta=0.25, dim=2, steps=20000, restarts=64, seed=0,
             n_max=100000, out="-", fmt="csv"),
        dict(n_max=MAX_SQRT_LINES, restarts=MAX_RESTARTS,
             steps=MAX_PROBE_STEPS)),
}


def _flag(name):
    return "--format" if name == "fmt" else "--" + name.replace("_", "-")


def build_parser():
    p = argparse.ArgumentParser(
        prog="commbound",
        description="Certified upper/lower bound curves for commutator norms "
                    "of functions of unitaries and positive contractions.")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for (command, target), spec in _COMMANDS.items():
        if target is None:
            cp = sub.add_parser(command, help=spec.help)
        else:
            if command not in groups:
                groups[command] = sub.add_parser(
                    command, help=_GROUPS[command]).add_subparsers(
                        dest="target", required=True)
            cp = groups[command].add_parser(target, help=spec.help)
        for name in spec.defaults:
            cp.add_argument(_flag(name), **_OPTIONS[name], dest=name,
                            default=None)
        cp.add_argument("--config", default=None,
                        help="JSON config file (flags override it)")
    return p


def _check_config_value(name, v):
    """Refuse a config value whose JSON type does not match its flag."""
    opt = _OPTIONS[name]
    if "action" in opt:
        ok, kind = isinstance(v, bool), "true or false"
    elif "choices" in opt:
        ok, kind = v in opt["choices"], "one of " + ", ".join(opt["choices"])
    elif opt.get("type") is int:
        ok, kind = isinstance(v, int) and not isinstance(v, bool), "an integer"
    elif opt.get("type") is float:
        # an integer too large for a float is refused, not an OverflowError
        ok = isinstance(v, float) or (isinstance(v, int) and not isinstance(
            v, bool) and abs(v) <= sys.float_info.max)
        kind = "a number"
    else:
        ok, kind = isinstance(v, str), "a string"
    if not ok:
        raise ValueError("config key %s must be %s, got %s"
                         % (name, kind, json.dumps(v)))


def _resolve(args) -> argparse.Namespace:
    """The command's own options from its flags, then the --config file,
    then the defaults, with dims parsed and every cap checked."""
    key = (args.command, getattr(args, "target", None))
    spec = _COMMANDS[key]
    from_file = {}
    if args.config:
        from_file = _load_json(args.config)
        if not isinstance(from_file, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(from_file) - set(spec.defaults))
        if unknown:
            raise ValueError(
                "unknown config keys for %s: %s"
                % (" ".join(filter(None, key)), ", ".join(unknown))
            )
        for name, v in sorted(from_file.items()):
            _check_config_value(name, v)
    cfg = argparse.Namespace(command=key[0], target=key[1])
    for name, default in spec.defaults.items():
        v = getattr(args, name)
        if v is None:
            v = from_file.get(name, default)
        setattr(cfg, name, float(v) if _OPTIONS[name].get("type") is float
                else v)
    if "dims" in spec.defaults:
        cfg.dims = _parse_dims(cfg.dims)
    for name, cap in spec.caps.items():
        if getattr(cfg, name) > cap:
            raise ValueError("%s %d exceeds the cap %d"
                             % (_flag(name), getattr(cfg, name), cap))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command, cfg.target].handler(cfg)
    except (ValueError, OSError) as err:
        error = err
    # an except clause's classes are looked up only when an exception
    # reaches it, so a command that never loads periodic_fn stays without it
    except _quadrature_error() as err:
        error = err
    # stderr may be the closed pipe that error came from
    with contextlib.suppress(OSError, ValueError):
        print("commbound: %s" % error, file=sys.stderr)
    return 2


def _quadrature_error():
    from .periodic_fn import QuadratureError

    return QuadratureError


def run(argv=None):
    """Run main(argv), flush stdout and stderr, and end the process with
    main's exit code through os._exit.

    os._exit skips atexit handlers, object finalizers and module teardown,
    which here would only free numpy and module state that the OS discards
    anyway.  That is safe because commbound registers no atexit handler,
    _atomic_write has closed and renamed its file before main returns, and
    no thread or child process of commbound's is running then.
    An exception that escapes main, such as argparse's SystemExit for a
    usage error or --help, propagates and the interpreter ends as usual.  If
    the final flush fails (stdout a closed pipe, say), one "commbound:" line
    goes to stderr, unless main's own error line (code 2) is already there,
    and the exit code is main's if nonzero, else 2.
    """
    code = main(argv)
    error = None
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError) as err:
            error = error or err
    if error is not None:
        if code != 2 and sys.stderr is not None:
            with contextlib.suppress(OSError, ValueError):
                print("commbound: %s" % error, file=sys.stderr, flush=True)
        code = code or 2
    os._exit(code)


if __name__ == "__main__":
    run()
