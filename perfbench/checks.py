"""Correctness checks on the CLI outputs, against the paper's invariants.

Each checker takes the bytes a command wrote and returns (problems, stats):
a list of one-line descriptions of every violated invariant (empty when
the output is correct) and the numbers the benchmark reports from it.
Outputs are never compared with stored reference bytes, so a change that
moves the last printed digit of a bound in the safe direction still
passes.
"""

from __future__ import annotations

import json
import math

# %.12e keeps 13 significant digits; two values equal "to print
# precision" differ by at most one unit in the last printed digit.
PRINT_REL = 1e-12
# eta_lower for the triangle wave is the exact witness value up to the
# golden-section refinement; measured deviation is about 1e-12 relative.
TRIANGLE_REL = 1e-10
# sample_sweep rejects a record whose margin is below this.
MARGIN_TOL = 1e-8

CURVE_SQRT_HEADER = ["delta", "gamma0", "sqrt_delta", "ratio"]
CURVE_CIRCLE_HEADER = ["delta", "upper", "lower", "active_line_provenance"]
LOWER_CIRCLE_HEADER = ["delta", "lower"]
PROBE_HEADER = ["delta", "best", "sqrt_delta", "gap_sqrt", "gamma0",
                "gap_gamma0", "iterations", "restarts"]


def _csv(data, header, columns, rows=None):
    """Parse CSV text; returns (problems, list of row lists)."""
    text = data.decode("ascii", errors="replace")
    if not text.endswith("\n") or text.endswith("\n\n"):
        return ["output does not end with exactly one newline"], []
    lines = text[:-1].split("\n")
    if lines[0].split(",") != header:
        return ["header %r, expected %r" % (lines[0], ",".join(header))], []
    out = []
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",", len(header) - 1)
        if len(cells) != len(header):
            return ["line %d has %d cells" % (k, len(cells))], []
        try:
            vals = [float(c) for c in cells[:columns]]
        except ValueError:
            return ["line %d has a non-numeric cell" % k], []
        if not all(math.isfinite(v) for v in vals):
            return ["line %d has a non-finite value" % k], []
        out.append(vals + cells[columns:])
    if rows is not None and len(out) != rows:
        return ["%d rows, expected %d" % (len(out), rows)], out
    return [], out


def _json(data):
    try:
        return [], json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        return ["output is not JSON: %s" % err], None


def _triangle_lower(delta):
    return (4.0 / math.pi) * math.asin(0.5 * delta)


def _nondecreasing(values, label):
    for k in range(1, len(values)):
        if values[k] < values[k - 1]:
            return ["%s decreases at row %d" % (label, k + 1)]
    return []


def curve_sqrt(data, steps):
    """gamma0 = sqrt(delta) on [1/4, 1], ratio >= 1, gamma0 nondecreasing."""
    problems, rows = _csv(data, CURVE_SQRT_HEADER, 4, steps)
    if problems:
        return problems, {}
    for d, g, s, r in rows:
        if r < 1.0 or g < s:
            problems.append("gamma0 %.12e below sqrt(delta) %.12e at delta "
                            "%.12e" % (g, s, d))
        if d >= 0.25 and abs(g - s) > PRINT_REL * s:
            problems.append("gamma0 %.12e differs from sqrt(delta) %.12e at "
                            "delta %.12e in [1/4, 1]" % (g, s, d))
    problems += _nondecreasing([row[1] for row in rows], "gamma0")
    gap = sum(g - s for _, g, s, _ in rows) / len(rows)
    return problems, {"envelope_gap": gap}


def segments_sqrt(data, delta_min, delta_max):
    """Segments cover [delta_min, delta_max] contiguously, slopes nonincreasing."""
    problems, obj = _json(data)
    if problems:
        return problems, {}
    segs = obj.get("segments") if isinstance(obj, dict) else None
    if not segs:
        return ["no segments"], {}
    if segs[0]["delta_start"] != delta_min or segs[-1]["delta_end"] != delta_max:
        problems.append("segments span [%r, %r], expected [%r, %r]"
                        % (segs[0]["delta_start"], segs[-1]["delta_end"],
                           delta_min, delta_max))
    for k, seg in enumerate(segs):
        if not seg["delta_start"] < seg["delta_end"]:
            problems.append("segment %d is empty" % k)
        if k and seg["delta_start"] != segs[k - 1]["delta_end"]:
            problems.append("gap or overlap before segment %d" % k)
        if k and seg["m"] > segs[k - 1]["m"]:
            problems.append("slope increases at segment %d" % k)
    return problems, {"segments": len(segs)}


def validate(data, samples, seed):
    """Zero violations and one record per sample, each within its bound."""
    problems, obj = _json(data)
    if problems:
        return problems, {}
    if obj.get("status") == "violation" or obj.get("violations") != 0:
        return ["report lists violations"], {}
    records = obj.get("records", [])
    if obj.get("samples") != samples or len(records) != samples:
        problems.append("%d records for %d samples" % (len(records), samples))
    if obj.get("seed") != seed:
        problems.append("report seed %r, expected %r" % (obj.get("seed"), seed))
    for k, r in enumerate(records):
        if not r["measured"] <= r["bound"] + MARGIN_TOL:
            problems.append("record %d: measured %.12e above bound %.12e"
                            % (k, r["measured"], r["bound"]))
    return problems, {"min_margin": obj.get("min_margin")}


def probe(data):
    """The best instance found stays at or below gamma0(delta)."""
    problems, rows = _csv(data, PROBE_HEADER, 8, 1)
    if problems:
        return problems, {}
    delta, best, _, _, g0, gap, iterations, _ = rows[0]
    if not best <= g0:
        problems.append("probe best %.12e above gamma0(%g) = %.12e"
                        % (best, delta, g0))
    if iterations < 1:
        problems.append("probe ran no iterations")
    return problems, {"probe_gap": gap}


def curve_circle(data, steps, function):
    """lower <= upper everywhere, upper nondecreasing, exact triangle lower."""
    problems, rows = _csv(data, CURVE_CIRCLE_HEADER, 3, steps)
    if problems:
        return problems, {}
    for d, up, lo, _ in rows:
        if lo > up:
            problems.append("lower %.12e above upper %.12e at delta %.12e"
                            % (lo, up, d))
    problems += _nondecreasing([row[1] for row in rows], "upper")
    if function == "triangle":
        problems += _triangle_rows([(row[0], row[2]) for row in rows])
    gap = sum(up - lo for _, up, lo, _ in rows) / len(rows)
    return problems, {"envelope_gap": gap,
                      "lower": [(row[0], row[2]) for row in rows]}


def lower_circle(data, steps, function):
    """A well-formed lower curve; the exact formula for the triangle wave."""
    problems, rows = _csv(data, LOWER_CIRCLE_HEADER, 2, steps)
    if problems:
        return problems, {}
    if function == "triangle":
        problems += _triangle_rows(rows)
    return problems, {"lower": [tuple(row) for row in rows]}


def _triangle_rows(rows):
    for d, lo in rows:
        exact = _triangle_lower(d)
        if abs(lo - exact) > TRIANGLE_REL * exact:
            return ["triangle lower %.12e differs from (4/pi) asin(delta/2) "
                    "= %.12e at delta %.12e" % (lo, exact, d)]
    return []


def same_lower(curve_stats, lower_stats):
    """`lower circle` reproduces the lower column of `curve circle`."""
    a = curve_stats.get("lower")
    b = lower_stats.get("lower")
    if a is None or b is None:
        return []  # the malformed output already failed its own check
    if len(a) != len(b):
        return ["lower circle has %d rows, curve circle %d" % (len(b), len(a))]
    for (d1, l1), (d2, l2) in zip(a, b):
        if d1 != d2 or abs(l1 - l2) > PRINT_REL * max(abs(l1), abs(l2)):
            return ["lower circle %.12e differs from curve circle %.12e at "
                    "delta %.12e" % (l2, l1, d1)]
    return []


def tamper(data, kind):
    """A copy of a correct curve output with one row broken: gamma0 pushed
    below sqrt(delta), or lower pushed above upper."""
    lines = data.decode("ascii").split("\n")
    k = len(lines) // 3
    cells = lines[k].split(",")
    if kind == "curve_sqrt":
        cells[1] = "%.12e" % (0.5 * float(cells[2]))
    else:
        cells[2] = "%.12e" % (float(cells[1]) + 1.0)
    lines[k] = ",".join(cells)
    return "\n".join(lines).encode("ascii")
