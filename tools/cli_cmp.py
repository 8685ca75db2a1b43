"""Compare this checkout's command line with another checkout's, byte for byte.

    python tools/cli_cmp.py OTHER_CHECKOUT

Runs a fixed list of `commbound` invocations in fresh interpreters, once
with this checkout's src/ on the import path and once with OTHER's, both in
one scratch directory that holds the JSON files they read.  For each
invocation it compares stdout, the file written by --out and stderr, by
their SHA-256 digests, and the exit code, and prints one line: `same` or
`DIFF` with the parts that differ, and the peak RSS and minor page faults
of the run with this checkout and with OTHER (ru_maxrss and ru_minflt of
the child).  Exits 1 on any difference.  An invocation that names its own
--out (`-` for stdout) keeps it; the others write to a file.  The two
violation reports run with every bound curve replaced by the constant
1e-9, so they exit 1 with a replay payload; they end through
experiments_cli.run where the checkout has it, and through
sys.exit(main(...)) where it does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
OUT = "out.txt"

# coefficient files, written from closed forms
COEFFICIENT_FILES = {
    "complex.json": {"1": 0.5, "-2": [0, 0.25], "3": 0.125},
    # where a flat cap min(2 radius, 2 l1) once took its l1 branch
    "big.json": {"1": 1e6},
    # a_n = (-1)^n / n^2 for 1 <= |n| <= 500
    "deg500.json": {str(s * n): (-1) ** n / n ** 2
                    for n in range(1, 501) for s in (1, -1)},
    # the same with a_0 = 0.3
    "deg500a0.json": {"0": 0.3, **{str(s * n): (-1) ** n / n ** 2
                                   for n in range(1, 501) for s in (1, -1)}},
    # real pairs, zero orders in between and at the top, and one
    # conjugate-symmetric complex pair
    "sparse.json": {"0": 0.25, "1": 0.5, "-1": 0.5, "3": [0.2, 0.05],
                    "-3": [0.2, -0.05], "4": -0.125, "-4": -0.125,
                    "9": 0.0625, "-9": 0.0625, "12": 0.0},
    # a_0 = -0.0, the one start from which a zero term moves a real sum
    "negzero.json": {"0": -0.0, "1": 0.0, "2": 1.0},
}
# JSON nested deeper than the decoder's recursion reaches, as text
DEEP_JSON = "[" * 3000

INVOCATIONS = [
    "curve sqrt",
    "curve sqrt --format json",
    "curve sqrt --pedersen-only --format json",
    "curve sqrt --pedersen-only",
    # segments over 10^5 Pedersen lines, and the junction near 1/4
    "curve sqrt --format json --delta-min 1e-5",
    "curve sqrt --pedersen-only --format json --delta-min 1e-6 --n-max 1000",
    "curve sqrt --format json --a-grid 3 --delta-min 0.2",
    # deltas below 1/N_max, where the pedersen window clips to N_max
    "curve sqrt --delta-min 1e-6 --n-max 1000 --steps 2000",
    "curve sqrt --delta-min 1e-6 --n-max 1000 --steps 2000 --pedersen-only",
    "validate sqrt",
    "validate sqrt --n-max 50 --samples 500",
    # the --n-max cap, whose peak RSS should match the default's
    "curve sqrt --n-max 1000000 --format json",
    "validate sqrt --n-max 1000000 --samples 200",
    "probe",
    "probe --delta 1e-6 --n-max 1000 --steps 2000",
    "probe --seed 1 --format json",
    "probe --dim 3 --steps 2000 --seed 2",
    "curve circle",
    "curve circle --format json",
    "curve circle --function bump",
    "curve circle --function bump --format json",
    "curve circle --steps 50 --function complex.json",
    "curve circle --steps 50 --function big.json",
    "curve circle --steps 10 --function deg500.json",
    "curve circle --steps 10 --function deg500a0.json",
    "curve circle --steps 50 --function sparse.json --format json",
    "lower circle --function sparse.json",
    "curve circle --steps 50 --function negzero.json",
    "validate circle --samples 100 --function negzero.json",
    "curve circle --n-max 128 --steps 50",
    "curve circle --function bump --n-max 128 --format json",
    # the real refinement table with sine parts, in CSV
    "curve circle --function bump --n-max 128 --steps 50",
    "curve circle --n-max 128 --format json",
    "curve sqrt --steps 100000 --out -",
    "lower circle",
    "lower circle --function triangle",
    "validate circle",
    "validate circle --function bump --seed 1 --samples 200",
    "validate circle --samples 200 --function complex.json",
    # refused where the JSON is read: exit 2 and one line
    "curve sqrt --config deep.json",
    "curve circle --function deep.json",
]
VIOLATIONS = [
    "validate sqrt --samples 40 --dims 2-5 --seed 7",
    "validate circle --samples 40 --dims 3,6 --seed 2",
]

# the CLI with gamma0 and the truncation envelope replaced by a constant
_TINY_CURVE = """
import sys
from commbound import circle_bounds, experiments_cli, positive_bounds

def tiny(*args, **kwargs):
    return circle_bounds.BoundCurve([circle_bounds.BoundLine(0.0, 1e-9)])

positive_bounds.gamma0 = circle_bounds.truncation_envelope = tiny
if hasattr(experiments_cli, "run"):
    experiments_cli.run(sys.argv[1:])
sys.exit(experiments_cli.main(sys.argv[1:]))
"""


def run(checkout, args, tiny, workdir):
    """((stdout, out file, stderr, exit code), peak RSS MB, minor faults)
    of one invocation, each output as its digest; stdout and stderr go
    through files in workdir."""
    out, streams = workdir / OUT, (workdir / "stdout", workdir / "stderr")
    if out.exists():
        out.unlink()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    # stdout block-buffered, as by default, so the exit path's flush counts
    env.pop("PYTHONUNBUFFERED", None)
    head = ["-c", _TINY_CURVE] if tiny else ["-m", "commbound.experiments_cli"]
    argv = args.split()
    if "--out" not in argv:
        argv += ["--out", OUT]
    with open(streams[0], "wb") as so, open(streams[1], "wb") as se:
        proc = subprocess.Popen(
            [sys.executable, *head, *argv],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=so,
            stderr=se)
        _, status, ru = os.wait4(proc.pid, 0)
    written = digest(out) if out.exists() else None
    stdout, stderr = map(digest, streams)
    return ((stdout, written, stderr, os.waitstatus_to_exitcode(status)),
            ru.ru_maxrss / 1024.0, ru.ru_minflt)


def digest(path):
    """SHA-256 of a file, read in blocks.  A child's ru_maxrss counts the
    peak RSS of this process, which it shares until exec, so holding a
    long output here would raise every later reading."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(2 ** 20):
            h.update(block)
    return h.digest()


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "commbound" / "experiments_cli.py").is_file():
        print("cli_cmp.py: no commbound sources under %s" % other,
              file=sys.stderr)
        return 2
    parts = ("stdout", "out", "stderr", "exit")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="cli-cmp-") as tmp:
        workdir = Path(tmp)
        for name, coeffs in COEFFICIENT_FILES.items():
            (workdir / name).write_text(json.dumps(coeffs))
        (workdir / "deep.json").write_text(DEEP_JSON)
        for args, tiny in ([(a, False) for a in INVOCATIONS]
                           + [(a, True) for a in VIOLATIONS]):
            mine, rss, faults = run(HERE, args, tiny, workdir)
            theirs, rss_other, faults_other = run(other, args, tiny, workdir)
            bad = [p for p, x, y in zip(parts, mine, theirs) if x != y]
            differ += bool(bad)
            print("%s exit %d  rss %6.2f vs %6.2f MB  minflt %6d vs %6d  %s%s%s"
                  % ("DIFF" if bad else "same", mine[3], rss, rss_other,
                     faults, faults_other, args,
                     " (curve 1e-9)" if tiny else "",
                     "  [%s]" % ", ".join(bad) if bad else ""), flush=True)
    print("%d of %d invocations differ"
          % (differ, len(INVOCATIONS) + len(VIOLATIONS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
