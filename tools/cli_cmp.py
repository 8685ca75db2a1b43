"""Compare this checkout's command line with another checkout's, byte for byte.

    python tools/cli_cmp.py OTHER_CHECKOUT

Runs a fixed list of `commbound` invocations in fresh interpreters, once
with this checkout's src/ on the import path and once with OTHER's, both in
one scratch directory that holds the coefficient files they read.  For each
invocation it compares stdout, the file written by --out, stderr and the
exit code, and prints one line: `same` or `DIFF` with the parts that
differ.  Exits 1 on any difference.  The two violation reports run with
every bound curve replaced by the constant 1e-9, so they exit 1 with a
replay payload.
"""

from __future__ import annotations

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
    # a_n = (-1)^n / n^2 for 1 <= |n| <= 500
    "deg500.json": {str(s * n): (-1) ** n / n ** 2
                    for n in range(1, 501) for s in (1, -1)},
}

INVOCATIONS = [
    "curve sqrt",
    "curve sqrt --format json",
    "curve sqrt --pedersen-only --format json",
    "validate sqrt",
    "probe",
    "probe --seed 1 --format json",
    "curve circle",
    "curve circle --format json",
    "curve circle --function bump",
    "curve circle --function bump --format json",
    "curve circle --steps 50 --function complex.json",
    "curve circle --steps 10 --function deg500.json",
    "curve circle --n-max 128 --steps 50",
    "curve circle --function bump --n-max 128 --format json",
    "lower circle",
    "lower circle --function triangle",
    "validate circle",
    "validate circle --function bump --seed 1 --samples 200",
    "validate circle --samples 200 --function complex.json",
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
sys.exit(experiments_cli.main(sys.argv[1:]))
"""


def run(checkout, args, tiny, workdir):
    """(stdout, out file, stderr, exit code) of one invocation."""
    out = workdir / OUT
    if out.exists():
        out.unlink()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    head = ["-c", _TINY_CURVE] if tiny else ["-m", "commbound.experiments_cli"]
    proc = subprocess.run([sys.executable, *head, *args.split(), "--out", OUT],
                          cwd=workdir, env=env, capture_output=True)
    written = out.read_bytes() if out.exists() else None
    return proc.stdout, written, proc.stderr, proc.returncode


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
        for args, tiny in ([(a, False) for a in INVOCATIONS]
                           + [(a, True) for a in VIOLATIONS]):
            mine = run(HERE, args, tiny, workdir)
            theirs = run(other, args, tiny, workdir)
            bad = [p for p, x, y in zip(parts, mine, theirs) if x != y]
            differ += bool(bad)
            print("%s exit %d  %s%s%s" % (
                "DIFF" if bad else "same", mine[3], args,
                " (curve 1e-9)" if tiny else "",
                "  [%s]" % ", ".join(bad) if bad else ""), flush=True)
    print("%d of %d invocations differ"
          % (differ, len(INVOCATIONS) + len(VIOLATIONS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
