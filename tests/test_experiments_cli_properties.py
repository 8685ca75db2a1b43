"""Property test of the command-line contract, run when hypothesis is
installed.

A command line drawn from the command table, with drawn flag values, a
drawn --config file and a drawn coefficient file, runs through main
in-process and ends in one of these outcomes, never in a traceback or a
warning:

- exit 0 with nothing on stderr;
- exit 1 with a violation payload in the output and one BOUND VIOLATION
  line on stderr;
- exit 2 with exactly one "commbound:" line on stderr;
- argparse's usage error (SystemExit 2) for a value of the wrong syntax.

Sizes that cost time come from small ranges, plus each cap and cap + 1.
When a cap itself is drawn, the builders and sweeps raise WorkStarted, so
the run ends either with exit 2 before any work or when the checks have
let every value through.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile
import warnings
from unittest import mock

import pytest

from commbound import circle_bounds, experiments_cli, matrix_lab, positive_bounds
from commbound.experiments_cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

COMMANDS = sorted(experiments_cli._COMMANDS, key=str)

# each option's values: valid ones, then ones its checks refuse
FLOATS = ["0", "-0.0", "5e-324", "1e-300", "1e-5", "0.25", "0.5", "1", "1.5",
          "1.99", "2", "-1", "nan", "inf", "-inf", "1e308", "1e400", "",
          "0x1p-2", "abc"]
BAD_INTS = ["", "1.5", "nan", "1e3", "x"]
DIMS = ["2", "2-4", "3,5", "2-3,8"]
BAD_DIMS = ["64", "2-64", "", " ", ",", "1", "0", "65", "2-1", "a", "-3",
            "2--3", "3-", "2-65", "1e9", "99999999999999999999"]
FUNCTIONS = ["triangle", "bump", "{coef}"]
BAD_FUNCTIONS = ["{tmp}/missing.json", "", "{tmp}"]
OUTS = ["-", "{tmp}/out.txt", "{link}"]
BAD_OUTS = ["{tmp}/no/such/dir/out.txt", "{tmp}"]
# JSON values of the wrong type for most options
WRONG_JSON = [None, True, False, "x", "", [], [1], {}, {"a": 1}, 2.5, -1,
              10 ** 400, 1e308]
CONFIG_TEXTS = ["[1, 2]", "not json", "", '{"seed": NaN}',
                '{"delta_min": 1e999}', '{"steps": 3, "steps": 4}',
                '{"out": {"a": 1}}', '{"bogus_key": 1}', "null"]
COEF_TEXTS = [
    '{"1": 0.5}', '{"1": 0.5, "-2": [0, 0.25], "3": 0.125}',
    '{"0": 0.3, "1": -0.5, "-1": -0.5}', '{"0": -0.0, "1": 0.0, "2": 1.0}',
    '{"1": 1e300}', '{"0": 1e-320}', '{"1": 1e6}']
BAD_COEF_TEXTS = [
    '{"1": NaN}', '{"1": Infinity}', '{"1": -Infinity}', '{"1": 1e999}',
    '{"1": 1e308, "-1": 1e308}', '{"1": %d}' % 10 ** 400, '{"1": 1, "1": 2}',
    '{"1": 1, "01": 2}', '{"1": "a"}', '{"1": true}', '{"1": null}',
    '{"1": [[1, 2], 3]}', '{"1": [1, 2, 3]}', '{"1": {"re": 1}}',
    '{"1.5": 1}', '{"0.0": 1}', '{"x": 1}', '{"": 1}', '{"65537": 1}',
    '[1, 2]', '{}', "not json", ""]
# the builders and sweeps the commands call
WORK = [(positive_bounds, "gamma0"), (positive_bounds, "pedersen_envelope"),
        (circle_bounds, "truncation_envelope"), (circle_bounds, "eta_lower"),
        (matrix_lab, "probe_max_commutator"), (matrix_lab, "sample_sweep")]
# the options whose size sets a run's cost; every drawn command line gives
# them, so no run falls back to a costly default
SIZES = ("steps", "n_max", "a_grid", "samples", "restarts", "dims", "dim")


class WorkStarted(Exception):
    pass


def small(key, name):
    """The valid range of an integer option that keeps one run well under a
    second."""
    return {"steps": (1, 300) if key[0] == "probe" else (2, 40),
            "n_max": (0, 6) if key[1] == "circle" else (1, 3000),
            "a_grid": (2, 100), "samples": (1, 12), "restarts": (1, 4),
            "dim": (2, 4), "seed": (-3, 3)}[name]


def valid_floats(key, name):
    if name == "delta":
        return ["1e-6", "0.25", "1"]
    return (["1e-5", "1e-3", "0.25", "1"] if key[1] == "sqrt"
            else ["0", "0.5", "1.5", "1.99"])


def case(argv, config=None, coef="{}", stream="normal", stop_work=False):
    return dict(argv=argv, config=config, coef=coef, stream=stream,
                stop_work=stop_work)


@st.composite
def cases(draw):
    """A command line, its files and its streams.  Half the cases draw
    valid values only, so that the commands run; the others mix in
    refused values, files and closed streams."""
    key = draw(st.sampled_from(COMMANDS))
    spec = experiments_cli._COMMANDS[key]
    clean = draw(st.booleans())
    caps = []

    def pick(good, bad):
        return draw(st.sampled_from(good if clean else good + bad))

    def size(name, as_text):
        lo, hi = small(key, name)
        # nine in ten draws from the small range
        pool = [st.integers(lo, hi) if clean else st.integers(lo - 3, hi)] * 9
        if name in spec.caps:
            pool.append(st.sampled_from([spec.caps[name],
                                         spec.caps[name] + 1][:2 - clean]))
        if name == "seed":
            pool.append(st.sampled_from([2 ** 64, 2 ** 200]))
        if as_text and not clean:
            pool.append(st.sampled_from(BAD_INTS))
        v = draw(st.one_of(pool))
        if v == spec.caps.get(name):
            caps.append(name)
        return str(v) if as_text else v

    def flag_value(name):
        opt = experiments_cli._OPTIONS[name]
        if name in ("dims", "function", "out"):
            return pick(*{"dims": (DIMS, BAD_DIMS),
                          "function": (FUNCTIONS, BAD_FUNCTIONS),
                          "out": (OUTS, BAD_OUTS)}[name])
        if "choices" in opt:
            return pick(list(opt["choices"]), ["bogus"])
        if opt.get("type") is float:
            return pick(valid_floats(key, name), FLOATS)
        return size(name, as_text=True)

    def json_value(name):
        opt = experiments_cli._OPTIONS[name]
        if not clean and draw(st.booleans()):
            return draw(st.sampled_from(WRONG_JSON))
        if "action" in opt:
            return draw(st.booleans())
        if opt.get("type") is float:
            return float(pick(valid_floats(key, name), FLOATS[:-3]))
        if opt.get("type") is int:
            return size(name, as_text=False)
        return flag_value(name)

    argv = [w for w in key if w]
    for name in spec.defaults:
        if name in SIZES or draw(st.booleans()):
            if "action" in experiments_cli._OPTIONS[name]:
                argv.append(experiments_cli._flag(name))
            else:
                argv.append("%s=%s" % (experiments_cli._flag(name),
                                       flag_value(name)))
    config = None
    if draw(st.booleans()):
        if not clean and draw(st.booleans()):
            config = draw(st.sampled_from(CONFIG_TEXTS))
        else:
            names = draw(st.lists(st.sampled_from(list(spec.defaults)),
                                  max_size=4, unique=True))
            config = json.dumps({n: json_value(n) for n in names})
        argv.append("--config={config}")
    coef = pick(COEF_TEXTS, BAD_COEF_TEXTS)
    stream = "normal" if clean else draw(st.sampled_from(
        ["normal", "normal", "closed", "broken"]))
    return case(argv, config, coef, stream, stop_work=bool(caps))


class BrokenPipe:
    """A stream whose every write and flush fails, as a closed pipe does."""

    def __init__(self):
        self.tried = False

    def write(self, text):
        self.tried = True
        raise BrokenPipeError(32, "Broken pipe")

    writelines = write

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def run(c, tmp):
    """main on the case: its code, with "usage" for argparse's SystemExit 2
    and "work" for WorkStarted; stderr; the output's text, from stdout or
    the --out file; and whether any stream was written."""
    paths = {"{tmp}": str(tmp), "{coef}": str(tmp / "coef.json"),
             "{config}": str(tmp / "config.json"), "{link}": str(tmp / "link")}

    def fill(text):
        for k, v in paths.items():
            text = text.replace(k, v)
        return text

    (tmp / "coef.json").write_text(c["coef"])
    if c["config"] is not None:
        (tmp / "config.json").write_text(fill(c["config"]))
    (tmp / "target.txt").write_text("old\n")
    os.symlink(tmp / "target.txt", tmp / "link")
    argv = [fill(a) for a in c["argv"]]
    out, err = io.StringIO(), io.StringIO()
    if c["stream"] == "broken":
        out, err = BrokenPipe(), BrokenPipe()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(
            None if c["stream"] == "closed" else out))
        stack.enter_context(contextlib.redirect_stderr(err))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        if c["stop_work"]:
            for module, name in WORK:
                stack.enter_context(mock.patch.object(
                    module, name, side_effect=WorkStarted))
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = "usage"
        except WorkStarted:
            code = "work"
    assert not [str(w.message) for w in caught]
    if c["stream"] == "broken":
        return code, "", "", out.tried or err.tried
    target = [a.split("=", 1)[1] for a in argv if a.startswith("--out=")]
    text = out.getvalue()
    if target and target[-1] != "-" and os.path.isfile(target[-1]):
        with open(target[-1]) as fh:
            text = fh.read()
    return code, err.getvalue(), text, True


def check(c):
    """Run the case in a new directory and check its outcome; returns the
    code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        code, err, text, wrote = run(c, tmp)
        link_kept = os.path.islink(tmp / "link")
    if c["stream"] == "broken":
        # every write fails; the code is 0 only when nothing was written
        assert code in (0, 2, "usage", "work")
        assert (code == 0) == (not wrote) or code in ("usage", "work")
    elif code == 0:
        assert err == "" and link_kept
        assert "--out={link}" not in c["argv"] or text != "old\n"
    elif code == 1:
        assert json.loads(text)["status"] == "violation"
        assert err.count("\n") == 1 and " BOUND VIOLATION (" in err
    elif code == 2:
        assert err.startswith("commbound: ") and err.count("\n") == 1
    elif code == "usage":
        last = err.splitlines()[-1]
        assert last.startswith("commbound") and ": error: " in last
    else:
        assert code == "work" and c["stop_work"] and err == ""
    return code


SMALL_SQRT = ["--steps=3", "--n-max=64"]
BIG = '{"1": 1e6}'
# each earlier break, and the values that pass their type but not their
# command's check, with the code each must end in
EXAMPLES = [
    # a coefficient file of size 1e6 once failed the seam check
    (case(["curve", "circle", "--function={coef}", "--steps=5", "--n-max=2"],
          coef=BIG), 0),
    # an l1 sum that overflows exits 2 up front
    (case(["curve", "circle", "--function={coef}", "--steps=5"],
          coef='{"1": 1e308, "-1": 1e308}'), 2),
    # stdout closed at start
    (case(["curve", "sqrt", *SMALL_SQRT], stream="closed"), 2),
    # --out through a symlink writes the target and keeps the link
    (case(["curve", "sqrt", *SMALL_SQRT, "--out={link}"]), 0),
    # stdout and stderr one closed pipe
    (case(["curve", "sqrt", *SMALL_SQRT], stream="broken"), 2),
    (case(["validate", "sqrt", "--samples=0"]), 2),
    (case(["probe", "--delta=0"]), 2),
    (case(["probe", "--delta=1.5"]), 2),
    (case(["curve", "circle", "--config={config}"], config="[1, 2]"), 2),
    # admitted: the -1e-8 margin threshold is absolute, so a size-1e6
    # function gives a false violation at seed 0, index 434
    (case(["validate", "circle", "--function={coef}", "--samples=435",
           "--out={tmp}/r.json"], coef=BIG), 1),
]


def with_examples(test):
    for c, _ in EXAMPLES:
        test = example(c)(test)
    return test


@given(cases())
@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=list(HealthCheck))
@with_examples
def test_every_command_line_ends_in_a_contract_outcome(c):
    hypothesis.event("%s exit %s" % (c["argv"][0], check(c)))


@pytest.mark.parametrize("c, code", EXAMPLES)
def test_explicit_examples_end_in_their_code(c, code):
    assert check(c) == code
