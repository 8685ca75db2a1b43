"""End-to-end tests for the command line interface."""

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import commbound as cb
from commbound import experiments_cli
from commbound.experiments_cli import main

CELL = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def refuse_work(monkeypatch, why):
    """Make every builder and sweep the commands call raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the %s" % why)

    for module, name in ((cb.positive_bounds, "gamma0"),
                         (cb.positive_bounds, "pedersen_envelope"),
                         (cb.circle_bounds, "truncation_envelope"),
                         (cb.circle_bounds, "eta_lower"),
                         (cb.matrix_lab, "probe_max_commutator"),
                         (cb.matrix_lab, "sample_sweep")):
        monkeypatch.setattr(module, name, refuse)


def read_rows(path):
    text = path.read_text()
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestCurveSqrt:
    def test_header_and_cell_format(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main([
            "curve", "sqrt", "--delta-min", "0.25", "--delta-max", "1.0",
            "--steps", "4", "--n-max", "200", "--a-grid", "64",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["delta", "gamma0", "sqrt_delta", "ratio"]
        assert len(rows) == 4
        for row in rows:
            assert len(row) == 4
            for cell in row:
                assert CELL.match(cell), cell

    def test_grid_endpoints_and_pinch(self, tmp_path):
        out = tmp_path / "curve.csv"
        main([
            "curve", "sqrt", "--delta-min", "0.25", "--delta-max", "1.0",
            "--steps", "4", "--n-max", "200", "--a-grid", "64",
            "--out", str(out),
        ])
        _, rows = read_rows(out)
        assert float(rows[0][0]) == 0.25 and float(rows[-1][0]) == 1.0
        assert rows[0][1] == "5.000000000000e-01"
        assert rows[0][3] == "1.000000000000e+00"
        assert rows[-1][3] == "1.000000000000e+00"

    def test_unix_line_endings(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["curve", "sqrt", "--steps", "5", "--n-max", "100",
              "--a-grid", "32", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_ratio_bounded_at_defaults(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["curve", "sqrt", "--steps", "60", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        cap = 2.0 / math.sqrt(math.pi) + 0.05
        for row in rows:
            assert 1.0 - 1e-12 <= float(row[3]) <= cap

    def test_pedersen_only_stays_above_sqrt(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main([
            "curve", "sqrt", "--pedersen-only", "--steps", "40",
            "--n-max", "5000", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_rows(out)
        for row in rows:
            assert float(row[1]) >= float(row[2]) - 1e-12

    def test_json_format_lists_segments(self, tmp_path):
        out = tmp_path / "curve.json"
        rc = main([
            "curve", "sqrt", "--format", "json", "--n-max", "200",
            "--a-grid", "64", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        segs = doc["segments"]
        keys = ("delta_start", "delta_end", "m", "b", "provenance")
        for seg in segs:
            assert set(seg) >= set(keys)
        # each object is a row of the curve's segments, its floats exact
        assert [tuple(seg[k] for k in keys) for seg in segs] == \
            cb.gamma0(200, 64).segments(1e-3, 1.0)
        # contiguous cover of the requested grid
        for a, b in zip(segs, segs[1:]):
            assert a["delta_end"] == b["delta_start"]
        assert segs[0]["delta_start"] == 1e-3
        assert segs[-1]["delta_end"] == 1.0

    def test_invalid_range_exits_two(self, capsys):
        rc = main(["curve", "sqrt", "--delta-min", "0.9", "--delta-max", "0.5"])
        assert rc == 2
        assert "commbound:" in capsys.readouterr().err


class TestCurveCircle:
    def test_rows_keep_dominance(self, tmp_path):
        out = tmp_path / "circle.csv"
        rc = main([
            "curve", "circle", "--function", "triangle", "--steps", "25",
            "--n-max", "8", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["delta", "upper", "lower", "active_line_provenance"]
        for row in rows:
            assert float(row[1]) >= float(row[2]) - 1e-8
            assert row[3].startswith("truncation") or row[3].startswith("constant")

    def test_bump_target_works_from_estimates(self, tmp_path):
        out = tmp_path / "circle.csv"
        rc = main([
            "curve", "circle", "--function", "bump", "--steps", "8",
            "--n-max", "4", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_rows(out)
        for row in rows:
            assert float(row[1]) >= float(row[2]) - 1e-8

    def test_polynomial_from_json_file(self, tmp_path):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"1": [0.5, 0.0], "-1": [0.5, 0.0]}))
        out = tmp_path / "circle.csv"
        rc = main([
            "curve", "circle", "--function", str(spec), "--steps", "10",
            "--n-max", "3", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_rows(out)
        # cos has folk slope 1, so the upper curve never exceeds delta there
        for row in rows:
            assert float(row[1]) <= float(row[0]) + 1e-12

    def test_bare_real_coefficients_match_pairs(self, tmp_path):
        rows = []
        for name, spec in (("pairs", {"1": [0.5, 0.0], "-1": [0.5, 0.0]}),
                           ("bare", {"1": 0.5, "-1": 0.5})):
            path = tmp_path / (name + ".json")
            path.write_text(json.dumps(spec))
            out = tmp_path / (name + ".csv")
            rc = main(["curve", "circle", "--function", str(path),
                       "--steps", "6", "--n-max", "3", "--out", str(out)])
            assert rc == 0
            rows.append(out.read_bytes())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("spec", [
        {"1": [0.5]},
        {"1": [0.5, 0.0, 1.0]},
        {"1": "0.5"},
        {"1": [0.5, "0"]},
        {"1": True},
        {"one": 0.5},
        {"1.5": 0.5},
        [0.5, 0.5],
        "cos",
    ], ids=["short-list", "long-list", "string", "string-part", "bool",
            "word-key", "fraction-key", "array", "string-doc"])
    def test_malformed_function_file_exits_two(self, spec, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        for command in (["curve", "circle"], ["lower", "circle"],
                        ["validate", "circle"]):
            rc = main(command + ["--function", str(path), "--out",
                                 str(tmp_path / "out.txt")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("commbound: ") and err.count("\n") == 1
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("text", [
        '{"1": NaN, "-1": 0.5}', '{"1": Infinity}', '{"-1": 0.5, "1": -Infinity}',
        '{"1": [0.5, NaN]}', '{"1": 1%s}' % ("0" * 400),
    ], ids=["nan", "inf", "minus-inf", "nan-part", "huge-int"])
    def test_nonfinite_coefficient_exits_two(self, text, tmp_path, capsys):
        # json reads NaN and the infinities as floats; lower circle printed
        # nan bounds, and the other commands blamed the intercept
        path = tmp_path / "bad.json"
        path.write_text(text)
        for command in (["curve", "circle", "--steps", "3"],
                        ["lower", "circle", "--steps", "3"],
                        ["validate", "circle", "--samples", "2"]):
            rc = main(command + ["--function", str(path), "--out",
                                 str(tmp_path / "out.txt")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("commbound: ") and err.count("\n") == 1
            assert "coefficient for order 1 must be finite" in err
        assert not (tmp_path / "out.txt").exists()

    def test_order_above_cap_exits_two(self, tmp_path, capsys):
        cap = experiments_cli.MAX_ORDER
        for order in (cap + 1, -(cap + 1)):
            path = tmp_path / "high.json"
            path.write_text(json.dumps({str(order): 1.0}))
            rc = main(["curve", "circle", "--function", str(path), "--steps",
                       "3", "--out", str(tmp_path / "out.csv")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("commbound: ") and err.count("\n") == 1
            assert str(cap) in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("text", [
        '{"1": 0.5, "-1": 0.5, "1": 0.25}',
        '{"1": 0.5, "01": 0.25, "-1": 0.5}',
        '{"1": 0.5, "+1": 0.25}',
        '{" 1": 0.5, "1": 0.25}',
    ], ids=["same-key", "leading-zero", "plus-sign", "space"])
    def test_repeated_order_exits_two(self, text, tmp_path, capsys):
        # json keeps the last of two equal keys, and int() equates "1" with
        # "01", "+1" and " 1": either way one coefficient was dropped
        path = tmp_path / "twice.json"
        path.write_text(text)
        for command in (["curve", "circle", "--steps", "3"],
                        ["lower", "circle", "--steps", "3"],
                        ["validate", "circle", "--samples", "2"]):
            rc = main(command + ["--function", str(path), "--out",
                                 str(tmp_path / "out.txt")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err == ("commbound: %s: Fourier order 1 is given more "
                           "than once\n" % path)
        assert not (tmp_path / "out.txt").exists()

    def test_missing_function_file_exits_two(self, capsys, tmp_path):
        rc = main([
            "curve", "circle", "--function", str(tmp_path / "absent.json"),
            "--steps", "5",
        ])
        assert rc == 2
        capsys.readouterr()


class TestLowerCircle:
    def test_bump_lower_curve_shape(self, tmp_path):
        out = tmp_path / "lower.csv"
        rc = main([
            "lower", "circle", "--function", "bump", "--steps", "40",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["delta", "lower"]
        vals = [float(r[1]) for r in rows]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) <= 1e-9

    def test_triangle_matches_library(self, tmp_path, triangle):
        out = tmp_path / "lower.csv"
        main(["lower", "circle", "--function", "triangle", "--steps", "12",
              "--out", str(out)])
        _, rows = read_rows(out)
        for row in rows:
            want = cb.eta_lower(triangle, float(row[0]))
            assert abs(float(row[1]) - want) <= 1e-12


    def test_bump_lower_equals_curve_lower_column(self, tmp_path):
        curve, lower = tmp_path / "curve.csv", tmp_path / "lower.csv"
        assert main(["curve", "circle", "--function", "bump",
                     "--out", str(curve)]) == 0
        assert main(["lower", "circle", "--function", "bump",
                     "--out", str(lower)]) == 0
        _, curve_rows = read_rows(curve)
        _, lower_rows = read_rows(lower)
        assert len(curve_rows) == 500
        assert [(r[0], r[2]) for r in curve_rows] == [tuple(r) for r in lower_rows]


class TestValidate:
    def test_sqrt_report_structure(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "validate", "sqrt", "--samples", "12", "--dims", "2-4",
            "--seed", "3", "--n-max", "300", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["status"] == "ok" if "status" in doc else doc["violations"] == 0
        assert doc["samples"] == 12
        assert doc["dims"] == [2, 3, 4]
        assert doc["seed"] == 3
        assert doc["spectrum_mode"] == "both"
        assert len(doc["records"]) == 12
        assert doc["min_margin"] > 0.0
        margins = [r["margin"] for r in doc["records"]]
        k = int(np.argmin(margins))
        assert doc["min_margin"] == margins[k]
        assert doc["min_margin_index"] == k

    def test_circle_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "validate", "circle", "--samples", "10", "--dims", "2,3",
            "--seed", "1", "--n-max", "8", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == 0
        assert doc["function"] == "triangle"
        assert doc["dims"] == [2, 3]

    def test_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        payload = {"seed": 0, "index": 2, "dim": 3, "role": "positive",
                   "spectrum_mode": "uniform", "delta": 0.5, "measured": 0.9,
                   "bound": 0.1, "margin": -0.8, "x": [], "a": []}

        def boom(*args, **kwargs):
            raise cb.ViolationError("bound violated", payload)

        monkeypatch.setattr(cb.matrix_lab, "sample_sweep", boom)
        out = tmp_path / "report.json"
        rc = main([
            "validate", "sqrt", "--samples", "5", "--dims", "2-3",
            "--n-max", "200", "--out", str(out),
        ])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["status"] == "violation"
        assert doc["violation"]["margin"] == -0.8
        assert "violated" in capsys.readouterr().err

    def test_dims_list_syntax(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "validate", "sqrt", "--samples", "6", "--dims", "2,5",
            "--n-max", "200", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dims"] == [2, 5]
        assert sorted({r["dim"] for r in doc["records"]}) == [2, 5]

    @pytest.mark.parametrize("dims", ["2-3000000", "2-1000000000",
                                      "1000000000-2000000000", "1-4",
                                      "2,3-100", "65", "2,1"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_dims_range_checked_before_expansion(self, dims, via, tmp_path,
                                                 capsys, monkeypatch):
        refuse_work(monkeypatch, "dims check")
        argv = ["validate", "sqrt", "--samples", "2"]
        if via == "flag":
            argv += ["--dims", dims]
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"dims": dims}))
            argv += ["--config", str(cfg)]
        tracemalloc.start()
        try:
            rc = main(argv + ["--out", str(tmp_path / "out.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("commbound: ") and err.count("\n") == 1
        assert "dimension must lie in [2, 64]" in err
        assert peak < 2 ** 20
        assert not (tmp_path / "out.json").exists()

    def test_bad_dims_exit_two(self, capsys):
        rc = main(["validate", "sqrt", "--samples", "4", "--dims", "8-2"])
        assert rc == 2
        capsys.readouterr()


class TestProbeCommand:
    def test_row_contents(self, tmp_path):
        out = tmp_path / "probe.csv"
        rc = main([
            "probe", "--delta", "0.25", "--dim", "2", "--steps", "300",
            "--restarts", "2", "--seed", "3", "--n-max", "200",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["delta", "best", "sqrt_delta", "gap_sqrt", "gamma0",
                          "gap_gamma0", "iterations", "restarts"]
        assert len(rows) == 1
        row = rows[0]
        assert float(row[0]) == 0.25
        assert float(row[2]) == 0.5
        best = float(row[1])
        assert abs(float(row[3]) - (0.5 - best)) <= 1e-12
        assert float(row[5]) >= -1e-9
        assert row[6] == "300" and row[7] == "2"

    def test_flat_spectrum_falls_back_to_the_random_a(self, tmp_path):
        # this one-step climb ends on an H whose clipped spectrum is flat,
        # so there is no swap pair and [H, A] = 0 for every A
        out = tmp_path / "probe.csv"
        rc = main(["probe", "--restarts", "1", "--steps", "1", "--seed",
                   "15", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert float(rows[0][header.index("best")]) == 0.0

    @pytest.mark.parametrize("dim", ["1", "65", "70"])
    def test_dim_checked_before_gamma0(self, dim, tmp_path, capsys,
                                       monkeypatch):
        refuse_work(monkeypatch, "dim check")
        out = tmp_path / "probe.csv"
        assert main(["probe", "--dim", dim, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "commbound: dimension must lie in [2, 64]\n"
        assert not out.exists()


class TestSizeCaps:
    SQRT = experiments_cli.MAX_SQRT_LINES
    CIRCLE = experiments_cli.MAX_CIRCLE_N
    GRID = experiments_cli.MAX_GRID_STEPS
    SAMPLES = experiments_cli.MAX_SAMPLES
    RESTARTS = experiments_cli.MAX_RESTARTS
    PROBE_STEPS = experiments_cli.MAX_PROBE_STEPS
    CAPPED = [
        (["curve", "sqrt", "--n-max"], SQRT),
        (["curve", "sqrt", "--a-grid"], SQRT),
        (["validate", "sqrt", "--n-max"], SQRT),
        (["probe", "--n-max"], SQRT),
        (["curve", "circle", "--n-max"], CIRCLE),
        (["validate", "circle", "--n-max"], CIRCLE),
        (["curve", "sqrt", "--steps"], GRID),
        (["curve", "circle", "--steps"], GRID),
        (["lower", "circle", "--steps"], GRID),
        (["validate", "sqrt", "--samples"], SAMPLES),
        (["validate", "circle", "--samples"], SAMPLES),
        (["probe", "--restarts"], RESTARTS),
        (["probe", "--steps"], PROBE_STEPS),
    ]

    @pytest.mark.parametrize("argv, cap", CAPPED)
    def test_cap_plus_one_exits_two_before_any_work(self, argv, cap, tmp_path,
                                                    capsys, monkeypatch):
        refuse_work(monkeypatch, "size check")
        out = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            rc = main(argv + [str(cap + 1), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("commbound: ") and err.count("\n") == 1
        assert "%s %d exceeds the cap %d" % (argv[-1], cap + 1, cap) in err
        assert peak < 2 ** 20
        assert not out.exists()

    def test_cap_applies_to_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_max": self.CIRCLE + 1}))
        assert main(["validate", "circle", "--config", str(cfg)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, cap", [
        (["validate", "sqrt"], "samples", SAMPLES),
        (["lower", "circle"], "steps", GRID),
        (["probe"], "restarts", RESTARTS),
        (["probe"], "steps", PROBE_STEPS),
    ])
    def test_size_caps_apply_to_config_values(self, command, key, cap,
                                              tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: cap + 1}))
        assert main(command + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "exceeds the cap %d" % cap in err

    @pytest.mark.parametrize("argv, cap", CAPPED)
    def test_values_at_the_caps_resolve(self, argv, cap):
        args = experiments_cli.build_parser().parse_args(argv + [str(cap)])
        cfg = experiments_cli._resolve(args)
        assert getattr(cfg, argv[-1][2:].replace("-", "_")) == cap

    def test_values_at_the_caps_are_accepted(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curve", "sqrt", "--n-max", str(self.SQRT), "--a-grid",
                     str(self.SQRT), "--steps", "3", "--out", str(out)]) == 0
        rows = read_rows(out)[1]
        assert float(rows[-1][1]) == 1.0


# a value of the wrong JSON type for each option
WRONG = {"function": ["bump"], "delta_min": "0.1", "delta_max": True,
         "steps": 2.5, "n_max": "16", "a_grid": None, "pedersen_only": 1,
         "samples": [10], "dims": [2, 3], "seed": 1.0,
         "spectrum_mode": "bogus", "delta": "0.25", "dim": False,
         "restarts": {}, "out": 3, "fmt": "xml"}
# (command words, option) for every option of every command
EVERY_OPTION = [([c for c in key if c], name)
                for key, spec in experiments_cli._COMMANDS.items()
                for name in spec.defaults]


class TestParserSurface:
    """Each command's options as (flag, dest, type, choices, action), as
    the hand-written parser defined them before the command table."""

    S, T, H = "_StoreAction", "_StoreTrueAction", "_HelpAction"
    OUTPUT = [("--config", "config", None, None, S),
              ("--format", "fmt", None, ("csv", "json"), S),
              ("--out", "out", None, None, S),
              ("-h", "help", None, None, H)]
    SURFACE = {
        ("curve", "sqrt"): OUTPUT + [
            ("--a-grid", "a_grid", int, None, S),
            ("--delta-max", "delta_max", float, None, S),
            ("--delta-min", "delta_min", float, None, S),
            ("--n-max", "n_max", int, None, S),
            ("--pedersen-only", "pedersen_only", None, None, T),
            ("--steps", "steps", int, None, S)],
        ("curve", "circle"): OUTPUT + [
            ("--delta-max", "delta_max", float, None, S),
            ("--delta-min", "delta_min", float, None, S),
            ("--function", "function", None, None, S),
            ("--n-max", "n_max", int, None, S),
            ("--steps", "steps", int, None, S)],
        ("lower", "circle"): OUTPUT + [
            ("--delta-max", "delta_max", float, None, S),
            ("--delta-min", "delta_min", float, None, S),
            ("--function", "function", None, None, S),
            ("--steps", "steps", int, None, S)],
        ("validate", "sqrt"): OUTPUT + [
            ("--dims", "dims", None, None, S),
            ("--n-max", "n_max", int, None, S),
            ("--samples", "samples", int, None, S),
            ("--seed", "seed", int, None, S),
            ("--spectrum-mode", "spectrum_mode", None,
             ("uniform", "atoms", "both"), S)],
        ("validate", "circle"): OUTPUT + [
            ("--dims", "dims", None, None, S),
            ("--function", "function", None, None, S),
            ("--n-max", "n_max", int, None, S),
            ("--samples", "samples", int, None, S),
            ("--seed", "seed", int, None, S)],
        ("probe", None): OUTPUT + [
            ("--delta", "delta", float, None, S),
            ("--dim", "dim", int, None, S),
            ("--n-max", "n_max", int, None, S),
            ("--restarts", "restarts", int, None, S),
            ("--seed", "seed", int, None, S),
            ("--steps", "steps", int, None, S)],
    }

    @staticmethod
    def subcommands(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    def test_every_command_keeps_its_options(self):
        found = {}
        for command, cp in self.subcommands(
                experiments_cli.build_parser()).items():
            targets = ({None: cp} if command == "probe"
                       else self.subcommands(cp))
            for target, tp in targets.items():
                found[command, target] = sorted(
                    (a.option_strings[0], a.dest, a.type,
                     tuple(a.choices) if a.choices else None,
                     type(a).__name__) for a in tp._actions)
        assert found == {key: sorted(options)
                         for key, options in self.SURFACE.items()}

    @pytest.mark.parametrize("key", list(experiments_cli._COMMANDS))
    def test_every_help_screen_shows_each_option_help(self, key, capsys):
        with pytest.raises(SystemExit) as done:
            main([c for c in key if c] + ["--help"])
        assert done.value.code == 0
        # argparse wraps the screen to the terminal width
        screen = " ".join(capsys.readouterr().out.split())
        for name in experiments_cli._COMMANDS[key].defaults:
            opt = experiments_cli._OPTIONS[name]
            if "help" not in opt:
                continue
            metavar = ("{%s}" % ",".join(opt["choices"]) if "choices" in opt
                       else name.upper())
            assert "%s %s %s" % (experiments_cli._flag(name), metavar,
                                 opt["help"]) in screen, name


class TestAGridOnlyOnCurveSqrt:
    """--a-grid shapes only the JSON segments of curve sqrt; validate sqrt
    and probe, on which it had no effect, refuse it."""

    @pytest.mark.parametrize("command", [["validate", "sqrt"], ["probe"]])
    def test_flag_exits_two(self, command, capsys, monkeypatch):
        refuse_work(monkeypatch, "parse")
        with pytest.raises(SystemExit) as done:
            main(command + ["--a-grid", "64"])
        assert done.value.code == 2
        assert "unrecognized arguments: --a-grid 64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["validate", "sqrt"], ["probe"]])
    def test_config_key_exits_two(self, command, tmp_path, capsys,
                                  monkeypatch):
        refuse_work(monkeypatch, "config check")
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"a_grid": 64}))
        assert main(command + ["--config", str(cfgf)]) == 2
        assert capsys.readouterr().err == (
            "commbound: unknown config keys for %s: a_grid\n"
            % " ".join(command))

    def test_curve_sqrt_segments_follow_the_grid(self, tmp_path):
        tangents = []
        for a_grid in ("3", "64"):
            out = tmp_path / ("%s.json" % a_grid)
            assert main(["curve", "sqrt", "--format", "json", "--n-max",
                         "200", "--a-grid", a_grid, "--delta-min", "0.2",
                         "--out", str(out)]) == 0
            tangents.append({s["provenance"] for s in
                             json.loads(out.read_text())["segments"]
                             if s["provenance"].startswith("tangent")})
        assert tangents[0] == {"tangent a=0.25", "tangent a=0.625"}
        assert len(tangents[1]) > 3


class TestConfigPrecedence:
    def test_config_file_supplies_values(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"steps": 7, "n_max": 100, "a_grid": 32}))
        out = tmp_path / "curve.csv"
        rc = main(["curve", "sqrt", "--config", str(cfgf), "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 7

    def test_flags_override_config(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"steps": 7, "n_max": 100, "a_grid": 32}))
        out = tmp_path / "curve.csv"
        rc = main(["curve", "sqrt", "--config", str(cfgf), "--steps", "5",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 5

    @pytest.mark.parametrize("command, config", [
        (["curve", "sqrt"], {"steps": [1]}),
        (["curve", "sqrt"], {"steps": 2.9}),
        (["curve", "sqrt"], {"steps": True}),
        (["curve", "sqrt"], {"n_max": "100"}),
        (["curve", "sqrt"], {"pedersen_only": "false"}),
        (["curve", "sqrt"], {"pedersen_only": 0}),
        (["curve", "sqrt"], {"delta_min": "0.1"}),
        (["curve", "sqrt"], {"delta_max": False}),
        (["curve", "sqrt"], {"delta_max": 10 ** 400}),
        (["curve", "sqrt"], {"steps": None}),
        (["curve", "sqrt"], {"fmt": "xml"}),
        (["curve", "sqrt"], {"out": 3}),
        (["curve", "circle"], {"function": ["bump"]}),
        (["validate", "sqrt"], {"dims": [2, 3]}),
        (["validate", "sqrt"], {"spectrum_mode": "gaussian"}),
        (["probe"], {"delta": [0.25]}),
    ] + [(command, {name: WRONG[name]}) for command, name in EVERY_OPTION],
        ids=["int-list", "int-fraction", "int-bool", "int-string",
             "bool-string", "bool-int", "float-string", "float-bool",
             "float-overflow", "int-null", "fmt-choice", "out-int",
             "function-list", "dims-list", "mode-choice", "probe-delta-list"]
        + ["-".join(command + [name]) for command, name in EVERY_OPTION])
    def test_config_value_of_wrong_type_exits_two(self, command, config,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        refuse_work(monkeypatch, "config check")
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps(config))
        rc = main(command + ["--config", str(cfgf),
                             "--out", str(tmp_path / "out.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("commbound: config key %s must be "
                              % next(iter(config)))
        assert err.count("\n") == 1
        assert not (tmp_path / "out.txt").exists()

    def test_spectrum_mode_names_its_choices(self, tmp_path, capsys,
                                             monkeypatch):
        refuse_work(monkeypatch, "config check")
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"spectrum_mode": "bogus"}))
        assert main(["validate", "sqrt", "--config", str(cfgf)]) == 2
        assert capsys.readouterr().err == (
            "commbound: config key spectrum_mode must be one of uniform, "
            "atoms, both, got \"bogus\"\n")

    @pytest.mark.parametrize("command", [["curve", "sqrt"], ["curve", "circle"],
                                         ["lower", "circle"], ["probe"]])
    @pytest.mark.parametrize("dims", ["2-8", "1-100"])
    def test_dims_is_a_config_key_of_validate_only(self, command, dims,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        refuse_work(monkeypatch, "config check")
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"dims": dims}))
        assert main(command + ["--config", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("commbound: unknown config keys for %s"
                              % command[0])
        assert err.endswith(": dims\n") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["probe"], ["curve", "sqrt"]])
    def test_unknown_key_message_names_the_command(self, command, tmp_path,
                                                   capsys, monkeypatch):
        refuse_work(monkeypatch, "config check")
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"dims": "2-8"}))
        assert main(command + ["--config", str(cfgf)]) == 2
        assert capsys.readouterr().err == (
            "commbound: unknown config keys for %s: dims\n" % " ".join(command))

    def test_config_types_accepted(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"steps": 4, "n_max": 100, "a_grid": 32,
                                    "delta_min": 1, "delta_max": 1.0,
                                    "pedersen_only": True, "fmt": "csv"}))
        out = tmp_path / "curve.csv"
        assert main(["curve", "sqrt", "--config", str(cfgf), "--delta-min",
                     "0.25", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"stepz": 7}))
        rc = main(["curve", "sqrt", "--config", str(cfgf)])
        assert rc == 2
        capsys.readouterr()


class TestDeterminism:
    def test_validate_runs_are_byte_identical(self, tmp_path):
        args = ["validate", "sqrt", "--samples", "30", "--dims", "2-4",
                "--seed", "42", "--n-max", "300"]
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            cmd = [sys.executable, "-m", "commbound.experiments_cli"] + args + ["--out", str(path)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ))
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestStdout:
    def test_dash_writes_to_stdout(self, capsys):
        rc = main(["curve", "sqrt", "--steps", "3", "--n-max", "100",
                   "--a-grid", "32", "--out", "-"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert captured.startswith("delta,gamma0,sqrt_delta,ratio\n")
        assert len(captured.strip().split("\n")) == 4


class TestCsvBlocks:
    ARGV = [
        ["curve", "sqrt", "--steps", "50", "--n-max", "200", "--a-grid", "64"],
        ["curve", "circle", "--steps", "50", "--n-max", "2",
         "--delta-max", "1.999"],
        ["lower", "circle", "--steps", "50", "--function", "triangle"],
        ["validate", "sqrt", "--samples", "20", "--n-max", "200",
         "--format", "csv"],
    ]

    @pytest.mark.parametrize("argv", ARGV)
    def test_blocks_give_the_same_bytes(self, argv, tmp_path, monkeypatch,
                                        capsys):
        one = tmp_path / "one.csv"
        assert main(argv + ["--out", str(one)]) == 0
        monkeypatch.setattr(experiments_cli, "_CSV_ROWS", 7)
        many = tmp_path / "many.csv"
        assert main(argv + ["--out", str(many)]) == 0
        assert many.read_bytes() == one.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out.encode() == one.read_bytes()

    def test_failed_write_leaves_no_file(self, tmp_path):
        def chunks():
            yield "delta,lower\n"
            raise RuntimeError("row 2")

        out = tmp_path / "out.csv"
        out.write_text("old\n")
        with pytest.raises(RuntimeError):
            experiments_cli._atomic_write(str(out), chunks())
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_long_curve_is_written_in_blocks(self, tmp_path):
        # 10^5 rows: 47.0 MB when the curve was evaluated on the whole grid
        # and every row kept as cells before one join, 7.7 MB in blocks
        out = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            rc = main(["curve", "sqrt", "--steps", "100000", "--n-max", "200",
                       "--a-grid", "64", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 12 * 10 ** 6
        assert out.read_text().count("\n") == 100001


def dumps_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonBlocks:
    """Every JSON report goes through one block writer whose bytes must be
    json.dumps(indent=2, sort_keys=True) of the whole document."""

    ITEMS = [
        {"seed": 3, "dim": 2, "delta": 0.1, "measured": 1e-300,
         "bound": None, "margin": -0.0},
        {"b": float("inf"), "m": float("nan"), "provenance": 'q "a",\nbé'},
        {},
        [0.0, 2.5e-17],
        (1, "x"),
        [],
    ]

    @pytest.mark.parametrize("key", ["aa", "records", "rows", "zz"])
    @pytest.mark.parametrize("count", [0, 1, 6, 20])
    @pytest.mark.parametrize("rows", [7, 2 ** 14])
    def test_writer_equals_dumps(self, key, count, rows, monkeypatch):
        monkeypatch.setattr(experiments_cli, "_CSV_ROWS", rows)
        items = [self.ITEMS[i % len(self.ITEMS)] for i in range(count)]
        head = {"schema_version": 1, "curve": "label", "columns": ["a", "b"],
                "nested": {"x": [[1.0, -2.0]]}}
        doc = dict(head, **{key: items})
        want = dumps_text(doc)
        assert "".join(experiments_cli._json_chunks(doc, key)) == want
        streamed = dict(head, **{key: iter(items)})
        assert "".join(experiments_cli._json_chunks(streamed, key)) == want
        assert "".join(experiments_cli._json_chunks(doc)) == want

    REPORTS = [
        ["validate", "sqrt", "--samples", "20", "--dims", "2,5",
         "--n-max", "200"],
        ["validate", "circle", "--samples", "12", "--dims", "2-4",
         "--n-max", "4"],
        ["curve", "sqrt", "--format", "json", "--n-max", "300",
         "--a-grid", "64", "--delta-min", "0.0005"],
        ["curve", "circle", "--format", "json", "--n-max", "4"],
        ["lower", "circle", "--format", "json", "--steps", "30",
         "--function", "triangle"],
        ["probe", "--format", "json", "--steps", "200", "--restarts", "4",
         "--n-max", "200"],
    ]

    @pytest.mark.parametrize("argv", REPORTS)
    def test_reports_equal_dumps(self, argv, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        assert text == dumps_text(json.loads(text))
        monkeypatch.setattr(experiments_cli, "_CSV_ROWS", 7)
        again = tmp_path / "again.json"
        assert main(argv + ["--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_violation_report_equals_dumps(self, tmp_path, monkeypatch,
                                           capsys):
        absurd = cb.BoundCurve(lines=[cb.BoundLine(0.0, 1e-9, 1.0, "absurd")])
        monkeypatch.setattr(cb.positive_bounds, "gamma0",
                            lambda *args: absurd)
        out = tmp_path / "report.json"
        rc = main(["validate", "sqrt", "--samples", "10", "--dims", "3",
                   "--out", str(out)])
        assert rc == 1
        capsys.readouterr()
        text = out.read_text()
        doc = json.loads(text)
        assert doc["status"] == "violation"
        assert len(doc["violation"]["x"]) == 3
        assert text == dumps_text(doc)

    def test_long_json_is_written_in_blocks(self, tmp_path, monkeypatch):
        # 10^5 rows: 45.5 MB when the rows list and its json.dumps text
        # were built whole, 6.9 MB in blocks.  A stand-in eta_lower keeps
        # the measurement on the writer and the test quick.
        monkeypatch.setattr(cb.circle_bounds, "eta_lower",
                            lambda f, grid: np.sqrt(grid))
        out = tmp_path / "long.json"
        tracemalloc.start()
        try:
            rc = main(["lower", "circle", "--format", "json",
                       "--steps", "100000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 12 * 10 ** 6
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 100000
        assert doc["rows"][-1] == [1.99, math.sqrt(1.99)]


@pytest.mark.parametrize("target", ["sqrt", "circle"])
def test_validate_leaves_numpy_ma_unimported(target, tmp_path):
    code = (
        "import sys\n"
        "from commbound.experiments_cli import main\n"
        "rc = main(['validate', %r, '--samples', '20', '--n-max', '64',"
        " '--out', %r])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n" % (target, str(tmp_path / "r.json")))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 False"


class TestOutFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                             (0o002, 0o664)])
    def test_new_file_gets_the_mode_of_open(self, umask, mode, tmp_path):
        out = tmp_path / "curve.csv"
        old = os.umask(umask)
        try:
            rc = main(["curve", "sqrt", "--steps", "3", "--n-max", "100",
                       "--a-grid", "32", "--out", str(out)])
        finally:
            os.umask(old)
        assert rc == 0
        assert os.stat(out).st_mode & 0o777 == mode

    @pytest.mark.parametrize("mode", [0o600, 0o640])
    def test_existing_file_keeps_its_mode(self, mode, tmp_path):
        out = tmp_path / "curve.csv"
        out.write_text("old\n")
        out.chmod(mode)
        old = os.umask(0o022)
        try:
            rc = main(["curve", "sqrt", "--steps", "3", "--n-max", "100",
                       "--a-grid", "32", "--out", str(out)])
        finally:
            os.umask(old)
        assert rc == 0
        assert out.read_text().startswith("delta,")
        assert os.stat(out).st_mode & 0o777 == mode


# validate sqrt and probe take no --a-grid
SMALL_GAMMA0 = ["--n-max", "200"]
SMALL_SQRT = SMALL_GAMMA0 + ["--a-grid", "64"]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(experiments_cli.__file__)))


def cli_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    # stdout block-buffered, as by default, so that output left in the
    # buffer reaches the reader only through the final flush
    env.pop("PYTHONUNBUFFERED", None)
    return env


def cli_process(args, cwd, head=("-m", "commbound.experiments_cli")):
    """The command line run in a fresh interpreter, as a finished
    subprocess.run with stdout and stderr as bytes."""
    return subprocess.run([sys.executable, *head, *args], cwd=cwd,
                          capture_output=True, timeout=120, env=cli_env())


def tiny_curve_script():
    """tools/cli_cmp.py's script: the CLI with every bound curve replaced
    by the constant 1e-9, so any validate run is a violation."""
    path = os.path.join(os.path.dirname(SRC), "tools", "cli_cmp.py")
    spec = importlib.util.spec_from_file_location("cli_cmp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._TINY_CURVE


def no_traceback(stderr):
    assert b"Traceback" not in stderr
    assert b"Exception ignored" not in stderr


class TestExitPath:
    """The process exit through experiments_cli.run, as a user runs it."""

    def test_success_writes_the_file_and_the_summary_line(self, tmp_path):
        proc = cli_process(["validate", "sqrt", "--samples", "20", "--dims",
                            "2-3", *SMALL_GAMMA0, "--out", "r.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["violations"] == 0 and len(doc["records"]) == 20
        assert proc.stdout.decode() == (
            "validate sqrt: 20 samples, 0 violations, min margin %.12e at "
            "seed %d index %d\n" % (doc["min_margin"], doc["min_margin_seed"],
                                    doc["min_margin_index"]))

    def test_violation_exits_one_with_a_replay_payload(self, tmp_path):
        proc = cli_process(["validate", "sqrt", "--samples", "20", "--dims",
                            "2-3", *SMALL_GAMMA0, "--out", "r.json"], tmp_path,
                           head=("-c", tiny_curve_script()))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"validate sqrt: BOUND VIOLATION")
        assert proc.stderr.count(b"\n") == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["status"] == "violation"
        v = doc["violation"]
        pair = cb.instance_pair(v["role"], v["dim"], v["seed"], v["index"],
                                v["spectrum_mode"])
        x = np.array([[complex(*z) for z in row] for row in v["x"]])
        np.testing.assert_array_equal(pair.x, x)
        assert cb.op_norm(cb.commutator(pair.x, pair.a)) == v["delta"]

    @pytest.mark.parametrize("args, message", [
        (["curve", "sqrt", "--steps", "1"],
         b"commbound: steps must be at least 2\n"),
        (["curve", "sqrt", "--steps", "abc"],
         b"commbound curve sqrt: error: argument --steps: invalid int value:"
         b" 'abc'\n"),
    ])
    def test_errors_exit_two_with_one_line(self, args, message, tmp_path):
        proc = cli_process(args + ["--out", "x.csv"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.endswith(message)
        no_traceback(proc.stderr)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [["curve", "sqrt", "--config"],
                                      ["curve", "circle", "--function"]])
    def test_deeply_nested_json_exits_two_with_one_line(self, args, tmp_path):
        # json.load raised RecursionError, a traceback and exit 1
        (tmp_path / "deep.json").write_text("[" * 3000)
        proc = cli_process(args + ["deep.json", "--out", "x.csv"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"commbound: deep.json: JSON nested too deeply\n"
        assert os.listdir(tmp_path) == ["deep.json"]

    def test_large_stdout_output_arrives_whole(self, tmp_path):
        args = ["curve", "sqrt", "--steps", "100000", *SMALL_SQRT]
        to_file = cli_process(args + ["--out", "c.csv"], tmp_path)
        to_stdout = cli_process(args + ["--out", "-"], tmp_path)
        assert to_file.returncode == to_stdout.returncode == 0
        assert to_file.stdout == to_file.stderr == to_stdout.stderr == b""
        assert to_stdout.stdout == (tmp_path / "c.csv").read_bytes()
        assert to_stdout.stdout.count(b"\n") == 100001

    def test_stdout_closed_early_exits_two(self, tmp_path):
        # 7 MB of CSV: the writer blocks on the full pipe until the reader
        # closes it after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "commbound.experiments_cli", "curve",
             "sqrt", "--steps", "100000", *SMALL_SQRT, "--out", "-"],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=cli_env())
        try:
            assert proc.stdout.readline() == b"delta,gamma0,sqrt_delta,ratio\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 2
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        no_traceback(stderr)
        assert stderr.startswith(b"commbound: ")
        assert stderr.count(b"\n") == 1

    def test_stdout_closed_before_the_final_flush_exits_two(self, tmp_path):
        # four rows stay in stdout's buffer until run flushes it, into a
        # pipe whose reader is already gone
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "commbound.experiments_cli", "curve",
                 "sqrt", "--steps", "3", *SMALL_SQRT, "--out", "-"],
                cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE,
                timeout=120, env=cli_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == b"commbound: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("args", [["curve", "sqrt", "--format", "json"],
                                      ["validate", "sqrt", "--samples", "50"]])
    def test_stdout_and_stderr_on_one_closed_pipe_exit_two(self, args,
                                                           tmp_path):
        # as `commbound ... 2>&1 | head -1`: main's own error line meets
        # the closed pipe too, and must not turn exit 2 into 1
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "commbound.experiments_cli", *args,
                 "--out", "-"], cwd=tmp_path, stdout=write_end,
                stderr=write_end, timeout=120, env=cli_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 2


class HardExit(Exception):
    pass


def refuse_hard_exit(monkeypatch):
    def hard_exit(code):
        raise HardExit(code)

    monkeypatch.setattr(os, "_exit", hard_exit)


def fake_violation(monkeypatch):
    def boom(*args, **kwargs):
        raise cb.ViolationError("bound violated", {"seed": 0})

    monkeypatch.setattr(cb.matrix_lab, "sample_sweep", boom)


class TestRefusedValues:
    """Values that pass their type but not their command's check exit 2
    with one line, before any work."""

    @pytest.mark.parametrize("argv, config, message", [
        (["validate", "sqrt", "--samples", "0"], None,
         "samples must be at least 1"),
        (["probe", "--delta", "0"], None, "delta must lie in (0, 1]"),
        (["probe", "--delta", "1.5"], None, "delta must lie in (0, 1]"),
        (["curve", "circle"], "[1, 2]", "config file must hold a JSON object"),
    ])
    def test_exit_two(self, argv, config, message, tmp_path, monkeypatch,
                      capsys):
        refuse_work(monkeypatch, "value check")
        if config is not None:
            (tmp_path / "c.json").write_text(config)
            argv = argv + ["--config", str(tmp_path / "c.json")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "commbound: %s\n" % message)


class TestMainReturns:
    def test_main_returns_every_code_in_process(self, tmp_path, monkeypatch,
                                                capsys):
        refuse_hard_exit(monkeypatch)
        assert main(["curve", "sqrt", "--steps", "3", *SMALL_SQRT,
                     "--out", str(tmp_path / "c.csv")]) == 0
        assert main(["curve", "sqrt", "--steps", "1"]) == 2

        fake_violation(monkeypatch)
        assert main(["validate", "sqrt", "--samples", "2", *SMALL_GAMMA0,
                     "--out", str(tmp_path / "r.json")]) == 1

    @pytest.mark.parametrize("args, code, err", [
        (["curve", "sqrt", "--steps", "3", *SMALL_SQRT, "--out", "-"], 2,
         "commbound: [Errno 32] Broken pipe\n"),
        # main's own line already names the failure
        (["curve", "sqrt", "--steps", "1"], 2,
         "commbound: steps must be at least 2\n"),
        (["validate", "sqrt", "--samples", "2", *SMALL_GAMMA0], 1,
         "validate sqrt: BOUND VIOLATION (bound violated)\n"
         "commbound: [Errno 32] Broken pipe\n"),
    ])
    def test_failed_flush_reports_once(self, args, code, err, monkeypatch,
                                       capsys):
        class ClosedPipe:
            def writelines(self, chunks):
                for _ in chunks:
                    pass

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        refuse_hard_exit(monkeypatch)
        fake_violation(monkeypatch)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(HardExit) as info:
            experiments_cli.run(args)
        assert info.value.args == (code,)
        assert capsys.readouterr().err == err

    def test_violation_on_a_closed_stderr_exits_one(self, tmp_path,
                                                    monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        fake_violation(monkeypatch)
        monkeypatch.setattr(sys, "stderr", ClosedPipe())
        out = tmp_path / "r.json"
        assert main(["validate", "sqrt", "--samples", "2", *SMALL_GAMMA0,
                     "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["status"] == "violation"
        assert doc["violation"] == {"seed": 0}

    @pytest.mark.parametrize("argv", [
        ["curve", "circle", "--n-max", "4"],
        ["validate", "circle", "--samples", "2", "--n-max", "4"],
    ])
    def test_quadrature_error_exits_two_with_one_line(self, argv, tmp_path,
                                                      monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise cb.QuadratureError("coefficient target not met")

        refuse_work(monkeypatch, "envelope")
        monkeypatch.setattr(cb.circle_bounds, "truncation_envelope", fail)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "commbound: coefficient target not met\n")
        assert not out.exists()


class TestOutputTargets:
    """Where the output goes: through a symlink, or nowhere when stdout is
    closed."""

    def test_stdout_closed_at_start_exits_two(self, tmp_path):
        # with fd 1 closed when Python starts, sys.stdout is None
        proc = subprocess.run(
            [sys.executable, "-m", "commbound.experiments_cli", "curve",
             "sqrt", "--steps", "3", *SMALL_SQRT],
            cwd=tmp_path, stderr=subprocess.PIPE, timeout=120, env=cli_env(),
            preexec_fn=lambda: os.close(1))
        assert proc.returncode == 2
        assert proc.stderr == b"commbound: [Errno 9] stdout is closed\n"

    def test_out_writes_through_a_symlink(self, tmp_path):
        args = ["curve", "sqrt", "--steps", "3", *SMALL_SQRT, "--out"]
        assert main(args + [str(tmp_path / "plain.csv")]) == 0
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "target.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(os.path.join("data", "target.csv"))
        assert main(args + [str(link)]) == 0
        assert link.is_symlink()
        assert os.readlink(link) == os.path.join("data", "target.csv")
        assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert os.stat(target).st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path / "data")) == ["target.csv"]

    def test_out_through_a_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        assert main(["curve", "sqrt", "--steps", "3", *SMALL_SQRT, "--out",
                     str(link)]) == 0
        assert link.is_symlink()
        assert (tmp_path / "target.csv").read_text().startswith("delta,")


class TestCoefficientSize:
    @pytest.mark.parametrize("text", [
        '{"1": 1e308, "-1": 1e308}', '{"1": 8e307, "-1": 8e307}',
    ], ids=["sum-overflows", "envelope-overflows"])
    def test_overflowing_coefficients_exit_two_without_warning(
            self, text, tmp_path, capsys):
        # the first printed RuntimeWarnings and blamed the intercept; the
        # second printed inf in the upper column and exited 0
        path = tmp_path / "huge.json"
        path.write_text(text)
        for command in (["curve", "circle", "--steps", "3"],
                        ["lower", "circle", "--steps", "3"],
                        ["validate", "circle", "--samples", "2"]):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                rc = main(command + ["--function", str(path), "--out",
                                     str(tmp_path / "out.txt")])
            assert rc == 2 and seen == []
            err = capsys.readouterr().err
            assert err == ("commbound: %s: coefficients too large: 2 (65536 "
                           "+ 1) sum |a_n| overflows a float\n" % path)
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("text", [
        '{"1": 5000}', '{"3": 2000}', '{"1": 5000, "-1": -5000}',
        '{"1": 1e200}',
    ], ids=["5000", "order-3", "sine", "1e200"])
    def test_large_valid_coefficients_are_accepted(self, text, tmp_path,
                                                   capsys):
        # rejected before as "not periodic at the seam"
        path = tmp_path / "large.json"
        path.write_text(text)
        for command in (["curve", "circle", "--steps", "3"],
                        ["curve", "circle", "--format", "json"],
                        ["lower", "circle", "--steps", "3"]):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                rc = main(command + ["--function", str(path), "--out",
                                     str(tmp_path / "out.txt")])
            assert rc == 0 and seen == []
            assert capsys.readouterr().err == ""
