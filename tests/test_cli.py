import csv
import dataclasses
import errno
import itertools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icobattery.circuit as circuit
import icobattery.cli as cli
from icobattery.cli import (
    ConfigError,
    SweepConfig,
    burst_report,
    export_circuits,
    main,
    noise_study_rows,
)
from icobattery.circuit import OUTCOME_KEYS, angles_of_time, build_ico_circuit
from icobattery.analytic import _row_sums
from icobattery.model import ModelParams, _rows
from icobattery.thermo import efficiencies, python_values
from icobattery.qasm import emit_qasm, parse_qasm

import circuit_reference as ref
from cli_reference import reference_csv, reference_sweep_csv, rows as rows_of, sweep_rows


def test_config_defaults():
    cfg = SweepConfig(n_list=[2])
    assert cfg.t_max == pytest.approx(4 * math.pi / 0.1)
    assert cfg.points == 400


def test_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(n_list=[])
    with pytest.raises(ConfigError):
        SweepConfig(n_list=[1])
    with pytest.raises(ConfigError):
        SweepConfig(n_list=[2], t_min=5.0, t_max=1.0)
    with pytest.raises(ConfigError):
        SweepConfig(n_list=[2], engine="magic")
    with pytest.raises(ConfigError):
        SweepConfig(n_list=[2], points=1)
    # values a JSON config file can carry past argparse
    for values in ({"n_list": [2.5]}, {"n_list": [2], "points": "7"},
                   {"n_list": [2], "omega": "1"}, {"n_list": [2], "shots": 1.5},
                   {"n_list": [2], "depolarizing_p": float("nan")}):
        with pytest.raises(ConfigError):
            SweepConfig(**values)


# Subnormal omega, lambda or omega*lambda, each with the value its error names:
# the numeric engine wrote E = 0 at the first, the engines drifted 19% apart at
# the second, and the closed form's t* divided by omega*lambda = 0 at the third.
SUBNORMAL_CASES = [
    (["sweep", "--n", "7", "--omega", "5e-324", "--lambda", "1e100", "--t-min", "1.0",
      "--points", "3", "--engine", "numeric"], "5e-324"),
    (["sweep", "--n", "2", "--omega", "1e-310", "--t-max", "1e305", "--engine", "both"], "1e-310"),
    (["bursts", "--n", "2,3", "--omega", "0.5", "--lambda", "5e-324", "--t-max", "1e5",
      "--points", "2", "--engine", "analytic"], "5e-324"),
]

# Values of --n that are not comma-separated integers.
MALFORMED_N = ["2,", "two", "2,,3"]

# The engines that rejected input must not reach, each with the module a
# command looks it up in.
ENGINES = ((cli, "numeric_sweep"), (cli, "closed_form_sweep"), (circuit, "ico_counts"))

# The float fields of SweepConfig, each given an int beyond the float range by a
# config file in test_invalid_input_exits_2.
FLOAT_KEYS = ("omega", "coupling", "t_min", "t_max", "tau", "eps_dco")


@pytest.mark.parametrize("args", [
    ["sweep", "--n", "2", "--t-min", "-1", "--engine", "numeric"],
    ["sweep", "--n", "2", "--t-max", "inf", "--engine", "analytic"],
    ["bursts", "--n", "2", "--tau", "nan"],
    ["bursts", "--n", "2", "--eps-dco", "inf"],
    ["sweep", "--n", "2", "--omega", "1e300", "--t-max", "1e10"],
    ["sweep", "--n", "2", "--omega", "1e-200", "--lambda", "1e-200"],
    ["sweep", "--n", "2,1001"],
    ["bursts", "--n", "2,3,2", "--engine", "analytic"],
    ["noise-study", "--n", "2", "--shots", "0", "--depol-p", "0.05"],
    ["noise-study", "--n", "2", "--shots", "100", "--depol-p", "1.5"],
    ["noise-study", "--n", "2", "--shots", "100", "--depol-p", "0.05", "--seed", "-1"],
    ["noise-study", "--n", "2", "--shots", "9223372036854775808", "--depol-p", "0.05"],
    ["sweep", "--n", "2", "--points", "1000000000000", "--engine", "analytic"],
    # phases too large for the two engines to agree within 1e-9
    ["sweep", "--n", "3,6", "--points", "40", "--lambda", "1e-7", "--engine", "both"],
    ["sweep", "--n", "6", "--points", "6", "--engine", "both", "--lambda", "0.293",
     "--t-min", "48.86", "--t-max", "2.304e16"],
    ["sweep", "--n", "3", "--engine", "both", "--lambda", "1000", "--t-max", "1e5"],
    ["bursts", "--n", "3", "--engine", "both", "--lambda", "1000", "--t-max", "1e5"],
    # output paths, in {tmp}: an existing directory, "file" an existing file,
    # "noise_shots.csv" a directory, and the config files of CONFIGS
    ["sweep", "--n", "2", "--out", "/nonexistent/dir/x.csv"],
    ["sweep", "--n", "2", "--out", ""],
    ["sweep", "--n", "2", "--out", "{tmp}/x.csv/"],
    ["sweep", "--n", "2", "--out", "{tmp}/file/x.csv"],
    ["bursts", "--n", "2", "--out", "{tmp}"],
    ["noise-study", "--n", "2", "--shots", "10", "--depol-p", "0.1", "--out", "{tmp}"],
    ["noise-study", "--n", "2", "--shots", "10", "--depol-p", "0.1", "--out", "{tmp}/noise.csv"],
    ["export-circuits", "--n", "2", "--out", "{tmp}/file"],
    ["export-circuits", "--n", "2", "--out", "/nonexistent/dir/circuits"],
    ["sweep", "--config", "{tmp}/out5.json"],
    ["sweep", "--config", "{tmp}/out_nul.json"],
    ["export-circuits", "--config", "{tmp}/out_nul.json"],
    ["sweep", "--config", "{tmp}/int.json"],
    ["sweep", "--config", "{tmp}/null.json"],
    ["sweep", "--config", "{tmp}/list.json"],
    ["sweep", "--config", "{tmp}/str.json"],
    ["sweep", "--config", "{tmp}/n_int.json"],
    ["bursts", "--config", "{tmp}/n_null.json"],
    *[argv for argv, _ in SUBNORMAL_CASES],
    *(["sweep", "--n", n] for n in MALFORMED_N),
    # times that model.check_model rejects: negative, and a phase 2*omega*t that overflows
    ["sweep", "--n", "2", "--t-min", "-1"],
    ["sweep", "--n", "2", "--omega", "10", "--t-max", "1e308"],
    # a config file's int beyond the float range, which no float can hold
    *(["bursts", "--config", f"{{tmp}}/big_{key}.json"] for key in FLOAT_KEYS),
])
def test_invalid_input_exits_2(tmp_path, monkeypatch, capsys, args):
    def engine(*args, **kwargs):
        raise AssertionError("bad input must be rejected before any engine runs")

    for owner, name in ENGINES:
        monkeypatch.setattr(owner, name, engine)
    (tmp_path / "file").write_text("")
    (tmp_path / "noise_shots.csv").mkdir()
    # config files, each with what its error must name
    configs = {"out5.json": ({"n_list": [2], "out": 5}, "5"),
               "out_nul.json": ({"n_list": [2], "out": f"{tmp_path}/x\0.csv"},
                                repr(f"{tmp_path}/x\0.csv")),
               "int.json": (5, "got int"), "null.json": (None, "got NoneType"),
               "list.json": (["seed"], "got list"), "str.json": ("abc", "got str"),
               "n_int.json": ({"n_list": 5}, "n_list must be a list of charger counts, got int"),
               "n_null.json": ({"n_list": None},
                               "n_list must be a list of charger counts, got NoneType"),
               **{f"big_{key}.json": ({"n_list": [2], key: 10**400},
                                      f"{key} must be a finite number, got {10**400}")
                  for key in FLOAT_KEYS}}
    for name, (value, _) in configs.items():
        (tmp_path / name).write_text(json.dumps(value))
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    # "--points 3" goes first so that a case's own --points overrides it
    argv = args[:1] + ["--points", "3"] + args[1:]
    if "--out" in args:
        out = args[args.index("--out") + 1]
    elif "--config" not in args:
        out = str(tmp_path / "x.csv")
        argv += ["--out", out]
    if args[1:2] == ["--n"] and args[2] in MALFORMED_N:    # argparse rejects it and exits
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"icobattery sweep: error: argument --n: expected comma-separated "
                            f"integers such as 2,3,4,5, got {args[2]!r}\n")
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()
    if "--out" in args:
        assert repr(out) in err
    elif "--config" in args:
        assert configs[Path(args[args.index("--config") + 1]).name][1] in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["file", "noise_shots.csv",
                                                                 *configs])


@pytest.mark.parametrize("args, value", SUBNORMAL_CASES)
def test_subnormal_parameters_exit_2_naming_the_value(tmp_path, capsys, args, value):
    assert main(args + ["--out", str(tmp_path / "x.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"got {value}\n" in err
    assert not list(tmp_path.iterdir())


def test_omega_below_precision_floor_exits_2_naming_it(tmp_path, capsys):
    # at omega = 3e-308 the engines' P_ico drifted 1e-10 apart on rows with E >= 1e-9
    for omega in ("4.4e-299", "3e-308"):
        assert main(["sweep", "--n", "2", "--omega", omega, "--lambda", "10", "--points", "3",
                     "--engine", "both", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        # the bound is 2 sys.float_info.min / ENERGY_EPS
        assert err == f"error: omega must be a finite number >= 4.450147717014402e-299, " \
                      f"got {omega}\n"
    assert not list(tmp_path.iterdir())


def test_omega_at_precision_floor_engines_agree(tmp_path):
    out = tmp_path / "x.csv"
    args = ["--n", "2,3", "--omega", "4.5e-299", "--lambda", "10", "--points", "7"]
    assert main(["sweep", *args, "--engine", "both", "--out", str(out)]) == 0
    assert main(["sweep", *args, "--engine", "analytic", "--out", str(tmp_path / "a.csv")]) == 0
    num, ana = (list(csv.DictReader(path.read_text().splitlines()))
                for path in (out, tmp_path / "a.csv"))
    p_ico = [(float(r["P_ico"]), float(s["P_ico"])) for r, s in zip(num, ana) if r["P_ico"]]
    assert len(p_ico) == 10
    assert all(abs(a - b) <= 1e-14 for a, b in p_ico)


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    (tmp_path / "cfg.json").write_bytes(b'{"n_list": [2], "out": "\xff"}')
    assert main(["sweep", "--config", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file:")


@pytest.mark.parametrize("engine", ["numeric_sweep", "closed_form_sweep"])
def test_library_value_error_exits_3(tmp_path, monkeypatch, capsys, engine):
    # a library check (the ergotropy floor, _weighted_sum, the normalization in
    # _row_sums) that fails during a run is an invariant violation
    def failing(*args, **kwargs):
        raise ValueError("state not normalized")

    monkeypatch.setattr(cli, engine, failing)
    out = tmp_path / "x.csv"
    engine_flag = "numeric" if engine == "numeric_sweep" else "analytic"
    assert main(["sweep", "--n", "2", "--points", "3", "--engine", engine_flag,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "invariant violation: state not normalized\n"
    assert not out.exists()


def test_phase_limit_boundary():
    def sweep(**values):
        # the limit is checked where the sweep compares the engines
        return list(cli._sweep_columns(SweepConfig(**values)))

    # lambda = 1e-5 at its default t_max (omega*t_max = 1.26e6) runs with --engine both
    sweep(n_list=[2], coupling=1e-5)
    sweep(n_list=[2], t_max=cli.MAX_BOTH_PHASE)
    with pytest.raises(ConfigError, match="phase"):
        sweep(n_list=[2], t_max=cli.MAX_BOTH_PHASE * 1.01)
    with pytest.raises(ConfigError, match="phase"):
        sweep(n_list=[2], coupling=2.0, t_max=cli.MAX_BOTH_PHASE)
    sweep(n_list=[2], t_max=cli.MAX_BOTH_PHASE * 1.01, engine="analytic")


@pytest.mark.parametrize("engine, calls", [
    ("numeric", {"numeric_sweep": 1, "closed_form_sweep": 0}),
    ("analytic", {"numeric_sweep": 0, "closed_form_sweep": 1}),
    ("both", {"numeric_sweep": 1, "closed_form_sweep": 1}),
])
def test_one_batch_calls_each_engine_it_needs_once(monkeypatch, engine, calls):
    counted = dict.fromkeys(calls, 0)
    for name in calls:
        def counting(*args, real=getattr(cli, name), name=name):
            counted[name] += 1
            return real(*args)

        monkeypatch.setattr(cli, name, counting)
    batches = list(cli._sweep_columns(SweepConfig(n_list=[3, 2], points=5, engine=engine)))
    assert len(batches) == 1
    assert counted == calls


@pytest.mark.filterwarnings("ignore:no counts")
@pytest.mark.parametrize("args", [
    ["noise-study", "--n", "2", "--t-max", "3e7", "--points", "3", "--shots", "10",
     "--depol-p", "0", "--out", "{tmp}/noise.csv"],
    ["export-circuits", "--n", "2", "--t-max", "3e7", "--points", "3", "--out", "{tmp}/c"],
])
def test_phase_limit_spares_commands_that_compare_no_engines(tmp_path, args):
    # --engine both is the default, but these commands never compare the engines
    assert main([a.replace("{tmp}", str(tmp_path)) for a in args]) == 0


@pytest.mark.parametrize("omega", ["1e-20", "1e-12", "1.39e-235"])
def test_tiny_omega_engines_agree_on_passivity(tmp_path, omega):
    # passivity is decided in units of hbar*omega, so a small omega does not
    # make every numeric state look passive
    out = tmp_path / "b.json"
    assert main(["bursts", "--n", "7,5", "--points", "5", "--omega", omega,
                 "--out", str(out)]) == 0


def test_row_limit_boundary(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the row limit must be checked before a grid is built")

    monkeypatch.setattr(np, "linspace", no_grid)
    points = cli.MAX_ROWS // 2
    assert SweepConfig(n_list=[2, 3], points=points).points == points
    with pytest.raises(ConfigError, match="row limit"):
        SweepConfig(n_list=[2, 3], points=points + 1)


class TestSweep:
    def test_degenerate_grid_row_count(self):
        cfg = SweepConfig(n_list=[2, 3, 4], points=2, engine="analytic")
        assert len(sweep_rows(cfg)) == 6

    def test_engine_agreement_column(self):
        cfg = SweepConfig(n_list=[2], points=15, t_max=40.0, engine="both")
        rows = sweep_rows(cfg)
        assert all(r["max_engine_dev"] <= 1e-9 for r in rows)

    def test_frozen_row(self):
        cfg = SweepConfig(n_list=[2], t_min=2 * math.pi, t_max=4 * math.pi,
                          points=2, engine="analytic")
        first = sweep_rows(cfg)[0]
        assert first["P_ico"] == pytest.approx(0.9994, abs=1e-3)
        assert first["P_dco"] == pytest.approx(0.0, abs=1e-12)

    def test_daemonic_dominance_in_rows(self):
        cfg = SweepConfig(n_list=[2, 3], points=40, engine="analytic")
        for row in sweep_rows(cfg):
            assert row["W_ico"] >= row["W_dco"] - 1e-10

    @pytest.mark.parametrize("engine", ["numeric", "analytic", "both"])
    @pytest.mark.parametrize("block", [1, 3, 10, None])    # rows per batch; None: WRITE_BLOCK
    def test_multi_n_rows_equal_each_n_alone(self, monkeypatch, tmp_path, engine, block):
        def lines(n_list):
            out = tmp_path / "s.csv"
            assert main(["sweep", "--n", ",".join(map(str, n_list)), "--points", "5",
                         "--t-min", "0.3", "--engine", engine, "--out", str(out)]) == 0
            return out.read_text().splitlines()

        alone = {n: lines([n]) for n in range(2, 33)}
        if block is not None:
            monkeypatch.setattr(cli, "WRITE_BLOCK", block)
        per_batch = max(1, cli.WRITE_BLOCK // 5)     # 1, 1, 2 and all charger counts
        blocks = -(-5 // cli.WRITE_BLOCK)             # per N: 5, 2, 1 and 1
        for n_list in (list(range(2, 33)), [32, 3, 2]):
            got = lines(n_list)
            assert got[0] == alone[2][0]
            assert got[1:] == [line for n in n_list for line in alone[n][1:]]
            cfg = SweepConfig(n_list=n_list, points=5, t_min=0.3, engine=engine)
            assert len(list(cli._sweep_columns(cfg))) == -(-len(n_list) // per_batch) * blocks

    # Grids from t = 0, at the real WRITE_BLOCK and CHUNK_AMPLITUDES.
    @pytest.mark.parametrize("n_list, points, engine", [
        pytest.param([3, 32, 2], 50, "both", id="three-grids-one-batch-n-out-of-order"),
        # the numeric engine evolves N = 200's 30 rows in two chunks, of 26 and 4
        # rows, and N = 2's and N = 3's in one each
        pytest.param([2, 200, 3], 30, "both", id="n200-in-two-chunks"),
        # a row of N = 1000 holds N(N+1) > CHUNK_AMPLITUDES / 2 amplitudes, so the
        # numeric engine evolves each of its 3 rows as a chunk of its own
        pytest.param([2, 1000, 3], 3, "both", id="n1000-a-chunk-a-row"),
        # 20000 points exceed WRITE_BLOCK = 16384 rows, so each N is computed in two
        # blocks of consecutive times
        pytest.param([3, 2], 20000, "both", id="two-time-blocks-per-n"),
        # t = 0 and, at N = 2, t = 40 pi, where the closed form's geometric series is
        # singular and the coefficients are summed one by one
        pytest.param([3, 1000, 2], 50, "analytic", id="singular-series"),
    ])
    def test_multi_n_sweep_equals_its_per_n_sweeps(self, tmp_path, n_list, points, engine):
        def rows(ns):
            out = tmp_path / "s.csv"
            assert main(["sweep", "--n", ",".join(map(str, ns)), "--points", str(points),
                         "--engine", engine, "--out", str(out)]) == 0
            return out.read_text().splitlines()[1:]

        assert rows(n_list) == [row for n in n_list for row in rows([n])]

    def test_engine_both_writes_the_numeric_engines_columns(self, tmp_path):
        # both take every column of ROW_FIELDS from numeric_sweep; only --engine both
        # adds max_engine_dev, one field more
        rows = {}
        for engine in ("numeric", "both"):
            out = tmp_path / f"{engine}.csv"
            assert main(["sweep", "--n", "5,2,3", "--points", "300", "--engine", engine,
                         "--out", str(out)]) == 0
            rows[engine] = [line.split(",") for line in out.read_text().splitlines()]
        assert {len(row) for row in rows["numeric"]} == {len(cli.ROW_FIELDS)}
        assert {len(row) for row in rows["both"]} == {len(cli.ROW_FIELDS) + 1}
        assert rows["numeric"] == [row[:len(cli.ROW_FIELDS)] for row in rows["both"]]

    def test_engines_agree_over_charger_counts_2_to_32(self, tmp_path):
        # --engine both exits 3 on the first row where the engines disagree
        assert main(["sweep", "--n", ",".join(map(str, range(2, 33))), "--points", "200",
                     "--engine", "both", "--out", str(tmp_path / "s.csv")]) == 0


class TestEngineBothStrict:
    """--engine both compares defined-ness of P and the passivity flags too."""

    @pytest.mark.parametrize("key, t_min, tamper", [
        ("P_ico", 2 * math.pi, lambda v: None),          # numeric defined, analytic not
        ("P_dco", 0.0, lambda v: 0.9 if v is None else v),  # analytic defined at t = 0 only
        ("passive_k1", 0.0, lambda v: not v),
        ("passive_dco", 0.0, lambda v: not v),
        ("W_ico", 0.0, lambda v: v + 1e-6),
    ])
    def test_mismatch_exits_3_naming_quantity(self, monkeypatch, tmp_path, capsys,
                                              key, t_min, tamper):
        _patch_analytic_rows(monkeypatch, lambda n, row: row.update({key: tamper(row[key])}))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "3", "--points", "2", "--t-min", repr(t_min),
                     "--t-max", "40", "--engine", "both", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert key in err and "N=3" in err and f"t={t_min!r}" in err
        assert not out.exists()


def _patch_analytic_rows(monkeypatch, edit):
    """Pass every row of the analytic engine's columns, as a dict of Python
    values (None for an undefined P), through edit(N, row) before the
    engines are compared."""
    real = cli.closed_form_sweep

    def tampered(omega, coupling, n_list, grid):
        cols = real(omega, coupling, n_list, grid)
        rows = [dict(zip(cols, values))
                for values in zip(*(python_values(col) for col in cols.values()))]
        for n, row in zip(np.repeat(n_list, len(grid)).tolist(), rows):
            edit(n, row)
        return {k: np.array([np.nan if row[k] is None else row[k] for row in rows]) for k in cols}

    monkeypatch.setattr(cli, "closed_form_sweep", tampered)


def _tamper_analytic(monkeypatch, edits):
    """Make the analytic engine report edits[(N, t)][key](value) instead of
    value for the listed quantities at the listed points."""
    def edit(n, row):
        for key, fn in edits.get((n, row["t"]), {}).items():
            row[key] = fn(row[key])

    _patch_analytic_rows(monkeypatch, edit)


class TestEngineBothFailureOrder:
    """The first failing row in grid order is reported; within a row,
    defined-ness of P comes first, then the passivity flags, then values."""

    T = np.linspace(0.0, 40.0, 4).tolist()   # P undefined at T[0], defined elsewhere

    @pytest.mark.parametrize("edits, message", [
        # a later row's defined-ness mismatch does not hide an earlier value mismatch
        ({(3, T[1]): {"W_ico": lambda v: v + 1e-6}, (3, T[2]): {"P_ico": lambda v: None}},
         f"engines disagree on W_ico by 1e-06 at N=3, t={T[1]!r}"),
        # N = 3 comes before N = 2 in --n 3,2
        ({(2, T[1]): {"passive_k1": lambda v: not v}, (3, T[3]): {"E": lambda v: v + 1e-6}},
         f"engines disagree on E by 1e-06 at N=3, t={T[3]!r}"),
        # defined-ness before flags before values, P_ico before P_dco
        ({(3, T[1]): {"P_dco": lambda v: None, "P_ico": lambda v: None,
                      "passive_k1": lambda v: not v, "W_ico": lambda v: v + 1e-6}},
         f"engines disagree on whether P_ico is defined at N=3, t={T[1]!r}: "
         f"numeric 0.9717547671488793, analytic None"),
        ({(3, T[2]): {"P_dco": lambda v: None, "passive_k1": lambda v: not v}},
         f"engines disagree on whether P_dco is defined at N=3, t={T[2]!r}: "
         f"numeric 0.9331199989508849, analytic None"),
        ({(3, T[0]): {"P_dco": lambda v: 0.5, "passive_dco": lambda v: not v}},
         f"engines disagree on whether P_dco is defined at N=3, t={T[0]!r}: "
         f"numeric None, analytic 0.5"),
        # flags before values, passive_k1 before passive_dco
        ({(3, T[2]): {"passive_dco": lambda v: not v, "passive_k1": lambda v: not v,
                      "p1": lambda v: v + 1e-3}},
         f"engines disagree on passive_k1 at N=3, t={T[2]!r}: numeric False, analytic True"),
        ({(3, T[2]): {"passive_dco": lambda v: not v, "p1": lambda v: v + 1e-3}},
         f"engines disagree on passive_dco at N=3, t={T[2]!r}: numeric False, analytic True"),
        # among values, the largest deviation is named
        ({(3, T[1]): {"E": lambda v: v + 1e-6, "W_dco": lambda v: v + 1e-5,
                      "p1": lambda v: v - 2e-6}},
         f"engines disagree on W_dco by 1e-05 at N=3, t={T[1]!r}"),
    ])
    def test_first_failure_is_reported(self, monkeypatch, tmp_path, capsys, edits, message):
        _tamper_analytic(monkeypatch, edits)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "3,2", "--points", "4", "--t-min", "0", "--t-max", "40",
                     "--engine", "both", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"invariant violation: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("block", [cli.WRITE_BLOCK, 4])   # N = 5 and 3 in one batch, or one each
    @pytest.mark.parametrize("edits, message", [
        # N = 5 comes before N = 3 in --n 5,3, though its failing row is later in the grid
        ({(3, T[1]): {"W_ico": lambda v: v + 1e-6}, (5, T[3]): {"E": lambda v: v + 1e-6}},
         f"engines disagree on E by 1e-06 at N=5, t={T[3]!r}"),
        # a defined-ness mismatch at N = 3 does not outrank a value mismatch at N = 5
        ({(3, T[0]): {"P_dco": lambda v: 0.5}, (5, T[2]): {"W_dco": lambda v: v + 1e-5}},
         f"engines disagree on W_dco by 1e-05 at N=5, t={T[2]!r}"),
        ({(3, T[1]): {"passive_k1": lambda v: not v},
          (5, T[1]): {"P_ico": lambda v: None, "p1": lambda v: v + 1e-3}},
         f"engines disagree on whether P_ico is defined at N=5, t={T[1]!r}: "
         f"numeric 0.9937633004890684, analytic None"),
    ])
    def test_first_failure_across_n(self, monkeypatch, tmp_path, capsys, edits, message, block):
        monkeypatch.setattr(cli, "WRITE_BLOCK", block)
        _tamper_analytic(monkeypatch, edits)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "5,3", "--points", "4", "--t-min", "0", "--t-max", "40",
                     "--engine", "both", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"invariant violation: {message}\n"
        assert not out.exists()


class TestEngineBothDefiniteOrderEnergy:
    """The numeric E_dco is compared with the analytic E: inside the passive
    window W_dco = 0, so P_dco = 0 whatever E_dco is, and no other column
    would show a wrong definite-order energy."""

    @staticmethod
    def _scale_passive_e_dco(monkeypatch):
        real = cli.numeric_sweep

        def scaled(omega, coupling, n_list, times):
            cols = real(omega, coupling, n_list, times)
            cols["E_dco"] = np.where(cols["W_dco"] == 0, 1.5 * cols["E_dco"], cols["E_dco"])
            return cols

        monkeypatch.setattr(cli, "numeric_sweep", scaled)

    def test_scaled_e_dco_exits_3_naming_it(self, monkeypatch, tmp_path, capsys):
        self._scale_passive_e_dco(monkeypatch)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", ",".join(map(str, range(2, 33))), "--points", "400",
                     "--engine", "both", "--out", str(out)]) == 3
        t = np.linspace(0.0, 40 * np.pi, 400).tolist()[1]     # t = 0 stores nothing
        assert re.fullmatch(rf"invariant violation: engines disagree on E_dco by \S+ "
                            rf"at N=2, t={re.escape(repr(t))}\n", capsys.readouterr().err)
        assert not out.exists()

    def test_other_failure_on_the_row_is_named_first(self, monkeypatch, tmp_path, capsys):
        t = TestEngineBothFailureOrder.T[1]      # inside N = 3's passive window
        self._scale_passive_e_dco(monkeypatch)
        _tamper_analytic(monkeypatch, {(3, t): {"W_ico": lambda v: v + 1e-6}})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "3", "--points", "4", "--t-min", "0", "--t-max", "40",
                     "--engine", "both", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"invariant violation: engines disagree on W_ico by 1e-06 at N=3, t={t!r}\n")


class TestEngineBothEfficiencyBound:
    """P = W/E is compared within ATOL (1 + |P|) / E, the bound that W and E
    agreeing within ATOL implies; E, W and p1 keep the absolute bound."""

    def test_tiny_energy_does_not_fail_the_run(self, tmp_path):
        # at N = 3, t = 30 pi + 0.0176 the stored energy is 4.2e-8, and the
        # engines' P differ by 7.7e-9 although E and W agree to 1e-15
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "2,3,4,5", "--points", "400", "--t-min", "0.3",
                     "--engine", "both", "--out", str(out)]) == 0
        with open(out) as fh:
            row = next(r for r in csv.DictReader(fh)
                       if r["N"] == "3" and r["t"] == "94.24423091963389")
        assert float(row["E"]) < 1e-7
        assert float(row["max_engine_dev"]) > cli.tol.ENGINE_AGREE_ATOL

    @pytest.mark.parametrize("key, shift, code", [
        ("P_ico", 1e-7, 3),     # E = 0.458: the bound is 4.3e-9
        ("P_dco", -1e-7, 3),
        ("P_ico", 3e-9, 0),
        ("E", 2e-9, 3),
        ("W_dco", -2e-9, 3),
        ("p1", 2e-9, 3),
    ])
    def test_ordinary_point(self, monkeypatch, tmp_path, capsys, key, shift, code):
        t = np.linspace(0.0, 40.0, 4).tolist()[1]
        _tamper_analytic(monkeypatch, {(3, t): {key: lambda v: v + shift}})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "3", "--points", "4", "--t-min", "0", "--t-max", "40",
                     "--engine", "both", "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err.startswith(
                f"invariant violation: engines disagree on {key} by ")
            assert not out.exists()

    def test_efficiency_passes_whenever_energy_and_ergotropy_agree(self):
        # E and W each moved by up to 0.99 ATOL, at stored energies down to 3e-9
        atol, rng = cli.tol.ENGINE_AGREE_ATOL, np.random.default_rng(8)
        e = 10.0 ** rng.uniform(np.log10(3e-9), 0.0, 2000)
        w = e * rng.uniform(0.0, 1.0, 2000)
        ana = {"N": np.full(2000, 3), "t": np.arange(2000.0), "E": e, "W_ico": w, "W_dco": w, "p1": 0.5 * e,
               "passive_k1": w < 0, "passive_dco": w < 0}
        num = {**ana, "E": e + 0.99 * atol * rng.choice([-1, 1], 2000),
               "W_ico": w + 0.99 * atol * rng.choice([-1, 1], 2000)}
        num["E_dco"] = num["E"]     # both protocols store the same energy
        for cols in (num, ana):
            cols["P_ico"] = efficiencies(cols["W_ico"], cols["E"])
            cols["P_dco"] = efficiencies(cols["W_dco"], cols["E"])
        dev = cli._engine_deviation(num, ana)
        p_dev = np.abs(num["P_ico"] - ana["P_ico"])
        assert (dev >= p_dev).all()
        # dividing by the analytic E instead would fail some of these rows
        assert (p_dev > atol * (1 + np.abs(ana["P_ico"])) / ana["E"]).any()


def _passivity_margins(omega, lam, n, times) -> dict[str, np.ndarray]:
    """gnd - exc and gnd - 1/2 at every time, gnd and exc the unnormalized
    populations of the k = 1 outcome (gnd also that of branch 1): the closed
    form's passive_k1 and passive_dco test their signs, and the numeric
    flags switch within 1e-10 of 0 on them."""
    n_row, t = _rows([n], times)
    gnd, _, sum_sq = _row_sums(omega, lam, n_row, t)
    return {"passive_k1": gnd - sum_sq / n_row, "passive_dco": gnd - 0.5}


@given(n=st.sampled_from([2, 3, 5, 8]), omega=st.floats(0.2, 3.0), lam=st.floats(0.05, 1.0),
       start=st.floats(0.0, 0.5), points=st.integers(2, 60),
       s=st.one_of(st.integers(-12, 12).map(lambda k: 2.0 ** k), st.floats(1e-3, 1e3)))
@example(n=3, omega=0.6473941955764151, lam=0.05, start=1.9754340253789158e-142, points=2, s=2.0)
@example(n=3, omega=1.0, lam=0.5, start=0.0, points=17, s=5.0)     # p1 = 1/4 at row 9
@example(n=5, omega=2.847074546133455, lam=1.0, start=2.0398397265792043e-139, points=2, s=8.0)
@settings(max_examples=40, deadline=None)
def test_time_scaling_leaves_columns_unchanged(n, omega, lam, start, points, s):
    # every phase is omega t or omega lambda t, and energies are in units of hbar omega,
    # so (omega, t) -> (omega / s, s t) changes only t; bit for bit where s is a power of 2,
    # except where dividing by omega rounds: in subnormal entries (at t ~ 1e-142, W_ico is
    # about 6e-314) and in entries whose value in H's units at the smaller omega is subnormal
    # (at t ~ 1e-139, W_ico is about 2.8e-308, and 2.8e-308 * omega / 8 is subnormal).  Those
    # are held to the tolerance of an inexact scaling.  There
    # a passivity flag may also flip where the quantities that decide it tie within that
    # tolerance: at p1 = 1/4, gnd = exc exactly, and the scaled run rounds either way
    t_max = 4 * math.pi / (omega * lam)
    t_min = start * t_max
    exact = math.frexp(s)[0] == 0.5       # s is a power of 2
    atol = cli.tol.ENGINE_AGREE_ATOL
    configs = [SweepConfig(n_list=[n], omega=om, coupling=lam, t_min=scale * t_min,
                           t_max=scale * t_max, points=points)
               for om, scale in ((omega, 1.0), (omega / s, s))]
    ties = {k: np.abs(m) <= atol
            for k, m in _passivity_margins(omega, lam, n, configs[0].time_grid()).items()}
    for engine in ("numeric", "analytic"):
        [base], [scaled] = (list(cli._sweep_columns(dataclasses.replace(c, engine=engine)))
                            for c in configs)
        assert base.keys() == scaled.keys()
        for key in base.keys() - {"t"}:
            a, b = base[key], scaled[key]
            if key in ties and not exact:
                assert a[~ties[key]].tobytes() == b[~ties[key]].tobytes(), (engine, key)
            elif a.dtype != float:
                assert a.tobytes() == b.tobytes(), (engine, key)
            elif exact:
                low = min(omega, omega / s)
                sub = _rounded_by_omega(a, low) | _rounded_by_omega(b, low)
                assert a[~sub].tobytes() == b[~sub].tobytes(), (engine, key)
                assert (np.abs(a - b)[sub] <= atol).all(), (engine, key)
            elif key.startswith("P_"):
                defined = ~np.isnan(a)
                assert (np.isnan(b) == ~defined).all(), (engine, key)
                bound = atol * (1.0 + np.abs(a)) / base["E"]
                assert (np.abs(a - b)[defined] <= bound[defined]).all(), (engine, key)
            else:
                assert np.max(np.abs(a - b)) <= atol, (engine, key)


def _rounded_by_omega(x: np.ndarray, omega: float) -> np.ndarray:
    """The nonzero entries of a column in units of hbar omega that are subnormal, or
    whose value in H's units, |x| omega, is: there dividing by omega rounds."""
    tiny = np.finfo(float).tiny
    return (x != 0) & ((np.abs(x) < tiny) | (np.abs(x) * omega < tiny))


class TestBursts:
    def test_n2_burst_contains_two_pi(self):
        cfg = SweepConfig(n_list=[2], points=300, engine="analytic")
        rep = burst_report(cfg)
        data = rep["per_n"]["2"]
        assert data["t_star"] == pytest.approx(11.43, abs=0.02)
        hit = [iv for iv in data["intervals"]
               if iv[0] <= 2 * math.pi <= iv[1] and iv[1] < 11.43]
        assert hit, f"no burst interval around t=2pi in {data['intervals']}"

    def test_monotonicity_verdict(self):
        cfg = SweepConfig(n_list=[2, 3, 4, 5], points=50, engine="analytic")
        rep = burst_report(cfg)
        assert rep["monotonicity_verdict"] == "pass"
        stars = [rep["per_n"][str(n)]["t_star"] for n in (2, 3, 4, 5)]
        assert stars == sorted(stars)

    def test_unattainable_threshold(self):
        cfg = SweepConfig(n_list=[2], points=60, engine="analytic", tau=1.01)
        rep = burst_report(cfg)
        assert rep["per_n"]["2"]["intervals"] == []

    def test_unsorted_n_list_matches_each_n_alone(self):
        # each N's rows are a slice of the grouped sweep rows, not a filter
        cfg = SweepConfig(n_list=[7, 5, 3], points=300, engine="analytic")
        rep = burst_report(cfg)
        assert list(rep["per_n"]) == ["7", "5", "3"]
        assert rep["monotonicity_verdict"] == "fail"
        for n in (7, 5, 3):
            alone = burst_report(SweepConfig(n_list=[n], points=300, engine="analytic"))
            assert alone["per_n"][str(n)]["intervals"]
            assert rep["per_n"][str(n)] == alone["per_n"][str(n)]

    @pytest.mark.parametrize("engine", ["analytic", "both"])
    def test_intervals_are_maximal_runs_of_sweep_rows(self, monkeypatch, engine):
        # one Python loop over each N's rows of the sweep, in batches of 1, 2 and 3 N, and
        # in blocks of 7 times, across whose boundaries the first burst of every N runs
        for block in (7, 300, 600, 900):
            monkeypatch.setattr(cli, "WRITE_BLOCK", block)
            cfg = SweepConfig(n_list=[7, 5, 3], points=300, engine=engine)
            rep = burst_report(cfg)
            rows = sweep_rows(cfg)
            for k, n in enumerate(cfg.n_list):
                runs, start, prev = [], None, None
                for row in rows[k * 300:(k + 1) * 300] + [{"t": None, "P_dco": None}]:
                    hit = (row["P_dco"] is not None and row["P_dco"] <= cfg.eps_dco
                           and row["P_ico"] is not None and row["P_ico"] >= cfg.tau)
                    if hit and start is None:
                        start = row["t"]
                    if not hit and start is not None:
                        runs.append([start, prev])
                        start = None
                    prev = row["t"]
                assert runs and rep["per_n"][str(n)]["intervals"] == runs, n

    def test_first_interval_inside_dco_zero_window(self):
        # later windows recur periodically, but the first burst must close
        # before the analytic first-window boundary t*
        cfg = SweepConfig(n_list=[2, 3], points=200, engine="analytic")
        rep = burst_report(cfg)
        grid_step = (cfg.t_max - cfg.t_min) / (cfg.points - 1)
        for n in (2, 3):
            data = rep["per_n"][str(n)]
            assert data["intervals"], "expected at least one burst"
            first = data["intervals"][0]
            assert first[1] <= data["t_star"] + grid_step

    def test_infinite_t_star_exits_2_before_any_engine_runs(self, tmp_path, capsys, monkeypatch):
        # 7 / (omega * lambda) overflows at lambda = the smallest normal float and omega = 1
        monkeypatch.setattr(cli, "_sweep_columns", lambda config: pytest.fail("an engine ran"))
        out = tmp_path / "b.json"
        assert main(["bursts", "--n", "2,7", "--points", "3", "--engine", "numeric",
                     "--lambda=2.2250738585072014e-308", "--t-max=5e-324",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: t* of N=7 overflows at omega*lambda = "
                                           "2.2250738585072014e-308; raise omega or lambda\n")
        assert not out.exists()


@given(n_list=st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True),
       points=st.integers(2, 3 * 7 + 1), engine=st.sampled_from(["numeric", "analytic", "both"]))
@example(n_list=[3, 2], points=30, engine="both")   # N = 2's burst over rows 27-28 spans 2 batches
@example(n_list=[2, 3], points=17, engine="both")   # N = 3's passive_k1 ties at t = 7.5 pi
@settings(max_examples=25, deadline=None)
def test_short_batches_leave_outputs_unchanged(n_list, points, engine):
    # with WRITE_BLOCK = 7, grids of up to 7 points go whole, 7 // points of them a
    # batch, and longer ones in blocks of at most 7 consecutive times of one N
    def outputs(tmp):
        files = []
        for command, name in (("sweep", "s.csv"), ("bursts", "b.json")):
            out = Path(tmp) / name
            assert main([command, "--n", ",".join(map(str, n_list)), "--points", str(points),
                         "--engine", engine, "--out", str(out)]) == 0
            files.append(out.read_bytes())
        return files

    def recorded(config):
        for cols in real(config):
            batches.append(cols["N"])
            yield cols

    real, batches = cli._sweep_columns, []
    with tempfile.TemporaryDirectory() as tmp:
        whole = outputs(tmp)
        with mock.patch.object(cli, "WRITE_BLOCK", 7), \
                mock.patch.object(cli, "_sweep_columns", recorded):
            assert outputs(tmp) == whole
    rows = np.repeat(n_list, points).tolist()
    assert np.concatenate(batches).tolist() == rows + rows     # sweep, then bursts
    for n_col in batches:
        assert len(n_col) <= 7
        assert len(n_col) % points == 0 if points <= 7 else len(set(n_col.tolist())) == 1


class TestExportCircuits:
    def test_files_and_manifest(self, tmp_path):
        cfg = SweepConfig(n_list=[2], points=10, t_max=30.0)
        manifest = rows_of(export_circuits(cfg, tmp_path), cli.MANIFEST_FIELDS)
        assert len(manifest) == 10
        for i, row in enumerate(manifest):
            assert row["filename"] == f"ico_n2_t{i}.qasm"
            assert row["theta"] == pytest.approx(0.1 * row["t"] / 2)
            circ = parse_qasm((tmp_path / row["filename"]).read_text())
            assert len(circ.gates) > 0
        assert (tmp_path / "manifest.csv").exists()

    def test_rejects_other_n(self, tmp_path):
        with pytest.raises(ConfigError):
            export_circuits(SweepConfig(n_list=[3], points=2), tmp_path)

    @pytest.mark.parametrize("points, t_max, omega, coupling", [
        (2, 30.0, 1.0, 0.1), (30, 4 * math.pi / 0.1, 1.0, 0.1), (30, 1e6, 2.7, 1.3)])
    def test_files_equal_per_point_circuits(self, tmp_path, points, t_max, omega, coupling):
        # t = 0 gives theta = 0, whose negated half-angles print as -0.0
        cfg = SweepConfig(n_list=[2], points=points, t_min=0.0, t_max=t_max, omega=omega,
                          coupling=coupling, engine="analytic")   # export runs no engine
        export_circuits(cfg, tmp_path)
        manifest = (tmp_path / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "t,theta,phi,filename" and len(manifest) == points + 1
        for i, t in enumerate(cfg.time_grid()):
            theta, phi = angles_of_time(ModelParams(2, cfg.omega, cfg.coupling), t)
            circ = build_ico_circuit(theta, phi)
            text = (tmp_path / f"ico_n2_t{i}.qasm").read_bytes()
            assert text == emit_qasm(circ).encode()
            assert parse_qasm(text.decode()).gates == circ.gates
            assert manifest[i + 1] == f"{float(t)!r},{theta!r},{phi!r},ico_n2_t{i}.qasm"
        assert b"(-0.0)" in (tmp_path / "ico_n2_t0.qasm").read_bytes()

    def test_smaller_export_leaves_no_stale_circuits(self, tmp_path):
        # 6 points then 2 into one directory equal a fresh 2-point export: only
        # the QASM files of points 2..5 go, and every other file stays as it was
        def export(points, out):
            assert main(["export-circuits", "--n", "2", "--points", str(points),
                         "--out", str(out)]) == 0

        def contents(root):
            return {p.name: p.read_bytes() for p in root.iterdir()}

        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        export(6, reused)
        assert len(contents(reused)) == 7
        others = {name: name.encode() for name in ("notes.txt", "ico_n2_t07.qasm",
                                                  "ico_n2_t9.qasm.bak", "ico_n3_t5.qasm")}
        for name, data in others.items():
            (reused / name).write_bytes(data)
        export(2, reused)
        export(2, fresh)
        assert contents(reused) == {**contents(fresh), **others}

    @pytest.mark.parametrize("broken", [("swap", (0, 1), None), ("h", (0, 1), None),
                                        ("cz", (1,), None), ("xx", (1, 2), None)])
    def test_broken_template_raises(self, tmp_path, monkeypatch, broken):
        monkeypatch.setattr(circuit, "_ICO_TEMPLATE", (*circuit._ICO_TEMPLATE, broken))
        with pytest.raises(ValueError):
            export_circuits(SweepConfig(n_list=[2], points=3, t_max=30.0), tmp_path)
        assert not list(tmp_path.iterdir())


class TestNoiseStudy:
    @pytest.mark.filterwarnings("ignore:no counts")
    def test_noiseless_consistency(self):
        cfg = SweepConfig(n_list=[2], points=5, t_max=30.0, shots=20000,
                          depolarizing_p=0.0, seed=9)
        cols = noise_study_rows(cfg)
        rows, shot_rows = rows_of(cols, cli.NOISE_FIELDS), rows_of(cols, cli.SHOT_FIELDS)
        assert len(rows) == len(shot_rows) == 5
        for row in rows:
            se = max(row["se_E"], 1e-4)
            assert abs(row["E_hat"] - row["E_ideal"]) <= 3 * se + 1e-9

    def test_depolarizing_overestimates_small_energy(self):
        # inflation p*(1/2 - E) shrinks as E approaches 1/2, so the 3-SE
        # separation needs enough shots near the top of the E < 0.4 range
        cfg = SweepConfig(n_list=[2], t_min=2.0, t_max=9.0, points=4,
                          shots=100000, depolarizing_p=0.05, seed=2)
        rows = rows_of(noise_study_rows(cfg), cli.NOISE_FIELDS)
        for row in rows:
            if row["E_ideal"] < 0.4:
                assert row["E_hat"] - row["E_ideal"] > 3 * row["se_E"]
                assert row["overestimates_E"]

    def test_requires_shots_and_noise(self):
        with pytest.raises(ConfigError):
            noise_study_rows(SweepConfig(n_list=[2], points=2))


class TestBootstrap:
    @pytest.mark.parametrize("shots", [1, 2, 7, 20000])
    @pytest.mark.parametrize("seed", [0, 1, 42, 10**9 + 3])
    def test_matches_per_resample_loop(self, shots, seed):
        rng = np.random.default_rng(seed)
        counts_vec = rng.multinomial(shots, [0.5, 0.2, 0.2, 0.1]).astype(float)
        got, got_empty, calls_warned = ref.run_counting_empty(
            cli._bootstrap_p_se, counts_vec[None], shots, [np.random.default_rng(seed)])
        want, want_empty, _ = ref.run_counting_empty(
            ref.bootstrap_p_se, counts_vec, shots, np.random.default_rng(seed), cli.BOOTSTRAP_RESAMPLES)
        assert got == [want] and got_empty == want_empty and calls_warned == (sum(want_empty) > 0)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunked_equals_unchunked(self, monkeypatch, chunk):
        # 20 rows, some with an empty branch or no excitations, scored 1, 3 or 7 rows per call
        rng = np.random.default_rng(3)
        counts = rng.multinomial(6, [0.4, 0.3, 0.2, 0.1], size=20).astype(float)
        seeds = range(100, 120)

        want, want_empty, _ = ref.run_counting_empty(
            lambda: [ref.bootstrap_p_se(c, 6, np.random.default_rng(s), cli.BOOTSTRAP_RESAMPLES)
                     for c, s in zip(counts, seeds)])
        real = circuit.estimate_counts
        for size in (cli.BOOTSTRAP_CHUNK, chunk):     # unchunked, then chunked
            calls = []
            monkeypatch.setattr(cli, "BOOTSTRAP_CHUNK", size)
            monkeypatch.setattr(circuit, "estimate_counts",
                                lambda draws, shots: calls.append(len(draws)) or real(draws, shots))
            got = ref.run_counting_empty(cli._bootstrap_p_se, counts, 6,
                                         map(np.random.default_rng, seeds))
            assert got == (want, want_empty, len(calls)) and min(want_empty) > 0
        assert calls == [len(part) * cli.BOOTSTRAP_RESAMPLES
                         for part in np.array_split(counts, range(chunk, 20, chunk))]

    def test_defined_and_partly_undefined_rows_share_a_chunk(self):
        # at 20 shots, balanced rows define P in every resample, rows with one
        # excitation in only some of them, and a row with none in none
        counts = np.array([[5, 5, 5, 5], [18, 1, 1, 0], [6, 4, 7, 3], [19, 0, 1, 0],
                           [10, 0, 9, 1], [4, 6, 5, 5]], dtype=float)
        seeds = range(30, 36)
        defined = [int(np.count_nonzero(draw[:, 1] + draw[:, 3]))
                   for draw in (np.random.default_rng(s).multinomial(
                       20, c / 20, size=cli.BOOTSTRAP_RESAMPLES) for c, s in zip(counts, seeds))]
        assert defined[0] == defined[2] == defined[5] == cli.BOOTSTRAP_RESAMPLES
        assert 1 < defined[1] < cli.BOOTSTRAP_RESAMPLES and defined[3] == 0
        assert 1 < defined[4] < cli.BOOTSTRAP_RESAMPLES
        got, got_empty, calls_warned = ref.run_counting_empty(
            cli._bootstrap_p_se, counts, 20, (np.random.default_rng(s) for s in seeds))
        want, want_empty, _ = ref.run_counting_empty(
            lambda: [ref.bootstrap_p_se(c, 20, np.random.default_rng(s), cli.BOOTSTRAP_RESAMPLES)
                     for c, s in zip(counts, seeds)])
        assert got == want and got[3] is None and got_empty == want_empty and calls_warned == 1

    def test_chunk_bounds_draws_per_call(self):
        assert cli.BOOTSTRAP_CHUNK * 4 * cli.BOOTSTRAP_RESAMPLES <= cli.CHUNK_AMPLITUDES
        assert 30 <= cli.BOOTSTRAP_CHUNK    # the 30-point circuit study is still one call

    @pytest.mark.parametrize("shots, depol_p", [(1, 0.05), (3, 0.0), (40, 0.2)])
    def test_noise_study_warning_count_unchanged(self, shots, depol_p):
        # one warning a call (two calls), against the reference's one a branch
        cfg = SweepConfig(n_list=[2], points=12, t_max=30.0, shots=shots,
                          depolarizing_p=depol_p, seed=5)
        cols, empty, calls_warned = ref.run_counting_empty(noise_study_rows, cfg)
        want, want_empty, _ = ref.run_counting_empty(ref.noise_study, cols, shots)
        assert python_values(cols["se_P"]) == [se_p for _, se_p in want]
        assert sum(want_empty) > 0 and empty == want_empty and 1 <= calls_warned <= 2


def test_write_csv_matches_per_cell_formatting(tmp_path):
    edge_values = {
        "f64": np.array([np.nan, 0.0, -0.0, 1e-05, 1e16, 1 / 3, 2.5e-300, -np.inf]),
        "f32": np.array([0.1, np.nan, -0.0], dtype=np.float32),
        "flag": np.array([True, False, False]),
        "count": np.array([0, -3, 7, 2**62], dtype=np.int64),
        "text": np.array(["", "ico_n2_t0.qasm"]),
    }
    names = tuple(edge_values)
    # a few rows, and one row more than a write block
    for length in (21, cli.WRITE_BLOCK + 1):
        columns = {k: np.resize(v, length) for k, v in edge_values.items()}
        columns["listed"] = [f"ico_n2_t{i}.qasm" for i in range(length)]
        cli.write_csv(tmp_path / "fast.csv", names + ("listed",), columns)
        reference_csv(tmp_path / "slow.csv", names + ("listed",), columns)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_write_csv_rejects_cells_that_need_quoting(tmp_path):
    # no cell is quoted: a comma, quote or line break in a field name or a
    # string cell is an error raised before the file is opened, and so is a
    # file of one column, whose row of one empty cell would read as no row
    def rejects(names, columns, match):
        with pytest.raises(ValueError, match=match):
            cli.write_csv(tmp_path / "bad.csv", names, columns)
        assert not (tmp_path / "bad.csv").exists()

    for bad in ("a\rb", "a\nb", "\r\n", 'say "hi"', "é,ü", ","):
        rejects(("t", "s"), {"t": np.arange(3), "s": ["plain", bad, ""]}, "column 's'")
        rejects(("t", "s"), {"t": np.arange(3), "s": np.array(["", "x", bad])}, "column 's'")
        rejects(("t", "s" + bad), {"t": np.arange(3), "s" + bad: np.arange(3)},
                re.escape(repr("s" + bad)))
    # a bad cell past the first write block still leaves no file
    long = [f"ico_n2_t{i}.qasm" for i in range(cli.WRITE_BLOCK)] + ["x,y"]
    rejects(("t", "filename"), {"t": np.arange(len(long)), "filename": long}, "'filename'")
    for names, columns in ((("only",), {"only": ["", "x", ""]}),
                           (("f",), {"f": np.array([np.nan, 1.5, np.nan])}),
                           (("",), {"": np.array([1, 2])})):
        rejects(names, columns, "at least two columns")
    # what needs no quoting is written as csv.writer writes it
    text = [" x ", "", "plain", "é", "ico_n2_t7.qasm"]
    columns = {"s": text, "f": np.array([np.nan, 1.5, np.nan, -0.0, 2.0])}
    cli.write_csv(tmp_path / "fast.csv", ("s", "f"), columns)
    reference_csv(tmp_path / "slow.csv", ("s", "f"), columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("engine", ["numeric", "analytic", "both"])
@pytest.mark.parametrize("n_list, points, t_min", [
    ([3, 32, 2], 50, 0.3),     # one batch of three charger counts
    ([3, 2], 20000, 0.3),      # each grid split into WRITE_BLOCK-row time blocks
    ([2, 5], 40, 0.0),         # a grid that starts at t = 0
])
def test_sweep_csv_equals_per_cell_reference(tmp_path, engine, n_list, points, t_min):
    # sweep formats each N and, on a grid that fits in a batch, each t once;
    # the reference formats every cell of the engines' columns on its own
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", ",".join(map(str, n_list)), "--points", str(points),
                 "--t-min", repr(t_min), "--engine", engine, "--out", str(out)]) == 0
    reference_sweep_csv(tmp_path / "ref.csv",
                        SweepConfig(n_list=n_list, points=points, t_min=t_min, engine=engine))
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_long_grid_rows_equal_a_two_point_grids_rows(tmp_path):
    # a row's bits do not depend on how many rows share the flattened products: the
    # first and last row of each N of a 2 x 20000-point sweep, whose batches multiply
    # 6 * 16384 states at once, equal the rows of a 2-point sweep over the same t
    # range, whose one batch multiplies 12; neither end of the range is t = 0 or a
    # full period, where every quantity is exact
    def lines(points):
        out = tmp_path / f"{points}.csv"
        assert main(["sweep", "--n", "3,2", "--points", str(points), "--t-min", "0.3",
                     "--t-max", "97.1", "--engine", "both", "--out", str(out)]) == 0
        return out.read_text().splitlines()

    long = lines(20000)
    assert [long[1], long[20000], long[20001], long[40000]] == lines(2)[1:]


@pytest.mark.filterwarnings("ignore:no counts")
def test_noise_csvs_equal_per_cell_reference(tmp_path):
    # the five columns both files hold are formatted once and written twice
    out = tmp_path / "noise.csv"
    assert main(["noise-study", "--n", "2", "--points", "40", "--t-min", "0", "--shots", "50",
                 "--depol-p", "0.05", "--seed", "7", "--out", str(out)]) == 0
    cols = noise_study_rows(SweepConfig(n_list=[2], points=40, t_min=0.0, shots=50,
                                        depolarizing_p=0.05, seed=7))
    for path, names in ((out, cli.NOISE_FIELDS), (tmp_path / "noise_shots.csv", cli.SHOT_FIELDS)):
        reference_csv(tmp_path / "ref.csv", names, cols)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_three_shot_noise_study_warns_once_per_estimate_call(tmp_path, monkeypatch):
    # one warning for the point estimate and one for each of two BOOTSTRAP_CHUNK calls
    monkeypatch.setattr(cli, "BOOTSTRAP_CHUNK", 100)
    args = "noise-study --n 2 --t-min 0 --points 200 --shots 3 --depol-p 0.0 --out".split()
    code, empty, calls_warned = ref.run_counting_empty(main, [*args, str(tmp_path / "noise.csv")])
    shot_rows = np.genfromtxt(tmp_path / "noise_shots.csv", delimiter=",", names=True)
    want_empty = ref.run_counting_empty(ref.noise_study, shot_rows, 3)[1]
    assert (code, calls_warned, len(shot_rows)) == (0, 3, 200)
    assert min(empty) > 0 and empty == want_empty


@pytest.mark.filterwarnings("ignore:no counts")
def test_noise_study_writes_exact_seeds_past_2_63(tmp_path):
    # seed .. seed + 2 mixes int64 and uint64 values, which a default numpy
    # array would turn into one float64 for every row
    seed = 2**63 - 2
    out = tmp_path / "noise.csv"
    assert main(["noise-study", "--n", "2", "--points", "3", "--shots", "100", "--depol-p",
                 "0.05", "--seed", str(seed), "--out", str(out)]) == 0
    for path in (out, tmp_path / "noise_shots.csv"):
        with open(path, newline="") as fh:
            assert [row["seed"] for row in csv.DictReader(fh)] == [str(seed + i) for i in range(3)]


@pytest.mark.parametrize("args", [["--n", "2,3,4,5", "--points", "400", "--engine", "both"],
                                  ["--n", "7,3", "--points", "5", "--t-min", "0", "--tau", "0"],
                                  ["--n", ",".join(map(str, range(2, 33))), "--points", "400",
                                   "--engine", "analytic"]])
def test_bursts_json_is_json_dumps_indented(tmp_path, args):
    out = tmp_path / "b.json"
    assert main(["bursts", *args, "--out", str(out)]) == 0
    report = burst_report(cli.build_config(cli._parser().parse_args(["bursts", *args])))
    text = out.read_text()
    assert text == json.dumps(report, indent=2) + "\n"
    # and so it round-trips through json
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.filterwarnings("ignore:no counts")
def test_cached_parser_carries_no_state(tmp_path, capsys):
    # the second sweep leaves --engine (both) and --t-min at their defaults
    commands = [
        ["sweep", "--n", "2,3", "--points", "25", "--engine", "numeric", "--t-min", "0.5",
         "--out", "sweep.csv"],
        ["bursts", "--n", "2,3", "--points", "60", "--engine", "analytic", "--out", "bursts.json"],
        ["export-circuits", "--n", "2", "--points", "5", "--out", "circuits"],
        ["noise-study", "--n", "2", "--points", "6", "--shots", "500", "--depol-p", "0.05",
         "--seed", "3", "--out", "noise.csv"],
        ["sweep", "--n", "4", "--points", "9", "--out", "sweep_again.csv"],
    ]

    def run(cmd, out_dir):
        return main([str(out_dir / a) if prev == "--out" else a
                     for prev, a in zip([None] + cmd, cmd)])

    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir(), alone.mkdir()
    cli._parser.cache_clear()
    for i, cmd in enumerate(commands):
        assert run(cmd, together) == 0
        if i == 1:
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--help"])
            assert exc.value.code == 0
        if i == 2:
            assert main(["sweep", "--n", "2", "--points", "1", "--out", "x.csv"]) == 2
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--n", "2", "--engine", "magic"])
            assert exc.value.code == 2
    assert cli._parser.cache_info().misses == 1
    for cmd in commands:
        cli._parser.cache_clear()
        assert run(cmd, alone) == 0
    capsys.readouterr()
    files = sorted(p.relative_to(alone) for p in alone.rglob("*") if p.is_file())
    assert len(files) == 3 + 6 + 2   # 2 sweeps and bursts, 5 circuits and manifest, 2 noise files
    assert sorted(p.relative_to(together) for p in together.rglob("*") if p.is_file()) == files
    for rel in files:
        assert (together / rel).read_bytes() == (alone / rel).read_bytes(), rel


# The flags each command reads beyond those all of them read (--config, --n,
# --omega, --lambda, --t-min, --t-max, --points and --out), with a valid value.
OWN_FLAGS = {"sweep": {"--engine": "analytic"},
             "bursts": {"--engine": "analytic", "--tau": "0.5", "--eps-dco": "1e-9"},
             "export-circuits": {},
             "noise-study": {"--shots": "5", "--depol-p": "0.1", "--seed": "3"}}
OUT_NAMES = {"bursts": "out.json", "export-circuits": "out"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in OWN_FLAGS
    for flag in sorted(set().union(*OWN_FLAGS.values()) - OWN_FLAGS[command].keys())])
def test_foreign_flag_exits_2_naming_it(tmp_path, monkeypatch, capsys, command, flag):
    def engine(*args, **kwargs):
        raise AssertionError("a foreign flag must be rejected before any engine runs")

    for owner, name in ENGINES:
        monkeypatch.setattr(owner, name, engine)
    value = next(own[flag] for own in OWN_FLAGS.values() if flag in own)
    argv = [command, "--n", "2", "--points", "3", *itertools.chain(*OWN_FLAGS[command].items()),
            flag, value, "--out", str(tmp_path / OUT_NAMES.get(command, "out.csv"))]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {flag} {value}" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore:no counts")
@pytest.mark.parametrize("command", OWN_FLAGS)
def test_config_file_may_hold_any_key(tmp_path, command):
    # one file shared by every command: each takes the keys it reads and ignores the rest
    config = tmp_path / "shared.json"
    config.write_text(json.dumps({"n_list": [2], "points": 3, "engine": "analytic", "tau": 0.5,
                                  "eps_dco": 1e-9, "shots": 5, "depolarizing_p": 0.1,
                                  "seed": 3}))
    out = tmp_path / OUT_NAMES.get(command, "out.csv")
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["--help"], 0), (["-h"], 0), (["bogus"], 2), (["bogus", "--help"], 2),
    (["--n", "2", "sweep"], 2), *(([command, "--help"], 0) for command in OWN_FLAGS)])
def test_front_end_exit_codes(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    # the top-level parser answers unless argv starts with a command
    usage = f"usage: icobattery {argv[0]} " if argv and argv[0] in OWN_FLAGS else \
        "usage: icobattery [-h] {sweep,bursts,export-circuits,noise-study} ...\n"
    assert (out if code == 0 else err).startswith(usage)


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    out = tmp_path / "s.csv"
    monkeypatch.setattr(sys, "argv", ["icobattery", "sweep", "--n", "2", "--points", "3",
                                      "--engine", "analytic", "--out", str(out)])
    assert main() == 0
    assert len(out.read_text().splitlines()) == 4


class TestMain:
    def test_sweep_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--n", "2", "--points", "12", "--engine", "analytic"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "2", "--points", "3", "--engine", "both",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("N,t,E,W_ico,P_ico,W_dco,P_dco,p1,"
                            "passive_k1,passive_dco,max_engine_dev")
        assert len(lines) == 4
        # undefined efficiency at t=0 serialized as empty cells
        first = lines[1].split(",")
        assert first[4] == "" and first[6] == ""

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_list": [2], "points": 3, "engine": "analytic"}))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg_path), "--points", "5",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["sweep", "--n", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_out_is_config_error(self, monkeypatch, capsys):
        def engine(*args, **kwargs):
            raise AssertionError("--out must be checked before any engine runs")

        for owner, name in ENGINES:
            monkeypatch.setattr(owner, name, engine)
        for args in (["sweep", "--n", "2", "--points", "3"],
                     ["sweep", "--n", "2,3", "--points", "3", "--engine", "numeric"],
                     ["bursts", "--n", "2,3", "--points", "3"],
                     ["noise-study", "--n", "2", "--points", "3", "--shots", "10",
                      "--depol-p", "0.1"]):
            assert main(args) == 2, args
            assert capsys.readouterr().err == "error: an output path is required (--out)\n"

    def test_bursts_json(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bursts", "--n", "2,3", "--points", "40",
                     "--engine", "analytic", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["monotonicity_verdict"] == "pass"

    def test_noise_study_outputs(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert main(["noise-study", "--n", "2", "--points", "3", "--t-max", "20",
                     "--shots", "2000", "--depol-p", "0.05", "--seed", "1",
                     "--out", str(out)]) == 0
        shots = (tmp_path / "noise_shots.csv").read_text().splitlines()
        assert shots[0] == "t,theta,phi,shots,seed,c_pg,c_pe,c_mg,c_me"
        assert len(shots) == 4
        row = shots[1].split(",")
        assert sum(int(c) for c in row[5:]) == 2000


@pytest.mark.filterwarnings("ignore:no counts")
@pytest.mark.parametrize("args, target", [
    (["sweep", "--n", "2", "--engine", "analytic", "--out", "{tmp}/out.csv"], "out.csv"),
    (["bursts", "--n", "2", "--engine", "analytic", "--out", "{tmp}/out.json"], "out.json"),
    (["noise-study", "--n", "2", "--shots", "10", "--depol-p", "0.1", "--out", "{tmp}/n.csv"],
     "n_shots.csv"),
    (["export-circuits", "--n", "2", "--out", "{tmp}"], "manifest.csv"),
])
def test_write_error_exits_2_naming_the_path(tmp_path, capsys, args, target):
    # a dangling symlink passes every check made before the run and fails at open
    # (a read-only directory would not fail when run as root)
    (tmp_path / target).symlink_to(tmp_path / "nonexistent" / "x.csv")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args] + ["--points", "3"]
    assert main(argv) == 2
    path = str(tmp_path / target)
    assert capsys.readouterr().err == (f"error: cannot write {path!r}: "
                                       f"{os.strerror(errno.ENOENT)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.filterwarnings("ignore:no counts")
@pytest.mark.parametrize("args, target", [
    (["noise-study", "--n", "2", "--shots", "10", "--depol-p", "0.1", "--out", "{tmp}/n.csv"],
     "n_shots.csv"),
    (["export-circuits", "--n", "2", "--out", "{tmp}"], "ico_n2_t1.qasm"),
])
def test_write_error_naming_no_file_exits_2_naming_the_path(tmp_path, capsys, args, target):
    # a link to /dev/full opens, and fails at write or close with an error that names
    # no file; the file that failed is named, not --out
    (tmp_path / target).symlink_to("/dev/full")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args] + ["--points", "3"]
    assert main(argv) == 2
    path = str(tmp_path / target)
    assert capsys.readouterr().err == (f"error: cannot write {path!r}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.filterwarnings("ignore:no counts")
def test_noise_study_one_shot_writes_no_nan(tmp_path):
    # one shot leaves at most one resample with a defined efficiency, so
    # its standard error is undefined and written as an empty cell
    out = tmp_path / "noise.csv"
    assert main(["noise-study", "--n", "2", "--points", "3", "--shots", "1",
                 "--depol-p", "0.05", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["se_P"] for row in rows] == ["", "", ""]


def _finite_outputs(root: Path) -> list[str]:
    """Every numeric CSV cell and JSON number under root that is nan or inf."""
    bad = []
    for path in root.rglob("*"):
        if path.suffix == ".csv":
            for row in csv.reader(path.read_text().splitlines()):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        bad.append(f"{path.name}: {cell}")
        elif path.suffix == ".json":
            json.loads(path.read_text(),
                       parse_constant=lambda c: bad.append(f"{path.name}: {c}"))
    return bad


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ANY_VALUE = {
    "--n": st.lists(st.integers(-1, 7), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns))),
    "--points": st.integers(-1, 6), "--shots": st.integers(-2, 300),
    "--seed": st.integers(-3, 2 ** 40),
    "--engine": st.sampled_from(["numeric", "analytic", "both", "magic"]),
    **{flag: _ANY_FLOAT for flag in ("--omega", "--lambda", "--t-min", "--t-max",
                                     "--tau", "--eps-dco", "--depol-p")},
}


@st.composite
def cli_arguments(draw):
    """A valid command line for one subcommand, with up to two options then
    replaced by arbitrary values (negative, zero, nan, inf, huge, ...); only
    the command's own flags are drawn."""
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    single_n = command in ("export-circuits", "noise-study")
    n_list = st.just([2]) if single_n else st.lists(st.integers(2, 7), min_size=1, max_size=3)
    opts = {"--points": draw(st.integers(2, 6)), "--n": ",".join(map(str, draw(n_list)))}
    if command == "noise-study":
        opts["--shots"] = draw(st.integers(1, 300))
        opts["--depol-p"] = draw(st.floats(0.0, 1.0))
    optional = {"--engine": st.sampled_from(["numeric", "analytic", "both"]),
                "--omega": st.floats(0.05, 3.0), "--lambda": st.floats(0.02, 1.0),
                "--t-min": st.floats(0.0, 50.0), "--t-max": st.floats(60.0, 150.0),
                "--tau": st.floats(-1.0, 2.0), "--eps-dco": st.floats(0.0, 1e-3),
                "--seed": st.integers(0, 2 ** 40)}
    foreign = set().union(*OWN_FLAGS.values()) - OWN_FLAGS[command].keys()
    for flag in draw(st.lists(st.sampled_from(sorted(optional.keys() - foreign)), unique=True)):
        opts[flag] = draw(optional[flag])
    for flag in draw(st.lists(st.sampled_from(sorted(_ANY_VALUE.keys() - foreign)), max_size=2,
                              unique=True)):
        opts[flag] = draw(_ANY_VALUE[flag])
    args = [command]
    for flag, value in opts.items():
        args += [flag, value if isinstance(value, str) else repr(value)]
    return args


@given(args=cli_arguments())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:no counts")
def test_cli_arguments_exit_cleanly_without_nan(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / {"bursts": "out.json", "export-circuits": "out"}.get(args[0], "out.csv")
        try:
            code = main(args + ["--out", str(out)])
        except SystemExit as exc:     # argparse rejects the argument list
            code = exc.code
        assert code in (0, 2, 3)
        if code == 0:
            assert _finite_outputs(Path(tmp)) == []


# omega, lambda, --t-min and --t-max from anywhere in binary64: the edges of
# the subnormal and normal ranges, omega's precision floor, 0, inf, NaN and
# negatives, or left out (None)
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 4.4e-299, 4.5e-299, 1e-9,
                1.0, sys.float_info.max, math.inf, -math.inf, math.nan]
_WHOLE_RANGE = st.one_of(st.none(), st.sampled_from(_EDGE_FLOATS), st.floats())


@st.composite
def whole_range_arguments(draw):
    """A command line of any command at N in {2, 3, 7} and 3 points, whose
    omega, lambda, --t-min and --t-max are drawn from the whole binary64
    range; each is passed as --flag=value, so a negative one reaches float."""
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    n = draw(st.sampled_from(["2", "3", "7", "2,3,7"])) if command in ("sweep", "bursts") else "2"
    args = [command, "--n", n, "--points", "3"]
    if command in ("sweep", "bursts"):
        args += ["--engine", draw(st.sampled_from(["numeric", "analytic", "both"]))]
    if command == "noise-study":
        args += ["--shots", "20", "--depol-p", "0.05"]
    for flag in ("--omega", "--lambda", "--t-min", "--t-max"):
        value = draw(_WHOLE_RANGE)
        if value is not None:
            args.append(f"{flag}={value!r}")
    return args


@given(args=whole_range_arguments())
@example(args=["bursts", "--n", "7", "--points", "3", "--engine", "numeric",     # t* overflows
               "--lambda=2.2250738585072014e-308", "--t-max=5e-324"])
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:no counts")
def test_whole_float_range_exits_0_2_or_3(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / {"bursts": "out.json", "export-circuits": "out"}.get(args[0], "out.csv")
        try:
            code = main(args + ["--out", str(out)])
        except SystemExit as exc:     # argparse rejects the argument list
            code = exc.code
        assert code in (0, 2, 3)
        if code == 0:
            assert _finite_outputs(Path(tmp)) == []
