import argparse
import contextlib
import io
import math
import os
import resource
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_contract import _EDGES, _HUGE_INT

import uavlos
from uavlos import cli, harness, sim3d
from uavlos.baselines import GridProduct, evaluate
from uavlos.citygeom import ENVIRONMENTS, derive_layout, roof_heights
from uavlos.cli import _parse_extent, _parse_grid, build_parser, main
from uavlos.errors import IllegalSpec, InvalidParams, ParseError
from uavlos.sim3d import generate_city, load_city

URBAN = ENVIRONMENTS["urban"]


def run_cli(*argv):
    return main([str(a) for a in argv])


# -- argument parsing helpers -------------------------------------------------

def test_parse_grid_forms():
    assert _parse_grid("10,20,45") == (10.0, 20.0, 45.0)
    assert _parse_grid("10:30:10") == (10.0, 20.0, 30.0)
    assert _parse_grid("5:90:5") == tuple(float(v) for v in range(5, 95, 5))
    assert _parse_grid("0.1:0.3:0.1") == (0.1, 0.2, 0.3)  # no float-accumulation dropouts
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_grid("abc")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_grid("10:20:0")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_grid(",")


@pytest.mark.parametrize("grid", ["1:90:1e-7", "1e300:1e300:1", "0:inf:1"])
def test_overlong_grid_ranges_exit_two_at_once(tmp_path, capsys, grid):
    # Too many values, or a range whose values stop growing, is refused
    # while it expands; the alarm only turns a hang into a failure.
    def hang(signum, frame):
        raise TimeoutError(f"grid {grid} still expanding after 1 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(SystemExit) as exc:
            run_cli("plos-vs-theta", "--env", "urban", "--theta-grid", grid, "--seed", "1",
                    "--out", tmp_path / "out.csv")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert exc.value.code == 2
    assert f"more than {cli.MAX_GRID_VALUES} values" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_grid_ranges_keep_every_value_up_to_the_bound():
    assert cli.MAX_GRID_VALUES == 10_000
    assert _parse_grid("1:10000:1") == tuple(float(v) for v in range(1, 10_001))
    with pytest.raises(argparse.ArgumentTypeError, match="more than 10000 values"):
        _parse_grid("1:10001:1")


def test_parse_extent_forms():
    assert _parse_extent("3000") == (3000.0, 3000.0)
    assert _parse_extent("1000x2000") == (1000.0, 2000.0)
    assert _parse_extent("1000m") == (1000.0, 1000.0)
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_extent("wide")


def test_parser_rejects_unknown_flags_and_commands():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["plos-vs-theta", "--bogus", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fly"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["plos-vs-theta", "--env", "atlantis"])


_THETAS = tuple(float(t) for t in range(5, 95, 5))
_PARAMS = {"env": "urban", "alpha": None, "beta": None, "gamma": None,
           "extent": (3000.0, 3000.0), "seed": 1}
_SWEEP = {"engine": "geom", "runs": 1000, "uav_policy": "random", "rx_height": 1.5,
          "n_users": 360, "user_zone": "mixed", "models": None, "timing": False}
_FLAGS = ["--env", "--alpha", "--beta", "--gamma", "--extent", "--seed", "--out"]
_SWEEP_FLAGS = ["--uav-policy", "--rx-height", "--n-users", "--user-zone", "--models",
                "--timing"]

# Each subcommand's option flags in help order, and what it resolves
# `<cmd> --env urban --seed 1` to.
TABLE = {
    "plos-vs-theta": (
        _FLAGS + ["--engine", "--runs", "--theta-grid", "--uav-height"] + _SWEEP_FLAGS,
        {**_PARAMS, **_SWEEP, "out": "plos_vs_theta.csv", "theta_grid": _THETAS,
         "uav_height": 100.0},
    ),
    "plos-vs-radius": (
        _FLAGS + ["--engine", "--runs", "--radius-grid", "--altitudes"] + _SWEEP_FLAGS,
        {**_PARAMS, **_SWEEP, "out": "plos_vs_radius.csv",
         "radius_grid": tuple(float(r) for r in range(50, 1050, 50)),
         "altitudes": (100.0, 200.0, 500.0)},
    ),
    "heatmap": (
        _FLAGS + ["--engine", "--runs", "--theta-grid", "--phi-grid", "--uav-height"]
        + _SWEEP_FLAGS,
        {**_PARAMS, **_SWEEP, "out": "heatmap.csv", "theta_grid": _THETAS,
         "phi_grid": tuple(float(p) for p in range(0, 95, 5)), "uav_height": 100.0,
         "user_zone": "street"},
    ),
    "param-surface": (
        _FLAGS + ["--engine", "--runs", "--gamma-grid", "--theta-grid", "--uav-height"]
        + _SWEEP_FLAGS,
        {**_PARAMS, **_SWEEP, "out": "param_surface.csv",
         "gamma_grid": tuple(float(g) for g in range(5, 55, 5)), "theta_grid": _THETAS,
         "uav_height": 100.0},
    ),
    "export-city": (_FLAGS, {**_PARAMS, "out": "city.txt"}),
    "compare": (
        _FLAGS + ["--thetas", "--runs-3d", "--runs-geom", "--uav-height", "--rx-height",
                  "--n-users", "--models"],
        {**_PARAMS, "out": "compare.csv",
         "thetas": tuple(float(t) for t in range(10, 90, 10)), "runs_3d": 500,
         "runs_geom": 1000, "uav_height": 100.0, "rx_height": 1.5, "n_users": 360,
         "models": None},
    ),
}


@pytest.mark.parametrize("cmd", list(TABLE))
def test_each_subcommand_has_its_flags_and_defaults(cmd):
    flags, resolved = TABLE[cmd]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[cmd]._actions
    assert [a.option_strings[-1] for a in actions if a.dest != "help"] == flags + ["--config"]
    opts = cli._resolve_options(cli._parse_args([cmd, "--env", "urban", "--seed", "1"]))
    assert {dest: opts[dest] for dest in resolved} == resolved
    assert list(cli._SUBCOMMANDS) == list(TABLE)


# -- exit codes and output hygiene --------------------------------------------

def parsed_or_exited(parse, argv):
    """What parse(argv) prints and gives: (stdout, stderr, exit code or
    the namespace's sorted items by repr, so that NaN values compare
    equal)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = repr(sorted(vars(parse(argv)).items()))
    except SystemExit as exc:
        outcome = exc.code
    return out.getvalue(), err.getvalue(), outcome


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], *([cmd, "-h"] for cmd in cli._SUBCOMMANDS),
    ["nosuch", "--seed", "1"], [], ["--seed", "1"],
    ["heatmap", "--bad", "1"], ["heatmap", "extra"], ["heatmap", "--seed", "1", "--", "x"],
    ["heatmap", "--env", "nowhere"], ["heatmap", "--seed", "x"],
    ["heatmap", "--theta-grid", "10:5:0"], ["plos-vs-theta", "--runs"],
    ["heatmap", "--he"], ["compare", "--seed", "3", "--env", "urban", "--thetas", "10,20"],
    ["export-city", "--env", "urban", "--seed", "2"],
    ["heatmap", "--runs", "-1"], ["heatmap", "--uav-height", "-inf"], ["heatmap", "--seed=1"],
    ["heatmap", "--se", "1"], ["heatmap", "--timing", "yes"], ["heatmap", "--timing", "--timing"],
    ["heatmap", "--seed", "1", "--seed", "2"], ["heatmap", "--seed", "2", "--seed", "x"],
    ["heatmap", "--user-zone", "moon"], ["heatmap", "--out", ""], ["heatmap", "--config"],
    ["export-city", "--runs", "5"], ["param-surface", "--gamma", "5", "--gamma-grid", "5,10"],
    ["plos-vs-theta", "--seed", _HUGE_INT, "--extent", "3000x"],
    ["compare", "--runs-3d", "nan"], ["heatmap", "heatmap"],
])
def test_main_parses_as_the_full_parser(argv):
    # A clean line is read from the subcommand table and anything else
    # goes to the full parser, so what main prints, exits with and parses
    # is what the full parser gives.
    expected = parsed_or_exited(build_parser().parse_args, argv)
    assert parsed_or_exited(cli._parse_args, argv) == expected
    assert expected[2] in (0, 2) or isinstance(expected[2], str)


#: Each flag's values: the contract test's edge values, and the
#: "-"-prefixed numbers and flags and the stray words that only the full
#: parser may read.
_EDGE_VALUES = {dest: _EDGES.get(dest, st.just("run.cfg")).filter(lambda v: isinstance(v, str))
                for dest in cli._OPTS if dest != "timing"}
_ODD_VALUES = st.sampled_from(["-1", "-inf", "-", "--", "--seed", "-h", "", "extra", "heatmap"])


@st.composite
def any_command_lines(draw):
    """A subcommand, or an unknown one, then up to six flags.  A clean
    line gives its own flags edge values; any other line may also give
    two other commands' flags, odd values, and abbreviated, bare or
    --flag=value forms, help, "--" and stray words."""
    cmd = draw(st.sampled_from([*cli._SUBCOMMANDS, "nosuch"]))
    dests = [*cli._SUBCOMMANDS.get(cmd, {"opts": []})["opts"], "config"]
    clean = draw(st.booleans())
    if not clean:
        dests += ["runs_3d", "phi_grid"]
    argv = [cmd]
    for _ in range(draw(st.integers(0, 6))):
        dest = draw(st.sampled_from(dests))
        flag = "--" + dest.replace("_", "-")
        if dest == "timing":
            argv.append(flag)
            continue
        value = draw(_EDGE_VALUES[dest] if clean else st.one_of(_EDGE_VALUES[dest], _ODD_VALUES))
        form = "pair" if clean else draw(st.sampled_from(
            ["pair", "pair", "bare", "abbrev", "equals", "other"]))
        if form == "pair":
            argv += [flag, value]
        elif form == "bare":
            argv.append(flag)
        elif form == "abbrev":
            argv += [flag[:draw(st.integers(3, len(flag) - 1))], value]
        elif form == "equals":
            argv.append(f"{flag}={value}")
        else:
            argv.append(draw(st.sampled_from(["-h", "--help", "--", "extra", "--bogus"])))
    return argv


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(argv=any_command_lines())
def test_any_command_line_parses_as_the_full_parser(argv):
    expected = parsed_or_exited(build_parser().parse_args, argv)
    assert parsed_or_exited(cli._parse_args, argv) == expected


@pytest.mark.parametrize("argv", [
    ["plos-vs-theta", "--engine", "geom", "--env", "urban", "--user-zone", "mixed",
     "--runs", "2000", "--seed", "1", "--out", "out.csv"],
    ["compare", "--env", "urban", "--runs-3d", "150", "--runs-geom", "6000", "--seed", "1",
     "--out", "out.csv"],
    ["heatmap", "--engine", "geom", "--env", "high-rise", "--user-zone", "street",
     "--theta-grid", "5:85:5", "--phi-grid", "0:90:10", "--runs", "200", "--seed", "1",
     "--out", "out.csv"],
    ["plos-vs-theta", "--env", "urban", "--seed", "1", "--timing"],
    ["export-city", "--config", "city.cfg", "--seed", "2"],
], ids=["geom-theta-sweep", "compare-urban", "heatmap-highrise-street", "timing", "config"])
def test_clean_command_lines_build_no_parser(monkeypatch, argv):
    expected = parsed_or_exited(build_parser().parse_args, argv)

    def refuse(*args):
        pytest.fail("a clean command line built an argparse parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert parsed_or_exited(cli._parse_args, argv) == expected


def test_seed_is_required(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli("plos-vs-theta", "--env", "urban", "--out", out)
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_env_and_explicit_params_conflict(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("plos-vs-theta", "--env", "urban", "--alpha", "0.3",
                   "--seed", "1", "--out", out) == 2
    assert run_cli("plos-vs-theta", "--alpha", "0.3", "--beta", "500",
                   "--seed", "1", "--out", out) == 2  # gamma missing
    assert run_cli("plos-vs-theta", "--seed", "1", "--out", out) == 2  # no environment
    assert not out.exists()


def test_bad_config_leaves_no_output(tmp_path):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "run.cfg"

    cfg.write_text("runs 50\n")
    assert run_cli("plos-vs-theta", "--env", "urban", "--seed", "1",
                   "--out", out, "--config", cfg) == 2

    cfg.write_text("warp=9\n")
    assert run_cli("plos-vs-theta", "--env", "urban", "--seed", "1",
                   "--out", out, "--config", cfg) == 2

    cfg.write_text("runs=fifty\n")
    assert run_cli("plos-vs-theta", "--env", "urban", "--seed", "1",
                   "--out", out, "--config", cfg) == 2

    cfg.write_text("runs=50\nruns=60\n")
    assert run_cli("plos-vs-theta", "--env", "urban", "--seed", "1",
                   "--out", out, "--config", cfg) == 2

    cfg.write_text("env = nowhere\n")
    assert run_cli("plos-vs-theta", "--seed", "1", "--out", out, "--config", cfg) == 2

    assert run_cli("plos-vs-theta", "--env", "urban", "--seed", "1",
                   "--out", out, "--config", tmp_path / "absent.cfg") == 2

    assert not out.exists()
    assert list(tmp_path.iterdir()) == [cfg]


def test_bad_model_set_is_a_config_error(tmp_path):
    out = tmp_path / "x.csv"
    models = tmp_path / "models.txt"
    models.write_text("wobble a=1\n")
    code = run_cli("plos-vs-theta", "--env", "urban", "--seed", "1", "--runs", "20",
                   "--theta-grid", "45", "--out", out, "--models", models)
    assert code == 2
    assert not out.exists()


def test_unknown_baseline_engine_is_a_config_error(tmp_path):
    out = tmp_path / "x.csv"
    code = run_cli("plos-vs-theta", "--env", "urban", "--seed", "1",
                   "--engine", "baseline:nope", "--theta-grid", "45", "--out", out)
    assert code == 2
    assert not out.exists()


def test_runtime_failure_exits_one(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    code = run_cli("plos-vs-theta", "--env", "urban", "--seed", "1", "--runs", "20",
                   "--theta-grid", "45", "--out", out)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # The output path is a directory: the rename fails, and the temp file
    # written next to it goes too.
    out = tmp_path / "out.csv"
    out.mkdir()
    for argv in (_GEOM, ("export-city", "--env", "urban", "--extent", "1000"),
                 _COMPARE):
        assert run_cli(*argv, "--seed", "1", "--out", out) == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("grid", [("--theta-grid", "45,0.01"),
                                  ("--radius-grid", "100,300000")])
def test_overlong_geom_track_exits_two_before_any_point(tmp_path, capsys, monkeypatch, grid):
    # One grid point's track exceeds the geometry engine's memory bound;
    # the spec is refused before the first point is estimated.
    def fail(*args, **kwargs):
        pytest.fail("a grid point was estimated")

    monkeypatch.setattr(harness, "los_counts", fail)
    command = "plos-vs-theta" if grid[0] == "--theta-grid" else "plos-vs-radius"
    out = tmp_path / "sweep.csv"
    assert run_cli(command, "--engine", "geom", "--env", "urban", "--runs", "20000",
                   "--seed", "1", *grid, "--out", out) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("plos-vs-theta", "--engine", "sim3d", "--runs", "50", "--theta-grid", "30,0.01"),
    ("plos-vs-radius", "--engine", "sim3d", "--runs", "5", "--radius-grid", "100,5000",
     "--altitudes", "100"),
    ("compare", "--runs-3d", "5", "--runs-geom", "50", "--thetas", "30,3"),
], ids=["theta", "radius", "compare"])
def test_sim3d_ring_beyond_the_extent_exits_two_before_any_point(
        tmp_path, capsys, monkeypatch, argv):
    # The last point's user ring (564 km at theta 0.01, 5 km, 1.9 km at
    # theta 3 on a 1 km extent) is wider than the extent's diagonal, so no
    # user could stand on it; the spec is refused before any point runs.
    def fail(*args, **kwargs):
        pytest.fail("a grid point was estimated")

    monkeypatch.setattr(harness, "_estimate_sim3d", fail)
    monkeypatch.setattr(harness, "los_counts", fail)
    out = tmp_path / "out.csv"
    extent = "1000" if argv[0] == "compare" else "3000"
    assert run_cli(*argv, "--env", "urban", "--extent", extent, "--seed", "1",
                   "--out", out) == 2
    assert "diagonal" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_GEOM = ("plos-vs-theta", "--engine", "geom", "--env", "urban", "--runs", "50",
         "--theta-grid", "30")
_SIM3D = ("plos-vs-theta", "--engine", "sim3d", "--env", "urban", "--runs", "5",
          "--theta-grid", "30")
_COMPARE = ("compare", "--env", "urban", "--runs-3d", "5", "--runs-geom", "50",
            "--thetas", "30")


@pytest.mark.parametrize("argv", [
    _GEOM + ("--rx-height", "nan"), _GEOM + ("--uav-height", "nan"),
    _GEOM + ("--uav-height", "inf"), _COMPARE + ("--uav-height", "nan"),
    _COMPARE + ("--rx-height", "nan"), _SIM3D + ("--extent", "nan"),
    _SIM3D + ("--extent", "inf"), _SIM3D + ("--uav-height", "nan"),
], ids=lambda argv: f"{argv[0]}-{argv[2]}-{argv[-2]}={argv[-1]}")
def test_non_finite_heights_and_extents_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--seed", "1", "--out", out) == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (_SIM3D + ("--extent", "1e300"), "building cells per axis"),
    (_COMPARE + ("--extent", "1e300"), "building cells per axis"),
    (("plos-vs-radius", "--engine", "baseline:grid", "--alpha", "0.3", "--beta", "500",
      "--gamma", "1e-300", "--radius-grid", "100", "--altitudes", "100"), "2*gamma^2"),
    (("param-surface", "--engine", "baseline:grid", "--env", "urban", "--gamma-grid",
      "15,1e-300", "--theta-grid", "30"), "2*gamma^2"),
    (_GEOM + ("--runs", _HUGE_INT), "2^63"),
    (_SIM3D + ("--runs", _HUGE_INT), "2^63"),
    (_COMPARE + ("--runs-3d", _HUGE_INT), "2^63"),
    (_COMPARE + ("--runs-geom", _HUGE_INT), "2^63"),
], ids=["sim3d-extent", "compare-extent", "grid-gamma", "grid-gamma-axis", "geom-runs",
        "sim3d-runs", "compare-runs-3d", "compare-runs-geom"])
def test_indices_past_int64_and_a_vanishing_divisor_exit_two_before_any_point(
        tmp_path, capsys, monkeypatch, argv, message):
    # Cell indices past 2^31 per axis, 2^63 runs or more, and a gamma
    # whose 2*gamma^2 underflows to 0 are refused by the spec with one
    # typed line, before any point runs.
    def fail(*args, **kwargs):
        pytest.fail("a grid point was estimated")

    for name in ("_estimate_sim3d", "los_counts", "evaluate"):
        monkeypatch.setattr(harness, name, fail)
    assert run_cli(*argv, "--seed", "1", "--out", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert list(tmp_path.iterdir()) == []


def test_index_bounds_admit_specs_up_to_them():
    thetas = harness.SweepAxis("theta", (30.0, 60.0))
    common = dict(params=URBAN, axes=(thetas,), seed=1)
    harness.SweepSpec(engine="geom", n_runs=2**62 - 1, **common)
    with pytest.raises(IllegalSpec, match="2\\^63"):
        harness.SweepSpec(engine="geom", n_runs=2**62, **common)
    # Cells per axis are whole periods of the extent, at most 2^31 - 1.
    period = derive_layout(URBAN).period
    harness.SweepSpec(engine="sim3d", extent=((2**31 - 0.5) * period, 1000.0), **common)
    with pytest.raises(IllegalSpec, match="building cells per axis"):
        harness.SweepSpec(engine="sim3d", extent=(1000.0, 2**31 * period), **common)
    # The geometry engine has no city grid, so no extent bounds it.
    harness.SweepSpec(engine="geom", extent=(1e300, 1e300), **common)


# -- sweep subcommands ---------------------------------------------------------

def test_default_theta_grid_has_18_points(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("plos-vs-theta", "--env", "suburban", "--seed", "3",
                   "--runs", "40", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# spec: engine=geom alpha=0.1 beta=750 gamma=8")
    assert lines[1] == "theta,n,k,p_hat,ci_lo,ci_hi,ms_per_point"
    assert len(lines) == 2 + 18
    assert [row.split(",")[0] for row in lines[2:]] == [
        f"{v:g}" for v in range(5, 95, 5)
    ]


def test_same_seed_reruns_are_byte_identical(tmp_path):
    args = ("plos-vs-theta", "--env", "urban", "--seed", "11", "--runs", "200",
            "--theta-grid", "30,60,90")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_change_touches_only_random_columns(tmp_path):
    base = ("plos-vs-theta", "--env", "urban", "--runs", "150",
            "--theta-grid", "20,40,60")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*base, "--seed", "1", "--out", a) == 0
    assert run_cli(*base, "--seed", "2", "--out", b) == 0
    rows_a = [line.split(",") for line in a.read_text().splitlines()[2:]]
    rows_b = [line.split(",") for line in b.read_text().splitlines()[2:]]
    changed = 0
    for ra, rb in zip(rows_a, rows_b):
        assert ra[0] == rb[0]  # theta
        assert ra[1] == rb[1] == "150"  # n
        assert ra[6] == rb[6] == "0.000000"  # ms placeholder
        changed += ra[2] != rb[2]
    assert changed > 0


def test_explicit_params_match_named_environment(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ("--seed", "5", "--runs", "100", "--theta-grid", "25,65")
    assert run_cli("plos-vs-theta", "--env", "dense-urban", *common, "--out", a) == 0
    assert run_cli("plos-vs-theta", "--alpha", "0.5", "--beta", "300", "--gamma", "20",
                   *common, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_and_flags_override(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep setup\n"
        "env = urban\n"
        "runs = 50\n"
        "theta-grid = 30,60\n"
        "user_zone = street\n"  # underscore spelling works too
    )
    assert run_cli("plos-vs-theta", "--seed", "7", "--config", cfg,
                   "--runs", "80", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert "user_zone=street" in lines[0]
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["30", "60"]
    assert all(r[1] == "80" for r in rows)  # flag beat the config value


def test_timing_flag_fills_ms_column(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("plos-vs-theta", "--env", "urban", "--seed", "1", "--runs", "200",
                   "--theta-grid", "30", "--timing", "--out", out) == 0
    row = out.read_text().splitlines()[2].split(",")
    assert float(row[6]) > 0.0


def test_radius_sweep_with_baseline_engine(tmp_path):
    out = tmp_path / "radius.csv"
    assert run_cli("plos-vs-radius", "--env", "urban", "--seed", "1",
                   "--engine", "baseline:grid", "--radius-grid", "100,300",
                   "--altitudes", "100,500", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "radius,h_uav,n,k,p_hat,ci_lo,ci_hi,ms_per_point"
    assert len(lines) == 2 + 4
    model = GridProduct(URBAN)
    for line in lines[2:]:
        cells = line.split(",")
        radius, h_uav = float(cells[0]), float(cells[1])
        theta = math.degrees(math.atan2(h_uav - 1.5, radius))
        assert float(cells[4]) == pytest.approx(
            evaluate(model, theta, h_uav, 1.5), abs=5e-7
        )


def test_heatmap_exact_corners(tmp_path):
    out = tmp_path / "heat.csv"
    assert run_cli("heatmap", "--env", "dense-urban", "--seed", "2", "--runs", "60",
                   "--theta-grid", "30,90", "--phi-grid", "0,90",
                   "--user-zone", "crossroad", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("theta,phi,")
    assert len(lines) == 2 + 4
    for line in lines[2:]:
        assert line.split(",")[4] == "1.000000"  # crossroad axes see down both streets


def test_param_surface_tall_cities_block_more(tmp_path):
    out = tmp_path / "surface.csv"
    assert run_cli("param-surface", "--env", "urban", "--seed", "4", "--runs", "400",
                   "--gamma-grid", "5,50", "--theta-grid", "30", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("gamma,theta,")
    p_short, p_tall = (float(line.split(",")[4]) for line in lines[2:])
    assert p_short > p_tall


# -- export-city ----------------------------------------------------------------

def test_export_city_round_trip(tmp_path):
    out = tmp_path / "city.txt"
    assert run_cli("export-city", "--env", "urban", "--extent", "1000",
                   "--seed", "3", "--out", out) == 0
    city = load_city(out)
    direct = generate_city(URBAN, 1000.0, 1000.0, seed=3)
    assert city.heights.shape == direct.heights.shape
    assert (city.heights == direct.heights).all()
    # The exported roofs are the roof function of the key the sweep uses.
    _, nx, ny = city.heights.shape
    hashed = roof_heights(3, np.arange(1, nx + 1)[:, None], np.arange(1, ny + 1), URBAN.gamma)
    assert (city.heights == hashed).all()

    again = tmp_path / "city2.txt"
    assert run_cli("export-city", "--env", "urban", "--extent", "1000",
                   "--seed", "3", "--out", again) == 0
    assert out.read_bytes() == again.read_bytes()


# -- compare ---------------------------------------------------------------------

def test_compare_emits_both_engines_and_models(tmp_path):
    out = tmp_path / "compare.csv"
    models = tmp_path / "models.txt"
    models.write_text("alpine sigmoid a=4.88 b=0.43\n")
    assert run_cli("compare", "--env", "urban", "--extent", "1000", "--seed", "0",
                   "--thetas", "80,90", "--runs-3d", "8", "--runs-geom", "40",
                   "--models", models, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# spec: engine=compare")
    assert lines[1] == (
        "theta,n_3d,k_3d,p_3d,ci_lo_3d,ci_hi_3d,"
        "n_geom,k_geom,p_geom,ci_lo_geom,ci_hi_geom,abs_delta,grid,alpine"
    )
    assert len(lines) == 2 + 2
    overhead = lines[3].split(",")
    assert overhead[0] == "90"
    assert overhead[3] == "1.000000"  # 3D engine straight down
    assert overhead[8] == "1.000000"  # geometry engine straight down
    assert overhead[11] == "0.000000"
    assert float(overhead[12]) == pytest.approx(
        evaluate(GridProduct(URBAN), 90.0, 100.0, 1.5), abs=5e-7
    )


def test_compare_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("compare", "--env", "urban", "--extent", "1000", "--seed", "9",
            "--thetas", "60", "--runs-3d", "6", "--runs-geom", "30")
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("bad", [("--thetas", "0"), ("--thetas", "95"),
                                 ("--runs-3d", "0"), ("--n-users", "0")])
def test_compare_rejects_illegal_input_before_running(tmp_path, capsys, bad):
    out = tmp_path / "compare.csv"
    assert run_cli("compare", "--env", "urban", "--extent", "1000", "--seed", "0",
                   "--thetas", "60", "--runs-3d", "5", "--runs-geom", "50",
                   *bad, "--out", out) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("plos-vs-theta", "--engine", "sim3d", "--runs", "5", "--theta-grid", "60"),
    ("plos-vs-theta", "--engine", "baseline:grid", "--theta-grid", "60"),
    ("compare", "--runs-3d", "5", "--runs-geom", "50", "--thetas", "60"),
], ids=["sweep", "baseline", "compare"])
def test_negative_seed_exits_two_before_any_point(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--env", "urban", "--extent", "1000", "--seed", "-1",
                   "--out", out) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


EXAMPLE_MODELS = Path(uavlos.__file__).parent / "data" / "example_models.txt"


@pytest.mark.parametrize("theta, engine", [
    ("1e-9", ("baseline:grid",)),
    ("5e-324", ("baseline:grid",)),
    ("30,1e-9", ("baseline:urban_grid", "--models", EXAMPLE_MODELS)),
], ids=["1e-9", "5e-324", "urban_grid-30,1e-9"])
def test_baseline_grid_track_beyond_the_bound_exits_two_at_once(tmp_path, capsys, theta, engine):
    # As a geometry-engine sweep would: the spec refuses the point, for
    # a GridProduct loaded by name too, before any point runs.
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    assert run_cli("plos-vs-theta", "--engine", *engine, "--env", "urban",
                   "--theta-grid", theta, "--seed", "1", "--out", out) == 2
    assert time.perf_counter() - start < 1.0
    assert "periods" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_NO_NUMPY_RANDOM = """
import sys

import uavlos.cli

for argv in (
    ["heatmap", "--engine", "geom", "--env", "high-rise", "--user-zone", "street",
     "--theta-grid", "5:85:40", "--phi-grid", "0:90:45", "--runs", "20"],
    ["compare", "--env", "urban", "--extent", "1000", "--thetas", "30,60",
     "--runs-3d", "3", "--runs-geom", "50"],
):
    assert uavlos.cli.main(argv + ["--seed", "3", "--out", "out.csv"]) == 0
print("numpy.random" in sys.modules)
"""


def test_cli_runs_never_import_numpy_random(tmp_path):
    # Point seeds, entropy pools and run keys are computed without it, so
    # a CLI run does not pay its import.
    env = dict(os.environ)
    src = str(Path(uavlos.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RANDOM],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_package_source_names_no_numpy_random():
    package = Path(uavlos.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "np.random" not in text and "numpy.random" not in text, path.name


# -- inputs that size memory ---------------------------------------------------

#: Address space of a child run of the CLI: numpy's import and a small run
#: fit, the allocations the bounded inputs ask for do not.
_CHILD_ADDRESS_SPACE = 1 << 30


def run_python_limited(tmp_path, *argv):
    """Run python with argv in a child process whose address space is
    limited to _CHILD_ADDRESS_SPACE, so that an unbounded allocation
    fails there instead of loading the machine; the limit is set on the
    child only."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(uavlos.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *map(str, argv)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
    )


def run_cli_limited(tmp_path, *argv):
    """Run the CLI as run_python_limited runs python."""
    return run_python_limited(tmp_path, "-m", "uavlos.cli", *argv)


@pytest.mark.parametrize("argv,message", [
    (("plos-vs-theta", "--engine", "sim3d", "--env", "urban", "--theta-grid", "30",
      "--n-users", "2000000000"), "n_users must be in"),
    (("compare", "--env", "urban", "--thetas", "30", "--n-users", "2000000000"),
     "n_users must be in"),
    (("export-city", "--env", "urban", "--extent", "1000000"), "building cells"),
], ids=["sweep-users", "compare-users", "export-cells"])
def test_inputs_that_would_exhaust_memory_exit_two(tmp_path, argv, message):
    # 2e9 ring users would take 14.9 GiB for their directions alone, and
    # a 1 000 km urban city 22 360 x 22 360 roofs (3.7 GiB): both are
    # refused by name before anything is allocated.
    proc = run_cli_limited(tmp_path, *argv, "--seed", "1", "--out", "out.txt")
    assert (proc.returncode, message in proc.stderr) == (2, True), proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_of_too_many_grid_points_exits_two(tmp_path):
    # Each grid holds at most MAX_GRID_VALUES values, but two axes
    # multiply: 9 888 x 9 999 points would be 10^8 tuples before the
    # first point ran.  The spec refuses them from the axis lengths.
    proc = run_cli_limited(tmp_path, "heatmap", "--engine", "geom", "--env", "urban",
                           "--theta-grid", "1:89.99:0.009", "--phi-grid", "0:89.99:0.009",
                           "--runs", "1", "--seed", "1", "--out", "out.csv")
    assert proc.returncode == 2, proc.stderr
    assert f"more than the {harness.MAX_POINTS} a sweep may have" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_failure_with_no_text_is_named_by_its_type(tmp_path, monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "run_sweep", exhausted)
    assert run_cli(*_GEOM, "--seed", "1", "--out", tmp_path / "out.csv") == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert list(tmp_path.iterdir()) == []


def test_a_city_header_that_would_exhaust_memory_is_a_parse_error(tmp_path):
    # The header of a 1 000 km urban city names 22 360 x 22 360 roofs
    # (3.7 GiB): the parser refuses it at line 1, as generate_city refuses
    # the extent, before its grid is allocated.
    header = ("# city alpha=0.3 beta=500.0 gamma=15.0 extent_x=1000000.0 "
              "extent_y=1000000.0 seed=1\n")
    code = ("import sys\nfrom uavlos.errors import ParseError\n"
            "from uavlos.sim3d import city_from_text\n"
            "try:\n    city_from_text(sys.argv[1])\n"
            "except ParseError as exc:\n    print(exc)\n")
    proc = run_python_limited(tmp_path, "-c", code, header)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("line 1: bad header: ")
    assert "holds 22360 x 22360 building cells" in proc.stdout


def test_memory_bounds_admit_inputs_up_to_them(monkeypatch):
    common = dict(params=URBAN, axes=(harness.SweepAxis("theta", (30.0,)),), seed=1)
    harness.SweepSpec(engine="sim3d", n_users=harness.MAX_USERS, **common)
    with pytest.raises(IllegalSpec, match="n_users must be in"):
        harness.SweepSpec(engine="sim3d", n_users=harness.MAX_USERS + 1, **common)
    # 1 000 x 1 000 grid points are a legal sweep, one more row is not.
    thetas = harness.SweepAxis("theta", tuple(np.linspace(0.09, 90.0, 1000)))
    phis = tuple(np.linspace(0.0, 90.0, 1000))
    spec = harness.SweepSpec(engine="geom", params=URBAN, seed=1,
                             axes=(thetas, harness.SweepAxis("phi", phis)))
    assert spec.size == harness.MAX_POINTS
    with pytest.raises(IllegalSpec, match="1001000 points"):
        harness.SweepSpec(engine="geom", params=URBAN, seed=1,
                          axes=(thetas, harness.SweepAxis("phi", phis + (45.0,))))
    # A 1 000 m urban extent holds 22 x 22 cells.
    monkeypatch.setattr(sim3d, "MAX_CITY_CELLS", 22 * 22)
    assert generate_city(URBAN, 1000.0, 1000.0, 3).heights.shape == (1, 22, 22)
    text = sim3d.city_to_text(generate_city(URBAN, 1000.0, 1000.0, 3))
    assert sim3d.city_from_text(text).heights.shape == (1, 22, 22)
    monkeypatch.setattr(sim3d, "MAX_CITY_CELLS", 22 * 22 - 1)
    with pytest.raises(InvalidParams, match="22 x 22 building cells"):
        generate_city(URBAN, 1000.0, 1000.0, 3)
    with pytest.raises(ParseError, match="line 1: .*22 x 22 building cells"):
        sim3d.city_from_text(text)


# -- heap setting ---------------------------------------------------------------

def fake_libc(calls, result=1):
    """A stand-in for glibc whose mallopt records its arguments."""
    def mallopt(param, value):
        calls.append((param, value))
        return result

    return types.SimpleNamespace(mallopt=mallopt)


def test_main_raises_the_heap_trim_threshold(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: fake_libc(calls))
    assert run_cli(*_GEOM, "--seed", "1", "--out", tmp_path / "out.csv") == 0
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h.
    # Setting the trim threshold freezes the mmap threshold, so main
    # raises that too.
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [
    _no_libc,
    lambda name: types.SimpleNamespace(),
    lambda name: fake_libc([], result=0),
], ids=["no-libc", "no-mallopt", "refused"])
def test_cli_runs_the_same_without_the_heap_setting(tmp_path, monkeypatch, cdll):
    assert run_cli(*_GEOM, "--seed", "1", "--out", tmp_path / "with.csv") == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert not cli._keep_freed_heap()
    assert run_cli(*_GEOM, "--seed", "1", "--out", tmp_path / "without.csv") == 0
    assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()


_KEEPCOST = """
import ctypes
import sys

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

try:
    libc = ctypes.CDLL("libc.so.6")
    mallinfo2, mallopt = libc.mallinfo2, libc.mallopt
except (OSError, AttributeError):
    print("no glibc mallinfo2")
    sys.exit(0)
mallinfo2.restype = Mallinfo2
# glibc raises its trim threshold on its own to twice a freed mmapped
# chunk; pinning it at its 128 KiB default before any import keeps the
# first reading independent of what the imports allocate and free.
assert mallopt(-1, 128 * 1024) == 1

import numpy as np

import uavlos
import uavlos.cli

def kept():
    # 24 MB in heap blocks below glibc's mmap threshold, then freed: the
    # releasable top of the heap left behind.
    blocks = [np.ones(10_000) for _ in range(300)]
    del blocks
    return mallinfo2().keepcost

print(kept())
assert uavlos.cli.main(sys.argv[1:]) == 0
print(kept())
"""


def test_only_main_keeps_the_freed_heap(tmp_path):
    # Measured through glibc itself, from a trim threshold pinned at its
    # default: after importing the package the heap top is still trimmed
    # (a few hundred kB kept); after main, the 24 MB freed stay with the
    # process.
    env = dict(os.environ)
    src = str(Path(uavlos.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _KEEPCOST, *_GEOM, "--seed", "1", "--out", "out.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.startswith("no glibc"):
        pytest.skip("needs glibc's mallinfo2")
    before, after = (int(line) for line in proc.stdout.split())
    assert before < 4 * 2**20
    assert after > 16 * 2**20
