import argparse
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import uavlos
from uavlos import cli, harness
from uavlos.baselines import GridProduct, evaluate
from uavlos.citygeom import ENVIRONMENTS, roof_heights
from uavlos.cli import _parse_extent, _parse_grid, build_parser, main
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


# -- exit codes and output hygiene --------------------------------------------

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


@pytest.mark.parametrize("grid", [("--theta-grid", "45,0.01"),
                                  ("--radius-grid", "100,300000")])
def test_overlong_geom_track_exits_two_before_any_point(tmp_path, capsys, monkeypatch, grid):
    # One grid point's track exceeds the geometry engine's memory bound;
    # the spec is refused before the first point is estimated.
    def fail(*args, **kwargs):
        pytest.fail("a grid point was estimated")

    monkeypatch.setattr(harness, "estimate_points", fail)
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
    monkeypatch.setattr(harness, "estimate_points", fail)
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
    nx, ny = city.heights.shape
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
    # M_TRIM_THRESHOLD is -1 in glibc's malloc.h.
    assert calls == [(-1, 64 * 2**20)]


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
