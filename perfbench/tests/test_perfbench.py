"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import uavlos.cli  # noqa: E402
import uavlos.citygeom  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_output, load_reference, wilson  # noqa: E402

REFERENCE = load_reference()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_named_metric_with_its_unit(trace, section):
    stdout, result = _bench("geom-theta-sweep", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        line = next(l for l in stdout.splitlines() if l.split()[:1] == [name])
        assert line.split()[2] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "reference.json").write_text((BENCH / "reference.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-urban", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _bindings() -> dict:
    """Every uavlos module attribute plus the patched class and harness globals."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "uavlos" or name.startswith("uavlos."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    out["from_nodes"] = uavlos.citygeom.LinkGeometry.__dict__["from_nodes"]
    return out


def _tiny_argv(out: Path) -> list[str]:
    return WORKLOADS["compare-urban"].argv(3, out, scale=0.01)


def test_tracer_restores_every_wrapper_and_leaves_output_unchanged(tmp_path):
    before = _bindings()
    with Tracer() as tracer:
        assert uavlos.cli.main(_tiny_argv(tmp_path / "traced.csv")) == 0
    traced_spans = len(tracer.start)
    names = {row for row, s in tracer.summary().items() if s["calls"]}
    assert {"cli.main", "sim3d.check_los_edges", "simgeom.simulate_link",
            "harness.default_rng", "citygeom.from_nodes"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert uavlos.cli.main(_tiny_argv(tmp_path / "plain.csv")) == 0
    assert len(tracer.start) == traced_spans
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert _bindings()["from_nodes"] is not before["from_nodes"]
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _synthetic_csv(name: str, shift: float = 0.0) -> str:
    """A CSV as the workload would write it, with counts at the reference
    probabilities (plus ``shift``), so it passes every check by construction."""
    w = WORKLOADS[name]
    table = REFERENCE[w.reference]

    def group(p: float, n: int) -> list[str]:
        k = min(n, max(0, round((p + shift) * n)))
        lo, hi = wilson(k, n, 1.96)
        return [str(n), str(k), f"{k / n:.6f}", f"{lo:.6f}", f"{hi:.6f}"]

    lines = ["# spec: synthetic"]
    if w.compare:
        lines.append("theta,n_3d,k_3d,p_3d,ci_lo_3d,ci_hi_3d,"
                     "n_geom,k_geom,p_geom,ci_lo_geom,ci_hi_geom,abs_delta,grid")
    else:
        lines.append(",".join(w.axes) + ",n,k,p_hat,ci_lo,ci_hi,ms_per_point")
    for key in w.grid:
        p = _p(table[",".join(key)])
        if w.compare:
            a, g = group(p, 6000), group(p, 6000)
            delta = abs(float(a[2]) - float(g[2]))
            lines.append(",".join([*key, *a, *g, f"{delta:.6f}", "0.5"]))
        else:
            lines.append(",".join([*key, *group(p, 200), "0.000000"]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_accepts_output_at_the_reference(name):
    attempted, failed, problems, links = check_output(
        WORKLOADS[name], _synthetic_csv(name), REFERENCE
    )
    assert (attempted, failed, problems) == (len(WORKLOADS[name].grid), 0, [])
    assert links > 0


def _p(counts: list[int]) -> float:
    n, k = counts
    return k / n


def _corrupt(text: str, row: int, edit) -> str:
    lines = text.splitlines()
    cells = lines[2 + row].split(",")
    lines[2 + row] = edit(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "name, edit",
    [
        ("geom-theta-sweep", lambda c: ",".join(c[:2] + [str(int(c[1]) + 1)] + c[3:])),  # k > n
        ("geom-theta-sweep", lambda c: ",".join(c[:3] + ["0.123456"] + c[4:])),  # p_hat != k/n
        ("geom-theta-sweep", lambda c: ",".join(c[:4] + [c[5], c[4]] + c[6:])),  # ci swapped
        ("geom-theta-sweep", lambda c: "10,garbage"),  # truncated row
        ("heatmap-highrise-street", lambda c: ",".join(c[:3] + ["x"] + c[4:])),  # k not a number
        ("heatmap-highrise-street",  # far off the reference
         lambda c: ",".join(c[:2] + ["200", "0", "0.000000", "0.000000", "0.018846"] + c[7:])),
        ("compare-urban", lambda c: ",".join(c[:11] + ["0.200000"] + c[12:])),  # abs_delta wrong
    ],
)
def test_a_corrupted_row_counts_as_failed(name, edit):
    w = WORKLOADS[name]
    table = REFERENCE[w.reference]
    row = next(i for i, key in enumerate(w.grid) if 0.3 < _p(table[",".join(key)]) < 0.7)
    text = _corrupt(_synthetic_csv(name), row, edit)
    attempted, failed, problems, _ = check_output(w, text, REFERENCE)
    assert attempted == len(w.grid)
    assert failed >= 1 and problems


def test_missing_and_duplicate_rows_fail():
    w = WORKLOADS["geom-theta-sweep"]
    lines = _synthetic_csv(w.name).splitlines()
    dropped = "\n".join(lines[:4] + lines[5:]) + "\n"
    assert check_output(w, dropped, REFERENCE)[1] == 1
    duplicated = "\n".join(lines + [lines[3]]) + "\n"
    assert check_output(w, duplicated, REFERENCE)[1] == 1
    assert check_output(w, "", REFERENCE)[1] == len(w.grid)


def test_heatmap_street_rows_along_the_street_must_be_los():
    w = WORKLOADS["heatmap-highrise-street"]
    row = w.grid.index(("45", "90"))
    text = _corrupt(_synthetic_csv(w.name), row, lambda c: ",".join(
        c[:2] + ["200", "199", "0.995000", "0.972254", "0.999118"] + c[7:]))
    assert check_output(w, text, REFERENCE)[1] == 1


def test_a_small_shift_everywhere_fails_the_aggregate_test():
    # Dropping the UAV-in-building redraw lowers P_LoS by a few points at
    # every high-rise grid point; no single point of n=200 shows it.
    w = WORKLOADS["heatmap-highrise-street"]
    attempted, failed, problems, _ = check_output(w, _synthetic_csv(w.name, -0.03), REFERENCE)
    assert failed == attempted and any("aggregate" in p for p in problems)
