"""uavlos benchmark: one workload per call, one measured process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload invocation is a fresh
``python3 perfbench/child.py`` process that calls ``uavlos.cli.main``
with the workload's arguments and ``--seed N``; the same seed gives the
same inputs and, the program being deterministic, the same CSV bytes.
Invocations repeat until S seconds are used (at least three), and each
CSV goes through the correctness gate in workloads.py.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced invocations and reports
the per-layer metrics from the span tracer, plus the tracing overhead.
Every metric is printed by name with its unit; the last stdout line is
one JSON object, and the full record, with the machine and the code
state, goes to .perfbench/results/.  See NOTES.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, check_output, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPS = 9
#: Reported times are scaled to a machine on which child.calibrate() takes
#: this long, about its median on the 2-vCPU Xeon VM the benchmark was
#: written on (see NOTES.md, "Machine speed").
CALIBRATION_NOMINAL_S = 0.16
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150

SEED_SPANS = ("harness.SeedSequence", "harness.SeedSequence.spawn", "harness.default_rng")


def _child(args: list[str]) -> dict | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def invoke(workload, seed: int, trace: bool, reference: dict, scale: float) -> dict:
    """One workload invocation in a fresh process, checked."""
    out = STATE / "work" / f"{workload.name}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    started = time.perf_counter()
    result = _child(["run", "--trace", str(int(trace)), "--", *workload.argv(seed, out, scale)])
    elapsed = time.perf_counter() - started
    points = len(workload.grid)
    if result is None or result["exit_code"] != 0 or not out.is_file():
        return {"ok": False, "elapsed": elapsed, "attempted": points, "failed": points,
                "problems": ["invocation failed or wrote no CSV"], "text": None}
    text = out.read_text()
    out.unlink()
    attempted, failed, problems, links = check_output(workload, text, reference)
    return dict(result, ok=True, elapsed=elapsed, attempted=attempted, failed=failed,
                problems=problems, text=text, links=links)


def _speed(inv: dict) -> float:
    """Factor that scales one invocation's times to nominal machine speed."""
    return CALIBRATION_NOMINAL_S / statistics.fmean(inv["calibration_s"])


def layer_metrics(inv: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced invocation, from its span summary,
    with times at nominal machine speed."""
    summary = inv["summary"]
    speed = _speed(inv)

    def get(name: str, field: str = "calls") -> float:
        value = summary.get(name, {}).get(field, 0)
        return value * speed if field.endswith("_s") else value

    def size(name: str, which: str = "size_sum", i: int = 0) -> float:
        return summary.get(name, {}).get(which, [0, 0])[i]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    links = get("simgeom.simulate_link")
    cands = size("simgeom.candidate_ops")
    cities = get("sim3d.generate_city")
    return {
        "harness.seed_setup_s": (sum(get(n, "total_s") for n in SEED_SPANS), "s"),
        "harness.points": (inv["attempted"], "count"),
        "harness.result_to_csv_s": (get("harness.result_to_csv", "total_s"), "s"),
        "harness.atomic_write_s": (get("harness.atomic_write_text", "total_s"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "simgeom.simulate_link.calls": (links, "count"),
        "simgeom.simulate_link.self_s": (get("simgeom.simulate_link", "self_s"), "s"),
        "simgeom.candidate_ops_s": (get("simgeom.candidate_ops", "total_s"), "s"),
        "simgeom.candidates_per_link.mean": (ratio(cands, get("simgeom.candidate_ops")), "count"),
        "simgeom.candidates_per_link.max": (size("simgeom.candidate_ops", "size_max"), "count"),
        "simgeom.placement_redraws": (get("simgeom.sample_user") - links, "count"),
        "simgeom.roofs_per_link": (ratio(get("citygeom.sample_height"), links), "count"),
        "simgeom.candidates_used_ratio": (ratio(inv["track_roofs"], cands), "ratio"),
        "sim3d.generate_city.calls": (cities, "count"),
        "sim3d.generate_city_s": (get("sim3d.generate_city", "total_s"), "s"),
        "sim3d.cells_generated": (size("sim3d.generate_city"), "count"),
        "sim3d.uav_redraws": (get("sim3d.place_uav") - cities, "count"),
        "sim3d.place_users_circle_s": (get("sim3d.place_users_circle", "total_s"), "s"),
        "sim3d.users_kept_ratio": (
            ratio(size("sim3d.place_users_circle"), size("sim3d.place_users_circle", i=1)),
            "ratio",
        ),
        "sim3d.check_los_edges.calls": (get("sim3d.check_los_edges"), "count"),
        "sim3d.check_los_edges.self_s": (get("sim3d.check_los_edges", "self_s"), "s"),
        "sim3d.footprint_crossings_s": (get("sim3d.footprint_crossings", "total_s"), "s"),
        "sim3d.crossings_per_link.mean": (
            ratio(size("sim3d.footprint_crossings"), get("sim3d.footprint_crossings")),
            "count",
        ),
        "citygeom.classify_point.calls": (get("citygeom.classify_point"), "count"),
        "citygeom.classify_point_s": (get("citygeom.classify_point", "total_s"), "s"),
        "citygeom.from_nodes.calls": (get("citygeom.from_nodes"), "count"),
        "citygeom.from_nodes_s": (get("citygeom.from_nodes", "total_s"), "s"),
        "citygeom.derive_layout.calls": (get("citygeom.derive_layout"), "count"),
        "citygeom.sample_height.calls": (get("citygeom.sample_height"), "count"),
        "citygeom.sample_height_s": (get("citygeom.sample_height", "total_s"), "s"),
        "baselines.evaluate.calls": (get("baselines.evaluate"), "count"),
        "baselines.evaluate_s": (get("baselines.evaluate", "total_s"), "s"),
        "stats.wilson_interval.calls": (get("stats.wilson_interval"), "count"),
        "trace.spans": (inv["spans"], "count"),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": sys.platform}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure(workload, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    reference = load_reference()
    setups: list[dict] = []
    runs: list[dict] = []
    first_text = None
    min_runs = 2 if trace else MIN_INVOCATIONS
    t0 = time.perf_counter()
    while True:
        if not trace:
            # Set-up samples interleave with the invocations, so both see the
            # same stretch of machine speed.
            setups += [s for s in [_child(["setup"])] if s]
        traced = trace and len(runs) % 2 == 1
        inv = invoke(workload, seed, traced, reference, scale)
        inv["traced"] = traced
        runs.append(inv)
        if inv["ok"]:
            # Same seed, same bytes, traced or not.
            first_text = first_text or inv["text"]
            if inv["text"] != first_text:
                inv["failed"] = inv["attempted"]
                inv["problems"].append("CSV bytes differ from the first invocation with this seed")
        used = time.perf_counter() - t0
        if len(runs) >= min_runs and used + inv["elapsed"] > seconds:
            break
    while not trace and len(setups) < SETUP_REPS:
        setups += [s for s in [_child(["setup"])] if s]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    ok = [r for r in runs if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    calibrations = [c for r in plain for c in r["calibration_s"]]
    # Means, not medians: the machine's speed drifts, and the mean of the
    # calibration loop over the same window cancels that drift.
    wall_s = statistics.fmean(walls) if walls else 0.0
    speed = CALIBRATION_NOMINAL_S / statistics.fmean(calibrations) if calibrations else 1.0
    if not trace:
        metrics = {
            "wall_s": (wall_s * speed, "s", len(walls)),
            "links_per_s": (
                plain[0]["links"] / (wall_s * speed) if walls else 0.0, "links/s", len(walls),
            ),
            "setup_s": (
                _median([s["setup_s"] * CALIBRATION_NOMINAL_S / s["calibration_s"] for s in setups]),
                "s", len(setups),
            ),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB", len(walls)),
            "ok_frac": (1.0 - failed / attempted, "ratio", attempted),
        }
    else:
        traced = [r for r in ok if r["traced"]]
        per_run = [layer_metrics(r) for r in traced]
        metrics = {
            name: (_median([m[name][0] for m in per_run]), unit, len(per_run))
            for name, (_, unit) in (per_run[0].items() if per_run else [])
        }
        overhead = (
            statistics.fmean(r["wall_s"] * _speed(r) for r in traced)
            - statistics.fmean(r["wall_s"] * _speed(r) for r in plain)
            if traced and plain else 0.0
        )
        metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "scale": scale,
        "correct": failed == 0 and len(ok) == len(runs),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "invocations": {"total": len(runs), "untraced": len(plain), "traced": len(ok) - len(plain)},
        "raw_wall_mean_s": wall_s,
        "raw_setup_median_s": _median([s["setup_s"] for s in setups]),
        "calibration_mean_s": statistics.fmean(calibrations) if calibrations else None,
        "speed_factor": speed,
        "walls_s": walls,
        "wall_quartiles_s": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "setups": setups,
        "problems": sorted({p for r in runs for p in r["problems"]}),
        "machine": dict(_machine(), python=sys.version.split()[0],
                        numpy=ok[0]["numpy"] if ok else "unknown"),
        "git_commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every run count (tests use tiny sizes)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uavlos" / "cli.py").is_file():
        print(f"error: no uavlos sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not REFERENCE_FILE.is_file():
        print(f"error: missing {REFERENCE_FILE}", file=sys.stderr)
        return 2
    if args.seed == REFERENCE_SEED:
        print(f"error: seed {REFERENCE_SEED} is reserved for the reference table", file=sys.stderr)
        return 2

    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.scale)
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['invocations']['total']} invocations, {record['attempted']} grid points "
          f"checked, {record['failed']} failed (failed_frac {record['failed_frac']:.4g})")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")
    for name, (value, unit, count) in record["metrics"].items():
        print(f"  {name:36s} {value:>16.6g} {unit:8s} (n={count})")
    if not args.trace:
        print(f"  times are scaled to nominal machine speed (wall by {record['speed_factor']:.4f}, "
              f"each set-up by its own calibration); raw mean wall "
              f"{record['raw_wall_mean_s']:.4g} s, raw median set-up {record['raw_setup_median_s']:.4g} s")
    print(f"  result file: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
