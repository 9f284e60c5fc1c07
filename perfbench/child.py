"""One measured process of the benchmark; prints one JSON line.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run --trace 0|1 -- <uavlos CLI arguments>

``setup`` times ``import uavlos.cli`` plus building its parser in this
fresh process.  ``run`` imports the CLI first, then times one call of
the public ``uavlos.cli.main`` up to the renamed output file, optionally
under the span tracer, and reports peak RSS from ``getrusage``.  Only
the standard library is imported before the timed set-up.  Around the
call, ``run`` also times :func:`calibrate`, a fixed piece of work that
shares no code with uavlos, to gauge the machine's speed at that moment;
``setup`` times it once after the import.
"""

import contextlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def calibrate(reps: int = 6000) -> float:
    """Seconds for a fixed loop with the program's mix of work: per-item
    seeding, scalar numpy draws, small frozen objects and float math.
    It must never change, or normalized times stop being comparable."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(i))
        p = _Point(rng.uniform(0.0, 30.0), rng.random())
        d = math.hypot(p.x, p.y) / math.tan(math.radians(1 + i % 89))
        acc += int(d // 7.0) % 3
    return time.perf_counter() - t0


def _setup() -> dict:
    t0 = time.perf_counter()
    import uavlos.cli

    uavlos.cli.build_parser()
    return {"setup_s": time.perf_counter() - t0, "calibration_s": calibrate()}


def _run(trace: bool, argv: list[str]) -> dict:
    import uavlos.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    before = calibrate()
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        code = uavlos.cli.main(argv)
        wall_s = time.perf_counter() - t0
    out = {
        "exit_code": code,
        "wall_s": wall_s,
        # Afterwards, about a tenth of the wall time more, so that a long
        # invocation gauges the machine over a longer stretch.
        "calibration_s": [before] + [calibrate() for _ in range(max(1, round(wall_s / 1.6)))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", "not imported"),
    }
    if tracer is not None:
        out["spans"] = len(tracer.start)
        out["summary"] = tracer.summary()
        out["track_roofs"] = tracer.count_after_sibling(
            "citygeom.sample_height", "simgeom.candidate_ops"
        )
    return out


def main(args: list[str]) -> int:
    if args[:1] == ["setup"]:
        result = _setup()
    elif args[:2] == ["run", "--trace"] and len(args) >= 4 and args[3] == "--":
        result = _run(args[2] == "1", args[4:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
