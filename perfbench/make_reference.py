"""Regenerate perfbench/reference.json, the pinned high-n P_LoS table.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs each reference workload through ``uavlos.cli.main`` at a run count
far above the benchmark's, from REFERENCE_SEED, which the benchmark
refuses as a workload seed, and stores (n, k) per grid point.  The
compare workload's geometry side reads the theta-sweep table.  On two
cores of an Intel Xeon this takes about ten minutes.
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, CsvRows

#: Run-count multiplier over the workload: 2000 -> 100000 and 200 -> 20000 runs.
SCALE = {"geom-theta-sweep": 50, "heatmap-highrise-street": 100}


def main() -> int:
    import uavlos.cli

    tables = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE_FILE.parent) as tmp:
        for name, scale in SCALE.items():
            workload = WORKLOADS[name]
            out = Path(tmp) / "reference.csv"
            if uavlos.cli.main(workload.argv(REFERENCE_SEED, out, scale)) != 0:
                return 1
            problems: list[str] = []
            rows = CsvRows(out.read_text(), workload, problems).rows
            if problems or len(rows) != len(workload.grid):
                print("\n".join(problems) or "missing grid points", file=sys.stderr)
                return 1
            tables[name] = {",".join(key): [int(row["n"]), int(row["k"])] for key, row in rows.items()}
    doc = {
        "command": "PYTHONPATH=src python3 perfbench/make_reference.py",
        "seed": REFERENCE_SEED,
        "scale": SCALE,
        "tables": tables,
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
