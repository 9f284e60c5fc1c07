"""Benchmark workloads and the output-correctness gate.

Each workload is one ``uavlos`` CLI invocation; the benchmark seed goes
straight through ``--seed``.  :func:`check_output` parses the CSV a
workload wrote and returns how many grid points were attempted, how
many failed a check, the failures, and the links decided.  The checks
are statistical, not byte-level: a change to the RNG stream passes,
while a change to the estimated probabilities fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: Used only by make_reference.py; run.py refuses it as a workload seed.
REFERENCE_SEED = 20230306

#: Chance, per checked CSV, that correct code fails the reference test:
#: split between the per-point tests (Bonferroni) and one aggregate test.
POINT_ALPHA = 8e-4
AGGREGATE_ALPHA = 2e-4
#: Wilson z for the reference's own uncertainty (two-sided 7e-6 per point).
REFERENCE_Z = 4.5
#: Acceptance criterion 1: the engines agree within 5 points.
MAX_ABS_DELTA = 0.05


def _fmt(values) -> list[str]:
    return [f"{v:g}" for v in values]


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments except --seed and --out
    axes: tuple[str, ...]  # CSV columns that key a grid point
    grid: tuple[tuple[str, ...], ...]  # expected keys, in CSV order
    reference: str  # reference table to test the geometry engine's p_hat against

    @property
    def compare(self) -> bool:
        return self.args[0] == "compare"

    def argv(self, seed: int, out: Path, scale: float = 1.0) -> list[str]:
        """CLI arguments, with every run count multiplied by ``scale``."""
        args = list(self.args)
        for i, arg in enumerate(args[:-1]):
            if arg in _RUN_OPTIONS:
                args[i + 1] = str(max(1, round(int(args[i + 1]) * scale)))
        return args + ["--seed", str(seed), "--out", str(out)]


_RUN_OPTIONS = ("--runs", "--runs-3d", "--runs-geom")
_THETAS = _fmt(range(5, 95, 5))
_HEAT_THETAS = _fmt(range(5, 90, 5))
_HEAT_PHIS = _fmt(range(0, 100, 10))

#: Why each workload exists, and how it is sized: NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="geom-theta-sweep",
            args=("plos-vs-theta", "--engine", "geom", "--env", "urban",
                  "--user-zone", "mixed", "--runs", "2000"),
            axes=("theta",),
            grid=tuple((t,) for t in _THETAS),
            reference="geom-theta-sweep",
        ),
        Workload(
            name="compare-urban",
            # Sized so that |p_3d - p_geom| <= 0.05 holds with > 4 sd margin.
            args=("compare", "--env", "urban", "--runs-3d", "150", "--runs-geom", "6000"),
            axes=("theta",),
            grid=tuple((t,) for t in _fmt(range(10, 90, 10))),
            reference="geom-theta-sweep",
        ),
        Workload(
            name="heatmap-highrise-street",
            args=("heatmap", "--engine", "geom", "--env", "high-rise", "--user-zone",
                  "street", "--theta-grid", "5:85:5", "--phi-grid", "0:90:10",
                  "--runs", "200"),
            axes=("theta", "phi"),
            grid=tuple((t, p) for t in _HEAT_THETAS for p in _HEAT_PHIS),
            reference="heatmap-highrise-street",
        ),
    )
}


def wilson(k: int, n: int, z: float) -> tuple[float, float]:
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def _binom_pmf(n: int, p: float) -> list[float]:
    if p <= 0.0:
        return [1.0] + [0.0] * n
    if p >= 1.0:
        return [0.0] * n + [1.0]
    lp, lq, c = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return [
        math.exp(c - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq)
        for k in range(n + 1)
    ]


def acceptance_range(n: int, p_lo: float, p_hi: float, alpha: float) -> tuple[int, int]:
    """Counts k accepted for n trials when p lies in [p_lo, p_hi]: k is
    rejected when P(X <= k | p_lo) or P(X >= k | p_hi) is below alpha/2."""
    k_min, tail = n, 0.0
    for k, mass in enumerate(_binom_pmf(n, p_lo)):
        tail += mass
        if tail >= alpha / 2.0:
            k_min = k
            break
    k_max, tail = 0, 0.0
    pmf = _binom_pmf(n, p_hi)
    for k in range(n, -1, -1):
        tail += pmf[k]
        if tail >= alpha / 2.0:
            k_max = k
            break
    return k_min, k_max


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["tables"]


class CsvRows:
    """Grid rows of one CSV, keyed by their axis columns."""

    def __init__(self, text: str, workload: Workload, problems: list[str]):
        self.rows: dict[tuple[str, ...], dict[str, str]] = {}
        self.duplicated: set[tuple[str, ...]] = set()
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("# spec: "):
            problems.append("no '# spec:' line and header")
            return
        header = lines[1].split(",")
        if tuple(header[: len(workload.axes)]) != workload.axes:
            problems.append(f"header {lines[1]!r} does not start with {workload.axes}")
            return
        expected = set(workload.grid)
        for line_no, line in enumerate(lines[2:], start=3):
            cells = line.split(",")
            key = tuple(cells[: len(workload.axes)])
            if len(cells) != len(header):
                problems.append(f"line {line_no}: {len(cells)} cells, header has {len(header)}")
            elif key not in expected:
                problems.append(f"line {line_no}: unexpected grid point {key}")
            elif key in self.rows:
                problems.append(f"line {line_no}: duplicate grid point {key}")
                self.duplicated.add(key)
            else:
                self.rows[key] = dict(zip(header, cells))


def _check_estimate(row: dict[str, str], suffix: str) -> tuple[int, int, float]:
    """Parse and check one (n, k, p_hat, ci_lo, ci_hi) group; raises ValueError."""
    n = int(row["n" + suffix])
    k = int(row["k" + suffix])
    p = float(row[("p" if suffix else "p_hat") + suffix])
    lo = float(row["ci_lo" + suffix])
    hi = float(row["ci_hi" + suffix])
    if not (n >= 1 and 0 <= k <= n):
        raise ValueError(f"k={k}, n={n} breaks 0 <= k <= n")
    if abs(p - k / n) > 5e-7 + 1e-12:  # printed with six decimals
        raise ValueError(f"p_hat={p} is not k/n={k / n:.6f}")
    if not (0.0 <= lo <= p <= hi <= 1.0):
        raise ValueError(f"interval ({lo}, {p}, {hi}) out of order")
    return n, k, p


def check_output(workload: Workload, text: str, reference: dict) -> tuple[int, int, list[str], int]:
    """Return (points attempted, points failed, problems, links decided)."""
    problems: list[str] = []
    parsed = CsvRows(text, workload, problems)
    rows = parsed.rows
    failed: set[tuple[str, ...]] = set(workload.grid) - set(rows)
    for key in sorted(failed):
        problems.append(f"grid point {key} missing or malformed")
    failed |= parsed.duplicated
    suffixes = ("_3d", "_geom") if workload.compare else ("",)
    ref_suffix = "_geom" if workload.compare else ""
    table = reference[workload.reference]
    alpha = POINT_ALPHA / max(1, len(table))
    links = 0
    tested = []  # (n, k, n_ref, k_ref) for the aggregate test
    for key, row in rows.items():
        try:
            counts = {s: _check_estimate(row, s) for s in suffixes}
            links += sum(n for n, _, _ in counts.values())
            if workload.compare:
                delta = float(row["abs_delta"])
                if abs(delta - abs(counts["_3d"][2] - counts["_geom"][2])) > 2e-6:
                    raise ValueError(f"abs_delta {delta} is not |p_3d - p_geom|")
                if delta > MAX_ABS_DELTA:
                    raise ValueError(f"abs_delta {delta} exceeds {MAX_ABS_DELTA}")
            if workload.name == "heatmap-highrise-street" and key[1] == "90":
                n, k, _ = counts[""]
                if k != n:
                    raise ValueError(f"street link along the street at phi=90 is NLoS ({k}/{n})")
            ref_key = ",".join(key)
            if ref_key in table:
                n, k, _ = counts[ref_suffix]
                n_ref, k_ref = table[ref_key]
                p_lo, p_hi = wilson(k_ref, n_ref, REFERENCE_Z)
                k_min, k_max = acceptance_range(n, p_lo, p_hi, alpha)
                if not k_min <= k <= k_max:
                    raise ValueError(
                        f"k={k} of n={n} outside [{k_min}, {k_max}] accepted by the "
                        f"reference {k_ref}/{n_ref}"
                    )
                tested.append((n, k, n_ref, k_ref))
        except (KeyError, ValueError) as exc:
            failed.add(key)
            problems.append(f"grid point {key}: {exc}")
    excess = sum(k - n * kr / nr for n, k, nr, kr in tested)
    var = sum(n * (kr / nr) * (1 - kr / nr) * (1 + n / nr) for n, k, nr, kr in tested)
    z_max = NormalDist().inv_cdf(1.0 - AGGREGATE_ALPHA / 2.0)
    if var > 0.0 and abs(excess) / math.sqrt(var) > z_max:
        problems.append(
            f"aggregate LoS count off the reference by z={excess / math.sqrt(var):.2f} "
            f"(limit {z_max:.2f}); every point fails"
        )
        failed.update(rows)
    return len(workload.grid), len(failed), problems, links
