"""End-to-end acceptance gate for the toolkit.

One test per shipped guarantee, each printing a single pass/fail line
(visible with ``pytest -s``, or in the captured output on failure).
These are slower than the unit suites because several of them run both
engines at realistic sample sizes.
"""

import math
import time

import numpy as np
import pytest

from uavlos.baselines import GridProduct, evaluate
from uavlos.citygeom import (
    ENVIRONMENTS,
    GHENT,
    Building,
    Node,
    classify_point,
    derive_layout,
    roof_heights,
    track_entries,
)
from uavlos.cli import main as cli_main
from uavlos.harness import SweepAxis, SweepSpec, compare_engines, run_sweep
from uavlos.sim3d import check_los_dense, check_los_edges, generate_city
from uavlos.simgeom import GeomScenario, _draw_links, _point_values, estimate_plos

URBAN = ENVIRONMENTS["urban"]
COMPARE_THETAS = tuple(float(t) for t in range(10, 90, 10))


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def urban_compare():
    start = time.perf_counter()
    rows = compare_engines(URBAN, COMPARE_THETAS, n3d=500, ngeom=1000, seed=0)
    return rows, time.perf_counter() - start


def test_criterion_1_engines_agree_within_5_points(urban_compare):
    urban_rows, elapsed = urban_compare
    worst = {"urban": max(r.abs_delta for r in urban_rows)}
    start = time.perf_counter()
    for env in ("dense-urban", "high-rise"):
        rows = compare_engines(
            ENVIRONMENTS[env], COMPARE_THETAS, n3d=500, ngeom=1000, seed=0
        )
        worst[env] = max(r.abs_delta for r in rows)
    elapsed += time.perf_counter() - start
    detail = (
        "max |p_3d - p_geom| over theta 10..80: "
        + ", ".join(f"{env}={delta:.4f}" for env, delta in worst.items())
        + f" (tolerance 0.05, {elapsed:.1f}s of 300s budget)"
    )
    _report(1, max(worst.values()) <= 0.05 and elapsed < 300.0, detail)


def _random_free_node(city, rng, z_lo, z_hi):
    layout = city.layout
    while True:
        x = rng.uniform(0.0, layout.extent_x)
        y = rng.uniform(0.0, layout.extent_y)
        z = rng.uniform(z_lo, z_hi)
        cell = classify_point(x, y, layout)
        if isinstance(cell, Building):
            nx, ny = city.heights.shape
            # partial band at the far edge holds no generated building
            if cell.ix <= nx and cell.iy <= ny and city.heights[cell.ix - 1, cell.iy - 1] >= z:
                continue
        return Node(x, y, z)


def test_criterion_2_edge_checks_match_dense_sampling():
    from uavlos.citygeom import LinkGeometry

    start = time.perf_counter()
    mismatches = 0
    for i, env in enumerate(sorted(ENVIRONMENTS)):
        city = generate_city(ENVIRONMENTS[env], 1000.0, 1000.0, seed=100 + i)
        rng = np.random.default_rng(200 + i)
        for _ in range(1000):
            tx = _random_free_node(city, rng, 30.0, 150.0)
            rx = _random_free_node(city, rng, 0.0, 5.0)
            link = LinkGeometry.from_nodes(tx, rx)
            fast = check_los_edges(city, link)
            slow = check_los_dense(city, link, step=0.1)
            mismatches += fast.is_los != slow.is_los or not slow.is_los and (
                (fast.blocker.ix, fast.blocker.iy) != (slow.blocker.ix, slow.blocker.iy)
                or abs(fast.blocker.r_op - slow.blocker.r_op) > 1e-6
            )
    elapsed = time.perf_counter() - start
    detail = (
        f"{mismatches} disagreements (state, blocker, r_op to 1e-6 m) over 4000 "
        f"random links at 0.1m sampling "
        f"({elapsed:.1f}s of 60s budget)"
    )
    _report(2, mismatches == 0 and elapsed < 60.0, detail)


def test_criterion_3_known_geometries_are_certain():
    failures = []
    for env, params in ENVIRONMENTS.items():
        for seed in (0, 7):
            cases = {
                "street phi=90": GeomScenario(
                    params, "street", theta_deg=35.0, phi_deg=90.0, h_uav=100.0
                ),
                "crossroad phi=0": GeomScenario(
                    params, "crossroad", theta_deg=25.0, phi_deg=0.0, h_uav=100.0
                ),
                "crossroad phi=90": GeomScenario(
                    params, "crossroad", theta_deg=25.0, phi_deg=90.0, h_uav=100.0
                ),
                "street theta=90": GeomScenario(params, "street", theta_deg=90.0),
                "crossroad theta=90": GeomScenario(params, "crossroad", theta_deg=90.0),
            }
            for label, scenario in cases.items():
                est = estimate_plos(scenario, n_runs=300, seed=seed)
                if est.p_hat != 1.0:
                    failures.append(f"{env} seed={seed} {label}: {est.p_hat}")
    detail = "all aligned-view cases returned exactly 1.0" if not failures else (
        "; ".join(failures)
    )
    _report(3, not failures, detail)


def test_criterion_4_monotone_trends_within_ci(urban_compare):
    violations = []

    spec = SweepSpec(
        engine="geom", params=URBAN, seed=0, n_runs=1000,
        axes=(SweepAxis("theta", tuple(float(t) for t in range(5, 95, 5))),),
    )
    rows = run_sweep(spec).rows
    for lo, hi in zip(rows, rows[1:]):
        if hi.estimate.ci_hi < lo.estimate.ci_lo:
            violations.append(f"geom theta {lo.values[0]}->{hi.values[0]}")

    rows3d = [r.sim3d for r in urban_compare[0]]
    for i, (lo, hi) in enumerate(zip(rows3d, rows3d[1:])):
        if hi.ci_hi < lo.ci_lo:
            violations.append(f"sim3d theta {COMPARE_THETAS[i]}->{COMPARE_THETAS[i + 1]}")

    gamma_spec = SweepSpec(
        engine="geom", params=URBAN, seed=0, n_runs=1000, theta=30.0,
        axes=(SweepAxis("gamma", tuple(float(g) for g in range(5, 55, 5))),),
    )
    gamma_rows = run_sweep(gamma_spec).rows
    for lo, hi in zip(gamma_rows, gamma_rows[1:]):
        if hi.estimate.ci_lo > lo.estimate.ci_hi:
            violations.append(f"gamma {lo.values[0]}->{hi.values[0]}")

    detail = (
        "theta sweeps non-decreasing and gamma sweep non-increasing up to CI overlap"
        if not violations else "; ".join(violations)
    )
    _report(4, not violations, detail)


def test_criterion_5_layout_identities():
    worst = 0.0
    for params in list(ENVIRONMENTS.values()) + [GHENT]:
        layout = derive_layout(params)
        worst = max(
            worst,
            abs(layout.s + layout.w - 1000.0 / math.sqrt(params.beta)),
            abs(layout.w * layout.w * params.beta / 1e6 - params.alpha),
        )
    detail = f"street+building period and area-ratio residuals <= {worst:.2e} (tolerance 1e-12)"
    _report(5, worst <= 1e-12, detail)


def test_criterion_6_height_sampler_is_rayleigh():
    gamma, n = 20.0, 100_000
    # The roofs of 100 000 cells (a 100 x 1000 block) of city key 42.
    draws = roof_heights(42, np.arange(1, 101)[:, None], np.arange(1, 1001), gamma).ravel()
    mean = float(draws.mean())
    target = gamma * math.sqrt(math.pi / 2.0)

    xs = np.sort(draws)
    cdf = 1.0 - np.exp(-(xs * xs) / (2.0 * gamma * gamma))
    grid = np.arange(n) / n
    d_stat = float(np.maximum(cdf - grid, grid + 1.0 / n - cdf).max())
    d_crit = 1.62762 / math.sqrt(n)  # 1% significance

    ok = abs(mean - target) <= 0.01 * target and d_stat < d_crit
    detail = (
        f"mean {mean:.4f} vs {target:.4f} (1% band), KS D={d_stat:.5f} "
        f"< {d_crit:.5f}"
    )
    _report(6, ok, detail)


def test_criterion_7_independence_model_is_optimistic(urban_compare):
    model = GridProduct(URBAN)
    gaps = {}
    for row in urban_compare[0]:
        if row.theta_deg in (20.0, 30.0, 40.0, 50.0, 60.0):
            p_model = evaluate(model, row.theta_deg, 100.0, 1.5)
            gaps[row.theta_deg] = p_model - row.geom.p_hat
    exceed = sum(gap >= 0.05 for gap in gaps.values())
    detail = (
        f"model - simulator gap >= 0.05 at {exceed}/5 mid elevations "
        + "(" + ", ".join(f"{t:g}: {g:+.3f}" for t, g in sorted(gaps.items())) + ")"
    )
    _report(7, exceed >= 3, detail)


def test_criterion_8_cli_outputs_are_seed_deterministic(tmp_path):
    base = ["plos-vs-theta", "--env", "urban", "--runs", "300",
            "--theta-grid", "20,45,70"]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert cli_main(base + ["--seed", "5", "--out", str(a)]) == 0
    assert cli_main(base + ["--seed", "5", "--out", str(b)]) == 0
    assert cli_main(base + ["--seed", "6", "--out", str(c)]) == 0

    identical = a.read_bytes() == b.read_bytes()
    rows_a = [line.split(",") for line in a.read_text().splitlines()[2:]]
    rows_c = [line.split(",") for line in c.read_text().splitlines()[2:]]
    stable_cols = all(
        ra[0] == rc[0] and ra[1] == rc[1] and ra[6] == rc[6]
        for ra, rc in zip(rows_a, rows_c)
    )
    reacts = any(ra[2] != rc[2] for ra, rc in zip(rows_a, rows_c))

    ok = identical and stable_cols and reacts
    detail = (
        f"same seed byte-identical: {identical}; new seed keeps axis/n/ms "
        f"columns: {stable_cols}; new seed moves counts: {reacts}"
    )
    _report(8, ok, detail)


def test_criterion_9_geometry_engine_is_cheaper():
    extent = 10_000.0
    city = generate_city(URBAN, extent, extent, seed=1)
    # A materialized city (export-city, the dense oracle) holds this many
    # roofs; the sweep's implicit cities hash only the cells they reach.
    gen_cost = city.heights.size
    layout = derive_layout(URBAN, extent, extent)
    # 20 street links at theta 5 as the geometry engine draws them.
    scenario = GeomScenario(URBAN, "street", theta_deg=5.0, h_uav=100.0)
    keys = np.random.SeedSequence(2).generate_state(20, np.uint64)
    values = np.array([_point_values(scenario)])
    ux, uy, vx, vy, _, _ = _draw_links(
        layout, URBAN.gamma, "street", scenario.h_rx, values, keys, np.zeros(20, dtype=np.intp),
        [scenario.h_uav],
    )

    nx, ny = city.heights.shape
    cost_3d, cost_geom = [], []
    for n in range(20):
        _, ix, iy, _ = track_entries(layout, ux[n], uy[n], vx[n], vy[n])
        cost_geom.append(len(ix))
        materialized = (ix >= 1) & (ix <= nx) & (iy >= 1) & (iy <= ny)
        cost_3d.append(gen_cost + int(materialized.sum()))
    ratio = (sum(cost_3d) / len(cost_3d)) / (sum(cost_geom) / len(cost_geom))
    detail = (
        f"buildings touched per link at theta=5 in a 10km city: "
        f"3D {sum(cost_3d) / len(cost_3d):.0f} vs geometry "
        f"{sum(cost_geom) / len(cost_geom):.1f} ({ratio:.0f}x, need >= 10x)"
    )
    _report(9, ratio >= 10.0, detail)
