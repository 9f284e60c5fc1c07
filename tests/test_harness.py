import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uavlos import citygeom, harness, sim3d, simgeom, stats
from uavlos.baselines import GridProduct, Sigmoid, evaluate
from uavlos.citygeom import ENVIRONMENTS, BuiltUpParams
from uavlos.errors import IllegalSpec, InvalidCounts, UavLosError
from uavlos.harness import (
    SweepAxis,
    SweepSpec,
    compare_engines,
    result_to_csv,
    run_sweep,
    write_csv,
)
from uavlos.sim3d import place_uav
from uavlos.cli import _parse_grid
from uavlos.stats import Z95, PLosEstimate, PLosEstimates, wilson_bounds, wilson_interval

URBAN = ENVIRONMENTS["urban"]


def scalar_wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion, one count pair at
    a time in Python floats: the reference that the array expression of
    stats.wilson_bounds must reproduce bit for bit.

    Args:
        k: success count, 0 <= k <= n.
        n: trial count, n >= 1.
        z: normal quantile (default 1.96 for 95%).

    Returns:
        (lo, hi) clamped to [0, 1]; lo = 0 exactly when k = 0 and
        hi = 1 exactly when k = n.
    """
    if n < 1 or k < 0 or k > n:
        raise InvalidCounts(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    if z <= 0.0:
        raise InvalidCounts(f"z must be positive, got {z}")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    # the degenerate endpoints are exactly 0 and 1 analytically; rounding
    # in the quotient above can miss them by one ulp
    if k == 0:
        lo = 0.0
    if k == n:
        hi = 1.0
    return lo, hi


def test_wilson_frozen_examples():
    assert wilson_interval(0, 10) == (0.0, pytest.approx(0.2775401687666165, rel=1e-12))
    assert wilson_interval(10, 10) == (pytest.approx(0.7224598312333834, rel=1e-12), 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40382982859014716, rel=1e-12)
    assert hi == pytest.approx(0.5961701714098528, rel=1e-12)


def test_wilson_validation():
    with pytest.raises(InvalidCounts):
        wilson_interval(5, 0)
    with pytest.raises(InvalidCounts):
        wilson_interval(-1, 10)
    with pytest.raises(InvalidCounts):
        wilson_interval(11, 10)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_a_wilson_z_that_is_not_finite_and_positive_is_refused(z):
    # A NaN z passes a "z <= 0" check and turns every bound to NaN, and
    # an infinite one gives (0, 1) whatever the counts.
    with pytest.raises(InvalidCounts, match="z must be finite and positive"):
        wilson_bounds([5], 10, z=z)
    with pytest.raises(InvalidCounts, match="z must be finite and positive"):
        wilson_interval(5, 10, z=z)
    with pytest.raises(InvalidCounts, match="z must be finite and positive"):
        PLosEstimates.from_counts([5], 10, z=z)


def test_estimate_containers():
    est = PLosEstimates.from_counts([50], [100])[0]
    assert est.p_hat == 0.5
    assert est.ci_lo < 0.5 < est.ci_hi
    exact = PLosEstimates.exact([0.75, 0.5, 0.25])
    assert (exact.n.tolist(), exact.k.tolist()) == ([1, 1, 1], [1, 0, 0])
    assert exact[0] == PLosEstimate(n=1, k=1, p_hat=0.75, ci_lo=0.75, ci_hi=0.75)
    with pytest.raises(InvalidCounts):
        PLosEstimate(n=10, k=11, p_hat=1.1, ci_lo=0.0, ci_hi=1.0)
    for bad in (1.5, -0.25, math.nan):
        with pytest.raises(InvalidCounts):
            PLosEstimates.exact([0.5, bad])


def bits(values) -> np.ndarray:
    """The IEEE bits of float values, so that equal means bit for bit."""
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3, 150, 200, 2000, 6000])
def test_array_wilson_bounds_are_the_scalar_bounds_bit_for_bit(n):
    # A sweep's points take their bounds from one array expression; the
    # CSV prints them to six decimals, so a last-bit drift could move a
    # printed digit.
    k = np.arange(n + 1)
    lo, hi = wilson_bounds(k, n)
    scalar = np.array([scalar_wilson_interval(i, n) for i in range(n + 1)])
    np.testing.assert_array_equal(bits(lo), bits(scalar[:, 0]))
    np.testing.assert_array_equal(bits(hi), bits(scalar[:, 1]))
    assert [wilson_interval(i, n) for i in range(n + 1)] == [tuple(b) for b in scalar.tolist()]
    estimates = PLosEstimates.from_counts(k, n)
    assert list(estimates) == [
        PLosEstimate(n=n, k=i, p_hat=i / n, ci_lo=a, ci_hi=b)
        for i, (a, b) in enumerate(scalar.tolist())
    ]


def test_array_estimates_are_checked_as_one_estimate_is():
    with pytest.raises(InvalidCounts, match="k=11, n=10"):
        wilson_bounds([3, 11], 10)
    with pytest.raises(InvalidCounts):
        wilson_bounds([0], [0])
    with pytest.raises(InvalidCounts):
        PLosEstimates.from_counts([1], 2, z=0.0)
    with pytest.raises(InvalidCounts):
        PLosEstimates(n=np.array([10]), k=np.array([5]), p_hat=np.array([0.5]),
                      ci_lo=np.array([0.6]), ci_hi=np.array([0.7]))


def test_estimate_columns_of_unequal_length_are_refused():
    # Three counts with two estimates would say len() == 3 and fail on
    # the third with an untyped IndexError.
    three = np.array([10, 10, 10])
    two = dict(p_hat=np.array([0.5, 0.5]), ci_lo=np.array([0.2, 0.2]), ci_hi=np.array([0.8, 0.8]))
    with pytest.raises(InvalidCounts, match="one length"):
        PLosEstimates(n=three, k=three // 2, **two)
    with pytest.raises(InvalidCounts, match="one length"):
        PLosEstimates(n=three[:2], k=three[:2] // 2, **{**two, "ci_hi": np.array([0.8] * 3)})
    # Columns are one-dimensional: a scalar count makes no column.
    with pytest.raises(InvalidCounts, match="one-dimensional"):
        PLosEstimates.from_counts(5, 10)
    assert len(PLosEstimates(n=three[:2], k=three[:2] // 2, **two)) == 2


@pytest.mark.parametrize("axes,fixed", [
    ((SweepAxis("theta", _parse_grid("0.1:90:0.1")), SweepAxis("phi", (0.0, 0.5, 45.0, 89.9, 90.0))),
     dict(user_zone="street")),
    ((SweepAxis("radius", _parse_grid("5:1000:5")), SweepAxis("h_uav", (2.0, 37.5, 100.0, 500.0))),
     dict(h_rx=1.5)),
    ((SweepAxis("h_uav", _parse_grid("2:300:2.5")), SweepAxis("theta", (0.7, 30.0, 60.1, 90.0))),
     dict(phi=12.5, h_rx=0.0)),
], ids=["theta-phi", "radius-h_uav", "h_uav-theta"])
def test_sweep_point_rows_are_the_scenario_rows_bit_for_bit(axes, fixed):
    # A geometry-engine sweep builds its points' values from the grid,
    # once per axis value, by the scalar calls a scenario's row makes:
    # numpy's vector tan and arctan2 differ from math's in the last bit
    # on some angles, so this pins the scalar calls.
    spec = SweepSpec(engine="geom", params=URBAN, axes=axes, seed=0, **fixed)
    values, h_uav = harness._geom_values(spec)
    names = [axis.name for axis in axes]
    expected = []
    for combo in spec.points():
        var = dict(zip(names, combo))
        theta, h = harness._point_angles(spec, var)
        phi = var.get("phi", spec.phi)
        scenario = simgeom.GeomScenario(
            URBAN, spec.user_zone, theta, phi_deg=(0.0, 90.0) if phi is None else phi, h_uav=h,
            h_rx=spec.h_rx,
        )
        expected.append(simgeom._point_values(scenario))
    np.testing.assert_array_equal(bits(values), bits(expected))
    assert h_uav == [harness._point_angles(spec, dict(zip(names, c)))[1] for c in spec.points()]


def test_a_geometry_sweep_builds_no_scenario_and_no_scalar_interval(monkeypatch):
    # P points travel as arrays: no GeomScenario per point, and the Wilson
    # bounds of all of them in one array expression.  Every engine takes
    # that one estimate path: a sim3d sweep's bounds are one array call
    # too, a baseline sweep's values need none, and compare makes one per
    # engine.  No sweep computes a scalar interval.
    built, intervals, bounds = [], [], []
    check = simgeom.GeomScenario.__post_init__
    interval, array_bounds = stats.wilson_interval, stats.wilson_bounds

    def counted_check(self):
        built.append(self)
        check(self)

    def counted_interval(*args, **kwargs):
        intervals.append(args)
        return interval(*args, **kwargs)

    def counted_bounds(*args, **kwargs):
        bounds.append(args)
        return array_bounds(*args, **kwargs)

    monkeypatch.setattr(simgeom.GeomScenario, "__post_init__", counted_check)
    monkeypatch.setattr(stats, "wilson_interval", counted_interval)
    monkeypatch.setattr(stats, "wilson_bounds", counted_bounds)
    spec = SweepSpec(engine="geom", params=ENVIRONMENTS["high-rise"], user_zone="street",
                     n_runs=20, seed=1, axes=(theta_axis(10, 45, 80),
                                              SweepAxis("phi", (0.0, 30.0, 90.0))))
    text = result_to_csv(run_sweep(spec))
    assert len(text.splitlines()) == 2 + 9
    assert (len(built), len(intervals), len(bounds)) == (0, 0, 1)
    common = dict(params=URBAN, extent=(1000.0, 1000.0), axes=(theta_axis(30, 60, 90),), seed=1)
    for engine, calls in (("sim3d", 1), ("baseline:grid", 0)):
        bounds.clear()
        result = run_sweep(SweepSpec(engine=engine, n_runs=3, n_users=20, **common))
        assert len(result_to_csv(result).splitlines()) == 2 + 3
        assert (len(intervals), len(bounds)) == (0, calls)
    bounds.clear()
    rows = compare_engines(URBAN, (30.0, 60.0, 90.0), n3d=3, ngeom=20, seed=1,
                           extent=(1000.0, 1000.0), n_users=20)
    assert len(rows) == 3
    assert (len(built), len(intervals), len(bounds)) == (0, 0, 2)


def theta_axis(*values):
    return SweepAxis("theta", tuple(float(v) for v in values))


def test_sweep_spec_validation():
    ok = dict(engine="geom", params=URBAN, axes=(theta_axis(30, 60),), seed=0)
    SweepSpec(**ok)

    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "engine": "warp-drive"})
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "engine": "baseline:"})
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "axes": ()})
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "axes": (theta_axis(30), theta_axis(60))})
    with pytest.raises(IllegalSpec):
        three = (theta_axis(30), SweepAxis("phi", (0.0,)), SweepAxis("gamma", (5.0,)))
        SweepSpec(**{**ok, "axes": three})
    with pytest.raises(IllegalSpec):
        SweepAxis("theta", ())
    with pytest.raises(IllegalSpec):
        SweepAxis("zeta", (1.0,))
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "axes": (theta_axis(0.0, 30),)})  # theta=0 out of domain
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "theta": 45.0})  # theta both swept and fixed
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "axes": (SweepAxis("phi", (0.0, 45.0)),)})  # no theta/radius
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "axes": (theta_axis(30),), "radius": 100.0})
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "n_runs": 0})
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "h_uav": 1.0})  # below h_rx
    with pytest.raises(IllegalSpec, match="h_rx must be finite"):
        SweepSpec(**{**ok, "h_rx": math.nan})
    with pytest.raises(IllegalSpec):
        SweepSpec(**{**ok, "user_zone": "rooftop"})
    with pytest.raises(IllegalSpec):
        SweepSpec(engine="baseline:grid", params=URBAN,
                  axes=(theta_axis(30), SweepAxis("phi", (0.0,))), seed=0)
    with pytest.raises(IllegalSpec, match="periods"):
        SweepSpec(engine="baseline:grid", params=URBAN, axes=(theta_axis(30, 1e-9),), seed=0)
    # theta 90 puts the one user inside a building-top UAV's own building
    top = dict(ok, engine="sim3d", uav_policy="building-top")
    SweepSpec(**top)
    with pytest.raises(IllegalSpec, match="building-top"):
        SweepSpec(**{**top, "axes": (theta_axis(45, 90),)})
    with pytest.raises(IllegalSpec, match="building-top"):
        SweepSpec(**{**top, "axes": (SweepAxis("phi", (0.0,)),), "theta": 90.0})


def test_a_building_top_extent_is_bounded_by_the_cells_a_city_may_hold():
    # A building-top UAV is drawn from every roof of its city's grid, so
    # the spec refuses an extent of more than MAX_CITY_CELLS building
    # cells before any point runs: urban's 44.72 m period puts 1 000
    # cells on 44 750 m and 1 001 on 44 770 m, and 1e6 m holds 22 360
    # per axis, whose roofs would take gigabytes.
    top = dict(engine="sim3d", params=URBAN, axes=(theta_axis(30),), seed=1,
               uav_policy="building-top", n_runs=1, n_users=3)
    assert sim3d.MAX_CITY_CELLS == 1000 * 1000
    SweepSpec(**top, extent=(44750.0, 44750.0))
    with pytest.raises(IllegalSpec, match="1001000 building cells, more than the 1000000"):
        SweepSpec(**top, extent=(44750.0, 44770.0))
    with pytest.raises(IllegalSpec, match="499969600 building cells"):
        SweepSpec(**top, extent=(1e6, 1e6))
    # Other policies and engines place no UAV from the whole grid.
    SweepSpec(**{**top, "uav_policy": "random"}, extent=(1e6, 1e6))
    SweepSpec(**{**top, "engine": "geom"}, extent=(1e6, 1e6))


@pytest.mark.parametrize("engine", ["geom", "sim3d", "baseline:grid"])
@pytest.mark.parametrize("bad", [
    dict(h_rx=math.nan), dict(h_rx=math.inf), dict(h_uav=math.nan), dict(h_uav=math.inf),
    dict(extent=(math.nan, 3000.0)), dict(extent=(3000.0, math.inf)),
    dict(axes=(SweepAxis("radius", (100.0,)), SweepAxis("h_uav", (100.0, math.nan)))),
    dict(axes=(SweepAxis("radius", (100.0,)), SweepAxis("h_uav", (math.inf,)))),
    dict(axes=(SweepAxis("radius", (math.nan,)),)),
    dict(axes=(SweepAxis("radius", (math.inf,)),)),
    dict(axes=(SweepAxis("gamma", (10.0,)),), radius=math.nan),
    dict(axes=(SweepAxis("gamma", (10.0,)),), radius=math.inf),
], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_sweep_spec_refuses_non_finite_heights_and_lengths(engine, bad):
    # NaN passes every < and <= check; inf heights and radii have no
    # finite ground track.
    ok = dict(engine=engine, params=URBAN, axes=(theta_axis(30, 60),), seed=0)
    with pytest.raises(IllegalSpec, match="finite|out-of-domain"):
        SweepSpec(**{**ok, **bad})


def test_geom_sweep_is_reproducible():
    spec = SweepSpec(
        engine="geom", params=URBAN, axes=(theta_axis(20, 50, 80),), n_runs=300, seed=5
    )
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert [r.estimate for r in a.rows] == [r.estimate for r in b.rows]
    moved = run_sweep(SweepSpec(
        engine="geom", params=URBAN, axes=(theta_axis(20, 50, 80),), n_runs=300, seed=6
    ))
    assert [r.estimate.k for r in moved.rows] != [r.estimate.k for r in a.rows]


def test_geom_sweep_rises_with_theta():
    spec = SweepSpec(
        engine="geom", params=URBAN, axes=(theta_axis(10, 30, 50, 70, 90),),
        n_runs=600, seed=1,
    )
    rows = run_sweep(spec).rows
    for lower, higher in zip(rows, rows[1:]):
        # non-decreasing up to CI overlap
        assert higher.estimate.ci_hi >= lower.estimate.ci_lo
    assert rows[-1].estimate.p_hat == 1.0  # overhead limit


def test_mixed_zone_lies_between_pure_zones():
    # dense towers make the street/crossroad split pronounced
    estimates = {}
    for zone in ("street", "crossroad", "mixed"):
        spec = SweepSpec(
            engine="geom", params=ENVIRONMENTS["high-rise"], axes=(theta_axis(75),),
            n_runs=2000, seed=3, user_zone=zone,
        )
        estimates[zone] = run_sweep(spec).rows[0].estimate.p_hat
    assert estimates["street"] < estimates["crossroad"]
    assert estimates["street"] - 0.03 <= estimates["mixed"] <= estimates["crossroad"] + 0.03
    # the free area is mostly street, so the mix leans that way
    assert estimates["mixed"] < 0.5 * (estimates["street"] + estimates["crossroad"])


def test_sim3d_sweep_smoke():
    spec = SweepSpec(
        engine="sim3d", params=URBAN, extent=(1000.0, 1000.0),
        axes=(theta_axis(40),), n_runs=20, n_users=36, seed=2,
    )
    rows = run_sweep(spec).rows
    assert len(rows) == 1
    est = rows[0].estimate
    assert est.n > 0 and 0.0 <= est.p_hat <= 1.0
    again = run_sweep(spec).rows[0].estimate
    assert est == again


def test_sim3d_sweep_builds_no_grid_and_no_generator_per_run(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the sweep materialized a height grid")

    monkeypatch.setattr(sim3d, "generate_city", fail)
    generators = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *a: generators.append(a) or default_rng(*a)
    )
    spec = SweepSpec(
        engine="sim3d", params=URBAN, extent=(1000.0, 1000.0),
        axes=(theta_axis(20, 90),), n_runs=40, n_users=36, seed=5,
    )
    rows = run_sweep(spec).rows
    assert all(row.estimate.n > 0 for row in rows)
    assert generators == []  # point seeds come from citygeom.run_keys


def test_sim3d_overhead_point_is_exact():
    spec = SweepSpec(
        engine="sim3d", params=ENVIRONMENTS["dense-urban"], extent=(1000.0, 1000.0),
        axes=(theta_axis(90),), n_runs=30, seed=4,
    )
    est = run_sweep(spec).rows[0].estimate
    assert est.p_hat == 1.0
    assert est.n <= 30  # users over building footprints drop out


def test_baseline_sweep_matches_direct_evaluation():
    spec = SweepSpec(
        engine="baseline:grid", params=URBAN, axes=(theta_axis(10, 45, 90),), seed=0
    )
    rows = run_sweep(spec).rows
    model = GridProduct(URBAN)
    for row in rows:
        theta = row.values[0]
        assert row.estimate.p_hat == evaluate(model, theta, 100.0, 1.5)
        assert row.estimate.n == 1


def test_named_baseline_and_gamma_axis():
    models = {"s": Sigmoid(a=9.61, b=0.16), "g": GridProduct(URBAN)}
    spec = SweepSpec(
        engine="baseline:g", params=ENVIRONMENTS["suburban"], models=models,
        axes=(SweepAxis("gamma", (5.0, 15.0, 45.0)),), theta=30.0, seed=0,
    )
    rows = run_sweep(spec).rows
    ps = [r.estimate.p_hat for r in rows]
    assert ps == sorted(ps, reverse=True)  # taller heights block more
    # the named model keeps its own alpha/beta, not the sweep environment's
    assert rows[1].estimate.p_hat == evaluate(GridProduct(URBAN), 30.0, 100.0, 1.5)

    with pytest.raises(IllegalSpec):
        run_sweep(SweepSpec(
            engine="baseline:s", params=URBAN, models=models,
            axes=(SweepAxis("gamma", (5.0, 15.0)),), theta=30.0, seed=0,
        ))
    with pytest.raises(IllegalSpec):
        run_sweep(SweepSpec(
            engine="baseline:missing", params=URBAN, models=models,
            axes=(theta_axis(30),), seed=0,
        ))


def test_radius_axis_converts_to_elevation():
    spec = SweepSpec(
        engine="baseline:grid", params=URBAN, seed=0,
        axes=(SweepAxis("radius", (50.0, 200.0)), SweepAxis("h_uav", (100.0, 500.0))),
    )
    rows = run_sweep(spec).rows
    assert [r.values for r in rows] == [
        (50.0, 100.0), (50.0, 500.0), (200.0, 100.0), (200.0, 500.0)
    ]
    model = GridProduct(URBAN)
    for row in rows:
        radius, h_uav = row.values
        theta = math.degrees(math.atan2(h_uav - 1.5, radius))
        assert row.estimate.p_hat == evaluate(model, theta, h_uav, 1.5)
    # a higher platform at the same ground radius sees more of the sky
    assert rows[1].estimate.p_hat >= rows[0].estimate.p_hat


def test_phi_boundary_columns_are_exact():
    street = SweepSpec(
        engine="geom", params=ENVIRONMENTS["dense-urban"], user_zone="street",
        axes=(theta_axis(20, 60), SweepAxis("phi", (0.0, 45.0, 90.0))),
        n_runs=150, seed=9,
    )
    rows = run_sweep(street).rows
    by_point = {r.values: r.estimate.p_hat for r in rows}
    assert by_point[(20.0, 90.0)] == 1.0  # along the street
    assert by_point[(60.0, 90.0)] == 1.0
    assert by_point[(20.0, 0.0)] < 1.0  # straight across the buildings

    crossroad = SweepSpec(
        engine="geom", params=ENVIRONMENTS["dense-urban"], user_zone="crossroad",
        axes=(theta_axis(20), SweepAxis("phi", (0.0, 90.0))), n_runs=150, seed=9,
    )
    for row in run_sweep(crossroad).rows:
        assert row.estimate.p_hat == 1.0


def test_csv_schema_and_determinism(tmp_path):
    spec = SweepSpec(
        engine="geom", params=URBAN, axes=(theta_axis(30, 60),), n_runs=100, seed=8
    )
    result = run_sweep(spec)
    text = result_to_csv(result)
    lines = text.splitlines()
    assert lines[0].startswith("# spec: engine=geom alpha=0.3 beta=500 gamma=15")
    assert "seed=8" in lines[0]
    assert lines[1] == "theta,n,k,p_hat,ci_lo,ci_hi,ms_per_point"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[0] == "30"
    assert first[1] == "100"
    assert first[6] == "0.000000"  # timing suppressed for reproducible bytes
    assert len(first[3].split(".")[1]) == 6

    assert result_to_csv(run_sweep(spec)) == text
    timed = result_to_csv(result, include_timing=True)
    assert timed != text

    out = tmp_path / "sweep.csv"
    write_csv(result, out)
    assert out.read_text() == text
    assert list(tmp_path.iterdir()) == [out]  # no temp file left behind


def test_two_axis_rows_come_in_row_major_order():
    spec = SweepSpec(
        engine="baseline:grid", params=URBAN, seed=0,
        axes=(theta_axis(10, 20), SweepAxis("h_uav", (100.0, 200.0, 300.0))),
    )
    result = run_sweep(spec)
    assert result.axis_names == ("theta", "h_uav")
    assert [r.values for r in result.rows] == [
        (10.0, 100.0), (10.0, 200.0), (10.0, 300.0),
        (20.0, 100.0), (20.0, 200.0), (20.0, 300.0),
    ]
    header = result_to_csv(result).splitlines()[1]
    assert header.startswith("theta,h_uav,")


def test_compare_engines_overhead_row():
    rows = compare_engines(
        URBAN, (90.0,), n3d=10, ngeom=50, seed=0, extent=(1000.0, 1000.0)
    )
    row = rows[0]
    assert row.sim3d.p_hat == 1.0
    assert row.geom.p_hat == 1.0
    assert row.abs_delta == 0.0


def test_compare_engines_decides_every_geometry_theta_in_shared_kernel_calls(
    monkeypatch, kernel_calls
):
    # 3 x 300 urban links of at most 1.3 periods fit one call's budget.
    # Only the calls of the geometry engine count; the 3D engine calls
    # the same kernel.
    geom = []
    first_blockers = simgeom._first_blockers

    def geom_chunk(*args):
        start = len(kernel_calls)
        try:
            return first_blockers(*args)
        finally:
            geom.extend(kernel_calls[start:])

    monkeypatch.setattr(simgeom, "_first_blockers", geom_chunk)
    rows = compare_engines(URBAN, (60.0, 70.0, 80.0), n3d=2, ngeom=300, seed=0)
    assert [row.geom.n for row in rows] == [300] * 3
    assert [call.links for call in geom] == [900]


def test_timing_rows_share_the_sweep_estimation_time():
    # A gamma axis makes two groups of geometry-engine points, each
    # decided in shared kernel calls; every point takes a share of each
    # call in proportion to its links, so the rows add up to the time
    # spent estimating.
    spec = SweepSpec(
        engine="geom", params=URBAN, n_runs=1500, seed=5,
        axes=(SweepAxis("gamma", (10.0, 30.0)), theta_axis(5, 60, 90)),
    )
    run_sweep(spec)  # numpy's first Generator, for the point seeds, costs about 10 ms
    start = time.perf_counter()
    result = run_sweep(spec)
    total = (time.perf_counter() - start) * 1000.0
    ms = [row.ms for row in result.rows]
    assert min(ms) > 0.0
    assert sum(ms) <= total
    assert sum(ms) == pytest.approx(total, rel=0.25)


def test_compare_engines_validates_before_any_engine_runs(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the 3D engine ran on an illegal spec")

    monkeypatch.setattr(harness, "_estimate_sim3d", fail)
    with pytest.raises(IllegalSpec):
        compare_engines(URBAN, (95.0,), n3d=5, ngeom=50, seed=0)


def test_negative_seed_is_an_illegal_spec(monkeypatch):
    # Refused before any point runs, even by a baseline, which draws
    # nothing from its seed.
    monkeypatch.setattr(harness, "_estimate_points", lambda *a: pytest.fail("a point ran"))
    for engine in ("sim3d", "geom", "baseline:grid"):
        with pytest.raises(IllegalSpec, match="seed must be a non-negative integer"):
            SweepSpec(engine=engine, params=URBAN, axes=(theta_axis(30),), seed=-1)
    with pytest.raises(IllegalSpec, match="seed must be a non-negative integer"):
        compare_engines(URBAN, (30.0,), n3d=2, ngeom=20, seed=-1)


def test_compare_engines_evaluates_the_baselines_by_name():
    # "grid" is the environment's GridProduct; a loaded model of that name
    # is shadowed, as in a sweep.
    models = {"s": Sigmoid(a=9.61, b=0.16), "grid": GridProduct(BuiltUpParams(0.5, 300.0, 50.0))}
    rows = compare_engines(URBAN, (30.0, 60.0), n3d=2, ngeom=20, seed=0,
                           extent=(1000.0, 1000.0), models=models)
    for row in rows:
        assert list(row.baselines) == ["grid", "s"]
        assert row.baselines["grid"] == evaluate(GridProduct(URBAN), row.theta_deg, 100.0, 1.5)
        assert row.baselines["s"] == evaluate(models["s"], row.theta_deg, 100.0, 1.5)


def test_compare_engines_is_reproducible():
    a = compare_engines(URBAN, (30.0, 60.0), n3d=15, ngeom=60, seed=12,
                        extent=(1000.0, 1000.0))
    b = compare_engines(URBAN, (30.0, 60.0), n3d=15, ngeom=60, seed=12,
                        extent=(1000.0, 1000.0))
    assert [(r.sim3d, r.geom) for r in a] == [(r.sim3d, r.geom) for r in b]


def sim3d_point(spec, theta, phi):
    """The 3D engine's estimate at one point of spec on URBAN, with its
    UAVs at 100 m and the run keys of seed 77, from the point's counts."""
    k, n = harness._estimate_sim3d(spec, URBAN, theta, phi, 100.0, citygeom.seed_keys([77]))
    return PLosEstimates.from_counts([k], [n])[0]


def sim3d_work(monkeypatch):
    """Record, for every sim3d block, its number of cities, and for
    every lookup of a block's window roofs, the roofs it looks up (the
    kernel_calls fixture records the kernel calls)."""
    blocks, lookups = [], []
    looking = []

    def counted_block(cities, policy):
        blocks.append(cities.keys.size)
        return place_uav(cities, policy)

    window_roofs = sim3d._window_roofs

    def windowed(*args):
        looking.append(True)
        try:
            return window_roofs(*args)
        finally:
            looking.pop()

    roofs = sim3d.Cities.roofs

    def counted_roofs(self, run, ix, iy):
        if looking:
            lookups.append(np.broadcast(run, ix, iy).size)
        return roofs(self, run, ix, iy)

    monkeypatch.setattr(harness, "place_uav", counted_block)
    monkeypatch.setattr(sim3d, "_window_roofs", windowed)
    monkeypatch.setattr(sim3d.Cities, "roofs", counted_roofs)
    return blocks, lookups


@pytest.mark.parametrize(
    "theta,phi,extent,n_runs,mid_block,blocks,mid_call",
    [
        (30.0, None, 1000.0, 12, 1000, [5, 5, 2], 100),
        (45.0, 30.0, 1000.0, 12, 35, [5, 5, 2], 4),
        (90.0, None, 1000.0, 12, 6, [3, 3, 3, 3], 5),
        (3.0, None, 3000.0, 20, 22895, [5, 5, 5, 5], 100),
    ],
    ids=["circle", "fixed-phi", "theta-90", "theta-3"],
)
def test_sim3d_blocks_and_calls_do_not_change_the_estimate(
    theta, phi, extent, n_runs, mid_block, blocks, mid_call, monkeypatch, kernel_calls
):
    # 12 cities of 90 circle users (or one user) fit one block by default.
    # The theta 3 rings' windows span the whole 67 x 67 grid of the 3 km
    # extent, 4 579 elements a city, so a default block holds 14 of them,
    # and that case takes 20 cities: 14, then 6.  A block bound of 1
    # gives every city a block of its own; the mid bound fits 5 cities of
    # 171 elements at theta 30, 5 of 7 at fixed phi, 3 of 2 at theta 90
    # and 5 at theta 3.  A call budget of 1 decides every link in a call
    # of its own; the mid budget takes several links.  At theta 90 no
    # window holds a cell, so no link reaches the kernel.
    spec = SweepSpec(
        engine="sim3d", params=URBAN, extent=(extent, extent),
        axes=(SweepAxis("theta", (theta,)),), n_runs=n_runs, n_users=90, seed=3,
    )
    sizes, _ = sim3d_work(monkeypatch)
    pooled = sim3d_point(spec, theta, phi)
    assert sizes == ([14, 6] if theta == 3.0 else [12])
    # Every link goes to the kernel once in the first stage.  Only the
    # theta 3 tracks are long enough to be staged, and the links they
    # leave clear near their users go once more in the second, where
    # the tracks start at an array of cuts near their users.
    stages = [sum(call.links for call in kernel_calls if np.ndim(call.t_min) == k)
              for k in (0, 1)]
    if theta == 90.0:
        assert stages == [0, 0]
    elif theta == 3.0:
        assert (pooled.n, stages) == (412, [412, 52])
    else:
        assert stages == [pooled.n, 0]
    links = sum(stages)
    for block, expected in ((1, [1] * n_runs), (mid_block, blocks)):
        monkeypatch.setattr(harness, "BLOCK_ELEMENTS", block)
        sizes.clear()
        assert sim3d_point(spec, theta, phi) == pooled
        assert sizes == expected
    monkeypatch.undo()
    sizes, _ = sim3d_work(monkeypatch)
    for budget in (1, mid_call):
        monkeypatch.setattr(citygeom, "CALL_PERIODS", budget)
        kernel_calls.clear()
        assert sim3d_point(spec, theta, phi) == pooled
        tracks = [call.links for call in kernel_calls]
        assert sum(tracks) == links
        if theta == 90.0:
            assert tracks == []
        elif budget == 1:
            assert set(tracks) == {1}
        else:
            assert 1 < max(tracks) < links
    assert 0 < pooled.k < pooled.n or theta == 90.0


def test_a_theta_90_sim3d_point_makes_no_kernel_call(monkeypatch, kernel_calls):
    # At theta 90 each user stands in a street under its UAV, so no
    # window holds a cell of the grid: the point makes no kernel call,
    # and keeps the estimate it had when every block called the kernel.
    spec = SweepSpec(
        engine="sim3d", params=URBAN, extent=(1000.0, 1000.0),
        axes=(SweepAxis("theta", (90.0,)),), n_runs=3000, seed=3,
    )
    blocks, _ = sim3d_work(monkeypatch)
    estimate = sim3d_point(spec, 90.0, None)
    assert (estimate.n, estimate.k) == (2153, 2153)
    assert blocks and kernel_calls == []


def test_sim3d_points_derive_their_run_keys_a_block_at_a_time(monkeypatch):
    # Each sim3d point decides the run keys of its own seed, derived
    # block by block: no key array outgrows the block that uses it, so a
    # point of many runs asks for no memory in proportion to them before
    # its first city.  The mid block bound of the block test fits 5 of
    # the 12 cities at theta 30.
    spec = SweepSpec(engine="sim3d", params=URBAN, extent=(1000.0, 1000.0),
                     axes=(SweepAxis("theta", (30.0, 30.0)),), n_runs=12, n_users=90)
    derived, blocks = [], []
    stream_bits, run_keys = citygeom.stream_bits, citygeom.run_keys

    def derived_bits(key, counter):
        derived.append(stream_bits(key, counter))
        return derived[-1]

    def derived_run_keys(seed, n):
        derived.append(run_keys(seed, n))
        return derived[-1]

    def counted_block(cities, policy):
        blocks.append(cities.keys.copy())
        return place_uav(cities, policy)

    monkeypatch.setattr(harness, "stream_bits", derived_bits, raising=False)
    monkeypatch.setattr(harness, "run_keys", derived_run_keys)
    monkeypatch.setattr(harness, "place_uav", counted_block)
    monkeypatch.setattr(harness, "BLOCK_ELEMENTS", 1000)
    seeds = [5, 2**62 + 3]
    harness._estimate_points(spec, citygeom.seed_keys(seeds))
    assert [b.size for b in blocks] == [5, 5, 2] * 2
    assert [d.size for d in derived] == [b.size for b in blocks]
    for q, seed in enumerate(seeds):
        np.testing.assert_array_equal(
            np.concatenate(blocks[3 * q:3 * q + 3]), run_keys(seed, 12)
        )


@pytest.mark.parametrize("budget", [None, 1024], ids=["default", "small"])
def test_sim3d_working_set_follows_the_block_and_call_budgets(budget, monkeypatch,
                                                             kernel_calls):
    # A cut track of L periods meets at most about sqrt(2)*L + 3 boxes and
    # counts L + 1 periods of its call's budget, so no call lists more
    # than about 3 entries per period; a block bounds its cities' window
    # cells, so no tallest-roof lookup exceeds the block bound.  Unbounded,
    # the 3 000 one-user cities at theta 10 and a fixed azimuth look up
    # 200 000 window cells at once, and with one call per block a theta 10
    # call lists 28 000 entries.
    _, lookups = sim3d_work(monkeypatch)
    if budget is not None:
        monkeypatch.setattr(citygeom, "CALL_PERIODS", budget)
    points = [(theta, None, 60) for theta in (2.0, 3.0, 5.0, 10.0, 30.0, 60.0, 90.0)]
    points += [(theta, 30.0, 3000) for theta in (2.0, 10.0, 45.0)] + [(90.0, None, 3000)]
    for theta, phi, n_runs in points:
        spec = SweepSpec(engine="sim3d", params=URBAN, axes=(SweepAxis("theta", (theta,)),),
                         n_runs=n_runs, seed=3)
        assert sim3d_point(spec, theta, phi).n > 0
    assert max(lookups) <= harness.BLOCK_ELEMENTS
    assert max(call.entries for call in kernel_calls) <= 4 * citygeom.CALL_PERIODS
    assert len(kernel_calls) > len(points) and len(lookups) > len(points)


def test_sim3d_working_set_stays_small(traced_peak):
    # The 3D engine's side of the benchmark's compare-urban command line:
    # 150 cities of 360 users at each theta of 10..80.  The sweep peaks
    # at 3.23 MB, in blocks of harness.BLOCK_ELEMENTS elements whose
    # links go to kernel calls of citygeom.CALL_PERIODS periods without
    # a per-link copy of their city's values; the bound sits about 15%
    # over that.  A block or call budget that grows, or a block that
    # holds more per link, fails.
    spec = SweepSpec(engine="sim3d", params=URBAN, seed=1, n_runs=150, n_users=360,
                     axes=(SweepAxis("theta", tuple(range(10, 90, 10))),))
    assert traced_peak(lambda: run_sweep(spec)) < 3.7e6


@pytest.mark.parametrize("axes", [
    (SweepAxis("theta", (30.0, 7.5)),),
    (SweepAxis("radius", (100.0, 708.0)), SweepAxis("h_uav", (100.0,))),
    (SweepAxis("theta", (10.0,)), SweepAxis("h_uav", (100.0, 200.0))),
], ids=["theta", "radius", "h_uav"])
def test_sim3d_ring_wider_than_the_extent_diagonal_is_an_illegal_spec(axes):
    # On a 500 m extent (diagonal 707.1 m) the last point's ring, 748 m at
    # theta 7.5, 708 m, or 1 126 m at theta 10 and h_uav 200, leaves no
    # user on the extent, so the spec is refused before any point runs.
    common = dict(params=URBAN, extent=(500.0, 500.0), n_runs=5, seed=3)
    with pytest.raises(IllegalSpec, match="707 m diagonal"):
        SweepSpec(engine="sim3d", axes=axes, **common)
    # The geometry engine's grid is unbounded, so its spec is legal.
    SweepSpec(engine="geom", axes=axes, **common)


def test_sim3d_ring_up_to_the_extent_diagonal_is_legal():
    # A 707 m ring still fits a 500 m extent (diagonal 707.1 m) from a
    # UAV near one corner.
    SweepSpec(engine="sim3d", params=URBAN, extent=(500.0, 500.0), n_runs=5, seed=3,
              axes=(SweepAxis("radius", (707.0,)), SweepAxis("h_uav", (100.0,))))


def test_sim3d_point_without_a_valid_user_is_a_runtime_error():
    # The spec is legal (a 706 m ring on a 500 m extent), but its one user
    # stands 499.2 m east and north of its UAV, on the extent only for a
    # UAV within 0.8 m of the south-west corner, so no run keeps a user.
    spec = SweepSpec(engine="sim3d", params=URBAN, extent=(500.0, 500.0), phi=45.0,
                     n_users=1, n_runs=5, seed=3,
                     axes=(SweepAxis("radius", (706.0,)), SweepAxis("h_uav", (100.0,))))
    with pytest.raises(UavLosError, match="no valid user positions"):
        run_sweep(spec)


# kernel_calls is not reset between examples, so each example clears it.
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    engine=st.sampled_from(["geom", "sim3d"]),
    env=st.sampled_from(sorted(ENVIRONMENTS)),
    theta=st.one_of(st.just(90.0), st.floats(0.0, 1.0, exclude_min=True)),
    h_uav=st.floats(2.0, 500.0),
)
@example(engine="geom", env="urban", theta=5e-324, h_uav=100.0)
@example(engine="sim3d", env="urban", theta=5e-324, h_uav=100.0)
@example(engine="geom", env="suburban", theta=0.05, h_uav=20.0)
@example(engine="sim3d", env="urban", theta=0.001, h_uav=2.0)
def test_theta_near_0_or_90_is_decided_or_refused_with_a_typed_error(engine, env, theta, h_uav,
                                                                   kernel_calls):
    # Theta near 0 puts the UAV far from its user, up to an infinite
    # track where the tangent of theta rounds to 0; theta 90 puts it
    # overhead, a track of zero length.  Each point is either decided or
    # refused with a UavLosError before any kernel call: the geometry
    # engine bounds its tracks (check_track_length), and the 3D engine
    # refuses a user ring wider than its extent or a point left with no
    # user on it.  Overhead, every link is LoS.
    kernel_calls.clear()
    try:
        spec = SweepSpec(engine=engine, params=ENVIRONMENTS[env], extent=(1000.0, 1000.0),
                         axes=(SweepAxis("theta", (theta,)),), h_uav=h_uav, n_runs=20,
                         n_users=20, seed=5)
        (row,) = run_sweep(spec).rows
    except UavLosError:
        assert kernel_calls == []
        return
    estimate = row.estimate
    assert 0 <= estimate.k <= estimate.n and estimate.n >= 1
    if engine == "geom":
        assert estimate.n == 20
    if theta == 90.0:
        assert estimate.k == estimate.n


def test_sweep_points_take_the_keys_of_the_master_seed():
    # Grid point q takes key q of the master seed as its seed, whatever
    # the grid size; compare gives its 3D side the even keys and its
    # geometry side the odd ones.
    thetas = (30.0, 60.0, 75.0)
    seeds = citygeom.run_keys(9, 6).tolist()
    geom = SweepSpec(engine="geom", params=URBAN, axes=(theta_axis(*thetas),), n_runs=200, seed=9)
    rows = run_sweep(geom).rows
    assert [row.estimate for row in rows] == [
        simgeom.estimate_plos(simgeom.GeomScenario(URBAN, "mixed", theta, h_uav=100.0), 200, seed)
        for theta, seed in zip(thetas, seeds)
    ]
    shorter = run_sweep(SweepSpec(engine="geom", params=URBAN, axes=(theta_axis(*thetas[:2]),),
                                  n_runs=200, seed=9)).rows
    assert [row.estimate for row in shorter] == [row.estimate for row in rows[:2]]
    spec3d = SweepSpec(engine="sim3d", params=URBAN, extent=(1000.0, 1000.0),
                       axes=(theta_axis(*thetas),), n_runs=3, n_users=30, seed=9)
    compared = compare_engines(URBAN, thetas, n3d=3, ngeom=200, seed=9, extent=(1000.0, 1000.0),
                               n_users=30)
    assert [row.sim3d for row in compared] == list(
        harness._estimate_points(spec3d, citygeom.seed_keys(seeds[0::2]))[0]
    )
    assert [row.geom for row in compared] == [
        simgeom.estimate_plos(simgeom.GeomScenario(URBAN, "mixed", theta, h_uav=100.0), 200, seed)
        for theta, seed in zip(thetas, seeds[1::2])
    ]
