import math
import time

import numpy as np
import pytest

from uavlos import harness, sim3d, simgeom
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
from uavlos.stats import PLosEstimate, wilson_interval

URBAN = ENVIRONMENTS["urban"]


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


def test_estimate_containers():
    est = PLosEstimate.from_counts(50, 100)
    assert est.p_hat == 0.5
    assert est.ci_lo < 0.5 < est.ci_hi
    exact = PLosEstimate.exact(0.75)
    assert (exact.n, exact.k) == (1, 1)
    assert exact.ci_lo == exact.p_hat == exact.ci_hi == 0.75
    with pytest.raises(InvalidCounts):
        PLosEstimate(n=10, k=11, p_hat=1.1, ci_lo=0.0, ci_hi=1.0)
    with pytest.raises(InvalidCounts):
        PLosEstimate.exact(1.5)


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
    # theta 90 puts the one user inside a building-top UAV's own building
    top = dict(ok, engine="sim3d", uav_policy="building-top")
    SweepSpec(**top)
    with pytest.raises(IllegalSpec, match="building-top"):
        SweepSpec(**{**top, "axes": (theta_axis(45, 90),)})
    with pytest.raises(IllegalSpec, match="building-top"):
        SweepSpec(**{**top, "axes": (SweepAxis("phi", (0.0,)),), "theta": 90.0})


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
    assert len(generators) == len(rows)  # one per point, for its seed


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


def test_compare_engines_decides_every_geometry_theta_in_shared_kernel_calls(monkeypatch):
    # 3 x 300 urban links of at most 1.3 periods fit one call's budget.
    calls = []
    track_entries = simgeom.track_entries

    def counted(*args):
        calls.append(np.size(args[1]))
        return track_entries(*args)

    monkeypatch.setattr(simgeom, "track_entries", counted)
    rows = compare_engines(URBAN, (60.0, 70.0, 80.0), n3d=2, ngeom=300, seed=0)
    assert [row.geom.n for row in rows] == [300] * 3
    assert calls == [900]


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


def pass_sizes(monkeypatch):
    """Record the number of cities of every sim3d pass."""
    sizes = []

    def counted(cities, policy):
        sizes.append(cities.keys.size)
        return place_uav(cities, policy)

    monkeypatch.setattr(harness, "place_uav", counted)
    return sizes


@pytest.mark.parametrize(
    "theta,phi,mid,passes",
    [(30.0, None, 2000, [5, 5, 2]), (45.0, 30.0, 10, [3, 3, 3, 3]), (90.0, None, 5, [5, 5, 2])],
    ids=["circle", "fixed-phi", "theta-90"],
)
def test_sim3d_passes_do_not_change_the_estimate(theta, phi, mid, passes, monkeypatch):
    # 12 cities of 90 circle users (or one user) fit one pass by default.
    # A budget of one period gives every city a pass of its own; the mid
    # budget fits 415 ring positions of 3.8 periods at theta 30, 3 of 2.2
    # periods at theta 45 and 5 of none at theta 90.
    spec = SweepSpec(
        engine="sim3d", params=URBAN, axes=(SweepAxis("theta", (theta,)),),
        n_runs=12, n_users=90, seed=3,
    )
    sizes = pass_sizes(monkeypatch)
    pooled = harness._estimate_sim3d(spec, URBAN, theta, phi, 100.0, 77)
    assert sizes == [12]
    for budget, expected in ((1, [1] * 12), (mid, passes)):
        monkeypatch.setattr(harness, "PASS_PERIODS", budget)
        sizes.clear()
        assert harness._estimate_sim3d(spec, URBAN, theta, phi, 100.0, 77) == pooled
        assert sizes == expected
    assert 0 < pooled.k < pooled.n or theta == 90.0


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


class _NoGenerateState(np.random.SeedSequence):
    def generate_state(self, n_words, dtype=np.uint32):
        raise AssertionError("run keys derived through SeedSequence.generate_state")


def test_engines_derive_run_keys_without_generate_state(monkeypatch):
    # Both engines take a point's keys from citygeom.run_keys, which reads
    # only the seed's pool; numpy's word-by-word generate_state is off
    # their path, and the estimates are the same without it.
    spec = SweepSpec(engine="sim3d", params=URBAN, axes=(SweepAxis("theta", (30.0,)),),
                     n_runs=4, n_users=30, seed=3)
    scenario = simgeom.GeomScenario(URBAN, "mixed", 30.0)

    def estimates():
        return (simgeom.estimate_plos(scenario, 300, 11),
                harness._estimate_sim3d(spec, URBAN, 30.0, None, 100.0, 77))

    expected = estimates()
    monkeypatch.setattr(np.random, "SeedSequence", _NoGenerateState)
    assert estimates() == expected
