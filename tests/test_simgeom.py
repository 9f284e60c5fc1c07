import math

import numpy as np
import pytest

from uavlos.citygeom import (
    ENVIRONMENTS,
    Building,
    BuiltUpParams,
    Crossroad,
    Node,
    Street,
    classify_point,
    derive_layout,
    track_entries,
    uav_position_from_angles,
)
from uavlos import simgeom
from uavlos.errors import IllegalSpec, InvalidAngle, InvalidParams
from uavlos.harness import SweepAxis, SweepSpec
from uavlos.simgeom import GeomScenario, _draw_links, estimate_plos

TOY = BuiltUpParams(0.25, 10000.0, 10.0)  # p=10, s=w=5


def test_scenario_validation():
    params = ENVIRONMENTS["urban"]
    with pytest.raises(InvalidParams):
        GeomScenario(params=params, user_zone="rooftop", theta_deg=45.0)
    with pytest.raises(InvalidAngle):
        GeomScenario(params=params, user_zone="street", theta_deg=0.0)
    with pytest.raises(InvalidAngle):
        GeomScenario(params=params, user_zone="street", theta_deg=45.0, phi_deg=91.0)
    with pytest.raises(InvalidParams):
        GeomScenario(params=params, user_zone="street", theta_deg=45.0, phi_deg=(50.0, 40.0))
    with pytest.raises(InvalidParams):
        GeomScenario(params=params, user_zone="street", theta_deg=45.0, h_uav=1.0)
    with pytest.raises(InvalidParams):
        GeomScenario(params=params, user_zone="street", theta_deg=45.0, h_uav=(0.0, 1.0))
    # NaN passes every comparison the other checks make.
    for bad in (dict(h_rx=math.nan), dict(h_rx=math.inf), dict(h_uav=math.nan),
                dict(h_uav=math.inf), dict(h_uav=(10.0, math.inf)),
                dict(h_uav=(math.nan, 100.0)), dict(h_uav=(10.0, math.nan))):
        with pytest.raises(InvalidParams):
            GeomScenario(params=params, user_zone="street", theta_deg=90.0, **bad)
    # defaults are a legal scenario
    GeomScenario(params=params, user_zone="crossroad", theta_deg=45.0)


def test_tracks_longer_than_the_memory_bound_fail_before_any_chunk(monkeypatch):
    params = ENVIRONMENTS["urban"]
    period = derive_layout(params).period
    # The longest track, (h_uav - h_rx)/tan(theta), at exactly the bound.
    edge = math.degrees(math.atan(98.5 / (simgeom.MAX_TRACK_PERIODS * period)))
    GeomScenario(params, "street", theta_deg=edge * 1.000001, h_uav=100.0)
    with pytest.raises(InvalidAngle, match="grid periods"):
        GeomScenario(params, "street", theta_deg=edge * 0.999999, h_uav=100.0)
    # A drawn altitude range is bounded by its top.
    with pytest.raises(InvalidAngle, match="grid periods"):
        GeomScenario(params, "street", theta_deg=0.2, h_uav=(50.0, 500.0))
    GeomScenario(params, "street", theta_deg=0.2, h_uav=(50.0, 100.0))

    def fail(*args, **kwargs):
        pytest.fail("a chunk was drawn")

    monkeypatch.setattr(simgeom, "_first_blockers", fail)
    with pytest.raises(IllegalSpec, match="grid periods"):
        SweepSpec(engine="geom", params=params, axes=(SweepAxis("theta", (0.001,)),),
                  n_runs=256, seed=1)


def keyed_links(params, zone, n, seed, h_rx=0.0):
    """User and UAV positions of n links as the geometry engine draws them
    from their keys (a uniform azimuth, a 100 m UAV at theta 30)."""
    scenario = GeomScenario(params, zone, theta_deg=30.0, h_uav=100.0, h_rx=h_rx)
    keys = np.random.SeedSequence(seed).generate_state(n, np.uint64)
    return _draw_links(scenario, scenario.layout(), keys)


def test_sample_user_zones():
    layout = derive_layout(TOY, 100.0, 100.0)
    for zone, y_lo, y_hi in (("crossroad", 0.0, layout.s),
                             ("street", layout.s, layout.s + layout.w)):
        for h_rx in (1.5, 0.0):
            ux, uy, vx, vy, vz, _ = keyed_links(TOY, zone, 500, 8, h_rx)
            assert ((0.0 <= ux) & (ux <= layout.s)).all()
            assert ((y_lo <= uy) & (uy <= y_hi)).all()
            # Each UAV sits at theta 30 above a user standing at h_rx.
            theta = np.degrees(np.arctan2(vz - h_rx, np.hypot(vx - ux, vy - uy)))
            assert theta == pytest.approx(30.0, abs=1e-9)


def test_sample_user_matches_classifier():
    params = ENVIRONMENTS["dense-urban"]
    layout = derive_layout(params, 3000.0, 3000.0)
    cx, cy, *_ = keyed_links(params, "crossroad", 300, 21)
    for x, y in zip(cx, cy):
        assert isinstance(classify_point(x, y, layout), Crossroad)
    sx, sy, *_ = keyed_links(params, "street", 300, 21)
    for x, y in zip(sx, sy):
        # the half-open band rule puts the y = s edge in the building;
        # interior points classify as street
        if y > layout.s:
            assert isinstance(classify_point(x, y, layout), Street)


def test_mixed_zone_is_drawn_once_per_link_with_free_area_weights():
    # As in _redraw_scenario, every street user's UAV hovers over box
    # (1, 1) and is rejected 83.5% of the time, while crossroad users'
    # UAVs hover over the street: a zone redrawn with each placement
    # round would leave far fewer street links than their area share.
    scenario = GeomScenario(
        BuiltUpParams(0.5, 300.0, 50.0), "mixed", theta_deg=math.degrees(math.atan2(28.5, 25.0)),
        phi_deg=0.0, h_uav=30.0,
    )
    layout = scenario.layout()
    keys = np.random.SeedSequence(5).generate_state(20_000, np.uint64)
    _, uy, *_ = _draw_links(scenario, layout, keys)
    share = 2.0 * layout.w / (layout.s + 2.0 * layout.w)
    sd = math.sqrt(share * (1 - share) / keys.size)
    assert (uy >= layout.s).mean() == pytest.approx(share, abs=4.0 * sd)


def zone_user(layout, zone, rng, h_rx=0.0):
    """A user uniform in the street segment (x in [0, s], y in [s, s + w])
    or the crossroad square [0, s]^2 at the origin."""
    y_lo, y_hi = (layout.s, layout.s + layout.w) if zone == "street" else (0.0, layout.s)
    return Node(rng.uniform(0.0, layout.s), rng.uniform(y_lo, y_hi), h_rx)


def candidate_r_ops(user, uav, layout):
    """Ground distances from the UAV of the track's building entry points,
    nearest the UAV first."""
    _, _, _, t = track_entries(layout, user.x, user.y, uav.x, uav.y)
    return ((1.0 - t) * math.hypot(uav.x - user.x, uav.y - user.y)).tolist()


def test_candidate_ops_worked_example():
    layout = derive_layout(TOY)
    user = Node(2.0, 7.0, 0.0)
    uav = Node(32.0, 27.0, 100.0)
    r = math.hypot(30.0, 20.0)
    _, ix, iy, t = track_entries(layout, user.x, user.y, uav.x, uav.y)
    cells = list(zip(ix.tolist(), iy.tolist()))
    assert cells == [(3, 3), (2, 2), (1, 1)]  # sorted by distance from the UAV
    assert candidate_r_ops(user, uav, layout) == pytest.approx(
        [0.1 * r, (17 / 30) * r, 0.9 * r], rel=1e-12
    )
    # entry points lie on the user-facing faces: y = 25, x = 15, x = 5
    x = user.x + t * (uav.x - user.x)
    y = user.y + t * (uav.y - user.y)
    assert y[0] == 25.0
    assert x[1] == 15.0
    assert x[2] == 5.0


def test_track_entries_in_any_direction():
    layout = derive_layout(TOY)
    # The worked example mirrored through x = 7.5, which maps the grid onto
    # itself with column ix going to 2 - ix: the same boxes are entered at
    # the same fractions of the track.
    _, ix, iy, t = track_entries(layout, 2.0, 7.0, 32.0, 27.0)
    _, mx, my, mt = track_entries(layout, 13.0, 7.0, -17.0, 27.0)
    assert (2 - mx).tolist() == ix.tolist()
    assert my.tolist() == iy.tolist()
    assert mt.tolist() == pytest.approx(t.tolist(), rel=1e-12)
    # Reversing the track enters the same boxes from the other side.
    _, rx, ry, _ = track_entries(layout, 32.0, 27.0, 2.0, 7.0)
    assert sorted(zip(rx.tolist(), ry.tolist())) == sorted(zip(ix.tolist(), iy.tolist()))
    # A batch of tracks in every direction: each track's entries equal a
    # call of its own, grouped by link and nearest the UAV end first.
    rng = np.random.default_rng(4)
    ends = rng.uniform(-60.0, 60.0, size=(4, 200))
    link, bx, by, bt = track_entries(layout, *ends)
    assert (np.diff(link) >= 0).all()
    for n in range(200):
        _, sx, sy, st = track_entries(layout, *ends[:, n])
        mine = link == n
        assert bx[mine].tolist() == sx.tolist() and by[mine].tolist() == sy.tolist()
        assert bt[mine].tolist() == st.tolist()
        assert (np.diff(st) <= 0.0).all()


#: Toy-grid tracks as (x_rx, y_rx, x_tx, y_tx): along a row and a column,
#: along faces, diagonals, through corners, one starting on a west face
#: (entered at t = 0) and one of zero length inside a box.
CUT_TRACKS = np.array([
    (2.0, 7.5, 32.0, 7.5), (7.5, 41.0, 7.5, 2.0), (2.0, 10.0, 32.0, 10.0),
    (5.0, 2.0, 5.0, 32.0), (2.0, 7.0, 32.0, 27.0), (31.0, 3.0, 4.0, 29.0),
    (7.0, 13.0, 13.0, 7.0), (2.0, 8.0, 8.0, 2.0), (8.0, 3.0, 12.0, 7.0),
    (-3.0, -3.0, 27.0, 27.0), (5.0, 7.0, 32.0, 7.0), (7.5, 7.5, 7.5, 7.5),
]).T


@pytest.mark.parametrize("t_max", [0.0, 0.3, 1.0])
def test_track_entries_cut_keeps_the_uncut_entries_up_to_t_max(t_max):
    layout = derive_layout(TOY)
    rng = np.random.default_rng(8)
    ends = np.hstack([CUT_TRACKS, rng.uniform(-40.0, 40.0, size=(4, 100))])
    full = track_entries(layout, *ends)
    kept = full[3] <= t_max
    cut = track_entries(layout, *ends, t_max=t_max)
    for a, b in zip(cut, full):
        assert a.tolist() == b[kept].tolist()
    assert 0 < kept.sum() <= full[3].size
    # One cut per track, negative ones included.
    per_track = rng.uniform(-0.2, 1.0, size=ends.shape[1])
    per_track[: CUT_TRACKS.shape[1]] = t_max
    kept = full[3] <= per_track[full[0]]
    cut = track_entries(layout, *ends, t_max=per_track)
    for a, b in zip(cut, full):
        assert a.tolist() == b[kept].tolist()


def test_candidate_ops_vertical_link_has_none():
    layout = derive_layout(TOY)
    user = Node(2.0, 2.0, 0.0)
    assert candidate_r_ops(user, Node(2.0, 2.0, 100.0), layout) == []


def brute_force_ops(user, uav, layout):
    """Independent face scan used as the enumeration oracle."""
    dx, dy = uav.x - user.x, uav.y - user.y
    r_rx = math.hypot(dx, dy)
    if r_rx == 0.0:
        return []
    found = []
    p, s = layout.period, layout.s
    k_hi = int(max(uav.x, uav.y) // p) + 2
    for k in range(k_hi):
        x = k * p + s
        if dx > 0.0 and user.x < x < uav.x:
            t = (x - user.x) / dx
            y_at = user.y + t * dy
            if (y_at % p) >= s:
                found.append(round((1.0 - t) * r_rx, 9))
        y = k * p + s
        if dy > 0.0 and user.y < y < uav.y:
            t = (y - user.y) / dy
            x_at = user.x + t * dx
            if (x_at % p) >= s:
                found.append(round((1.0 - t) * r_rx, 9))
    return sorted(found)


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_candidate_ops_match_brute_force(env):
    layout = derive_layout(ENVIRONMENTS[env])
    rng = np.random.default_rng(3)
    for _ in range(500):
        zone = "street" if rng.random() < 0.5 else "crossroad"
        user = zone_user(layout, zone, rng, h_rx=1.5)
        theta = rng.uniform(1.0, 89.0)
        phi = rng.uniform(0.0, 90.0)
        uav = uav_position_from_angles(user, theta, phi, rng.uniform(20.0, 400.0))
        got = sorted(round(r, 9) for r in candidate_r_ops(user, uav, layout))
        assert got == brute_force_ops(user, uav, layout)


def test_candidate_count_bound_and_order():
    layout = derive_layout(ENVIRONMENTS["urban"])
    rng = np.random.default_rng(14)
    for _ in range(300):
        user = zone_user(layout, "street", rng)
        uav = uav_position_from_angles(
            user, rng.uniform(2.0, 80.0), rng.uniform(0.0, 90.0), rng.uniform(30.0, 300.0)
        )
        r_rx = math.hypot(uav.x - user.x, uav.y - user.y)
        _, _, _, t = track_entries(layout, user.x, user.y, uav.x, uav.y)
        assert len(t) <= 2 * math.ceil(r_rx / layout.period) + 2
        r_ops = candidate_r_ops(user, uav, layout)
        assert r_ops == sorted(r_ops)
        assert all(0.0 < r < r_rx for r in r_ops)
        # entry points sit on a user-facing face line
        for ti in t:
            gaps = []
            for start, end in ((user.x, uav.x), (user.y, uav.y)):
                m = (start + ti * (end - start) - layout.s) % layout.period
                gaps.append(min(m, layout.period - m))
            assert min(gaps) < 1e-6


def test_street_user_along_street_is_always_los():
    # phi = 90 sends the link straight down the open street
    scenario = GeomScenario(
        params=ENVIRONMENTS["dense-urban"],
        user_zone="street",
        theta_deg=15.0,
        phi_deg=90.0,
        h_uav=100.0,
    )
    for seed in (0, 1, 99):
        est = estimate_plos(scenario, 400, seed)
        assert est.p_hat == 1.0
        assert est.k == est.n == 400


@pytest.mark.parametrize("phi", [0.0, 90.0])
def test_crossroad_user_along_either_street_is_always_los(phi):
    scenario = GeomScenario(
        params=ENVIRONMENTS["high-rise"],
        user_zone="crossroad",
        theta_deg=10.0,
        phi_deg=phi,
        h_uav=100.0,
    )
    est = estimate_plos(scenario, 400, 7)
    assert est.p_hat == 1.0


def test_overhead_uav_is_always_los():
    for zone in ("street", "crossroad"):
        scenario = GeomScenario(
            params=ENVIRONMENTS["high-rise"],
            user_zone=zone,
            theta_deg=90.0,
            h_uav=(50.0, 300.0),
        )
        est = estimate_plos(scenario, 300, 3)
        assert est.p_hat == 1.0


def test_low_elevation_through_tall_towers_is_rarely_los():
    scenario = GeomScenario(
        params=BuiltUpParams(0.3, 500.0, 500.0),
        user_zone="street",
        theta_deg=10.0,
        phi_deg=0.0,
        h_uav=100.0,
    )
    est = estimate_plos(scenario, 500, 11)
    assert est.p_hat < 0.1


def test_estimate_is_reproducible():
    scenario = GeomScenario(
        params=ENVIRONMENTS["urban"], user_zone="street", theta_deg=35.0, h_uav=100.0
    )
    a = estimate_plos(scenario, 500, 42)
    b = estimate_plos(scenario, 500, 42)
    assert a == b
    c = estimate_plos(scenario, 500, 43)
    assert c != a  # a different stream almost surely moves the count
    with pytest.raises(InvalidParams):
        estimate_plos(scenario, 0, 1)


def test_altitude_range_mode_redraws_below_user():
    # lo < h_rx < hi forces the redraw path and still yields estimates
    scenario = GeomScenario(
        params=ENVIRONMENTS["urban"],
        user_zone="crossroad",
        theta_deg=45.0,
        h_uav=(0.0, 50.0),
        h_rx=1.5,
    )
    est = estimate_plos(scenario, 300, 5)
    assert 0.0 <= est.p_hat <= 1.0


def test_theta_sweep_is_monotone_up_to_ci():
    params = ENVIRONMENTS["urban"]
    prev_hi = 0.0
    for theta in (10.0, 30.0, 50.0, 70.0, 90.0):
        scenario = GeomScenario(
            params=params, user_zone="street", theta_deg=theta, h_uav=100.0
        )
        est = estimate_plos(scenario, 800, 6)
        assert est.ci_hi >= prev_hi - 1e-12
        prev_hi = max(prev_hi, est.ci_lo)


def _redraw_scenario(gamma: float, **kw) -> GeomScenario:
    """High-rise street users looking along +x with a 25 m ground offset.

    Street users fill x in [0, s], y in [s, s + w], and s + 25 < period,
    so every UAV hovers over box (1, 1), the only box the track enters.
    """
    params = BuiltUpParams(0.5, 300.0, gamma)
    kw.setdefault("h_uav", 30.0)
    return GeomScenario(
        params=params,
        user_zone="street",
        theta_deg=math.degrees(math.atan2(28.5, 25.0)),
        phi_deg=0.0,
        **kw,
    )


def test_uav_in_building_redraw_matches_exact_probability():
    # The track enters box (1, 1) at x = s, a fraction t = (s - x)/25 from
    # the user, where the ray is 1.5 + 28.5 t high.  The roof there is the
    # one under the UAV, Rayleigh(50) conditioned below the UAV's 30 m, so
    # P_LoS = E_x[F(1.5 + 28.5 t) / F(30)] with F the Rayleigh CDF.  A
    # placement that skipped the redraw, or a fresh roof at the entry,
    # would give E_x[F(1.5 + 28.5 t)] = 0.0302 instead.
    scenario = _redraw_scenario(50.0)
    s = scenario.layout().s
    x = (np.arange(100_000) + 0.5) / 100_000 * s
    cdf = lambda h: 1.0 - np.exp(-h * h / (2.0 * 50.0**2))
    exact = float(np.mean(cdf(1.5 + 28.5 * (s - x) / 25.0) / cdf(30.0)))
    assert exact == pytest.approx(0.1835, abs=5e-5)
    n = 4000
    sd = math.sqrt(exact * (1.0 - exact) / n)
    for seed in (0, 1):
        est = estimate_plos(scenario, n, seed)
        assert abs(est.p_hat - exact) < 4.5 * sd


def test_placement_retries_are_bounded_and_typed(monkeypatch):
    # Roofs of Rayleigh(1e6) reach the 30 m UAV over box (1, 1) except
    # with probability 5e-10, so no placement is ever accepted.
    assert simgeom.PLACEMENT_ROUNDS == 100_000
    monkeypatch.setattr(simgeom, "PLACEMENT_ROUNDS", 200)
    scenario = _redraw_scenario(1e6)
    with pytest.raises(InvalidParams, match="no free-air UAV placement"):
        estimate_plos(scenario, 300, 0)
    # An altitude above the user is drawn with probability 7e-8 per try.
    scenario = _redraw_scenario(50.0, h_uav=(0.0, 1.5000001), h_rx=1.5)
    with pytest.raises(InvalidParams, match="never exceeds h_rx"):
        estimate_plos(scenario, 300, 0)


@pytest.mark.parametrize("n_runs", [1, 255, 256, 257, 600])
def test_estimate_across_chunk_boundaries(n_runs):
    scenario = GeomScenario(
        params=ENVIRONMENTS["urban"], user_zone="mixed", theta_deg=30.0, h_uav=100.0
    )
    est = estimate_plos(scenario, n_runs, 9)
    assert est.n == n_runs
    assert type(est.k) is int and type(est.n) is int
    assert estimate_plos(scenario, n_runs, 9) == est


def kernel_calls(monkeypatch):
    """Record the number of tracks and of entries of every ground-track
    kernel call the geometry engine makes."""
    calls = []

    def counted(layout, x_rx, *rest):
        out = track_entries(layout, x_rx, *rest)
        calls.append((np.size(x_rx), out[0].size))
        return out

    monkeypatch.setattr(simgeom, "track_entries", counted)
    return calls


def test_estimate_does_not_depend_on_the_chunk_size(monkeypatch):
    scenario = GeomScenario(
        params=ENVIRONMENTS["high-rise"], user_zone="mixed", theta_deg=40.0,
        h_uav=(20.0, 150.0),
    )
    est = estimate_plos(scenario, 300, 4)
    calls = kernel_calls(monkeypatch)
    # A budget of one period gives every link a call of its own; the
    # longest track, 150 m at theta 40, is 3.1 periods, so a budget of
    # 50 periods gives 12 links per call.
    for budget, links in ((1, 1), (50, 12)):
        monkeypatch.setattr(simgeom, "CHUNK_PERIODS", budget)
        calls.clear()
        assert estimate_plos(scenario, 300, 4) == est
        assert {n for n, _ in calls} == {links}


def test_a_chunk_holds_as_many_links_as_fit_its_track_budget(monkeypatch):
    # 2000 links of 1.3 periods (urban, 100 m, theta 60) fit the budget
    # of one call; at theta 5 each track is 25.2 periods long.
    calls = kernel_calls(monkeypatch)
    scenario = GeomScenario(ENVIRONMENTS["urban"], "mixed", 60.0, h_uav=100.0)
    assert estimate_plos(scenario, 2000, 1).n == 2000
    assert [n for n, _ in calls] == [2000]
    calls.clear()
    scenario = GeomScenario(ENVIRONMENTS["urban"], "mixed", 5.0, h_uav=100.0)
    estimate_plos(scenario, 2000, 1)
    periods = 98.5 / math.tan(math.radians(5.0)) / scenario.layout().period
    per_call = math.floor(simgeom.CHUNK_PERIODS / (periods + 1.0))
    assert per_call < 2000
    assert [n for n, _ in calls] == [per_call] * (2000 // per_call) + [2000 % per_call]


@pytest.mark.parametrize("env", ["urban", "high-rise", "suburban"])
def test_a_chunk_lists_entries_in_proportion_to_its_track_budget(monkeypatch, env):
    # A track of L periods meets at most about sqrt(2)*L + 3 boxes, and a
    # chunk holds at most budget/(L + 1) tracks, so no call lists more
    # than about 3 entries per period of budget.  A fixed link count per
    # call would list 500 links' entries at theta 0.1.
    calls = kernel_calls(monkeypatch)
    for theta in (0.1, 1.0, 5.0, 30.0, 60.0, 90.0):
        scenario = GeomScenario(ENVIRONMENTS[env], "mixed", theta, h_uav=100.0)
        assert estimate_plos(scenario, 500, 2).n == 500
    assert len(calls) > 6
    assert max(entries for _, entries in calls) <= 4 * simgeom.CHUNK_PERIODS


def test_estimate_builds_no_generator(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the geometry engine built a Generator")

    monkeypatch.setattr(simgeom.np.random, "default_rng", fail)
    monkeypatch.setattr(simgeom.np.random, "Generator", fail)
    scenario = GeomScenario(params=ENVIRONMENTS["urban"], user_zone="mixed", theta_deg=30.0)
    assert estimate_plos(scenario, 600, 2).n == 600
