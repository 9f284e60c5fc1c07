import hashlib
import math
import sys
import tracemalloc

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
    stream_uniforms,
    track_entries,
    uav_position_from_angles,
)
from uavlos import citygeom, simgeom
from uavlos.errors import IllegalSpec, InvalidAngle, InvalidParams
from uavlos.harness import SweepAxis, SweepSpec, run_sweep
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


def point_values(scenarios):
    """The per-point values table los_counts hands its chunks."""
    return np.array([simgeom._point_values(scenario) for scenario in scenarios])


def scenario_counts(scenarios, n_runs, seeds):
    """los_counts of scenarios that share params, user zone and h_rx,
    point q keyed by seeds[q]: each point's LoS count and seconds."""
    first = scenarios[0]
    return simgeom.los_counts(
        first.layout(), first.params.gamma, first.user_zone, first.h_rx,
        point_values(scenarios), citygeom.seed_keys(seeds), n_runs,
        [scenario.h_uav for scenario in scenarios],
    )


def engine_args(scenarios, values, layout, keys, point):
    """The arguments of _draw_links and _first_blockers for the links of
    keys on layout, link n of scenarios[point[n]] with the values
    values[point[n]]."""
    first = scenarios[0]
    return (layout, first.params.gamma, first.user_zone, first.h_rx, values, keys, point,
            [scenario.h_uav for scenario in scenarios])


def keyed_links(params, zone, n, seed, h_rx=0.0):
    """User and UAV positions of n links as the geometry engine draws them
    from their keys (a uniform azimuth, a 100 m UAV at theta 30)."""
    scenario = GeomScenario(params, zone, theta_deg=30.0, h_uav=100.0, h_rx=h_rx)
    keys = np.random.SeedSequence(seed).generate_state(n, np.uint64)
    return _draw_links(*engine_args([scenario], point_values([scenario]), scenario.layout(),
                                    keys, np.zeros(n, dtype=np.intp)))


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
    _, uy, *_ = _draw_links(*engine_args([scenario], point_values([scenario]), layout, keys,
                                         np.zeros(keys.size, dtype=np.intp)))
    share = 2.0 * layout.w / (layout.s + 2.0 * layout.w)
    sd = math.sqrt(share * (1 - share) / keys.size)
    assert (uy >= layout.s).mean() == pytest.approx(share, abs=4.0 * sd)


def zone_user(layout, zone, rng, h_rx=0.0):
    """A user uniform in the street segment (x in [0, s], y in [s, s + w])
    or the crossroad square [0, s]^2 at the origin."""
    y_lo, y_hi = (layout.s, layout.s + layout.w) if zone == "street" else (0.0, layout.s)
    return Node(rng.uniform(0.0, layout.s), rng.uniform(y_lo, y_hi), h_rx)


def canonical(link, ix, iy, t):
    """Entries as lists sorted by link, then column, then row: the kernel
    lists them in an order it does not specify."""
    order = np.lexsort((iy, ix, link))
    return [a.take(order).tolist() for a in (link, ix, iy, t)]


def candidate_r_ops(user, uav, layout):
    """Ground distances from the UAV of the track's building entry points,
    by column, then row."""
    t = np.array(canonical(*track_entries(layout, user.x, user.y, uav.x, uav.y))[3])
    return ((1.0 - t) * math.hypot(uav.x - user.x, uav.y - user.y)).tolist()


def test_candidate_ops_worked_example():
    layout = derive_layout(TOY)
    user = Node(2.0, 7.0, 0.0)
    uav = Node(32.0, 27.0, 100.0)
    r = math.hypot(30.0, 20.0)
    _, ix, iy, t = canonical(*track_entries(layout, user.x, user.y, uav.x, uav.y))
    t = np.array(t)
    cells = list(zip(ix, iy))
    assert cells == [(1, 1), (2, 2), (3, 3)]  # by column, then row
    assert candidate_r_ops(user, uav, layout) == pytest.approx(
        [0.9 * r, (17 / 30) * r, 0.1 * r], rel=1e-12
    )
    # entry points lie on the user-facing faces: x = 5, x = 15, y = 25
    x = user.x + t * (uav.x - user.x)
    y = user.y + t * (uav.y - user.y)
    assert x[0] == 5.0
    assert x[1] == 15.0
    assert y[2] == 25.0


def no_box_twice(link, ix, iy):
    """Whether no box is listed twice for one link."""
    return np.unique(np.stack([link, ix, iy]), axis=1).shape[1] == link.size


def test_track_entries_in_any_direction():
    layout = derive_layout(TOY)
    # The worked example mirrored through x = 7.5, which maps the grid onto
    # itself with column ix going to 2 - ix: the same boxes are entered at
    # the same fractions of the track.
    _, ix, iy, t = track_entries(layout, 2.0, 7.0, 32.0, 27.0)
    _, mx, my, mt = track_entries(layout, 13.0, 7.0, -17.0, 27.0)
    direct = sorted(zip(ix.tolist(), iy.tolist(), t.tolist()))
    mirrored = sorted(zip((2 - mx).tolist(), my.tolist(), mt.tolist()))
    assert [e[:2] for e in mirrored] == [e[:2] for e in direct]
    assert [e[2] for e in mirrored] == pytest.approx([e[2] for e in direct], rel=1e-12)
    # Reversing the track enters the same boxes from the other side.
    _, rx, ry, _ = track_entries(layout, 32.0, 27.0, 2.0, 7.0)
    assert sorted(zip(rx.tolist(), ry.tolist())) == sorted(zip(ix.tolist(), iy.tolist()))
    # A batch of tracks in every direction: each track's entries equal a
    # call of its own.  Listed by the latest-visited column, then row, the
    # order check_los_edges picks its blocker by, they run from the UAV
    # end toward the user.
    rng = np.random.default_rng(4)
    ends = rng.uniform(-60.0, 60.0, size=(4, 200))
    link, bx, by, bt = track_entries(layout, *ends)
    assert no_box_twice(link, bx, by)
    for n in range(200):
        _, sx, sy, st = track_entries(layout, *ends[:, n])
        mine = link == n
        assert canonical(link[mine], bx[mine], by[mine], bt[mine]) == canonical(
            np.full(sx.size, n), sx, sy, st
        )
        x0, y0, x1, y1 = ends[:, n]
        visit = np.lexsort((np.where(y1 > y0, -sy, sy), np.where(x1 > x0, -sx, sx)))
        assert (np.diff(st[visit]) < 0.0).all()


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
    assert canonical(*cut) == canonical(*(b[kept] for b in full))
    assert 0 < kept.sum() <= full[3].size
    # One cut per track, negative ones included.
    per_track = rng.uniform(-0.2, 1.0, size=ends.shape[1])
    per_track[: CUT_TRACKS.shape[1]] = t_max
    kept = full[3] <= per_track[full[0]]
    cut = track_entries(layout, *ends, t_max=per_track)
    assert canonical(*cut) == canonical(*(b[kept] for b in full))


def box_exits(layout, ends, link, ix, iy):
    """Reference: the fraction of track link[m] where it leaves the closed
    box (ix[m], iy[m]), infinite where it never does."""
    p, s = layout.period, layout.s
    leave = np.full(link.size, np.inf)
    for c0, c1, i in ((ends[0][link], ends[2][link], ix), (ends[1][link], ends[3][link], iy)):
        d = c1 - c0
        edge = np.where(d > 0.0, i * p, (i - 1) * p + s)
        with np.errstate(divide="ignore", invalid="ignore"):
            leave = np.where(d != 0.0, np.minimum(leave, (edge - c0) / d), leave)
    return leave


@pytest.mark.parametrize("t_min", [0.0, 0.3, 0.7])
def test_track_entries_start_cut_lists_the_boxes_met_from_t_min(t_min):
    # A box entered at or after the start is listed as the track without
    # a start lists it, same t bits; a box the track is inside at the
    # start is listed there; a box left before it is not.
    layout = derive_layout(TOY)
    rng = np.random.default_rng(9)
    ends = np.hstack([CUT_TRACKS, rng.uniform(-40.0, 40.0, size=(4, 100))])
    n = ends.shape[1]
    per_track = rng.uniform(0.0, 1.0, size=n)
    per_track[: CUT_TRACKS.shape[1]] = t_min
    upper = np.maximum(per_track, rng.uniform(0.0, 1.2, size=n).clip(max=1.0))
    for start, t_max in ((t_min, 1.0), (per_track, 1.0), (per_track, upper)):
        lo = np.broadcast_to(start, (n,))
        full = track_entries(layout, *ends, t_max=t_max)
        got = track_entries(layout, *ends, t_max=t_max, t_min=start)
        assert (got[3] >= lo[got[0]]).all()
        at_start = got[3] == lo[got[0]]
        later = full[3] > lo[full[0]]
        assert canonical(*(a[~at_start] for a in got)) == canonical(*(b[later] for b in full))
        assert no_box_twice(*got[:3])
        listed = set(zip(*(a[at_start].tolist() for a in got[:3])))
        before = ~later
        entered = list(zip(*(a[before].tolist() for a in full[:3])))
        assert listed <= set(entered)
        leave = box_exits(layout, ends, *full[:3])[before]
        inside = {box for box, x in zip(entered, leave - lo[full[0][before]]) if x > 1e-9}
        left = {box for box, x in zip(entered, leave - lo[full[0][before]]) if x < -1e-9}
        assert inside <= listed and not listed & left
        assert inside and (left or not lo.any())


def kernel_guard_tracks():
    """20 000 urban tracks as (x_rx, y_rx, x_tx, y_tx, t_max), drawn from
    the counter-based stream so that no library's RNG can move them, in
    eight groups of 2 500: random directions, short and long; along x
    and along y, half of them on a face line; zero length anywhere, on
    band edges and corners and one ulp off them; both ends on edges and
    corners; both ends one ulp off them; and ends mixing the two.  Half
    of the tracks of each group are uncut, some cut at 0, the rest at a
    fraction in [-1.4, 1)."""
    layout = derive_layout(ENVIRONMENTS["urban"])
    p, s = layout.period, layout.s
    n = 2500
    u = stream_uniforms(12, np.arange(6 * 8 * n, dtype=np.uint64)).reshape(8, 6, n)
    edges = np.array([e for k in range(-2, 36) for e in (k * p, k * p + s)])
    near = np.concatenate([np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])

    def pick(values, v):
        return values[(v * values.size).astype(np.int64)]

    groups = []
    for g, (a, b, c, d, e, f) in enumerate(u):
        x0, y0 = -100.0 + 1600.0 * a, -100.0 + 1600.0 * b
        if g == 0:
            x1, y1 = x0 + 300.0 * c - 150.0, y0 + 300.0 * d - 150.0
        elif g == 1:
            x1, y1 = x0 + 3000.0 * c - 1500.0, y0 + 3000.0 * d - 1500.0
        elif g == 2:
            y0 = np.where(e < 0.5, y0, pick(edges, e))
            x1, y1 = x0 + 1600.0 * c - 800.0, y0
        elif g == 3:
            x0 = np.where(e < 0.5, x0, pick(edges, e))
            x1, y1 = x0, y0 + 1600.0 * d - 800.0
        elif g == 4:
            x0 = np.where(e < 0.3, x0, np.where(e < 0.65, pick(edges, c), pick(near, c)))
            y0 = np.where(e < 0.5, y0, np.where(e < 0.8, pick(edges, d), pick(near, d)))
            x1, y1 = x0, y0
        elif g == 5:
            x0, y0 = pick(edges, a), np.where(e < 0.5, pick(edges, b), y0)
            x1, y1 = pick(edges, c), np.where(e < 0.5, pick(edges, d), y0 + 600.0 * d - 300.0)
        elif g == 6:
            x0, y0 = pick(near, a), np.where(e < 0.5, pick(near, b), y0)
            x1, y1 = pick(near, c), np.where(e < 0.5, pick(near, d), y0 + 600.0 * d - 300.0)
        else:
            x0 = np.where(e < 0.5, pick(edges, a), pick(near, a))
            y0 = np.where(e < 0.5, pick(near, b), pick(edges, b))
            x1, y1 = x0 + 400.0 * c - 200.0, np.where(e < 0.25, y0, y0 + 400.0 * d - 200.0)
        t_max = np.where(f < 0.5, 1.0, np.where(f < 0.55, 0.0, 2.4 * f - 1.4))
        groups.append((x0, y0, x1, y1, t_max))
    return layout, [np.concatenate(v) for v in zip(*groups)]


def test_track_entries_keep_their_bits():
    # A digest of every output byte of the kernel on a fixed batch, its
    # entries taken in the canonical order link, ix, iy, recorded before
    # the kernel listed them in that order instead of along each track:
    # any change to an entry, its t bits or the output dtypes moves it,
    # and the in-band-order tests check the order itself.  The
    # dense-oracle tests check that the entries are right; this checks
    # that they stay what they were.
    layout, (x0, y0, x1, y1, t_max) = kernel_guard_tracks()
    assert ((x0 == x1) & (y0 == y1)).sum() == 2500
    assert ((x0 == x1) ^ (y0 == y1)).sum() > 5000
    assert 0 < (t_max < 0.0).sum() < (t_max < 1.0).sum() < 10000
    out = track_entries(layout, x0, y0, x1, y1, t_max=t_max)
    assert [a.dtype for a in out] == [np.dtype(np.int64)] * 3 + [np.dtype(np.float64)]
    assert out[0].size == 112964 and np.unique(out[0]).size == 15478
    canonical = np.lexsort((out[2], out[1], out[0]))
    digest = hashlib.sha256()
    for a in out:
        digest.update(a.take(canonical).astype(a.dtype.newbyteorder("<")).tobytes())
    assert digest.hexdigest() == "7ec5d2de282c4cf7dc516054f9138208037fc0ed3a0656d1d25fcd1d1762c7e3"


def repeat_expansion(first, count):
    """Reference for citygeom._band_rows: the kernel's band listing before
    it scanned bands, every window through one np.repeat and np.cumsum,
    window by window, each window's bands ascending."""
    count = np.maximum(count, 0)
    row = np.repeat(np.arange(count.size), count)
    first = first - np.cumsum(count)
    first += count
    i = np.arange(row.size)
    i += first.take(row)
    return row, i


def reference_band_visits(c0, dc, t_lo, t_hi, p, s):
    """Reference for citygeom._band_visits: the kernel before it listed
    bands band-major, every candidate band through repeat_expansion, with
    no in-place arithmetic and masks instead of index arrays."""
    ca = c0 + dc * t_lo
    hi = c0 + dc * t_hi
    first = np.ceil(np.minimum(ca, hi) / p - 1.0 - citygeom._BAND_SLACK).astype(np.int64)
    last = np.floor((np.maximum(ca, hi) - s) / p + citygeom._BAND_SLACK).astype(np.int64)
    row, i = repeat_expansion(first, last - first + 1)
    tb = i.astype(np.float64)
    ta = tb * p + s - c0.take(row)
    tb = (tb + 1.0) * p - c0.take(row)
    d = dc.take(row)
    still = d == 0.0
    outside = still & ((ta > 0.0) | (tb < 0.0))
    d[still] = 1.0
    with np.errstate(over="ignore"):
        lo, hi = np.minimum(ta / d, tb / d), np.maximum(ta / d, tb / d)
    lo[still], hi[still] = -np.inf, np.inf
    lo = np.maximum(lo, t_lo if np.ndim(t_lo) == 0 else t_lo.take(row))
    hi = np.minimum(hi, t_hi if np.ndim(t_hi) == 0 else t_hi.take(row))
    keep = (lo <= hi) & ~outside
    return row[keep], i[keep], lo[keep], hi[keep]


def entry_multiset(link, ix, iy, t):
    """Entries with their t bits, sorted: equal for equal multisets."""
    bits = t.view(np.uint64)
    order = np.lexsort((bits, iy, ix, link))
    return [a.take(order) for a in (link, ix, iy, bits)]


def mixed_tracks(seed, n):
    """n urban tracks as (x_rx, y_rx, x_tx, y_tx, t_min, t_max): zero-length,
    along x or y, along a face line, short in any direction and, one in
    50, 500 periods long; each with its own start and cut, some cuts
    below their starts or below 0."""
    layout = derive_layout(ENVIRONMENTS["urban"])
    p, s = layout.period, layout.s
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-300.0, 3000.0, size=(2, n))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    length = np.where(rng.random(n) < 0.02, 500.0 * p, rng.uniform(0.0, 3.0 * p, n))
    x1, y1 = x0 + length * np.cos(angle), y0 + length * np.sin(angle)
    kind = rng.integers(0, 5, n)
    x1 = np.where(kind == 0, x0, x1)  # zero length, or along y
    y1 = np.where((kind == 0) | (kind == 1), y0, y1)  # zero length, or along x
    face = rng.integers(0, 60, n) * p + np.where(rng.random(n) < 0.5, s, 0.0)
    y0 = np.where(kind == 2, face, y0)  # along a face line
    y1 = np.where(kind == 2, face, y1)
    t_min = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n))
    t_max = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(-0.2, 1.0, n))
    return layout, (x0, y0, x1, y1, t_min, t_max)


@pytest.mark.parametrize("seed, n", [(1, 3000), (2, 3000), (3, 400)])
def test_track_entries_list_the_entries_of_the_repeat_expansion(seed, n, monkeypatch):
    # Band-major scans list the same entries, t bits included, as the
    # window-by-window expansion, in the batches that scan and in the
    # smaller ones that do not.
    layout, (x0, y0, x1, y1, t_min, t_max) = mixed_tracks(seed, n)
    got = track_entries(layout, x0, y0, x1, y1, t_max=t_max, t_min=t_min)
    assert no_box_twice(*got[:3])
    with monkeypatch.context() as m:
        m.setattr(citygeom, "_band_visits", reference_band_visits)
        want = track_entries(layout, x0, y0, x1, y1, t_max=t_max, t_min=t_min)
    # Some tracks list hundreds of boxes, through the repeat after the scans.
    assert np.bincount(want[0]).max() > 400
    for a, b in zip(entry_multiset(*got), entry_multiset(*want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_band_rows_list_each_band_of_each_window_once():
    # Windows of 0 to 600 bands, and negative counts, at the sizes below
    # and above the scans' threshold.
    rng = np.random.default_rng(7)
    for n in (0, 1, citygeom._SCAN_WINDOWS - 1, citygeom._SCAN_WINDOWS, 5000):
        count = np.where(rng.random(n) < 0.05, rng.integers(-3, 600, n), rng.integers(-1, 4, n))
        first = rng.integers(-1000, 1000, n)
        row, i = citygeom._band_rows(first, count)
        want_row, want_i = repeat_expansion(first, count)
        order = np.lexsort((i, row))
        assert row.dtype == want_row.dtype and i.dtype == want_i.dtype
        assert np.array_equal(row[order], want_row) and np.array_equal(i[order], want_i)


@pytest.mark.parametrize("end", [(0.0, 2.2e-311), (5e-324, 0.0), (0.0, 1e-307), (-1e-307, 1e-307)])
def test_a_tiny_track_meets_the_boxes_of_its_point(end):
    # From the origin, a corner of box (0, 0) of the urban grid, a track
    # of subnormal or tiny length puts its band-edge fractions beyond the
    # float range: they overflow to their limits without a warning, and
    # the track meets box (0, 0) at t = 0 and no other box, like the
    # zero-length track there.
    layout = derive_layout(ENVIRONMENTS["urban"])
    link, ix, iy, t = track_entries(layout, 0.0, 0.0, *end)
    assert link.tolist() == [0] and (ix[0], iy[0], t[0]) == (0, 0, 0.0)
    still = track_entries(layout, 0.0, 0.0, 0.0, 0.0)
    assert [a.tolist() for a in still] == [[0], [0], [0], [0.0]]


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
        link, ix, iy, t = track_entries(layout, user.x, user.y, uav.x, uav.y)
        assert len(t) <= 2 * math.ceil(r_rx / layout.period) + 2
        assert no_box_twice(link, ix, iy)
        # The UAV lies up and to the right of its user (phi in [0, 90]),
        # so ascending bands run from the user toward the UAV.
        r_ops = candidate_r_ops(user, uav, layout)
        assert r_ops == sorted(r_ops, reverse=True)
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


def one_round_at_a_time(scenarios, values, layout, keys, point):
    """_draw_links as a loop of one placement round per step, each step
    redrawing every link still rejected once and hashing all five
    stream positions of its round: the reference the passes of
    _draw_links must reproduce bit for bit.  It takes each point's
    values from _point_values itself, not from values."""
    n = keys.size
    zone, h_rx = scenarios[0].user_zone, scenarios[0].h_rx
    if zone == "mixed":
        w_street = 2.0 * layout.w / (layout.s + 2.0 * layout.w)
        street = stream_uniforms(keys, 0) < w_street
    else:
        street = np.full(n, zone == "street")
    values = [
        v[0] if len(set(v)) == 1 else np.array(v)[point]
        for v in zip(*(simgeom._point_values(scenario) for scenario in scenarios))
    ]
    p, s, w = layout.period, layout.s, layout.w
    placed = np.empty((5, n))
    city = np.empty(n, dtype=np.uint64)
    pending = np.arange(n)
    for r in range(simgeom.PLACEMENT_ROUNDS):
        tan, cos_fixed, sin_fixed, phi_lo, phi_span, h_lo, h_span = values
        bits = citygeom.stream_bits(keys[pending, None], 1 + 5 * r + np.arange(5))
        c = bits[:, 0]
        u = citygeom.bits_to_uniforms(bits[:, 1:])
        ux = s * u[:, 0]
        uy = np.where(street[pending], s + w * u[:, 1], s * u[:, 1])
        cos_phi, sin_phi = cos_fixed, sin_fixed
        ranged = phi_span > 0.0
        if np.any(ranged):
            phi = np.radians(phi_lo + phi_span * u[:, 2])
            cos_phi, sin_phi = np.cos(phi), np.sin(phi)
            if not np.all(ranged):
                cos_phi = np.where(ranged, cos_phi, cos_fixed)
                sin_phi = np.where(ranged, sin_phi, sin_fixed)
        vz = h_lo + h_span * u[:, 3]
        d = (vz - h_rx) / tan
        vx = ux + d * cos_phi
        vy = uy + d * sin_phi
        rejected = vz <= h_rx
        over = np.flatnonzero(~rejected & ((vx % p) >= s) & ((vy % p) >= s))
        ix = (vx[over] // p).astype(np.int64) + 1
        iy = (vy[over] // p).astype(np.int64) + 1
        rejected[over] = (
            citygeom.roof_heights(c[over], ix, iy, scenarios[0].params.gamma) >= vz[over]
        )
        placed[:, pending] = ux, uy, vx, vy, vz
        city[pending] = c
        if not rejected.any():
            return (*placed, city)
        pending = pending[rejected]
        values = [v[rejected] if np.ndim(v) else v for v in values]
    low = pending[placed[4, pending] <= h_rx]
    if low.size:
        h_uav = scenarios[point[low[0]]].h_uav
        raise InvalidParams(f"h_uav range {h_uav} never exceeds h_rx={h_rx}")
    h_uav = scenarios[point[pending[0]]].h_uav
    raise InvalidParams(f"no free-air UAV placement found at h_uav={h_uav}")


def drawn_or_refused(draw, scenarios, n_runs, seed):
    """draw's links for n_runs links of each scenario, one chunk, from
    the run keys of seed, or the message of the InvalidParams it raises."""
    keys = citygeom.run_keys(seed, n_runs * len(scenarios))
    point = np.repeat(np.arange(len(scenarios)), n_runs)
    try:
        return draw(scenarios, point_values(scenarios), scenarios[0].layout(), keys, point)
    except InvalidParams as error:
        return str(error)


def assert_same_draws(scenarios, n_runs, seed):
    """_draw_links gives the reference's links bit for bit, or refuses
    the chunk with the reference's message; returns that outcome."""
    got = drawn_or_refused(lambda *args: _draw_links(*engine_args(*args)), scenarios, n_runs, seed)
    expected = drawn_or_refused(one_round_at_a_time, scenarios, n_runs, seed)
    assert type(got) is type(expected)
    if isinstance(expected, str):
        assert got == expected
    else:
        for a, b in zip(got, expected, strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    return expected


HIGH_RISE = ENVIRONMENTS["high-rise"]
URBAN = ENVIRONMENTS["urban"]
#: Chunks of several points, as lists of scenarios: axis-aligned street
#: links on high-rise, low enough that many rounds are rejected, where no
#: point draws its azimuth or altitude, so a round hashes three stream
#: positions, or only some points draw their altitude; mixed urban links
#: with a drawn azimuth, or drawn and fixed azimuths in one chunk; and
#: altitude ranges that straddle h_rx, where rounds at or below the user
#: are rejected too.
DRAW_CHUNKS = {
    "high-rise phi 0": [
        GeomScenario(HIGH_RISE, "street", theta, phi_deg=0.0, h_uav=h)
        for theta in (5.0, 30.0, 60.0, 90.0) for h in (40.0, 100.0)
    ],
    "high-rise phi 90": [
        GeomScenario(HIGH_RISE, "street", theta, phi_deg=90.0, h_uav=h)
        for theta in (5.0, 45.0, 85.0) for h in (40.0, 100.0)
    ],
    "high-rise some points draw h_uav": [
        GeomScenario(HIGH_RISE, "street", theta, phi_deg=0.0, h_uav=h)
        for theta in (10.0, 60.0) for h in (40.0, (30.0, 60.0), 100.0)
    ],
    "high-rise crossroad": [
        GeomScenario(HIGH_RISE, "crossroad", theta, phi_deg=phi, h_uav=45.0)
        for theta, phi in ((10.0, 0.0), (10.0, 90.0), (50.0, 30.0))
    ],
    "urban mixed drawn phi": [
        GeomScenario(URBAN, "mixed", theta, h_uav=h)
        for theta in (5.0, 40.0, 90.0) for h in (30.0, 100.0, (20.0, 80.0))
    ],
    "urban mixed drawn and fixed phi": [
        GeomScenario(URBAN, "mixed", 20.0, phi_deg=phi, h_uav=35.0)
        for phi in ((0.0, 90.0), 0.0, 30.0, (10.0, 20.0), 90.0)
    ],
    "h_uav straddles h_rx": [
        GeomScenario(HIGH_RISE, zone, theta, phi_deg=phi, h_uav=h_uav, h_rx=1.5)
        for zone in ("street",) for theta, phi, h_uav in (
            (30.0, 0.0, (0.0, 10.0)), (60.0, (0.0, 90.0), (1.0, 3.0)), (90.0, 90.0, (0.5, 40.0)),
        )
    ],
    "h_uav straddles h_rx, mixed": [
        GeomScenario(URBAN, "mixed", theta, h_uav=(0.0, 12.0), h_rx=h_rx)
        for theta in (15.0, 75.0) for h_rx in (2.0,)
    ],
}


@pytest.mark.parametrize("name", sorted(DRAW_CHUNKS))
def test_placement_passes_match_one_round_at_a_time(name):
    # Round r of a link is a pure function of its key and r, so drawing
    # rounds in passes changes no bit of any link.
    for seed in (1, 7):
        assert not isinstance(assert_same_draws(DRAW_CHUNKS[name], 300, seed), str)


@pytest.mark.parametrize("rounds", [1, 2, 9, 200])
def test_placement_give_up_matches_one_round_at_a_time(rounds, monkeypatch):
    # With PLACEMENT_ROUNDS cut to 1 (round 0 alone), 2 (a pass of one
    # round), 9 (a whole first pass) and 200 (the last pass clipped), the
    # rounds a link is given up after can end inside a pass.  Either both
    # draws accept every link alike, or both refuse the chunk with the
    # same message, naming the same point.  Rayleigh(150) roofs reach a
    # 30 m UAV over box (1, 1) with probability 0.98, so links there need
    # about 50 rounds; Rayleigh(1e6) roofs always do.  On a grid of 2.9 m
    # streets, a UAV drawn at 0 to 3 m and seen at theta 2 from a user at
    # 1.5 m sits at or below the user in half the rounds and over a
    # Rayleigh(1e6) roof in most others; which of the two its last round
    # gives decides the message.  The chunks mix points that draw neither
    # azimuth nor altitude with points that draw one of them, so passes
    # that hash three, four and five positions per round give up links.
    monkeypatch.setattr(simgeom, "PLACEMENT_ROUNDS", rounds)
    hard, stuck = _redraw_scenario(150.0), _redraw_scenario(1e6, h_uav=31.0)
    free = GeomScenario(hard.params, "street", 45.0, phi_deg=90.0, h_uav=40.0)
    roam = GeomScenario(hard.params, "street", 45.0, phi_deg=(0.0, 90.0), h_uav=40.0)
    low = GeomScenario(hard.params, "street", 45.0, phi_deg=90.0, h_uav=(0.0, 1.5000001))
    rare = GeomScenario(hard.params, "street", 45.0, phi_deg=90.0, h_uav=(0.0, 1.6))
    narrow = BuiltUpParams(0.9, 300.0, 1e6)
    walled = GeomScenario(narrow, "street", 50.0, phi_deg=0.0, h_uav=31.0)
    either = GeomScenario(narrow, "street", 2.0, phi_deg=0.0, h_uav=(0.0, 3.0))
    outcomes = [
        assert_same_draws(chunk, n_runs, seed)
        for chunk, n_runs, seeds in (
            ([free, hard], 40, (0, 3)), ([hard, stuck], 20, (0, 3)),
            ([free, stuck, low], 20, (0, 3)), ([hard, rare], 30, (0, 3)),
            ([free, rare], 30, (0, 3)), ([stuck, hard, free], 1, (0, 3)),
            ([roam, stuck, hard], 20, (0, 3)), ([stuck, roam, low], 20, (0, 3)),
            ([walled, either], 1, range(10)),
        )
        for seed in seeds
    ]
    messages = {o for o in outcomes if isinstance(o, str)}
    assert any("never exceeds" in m for m in messages)
    assert any("no free-air UAV placement found at h_uav=31.0" in m for m in messages)
    if rounds == 200:
        assert any(not isinstance(o, str) for o in outcomes)


def test_heatmap_chunks_take_two_or_three_placement_passes(monkeypatch):
    # Each placement pass is one stream_bits call of the engine.  The
    # 170-point high-rise heatmap at seed 1, 34 000 links, takes 3 chunks
    # of CHUNK_LINKS links; a round at a time took up to six rounds in a
    # chunk.  No point draws its azimuth or altitude, so round 0 hashes
    # three stream positions per link (city key, user x and user y),
    # where all five once were.
    passes, round_0_rows = [], []
    stream_bits, draw_links = simgeom.stream_bits, simgeom._draw_links

    def counted_bits(keys, counter):
        bits = stream_bits(keys, counter)
        if not passes[-1]:
            assert bits.shape[1:] == keys.shape
            round_0_rows.append(bits.shape[0])
        passes[-1] += 1
        return bits

    def counted_draw(*args):
        # Only the placement's calls: the chunk's key derivation is one more.
        passes.append(0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simgeom, "stream_bits", counted_bits)
            return draw_links(*args)

    monkeypatch.setattr(simgeom, "_draw_links", counted_draw)
    spec = SweepSpec(
        engine="geom", params=ENVIRONMENTS["high-rise"], user_zone="street", n_runs=200,
        seed=1, axes=(SweepAxis("theta", tuple(range(5, 90, 5))),
                      SweepAxis("phi", tuple(range(0, 100, 10)))),
    )
    assert len(run_sweep(spec).rows) == 170
    assert sorted(passes) == [2, 3, 3]
    assert round_0_rows == [3] * 3


@pytest.mark.parametrize("n_runs", [1, 255, 256, 257, 600])
def test_estimate_across_chunk_boundaries(n_runs):
    scenario = GeomScenario(
        params=ENVIRONMENTS["urban"], user_zone="mixed", theta_deg=30.0, h_uav=100.0
    )
    est = estimate_plos(scenario, n_runs, 9)
    assert est.n == n_runs
    assert type(est.k) is int and type(est.n) is int
    assert estimate_plos(scenario, n_runs, 9) == est


def test_estimate_does_not_depend_on_the_chunk_size(monkeypatch, kernel_calls):
    scenario = GeomScenario(
        params=ENVIRONMENTS["high-rise"], user_zone="mixed", theta_deg=40.0,
        h_uav=(20.0, 150.0),
    )
    est = estimate_plos(scenario, 300, 4)
    # Chunks of one link give every link a call of its own, and chunks of
    # 50 a call per chunk: the longest track, 150 m at theta 40, is 3.1
    # periods, so 50 links fit the default budget.  A budget of one
    # period gives every link of one chunk a call of its own too.
    for chunk, budget, links in ((1, citygeom.CALL_PERIODS, 1), (50, citygeom.CALL_PERIODS, 50),
                                 (simgeom.CHUNK_LINKS, 1, 1)):
        monkeypatch.setattr(simgeom, "CHUNK_LINKS", chunk)
        monkeypatch.setattr(citygeom, "CALL_PERIODS", budget)
        kernel_calls.clear()
        assert estimate_plos(scenario, 300, 4) == est
        assert {call.links for call in kernel_calls} == {links}
        assert sum(call.links for call in kernel_calls) == 300


def test_a_kernel_call_holds_as_many_links_as_fit_its_track_budget(kernel_calls):
    # 2000 links of 1.3 periods (urban, 100 m, theta 60) fit the budget
    # of one call.  At theta 30 each track is 3.81 periods long, too short
    # to stage, and counts 4.81 periods, so a chunk of CHUNK_LINKS links
    # takes two calls of 5104 links and one of the other 2080.  At theta
    # 5 each track is 25.2 periods long and counts its first NEAR_PERIODS
    # plus one, so a call of the first stage takes 8192 links, and a
    # chunk of 10 000 takes one such call and one of the other 1808; the
    # links it leaves clear go to calls of their own, of 1016 tracks at
    # most, each walked from that cut to its UAV and counting the 23.2
    # periods it walks plus one.
    scenario = GeomScenario(ENVIRONMENTS["urban"], "mixed", 60.0, h_uav=100.0)
    assert estimate_plos(scenario, 2000, 1).n == 2000
    assert [call.links for call in kernel_calls] == [2000]
    kernel_calls.clear()
    scenario = GeomScenario(ENVIRONMENTS["urban"], "mixed", 30.0, h_uav=100.0)
    estimate_plos(scenario, simgeom.CHUNK_LINKS, 1)
    periods = 98.5 / math.tan(math.radians(30.0)) / scenario.layout().period
    per_call = math.floor(citygeom.CALL_PERIODS / (periods + 1.0))
    assert per_call == 5104
    assert [call.links for call in kernel_calls] == [per_call, per_call,
                                                     simgeom.CHUNK_LINKS - 2 * per_call]
    kernel_calls.clear()
    scenario = GeomScenario(ENVIRONMENTS["urban"], "mixed", 5.0, h_uav=100.0)
    estimate_plos(scenario, 10000, 1)
    periods = 98.5 / math.tan(math.radians(5.0)) / scenario.layout().period
    per_call = math.floor(citygeom.CALL_PERIODS / (citygeom.NEAR_PERIODS + 1.0))
    per_rest = math.floor(citygeom.CALL_PERIODS / (periods - citygeom.NEAR_PERIODS + 1.0))
    assert (simgeom.CHUNK_LINKS, per_call, per_rest) == (12288, 8192, 1016)
    # Each chunk's first-stage calls, with their cuts, then that chunk's
    # calls of tracks from their cuts, every one full but the last.
    chunks = []
    for call in kernel_calls:
        if np.ndim(call.t_min) == 0:
            assert np.ndim(call.t_max) and call.t_min == 0.0
            if not chunks or chunks[-1][1]:
                chunks.append(([], []))
            chunks[-1][0].append(call.links)
        else:
            assert np.ndim(call.t_max) == 0 and call.t_max == 1.0
            chunks[-1][1].append(call.links)
    assert [first for first, _ in chunks] == [[per_call, 10000 - per_call]]
    for _, rest in chunks:
        m = sum(rest)
        assert rest == [per_rest] * (m // per_rest) + ([m % per_rest] if m % per_rest else [])
    assert [len(rest) for _, rest in chunks] == [2]


@pytest.mark.parametrize("env", ["urban", "high-rise", "suburban"])
def test_a_chunk_lists_entries_in_proportion_to_its_track_budget(kernel_calls, env):
    # A track of L periods meets at most about sqrt(2)*L + 3 boxes, and a
    # call holds at most budget/(L + 1) tracks, so no call lists more
    # than about 3 entries per period of budget.  A fixed link count per
    # call would list 500 links' entries at theta 0.1.
    calls = kernel_calls
    thetas = (0.1, 1.0, 5.0, 30.0, 60.0, 90.0)
    for theta in thetas:
        scenario = GeomScenario(ENVIRONMENTS[env], "mixed", theta, h_uav=100.0)
        assert estimate_plos(scenario, 500, 2).n == 500
    assert len(calls) > 6
    # One batch, short tracks first: a call that sized every link by its
    # first point's track would take the theta 1 and 0.1 links whole.
    batch = [GeomScenario(ENVIRONMENTS[env], "mixed", theta, h_uav=100.0) for theta in thetas]
    los, _ = scenario_counts(batch[::-1], 500, range(6))
    assert ((0 <= los) & (los <= 500)).all() and los.size == 6
    assert max(call.entries for call in calls) <= 4 * citygeom.CALL_PERIODS
    # Under roofs of gamma 0.8 m, long tracks from a 20 m UAV mostly stay
    # clear near their users, so most of them go on to calls of whole
    # tracks, which the same budget bounds.
    calls.clear()
    low = BuiltUpParams(ENVIRONMENTS[env].alpha, ENVIRONMENTS[env].beta, 0.8)
    batch = [GeomScenario(low, "mixed", theta, h_uav=20.0) for theta in (0.2, 1.0, 5.0)]
    los, _ = scenario_counts(batch, 500, range(3))
    assert los.sum() > 750
    assert sum(call.links for call in calls) > 1500 + 750
    assert max(call.entries for call in calls) <= 4 * citygeom.CALL_PERIODS


#: Urban grid under roofs of gamma 0.8 m: from a 20 m UAV, three in four
#: of the theta 0.2 links, 118 periods long, stay clear near their users,
#: and some of those are blocked farther out.
LOW_ROOFS = BuiltUpParams(0.3, 500.0, 0.8)


def altitudes_around_the_staging_threshold(theta):
    """UAV altitudes whose tracks at theta, from a 1.5 m user on
    LOW_ROOFS, are just under, exactly at and just over 2*NEAR_PERIODS
    periods, the longest track decided whole."""
    period = derive_layout(LOW_ROOFS).period

    def periods(h):
        return citygeom.track_length(theta, h, 1.5) / period

    at = 1.5 + 2 * citygeom.NEAR_PERIODS * period * math.tan(math.radians(theta))
    while periods(at) > 2 * citygeom.NEAR_PERIODS:
        at = np.nextafter(at, 0.0)
    while periods(at) < 2 * citygeom.NEAR_PERIODS:
        at = np.nextafter(at, np.inf)
    under = over = at
    while periods(under) >= 2 * citygeom.NEAR_PERIODS:
        under = np.nextafter(under, 0.0)
    while periods(over) <= 2 * citygeom.NEAR_PERIODS:
        over = np.nextafter(over, np.inf)
    assert periods(at) == 2 * citygeom.NEAR_PERIODS
    return float(under), float(at), float(over)


def staged_chunk():
    """One chunk's points on LOW_ROOFS: overhead links (zero-length
    tracks), tracks just under, at and just over the staging threshold,
    tracks of 11.8 and 118 periods, and drawn altitudes whose tracks run
    from under a period to 49 periods."""
    return [GeomScenario(LOW_ROOFS, "mixed", theta, h_uav=h) for theta, h in (
        (90.0, 20.0),
        *((6.0, h) for h in altitudes_around_the_staging_threshold(6.0)),
        (2.0, 20.0), (0.2, 20.0), (1.0, (2.0, 40.0)),
    )]


def link_by_link(scenarios, n, seed):
    """The scenario of each of n links of each scenario, and
    _first_blockers arguments for them in one chunk, each link its own
    point, so that it returns each link's NLoS count, 0 or 1."""
    per_link = [scenario for scenario in scenarios for _ in range(n)]
    keys = citygeom.run_keys(seed, len(per_link))
    return per_link, engine_args(per_link, point_values(per_link), per_link[0].layout(), keys,
                                 np.arange(keys.size))


def nlos_on_tracks(*args, t_max=1.0):
    """Reference: each link of the _first_blockers arguments args NLoS
    (1) or not (0) on its track up to t_max, every link in one kernel
    call."""
    layout, gamma, _, h_rx, _, keys = args[:6]
    ux, uy, vx, vy, vz, city = _draw_links(*args)
    link, ix, iy, t = track_entries(layout, ux, uy, vx, vy, t_max)
    roof = citygeom.roof_heights(city[link], ix, iy, gamma)
    nlos = np.zeros(keys.size, dtype=np.int64)
    nlos[link[roof >= h_rx + t * (vz[link] - h_rx)]] = 1
    return nlos


@pytest.mark.parametrize("order", ["as listed", "reversed"])
def test_staged_decision_equals_one_call_on_whole_tracks(monkeypatch, kernel_calls, order):
    # Kills a chunk without its second stage (the links blocked beyond
    # their near part count as LoS), a second stage that walks only from
    # the cut (its users stand at the cut), and a cut, or the choice of
    # links to cut, read from the chunk's first point (theta 90 first,
    # or 0.2 first).
    scenarios = staged_chunk()[:: 1 if order == "as listed" else -1]
    per_link, args = link_by_link(scenarios, 40, 5)
    layout = args[0]
    expected = nlos_on_tracks(*args)
    monkeypatch.setattr(citygeom, "CALL_PERIODS", 50)
    np.testing.assert_array_equal(simgeom._first_blockers(*args), expected)
    calls = [(*call.ends, call.t_max, call.t_min) for call in kernel_calls]
    # The first stage cuts each link whose own track, the ground offset
    # (vz - h_rx)/tan(theta) of its UAV, is over the threshold at
    # NEAR_PERIODS periods, and every other link not at all: all links of
    # the points over it, none of those at or under it or overhead, and
    # links of drawn altitude on either side.  Its calls take at most 50
    # periods of the track they walk plus one each.
    first = [c for c in calls if np.ndim(c[5]) == 0]
    second = calls[len(first):]
    assert all(c[5] == 0.0 for c in first) and all(np.ndim(c[5]) for c in second)
    x0, y0, x1, y1, cut = (np.concatenate([c[k] for c in first]) for k in range(5))
    p = layout.period
    vz = _draw_links(*args)[4]
    length = (vz - per_link[0].h_rx) / args[4][:, 0]
    np.testing.assert_allclose(length, np.hypot(x1 - x0, y1 - y0), rtol=1e-12, atol=1e-9)
    staged = length > 2 * citygeom.NEAR_PERIODS * p
    drawn = np.array([isinstance(sc.h_uav, tuple) for sc in per_link])
    track = np.array([citygeom.track_length(sc.theta_deg, sc.h_max, sc.h_rx) / p
                      for sc in per_link])
    over = ~drawn & (track > 2 * citygeom.NEAR_PERIODS)
    assert over.sum() == 120 and staged[over].all() and not staged[~drawn & ~over].any()
    counts = {"as listed": (38, 2), "reversed": (36, 4)}[order]
    assert (staged[drawn].sum(), (~staged[drawn]).sum()) == counts
    assert (cut[~staged] == 1.0).all()
    np.testing.assert_array_equal(cut[staged], citygeom.NEAR_PERIODS * p / length[staged])
    walked = [np.minimum(np.hypot(c[2] - c[0], c[3] - c[1]), citygeom.NEAR_PERIODS * p) / p + 1.0
              for c in first]
    assert all(cost.sum() <= 50.0 * (1.0 + 1e-12) or cost.size == 1 for cost in walked)
    # Then the links left clear near their users, from their cuts to
    # their UAVs, in calls of at most 50 periods of that part plus one.
    near = nlos_on_tracks(*args, t_max=cut)
    rest = np.flatnonzero((near == 0) & staged)
    # Some of them are blocked beyond their near part.
    left = {"as listed": (146, 2), "reversed": (141, 3)}[order]
    assert (rest.size, (expected[rest] == 1).sum()) == left
    assert all(np.ndim(c[4]) == 0 and c[4] == 1.0 for c in second)
    for got, want in zip(np.concatenate([(*c[:4], c[5]) for c in second], axis=1),
                         (x0[rest], y0[rest], x1[rest], y1[rest], cut[rest])):
        np.testing.assert_array_equal(got, want)
    walked = [(1.0 - c[5]) * np.hypot(c[2] - c[0], c[3] - c[1]) / p + 1.0 for c in second]
    assert all(cost.sum() <= 50.0 * (1.0 + 1e-12) or cost.size == 1 for cost in walked)
    assert len(walked) > 10 and max(cost.size for cost in walked) > 1


@pytest.mark.parametrize("side", ["under", "at", "over"])
def test_a_kernel_call_charges_what_its_first_stage_walks(monkeypatch, kernel_calls, side):
    # Tracks just under, at and just over the staging threshold, all in
    # one chunk: a first-stage call charges each link what it walks,
    # 2*NEAR_PERIODS periods plus one up to the threshold and
    # NEAR_PERIODS plus one past it, so each first-stage call but the
    # last is full.  A call sized by another rule than the staging would
    # split those calls or leave them short.
    h = dict(zip(("under", "at", "over"), altitudes_around_the_staging_threshold(6.0)))[side]
    scenario = GeomScenario(LOW_ROOFS, "mixed", 6.0, h_uav=h)
    cost = (citygeom.NEAR_PERIODS if side == "over" else 2 * citygeom.NEAR_PERIODS) + 1
    per_call = math.floor(citygeom.CALL_PERIODS / cost)
    monkeypatch.setattr(simgeom, "CHUNK_LINKS", 2 * per_call + 5)
    assert estimate_plos(scenario, 2 * per_call + 5, 3).n == 2 * per_call + 5
    first = [call.links for call in kernel_calls if np.ndim(call.t_min) == 0]
    assert first == [per_call, per_call, 5]
    assert len(kernel_calls) > 3 if side == "over" else len(kernel_calls) == 3


def test_estimate_builds_no_generator(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the geometry engine built a Generator")

    monkeypatch.setattr(simgeom.np.random, "default_rng", fail)
    monkeypatch.setattr(simgeom.np.random, "Generator", fail)
    scenario = GeomScenario(params=ENVIRONMENTS["urban"], user_zone="mixed", theta_deg=30.0)
    assert estimate_plos(scenario, 600, 2).n == 600


def mixed_points():
    """Urban points at several thetas, azimuths and altitudes, fixed
    and drawn, ordered so that chunks straddle points of each kind."""
    urban = ENVIRONMENTS["urban"]
    return [
        GeomScenario(urban, "mixed", theta, phi_deg=phi, h_uav=h_uav)
        for theta, phi, h_uav in (
            (90.0, 0.0, 100.0), (60.0, 20.0, 100.0), (60.0, 70.0, 100.0),
            (30.0, (0.0, 90.0), 200.0), (45.0, 45.0, (20.0, 150.0)),
            (90.0, (10.0, 40.0), (20.0, 150.0)), (0.5, 10.0, 40.0), (15.0, 90.0, 300.0),
        )
    ]


@pytest.mark.parametrize("chunk,budget", [
    (1, citygeom.CALL_PERIODS), (64, 50), (simgeom.CHUNK_LINKS, 1),
])
def test_los_counts_equal_estimate_plos_point_by_point(monkeypatch, chunk, budget):
    # Kills a fixed azimuth, a theta or an altitude read from a chunk's
    # first point, and NLoS counted per chunk instead of per point, at
    # every chunk size and call budget.
    scenarios = mixed_points()
    seeds = [101 + q for q in range(len(scenarios))]
    alone = [estimate_plos(sc, 150, seed) for sc, seed in zip(scenarios, seeds)]
    monkeypatch.setattr(simgeom, "CHUNK_LINKS", chunk)
    monkeypatch.setattr(citygeom, "CALL_PERIODS", budget)
    chunks = []
    first_blockers = simgeom._first_blockers

    def recorded(layout, gamma, zone, h_rx, values, keys, point, h_uav):
        chunks.append(np.unique(point).size)
        return first_blockers(layout, gamma, zone, h_rx, values, keys, point, h_uav)

    monkeypatch.setattr(simgeom, "_first_blockers", recorded)
    los, seconds = scenario_counts(scenarios, 150, seeds)
    assert los.tolist() == [est.k for est in alone]
    assert len(seconds) == len(scenarios) and min(seconds) > 0.0
    if chunk == 1:
        assert chunks == [1] * (150 * len(scenarios))
    else:
        assert max(chunks) > 1  # a chunk straddles a point boundary


def test_each_call_derives_the_keys_of_its_links_at_once(monkeypatch):
    # 151 links per point and chunks of 50 links: the chunks straddle the
    # points.  The keys the chunks decide, in order, are every point's run
    # keys, and each chunk derives its keys in one stream_bits call
    # besides its placement's.
    seeds = [0, 2**32, 2**63 - 1, 2**64 + 5]
    scenarios = [GeomScenario(ENVIRONMENTS["urban"], "mixed", theta, h_uav=100.0)
                 for theta in (60.0, 45.0, 30.0, 75.0)]
    alone = [estimate_plos(sc, 151, seed) for sc, seed in zip(scenarios, seeds)]
    monkeypatch.setattr(simgeom, "CHUNK_LINKS", 50)
    calls, derived = [], []
    first_blockers, stream_bits = simgeom._first_blockers, simgeom.stream_bits

    def recorded(layout, gamma, zone, h_rx, values, keys, point, h_uav):
        calls.append((keys, point))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simgeom, "stream_bits", stream_bits)
            return first_blockers(layout, gamma, zone, h_rx, values, keys, point, h_uav)

    def counted(key, counter):
        derived.append(np.size(counter))
        return stream_bits(key, counter)

    monkeypatch.setattr(simgeom, "_first_blockers", recorded)
    monkeypatch.setattr(simgeom, "stream_bits", counted)
    assert scenario_counts(scenarios, 151, seeds)[0].tolist() == [est.k for est in alone]
    assert len(calls) > 2 * len(seeds) and any(np.unique(point).size > 1 for _, point in calls)
    assert derived == [keys.size for keys, _ in calls]
    np.testing.assert_array_equal(np.concatenate([keys for keys, _ in calls]),
                                  np.concatenate([citygeom.run_keys(s, 151) for s in seeds]))


@pytest.mark.parametrize("run,bound", [
    # One urban point at theta 5: 2 000 tracks of 25 periods, decided on
    # their first 2 periods in one call, then the links left clear in one more.
    (lambda: estimate_plos(GeomScenario(ENVIRONMENTS["urban"], "mixed", 5.0, h_uav=100.0),
                           2000, 1), 1.41e6),
    # The 170-point street heatmap on high-rise, 3 chunks and 6 calls.
    (lambda: run_sweep(SweepSpec(
        engine="geom", params=ENVIRONMENTS["high-rise"], user_zone="street", seed=1, n_runs=200,
        axes=(SweepAxis("theta", tuple(range(5, 90, 5))), SweepAxis("phi", tuple(range(0, 100, 10)))),
    )), 2.43e6),
], ids=["urban-theta-5", "heatmap"])
def test_geom_working_set_stays_small(run, bound, traced_peak):
    # The bounds sit about 15% over the 1.23 MB and 2.11 MB once
    # measured; with chunks of CHUNK_LINKS links, kernel calls of
    # citygeom.CALL_PERIODS periods and the kernel's temporaries freed
    # after their last use, the runs peak at 0.45 MB and 2.13 MB.  A
    # kernel whose per-entry temporaries grow, or a call budget or chunk
    # size that grows, fails.
    assert traced_peak(run) < bound


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "CPython 3.10 keeps an argument passed as a temporary alive until the call returns, "
    "so the keys and lengths the engine frees by deleting them are still held"))
def test_a_geometry_chunk_holds_little_per_link_at_each_kernel_call(monkeypatch):
    # What the 170-point street heatmap on high-rise holds when a kernel
    # call starts, per link of its chunk: the sweep's own traced memory,
    # which is mostly the chunk's per-link arrays.  The chunk keeps its
    # users, UAVs, rises, city keys and int32 points, and the lengths of
    # its staged links; its keys, its other stream rows, its link
    # indices and its per-link cuts are freed before the decision.  It
    # read 141 B a link when they were held, and reads 71 B now, against
    # a bound about 15% over that.  The kernel's own peak on top of it
    # is bounded in test_geom_working_set_stays_small.
    spec = SweepSpec(
        engine="geom", params=ENVIRONMENTS["high-rise"], user_zone="street", seed=1, n_runs=200,
        axes=(SweepAxis("theta", tuple(range(5, 90, 5))), SweepAxis("phi", tuple(range(0, 100, 10)))),
    )
    run_sweep(spec)
    chunks, held = [], []
    draw_links, track_entries = simgeom._draw_links, citygeom.track_entries

    def drawn(layout, gamma, zone, h_rx, values, keys, point, h_uav):
        chunks.append(keys.size)
        return draw_links(layout, gamma, zone, h_rx, values, keys, point, h_uav)

    def entered(*args):
        held.append(tracemalloc.get_traced_memory()[0] / chunks[-1])
        return track_entries(*args)

    monkeypatch.setattr(simgeom, "_draw_links", drawn)
    monkeypatch.setattr(citygeom, "track_entries", entered)
    tracemalloc.start()
    try:
        run_sweep(spec)
    finally:
        tracemalloc.stop()
    assert chunks == [simgeom.CHUNK_LINKS] * 2 + [34_000 - 2 * simgeom.CHUNK_LINKS]
    assert len(held) == 6
    assert max(held) < 81.0


def test_a_placement_failure_names_the_failing_point(monkeypatch):
    # The first point's UAVs hover over the street north of the user and
    # are never rejected; every UAV of the second hovers over box (1, 1),
    # whose Rayleigh(1e6) roof reaches it.
    monkeypatch.setattr(simgeom, "PLACEMENT_ROUNDS", 200)
    stuck = _redraw_scenario(1e6)
    free = GeomScenario(stuck.params, "street", 45.0, phi_deg=90.0, h_uav=40.0)
    with pytest.raises(InvalidParams, match=r"at h_uav=30\.0$"):
        scenario_counts([free, stuck], 100, [0, 1])
    low = GeomScenario(free.params, "street", 45.0, phi_deg=90.0, h_uav=(0.0, 1.5000001))
    with pytest.raises(InvalidParams, match=r"h_uav range \(0\.0, 1\.5000001\) never"):
        scenario_counts([free, low], 100, [0, 1])


def test_a_heatmap_shares_kernel_calls_across_its_points(kernel_calls):
    # 170 points of 200 short high-rise links: one call per point would
    # pay a call's fixed numpy cost 170 times.
    calls = kernel_calls
    spec = SweepSpec(
        engine="geom", params=ENVIRONMENTS["high-rise"], user_zone="street", n_runs=200,
        seed=1, axes=(SweepAxis("theta", tuple(range(5, 90, 5))),
                      SweepAxis("phi", tuple(range(0, 100, 10)))),
    )
    assert len(run_sweep(spec).rows) == 170
    assert sum(call.links for call in calls) >= 170 * 200  # redraws never add tracks
    assert len(calls) <= 30
