import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uavlos import citygeom, sim3d
from uavlos.citygeom import (
    ENVIRONMENTS,
    Building,
    BuiltUpParams,
    Crossroad,
    LinkGeometry,
    Node,
    Street,
    classify_point,
    derive_layout,
    roof_heights,
    run_keys,
    track_entries,
    track_length,
)
from uavlos.errors import (
    EndpointInsideBuilding,
    InvalidParams,
    NoSuchCell,
    OutOfExtent,
    ParseError,
)
from uavlos.sim3d import (
    BuildingTop,
    Cities,
    CrossroadCenter,
    FixedPoint,
    RandomOverCity,
    StreetCenter,
    check_los_dense,
    check_los_edges,
    city_from_text,
    city_to_text,
    generate_city,
    load_city,
    place_uav,
    place_users,
    save_city,
    user_directions,
)

TOY = BuiltUpParams(0.25, 10000.0, 10.0)  # 5 m buildings on a 10 m period


def toy_city(*heights_by_cell, extent=100.0):
    """Explicit cities on the 10 m toy grid, all of key 0, one per dict of
    roofs by cell (one when none is given), all-zero roofs elsewhere."""
    layout = derive_layout(TOY, extent, extent)
    n = int(extent // layout.period)
    cells = heights_by_cell or ({},)
    heights = np.zeros((len(cells), n, n))
    for c, roofs in enumerate(cells):
        for (ix, iy), h in roofs.items():
            heights[c, ix - 1, iy - 1] = h
    heights.setflags(write=False)
    return Cities(TOY, layout, np.zeros(len(cells), dtype=np.uint64), heights)


def city_of(cities, c):
    """City c of cities as a one-city Cities: its key, and its heights
    if the cities are explicit."""
    heights = None if cities.heights is None else cities.heights[c:c + 1]
    return Cities(cities.params, cities.layout, cities.keys[c:c + 1], heights)


def roof_at(city, x, y):
    """The roof of a one-city Cities over a ground point, from its cell
    (classify_point), or None over streets, crossroads and the fringe."""
    cell = classify_point(x, y, city.layout)
    nx, ny = sim3d._grid_shape(city.layout)
    if isinstance(cell, Building) and cell.ix <= nx and cell.iy <= ny:
        return float(city.roofs(0, cell.ix, cell.iy))
    return None


def xyz(nodes):
    """Positions (x, y, z) of a list of nodes, as links_blocked takes them."""
    return tuple(np.array([(n.x, n.y, n.z) for n in nodes]).T)


def decide(cities, uavs, run, rx_x, rx_y, h_rx):
    """sim3d.links_blocked, each link's length its own track's."""
    tx_x, tx_y, _ = (np.asarray(c, dtype=float) for c in uavs)
    run = np.asarray(run)
    length = np.hypot(np.asarray(rx_x) - tx_x[run], np.asarray(rx_y) - tx_y[run])
    return sim3d.links_blocked(cities, uavs, run, rx_x, rx_y, h_rx, length)


def edge_checks(cities, uavs, run, rx_x, rx_y, h_rx):
    """Each link of links_blocked's arguments as a LinkGeometry, with its
    check_los_edges outcome on city run[n] of cities alone."""
    checks = []
    for c, x, y in zip(np.asarray(run).tolist(), np.asarray(rx_x).tolist(),
                       np.asarray(rx_y).tolist()):
        tx = Node(*(float(v[c]) for v in uavs))
        link = LinkGeometry.from_nodes(tx=tx, rx=Node(x, y, h_rx))
        checks.append((link, check_los_edges(city_of(cities, c), link)))
    return checks


def one_uav(city, policy):
    """place_uav for one city: the n = 1 case of its batch."""
    x, y, z = place_uav(city, policy)
    assert x.shape == y.shape == z.shape == (1,)
    return Node(float(x[0]), float(y[0]), float(z[0]))


def test_generate_city_shape_and_determinism():
    city = generate_city(ENVIRONMENTS["urban"], 3000.0, 3000.0, 42)
    assert city.keys.tolist() == [42] and city.heights.shape == (1, 67, 67)
    assert float(city.heights.mean()) == pytest.approx(19.040441701850057, rel=1e-12)
    again = generate_city(ENVIRONMENTS["urban"], 3000.0, 3000.0, 42)
    assert (city.heights == again.heights).all()
    other = generate_city(ENVIRONMENTS["urban"], 3000.0, 3000.0, 43)
    assert not (city.heights == other.heights).all()


def test_generated_heights_are_the_roof_function_of_the_key():
    params = ENVIRONMENTS["urban"]
    city = generate_city(params, 3000.0, 2000.0, 2**64 - 5)
    nx, ny = sim3d._grid_shape(city.layout)
    assert city.heights.shape == (1, nx, ny) == (1, 67, 44)
    for ix in range(1, nx + 1):
        for iy in range(1, ny + 1):
            roof = roof_heights(2**64 - 5, ix, iy, params.gamma)
            assert city.heights[0, ix - 1, iy - 1] == roof
    # The implicit city of the same key looks up the same roofs.
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    implicit = Cities(params, city.layout, np.array([2**64 - 5], dtype=np.uint64))
    assert (implicit.roofs(0, ix + 1, iy + 1) == city.heights.ravel()).all()


def test_city_keys_outside_uint64_are_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(InvalidParams, match="seed"):
            generate_city(ENVIRONMENTS["urban"], 1000.0, 1000.0, seed)


def test_generated_heights_are_locked():
    city = generate_city(ENVIRONMENTS["urban"], 3000.0, 3000.0, 1)
    with pytest.raises(ValueError):
        city.heights[0, 0, 0] = 99.0


def test_city_mean_height_matches_rayleigh_mean():
    params = ENVIRONMENTS["urban"]
    city = generate_city(params, 10_000.0, 10_000.0, 7)
    expected = params.gamma * math.sqrt(math.pi / 2.0)
    assert float(city.heights.mean()) == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize("shape", [(1, 5, 5), (1, 22, 22, 1), (2, 22, 22), (1, 30, 30)])
def test_cities_refuse_heights_of_another_shape(shape):
    # A 1 000 m urban extent holds 22 x 22 cells.  Unchecked, heights of
    # the first two shapes raised a raw IndexError or ValueError in
    # place_uav and links_blocked, and the last two read cells that are
    # not the city's.
    params = ENVIRONMENTS["urban"]
    layout = derive_layout(params, 1000.0, 1000.0)
    keys = np.array([1], dtype=np.uint64)
    assert Cities(params, layout, keys, np.zeros((1, 22, 22))).heights.shape == (1, 22, 22)
    with pytest.raises(InvalidParams, match=r"heights of shape .*, expected \(1, 22, 22\)"):
        Cities(params, layout, keys, np.zeros(shape))


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_an_implicit_city_checks_and_exports_as_its_materialized_grid(env):
    # The one-city functions read roofs only through Cities.roofs, so the
    # implicit city of a key decides every link as generate_city's grid
    # of it does, blocker included, refuses the same endpoints and
    # exports the same text.
    params = ENVIRONMENTS[env]
    city = generate_city(params, 1000.0, 1000.0, 23)
    implicit = Cities(params, city.layout, city.keys)
    rng = np.random.default_rng(37)
    blocked = 0
    for _ in range(60):
        tx = random_free_node(city, rng, 30.0, 150.0)
        rx = random_free_node(city, rng, 0.0, 5.0)
        link = LinkGeometry.from_nodes(tx=tx, rx=rx)
        edges = check_los_edges(implicit, link)
        assert edges == check_los_edges(city, link)
        assert check_los_dense(implicit, link) == check_los_dense(city, link)
        blocked += not edges.is_los
    assert 0 < blocked < 60
    ix, iy = np.unravel_index(np.argmax(city.heights[0]), city.heights.shape[1:])
    layout = city.layout
    center = [k * layout.period + layout.s + layout.w / 2.0 for k in (ix, iy)]
    inside = LinkGeometry.from_nodes(tx=Node(2.0, 2.0, 200.0), rx=Node(*center, 1.5))
    for check in (check_los_edges, check_los_dense):
        for c in (implicit, city):
            with pytest.raises(EndpointInsideBuilding, match="receiver"):
                check(c, inside)
    assert city_to_text(implicit) == city_to_text(city)


def test_one_city_functions_refuse_several_cities(tmp_path):
    params = ENVIRONMENTS["urban"]
    two = Cities(params, derive_layout(params, 1000.0, 1000.0), np.array([1, 2], dtype=np.uint64))
    link = LinkGeometry.from_nodes(tx=Node(2.0, 2.0, 100.0), rx=Node(30.0, 2.0, 1.5))
    for check in (check_los_edges, check_los_dense):
        with pytest.raises(InvalidParams, match="expected one city, got 2"):
            check(two, link)
        # City 1 of them alone is decided.
        assert check(city_of(two, 1), link) == check(generate_city(params, 1000.0, 1000.0, 2), link)
    with pytest.raises(InvalidParams, match="expected one city, got 2"):
        save_city(two, tmp_path / "city.txt")
    assert list(tmp_path.iterdir()) == []


def test_footprint_crossings_along_a_row():
    layout = toy_city().layout
    # y = 7.5 runs through the iy=1 building band; the track from the user
    # at x=32 to the UAV at x=2 meets boxes at [25,30], [15,20], [5,10]
    link, ix, iy, t = track_entries(layout, 32.0, 7.5, 2.0, 7.5)
    assert link.tolist() == [0, 0, 0]
    # In column order, which on this track runs from the UAV end.
    assert list(zip(ix.tolist(), iy.tolist())) == [(1, 1), (2, 1), (3, 1)]
    # entry points x = 10, 20, 30 lie 8, 18 and 28 m from the UAV
    assert (1.0 - t).tolist() == pytest.approx([8 / 30, 18 / 30, 28 / 30], rel=1e-12)


def test_single_blocker_roof_decides():
    tall = toy_city({(2, 1): 45.0})
    link = LinkGeometry.from_nodes(tx=Node(2.0, 7.5, 100.0), rx=Node(32.0, 7.5, 1.5))
    out = check_los_edges(tall, link)
    # exit toward the receiver at x=20: ray = 100 - 0.6*98.5 = 40.9 < 45
    assert not out.is_los
    assert (out.blocker.ix, out.blocker.iy) == (2, 1)
    assert out.blocker.r_op == pytest.approx(18.0, rel=1e-12)

    short = toy_city({(2, 1): 40.0})
    assert check_los_edges(short, link).is_los


def test_roof_exactly_at_ray_height_blocks():
    city = toy_city()
    tx, rx = Node(2.0, 7.5, 100.0), Node(32.0, 7.5, 1.5)
    t = track_entries(city.layout, rx.x, rx.y, tx.x, tx.y)[3][1]
    ray_at_entry = 1.5 + t * (100.0 - 1.5)
    tie = toy_city({(2, 1): ray_at_entry})
    out = check_los_edges(tie, LinkGeometry.from_nodes(tx=tx, rx=rx))
    assert not out.is_los
    below = toy_city({(2, 1): ray_at_entry - 1e-9})
    assert check_los_edges(below, LinkGeometry.from_nodes(tx=tx, rx=rx)).is_los


def test_first_blocker_has_smallest_r_op():
    city = toy_city({(1, 1): 200.0, (2, 1): 200.0, (3, 1): 200.0})
    link = LinkGeometry.from_nodes(tx=Node(2.0, 7.5, 100.0), rx=Node(32.0, 7.5, 1.5))
    out = check_los_edges(city, link)
    assert (out.blocker.ix, out.blocker.iy) == (1, 1)
    assert out.blocker.r_op == pytest.approx(8.0, rel=1e-12)


def latest_visited_box(layout, rx, tx):
    """Reference for the blocker of a city where every box blocks: of the
    grid boxes the track from rx to tx meets, the one in the column band
    it visits last, and in the row band it visits last within that
    column, with its exact entry fraction t, by exact rational clipping
    of the track to each box in turn; None if it meets none."""
    p, s = Fraction(layout.period), Fraction(layout.s)
    nx, ny = sim3d._grid_shape(layout)

    def window(c0, c1, lo, hi):
        # The t-interval of [0, 1] where c0 + t*(c1 - c0) lies in [lo, hi].
        c0, c1 = Fraction(c0), Fraction(c1)
        if c0 == c1:
            return (Fraction(0), Fraction(1)) if lo <= c0 <= hi else None
        a, b = sorted(((lo - c0) / (c1 - c0), (hi - c0) / (c1 - c0)))
        a, b = max(a, Fraction(0)), min(b, Fraction(1))
        return (a, b) if a <= b else None

    best = None
    for ix in range(1, nx + 1):
        col = window(rx.x, tx.x, (ix - 1) * p + s, ix * p)
        if col is None:
            continue
        for iy in range(1, ny + 1):
            row = window(rx.y, tx.y, (iy - 1) * p + s, iy * p)
            if row is None or max(col[0], row[0]) > min(col[1], row[1]):
                continue
            key = (col[0], max(col[0], row[0]))
            if best is None or key > best[0]:
                best = (key, ix, iy)
    return None if best is None else (best[1], best[2], best[0][1])


def test_blocker_is_the_latest_visited_column_then_row():
    # Every roof of the toy grid blocks, so the blocker is the box the
    # track enters last, whatever order the kernel lists the boxes in:
    # tracks through box corners only (y = x -/+ 5 and their mirrors),
    # along near and far faces, along diagonals through box corners,
    # random tracks, and a zero-length track on a far corner, each both
    # ways where it has length.
    city = Cities(TOY, derive_layout(TOY, 100.0, 100.0), np.zeros(1, dtype=np.uint64),
                  np.full((1, 10, 10), 200.0))
    tracks = [
        (5.0, 0.0, 95.0, 90.0), (95.0, 0.0, 5.0, 90.0), (0.0, 5.0, 90.0, 95.0),
        (2.0, 5.0, 92.0, 5.0), (10.0, 2.0, 10.0, 92.0), (5.0, 2.0, 5.0, 92.0),
        (20.0, 95.0, 20.0, 3.0), (2.0, 2.0, 92.0, 92.0), (92.0, 2.0, 2.0, 92.0),
        (10.0, 10.0, 10.0, 10.0),
    ]
    tracks += [(x1, y1, x0, y0) for x0, y0, x1, y1 in tracks]
    rng = np.random.default_rng(21)
    while len(tracks) < 80:
        x0, y0, x1, y1 = rng.uniform(0.0, 100.0, 4).tolist()
        if all(roof_at(city, x, y) is None for x, y in ((x0, y0), (x1, y1))):
            tracks.append((x0, y0, x1, y1))
    met = 0
    for x0, y0, x1, y1 in tracks:
        link = LinkGeometry.from_nodes(tx=Node(x1, y1, 100.0), rx=Node(x0, y0, 1.5))
        out = check_los_edges(city, link)
        want = latest_visited_box(city.layout, link.rx, link.tx)
        if want is None:
            assert out.is_los
            continue
        met += 1
        ix, iy, t = want
        assert (out.blocker.ix, out.blocker.iy) == (ix, iy)
        assert out.blocker.r_op == pytest.approx(float(1 - t) * link.r_rx, rel=1e-12, abs=1e-12)
    assert met > 60


def test_raising_the_transmitter_never_loses_los():
    city = generate_city(ENVIRONMENTS["dense-urban"], 1000.0, 1000.0, 3)
    rx = Node(2.0, 2.0, 1.5)
    # The track enters no footprint within s - 2 m of the receiver, so at
    # z_clear the ray is above the tallest roof wherever it meets one.
    r_rx = math.hypot(798.0, 648.0)
    z_clear = 1.5 + (city.heights.max() - 1.5) * r_rx / (city.layout.s - 2.0) + 1.0
    prev_los = False
    for z in [*np.linspace(20.0, 400.0, 60), z_clear]:
        link = LinkGeometry.from_nodes(tx=Node(800.0, 650.0, float(z)), rx=rx)
        is_los = check_los_edges(city, link).is_los
        assert is_los >= prev_los  # once LoS, higher stays LoS
        prev_los = is_los
    assert prev_los


def test_vertical_link_outcomes():
    tall = toy_city({(1, 1): 200.0})
    over_street = LinkGeometry.from_nodes(tx=Node(2.0, 2.0, 100.0), rx=Node(2.0, 2.0, 0.0))
    assert check_los_edges(tall, over_street).is_los
    assert check_los_dense(tall, over_street).is_los

    # A receiver inside a footprint is rejected, as on any other link.
    shorter = toy_city({(1, 1): 50.0})
    interior = LinkGeometry.from_nodes(tx=Node(7.5, 7.5, 100.0), rx=Node(7.5, 7.5, 1.5))
    for check in (check_los_edges, check_los_dense):
        with pytest.raises(EndpointInsideBuilding, match="receiver"):
            check(shorter, interior)

    # Over the east face x = 10 of the 200 m building: the zero-length
    # track touches its closed box.
    face = LinkGeometry.from_nodes(tx=Node(10.0, 7.5, 100.0), rx=Node(10.0, 7.5, 1.5))
    for check in (check_los_edges, check_los_dense):
        out = check(tall, face)
        assert not out.is_los
        assert (out.blocker.ix, out.blocker.iy, out.blocker.r_op) == (1, 1, 0.0)
    got = sim3d.links_blocked(tall, xyz([face.tx]), [0], [10.0], [7.5], 1.5, 0.0)
    assert got.tolist() == [True]

    # A receiver standing on the roof sees the UAV above it.
    on_roof = LinkGeometry.from_nodes(tx=Node(7.5, 7.5, 100.0), rx=Node(7.5, 7.5, 50.001))
    assert check_los_edges(shorter, on_roof).is_los
    assert check_los_dense(shorter, on_roof).is_los
    got = sim3d.links_blocked(shorter, xyz([on_roof.tx]), [0], [7.5], [7.5], 50.001, 0.0)
    assert got.tolist() == [False]


def test_endpoint_validation():
    city = toy_city({(1, 1): 50.0})
    inside = LinkGeometry.from_nodes(tx=Node(2.0, 2.0, 100.0), rx=Node(7.5, 7.5, 1.5))
    with pytest.raises(EndpointInsideBuilding):
        check_los_edges(city, inside)
    with pytest.raises(EndpointInsideBuilding):
        check_los_dense(city, inside)
    outside = LinkGeometry.from_nodes(tx=Node(-2.0, 2.0, 100.0), rx=Node(2.0, 2.0, 1.5))
    with pytest.raises(OutOfExtent):
        check_los_edges(city, outside)
    # standing on top of the roof is allowed
    on_top = LinkGeometry.from_nodes(tx=Node(2.0, 2.0, 100.0), rx=Node(7.5, 7.5, 50.001))
    assert check_los_edges(city, on_top).is_los


def test_dense_step_validation():
    city = toy_city()
    link = LinkGeometry.from_nodes(tx=Node(2.0, 2.0, 100.0), rx=Node(32.0, 7.5, 1.5))
    with pytest.raises(InvalidParams):
        check_los_dense(city, link, step=0.0)
    with pytest.raises(InvalidParams):
        check_los_dense(city, link, step=1.0)  # > s/10 = 0.5


def random_free_node(city, rng, z_lo, z_hi):
    layout = city.layout
    while True:
        x = rng.uniform(0.0, layout.extent_x)
        y = rng.uniform(0.0, layout.extent_y)
        z = rng.uniform(z_lo, z_hi)
        roof = roof_at(city, x, y)
        if roof is None or roof < z:
            return Node(x, y, z)


def assert_same_outcome(edges, dense):
    """The edge walk and the dense oracle agree on the LoS state and, when
    blocked, on the blocking cell and on r_op to 1e-6 m."""
    assert edges.is_los == dense.is_los
    if not dense.is_los:
        assert (edges.blocker.ix, edges.blocker.iy) == (dense.blocker.ix, dense.blocker.iy)
        assert edges.blocker.r_op == pytest.approx(dense.blocker.r_op, rel=0.0, abs=1e-6)


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_edge_walk_agrees_with_dense_oracle(env):
    city = generate_city(ENVIRONMENTS[env], 2000.0, 2000.0, 17)
    rng = np.random.default_rng(29)
    for _ in range(150):
        tx = random_free_node(city, rng, 30.0, 300.0)
        rx = random_free_node(city, rng, 0.0, 20.0)
        link = LinkGeometry.from_nodes(tx=tx, rx=rx)
        assert_same_outcome(check_los_edges(city, link), check_los_dense(city, link, step=0.1))


def band_visit_spy(monkeypatch):
    """Record, for every citygeom._band_visits call, how many bands its
    slack-widened range lists, computed as the kernel computes it, how
    many it returns, and the dtypes of what it returns."""
    calls = []
    band_visits = citygeom._band_visits

    def spied(c0, dc, t_lo, t_hi, p, s):
        ends = (c0 + dc * t_lo, c0 + dc * t_hi)
        first = np.ceil(np.minimum(*ends) / p - 1.0 - citygeom._BAND_SLACK)
        last = np.floor((np.maximum(*ends) - s) / p + citygeom._BAND_SLACK)
        out = band_visits(c0, dc, t_lo, t_hi, p, s)
        listed = int(np.maximum(last - first + 1, 0).sum())
        calls.append((listed, out[0].size, tuple(a.dtype.name for a in out)))
        return out

    monkeypatch.setattr(citygeom, "_band_visits", spied)
    return calls


#: Toy-grid links, as (transmitter, receiver) ground points, whose
#: receiver stops short of the near face of a box by 4e-9 m, 4e-10
#: periods, less than the kernel's band slack: the slack lists that
#: box's band, which the exact test then drops, in the first kernel pass
#: (along a row), the second (along a column) or both (to a corner).
#: Each link's last item is that box.
NEAR_FACE_LINKS = {
    "along a row": ((2.5, 17.5), (15.0 - 4e-9, 17.5), (2, 2)),
    "along a column": ((7.5, 2.5), (7.5, 15.0 - 4e-9), (1, 2)),
    "to a corner": ((2.5, 2.5), (15.0 - 4e-9, 15.0 - 4e-9), (2, 2)),
}


@pytest.mark.parametrize("name", sorted(NEAR_FACE_LINKS))
def test_band_visits_compacts_only_the_bands_a_track_stops_short_of(name, monkeypatch):
    # The box the receiver stops short of is 50 m tall, every other roof
    # 0 m: a band kept past the exact test would block the link there.
    (tx_x, tx_y), (rx_x, rx_y), box = NEAR_FACE_LINKS[name]
    city = toy_city({box: 50.0})
    link = LinkGeometry.from_nodes(tx=Node(tx_x, tx_y, 60.0), rx=Node(rx_x, rx_y, 1.5))
    calls = band_visit_spy(monkeypatch)
    edges = check_los_edges(city, link)
    assert any(returned < listed for listed, returned, _ in calls)
    assert {dtypes for *_, dtypes in calls} == {("int64", "int64", "float64", "float64")}
    dense = check_los_dense(city, link)
    assert dense.is_los
    assert_same_outcome(edges, dense)


def test_band_visits_keeps_every_band_of_ordinary_tracks(monkeypatch):
    # Random links end nowhere near a face: every band listed is visited,
    # so the candidates come back uncompacted, and the outcomes still
    # match the dense oracle.
    city = generate_city(ENVIRONMENTS["urban"], 2000.0, 2000.0, 17)
    rng = np.random.default_rng(31)
    calls = band_visit_spy(monkeypatch)
    blocked = 0
    for _ in range(60):
        tx = random_free_node(city, rng, 30.0, 300.0)
        rx = random_free_node(city, rng, 0.0, 20.0)
        link = LinkGeometry.from_nodes(tx=tx, rx=rx)
        edges = check_los_edges(city, link)
        assert_same_outcome(edges, check_los_dense(city, link, step=0.1))
        blocked += not edges.is_los
    assert 0 < blocked < 60 and len(calls) == 120
    assert all(returned == listed for listed, returned, _ in calls)
    assert sum(listed > 0 for listed, _, _ in calls) > 100
    assert {dtypes for *_, dtypes in calls} == {("int64", "int64", "float64", "float64")}


def test_dense_oracle_keeps_a_near_face_sample():
    # The track enters box (2, 3) through its near face x = p + s, where
    # the roof reaches 0.05 m past the face.  Only the face's crossing
    # sample sees it, and on this layout (x - s)/p rounds that sample
    # into the column before.
    params = ENVIRONMENTS["dense-urban"]
    layout = derive_layout(params, 1000.0, 1000.0)
    p, s, w = layout.period, layout.s, layout.w
    y = 2.0 * p + s + w / 2.0
    rx, tx = Node(p + s - 3.0, y, 1.5), Node(p + s + 400.0, y, 100.0)
    slope = (100.0 - 1.5) / 403.0
    n = int(1000.0 // p)
    heights = np.zeros((n, n))
    heights[1, 2] = 1.5 + 3.05 * slope
    city = Cities(params, layout, np.zeros(1, dtype=np.uint64), heights[None])
    link = LinkGeometry.from_nodes(tx=tx, rx=rx)
    dense = check_los_dense(city, link)
    assert not dense.is_los
    assert (dense.blocker.ix, dense.blocker.iy) == (2, 3)
    assert dense.blocker.r_op == pytest.approx(400.0, abs=1e-6)
    assert_same_outcome(check_los_edges(city, link), dense)


#: Links on the toy grid that only run along a building face or touch a
#: corner, as (transmitter, receiver) ground points.  Closed boxes count
#: that contact as crossing the building.
BOUNDARY_LINKS = {
    "along north face y=10": ((2.0, 10.0), (32.0, 10.0)),
    "along east face x=10": ((10.0, 2.0), (10.0, 32.0)),
    "along south face y=5": ((2.0, 5.0), (32.0, 5.0)),
    "along west face x=5": ((5.0, 2.0), (5.0, 32.0)),
    "touches corner (10, 10)": ((7.0, 13.0), (13.0, 7.0)),
    "touches corner (5, 5)": ((2.0, 8.0), (8.0, 2.0)),
    "touches corner (10, 5)": ((8.0, 3.0), (12.0, 7.0)),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_LINKS))
def test_boundary_contact_agrees_with_dense_oracle(name):
    city = toy_city({(ix, iy): 200.0 for ix in range(1, 11) for iy in range(1, 11)})
    (tx, ty), (rx, ry) = BOUNDARY_LINKS[name]
    link = LinkGeometry.from_nodes(tx=Node(tx, ty, 100.0), rx=Node(rx, ry, 1.5))
    dense = check_los_dense(city, link, step=0.1)
    assert not dense.is_los
    assert_same_outcome(check_los_edges(city, link), dense)


def assert_pass_matches_dense(cities, runs, h_rx):
    """links_blocked over runs of (transmitter, receivers), one per city
    of cities, in one pass agrees, link by link, with the dense oracle,
    and so does check_los_edges, blocking cell and r_op included;
    returns the blocked links and their blocking cells."""
    txs, rxs = zip(*runs)
    run = [c for c, users in enumerate(rxs) for _ in users]
    users = [rx for users in rxs for rx in users]
    got = decide(cities, xyz(txs), run, [rx.x for rx in users], [rx.y for rx in users], h_rx)
    blocked = {}
    for n, (c, rx) in enumerate(zip(run, users)):
        geometry = LinkGeometry.from_nodes(tx=txs[c], rx=rx)
        dense = check_los_dense(city_of(cities, c), geometry)
        assert got[n] != dense.is_los
        edges = check_los_edges(city_of(cities, c), geometry)
        assert_same_outcome(edges, dense)
        if not edges.is_los:
            blocked[n] = (edges.blocker.ix, edges.blocker.iy)
    return blocked


def test_cut_keeps_the_tallest_roof_at_ray_height():
    # The entry into box (2, 1) lies at t = 13/30, whose ray height rounds
    # so that (roof - h_rx) / (tx.z - h_rx) falls one ulp short of t: a cut
    # without slack would drop the blocker.
    tx, rx = Node(32.0, 7.5, 50.0), Node(2.0, 7.5, 1.5)
    t = track_entries(toy_city().layout, rx.x, rx.y, tx.x, tx.y)[3][1]
    tie = 1.5 + t * (50.0 - 1.5)
    city = toy_city({(1, 1): 5.0, (2, 1): tie, (3, 1): 10.0})
    assert tie == city.heights.max() and (tie - 1.5) / (50.0 - 1.5) < t
    assert assert_pass_matches_dense(city, [(tx, [rx])], 1.5) == {0: (2, 1)}


def test_cut_of_a_horizontal_link_keeps_the_whole_track():
    # tx.z == h_rx: the ray is level with the tallest roof all along.
    roofs = {(1, 1): 20.0, (2, 1): 30.0}
    rx = Node(2.0, 7.5, 30.0)
    runs = [(Node(32.0, 7.5, 30.0), [rx]), (Node(12.0, 7.5, 30.0), [rx])]
    assert assert_pass_matches_dense(toy_city(roofs, roofs), runs, 30.0) == {0: (2, 1)}


def test_cut_is_taken_per_city_in_a_pass():
    # Every roof of the first city is below the users, so its tracks are
    # cut before they start; the second city's are not.
    low = {(ix, iy): 1.0 for ix in range(1, 11) for iy in range(1, 11)}
    cities = toy_city(low, {(2, 1): 40.0})
    tx, rx = Node(32.0, 7.5, 50.0), Node(2.0, 7.5, 2.0)
    runs = [(tx, [rx]), (tx, [rx, Node(32.0, 17.5, 2.0)])]
    assert assert_pass_matches_dense(cities, runs, 2.0) == {1: (2, 1)}


def toy_free_node(city, x, y, z):
    roof = roof_at(city, x, y)
    return Node(x, y, z) if roof is None or roof < z else None


@st.composite
def random_toy_city(draw):
    """A toy city in which each roof is, with even odds, uniform in
    [0, 60] m or a multiple of 1/8 m, which can tie with the ray at a box
    entry exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roofs = np.where(
        rng.random((10, 10)) < 0.5, rng.uniform(0.0, 60.0, (10, 10)),
        rng.integers(0, 480, (10, 10)) / 8.0,
    )
    return toy_city({(ix + 1, iy + 1): h for (ix, iy), h in np.ndenumerate(roofs)})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    city=random_toy_city(),
    ends=st.tuples(*[st.floats(0.0, 100.0)] * 4),
    tz=st.floats(1.5, 80.0),
)
def test_edges_match_dense_on_random_toy_links(city, ends, tz):
    tx = toy_free_node(city, ends[0], ends[1], tz)
    rx = toy_free_node(city, ends[2], ends[3], 1.5)
    assume(tx is not None and rx is not None)
    link = LinkGeometry.from_nodes(tx=tx, rx=rx)
    assert_same_outcome(check_los_edges(city, link), check_los_dense(city, link))


def test_dense_oracle_sees_a_corner_clipped_by_less_than_a_step():
    # The track passes about 0.02 m inside the corner of box (2, 3), so
    # only the two boundary-crossing samples can see it; computed from the
    # transmitter side, both rounded just outside the closed box.
    city = toy_city({(2, 3): 60.0})
    link = LinkGeometry.from_nodes(
        tx=Node(38.810897042014915, 54.4375, 36.0), rx=Node(4.0, 0.0, 1.5)
    )
    dense = check_los_dense(city, link)
    assert not dense.is_los
    assert (dense.blocker.ix, dense.blocker.iy) == (2, 3)
    assert_same_outcome(check_los_edges(city, link), dense)


_DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    city=random_toy_city(),
    corner=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    direction=st.sampled_from(_DIRECTIONS),
    length=st.sampled_from([8, 16, 32, 64]),
    before=st.floats(0.0, 1.0),
    tz=st.integers(2, 80),
)
def test_edges_match_dense_on_corner_grazing_toy_links(
    city, corner, direction, length, before, tz
):
    # The track runs through a lattice corner (5 m steps), along a face or
    # diagonally; with a power-of-two length every crossing and every ray
    # height at one is exact in binary, so ties are decided alike.
    a = 1 + int(before * (length - 2))
    x0 = 5.0 * corner[0] - a * direction[0]
    y0 = 5.0 * corner[1] - a * direction[1]
    x1, y1 = x0 + length * direction[0], y0 + length * direction[1]
    assume(min(x0, y0, x1, y1) >= 0.0 and max(x0, y0, x1, y1) <= 100.0)
    tx = toy_free_node(city, x1, y1, float(tz))
    rx = toy_free_node(city, x0, y0, 1.5)
    assume(tx is not None and rx is not None)
    link = LinkGeometry.from_nodes(tx=tx, rx=rx)
    assert_same_outcome(check_los_edges(city, link), check_los_dense(city, link))


def test_one_pass_over_several_cities_matches_single_links():
    params = ENVIRONMENTS["dense-urban"]
    rng = np.random.default_rng(41)
    txs, rxs, singles = [], [], []
    for seed in (1, 2, 3):
        city = generate_city(params, 1000.0, 1000.0, seed)
        tx = random_free_node(city, rng, 30.0, 120.0)
        users = [random_free_node(city, rng, 1.5, 1.5) for _ in range(40)]
        txs.append(tx)
        rxs += users
        singles += [check_los_edges(city, LinkGeometry.from_nodes(tx=tx, rx=r)) for r in users]
    # The implicit cities of the same keys, decided in one pass.
    cities = Cities(params, city.layout, np.array([1, 2, 3], dtype=np.uint64))
    run = np.repeat(np.arange(3), 40)
    got = decide(cities, xyz(txs), run, [r.x for r in rxs], [r.y for r in rxs], 1.5)
    assert got.tolist() == [not out.is_los for out in singles]
    assert 0 < got.sum() < len(singles)


@pytest.mark.parametrize("budget", [1, 7, 150])
def test_links_blocked_does_not_depend_on_its_call_budget(budget, monkeypatch, kernel_calls):
    # Urban rings of 60 users at theta 20 around the UAVs of six implicit
    # cities: a budget of one period decides each link in a call of its
    # own, and 7 and 150 periods cut the calls across city boundaries, so
    # a wrong link offset in any slice moves a decision.  Each link is
    # decided as check_los_edges decides it on its city alone.
    params = ENVIRONMENTS["urban"]
    layout = derive_layout(params, 1500.0, 1500.0)
    cities = Cities(params, layout, run_keys(9, 6))
    uavs = place_uav(cities, RandomOverCity(60.0))
    radius = track_length(20.0, 60.0, 1.5)
    run, x, y = place_users(layout, uavs, 20.0, user_directions(20.0, 60), 1.5)
    checks = edge_checks(cities, uavs, run, x, y, 1.5)
    whole = np.array([not out.is_los for _, out in checks])
    assert 10 < whole.sum() < run.size - 10
    kernel_calls.clear()
    monkeypatch.setattr(citygeom, "CALL_PERIODS", budget)
    sliced = sim3d.links_blocked(cities, uavs, run, x, y, 1.5, radius)
    tracks = [call.links for call in kernel_calls]
    assert sum(tracks) == run.size and len(tracks) > 1
    assert max(tracks) == 1 if budget == 1 else max(tracks) > 1
    assert sliced.tolist() == whole.tolist()


def test_links_blocked_refuses_a_run_out_of_order_or_past_its_cities():
    # Out of order, the links of a city are no longer contiguous: before
    # run was checked, a shuffled block lost a blocked link and raised
    # nothing.
    params = ENVIRONMENTS["urban"]
    layout = derive_layout(params, 1500.0, 1500.0)
    cities = Cities(params, layout, run_keys(3, 6))
    uavs = place_uav(cities, RandomOverCity(120.0))
    radius = track_length(15.0, 120.0, 1.5)
    run, x, y = place_users(layout, uavs, 15.0, user_directions(15.0, 60), 1.5)
    got = sim3d.links_blocked(cities, uavs, run, x, y, 1.5, radius)
    assert (run.size, np.count_nonzero(got)) == (162, 138)
    order = np.random.default_rng(3).permutation(run.size)
    for bad, at in ((run[order], order), (run - 1, slice(None)), (run + 1, slice(None))):
        with pytest.raises(InvalidParams, match="non-decreasing and index the 6 cities"):
            sim3d.links_blocked(cities, uavs, bad, x[at], y[at], 1.5, radius)


def test_links_blocked_refuses_endpoints_off_the_extent():
    # A track that leaves the extent can meet boxes farther beyond the
    # grid than its city's window of roofs reaches.
    cities = toy_city()
    on = ([50.0], [50.0], [60.0])
    assert decide(cities, on, [0], [0.0], [100.0], 1.5).tolist() == [False]
    for rx in ((-0.5, 50.0), (50.0, 100.5)):
        with pytest.raises(OutOfExtent, match="receiver"):
            decide(cities, on, [0], [rx[0]], [rx[1]], 1.5)
    with pytest.raises(OutOfExtent, match="transmitter"):
        decide(cities, ([50.0], [-20.0], [60.0]), [0], [50.0], [50.0], 1.5)


def test_links_blocked_skips_the_kernel_when_no_window_holds_a_cell(monkeypatch):
    # Receivers straight under their UAVs, in streets of the toy grid:
    # no window holds a cell, so no link is blocked, and neither the
    # window roofs nor the kernel are looked up.  The input checks stay.
    cities = toy_city({(1, 1): 30.0}, {(1, 1): 30.0})
    uavs = ([2.5, 12.5], [7.5, 2.5], [60.0, 60.0])
    calls = []
    for module, name in ((citygeom, "track_entries"), (sim3d, "_window_roofs")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    got = sim3d.links_blocked(cities, uavs, [0, 1], [2.5, 12.5], [7.5, 2.5], 1.5, 0.0)
    assert calls == []
    assert got.dtype == bool and got.tolist() == [False, False]
    with pytest.raises(OutOfExtent, match="receiver"):
        sim3d.links_blocked(cities, uavs, [0, 1], [2.5, -12.5], [7.5, 2.5], 1.5, 0.0)
    with pytest.raises(InvalidParams, match="non-decreasing"):
        sim3d.links_blocked(cities, uavs, [1, 0], [12.5, 2.5], [2.5, 7.5], 1.5, 0.0)
    monkeypatch.undo()
    # A receiver on the far face x = p of box (1, 1) stands in the closed
    # box: its window holds that cell, and the box's roof blocks it.
    got = sim3d.links_blocked(cities, ([10.0], [7.5], [60.0]), [0], [10.0], [7.5], 1.5, 0.0)
    assert got.tolist() == [True]


@pytest.mark.parametrize("h_uav", [60.0, 120.0])
@pytest.mark.parametrize("theta,staged", [(2.0, True), (5.0, True), (20.0, False), (60.0, False)])
def test_links_blocked_equals_check_los_edges_link_by_link(theta, staged, h_uav, kernel_calls):
    # Rings of 90 users around the UAVs of twelve implicit urban cities
    # on a 4 km extent, which still holds some of the 3.4 km rings of
    # theta 2: links_blocked, which stages the long rising tracks of
    # theta 2 and 5 near their users first, decides each link as
    # check_los_edges does on its city alone.
    params = ENVIRONMENTS["urban"]
    layout = derive_layout(params, 4000.0, 4000.0)
    cities = Cities(params, layout, run_keys(21, 12))
    uavs = place_uav(cities, RandomOverCity(h_uav))
    run, x, y = place_users(layout, uavs, theta, user_directions(theta, 90), 1.5)
    radius = track_length(theta, h_uav, 1.5)
    got = sim3d.links_blocked(cities, uavs, run, x, y, 1.5, radius)
    # The kernel's arguments show the staging: the first stage walks a
    # staged link's track up to its near cut, NEAR_PERIODS periods from
    # its user, and the second stage starts the links left clear there
    # at their near cuts, an array t_min.
    first = [call for call in kernel_calls if np.ndim(call.t_min) == 0]
    second = kernel_calls[len(first):]
    assert first and all(call.t_min == 0.0 for call in first)
    near = citygeom.NEAR_PERIODS * layout.period / radius
    cuts = np.concatenate([np.broadcast_to(call.t_max, call.links) for call in first])
    assert (cuts == near).any() == staged
    assert bool(second) == staged
    assert all(np.ndim(call.t_min) and (call.t_min == near).all() for call in second)
    checks = edge_checks(cities, uavs, run, x, y, 1.5)
    assert got.tolist() == [not out.is_los for _, out in checks]
    assert 0 < got.sum() < got.size


def test_check_los_edges_makes_one_kernel_call_and_no_window_lookup(monkeypatch, kernel_calls):
    # One link of one explicit city: its track goes to the kernel once,
    # whole, and its roofs are read from the city's own grid.
    lookups = []
    window_roofs = sim3d._window_roofs

    def windowed(*args):
        lookups.append(args)
        return window_roofs(*args)

    monkeypatch.setattr(sim3d, "_window_roofs", windowed)
    city = toy_city({(2, 1): 45.0})
    links = [
        ((2.0, 7.5, 100.0), (32.0, 7.5, 1.5), False),  # blocked by box (2, 1)
        ((2.0, 17.5, 100.0), (32.0, 17.5, 1.5), True),  # under a clear row
        ((2.5, 2.5, 100.0), (2.5, 2.5, 1.5), True),  # vertical, in a crossroad
    ]
    for tx, rx, is_los in links:
        kernel_calls.clear()
        link = LinkGeometry.from_nodes(tx=Node(*tx), rx=Node(*rx))
        assert check_los_edges(city, link).is_los == is_los
        assert [(call.links, call.t_max, call.t_min) for call in kernel_calls] == [(1, 1.0, 0.0)]
        assert lookups == []


_FRINGE_EXTENT = 22.5 * derive_layout(ENVIRONMENTS["urban"]).period


def reference_blockers(cities, uavs, run, rx_x, rx_y, h_rx):
    """The blocked links of links_blocked's arguments, as arrays (link,
    ix, iy, t) of the blocking cell nearest the transmitter and the
    fraction t of the track from the receiver to its entry, from every
    box each uncut track meets in the grid, with the roofs looked up
    entry by entry through Cities.roofs.  The blocker is the box in the
    column the track visits last, and in the row it visits last there:
    the largest ix, or the smallest where the track runs toward -x or
    along y, and likewise iy."""
    tx_x, tx_y, tx_z = uavs
    link, ix, iy, t = track_entries(cities.layout, rx_x, rx_y, tx_x[run], tx_y[run])
    nx, ny = sim3d._grid_shape(cities.layout)
    grid = (ix >= 1) & (ix <= nx) & (iy >= 1) & (iy <= ny)
    link, ix, iy, t = link[grid], ix[grid], iy[grid], t[grid]
    city = run[link]
    blocked = cities.roofs(city, ix, iy) >= h_rx + t * (tx_z[city] - h_rx)
    link, ix, iy, t = link[blocked], ix[blocked], iy[blocked], t[blocked]
    sx = np.where(tx_x[run[link]] > rx_x[link], 1, -1)
    sy = np.where(tx_y[run[link]] > rx_y[link], 1, -1)
    order = np.lexsort((-sy * iy, -sx * ix, link))
    first = order[np.unique(link[order], return_index=True)[1]]
    return link[first], ix[first], iy[first], t[first]


@pytest.mark.parametrize("h_rx", [1.5, 0.0])
@pytest.mark.parametrize("explicit", [False, True], ids=["implicit", "explicit"])
def test_window_gather_matches_a_roof_lookup_per_entry(explicit, h_rx):
    # An urban extent of 22.5 periods: a 22 x 22 grid and an open fringe
    # strip wider than a street, so the boxes of column and row 23 begin
    # on the extent.  Twelve cities, each with its ring; the last two
    # have their UAVs at the corners of the extent, where the grid clips
    # their windows below the widest, and receivers on the extent's
    # edges, on the near faces of boxes beyond the grid and inside the
    # fringe.  At h_rx = 0 such a receiver sees the ray at height 0 where
    # its track enters a box beyond the grid, which must not block.
    params = ENVIRONMENTS["urban"]
    layout = derive_layout(params, _FRINGE_EXTENT, _FRINGE_EXTENT)
    p, s, w = layout.period, layout.s, layout.w
    assert sim3d._grid_shape(layout) == (22, 22) and _FRINGE_EXTENT - 22 * p > s
    cities = Cities(params, layout, run_keys(8, 12))
    if explicit:
        ix, iy = np.arange(1, 23)[:, None], np.arange(1, 23)
        heights = roof_heights(cities.keys[:, None, None], ix, iy, params.gamma)
        cities = Cities(params, layout, cities.keys, heights)
    x, y, z = place_uav(cities, RandomOverCity(100.0))
    x[-2:] = y[-2:] = (0.0, _FRINGE_EXTENT)
    face = 22 * p + s
    mid = [k * p + s + w / 2.0 for k in range(22)]
    edges = {
        10: [(0.0, mid[3]), (mid[2], 0.0), (0.0, 0.0)],
        11: [(face, mid[19]), (mid[19], face), (face + 1.0, face + 1.0),
             (_FRINGE_EXTENT, mid[20]), (mid[18], _FRINGE_EXTENT)],
    }
    for theta in (10.0, 30.0, 60.0):
        run, rx_x, rx_y = place_users(layout, (x, y, z), theta, user_directions(theta, 60), h_rx)
        users = [list(zip(rx_x[run == c], rx_y[run == c])) + edges.get(c, []) for c in range(12)]
        run = np.repeat(np.arange(12), [len(u) for u in users])
        rx_x, rx_y = (np.array(v) for v in zip(*[xy for u in users for xy in u]))
        got = decide(cities, (x, y, z), run, rx_x, rx_y, h_rx)
        link, ix, iy, t = reference_blockers(cities, (x, y, z), run, rx_x, rx_y, h_rx)
        assert 0 < link.size < run.size
        assert np.flatnonzero(got).tolist() == link.tolist()
        # check_los_edges on each city alone finds the same blocker.
        checks = edge_checks(cities, (x, y, z), run, rx_x, rx_y, h_rx)
        blockers = [
            (n, out.blocker) for n, (_, out) in enumerate(checks) if not out.is_los
        ]
        assert [n for n, _ in blockers] == link.tolist()
        for (n, blocker), bx, by, bt in zip(blockers, ix.tolist(), iy.tolist(), t.tolist()):
            r_op = float((1.0 - bt) * checks[n][0].r_rx)
            assert (blocker.ix, blocker.iy, blocker.r_op) == (bx, by, r_op)


@pytest.mark.parametrize("env", ["urban", "high-rise", "suburban"])
def test_window_cells_bounds_the_window_of_every_ring(env):
    # A block is sized by window_cells, so no city's tallest-roof window
    # may hold more cells than it says: UAVs anywhere and on band edges,
    # rings and one-user points from theta 2 to 90.
    layout = derive_layout(ENVIRONMENTS[env], 3000.0, 3000.0)
    p, s = layout.period, layout.s
    rng = np.random.default_rng(6)
    band = rng.integers(0, int(3000.0 // p), 300) * p
    ux = np.concatenate([rng.uniform(0.0, 3000.0, 300), band, band + s])
    uy = np.concatenate([rng.uniform(0.0, 3000.0, 300), band + s, band])
    uavs = (ux, uy, np.full(ux.size, 100.0))
    for theta in np.linspace(2.0, 90.0, 45):
        for phi in (None, 30.0, 90.0):
            directions = user_directions(theta, 360, phi)
            run, x, y = place_users(layout, uavs, theta, directions)
            owner, (first_x, last_x), (first_y, last_y) = sim3d._windows(
                layout, run, ux, uy, x, y
            )
            cells_x = np.max(last_x - first_x + 1, initial=0)
            cells_y = np.max(last_y - first_y + 1, initial=0)
            radius = track_length(theta, 100.0, 1.5)
            assert cells_x * cells_y <= sim3d.window_cells(layout, radius, directions)


@st.composite
def _ring_cases(draw):
    """An environment and a square extent of 1.5 to 30 periods, UAVs on
    it (anywhere, on band edges or on the extent's edges), and the
    elevation, user directions and altitude of their rings."""
    params = ENVIRONMENTS[draw(st.sampled_from(sorted(ENVIRONMENTS)))]
    period = derive_layout(params).period
    extent = draw(st.floats(1.5, 30.0)) * period
    layout = derive_layout(params, extent, extent)
    edges = [
        edge for k in range(int(extent // period) + 1)
        for edge in (k * period, k * period + layout.s) if edge <= extent
    ]
    coordinate = st.one_of(st.floats(0.0, extent), st.sampled_from(edges + [extent]))
    uavs = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8))
    theta = draw(st.one_of(st.floats(2.0, 89.9), st.just(90.0)))
    phi = draw(st.one_of(st.none(), st.floats(0.0, 360.0), st.sampled_from([0.0, 90.0, 180.0])))
    directions = user_directions(theta, draw(st.integers(1, 400)), phi)
    return layout, uavs, theta, directions, draw(st.floats(5.0, 400.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_ring_cases())
def test_no_window_exceeds_window_cells(case):
    # Blocks are sized by window_cells: the widest window of a block on
    # each axis, the tile _window_roofs looks up for every city, may not
    # hold more cells than it says, for rings and fixed azimuths alike,
    # and for windows clipped at the grid.
    layout, uavs, theta, directions, h_uav = case
    x, y = (np.array(v) for v in zip(*uavs))
    run, rx_x, rx_y = place_users(layout, (x, y, np.full(x.size, h_uav)), theta, directions)
    assume(run.size > 0)
    _, (first_x, last_x), (first_y, last_y) = sim3d._windows(layout, run, x, y, rx_x, rx_y)
    cells_x = max(int(np.max(last_x - first_x + 1)), 0)
    cells_y = max(int(np.max(last_y - first_y + 1)), 0)
    radius = track_length(theta, h_uav, 1.5)
    assert cells_x * cells_y <= sim3d.window_cells(layout, radius, directions)


_URBAN_EXTENT = 60.5 * derive_layout(ENVIRONMENTS["urban"]).period
_URBAN_LAYOUT = derive_layout(ENVIRONMENTS["urban"], _URBAN_EXTENT, _URBAN_EXTENT)
#: Coordinates of the urban grid (a 44.7 m period that no float holds
#: exactly) on band edges from one period before the origin to two past
#: the 60-cell grid of a 60.5-period extent, computed as the kernel computes
#: them, or one ulp either side (the subnormal neighbours of 0 included);
#: in the fringe beyond the grid; or anywhere in between, subnormals too.
_EDGES = [
    edge
    for k in range(-1, 63)
    for edge in (k * _URBAN_LAYOUT.period, k * _URBAN_LAYOUT.period + _URBAN_LAYOUT.s)
]
_NEAR_EDGES = [float(np.nextafter(e, d)) for e in _EDGES for d in (-np.inf, np.inf)]
_COORDINATE = st.one_of(
    st.floats(-50.0, 2800.0),
    st.sampled_from(_EDGES),
    st.sampled_from(_NEAR_EDGES),
    st.floats(60.0 * _URBAN_LAYOUT.period, _URBAN_EXTENT),
)
#: Coordinates whose window holds no cell: before the first box or a
#: period past the last.
_BEYOND = st.one_of(
    st.floats(-50.0, -25.0), st.floats(61.0 * _URBAN_LAYOUT.period, 62.5 * _URBAN_LAYOUT.period)
)


def _ring(coordinate):
    point = st.tuples(coordinate, coordinate)
    return st.tuples(point, st.lists(point, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rings=st.lists(st.one_of(_ring(_COORDINATE), _ring(_BEYOND)), min_size=1, max_size=4))
# Tracks ending on the near face of box 30 and starting on the far face
# of box 29, where (29*p + s - s)/p and 29*p/p round below 29.
@example(rings=[((10.0, 10.0), [(_EDGES[61], _EDGES[61])])])
@example(rings=[((_EDGES[60], _EDGES[60]), [(2000.0, 2000.0)])])
# A track of subnormal length, whose band-edge fractions overflow.
@example(rings=[((0.0, 2.2e-311), [(0.0, 0.0)])])
def test_uncut_tracks_meet_only_boxes_of_their_city_window(rings):
    # The cut and the entry decision from the window's roofs both rest on
    # this: every box of the grid that a city's uncut track meets lies in
    # the city's window on both axes, so its roof is in the city's tile.  A
    # city whose window holds no cell keeps top 0 and reads no roof.
    city = generate_city(ENVIRONMENTS["urban"], _URBAN_EXTENT, _URBAN_EXTENT, 5)
    layout = city.layout
    assert city.heights.shape == (1, 60, 60)
    run = np.array([c for c, (_, rxs) in enumerate(rings) for _ in rxs])
    tx_x, tx_y = (np.array(v) for v in zip(*[tx for tx, _ in rings]))
    rx_x, rx_y = (np.array(v) for v in zip(*[rx for _, rxs in rings for rx in rxs]))
    windows = sim3d._windows(layout, run, tx_x, tx_y, rx_x, rx_y)
    owner, (first_x, last_x), (first_y, last_y) = windows
    assert owner.tolist() == list(range(len(rings)))
    link, ix, iy, _ = track_entries(layout, rx_x, rx_y, tx_x[run], tx_y[run])
    grid = (ix >= 1) & (ix <= 60) & (iy >= 1) & (iy <= 60)
    c = run[link[grid]]
    assert ((first_x[c] <= ix[grid]) & (ix[grid] <= last_x[c])).all()
    assert ((first_y[c] <= iy[grid]) & (iy[grid] <= last_y[c])).all()

    # The implicit cities of the materialized city's key, one per ring.
    cities = Cities(city.params, layout, np.repeat(city.keys, len(rings)))
    read = []
    roofs = Cities.roofs

    def recorded(self, run, ix, iy):
        read.extend(np.broadcast_to(run, np.broadcast(run, ix, iy).shape).ravel().tolist())
        return roofs(self, run, ix, iy)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cities, "roofs", recorded)
        top, roofs, base, ky = sim3d._window_roofs(cities, windows)
    at = base[c] + ix[grid] * ky + iy[grid]
    assert np.array_equal(roofs[at], city.heights[0, ix[grid] - 1, iy[grid] - 1])
    for n in range(len(rings)):
        if first_x[n] > last_x[n] or first_y[n] > last_y[n]:
            assert top[n] == 0.0 and n not in read
        else:
            window = city.heights[0, first_x[n] - 1:last_x[n], first_y[n] - 1:last_y[n]]
            assert top[n] == window.max()


def test_outcome_survives_transposition():
    # swapping x and y everywhere maps the grid onto itself
    params = ENVIRONMENTS["urban"]
    city = generate_city(params, 2000.0, 2000.0, 31)
    flipped = Cities(params, city.layout, city.keys, city.heights.transpose(0, 2, 1))
    rng = np.random.default_rng(12)
    for _ in range(200):
        tx = random_free_node(city, rng, 30.0, 300.0)
        rx = random_free_node(city, rng, 0.0, 20.0)
        link = LinkGeometry.from_nodes(tx=tx, rx=rx)
        mirrored = LinkGeometry.from_nodes(
            tx=Node(tx.y, tx.x, tx.z), rx=Node(rx.y, rx.x, rx.z)
        )
        a = check_los_edges(city, link)
        b = check_los_edges(flipped, mirrored)
        assert a.is_los == b.is_los
        if not a.is_los:
            assert (a.blocker.ix, a.blocker.iy) == (b.blocker.iy, b.blocker.ix)


def test_place_users_at_a_fixed_azimuth_or_overhead():
    city = toy_city(extent=1000.0)
    uav = Node(500.0, 500.0, 101.5)
    north = user_directions(45.0, 36, phi_deg=90.0)
    _, x, y = place_users(city.layout, xyz([uav]), 45.0, north, h_rx=1.5)
    assert x.tolist() == pytest.approx([500.0]) and y.tolist() == pytest.approx([600.0])
    # a ring's first azimuth is 0 degrees: due east of the UAV
    _, x, y = place_users(city.layout, xyz([uav]), 45.0, user_directions(45.0, 36), h_rx=1.5)
    assert x[0] == pytest.approx(600.0, rel=1e-12) and y[0] == pytest.approx(500.0, abs=1e-9)
    overhead = user_directions(90.0, 36)
    _, x, y = place_users(city.layout, xyz([uav]), 90.0, overhead, h_rx=1.5)
    assert (x.tolist(), y.tolist()) == ([500.0], [500.0])
    # a user who would stand on a building footprint is dropped
    _, x, y = place_users(city.layout, xyz([Node(507.5, 507.5, 101.5)]), 90.0, overhead, h_rx=1.5)
    assert x.size == 0


def place_users_oracle(layout, uavs, theta, directions, h_rx):
    """place_users position by position: UAV m's user along direction k
    is kept when it stands on the extent, off every building footprint
    (classify_point)."""
    kept = []
    for m, (ux, uy, uz) in enumerate(zip(*(np.asarray(c, dtype=float).tolist() for c in uavs))):
        d = track_length(theta, uz, h_rx)
        for cos, sin in zip(*(np.asarray(c).tolist() for c in directions)):
            x, y = ux + d * cos, uy + d * sin
            on_extent = 0.0 <= x <= layout.extent_x and 0.0 <= y <= layout.extent_y
            if on_extent and not isinstance(classify_point(x, y, layout), Building):
                kept.append((m, x, y))
    return kept


def _street_ring():
    """Five UAVs over the middle of the toy grid's first x street band, each
    with users 30 m east and west of it: every position lies in a street."""
    uavs = (np.linspace(300.0, 700.0, 5), np.full(5, 2.5), np.full(5, 31.5))
    return uavs, 45.0, (np.array([1.0, -1.0]), np.zeros(2))


@pytest.mark.parametrize("case", [
    "random", "no city", "none kept", "all kept", "one direction", "overhead",
])
def test_place_users_keeps_the_positions_of_a_per_position_oracle(case):
    # place_users selects the kept (UAV, direction) positions through one
    # index array; its run, x and y must be the oracle's, bit for bit and
    # in its order (by UAV, then by direction), and run an int64 array.
    layout = toy_city(extent=1000.0).layout
    rng = np.random.default_rng(5)
    uavs = (rng.uniform(0.0, 1000.0, 40), rng.uniform(0.0, 1000.0, 40),
            rng.uniform(20.0, 300.0, 40))
    theta, directions = 20.0, user_directions(20.0, 24)
    if case == "no city":
        uavs = (np.zeros(0), np.zeros(0), np.zeros(0))
    elif case == "none kept":
        theta = 0.5  # every ring lies far off the extent
    elif case == "all kept":
        uavs, theta, directions = _street_ring()
    elif case == "one direction":
        directions = user_directions(20.0, 24, phi_deg=30.0)
    elif case == "overhead":
        theta, directions = 90.0, user_directions(90.0, 24)
    run, x, y = place_users(layout, uavs, theta, directions, 1.5)
    expected = place_users_oracle(layout, uavs, theta, directions, 1.5)
    assert run.dtype == np.int64
    assert list(zip(run.tolist(), x.tolist(), y.tolist())) == expected
    n_positions = uavs[0].size * directions[0].size
    if case in ("no city", "none kept"):
        assert expected == []
    elif case == "all kept":
        assert len(expected) == n_positions
    else:
        assert 0 < len(expected) < n_positions


def test_place_uav_policies():
    city = toy_city({(3, 4): 60.0}, extent=200.0)

    fixed = one_uav(city, FixedPoint(Node(1.0, 2.0, 3.0)))
    assert fixed == Node(1.0, 2.0, 3.0)

    anywhere = one_uav(city, RandomOverCity(h=120.0))
    assert 0.0 <= anywhere.x <= 200.0 and 0.0 <= anywhere.y <= 200.0
    assert anywhere.z == 120.0

    cross = one_uav(city, CrossroadCenter(h=80.0))
    assert isinstance(classify_point(cross.x, cross.y, city.layout), Crossroad)

    street = one_uav(city, StreetCenter(h=80.0))
    assert isinstance(classify_point(street.x, street.y, city.layout), Street)

    # only cell (3, 4) has a roof below 70 excluded; all others are at 0
    top = one_uav(city, BuildingTop(h=50.0))
    cell = classify_point(top.x, top.y, city.layout)
    assert isinstance(cell, Building)
    assert city.heights[0, cell.ix - 1, cell.iy - 1] < 50.0

    with pytest.raises(NoSuchCell):
        empty = Cities(TOY, city.layout, city.keys, np.full((1, 20, 20), 90.0))
        one_uav(empty, BuildingTop(h=50.0))

    with pytest.raises(InvalidParams):
        one_uav(city, RandomOverCity(h=0.0))


def test_building_top_placement_refuses_a_grid_larger_than_a_city(monkeypatch):
    # BuildingTop hashes every roof of the grid, as a materialized city
    # holds them, and is bounded the same way: the toy 200 m extent has
    # 20 x 20 cells.
    cities = Cities(TOY, derive_layout(TOY, 200.0, 200.0), np.array([3], dtype=np.uint64))
    monkeypatch.setattr(sim3d, "MAX_CITY_CELLS", 20 * 20)
    place_uav(cities, BuildingTop(h=50.0))
    monkeypatch.setattr(sim3d, "MAX_CITY_CELLS", 20 * 20 - 1)
    with pytest.raises(InvalidParams, match="20 x 20 building cells"):
        place_uav(cities, BuildingTop(h=50.0))


def test_place_uav_is_reproducible():
    city = toy_city(extent=200.0)
    a = one_uav(city, RandomOverCity(h=100.0))
    b = one_uav(city, RandomOverCity(h=100.0))
    assert a == b


@pytest.mark.parametrize(
    "policy", [RandomOverCity(100.0), BuildingTop(50.0), CrossroadCenter(80.0),
               StreetCenter(80.0)], ids=lambda p: type(p).__name__,
)
def test_place_uav_draws_each_city_from_its_key(policy):
    # A batch places each city's UAV as that city alone would.
    city = generate_city(ENVIRONMENTS["urban"], 1000.0, 1000.0, 9)
    other = generate_city(ENVIRONMENTS["urban"], 1000.0, 1000.0, 10)
    explicit = Cities(city.params, city.layout, np.array([9, 10, 9], dtype=np.uint64),
                      np.concatenate([city.heights, other.heights, city.heights]))
    batch = place_uav(explicit, policy)
    alone = [one_uav(c, policy) for c in (city, other)]
    assert [Node(*map(float, p)) for p in zip(*batch)] == [alone[0], alone[1], alone[0]]
    assert alone[0] != alone[1]
    # The implicit city of the same key places the same UAV.
    implicit = Cities(city.params, city.layout, np.array([9, 10], dtype=np.uint64))
    assert [Node(*map(float, p)) for p in zip(*place_uav(implicit, policy))] == alone


def test_random_uav_retries_are_bounded_and_typed(monkeypatch):
    # 9 m buildings on a 10 m period, every roof above the 100 m UAV: the
    # first six draws of key 2 all land over a roof.
    params = BuiltUpParams(0.81, 10000.0, 10.0)
    city = Cities(params, derive_layout(params, 100.0, 100.0), np.array([2], dtype=np.uint64),
                  np.full((1, 10, 10), 200.0))
    assert sim3d.UAV_PLACEMENT_TRIES == 1000
    uav = one_uav(city, RandomOverCity(h=100.0))
    assert uav.z == 100.0 and roof_at(city, uav.x, uav.y) is None
    monkeypatch.setattr(sim3d, "UAV_PLACEMENT_TRIES", 5)
    with pytest.raises(InvalidParams, match="clear of rooftops after 5 tries"):
        one_uav(city, RandomOverCity(h=100.0))


def test_city_round_trip_is_exact():
    city = generate_city(ENVIRONMENTS["dense-urban"], 500.0, 500.0, 99)
    text = city_to_text(city)
    back = city_from_text(text)
    assert back.params == city.params and back.keys.tolist() == city.keys.tolist() == [99]
    assert back.heights.shape == city.heights.shape
    assert (back.heights == city.heights).all()
    assert city_to_text(back) == text


#: sha256 of city_to_text of generate_city(env, 300.0, 250.0, 7), a grid
#: of unequal sides, per environment.  The round-trip tests compare an
#: export only with itself; these pin its bytes.
CITY_TEXT_SHA256 = {
    "dense-urban": "d437d2be6b00cd9702d631c8838cee4d0eae90d4ac9bb8df7dbfcd7f3cf390c0",
    "high-rise": "6ce770d3bcb66e269fdfa962b5799ac9596739b6656c266f00ec3db9f52a8a00",
    "suburban": "313e6937e092ea9e9091e10f1bf78464d612b3507776cc2c67bc24f0a4c1d313",
    "urban": "856747dac8caa216597a929b579592b70d7090cf3f545cd7248baf0c28e3e8eb",
}


@pytest.mark.parametrize("env", sorted(CITY_TEXT_SHA256))
def test_city_export_bytes_are_pinned(env):
    text = city_to_text(generate_city(ENVIRONMENTS[env], 300.0, 250.0, 7))
    assert hashlib.sha256(text.encode()).hexdigest() == CITY_TEXT_SHA256[env]


def test_save_and_load_city(tmp_path):
    city = generate_city(ENVIRONMENTS["urban"], 300.0, 300.0, 4)
    path = tmp_path / "city.txt"
    save_city(city, path)
    again = load_city(path)
    assert (again.heights == city.heights).all()
    assert again.layout.extent_x == city.layout.extent_x


@pytest.mark.parametrize(
    "mangle,message_part",
    [
        (lambda t: "not a header\n" + t.partition("\n")[2], "header"),
        (lambda t: t.replace("alpha=", "aleph=", 1), "header"),
        (lambda t: t.replace(" seed=4", " seed=-4", 1), "header"),
        (lambda t: t.replace("extent_x=300.0", "extent_x=1.0", 1), "header"),
        (lambda t: t + "2 2 17.0\n", "duplicate"),
        (lambda t: t + "99 99 17.0\n", "outside"),
        (lambda t: t.replace(" ", "", 1), "header"),
        (lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "missing"),
    ],
)
def test_city_parser_diagnostics(mangle, message_part):
    city = generate_city(ENVIRONMENTS["urban"], 300.0, 300.0, 4)
    text = city_to_text(city)
    with pytest.raises(ParseError) as err:
        city_from_text(mangle(text))
    assert message_part in str(err.value).lower()


def test_city_parser_rejects_negative_height():
    city = generate_city(ENVIRONMENTS["urban"], 300.0, 300.0, 4)
    lines = city_to_text(city).splitlines()
    ix, iy, _ = lines[1].split()
    lines[1] = f"{ix} {iy} -3.0"
    with pytest.raises(ParseError):
        city_from_text("\n".join(lines) + "\n")


# -- one link decision for both engines ------------------------------------------

_DECISION_EXTENT = 30.0


@st.composite
def _decision_cases(draw):
    """Links on an extent of 30 periods, each its own city: users anywhere
    or on band edges, tracks along an axis (which puts the near cut of a
    user on a band edge on a band edge too), along a diagonal or in any
    direction, of zero length (theta 90), about the staging threshold or
    up to 30 periods, rays that rise, stay level or fall, and a call
    budget of one period, a few or the default."""
    params = ENVIRONMENTS[draw(st.sampled_from(sorted(ENVIRONMENTS)))]
    period = derive_layout(params).period
    extent = _DECISION_EXTENT * period
    layout = derive_layout(params, extent, extent)
    edges = [k * period + e for k in range(int(_DECISION_EXTENT)) for e in (0.0, layout.s)]
    coordinate = st.one_of(st.floats(0.0, extent), st.sampled_from(edges))
    threshold = 2 * citygeom.NEAR_PERIODS
    periods = st.one_of(
        st.just(0.0), st.floats(0.0, 30.0),
        st.sampled_from([threshold, float(np.nextafter(threshold, np.inf)), threshold + 0.5]),
    )
    link = st.tuples(
        coordinate, coordinate,
        st.one_of(st.sampled_from([0.0, 45.0, 90.0, 180.0, 270.0]), st.floats(0.0, 360.0)),
        periods,
        st.one_of(st.just(0.0), st.floats(-30.0, 300.0), st.floats(300.0, 3000.0)),
    )
    links = draw(st.lists(link, min_size=1, max_size=12))
    h_rx = draw(st.sampled_from([0.0, 1.5]))
    budget = draw(st.sampled_from([1, 7, citygeom.CALL_PERIODS]))
    return params, layout, links, h_rx, budget, draw(st.integers(0, 2**32))


def _decision_links(layout, links, h_rx):
    """User and UAV ground points of each drawn link, the UAV end kept on
    the extent, and the UAV altitudes."""
    x0, y0, phi, periods, rise = (np.array(v) for v in zip(*links))
    reach = periods * layout.period
    x1 = np.clip(x0 + reach * np.cos(np.radians(phi)), 0.0, layout.extent_x)
    y1 = np.clip(y0 + reach * np.sin(np.radians(phi)), 0.0, layout.extent_y)
    return x0, y0, x1, y1, h_rx + rise


def _edge_case(env, phi, rise, h_rx, budget, seed):
    """Rising tracks of 25 periods from users on band edges, along an axis,
    whose near cuts fall on band edges too."""
    params = ENVIRONMENTS[env]
    period = derive_layout(params).period
    layout = derive_layout(params, _DECISION_EXTENT * period, _DECISION_EXTENT * period)
    links = [(k * period + layout.s, 2 * period, phi, 25.0, rise) for k in range(4)]
    return params, layout, links, h_rx, budget, seed


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_decision_cases(), lookup=st.sampled_from(["keyed", "window"]))
@example(case=_edge_case("urban", 0.0, 20.0, 1.5, 7, 3), lookup="keyed")
@example(case=_edge_case("high-rise", 90.0, 60.0, 0.0, 1, 9), lookup="window")
def test_staged_and_unstaged_link_decisions_agree(case, lookup):
    # citygeom.blocked_links decides long rising tracks near their users
    # first and walks the links left clear from their near cuts; its
    # result must equal one unstaged walk of every cut track, for the
    # geometry engine's keyed roofs and the 3D engine's window tiles, at
    # every call budget.
    params, layout, links, h_rx, budget, seed = case
    x0, y0, x1, y1, tx_z = _decision_links(layout, links, h_rx)
    length = np.hypot(x1 - x0, y1 - y0)
    keys = run_keys(seed, x0.size)
    run = np.arange(x0.size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(citygeom, "CALL_PERIODS", budget)
        if lookup == "keyed":
            t_max = np.where(np.arange(x0.size) % 3 == 2, 0.6, 1.0)
            rise = tx_z - h_rx
            got = citygeom.blocked_links(
                layout, x0, y0, x1, y1, length, h_rx, rise,
                lambda link, ix, iy: roof_heights(keys.take(link), ix, iy, params.gamma), t_max,
            )
            link, ix, iy, t = track_entries(layout, x0, y0, x1, y1, t_max)
            hit = roof_heights(keys[link], ix, iy, params.gamma) >= h_rx + t * rise[link]
            expected = np.zeros(x0.size, dtype=bool)
            expected[link[hit]] = True
        else:
            cities = Cities(params, layout, keys)
            got = sim3d.links_blocked(cities, (x1, y1, tx_z), run, x0, y0, h_rx, length)
            expected = np.zeros(x0.size, dtype=bool)
            expected[reference_blockers(cities, (x1, y1, tx_z), run, x0, y0, h_rx)[0]] = True
    assert got.dtype == bool and got.tolist() == expected.tolist()


def test_link_decisions_stage_the_long_rising_tracks(kernel_calls):
    # Each long rising track is walked first to NEAR_PERIODS periods from
    # its user, and again from there when it is left clear; falling and
    # short tracks are walked once, whole.
    params, layout, links, h_rx, _, _ = _edge_case("urban", 0.0, 20.0, 1.5, 7, 3)
    links += [(100.0, 100.0, 45.0, 25.0, -5.0), (100.0, 100.0, 0.0, 3.0, 20.0)]
    x0, y0, x1, y1, tx_z = _decision_links(layout, links, h_rx)
    # Flat ground: only the falling ray meets it.
    got = citygeom.blocked_links(layout, x0, y0, x1, y1, np.hypot(x1 - x0, y1 - y0), h_rx,
                                 tx_z - h_rx, lambda link, ix, iy: np.zeros(link.size))
    assert got.tolist() == [False] * 4 + [True, False]
    (n1, cut, start), (n2, end, near) = ((c.links, c.t_max, c.t_min) for c in kernel_calls)
    assert (n1, start) == (6, 0.0) and (n2, end) == (4, 1.0)
    p = layout.period
    np.testing.assert_allclose(cut[:4] * 25.0 * p, citygeom.NEAR_PERIODS * p, rtol=1e-12)
    assert cut[4:].tolist() == [1.0, 1.0]
    assert near.tolist() == cut[:4].tolist()


def test_links_blocked_near_their_users_take_no_second_call(kernel_calls):
    # Roofs everywhere over the rays block every long rising track in its
    # first NEAR_PERIODS periods, so no link is left to a second stage
    # and no second kernel call, empty or not, is made.
    params, layout, links, h_rx, _, _ = _edge_case("urban", 0.0, 20.0, 1.5, 7, 3)
    x0, y0, x1, y1, tx_z = _decision_links(layout, links, h_rx)
    got = citygeom.blocked_links(layout, x0, y0, x1, y1, np.hypot(x1 - x0, y1 - y0), h_rx,
                                 tx_z - h_rx, lambda link, ix, iy: np.full(link.size, 1e3))
    assert got.all() and [call.links for call in kernel_calls] == [4]
    assert list(citygeom.call_slices(np.zeros(0))) == []


@pytest.mark.parametrize("owned", [False, True], ids=["own links", "owner index"])
@pytest.mark.parametrize("batch", ["none blocked", "all blocked", "staged blocked near"])
def test_link_batches_blocked_nowhere_everywhere_or_near_their_users_only(
    batch, owned, kernel_calls
):
    # The edge cases of blocked_links' index selections: no link blocked,
    # every link blocked, and every staged link blocked near its user and
    # every other link clear, so the second stage gets no link.  Four
    # long rising tracks are staged; a long falling and a short rising
    # one are not.
    params, layout, links, h_rx, _, _ = _edge_case("urban", 0.0, 20.0, 1.5, 7, 3)
    row = 2 * layout.period + layout.s + 1.0  # inside a row of buildings
    links += [(100.0, 100.0, 45.0, 25.0, -5.0), (100.0, row, 0.0, 3.0, 20.0)]
    x0, y0, x1, y1, tx_z = _decision_links(layout, links, h_rx)
    rise = tx_z - h_rx
    staged = np.arange(x0.size) < 4
    high = {"none blocked": np.zeros_like(staged), "all blocked": np.ones_like(staged),
            "staged blocked near": staged}[batch]

    def roofs(link, ix, iy):
        return np.where(high.take(link), 1e3, -1e3)

    link, ix, iy, t = track_entries(layout, x0, y0, x1, y1)
    expected = np.zeros(x0.size, dtype=bool)
    expected[link[roofs(link, ix, iy) >= h_rx + t * rise[link]]] = True
    assert expected.tolist() == high.tolist()
    owner = np.arange(x0.size)[::-1].copy() if owned else None
    per_owner = []
    for v in (x1, y1, rise):
        if owned:
            v = v.copy()
            v[owner] = v.copy()
        per_owner.append(v)
    got = citygeom.blocked_links(layout, x0, y0, *per_owner[:2], np.hypot(x1 - x0, y1 - y0),
                                 h_rx, per_owner[2], roofs, 1.0, owner)
    assert got.dtype == bool and got.tolist() == expected.tolist()
    calls = [call.links for call in kernel_calls]
    assert calls == ([6, 4] if batch == "none blocked" else [6])
