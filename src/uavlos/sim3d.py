"""Full 3D city simulator with simplified ray tracing.

A generated city is implicit: its key fixes one Rayleigh roof per
building cell of the grid described in :mod:`uavlos.citygeom`, given by
:func:`uavlos.citygeom.roof_heights`, and the key's stream also draws
its UAV.  :class:`Cities`, the one city record, holds the keys of the
cities that are decided together and looks a roof up only where a UAV
placement or a ground track needs it.  Explicit cities (toy grids,
loaded files) hold their own heights instead: :func:`generate_city`
materializes the grid of one key as a one-city Cities for export, the
dense oracle and the demos.

Line-of-sight between a transmitter and its receivers is decided from
the ground track of each link: :func:`uavlos.citygeom.track_entries`
lists every closed building box the track meets and the point where it
enters the box seen from the receiver, and the link is blocked when a
roof reaches the ray height there.  Flat rooftops make this edge test
exact, which :func:`check_los_dense` verifies by brute force.
:func:`check_los_edges` decides one link of a one-city Cities this way
and reports the blocker nearest the transmitter.  A sweep needs
only whether each link is blocked (:func:`links_blocked`): the cities
decided together look up each roof their links' tracks can meet once,
in one window per city, every entry reads its roof from there, and
the links go through :func:`uavlos.citygeom.blocked_links`, the
geometry engine's link decision too, which decides a long track on its
first NEAR_PERIODS periods from the receiver first and walks on only
the links left clear there.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import citygeom
from ._record import record
from .citygeom import (
    BuiltUpParams,
    CityLayout,
    LinkGeometry,
    Node,
    blocked_links,
    building_band,
    derive_layout,
    roof_heights,
    stream_uniforms,
    track_entries,
    track_length,
)
from .errors import (
    DegenerateLink,
    EndpointInsideBuilding,
    InvalidParams,
    NoSuchCell,
    OutOfExtent,
    ParseError,
)

__all__ = [
    "Cities",
    "Blocker",
    "LoSOutcome",
    "FixedPoint",
    "RandomOverCity",
    "BuildingTop",
    "CrossroadCenter",
    "StreetCenter",
    "UavPlacementPolicy",
    "generate_city",
    "ray_height_at",
    "links_blocked",
    "window_cells",
    "check_los_edges",
    "check_los_dense",
    "user_directions",
    "place_users",
    "place_uav",
    "city_to_text",
    "city_from_text",
    "save_city",
    "load_city",
]


def _grid_shape(layout: CityLayout) -> tuple[int, int]:
    """Building cells per axis: one per full grid period of the extent."""
    return int(layout.extent_x // layout.period), int(layout.extent_y // layout.period)


def _city_key(seed: int) -> int:
    if not 0 <= int(seed) < 2**64:
        raise InvalidParams(f"city seed must be in [0, 2^64), got {seed}")
    return int(seed)


@record(eq=False)
class Cities:
    """Cities of one layout decided together, one per key.

    City n is implicit: the roof of its cell (ix, iy) is
    roof_heights(keys[n], ix, iy, params.gamma), evaluated only where it
    is looked up.  Explicit cities instead hold it in heights[n, ix-1,
    iy-1], of shape (keys.size, nx, ny) (InvalidParams otherwise).  Either
    way the grid holds nx x ny cells, floor(extent/period) per axis
    (:func:`_grid_shape`), and keys[n] seeds city n's UAV draws (see
    :func:`place_uav`).
    """

    params: BuiltUpParams
    layout: CityLayout
    keys: np.ndarray
    heights: np.ndarray | None = None

    def __post_init__(self):
        shape = (self.keys.size, *_grid_shape(self.layout))
        if self.heights is not None and self.heights.shape != shape:
            raise InvalidParams(f"heights of shape {self.heights.shape}, expected {shape}")

    def roofs(self, run, ix, iy) -> np.ndarray:
        """Roofs of the 1-based grid cells (ix[m], iy[m]) of the cities
        run[m]: the one roof lookup of the implicit and explicit cities."""
        if self.heights is None:
            return roof_heights(self.keys[run], ix, iy, self.params.gamma)
        return self.heights[run, ix - 1, iy - 1]

    def roofs_under(self, run, x, y) -> np.ndarray:
        """Roof under each ground point (x[m], y[m]) of city run[m], -inf
        over streets, crossroads and the unbuilt fringe, where no height
        is inside a building."""
        layout = self.layout
        nx, ny = _grid_shape(layout)
        reach = max(layout.extent_x, layout.extent_y)
        ix, x_built = building_band(x, layout.period, layout.s, reach)
        iy, y_built = building_band(y, layout.period, layout.s, reach)
        ix, iy = ix.astype(np.int64), iy.astype(np.int64)
        ix += 1
        iy += 1
        at = np.flatnonzero(x_built & y_built & (ix <= nx) & (iy <= ny))
        roof = np.full(x.size, -np.inf)
        roof[at] = self.roofs(run.take(at), ix.take(at), iy.take(at))
        return roof


UavPositions = tuple[np.ndarray, np.ndarray, np.ndarray]


@record
class Blocker:
    """The blocking building of an NLoS link: its 1-based cell (ix, iy)
    and r_op, the ground distance from the transmitter to the point
    where the ground track enters the building's closed box seen from
    the receiver.  With a flat roof the ray is lowest over the box
    there, so that is where the roof blocks it."""

    ix: int
    iy: int
    r_op: float


@record
class LoSOutcome:
    """LoS/NLoS state; NLoS carries the blocking building."""

    is_los: bool
    blocker: Blocker | None = None

    def __post_init__(self):
        if self.is_los and self.blocker is not None:
            raise InvalidParams("LoS outcome cannot carry a blocker")
        if not self.is_los and self.blocker is None:
            raise InvalidParams("NLoS outcome requires a blocker")


@record
class FixedPoint:
    node: Node


@record
class RandomOverCity:
    h: float


@record
class BuildingTop:
    h: float


@record
class CrossroadCenter:
    h: float


@record
class StreetCenter:
    h: float


UavPlacementPolicy = FixedPoint | RandomOverCity | BuildingTop | CrossroadCenter | StreetCenter


#: Most building cells :func:`generate_city` and :func:`city_from_text`
#: materialize: a grid of 1000 x 1000 cells holds 8 MB of roofs, and its
#: urban export writes 26 MB of text and peaks at 122 MB RSS.
MAX_CITY_CELLS = 1_000_000


def _city_grid(layout: CityLayout) -> tuple[int, int]:
    """The building cells per axis (:func:`_grid_shape`) of a city to
    materialize on layout, refused (InvalidParams) over MAX_CITY_CELLS
    cells."""
    nx, ny = _grid_shape(layout)
    if nx * ny > MAX_CITY_CELLS:
        raise InvalidParams(
            f"extent {layout.extent_x:g} x {layout.extent_y:g} holds {nx} x {ny} building cells, "
            f"more than the {MAX_CITY_CELLS} a materialized city may hold"
        )
    return nx, ny


def _grid_roofs(city: Cities) -> np.ndarray:
    """Every roof of a one-city Cities, as an (nx, ny) array."""
    nx, ny = _grid_shape(city.layout)
    return city.roofs(0, np.arange(1, nx + 1)[:, None], np.arange(1, ny + 1)[None, :])


def generate_city(
    params: BuiltUpParams, extent_x: float, extent_y: float, seed: int
) -> Cities:
    """Materialize the city of key ``seed`` as a one-city Cities, keys
    [seed]: heights[0, ix-1, iy-1] is roof_heights(seed, ix, iy, gamma)
    for every building cell, so every (params, extent, seed) triple
    reproduces the same array bit for bit, and the roofs are those the
    sweep looks up without a grid.  A grid of more than MAX_CITY_CELLS
    cells is refused (InvalidParams) before anything is allocated.
    """
    keys = np.array([_city_key(seed)], dtype=np.uint64)
    layout = derive_layout(params, extent_x, extent_y)
    _city_grid(layout)
    heights = _grid_roofs(Cities(params, layout, keys))[None]
    heights.setflags(write=False)
    return Cities(params, layout, keys, heights)


def ray_height_at(link: LinkGeometry, r_op: float) -> float:
    """Height of the straight tx-rx ray above the ground point at
    distance r_op from the transmitter along the ground projection."""
    if link.r_rx == 0.0:
        raise DegenerateLink("vertical link has no ground parametrization")
    if not 0.0 <= r_op <= link.r_rx:
        raise InvalidParams(f"r_op must be in [0, {link.r_rx}], got {r_op}")
    return link.tx.z - r_op * (link.tx.z - link.rx.z) / link.r_rx


def _one_city(cities: Cities) -> int:
    """The key of a one-city Cities (InvalidParams for any other count)."""
    if cities.keys.size != 1:
        raise InvalidParams(f"expected one city, got {cities.keys.size}")
    return int(cities.keys[0])


def _check_endpoints(city: Cities, link: LinkGeometry) -> None:
    """city holds one city (InvalidParams otherwise), both endpoints of
    a single-link check lie on the extent (OutOfExtent otherwise), then
    both in free air, strictly above any roof under them
    (EndpointInsideBuilding otherwise)."""
    _one_city(city)
    ends = {"transmitter": link.tx, "receiver": link.rx}
    for label, node in ends.items():
        _require_on_extent(city.layout, np.array([node.x]), np.array([node.y]), label)
    x, y = np.array([link.tx.x, link.rx.x]), np.array([link.tx.y, link.rx.y])
    roofs = city.roofs_under(np.zeros(2, dtype=np.int64), x, y).tolist()
    for (label, node), roof in zip(ends.items(), roofs):
        if node.z <= roof:
            raise EndpointInsideBuilding(
                f"{label} at height {node.z} inside a building with roof {roof}"
            )


#: Added to each link's cut (see :func:`links_blocked`) so that the ray,
#: computed as in the roof test, clears the tallest roof at the cut.
_CUT_SLACK = 1e-9


#: Slack, in grid periods, that widens each end of a window of
#: :func:`_windows`: twice the kernel's own (citygeom._BAND_SLACK).
_WINDOW_SLACK = 2.0 * citygeom._BAND_SLACK


def _windows(layout: CityLayout, run, tx_x, tx_y, rx_x, rx_y):
    """The cities that have links and the cell window of each.

    Every track of city c lies in the bounding box of its transmitter
    and its receivers, so only the boxes meeting that window matter:
    box ix, spanning [(ix-1)*p + s, ix*p], meets [lo, hi] when
    lo/p <= ix <= (hi - s)/p + 1.  Against rounding, both bounds are
    widened by _WINDOW_SLACK periods, twice the slack the ground-track
    kernel adds to its own band range, so the window holds every box
    the kernel can list for a track of the city; the cell range is then
    clipped to the grid.

    Returns (owner, (first_x, last_x), (first_y, last_y)): the city of
    each run of equal entries of run, and its window's first and last
    1-based cells per axis; last < first where the window holds no cell.
    run must be non-decreasing and index the transmitters (InvalidParams
    otherwise), so that each city owns one run.  The runs start at the
    first link and wherever a link's city differs from the one before
    it, found by one comparison of neighbours.
    """
    p, s = layout.period, layout.s
    new = np.empty(run.size, dtype=bool)
    new[0] = True
    np.not_equal(run[1:], run[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    owner = run[starts]
    if run[0] < 0 or owner[-1] >= tx_x.size or (owner[1:] <= owner[:-1]).any():
        raise InvalidParams(f"run must be non-decreasing and index the {tx_x.size} cities")
    ends = []
    for tx, rx, n in zip((tx_x, tx_y), (rx_x, rx_y), _grid_shape(layout)):
        lo = np.minimum(np.minimum.reduceat(rx, starts), tx[owner])
        hi = np.maximum(np.maximum.reduceat(rx, starts), tx[owner])
        first = np.maximum(np.ceil(lo / p - _WINDOW_SLACK).astype(np.int64), 1)
        last = np.minimum(np.floor((hi - s) / p + _WINDOW_SLACK).astype(np.int64) + 1, n)
        ends.append((first, last))
    return owner, ends[0], ends[1]


def window_cells(layout: CityLayout, radius: float, directions) -> int:
    """Most cells the window of :func:`_windows` can hold for a city whose
    users stand at ground distance radius from its UAV along directions
    (see :func:`user_directions`).

    On an axis whose direction components are c, the users and the UAV
    span w = radius*(max(c, 0) - min(c, 0)) metres.  A window over
    [lo, hi] runs from cell ceil(lo/p - e) to floor((hi - s)/p + e) + 1,
    e being its slack, and since floor(x + d) - ceil(x) <= floor(d) for
    every x, it holds at most floor((w - s)/p + 2e) + 2 cells, as many
    as a window starting on a box's near face does; a margin of another
    2e periods covers rounding in the users' positions.  No window holds
    more cells than the grid.
    """
    p, s = layout.period, layout.s
    margin = 4.0 * _WINDOW_SLACK
    cells = 1
    for c, n in zip(directions, _grid_shape(layout)):
        span = radius * (max(float(np.max(c)), 0.0) - min(float(np.min(c)), 0.0))
        cells *= min(math.floor((span - s) / p + margin) + 2, n)
    return cells


def _window_roofs(cities: Cities, windows):
    """The roofs of every city's window, windows being what
    :func:`_windows` returns, looked up once and kept for the track
    entries of its links, and per city the tallest of them: a roof at
    least as tall as any its links' tracks meet.

    The windows are looked up as one (cities, Kx, Ky) broadcast through
    :meth:`Cities.roofs` over the widest window on each axis, each
    city's indices clipped to its own window.  Each city with links
    keeps its roofs in a tile of (Kx + 2) x (Ky + 2) cells that starts
    one cell before its window on each axis; every cell of the tile
    outside the window, repeated by the clipping or beyond the grid,
    reads -inf, so it never blocks, not even a ray at height 0.  Every
    grid box a track meets lies in its city's window, and a track with
    both ends on the extent meets no box more than one cell beyond the
    grid, so the tile holds every box the track meets.

    Returns (top, roofs, base, ky): per city, the tallest roof of its
    window (0 for a city without links or whose window holds no cell),
    and the tiles, flat, the roof of cell (ix, iy) of city c being
    roofs[base[c] + ix*ky + iy].
    """
    owner, (first_x, last_x), (first_y, last_y) = windows
    cells_x = np.maximum(last_x - first_x + 1, 0)
    cells_y = np.maximum(last_y - first_y + 1, 0)
    kx, ky = int(cells_x.max()) + 2, int(cells_y.max()) + 2
    roofs = np.full((owner.size, kx, ky), -np.inf)
    top = np.zeros(cities.keys.size)
    filled = np.flatnonzero(cells_x * cells_y)
    if filled.size:
        ix, iy = (
            np.minimum(first[filled, None] + np.arange(k - 2), last[filled, None])
            for first, last, k in ((first_x, last_x, kx), (first_y, last_y, ky))
        )
        window = cities.roofs(owner[filled, None, None], ix[:, :, None], iy[:, None, :])
        repeated = (np.arange(kx - 2) >= cells_x[filled, None])[:, :, None] | (
            np.arange(ky - 2) >= cells_y[filled, None]
        )[:, None, :]
        np.copyto(window, -np.inf, where=repeated)
        top[owner[filled]] = window.max(axis=(1, 2))
        roofs[filled, 1:-1, 1:-1] = window
    base = np.zeros(cities.keys.size, dtype=np.int64)
    base[owner] = np.arange(owner.size) * (kx * ky) - (first_x - 1) * ky - (first_y - 1)
    return top, roofs.ravel(), base, ky


def _require_on_extent(layout: CityLayout, x, y, label: str) -> None:
    if not (
        0.0 <= x.min() and x.max() <= layout.extent_x
        and 0.0 <= y.min() and y.max() <= layout.extent_y
    ):
        raise OutOfExtent(
            f"a {label} lies outside extent {layout.extent_x} x {layout.extent_y}"
        )


def links_blocked(cities: Cities, uavs: UavPositions, run, rx_x, rx_y, h_rx: float,
                  length) -> np.ndarray:
    """Decide whether each link of several cities is blocked.

    Link n runs from the receiver at (rx_x[n], rx_y[n], h_rx) to the
    transmitter of city run[n], at (x[run[n]], y[run[n]], z[run[n]])
    for uavs = (x, y, z); run is non-decreasing, so the links of one
    city are contiguous, and every endpoint lies on the extent
    (InvalidParams and OutOfExtent otherwise).  A building blocks a link
    when its roof (:meth:`Cities.roofs`) reaches the ray height where
    the ground track enters its closed box seen from the receiver (a
    roof exactly at ray height blocks); cells beyond the grid are open
    space.  Endpoints are not checked against the buildings.

    The roofs of every city's window are looked up once
    (:func:`_window_roofs`), and each entry reads its roof from them.
    Where no window holds a cell of the grid, as at theta 90 unless a
    receiver stands on a box's face, no link is blocked, and none goes
    to the kernel.
    Each track is cut where the ray rises above the tallest of them: at
    t_max = (top - h_rx) / (tx.z - h_rx) plus _CUT_SLACK, at most 1,
    and kept only where the ray height there, computed as in the roof
    test, exceeds that roof.  The ray height only grows with t, so no
    box entered beyond the cut can block, and the cut changes no
    outcome.  Where tx.z <= h_rx the track is not cut.  The cut tracks
    are decided by :func:`uavlos.citygeom.blocked_links`, near their
    receivers first, with run as the owner index of the links: each
    kernel call gathers its links' transmitters, rises and cuts from the
    per-city arrays, so the block holds no per-link copy of them.

    length is the ground length of each track, per link or one for
    all, as the ring radius of a sweep point's users is; it sizes the
    kernel calls and the near part, not the result.  Returns a boolean
    array, one element per link.
    """
    run = np.asarray(run, dtype=np.int64)
    blocked = np.zeros(run.size, dtype=bool)
    if run.size == 0:
        return blocked
    rx_x = np.asarray(rx_x, dtype=float)
    rx_y = np.asarray(rx_y, dtype=float)
    tx_x, tx_y, tx_z = (np.asarray(c, dtype=float) for c in uavs)
    layout = cities.layout
    _require_on_extent(layout, rx_x, rx_y, "receiver")
    _require_on_extent(layout, tx_x, tx_y, "transmitter")
    windows = _windows(layout, run, tx_x, tx_y, rx_x, rx_y)
    _, (first_x, last_x), (first_y, last_y) = windows
    if not ((first_x <= last_x) & (first_y <= last_y)).any():
        # No track meets a box of the grid, and beyond it is open space.
        return blocked
    top, tiles, base, ky = _window_roofs(cities, windows)
    rise = tx_z - h_rx
    cut = (top - h_rx) / np.where(rise > 0.0, rise, 1.0) + _CUT_SLACK
    cut = np.where((rise > 0.0) & (h_rx + cut * rise > top), np.minimum(cut, 1.0), 1.0)

    def roofs(link, ix, iy):
        at = ix * ky
        at += iy
        at += base.take(run.take(link))
        return tiles.take(at)

    return blocked_links(layout, rx_x, rx_y, tx_x, tx_y, length, h_rx, rise, roofs, cut, run)


def check_los_edges(city: Cities, link: LinkGeometry) -> LoSOutcome:
    """Decide LoS in a one-city Cities at footprint entry edges.

    For every closed building box of the grid that the ground track
    meets (:func:`uavlos.citygeom.track_entries`), the ray height where
    the track enters the box seen from the receiver is compared with
    the roof (a roof exactly at ray height blocks); cells beyond the
    grid are open space.  The city and both endpoints are validated
    first (:func:`_check_endpoints`); a vertical link is a zero-length
    track.  Returns the blocker with the smallest r_op: the kernel lists
    a track's entries nearest the transmitter first, so it is the first
    entry that blocks.
    """
    _check_endpoints(city, link)
    tx, rx = link.tx, link.rx
    _, ix, iy, t = track_entries(city.layout, rx.x, rx.y, tx.x, tx.y)
    nx, ny = _grid_shape(city.layout)
    grid = (ix >= 1) & (ix <= nx) & (iy >= 1) & (iy <= ny)
    ix, iy, t = ix[grid], iy[grid], t[grid]
    hit = np.flatnonzero(city.roofs(0, ix, iy) >= rx.z + t * (tx.z - rx.z))
    if hit.size == 0:
        return LoSOutcome(True)
    first = hit[0]
    r_op = float((1.0 - t[first]) * link.r_rx)
    return LoSOutcome(False, Blocker(int(ix[first]), int(iy[first]), r_op))


def check_los_dense(city: Cities, link: LinkGeometry, step: float = 0.1) -> LoSOutcome:
    """Brute-force LoS oracle for a one-city Cities, sampling the ray
    along the ground track.

    Samples every ``step`` metres plus every band-boundary crossing and
    both endpoints, and tests each sample against the closed building
    box it may touch (boundary contact counts, matching the edge
    check's tie rule); a vertical link has the receiver as its one
    sample.  The blocker is the box nearest the transmitter with a
    blocked sample, and r_op is the distance of its last sample, the
    receiver-side boundary crossing.  Independent of the ground-track
    kernel behind :func:`check_los_edges`; with flat rooftops the two
    agree exactly, up to rounding in r_op.
    """
    layout = city.layout
    p, s = layout.period, layout.s
    if not 0.0 < step <= s / 10.0:
        raise InvalidParams(f"step must be in (0, s/10 = {s / 10.0}], got {step}")
    _check_endpoints(city, link)

    x0, y0 = link.tx.x, link.tx.y
    dx = link.rx.x - x0
    dy = link.rx.y - y0
    r_rx = link.r_rx

    # Boundary crossings enumerated by direct line scan (kept separate from
    # the ground-track kernel so the oracle does not share its logic).  A
    # crossing sample sits exactly on the boundary it crosses: computed
    # from t, both samples of a corner clipped by less than a step could
    # round just outside the closed box.
    crossings = []
    for axis, c0, dc in ((0, x0, dx), (1, y0, dy)):
        if dc == 0.0:
            continue
        lo, hi = (c0, c0 + dc) if dc > 0.0 else (c0 + dc, c0)
        for k in range(math.floor(lo / p), math.floor(hi / p) + 2):
            for c in (k * p, k * p + s):
                if lo <= c <= hi:
                    t = (c - c0) / dc
                    if 0.0 <= t <= 1.0:
                        crossings.append((t, axis, c))
    cross_t, cross_axis, cross_c = np.array(crossings, dtype=float).reshape(-1, 3).T

    ts = np.concatenate([np.arange(0.0, r_rx, step) / r_rx, cross_t, [1.0]])
    xs = x0 + dx * ts
    ys = y0 + dy * ts
    crossed = np.arange(ts.size - 1 - cross_t.size, ts.size - 1)
    xs[crossed] = np.where(cross_axis == 0, cross_c, xs[crossed])
    ys[crossed] = np.where(cross_axis == 1, cross_c, ys[crossed])
    order = np.argsort(ts, kind="stable")
    ts, xs, ys = ts[order], xs[order], ys[order]

    # Closed-box membership: box (i, j) covers [i*p + s, (i+1)*p] on each
    # axis.  The quotient can round a sample on a near face i*p + s into
    # box i - 1, so each index is settled against the face values
    # themselves, computed as the crossing samples were.
    nx, ny = _grid_shape(layout)
    i, j = (np.floor((c - s) / p).astype(np.int64) for c in (xs, ys))
    i += (xs >= (i + 1) * p + s).astype(np.int64) - (xs < i * p + s)
    j += (ys >= (j + 1) * p + s).astype(np.int64) - (ys < j * p + s)
    inside = (
        (xs <= (i + 1) * p)
        & (ys <= (j + 1) * p)
        & (i >= 0)
        & (i < nx)
        & (j >= 0)
        & (j < ny)
    )
    at = np.flatnonzero(inside)
    rays = link.tx.z - ts * (link.tx.z - link.rx.z)
    blocked = np.zeros(ts.size, dtype=bool)
    blocked[at] = city.roofs(0, i[at] + 1, j[at] + 1) >= rays[at]
    if not blocked.any():
        return LoSOutcome(True)
    # The box nearest the transmitter blocks; the ray falls toward the
    # receiver, so the box's last sample, where the track enters it seen
    # from the receiver, is blocked too and gives r_op.
    first = int(np.argmax(blocked))
    in_box = np.flatnonzero(blocked & (i == i[first]) & (j == j[first]))
    blocker = Blocker(int(i[first]) + 1, int(j[first]) + 1, float(ts[in_box[-1]] * r_rx))
    return LoSOutcome(False, blocker)


def user_directions(theta_deg: float, n: int, phi_deg: float | None = None):
    """Ground directions (cos, sin) from a UAV toward its users.

    The users that see a UAV at elevation theta stand at n azimuths
    spaced uniformly from 0 degrees, or at the single azimuth phi_deg
    when it is given; theta = 90 has one user, straight under the UAV,
    whose direction is the +x axis.
    """
    if theta_deg == 90.0:
        azimuths = np.zeros(1)
    elif phi_deg is None:
        azimuths = 2.0 * math.pi * np.arange(n) / n
    else:
        azimuths = np.array([math.radians(phi_deg)])
    return np.cos(azimuths), np.sin(azimuths)


def place_users(layout: CityLayout, uavs: UavPositions, theta_deg: float, directions,
                h_rx: float = 1.5):
    """Ground positions of the users that see each UAV at elevation theta.

    The users of UAV m, at (x[m], y[m], z[m]) for uavs = (x, y, z),
    stand along the given directions (see :func:`user_directions`) at
    ground distance d = (z[m] - h_rx)/tan(theta) from its ground point,
    d = 0 at theta = 90.  Positions outside the extent or inside a
    building footprint are dropped.

    Returns arrays (run, x, y) of the kept positions: the index of the
    UAV each user sees (int64) and its ground position, ordered by UAV,
    then by direction.  The kept positions are selected through one
    index array into the (UAV, direction) grid: its quotient by the
    direction count is run, and x and y are taken at it.
    """
    cos, sin = directions
    ux, uy, uz = (np.asarray(c, dtype=float) for c in uavs)
    d = np.broadcast_to(track_length(theta_deg, uz, h_rx), ux.shape)
    x = ux[:, None] + d[:, None] * cos
    y = uy[:, None] + d[:, None] * sin
    p, s = layout.period, layout.s
    # At low theta a ring reaches far past the extent, beyond what
    # building_band decides exactly for this reach; the extent test
    # drops those positions, so their bands are never read.
    reach = max(layout.extent_x, layout.extent_y)
    kept = (0.0 <= x) & (x <= layout.extent_x) & (0.0 <= y) & (y <= layout.extent_y)
    kept &= ~(building_band(x, p, s, reach)[1] & building_band(y, p, s, reach)[1])
    at = np.flatnonzero(kept)
    return at // kept.shape[1], x.ravel().take(at), y.ravel().take(at)


def _count_from(first: float, limit: float, p: float) -> int:
    if limit < first:
        return 0
    return int((limit - first) // p) + 1


#: Draws RandomOverCity may take to put the UAV in free air.
UAV_PLACEMENT_TRIES = 1000


def place_uav(cities: Cities, policy: UavPlacementPolicy) -> UavPositions:
    """Draw one UAV position per city according to a placement policy.

    City n's draws come from the stream of its key (stream_uniforms of
    keys[n] at positions 0, 1, 2, ...), as array draws over the cities;
    one city is the n = 1 case.  Returns arrays (x, y, z).

    Centers are drawn uniformly over the cells of the requested kind
    inside the extent; RandomOverCity draws (x, y) uniformly over the
    whole extent and redraws, up to UAV_PLACEMENT_TRIES times, until
    the UAV is above any roof under it.  The policy height must be
    positive, and BuildingTop only considers cells whose roof lies
    below it; it hashes every roof of the grid, so a grid of more than
    MAX_CITY_CELLS cells is refused (InvalidParams), as a materialized
    city is.
    """
    layout = cities.layout
    p, s, w = layout.period, layout.s, layout.w
    ex, ey = layout.extent_x, layout.extent_y
    keys = cities.keys
    n = keys.size

    if isinstance(policy, FixedPoint):
        node = policy.node
        return np.full(n, node.x), np.full(n, node.y), np.full(n, node.z)

    if policy.h <= 0.0:
        raise InvalidParams(f"policy height must be positive, got {policy.h}")
    z = np.full(n, policy.h)

    if isinstance(policy, RandomOverCity):
        x, y = np.empty(n), np.empty(n)
        pending = np.arange(n)
        # Try i draws x and y at stream positions 2i and 2i + 1.
        for i in range(UAV_PLACEMENT_TRIES):
            x[pending] = ex * stream_uniforms(keys[pending], 2 * i)
            y[pending] = ey * stream_uniforms(keys[pending], 2 * i + 1)
            over = cities.roofs_under(pending, x.take(pending), y.take(pending)) >= policy.h
            pending = pending.take(np.flatnonzero(over))
            if pending.size == 0:
                return x, y, z
        raise InvalidParams(
            f"could not place a UAV at {policy.h} m clear of rooftops "
            f"after {UAV_PLACEMENT_TRIES} tries"
        )

    u = stream_uniforms(keys[:, None], np.arange(2))

    if isinstance(policy, BuildingTop):
        # The roofs of one whole grid at a time, as a materialized city.
        nx, ny = _city_grid(layout)
        cell_x, cell_y = np.divmod(np.arange(nx * ny), ny)
        x, y = np.empty(n), np.empty(n)
        for c in range(n):
            eligible = np.flatnonzero(cities.roofs(c, cell_x + 1, cell_y + 1) < policy.h)
            if eligible.size == 0:
                raise NoSuchCell(
                    f"no building cell with roof below {policy.h} in the extent"
                )
            pick = eligible[int(u[c, 0] * eligible.size)]
            x[c] = cell_x[pick] * p + s + w / 2.0
            y[c] = cell_y[pick] * p + s + w / 2.0
        return x, y, z

    if isinstance(policy, CrossroadCenter):
        ncx = _count_from(s / 2.0, ex, p)
        ncy = _count_from(s / 2.0, ey, p)
        if ncx == 0 or ncy == 0:
            raise NoSuchCell("no crossroad center in the extent")
        i = np.floor(u[:, 0] * ncx)
        j = np.floor(u[:, 1] * ncy)
        return i * p + s / 2.0, j * p + s / 2.0, z

    if isinstance(policy, StreetCenter):
        # Two orientations: building band along x with street band along y,
        # and the transpose.
        nax = _count_from(s + w / 2.0, ex, p)
        nay = _count_from(s / 2.0, ey, p)
        nbx = _count_from(s / 2.0, ex, p)
        nby = _count_from(s + w / 2.0, ey, p)
        total = nax * nay + nbx * nby
        if total == 0:
            raise NoSuchCell("no street center in the extent")
        idx = np.floor(u[:, 0] * total).astype(np.int64)
        along_x = idx < nax * nay
        i, j = np.divmod(idx, nay)
        k, m = np.divmod(idx - nax * nay, nby)
        x = np.where(along_x, i * p + s + w / 2.0, k * p + s / 2.0)
        y = np.where(along_x, j * p + s / 2.0, m * p + s + w / 2.0)
        return x, y, z

    raise InvalidParams(f"unknown placement policy {policy!r}")


def city_to_text(city: Cities) -> str:
    """Serialize a one-city Cities to the flat text format (header, then
    one 'ix iy height' line per building, full repr precision)."""
    pr = city.params
    lines = [
        f"# city alpha={pr.alpha!r} beta={pr.beta!r} gamma={pr.gamma!r} "
        f"extent_x={city.layout.extent_x!r} extent_y={city.layout.extent_y!r} "
        f"seed={_one_city(city)}"
    ]
    for ix, row in enumerate(_grid_roofs(city).tolist(), start=1):
        lines.append("\n".join(f"{ix} {iy} {h!r}" for iy, h in enumerate(row, start=1)))
    return "\n".join(lines) + "\n"


def city_from_text(text: str) -> Cities:
    """Parse the flat text format back into a one-city Cities
    (bit-for-bit).

    A header whose extent holds more than MAX_CITY_CELLS building cells
    is refused (ParseError at line 1) before the grid is allocated, as
    :func:`generate_city` refuses it."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# city "):
        raise ParseError("missing '# city' header", 1)
    fields = {}
    for token in lines[0][len("# city "):].split():
        key, _, value = token.partition("=")
        if not _:
            raise ParseError(f"malformed header token {token!r}", 1)
        fields[key] = value
    try:
        params = BuiltUpParams(
            alpha=float(fields["alpha"]),
            beta=float(fields["beta"]),
            gamma=float(fields["gamma"]),
        )
        extent_x = float(fields["extent_x"])
        extent_y = float(fields["extent_y"])
        seed = _city_key(int(fields["seed"]))
        layout = derive_layout(params, extent_x, extent_y)
        nx, ny = _city_grid(layout)
    except (KeyError, ValueError, InvalidParams) as exc:
        raise ParseError(f"bad header: {exc}", 1) from exc
    heights = np.zeros((nx, ny))
    seen = np.zeros((nx, ny), dtype=bool)
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'ix iy height', got {line!r}", line_no)
        try:
            ix, iy, h = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
        if not (1 <= ix <= nx and 1 <= iy <= ny):
            raise ParseError(f"cell ({ix}, {iy}) outside {nx} x {ny} grid", line_no)
        if seen[ix - 1, iy - 1]:
            raise ParseError(f"duplicate cell ({ix}, {iy})", line_no)
        if h < 0.0:
            raise ParseError(f"negative height {h}", line_no)
        seen[ix - 1, iy - 1] = True
        heights[ix - 1, iy - 1] = h
    if not seen.all():
        missing = np.argwhere(~seen)[0]
        raise ParseError(
            f"missing height for cell ({missing[0] + 1}, {missing[1] + 1})"
        )
    heights.setflags(write=False)
    return Cities(params, layout, np.array([seed], dtype=np.uint64), heights[None])


def save_city(city: Cities, path: str | Path) -> None:
    Path(path).write_text(city_to_text(city))


def load_city(path: str | Path) -> Cities:
    return city_from_text(Path(path).read_text())
