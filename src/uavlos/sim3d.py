"""Full 3D city simulator with simplified ray tracing.

A :class:`City` materializes one Rayleigh height per building cell of
the grid described in :mod:`uavlos.citygeom`.  Line-of-sight between a
transmitter and its receivers is decided from the ground track of each
link: :func:`uavlos.citygeom.track_entries` lists every closed building
box the track meets and the point where it enters the box seen from the
receiver, and the link is blocked when a roof reaches the ray height
there.  Flat rooftops make this edge test exact, which
:func:`check_los_dense` verifies by brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .citygeom import (
    Building,
    BuiltUpParams,
    CityLayout,
    LinkGeometry,
    Node,
    classify_point,
    derive_layout,
    sample_heights,
    track_entries,
)
from .errors import (
    DegenerateCircle,
    DegenerateLink,
    EndpointInsideBuilding,
    InvalidAngle,
    InvalidParams,
    NoSuchCell,
    OutOfExtent,
    ParseError,
)

__all__ = [
    "City",
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
    "roof_under",
    "first_blockers",
    "check_los_edges",
    "check_los_dense",
    "user_directions",
    "place_users",
    "place_users_circle",
    "place_uav",
    "city_to_text",
    "city_from_text",
    "save_city",
    "load_city",
]


@dataclass(frozen=True, eq=False)
class City:
    """A materialized city: layout plus one roof height per building cell.

    ``heights[ix, iy]`` (0-based) is the roof of the 1-based building
    cell (ix+1, iy+1).  Exactly floor(extent/period) cells per axis are
    materialized; the fringe strip beyond the last full period holds no
    buildings.  Regenerating from the same (params, extent, seed)
    reproduces the heights bit for bit.
    """

    params: BuiltUpParams
    layout: CityLayout
    heights: np.ndarray
    seed: int


@dataclass(frozen=True)
class Blocker:
    """Obstructing building cell (1-based) and the ground distance of
    its obstruction point from the transmitter."""

    ix: int
    iy: int
    r_op: float


@dataclass(frozen=True)
class LoSOutcome:
    """LoS/NLoS state; NLoS carries the blocking building."""

    is_los: bool
    blocker: Blocker | None = None

    def __post_init__(self):
        if self.is_los and self.blocker is not None:
            raise InvalidParams("LoS outcome cannot carry a blocker")
        if not self.is_los and self.blocker is None:
            raise InvalidParams("NLoS outcome requires a blocker")

    @classmethod
    def los(cls) -> "LoSOutcome":
        return cls(is_los=True)

    @classmethod
    def nlos(cls, blocker: Blocker) -> "LoSOutcome":
        return cls(is_los=False, blocker=blocker)


@dataclass(frozen=True)
class FixedPoint:
    node: Node


@dataclass(frozen=True)
class RandomOverCity:
    h: float


@dataclass(frozen=True)
class BuildingTop:
    h: float


@dataclass(frozen=True)
class CrossroadCenter:
    h: float


@dataclass(frozen=True)
class StreetCenter:
    h: float


UavPlacementPolicy = FixedPoint | RandomOverCity | BuildingTop | CrossroadCenter | StreetCenter


def generate_city(
    params: BuiltUpParams, extent_x: float, extent_y: float, seed: int
) -> City:
    """Materialize a city with independent Rayleigh(gamma) roof heights.

    Heights are drawn in one fixed row-major pass from a stream seeded
    by ``seed``, so every (params, extent, seed) triple reproduces the
    same array bit for bit.
    """
    layout = derive_layout(params, extent_x, extent_y)
    nx = int(layout.extent_x // layout.period)
    ny = int(layout.extent_y // layout.period)
    rng = np.random.default_rng(int(seed))
    heights = sample_heights(params.gamma, rng, (nx, ny))
    heights.setflags(write=False)
    return City(params=params, layout=layout, heights=heights, seed=int(seed))


def ray_height_at(link: LinkGeometry, r_op: float) -> float:
    """Height of the straight tx-rx ray above the ground point at
    distance r_op from the transmitter along the ground projection."""
    if link.r_rx == 0.0:
        raise DegenerateLink("vertical link has no ground parametrization")
    if not 0.0 <= r_op <= link.r_rx:
        raise InvalidParams(f"r_op must be in [0, {link.r_rx}], got {r_op}")
    return link.tx.z - r_op * (link.tx.z - link.rx.z) / link.r_rx


def _require_in_extent(layout: CityLayout, node: Node, label: str) -> None:
    if not (0.0 <= node.x <= layout.extent_x and 0.0 <= node.y <= layout.extent_y):
        raise OutOfExtent(
            f"{label} ({node.x}, {node.y}) outside extent "
            f"{layout.extent_x} x {layout.extent_y}"
        )


def roof_under(city: City, x: float, y: float) -> tuple[int, int, float] | None:
    """The materialized building cell under a ground point and its roof.

    Returns (ix, iy, roof) with 1-based indices, or None over streets,
    crossroads and the unbuilt fringe of the extent.
    """
    cell = classify_point(x, y, city.layout)
    if isinstance(cell, Building):
        nx, ny = city.heights.shape
        if cell.ix <= nx and cell.iy <= ny:
            return cell.ix, cell.iy, city.heights[cell.ix - 1, cell.iy - 1]
    return None


def _reject_inside_building(city: City, node: Node, label: str) -> None:
    # Positions with z strictly greater than the rooftop are valid; z at or
    # below the rooftop inside a footprint is rejected.
    under = roof_under(city, node.x, node.y)
    if under is not None and node.z <= under[2]:
        raise EndpointInsideBuilding(
            f"{label} at height {node.z} inside building {under[:2]} with roof {under[2]}"
        )


#: Added to each link's cut (see :func:`first_blockers`) so that the ray,
#: computed as in the roof test, clears the tallest roof at the cut.
_CUT_SLACK = 1e-9


def first_blockers(cities, txs, run, rx_x, rx_y, h_rx: float):
    """Decide the links of several cities in one ground-track kernel call.

    Link n runs from the receiver at (rx_x[n], rx_y[n], h_rx) to the
    transmitter txs[run[n]] in the city cities[run[n]]; run is
    non-decreasing, so the links of one city are contiguous.  The
    cities share one layout, hence one grid shape.  A building blocks a
    link when its roof reaches the ray height where the ground track
    enters its closed box seen from the receiver (a roof exactly at ray
    height blocks); cells beyond the materialized grid are open space.
    Endpoints are not validated.

    Each track is cut where the ray rises above its city's tallest roof:
    at t_max = (max roof - h_rx) / (tx.z - h_rx) plus _CUT_SLACK, at most
    1, and kept only where the ray height there, computed as in the roof
    test, exceeds that roof.  The ray height only grows with t, so no box
    entered beyond the cut can block, and the cut changes no outcome.
    Where tx.z <= h_rx the track is not cut.

    Returns arrays (link, ix, iy, t) for the blocked links only, one
    entry each: the blocking cell nearest the transmitter and the
    fraction t of the track from the receiver to its entry point.
    """
    run = np.asarray(run, dtype=np.int64)
    tx_x, tx_y, tx_z = np.array([(tx.x, tx.y, tx.z) for tx in txs]).T
    top = np.array([city.heights.max() for city in cities])
    rise = tx_z - h_rx
    cut = (top - h_rx) / np.where(rise > 0.0, rise, 1.0) + _CUT_SLACK
    cut = np.where((rise > 0.0) & (h_rx + cut * rise > top), np.minimum(cut, 1.0), 1.0)
    link, ix, iy, t = track_entries(
        cities[0].layout, rx_x, rx_y, tx_x[run], tx_y[run], cut[run]
    )
    nx, ny = cities[0].heights.shape
    built = (ix >= 1) & (ix <= nx) & (iy >= 1) & (iy <= ny)
    link, ix, iy, t = link[built], ix[built], iy[built], t[built]
    city_of = run[link]
    cell = (ix - 1) * ny + (iy - 1)
    roof = np.empty(t.size)
    # Entries are ordered by link, so each city's entries are contiguous.
    bounds = np.searchsorted(city_of, np.arange(len(cities) + 1))
    for city, a, b in zip(cities, bounds[:-1], bounds[1:]):
        roof[a:b] = city.heights.ravel()[cell[a:b]]
    blocked = roof >= h_rx + t * rise[city_of]
    link, ix, iy, t = link[blocked], ix[blocked], iy[blocked], t[blocked]
    # Entries come nearest the transmitter first within each link.
    first = np.ones(link.size, dtype=bool)
    first[1:] = link[1:] != link[:-1]
    return link[first], ix[first], iy[first], t[first]


def check_los_edges(city: City, link: LinkGeometry) -> LoSOutcome:
    """Decide LoS by evaluating the ray at footprint entry edges.

    For every closed building box the ground track meets, the ray
    height where the track enters the box seen from the receiver is
    compared with the roof (a roof exactly at ray height blocks).  This
    is :func:`first_blockers` for one link, after validating both
    endpoints; a vertical link is a zero-length track.  Returns the
    blocker with the smallest r_op.
    """
    _require_in_extent(city.layout, link.tx, "transmitter")
    _require_in_extent(city.layout, link.rx, "receiver")
    _reject_inside_building(city, link.tx, "transmitter")
    _reject_inside_building(city, link.rx, "receiver")

    _, ix, iy, t = first_blockers([city], [link.tx], [0], [link.rx.x], [link.rx.y], link.rx.z)
    if t.size == 0:
        return LoSOutcome.los()
    return LoSOutcome.nlos(Blocker(int(ix[0]), int(iy[0]), float((1.0 - t[0]) * link.r_rx)))


def check_los_dense(city: City, link: LinkGeometry, step: float = 0.1) -> LoSOutcome:
    """Brute-force LoS oracle sampling the ray along the ground track.

    Samples every ``step`` metres plus every band-boundary crossing and
    both endpoints, and tests each sample against the closed building
    box it may touch (boundary contact counts, matching the edge
    check's tie rule); a vertical link has the receiver as its one
    sample.  Independent of the ground-track kernel behind
    :func:`check_los_edges`; with flat rooftops the two agree exactly.
    """
    layout = city.layout
    p, s = layout.period, layout.s
    if not 0.0 < step <= s / 10.0:
        raise InvalidParams(f"step must be in (0, s/10 = {s / 10.0}], got {step}")
    _require_in_extent(layout, link.tx, "transmitter")
    _require_in_extent(layout, link.rx, "receiver")
    _reject_inside_building(city, link.tx, "transmitter")
    _reject_inside_building(city, link.rx, "receiver")

    x0, y0 = link.tx.x, link.tx.y
    dx = link.rx.x - x0
    dy = link.rx.y - y0
    r_rx = link.r_rx

    # Boundary crossings enumerated by direct line scan (kept separate from
    # the ground-track kernel so the oracle does not share its logic).
    crossing_ts = []
    for c0, dc in ((x0, dx), (y0, dy)):
        if dc == 0.0:
            continue
        lo, hi = (c0, c0 + dc) if dc > 0.0 else (c0 + dc, c0)
        for k in range(math.floor(lo / p), math.floor(hi / p) + 2):
            for c in (k * p, k * p + s):
                if lo <= c <= hi:
                    t = (c - c0) / dc
                    if 0.0 <= t <= 1.0:
                        crossing_ts.append(t)

    ts = np.concatenate(
        [
            np.arange(0.0, r_rx, step) / r_rx,
            np.asarray(crossing_ts, dtype=float),
            [1.0],
        ]
    )
    ts.sort()
    xs = x0 + dx * ts
    ys = y0 + dy * ts

    # Closed-box membership: box (i, j) covers [i*p + s, (i+1)*p] on each axis.
    nx, ny = city.heights.shape
    i = np.floor((xs - s) / p).astype(np.int64)
    j = np.floor((ys - s) / p).astype(np.int64)
    inside = (
        (xs <= (i + 1) * p)
        & (ys <= (j + 1) * p)
        & (i >= 0)
        & (i < nx)
        & (j >= 0)
        & (j < ny)
    )
    roofs = city.heights[np.clip(i, 0, nx - 1), np.clip(j, 0, ny - 1)]
    rays = link.tx.z - ts * (link.tx.z - link.rx.z)
    blocked = inside & (roofs >= rays)
    if not blocked.any():
        return LoSOutcome.los()
    first = int(np.argmax(blocked))
    return LoSOutcome.nlos(
        Blocker(int(i[first]) + 1, int(j[first]) + 1, float(ts[first] * r_rx))
    )


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


def place_users(layout: CityLayout, uavs, theta_deg: float, directions, h_rx: float = 1.5):
    """Ground positions of the users that see each UAV at elevation theta.

    The users of a UAV stand along the given directions (see
    :func:`user_directions`) at ground distance d = (uav.z -
    h_rx)/tan(theta) from its ground point, d = 0 at theta = 90.
    Positions outside the extent or inside a building footprint are
    dropped.

    Returns arrays (run, x, y) of the kept positions: the index in uavs
    of the UAV each user sees and its ground position, ordered by UAV,
    then by direction.
    """
    cos, sin = directions
    ux, uy, uz = np.array([(u.x, u.y, u.z) for u in uavs]).T
    if theta_deg == 90.0:
        d = np.zeros(ux.size)
    else:
        d = (uz - h_rx) / math.tan(math.radians(theta_deg))
    x = ux[:, None] + d[:, None] * cos
    y = uy[:, None] + d[:, None] * sin
    p, s = layout.period, layout.s
    kept = (
        (0.0 <= x) & (x <= layout.extent_x) & (0.0 <= y) & (y <= layout.extent_y)
        & ((x % p < s) | (y % p < s))
    )
    return np.nonzero(kept)[0], x[kept], y[kept]


def place_users_circle(
    city: City, uav: Node, theta_deg: float, n: int, h_rx: float = 1.5
) -> list[Node]:
    """Users on the ground circle where the UAV is seen at elevation theta.

    n azimuths are spaced uniformly starting at 0 degrees; positions
    outside the extent or inside a building footprint are dropped, so
    fewer than n users may come back (see :func:`place_users`).
    """
    if n < 1:
        raise InvalidParams(f"need at least one user, got n={n}")
    if not 0.0 < theta_deg < 90.0:
        raise InvalidAngle(f"theta must be in (0, 90) for a circle, got {theta_deg}")
    if uav.z < h_rx:
        raise InvalidParams(f"UAV height {uav.z} below user height {h_rx}")
    if uav.z == h_rx:
        raise DegenerateCircle(f"zero-radius circle (uav.z = h_rx = {h_rx})")
    _, x, y = place_users(city.layout, [uav], theta_deg, user_directions(theta_deg, n), h_rx)
    return [Node(xi, yi, h_rx) for xi, yi in zip(x.tolist(), y.tolist())]


def _count_from(first: float, limit: float, p: float) -> int:
    if limit < first:
        return 0
    return int((limit - first) // p) + 1


#: Draws RandomOverCity may take to put the UAV in free air.
UAV_PLACEMENT_TRIES = 1000


def place_uav(city: City, policy: UavPlacementPolicy, rng: np.random.Generator) -> Node:
    """Draw a UAV position according to a placement policy.

    Centers are drawn uniformly over the cells of the requested kind
    inside the extent; RandomOverCity draws (x, y) uniformly over the
    whole extent and redraws, up to UAV_PLACEMENT_TRIES times, until
    the UAV is above any roof under it.  The policy height must be
    positive, and BuildingTop only considers cells whose roof lies
    below it.
    """
    layout = city.layout
    p, s, w = layout.period, layout.s, layout.w
    ex, ey = layout.extent_x, layout.extent_y

    if isinstance(policy, FixedPoint):
        return policy.node

    if policy.h <= 0.0:
        raise InvalidParams(f"policy height must be positive, got {policy.h}")

    if isinstance(policy, RandomOverCity):
        for _ in range(UAV_PLACEMENT_TRIES):
            uav = Node(rng.uniform(0.0, ex), rng.uniform(0.0, ey), policy.h)
            under = roof_under(city, uav.x, uav.y)
            if under is None or under[2] < uav.z:
                return uav
        raise InvalidParams(
            f"could not place a UAV at {policy.h} m clear of rooftops "
            f"after {UAV_PLACEMENT_TRIES} tries"
        )

    if isinstance(policy, BuildingTop):
        eligible = np.argwhere(city.heights < policy.h)
        if len(eligible) == 0:
            raise NoSuchCell(
                f"no building cell with roof below {policy.h} in the extent"
            )
        ix, iy = eligible[rng.integers(len(eligible))]
        return Node(ix * p + s + w / 2.0, iy * p + s + w / 2.0, policy.h)

    if isinstance(policy, CrossroadCenter):
        ncx = _count_from(s / 2.0, ex, p)
        ncy = _count_from(s / 2.0, ey, p)
        if ncx == 0 or ncy == 0:
            raise NoSuchCell("no crossroad center in the extent")
        i = int(rng.integers(ncx))
        j = int(rng.integers(ncy))
        return Node(i * p + s / 2.0, j * p + s / 2.0, policy.h)

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
        idx = int(rng.integers(total))
        if idx < nax * nay:
            i, j = divmod(idx, nay)
            return Node(i * p + s + w / 2.0, j * p + s / 2.0, policy.h)
        idx -= nax * nay
        i, j = divmod(idx, nby)
        return Node(i * p + s / 2.0, j * p + s + w / 2.0, policy.h)

    raise InvalidParams(f"unknown placement policy {policy!r}")


def city_to_text(city: City) -> str:
    """Serialize a city to the flat text format (header, then one
    'ix iy height' line per building, full repr precision)."""
    pr = city.params
    lines = [
        f"# city alpha={pr.alpha!r} beta={pr.beta!r} gamma={pr.gamma!r} "
        f"extent_x={city.layout.extent_x!r} extent_y={city.layout.extent_y!r} "
        f"seed={city.seed}"
    ]
    nx, ny = city.heights.shape
    for ix in range(nx):
        for iy in range(ny):
            lines.append(f"{ix + 1} {iy + 1} {float(city.heights[ix, iy])!r}")
    return "\n".join(lines) + "\n"


def city_from_text(text: str) -> City:
    """Parse the flat text format back into a City (bit-for-bit)."""
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
        seed = int(fields["seed"])
    except (KeyError, ValueError, InvalidParams) as exc:
        raise ParseError(f"bad header: {exc}", 1) from exc
    layout = derive_layout(params, extent_x, extent_y)
    nx = int(layout.extent_x // layout.period)
    ny = int(layout.extent_y // layout.period)
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
    return City(params=params, layout=layout, heights=heights, seed=seed)


def save_city(city: City, path: str | Path) -> None:
    Path(path).write_text(city_to_text(city))


def load_city(path: str | Path) -> City:
    return city_from_text(Path(path).read_text())
