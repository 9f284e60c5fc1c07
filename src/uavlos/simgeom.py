"""Lightweight geometry-based LoS simulator.

Instead of materializing a whole city, each run builds only what one
link needs: a user near the origin crossroad, a UAV in the first
quadrant, the building boxes the link's ground track enters, and the
roof of each building met.  By first-quadrant symmetry an azimuth in
[0, 90] degrees covers every direction.

The buildings come from :func:`uavlos.citygeom.track_entries`, the
kernel the 3D engine uses too, with the grid treated as unbounded.
With flat rooftops the ray is lowest over a footprint where the track
enters it seen from the user, so one comparison per building decides
it.

A link is the one-key case of the 3D engine's random-number protocol:
each link is a uint64 key (:func:`uavlos.citygeom.run_keys` of its
point's seed gives a point's keys), its placement draws come from fixed
positions of that key's counter-based stream, and each roof it meets
is :func:`uavlos.citygeom.roof_heights` of a city key taken from the
same stream, evaluated only under the UAV and at the track's entries
(see :func:`_draw_links`).  No Generator is built.

:func:`los_counts`, the engine's one decision path, decides the links
of several points that share params, user zone and h_rx together, each
point given as one row of values (:func:`_point_values`) and one uint64
key; :func:`estimate_plos` hands it the row and key of one
:class:`GeomScenario`, and a sweep builds them from its grid without
one.  It decides the links in chunks of
:data:`CHUNK_LINKS` links that fill across point boundaries.  A chunk's
links are decided by :func:`uavlos.citygeom.blocked_links`, the 3D
engine's link decision too, which alone sizes the kernel calls, by
:data:`uavlos.citygeom.CALL_PERIODS` grid periods of the ground track
each call walks: a track longer than 2*NEAR_PERIODS periods is decided
on its first NEAR_PERIODS periods from the user first, and only the
links left clear there are walked on, from that cut to their UAVs
(:func:`_first_blockers`).  The 170-point high-rise heatmap of 200
links per point so takes 3 chunks and 6 kernel calls, not 170.  A
chunk derives the keys of all its links in one
:func:`uavlos.citygeom.stream_bits` call, and frees them, its other
stream rows and its link indices once its links are drawn: while it is
decided it holds each link's user, UAV, rise and city key, an int32
point index, and the ground lengths of the links it stages
(BENCH_30.json has the bytes per link).  Theta, azimuth and altitude
are per-link values of a chunk.  Because a link's draws depend on its
key alone and each stage is exact, the chunking bounds memory and
leaves every count unchanged.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from typing import Literal

import numpy as np

from ._record import record
from .citygeom import (
    BuiltUpParams,
    CityLayout,
    bits_to_uniforms,
    blocked_links,
    building_band,
    derive_layout,
    roof_heights,
    seed_keys,
    stream_bits,
    track_length,
)
from .errors import InvalidAngle, InvalidParams
from .stats import PLosEstimate, PLosEstimates

__all__ = [
    "GeomScenario",
    "USER_ZONES",
    "check_track_length",
    "estimate_plos",
    "los_counts",
]

UserZone = Literal["street", "crossroad", "mixed"]

#: "mixed" draws street or crossroad per link with free-space area weights.
USER_ZONES = ("street", "crossroad", "mixed")

#: Longest ground track, in grid periods, that a scenario may ask for.
#: Kernel calls are sized by track length (citygeom.CALL_PERIODS), so
#: this bound does not limit memory (a 1 000-link urban point at h_uav
#: 100 m and theta 0.1, tracks of 1262 periods, peaks at 32 MB RSS); it
#: limits the work per link, which grows as 1/tan(theta): theta 0.001
#: would list 100 times the boxes of theta 0.1.
MAX_TRACK_PERIODS = 2048


def check_track_length(period: float, theta_deg: float, h_uav: float, h_rx: float) -> None:
    """Refuse a ground track (:func:`uavlos.citygeom.track_length`)
    longer than MAX_TRACK_PERIODS grid periods, or not finite."""
    track = track_length(theta_deg, h_uav, h_rx)
    periods = track / period
    if not periods <= MAX_TRACK_PERIODS:
        raise InvalidAngle(
            f"theta {theta_deg} puts the UAV up to {track:.0f} m "
            f"({periods:.0f} grid periods) from its user; tracks are "
            f"bounded at {MAX_TRACK_PERIODS} periods to bound the work per link"
        )


def _check_range(name: str, rng_: tuple[float, float], lo: float, hi: float) -> None:
    a, b = rng_
    if not (lo <= a < b <= hi):
        raise InvalidParams(f"{name} range must satisfy {lo} <= lo < hi <= {hi}, got {rng_}")


@record
class GeomScenario:
    """One Monte-Carlo scenario for the geometry engine.

    phi_deg and h_uav are either fixed floats or (lo, hi) ranges drawn
    uniformly per run; the defaults sweep the azimuth over the first
    quadrant and the UAV altitude over [0, 500] m.  user_zone "mixed"
    draws the zone per link, street or crossroad in proportion to their
    free area.
    """

    params: BuiltUpParams
    user_zone: UserZone
    theta_deg: float
    phi_deg: float | tuple[float, float] = (0.0, 90.0)
    h_uav: float | tuple[float, float] = (0.0, 500.0)
    h_rx: float = 1.5

    def __post_init__(self):
        if self.user_zone not in USER_ZONES:
            raise InvalidParams(f"unknown user zone {self.user_zone!r}")
        if not 0.0 < self.theta_deg <= 90.0:
            raise InvalidAngle(f"theta must be in (0, 90], got {self.theta_deg}")
        if isinstance(self.phi_deg, tuple):
            _check_range("phi", self.phi_deg, 0.0, 90.0)
        elif not 0.0 <= self.phi_deg <= 90.0:
            raise InvalidAngle(f"phi must be in [0, 90], got {self.phi_deg}")
        if not 0.0 <= self.h_rx < math.inf:
            raise InvalidParams(f"h_rx must be finite and non-negative, got {self.h_rx}")
        if isinstance(self.h_uav, tuple):
            lo, hi = self.h_uav
            if not (0.0 <= lo < hi < math.inf):
                raise InvalidParams(f"bad h_uav range {self.h_uav}")
            if hi <= self.h_rx:
                raise InvalidParams(
                    f"h_uav range {self.h_uav} entirely below h_rx={self.h_rx}"
                )
        elif not self.h_rx < self.h_uav < math.inf:
            raise InvalidParams(
                f"fixed h_uav={self.h_uav} must be finite and exceed h_rx={self.h_rx}"
            )
        check_track_length(self.layout().period, self.theta_deg, self.h_max, self.h_rx)

    @property
    def h_max(self) -> float:
        """The highest UAV altitude the scenario draws."""
        return self.h_uav[1] if isinstance(self.h_uav, tuple) else self.h_uav

    def layout(self) -> CityLayout:
        # The geometry engine treats the grid as unbounded; the nominal
        # one-period extent only satisfies the layout contract.
        return derive_layout(self.params)


#: Placement rounds before a link whose UAV keeps landing inside a
#: building, or at or below its user, is given up.
PLACEMENT_ROUNDS = 100_000

#: Redraw passes (see :func:`_draw_links`): each draws the links still
#: rejected a block of their next rounds, at most _REDRAW_ROUNDS rounds
#: in the first pass and twice as many as the pass before in each later
#: one, and at most _REDRAW_DRAWS link-rounds (at least one round), so
#: a pass's draws stay within a few times its fixed cost of numpy calls
#: whether many links need a few rounds or a few links need many
#: (BENCH_15.json).
_REDRAW_ROUNDS = 8
_REDRAW_DRAWS = 2048


def elevation_tan(theta_deg: float) -> float:
    """tan theta of a point's elevation, infinite at theta 90, so that the
    ground offset of its UAV is zero."""
    return math.inf if theta_deg == 90.0 else math.tan(math.radians(theta_deg))


def azimuth_cos_sin(phi_deg: float) -> tuple[float, float]:
    """The cosine and sine of a point's fixed azimuth."""
    phi = math.radians(phi_deg)
    return np.cos(phi), np.sin(phi)


def _point_values(scenario: GeomScenario) -> tuple[float, ...]:
    """The values of one point that its links' draws share: tan theta
    (:func:`elevation_tan`), the cosine and sine of a fixed azimuth
    (:func:`azimuth_cos_sin`), the azimuth range as (lo, hi - lo), with a
    span of 0 for a fixed azimuth, and the altitude range as (lo, hi - lo),
    a fixed altitude h being (h, 0)."""
    tan = elevation_tan(scenario.theta_deg)
    if isinstance(scenario.phi_deg, tuple):
        lo, hi = scenario.phi_deg
        cos = sin = 0.0
    else:
        cos, sin = azimuth_cos_sin(scenario.phi_deg)
        lo = hi = 0.0
    h_lo, h_hi = scenario.h_uav if isinstance(scenario.h_uav, tuple) else (scenario.h_uav,) * 2
    return tan, cos, sin, lo, hi - lo, h_lo, h_hi - h_lo


def value_rows(tan, h_uav, cos_sin=None) -> np.ndarray:
    """The :func:`_point_values` rows of points at fixed altitudes: point
    i at elevation tangent tan[i] (:func:`elevation_tan`) and altitude
    h_uav[i], at the fixed azimuth whose cosine and sine are row i of
    cos_sin (:func:`azimuth_cos_sin`), or, without cos_sin, at an azimuth
    drawn over the quadrant [0, 90]."""
    rows = np.zeros((len(tan), 7))
    rows[:, 0] = tan
    rows[:, 5] = h_uav
    if cos_sin is None:
        rows[:, 4] = 90.0
    else:
        rows[:, 1:3] = cos_sin
    return rows


#: Stream rows of one placement round, as offsets from the position of
#: its city key: the city key, then the uniforms of user x, user y,
#: azimuth and altitude.
_ROUND_ROWS = 5


def _round_rows(values) -> np.ndarray:
    """Offsets of the stream rows that the links of values (see
    :func:`_point_values`) read in a round: the city key, user x and
    user y always, the azimuth only where a link draws it, and the
    altitude likewise."""
    phi_span, h_span = values[4], values[6]
    return np.array([0, 1, 2] + [3] * bool(np.any(phi_span > 0.0))
                    + [4] * bool(np.any(h_span > 0.0)))


def _uniforms(bits, rows) -> list:
    """The uniforms of user x, user y, azimuth and altitude from the
    stream outputs bits[k] of the rows rows[k] (see :func:`_round_rows`),
    None for a row not drawn."""
    u = dict(zip(rows[1:].tolist(), bits_to_uniforms(bits[1:])))
    return [u.get(k) for k in range(1, _ROUND_ROWS)]


def _place(layout: CityLayout, gamma: float, h_rx: float, street, values, city, u):
    """Placement rounds, element by element: round m draws city key
    city[m] and the uniforms u[0][m] to u[3][m] (user x, user y, azimuth
    and altitude); u[2] and u[3] are None where no round draws them (see
    :func:`_uniforms`).  street and each of values (see
    :func:`_point_values`) are scalars or arrays that broadcast against
    them.

    Returns the rounds' (user x, user y, UAV x, UAV y, UAV z) and whether
    each is rejected: its altitude at or below h_rx, or its UAV over a
    roof of its city at or above it.  The band test and the cell of a
    UAV come from :func:`uavlos.citygeom.building_band` with a reach of
    MAX_TRACK_PERIODS + 2 periods: a UAV above its user lies at most a
    track of MAX_TRACK_PERIODS periods (:func:`check_track_length`) from
    a user inside the first period cell, and the band of a UAV at or
    below its user is not read.
    """
    tan, cos_fixed, sin_fixed, phi_lo, phi_span, h_lo, h_span = values
    p, s, w = layout.period, layout.s, layout.w
    ux = s * u[0]
    if np.ndim(street):
        uy = np.where(street, s + w * u[1], s * u[1])
    else:
        uy = s + w * u[1] if street else s * u[1]
    cos_phi, sin_phi = cos_fixed, sin_fixed
    ranged = phi_span > 0.0
    if np.any(ranged):
        phi = np.radians(phi_lo + phi_span * u[2])
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        if not np.all(ranged):  # fixed and drawn azimuths in one chunk
            cos_phi = np.where(ranged, cos_phi, cos_fixed)
            sin_phi = np.where(ranged, sin_phi, sin_fixed)
    # A fixed altitude h is h + 0*u, which is h.
    vz = np.full(ux.shape, h_lo) if u[3] is None else h_lo + h_span * u[3]
    # Ground offset from the elevation, (vz - h_rx)/tan(theta).
    d = (vz - h_rx) / tan
    vx = ux + d * cos_phi
    vy = uy + d * sin_phi
    rejected = vz <= h_rx
    reach = (MAX_TRACK_PERIODS + 2) * p
    ix, x_built = building_band(vx, p, s, reach)
    iy, y_built = building_band(vy, p, s, reach)
    x_built &= y_built
    x_built &= ~rejected
    over = np.flatnonzero(x_built)
    ix, iy = ix.take(over).astype(np.int64), iy.take(over).astype(np.int64)
    ix += 1
    iy += 1
    rejected.put(over, roof_heights(city.take(over), ix, iy, gamma) >= vz.take(over))
    return (ux, uy, vx, vy, vz), rejected


def _draw_links(
    layout: CityLayout, gamma: float, zone: str, h_rx: float, values: np.ndarray,
    keys: np.ndarray, point: np.ndarray, h_uav: Sequence,
):
    """Draw the links of keys up to their ground tracks, UAVs in free air.

    The links' points share the grid of layout, roof scale gamma, user
    zone and user height h_rx.  Link n belongs to point point[n], whose
    :func:`_point_values` are values[point[n]] and whose altitude, as a
    failure names it, is h_uav[point[n]], and draws from fixed positions
    of the counter-based stream of its key keys[n]
    (:func:`uavlos.citygeom.stream_bits`):

    * position 0, as a uniform, picks the zone for "mixed": street when
      below the street share of free area;
    * position 1 + 5r, as 64 bits, is the key of round r's city;
    * positions 2 + 5r to 5 + 5r, as uniforms, are round r's user x,
      user y, azimuth and altitude, each used only when its point
      draws it.

    Crossroad users fill the square [0, s]^2; street users fill the
    north-south street segment right of it (x in [0, s], y in
    [s, s + w]), which by the grid's diagonal symmetry stands for both
    street orientations when the azimuth is drawn uniformly.

    Round r is a pure function of (keys[n], r) and the link's point.
    Every round is a fresh city: a round whose altitude is at or below
    the user, or whose UAV hovers over a roof of its city
    (:func:`roof_heights`) at or above it, is rejected, and the link
    takes round r + 1, zone kept.  The accepted round conditions only
    the roof under its UAV.

    Because rounds are pure, they are drawn in passes rather than one
    at a time, which changes no bit: a first pass draws round 0 of every
    link as the rows of one stream call, one row per stream position;
    each later pass draws the links still rejected a block of their next
    rounds (see _REDRAW_ROUNDS), and each link keeps its first accepted
    round.  A pass hashes only the positions its links read: position 0
    for "mixed" only, the azimuth of a round only where some link of
    the pass draws its azimuth, and the altitude likewise
    (:func:`_round_rows`).  So a round of fixed azimuth and altitude
    hashes three positions, not five.  Of the 3 chunks of the 170-point
    high-rise heatmap at seed 1, one takes two passes and two three,
    where a round at a time took up to six.  A link still rejected
    after PLACEMENT_ROUNDS rounds fails the chunk (InvalidParams),
    naming the point of the first such link.

    Returns arrays (user x, user y, UAV x, UAV y, UAV z, city key) of
    each link's accepted round.
    """
    # A value reaches the links as one scalar when the chunk's points share
    # it, else as one value per link.
    shared = (values == values[0]).all(axis=0)
    values = [float(v[0]) if same else v.take(point) for v, same in zip(values.T, shared)]
    # Round 0 of every link, position-major: the rows are the stream
    # positions, so each draw reads a contiguous row.
    rows = _round_rows(values)
    positions = 1 + rows
    if zone == "mixed":
        positions = np.concatenate(([0], positions))
    bits = stream_bits(keys, positions[:, None])
    if zone == "mixed":
        # Free space splits into two street rectangles (s*w each) and one
        # crossroad square (s*s) per period cell.
        street = bits_to_uniforms(bits[0]) < 2.0 * layout.w / (layout.s + 2.0 * layout.w)
        bits = bits[1:]
    else:
        street = zone == "street"
    # A copy, so that no view holds the round-0 block past the placement.
    city = bits[0].copy()
    placed, rejected = _place(layout, gamma, h_rx, street, values, city, _uniforms(bits, rows))
    pending = np.flatnonzero(rejected)
    r, most = 1, _REDRAW_ROUNDS
    while pending.size and r < PLACEMENT_ROUNDS:
        rounds = min(max(_REDRAW_DRAWS // pending.size, 1), most, PLACEMENT_ROUNDS - r)
        kept = [v[pending, None] if np.ndim(v) else v for v in (street, *values)]
        # Rounds r to r + rounds - 1 of every pending link, as (position,
        # link, round) blocks.
        rows = _round_rows(kept[1:])
        counter = 1 + _ROUND_ROWS * (r + np.arange(rounds)) + rows[:, None, None]
        bits = stream_bits(keys[pending, None], counter)
        drawn, rejected = _place(
            layout, gamma, h_rx, kept[0], kept[1:], bits[0], _uniforms(bits, rows)
        )
        # Each link's first accepted round, or its last round if none is.
        accepted = ~rejected
        done = accepted.any(axis=1)
        pick = np.arange(pending.size), np.where(done, accepted.argmax(axis=1), rounds - 1)
        for out, v in zip((*placed, city), (*drawn, bits[0])):
            out[pending] = v[pick]
        pending = pending.take(np.flatnonzero(~done))
        r += rounds
        most *= 2
    if pending.size:
        # Name the point of the first link given up.
        low = pending[placed[4][pending] <= h_rx]
        if low.size:
            raise InvalidParams(f"h_uav range {h_uav[point[low[0]]]} never exceeds h_rx={h_rx}")
        raise InvalidParams(f"no free-air UAV placement found at h_uav={h_uav[point[pending[0]]]}")
    return (*placed, city)


def _first_blockers(
    layout: CityLayout, gamma: float, zone: str, h_rx: float, values: np.ndarray,
    keys: np.ndarray, point: np.ndarray, h_uav: Sequence,
) -> np.ndarray:
    """Decide the links of keys, drawn as :func:`_draw_links` draws them
    from the same arguments; returns how many links of each point (each
    row of values) are NLoS.

    A link is NLoS when a roof of its accepted city reaches the ray
    height where its ground track enters that roof's building (ties
    block).  The roof under the UAV is looked up like every other, so
    it is the one the placement conditioned.

    The links go to :func:`uavlos.citygeom.blocked_links`, the 3D
    engine's link decision too, with their roofs looked up in their
    accepted cities; it sizes the kernel calls.  A link whose track is
    longer than 2*NEAR_PERIODS periods is decided on its first
    NEAR_PERIODS periods from the user first, and the links left clear
    there are walked from that cut to their UAVs.  Low links are mostly
    blocked near their users: on urban at theta 5 and 10, 92 to 94% of
    the blocked links are blocked within two periods of theirs, so the
    second stage takes few links.
    """
    ux, uy, vx, vy, rise, city = _draw_links(
        layout, gamma, zone, h_rx, values, keys, point, h_uav
    )
    # The keys are not read again; los_counts passes them as a temporary,
    # so this frees them before the decision (on CPython 3.11 and later;
    # 3.10 holds a call's arguments until it returns).
    del keys
    rise -= h_rx
    # Each track's ground length, the offset (vz - h_rx)/tan(theta) that
    # placed its UAV (:func:`_place`), 0 overhead, goes as a temporary
    # too: blocked_links keeps it only at the links it stages.
    nlos = blocked_links(
        layout, ux, uy, vx, vy, rise / values[:, 0].take(point), h_rx, rise,
        lambda link, ix, iy: roof_heights(city.take(link), ix, iy, gamma),
    )
    return np.bincount(point.take(np.flatnonzero(nlos)), minlength=len(values))


#: Links of the points of one :func:`los_counts` call that are drawn
#: and decided together, across point boundaries.  A chunk pays about
#: 0.5 ms of numpy calls whatever its size (placement passes, key
#: derivation, staging), and holds memory in proportion to its links
#: while it is decided; its kernel calls are sized by
#: :func:`uavlos.citygeom.blocked_links` alone, by track length.  This
#: size keeps the heatmap's traced peak under the bound its test allows
#: (BENCH_30.json has the peak at each size).
CHUNK_LINKS = 12288


def los_counts(
    layout: CityLayout, gamma: float, zone: str, h_rx: float, values: np.ndarray,
    point_keys: np.ndarray, n_runs: int, h_uav: Sequence,
) -> tuple[np.ndarray, np.ndarray]:
    """LoS counts of several points over independent links, n_runs links
    per point, decided together: the array core of the geometry engine.

    The points share the grid of layout, roof scale gamma, user zone and
    user height h_rx.  Point q has the :func:`_point_values` row
    values[q], the uint64 key point_keys[q] (:func:`uavlos.citygeom.seed_keys`
    of its seed) and the altitude h_uav[q], read only to name a point
    whose placement fails.  Link i of point q is position i of the stream
    of its key, ``run_keys(seed, n_runs)[i]`` for its seed
    (:func:`uavlos.citygeom.run_keys`), drawn as :func:`_draw_links`
    describes.  Link j of the call is run j % n_runs of point j // n_runs,
    and the links are decided in chunks of CHUNK_LINKS consecutive links,
    across point boundaries, each chunk deriving the keys of its links in
    one :func:`uavlos.citygeom.stream_bits` call and deciding its long
    tracks near their users first (:func:`_first_blockers`).  That bounds
    memory and leaves every count unchanged: a link's draws depend on its
    key alone, and a link blocked near its user is blocked on its whole
    track, so each count is that of its point alone.

    Returns each point's LoS count and its share in seconds of each
    chunk's wall time, in proportion to its links in that chunk, so the
    shares sum to the time spent deciding the chunks.
    """
    nlos = np.zeros(len(values), dtype=np.int64)
    seconds = np.zeros(len(values))
    total = len(values) * n_runs
    clock = time.perf_counter()
    for start in range(0, total, CHUNK_LINKS):
        stop = min(start + CHUNK_LINKS, total)
        points = slice(start // n_runs, (stop - 1) // n_runs + 1)
        point = np.subtract(np.arange(start, stop) // n_runs, points.start, dtype=np.int32)
        # Run i of point q is position i of the stream of q's key, as in
        # run_keys.  The keys go as a temporary, which _first_blockers
        # frees once the links are drawn, so that point is the one array
        # of this frame that a chunk's decision holds.
        nlos[points] += _first_blockers(
            layout, gamma, zone, h_rx, values[points],
            stream_bits(point_keys[points].take(point), np.arange(start, stop) % n_runs),
            point, h_uav[points],
        )
        now = time.perf_counter()
        seconds[points] += (now - clock) * np.bincount(point) / point.size
        clock = now
    return n_runs - nlos, seconds


def estimate_plos(scenario: GeomScenario, n_runs: int, seed: int) -> PLosEstimate:
    """Monte-Carlo P_LoS estimate of one scenario over n_runs independent
    links, link i being the uint64 key ``run_keys(seed, n_runs)[i]``
    (:func:`uavlos.citygeom.run_keys`): the one-point case of
    :func:`los_counts`, with the scenario's :func:`_point_values` row."""
    if n_runs < 1:
        raise InvalidParams(f"need at least one run, got {n_runs}")
    los, _ = los_counts(
        scenario.layout(), scenario.params.gamma, scenario.user_zone, scenario.h_rx,
        np.array([_point_values(scenario)]), seed_keys([seed]), n_runs, [scenario.h_uav],
    )
    return PLosEstimates.from_counts(los, n_runs)[0]
