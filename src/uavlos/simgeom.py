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

:func:`estimate_points` decides the links of several points (scenarios
that share params, user zone and h_rx) together, in chunks of
:data:`CHUNK_PERIODS` grid periods of ground track per kernel call:
each link counts as its point's longest track plus one
(:func:`uavlos.citygeom.tracks_per_call`), and a chunk fills across
point boundaries, so a 170-point heatmap of 200 short links per point
takes 25 kernel calls, not 170, while a chunk of long tracks holds few
links.  Theta, azimuth and altitude are per-link values of a chunk.
Because a link's draws depend on its key alone, the chunking bounds
memory and leaves every estimate unchanged; :func:`estimate_plos` is
its one-point case.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .citygeom import (
    BuiltUpParams,
    CityLayout,
    bits_to_uniforms,
    derive_layout,
    roof_heights,
    run_keys,
    stream_bits,
    stream_uniforms,
    track_entries,
    track_length,
    tracks_per_call,
)
from .errors import InvalidAngle, InvalidParams
from .stats import PLosEstimate

__all__ = [
    "GeomScenario",
    "USER_ZONES",
    "CHUNK_PERIODS",
    "check_track_length",
    "estimate_plos",
    "estimate_points",
]

UserZone = Literal["street", "crossroad", "mixed"]

#: "mixed" draws street or crossroad per link with free-space area weights.
USER_ZONES = ("street", "crossroad", "mixed")

#: Ground-track length, in grid periods, that one chunk of
#: :func:`estimate_points` takes, each link counting as its point's
#: longest track plus one (:func:`uavlos.citygeom.tracks_per_call`): one
#: set of array draws per placement round and one ground-track kernel
#: call each.  A call costs about 0.2 ms of numpy overhead whatever its
#: size, so a chunk of short tracks holds thousands of links (2 704 on
#: urban at h_uav 100 m and theta 60, 6 144 at theta 90), from as many
#: points as fit; the kernel lists at most about three entries per period
#: of budget, so the budget also bounds a chunk's working set at every
#: theta.
CHUNK_PERIODS = 6144


#: Longest ground track, in grid periods, that a scenario may ask for.
#: Chunks are sized by track length, so this bound no longer limits
#: memory (a 1 000-link urban point at h_uav 100 m and theta 0.1, tracks
#: of 1262 periods, peaks at 36 MB RSS, against 85 MB with a fixed 256
#: links per chunk); it limits the work per link, which grows as
#: 1/tan(theta): theta 0.001 would list 100 times the boxes of theta 0.1.
MAX_TRACK_PERIODS = 2048


def check_track_length(period: float, theta_deg: float, h_uav: float, h_rx: float) -> None:
    """Refuse a ground track (:func:`uavlos.citygeom.track_length`)
    longer than MAX_TRACK_PERIODS grid periods."""
    track = track_length(theta_deg, h_uav, h_rx)
    periods = track / period
    if periods > MAX_TRACK_PERIODS:
        raise InvalidAngle(
            f"theta {theta_deg} puts the UAV up to {track:.0f} m "
            f"({periods:.0f} grid periods) from its user; the geometry "
            f"engine bounds tracks at {MAX_TRACK_PERIODS} periods to bound the work per link"
        )


def _check_range(name: str, rng_: tuple[float, float], lo: float, hi: float) -> None:
    a, b = rng_
    if not (lo <= a < b <= hi):
        raise InvalidParams(f"{name} range must satisfy {lo} <= lo < hi <= {hi}, got {rng_}")


@dataclass(frozen=True)
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
#: building, or at or below its user, is given up; each round redraws
#: every such link once.
PLACEMENT_ROUNDS = 100_000


def _point_values(scenario: GeomScenario) -> tuple[float, ...]:
    """The values of one point that its links' draws share: tan theta
    (infinite at theta 90, so the ground offset is zero), the cosine and
    sine of a fixed azimuth, the azimuth range as (lo, hi - lo), with a
    span of 0 for a fixed azimuth, and the altitude range as (lo, hi - lo),
    a fixed altitude h being (h, 0)."""
    theta = scenario.theta_deg
    tan = math.inf if theta == 90.0 else math.tan(math.radians(theta))
    if isinstance(scenario.phi_deg, tuple):
        lo, hi = scenario.phi_deg
        cos = sin = 0.0
    else:
        phi = math.radians(scenario.phi_deg)
        cos, sin = np.cos(phi), np.sin(phi)
        lo = hi = 0.0
    h_lo, h_hi = scenario.h_uav if isinstance(scenario.h_uav, tuple) else (scenario.h_uav,) * 2
    return tan, cos, sin, lo, hi - lo, h_lo, h_hi - h_lo


def _draw_links(
    scenarios: Sequence[GeomScenario], layout: CityLayout, keys: np.ndarray, point: np.ndarray
):
    """Draw the links of keys up to their ground tracks, UAVs in free air.

    Link n belongs to scenarios[point[n]] and draws from fixed positions
    of the counter-based stream of its key keys[n]
    (:func:`uavlos.citygeom.stream_bits`):

    * position 0, as a uniform, picks the zone for "mixed": street when
      below the street share of free area;
    * position 1 + 5r, as 64 bits, is the key of round r's city;
    * positions 2 + 5r to 5 + 5r, as uniforms, are round r's user x,
      user y, azimuth and altitude, each used only when its scenario
      draws it.

    Crossroad users fill the square [0, s]^2; street users fill the
    north-south street segment right of it (x in [0, s], y in
    [s, s + w]), which by the grid's diagonal symmetry stands for both
    street orientations when the azimuth is drawn uniformly.

    Round r is a pure function of (keys[n], r) and the link's scenario.
    Every round is a fresh city: a round whose altitude is at or below
    the user, or whose UAV hovers over a roof of its city
    (:func:`roof_heights`) at or above it, is rejected, and the link
    draws round r + 1, zone kept.  The accepted round conditions only
    the roof under its UAV.  The scenarios share params, user zone and
    h_rx.

    Returns arrays (user x, user y, UAV x, UAV y, UAV z, city key) of
    each link's accepted round.
    """
    n = keys.size
    zone, h_rx = scenarios[0].user_zone, scenarios[0].h_rx
    if zone == "mixed":
        # Free space splits into two street rectangles (s*w each) and one
        # crossroad square (s*s) per period cell.
        w_street = 2.0 * layout.w / (layout.s + 2.0 * layout.w)
        street = stream_uniforms(keys, 0) < w_street
    else:
        street = np.full(n, zone == "street")
    # A value reaches the links as one scalar when the chunk's points share
    # it, else as one value per pending link.
    values = [
        v[0] if len(set(v)) == 1 else np.array(v)[point]
        for v in zip(*(_point_values(scenario) for scenario in scenarios))
    ]
    p, s, w = layout.period, layout.s, layout.w
    placed = np.empty((5, n))
    city = np.empty(n, dtype=np.uint64)
    pending = np.arange(n)
    for r in range(PLACEMENT_ROUNDS):
        tan, cos_fixed, sin_fixed, phi_lo, phi_span, h_lo, h_span = values
        bits = stream_bits(keys[pending, None], 1 + 5 * r + np.arange(5))
        c = bits[:, 0]
        u = bits_to_uniforms(bits[:, 1:])
        ux = s * u[:, 0]
        uy = np.where(street[pending], s + w * u[:, 1], s * u[:, 1])
        cos_phi, sin_phi = cos_fixed, sin_fixed
        ranged = phi_span > 0.0
        if np.any(ranged):
            phi = np.radians(phi_lo + phi_span * u[:, 2])
            cos_phi, sin_phi = np.cos(phi), np.sin(phi)
            if not np.all(ranged):  # fixed and drawn azimuths in one chunk
                cos_phi = np.where(ranged, cos_phi, cos_fixed)
                sin_phi = np.where(ranged, sin_phi, sin_fixed)
        vz = h_lo + h_span * u[:, 3]
        # Ground offset from the elevation, (vz - h_rx)/tan(theta).
        d = (vz - h_rx) / tan
        vx = ux + d * cos_phi
        vy = uy + d * sin_phi
        rejected = vz <= h_rx
        over = np.flatnonzero(~rejected & ((vx % p) >= s) & ((vy % p) >= s))
        ix = (vx[over] // p).astype(np.int64) + 1
        iy = (vy[over] // p).astype(np.int64) + 1
        rejected[over] = roof_heights(c[over], ix, iy, scenarios[0].params.gamma) >= vz[over]
        placed[:, pending] = ux, uy, vx, vy, vz
        city[pending] = c
        if not rejected.any():
            return (*placed, city)
        pending = pending[rejected]
        values = [v[rejected] if np.ndim(v) else v for v in values]
    # Name the point of the first link given up.
    low = pending[placed[4, pending] <= h_rx]
    if low.size:
        h_uav = scenarios[point[low[0]]].h_uav
        raise InvalidParams(f"h_uav range {h_uav} never exceeds h_rx={h_rx}")
    h_uav = scenarios[point[pending[0]]].h_uav
    raise InvalidParams(f"no free-air UAV placement found at h_uav={h_uav}")


def _first_blockers(
    scenarios: Sequence[GeomScenario], layout: CityLayout, keys: np.ndarray, point: np.ndarray
) -> np.ndarray:
    """Decide the links of keys, link n of scenarios[point[n]], in one
    kernel call; returns how many links of each scenario are NLoS.

    A link is NLoS when a roof of its accepted city reaches the ray
    height where its ground track enters that roof's building (ties
    block).  The roof under the UAV is looked up like every other, so
    it is the one the placement conditioned.
    """
    ux, uy, vx, vy, vz, city = _draw_links(scenarios, layout, keys, point)
    link, ix, iy, t = track_entries(layout, ux, uy, vx, vy)
    h_rx = scenarios[0].h_rx
    roof = roof_heights(city[link], ix, iy, scenarios[0].params.gamma)
    nlos = np.bincount(link[roof >= h_rx + t * (vz[link] - h_rx)], minlength=keys.size) > 0
    return np.bincount(point[nlos], minlength=len(scenarios))


def _chunks(scenarios: Sequence[GeomScenario], n_runs: int, seeds: Sequence[int], period: float):
    """Split the links of every point into kernel calls of CHUNK_PERIODS
    grid periods of ground track, each link counting as its point's
    longest track plus one; a chunk fills across point boundaries and
    takes at least one link.

    Yields each chunk as a list of (point index, keys) segments of
    consecutive points.  A point's keys are
    :func:`uavlos.citygeom.run_keys` of its seed, derived when the first
    chunk reaches it.
    """
    chunk, room = [], CHUNK_PERIODS
    for q, (scenario, seed) in enumerate(zip(scenarios, seeds)):
        keys = run_keys(seed, n_runs)
        track = track_length(scenario.theta_deg, scenario.h_max, scenario.h_rx)
        cost = track / period + 1.0
        start = 0
        while start < n_runs:
            if chunk and room < cost:
                yield chunk
                chunk, room = [], CHUNK_PERIODS
            take = min(n_runs - start, tracks_per_call(room, track, period))
            chunk.append((q, keys[start:start + take]))
            room -= take * cost
            start += take
    yield chunk


def estimate_points(
    scenarios: Sequence[GeomScenario], n_runs: int, seeds: Sequence[int]
) -> tuple[list[PLosEstimate], list[float]]:
    """Monte-Carlo P_LoS estimates of several points over independent
    links, n_runs links per point, decided together.

    The scenarios must share params, user zone and h_rx; theta, azimuth
    and altitude may differ.  Link i of point q is the uint64 key
    ``run_keys(seeds[q], n_runs)[i]`` (:func:`uavlos.citygeom.run_keys`), drawn as
    :func:`_draw_links` describes.  The links are decided in chunks of
    CHUNK_PERIODS grid periods of ground track (see :func:`_chunks`),
    which bounds memory and leaves every estimate unchanged: each
    estimate equals :func:`estimate_plos` of its point alone.

    Returns the estimates and, per point, its share in seconds of each
    chunk's wall time, in proportion to its links in that chunk, so the
    shares sum to the time spent deciding the chunks.
    """
    if n_runs < 1:
        raise InvalidParams(f"need at least one run, got {n_runs}")
    if len(seeds) != len(scenarios):
        raise InvalidParams(f"need one seed per scenario, got {len(seeds)} for {len(scenarios)}")
    if len({(sc.params, sc.user_zone, sc.h_rx) for sc in scenarios}) != 1:
        raise InvalidParams("need one or more scenarios sharing params, user zone and h_rx")
    layout = scenarios[0].layout()
    nlos = np.zeros(len(scenarios), dtype=np.int64)
    seconds = np.zeros(len(scenarios))
    clock = time.perf_counter()
    for chunk in _chunks(scenarios, n_runs, seeds, layout.period):
        points = slice(chunk[0][0], chunk[-1][0] + 1)
        sizes = np.array([keys.size for _, keys in chunk])
        keys = chunk[0][1] if len(chunk) == 1 else np.concatenate([keys for _, keys in chunk])
        point = np.repeat(np.arange(len(chunk)), sizes)
        nlos[points] += _first_blockers(scenarios[points], layout, keys, point)
        now = time.perf_counter()
        seconds[points] += (now - clock) * sizes / keys.size
        clock = now
    estimates = [PLosEstimate.from_counts(n_runs - int(k), n_runs) for k in nlos]
    return estimates, seconds.tolist()


def estimate_plos(scenario: GeomScenario, n_runs: int, seed: int) -> PLosEstimate:
    """Monte-Carlo P_LoS estimate of one scenario over independent links:
    the one-point case of :func:`estimate_points`."""
    return estimate_points([scenario], n_runs, [seed])[0][0]
