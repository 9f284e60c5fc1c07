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
each link is a uint64 key, its placement draws come from fixed
positions of that key's counter-based stream, and each roof it meets
is :func:`uavlos.citygeom.roof_heights` of a city key taken from the
same stream, evaluated only under the UAV and at the track's entries
(see :func:`_draw_links`).  No Generator is built.  The estimator
decides :data:`CHUNK_LINKS` links per kernel call; because a link's
draws depend on its key alone, the chunk size bounds memory and leaves
the estimate unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .citygeom import (
    BuiltUpParams,
    CityLayout,
    bits_to_uniforms,
    derive_layout,
    roof_heights,
    stream_bits,
    stream_uniforms,
    track_entries,
)
from .errors import InvalidAngle, InvalidParams
from .stats import PLosEstimate

__all__ = [
    "GeomScenario",
    "USER_ZONES",
    "CHUNK_LINKS",
    "check_track_length",
    "estimate_plos",
]

UserZone = Literal["street", "crossroad", "mixed"]

#: "mixed" draws street or crossroad per link with free-space area weights.
USER_ZONES = ("street", "crossroad", "mixed")

#: Links per chunk in :func:`estimate_plos`: one set of array draws per
#: placement round and one ground-track kernel call each.  Each numpy
#: call costs about as much as a few links' work, so small chunks spend
#: their time there; the kernel's temporaries grow with links times track
#: length, so much larger chunks cost peak memory for little time.
CHUNK_LINKS = 256


#: Longest ground track, in grid periods, that a scenario may ask for.
#: A chunk's kernel lists every box along each of its CHUNK_LINKS tracks,
#: about 38 KB of arrays per period of track length (a 256-link urban
#: sweep point at h_uav 100 m peaks at 40, 52 and 84 MB RSS at theta 1,
#: 0.3 and 0.1, tracks of 126, 421 and 1262 periods), so this bound keeps
#: a chunk near 115 MB.  The track length grows as 1/tan(theta): theta
#: 0.001 extrapolates to about 4 GB.
MAX_TRACK_PERIODS = 2048


def check_track_length(period: float, theta_deg: float, h_uav: float, h_rx: float) -> None:
    """Refuse a ground track longer than MAX_TRACK_PERIODS grid periods.

    A UAV at h_uav seen at elevation theta_deg from a user at h_rx lies
    (h_uav - h_rx)/tan(theta) from it along the ground; theta = 90 has
    no track.
    """
    if theta_deg < 90.0:
        track = (h_uav - h_rx) / math.tan(math.radians(theta_deg))
        periods = track / period
        if periods > MAX_TRACK_PERIODS:
            raise InvalidAngle(
                f"theta {theta_deg} puts the UAV up to {track:.0f} m "
                f"({periods:.0f} grid periods) from its user; the geometry "
                f"engine bounds tracks at {MAX_TRACK_PERIODS} periods to bound memory"
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
        if self.h_rx < 0.0:
            raise InvalidParams(f"h_rx must be non-negative, got {self.h_rx}")
        if isinstance(self.h_uav, tuple):
            lo, hi = self.h_uav
            if not (0.0 <= lo < hi):
                raise InvalidParams(f"bad h_uav range {self.h_uav}")
            if hi <= self.h_rx:
                raise InvalidParams(
                    f"h_uav range {self.h_uav} entirely below h_rx={self.h_rx}"
                )
        elif self.h_uav <= self.h_rx:
            raise InvalidParams(
                f"fixed h_uav={self.h_uav} must exceed h_rx={self.h_rx}"
            )
        h_max = self.h_uav[1] if isinstance(self.h_uav, tuple) else self.h_uav
        check_track_length(self.layout().period, self.theta_deg, h_max, self.h_rx)

    def layout(self) -> CityLayout:
        # The geometry engine treats the grid as unbounded; the nominal
        # one-period extent only satisfies the layout contract.
        return derive_layout(self.params)


#: Placement rounds before a link whose UAV keeps landing inside a
#: building, or at or below its user, is given up; each round redraws
#: every such link once.
PLACEMENT_ROUNDS = 100_000


def _draw_links(scenario: GeomScenario, layout: CityLayout, keys: np.ndarray):
    """Draw the links of keys up to their ground tracks, UAVs in free air.

    Link n draws from fixed positions of the counter-based stream of its
    key keys[n] (:func:`uavlos.citygeom.stream_bits`):

    * position 0, as a uniform, picks the zone for "mixed": street when
      below the street share of free area;
    * position 1 + 5r, as 64 bits, is the key of round r's city;
    * positions 2 + 5r to 5 + 5r, as uniforms, are round r's user x,
      user y, azimuth and altitude, each used only when the scenario
      draws it.

    Crossroad users fill the square [0, s]^2; street users fill the
    north-south street segment right of it (x in [0, s], y in
    [s, s + w]), which by the grid's diagonal symmetry stands for both
    street orientations when the azimuth is drawn uniformly.

    Round r is a pure function of (keys[n], r).  Every round is a
    fresh city: a round whose altitude is at or below the user, or
    whose UAV hovers over a roof of its city (:func:`roof_heights`) at
    or above it, is rejected, and the link draws round r + 1, zone
    kept.  The accepted round conditions only the roof under its UAV.

    Returns arrays (user x, user y, UAV x, UAV y, UAV z, city key) of
    each link's accepted round.
    """
    n = keys.size
    if scenario.user_zone == "mixed":
        # Free space splits into two street rectangles (s*w each) and one
        # crossroad square (s*s) per period cell.
        w_street = 2.0 * layout.w / (layout.s + 2.0 * layout.w)
        street = stream_uniforms(keys, 0) < w_street
    else:
        street = np.full(n, scenario.user_zone == "street")
    p, s, w = layout.period, layout.s, layout.w
    h_rx = scenario.h_rx
    theta = math.radians(scenario.theta_deg)
    placed = np.empty((5, n))
    city = np.empty(n, dtype=np.uint64)
    pending = np.arange(n)
    for r in range(PLACEMENT_ROUNDS):
        bits = stream_bits(keys[pending, None], 1 + 5 * r + np.arange(5))
        c = bits[:, 0]
        u = bits_to_uniforms(bits[:, 1:])
        ux = s * u[:, 0]
        uy = np.where(street[pending], s + w * u[:, 1], s * u[:, 1])
        if isinstance(scenario.phi_deg, tuple):
            lo, hi = scenario.phi_deg
            phi = np.radians(lo + (hi - lo) * u[:, 2])
        else:
            phi = math.radians(scenario.phi_deg)
        if isinstance(scenario.h_uav, tuple):
            lo, hi = scenario.h_uav
            vz = lo + (hi - lo) * u[:, 3]
        else:
            vz = np.full(pending.size, scenario.h_uav)
        # Ground offset from the elevation; theta = 90 hovers overhead.
        d = 0.0 if scenario.theta_deg == 90.0 else (vz - h_rx) / math.tan(theta)
        vx = ux + d * np.cos(phi)
        vy = uy + d * np.sin(phi)
        rejected = vz <= h_rx
        over = np.flatnonzero(~rejected & ((vx % p) >= s) & ((vy % p) >= s))
        ix = (vx[over] // p).astype(np.int64) + 1
        iy = (vy[over] // p).astype(np.int64) + 1
        rejected[over] = roof_heights(c[over], ix, iy, scenario.params.gamma) >= vz[over]
        placed[:, pending] = ux, uy, vx, vy, vz
        city[pending] = c
        if not rejected.any():
            return (*placed, city)
        pending = pending[rejected]
    if (placed[4, pending] <= h_rx).any():
        raise InvalidParams(f"h_uav range {scenario.h_uav} never exceeds h_rx={h_rx}")
    raise InvalidParams(f"no free-air UAV placement found at h_uav={scenario.h_uav}")


def _first_blockers(scenario: GeomScenario, layout: CityLayout, keys: np.ndarray) -> int:
    """Decide the links of keys in one kernel call; returns how many are NLoS.

    A link is NLoS when a roof of its accepted city reaches the ray
    height where its ground track enters that roof's building (ties
    block).  The roof under the UAV is looked up like every other, so
    it is the one the placement conditioned.
    """
    ux, uy, vx, vy, vz, city = _draw_links(scenario, layout, keys)
    link, ix, iy, t = track_entries(layout, ux, uy, vx, vy)
    h_rx = scenario.h_rx
    roof = roof_heights(city[link], ix, iy, scenario.params.gamma)
    blocked = link[roof >= h_rx + t * (vz[link] - h_rx)]
    return int(np.count_nonzero(np.bincount(blocked, minlength=keys.size)))


def estimate_plos(scenario: GeomScenario, n_runs: int, seed: int) -> PLosEstimate:
    """Monte-Carlo P_LoS estimate over independent links.

    Link i is the uint64 key generate_state(n_runs)[i] of
    SeedSequence(seed), drawn as :func:`_draw_links` describes; the
    links are decided CHUNK_LINKS at a time, which bounds memory and
    leaves the estimate unchanged.
    """
    if n_runs < 1:
        raise InvalidParams(f"need at least one run, got {n_runs}")
    layout = scenario.layout()
    keys = np.random.SeedSequence(seed).generate_state(n_runs, np.uint64)
    nlos = sum(
        _first_blockers(scenario, layout, keys[start:start + CHUNK_LINKS])
        for start in range(0, n_runs, CHUNK_LINKS)
    )
    return PLosEstimate.from_counts(n_runs - nlos, n_runs)
