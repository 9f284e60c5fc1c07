"""Lightweight geometry-based LoS simulator.

Instead of materializing a whole city, each run builds only what one
link needs: a user near the origin crossroad, a UAV in the first
quadrant, the building boxes the link's ground track enters, and one
Rayleigh height draw per building met.  By first-quadrant symmetry an
azimuth in [0, 90] degrees covers every direction.

The buildings come from :func:`uavlos.citygeom.track_entries`, the
kernel the 3D engine uses too, with the grid treated as unbounded.
With flat rooftops the ray is lowest over a footprint where the track
enters it seen from the user, so one comparison per building decides
it.

The estimator decides :data:`CHUNK_LINKS` links at a time.  A chunk
draws from one Generator: each draw (zone, user, azimuth, altitude,
roofs) is one array draw over the chunk's links, the UAV-in-building
redraw is a masked loop over the links still inside a building, and one
kernel call lists every track's buildings.  A chunk's stream is fixed
by the seed and the chunk size, so the same seed gives the same
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .citygeom import (
    BuiltUpParams,
    CityLayout,
    Node,
    derive_layout,
    sample_heights,
    track_entries,
)
from .errors import InvalidAngle, InvalidParams
from .sim3d import Blocker, LoSOutcome
from .stats import PLosEstimate

__all__ = [
    "GeomScenario",
    "USER_ZONES",
    "CHUNK_LINKS",
    "sample_user",
    "simulate_link",
    "estimate_plos",
]

UserZone = Literal["street", "crossroad", "mixed"]

#: "mixed" draws street or crossroad per link with free-space area weights.
USER_ZONES = ("street", "crossroad", "mixed")

#: Links per chunk in :func:`estimate_plos`: one Generator, one set of
#: array draws and one ground-track kernel call each.  Seeding and each
#: numpy call cost about as much as a few links' work, so small chunks
#: spend their time there; the kernel's temporaries grow with links
#: times track length, so much larger chunks cost peak memory for little
#: time.
CHUNK_LINKS = 256


#: Longest ground track, in grid periods, that a scenario may ask for.
#: A chunk's kernel lists every box along each of its CHUNK_LINKS tracks,
#: about 38 KB of arrays per period of track length (a 256-link urban
#: sweep point at h_uav 100 m peaks at 40, 52 and 84 MB RSS at theta 1,
#: 0.3 and 0.1, tracks of 126, 421 and 1262 periods), so this bound keeps
#: a chunk near 115 MB.  The track length grows as 1/tan(theta): theta
#: 0.001 extrapolates to about 4 GB.
MAX_TRACK_PERIODS = 2048


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
        if self.theta_deg < 90.0:
            h_max = self.h_uav[1] if isinstance(self.h_uav, tuple) else self.h_uav
            track = (h_max - self.h_rx) / math.tan(math.radians(self.theta_deg))
            periods = track / self.layout().period
            if periods > MAX_TRACK_PERIODS:
                raise InvalidAngle(
                    f"theta {self.theta_deg} puts the UAV up to {track:.0f} m "
                    f"({periods:.0f} grid periods) from its user; the geometry "
                    f"engine bounds tracks at {MAX_TRACK_PERIODS} periods to bound memory"
                )

    def layout(self) -> CityLayout:
        # The geometry engine treats the grid as unbounded; the nominal
        # one-period extent only satisfies the layout contract.
        return derive_layout(self.params)


def _zone_draws(layout: CityLayout, street: np.ndarray, rng: np.random.Generator):
    """User ground points for a batch of links, street[i] picking link
    i's zone: x, then y, each one array draw over the batch."""
    s, w = layout.s, layout.w
    x = rng.uniform(0.0, s, street.size)
    y = rng.uniform(np.where(street, s, 0.0), np.where(street, s + w, s))
    return x, y


def sample_user(
    layout: CityLayout,
    zone: UserZone,
    rng: np.random.Generator,
    h_rx: float = 0.0,
) -> Node:
    """Draw a user uniformly in the named zone at the origin crossroad.

    Crossroad users fill the square [0, s]^2; street users fill the
    north-south street segment right of it (x in [0, s], y in
    [s, s + w]), which by the grid's diagonal symmetry stands for both
    street orientations when the azimuth is drawn uniformly.  The
    geometry engine places its users with the same rule.
    """
    if zone not in ("street", "crossroad"):
        raise InvalidParams(f"unknown user zone {zone!r}")
    x, y = _zone_draws(layout, np.array([zone == "street"]), rng)
    return Node(float(x[0]), float(y[0]), h_rx)


#: Placement rounds before a link whose UAV keeps landing inside a
#: building is given up; each round redraws every such link once.
PLACEMENT_ROUNDS = 100_000

#: Redraws of an altitude at or below the user before giving up.
ALTITUDE_REDRAWS = 1000


def _altitudes(scenario: GeomScenario, rng: np.random.Generator, n: int) -> np.ndarray:
    """n UAV altitudes, each strictly above the user."""
    if not isinstance(scenario.h_uav, tuple):
        return np.full(n, scenario.h_uav)
    # Redraw the rare altitude at or below the user; the elevation
    # construction needs the transmitter strictly above the receiver.
    h = rng.uniform(*scenario.h_uav, n)
    for _ in range(ALTITUDE_REDRAWS):
        low = np.flatnonzero(h <= scenario.h_rx)
        if low.size == 0:
            return h
        h[low] = rng.uniform(*scenario.h_uav, low.size)
    if (h <= scenario.h_rx).any():
        raise InvalidParams(
            f"h_uav range {scenario.h_uav} never exceeds h_rx={scenario.h_rx}"
        )
    return h


def _draw_links(scenario: GeomScenario, layout: CityLayout, rng: np.random.Generator, n: int):
    """Draw n links up to their ground tracks, UAVs in free air.

    Draw order: the zone of every link (for "mixed"), then rounds of
    user x, user y, azimuth, altitude and one roof per UAV that lands
    over a building, each an array draw over the links still pending.
    A link whose roof reaches its UAV is pending again next round, zone
    kept.

    Returns arrays (user x, user y, UAV x, UAV y, UAV z, cell ix, cell
    iy, roof) for the building under each UAV, or cell (-1, -1) and roof
    0 over open ground: box -1 lies at negative coordinates, which no
    first-quadrant track from the origin crossroad reaches.
    """
    if scenario.user_zone == "mixed":
        # Free space splits into two street rectangles (s*w each) and one
        # crossroad square (s*s) per period cell.
        w_street = 2.0 * layout.w / (layout.s + 2.0 * layout.w)
        street = rng.random(n) < w_street
    else:
        street = np.full(n, scenario.user_zone == "street")
    p, s = layout.period, layout.s
    theta = math.radians(scenario.theta_deg)
    placed = np.empty((8, n))
    pending = np.arange(n)
    for _ in range(PLACEMENT_ROUNDS):
        m = pending.size
        ux, uy = _zone_draws(layout, street[pending], rng)
        if isinstance(scenario.phi_deg, tuple):
            phi = np.radians(rng.uniform(*scenario.phi_deg, m))
        else:
            phi = math.radians(scenario.phi_deg)
        vz = _altitudes(scenario, rng, m)
        # Ground offset from the elevation; theta = 90 hovers overhead.
        d = 0.0 if scenario.theta_deg == 90.0 else (vz - scenario.h_rx) / math.tan(theta)
        vx = ux + d * np.cos(phi)
        vy = uy + d * np.sin(phi)
        over = ((vx % p) >= s) & ((vy % p) >= s)
        roof = np.zeros(m)
        roof[over] = sample_heights(scenario.params.gamma, rng, int(over.sum()))
        cell_x = np.where(over, vx // p + 1, -1.0)
        cell_y = np.where(over, vy // p + 1, -1.0)
        placed[:, pending] = ux, uy, vx, vy, vz, cell_x, cell_y, roof
        pending = pending[over & (roof >= vz)]
        if pending.size == 0:
            return placed
    raise InvalidParams(
        f"no free-air UAV placement found at h_uav={scenario.h_uav}"
    )


def _first_blockers(
    scenario: GeomScenario, layout: CityLayout, rng: np.random.Generator, n: int
):
    """Decide n links, all drawing from rng.

    Every building a track enters gets one Rayleigh(gamma) roof; the
    building under the UAV keeps the roof drawn at placement, the others
    draw theirs in one array draw over the kernel's entries.  A link is
    NLoS when a roof reaches the ray height at the building's entry
    point (ties block).

    Returns arrays (link, ix, iy, r_op) for the NLoS links only: the
    blocking cell nearest the UAV and its ground distance from the UAV.
    """
    ux, uy, vx, vy, vz, cell_x, cell_y, uav_roof = _draw_links(scenario, layout, rng, n)
    link, ix, iy, t = track_entries(layout, ux, uy, vx, vy)
    own = (ix == cell_x[link]) & (iy == cell_y[link])
    roof = np.empty(t.size)
    roof[~own] = sample_heights(scenario.params.gamma, rng, t.size - int(own.sum()))
    roof[own] = uav_roof[link[own]]
    h_rx = scenario.h_rx
    blocked = roof >= h_rx + t * (vz[link] - h_rx)
    link, ix, iy, t = link[blocked], ix[blocked], iy[blocked], t[blocked]
    # Entries come nearest the UAV first within each link.
    first = np.ones(link.size, dtype=bool)
    first[1:] = link[1:] != link[:-1]
    link, ix, iy, t = link[first], ix[first], iy[first], t[first]
    r_rx = np.hypot(vx[link] - ux[link], vy[link] - uy[link])
    return link, ix, iy, (1.0 - t) * r_rx


def simulate_link(scenario: GeomScenario, rng: np.random.Generator) -> LoSOutcome:
    """Run one link: draw user, azimuth, altitude and building heights.

    Each distinct building along the path receives one independent
    Rayleigh(gamma) height; the link is NLoS at the building nearest the
    UAV whose drawn height reaches the ray height at its entry point
    (ties block).

    The UAV hovers in free air.  When its ground projection lands on a
    building whose drawn height reaches the UAV altitude, the whole
    configuration is redrawn, matching a placement that rejects
    positions inside building volumes.  The accepted height is reused
    when the track enters that building.  This is the one-link case of
    the chunks :func:`estimate_plos` decides, drawn from rng.
    """
    _, ix, iy, r_op = _first_blockers(scenario, scenario.layout(), rng, 1)
    if r_op.size == 0:
        return LoSOutcome.los()
    return LoSOutcome.nlos(Blocker(int(ix[0]), int(iy[0]), float(r_op[0])))


def estimate_plos(scenario: GeomScenario, n_runs: int, seed: int) -> PLosEstimate:
    """Monte-Carlo P_LoS estimate over chunks of independent links.

    Links are decided CHUNK_LINKS at a time, the last chunk short; chunk
    i draws from the i-th child of SeedSequence(seed) alone.
    """
    if n_runs < 1:
        raise InvalidParams(f"need at least one run, got {n_runs}")
    layout = scenario.layout()
    children = np.random.SeedSequence(seed).spawn(-(-n_runs // CHUNK_LINKS))
    nlos = 0
    for start, child in zip(range(0, n_runs, CHUNK_LINKS), children):
        size = min(CHUNK_LINKS, n_runs - start)
        nlos += _first_blockers(scenario, layout, np.random.default_rng(child), size)[0].size
    return PLosEstimate.from_counts(n_runs - nlos, n_runs)
