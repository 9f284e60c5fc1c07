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
it.  The estimator hands the kernel :data:`CHUNK_LINKS` links per call;
each link still draws from its own Generator, so the chunking does not
change a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .citygeom import (
    BuiltUpParams,
    CityLayout,
    Node,
    derive_layout,
    sample_height,
    sample_heights,
    track_entries,
    uav_position_from_angles,
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

#: Links per ground-track kernel call in :func:`estimate_plos`.  A call
#: costs about as much as a few links' draws, so one call per link would
#: dominate; the kernel's temporaries grow with links times track length,
#: so much larger chunks cost peak memory for little time.
CHUNK_LINKS = 32


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

    def layout(self) -> CityLayout:
        # The geometry engine treats the grid as unbounded; the nominal
        # one-period extent only satisfies the layout contract.
        return derive_layout(self.params)


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
    street orientations when the azimuth is drawn uniformly.
    """
    s, w = layout.s, layout.w
    x = rng.uniform(0.0, s)
    if zone == "crossroad":
        y = rng.uniform(0.0, s)
    elif zone == "street":
        y = rng.uniform(s, s + w)
    else:
        raise InvalidParams(f"unknown user zone {zone!r}")
    return Node(x, y, h_rx)


def _place(scenario: GeomScenario, layout: CityLayout, rng: np.random.Generator):
    """One link's draws up to its ground track, in stream order: zone,
    user, azimuth, altitude and the roof under the UAV, all redrawn
    (except the zone) until the UAV hovers in free air.

    Returns (user x, user y, UAV x, UAV y, UAV z, cell ix, cell iy,
    roof) for the building under the UAV, or cell (-1, -1) and roof 0
    over open ground: box -1 lies at negative coordinates, which no
    first-quadrant track from the origin crossroad reaches.
    """
    zone = scenario.user_zone
    if zone == "mixed":
        # Free space splits into two street rectangles (s*w each) and one
        # crossroad square (s*s) per period cell.
        w_street = 2.0 * layout.w / (layout.s + 2.0 * layout.w)
        zone = "street" if rng.random() < w_street else "crossroad"
    p = layout.period

    for _ in range(100000):
        user = sample_user(layout, zone, rng, scenario.h_rx)

        if isinstance(scenario.phi_deg, tuple):
            phi = rng.uniform(*scenario.phi_deg)
        else:
            phi = scenario.phi_deg

        if isinstance(scenario.h_uav, tuple):
            # Redraw the rare altitude at or below the user; the elevation
            # construction needs the transmitter strictly above the receiver.
            h_uav = rng.uniform(*scenario.h_uav)
            tries = 0
            while h_uav <= scenario.h_rx:
                h_uav = rng.uniform(*scenario.h_uav)
                tries += 1
                if tries > 1000:
                    raise InvalidParams(
                        f"h_uav range {scenario.h_uav} never exceeds h_rx={scenario.h_rx}"
                    )
        else:
            h_uav = scenario.h_uav

        uav = uav_position_from_angles(user, scenario.theta_deg, phi, h_uav)

        if (uav.x % p) >= layout.s and (uav.y % p) >= layout.s:
            uav_roof = sample_height(scenario.params.gamma, rng)
            if uav_roof >= h_uav:
                continue
            return user.x, user.y, uav.x, uav.y, h_uav, uav.x // p + 1, uav.y // p + 1, uav_roof
        return user.x, user.y, uav.x, uav.y, h_uav, -1, -1, 0.0
    raise InvalidParams(
        f"no free-air UAV placement found at h_uav={scenario.h_uav}"
    )


def _first_blockers(scenario: GeomScenario, layout: CityLayout, rngs):
    """Decide a chunk of links, link i drawing from rngs[i] only.

    Every building a track enters gets one Rayleigh(gamma) roof; the
    building under the UAV keeps the roof drawn at placement, the others
    draw theirs from the link's stream nearest the UAV first.  A link is
    NLoS when a roof reaches the ray height at the building's entry
    point (ties block).

    Returns arrays (link, ix, iy, r_op) for the NLoS links only: the
    blocking cell nearest the UAV and its ground distance from the UAV.
    """
    placed = np.array([_place(scenario, layout, rng) for rng in rngs])
    ux, uy, vx, vy, vz, cell_x, cell_y, uav_roof = placed.T

    link, ix, iy, t = track_entries(layout, ux, uy, vx, vy)
    own = (ix == cell_x[link]) & (iy == cell_y[link])
    fresh = np.bincount(link[~own], minlength=len(rngs))
    roof = np.empty(t.size)
    roof[~own] = np.concatenate(
        [sample_heights(scenario.params.gamma, rng, m) for rng, m in zip(rngs, fresh)]
    )
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
    when the track enters that building.  This is one link of the
    chunks :func:`estimate_plos` decides.
    """
    _, ix, iy, r_op = _first_blockers(scenario, scenario.layout(), [rng])
    if r_op.size == 0:
        return LoSOutcome.los()
    return LoSOutcome.nlos(Blocker(int(ix[0]), int(iy[0]), float(r_op[0])))


def estimate_plos(scenario: GeomScenario, n_runs: int, seed: int) -> PLosEstimate:
    """Monte-Carlo P_LoS estimate over independent per-run substreams.

    Run i draws from the i-th child of SeedSequence(seed) alone.
    """
    if n_runs < 1:
        raise InvalidParams(f"need at least one run, got {n_runs}")
    layout = scenario.layout()
    root = np.random.SeedSequence(seed)
    nlos = 0
    for start in range(0, n_runs, CHUNK_LINKS):
        # spawn() continues the child numbering, so chunks see the same
        # children as one spawn(n_runs) would.
        children = root.spawn(min(CHUNK_LINKS, n_runs - start))
        rngs = [np.random.default_rng(child) for child in children]
        nlos += _first_blockers(scenario, layout, rngs)[0].size
    return PLosEstimate.from_counts(n_runs - nlos, n_runs)
