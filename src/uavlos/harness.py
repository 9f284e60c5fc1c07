"""Experiment harness: sweeps, engine comparison and CSV output.

A :class:`SweepSpec` names an engine ("sim3d", "geom" or
"baseline:<name>"), an environment and one or two swept variables;
:func:`run_sweep` walks the grid deterministically from a master seed
and returns the estimates of all points as the columns of one
:class:`PLosEstimates`.  The 3D engine runs
the fresh-city protocol per run (a new city, its UAV, a ring of circle
users): each run is one uint64 city key, from which the run's UAV and
the roofs its users' tracks can meet are hashed, so no run builds a
Generator or a height grid.  A point's cities are keyed, placed and
decided a block at a time, the block bounded by its ring positions and
the cells of its cities' tallest-roof windows.  A block hashes each
window roof once, and :func:`uavlos.sim3d.links_blocked`, the 3D
engine's one batched link decision, sends its links to the ground-track
kernel in calls of a fixed length of cut track, near their users first,
every box a track enters reading its roof from the window.  The call
budget and the staging are the geometry engine's too
(:func:`uavlos.citygeom.blocked_links`).  The geometry engine runs one
link per run, with an area-weighted street/crossroad mix when no
single zone is requested, under the same
protocol: each link is one uint64 key, from which its placement and
the roofs its track meets are hashed.  Every key comes from one seed
tree of counter-based streams (:func:`uavlos.citygeom.stream_bits`):
grid point q of a sweep takes as its seed key q of the master seed,
``run_keys(seed, points)[q]``, and run i of a point is key i of the
point's seed (:func:`uavlos.citygeom.run_keys`).
A geometry-engine sweep carries its points as arrays from the spec to
the CSV rows: each point's values (tan theta, the cosine and sine of its
azimuth, its azimuth and altitude ranges) are built from the grid, with
one scalar evaluation per axis value, and handed with the points' uint64
keys to the engine's array core (:func:`uavlos.simgeom.los_counts`),
which decides consecutive points with the same params together, so a
170-point heatmap shares 6 kernel calls instead of making one per point
and derives the keys of each chunk's links at once.  Every engine's
points become estimates in one :class:`uavlos.stats.PLosEstimates`
call: the LoS counts of sim3d and geom points, whose Wilson bounds are
one array expression, or the values of baseline models.  No point
builds a scenario or an estimate object unless a caller reads
:attr:`SweepResult.rows`.
A spec holds at most MAX_POINTS grid points, checked from its axis
lengths, and fewer than 2^63 runs over all of them.  A geometry-engine
spec checks every grid point's ground-track length when it is created,
so a point the engine would refuse is an illegal spec; a baseline spec
resolves each point's model then, and checks a GridProduct's track
against its own grid period, whether it is ``baseline:grid`` or loaded
by name.  A 3D-engine spec likewise refuses a point whose user ring is
wider than the extent's diagonal, where no user can stand, and an
extent of more than MAX_AXIS_CELLS building cells per axis, whose cell
indices :func:`uavlos.citygeom.roof_heights` could not hold, and with a
building-top UAV an extent of more than sim3d.MAX_CITY_CELLS building
cells, since that policy draws each UAV from every roof of its grid.

CSV files carry a ``# spec:`` echo line followed by one row per grid
point (:func:`result_to_csv`, and :func:`compare_to_csv` for an engine
comparison, both with the same five estimate fields).  The
ms_per_point column is written as zero unless timing is requested, so
identical seeds reproduce identical bytes; wall-clock readings stay on
the in-memory result (see :func:`run_sweep` for how points that share
kernel calls share their time).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .baselines import BaselineModel, GridProduct, evaluate
from .citygeom import (
    MAX_AXIS_CELLS,
    BuiltUpParams,
    derive_layout,
    run_keys,
    seed_keys,
    stream_bits,
    track_length,
)
from .errors import IllegalSpec, InvalidAngle, UavLosError
from .sim3d import (
    MAX_CITY_CELLS,
    BuildingTop,
    Cities,
    CrossroadCenter,
    RandomOverCity,
    StreetCenter,
    links_blocked,
    place_uav,
    place_users,
    user_directions,
    window_cells,
)
from .simgeom import (
    USER_ZONES,
    azimuth_cos_sin,
    check_track_length,
    elevation_tan,
    los_counts,
    value_rows,
)
from .stats import PLosEstimate, PLosEstimates

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "CompareRow",
    "run_sweep",
    "compare_engines",
    "result_to_csv",
    "compare_to_csv",
    "write_csv",
    "PLosEstimate",
]

AXIS_NAMES = ("theta", "phi", "radius", "h_uav", "gamma", "alpha")
#: UAV placement policies by their spec and command-line names.
UAV_POLICIES = {
    "random": RandomOverCity,
    "crossroad-center": CrossroadCenter,
    "street-center": StreetCenter,
    "building-top": BuildingTop,
}


#: Most users on one sim3d city's ring (n_users).  A block holds at least
#: one city (see BLOCK_ELEMENTS), so the ring alone sizes the arrays of
#: its user placement and link decision.  At this bound three urban runs
#: at theta 5 and 30 peak at 40 MB RSS, against 31 MB with 360 users.
MAX_USERS = 100_000

#: Most grid points of one sweep, the product of its axis lengths
#: (each at most cli.MAX_GRID_VALUES long).  A geometry-engine point
#: holds a row of values, a key, its counts and bounds and a CSV line.
MAX_POINTS = 1_000_000

#: Axes that set a point's elevation and altitude, and axes that set its
#: city params.
_ANGLE_AXES = ("theta", "radius", "h_uav")
_PARAM_AXES = ("gamma", "alpha")


@dataclass(frozen=True)
class SweepAxis:
    """One swept variable and its grid values, in sweep order."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise IllegalSpec(f"unknown axis {self.name!r}; pick from {AXIS_NAMES}")
        if len(self.values) == 0:
            raise IllegalSpec(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class SweepSpec:
    """A reproducible sweep: engine, environment, axes and fixed values.

    Exactly one of theta/radius must be available (as an axis or a
    fixed value), and the axes hold at most MAX_POINTS grid points
    together, of n_runs runs each, fewer than 2^63 in all.  n_runs
    counts cities per point for sim3d and links per point for geom.
    models supplies named baselines; the name "grid" is always
    available and binds GridProduct to the environment parameters.
    """

    engine: str
    params: BuiltUpParams
    extent: tuple[float, float] = (3000.0, 3000.0)
    axes: tuple[SweepAxis, ...] = ()
    theta: float | None = None
    phi: float | None = None
    radius: float | None = None
    h_uav: float = 100.0
    h_rx: float = 1.5
    n_runs: int = 1000
    seed: int = 0
    user_zone: str = "mixed"
    uav_policy: str = "random"
    n_users: int = 360
    models: Mapping[str, BaselineModel] | None = field(default=None)

    def __post_init__(self):
        if self.engine not in ("sim3d", "geom"):
            prefix, _, name = self.engine.partition(":")
            if prefix != "baseline" or not name:
                raise IllegalSpec(
                    f"engine must be sim3d, geom or baseline:<name>, got {self.engine!r}"
                )
        if not 1 <= len(self.axes) <= 2:
            raise IllegalSpec(f"need one or two axes, got {len(self.axes)}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise IllegalSpec(f"duplicate axis in {names}")
        if self.size > MAX_POINTS:
            raise IllegalSpec(
                f"the grid has {self.size} points, more than the {MAX_POINTS} a sweep may have"
            )
        if not 0.0 <= self.h_rx < math.inf:
            raise IllegalSpec(f"h_rx must be finite and non-negative, got {self.h_rx}")
        if not all(math.isfinite(e) for e in self.extent):
            raise IllegalSpec(f"extent {self.extent} must be finite")
        for axis in self.axes:
            self._check_axis(axis)
        for name, value in (("theta", self.theta), ("phi", self.phi), ("radius", self.radius)):
            if value is not None and name in names:
                raise IllegalSpec(f"{name} both swept and fixed")
        theta_given = "theta" in names or self.theta is not None
        radius_given = "radius" in names or self.radius is not None
        if theta_given and radius_given:
            raise IllegalSpec("give theta or radius, not both")
        if not theta_given and not radius_given:
            raise IllegalSpec("no theta or radius given")
        if self.theta is not None and not 0.0 < self.theta <= 90.0:
            raise IllegalSpec(f"fixed theta {self.theta} outside (0, 90]")
        if self.phi is not None and not 0.0 <= self.phi <= 90.0:
            raise IllegalSpec(f"fixed phi {self.phi} outside [0, 90]")
        if self.radius is not None and not 0.0 < self.radius < math.inf:
            raise IllegalSpec(f"fixed radius {self.radius} must be finite and positive")
        if "h_uav" not in names and not self.h_rx < self.h_uav < math.inf:
            raise IllegalSpec(f"h_uav {self.h_uav} must be finite and exceed h_rx {self.h_rx}")
        if self.n_runs < 1:
            raise IllegalSpec(f"n_runs must be at least 1, got {self.n_runs}")
        if self.n_runs * self.size >= 2**63:
            raise IllegalSpec(
                f"n_runs {self.n_runs} at each of {self.size} grid points makes 2^63 runs "
                "or more, past what an int64 run index holds"
            )
        if self.seed < 0:
            raise IllegalSpec(f"seed must be a non-negative integer, got {self.seed}")
        if not 1 <= self.n_users <= MAX_USERS:
            raise IllegalSpec(f"n_users must be in [1, {MAX_USERS}], got {self.n_users}")
        if self.user_zone not in USER_ZONES:
            raise IllegalSpec(f"user_zone must be one of {USER_ZONES}, got {self.user_zone!r}")
        if self.uav_policy not in UAV_POLICIES:
            raise IllegalSpec(
                f"uav_policy must be one of {tuple(UAV_POLICIES)}, got {self.uav_policy!r}"
            )
        if self.engine.startswith("baseline") and "phi" in names:
            raise IllegalSpec("baseline models have no azimuth axis")
        thetas = [v for a in self.axes if a.name == "theta" for v in a.values] + [self.theta]
        if self.engine == "sim3d" and self.uav_policy == "building-top" and 90.0 in thetas:
            raise IllegalSpec(
                "theta 90 with a building-top UAV puts the one user inside the UAV's building"
            )
        # The grid period depends on beta alone, which no axis sweeps.
        period = derive_layout(self.params).period
        if self.engine == "sim3d" and max(self.extent) // period > MAX_AXIS_CELLS:
            raise IllegalSpec(
                f"extent {self.extent[0]:g} x {self.extent[1]:g} holds more than the "
                f"{MAX_AXIS_CELLS} building cells per axis a sim3d city may have"
            )
        if self.engine == "sim3d" and self.uav_policy == "building-top":
            # A building-top UAV is drawn from every roof of its city's grid.
            cells = math.prod(max(e // period, 0.0) for e in self.extent)
            if cells > MAX_CITY_CELLS:
                raise IllegalSpec(
                    f"extent {self.extent[0]:g} x {self.extent[1]:g} holds {cells:.0f} building "
                    f"cells, more than the {MAX_CITY_CELLS} a building-top UAV may be drawn from"
                )
        # No two points of the extent lie farther apart than its
        # diagonal, so a wider sim3d ring leaves no user on the extent.
        diagonal = math.hypot(*self.extent)
        # An engine's check reads a point's angles alone, so it runs once
        # per combination of the angle axes, in grid order; a baseline's
        # reads its model too.
        angle_axes = _ANGLE_AXES if self.engine in ("sim3d", "geom") else AXIS_NAMES
        for var in self._grid(angle_axes):
            theta, h_uav = _point_angles(self, var)
            if self.engine == "sim3d":
                ring = track_length(theta, h_uav, self.h_rx)
                if ring > diagonal:
                    raise IllegalSpec(
                        f"the user ring at theta {theta:g} and h_uav {h_uav:g} has radius "
                        f"{ring:.0f} m, wider than the {diagonal:.0f} m diagonal of the "
                        f"{self.extent[0]:g} x {self.extent[1]:g} m extent, so no user "
                        "stands on the extent; enlarge the extent"
                    )
                continue
            if self.engine != "geom":
                # Unknown names and gamma/alpha sweeps of theta-only
                # families fail here; a GridProduct bounds its tracks
                # in its own grid periods.
                model = _resolve_model(self, var)
                if not isinstance(model, GridProduct):
                    continue
                period = derive_layout(model.params).period
            try:
                check_track_length(period, theta, h_uav, self.h_rx)
            except InvalidAngle as exc:
                raise IllegalSpec(str(exc)) from exc

    def _check_axis(self, axis: SweepAxis) -> None:
        if axis.name == "theta":
            bad = [v for v in axis.values if not 0.0 < v <= 90.0]
        elif axis.name == "phi":
            bad = [v for v in axis.values if not 0.0 <= v <= 90.0]
        elif axis.name == "radius":
            bad = [v for v in axis.values if not 0.0 < v < math.inf]
        elif axis.name == "h_uav":
            bad = [v for v in axis.values if not self.h_rx < v < math.inf]
        elif axis.name == "gamma":
            bad = [v for v in axis.values if v <= 0.0]
        else:  # alpha
            bad = [v for v in axis.values if not 0.0 < v < 1.0]
        if bad:
            raise IllegalSpec(f"axis {axis.name!r} has out-of-domain values {bad}")

    @property
    def size(self) -> int:
        """The number of grid points."""
        return math.prod(len(axis.values) for axis in self.axes)

    def points(self) -> list[tuple[float, ...]]:
        """Grid points as tuples of axis values, in row-major axis order."""
        return [tuple(var.values()) for var in self._grid(AXIS_NAMES)]

    def _grid(self, names) -> list[dict[str, float]]:
        """The grid of the axes named in names, in row-major axis order,
        as one {axis name: value} dict per combination."""
        grid: list[dict[str, float]] = [{}]
        for axis in self.axes:
            if axis.name in names:
                grid = [{**var, axis.name: v} for var in grid for v in axis.values]
        return grid

    def _grid_index(self, names) -> np.ndarray:
        """The index into self._grid(names) of each grid point."""
        shape = [len(axis.values) for axis in self.axes]
        index = np.unravel_index(np.arange(self.size), shape)
        kept = [i for i, axis in enumerate(self.axes) if axis.name in names]
        if not kept:
            return np.zeros(self.size, dtype=np.intp)
        return np.ravel_multi_index([index[i] for i in kept], [shape[i] for i in kept])

    def echo(self) -> str:
        """Canonical one-line description recorded in CSV output."""
        parts = [
            f"engine={self.engine}",
            f"alpha={self.params.alpha:g}",
            f"beta={self.params.beta:g}",
            f"gamma={self.params.gamma:g}",
            f"extent={self.extent[0]:g}x{self.extent[1]:g}",
            "axes=" + ";".join(
                a.name + ":" + ",".join(f"{v:g}" for v in a.values) for a in self.axes
            ),
        ]
        for name, value in (("theta", self.theta), ("phi", self.phi), ("radius", self.radius)):
            if value is not None:
                parts.append(f"{name}={value:g}")
        axis_names = {a.name for a in self.axes}
        if "h_uav" not in axis_names:
            parts.append(f"h_uav={self.h_uav:g}")
        parts.append(f"h_rx={self.h_rx:g}")
        parts.append(f"n_runs={self.n_runs}")
        parts.append(f"seed={self.seed}")
        if self.engine == "geom":
            parts.append(f"user_zone={self.user_zone}")
        if self.engine == "sim3d":
            parts.append(f"uav_policy={self.uav_policy}")
            parts.append(f"n_users={self.n_users}")
        return " ".join(parts)


@dataclass(frozen=True)
class SweepRow:
    values: tuple[float, ...]
    estimate: PLosEstimate
    ms: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's estimates as columns, point q of spec.points() being
    element q, with each point's estimation time in milliseconds."""

    spec: SweepSpec
    axis_names: tuple[str, ...]
    estimates: PLosEstimates
    ms: np.ndarray

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """One SweepRow per grid point, in row-major axis order."""
        return tuple(
            SweepRow(values=values, estimate=est, ms=t)
            for values, est, t in zip(self.spec.points(), self.estimates, self.ms.tolist())
        )


@dataclass(frozen=True)
class CompareRow:
    """Both engines' estimates at one theta, their gap, and the value of
    each baseline model by name ("grid" first, then loaded names in
    sorted order)."""

    theta_deg: float
    sim3d: PLosEstimate
    geom: PLosEstimate
    abs_delta: float
    baselines: Mapping[str, float]


#: Elements one block of the 3D engine holds: each city counts as its
#: ring positions plus the cells of its tallest-roof window
#: (sim3d.window_cells), which bound the arrays of its user placement and
#: of its window's roof lookup; the window's roofs, a margin of one cell
#: added, stay in memory while the block's links are decided.  A block
#: pays UAV placement, user placement and the window lookup once for all
#: its cities, and sim3d.links_blocked splits its links into kernel calls
#: of citygeom.CALL_PERIODS periods of the cut track they walk, so the
#: block size trades that fixed cost against the working set and not
#: against call size.  A block's links hold no per-link copy of their
#: city's UAV, rise or cut (sim3d.links_blocked), which made room for
#: twice the 32 768 elements this bound had: the 3D side of the
#: benchmark's compare-urban line takes 12 blocks instead of 21 at seed
#: 1, and its traced peak reads 3.23 MB against 2.91 MB before.
BLOCK_ELEMENTS = 65536


def _estimate_sim3d(
    spec: SweepSpec, params: BuiltUpParams, theta: float, phi: float | None, h_uav: float,
    key: np.ndarray,
) -> tuple[int, int]:
    """Fresh-city protocol at one point of spec: per run, a new city with
    its UAV and the LoS states of every valid user on the theta
    circle (one user at azimuth phi when phi is fixed, or straight under
    the UAV at theta = 90), decided a block of BLOCK_ELEMENTS elements
    at a time.  Run i is the city key run_keys(seed, n_runs)[i] of the
    point's seed (:func:`uavlos.citygeom.run_keys`), position i of the
    stream of its one-element key array key, derived a block at a time,
    so no key array outgrows a block.  Every user stands the ring radius from
    its UAV's ground point, so the radius is the ground length of every
    link's track (sim3d.links_blocked).

    Returns the point's counts (k, n), pooled over its cities: users with
    LoS and users kept."""
    policy = UAV_POLICIES[spec.uav_policy](h_uav)
    directions = user_directions(theta, spec.n_users, phi)
    layout = derive_layout(params, *spec.extent)
    radius = track_length(theta, h_uav, spec.h_rx)
    per_city = directions[0].size + window_cells(layout, radius, directions)
    per_block = max(1, BLOCK_ELEMENTS // per_city)
    k = 0
    n = 0
    for start in range(0, spec.n_runs, per_block):
        keys = stream_bits(key, np.arange(start, min(start + per_block, spec.n_runs)))
        cities = Cities(params, layout, keys)
        uavs = place_uav(cities, policy)
        run, x, y = place_users(layout, uavs, theta, directions, spec.h_rx)
        n += x.size
        k += x.size - np.count_nonzero(links_blocked(cities, uavs, run, x, y, spec.h_rx, radius))
    if n == 0:
        raise UavLosError(
            "no valid user positions over the whole sweep point; "
            "enlarge the extent or the user count"
        )
    return k, n


def _with_swept_params(base: BuiltUpParams, var: Mapping[str, float]) -> BuiltUpParams:
    """base with the swept alpha and gamma values of one grid point; base
    itself when neither is swept."""
    swept = {name: var[name] for name in ("alpha", "gamma") if name in var}
    return replace(base, **swept) if swept else base


def _resolve_model(spec: SweepSpec, var: Mapping[str, float]) -> BaselineModel:
    name = spec.engine.partition(":")[2]
    models = spec.models or {}
    if name == "grid":
        base = spec.params
    elif name in models:
        model = models[name]
        if not isinstance(model, GridProduct):
            if "gamma" in var or "alpha" in var:
                raise IllegalSpec(
                    f"{spec.engine!r} does not depend on gamma/alpha; "
                    "sweep a GridProduct instead"
                )
            return model
        base = model.params
    else:
        raise IllegalSpec(
            f"engine {spec.engine!r} names no loaded model; available: "
            f"{sorted(models) + ['grid']}"
        )
    return GridProduct(_with_swept_params(base, var))


def _point_angles(spec: SweepSpec, var: Mapping[str, float]) -> tuple[float, float]:
    """(theta, h_uav) at one grid point: spec's fixed values overridden by
    the swept values in var, theta derived from the radius when none is
    given."""
    h_uav = var.get("h_uav", spec.h_uav)
    theta = var.get("theta", spec.theta)
    if theta is None:
        radius = var.get("radius", spec.radius)
        theta = math.degrees(math.atan2(h_uav - spec.h_rx, radius))
    return theta, h_uav


def _estimate_points(spec: SweepSpec, keys: np.ndarray) -> tuple[PLosEstimates, np.ndarray]:
    """P_LoS and milliseconds at each grid point of spec, in row-major
    order, point q estimated by spec's engine from the uint64 key keys[q]
    (:func:`uavlos.citygeom.seed_keys` of its seed).

    A geometry-engine sweep goes to :func:`_estimate_geom`; sim3d and
    baseline points are run and timed one by one, each sim3d point from
    the run keys of its key, and their counts (sim3d) or model values
    (baselines) become the sweep's estimates in one
    :class:`PLosEstimates` call.
    """
    if spec.engine == "geom":
        return _estimate_geom(spec, keys)
    results: list = []
    ms: list[float] = []
    names = [axis.name for axis in spec.axes]
    for q, combo in enumerate(spec.points()):
        var = dict(zip(names, combo))
        start = time.perf_counter()
        theta, h_uav = _point_angles(spec, var)
        if spec.engine == "sim3d":
            params = _with_swept_params(spec.params, var)
            results.append(_estimate_sim3d(
                spec, params, theta, var.get("phi", spec.phi), h_uav, keys[q:q + 1]
            ))
        else:
            results.append(evaluate(_resolve_model(spec, var), theta, h_uav, spec.h_rx))
        ms.append((time.perf_counter() - start) * 1000.0)
    if spec.engine == "sim3d":
        estimates = PLosEstimates.from_counts(*np.array(results, dtype=np.int64).T)
    else:
        estimates = PLosEstimates.exact(results)
    return estimates, np.array(ms)


def _geom_values(spec: SweepSpec) -> tuple[np.ndarray, list[float]]:
    """Each grid point's :func:`uavlos.simgeom._point_values` row, built
    from the grid, and its altitude: tan theta once per combination of
    the angle axes, the cosine and sine of a fixed azimuth once per
    azimuth, each by the scalar calls a scenario's row makes
    (:func:`uavlos.simgeom.value_rows`)."""
    angles = [_point_angles(spec, var) for var in spec._grid(_ANGLE_AXES)]
    at = spec._grid_index(_ANGLE_AXES).tolist()
    tan = [elevation_tan(theta) for theta, _ in angles]
    h_uav = [angles[i][1] for i in at]
    cos_sin = None
    if spec.phi is not None or any(axis.name == "phi" for axis in spec.axes):
        azimuths = [azimuth_cos_sin(var.get("phi", spec.phi)) for var in spec._grid(("phi",))]
        cos_sin = np.array(azimuths).take(spec._grid_index(("phi",)), axis=0)
    return value_rows(np.take(tan, at), h_uav, cos_sin), h_uav


def _estimate_geom(spec: SweepSpec, keys: np.ndarray) -> tuple[PLosEstimates, np.ndarray]:
    """:func:`_estimate_points` of a geometry-engine spec, with its points
    as arrays (:func:`_geom_values`).

    Consecutive points with the same swept alpha and gamma (all of them
    unless one is swept) are decided in one
    :func:`uavlos.simgeom.los_counts` call, each point's time being its
    share of that call's chunks.  Every group's params and layout are
    built, and so checked, before the first is decided.
    """
    values, h_uav = _geom_values(spec)
    groups = [
        (derive_layout(params), params.gamma)
        for params in (_with_swept_params(spec.params, var) for var in spec._grid(_PARAM_AXES))
    ]
    group = spec._grid_index(_PARAM_AXES)
    cuts = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), spec.size]
    los, seconds = [], []
    for start, stop in zip(cuts, cuts[1:]):
        layout, gamma = groups[group[start]]
        k, sec = los_counts(
            layout, gamma, spec.user_zone, spec.h_rx, values[start:stop], keys[start:stop],
            spec.n_runs, h_uav[start:stop],
        )
        los.append(k)
        seconds.append(sec)
    estimates = PLosEstimates.from_counts(np.concatenate(los), spec.n_runs)
    return estimates, 1000.0 * np.concatenate(seconds)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Walk the sweep grid and estimate P_LoS at every point.

    Points are evaluated in row-major axis order, each from its own
    seed, ``run_keys(spec.seed, points)[q]`` for point q
    (:func:`uavlos.citygeom.run_keys`), so results are independent of
    evaluation order and of the grid size, and reproducible from (spec,
    seed) alone.  The points travel as arrays: their seeds become their
    uint64 keys in one array call, a geometry-engine sweep builds its
    points' values from the grid and decides them in the engine's array
    core (:func:`_estimate_geom`), and the result holds its estimates as
    columns.  A row's
    ms is its point's estimation time; geometry-engine points share
    kernel calls, and each takes a share of every call's wall time in
    proportion to its links in that call, so the rows sum to the sweep's
    estimation time.
    """
    estimates, ms = _estimate_points(spec, seed_keys(run_keys(spec.seed, spec.size)))
    return SweepResult(
        spec=spec, axis_names=tuple(a.name for a in spec.axes), estimates=estimates, ms=ms
    )


def compare_engines(
    params: BuiltUpParams,
    thetas: tuple[float, ...],
    n3d: int = 500,
    ngeom: int = 1000,
    seed: int = 0,
    extent: tuple[float, float] = (3000.0, 3000.0),
    h_uav: float = 100.0,
    h_rx: float = 1.5,
    n_users: int = 360,
    models: Mapping[str, BaselineModel] | None = None,
) -> list[CompareRow]:
    """Run both engines and the baseline models at matched settings over
    a theta grid.

    The 3D side runs the fresh-city protocol with a randomly placed UAV
    at h_uav; the geometry side runs the area-weighted street/crossroad
    mix at the same fixed altitude and a uniform azimuth.  The baselines
    are "grid" (GridProduct on params) and every model in models, which
    "grid" shadows as in a sweep.  Every side is a sweep spec, validated
    before either engine runs.  At theta q the 3D side takes as its seed
    key 2q of the master seed and the geometry side key 2q + 1
    (:func:`uavlos.citygeom.run_keys`).
    """
    common = dict(
        params=params, extent=extent, axes=(SweepAxis("theta", tuple(thetas)),),
        h_uav=h_uav, h_rx=h_rx, seed=seed,
    )
    spec3d = SweepSpec(
        engine="sim3d", n_runs=n3d, uav_policy="random", n_users=n_users, **common
    )
    specgm = SweepSpec(engine="geom", n_runs=ngeom, user_zone="mixed", **common)
    names = ["grid", *sorted(set(models or {}) - {"grid"})]
    baselines = [SweepSpec(engine=f"baseline:{name}", models=models, **common) for name in names]
    keys = seed_keys(run_keys(seed, 2 * len(thetas)))
    est3d, _ = _estimate_points(spec3d, keys[0::2])
    estgm, _ = _estimate_points(specgm, keys[1::2])
    values = {
        name: _estimate_points(spec, keys[0::2])[0].p_hat.tolist()
        for name, spec in zip(names, baselines)
    }
    return [
        CompareRow(
            theta_deg=theta,
            sim3d=a,
            geom=g,
            abs_delta=abs(a.p_hat - g.p_hat),
            baselines={name: values[name][i] for name in names},
        )
        for i, (theta, a, g) in enumerate(zip(thetas, est3d, estgm))
    ]


def _estimate_fields(n: int, k: int, p_hat: float, ci_lo: float, ci_hi: float) -> str:
    """n, k, p_hat and the interval bounds of one estimate as CSV fields."""
    return f"{n},{k},{p_hat:.6f},{ci_lo:.6f},{ci_hi:.6f}"


def result_to_csv(result: SweepResult, include_timing: bool = False) -> str:
    """Render a sweep result as CSV text (spec echo, header, rows), each
    row's axis values formatted once per axis value."""
    labels = [""]
    for axis in result.spec.axes:
        texts = [f"{v:g}," for v in axis.values]
        labels = [label + text for label in labels for text in texts]
    ms = result.ms.tolist() if include_timing else [0.0] * len(labels)
    est = result.estimates
    fields = zip(*(c.tolist() for c in (est.n, est.k, est.p_hat, est.ci_lo, est.ci_hi)))
    lines = [
        f"# spec: {result.spec.echo()}",
        ",".join(result.axis_names) + ",n,k,p_hat,ci_lo,ci_hi,ms_per_point",
        *(
            f"{label}{_estimate_fields(*point)},{t:.6f}"
            for label, point, t in zip(labels, fields, ms)
        ),
    ]
    return "\n".join(lines) + "\n"


def compare_to_csv(
    rows: list[CompareRow], params: BuiltUpParams, n3d: int, ngeom: int, seed: int,
    extent: tuple[float, float], h_uav: float, h_rx: float, n_users: int,
) -> str:
    """Render the rows of :func:`compare_engines` as CSV text: a spec
    echo of the settings they were run with, a header, and per theta
    both engines' estimates, their gap and each baseline's value."""
    names = list(rows[0].baselines)
    echo = (
        f"engine=compare alpha={params.alpha:g} beta={params.beta:g} gamma={params.gamma:g}"
        f" extent={extent[0]:g}x{extent[1]:g}"
        f" thetas={','.join(f'{row.theta_deg:g}' for row in rows)}"
        f" n3d={n3d} ngeom={ngeom} h_uav={h_uav:g} h_rx={h_rx:g}"
        f" n_users={n_users} seed={seed} models={','.join(names)}"
    )
    lines = [
        f"# spec: {echo}",
        "theta,n_3d,k_3d,p_3d,ci_lo_3d,ci_hi_3d,n_geom,k_geom,p_geom,ci_lo_geom,ci_hi_geom,"
        "abs_delta," + ",".join(names),
    ]
    for row in rows:
        a, g = (
            _estimate_fields(e.n, e.k, e.p_hat, e.ci_lo, e.ci_hi) for e in (row.sim3d, row.geom)
        )
        lines.append(
            f"{row.theta_deg:g},{a},{g},"
            f"{row.abs_delta:.6f}" + "".join(f",{row.baselines[name]:.6f}" for name in names)
        )
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path: str | Path, include_timing: bool = False) -> None:
    """Write CSV atomically (temp file in place, then rename)."""
    atomic_write_text(Path(path), result_to_csv(result, include_timing))


def atomic_write_text(path: Path, text: str) -> None:
    """Write text to path through a temp file in place and a rename, so
    path holds either its old content or all of text; on any failure
    the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
