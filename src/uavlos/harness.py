"""Experiment harness: sweeps, engine comparison and CSV output.

A :class:`SweepSpec` names an engine ("sim3d", "geom" or
"baseline:<name>"), an environment and one or two swept variables;
:func:`run_sweep` walks the grid deterministically from a master seed
and returns one :class:`PLosEstimate` per point.  The 3D engine runs
the fresh-city protocol per run (a new city, its UAV, a ring of circle
users): each run is one uint64 city key, from which the run's UAV and
the roofs its users' tracks meet are hashed, so no run builds a
Generator or a height grid.  The geometry engine runs one link per
run, with an area-weighted street/crossroad mix when no single zone is
requested, under the same protocol: each link is one uint64 key, from
which its placement and the roofs its track meets are hashed.  Both
engines take a point's keys from :func:`uavlos.citygeom.run_keys` of
its seed, numpy's ``SeedSequence(seed).generate_state`` computed with
array operations.
The geometry engine decides consecutive points with the same params
together (:func:`uavlos.simgeom.estimate_points`), so a 170-point
heatmap shares 25 kernel calls instead of making one per point.
A geometry-engine spec checks every grid point's ground-track length
when it is created, so a point the engine would refuse is an illegal
spec; a 3D-engine spec likewise refuses a point whose user ring is
wider than the extent's diagonal, where no user can stand.

CSV files carry a ``# spec:`` echo line followed by one row per grid
point.  The ms_per_point column is written as zero unless timing is
requested, so identical seeds reproduce identical bytes; wall-clock
readings stay on the in-memory result (see :func:`run_sweep` for how
points that share kernel calls share their time).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path
from typing import Mapping

import numpy as np

from .baselines import BaselineModel, GridProduct, evaluate
from .citygeom import BuiltUpParams, derive_layout, run_keys, track_length, tracks_per_call
from .errors import IllegalSpec, InvalidAngle, UavLosError
from .sim3d import (
    BuildingTop,
    Cities,
    CrossroadCenter,
    RandomOverCity,
    StreetCenter,
    first_blockers,
    place_uav,
    place_users,
    user_directions,
)
from .simgeom import USER_ZONES, GeomScenario, check_track_length, estimate_points
from .stats import PLosEstimate

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "CompareRow",
    "run_sweep",
    "compare_engines",
    "result_to_csv",
    "write_csv",
    "PLosEstimate",
    "DEFAULT_THETA_GRID",
    "DEFAULT_RADIUS_GRID",
    "DEFAULT_ALTITUDES",
]

AXIS_NAMES = ("theta", "phi", "radius", "h_uav", "gamma", "alpha")
#: UAV placement policies by their spec and command-line names.
UAV_POLICIES = {
    "random": RandomOverCity,
    "crossroad-center": CrossroadCenter,
    "street-center": StreetCenter,
    "building-top": BuildingTop,
}

#: Default grids used by the command-line sweeps.
DEFAULT_THETA_GRID = tuple(float(t) for t in range(5, 95, 5))
DEFAULT_RADIUS_GRID = tuple(float(r) for r in range(50, 1050, 50))
DEFAULT_ALTITUDES = (100.0, 200.0, 500.0)


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
    fixed value).  n_runs counts cities per point for sim3d and links
    per point for geom.  models supplies named baselines; the name
    "grid" is always available and binds GridProduct to the
    environment parameters.
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
        if self.n_users < 1:
            raise IllegalSpec(f"n_users must be at least 1, got {self.n_users}")
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
        if self.engine in ("geom", "sim3d"):
            # The grid period depends on beta alone, which no axis sweeps.
            period = derive_layout(self.params).period
            # No two points of the extent lie farther apart than its
            # diagonal, so a wider sim3d ring leaves no user on the extent.
            diagonal = math.hypot(*self.extent)
            for combo in self.points():
                theta, h_uav = _point_angles(self, dict(zip(names, combo)))
                if self.engine == "geom":
                    try:
                        check_track_length(period, theta, h_uav, self.h_rx)
                    except InvalidAngle as exc:
                        raise IllegalSpec(str(exc)) from exc
                    continue
                ring = track_length(theta, h_uav, self.h_rx)
                if ring > diagonal:
                    raise IllegalSpec(
                        f"the user ring at theta {theta:g} and h_uav {h_uav:g} has radius "
                        f"{ring:.0f} m, wider than the {diagonal:.0f} m diagonal of the "
                        f"{self.extent[0]:g} x {self.extent[1]:g} m extent, so no user "
                        "stands on the extent; enlarge the extent"
                    )

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

    def points(self) -> list[tuple[float, ...]]:
        """Grid points as tuples of axis values, in row-major axis order."""
        combos: list[tuple[float, ...]] = [()]
        for axis in self.axes:
            combos = [prior + (v,) for prior in combos for v in axis.values]
        return combos

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


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    axis_names: tuple[str, ...]
    rows: tuple[SweepRow, ...]


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


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


#: Ground-track length, in grid periods, that one pass of the 3D engine
#: takes: several cities' UAV placement, user placement and one
#: ground-track kernel call, which cost about 0.45 ms for a single
#: one-user city.  A pass holds the fewest cities whose rings reach
#: citygeom.tracks_per_call of the ring radius, which a SweepSpec keeps
#: within the extent's diagonal (no user stands farther from its UAV,
#: so a wider ring is refused before any point runs); each track is cut
#: where the tallest roof its city's ring can reach stops mattering (see
#: first_blockers) and in-building ring positions are dropped, so a ring
#: position lists about half the entries per period that a geometry-engine
#: link does, and the budget is larger than simgeom.CHUNK_PERIODS.
PASS_PERIODS = 16384


def _estimate_sim3d(
    spec: SweepSpec, params: BuiltUpParams, theta: float, phi: float | None, h_uav: float,
    seed: int,
) -> PLosEstimate:
    """Fresh-city protocol at one point of spec: per run, a new city with
    its UAV and the pooled LoS states of every valid user on the theta
    circle (one user at azimuth phi when phi is fixed, or straight under
    the UAV at theta = 90), decided a few cities per pass.  Run i is the
    city key ``run_keys(seed, n_runs)[i]`` (:func:`uavlos.citygeom.run_keys`)."""
    policy = UAV_POLICIES[spec.uav_policy](h_uav)
    directions = user_directions(theta, spec.n_users, phi)
    layout = derive_layout(params, *spec.extent)
    keys = run_keys(seed, spec.n_runs)
    radius = track_length(theta, h_uav, spec.h_rx)
    tracks = tracks_per_call(PASS_PERIODS, radius, layout.period)
    per_pass = -(-tracks // directions[0].size)
    k = 0
    n = 0
    for start in range(0, spec.n_runs, per_pass):
        cities = Cities(params, layout, keys[start:start + per_pass])
        uavs = place_uav(cities, policy)
        run, x, y = place_users(layout, uavs, theta, directions, spec.h_rx)
        n += x.size
        k += x.size - first_blockers(cities, uavs, run, x, y, spec.h_rx)[0].size
    if n == 0:
        raise UavLosError(
            "no valid user positions over the whole sweep point; "
            "enlarge the extent or the user count"
        )
    return PLosEstimate.from_counts(k, n)


def _with_swept_params(base: BuiltUpParams, var: Mapping[str, float]) -> BuiltUpParams:
    """base with the swept alpha and gamma values of one grid point."""
    return replace(base, **{name: var[name] for name in ("alpha", "gamma") if name in var})


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


def _geom_scenario(spec: SweepSpec, var: Mapping[str, float]) -> GeomScenario:
    """The geometry-engine scenario of one grid point of spec."""
    theta, h_uav = _point_angles(spec, var)
    phi = var.get("phi", spec.phi)
    return GeomScenario(
        _with_swept_params(spec.params, var), spec.user_zone, theta,
        phi_deg=(0.0, 90.0) if phi is None else phi, h_uav=h_uav, h_rx=spec.h_rx,
    )


def _estimate_points(
    spec: SweepSpec, vars: list[Mapping[str, float]], seeds: list[int]
) -> tuple[list[PLosEstimate], list[float]]:
    """P_LoS and milliseconds at each grid point of spec: spec's fixed
    values overridden by the swept values in vars[i], estimated by spec's
    engine from seeds[i].

    Consecutive geometry-engine points with the same params (all of them
    unless alpha or gamma is swept) are decided in one
    :func:`uavlos.simgeom.estimate_points` call, and each point's time is
    its share of that call's kernel chunks; sim3d and baseline points are
    estimated and timed one by one.
    """
    estimates: list[PLosEstimate] = []
    ms: list[float] = []
    if spec.engine == "geom":
        points = [(_geom_scenario(spec, var), seed) for var, seed in zip(vars, seeds)]
        for _, group in groupby(points, key=lambda point: point[0].params):
            scenarios, group_seeds = zip(*group)
            group_estimates, seconds = estimate_points(scenarios, spec.n_runs, group_seeds)
            estimates += group_estimates
            ms += [1000.0 * sec for sec in seconds]
        return estimates, ms
    for var, seed in zip(vars, seeds):
        start = time.perf_counter()
        theta, h_uav = _point_angles(spec, var)
        if spec.engine == "sim3d":
            params = _with_swept_params(spec.params, var)
            est = _estimate_sim3d(spec, params, theta, var.get("phi", spec.phi), h_uav, seed)
        else:
            est = PLosEstimate.exact(evaluate(_resolve_model(spec, var), theta, h_uav, spec.h_rx))
        estimates.append(est)
        ms.append((time.perf_counter() - start) * 1000.0)
    return estimates, ms


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Walk the sweep grid and estimate P_LoS at every point.

    Points are evaluated in row-major axis order, each from its own
    seed substream, so results are independent of evaluation order and
    reproducible from (spec, seed) alone.  A row's ms is its point's
    estimation time; geometry-engine points share kernel calls, and each
    takes a share of every call's wall time in proportion to its links
    in that call, so the rows sum to the sweep's estimation time.
    """
    axis_names = tuple(a.name for a in spec.axes)
    combos = spec.points()
    if spec.engine.startswith("baseline"):
        # Unknown names and gamma/alpha sweeps of theta-only families fail
        # before any work is done.
        _resolve_model(spec, dict(zip(axis_names, combos[0])))

    seeds = [
        _child_seed(np.random.default_rng(child))
        for child in np.random.SeedSequence(spec.seed).spawn(len(combos))
    ]
    vars = [dict(zip(axis_names, combo)) for combo in combos]
    estimates, ms = _estimate_points(spec, vars, seeds)
    rows = tuple(
        SweepRow(values=combo, estimate=est, ms=t) for combo, est, t in zip(combos, estimates, ms)
    )
    return SweepResult(spec=spec, axis_names=axis_names, rows=rows)


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
    before either engine runs.
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
    seeds = [
        _child_seed(np.random.default_rng(child))
        for child in np.random.SeedSequence(seed).spawn(2 * len(thetas))
    ]
    vars = [{"theta": theta} for theta in thetas]
    est3d, _ = _estimate_points(spec3d, vars, seeds[0::2])
    estgm, _ = _estimate_points(specgm, vars, seeds[1::2])
    values = {
        name: [est.p_hat for est in _estimate_points(spec, vars, [seed] * len(vars))[0]]
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


def result_to_csv(result: SweepResult, include_timing: bool = False) -> str:
    """Render a sweep result as CSV text (spec echo, header, rows)."""
    lines = [f"# spec: {result.spec.echo()}"]
    lines.append(",".join(result.axis_names) + ",n,k,p_hat,ci_lo,ci_hi,ms_per_point")
    for row in result.rows:
        est = row.estimate
        ms = row.ms if include_timing else 0.0
        lines.append(
            ",".join(f"{v:g}" for v in row.values)
            + f",{est.n},{est.k},{est.p_hat:.6f},{est.ci_lo:.6f},{est.ci_hi:.6f},{ms:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path: str | Path, include_timing: bool = False) -> None:
    """Write CSV atomically (temp file in place, then rename)."""
    atomic_write_text(Path(path), result_to_csv(result, include_timing))


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
