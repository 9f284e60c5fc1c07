"""Command-line front end for the sweep harness.

Subcommands cover the standard experiment families (theta sweep,
radius sweep, theta/phi heatmap, gamma/theta surface, engine
comparison) plus city export.  :data:`_SUBCOMMANDS` is the one table
of them: each entry lists its option flags in help order, and a sweep
entry also the axes it sweeps, as (axis name, grid option) pairs.
Every option's built-in default is in :data:`_DEFAULTS`; an entry
overrides only its output name and, for the heatmap, the user zone.
Options come from flags, with an optional line-oriented ``key=value``
config file behind ``--config``; flags win over file keys, file keys
win over built-in defaults.

A clean command line, one that names a subcommand and gives each of its
exact long flags a value not starting with "-", is read straight from
:data:`_SUBCOMMANDS` and the option table :data:`_OPTS`, and builds no
argparse parser, which costs a fresh process a few milliseconds.  Every
other line goes to the full argparse parser, which prints help and usage
errors.  That includes any value starting with "-", since only
argparse's rules say whether such a value is a negative number or a
flag.  Both paths give the same namespace.

:func:`main` parses, resolves the options, and hands any entry with axes
to one sweep runner and the others to city export or engine comparison;
CSV text is rendered by :mod:`uavlos.harness`.

Exit codes: 0 success, 2 usage or configuration error, 1 runtime
failure.  Output files are written to a temp name and renamed, so a
failed run never leaves a partial file behind.

:func:`main` owns its process, so it also tells glibc to serve arrays
from the heap and keep freed heap memory (:func:`_keep_freed_heap`):
the engines allocate and free the same working set once per kernel
call, and a heap trimmed after every call, or an array mapped anew on
every allocation, must fault its pages back in on the next.  Importing
the package changes no allocator setting.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from .baselines import load_model_set
from .citygeom import ENVIRONMENTS, BuiltUpParams
from .errors import IllegalSpec, InvalidParams, ParseError
from .harness import (
    UAV_POLICIES,
    USER_ZONES,
    SweepAxis,
    SweepSpec,
    atomic_write_text,
    compare_engines,
    compare_to_csv,
    run_sweep,
    write_csv,
)
from .sim3d import city_to_text, generate_city

#: Most values a lo:hi:step grid expands to, 500 times the largest
#: default grid; a longer range, or one whose values stop growing, is
#: refused while it expands.
MAX_GRID_VALUES = 10_000


class _ConfigError(Exception):
    pass


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: "10,20,45" or "lo:hi:step" (hi inclusive)."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi, step = (float(p) for p in text.split(":"))
            if step <= 0.0:
                raise ValueError("step must be positive")
            values = []
            i = 0
            while lo + i * step <= hi + 1e-9:
                if i == MAX_GRID_VALUES:
                    raise ValueError(f"more than {MAX_GRID_VALUES} values")
                values.append(round(lo + i * step, 10))
                i += 1
        else:
            values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: no values")
    return tuple(values)


def _parse_extent(text: str) -> tuple[float, float]:
    parts = text.lower().replace("m", "").split("x")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return (v, v)
        if len(parts) == 2:
            return (float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad extent {text!r}; use 3000 or 3000x4000")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


# dest -> argparse kwargs, --config's too, which every subcommand takes;
# config-file values go through the same type (a boolean for store-true
# flags) and choices
_OPTS: dict[str, dict] = {
    "env": dict(choices=sorted(ENVIRONMENTS), help="named environment"),
    "alpha": dict(type=float, help="built-up area ratio (with --beta --gamma)"),
    "beta": dict(type=float, help="buildings per km^2"),
    "gamma": dict(type=float, help="Rayleigh height scale in m"),
    "extent": dict(type=_parse_extent, help="city extent, e.g. 3000 or 3000x4000"),
    "engine": dict(help="sim3d, geom or baseline:<name>"),
    "runs": dict(type=int, help="Monte-Carlo runs per grid point"),
    "seed": dict(type=int, help="master seed (required)"),
    "uav_height": dict(type=float, help="UAV altitude in m"),
    "uav_policy": dict(choices=list(UAV_POLICIES)),
    "rx_height": dict(type=float, help="user height in m"),
    "n_users": dict(type=int, help="users on the elevation circle (sim3d)"),
    "user_zone": dict(choices=list(USER_ZONES)),
    "out": dict(help="output path"),
    "models": dict(help="baseline model set file"),
    "timing": dict(action="store_true", help="write measured ms_per_point"),
    "theta_grid": dict(type=_parse_grid, help="theta grid, list or lo:hi:step"),
    "phi_grid": dict(type=_parse_grid, help="phi grid"),
    "gamma_grid": dict(type=_parse_grid, help="gamma grid"),
    "radius_grid": dict(type=_parse_grid, help="ground radius grid in m"),
    "altitudes": dict(type=_parse_grid, help="UAV altitude series in m"),
    "thetas": dict(type=_parse_grid, help="comparison theta grid"),
    "runs_3d": dict(type=int, help="3D engine runs per point"),
    "runs_geom": dict(type=int, help="geometry engine runs per point"),
    "config": dict(help="key=value config file; flags override"),
}

_PARAM_OPTS = ["env", "alpha", "beta", "gamma"]
_COMMON = _PARAM_OPTS + ["extent", "seed", "out"]

#: Built-in default of every option that has one; an option without one
#: resolves to None when not given, which for seed is an error.
_DEFAULTS: dict = {
    "extent": (3000.0, 3000.0), "engine": "geom", "runs": 1000,
    "theta_grid": tuple(float(t) for t in range(5, 95, 5)),
    "phi_grid": tuple(float(p) for p in range(0, 95, 5)),
    "gamma_grid": tuple(float(g) for g in range(5, 55, 5)),
    "radius_grid": tuple(float(r) for r in range(50, 1050, 50)),
    "altitudes": (100.0, 200.0, 500.0),
    "thetas": tuple(float(t) for t in range(10, 90, 10)), "runs_3d": 500, "runs_geom": 1000,
    "uav_height": 100.0, "uav_policy": "random", "rx_height": 1.5, "n_users": 360,
    "user_zone": "mixed", "timing": False,
}


def _sweep(help: str, axes: tuple[tuple[str, str], ...], **defaults) -> dict:
    """A sweep subcommand's entry: its axes as (axis name, grid option)
    pairs, swept in that order, and the defaults it overrides.  Its
    flags take the grid options in axis order, and --uav-height unless
    the altitude is swept."""
    grids = [grid for _, grid in axes]
    fixed = [] if any(name == "h_uav" for name, _ in axes) else ["uav_height"]
    opts = _COMMON + ["engine", "runs", *grids, *fixed, "uav_policy", "rx_height",
                      "n_users", "user_zone", "models", "timing"]
    return {"opts": opts, "axes": axes, "defaults": defaults, "help": help}


_SUBCOMMANDS: dict[str, dict] = {
    "plos-vs-theta": _sweep(
        "sweep P_LoS over elevation angle", (("theta", "theta_grid"),),
        out="plos_vs_theta.csv",
    ),
    "plos-vs-radius": _sweep(
        "sweep P_LoS over ground radius, one series per altitude",
        (("radius", "radius_grid"), ("h_uav", "altitudes")), out="plos_vs_radius.csv",
    ),
    "heatmap": _sweep(
        "sweep P_LoS over elevation and azimuth",
        (("theta", "theta_grid"), ("phi", "phi_grid")), out="heatmap.csv", user_zone="street",
    ),
    "param-surface": _sweep(
        "sweep P_LoS over height scale gamma and elevation",
        (("gamma", "gamma_grid"), ("theta", "theta_grid")), out="param_surface.csv",
    ),
    "export-city": {
        "opts": _COMMON,
        "defaults": {"out": "city.txt"},
        "help": "generate a city and write its height grid to a text file",
    },
    "compare": {
        "opts": _COMMON + ["thetas", "runs_3d", "runs_geom", "uav_height", "rx_height",
                           "n_users", "models"],
        "defaults": {"out": "compare.csv"},
        "help": "run both engines and loaded baselines over a theta grid",
    },
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's full parser, every subcommand and its help (see
    :func:`_parse_args`)."""
    parser = argparse.ArgumentParser(
        prog="uavlos",
        description="Monte-Carlo estimation of UAV-to-ground line-of-sight probability",
    )
    subparsers = parser.add_subparsers(dest="cmd", required=True)
    for name, info in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=info["help"])
        for dest in [*info["opts"], "config"]:
            flag = "--" + dest.replace("_", "-")
            sub.add_argument(flag, dest=dest, default=None, **_OPTS[dest])
    return parser


def _read_table(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser gives a clean command line, read
    straight from :data:`_SUBCOMMANDS` and :data:`_OPTS`; None for any
    other line.

    A clean line names a subcommand, then gives only that subcommand's
    exact long flags, each but --timing followed by a value that does
    not start with "-".  Each value goes through its option's type and
    choices, and a repeated flag keeps its last value.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    dests = [*_SUBCOMMANDS[argv[0]]["opts"], "config"]
    flags = {"--" + dest.replace("_", "-"): dest for dest in dests}
    values = dict.fromkeys(dests)
    rest = iter(argv[1:])
    for flag in rest:
        dest = flags.get(flag)
        if dest is None:
            return None
        kwargs = _OPTS[dest]
        if kwargs.get("action"):
            values[dest] = True
            continue
        text = next(rest, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    return argparse.Namespace(cmd=argv[0], **values)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv as the full parser would, building it only when needed.

    A clean command line is read straight from the subcommand table
    (:func:`_read_table`), which builds no parser.  Anything else goes
    through the full parser: help, an unknown command, an abbreviated
    or unknown flag, a --flag=value form, a missing value or one that
    fails its type or choices.  So does any value that starts with "-",
    such as -1 or -inf, since only argparse's own rules say whether such
    a value is a number or a flag; its messages and usage lines are
    argparse's.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_table(argv)
    return build_parser().parse_args(argv) if args is None else args


def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise _ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        if key in values:
            raise _ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge flag values, config-file keys and built-in defaults: every
    default of :data:`_DEFAULTS` and of the subcommand's entry, each of
    its options overridden by the config file and then by its flag."""
    info = _SUBCOMMANDS[args.cmd]
    known = set(info["opts"])
    config: dict[str, str] = {}
    if args.config:
        for key, value in _read_config(args.config).items():
            norm = key.replace("-", "_")
            if norm not in known:
                raise _ConfigError(f"unknown config key {key!r} for {args.cmd}")
            if norm in config:
                raise _ConfigError(f"config key {key!r} already given as another spelling")
            config[norm] = value
    opts = {**_DEFAULTS, **info["defaults"]}
    for dest in info["opts"]:
        value = getattr(args, dest, None)
        if value is None and dest in config:
            kwargs, key = _OPTS[dest], dest.replace("_", "-")
            conv = _parse_bool if kwargs.get("action") else kwargs.get("type", str)
            try:
                value = conv(config[dest])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _ConfigError(f"config key {key!r}: {exc}") from exc
            if "choices" in kwargs and value not in kwargs["choices"]:
                raise _ConfigError(
                    f"config key {key!r}: {value!r} is not one of {kwargs['choices']}"
                )
        opts[dest] = opts.get(dest) if value is None else value
    if opts["seed"] is None:
        raise _ConfigError("--seed is required (no silent entropy)")
    return opts


def _params_from(opts: dict) -> BuiltUpParams:
    explicit = [opts.get(k) for k in ("alpha", "beta", "gamma")]
    if opts.get("env") is not None:
        if any(v is not None for v in explicit):
            raise _ConfigError("give --env or an explicit --alpha --beta --gamma, not both")
        return ENVIRONMENTS[opts["env"]]
    if all(v is None for v in explicit):
        raise _ConfigError("no environment given; use --env or --alpha --beta --gamma")
    if any(v is None for v in explicit):
        raise _ConfigError("alpha, beta and gamma must be given together")
    return BuiltUpParams(alpha=explicit[0], beta=explicit[1], gamma=explicit[2])


def _load_models(opts: dict):
    if not opts.get("models"):
        return None
    path = Path(opts["models"])
    try:
        text = path.read_text()
    except OSError as exc:
        raise _ConfigError(f"cannot read model set {path}: {exc}") from exc
    return load_model_set(text)


def _run_sweep_command(opts: dict, axes: tuple[SweepAxis, ...]) -> int:
    spec = SweepSpec(
        engine=opts["engine"], params=_params_from(opts), extent=opts["extent"], axes=axes,
        h_uav=opts["uav_height"], h_rx=opts["rx_height"], n_runs=opts["runs"],
        seed=opts["seed"], user_zone=opts["user_zone"], uav_policy=opts["uav_policy"],
        n_users=opts["n_users"], models=_load_models(opts),
    )
    write_csv(run_sweep(spec), opts["out"], include_timing=opts["timing"])
    return 0


def _export_city(opts: dict) -> int:
    extent = opts["extent"]
    city = generate_city(_params_from(opts), extent[0], extent[1], opts["seed"])
    atomic_write_text(Path(opts["out"]), city_to_text(city))
    return 0


def _compare(opts: dict) -> int:
    params = _params_from(opts)
    settings = dict(
        n3d=opts["runs_3d"], ngeom=opts["runs_geom"], seed=opts["seed"],
        extent=opts["extent"], h_uav=opts["uav_height"], h_rx=opts["rx_height"],
        n_users=opts["n_users"],
    )
    rows = compare_engines(params, opts["thetas"], models=_load_models(opts), **settings)
    atomic_write_text(Path(opts["out"]), compare_to_csv(rows, params, **settings))
    return 0


#: glibc's mallopt parameters for the trim threshold, above which freed
#: memory at the top of the heap is handed back to the system, and the
#: mmap threshold, from which a request gets a mapping of its own that
#: is unmapped when freed.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Trim threshold the CLI sets, above what one kernel call allocates and
#: frees (glibc's default is 128 KiB).
HEAP_TRIM_BYTES = 64 << 20
#: Mmap threshold the CLI sets: 32 MiB, glibc's ceiling for the threshold
#: it raises by itself as mapped blocks are freed, which setting either
#: threshold stops.  Left at its 128 KiB start, every larger array the
#: free heap cannot hold, such as a 3D-engine block's window roofs, is
#: mapped, faulted in page by page and unmapped again each time: the
#: first sim3d urban run at theta 2, 5 and 10 took about 6 000 page
#: faults instead of about 600.
HEAP_MMAP_BYTES = 32 << 20


def _keep_freed_heap() -> bool:
    """Raise glibc's mmap threshold to HEAP_MMAP_BYTES and its heap trim
    threshold to HEAP_TRIM_BYTES, so that arrays come from the heap and
    the memory one kernel call frees stays mapped for the next instead
    of being returned and faulted in again.  Does nothing where libc
    cannot be loaded or has no mallopt; returns whether both settings
    took."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mapped = mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_BYTES) == 1
    return mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_BYTES) == 1 and mapped


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    args = _parse_args(argv)
    try:
        opts = _resolve_options(args)
        info = _SUBCOMMANDS[args.cmd]
        if "axes" in info:
            axes = tuple(SweepAxis(name, opts[grid]) for name, grid in info["axes"])
            return _run_sweep_command(opts, axes)
        return _export_city(opts) if args.cmd == "export-city" else _compare(opts)
    except (_ConfigError, ParseError, IllegalSpec, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        # An exception with no text, such as a MemoryError, is named by its type.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
