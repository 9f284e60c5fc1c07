"""The CLI's robustness contract, over every subcommand.

Each example is one command line of one subcommand whose options are
drawn from edge values: 0, negatives, nan, inf, 1e-300, 1e300, huge
ints, and the urban grid's period and street width, where coordinates
meet the band edges.  Run counts and ring sizes are drawn small, so
that every legal command line is a short job, or past 2^63, which the
spec must refuse at once.  The command runs
:func:`uavlos.cli.main` in a forked child, one at a time, under an
address-space limit and an alarm set on that child only, and must end
with exit 0, or with exit 1 or 2 and a one-line error message: no
traceback, no MemoryError (numpy's says "Unable to allocate"), no
timeout.
"""

import contextlib
import io
import os
import resource
import signal
import tempfile
import traceback

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavlos import cli

#: Address space a child may add to what the test process has mapped:
#: every legal command line here needs a few MB, an unbounded allocation
#: fails with MemoryError.
_HEADROOM = 512 << 20
#: Seconds a child may run before its alarm kills it.
_ALARM_S = 20
#: Exit status of a child whose main raised.
_RAISED = 70

_URBAN_PERIOD = "44.721359549995796"  # 1000/sqrt(500): urban's grid period
_URBAN_STREET = "24.49489742783178"  # 1000*sqrt(0.3/500): its street width
_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "0.5", "1.5", "30", "45",
           "90", "100", _URBAN_PERIOD, _URBAN_STREET, "abc"]
_SMALL_INTS = ["-1", "0", "1", "2", "nan"]
_HUGE_INT = str(10**30)

#: A short legal job of every subcommand: urban, a 1 km extent, two
#: thetas, two azimuths, one height scale, radius and altitude, two
#: runs per point and three ring users.
_BASE = {
    "env": "urban", "extent": "1000", "seed": "1", "runs": "2", "runs_3d": "1",
    "runs_geom": "2", "n_users": "3", "theta_grid": "30,60", "phi_grid": "0,45",
    "gamma_grid": "10", "radius_grid": "100", "altitudes": "100", "thetas": "30,60",
}
_URBAN = {"alpha": "0.3", "beta": "500", "gamma": "15"}


def _grid():
    values = st.lists(st.sampled_from(_FLOATS[:-1]), min_size=1, max_size=3).map(",".join)
    ranges = st.tuples(st.sampled_from(["0", "-5", "1e-300", "5", "nan"]),
                       st.sampled_from(["0", "90", "1e300", "inf"]),
                       st.sampled_from(["0", "-1", "nan", "30", "1e-300", "1e300"]))
    return st.one_of(values, ranges.map(":".join), st.sampled_from(["", "abc", "1:2"]))


#: Edge values of each option; None leaves the option out, to its
#: default.  Run counts and ring sizes are never left out, so no default
#: of hundreds of runs applies.
_EDGES = {
    "env": st.sampled_from([None, "high-rise", "suburban", "mars"]),
    **{name: st.sampled_from(_FLOATS) for name in ("alpha", "beta", "gamma")},
    "extent": st.sampled_from([None, "0", "-1", "nan", "inf", "1e300", "1e-300", _URBAN_PERIOD,
                               f"{_URBAN_PERIOD}x1e300", "3000x"]),
    "engine": st.sampled_from([None, "baseline:none", "x"]),
    **{name: st.sampled_from([*_SMALL_INTS, _HUGE_INT])
       for name in ("runs", "runs_3d", "runs_geom")},
    "seed": st.sampled_from([None, "0", "-1", _HUGE_INT, "nan"]),
    "uav_height": st.sampled_from([None, *_FLOATS]),
    "rx_height": st.sampled_from([None, *_FLOATS]),
    "uav_policy": st.sampled_from([*cli.UAV_POLICIES, "moon"]),
    "n_users": st.sampled_from(["-1", "0", "1", _HUGE_INT]),
    "user_zone": st.sampled_from(list(cli.USER_ZONES)),
    "models": st.sampled_from(["missing.txt"]),
    "timing": st.just(True),
    **{grid: _grid() for grid in ("theta_grid", "phi_grid", "gamma_grid", "radius_grid",
                                  "altitudes", "thetas")},
}


@st.composite
def command_lines(draw):
    """A short legal job of one subcommand (_BASE) with up to three of
    its options set to edge values."""
    cmd = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    opts = [dest for dest in cli._SUBCOMMANDS[cmd]["opts"] if dest != "out"]
    values = {dest: _BASE.get(dest) for dest in opts}
    if "engine" in values:
        values["engine"] = draw(st.sampled_from(["geom", "sim3d", "baseline:grid"]))
    for dest in draw(st.lists(st.sampled_from(opts), max_size=3, unique=True)):
        values[dest] = draw(_EDGES[dest])
        if dest in _URBAN:  # explicit params replace the environment
            values = {**values, **{k: v for k, v in _URBAN.items() if values[k] is None}}
            values["env"] = None
    # --flag=value, so that a value such as -inf is not read as a flag.
    flags = ["--" + dest.replace("_", "-") for dest in values]
    return [cmd, *(flag if value is True else f"{flag}={value}"
                   for flag, value in zip(flags, values.values()) if value is not None),
            "--out", "out.csv"]


def _mapped_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[0]) * resource.getpagesize()


def run_in_child(argv, cwd):
    """Run main(argv) in a forked child in cwd, under an address-space
    limit and an alarm; returns (wait status, text written to stderr)."""
    limit = _mapped_bytes() + _HEADROOM
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        code = _RAISED
        err = io.StringIO()
        try:
            os.close(read)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            signal.alarm(_ALARM_S)
            os.chdir(cwd)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        except BaseException:  # noqa: BLE001 - reported to the parent as a traceback
            err.write(traceback.format_exc())
        finally:
            os.write(write, err.getvalue().encode())
            os._exit(code if isinstance(code, int) else _RAISED)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        stderr = pipe.read().decode()
    _, status = os.waitpid(pid, 0)
    return status, stderr


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
# Two grids of about 10 000 values each: 10^8 grid points, refused
# before they are expanded.
@example(argv=["heatmap", "--env=urban", "--theta-grid=1:89.99:0.009",
               "--phi-grid=0:89.99:0.009", "--runs=1", "--seed=1", "--out", "out.csv"])
# 10^30 sim3d cities per point, refused before the first city.
@example(argv=["plos-vs-theta", "--env=urban", "--engine=sim3d", f"--runs={_HUGE_INT}",
               "--seed=1", "--theta-grid=30,60", "--n-users=3", "--out", "out.csv"])
# A building-top UAV drawn from the 5 * 10^8 roofs of a 1e6 m extent,
# refused before the first city.
@example(argv=["plos-vs-theta", "--env=urban", "--engine=sim3d", "--uav-policy=building-top",
               "--extent=1e6", "--runs=1", "--n-users=3", "--theta-grid=30", "--seed=1",
               "--out", "out.csv"])
def test_every_command_line_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as cwd:
        status, stderr = run_in_child(argv, cwd)
        leftovers = sorted(os.listdir(cwd))
    assert os.WIFEXITED(status), f"{argv}: killed by signal {os.WTERMSIG(status)} (timeout)"
    code = os.WEXITSTATUS(status)
    assert "Traceback" not in stderr and "MemoryError" not in stderr, (argv, stderr)
    # numpy's MemoryError subclass, whose message does not name the type.
    assert "Unable to allocate" not in stderr, (argv, stderr)
    if code == 0:
        assert leftovers == ["out.csv"], (argv, leftovers)
        return
    assert code in (1, 2), (argv, code, stderr)
    message = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    assert "error: " in message and message.split("error: ", 1)[1].strip(), (argv, stderr)
    assert leftovers == [], (argv, leftovers)
