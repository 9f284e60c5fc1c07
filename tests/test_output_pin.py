"""Byte pins of six short CLI runs.

Each case runs one subcommand at small sizes and compares the CSV it
writes with the exact text below.  A change that keeps every random
draw, every geometric decision and every formatting rule passes; any
change to the RNG stream, the ground-track rules or the CSV layout
fails here and has to update the pinned text on purpose.
"""

import pytest

from uavlos.cli import main

PINS = {
    "plos-vs-theta": (
        ["plos-vs-theta", "--engine", "geom", "--env", "urban", "--user-zone", "mixed",
         "--theta-grid", "10,45,80", "--runs", "200", "--seed", "11"],
        """\
# spec: engine=geom alpha=0.3 beta=500 gamma=15 extent=3000x3000 axes=theta:10,45,80 h_uav=100 h_rx=1.5 n_runs=200 seed=11 user_zone=mixed
theta,n,k,p_hat,ci_lo,ci_hi,ms_per_point
10,200,29,0.145000,0.102893,0.200488,0.000000
45,200,124,0.620000,0.551066,0.684411,0.000000
80,200,187,0.935000,0.891980,0.961624,0.000000
""",
    ),
    "heatmap": (
        ["heatmap", "--engine", "geom", "--env", "high-rise", "--user-zone", "street",
         "--theta-grid", "45,75", "--phi-grid", "0,45,90", "--runs", "150", "--seed", "12"],
        """\
# spec: engine=geom alpha=0.5 beta=300 gamma=50 extent=3000x3000 axes=theta:45,75;phi:0,45,90 h_uav=100 h_rx=1.5 n_runs=150 seed=12 user_zone=street
theta,phi,n,k,p_hat,ci_lo,ci_hi,ms_per_point
45,0,150,0,0.000000,0.000000,0.024971,0.000000
45,45,150,8,0.053333,0.027269,0.101705,0.000000
45,90,150,150,1.000000,0.975029,1.000000,0.000000
75,0,150,32,0.213333,0.155361,0.285622,0.000000
75,45,150,79,0.526667,0.447099,0.604902,0.000000
75,90,150,150,1.000000,0.975029,1.000000,0.000000
""",
    ),
    "heatmap-sim3d": (
        ["heatmap", "--engine", "sim3d", "--env", "dense-urban", "--runs", "20",
         "--theta-grid", "30,90", "--phi-grid", "0,45", "--seed", "3"],
        """\
# spec: engine=sim3d alpha=0.5 beta=300 gamma=20 extent=3000x3000 axes=theta:30,90;phi:0,45 h_uav=100 h_rx=1.5 n_runs=20 seed=3 uav_policy=random n_users=360
theta,phi,n,k,p_hat,ci_lo,ci_hi,ms_per_point
30,0,10,8,0.800000,0.490157,0.943319,0.000000
30,45,8,1,0.125000,0.022417,0.470895,0.000000
90,0,12,12,1.000000,0.757499,1.000000,0.000000
90,45,12,12,1.000000,0.757499,1.000000,0.000000
""",
    ),
    "compare": (
        ["compare", "--env", "urban", "--thetas", "20,60", "--runs-3d", "4",
         "--runs-geom", "200", "--n-users", "90", "--seed", "13"],
        """\
# spec: engine=compare alpha=0.3 beta=500 gamma=15 extent=3000x3000 thetas=20,60 n3d=4 ngeom=200 h_uav=100 h_rx=1.5 n_users=90 seed=13 models=grid
theta,n_3d,k_3d,p_3d,ci_lo_3d,ci_hi_3d,n_geom,k_geom,p_geom,ci_lo_geom,ci_hi_geom,abs_delta,grid
20,214,67,0.313084,0.254708,0.378053,200,59,0.295000,0.236138,0.361588,0.018084,0.332545
60,259,198,0.764479,0.709169,0.812057,200,150,0.750000,0.685658,0.804919,0.014479,0.996732
""",
    ),
    "param-surface": (
        ["param-surface", "--engine", "geom", "--env", "urban", "--gamma-grid", "10,30",
         "--theta-grid", "20,60", "--runs", "150", "--seed", "14"],
        """\
# spec: engine=geom alpha=0.3 beta=500 gamma=15 extent=3000x3000 axes=gamma:10,30;theta:20,60 h_uav=100 h_rx=1.5 n_runs=150 seed=14 user_zone=mixed
gamma,theta,n,k,p_hat,ci_lo,ci_hi,ms_per_point
10,20,150,69,0.460000,0.382234,0.539763,0.000000
10,60,150,111,0.740000,0.664434,0.803580,0.000000
30,20,150,19,0.126667,0.082611,0.189368,0.000000
30,60,150,76,0.506667,0.427496,0.585505,0.000000
""",
    ),
    "plos-vs-radius": (
        ["plos-vs-radius", "--engine", "geom", "--env", "suburban", "--radius-grid", "100,400",
         "--altitudes", "50,200", "--runs", "150", "--seed", "15"],
        """\
# spec: engine=geom alpha=0.1 beta=750 gamma=8 extent=3000x3000 axes=radius:100,400;h_uav:50,200 h_rx=1.5 n_runs=150 seed=15 user_zone=mixed
radius,h_uav,n,k,p_hat,ci_lo,ci_hi,ms_per_point
100,50,150,121,0.806667,0.736136,0.861882,0.000000
100,200,150,141,0.940000,0.889909,0.968116,0.000000
400,50,150,51,0.340000,0.269032,0.418959,0.000000
400,200,150,117,0.780000,0.707175,0.838841,0.000000
""",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_cli_csv_bytes_are_pinned(name, tmp_path):
    argv, expected = PINS[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == expected
