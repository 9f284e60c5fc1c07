"""Byte pins of seven short CLI runs, and digests and work counts of the
benchmark's command lines.

Each case runs one subcommand at small sizes and compares the CSV it
writes with the exact text below.  A change that keeps every random
draw, every geometric decision and every formatting rule passes; any
change to the RNG stream, the ground-track rules or the CSV layout
fails here and has to update the pinned text on purpose.
"""

import hashlib

import pytest

from uavlos import harness
from uavlos.cli import main

PINS = {
    "plos-vs-theta": (
        ["plos-vs-theta", "--engine", "geom", "--env", "urban", "--user-zone", "mixed",
         "--theta-grid", "10,45,80", "--runs", "200", "--seed", "11"],
        """\
# spec: engine=geom alpha=0.3 beta=500 gamma=15 extent=3000x3000 axes=theta:10,45,80 h_uav=100 h_rx=1.5 n_runs=200 seed=11 user_zone=mixed
theta,n,k,p_hat,ci_lo,ci_hi,ms_per_point
10,200,24,0.120000,0.081979,0.172344,0.000000
45,200,144,0.720000,0.654076,0.777632,0.000000
80,200,190,0.950000,0.910421,0.972618,0.000000
""",
    ),
    "heatmap": (
        ["heatmap", "--engine", "geom", "--env", "high-rise", "--user-zone", "street",
         "--theta-grid", "45,75", "--phi-grid", "0,45,90", "--runs", "150", "--seed", "12"],
        """\
# spec: engine=geom alpha=0.5 beta=300 gamma=50 extent=3000x3000 axes=theta:45,75;phi:0,45,90 h_uav=100 h_rx=1.5 n_runs=150 seed=12 user_zone=street
theta,phi,n,k,p_hat,ci_lo,ci_hi,ms_per_point
45,0,150,3,0.020000,0.006825,0.057148,0.000000
45,45,150,6,0.040000,0.018459,0.084515,0.000000
45,90,150,150,1.000000,0.975029,1.000000,0.000000
75,0,150,40,0.266667,0.202371,0.342616,0.000000
75,45,150,69,0.460000,0.382234,0.539763,0.000000
75,90,150,150,1.000000,0.975029,1.000000,0.000000
""",
    ),
    "heatmap-sim3d": (
        ["heatmap", "--engine", "sim3d", "--env", "dense-urban", "--runs", "20",
         "--theta-grid", "30,90", "--phi-grid", "0,45", "--seed", "3"],
        """\
# spec: engine=sim3d alpha=0.5 beta=300 gamma=20 extent=3000x3000 axes=theta:30,90;phi:0,45 h_uav=100 h_rx=1.5 n_runs=20 seed=3 uav_policy=random n_users=360
theta,phi,n,k,p_hat,ci_lo,ci_hi,ms_per_point
30,0,9,4,0.444444,0.188775,0.733353,0.000000
30,45,9,0,0.000000,0.000000,0.299153,0.000000
90,0,6,6,1.000000,0.609657,1.000000,0.000000
90,45,9,9,1.000000,0.700847,1.000000,0.000000
""",
    ),
    "compare": (
        ["compare", "--env", "urban", "--thetas", "20,60", "--runs-3d", "4",
         "--runs-geom", "200", "--n-users", "90", "--seed", "13"],
        """\
# spec: engine=compare alpha=0.3 beta=500 gamma=15 extent=3000x3000 thetas=20,60 n3d=4 ngeom=200 h_uav=100 h_rx=1.5 n_users=90 seed=13 models=grid
theta,n_3d,k_3d,p_3d,ci_lo_3d,ci_hi_3d,n_geom,k_geom,p_geom,ci_lo_geom,ci_hi_geom,abs_delta,grid
20,232,69,0.297414,0.242279,0.359148,200,56,0.280000,0.222368,0.345924,0.017414,0.332545
60,259,204,0.787645,0.733819,0.833062,200,141,0.705000,0.638412,0.763862,0.082645,0.996732
""",
    ),
    "param-surface": (
        ["param-surface", "--engine", "geom", "--env", "urban", "--gamma-grid", "10,30",
         "--theta-grid", "20,60", "--runs", "150", "--seed", "14"],
        """\
# spec: engine=geom alpha=0.3 beta=500 gamma=15 extent=3000x3000 axes=gamma:10,30;theta:20,60 h_uav=100 h_rx=1.5 n_runs=150 seed=14 user_zone=mixed
gamma,theta,n,k,p_hat,ci_lo,ci_hi,ms_per_point
10,20,150,70,0.466667,0.388659,0.546339,0.000000
10,60,150,129,0.860000,0.795447,0.906574,0.000000
30,20,150,13,0.086667,0.051347,0.142629,0.000000
30,60,150,98,0.653333,0.574203,0.724806,0.000000
""",
    ),
    "plos-vs-radius": (
        ["plos-vs-radius", "--engine", "geom", "--env", "suburban", "--radius-grid", "100,400",
         "--altitudes", "50,200", "--runs", "150", "--seed", "15"],
        """\
# spec: engine=geom alpha=0.1 beta=750 gamma=8 extent=3000x3000 axes=radius:100,400;h_uav:50,200 h_rx=1.5 n_runs=150 seed=15 user_zone=mixed
radius,h_uav,n,k,p_hat,ci_lo,ci_hi,ms_per_point
100,50,150,115,0.766667,0.692841,0.827175,0.000000
100,200,150,138,0.920000,0.865377,0.953647,0.000000
400,50,150,47,0.313333,0.244548,0.391441,0.000000
400,200,150,122,0.813333,0.743441,0.867577,0.000000
""",
    ),
    # Rings of 25.2 and 12.5 grid periods: the 3D engine decides their links
    # near their users first, then walks the ones left clear.
    "plos-vs-theta-sim3d-staged": (
        ["plos-vs-theta", "--engine", "sim3d", "--env", "urban", "--theta-grid", "5,10",
         "--runs", "4", "--n-users", "90", "--seed", "15"],
        """\
# spec: engine=sim3d alpha=0.3 beta=500 gamma=15 extent=3000x3000 axes=theta:5,10 h_uav=100 h_rx=1.5 n_runs=4 seed=15 uav_policy=random n_users=90
theta,n,k,p_hat,ci_lo,ci_hi,ms_per_point
5,161,3,0.018634,0.006357,0.053346,0.000000
10,236,29,0.122881,0.086935,0.170908,0.000000
""",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_cli_csv_bytes_are_pinned(name, tmp_path):
    argv, expected = PINS[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == expected


#: The benchmark's command lines (perfbench/workloads.py), without
#: --seed and --out.
BENCHMARK_LINES = {
    "geom-theta-sweep": ["plos-vs-theta", "--engine", "geom", "--env", "urban",
                         "--user-zone", "mixed", "--runs", "2000"],
    "compare-urban": ["compare", "--env", "urban", "--runs-3d", "150", "--runs-geom", "6000"],
    "heatmap-highrise-street": ["heatmap", "--engine", "geom", "--env", "high-rise",
                                "--user-zone", "street", "--theta-grid", "5:85:5",
                                "--phi-grid", "0:90:10", "--runs", "200"],
}


def benchmark_csv(name, seed, tmp_path) -> bytes:
    """The CSV bytes the benchmark command line name writes at seed."""
    out = tmp_path / f"{name}.csv"
    assert main(BENCHMARK_LINES[name] + ["--seed", str(seed), "--out", str(out)]) == 0
    return out.read_bytes()


#: sha256 of the CSV of the benchmark's heatmap-highrise-street command
#: line (170 points of 200 links) at two seeds: every row's counts and
#: bounds, and the layout of the rows built from arrays.
HEATMAP_DIGESTS = {
    1: "8ccae5cf28ebeb99a9226a356240fabf71ca093704b39c2b8b6271624618f534",
    7: "d3ac8b809805a5020f73469672cc9d586b9b0c73b1fbf40e0e87baae50187c79",
}


@pytest.mark.parametrize("seed", sorted(HEATMAP_DIGESTS))
def test_benchmark_heatmap_csv_digest_is_pinned(seed, tmp_path):
    csv = benchmark_csv("heatmap-highrise-street", seed, tmp_path)
    assert hashlib.sha256(csv).hexdigest() == HEATMAP_DIGESTS[seed]


#: sha256 of the CSV of the benchmark's other two command lines at two
#: seeds: both engines and the baseline over theta 10..80, and the
#: geometry engine over theta 5..90.
BENCHMARK_DIGESTS = {
    ("compare-urban", 1): "f261857db7b5d60e26c71666d127f14d6f7a58ced0e5b42eaf6d01f903601ed4",
    ("compare-urban", 7): "daa325b06a1216c9657110f7f8740733d8ca19ab98851dd29a5cddf40ebd60af",
    ("geom-theta-sweep", 1): "26460dd6787bfde888fe53ab77ae3b5f0e212efe2c4ecb1b8a584bda39305261",
    ("geom-theta-sweep", 7): "154c3d3520dadbafbde03795e977bbaa7097f9e0d4e863b580fb679920facc24",
}


@pytest.mark.parametrize("name,seed", sorted(BENCHMARK_DIGESTS))
def test_benchmark_csv_digest_is_pinned(name, seed, tmp_path):
    csv = benchmark_csv(name, seed, tmp_path)
    assert hashlib.sha256(csv).hexdigest() == BENCHMARK_DIGESTS[name, seed]


#: Work of each benchmark command line at seed 1: the entries every
#: ground-track kernel call lists, summed, the kernel calls and the 3D
#: engine's blocks.  The entries depend only on the links and the
#: staging rule, not on how calls and blocks split them.
#:
#: - geom-theta-sweep: 36 000 links in 3 chunks of CHUNK_LINKS = 12 288.
#:   A first-stage call takes CALL_PERIODS = 24 576 periods, a link
#:   counting its first NEAR_PERIODS + 1 = 3 periods where staged and
#:   its track plus one elsewhere, so each full chunk takes two; the
#:   first chunk, which holds the staged theta 5..25 links, takes the
#:   one second-stage call: 6.
#: - heatmap-highrise-street: 34 000 links in 3 chunks, two first-stage
#:   calls for each full chunk and one for the last, and a second-stage
#:   call for the staged low thetas of the first: 6.
#: - compare-urban, geometry side: 48 000 links in 4 chunks: two
#:   first-stage calls for each full chunk, but three for the one of
#:   most theta 30 links, 3.81 periods long and counting 4.81, of which
#:   a call takes 5 104; one for the last; and one second-stage call,
#:   for the staged theta 10 and 20 links of the first chunk: 9.
#:   3D side: a city counts its 360 ring positions plus its window
#:   cells, 1 036 at theta 10, 529 at 20 and 441 at 30, so a block of
#:   BLOCK_ELEMENTS = 65 536 elements holds 63, 123 and 148 cities, and
#:   the 150 cities of a point take 3, 2 and 2 blocks there and one at
#:   each of theta 40..80: 12 blocks, whose links fill 35 calls.
BENCHMARK_WORK = {
    "geom-theta-sweep": (56_004, 6, 0),
    "compare-urban": (339_474, 44, 12),
    "heatmap-highrise-street": (52_947, 6, 0),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_WORK))
def test_benchmark_work_is_counted_exactly(name, tmp_path, kernel_calls, monkeypatch):
    blocks = []
    place_uav = harness.place_uav

    def counted(cities, policy):
        blocks.append(cities.keys.size)
        return place_uav(cities, policy)

    monkeypatch.setattr(harness, "place_uav", counted)
    benchmark_csv(name, 1, tmp_path)
    work = (sum(call.entries for call in kernel_calls), len(kernel_calls), len(blocks))
    assert work == BENCHMARK_WORK[name]
