import math

import numpy as np
import pytest

from uavlos.citygeom import (
    ENVIRONMENTS,
    GHENT,
    Building,
    BuiltUpParams,
    Crossroad,
    LinkGeometry,
    Node,
    Street,
    classify_point,
    _rayleigh_inplace,
    derive_layout,
    roof_heights,
    run_keys,
    stream_bits,
    stream_uniforms,
    tracks_per_call,
    uav_position_from_angles,
)
from uavlos.errors import InvalidAngle, InvalidParams, OutOfExtent


def test_environment_table():
    assert set(ENVIRONMENTS) == {"suburban", "urban", "dense-urban", "high-rise"}
    assert ENVIRONMENTS["suburban"] == BuiltUpParams(0.1, 750.0, 8.0)
    assert ENVIRONMENTS["urban"] == BuiltUpParams(0.3, 500.0, 15.0)
    assert ENVIRONMENTS["dense-urban"] == BuiltUpParams(0.5, 300.0, 20.0)
    assert ENVIRONMENTS["high-rise"] == BuiltUpParams(0.5, 300.0, 50.0)
    assert GHENT == BuiltUpParams(0.435, 4679.0, 8.8)


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(0.0, 500.0, 15.0), (1.0, 500.0, 15.0), (-0.1, 500.0, 15.0), (0.3, 0.0, 15.0), (0.3, 500.0, 0.0)],
)
def test_bad_built_up_params(alpha, beta, gamma):
    with pytest.raises(InvalidParams):
        BuiltUpParams(alpha, beta, gamma)


def test_urban_layout_frozen_values():
    layout = derive_layout(ENVIRONMENTS["urban"])
    assert layout.w == pytest.approx(24.494897427831777, rel=1e-15)
    assert layout.s == pytest.approx(20.226462122164012, rel=1e-15)
    assert layout.period == pytest.approx(44.72135954999579, rel=1e-15)


def test_dense_urban_layout_frozen_values():
    layout = derive_layout(ENVIRONMENTS["dense-urban"])
    assert layout.w == pytest.approx(40.824829046386306, rel=1e-15)
    assert layout.s == pytest.approx(16.910197872576262, rel=1e-15)
    assert layout.period == pytest.approx(57.73502691896257, rel=1e-15)


def test_round_parameter_layout():
    # alpha=0.25, beta=10000 gives 5 m buildings on a 10 m period
    layout = derive_layout(BuiltUpParams(0.25, 10000.0, 10.0))
    assert layout.w == pytest.approx(5.0, abs=1e-12)
    assert layout.s == pytest.approx(5.0, abs=1e-12)
    assert layout.period == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize(
    "params",
    list(ENVIRONMENTS.values()) + [GHENT],
    ids=list(ENVIRONMENTS) + ["ghent"],
)
def test_layout_identities(params):
    layout = derive_layout(params)
    assert layout.s + layout.w == pytest.approx(1000.0 / math.sqrt(params.beta), rel=1e-12)
    assert layout.w**2 * params.beta / 1e6 == pytest.approx(params.alpha, rel=1e-12)


def test_extent_must_cover_one_period():
    with pytest.raises(InvalidParams):
        derive_layout(ENVIRONMENTS["urban"], extent_x=30.0, extent_y=3000.0)


@pytest.mark.parametrize("extent", [(math.nan, 3000.0), (3000.0, math.inf), (math.inf, math.nan)])
def test_extent_must_be_finite(extent):
    with pytest.raises(InvalidParams, match="finite"):
        derive_layout(ENVIRONMENTS["urban"], *extent)


def test_tracks_per_call_fills_a_budget_of_track_length():
    # A track counts as its length in periods plus one.
    assert tracks_per_call(6144, 0.0, 10.0) == 6144
    assert tracks_per_call(6144, 20.0, 10.0) == 2048
    assert tracks_per_call(6144, 25.0, 10.0) == 1755
    # A track longer than the budget still gets a call of its own.
    assert tracks_per_call(100, 5000.0, 10.0) == 1
    assert tracks_per_call(1, 0.0, 10.0) == 1
    assert type(tracks_per_call(6144, 25.0, 10.0)) is int


def test_classify_point_examples():
    layout = derive_layout(BuiltUpParams(0.25, 10000.0, 10.0), 100.0, 100.0)
    # s = w = 5: street-first tiling along both axes
    assert isinstance(classify_point(2.0, 2.0, layout), Crossroad)
    assert isinstance(classify_point(2.0, 7.0, layout), Street)
    assert isinstance(classify_point(7.0, 2.0, layout), Street)
    assert classify_point(7.0, 7.0, layout) == Building(ix=1, iy=1)
    assert classify_point(17.0, 27.0, layout) == Building(ix=2, iy=3)
    # band edges: x = s belongs to the building, x just below does not
    assert classify_point(5.0, 5.0, layout) == Building(ix=1, iy=1)
    assert isinstance(classify_point(5.0 - 1e-9, 5.0 - 1e-9, layout), Crossroad)


def test_classify_point_out_of_extent():
    layout = derive_layout(ENVIRONMENTS["urban"], 3000.0, 3000.0)
    with pytest.raises(OutOfExtent):
        classify_point(-1.0, 10.0, layout)
    with pytest.raises(OutOfExtent):
        classify_point(10.0, 3000.1, layout)


def test_classify_area_fractions():
    # the building fraction over a whole number of periods equals alpha
    params = ENVIRONMENTS["dense-urban"]
    layout = derive_layout(params, 10 * layout_period(params), 10 * layout_period(params))
    rng = np.random.default_rng(5)
    n = 200_000
    xs = rng.uniform(0.0, layout.extent_x, n)
    ys = rng.uniform(0.0, layout.extent_y, n)
    built = sum(
        isinstance(classify_point(x, y, layout), Building) for x, y in zip(xs, ys)
    )
    assert built / n == pytest.approx(params.alpha, abs=0.005)


def layout_period(params):
    return 1000.0 / math.sqrt(params.beta)


def test_height_from_uniform_endpoints():
    # v = 0 maps to h = 0 and v = 1 - exp(-1/2) to h = gamma; the largest
    # uniform below 1 keeps the logarithm finite.
    v = np.array([0.0, 1.0 - math.exp(-0.5), 1.0 - 2.0**-53])
    h = _rayleigh_inplace(v, 20.0)
    assert h is v
    assert h[0] == 0.0
    assert h[1] == pytest.approx(20.0, rel=1e-12)
    assert h[2] == pytest.approx(20.0 * math.sqrt(106.0 * math.log(2.0)), rel=1e-12)


def test_sampler_matches_distribution():
    # Cell (1, 1) of 100 000 cities, as the geometry engine meets the
    # roofs near its users: the roofs of distinct keys are Rayleigh too.
    keys = np.random.SeedSequence(123).generate_state(100_000, np.uint64)
    h = roof_heights(keys, 1, 1, 20.0)
    assert float(h.mean()) == pytest.approx(25.041908921324843, rel=1e-12)
    assert float(h.mean()) == pytest.approx(20.0 * math.sqrt(math.pi / 2.0), rel=0.01)
    assert float(h.min()) >= 0.0
    # Kolmogorov-Smirnov against the closed-form CDF, 1% significance
    hs = np.sort(h)
    cdf = 1.0 - np.exp(-(hs * hs) / (2.0 * 400.0))
    n = hs.size
    steps = np.arange(n + 1) / n
    d = max(float(np.max(steps[1:] - cdf)), float(np.max(cdf - steps[:-1])))
    assert d < 1.62762 / math.sqrt(n)


def test_stream_uniforms_are_the_top_bits_of_the_stream():
    # splitmix64 from state 0: the first output of the reference generator.
    assert int(stream_bits(0, 1)) == 0xE220A8397B1DCDAF
    keys = np.array([[0], [7], [2**64 - 1]], dtype=np.uint64)
    bits = stream_bits(keys, np.arange(5))
    assert bits.dtype == np.uint64 and bits.shape == (3, 5)
    u = stream_uniforms(keys, np.arange(5))
    assert u.tolist() == ((bits >> np.uint64(11)).astype(float) * 2.0**-53).tolist()
    assert np.shape(stream_uniforms(7, 3)) == () and stream_uniforms(7, 3) == u[1, 3]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 7, 2**64 + 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 200, 2001])
def test_run_keys_equal_numpy_generate_state(seed, n):
    keys = run_keys(seed, n)
    expected = np.random.SeedSequence(seed).generate_state(n, np.uint64)
    assert keys.dtype == np.uint64
    assert keys.shape == (n,)
    np.testing.assert_array_equal(keys, expected)


def test_hashed_roofs_are_independent_rayleigh_draws():
    gamma = 20.0
    # Kolmogorov-Smirnov over one 317 x 317 city (about 10^5 cells)
    # against the closed-form CDF, 1% significance.
    side = np.arange(1, 318)
    hs = np.sort(roof_heights(12345, side[:, None], side, gamma).ravel())
    cdf = 1.0 - np.exp(-(hs * hs) / (2.0 * gamma * gamma))
    n = hs.size
    steps = np.arange(n + 1) / n
    d = max(float(np.max(steps[1:] - cdf)), float(np.max(cdf - steps[:-1])))
    assert d < 1.62762 / math.sqrt(n)
    # Lag-1 correlation of the roofs' CDF values, uniform on [0, 1), along
    # iy and along ix over a 2048 x 2048 city, 256 rows at a time.  With
    # 4.2e6 pairs per axis the bound 1.5e-3 is three standard errors.
    side = np.arange(1, 2049)
    along_iy = along_ix = 0.0
    prev = None
    for first in range(1, 2049, 256):
        h = roof_heights(777, np.arange(first, first + 256)[:, None], side, gamma)
        v = 0.5 - np.exp(-(h * h) / (2.0 * gamma * gamma))
        along_iy += float(np.sum(v[:, 1:] * v[:, :-1]))
        along_ix += float(np.sum(v[1:] * v[:-1]))
        if prev is not None:
            along_ix += float(prev @ v[0])
        prev = v[-1]
    pairs = 2048 * 2047
    assert abs(12.0 * along_iy / pairs) < 1.5e-3
    assert abs(12.0 * along_ix / pairs) < 1.5e-3


def test_roof_heights_broadcast_and_validate():
    a = roof_heights(np.array([5, 6], dtype=np.uint64), 3, np.array([[1], [2]]), 15.0)
    assert a.shape == (2, 2)
    assert a[1, 0] == roof_heights(5, 3, 2, 15.0)
    assert roof_heights(5, 3, 2, 15.0) != roof_heights(6, 3, 2, 15.0)
    assert roof_heights(5, 3, 2, 15.0) != roof_heights(5, 2, 3, 15.0)
    assert roof_heights(5, 3, 2, 30.0) == 2.0 * roof_heights(5, 3, 2, 15.0)
    with pytest.raises(InvalidParams):
        roof_heights(5, 3, 2, 0.0)


def test_link_geometry_from_nodes():
    link = LinkGeometry.from_nodes(tx=Node(100.0, 0.0, 101.5), rx=Node(0.0, 0.0, 1.5))
    assert link.r_rx == pytest.approx(100.0)
    assert link.theta_deg == pytest.approx(45.0)
    assert link.phi_deg == pytest.approx(0.0)

    overhead = LinkGeometry.from_nodes(tx=Node(5.0, 5.0, 50.0), rx=Node(5.0, 5.0, 1.5))
    assert overhead.theta_deg == 90.0
    assert overhead.r_rx == 0.0

    with pytest.raises(InvalidParams):
        LinkGeometry.from_nodes(tx=Node(0.0, 0.0, 1.0), rx=Node(1.0, 1.0, 2.0))


def test_uav_position_examples():
    user = Node(10.0, 20.0, 1.5)
    uav = uav_position_from_angles(user, 45.0, 0.0, 101.5)
    assert uav.x == pytest.approx(110.0, rel=1e-12)
    assert uav.y == pytest.approx(20.0, abs=1e-9)
    assert uav.z == 101.5

    straight_up = uav_position_from_angles(user, 90.0, 33.0, 120.0)
    assert (straight_up.x, straight_up.y) == (user.x, user.y)

    north = uav_position_from_angles(user, 45.0, 90.0, 101.5)
    assert north.x == pytest.approx(10.0, abs=1e-9)
    assert north.y == pytest.approx(120.0, rel=1e-12)


def test_uav_position_round_trips_through_link_geometry():
    rng = np.random.default_rng(77)
    user = Node(3.0, 4.0, 1.5)
    for _ in range(200):
        theta = rng.uniform(1.0, 89.9)
        phi = rng.uniform(0.0, 90.0)
        h = rng.uniform(10.0, 500.0)
        uav = uav_position_from_angles(user, theta, phi, h)
        link = LinkGeometry.from_nodes(tx=uav, rx=user)
        assert link.theta_deg == pytest.approx(theta, abs=1e-9)
        assert link.phi_deg == pytest.approx(phi, abs=1e-9)


def test_uav_position_rejects_bad_angles():
    user = Node(0.0, 0.0, 1.5)
    with pytest.raises(InvalidAngle):
        uav_position_from_angles(user, 0.0, 0.0, 100.0)
    with pytest.raises(InvalidAngle):
        uav_position_from_angles(user, 90.1, 0.0, 100.0)
    with pytest.raises(InvalidParams):
        uav_position_from_angles(user, 45.0, 0.0, 1.0)
