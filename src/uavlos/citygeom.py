"""Grid-city geometry kernel shared by both line-of-sight engines.

A city is a Manhattan grid described by three built-up parameters:

* ``alpha`` -- fraction of ground area covered by buildings,
* ``beta``  -- number of buildings per square kilometre,
* ``gamma`` -- Rayleigh scale of the building height distribution.

Square buildings of side ``w = 1000*sqrt(alpha/beta)`` metres are
separated by streets of width ``s = 1000/sqrt(beta) - w``; the pattern
repeats with period ``s + w``.  The origin sits on a crossroad corner:
along each axis the half-open interval ``[0, s)`` is street and
``[s, s + w)`` is the first building footprint, so a coordinate at
exactly ``s`` (mod period) belongs to the building.  Point
classification uses these half-open bands; line of sight uses closed
building boxes, so a ground track that only grazes a face or a corner
still meets the building (:func:`track_entries`).

Roof heights are independent Rayleigh(gamma) draws.  A city is
implicit: :func:`roof_heights` maps (city key, ix, iy) to its roof
through the counter-based stream of the key (:func:`stream_bits`), so a
roof exists only where it is looked at and every reader of a city sees
the same value.  Both engines draw their other random numbers from such
keyed streams too: the 3D engine each city's UAV, the geometry engine
each link's user, UAV and city keys.  Both take the keys of a point's
runs from :func:`run_keys` of the point's seed.

All distances are metres; angles are degrees at every public interface
and converted to radians only inside trigonometric calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAngle, InvalidParams, OutOfExtent

__all__ = [
    "BuiltUpParams",
    "CityLayout",
    "Node",
    "LinkGeometry",
    "Building",
    "Street",
    "Crossroad",
    "CellKind",
    "ENVIRONMENTS",
    "GHENT",
    "derive_layout",
    "classify_point",
    "track_entries",
    "track_length",
    "tracks_per_call",
    "run_keys",
    "stream_bits",
    "bits_to_uniforms",
    "stream_uniforms",
    "roof_heights",
    "uav_position_from_angles",
]


@dataclass(frozen=True)
class BuiltUpParams:
    """Built-up parameter triple (alpha, beta, gamma).

    alpha is dimensionless in (0, 1), beta is buildings per km^2,
    gamma is the Rayleigh scale of building heights in metres.
    alpha < 1 also guarantees a positive street width.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParams(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.beta > 0.0:
            raise InvalidParams(f"beta must be positive, got {self.beta}")
        if not self.gamma > 0.0:
            raise InvalidParams(f"gamma must be positive, got {self.gamma}")


#: Commonly used built-up environments (alpha, beta, gamma).
ENVIRONMENTS: dict[str, BuiltUpParams] = {
    "suburban": BuiltUpParams(0.1, 750.0, 8.0),
    "urban": BuiltUpParams(0.3, 500.0, 15.0),
    "dense-urban": BuiltUpParams(0.5, 300.0, 20.0),
    "high-rise": BuiltUpParams(0.5, 300.0, 50.0),
}

#: Parameters extracted from building data of Ghent, Belgium.
GHENT = BuiltUpParams(0.435, 4679.0, 8.8)


@dataclass(frozen=True)
class CityLayout:
    """Derived grid dimensions plus the simulated extent, all in metres."""

    w: float
    s: float
    period: float
    extent_x: float
    extent_y: float


@dataclass(frozen=True)
class Node:
    """A 3D position in metres; z is height above ground."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class LinkGeometry:
    """A transmitter-receiver pair with its derived link quantities.

    r_rx is the ground-projected distance, theta_deg the elevation of
    the transmitter seen from the receiver, phi_deg the azimuth of the
    rx->tx ground projection from the +x axis in [0, 360).
    """

    tx: Node
    rx: Node
    r_rx: float
    theta_deg: float
    phi_deg: float

    @classmethod
    def from_nodes(cls, tx: Node, rx: Node) -> "LinkGeometry":
        if tx.z < rx.z:
            raise InvalidParams(
                f"transmitter below receiver (tx.z={tx.z}, rx.z={rx.z})"
            )
        dx = tx.x - rx.x
        dy = tx.y - rx.y
        r_rx = math.hypot(dx, dy)
        if r_rx == 0.0:
            theta = 90.0
            phi = 0.0
        else:
            theta = math.degrees(math.atan2(tx.z - rx.z, r_rx))
            phi = math.degrees(math.atan2(dy, dx)) % 360.0
        return cls(tx=tx, rx=rx, r_rx=r_rx, theta_deg=theta, phi_deg=phi)


@dataclass(frozen=True)
class Building:
    """Building cell, indices 1-based from the origin."""

    ix: int
    iy: int


@dataclass(frozen=True)
class Street:
    """Street segment between two building faces."""


@dataclass(frozen=True)
class Crossroad:
    """Open square where two streets cross."""


CellKind = Building | Street | Crossroad


def derive_layout(
    params: BuiltUpParams,
    extent_x: float | None = None,
    extent_y: float | None = None,
) -> CityLayout:
    """Derive grid dimensions from built-up parameters.

    Args:
        params: built-up triple; alpha < 1 keeps the street width positive.
        extent_x, extent_y: simulated extent in metres, finite and at
            least one grid period each.  Defaults to a single period
            (useful when the grid is treated as unbounded).

    Returns:
        CityLayout with w = 1000*sqrt(alpha/beta), period = 1000/sqrt(beta)
        and s = period - w.
    """
    w = 1000.0 * math.sqrt(params.alpha / params.beta)
    period = 1000.0 / math.sqrt(params.beta)
    s = period - w
    if not (w > 0.0 and s > 0.0):
        raise InvalidParams(
            f"degenerate layout (w={w}, s={s}) from alpha={params.alpha}, beta={params.beta}"
        )
    if extent_x is None:
        extent_x = period
    if extent_y is None:
        extent_y = period
    if not (math.isfinite(extent_x) and math.isfinite(extent_y)):
        raise InvalidParams(f"extent ({extent_x} x {extent_y}) must be finite")
    if extent_x < period or extent_y < period:
        raise InvalidParams(
            f"extent ({extent_x} x {extent_y}) smaller than one grid period {period}"
        )
    return CityLayout(w=w, s=s, period=period, extent_x=extent_x, extent_y=extent_y)


def classify_point(x: float, y: float, layout: CityLayout) -> CellKind:
    """Classify a ground position as Building, Street or Crossroad.

    Band membership is half-open: [0, s) street, [s, period) building
    along each axis, so every point gets exactly one label and a
    coordinate at exactly s (mod period) counts as building.
    """
    if not (0.0 <= x <= layout.extent_x and 0.0 <= y <= layout.extent_y):
        raise OutOfExtent(
            f"({x}, {y}) outside extent {layout.extent_x} x {layout.extent_y}"
        )
    p = layout.period
    x_build = (x % p) >= layout.s
    y_build = (y % p) >= layout.s
    if x_build and y_build:
        return Building(ix=int(x // p) + 1, iy=int(y // p) + 1)
    if x_build or y_build:
        return Street()
    return Crossroad()


#: Slack, in grid periods, when listing the bands a track may visit; the
#: exact t-interval test that follows drops the extra candidates.
_BAND_SLACK = 1e-9


def _band_visits(c0, dc, t_lo, t_hi, p: float, s: float):
    """Closed bands [i*p + s, (i+1)*p] of one axis visited by c0 + t*dc
    for t in [t_lo, t_hi], one row per (window, band).

    Returns (row, i, lo, hi): the input row, the 0-based band and the
    sub-window of t spent inside that band.  Rows keep the input order,
    and the bands of one window come latest-visited first.
    """
    ca = c0 + dc * t_lo
    cb = c0 + dc * t_hi
    first = np.ceil(np.minimum(ca, cb) / p - 1.0 - _BAND_SLACK).astype(np.int64)
    last = np.floor((np.maximum(ca, cb) - s) / p + _BAND_SLACK).astype(np.int64)
    count = np.maximum(last - first + 1, 0)
    row = np.repeat(np.arange(count.size), count)
    k = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    c, d = c0[row], dc[row]
    i = np.where(d > 0.0, last[row] - k, first[row] + k)
    near = i * p + s
    far = (i + 1) * p
    moving = d != 0.0
    step = np.where(moving, d, 1.0)
    ta = (near - c) / step
    tb = (far - c) / step
    lo = np.maximum(np.where(moving, np.minimum(ta, tb), -np.inf), t_lo[row])
    hi = np.minimum(np.where(moving, np.maximum(ta, tb), np.inf), t_hi[row])
    # A coordinate that does not move is inside its band for the whole
    # window or not at all.
    keep = (lo <= hi) & (moving | ((near <= c) & (c <= far)))
    return row[keep], i[keep], lo[keep], hi[keep]


def track_entries(layout: CityLayout, x_rx, y_rx, x_tx, y_tx, t_max=1.0):
    """Building boxes entered by a batch of ground tracks.

    Track n runs from the user's ground point (x_rx[n], y_rx[n]) to the
    UAV's (x_tx[n], y_tx[n]), in any direction; scalars broadcast.  The
    grid is unbounded and its boxes are closed: box (ix, iy), 1-based,
    covers [(ix-1)*p + s, ix*p] x [(iy-1)*p + s, iy*p], so a track that
    runs along a face or touches a corner meets the box.  A zero-length
    track meets the boxes that contain its point.

    t_max (at most 1, per track or one for all) cuts track n at the
    fraction t_max[n] from the user: only boxes entered at t <= t_max[n]
    are listed, and a negative t_max lists none.  The entries kept are
    exactly the uncut track's entries with t <= t_max, with the same t
    bits and in the same order, because the cut only lowers the upper
    end of each window the entry points are taken from.

    Returns arrays (link, ix, iy, t), one entry per box a track meets:
    the track index, the cell and the fraction t in [0, 1] of the track
    from the user to the point where it enters the box.  With flat
    roofs the ray is lowest over a box exactly there.  Entries are
    ordered by link, then from the UAV end toward the user (t
    descending).
    """
    p, s = layout.period, layout.s
    x0, y0, x1, y1, t1 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (x_rx, y_rx, x_tx, y_tx, t_max))
    )
    dx, dy = x1 - x0, y1 - y0
    # Column bands over the whole track, then the row bands crossed while
    # the track stays inside each column band.  Column windows are
    # disjoint and ordered along the track, so listing both the columns
    # and the rows within a column latest-visited first orders each
    # track's entries by t descending.
    link, i, lo, hi = _band_visits(x0, dx, np.zeros(x0.size), t1, p, s)
    row, j, t, _ = _band_visits(y0[link], dy[link], lo, hi, p, s)
    return link[row], i[row] + 1, j + 1, t


def track_length(theta_deg: float, h_uav, h_rx):
    """Ground distance (h_uav - h_rx)/tan(theta) from a user at h_rx to a
    UAV at h_uav seen at elevation theta_deg: the length of the link's
    ground track, 0 at theta = 90.  h_uav and h_rx may be arrays."""
    if theta_deg == 90.0:
        return 0.0
    return (h_uav - h_rx) / math.tan(math.radians(theta_deg))


def tracks_per_call(budget_periods: float, track_m: float, period: float) -> int:
    """How many ground tracks of length track_m one :func:`track_entries`
    call takes under a budget of budget_periods grid periods of track.

    A track counts as its length in grid periods plus one: the kernel
    lists about one box per period a track crosses, and even a
    zero-length track costs a row of every array.  A call costs a
    fixed overhead of numpy calls plus time and memory in proportion
    to the boxes it lists, so a budget of track length, not a count of
    tracks, keeps both the overhead share and the working set flat
    across track lengths.  At least one track goes into every call.
    """
    return max(1, math.floor(budget_periods / (track_m / period + 1.0)))


def _rayleigh_inplace(v: np.ndarray, gamma: float) -> np.ndarray:
    """Turn uniforms v in [0, 1) into Rayleigh(gamma) heights in place
    by the inverse CDF h = gamma*sqrt(-2*ln(1 - v)): v = 0 maps to
    h = 0 and v = 1 - exp(-1/2) to h = gamma."""
    np.subtract(1.0, v, out=v)
    np.log(v, out=v)
    v *= -2.0
    np.sqrt(v, out=v)
    v *= gamma
    return v


#: The hash constants of numpy's SeedSequence state generation: the first
#: constant and its multiplier (O'Neill's seed_seq_fe, 32-bit words).
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED


def run_keys(seed: int, n: int) -> np.ndarray:
    """The n uint64 run keys of a seed:
    ``SeedSequence(seed).generate_state(n, np.uint64)``, bit for bit.

    numpy fills each 32-bit word in a Python loop, about 0.3 us per key;
    this computes the same words with array operations.  Word i is word
    i mod 4 of the seed's entropy pool (four words by default), xored
    with the hash constant h_i = INIT_B*MULT_B^i, multiplied by h_(i+1)
    and xored with itself shifted right by 16, all mod 2^32; key j joins
    words 2j and 2j + 1 little-endian, as numpy does.
    """
    pool = np.random.SeedSequence(seed).pool
    words = 2 * n
    hashes = np.full(words + 1, _MULT_B, dtype=np.uint32)
    hashes[0] = _INIT_B
    np.multiply.accumulate(hashes, out=hashes)
    state = np.tile(pool, -(-words // pool.size))[:words]
    state ^= hashes[:-1]
    state *= hashes[1:]
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


#: splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
#: generators", OOPSLA 2014): the Weyl increment of its state and the two
#: multipliers of its output finalizer.
_WEYL = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def stream_bits(key, counter) -> np.ndarray:
    """64-bit outputs of the counter-based stream of a uint64 key.

    Position ``counter`` of the stream of ``key`` is the splitmix64 output
    for the state key + counter*0x9E3779B97F4A7C15 (mod 2^64).  key and
    counter (non-negative integers below 2^64) broadcast; the result, of
    dtype uint64, is a pure function of the pair.
    """
    counter = np.asarray(counter, dtype=np.uint64)
    z = np.add(np.multiply(counter, _WEYL), np.asarray(key, dtype=np.uint64))
    shape = np.shape(z)
    z = np.atleast_1d(z)
    shifted = np.empty_like(z)
    np.right_shift(z, 30, out=shifted)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, 27, out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, 31, out=shifted)
    z ^= shifted
    return z.reshape(shape)


def bits_to_uniforms(bits) -> np.ndarray:
    """Uniforms in [0, 1) from uint64 stream outputs: the top 53 bits of
    each, scaled to [0, 1)."""
    top = np.right_shift(bits, np.uint64(11), out=np.empty(np.shape(bits), np.uint64))
    return np.multiply(top, 2.0**-53, out=np.empty(top.shape))


def stream_uniforms(key, counter) -> np.ndarray:
    """Uniforms in [0, 1) from the counter-based stream of a uint64 key:
    :func:`bits_to_uniforms` of :func:`stream_bits` at the same positions."""
    return bits_to_uniforms(stream_bits(key, counter))


def roof_heights(key, ix, iy, gamma: float) -> np.ndarray:
    """Roof heights of the 1-based cells (ix, iy) of the city ``key``.

    Each roof is the Rayleigh(gamma) inverse CDF of position
    (ix << 32) | iy of the key's stream (:func:`stream_uniforms`), so it
    is independent of every other cell and key and needs no grid: a city
    is its key.  key, ix and iy broadcast; ix and iy lie in [1, 2^31).
    """
    if gamma <= 0.0:
        raise InvalidParams(f"gamma must be positive, got {gamma}")
    cell = np.left_shift(ix, 32, dtype=np.int64) | np.asarray(iy, dtype=np.int64)
    return _rayleigh_inplace(stream_uniforms(key, cell.view(np.uint64)), gamma)


def uav_position_from_angles(
    user: Node, theta_deg: float, phi_deg: float, h_uav: float
) -> Node:
    """Place a transmitter at elevation theta and azimuth phi from a user.

    The ground offset is d = (h_uav - user.z)/tan(theta); theta = 90
    puts the transmitter straight overhead.  phi is measured from the
    +x axis; the first-quadrant engines use phi in [0, 90].

    Args:
        user: receiver position (z below h_uav).
        theta_deg: elevation in (0, 90].
        phi_deg: azimuth in degrees.
        h_uav: transmitter height in metres.
    """
    if not 0.0 < theta_deg <= 90.0:
        raise InvalidAngle(f"theta must be in (0, 90], got {theta_deg}")
    if h_uav <= user.z:
        raise InvalidParams(
            f"transmitter height {h_uav} must exceed user height {user.z}"
        )
    d = track_length(theta_deg, h_uav, user.z)
    phi = math.radians(phi_deg)
    return Node(user.x + d * math.cos(phi), user.y + d * math.sin(phi), h_uav)
