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
each link's user, UAV and city keys.  Every key of a sweep comes from
one seed tree of such streams: a seed of any size folds into a key
(:func:`seed_keys`), and the keys below it are positions 0, 1, 2, ...
of its stream (:func:`run_keys`): a sweep's master seed gives its grid
points' seeds, and a point's seed the keys of its runs.  A prefix of
keys so never depends on how many are taken.

All distances are metres; angles are degrees at every public interface
and converted to radians only inside trigonometric calls.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._record import record
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
    "building_band",
    "track_entries",
    "track_length",
    "call_slices",
    "CALL_PERIODS",
    "NEAR_PERIODS",
    "blocked_links",
    "seed_keys",
    "run_keys",
    "stream_bits",
    "bits_to_uniforms",
    "stream_uniforms",
    "roof_heights",
    "MAX_AXIS_CELLS",
    "uav_position_from_angles",
]


@record
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


@record
class CityLayout:
    """Derived grid dimensions plus the simulated extent, all in metres."""

    w: float
    s: float
    period: float
    extent_x: float
    extent_y: float


@record
class Node:
    """A 3D position in metres; z is height above ground."""

    x: float
    y: float
    z: float


@record
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


@record
class Building:
    """Building cell, indices 1-based from the origin."""

    ix: int
    iy: int


@record
class Street:
    """Street segment between two building faces."""


@record
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


#: Machine epsilon of float64.
_EPS = float(np.finfo(float).eps)


def building_band(v: np.ndarray, p: float, s: float, reach: float):
    """The 0-based grid period ``v // p`` of each coordinate of v and
    whether it lies in a building band, ``v % p >= s``: two arrays shaped
    like v, bit for bit what numpy gives wherever |v| <= reach.  The
    array form of the band test of :func:`classify_point`, which adds
    the extent check.

    numpy's float ``%`` and ``//`` cost about 20 ns per element each.
    This takes q = floor(v/p) and r = v - q*p, which is off from the
    exact remainder by less than eps*(|v| + p), or by p plus that where
    v/p rounds up across an integer; r then lies just below 0.  Where r
    lies farther than tol = 16*eps*(reach + 2p) from 0, s and p, q is
    the exact floor that ``//`` gives and r >= s decides as ``%`` does;
    elsewhere np.divmod decides, which random coordinates almost never
    need.  On a 2-vCPU Xeon this is about 4 times faster than ``%``
    plus ``//`` on 2 600 coordinates and 5 times on 20 000, and slower
    below about 400 (12 against 2.4 us on 8).  Switching to numpy's path
    below 512 coordinates gained nothing on the geometry engine's
    heatmap, theta sweep or redraw-heavy runs, so this serves every
    size.  The geometry engine passes a reach of MAX_TRACK_PERIODS + 2
    periods, which bounds the coordinates of its UAVs above their users,
    and the 3D engine the larger side of its extent.

    The error stays below tol as long as eps*(|v| + p) does, so the
    result is also exact beyond reach, for |v| < 16*reach.  Farther out
    q and the flag may differ from numpy's; a caller whose coordinates
    can lie there must drop them itself (as place_users drops ring
    positions off its extent).
    """
    q = np.divide(v, p)
    np.floor(q, out=q)
    r = q * p
    np.subtract(v, r, out=r)
    tol = 16.0 * _EPS * (reach + 2.0 * p)
    built = r >= s + tol
    unsure = built != (r > s - tol)
    unsure |= r < tol
    unsure |= r > p - tol
    at = np.flatnonzero(unsure)
    if at.size:
        q_at, r_at = np.divmod(v.take(at), p)
        q.put(at, q_at)
        built.put(at, r_at >= s)
    return q, built


#: Slack, in grid periods, when listing the bands a track may visit; the
#: exact t-interval test that follows drops the extra candidates.
_BAND_SLACK = 1e-9

#: Bands that :func:`_band_rows` lists by one scan of the window counts
#: each; the windows that hold more list the rest together.
_BAND_SCANS = 3
#: Fewest windows for which :func:`_band_rows` scans at all.
_SCAN_WINDOWS = 1024


def _band_rows(first, count):
    """One row per band of each window w, the count[w] bands first[w],
    first[w] + 1, ... (none where count[w] <= 0): arrays (row, i) of the
    window and the band of each row, in a deterministic order that is
    not specified.

    Most windows hold 0 to 2 bands, so the rows are listed band-major:
    the windows that hold band k are one scan of the counts,
    (count > k).nonzero()[0] (np.flatnonzero without its 1.3 us Python
    wrapper), for each k below _BAND_SCANS, and their band is first plus
    k.  The windows that hold more, low-theta tracks with tens to
    hundreds of bands, list the rest through one np.repeat over them
    alone, so that no track length makes a scan per band.  On a 2-vCPU
    Xeon with numpy 2.4.6, with the window counts of compare-urban's
    second pass, a scan costs 1 to 1.6 ns a window, against 11 to 16 for
    listing every window through np.repeat and np.cumsum; below about
    1 000 windows the scans' fixed cost of numpy calls outweighs that,
    so a call of fewer than _SCAN_WINDOWS windows lists all its rows
    through the repeat.  Three scans leave 2.9% of the first pass's
    windows and 0.4% of the second's to the repeat on the compare-urban
    line (BENCH_34.json has the window counts of each pass on each
    benchmark line).
    """
    if count.size < _SCAN_WINDOWS:
        return _repeated(first, np.maximum(count, 0))
    bands = [(count > k).nonzero()[0] for k in range(_BAND_SCANS)]
    longer = bands[-1].take((count.take(bands[-1]) > _BAND_SCANS).nonzero()[0])
    if longer.size:
        at, rest = _repeated(first.take(longer) + _BAND_SCANS, count.take(longer) - _BAND_SCANS)
        bands.append(longer.take(at))
        del at
    sizes = [b.size for b in bands]
    row = np.concatenate(bands)
    del bands
    i = first.take(row)
    a = sizes[0]
    for k in range(1, _BAND_SCANS):
        i[a:a + sizes[k]] += k
        a += sizes[k]
    if longer.size:
        i[a:] = rest
    return row, i


def _repeated(first, count):
    """Each index w of count, count[w] >= 0 times, with the bands first[w],
    first[w] + 1, ... of its copies: arrays (at, i), in index order."""
    at = np.repeat(np.arange(count.size), count)
    # The band of a copy is first plus its place among the copies of its
    # index: its position less the number of copies before them.
    first = first - np.cumsum(count)
    first += count
    i = np.arange(at.size)
    i += first.take(at)
    return at, i


def _band_visits(c0, dc, t_lo, t_hi, p: float, s: float):
    """Closed bands [i*p + s, (i+1)*p] of one axis visited by c0 + t*dc
    for t in [t_lo, t_hi], one row per (window, band).  t_lo and t_hi
    are arrays like c0 or scalars.

    Returns (row, i, lo, hi): the input row, the 0-based band and the
    sub-window of t spent inside that band, listed by :func:`_band_rows`
    in a deterministic order that is not specified: the same rows with
    the same bits whatever the order.

    The band range of each window is widened by _BAND_SLACK against
    rounding, and an exact test of the t-interval then drops the bands
    a window does not visit.  It drops one only where a window ends
    within the slack short of a band, or a coordinate that does not
    move lies within the slack outside it, which random tracks almost
    never do, so the candidates are returned as they are when it drops
    none and compacted only otherwise.  The arithmetic runs in place on
    as few per-band arrays as it can, since their count bounds the
    working set of a kernel call; each is deleted after its last use.
    """
    # c0 + dc*0 is c0 up to the sign of a zero, which ceil and floor drop.
    ca = c0 if np.ndim(t_lo) == 0 and t_lo == 0.0 else c0 + dc * t_lo
    hi = c0 + dc * t_hi
    lo = np.minimum(ca, hi)
    np.maximum(ca, hi, out=hi)
    del ca
    lo /= p
    lo -= 1.0
    lo -= _BAND_SLACK
    first = np.ceil(lo, out=lo).astype(np.int64)
    hi -= s
    hi /= p
    hi += _BAND_SLACK
    count = np.floor(hi, out=hi).astype(np.int64)
    del lo, hi
    count -= first
    count += 1
    row, i = _band_rows(first, count)
    del first, count
    # Both engines follow one rule on per-link, per-entry and per-ring-
    # position arrays: select through an index array (np.flatnonzero,
    # then take or an assignment at it), not a boolean mask.  At 50 000
    # elements and half of a mask set, on a 2-vCPU Xeon with numpy
    # 2.4.6, a[mask] costs 5.7 ns an element against 1.1 for
    # a.take(np.flatnonzero(mask)), np.nonzero of a 2-D mask 8.3 against
    # 1.3 for np.flatnonzero and //, and a three-argument np.where 5.0
    # against 0.3 for a multiply.  A where between two computed arrays,
    # as simgeom._place's street select, stays: assigning the street
    # rows at their indices measured 1.6 times slower there.  np.divmod
    # costs 3.5 ns against 0.8 for //; simgeom.los_counts takes a chunk's
    # points by // and its runs by % of a second arange, so that neither
    # is held while the chunk is decided.
    # The fractions of the track where it crosses the band's edges,
    # (i*p + s - c)/d and ((i + 1)*p - c)/d.
    tb = i.astype(np.float64)
    ta = tb * p
    ta += s
    tb += 1.0
    tb *= p
    # c is subtracted before d is gathered, so that the two are never
    # held together.
    c = c0.take(row)
    ta -= c
    tb -= c
    del c
    moving = dc.all()
    d = dc.take(row)
    # The caller passes dc, and in the second pass c0, as temporaries,
    # so this frees them.
    del c0, dc
    still = None
    if not moving:
        # A coordinate that does not move is inside its band for the
        # whole window or not at all: outside where c < i*p + s or
        # c > (i + 1)*p, that is where ta - c > 0 or tb - c < 0, since a
        # rounded difference keeps the sign of the exact one.
        still = np.flatnonzero(d == 0.0)
        outside = still[(ta.take(still) > 0.0) | (tb.take(still) < 0.0)]
        d.put(still, 1.0)
    # A coordinate that moves by a tiny amount, such as a subnormal one,
    # can put a fraction beyond the float range: it overflows to the
    # infinity of its sign, its exact limit, which the clamp to the
    # window below handles.
    with np.errstate(over="ignore"):
        ta /= d
        tb /= d
    del d
    lo = np.minimum(ta, tb)
    hi = np.maximum(ta, tb, out=ta)
    del tb
    if still is not None:
        lo.put(still, -np.inf)
        hi.put(still, np.inf)
    np.maximum(lo, t_lo if np.ndim(t_lo) == 0 else t_lo.take(row), out=lo)
    np.minimum(hi, t_hi if np.ndim(t_hi) == 0 else t_hi.take(row), out=hi)
    keep = lo <= hi
    if still is not None:
        keep.put(outside, False)
    if keep.all():
        return row, i, lo, hi
    keep = np.flatnonzero(keep)
    return row.take(keep), i.take(keep), lo.take(keep), hi.take(keep)


def track_entries(layout: CityLayout, x_rx, y_rx, x_tx, y_tx, t_max=1.0, t_min=0.0):
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
    bits, because the cut only lowers the upper end of each window the
    entry points are taken from.

    t_min (at least 0, per track or one for all) starts track n at the
    fraction t_min[n] instead: a box entered at t >= t_min[n] is listed
    as the uncut track lists it, same t bits, and a box the track
    already occupies at t_min[n], entered before it, is listed at
    t = t_min[n], since the window it is entered in starts there.  A
    box left before t_min[n] is not listed.

    Returns arrays (link, ix, iy, t), one entry per box a track meets:
    the track index, the cell and the fraction t in [0, 1] of the track
    from the user to the point where it enters the box.  With flat
    roofs the ray is lowest over a box exactly there.  The same tracks
    give the same entries with the same t bits, in a deterministic order
    that is not specified, and that a cut or a start may change; a
    caller that needs an order sorts the entries itself (as
    :func:`uavlos.sim3d.check_los_edges` picks the box the track enters
    last).
    """
    p, s = layout.period, layout.s
    x0, y0, x1, y1 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (x_rx, y_rx, x_tx, y_tx))
    )
    t0, t1 = (np.asarray(t, dtype=float) for t in (t_min, t_max))
    if t0.ndim:
        t0 = np.broadcast_to(t0, x0.shape)
    if t1.ndim:
        t1 = np.broadcast_to(t1, x0.shape)
    # Column bands over the whole track, then the row bands crossed while
    # the track stays inside each column band, both listed band-major
    # (_band_rows): an entry's t does not depend on where it is listed,
    # and the link decision reads no order.  Each pass's moves go to it
    # as temporaries, which it frees, so no pass holds the other's.
    # Taking each track's first pass on its axis of smaller |d| lists the
    # same entries with 23 to 28% fewer first-pass windows on the
    # benchmark lines, but the per-link gathers that choose the axes cost
    # more: kernel time rose 9 to 22%.
    link, i, lo, hi = _band_visits(x0, x1 - x0, t0, t1, p, s)
    row, j, t, _ = _band_visits(y0.take(link), (y1 - y0).take(link), lo, hi, p, s)
    i = i.take(row)
    i += 1
    j += 1
    return link.take(row), i, j, t


def track_length(theta_deg: float, h_uav, h_rx):
    """Ground distance (h_uav - h_rx)/tan(theta) from a user at h_rx to a
    UAV at h_uav seen at elevation theta_deg: the length of the link's
    ground track, 0 at theta = 90, and infinite above h_rx where theta is
    so small (below 1.43e-322 degrees) that its tangent rounds to 0.
    h_uav and h_rx may be arrays."""
    if theta_deg == 90.0:
        return 0.0
    tan = math.tan(math.radians(theta_deg))
    if tan == 0.0:
        return (h_uav - h_rx) * math.inf
    return (h_uav - h_rx) / tan


#: Ground-track length, in grid periods, of the links that one
#: :func:`track_entries` call of either engine takes, each link counting
#: as its track in grid periods plus one: the kernel lists about one box
#: per period a track crosses, and even a zero-length track costs a row
#: of every array.  A call costs a fixed overhead of numpy calls whatever
#: its size, plus time and memory in proportion to the boxes it lists, at
#: most about three per period of budget, so this one budget of track
#: length, not a count of tracks, keeps both the overhead share and the
#: working set of a call flat at every track length.  The kernel frees
#: each temporary after its last use, and blocked_links holds no
#: per-link copy of its owners' values, which made room for twice the
#: 12 288 periods this budget had: with the geometry engine's chunks of
#: 6 144 links, the benchmark's command lines listed the same entries
#: at seed 1 in 8, 46 and 8 calls instead of 13, 83 and 12, and the
#: 170-point heatmap's traced peak read 2.32 MB against 2.06 MB before
#: (1.65 MB with the frees at the old budget).  With chunks of 12 288
#: links they take 6, 44 and 6 calls, and that peak reads 2.13 MB.
CALL_PERIODS = 24576


def call_slices(cost):
    """Split links of the given per-link costs, in grid periods of track
    plus one (see :data:`CALL_PERIODS`), into consecutive :func:`track_entries`
    calls of at most CALL_PERIODS periods each, and at least one link.

    Yields each call as a slice of the links, none for no link.
    """
    spent = np.cumsum(cost)
    start = 0
    while start < spent.size:
        before = spent[start - 1] if start else 0.0
        stop = max(int(np.searchsorted(spent, before + CALL_PERIODS, side="right")), start + 1)
        yield slice(start, stop)
        start = stop


#: Part of a long ground track, in grid periods from the user, that
#: :func:`blocked_links` decides first.  Compared in process on the
#: geometry engine against 3, which ran 4 to 14% slower on five of six
#: geom command lines, and 1, which ran 9 to 11% faster on the suburban
#: theta 15 to 25 and dense-urban street sweeps but 10 to 15% slower on
#: the mostly clear suburban theta 40 to 44 sweep, whose tracks it
#: stages (warm, two runs, BENCH_18.json design_runs.near_periods; not
#: end to end).
NEAR_PERIODS = 2


def blocked_links(layout: CityLayout, x_rx, y_rx, x_tx, y_tx, length, h_rx: float, rise,
                  roofs, t_max=1.0, owner=None) -> np.ndarray:
    """Whether a roof blocks each link of a batch: the one link decision
    of both engines.

    Link n's ground track runs from (x_rx[n], y_rx[n]) to (x_tx[o],
    y_tx[o]), and its ray stands h_rx + t*rise[o] above the ground at
    the fraction t of the track, o being the link's owner: owner[n], an
    index into the per-owner arrays x_tx, y_tx, rise and t_max, such as
    the 3D engine's city of each link, or the link itself where owner is
    None, as each geometry-engine link is its own.  The track is cut at
    t_max (per owner or one for all) as in :func:`track_entries`.  Each
    call gathers its links' owner values, so a batch holds no per-link
    copy of them.  roofs(own, ix, iy) is the engine's roof lookup: the
    roofs of the boxes (ix[m], iy[m]) for the owners own[m], own[m]
    being the owner of entry m's link, which each call gathers once per
    entry for both the ray and the roofs.  A link is blocked when a roof
    reaches the ray height where its track enters that roof's box (ties
    block).  length (per link or one for all) is the ground length of
    each uncut track; it sizes the calls and the near part.

    A link whose cut track is longer than 2*NEAR_PERIODS periods and
    whose ray rises (rise > 0) is decided on its first NEAR_PERIODS
    periods first, and every other link on its whole cut track, in
    calls of citygeom.CALL_PERIODS periods (:func:`call_slices`), each
    link counting as the part it walks plus one.  This is the one
    staging rule of both engines, and the one place that sizes their
    kernel calls; the calls of a stage are sized before the first of
    them is made, so the per-link costs are not held while it runs.
    The links left clear there are then walked from the near cut to
    their cut (t_min of :func:`track_entries`), in calls of the same
    budget.  The result is exact: a box entered before
    the near cut is listed in the first stage at its own entry, and if
    the second stage lists it too, it does so at the near cut, where
    the rising ray stands higher, so it blocks in neither; every box
    entered later is listed in the second stage at its own entry.  A
    track only a little longer than the near part gains little and, on
    mostly clear runs, pays a second call for most of its links: on the
    geometry engine, staging every track over NEAR_PERIODS made the
    suburban theta 40 to 44 sweep, tracks of 2.7 to 3.2 periods, 1.3
    times slower.

    With no link to stage, t_max goes to the kernel as given, so a
    scalar is not spread over the links; otherwise each first-stage call
    builds the cuts of its own links, and from the staging on only the
    staged links' lengths are kept, so a caller that passes length as a
    temporary holds no per-link length while the calls run.  The
    staged links, the links a call finds blocked and the staged links
    left clear are selected through index arrays, and the per-link
    costs are the cut lengths in periods, overwritten at the staged
    links, with no select on a mask (see the selection rule in
    :func:`_band_visits`).  Returns a boolean array, one element per
    link.
    """
    def pick(v, at):
        return v if np.ndim(v) == 0 else v[at]

    def owned(v, at):
        return pick(v, at if owner is None else owner[at])

    p = layout.period
    reach = NEAR_PERIODS * p
    blocked = np.zeros(np.size(x_rx), dtype=bool)
    every = slice(None)
    cut_length = np.multiply(owned(t_max, every), length, out=np.empty(blocked.shape))
    staged = np.flatnonzero((cut_length > 2.0 * NEAR_PERIODS * p) & (owned(rise, every) > 0.0))
    cost = np.divide(cut_length, p, out=cut_length)
    del cut_length
    cost[staged] = NEAR_PERIODS
    cost += 1.0
    parts = list(call_slices(cost))
    del cost
    # From here on only the staged links' lengths are read, and each
    # call computes the near cuts of its staged links from them.
    length = np.broadcast_to(length, blocked.shape)[staged]

    def first_cut(part):
        # The cut of each link of a first-stage call: its near cut where
        # staged, else its own.
        cut = owned(t_max, part)
        if not staged.size:
            return cut
        cut = np.array(np.broadcast_to(cut, (part.stop - part.start,)))
        a, b = np.searchsorted(staged, (part.start, part.stop))
        cut[staged[a:b] - part.start] = reach / length[a:b]
        return cut

    def decide(at, t_lo, t_hi):
        link, ix, iy, t = track_entries(
            layout, x_rx[at], y_rx[at], owned(x_tx, at), owned(y_tx, at), t_hi, t_lo
        )
        if isinstance(at, slice):
            link += at.start
        else:
            link = at.take(link)
        own = link if owner is None else owner.take(link)
        ray = rise.take(own)
        ray *= t
        del t
        ray += h_rx
        blocked[link.take(np.flatnonzero(roofs(own, ix, iy) >= ray))] = True

    for part in parts:
        decide(part, 0.0, first_cut(part))
    if staged.size:
        left = np.flatnonzero(~blocked.take(staged))
        rest, length = staged.take(left), length.take(left)
        near = reach / length
        cut = owned(t_max, rest)
        for part in list(call_slices((cut - near) * length / p + 1.0)):
            decide(rest[part], near[part], pick(cut, part))
    return blocked


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
    key = np.asarray(key, dtype=np.uint64)
    # One array of the broadcast shape holds the state, where a product
    # and a sum would hold two.
    z = np.empty(np.broadcast_shapes(counter.shape, key.shape), np.uint64)
    np.multiply(counter, _WEYL, out=z)
    z += key
    shape = z.shape
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


_MASK64 = (1 << 64) - 1


def seed_keys(seeds) -> np.ndarray:
    """The uint64 key of each non-negative int seed, of any size.

    A seed's 64-bit words, least significant first, are folded through
    the stream (:func:`stream_bits`) from the word count: the key is
    position w0 of the stream of the count, then, for each further word
    w, position w of the stream of the key so far.  The count keeps 0,
    2^64 and 2^128 apart, and a seed below 2^64 (one word) maps to its
    key one to one, since the Weyl increment is odd and the splitmix64
    finalizer is a bijection.  A uint64 array of seeds, such as the keys
    of :func:`run_keys`, is all one-word seeds, folded in one stream call.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return stream_bits(1, seeds)
    seeds = [operator.index(seed) for seed in seeds]
    if min(seeds, default=0) < 0:
        raise InvalidParams(f"seeds must be non-negative integers, got {min(seeds)}")
    count = np.array([max(1, -(-seed.bit_length() // 64)) for seed in seeds], dtype=np.uint64)
    key = count
    for j in range(int(count.max(initial=1))):
        word = np.array([seed >> 64 * j & _MASK64 for seed in seeds], dtype=np.uint64)
        key = np.where(count > j, stream_bits(key, word), key)
    return key


def run_keys(seed: int, n: int) -> np.ndarray:
    """The n uint64 run keys of a seed: positions 0 to n - 1 of the
    stream of its key (:func:`seed_keys`), so the first n keys of a seed
    do not depend on n."""
    return stream_bits(seed_keys([seed]), np.arange(n))


def bits_to_uniforms(bits) -> np.ndarray:
    """Uniforms in [0, 1) from uint64 stream outputs: the top 53 bits of
    each, scaled to [0, 1)."""
    top = np.right_shift(bits, np.uint64(11), out=np.empty(np.shape(bits), np.uint64))
    return np.multiply(top, 2.0**-53, out=np.empty(top.shape))


def stream_uniforms(key, counter) -> np.ndarray:
    """Uniforms in [0, 1) from the counter-based stream of a uint64 key:
    :func:`bits_to_uniforms` of :func:`stream_bits` at the same positions,
    with the fresh bits shifted in place."""
    bits = stream_bits(key, counter)
    bits >>= np.uint64(11)
    return np.multiply(bits, 2.0**-53, out=np.empty(bits.shape))


#: Most building cells a city may have per axis: :func:`roof_heights`
#: reads cell (ix, iy) at stream position (ix << 32) | iy of an int64.
MAX_AXIS_CELLS = 2**31 - 1


def roof_heights(key, ix, iy, gamma: float) -> np.ndarray:
    """Roof heights of the 1-based cells (ix, iy) of the city ``key``.

    Each roof is the Rayleigh(gamma) inverse CDF of position
    (ix << 32) | iy of the key's stream (:func:`stream_uniforms`), so it
    is independent of every other cell and key and needs no grid: a city
    is its key.  key, ix and iy broadcast; ix and iy lie in
    [1, MAX_AXIS_CELLS].
    """
    if gamma <= 0.0:
        raise InvalidParams(f"gamma must be positive, got {gamma}")
    ix, iy = np.broadcast_arrays(ix, iy)
    cell = np.left_shift(ix, 32, dtype=np.int64)
    cell |= iy
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
