"""Bernoulli estimate containers and Wilson score interval."""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .errors import InvalidCounts

__all__ = ["Z95", "wilson_interval", "wilson_bounds", "PLosEstimate", "PLosEstimates"]

#: Two-sided 95% normal quantile used for all confidence intervals.
Z95 = 1.96


def wilson_bounds(k, n, z: float = Z95) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score intervals of the Bernoulli proportions k[i]/n[i], as
    arrays of lower and upper bounds.  k and n are integer arrays or
    scalars that broadcast, with 0 <= k <= n and n >= 1; z is the normal
    quantile, finite and positive (default 1.96 for 95%).  The bounds are
    clamped to [0, 1]; lo = 0 exactly where k = 0 and hi = 1 exactly
    where k = n."""
    k, n = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(n, dtype=np.int64))
    valid = (n >= 1) & (k >= 0) & (k <= n)
    if not valid.all():
        bad = valid.argmin()
        raise InvalidCounts(f"need 0 <= k <= n with n >= 1, got k={k.flat[bad]}, n={n.flat[bad]}")
    if not 0.0 < z < math.inf:
        raise InvalidCounts(f"z must be finite and positive, got {z}")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    # the degenerate endpoints are exactly 0 and 1 analytically; rounding
    # in the quotient above can miss them by one ulp
    lo = np.where(k == 0, 0.0, np.maximum(0.0, center - half))
    hi = np.where(k == n, 1.0, np.minimum(1.0, center + half))
    return lo, hi


def wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """The (lo, hi) Wilson bounds of one count pair: :func:`wilson_bounds`
    of scalars."""
    lo, hi = wilson_bounds(k, n, z)
    return float(lo), float(hi)


@record
class PLosEstimate:
    """A LoS-probability estimate with its Wilson 95% bounds: point i of
    a :class:`PLosEstimates`, as indexing it gives.

    For Monte-Carlo estimates p_hat = k/n.  Closed-form model values
    (:meth:`PLosEstimates.exact`) have a degenerate interval at p_hat,
    with n = 1 and k = round(p_hat).
    """

    n: int
    k: int
    p_hat: float
    ci_lo: float
    ci_hi: float

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise InvalidCounts(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if not (0.0 <= self.ci_lo <= self.p_hat <= self.ci_hi <= 1.0):
            raise InvalidCounts(
                f"bounds must satisfy 0 <= lo <= p <= hi <= 1, got "
                f"({self.ci_lo}, {self.p_hat}, {self.ci_hi})"
            )


@record(eq=False)
class PLosEstimates:
    """The estimates of several points as columns: element i of n, k,
    p_hat, ci_lo and ci_hi is the :class:`PLosEstimate` of point i, which
    indexing builds.  Columns are one-dimensional arrays of one length,
    checked as PLosEstimate checks one estimate."""

    n: np.ndarray
    k: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(c) for c in (self.n, self.k, self.p_hat, self.ci_lo, self.ci_hi)]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != len(shapes):
            raise InvalidCounts(f"need five one-dimensional columns of one length, got {shapes}")
        if not np.all((0 <= self.k) & (self.k <= self.n)):
            raise InvalidCounts(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        lo, p, hi = self.ci_lo, self.p_hat, self.ci_hi
        if not np.all((0.0 <= lo) & (lo <= p) & (p <= hi) & (hi <= 1.0)):
            raise InvalidCounts(f"bounds must satisfy 0 <= lo <= p <= hi <= 1, got {lo, p, hi}")

    @classmethod
    def from_counts(cls, k, n, z: float = Z95) -> "PLosEstimates":
        """Monte-Carlo estimates p_hat = k/n of count arrays k and n (or
        a scalar that broadcasts against an array), with their Wilson
        bounds (:func:`wilson_bounds`)."""
        k, n = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(n, dtype=np.int64))
        lo, hi = wilson_bounds(k, n, z)
        return cls(n=n, k=k, p_hat=k / n, ci_lo=lo, ci_hi=hi)

    @classmethod
    def exact(cls, p) -> "PLosEstimates":
        """Closed-form model values p, each in [0, 1], as estimates with a
        degenerate interval: n = 1, k = round(p) and ci_lo = ci_hi = p."""
        p = np.asarray(p, dtype=float)
        if not np.all((0.0 <= p) & (p <= 1.0)):
            raise InvalidCounts(f"probabilities must be in [0, 1], got {p}")
        return cls(n=np.ones(p.shape, dtype=np.int64), k=np.round(p).astype(np.int64),
                   p_hat=p, ci_lo=p, ci_hi=p)

    def __len__(self) -> int:
        return self.n.size

    def __getitem__(self, i: int) -> PLosEstimate:
        return PLosEstimate(
            n=int(self.n[i]), k=int(self.k[i]), p_hat=float(self.p_hat[i]),
            ci_lo=float(self.ci_lo[i]), ci_hi=float(self.ci_hi[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))
