"""Bernoulli estimate containers and Wilson score interval."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCounts

__all__ = ["Z95", "wilson_interval", "wilson_bounds", "PLosEstimate", "PLosEstimates"]

#: Two-sided 95% normal quantile used for all confidence intervals.
Z95 = 1.96


def wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion.

    Args:
        k: success count, 0 <= k <= n.
        n: trial count, n >= 1.
        z: normal quantile (default 1.96 for 95%).

    Returns:
        (lo, hi) clamped to [0, 1]; lo = 0 exactly when k = 0 and
        hi = 1 exactly when k = n.
    """
    if n < 1 or k < 0 or k > n:
        raise InvalidCounts(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    if z <= 0.0:
        raise InvalidCounts(f"z must be positive, got {z}")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    # the degenerate endpoints are exactly 0 and 1 analytically; rounding
    # in the quotient above can miss them by one ulp
    if k == 0:
        lo = 0.0
    if k == n:
        hi = 1.0
    return lo, hi


def wilson_bounds(k, n, z: float = Z95) -> tuple[np.ndarray, np.ndarray]:
    """:func:`wilson_interval` of each count pair (k[i], n[i]), as arrays
    of lower and upper bounds: one array expression that gives the
    scalar function's bits, operation for operation.  k and n are
    integer arrays or scalars that broadcast."""
    k, n = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(n, dtype=np.int64))
    valid = (n >= 1) & (k >= 0) & (k <= n)
    if not valid.all():
        bad = valid.argmin()
        raise InvalidCounts(f"need 0 <= k <= n with n >= 1, got k={k.flat[bad]}, n={n.flat[bad]}")
    if z <= 0.0:
        raise InvalidCounts(f"z must be positive, got {z}")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = np.where(k == 0, 0.0, np.maximum(0.0, center - half))
    hi = np.where(k == n, 1.0, np.minimum(1.0, center + half))
    return lo, hi


@dataclass(frozen=True)
class PLosEstimate:
    """A LoS-probability estimate with its Wilson 95% bounds.

    For Monte-Carlo estimates p_hat = k/n.  Closed-form model rows use
    :meth:`exact`, which stores the model value with a degenerate
    interval (n = 1, k = round(p)).
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

    @classmethod
    def from_counts(cls, k: int, n: int, z: float = Z95) -> "PLosEstimate":
        lo, hi = wilson_interval(k, n, z)
        return cls(n=n, k=k, p_hat=k / n, ci_lo=lo, ci_hi=hi)

    @classmethod
    def exact(cls, p: float) -> "PLosEstimate":
        if not 0.0 <= p <= 1.0:
            raise InvalidCounts(f"probability must be in [0, 1], got {p}")
        return cls(n=1, k=int(round(p)), p_hat=p, ci_lo=p, ci_hi=p)


@dataclass(frozen=True, eq=False)
class PLosEstimates:
    """The estimates of several points as columns: element i of n, k,
    p_hat, ci_lo and ci_hi is the :class:`PLosEstimate` of point i, which
    indexing builds.  Columns are arrays of one length, checked as
    PLosEstimate checks one estimate."""

    n: np.ndarray
    k: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray

    def __post_init__(self):
        if not np.all((0 <= self.k) & (self.k <= self.n)):
            raise InvalidCounts(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        lo, p, hi = self.ci_lo, self.p_hat, self.ci_hi
        if not np.all((0.0 <= lo) & (lo <= p) & (p <= hi) & (hi <= 1.0)):
            raise InvalidCounts(f"bounds must satisfy 0 <= lo <= p <= hi <= 1, got {lo, p, hi}")

    @classmethod
    def from_counts(cls, k, n, z: float = Z95) -> "PLosEstimates":
        """Monte-Carlo estimates p_hat = k/n of count arrays k and n (or
        scalars that broadcast), with their Wilson bounds
        (:func:`wilson_bounds`): element for element what
        :meth:`PLosEstimate.from_counts` gives."""
        k, n = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(n, dtype=np.int64))
        lo, hi = wilson_bounds(k, n, z)
        return cls(n=n, k=k, p_hat=k / n, ci_lo=lo, ci_hi=hi)

    @classmethod
    def stack(cls, estimates) -> "PLosEstimates":
        """The columns of a sequence of :class:`PLosEstimate`."""
        return cls(
            n=np.array([e.n for e in estimates], dtype=np.int64),
            k=np.array([e.k for e in estimates], dtype=np.int64),
            p_hat=np.array([e.p_hat for e in estimates], dtype=float),
            ci_lo=np.array([e.ci_lo for e in estimates], dtype=float),
            ci_hi=np.array([e.ci_hi for e in estimates], dtype=float),
        )

    def __len__(self) -> int:
        return self.n.size

    def __getitem__(self, i: int) -> PLosEstimate:
        return PLosEstimate(
            n=int(self.n[i]), k=int(self.k[i]), p_hat=float(self.p_hat[i]),
            ci_lo=float(self.ci_lo[i]), ci_hi=float(self.ci_hi[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))
