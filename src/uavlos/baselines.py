"""Parameterized analytical P_LoS model families.

Three families cover the shapes commonly fitted in the air-to-ground
literature: a grid-blockage product over the buildings crossed
(GridProduct), a logistic curve in the elevation angle (Sigmoid) and a
piecewise-constant table (StepTable).  Model sets load from a small
line-oriented text format so coefficients stay editable data, not
code; the shipped example file is an illustrative placeholder, not
ground truth.
"""

from __future__ import annotations

import math

from ._record import record
from .citygeom import BuiltUpParams, derive_layout, track_length
from .errors import EmptyTable, InvalidAngle, InvalidParams, ParseError
from .simgeom import check_track_length

__all__ = [
    "GridProduct",
    "Sigmoid",
    "StepTable",
    "BaselineModel",
    "evaluate",
    "load_model_set",
]


@record
class GridProduct:
    """Blockage product over m + 1 equally spaced buildings.

    m = floor(r * sqrt(alpha*beta) / 1000) buildings are assumed over
    the ground distance r; each contributes the probability that a
    Rayleigh(gamma) roof stays below the ray at its midpoint.  A gamma
    so small that 2*gamma*gamma underflows to 0, the factors' divisor,
    is refused.
    """

    params: BuiltUpParams

    def __post_init__(self):
        gamma = self.params.gamma
        if 2.0 * gamma * gamma == 0.0:
            raise InvalidParams(f"GridProduct needs 2*gamma^2 above 0, got gamma={gamma}")


@record
class Sigmoid:
    """Logistic curve 1 / (1 + a*exp(-b*(theta - a)))."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise InvalidParams(f"sigmoid coefficients must be positive, got a={self.a}, b={self.b}")


@record
class StepTable:
    """Piecewise-constant P_LoS over elevation bins partitioning [0, 90].

    rows are (theta_lo, theta_hi, p) with contiguous coverage from 0 to
    90; each bin is half-open [lo, hi) except the last, which includes
    90 degrees.
    """

    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.rows) == 0:
            raise EmptyTable("a step table needs at least one row")
        expected_lo = 0.0
        for lo, hi, p in self.rows:
            if lo != expected_lo:
                raise InvalidParams(
                    f"rows must tile [0, 90] contiguously; expected lo={expected_lo}, got {lo}"
                )
            if not hi > lo:
                raise InvalidParams(f"empty bin [{lo}, {hi})")
            if not 0.0 <= p <= 1.0:
                raise InvalidParams(f"probability {p} outside [0, 1]")
            expected_lo = hi
        if expected_lo != 90.0:
            raise InvalidParams(f"rows must end at 90, got {expected_lo}")


BaselineModel = GridProduct | Sigmoid | StepTable


def evaluate(model: BaselineModel, theta_deg: float, h_uav: float, h_rx: float) -> float:
    """Evaluate a baseline model at one elevation angle.

    Args:
        model: any of the three families.
        theta_deg: elevation in [0, 90].
        h_uav, h_rx: transmitter and receiver heights in metres; only
            GridProduct uses them and needs h_uav > h_rx >= 0.

    GridProduct refuses, with InvalidAngle, a ground distance longer than
    the geometry engine's bound (:func:`uavlos.simgeom.check_track_length`),
    as the engines do; theta = 0 is its limit, 0.

    Returns:
        P_LoS in [0, 1].
    """
    if not 0.0 <= theta_deg <= 90.0:
        raise InvalidAngle(f"theta must be in [0, 90], got {theta_deg}")

    if isinstance(model, GridProduct):
        if h_rx < 0.0 or h_uav <= h_rx:
            raise InvalidParams(
                f"GridProduct needs h_uav > h_rx >= 0, got h_uav={h_uav}, h_rx={h_rx}"
            )
        if theta_deg == 0.0:
            return 0.0  # infinitely many buildings in the limit
        pr = model.params
        # One factor per building row under the ray: refuse the tracks the
        # geometry engine refuses, so the loop stays bounded.
        check_track_length(derive_layout(pr).period, theta_deg, h_uav, h_rx)
        r = track_length(theta_deg, h_uav, h_rx)
        m = math.floor(r * math.sqrt(pr.alpha * pr.beta) / 1000.0)
        out = 1.0
        for n in range(m + 1):
            h = h_uav - (n + 0.5) * (h_uav - h_rx) / (m + 1)
            out *= 1.0 - math.exp(-(h * h) / (2.0 * pr.gamma * pr.gamma))
        return out

    if isinstance(model, Sigmoid):
        return 1.0 / (1.0 + model.a * math.exp(-model.b * (theta_deg - model.a)))

    if isinstance(model, StepTable):
        for lo, hi, p in model.rows:
            if lo <= theta_deg < hi or (theta_deg == 90.0 and hi == 90.0):
                return p
        raise EmptyTable(f"no bin covers theta={theta_deg}")  # unreachable for valid tables

    raise InvalidParams(f"unknown model {model!r}")


def _parse_rows(text: str, line_no: int) -> tuple[tuple[float, float, float], ...]:
    rows = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ParseError(f"step row {chunk!r} is not lo:hi:p", line_no)
        try:
            rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(f"step row {chunk!r}: {exc}", line_no) from exc
    return tuple(rows)


def _parse_kv(tokens: list[str], line_no: int) -> dict[str, str]:
    kv = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ParseError(f"expected key=value, got {token!r}", line_no)
        if key in kv:
            raise ParseError(f"duplicate key {key!r}", line_no)
        kv[key] = value
    return kv


def _require_keys(kv: dict[str, str], keys: set[str], line_no: int) -> None:
    if set(kv) != keys:
        raise ParseError(
            f"expected keys {sorted(keys)}, got {sorted(kv)}", line_no
        )


def _float_of(kv: dict[str, str], key: str, line_no: int) -> float:
    try:
        return float(kv[key])
    except ValueError as exc:
        raise ParseError(f"{key}={kv[key]!r} is not a number", line_no) from exc


def load_model_set(text: str) -> dict[str, BaselineModel]:
    """Parse a model-set document into named baseline models.

    One model per line: ``name family key=value ...``; families are
    ``sigmoid`` (a, b), ``gridproduct`` (alpha, beta, gamma) and
    ``steptable`` (rows=lo:hi:p,lo:hi:p,...).  '#' comments and blank
    lines are skipped; an empty document yields an empty map.  Errors
    carry the offending line number.
    """
    models: dict[str, BaselineModel] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(f"expected 'name family key=value ...', got {raw!r}", line_no)
        name, family = tokens[0], tokens[1]
        if name in models:
            raise ParseError(f"duplicate model name {name!r}", line_no)
        kv = _parse_kv(tokens[2:], line_no)
        try:
            if family == "sigmoid":
                _require_keys(kv, {"a", "b"}, line_no)
                models[name] = Sigmoid(
                    a=_float_of(kv, "a", line_no), b=_float_of(kv, "b", line_no)
                )
            elif family == "gridproduct":
                _require_keys(kv, {"alpha", "beta", "gamma"}, line_no)
                models[name] = GridProduct(
                    BuiltUpParams(
                        alpha=_float_of(kv, "alpha", line_no),
                        beta=_float_of(kv, "beta", line_no),
                        gamma=_float_of(kv, "gamma", line_no),
                    )
                )
            elif family == "steptable":
                _require_keys(kv, {"rows"}, line_no)
                models[name] = StepTable(_parse_rows(kv["rows"], line_no))
            else:
                raise ParseError(f"unknown family {family!r}", line_no)
        except (InvalidParams, EmptyTable) as exc:
            raise ParseError(str(exc), line_no) from exc
    return models
