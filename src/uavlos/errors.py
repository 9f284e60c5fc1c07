"""Exception types shared across the package.

Every error raised by the library derives from :class:`UavLosError`, so
callers can catch one base class.  The concrete classes mirror the
distinct failure modes of the geometry kernel, the two simulators, the
baseline models and the sweep harness.
"""


class UavLosError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(UavLosError, ValueError):
    """A built-up parameter, height or count is outside its domain."""


class OutOfExtent(UavLosError, ValueError):
    """A ground position lies outside the city extent."""


class InvalidAngle(UavLosError, ValueError):
    """An elevation or azimuth angle is outside its legal range."""


class EndpointInsideBuilding(UavLosError, ValueError):
    """A link endpoint sits strictly inside a building volume."""


class NoSuchCell(UavLosError, ValueError):
    """The extent holds no grid cell of the requested kind."""


class EmptyTable(UavLosError, ValueError):
    """A step table holds no rows."""


class InvalidCounts(UavLosError, ValueError):
    """Success/trial counts are inconsistent (k < 0, k > n or n < 1)."""


class IllegalSpec(UavLosError, ValueError):
    """A sweep specification combines engines and axes illegally."""


class ParseError(UavLosError, ValueError):
    """A structured text document failed to parse.

    Carries the 1-based line number when one is known so command-line
    diagnostics can point at the offending line.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
