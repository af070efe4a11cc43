"""Exception types shared across the package."""


class CarpenterError(Exception):
    """Base class for all package errors."""


class SpecError(CarpenterError, ValueError):
    """A diagonal description is malformed (entries outside [0,1], bad tail)."""


class UnsupportedStructureError(CarpenterError, ValueError):
    """The requested operation cannot be expressed with the closed tail forms."""


class OutOfRangeError(CarpenterError, IndexError):
    """An index query ran past the end of a finite index class."""


class InfeasibleDiagonalError(CarpenterError, ValueError):
    """The integrality obstruction rules out a projection with this diagonal.

    ``report`` holds the feasibility report when the router raised it.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConstructionError(CarpenterError, RuntimeError):
    """A construction hypothesis failed at a specific step."""


class MajorizationError(CarpenterError, ValueError):
    """Target diagonal is not majorized by the requested spectrum."""


class ExactnessError(CarpenterError, ValueError):
    """Exact rational data was requested but only floating point is available."""
