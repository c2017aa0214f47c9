"""Exception types shared across the package."""


class ConsmaxError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(ConsmaxError, ValueError):
    """A precondition on an argument was violated."""


class TooLarge(ConsmaxError):
    """Instance exceeds the size limit of an exhaustive routine."""


class LpNotConverged(ConsmaxError):
    """The LP sub-solver hit its iteration cap before reaching tolerance."""


class DegenerateConfiguration(ConsmaxError, ValueError):
    """Pose problem is degenerate (collinear 3D points or coincident bearings)."""


class InvalidRotation(ConsmaxError, ValueError):
    """Matrix is not orthonormal with determinant +1 within tolerance."""


class GeodesicFailure(ConsmaxError):
    """A cluster's matched points are entirely disconnected on one shape."""


class EmptyMatches(ConsmaxError, ValueError):
    """Pipeline entry requires a non-empty, in-range match set."""


class TooFewMatches(ConsmaxError):
    """A cluster has too few usable matches to build any vertex."""


class AllClustersSkipped(ConsmaxError):
    """Every cluster was skipped; no labels could be inferred."""


class MalformedInput(ConsmaxError, ValueError):
    """A file could not be parsed. Carries the offending location."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}: "
        elif path is not None:
            where += " "
        super().__init__(f"{where}{message}")


class LengthMismatch(ConsmaxError, ValueError):
    """Two per-match sequences have different lengths."""
