"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """Raised when a graph or pinning document violates the JSON schema."""


class PinningError(ValueError):
    """Raised on infeasible pinnings or illegal pin operations."""


class NotATreeError(ValueError):
    """Raised when an operation requiring an acyclic input gets a cyclic graph."""


class CapExceededError(ValueError):
    """Raised when an enumeration would exceed the configured size cap."""


class ZeroPartitionError(ArithmeticError):
    """Raised when a partition value vanishes where a ratio is required.

    A zero here is data, not a bug: it marks a zero of the partition
    function, which is exactly what zero-freeness experiments look for.
    """


class SeriesDivisionError(ArithmeticError):
    """Raised when formal power-series division is undefined."""


class DrawLimitError(RuntimeError):
    """Raised when a seeded draw loop finds no acceptable candidate within its
    bound, so that a corpus cannot be completed."""


class RootConvergenceError(RuntimeError):
    """Raised when the simultaneous root iteration fails to converge."""
