"""Exception types shared across the package."""


class StickyLabError(Exception):
    """Base class for all stickylab errors."""


class InvalidArgumentError(StickyLabError, ValueError):
    """A precondition on an argument was violated."""


class GridMismatchError(StickyLabError, ValueError):
    """Two paths that must share a grid do not."""


class UnsupportedGridError(StickyLabError, ValueError):
    """The operation requires a grid shape (e.g. uniform spacing) it did not get."""


class NumericalFailureError(StickyLabError, RuntimeError):
    """A numerical routine failed even after its mandated fallback."""


class TimeChangeRangeError(StickyLabError, ValueError):
    """A passage-time change needs a level the path does not reach on its grid."""


class InvalidRuleError(StickyLabError, ValueError):
    """A stopping rule is malformed or unusable on the given grid."""


class ContractViolationError(StickyLabError, ValueError):
    """An interface contract (e.g. f(0) = 0) was violated."""


class DegenerateInputError(StickyLabError, ValueError):
    """The input is degenerate for the requested operation (e.g. zero quadratic variation)."""


class AlignmentError(StickyLabError, ValueError):
    """Strategy breakpoints do not line up with the price grid."""


class ConfigError(StickyLabError, ValueError):
    """An experiment configuration could not be resolved."""
