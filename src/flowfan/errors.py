"""Exception types shared across the package."""


class FlowFanError(Exception):
    """Base class for all package-specific errors."""


class UnknownVertex(FlowFanError, KeyError):
    pass


class UnknownEdge(FlowFanError, KeyError):
    pass


class MissingHalfEdge(FlowFanError, KeyError):
    pass


class AmbientMismatch(FlowFanError, ValueError):
    pass


class UnsupportedDimension(FlowFanError, ValueError):
    pass


class NotPointed(FlowFanError, ValueError):
    pass


class BoxTooSmall(FlowFanError, ValueError):
    pass


class DimensionTooLarge(FlowFanError, ValueError):
    pass


class BudgetExceeded(FlowFanError):
    """An input whose work, estimated before it starts, is above a fixed
    limit. ``estimate`` and ``limit`` are in the same unit."""

    def __init__(self, message, estimate, limit):
        super().__init__(f"{message}: estimated {estimate}, limit {limit}")
        self.estimate = estimate
        self.limit = limit


class ParseError(FlowFanError, ValueError):
    """Structured JSON parse failure. ``path`` points at the offending node."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class ValidationError(FlowFanError, ValueError):
    """A parsed document violates a graph invariant. ``code`` names it."""

    def __init__(self, code, message=""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
