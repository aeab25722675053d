"""Exception types shared across the simulator."""


class InvalidInputError(ValueError):
    """An argument violates an operation's domain (NaN/Inf, empty vector, ...)."""


class DegenerateGeometryError(ValueError):
    """Geometry the channel model cannot handle (zero distance, stacked nodes)."""


class ShapeError(ValueError):
    """Matrix dimensions do not conform."""


class ConfigurationError(ValueError):
    """Invalid simulation configuration; maps to CLI exit code 2."""
