"""Exception types shared across the simulator."""


class InvalidInputError(ValueError):
    """An argument violates an operation's domain (NaN/Inf, empty vector, ...)."""


class LinkError(InvalidInputError):
    """An InvalidInputError about one link of a stack, named by its index."""

    def __init__(self, link: int, problem: str):
        super().__init__(f"link {link}: {problem}")
        self.link, self.problem = link, problem


class ShapeError(ValueError):
    """Matrix dimensions do not conform."""


class ConfigurationError(ValueError):
    """Invalid simulation configuration; maps to CLI exit code 2."""
