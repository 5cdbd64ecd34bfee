"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class OverflowSiteError(OverflowError):
    """A propagated quantity left the representable range.

    ``site`` names the first offending site index.
    """

    def __init__(self, site, message=None):
        self.site = site
        super().__init__(message or f"overflow at site {site}")


class InsufficientDataError(ValueError):
    """Not enough computed sites / points for the requested quantity."""


class UnsupportedModelError(ValueError):
    """The perturbation model is unsupported: an unknown kind or a~ to draw."""


class InternalConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree.

    ``site`` names the first offending site index, when known.
    """

    def __init__(self, message, site=None):
        self.site = site
        super().__init__(message)


class DivergentSeriesError(ValueError):
    """A series whose convergence is a precondition failed its decay test."""


class ConfigError(ValueError):
    """A config violates the schema.

    ``path`` is the tuple of keys (and list indices) that leads from the
    config root to the offending value; ``message`` says what is wrong.
    """

    def __init__(self, message, path=()):
        self.message = message
        self.path = tuple(path)
        super().__init__(message)
