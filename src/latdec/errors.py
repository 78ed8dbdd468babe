"""Exception types shared across the toolkit."""


class LatdecError(Exception):
    """Base class for all toolkit errors."""


class RankDeficient(LatdecError):
    """Matrix does not have full (numerical) column rank."""


class DimensionMismatch(LatdecError):
    """Operands have incompatible shapes."""


class IncompatibleBoundary(LatdecError):
    """Constrained search requested with a basis change that destroys the box."""


class EmptySearchSpace(LatdecError):
    """No leaf node satisfies the bounding function; caller may relax and retry."""


class TooLarge(LatdecError):
    """Exhaustive enumeration would exceed the safety guard."""


class InvalidTaps(LatdecError):
    """ISI impulse response is empty or all-zero."""


class RankDeficientCode(LatdecError):
    """Code generator matrix is rank deficient over the base field."""


class ConfigError(LatdecError):
    """Experiment configuration is malformed; message names the offending field."""
