"""Exception hierarchy shared by all modules.

Domain errors (bad inputs, out-of-domain evaluation points) and resource
errors (the length cap, unreachable tolerances) are distinct so the CLI can
map them to distinct exit codes.
"""


class ZetadistError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZetadistError):
    """Input violates a documented precondition."""


class InvalidLengthError(DomainError):
    """Truncation length must be a positive integer."""


class NonInvertibleError(DomainError):
    """No Dirichlet inverse exists because a(1) = 0."""


class UnsupportedExactnessError(DomainError):
    """Requested coefficients are not representable as exact rationals."""


class OutOfDomainError(DomainError):
    """Evaluation point lies outside the certified half-plane."""


class NotDistributionError(DomainError):
    """Coefficients do not define a probability distribution
    (needs a(1) > 0 and a(n) >= 0 for all n)."""


class HypothesisViolationError(DomainError):
    """An operation's structural hypothesis fails (e.g. all coefficients zero)."""


class ResourceLimitError(ZetadistError):
    """A length exceeds the coefficient cap, or a tolerance is unreachable
    within the stored coefficients."""


class ContourError(ZetadistError):
    """Zero counting could not be certified on any attempted contour."""
