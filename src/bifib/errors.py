"""Exception types shared across the package."""


class BifibError(Exception):
    """Base class for all package-specific errors."""


class MalformedElement(BifibError):
    """A polynomial contains monomials outside the expected canonical family."""


class DomainError(BifibError):
    """An index lies outside the domain of the requested family or operation."""


class DimensionError(BifibError):
    """Matrix or vector dimensions do not fit the requested operation."""


class SingularMatrixError(BifibError):
    """An exact linear solve met a singular system.

    The built-in sequence bases are provably nonsingular, so seeing this for
    one of them means an internal defect, not bad user input.
    """


class IntegralityViolation(BifibError):
    """A value that must be an integer came out with a non-trivial denominator."""
