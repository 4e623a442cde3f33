"""Exception hierarchy shared across the package.

Every error carries a human-readable message with the measured deviation,
so callers (and the CLI) can surface exactly which contract was violated.
"""


class HqcError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(HqcError):
    """Matrix is not Hermitian within tolerance."""


class TraceNotOne(HqcError):
    """Matrix trace differs from one beyond tolerance."""


class NotPositive(HqcError):
    """Matrix has an eigenvalue below the positivity tolerance."""


class ZeroSuccessProbability(HqcError):
    """A filtering operation annihilates the state's support."""


class ComplexSpectrum(HqcError):
    """The normal-form spectrum is undefined: the picture's rho has an eigenvalue below -1e-8,
    so the input is unphysical."""


class DegenerateNormalForm(HqcError):
    """Leading normal-form eigenvalue vanishes; hidden measures undefined."""


class OptimumMismatch(HqcError):
    """An optimiser's value is not reproduced by the state it reports."""


class DomainError(HqcError):
    """Argument outside its documented domain."""


class ParseError(HqcError):
    """Input file does not match the expected schema."""
