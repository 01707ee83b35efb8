"""Exception types raised by the package.

Every error condition surfaced by the public API is a subclass of
PadicHGError, so callers (including the CLI) can catch one type.
"""


class PadicHGError(Exception):
    """Base class for all package errors."""


class NotPrimeError(PadicHGError):
    """The modulus supplied is not a prime number."""


class PrimeTooSmallError(PadicHGError):
    """The prime is below the supported range (p >= 5)."""


class BadPrecisionError(PadicHGError):
    """Requested precision is not one the evaluators support (at most 3)."""


class SingularLambdaError(PadicHGError):
    """The Legendre parameter hits a singular fiber (lambda = 0 or 1)."""


class NoOrderFourCharacterError(PadicHGError):
    """A character of exact order 4 needs p = 1 (mod 4)."""


class WrongResidueClassError(PadicHGError):
    """The prime lies outside the residue class the formula requires."""


class PrecisionExhaustedError(PadicHGError):
    """The working precision cannot certify the requested result."""


class ParameterNotPadicError(PadicHGError):
    """A parameter is not a p-adic integer (denominator divisible by p)."""


class NoRepresentativeError(PadicHGError):
    """No signed integer within the claimed bound matches the residue."""


class BadWeightError(PadicHGError):
    """Trace formulas need an even weight k >= 4."""


class NonIntegralLeadingPowerError(PadicHGError):
    """An eta-quotient q-expansion must start at an integer power of q."""


class ArgumentNotRepresentableError(PadicHGError):
    """A derived argument is not representable as a p-adic integer."""
