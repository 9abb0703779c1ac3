"""Exception types shared across the package."""


class SpherecalcError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SpherecalcError):
    """Vector or matrix sizes are incompatible."""


class RingMismatch(SpherecalcError):
    """Operands live over different coefficient rings."""


class InvalidForm(SpherecalcError, ValueError):
    """A matrix given as a form lacks a required property.

    Raised for an intersection form that is not symmetric and unimodular,
    a ring matrix that is not hermitian, and equivariant data whose action
    does not preserve the form or has no finite order.
    """


class NotFreeBasis(SpherecalcError):
    """The supplied orbit representatives do not span freely."""


class ZeroClass(SpherecalcError):
    """The operation is undefined for the zero homology class."""


class NotCharacteristic(SpherecalcError):
    """The class is ordinary, so the characteristic-only criterion does not apply."""


class DivisibilityViolation(SpherecalcError):
    """Internal consistency failure: an expected divisibility did not hold."""


class NotApplicable(SpherecalcError):
    """The requested rule does not apply to this input."""


class ParseError(SpherecalcError):
    """Malformed textual input; carries the offending position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class WitnessVerificationFailed(SpherecalcError):
    """Internal consistency failure: a witness failed its exact re-verification."""
