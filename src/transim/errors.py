"""Shared exception types.

Everything numerical in this package either returns a report or raises one
of these.  Soft diagnostics (e.g. Newton seeds that failed to converge) are
carried inside reports instead of being raised.
"""


class TransimError(Exception):
    """Base class for all package errors."""


class OutOfTube(TransimError):
    """A point was handed to a projection outside the tubular neighborhood."""


class RankDrop(TransimError):
    """A constraint Jacobian lost rank where full rank was required."""


class IncompatibleFaces(TransimError):
    """Boundary data disagree on a shared face beyond tolerance."""


class NonFiniteMap(TransimError):
    """A simplex map has a NaN or infinite coefficient."""


class ToleranceUnreachable(TransimError):
    """A least-squares surrogate could not meet the requested sup tolerance."""


class TrialsExhausted(TransimError):
    """No perturbation direction passed the transversality check."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NotTransverse(TransimError):
    """An intersection-number query was made against a non-transverse map."""


class NearSingularSign(TransimError):
    """An intersection sign determinant fell below the trust threshold."""


class SchemaError(TransimError):
    """A scenario configuration failed validation."""
