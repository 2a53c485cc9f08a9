"""Exception types raised across the package."""


class QDilateError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QDilateError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(QDilateError):
    """Matrix fails the Hermiticity tolerance."""


class NotPSD(QDilateError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NotIsometry(QDilateError):
    """Columns are not orthonormal (or a completed matrix is not unitary)."""


class NotCompletelyPositive(QDilateError):
    """Map has a negative canonical weight; no square root exists."""


class NotTracePreserving(NotIsometry):
    """Kraus completeness sum differs from the identity, so V^dagger V != I."""


class BadRank(QDilateError):
    """Requested Kraus rank is outside [1, dim^2]."""


class OverComplete(QDilateError):
    """Instrument effects sum beyond the identity (probabilities > 1)."""


class Incomplete(QDilateError):
    """Instrument effects do not sum to the identity."""


class ParseError(QDilateError):
    """File is not valid JSON or lacks the expected structure."""


class ValidationError(QDilateError):
    """Parsed data violates a declared invariant."""
