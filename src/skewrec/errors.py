"""Exception types shared across the package."""


class SkewrecError(Exception):
    """Base class for every error raised by this library."""


class DivisionByZero(SkewrecError, ZeroDivisionError):
    """Division by the zero element."""


class ZeroDivisor(SkewrecError):
    """A nonzero element of zero norm was asked for an inverse.

    This can only happen when the configured (a,b) pair does not give a
    division algebra; nothing is certified up front, the failure surfaces
    here at the offending inversion.  Conjugacy-class bookkeeping also
    stops being reliable in that situation.
    """


class ContextMismatch(SkewrecError):
    """Operands belong to different field contexts or algebras."""


class ParseError(SkewrecError):
    """Malformed literal or spec file; carries the offending position and,
    as `reason`, the message without it."""

    def __init__(self, message, line=None, col=None):
        self.reason = message
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, col {col}: {message}"
        elif col is not None:
            message = f"col {col}: {message}"
        super().__init__(message)


class ValidationError(SkewrecError):
    """A structural invariant of the input is violated."""


class UnsupportedOrder(ValidationError):
    """The recurrence order is outside what the solver implements."""


class UnsupportedDegree(SkewrecError):
    """Polynomial degree outside the exact factorizer's range."""


class DegenerateFrame(SkewrecError):
    """Orthogonalization hit an isotropic vector while building a frame."""


class NoRepresentative(SkewrecError):
    """Bounded search found no element with the requested trace and norm."""


class NoRootsFound(SkewrecError):
    """Root search failed for the characteristic polynomial."""


class DimensionMismatch(SkewrecError):
    """Matrix or vector shapes are incompatible."""


class Singular(SkewrecError):
    """Gaussian elimination found a zero pivot column."""


class SingularU(SkewrecError):
    """Jordan chains came out linearly dependent."""


class NoSolution(SkewrecError):
    """A generalized-eigenvector system is inconsistent."""


class LamViolation(SkewrecError):
    """Three of the supplied roots share one conjugacy class."""


class InternalError(SkewrecError):
    """An assertion about our own arithmetic failed; always a bug."""
