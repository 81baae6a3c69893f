"""Exception hierarchy for the gfadm package."""


class GfadmError(Exception):
    """Base class for all gfadm errors."""


class UsageError(GfadmError):
    """Caller violated a precondition (bad arguments, mismatched operands)."""


class OrderMismatchError(UsageError):
    """Series operands do not share the same truncation order."""


class ProblemFileError(UsageError):
    """A problem configuration file is malformed."""


class ExpressionError(GfadmError):
    """Syntax or grammar error while parsing an expression."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvaluationError(GfadmError):
    """Expression evaluation failed (division by zero, non-finite value)."""


class SingularDivisionError(EvaluationError):
    """Division by a series whose constant term vanishes.

    Signals that the nonlinearity's denominator is zero at the expansion
    point.  ``location`` carries the abscissa when known; ``index`` is the
    position of the first such point among point-valued coefficients.
    """

    def __init__(self, message, location=None, index=0):
        if location is not None:
            message = f"{message} (at x={location:g})"
        super().__init__(message)
        self.location = location
        self.index = index


class NumericError(GfadmError):
    """A numeric computation failed to reach its accuracy target."""


class DegreeCapError(NumericError):
    """Polynomial degree exceeded the hard cap of the exact backend."""


class UnsupportedBackendError(GfadmError):
    """The requested backend cannot handle this problem."""


class BoundInapplicableError(GfadmError):
    """The contraction factor is >= 1, so the truncation bound does not apply."""


class NoConvergenceError(NumericError):
    """A series diverged, or the finite-difference oracle's Newton iteration did not."""

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual
