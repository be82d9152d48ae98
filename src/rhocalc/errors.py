"""Exception hierarchy shared by all rhocalc modules."""


class RhoCalcError(Exception):
    """Base class for every error raised by rhocalc."""


class BackendError(RhoCalcError):
    """Operands use different (or unsupported) coefficient backends."""


class OrderError(RhoCalcError):
    """Ordering requested on a value that is not real-flagged."""


class DimensionError(OrderError):
    """Vector/point dimension mismatch."""


class CanonicalizationError(RhoCalcError):
    """Growth order data cannot be brought to canonical form."""


class DivisionByZero(RhoCalcError, ZeroDivisionError):
    """Inversion of an element with empty known support."""


class RootError(RhoCalcError):
    """Requested root does not exist in the active backend."""


class BudgetError(RhoCalcError):
    """An operation would exceed the work budget (terms or integer digits)."""


class LiftError(RhoCalcError):
    """Newton lifting stalled before reaching the target residual valuation."""


class NestingError(OrderError):
    """Interval family is not nested."""


class DomainError(RhoCalcError):
    """Point or set falls outside the required open set."""


class DerivativeOrderError(RhoCalcError):
    """A coefficient provider was asked for a derivative beyond its order."""


class ProviderError(RhoCalcError):
    """A coefficient provider failed to evaluate (e.g. unbounded on K)."""


class ModeError(RhoCalcError):
    """Negligibility mode precondition violated."""


class GlueError(RhoCalcError):
    """Local pieces are incompatible on an overlap; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConnectivityError(RhoCalcError):
    """Operation requires an arcwise connected domain."""


class MomentSystemError(RhoCalcError):
    """The mollifier moment system is singular at the requested order."""


class ParameterError(RhoCalcError):
    """Invalid numeric parameter (e.g. non-positive rho, degenerate grid)."""


class SpecError(RhoCalcError):
    """Unsupported distribution specification."""


class ParseError(RhoCalcError):
    """Syntax error with source position."""

    def __init__(self, message, line=1, col=0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col
