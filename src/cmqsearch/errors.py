"""Exception taxonomy shared by all modules, with CLI exit codes."""


class CmqsearchError(Exception):
    """Base class for all cmqsearch errors."""

    exit_code = 1


class DomainError(CmqsearchError, ValueError):
    """Input outside the mathematical domain of an operation or type."""

    exit_code = 1


class BracketError(CmqsearchError, ArithmeticError):
    """A root-finding bracket failed to change sign; signals an upstream
    invariant violation rather than a root-finding failure."""

    exit_code = 1


class AmbiguityError(CmqsearchError):
    """A range query straddles two or more phase segments."""

    exit_code = 2


class RangeError(CmqsearchError):
    """Queried lambda lies below the coverage of the plan table."""

    exit_code = 3


class ConfigError(CmqsearchError):
    """Solver or run configuration cannot be satisfied (e.g. phase-count cap)."""

    exit_code = 4


class VerificationError(CmqsearchError):
    """A verification suite found a violated invariant."""

    exit_code = 5
