"""Exception hierarchy shared across the package.

Three top branches matter for the CLI exit-code mapping: ``ConfigError``
(bad input, exit 3), ``SolverError`` (numerical failure, exit 1) and
``ViolationError`` (a checked property failed on actual output, exit 2).
Every other ``MonoheatError`` exits 1.
"""


class MonoheatError(Exception):
    """Base class for all package errors."""


class ConfigError(MonoheatError):
    """Invalid configuration or misuse of an interface."""


class ParseError(ConfigError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ConfigError):
    """A bad input value; ``key`` names the input, when the raiser knows it."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class InvalidArgument(ValidationError):
    pass


class GraphAuditError(ValidationError):
    """Declared graph constants contradict sampled behaviour."""


class HypothesisViolation(ConfigError):
    """A check was requested outside the hypotheses it requires."""


class SolverError(MonoheatError):
    """Numerical failure while solving."""


class NonConvergence(SolverError):
    def __init__(self, message, residual_history=None, time_index=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.time_index = time_index


class LinearSolveFailure(SolverError):
    pass


class SingularJacobian(SolverError):
    pass


class QuadratureFailure(SolverError):
    pass


class ViolationError(MonoheatError):
    """A monitored inequality or cross-check failed."""


class BoundViolation(ViolationError):
    def __init__(self, message, time_index=None):
        super().__init__(message)
        self.time_index = time_index


class SolverDisagreement(ViolationError):
    pass


class PropertyFailure(ViolationError):
    pass


class DomainError(MonoheatError):
    pass


class Unsupported(MonoheatError):
    pass


class DegenerateElement(MonoheatError):
    pass


class EmptyBoundary(MonoheatError):
    pass


class DimensionMismatch(MonoheatError):
    pass


class InsufficientLevels(MonoheatError):
    pass
