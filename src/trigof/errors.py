"""Typed errors raised across the package.

A call on one sample or one theta raises instead of returning NaN, so that
its caller can fail hard; a function over theta rows (a block of
Monte-Carlo replications) returns NaN on a row that fails instead, so that
the other rows go on.
"""


class TrigofError(Exception):
    """Base class for all package errors."""


class DomainError(TrigofError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(TrigofError, ValueError):
    """An unsupported (family, estimator, mask) combination was requested."""


class EstimationError(TrigofError, RuntimeError):
    """Parameter estimation failed to converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateSampleError(EstimationError):
    """The sample carries no information for the fit (e.g. all values equal)."""


class SingularityError(TrigofError, RuntimeError):
    """A matrix required to be invertible / positive definite is not."""
