"""Typed errors raised across the package.

Numerical routines raise instead of propagating NaNs so that callers
(root-finders, Monte-Carlo loops) can fail hard or isolate the failure.
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


class SamplingError(TrigofError, RuntimeError):
    """Random-variate generation failed (numeric CDF inversion did not bracket)."""


class SingularityError(TrigofError, RuntimeError):
    """A matrix required to be invertible / positive definite is not."""
