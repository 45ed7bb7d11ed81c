"""Omnibus goodness-of-fit testing from trigonometric moments of PIT data.

The test statistic is a quadratic form in the sample means of
cos(2*pi*U_i) and sin(2*pi*U_i), where U_i = F(X_i | theta_hat) is the
probability integral transform under the fitted null model.  The quadratic
form is scaled by a covariance matrix that accounts for nuisance-parameter
estimation, giving a chi-square(2) null limit; 32 null families are
supported with ML and (where defined) moment estimators.
"""

from .errors import (
    ConfigurationError,
    DegenerateSampleError,
    DomainError,
    EstimationError,
    SingularityError,
    TrigofError,
)

__version__ = "0.1.0"

__all__ = [
    "TrigofError",
    "DomainError",
    "ConfigurationError",
    "EstimationError",
    "DegenerateSampleError",
    "SingularityError",
    "__version__",
]
