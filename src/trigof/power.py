"""Asymptotic power under local alternatives for three worked cases.

The null families gamma, Weibull and the exponential-power family are
embedded in larger families (generalized gamma for the first two, the
asymmetric power distribution for the third) whose extra parameters drift at
rate delta / sqrt(n).  The statistic then converges to a noncentral
chi-square(2); the noncentrality is delta^2 M^T Sigma^-1 M (scalar drift)
or delta^T M^T Sigma^-1 M delta (two-dimensional drift).  Sigma is the null
row's own scaling covariance, ``scaling.sigma_from`` at theta0 (taken at
its shapes, and checked positive definite there), the matrix the test
statistic uses.  The drift direction is

    M = E[tau e^T] - G C^-1 E[psi e^T],

with e the embedding family's extra score at the null (GG's rho or lambda
row, the APD's (alpha, rho) score) and G, C, psi the null row's as in
``scaling``: the first term moves the PIT, the second the fitted theta.
``scaling.drift`` sums it by the same tanh-sinh rule over u as Sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import families, scaling, specfun
from .errors import ConfigurationError, DomainError
from .estimate import EstimatorKind, KnownMask
from .gof import rejection_rate, replicate

__all__ = ["AltCase", "LocalAlternative", "PowerPoint", "noncentrality",
           "power_curve", "empirical_power", "epd_m", "gamma_m", "weibull_m"]


class AltCase(str, Enum):
    GAMMA_VS_GG = "gamma"
    WEIBULL_VS_GG = "weibull"
    EPD_VS_APD = "epd"


@dataclass(frozen=True)
class LocalAlternative:
    case: AltCase
    theta0: tuple
    delta: tuple  # 1-tuple for the scalar cases, (delta1, delta2) for EPD
    kind: EstimatorKind = EstimatorKind.ML
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if self.case is AltCase.EPD_VS_APD:
            if len(self.delta) != 2:
                raise DomainError("EPD case takes a (delta1, delta2) pair")
        else:
            if len(self.delta) != 1:
                raise DomainError("scalar cases take a single delta")
            if self.kind is not EstimatorKind.ML:
                raise ConfigurationError("gamma/Weibull cases are ML-only")


@dataclass(frozen=True)
class PowerPoint:
    delta: tuple
    ncp: float
    power: float


def gamma_m(lam: float) -> np.ndarray:
    """Drift of the gamma(lam) ML row inside GG(lam, beta, rho), rho = 1 + delta/sqrt(n):
    the extra score is GG's rho row at rho = 1."""
    gg = families.get_family("gg")
    return scaling.drift("gamma", EstimatorKind.ML, (lam, 1.0), None,
                         lambda t, x: gg.score_fn((t[0], t[1], 1.0), x)[2:])[:, 0]


def weibull_m() -> np.ndarray:
    """Drift of the Weibull ML row inside GG(lam, beta, rho), lam = 1 + delta/sqrt(n):
    the extra score is GG's lambda row at lambda = 1."""
    gg = families.get_family("gg")
    return scaling.drift("weibull", EstimatorKind.ML, (1.0, 1.0), None,
                         lambda t, x: gg.score_fn((1.0, t[0], t[1]), x)[:1])[:, 0]


def epd_m(lam: float, kind: EstimatorKind) -> np.ndarray:
    """Drift of the EPD(lam) row, lam known, inside APD(lam, alpha, rho, mu, sigma),
    (alpha, rho) = (1/2, lam) + delta/sqrt(n): the extra score is the APD's
    (alpha, rho) score there, one column per drift coordinate."""
    mask = KnownMask.from_names("epd", {"lambda": lam})
    return scaling.drift("epd", kind, (lam, 0.0, 1.0), mask,
                         lambda t, x: families.apd_score(x, lam, 0.5, lam, 0.0, 1.0))


def noncentrality(alt: LocalAlternative) -> float:
    """delta^T M^T Sigma^-1 M delta, Sigma that of the null row at theta0."""
    fam, kind, mask = _null_test_config(alt)
    sig = scaling.sigma_from(fam, kind, alt.theta0, mask)
    if alt.case is AltCase.EPD_VS_APD:
        v = epd_m(alt.theta0[0], alt.kind) @ np.asarray(alt.delta, dtype=float)
    else:
        m = gamma_m(alt.theta0[0]) if alt.case is AltCase.GAMMA_VS_GG else weibull_m()
        v = alt.delta[0] * m
    return float(v @ np.linalg.solve(sig, v))


def power_curve(case, theta0, deltas: Sequence, alpha: float = 0.05,
                kind=EstimatorKind.ML) -> list[PowerPoint]:
    """Asymptotic power along a drift grid at significance level alpha.

    For the EPD case each grid entry is a (delta1, delta2) pair; for the
    scalar cases a real number.  The rejection threshold is the central
    chi-square(2) quantile q = -2 ln(alpha).
    """
    case = AltCase(case)
    q = -2.0 * math.log(alpha)
    out = []
    for d in deltas:
        dt = tuple(np.atleast_1d(np.asarray(d, dtype=float)))
        alt = LocalAlternative(case, tuple(theta0), dt, EstimatorKind(kind), alpha)
        ncp = noncentrality(alt)
        out.append(PowerPoint(dt, ncp, specfun.noncentral_chi2_sf(2, ncp, q)))
    return out


def _sample_alternative(alt: LocalAlternative, n: int, seeds) -> np.ndarray:
    """The (len(seeds), n) block of samples from the alternative drifted at n,
    row r drawn from seeds[r]."""
    if alt.case is AltCase.GAMMA_VS_GG:
        lam0, beta0 = alt.theta0
        rho = 1.0 + alt.delta[0] / math.sqrt(n)
        inverse = families._quantile_of("gg", (lam0, beta0, rho))
    elif alt.case is AltCase.WEIBULL_VS_GG:
        beta0, rho0 = alt.theta0
        lam = 1.0 + alt.delta[0] / math.sqrt(n)
        if lam <= 0.0:
            raise DomainError("drifted GG shape must stay positive")
        inverse = families._quantile_of("gg", (lam, beta0, rho0))
    else:
        lam0, mu0, sigma0 = alt.theta0
        alpha_par = 0.5 + alt.delta[0] / math.sqrt(n)
        rho = lam0 + alt.delta[1] / math.sqrt(n)
        if not (0.0 < alpha_par < 1.0 and rho > 0.0):
            raise DomainError("drifted APD parameters left their space")
        inverse = families._apd_quantile(lam0, alpha_par, rho, mu0, sigma0)
    return families._draws(inverse, n, seeds)


def _null_test_config(alt: LocalAlternative):
    if alt.case is AltCase.GAMMA_VS_GG:
        return "gamma", EstimatorKind.ML, None
    if alt.case is AltCase.WEIBULL_VS_GG:
        return "weibull", EstimatorKind.ML, None
    lam0 = alt.theta0[0]
    return "epd", alt.kind, KnownMask.from_names("epd", {"lambda": lam0})


def empirical_power(alt: LocalAlternative, n: int, reps: int, seed: int) -> dict:
    """Finite-n rejection rate sampling from the drifted alternative.

    The drift is applied exactly as delta / sqrt(n).  Replication r draws
    its sample from the key (seed, r); ``gof.replicate`` draws and tests
    them a block of replications at a time.
    Returns the rate and its binomial standard error over the replications
    that did not fail (``gof.rejection_rate``: NaN if every one failed), and
    the failed-fit count.
    """
    fam, kind, mask = _null_test_config(alt)
    q = -2.0 * math.log(alt.alpha)
    tn = replicate(fam, kind, mask, n,
                   lambda rs: _sample_alternative(
                       alt, n, [np.random.SeedSequence([seed, r]) for r in rs]),
                   range(reps))
    failed = int(np.count_nonzero(np.isnan(tn)))
    rate, se = rejection_rate(int(np.count_nonzero(tn > q)), reps - failed)
    return {"rate": rate, "se": se, "reps": reps, "failed": failed}
