"""Asymptotic power under local alternatives for three worked cases.

The null families gamma, Weibull and the exponential-power family are
embedded in larger families (generalized gamma for the first two, the
asymmetric power distribution for the third) whose extra parameters drift at
rate delta / sqrt(n).  The statistic then converges to a noncentral
chi-square(2); the noncentrality is delta^2 M^T Sigma^-1 M (scalar drift)
or delta^T M^T Sigma^-1 M delta (two-dimensional drift).  The drift
direction M is given in closed form below in terms of the tabulated
integrals; Sigma is the null row's own scaling covariance,
``scaling.sigma_from`` at theta0, the matrix the test statistic uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import families, scaling, specfun
from .errors import ConfigurationError, DomainError
from .estimate import EstimatorKind, KnownMask
from .families import _epd_c1
from .gof import replicate
from .quadrature import h

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


def _gamma_fn(z):
    return float(specfun.gamma_fn(z))


# ---------------------------------------------------------------------------
# gamma null inside GG(lam, beta, rho), rho = 1 + delta/sqrt(n)
# ---------------------------------------------------------------------------

def gamma_m(lam: float) -> np.ndarray:
    h6 = h(6, lam, lam + 1.0, 1.0)
    h7 = h(7, lam, lam + 1.0, 1.0)
    psi = float(specfun.digamma(lam))
    psi1 = float(specfun.trigamma(lam))
    a = lam * psi - lam * psi1 * (lam * psi + 1.0)
    w = 1.0 / (lam * psi1 - 1.0)
    return np.array([
        -h(8, lam) - w * (h(10, lam) + h6 * a),
        -h(9, lam) - w * (h(11, lam) + h7 * a),
    ])


# ---------------------------------------------------------------------------
# Weibull null inside GG(lam, beta, rho), lam = 1 + delta/sqrt(n)
# ---------------------------------------------------------------------------

def weibull_m() -> np.ndarray:
    h6s, h7s = h(6, 1.0, 2.0, 1.0), h(7, 1.0, 2.0, 1.0)
    g = specfun.EULER_GAMMA
    c = 6.0 / math.pi ** 2
    b = 1.0 - g + math.pi ** 2 / 6.0
    return np.array([
        h(10, 1.0) - c * (b * h6s - h(8, 1.0)),
        h(11, 1.0) - c * (b * h7s - h(9, 1.0)),
    ])


# ---------------------------------------------------------------------------
# EPD null inside APD(lam0, alpha, rho, mu, sigma),
# (alpha, rho) = (1/2, lam0) + delta/sqrt(n)
# ---------------------------------------------------------------------------

def epd_m(lam: float, kind: EstimatorKind) -> np.ndarray:
    h1, h2, h3, h37 = h(1, lam), h(2, lam), h(3, lam), h(37, lam)
    g1l = _gamma_fn(1.0 / lam)
    if EstimatorKind(kind) is EstimatorKind.ML:
        m12 = -h3 / lam ** 2 + h1 * (_epd_c1(lam) + 1.0) / lam ** 2
        m21 = -2.0 * h37 + 2.0 * lam * h2 / (g1l * _gamma_fn(2.0 - 1.0 / lam))
    else:
        m12 = -h3 / lam ** 2 + h1 / (2.0 * lam ** 2) * (
            2.0 * math.log(lam) + 3.0 * float(specfun.digamma(3.0 / lam))
            - float(specfun.digamma(1.0 / lam)))
        m21 = -2.0 * h37 + 4.0 * lam * h2 * _gamma_fn(2.0 / lam) / g1l ** 2
    return np.array([[0.0, m12], [m21, 0.0]])


def noncentrality(alt: LocalAlternative) -> float:
    """delta^T M^T Sigma^-1 M delta, Sigma that of the null row at theta0."""
    fam, kind, mask = _null_test_config(alt)
    sig = scaling.sigma_from(fam, kind, alt.theta0, mask)
    if alt.case is AltCase.EPD_VS_APD:
        v = epd_m(alt.theta0[0], alt.kind) @ np.asarray(alt.delta, dtype=float)
    else:
        m = gamma_m(alt.theta0[0]) if alt.case is AltCase.GAMMA_VS_GG else weibull_m()
        v = alt.delta[0] * m
    return float(v @ scaling.solve_2x2(sig, v))


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


def _sample_alternative(alt: LocalAlternative, n: int, seed) -> np.ndarray:
    if alt.case is AltCase.GAMMA_VS_GG:
        lam0, beta0 = alt.theta0
        rho = 1.0 + alt.delta[0] / math.sqrt(n)
        return families.sample("gg", (lam0, beta0, rho), n, seed)
    if alt.case is AltCase.WEIBULL_VS_GG:
        beta0, rho0 = alt.theta0
        lam = 1.0 + alt.delta[0] / math.sqrt(n)
        if lam <= 0.0:
            raise DomainError("drifted GG shape must stay positive")
        return families.sample("gg", (lam, beta0, rho0), n, seed)
    lam0, mu0, sigma0 = alt.theta0
    alpha_par = 0.5 + alt.delta[0] / math.sqrt(n)
    rho = lam0 + alt.delta[1] / math.sqrt(n)
    if not (0.0 < alpha_par < 1.0 and rho > 0.0):
        raise DomainError("drifted APD parameters left their space")
    return families.sample_apd(lam0, alpha_par, rho, mu0, sigma0, n, seed)


def _null_test_config(alt: LocalAlternative):
    if alt.case is AltCase.GAMMA_VS_GG:
        return "gamma", EstimatorKind.ML, None
    if alt.case is AltCase.WEIBULL_VS_GG:
        return "weibull", EstimatorKind.ML, None
    lam0 = alt.theta0[0]
    return "epd", alt.kind, KnownMask.from_names("epd", {"lambda": lam0})


def empirical_power(alt: LocalAlternative, n: int, reps: int, seed: int) -> dict:
    """Finite-n rejection rate sampling from the drifted alternative.

    The drift is applied exactly as delta / sqrt(n).  Every replication is
    tested through ``gof.replicate`` (batch kernels where the null row has
    them).  Returns the rate, its binomial standard error, and the
    failed-fit count.
    """
    fam, kind, mask = _null_test_config(alt)
    q = -2.0 * math.log(alt.alpha)
    tn = replicate(fam, kind, mask,
                   lambda r: _sample_alternative(alt, n, np.random.SeedSequence([seed, r])),
                   range(reps))
    failed = int(np.count_nonzero(np.isnan(tn)))
    rate = int(np.count_nonzero(tn > q)) / max(reps - failed, 1)
    return {
        "rate": rate,
        "se": math.sqrt(max(rate * (1.0 - rate), 1e-12) / max(reps - failed, 1)),
        "reps": reps,
        "failed": failed,
    }
