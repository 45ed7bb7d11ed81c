"""Special functions used throughout the package.

Gamma-family functions, regularized incomplete gamma/beta, the standard
normal CDF and the noncentral chi-square survival function.  The classical
functions are delegated to scipy.special behind strict domain validation;
every function raises a typed :class:`~trigof.errors.DomainError` on invalid
input rather than returning NaN.  The noncentral chi-square tail is computed
here by a Poisson-mixture series started at the modal Poisson index and
expanded in both directions, which stays accurate for large noncentrality.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import DomainError

__all__ = [
    "ln_gamma",
    "gamma_fn",
    "digamma",
    "trigamma",
    "polygamma",
    "reg_gamma_cdf",
    "reg_beta_cdf",
    "std_normal_cdf",
    "std_normal_quantile",
    "ln_std_normal_cdf",
    "noncentral_chi2_sf",
    "EULER_GAMMA",
]

#: Euler-Mascheroni constant gamma = -psi(1).
EULER_GAMMA = 0.5772156649015328606


def _require_positive(z, name: str) -> None:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)) or np.any(z <= 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {z!r}")


def ln_gamma(z):
    """Natural log of the gamma function for z > 0 (scalar or array)."""
    _require_positive(z, "z")
    return sp.gammaln(z)


def gamma_fn(z):
    """Gamma function for z > 0."""
    _require_positive(z, "z")
    return sp.gamma(z)


def digamma(z):
    """Digamma function psi(z) for z > 0."""
    _require_positive(z, "z")
    return sp.digamma(z)


def trigamma(z):
    """Trigamma function psi'(z) for z > 0."""
    _require_positive(z, "z")
    return sp.polygamma(1, z)


def polygamma(n: int, z):
    """n-th derivative of the digamma function for z > 0."""
    _require_positive(z, "z")
    return sp.polygamma(n, z)


def reg_gamma_cdf(a, b, x):
    """CDF of a gamma(a, b) at x >= 0: the regularized lower incomplete gamma
    of (a, x/b).  Clamped to [0, 1]."""
    _require_positive(a, "a")
    _require_positive(b, "b")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    return np.clip(sp.gammainc(a, x / b), 0.0, 1.0)


def reg_beta_cdf(a, b, x):
    """CDF of a beta(a, b) at x in [0, 1]: the regularized incomplete beta."""
    _require_positive(a, "a")
    _require_positive(b, "b")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return np.clip(sp.betainc(a, b, x), 0.0, 1.0)


def std_normal_cdf(x):
    """Standard normal CDF Phi(x) for finite x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"x must be finite, got {x!r}")
    return sp.ndtr(x)


def std_normal_quantile(p):
    """Inverse of Phi, for p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p!r}")
    return sp.ndtri(p)


def ln_std_normal_cdf(x):
    """log Phi(x), accurate far into the lower tail."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"x must be finite, got {x!r}")
    return sp.log_ndtr(x)


def noncentral_chi2_sf(df: int, ncp: float, t: float, rel_tol: float = 1e-12) -> float:
    """Survival function P(X > t) of a noncentral chi-square.

    X ~ chi2_df(ncp).  Uses the Poisson mixture
    P(X > t) = sum_k pois(k; ncp/2) * Q(df/2 + k, t/2),
    with Q the regularized upper incomplete gamma.  The sum starts at the
    Poisson modal index and expands outward until the remaining mass bounds
    fall below ``rel_tol`` relative to the accumulated value, which avoids
    underflow of the leading terms for large ncp.
    """
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise DomainError(f"df must be a positive integer, got {df!r}")
    if not (np.isfinite(ncp) and ncp >= 0.0):
        raise DomainError(f"ncp must be finite and >= 0, got {ncp!r}")
    if not (np.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    if t == 0.0:
        return 1.0
    half_t = 0.5 * t
    half_ncp = 0.5 * ncp
    if half_ncp == 0.0:
        return float(sp.gammaincc(0.5 * df, half_t))

    k0 = int(half_ncp)  # Poisson mode (floor)
    log_w0 = k0 * math.log(half_ncp) - half_ncp - math.lgamma(k0 + 1)
    w0 = math.exp(log_w0)
    a0 = 0.5 * df + k0
    q0 = float(sp.gammaincc(a0, half_t))
    total = w0 * q0

    # Upward sweep: w_{k+1} = w_k * half_ncp/(k+1); Q(a+1,x) = Q(a,x) + x^a e^-x / Gamma(a+1).
    w, q, a = w0, q0, a0
    k = k0
    while True:
        delta = math.exp(a * math.log(half_t) - half_t - math.lgamma(a + 1.0))
        q = min(q + delta, 1.0)
        w = w * half_ncp / (k + 1)
        total += w * q
        k += 1
        a += 1.0
        if k > half_ncp:
            # Weights now decay at least geometrically with ratio < 1 and q <= 1,
            # so the remaining sum is bounded by w * ratio / (1 - ratio).
            ratio = half_ncp / (k + 1)
            if w * ratio / (1.0 - ratio) <= rel_tol * total:
                break

    # Downward sweep from the mode.
    w, q, a = w0, q0, a0
    for k in range(k0, 0, -1):
        delta = math.exp((a - 1.0) * math.log(half_t) - half_t - math.lgamma(a))
        q = max(q - delta, 0.0)
        w = w * k / half_ncp
        a -= 1.0
        term = w * q
        total += term
        if term <= rel_tol * total:
            break

    return float(min(max(total, 0.0), 1.0))
