"""The standard normal quantile and the noncentral chi-square tail.

The family callables call ``scipy.special`` directly, so that a theta row
outside a function's domain reads NaN and fails alone.  The two functions
here serve single points (the ellipse's thresholds and the asymptotic power)
and raise a typed :class:`~trigof.errors.DomainError` on invalid input
rather than returning NaN.  The noncentral chi-square tail is computed here
by a Poisson-mixture series started at the modal Poisson index and expanded
in both directions, which stays accurate for large noncentrality.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import DomainError

__all__ = ["std_normal_quantile", "noncentral_chi2_sf"]


def std_normal_quantile(p):
    """Inverse of Phi, for p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p!r}")
    return sp.ndtri(p)


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
