"""Adaptive quadrature and numerically tabulated integral constants.

The integrator is an adaptive 15-point Gauss-Kronrod rule with worst-first
interval bisection (max depth 60 per interval).  Infinite domains are reduced
to (0, 1) by the fixed substitutions v = a t/(1-t) for (0, inf) and
v = 1 + a t/(1-t) for (1, inf), with a per-integrand length scale a, so error
behaviour is reproducible.  Known endpoint power singularities are removed up
front by monomial substitutions driven by exponent hints on the integrand;
the remaining logarithmic singularities converge under global bisection
because Kronrod nodes are interior.

``h(idx, *args)`` evaluates the 37 moment integrals h1..h37 that feed the
scaling matrices, to absolute error 1e-10.  Eight of them are tabulated:

* the gamma line h6, h7 at (lam, lam + 1, 1) and h10, h11 at lam, for
  lam in [1/16, 128];
* the inverse-Gaussian line h29..h32 at (mu, lam), through the exact scale
  identity h(mu, lam) = mu * h(1, lam/mu), for lam/mu in [1/16, 1024]
  (absolute error mu * 1e-10).

There ``h`` evaluates committed piecewise Chebyshev coefficients (one piece
per octave of the shape, 16 to 32 nodes) by Clenshaw's recurrence, within
1e-11 of tight (1e-13) quadrature.  The tables live in ``_h_tables.py`` and
are regenerated from this module's integrands with
``python -m trigof.quadrature --tabulate``.  Every other argument is
integrated and memoized (thread-safe, bounded LRU) per rounded argument.
``logistic_constants()`` recomputes the four logistic-family constants by
quadrature rather than trusting hard-coded literals.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import _h_tables, families, specfun
from .errors import DomainError, QuadratureError

__all__ = ["Integrand", "integrate", "integrate_domain", "h", "h_arity",
           "logistic_constants", "clear_h_cache", "H_ABS_TOL"]

# 15-point Kronrod nodes on (-1, 1); _GAUSS_WEIGHTS holds the embedded
# 7-point Gauss weights (zero at Kronrod-only nodes).
_KRONROD_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GAUSS_WEIGHTS = np.array([
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.129484966168869693270611432679082,
    0.0,
])

_MAX_DEPTH = 60
_BATCH = 8  # worst intervals split per refinement pass
DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10

_DOMAINS = ("0,inf", "0,1", "1,inf")


@dataclass(frozen=True)
class Integrand:
    """An integrand with its open domain and optional endpoint exponents.

    ``pow_lo``/``pow_hi`` give p such that the integrand behaves like
    (distance to endpoint)^p (possibly times logs) near the lower/upper
    endpoint; p > -1.  They default to 0 (regular up to logs) and trigger a
    monomial substitution that removes the power singularity.

    ``scale`` is the length scale of the map of an infinite domain,
    v = scale * t/(1-t) (shifted by 1 on (1, inf)).  It should be about where
    the integrand's mass lies, e.g. the mean of a weighting density: with the
    default 1 a narrow peak far from 1 falls between the sampled nodes.
    """

    domain: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    pow_lo: float = 0.0
    pow_hi: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.domain not in _DOMAINS:
            raise DomainError(f"domain must be one of {_DOMAINS}, got {self.domain!r}")
        if self.pow_lo <= -1.0 or self.pow_hi <= -1.0:
            raise DomainError("endpoint exponents must be > -1 for integrability")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale must be finite and > 0, got {self.scale}")


def _eval_panels(f, lefts, rights):
    """GK15 on a batch of intervals; returns (k15, err) arrays."""
    lefts = np.asarray(lefts)
    rights = np.asarray(rights)
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (lefts + rights)
    x = mid[:, None] + half[:, None] * _KRONROD_NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        raise QuadratureError("integrand returned non-finite values")
    k15 = half * (y @ _KRONROD_WEIGHTS)
    g7 = half * (y @ _GAUSS_WEIGHTS)
    diff = np.abs(k15 - g7)
    # Standard scaled heuristic; capped by the raw difference.
    err = np.minimum(diff, (200.0 * diff) ** 1.5)
    return k15, err


def integrate(f, a: float, b: float,
              abs_tol: float = DEFAULT_ABS_TOL,
              rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Integrate f over the finite interval (a, b).

    Globally adaptive: the intervals with the largest error estimates are
    bisected first until the summed bound is below
    max(abs_tol, rel_tol * |estimate|).  Raises :class:`QuadratureError`
    (carrying the last estimate and bound) when every offending interval has
    reached depth 60.
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise DomainError("tolerances must be > 0")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got ({a}, {b})")

    est, err = _eval_panels(f, [a], [b])
    # heap entries: (-err, tie, left, right, estimate, depth)
    tie = 0
    heap = [(-float(err[0]), tie, a, b, float(est[0]), 0)]
    stuck_est = 0.0
    stuck_err = 0.0

    while True:
        live_est = sum(item[4] for item in heap)
        live_err = sum(-item[0] for item in heap)
        total_est = live_est + stuck_est
        total_err = live_err + stuck_err
        tol = max(abs_tol, rel_tol * abs(total_est))
        if total_err <= tol:
            return total_est
        if not heap or stuck_err > tol or len(heap) > 100_000:
            raise QuadratureError(
                f"quadrature did not converge (bound {total_err:.3e})",
                estimate=total_est, bound=total_err)

        batch = []
        for _ in range(min(_BATCH, len(heap))):
            neg_e, _, lo, hi, e_val, depth = heapq.heappop(heap)
            if depth >= _MAX_DEPTH:
                stuck_est += e_val
                stuck_err += -neg_e
            else:
                batch.append((lo, hi, depth))
        if not batch:
            continue
        lefts, rights, depths = [], [], []
        for lo, hi, depth in batch:
            m = 0.5 * (lo + hi)
            lefts += [lo, m]
            rights += [m, hi]
            depths += [depth + 1, depth + 1]
        ests, errs = _eval_panels(f, lefts, rights)
        for i in range(len(lefts)):
            tie += 1
            heapq.heappush(heap, (-float(errs[i]), tie, lefts[i], rights[i],
                                  float(ests[i]), depths[i]))


_MAX_SUB_ORDER = 64
_TINY = 1e-300


def _substitution_order(p: float) -> int:
    """Monomial order k making x^p dx smooth enough: exponent k(p+1)-1 >= 1."""
    if p >= 1.0:
        return 1
    k = math.ceil(2.0 / (p + 1.0))
    if k > _MAX_SUB_ORDER:
        raise DomainError(
            f"endpoint exponent {p} too close to -1 for reliable quadrature")
    return max(1, k)


def _guarded(f, t, jac):
    """Evaluate f(t)*jac where both are representable; zero elsewhere.

    Near a transformed endpoint t can underflow to 0 (or 1-t to 0) while the
    jacobian vanishes even faster, so the true contribution is 0.
    """
    t = np.asarray(t, dtype=float)
    jac = np.broadcast_to(np.asarray(jac, dtype=float), t.shape)
    ok = (t > _TINY) & (t < 1.0 - 1e-17) & (jac > _TINY) & np.isfinite(jac)
    out = np.zeros_like(t)
    if np.any(ok):
        out[ok] = f(t[ok]) * jac[ok]
    return out


def integrate_domain(g: Integrand,
                     abs_tol: float = DEFAULT_ABS_TOL,
                     rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Integrate over one of the canonical open domains.

    The domain is first mapped to (0, 1) (identity, v = a t/(1-t), or
    v = 1 + a t/(1-t) with a the integrand's ``scale``); endpoint power
    singularities declared on the integrand are then removed by splitting at
    1/2 and substituting t = c s^k near the offending endpoint.
    """
    f = g.evaluator
    scale = g.scale
    if g.domain == "0,1":
        mapped = f
        p_lo, p_hi = g.pow_lo, g.pow_hi
    elif g.domain == "0,inf":
        def mapped(t):
            om = 1.0 - t
            return f(scale * t / om) * scale / om ** 2
        p_lo, p_hi = g.pow_lo, 0.0  # exponential decay at infinity maps smoothly
    else:  # 1,inf
        def mapped(t):
            om = 1.0 - t
            return f(1.0 + scale * t / om) * scale / om ** 2
        p_lo, p_hi = g.pow_lo, 0.0

    k_lo = _substitution_order(p_lo)
    k_hi = _substitution_order(p_hi)
    half_tol = 0.5 * abs_tol

    if k_lo > 1:
        def lower(s):
            return _guarded(mapped, 0.5 * s ** k_lo, 0.5 * k_lo * s ** (k_lo - 1))
        left = integrate(lower, 0.0, 1.0, half_tol, rel_tol)
    else:
        left = integrate(lambda t: _guarded(mapped, t, 1.0), 0.0, 0.5, half_tol, rel_tol)

    if k_hi > 1:
        def upper(s):
            return _guarded(mapped, 1.0 - 0.5 * s ** k_hi, 0.5 * k_hi * s ** (k_hi - 1))
        right = integrate(upper, 0.0, 1.0, half_tol, rel_tol)
    else:
        right = integrate(lambda t: _guarded(mapped, t, 1.0), 0.5, 1.0, half_tol, rel_tol)

    return left + right


# ---------------------------------------------------------------------------
# Table of moment integrals h1..h37.
#
# Gamma/beta/inverse-Gaussian pdf and cdf helpers are written out locally so
# the integrand definitions are self-contained; arguments are strictly inside
# the open integration domain.
# ---------------------------------------------------------------------------

def _ga_pdf(v, a, b=1.0):
    return np.exp((a - 1.0) * np.log(v) - v / b - specfun.ln_gamma(a) - a * math.log(b))


def _ga_cdf(v, a):
    return specfun.reg_gamma_cdf(a, 1.0, v)


def _be_pdf(v, a, b):
    lnB = specfun.ln_gamma(a) + specfun.ln_gamma(b) - specfun.ln_gamma(a + b)
    return np.exp((a - 1.0) * np.log(v) + (b - 1.0) * np.log1p(-v) - lnB)


def _be_cdf(v, a, b):
    return specfun.reg_beta_cdf(a, b, v)


def _ig_pdf(v, mu, lam):
    return np.exp(0.5 * math.log(lam / (2.0 * math.pi)) - 1.5 * np.log(v)
                  - lam * (v - mu) ** 2 / (2.0 * mu ** 2 * v))


def _ig_cdf(v, mu, lam):
    return np.clip(families._ig_cdf_fn((mu, lam), v), 0.0, 1.0)


def _epd_angle(v, lam):
    """pi * (1 + gamma-CDF_(1/lam)(v)) used by h1..h5 and h37."""
    return math.pi * (1.0 + _ga_cdf(v, 1.0 / lam))


def _h1(lam):
    return Integrand("0,inf", lambda v: np.cos(_epd_angle(v, lam)) * _ga_pdf(v, 1.0 / lam + 1.0),
                     pow_lo=1.0 / lam)


def _h2(lam):
    return Integrand("0,inf", lambda v: np.sin(_epd_angle(v, lam)) * _ga_pdf(v, 1.0))


def _h3(lam):
    return Integrand("0,inf", lambda v: np.cos(_epd_angle(v, lam)) * np.log(lam * v)
                     * _ga_pdf(v, 1.0 / lam + 1.0), pow_lo=1.0 / lam)


def _h4(lam):
    return Integrand("0,inf", lambda v: np.cos(_epd_angle(v, lam)) * _ga_pdf(v, 3.0 / lam),
                     pow_lo=3.0 / lam - 1.0)


def _h5(lam):
    return Integrand("0,inf", lambda v: np.sin(_epd_angle(v, lam)) * _ga_pdf(v, 2.0 / lam),
                     pow_lo=2.0 / lam - 1.0)


# h6..h11 weight by a gamma density.  The map scale is its mean (b c or lam),
# so that the peak of a large shape is sampled, but not below 1: for a mean
# under 1 the unit map is already accurate, and a smaller scale loses
# accuracy at the v^(lam-1) endpoint.

def _h6(a, b, c):
    return Integrand("0,inf", lambda v: np.cos(2.0 * math.pi * _ga_cdf(v, a)) * _ga_pdf(v, b, c),
                     pow_lo=b - 1.0, scale=max(1.0, b * c))


def _h7(a, b, c):
    return Integrand("0,inf", lambda v: np.sin(2.0 * math.pi * _ga_cdf(v, a)) * _ga_pdf(v, b, c),
                     pow_lo=b - 1.0, scale=max(1.0, b * c))


def _h8(lam):
    return Integrand("0,inf", lambda v: (v - lam) * np.log(v)
                     * np.cos(2.0 * math.pi * _ga_cdf(v, lam)) * _ga_pdf(v, lam),
                     pow_lo=lam - 1.0, scale=max(1.0, lam))


def _h9(lam):
    return Integrand("0,inf", lambda v: (v - lam) * np.log(v)
                     * np.sin(2.0 * math.pi * _ga_cdf(v, lam)) * _ga_pdf(v, lam),
                     pow_lo=lam - 1.0, scale=max(1.0, lam))


def _h10(alpha):
    return Integrand("0,inf", lambda v: np.log(v)
                     * np.cos(2.0 * math.pi * _ga_cdf(v, alpha)) * _ga_pdf(v, alpha),
                     pow_lo=alpha - 1.0, scale=max(1.0, alpha))


def _h11(alpha):
    return Integrand("0,inf", lambda v: np.log(v)
                     * np.sin(2.0 * math.pi * _ga_cdf(v, alpha)) * _ga_pdf(v, alpha),
                     pow_lo=alpha - 1.0, scale=max(1.0, alpha))


def _t_angle(v, lam):
    """pi * (2 - beta-CDF_(lam/2,1/2)(v)) used by the Student integrals."""
    return math.pi * (2.0 - _be_cdf(v, 0.5 * lam, 0.5))


def _h12(lam):
    return Integrand("0,1", lambda v: np.cos(_t_angle(v, lam)) * _be_pdf(v, 0.5 * lam, 1.5),
                     pow_lo=0.5 * lam - 1.0, pow_hi=0.5)


def _h13(lam):
    return Integrand("0,1", lambda v: np.sin(_t_angle(v, lam)) * _be_pdf(v, 0.5 * (lam + 1.0), 1.0),
                     pow_lo=0.5 * (lam + 1.0) - 1.0, pow_hi=0.5)


def _h14(lam):
    # second beta parameter is 1/2 (the PIT weight), which makes the integral
    # equal the defining cross-moment it feeds
    return Integrand("0,1", lambda v: np.cos(_t_angle(v, lam))
                     * (np.log(v) + (lam + 1.0) / lam * (1.0 - v)) * _be_pdf(v, 0.5 * lam, 0.5),
                     pow_lo=0.5 * lam - 1.0, pow_hi=-0.5)


def _h15(lam):
    if lam <= 1.0:
        raise DomainError("h15 requires lambda > 1")
    return Integrand("0,1", lambda v: np.cos(_t_angle(v, lam)) * _be_pdf(v, 0.5 * (lam - 1.0), 1.0),
                     pow_lo=0.5 * (lam - 1.0) - 1.0, pow_hi=0.5)


def _h16(lam):
    if lam <= 1.0:
        raise DomainError("h16 requires lambda > 1")
    return Integrand("0,1", lambda v: np.sin(_t_angle(v, lam)) * _be_pdf(v, 0.5 * (lam - 1.0), 1.0),
                     pow_lo=0.5 * (lam - 1.0) - 1.0, pow_hi=0.5)


def _h17(lam):
    return Integrand("0,inf", lambda v: np.cos(2.0 * math.pi * _ga_cdf(v, 1.0 / lam))
                     * np.log(lam * v) * _ga_pdf(v, 1.0 / lam + 1.0), pow_lo=1.0 / lam)


def _h18(lam):
    return Integrand("0,inf", lambda v: np.sin(2.0 * math.pi * _ga_cdf(v, 1.0 / lam))
                     * np.log(lam * v) * _ga_pdf(v, 1.0 / lam + 1.0), pow_lo=1.0 / lam)


def _h19(rho):
    return Integrand("1,inf", lambda v: np.log(v) ** 2 * v * np.exp(-rho * v))


def _h20(rho):
    return Integrand("1,inf", lambda v: np.log(v) * v * np.exp(-rho * v))


def _gomp_angle(v, rho):
    return 2.0 * math.pi * (1.0 - np.exp(-rho * (v - 1.0)))


def _h21(rho):
    return Integrand("1,inf", lambda v: np.cos(_gomp_angle(v, rho)) * np.log(v)
                     * (1.0 - rho * v) * np.exp(-rho * v))


def _h22(rho):
    return Integrand("1,inf", lambda v: np.sin(_gomp_angle(v, rho)) * np.log(v)
                     * (1.0 - rho * v) * np.exp(-rho * v))


def _h23(rho):
    return Integrand("1,inf", lambda v: np.cos(_gomp_angle(v, rho)) * v * np.exp(-rho * v))


def _h24(rho):
    return Integrand("1,inf", lambda v: np.sin(_gomp_angle(v, rho)) * v * np.exp(-rho * v))


def _h25(a, b):
    return Integrand("0,1", lambda v: np.log(v)
                     * np.cos(2.0 * math.pi * _be_cdf(v, a, b)) * _be_pdf(v, a, b),
                     pow_lo=a - 1.0, pow_hi=b - 1.0)


def _h26(a, b):
    return Integrand("0,1", lambda v: np.log(v)
                     * np.sin(2.0 * math.pi * _be_cdf(v, a, b)) * _be_pdf(v, a, b),
                     pow_lo=a - 1.0, pow_hi=b - 1.0)


def _h27(a, b):
    return Integrand("0,1", lambda v: np.log1p(-v)
                     * np.cos(2.0 * math.pi * _be_cdf(v, a, b)) * _be_pdf(v, a, b),
                     pow_lo=a - 1.0, pow_hi=b - 1.0)


def _h28(a, b):
    return Integrand("0,1", lambda v: np.log1p(-v)
                     * np.sin(2.0 * math.pi * _be_cdf(v, a, b)) * _be_pdf(v, a, b),
                     pow_lo=a - 1.0, pow_hi=b - 1.0)


# h29..h32 weight by an inverse-Gaussian density of mean mu, the map scale:
# for large lam/mu its peak at mu is narrow, and with the unit map it falls
# between the sampled nodes once mu is far from 1.

def _h29(mu, lam):
    return Integrand("0,inf", lambda v: v * np.cos(2.0 * math.pi * _ig_cdf(v, mu, lam))
                     * _ig_pdf(v, mu, lam), scale=mu)


def _h30(mu, lam):
    return Integrand("0,inf", lambda v: v * np.sin(2.0 * math.pi * _ig_cdf(v, mu, lam))
                     * _ig_pdf(v, mu, lam), scale=mu)


def _h31(mu, lam):
    return Integrand("0,inf", lambda v: (v ** 2 + mu ** 2) / v
                     * np.cos(2.0 * math.pi * _ig_cdf(v, mu, lam)) * _ig_pdf(v, mu, lam),
                     scale=mu)


def _h32(mu, lam):
    return Integrand("0,inf", lambda v: (v ** 2 + mu ** 2) / v
                     * np.sin(2.0 * math.pi * _ig_cdf(v, mu, lam)) * _ig_pdf(v, mu, lam),
                     scale=mu)


def _kuma_angle(v, beta):
    return 2.0 * math.pi * (1.0 - np.exp(beta * np.log1p(-v)))


def _h33(beta):
    # ln(v) ~ -(1-v) near 1, so the product behaves like (1-v)^(beta-1) there.
    return Integrand("0,1", lambda v: np.cos(_kuma_angle(v, beta)) * np.log(v)
                     * np.exp((beta - 2.0) * np.log1p(-v)) * (1.0 - beta * v),
                     pow_hi=beta - 1.0)


def _h34(beta):
    return Integrand("0,1", lambda v: np.sin(_kuma_angle(v, beta)) * np.log(v)
                     * np.exp((beta - 2.0) * np.log1p(-v)) * (1.0 - beta * v),
                     pow_hi=beta - 1.0)


def _h35(beta):
    return Integrand("0,1", lambda v: np.cos(_kuma_angle(v, beta)) * np.log1p(-v)
                     * np.exp((beta - 1.0) * np.log1p(-v)), pow_hi=beta - 1.0)


def _h36(beta):
    return Integrand("0,1", lambda v: np.sin(_kuma_angle(v, beta)) * np.log1p(-v)
                     * np.exp((beta - 1.0) * np.log1p(-v)), pow_hi=beta - 1.0)


def _h37(lam):
    return Integrand("0,inf", lambda v: np.sin(_epd_angle(v, lam)) * _ga_pdf(v, 1.0 / lam + 1.0),
                     pow_lo=1.0 / lam)


_H_BUILDERS = {
    1: _h1, 2: _h2, 3: _h3, 4: _h4, 5: _h5, 6: _h6, 7: _h7, 8: _h8, 9: _h9,
    10: _h10, 11: _h11, 12: _h12, 13: _h13, 14: _h14, 15: _h15, 16: _h16,
    17: _h17, 18: _h18, 19: _h19, 20: _h20, 21: _h21, 22: _h22, 23: _h23,
    24: _h24, 25: _h25, 26: _h26, 27: _h27, 28: _h28, 29: _h29, 30: _h30,
    31: _h31, 32: _h32, 33: _h33, 34: _h34, 35: _h35, 36: _h36, 37: _h37,
}

_H_ARITY = {idx: (3 if idx in (6, 7) else 2 if idx in (25, 26, 27, 28, 29, 30, 31, 32) else 1)
            for idx in _H_BUILDERS}

H_ABS_TOL = 1e-10
_H_REL_TOL = 1e-10
_H_CACHE_SIZE = 1024  # entries kept by the LRU memo of quadrature results

_h_cache: OrderedDict = OrderedDict()
_h_lock = threading.Lock()


def h_arity(idx: int) -> int:
    """Number of real arguments taken by h_idx."""
    if idx not in _H_ARITY:
        raise DomainError(f"h index must be in 1..37, got {idx}")
    return _H_ARITY[idx]


def _round_sig(x: float, sig: int = 15) -> float:
    if x == 0.0 or not math.isfinite(x):
        return x
    return round(x, sig - 1 - int(math.floor(math.log10(abs(x)))))


def _h_quadrature(idx: int, args: tuple, abs_tol: float = H_ABS_TOL,
                  rel_tol: float = _H_REL_TOL) -> float:
    return integrate_domain(_H_BUILDERS[idx](*args), abs_tol=abs_tol, rel_tol=rel_tol)


def _clenshaw(coeffs, y: float) -> float:
    """Sum of coeffs[k] * T_k(y) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    y2 = 2.0 * y
    for c in coeffs[:0:-1]:
        b1, b2 = y2 * b1 - b2 + c, b1
    return y * b1 - b2 + coeffs[0]


def _from_table(idx: int, shape: float) -> float | None:
    """Chebyshev surrogate of h_idx along its line, None outside the table."""
    lo, pieces = _h_tables.TABLES[idx]
    hi = lo + len(pieces)
    if not 2.0 ** lo <= shape <= 2.0 ** hi:
        return None
    t = math.log2(shape)
    k = min(math.floor(t), hi - 1)
    return _clenshaw(pieces[k - lo], 2.0 * (t - k) - 1.0)


def _tabulated(idx: int, args: tuple) -> float | None:
    """h_idx from the committed tables when args lie on a tabulated line."""
    if idx in (6, 7):
        lam, b, c = args
        return _from_table(idx, lam) if b == lam + 1.0 and c == 1.0 else None
    if idx in (10, 11):
        return _from_table(idx, args[0])
    if idx in (29, 30, 31, 32):
        mu, lam = args
        value = _from_table(idx, lam / mu)
        return None if value is None else mu * value
    return None


def h(idx: int, *args: float) -> float:
    """Evaluate the tabulated integral h_idx at the given arguments.

    Absolute error <= 1e-10 (mu * 1e-10 for h29..h32).  Eight integrals are
    read from piecewise Chebyshev tables (``_h_tables``) when their
    arguments lie on a tabulated line:

    * h6, h7 at (lam, lam + 1, 1) and h10, h11 at lam, for
      lam in [1/16, 128] (the gamma line; ``b == lam + 1.0`` exactly);
    * h29..h32 at (mu, lam) through h(mu, lam) = mu * h(1, lam/mu), for
      lam/mu in [1/16, 1024] (the inverse-Gaussian line).

    The tables are within 1e-11 of the integrals and give the same value in
    every process whatever the call order.  Every other argument is
    integrated by adaptive quadrature and memoized in a bounded LRU keyed by
    (idx, args) with the arguments rounded to 15 significant digits.
    """
    if idx not in _H_BUILDERS:
        raise DomainError(f"h index must be in 1..37, got {idx}")
    if len(args) != _H_ARITY[idx]:
        raise DomainError(f"h{idx} takes {_H_ARITY[idx]} argument(s), got {len(args)}")
    for a in args:
        if not (np.isfinite(a) and a > 0.0):
            raise DomainError(f"h{idx} arguments must be finite and > 0, got {args}")
    args = tuple(float(a) for a in args)
    value = _tabulated(idx, args)
    if value is not None:
        return value
    key = (idx,) + tuple(_round_sig(a) for a in args)
    with _h_lock:
        if key in _h_cache:
            _h_cache.move_to_end(key)
            return _h_cache[key]
    value = _h_quadrature(idx, args)
    with _h_lock:
        value = _h_cache.setdefault(key, value)
        while len(_h_cache) > _H_CACHE_SIZE:
            _h_cache.popitem(last=False)
        return value


def clear_h_cache() -> None:
    with _h_lock:
        _h_cache.clear()


def logistic_constants() -> tuple[float, float, float, float]:
    """The four logistic-family matrix constants, recomputed by quadrature.

    Returns (c_cos, c_sin, m_cos, m_sin): the nonzero entries of the
    ML-score cross-moment matrix G and of the moment-estimator cross-moment
    matrix J, written as integrals over the probability integral transform
    u with logistic quantile q(u) = ln(u / (1-u)).
    """
    two_pi = 2.0 * math.pi
    tols = {"abs_tol": 1e-14, "rel_tol": 1e-13}

    def q(u):
        return np.log(u) - np.log1p(-u)

    c_cos = integrate(lambda u: np.cos(two_pi * u) * q(u) * (2.0 * u - 1.0), 0.0, 1.0, **tols)
    c_sin = integrate(lambda u: np.sin(two_pi * u) * (2.0 * u - 1.0), 0.0, 1.0, **tols)
    m_cos = 15.0 / (8.0 * math.pi ** 2) * integrate(
        lambda u: np.cos(two_pi * u) * q(u) ** 2, 0.0, 1.0, **tols)
    m_sin = 3.0 / math.pi ** 2 * integrate(
        lambda u: np.sin(two_pi * u) * q(u), 0.0, 1.0, **tols)
    return c_cos, c_sin, m_cos, m_sin


# ---------------------------------------------------------------------------
# Generator of ``_h_tables``: python -m trigof.quadrature --tabulate
# ---------------------------------------------------------------------------

# Tabulated lines: integral -> octaves [lo, hi) of log2(shape).  The gamma
# line stops at 2^7: above it the quadrature that would supply the nodes is
# checked against an independent (quantile) form at only a few shapes.
_TABLE_OCTAVES = {6: (-4, 7), 7: (-4, 7), 10: (-4, 7), 11: (-4, 7),
                  29: (-4, 10), 30: (-4, 10), 31: (-4, 10), 32: (-4, 10)}
_TABLE_NODES = (16, 24, 32)  # node counts tried per octave, smallest first
_TABLE_TOL = 1e-13           # quadrature tolerance of node and check values
_TABLE_CHECK_TOL = 2e-12     # accepted interpolation error at the checks


def _line_args(idx: int, shape: float) -> tuple:
    """Arguments of h_idx at one shape of its tabulated line."""
    if idx in (6, 7):
        return (shape, shape + 1.0, 1.0)
    if idx in (10, 11):
        return (shape,)
    return (1.0, shape)


def _line_value(idx: int, shape: float) -> float:
    return _h_quadrature(idx, _line_args(idx, shape), _TABLE_TOL, _TABLE_TOL)


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant through values at cos(pi j/m), j=0..m."""
    m = len(values) - 1
    j = np.arange(m + 1)
    w = np.full(m + 1, 2.0 / m)
    w[[0, -1]] *= 0.5
    c = np.cos(np.pi * np.outer(j, j) / m) @ (w * values)
    c[[0, -1]] *= 0.5
    return c


def _fit_octave(idx: int, k: int) -> tuple:
    """Chebyshev coefficients of h_idx over shapes [2^k, 2^(k+1)].

    Takes the fewest nodes whose interpolant matches tight quadrature at the
    angle midpoints between nodes, where interpolation error peaks.
    """
    def shape(y):
        return 2.0 ** (k + 0.5 * (y + 1.0))

    for n in _TABLE_NODES:
        nodes = np.cos(np.pi * np.arange(n) / (n - 1))
        coeffs = tuple(float(c) for c in _cheb_coeffs(
            np.array([_line_value(idx, shape(y)) for y in nodes])))
        checks = np.cos(np.pi * (np.arange(n - 1) + 0.5) / (n - 1))
        err = max(abs(_clenshaw(coeffs, y) - _line_value(idx, shape(y))) for y in checks)
        if err <= _TABLE_CHECK_TOL:
            return coeffs
    raise QuadratureError(f"h{idx} on [2^{k}, 2^{k + 1}]: interpolation error {err:.2e} "
                          f"with {n} nodes", bound=err)


def tabulate(path: Path | None = None) -> None:
    """Write the Chebyshev tables of the tabulated h lines to ``_h_tables.py``.

    Coefficients are written as text and parsed on import, which compiles
    several times faster than the same numbers as float literals.
    """
    path = path or Path(__file__).with_name("_h_tables.py")
    out = ['"""Chebyshev tables of h6, h7, h10, h11 and h29..h32; see ``quadrature.h``.',
           "",
           "Generated by ``python -m trigof.quadrature --tabulate``; do not edit.",
           "TABLES[idx] = (lo, pieces): piece i holds the coefficients of",
           "h_idx on shapes [2^(lo+i), 2^(lo+i+1)] in y = 2 (log2(shape) - lo - i) - 1.",
           '"""', "", "",
           "def _octaves(text):",
           '    """One coefficient tuple per blank-line separated block of text."""',
           '    return tuple(tuple(float(c) for c in block.split())',
           '                 for block in text.strip().split("\\n\\n"))',
           "", "", "TABLES = {"]
    for idx, (lo, hi) in _TABLE_OCTAVES.items():
        blocks = []
        for k in range(lo, hi):
            coeffs = [repr(c) for c in _fit_octave(idx, k)]
            blocks.append("\n".join("        " + " ".join(coeffs[i:i + 4])
                                    for i in range(0, len(coeffs), 4)))
        out.append(f'    {idx}: ({lo}, _octaves("""')
        out.append("\n\n".join(blocks))
        out.append('    """)),')
    out.append("}")
    path.write_text("\n".join(out) + "\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(prog="python -m trigof.quadrature")
    parser.add_argument("--tabulate", action="store_true", required=True,
                        help="regenerate src/trigof/_h_tables.py from tight quadrature")
    parser.parse_args()
    tabulate()
