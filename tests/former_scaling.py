"""The Sigma integrals and builders that ``scaling`` used before it summed
every expectation by the tanh-sinh rule, kept as the reference it is checked
against.

``h(idx, *args)`` evaluates the 37 moment integrals h1..h37 to absolute
error 1e-12 by an adaptive 15-point Gauss-Kronrod rule with worst-first
interval bisection (``integrate``, ``integrate_domain``); infinite domains
are mapped onto (0, 1) by v = a t/(1-t) (shifted by 1 on (1, inf)) with a
per-integrand length scale a, and endpoint power singularities declared on
the integrand are removed by monomial substitutions.  ``former_matrices``
returns a base family's (G, R, J) from its hand-derived builder, and
``logistic_constants`` the four logistic constants by quadrature.  The
builders of the derived families are in ``test_derived``.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sp

from trigof import families
from trigof.errors import DomainError
from trigof.families import _epd_c1, _epd_c2, _student_c2


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the last estimate and bound."""

    def __init__(self, message, estimate=None, bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


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
    return np.exp((a - 1.0) * np.log(v) - v / b - sp.gammaln(a) - a * math.log(b))


def _ga_cdf(v, a):
    return sp.gammainc(a, v)


def _be_pdf(v, a, b):
    lnB = sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b)
    return np.exp((a - 1.0) * np.log(v) + (b - 1.0) * np.log1p(-v) - lnB)


def _be_cdf(v, a, b):
    return sp.betainc(a, b, v)


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
H_TIGHT = 1e-12


def h_arity(idx: int) -> int:
    """Number of real arguments taken by h_idx."""
    if idx not in _H_ARITY:
        raise DomainError(f"h index must be in 1..37, got {idx}")
    return _H_ARITY[idx]


def _h_quadrature(idx: int, args: tuple, abs_tol: float = H_ABS_TOL,
                  rel_tol: float = 1e-10) -> float:
    return integrate_domain(_H_BUILDERS[idx](*args), abs_tol=abs_tol, rel_tol=rel_tol)


@functools.lru_cache(maxsize=None)
def _h_memo(idx: int, args: tuple) -> float:
    # h29..h32 scale with mu (h(mu, lam) = mu h(1, lam / mu)), and so does their bound
    tol = H_TIGHT * (args[0] if idx in (29, 30, 31, 32) else 1.0)
    return _h_quadrature(idx, args, abs_tol=tol, rel_tol=H_TIGHT)


def h(idx: int, *args: float) -> float:
    """h_idx at the given arguments, to absolute error 1e-12 (mu * 1e-12 for
    h29..h32): the former package read the gamma and inverse-Gaussian lines
    from tables built at that accuracy, and integrated the rest to 1e-10."""
    if idx not in _H_BUILDERS:
        raise DomainError(f"h index must be in 1..37, got {idx}")
    if len(args) != _H_ARITY[idx]:
        raise DomainError(f"h{idx} takes {_H_ARITY[idx]} argument(s), got {len(args)}")
    for a in args:
        if not (np.isfinite(a) and a > 0.0):
            raise DomainError(f"h{idx} arguments must be finite and > 0, got {args}")
    return _h_memo(idx, tuple(float(a) for a in args))


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
# per-family builders: return (G, R, J_or_None); J None means "equals G" (ML)
# ---------------------------------------------------------------------------

_EG = np.euler_gamma
_PI2_6 = math.pi ** 2 / 6.0
_h = h
_logi = functools.lru_cache(maxsize=1)(logistic_constants)


def _psi(z):
    return float(sp.digamma(z))


def _psi1(z):
    return float(sp.polygamma(1, z))


def _gamma(z):
    return float(sp.gamma(z))


def _epd_c3(lam):
    g13 = _gamma(3.0 / lam)
    return g13 ** 2 / (_gamma(1.0 / lam) * _gamma(5.0 / lam) - g13 ** 2)


def _m_epd_ml(t):
    lam, mu, sigma_ = t
    c1 = _epd_c1(lam)
    G = np.array([
        [(_h(1, lam) - _h(3, lam)) / lam ** 2, 0.0, _h(1, lam) / sigma_],
        [0.0, _h(2, lam) / (sigma_ * lam ** (1.0 / lam - 1.0) * _gamma(1.0 / lam)), 0.0],
    ])
    R = np.array([
        [((1.0 / lam + 1.0) * _psi1(1.0 / lam + 1.0) + c1 ** 2 - 1.0) / lam ** 3,
         0.0, -c1 / (sigma_ * lam)],
        [0.0, lam ** (2.0 - 2.0 / lam) * _gamma(2.0 - 1.0 / lam)
         / (sigma_ ** 2 * _gamma(1.0 / lam)), 0.0],
        [-c1 / (sigma_ * lam), 0.0, lam / sigma_ ** 2],
    ])
    return G, R, None


def _m_epd_mm(t):
    lam, mu, sigma_ = t
    c2, c3 = _epd_c2(lam), _epd_c3(lam)
    G = np.array([
        [0.0, _h(1, lam)],
        [_h(2, lam) / (lam ** (1.0 / lam - 1.0) * _gamma(1.0 / lam)), 0.0],
    ]) / sigma_
    J = np.array([
        [0.0, 2.0 * c3 * _h(4, lam)],
        [_h(5, lam) * _gamma(2.0 / lam) / (lam ** (1.0 / lam) * _gamma(3.0 / lam)), 0.0],
    ]) / sigma_
    R = np.diag([c2, 4.0 * c3]) / sigma_ ** 2
    return G, R, J


def _m_laplace_ml(t):
    mu, sigma_ = t
    G = np.array([[0.0, _h(1, 1.0)], [_h(2, 1.0), 0.0]]) / sigma_
    R = np.eye(2) / sigma_ ** 2
    return G, R, None


def _m_laplace_mm(t):
    mu, sigma_ = t
    G = np.array([[0.0, _h(1, 1.0)], [_h(2, 1.0), 0.0]]) / sigma_
    J = np.array([[0.0, 2.0 * _h(4, 1.0) / 5.0], [_h(5, 1.0) / 2.0, 0.0]]) / sigma_
    R = np.diag([0.5, 0.8]) / sigma_ ** 2
    return G, R, J


def _m_normal(t):
    mu, sigma_ = t
    G = np.array([
        [0.0, _h(1, 2.0)],
        [_h(2, 2.0) * math.sqrt(2.0 / math.pi), 0.0],
    ]) / sigma_
    R = np.diag([1.0, 2.0]) / sigma_ ** 2
    return G, R, None


def _m_expgamma_ml(t):
    lam, mu, sigma_ = t
    G = np.array([
        [_h(10, lam), lam * _h(6, lam, lam + 1.0, 1.0) / sigma_, _h(8, lam) / sigma_],
        [_h(11, lam), lam * _h(7, lam, lam + 1.0, 1.0) / sigma_, _h(9, lam) / sigma_],
    ])
    ps = _psi(lam)
    R = np.array([
        [_psi1(lam), 1.0 / sigma_, ps / sigma_],
        [1.0 / sigma_, lam / sigma_ ** 2, (lam * ps + 1.0) / sigma_ ** 2],
        [ps / sigma_, (lam * ps + 1.0) / sigma_ ** 2,
         (lam * ps ** 2 + 2.0 * ps + lam * _psi1(lam) + 1.0) / sigma_ ** 2],
    ])
    return G, R, None


def _m_logistic_ml(t):
    mu, sigma_ = t
    c_cos, c_sin, _, _ = _logi()
    G = np.array([[0.0, c_cos], [c_sin, 0.0]]) / sigma_
    R = np.diag([1.0 / 3.0, (3.0 + math.pi ** 2) / 9.0]) / sigma_ ** 2
    return G, R, None


def _m_logistic_mm(t):
    mu, sigma_ = t
    c_cos, c_sin, m_cos, m_sin = _logi()
    G = np.array([[0.0, c_cos], [c_sin, 0.0]]) / sigma_
    J = np.array([[0.0, m_cos], [m_sin, 0.0]]) / sigma_
    R = np.diag([3.0 / math.pi ** 2, 1.25]) / sigma_ ** 2
    return G, R, J


def _student_c1(lam):
    return math.exp(float(sp.gammaln(0.5 * (lam + 1.0)))
                    - float(sp.gammaln(0.5 * lam))) / math.sqrt(lam * math.pi)


def _m_student_ml(t):
    lam, mu, sigma_ = t
    G = np.array([
        [0.5 * _h(14, lam), 0.0, _h(12, lam) / sigma_],
        [0.0, 2.0 * _student_c1(lam) * _h(13, lam) / sigma_, 0.0],
    ])
    r11 = 0.25 * (_psi1(0.5 * lam) - _psi1(0.5 * (lam + 1.0))
                  - 2.0 * (lam + 5.0) / (lam * (lam + 1.0) * (lam + 3.0)))
    R = np.array([
        [r11, 0.0, -2.0 / (sigma_ * (lam + 1.0) * (lam + 3.0))],
        [0.0, (lam + 1.0) / (sigma_ ** 2 * (lam + 3.0)), 0.0],
        [-2.0 / (sigma_ * (lam + 1.0) * (lam + 3.0)), 0.0,
         2.0 * lam / (sigma_ ** 2 * (lam + 3.0))],
    ])
    return G, R, None


def _m_student_mm(t):
    lam, mu, sigma_ = t
    c2 = _student_c2(lam)
    c3 = c2 / (lam / (lam - 2.0) - c2 ** 2)
    G = np.array([
        [0.0, _h(12, lam)],
        [2.0 * _student_c1(lam) * _h(13, lam), 0.0],
    ]) / sigma_
    J = c2 / sigma_ * np.array([
        [0.0, c3 * _h(15, lam)],
        [(lam - 2.0) / lam * _h(16, lam), 0.0],
    ])
    R = np.diag([(lam - 2.0) / lam, c2 * c3]) / sigma_ ** 2
    return G, R, J


def _m_halfepd_ml(t):
    lam, sigma_ = t
    il = 1.0 / lam
    c1 = _epd_c1(lam)
    h6 = _h(6, il, il + 1.0, 1.0)
    h7 = _h(7, il, il + 1.0, 1.0)
    G = np.array([
        [(h6 - _h(17, lam)) / lam ** 2, h6 / sigma_],
        [(h7 - _h(18, lam)) / lam ** 2, h7 / sigma_],
    ])
    R = np.array([
        [((il + 1.0) * _psi1(il + 1.0) + c1 ** 2 - 1.0) / lam ** 3, -c1 / (sigma_ * lam)],
        [-c1 / (sigma_ * lam), lam / sigma_ ** 2],
    ])
    return G, R, None


def _m_halfepd_mm(t):
    lam, sigma_ = t
    il = 1.0 / lam
    c3 = _gamma(2.0 * il) ** 2 / (_gamma(il) * _gamma(3.0 * il) - _gamma(2.0 * il) ** 2)
    G = np.array([[_h(6, il, il + 1.0, 1.0)], [_h(7, il, il + 1.0, 1.0)]]) / sigma_
    J = c3 / sigma_ * np.array([[_h(6, il, 2.0 * il, 1.0)], [_h(7, il, 2.0 * il, 1.0)]])
    # R is the reciprocal variance of the moment equation: C3/sigma^2 (the
    # printed C2 is inconsistent with the lambda = 1, 2 special cases)
    R = np.array([[c3 / sigma_ ** 2]])
    return G, R, J


def _m_weibull_ml(t):
    beta, rho = t
    G = np.array([
        [rho * _h(6, 1.0, 2.0, 1.0) / beta, -_h(8, 1.0) / rho],
        [rho * _h(7, 1.0, 2.0, 1.0) / beta, -_h(9, 1.0) / rho],
    ])
    R = np.array([
        [rho ** 2 / beta ** 2, (_EG - 1.0) / beta],
        [(_EG - 1.0) / beta, ((_EG - 1.0) ** 2 + _PI2_6) / rho ** 2],
    ])
    return G, R, None


def _m_gompertz_ml(t):
    beta, rho = t
    pref = rho * math.exp(rho)
    G = pref * np.array([
        [_h(21, rho) / beta, -_h(23, rho)],
        [_h(22, rho) / beta, -_h(24, rho)],
    ])
    R = np.array([
        [(1.0 + rho ** 2 * math.exp(rho) * _h(19, rho)) / beta ** 2,
         pref * _h(20, rho) / beta],
        [pref * _h(20, rho) / beta, 1.0 / rho ** 2],
    ])
    return G, R, None


def _m_gamma_ml(t):
    lam, beta = t
    G = np.array([
        [_h(10, lam), lam * _h(6, lam, lam + 1.0, 1.0) / beta],
        [_h(11, lam), lam * _h(7, lam, lam + 1.0, 1.0) / beta],
    ])
    R = np.array([[_psi1(lam), 1.0 / beta], [1.0 / beta, lam / beta ** 2]])
    return G, R, None


def _m_beta_ml(t):
    a, b = t
    G = np.array([
        [_h(25, a, b), _h(27, a, b)],
        [_h(26, a, b), _h(28, a, b)],
    ])
    tab = _psi1(a + b)
    R = np.array([[_psi1(a) - tab, -tab], [-tab, _psi1(b) - tab]])
    return G, R, None


def _m_lomax_ml(t):
    a, sigma_ = t
    G = np.array([
        [-_h(6, 1.0, 2.0, 1.0) / a, -a * _h(6, 1.0, 1.0, a / (a + 1.0)) / sigma_],
        [-_h(7, 1.0, 2.0, 1.0) / a, -a * _h(7, 1.0, 1.0, a / (a + 1.0)) / sigma_],
    ])
    R = np.array([
        [1.0 / a ** 2, -1.0 / ((a + 1.0) * sigma_)],
        [-1.0 / ((a + 1.0) * sigma_), a / ((a + 2.0) * sigma_ ** 2)],
    ])
    return G, R, None


def _m_nakagami_ml(t):
    lam, omega = t
    h6 = _h(6, lam, lam + 1.0, 1.0)
    h7 = _h(7, lam, lam + 1.0, 1.0)
    G = np.array([
        [_h(10, lam) - h6, lam * h6 / omega],
        [_h(11, lam) - h7, lam * h7 / omega],
    ])
    R = np.diag([_psi1(lam) - 1.0 / lam, lam / omega ** 2])
    return G, R, None


def _m_invgauss_ml(t):
    mu, lam = t
    G = np.array([
        [lam * _h(29, mu, lam) / mu ** 3, -_h(31, mu, lam) / (2.0 * mu ** 2)],
        [lam * _h(30, mu, lam) / mu ** 3, -_h(32, mu, lam) / (2.0 * mu ** 2)],
    ])
    R = np.diag([lam / mu ** 3, 1.0 / (2.0 * lam ** 2)])
    return G, R, None


def _m_kumaraswamy_ml(t):
    a, b = t
    G = b * np.array([
        [_h(33, b) / a, _h(35, b)],
        [_h(34, b) / a, _h(36, b)],
    ])
    psb = _psi(b)
    # R11 and R12 have removable singularities at b = 2 and b = 1; switch to
    # the derivative limits inside a small window
    if abs(b - 2.0) < 1e-7:
        qp = 2.0 * (psb + _EG - 1.0) * _psi1(b) - float(sp.polygamma(2, b))
        r11 = (1.0 + b * qp) / a ** 2
    else:
        q = (psb + _EG - 1.0) ** 2 - _psi1(b) + _PI2_6 - 1.0
        r11 = (1.0 + b * q / (b - 2.0)) / a ** 2
    if abs(b - 1.0) < 1e-7:
        r12 = -(_psi1(b) - 1.0 / b ** 2) / a
    else:
        r12 = (psb + _EG - 1.0 + 1.0 / b) / (a * (1.0 - b))
    R = np.array([[r11, r12], [r12, 1.0 / b ** 2]])
    return G, R, None


_BUILDERS = {
    ("epd", "ml"): _m_epd_ml,
    ("epd", "mm"): _m_epd_mm,
    ("laplace", "ml"): _m_laplace_ml,
    ("laplace", "mm"): _m_laplace_mm,
    ("normal", "ml"): _m_normal,
    ("normal", "mm"): _m_normal,
    ("exp-gamma", "ml"): _m_expgamma_ml,
    ("logistic", "ml"): _m_logistic_ml,
    ("logistic", "mm"): _m_logistic_mm,
    ("student-t", "ml"): _m_student_ml,
    ("student-t", "mm"): _m_student_mm,
    ("half-epd", "ml"): _m_halfepd_ml,
    ("half-epd", "mm"): _m_halfepd_mm,
    ("weibull", "ml"): _m_weibull_ml,
    ("gompertz", "ml"): _m_gompertz_ml,
    ("gamma", "ml"): _m_gamma_ml,
    ("lomax", "ml"): _m_lomax_ml,
    ("nakagami", "ml"): _m_nakagami_ml,
    ("inverse-gaussian", "ml"): _m_invgauss_ml,
    ("beta", "ml"): _m_beta_ml,
    ("kumaraswamy", "ml"): _m_kumaraswamy_ml,
}


def former_matrices(name, kind, theta):
    """(G, R, J) of a base family's row from its former builder."""
    G, R, J = _BUILDERS[(name, kind)](tuple(float(v) for v in theta))
    return G, R, G.copy() if J is None else J
