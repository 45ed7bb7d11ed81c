"""ML and moment (MM) nuisance-parameter estimators for every family.

Closed-form estimators are written once, over sample rows
(``rows_estimator``): every MM row, which solves the declared moment equation
``Family.mm``, and eight families' ML rows.  ``fit`` runs them on a single
row and ``_batch.batch_fit`` on a block.  Implicit ML estimators are solved
by safeguarded 1-D root-finding on profiled score equations, nested where a
family requires it (shape root outermost, location/scale profiled inside).
Known parameter components are held bit-identical to their fixed values;
configurations without a dedicated path fall back to direct numeric
likelihood maximization over the free components.

Shape-type roots are bracketed on a geometric grid over [1e-3, 1e3]
(expanded geometrically when no sign change is found); scale-type roots use
the same grid relative to a data-driven scale.  The grid is searched outward
from its centre, so the bracket nearest the centre wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import optimize as opt
from scipy.special import logsumexp

from . import specfun
from .errors import (ConfigurationError, DegenerateSampleError, DomainError,
                     EstimationError)
from .families import Family, _epd_c1, get_family, score

__all__ = ["EstimatorKind", "KnownMask", "FitResult", "fit"]

_STEP_TOL = 1e-10
_SCORE_TOL = 1e-8
_MAX_ITER = 200
_SHAPE_CAP = 1e6


class EstimatorKind(str, Enum):
    ML = "ml"
    MM = "mm"


@dataclass(frozen=True)
class KnownMask:
    """Per-component known/unknown flags with the fixed values.

    ``fixed_values`` is aligned with ``known``; entries at unknown positions
    are ignored (conventionally NaN).
    """

    known: tuple[bool, ...]
    fixed_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.known) != len(self.fixed_values):
            raise DomainError("known and fixed_values must have equal length")
        for k, v in zip(self.known, self.fixed_values):
            if k and not np.isfinite(v):
                raise DomainError("fixed values of known components must be finite")

    @classmethod
    def none(cls, p: int) -> "KnownMask":
        return cls((False,) * p, (math.nan,) * p)

    @classmethod
    def all_fixed(cls, values) -> "KnownMask":
        values = tuple(float(v) for v in values)
        return cls((True,) * len(values), values)

    @classmethod
    def from_names(cls, fam, bindings: dict) -> "KnownMask":
        fam = get_family(fam)
        known = [False] * fam.n_params
        vals = [math.nan] * fam.n_params
        for name, value in bindings.items():
            if name not in fam.param_names:
                raise DomainError(
                    f"{fam.name} has no parameter {name!r}; names: {fam.param_names}")
            i = fam.param_names.index(name)
            known[i] = True
            vals[i] = float(value)
        return cls(tuple(known), tuple(vals))

    @property
    def n_known(self) -> int:
        return sum(self.known)

    def is_known(self, fam: Family, name: str) -> bool:
        return self.known[fam.param_names.index(name)]

    def value(self, fam: Family, name: str) -> float:
        return self.fixed_values[fam.param_names.index(name)]


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    iterations: int
    converged: bool
    residual: float


# ---------------------------------------------------------------------------
# root-finding helpers
# ---------------------------------------------------------------------------

def _scan_root(phi, scale: float = 1.0, lo: float = 1e-3, hi: float = 1e3,
               points: int = 41):
    """Find a root of phi on a geometric grid around ``scale``.

    Returns (root, iterations, converged).  The grid is evaluated outward
    from its centre point (c, c+1, c-1, c+2, ...) and the scan stops at the
    first cell that the newest evaluation completes and that holds an exact
    zero at its lower end or a sign change, which Brent's method then
    refines: the bracket nearest the grid centre wins; ties go upward.
    Expands the grid geometrically twice if no cell brackets a root; if
    there is still none, returns the grid point of smallest |phi| with
    converged=False.
    """
    spans = [(lo, hi), (lo * 1e-2, hi * 1e2), (lo * 1e-5, hi * 1e5)]
    c = points // 2
    order = sorted(range(points), key=lambda i: (abs(i - c), i < c))
    best_x, best_val = None, math.inf
    iters = 0
    with np.errstate(all="ignore"):
        for span_lo, span_hi in spans:
            grid = scale * np.geomspace(span_lo, span_hi, points)
            vals = np.full(points, math.nan)
            for i in order:
                try:
                    vals[i] = phi(grid[i])
                except (FloatingPointError, OverflowError, DomainError, ValueError):
                    vals[i] = math.nan
                iters += 1
                if np.isfinite(vals[i]) and abs(vals[i]) < best_val:
                    best_val, best_x = abs(vals[i]), grid[i]
                if i == c:
                    continue
                j = i - 1 if i > c else i  # the cell (j, j+1) this evaluation completes
                if not (np.isfinite(vals[j]) and np.isfinite(vals[j + 1])):
                    continue
                if vals[j] == 0.0:
                    return grid[j], iters, True
                if np.sign(vals[j]) * np.sign(vals[j + 1]) < 0:
                    root, res = opt.brentq(phi, grid[j], grid[j + 1], xtol=1e-13,
                                           rtol=8.9e-16, maxiter=_MAX_ITER,
                                           full_output=True)
                    return root, iters + res.iterations, res.converged
    if best_x is None:
        raise EstimationError("score equation could not be evaluated on the bracket grid")
    return best_x, iters, False


def _solve_digamma_minus_log(target: float):
    """Solve psi(z) - ln(z) = target (target < 0); monotone increasing in z."""
    if target >= 0.0:
        return _SHAPE_CAP, 0, False

    def phi(z):
        return float(specfun.digamma(z)) - math.log(z) - target

    # psi(z)-ln(z) ~ -1/(2z) large z; ~ -1/z small z: analytic starting bracket
    lo = min(0.5 / -target, 1e-8)
    hi = max(1.0 / -target, 1.0)
    while phi(hi) < 0.0 and hi < 1e15:
        hi *= 4.0
    while phi(lo) > 0.0 and lo > 1e-300:
        lo /= 4.0
    if phi(hi) < 0.0:
        return _SHAPE_CAP, 0, False
    root, res = opt.brentq(phi, lo, hi, xtol=1e-13, rtol=8.9e-16, full_output=True)
    return root, res.iterations, res.converged


def _solve_digamma(target: float):
    """Solve psi(z) = target over z > 0 (monotone increasing)."""
    def phi(z):
        return float(specfun.digamma(z)) - target

    hi = max(math.exp(target) + 1.0, 1.0)
    while phi(hi) < 0.0 and hi < 1e300:
        hi *= 4.0
    lo = min(1.0, 1.0 / (1.0 - target)) if target < 0 else 1.0
    while phi(lo) > 0.0 and lo > 1e-300:
        lo /= 4.0
    root, res = opt.brentq(phi, lo, hi, xtol=1e-13, rtol=8.9e-16, full_output=True)
    return root, res.iterations, res.converged


def _wmean_exp(values, logw):
    """Weighted mean of ``values`` with weights exp(logw), overflow-safe."""
    m = np.max(logw)
    w = np.exp(logw - m)
    return float(np.sum(values * w) / np.sum(w))


# ---------------------------------------------------------------------------
# per-family fitting routines
#
# Each routine receives the data and the mask and returns
# (theta tuple, iterations, converged) or None to fall through to the
# generic likelihood maximizer.
# ---------------------------------------------------------------------------

def _epd_mu_hat(x, lam):
    """Location solving sum sign(x-mu)|x-mu|^(lam-1) = 0 (the mu ML equation)."""
    lo, hi = float(np.min(x)), float(np.max(x))

    def g(mu):
        d = x - mu
        return float(np.sum(np.sign(d) * np.abs(d) ** (lam - 1.0)))

    if lam >= 1.0:
        # g is continuous and strictly decreasing: a single bracketed root
        res = opt.brentq(g, lo, hi, xtol=1e-12 * max(1.0, abs(hi - lo)), full_output=True)
        return res[0], res[1].iterations
    # lam < 1: g blows up at every observation, with one root per gap; take
    # the consistent root of the estimating equation in the gap with the
    # smallest profiled objective (global maximization is degenerate here)
    xs = np.unique(x)
    if len(xs) == 1:
        return float(xs[0]), 1
    mids = 0.5 * (xs[:-1] + xs[1:])
    obj = np.array([float(np.sum(np.abs(x - m) ** lam)) for m in mids])
    best = int(np.argmin(obj))
    a = np.nextafter(xs[best], xs[best + 1])
    b = np.nextafter(xs[best + 1], xs[best])
    if g(a) <= 0.0:
        return float(a), len(mids)
    if g(b) >= 0.0:
        return float(b), len(mids)
    res = opt.brentq(g, a, b, xtol=1e-13 * max(1.0, hi - lo), full_output=True)
    return res[0], res[1].iterations + len(mids)


def _fit_epd(fam, x, mask):
    mu_known = mask.is_known(fam, "mu")
    sigma_known = mask.is_known(fam, "sigma")
    iters = 0

    def inner(lam):
        nonlocal iters
        if mu_known:
            mu = mask.value(fam, "mu")
        else:
            mu, it = _epd_mu_hat(x, lam)
            iters += it
        a = np.abs(x - mu)
        if sigma_known:
            sigma = mask.value(fam, "sigma")
        else:
            sigma = float(np.mean(a ** lam)) ** (1.0 / lam)
        return mu, sigma

    def lam_eq(lam):
        mu, sigma = inner(lam)
        w = (np.abs(x - mu) / sigma) ** lam
        pos = w > 0.0
        val = _epd_c1(lam) - float(np.mean(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0)))
        if sigma_known:
            val += float(np.mean(w)) - 1.0
        return val

    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        mu, sigma = inner(lam)
        return (lam, mu, sigma), iters + 1, True
    lam, it, conv = _scan_root(lam_eq)
    iters += it
    mu, sigma = inner(lam)
    return (lam, mu, sigma), iters, conv


def _fit_expgamma(fam, x, mask):
    if mask.n_known:
        return None  # generic path handles masked fits
    n = len(x)
    xbar = float(np.mean(x))
    s0 = float(np.std(x))
    iters = 0

    def sigma_hat(lam):
        # scale equation at fixed shape: goes from +lam(max - mean) at 0+
        # to -inf, so the bracket scan is safe
        nonlocal iters

        def phi(sigma):
            return lam * (_wmean_exp(x, x / sigma) - xbar) - sigma

        sig, it, conv = _scan_root(phi, scale=s0)
        iters += it
        return sig, conv

    def outer(lam):
        sigma, _ = sigma_hat(lam)
        a = x / sigma
        g = float(logsumexp(a)) - math.log(n) - float(np.mean(a))
        return math.log(lam) - float(specfun.digamma(lam)) - g

    lam, it, conv = _scan_root(outer)
    iters += it
    sigma, conv2 = sigma_hat(lam)
    a = x / sigma
    mu = sigma * (float(logsumexp(a)) - math.log(n) - math.log(lam))
    if lam >= _SHAPE_CAP:
        conv = False
    return (lam, mu, sigma), iters, conv and conv2


def _fit_expweibull(fam, x, mask):
    if mask.n_known:
        return None
    n = len(x)
    xbar = float(np.mean(x))

    def phi(sigma):
        a = x / sigma
        return _wmean_exp(x, a) - xbar - sigma

    s0 = float(np.std(x))
    sigma, iters, conv = _scan_root(phi, scale=s0)
    mu = sigma * (float(logsumexp(x / sigma)) - math.log(n))
    return (mu, sigma), iters, conv


def _fit_gumbel(fam, x, mask):
    if mask.n_known:
        return None
    n = len(x)
    xbar = float(np.mean(x))

    def phi(sigma):
        return xbar - _wmean_exp(x, -x / sigma) - sigma

    s0 = float(np.std(x))
    sigma, iters, conv = _scan_root(phi, scale=s0)
    mu = -sigma * (float(logsumexp(-x / sigma)) - math.log(n))
    return (mu, sigma), iters, conv


def _logistic_ml_core(x):
    """Profiled logistic ML: inner location root, outer scale root."""
    iters = 0

    def mu_hat(sigma):
        nonlocal iters

        def g(mu):
            return float(np.mean(2.0 / (1.0 + np.exp((x - mu) / sigma)))) - 1.0

        lo, hi = float(np.min(x)), float(np.max(x))
        root, res = opt.brentq(g, lo, hi, xtol=1e-13 * max(1.0, hi - lo), full_output=True)
        iters += res.iterations
        return root

    def phi(sigma):
        y = (x - mu_hat(sigma)) / sigma
        return float(np.mean(y * np.tanh(0.5 * y))) - 1.0

    s0 = float(np.std(x)) * math.sqrt(3.0) / math.pi
    sigma, it, conv = _scan_root(phi, scale=s0)
    iters += it
    return mu_hat(sigma), sigma, iters, conv


def _fit_logistic(fam, x, mask):
    if mask.n_known:
        return None
    mu, sigma, iters, conv = _logistic_ml_core(x)
    return (mu, sigma), iters, conv


def _student_em(x, lam, mu0, sigma0, mu_fixed=None, sigma_fixed=None):
    mu = mu0 if mu_fixed is None else mu_fixed
    sigma = sigma0 if sigma_fixed is None else sigma_fixed
    it = 0
    for it in range(1, 501):
        y = (x - mu) / sigma
        w = lam / (lam + y ** 2)
        mu_new = float(np.sum(w * x) / np.sum(w)) if mu_fixed is None else mu_fixed
        if sigma_fixed is None:
            s2 = (lam + 1.0) / lam * float(np.mean(w * (x - mu_new) ** 2))
            sigma_new = math.sqrt(s2)
        else:
            sigma_new = sigma_fixed
        step = max(abs(mu_new - mu), abs(sigma_new - sigma))
        mu, sigma = mu_new, sigma_new
        if step <= _STEP_TOL * max(1.0, abs(mu), sigma):
            break
    return mu, sigma, it


def _fit_student(fam, x, mask):
    mu_fixed = mask.value(fam, "mu") if mask.is_known(fam, "mu") else None
    sigma_fixed = mask.value(fam, "sigma") if mask.is_known(fam, "sigma") else None
    mu0, s0 = float(np.median(x)), float(np.std(x))
    iters = 0

    def inner(lam):
        nonlocal iters
        mu, sigma, it = _student_em(x, lam, mu0, s0, mu_fixed, sigma_fixed)
        iters += it
        return mu, sigma

    def lam_eq(lam):
        mu, sigma = inner(lam)
        y = (x - mu) / sigma
        val = (float(specfun.digamma(0.5 * (lam + 1.0))) - float(specfun.digamma(0.5 * lam))
               - float(np.mean(np.log1p(y ** 2 / lam))))
        if sigma_fixed is not None:
            q = (lam + 1.0) / lam * float(np.mean(y ** 2 / (1.0 + y ** 2 / lam)))
            val += (q - 1.0) / lam
        return val

    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        mu, sigma = inner(lam)
        return (lam, mu, sigma), iters + 1, True
    lam, it, conv = _scan_root(lam_eq, lo=1e-2)
    iters += it
    if lam >= 1e3 * 0.99:
        conv = False
    mu, sigma = inner(lam)
    return (lam, mu, sigma), iters, conv


def _fit_halfepd(fam, x, mask):
    sigma_known = mask.is_known(fam, "sigma")

    def sigma_hat(lam):
        if sigma_known:
            return mask.value(fam, "sigma")
        return float(np.mean(x ** lam)) ** (1.0 / lam)

    def lam_eq(lam):
        sigma = sigma_hat(lam)
        w = (x / sigma) ** lam
        val = _epd_c1(lam) - float(np.mean(w * np.log(w)))
        if sigma_known:
            val += float(np.mean(w)) - 1.0
        return val

    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        return (lam, sigma_hat(lam)), 1, True
    lam, iters, conv = _scan_root(lam_eq)
    return (lam, sigma_hat(lam)), iters, conv


def _weibull_rho_profile(x):
    lx = np.log(x)
    mean_lx = float(np.mean(lx))

    def m_ln(rho):
        return _wmean_exp(lx, rho * lx)

    def phi(rho):
        return m_ln(rho) - mean_lx - 1.0 / rho

    rho0 = math.pi / math.sqrt(6.0) / max(float(np.std(lx)), 1e-12)
    return phi, rho0


def _fit_weibull(fam, x, mask):
    if mask.n_known:
        return None
    phi, rho0 = _weibull_rho_profile(x)
    rho, iters, conv = _scan_root(phi, scale=rho0, lo=1e-2, hi=1e2)
    lx = np.log(x)
    beta = math.exp((float(logsumexp(rho * lx)) - math.log(len(x))) / rho)
    return (beta, rho), iters, conv


def _fit_frechet(fam, x, mask):
    if mask.n_known:
        return None
    res = _fit_weibull(get_family("weibull"), 1.0 / x, KnownMask.none(2))
    (beta_w, rho), iters, conv = res
    return (1.0 / beta_w, rho), iters, conv


def _fit_gg(fam, x, mask):
    # exact reparameterization: ln X ~ exp-gamma(lam, ln beta, 1/rho)
    if mask.n_known:
        return None
    out = _fit_expgamma(get_family("exp-gamma"), np.log(x), KnownMask.none(3))
    (lam, mu, sigma), iters, conv = out
    return (lam, math.exp(mu), 1.0 / sigma), iters, conv


def _fit_gompertz(fam, x, mask):
    if mask.n_known:
        return None
    xbar = float(np.mean(x))

    def phi(beta):
        t = beta * x
        big = float(logsumexp(t)) - math.log(len(x))
        xt = _wmean_exp(x, t)
        # rho_hat * mean(x e^(beta x)) with rho_hat = 1/(mean e^(beta x) - 1)
        return 1.0 / beta + xbar - xt / -math.expm1(-big)

    beta, iters, conv = _scan_root(phi, scale=1.0 / xbar)
    rho = 1.0 / math.expm1(float(logsumexp(beta * x)) - math.log(len(x)))
    return (beta, rho), iters, conv


def _fit_loglogistic(fam, x, mask):
    if mask.n_known:
        return None
    mu, sigma, iters, conv = _logistic_ml_core(np.log(x))
    return (math.exp(mu), 1.0 / sigma), iters, conv


def _fit_gamma(fam, x, mask):
    lam_known = mask.is_known(fam, "lambda")
    beta_known = mask.is_known(fam, "beta")
    lx = np.log(x)
    if lam_known:
        lam = mask.value(fam, "lambda")
        beta = mask.value(fam, "beta") if beta_known else float(np.mean(x)) / lam
        return (lam, beta), 1, True
    if beta_known:
        beta = mask.value(fam, "beta")
        lam, iters, conv = _solve_digamma(float(np.mean(lx)) - math.log(beta))
        return (lam, beta), iters, conv
    s = math.log(float(np.mean(x))) - float(np.mean(lx))
    lam, iters, conv = _solve_digamma_minus_log(-s)
    if lam >= _SHAPE_CAP:
        conv = False
    return (lam, float(np.mean(x)) / lam), iters, conv


def _fit_invgamma(fam, x, mask):
    if mask.is_known(fam, "beta"):
        beta = mask.value(fam, "beta")
        if mask.is_known(fam, "lambda"):
            return (mask.value(fam, "lambda"), beta), 1, True
        lam, iters, conv = _solve_digamma(math.log(beta) - float(np.mean(np.log(x))))
        return (lam, beta), iters, conv
    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        return (lam, lam / float(np.mean(1.0 / x))), 1, True
    (lam, beta_g), iters, conv = _fit_gamma(get_family("gamma"), 1.0 / x, KnownMask.none(2))
    return (lam, 1.0 / beta_g), iters, conv


def _beta_ml_system(s1, s2, a0, b0):
    """Newton iterations for psi(a)-psi(a+b)=s1, psi(b)-psi(a+b)=s2."""
    a, b = max(a0, 1e-3), max(b0, 1e-3)
    for it in range(1, _MAX_ITER + 1):
        pab = float(specfun.digamma(a + b))
        f1 = float(specfun.digamma(a)) - pab - s1
        f2 = float(specfun.digamma(b)) - pab - s2
        tab = float(specfun.trigamma(a + b))
        j11 = float(specfun.trigamma(a)) - tab
        j22 = float(specfun.trigamma(b)) - tab
        det = j11 * j22 - tab * tab
        if det <= 0.0:
            break
        da = (-f1 * j22 - f2 * tab) / det
        db = (-f2 * j11 - f1 * tab) / det
        step = 1.0
        while (a + step * da <= 0.0 or b + step * db <= 0.0) and step > 1e-8:
            step *= 0.5
        a, b = a + step * da, b + step * db
        if max(abs(da), abs(db)) <= _STEP_TOL * max(1.0, a, b):
            return a, b, it, True
    return a, b, _MAX_ITER, False


def _fit_beta(fam, x, mask):
    if mask.n_known:
        return None
    m, v = float(np.mean(x)), float(np.var(x))
    v = max(v, 1e-12)
    c = m * (1.0 - m) / v - 1.0
    a0, b0 = max(m * c, 1e-2), max((1.0 - m) * c, 1e-2)
    a, b, iters, conv = _beta_ml_system(float(np.mean(np.log(x))),
                                        float(np.mean(np.log1p(-x))), a0, b0)
    return (a, b), iters, conv


def _fit_betaprime(fam, x, mask):
    if mask.n_known:
        return None
    v = x / (1.0 + x)
    m, var = float(np.mean(v)), max(float(np.var(v)), 1e-12)
    c = m * (1.0 - m) / var - 1.0
    a, b, iters, conv = _beta_ml_system(float(np.mean(np.log(v))),
                                        float(np.mean(np.log1p(-v))),
                                        max(m * c, 1e-2), max((1.0 - m) * c, 1e-2))
    return (a, b), iters, conv


def _fit_lomax(fam, x, mask):
    if mask.n_known:
        return None
    xbar = float(np.mean(x))

    def alpha_hat(sigma):
        return 1.0 / float(np.mean(np.log1p(x / sigma)))

    def phi(sigma):
        return (1.0 + alpha_hat(sigma)) * float(np.mean(x / (1.0 + x / sigma))) - sigma

    sigma, iters, conv = _scan_root(phi, scale=xbar)
    return (alpha_hat(sigma), sigma), iters, conv


def _fit_nakagami(fam, x, mask):
    if mask.n_known:
        return None
    x2 = x ** 2
    omega = float(np.mean(x2))
    s = math.log(omega) - float(np.mean(np.log(x2)))
    lam, iters, conv = _solve_digamma_minus_log(-s)
    if lam >= _SHAPE_CAP:
        conv = False
    return (lam, omega), iters, conv


def _fit_invgauss(fam, x, mask):
    mu_known = mask.is_known(fam, "mu")
    mu = mask.value(fam, "mu") if mu_known else float(np.mean(x))
    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
    else:
        xbar = float(np.mean(x))
        denom = float(np.mean(1.0 / x)) - (2.0 - xbar / mu) / mu
        if denom <= 0.0:
            raise EstimationError("inverse-Gaussian precision estimate is not positive",
                                  residual=denom)
        lam = 1.0 / denom
    return (mu, lam), 1, True


def _fit_chi2(fam, x, mask):
    z, iters, conv = _solve_digamma(float(np.mean(np.log(0.5 * x))))
    return (2.0 * z,), iters, conv


def _fit_kumaraswamy(fam, x, mask):
    if mask.n_known:
        return None
    lx = np.log(x)
    sum_lx = float(np.sum(lx))
    n = len(x)

    def beta_hat(alpha):
        return -n / float(np.sum(np.log1p(-x ** alpha)))

    def phi(alpha):
        xa = x ** alpha
        denom = float(np.sum(xa / (1.0 - xa) * lx))
        return 1.0 - beta_hat(alpha) + (n / alpha + sum_lx) / denom

    alpha, iters, conv = _scan_root(phi)
    return (alpha, beta_hat(alpha)), iters, conv


_FITTERS = {
    "epd": _fit_epd,
    "exp-gamma": _fit_expgamma,
    "exp-weibull": _fit_expweibull,
    "gumbel": _fit_gumbel,
    "logistic": _fit_logistic,
    "student-t": _fit_student,
    "half-epd": _fit_halfepd,
    "gg": _fit_gg,
    "weibull": _fit_weibull,
    "frechet": _fit_frechet,
    "gompertz": _fit_gompertz,
    "log-logistic": _fit_loglogistic,
    "gamma": _fit_gamma,
    "inverse-gamma": _fit_invgamma,
    "beta-prime": _fit_betaprime,
    "lomax": _fit_lomax,
    "nakagami": _fit_nakagami,
    "inverse-gaussian": _fit_invgauss,
    "chi-squared": _fit_chi2,
    "beta": _fit_beta,
    "kumaraswamy": _fit_kumaraswamy,
}


# ---------------------------------------------------------------------------
# closed-form estimators over sample rows: X (rows, n) -> theta rows (rows, p),
# the free components from the rows and the known ones from the mask
# ---------------------------------------------------------------------------

def _known_rows(mask: KnownMask, rows: int) -> np.ndarray:
    """theta rows holding the known values, NaN at the free components."""
    return np.tile(np.asarray(mask.fixed_values, dtype=float), (rows, 1))


def _deviation(stat: str, X, loc) -> np.ndarray:
    """Mean squared ("msd") or absolute ("mad") deviation of each row about loc."""
    d = X - loc[:, None]
    return (d ** 2).mean(axis=1) if stat == "msd" else np.abs(d).mean(axis=1)


def _mm_rows(fam: Family, mask: KnownMask, X) -> np.ndarray:
    """Solve the family's moment equation ``fam.mm`` on each row of X."""
    eq, p = fam.mm, fam.n_params
    theta = _known_rows(mask, len(X))
    if eq.log is not None:
        X, theta = np.log(X), np.column_stack(eq.log[0](theta.T))
    num, den = eq.unit(*(mask.value(fam, g) for g in eq.given))
    stat = X.mean(axis=1)
    if eq.stat != "mean":
        if not mask.known[p - 2]:
            theta[:, p - 2] = stat
        stat = _deviation(eq.stat, X, theta[:, p - 2])
    if not mask.known[p - 1]:
        s = stat * den / num
        theta[:, p - 1] = np.sqrt(s) if eq.stat == "msd" else s
    return theta if eq.log is None else np.column_stack(eq.log[1](theta.T))


def _mm_gap(fam: Family, theta, x, mask: KnownMask) -> float:
    """The MM residual: the largest mismatch between a matched sample
    statistic and its model value at theta, over the free components."""
    eq, p = fam.mm, fam.n_params
    num, den = eq.unit(*(mask.value(fam, g) for g in eq.given))
    t = np.asarray(theta, dtype=float)
    if eq.log is not None:
        x, t = np.log(x), np.array(eq.log[0](t))
    stat, gaps = float(np.mean(x)), [0.0]
    if eq.stat != "mean":
        gaps.append(0.0 if mask.known[p - 2] else abs(stat - t[p - 2]))
        stat = float(_deviation(eq.stat, x[None, :], t[p - 2:p - 1])[0])
    if not mask.known[p - 1]:
        gaps.append(abs(stat - t[p - 1] ** (2 if eq.stat == "msd" else 1) * num / den))
    return max(gaps)


def _columns(*exprs):
    """The estimator that fills each free column j, in order, with exprs[j](X, theta)."""
    def rows(fam, mask, X):
        theta = _known_rows(mask, len(X))
        for j, expr in enumerate(exprs):
            if not mask.known[j]:
                theta[:, j] = expr(X, theta)
        return theta
    return rows


_ML_ROWS = {
    "normal": _mm_rows,  # the normal and exponential ML estimators are their MM ones
    "exponential": _mm_rows,
    "laplace": _columns(lambda X, t: np.median(X, axis=1),
                        lambda X, t: np.abs(X - t[:, :1]).mean(axis=1)),
    "uniform": _columns(lambda X, t: X.min(axis=1), lambda X, t: X.max(axis=1)),
    "half-normal": _columns(lambda X, t: np.sqrt((X ** 2).mean(axis=1))),
    "rayleigh": _columns(lambda X, t: np.sqrt(0.5 * (X ** 2).mean(axis=1))),
    "maxwell-boltzmann": _columns(lambda X, t: np.sqrt((X ** 2).mean(axis=1) / 3.0)),
    "pareto": _columns(lambda X, t: 1.0 / np.log(X).mean(axis=1)),
}


def rows_estimator(fam, kind, mask: KnownMask):
    """The estimator of a (family, estimator, mask) row as a map from sample
    rows X to theta rows, or None where it has no closed form.

    Every MM row has one, and so have the ML rows of the families in
    ``_ML_ROWS`` (a log family through its base, on ln X).  Rows that
    ``rejected_rows`` flags must be screened out first.
    """
    base = fam.base or fam
    if kind is EstimatorKind.MM:
        if not fam.has_mm or not all(mask.is_known(fam, g) for g in fam.mm_known):
            return None
        est = _mm_rows
    elif base.name in _ML_ROWS:
        est = _ML_ROWS[base.name]
    else:
        return None
    known = list(mask.known)

    def rows(X):
        theta = est(base, mask, X if fam.base is None else np.log(X))
        theta[:, known] = np.asarray(mask.fixed_values)[known]
        return theta
    return rows


def rejected_rows(fam: Family, mask: KnownMask, X):
    """Rows of X that ``fit`` rejects: (data outside the support, no spread
    to fit).  Uniform's support is closed between its known ends (NaN if free)."""
    lo, hi = fam.support([v if k else math.nan for k, v in zip(mask.known, mask.fixed_values)])
    if fam.name == "uniform":
        outside = np.any((X < lo) | (X > hi), axis=1)
    else:
        outside = np.any((X <= lo) | (X >= hi), axis=1)
    spread = fam.n_params > 1 and mask.n_known < fam.n_params
    return outside, spread & (np.ptp(X, axis=1) == 0.0)


# ---------------------------------------------------------------------------
# generic masked likelihood maximization (fallback)
# ---------------------------------------------------------------------------

def _generic_ml(fam: Family, x, mask: KnownMask):
    free = [i for i, k in enumerate(mask.known) if not k]
    try:
        base, _, _ = _FITTERS[fam.name](fam, x, KnownMask.none(fam.n_params))
    except (EstimationError, DomainError):
        base = None
    start = list(base) if base is not None else [1.0] * fam.n_params
    for i, k in enumerate(mask.known):
        if k:
            start[i] = mask.fixed_values[i]
    # positive components are searched on the log scale
    logflag = [i in getattr(fam.check, "positive", ()) for i in range(fam.n_params)]

    def unpack(z):
        theta = list(start)
        for j, i in enumerate(free):
            theta[i] = math.exp(z[j]) if logflag[i] else z[j]
        return tuple(theta)

    def nll(z):
        theta = unpack(z)
        try:
            fam.check(theta)
            return -float(np.sum(fam.logpdf(theta, x)))
        except (DomainError, FloatingPointError):
            return math.inf

    z0 = np.array([math.log(start[i]) if logflag[i] else start[i] for i in free])
    res = opt.minimize(nll, z0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 20000})
    theta = unpack(res.x)
    return theta, int(res.nit), bool(res.success)


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def _residual(fam: Family, theta, x, mask: KnownMask, kind: EstimatorKind) -> float:
    if fam.score_fn is None:
        return 0.0
    free = [i for i, k in enumerate(mask.known) if not k]
    if not free:
        return 0.0
    if kind is EstimatorKind.MM:
        return _mm_gap(fam, theta, x, mask)
    if fam.name == "epd" and theta[0] < 1.0:
        # the location score is unbounded at the cusp optimum; judge the
        # remaining components only
        free = [i for i in free if i != 1]
        if not free:
            return 0.0
    with np.errstate(all="ignore"):
        s = score(fam, theta, x)
    return float(np.max(np.abs(np.mean(s[free], axis=1))))


def fit(fam, kind, mask: Optional[KnownMask], x) -> FitResult:
    """Fit the family's nuisance parameters on the sample.

    Raises EstimationError when an implicit solver cannot locate a root
    (the returned residual is attached), DegenerateSampleError for samples
    without usable spread, and ConfigurationError for unsupported
    (family, estimator, mask) combinations.
    """
    fam = get_family(fam)
    kind = EstimatorKind(kind)
    if kind is EstimatorKind.MM and not fam.has_mm:
        raise ConfigurationError(f"family {fam.name!r} has no MM estimator")
    if mask is None:
        mask = KnownMask.none(fam.n_params)
    if len(mask.known) != fam.n_params:
        raise DomainError(f"mask arity {len(mask.known)} != {fam.n_params}")
    if kind is EstimatorKind.MM:
        unknown = [p for p in fam.mm_known if not mask.is_known(fam, p)]
        if unknown:
            raise ConfigurationError(f"{fam.name} MM requires {', '.join(unknown)} to be known")

    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise DomainError("sample must be a nonempty 1-D array")
    n_free = fam.n_params - mask.n_known
    if len(x) < n_free + 1:
        raise DomainError(f"need at least {n_free + 1} observations, got {len(x)}")
    outside, flat = rejected_rows(fam, mask, x[None, :])
    if outside[0]:
        raise DomainError(f"data outside the support of {fam.name}")
    if flat[0]:
        raise DegenerateSampleError("all observations are equal")

    if n_free == 0:
        theta = np.array(mask.fixed_values, dtype=float)
        fam.check(tuple(theta))
        return FitResult(theta, 0, True, 0.0)

    # a log-delegating family is its base family fitted to ln x
    base, xb = (fam.base, np.log(x)) if fam.base is not None else (fam, x)
    rows = rows_estimator(fam, kind, mask)
    if rows is not None:
        theta, iterations, converged = rows(x[None, :])[0], 1, True
    else:
        out = _FITTERS[base.name](base, xb, mask)
        theta, iterations, converged = out if out is not None else _generic_ml(base, xb, mask)
    theta = np.asarray(theta, dtype=float)
    # known components are returned bit-identical
    for i, k in enumerate(mask.known):
        if k:
            theta[i] = mask.fixed_values[i]
    fam.check(tuple(theta))
    resid = _residual(base, theta, xb, mask, kind)
    # ML contract: |sum_i score| <= 1e-8 n, i.e. the mean score <= 1e-8
    if kind is EstimatorKind.ML and resid > _SCORE_TOL * max(1.0, float(np.max(np.abs(x)))):
        converged = False
    return FitResult(theta, iterations, bool(converged), resid)
