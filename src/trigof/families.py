"""Registry of the 32 null distribution families.

Each family carries its parameter names (in canonical order), parameter-space
validation, support, density, CDF, quantile (closed form wherever one exists,
numeric inversion otherwise), per-observation score function, and an
inverse-CDF sampler.  Families are looked up by lowercase hyphenated name,
e.g. ``get_family("inverse-gaussian")``.  Every ``cdf_fn`` broadcasts over
theta components given as columns of shape (rows, 1), which is how the batch
PIT evaluates a block of fitted rows in one call.

A family with an MM estimator declares its moment equation once, as
``Family.mm`` (a ``MomentEq``); the estimator over sample rows, the MM
residual, ``has_mm`` and ``mm_known`` all derive from it.  ``Family.shapes``
names the parameters the scaling covariance Sigma depends on; it is invariant
under the others, so a block whose shapes are all known shares one Sigma.

The log-{ EPD, Laplace, normal } families delegate to their real-line
counterparts through x -> ln x and record that counterpart as
``Family.base``, through which the fitters and the matrices are found; the
asymmetric power distribution used for local-alternative sampling lives here
as well (``apd_pdf`` / ``apd_cdf`` / ``sample_apd``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special as sp

from . import specfun
from .errors import ConfigurationError, DomainError, SamplingError

__all__ = [
    "Family", "get_family", "family_names", "pdf", "cdf", "quantile",
    "score", "sample", "apd_pdf", "apd_cdf", "sample_apd",
]

_TINY_U = 1e-15


# ---------------------------------------------------------------------------
# Family container and dispatch helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEq:
    """The moment equation of a family's MM estimator.

    The sample ``stat``, "mean" or the mean squared ("msd") or absolute
    ("mad") deviation about the location, is matched to its model value
    s**q * num / den at scale s (the last parameter; q = 2 for "msd", else 1),
    with (num, den) = unit(*given) for the shapes ``given``, which the MM row
    requires known.  The location, the next-to-last parameter of an "msd" or
    "mad" family, is matched to the sample mean.  With ``log`` = (to, back)
    the equation holds for ln x in the parameters to(theta).
    """

    stat: str
    unit: Callable[..., tuple[float, float]]
    given: tuple[str, ...] = ()
    log: Optional[tuple[Callable, Callable]] = None


@dataclass(frozen=True)
class Family:
    """One null family: parameter metadata plus distribution callables."""

    name: str
    param_names: tuple[str, ...]
    check: Callable[[tuple], None]
    support: Callable[[tuple], tuple[float, float]]
    logpdf: Callable[[tuple, np.ndarray], np.ndarray]
    cdf_fn: Callable[[tuple, np.ndarray], np.ndarray]
    quantile_fn: Optional[Callable[[tuple, np.ndarray], np.ndarray]]
    score_fn: Optional[Callable[[tuple, np.ndarray], np.ndarray]]
    mm: Optional[MomentEq] = None
    shapes: tuple[str, ...] = ()  # the parameters the scaling covariance depends on
    base: Optional["Family"] = None  # a log-delegating family's real-line family

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def has_mm(self) -> bool:
        return self.mm is not None

    @property
    def mm_known(self) -> tuple[str, ...]:  # the parameters the MM row requires known
        return self.mm.given if self.mm is not None else ()


_REGISTRY: dict[str, Family] = {}


def _register(fam: Family) -> Family:
    _REGISTRY[fam.name] = fam
    return fam


def family_names() -> list[str]:
    return list(_REGISTRY)


def get_family(fam) -> Family:
    if isinstance(fam, Family):
        return fam
    key = str(fam).strip().lower()
    if key not in _REGISTRY:
        raise DomainError(f"unknown family {fam!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def _theta(fam: Family, theta) -> tuple:
    t = tuple(float(v) for v in np.atleast_1d(np.asarray(theta, dtype=float)))
    if len(t) != fam.n_params:
        raise DomainError(
            f"{fam.name} takes {fam.n_params} parameter(s) {fam.param_names}, got {len(t)}")
    if not all(np.isfinite(t)):
        raise DomainError(f"parameters must be finite, got {t}")
    fam.check(t)
    return t


def pdf(fam, theta, x):
    """Density, vectorized in x; 0 outside the support."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    x = np.asarray(x, dtype=float)
    lo, hi = fam.support(t)
    inside = (x > lo) & (x < hi)
    out = np.zeros(x.shape if x.shape else (1,))
    xs = np.atleast_1d(x)
    m = np.atleast_1d(inside)
    if m.any():
        with np.errstate(over="ignore", under="ignore"):
            out[m] = np.exp(fam.logpdf(t, xs[m]))
    return out if x.shape else float(out[0])


def cdf(fam, theta, x):
    """CDF, vectorized in x; clamped to 0/1 outside the support."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    x = np.asarray(x, dtype=float)
    lo, hi = fam.support(t)
    xs = np.atleast_1d(x).copy()
    out = np.zeros_like(xs)
    out[xs >= hi] = 1.0
    m = (xs > lo) & (xs < hi)
    if m.any():
        with np.errstate(over="ignore", under="ignore"):
            out[m] = np.clip(fam.cdf_fn(t, xs[m]), 0.0, 1.0)
    return out if x.shape else float(out[0])


def quantile(fam, theta, u):
    """Quantile function; numeric bracketed inversion when no closed form."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    u = np.asarray(u, dtype=float)
    us = np.clip(np.atleast_1d(u), _TINY_U, 1.0 - _TINY_U)
    if fam.quantile_fn is not None:
        with np.errstate(over="ignore", under="ignore"):
            q = fam.quantile_fn(t, us)
    else:
        q = _numeric_quantile(fam, t, us)
    q = np.asarray(q, dtype=float)
    return q if u.shape else float(q[0])


def score(fam, theta, x):
    """Per-observation score d/dtheta ln f, shape (p, len(x))."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    if fam.score_fn is None:
        raise DomainError(f"score is not defined for the {fam.name} family")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = fam.support(t)
    if np.any(x <= lo) or np.any(x >= hi):
        raise DomainError(f"data outside the open support of {fam.name}")
    return np.asarray(fam.score_fn(t, x), dtype=float)


def sample(fam, theta, n: int, seed) -> np.ndarray:
    """n i.i.d. inverse-CDF draws, deterministic for a fixed seed."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return quantile(fam, t, rng.random(n))


def _numeric_quantile(fam: Family, t: tuple, us: np.ndarray) -> np.ndarray:
    """Bracketed bisection of the CDF to relative tolerance 1e-12, vectorized."""
    lo, hi = fam.support(t)
    a = np.full_like(us, lo + 1e-12 if np.isfinite(lo) else -1.0)
    if np.isfinite(hi):
        b = np.full_like(us, hi - 1e-12)
    else:
        b = a + 1.0
        for _ in range(200):
            short = cdf(fam, t, b) <= us
            if not short.any():
                break
            a[short] = b[short]
            b[short] = np.where(b[short] > 0, 2.0 * b[short], b[short] + 1.0)
        else:
            raise SamplingError(f"could not bracket quantiles for {fam.name}")
    for _ in range(120):
        m = 0.5 * (a + b)
        low = cdf(fam, t, m) < us
        a = np.where(low, m, a)
        b = np.where(low, b, m)
        if np.max(b - a) <= 1e-12 * max(1.0, float(np.max(np.abs(b)))):
            break
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Parameter-space checks
# ---------------------------------------------------------------------------

def _pos(*idx):
    def check(t):
        for i in idx:
            if t[i] <= 0.0:
                raise DomainError(f"parameter {i} must be > 0, got {t[i]}")
    check.positive = idx  # searched on the log scale by estimate._generic_ml
    return check


def _check_uniform(t):
    if not t[0] < t[1]:
        raise DomainError(f"uniform needs a < b, got {t}")


_REAL = lambda t: (-math.inf, math.inf)
_POSLINE = lambda t: (0.0, math.inf)
_UNIT = lambda t: (0.0, 1.0)


# ---------------------------------------------------------------------------
# EPD core (shared by epd / laplace / normal / half-epd / log-epd)
# ---------------------------------------------------------------------------

def _epd_lognorm(lam):
    # log of 2*lam^(1/lam-1)*Gamma(1/lam)
    return math.log(2.0) + (1.0 / lam - 1.0) * math.log(lam) + float(specfun.ln_gamma(1.0 / lam))


def _epd_logpdf(t, x):
    lam, mu, sigma = t
    y = np.abs(x - mu) / sigma
    return -np.power(y, lam) / lam - math.log(sigma) - _epd_lognorm(lam)


def _epd_cdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    g = specfun.reg_gamma_cdf(1.0 / lam, 1.0, np.power(np.abs(y), lam) / lam)
    return 0.5 * (1.0 + np.sign(y) * g)


def _epd_quantile(t, u):
    lam, mu, sigma = t
    s = np.sign(u - 0.5)
    g = sp.gammaincinv(1.0 / lam, np.abs(2.0 * u - 1.0))
    return mu + sigma * s * np.power(lam * g, 1.0 / lam)


def _epd_c1(lam):
    return float(specfun.digamma(1.0 / lam + 1.0)) + math.log(lam)


def _epd_c2(lam):
    return math.exp(float(specfun.ln_gamma(1.0 / lam)) - float(specfun.ln_gamma(3.0 / lam))
                    - (2.0 / lam) * math.log(lam))


def _epd_score(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    ay = np.abs(y)
    w = np.power(ay, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        wlogw = np.where(ay > 0.0, w * lam * np.log(ay), 0.0)
    s_lam = (w - wlogw + _epd_c1(lam) - 1.0) / lam ** 2
    s_mu = np.power(ay, lam - 1.0) * np.sign(y) / sigma
    s_sigma = (w - 1.0) / sigma
    return np.vstack([s_lam, s_mu, s_sigma])


_register(Family(
    name="epd",
    param_names=("lambda", "mu", "sigma"),
    check=_pos(0, 2),
    support=_REAL,
    logpdf=_epd_logpdf,
    cdf_fn=_epd_cdf,
    quantile_fn=_epd_quantile,
    score_fn=_epd_score,
    mm=MomentEq("msd", lambda lam: (1.0, _epd_c2(lam)), ("lambda",)),
    shapes=("lambda",),
))

_register(Family(
    name="laplace",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: -np.abs(x - t[0]) / t[1] - math.log(2.0 * t[1]),
    cdf_fn=lambda t, x: (lambda y: 0.5 * (1.0 + np.sign(y) * -np.expm1(-np.abs(y))))(
        (x - t[0]) / t[1]),
    quantile_fn=lambda t, u: np.where(
        u < 0.5, t[0] + t[1] * np.log(2.0 * u), t[0] - t[1] * np.log(2.0 * (1.0 - u))),
    score_fn=lambda t, x: np.vstack([
        np.sign(x - t[0]) / t[1],
        (np.abs(x - t[0]) / t[1] - 1.0) / t[1]]),
    mm=MomentEq("msd", lambda: (1.0, 0.5)),
))

_register(Family(
    name="normal",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: -0.5 * ((x - t[0]) / t[1]) ** 2 - math.log(
        t[1] * math.sqrt(2.0 * math.pi)),
    cdf_fn=lambda t, x: specfun.std_normal_cdf((x - t[0]) / t[1]),
    quantile_fn=lambda t, u: t[0] + t[1] * sp.ndtri(u),
    score_fn=lambda t, x: np.vstack([
        (x - t[0]) / t[1] ** 2,
        (((x - t[0]) / t[1]) ** 2 - 1.0) / t[1]]),
    mm=MomentEq("msd", lambda: (1.0, 1.0)),
))


# ---------------------------------------------------------------------------
# exp-gamma family (log of a gamma variate) and its special case exp-Weibull,
# plus Gumbel
# ---------------------------------------------------------------------------

def _expgamma_logpdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    return lam * y - np.exp(y) - math.log(sigma) - float(specfun.ln_gamma(lam))


def _expgamma_score(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    ey = np.exp(y)
    return np.vstack([
        y - float(specfun.digamma(lam)),
        (ey - lam) / sigma,
        (y * ey - lam * y - 1.0) / sigma])


_register(Family(
    name="exp-gamma",
    param_names=("lambda", "mu", "sigma"),
    check=_pos(0, 2),
    support=_REAL,
    logpdf=_expgamma_logpdf,
    cdf_fn=lambda t, x: specfun.reg_gamma_cdf(t[0], 1.0, np.exp((x - t[1]) / t[2])),
    quantile_fn=lambda t, u: t[1] + t[2] * np.log(sp.gammaincinv(t[0], u)),
    score_fn=_expgamma_score,
    shapes=("lambda",),
))

_register(Family(
    name="exp-weibull",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: _expgamma_logpdf((1.0,) + t, x),
    cdf_fn=lambda t, x: -np.expm1(-np.exp((x - t[0]) / t[1])),
    quantile_fn=lambda t, u: t[0] + t[1] * np.log(-np.log1p(-u)),
    score_fn=lambda t, x: _expgamma_score((1.0,) + t, x)[1:],
))

_register(Family(
    name="gumbel",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: (lambda y: -y - np.exp(-y) - math.log(t[1]))((x - t[0]) / t[1]),
    cdf_fn=lambda t, x: np.exp(-np.exp(-(x - t[0]) / t[1])),
    quantile_fn=lambda t, u: t[0] - t[1] * np.log(-np.log(u)),
    score_fn=lambda t, x: (lambda y, ey: np.vstack([
        (1.0 - ey) / t[1],
        (y - y * ey - 1.0) / t[1]]))((x - t[0]) / t[1], np.exp(-(x - t[0]) / t[1])),
))


# ---------------------------------------------------------------------------
# logistic and Student's t
# ---------------------------------------------------------------------------

_register(Family(
    name="logistic",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: (lambda y: -y - 2.0 * np.log1p(np.exp(-y)) - math.log(t[1]))(
        (x - t[0]) / t[1]),
    cdf_fn=lambda t, x: sp.expit((x - t[0]) / t[1]),
    quantile_fn=lambda t, u: t[0] + t[1] * (np.log(u) - np.log1p(-u)),
    score_fn=lambda t, x: (lambda y, F: np.vstack([
        (2.0 * F - 1.0) / t[1],
        (y * (2.0 * F - 1.0) - 1.0) / t[1]]))(
        (x - t[0]) / t[1], sp.expit((x - t[0]) / t[1])),
    mm=MomentEq("msd", lambda: (1.0, 3.0 / math.pi ** 2)),
))


def _student_logpdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    lnc = (float(specfun.ln_gamma((lam + 1.0) / 2.0)) - float(specfun.ln_gamma(lam / 2.0))
           - 0.5 * math.log(lam * math.pi))
    return lnc - math.log(sigma) - 0.5 * (lam + 1.0) * np.log1p(y ** 2 / lam)


def _student_cdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    # 1 - I_w(lam/2, 1/2) at w = (1 + y^2/lam)^-1, computed without
    # cancellation through the symmetry of the incomplete beta.
    tail = specfun.reg_beta_cdf(0.5, lam / 2.0, y ** 2 / (lam + y ** 2))
    return 0.5 * (1.0 + np.sign(y) * tail)


def _student_quantile(t, u):
    lam, mu, sigma = t
    s = np.sign(u - 0.5)
    w = sp.betaincinv(lam / 2.0, 0.5, 1.0 - np.abs(2.0 * u - 1.0))
    y = np.sqrt(np.maximum(lam * (1.0 / w - 1.0), 0.0))
    return mu + sigma * s * y


def _student_c2(lam):
    """E|T - mu| / sigma, the constant of the Student-t MM (which needs lambda > 2)."""
    if lam <= 2.0:
        raise ConfigurationError("Student-t MM requires lambda > 2")
    return math.sqrt(lam) * math.exp(float(specfun.ln_gamma(0.5 * (lam - 1.0)))
                                     - float(specfun.ln_gamma(0.5 * lam))) / math.sqrt(math.pi)


def _student_score(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    y2 = y ** 2
    s_lam = 0.5 * (float(specfun.digamma((lam + 1.0) / 2.0)) - float(specfun.digamma(lam / 2.0))
                   - 1.0 / lam - np.log1p(y2 / lam) + (lam + 1.0) * y2 / (lam * (lam + y2)))
    s_mu = (lam + 1.0) * y / (sigma * (lam + y2))
    s_sigma = ((lam + 1.0) * y2 / (lam + y2) - 1.0) / sigma
    return np.vstack([s_lam, s_mu, s_sigma])


_register(Family(
    name="student-t",
    param_names=("lambda", "mu", "sigma"),
    check=_pos(0, 2),
    support=_REAL,
    logpdf=_student_logpdf,
    cdf_fn=_student_cdf,
    quantile_fn=_student_quantile,
    score_fn=_student_score,
    mm=MomentEq("mad", lambda lam: (_student_c2(lam), 1.0), ("lambda",)),
    shapes=("lambda",),
))


# ---------------------------------------------------------------------------
# log-delegating families on (0, inf)
# ---------------------------------------------------------------------------

def _log_delegate(base_name: str):
    base = _REGISTRY[base_name]

    def logpdf(t, x):
        lx = np.log(x)
        return base.logpdf(t, lx) - lx

    _register(Family(
        name="log-" + base_name,
        param_names=base.param_names,
        check=base.check,
        support=_POSLINE,
        logpdf=logpdf,
        cdf_fn=lambda t, x: base.cdf_fn(t, np.log(x)),
        quantile_fn=lambda t, u: np.exp(base.quantile_fn(t, u)),
        score_fn=lambda t, x: base.score_fn(t, np.log(x)),
        mm=base.mm,
        shapes=base.shapes,
        base=base,
    ))


for _base_name in ("epd", "laplace", "normal"):
    _log_delegate(_base_name)


# ---------------------------------------------------------------------------
# half-EPD and the generalized gamma block
# ---------------------------------------------------------------------------

def _halfepd_logpdf(t, x):
    lam, sigma = t
    w = x / sigma
    return -np.power(w, lam) / lam - math.log(sigma) - (_epd_lognorm(lam) - math.log(2.0))


def _halfepd_c2(lam):
    return math.exp(float(specfun.ln_gamma(1.0 / lam)) - float(specfun.ln_gamma(2.0 / lam))
                    - math.log(lam) / lam)


def _halfepd_score(t, x):
    lam, sigma = t
    w = x / sigma
    wl = np.power(w, lam)
    logwl = lam * np.log(w)
    return np.vstack([
        (wl - wl * logwl + _epd_c1(lam) - 1.0) / lam ** 2,
        (wl - 1.0) / sigma])


_register(Family(
    name="half-epd",
    param_names=("lambda", "sigma"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=_halfepd_logpdf,
    cdf_fn=lambda t, x: specfun.reg_gamma_cdf(1.0 / t[0], 1.0, np.power(x / t[1], t[0]) / t[0]),
    quantile_fn=lambda t, u: t[1] * np.power(t[0] * sp.gammaincinv(1.0 / t[0], u), 1.0 / t[0]),
    score_fn=_halfepd_score,
    mm=MomentEq("mean", lambda lam: (1.0, _halfepd_c2(lam)), ("lambda",)),
    shapes=("lambda",),
))


def _gg_logpdf(t, x):
    lam, beta, rho = t
    lx = np.log(x / beta)
    return (math.log(rho) - np.log(x) + lam * rho * lx - np.exp(rho * lx)
            - float(specfun.ln_gamma(lam)))


def _gg_score(t, x):
    lam, beta, rho = t
    lx = np.log(x / beta)
    w = np.exp(rho * lx)
    return np.vstack([
        rho * lx - float(specfun.digamma(lam)),
        (rho / beta) * (w - lam),
        1.0 / rho - (w - lam) * lx])


_register(Family(
    name="gg",
    param_names=("lambda", "beta", "rho"),
    check=_pos(0, 1, 2),
    support=_POSLINE,
    logpdf=_gg_logpdf,
    cdf_fn=lambda t, x: specfun.reg_gamma_cdf(t[0], 1.0, np.power(x / t[1], t[2])),
    quantile_fn=lambda t, u: t[1] * np.power(sp.gammaincinv(t[0], u), 1.0 / t[2]),
    score_fn=_gg_score,
    shapes=("lambda",),
))

_register(Family(
    name="weibull",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: _gg_logpdf((1.0,) + t, x),
    cdf_fn=lambda t, x: -np.expm1(-np.power(x / t[0], t[1])),
    quantile_fn=lambda t, u: t[0] * np.power(-np.log1p(-u), 1.0 / t[1]),
    score_fn=lambda t, x: _gg_score((1.0,) + t, x)[1:],
))

_register(Family(
    name="frechet",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: (lambda w: math.log(t[1]) - np.log(x) + np.log(w) - w)(
        np.power(x / t[0], -t[1])),
    cdf_fn=lambda t, x: np.exp(-np.power(x / t[0], -t[1])),
    quantile_fn=lambda t, u: t[0] * np.power(-np.log(u), -1.0 / t[1]),
    score_fn=lambda t, x: (lambda w, lx: np.vstack([
        (t[1] / t[0]) * (1.0 - w),
        1.0 / t[1] - (1.0 - w) * lx]))(np.power(x / t[0], -t[1]), np.log(x / t[0])),
))

_register(Family(
    name="gompertz",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: math.log(t[0] * t[1]) + t[1] + t[0] * x - t[1] * np.exp(t[0] * x),
    cdf_fn=lambda t, x: -np.expm1(-t[1] * np.expm1(t[0] * x)),
    quantile_fn=lambda t, u: np.log1p(-np.log1p(-u) / t[1]) / t[0],
    score_fn=lambda t, x: (lambda e: np.vstack([
        1.0 / t[0] + x - t[1] * x * e,
        1.0 / t[1] + 1.0 - e]))(np.exp(t[0] * x)),
    shapes=("rho",),
))

_register(Family(
    name="log-logistic",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: (lambda lw: math.log(t[1]) - np.log(x) + lw - 2.0 * np.log1p(np.exp(lw)))(
        t[1] * np.log(x / t[0])),
    cdf_fn=lambda t, x: sp.expit(t[1] * np.log(x / t[0])),
    quantile_fn=lambda t, u: t[0] * np.power(u / (1.0 - u), 1.0 / t[1]),
    score_fn=lambda t, x: (lambda lx, F: np.vstack([
        (t[1] / t[0]) * (2.0 * F - 1.0),
        1.0 / t[1] + lx * (1.0 - 2.0 * F)]))(
        np.log(x / t[0]), sp.expit(t[1] * np.log(x / t[0]))),
    # logistic on ln x, with beta = e^mu and rho = 1/sigma
    mm=MomentEq("msd", lambda: (1.0, 3.0 / math.pi ** 2),
                log=(lambda t: (np.log(t[0]), 1.0 / t[1]), lambda t: (np.exp(t[0]), 1.0 / t[1]))),
))


# ---------------------------------------------------------------------------
# gamma-type families on (0, inf)
# ---------------------------------------------------------------------------

_register(Family(
    name="gamma",
    param_names=("lambda", "beta"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: ((t[0] - 1.0) * np.log(x) - x / t[1]
                         - float(specfun.ln_gamma(t[0])) - t[0] * math.log(t[1])),
    cdf_fn=lambda t, x: specfun.reg_gamma_cdf(t[0], t[1], x),
    quantile_fn=lambda t, u: t[1] * sp.gammaincinv(t[0], u),
    score_fn=lambda t, x: np.vstack([
        np.log(x / t[1]) - float(specfun.digamma(t[0])),
        (x / t[1] - t[0]) / t[1]]),
    shapes=("lambda",),
))

_register(Family(
    name="inverse-gamma",
    param_names=("lambda", "beta"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: (t[0] * math.log(t[1]) - (t[0] + 1.0) * np.log(x) - t[1] / x
                         - float(specfun.ln_gamma(t[0]))),
    cdf_fn=lambda t, x: 1.0 - specfun.reg_gamma_cdf(t[0], 1.0, t[1] / x),
    quantile_fn=lambda t, u: t[1] / sp.gammaincinv(t[0], 1.0 - u),
    score_fn=lambda t, x: np.vstack([
        np.log(t[1] / x) - float(specfun.digamma(t[0])),
        t[0] / t[1] - 1.0 / x]),
    shapes=("lambda",),
))


def _betaprime_logpdf(t, x):
    a, b = t
    lnB = float(specfun.ln_gamma(a) + specfun.ln_gamma(b) - specfun.ln_gamma(a + b))
    return (a - 1.0) * np.log(x) - (a + b) * np.log1p(x) - lnB


_register(Family(
    name="beta-prime",
    param_names=("alpha", "beta"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=_betaprime_logpdf,
    cdf_fn=lambda t, x: specfun.reg_beta_cdf(t[0], t[1], x / (1.0 + x)),
    quantile_fn=lambda t, u: (lambda w: w / (1.0 - w))(sp.betaincinv(t[0], t[1], u)),
    score_fn=lambda t, x: (lambda psum: np.vstack([
        psum - float(specfun.digamma(t[0])) + np.log(x) - np.log1p(x),
        psum - float(specfun.digamma(t[1])) - np.log1p(x)]))(
        float(specfun.digamma(t[0] + t[1]))),
    shapes=("alpha", "beta"),
))

_register(Family(
    name="lomax",
    param_names=("alpha", "sigma"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: math.log(t[0] / t[1]) - (t[0] + 1.0) * np.log1p(x / t[1]),
    cdf_fn=lambda t, x: -np.expm1(-t[0] * np.log1p(x / t[1])),
    quantile_fn=lambda t, u: t[1] * np.expm1(-np.log1p(-u) / t[0]),
    score_fn=lambda t, x: (lambda w: np.vstack([
        1.0 / t[0] - np.log1p(w),
        ((t[0] + 1.0) * w / (1.0 + w) - 1.0) / t[1]]))(x / t[1]),
    shapes=("alpha",),
))

_register(Family(
    name="nakagami",
    param_names=("lambda", "omega"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: (math.log(2.0) - float(specfun.ln_gamma(t[0]))
                         + t[0] * math.log(t[0] / t[1]) + (2.0 * t[0] - 1.0) * np.log(x)
                         - t[0] * x ** 2 / t[1]),
    cdf_fn=lambda t, x: specfun.reg_gamma_cdf(t[0], 1.0, t[0] * x ** 2 / t[1]),
    quantile_fn=lambda t, u: np.sqrt(t[1] * sp.gammaincinv(t[0], u) / t[0]),
    score_fn=lambda t, x: np.vstack([
        math.log(t[0] / t[1]) + 1.0 - float(specfun.digamma(t[0]))
        + np.log(x ** 2) - x ** 2 / t[1],
        (t[0] / t[1]) * (x ** 2 / t[1] - 1.0)]),
    shapes=("lambda",),
))


def _ig_cdf_fn(t, x):
    mu, lam = t
    s = np.sqrt(lam / x)
    # exp(2 lam/mu) * Phi(-s(x/mu+1)) in log space to survive large lam/mu
    tail = np.exp(2.0 * lam / mu + specfun.ln_std_normal_cdf(-s * (x / mu + 1.0)))
    return specfun.std_normal_cdf(s * (x / mu - 1.0)) + tail


_register(Family(
    name="inverse-gaussian",
    param_names=("mu", "lambda"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: (0.5 * math.log(t[1] / (2.0 * math.pi)) - 1.5 * np.log(x)
                         - t[1] * (x - t[0]) ** 2 / (2.0 * t[0] ** 2 * x)),
    cdf_fn=_ig_cdf_fn,
    quantile_fn=None,
    score_fn=lambda t, x: np.vstack([
        t[1] * (x - t[0]) / t[0] ** 3,
        0.5 / t[1] - (x - t[0]) ** 2 / (2.0 * t[0] ** 2 * x)]),
    shapes=("mu", "lambda"),  # through lambda / mu
))


# ---------------------------------------------------------------------------
# one-parameter families on (0, inf)
# ---------------------------------------------------------------------------

_register(Family(
    name="exponential",
    param_names=("beta",),
    check=_pos(0),
    support=_POSLINE,
    logpdf=lambda t, x: -x / t[0] - math.log(t[0]),
    cdf_fn=lambda t, x: -np.expm1(-x / t[0]),
    quantile_fn=lambda t, u: -t[0] * np.log1p(-u),
    score_fn=lambda t, x: (x / t[0] - 1.0)[None, :] / t[0],
    mm=MomentEq("mean", lambda: (1.0, 1.0)),
))

_register(Family(
    name="half-normal",
    param_names=("delta",),
    check=_pos(0),
    support=_POSLINE,
    logpdf=lambda t, x: (0.5 * math.log(2.0 / math.pi) - math.log(t[0])
                         - 0.5 * (x / t[0]) ** 2),
    cdf_fn=lambda t, x: 2.0 * specfun.std_normal_cdf(x / t[0]) - 1.0,
    quantile_fn=lambda t, u: t[0] * sp.ndtri(0.5 * (1.0 + u)),
    score_fn=lambda t, x: ((x / t[0]) ** 2 - 1.0)[None, :] / t[0],
    mm=MomentEq("mean", lambda: (1.0, math.sqrt(math.pi / 2.0))),
))

_register(Family(
    name="rayleigh",
    param_names=("delta",),
    check=_pos(0),
    support=_POSLINE,
    logpdf=lambda t, x: np.log(x) - 2.0 * math.log(t[0]) - 0.5 * (x / t[0]) ** 2,
    cdf_fn=lambda t, x: -np.expm1(-0.5 * (x / t[0]) ** 2),
    quantile_fn=lambda t, u: t[0] * np.sqrt(-2.0 * np.log1p(-u)),
    score_fn=lambda t, x: ((x / t[0]) ** 2 - 2.0)[None, :] / t[0],
    mm=MomentEq("mean", lambda: (1.0, math.sqrt(2.0 / math.pi))),
))

_register(Family(
    name="maxwell-boltzmann",
    param_names=("delta",),
    check=_pos(0),
    support=_POSLINE,
    logpdf=lambda t, x: (0.5 * math.log(2.0 / math.pi) + 2.0 * np.log(x)
                         - 3.0 * math.log(t[0]) - 0.5 * (x / t[0]) ** 2),
    cdf_fn=lambda t, x: specfun.reg_gamma_cdf(1.5, 1.0, 0.5 * (x / t[0]) ** 2),
    quantile_fn=lambda t, u: t[0] * np.sqrt(2.0 * sp.gammaincinv(1.5, u)),
    score_fn=lambda t, x: ((x / t[0]) ** 2 - 3.0)[None, :] / t[0],
    mm=MomentEq("mean", lambda: (1.0, math.sqrt(math.pi / 8.0))),
))

_register(Family(
    name="chi-squared",
    param_names=("k",),
    check=_pos(0),
    support=_POSLINE,
    logpdf=lambda t, x: ((0.5 * t[0] - 1.0) * np.log(x) - 0.5 * x
                         - float(specfun.ln_gamma(0.5 * t[0])) - 0.5 * t[0] * math.log(2.0)),
    cdf_fn=lambda t, x: specfun.reg_gamma_cdf(0.5 * t[0], 1.0, 0.5 * x),
    quantile_fn=lambda t, u: 2.0 * sp.gammaincinv(0.5 * t[0], u),
    score_fn=lambda t, x: 0.5 * (np.log(0.5 * x) - float(specfun.digamma(0.5 * t[0])))[None, :],
    mm=MomentEq("mean", lambda: (1.0, 1.0)),
    shapes=("k",),
))


# ---------------------------------------------------------------------------
# Pareto on (1, inf); beta and Kumaraswamy on (0, 1); uniform on (a, b)
# ---------------------------------------------------------------------------

_register(Family(
    name="pareto",
    param_names=("alpha",),
    check=_pos(0),
    support=lambda t: (1.0, math.inf),
    logpdf=lambda t, x: math.log(t[0]) - (t[0] + 1.0) * np.log(x),
    cdf_fn=lambda t, x: -np.expm1(-t[0] * np.log(x)),
    quantile_fn=lambda t, u: np.exp(-np.log1p(-u) / t[0]),
    score_fn=lambda t, x: (1.0 / t[0] - np.log(x))[None, :],
))


def _beta_logpdf(t, x):
    a, b = t
    lnB = float(specfun.ln_gamma(a) + specfun.ln_gamma(b) - specfun.ln_gamma(a + b))
    return (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - lnB


_register(Family(
    name="beta",
    param_names=("alpha", "beta"),
    check=_pos(0, 1),
    support=_UNIT,
    logpdf=_beta_logpdf,
    cdf_fn=lambda t, x: specfun.reg_beta_cdf(t[0], t[1], x),
    quantile_fn=lambda t, u: sp.betaincinv(t[0], t[1], u),
    score_fn=lambda t, x: (lambda psum: np.vstack([
        psum - float(specfun.digamma(t[0])) + np.log(x),
        psum - float(specfun.digamma(t[1])) + np.log1p(-x)]))(
        float(specfun.digamma(t[0] + t[1]))),
    shapes=("alpha", "beta"),
))

_register(Family(
    name="kumaraswamy",
    param_names=("alpha", "beta"),
    check=_pos(0, 1),
    support=_UNIT,
    logpdf=lambda t, x: (math.log(t[0] * t[1]) + (t[0] - 1.0) * np.log(x)
                         + (t[1] - 1.0) * np.log1p(-np.power(x, t[0]))),
    cdf_fn=lambda t, x: -np.expm1(t[1] * np.log1p(-np.power(x, t[0]))),
    quantile_fn=lambda t, u: np.power(-np.expm1(np.log1p(-u) / t[1]), 1.0 / t[0]),
    score_fn=lambda t, x: (lambda xa, lx: np.vstack([
        1.0 / t[0] + lx - (t[1] - 1.0) * xa * lx / (1.0 - xa),
        1.0 / t[1] + np.log1p(-xa)]))(np.power(x, t[0]), np.log(x)),
    shapes=("beta",),
))

_register(Family(
    name="uniform",
    param_names=("a", "b"),
    check=_check_uniform,
    support=lambda t: (t[0], t[1]),
    logpdf=lambda t, x: np.full_like(x, -math.log(t[1] - t[0])),
    cdf_fn=lambda t, x: (x - t[0]) / (t[1] - t[0]),
    quantile_fn=lambda t, u: t[0] + (t[1] - t[0]) * u,
    score_fn=None,
))


# ---------------------------------------------------------------------------
# Asymmetric power distribution (local-alternative sampling)
# ---------------------------------------------------------------------------

def _apd_check(lam, alpha, rho, mu, sigma):
    if not (lam > 0 and rho > 0 and sigma > 0 and 0.0 < alpha < 1.0):
        raise DomainError("APD needs lam, rho, sigma > 0 and alpha in (0, 1)")


def _apd_delta(alpha, rho):
    return 2.0 * alpha ** rho * (1.0 - alpha) ** rho / (alpha ** rho + (1.0 - alpha) ** rho)


def apd_pdf(x, lam, alpha, rho, mu, sigma):
    """Density of the asymmetric power distribution."""
    _apd_check(lam, alpha, rho, mu, sigma)
    x = np.asarray(x, dtype=float)
    y = (x - mu) / sigma
    delta = _apd_delta(alpha, rho)
    a_side = np.where(y < 0, alpha ** rho, (1.0 - alpha) ** rho)
    a_side = np.where(y == 0, 0.5 ** rho, a_side)
    lognorm = (math.log(rho) + math.log(delta / lam) / rho
               - math.log(sigma) - float(specfun.ln_gamma(1.0 / rho)))
    return np.exp(lognorm - (delta / (lam * a_side)) * np.abs(y) ** rho)


def apd_cdf(x, lam, alpha, rho, mu, sigma):
    """CDF of the asymmetric power distribution (closed form)."""
    _apd_check(lam, alpha, rho, mu, sigma)
    x = np.asarray(x, dtype=float)
    y = (x - mu) / sigma
    delta = _apd_delta(alpha, rho)
    neg = y < 0
    out = np.empty_like(y)
    gy = np.abs(y) ** rho * delta / lam
    out[neg] = alpha * (1.0 - specfun.reg_gamma_cdf(
        1.0 / rho, 1.0, gy[neg] / alpha ** rho))
    pos = ~neg
    out[pos] = alpha + (1.0 - alpha) * specfun.reg_gamma_cdf(
        1.0 / rho, 1.0, gy[pos] / (1.0 - alpha) ** rho)
    return out


def sample_apd(lam, alpha, rho, mu, sigma, n: int, seed) -> np.ndarray:
    """n i.i.d. draws from APD(lam, alpha, rho, mu, sigma).

    Uses the exact mixture representation: the sign is negative with
    probability alpha, and |Y| / side-scale transforms to a gamma(1/rho)
    variate, inverted in closed form.
    """
    _apd_check(lam, alpha, rho, mu, sigma)
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random(n), _TINY_U, 1.0 - _TINY_U)
    delta = _apd_delta(alpha, rho)
    neg = u < alpha
    v = np.empty(n)
    # conditional PIT within each side keeps the draw a pure inverse-CDF map
    v[neg] = 1.0 - u[neg] / alpha
    v[~neg] = (u[~neg] - alpha) / (1.0 - alpha)
    g = sp.gammaincinv(1.0 / rho, v)
    scale = np.where(neg, -alpha, 1.0 - alpha)
    y = scale * np.power(lam * g / delta, 1.0 / rho)
    return mu + sigma * y
