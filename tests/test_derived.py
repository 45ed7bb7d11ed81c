import math

import numpy as np
import pytest
from scipy import special as sp
from scipy.special import logsumexp

from trigof import estimate as E
from trigof import families as F
from trigof import scaling
from trigof.estimate import KnownMask, fit
from conftest import FAMILY_THETAS, known_mask, known_names
import former_estimate as FE
from former_scaling import h as _h, logistic_constants

_EG = np.euler_gamma
_PI2_6 = math.pi ** 2 / 6.0


def _psi(z):
    return float(sp.digamma(z))


def _psi1(z):
    return float(sp.polygamma(1, z))


def _logi():
    return logistic_constants()


# ---------------------------------------------------------------------------
# Reference: the per-family matrix builders that the derived declarations
# replaced, as they were.  Each returns (G, R, J or None); None means J = G.
# ---------------------------------------------------------------------------

def _former_expweibull_ml(t):
    mu, sigma_ = t
    G = np.array([
        [_h(6, 1.0, 2.0, 1.0), _h(8, 1.0)],
        [_h(7, 1.0, 2.0, 1.0), _h(9, 1.0)],
    ]) / sigma_
    R = np.array([
        [1.0, 1.0 - _EG],
        [1.0 - _EG, (_EG - 1.0) ** 2 + _PI2_6],
    ]) / sigma_ ** 2
    return G, R, None


def _former_gumbel_ml(t):
    mu, sigma_ = t
    G = np.array([
        [-_h(6, 1.0, 2.0, 1.0), _h(8, 1.0)],
        [_h(7, 1.0, 2.0, 1.0), -_h(9, 1.0)],
    ]) / sigma_
    R = np.array([
        [1.0, _EG - 1.0],
        [_EG - 1.0, (_EG - 1.0) ** 2 + _PI2_6],
    ]) / sigma_ ** 2
    return G, R, None


def _former_gg_ml(t):
    lam, beta, rho = t
    h6 = _h(6, lam, lam + 1.0, 1.0)
    h7 = _h(7, lam, lam + 1.0, 1.0)
    G = np.array([
        [_h(10, lam), rho * lam * h6 / beta, -_h(8, lam) / rho],
        [_h(11, lam), rho * lam * h7 / beta, -_h(9, lam) / rho],
    ])
    ps = _psi(lam)
    R = np.array([
        [_psi1(lam), rho / beta, -ps / rho],
        [rho / beta, rho ** 2 * lam / beta ** 2, -(lam * ps + 1.0) / beta],
        [-ps / rho, -(lam * ps + 1.0) / beta,
         (lam * ps ** 2 + 2.0 * ps + lam * _psi1(lam) + 1.0) / rho ** 2],
    ])
    return G, R, None


def _former_frechet_ml(t):
    beta, rho = t
    G = np.array([
        [-rho * _h(6, 1.0, 2.0, 1.0) / beta, -_h(8, 1.0) / rho],
        [rho * _h(7, 1.0, 2.0, 1.0) / beta, _h(9, 1.0) / rho],
    ])
    R = np.array([
        [rho ** 2 / beta ** 2, (1.0 - _EG) / beta],
        [(1.0 - _EG) / beta, ((_EG - 1.0) ** 2 + _PI2_6) / rho ** 2],
    ])
    return G, R, None


def _former_loglogistic_ml(t):
    beta, rho = t
    c_cos, c_sin, _, _ = _logi()
    G = np.array([
        [0.0, -c_cos / rho],
        [c_sin * rho / beta, 0.0],
    ])
    R = np.diag([rho ** 2 / (3.0 * beta ** 2), (3.0 + math.pi ** 2) / (9.0 * rho ** 2)])
    return G, R, None


def _former_loglogistic_mm(t):
    beta, rho = t
    c_cos, c_sin, m_cos, m_sin = _logi()
    G = np.array([[0.0, -c_cos / rho], [c_sin * rho / beta, 0.0]])
    J = np.array([[0.0, -m_cos / rho], [m_sin * rho / beta, 0.0]])
    R = np.diag([3.0 * rho ** 2 / (beta ** 2 * math.pi ** 2), 1.25 / rho ** 2])
    return G, R, J


def _former_invgamma_ml(t):
    lam, beta = t
    G = np.array([
        [_h(10, lam), -lam * _h(6, lam, lam + 1.0, 1.0) / beta],
        [-_h(11, lam), lam * _h(7, lam, lam + 1.0, 1.0) / beta],
    ])
    R = np.array([[_psi1(lam), -1.0 / beta], [-1.0 / beta, lam / beta ** 2]])
    return G, R, None


def _former_betaprime_ml(t):
    a, b = t
    G = np.array([
        [_h(25, a, b), _h(27, a, b)],
        [_h(26, a, b), _h(28, a, b)],
    ])
    tab = _psi1(a + b)
    R = np.array([[_psi1(a) - tab, -tab], [-tab, _psi1(b) - tab]])
    return G, R, None


def _former_exponential(t):
    beta, = t
    G = np.array([[_h(6, 1.0, 2.0, 1.0)], [_h(7, 1.0, 2.0, 1.0)]]) / beta
    R = np.array([[1.0 / beta ** 2]])
    return G, R, None


def _former_halfnormal_ml(t):
    d, = t
    G = np.array([[_h(6, 0.5, 1.5, 1.0)], [_h(7, 0.5, 1.5, 1.0)]]) / d
    R = np.array([[2.0 / d ** 2]])
    return G, R, None


def _former_halfnormal_mm(t):
    d, = t
    G, _, _ = _former_halfnormal_ml(t)
    c = math.pi / 2.0 - 1.0
    J = np.array([[_h(6, 0.5, 1.0, 1.0)], [_h(7, 0.5, 1.0, 1.0)]]) / (c * d)
    R = np.array([[1.0 / (c * d ** 2)]])
    return G, R, J


def _former_rayleigh_ml(t):
    d, = t
    G = 2.0 * np.array([[_h(6, 1.0, 2.0, 1.0)], [_h(7, 1.0, 2.0, 1.0)]]) / d
    R = np.array([[4.0 / d ** 2]])
    return G, R, None


def _former_rayleigh_mm(t):
    d, = t
    G, _, _ = _former_rayleigh_ml(t)
    c = 4.0 / math.pi - 1.0
    J = np.array([[_h(6, 1.0, 1.5, 1.0)], [_h(7, 1.0, 1.5, 1.0)]]) / (c * d)
    R = np.array([[1.0 / (c * d ** 2)]])
    return G, R, J


def _former_maxwell_ml(t):
    d, = t
    G = 3.0 * np.array([[_h(6, 1.5, 2.5, 1.0)], [_h(7, 1.5, 2.5, 1.0)]]) / d
    R = np.array([[6.0 / d ** 2]])
    return G, R, None


def _former_maxwell_mm(t):
    d, = t
    G, _, _ = _former_maxwell_ml(t)
    c = 3.0 * math.pi / 8.0 - 1.0
    J = np.array([[_h(6, 1.5, 2.0, 1.0)], [_h(7, 1.5, 2.0, 1.0)]]) / (c * d)
    R = np.array([[1.0 / (c * d ** 2)]])
    return G, R, J


def _former_chi2_ml(t):
    k, = t
    G = 0.5 * np.array([[_h(10, 0.5 * k)], [_h(11, 0.5 * k)]])
    R = np.array([[0.25 * _psi1(0.5 * k)]])
    return G, R, None


def _former_chi2_mm(t):
    k, = t
    G, _, _ = _former_chi2_ml(t)
    J = 0.5 * np.array([[_h(6, 0.5 * k, 0.5 * k + 1.0, 1.0)],
                        [_h(7, 0.5 * k, 0.5 * k + 1.0, 1.0)]])
    R = np.array([[0.5 / k]])
    return G, R, J


def _former_pareto_ml(t):
    a, = t
    G = -np.array([[_h(6, 1.0, 2.0, 1.0)], [_h(7, 1.0, 2.0, 1.0)]]) / a
    R = np.array([[1.0 / a ** 2]])
    return G, R, None


def _former_matrices(name, kind, t):
    """G, R, J of a derived row from its former builder; a log family had its
    base's."""
    fam = F.get_family(name)
    if name.startswith("log-") and name != "log-logistic":
        ms = scaling.matrices(fam.derived.base, kind, t)
        return ms.G, ms.R, ms.J
    key = {"maxwell-boltzmann": "maxwell", "chi-squared": "chi2", "half-normal": "halfnormal",
           "log-logistic": "loglogistic", "inverse-gamma": "invgamma", "beta-prime": "betaprime",
           "exp-weibull": "expweibull"}.get(name, name)
    builder = globals().get(f"_former_{key}_{kind}") or globals()[f"_former_{key}"]
    G, R, J = builder(t)
    return G, R, G if J is None else J


# ---------------------------------------------------------------------------
# Reference: the per-family ML fitters (and closed forms) that the derived
# declarations replaced.  None sends the row to the generic likelihood
# maximization, started from the family's all-free fit.
# ---------------------------------------------------------------------------

def _former_fit_expweibull(fam, x, mask):
    if mask.n_known:
        return None
    n = len(x)
    xbar = float(np.mean(x))

    def phi(sigma):
        return FE._wmean_exp(x, x / sigma) - xbar - sigma

    sigma, iters, conv = FE._scan_root(phi, scale=float(np.std(x)))
    return (sigma * (float(logsumexp(x / sigma)) - math.log(n)), sigma), iters, conv


def _former_fit_gumbel(fam, x, mask):
    if mask.n_known:
        return None
    n = len(x)
    xbar = float(np.mean(x))

    def phi(sigma):
        return xbar - FE._wmean_exp(x, -x / sigma) - sigma

    sigma, iters, conv = FE._scan_root(phi, scale=float(np.std(x)))
    return (-sigma * (float(logsumexp(-x / sigma)) - math.log(n)), sigma), iters, conv


def _former_fit_gg(fam, x, mask):
    if mask.n_known:
        return None
    (lam, mu, sigma), iters, conv = FE._fit_expgamma(F.get_family("exp-gamma"), np.log(x),
                                                    KnownMask.none(3))
    return (lam, math.exp(mu), 1.0 / sigma), iters, conv


def _former_fit_loglogistic(fam, x, mask):
    if mask.n_known:
        return None
    (mu, sigma), iters, conv = FE._fit_logistic(F.get_family("logistic"), np.log(x),
                                               KnownMask.none(2))
    return (math.exp(mu), 1.0 / sigma), iters, conv


def _former_fit_frechet(fam, x, mask):
    if mask.n_known:
        return None
    (beta_w, rho), iters, conv = FE._fit_weibull(F.get_family("weibull"), 1.0 / x,
                                                KnownMask.none(2))
    return (1.0 / beta_w, rho), iters, conv


def _former_fit_invgamma(fam, x, mask):
    if mask.is_known(fam, "beta"):
        beta = mask.value(fam, "beta")
        lam, iters, conv = FE._solve_digamma(math.log(beta) - float(np.mean(np.log(x))))
        return (lam, beta), iters, conv
    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        return (lam, lam / float(np.mean(1.0 / x))), 1, True
    (lam, beta_g), iters, conv = FE._fit_gamma(F.get_family("gamma"), 1.0 / x, KnownMask.none(2))
    return (lam, 1.0 / beta_g), iters, conv


def _former_fit_betaprime(fam, x, mask):
    if mask.n_known:
        return None
    v = x / (1.0 + x)
    m, var = float(np.mean(v)), max(float(np.var(v)), 1e-12)
    c = m * (1.0 - m) / var - 1.0
    a, b, iters, conv = FE._beta_ml_system(float(np.mean(np.log(v))),
                                          float(np.mean(np.log1p(-v))),
                                          max(m * c, 1e-2), max((1.0 - m) * c, 1e-2))
    return (a, b), iters, conv


def _former_fit_chi2(fam, x, mask):
    z, iters, conv = FE._solve_digamma(float(np.mean(np.log(0.5 * x))))
    return (2.0 * z,), iters, conv


def _closed(rows):
    return lambda fam, x, mask: ((float(rows(x[None, :])[0]),), 1, True)


_FORMER_FITTERS = {
    "exp-weibull": _former_fit_expweibull,
    "gumbel": _former_fit_gumbel,
    "gg": _former_fit_gg,
    "log-logistic": _former_fit_loglogistic,
    "frechet": _former_fit_frechet,
    "inverse-gamma": _former_fit_invgamma,
    "beta-prime": _former_fit_betaprime,
    "chi-squared": _former_fit_chi2,
    "exponential": _closed(lambda X: X.mean(axis=1)),
    "half-normal": _closed(lambda X: np.sqrt((X ** 2).mean(axis=1))),
    "rayleigh": _closed(lambda X: np.sqrt(0.5 * (X ** 2).mean(axis=1))),
    "maxwell-boltzmann": _closed(lambda X: np.sqrt((X ** 2).mean(axis=1) / 3.0)),
    "pareto": _closed(lambda X: 1.0 / np.log(X).mean(axis=1)),
}


def _former_fit(name, x, mask, monkeypatch):
    """theta of the former fit: the former fitter, or the generic likelihood
    maximization started from the former all-free fit where it had none."""
    fam = F.get_family(name)
    mask = mask or KnownMask.none(fam.n_params)
    out = _FORMER_FITTERS[name](fam, x, mask)
    if out is None:
        with monkeypatch.context() as m:
            m.setattr(FE, "_dedicated", lambda f, x, mask: _FORMER_FITTERS[f.name](f, x, mask))
            out = FE._generic_ml(fam, x, mask)
    return np.array(out[0], dtype=float)


# ---------------------------------------------------------------------------
# Reference: the closed-form density, CDF, quantile and score that the
# derived families carried before their declarations supplied them, as they
# were: {family: (logpdf, cdf_fn, quantile_fn, score_fn)}.
# ---------------------------------------------------------------------------

def _former_gg_logpdf(t, x):
    lam, beta, rho = t
    lx = np.log(x / beta)
    return (math.log(rho) - np.log(x) + lam * rho * lx - np.exp(rho * lx)
            - float(sp.gammaln(lam)))


def _former_gg_score(t, x):
    lam, beta, rho = t
    lx = np.log(x / beta)
    w = np.exp(rho * lx)
    return np.vstack([
        rho * lx - float(sp.digamma(lam)),
        (rho / beta) * (w - lam),
        1.0 / rho - (w - lam) * lx])


def _former_log(base_name):
    base = F.get_family(base_name)
    return (lambda t, x: base.logpdf(t, np.log(x)) - np.log(x),
            lambda t, x: base.cdf_fn(t, np.log(x)),
            lambda t, u: np.exp(base.quantile_fn(t, u)),
            lambda t, x: base.score_fn(t, np.log(x)))


def _lnB(a, b):
    return float(sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b))


_FORMER_CALLABLES = {
    "exp-weibull": (
        lambda t, x: F.get_family("exp-gamma").logpdf((1.0,) + t, x),
        lambda t, x: -np.expm1(-np.exp((x - t[0]) / t[1])),
        lambda t, u: t[0] + t[1] * np.log(-np.log1p(-u)),
        lambda t, x: F.get_family("exp-gamma").score_fn((1.0,) + t, x)[1:]),
    "gumbel": (
        lambda t, x: (lambda y: -y - np.exp(-y) - math.log(t[1]))((x - t[0]) / t[1]),
        lambda t, x: np.exp(-np.exp(-(x - t[0]) / t[1])),
        lambda t, u: t[0] - t[1] * np.log(-np.log(u)),
        lambda t, x: (lambda y, ey: np.vstack([
            (1.0 - ey) / t[1],
            (y - y * ey - 1.0) / t[1]]))((x - t[0]) / t[1], np.exp(-(x - t[0]) / t[1]))),
    "log-epd": _former_log("epd"),
    "log-laplace": _former_log("laplace"),
    "log-normal": _former_log("normal"),
    "gg": (
        _former_gg_logpdf,
        lambda t, x: sp.gammainc(t[0], np.power(x / t[1], t[2])),
        lambda t, u: t[1] * np.power(sp.gammaincinv(t[0], u), 1.0 / t[2]),
        _former_gg_score),
    "weibull": (
        lambda t, x: _former_gg_logpdf((1.0,) + t, x),
        lambda t, x: -np.expm1(-np.power(x / t[0], t[1])),
        lambda t, u: t[0] * np.power(-np.log1p(-u), 1.0 / t[1]),
        lambda t, x: _former_gg_score((1.0,) + t, x)[1:]),
    "frechet": (
        lambda t, x: (lambda w: math.log(t[1]) - np.log(x) + np.log(w) - w)(
            np.power(x / t[0], -t[1])),
        lambda t, x: np.exp(-np.power(x / t[0], -t[1])),
        lambda t, u: t[0] * np.power(-np.log(u), -1.0 / t[1]),
        lambda t, x: (lambda w, lx: np.vstack([
            (t[1] / t[0]) * (1.0 - w),
            1.0 / t[1] - (1.0 - w) * lx]))(np.power(x / t[0], -t[1]), np.log(x / t[0]))),
    "log-logistic": (
        lambda t, x: (lambda lw: math.log(t[1]) - np.log(x) + lw - 2.0 * np.log1p(np.exp(lw)))(
            t[1] * np.log(x / t[0])),
        lambda t, x: sp.expit(t[1] * np.log(x / t[0])),
        lambda t, u: t[0] * np.power(u / (1.0 - u), 1.0 / t[1]),
        lambda t, x: (lambda lx, Fx: np.vstack([
            (t[1] / t[0]) * (2.0 * Fx - 1.0),
            1.0 / t[1] + lx * (1.0 - 2.0 * Fx)]))(
            np.log(x / t[0]), sp.expit(t[1] * np.log(x / t[0])))),
    "inverse-gamma": (
        lambda t, x: (t[0] * math.log(t[1]) - (t[0] + 1.0) * np.log(x) - t[1] / x
                      - float(sp.gammaln(t[0]))),
        lambda t, x: 1.0 - sp.gammainc(t[0], t[1] / x),
        lambda t, u: t[1] / sp.gammaincinv(t[0], 1.0 - u),
        lambda t, x: np.vstack([
            np.log(t[1] / x) - float(sp.digamma(t[0])),
            t[0] / t[1] - 1.0 / x])),
    "exponential": (
        lambda t, x: -x / t[0] - math.log(t[0]),
        lambda t, x: -np.expm1(-x / t[0]),
        lambda t, u: -t[0] * np.log1p(-u),
        lambda t, x: (x / t[0] - 1.0)[None, :] / t[0]),
    "half-normal": (
        lambda t, x: 0.5 * math.log(2.0 / math.pi) - math.log(t[0]) - 0.5 * (x / t[0]) ** 2,
        lambda t, x: 2.0 * sp.ndtr(x / t[0]) - 1.0,
        lambda t, u: t[0] * sp.ndtri(0.5 * (1.0 + u)),
        lambda t, x: ((x / t[0]) ** 2 - 1.0)[None, :] / t[0]),
    "rayleigh": (
        lambda t, x: np.log(x) - 2.0 * math.log(t[0]) - 0.5 * (x / t[0]) ** 2,
        lambda t, x: -np.expm1(-0.5 * (x / t[0]) ** 2),
        lambda t, u: t[0] * np.sqrt(-2.0 * np.log1p(-u)),
        lambda t, x: ((x / t[0]) ** 2 - 2.0)[None, :] / t[0]),
    "maxwell-boltzmann": (
        lambda t, x: (0.5 * math.log(2.0 / math.pi) + 2.0 * np.log(x)
                      - 3.0 * math.log(t[0]) - 0.5 * (x / t[0]) ** 2),
        lambda t, x: sp.gammainc(1.5, 0.5 * (x / t[0]) ** 2),
        lambda t, u: t[0] * np.sqrt(2.0 * sp.gammaincinv(1.5, u)),
        lambda t, x: ((x / t[0]) ** 2 - 3.0)[None, :] / t[0]),
    "chi-squared": (
        lambda t, x: ((0.5 * t[0] - 1.0) * np.log(x) - 0.5 * x
                      - float(sp.gammaln(0.5 * t[0])) - 0.5 * t[0] * math.log(2.0)),
        lambda t, x: sp.gammainc(0.5 * t[0], 0.5 * x),
        lambda t, u: 2.0 * sp.gammaincinv(0.5 * t[0], u),
        lambda t, x: 0.5 * (np.log(0.5 * x) - float(sp.digamma(0.5 * t[0])))[None, :]),
    "pareto": (
        lambda t, x: math.log(t[0]) - (t[0] + 1.0) * np.log(x),
        lambda t, x: -np.expm1(-t[0] * np.log(x)),
        lambda t, u: np.exp(-np.log1p(-u) / t[0]),
        lambda t, x: (1.0 / t[0] - np.log(x))[None, :]),
    "beta-prime": (
        lambda t, x: (t[0] - 1.0) * np.log(x) - (t[0] + t[1]) * np.log1p(x) - _lnB(*t),
        lambda t, x: sp.betainc(t[0], t[1], x / (1.0 + x)),
        lambda t, u: (lambda w: w / (1.0 - w))(sp.betaincinv(t[0], t[1], u)),
        lambda t, x: (lambda psum: np.vstack([
            psum - float(sp.digamma(t[0])) + np.log(x) - np.log1p(x),
            psum - float(sp.digamma(t[1])) - np.log1p(x)]))(
            float(sp.digamma(t[0] + t[1])))),
}


DERIVED = [name for name in sorted(FAMILY_THETAS) if F.get_family(name).derived is not None]
LOG = ["log-epd", "log-laplace", "log-normal"]
# every (family, estimator) row of a derived family
ROWS = [(name, kind) for name in DERIVED for kind in ("ml", "mm")
        if kind == "ml" or F.get_family(name).has_mm]


def test_sixteen_families_are_derived_from_a_base_without_one():
    assert len(DERIVED) == 16
    for name in DERIVED:
        d = F.get_family(name).derived
        assert d.base.derived is None and d.data in F._DATA.values()
        assert set(d.base.param_names) == {b for b, _ in d.params} | {b for b, _ in d.fixed}


POINTS = {name: (FAMILY_THETAS[name], tuple(1.3 * v + 0.2 for v in FAMILY_THETAS[name]))
          for name in DERIVED + ["weibull"]}
# PIT values from 1e-15 to 1 - 1e-15, dense in both tails
_U = np.concatenate([np.logspace(-15, -1, 29), np.linspace(0.1, 0.9, 17),
                     1.0 - np.logspace(-1, -15, 29)])


def _close(got, want, rtol):
    np.testing.assert_array_less(np.abs(got - want), rtol * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", DERIVED)
def test_declaration_carries_the_pit(name):
    # the CDF read through the declaration is the former closed form's
    fam, theta = F.get_family(name), FAMILY_THETAS[name]
    d = fam.derived
    for t in POINTS[name]:
        x = _FORMER_CALLABLES[name][2](t, _U)
        _close(fam.cdf_fn(t, x), _FORMER_CALLABLES[name][1](t, x), 1e-14)
    np.testing.assert_allclose(d.from_base(d.to_base(theta)), theta, rtol=1e-15, atol=0.0)
    # the slopes are the derivatives of the maps
    step = 1e-6 * np.asarray(theta)
    for i in range(fam.n_params):
        hi, lo = list(theta), list(theta)
        hi[i] += step[i]
        lo[i] -= step[i]
        diff = (np.array(d.to_base(hi)) - np.array(d.to_base(lo))) / (2.0 * step[i])
        j = d.base.param_names.index(d.params[i][0])
        assert diff[j] == pytest.approx(F._MAPS[d.params[i][1]].slope(theta[i]), rel=1e-8)


@pytest.mark.parametrize("name", DERIVED + ["weibull"])
def test_density_score_and_quantile_are_the_former_closed_forms(name):
    fam = F.get_family(name)
    logpdf, _, quantile, score_fn = _FORMER_CALLABLES[name]
    for t in POINTS[name]:
        x = quantile(t, _U)
        _close(fam.logpdf(t, x), logpdf(t, x), 1e-14)
        _close(fam.score_fn(t, x), score_fn(t, x), 1e-14)
        # the quantile is ill-conditioned in the far tails (its slope grows
        # like 1/u), so it is compared on [1e-6, 1 - 1e-6] only
        u = _U[(_U >= 1e-6) & (_U <= 1.0 - 1e-6)]
        _close(fam.quantile_fn(t, u), quantile(t, u), 1e-11)


@pytest.mark.parametrize("name,kind", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
def test_matrices_match_the_former_builders(name, kind):
    # the builders' h integrals hold 1e-10, and so does the rule against them
    for theta in POINTS[name]:
        ms = scaling.matrices(name, kind, theta)
        for got, want in zip((ms.G, ms.R, ms.J), _former_matrices(name, kind, theta)):
            if name in LOG:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-10 * max(1.0, float(np.max(np.abs(want)))))


# each parameter's range for the random points, log-uniform (uniform where it
# can be negative), inside the ranges of the base's random points in test_scaling
RANGES = {
    "exp-weibull": [(-2.0, 2.0), (0.2, 5.0)], "gumbel": [(-2.0, 2.0), (0.2, 5.0)],
    "gg": [(0.05, 20.0), (0.2, 5.0), (0.2, 5.0)], "frechet": [(0.2, 5.0), (0.2, 5.0)],
    "log-logistic": [(0.2, 5.0), (0.2, 5.0)], "inverse-gamma": [(0.05, 200.0), (0.2, 5.0)],
    "beta-prime": [(0.3, 30.0), (1.0, 30.0)], "exponential": [(0.2, 5.0)],
    "half-normal": [(0.2, 5.0)], "rayleigh": [(0.2, 5.0)], "maxwell-boltzmann": [(0.2, 5.0)],
    "chi-squared": [(0.1, 400.0)], "pareto": [(0.2, 5.0)],
}


@pytest.mark.parametrize("name,kind", [r for r in ROWS if r[0] in RANGES],
                         ids=[f"{n}-{k}" for n, k in ROWS if n in RANGES])
def test_matrices_match_the_former_builders_at_random_points(name, kind):
    rng = np.random.default_rng([2508, sorted(RANGES).index(name)])
    for _ in range(20):
        theta = tuple(float(rng.uniform(lo, hi)) if lo < 0.0 else
                      float(np.exp(rng.uniform(np.log(lo), np.log(hi)))) for lo, hi in RANGES[name])
        ms = scaling.matrices(name, kind, theta)
        G, R, J = _former_matrices(name, kind, theta)
        np.testing.assert_allclose(ms.G, G, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(ms.R, R, rtol=0.0, atol=1e-10 * max(1.0, float(np.max(np.abs(R)))))
        np.testing.assert_allclose(ms.J, J, rtol=0.0, atol=1e-10)
        former = scaling.MatrixSet(G, R, J, ms.param_names)
        for known in known_names(name, kind):
            mask = known_mask(name, known, theta)
            np.testing.assert_allclose(scaling.sigma(ms, mask, kind, name),
                                       scaling.sigma(former, mask, kind, name), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("name,kind", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
def test_sigma_is_the_sign_flipped_base_sigma(name, kind):
    d = F.get_family(name).derived
    flip = np.array([[1.0, float(d.data.sign)], [float(d.data.sign), 1.0]])
    own = kind == "mm" and F.get_family(name).mm is not None
    for theta in POINTS[name]:
        for known in known_names(name, kind, every=True):
            mask = known_mask(name, known)
            sig = scaling.sigma_from(name, kind, theta, mask)
            former = scaling.MatrixSet(*_former_matrices(name, kind, theta),
                                       scaling.matrices(name, kind, theta).param_names)
            np.testing.assert_allclose(sig, scaling.sigma(former, mask, kind, name),
                                       rtol=0.0, atol=1e-10)
            if not own:  # an MM row on the family's own moment equation has no base
                base = scaling.sigma_from(d.base, kind, d.to_base(theta),
                                          E.row(name, kind, mask).base.mask)
                np.testing.assert_allclose(sig, flip * base, rtol=0.0, atol=1e-13)


FITS = [(name, "ml", known) for name in DERIVED for known in known_names(name, "ml")
        if (name, known) != ("gg", ("lambda",))] + [
    (name, "mm", known) for name in LOG for known in known_names(name, "mm")]


@pytest.mark.parametrize("name,kind,known", FITS,
                         ids=[f"{n}-{k}-{'-'.join(kn) or 'free'}" for n, k, kn in FITS])
def test_fit_matches_the_former_fit(name, kind, known, monkeypatch):
    # the former fit: the former fitter of the family, or Nelder-Mead where
    # it had none; the profiles over rows solve the same estimating
    # equations, to within 1e-10, and beat Nelder-Mead's likelihood
    mask = known_mask(name, known)
    for n, seed in ((30, 0), (200, 1)):
        x = F.sample(name, FAMILY_THETAS[name], n, np.random.SeedSequence([71, seed]))
        res = fit(name, kind, mask, x)
        if name in LOG:  # a log family is its base fitted to ln x
            base = fit(F.get_family(name).derived.base, kind, mask, np.log(x))
            assert np.array_equal(res.theta, base.theta)
            assert (res.iterations, res.residual) == (base.iterations, base.residual)
            continue
        fam = F.get_family(name)
        want = _former_fit(name, x, mask, monkeypatch)
        if _FORMER_FITTERS[name](fam, x, mask or KnownMask.none(fam.n_params)) is None:
            ll = _loglik(name, want, x)
            assert _loglik(name, res.theta, x) >= ll - 1e-12 * abs(ll)
            assert res.residual <= E._residual(E.row(fam, "ml", mask), want, x)
        else:
            np.testing.assert_allclose(res.theta, want, rtol=1e-10, atol=0.0)


def _loglik(name, theta, x):
    return float(np.sum(F.get_family(name).logpdf(tuple(theta), x)))


@pytest.mark.parametrize("name", ["exp-gamma", "gg"])
@pytest.mark.parametrize("n,seed", [(30, 0), (200, 1), (200, 2)])
def test_known_shape_takes_the_profiled_scale_root(name, n, seed, monkeypatch):
    # exp-gamma with lambda known (gg through it) solves its scale equation:
    # checked against the generic likelihood maximization it replaced
    theta = FAMILY_THETAS[name]
    mask = known_mask(name, ("lambda",))
    x = F.sample(name, theta, n, np.random.SeedSequence([73, seed]))
    res = fit(name, "ml", mask, x)
    assert res.converged and res.residual <= 1e-12
    monkeypatch.setattr(FE, "_dedicated", lambda fam, x, mask: None)
    generic = FE.former_fit(name, mask, x)
    assert res.theta[0] == generic.theta[0] == theta[0]
    assert _loglik(name, res.theta, x) >= _loglik(name, generic.theta, x) - 1e-9
    np.testing.assert_allclose(res.theta, generic.theta, rtol=1e-6)
