"""Cross-moment matrices and the scaling covariance of the trig moments.

``matrices`` evaluates, for a family and estimator kind, the 2 x p matrix G
of expectations E{tau * score^T}, the p x p matrix R (Fisher information for
ML; the moment-equation covariance for MM), and the 2 x p matrix J of
E{tau * r^T}.  For ML estimators J equals G and is stored as an identical
copy.  ``sigma`` applies the known-parameter reduction (drop known columns
of G and J, known rows/columns of R), inverts the reduced R in closed form,
and assembles

    Sigma = 1/2 I - G R^-1 J^T - J R^-1 G^T + G R^-1 G^T,

which collapses to 1/2 I - G R^-1 G^T for ML and to exactly (1/2) I when
every parameter is known.  The uniform family carries no matrices (its
extreme-order estimators are super-efficient), which the same reduction
handles as an empty parameter block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature, specfun
from .errors import ConfigurationError, DomainError, SingularityError
from .estimate import EstimatorKind, KnownMask
from .families import _epd_c1, _epd_c2, _student_c2, get_family

__all__ = ["MatrixSet", "matrices", "sigma", "sigma_from", "solve_2x2", "COND_LIMIT"]

COND_LIMIT = 1e12

_EG = specfun.EULER_GAMMA
_PI2_6 = math.pi ** 2 / 6.0


@dataclass(frozen=True)
class MatrixSet:
    """G (2 x p), R (p x p), J (2 x p) with the parameter names they cover."""

    G: np.ndarray
    R: np.ndarray
    J: np.ndarray
    param_names: tuple[str, ...]

    @property
    def p(self) -> int:
        return len(self.param_names)


def _h(idx, *args):
    return quadrature.h(idx, *args)


@lru_cache(maxsize=1)
def _logi():
    return quadrature.logistic_constants()


def _psi(z):
    return float(specfun.digamma(z))


def _psi1(z):
    return float(specfun.trigamma(z))


def _gamma(z):
    return float(specfun.gamma_fn(z))


def _epd_c3(lam):
    g13 = _gamma(3.0 / lam)
    return g13 ** 2 / (_gamma(1.0 / lam) * _gamma(5.0 / lam) - g13 ** 2)


# ---------------------------------------------------------------------------
# per-family builders: return (G, R, J_or_None); J None means "equals G" (ML)
# ---------------------------------------------------------------------------

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


def _m_expweibull_ml(t):
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


def _m_gumbel_ml(t):
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
    return math.exp(float(specfun.ln_gamma(0.5 * (lam + 1.0)))
                    - float(specfun.ln_gamma(0.5 * lam))) / math.sqrt(lam * math.pi)


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


def _m_gg_ml(t):
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


def _m_frechet_ml(t):
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


def _m_loglogistic_ml(t):
    beta, rho = t
    c_cos, c_sin, _, _ = _logi()
    G = np.array([
        [0.0, -c_cos / rho],
        [c_sin * rho / beta, 0.0],
    ])
    R = np.diag([rho ** 2 / (3.0 * beta ** 2), (3.0 + math.pi ** 2) / (9.0 * rho ** 2)])
    return G, R, None


def _m_loglogistic_mm(t):
    beta, rho = t
    c_cos, c_sin, m_cos, m_sin = _logi()
    G = np.array([[0.0, -c_cos / rho], [c_sin * rho / beta, 0.0]])
    J = np.array([[0.0, -m_cos / rho], [m_sin * rho / beta, 0.0]])
    R = np.diag([3.0 * rho ** 2 / (beta ** 2 * math.pi ** 2), 1.25 / rho ** 2])
    return G, R, J


def _m_gamma_ml(t):
    lam, beta = t
    G = np.array([
        [_h(10, lam), lam * _h(6, lam, lam + 1.0, 1.0) / beta],
        [_h(11, lam), lam * _h(7, lam, lam + 1.0, 1.0) / beta],
    ])
    R = np.array([[_psi1(lam), 1.0 / beta], [1.0 / beta, lam / beta ** 2]])
    return G, R, None


def _m_invgamma_ml(t):
    lam, beta = t
    G = np.array([
        [_h(10, lam), -lam * _h(6, lam, lam + 1.0, 1.0) / beta],
        [-_h(11, lam), lam * _h(7, lam, lam + 1.0, 1.0) / beta],
    ])
    R = np.array([[_psi1(lam), -1.0 / beta], [-1.0 / beta, lam / beta ** 2]])
    return G, R, None


def _m_betaprime_ml(t):
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


def _m_exponential(t):
    beta, = t
    G = np.array([[_h(6, 1.0, 2.0, 1.0)], [_h(7, 1.0, 2.0, 1.0)]]) / beta
    R = np.array([[1.0 / beta ** 2]])
    return G, R, None


def _m_halfnormal_ml(t):
    d, = t
    G = np.array([[_h(6, 0.5, 1.5, 1.0)], [_h(7, 0.5, 1.5, 1.0)]]) / d
    R = np.array([[2.0 / d ** 2]])
    return G, R, None


def _m_halfnormal_mm(t):
    d, = t
    G, _, _ = _m_halfnormal_ml(t)
    c = math.pi / 2.0 - 1.0
    J = np.array([[_h(6, 0.5, 1.0, 1.0)], [_h(7, 0.5, 1.0, 1.0)]]) / (c * d)
    R = np.array([[1.0 / (c * d ** 2)]])
    return G, R, J


def _m_rayleigh_ml(t):
    d, = t
    G = 2.0 * np.array([[_h(6, 1.0, 2.0, 1.0)], [_h(7, 1.0, 2.0, 1.0)]]) / d
    R = np.array([[4.0 / d ** 2]])
    return G, R, None


def _m_rayleigh_mm(t):
    d, = t
    G, _, _ = _m_rayleigh_ml(t)
    c = 4.0 / math.pi - 1.0
    J = np.array([[_h(6, 1.0, 1.5, 1.0)], [_h(7, 1.0, 1.5, 1.0)]]) / (c * d)
    R = np.array([[1.0 / (c * d ** 2)]])
    return G, R, J


def _m_maxwell_ml(t):
    d, = t
    G = 3.0 * np.array([[_h(6, 1.5, 2.5, 1.0)], [_h(7, 1.5, 2.5, 1.0)]]) / d
    R = np.array([[6.0 / d ** 2]])
    return G, R, None


def _m_maxwell_mm(t):
    d, = t
    G, _, _ = _m_maxwell_ml(t)
    c = 3.0 * math.pi / 8.0 - 1.0
    J = np.array([[_h(6, 1.5, 2.0, 1.0)], [_h(7, 1.5, 2.0, 1.0)]]) / (c * d)
    R = np.array([[1.0 / (c * d ** 2)]])
    return G, R, J


def _m_chi2_ml(t):
    k, = t
    G = 0.5 * np.array([[_h(10, 0.5 * k)], [_h(11, 0.5 * k)]])
    R = np.array([[0.25 * _psi1(0.5 * k)]])
    return G, R, None


def _m_chi2_mm(t):
    k, = t
    G, _, _ = _m_chi2_ml(t)
    J = 0.5 * np.array([[_h(6, 0.5 * k, 0.5 * k + 1.0, 1.0)],
                        [_h(7, 0.5 * k, 0.5 * k + 1.0, 1.0)]])
    R = np.array([[0.5 / k]])
    return G, R, J


def _m_pareto_ml(t):
    a, = t
    G = -np.array([[_h(6, 1.0, 2.0, 1.0)], [_h(7, 1.0, 2.0, 1.0)]]) / a
    R = np.array([[1.0 / a ** 2]])
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
        qp = 2.0 * (psb + _EG - 1.0) * _psi1(b) - float(specfun.polygamma(2, b))
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
    ("epd", EstimatorKind.ML): _m_epd_ml,
    ("epd", EstimatorKind.MM): _m_epd_mm,
    ("laplace", EstimatorKind.ML): _m_laplace_ml,
    ("laplace", EstimatorKind.MM): _m_laplace_mm,
    ("normal", EstimatorKind.ML): _m_normal,
    ("normal", EstimatorKind.MM): _m_normal,
    ("exp-gamma", EstimatorKind.ML): _m_expgamma_ml,
    ("exp-weibull", EstimatorKind.ML): _m_expweibull_ml,
    ("gumbel", EstimatorKind.ML): _m_gumbel_ml,
    ("logistic", EstimatorKind.ML): _m_logistic_ml,
    ("logistic", EstimatorKind.MM): _m_logistic_mm,
    ("student-t", EstimatorKind.ML): _m_student_ml,
    ("student-t", EstimatorKind.MM): _m_student_mm,
    ("half-epd", EstimatorKind.ML): _m_halfepd_ml,
    ("half-epd", EstimatorKind.MM): _m_halfepd_mm,
    ("gg", EstimatorKind.ML): _m_gg_ml,
    ("weibull", EstimatorKind.ML): _m_weibull_ml,
    ("frechet", EstimatorKind.ML): _m_frechet_ml,
    ("gompertz", EstimatorKind.ML): _m_gompertz_ml,
    ("log-logistic", EstimatorKind.ML): _m_loglogistic_ml,
    ("log-logistic", EstimatorKind.MM): _m_loglogistic_mm,
    ("gamma", EstimatorKind.ML): _m_gamma_ml,
    ("inverse-gamma", EstimatorKind.ML): _m_invgamma_ml,
    ("beta-prime", EstimatorKind.ML): _m_betaprime_ml,
    ("lomax", EstimatorKind.ML): _m_lomax_ml,
    ("nakagami", EstimatorKind.ML): _m_nakagami_ml,
    ("inverse-gaussian", EstimatorKind.ML): _m_invgauss_ml,
    ("exponential", EstimatorKind.ML): _m_exponential,
    ("exponential", EstimatorKind.MM): _m_exponential,
    ("half-normal", EstimatorKind.ML): _m_halfnormal_ml,
    ("half-normal", EstimatorKind.MM): _m_halfnormal_mm,
    ("rayleigh", EstimatorKind.ML): _m_rayleigh_ml,
    ("rayleigh", EstimatorKind.MM): _m_rayleigh_mm,
    ("maxwell-boltzmann", EstimatorKind.ML): _m_maxwell_ml,
    ("maxwell-boltzmann", EstimatorKind.MM): _m_maxwell_mm,
    ("chi-squared", EstimatorKind.ML): _m_chi2_ml,
    ("chi-squared", EstimatorKind.MM): _m_chi2_mm,
    ("pareto", EstimatorKind.ML): _m_pareto_ml,
    ("beta", EstimatorKind.ML): _m_betaprime_ml,  # the same G and R in (alpha, beta)
    ("kumaraswamy", EstimatorKind.ML): _m_kumaraswamy_ml,
    ("uniform", EstimatorKind.ML): None,
}


def matrices(fam, kind, theta) -> MatrixSet:
    """Evaluate G, R, J for the family/estimator at the parameter point.

    For MM estimators the matrices cover only the moment-estimated
    components (shape parameters the MM row requires known are excluded);
    ``param_names`` records the column layout.
    """
    fam = get_family(fam)
    kind = EstimatorKind(kind)
    # a log-delegating family has its base family's matrices
    key = ((fam.base or fam).name, kind)
    if key not in _BUILDERS:
        raise ConfigurationError(f"no {kind.value.upper()} matrices for {fam.name!r}")
    t = tuple(float(v) for v in np.atleast_1d(np.asarray(theta, dtype=float)))
    if len(t) != fam.n_params:
        raise DomainError(f"{fam.name} takes {fam.n_params} parameters")
    fam.check(t)
    builder = _BUILDERS[key]
    if builder is None:  # uniform: no estimating-equation matrices
        empty = np.zeros((2, 0))
        return MatrixSet(empty, np.zeros((0, 0)), empty.copy(), ())
    G, R, J = builder(t)
    if J is None:
        J = G.copy()
    names = fam.param_names if kind is EstimatorKind.ML else tuple(
        p for p in fam.param_names if p not in fam.mm_known)
    return MatrixSet(np.asarray(G, float), np.asarray(R, float),
                     np.asarray(J, float), names)


def _inv_small(A: np.ndarray) -> np.ndarray:
    """Closed-form inverse for p in {1, 2, 3} with a condition estimate."""
    p = A.shape[0]
    if p == 0:
        return A.copy()
    if p == 1:
        if A[0, 0] == 0.0:
            raise SingularityError("1x1 matrix is singular")
        inv = np.array([[1.0 / A[0, 0]]])
    elif p == 2:
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if det == 0.0:
            raise SingularityError("2x2 matrix is singular")
        inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    elif p == 3:
        c00 = A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
        c01 = A[1, 2] * A[2, 0] - A[1, 0] * A[2, 2]
        c02 = A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0]
        det = A[0, 0] * c00 + A[0, 1] * c01 + A[0, 2] * c02
        if det == 0.0:
            raise SingularityError("3x3 matrix is singular")
        c10 = A[0, 2] * A[2, 1] - A[0, 1] * A[2, 2]
        c11 = A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
        c12 = A[0, 1] * A[2, 0] - A[0, 0] * A[2, 1]
        c20 = A[0, 1] * A[1, 2] - A[0, 2] * A[1, 1]
        c21 = A[0, 2] * A[1, 0] - A[0, 0] * A[1, 2]
        c22 = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        inv = np.array([[c00, c10, c20], [c01, c11, c21], [c02, c12, c22]]) / det
    else:
        raise DomainError(f"unexpected matrix order {p}")
    cond = (np.abs(A).sum(axis=1).max()) * (np.abs(inv).sum(axis=1).max())
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularityError(
            f"matrix is numerically singular (condition estimate {cond:.3e})")
    return inv


def _reduce(ms: MatrixSet, mask: KnownMask, fam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    fam = get_family(fam)
    if mask is None:
        keep = list(range(ms.p))
    else:
        if len(mask.known) != fam.n_params:
            raise DomainError("mask arity does not match the family")
        keep = [j for j, name in enumerate(ms.param_names)
                if not mask.known[fam.param_names.index(name)]]
    G = ms.G[:, keep]
    J = ms.J[:, keep]
    R = ms.R[np.ix_(keep, keep)]
    return G, R, J


def sigma(ms: MatrixSet, mask: KnownMask | None, kind, fam) -> np.ndarray:
    """Assemble the 2x2 scaling covariance after the known-parameter reduction."""
    kind = EstimatorKind(kind)
    G, R, J = _reduce(ms, mask, fam)
    if G.shape[1] == 0:
        return 0.5 * np.eye(2)
    Rinv = _inv_small(R)
    if kind is EstimatorKind.ML:
        S = 0.5 * np.eye(2) - G @ Rinv @ G.T
    else:
        S = (0.5 * np.eye(2) - G @ Rinv @ J.T - J @ Rinv @ G.T + G @ Rinv @ G.T)
    S = 0.5 * (S + S.T)
    _check_pd(S)
    return S


def sigma_from(fam, kind, theta, mask: KnownMask | None = None) -> np.ndarray:
    """Convenience: matrices + reduction + assembly in one call."""
    return sigma(matrices(fam, kind, theta), mask, kind, fam)


def _eig2(S: np.ndarray):
    a, b, c = S[0, 0], S[0, 1], S[1, 1]
    half_tr = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    return half_tr + disc, half_tr - disc


def _check_pd(S: np.ndarray) -> None:
    if not np.all(np.isfinite(S)):
        raise SingularityError("covariance contains non-finite entries")
    l1, l2 = _eig2(S)
    if l2 <= 0.0:
        raise SingularityError(f"scaling covariance is not positive definite "
                               f"(eigenvalues {l1:.3e}, {l2:.3e})")


def solve_2x2(S: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S^-1 v for symmetric positive definite 2x2 S."""
    _check_pd(S)
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    return np.array([
        (S[1, 1] * v[0] - S[0, 1] * v[1]) / det,
        (S[0, 0] * v[1] - S[1, 0] * v[0]) / det,
    ])
