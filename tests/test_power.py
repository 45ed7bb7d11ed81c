import math

import numpy as np
import pytest

from trigof import specfun
from trigof.estimate import EstimatorKind
from trigof.power import (AltCase, LocalAlternative, epd_m, gamma_m, noncentrality,
                          power_curve, weibull_m)
from trigof.quadrature import h
from trigof.scaling import solve_2x2


# ---------------------------------------------------------------------------
# Reference: the closed-form local-alternative Sigmas that noncentrality used
# before it took Sigma from scaling.sigma_from.
# ---------------------------------------------------------------------------

def _gamma_fn(z):
    return float(specfun.gamma_fn(z))


def gamma_sigma(lam):
    h6 = h(6, lam, lam + 1.0, 1.0)
    h7 = h(7, lam, lam + 1.0, 1.0)
    h10, h11 = h(10, lam), h(11, lam)
    psi1 = float(specfun.trigamma(lam))
    w = lam / (lam * psi1 - 1.0)
    s11 = 0.5 - w * (lam * psi1 * h6 ** 2 + h10 ** 2 - 2.0 * h6 * h10)
    s22 = 0.5 - w * (lam * psi1 * h7 ** 2 + h11 ** 2 - 2.0 * h7 * h11)
    s12 = w * (h6 * (h11 - lam * psi1 * h7) + h10 * (h7 - h11))
    return np.array([[s11, s12], [s12, s22]])


def weibull_sigma():
    h6s, h7s = h(6, 1.0, 2.0, 1.0), h(7, 1.0, 2.0, 1.0)
    h8, h9 = h(8, 1.0), h(9, 1.0)
    g = specfun.EULER_GAMMA
    c = 6.0 / math.pi ** 2
    a1 = (g - 1.0) * h6s + h8
    a2 = (g - 1.0) * h7s + h9
    s11 = 0.5 - h6s ** 2 - c * a1 ** 2
    s22 = 0.5 - h7s ** 2 - c * a2 ** 2
    s12 = -h6s * h7s - c * a1 * a2
    return np.array([[s11, s12], [s12, s22]])


def epd_sigma(lam, kind):
    h1, h2 = h(1, lam), h(2, lam)
    g1l = _gamma_fn(1.0 / lam)
    if EstimatorKind(kind) is EstimatorKind.ML:
        s11 = 0.5 - h1 ** 2 / lam
        s22 = 0.5 - h2 ** 2 / (g1l * _gamma_fn(2.0 - 1.0 / lam))
    else:
        c2 = g1l / (lam ** (2.0 / lam) * _gamma_fn(3.0 / lam))
        c3 = _gamma_fn(3.0 / lam) ** 2 / (g1l * _gamma_fn(5.0 / lam)
                                          - _gamma_fn(3.0 / lam) ** 2)
        d = h2 / (lam ** (1.0 / lam - 1.0) * g1l)
        s11 = 0.5 - h1 * h(4, lam) + h1 ** 2 / (4.0 * c3)
        s22 = 0.5 - (d / c2) * (2.0 * h(5, lam) * _gamma_fn(2.0 / lam)
                                / (lam ** (1.0 / lam) * _gamma_fn(3.0 / lam)) - d)
    return np.diag([s11, s22])


def _closed_form_ncp(sig, m, d):
    v = m @ np.atleast_1d(np.asarray(d, dtype=float))
    return float(v @ solve_2x2(sig, v))


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0, 100.0])
@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_gamma_noncentrality_matches_closed_form(lam, beta):
    alt = LocalAlternative(AltCase.GAMMA_VS_GG, (lam, beta), (4.0,))
    want = _closed_form_ncp(gamma_sigma(lam), gamma_m(lam)[:, None], alt.delta)
    assert noncentrality(alt) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("theta0", [(1.0, 1.0), (2.5, 0.7)])
def test_weibull_noncentrality_matches_closed_form(theta0):
    alt = LocalAlternative(AltCase.WEIBULL_VS_GG, theta0, (7.0,))
    want = _closed_form_ncp(weibull_sigma(), weibull_m()[:, None], alt.delta)
    assert noncentrality(alt) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("lam", [0.8, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["ml", "mm"])
@pytest.mark.parametrize("delta", [(1.0, 0.0), (0.0, 2.0), (1.5, -0.5)])
def test_epd_noncentrality_matches_closed_form(lam, kind, delta):
    alt = LocalAlternative(AltCase.EPD_VS_APD, (lam, 0.3, 1.7), delta, EstimatorKind(kind))
    want = _closed_form_ncp(epd_sigma(lam, kind), epd_m(lam, kind), delta)
    assert noncentrality(alt) == pytest.approx(want, rel=1e-13)


def test_power_is_alpha_at_zero_drift_and_grows():
    pts = power_curve("weibull", (1.0, 1.0), [0.0, 10.0, 20.0], alpha=0.05)
    assert pts[0].ncp == 0.0 and pts[0].power == pytest.approx(0.05, abs=1e-15)
    assert pts[0].power < pts[1].power < pts[2].power
