import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

from trigof import power
from trigof.errors import ConfigurationError, DomainError
from trigof.estimate import EstimatorKind
from trigof.families import _epd_c1
from trigof.power import (EMBEDDINGS, AltCase, LocalAlternative, empirical_power, nest,
                          noncentrality, power_curve, sigma_and_drift)
from former_scaling import h


def _m(case, theta0, kind="ml"):
    """The registry's drift M of the case at theta0."""
    return sigma_and_drift(case, theta0, kind)[1]


# ---------------------------------------------------------------------------
# Reference: the closed-form local-alternative Sigmas that noncentrality used
# before it took Sigma from scaling.sigma_from.
# ---------------------------------------------------------------------------

def _gamma_fn(z):
    return float(sp.gamma(z))


def gamma_sigma(lam):
    h6 = h(6, lam, lam + 1.0, 1.0)
    h7 = h(7, lam, lam + 1.0, 1.0)
    h10, h11 = h(10, lam), h(11, lam)
    psi1 = float(sp.polygamma(1, lam))
    w = lam / (lam * psi1 - 1.0)
    s11 = 0.5 - w * (lam * psi1 * h6 ** 2 + h10 ** 2 - 2.0 * h6 * h10)
    s22 = 0.5 - w * (lam * psi1 * h7 ** 2 + h11 ** 2 - 2.0 * h7 * h11)
    s12 = w * (h6 * (h11 - lam * psi1 * h7) + h10 * (h7 - h11))
    return np.array([[s11, s12], [s12, s22]])


def weibull_sigma():
    h6s, h7s = h(6, 1.0, 2.0, 1.0), h(7, 1.0, 2.0, 1.0)
    h8, h9 = h(8, 1.0), h(9, 1.0)
    g = np.euler_gamma
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


# ---------------------------------------------------------------------------
# Reference: the closed-form drift directions M that power used before it
# summed them by the rule.
# ---------------------------------------------------------------------------

def former_gamma_m(lam):
    h6 = h(6, lam, lam + 1.0, 1.0)
    h7 = h(7, lam, lam + 1.0, 1.0)
    psi = float(sp.digamma(lam))
    psi1 = float(sp.polygamma(1, lam))
    a = lam * psi - lam * psi1 * (lam * psi + 1.0)
    w = 1.0 / (lam * psi1 - 1.0)
    return np.array([
        -h(8, lam) - w * (h(10, lam) + h6 * a),
        -h(9, lam) - w * (h(11, lam) + h7 * a),
    ])


def former_weibull_m():
    h6s, h7s = h(6, 1.0, 2.0, 1.0), h(7, 1.0, 2.0, 1.0)
    g = np.euler_gamma
    c = 6.0 / math.pi ** 2
    b = 1.0 - g + math.pi ** 2 / 6.0
    return np.array([
        h(10, 1.0) - c * (b * h6s - h(8, 1.0)),
        h(11, 1.0) - c * (b * h7s - h(9, 1.0)),
    ])


def former_epd_m(lam, kind):
    h1, h2, h3, h37 = h(1, lam), h(2, lam), h(3, lam), h(37, lam)
    g1l = _gamma_fn(1.0 / lam)
    if EstimatorKind(kind) is EstimatorKind.ML:
        m12 = -h3 / lam ** 2 + h1 * (_epd_c1(lam) + 1.0) / lam ** 2
        m21 = -2.0 * h37 + 2.0 * lam * h2 / (g1l * _gamma_fn(2.0 - 1.0 / lam))
    else:
        m12 = -h3 / lam ** 2 + h1 / (2.0 * lam ** 2) * (
            2.0 * math.log(lam) + 3.0 * float(sp.digamma(3.0 / lam))
            - float(sp.digamma(1.0 / lam)))
        m21 = -2.0 * h37 + 4.0 * lam * h2 * _gamma_fn(2.0 / lam) / g1l ** 2
    return np.array([[0.0, m12], [m21, 0.0]])


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0, 100.0])
def test_gamma_drift_matches_closed_form(lam):
    np.testing.assert_allclose(_m("gamma", (lam, 1.0))[:, 0], former_gamma_m(lam),
                               rtol=0.0, atol=1e-10)


def test_weibull_drift_matches_closed_form():
    np.testing.assert_allclose(_m("weibull", (1.0, 1.0))[:, 0], former_weibull_m(),
                               rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("lam", [0.6, 0.8, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["ml", "mm"])
def test_epd_drift_matches_closed_form(lam, kind):
    np.testing.assert_allclose(_m("epd", (lam, 0.0, 1.0), kind), former_epd_m(lam, kind),
                               rtol=0.0, atol=1e-10)


# noncentrality assembles delta^T M^T Sigma^-1 M delta from the rule's Sigma;
# against the closed-form Sigma, whose G came from h integrals at 1e-12, with
# the drift M its own (checked against the closed form above)
def _closed_form_ncp(sig, m, d):
    v = m @ np.atleast_1d(np.asarray(d, dtype=float))
    return float(v @ np.linalg.solve(sig, v))


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0, 100.0])
@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_gamma_noncentrality_matches_closed_form(lam, beta):
    alt = LocalAlternative(AltCase.GAMMA, (lam, beta), (4.0,))
    want = _closed_form_ncp(gamma_sigma(lam), _m("gamma", (lam, 1.0)), alt.delta)
    assert noncentrality(alt) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("theta0", [(1.0, 1.0), (2.5, 0.7)])
def test_weibull_noncentrality_matches_closed_form(theta0):
    alt = LocalAlternative(AltCase.WEIBULL, theta0, (7.0,))
    want = _closed_form_ncp(weibull_sigma(), _m("weibull", (1.0, 1.0)), alt.delta)
    assert noncentrality(alt) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("lam", [0.6, 0.8, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["ml", "mm"])
@pytest.mark.parametrize("delta", [(1.0, 0.0), (0.0, 2.0), (1.5, -0.5)])
def test_epd_noncentrality_matches_closed_form(lam, kind, delta):
    alt = LocalAlternative(AltCase.EPD, (lam, 0.3, 1.7), delta, EstimatorKind(kind))
    want = _closed_form_ncp(epd_sigma(lam, kind), _m("epd", (lam, 0.0, 1.0), kind), delta)
    assert noncentrality(alt) == pytest.approx(want, rel=1e-11)


def test_an_alternative_is_checked_against_its_entry():
    assert [case.value for case in AltCase] == list(EMBEDDINGS)
    with pytest.raises(DomainError, match="takes 2 drift"):
        LocalAlternative(AltCase.EPD, (2.0, 0.0, 1.0), (1.0,))
    with pytest.raises(ConfigurationError, match="ML-only"):
        LocalAlternative("exponential-in-gamma", (1.0,), (1.0,), EstimatorKind.MM)
    for alpha in (0.0, 1.0):
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
            LocalAlternative(AltCase.EPD, (2.0, 0.0, 1.0), (1.0, 0.0), alpha=alpha)


@pytest.mark.parametrize("null,larger,name", [
    ("gamma", "gg", "lambda"),  # gamma's (lambda, beta) against gg's (beta, rho)
    ("weibull", "gg", "rho"),  # weibull's (beta, rho) against gg's (lambda, beta)
    ("normal", "epd", "sigma"),  # epd's (lambda, mu): the wrong parameter held
    ("exponential", "gamma", "shape"),  # gamma has no such parameter
    ("gamma", "gamma", "shape"),
], ids=["gamma-lambda", "weibull-rho", "normal-sigma", "no-parameter", "itself"])
def test_nest_refuses_a_null_that_is_not_the_larger_family_with_one_parameter_held(
        null, larger, name):
    with pytest.raises(ConfigurationError, match=f"^{null} is not {larger} .* with '{name}' held$"):
        nest(null, larger, name, 1.0, (1.0,), "0:1:0.5")


def test_a_wrong_nesting_in_the_registry_stops_the_import(monkeypatch):
    source = Path(power.__file__).read_text()
    wrong = source.replace('nest("gamma", "gg", "rho"', 'nest("gamma", "gg", "lambda"')
    assert wrong != source
    module = types.ModuleType("trigof.wrong_power")
    module.__package__ = "trigof"
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look it up
    with pytest.raises(ConfigurationError, match="gamma is not gg"):
        exec(compile(wrong, power.__file__, "exec"), module.__dict__)
    assert "EMBEDDINGS" not in vars(module)


def test_power_is_alpha_at_zero_drift_and_grows():
    pts = power_curve("weibull", (1.0, 1.0), [0.0, 10.0, 20.0], alpha=0.05)
    assert pts[0].ncp == 0.0 and pts[0].power == pytest.approx(0.05, abs=1e-15)
    assert pts[0].power < pts[1].power < pts[2].power


# The drifts meet the simulation only at large n: sampled at rho = 1 + delta/sqrt(n)
# the gamma and Weibull rates trail the asymptote by about 0.19 at n = 1000,
# 0.11 at 4000 and 0.07 at 16000, and the EPD rate with a rho drift by 0.07 at
# n = 1000 and 0.05 at 4000.  The exponential nestings meet it at n = 1000;
# the normal in EPD reads 2.75 standard errors low there, so it runs at 4000.
POWER_CHECKS = [
    ("gamma", (2.0, 1.0), (10.0,), 16000, 200),
    ("weibull", (1.0, 1.0), (12.0,), 16000, 200),
    ("epd", (2.0, 0.0, 1.0), (1.5, 6.0), 4000, 300),
    ("exponential-in-gamma", (1.0,), (3.4,), 1000, 400),
    ("exponential-in-weibull", (1.0,), (2.1,), 1000, 400),
    ("normal-in-epd", (0.0, 1.0), (9.6,), 4000, 400),
]


@pytest.mark.parametrize("case,theta0,delta,n,reps", POWER_CHECKS, ids=[c[0] for c in POWER_CHECKS])
def test_power_curve_meets_empirical_power(case, theta0, delta, n, reps):
    # the only check of the drift M that does not go through the same algebra
    asymptotic = power_curve(case, theta0, [delta])[0].power
    assert 0.3 <= asymptotic <= 0.7
    emp = empirical_power(LocalAlternative(AltCase(case), theta0, delta), n, reps, 7)
    assert emp["failed"] == 0
    se = math.sqrt(asymptotic * (1.0 - asymptotic) / reps)
    assert abs(emp["rate"] - asymptotic) <= 4.0 * se
