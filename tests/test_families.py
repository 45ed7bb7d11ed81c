import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.stats import kstest

from trigof import families as F
from trigof.errors import DomainError
from conftest import FAMILY_THETAS

TWO_PI = 2.0 * math.pi

# frozen independent oracles (mpmath, 25 digits)
EPD_PDF_15_AT_07 = 0.2860513996118291   # EPD(1.5, 0, 1) density at x = 0.7
IG_CDF_1_2_AT_13 = 0.76339573878718383  # inverse-Gaussian(1, 2) CDF at 1.3
HALFNORMAL_Q_12 = 2.045597785055104e-06  # half-normal(1.2) quantile at u = HALFNORMAL_U
HALFNORMAL_U = 1.3601257419226798e-06


def test_registry_has_32_families():
    assert len(F.family_names()) == 32


def test_unknown_family():
    with pytest.raises(DomainError):
        F.get_family("cauchy")


class TestPointValues:
    def test_laplace_center(self):
        assert F.pdf("laplace", (0.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_density(self):
        assert F.pdf("uniform", (-1.0, 3.0), 0.7) == pytest.approx(0.25, abs=1e-15)

    def test_epd_density_oracle(self):
        assert F.pdf("epd", (1.5, 0.0, 1.0), 0.7) == pytest.approx(
            EPD_PDF_15_AT_07, rel=1e-13)

    def test_normal_cdf_at_location(self):
        assert F.cdf("normal", (0.7, 2.0), 0.7) == 0.5

    def test_pareto_support_boundary(self):
        assert F.cdf("pareto", (2.4,), 1.0) == 0.0
        assert F.pdf("pareto", (2.4,), 0.5) == 0.0

    def test_inverse_gaussian_cdf_oracle(self):
        assert F.cdf("inverse-gaussian", (1.0, 2.0), 1.3) == pytest.approx(
            IG_CDF_1_2_AT_13, rel=1e-12)

    def test_half_normal_quantile_oracle(self):
        # delta * ndtri((1 + u) / 2) loses relative accuracy at small u
        assert F.quantile("half-normal", (1.2,), HALFNORMAL_U) == pytest.approx(
            HALFNORMAL_Q_12, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x", [1e-200, 1e-300])
    def test_frechet_density_vanishes_in_its_left_tail(self, x):
        assert F.pdf("frechet", (1.0, 2.0), x) == 0.0
        with np.errstate(over="ignore"):
            assert F.get_family("frechet").logpdf((1.0, 2.0), np.array([x]))[0] == -math.inf

    def test_support_enforcement(self):
        assert F.cdf("beta", (2.0, 3.0), -0.2) == 0.0
        assert F.cdf("beta", (2.0, 3.0), 1.4) == 1.0
        assert F.pdf("beta", (2.0, 3.0), 1.4) == 0.0
        assert F.cdf("pareto", (2.0,), 0.2) == 0.0


@pytest.mark.parametrize("name", sorted(FAMILY_THETAS))
class TestEveryFamily:
    def test_pdf_integrates_to_one(self, name):
        th = FAMILY_THETAS[name]
        fam = F.get_family(name)
        lo, hi = fam.support(th)
        med = float(F.quantile(fam, th, 0.5))
        mass = scipy_quad(lambda v: F.pdf(fam, th, v), lo, med,
                          epsabs=1e-10, epsrel=1e-10, limit=400)[0]
        mass += scipy_quad(lambda v: F.pdf(fam, th, v), med, hi,
                           epsabs=1e-10, epsrel=1e-10, limit=400)[0]
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_cdf_pdf_consistency(self, name):
        th = FAMILY_THETAS[name]
        fam = F.get_family(name)
        x = F.quantile(fam, th, np.linspace(0.04, 0.96, 20))
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        fd = (F.cdf(fam, th, x + h) - F.cdf(fam, th, x - h)) / (2.0 * h)
        dens = F.pdf(fam, th, x)
        assert np.max(np.abs(fd - dens) / np.maximum(dens, 1e-12)) < 1e-5

    def test_quantile_cdf_roundtrip(self, name):
        th = FAMILY_THETAS[name]
        fam = F.get_family(name)
        u = np.linspace(0.01, 0.99, 33)
        back = F.cdf(fam, th, F.quantile(fam, th, u))
        assert np.max(np.abs(back - u)) < 1e-9

    def test_pit_uniformity(self, name):
        th = FAMILY_THETAS[name]
        fam = F.get_family(name)
        x = F.sample(fam, th, 10_000, 314159)
        u = F.cdf(fam, th, x)
        assert kstest(u, "uniform").pvalue > 1e-3

    def test_sample_deterministic(self, name):
        th = FAMILY_THETAS[name]
        a = F.sample(name, th, 50, 7)
        b = F.sample(name, th, 50, 7)
        assert np.array_equal(a, b)

    def test_score_matches_log_density_gradient(self, name):
        fam = F.get_family(name)
        if fam.score_fn is None:
            return
        th = FAMILY_THETAS[name]
        x = F.quantile(fam, th, np.linspace(0.1, 0.9, 9))
        s = F.score(fam, th, x)
        for j in range(fam.n_params):
            dt = 1e-6 * max(1.0, abs(th[j]))
            tp, tm = list(th), list(th)
            tp[j] += dt
            tm[j] -= dt
            fd = (np.log(F.pdf(fam, tp, x)) - np.log(F.pdf(fam, tm, x))) / (2.0 * dt)
            denom = np.maximum(np.abs(s[j]), 1.0)
            assert np.max(np.abs(fd - s[j]) / denom) < 2e-6

    def test_cdf_fn_broadcasts_over_theta_rows(self, name):
        # the batch PIT calls cdf_fn once with theta columns of shape (rows, 1)
        fam = F.get_family(name)
        rows = np.array([FAMILY_THETAS[name]]) * np.array([[1.0], [1.1], [0.9]])
        X = np.stack([F.sample(fam, t, 40, np.random.SeedSequence([8, i]))
                      for i, t in enumerate(rows)])
        cols = tuple(rows[:, j, None] for j in range(fam.n_params))
        got = np.clip(fam.cdf_fn(cols, X), 0.0, 1.0)
        want = np.stack([F.cdf(fam, t, x) for t, x in zip(rows, X)])
        assert got.shape == X.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-16)


class TestSpecialCaseCollapses:
    def test_epd_one_is_laplace(self):
        x = np.linspace(-4.0, 4.0, 17)
        assert F.pdf("epd", (1.0, 0.3, 1.2), x) == pytest.approx(
            F.pdf("laplace", (0.3, 1.2), x), rel=1e-13)

    def test_epd_two_is_normal(self):
        x = np.linspace(-4.0, 4.0, 17)
        assert F.pdf("epd", (2.0, 0.3, 1.2), x) == pytest.approx(
            F.pdf("normal", (0.3, 1.2), x), rel=1e-13)

    def test_gg_collapses(self):
        x = np.linspace(0.2, 6.0, 17)
        assert F.pdf("gg", (1.0, 1.5, 2.0), x) == pytest.approx(
            F.pdf("weibull", (1.5, 2.0), x), rel=1e-13)
        assert F.pdf("gg", (2.3, 1.4, 1.0), x) == pytest.approx(
            F.pdf("gamma", (2.3, 1.4), x), rel=1e-13)

    def test_log_families_delegate(self):
        x = np.linspace(0.2, 6.0, 17)
        assert F.cdf("log-normal", (0.1, 0.7), x) == pytest.approx(
            F.cdf("normal", (0.1, 0.7), np.log(x)), abs=1e-15)


class TestSampling:
    def test_exponential_quantile_identity(self):
        u = np.linspace(0.01, 0.99, 99)
        q = F.quantile("exponential", (2.5,), u)
        assert q == pytest.approx(-2.5 * np.log(1.0 - u), rel=1e-13)
        assert F.cdf("exponential", (2.5,), q) == pytest.approx(u, abs=1e-13)

    def test_uniform_pit_ks(self):
        x = F.sample("uniform", (0.0, 1.0), 100_000, 5)
        u = np.sort(x)
        n = len(u)
        ks = np.max(np.maximum(np.arange(1, n + 1) / n - u, u - np.arange(n) / n))
        assert ks < 0.01

    def test_gamma_sample_mean(self):
        x = F.sample("gamma", (3.0, 2.0), 1_000_000, 11)
        assert np.mean(x) == pytest.approx(6.0, abs=0.02)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            F.sample("normal", (0.0, 1.0), 0, 1)


class TestAPD:
    def test_reduces_to_epd(self):
        xs = F.sample_apd(1.5, 0.5, 1.5, 0.3, 2.0, 100_000, 42)
        u = np.sort(F.cdf("epd", (1.5, 0.3, 2.0), xs))
        n = len(u)
        ks = np.max(np.maximum(np.arange(1, n + 1) / n - u, u - np.arange(n) / n))
        assert ks < 0.01

    def test_sign_asymmetry_matches_quadrature_cdf(self):
        lam, alpha, rho = 1.2, 0.3, 1.7
        draws = F.sample_apd(lam, alpha, rho, 0.0, 1.0, 200_000, 9)
        frac_neg = np.mean(draws < 0.0)
        cdf0_quad = scipy_quad(
            lambda y: F.apd_pdf(y, lam, alpha, rho, 0.0, 1.0), -40.0, 0.0,
            epsabs=1e-10)[0]
        assert frac_neg == pytest.approx(cdf0_quad, abs=0.01)
        assert F.apd_cdf(0.0, lam, alpha, rho, 0.0, 1.0) == pytest.approx(
            cdf0_quad, abs=1e-9)

    def test_location_shift_exact(self):
        base = F.sample_apd(1.2, 0.3, 1.7, 0.0, 1.0, 1000, 5)
        shifted = F.sample_apd(1.2, 0.3, 1.7, 2.5, 1.0, 1000, 5)
        assert np.array_equal(shifted, base + 2.5)

    def test_pdf_integrates_to_one(self):
        mass = scipy_quad(lambda y: F.apd_pdf(y, 1.2, 0.3, 1.7, 0.0, 1.0),
                          -40.0, 40.0, epsabs=1e-10)[0]
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_sampler_distribution(self):
        lam, alpha, rho = 2.0, 0.7, 1.3
        xs = np.sort(F.sample_apd(lam, alpha, rho, 1.0, 0.5, 100_000, 77))
        u = F.apd_cdf(xs, lam, alpha, rho, 1.0, 0.5)
        n = len(u)
        ks = np.max(np.maximum(np.arange(1, n + 1) / n - u, u - np.arange(n) / n))
        assert ks < 0.01

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            F.sample_apd(1.0, 1.2, 1.0, 0.0, 1.0, 10, 1)


def test_score_not_defined_for_uniform():
    with pytest.raises(DomainError):
        F.score("uniform", (0.0, 1.0), np.array([0.5]))


def test_parameter_space_validation():
    with pytest.raises(DomainError):
        F.pdf("normal", (0.0, -1.0), 0.0)
    with pytest.raises(DomainError):
        F.pdf("uniform", (2.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        F.pdf("normal", (0.0,), 0.0)
