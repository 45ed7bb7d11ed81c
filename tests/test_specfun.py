import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigof import specfun
from trigof.errors import DomainError

# frozen oracle values (mpmath, 25 digits working precision)
LGAMMA_7_3 = 7.1478925230222490328
REG_GAMMA_2_5_3 = 0.69378108158672159912
REG_BETA_3_05_07 = 0.15993052742645147349
PHI_M3 = 0.0013498980316300945267
NCX2_SF_5_5991 = 0.50370613134701298324


class TestGammaFamily:
    def test_ln_gamma_trivials(self):
        assert specfun.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert specfun.ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                                      rel=1e-13, abs=0.0)

    def test_ln_gamma_oracle(self):
        assert specfun.ln_gamma(7.3) == pytest.approx(LGAMMA_7_3, rel=1e-13, abs=0.0)

    def test_digamma_trigamma_at_one(self):
        assert specfun.digamma(1.0) == pytest.approx(-0.57721566490153, abs=1e-12)
        assert specfun.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0])
    def test_digamma_recurrence(self, z):
        assert specfun.digamma(z + 1.0) - specfun.digamma(z) == pytest.approx(
            1.0 / z, abs=1e-12)

    def test_recurrences_on_log_grid(self):
        z = np.logspace(-3, 3, 61)
        lg = specfun.ln_gamma(1.0 + z) - (np.log(z) + specfun.ln_gamma(z))
        assert np.max(np.abs(lg)) < 1e-11
        dg = specfun.digamma(1.0 + z) - specfun.digamma(z) - 1.0 / z
        assert np.max(np.abs(dg) / np.maximum(1.0 / z, 1.0)) < 1e-11
        tg = specfun.trigamma(1.0 + z) - specfun.trigamma(z) + 1.0 / z ** 2
        assert np.max(np.abs(tg) / np.maximum(1.0 / z ** 2, 1.0)) < 1e-11

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        for fn in (specfun.ln_gamma, specfun.digamma, specfun.trigamma):
            with pytest.raises(DomainError):
                fn(bad)


class TestIncompleteGamma:
    def test_exponential_special_case(self):
        t = np.array([0.1, 1.0, 3.0, 10.0])
        assert specfun.reg_gamma_cdf(1.0, 1.0, t) == pytest.approx(
            1.0 - np.exp(-t), abs=1e-14)

    def test_at_zero(self):
        assert specfun.reg_gamma_cdf(2.5, 1.0, 0.0) == 0.0

    def test_oracle(self):
        assert specfun.reg_gamma_cdf(2.5, 1.0, 3.0) == pytest.approx(
            REG_GAMMA_2_5_3, rel=1e-13, abs=0.0)

    def test_monotone_and_clamped(self):
        x = np.linspace(0.0, 40.0, 400)
        u = specfun.reg_gamma_cdf(1.7, 0.5, x)
        assert np.all(np.diff(u) >= 0.0)
        assert np.all((u >= 0.0) & (u <= 1.0))
        assert specfun.reg_gamma_cdf(1.7, 0.5, 1e6) == pytest.approx(1.0, abs=1e-15)

    def test_derivative_matches_density(self):
        a, b = 2.2, 1.4
        x = np.linspace(0.3, 12.0, 25)
        h = 1e-6 * np.maximum(x, 1.0)
        fd = (specfun.reg_gamma_cdf(a, b, x + h)
              - specfun.reg_gamma_cdf(a, b, x - h)) / (2.0 * h)
        dens = np.exp((a - 1.0) * np.log(x / b) - x / b
                      - specfun.ln_gamma(a)) / b
        assert np.max(np.abs(fd - dens) / dens) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.reg_gamma_cdf(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.reg_gamma_cdf(1.0, 1.0, -0.5)


class TestIncompleteBeta:
    def test_uniform_special_case(self):
        x = np.linspace(0.0, 1.0, 11)
        assert specfun.reg_beta_cdf(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_endpoints(self):
        assert specfun.reg_beta_cdf(3.0, 0.5, 1.0) == 1.0
        assert specfun.reg_beta_cdf(3.0, 0.5, 0.0) == 0.0

    def test_oracle(self):
        assert specfun.reg_beta_cdf(3.0, 0.5, 0.7) == pytest.approx(
            REG_BETA_3_05_07, rel=1e-13, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.1, 20.0), b=st.floats(0.1, 20.0), x=st.floats(0.0, 1.0))
    @example(a=0.125, b=1.0, x=1.3e-62)
    def test_symmetry(self, a, b, x):
        # The float64 identity needs 1 - x to be exact (1 - 1.3e-62 rounds
        # to 1), so move x to the nearest such point; Sterbenz makes
        # 1 - (1 - x) exact.
        x = 1.0 - (1.0 - x)
        lhs = specfun.reg_beta_cdf(a, b, x)
        rhs = 1.0 - specfun.reg_beta_cdf(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone(self):
        x = np.linspace(0.0, 1.0, 200)
        u = specfun.reg_beta_cdf(0.4, 2.7, x)
        assert np.all(np.diff(u) >= 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            specfun.reg_beta_cdf(1.0, 1.0, 1.5)


class TestNormalCdf:
    def test_center(self):
        assert specfun.std_normal_cdf(0.0) == 0.5

    def test_quantile_identity(self):
        assert specfun.std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
        assert specfun.std_normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)

    def test_tail_oracle(self):
        assert specfun.std_normal_cdf(-3.0) == pytest.approx(PHI_M3, rel=1e-13, abs=0.0)

    def test_reflection(self):
        x = np.linspace(-5.0, 5.0, 41)
        assert specfun.std_normal_cdf(-x) == pytest.approx(
            1.0 - specfun.std_normal_cdf(x), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            specfun.std_normal_cdf(math.nan)


class TestNoncentralChi2:
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.991, 20.0])
    def test_central_closed_form(self, t):
        assert specfun.noncentral_chi2_sf(2, 0.0, t) == pytest.approx(
            math.exp(-0.5 * t), abs=1e-12)

    def test_at_zero(self):
        assert specfun.noncentral_chi2_sf(2, 5.0, 0.0) == 1.0

    def test_oracle_value(self):
        assert specfun.noncentral_chi2_sf(2, 5.0, 5.991) == pytest.approx(
            NCX2_SF_5_5991, rel=1e-10, abs=0.0)

    def test_monte_carlo_oracle(self):
        # 10^7 draws of (Z1 + sqrt(ncp))^2 + Z2^2
        rng = np.random.default_rng(1234)
        n = 10_000_000
        draws = (rng.standard_normal(n) + math.sqrt(5.0)) ** 2 \
            + rng.standard_normal(n) ** 2
        p_hat = np.mean(draws > 5.991)
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(specfun.noncentral_chi2_sf(2, 5.0, 5.991) - p_hat) < 3.0 * se

    @settings(max_examples=30, deadline=None)
    @given(ncp=st.floats(0.0, 80.0), t=st.floats(0.01, 80.0))
    def test_within_unit_interval_and_monotone_in_ncp(self, ncp, t):
        p0 = specfun.noncentral_chi2_sf(2, ncp, t)
        p1 = specfun.noncentral_chi2_sf(2, ncp + 1.0, t)
        assert 0.0 <= p0 <= 1.0
        assert p1 >= p0 - 1e-12

    def test_large_ncp_against_scipy(self):
        from scipy.stats import ncx2
        for ncp, t in [(50.0, 30.0), (200.0, 180.0), (5.0, 0.5)]:
            assert specfun.noncentral_chi2_sf(2, ncp, t) == pytest.approx(
                ncx2.sf(t, 2, ncp), rel=1e-9, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.noncentral_chi2_sf(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.noncentral_chi2_sf(2, 1.0, -1.0)
        with pytest.raises(DomainError):
            specfun.noncentral_chi2_sf(0, 1.0, 1.0)
