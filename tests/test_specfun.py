"""The special functions the package reads.

The family callables call ``scipy.special`` directly (log-gamma, digamma,
the regularized incomplete gamma and beta, Phi); they are checked here at
frozen oracles through the families that read them.  A single point is
checked by the family's theta check, and a theta row outside a function's
domain reads NaN.  The normal quantile is checked through the ellipse's
thresholds, and the noncentral chi-square tail is ``power``'s.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigof import families as F
from trigof import gof, scaling
from trigof.errors import DomainError
from trigof.power import noncentral_chi2_sf

# frozen oracle values (mpmath, 25 digits working precision)
LGAMMA_7_3 = 7.1478925230222490328
REG_GAMMA_2_5_3 = 0.69378108158672159912
REG_BETA_3_05_07 = 0.15993052742645147349
PHI_M3 = 0.0013498980316300945267
NCX2_SF_5_5991 = 0.50370613134701298324

GAMMA = F.get_family("gamma")


class TestGammaFamily:
    """ln Gamma in the gamma density, psi in its score and psi' in its information."""

    def test_ln_gamma_trivials(self):
        x = np.array([0.3, 1.0, 4.0])
        # ln Gamma(1) = 0 and ln Gamma(1/2) = ln sqrt(pi)
        np.testing.assert_allclose(F.pdf("gamma", (1.0, 1.0), x), np.exp(-x), rtol=1e-15)
        np.testing.assert_allclose(F.pdf("gamma", (0.5, 1.0), x),
                                   np.exp(-x) / np.sqrt(math.pi * x), rtol=1e-13)

    def test_ln_gamma_oracle(self):
        # the gamma(7.3, 1) density at 1 is exp(-1 - ln Gamma(7.3))
        assert GAMMA.logpdf((7.3, 1.0), 1.0) == pytest.approx(-1.0 - LGAMMA_7_3,
                                                               rel=1e-13, abs=0.0)

    def test_digamma_trigamma_at_one(self):
        # the shape score at (1, 1) and x = 1 is -psi(1); its variance is psi'(1)
        assert F.score("gamma", (1.0, 1.0), [1.0])[0, 0] == pytest.approx(
            0.57721566490153, abs=1e-12)
        assert scaling.matrices("gamma", "ml", (1.0, 1.0)).R[0, 0] == pytest.approx(
            math.pi ** 2 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0])
    def test_digamma_recurrence(self, z):
        x = np.array([0.4, 3.0])
        s = F.score("gamma", (z, 1.0), x)[0] - F.score("gamma", (z + 1.0, 1.0), x)[0]
        np.testing.assert_allclose(s, 1.0 / z, rtol=0.0, atol=1e-12)

    def test_recurrences_on_log_grid(self):
        z = np.logspace(-3, 3, 61)
        one = np.ones_like(z)
        # at x = 1: ln f(z) - ln f(1 + z) = ln Gamma(1 + z) - ln Gamma(z) = ln z
        lg = GAMMA.logpdf((z, one), one) - GAMMA.logpdf((1.0 + z, one), one) - np.log(z)
        assert np.max(np.abs(lg)) < 1e-11
        dg = GAMMA.score_fn((z, one), one)[0] - GAMMA.score_fn((1.0 + z, one), one)[0] - 1.0 / z
        assert np.max(np.abs(dg) / np.maximum(1.0 / z, 1.0)) < 1e-11

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        # a single point is checked by the family; a theta row reads NaN
        for fn in (F.pdf, F.cdf, F.score):
            with pytest.raises(DomainError):
                fn("gamma", (bad, 1.0), [1.0])
        if bad < 0.0 or math.isnan(bad):
            assert np.isnan(GAMMA.cdf_fn((np.array([[bad]]), 1.0), np.array([1.0]))).all()


class TestIncompleteGamma:
    """The regularized lower incomplete gamma, as the gamma family's CDF."""

    def test_exponential_special_case(self):
        t = np.array([0.1, 1.0, 3.0, 10.0])
        assert F.cdf("gamma", (1.0, 1.0), t) == pytest.approx(1.0 - np.exp(-t), abs=1e-14)

    def test_at_zero(self):
        assert F.cdf("gamma", (2.5, 1.0), 0.0) == 0.0

    def test_oracle(self):
        assert F.cdf("gamma", (2.5, 1.0), 3.0) == pytest.approx(REG_GAMMA_2_5_3, rel=1e-13, abs=0.0)

    def test_monotone_and_clamped(self):
        x = np.linspace(0.0, 40.0, 400)
        u = F.cdf("gamma", (1.7, 0.5), x)
        assert np.all(np.diff(u) >= 0.0)
        assert np.all((u >= 0.0) & (u <= 1.0))
        assert F.cdf("gamma", (1.7, 0.5), 1e6) == pytest.approx(1.0, abs=1e-15)

    def test_derivative_matches_density(self):
        theta = (2.2, 1.4)
        x = np.linspace(0.3, 12.0, 25)
        h = 1e-6 * np.maximum(x, 1.0)
        fd = (F.cdf("gamma", theta, x + h) - F.cdf("gamma", theta, x - h)) / (2.0 * h)
        dens = F.pdf("gamma", theta, x)
        assert np.max(np.abs(fd - dens) / dens) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            F.cdf("gamma", (-1.0, 1.0), 1.0)
        assert F.cdf("gamma", (1.0, 1.0), -0.5) == 0.0  # below the support
        # over rows, a PIT past the representable range is 1, not an error
        assert GAMMA.cdf_fn((2.0, 1.0), np.array([np.inf]))[0] == 1.0


class TestIncompleteBeta:
    """The regularized incomplete beta, as the beta family's CDF."""

    def test_uniform_special_case(self):
        x = np.linspace(0.0, 1.0, 11)
        assert F.cdf("beta", (1.0, 1.0), x) == pytest.approx(x, abs=1e-14)

    def test_endpoints(self):
        assert F.cdf("beta", (3.0, 0.5), 1.0) == 1.0
        assert F.cdf("beta", (3.0, 0.5), 0.0) == 0.0

    def test_oracle(self):
        assert F.cdf("beta", (3.0, 0.5), 0.7) == pytest.approx(
            REG_BETA_3_05_07, rel=1e-13, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.1, 20.0), b=st.floats(0.1, 20.0), x=st.floats(0.0, 1.0))
    @example(a=0.125, b=1.0, x=1.3e-62)
    def test_symmetry(self, a, b, x):
        # The float64 identity needs 1 - x to be exact (1 - 1.3e-62 rounds
        # to 1), so move x to the nearest such point; Sterbenz makes
        # 1 - (1 - x) exact.
        x = 1.0 - (1.0 - x)
        lhs = F.cdf("beta", (a, b), x)
        rhs = 1.0 - F.cdf("beta", (b, a), 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone(self):
        x = np.linspace(0.0, 1.0, 200)
        u = F.cdf("beta", (0.4, 2.7), x)
        assert np.all(np.diff(u) >= 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            F.cdf("beta", (0.0, 1.0), 0.5)
        assert F.cdf("beta", (1.0, 1.0), 1.5) == 1.0  # above the support


# a Sigma with Sigma_11 != Sigma_22, for the ellipse's two thresholds
SIGMA = np.array([[0.3, 0.05], [0.05, 0.2]])


class TestNormalCdf:
    """Phi, as the normal family's CDF, and its quantile in the ellipse's thresholds."""

    def test_center(self):
        assert F.cdf("normal", (0.0, 1.0), 0.0) == 0.5

    def test_quantile_identity(self):
        assert F.cdf("normal", (0.0, 1.0), 1.959963985) == pytest.approx(0.975, abs=1e-9)
        geom = gof.ellipse(SIGMA, 0.95)
        for threshold, var in ((geom.x_threshold, 0.3), (geom.y_threshold, 0.2)):
            assert threshold == pytest.approx(1.959963985 * math.sqrt(var),
                                              abs=1e-8 * math.sqrt(var))

    def test_tail_oracle(self):
        assert F.cdf("normal", (0.0, 1.0), -3.0) == pytest.approx(PHI_M3, rel=1e-13, abs=0.0)

    def test_reflection(self):
        x = np.linspace(-5.0, 5.0, 41)
        assert F.cdf("normal", (0.0, 1.0), -x) == pytest.approx(
            1.0 - F.cdf("normal", (0.0, 1.0), x), abs=1e-15)

    def test_domain_error(self):
        for p in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                gof.ellipse(SIGMA, p)


class TestNoncentralChi2:
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.991, 20.0])
    def test_central_closed_form(self, t):
        assert noncentral_chi2_sf(2, 0.0, t) == pytest.approx(
            math.exp(-0.5 * t), abs=1e-12)

    def test_at_zero(self):
        assert noncentral_chi2_sf(2, 5.0, 0.0) == 1.0

    def test_oracle_value(self):
        assert noncentral_chi2_sf(2, 5.0, 5.991) == pytest.approx(
            NCX2_SF_5_5991, rel=1e-10, abs=0.0)

    def test_monte_carlo_oracle(self):
        # 10^7 draws of (Z1 + sqrt(ncp))^2 + Z2^2
        rng = np.random.default_rng(1234)
        n = 10_000_000
        draws = (rng.standard_normal(n) + math.sqrt(5.0)) ** 2 \
            + rng.standard_normal(n) ** 2
        p_hat = np.mean(draws > 5.991)
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(noncentral_chi2_sf(2, 5.0, 5.991) - p_hat) < 3.0 * se

    @settings(max_examples=30, deadline=None)
    @given(ncp=st.floats(0.0, 80.0), t=st.floats(0.01, 80.0))
    def test_within_unit_interval_and_monotone_in_ncp(self, ncp, t):
        p0 = noncentral_chi2_sf(2, ncp, t)
        p1 = noncentral_chi2_sf(2, ncp + 1.0, t)
        assert 0.0 <= p0 <= 1.0
        assert p1 >= p0 - 1e-12

    def test_large_ncp_against_scipy(self):
        from scipy.stats import ncx2
        for ncp, t in [(50.0, 30.0), (200.0, 180.0), (5.0, 0.5)]:
            assert noncentral_chi2_sf(2, ncp, t) == pytest.approx(
                ncx2.sf(t, 2, ncp), rel=1e-9, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            noncentral_chi2_sf(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            noncentral_chi2_sf(2, 1.0, -1.0)
        with pytest.raises(DomainError):
            noncentral_chi2_sf(0, 1.0, 1.0)
