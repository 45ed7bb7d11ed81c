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
from scipy import special as sp

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

# P(X > t) of X ~ chi2_df(ncp) at the doubles t = 2 gammainccinv(df/2, alpha),
# by mpmath at 60 digits: the Poisson mixture summed term by term far past
# where its terms fall below the sum's last digit.  One row per (df, ncp), one
# value per alpha of NCX2_ALPHAS.
NCX2_ALPHAS = (0.5, 0.05, 1e-3, 1e-6, 1e-12, 1e-30, 1e-100, 1e-250)
NCX2_SF = {
    (1, 0.01): (0.50213883090510681817, 0.051146302810810520419, 0.0010588607685561964454,
                1.1264701099122384755e-6, 1.2695204797614089324e-12, 1.7443821172130570148e-30,
                4.2674155179033882389e-100, 1.4701697276637281366e-249),
    (1, 0.3): (0.56037600670104491784, 0.085015664059836734727, 0.0031078074084513787897,
               7.0249912050328071137e-6, 2.3094004872051230553e-11, 2.4881292872398619468e-28,
               5.1664390249989809303e-96, 4.850448040568345909e-243),
    (1, 1): (0.67461973035690250825, 0.17007504575308729379, 0.011004312886965703091,
             0.000049786679052301544145, 4.3799794504916537144e-10, 3.3525790495126940785e-26,
             5.6971429442025547794e-92, 1.5230143598930362876e-236),
    (1, 5): (0.94261023058625426999, 0.60877948464545641902, 0.14583648377175931595,
             0.0039587191260079717341, 4.9293306925741042514e-7, 7.8743569326137197994e-21,
             2.2470142127521377906e-81, 3.0616860350176453046e-219),
    (1, 20): (0.99992709429791185332, 0.99400047004895018423, 0.88131960396980004384,
              0.33742445644455598133, 0.0039259714312188826755, 8.834222768627425877e-13,
              6.8973664096085653011e-64, 1.2695449460236343182e-189),
    (1, 100): (0.99999999999999999999, 0.99999999999999955094, 0.99999999999023359021,
               0.99999983751778416916, 0.99794434882382953255, 0.063768898294049318618,
               6.1316859482446042095e-30, 1.0346426648716277258e-125),
    (1, 400): (1.0, 1.0, 1.0, 1.0, 1.0, 0.99999999999999998836, 0.095786469435898991859,
               9.6441584324574275011e-44),
    (1, 2000): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (2, 0.01): (0.50173003998923776072, 0.050749863679648882488, 0.0010347509553976034943,
                1.0701032657367926671e-6, 1.1426397328751911904e-12, 1.3754148584033596091e-30,
                2.5240981684411205809e-100, 6.7285525894442083831e-250),
    (2, 0.3): (0.54951243537639936773, 0.073265234505887111612, 0.0022346903988806742642,
               4.1483597334423398103e-6, 1.1043969001347348688e-11, 9.0249113507381139606e-29,
               1.3209656265796234803e-96, 9.5996421409380887197e-244),
    (2, 1): (0.64760860622918925253, 0.13271001423251662084, 0.0068515658073968167325,
             0.000024906676227863106028, 1.7436213874470326929e-10, 9.8799979339510357782e-27,
             1.1495652912856711276e-92, 2.3377175805072468509e-237),
    (2, 5): (0.91763196606925606443, 0.50366639852155195355, 0.09580255304409438271,
             0.002006588325361277224, 1.8748848908316912929e-7, 2.0449504323617844779e-21,
             3.6528963022433157825e-82, 3.5953670296281424207e-220),
    (2, 20): (0.99977189232369315265, 0.9852144667303144813, 0.81029237426123962763,
              0.2480492757364429877, 0.0020168686160495865058, 2.6913406955685654072e-13,
              1.1156319246494586145e-64, 1.348626275399367262e-190),
    (2, 100): (0.99999999999999999982, 0.9999999999999896453, 0.99999999990057448768,
               0.99999925098782743657, 0.99565570340284547994, 0.043836072660166386745,
               1.54461293271160112e-30, 1.353209868094153246e-126),
    (2, 400): (1.0, 1.0, 1.0, 1.0, 1.0, 0.99999999999999993753, 0.075569321347401982223,
               2.6883157247445692597e-44),
    (2, 2000): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (3, 0.01): (0.50148069997217042071, 0.050584551920853358459, 0.0010257628777782652184,
                1.0501797040432064177e-6, 1.0992218107879656397e-12, 1.2529359267579709258e-30,
                1.9749092856513259884e-100, 4.397439756586544714e-250),
    (3, 0.3): (0.54275762480938554856, 0.068226228794563483801, 0.0019043168010475953712,
               3.1514161904502469863e-6, 7.2497899014619875793e-12, 4.7495262929390156531e-29,
               5.09716513312057346e-97, 2.9134548905150703049e-244),
    (3, 1): (0.63003734949907274664, 0.11565883736603601536, 0.0052192888137027359863,
             0.000016332006964275833178, 9.6058453849797955103e-11, 4.2350888349980299189e-27,
             3.502950562915524189e-93, 5.5040072852291580748e-238),
    (3, 5): (0.8971648429039291121, 0.44050898454025216734, 0.071655781539691452857,
             0.0012473251690448533749, 9.3589886913703085355e-8, 7.4552954659427484488e-22,
             8.7929510623078910983e-83, 6.3961539379417532982e-221),
    (3, 20): (0.99953216447074611277, 0.97507030440735897952, 0.75067860177830670068,
              0.19390639755730448415, 0.0012048470246941001831, 1.060966638774518075e-13,
              2.5543039849267024156e-65, 2.1096233656391331609e-191),
    (3, 100): (0.99999999999999999813, 0.99999999999992248135, 0.99999999953152229111,
               0.99999783952531305537, 0.99261869192072087845, 0.031920437806840542466,
               4.9039476417778328975e-31, 2.4219685910627169911e-127),
    (3, 400): (1.0, 1.0, 1.0, 1.0, 1.0, 0.99999999999999976546, 0.061309958785879105888,
               8.9714473821767550314e-45),
    (3, 2000): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (4, 0.01): (0.50131319223015117777, 0.050490456538216140691, 0.0010209361910045269641,
                1.0398135453806773286e-6, 1.0771106954633642198e-12, 1.1919248007166393873e-30,
                1.7122215740742313389e-100, 3.3486130575620901234e-250),
    (4, 0.3): (0.53815346834382559452, 0.065316875431690151024, 0.0017267741103834879489,
               2.6469382958071711972e-6, 5.4657771719291170869e-12, 2.9847210183488618951e-29,
               2.4222037521831477019e-97, 1.1033471557607558e-244),
    (4, 1): (0.61764790386487622478, 0.10548450444623144041, 0.0043332270654473468037,
             0.000012103579707981191393, 6.1769946023629691932e-11, 2.1887645526290433699e-27,
             1.3210697546044572337e-93, 1.6219424733375783927e-238),
    (4, 5): (0.88005140261075226589, 0.39618851750406481479, 0.057071785266256570982,
             0.00085651296497357206779, 5.3493825727292752905e-8, 3.233504107942641937e-22,
             2.5998469180223041368e-83, 1.4174008433245147798e-221),
    (4, 20): (0.99921309571581473612, 0.96401372814542151845, 0.69846421551059859224,
              0.15645687829332174788, 0.00077697922740497457487, 4.7770050815774165015e-14,
              7.0212693191872839861e-66, 4.051785044285623559e-192),
    (4, 100): (0.9999999999999999891, 0.9999999999996435979, 0.99999999844764152144,
               0.9999950258978740577, 0.98876169041538052818, 0.023920711111918826523,
               1.758018452269861064e-31, 5.1195272178062736994e-128),
    (4, 400): (1.0, 1.0, 1.0, 1.0, 1.0, 0.99999999999999927083, 0.050405881278814219248,
               3.2921825884821849088e-45),
    (4, 2000): (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
}

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

    @pytest.mark.parametrize("df,ncp", list(NCX2_SF))
    def test_mpmath_grid(self, df, ncp):
        # from the body of the distribution to tails of 1e-250, past sqrt(hx)
        got = [noncentral_chi2_sf(df, ncp, 2.0 * float(sp.gammainccinv(0.5 * df, alpha)))
               for alpha in NCX2_ALPHAS]
        np.testing.assert_allclose(got, NCX2_SF[df, ncp], rtol=5e-13, atol=0.0)

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
