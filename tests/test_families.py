import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp
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

# Quantiles in the tails, mpmath at 50 digits (the inverse regularized
# incomplete gamma / beta by a relative root search): {u: x at u, x at 1 - u}
# at the test point; 1 - u is the float's own complement, and the upper value
# of the u that 1 - u does not hold is read through ``Family.node``.
TAIL_QUANTILES = {
    "epd": {1e-300: (-203.86525670362856883, 204.46525670362856881),
            1e-30: (-42.792883500576652338, 43.392883500576652315),
            1e-12: (-22.42978727463682793, 23.029800235720560195),
            0.3: (-0.74344790114011141682, 1.3434479011401110569)},
    "student-t": {1e-300: (-1.9741110194287386789e+75, 1.9741110194287386789e+75),
                  1e-30: (-62426871.654317196829, 62426871.854317196829),
                  1e-12: (-1974.0091198388848136, 1974.220037683206799),
                  0.3: (-0.75297359457455822032, 0.95297359457455798015)},
}


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

    @pytest.mark.parametrize("n", [5, 200, 2000])
    def test_block_rows_are_the_per_row_draws(self, name, n):
        # two rows past the first chunk edge; a row is the former sample, the
        # quantile of that row's own uniforms, to the bit (at n = 5 every 41st
        # row and those at the edge are checked)
        th = FAMILY_THETAS[name]
        edge = F._CHUNK // n
        seeds = [np.random.SeedSequence([29, r]) for r in range(edge + 2)]
        block = F._draws(F._quantile_of(name, th), n, seeds)
        assert block.shape == (len(seeds), n)
        for r in sorted({*range(0, len(seeds), max(1, len(seeds) // 40)), edge - 1, edge}):
            u = np.random.default_rng(seeds[r]).random(n)
            assert np.array_equal(block[r], F.quantile(name, th, u))
        for r in (0, len(seeds) - 1):
            assert np.array_equal(block[r], F.sample(name, th, n, seeds[r]))

    def test_a_nan_point_reads_nan(self, name):
        th = FAMILY_THETAS[name]
        x = F.quantile(name, th, 0.3)
        for f in (F.pdf, F.cdf):
            out = f(name, th, [math.nan, x])
            assert math.isnan(out[0]) and out[1] == f(name, th, x) > 0.0
            assert math.isnan(f(name, th, math.nan))

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

    def test_score_fn_broadcasts_over_theta_rows(self, name):
        # the rule calls score_fn once with theta columns of shape (rows, 1);
        # numpy's pow rounds a per-row exponent apart from a scalar one (epd,
        # log-epd), hence two ulps rather than one
        fam = F.get_family(name)
        if fam.score_fn is None:
            return
        rows = np.array([FAMILY_THETAS[name]]) * np.array([[1.0], [1.1], [0.9]])
        X = np.stack([F.sample(fam, t, 40, np.random.SeedSequence([8, i]))
                      for i, t in enumerate(rows)])
        cols = tuple(rows[:, j, None] for j in range(fam.n_params))
        got = fam.score_fn(cols, X)
        want = np.stack([F.score(fam, t, x) for t, x in zip(rows, X)], axis=1)
        assert got.shape == (fam.n_params,) + X.shape
        np.testing.assert_array_less(np.abs(got - want), 4.5e-16 * np.maximum(1.0, np.abs(want)))

    def test_logpdf_broadcasts_over_theta_rows(self, name):
        # as cdf_fn: three theta rows in one call against per-row calls
        fam = F.get_family(name)
        rows = np.array([FAMILY_THETAS[name]]) * np.array([[1.0], [1.1], [0.9]])
        X = np.stack([F.sample(fam, t, 40, np.random.SeedSequence([8, i]))
                      for i, t in enumerate(rows)])
        cols = tuple(rows[:, j, None] for j in range(fam.n_params))
        got = fam.logpdf(cols, X)
        want = np.stack([fam.logpdf(tuple(t), x) for t, x in zip(rows, X)])
        assert got.shape == X.shape
        np.testing.assert_array_less(np.abs(got - want), 2e-16 * np.maximum(1.0, np.abs(want)))

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


@pytest.mark.parametrize("name", sorted(TAIL_QUANTILES))
@pytest.mark.parametrize("u", [1e-300, 1e-30, 1e-12, 0.3])
def test_symmetric_quantiles_hold_both_tails(name, u):
    # each side is read from its own tail probability 2 min(u, 1 - u)
    fam, theta = F.get_family(name), FAMILY_THETAS[name]
    lower, upper = TAIL_QUANTILES[name][u]
    assert fam.quantile_fn(theta, np.array([u]))[0] == pytest.approx(lower, rel=1e-13, abs=0.0)
    if 1.0 - u < 1.0:
        got = fam.quantile_fn(theta, np.array([1.0 - u]))[0]
    else:
        got = fam.node(theta, np.array([u]), np.array([0.5 - u]), True)[0][0]
    assert got == pytest.approx(upper, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", ["epd", "student-t", "beta", "kumaraswamy"])
@pytest.mark.parametrize("upper", [False, True])
def test_node_declaration_is_the_quantile_and_score(name, upper):
    # read from p and q = 1/2 - p, the same point and score where u and x still hold
    fam, theta = F.get_family(name), FAMILY_THETAS[name]
    p = np.array([1e-3, 0.01, 0.1, 0.3, 0.49])
    x, s = fam.node(theta, p, 0.5 - p, upper)
    want = fam.quantile_fn(theta, 1.0 - p if upper else p)
    np.testing.assert_allclose(x, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(s, fam.score_fn(theta, want), rtol=1e-9, atol=1e-12)
    # and on past where 1 - p rounds to 1 or 1/2 - q to 1/2
    tiny = np.array([1e-30, 1e-200])
    assert np.all(np.isfinite(fam.node(theta, tiny, 0.5 - tiny, upper)[1]))
    assert np.all(np.isfinite(fam.node(theta, 0.5 - tiny, tiny, upper)[1]))


# Student-t(5, 0, 1) quantiles at the doubles u = 1/2 + d, by mpmath at 50
# digits (the root of I_(x^2/(5+x^2))(1/2, 5/2) = 2u - 1)
STUDENT_CENTRE = [(0.51, 0.026346712342273263), (0.5001, 0.0002634305560701855),
                  (0.500001, 2.6343055242196797e-06), (0.50000001, 2.634305537377024e-08),
                  (0.5000000001, 2.6343057421036885e-10)]


@pytest.mark.parametrize("u,x", STUDENT_CENTRE)
def test_student_quantile_holds_the_centre(u, x):
    # read from the central probability 2u - 1, not from a rounded 1 - p
    got = F.get_family("student-t").quantile_fn((5.0, 0.0, 1.0), np.array([u, 1.0 - u]))
    assert got[0] == pytest.approx(x, rel=1e-13, abs=0.0)
    assert got[1] == pytest.approx(-x, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lam", [0.6, 0.9])
@pytest.mark.parametrize("upper", [False, True])
def test_epd_node_keeps_the_centre(lam, upper):
    # |x - mu| is read from the central probability 2 q and the score from
    # |x - mu| itself, where mu + (x - mu) rounds to mu: s_mu = +-|y|^(lam - 1) / sigma
    # is singular at the centre for lam < 1.  Near 0, P(|Y| < y) = 2 q has
    # y = lam^(1/lam) Gamma(1 + 1/lam) 2 q (1 + O(q^lam)).
    theta, side = (lam, 3.0, 1.5), (1.0 if upper else -1.0)
    q = np.array([1e-250, 1e-120, 1e-60])
    x, s = F.get_family("epd").node(theta, 0.5 - q, q, upper)
    y = lam ** (1.0 / lam) * math.gamma(1.0 + 1.0 / lam) * 2.0 * q
    np.testing.assert_allclose(x, 3.0 + side * 1.5 * y, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(s[1], side * y ** (lam - 1.0) / 1.5, rtol=1e-13, atol=0.0)


def _former_bisection(fam, t, us):
    """The inverse-Gaussian quantile as it was: bracketed bisection of the CDF
    to relative tolerance 1e-12, vectorized."""
    lo, hi = fam.support(t)
    a = np.full_like(us, lo + 1e-12 if np.isfinite(lo) else -1.0)
    b = a + 1.0
    for _ in range(200):
        short = F.cdf(fam, t, b) <= us
        if not short.any():
            break
        a[short] = b[short]
        b[short] = np.where(b[short] > 0, 2.0 * b[short], b[short] + 1.0)
    for _ in range(120):
        m = 0.5 * (a + b)
        low = F.cdf(fam, t, m) < us
        a = np.where(low, m, a)
        b = np.where(low, b, m)
        if np.max(b - a) <= 1e-12 * max(1.0, float(np.max(np.abs(b)))):
            break
    return 0.5 * (a + b)


class TestInverseGaussianQuantile:
    @pytest.mark.parametrize("theta", [(1.0, 2.0), (0.3, 5.0), (2.0, 0.2), (1.0, 300.0)])
    def test_draws_match_the_former_bisection(self, theta):
        # within the bisection's own stopping width, 1e-12 max(1, max x)
        fam = F.get_family("inverse-gaussian")
        u = np.random.default_rng(41).random(400)
        ref = _former_bisection(fam, theta, u)
        got = F.sample(fam, theta, 400, 41)
        np.testing.assert_array_less(np.abs(got - ref), 1e-12 * max(1.0, np.max(ref)))

    @pytest.mark.parametrize("phi", [0.01, 0.1, 2.0, 50.0, 1e4])
    def test_at_most_eight_cdf_evaluations(self, phi, monkeypatch):
        calls = []
        log_cdfs = F._ig_log_cdfs
        monkeypatch.setattr(F, "_ig_log_cdfs", lambda t, x: calls.append(1) or log_cdfs(t, x))
        u = np.concatenate([10.0 ** -np.arange(300, 0, -7), np.linspace(0.01, 0.99, 99),
                            1.0 - 10.0 ** -np.arange(2.0, 16.0)])
        x = F.get_family("inverse-gaussian").quantile_fn((1.0, phi), u)
        assert len(calls) <= 8
        lf, ls = log_cdfs((1.0, phi), x)
        np.testing.assert_allclose(np.where(u > 0.5, ls, lf),
                                   np.where(u > 0.5, np.log1p(-u), np.log(u)), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("theta", [(6.551024405480829, 168.60450626773505),
                                       (1.8961294078764357, 26.97648632826582),
                                       (6.6533555722302085, 0.018824143613710903)])
    def test_each_row_stops_at_its_own_convergence(self, theta):
        # rows that close on different steps: a row of a block reads the bits
        # it reads alone
        u = np.random.default_rng(43).random((64, 200))
        block = F.get_family("inverse-gaussian").quantile_fn(theta, u)
        for row, ur in zip(block, u):
            assert np.array_equal(row, F.get_family("inverse-gaussian").quantile_fn(theta, ur))

    def test_a_block_of_draws_keeps_its_temporaries_to_a_chunk(self):
        # 256 x 200 draws: one inverse-CDF call over the whole block would
        # hold its Newton temporaries at 51,200 values each
        seeds = [np.random.SeedSequence([47, r]) for r in range(256)]
        inverse = F._quantile_of("inverse-gaussian", (1.0, 2.0))
        tracemalloc.start()
        try:
            block = F._draws(inverse, 200, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(block).all()
        assert peak < 2 * 2**20

    def test_broadcasts_over_theta_rows(self):
        fam = F.get_family("inverse-gaussian")
        rows = np.array([[1.0, 2.0], [0.5, 7.0], [3.0, 0.4]])
        u = np.linspace(0.001, 0.999, 50)
        got = fam.quantile_fn((rows[:, :1], rows[:, 1:]), u)
        want = np.stack([fam.quantile_fn(tuple(t), u) for t in rows])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


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


def _former_sample_apd(lam, alpha, rho, mu, sigma, n, seed):
    """The per-sample APD sampler the block draws replaced."""
    u = np.clip(np.random.default_rng(seed).random(n), 1e-15, 1.0 - 1e-15)
    delta = 2.0 * alpha ** rho * (1.0 - alpha) ** rho / (alpha ** rho + (1.0 - alpha) ** rho)
    neg = u < alpha
    v = np.empty(n)
    v[neg] = 1.0 - u[neg] / alpha
    v[~neg] = (u[~neg] - alpha) / (1.0 - alpha)
    g = sp.gammaincinv(1.0 / rho, v)
    y = np.where(neg, -alpha, 1.0 - alpha) * np.power(lam * g / delta, 1.0 / rho)
    return mu + sigma * y


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

    @pytest.mark.parametrize("apd", [(1.5, 0.5, 1.5, 0.3, 2.0), (0.8, 0.6, 2.5, 0.0, 1.0),
                                     (2.0, 0.3, 1.2, -1.0, 0.5)])
    @pytest.mark.parametrize("n", [5, 200, 2000])
    def test_block_rows_are_the_former_draws(self, apd, n):
        edge = F._CHUNK // n
        seeds = [np.random.SeedSequence([31, r]) for r in range(edge + 2)]
        block = F._draws(F._apd_quantile(*apd), n, seeds)
        for r in sorted({*range(0, len(seeds), max(1, len(seeds) // 40)), edge - 1, edge}):
            assert np.array_equal(block[r], _former_sample_apd(*apd, n, seeds[r]))
        assert np.array_equal(block[-1], F.sample_apd(*apd, n, seeds[-1]))

    @pytest.mark.parametrize("lam,alpha,rho", [(1.5, 0.5, 1.5), (2.0, 0.3, 1.2), (0.8, 0.6, 2.5)])
    def test_score_is_the_log_density_gradient(self, lam, alpha, rho):
        x = np.linspace(-3.0, 4.0, 15)
        s = F.apd_score(x, lam, alpha, rho, 0.2, 1.3)
        h = 1e-6
        for i, (da, dr) in enumerate([(h, 0.0), (0.0, h)]):
            fd = (np.log(F.apd_pdf(x, lam, alpha + da, rho + dr, 0.2, 1.3))
                  - np.log(F.apd_pdf(x, lam, alpha - da, rho - dr, 0.2, 1.3))) / (2.0 * h)
            np.testing.assert_allclose(s[i], fd, rtol=0.0, atol=1e-8)


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


# every family's positive parameters and support ends, written out by hand
# for the derived families too
PARAMETER_SPACES = {
    "epd": (("lambda", "sigma"), (-math.inf, math.inf)),
    "laplace": (("sigma",), (-math.inf, math.inf)),
    "normal": (("sigma",), (-math.inf, math.inf)),
    "exp-gamma": (("lambda", "sigma"), (-math.inf, math.inf)),
    "exp-weibull": (("sigma",), (-math.inf, math.inf)),
    "gumbel": (("sigma",), (-math.inf, math.inf)),
    "logistic": (("sigma",), (-math.inf, math.inf)),
    "student-t": (("lambda", "sigma"), (-math.inf, math.inf)),
    "log-epd": (("lambda", "sigma"), (0.0, math.inf)),
    "log-laplace": (("sigma",), (0.0, math.inf)),
    "log-normal": (("sigma",), (0.0, math.inf)),
    "half-epd": (("lambda", "sigma"), (0.0, math.inf)),
    "gg": (("lambda", "beta", "rho"), (0.0, math.inf)),
    "weibull": (("beta", "rho"), (0.0, math.inf)),
    "frechet": (("beta", "rho"), (0.0, math.inf)),
    "gompertz": (("beta", "rho"), (0.0, math.inf)),
    "log-logistic": (("beta", "rho"), (0.0, math.inf)),
    "gamma": (("lambda", "beta"), (0.0, math.inf)),
    "inverse-gamma": (("lambda", "beta"), (0.0, math.inf)),
    "lomax": (("alpha", "sigma"), (0.0, math.inf)),
    "nakagami": (("lambda", "omega"), (0.0, math.inf)),
    "inverse-gaussian": (("mu", "lambda"), (0.0, math.inf)),
    "exponential": (("beta",), (0.0, math.inf)),
    "half-normal": (("delta",), (0.0, math.inf)),
    "rayleigh": (("delta",), (0.0, math.inf)),
    "maxwell-boltzmann": (("delta",), (0.0, math.inf)),
    "chi-squared": (("k",), (0.0, math.inf)),
    "pareto": (("alpha",), (1.0, math.inf)),
    "beta": (("alpha", "beta"), (0.0, 1.0)),
    "beta-prime": (("alpha", "beta"), (0.0, math.inf)),
    "kumaraswamy": (("alpha", "beta"), (0.0, 1.0)),
    "uniform": ((), ("a", "b")),
}


def test_every_parameter_space_is_the_declared_one():
    assert sorted(PARAMETER_SPACES) == sorted(F.family_names())
    for name, (positive, ends) in PARAMETER_SPACES.items():
        fam = F.get_family(name)
        assert (fam.positive, fam.ends) == (positive, ends), name
        if name != "uniform":
            assert fam.support(FAMILY_THETAS[name]) == ends


@pytest.mark.parametrize("name", [n for n in sorted(PARAMETER_SPACES) if PARAMETER_SPACES[n][0]])
@pytest.mark.parametrize("value", [-1.0, 0.0])
def test_a_positive_parameter_at_or_below_zero_is_refused(name, value):
    fam = F.get_family(name)
    for p in fam.positive:
        t = list(FAMILY_THETAS[name])
        t[fam.param_names.index(p)] = value
        message = f"{name} needs {p} > 0, got {value}"
        with pytest.raises(DomainError, match=re.escape(message)):
            F.cdf(name, t, 1.0)
        with pytest.raises(DomainError, match=re.escape(message)):
            fam.check_value(p, value)
        assert fam.outside([t, FAMILY_THETAS[name]]).tolist() == [True, False]


@pytest.mark.parametrize("t", [(2.0, 1.0), (1.0, 1.0)])
def test_uniform_needs_a_below_b(t):
    with pytest.raises(DomainError, match=re.escape(f"uniform needs a < b, got {t}")):
        F.get_family("uniform").check(t)
    assert F.get_family("uniform").outside([t]).tolist() == [True]


def test_half_normal_refuses_a_negative_delta_that_its_base_would_take():
    # 2 delta**2 is a valid gamma scale for delta < 0
    F.get_family("gamma").check((0.5, 2.0 * (-1.2) ** 2))
    with pytest.raises(DomainError, match="half-normal needs delta > 0"):
        F.cdf("half-normal", (-1.2,), 1.0)


@pytest.mark.parametrize("name", sorted(PARAMETER_SPACES))
def test_rows_outside_the_space_are_the_rows_check_refuses(name):
    fam = F.get_family(name)
    rows = []
    for i in range(fam.n_params):
        for v in (-1.0, 0.0, math.nan, 0.5):
            t = list(FAMILY_THETAS[name])
            t[i] = v
            rows.append(t)

    def refused(t):
        try:
            fam.check(t)
        except DomainError:
            return True
        return False
    assert fam.outside(rows).tolist() == [refused(t) for t in rows]
