import math

import numpy as np
import pytest
from scipy import optimize

from trigof import estimate as E
from trigof import families as F
from trigof import scaling
from trigof.errors import (ConfigurationError, DegenerateSampleError,
                           DomainError, EstimationError)
from trigof.estimate import EstimatorKind, FitResult, KnownMask, fit
from trigof.gof import run_test
from conftest import FAMILY_THETAS, MM_REQUIRED_KNOWN


class TestClosedForms:
    def test_exponential_is_mean(self, rng):
        x = rng.exponential(2.0, 200)
        res = fit("exponential", "ml", None, x)
        assert res.theta[0] == np.mean(x)
        assert res.converged

    def test_pareto_reciprocal_mean_log(self, rng):
        x = F.sample("pareto", (2.4,), 300, 4)
        res = fit("pareto", "ml", None, x)
        assert res.theta[0] == pytest.approx(1.0 / np.mean(np.log(x)), rel=1e-15)

    def test_uniform_order_statistics(self, rng):
        x = rng.uniform(-2.0, 5.0, 77)
        res = fit("uniform", "ml", None, x)
        assert res.theta[0] == np.min(x)
        assert res.theta[1] == np.max(x)

    def test_laplace_median_and_mad(self, rng):
        x = rng.standard_normal(101)
        res = fit("laplace", "ml", None, x)
        assert res.theta[0] == np.median(x)
        assert res.theta[1] == pytest.approx(np.mean(np.abs(x - np.median(x))),
                                             rel=1e-15)

    def test_median_even_n_average_of_middles(self):
        x = np.array([1.0, 2.0, 10.0, 20.0])
        res = fit("laplace", "ml", None, x)
        assert res.theta[0] == 6.0

    def test_inverse_gaussian(self, rng):
        x = F.sample("inverse-gaussian", (1.0, 2.0), 500, 8)
        res = fit("inverse-gaussian", "ml", None, x)
        assert res.theta[0] == np.mean(x)
        assert res.theta[1] == pytest.approx(
            1.0 / (np.mean(1.0 / x) - 1.0 / np.mean(x)), rel=1e-12)


class TestConsistency:
    def test_gamma_within_three_standard_errors(self):
        lam0, beta0 = 2.0, 3.0
        n = 10_000
        x = F.sample("gamma", (lam0, beta0), n, 99)
        res = fit("gamma", "ml", None, x)
        # Fisher information from the information matrix of the family
        from trigof.scaling import matrices, _inv_small
        R = matrices("gamma", "ml", (lam0, beta0)).R
        se = np.sqrt(np.diag(_inv_small(R)) / n)
        assert abs(res.theta[0] - lam0) < 3.0 * se[0]
        assert abs(res.theta[1] - beta0) < 3.0 * se[1]

    @pytest.mark.parametrize("name", sorted(FAMILY_THETAS))
    def test_every_family_roughly_recovers_theta(self, name):
        th = FAMILY_THETAS[name]
        x = F.sample(name, th, 20_000, 123)
        res = fit(name, "ml", None, x)
        assert res.converged
        rel = np.max(np.abs(np.asarray(res.theta) - np.asarray(th))
                     / np.maximum(np.abs(th), 0.2))
        # 3-parameter ridges (exp-gamma, gg, epd, student) are noisy in finite n
        assert rel < (0.45 if len(th) == 3 else 0.12)


class TestScoreResidual:
    # families whose score is Lipschitz at the optimum (all but cusp cases)
    SMOOTH = [n for n in FAMILY_THETAS if n != "uniform"]

    @pytest.mark.parametrize("name", SMOOTH)
    def test_ml_residual_below_tolerance(self, name):
        th = FAMILY_THETAS[name]
        x = F.sample(name, th, 2_000, 2024)
        res = fit(name, "ml", None, x)
        # contract: |sum_i score(theta_hat, x_i)| <= 1e-8 * n per component
        assert res.residual * len(x) <= 1e-8 * len(x) * max(
            1.0, float(np.max(np.abs(x))))


class TestEquivariance:
    @pytest.mark.parametrize("name,tol", [
        ("normal", 1e-14), ("laplace", 1e-14), ("logistic", 1e-9),
        ("gumbel", 1e-9), ("epd", 1e-9),
    ])
    def test_location_scale(self, name, tol):
        th = FAMILY_THETAS[name]
        x = F.sample(name, th, 999, 17)
        a, b = 3.0, 2.0
        r1 = fit(name, "ml", None, x)
        r2 = fit(name, "ml", None, a + b * x)
        p = len(r1.theta)
        expect = np.array(r1.theta, copy=True)
        expect[p - 2] = a + b * expect[p - 2]   # location
        expect[p - 1] = b * expect[p - 1]       # scale
        assert np.max(np.abs(expect - np.asarray(r2.theta))) < tol * max(
            1.0, float(np.max(np.abs(expect))))

    def test_uniform_affine_exact(self):
        x = F.sample("uniform", (-1.0, 2.5), 500, 17)
        a, b = 3.0, 2.0
        r1 = fit("uniform", "ml", None, x)
        r2 = fit("uniform", "ml", None, a + b * x)
        # order statistics commute with monotone affine maps bit-for-bit
        assert np.array_equal(np.asarray(r2.theta),
                              a + b * np.asarray(r1.theta))


class TestMomentMatch:
    def test_epd_mm_matches_moments(self):
        x = F.sample("epd", (1.5, 0.3, 2.0), 5_000, 3)
        mask = KnownMask.from_names("epd", {"lambda": 1.5})
        res = fit("epd", "mm", mask, x)
        assert res.residual <= 1e-10
        assert res.theta[1] == np.mean(x)

    @pytest.mark.parametrize("name", ["laplace", "normal", "logistic",
                                      "log-logistic", "exponential",
                                      "half-normal", "rayleigh",
                                      "maxwell-boltzmann", "chi-squared"])
    def test_mm_residual(self, name):
        th = FAMILY_THETAS[name]
        x = F.sample(name, th, 3_000, 5)
        res = fit(name, "mm", None, x)
        scale = max(1.0, float(np.max(np.abs(x))) ** 2)
        assert res.residual <= 1e-10 * scale


def _mm_reference(name, x, known):
    """The per-family MM formulas the moment-equation estimator replaced: the
    reference it is checked against, bit for bit."""
    fam = F.get_family(name)
    if fam.base is not None:
        return _mm_reference(fam.base.name, np.log(x), known)
    if name == "log-logistic":
        lx = np.log(x)
        beta = known.get("beta", math.exp(float(np.mean(lx))))
        rho = known.get("rho", 1.0 / math.sqrt(3.0 / math.pi ** 2
                                               * float(np.mean((lx - math.log(beta)) ** 2))))
        return beta, rho
    if fam.param_names[-2:] == ("mu", "sigma"):
        lam = known.get("lambda")
        mu = known.get("mu", float(np.mean(x)))
        sigma = {
            "normal": lambda: float(np.sqrt(np.mean((x - mu) ** 2))),
            "laplace": lambda: float(np.sqrt(0.5 * np.mean((x - mu) ** 2))),
            "logistic": lambda: math.sqrt(3.0 / math.pi ** 2 * float(np.mean((x - mu) ** 2))),
            "epd": lambda: math.sqrt(F._epd_c2(lam) * float(np.mean((x - mu) ** 2))),
            "student-t": lambda: float(np.mean(np.abs(x - mu))) / F._student_c2(lam),
        }[name]
        return (() if lam is None else (lam,)) + (mu, known.get("sigma") or sigma())
    scale = {
        "half-epd": lambda: F._halfepd_c2(known["lambda"]) * float(np.mean(x)),
        "exponential": lambda: float(np.mean(x)),
        "half-normal": lambda: math.sqrt(math.pi / 2.0) * float(np.mean(x)),
        "rayleigh": lambda: math.sqrt(2.0 / math.pi) * float(np.mean(x)),
        "maxwell-boltzmann": lambda: math.sqrt(math.pi / 8.0) * float(np.mean(x)),
        "chi-squared": lambda: float(np.mean(x)),
    }[name]
    return tuple(known.values()) + (known.get(fam.param_names[-1]) or scale(),)


MM_ROWS = [name for name in sorted(FAMILY_THETAS) if F.get_family(name).has_mm]


@pytest.mark.parametrize("name", MM_ROWS)
def test_mm_estimator_matches_the_per_family_formulas(name):
    assert len(MM_ROWS) == 15
    fam, theta = F.get_family(name), FAMILY_THETAS[name]
    required = MM_REQUIRED_KNOWN.get(name, {})
    masks = [required] + [{**required, p: v} for p, v in zip(fam.param_names, theta)
                          if p not in required and fam.n_params - len(required) > 1]
    for known in masks:
        mask = KnownMask.from_names(name, known) if known else None
        for seed, n in [(0, 30), (1, 200), (2, 1000)]:
            x = F.sample(name, theta, n, np.random.SeedSequence([61, seed]))
            got = fit(name, "mm", mask, x).theta
            want = np.array(_mm_reference(name, x, known))
            if name == "log-logistic":  # ln(e^mu) != mu
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
            else:
                assert np.array_equal(got, want), (known, seed)


class TestMasks:
    def test_masked_components_bit_identical(self):
        x = F.sample("normal", (0.0, 1.0), 400, 1)
        mu0 = 0.125
        res = fit("normal", "ml", KnownMask.from_names("normal", {"mu": mu0}), x)
        assert res.theta[0] == mu0
        assert res.theta[1] == pytest.approx(
            math.sqrt(np.mean((x - mu0) ** 2)), rel=1e-15)

    def test_all_known_returns_fixed_values(self):
        x = F.sample("gamma", (2.0, 1.0), 50, 2)
        res = fit("gamma", "ml", KnownMask.all_fixed((2.0, 1.0)), x)
        assert tuple(res.theta) == (2.0, 1.0)
        assert res.iterations == 0 and res.converged

    def test_epd_lambda_known_ml(self):
        x = F.sample("epd", (1.5, 0.0, 1.0), 3_000, 6)
        res = fit("epd", "ml", KnownMask.from_names("epd", {"lambda": 1.5}), x)
        assert res.theta[0] == 1.5
        assert res.converged and res.residual < 1e-9

    def test_generic_fallback_hits_score_zero(self):
        x = F.sample("weibull", (2.0, 1.5), 2_000, 3)
        res = fit("weibull", "ml", KnownMask.from_names("weibull", {"beta": 2.0}), x)
        assert res.theta[0] == 2.0
        assert res.residual < 1e-6

    def test_student_mm_needs_lambda_above_two(self):
        x = F.sample("student-t", (4.0, 0.0, 1.0), 500, 9)
        with pytest.raises(ConfigurationError):
            fit("student-t", "mm", KnownMask.from_names("student-t", {"lambda": 1.5}), x)
        with pytest.raises(ConfigurationError):
            fit("student-t", "mm", None, x)

    def test_mm_shape_must_be_known(self):
        x = F.sample("epd", (1.5, 0.0, 1.0), 500, 10)
        with pytest.raises(ConfigurationError):
            fit("epd", "mm", None, x)

    def test_value_at_a_free_uniform_end_is_ignored(self):
        x = np.array([[-3.0, 0.5, 2.0], [0.5, 1.0, 5.0]])
        mask = KnownMask((False, True), (0.0, 4.0))  # a held, b = 4 known
        outside, flat = E.rejected_rows(F.get_family("uniform"), mask, x)
        assert outside.tolist() == [False, True] and not flat.any()

    @pytest.mark.parametrize("name", sorted(MM_REQUIRED_KNOWN))
    def test_every_mm_known_parameter_is_enforced(self, name):
        fam = F.get_family(name)
        assert fam.mm_known == tuple(MM_REQUIRED_KNOWN[name])
        x = F.sample(name, FAMILY_THETAS[name], 200, 12)
        with pytest.raises(ConfigurationError, match="to be known"):
            fit(name, "mm", None, x)
        # fixing another parameter does not stand in for the shape
        other = {fam.param_names[-1]: FAMILY_THETAS[name][-1]}
        with pytest.raises(ConfigurationError, match="to be known"):
            fit(name, "mm", KnownMask.from_names(name, other), x)
        fit(name, "mm", KnownMask.from_names(name, MM_REQUIRED_KNOWN[name]), x)


@pytest.mark.parametrize("name", ["log-epd", "log-laplace", "log-normal"])
@pytest.mark.parametrize("kind", ["ml", "mm"])
def test_log_family_is_its_base_on_log_data(name, kind):
    fam = F.get_family(name)
    assert fam.base is F.get_family(name[4:])
    known = MM_REQUIRED_KNOWN.get(name, {}) if kind == "mm" else {}
    mask = KnownMask.from_names(name, known) if known else None
    x = F.sample(name, FAMILY_THETAS[name], 150, 21)
    res, base = fit(name, kind, mask, x), fit(fam.base, kind, mask, np.log(x))
    assert np.array_equal(res.theta, base.theta)
    assert (res.iterations, res.residual) == (base.iterations, base.residual)
    ms, ms_base = scaling.matrices(name, kind, res.theta), scaling.matrices(
        fam.base, kind, res.theta)
    assert np.array_equal(ms.G, ms_base.G) and np.array_equal(ms.R, ms_base.R)


class TestErrors:
    def test_mm_unsupported_family(self):
        x = F.sample("gamma", (2.0, 1.0), 100, 1)
        with pytest.raises(ConfigurationError):
            fit("gamma", "mm", None, x)

    def test_sample_too_small(self):
        with pytest.raises(DomainError):
            fit("normal", "ml", None, np.array([1.0, 2.0]))

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit("normal", "ml", None, np.full(10, 3.0))

    def test_data_outside_support(self):
        with pytest.raises(DomainError):
            fit("gamma", "ml", None, np.array([1.0, -2.0, 3.0, 4.0]))

    def test_result_type(self):
        x = F.sample("normal", (0.0, 1.0), 100, 1)
        assert isinstance(fit("normal", "ml", None, x), FitResult)


class TestShapeBelowOne:
    def test_epd_cusp_regime(self):
        x = F.sample("epd", (0.7, 0.0, 1.0), 2_000, 11)
        res = fit("epd", "ml", None, x)
        assert res.converged
        assert abs(res.theta[0] - 0.7) < 0.15


def _scan_root_reference(phi, scale=1.0, lo=1e-3, hi=1e3, points=41):
    """The full-grid scan that keeps the first bracket counted up from the
    low end of the grid: the reference the centre-out scan is checked
    against, bit for bit, wherever phi has one sign change."""
    spans = [(lo, hi), (lo * 1e-2, hi * 1e2), (lo * 1e-5, hi * 1e5)]
    best_x, best_val = None, math.inf
    iters = 0
    with np.errstate(all="ignore"):
        for span_lo, span_hi in spans:
            grid = scale * np.geomspace(span_lo, span_hi, points)
            vals = np.full(points, math.nan)
            for i, g in enumerate(grid):
                try:
                    vals[i] = phi(g)
                except (FloatingPointError, OverflowError, DomainError, ValueError):
                    vals[i] = math.nan
                iters += 1
                if np.isfinite(vals[i]) and abs(vals[i]) < best_val:
                    best_val, best_x = abs(vals[i]), grid[i]
            ok = np.isfinite(vals)
            for i in range(points - 1):
                if ok[i] and ok[i + 1] and vals[i] == 0.0:
                    return grid[i], iters, True
                if ok[i] and ok[i + 1] and np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
                    root, res = optimize.brentq(phi, grid[i], grid[i + 1], xtol=1e-13,
                                                rtol=8.9e-16, maxiter=E._MAX_ITER,
                                                full_output=True)
                    return root, iters + res.iterations, res.converged
    if best_x is None:
        raise EstimationError("score equation could not be evaluated on the bracket grid")
    return best_x, iters, False


def _loglik(name, theta, x):
    return float(np.sum(F.get_family(name).logpdf(tuple(theta), x)))


_GRID = np.geomspace(1e-3, 1e3, 41)  # the first span of _scan_root at scale 1


class TestScanRoot:
    @pytest.mark.parametrize("root,scale", [
        (2.2e-3, 1.0), (0.05, 1.0), (0.7, 1.0), (1.3, 1.0), (37.0, 1.0),
        (800.0, 1.0), (3.0, 0.01), (2.5e-5, 1.0), (4e6, 1.0), (1e-7, 1.0),
        (_GRID[25], 1.0), (_GRID[12], 1.0),
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_root_matches_reference(self, root, scale, sign):
        def phi(x):
            return sign * (math.log(x) - math.log(root))

        def linear(x):
            return sign * (x - root)

        for f in (phi, linear):
            x, _, conv = E._scan_root(f, scale=scale)
            x_ref, _, conv_ref = _scan_root_reference(f, scale=scale)
            assert x == x_ref and conv == conv_ref
            assert conv

    @pytest.mark.parametrize("a,b,expect", [
        (0.01, 3.0, 3.0),           # cell above the centre is nearer
        (0.5, 30.0, 0.5),           # cell below the centre is nearer
        (1.0 / 1.7, 1.7, 1.7),      # equally near: the upper cell wins
    ])
    def test_two_sign_changes_take_bracket_nearest_centre(self, a, b, expect):
        def phi(x):
            return (math.log(x) - math.log(a)) * (math.log(x) - math.log(b))

        x, _, conv = E._scan_root(phi)
        assert conv
        assert x == pytest.approx(expect, rel=1e-12)

    def test_no_sign_change_returns_best_point_unconverged(self):
        def phi(x):
            return (math.log(x) - math.log(5.0)) ** 2 + 1.0

        x, iters, conv = E._scan_root(phi)
        x_ref, iters_ref, _ = _scan_root_reference(phi)
        assert not conv
        assert x == x_ref and iters == iters_ref == 3 * 41

    def test_never_finite_raises(self):
        def raises(x):
            raise ValueError("no value")

        for phi in (lambda x: math.nan, raises):
            with pytest.raises(EstimationError):
                E._scan_root(phi)

    @pytest.mark.parametrize("cell", [18, 19, 20, 21])
    def test_few_evaluations_before_brent(self, cell, monkeypatch):
        root = math.sqrt(_GRID[cell] * _GRID[cell + 1])
        calls = []
        before_brent = []
        original = optimize.brentq

        def phi(x):
            calls.append(x)
            return math.log(x) - math.log(root)

        def brentq(*args, **kwargs):
            before_brent.append(len(calls))
            return original(*args, **kwargs)

        monkeypatch.setattr(E.opt, "brentq", brentq)
        x, _, conv = E._scan_root(phi)
        assert conv and x == pytest.approx(root, rel=1e-12)
        assert len(before_brent) == 1 and before_brent[0] <= 6


class TestScanRootInFitters:
    @pytest.mark.parametrize("name", ["epd", "log-epd", "student-t", "logistic",
                                      "weibull", "gompertz", "lomax",
                                      "kumaraswamy", "half-epd"])
    def test_fit_unchanged_against_reference_scan(self, name, monkeypatch):
        x = F.sample(name, FAMILY_THETAS[name], 200, 31)
        theta = fit(name, "ml", None, x).theta
        monkeypatch.setattr(E, "_scan_root", _scan_root_reference)
        theta_ref = fit(name, "ml", None, x).theta
        assert np.array_equal(theta, theta_ref)

    @pytest.mark.parametrize("name", ["exp-gamma", "gg"])
    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("seed", [1000, 1002])
    def test_no_spurious_small_shape_root(self, name, n, seed, monkeypatch):
        x = F.sample(name, FAMILY_THETAS[name], n, seed)
        theta = fit(name, "ml", None, x).theta
        assert theta[0] > 0.1
        run_test(name, "ml", None, x)  # raised DomainError at the spurious root
        monkeypatch.setattr(E, "_scan_root", _scan_root_reference)
        theta_ref = fit(name, "ml", None, x).theta
        assert _loglik(name, theta, x) > _loglik(name, theta_ref, x)

    def test_epd_fit_makes_at_most_one_cusp_search(self, monkeypatch):
        x = F.sample("epd", (1.5, 0.3, 2.0), 2_000, 41)
        below_one = []
        mu_hat = E._epd_mu_hat

        def counting(x, lam):
            if lam < 1.0:
                below_one.append(lam)
            return mu_hat(x, lam)

        monkeypatch.setattr(E, "_epd_mu_hat", counting)
        res = fit("epd", "ml", None, x)
        assert res.converged
        assert len(below_one) <= 1
