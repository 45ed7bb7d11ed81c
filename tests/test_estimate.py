import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from trigof import estimate as E
from trigof import families as F
from trigof.errors import (ConfigurationError, DegenerateSampleError,
                           DomainError, EstimationError)
from trigof._batch import batch_fit
from trigof.estimate import EstimatorKind, FitResult, KnownMask, fit
from trigof.gof import run_test
import former_estimate as FE
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


    def test_inverse_gaussian_precision_that_is_not_positive_fails(self):
        # at a known mu, mean(1/x) - (2 - xbar/mu)/mu = mean((x - mu)^2 / (x mu^2))
        # rounds below zero on data within 1e-9 of mu
        mask = KnownMask.from_names("inverse-gaussian", {"mu": 1.0})
        x = 1.0 + 1e-9 * np.random.default_rng(3).standard_normal(50)
        good = F.sample("inverse-gaussian", (1.0, 2.0), 50, 8)
        thetas = batch_fit("inverse-gaussian", "ml", mask, np.stack([good, x]))
        assert np.isfinite(thetas[0]).all() and np.isnan(thetas[1, 1])
        assert thetas[0, 1] == fit("inverse-gaussian", "ml", mask, good).theta[1]
        with pytest.raises(EstimationError):
            fit("inverse-gaussian", "ml", mask, x)


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
    if name in ("log-epd", "log-laplace", "log-normal"):
        return _mm_reference(name[4:], np.log(x), known)
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


@pytest.mark.parametrize("name", MM_ROWS)
def test_mm_residual_is_the_largest_mean_moment_function(name):
    # the ML rule with psi for the score: over the free components of the
    # row's own moment equation, or of its base's on the transformed data
    fam, known = F.get_family(name), MM_REQUIRED_KNOWN.get(name, {})
    mask = KnownMask.from_names(name, known) if known else KnownMask.none(fam.n_params)
    x = F.sample(name, FAMILY_THETAS[name], 200, np.random.SeedSequence([62, 0]))
    res = fit(name, "mm", mask, x)
    theta, d, r = res.theta, fam.through("mm"), E.row(name, "mm", mask)
    if d is not None:
        fam, theta, x, r = d.base, d.to_base(theta), d.data.to(x), r.base
    psi = E.moment_fns(fam, np.array([theta]))(x)
    free = [j for j, p in enumerate(r.names) if not r.mask.is_known(fam, p)]
    assert free and res.residual == max(abs(float(np.mean(psi[j][0]))) for j in free)


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
        res = fit("gamma", "ml", KnownMask((True, True), (2.0, 1.0)), x)
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
        outside, flat = E.rejected_rows(E.row("uniform", "ml", mask), x)
        assert outside.tolist() == [False, True] and not flat.any()

    def test_an_end_named_by_a_parameter_is_closed_and_a_constant_end_open(self):
        known = KnownMask.from_names("uniform", {"a": 0.0, "b": 1.0})
        outside = E.rejected_rows(E.row("uniform", "ml", known), np.array([[0.0, 0.5, 1.0]]))[0]
        assert outside.tolist() == [False]
        for name, x in (("beta", [0.0, 0.5]), ("beta", [0.5, 1.0]), ("pareto", [1.0, 2.0])):
            outside = E.rejected_rows(E.row(name), np.array([x]))[0]
            assert outside.tolist() == [True], (name, x)

    def test_a_known_value_outside_the_space_is_refused(self):
        with pytest.raises(DomainError, match=re.escape("gamma needs beta > 0, got -1.0")):
            KnownMask.from_names("gamma", {"beta": -1.0})
        with pytest.raises(DomainError, match="half-normal needs delta > 0"):
            KnownMask.from_names("half-normal", {"delta": 0.0})
        # each value on its own: uniform's ends are not checked against each other
        KnownMask.from_names("uniform", {"a": 2.0, "b": 1.0})

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


def _loglik(name, theta, x):
    return float(np.sum(F.get_family(name).logpdf(tuple(theta), x)))


_GRID = np.geomspace(1e-3, 1e3, 41)  # the first span of the grid at scale 1


def _one_row(phi):
    """phi of a scalar, from a phi over rows called on one row: the reference
    scans evaluate the very same values."""
    return lambda x: float(phi(np.array([x]), np.arange(1))[0])


class TestScanRoot:
    """``_roots`` against the former scalar scan (``former_estimate._scan_root``,
    refined by scipy's brentq), on single rows and on mixed blocks."""

    ROOTS = [(2.2e-3, 1.0), (0.05, 1.0), (0.7, 1.0), (1.3, 1.0), (37.0, 1.0),
             (800.0, 1.0), (3.0, 0.01), (2.5e-5, 1.0), (4e6, 1.0), (1e-7, 1.0),
             (_GRID[25], 1.0), (_GRID[12], 1.0)]

    @pytest.mark.parametrize("root,scale", ROOTS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_root_matches_reference(self, root, scale, sign):
        def phi(z, j):
            return sign * (np.log(z) - math.log(root))

        def linear(z, j):
            return sign * (z - root)

        for f in (phi, linear):
            x, _, conv = E._roots(f, np.array([scale]))
            x_ref, _, conv_ref = FE._scan_root(_one_row(f), scale=scale)
            assert x[0] == x_ref and conv[0] == conv_ref
            assert conv[0]

    def test_a_mixed_block_gives_each_row_its_single_row_result(self):
        # rows with a root in every span, one with no sign change (its best
        # grid point, unconverged) and one never finite (NaN)
        roots = np.array([r for r, _ in self.ROOTS] + [5.0, 1.0])
        scales = np.array([s for _, s in self.ROOTS] + [1.0, 1.0])
        kinds = np.array([0] * len(self.ROOTS) + [1, 2])

        def phi(z, j):
            v = np.log(z) - np.log(roots[j])
            return np.where(kinds[j] == 0, v, np.where(kinds[j] == 1, v ** 2 + 1.0, np.nan))

        x, iters, conv = E._roots(phi, scales)
        for r in range(len(roots)):
            one = E._roots(lambda z, j: phi(z, np.full(len(j), r)), scales[r:r + 1])
            assert (x[r], iters[r], conv[r]) == (one[0][0], one[1][0], one[2][0]) or (
                np.isnan(x[r]) and np.isnan(one[0][0]))
        assert conv[:-2].all() and not conv[-2:].any()
        assert np.isnan(x[-1]) and not np.isnan(x[-2])

    @pytest.mark.parametrize("a,b,expect", [
        (0.01, 3.0, 3.0),           # cell above the centre is nearer
        (0.5, 30.0, 0.5),           # cell below the centre is nearer
        (1.0 / 1.7, 1.7, 1.7),      # equally near: the upper cell wins
    ])
    def test_two_sign_changes_take_bracket_nearest_centre(self, a, b, expect):
        def phi(z, j):
            return (np.log(z) - math.log(a)) * (np.log(z) - math.log(b))

        x, _, conv = E._roots(phi, np.ones(1))
        assert conv[0]
        assert x[0] == pytest.approx(expect, rel=1e-12)

    def test_no_sign_change_returns_best_point_unconverged(self):
        def phi(z, j):
            return (np.log(z) - math.log(5.0)) ** 2 + 1.0

        x, iters, conv = E._roots(phi, np.ones(1))
        x_ref, iters_ref, _ = FE._scan_root(_one_row(phi))
        assert not conv[0]
        assert x[0] == x_ref and iters[0] == iters_ref == 3 * 41

    def test_never_finite_raises(self, monkeypatch):
        x, _, conv = E._roots(lambda z, j: np.full(len(j), np.nan), np.ones(1))
        assert np.isnan(x[0]) and not conv[0]
        # a row without a finite estimate: fit raises, batch_fit gives NaN
        monkeypatch.setitem(E._ML_PROFILES, "weibull", lambda known, values, X, iters: (
            np.full((len(X), 2), np.nan), np.zeros(len(X), dtype=bool)))
        sample = F.sample("weibull", (2.0, 1.5), 50, 1)
        with pytest.raises(EstimationError):
            fit("weibull", "ml", None, sample)
        assert np.isnan(batch_fit("weibull", "ml", None, sample[None, :])).all()

    @pytest.mark.parametrize("cell", [18, 19, 20, 21])
    def test_few_evaluations_before_brent(self, cell, monkeypatch):
        root = math.sqrt(_GRID[cell] * _GRID[cell + 1])
        calls = []
        before_brent = []
        original = E._brent

        def phi(z, j):
            calls.append(z)
            return np.log(z) - math.log(root)

        def brent(*args, **kwargs):
            before_brent.append(len(calls))
            return original(*args, **kwargs)

        monkeypatch.setattr(E, "_brent", brent)
        x, _, conv = E._roots(phi, np.ones(1))
        assert conv[0] and x[0] == pytest.approx(root, rel=1e-12)
        assert len(before_brent) == 1 and before_brent[0] <= 6


def _scan_root_low_first(phi, scale=1.0, lo=1e-3, hi=1e3, points=41):
    """The full-grid scan that keeps the first bracket counted up from the
    low end of the grid, as the fitters' scan did before it searched outward
    from the centre."""
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


class TestScanRootInFitters:
    @pytest.mark.parametrize("name", ["epd", "log-epd", "student-t", "logistic",
                                      "weibull", "gompertz", "lomax",
                                      "kumaraswamy", "half-epd"])
    def test_fit_unchanged_against_reference_scan(self, name):
        # the former scalar fitter, whose scan and brentq _roots replaced.  Its
        # student-t EM stops on a 1e-10 step and so ends up to about 1e-8 short
        # of the maximum that the Newton solve reaches: there theta is held to
        # 1e-8 and the likelihood may not be lower
        x = F.sample(name, FAMILY_THETAS[name], 200, 31)
        theta, ref = fit(name, "ml", None, x).theta, FE.former_fit(name, None, x).theta
        np.testing.assert_allclose(theta, ref, rtol=1e-8 if name == "student-t" else 1e-10,
                                   atol=0.0)
        ll, ll_ref = _loglik(name, theta, x), _loglik(name, ref, x)
        assert ll >= ll_ref - 1e-12 * abs(ll_ref)

    @pytest.mark.parametrize("name", ["exp-gamma", "gg"])
    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("seed", [1000, 1002])
    def test_no_spurious_small_shape_root(self, name, n, seed, monkeypatch):
        x = F.sample(name, FAMILY_THETAS[name], n, seed)
        theta = fit(name, "ml", None, x).theta
        assert theta[0] > 0.1
        run_test(name, "ml", None, x)  # raised DomainError at the spurious root
        monkeypatch.setattr(FE, "_scan_root", _scan_root_low_first)
        theta_ref = FE.former_fit(name, None, x).theta
        assert _loglik(name, theta, x) > _loglik(name, theta_ref, x)

    _INTEGERS = np.round(3.0 * np.random.default_rng(5).standard_normal(200))

    @pytest.mark.parametrize("x, lam", [
        (np.array([0.0, 0.1, 1.0, 2.9]), 1.5),  # its mean, the first start, is an observation
        (_INTEGERS, 1.0), (_INTEGERS, 1.5), (_INTEGERS, None)])
    def test_epd_location_on_tied_data(self, x, lam):
        # the location equation's slope is not finite at an observation when lam < 2
        mask = None if lam is None else KnownMask((True, False, False), (lam, math.nan, math.nan))
        res, ref = fit("epd", "ml", mask, x), FE.former_fit("epd", mask, x)
        assert res.converged == ref.converged
        ll, ll_ref = _loglik("epd", res.theta, x), _loglik("epd", ref.theta, x)
        assert ll >= ll_ref - 1e-12 * abs(ll_ref)
        if lam != 1.0:  # at lam = 1 the equation steps: mu is its jump within xtol only
            np.testing.assert_allclose(res.theta, ref.theta, rtol=1e-10, atol=0.0)
        np.testing.assert_array_equal(batch_fit("epd", "ml", mask, np.vstack([x, x[::-1]]))[0],
                                      res.theta)

    @pytest.mark.parametrize("mask", [None, KnownMask((False, True), (math.nan, 1e-10))])
    def test_gamma_shape_far_beyond_the_grid(self, mask):
        # the digamma equations have analytic brackets: a shape of 1e10 is
        # reached, and one past the cap of 1e6 is flagged with beta free only
        x = 1.0 + 1e-9 * np.random.default_rng(3).standard_normal(50)
        res, ref = fit("gamma", "ml", mask, x), FE.former_fit("gamma", mask, x)
        assert res.converged == ref.converged == (mask is not None)
        np.testing.assert_allclose(res.theta, ref.theta, rtol=1e-10, atol=0.0)

    def test_epd_fit_makes_at_most_one_cusp_search(self, monkeypatch):
        x = F.sample("epd", (1.5, 0.3, 2.0), 2_000, 41)
        below_one = []
        mu_hat = E._epd_mu_hat

        def counting(X, lam, start):
            below_one.extend(lam[lam < 1.0])
            return mu_hat(X, lam, start)

        monkeypatch.setattr(E, "_epd_mu_hat", counting)
        res = fit("epd", "ml", None, x)
        assert res.converged
        assert len(below_one) <= 1


def _desk_workloads():
    """The benchmark's input generator (numpy only), loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("desk_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(values, shape):
    x = np.array(values)
    if shape == "rounded":  # ties
        return np.round(x)
    if shape == "mirrored":
        return np.concatenate([x[: len(x) // 2], -x[: len(x) // 2]])
    return x


class TestEpdGap:
    """``_epd_gap``'s branch-and-bound against the scan of every gap midpoint
    (``former_estimate.scan_gap``), which it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=2, max_size=60),
           shape=st.sampled_from(["plain", "rounded", "mirrored"]),
           lam=st.floats(0.05, 0.999))
    def test_same_gap_as_the_scan(self, values, shape, lam):
        x, lam = _row(values, shape), np.float64(lam)
        if len(np.unique(x)) < 2:
            return  # no gap: the fit rejects a constant row before
        assert E._epd_gap(x, lam)[1] == FE.scan_gap(x, lam)

    @pytest.mark.parametrize("name", ["epd", "log-epd"])
    def test_same_gap_on_the_desk_data(self, name):
        wl = _desk_workloads()
        lam = np.float64(0.7079457843841379)  # the grid point the fits reach below 1
        for ds in range(wl.POOL["desk-test"]):
            x = wl.desk_data(f"{name}/2000", ds)
            x = np.log(x) if name == "log-epd" else x
            assert E._epd_gap(x, lam)[1] == FE.scan_gap(x, lam)

    @staticmethod
    def _scanning(monkeypatch):
        """Route the fits through the scan; returns the list of its calls."""
        calls = []

        def scan(x, lam):
            calls.append(lam)
            return np.unique(x), FE.scan_gap(x, lam)

        monkeypatch.setattr(E, "_epd_gap", scan)
        return calls

    @pytest.mark.parametrize("name", ["epd", "log-epd"])
    @pytest.mark.parametrize("n", [30, 200, 2000])
    @pytest.mark.parametrize("lam0", [1.5, 0.7])
    def test_fit_is_the_scans_to_the_bit(self, name, n, lam0, monkeypatch):
        theta = (lam0,) + FAMILY_THETAS[name][1:]
        x = F.sample(name, theta, n, 17)
        X = np.stack([x, F.sample(name, theta, n, 18)])
        est = E.row(name, EstimatorKind.ML, KnownMask.none(3)).estimator
        res, rows = fit(name, "ml", None, x), est(X)
        calls = self._scanning(monkeypatch)
        ref, ref_rows = fit(name, "ml", None, x), est(X)
        assert calls  # the fits reach lam < 1
        assert res.theta.tobytes() == ref.theta.tobytes()
        assert (res.iterations, res.converged, res.residual) == (
            ref.iterations, ref.converged, ref.residual)
        for got, want in zip(rows, ref_rows):
            assert got.tobytes() == want.tobytes()

    def test_known_lambda_block_is_the_scans_to_the_bit(self, monkeypatch):
        mask = KnownMask.from_names("epd", {"lambda": 0.8})
        X = np.stack([F.sample("epd", (0.8, 0.3, 2.0), 60, np.random.SeedSequence([12, r]))
                      for r in range(5)])
        est = E.row("epd", EstimatorKind.ML, mask).estimator
        rows, thetas = est(X), batch_fit("epd", "ml", mask, X)
        calls = self._scanning(monkeypatch)
        ref_rows, ref_thetas = est(X), batch_fit("epd", "ml", mask, X)
        assert len(calls) == 10
        assert thetas.tobytes() == ref_thetas.tobytes()
        for got, want in zip(rows, ref_rows):
            assert got.tobytes() == want.tobytes()

    def test_memory_stays_bounded_at_n_2e4(self):
        x = np.random.default_rng(23).standard_normal(20_000)
        tracemalloc.start()
        try:
            mu, iters = E._epd_mu_hat(x[None, :], np.array([0.7]), x[None, :].mean(axis=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(mu[0]) and iters[0] >= 19_999
        assert peak < 8 * 2**20


def _rows_phi(*fs):
    """phi(z, j) over rows, row r evaluated by the scalar function fs[r]."""
    return lambda z, j: np.array([fs[r](v) for r, v in zip(j, z)], dtype=float)


def _rows_fd(*fds):
    """fd(z, j) over rows, row r's (f, f') from the scalar function fds[r]."""
    def fd(z, j):
        f, d = zip(*(fds[r](v) for r, v in zip(j, z)))
        return np.array(f, dtype=float), np.array(d, dtype=float)
    return fd


def _same_bits(one, block, r=1):
    """Each output of a one-row call is row r of the block call, bit for bit."""
    for got, want in zip(one, block):
        assert got.shape == (1,) and got.dtype == want.dtype
        assert got.tobytes() == want[r:r + 1].tobytes(), (got, want[r])


class TestOneRowPaths:
    """A solver given one row takes its scalar path (``_brent_one``,
    ``_newton_one``, ``_student_newton_one``); each case here runs a row on it and
    as the middle row of a three-row block, on the row path, and asserts the
    same bits: root, iterations and flag."""

    @staticmethod
    def _brent_both(f, a, b, fa=None, fb=None, **tol):
        fa = f(np.float64(a)) if fa is None else fa
        fb = f(np.float64(b)) if fb is None else fb
        others = (lambda z: z - 0.25, lambda z: z ** 3 - 0.5)  # roots in (0, 1)
        one = E._brent(_rows_phi(f), np.array([a]), np.array([b]), np.array([fa]),
                       np.array([fb]), **tol)
        block = E._brent(_rows_phi(others[0], f, others[1]), np.array([0.0, a, 0.0]),
                         np.array([1.0, b, 1.0]), np.array([-0.25, fa, -0.5]),
                         np.array([0.75, fb, 0.5]), **tol)
        _same_bits(one, block)
        return one

    @pytest.mark.parametrize("nan", [np.nan, -np.nan], ids=["nan", "negative-nan"])
    def test_brent_phi_turning_nan_partway(self, nan):
        seen = []

        def f(z):
            v = nan if 0.55 < z < 0.95 else z ** 3 - 0.2
            seen.append((z, v))
            return v

        root, iters, conv = self._brent_both(f, 0.0, 1.0)
        # the row stops at its last point of finite phi, unconverged, whatever
        # the NaN's sign bit; it used to close on an edge of the NaN region
        first_nan = next(i for i, (z, v) in enumerate(seen) if np.isnan(v))
        assert not conv[0] and root[0] == seen[first_nan - 1][0]
        assert iters[0] == first_nan - 1  # the steps taken; the ends were given

    @pytest.mark.parametrize("a,b,expect", [(0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)],
                             ids=["at-a", "at-b"])
    def test_brent_exact_zero_at_an_end(self, a, b, expect):
        root, iters, conv = self._brent_both(lambda z: z, a, b)
        assert (root[0], iters[0], conv[0]) == (expect, 0, True)

    def test_brent_exact_zero_on_a_step(self):
        root, iters, conv = self._brent_both(lambda z: z - 0.5, 0.0, 1.0)
        assert (root[0], conv[0]) == (0.5, True) and iters[0] >= 1

    @pytest.mark.parametrize("fa,fb", [(1.0, 2.0), (-1.0, np.inf), (np.nan, 1.0), (-0.0, -1.0)],
                             ids=["no-sign-change", "infinite-end", "nan-end", "signed-zero"])
    def test_brent_without_a_bracket(self, fa, fb):
        root, iters, conv = self._brent_both(lambda z: z, 0.0, 1.0, fa=fa, fb=fb)
        if fa == 0.0:  # -0.0 is an exact zero
            assert (root[0], conv[0]) == (0.0, True)
        else:
            assert np.isnan(root[0]) and (iters[0], conv[0]) == (0, False)

    def test_brent_runs_to_the_iteration_cap(self):
        # a sign step between two doubles and no tolerance: never done
        root, iters, conv = self._brent_both(lambda z: 1.0 if z > 1.0 / 3.0 else -1.0,
                                             0.0, 1.0, xtol=0.0, rtol=0.0)
        assert (iters[0], conv[0]) == (E._MAX_ITER, False)
        assert root[0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    @staticmethod
    def _newton_both(fd, x, lo, hi, xtol=1e-14):
        others = (lambda z: (z - 0.3, 1.0), lambda z: (z ** 3 - 0.5, 3.0 * z ** 2))
        one = E._newton(_rows_fd(fd), np.array([x]), np.array([lo]), np.array([hi]), xtol)
        block = E._newton(_rows_fd(others[0], fd, others[1]), np.array([0.5, x, 0.5]),
                          np.array([0.0, lo, 0.0]), np.array([1.0, hi, 1.0]), xtol)
        _same_bits(one, block)
        return one

    def test_newton_zero_slope_divides_to_inf_not_raises(self):
        # f'(0) = 0: the step -f/f' is inf, outside the bracket, so it bisects
        with np.errstate(all="raise"):
            root, iters, conv = self._newton_both(lambda z: (z ** 3 - 0.2, 3.0 * z ** 2),
                                                  0.0, -1.0, 1.0)
        assert root[0] == pytest.approx(0.2 ** (1 / 3), rel=1e-13) and iters[0] > 2 and conv[0]

    @pytest.mark.parametrize("start", [0.5, 0.25], ids=["at-start", "on-a-step"])
    def test_newton_f_exactly_zero(self, start):
        root, iters, conv = self._newton_both(lambda z: (2.0 * (z - 0.5), 2.0), start, 0.0, 1.0)
        assert root[0] == 0.5 and iters[0] == (1 if start == 0.5 else 2) and conv[0]

    def test_newton_step_leaving_the_bracket_bisects(self):
        # from 1.5 Newton's step on arctan lands at -1.69, below the bracket
        x = np.float64(1.5)
        assert x - math.atan(x) * (1.0 + x * x) < -1.0
        root, iters, _ = self._newton_both(lambda z: (math.atan(z), 1.0 / (1.0 + z * z)),
                                           1.5, -1.0, 2.0)
        assert abs(root[0]) < 1e-14 and iters[0] > 2

    def test_newton_infinite_slope_bisects(self):
        # a step of f/inf = 0 would stop at the start; the row path bisects
        root, iters, _ = self._newton_both(lambda z: (z - 0.3, np.inf if z == 0.8 else 1.0),
                                           0.8, 0.0, 1.0)
        assert root[0] == pytest.approx(0.3) and iters[0] > 1

    def test_newton_nan_f_stops_the_row(self):
        # a NaN f stops the row, unconverged, at its last point of finite f:
        # here the slope 1/4 steps from 0.3 to 0.7, where f is NaN (it used to
        # read as not above 0 and move the lower end on to the NaN region's edge)
        root, iters, conv = self._newton_both(
            lambda z: (np.nan if 0.6 < z < 0.9 else z - 0.4, 0.25), 0.3, 0.0, 1.0)
        assert (root[0], iters[0], conv[0]) == (0.3, 2, False)
        # NaN at the start: no point of finite f
        root, iters, conv = self._newton_both(
            lambda z: (np.nan if z > 0.9 else z - 0.4, 1.0), 0.95, 0.0, 1.0)
        assert np.isnan(root[0]) and (iters[0], conv[0]) == (1, False)

    def test_newton_non_finite_slope_at_tied_epd_data(self):
        # the EPD location equation's slope (lam-1) sum |d|^(lam-2) is not
        # finite where the trial location sits on an observation
        base = np.round(F.sample("normal", (0.0, 2.0), 40, 5))
        X = np.stack([base + 0.3, base, base * 1.5])
        lam, start = np.array([1.7, 1.5, 1.3]), np.array([0.3, 0.0, 0.0])
        d = start[1] - X[1]
        with np.errstate(all="ignore"):
            assert not np.isfinite(0.5 * np.sum(np.sign(d) * np.abs(d) ** 0.5 / d))
        one = E._epd_mu_hat(X[1:2], lam[1:2], start[1:2])
        _same_bits(one, E._epd_mu_hat(X, lam, start))
        assert one[1][0] > 1

    @pytest.mark.parametrize("mu_known,sigma_known", [(False, False), (True, False),
                                                      (False, True)],
                             ids=["free", "mu-known", "sigma-known"])
    def test_student_em(self, mu_known, sigma_known):
        X = np.stack([F.sample("student-t", (lam, 0.1, 1.5), 60, np.random.SeedSequence([4, r]))
                      for r, lam in enumerate((3.0, 5.0, 8.0))])
        lam, mu, sigma = np.array([3.0, 5.0, 8.0]), np.median(X, axis=1), X.std(axis=1)
        if mu_known:
            mu = np.full(3, 0.1)
        if sigma_known:
            sigma = np.full(3, 1.5)
        one = E._student_newton(X[1:2], lam[1:2], mu[1:2], sigma[1:2], mu_known, sigma_known)
        _same_bits(one, E._student_newton(X, lam, mu, sigma, mu_known, sigma_known))
        assert 1 < one[2][0] < E._MAX_ITER
        assert (one[0][0] == 0.1) == mu_known and (one[1][0] == 1.5) == sigma_known

    def test_student_em_nan_sigma_runs_to_the_cap(self):
        # sigma from 0 with mu known at an observation: 0/0 there makes sigma
        # NaN, and np.maximum's NaN keeps the stopping rule false
        X = np.stack([F.sample("student-t", (4.0, 0.1, 1.5), 30, np.random.SeedSequence([5, r]))
                      for r in range(3)])
        lam, mu, sigma = np.full(3, 4.0), X[:, 0].copy(), np.array([1.0, 0.0, 1.0])
        with np.errstate(all="ignore"):  # as Row.estimator runs it
            one = E._student_newton(X[1:2], lam[1:2], mu[1:2], sigma[1:2], True, False)
            _same_bits(one, E._student_newton(X, lam, mu, sigma, True, False))
        assert np.isnan(one[1][0]) and one[2][0] == E._MAX_ITER

    def test_scalar_paths_keep_numpy_float64(self):
        root, _, _ = E._brent_one(lambda z, j: z - 0.5, np.float64(0.0), np.float64(1.0),
                                  np.float64(-0.5), np.float64(0.5), np.float64(1e-14), 1e-16)
        assert type(root) is np.float64
        root, _, _ = E._newton_one(lambda z, j: (z - 0.5, np.ones(1)), np.float64(0.2),
                                np.float64(0.0), np.float64(1.0), np.float64(0.0), 1e-15)
        assert type(root) is np.float64

    @pytest.mark.parametrize("a,b", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan),
                                     (1.0, 2.0), (2.0, 1.0), (-np.inf, np.inf), (3.0, 3.0)])
    def test_min_and_max_give_nan_as_numpy_does(self, a, b):
        a, b = np.float64(a), np.float64(b)
        for mine, ref in ((E._min, np.minimum), (E._max, np.maximum)):
            got, want = mine(a, b), ref(a, b)
            assert got == want or (np.isnan(got) and np.isnan(want))

    def test_the_row_count_alone_chooses_the_path(self, monkeypatch):
        calls = []
        for name in ("_brent_one", "_newton_one", "_student_newton_one"):
            real = getattr(E, name)
            monkeypatch.setattr(E, name, lambda *a, _real=real, _name=name: (
                calls.append(_name), _real(*a))[1])
        X = np.stack([F.sample("student-t", (4.0, 0.1, 1.5), 50, np.random.SeedSequence([6, r]))
                      for r in range(3)])
        lam, mu, sigma = np.full(3, 4.0), np.median(X, axis=1), X.std(axis=1)
        for rows in (slice(0, 3), slice(1, 2)):
            calls.clear()
            E._student_newton(X[rows], lam[rows], mu[rows], sigma[rows], False, False)
            self._brent_both(lambda z: z - 0.3, 0.0, 1.0)  # one row, then three
            self._newton_both(lambda z: (z - 0.3, 1.0), 0.5, 0.0, 1.0)
            assert sorted(calls) == ["_brent_one", "_newton_one"] + (
                ["_student_newton_one"] if X[rows].shape[0] == 1 else [])


class TestStudentSolve:
    """The student-t (mu, sigma) solve on 40 seeded samples of n = 30 under
    the masks that leave it two components (all free, lambda known), sigma
    alone (mu known) and mu alone (sigma known)."""

    MASKS = {"free": (), "lambda": ("lambda",), "mu": ("mu",), "sigma": ("sigma",)}

    @classmethod
    def _fitted(cls, name):
        truth = dict(zip(("lambda", "mu", "sigma"), FAMILY_THETAS["student-t"]))
        X = np.stack([F.sample("student-t", tuple(truth.values()), 30,
                               np.random.SeedSequence([17, r])) for r in range(40)])
        known = {p: truth[p] for p in cls.MASKS[name]}
        mask = KnownMask.from_names("student-t", known) if known else None
        theta = E.row("student-t", "ml", mask).estimator(X)[0]
        mu0 = np.full(len(X), truth["mu"]) if "mu" in known else np.median(X, axis=1)
        s0 = np.full(len(X), truth["sigma"]) if "sigma" in known else X.std(axis=1)
        return X, theta, mu0, s0, "mu" in known, "sigma" in known

    @pytest.mark.parametrize("name", MASKS)
    def test_no_lower_likelihood_than_an_em_fixed_point(self, name):
        X, theta, mu, sigma, mu_known, sigma_known = self._fitted(name)
        lam = theta[:, 0]
        for _ in range(5_000):  # plain EM from the median and SD at the fitted lam
            w = E._col(lam) / (E._col(lam) + ((X - E._col(mu)) / E._col(sigma)) ** 2)
            if not mu_known:
                mu = (w * X).sum(axis=1) / w.sum(axis=1)
            if not sigma_known:
                sigma = np.sqrt((lam + 1.0) / lam * (w * (X - E._col(mu)) ** 2).mean(axis=1))
        for x, t, m, s in zip(X, theta, mu, sigma):
            ll, ll_em = _loglik("student-t", t, x), _loglik("student-t", (t[0], m, s), x)
            assert ll >= ll_em - 1e-14 * abs(ll_em), (t, m, s)

    @pytest.mark.parametrize("name", MASKS)
    def test_a_cold_start_gives_the_same_solution(self, name):
        # the fit's (mu, sigma) was solved from the last trial lam's; solved
        # again at its lam from the median and SD, it agrees to rounding
        X, theta, mu0, s0, mu_known, sigma_known = self._fitted(name)
        mu, sigma, iters = E._student_newton(X, theta[:, 0], mu0, s0, mu_known, sigma_known)
        assert np.all(iters < E._MAX_ITER)
        scale = np.maximum(np.abs(theta[:, 1]), theta[:, 2])  # as the step rule's
        assert np.max(np.abs(mu - theta[:, 1]) / scale) <= 1e-12
        assert np.max(np.abs(sigma / theta[:, 2] - 1.0)) <= 1e-12
