import concurrent.futures
import contextvars
import dataclasses
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from trigof import _batch, gof, scaling
from trigof import families as F
from trigof.errors import ConfigurationError, DomainError, EstimationError, SingularityError
from trigof.estimate import EstimatorKind, KnownMask, fit, row
from trigof.gof import _single_test, replicate, run_test
from trigof.power import EMBEDDINGS, AltCase, LocalAlternative, empirical_power
from trigof.simharness import CellConfig, StudyConfig, load_config, report_rows, run_study
import former_estimate as FE
from conftest import FAMILY_THETAS, MM_REQUIRED_KNOWN


def _seeded(fam, theta, n, seed=0):
    """The block sampler of ``replicate``: row i of a block is the sample of
    replication rs[i], drawn from the key (seed, rs[i])."""
    return lambda rs: F._draws(F._quantile_of(fam, theta), n,
                               [np.random.SeedSequence([seed, r]) for r in rs])


def _bootstrap_reference(fam, kind, mask, x, reps, seed):
    """The per-replication scalar bootstrap loop that ``replicate`` replaced:
    the reference its exceed and failed counts are checked against."""
    res, _, _, tn = _single_test(fam, kind, mask, x)
    exceed = failed = 0
    tn_rows = []
    for r in range(reps):
        xr = F.sample(fam, res.theta, len(x), np.random.SeedSequence([seed, r]))
        try:
            tn_r = _single_test(fam, kind, mask, xr)[3]
        except (EstimationError, SingularityError, DomainError):
            failed += 1
            if failed > max(1, 0.01 * reps):
                raise EstimationError("more than 1% of bootstrap refits failed")
            tn_rows.append(math.nan)
            continue
        tn_rows.append(tn_r)
        if tn_r >= tn:
            exceed += 1
    return exceed, failed, np.array(tn_rows)


def _supported_rows():
    """(family, kind, known names) for every mask that leaves a parameter to
    fit, on every FAMILY_THETAS row (MM rows keep the shape they require
    known): every one has an estimator over rows."""
    for name in sorted(FAMILY_THETAS):
        fam = F.get_family(name)
        for kind in ("ml", "mm") if fam.has_mm else ("ml",):
            required = tuple(MM_REQUIRED_KNOWN.get(name, {})) if kind == "mm" else ()
            others = [p for p in fam.param_names if p not in required]
            for r in range(len(others)):
                for extra in itertools.combinations(others, r):
                    known = {p: v for p, v in zip(fam.param_names, FAMILY_THETAS[name])
                             if p in required + extra}
                    mask = KnownMask.from_names(name, known) if known else KnownMask.none(
                        fam.n_params)
                    assert row(fam, EstimatorKind(kind), mask).estimator is not None
                    yield name, kind, tuple(known)


SUPPORTED = list(_supported_rows())
EPD_15 = KnownMask.from_names("epd", {"lambda": 1.5})
EPD_08 = KnownMask.from_names("epd", {"lambda": 0.8})

BATCH_ROWS = [
    # (family, kind, mask, theta)
    ("normal", "ml", None, (-0.2, 1.7)),
    ("laplace", "ml", None, (0.5, 1.3)),
    ("laplace", "mm", None, (0.5, 1.3)),
    ("exponential", "ml", None, (1.7,)),
    ("uniform", "ml", None, (-1.0, 2.5)),
    ("logistic", "mm", None, (0.2, 0.9)),
    ("gamma", "ml", None, (2.3, 1.4)),
    ("weibull", "ml", None, (2.0, 1.5)),
    ("epd", "ml", EPD_15, (1.5, 0.3, 2.0)),
    ("epd", "mm", EPD_15, (1.5, 0.3, 2.0)),
    ("epd", "mm", EPD_08, (0.8, 0.3, 2.0)),
]
BATCH_IDS = [f"{r[0]}-{r[1]}-{r[3][0]}" for r in BATCH_ROWS]
# and every other family, all free
for name in sorted(FAMILY_THETAS):
    if (name, "ml", None, FAMILY_THETAS[name]) not in BATCH_ROWS:
        BATCH_ROWS.append((name, "ml", None, FAMILY_THETAS[name]))
        BATCH_IDS.append(f"{name}-ml-free")
# and a known shape at which numpy squares or roots a one-row block but calls
# pow on a larger one, unless the PIT spreads it over the row (``families._pow``)
for name, shape in [("weibull", "rho"), ("epd", "lambda"), ("log-epd", "lambda"),
                    ("half-epd", "lambda")]:
    for value in (2.0, 0.5):
        names = F.get_family(name).param_names
        theta = tuple(value if p == shape else v for p, v in zip(names, FAMILY_THETAS[name]))
        BATCH_ROWS.append((name, "ml", KnownMask.from_names(name, {shape: value}), theta))
        BATCH_IDS.append(f"{name}-ml-{shape}-{value:g}-known")


class TestBatchAgainstScalar:
    @pytest.mark.parametrize("fam,kind,mask,theta", BATCH_ROWS, ids=BATCH_IDS)
    def test_row_by_row(self, fam, kind, mask, theta):
        # each row's Sigma is taken at its own shapes, so the bits are the scalar test's
        X = _seeded(fam, theta, 80, seed=11)(range(12))
        tn_batch = _batch.batch_tn(fam, kind, mask, X)
        tn_scalar = np.array([_single_test(fam, kind, mask, x)[3] for x in X])
        np.testing.assert_array_equal(tn_batch, tn_scalar)

    def test_epd_ml_with_known_lambda_below_one_batches(self):
        # its location is searched gap by gap on each row of the block
        X = _seeded("epd", (0.8, 0.3, 2.0), 60, seed=12)(range(5))
        thetas = _batch.batch_fit("epd", "ml", EPD_08, X)
        for theta, x in zip(thetas, X):
            assert np.array_equal(theta, fit("epd", "ml", EPD_08, x).theta)

    @pytest.mark.parametrize("fam,kind,known", SUPPORTED,
                             ids=[f"{f}-{k}-{'-'.join(kn) or 'free'}" for f, k, kn in SUPPORTED])
    def test_every_supported_row(self, fam, kind, known):
        values = dict(zip(F.get_family(fam).param_names, FAMILY_THETAS[fam]))
        mask = KnownMask.from_names(fam, {p: values[p] for p in known}) if known else None
        X = _seeded(fam, FAMILY_THETAS[fam], 80, seed=13)(range(12))
        thetas = _batch.batch_fit(fam, kind, mask, X)
        fits = [_single_test(fam, kind, mask, x) for x in X]
        # the block fit is the single-row fit, bit for bit
        np.testing.assert_array_equal(thetas, np.array([f[0].theta for f in fits]))
        tn_batch = _batch.statistic(fam, kind, mask, thetas, X)[3]
        np.testing.assert_array_equal(tn_batch, [f[3] for f in fits])

    @pytest.mark.parametrize("fam,mask,theta,kernel", [
        ("gamma", None, (2.3, 1.4), FE._fit_gamma_batch),
        ("weibull", None, (2.0, 1.5), FE._fit_weibull_batch),
        ("epd", EPD_15, (1.5, 0.3, 2.0), lambda X: FE._fit_epd_lam_known_batch(X, 1.5))])
    def test_block_fits_match_the_former_kernels(self, fam, mask, theta, kernel):
        X = _seeded(fam, theta, 80, seed=14)(range(40))
        np.testing.assert_allclose(_batch.batch_fit(fam, "ml", mask, X), kernel(X),
                                   rtol=1e-12, atol=0.0)

    def test_supported_rows_include_every_mm_row(self):
        rows = {(f, k, tuple(kn)) for f, k, kn in SUPPORTED}
        mm = {(f, "mm", tuple(MM_REQUIRED_KNOWN.get(f, {}))) for f in FAMILY_THETAS
              if F.get_family(f).has_mm}
        assert len(mm) == 15 and mm <= rows
        # every ML row with a free parameter, all-free and masked, batches
        assert sum(k == "ml" for _, k, _ in SUPPORTED) == 104
        with pytest.raises(ConfigurationError):  # uniform has no MM estimator
            _batch.batch_fit("uniform", "mm", None, np.ones((2, 5)))


class TestRowsOutsideTheSupport:
    @pytest.mark.parametrize("fam,kind,mask,bad", [
        ("exponential", "ml", None, -0.5), ("gamma", "ml", None, -0.5),
        ("weibull", "ml", None, -0.5), ("log-normal", "mm", None, -0.5),
        ("chi-squared", "mm", None, 0.0), ("pareto", "ml", None, 0.9),
        ("uniform", "ml", KnownMask.from_names("uniform", {"a": -1.0}), -1.5)])
    def test_row_fails_alone_and_silently(self, fam, kind, mask, bad):
        X = _seeded(fam, FAMILY_THETAS[fam], 50, seed=4)(range(4))
        X[1, 7] = bad
        tn = _batch.batch_tn(fam, kind, mask, X)
        assert np.flatnonzero(~np.isfinite(tn)).tolist() == [1]
        np.testing.assert_array_equal(np.delete(tn, 1),
                                      _batch.batch_tn(fam, kind, mask, np.delete(X, 1, axis=0)))
        with pytest.raises(DomainError):
            _single_test(fam, kind, mask, X[1])

    def test_power_cell_counts_such_rows_as_failed(self):
        cell = CellConfig("exp-vs-normal", "exponential", "ml", (1.0,), 50,
                          data_family="normal", data_theta=(2.0, 1.0))
        report = run_study(StudyConfig((cell,), reps=400, seed=5)).cells[0]
        q = -2.0 * math.log(0.05)
        failed = rejected = 0
        for r in range(400):
            x = F.sample("normal", (2.0, 1.0), 50, np.random.SeedSequence([5, 0, r]))
            try:
                rejected += _single_test("exponential", "ml", None, x)[3] > q
            except DomainError:
                failed += 1
        assert (report.failed, report.rejections) == (failed, rejected) == (273, 127)
        assert not report.ok


def test_batch_module_keeps_the_functions_the_benchmark_wraps():
    # perfbench/worker.py wraps trigof._batch.batch_tn by module and name to
    # count non-finite T_n (and traces batch_fit): without them every
    # montecarlo run fails, so _batch stays until the benchmark is retargeted
    assert callable(_batch.batch_fit) and callable(_batch.batch_tn)


class TestRowsThatFail:
    """A row that fails anywhere between its fit and its T_n reads NaN alone:
    the other rows keep the bits they have without it, and the single test
    of that sample raises the type of its cause."""

    GOOD = [3, 4, 5, 6, 8, 9]

    @pytest.mark.parametrize("fam,r,error", [
        ("epd", 1, DomainError),  # lambda-hat at the grid floor: a quantile overflows
        ("epd", 20, SingularityError),
        ("student-t", 0, SingularityError),  # nu-hat = 1e8: Sigma does not hold
        ("gg", 34, DomainError)])  # beta-hat = 0 fails the family's check
    def test_block_with_one_failing_sample(self, fam, r, error):
        draw = _seeded(fam, FAMILY_THETAS[fam], 30, seed=777)
        X = draw(self.GOOD[:3] + [r] + self.GOOD[3:])
        tn = _batch.batch_tn(fam, "ml", None, X)
        assert np.flatnonzero(np.isnan(tn)).tolist() == [3]
        np.testing.assert_array_equal(np.delete(tn, 3),
                                      _batch.batch_tn(fam, "ml", None, np.delete(X, 3, axis=0)))
        assert np.isnan(_batch.batch_fit(fam, "ml", None, X)[3]).all() == (fam == "gg")
        with pytest.raises(error):
            _single_test(fam, "ml", None, X[3])
        np.testing.assert_array_equal(replicate(fam, "ml", None, 30, lambda rs: X[rs], range(7)),
                                      tn)

    def test_a_block_whose_rows_share_one_failing_sigma_raises(self):
        # every row is the sample whose nu-hat is 1e8, so all share that unit point
        x = _seeded("student-t", FAMILY_THETAS["student-t"], 30, seed=777)([0])
        X = np.repeat(x, 3, axis=0)
        with pytest.raises(SingularityError):
            _batch.batch_tn("student-t", "ml", None, X)
        assert np.isnan(replicate("student-t", "ml", None, 30, lambda rs: X[rs], range(3))).all()

    def test_a_single_test_whose_pit_is_not_finite_raises(self):
        normal = F.get_family("normal")
        blank = dataclasses.replace(normal, cdf_fn=lambda t, y: np.full(np.shape(y), np.nan))
        with pytest.raises(DomainError, match="the normal PIT is not finite on this sample"):
            run_test(blank, "ml", None, F.sample("normal", (0.0, 1.0), 50, 5))

    def test_row_with_a_nonfinite_pit(self):
        X = _seeded("gamma", (2.3, 1.4), 50, seed=6)(range(4))
        thetas = _batch.batch_fit("gamma", "ml", None, X)
        X[2, 5] = np.nan
        cn, sn, sig, tn = _batch.statistic("gamma", "ml", None, thetas, X)
        assert np.flatnonzero(np.isnan(tn)).tolist() == [2] and np.isnan(cn[2])
        assert np.isfinite(sig).all()
        rest = _batch.statistic("gamma", "ml", None, np.delete(thetas, 2, axis=0),
                                np.delete(X, 2, axis=0))
        np.testing.assert_array_equal(np.delete(tn, 2), rest[3])


def test_cell_whose_run_raised_reports_no_rate():
    cell = CellConfig("gamma-mm", "gamma", "mm", (2.0, 1.0), 50)
    report = run_study(StudyConfig((cell,), reps=100, seed=1)).cells[0]
    assert not report.ok and report.rejections == report.failed == 0
    assert math.isnan(report.rate) and math.isnan(report.se)


class TestOnePath:
    """The scalar test reaches T_n through ``_batch.statistic``; check it
    against its pieces computed the long way."""

    ROWS = [(name, kind) for name in sorted(FAMILY_THETAS) for kind in ("ml", "mm")
            if kind == "ml" or F.get_family(name).has_mm]

    @pytest.mark.parametrize("name,kind", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
    def test_single_test_against_cdf_and_sigma_from(self, name, kind):
        known = MM_REQUIRED_KNOWN.get(name, {}) if kind == "mm" else {}
        mask = KnownMask.from_names(name, known) if known else None
        x = F.sample(name, FAMILY_THETAS[name], 120, np.random.SeedSequence([17, 1]))
        res, m, sig, tn = _single_test(name, kind, mask, x)
        u = 2.0 * math.pi * F.cdf(name, res.theta, x)
        assert m.cn == pytest.approx(np.mean(np.cos(u)), rel=0.0, abs=1e-15)
        assert m.sn == pytest.approx(np.mean(np.sin(u)), rel=0.0, abs=1e-15)
        np.testing.assert_allclose(sig, scaling.sigma_from(name, kind, res.theta, mask),
                                   rtol=1e-12, atol=1e-15)
        v = np.array([m.cn, m.sn])
        assert tn == pytest.approx(len(x) * v @ np.linalg.solve(sig, v), rel=1e-12)

    def test_trig_moments_checks_theta_and_support(self):
        with pytest.raises(DomainError):
            gof.trig_moments("normal", (0.0, math.nan), [0.1, 0.2])
        with pytest.raises(DomainError):
            gof.trig_moments("uniform", (0.0, 1.0), [0.5, 1.5])
        with pytest.raises(DomainError):
            gof.trig_moments("gamma", (2.0, 1.0), [0.5, math.nan])
        m = gof.trig_moments("uniform", (0.0, 1.0), [0.0, 0.25, 1.0])
        assert (m.cn, m.sn, m.n) == pytest.approx((2.0 / 3.0, 1.0 / 3.0, 3), abs=1e-15)


class TestFailedRows:
    @pytest.mark.parametrize("fam,theta", [("gamma", (2.3, 1.4)), ("weibull", (2.0, 1.5)),
                                           ("normal", (-0.2, 1.7)), ("laplace", (0.5, 1.3)),
                                           ("uniform", (-1.0, 2.5))])
    def test_flat_row_is_the_only_failure(self, fam, theta):
        X = _seeded(fam, theta, 50, seed=3)(range(6))
        flat = X.copy()
        flat[2] = 1.5
        tn = _batch.batch_tn(fam, "ml", None, flat)
        assert np.flatnonzero(~np.isfinite(tn)).tolist() == [2]
        np.testing.assert_array_equal(np.delete(tn, 2),
                                      _batch.batch_tn(fam, "ml", None, np.delete(X, 2, axis=0)))
        out = replicate(fam, "ml", None, 50, lambda rs: flat[rs], range(6))
        assert np.count_nonzero(np.isnan(out)) == 1 and np.isnan(out[2])


class TestReplicate:
    def test_failures_are_nan_and_counted_against_the_limit(self):
        # a flat sample fails its fit: a NaN row of the block
        draw = _seeded("logistic", (0.2, 0.9), 40)

        def sample(rs):
            X = draw(rs)
            X[[i for i, r in enumerate(rs) if r in (1, 4)]] = 1.0
            return X

        tn = replicate("logistic", "ml", None, 40, sample, range(6))
        assert np.flatnonzero(np.isnan(tn)).tolist() == [1, 4]
        assert np.all(np.isfinite(np.delete(tn, [1, 4])))
        replicate("logistic", "ml", None, 40, sample, range(6), max_failed=2)
        with pytest.raises(EstimationError, match="replications failed"):
            replicate("logistic", "ml", None, 40, sample, range(6), max_failed=1)

    @pytest.mark.parametrize("fam,mask,theta", [("normal", None, (-0.2, 1.7)),
                                                ("epd", EPD_15, (1.5, 0.3, 2.0)),
                                                ("gamma", None, (2.3, 1.4))])
    def test_a_replication_does_not_depend_on_its_block(self, fam, mask, theta):
        # blocks of 256 rows: range(600) and its two halves split the rows differently
        sample = _seeded(fam, theta, 50, seed=21)
        whole = replicate(fam, "ml", mask, 50, sample, range(600))
        halves = [replicate(fam, "ml", mask, 50, sample, range(300)),
                  replicate(fam, "ml", mask, 50, sample, range(300, 600))]
        np.testing.assert_array_equal(whole, np.concatenate(halves))

    def test_sampler_errors_propagate(self):
        # the sampler's DomainError (n = 0), a type that the block's own catch
        # would read as NaN throughout
        sample = _seeded("normal", (0.0, 1.0), 0)
        with pytest.raises(DomainError):
            replicate("normal", "ml", None, 30, sample, range(3))

    def test_configuration_errors_propagate(self):
        with pytest.raises(ConfigurationError):
            replicate("gumbel", "mm", None, 30, _seeded("gumbel", (0.4, 1.1), 30), range(3))

    def test_block_that_raises_reads_nan_throughout(self, monkeypatch):
        # only a cause common to every row raises for the block; it is not redone
        calls = []

        def broken(fam, kind, mask, X):
            calls.append(len(X))
            raise SingularityError("a known shape without a Sigma")

        monkeypatch.setattr(_batch, "batch_tn", broken)
        tn = replicate("normal", "ml", None, 60, _seeded("normal", (0.0, 1.0), 60), range(5))
        assert np.isnan(tn).all() and calls == [5]
        with pytest.raises(EstimationError, match="replications failed"):
            replicate("normal", "ml", None, 60, _seeded("normal", (0.0, 1.0), 60), range(5),
                      max_failed=4)

    def _record_blocks(self, monkeypatch):
        shapes = []
        original = _batch.batch_tn

        def recording(fam, kind, mask, X):
            shapes.append(X.shape)
            return original(fam, kind, mask, X)

        monkeypatch.setattr(_batch, "batch_tn", recording)
        return shapes

    def test_blocks_stay_under_2_18_values_at_large_n(self, monkeypatch):
        shapes = self._record_blocks(monkeypatch)
        tn = replicate("normal", "ml", None, 100_000, _seeded("normal", (0.0, 1.0), 100_000),
                       range(5))
        assert shapes == [(2, 100_000), (2, 100_000), (1, 100_000)]
        assert all(rows * n <= 2 ** 18 for rows, n in shapes)
        assert np.all(np.isfinite(tn))

    def test_blocks_of_256_rows_at_n_200(self, monkeypatch):
        shapes = self._record_blocks(monkeypatch)
        replicate("normal", "ml", None, 200, _seeded("normal", (0.0, 1.0), 200), range(300))
        assert shapes == [(256, 200), (44, 200)]


class TestBootstrap:
    @pytest.mark.parametrize("fam,theta", [("gamma", (2.5, 1.5)), ("weibull", (2.0, 1.5)),
                                           ("normal", (1.0, 2.0))])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_counts_match_the_scalar_loop(self, fam, theta, seed):
        x = F.sample(fam, theta, 150, np.random.SeedSequence([404, seed]))
        res = run_test(fam, "ml", None, x, mc={"reps": 120, "seed": seed})
        exceed, failed, tn_rows = _bootstrap_reference(fam, "ml", None, x, 120, seed)
        assert (res.mc_exceed, res.mc_failed) == (exceed, failed)
        assert res.p_mc == (exceed + 1) / (120 - failed + 1)
        sample = _seeded(fam, res.fit.theta, 150, seed)
        np.testing.assert_allclose(replicate(fam, "ml", None, 150, sample, range(120)), tn_rows,
                                   rtol=1e-10, atol=0.0)

    def test_a_bootstrap_needs_a_replication(self):
        with pytest.raises(DomainError, match="mc reps must be >= 1"):
            run_test("normal", "ml", None, F.sample("normal", (0.0, 1.0), 30, 1), mc={"reps": 0})

    def test_more_than_one_percent_failures_abort(self, monkeypatch):
        x = F.sample("logistic", (0.2, 0.9), 60, 5)
        blocks = []

        def fails(fam, kind, mask, X):
            blocks.append(len(X))
            return np.full(len(X), np.nan)

        monkeypatch.setattr(_batch, "batch_tn", fails)
        with pytest.raises(EstimationError, match="more than 1 of 100"):
            run_test("logistic", "ml", None, x, mc={"reps": 100, "seed": 0})
        # the abort does not wait for the rest: one block of 256 of 1000 replications
        with pytest.raises(EstimationError, match=r"more than 10 of 1000 .* \(256/256\)"):
            run_test("logistic", "ml", None, x, mc={"reps": 1000, "seed": 0})
        assert blocks == [100, 256]


class TestEpdLambdaBelowOne:
    def test_empirical_power_matches_the_single_tests(self):
        alt = LocalAlternative(AltCase.EPD, (0.8, 0.0, 1.0), (1.0, 0.0))
        out = empirical_power(alt, 40, 20, seed=3)
        assert out["failed"] == 0 and out["reps"] == 20
        q = -2.0 * math.log(alt.alpha)
        inverse = EMBEDDINGS["epd"].drifted(alt.theta0, (1.0 / math.sqrt(40), 0.0 / math.sqrt(40)))
        X = F._draws(inverse, 40, [np.random.SeedSequence([3, r]) for r in range(20)])
        rejected = sum(run_test("epd", "ml", EPD_08, x).tn > q for x in X)
        assert out["rate"] == rejected / 20

    def test_study_cell_is_ok(self):
        cell = CellConfig("epd08", "epd", "ml", (0.8, 0.0, 1.0), 40, (("lambda", 0.8),))
        report = run_study(StudyConfig((cell,), reps=100, seed=2)).cells[0]
        assert report.ok and report.failed == 0
        q = -2.0 * math.log(0.05)
        rejected = sum(
            run_test("epd", "ml", EPD_08,
                     F.sample("epd", (0.8, 0.0, 1.0), 40, np.random.SeedSequence([2, 0, r]))).tn > q
            for r in range(100))
        assert report.rejections == rejected


def test_a_study_calls_the_quantile_once_per_chunk(monkeypatch):
    # 1000 replications at n = 200: blocks of 256, 256, 256 and 232 rows, each
    # split into one part per thread and drawn in chunks of
    # _CHUNK // (200 * threads) rows, one quantile call apiece: 40 rows on one
    # thread; 20 on two, over parts of 128, 128, 128 and 116 rows
    fam = F.get_family("normal")
    calls = {}  # thread: shapes of its block calls, in order

    def counting(t, u):
        if np.ndim(u) == 2:  # Sigma reads the quantile at the rule's nodes, a vector
            calls.setdefault(threading.get_ident(), []).append(np.shape(u))
        return fam.quantile_fn(t, u)

    monkeypatch.setitem(F._REGISTRY, "normal", dataclasses.replace(fam, quantile_fn=counting))
    cell = CellConfig("normal", "normal", "ml", (0.0, 1.0), 200)
    reports = []
    for threads, chunk, parts in [(1, 40, [256, 256, 256, 232]),
                                  (2, 20, [128] * 6 + [116, 116])]:
        monkeypatch.setattr(F, "_THREADS", threads)
        calls.clear()
        reports.append(run_study(StudyConfig((cell,), reps=1000, seed=4)).cells[0])
        assert reports[-1].ok
        assert F._CHUNK // (200 * threads) == chunk
        want = [[(min(chunk, rows - lo), 200) for lo in range(0, rows, chunk)] for rows in parts]
        if threads == 1:
            assert list(calls) == [threading.get_ident()]
            assert calls[threading.get_ident()] == [s for part in want for s in part]
        else:
            # on the pool's threads, each running whole parts in order: every
            # part here ends on a short chunk, so a thread's calls cut after
            # each short one are its parts
            assert threading.get_ident() not in calls
            got = []
            for seq in calls.values():
                ends = [i + 1 for i, s in enumerate(seq) if s[0] < chunk]
                assert ends and ends[-1] == len(seq)
                got += [seq[lo:hi] for lo, hi in zip([0] + ends, ends)]
            assert sorted(got) == sorted(want)
    assert reports[0] == reports[1]  # a report compares without its wall time


def _report(cfg):
    """The study's report rows without their wall times."""
    return [{k: v for k, v in row.items() if k != "wall_time"}
            for row in report_rows(run_study(cfg))]


class TestStudyDeterminism:
    CELLS = (
        CellConfig("normal", "normal", "ml", (0.0, 1.0), 60),
        CellConfig("gamma", "gamma", "ml", (2.0, 1.0), 60),
        CellConfig("logistic", "logistic", "ml", (0.0, 1.0), 60),
        CellConfig("gamma-vs-weibull", "gamma", "ml", (2.0, 1.0), 60,
                   data_family="weibull", data_theta=(1.0, 1.3)),
    )

    @staticmethod
    def _rows(workers, seed=9):
        return _report(StudyConfig(TestStudyDeterminism.CELLS, reps=512, seed=seed,
                                   workers=workers))

    def test_same_seed_same_report_and_workers_do_not_matter(self):
        serial = self._rows(1)
        assert serial == self._rows(1)
        assert serial == self._rows(2)
        assert all(row["ok"] for row in serial)
        assert serial != self._rows(1, seed=10)


def _on_threads(monkeypatch, run):
    """run() with the row-wise stages on one thread, then on two."""
    out = []
    for threads in (1, 2):
        monkeypatch.setattr(F, "_THREADS", threads)
        out.append(run())
    return out


class TestThreadsGiveTheSameBits:
    def test_draws_pit_and_sigma_rows(self, monkeypatch):
        seeds = [np.random.SeedSequence([31, r]) for r in range(57)]
        for fam, theta in [("inverse-gaussian", (1.0, 2.0)), ("epd", (0.7, 0.3, 2.0)),
                           ("student-t", (4.0, 0.1, 1.5))]:
            one, two = _on_threads(monkeypatch, lambda: F._draws(
                F._quantile_of(fam, theta), 150, seeds))
            np.testing.assert_array_equal(one, two)
        X = _seeded("gamma", (2.3, 1.4), 90, seed=32)(range(41))
        thetas = _batch.batch_fit("gamma", "ml", None, X)
        thetas[5] = np.nan
        one, two = _on_threads(monkeypatch, lambda: _batch.moment_rows("gamma", thetas, X))
        np.testing.assert_array_equal(np.array(one), np.array(two))
        one, two = _on_threads(monkeypatch, lambda: scaling.sigma_from("gamma", "ml", thetas))
        np.testing.assert_array_equal(one, two)
        assert np.isnan(one[5]).all() and np.isfinite(np.delete(one, 5, axis=0)).all()

    @pytest.mark.parametrize("fam,known", [("epd", {"lambda": 2.0}), ("weibull", {"rho": 2.0})])
    def test_a_block_of_three_rows_splits_into_two_and_one(self, monkeypatch, fam, known):
        names = F.get_family(fam).param_names
        theta = tuple(known.get(p, v) for p, v in zip(names, FAMILY_THETAS[fam]))
        mask = KnownMask.from_names(fam, known)
        one, two = _on_threads(monkeypatch, lambda: replicate(
            fam, "ml", mask, 70, _seeded(fam, theta, 70, seed=33), range(3)))
        np.testing.assert_array_equal(one, two)
        assert np.isfinite(one).all()

    def test_a_bootstrap_p_value(self, monkeypatch):
        x = F.sample("gamma", (2.3, 1.4), 100, 34)
        one, two = _on_threads(monkeypatch, lambda: run_test(
            "gamma", "ml", None, x, mc={"reps": 120, "seed": 35}))
        assert (one.mc_exceed, one.mc_failed, one.p_mc) == (two.mc_exceed, two.mc_failed, two.p_mc)

    def test_a_study_report(self, monkeypatch):
        cfg = StudyConfig(TestStudyDeterminism.CELLS[1:], reps=300, seed=36)
        one, two = _on_threads(monkeypatch, lambda: _report(cfg))
        assert one == two and all(row["ok"] for row in one)


def test_more_threads_than_cores_and_callers_starting_the_pool_at_once(monkeypatch):
    # seven threads, a switch every microsecond and four callers that find no
    # pool: each caller's rows keep their serial bits, and one pool is made
    # (making it sleeps, so that a caller that did not wait for it would make
    # its own)
    made = []

    class Counting(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(1)
            time.sleep(0.05)
            super().__init__(*args, **kwargs)

    seeds = [np.random.SeedSequence([38, r]) for r in range(61)]
    inverse = F._quantile_of("gamma", (2.3, 1.4))
    monkeypatch.setattr(F, "_THREADS", 1)
    want = F._draws(inverse, 90, seeds)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
    monkeypatch.setattr(F, "_POOL", None)
    monkeypatch.setattr(F, "_THREADS", 7)
    got = [None] * 4
    start = threading.Barrier(4)

    def call(i):
        start.wait(timeout=60)
        got[i] = F._draws(inverse, 90, seeds)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if F._POOL is not None:
            F._POOL.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert made == [1]
    for block in got:
        np.testing.assert_array_equal(block, want)


def test_a_part_ignores_overflow_on_a_thread_that_has_not_the_callers_errstate(monkeypatch):
    # numpy 1 keeps errstate per thread, not in the context: each part sets
    # its own, or an overflowing quantile warns on the pool's threads (and
    # pytest makes the warning an error)
    monkeypatch.setattr(F, "contextvars", types.SimpleNamespace(copy_context=contextvars.Context))
    monkeypatch.setattr(F, "_THREADS", 2)
    seeds = [np.random.SeedSequence([39, r]) for r in range(4)]
    block = F._draws(lambda u: np.exp(1e3 * u), 50, seeds)
    assert np.isinf(block).any() and not np.isnan(block).any()


def test_a_study_forked_after_the_threads_started_runs_serially():
    # a forked child inherits the thread pool without its threads; it must
    # not hand its parts to them, or it waits on them for ever
    cfg = StudyConfig(TestStudyDeterminism.CELLS[:2], reps=512, seed=37, workers=2)
    script = f"""
import json
from trigof import families as F, gof
from trigof.simharness import CellConfig, StudyConfig, report_rows, run_study
F._THREADS = 2
gof.replicate("gamma", "ml", None, 60, lambda rs: F._draws(
    F._quantile_of("gamma", (2.0, 1.0)), 60, list(rs)), range(8))
assert F._POOL is not None
cfg = {cfg!r}
rows = report_rows(run_study(cfg))
print(json.dumps([{{k: v for k, v in row.items() if k != "wall_time"}} for row in rows]))
"""
    src = str(Path(F.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the study and its forked workers
        proc.communicate()
        pytest.fail("the forked study did not end within 120 s")
    assert proc.returncode == 0, err
    assert json.loads(out) == _report(dataclasses.replace(cfg, workers=1))


class TestStudyConfigFile:
    GOOD = {"family": "gamma", "theta": "2.0, 1.0", "n": "60"}

    @staticmethod
    def _write(tmp_path, **cell):
        body = "".join(f"{k} = {v}\n" for k, v in cell.items())
        path = tmp_path / "study.ini"
        path.write_text(f"[study]\nreps = 100\nseed = 3\n\n[cell:c]\n{body}")
        return str(path)

    @pytest.mark.parametrize("text,match", [
        ("[study]\nreps = 100\n", "study config defines no cells"),
        ("[study]\nreps = 100\n\n[cell:c]\nn = 60\n", r"section \[cell:c\] needs a family"),
        ("[study]\nreps = 99\n\n[cell:c]\nfamily = gamma\ntheta = 2.0, 1.0\n",
         "a study needs reps >= 100"),
        ("[study]\nreps = 100\nalpha = 1.0\n\n[cell:c]\nfamily = gamma\ntheta = 2.0, 1.0\n",
         r"alpha must lie in \(0, 1\)")],
        ids=["no-cells", "no-family", "reps", "alpha"])
    def test_a_study_mistake_is_a_domain_error(self, tmp_path, text, match):
        path = tmp_path / "study.ini"
        path.write_text(text)
        with pytest.raises(DomainError, match=match):
            load_config(str(path))

    def test_an_unreadable_config_is_a_domain_error(self, tmp_path):
        with pytest.raises(DomainError, match="could not read study config"):
            load_config(str(tmp_path / "absent.ini"))

    def test_a_good_cell_loads(self, tmp_path):
        cfg = load_config(self._write(tmp_path, **self.GOOD, known="beta=1.0"))
        assert cfg.cells == (CellConfig("c", "gamma", "ml", (2.0, 1.0), 60, (("beta", 1.0),)),)
        # an alternative cell may leave the null theta out
        alt = load_config(self._write(tmp_path, family="gamma", data_family="weibull",
                                      data_theta="1.0, 1.3"))
        assert alt.cells[0].theta == () and alt.cells[0].is_alternative

    @pytest.mark.parametrize("change", [
        {"family": "gamm"}, {"estimator": "mle"}, {"estimator": "mm"}, {"theta": "2.0"},
        {"theta": "-2.0, 1.0"}, {"known": "shape=2.0"}, {"known": "beta"}, {"n": "0"},
        {"data_family": "weibul", "data_theta": "1.0, 1.3"},
        {"data_family": "weibull", "data_theta": "1.0"},
        {"data_family": "weibull", "data_theta": "1.0, -1.3"}, {"known": "beta=-1.0"},
        {"n": "2"},
        {"family": "student-t", "estimator": "mm", "theta": "4.0, 0.0, 1.0",
         "known": "lambda=1.5"}],
        ids=["family", "estimator", "no-mm-estimator", "theta-arity", "theta-space",
             "known-name", "known-value", "n", "data-family", "data-theta-arity",
             "data-theta-space", "known-space", "n-below-free", "mm-constant"])
    def test_a_mistake_is_an_error_naming_its_section(self, tmp_path, change):
        # a refused MM row keeps its ConfigurationError, as at every other entry point
        error = ConfigurationError if change.get("estimator") == "mm" else DomainError
        with pytest.raises(error, match=r"section \[cell:c\]") as err:
            load_config(self._write(tmp_path, **{**self.GOOD, **change}))
        assert type(err.value) is error


@pytest.mark.parametrize("fam,known,text", [
    ("uniform", {}, "family 'uniform' has no MM estimator"),
    ("gumbel", {}, "family 'gumbel' has no MM estimator"),
    ("epd", {}, "epd MM requires lambda to be known"),
    ("student-t", {"lambda": 1.5}, "Student-t MM requires lambda > 2")],
    ids=["uniform", "gumbel", "epd-no-mask", "student-t-constant"])
def test_a_row_without_an_estimator_has_one_error_text_at_every_entry_point(
        tmp_path, fam, known, text):
    mask = KnownMask.from_names(fam, known) if known else None
    X = _seeded(fam, FAMILY_THETAS[fam], 30)(range(3))
    for call in (lambda: fit(fam, "mm", mask, X[0]),
                 lambda: _batch.batch_fit(fam, "mm", mask, X),
                 lambda: replicate(fam, "mm", mask, 30, lambda rs: X[rs], range(3))):
        with pytest.raises(ConfigurationError) as err:
            call()
        assert str(err.value) == text
    path = TestStudyConfigFile._write(
        tmp_path, family=fam, estimator="mm", theta=", ".join(map(str, FAMILY_THETAS[fam])),
        known=", ".join(f"{p}={v}" for p, v in known.items()))
    with pytest.raises(ConfigurationError) as err:
        load_config(path)
    assert str(err.value) == f"section [cell:c]: {text}"


@pytest.mark.parametrize("fam,n", [("epd", 3), ("normal", 2), ("normal", 1), ("exponential", 1)])
def test_a_block_too_short_to_fit_fails_as_a_whole(fam, n):
    # n must exceed the number of free parameters, in a block as in one sample
    need = F.get_family(fam).n_params + 1
    text = f"need at least {need} observations, got {n}"
    X = _seeded(fam, FAMILY_THETAS[fam], n, seed=15)(range(4))
    with pytest.raises(DomainError, match=text):
        _batch.batch_fit(fam, "ml", None, X)
    with pytest.raises(DomainError, match=text):
        fit(fam, "ml", None, X[0])
    tn = replicate(fam, "ml", None, n, lambda rs: X[rs], range(4))
    assert np.isnan(tn).all()
    with pytest.raises(EstimationError, match="replications failed"):
        replicate(fam, "ml", None, n, lambda rs: X[rs], range(4), max_failed=3)
    longer = _seeded(fam, FAMILY_THETAS[fam], need, seed=15)(range(4))
    assert np.isfinite(_batch.batch_fit(fam, "ml", None, longer)).all()
