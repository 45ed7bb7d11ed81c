import itertools
import math

import numpy as np
import pytest

from trigof import _batch, gof, scaling
from trigof import families as F
from trigof.errors import (ConfigurationError, DomainError, EstimationError,
                           SamplingError, SingularityError)
from trigof.estimate import KnownMask
from trigof.gof import _single_test, replicate, run_test
from trigof.power import AltCase, LocalAlternative, _sample_alternative, empirical_power
from trigof.simharness import CellConfig, StudyConfig, report_rows, run_study
from conftest import FAMILY_THETAS, MM_REQUIRED_KNOWN


def _seeded(fam, theta, n, seed=0):
    return lambda r: F.sample(fam, theta, n, np.random.SeedSequence([seed, r]))


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
        except (EstimationError, SingularityError, SamplingError, DomainError):
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
    known), that ``_batch.supports``."""
    for name in sorted(FAMILY_THETAS):
        fam = F.get_family(name)
        for kind in ("ml", "mm") if fam.has_mm else ("ml",):
            required = tuple(MM_REQUIRED_KNOWN.get(name, {})) if kind == "mm" else ()
            others = [p for p in fam.param_names if p not in required]
            for r in range(len(others)):
                for extra in itertools.combinations(others, r):
                    known = {p: v for p, v in zip(fam.param_names, FAMILY_THETAS[name])
                             if p in required + extra}
                    mask = KnownMask.from_names(name, known) if known else None
                    if _batch.supports(name, kind, mask):
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


class TestBatchAgainstScalar:
    @pytest.mark.parametrize("fam,kind,mask,theta", BATCH_ROWS,
                             ids=[f"{r[0]}-{r[1]}-{r[3][0]}" for r in BATCH_ROWS])
    def test_row_by_row(self, fam, kind, mask, theta):
        assert _batch.supports(fam, kind, mask)
        X = np.stack([_seeded(fam, theta, 80, seed=11)(r) for r in range(12)])
        tn_batch = _batch.batch_tn(fam, kind, mask, X)
        tn_scalar = np.array([_single_test(fam, kind, mask, x)[3] for x in X])
        np.testing.assert_allclose(tn_batch, tn_scalar, rtol=1e-10, atol=0.0)

    def test_epd_ml_with_known_lambda_below_one_has_no_batch_path(self):
        assert not _batch.supports("epd", "ml", EPD_08)
        assert _batch.supports("epd", "mm", EPD_08)
        assert _batch.supports("epd", "ml", EPD_15)

    @pytest.mark.parametrize("fam,kind,known", SUPPORTED,
                             ids=[f"{f}-{k}-{'-'.join(kn) or 'free'}" for f, k, kn in SUPPORTED])
    def test_every_supported_row(self, fam, kind, known):
        values = dict(zip(F.get_family(fam).param_names, FAMILY_THETAS[fam]))
        mask = KnownMask.from_names(fam, {p: values[p] for p in known}) if known else None
        X = np.stack([_seeded(fam, FAMILY_THETAS[fam], 80, seed=13)(r) for r in range(12)])
        tn_batch = _batch.batch_tn(fam, kind, mask, X)
        tn_scalar = np.array([_single_test(fam, kind, mask, x)[3] for x in X])
        np.testing.assert_allclose(tn_batch, tn_scalar, rtol=1e-10, atol=0.0)

    def test_supported_rows_include_every_mm_row(self):
        rows = {(f, k, tuple(kn)) for f, k, kn in SUPPORTED}
        mm = {(f, "mm", tuple(MM_REQUIRED_KNOWN.get(f, {}))) for f in FAMILY_THETAS
              if F.get_family(f).has_mm}
        assert len(mm) == 15 and mm <= rows
        free = {(f, k) for f, k, kn in SUPPORTED if not kn}
        assert {("normal", "ml"), ("laplace", "ml"), ("exponential", "ml"), ("uniform", "ml"),
                ("gamma", "ml"), ("weibull", "ml")} <= free
        assert {("normal", "ml", ("mu",)), ("epd", "ml", ("lambda",))} <= rows
        assert not _batch.supports("uniform", "mm", None)  # uniform has no MM estimator


class TestRowsOutsideTheSupport:
    @pytest.mark.parametrize("fam,kind,mask,bad", [
        ("exponential", "ml", None, -0.5), ("gamma", "ml", None, -0.5),
        ("weibull", "ml", None, -0.5), ("log-normal", "mm", None, -0.5),
        ("chi-squared", "mm", None, 0.0), ("pareto", "ml", None, 0.9),
        ("uniform", "ml", KnownMask.from_names("uniform", {"a": -1.0}), -1.5)])
    def test_row_fails_alone_and_silently(self, fam, kind, mask, bad):
        X = np.stack([_seeded(fam, FAMILY_THETAS[fam], 50, seed=4)(r) for r in range(4)])
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
        m = gof.trig_moments("uniform", (0.0, 1.0), [0.0, 0.25, 1.0])
        assert (m.cn, m.sn, m.n) == pytest.approx((2.0 / 3.0, 1.0 / 3.0, 3), abs=1e-15)


class TestFailedRows:
    @pytest.mark.parametrize("fam,theta", [("gamma", (2.3, 1.4)), ("weibull", (2.0, 1.5)),
                                           ("normal", (-0.2, 1.7)), ("laplace", (0.5, 1.3)),
                                           ("uniform", (-1.0, 2.5))])
    def test_flat_row_is_the_only_failure(self, fam, theta):
        X = np.stack([_seeded(fam, theta, 50, seed=3)(r) for r in range(6)])
        flat = X.copy()
        flat[2] = 1.5
        tn = _batch.batch_tn(fam, "ml", None, flat)
        assert np.flatnonzero(~np.isfinite(tn)).tolist() == [2]
        np.testing.assert_array_equal(np.delete(tn, 2),
                                      _batch.batch_tn(fam, "ml", None, np.delete(X, 2, axis=0)))
        out = replicate(fam, "ml", None, lambda r: flat[r], range(6))
        assert np.count_nonzero(np.isnan(out)) == 1 and np.isnan(out[2])

    def test_flat_row_does_not_hold_up_the_gamma_newton_loop(self, monkeypatch):
        from scipy import special
        calls = []

        class Counting:
            def __getattr__(self, name):
                if name == "polygamma":
                    calls.append(name)
                return getattr(special, name)

        X = np.stack([_seeded("gamma", (2.3, 1.4), 50, seed=3)(r) for r in range(6)])
        monkeypatch.setattr(_batch, "sp", Counting())
        _batch.batch_tn("gamma", "ml", None, X)
        clean = len(calls)
        X[2] = 1.5
        _batch.batch_tn("gamma", "ml", None, X)
        assert len(calls) == 2 * clean and clean < 60


class TestReplicate:
    def test_failures_are_nan_and_counted_against_the_limit(self):
        # logistic ML has no batch kernels: a flat sample fails its scalar fit
        draw = _seeded("logistic", (0.2, 0.9), 40)

        def sample(r):
            return np.full(40, 1.0) if r in (1, 4) else draw(r)

        tn = replicate("logistic", "ml", None, sample, range(6))
        assert np.flatnonzero(np.isnan(tn)).tolist() == [1, 4]
        assert np.all(np.isfinite(np.delete(tn, [1, 4])))
        replicate("logistic", "ml", None, sample, range(6), max_failed=2)
        with pytest.raises(EstimationError, match="replications failed"):
            replicate("logistic", "ml", None, sample, range(6), max_failed=1)

    def test_sampler_errors_propagate(self):
        def sample(r):
            raise SamplingError("inversion did not bracket")

        with pytest.raises(SamplingError):
            replicate("normal", "ml", None, sample, range(3))

    def test_configuration_errors_propagate(self):
        with pytest.raises(ConfigurationError):
            replicate("gumbel", "mm", None, _seeded("gumbel", (0.4, 1.1), 30), range(3))

    def test_batch_block_that_raises_is_redone_sample_by_sample(self, monkeypatch):
        def broken(*args):
            raise SingularityError("broken kernel")

        sample = _seeded("normal", (0.0, 1.0), 60)
        want = np.array([_single_test("normal", "ml", None, sample(r))[3] for r in range(5)])
        monkeypatch.setattr(_batch, "batch_tn", broken)
        np.testing.assert_array_equal(replicate("normal", "ml", None, sample, range(5)), want)

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
        tn = replicate("normal", "ml", None, _seeded("normal", (0.0, 1.0), 100_000), range(5))
        assert shapes == [(2, 100_000), (2, 100_000), (1, 100_000)]
        assert all(rows * n <= 2 ** 18 for rows, n in shapes)
        assert np.all(np.isfinite(tn))

    def test_blocks_of_256_rows_at_n_200(self, monkeypatch):
        shapes = self._record_blocks(monkeypatch)
        replicate("normal", "ml", None, _seeded("normal", (0.0, 1.0), 200), range(300))
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
        sample = lambda r: F.sample(fam, res.fit.theta, 150, np.random.SeedSequence([seed, r]))
        np.testing.assert_allclose(replicate(fam, "ml", None, sample, range(120)), tn_rows,
                                   rtol=1e-10, atol=0.0)

    def test_more_than_one_percent_failures_abort(self, monkeypatch):
        x = F.sample("logistic", (0.2, 0.9), 60, 5)
        real = gof._single_test
        calls = []

        def fails_after_the_first(*args):
            calls.append(args)
            if len(calls) == 1:
                return real(*args)
            raise EstimationError("refit failed")

        monkeypatch.setattr(gof, "_single_test", fails_after_the_first)
        with pytest.raises(EstimationError, match="more than 1 of 100"):
            run_test("logistic", "ml", None, x, mc={"reps": 100, "seed": 0})
        # the test itself, then two failed refits: the abort does not wait for the rest
        assert len(calls) == 3


class TestEpdLambdaBelowOne:
    def test_empirical_power_runs_on_the_scalar_path(self):
        alt = LocalAlternative(AltCase.EPD_VS_APD, (0.8, 0.0, 1.0), (1.0, 0.0))
        out = empirical_power(alt, 40, 20, seed=3)
        assert out["failed"] == 0 and out["reps"] == 20
        q = -2.0 * math.log(alt.alpha)
        rejected = sum(
            run_test("epd", "ml", EPD_08,
                     _sample_alternative(alt, 40, np.random.SeedSequence([3, r]))).tn > q
            for r in range(20))
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
        cfg = StudyConfig(TestStudyDeterminism.CELLS, reps=512, seed=seed, workers=workers)
        rows = report_rows(run_study(cfg))
        for row in rows:
            del row["wall_time"]
        return rows

    def test_same_seed_same_report_and_workers_do_not_matter(self):
        serial = self._rows(1)
        assert serial == self._rows(1)
        assert serial == self._rows(2)
        assert all(row["ok"] for row in serial)
        assert serial != self._rows(1, seed=10)
