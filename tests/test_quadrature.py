import dataclasses
import importlib.util
import math
import threading

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import gammaincinv

from trigof import quadrature as Q
from trigof.errors import DomainError, QuadratureError

TWO_PI = 2.0 * math.pi


class TestIntegrate:
    def test_exponential(self):
        val = Q.integrate_domain(Q.Integrand("0,inf", lambda v: np.exp(-v)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_integrable_endpoint_singularity(self):
        val = Q.integrate_domain(Q.Integrand("0,1", lambda v: v ** -0.5, pow_lo=-0.5))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_oscillatory_exact_zero(self):
        # substitute u = 1 - e^-v: the integral of cos(2 pi u) over (0,1)
        val = Q.integrate_domain(Q.Integrand(
            "0,inf", lambda v: np.cos(TWO_PI * (1.0 - np.exp(-v))) * np.exp(-v)))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_one_to_infinity(self):
        val = Q.integrate_domain(Q.Integrand("1,inf", lambda v: np.exp(1.0 - v)))
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_determinism(self):
        f = Q.Integrand("0,1", lambda v: np.sin(13.0 * v) * np.log(v))
        assert Q.integrate_domain(f) == Q.integrate_domain(f)

    def test_nonconvergence_raises_with_estimate(self):
        with pytest.raises(QuadratureError) as err:
            Q.integrate(lambda v: v ** -0.995, 0.0, 1.0, 1e-12, 1e-12)
        assert err.value.estimate is not None
        assert err.value.bound is not None

    def test_bad_tolerances(self):
        with pytest.raises(DomainError):
            Q.integrate(lambda v: v, 0.0, 1.0, abs_tol=0.0)

    def test_bad_domain_tag(self):
        with pytest.raises(DomainError):
            Q.Integrand("2,inf", lambda v: v)


class TestHValues:
    def test_arity(self):
        assert Q.h_arity(6) == 3
        assert Q.h_arity(25) == 2
        assert Q.h_arity(1) == 1
        with pytest.raises(DomainError):
            Q.h(6, 1.0)
        with pytest.raises(DomainError):
            Q.h(38)

    def test_h6_h7_against_pit_form(self):
        # u = gamma-cdf(v) turns h6(1,2,1) into int cos(2 pi u)(-ln(1-u)) du
        ref6 = scipy_quad(lambda u: math.cos(TWO_PI * u) * -math.log1p(-u),
                          0.0, 1.0, epsabs=1e-12, epsrel=1e-12)[0]
        ref7 = scipy_quad(lambda u: math.sin(TWO_PI * u) * -math.log1p(-u),
                          0.0, 1.0, epsabs=1e-12, epsrel=1e-12)[0]
        assert Q.h(6, 1.0, 2.0, 1.0) == pytest.approx(ref6, abs=1e-9)
        assert Q.h(7, 1.0, 2.0, 1.0) == pytest.approx(ref7, abs=1e-9)

    def test_h10_h11_against_pit_form(self):
        ref10 = scipy_quad(lambda u: math.cos(TWO_PI * u) * math.log(-math.log1p(-u)),
                           0.0, 1.0, epsabs=1e-12, limit=200)[0]
        ref11 = scipy_quad(lambda u: math.sin(TWO_PI * u) * math.log(-math.log1p(-u)),
                           0.0, 1.0, epsabs=1e-12, limit=200)[0]
        assert Q.h(10, 1.0) == pytest.approx(ref10, abs=1e-9)
        assert Q.h(11, 1.0) == pytest.approx(ref11, abs=1e-9)

    # Weight w(Q, lam) of the quantile form h = int cos/sin(2 pi u) w(Q(u), lam) du
    # with Q the gamma(lam) quantile; it samples the peak whatever the shape.
    _QUANTILE_WEIGHT = {
        6: lambda q, lam: q / lam, 7: lambda q, lam: q / lam,
        8: lambda q, lam: (q - lam) * math.log(q), 9: lambda q, lam: (q - lam) * math.log(q),
        10: lambda q, lam: math.log(q), 11: lambda q, lam: math.log(q),
    }

    @pytest.mark.parametrize("lam", [2.5, 64.0, 180.0, 256.0, 1000.0])
    @pytest.mark.parametrize("idx", [6, 7, 8, 9, 10, 11])
    def test_gamma_integrals_against_quantile_form(self, idx, lam):
        # quadrature itself, not the tables: lam >= 180 lies beyond them
        trig = math.cos if idx % 2 == 0 else math.sin
        weight = self._QUANTILE_WEIGHT[idx]
        ref = scipy_quad(lambda u: trig(TWO_PI * u) * weight(gammaincinv(lam, u), lam),
                         0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        args = (lam, lam + 1.0, 1.0) if idx in (6, 7) else (lam,)
        assert Q._h_quadrature(idx, args) == pytest.approx(ref, abs=1e-10)

    def test_epd_uniform_limit(self):
        assert Q.h(1, 1e6) == pytest.approx(1.0, abs=1e-3)
        assert Q.h(2, 1e6) == pytest.approx(0.0, abs=1e-3)

    def test_memoization_bit_identical(self):
        Q.clear_h_cache()
        a = Q.h(6, 1.3, 2.3, 1.0)
        b = Q.h(6, 1.3, 2.3, 1.0)
        assert a == b and np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_memo_thread_safety(self):
        Q.clear_h_cache()
        results = []

        def worker():
            results.append(Q.h(8, 2.7))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1

    def test_student_integrals_small_shape_bound(self):
        # documented viability bound: shape >= 0.2 works, far below errors out
        assert np.isfinite(Q.h(12, 0.2))
        with pytest.raises(DomainError):
            Q.h(12, 0.05)
        with pytest.raises(DomainError):
            Q.h(16, 0.8)  # needs shape > 1

    def test_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(Q, "_H_CACHE_SIZE", 3)
        Q.clear_h_cache()
        rhos = [0.4, 0.5, 0.6, 0.7, 0.8]
        first = {rho: Q.h(19, rho) for rho in rhos}
        assert len(Q._h_cache) == 3
        assert (19, 0.4) not in Q._h_cache
        Q.h(19, 0.6)  # most recently used again, so 0.7 is evicted next
        Q.h(19, 0.4)  # recomputed
        assert list(Q._h_cache) == [(19, 0.8), (19, 0.6), (19, 0.4)]
        for rho in rhos:
            assert np.float64(Q.h(19, rho)).tobytes() == np.float64(first[rho]).tobytes()
            assert len(Q._h_cache) == 3

    @pytest.mark.parametrize("idx,args", [
        (3, (1.7,)), (8, (0.6,)), (19, (0.4,)), (25, (0.4, 0.3)),
        (29, (1.0, 2.0)), (33, (0.5,)), (37, (2.5,)),
    ])
    def test_h_finite_across_regimes(self, idx, args):
        assert np.isfinite(Q.h(idx, *args))


def _table_points():
    """(idx, shape) at 3 random shapes in every tabulated octave."""
    rng = np.random.default_rng(2507)
    return [(idx, 2.0 ** (lo + k + u))
            for idx, (lo, pieces) in Q._h_tables.TABLES.items()
            for k in range(len(pieces)) for u in rng.random(3)]


class TestTables:
    def test_table_matches_tight_quadrature(self):
        Q.clear_h_cache()
        # plus shapes where the default-tolerance quadrature misses 1e-10
        for idx, shape in _table_points() + [(6, 0.131), (7, 0.073), (10, 0.304)]:
            value = Q.h(idx, *Q._line_args(idx, shape))
            assert value == pytest.approx(Q._line_value(idx, shape), abs=1e-11), (idx, shape)
        assert len(Q._h_cache) == 0

    def test_generator_reproduces_committed_table(self, tmp_path, monkeypatch):
        for idx, (lo, pieces) in Q._h_tables.TABLES.items():
            assert (lo, lo + len(pieces)) == Q._TABLE_OCTAVES[idx]
        monkeypatch.setattr(Q, "_TABLE_OCTAVES", {10: (-4, -3), 31: (9, 10)})
        Q.tabulate(tmp_path / "tables.py")
        spec = importlib.util.spec_from_file_location("tables", tmp_path / "tables.py")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        for idx, piece in ((10, 0), (31, -1)):
            got = fresh.TABLES[idx][1][0]
            want = Q._h_tables.TABLES[idx][1][piece]
            assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("mu", [0.01, 1000.0])
    @pytest.mark.parametrize("phi", [0.1, 3.0, 500.0])
    @pytest.mark.parametrize("idx", [29, 30, 31, 32])
    def test_inverse_gaussian_scale_identity(self, idx, mu, phi):
        # integrate at (mu, lam) directly, with the map scaled to the mean mu
        direct = Q.integrate_domain(dataclasses.replace(Q._H_BUILDERS[idx](mu, mu * phi), scale=mu),
                                    abs_tol=mu * 1e-13, rel_tol=1e-13)
        assert Q.h(idx, mu, mu * phi) == pytest.approx(direct, abs=mu * 1e-10)

    @pytest.mark.parametrize("mu", [0.01, 100.0])
    @pytest.mark.parametrize("phi", [2000.0, 5000.0])
    @pytest.mark.parametrize("idx", [29, 30, 31, 32])
    def test_inverse_gaussian_off_table_scale_identity(self, idx, mu, phi):
        # lam/mu above the table: both sides are integrated, the left one at mu
        assert Q._tabulated(idx, (mu, mu * phi)) is None
        assert Q.h(idx, mu, mu * phi) == pytest.approx(mu * Q.h(idx, 1.0, phi), abs=mu * 1e-10)

    @pytest.mark.parametrize("idx,args", [
        (10, (2.0 ** -4 * (1.0 - 1e-12),)),
        (11, (128.0 * (1.0 + 1e-12),)),
        (6, (128.0 * (1.0 + 1e-12), 128.0 * (1.0 + 1e-12) + 1.0, 1.0)),
        (7, (2.0 ** -4 * (1.0 - 1e-12), 2.0 ** -4 * (1.0 - 1e-12) + 1.0, 1.0)),
        (29, (2.0, 2.0 ** 11 * (1.0 + 1e-12))),
        (32, (2.0, 2.0 ** -3 * (1.0 - 1e-12))),
    ])
    def test_outside_range_is_quadrature(self, idx, args):
        Q.clear_h_cache()
        assert Q._tabulated(idx, args) is None
        value = Q.h(idx, *args)
        assert np.float64(value).tobytes() == np.float64(Q._h_quadrature(idx, args)).tobytes()
        assert len(Q._h_cache) == 1

    def test_outside_range_keeps_domain_error(self):
        with pytest.raises(DomainError):
            Q.h(10, 0.02)

    @pytest.mark.parametrize("args", [(1.0, 1.0, 0.5), (2.0, 3.0, 1.5), (2.0, 2.5, 1.0)])
    def test_off_line_arguments_are_quadrature(self, args):
        Q.clear_h_cache()
        assert Q._tabulated(6, args) is None
        value = Q.h(6, *args)
        assert np.float64(value).tobytes() == np.float64(Q._h_quadrature(6, args)).tobytes()
        assert len(Q._h_cache) == 1


class TestLogisticConstants:
    def test_against_tabulated(self):
        c_cos, c_sin, m_cos, m_sin = Q.logistic_constants()
        assert c_cos == pytest.approx(0.698397593884459, abs=1e-10)
        assert c_sin == pytest.approx(-1.0 / math.pi, abs=1e-10)
        assert m_cos == pytest.approx(0.4909114316, abs=1e-8)
        assert m_sin == pytest.approx(-0.235854187, abs=1e-8)
