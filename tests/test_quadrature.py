import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import gammaincinv

# Q: the GK15 integrator and the h integrals the package summed Sigma with
# before the rule, kept as the reference of test_scaling and test_derived
import former_scaling as Q
from former_scaling import QuadratureError
from trigof import quadrature
from trigof.errors import DomainError

TWO_PI = 2.0 * math.pi


def _moments(g):
    """E[g(U)] and E[g(U)^2] by the rule, for g(u, p, q, upper) given u's
    distances p from the outer end of its half and q from 1/2."""
    m = quadrature.gram(lambda p, q, upper: np.stack(np.broadcast_arrays(
        1.0, g(1.0 - p if upper else p, p, q, upper))))
    return m[0, 1], m[1, 1]


class TestRule:
    def test_nodes_reach_both_ends_of_each_half(self):
        assert 2 * len(quadrature._P) == 194
        assert quadrature._P.min() < 1e-270 and quadrature._Q.min() < 1e-270
        # each distance is 1/2 less the other, and is read where it is small
        np.testing.assert_array_equal(quadrature._P, quadrature._Q[::-1])
        np.testing.assert_allclose(quadrature._P + quadrature._Q, 0.5, rtol=2.3e-16, atol=0.0)
        mass = quadrature.gram(lambda p, q, upper: np.ones((1, len(p))))
        assert mass[0, 0] == pytest.approx(1.0, rel=0.0, abs=5e-16)

    @pytest.mark.parametrize("g,first,second", [
        (lambda u, p, q, upper: u, 0.5, 1.0 / 3.0),
        (lambda u, p, q, upper: np.cos(TWO_PI * u), 0.0, 0.5),
        # log singularities at both ends, each read from p on its own half
        (lambda u, p, q, upper: np.log1p(-p) if upper else np.log(p), -1.0, 2.0),
        (lambda u, p, q, upper: np.log(p) if upper else np.log1p(-p), -1.0, 2.0),
        # a power singularity of a heavy tail: u^-0.4, and u^-0.8 for the square
        (lambda u, p, q, upper: (1.0 - p if upper else p) ** -0.4, 1.0 / 0.6, 5.0),
        # the cusp of a symmetric family at 1/2: |u - 1/2|^0.5
        (lambda u, p, q, upper: np.sqrt(q), 2.0 / 3.0 * 0.5 ** 0.5, 0.25),
        # powers whose square is only just integrable, which the rule carries
        # on past its last node: u^-0.495 in a tail, |u - 1/2|^-0.49 at 1/2
        (lambda u, p, q, upper: (1.0 - p if upper else p) ** -0.495, 1.0 / 0.505, 100.0),
        (lambda u, p, q, upper: q ** -0.49, 2.0 * 0.5 ** 0.51 / 0.51, 2.0 * 0.5 ** 0.02 / 0.02),
    ])
    def test_known_expectations(self, g, first, second):
        m1, m2 = _moments(g)
        assert m1 == pytest.approx(first, rel=1e-13, abs=1e-15)
        assert m2 == pytest.approx(second, rel=1e-13, abs=1e-15)

    def test_rows_between_first_and_last_axis_are_carried(self):
        c = np.array([[1.0], [2.0], [3.0]])
        m = quadrature.gram(lambda p, q, upper: np.stack(np.broadcast_arrays(c, c * p)))
        assert m.shape == (3, 2, 2)
        for i, ci in enumerate(c[:, 0]):
            single = quadrature.gram(lambda p, q, upper: np.stack(np.broadcast_arrays(ci, ci * p)))
            np.testing.assert_allclose(m[i], single, rtol=1e-15, atol=0.0)

    def test_nonfinite_far_tail_is_left_out(self):
        # a quantile that underflows below u = 1e-20, as a small gamma shape's does
        inside = quadrature.gram(lambda p, q, upper: np.stack(np.broadcast_arrays(
            1.0, np.where(p < 1e-20, 0.0, np.log(p)))))
        left_out = quadrature.gram(lambda p, q, upper: np.stack(np.broadcast_arrays(
            1.0, np.where(p < 1e-20, -np.inf, np.log(p)))))
        np.testing.assert_allclose(left_out, inside, rtol=0.0, atol=1e-17)

    @pytest.mark.parametrize("upper", [False, True])
    def test_nonfinite_inside_fails_its_row(self, upper):
        # row 1 is not finite inside one half: it reads NaN, and the other
        # rows are summed as if it were not there
        c = np.array([[1.0], [2.0], [3.0]])

        def f(p, q, up):
            g = c * p
            if up == upper:
                g[1, (p > 1e-3) & (p < 1e-2)] = np.nan
            return np.stack(np.broadcast_arrays(1.0, g))

        m = quadrature.gram(f)
        assert np.isnan(m[1]).all()
        alone = quadrature.gram(lambda p, q, up: np.stack(np.broadcast_arrays(1.0, c[[0, 2]] * p)))
        np.testing.assert_array_equal(m[[0, 2]], alone)


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

    def test_student_integrals_small_shape_bound(self):
        # documented viability bound: shape >= 0.2 works, far below errors out
        assert np.isfinite(Q.h(12, 0.2))
        with pytest.raises(DomainError):
            Q.h(12, 0.05)
        with pytest.raises(DomainError):
            Q.h(16, 0.8)  # needs shape > 1

    @pytest.mark.parametrize("idx,args", [
        (3, (1.7,)), (8, (0.6,)), (19, (0.4,)), (25, (0.4, 0.3)),
        (29, (1.0, 2.0)), (33, (0.5,)), (37, (2.5,)),
    ])
    def test_h_finite_across_regimes(self, idx, args):
        assert np.isfinite(Q.h(idx, *args))


class TestTables:
    """Properties of the inverse-Gaussian and gamma-line integrals, which the
    reference integrates directly."""

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
        # both sides are integrated, the left one with the map scaled to mu
        assert Q.h(idx, mu, mu * phi) == pytest.approx(mu * Q.h(idx, 1.0, phi), abs=mu * 1e-10)

    def test_outside_range_keeps_domain_error(self):
        with pytest.raises(DomainError):
            Q.h(10, 0.02)


class TestLogisticConstants:
    def test_against_tabulated(self):
        c_cos, c_sin, m_cos, m_sin = Q.logistic_constants()
        assert c_cos == pytest.approx(0.698397593884459, abs=1e-10)
        assert c_sin == pytest.approx(-1.0 / math.pi, abs=1e-10)
        assert m_cos == pytest.approx(0.4909114316, abs=1e-8)
        assert m_sin == pytest.approx(-0.235854187, abs=1e-8)
