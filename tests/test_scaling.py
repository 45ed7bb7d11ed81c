import itertools
import math
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad as scipy_quad

import former_scaling as former
from trigof import _batch, estimate, gof, quadrature, scaling
from trigof import families as F
from trigof.errors import ConfigurationError, DomainError, SingularityError
from trigof.estimate import EstimatorKind, KnownMask, fit
from trigof.gof import REPLICATION_FAILURES, run_test
from conftest import FAMILY_THETAS, MM_REQUIRED_KNOWN

# every (family, estimator) row; MM rows with the shape they require known
ROWS = [(name, kind) for name in sorted(FAMILY_THETAS) for kind in ("ml", "mm")
        if kind == "ml" or F.get_family(name).has_mm]


def _mask(name, kind):
    known = MM_REQUIRED_KNOWN.get(name, {}) if kind == "mm" else {}
    return KnownMask.from_names(name, known) if known else None


def _raw_sigma(name, kind, theta, mask):
    """Sigma assembled from the matrices at theta itself, as given."""
    return scaling.sigma(scaling.matrices(name, kind, theta), mask, kind, name)


@pytest.mark.parametrize("name,kind", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
def test_sigma_moves_with_the_declared_shapes_only(name, kind):
    fam, theta, mask = F.get_family(name), FAMILY_THETAS[name], _mask(name, kind)
    sig = _raw_sigma(name, kind, theta, mask)
    for i, p in enumerate(fam.param_names):
        moved = list(theta)
        moved[i] = 1.3 * theta[i] + 0.2
        change = np.max(np.abs(_raw_sigma(name, kind, moved, mask) - sig))
        if p in fam.shapes:
            assert change > 1e-9, p
        else:
            assert change <= 1e-12, p


def test_shapes_are_parameters_of_their_family():
    for name in F.family_names():
        fam = F.get_family(name)
        assert set(fam.shapes) <= set(fam.param_names)
        d = fam.derived
        if d is not None:  # the parameters that stand for the base's shapes
            assert fam.shapes == tuple(p for p, (b, _) in zip(fam.param_names, d.params)
                                       if b in d.base.shapes)


@pytest.mark.parametrize("name,kind", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
def test_matrices_are_symmetric_and_sigma_positive_definite(name, kind):
    fam, theta = F.get_family(name), FAMILY_THETAS[name]
    ms = scaling.matrices(name, kind, theta)
    p = len(ms.param_names)
    assert ms.G.shape == ms.J.shape == (2, p) and ms.R.shape == (p, p)
    assert set(ms.param_names) <= set(fam.param_names)
    np.testing.assert_allclose(ms.R, ms.R.T, rtol=0.0,
                               atol=1e-14 * max(1.0, float(np.max(np.abs(ms.R), initial=0.0))))
    sig = scaling.sigma_from(name, kind, theta, _mask(name, kind))
    assert np.array_equal(sig, sig.T)
    assert np.all(np.linalg.eigvalsh(sig) > 0.0)


@pytest.mark.parametrize("name,kind", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
def test_matrix_columns_follow_the_family(name, kind):
    fam = F.get_family(name)
    names = scaling.matrices(name, kind, FAMILY_THETAS[name]).param_names
    if name == "uniform":
        assert names == ()
    elif kind == "ml":
        assert names == fam.param_names
    else:
        required = MM_REQUIRED_KNOWN.get(name, {})
        assert names == tuple(p for p in fam.param_names if p not in required)


UNIT_ROWS = [(n, k) for n, k in ROWS if n != "uniform"]  # (1, 1) is no uniform


@pytest.mark.parametrize("name,kind", UNIT_ROWS, ids=[f"{n}-{k}" for n, k in UNIT_ROWS])
def test_sigma_at_the_shapes_with_the_rest_at_one(name, kind):
    # sigma_from takes Sigma there, for a point and for every row of a block
    fam, theta = F.get_family(name), FAMILY_THETAS[name]
    unit = [v if p in fam.shapes else 1.0 for p, v in zip(fam.param_names, theta)]
    for mask in _all_masks(name, kind, theta):
        sig = _raw_sigma(name, kind, unit, mask)
        np.testing.assert_allclose(sig, _raw_sigma(name, kind, theta, mask), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(scaling.sigma_from(name, kind, theta, mask), sig)
        np.testing.assert_array_equal(scaling.sigma_from(name, kind, np.array([theta]), mask)[0], sig)


@pytest.mark.parametrize("scale", [1e-7, 1e7])
@pytest.mark.parametrize("name", ["epd", "exp-gamma", "frechet", "gamma", "gg", "gompertz",
                                  "half-epd", "inverse-gamma", "log-logistic", "logistic",
                                  "lomax", "nakagami", "student-t", "weibull"])
def test_statistic_does_not_depend_on_the_units_of_the_data(name, scale):
    # R's entries scale as 1/scale^2, so Sigma is taken with the scale at 1,
    # and the fits stop on tolerances relative to the data's scale
    x = F.sample(name, FAMILY_THETAS[name], 200, 3)
    tn = run_test(name, "ml", None, x).tn
    assert run_test(name, "ml", None, scale * x).tn == pytest.approx(tn, rel=1e-10)


# ---------------------------------------------------------------------------
# The rule against the former builders (``former_scaling``), and both against
# tight values where they part.
# ---------------------------------------------------------------------------

BASES = [n for n in sorted(FAMILY_THETAS) if F.get_family(n).derived is None and n != "uniform"]
# each parameter's range for the random points: log-uniform, uniform where it
# can be negative; the builders hold their 1e-10 on these (their h integrals
# miss it for kumaraswamy at beta/alpha > 4, gompertz at rho > 5 and beta and
# kumaraswamy at beta < 1, and exp-gamma's R is too ill-conditioned beyond
# lambda = 20; HARD_SPOTS covers beta and kumaraswamy there).  epd starts at
# lambda = 0.55: at 1/2 its Fisher information for mu becomes infinite.
RANGES = {
    "epd": [(0.55, 10.0), (-2.0, 2.0), (0.2, 5.0)],
    "laplace": [(-2.0, 2.0), (0.2, 5.0)],
    "normal": [(-2.0, 2.0), (0.2, 5.0)],
    "exp-gamma": [(0.05, 20.0), (-2.0, 2.0), (0.2, 5.0)],
    "logistic": [(-2.0, 2.0), (0.2, 5.0)],
    "student-t": [(0.3, 200.0), (-2.0, 2.0), (0.2, 5.0)],
    "half-epd": [(0.3, 10.0), (0.2, 5.0)],
    "weibull": [(0.2, 5.0), (0.2, 5.0)],
    "gompertz": [(0.2, 5.0), (0.005, 5.0)],
    "gamma": [(0.05, 200.0), (0.2, 5.0)],
    "lomax": [(0.1, 100.0), (0.2, 5.0)],
    "nakagami": [(0.3, 200.0), (0.2, 5.0)],
    "inverse-gaussian": [(0.2, 5.0), (0.1, 500.0)],
    "beta": [(0.3, 30.0), (1.0, 30.0)],
    "kumaraswamy": [(1.0, 10.0), (1.0, 4.0)],
}


def _random_thetas(name, count=20):
    rng = np.random.default_rng([2507, BASES.index(name)])
    return [tuple(float(rng.uniform(lo, hi)) if lo < 0.0 else float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                  for lo, hi in RANGES[name]) for _ in range(count)]


def _all_masks(name, kind, theta):
    """None and every mask of known values that leaves the row a parameter to fit."""
    fam = F.get_family(name)
    required = [p for p in fam.param_names if p in fam.mm_known] if kind == "mm" else []
    others = [p for p in fam.param_names if p not in required]
    for r in range(len(others)):
        for extra in itertools.combinations(others, r):
            known = {p: theta[fam.param_names.index(p)] for p in required + list(extra)}
            yield KnownMask.from_names(name, known) if known else None


def _integrand(name, kind, theta, monkeypatch):
    """The rule's f(p, q, upper) for one theta, caught on its way to quadrature.gram."""
    caught = []
    with monkeypatch.context() as m:
        m.setattr(quadrature, "gram", lambda f: caught.append(f) or np.zeros((1, 0, 0)))
        scaling._gram(estimate.row(name, kind), np.array([theta]))
    return caught[0]


def _tight(f, i, j):
    """E[f_i f_j] by adaptive Gauss-Kronrod (QUADPACK) on each quarter of u,
    in the distance d from its nearer end of (0, 1/2) or (1/2, 1)."""
    def g(d, upper, inner):
        p, q = (0.5 - d, d) if inner else (d, 0.5 - d)
        with np.errstate(all="ignore"):
            v = f(np.array([p]), np.array([q]), upper)[:, 0, 0]
        return v[i] * v[j] if np.all(np.isfinite(v)) else 0.0
    with warnings.catch_warnings():
        # a far upper tail read at Q(1 - p) carries the rounding of 1 - p,
        # which QUADPACK can report as roundoff at this tolerance
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(scipy_quad(g, 0.0, 0.25, args=(upper, inner), epsabs=1e-14, epsrel=1e-13, limit=400)[0]
                   for upper in (False, True) for inner in (False, True))


BUILDER_ROWS = [(n, k) for n in BASES for k in ("ml", "mm") if k == "ml" or F.get_family(n).has_mm]


@pytest.mark.parametrize("name,kind", BUILDER_ROWS, ids=[f"{n}-{k}" for n, k in BUILDER_ROWS])
def test_rule_matches_the_former_builders(name, kind, monkeypatch):
    """G, R, J and every mask's Sigma within the builders' 1e-10; where G or J
    parts from them by more than 1e-12, a tight value sides with the rule."""
    p = scaling.matrices(name, kind, FAMILY_THETAS[name]).p
    near = [(lam, 0.3, 1.2) for lam in (2.01, 2.05, 2.1)] if (name, kind) == ("student-t", "mm") else []
    for theta in [FAMILY_THETAS[name]] + _random_thetas(name) + near:
        if kind == "mm" and name == "student-t" and theta[0] <= 2.0:
            continue  # its MM needs lambda > 2
        ms = scaling.matrices(name, kind, theta)
        G, R, J = former.former_matrices(name, kind, theta)
        np.testing.assert_allclose(ms.G, G, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(ms.R, R, rtol=0.0, atol=1e-10 * max(1.0, np.max(np.abs(R))))
        np.testing.assert_allclose(ms.J, J, rtol=0.0, atol=1e-10)
        former_ms = scaling.MatrixSet(G, R, J, ms.param_names)
        for mask in _all_masks(name, kind, theta):
            np.testing.assert_allclose(scaling.sigma(ms, mask, kind, name),
                                       scaling.sigma(former_ms, mask, kind, name), rtol=0.0, atol=1e-10)
        parted = np.argwhere(np.maximum(np.abs(ms.G - G), np.abs(ms.J - J)) > 1e-12)
        if not parted.size:
            continue
        f = _integrand(name, kind, theta, monkeypatch)
        if kind == "ml":  # J = G
            for i, j in parted:
                tight = _tight(f, i, 2 + j)
                assert abs(ms.G[i, j] - tight) < abs(G[i, j] - tight), (theta, i, j)
        else:  # J = K B^-1 C, with K tight and B, C the rule's
            M = scaling._gram(estimate.row(name, kind), np.array([theta]))[0]
            K = np.array([[_tight(f, i, 2 + p + m) for m in range(p)] for i in range(2)])
            tight_J = K @ np.linalg.solve(M[2 + p:, 2 + p:], M[2 + p:, 2:2 + p])
            for i, j in parted:
                assert abs(ms.J[i, j] - tight_J[i, j]) <= max(abs(J[i, j] - tight_J[i, j]), 1e-13), (theta, i, j)


# Sigma at points where the former builders miss it, by mpmath at 30 digits:
# the quantile-form integrals for kumaraswamy; the x-form ones, with the
# regularized incomplete beta, for beta (x = 1 - t^(1/b) on the upper half,
# which takes out the (1 - x)^(b - 1) singularity), for the Student-t MM
# row, whose B, C and E|X| are closed forms (near lambda = 2, E X^2 is barely
# finite), and for the EPD ML row below lambda = 1, whose R is a closed form
# (its mu score is singular at the centre).  (s11, s12, s22).
HARD_SPOTS = {
    ("beta", "ml", (0.5, 0.3)): (0.1961978062874329392, 0.026358286833627626845, 0.34336314392974791429),
    ("beta", "ml", (0.5, 0.5)): (0.1960364490729868381, 3.3483929603176083593e-17, 0.33574428392505063697),
    ("beta", "ml", (0.5, 0.7)): (0.20244979140082342283, -0.011231871039385098582, 0.33202192708120708907),
    ("beta", "ml", (2.0, 0.3)): (0.23295733466230147729, 0.048276952952022922205, 0.34029821037858520742),
    ("beta", "ml", (2.0, 0.5)): (0.21890857285157010102, 0.024639948939853366644, 0.32767498540717677682),
    ("beta", "ml", (2.0, 0.7)): (0.21716287961957527632, 0.013680949497253726242, 0.31903575453276171874),
    ("kumaraswamy", "ml", (0.5, 0.3)): (0.24453666110260746308, 0.056039381412739369528, 0.34462371749578793937),
    ("kumaraswamy", "ml", (0.5, 0.5)): (0.22169603350288302582, 0.029538998951864778061, 0.33467390263317888482),
    ("kumaraswamy", "ml", (0.5, 0.7)): (0.21499854897001406099, 0.013840606873440927438, 0.32626100067819289139),
    ("kumaraswamy", "ml", (2.0, 0.3)): (0.24453666110260746308, 0.056039381412739369528, 0.34462371749578793937),
    ("kumaraswamy", "ml", (2.0, 0.5)): (0.22169603350288302582, 0.029538998951864778061, 0.33467390263317888482),
    ("kumaraswamy", "ml", (2.0, 0.7)): (0.21499854897001406099, 0.013840606873440927438, 0.32626100067819289139),
    ("student-t", "mm", (2.5, 0.0, 1.0)): (0.70925917495876095017, 0.0, 1.2070509990342604607),
    ("student-t", "mm", (3.0, 0.0, 1.0)): (0.3642361640718115152, 0.0, 0.70225338339366779448),
    ("student-t", "mm", (4.0, 0.0, 1.0)): (0.20646867417290884038, 0.0, 0.46707201434287036782),
    ("student-t", "mm", (2.01, 0.0, 1.0)): (36.886906567701025133, 0.0, 53.126734471347346032),
    ("student-t", "mm", (2.05, 0.0, 1.0)): (7.3251939524194589087, 0.0, 10.714640516093826013),
    ("epd", "ml", (0.6, 0.0, 1.0)): (0.020038185956396298091, 0.0, 0.38613239356832475699),
    ("epd", "ml", (0.8, 0.0, 1.0)): (0.015125868608858600291, 0.0, 0.17017047783167067906),
}


@pytest.mark.parametrize("name,kind,theta", list(HARD_SPOTS), ids=[f"{n}-{k}-{t}" for n, k, t in HARD_SPOTS])
def test_sigma_at_the_hard_spots(name, kind, theta):
    mask = KnownMask.from_names(name, {"lambda": theta[0]}) if kind == "mm" else None
    sig = scaling.sigma_from(name, kind, theta, mask)
    np.testing.assert_allclose([sig[0, 0], sig[0, 1], sig[1, 1]], HARD_SPOTS[(name, kind, theta)],
                               rtol=0.0, atol=1e-10)


EXTREME_ROWS = [(n, k, p) for n, k in ROWS for p in F.get_family(n).shapes]


@pytest.mark.parametrize("value", [1e200, 1e-200])
@pytest.mark.parametrize("name,kind,shape", EXTREME_ROWS, ids=[f"{n}-{k}-{p}" for n, k, p in EXTREME_ROWS])
def test_sigma_at_an_extreme_shape_is_spd_or_a_typed_failure(name, kind, shape, value):
    fam = F.get_family(name)
    theta = list(FAMILY_THETAS[name])
    theta[fam.param_names.index(shape)] = value
    known = {p: theta[fam.param_names.index(p)] for p in fam.mm_known} if kind == "mm" else {}
    mask = KnownMask.from_names(name, known) if known else None
    try:
        sig = scaling.sigma_from(name, kind, theta, mask)
    except REPLICATION_FAILURES:
        return
    except ConfigurationError:
        # a known shape the MM row does not take, which its fit refuses as well
        with pytest.raises(ConfigurationError):
            fit(name, kind, mask, F.sample(name, FAMILY_THETAS[name], 20, 1))
        return
    assert np.all(np.isfinite(sig)) and np.all(np.linalg.eigvalsh(sig) > 0.0)


def test_block_sigma_is_one_call_of_the_rule(monkeypatch):
    # on every fitted row, or on one row where the mask knows the shapes, in
    # one call per thread's part of those rows: 39 rows on the calling thread
    # with one thread; parts of 20 and 19 rows on the pool's two threads.
    # A row whose mask knows the shapes keeps that Sigma: a repeat call
    # makes no call of the rule, until the rows are built anew
    fam = F.get_family("gamma")
    X = np.stack([F.sample(fam, (2.3, 1.4), 200, np.random.SeedSequence([29, r])) for r in range(40)])
    gram = quadrature.gram
    calls = []

    def recording(f):
        M = gram(f)
        calls.append((threading.get_ident() == caller, len(M)))
        return M

    caller = threading.get_ident()
    for threads, free_calls in [(1, [(True, 39)]), (2, [(False, 19), (False, 20)])]:
        monkeypatch.setattr(F, "_THREADS", threads)
        for mask, want in [(None, free_calls),
                           (KnownMask.from_names(fam, {"lambda": 2.3}), [(True, 1)])]:
            thetas = _batch.batch_fit(fam, "ml", mask, X)
            thetas[3] = np.nan  # a failed fit
            estimate._row.cache_clear()
            calls.clear()
            monkeypatch.setattr(quadrature, "gram", recording)
            sig = scaling.sigma_from(fam, "ml", thetas, mask)
            # the pool's two calls run at once, so their order is not fixed
            assert (calls if len(want) == 1 else sorted(calls)) == want
            calls.clear()
            np.testing.assert_array_equal(scaling.sigma_from(fam, "ml", thetas, mask), sig)
            assert sorted(calls) == (sorted(want) if mask is None else [])
            monkeypatch.setattr(quadrature, "gram", gram)
            assert np.all(np.isnan(sig[3]))
            for i in [0, 1, 2, 39]:
                np.testing.assert_array_equal(sig[i], scaling.sigma_from(fam, "ml", thetas[i], mask))


def test_the_drift_refuses_a_singular_information():
    # unlike Sigma, the drift is taken at theta as given: at beta = 1e-7 the
    # gamma information's condition estimate is far past COND_LIMIT
    with pytest.raises(SingularityError, match="drift's C is numerically singular"):
        scaling.drift("gamma", "ml", (2.3, 1e-7), None, lambda t, x: [np.ones_like(x)])


@pytest.mark.parametrize("sig", [[[math.nan, 0.0], [0.0, 0.2]], [[math.inf, 0.0], [0.0, 0.2]],
                                 [[0.2, 0.3], [0.3, 0.2]], [[0.0, 0.0], [0.0, 0.2]]],
                         ids=["nan", "inf", "indefinite", "semidefinite"])
def test_sigma_and_the_ellipse_share_what_holds(sig):
    sig = np.array(sig)
    assert not scaling._holds(sig) and scaling._holds(np.array([[0.3, 0.05], [0.05, 0.2]]))
    with pytest.raises(SingularityError, match="Sigma is not finite and positive definite"):
        gof.ellipse(sig, 0.95)


def test_a_point_call_raises_where_its_row_reads_nan():
    # EPD at lambda = 1e-8 has a quantile that overflows next to its centre
    rows = np.array([[1.5, 0.3, 2.0], [1e-8, 0.0, 1.0], [2.0, 0.0, 1.0]])
    with pytest.raises(DomainError, match="not finite"):
        scaling.matrices("epd", "ml", rows[1])
    with pytest.raises(DomainError, match="not finite"):
        scaling.sigma_from("epd", "ml", rows[1])
    with pytest.raises(DomainError, match="not finite"):
        scaling.drift("epd", "ml", rows[1], None, lambda t, x: [np.ones_like(x)])
    ms = scaling.matrices("epd", "ml", rows)
    assert np.isnan(ms.G[1]).all() and np.isnan(ms.R[1]).all() and np.isnan(ms.J[1]).all()
    alone = scaling.matrices("epd", "ml", rows[[0, 2]])
    for got, want in zip((ms.G, ms.R, ms.J), (alone.G, alone.R, alone.J)):
        np.testing.assert_array_equal(got[[0, 2]], want)
    # a Sigma that does not hold: student-t at the top of its shape grid
    rows = np.array([[4.0, 0.1, 1.5], [1e8, 0.0, 1.0]])
    with pytest.raises(SingularityError):
        scaling.sigma_from("student-t", "ml", rows[1])
    sig = scaling.sigma_from("student-t", "ml", rows)
    assert np.isnan(sig[1]).all()
    np.testing.assert_array_equal(sig[0], scaling.sigma_from("student-t", "ml", rows[:1])[0])
