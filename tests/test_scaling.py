import numpy as np
import pytest

from trigof import families as F
from trigof import scaling
from trigof.gof import run_test
from trigof.estimate import KnownMask
from conftest import FAMILY_THETAS, MM_REQUIRED_KNOWN

# every (family, estimator) row; MM rows with the shape they require known
ROWS = [(name, kind) for name in sorted(FAMILY_THETAS) for kind in ("ml", "mm")
        if kind == "ml" or F.get_family(name).has_mm]


def _mask(name, kind):
    known = MM_REQUIRED_KNOWN.get(name, {}) if kind == "mm" else {}
    return KnownMask.from_names(name, known) if known else None


@pytest.mark.parametrize("name,kind", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
def test_sigma_moves_with_the_declared_shapes_only(name, kind):
    fam, theta, mask = F.get_family(name), FAMILY_THETAS[name], _mask(name, kind)
    sig = scaling.sigma_from(name, kind, theta, mask)
    for i, p in enumerate(fam.param_names):
        moved = list(theta)
        moved[i] = 1.3 * theta[i] + 0.2
        change = np.max(np.abs(scaling.sigma_from(name, kind, moved, mask) - sig))
        if p in fam.shapes:
            assert change > 1e-9, p
        else:
            assert change <= 1e-12, p


def test_shapes_are_parameters_of_their_family():
    for name in F.family_names():
        fam = F.get_family(name)
        assert set(fam.shapes) <= set(fam.param_names)
        if fam.base is not None:
            assert fam.shapes == fam.base.shapes


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
    # where _batch takes Sigma again when R at the fitted theta reads singular
    fam, theta, mask = F.get_family(name), FAMILY_THETAS[name], _mask(name, kind)
    unit = [v if p in fam.shapes else 1.0 for p, v in zip(fam.param_names, theta)]
    np.testing.assert_allclose(scaling.sigma_from(name, kind, unit, mask),
                               scaling.sigma_from(name, kind, theta, mask), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-7, 1e7])
@pytest.mark.parametrize("name", ["epd", "exp-gamma", "frechet", "gamma", "gg", "gompertz",
                                  "half-epd", "inverse-gamma", "log-logistic", "lomax",
                                  "nakagami", "weibull"])
def test_statistic_does_not_depend_on_the_units_of_the_data(name, scale):
    # R's entries scale as 1/scale^2, and the condition estimate of R at the
    # fitted theta of 1e7 x calls it singular; Sigma is taken at unit scale
    x = F.sample(name, FAMILY_THETAS[name], 200, 3)
    tn = run_test(name, "ml", None, x).tn
    assert run_test(name, "ml", None, scale * x).tn == pytest.approx(tn, rel=1e-6)
