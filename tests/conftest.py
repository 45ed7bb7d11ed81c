import itertools

import numpy as np
import pytest

from trigof import families as F
from trigof.estimate import KnownMask

# representative interior parameter points, one per family
FAMILY_THETAS = {
    "epd": (1.5, 0.3, 2.0),
    "laplace": (0.5, 1.3),
    "normal": (-0.2, 1.7),
    "exp-gamma": (2.0, 0.5, 1.2),
    "exp-weibull": (0.1, 0.8),
    "gumbel": (0.4, 1.1),
    "logistic": (0.2, 0.9),
    "student-t": (4.0, 0.1, 1.5),
    "log-epd": (1.5, 0.3, 0.6),
    "log-laplace": (0.2, 0.5),
    "log-normal": (0.1, 0.7),
    "half-epd": (1.8, 1.4),
    "gg": (1.7, 2.0, 0.8),
    "weibull": (2.0, 1.5),
    "frechet": (1.2, 2.2),
    "gompertz": (0.7, 0.4),
    "log-logistic": (1.5, 2.5),
    "gamma": (2.3, 1.4),
    "inverse-gamma": (2.5, 1.8),
    "beta-prime": (2.0, 3.0),
    "lomax": (2.5, 1.5),
    "nakagami": (1.6, 2.0),
    "inverse-gaussian": (1.0, 2.0),
    "exponential": (1.7,),
    "half-normal": (1.2,),
    "rayleigh": (0.8,),
    "maxwell-boltzmann": (1.1,),
    "chi-squared": (3.5,),
    "pareto": (2.4,),
    "beta": (2.0, 3.0),
    "kumaraswamy": (2.0, 1.5),
    "uniform": (-1.0, 2.5),
}

# MM rows that require a shape parameter known, keyed by family
MM_REQUIRED_KNOWN = {
    "epd": {"lambda": 1.5},
    "log-epd": {"lambda": 1.5},
    "student-t": {"lambda": 4.0},
    "half-epd": {"lambda": 1.8},
}


def known_names(name, kind, every=False):
    """Known-name tuples of the row (name, kind), each in parameter order: the
    MM row's required shapes plus every choice of the others that leaves one
    to fit (and all of them, with ``every``), fewest first."""
    names = F.get_family(name).param_names
    required = tuple(MM_REQUIRED_KNOWN.get(name, {})) if kind == "mm" else ()
    others = [p for p in names if p not in required]
    for r in range(len(others) + every):
        for extra in itertools.combinations(others, r):
            yield tuple(p for p in names if p in required + extra)


def supported_rows():
    """(family, kind, known names) of every supported row: the families of
    FAMILY_THETAS by name, ML before MM, each under ``known_names``."""
    for name in sorted(FAMILY_THETAS):
        for kind in ("ml", "mm") if F.get_family(name).has_mm else ("ml",):
            for known in known_names(name, kind):
                yield name, kind, known


def known_mask(name, known, theta=None):
    """The mask holding the parameters ``known`` at theta's values (the
    FAMILY_THETAS point's by default), or None when none is known."""
    values = dict(zip(F.get_family(name).param_names,
                      FAMILY_THETAS[name] if theta is None else theta))
    return KnownMask.from_names(name, {p: values[p] for p in known}) if known else None


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
