"""Sigma is the covariance of sqrt(n) (C_n, S_n) under the null with theta
estimated, the paper's central claim, checked on simulated replications.

Each row of CASES draws REPS samples of N observations from its family at
theta, in blocks of BLOCK rows (``families._draws``), keyed by
SeedSequence([99, row, r]) so that no two rows share uniforms, and fits and
takes moments through the block functions ``gof.replicate`` runs
(``_batch.batch_fit`` and ``_batch.moment_rows``).  The distance of the
simulated covariance from Sigma is read as z: the largest |cov - Sigma| over
the standard error of the centred products.  The check has teeth where the
row is marked: there the same replications are far from I/2, the Sigma that
ignores the estimation (Durbin 1973, Ann. Statist. 1).

The same replications check the level: their T_n, each under its own Sigma
through ``_batch.statistic``, must reject at the chi-square(2) rate alpha =
0.05 within LEVEL_Z binomial standard errors.  SMALL_CASES adds SMALL_REPS
replications at SMALL_N on rows that hold their level there, keyed by
SeedSequence([50, row, r]).
"""

import functools
import math

import numpy as np
import pytest

from trigof import _batch, scaling
from trigof import families as F
from trigof.estimate import KnownMask

N, REPS, BLOCK = 200, 1000, 256
Z_BOUND = 5.0
LEVEL_Z = 4.5
SMALL_N, SMALL_REPS = 50, 4000

# (family, estimator, theta, known, whether the replications reject I/2)
CASES = [
    ("normal", "ml", (0.0, 1.0), {}, True),
    ("laplace", "ml", (0.0, 1.0), {}, True),
    ("laplace", "mm", (0.0, 1.0), {}, False),
    ("epd", "ml", (1.5, 0.0, 1.0), {"lambda": 1.5}, True),
    ("epd", "mm", (1.5, 0.0, 1.0), {"lambda": 1.5}, True),
    ("logistic", "ml", (0.0, 1.0), {}, True),
    ("logistic", "mm", (0.0, 1.0), {}, True),
    ("student-t", "mm", (4.0, 0.0, 1.0), {"lambda": 4.0}, True),
    ("gumbel", "ml", (0.0, 1.0), {}, True),
    ("exp-weibull", "ml", (0.0, 1.0), {}, True),
    ("weibull", "ml", (1.0, 1.5), {}, True),
    ("frechet", "ml", (1.0, 2.0), {}, True),
    ("gamma", "ml", (2.0, 1.0), {}, True),
    ("inverse-gamma", "ml", (2.0, 1.0), {}, True),
    ("gompertz", "ml", (1.0, 0.5), {}, True),
    ("log-logistic", "ml", (1.0, 2.0), {}, True),
    ("log-logistic", "mm", (1.0, 2.0), {}, True),
    ("half-epd", "ml", (1.8, 1.0), {}, True),
    ("half-epd", "mm", (1.8, 1.0), {"lambda": 1.8}, True),
    ("lomax", "ml", (3.0, 1.0), {}, False),
    ("nakagami", "ml", (1.5, 1.0), {}, True),
    ("inverse-gaussian", "ml", (1.0, 2.0), {}, True),
    ("exponential", "ml", (1.0,), {}, True),
    ("half-normal", "mm", (1.0,), {}, True),
    ("rayleigh", "mm", (1.0,), {}, True),
    ("maxwell-boltzmann", "mm", (1.0,), {}, True),
    ("chi-squared", "ml", (3.0,), {}, True),
    ("chi-squared", "mm", (3.0,), {}, True),
    ("pareto", "ml", (2.0,), {}, True),
    ("beta", "ml", (2.0, 3.0), {}, True),
    ("beta-prime", "ml", (2.0, 3.0), {}, True),
    ("kumaraswamy", "ml", (2.0, 1.5), {}, True),
    ("uniform", "ml", (0.0, 1.0), {}, False),  # its Sigma is I/2
    ("log-normal", "ml", (0.0, 1.0), {}, True),
    ("log-laplace", "mm", (0.0, 1.0), {}, False),
    ("log-epd", "mm", (1.5, 0.0, 1.0), {"lambda": 1.5}, True),
    ("student-t", "ml", (5.0, 0.0, 1.0), {}, True),
    ("exp-gamma", "ml", (2.0, 0.0, 1.0), {}, True),
    ("epd", "ml", (1.5, 0.0, 1.0), {}, True),
]


SMALL_CASES = [("normal", (0.0, 1.0)), ("laplace", (0.0, 1.0)), ("gamma", (2.0, 1.0)),
               ("weibull", (1.0, 1.5)), ("logistic", (0.0, 1.0)), ("inverse-gaussian", (1.0, 2.0))]

IDS = [f"{fam}-{kind}" + "".join(f"-{name}" for name in known) for fam, kind, _, known, _ in CASES]


def _z(v, sigma) -> float:
    """The largest |cov(v) - sigma| over the standard error of its entry."""
    v = v - v.mean(axis=0)
    cov = v.T @ v / (len(v) - 1)
    se = (v[:, :, None] * v[:, None, :]).std(axis=0) / np.sqrt(len(v))
    return float(np.max(np.abs(cov - sigma) / np.maximum(se, 1e-12)))


def _replications(fam, kind, theta, mask, n, reps, key):
    """C_n, S_n and T_n of ``reps`` samples of n drawn at theta, fitted in
    blocks as ``gof.replicate`` fits them; replication r from key + [r]."""
    inverse = F._quantile_of(fam, theta)
    parts = []
    for lo in range(0, reps, BLOCK):
        X = F._draws(inverse, n, [np.random.SeedSequence([*key, r])
                                  for r in range(lo, min(lo + BLOCK, reps))])
        parts.append(_batch.statistic(fam, kind, mask, _batch.batch_fit(fam, kind, mask, X), X))
    cn, sn, _, tn = (np.concatenate(part) for part in zip(*parts))
    return cn, sn, tn


@functools.lru_cache(maxsize=None)  # shared by the covariance and the level check
def _case(index):
    fam, kind, theta, known, _ = CASES[index]
    mask = KnownMask.from_names(fam, known) if known else None
    return _replications(fam, kind, theta, mask, N, REPS, (99, index))


def _assert_level(tn):
    """The rejection rate of the finite T_n at alpha = 0.05 within LEVEL_Z
    binomial standard errors; the message gives the rates at 0.01 and 0.10."""
    done = tn[np.isfinite(tn)]
    rates = {a: float(np.mean(done > -2.0 * math.log(a))) for a in (0.01, 0.05, 0.10)}
    se = math.sqrt(0.05 * 0.95 / len(done))
    assert abs(rates[0.05] - 0.05) <= LEVEL_Z * se, (
        f"rejection rates {rates} over {len(done)} replications "
        f"({len(tn) - len(done)} non-finite); z = {(rates[0.05] - 0.05) / se:+.2f}")


@pytest.mark.parametrize(
    "index,fam,kind,theta,known,rejects_half_identity",
    [(i, *case) for i, case in enumerate(CASES)], ids=IDS)
def test_sigma_is_the_simulated_covariance(index, fam, kind, theta, known,
                                           rejects_half_identity):
    mask = KnownMask.from_names(fam, known) if known else None
    cn, sn, _ = _case(index)
    done = np.isfinite(cn) & np.isfinite(sn)
    assert np.count_nonzero(~done) <= 0.01 * REPS
    v = np.sqrt(N) * np.column_stack([cn[done], sn[done]])
    assert _z(v, scaling.sigma_from(fam, kind, theta, mask)) < Z_BOUND
    if rejects_half_identity:
        assert _z(v, 0.5 * np.eye(2)) > Z_BOUND


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_the_statistic_holds_its_level(index):
    _assert_level(_case(index)[2])


@pytest.mark.parametrize("index,fam,theta", [(i, *case) for i, case in enumerate(SMALL_CASES)],
                         ids=[fam for fam, _ in SMALL_CASES])
def test_the_statistic_holds_its_level_at_small_n(index, fam, theta):
    _assert_level(_replications(fam, "ml", theta, None, SMALL_N, SMALL_REPS, (50, index))[2])
