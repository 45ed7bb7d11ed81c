"""The goodness-of-fit test: trig moments, the scaled statistic, p-values,
component Z-scores and confidence-ellipse geometry.

The statistic is T_n = n [C_n, S_n] Sigma^-1 [C_n, S_n]^T with C_n, S_n the
sample means of cos/sin(2 pi U_i) over the fitted probability integral
transform U_i = F(x_i | theta_hat), under the (family, estimator, mask) row
that ``estimate.row`` resolves once.  ``_single_test`` fits the sample and
hands theta_hat to ``_batch.statistic`` as a single row, the path the batch
replications take after their block fit, so the PIT, Sigma and T_n are
computed in one place; Sigma raises its own cause there, and a PIT that
comes back NaN raises DomainError.  Under the null it is asymptotically
chi-square with 2 degrees of freedom, so the asymptotic p-value has the
closed form exp(-T_n / 2).  A parametric-bootstrap p-value (refit inside
each replication) is available with add-one smoothing (r+1)/(R+1);
``replicate``, its loop, also serves empirical power and the studies.  It
asks its sampler for a block of replications at a time, which
``families._draws`` fills in one pass, each row from its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special as sp

from . import _batch, families
from .errors import DomainError, EstimationError, SingularityError
from .estimate import EstimatorKind, FitResult, KnownMask, fit, row
from .scaling import _eig2, _holds

__all__ = ["TrigMoments", "TestResult", "Ellipse", "trig_moments", "run_test",
           "replicate", "rejection_rate", "ellipse"]

TWO_PI = 2.0 * math.pi

# what a block raises for a cause common to its rows, which fails them all;
# anything else propagates
REPLICATION_FAILURES = (EstimationError, SingularityError, DomainError)


@dataclass(frozen=True)
class TrigMoments:
    cn: float
    sn: float
    n: int


@dataclass(frozen=True)
class TestResult:
    family: str
    kind: str
    fit: FitResult
    moments: TrigMoments
    sigma: np.ndarray
    tn: float
    p_chi2: float
    zc: float
    zs: float
    p_mc: Optional[float] = None
    mc_reps: Optional[int] = None
    mc_exceed: Optional[int] = None
    mc_failed: Optional[int] = None


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_axes: tuple[float, float]
    rotation: float
    level: float
    q: float
    x_threshold: float
    y_threshold: float
    boundary: np.ndarray  # (n_points, 2)


def trig_moments(fam, theta, x) -> TrigMoments:
    """Sample means of cos and sin of 2 pi times the PIT values; DomainError
    where x is not finite or outside the support."""
    fam = families.get_family(fam)
    t = families._theta(fam, theta)
    x = np.asarray(x, dtype=float)
    lo, hi = fam.support(t)
    if not np.all((x >= lo) & (x <= hi) & np.isfinite(x)):
        raise DomainError(f"data outside the support of {fam.name}")
    cn, sn = _batch.moment_rows(fam, np.array([t]), x[None, :])
    return TrigMoments(float(cn[0]), float(sn[0]), len(x))


def _single_test(fam, kind, mask, x):
    """Fit, moments, Sigma and T_n of one sample, the sample checked by ``fit``;
    DomainError where its PIT or an integrand of Sigma's matrices is not
    finite, SingularityError where Sigma does not hold."""
    r = row(fam, kind, mask)
    res = fit(r, r.kind, r.mask, x)
    X = np.asarray(x, dtype=float)[None, :]
    cn, sn, sig, tn = _batch.statistic(r, r.kind, r.mask, res.theta[None, :], X)
    if np.isnan(cn[0]):
        raise DomainError(f"the {r.fam.name} PIT is not finite on this sample")
    return res, TrigMoments(float(cn[0]), float(sn[0]), X.shape[1]), sig[0], float(tn[0])


def run_test(fam, kind=EstimatorKind.ML, mask: Optional[KnownMask] = None, x=None,
             mc: Optional[dict] = None) -> TestResult:
    """Fit, scale and test the sample against the null family.

    ``mc`` may carry {"reps": int, "seed": int} to add a parametric-bootstrap
    p-value: each replication r draws n points from the fitted model, from
    the key (seed, r), refits with the same estimator and mask, and
    recomputes the statistic, through ``replicate``, which draws and refits
    blocks of replications at once.
    Replications whose refit fails are skipped and counted; more than 1%
    failures (and more than one) aborts with EstimationError.
    """
    r = row(fam, kind, mask)
    x = np.asarray(x, dtype=float)
    res, m, sig, tn = _single_test(r, r.kind, r.mask, x)
    sqrt_n = math.sqrt(m.n)
    zc = sqrt_n * m.cn / math.sqrt(sig[0, 0])
    zs = sqrt_n * m.sn / math.sqrt(sig[1, 1])
    p_chi2 = min(1.0, math.exp(-0.5 * tn))

    p_mc = reps = exceed = failed = None
    if mc is not None:
        reps = int(mc["reps"])
        seed = mc.get("seed", 0)
        if reps < 1:
            raise DomainError("mc reps must be >= 1")
        fitted = families._quantile_of(r.fam, res.theta)
        tn_r = replicate(
            r, r.kind, r.mask, len(x),
            lambda rs: families._draws(fitted, len(x),
                                       [np.random.SeedSequence([seed, i]) for i in rs]),
            range(reps), max_failed=max(1, 0.01 * reps))
        failed = int(np.count_nonzero(np.isnan(tn_r)))
        exceed = int(np.count_nonzero(tn_r >= tn))
        p_mc = (exceed + 1) / (reps - failed + 1)

    return TestResult(r.fam.name, r.kind.value, res, m, sig, tn, p_chi2, zc, zs,
                      p_mc, reps, exceed, failed)


def replicate(fam, kind, mask: Optional[KnownMask], n: int, sample, indices,
              max_failed: Optional[float] = None) -> np.ndarray:
    """T_n of the refitted sample of each replication in ``indices``.

    ``sample(rs)`` returns the samples of the replications ``rs`` as one
    (len(rs), n) block, row i that of rs[i]; ``rs`` is a list of at most 256
    consecutive entries of ``indices`` and 2**18 values.  Each block is
    fitted and tested at once by ``_batch.batch_tn``, once, in which every
    row fails alone.  A replication whose fit, PIT, Sigma or statistic fails, or
    whose T_n is not finite, reads NaN; a block that raises one of
    ``REPLICATION_FAILURES`` (a cause common to all its rows) reads NaN
    throughout.  Errors from ``sample`` and ``estimate.row`` propagate.  More
    than ``max_failed`` failures abort with EstimationError.
    """
    r = row(fam, kind, mask)
    indices = list(indices)
    tn = np.empty(len(indices))
    rows = min(256, max(1, 2 ** 18 // max(1, n)))  # n < 1: the sampler raises
    failed = 0
    for done in range(0, len(indices), rows):
        stop = min(done + rows, len(indices))
        X = sample(indices[done:stop])
        try:
            tn_b = _batch.batch_tn(r, r.kind, r.mask, X)
        except REPLICATION_FAILURES:
            tn_b = np.full(len(X), np.nan)
        tn_b[~np.isfinite(tn_b)] = np.nan
        tn[done:stop] = tn_b
        failed += int(np.count_nonzero(np.isnan(tn_b)))
        if max_failed is not None and failed > max_failed:
            raise EstimationError(f"more than {max_failed:g} of {len(indices)} replications "
                                  f"failed ({failed}/{stop})")
    return tn


def rejection_rate(rejections: int, done: int) -> tuple[float, float]:
    """The rejection rate over the ``done`` replications that did not fail and
    its binomial standard error; both NaN where none is left to count."""
    if done < 1:
        return math.nan, math.nan
    rate = rejections / done
    return rate, math.sqrt(rate * (1.0 - rate) / done)


def ellipse(sig: np.ndarray, level: float, n_points: int = 256) -> Ellipse:
    """Geometry of {v : v^T Sigma^-1 v = q}, q the chi2(2) quantile of level.

    Also carries the univariate two-sided thresholds
    z_(1+level)/2 * sqrt(Sigma_kk) drawn alongside the ellipse.
    """
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    sig = np.asarray(sig, dtype=float)
    q = -2.0 * math.log1p(-level)
    if not _holds(sig):
        raise SingularityError(f"Sigma is not finite and positive definite: {sig.tolist()}")
    a, b, c = sig[0, 0], sig[0, 1], sig[1, 1]
    l1, l2 = _eig2(sig)
    rotation = 0.5 * math.atan2(2.0 * b, a - c) if b != 0.0 else (0.0 if a >= c else 0.5 * math.pi)
    phi = np.linspace(0.0, TWO_PI, n_points, endpoint=False)
    circle = np.column_stack([np.cos(phi), np.sin(phi)])
    ct, st = math.cos(rotation), math.sin(rotation)
    Q = np.array([[ct, -st], [st, ct]])
    half = Q @ np.diag([math.sqrt(q * l1), math.sqrt(q * l2)])
    boundary = circle @ half.T
    z = float(sp.ndtri(0.5 * (1.0 + level)))
    return Ellipse(
        center=(0.0, 0.0),
        semi_axes=(math.sqrt(q * l1), math.sqrt(q * l2)),
        rotation=rotation,
        level=level,
        q=q,
        x_threshold=z * math.sqrt(a),
        y_threshold=z * math.sqrt(c),
        boundary=boundary,
    )
