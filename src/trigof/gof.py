"""The goodness-of-fit test: trig moments, the scaled statistic, p-values,
component Z-scores and confidence-ellipse geometry.

The statistic is T_n = n [C_n, S_n] Sigma^-1 [C_n, S_n]^T with C_n, S_n the
sample means of cos/sin(2 pi U_i) over the fitted probability integral
transform U_i = F(x_i | theta_hat).  ``_single_test`` fits the sample and
hands theta_hat to ``_batch.statistic`` as a single row, the path the batch
replications take after their block fit, so the PIT, Sigma and T_n are
computed in one place.  Under the null it is asymptotically
chi-square with 2 degrees of freedom, so the asymptotic p-value has the
closed form exp(-T_n / 2).  A parametric-bootstrap p-value (refit inside
each replication) is available with add-one smoothing (r+1)/(R+1);
``replicate``, its loop, also serves empirical power and the studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _batch, families
from .errors import DomainError, EstimationError, SamplingError, SingularityError
from .estimate import EstimatorKind, FitResult, KnownMask, fit
from .scaling import _check_pd, _eig2
from .specfun import std_normal_quantile

__all__ = ["TrigMoments", "TestResult", "Ellipse", "trig_moments", "run_test",
           "replicate", "ellipse"]

TWO_PI = 2.0 * math.pi

# what a failed replication raises; anything else propagates
REPLICATION_FAILURES = (EstimationError, SingularityError, SamplingError, DomainError)


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


def _one_row(fam, theta, x):
    """theta and x as a (1, p) and a (1, n) row, with x inside the support."""
    fam = families.get_family(fam)
    t = families._theta(fam, theta)
    x = np.asarray(x, dtype=float)
    lo, hi = fam.support(t)
    if np.any(x < lo) or np.any(x > hi):
        raise DomainError(f"data outside the support of {fam.name}")
    return np.array([t]), x[None, :]


def trig_moments(fam, theta, x) -> TrigMoments:
    """Sample means of cos and sin of 2 pi times the PIT values."""
    thetas, X = _one_row(fam, theta, x)
    cn, sn = _batch.moment_rows(fam, thetas, X)
    return TrigMoments(float(cn[0]), float(sn[0]), X.shape[1])


def _single_test(fam, kind, mask, x):
    res = fit(fam, kind, mask, x)
    thetas, X = _one_row(fam, res.theta, x)
    cn, sn, sig, tn = _batch.statistic(fam, kind, mask, thetas, X)
    return res, TrigMoments(float(cn[0]), float(sn[0]), X.shape[1]), sig[0], float(tn[0])


def run_test(fam, kind=EstimatorKind.ML, mask: Optional[KnownMask] = None, x=None,
             mc: Optional[dict] = None) -> TestResult:
    """Fit, scale and test the sample against the null family.

    ``mc`` may carry {"reps": int, "seed": int} to add a parametric-bootstrap
    p-value: each replication draws n points from the fitted model, refits
    with the same estimator and mask, and recomputes the statistic, through
    ``replicate``.  Refits use the batch kernels where the (family,
    estimator, mask) row has them, the scalar pipeline otherwise.
    Replications whose refit fails are skipped and counted; more than 1%
    failures (and more than one) aborts with EstimationError.
    """
    fam = families.get_family(fam)
    kind = EstimatorKind(kind)
    x = np.asarray(x, dtype=float)
    res, m, sig, tn = _single_test(fam, kind, mask, x)
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
        n = len(x)
        tn_r = replicate(
            fam, kind, mask,
            lambda r: families.sample(fam, res.theta, n, np.random.SeedSequence([seed, r])),
            range(reps), max_failed=max(1, 0.01 * reps))
        failed = int(np.count_nonzero(np.isnan(tn_r)))
        exceed = int(np.count_nonzero(tn_r >= tn))
        p_mc = (exceed + 1) / (reps - failed + 1)

    return TestResult(fam.name, kind.value, res, m, sig, tn, p_chi2, zc, zs,
                      p_mc, reps, exceed, failed)


def _block_tn(fam, kind, mask, block, batch: bool) -> np.ndarray:
    if batch:
        try:
            return _batch.batch_tn(fam, kind, mask, np.stack(block))
        except REPLICATION_FAILURES:
            pass  # redo the block one sample at a time to isolate the failures
    tn = np.empty(len(block))
    for j, x in enumerate(block):
        try:
            tn[j] = _single_test(fam, kind, mask, x)[3]
        except REPLICATION_FAILURES:
            tn[j] = np.nan
    return tn


def replicate(fam, kind, mask: Optional[KnownMask], sample, indices,
              max_failed: Optional[float] = None) -> np.ndarray:
    """T_n of the refitted sample ``sample(r)`` for each r in ``indices``.

    Blocks of samples go through the batch kernels where ``_batch.supports``
    the row, through the scalar pipeline one at a time otherwise (or when a
    block raises).  A replication whose fit, Sigma or statistic raises one of
    ``REPLICATION_FAILURES``, or whose T_n is not finite, fails and reads
    NaN; errors from ``sample`` propagate.  More than ``max_failed``
    failures abort with EstimationError.
    """
    fam = families.get_family(fam)
    kind = EstimatorKind(kind)
    indices = list(indices)
    batch = _batch.supports(fam, kind, mask)
    tn = np.empty(len(indices))
    done = failed = 0
    while done < len(indices):
        block = [sample(indices[done])]
        rows = min(256, max(1, 2 ** 18 // len(block[0]))) if batch else 1  # <= 2**18 values
        stop = min(done + rows, len(indices))
        block += [sample(r) for r in indices[done + 1:stop]]
        tn_b = _block_tn(fam, kind, mask, block, batch)
        tn_b[~np.isfinite(tn_b)] = np.nan
        tn[done:stop] = tn_b
        failed += int(np.count_nonzero(np.isnan(tn_b)))
        done = stop
        if max_failed is not None and failed > max_failed:
            raise EstimationError(f"more than {max_failed:g} of {len(indices)} replications "
                                  f"failed ({failed}/{done})")
    return tn


def ellipse(sig: np.ndarray, level: float, n_points: int = 256) -> Ellipse:
    """Geometry of {v : v^T Sigma^-1 v = q}, q the chi2(2) quantile of level.

    Also carries the univariate two-sided thresholds
    z_(1+level)/2 * sqrt(Sigma_kk) drawn alongside the ellipse.
    """
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    sig = np.asarray(sig, dtype=float)
    q = -2.0 * math.log1p(-level)
    _check_pd(sig)
    a, b, c = sig[0, 0], sig[0, 1], sig[1, 1]
    l1, l2 = _eig2(sig)
    rotation = 0.5 * math.atan2(2.0 * b, a - c) if b != 0.0 else (0.0 if a >= c else 0.5 * math.pi)
    phi = np.linspace(0.0, TWO_PI, n_points, endpoint=False)
    circle = np.column_stack([np.cos(phi), np.sin(phi)])
    ct, st = math.cos(rotation), math.sin(rotation)
    Q = np.array([[ct, -st], [st, ct]])
    half = Q @ np.diag([math.sqrt(q * l1), math.sqrt(q * l2)])
    boundary = circle @ half.T
    z = float(std_normal_quantile(0.5 * (1.0 + level)))
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
