"""Vectorized kernels: fits across replication blocks, and the one path from
fitted theta rows to T_n.

X has one replication per row.  ``statistic`` takes theta rows of shape
(rows, p) and samples of shape (rows, n) and returns C_n, S_n, the Sigma rows
and T_n = n [C_n, S_n] Sigma^-1 [C_n, S_n]^T; the PIT is the family's own
``cdf_fn``, called once on the block.  ``batch_tn`` feeds it the batch fits
and ``gof._single_test`` a single scalar fit, so the two pipelines share
everything after the fit.

A row can batch when its estimator runs over rows: the closed forms of
``estimate.rows_estimator``, which ``fit`` uses too, or three batch-only
iterative ML kernels that solve the scalar estimating equations to the same
tolerances.  Rows that ``fit`` rejects come back as NaN without reaching a
kernel; failed replications and the loop over blocks are ``gof.replicate``'s.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from . import scaling
from .errors import ConfigurationError, SingularityError
from .estimate import EstimatorKind, KnownMask, rejected_rows, rows_estimator
from .families import get_family

_TWO_PI = 2.0 * math.pi


def _estimator(fam, kind, mask: KnownMask):
    """X -> theta rows for the row, or None where it has no batch fit."""
    rows = rows_estimator(fam, kind, mask)
    if rows is not None or kind is not EstimatorKind.ML:
        return rows
    # the batch-only iterative ML kernels
    if fam.name in ("gamma", "weibull") and mask.n_known == 0:
        return _fit_gamma_batch if fam.name == "gamma" else _fit_weibull_batch
    # the bisection for the ML location needs a monotone score: lambda >= 1
    if fam.name == "epd" and mask.known == (True, False, False) and mask.fixed_values[0] >= 1.0:
        return lambda X: _fit_epd_lam_known_batch(X, mask.fixed_values[0])
    return None


def supports(fam, kind, mask: KnownMask | None) -> bool:
    fam = get_family(fam)
    return _estimator(fam, EstimatorKind(kind), mask or KnownMask.none(fam.n_params)) is not None


# ---------------------------------------------------------------------------
# batched fits: X has shape (reps, n); returns theta of shape (reps, p)
# ---------------------------------------------------------------------------

def _fit_gamma_batch(X):
    xbar = X.mean(axis=1)
    mean_ln = np.log(X).mean(axis=1)
    s = np.log(xbar) - mean_ln
    s = np.where(s > 0.0, s, np.nan)  # s > 0 by Jensen: a failed fit otherwise
    lam = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(60):
        f = sp.digamma(lam) - np.log(lam) + s
        fp = sp.polygamma(1, lam) - 1.0 / lam
        step = f / fp
        lam_new = np.maximum(lam - step, 0.1 * lam)
        rel = np.abs(lam_new - lam) / lam_new
        lam = lam_new
        if not np.any(rel >= 1e-13):  # NaN rows (failed fits) do not hold up the block
            break
    lam[~(rel <= 1e-8)] = np.nan
    return np.column_stack([lam, xbar / lam])


def _fit_weibull_batch(X):
    lx = np.log(X)
    mean_lx = lx.mean(axis=1, keepdims=True)
    rho = (math.pi / math.sqrt(6.0)) / np.maximum(lx.std(axis=1), 1e-12)
    shift = lx.max(axis=1, keepdims=True)
    for _ in range(80):
        w = np.exp(rho[:, None] * (lx - shift))
        a0 = w.sum(axis=1)
        a1 = (w * lx).sum(axis=1)
        a2 = (w * lx ** 2).sum(axis=1)
        m1 = a1 / a0
        phi = m1 - mean_lx[:, 0] - 1.0 / rho
        dphi = a2 / a0 - m1 ** 2 + 1.0 / rho ** 2
        step = phi / dphi
        rho_new = np.maximum(rho - step, 0.2 * rho)
        rel = np.abs(rho_new - rho) / rho_new
        rho = rho_new
        if not np.any(rel >= 1e-13):
            break
    rho[~(rel <= 1e-8)] = np.nan
    w = np.exp(rho[:, None] * (lx - shift))
    beta = np.exp(shift[:, 0] + np.log(w.mean(axis=1)) / rho)
    return np.column_stack([beta, rho])


def _fit_epd_lam_known_batch(X, lam):
    lo = X.min(axis=1)
    hi = X.max(axis=1)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        d = X - mid[:, None]
        g = (np.sign(d) * np.abs(d) ** (lam - 1.0)).sum(axis=1)
        pos = g > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    mu = 0.5 * (lo + hi)
    sigma = (np.abs(X - mu[:, None]) ** lam).mean(axis=1) ** (1.0 / lam)
    return np.column_stack([np.full_like(mu, lam), mu, sigma])


def batch_fit(fam, kind, mask: KnownMask | None, X) -> np.ndarray:
    """theta rows fitted to the rows of X; NaN rows where the fit fails."""
    fam = get_family(fam)
    kind = EstimatorKind(kind)
    mask = mask or KnownMask.none(fam.n_params)
    est = _estimator(fam, kind, mask)
    if est is None:
        raise ConfigurationError(f"no batch fit for ({fam.name}, {kind.value})")
    bad = np.logical_or(*rejected_rows(fam, mask, X))
    if not bad.any():
        return est(X)
    thetas = np.full((len(X), fam.n_params), np.nan)
    if not bad.all():
        thetas[~bad] = est(X[~bad])
    return thetas


def _sigma_at(fam, kind, theta, mask):
    # R's condition depends on the data's units: retry with all but the shapes at 1
    try:
        return scaling.sigma_from(fam, kind, theta, mask)
    except SingularityError:
        unit = [v if p in fam.shapes else 1.0 for p, v in zip(fam.param_names, theta)]
        return scaling.sigma_from(fam, kind, unit, mask)


def _sigma_rows(fam, kind, mask, thetas) -> np.ndarray:
    """Per-row scaling covariances, NaN where the fit failed; Sigma depends on
    theta through ``fam.shapes`` only, so a block with them known shares one."""
    fam = get_family(fam)
    fitted = np.flatnonzero(np.all(np.isfinite(thetas), axis=1))
    sig = np.full((thetas.shape[0], 2, 2), np.nan)
    shared = all(mask is not None and mask.is_known(fam, s) for s in fam.shapes)
    for i in fitted[:1] if shared else fitted:
        sig[i] = _sigma_at(fam, kind, tuple(thetas[i]), mask)
    if shared:
        sig[fitted] = sig[fitted[:1]]
    return sig


def moment_rows(fam, thetas: np.ndarray, X: np.ndarray):
    """C_n and S_n of each row of X under its theta row; NaN where theta is not
    finite.  The family's ``cdf_fn`` runs once, on the finite rows, with the
    theta columns of shape (rows, 1), and is clipped to [0, 1] as
    ``families.cdf`` does."""
    fam = get_family(fam)
    fitted = np.flatnonzero(np.all(np.isfinite(thetas), axis=1))
    cn, sn = np.full(len(X), np.nan), np.full(len(X), np.nan)
    if fitted.size:
        cols = tuple(thetas[fitted, j, None] for j in range(thetas.shape[1]))
        with np.errstate(over="ignore", under="ignore"):
            u = np.clip(fam.cdf_fn(cols, X[fitted]), 0.0, 1.0)
        u *= _TWO_PI
        cn[fitted], sn[fitted] = np.cos(u).mean(axis=1), np.sin(u).mean(axis=1)
    return cn, sn


def statistic(fam, kind, mask: KnownMask | None, thetas: np.ndarray, X: np.ndarray):
    """C_n, S_n, the Sigma rows (``_sigma_rows``) and T_n of each row of X under its theta row."""
    cn, sn = moment_rows(fam, thetas, X)
    sig = _sigma_rows(fam, kind, mask, thetas)
    a, b, c = sig[:, 0, 0], sig[:, 0, 1], sig[:, 1, 1]
    tn = X.shape[1] * (c * cn ** 2 - 2.0 * b * cn * sn + a * sn ** 2) / (a * c - b * b)
    return cn, sn, sig, tn


def batch_tn(fam, kind, mask: KnownMask | None, X: np.ndarray):
    """Vector of test statistics for each replication row of X."""
    return statistic(fam, kind, mask, batch_fit(fam, kind, mask, X), X)[3]
