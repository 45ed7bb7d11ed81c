"""Vectorized kernels: fits across replication blocks, and the one path from
fitted theta rows to T_n.

X has one replication per row.  ``statistic`` takes theta rows of shape
(rows, p) and samples of shape (rows, n) and returns C_n, S_n, the Sigma rows
and T_n = n [C_n, S_n] Sigma^-1 [C_n, S_n]^T; the PIT is the family's own
``cdf_fn``, called once on the block.  ``batch_tn`` feeds it the batch fits
and ``gof._single_test`` a single scalar fit, so the two pipelines share
everything after the fit.  Each batch fit works on the whole block at once
for the family/estimator/mask rows that ``supports`` accepts, and agrees with
the scalar ``estimate.fit`` (same estimating equations, solved to the same
tolerances).  A row whose fit fails comes back as NaN; what counts as a
failed replication, and the loop over blocks, belong to ``gof.replicate``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from . import scaling
from .errors import ConfigurationError
from .estimate import EstimatorKind, KnownMask, _epd_c2
from .families import get_family

_TWO_PI = 2.0 * math.pi


def _batch_key(fam_name: str, kind: EstimatorKind, mask: KnownMask | None):
    n_known = 0 if mask is None else mask.n_known
    if fam_name in ("normal", "laplace", "exponential", "uniform") and n_known == 0:
        return fam_name
    if fam_name == "logistic" and kind is EstimatorKind.MM and n_known == 0:
        return "logistic-mm"
    if fam_name in ("gamma", "weibull") and kind is EstimatorKind.ML and n_known == 0:
        return fam_name
    if fam_name == "epd" and mask is not None and mask.known == (True, False, False):
        # the bisection for the ML location needs a monotone score: lambda >= 1
        if kind is EstimatorKind.ML and mask.fixed_values[0] < 1.0:
            return None
        return "epd-lam-known"
    return None


def supports(fam, kind, mask: KnownMask | None) -> bool:
    return _batch_key(get_family(fam).name, EstimatorKind(kind), mask) is not None


# ---------------------------------------------------------------------------
# batched fits: X has shape (reps, n); returns theta of shape (reps, p)
# ---------------------------------------------------------------------------

def _fit_gamma_batch(X):
    xbar = X.mean(axis=1)
    mean_ln = np.log(X).mean(axis=1)
    s = np.log(xbar) - mean_ln
    s = np.where((np.ptp(X, axis=1) > 0.0) & (s > 0.0), s, np.nan)  # s > 0 unless flat
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
    sd_lx = np.where(np.ptp(X, axis=1) > 0.0, np.maximum(lx.std(axis=1), 1e-12), np.nan)
    rho = (math.pi / math.sqrt(6.0)) / sd_lx
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


def _fit_epd_lam_known_batch(X, lam, kind):
    if kind is EstimatorKind.MM:
        mu = X.mean(axis=1)
        sigma = np.sqrt(_epd_c2(lam) * ((X - mu[:, None]) ** 2).mean(axis=1))
        return np.column_stack([np.full_like(mu, lam), mu, sigma])
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
    key = _batch_key(fam.name, kind, mask)
    if key is None:
        raise ConfigurationError(f"no batch fit for ({fam.name}, {kind.value})")
    thetas = _fit_rows(key, kind, mask, X)
    if fam.n_params > 1:  # as estimate.fit, a flat sample has no spread to fit
        thetas[np.ptp(X, axis=1) == 0.0] = np.nan
    return thetas


def _fit_rows(key, kind, mask, X):
    if key == "normal":
        mu = X.mean(axis=1)
        sd = np.sqrt(((X - mu[:, None]) ** 2).mean(axis=1))
        return np.column_stack([mu, sd])
    if key == "laplace":
        if kind is EstimatorKind.MM:
            mu = X.mean(axis=1)
            sd = np.sqrt(0.5 * ((X - mu[:, None]) ** 2).mean(axis=1))
        else:
            mu = np.median(X, axis=1)
            sd = np.abs(X - mu[:, None]).mean(axis=1)
        return np.column_stack([mu, sd])
    if key == "exponential":
        return X.mean(axis=1)[:, None]
    if key == "uniform":
        return np.column_stack([X.min(axis=1), X.max(axis=1)])
    if key == "logistic-mm":
        mu = X.mean(axis=1)
        sd = np.sqrt(3.0 / math.pi ** 2 * ((X - mu[:, None]) ** 2).mean(axis=1))
        return np.column_stack([mu, sd])
    if key == "gamma":
        return _fit_gamma_batch(X)
    if key == "weibull":
        return _fit_weibull_batch(X)
    return _fit_epd_lam_known_batch(X, mask.fixed_values[0], kind)


def _sigma_rows(fam, kind, mask, thetas) -> np.ndarray:
    """Stack of per-replication scaling covariances (constant families get
    the theta-invariant matrix of their first fitted row); NaN for rows
    whose fit failed."""
    fam = get_family(fam)
    fitted = np.flatnonzero(np.all(np.isfinite(thetas), axis=1))
    sig = np.full((thetas.shape[0], 2, 2), np.nan)
    if fam.name == "gamma":
        for i in fitted:
            sig[i] = scaling.sigma_from("gamma", kind, (float(thetas[i, 0]), 1.0), mask)
    elif fitted.size:
        sig[fitted] = scaling.sigma_from(fam, kind, tuple(thetas[fitted[0]]), mask)
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
    """C_n, S_n, the Sigma rows and T_n of each row of X under its theta row.

    Sigma follows ``_sigma_rows``: per row for gamma, the first fitted row's
    for the whole block otherwise.  That holds for the batch rows, whose
    Sigma does not move with the fitted theta, and for a single row.
    """
    cn, sn = moment_rows(fam, thetas, X)
    sig = _sigma_rows(fam, kind, mask, thetas)
    a, b, c = sig[:, 0, 0], sig[:, 0, 1], sig[:, 1, 1]
    tn = X.shape[1] * (c * cn ** 2 - 2.0 * b * cn * sn + a * sn ** 2) / (a * c - b * b)
    return cn, sn, sig, tn


def batch_tn(fam, kind, mask: KnownMask | None, X: np.ndarray):
    """Vector of test statistics for each replication row of X."""
    return statistic(fam, kind, mask, batch_fit(fam, kind, mask, X), X)[3]
