"""Fits across replication blocks, and the one path from fitted theta rows
to T_n.

X has one replication per row.  ``batch_fit`` runs the row's estimator,
``estimate.Row.estimator``, on the block: the same estimator ``fit`` runs on
a single row, so each row gets the bits ``fit`` would return, and a row
whose fit fails, or that ``fit`` rejects, comes back as NaN.  ``statistic``
takes theta rows of shape (rows, p) and samples of shape (rows, n) and
returns C_n, S_n, the Sigma rows and T_n = n [C_n, S_n] Sigma^-1 [C_n, S_n]^T;
the PIT is the family's own ``cdf_fn``, called once on each thread's part of
the block, and the Sigma rows are ``scaling.sigma_from``'s, which takes each
row's at its shapes alone, so a row's T_n has the same bits whichever rows
share its block or its part.  The fits run on the calling thread.
``batch_tn`` feeds it the block's fits and ``gof._single_test`` a single
fit.  Failed replications and the loop over blocks are ``gof.replicate``'s.

Each row fails alone: whatever goes wrong on one row (its fit, its
parameter check, its PIT, its integrand or its Sigma) makes that row's
values NaN and leaves the others' bits as they would be without it.  Only a
cause common to every row raises: a row that ``estimate.row`` or
``Row.estimator`` refuses, or samples too short to fit
(``estimate.check_size``).
"""

from __future__ import annotations

import math

import numpy as np

from . import scaling
from .estimate import KnownMask, check_size, rejected_rows, row
from .families import _in_parts, get_family

_TWO_PI = 2.0 * math.pi


def batch_fit(fam, kind, mask: KnownMask | None, X) -> np.ndarray:
    """theta rows fitted to the rows of X; NaN rows where the fit fails or
    its theta is outside the family's space (``fam.outside``), as ``fit``
    would raise.  A row whose root search did not converge keeps its theta,
    as ``fit`` does.  Raises, as ``fit`` does, for an unsupported row and
    for rows too short to fit."""
    r = row(fam, kind, mask)
    est = r.estimator
    check_size(r, X.shape[1])
    bad = np.logical_or(*rejected_rows(r, X))
    thetas = np.full((len(X), r.fam.n_params), np.nan)
    if not bad.all():  # X itself where no row is bad: no copy of the block
        thetas[~bad] = est(X[~bad] if bad.any() else X)[0]
    thetas[r.fam.outside(thetas)] = np.nan
    return thetas


def moment_rows(fam, thetas: np.ndarray, X: np.ndarray):
    """C_n and S_n of each row of X under its theta row; NaN where theta is not
    finite.  The finite rows are split into one part per thread
    (``families._in_parts``); on each, the family's ``cdf_fn`` runs once,
    with the theta columns of shape (rows, 1), and is clipped to [0, 1] as
    ``families.cdf`` does."""
    fam = get_family(fam)
    fitted = np.flatnonzero(np.all(np.isfinite(thetas), axis=1))
    cn, sn = np.full(len(X), np.nan), np.full(len(X), np.nan)

    def trig(rows):
        cols = tuple(thetas[rows, j, None] for j in range(thetas.shape[1]))
        with np.errstate(over="ignore", under="ignore"):
            u = np.clip(fam.cdf_fn(cols, X[rows]), 0.0, 1.0)
        u *= _TWO_PI
        return np.cos(u).mean(axis=1), np.sin(u).mean(axis=1)

    if fitted.size:
        cn[fitted], sn[fitted] = np.concatenate(_in_parts(trig, fitted), axis=1)
    return cn, sn


def statistic(fam, kind, mask: KnownMask | None, thetas: np.ndarray, X: np.ndarray):
    """C_n, S_n, the Sigma rows (``scaling.sigma_from``) and T_n of each row
    of X under its theta row."""
    r = row(fam, kind, mask)
    cn, sn = moment_rows(r.fam, thetas, X)
    sig = scaling.sigma_from(r, r.kind, thetas, r.mask)
    a, b, c = sig[:, 0, 0], sig[:, 0, 1], sig[:, 1, 1]
    tn = X.shape[1] * (c * cn ** 2 - 2.0 * b * cn * sn + a * sn ** 2) / (a * c - b * b)
    return cn, sn, sig, tn


def batch_tn(fam, kind, mask: KnownMask | None, X: np.ndarray):
    """Vector of test statistics for each replication row of X."""
    r = row(fam, kind, mask)
    return statistic(r, r.kind, r.mask, batch_fit(r, r.kind, r.mask, X), X)[3]
