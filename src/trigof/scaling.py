"""Cross-moment matrices and the scaling covariance of the trig moments.

``matrices`` evaluates, for a family and estimator kind, the 2 x p matrix G,
the p x p matrix R (Fisher information for ML; the moment-equation
covariance for MM) and the 2 x p matrix J; ``sigma`` applies the
known-parameter reduction (drop known columns of G and J, known rows/columns
of R), inverts the reduced R in closed form, and assembles

    Sigma = 1/2 I - G R^-1 J^T - J R^-1 G^T + G R^-1 G^T,

which collapses to 1/2 I - G R^-1 G^T for ML and to exactly (1/2) I when
every parameter is known.  The uniform family carries no matrices (its
extreme-order estimators are super-efficient), an empty parameter block.

Every entry is an expectation under the null at theta, and by the identity
d/dtheta E[g(F(X | theta))] = -E[g(U) s] (Pierce 1982, Ann. Statist. 10)
each one is an integral over the PIT u of the family's own callables, with
x = Q(u) its quantile, s its score at x and tau = (cos 2 pi u, sin 2 pi u):
G = E[tau s^T].  With psi the row's estimating function (the score for ML;
for MM ``estimate.moment_fns``, one per parameter in ``Row.names``),
theta_hat - theta ~ C^-1 mean(psi), and

    C = E[psi s^T],  B = E[psi psi^T],  K = E[tau psi^T],
    R = C^T B^-1 C,  J = K B^-1 C,

so that for ML, where psi = s, R is the Fisher information and J = G.  All of
them come from one call of ``quadrature.gram`` on f = (tau, s, psi), which
covers a single theta or every theta row of a batch block; a family that
declares ``Family.node`` is read at the nodes of the rule through it.  The
same sums give the drift of power's local alternatives (``drift``).

A call at one theta (a point, shape (p,)) raises: DomainError where an
integrand is not finite inside (0, 1), SingularityError where R reads
singular or Sigma is not positive definite.  A call over theta rows (shape
(rows, p), a batch block) does not raise for what one row does: that row's
G, R and J are NaN where its integrand is not finite, and its Sigma is NaN
where either happens (but see ``sigma_from``).

Each public function reads its (family, estimator, mask) row as an
``estimate.Row``.  On PIT values Sigma depends on theta only through
``Family.shapes``: ``sigma_from``, the one path from a theta to Sigma for a
command, a single test and a block alike, reads the matrices with every
other component at 1, so R's condition is free of the data's units.  A
point's Sigma and its refusal come from one call (``_unit_sigma``, cached),
which also serves a block whose fitted rows share that point.
A derived family takes its base's G, R and J at the mapped point
(``Row.base``): a monotone transform of the data leaves the PIT as it is or
maps U to 1 - U, which negates S_n, so they are carried into the family's
own parameters through the slopes of the maps, with the sine row negated
for a decreasing transform.  An MM row on the family's own moment equation
is summed directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import DomainError, SingularityError
from .estimate import EstimatorKind, KnownMask, Row, moment_fns, row
from .families import _MAPS, _in_parts, _theta

__all__ = ["MatrixSet", "matrices", "sigma", "sigma_from", "drift", "COND_LIMIT"]

COND_LIMIT = 1e12

_TWO_PI = 2.0 * math.pi
# numeric failures of a family's callables at extreme parameters
_NUMERIC = (OverflowError, ZeroDivisionError, FloatingPointError)


@dataclass(frozen=True)
class MatrixSet:
    """G (2 x p), R (p x p), J (2 x p) with the parameter names they cover;
    each carries a leading axis of theta rows when ``matrices`` had rows."""

    G: np.ndarray
    R: np.ndarray
    J: np.ndarray
    param_names: tuple[str, ...]

    @property
    def p(self) -> int:
        return len(self.param_names)


def _gram(r: Row, thetas, extra=None) -> np.ndarray:
    """E[f f^T] at each theta row, f = (tau, s, psi, e): tau the trig pair,
    s the score over ``r.names``, psi ``moment_fns`` (absent for ML,
    whose psi is s) and e = extra(theta, x) when given.  Shape (rows, k, k)."""
    fam = r.fam
    t = tuple(thetas[:, j, None] for j in range(fam.n_params))
    cols = [fam.param_names.index(p) for p in r.names]

    def f(p, q, upper):
        if fam.node is not None:
            x, s = fam.node(t, p, q, upper)
        else:  # once per distinct u: the nodes nearest 1/2, or 1, share one
            u, back = np.unique(1.0 - p if upper else p, return_inverse=True)
            x = fam.quantile_fn(t, u)
            x, s = x[..., back], fam.score_fn(t, x)[..., back]
        angle = _TWO_PI * p
        parts = [np.cos(angle), -np.sin(angle) if upper else np.sin(angle)]
        parts += [s[j] for j in cols]
        if psi is not None:
            parts += psi(x)
        if extra is not None:
            parts += list(extra(t, x))
        return np.stack(np.broadcast_arrays(*parts))

    try:
        psi = moment_fns(fam, thetas) if r.kind is EstimatorKind.MM else None
        return quadrature.gram(f)
    except _NUMERIC as exc:
        raise DomainError(f"{fam.name} matrices are not representable at these "
                          f"parameters ({type(exc).__name__}: {exc})") from None


def _matrices(r: Row, thetas) -> MatrixSet:
    fam, d = r.fam, r.fam.derived
    if r.base is not None:  # the base's, at the base's theta rows
        ms = _matrices(r.base, np.column_stack([np.broadcast_to(v, len(thetas))
                                                for v in d.to_base(tuple(thetas.T))]))
        own = [i for i, (b, _) in enumerate(d.params) if b in ms.param_names]
        cols = [ms.param_names.index(d.params[i][0]) for i in own]
        # the Jacobian of the maps, (rows, 1, p)
        D = np.stack([np.broadcast_to(_MAPS[d.params[i][1]].slope(thetas[:, i]), len(thetas))
                      for i in own], axis=-1)[:, None, :]
        sign = np.array([[1.0], [float(d.data.sign)]])
        return MatrixSet(sign * ms.G[..., cols] * D,
                         ms.R[:, cols][..., cols] * D * D.transpose(0, 2, 1),
                         sign * ms.J[..., cols] * D, tuple(fam.param_names[i] for i in own))
    names, p = r.names, len(r.names)
    if fam.score_fn is None:  # uniform: no estimating-equation matrices
        return MatrixSet(np.zeros((len(thetas), 2, 0)), np.zeros((len(thetas), 0, 0)),
                         np.zeros((len(thetas), 2, 0)), ())
    M = _gram(r, thetas)
    G = M[:, :2, 2:2 + p]
    if r.kind is EstimatorKind.ML:
        return MatrixSet(G, M[:, 2:2 + p, 2:2 + p], G.copy(), names)
    C, B, K = M[:, 2 + p:, 2:2 + p], M[:, 2 + p:, 2 + p:], M[:, :2, 2 + p:]
    BC = _inverse(B)[0] @ C
    return MatrixSet(G, C.transpose(0, 2, 1) @ BC, K @ BC, names)


def matrices(fam, kind, theta) -> MatrixSet:
    """Evaluate G, R, J for the family/estimator at theta, a point (p,) or
    theta rows (rows, p) of finite fitted values, over the parameters the row
    estimates (``Row.names``), as ``param_names`` records.  A point whose
    integrand is not finite raises DomainError; such a row of theta rows is NaN."""
    r = row(fam, kind)
    theta = np.asarray(theta, dtype=float)
    rows = theta if theta.ndim == 2 else np.array([_theta(r.fam, theta)])
    with np.errstate(all="ignore"):
        ms = _matrices(r, rows)
    return ms if theta.ndim == 2 else _point(r.fam, ms, rows[0])


def _point(fam, ms: MatrixSet, theta) -> MatrixSet:
    """The one row of ``ms`` as a point's matrices; DomainError, naming theta,
    where ``quadrature.gram`` found its integrand not finite (G is NaN)."""
    if np.isnan(ms.G[0]).any():
        raise DomainError(f"the integrand of the {fam.name} matrices is not finite "
                          f"inside (0, 1) at {theta.tolist()}")
    return MatrixSet(ms.G[0], ms.R[0], ms.J[0], ms.param_names)


def _inverse(A: np.ndarray):
    """Closed-form inverse of each p x p matrix (p <= 3) on the last two axes,
    with its condition estimate in the infinity norm (inf where singular)."""
    p = A.shape[-1]
    a = lambda i, j: A[..., i, j]  # noqa: E731
    with np.errstate(all="ignore"):
        if p == 0:
            return A.copy(), np.ones(A.shape[:-2])
        if p == 1:
            cof, det = np.ones(A.shape), a(0, 0)
        elif p == 2:
            cof = np.stack([np.stack([a(1, 1), -a(0, 1)], -1),
                            np.stack([-a(1, 0), a(0, 0)], -1)], -2)
            det = a(0, 0) * a(1, 1) - a(0, 1) * a(1, 0)
        elif p == 3:
            c = [[a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1), a(0, 2) * a(2, 1) - a(0, 1) * a(2, 2),
                  a(0, 1) * a(1, 2) - a(0, 2) * a(1, 1)],
                 [a(1, 2) * a(2, 0) - a(1, 0) * a(2, 2), a(0, 0) * a(2, 2) - a(0, 2) * a(2, 0),
                  a(0, 2) * a(1, 0) - a(0, 0) * a(1, 2)],
                 [a(1, 0) * a(2, 1) - a(1, 1) * a(2, 0), a(0, 1) * a(2, 0) - a(0, 0) * a(2, 1),
                  a(0, 0) * a(1, 1) - a(0, 1) * a(1, 0)]]
            cof = np.stack([np.stack(row, -1) for row in c], -2)
            det = a(0, 0) * c[0][0] + a(0, 1) * c[1][0] + a(0, 2) * c[2][0]
        else:
            raise DomainError(f"unexpected matrix order {p}")
        inv = cof / det[..., None, None]
        cond = np.abs(A).sum(axis=-1).max(axis=-1) * np.abs(inv).sum(axis=-1).max(axis=-1)
    return inv, np.where((det != 0.0) & np.isfinite(cond), cond, np.inf)


def sigma(ms: MatrixSet, mask: KnownMask | None, kind, fam) -> np.ndarray:
    """Assemble the 2x2 scaling covariance after the known-parameter reduction
    (exactly I/2 where no parameter is left).  Where R reads singular or
    Sigma is not finite and positive definite, a point raises
    SingularityError and a theta row of ``ms`` reads NaN."""
    r = row(fam, kind, mask)
    keep = [j for j, name in enumerate(ms.param_names) if not r.mask.is_known(r.fam, name)]
    G, R, J = ms.G[..., keep], ms.R[..., keep, :][..., keep], ms.J[..., keep]
    Rinv, cond = _inverse(R)
    Gt, Jt = np.swapaxes(G, -1, -2), np.swapaxes(J, -1, -2)
    with np.errstate(all="ignore"):
        if r.kind is EstimatorKind.ML:
            S = 0.5 * np.eye(2) - G @ Rinv @ Gt
        else:
            S = 0.5 * np.eye(2) - G @ Rinv @ Jt - J @ Rinv @ Gt + G @ Rinv @ Gt
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        ok = (cond <= COND_LIMIT) & _holds(S)
    if ok.ndim:
        S[~ok] = np.nan
    elif not ok:
        raise SingularityError("R is numerically singular or Sigma is not positive definite")
    return S


@functools.lru_cache(maxsize=1024)  # the most recently used (row, unit point) pairs
def _unit_sigma(r: Row, unit: bytes) -> np.ndarray:
    """Sigma (2, 2) of the row at the point of float64 bytes ``unit``, by the
    point path, which raises its cause as ``_point`` and ``sigma`` do.  The
    point is not checked as a theta: uniform's unit point has a = b."""
    theta = np.frombuffer(unit)
    with np.errstate(all="ignore"):
        ms = _matrices(r, theta[None])
    return sigma(_point(r.fam, ms, theta), r.mask, r.kind, r)


def sigma_from(fam, kind, theta, mask: KnownMask | None = None) -> np.ndarray:
    """Sigma at theta, a point (p,) or theta rows (rows, p), taken with every
    component but ``fam.shapes`` at 1: once where every fitted row reaches the
    same unit point, bit for bit (``_unit_sigma``'s, copied), else on each
    fitted row alone, one part of them per thread (``families._in_parts``).
    A point is checked as given; it, and theta rows that share one unit point,
    take Sigma and its refusal from one ``_unit_sigma`` call, so a DomainError
    names the unit point.  Elsewhere a row not finite or failing reads NaN."""
    r = row(fam, kind, mask)
    theta = np.asarray(theta, dtype=float)
    rows = theta if theta.ndim == 2 else np.array([_theta(r.fam, theta)])
    fitted = np.flatnonzero(np.all(np.isfinite(rows), axis=1))
    sig = np.full((len(rows), 2, 2), np.nan)
    if fitted.size:
        unit = rows[fitted]
        unit[:, [p not in r.fam.shapes for p in r.fam.param_names]] = 1.0
        if (unit.view(np.int64) == unit[:1].view(np.int64)).all():
            sig[fitted] = _unit_sigma(r, unit[0].tobytes())
        else:
            sig[fitted] = np.concatenate(_in_parts(
                lambda part: sigma(matrices(r, r.kind, part), r.mask, r.kind, r), unit))
    return sig if theta.ndim == 2 else sig[0]


def drift(fam, kind, theta, mask: KnownMask | None, extra) -> np.ndarray:
    """The drift M = E[tau e^T] - G C^-1 E[psi e^T] of sqrt(n) (C_n, S_n)
    under a local alternative theta + delta / sqrt(n) of an embedding family,
    whose extra score at the null is e = extra(theta, x) (rows, like a
    family's ``score_fn``).  G, C and psi are cut to the parameters the row
    estimates and ``mask`` leaves free; M is 2 x len(e)."""
    r = row(fam, kind, mask)
    t = np.array([_theta(r.fam, theta)])
    p = len(r.names)
    with np.errstate(all="ignore"):
        M = _gram(r, t, extra)[0]
    if np.isnan(M[0, 0]):  # E[cos^2 2 pi U] itself is finite unless gram failed the row
        raise DomainError(f"the integrand of the {r.fam.name} drift is not finite "
                          f"inside (0, 1) at {t[0].tolist()}")
    s = [2 + i for i in r.free]
    psi = s if r.kind is EstimatorKind.ML else [2 + p + i for i in r.free]
    e = list(range(2 + p if r.kind is EstimatorKind.ML else 2 + 2 * p, len(M)))
    Cinv, cond = _inverse(M[np.ix_(psi, s)])
    if cond > COND_LIMIT:
        raise SingularityError(f"the {r.fam.name} drift's C is numerically singular at "
                               f"{t[0].tolist()} (condition estimate {float(cond):.3e})")
    return M[:2, e] - M[:2, s] @ Cinv @ M[np.ix_(psi, e)]


def _eig2(S: np.ndarray):
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    return half_tr + disc, half_tr - disc


def _holds(S: np.ndarray) -> np.ndarray:
    """Where the 2 x 2 Sigma on the last two axes is finite and positive definite."""
    with np.errstate(invalid="ignore"):
        return np.all(np.isfinite(S), axis=(-2, -1)) & (_eig2(S)[1] > 0.0)
