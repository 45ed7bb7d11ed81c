"""Cross-moment matrices and the scaling covariance of the trig moments.

``matrices`` evaluates, for a family and estimator kind, the 2 x p matrix G,
the p x p matrix R (Fisher information for ML; the moment-equation
covariance for MM) and the 2 x p matrix J; ``sigma`` applies the
known-parameter reduction (drop known columns of G and J, known rows/columns
of R), inverts the reduced R in closed form, and assembles

    Sigma = 1/2 I - G R^-1 J^T - J R^-1 G^T + G R^-1 G^T,

which collapses to 1/2 I - G R^-1 G^T for ML and to exactly (1/2) I when
every parameter is known.  The uniform family carries no matrices (its
extreme-order estimators are super-efficient), which the same reduction
handles as an empty parameter block.

Every entry is an expectation under the null at theta, and by the identity
d/dtheta E[g(F(X | theta))] = -E[g(U) s] (Pierce 1982, Ann. Statist. 10)
each one is an integral over the PIT u of the family's own callables, with
x = Q(u) its quantile, s its score at x and tau = (cos 2 pi u, sin 2 pi u):

    G = E[tau s^T].

With psi the row's estimating function (the score for ML; for MM the moment
functions that ``Family.mm`` declares, one per moment-estimated parameter),
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
where either happens.

On PIT values Sigma depends on theta only through ``Family.shapes``, though
G, R and J scale with the rest.  ``matrices`` and ``sigma`` read them at the
theta given; ``sigma_from``, the one path from fitted theta to Sigma, reads
them with every component but the shapes at 1, so R's condition is free of
the data's units.

A derived family (``Family.derived``) takes its base's G, R and J at the
mapped point: a monotone transform of the data leaves the PIT as it is or
maps U to 1 - U, which negates S_n, so they are carried into the family's
own parameters through the slopes of the maps, with the sine row negated for
a decreasing transform.  An MM row on the family's own moment equation is
summed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import ConfigurationError, DomainError, SingularityError
from .estimate import EstimatorKind, KnownMask
from .families import _MAPS, _in_parts, _theta, get_family

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


def _names(fam, kind) -> tuple[str, ...]:
    """The parameters an estimator row estimates (MM: not those it requires known)."""
    if kind is EstimatorKind.ML:
        return fam.param_names
    return tuple(p for p in fam.param_names if p not in fam.mm_known)


def _moment_fns(fam, thetas):
    """psi(x) of the MM row at each theta row: one moment function per
    moment-estimated parameter, in ``_names`` order, each zero in mean."""
    eq, p = fam.mm, fam.n_params
    given = [fam.param_names.index(g) for g in eq.given]
    ratio = np.array([[num / den] for num, den in
                      (eq.unit(*(row[i] for i in given)) for row in thetas)])
    scale = thetas[:, p - 1, None]
    if eq.stat == "mean":
        return lambda x: [x - scale * ratio]
    loc = thetas[:, p - 2, None]
    if eq.stat == "msd":
        return lambda x: [x - loc, (x - loc) ** 2 - scale ** 2 * ratio]
    return lambda x: [x - loc, np.abs(x - loc) - scale * ratio]


def _gram(fam, kind, thetas, extra=None) -> np.ndarray:
    """E[f f^T] at each theta row, f = (tau, s, psi, e): tau the trig pair,
    s the score over ``_names``, psi the MM moment functions (absent for ML,
    whose psi is s) and e = extra(theta, x) when given.  Shape (rows, k, k)."""
    t = tuple(thetas[:, j, None] for j in range(fam.n_params))
    cols = [fam.param_names.index(p) for p in _names(fam, kind)]

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
        psi = _moment_fns(fam, thetas) if kind is EstimatorKind.MM else None
        return quadrature.gram(f)
    except _NUMERIC as exc:
        raise DomainError(f"{fam.name} matrices are not representable at these "
                          f"parameters ({type(exc).__name__}: {exc})") from None


def _base_rows(d, thetas) -> np.ndarray:
    """The base's theta rows of a derived family's rows."""
    values = d.to_base(tuple(thetas.T))
    return np.column_stack([np.broadcast_to(v, len(thetas)) for v in values])


def _matrices(fam, kind, thetas) -> MatrixSet:
    if kind is EstimatorKind.MM and not fam.has_mm:
        raise ConfigurationError(f"no MM matrices for {fam.name!r}")
    d = fam.through(kind)
    if d is not None:
        ms = _matrices(d.base, kind, _base_rows(d, thetas))
        own = [i for i, (b, _) in enumerate(d.params) if b in ms.param_names]
        cols = [ms.param_names.index(d.params[i][0]) for i in own]
        # the Jacobian of the maps, (rows, 1, p)
        D = np.stack([np.broadcast_to(_MAPS[d.params[i][1]].slope(thetas[:, i]), len(thetas))
                      for i in own], axis=-1)[:, None, :]
        sign = np.array([[1.0], [float(d.data.sign)]])
        return MatrixSet(sign * ms.G[..., cols] * D,
                         ms.R[:, cols][..., cols] * D * D.transpose(0, 2, 1),
                         sign * ms.J[..., cols] * D, tuple(fam.param_names[i] for i in own))
    names = _names(fam, kind)
    p = len(names)
    if fam.score_fn is None:  # uniform: no estimating-equation matrices
        return MatrixSet(np.zeros((len(thetas), 2, 0)), np.zeros((len(thetas), 0, 0)),
                         np.zeros((len(thetas), 2, 0)), ())
    M = _gram(fam, kind, thetas)
    G = M[:, :2, 2:2 + p]
    if kind is EstimatorKind.ML:
        return MatrixSet(G, M[:, 2:2 + p, 2:2 + p], G.copy(), names)
    C, B, K = M[:, 2 + p:, 2:2 + p], M[:, 2 + p:, 2 + p:], M[:, :2, 2 + p:]
    BC = _inverse(B)[0] @ C
    return MatrixSet(G, C.transpose(0, 2, 1) @ BC, K @ BC, names)


def matrices(fam, kind, theta) -> MatrixSet:
    """Evaluate G, R, J for the family/estimator at theta, a point (p,) or
    theta rows (rows, p) of finite fitted values.  A point whose integrand
    is not finite raises DomainError; such a row of theta rows is NaN.

    For MM estimators the matrices cover only the moment-estimated
    components (shape parameters the MM row requires known are excluded);
    ``param_names`` records the column layout.  A derived family's are its
    base's at the mapped point, in its own parameters: columns scaled by the
    slopes of the maps (R on both sides), without the fixed base components,
    and the sine row of G and J negated for a decreasing transform.
    """
    fam = get_family(fam)
    kind = EstimatorKind(kind)
    theta = np.asarray(theta, dtype=float)
    rows = theta if theta.ndim == 2 else np.array([_theta(fam, theta)])
    with np.errstate(all="ignore"):
        ms = _matrices(fam, kind, rows)
    return ms if theta.ndim == 2 else _point(fam, ms, rows[0])


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


def _inv_small(A: np.ndarray) -> np.ndarray:
    """``_inverse`` that raises SingularityError where the condition estimate
    is not finite or exceeds COND_LIMIT."""
    inv, cond = _inverse(A)
    if np.any(cond > COND_LIMIT):
        raise SingularityError(f"matrix is numerically singular "
                               f"(condition estimate {np.max(cond):.3e})")
    return inv


def _reduce(ms: MatrixSet, mask: KnownMask, fam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    fam = get_family(fam)
    if mask is None:
        keep = list(range(ms.p))
    else:
        if len(mask.known) != fam.n_params:
            raise DomainError("mask arity does not match the family")
        keep = [j for j, name in enumerate(ms.param_names)
                if not mask.known[fam.param_names.index(name)]]
    return ms.G[..., keep], ms.R[..., keep, :][..., keep], ms.J[..., keep]


def sigma(ms: MatrixSet, mask: KnownMask | None, kind, fam) -> np.ndarray:
    """Assemble the 2x2 scaling covariance after the known-parameter reduction
    (exactly I/2 where no parameter is left).  Where R reads singular or
    Sigma is not finite and positive definite, a point raises
    SingularityError and a theta row of ``ms`` reads NaN."""
    G, R, J = _reduce(ms, mask, fam)
    Rinv, cond = _inverse(R)
    Gt, Jt = np.swapaxes(G, -1, -2), np.swapaxes(J, -1, -2)
    with np.errstate(all="ignore"):
        if EstimatorKind(kind) is EstimatorKind.ML:
            S = 0.5 * np.eye(2) - G @ Rinv @ Gt
        else:
            S = 0.5 * np.eye(2) - G @ Rinv @ Jt - J @ Rinv @ Gt + G @ Rinv @ Gt
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        ok = (cond <= COND_LIMIT) & np.all(np.isfinite(S), axis=(-2, -1)) & (_eig2(S)[1] > 0.0)
    if ok.ndim:
        S[~ok] = np.nan
    elif not ok:
        raise SingularityError("R is numerically singular or Sigma is not positive definite")
    return S


def sigma_from(fam, kind, theta, mask: KnownMask | None = None) -> np.ndarray:
    """Sigma at theta, a point (p,) or theta rows (rows, p), taken with every
    component but ``fam.shapes`` at 1: once where the mask knows every shape
    (or there is none), else on each fitted row alone, so that no row
    depends on the others.  These unit rows are split into one part per
    thread (``families._in_parts``), and ``matrices`` and ``sigma`` run on
    each part.  A point is checked as given and raises as
    ``matrices`` and ``sigma`` do; a row that is not finite or whose Sigma
    fails reads NaN."""
    fam = get_family(fam)
    theta = np.asarray(theta, dtype=float)
    rows = theta if theta.ndim == 2 else np.array([_theta(fam, theta)])
    fitted = np.flatnonzero(np.all(np.isfinite(rows), axis=1))
    sig = np.full((len(rows), 2, 2), np.nan)
    if fitted.size:
        shared = all(mask is not None and mask.is_known(fam, s) for s in fam.shapes)
        unit = rows[fitted[:1] if shared else fitted]
        unit[:, [p not in fam.shapes for p in fam.param_names]] = 1.0
        if theta.ndim == 1:
            return sigma(_point(fam, matrices(fam, kind, unit), rows[0]), mask, kind, fam)
        sig[fitted] = np.concatenate(_in_parts(
            lambda part: sigma(matrices(fam, kind, part), mask, kind, fam), unit))
    return sig


def drift(fam, kind, theta, mask: KnownMask | None, extra) -> np.ndarray:
    """The drift M = E[tau e^T] - G C^-1 E[psi e^T] of sqrt(n) (C_n, S_n)
    under a local alternative theta + delta / sqrt(n) of an embedding family,
    whose extra score at the null is e = extra(theta, x) (rows, like a
    family's ``score_fn``).  G, C and psi are cut to the parameters the row
    estimates and ``mask`` leaves free; M is 2 x len(e)."""
    fam = get_family(fam)
    kind = EstimatorKind(kind)
    t = np.array([_theta(fam, theta)])
    names = _names(fam, kind)
    free = [i for i, name in enumerate(names)
            if mask is None or not mask.is_known(fam, name)]
    p = len(names)
    with np.errstate(all="ignore"):
        M = _gram(fam, kind, t, extra)[0]
    if np.isnan(M[0, 0]):  # E[cos^2 2 pi U] itself is finite unless gram failed the row
        raise DomainError(f"the integrand of the {fam.name} drift is not finite "
                          f"inside (0, 1) at {t[0].tolist()}")
    s = [2 + i for i in free]
    psi = s if kind is EstimatorKind.ML else [2 + p + i for i in free]
    e = list(range(2 + p if kind is EstimatorKind.ML else 2 + 2 * p, len(M)))
    return M[:2, e] - M[:2, s] @ _inv_small(M[np.ix_(psi, s)]) @ M[np.ix_(psi, e)]


def _eig2(S: np.ndarray):
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    half_tr = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    return half_tr + disc, half_tr - disc


def _check_pd(S: np.ndarray) -> None:
    if not np.all(np.isfinite(S)):
        raise SingularityError("covariance contains non-finite entries")
    l1, l2 = _eig2(S)
    if l2 <= 0.0:
        raise SingularityError(f"scaling covariance is not positive definite "
                               f"(eigenvalues {l1:.3e}, {l2:.3e})")
