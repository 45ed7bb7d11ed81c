"""ML and moment (MM) nuisance-parameter estimators for every family,
written once over sample rows.

``row(fam, kind, mask)`` resolves each (family, estimator, mask) row once,
as a ``Row`` that every layer reads, refusing a row the family does not
have, a mask of the wrong arity and a known value outside the family's
space.  ``Row.estimator`` maps sample rows X (rows, n) to theta rows with
per-row iteration counts and converged flags; ``fit`` runs it and
``check_size`` on a single row and ``_batch.batch_fit`` on a block, so both
raise the same errors and return the same bits.  A derived family is fitted
as its base on the transformed data, under ``Row.base``, and the base's
theta is mapped back (an MM row on the family's own moment equation
excepted).  A fit's residual is the largest |mean estimating function| over
the free components: the score for ML, and for MM ``moment_fns``, which
``scaling`` integrates for Sigma.

Every MM row (the moment equation ``Family.mm``, read only here) and the ML
rows of ``_ML_ROWS`` are closed forms.  Every other ML row solves its score
equations through the family's profile (``_ML_PROFILES``): a shape root with
location and scale profiled out in closed form, by an inner root or, for the
student-t, by a safeguarded Newton solve of both (``_student_newton``), and
the known components held at their values.  Shape roots are bracketed on
a geometric grid searched outward from its centre, so the bracket nearest the
centre wins, and refined by Brent's method (``_roots``).  Roots that rise
monotonically with a cheap slope take safeguarded Newton steps (``_newton``)
inside a known bracket: the inner location and scale roots from the row's last
root, and the gamma, nakagami and profiled weibull shapes from closed-form starts.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import special as sp

from .errors import (ConfigurationError, DegenerateSampleError, DomainError,
                     EstimationError)
from .families import Family, _epd_c1, _pow, get_family, score

__all__ = ["EstimatorKind", "KnownMask", "FitResult", "Row", "row", "fit"]

_STEP_TOL = 1e-10
_SCORE_TOL = 1e-8
_MAX_ITER = 200
_SHAPE_CAP = 1e6
_XTOL, _RTOL = 1e-13, 8.9e-16


class EstimatorKind(str, Enum):
    ML = "ml"
    MM = "mm"


@dataclass(frozen=True)
class KnownMask:
    """Per-component known/unknown flags with the fixed values.

    ``fixed_values`` is aligned with ``known``; entries at unknown positions
    are ignored (conventionally NaN).
    """

    known: tuple[bool, ...]
    fixed_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.known) != len(self.fixed_values):
            raise DomainError("known and fixed_values must have equal length")
        for k, v in zip(self.known, self.fixed_values):
            if k and not np.isfinite(v):
                raise DomainError("fixed values of known components must be finite")

    @classmethod
    def none(cls, p: int) -> "KnownMask":
        return cls((False,) * p, (math.nan,) * p)

    @classmethod
    def from_names(cls, fam, bindings: dict) -> "KnownMask":
        fam = get_family(fam)
        known = [False] * fam.n_params
        vals = [math.nan] * fam.n_params
        for name, value in bindings.items():
            if name not in fam.param_names:
                raise DomainError(
                    f"{fam.name} has no parameter {name!r}; names: {fam.param_names}")
            i = fam.param_names.index(name)
            known[i] = True
            vals[i] = float(value)
            fam.check_value(name, vals[i])
        return cls(tuple(known), tuple(vals))

    @property
    def n_known(self) -> int:
        return sum(self.known)

    def is_known(self, fam: Family, name: str) -> bool:
        return self.known[fam.param_names.index(name)]

    def value(self, fam: Family, name: str) -> float:
        return self.fixed_values[fam.param_names.index(name)]


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    iterations: int
    converged: bool
    residual: float


# ---------------------------------------------------------------------------
# the root solver over rows.  phi(z, j) takes trial values z for the rows j
# (sorted indices into the rows of the problem) and returns phi there.
#
# One row takes a scalar path: ``_brent``, ``_newton`` and ``_student_newton``
# given exactly one row run ``_brent_one``, ``_newton_one`` and
# ``_student_newton_one``, the same steps over numpy float64 scalars, with the
# row's callbacks still given 1-element arrays.  Every one-sample ``fit`` is
# one row, and numpy's per-call cost on a 1-element array exceeds a step's
# own arithmetic; blocks keep the row path.  The row count alone chooses,
# and test_replicate's test_every_supported_row pins both paths equal, bit
# for bit, on all 137 supported rows.  The scalars stay np.float64, so that
# under errstate a zero slope divides to inf or NaN instead of raising, and
# ``_min``/``_max`` give NaN where np.minimum/np.maximum would.
# ---------------------------------------------------------------------------

_ROW = np.zeros(1, dtype=np.intp)  # the row indices j of a one-row problem
_ROW.flags.writeable = False


def _take(a, j):
    """a[j] for sorted, distinct row indices j; a itself where j covers it."""
    return a if len(j) == len(a) else a[j]


def _negative(v) -> bool:
    """np.signbit of a scalar."""
    return math.copysign(1.0, v) < 0.0


def _min(a, b):
    """np.minimum of two scalars: NaN where either is NaN."""
    return a if a <= b or a != a else b


def _max(a, b):
    """np.maximum of two scalars: NaN where either is NaN."""
    return a if a >= b or a != a else b


def _brent(phi, a, b, fa, fb, xtol=_XTOL, rtol=_RTOL):
    """Brent's method on each row's bracket [a, b], with phi(a) = fa and
    phi(b) = fb: scipy's brentq step for step, over the rows still running.
    Returns (root, iterations, converged); NaN where [a, b] brackets no sign
    change.  A row whose phi turns NaN stops, unconverged, at the last point
    where phi was finite."""
    m, hr = len(a), 0.5 * rtol
    htol = np.broadcast_to(0.5 * np.asarray(xtol, dtype=float), (m,))
    if m == 1:
        with np.errstate(all="ignore"):
            out = _brent_one(phi, a[0], b[0], fa[0], fb[0], htol[0], hr)
        return tuple(np.array([v]) for v in out)
    root, iters, conv = np.where(fa == 0.0, a, b), np.zeros(m, dtype=int), (fa == 0.0) | (fb == 0.0)
    signed = np.isfinite(fa) & np.isfinite(fb) & (np.signbit(fa) != np.signbit(fb))
    root[~(conv | signed)] = np.nan
    live = np.flatnonzero(signed & ~conv)
    xpre, xcur, fpre, fcur, htol = a[live], b[live], fa[live], fb[live], htol[live]
    xblk = fblk = spre = scur = np.zeros(len(live))
    with np.errstate(all="ignore"):
        for k in range(1, _MAX_ITER + 1):
            if not live.size:
                break
            lost = np.isnan(fcur)  # the newest phi; xpre holds the last finite one
            # each step skips the selections that no row takes
            flip = np.signbit(fpre) != np.signbit(fcur)
            if np.count_nonzero(flip):
                xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
                spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            if np.count_nonzero(swap):
                xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                    np.where(swap, xcur, xblk))
                fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                    np.where(swap, fcur, fblk))
            delta = htol + hr * np.abs(xcur)
            sbis = (xblk - xcur) * 0.5
            done = ~lost & ((fcur == 0.0) | (np.abs(sbis) < delta))
            if np.count_nonzero(done | lost):
                root[live[done]], iters[live[done]], conv[live[done]] = xcur[done], k, True
                root[live[lost]], iters[live[lost]] = xpre[lost], k - 1
                keep = ~(done | lost)
                live = live[keep]
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, htol, delta, sbis = (
                    v[keep] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, htol,
                                      delta, sbis))
                if not live.size:
                    break
            # interpolate where xpre == xblk, extrapolate (inverse quadratic) elsewhere
            interp = xpre == xblk
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
            if np.count_nonzero(interp) < interp.size:
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = np.where(interp, stry,
                                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            aspre = np.abs(spre)
            short = ((aspre > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2.0 * np.abs(stry) < np.minimum(aspre, 3.0 * np.abs(sbis) - delta)))
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
            fcur = phi(xcur, live)
    root[live], iters[live] = np.where(np.isnan(fcur), xpre, xcur), _MAX_ITER
    return root, iters, conv


def _brent_one(phi, a, b, fa, fb, htol, hr):
    """``_brent``'s steps on one row, over scalars: (root, iterations,
    converged), with htol = xtol / 2 and hr = rtol / 2."""
    if fa == 0.0 or fb == 0.0:
        return (a if fa == 0.0 else b), 0, True
    if not (math.isfinite(fa) and math.isfinite(fb)) or _negative(fa) == _negative(fb):
        return math.nan, 0, False
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = np.float64(0.0)
    for k in range(1, _MAX_ITER + 1):
        if _negative(fpre) != _negative(fcur):
            xblk, fblk, spre = xpre, fpre, xcur - xpre
            scur = spre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = htol + hr * abs(xcur)
        sbis = (xblk - xcur) * 0.5
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, k, True
        if xpre == xblk:
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
        else:
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        aspre = abs(spre)
        if (aspre > delta and abs(fcur) < abs(fpre)
                and 2.0 * abs(stry) < _min(aspre, 3.0 * abs(sbis) - delta)):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur = xcur + (scur if abs(scur) > delta else np.copysign(delta, sbis))
        fcur = phi(np.array([xcur]), _ROW)[0]
        if fcur != fcur:
            return xpre, k, False
    return xcur, _MAX_ITER, False


@functools.lru_cache(maxsize=None)
def _grid(lo: float, hi: float, points: int):
    """The grid's three spans, [lo, hi] and two geometric expansions, and the
    order of its points outward from the centre c: c, c+1, c-1, c+2, ..."""
    return ([np.geomspace(a, b, points) for a, b in ((lo, hi), (lo * 1e-2, hi * 1e2),
                                                      (lo * 1e-5, hi * 1e5))],
            sorted(range(points), key=lambda i: (abs(i - points // 2), i < points // 2)))


def _roots(phi, scale, lo: float = 1e-3, hi: float = 1e3, points: int = 41):
    """A root of phi for each row on a geometric grid around its ``scale``:
    (root, iterations, converged).  The grid (``_grid``) is evaluated outward
    from its centre for the rows still without a bracket; a row stops at the
    first cell the newest evaluation completes that holds an exact zero at
    its lower end or a sign change, which ``_brent`` refines to within _XTOL
    times the row's scale, so the bracket nearest the centre wins, ties go
    upward and a root moves with the row's units.  A row with no bracket on
    any span gets the grid point of smallest |phi|, unconverged (NaN if phi
    was never finite)."""
    (m, c), (grids, order) = (len(scale), points // 2), _grid(lo, hi, points)
    root, iters, conv = np.full(m, np.nan), np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    best = np.full(m, np.inf)  # |phi| at root, the best grid point of a row without a bracket
    cells = []  # (rows, lower end, upper end, phi there)
    live = np.arange(m)
    with np.errstate(all="ignore"):
        for grid in grids:
            vals = np.full((m, points), np.nan)
            for i in order:
                if not live.size:
                    break
                z = scale[live] * grid[i]
                vals[live, i] = v = phi(z, live)
                iters[live] += 1
                better = np.abs(v) < best[live]  # False where v is NaN
                best[live[better]], root[live[better]] = np.abs(v[better]), z[better]
                if i == c:
                    continue
                j = i - 1 if i > c else i  # the cell (j, j+1) this evaluation completes
                f0, f1 = vals[live, j], vals[live, j + 1]
                ok = np.isfinite(f0) & np.isfinite(f1)
                zero, cell = ok & (f0 == 0.0), ok & (np.sign(f0) * np.sign(f1) < 0.0)
                if np.count_nonzero(zero | cell):
                    root[live[zero]], conv[live[zero]] = scale[live[zero]] * grid[j], True
                    cells.append((live[cell], scale[live[cell]] * grid[j],
                                  scale[live[cell]] * grid[j + 1], f0[cell], f1[cell]))
                    live = live[~(zero | cell)]
    if cells:
        rows, a, b, fa, fb = map(np.concatenate, zip(*cells))
        k = np.argsort(rows)  # _brent's rows, like phi's, are sorted
        rows, a, b, fa, fb = rows[k], a[k], b[k], fa[k], fb[k]
        root[rows], it, conv[rows] = _brent(lambda z, j: phi(z, rows[j]), a, b, fa, fb,
                                             xtol=_XTOL * scale[rows])
        iters[rows] += it
    return root, iters, conv


def _newton(fd, x, lo, hi, xtol, rtol=_RTOL):
    """The root of each row's increasing f inside its bracket (lo, hi), by
    Newton's method from x: a step that leaves the bracket of the points seen
    so far, or whose slope is not finite, bisects it instead, and a row stops
    once its step is below xtol + rtol |x|.  A row whose f turns NaN stops,
    unconverged, at the last point where f was finite (NaN if f was NaN at
    x).  fd(z, j) returns f and f' at z for the rows j.  Returns (root,
    iterations, converged)."""
    if len(x) == 1:
        with np.errstate(all="ignore"):
            out = _newton_one(fd, x[0], lo[0], hi[0], np.broadcast_to(xtol, x.shape)[0], rtol)
        return tuple(np.array([v]) for v in out)
    root, iters, conv = x.copy(), np.full(len(x), _MAX_ITER), np.zeros(len(x), dtype=bool)
    lo, hi, tol = lo.copy(), hi.copy(), np.broadcast_to(xtol, x.shape)
    live, last = np.arange(len(x)), np.full(len(x), np.nan)  # last: the last x of finite f
    with np.errstate(all="ignore"):
        for k in range(1, _MAX_ITER + 1):
            f, d = fd(x, live)
            lost = np.isnan(f)
            above = f > 0.0
            hi, lo = np.where(above, x, hi), np.where(above, lo, x)
            new = x - f / d
            inside = (new >= lo) & (new <= hi) & np.isfinite(d)
            new = np.where(f == 0.0, x, np.where(inside, new, 0.5 * (lo + hi)))
            done = ~lost & (np.abs(new - x) <= tol + rtol * np.abs(new))
            root[live] = np.where(lost, last, new)
            if np.count_nonzero(done | lost):
                iters[live[done | lost]], conv[live[done]] = k, True
                keep = ~(done | lost)
                live, x, new, lo, hi, tol = (v[keep] for v in (live, x, new, lo, hi, tol))
                if not live.size:
                    break
            x, last = new, x
    return root, iters, conv


def _newton_one(fd, x, lo, hi, tol, rtol):
    """``_newton``'s steps on one row, over scalars: (root, iterations, converged)."""
    last = np.float64(np.nan)
    for k in range(1, _MAX_ITER + 1):
        f, d = (v[0] for v in fd(np.array([x]), _ROW))
        if f != f:
            return last, k, False
        if f > 0.0:
            hi = x
        else:
            lo = x
        new = x - f / d
        if f == 0.0:
            new = x
        elif not (new >= lo and new <= hi and math.isfinite(d)):
            new = 0.5 * (lo + hi)
        if abs(new - x) <= tol + rtol * abs(new):
            return new, k, True
        x, last = new, x
    return x, _MAX_ITER, False


def _mean(A):
    """Row means of A: A.mean(axis=1) without its Python-level overhead."""
    return np.add.reduce(A, axis=1) / A.shape[1]


def _wmean_exp(V, L):
    """Row means of V weighted by exp(L), overflow-safe."""
    w = np.exp(L - L.max(axis=1, keepdims=True))
    return (V * w).sum(axis=1) / w.sum(axis=1)


def _log_mean_exp(L):
    """ln mean(exp(L)) of each row, overflow-safe."""
    top = L.max(axis=1)
    return top + np.log(_mean(np.exp(L - _col(top))))


def _col(v):
    return v[:, None]


# ---------------------------------------------------------------------------
# ML profiles over rows: profile(known, values, X, iters) -> (theta rows,
# converged), for every mask that leaves a parameter free, adding each row's
# solver iterations to iters.  A shape root is solved with the other
# components profiled out at the trial shape and the known ones held, so a
# masked row solves the score equations of its free components.
# ---------------------------------------------------------------------------

def _shape(eq, known: bool, value: float, iters, scale=None, **grid):
    """The shape of each row: its known value, or the root of eq on the grid
    (``_roots``) around ``scale`` (1 by default)."""
    m = len(iters)
    if known:
        return np.full(m, value), np.ones(m, dtype=bool)
    z, it, conv = _roots(eq, np.ones(m) if scale is None else scale, **grid)
    iters += it
    return z, conv


_CHUNK = 2 ** 14  # elements in one temporary of the gap search
_LEAF = 16  # a block of more midpoints is split again, not evaluated


def _gap_sums(x, c, lam):
    """sum |x - c_j|^lam at each c_j, in the bits np.sum gives each c_j alone,
    over chunks of at most _CHUNK elements."""
    step = max(1, _CHUNK // len(x))
    return np.concatenate([(np.abs(x - _col(c[i:i + step])) ** lam).sum(axis=1)
                           for i in range(0, len(c), step)])


def _outside(xs, cnt, inner, c, lam):
    """sum cnt_t |xs_t - c_b|^lam over the t outside each block b."""
    p = np.abs(xs - _col(c)) ** lam
    p *= cnt
    p[inner] = 0.0
    return p.sum(axis=1)


def _epd_gap(x, lam):
    """(xs, j): the distinct values xs of the row x and the gap (xs[j],
    xs[j+1]) whose midpoint gives the smallest sum |x_i - c|^lam of all gap
    midpoints c, the first on ties; an exact branch-and-bound over blocks of
    consecutive midpoints, see ``_epd_mu_hat``."""
    xs, cnt = np.unique(x, return_counts=True)
    mids = 0.5 * (xs[:-1] + xs[1:])
    near = np.minimum(xs[1:-1] - mids[:-1], mids[1:] - xs[1:-1]) ** lam
    inside = np.concatenate([[0.0], np.cumsum(cnt[1:-1] * near)])  # over xs[1 .. t]
    t, step = np.arange(len(xs)), max(1, _CHUNK // len(xs))

    def blocks(first, last):
        """mids[first .. last] in blocks of about sqrt(last - first + 1), as
        (bound, lo, hi): the block mids[lo .. hi] holds xs[lo+1 .. hi] inside."""
        k = math.isqrt(last - first) + 1
        lo = np.arange(first, last + 1, k)
        hi = np.minimum(lo + k, last + 1) - 1
        bound = inside[hi] - inside[lo]
        for i in range(0, len(lo), step):
            b = slice(i, i + step)
            inner = (t > _col(lo[b])) & (t <= _col(hi[b]))
            bound[b] += np.minimum(_outside(xs, cnt, inner, mids[lo[b]], lam),
                                   _outside(xs, cnt, inner, mids[hi[b]], lam))
        return zip(bound.tolist(), lo.tolist(), hi.tolist())

    heap = list(blocks(0, len(mids) - 1))
    heapq.heapify(heap)
    best, val = 0, np.inf
    while heap and heap[0][0] <= val * (1.0 + 1e-9):
        _, lo, hi = heapq.heappop(heap)
        if hi - lo >= _LEAF:
            for block in blocks(lo, hi):
                heapq.heappush(heap, block)
            continue
        f = _gap_sums(x, mids[lo:hi + 1], lam)
        j = int(np.argmin(f))
        if f[j] < val or (f[j] == val and lo + j < best):
            best, val = lo + j, f[j]
    return xs, best


def _epd_mu_hat(X, lam, start):
    """(mu, iterations): the location solving sum sign(x-mu)|x-mu|^(lam-1) = 0
    on each row at its lam.

    For lam < 1 the root lies in the gap of the row's distinct values whose
    midpoint c minimizes f(c) = sum |x_i - c|^lam, first on ties; ``_epd_gap``
    finds it without evaluating f at every midpoint.  On a block of
    consecutive midpoints spanning [c_lo, c_hi], the points outside the span
    add a sum that is concave in c (|x - c| is linear there and t^lam is
    concave), so at least the smaller of its values at c_lo and c_hi; a point
    xs[t] inside the span is no closer to any of the block's midpoints than to
    the nearer of mids[t-1] and mids[t], on either side of it.  The two parts
    bound f from below on the block.  The m midpoints start as blocks of
    about sqrt(m); the block of lowest bound is split the same way while it
    holds more than _LEAF midpoints, and otherwise f is evaluated on it as the
    full scan did, np.sum over the row at one midpoint.  The search stops once
    the lowest bound exceeds the best f by more than the rounding of either
    sum (relative 1e-9), so no block left over holds the minimum or a tie with
    it: the gap, and mu, are the scan's to the bit.  The iterations count
    every gap, as the scan did."""
    mu, iters, lo, hi = np.empty(len(X)), np.zeros(len(X), dtype=int), X.min(axis=1), X.max(axis=1)
    # lam >= 1: one root of sum sign(d)|d|^(lam-1) in d = mu - x, which rises
    # with slope (lam-1) sum |d|^(lam-2) (not finite at a tie when lam < 2)
    up = np.flatnonzero(lam >= 1.0)
    if up.size:
        def fd(z, j):
            d = _col(z) - _take(X, up[j])
            q = np.sign(d) * _pow(np.abs(d), lam[up[j]] - 1.0)
            return np.add.reduce(q, axis=1), (lam[up[j]] - 1.0) * np.add.reduce(q / d, axis=1)

        mu[up], iters[up], _ = _newton(fd, start[up], lo[up], hi[up],
                                       1e-12 * np.maximum(1.0, hi[up] - lo[up]))
    # lam < 1: the equation blows up at every observation, with one root per
    # gap; take the consistent root in the gap with the smallest profiled
    # objective at its midpoint (``_epd_gap``; global maximization is
    # degenerate here), or the gap's end where the equation has no sign
    # change inside it
    down = np.flatnonzero(lam < 1.0)
    if down.size:
        a, b = np.empty(down.size), np.empty(down.size)
        for k, r in enumerate(down):
            xs, best = _epd_gap(X[r], lam[r])
            a[k], b[k] = np.nextafter(xs[best], xs[best + 1]), np.nextafter(xs[best + 1], xs[best])
            iters[r] = len(xs) - 1

        def g(z, j):
            d = _take(X, down[j]) - _col(z)
            return (np.sign(d) * _pow(np.abs(d), lam[down[j]] - 1.0)).sum(axis=1)

        ga, gb = g(a, np.arange(down.size)), g(b, np.arange(down.size))
        root, it, _ = _brent(g, a, b, ga, gb, xtol=1e-13 * np.maximum(1.0, hi[down] - lo[down]),
                             rtol=4.0 * np.finfo(float).eps)
        mu[down] = np.where(ga <= 0.0, a, np.where(gb >= 0.0, b, root))
        iters[down] += np.where((ga <= 0.0) | (gb >= 0.0), 0, it)
    return mu, iters


def _epd_rows(kn, kv, X, iters):
    last_mu = _mean(X)  # each row's latest location: the next one's start

    def inner(lam, j):
        Xj = _take(X, j)
        if kn[1]:
            mu = np.full(len(j), kv[1])
        else:
            mu, it = _epd_mu_hat(Xj, lam, last_mu[j])
            last_mu[j], iters[j] = mu, iters[j] + it
        a = np.abs(Xj - _col(mu))
        return mu, np.full(len(j), kv[2]) if kn[2] else _mean(_pow(a, lam)) ** (1.0 / lam), a

    def lam_eq(lam, j):
        _, sigma, a = inner(lam, j)
        w = _pow(a / _col(sigma), lam)
        val = _epd_c1(lam) - _mean(w * np.log(np.where(w > 0.0, w, 1.0)))
        return val + (_mean(w) - 1.0 if kn[2] else 0.0)

    lam, conv = _shape(lam_eq, kn[0], kv[0], iters)
    mu, sigma, _ = inner(lam, np.arange(len(X)))
    return np.column_stack([lam, mu, sigma]), conv


def _expgamma_rows(kn, kv, X, iters):
    xbar, s0 = _mean(X), X.std(axis=1)
    D = X - _col(xbar)  # the scale equation with mu profiled out is free of shifts
    top, last_sigma = D.max(axis=1), s0.copy()  # a row's latest scale: the next one's start

    def sigma_hat(lam, j):
        if kn[2]:
            return np.full(len(j), kv[2])
        if kn[1]:  # the scale score at the known location
            Xj = _take(X, j)

            def phi(s, k):
                y = (_take(Xj, k) - kv[1]) / _col(s)
                return _mean(y * np.exp(y)) - lam[k] * _mean(y) - 1.0

            sigma, it, _ = _roots(phi, s0[j])
        else:
            # s - lam E_w[D] with weights exp(D / s): it rises from -lam max(D)
            # at 0+ with slope 1 + lam var_w(D) / s^2 and is >= 0 at lam max(D)
            Dj, hi = _take(D, j), lam * top[j]

            def fd(s, k):
                Dk = _take(Dj, k)
                w = np.exp((Dk - _col(top[j][k])) / _col(s))
                sw = w.sum(axis=1)
                m1 = (w * Dk).sum(axis=1) / sw
                v = (w * (Dk - _col(m1)) ** 2).sum(axis=1) / sw
                return s - lam[k] * m1, 1.0 + lam[k] * v / s ** 2

            sigma, it, _ = _newton(fd, np.minimum(last_sigma[j], hi), np.zeros(len(j)), hi,
                                   _XTOL)
        last_sigma[j], iters[j] = sigma, iters[j] + it
        return sigma

    def lam_eq(lam, j):
        sigma = sigma_hat(lam, j)
        a = _take(X, j) / _col(sigma)
        if kn[1]:
            return _mean(a) - kv[1] / sigma - sp.digamma(lam)
        return np.log(lam) - sp.digamma(lam) - (_log_mean_exp(a) - _mean(a))

    lam, conv = _shape(lam_eq, kn[0], kv[0], iters)
    sigma = sigma_hat(lam, np.arange(len(X)))
    mu = sigma * (_log_mean_exp(X / _col(sigma)) - np.log(lam))
    return np.column_stack([lam, mu, sigma]), conv & np.isfinite(sigma) & (lam < _SHAPE_CAP)


def _logistic_rows(kn, kv, X, iters):
    """Profiled logistic ML: inner location root, outer scale root."""
    lo, hi = X.min(axis=1), X.max(axis=1)
    last_mu = np.median(X, axis=1)  # each row's latest location: the next one's start

    def mu_hat(sigma, j):
        if kn[0]:
            return np.full(len(j), kv[0])
        Xj = _take(X, j)

        def fd(z, k):  # the location score, increasing in mu, and its slope
            t = 2.0 / (1.0 + np.exp((_take(Xj, k) - _col(z)) / _col(sigma[k])))
            return _mean(t) - 1.0, _mean(t * (2.0 - t)) / (2.0 * sigma[k])

        mu, it, _ = _newton(fd, last_mu[j], lo[j], hi[j], _XTOL * (hi[j] - lo[j]))
        last_mu[j], iters[j] = mu, iters[j] + it
        return mu

    def phi(sigma, j):
        y = (_take(X, j) - _col(mu_hat(sigma, j))) / _col(sigma)
        return _mean(y * np.tanh(0.5 * y)) - 1.0

    sigma, conv = _shape(phi, kn[1], kv[1], iters, X.std(axis=1) * math.sqrt(3.0) / math.pi)
    return np.column_stack([mu_hat(sigma, np.arange(len(X))), sigma]), conv


def _student_steps(lam, c, mq, my, mh, mqq, myq, mhq, mu_known: bool, sigma_known: bool):
    """The Newton and EM steps of the t log-likelihood at lam in (mu, ln sigma)
    for rows at (mu, sigma), from the row means mq, my, mh of q, yq, y^2 q and
    mqq, myq, mhq of q^2, yq^2, y^2 q^2, where y = (x - mu) / sigma, q = 1 /
    (lam + y^2) and c = lam + 1.  Returns (a, t, newton, em_a, em_f): the
    Newton step a = (mu' - mu) / sigma, t = ln(sigma' / sigma), whether the
    Hessian is negative definite (so the step can be taken), and EM's step
    mu' = mu + em_a sigma, sigma' = em_f sigma.  A held component's score and
    cross term read 0 and its curvature -1, so its Newton step is 0."""
    g_a, g_t = c * my, c * mh - 1.0  # the mean score in (mu / sigma, ln sigma)
    h_aa, h_at, h_tt = c * (mhq - lam * mqq), -2.0 * lam * c * myq, -2.0 * lam * c * mhq
    if mu_known:
        g_a, h_aa, h_at = 0.0, -1.0, 0.0
    if sigma_known:
        g_t, h_tt, h_at = 0.0, -1.0, 0.0
    det = h_aa * h_tt - h_at * h_at
    em_a = my / mq
    return (-(h_tt * g_a - h_at * g_t) / det, -(h_aa * g_t - h_at * g_a) / det,
            (h_aa < 0.0) & (det > 0.0), em_a, np.sqrt(c * (mh if mu_known else mh - em_a * my)))


def _student_newton(X, lam, mu, sigma, mu_known: bool, sigma_known: bool):
    """The maximum of each row's t likelihood at its lam over (mu, sigma), the
    known one held, by Newton's method in (mu, ln sigma) from (mu, sigma).  A
    row takes EM's step instead where the Hessian is not negative definite or
    the Newton step does not raise the likelihood.  Each row stops on its own
    step, once mu moves by at most _STEP_TOL max(|mu|, sigma) and sigma by at
    most _STEP_TOL sigma: against max(|mu|, sigma) alone, a sigma collapsing
    far below |mu| would stop at once.  Returns (mu, sigma, iterations)."""
    if mu_known and sigma_known:
        return mu.copy(), sigma.copy(), np.ones(len(X), dtype=int)
    if len(X) == 1:
        with np.errstate(all="ignore"):
            out = _student_newton_one(X[0], lam[0], mu[0], sigma[0], mu_known, sigma_known)
        return tuple(np.array([v]) for v in out)
    mu, sigma, iters = mu.copy(), sigma.copy(), np.full(len(X), _MAX_ITER)
    live, c, m, s = np.arange(len(X)), lam + 1.0, mu, sigma
    Y = (X - _col(m)) / _col(s)
    for it in range(1, _MAX_ITER + 1):
        H = Y * Y
        Q = 1.0 / (_col(lam) + H)
        YQ, HQ = Y * Q, H * Q
        a, t, newton, step_a, step_f = _student_steps(
            lam, c, _mean(Q), _mean(YQ), _mean(HQ), _mean(Q * Q), _mean(YQ * Q), _mean(HQ * Q),
            mu_known, sigma_known)
        if np.count_nonzero(newton):
            # the rise of the mean log-likelihood, with y - y' = D taken from
            # the step itself: y' - y from y' would round to eps |y|, not
            # eps |y - y'|
            e = np.exp(t)
            D = (Y * _col(np.expm1(t)) + _col(a)) / _col(e)
            take = newton & (-t - 0.5 * c * _mean(np.log1p(-D * (Y + Y - D) * Q)) > 0.0)
            step_a, step_f = np.where(take, a, step_a), np.where(take, e, step_f)
        m_new = m if mu_known else m + s * step_a
        s_new = s if sigma_known else s * step_f
        stop = ((np.abs(m_new - m) <= _STEP_TOL * np.maximum(np.abs(m_new), s_new))
                & (np.abs(s_new - s) <= _STEP_TOL * s_new))
        m, s = m_new, s_new
        if np.count_nonzero(stop):  # rows that stop leave the loop
            mu[live[stop]], sigma[live[stop]], iters[live[stop]] = m[stop], s[stop], it
            keep = ~stop
            live, X, lam, c, m, s = (v[keep] for v in (live, X, lam, c, m, s))
            if not live.size:
                break
        Y = (X - _col(m)) / _col(s)
    mu[live], sigma[live] = m, s
    return mu, sigma, iters


def _student_newton_one(x, lam, m, s, mu_known: bool, sigma_known: bool):
    """``_student_newton``'s steps on one row x, over scalars: (mu, sigma, iterations)."""
    n, c = len(x), lam + 1.0
    y = (x - m) / s
    for it in range(1, _MAX_ITER + 1):
        h = y * y
        q = 1.0 / (lam + h)
        yq, hq = y * q, h * q
        a, t, newton, em_a, em_f = _student_steps(
            lam, c, *(np.add.reduce(v) / n for v in (q, yq, hq, q * q, yq * q, hq * q)),
            mu_known, sigma_known)
        if newton:
            e = np.exp(t)
            d = (y * np.expm1(t) + a) / e
            newton = -t - 0.5 * c * (np.add.reduce(np.log1p(-d * (y + y - d) * q)) / n) > 0.0
        m_new = m if mu_known else m + s * (a if newton else em_a)
        s_new = s if sigma_known else s * (e if newton else em_f)
        stop = (abs(m_new - m) <= _STEP_TOL * _max(abs(m_new), s_new)
                and abs(s_new - s) <= _STEP_TOL * s_new)
        m, s = m_new, s_new
        if stop:
            return m, s, it
        y = (x - m) / s
    return m, s, _MAX_ITER


def _student_rows(kn, kv, X, iters):
    # a row's (mu, sigma) at the last trial lam starts its solve at the next:
    # Newton's method ends within rounding of the maximum whatever its start,
    # and a start near it saves steps.  A solve that ran to its cap is not
    # carried over: below lam = 1/(n-1) the likelihood grows without bound as
    # sigma -> 0 at an observation, and a start there sends Newton astray.
    last_mu = np.full(len(X), kv[1]) if kn[1] else np.median(X, axis=1)
    last_sigma = np.full(len(X), kv[2]) if kn[2] else X.std(axis=1)

    def inner(lam, j):
        mu, sigma, it = _student_newton(_take(X, j), lam, last_mu[j], last_sigma[j], kn[1], kn[2])
        ok = it < _MAX_ITER
        last_mu[j[ok]], last_sigma[j[ok]], iters[j] = mu[ok], sigma[ok], iters[j] + it
        return mu, sigma

    def lam_eq(lam, j):
        mu, sigma = inner(lam, j)
        y2 = ((_take(X, j) - _col(mu)) / _col(sigma)) ** 2
        val = (sp.digamma(0.5 * (lam + 1.0)) - sp.digamma(0.5 * lam)
               - _mean(np.log1p(y2 / _col(lam))))
        if kn[2]:
            val += ((lam + 1.0) / lam * _mean(y2 / (1.0 + y2 / _col(lam))) - 1.0) / lam
        return val

    lam, conv = _shape(lam_eq, kn[0], kv[0], iters, lo=1e-2)
    mu, sigma = inner(lam, np.arange(len(X)))
    return np.column_stack([lam, mu, sigma]), conv & (lam < 1e3 * 0.99)


def _halfepd_rows(kn, kv, X, iters):
    """Half-EPD ML is EPD ML at the known location 0 (x = |x - 0| on x > 0)."""
    theta, conv = _epd_rows((kn[0], True, kn[1]), (kv[0], 0.0, kv[1]), X, iters)
    return theta[:, [0, 2]], conv


def _weibull_rows(kn, kv, X, iters):
    lx = np.log(X)
    if kn[0]:
        lx -= math.log(kv[0])  # ln(x / beta)
    top = lx.max(axis=1)
    D = lx - _col(top)  # exp(rho D) <= 1
    mean_d = _mean(D)
    if kn[1]:
        rho, conv = np.full(len(X), kv[1]), np.ones(len(X), dtype=bool)
    elif kn[0]:
        def phi(rho, j):  # the rho score at the known scale
            L = _take(D, j) + _col(top[j])
            return _mean(np.exp(_col(rho) * L) * L) - _mean(L) - 1.0 / rho

        rho0 = math.pi / math.sqrt(6.0) / np.maximum(lx.std(axis=1), 1e-12)
        rho, conv = _shape(phi, False, 0.0, iters, rho0, lo=1e-2, hi=1e2)
    else:
        # beta profiled out, in s = 1/rho: s + mean D - E_w[D] with weights
        # exp(D / s) rises with slope 1 + var_w(D) / s^2 from mean D - max D < 0
        # at 0+ and is > 0 at s = -mean D
        def fd(s, j):
            Dj = _take(D, j)
            w = Dj * _col(1.0 / s)
            np.exp(w, out=w)
            wd, sw = w * Dj, np.add.reduce(w, axis=1)
            m1 = np.add.reduce(wd, axis=1) / sw
            return s + mean_d[j] - m1, 1.0 + (np.einsum("ij,ij->i", wd, Dj) / sw - m1 ** 2) / s ** 2

        # from the moment estimate, s = sd(ln x) sqrt(6) / pi
        s0 = np.sqrt(np.maximum(np.einsum("ij,ij->i", D, D) / D.shape[1] - mean_d ** 2, 0.0))
        s, it, conv = _newton(fd, s0 * (math.sqrt(6.0) / math.pi), np.zeros(len(X)), -mean_d,
                              0.0, 1e-13)
        iters += it
        rho = 1.0 / s
    w = _col(rho) * D
    np.exp(w, out=w)
    return np.column_stack([np.exp(top + np.log(_mean(w)) / rho), rho]), conv


def _gompertz_rows(kn, kv, X, iters):
    xbar = _mean(X)

    def phi(beta, j):
        Xj = _take(X, j)
        t = _col(beta) * Xj
        if kn[1]:  # the beta score at the known rho
            return 1.0 / beta + xbar[j] - kv[1] * _mean(Xj * np.exp(t))
        # rho_hat * mean(x e^(beta x)) with rho_hat = 1/(mean e^(beta x) - 1)
        return 1.0 / beta + xbar[j] - _wmean_exp(Xj, t) / -np.expm1(-_log_mean_exp(t))

    beta, conv = _shape(phi, kn[0], kv[0], iters, 1.0 / xbar)
    return np.column_stack([beta, 1.0 / np.expm1(_log_mean_exp(_col(beta) * X))]), conv


def _lomax_rows(kn, kv, X, iters):
    def alpha_hat(sigma, Xj):
        return np.full(len(Xj), kv[0]) if kn[0] else 1.0 / _mean(np.log1p(Xj / _col(sigma)))

    def phi(sigma, j):
        Xj = _take(X, j)
        return (1.0 + alpha_hat(sigma, Xj)) * _mean(Xj / (1.0 + Xj / _col(sigma))) - sigma

    sigma, conv = _shape(phi, kn[1], kv[1], iters, _mean(X))
    return np.column_stack([alpha_hat(sigma, X), sigma]), conv


def _kumaraswamy_rows(kn, kv, X, iters):
    n, lx = X.shape[1], np.log(X)
    sum_lx = lx.sum(axis=1)

    def beta_hat(alpha, Xj):
        return np.full(len(Xj), kv[1]) if kn[1] else -n / np.log1p(-_pow(Xj, alpha)).sum(axis=1)

    def phi(alpha, j):
        Xj = _take(X, j)
        xa = _pow(Xj, alpha)
        denom = (xa / (1.0 - xa) * _take(lx, j)).sum(axis=1)
        return 1.0 - beta_hat(alpha, Xj) + (n / alpha + sum_lx[j]) / denom

    alpha, conv = _shape(phi, kn[0], kv[0], iters)
    return np.column_stack([alpha, beta_hat(alpha, X)]), conv


def _psi_minus_log(z, c):
    """psi(z) - ln z + c and its slope zeta(2, z) - 1/z.  From z = 50 on they are
    read from their asymptotic series to five terms, within 2.2e-16 relative
    there, where scipy's difference has lost digits to the cancellation
    (4e-14 relative at z = 50, 3e-13 at 1e3, 1.3e-10 at 1e5)."""
    w = 1.0 / z
    w2 = w * w
    big = z >= 50.0
    f = np.where(big, -0.5 * w - w2 * (1 / 12 - w2 * (1 / 120 - w2 * (1 / 252 - w2 / 240))),
                 sp.digamma(z) - np.log(z))
    d = np.where(big, w2 * (0.5 + w * (1 / 6 - w2 * (1 / 30 - w2 * (1 / 42 - w2 / 30)))),
                 sp.zeta(2.0, z) - w)
    return f + c, d


def _digamma_root(t, minus_log: bool, iters):
    """(lam, converged): the root of psi(lam) - ln lam = t if minus_log (none
    where t >= 0, which gives _SHAPE_CAP), or else of psi(lam) = t, by
    ``_newton`` from Minka's starts inside the brackets that
    ln z - 1/z < psi(z) < ln z - 1/(2z) gives: (-1/(2t), -1/t), and (e^t, e^t + 1)."""
    if minus_log:
        s = np.where(t < 0.0, -t, 1.0)
        lo, x = 0.5 / s, (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        lam, it, conv = _newton(lambda z, j: _psi_minus_log(z, s[j]), x, lo, 2.0 * lo, 0.0, 1e-13)
        lam = np.where(t < 0.0, lam, _SHAPE_CAP)
    else:
        lo, x = np.exp(t), np.where(t >= -2.22, np.exp(t) + 0.5, -1.0 / (t + np.euler_gamma))
        lam, it, conv = _newton(lambda z, j: (sp.digamma(z) - t[j], sp.zeta(2.0, z)),
                                x, lo, lo + 1.0, 0.0, 1e-13)
    iters += it
    return lam, conv


def _log_gap(Y, c):
    """mean ln(y / c) - (mean y / c - 1) on each row, summed as mean ln(y / c)
    - mean e with e = (y - c) / c, so that neither term is a difference of
    nearly equal means; ln(y / c) is log1p(e) where |e| < 1/2, and ln y - ln c
    where e has lost the digits of y / c (e reads -1 below y / c = 2**-53).
    Where c is the row mean, mean e is its rounding, and this is mean ln y -
    ln mean y at the exact mean."""
    e = (Y - c[:, None]) / c[:, None]
    ln = np.log1p(e, where=np.abs(e) < 0.5, out=np.log(Y) - np.log(c)[:, None])
    return _mean(ln) - _mean(e)


def _gamma_rows(kn, kv, X, iters):  # lambda free; lambda known is a closed form
    xbar = _mean(X)
    # the lambda score psi(lambda) - ln beta = mean ln x, at the known beta
    # or with beta = xbar / lambda profiled out
    if kn[1]:
        lam, conv = _digamma_root(_mean(np.log(X)) - math.log(kv[1]), False, iters)
    else:
        lam, conv = _digamma_root(_log_gap(X, xbar), True, iters)
        conv &= lam < _SHAPE_CAP
    return np.column_stack([lam, xbar / lam]), conv


def _nakagami_rows(kn, kv, X, iters):
    """Nakagami is gamma(lambda, omega / lambda) in x**2: the lambda score
    psi(lambda) - ln lambda = mean ln x**2 - ln omega + 1 - mean x**2 / omega."""
    x2 = X ** 2
    omega = np.full(len(X), kv[1]) if kn[1] else _mean(x2)
    if kn[0]:
        return np.column_stack([np.full(len(X), kv[0]), omega]), np.ones(len(X), dtype=bool)
    lam, conv = _digamma_root(_log_gap(x2, omega), True, iters)
    return np.column_stack([lam, omega]), conv & (lam < _SHAPE_CAP)


def _beta_rows(kn, kv, X, iters):
    """Newton's method on psi(a) - psi(a+b) = mean ln x and psi(b) - psi(a+b)
    = mean ln(1 - x) in the free components, from the moment estimates; each
    row stops on its own step, and one whose system turns singular where it
    is, unconverged."""
    m, v = _mean(X), np.maximum(X.var(axis=1), 1e-12)
    c = m * (1.0 - m) / v - 1.0
    a = np.full(len(X), kv[0]) if kn[0] else np.maximum(m * c, 1e-2)
    b = np.full(len(X), kv[1]) if kn[1] else np.maximum((1.0 - m) * c, 1e-2)
    s1, s2 = _mean(np.log(X)), _mean(np.log1p(-X))
    iters += _MAX_ITER
    conv, live = np.zeros(len(X), dtype=bool), np.arange(len(X))
    for it in range(1, _MAX_ITER + 1):
        al, bl = a[live], b[live]
        pab, tab = sp.digamma(al + bl), sp.polygamma(1, al + bl)
        f1, f2 = sp.digamma(al) - pab - s1[live], sp.digamma(bl) - pab - s2[live]
        j11, j22 = sp.polygamma(1, al) - tab, sp.polygamma(1, bl) - tab
        det = j11 * j22 - tab * tab if not (kn[0] or kn[1]) else (j22 if kn[0] else j11)
        da = 0.0 * f1 if kn[0] else -f1 / j11 if kn[1] else (-f1 * j22 - f2 * tab) / det
        db = 0.0 * f2 if kn[1] else -f2 / j22 if kn[0] else (-f2 * j11 - f1 * tab) / det
        step = np.ones(len(live))
        while (short := ((al + step * da <= 0.0) | (bl + step * db <= 0.0)) & (step > 1e-8)).any():
            step[short] *= 0.5
        ok = det > 0.0
        a[live], b[live] = np.where(ok, al + step * da, al), np.where(ok, bl + step * db, bl)
        done = ok & (np.maximum(np.abs(da), np.abs(db))
                     <= _STEP_TOL * np.maximum(np.maximum(1.0, a[live]), b[live]))
        iters[live[done]], conv[live[done]] = it, True
        live = live[ok & ~done]
        if not live.size:
            break
    return np.column_stack([a, b]), conv


_ML_PROFILES = {
    "epd": _epd_rows, "exp-gamma": _expgamma_rows, "logistic": _logistic_rows,
    "student-t": _student_rows, "half-epd": _halfepd_rows, "weibull": _weibull_rows,
    "gompertz": _gompertz_rows, "gamma": _gamma_rows, "lomax": _lomax_rows,
    "nakagami": _nakagami_rows, "beta": _beta_rows, "kumaraswamy": _kumaraswamy_rows,
}


# ---------------------------------------------------------------------------
# closed-form estimators over sample rows: X (rows, n) -> theta rows (rows, p),
# the free components from the rows and the known ones from the mask
# ---------------------------------------------------------------------------

def _known_rows(mask: KnownMask, rows: int) -> np.ndarray:
    """theta rows holding the known values, NaN at the free components."""
    return np.tile(np.asarray(mask.fixed_values, dtype=float), (rows, 1))


def _matched(stat: str, x, loc):
    """The values whose mean a moment equation matches: x ("mean"), or the
    squared ("msd") or absolute ("mad") deviation about loc."""
    if stat == "mean":
        return x
    return (x - loc) ** 2 if stat == "msd" else np.abs(x - loc)


def _mm_rows(fam: Family, mask: KnownMask, num: float, den: float, X) -> np.ndarray:
    """Solve the family's moment equation ``fam.mm``, whose constant at the
    mask's shapes is (num, den), on each row of X."""
    eq, p = fam.mm, fam.n_params
    theta = _known_rows(mask, len(X))
    loc = None
    if eq.stat != "mean":
        if not mask.known[p - 2]:
            theta[:, p - 2] = X.mean(axis=1)
        loc = theta[:, p - 2, None]
    if not mask.known[p - 1]:
        s = _matched(eq.stat, X, loc).mean(axis=1) * den / num
        theta[:, p - 1] = np.sqrt(s) if eq.stat == "msd" else s
    return theta


def moment_fns(fam: Family, thetas):
    """psi(x) of the MM row at each theta row (rows, p): one moment function
    per parameter the row estimates, in ``Row.names`` order, each zero in mean
    at its theta: x - loc for the location, and the matched values
    (``_matched``) less their model value s**q * num / den for the scale s."""
    eq, p = fam.mm, fam.n_params
    given = [fam.param_names.index(g) for g in eq.given]
    ratio = np.array([[num / den] for num, den in
                      (eq.unit(*(t[i] for i in given)) for t in thetas)])
    scale = thetas[:, p - 1, None]
    model = scale ** 2 * ratio if eq.stat == "msd" else scale * ratio
    if eq.stat == "mean":
        return lambda x: [x - model]
    loc = thetas[:, p - 2, None]
    return lambda x: [x - loc, _matched(eq.stat, x, loc) - model]


def _columns(exprs, mask: KnownMask, X) -> np.ndarray:
    """theta rows whose free columns j are filled, in order, with exprs[j](X, theta)."""
    theta = _known_rows(mask, len(X))
    for j, expr in enumerate(exprs):
        if not mask.known[j]:
            theta[:, j] = expr(X, theta)
    return theta


# ML estimators as column expressions; None where a column has no closed form
_ML_ROWS = {
    "normal": (lambda X, t: X.mean(axis=1),
               lambda X, t: np.sqrt(((X - t[:, :1]) ** 2).mean(axis=1))),
    "laplace": (lambda X, t: np.median(X, axis=1),
                lambda X, t: np.abs(X - t[:, :1]).mean(axis=1)),
    "uniform": (lambda X, t: X.min(axis=1), lambda X, t: X.max(axis=1)),
    "gamma": (None, lambda X, t: X.mean(axis=1) / t[:, 0]),
    "inverse-gaussian": (lambda X, t: X.mean(axis=1), lambda X, t: _ig_lambda(X, t[:, 0])),
}


def _ig_lambda(X, mu):
    """The inverse-Gaussian precision ML estimate at mu; NaN where it is not positive."""
    lam = 1.0 / ((1.0 / X).mean(axis=1) - (2.0 - X.mean(axis=1) / mu) / mu)
    return np.where(lam > 0.0, lam, np.nan)


def _closed(theta_rows):
    """A closed-form estimator: one iteration, converged, on every row."""
    return lambda X: (theta_rows(X), np.ones(len(X), dtype=int), np.ones(len(X), dtype=bool))


# ---------------------------------------------------------------------------
# the (family, estimator, mask) row, resolved once
# ---------------------------------------------------------------------------

_ROW_CACHE = 1024  # the rows ``row`` keeps, the most recently used


@dataclass(frozen=True, eq=False)
class Row:
    """A (family, estimator, mask) row, resolved by ``row``: the ``names`` it
    estimates (MM: not those it requires known), the indices into them its
    mask (NaN where free) leaves ``free``, and any ``base`` row it is taken through."""

    fam: Family
    kind: EstimatorKind
    mask: KnownMask
    base: Optional["Row"]
    names: tuple[str, ...]
    free: tuple[int, ...]

    @functools.cached_property
    def estimator(self):
        """X (rows, n) -> (theta rows, iterations, converged), NaN theta where
        a row's fit fails, on rows ``rejected_rows`` passes.  ConfigurationError
        for an MM row whose required shapes are free or give no constant."""
        fam, mask = self.fam, self.mask
        if self.kind is EstimatorKind.MM:
            unknown = [p for p in fam.mm_known if not mask.is_known(fam, p)]
            if unknown:
                raise ConfigurationError(f"{fam.name} MM requires {', '.join(unknown)} to be known")
        exprs = _ML_ROWS.get(fam.name)
        if self.base is not None:
            d, base_rows = fam.derived, self.base.estimator
            est = lambda X: (lambda t, i, c: (d.from_base(t), i, c))(*base_rows(d.data.to(X)))  # noqa: E731
        elif self.kind is EstimatorKind.MM:
            num, den = fam.mm.unit(*(mask.value(fam, g) for g in fam.mm.given))
            est = _closed(lambda X: _mm_rows(fam, mask, num, den, X))
        elif exprs is not None and all(k or e is not None for k, e in zip(mask.known, exprs)):
            est = _closed(lambda X: _columns(exprs, mask, X))
        else:
            def est(X):
                iters = np.zeros(len(X), dtype=int)
                theta, converged = _ML_PROFILES[fam.name](mask.known, mask.fixed_values, X, iters)
                return theta, iters, converged
        known = list(mask.known)

        def rows(X):
            with np.errstate(all="ignore"):
                theta, iterations, converged = est(X)
            theta[:, known] = np.asarray(mask.fixed_values)[known]
            return theta, np.maximum(iterations, 1), converged
        return rows


def row(fam, kind=EstimatorKind.ML, mask: Optional[KnownMask] = None) -> Row:
    """The Row of a family, an estimator kind and a mask (None: all free),
    kept on the family object, the kind and the known flags and values; a
    Row given as ``fam`` is returned.  ConfigurationError for an MM row the
    family does not declare, DomainError for a wrong mask arity or known value."""
    if isinstance(fam, Row):
        return fam
    fam = get_family(fam)
    mask = mask or KnownMask.none(fam.n_params)
    known = tuple(map(bool, mask.known))
    return _row(fam, EstimatorKind(kind), known,  # the values in hex: -0.0 is not 0.0
                tuple(float(v).hex() for k, v in zip(known, mask.fixed_values) if k))


@functools.lru_cache(maxsize=_ROW_CACHE)
def _row(fam: Family, kind: EstimatorKind, known: tuple, values: tuple) -> Row:
    if kind is EstimatorKind.MM and not fam.has_mm:
        raise ConfigurationError(f"family {fam.name!r} has no MM estimator")
    if len(known) != fam.n_params:
        raise DomainError(f"mask arity {len(known)} != {fam.n_params}")
    mask = KnownMask.from_names(fam, dict(zip([p for p, k in zip(fam.param_names, known) if k],
                                              map(float.fromhex, values))))
    d = fam.through(kind)
    base = None if d is None else row(d.base, kind, KnownMask.from_names(
        d.base, d.base_values(mask.fixed_values, known)))
    names = tuple(p for p in fam.param_names if kind is EstimatorKind.ML or p not in fam.mm_known)
    return Row(fam, kind, mask, base, names,
               tuple(j for j, p in enumerate(names) if not mask.is_known(fam, p)))


def check_size(r: Row, n: int) -> None:
    """DomainError unless samples of n observations can fit the row: n must
    exceed the number of free parameters."""
    need = r.fam.n_params - r.mask.n_known + 1
    if n < need:
        raise DomainError(f"need at least {need} observations, got {n}")


def rejected_rows(r: Row, X):
    """Rows of X that ``fit`` rejects: (data outside the support, no spread
    to fit).  A support end named by a parameter is closed, at its known
    value (NaN, which no point is outside, if free); a constant end is open."""
    fam, mask = r.fam, r.mask
    lo, hi = fam.support(mask.fixed_values)
    closed_lo, closed_hi = (isinstance(e, str) for e in fam.ends)
    below = X < lo if closed_lo else X <= lo
    above = X > hi if closed_hi else X >= hi
    outside = np.any(below | above, axis=1)
    spread = fam.n_params > 1 and mask.n_known < fam.n_params
    return outside, spread & (np.ptp(X, axis=1) == 0.0)


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def _residual(r: Row, theta, x) -> float:
    """The largest |mean estimating function| at theta over the free
    components: the score for ML, the moment functions (``moment_fns``) for
    MM, the latter through the base for a derived family's MM row."""
    fam, kind, d = r.fam, r.kind, r.fam.derived
    if kind is EstimatorKind.MM and r.base is not None:
        return _residual(r.base, d.to_base(theta), d.data.to(x))
    free = list(r.free)
    if kind is EstimatorKind.ML and (r.base or r).fam.name == "epd" and theta[0] < 1.0:
        # the location score is unbounded at the cusp optimum; judge the
        # remaining components only
        free = [i for i in free if i != 1]
    if fam.score_fn is None or not free:
        return 0.0
    with np.errstate(all="ignore"):
        if kind is EstimatorKind.ML:
            psi = score(fam, theta, x)
        else:
            psi = np.concatenate(moment_fns(fam, np.array([theta], dtype=float))(x))
    return float(np.max(np.abs(np.mean(psi[free], axis=1))))


def fit(fam, kind, mask: Optional[KnownMask], x) -> FitResult:
    """Fit the family's nuisance parameters on the sample: ``Row.estimator``
    on it as a single row, with its checks and residual.  Raises as ``row``,
    ``Row.estimator`` and ``check_size`` do, DomainError for data outside the
    support, DegenerateSampleError for a sample without usable spread, and
    EstimationError when the estimating equations have no finite solution."""
    r = row(fam, kind, mask)
    est, fam, mask = r.estimator, r.fam, r.mask

    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise DomainError("sample must be a nonempty 1-D array")
    check_size(r, len(x))
    outside, flat = rejected_rows(r, x[None, :])
    if outside[0]:
        raise DomainError(f"data outside the support of {fam.name}")
    if flat[0]:
        raise DegenerateSampleError("all observations are equal")

    if mask.n_known == fam.n_params:
        theta = np.array(mask.fixed_values, dtype=float)
        fam.check(tuple(theta))
        return FitResult(theta, 0, True, 0.0)

    thetas, iterations, converged = est(x[None, :])
    theta = thetas[0]
    if not np.all(np.isfinite(theta)):
        raise EstimationError(f"the {fam.name} {r.kind.value} estimating equations have no "
                              "finite solution on this sample")
    fam.check(tuple(theta))
    resid = _residual(r, theta, x)
    # ML contract: |sum_i score| <= 1e-8 n, i.e. the mean score <= 1e-8
    converged = bool(converged[0]) and not (
        r.kind is EstimatorKind.ML and resid > _SCORE_TOL * max(1.0, float(np.max(np.abs(x)))))
    return FitResult(theta, int(iterations[0]), converged, resid)
