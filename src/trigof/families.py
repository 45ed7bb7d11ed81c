"""Registry of the 32 null distribution families.

Each family carries its parameter names (in canonical order), parameter-space
validation, support, density, CDF, quantile, per-observation score function,
and an inverse-CDF sampler: ``_draws`` fills a block of samples, each row
from its own seed, with one quantile call per chunk of rows, the chunks
spread over the process's cores (``_in_parts``), and ``sample`` is its
one-row case.  Families are looked up by lowercase hyphenated
name, e.g. ``get_family("inverse-gaussian")``.  Every ``logpdf``,
``cdf_fn``, ``quantile_fn`` and ``score_fn`` broadcasts over theta components
given as columns of shape (rows, 1) (the score then has shape (p, rows, n)),
which is how the batch PIT and the scaling matrices evaluate a block of
fitted rows in one call.  They call ``scipy.special`` directly and raise
nothing for a row outside a function's domain, which reads NaN; the point
functions (``pdf``, ``cdf``, ``quantile``, ``score``, ``sample``) check
theta first.  Every quantile is a closed form but the inverse
Gaussian's, a safeguarded Newton iteration on its CDF.  The
symmetric families read each side of their quantile from its own tail
probability 2 min(u, 1 - u), so neither tail passes through a rounded 1 - u;
``Family.node`` (see "Nodes of the rule") does the same, and keeps the
centre, where the scaling matrices need it.

A family with an MM estimator declares its moment equation once, as
``Family.mm`` (a ``MomentEq``); the estimator over sample rows, the MM
residual, ``has_mm`` and ``mm_known`` all derive from it.  ``Family.shapes``
names the parameters the scaling covariance Sigma depends on; it is invariant
under the others, so ``scaling.sigma_from`` takes it with every other
parameter at 1, and a block whose shapes are all known shares one Sigma.

Sixteen families are a fixed monotone transform of another, their base, and
declare it as ``Family.derived``: the data transform (one of ``_DATA``), the
base component each parameter stands for through a shared table of maps
(``_MAPS``), and the base components held fixed; gumbel is exp-gamma on -x
with lambda = 1 and mu -> -mu.  Their density, CDF, quantile and score, ML fit,
Sigma, matrices, ``shapes`` and, unless they declare their own moment
equation, their MM rows come from the base; a base has no base of its own.
A derived family shares its transform's range: its callables fail where
data(x) does (x / (1 + x) rounds to 1 above 2**53, x**2 underflows below
about 1e-162).  The asymmetric power distribution used for local-alternative
sampling lives here as well (``apd_pdf`` / ``apd_cdf`` / ``sample_apd``), with
the score ``apd_score`` by which it embeds the EPD.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import special as sp

from .errors import ConfigurationError, DomainError

__all__ = [
    "Family", "get_family", "family_names", "pdf", "cdf", "quantile",
    "score", "sample", "apd_pdf", "apd_cdf", "apd_score", "sample_apd",
]

_TINY_U = 1e-15
# values per call of an inverse CDF in a block of draws, summed over the
# threads: its temporaries stay at 64 KiB, under glibc's 128 KiB threshold
# for serving them by mmap
_CHUNK = 2 ** 13
# threads over which a block's row-wise stages run (``_in_parts``): the cores
# this process may run on, 1 in a forked child
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = None
_POOL_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# Family container and dispatch helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEq:
    """The moment equation of a family's MM estimator.

    The sample ``stat``, "mean" or the mean squared ("msd") or absolute
    ("mad") deviation about the location, is matched to its model value
    s**q * num / den at scale s (the last parameter; q = 2 for "msd", else 1),
    with (num, den) = unit(*given) for the shapes ``given``, which the MM row
    requires known.  The location, the next-to-last parameter of an "msd" or
    "mad" family, is matched to the sample mean.
    """

    stat: str
    unit: Callable[..., tuple[float, float]]
    given: tuple[str, ...] = ()


@dataclass(frozen=True)
class Family:
    """One null family: parameter metadata plus distribution callables (a
    derived family's four are set by ``_register``)."""

    name: str
    param_names: tuple[str, ...]
    check: Callable[[tuple], None]
    support: Callable[[tuple], tuple[float, float]]
    logpdf: Optional[Callable[[tuple, np.ndarray], np.ndarray]] = None
    cdf_fn: Optional[Callable[[tuple, np.ndarray], np.ndarray]] = None
    quantile_fn: Optional[Callable[[tuple, np.ndarray], np.ndarray]] = None
    score_fn: Optional[Callable[[tuple, np.ndarray], np.ndarray]] = None
    mm: Optional[MomentEq] = None
    shapes: tuple[str, ...] = ()  # all Sigma depends on; derived: set by _register
    node: Optional[Callable[..., tuple]] = None  # see "Nodes of the rule"
    derived: Optional["Derived"] = None  # the family this one transforms

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def through(self, kind) -> Optional["Derived"]:
        """The declaration an (estimator ``kind``) row is taken through: every
        row of a derived family except an MM row on its own moment equation."""
        return None if kind == "mm" and self.mm is not None else self.derived

    @property
    def has_mm(self) -> bool:
        d = self.through("mm")
        return self.mm is not None if d is None else d.base.has_mm

    @property
    def mm_known(self) -> tuple[str, ...]:  # the parameters the MM row requires known
        d = self.through("mm")
        if d is None:
            return self.mm.given if self.mm is not None else ()
        return tuple(p for p, (b, _) in zip(self.param_names, d.params) if b in d.base.mm_known)


# a parameter -> the base component it stands for, its inverse and its derivative
ComponentMap = namedtuple("ComponentMap", "to back slope")
# data -> the base's data, its inverse, its sign and ln|d to / dx| in closed form
Transform = namedtuple("Transform", "to back sign log_slope")


_MAPS = {
    "same": ComponentMap(lambda t: t, lambda u: u, lambda t: 1.0),
    "neg": ComponentMap(lambda t: -t, lambda u: -u, lambda t: -1.0),
    "log": ComponentMap(np.log, np.exp, lambda t: 1.0 / t),
    "inv": ComponentMap(lambda t: 1.0 / t, lambda u: 1.0 / u, lambda t: -1.0 / t ** 2),
    "half": ComponentMap(lambda t: 0.5 * t, lambda u: 2.0 * u, lambda t: 0.5),
    "2sq": ComponentMap(lambda t: 2.0 * t ** 2, lambda u: np.sqrt(0.5 * u), lambda t: 4.0 * t),
}

_DATA = {
    "x": Transform(lambda x: x, lambda y: y, 1, lambda x: 0.0),
    "-x": Transform(np.negative, np.negative, -1, lambda x: 0.0),
    "ln x": Transform(np.log, np.exp, 1, lambda x: -np.log(x)),
    "1/x": Transform(lambda x: 1.0 / x, lambda y: 1.0 / y, -1, lambda x: -2.0 * np.log(x)),
    "x^2": Transform(np.square, np.sqrt, 1, lambda x: math.log(2.0) + np.log(x)),
    "x/(1+x)": Transform(lambda x: x / (1.0 + x), lambda y: y / (1.0 - y), 1,
                         lambda x: -2.0 * np.log1p(x)),
}


@dataclass(frozen=True)
class Derived:
    """A family that is a fixed monotone transform of its ``base``: X follows
    it at theta iff data.to(X) follows the base at ``to_base(theta)``, where
    parameter i stands for base component params[i][0] through the map
    _MAPS[params[i][1]] and the components ``fixed`` hold their values.
    ``data`` is an entry of ``_DATA``; its sign is -1 when it decreases.  The
    family's density, CDF, quantile and score are the base's through both
    (``_through``), so it shares the transform's range."""

    base: Family
    data: Transform
    params: tuple[tuple[str, str], ...]
    fixed: tuple[tuple[str, float], ...] = ()

    def base_values(self, values, known=None) -> dict:
        """{base component: value} of the fixed components and of the mapped
        ``values`` (aligned with the family's parameters) flagged ``known``."""
        out = dict(self.fixed)
        for i, (v, (b, m)) in enumerate(zip(values, self.params)):
            if known is None or known[i]:
                out[b] = _MAPS[m].to(v)
        return out

    def to_base(self, theta) -> tuple:
        return tuple(map(self.base_values(theta).get, self.base.param_names))

    def from_base(self, theta_b) -> np.ndarray:
        """The family's theta from the base's, a vector or rows (last axis)."""
        theta_b = np.asarray(theta_b, dtype=float)
        return np.stack([_MAPS[m].back(theta_b[..., self.base.param_names.index(b)])
                         for b, m in self.params], axis=-1)


def _through(d: Derived) -> dict:
    """The density, CDF, quantile and score of a derived family: its base's
    at data.to(x), the CDF and quantile mirrored for a decreasing transform,
    the density times |data'(x)|, and score row i the slope of parameter i's
    map times the base's row of the component it stands for."""
    b, tr = d.base, d.data
    flip = (lambda u: u) if tr.sign > 0 else (lambda u: 1.0 - u)
    rows = [(b.param_names.index(c), _MAPS[m].slope) for c, m in d.params]

    def score_fn(t, x):
        s = b.score_fn(d.to_base(t), tr.to(x))
        return np.stack([slope(v) * s[j] for v, (j, slope) in zip(t, rows)])

    return dict(
        logpdf=lambda t, x: b.logpdf(d.to_base(t), tr.to(x)) + tr.log_slope(x),
        cdf_fn=lambda t, x: flip(b.cdf_fn(d.to_base(t), tr.to(x))),
        quantile_fn=lambda t, u: tr.back(b.quantile_fn(d.to_base(t), flip(u))),
        score_fn=score_fn)


# ---------------------------------------------------------------------------
# Nodes of the rule.  The scaling matrices are integrals over the PIT u, whose
# nodes ``quadrature`` hands over as the distance p of u from the outer end of
# its half (u = p, or 1 - p on the upper half) and q from 1/2.  Where Q(u) or
# the score there lose p or q (1 - p rounds to 1 below p = 2**-53, a quantile
# that nears a finite upper end rounds to it, and x - mu rounds at a cusp
# where the score is singular) a family declares
# ``Family.node(theta, p, q, upper) -> (x, score at x)``, read from p and q
# themselves: epd and student-t mirror their two sides about mu, and beta and
# kumaraswamy write the upper half's point and score in 1 - x.  Every other
# family is read at Q(u).
# ---------------------------------------------------------------------------

def _mirrored(offset, score_fn):
    """The nodes of a family symmetric about mu: the point on u's side of mu
    at the distance offset(t, 2 p, 2 q), whose two-sided tail probability is
    2 p and central probability 2 q.  The score is taken at that distance
    from mu itself, which x - mu would round near the centre."""
    def node(t, p, q, upper):
        d = offset(t, 2.0 * p, 2.0 * q)
        d = d if upper else -d
        return t[1] + d, score_fn((t[0], 0.0, t[2]), d)
    return node


def _symmetric_quantile(offset):
    """Q(u) of a family symmetric about mu, each side read from its own tail
    probability 2 min(u, 1 - u)."""
    def quantile(t, u):
        p = 2.0 * np.minimum(u, 1.0 - u)
        return t[1] + np.sign(u - 0.5) * offset(t, p, 1.0 - p)
    return quantile


_REGISTRY: dict[str, Family] = {}


def _register(fam: Family) -> Family:
    d = fam.derived
    if d is not None:  # its shapes stand for the base's, its callables are the base's
        fam = replace(fam, shapes=tuple(
            p for p, (b, _) in zip(fam.param_names, d.params) if b in d.base.shapes), **_through(d))
    _REGISTRY[fam.name] = fam
    return fam


def family_names() -> list[str]:
    return list(_REGISTRY)


def get_family(fam) -> Family:
    if isinstance(fam, Family):
        return fam
    key = str(fam).strip().lower()
    if key not in _REGISTRY:
        raise DomainError(f"unknown family {fam!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def _theta(fam: Family, theta) -> tuple:
    t = tuple(float(v) for v in np.atleast_1d(np.asarray(theta, dtype=float)))
    if len(t) != fam.n_params:
        raise DomainError(
            f"{fam.name} takes {fam.n_params} parameter(s) {fam.param_names}, got {len(t)}")
    if not all(np.isfinite(t)):
        raise DomainError(f"parameters must be finite, got {t}")
    fam.check(t)
    return t


def pdf(fam, theta, x):
    """Density, vectorized in x; 0 outside the support, NaN at a NaN x."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    x = np.asarray(x, dtype=float)
    lo, hi = fam.support(t)
    xs = np.atleast_1d(x)
    out = np.where(np.isnan(xs), np.nan, 0.0)
    m = (xs > lo) & (xs < hi)
    if m.any():
        with np.errstate(over="ignore", under="ignore"):
            out[m] = np.exp(fam.logpdf(t, xs[m]))
    return out if x.shape else float(out[0])


def cdf(fam, theta, x):
    """CDF, vectorized in x; clamped to 0/1 outside the support, NaN at a NaN x."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    x = np.asarray(x, dtype=float)
    lo, hi = fam.support(t)
    xs = np.atleast_1d(x)
    out = np.where(np.isnan(xs), np.nan, np.where(xs >= hi, 1.0, 0.0))
    m = (xs > lo) & (xs < hi)
    if m.any():
        with np.errstate(over="ignore", under="ignore"):
            out[m] = np.clip(fam.cdf_fn(t, xs[m]), 0.0, 1.0)
    return out if x.shape else float(out[0])


def quantile(fam, theta, u):
    """Quantile function, with u clipped to [1e-15, 1 - 1e-15]."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    u = np.asarray(u, dtype=float)
    us = np.clip(np.atleast_1d(u), _TINY_U, 1.0 - _TINY_U)
    with np.errstate(over="ignore", under="ignore"):
        q = np.asarray(fam.quantile_fn(t, us), dtype=float)
    return q if u.shape else float(q[0])


def score(fam, theta, x):
    """Per-observation score d/dtheta ln f, shape (p, len(x))."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    if fam.score_fn is None:
        raise DomainError(f"score is not defined for the {fam.name} family")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = fam.support(t)
    if np.any(x <= lo) or np.any(x >= hi):
        raise DomainError(f"data outside the open support of {fam.name}")
    return np.asarray(fam.score_fn(t, x), dtype=float)


def _in_parts(fn, rows) -> list:
    """[fn(part) for part in parts], ``rows`` (an array) split along its
    first axis into one contiguous part per thread, at most one per row.

    Two or more parts run on a pool of _THREADS threads, created on the first
    such call, each in a copy of the caller's context; one part is a plain
    call.  numpy >= 2 keeps ``errstate`` in the context, numpy 1 per thread,
    so ``fn`` sets the ``errstate`` its own work needs.  numpy and
    scipy.special release the GIL inside their ufuncs, so ``fn`` gains where
    it spends its time there.  ``fn`` must read and write its own part
    alone, so that every part has the bits it would have in a block of its
    own, and must call no public function of the package: a tracer that
    wraps those (the benchmark's) keeps one span stack, for the calling
    thread.  A forked child runs serially: it inherits the pool but not its
    threads.  Its gain and CPU cost were measured on 2 cores only."""
    global _POOL
    parts = np.array_split(rows, max(1, min(_THREADS, len(rows))))
    if len(parts) == 1:
        return [fn(parts[0])]
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_THREADS, thread_name_prefix="trigof")
        futures = [_POOL.submit(contextvars.copy_context().run, fn, part) for part in parts]
    for f in futures:  # every part ends before an error of one is raised
        f.exception()
    return [f.result() for f in futures]


def _run_serially():
    global _POOL, _THREADS
    _POOL, _THREADS = None, 1


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_run_serially)


def _draws(inverse, n: int, seeds) -> np.ndarray:
    """The (len(seeds), n) block of inverse-CDF draws whose row r maps the
    uniforms np.random.default_rng(seeds[r]).random(n), clipped to
    [1e-15, 1 - 1e-15] as ``quantile`` clips them, through ``inverse``.

    ``inverse`` maps a (rows, n) array of u elementwise, each row on its
    own.  The block is split into one part of rows per thread
    (``_in_parts``), and each part is mapped in chunks of whole rows of at
    most _CHUNK / _THREADS values (one row where n is larger), written back
    into the block, so the threads hold one _CHUNK of values between them
    and a row's draws are the same bits in any block and on any number of
    threads.  ``sample`` and ``sample_apd`` are its one-row case."""
    if n < 1:
        raise DomainError("n must be >= 1")
    block = np.empty((len(seeds), n))
    for row, seed in zip(block, seeds):
        np.random.default_rng(seed).random(n, out=row)
    np.clip(block, _TINY_U, 1.0 - _TINY_U, out=block)
    step = max(1, _CHUNK // (n * _THREADS))

    def fill(part):
        with np.errstate(over="ignore", under="ignore"):
            for lo in range(0, len(part), step):
                chunk = part[lo:lo + step]
                chunk[...] = inverse(chunk)

    _in_parts(fill, block)
    return block


def _pow(A, e):
    """A ** e with one exponent per row of A (a vector or a column), spread
    over the row first: numpy squares, roots or inverts a one-row block whose
    column exponent is 2, 1/2 or -1 but calls pow on a block of several rows,
    so a row's bits would depend on its block.  A float e is used as it is."""
    if isinstance(e, float):
        return np.power(A, e)
    return np.power(A, np.repeat(e.reshape(-1, 1), A.shape[1], axis=1))


def _quantile_of(fam, theta):
    """The family's quantile at a checked theta, as a function of u."""
    fam = get_family(fam)
    t = _theta(fam, theta)
    return lambda u: fam.quantile_fn(t, u)


def sample(fam, theta, n: int, seed) -> np.ndarray:
    """n i.i.d. inverse-CDF draws, deterministic for a fixed seed: the
    one-row case of ``_draws``, whose row drawn from ``seed`` in any block is
    this sample, bit for bit."""
    return _draws(_quantile_of(fam, theta), n, (seed,))[0]


# ---------------------------------------------------------------------------
# Parameter-space checks
# ---------------------------------------------------------------------------

def _pos(*idx):
    def check(t):
        for i in idx:
            if t[i] <= 0.0:
                raise DomainError(f"parameter {i} must be > 0, got {t[i]}")
    return check


def _check_uniform(t):
    if not t[0] < t[1]:
        raise DomainError(f"uniform needs a < b, got {t}")


_REAL = lambda t: (-math.inf, math.inf)
_POSLINE = lambda t: (0.0, math.inf)
_UNIT = lambda t: (0.0, 1.0)


# ---------------------------------------------------------------------------
# EPD core (shared by epd / laplace / normal / half-epd / log-epd)
# ---------------------------------------------------------------------------

def _epd_lognorm(lam):
    # log of 2*lam^(1/lam-1)*Gamma(1/lam)
    return math.log(2.0) + (1.0 / lam - 1.0) * np.log(lam) + sp.gammaln(1.0 / lam)


def _epd_logpdf(t, x):
    lam, mu, sigma = t
    y = np.abs(x - mu) / sigma
    return -np.power(y, lam) / lam - np.log(sigma) - _epd_lognorm(lam)


def _epd_cdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    g = sp.gammainc(1.0 / lam, _pow(np.abs(y), lam) / lam)
    return 0.5 * (1.0 + np.sign(y) * g)


def _from_tail_or_centre(central, upper, params, p, c, tail):
    """A function of the probability beyond a point: central(*params, c) from
    the central probability c = 1 - p, and upper(*params, p) from the tail
    probability p itself where ``tail``, on the points where c would round."""
    shape = np.broadcast_shapes(*map(np.shape, params), np.shape(p))
    p, c, tail = (np.broadcast_to(v, shape) for v in (p, c, tail))
    g = np.empty(shape)
    for sel, f, prob in ((~tail, central, c), (tail, upper, p)):
        if sel.any():
            g[sel] = f(*(np.broadcast_to(v, shape)[sel] if np.ndim(v) else v for v in params),
                       prob[sel])
    return g


def _epd_offset(t, p, c):
    """The distance |x - mu| of the EPD points whose two-sided tail probability
    P(|X - mu| > |x - mu|) is p and central probability c = 1 - p."""
    lam, mu, sigma = t
    # inverting c holds the centre and costs a third of what inverting p does;
    # above p = 1e-4 its rounding as 1 - p moves |x - mu| by under 1e-14
    g = _from_tail_or_centre(sp.gammaincinv, sp.gammainccinv, (1.0 / lam,), p, c, p < 1e-4)
    return sigma * np.power(lam * g, 1.0 / lam)


def _epd_c1(lam):
    """c1 = psi(1/lam + 1) + ln lam, at a scalar lam or over theta rows."""
    return sp.digamma(1.0 / lam + 1.0) + np.log(lam)


def _epd_c2(lam):
    return math.exp(float(sp.gammaln(1.0 / lam)) - float(sp.gammaln(3.0 / lam))
                    - (2.0 / lam) * math.log(lam))


def _epd_score(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    ay = np.abs(y)
    w = np.power(ay, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        wlogw = np.where(ay > 0.0, w * lam * np.log(ay), 0.0)
    s_lam = (w - wlogw + _epd_c1(lam) - 1.0) / lam ** 2
    s_mu = np.power(ay, lam - 1.0) * np.sign(y) / sigma
    s_sigma = (w - 1.0) / sigma
    return np.stack([s_lam, s_mu, s_sigma])


_register(Family(
    name="epd",
    param_names=("lambda", "mu", "sigma"),
    check=_pos(0, 2),
    support=_REAL,
    logpdf=_epd_logpdf,
    cdf_fn=_epd_cdf,
    quantile_fn=_symmetric_quantile(_epd_offset),
    score_fn=_epd_score,
    mm=MomentEq("msd", lambda lam: (1.0, _epd_c2(lam)), ("lambda",)),
    shapes=("lambda",),
    node=_mirrored(_epd_offset, _epd_score),
))

_register(Family(
    name="laplace",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: -np.abs(x - t[0]) / t[1] - np.log(2.0 * t[1]),
    cdf_fn=lambda t, x: (lambda y: 0.5 * (1.0 + np.sign(y) * -np.expm1(-np.abs(y))))(
        (x - t[0]) / t[1]),
    quantile_fn=lambda t, u: np.where(
        u < 0.5, t[0] + t[1] * np.log(2.0 * u), t[0] - t[1] * np.log(2.0 * (1.0 - u))),
    score_fn=lambda t, x: np.stack([
        np.sign(x - t[0]) / t[1],
        (np.abs(x - t[0]) / t[1] - 1.0) / t[1]]),
    mm=MomentEq("msd", lambda: (1.0, 0.5)),
))

_register(Family(
    name="normal",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: -0.5 * ((x - t[0]) / t[1]) ** 2 - np.log(
        t[1] * math.sqrt(2.0 * math.pi)),
    cdf_fn=lambda t, x: sp.ndtr((x - t[0]) / t[1]),
    quantile_fn=lambda t, u: t[0] + t[1] * sp.ndtri(u),
    score_fn=lambda t, x: np.stack([
        (x - t[0]) / t[1] ** 2,
        (((x - t[0]) / t[1]) ** 2 - 1.0) / t[1]]),
    mm=MomentEq("msd", lambda: (1.0, 1.0)),
))


# ---------------------------------------------------------------------------
# exp-gamma family (log of a gamma variate) and its special case exp-Weibull,
# plus Gumbel
# ---------------------------------------------------------------------------

def _expgamma_logpdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    return lam * y - np.exp(y) - np.log(sigma) - sp.gammaln(lam)


def _expgamma_score(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    ey = np.exp(y)
    return np.stack([
        y - sp.digamma(lam),
        (ey - lam) / sigma,
        (y * ey - lam * y - 1.0) / sigma])


_register(Family(
    name="exp-gamma",
    param_names=("lambda", "mu", "sigma"),
    check=_pos(0, 2),
    support=_REAL,
    logpdf=_expgamma_logpdf,
    cdf_fn=lambda t, x: sp.gammainc(t[0], np.exp((x - t[1]) / t[2])),
    quantile_fn=lambda t, u: t[1] + t[2] * np.log(sp.gammaincinv(t[0], u)),
    score_fn=_expgamma_score,
    shapes=("lambda",),
))

_register(Family(
    name="exp-weibull",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    derived=Derived(_REGISTRY["exp-gamma"], _DATA["x"], (("mu", "same"), ("sigma", "same")),
                    (("lambda", 1.0),)),
))

_register(Family(
    name="gumbel",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    derived=Derived(_REGISTRY["exp-gamma"], _DATA["-x"], (("mu", "neg"), ("sigma", "same")),
                    (("lambda", 1.0),)),
))


# ---------------------------------------------------------------------------
# logistic and Student's t
# ---------------------------------------------------------------------------

_register(Family(
    name="logistic",
    param_names=("mu", "sigma"),
    check=_pos(1),
    support=_REAL,
    logpdf=lambda t, x: (lambda y: -y - 2.0 * np.log1p(np.exp(-y)) - np.log(t[1]))(
        (x - t[0]) / t[1]),
    cdf_fn=lambda t, x: sp.expit((x - t[0]) / t[1]),
    quantile_fn=lambda t, u: t[0] + t[1] * (np.log(u) - np.log1p(-u)),
    score_fn=lambda t, x: (lambda y, F: np.stack([
        (2.0 * F - 1.0) / t[1],
        (y * (2.0 * F - 1.0) - 1.0) / t[1]]))(
        (x - t[0]) / t[1], sp.expit((x - t[0]) / t[1])),
    mm=MomentEq("msd", lambda: (1.0, 3.0 / math.pi ** 2)),
))


def _student_logpdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    lnc = (sp.gammaln((lam + 1.0) / 2.0) - sp.gammaln(lam / 2.0)
           - 0.5 * np.log(lam * math.pi))
    return lnc - np.log(sigma) - 0.5 * (lam + 1.0) * np.log1p(y ** 2 / lam)


def _student_cdf(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    # 1 - I_w(lam/2, 1/2) at w = (1 + y^2/lam)^-1, computed without
    # cancellation through the symmetry of the incomplete beta.
    tail = sp.betainc(0.5, lam / 2.0, y ** 2 / (lam + y ** 2))
    return 0.5 * (1.0 + np.sign(y) * tail)


def _student_offset(t, p, c):
    """The distance |x - mu| of the Student-t points whose two-sided tail
    probability P(|X - mu| > |x - mu|) = I_w(lam/2, 1/2) is p and central
    probability I_(1-w)(1/2, lam/2) is c = 1 - p, w = lam / (lam + y^2):
    y^2 / lam = (1 - w) / w, read from c where w >= 1/2 (|y| <= sqrt(lam))
    and from p beyond, where 1 - w would round."""
    lam, mu, sigma = t
    r = _from_tail_or_centre(lambda a, c: (lambda v: v / (1.0 - v))(sp.betaincinv(0.5, a, c)),
                             lambda a, p: 1.0 / sp.betaincinv(a, 0.5, p) - 1.0,
                             (lam / 2.0,), p, c, p < sp.betainc(lam / 2.0, 0.5, 0.5))
    return sigma * np.sqrt(lam * r)


def _student_c2(lam):
    """E|T - mu| / sigma, the constant of the Student-t MM (which needs lambda > 2)."""
    if lam <= 2.0:
        raise ConfigurationError("Student-t MM requires lambda > 2")
    return math.sqrt(lam) * math.exp(float(sp.gammaln(0.5 * (lam - 1.0)))
                                     - float(sp.gammaln(0.5 * lam))) / math.sqrt(math.pi)


def _student_score(t, x):
    lam, mu, sigma = t
    y = (x - mu) / sigma
    y2 = y ** 2
    s_lam = 0.5 * (sp.digamma((lam + 1.0) / 2.0) - sp.digamma(lam / 2.0)
                   - 1.0 / lam - np.log1p(y2 / lam) + (lam + 1.0) * y2 / (lam * (lam + y2)))
    s_mu = (lam + 1.0) * y / (sigma * (lam + y2))
    s_sigma = ((lam + 1.0) * y2 / (lam + y2) - 1.0) / sigma
    return np.stack([s_lam, s_mu, s_sigma])


_register(Family(
    name="student-t",
    param_names=("lambda", "mu", "sigma"),
    check=_pos(0, 2),
    support=_REAL,
    logpdf=_student_logpdf,
    cdf_fn=_student_cdf,
    quantile_fn=_symmetric_quantile(_student_offset),
    score_fn=_student_score,
    mm=MomentEq("mad", lambda lam: (_student_c2(lam), 1.0), ("lambda",)),
    shapes=("lambda",),
    node=_mirrored(_student_offset, _student_score),
))


# ---------------------------------------------------------------------------
# log-delegating families on (0, inf)
# ---------------------------------------------------------------------------

for _base in map(_REGISTRY.get, ("epd", "laplace", "normal")):
    _register(Family(
        name="log-" + _base.name,
        param_names=_base.param_names,
        check=_base.check,
        support=_POSLINE,
        derived=Derived(_base, _DATA["ln x"], tuple((p, "same") for p in _base.param_names)),
    ))


# ---------------------------------------------------------------------------
# half-EPD and the generalized gamma block
# ---------------------------------------------------------------------------

def _halfepd_logpdf(t, x):
    lam, sigma = t
    w = x / sigma
    return -np.power(w, lam) / lam - np.log(sigma) - (_epd_lognorm(lam) - math.log(2.0))


def _halfepd_c2(lam):
    return math.exp(float(sp.gammaln(1.0 / lam)) - float(sp.gammaln(2.0 / lam))
                    - math.log(lam) / lam)


def _halfepd_score(t, x):
    lam, sigma = t
    w = x / sigma
    wl = np.power(w, lam)
    logwl = lam * np.log(w)
    return np.stack([
        (wl - wl * logwl + _epd_c1(lam) - 1.0) / lam ** 2,
        (wl - 1.0) / sigma])


_register(Family(
    name="half-epd",
    param_names=("lambda", "sigma"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=_halfepd_logpdf,
    cdf_fn=lambda t, x: sp.gammainc(1.0 / t[0], _pow(x / t[1], t[0]) / t[0]),
    quantile_fn=lambda t, u: t[1] * np.power(t[0] * sp.gammaincinv(1.0 / t[0], u), 1.0 / t[0]),
    score_fn=_halfepd_score,
    mm=MomentEq("mean", lambda lam: (1.0, _halfepd_c2(lam)), ("lambda",)),
    shapes=("lambda",),
))


_register(Family(
    name="gg",
    param_names=("lambda", "beta", "rho"),
    check=_pos(0, 1, 2),
    support=_POSLINE,
    derived=Derived(_REGISTRY["exp-gamma"], _DATA["ln x"],
                    (("lambda", "same"), ("mu", "log"), ("sigma", "inv"))),
))

_register(Family(
    name="weibull",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: _REGISTRY["gg"].logpdf((1.0,) + t, x),
    cdf_fn=lambda t, x: -np.expm1(-_pow(x / t[0], t[1])),
    quantile_fn=lambda t, u: t[0] * np.power(-np.log1p(-u), 1.0 / t[1]),
    score_fn=lambda t, x: _REGISTRY["gg"].score_fn((1.0,) + t, x)[1:],
))

_register(Family(
    name="frechet",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    derived=Derived(_REGISTRY["weibull"], _DATA["1/x"], (("beta", "inv"), ("rho", "same"))),
))

_register(Family(
    name="gompertz",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: np.log(t[0] * t[1]) + t[1] + t[0] * x - t[1] * np.exp(t[0] * x),
    cdf_fn=lambda t, x: -np.expm1(-t[1] * np.expm1(t[0] * x)),
    quantile_fn=lambda t, u: np.log1p(-np.log1p(-u) / t[1]) / t[0],
    score_fn=lambda t, x: (lambda e: np.stack([
        1.0 / t[0] + x - t[1] * x * e,
        1.0 / t[1] + 1.0 - e]))(np.exp(t[0] * x)),
    shapes=("rho",),
))

_register(Family(
    name="log-logistic",
    param_names=("beta", "rho"),
    check=_pos(0, 1),
    support=_POSLINE,
    derived=Derived(_REGISTRY["logistic"], _DATA["ln x"], (("mu", "log"), ("sigma", "inv"))),
))


# ---------------------------------------------------------------------------
# gamma-type families on (0, inf)
# ---------------------------------------------------------------------------

_register(Family(
    name="gamma",
    param_names=("lambda", "beta"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: ((t[0] - 1.0) * np.log(x) - x / t[1]
                         - sp.gammaln(t[0]) - t[0] * np.log(t[1])),
    cdf_fn=lambda t, x: sp.gammainc(t[0], x / t[1]),
    quantile_fn=lambda t, u: t[1] * sp.gammaincinv(t[0], u),
    score_fn=lambda t, x: np.stack([
        np.log(x / t[1]) - sp.digamma(t[0]),
        (x / t[1] - t[0]) / t[1]]),
    shapes=("lambda",),
))

_register(Family(
    name="inverse-gamma",
    param_names=("lambda", "beta"),
    check=_pos(0, 1),
    support=_POSLINE,
    derived=Derived(_REGISTRY["gamma"], _DATA["1/x"], (("lambda", "same"), ("beta", "inv"))),
))


_register(Family(
    name="lomax",
    param_names=("alpha", "sigma"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: np.log(t[0] / t[1]) - (t[0] + 1.0) * np.log1p(x / t[1]),
    cdf_fn=lambda t, x: -np.expm1(-t[0] * np.log1p(x / t[1])),
    quantile_fn=lambda t, u: t[1] * np.expm1(-np.log1p(-u) / t[0]),
    score_fn=lambda t, x: (lambda w: np.stack([
        1.0 / t[0] - np.log1p(w),
        ((t[0] + 1.0) * w / (1.0 + w) - 1.0) / t[1]]))(x / t[1]),
    shapes=("alpha",),
))

_register(Family(
    name="nakagami",
    param_names=("lambda", "omega"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=lambda t, x: (math.log(2.0) - sp.gammaln(t[0])
                         + t[0] * np.log(t[0] / t[1]) + (2.0 * t[0] - 1.0) * np.log(x)
                         - t[0] * x ** 2 / t[1]),
    cdf_fn=lambda t, x: sp.gammainc(t[0], t[0] * x ** 2 / t[1]),
    quantile_fn=lambda t, u: np.sqrt(t[1] * sp.gammaincinv(t[0], u) / t[0]),
    score_fn=lambda t, x: np.stack([
        np.log(t[0] / t[1]) + 1.0 - sp.digamma(t[0])
        + np.log(x ** 2) - x ** 2 / t[1],
        (t[0] / t[1]) * (x ** 2 / t[1] - 1.0)]),
    shapes=("lambda",),
))


def _ig_cdf_fn(t, x):
    mu, lam = t
    s = np.sqrt(lam / x)
    # exp(2 lam/mu) * Phi(-s(x/mu+1)) in log space to survive large lam/mu
    tail = np.exp(2.0 * lam / mu + sp.log_ndtr(-s * (x / mu + 1.0)))
    return sp.ndtr(s * (x / mu - 1.0)) + tail


def _ig_logpdf(t, x):
    return (0.5 * np.log(t[1] / (2.0 * math.pi)) - 1.5 * np.log(x)
            - t[1] * (x - t[0]) ** 2 / (2.0 * t[0] ** 2 * x))


def _ig_log_cdfs(t, x):
    """ln F(x) and ln(1 - F(x)), each without the other's rounding."""
    mu, lam = t
    s = np.sqrt(lam / x)
    mirror = 2.0 * lam / mu + sp.log_ndtr(-s * (x / mu + 1.0))
    above = sp.log_ndtr(-s * (x / mu - 1.0))
    return (np.logaddexp(sp.log_ndtr(s * (x / mu - 1.0)), mirror),
            above + np.log1p(-np.exp(mirror - above)))


def _ig_quantile(t, u):
    """Newton's method on ln F (ln(1 - F) above the median) in ln x, at most 8
    CDF evaluations per value, until every step of a row (the last axis of
    the broadcast theta and u) is within 1e-9.  Both are concave in ln x (ln X
    has a log-concave density), so after its first step the iteration closes in on
    the root from one side; a step that leaves the bracket of the points seen
    so far bisects it instead.  The start is the normal approximation to
    ln(X / mu), or in a tail the asymptote of the CDF there when that is
    nearer: F ~ 2 e^phi Phi(-sqrt(lam/x)), phi = lam / mu, as x -> 0, and
    1 - F ~ f(x) 2 mu^2 / lam as x -> inf."""
    mu, lam = t
    phi = lam / mu
    s2 = np.log1p(1.0 / phi)
    upper = u > 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        target = np.where(upper, np.log1p(-u), np.log(u))
        y = np.log(mu) - 0.5 * s2 + np.sqrt(s2) * sp.ndtri(u)
        # as x -> inf, ln(1 - F) -> ln f(x) + ln(2 mu^2 / lam), which lies above
        # it: the root of the limit, by fixed-point steps, is past the quantile
        k = 2.0 * mu ** 2 / lam
        x = np.exp(y)
        for _ in range(3):
            x = k * (0.5 * np.log(lam / (2.0 * math.pi)) + np.log(k) + phi - target
                     - 1.5 * np.log(x))
        far = x > 2.0 * mu  # where the limit holds
        y = np.where(upper, np.where(far, np.fmin(y, np.log(x)), y), np.maximum(
            y, np.log(lam) - 2.0 * np.log(-sp.ndtri(0.5 * u * np.exp(-phi)))))
        lo, hi = np.full(y.shape, -np.inf), np.full(y.shape, np.inf)
        moving = np.ones(y.shape[:-1] + (1,), dtype=bool)
        for _ in range(8):
            x = np.exp(y)
            lcdf = np.where(upper, *_ig_log_cdfs(t, x)[::-1])
            gap = lcdf - target
            high = (gap > 0.0) != upper  # x above the root
            hi = np.where(high, y, hi)
            lo = np.where(high, lo, y)
            step = gap * np.exp(lcdf - y - _ig_logpdf(t, x)) * np.where(upper, -1.0, 1.0)
            new = y - step
            inside = (new >= lo) & (new <= hi)
            new = np.where(inside, new, np.where(np.isfinite(lo) & np.isfinite(hi), 0.5 * (lo + hi),
                                                 y + np.where(high, -1.0, 1.0)))
            # each row (last axis) takes the step on which it closes and stops
            # there, so a row reads the same bits in any block
            y, moving = (np.where(moving, new, y),
                         moving & np.any(np.abs(new - y) > 1e-9, axis=-1, keepdims=True))
            if not moving.any():
                break
    return np.where(np.isfinite(target), np.exp(y), np.where(upper, np.inf, 0.0))


_register(Family(
    name="inverse-gaussian",
    param_names=("mu", "lambda"),
    check=_pos(0, 1),
    support=_POSLINE,
    logpdf=_ig_logpdf,
    cdf_fn=_ig_cdf_fn,
    quantile_fn=_ig_quantile,
    score_fn=lambda t, x: np.stack([
        t[1] * (x - t[0]) / t[0] ** 3,
        0.5 / t[1] - (x - t[0]) ** 2 / (2.0 * t[0] ** 2 * x)]),
    shapes=("mu", "lambda"),  # through lambda / mu
))


# ---------------------------------------------------------------------------
# one-parameter families on (0, inf)
# ---------------------------------------------------------------------------

_register(Family(
    name="exponential",
    param_names=("beta",),
    check=_pos(0),
    support=_POSLINE,
    mm=MomentEq("mean", lambda: (1.0, 1.0)),
    derived=Derived(_REGISTRY["gamma"], _DATA["x"], (("beta", "same"),), (("lambda", 1.0),)),
))

_register(Family(
    name="half-normal",
    param_names=("delta",),
    check=_pos(0),
    support=_POSLINE,
    mm=MomentEq("mean", lambda: (1.0, math.sqrt(math.pi / 2.0))),
    derived=Derived(_REGISTRY["gamma"], _DATA["x^2"], (("beta", "2sq"),), (("lambda", 0.5),)),
))

_register(Family(
    name="rayleigh",
    param_names=("delta",),
    check=_pos(0),
    support=_POSLINE,
    mm=MomentEq("mean", lambda: (1.0, math.sqrt(2.0 / math.pi))),
    derived=Derived(_REGISTRY["gamma"], _DATA["x^2"], (("beta", "2sq"),), (("lambda", 1.0),)),
))

_register(Family(
    name="maxwell-boltzmann",
    param_names=("delta",),
    check=_pos(0),
    support=_POSLINE,
    mm=MomentEq("mean", lambda: (1.0, math.sqrt(math.pi / 8.0))),
    derived=Derived(_REGISTRY["gamma"], _DATA["x^2"], (("beta", "2sq"),), (("lambda", 1.5),)),
))

_register(Family(
    name="chi-squared",
    param_names=("k",),
    check=_pos(0),
    support=_POSLINE,
    mm=MomentEq("mean", lambda: (1.0, 1.0)),
    derived=Derived(_REGISTRY["gamma"], _DATA["x"], (("lambda", "half"),), (("beta", 2.0),)),
))


# ---------------------------------------------------------------------------
# Pareto on (1, inf); beta and Kumaraswamy on (0, 1), beta-prime (beta on
# x / (1 + x)); uniform on (a, b)
# ---------------------------------------------------------------------------

_register(Family(
    name="pareto",
    param_names=("alpha",),
    check=_pos(0),
    support=lambda t: (1.0, math.inf),
    derived=Derived(_REGISTRY["gamma"], _DATA["ln x"], (("beta", "inv"),), (("lambda", 1.0),)),
))


def _beta_logpdf(t, x):
    a, b = t
    lnB = sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b)
    return (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - lnB


def _beta_score(t, lx, l1x):
    """The beta score from ln x and ln(1 - x)."""
    psum = sp.digamma(t[0] + t[1])
    return np.stack([psum - sp.digamma(t[0]) + lx, psum - sp.digamma(t[1]) + l1x])


def _beta_node(t, p, q, upper):
    # on the upper half, y = 1 - x: 1 - X is beta(beta, alpha)
    y = sp.betaincinv(*((t[1], t[0]) if upper else t[:2]), p)
    ly, l1y = np.log(y), np.log1p(-y)
    if upper:
        return 1.0 - y, _beta_score(t, l1y, ly)
    return y, _beta_score(t, ly, l1y)


def _kumaraswamy_score(t, lx, xa, w, lw):
    """The Kumaraswamy score from ln x, x**alpha, w = 1 - x**alpha and ln w."""
    return np.stack([1.0 / t[0] + lx - (t[1] - 1.0) * xa * lx / w, 1.0 / t[1] + lw])


def _kumaraswamy_node(t, p, q, upper):
    lw = (np.log(p) if upper else np.log1p(-p)) / t[1]  # ln(1 - x**alpha) = ln(1 - u) / beta
    xa, w = -np.expm1(lw), np.exp(lw)
    lx = (np.log1p(-w) if upper else np.log(xa)) / t[0]  # from the smaller of w and x**alpha
    return np.exp(lx), _kumaraswamy_score(t, lx, xa, w, lw)


_register(Family(
    name="beta",
    param_names=("alpha", "beta"),
    check=_pos(0, 1),
    support=_UNIT,
    logpdf=_beta_logpdf,
    cdf_fn=lambda t, x: sp.betainc(t[0], t[1], x),
    quantile_fn=lambda t, u: sp.betaincinv(t[0], t[1], u),
    score_fn=lambda t, x: _beta_score(t, np.log(x), np.log1p(-x)),
    shapes=("alpha", "beta"),
    node=_beta_node,
))

_register(Family(
    name="beta-prime",
    param_names=("alpha", "beta"),
    check=_pos(0, 1),
    support=_POSLINE,
    derived=Derived(_REGISTRY["beta"], _DATA["x/(1+x)"], (("alpha", "same"), ("beta", "same"))),
))

_register(Family(
    name="kumaraswamy",
    param_names=("alpha", "beta"),
    check=_pos(0, 1),
    support=_UNIT,
    # x**alpha as exp(alpha ln x), as the score has it: numpy's power rounds
    # a per-row exponent of 2 apart from a scalar one
    logpdf=lambda t, x: (np.log(t[0] * t[1]) + (t[0] - 1.0) * np.log(x)
                         + (t[1] - 1.0) * np.log(-np.expm1(t[0] * np.log(x)))),
    cdf_fn=lambda t, x: -np.expm1(t[1] * np.log1p(-_pow(x, t[0]))),
    quantile_fn=lambda t, u: np.power(-np.expm1(np.log1p(-u) / t[1]), 1.0 / t[0]),
    score_fn=lambda t, x: (lambda alx: _kumaraswamy_score(
        t, np.log(x), np.exp(alx), -np.expm1(alx), np.log(-np.expm1(alx))))(t[0] * np.log(x)),
    shapes=("beta",),
    node=_kumaraswamy_node,
))

_register(Family(
    name="uniform",
    param_names=("a", "b"),
    check=_check_uniform,
    support=lambda t: (t[0], t[1]),
    logpdf=lambda t, x: np.zeros_like(x) - np.log(t[1] - t[0]),
    cdf_fn=lambda t, x: (x - t[0]) / (t[1] - t[0]),
    quantile_fn=lambda t, u: t[0] + (t[1] - t[0]) * u,
    score_fn=None,
))


# ---------------------------------------------------------------------------
# Asymmetric power distribution (local-alternative sampling)
# ---------------------------------------------------------------------------

def _apd_check(lam, alpha, rho, mu, sigma):
    if not (lam > 0 and rho > 0 and sigma > 0 and 0.0 < alpha < 1.0):
        raise DomainError("APD needs lam, rho, sigma > 0 and alpha in (0, 1)")


def _apd_delta(alpha, rho):
    return 2.0 * alpha ** rho * (1.0 - alpha) ** rho / (alpha ** rho + (1.0 - alpha) ** rho)


def apd_pdf(x, lam, alpha, rho, mu, sigma):
    """Density of the asymmetric power distribution."""
    _apd_check(lam, alpha, rho, mu, sigma)
    x = np.asarray(x, dtype=float)
    y = (x - mu) / sigma
    delta = _apd_delta(alpha, rho)
    a_side = np.where(y < 0, alpha ** rho, (1.0 - alpha) ** rho)
    a_side = np.where(y == 0, 0.5 ** rho, a_side)
    lognorm = (math.log(rho) + math.log(delta / lam) / rho
               - math.log(sigma) - float(sp.gammaln(1.0 / rho)))
    return np.exp(lognorm - (delta / (lam * a_side)) * np.abs(y) ** rho)


def apd_score(x, lam, alpha, rho, mu, sigma):
    """The APD's score in (alpha, rho), shape (2,) + x.shape: the extra score
    by which the APD embeds EPD(rho) at alpha = 1/2, rho = lam."""
    _apd_check(lam, alpha, rho, mu, sigma)
    y = (np.asarray(x, dtype=float) - mu) / sigma
    la, lb = math.log(alpha), math.log1p(-alpha)
    p, q = alpha ** rho, (1.0 - alpha) ** rho
    delta = 2.0 * p * q / (p + q)
    dlnd_a = rho * (alpha ** (rho - 1.0) - (1.0 - alpha) ** (rho - 1.0)) / (p + q)  # of ln(p + q)
    dlnd_r = (p * la + q * lb) / (p + q)
    neg = y < 0.0
    # the exponent is c |y|^rho, c = delta / (lam * side) = 2 (q or p) / (lam (p + q))
    c = np.where(neg, 2.0 * q, 2.0 * p) / (lam * (p + q))
    w = np.abs(y) ** rho
    with np.errstate(divide="ignore", invalid="ignore"):
        wlog = np.where(y != 0.0, w * np.log(np.abs(y)), 0.0)
    s_alpha = ((rho / alpha - rho / (1.0 - alpha) - dlnd_a) / rho
               - c * w * (np.where(neg, -rho / (1.0 - alpha), rho / alpha) - dlnd_a))
    s_rho = (1.0 / rho - (math.log(delta / lam) - rho * (la + lb - dlnd_r)) / rho ** 2
             + float(sp.digamma(1.0 / rho)) / rho ** 2
             - c * (w * (np.where(neg, lb, la) - dlnd_r) + wlog))
    return np.stack(np.broadcast_arrays(s_alpha, s_rho))


def apd_cdf(x, lam, alpha, rho, mu, sigma):
    """CDF of the asymmetric power distribution (closed form)."""
    _apd_check(lam, alpha, rho, mu, sigma)
    x = np.asarray(x, dtype=float)
    y = (x - mu) / sigma
    delta = _apd_delta(alpha, rho)
    neg = y < 0
    out = np.empty_like(y)
    gy = np.abs(y) ** rho * delta / lam
    out[neg] = alpha * (1.0 - sp.gammainc(
        1.0 / rho, gy[neg] / alpha ** rho))
    pos = ~neg
    out[pos] = alpha + (1.0 - alpha) * sp.gammainc(
        1.0 / rho, gy[pos] / (1.0 - alpha) ** rho)
    return out


def _apd_quantile(lam, alpha, rho, mu, sigma):
    """The APD's quantile, as a function of u, from its exact mixture
    representation: the sign is negative with probability alpha, and
    |Y| / side-scale transforms to a gamma(1/rho) variate, inverted in
    closed form."""
    _apd_check(lam, alpha, rho, mu, sigma)
    delta = _apd_delta(alpha, rho)

    def quantile(u):
        neg = u < alpha
        # conditional PIT within each side keeps the draw a pure inverse-CDF map
        v = np.where(neg, 1.0 - u / alpha, (u - alpha) / (1.0 - alpha))
        g = sp.gammaincinv(1.0 / rho, v)
        scale = np.where(neg, -alpha, 1.0 - alpha)
        return mu + sigma * (scale * np.power(lam * g / delta, 1.0 / rho))
    return quantile


def sample_apd(lam, alpha, rho, mu, sigma, n: int, seed) -> np.ndarray:
    """n i.i.d. inverse-CDF draws from APD(lam, alpha, rho, mu, sigma): the
    one-row case of ``_draws`` through ``_apd_quantile``."""
    return _draws(_apd_quantile(lam, alpha, rho, mu, sigma), n, (seed,))[0]
