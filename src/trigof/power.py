"""Asymptotic and empirical power under local alternatives, from one
registry of embeddings.

Each entry of ``EMBEDDINGS`` embeds a null row in a larger family whose
extra parameters drift at rate delta / sqrt(n); ``nest`` builds each entry
that holds one parameter of a registered family at s0, and checks by name
that the null's parameters are the larger family's others.  The statistic
then converges to a noncentral chi-square(2) with noncentrality
delta^T M^T Sigma^-1 M delta: Sigma is the null row's own scaling
covariance (``scaling.sigma_from`` at theta0), and the drift direction

    M = E[tau e^T] - G C^-1 E[psi e^T]

(Le Cam's third lemma) sums, by ``scaling.drift``, the embedding's extra
score e at the null against the null row's G, C and psi: the first term
moves the PIT, the second the fitted theta.  A curve takes Sigma and M once
and sums each tail as one Poisson mixture (``noncentral_chi2_sf``); an
empirical power draws every replication from one drifted quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special as sp

from . import families, scaling
from .errors import ConfigurationError, DomainError
from .estimate import EstimatorKind, KnownMask, row
from .gof import rejection_rate, replicate

__all__ = ["EMBEDDINGS", "Embedding", "AltCase", "LocalAlternative", "PowerPoint",
           "at_shapes", "sigma_and_drift", "noncentrality", "noncentral_chi2_sf",
           "power_curve", "empirical_power", "nest"]


@dataclass(frozen=True)
class Embedding:
    """A null row inside a larger family, declared as data."""
    null: str  # the null family
    kinds: tuple  # the estimators its row may use
    known: tuple  # null parameters held known at theta0's values
    score: Callable  # e(theta, x): the embedding's extra score at delta = 0, rows
    drifted: Callable  # (theta, delta / sqrt(n)) -> the embedding's quantile there
    theta0: tuple  # where M is taken, its shapes read from the given theta0
    grid: str  # the CLI's default --delta grid
    dim: int = 1  # the drift's dimension


def nest(null, larger, name, s0, theta0, grid) -> Embedding:
    """``null`` as ``larger`` with parameter ``name`` held at s0 and drifted to
    s0 + delta/sqrt(n), its extra score larger's score row of ``name``.
    ConfigurationError unless null's parameters are larger's others, in order."""
    names = families.get_family(larger).param_names
    others = tuple(p for p in names if p != name)
    if others == names or families.get_family(null).param_names != others:
        raise ConfigurationError(f"{null} is not {larger} {names} with {name!r} held")
    i = names.index(name)
    at = lambda t, v: t[:i] + (v,) + t[i:]  # noqa: E731
    return Embedding(null, ("ml",), (),
                     lambda t, x: families.get_family(larger).score_fn(at(t, s0), x)[i:i + 1],
                     lambda t, s: families._quantile_of(larger, at(t, s0 + s[0])), theta0, grid)


# The paper's three examples, then three nestings that need no family code.
# ``nest`` builds and checks, by parameter name, all but EPD-in-APD: the APD
# is not a registered family.
EMBEDDINGS = {
    "gamma": nest("gamma", "gg", "rho", 1.0, (1.0, 1.0), "0:30:0.5"),
    "weibull": nest("weibull", "gg", "lambda", 1.0, (1.0, 1.0), "0:40:0.5"),
    # EPD(lambda, mu, sigma), lambda known, = APD(lambda, 1/2, lambda, mu, sigma),
    # (alpha, rho) = (1/2, lambda) + delta/sqrt(n)
    "epd": Embedding("epd", ("ml", "mm"), ("lambda",),
                     lambda t, x: families.apd_score(x, t[0], 0.5, t[0], t[1], t[2]),
                     lambda t, s: families._apd_quantile(t[0], 0.5 + s[0], t[0] + s[1], *t[1:]),
                     (1.0, 0.0, 1.0), "0:3.5:0.05", dim=2),
    "exponential-in-weibull": nest("exponential", "weibull", "rho", 1.0, (1.0,), "0:5:0.1"),
    "exponential-in-gamma": nest("exponential", "gamma", "lambda", 1.0, (1.0,), "0:8:0.2"),
    "normal-in-epd": nest("normal", "epd", "lambda", 2.0, (0.0, 1.0), "0:24:0.5"),
}

AltCase = Enum("AltCase", [(k.upper().replace("-", "_"), k) for k in EMBEDDINGS], type=str)


def _entry(case) -> Embedding:
    return EMBEDDINGS[AltCase(case).value]


@dataclass(frozen=True)
class LocalAlternative:
    case: AltCase
    theta0: tuple
    delta: tuple  # one coordinate per drifted parameter of the embedding
    kind: EstimatorKind = EstimatorKind.ML
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        case = AltCase(self.case).value
        e = EMBEDDINGS[case]
        if len(self.delta) != e.dim:
            raise DomainError(f"the {case} case takes {e.dim} drift coordinate(s)")
        if EstimatorKind(self.kind).value not in e.kinds:
            raise ConfigurationError(f"the {case} case is {'/'.join(e.kinds).upper()}-only")


@dataclass(frozen=True)
class PowerPoint:
    delta: tuple
    ncp: float
    power: float


def _mask(e: Embedding, theta0) -> Optional[KnownMask]:
    values = dict(zip(families.get_family(e.null).param_names, theta0))
    return KnownMask.from_names(e.null, {k: values[k] for k in e.known}) if e.known else None


def at_shapes(case, theta0) -> tuple:
    """The entry's theta0 with the null's shapes read from ``theta0``."""
    e = _entry(case)
    fam = families.get_family(e.null)
    return tuple(float(v if p in fam.shapes else u)
                 for p, v, u in zip(fam.param_names, theta0, e.theta0))


def sigma_and_drift(case, theta0, kind=EstimatorKind.ML):
    """Sigma of the null row at theta0 and the drift M, 2 x dim.  Both depend
    on theta0 only through the null's shapes; M is taken at ``at_shapes``."""
    e, at = _entry(case), at_shapes(case, theta0)
    r = row(e.null, kind, _mask(e, at))
    return (scaling.sigma_from(r, r.kind, theta0, r.mask),
            scaling.drift(r, r.kind, at, r.mask, lambda _, x: e.score(at, x)))


def _ncp(sig, m, delta) -> float:
    v = m @ np.asarray(delta, dtype=float)
    return float(v @ np.linalg.solve(sig, v))


def noncentrality(alt: LocalAlternative) -> float:
    """delta^T M^T Sigma^-1 M delta, Sigma that of the null row at theta0."""
    return _ncp(*sigma_and_drift(alt.case, alt.theta0, alt.kind), alt.delta)


def noncentral_chi2_sf(df: int, ncp: float, t: float) -> float:
    """Survival function P(X > t) of X ~ chi2_df(ncp), summed at once as the
    Poisson mixture sum_k w_k Q(df/2 + k, x): x = t/2, w_k the Poisson(h)
    weights at h = ncp/2, Q the regularized upper incomplete gamma.  k runs
    from h - 9 sqrt h (or 0) to the lesser of 2h + sqrt(2hx) + 46 and
    h + 39 sqrt h + 500, ends floored.  Below it the Poisson mass is under
    exp(-81/2) = 3e-18 (Chernoff) and Q grows with k, so the terms it drops
    weigh under 3e-18 of the sum.  A tiny tail (x >> h) has its terms peak
    near sqrt(hx), above the mode; as Q(b + 1, x) <= (1 + x/b) Q(b, x) for
    b >= 1, from 2h + sqrt(2hx) on each term is at most half the one before,
    so the 46 kept past it leave under 2^-45 of the sum.  Past h + 39 sqrt h
    + 500 the Poisson mass is under e^-745 (Chernoff), below the least double.
    The weights, scaled by the largest, are divided by their own sum, which
    cancels the rounding common to every term.  Against mpmath (60 digits) at
    df 1-4, ncp 0.01-2000 and tails 0.5-1e-250 it reads within 2.4e-13
    relative, at worst where the tail is tiny."""
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise DomainError(f"df must be a positive integer, got {df!r}")
    if not (np.isfinite(ncp) and ncp >= 0.0):
        raise DomainError(f"ncp must be finite and >= 0, got {ncp!r}")
    if not (np.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    if t == 0.0:
        return 1.0
    x, h = 0.5 * t, 0.5 * ncp
    if h == 0.0:
        return float(sp.gammaincc(0.5 * df, x))
    k = np.arange(max(0, math.floor(h - 9.0 * math.sqrt(h))),
                  min(math.floor(2.0 * h + math.sqrt(2.0 * h * x)) + 47,
                      math.floor(h + 39.0 * math.sqrt(h)) + 501))
    log_w = k * math.log(h) - sp.gammaln(k + 1.0)
    w = np.exp(log_w - log_w.max())
    return float(min(max(w @ sp.gammaincc(0.5 * df + k, x) / w.sum(), 0.0), 1.0))


def power_curve(case, theta0, deltas: Sequence, alpha: float = 0.05,
                kind=EstimatorKind.ML) -> list[PowerPoint]:
    """Asymptotic power along a drift grid (each entry the drift's
    coordinates, or a real number) at the chi-square(2) level-alpha
    threshold q = -2 ln(alpha)."""
    alts = [LocalAlternative(AltCase(case), tuple(theta0),
                             tuple(np.atleast_1d(np.asarray(d, dtype=float))),
                             EstimatorKind(kind), alpha) for d in deltas]
    sig, m = sigma_and_drift(case, theta0, kind)
    q = -2.0 * math.log(alpha)
    ncps = [_ncp(sig, m, alt.delta) for alt in alts]
    return [PowerPoint(alt.delta, ncp, noncentral_chi2_sf(2, ncp, q))
            for alt, ncp in zip(alts, ncps)]


def empirical_power(alt: LocalAlternative, n: int, reps: int, seed: int) -> dict:
    """Finite-n rejection rate sampling from the alternative drifted by
    exactly delta / sqrt(n).  Replication r draws its sample from the key
    (seed, r); ``gof.replicate`` draws and tests a block of them at a time.
    Returns the rate and its binomial standard error over the replications
    that did not fail (``gof.rejection_rate``: NaN if every one failed), and
    the failed count."""
    e = _entry(alt.case)
    inverse = e.drifted(tuple(alt.theta0), tuple(d / math.sqrt(n) for d in alt.delta))
    q = -2.0 * math.log(alt.alpha)
    tn = replicate(e.null, alt.kind, _mask(e, alt.theta0), n,
                   lambda rs: families._draws(
                       inverse, n, [np.random.SeedSequence([seed, r]) for r in rs]),
                   range(reps))
    failed = int(np.count_nonzero(np.isnan(tn)))
    rate, se = rejection_rate(int(np.count_nonzero(tn > q)), reps - failed)
    return {"rate": rate, "se": se, "reps": reps, "failed": failed}
