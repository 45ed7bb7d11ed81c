"""The scalar ML fitters that ``estimate`` used before every fitter was
written once over sample rows, kept as the reference the row profiles are
checked against.

``_scan_root`` is the centre-out bracket scan refined by ``brentq``;
``_FITTERS`` holds the 13 per-family fitters on one sample, ``_dedicated``
reaches them through a derived family's base and ``_generic_ml`` is the
Nelder-Mead maximization the masks without a fitter fell back to.
``former_fit`` is the former ``estimate.fit`` on an ML row, and ``scan_gap``
the former gap search of the EPD location below lam = 1.  The three
batch-only kernels the block fits used (``_fit_gamma_batch``,
``_fit_weibull_batch``, ``_fit_epd_lam_known_batch``) are at the end.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize as opt
from scipy import special as sp
from scipy.special import logsumexp

from trigof.errors import DomainError, EstimationError
from trigof.estimate import (_ML_ROWS, _SCORE_TOL, EstimatorKind, FitResult, KnownMask,
                             _columns, _residual, rejected_rows, row)
from trigof.families import Family, get_family

_STEP_TOL = 1e-10
_MAX_ITER = 200
_SHAPE_CAP = 1e6


def _epd_c1(lam):
    """c1 = psi(1/lam + 1) + ln lam at a scalar lam, with libm's log."""
    return float(sp.digamma(1.0 / lam + 1.0)) + math.log(lam)


def _scan_root(phi, scale: float = 1.0, lo: float = 1e-3, hi: float = 1e3,
               points: int = 41):
    """Find a root of phi on a geometric grid around ``scale``.

    Returns (root, iterations, converged).  The grid is evaluated outward
    from its centre point (c, c+1, c-1, c+2, ...) and the scan stops at the
    first cell that the newest evaluation completes and that holds an exact
    zero at its lower end or a sign change, which Brent's method then
    refines: the bracket nearest the grid centre wins; ties go upward.
    Expands the grid geometrically twice if no cell brackets a root; if
    there is still none, returns the grid point of smallest |phi| with
    converged=False.
    """
    spans = [(lo, hi), (lo * 1e-2, hi * 1e2), (lo * 1e-5, hi * 1e5)]
    c = points // 2
    order = sorted(range(points), key=lambda i: (abs(i - c), i < c))
    best_x, best_val = None, math.inf
    iters = 0
    with np.errstate(all="ignore"):
        for span_lo, span_hi in spans:
            grid = scale * np.geomspace(span_lo, span_hi, points)
            vals = np.full(points, math.nan)
            for i in order:
                try:
                    vals[i] = phi(grid[i])
                except (FloatingPointError, OverflowError, DomainError, ValueError):
                    vals[i] = math.nan
                iters += 1
                if np.isfinite(vals[i]) and abs(vals[i]) < best_val:
                    best_val, best_x = abs(vals[i]), grid[i]
                if i == c:
                    continue
                j = i - 1 if i > c else i  # the cell (j, j+1) this evaluation completes
                if not (np.isfinite(vals[j]) and np.isfinite(vals[j + 1])):
                    continue
                if vals[j] == 0.0:
                    return grid[j], iters, True
                if np.sign(vals[j]) * np.sign(vals[j + 1]) < 0:
                    root, res = opt.brentq(phi, grid[j], grid[j + 1], xtol=1e-13,
                                           rtol=8.9e-16, maxiter=_MAX_ITER,
                                           full_output=True)
                    return root, iters + res.iterations, res.converged
    if best_x is None:
        raise EstimationError("score equation could not be evaluated on the bracket grid")
    return best_x, iters, False


def _solve_digamma_minus_log(target: float):
    """Solve psi(z) - ln(z) = target (target < 0); monotone increasing in z."""
    if target >= 0.0:
        return _SHAPE_CAP, 0, False

    def phi(z):
        return float(sp.digamma(z)) - math.log(z) - target

    # psi(z)-ln(z) ~ -1/(2z) large z; ~ -1/z small z: analytic starting bracket
    lo = min(0.5 / -target, 1e-8)
    hi = max(1.0 / -target, 1.0)
    while phi(hi) < 0.0 and hi < 1e15:
        hi *= 4.0
    while phi(lo) > 0.0 and lo > 1e-300:
        lo /= 4.0
    if phi(hi) < 0.0:
        return _SHAPE_CAP, 0, False
    root, res = opt.brentq(phi, lo, hi, xtol=1e-13, rtol=8.9e-16, full_output=True)
    return root, res.iterations, res.converged


def _solve_digamma(target: float):
    """Solve psi(z) = target over z > 0 (monotone increasing)."""
    def phi(z):
        return float(sp.digamma(z)) - target

    hi = max(math.exp(target) + 1.0, 1.0)
    while phi(hi) < 0.0 and hi < 1e300:
        hi *= 4.0
    lo = min(1.0, 1.0 / (1.0 - target)) if target < 0 else 1.0
    while phi(lo) > 0.0 and lo > 1e-300:
        lo /= 4.0
    root, res = opt.brentq(phi, lo, hi, xtol=1e-13, rtol=8.9e-16, full_output=True)
    return root, res.iterations, res.converged


def _wmean_exp(values, logw):
    """Weighted mean of ``values`` with weights exp(logw), overflow-safe."""
    m = np.max(logw)
    w = np.exp(logw - m)
    return float(np.sum(values * w) / np.sum(w))


# ---------------------------------------------------------------------------
# per-family fitting routines
#
# Each routine receives the data and the mask and returns
# (theta tuple, iterations, converged) or None to fall through to the
# generic likelihood maximizer.
# ---------------------------------------------------------------------------

def scan_gap(x, lam):
    """The gap search that ``estimate._epd_mu_hat`` ran for lam < 1 before
    its branch-and-bound: the index j of the gap (xs[j], xs[j+1]) of the
    distinct values whose midpoint gives the smallest sum |x - c|^lam, the
    first on ties, from the objective at every midpoint."""
    xs = np.unique(x)
    mids = 0.5 * (xs[:-1] + xs[1:])
    return int(np.argmin([float(np.sum(np.abs(x - c) ** lam)) for c in mids]))


def _epd_mu_hat(x, lam):
    """Location solving sum sign(x-mu)|x-mu|^(lam-1) = 0 (the mu ML equation)."""
    lo, hi = float(np.min(x)), float(np.max(x))

    def g(mu):
        d = x - mu
        return float(np.sum(np.sign(d) * np.abs(d) ** (lam - 1.0)))

    if lam >= 1.0:
        # g is continuous and strictly decreasing: a single bracketed root
        res = opt.brentq(g, lo, hi, xtol=1e-12 * max(1.0, abs(hi - lo)), full_output=True)
        return res[0], res[1].iterations
    # lam < 1: g blows up at every observation, with one root per gap; take
    # the consistent root of the estimating equation in the gap with the
    # smallest profiled objective (global maximization is degenerate here)
    xs = np.unique(x)
    if len(xs) == 1:
        return float(xs[0]), 1
    mids = 0.5 * (xs[:-1] + xs[1:])
    obj = np.array([float(np.sum(np.abs(x - m) ** lam)) for m in mids])
    best = int(np.argmin(obj))
    a = np.nextafter(xs[best], xs[best + 1])
    b = np.nextafter(xs[best + 1], xs[best])
    if g(a) <= 0.0:
        return float(a), len(mids)
    if g(b) >= 0.0:
        return float(b), len(mids)
    res = opt.brentq(g, a, b, xtol=1e-13 * max(1.0, hi - lo), full_output=True)
    return res[0], res[1].iterations + len(mids)


def _fit_epd(fam, x, mask):
    mu_known = mask.is_known(fam, "mu")
    sigma_known = mask.is_known(fam, "sigma")
    iters = 0

    def inner(lam):
        nonlocal iters
        if mu_known:
            mu = mask.value(fam, "mu")
        else:
            mu, it = _epd_mu_hat(x, lam)
            iters += it
        a = np.abs(x - mu)
        if sigma_known:
            sigma = mask.value(fam, "sigma")
        else:
            sigma = float(np.mean(a ** lam)) ** (1.0 / lam)
        return mu, sigma

    def lam_eq(lam):
        mu, sigma = inner(lam)
        w = (np.abs(x - mu) / sigma) ** lam
        pos = w > 0.0
        val = _epd_c1(lam) - float(np.mean(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0)))
        if sigma_known:
            val += float(np.mean(w)) - 1.0
        return val

    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        mu, sigma = inner(lam)
        return (lam, mu, sigma), iters + 1, True
    lam, it, conv = _scan_root(lam_eq)
    iters += it
    mu, sigma = inner(lam)
    return (lam, mu, sigma), iters, conv


def _fit_expgamma(fam, x, mask):
    lam_known = mask.is_known(fam, "lambda")
    if mask.n_known > lam_known:
        return None  # generic path handles the other masks
    n = len(x)
    xbar = float(np.mean(x))
    s0 = float(np.std(x))
    iters = 0

    def sigma_hat(lam):
        # scale equation at fixed shape: goes from +lam(max - mean) at 0+
        # to -inf, so the bracket scan is safe
        nonlocal iters

        def phi(sigma):
            return lam * (_wmean_exp(x, x / sigma) - xbar) - sigma

        sig, it, conv = _scan_root(phi, scale=s0)
        iters += it
        return sig, conv

    def outer(lam):
        sigma, _ = sigma_hat(lam)
        a = x / sigma
        g = float(logsumexp(a)) - math.log(n) - float(np.mean(a))
        return math.log(lam) - float(sp.digamma(lam)) - g

    if lam_known:  # the scale root alone, at the known shape
        lam, conv = mask.value(fam, "lambda"), True
    else:
        lam, it, conv = _scan_root(outer)
        iters += it
    sigma, conv2 = sigma_hat(lam)
    a = x / sigma
    mu = sigma * (float(logsumexp(a)) - math.log(n) - math.log(lam))
    if lam >= _SHAPE_CAP:
        conv = False
    return (lam, mu, sigma), iters, conv and conv2


def _fit_logistic(fam, x, mask):
    """Profiled logistic ML: inner location root, outer scale root."""
    if mask.n_known:
        return None
    iters = 0

    def mu_hat(sigma):
        nonlocal iters

        def g(mu):
            return float(np.mean(2.0 / (1.0 + np.exp((x - mu) / sigma)))) - 1.0

        lo, hi = float(np.min(x)), float(np.max(x))
        root, res = opt.brentq(g, lo, hi, xtol=1e-13 * max(1.0, hi - lo), full_output=True)
        iters += res.iterations
        return root

    def phi(sigma):
        y = (x - mu_hat(sigma)) / sigma
        return float(np.mean(y * np.tanh(0.5 * y))) - 1.0

    s0 = float(np.std(x)) * math.sqrt(3.0) / math.pi
    sigma, it, conv = _scan_root(phi, scale=s0)
    iters += it
    return (mu_hat(sigma), sigma), iters, conv


def _student_em(x, lam, mu0, sigma0, mu_fixed=None, sigma_fixed=None):
    mu = mu0 if mu_fixed is None else mu_fixed
    sigma = sigma0 if sigma_fixed is None else sigma_fixed
    it = 0
    for it in range(1, 501):
        y = (x - mu) / sigma
        w = lam / (lam + y ** 2)
        mu_new = float(np.sum(w * x) / np.sum(w)) if mu_fixed is None else mu_fixed
        if sigma_fixed is None:
            s2 = (lam + 1.0) / lam * float(np.mean(w * (x - mu_new) ** 2))
            sigma_new = math.sqrt(s2)
        else:
            sigma_new = sigma_fixed
        step = max(abs(mu_new - mu), abs(sigma_new - sigma))
        mu, sigma = mu_new, sigma_new
        if step <= _STEP_TOL * max(abs(mu), sigma):
            break
    return mu, sigma, it


def _fit_student(fam, x, mask):
    mu_fixed = mask.value(fam, "mu") if mask.is_known(fam, "mu") else None
    sigma_fixed = mask.value(fam, "sigma") if mask.is_known(fam, "sigma") else None
    mu0, s0 = float(np.median(x)), float(np.std(x))
    iters = 0

    def inner(lam):
        nonlocal iters
        mu, sigma, it = _student_em(x, lam, mu0, s0, mu_fixed, sigma_fixed)
        iters += it
        return mu, sigma

    def lam_eq(lam):
        mu, sigma = inner(lam)
        y = (x - mu) / sigma
        val = (float(sp.digamma(0.5 * (lam + 1.0))) - float(sp.digamma(0.5 * lam))
               - float(np.mean(np.log1p(y ** 2 / lam))))
        if sigma_fixed is not None:
            q = (lam + 1.0) / lam * float(np.mean(y ** 2 / (1.0 + y ** 2 / lam)))
            val += (q - 1.0) / lam
        return val

    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        mu, sigma = inner(lam)
        return (lam, mu, sigma), iters + 1, True
    lam, it, conv = _scan_root(lam_eq, lo=1e-2)
    iters += it
    if lam >= 1e3 * 0.99:
        conv = False
    mu, sigma = inner(lam)
    return (lam, mu, sigma), iters, conv


def _fit_halfepd(fam, x, mask):
    sigma_known = mask.is_known(fam, "sigma")

    def sigma_hat(lam):
        if sigma_known:
            return mask.value(fam, "sigma")
        return float(np.mean(x ** lam)) ** (1.0 / lam)

    def lam_eq(lam):
        sigma = sigma_hat(lam)
        w = (x / sigma) ** lam
        val = _epd_c1(lam) - float(np.mean(w * np.log(w)))
        if sigma_known:
            val += float(np.mean(w)) - 1.0
        return val

    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
        return (lam, sigma_hat(lam)), 1, True
    lam, iters, conv = _scan_root(lam_eq)
    return (lam, sigma_hat(lam)), iters, conv


def _weibull_rho_profile(x):
    lx = np.log(x)
    mean_lx = float(np.mean(lx))

    def m_ln(rho):
        return _wmean_exp(lx, rho * lx)

    def phi(rho):
        return m_ln(rho) - mean_lx - 1.0 / rho

    rho0 = math.pi / math.sqrt(6.0) / max(float(np.std(lx)), 1e-12)
    return phi, rho0


def _fit_weibull(fam, x, mask):
    if mask.n_known:
        return None
    phi, rho0 = _weibull_rho_profile(x)
    rho, iters, conv = _scan_root(phi, scale=rho0, lo=1e-2, hi=1e2)
    lx = np.log(x)
    beta = math.exp((float(logsumexp(rho * lx)) - math.log(len(x))) / rho)
    return (beta, rho), iters, conv


def _fit_gompertz(fam, x, mask):
    if mask.n_known:
        return None
    xbar = float(np.mean(x))

    def phi(beta):
        t = beta * x
        big = float(logsumexp(t)) - math.log(len(x))
        xt = _wmean_exp(x, t)
        # rho_hat * mean(x e^(beta x)) with rho_hat = 1/(mean e^(beta x) - 1)
        return 1.0 / beta + xbar - xt / -math.expm1(-big)

    beta, iters, conv = _scan_root(phi, scale=1.0 / xbar)
    rho = 1.0 / math.expm1(float(logsumexp(beta * x)) - math.log(len(x)))
    return (beta, rho), iters, conv


def _fit_gamma(fam, x, mask):  # lambda known is a closed form over rows
    lx = np.log(x)
    if mask.is_known(fam, "beta"):
        beta = mask.value(fam, "beta")
        lam, iters, conv = _solve_digamma(float(np.mean(lx)) - math.log(beta))
        return (lam, beta), iters, conv
    s = math.log(float(np.mean(x))) - float(np.mean(lx))
    lam, iters, conv = _solve_digamma_minus_log(-s)
    if lam >= _SHAPE_CAP:
        conv = False
    return (lam, float(np.mean(x)) / lam), iters, conv


def _beta_ml_system(s1, s2, a0, b0):
    """Newton iterations for psi(a)-psi(a+b)=s1, psi(b)-psi(a+b)=s2."""
    a, b = max(a0, 1e-3), max(b0, 1e-3)
    for it in range(1, _MAX_ITER + 1):
        pab = float(sp.digamma(a + b))
        f1 = float(sp.digamma(a)) - pab - s1
        f2 = float(sp.digamma(b)) - pab - s2
        tab = float(sp.polygamma(1, a + b))
        j11 = float(sp.polygamma(1, a)) - tab
        j22 = float(sp.polygamma(1, b)) - tab
        det = j11 * j22 - tab * tab
        if det <= 0.0:
            break
        da = (-f1 * j22 - f2 * tab) / det
        db = (-f2 * j11 - f1 * tab) / det
        step = 1.0
        while (a + step * da <= 0.0 or b + step * db <= 0.0) and step > 1e-8:
            step *= 0.5
        a, b = a + step * da, b + step * db
        if max(abs(da), abs(db)) <= _STEP_TOL * max(1.0, a, b):
            return a, b, it, True
    return a, b, _MAX_ITER, False


def _fit_beta(fam, x, mask):
    if mask.n_known:
        return None
    m, v = float(np.mean(x)), float(np.var(x))
    v = max(v, 1e-12)
    c = m * (1.0 - m) / v - 1.0
    a0, b0 = max(m * c, 1e-2), max((1.0 - m) * c, 1e-2)
    a, b, iters, conv = _beta_ml_system(float(np.mean(np.log(x))),
                                        float(np.mean(np.log1p(-x))), a0, b0)
    return (a, b), iters, conv


def _fit_lomax(fam, x, mask):
    if mask.n_known:
        return None
    xbar = float(np.mean(x))

    def alpha_hat(sigma):
        return 1.0 / float(np.mean(np.log1p(x / sigma)))

    def phi(sigma):
        return (1.0 + alpha_hat(sigma)) * float(np.mean(x / (1.0 + x / sigma))) - sigma

    sigma, iters, conv = _scan_root(phi, scale=xbar)
    return (alpha_hat(sigma), sigma), iters, conv


def _fit_nakagami(fam, x, mask):
    if mask.n_known:
        return None
    x2 = x ** 2
    omega = float(np.mean(x2))
    s = math.log(omega) - float(np.mean(np.log(x2)))
    lam, iters, conv = _solve_digamma_minus_log(-s)
    if lam >= _SHAPE_CAP:
        conv = False
    return (lam, omega), iters, conv


def _fit_invgauss(fam, x, mask):
    mu_known = mask.is_known(fam, "mu")
    mu = mask.value(fam, "mu") if mu_known else float(np.mean(x))
    if mask.is_known(fam, "lambda"):
        lam = mask.value(fam, "lambda")
    else:
        xbar = float(np.mean(x))
        denom = float(np.mean(1.0 / x)) - (2.0 - xbar / mu) / mu
        if denom <= 0.0:
            raise EstimationError("inverse-Gaussian precision estimate is not positive",
                                  residual=denom)
        lam = 1.0 / denom
    return (mu, lam), 1, True


def _fit_kumaraswamy(fam, x, mask):
    if mask.n_known:
        return None
    lx = np.log(x)
    sum_lx = float(np.sum(lx))
    n = len(x)

    def beta_hat(alpha):
        return -n / float(np.sum(np.log1p(-x ** alpha)))

    def phi(alpha):
        xa = x ** alpha
        denom = float(np.sum(xa / (1.0 - xa) * lx))
        return 1.0 - beta_hat(alpha) + (n / alpha + sum_lx) / denom

    alpha, iters, conv = _scan_root(phi)
    return (alpha, beta_hat(alpha)), iters, conv


_FITTERS = {
    "epd": _fit_epd,
    "exp-gamma": _fit_expgamma,
    "logistic": _fit_logistic,
    "student-t": _fit_student,
    "half-epd": _fit_halfepd,
    "weibull": _fit_weibull,
    "gompertz": _fit_gompertz,
    "gamma": _fit_gamma,
    "lomax": _fit_lomax,
    "nakagami": _fit_nakagami,
    "inverse-gaussian": _fit_invgauss,
    "beta": _fit_beta,
    "kumaraswamy": _fit_kumaraswamy,
}


def _dedicated(fam: Family, x, mask: KnownMask):
    """The family's ML fitter, through its base if it is derived: (theta,
    iterations, converged), or None where there is none for the mask."""
    d = fam.through(EstimatorKind.ML)
    if d is None:
        fitter = _FITTERS.get(fam.name)
        return None if fitter is None else fitter(fam, x, mask)
    out = _dedicated(d.base, d.data.to(x), row(fam, EstimatorKind.ML, mask).base.mask)
    return None if out is None else (tuple(d.from_base(out[0])),) + out[1:]


def _generic_ml(fam: Family, x, mask: KnownMask):
    """Nelder-Mead on the family's own density, from its all-free fit."""
    free = [i for i, k in enumerate(mask.known) if not k]
    try:
        out = _dedicated(fam, x, KnownMask.none(fam.n_params))
    except (EstimationError, DomainError):
        out = None
    start = list(out[0]) if out is not None else [1.0] * fam.n_params
    for i, k in enumerate(mask.known):
        if k:
            start[i] = mask.fixed_values[i]
    # positive components are searched on the log scale
    positive = [fam.param_names.index(p) for p in fam.positive]
    logflag = [i in positive for i in range(fam.n_params)]

    def unpack(z):
        theta = list(start)
        for j, i in enumerate(free):
            theta[i] = math.exp(z[j]) if logflag[i] else z[j]
        return tuple(theta)

    def nll(z):
        theta = unpack(z)
        try:
            fam.check(theta)
            return -float(np.sum(fam.logpdf(theta, x)))
        except (DomainError, FloatingPointError):
            return math.inf

    z0 = np.array([math.log(start[i]) if logflag[i] else start[i] for i in free])
    res = opt.minimize(nll, z0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 20000})
    theta = unpack(res.x)
    return theta, int(res.nit), bool(res.success)


def former_fit(fam, mask, x) -> FitResult:
    """The former ``estimate.fit`` on an ML row: a closed form of ``_ML_ROWS``,
    the family's fitter, or Nelder-Mead."""
    fam = get_family(fam)
    mask = mask or KnownMask.none(fam.n_params)
    x = np.asarray(x, dtype=float)
    r = row(fam, EstimatorKind.ML, mask)
    outside, flat = rejected_rows(r, x[None, :])
    if outside[0] or flat[0]:
        raise DomainError("sample rejected")
    base = fam.derived.base if fam.derived else fam
    exprs = _ML_ROWS.get(base.name) if base.name != "inverse-gaussian" else None
    bmask = r.base.mask if fam.derived else mask
    if exprs is not None and all(k or e is not None for k, e in zip(bmask.known, exprs)):
        theta_b = _columns(exprs, bmask, (fam.derived.data.to(x) if fam.derived else x)[None, :])[0]
        theta, iterations, converged = (fam.derived.from_base(theta_b) if fam.derived
                                        else theta_b), 1, True
    else:
        out = _dedicated(fam, x, mask)
        theta, iterations, converged = out if out is not None else _generic_ml(fam, x, mask)
    theta = np.asarray(theta, dtype=float)
    for i, k in enumerate(mask.known):
        if k:
            theta[i] = mask.fixed_values[i]
    fam.check(tuple(theta))
    resid = _residual(r, theta, x)
    if resid > _SCORE_TOL * max(1.0, float(np.max(np.abs(x)))):
        converged = False
    return FitResult(theta, iterations, bool(converged), resid)


# ---------------------------------------------------------------------------
# the batch-only kernels: X has shape (reps, n); returns theta (reps, p), NaN
# rows where the Newton iteration did not settle
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
