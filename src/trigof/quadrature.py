"""The tanh-sinh rule over the probability integral transform u in (0, 1).

Every expectation under a fitted null that the scaling matrices and the
power drift need is an entry of E[f(U) f(U)^T] for U uniform on (0, 1) and f
a vector of functions of u (``gram``): the trig pair (cos, sin)(2 pi u), and
a score or a moment function at the quantile x = Q(u).  These are smooth
inside (0, 1/2) and (1/2, 1) but may be singular at 0 and 1 (a score grows
like ln u, a heavy tail's moment like a power of u) and at 1/2 (the cusp of
a symmetric family at its centre, |u - 1/2|^(lambda - 1)).

So (0, 1) is split at 1/2 and each half is summed by the tanh-sinh rule of
Takahasi & Mori (1974, Publ. RIMS 9) on a grid of t with step 1/8: a node's
distance from the outer end of its half is p(t) = expit(pi sinh t) / 2 and
its distance from the inner end, 1/2, is q(t) = expit(-pi sinh t) / 2, which
crowds the nodes double-exponentially into both ends, from 3e-276 of each.
f is handed p and q themselves, each exact where it is small: u = p on the
lower half and u = 1 - p on the upper one, so that a family can read its
upper tail without the rounding of 1 - p and a point near its centre without
that of 1/2 - q.  The rule is fixed, 194 nodes in all, with no error
estimate and no cache.  On integrands analytic inside each half it converges
to about 1e-14.  Halving the step moves no family's G, R or J at its test
point by more than 3e-12 (R relative to its largest entry); the most moved
are MM rows whose fourth moments read a far upper tail at Q(1 - p), where
1 - p has rounded.

Beyond the last node of an end the rule goes on over the tail of an entry
that grows there like a power of the distance d, d^-alpha with alpha in
(0.9, 1), read from the last two nodes (a moment just integrable in a heavy
tail, the square of a score at a sharp cusp): those nodes are summed in
logarithms, with the entry continued as that power.  Below alpha = 0.9 what
lies beyond 3e-276 is under 1e-26 of the entry's scale and is left out.

A node where f is not finite (a quantile that under- or overflows in the
far tails) is left out when it is within 1e-15 of an end, where its share
of the sum is below the rule's accuracy.  Anywhere else it fails its row:
every entry of that row is NaN, and the other rows are summed as if it were
not there.  Each caller decides what a failed row means (``scaling`` raises
DomainError for a single theta, and a batch row reads NaN).
"""

from __future__ import annotations

import numpy as np

__all__ = ["gram"]

_STEP = 0.125
_T = np.arange(-48, 49) * _STEP
_E = np.exp(-np.pi * np.abs(np.sinh(_T)))
_NEAR, _FAR = 0.5 * _E / (1.0 + _E), 0.5 / (1.0 + _E)
# each node's distance p from the outer end of its half, q from 1/2, and its weight
_P = np.where(_T < 0.0, _NEAR, _FAR)
_Q = np.where(_T < 0.0, _FAR, _NEAR)
_W = 0.5 * _STEP * np.pi * np.cosh(_T) * _E / (1.0 + _E) ** 2
_DROP = 1e-15  # distance from an end below which a non-finite node is left out
# the rule beyond the last node, in logarithms: ln d and ln of weight / d there
_TAIL_T = np.arange(49, 201) * _STEP
_TAIL_LN_D = -np.pi * np.sinh(_TAIL_T) - np.log(2.0)
_TAIL_LN_W = np.log(_STEP * np.pi * np.cosh(_TAIL_T))
_LN_D0, _LN_D1 = np.log(_NEAR[0]), np.log(_NEAR[1])
_ALPHA_MIN = 0.9


def _beyond(F):
    """The rule's sum beyond both ends of a half whose nodes hold F (k, ..., n):
    for each entry that grows at an end as d^-alpha, alpha in (0.9, 1), read
    from the last two nodes there, the nodes further on with the entry
    continued as that power.  Shape (..., k, k), or 0."""
    F0, F1 = F[..., [0, -1]], F[..., [1, -2]]  # the last two nodes of each end
    with np.errstate(all="ignore"):
        a = np.where(F0 * F1 > 0.0, np.log(F0 / F1), np.nan) / (_LN_D1 - _LN_D0)
    alpha = a[:, None] + a[None, :]
    grows = (alpha > _ALPHA_MIN) & (alpha < 1.0)
    if not grows.any():
        return 0.0
    al = alpha[grows][:, None]
    v0 = (F0[:, None] * F0[None, :])[grows][:, None]
    out = np.zeros(alpha.shape)
    # weight * v0 (d / d0)^-alpha, with weight = d * step * pi cosh t there
    out[grows] = np.sum(v0 * np.exp(_TAIL_LN_W + (1.0 - al) * _TAIL_LN_D + al * _LN_D0), axis=1)
    return np.moveaxis(out.sum(axis=-1), (0, 1), (-2, -1))


def gram(f) -> np.ndarray:
    """E[f(U) f(U)^T] by the rule, for U uniform on (0, 1).

    ``f(p, q, upper)`` returns the k functions at the nodes of one half,
    shape (k, ..., n) for the n distances p (shape (n,)) from the outer end
    and q = 1/2 - p from the inner one: u = p on the lower half (``upper``
    False) and u = 1 - p on the upper one.  Any axes between the first and
    the last are carried through, so one call covers every theta row of a
    block.  Returns shape (..., k, k), NaN throughout on a row where f is
    not finite at a node farther than 1e-15 from an end.
    """
    total, failed = 0.0, False
    for upper in (False, True):
        with np.errstate(all="ignore"):
            F = np.asarray(f(_P, _Q, upper), dtype=float)
        bad = ~np.all(np.isfinite(F), axis=0)
        if bad.any():
            failed = failed | np.any(bad & (np.minimum(_P, _Q) > _DROP), axis=-1)
            F = np.where(bad, 0.0, F)
        total = total + np.moveaxis(F * _W, 0, -2) @ np.moveaxis(F, 0, -1)
        total = total + _beyond(F)
    if np.any(failed):
        total[failed] = np.nan
    return total
