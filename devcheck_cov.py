"""Dev check: cov of sqrt(n) tau_bar(theta_hat) vs assembled Sigma.

A replication whose fit or moments raise a package error is left out and
counted by the error's type; any other exception stops the check.
"""
import collections

import numpy as np

from trigof import families as F, scaling as S
from trigof.errors import TrigofError
from trigof.estimate import EstimatorKind, KnownMask, fit
from trigof.gof import trig_moments

CASES = [
    ("normal", "ml", (0.0, 1.0), {}, 4000),
    ("laplace", "ml", (0.0, 1.0), {}, 4000),
    ("laplace", "mm", (0.0, 1.0), {}, 4000),
    ("epd", "ml", (1.5, 0.0, 1.0), {"lambda": 1.5}, 2000),
    ("epd", "mm", (1.5, 0.0, 1.0), {"lambda": 1.5}, 4000),
    ("logistic", "ml", (0.0, 1.0), {}, 2000),
    ("logistic", "mm", (0.0, 1.0), {}, 4000),
    ("student-t", "mm", (4.0, 0.0, 1.0), {"lambda": 4.0}, 4000),
    ("gumbel", "ml", (0.0, 1.0), {}, 2000),
    ("exp-weibull", "ml", (0.0, 1.0), {}, 2000),
    ("weibull", "ml", (1.0, 1.5), {}, 2000),
    ("frechet", "ml", (1.0, 2.0), {}, 2000),
    ("gamma", "ml", (2.0, 1.0), {}, 2000),
    ("inverse-gamma", "ml", (2.0, 1.0), {}, 2000),
    ("gompertz", "ml", (1.0, 0.5), {}, 1500),
    ("log-logistic", "ml", (1.0, 2.0), {}, 2000),
    ("log-logistic", "mm", (1.0, 2.0), {}, 4000),
    ("half-epd", "ml", (1.8, 1.0), {}, 2000),
    ("half-epd", "mm", (1.8, 1.0), {"lambda": 1.8}, 4000),
    ("lomax", "ml", (3.0, 1.0), {}, 1500),
    ("nakagami", "ml", (1.5, 1.0), {}, 2000),
    ("inverse-gaussian", "ml", (1.0, 2.0), {}, 2000),
    ("exponential", "ml", (1.0,), {}, 4000),
    ("half-normal", "mm", (1.0,), {}, 4000),
    ("rayleigh", "mm", (1.0,), {}, 4000),
    ("maxwell-boltzmann", "mm", (1.0,), {}, 4000),
    ("chi-squared", "ml", (3.0,), {}, 3000),
    ("chi-squared", "mm", (3.0,), {}, 4000),
    ("pareto", "ml", (2.0,), {}, 4000),
    ("beta", "ml", (2.0, 3.0), {}, 2000),
    ("beta-prime", "ml", (2.0, 3.0), {}, 2000),
    ("kumaraswamy", "ml", (2.0, 1.5), {}, 1500),
    ("uniform", "ml", (0.0, 1.0), {}, 4000),
    ("log-normal", "ml", (0.0, 1.0), {}, 4000),
    ("log-laplace", "mm", (0.0, 1.0), {}, 4000),
    ("log-epd", "mm", (1.5, 0.0, 1.0), {"lambda": 1.5}, 4000),
    ("student-t", "ml", (5.0, 0.0, 1.0), {}, 800),
    ("exp-gamma", "ml", (2.0, 0.0, 1.0), {}, 800),
    ("epd", "ml", (1.5, 0.0, 1.0), {}, 800),
]

n = 1000
bad = []
for fam_name, kind, th, bind, reps in CASES:
    fam = F.get_family(fam_name)
    mask = KnownMask.from_names(fam, bind) if bind else None
    sig = S.sigma_from(fam, kind, th, mask)
    vs = []
    failed = collections.Counter()
    for r in range(reps):
        x = F.sample(fam, th, n, np.random.SeedSequence([99, r]))
        try:
            res = fit(fam, kind, mask, x)
            m = trig_moments(fam, res.theta, x)
        except TrigofError as exc:
            failed[type(exc).__name__] += 1
            continue
        vs.append([m.cn, m.sn])
    v = np.sqrt(n) * np.array(vs)
    v = v - v.mean(axis=0)
    cov = v.T @ v / (len(v) - 1)
    prods = v[:, :, None] * v[:, None, :]
    se = prods.std(axis=0) / np.sqrt(len(v))
    z = np.max(np.abs(cov - sig) / np.maximum(se, 1e-12))
    tag = "OK " if z < 5.0 else "BAD"
    if tag == "BAD":
        bad.append((fam_name, kind, round(float(z), 1)))
    print(f"{tag} {fam_name:18s} {kind} z={z:5.2f} failed={dict(failed)} "
          f"sigma_diag=({sig[0,0]:.4f},{sig[1,1]:.4f})", flush=True)
print("BAD:", bad)
