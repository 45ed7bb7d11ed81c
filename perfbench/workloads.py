"""Workload definitions: input pools, per-seed schedules and reference keys.

Every workload is a sequence of *rounds*.  A round runs each of the
workload's cases once, in a fixed order, on one dataset of that case.
Datasets come from a fixed pool of ``POOL[workload]`` per case, generated here
with numpy alone so that a change to ``trigof.families.sample`` cannot change
them; ``reference.json`` holds the expected output for every pool entry.

A run of ``CYCLE_SECONDS`` makes exactly ``POOL[workload]`` rounds, so it
visits every dataset of the pool once (the pool sizes are chosen so that this
takes about ``CYCLE_SECONDS`` on a 2-core x86 machine at the first measured
commit).  ``--seed`` sets, per case, the order of that visit: round ``r`` uses
dataset ``order[case][r % POOL]``.  The same seed therefore gives the same
inputs in the same order; every seed runs the same multiset of inputs, which
keeps the composition of inputs out of the run-to-run spread.

This module imports numpy only; the operations that call ``trigof`` live in
``worker.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CYCLE_SECONDS = 24
POOL = {"desk-test": 10, "bootstrap": 7, "montecarlo": 13}

# desk-test: `trigof test FILE --family F` on data drawn from F itself.
# True parameters, in the order of the family's parameters; exp-gamma and gg
# carry the shapes (2.0 and 1.7) at which the ML fits misbehave at small n.
DESK_TRUTH = {
    "epd": (1.5, 0.5, 2.0),
    "log-epd": (1.5, 0.2, 0.5),
    "student-t": (5.0, 1.0, 2.0),
    "exp-gamma": (2.0, 0.5, 1.5),
    "gg": (1.7, 2.0, 1.3),
    "logistic": (1.0, 2.0),
    "weibull": (2.0, 1.5),
    "gompertz": (1.2, 0.5),
    "kumaraswamy": (2.0, 3.0),
    "lomax": (3.0, 1.5),
    "beta": (2.0, 3.0),
    "gamma": (2.5, 1.5),
    "inverse-gaussian": (1.0, 2.0),
    "normal": (1.0, 2.0),
}
DESK_SIZES = (200, 2000)

# bootstrap: run_test(F, "ml", None, x, mc={"reps": BOOT_REPS, "seed": ds}).
# A round holds two gamma p-values, the case ROADMAP item 3(b) targets.  With
# five p-values per round the median falls inside the gamma group instead of
# on the gap between the weibull and gamma groups, where it would be the
# extreme of one of them.
BOOT_CASES = ("gamma", "gamma#2", "inverse-gaussian", "weibull", "normal")
BOOT_N = 200
BOOT_REPS = 200

# montecarlo: one-cell studies and empirical power on the batch path, plus
# asymptotic power curves.  Each study cell and power call runs MC_REPS
# replications at n = MC_N with seed = dataset index.
MC_N = 200
MC_REPS = 1000
MC_ALPHA = 0.05
MC_CELLS = {
    # name: (family, theta, known, data_family, data_theta)
    "normal": ("normal", (0.0, 1.0), (), None, ()),
    "laplace": ("laplace", (0.0, 1.0), (), None, ()),
    "weibull": ("weibull", (1.0, 1.5), (), None, ()),
    "epd": ("epd", (1.5, 0.0, 1.0), (("lambda", 1.5),), None, ()),
    "epd-vs-t": ("epd", (2.0, 0.0, 1.0), (("lambda", 2.0),), "student-t", (5.0, 0.0, 1.0)),
}
MC_EMPIRICAL = {
    # case: (theta0, delta)
    "weibull": ((1.0, 1.0), (10.0,)),
    "epd": ((2.0, 0.0, 1.0), (1.0, 0.0)),
}
MC_CURVES = {
    # case: (theta0, grid)
    "gamma": ((2.0, 1.0), [0.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 30.0]),
    "weibull": ((1.0, 1.0), [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]),
    "epd": ((2.0, 0.0, 1.0), [[d, 0.0] for d in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
            + [[0.0, d] for d in (1.0, 2.0)]),
}

WORKLOADS = ("desk-test", "bootstrap", "montecarlo")


def cases(workload: str) -> list[str]:
    """Case ids of one round, in execution order."""
    if workload == "desk-test":
        return [f"{fam}/{n}" for fam in DESK_TRUTH for n in DESK_SIZES]
    if workload == "bootstrap":
        return list(BOOT_CASES)
    if workload == "montecarlo":
        return ([f"study:{c}" for c in MC_CELLS]
                + [f"power:{c}" for c in MC_EMPIRICAL]
                + [f"curve:{c}" for c in MC_CURVES])
    raise ValueError(f"unknown workload {workload!r}")


def family(case: str) -> str:
    return case.split("/")[0].split("#")[0]


def pool_order(workload: str, seed: int) -> dict[str, list[int]]:
    """Per case, the order in which the seed walks the dataset pool."""
    rng = np.random.default_rng([0x5EED, seed % 2**64])  # any int seed, negative too
    return {case: [int(i) for i in rng.permutation(POOL[workload])]
            for case in cases(workload)}


def rounds(workload: str, seconds: float) -> int:
    """Rounds in a run of ``seconds``: the whole pool once per CYCLE_SECONDS."""
    return max(1, round(POOL[workload] * seconds / CYCLE_SECONDS))


# ---------------------------------------------------------------------------
# data generation (numpy only)
# ---------------------------------------------------------------------------

def draw(family: str, theta, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from ``family`` at ``theta`` in trigof's parametrization."""
    if family in ("epd", "log-epd"):
        lam, mu, sigma = theta
        # |y|^lam / lam is gamma(1/lam) under the EPD density exp(-|y|^lam / lam)
        mag = (lam * rng.gamma(1.0 / lam, size=n)) ** (1.0 / lam)
        y = mu + sigma * rng.choice((-1.0, 1.0), size=n) * mag
        return np.exp(y) if family == "log-epd" else y
    if family == "student-t":
        lam, mu, sigma = theta
        return mu + sigma * rng.standard_t(lam, size=n)
    if family == "exp-gamma":
        lam, mu, sigma = theta
        return mu + sigma * np.log(rng.gamma(lam, size=n))
    if family == "gg":
        lam, beta, rho = theta
        return beta * rng.gamma(lam, size=n) ** (1.0 / rho)
    if family == "logistic":
        return rng.logistic(theta[0], theta[1], size=n)
    if family == "weibull":
        return theta[0] * rng.weibull(theta[1], size=n)
    if family == "gompertz":
        beta, rho = theta
        return np.log1p(rng.exponential(size=n) / rho) / beta
    if family == "kumaraswamy":
        a, b = theta
        return (-np.expm1(np.log1p(-rng.random(n)) / b)) ** (1.0 / a)
    if family == "lomax":
        return theta[1] * rng.pareto(theta[0], size=n)
    if family == "beta":
        return rng.beta(theta[0], theta[1], size=n)
    if family == "gamma":
        return rng.gamma(theta[0], theta[1], size=n)
    if family == "inverse-gaussian":
        return rng.wald(theta[0], theta[1], size=n)
    if family == "normal":
        return rng.normal(theta[0], theta[1], size=n)
    raise ValueError(f"no generator for {family!r}")


def desk_data(case: str, ds: int) -> np.ndarray:
    fam, n = case.split("/")
    rng = np.random.default_rng([0xDE5C, list(DESK_TRUTH).index(fam), int(n), ds])
    return draw(fam, DESK_TRUTH[fam], int(n), rng)


def boot_data(case: str, ds: int) -> np.ndarray:
    rng = np.random.default_rng([0xB007, BOOT_CASES.index(case), ds])
    return draw(family(case), DESK_TRUTH[family(case)], BOOT_N, rng)


def write_inputs(workload: str, seed: int, work: Path) -> Path:
    """Write the inputs of a run under ``work``; return the job-input file."""
    work.mkdir(parents=True, exist_ok=True)
    datasets = range(POOL[workload])
    spec = {"workload": workload, "seed": seed, "order": pool_order(workload, seed)}
    if workload == "desk-test":
        files = {}
        data_dir = work / "data"
        data_dir.mkdir(exist_ok=True)
        for case in cases(workload):
            for ds in datasets:
                path = data_dir / f"{case.replace('/', '-')}-{ds}.txt"
                path.write_text("\n".join(repr(float(v)) for v in desk_data(case, ds)) + "\n")
                files[f"{case}/{ds}"] = str(path)
        spec["files"] = files
    elif workload == "bootstrap":
        spec["data"] = {f"{case}/{ds}": boot_data(case, ds).tolist()
                        for case in BOOT_CASES for ds in datasets}
    path = work / "inputs.json"
    path.write_text(json.dumps(spec))
    return path


def ref_key(case: str, ds: int) -> str:
    """Reference key of one operation; curves do not depend on the dataset."""
    return case if case.startswith("curve:") else f"{case}/{ds}"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the value of an actual operation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
