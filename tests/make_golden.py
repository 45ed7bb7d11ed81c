"""Golden outputs of the test, its bootstrap and a study, kept in
``golden/`` and checked by ``test_golden.py``: ``run_test.json``,
``bootstrap.json`` and ``study.json``.

``run_test.json`` holds ``gof.run_test`` on every supported (family,
estimator, mask) row.

A supported row (``conftest.supported_rows``) is a family of
``conftest.FAMILY_THETAS`` with an estimator it has, under a mask of its
FAMILY_THETAS values that leaves a parameter free; an MM row keeps the shapes
it requires known (``MM_REQUIRED_KNOWN``).
That makes 137 rows.  Each runs at n in {30, 200} on seeds {1, 2}, on the
sample drawn at the row's FAMILY_THETAS point from the key (seed, n).  An
entry holds theta-hat, the iterations, the converged flag, T_n and Sigma,
every float as hex, or the type of the error that ``run_test`` raised.

``bootstrap.json`` holds the bootstrap p-value of six ML families
(``BOOTSTRAP``) on the sample of n = 200 drawn at FAMILY_THETAS from the key
(3, 200): the fit and T_n of that sample (a one-row fit), the exceed and
failed counts and the p-value, and the T_n of every replication as
``gof.replicate``, which fits them as blocks, returns them to ``run_test``.
``study.json`` holds the report of the five-cell ``STUDY``: each cell's
rejections, failed count, ok flag, rate and standard error.  Every file
records the Python, numpy and scipy versions that wrote it.

``compare`` is the check: theta-hat, T_n, the p-value, the replications' T_n,
the rate and its error within 1e-12 relative in each component, Sigma within
1e-12 of its largest entry, NaN only where NaN was, and every count, flag and
error type exactly.

    PYTHONPATH=src python tests/make_golden.py [--check]

rewrites the files and prints, row by row, what moved against the files it
replaces and by how much.  It ends with one line per golden file and family
that moved: how many of the family's entries moved, and the largest relative
move of theta-hat and of T_n among them; then one line per file for the
families that did not.  With ``--check`` it prints the same lines but
leaves the files as they are, and exits 1 if anything moved.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import platform
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import FAMILY_THETAS, known_mask, supported_rows  # noqa: E402
from trigof import families as F  # noqa: E402
from trigof import gof  # noqa: E402
from trigof.errors import TrigofError  # noqa: E402
from trigof.gof import run_test  # noqa: E402
from trigof.simharness import CellConfig, StudyConfig, run_study  # noqa: E402

DIR = Path(__file__).resolve().parent / "golden"
SIZES = (30, 200)
SEEDS = (1, 2)
RTOL = 1e-12
FLOATS = ("theta", "tn", "sigma", "p_mc", "replications", "rate", "se")  # hex; all else exact

BOOTSTRAP = ("epd", "gamma", "inverse-gaussian", "normal", "student-t", "weibull")
BOOT_N, BOOT_SEED, BOOT_MC = 200, 3, {"reps": 64, "seed": 5}
STUDY = StudyConfig((
    CellConfig("normal", "normal", theta=FAMILY_THETAS["normal"], n=30),
    CellConfig("gamma", "gamma", theta=FAMILY_THETAS["gamma"], n=50),
    CellConfig("weibull-on-gamma", "weibull", theta=FAMILY_THETAS["weibull"], n=40,
               data_family="gamma", data_theta=FAMILY_THETAS["gamma"]),
    CellConfig("epd", "epd", theta=FAMILY_THETAS["epd"], n=50),
    CellConfig("logistic-mm", "logistic", "mm", theta=FAMILY_THETAS["logistic"], n=30)),
    reps=128, seed=3)


def row_id(name, kind, known) -> str:
    return f"{name}-{kind}" + "".join(f"-{p}" for p in known)


def _hex(values):
    return [float(v).hex() for v in values]


def outcomes(name, kind, known) -> dict:
    """The row's entries, keyed 'n=<n>,seed=<seed>'."""
    theta, mask = FAMILY_THETAS[name], known_mask(name, known)
    out = {}
    for n, seed in itertools.product(SIZES, SEEDS):
        x = F.sample(name, theta, n, np.random.SeedSequence([seed, n]))
        try:
            res = run_test(name, kind, mask, x)
        except TrigofError as exc:
            out[f"n={n},seed={seed}"] = {"error": type(exc).__name__}
            continue
        out[f"n={n},seed={seed}"] = {
            "theta": _hex(res.fit.theta),
            "iterations": res.fit.iterations,
            "converged": res.fit.converged,
            "tn": float(res.tn).hex(),
            "sigma": _hex(res.sigma.ravel()),
        }
    return out


def bootstrap_outcome(name) -> dict:
    """The bootstrap entry of an all-free ML family, keyed like run_test's."""
    theta, n = FAMILY_THETAS[name], BOOT_N
    x = F.sample(name, theta, n, np.random.SeedSequence([BOOT_SEED, n]))
    key = f"n={n},seed={BOOT_SEED}"
    seen = []  # what replicate returns to run_test: the T_n of its replications

    def replicate(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    real = gof.replicate
    try:
        with mock.patch.object(gof, "replicate", replicate):
            res = run_test(name, "ml", None, x, mc=BOOT_MC)
    except TrigofError as exc:
        return {key: {"error": type(exc).__name__}}
    return {key: {"theta": _hex(res.fit.theta), "tn": float(res.tn).hex(),
                  "p_mc": float(res.p_mc).hex(), "exceed": res.mc_exceed,
                  "failed": res.mc_failed, "replications": _hex(seen[0])}}


def study_outcome() -> dict:
    """The report of ``STUDY``, keyed by cell name."""
    return {c.name: {"rejections": c.rejections, "failed": c.failed, "ok": c.ok,
                     "rate": float(c.rate).hex(), "se": float(c.se).hex()}
            for c in run_study(STUDY).cells}


# each golden file and what builds its rows, {row id: {key: entry}}
LAYERS = {
    "run_test.json": lambda: {row_id(*r): outcomes(*r) for r in supported_rows()},
    "bootstrap.json": lambda: {name: bootstrap_outcome(name) for name in BOOTSTRAP},
    "study.json": lambda: {f"reps={STUDY.reps},seed={STUDY.seed}": study_outcome()},
}
ROW_FAMILY = {row_id(*r): r[0] for r in supported_rows()}


def family_of(layer: str, rid: str, key: str) -> str:
    """The family of an entry of golden file ``layer``: its run_test row's,
    its bootstrap row's (the row id), its study cell's."""
    if layer == "study.json":
        return next(c.family for c in STUDY.cells if c.name == key)
    return rid if layer == "bootstrap.json" else ROW_FAMILY[rid]


def _floats(values):
    return np.array([float.fromhex(v) for v in values])


def compare(want: dict, got: dict) -> list[str]:
    """What moved from ``want`` to ``got``, one line per quantity; empty
    where the entries agree."""
    if "error" in want or "error" in got:
        same = want.get("error") == got.get("error")
        return [] if same else [f"outcome {want.get('error', 'ok')} -> {got.get('error', 'ok')}"]
    moved = [f"{k} {want[k]} -> {got.get(k)}" for k in want
             if k not in FLOATS and want[k] != got.get(k)]
    for k in (k for k in FLOATS if k in want):
        w, g = (np.atleast_1d(e.get(k, [])) for e in (want, got))
        if w.shape != g.shape:
            moved.append(f"{k} has {g.size} values, not {w.size}")
        elif (rel := relative_move(want, got, k)) > RTOL:
            moved.append(f"{k} by {rel:.3g} relative")
    return moved


def relative_move(want: dict, got: dict, k: str) -> float:
    """The largest relative move of the float quantity k from entry ``want``
    to ``got``, each value against itself and Sigma against its largest
    entry: inf where a value turned NaN on one side only or the number of
    values changed, 0 where either entry has no k (an error)."""
    if k not in want or k not in got:
        return 0.0
    w, g = _floats(np.atleast_1d(want[k])), _floats(np.atleast_1d(got[k]))
    if w.shape != g.shape:
        return math.inf
    scale = np.max(np.abs(w)) if k == "sigma" else np.abs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where((g == w) | (np.isnan(g) & np.isnan(w)), 0.0, np.abs(g - w) / scale)
    rel[np.isnan(rel)] = np.inf  # NaN on one side only
    return float(np.max(rel))


def family_summary(layer: str, old: dict, rows: dict) -> list[str]:
    """One line per family of golden file ``layer`` with an entry that moved
    from ``old`` to ``rows``: how many of its entries moved, and the largest
    relative move of theta-hat and T_n among them; then one line for the rest."""
    total, moved = {}, {}
    for rid, entries in rows.items():
        for key, entry in entries.items():
            fam = family_of(layer, rid, key)
            total[fam] = total.get(fam, 0) + 1
            want = old.get(rid, {}).get(key, {})  # {}: a new entry
            if want and not compare(want, entry):
                continue
            count, theta, tn = moved.get(fam, (0, 0.0, 0.0))
            moved[fam] = (count + 1, max(theta, relative_move(want, entry, "theta")),
                          max(tn, relative_move(want, entry, "tn")))
    lines = [f"{layer} {fam}: {count} of {total[fam]} entries moved, theta by at most "
             f"{theta:.3g} and T_n by at most {tn:.3g} relative"
             for fam, (count, theta, tn) in sorted(moved.items())]
    return lines + [f"{layer}: no {'other ' if moved else ''}family moved"]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def check_layer(name: str, rows: dict, check: bool) -> tuple[int, list[str]]:
    """Print what moved from golden file ``name`` to ``rows`` and a count,
    and write ``rows`` to it unless ``check``; the number moved and the
    file's lines of ``family_summary``."""
    path = DIR / name
    old = json.loads(path.read_text())["rows"] if path.exists() else {}
    moved = []
    for rid, entries in rows.items():
        for key, entry in entries.items():
            if rid not in old or key not in old[rid]:
                moved.append(f"{rid} {key}: new")
                continue
            moved += [f"{rid} {key}: {line}" for line in compare(old[rid][key], entry)]
    moved += [f"{rid}: gone" for rid in sorted(set(old) - set(rows))]
    for line in moved:
        print(line)
    entries = [e for r in rows.values() for e in r.values()]
    errors = sum("error" in e for e in entries)
    summary = family_summary(name, old, rows)
    if check:
        print(f"{len(rows)} rows, {len(entries)} entries ({errors} errors) checked against "
              f"{path.name}: {len(moved)} moved")
        return len(moved), summary
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"versions": versions(), "rows": rows}, indent=1) + "\n")
    print(f"{len(rows)} rows, {len(entries)} entries ({errors} errors) written to {path.name}")
    return len(moved), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden files.")
    parser.add_argument("--check", action="store_true",
                        help="compare without rewriting the files; exit 1 if anything moved")
    check = parser.parse_args(argv).check
    counts, summaries = zip(*(check_layer(name, build(), check) for name, build in LAYERS.items()))
    for line in (line for summary in summaries for line in summary):
        print(line)
    return 1 if check and sum(counts) else 0


if __name__ == "__main__":
    sys.exit(main())
