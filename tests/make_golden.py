"""Golden outputs of ``gof.run_test`` on every supported (family, estimator,
mask) row, kept in ``golden/run_test.json`` and checked by ``test_golden.py``.

A supported row is a family of ``conftest.FAMILY_THETAS`` with an estimator
it has, under a mask of its FAMILY_THETAS values that leaves a parameter
free; an MM row keeps the shapes it requires known (``MM_REQUIRED_KNOWN``).
That makes 137 rows.  Each runs at n in {30, 200} on seeds {1, 2}, on the
sample drawn at the row's FAMILY_THETAS point from the key (seed, n).  An
entry holds theta-hat, the iterations, the converged flag, T_n and Sigma,
every float as hex, or the type of the error that ``run_test`` raised.  The
file records the Python, numpy and scipy versions that wrote it.

``compare`` is the check: theta-hat and T_n within 1e-12 relative in each
component, Sigma within 1e-12 of its largest entry, and the iterations, the
flag and the error type exactly.

    PYTHONPATH=src python tests/make_golden.py

rewrites the file and prints, row by row, what moved against the file it
replaces and by how much.
"""

from __future__ import annotations

import itertools
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import FAMILY_THETAS, MM_REQUIRED_KNOWN  # noqa: E402
from trigof import families as F  # noqa: E402
from trigof.errors import TrigofError  # noqa: E402
from trigof.estimate import KnownMask  # noqa: E402
from trigof.gof import run_test  # noqa: E402

PATH = Path(__file__).resolve().parent / "golden" / "run_test.json"
SIZES = (30, 200)
SEEDS = (1, 2)
RTOL = 1e-12


def supported_rows():
    """(family, kind, known names) of every supported row, in a fixed order."""
    for name in sorted(FAMILY_THETAS):
        fam = F.get_family(name)
        for kind in ("ml", "mm") if fam.has_mm else ("ml",):
            required = tuple(MM_REQUIRED_KNOWN.get(name, {})) if kind == "mm" else ()
            others = [p for p in fam.param_names if p not in required]
            for r in range(len(others)):
                for extra in itertools.combinations(others, r):
                    yield name, kind, tuple(p for p in fam.param_names if p in required + extra)


def row_id(name, kind, known) -> str:
    return f"{name}-{kind}" + "".join(f"-{p}" for p in known)


def outcomes(name, kind, known) -> dict:
    """The row's entries, keyed 'n=<n>,seed=<seed>'."""
    theta = FAMILY_THETAS[name]
    values = dict(zip(F.get_family(name).param_names, theta))
    mask = KnownMask.from_names(name, {p: values[p] for p in known}) if known else None
    out = {}
    for n, seed in itertools.product(SIZES, SEEDS):
        x = F.sample(name, theta, n, np.random.SeedSequence([seed, n]))
        try:
            res = run_test(name, kind, mask, x)
        except TrigofError as exc:
            out[f"n={n},seed={seed}"] = {"error": type(exc).__name__}
            continue
        out[f"n={n},seed={seed}"] = {
            "theta": [float(v).hex() for v in res.fit.theta],
            "iterations": res.fit.iterations,
            "converged": res.fit.converged,
            "tn": float(res.tn).hex(),
            "sigma": [float(v).hex() for v in res.sigma.ravel()],
        }
    return out


def _floats(values):
    return np.array([float.fromhex(v) for v in values])


def compare(want: dict, got: dict) -> list[str]:
    """What moved from ``want`` to ``got``, one line per quantity; empty
    where the entries agree."""
    if "error" in want or "error" in got:
        same = want.get("error") == got.get("error")
        return [] if same else [f"outcome {want.get('error', 'ok')} -> {got.get('error', 'ok')}"]
    moved = [f"{k} {want[k]} -> {got[k]}" for k in ("iterations", "converged") if want[k] != got[k]]
    for k in ("theta", "tn", "sigma"):
        w, g = _floats(np.atleast_1d(want[k])), _floats(np.atleast_1d(got[k]))
        scale = np.max(np.abs(w)) if k == "sigma" else np.abs(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(g == w, 0.0, np.abs(g - w) / scale)
        if np.max(rel) > RTOL:
            moved.append(f"{k} by {np.max(rel):.3g} relative")
    return moved


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    old = json.loads(PATH.read_text())["rows"] if PATH.exists() else {}
    rows = {}
    for name, kind, known in supported_rows():
        rid = row_id(name, kind, known)
        rows[rid] = outcomes(name, kind, known)
        for key, entry in rows[rid].items():
            if rid not in old or key not in old[rid]:
                print(f"{rid} {key}: new")
                continue
            for line in compare(old[rid][key], entry):
                print(f"{rid} {key}: {line}")
    for rid in sorted(set(old) - set(rows)):
        print(f"{rid}: gone")
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps({"versions": versions(), "rows": rows}, indent=1) + "\n")
    entries = [e for r in rows.values() for e in r.values()]
    errors = sum("error" in e for e in entries)
    print(f"{len(rows)} rows, {len(entries)} entries ({errors} errors) written to {PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
