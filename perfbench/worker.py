"""One measurement pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, the inputs written by ``run.py``, the mode and
the file to write the result to.  Modes:

- ``setup``: import trigof and run the warm-up operation, timed together.
- ``run``: after set-up, run ``rounds`` whole rounds from ``first_round``
  on, traced or not, and stop early only if ``stop_after_s`` has passed at
  the end of a round.

``trigof`` is imported from the ``src`` directory named in the job and
nowhere else.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

clock = time.perf_counter


def _record(case, ds, ms, ops, errors=None, out=None):
    errors = dict(errors or {})
    return {"case": case, "ds": ds, "ms": ms, "ops": ops,
            "failed": sum(errors.values()), "errors": errors, "out": out}


class DeskTest:
    """``cli.main(["test", FILE, "--family", F])`` per operation."""

    def __init__(self, spec):
        from trigof import cli
        self.cli = cli
        self.files = spec["files"]
        self.order = spec["order"]
        self.last_error = None
        # cli.main turns exceptions into exit code 2; note their type on the way
        tracing.wrap_failures("gof", "run_test", on_error=self._note)

    def _note(self, exc):
        self.last_error = type(exc).__name__

    def warm_up(self):
        case = wl.cases("desk-test")[0]
        self.op(case, self.order[case][0])

    def op(self, case, ds):
        argv = ["test", self.files[f"{case}/{ds}"], "--family", wl.family(case)]
        self.last_error = None
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        ms = (clock() - t) * 1e3
        if rc != 0:
            return _record(case, ds, ms, 1, {self.last_error or f"exit{rc}": 1})
        payload = json.loads(out.getvalue())
        return _record(case, ds, ms, 1, out={"t_n": payload["t_n"], "p_chi2": payload["p_chi2"]})


class Bootstrap:
    """One bootstrap p-value (``BOOT_REPS`` replications) per operation."""

    def __init__(self, spec):
        from trigof import gof
        self.gof = gof
        self.data = {k: np.asarray(v, dtype=float) for k, v in spec["data"].items()}
        self.order = spec["order"]

    def warm_up(self):
        case = wl.BOOT_CASES[0]
        ds = self.order[case][0]
        self.gof.run_test(wl.family(case), "ml", None, self.data[f"{case}/{ds}"],
                          mc={"reps": 1, "seed": ds})

    def op(self, case, ds):
        x = self.data[f"{case}/{ds}"]
        t = clock()
        try:
            res = self.gof.run_test(wl.family(case), "ml", None, x,
                                    mc={"reps": wl.BOOT_REPS, "seed": ds})
        except Exception as exc:  # an aborted p-value fails all its replications
            return _record(case, ds, (clock() - t) * 1e3, wl.BOOT_REPS,
                           {type(exc).__name__: wl.BOOT_REPS})
        ms = (clock() - t) * 1e3
        errors = {"RefitFailed": res.mc_failed} if res.mc_failed else None
        return _record(case, ds, ms, wl.BOOT_REPS, errors,
                       {"t_n": res.tn, "exceed": res.mc_exceed, "mc_failed": res.mc_failed})


class MonteCarlo:
    """Study cells and empirical power (``MC_REPS`` replications each) and
    asymptotic power curves (no replications)."""

    def __init__(self, spec):
        from trigof import power, simharness
        self.power = power
        self.simharness = simharness
        self.order = spec["order"]
        self.cells = {
            name: simharness.CellConfig(name, fam, "ml", theta, wl.MC_N, known, dfam, dtheta)
            for name, (fam, theta, known, dfam, dtheta) in wl.MC_CELLS.items()}
        self.nonfinite = 0
        # the batch path reports failed=0 even for non-finite T_n; count them here
        tracing.wrap_failures("_batch", "batch_tn", on_result=self._count_nonfinite)

    def _count_nonfinite(self, tn):
        tn = np.asarray(tn)
        self.nonfinite += int(tn.size - np.count_nonzero(np.isfinite(tn)))

    def _alternative(self, case):
        theta0, delta = wl.MC_EMPIRICAL[case]
        return self.power.LocalAlternative(self.power.AltCase(case), theta0, delta)

    def warm_up(self):
        ds = self.order["power:weibull"][0]
        self.power.empirical_power(self._alternative("weibull"), wl.MC_N, 1, ds)

    def op(self, case, ds):
        kind, name = case.split(":")
        if kind == "curve":
            theta0, grid = wl.MC_CURVES[name]
            t = clock()
            points = self.power.power_curve(name, theta0, grid, wl.MC_ALPHA)
            ms = (clock() - t) * 1e3
            return _record(case, ds, ms, 0, out={"power": [float(p.power) for p in points]})
        before = self.nonfinite
        t = clock()
        try:
            if kind == "study":
                cfg = self.simharness.StudyConfig((self.cells[name],), reps=wl.MC_REPS,
                                                  alpha=wl.MC_ALPHA, seed=ds, workers=1)
                cell = self.simharness.run_study(cfg).cells[0]
                failed, rejections, ok = cell.failed, cell.rejections, cell.ok
            else:
                res = self.power.empirical_power(self._alternative(name), wl.MC_N,
                                                 wl.MC_REPS, ds)
                failed = res["failed"]
                rejections = round(res["rate"] * max(wl.MC_REPS - failed, 1))
                ok = True
        except Exception as exc:
            return _record(case, ds, (clock() - t) * 1e3, wl.MC_REPS,
                           {type(exc).__name__: wl.MC_REPS})
        ms = (clock() - t) * 1e3
        errors = collections.Counter()
        if not ok:
            errors["CellNotOk"] = wl.MC_REPS
        else:
            if failed:
                errors["RefitFailed"] = failed
            if self.nonfinite > before:
                errors["NonFiniteTn"] = self.nonfinite - before
        return _record(case, ds, ms, wl.MC_REPS, errors,
                       {"rejections": int(rejections), "failed": int(failed)})


RUNNERS = {"desk-test": DeskTest, "bootstrap": Bootstrap, "montecarlo": MonteCarlo}


def run_rounds(runner, workload, order, first, rounds, stop_after_s):
    """Rounds ``first`` to ``first + rounds - 1``; returns the per-operation
    records and the wall time."""
    case_list = wl.cases(workload)
    records = []
    start = clock()
    for r in range(first, first + rounds):
        for case in case_list:
            records.append(runner.op(case, order[case][r % wl.POOL[workload]]))
        if clock() - start > stop_after_s:
            break
    return records, clock() - start


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    spec = json.loads(Path(job["inputs"]).read_text())
    workload = spec["workload"]
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = clock()
    import trigof
    if src not in Path(trigof.__file__).resolve().parents:
        raise SystemExit(f"trigof was imported from {trigof.__file__}, not from {src}")
    runner = RUNNERS[workload](spec)
    runner.warm_up()
    result = {"setup_s": clock() - t0}

    if job["mode"] != "setup":
        tracer = None
        if job.get("trace"):
            tracer = tracing.Tracer()
            tracer.install()
        records, wall = run_rounds(runner, workload, spec["order"],
                                            job.get("first_round", 0), job["rounds"],
                                            job["stop_after_s"])
        from trigof import quadrature
        result.update({
            "records": records,
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cache_entries": len(getattr(quadrature, "_h_cache", ())),
        })
        if tracer is not None:
            tracer.write(job["spans"])
            result["counters"] = dict(tracer.counters)
            result["missing"] = tracer.missing
    Path(job["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
