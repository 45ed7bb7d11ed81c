"""Benchmark of the trigof package: three workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk-test --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a closed loop of the rounds that ``--seconds`` allots (see
workloads.py) in one worker process.  ``--trace 1`` runs a third of that
schedule three times, each in a fresh interpreter (untraced, traced, traced
again), reports the per-layer
metrics of the first traced pass, checks that the two traced passes counted
the same work, and reports the tracing overhead.  Either way every result is
compared with ``reference.json``; the last line of output is one JSON object.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7          # fresh interpreters whose set-up time is measured
# The timed rounds are split over this many fresh worker processes, run one
# after another, so that no single process's memory layout sets the numbers.
TIMED_WORKERS = 4
DEADLINE_S = 170.0        # the whole command must end within 180 s
STOP_AFTER_S = 120.0      # a worker starts no round after this (a very slow program)

END_TO_END = {
    "setup_s": "s",
    "goodput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "iterations": "count",
                   "nonconverged": "count", "failed": "count", "misses": "count",
                   "hit_ratio": "fraction", "miss_ms": "ms", "cache_entries": "count",
                   "rows": "count", "nonfinite": "count", "overhead_frac": "fraction"}

# Output tolerances.  Loose enough for h integrals replaced by 1e-10-accurate
# surrogates (T_n moves by ~1e-9), tight enough that a fit landing on another
# root, or a changed sampler, shows.
REL_TOL = 1e-6
ABS_TOL = 1e-9
COUNT_TOL = 1


class BenchError(RuntimeError):
    pass


def run_worker(job: dict, work: Path, deadline: float) -> dict:
    tag = f"{job['mode']}-{len(list(work.glob('job-*.json')))}"
    job_path = work / f"job-{tag}.json"
    job["out"] = str(work / f"out-{tag}.json")
    job_path.write_text(json.dumps(job))
    # one single-threaded closed loop: no BLAS thread pools
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(Path(job["out"]).read_text())


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def _close(a, b) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * abs(b))


def _matches(out: dict, ref: dict) -> bool:
    for key, want in ref.items():
        got = out.get(key)
        if got is None:
            return False
        if key in ("exceed", "rejections", "mc_failed", "failed"):
            if abs(int(got) - int(want)) > COUNT_TOL:
                return False
        elif isinstance(want, list):
            if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
                return False
        elif not _close(float(got), float(want)):
            return False
    return True


def check_outputs(records, reference) -> dict:
    """Compare every result with the reference.

    A failure where the reference has a result is a mismatch; a result where
    the reference failed is accepted as a fix.
    """
    checked, fixed, mismatches = 0, [], []
    for rec in records:
        key = wl.ref_key(rec["case"], rec["ds"])
        ref = reference.get(key)
        if ref is None:
            mismatches.append(f"{key}: no reference value")
        elif rec["out"] is None:
            if "error" not in ref:
                mismatches.append(f"{key}: failed ({', '.join(rec['errors'])}), "
                                  f"reference succeeded")
        elif "error" in ref:
            fixed.append(key)
        elif _matches(rec["out"], ref):
            checked += 1
        else:
            mismatches.append(f"{key}: got {rec['out']}, reference {ref}")
    return {"checked": checked, "fixed": sorted(set(fixed)), "mismatches": mismatches}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tally(records) -> dict:
    ops = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    by_type = collections.defaultdict(collections.Counter)
    for r in records:
        for etype, count in r["errors"].items():
            by_type[etype][r["case"]] += count
    # a failed (aborted) call misses any latency limit: it sorts as +inf
    latencies = [r["ms"] if r["out"] is not None else math.inf
                 for r in records if r["ops"] > 0]
    return {"ops": ops, "failed": failed, "by_type": by_type, "latencies": latencies}


def end_to_end(loop: dict, setups: list[float]) -> tuple[dict, dict]:
    t = tally(loop["records"])
    succeeded = t["ops"] - t["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "goodput_ops_per_s": succeeded / loop["wall_s"],
        "latency_p50_ms": wl.percentile(t["latencies"], 0.50),
        "latency_p90_ms": wl.percentile(t["latencies"], 0.90),
        "success_rate": succeeded / t["ops"],
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    return metrics, t


def timed_run(args, work, deadline, reference):
    inputs = wl.write_inputs(args.workload, args.seed, work)
    base = {"inputs": str(inputs), "src": str(ROOT / "src")}
    rounds = wl.rounds(args.workload, args.seconds)
    workers = min(TIMED_WORKERS, rounds)
    bounds = [rounds * k // workers for k in range(workers + 1)]
    setups = [run_worker(dict(base, mode="setup"), work, deadline)["setup_s"]
              for _ in range(SETUP_PROBES - workers)]
    parts = [run_worker(dict(base, mode="run", first_round=lo, rounds=hi - lo,
                             stop_after_s=STOP_AFTER_S / workers), work, deadline)
             for lo, hi in zip(bounds, bounds[1:])]
    setups += [p["setup_s"] for p in parts]
    loop = {"records": [r for p in parts for r in p["records"]],
            "wall_s": sum(p["wall_s"] for p in parts),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts)}
    metrics, t = end_to_end(loop, setups)
    check = check_outputs(loop["records"], reference)

    n_lat = len(t["latencies"])
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"in {len(parts)} workers  wall {loop['wall_s']:.2f} s  trace off")
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "goodput_ops_per_s": f"{t['ops'] - t['failed']} of {t['ops']} operations succeeded",
        "latency_p50_ms": f"{n_lat} calls",
        "latency_p90_ms": f"{n_lat} calls",
        "success_rate": "1 - error_rate",
        "peak_rss_mb": "largest of the timed workers",
    }
    for name, value in metrics.items():
        print(f"  {name:<20} {value:<14.6g} {END_TO_END[name]:<9} {notes[name]}")
    error_rate = t["failed"] / t["ops"]
    print(f"  {'error_rate':<20} {error_rate:<14.6g} {'fraction':<9} "
          f"{t['failed']} of {t['ops']} operations failed")
    print_failures(t["by_type"])
    print_check(check)
    return metrics, t, check["mismatches"] == []


def print_failures(by_type):
    for etype, cases in sorted(by_type.items()):
        detail = ", ".join(f"{case} x{count}" for case, count in sorted(cases.items()))
        print(f"    {etype}: {sum(cases.values())} ({detail})")


def print_check(check):
    print(f"  output check: {check['checked']} results match reference.json, "
          f"{len(check['mismatches'])} mismatches, "
          f"{len(check['fixed'])} reference failures now succeed")
    for line in check["mismatches"][:20]:
        print(f"    MISMATCH {line}")
    for key in check["fixed"]:
        print(f"    fixed: {key}")


def traced_run(args, work, deadline, reference):
    rounds = wl.rounds(args.workload, args.seconds / 3)
    inputs = wl.write_inputs(args.workload, args.seed, work)
    base = {"inputs": str(inputs), "src": str(ROOT / "src"), "mode": "run", "rounds": rounds,
            "stop_after_s": STOP_AFTER_S / 3}
    plain = run_worker(dict(base), work, deadline)
    passes = []
    for i in (1, 2):
        spans_path = work / f"spans-{i}.tsv"
        out = run_worker(dict(base, trace=True, spans=str(spans_path)), work, deadline)
        summary = tracing.summarize(tracing.read_spans(spans_path))
        out["layers"] = tracing.layer_metrics(summary, out["counters"], out["cache_entries"])
        out["summary"] = summary
        out["spans_path"] = spans_path
        passes.append(out)
    first, second = passes
    metrics = first["layers"]

    def goodput(p):
        t = tally(p["records"])
        return (t["ops"] - t["failed"]) / p["wall_s"]

    metrics["trace.overhead_frac"] = goodput(first) / goodput(plain) - 1.0
    repeat = [f"{k}: {first['layers'][k]} vs {second['layers'][k]}"
              for k in tracing.EXACT_COUNTS if first["layers"][k] != second["layers"][k]]
    checks = [check_outputs(p["records"], reference) for p in (plain, first, second)]
    kept = ROOT / ".perfbench_run" / f"spans-{args.workload}-seed{args.seed}.tsv"
    shutil.copyfile(first["spans_path"], kept)

    print(f"workload {args.workload}  seed {args.seed}  fixed schedule of {rounds} rounds  "
          f"trace on  (spans kept in {kept.relative_to(ROOT)})")
    print(f"  untraced pass {plain['wall_s']:.2f} s, traced passes "
          f"{first['wall_s']:.2f} s and {second['wall_s']:.2f} s")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:<14.6g} {PER_LAYER_UNITS[name.rsplit('.', 1)[1]]}")
    print_shares(first["summary"])
    if first["missing"]:
        print(f"  not traced (absent from the package): {', '.join(first['missing'])}")
    print(f"  exact counts repeat across the two traced passes: "
          f"{'yes' if not repeat else 'NO'}")
    for line in repeat:
        print(f"    DIFFERS {line}")
    t = tally(first["records"])
    print_failures(t["by_type"])
    print_check(checks[1])
    correct = not repeat and all(c["mismatches"] == [] for c in checks)
    return metrics, t, correct


def print_shares(summary):
    """Self time per layer as a share of the time spent inside traced calls."""
    total = summary["traced_ms"]
    rows = [(s["self_ms"], name) for name, s in summary["layers"].items()
            if name != "quadrature.integrate_domain"]
    rows.append((summary["h_miss_ms"], "quadrature.h misses (integrate_domain)"))
    print(f"  self-time shares of {total:.1f} ms inside traced calls:")
    for ms, name in sorted(rows, reverse=True):
        if ms > 0:
            print(f"    {name:<40} {ms:12.1f} ms  {100.0 * ms / total:6.2f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "trigof" / "__init__.py").is_file():
        print(f"error: no trigof package under {ROOT / 'src'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    work = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        metrics, t, correct = run(args, work, deadline, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = {m: PER_LAYER_UNITS[m.rsplit(".", 1)[1]] for m in metrics}
    else:
        units = END_TO_END
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(t["ops"]),
        "failed": int(t["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
