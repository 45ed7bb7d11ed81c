"""Regenerate reference.json: the expected output of every pool input.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

Runs each workload's operation once on every dataset of the pool, in this
process, and records its output or the type of the exception it failed with.
Regenerate only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
import worker  # noqa: E402


def reference_for(workload: str, work: Path) -> dict:
    spec = json.loads(wl.write_inputs(workload, 0, work).read_text())
    runner = worker.RUNNERS[workload](spec)
    out = {}
    for case in wl.cases(workload):
        for ds in range(wl.POOL[workload]):
            key = wl.ref_key(case, ds)
            if key in out:
                continue
            rec = runner.op(case, ds)
            out[key] = rec["out"] if rec["out"] is not None else {"error": ", ".join(rec["errors"])}
            print(f"{workload} {key}: {out[key]}", flush=True)
    return out


def main():
    work = ROOT / ".perfbench_run" / "reference"
    try:
        ref = {w: reference_for(w, work / w) for w in wl.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
