"""Spans recorded from outside the package, by rebinding its public functions.

Nothing under ``src/`` is edited.  ``rebind`` points every module-level name
that a ``trigof`` module bound to a function at a wrapper, so callers that did
``from .quadrature import h`` at import time are traced as well as callers
that look the function up through its module.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

# (module, function): the layer boundaries.  specfun is not traced: its calls
# sit inside solver inner loops, so its time counts toward the caller's self
# time.  errors only defines exception types.
TARGETS = (
    ("cli", "main"), ("cli", "read_data"),
    ("gof", "run_test"),
    ("estimate", "fit"),
    ("families", "sample"), ("families", "sample_apd"), ("families", "cdf"),
    ("scaling", "sigma_from"),
    ("quadrature", "h"), ("quadrature", "integrate_domain"),
    ("_batch", "batch_fit"), ("_batch", "batch_pit"), ("_batch", "batch_tn"),
    ("_batch", "rejection_rate"),
    ("simharness", "run_study"),
    ("power", "power_curve"), ("power", "empirical_power"),
)


def rebind(original, replacement) -> None:
    """Bind ``replacement`` to every trigof module name bound to ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "trigof" or name.startswith("trigof.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def wrap_failures(module_name: str, func: str, on_error=None, on_result=None) -> None:
    """Observe outcomes of one function without timing it (failure accounting)."""
    module = importlib.import_module(f"trigof.{module_name}")
    original = getattr(module, func, None)
    if original is None:
        return

    @functools.wraps(original)
    def observed(*args, **kwargs):
        try:
            out = original(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        if on_result is not None:
            on_result(out)
        return out

    rebind(original, observed)


class Tracer:
    """In-memory span log: [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, func in TARGETS:
            try:
                module = importlib.import_module(f"trigof.{module_name}")
            except ImportError:
                self.missing.append(f"{module_name}.{func}")
                continue
            original = getattr(module, func, None)
            if original is None:
                self.missing.append(f"{module_name}.{func}")
                continue
            name = f"{module_name}.{func}"
            rebind(original, self._wrap(name, original, _OBSERVERS.get(name)))

    def _wrap(self, name, fn, observe):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counters[f"{name}.failed"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def _observe_fit(counters, res):
    counters["estimate.fit.iterations"] += int(getattr(res, "iterations", 0))
    if not getattr(res, "converged", True):
        counters["estimate.fit.nonconverged"] += 1


def _observe_tn(counters, tn):
    import numpy as np
    tn = np.asarray(tn)
    counters["_batch.batch_tn.rows"] += int(tn.size)
    counters["_batch.batch_tn.nonfinite"] += int(tn.size - np.count_nonzero(np.isfinite(tn)))


def _observe_study(counters, report):
    counters["simharness.run_study.failed"] += sum(
        int(getattr(cell, "failed", 0)) for cell in getattr(report, "cells", ()))


_OBSERVERS = {
    "estimate.fit": _observe_fit,
    "_batch.batch_tn": _observe_tn,
    "simharness.run_study": _observe_study,
}


def read_spans(path) -> list[tuple]:
    out = []
    with open(path) as fh:
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            out.append((name, float(start), float(end), int(parent)))
    return out


def summarize(spans) -> dict:
    """Per span name: calls and self_ms; plus h misses.

    Self time is a span's duration minus the durations of its child spans
    (children run on the same thread, strictly nested, so they never
    overlap).  A miss of ``quadrature.h`` is a call into
    ``quadrature.integrate_domain`` whose parent span is ``quadrature.h``.
    """
    stats = collections.defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
    misses = 0
    miss_ms = 0.0
    for name, start, end, parent in spans:
        dur = (end - start) * 1e3
        stats[name]["calls"] += 1
        stats[name]["self_ms"] += dur
        if parent >= 0:
            parent_name = spans[parent][0]
            stats[parent_name]["self_ms"] -= dur
            if name == "quadrature.integrate_domain" and parent_name == "quadrature.h":
                misses += 1
                miss_ms += dur
    top_ms = sum((end - start) * 1e3 for _, start, end, parent in spans if parent < 0)
    return {"layers": dict(stats), "h_misses": misses, "h_miss_ms": miss_ms,
            "traced_ms": top_ms}


def layer_metrics(summary: dict, counters: dict, cache_entries: int) -> dict:
    """The per-layer metrics of BENCHMARK.json (without trace.overhead_frac)."""
    layers = summary["layers"]

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    h_calls = get("quadrature.h", "calls")
    return {
        "estimate.fit.calls": get("estimate.fit", "calls"),
        "estimate.fit.self_ms": get("estimate.fit", "self_ms"),
        "estimate.fit.iterations": counters.get("estimate.fit.iterations", 0),
        "estimate.fit.nonconverged": counters.get("estimate.fit.nonconverged", 0),
        "estimate.fit.failed": counters.get("estimate.fit.failed", 0),
        "quadrature.h.calls": h_calls,
        "quadrature.h.misses": summary["h_misses"],
        "quadrature.h.hit_ratio": (1.0 - summary["h_misses"] / h_calls) if h_calls else 0.0,
        "quadrature.h.miss_ms": summary["h_miss_ms"],
        "quadrature.h.cache_entries": cache_entries,
        "scaling.sigma_from.calls": get("scaling.sigma_from", "calls"),
        "scaling.sigma_from.self_ms": get("scaling.sigma_from", "self_ms"),
        "scaling.sigma_from.failed": counters.get("scaling.sigma_from.failed", 0),
        "families.sample.calls": get("families.sample", "calls"),
        "families.sample.self_ms": get("families.sample", "self_ms"),
        "families.sample_apd.calls": get("families.sample_apd", "calls"),
        "families.sample_apd.self_ms": get("families.sample_apd", "self_ms"),
        "families.cdf.calls": get("families.cdf", "calls"),
        "families.cdf.self_ms": get("families.cdf", "self_ms"),
        "batch.batch_fit.self_ms": get("_batch.batch_fit", "self_ms"),
        "batch.batch_pit.self_ms": get("_batch.batch_pit", "self_ms"),
        "batch.batch_tn.self_ms": get("_batch.batch_tn", "self_ms"),
        "batch.batch_tn.rows": counters.get("_batch.batch_tn.rows", 0),
        "batch.batch_tn.nonfinite": counters.get("_batch.batch_tn.nonfinite", 0),
        "batch.rejection_rate.self_ms": get("_batch.rejection_rate", "self_ms"),
        "simharness.run_study.self_ms": get("simharness.run_study", "self_ms"),
        "simharness.run_study.failed": counters.get("simharness.run_study.failed", 0),
        "power.power_curve.self_ms": get("power.power_curve", "self_ms"),
        "power.empirical_power.self_ms": get("power.empirical_power", "self_ms"),
        "gof.run_test.calls": get("gof.run_test", "calls"),
        "gof.run_test.self_ms": get("gof.run_test", "self_ms"),
        "cli.main.self_ms": get("cli.main", "self_ms"),
        "cli.read_data.self_ms": get("cli.read_data", "self_ms"),
    }


# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("estimate.fit.calls", "estimate.fit.iterations", "quadrature.h.calls",
                "quadrature.h.misses", "scaling.sigma_from.calls", "families.sample.calls",
                "families.sample_apd.calls", "families.cdf.calls", "batch.batch_tn.rows",
                "gof.run_test.calls")
