"""Span tracer for the traced benchmark pass.

``Tracer.install`` rebinds the public functions of each layer module of the
imported package to timing wrappers, including names that other modules bound
with ``from ... import``; no source file is touched and ``uninstall`` restores
every binding.  The wrapper of ``mc.run_replications`` also wraps its
``sampler`` argument, so sampler time and engine time split, and it counts
hits and the largest sample on the sampler's output.

Spans are kept in memory as [id, parent, name, start, end, run] and written
out by the caller when the run ends.  A span's self time is its duration minus
that of its children; the traced pass runs on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "mc", "bridge", "isdrift", "ruin", "longterm", "credit", "cramer", "tilt", "oracles")
ORACLES = ("binomial_tail", "ruin_probability_exponential", "up_out_call_price",
           "up_in_bond_probability", "credit_tail_quadrature")
# calls whose arguments or results the per-layer metrics need
_RECORDED = {
    "mc.run_replications", "bridge.price_knockout", "isdrift.price_up_in_bond", "isdrift.mu_is_estimator",
    "isdrift.ghs_drift", "ruin.simulate_ruin_is",
    "longterm.mc_outperformance", "credit.two_step_is", "cramer.is_tail",
}


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.calls: dict[str, list] = defaultdict(list)  # name -> [(span, arguments, result)]
        self.samples: list[list] = []  # per engine call: [values, hits, largest, sum]
        self.run = 0
        self._stack: list[list] = []
        self._bindings: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, self.run]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        recorded = name in _RECORDED
        engine = name == "mc.run_replications"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if engine:
                args, kwargs = self._wrap_sampler(signature, args, kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if recorded:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.calls[name].append((span, bound.arguments, result))
            return result

        return wrapper

    def _wrap_sampler(self, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        sampler = bound.arguments["sampler"]
        name = sampler.__module__.rsplit(".", 1)[-1] + ".sampler"
        stats = [0, 0, 0.0, 0.0]
        self.samples.append(stats)

        def traced_sampler(ss, size):
            span = self._open(name)
            try:
                values = sampler(ss, size)
            finally:
                self._close(span)
            span = self._open("trace.stats")
            arr = np.asarray(values, dtype=float)
            stats[0] += arr.size
            stats[1] += int(np.count_nonzero(arr))
            stats[2] = max(stats[2], float(arr.max()))
            stats[3] += float(arr.sum())
            self._close(span)
            return values

        bound.arguments["sampler"] = traced_sampler
        return bound.args, bound.kwargs

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._bindings:
            setattr(module, attr, obj)
        self._bindings.clear()


def _tail_percentile(count: int) -> float:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 for a layer the pass never called)."""
    dur = {s[0]: s[4] - s[3] for s in tracer.spans}
    child = defaultdict(float)
    for s in tracer.spans:
        if s[1] is not None:
            child[s[1]] += dur[s[0]]
    by_name = defaultdict(list)
    self_time = defaultdict(float)
    for s in tracer.spans:
        by_name[s[2]].append(dur[s[0]])
        self_time[s[2].split(".", 1)[0]] += dur[s[0]] - child[s[0]]

    def calls(name):
        return len(by_name[name])

    def per_call(name, scale):
        return scale * sum(by_name[name]) / len(by_name[name]) if by_name[name] else 0.0

    def rate(name, work, keep=lambda a: True):
        picked = [(dur[span[0]], work(a)) for span, a, _ in tracer.calls[name] if keep(a)]
        seconds = sum(t for t, _ in picked)
        return sum(w for _, w in picked) / seconds if seconds > 0.0 else 0.0

    batches = sorted(t for name, ts in by_name.items() if name.endswith(".sampler") for t in ts)
    q = _tail_percentile(len(batches))
    values = sum(s[0] for s in tracer.samples)
    engine = tracer.calls["mc.run_replications"]
    m = {
        "mc.calls": calls("mc.run_replications"),
        "mc.batches": len(batches),
        "mc.replications": sum(a["n"] for _, a, _ in engine),
        "mc.sampler_s": sum(batches),
        "mc.engine_self_s": sum(dur[span[0]] - child[span[0]] for span, _, _ in engine),
        "mc.batch_ms.p50": 1e3 * float(np.percentile(batches, 50.0)) if batches else 0.0,
        "mc.batch_ms.ptail": 1e3 * float(np.percentile(batches, q)) if batches else 0.0,
        "mc.batch_ms.ptail_q": q,
        "mc.hit_frac": sum(s[1] for s in tracer.samples) / values if values else 0.0,
        "mc.max_weight_share": max((s[2] / s[3] for s in tracer.samples if s[3] > 0.0), default=0.0),
    }
    for method in ("corrected", "naive"):
        m[f"bridge.knockout.{method}.steps_per_s"] = rate(
            "bridge.price_knockout", lambda a: a["N"] * a["model"].steps, lambda a, k=method: a["method"] == k)
    naive = m["bridge.knockout.naive.steps_per_s"]
    m["bridge.knockout.corrected_over_naive"] = m["bridge.knockout.corrected.steps_per_s"] / naive if naive else 0.0
    ghs = tracer.calls["isdrift.ghs_drift"]
    m.update({
        "isdrift.up_in_bond.steps_per_s": rate("isdrift.price_up_in_bond", lambda a: a["N"] * a["steps"]),
        "isdrift.ghs_drift.us": per_call("isdrift.ghs_drift", 1e6),
        "isdrift.ghs_drift.iterations": sum(r.iterations for _, _, r in ghs) / len(ghs) if ghs else 0.0,
        "isdrift.mu_is.reps_per_s": rate("isdrift.mu_is_estimator", lambda a: a["N"]),
        "ruin.is.reps_per_s": rate("ruin.simulate_ruin_is", lambda a: a["N"]),
        "longterm.mc.steps_per_s": rate(
            "longterm.mc_outperformance",
            lambda a: a["N"] * sum(max(int(round(h / a["euler_step"])), 1) for h in a["horizons"])),
        "credit.two_step_is.reps_per_s": rate("credit.two_step_is", lambda a: a["N"]),
        "cramer.is_tail.reps_per_s": rate("cramer.is_tail", lambda a: a["N"]),
    })
    for name in ("ruin.adjustment_coefficient", "tilt.saddle_theta"):
        m[f"{name}.us"] = per_call(name, 1e6)
        m[f"{name}.calls"] = calls(name)
    for name in ("longterm.solve_dual", "longterm.dual_to_value", "credit.factor_shift",
                 "cli.parse_config", "cli.render_csv"):
        m[f"{name}.us"] = per_call(name, 1e6)
    m["longterm.lq_dual.calls"] = calls("longterm.lq_dual")
    for name in ORACLES:
        m[f"oracles.{name}.ms"] = per_call(f"oracles.{name}", 1e3)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m
