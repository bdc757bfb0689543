"""Layer tracing from outside the program.

The tracer wraps the public functions of each gwcommute module (plus
``numpy.fft.fftn``/``ifftn`` and one private hook, ``cgl._Stepper.advance``)
and records one span per call: name, start, end, parent span and the
workload item it belongs to.  The modules bind names with
``from .x import f``, so every module namespace that holds the original
function gets the wrapper, not only the one that defines it.

Spans stay in memory; ``metrics()`` turns them into the per-layer metrics
listed in PER_LAYER, and ``write_spans()`` dumps them as JSON lines.

Self time is a span's duration minus the part of it that its child spans
cover.  Each thread keeps its own span stack; work items that
``ordered_map`` hands to pool threads take the dispatching
``parallel.ordered_map`` span as their parent.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (metric, unit) as BENCHMARK.json lists them.  A metric "<span>.<stat>"
# with stat in _SPAN_STATS comes from the spans of that name unless a
# counter of that name exists (as for fft.calls); every other metric is a
# counter or is filled in separately (trace.overhead_frac,
# machine.fft_probe_ms).
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]

# module-level functions: (defining module, attribute, span name)
_FUNCTIONS = [
    ("numpy.fft", "fftn", "fft"),
    ("numpy.fft", "ifftn", "fft"),
    ("gwcommute.semigroup", "apply_fourier", "semigroup.apply_fourier"),
    ("gwcommute.semigroup", "spectral_derivative", "semigroup.spectral_derivative"),
    ("gwcommute.semigroup", "convolve_weighted_kernel", "semigroup.convolve_weighted_kernel"),
    ("gwcommute.semigroup", "weighted_kernel_grid", "semigroup.weighted_kernel_grid"),
    ("gwcommute.grid", "weight_multiply", "grid.weight_multiply"),
    ("gwcommute.grid", "weight_multiply_radial", "grid.weight_multiply_radial"),
    ("gwcommute.grid", "lp_norm", "grid.lp_norm"),
    ("gwcommute.grid", "boundary_mass_fraction", "grid.boundary_mass_fraction"),
    ("gwcommute.commutator", "identity_reports", "commutator.identity_reports"),
    ("gwcommute.commutator", "commutator_direct", "commutator.commutator_direct"),
    ("gwcommute.commutator", "evaluate_R_theorem", "commutator.evaluate_R_theorem"),
    ("gwcommute.commutator", "evaluate_R_convolution", "commutator.evaluate_R_convolution"),
    ("gwcommute.estimates", "verify_theorem_1_2", "estimates.verify_theorem_1_2"),
    ("gwcommute.estimates", "verify_radial_remark", "estimates.verify_radial_remark"),
    ("gwcommute.estimates", "verify_lipschitz_commutator",
     "estimates.verify_lipschitz_commutator"),
    ("gwcommute.estimates", "kernel_moment_bound_report",
     "estimates.kernel_moment_bound_report"),
    ("gwcommute.cgl", "simulate", "cgl.simulate"),
    ("gwcommute.cgl", "decay_records", "cgl.decay_records"),
    ("gwcommute.cgl", "weighted_records", "cgl.weighted_records"),
    ("gwcommute.config", "parse_suite_config", "config.parse_suite_config"),
    ("gwcommute.cli", "main", "cli.main"),
    ("gwcommute.reporting", "render_csv", "reporting.render_csv"),
    ("gwcommute.reporting", "write_atomic", "reporting.write_atomic"),
]

# methods, patched on the class: (module, class, attribute, span name)
_METHODS = [
    ("gwcommute.grid", "GridFunction", "__post_init__", "grid.GridFunction.init"),
    ("gwcommute.cgl", "_Stepper", "advance", "cgl.advance"),
    ("gwcommute.catalog", "TestFunctionSpec", "realize", "catalog.realize"),
]

_ITEM_SPAN = "parallel.ordered_map.item"

# a call to one of these starts a new workload item: an identity case, a
# CGL step, a suite invocation
_ITEM_STARTS = {"commutator.identity_reports", "cgl.advance", "cli.main"}


def _fft_counts(args, kwargs, result):
    """fft.calls counts 1-d transforms: fftn/ifftn run one per axis, so a
    2-d call counts two (as a profile of numpy's pocketfft counts them)."""
    a = args[0]
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    return {"fft.calls": a.ndim if axes is None else len(axes), "fft.points": a.size}


def _text_bytes(metric, position):
    def count(args, kwargs, result):
        text = result if position is None else args[position]
        return {metric: len(text.encode("utf-8"))}
    return count


# counters taken from a traced call's arguments or result, by span name
_COUNTS = {
    "fft": _fft_counts,
    "reporting.render_csv": _text_bytes("reporting.render_csv.bytes", None),
    "reporting.write_atomic": _text_bytes("reporting.write_atomic.bytes", 1),
}

# helpers that bound no layer of their own; only their result lengths count
_COUNTED_HELPERS = [
    ("gwcommute.commutator", "expand_R_terms", "commutator.evaluate_R_theorem.terms"),
    ("gwcommute.commutator", "convolution_pairs", "commutator.evaluate_R_convolution.pairs"),
]

_SPAN_STATS = {"calls", "self_s", "total_s", "p50_ms", "p95_ms", "p50_us", "p99_us"}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _span_stat(stats: dict, stat: str) -> float:
    if stat == "calls":
        return stats["calls"]
    if stat in ("self_s", "total_s"):
        return stats[stat[:-2]]
    scale = 1e3 if stat.endswith("_ms") else 1e6
    return scale * _percentile(stats["durations"], int(stat[1:3]) / 100.0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, item)
        self.counters: Counter = Counter()
        self.pool_workers: dict[int, int] = {}  # pooled ordered_map span -> workers
        self.item = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # counters are updated from pool threads
        self._undo: list[tuple] = []

    # spans ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None, count=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        item = self.item
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent or 0, item))
        if count is not None:
            self._count(count(args, kwargs, result))
        return result

    def _count(self, updates: dict) -> None:
        with self._lock:
            self.counters.update(updates)

    def wrap(self, name, fn):
        count = _COUNTS.get(name)
        new_item = name in _ITEM_STARTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_item:
                self.item += 1
            return self._call(name, fn, args, kwargs, count=count)

        return traced

    def _wrap_ordered_map(self, fn, worker_count):
        @functools.wraps(fn)
        def ordered_map(work, items):
            items = list(items)
            workers = worker_count(len(items))
            self._count({"parallel.ordered_map.items": len(items)})
            holder = {}

            def item_fn(x):
                return self._call(_ITEM_SPAN, work, (x,), {}, parent=holder["sid"])

            def dispatch():
                holder["sid"] = self._stack()[-1]
                if workers > 1 and len(items) > 1:
                    self._count({"parallel.ordered_map.pooled": 1})
                    self.pool_workers[holder["sid"]] = workers
                return fn(item_fn, items)

            return self._call("parallel.ordered_map", dispatch, (), {})

        return ordered_map

    # installing -------------------------------------------------------------

    def _rebind(self, original, wrapper, definer) -> None:
        """Point every gwcommute namespace (and the definer) that holds
        ``original`` at ``wrapper``."""
        modules = [definer] + [
            mod for key, mod in list(sys.modules.items())
            if (key == "gwcommute" or key.startswith("gwcommute.")) and mod is not definer
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import importlib

        importlib.import_module("gwcommute.cli")  # imports every traced module
        for mod_name, attr, name in _FUNCTIONS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._rebind(original, self.wrap(name, original), mod)
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        for mod_name, attr, metric in _COUNTED_HELPERS:
            mod = sys.modules[mod_name]
            original = getattr(mod, attr)
            self._rebind(original, self._counting(original, metric), mod)
        parallel = sys.modules["gwcommute.parallel"]
        self._rebind(parallel.ordered_map,
                     self._wrap_ordered_map(parallel.ordered_map, parallel.worker_count),
                     parallel)

    def _counting(self, fn, metric):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count({metric: len(result)})
            return result
        return counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # results ----------------------------------------------------------------

    def metrics(self, wall_s: float, span_cost_s: float) -> dict[str, float]:
        """Every PER_LAYER metric except machine.fft_probe_ms.

        ``span_cost_s`` is the measured cost of one span (see
        ``span_cost``); overhead_frac = spans x cost / wall.
        """
        children = defaultdict(list)
        for sid, _name, start, end, parent, _item in self.spans:
            children[parent].append((start, end))
        by_name = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                       "durations": []})
        pooled_busy, pooled_capacity = 0.0, 0.0
        for sid, name, start, end, parent, _item in self.spans:
            duration = end - start
            stats = by_name[name]
            stats["calls"] += 1
            stats["total"] += duration
            stats["self"] += duration - _covered(children.get(sid, ()), start, end)
            stats["durations"].append(duration)
            if name == _ITEM_SPAN and parent in self.pool_workers:
                pooled_busy += duration
            if sid in self.pool_workers:
                pooled_capacity += duration * self.pool_workers[sid]
        empty = {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}
        out = {}
        for metric, _unit in PER_LAYER:
            span, _, stat = metric.rpartition(".")
            if stat in _SPAN_STATS and metric not in self.counters:
                out[metric] = _span_stat(by_name.get(span, empty), stat)
            else:
                out[metric] = self.counters.get(metric, 0)
        out["parallel.ordered_map.busy_ratio"] = (
            pooled_busy / pooled_capacity if pooled_capacity else 0.0
        )
        out["trace.overhead_frac"] = len(self.spans) * span_cost_s / wall_s
        del out["machine.fft_probe_ms"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "item": item}))
                fh.write("\n")


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        for _ in range(calls):
            noop()
        plain = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (perf_counter() - start - plain) / calls)
        probe.spans.clear()
    return max(best, 0.0)
