"""Per-layer tracing from outside the program.

``install`` rebinds the public ``chmkit`` functions named in ``TIMED``
and ``COUNTED`` at every module binding that holds them (for example
``chmkit.census.is_chm`` as well as ``chmkit.matrices.is_chm``), plus
``sympy.simplify``, which ``chmkit.pairs`` calls through the module.
No source file is touched. A timed wrapper records a span (name, start,
end, parent, item); a counted wrapper only bumps a counter, because
timing calls that cheap would cost more than the work they time.

Spans stay in memory. ``layer_metrics`` turns them into calls and self
time per layer, where self time is a span's duration minus the time its
child spans cover. The run is single-threaded, so spans nest strictly
and no layer waits on another.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Timed layers: span name -> (module, attribute).
TIMED = {
    "census.enumerate_chms": ("chmkit.census", "enumerate_chms"),
    "census.classify_census": ("chmkit.census", "classify_census"),
    "matrices.is_chm": ("chmkit.matrices", "is_chm"),
    "equivalence.sorted_canonical_form": ("chmkit.equivalence", "sorted_canonical_form"),
    "equivalence.complex_equivalent": ("chmkit.equivalence", "complex_equivalent"),
    "solve.solve_unit_circle": ("chmkit.solve", "solve_unit_circle"),
    "solve.solve_torus": ("chmkit.solve", "solve_torus"),
    "arrays.classify_array": ("chmkit.arrays", "classify_array"),
    "arrays.nonsimple_witness_search": ("chmkit.arrays", "nonsimple_witness_search"),
    "pairs.common_solutions": ("chmkit.pairs", "common_solutions"),
    "residues.complete_rows": ("chmkit.residues", "complete_rows"),
    "residues.completion_depth": ("chmkit.residues", "completion_depth"),
    "sympy.simplify": ("sympy", "simplify"),
}

# Counted layers: counter name -> (module, class or None, attribute).
COUNTED = {
    "matrices.Matrix6": ("chmkit.matrices", "Matrix6", "__init__"),
    "exactnum.UnitValue.mul": ("chmkit.exactnum", "UnitValue", "__mul__"),
    "exactnum.unit_sum": ("chmkit.exactnum", None, "unit_sum"),
}

PAIR_METHODS = (
    "gcd", "vacuous-side", "real-line-quadric", "difference",
    "substitution-family", "ruled-line",
)

ROOT = "bench.run"
ITEM = "bench.item"


def _metric(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


def _per_layer():
    out = []
    for name in TIMED:
        out.append(_metric(f"{name}.calls", "count", "lower"))
        out.append(_metric(f"{name}.self_s", "s", "lower"))
    for name in COUNTED:
        out.append(_metric(f"{name}.calls", "count", "lower"))
    out += [
        _metric("census.nodes", "count", "lower"),
        _metric("census.matrices", "count", "lower"),
        _metric("equivalence.complex_equivalent.hit_ratio", "ratio", "higher"),
        _metric("arrays.nonsimple_witness_search.found_ratio", "ratio", "higher"),
    ]
    out += [_metric(f"pairs.method.{m}", "count", "lower") for m in PAIR_METHODS]
    out += [
        _metric(f"{ROOT}.self_s", "s", "lower"),
        _metric(f"{ITEM}.self_s", "s", "lower"),
        _metric("trace.wall_s", "s", "lower"),
        _metric("trace.overhead_s", "s", "lower"),
    ]
    return out


# Every per-layer metric a traced run prints, in BENCHMARK.json order.
PER_LAYER = _per_layer()


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        # [name, start, end, parent index, item id]
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.active = False
        self.item = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def timed(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, wrapper, modules) -> int:
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def _on_result(tracer: Tracer, name: str):
    counts = tracer.counts
    if name == "census.enumerate_chms":
        def record(report):
            counts["census.nodes"] += report.node_count
            counts["census.matrices"] += report.raw_count
    elif name == "equivalence.complex_equivalent":
        def record(cert):
            counts["equivalence.complex_equivalent.hits"] += cert is not None
    elif name == "arrays.nonsimple_witness_search":
        def record(witness):
            counts["arrays.nonsimple_witness_search.found"] += witness is not None
    elif name == "pairs.common_solutions":
        def record(verdict):
            counts[f"pairs.method.{verdict.method}"] += 1
    else:
        record = None
    return record


def install(tracer: Tracer) -> None:
    """Wrap every listed layer; ``chmkit`` and ``sympy`` must be imported."""
    chm_modules = [
        m for n, m in sys.modules.items()
        if m is not None and (n == "chmkit" or n.startswith("chmkit."))
    ]
    for name, (modname, attr) in TIMED.items():
        original = getattr(sys.modules[modname], attr)
        wrapper = tracer.timed(name, original, _on_result(tracer, name))
        if modname == "sympy":
            setattr(sys.modules["sympy"], attr, wrapper)
        elif not _rebind(original, wrapper, chm_modules):
            raise RuntimeError(f"no binding found for {modname}.{attr}")
    for name, (modname, cls, attr) in COUNTED.items():
        mod = sys.modules[modname]
        if cls is None:
            original = getattr(mod, attr)
            _rebind(original, tracer.counted(name, original), chm_modules)
        else:
            owner = getattr(mod, cls)
            setattr(owner, attr, tracer.counted(name, vars(owner)[attr]))


def self_times(spans) -> list:
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def check_nesting(spans) -> list:
    """Problems with the span tree; an empty list means it nests."""
    problems = []
    last_child_end = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) is not closed")
            continue
        if parent < 0:
            if i != 0:
                problems.append(f"span {i} ({name}) has no parent")
            continue
        if parent >= i:
            problems.append(f"span {i} ({name}) opens before its parent")
            continue
        _, pstart, pend, _, _ = spans[parent]
        if start < pstart or (pend is not None and end > pend):
            problems.append(f"span {i} ({name}) leaves its parent {parent}")
        if start < last_child_end.get(parent, pstart):
            problems.append(f"span {i} ({name}) overlaps a sibling")
        last_child_end[parent] = end
    return problems


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from one traced pass, keyed by metric name.

    ``trace.overhead_s`` needs an untraced pass too; the caller adds it.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = Counter()
    self_s = Counter()
    for (name, *_), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
    counts = tracer.counts
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNTED:
        out[f"{name}.calls"] = counts[name]
    out["census.nodes"] = counts["census.nodes"]
    out["census.matrices"] = counts["census.matrices"]
    ce = calls["equivalence.complex_equivalent"]
    out["equivalence.complex_equivalent.hit_ratio"] = (
        counts["equivalence.complex_equivalent.hits"] / ce if ce else 0.0
    )
    ws = calls["arrays.nonsimple_witness_search"]
    out["arrays.nonsimple_witness_search.found_ratio"] = (
        counts["arrays.nonsimple_witness_search.found"] / ws if ws else 0.0
    )
    for m in PAIR_METHODS:
        out[f"pairs.method.{m}"] = counts[f"pairs.method.{m}"]
    out[f"{ROOT}.self_s"] = self_s[ROOT]
    out[f"{ITEM}.self_s"] = self_s[ITEM]
    root = spans[0]
    out["trace.wall_s"] = root[2] - root[1]
    return out
