"""Span tracer that wraps the public functions of every coretower module.

The program is not changed: after import, each public function defined in
one of the layer modules is replaced by a wrapper in every coretower.*
namespace that binds it, so calls made through `from .x import f` names
are seen too.  Private helpers stay unwrapped, because wrapping the hot
ones costs more than the work they do.  Classes are not wrapped either.

Spans (name, start, end, parent) are kept in flat arrays and written out
once at the end; a span's self time is its duration minus the durations
of its direct children.  Counters that need the arguments (products in
the series kernel) are computed in their own "trace" span, so their cost
is not charged to any layer.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "genfun", "series", "tower", "partitions", "asymptotics")
ENUM_NEXT = "partitions.enumerate_partitions.next"


def _nonzero_prefix(coeffs) -> list[int]:
    """prefix[k] = number of nonzero coefficients among coeffs[0..k]."""
    out = []
    running = 0
    for c in coeffs:
        if c:
            running += 1
        out.append(running)
    return out


def mul_products(args, result) -> int:
    """Nonzero x nonzero coefficient pairs that mul(a, b) multiplies."""
    a, b = args
    n = len(a.coeffs) - 1
    pb = _nonzero_prefix(b.coeffs)
    return sum(pb[n - i] for i, ai in enumerate(a.coeffs) if ai)


def div_products(args, result) -> int:
    """Nonzero divisor coefficient x nonzero quotient coefficient pairs
    inside the truncation of div(a, b)."""
    b = args[1]
    n = len(b.coeffs) - 1
    po = _nonzero_prefix(result.coeffs)
    return sum(po[n - k] for k, bk in enumerate(b.coeffs) if k and bk)


PRODUCT_COUNTERS = {"series.mul": mul_products, "series.div": div_products}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op_first_span: list[int] = []
        self.counters: Counter[str] = Counter()
        self.originals: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- installation -------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"coretower.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                self.originals[qual] = obj
                wrappers[id(obj)] = (obj, self._wrap(qual, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "coretower" and not modname.startswith("coretower."):
                continue
            for attr, obj in list(vars(mod).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(mod, attr, found[1])

    def _wrap(self, qual: str, fn):
        nid = self._name_id(qual)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        post = PRODUCT_COUNTERS.get(qual)
        if qual == "partitions.enumerate_partitions":
            make_stream = fn

            def fn(*args, **kwargs):
                return _TimedIterator(self, make_stream(*args, **kwargs))

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                self._count_products(qual, post, args, result)
            return result

        return wrapper

    def _count_products(self, qual, post, args, result) -> None:
        idx = self.open_span("trace.count")
        self.counters[f"{qual}.products"] += post(args, result)
        self.close_span(idx)

    def open_span(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self) -> None:
        self.op_first_span.append(len(self.span_start))

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times and call counts, per-op self time by layer,
        per-function counts and cache statistics."""
        n = len(self.span_start)
        starts, ends, parents, names = (
            self.span_start, self.span_end, self.span_parent, self.span_name
        )
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]

        layer_of = [name.split(".")[0] for name in self.names]
        layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        layer_idx = [layer_ids.get(layer, -1) for layer in layer_of]
        self_by_name = [0.0] * len(self.names)
        calls_by_name = [0] * len(self.names)
        bounds = self.op_first_span + [n]
        per_op = [[0.0] * (len(bounds) - 1) for _ in LAYERS]
        op = -1
        next_bound = bounds[0] if bounds else n
        for i in range(n):
            while i >= next_bound and op + 1 < len(bounds) - 1:
                op += 1
                next_bound = bounds[op + 1]
            nid = names[i]
            s = (ends[i] - starts[i]) - child[i]
            self_by_name[nid] += s
            calls_by_name[nid] += 1
            k = layer_idx[nid]
            if k >= 0 and op >= 0:
                per_op[k][op] += s

        layers = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(layer_of) if lay == layer]
            layers[layer] = {
                "self_s": sum(self_by_name[i] for i in ids),
                "calls": sum(
                    calls_by_name[i] for i in ids if self.names[i] != ENUM_NEXT
                ),
            }
        functions = {
            name: {"self_s": self_by_name[i], "calls": calls_by_name[i]}
            for i, name in enumerate(self.names)
        }
        caches = {}
        for layer in LAYERS:
            hits = misses = entries = 0
            for qual, fn in self.originals.items():
                if qual.startswith(layer + ".") and hasattr(fn, "cache_info"):
                    info = fn.cache_info()
                    hits += info.hits
                    misses += info.misses
                    entries += info.currsize
            caches[layer] = {"hits": hits, "misses": misses, "entries": entries}
        return {
            "spans": n,
            "layers": layers,
            "functions": functions,
            "counters": dict(self.counters),
            "caches": caches,
            "self_by_op": {layer: per_op[k] for k, layer in enumerate(LAYERS)},
        }

    def write_spans(self, path) -> None:
        """One JSON header line (name table, span count), then the name,
        parent, start and end arrays in native binary layout."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            "op_first_span": self.op_first_span,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


class _TimedIterator:
    """Iterator proxy that records one span per next() call."""

    __slots__ = ("_tracer", "_it", "_nid")

    def __init__(self, tracer: Tracer, it) -> None:
        self._tracer = tracer
        self._it = it
        self._nid = tracer._name_id(ENUM_NEXT)

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        idx = len(tr.span_start)
        tr.span_name.append(self._nid)
        tr.span_parent.append(tr.stack[-1])
        tr.span_start.append(0.0)
        tr.span_end.append(0.0)
        tr.stack.append(idx)
        t0 = time.perf_counter()
        try:
            item = next(self._it)
        finally:
            tr.span_end[idx] = time.perf_counter()
            tr.span_start[idx] = t0
            tr.stack.pop()
        tr.counters["partitions.enumerated"] += 1
        return item
