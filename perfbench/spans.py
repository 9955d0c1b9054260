"""In-memory span recorder that wraps pairdesign's layer functions.

Each wrapped call records a span (name, start, end, parent, op): `parent` is
the index of the enclosing span or -1, and `op` is the benchmark operation
that caused it. Heap operations run hundreds of thousands of times per engine
call, so they are not kept as spans: each one is timed, added to a per-op
(count, seconds) aggregate, and charged to its parent span as child time.

`install` patches every name where its caller looks it up and `restore` puts
back the original objects, so an untraced run executes the unmodified code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter

HEAP_OP = "heap.op"
HEAP_METHODS = ("extract_max", "replace_top", "peek", "insert")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.results: dict[int, object] = {}
        self.leaf: dict = defaultdict(lambda: [0, 0.0])
        self.leaf_time: dict[int, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def span(self, name, fn, keep_result=False):
        """Wrap `fn` so that every call records one span."""
        spans, stack, results = self.spans, self._stack, self.results

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if keep_result:
                results[index] = result
            return result

        return traced

    def aggregate(self, name, fn):
        """Wrap `fn` so that calls are counted and timed, without spans."""
        stack, leaf, leaf_time = self._stack, self.leaf, self.leaf_time

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry = leaf[(self.op, name)]
                entry[0] += 1
                entry[1] += elapsed
                leaf_time[stack[-1] if stack else -1] += elapsed

        return traced

    def _patch(self, owner, attr, replacement):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def install(self):
        """Wrap each layer's public functions where their callers find them."""
        from pairdesign import bench, design, greedy, heap, lazy, linalg, model, report

        for tag, engine in list(bench.ENGINES.items()):
            self._patch(bench.ENGINES, tag, self.span(f"engine.{tag}", engine, keep_result=True))
        self._patch(bench, "run_evaluation", self.span("bench.run_evaluation", bench.run_evaluation))
        self._patch(report, "emit_report", self.span("report.emit_report", report.emit_report))
        self._patch(model, "map_fit", self.span("model.map_fit", model.map_fit, keep_result=True))
        for name in ("auc", "entropy_select"):
            self._patch(model, name, self.span(f"model.{name}", getattr(model, name)))
        for name in ("gram_factor", "sherman_morrison_downdate", "update_vector", "invert_spd"):
            self._patch(linalg, name, self.span(f"linalg.{name}", getattr(linalg, name)))
        self._patch(greedy, "quadratic_gains", self.span("greedy.quadratic_gains", greedy.quadratic_gains))
        factorization = self.span("greedy.factorization_gains", greedy.factorization_gains)
        init = self.span("design.init_design", design.init_design)
        for module in (greedy, lazy):
            self._patch(module, "factorization_gains", factorization)
            self._patch(module, "init_design", init)
        self._patch(greedy, "pair_arrays", self.span("design.pair_arrays", design.pair_arrays))

        base = heap.LazyHeap
        members = {"__slots__": (), "__init__": self.span("heap.build", base.__init__)}
        for method in HEAP_METHODS:
            members[method] = self.aggregate(HEAP_OP, getattr(base, method))
        self._patch(lazy, "LazyHeap", type("TracedLazyHeap", (base,), members))

    def restore(self):
        """Put back every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans and aggregated child calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i] - self.leaf_time.get(i, 0.0)
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]

    def write(self, path, ops):
        """Dump ops, spans and aggregates as JSON lines."""
        with open(path, "w") as fh:
            for op_id, op in enumerate(ops):
                fh.write(json.dumps({"op": op_id, "name": op}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
            for (op, name), (calls, seconds) in sorted(self.leaf.items()):
                fh.write(json.dumps({"aggregate": name, "op": op, "calls": calls, "seconds": seconds}) + "\n")
