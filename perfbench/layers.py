"""Per-layer metrics of a traced pass.

Phase seconds, touch counts and memo counts come from the SelectionTrace
that each engine call returns; everything else comes from the spans and heap
aggregates recorded by `spans.Tracer`. Per-engine metrics (`heap.<tag>.*`,
`lazy.<tag>.*`, `greedy.<tag>.*`) use the benchmark's direct engine calls;
layer totals (`linalg.*`, `design.*`, `greedy.<function>.*`, `model.*`,
`bench.*`, `report.*`) cover every call of the pass, evaluate calls included.
"""

from __future__ import annotations

from collections import defaultdict

from suite import ENGINE_TAGS, LAZY_TAGS
from spans import HEAP_OP

EAGER_TAGS = tuple(t for t in ENGINE_TAGS if t not in LAZY_TAGS)
LINALG = ("gram_factor", "sherman_morrison_downdate", "update_vector", "invert_spd")

# Bytes the scalar downdate `cached - (z[pi] - z[pj]) ** 2` streams per
# candidate pair and iteration, counting float64/intp arrays of |C| entries:
# reads of pi, pj, the two gathers, the difference, the square and `cached`
# (7 x 8) plus writes of the two gathers, difference, square and result (5 x 8).
SG_UPDATE_BYTES_PER_PAIR = 96


def _phase_metrics(prefix: str, trace) -> dict:
    return {
        f"{prefix}.preprocess_s": trace.preprocessing_seconds,
        f"{prefix}.find_max_s": sum(trace.find_max_seconds),
        f"{prefix}.update_s": sum(trace.update_seconds),
    }


def layer_metrics(tracer, ops, outputs, workload) -> dict:
    """`ops` lists the traced pass's op names by op id; `outputs` maps op name
    to the engine's SelectionTrace for select ops."""
    op_of = {name: index for index, name in enumerate(ops)}
    self_times = tracer.self_times()
    calls = defaultdict(int)
    seconds = defaultdict(float)
    self_seconds = defaultdict(float)
    per_op = defaultdict(float)
    for index, (name, start, end, parent, op) in enumerate(tracer.spans):
        calls[name] += 1
        seconds[name] += end - start
        self_seconds[name] += self_times[index]
        per_op[(op, name)] += end - start

    m = {}
    cells = workload.k * workload.pairs
    touches = heap_ops = 0
    for tag in LAZY_TAGS:
        op = op_of[f"select.{tag}"]
        trace = outputs[f"select.{tag}"]
        op_calls, op_seconds = tracer.leaf.get((op, HEAP_OP), (0, 0.0))
        lazy = _phase_metrics(f"lazy.{tag}", trace)
        m[f"heap.{tag}.build_s"] = per_op[(op, "heap.build")]
        m[f"heap.{tag}.op_s"] = op_seconds
        m.update(lazy)
        m[f"lazy.{tag}.refresh_s"] = lazy[f"lazy.{tag}.find_max_s"] - op_seconds
        touches += sum(trace.touch_counts)
        heap_ops += op_calls
        if trace.memo_counts is not None:
            computed = sum(trace.memo_counts)
            m[f"lazy.{tag}.memo_computed"] = computed
            m[f"lazy.{tag}.memo_ratio"] = computed / (workload.n * workload.k)
    m["heap.ops"] = heap_ops
    m["lazy.touches"] = touches
    m["lazy.touch_ratio"] = touches / (len(LAZY_TAGS) * cells)

    for tag in EAGER_TAGS:
        m.update(_phase_metrics(f"greedy.{tag}", outputs[f"select.{tag}"]))
    for name in ("quadratic_gains", "factorization_gains"):
        m[f"greedy.{name}.calls"] = calls[f"greedy.{name}"]
        m[f"greedy.{name}.s"] = seconds[f"greedy.{name}"]
    update_bytes = SG_UPDATE_BYTES_PER_PAIR * cells
    m["greedy.sg.update_bytes"] = update_bytes
    m["greedy.sg.update_gbps"] = update_bytes / m["greedy.sg.update_s"] / 1e9

    for name in LINALG:
        m[f"linalg.{name}.calls"] = calls[f"linalg.{name}"]
        m[f"linalg.{name}.s"] = seconds[f"linalg.{name}"]
    for name in ("init_design", "pair_arrays"):
        m[f"design.{name}.s"] = seconds[f"design.{name}"]

    fits = [tracer.results[i] for i, span in enumerate(tracer.spans) if span[0] == "model.map_fit"]
    m["model.map_fit.calls"] = len(fits)
    m["model.map_fit.s"] = seconds["model.map_fit"]
    m["model.map_fit.iterations"] = sum(fit.iterations for fit in fits)
    m["model.map_fit.converged_share"] = sum(fit.converged for fit in fits) / max(len(fits), 1)
    for name in ("auc", "entropy_select"):
        m[f"model.{name}.s"] = seconds[f"model.{name}"]
    m["bench.run_evaluation.self_s"] = self_seconds["bench.run_evaluation"]
    m["report.emit_report.s"] = seconds["report.emit_report"]
    return m


UNITS = {"calls": "count", "ops": "count", "touches": "count", "memo_computed": "count",
         "iterations": "count", "update_bytes": "bytes", "update_gbps": "GB/s"}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_s") or last == "s":
        return "s"
    return "ratio"
