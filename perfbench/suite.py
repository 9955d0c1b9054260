"""Workloads, timed operations and the output gate of the benchmark.

Every workload runs the same eleven operations, so every end-to-end metric is
measured on every workload: one `bench.ENGINES[tag]` call per selection
engine and one in-process `pairdesign evaluate` CLI call per evaluation
algorithm. Workloads differ in the instance shape, which moves the work
between layers; README.md maps each layer to the workload that stresses it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from pairdesign import bench, cli, report

clock = time.perf_counter

LAM = 1e-4
N_ABSOLUTE = 10
ENGINE_TAGS = ("ng", "fg", "sg", "nl", "flp", "flm", "slp", "slm")
LAZY_TAGS = ("nl", "flp", "flm", "slp", "slm")
# `random` is left out: its time is mostly one MAP fit on random pairs, and
# on two seeds in ten that fit runs to the 5,000-iteration cap, which doubles
# the call; its spread across seeds stays above any bound the suite allows.
EVALUATE_ALGORITHMS = ("sg", "flp", "entropy")
# Operations that a `--trace 0` run calls once, to check their output, but
# does not time; the traced pass still times their layers. The time of the
# `sg` and `entropy` evaluate calls is mostly MAP fits, whose iteration
# counts follow the seed with a long tail (a fit after entropy selection runs
# to the 5,000-iteration cap on about one seed in three), so their spread
# across seeds is work, not noise. `evaluate.flp` is engine work, but one
# call takes most of a second, and on a busy host a call that long never
# runs at full speed (see run_rounds).
UNTIMED_OPS = tuple(f"evaluate.{algorithm}" for algorithm in EVALUATE_ALGORITHMS)
# Every workload makes the same evaluate calls: --synthetic n=200,d=64
# --k 32. With n > d the MAP fits converge; at many-dims' own shape (d > n)
# some run to the iteration cap, and the call time then depends on the
# seed more than on the code. MAP-fit iterations still vary from one
# instance to the next, so each call fits six instances (--repeats 6).
EVALUATE_N, EVALUATE_D, EVALUATE_K = 200, 64, 32
EVALUATE_REPEATS = 6

# Least time an operation spends in one round of the run; see run_rounds.
ROUND_FLOOR_S = 0.3


@dataclass(frozen=True)
class Workload:
    """Engine calls use N samples (full pair universe), d features, K picks."""

    name: str
    n: int
    d: int
    k: int

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("many-pairs", 80, 48, 20),
        Workload("many-dims", 50, 96, 30),
    )
}


def make_inputs(workload: Workload, seed: int):
    x, absolute_set, _ = bench.make_instance(seed, workload.n, workload.d, n_absolute=N_ABSOLUTE)
    return x, absolute_set


def selection_hash(selected) -> str:
    return hashlib.sha256(json.dumps([list(p) for p in selected]).encode()).hexdigest()


def evaluate_argv(algorithm: str, seed: int, out: Path, warm_up: bool = False) -> list[str]:
    k, repeats = (1, 1) if warm_up else (EVALUATE_K, EVALUATE_REPEATS)
    return [
        "evaluate", "--algorithm", algorithm,
        "--synthetic", f"n={EVALUATE_N},d={EVALUATE_D},n-absolute={N_ABSOLUTE}",
        "--k", str(k), "--lambda", repr(LAM), "--seed", str(seed),
        "--folds", "1", "--repeats", str(repeats), "--workers", "1", "--out", str(out),
    ]


class Gate:
    """Checks every operation's output against the recorded or agreed value.

    A recorded seed carries the `ng` selection hash and each evaluate report's
    content hash. On an unrecorded seed every engine must return the `ng`
    selection, repeated evaluate calls must return the same report, and the
    `sg` and `flp` reports must agree on every row apart from the algorithm.
    """

    def __init__(self, recorded: dict | None):
        recorded = recorded or {}
        self.selection = recorded.get("selection")
        self.reports: dict[str, str] = dict(recorded.get("reports", {}))
        self.engine_rows = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{op}: {message}")

    def check_selection(self, tag: str, selected) -> None:
        self.attempted += 1
        digest = selection_hash(selected)
        if self.selection is None:
            if tag != "ng":
                self.fail(f"select.{tag}", "ran before the ng reference")
                return
            self.selection = digest
        elif digest != self.selection:
            self.fail(f"select.{tag}", f"selection {digest[:12]} != expected {self.selection[:12]}")

    def check_report(self, algorithm: str, rep: report.Report) -> str:
        self.attempted += 1
        digest = rep.content_hash()
        expected = self.reports.setdefault(algorithm, digest)
        if digest != expected:
            self.fail(f"evaluate.{algorithm}", f"content_hash {digest[:12]} != expected {expected[:12]}")
        if algorithm in ("sg", "flp"):
            rows = [{k: v for k, v in row.items() if k != "algorithm"} for row in rep.to_dict()["rows"]]
            if self.engine_rows is None:
                self.engine_rows = rows
            elif rows != self.engine_rows:
                self.fail(f"evaluate.{algorithm}", "rows differ from the other engine's evaluate rows")
        return digest

    def record(self) -> dict:
        return {"selection": self.selection, "reports": dict(sorted(self.reports.items()))}


@dataclass
class Op:
    name: str  # select.<tag> or evaluate.<algorithm>
    metric: str
    run: object  # callable(warm_up: bool) -> output


def build_ops(workload: Workload, seed: int, x, absolute_set, out_dir: Path) -> list[Op]:
    ops = []
    for tag in ENGINE_TAGS:
        def select(warm_up=False, tag=tag):
            return bench.ENGINES[tag](x, absolute_set, 1 if warm_up else workload.k, LAM)

        ops.append(Op(f"select.{tag}", f"select_s.{tag}", select))
    for algorithm in EVALUATE_ALGORITHMS:
        path = out_dir / f"{workload.name}-{seed}-{algorithm}.json"

        def evaluate(warm_up=False, algorithm=algorithm, path=path):
            status = cli.main(evaluate_argv(algorithm, seed, path, warm_up))
            if status != 0:
                raise RuntimeError(f"pairdesign evaluate exited with {status}")
            return path

        ops.append(Op(f"evaluate.{algorithm}", f"evaluate_s.{algorithm}", evaluate))
    return ops


def check(gate: Gate, op: Op, output):
    """Gate one output; returns what a run keeps of it: the engine's
    SelectionTrace, or the report's content hash."""
    kind, _, tag = op.name.partition(".")
    if kind == "select":
        gate.check_selection(tag, output.selected)
        return output
    return gate.check_report(tag, report.load_report(output))


def timed(op: Op, warm_up: bool = False):
    """One call with a collected heap, so earlier garbage is not charged to it."""
    gc.collect()
    start = clock()
    output = op.run(warm_up)
    return clock() - start, output


def warm_up(ops: list[Op]) -> None:
    """One discarded call per operation on the same inputs, at K=1 (and one
    evaluate instance): it pays the first-call costs of each code path.

    Afterwards every object alive is frozen out of the collector's reach.
    A collection then scans only what later calls create: about 10 us where
    a full one takes about 50 ms, so each call can still start on a collected
    heap, and no call pays for a full collection of the interpreter's
    modules that a neighbouring call's garbage happened to trigger.
    """
    for op in ops:
        timed(op, warm_up=True)
    gc.collect()
    gc.freeze()


def call(op: Op, gate: Gate):
    """Time one checked call; returns (seconds, kept output), or None on failure."""
    try:
        elapsed, output = timed(op)
        return elapsed, check(gate, op, output)
    except Exception as exc:  # a failed operation is counted, not fatal
        gate.attempted += 1
        gate.fail(op.name, f"{type(exc).__name__}: {exc}")
        return None


def run_pass(ops: list[Op], gate: Gate, tracer=None):
    """Call each operation once; returns the summed time and the kept output
    per operation name."""
    total = 0.0
    outputs = {}
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        result = call(op, gate)
        if result is not None:
            total += result[0]
            outputs[op.name] = result[1]
    if tracer is not None:
        tracer.op = -1
    return total, outputs


def run_rounds(ops: list[Op], gate: Gate, seconds: float) -> dict:
    """Per-metric call times from calling the operations for `seconds`.

    The workloads keep every call to a few tens of milliseconds: on a busy
    host, full-speed stretches are that short, and the fastest of many short
    calls finds them where no call of a quarter second does.

    The run is a sequence of rounds. A round calls every operation once, and
    calls a cheap one again until it has spent ROUND_FLOOR_S in the round,
    so the calls of every operation are spread evenly over the whole run
    and a cheap operation gets many of them. An operation sits out once its
    next call would end after the deadline; the run ends when all do. Every
    operation is called at least once.
    """
    deadline = clock() + seconds
    samples = {op.metric: [] for op in ops}
    failed = set()
    while True:
        called = False
        for op in ops:
            times = samples[op.metric]
            spent = 0.0
            while op.name not in failed and spent < ROUND_FLOOR_S:
                if times and clock() + statistics.fmean(times) > deadline:
                    break
                result = call(op, gate)
                if result is None:
                    failed.add(op.name)
                else:
                    times.append(result[0])
                    spent += result[0]
                    called = True
        if not called:
            return {metric: times for metric, times in samples.items() if times}
