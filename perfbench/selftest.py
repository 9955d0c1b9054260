"""Self-test of the benchmark on shrunk copies of its workloads.

Checks that every operation passes its output gate, that the traced pass
returns the same selections and report hashes as the untraced one, that
every name the tracer patched is restored, and that each run emits exactly
the metrics BENCHMARK.json declares. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run


def snapshot():
    from pairdesign import bench, greedy, lazy, linalg, model, report

    modules = (bench, greedy, lazy, linalg, model, report)
    names = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if not k.startswith("__")}
    names.update({("ENGINES", k): v for k, v in bench.ENGINES.items()})
    return names


def main() -> int:
    root = Path.cwd()
    src = run.prepare(root)
    import suite

    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    problems = []
    before = snapshot()
    for workload in suite.WORKLOADS.values():
        small = dataclasses.replace(workload, n=40, d=6, k=8)
        outputs = {}
        for trace in (0, 1):
            result, info, gate = run.measure(small, 3, 0.0, bool(trace), root, src, {})
            got = set(result["metrics"])
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload.name} trace={trace}: failed checks {gate.errors}")
            if got != wanted[trace]:
                problems.append(f"{workload.name} trace={trace}: missing {sorted(wanted[trace] - got)}, "
                                f"undeclared {sorted(got - wanted[trace])}")
            outputs[trace] = gate.record()
        if outputs[0] != outputs[1]:
            problems.append(f"{workload.name}: traced and untraced runs disagree: {outputs}")
    after = snapshot()
    changed = sorted(str(key) for key in before if after.get(key) is not before[key])
    if changed:
        problems.append(f"names not restored after tracing: {changed}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
