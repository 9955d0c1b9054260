"""pairdesign benchmark: per-engine selection time and evaluate time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload many-pairs --seed 0 --seconds 50 --trace 0

With `--trace 0` the run measures end-to-end metrics with no wrappers
installed. With `--trace 1` it makes one untraced and one traced pass, prints
the per-layer metrics of the traced pass plus the tracing overhead (traced
minus untraced operation time) and writes the spans to `.perfbench_out/`.
The last line of standard output is the result as one JSON object.
`--record` stores the seed's selection and report hashes in expected.json
after a `--trace 0` run that failed no check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"
OUT_DIR = ".perfbench_out"

# The engines interleave Python loops with BLAS calls. On a 2-CPU machine
# threaded BLAS slowed them and doubled the call-to-call variation, so BLAS
# gets one thread; this must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5


class CheckoutError(Exception):
    pass


def prepare(root: Path) -> Path:
    """Point imports at the checkout's own sources; returns the src dir."""
    src = root / "src"
    if not (src / "pairdesign" / "__init__.py").is_file():
        raise CheckoutError(f"no pairdesign sources under {src}; run from the root of a checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import pairdesign

    if Path(pairdesign.__file__).resolve().parent != (src / "pairdesign").resolve():
        raise CheckoutError(f"imported pairdesign from {pairdesign.__file__}, not from {src}")
    return src


def measure_setup(workload, seed: int, src: Path):
    """Median fresh-interpreter import plus median instance generation."""
    import suite

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    imports, generation = [], []
    for _ in range(SETUP_SAMPLES):
        start = suite.clock()
        subprocess.run([sys.executable, "-c", "import pairdesign"], env=env, check=True)
        imports.append(suite.clock() - start)
    for _ in range(SETUP_SAMPLES):
        start = suite.clock()
        inputs = suite.make_inputs(workload, seed)
        generation.append(suite.clock() - start)
    setup_s = statistics.median(imports) + statistics.median(generation)
    return setup_s, inputs, {"import_s": imports, "instance_s": generation}


def end_to_end(ops, gate, seconds: float, setup_s: float, info: dict) -> dict:
    import suite

    suite.run_pass([op for op in ops if op.name in suite.UNTIMED_OPS], gate)
    samples = suite.run_rounds([op for op in ops if op.name not in suite.UNTIMED_OPS], gate, seconds)
    info["samples"] = samples
    # The fastest call, not the mean or median: on a shared machine the same
    # call runs at full speed or well below it, and the slow stretches come
    # and go over seconds to minutes, so the mean and median of one run
    # follow the neighbours' load. The fastest of calls spread over the run
    # reads the program's own cost and repeats from run to run.
    metrics = {metric: (min(times), "s") for metric, times in samples.items()}
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(ops, gate, workload, span_file: Path, info: dict) -> dict:
    import layers
    import spans
    import suite

    plain_total, plain = suite.run_pass(ops, gate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_total, traced = suite.run_pass(ops, gate, tracer=tracer)
    finally:
        tracer.restore()
    names = [op.name for op in ops]
    tracer.write(span_file, names)
    info.update(untraced_s=plain_total, traced_s=traced_total)
    for name, output in plain.items():
        if getattr(output, "selected", output) != getattr(traced.get(name), "selected", traced.get(name)):
            gate.fail(name, "traced output differs from the untraced one")
    if len(traced) < len(ops):
        return {}
    metrics = layers.layer_metrics(tracer, names, traced, workload)
    metrics["trace.overhead_s"] = traced_total - plain_total
    metrics["trace.overhead_share"] = (traced_total - plain_total) / plain_total
    return {name: (value, layers.unit_of(name)) for name, value in metrics.items()}


def measure(workload, seed: int, seconds: float, trace: bool, root: Path, src: Path, expected: dict):
    """One benchmark run; returns (result, info, gate)."""
    import suite

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    setup_s, (x, absolute_set), setup_info = measure_setup(workload, seed, src)
    ops = suite.build_ops(workload, seed, x, absolute_set, out_dir)
    gate = suite.Gate(expected.get(workload.name, {}).get(str(seed)))
    info = {"workload": workload.name, "seed": seed, "trace": int(trace), "setup": setup_info,
            "sg_update_working_set_bytes": 3 * 8 * workload.pairs}  # pi, pj, cached

    suite.warm_up(ops)
    if trace:
        metrics = per_layer(ops, gate, workload, out_dir / f"spans-{workload.name}-{seed}.jsonl", info)
    else:
        metrics = end_to_end(ops, gate, seconds, setup_s, info)
    info["errors"] = gate.errors
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's hashes in expected.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        src = prepare(root)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import machine
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    result, info, gate = measure(workload, args.seed, args.seconds, bool(args.trace), root, src, expected)
    info["environment"] = machine.environment(root)

    if args.record and not args.trace and gate.failed == 0:
        expected.setdefault(workload.name, {})[str(args.seed)] = gate.record()
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    out_file = root / OUT_DIR / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for error in gate.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print("environment " + json.dumps(info["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
