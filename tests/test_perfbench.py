"""The benchmark's self-test and a short run of each workload, as part of the test suite.

The benchmark wraps library names at run time, for example `heap.LazyHeap`,
`lazy.init_design`, `greedy.pair_arrays` and `report.emit_report`, so a
refactor that drops one of them fails here rather than in a benchmark run.
A short run of each workload checks the outputs against the hashes recorded
in `perfbench/expected.json`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest: PASS" in result.stdout


@pytest.mark.parametrize("workload", ["many-pairs", "many-dims"])
def test_perfbench_run_matches_the_recorded_hashes(workload):
    # selftest.py runs with no recorded hashes; a short run checks every
    # selection and evaluate hash of seed 0 against perfbench/expected.json
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", "0"]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert (outcome["correct"], outcome["failed"]) == (True, 0), result.stdout
