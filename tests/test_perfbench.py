"""The benchmark's self-test, run as part of the test suite.

The benchmark wraps library names at run time, for example `heap.LazyHeap`,
`lazy.init_design`, `greedy.pair_arrays` and `report.emit_report`, so a
refactor that drops one of them fails here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest: PASS" in result.stdout
