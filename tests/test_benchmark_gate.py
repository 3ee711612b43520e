"""The benchmark's correctness gate, run as part of the test suite.

perfbench/run.py --self-test corrupts every output of every workload and
exits 0 only if the gate rejects every item, so a kernel that accepts a
damaged certificate fails here as well as in the benchmark.  It writes
only a temporary directory under perfbench/_out/, which it removes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_gate_rejects_every_corrupted_item():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    verdict = json.loads(run.stdout.splitlines()[-1])
    assert verdict["self_test"] == "gate fired on every item"
    assert set(verdict["fail_ratio"]) == {"certify", "compile", "closure"}
    assert all(ratio == 1.0 for ratio in verdict["fail_ratio"].values())
