"""The benchmark's own output checks pass on one operation of each workload.

``perfbench/run.py`` checks every operation's artifacts (``check_solve``,
``check_probe``, ``check_sweep``: statuses, the transition band around
p_plus, the probe's bracket).  With ``--seconds 0`` it runs one operation,
so a change that breaks a check fails here rather than only in a benchmark
run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["solve-m400", "probe-m200-near", "sweep-p16-w2"])
def test_one_benchmark_operation_passes_its_checks(workload):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    last = json.loads(r.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, r.stdout
