"""The benchmark's own output checks pass on one operation of each workload,
and its traced operation counts what it counted before.

``perfbench/run.py`` checks every operation's artifacts (``check_solve``,
``check_probe``, ``check_sweep``: statuses, the transition band around
p_plus, the probe's bracket).  With ``--seconds 0 --trace 1`` it runs one
untraced and one traced operation, so a change that breaks a check fails
here rather than only in a benchmark run, and so does one that changes a
per-layer counter or stops the tracer from seeing a layer (such as a child
process that no longer reports its worker totals).
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every integer per-layer counter at seed 1, cli.artifact_bytes aside
_SHARED = {"specfun.exponents_for.calls": 1, "radialop.assemble.calls": 1,
           "radialop.hyp2f1.points": 4800, "radialop.roots_legendre.calls": 5,
           "solver.lu_factor.calls": 1, "sweep.assemblies": 0}
COUNTERS = {
    "solve-m400": {**_SHARED, "specfun.gamma_multiplier.calls": 44,
                   "radialop.nnls.calls": 39, "radialop.gradient_values.calls": 120,
                   "construct.supersolution.calls": 1, "solver.scheme.calls": 1,
                   "solver.inner_iters": 118, "solver.levels": 17,
                   "solver.capped_levels": 0, "solver.lu_solve.calls": 118,
                   "solver.lu.flops_computed": 80426666, "sweep.cells": 0},
    "probe-m200-near": {**_SHARED, "specfun.gamma_multiplier.calls": 169,
                        "radialop.nnls.calls": 19, "radialop.gradient_values.calls": 2115,
                        "construct.supersolution.calls": 0, "solver.scheme.calls": 8,
                        "solver.inner_iters": 2105, "solver.levels": 105,
                        "solver.capped_levels": 0, "solver.lu_solve.calls": 2105,
                        "solver.lu.flops_computed": 173733333, "sweep.cells": 0},
    "sweep-p16-w2": {**_SHARED, "specfun.exponents_for.calls": 33,
                     "specfun.gamma_multiplier.calls": 1065, "radialop.nnls.calls": 19,
                     "radialop.gradient_values.calls": 1272,
                     "construct.supersolution.calls": 0, "solver.scheme.calls": 16,
                     "solver.inner_iters": 1256, "solver.levels": 184,
                     "solver.capped_levels": 0, "solver.lu_solve.calls": 1256,
                     "solver.lu.flops_computed": 105813333, "sweep.cells": 16},
}


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_one_benchmark_operation_passes_its_checks(workload):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    last = json.loads(r.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, r.stdout
    counters = {name: m["value"] for name, m in last["metrics"].items()
                if isinstance(m["value"], int) and name != "cli.artifact_bytes"}
    assert counters == COUNTERS[workload]
