"""The per-layer tracer in perfbench/ still finds the names it wraps.

perfbench/tracing.py records spans by replacing module-level names of the
package (``radialop.assemble_operator``, ``solver.solve_kpz``,
``sweep._run_cell``, ...).  A rename or a call that bypasses the module
global silently zeroes a per-layer metric; this test runs a solve, a probe and a
two-worker sweep under the tracer and requires each span to be counted.  The
solve and the probe must each assemble their operator once.  The probe must
factor its operator once and make one ``solver.lu_solve`` call per
inner Picard iteration.  The two-worker sweep must assemble and factor its
one operator once, counting the parent and the workers together.  The solve
builds its supersolution, whose one exponent report must reach
``specfun.exponents_for`` through the module attribute: a name bound at
import in ``construct`` would escape the count.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from hardykpz import cli
tr = tracing.install(sys.argv[2])
assert cli.main(["probe", "--config", sys.argv[3], "--output-dir", sys.argv[4]]) == 0
probe = tr.collect()
assert cli.main(["solve", "--config", sys.argv[3], "--output-dir", sys.argv[5]]) == 0
before = tr.collect()["calls"]
solve = {name: n - probe["calls"].get(name, 0) for name, n in before.items()}
assert cli.main(["sweep", "--config", sys.argv[6], "--output-dir", sys.argv[7],
                 "--workers", "2"]) == 0
calls = tr.collect()["calls"]
sweep = {name: n - before.get(name, 0) for name, n in calls.items()}
print(json.dumps({"probe": probe, "solve": solve, "sweep": sweep, "calls": calls}))
"""


def test_tracer_counts_every_wrapped_layer(tmp_path):
    problem = {"N": 3, "s": 0.75, "lambda": 0.2, "p": 1.25, "mu": 1e-3}
    source = {"coefficient": 0.3, "exponent": 1.5}
    grid = {"R": 1.0, "M": 32, "g": 2.0}
    solve = {"problem": problem, "grid": grid, "controls": {"n_levels": 10},
             "source": source, "supersolution": "auto"}
    sweep = {"plan": {"problem": problem, "grid": grid, "source": source,
                      "axes": [{"name": "p", "start": 1.2, "stop": 1.3, "count": 2}],
                      "n_levels": 10}}
    paths = {}
    for name, cfg in (("solve", solve), ("sweep", sweep)):
        paths[name] = os.path.join(tmp_path, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh)
    workers = os.path.join(tmp_path, "workers")
    os.makedirs(workers)
    r = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"), workers,
         paths["solve"], os.path.join(tmp_path, "probe_out"),
         os.path.join(tmp_path, "solve_out"),
         paths["sweep"], os.path.join(tmp_path, "sweep_out")],
        capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    calls = out["calls"]
    for name in ("solver.scheme", "radialop.assemble", "sweep.cell"):
        assert calls.get(name, 0) > 0, name
    assert calls["sweep.cell"] == 2
    probe = out["probe"]
    assert probe["calls"]["solver.scheme"] > 1
    assert probe["calls"]["solver.lu_factor"] == 1
    assert probe["calls"]["solver.lu_solve"] == probe["counts"]["solver.inner_iters"] > 0
    solve = out["solve"]
    assert solve["construct.supersolution"] == 1
    assert solve["specfun.exponents_for"] == 1
    # the CLI assembles each run's operator once, and the scheme runs on it
    assert probe["calls"]["radialop.assemble"] == 1
    assert solve["radialop.assemble"] == 1
    # the sweep's parent assembles and factors its one operator; the workers
    # only solve with it
    sweep = out["sweep"]
    assert sweep["radialop.assemble"] == 1
    assert sweep["solver.lu_factor"] == 1
