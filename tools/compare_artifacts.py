"""Byte comparison of the command-line outputs of two checkouts.

Usage (from the repository root):

    python3 tools/compare_artifacts.py PARENT CHANGE [--seeds N]

PARENT and CHANGE are two checkouts of this repository.  Each case runs one
``hardykpz`` command in both, as ``python -m hardykpz.cli`` with
``PYTHONPATH=<checkout>/src`` and ``OPENBLAS_NUM_THREADS=1``, each from an
empty working directory that holds only the case's ``config.json``; the
command writes to ``out/`` there.  The cases are:

* the config of every benchmark workload at seeds 1..N (default 6), made by
  ``perfbench/run.py``'s ``WORKLOADS`` of this script's checkout and run
  with the workload's own command-line arguments;
* four damped configs: a damped solve (alpha = 1, mu = 100, M = 100,
  13 levels) with ``"supersolution": "auto"`` and with ``"none"``; a
  ``--workers 2`` sweep over alpha_damp x p; and a sweep with a plan-level
  ``alpha_damp``.

A case differs when its exit code, stdout, stderr, or the set or bytes of
the files it leaves differ.  The script prints one line per case and exits 1
when any case differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0  # seconds for one command


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _damped_cases() -> dict:
    problem = {"N": 3, "s": 0.75, "lambda": 0.11, "p": 1.2, "mu": 100.0}
    source = {"coefficient": 0.3, "exponent": 1.5}
    run = {"problem": problem, "grid": {"R": 1.0, "M": 100, "g": 2.0},
           "controls": {"n_levels": 13}, "source": source, "alpha_damp": 1.0}
    plan = {"problem": {**problem, "mu": 1e-3}, "grid": {"R": 1.0, "M": 64, "g": 2.0},
            "source": source, "n_levels": 10}
    p_axis = {"name": "p", "start": 1.1, "stop": 1.4, "count": 2}
    return {
        "damped-auto": (["solve"], {**run, "supersolution": "auto"}),
        "damped-none": (["solve"], {**run, "supersolution": "none"}),
        "damped-sweep-axis-w2": (["sweep", "--workers", "2"], {"plan": {**plan, "axes": [
            {"name": "alpha_damp", "start": 0.0, "stop": 1.5, "count": 4}, p_axis]}}),
        "damped-sweep-plan": (["sweep"], {"plan": {
            **plan, "alpha_damp": 1.0, "axes": [{**p_axis, "count": 4}]}}),
    }


def cases(seeds: int) -> dict:
    """Case name -> (CLI arguments, config)."""
    out = {}
    for name, (make_config, cli_args, _) in _workloads().items():
        for seed in range(1, seeds + 1):
            out[f"{name}/seed{seed}"] = (cli_args, make_config(random.Random(f"{name}/{seed}")))
    out.update(_damped_cases())
    return out


def run_case(checkout: Path, cli_args: list, cfg: dict, work: Path) -> dict:
    """Exit code, stdout, stderr and the bytes of every file left in ``work``."""
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(cfg, indent=1))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, "-m", "hardykpz.cli", cli_args[0], "--config", "config.json",
            "--output-dir", "out", *cli_args[1:]]
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def differences(a: dict, b: dict) -> list:
    diffs = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    names = sorted(set(a["files"]) | set(b["files"]))
    return diffs + [name for name in names if a["files"].get(name) != b["files"].get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, default=6, help="seeds 1..N of each workload")
    args = ap.parse_args(argv)
    checkouts = [args.parent.resolve(), args.change.resolve()]
    for checkout in checkouts:
        if not (checkout / "src" / "hardykpz" / "cli.py").is_file():
            sys.stderr.write(f"error: no package source under {checkout}\n")
            return 2
    differing = []
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        for k, (name, (cli_args, cfg)) in enumerate(cases(args.seeds).items()):
            a, b = (run_case(checkout, cli_args, cfg, Path(tmp) / f"case{k}" / side)
                    for checkout, side in zip(checkouts, ("parent", "change")))
            diffs = differences(a, b)
            print(f"{'DIFFERS' if diffs else 'same'} {name} (exit {a['exit code']}, "
                  f"{len(a['files'])} files)" + (f": {', '.join(diffs)}" if diffs else ""),
                  flush=True)
            if diffs:
                differing.append(name)
    if differing:
        print(f"{len(differing)} case(s) differ: {', '.join(differing)}")
        return 1
    print("every case is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
