"""Byte comparison of the command-line outputs of two checkouts.

Usage (from the repository root):

    python3 tools/compare_artifacts.py PARENT CHANGE [--seeds N]

PARENT and CHANGE are two checkouts of this repository.  Each case runs one
``hardykpz`` command in both, as ``python -m hardykpz.cli`` with
``PYTHONPATH=<checkout>/src`` and ``OPENBLAS_NUM_THREADS=1``, each from an
empty working directory that holds only the case's ``config.json`` (if it
has one); a command with a config writes to ``out/`` there.  The cases are:

* the config of every benchmark workload at seeds 1..N (default 6), made by
  ``perfbench/run.py``'s ``WORKLOADS`` of this script's checkout and run
  with the workload's own command-line arguments;
* five damped configs, each with ``alpha_damp`` in its problem: a damped
  solve (alpha = 1, mu = 100, M = 100, 13 levels) with
  ``"supersolution": "auto"`` and with ``"none"``; a probe of the ``"auto"``
  config; a ``--workers 2`` sweep over alpha_damp x p; and a sweep over p
  at alpha = 1;
* the README's ``oracle --refine`` run (N = 3, s = 0.75, theta = 0.2131,
  M = 200), which has no config and prints its result;
* the point commands at N = 3, s = 0.75, which take no config either:
  ``constants`` and ``exponents --lambda 0.2`` (each also writing its
  ``--out`` file), and ``exponents --table`` over 20 lambdas from 0.02 to
  0.5, past the Hardy constant 0.4464, so that the table has invalid rows.

A case differs when its exit code, stdout, stderr, or the set or bytes of
the files it leaves differ.  The script prints one line per case; for a
case that differs it also says whether its decisions are the same: the
status in ``report.json``, the status, bracket and evaluation statuses in
``probe.json``, and the status column of ``cells.csv``.  So a deliberate
change of the scheme can show "bytes differ, decisions same".  It then
sizes the difference: the largest relative change, position by position,
among the numbers of ``field.csv``, of ``report.json``, of the ``sup_norm``
column of ``cells.csv`` and of the ``oracle`` command's stdout.  The script
exits 1 when any case differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import random
import re
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
    problem = {"N": 3, "s": 0.75, "lambda": 0.11, "p": 1.2, "mu": 100.0, "alpha_damp": 1.0}
    source = {"coefficient": 0.3, "exponent": 1.5}
    run = {"problem": problem, "grid": {"R": 1.0, "M": 100, "g": 2.0},
           "controls": {"n_levels": 13}, "source": source}
    plan = {"problem": {**problem, "mu": 1e-3}, "grid": {"R": 1.0, "M": 64, "g": 2.0},
            "source": source, "n_levels": 10}
    p_axis = {"name": "p", "start": 1.1, "stop": 1.4, "count": 2}
    return {
        "damped-auto": (["solve"], {**run, "supersolution": "auto"}),
        "damped-none": (["solve"], {**run, "supersolution": "none"}),
        "damped-probe": (["probe"], {**run, "supersolution": "auto"}),
        "damped-sweep-axis-w2": (["sweep", "--workers", "2"], {"plan": {**plan, "axes": [
            {"name": "alpha_damp", "start": 0.0, "stop": 1.5, "count": 4}, p_axis]}}),
        "damped-sweep-p": (["sweep"], {"plan": {**plan, "axes": [{**p_axis, "count": 4}]}}),
    }


# the README's refinement check of the operator; it takes no config
_ORACLE_REFINE = ["oracle", "--N", "3", "--s", "0.75", "--theta", "0.2131", "--M", "200",
                  "--refine"]
# the commands that read no config: constants and exponents
_POINT = ["--N", "3", "--s", "0.75"]
_POINT_CASES = {
    "constants": ["constants", *_POINT, "--out", "constants.json"],
    "exponents": ["exponents", *_POINT, "--lambda", "0.2", "--out", "exponents.json"],
    "exponents-table": ["exponents", *_POINT, "--table", "--lambda-min", "0.02",
                        "--lambda-max", "0.5", "--count", "20"],
}


def cases(seeds: int) -> dict:
    """Case name -> (CLI arguments, config or None)."""
    out = {}
    for name, (make_config, cli_args, _) in _workloads().items():
        for seed in range(1, seeds + 1):
            out[f"{name}/seed{seed}"] = (cli_args, make_config(random.Random(f"{name}/{seed}")))
    out.update(_damped_cases())
    out["oracle-refine"] = (_ORACLE_REFINE, None)
    out.update((name, (argv, None)) for name, argv in _POINT_CASES.items())
    return out


def run_case(checkout: Path, cli_args: list, cfg: dict, work: Path) -> dict:
    """Exit code, stdout, stderr and the bytes of every file left in ``work``."""
    work.mkdir(parents=True)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, "-m", "hardykpz.cli", cli_args[0]]
    if cfg is not None:
        (work / "config.json").write_text(json.dumps(cfg, indent=1))
        argv += ["--config", "config.json", "--output-dir", "out"]
    argv += cli_args[1:]
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def differences(a: dict, b: dict) -> list:
    diffs = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    names = sorted(set(a["files"]) | set(b["files"]))
    return diffs + [name for name in names if a["files"].get(name) != b["files"].get(name)]


def decisions(files: dict) -> dict:
    """What a case's artifacts decided: report.json's status, probe.json's
    status, bracket and evaluation statuses, and cells.csv's status column."""
    out = {}
    if "out/report.json" in files:
        out["status"] = json.loads(files["out/report.json"])["status"]
    if "out/probe.json" in files:
        probe = json.loads(files["out/probe.json"])
        out["probe status"] = probe["status"]
        out["bracket"] = [probe["mu_lo"], probe["mu_hi"]]
        out["evaluations"] = [status for _, status in probe["evaluations"]]
    if "out/cells.csv" in files:
        rows = csv.DictReader(io.StringIO(files["out/cells.csv"].decode()))
        out["cells"] = [row["status"] for row in rows]
    return out


def _json_numbers(value) -> list:
    """Every number of a JSON value, in document order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _json_numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def numbers(result: dict, command: str) -> dict:
    """The numbers a case's difference is sized on: field.csv's, report.json's,
    cells.csv's sup_norm column and, for ``oracle``, stdout's."""
    files = result["files"]
    out = {}
    if "out/field.csv" in files:
        rows = files["out/field.csv"].decode().splitlines()[2:]
        out["field.csv"] = [float(x) for row in rows for x in row.split(",")]
    if "out/report.json" in files:
        out["report.json"] = _json_numbers(json.loads(files["out/report.json"]))
    if "out/cells.csv" in files:
        rows = csv.DictReader(io.StringIO(files["out/cells.csv"].decode()))
        out["sup_norm"] = [float(row["sup_norm"]) for row in rows]
    if command == "oracle":
        out["stdout"] = [float(x) for x in _NUMBER.findall(result["stdout"].decode())]
    return out


def largest_change(a: list, b: list):
    """max |x - y| / max(|x|, |y|) over the pairs of two lists of numbers of
    one length that differ (inf where one is not finite); None for lists of
    two lengths."""
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        change = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, change if math.isfinite(change) else math.inf)
    return worst


def decision_changes(a: dict, b: dict) -> list:
    """'name: parent -> change' for each decision that differs; for lists of
    one length, one entry per differing position."""
    changes = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            changes += [f"{key}[{k}]: {p} -> {c}" for k, (p, c) in enumerate(zip(x, y))
                        if p != c]
        else:
            changes.append(f"{key}: {x} -> {y}")
    return changes


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
            line = f"{'DIFFERS' if diffs else 'same'} {name} (exit {a['exit code']}, " \
                f"{len(a['files'])} files)"
            if diffs:
                differing.append(name)
                line += f": {', '.join(diffs)}"
                decided = decisions(a["files"]), decisions(b["files"])
                if any(decided):
                    changes = decision_changes(*decided)
                    line += "; decisions " + (f"differ: {'; '.join(changes)}" if changes
                                              else "same")
                before, after = numbers(a, cli_args[0]), numbers(b, cli_args[0])
                sizes = []
                for key, values in before.items():
                    if key in after:
                        change = largest_change(values, after[key])
                        sizes.append(f"{key} " + ("lengths differ" if change is None
                                                  else f"{change:.2g}"))
                if sizes:
                    line += "; largest relative change: " + ", ".join(sizes)
            print(line, flush=True)
    if differing:
        print(f"{len(differing)} case(s) differ: {', '.join(differing)}")
        return 1
    print("every case is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
