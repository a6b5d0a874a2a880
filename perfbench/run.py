"""Benchmark of the ``hardykpz`` command line, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``hardykpz`` CLI command run by ``op.py`` in a fresh
interpreter, from an empty output directory, so no in-process cache (such as
the sweep's operator ``lru_cache``) carries from one operation to the next.
Operations run one after another (a closed loop with one client) until
``--seconds`` have passed, and the outputs of every operation are checked.

``--trace 0`` runs every operation untraced and reports the end-to-end
metrics: ``op_s``, the median wall time of one ``cli.main`` call (artifacts
written); ``schemes_per_s``, the truncation-scheme runs completed per second
of summed operation time; ``setup_s``, the median time from starting a fresh
interpreter until ``hardykpz.cli`` is imported; ``peak_rss_mb``, the median
peak resident memory of the operation's process.  ``fail_ratio`` (operations
that exited non-zero or failed a check, over those attempted) is printed and
carried by ``failed`` and ``attempted``.  ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics of the traced ones (see tracing.py), plus the
tracing overhead: the difference between the traced and untraced median
operation times.

The seed jitters the continuous parameters (lambda fraction, mu, source
coefficient, sweep axis end points) by at most 1% relative; the program only
sees the generated config files.  The BLAS and OpenMP thread settings are
used as found and printed with the machine information.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run stops starting operations after this many seconds, and kills one
# still running after HARD_STOP, so that it always ends within 180 s.
START_LIMIT = 120.0
HARD_STOP = 170.0

# Parameters shared by all workloads; the seed jitters MU, F_COEF, the lambda
# fraction and the sweep axis end points.
N, S, R, G = 3, 0.75, 1.0, 2.0
MU, F_COEF, F_EXP = 1e-3, 0.3, 1.5
JITTER = 0.01

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SOLVED = ("Converged", "BlowUp", "MaxIterations")


# ---------------------------------------------------------------------------
# reference constants, computed here independently of the package
# ---------------------------------------------------------------------------

def _gamma_ratio(a: float, n: float, s: float) -> float:
    return math.exp(2.0 * s * math.log(2.0)
                    + math.lgamma((n + 2 * s + 2 * a) / 4) + math.lgamma((n + 2 * s - 2 * a) / 4)
                    - math.lgamma((n - 2 * s + 2 * a) / 4) - math.lgamma((n - 2 * s - 2 * a) / 4))


def hardy_constant(n: int, s: float) -> float:
    return _gamma_ratio(0.0, n, s)


def p_plus(n: int, s: float, lam: float) -> float:
    """Upper critical exponent: alpha solves gamma_ratio(alpha) = lam (decreasing)."""
    lo, hi = 0.0, (n - 2 * s) / 2 * (1 - 1e-14)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gamma_ratio(mid, n, s) > lam:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return (n + 2 * s - 2 * alpha) / (n - 2 * s - 2 * alpha + 2)


LAMBDA = hardy_constant(N, S)


# ---------------------------------------------------------------------------
# workloads: config from the seed, CLI arguments, output checks
# ---------------------------------------------------------------------------

def _jit(rng: random.Random) -> float:
    return 1.0 + rng.uniform(-JITTER, JITTER)


def _problem(rng: random.Random, lam_frac: float, p: float | None = None) -> dict:
    lam = lam_frac * _jit(rng) * LAMBDA
    return {"N": N, "s": S, "lambda": lam,
            "p": p_plus(N, S, lam) if p is None else p, "mu": MU * _jit(rng)}


def _source(rng: random.Random) -> dict:
    return {"coefficient": F_COEF * _jit(rng), "exponent": F_EXP}


def _grid(m: int) -> dict:
    return {"R": R, "M": m, "g": G}


def solve_config(rng: random.Random) -> dict:
    return {"problem": _problem(rng, 0.5, p=1.27), "grid": _grid(400),
            "controls": {"n_levels": 17}, "source": _source(rng),
            "supersolution": "auto"}


def probe_config(rng: random.Random) -> dict:
    problem = _problem(rng, 0.8)
    problem["p"] = 0.9 * p_plus(N, S, problem["lambda"])
    return {"problem": problem, "grid": _grid(200), "controls": {"n_levels": 15},
            "source": _source(rng)}


def sweep_config(rng: random.Random) -> dict:
    problem = _problem(rng, 0.5)
    pp = problem["p"]
    axis = {"name": "p", "start": 0.85 * pp * _jit(rng), "stop": 1.15 * pp * _jit(rng),
            "count": 16}
    return {"plan": {"problem": problem, "grid": _grid(200), "axes": [axis],
                     "source": _source(rng), "n_levels": 17}}


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_solve(out: Path, cfg: dict) -> tuple[list, int]:
    rep = _read_json(out / "report.json")
    problems = []
    if rep["status"] != "Converged":
        problems.append(f"status {rep['status']}, expected Converged")
    if rep["monotonicity_violations"] != 0:
        problems.append(f"{rep['monotonicity_violations']} monotonicity violations")
    if not rep["fixed_point_residual"] <= 1e-6:
        problems.append(f"fixed-point residual {rep['fixed_point_residual']} > 1e-6")
    sup = rep["supersolution"]
    tol = 1e-6 * rep["sup_bound"] + 1e-12
    with open(out / "field.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:]]
    above = [(r, u) for r, u in ((float(a), float(b)) for a, b in rows)
             if u > sup["amplitude"] * r ** (-sup["theta"]) + tol]
    if above:
        problems.append(f"field exceeds the supersolution at {len(above)} nodes")
    return problems, int(rep["status"] in SOLVED)


def check_probe(out: Path, cfg: dict) -> tuple[list, int]:
    rep = _read_json(out / "probe.json")
    problems = []
    conv = [mu for mu, st in rep["evaluations"] if st == "Converged"]
    blow = [mu for mu, st in rep["evaluations"] if st == "BlowUp"]
    if conv and blow and not max(conv) < min(blow):
        problems.append(f"a Converged mu {max(conv)} lies above a BlowUp mu {min(blow)}")
    if rep["status"] == "bracketed" and not rep["mu_hi"] / rep["mu_lo"] <= 1.05:
        problems.append(f"bracket width {rep['mu_hi'] / rep['mu_lo'] - 1} > 5%")
    return problems, len(rep["evaluations"])


def check_sweep(out: Path, cfg: dict) -> tuple[list, int]:
    plan = cfg["plan"]
    pp = p_plus(N, S, plan["problem"]["lambda"])
    with open(out / "cells.csv") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    count = plan["axes"][0]["count"]
    if len(rows) != count:
        problems.append(f"{len(rows)} cells, expected {count}")
    conv = [float(r["p"]) for r in rows if r["status"] == "Converged"]
    blow = [float(r["p"]) for r in rows if r["status"] == "BlowUp"]
    if not (conv and blow):
        problems.append("no Converged or no BlowUp cell: no transition band")
    elif not (max(conv) < pp <= min(blow) and min(blow) - max(conv) <= 0.1):
        problems.append(f"band ({max(conv)}, {min(blow)}] misses p_plus={pp} "
                        "or is wider than 0.1")
    overlay = _read_json(out / "overlay.json")["overlay"]
    if abs(overlay["p_plus"][0] - pp) > 1e-9 * pp:
        problems.append(f"overlay p_plus {overlay['p_plus'][0]} differs from {pp}")
    return problems, sum(r["status"] in SOLVED for r in rows)


# name -> (config from the seeded generator, CLI arguments, output check); a
# check returns the problems it found and the number of truncation-scheme
# runs the operation completed
WORKLOADS = {
    "solve-m400": (solve_config, ["solve"], check_solve),
    "probe-m200-near": (probe_config, ["probe"], check_probe),
    "sweep-p16-w2": (sweep_config, ["sweep", "--workers", "2"], check_sweep),
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _layer_values(tr: dict, artifact_bytes: int) -> dict:
    calls, secs, counts = tr["calls"], tr["secs"], tr["counts"]
    c = lambda name: calls.get(name, 0)  # noqa: E731
    t = lambda name: secs.get(name, 0.0)  # noqa: E731
    n = lambda name: counts.get(name, 0)  # noqa: E731
    levels = n("solver.levels")
    pool_s = t("sweep.pool")
    return {
        "specfun.exponents_for.calls": c("specfun.exponents_for"),
        "specfun.exponents_for.s": t("specfun.exponents_for"),
        "specfun.gamma_multiplier.calls": c("specfun.gamma_multiplier"),
        "specfun.gamma_multiplier.s": t("specfun.gamma_multiplier"),
        "radialop.assemble.calls": c("radialop.assemble"),
        "radialop.assemble.s": t("radialop.assemble"),
        "radialop.hyp2f1.points": n("radialop.hyp2f1.points"),
        "radialop.hyp2f1.s": t("radialop.hyp2f1"),
        "radialop.roots_legendre.calls": c("radialop.roots_legendre"),
        "radialop.nnls.calls": c("radialop.nnls"),
        "radialop.nnls.s": t("radialop.nnls"),
        "radialop.gradient_values.calls": c("radialop.gradient_values"),
        "radialop.gradient_values.s": t("radialop.gradient_values"),
        "construct.supersolution.calls": c("construct.supersolution"),
        "construct.supersolution.s": t("construct.supersolution"),
        "solver.scheme.calls": c("solver.scheme"),
        "solver.scheme.s": t("solver.scheme"),
        "solver.scheme.self_s": tr["self_secs"].get("solver.scheme", 0.0),
        "solver.inner_iters": n("solver.inner_iters"),
        "solver.levels": levels,
        "solver.capped_levels": n("solver.capped_levels"),
        "solver.capped_level_ratio": n("solver.capped_levels") / levels if levels else 0.0,
        "solver.lu_factor.calls": c("solver.lu_factor"),
        "solver.lu_factor.s": t("solver.lu_factor"),
        "solver.lu_solve.calls": c("solver.lu_solve"),
        "solver.lu_solve.s": t("solver.lu_solve"),
        "solver.lu.flops_computed": n("solver.lu.flops"),
        "sweep.cells": c("sweep.cell"),
        "sweep.cell_s": t("sweep.cell"),
        "sweep.assemblies": n("sweep.assemblies"),
        "sweep.pool_s": pool_s,
        "sweep.parallel_efficiency":
            t("sweep.cell") / (tr["pool_workers"] * pool_s) if pool_s else 0.0,
        "cli.artifact_bytes": artifact_bytes,
    }


def _units(section: str) -> dict:
    spec = _read_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(op_dir: Path, cfg_path: Path, cfg: dict, workload: str, traced: bool,
           timeout: float) -> dict:
    _, cli_args, check = WORKLOADS[workload]
    out = op_dir / "out"
    out.mkdir(parents=True)
    worker_dir = op_dir / "workers"
    if traced:
        worker_dir.mkdir()
    result_path = op_dir / "result.json"
    argv = cli_args[:1] + ["--config", str(cfg_path), "--output-dir", str(out)] + cli_args[1:]
    with open(op_dir / "stdout.txt", "w") as so, open(op_dir / "stderr.txt", "w") as se:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "op.py"), repr(spawn), str(result_path),
             str(worker_dir) if traced else "-"] + argv,
            env=_env(), stdout=so, stderr=se, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    op = {"traced": traced, "problems": []}
    if proc.returncode != 0:
        err = (op_dir / "stderr.txt").read_text().strip().splitlines()
        op["problems"].append(f"exit code {proc.returncode}: {err[-1] if err else ''}")
    if result_path.exists():
        op.update(_read_json(result_path))
        if not Path(op["program"]).resolve().is_relative_to(SRC):
            op["problems"].append(f"ran {op['program']}, not the checkout's package")
    else:
        op["problems"].append("no result written")
    if proc.returncode == 0:
        try:
            problems, op["schemes"] = check(out, cfg)
            op["problems"] += problems
            resolved = _read_json(out / "resolved_config.json")
            resolved.pop("config_hash", None)
            if resolved != cfg:
                op["problems"].append("resolved_config.json differs from the input config")
        except (OSError, KeyError, ValueError) as exc:
            op["problems"].append(f"unreadable output: {type(exc).__name__}: {exc}")
    op["artifact_bytes"] = _dir_bytes(out)
    shutil.rmtree(op_dir)
    return op


def machine_info() -> dict:
    code = ("import json, os, sys, numpy, scipy, hardykpz.cli\n"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
            "    'scipy': scipy.__version__,\n"
            "    'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import hardykpz.cli: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    info["nproc"] = os.cpu_count()
    info["cpus_usable"] = len(os.sched_getaffinity(0))
    info["thread_env"] = {v: os.environ.get(v, "unset") for v in THREAD_VARS}
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.monotonic()
    if not (SRC / "hardykpz" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'hardykpz'}\n")
        return 2

    # the first import also compiles the package's bytecode; it is not timed
    try:
        info = machine_info()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print("# machine: " + json.dumps(info, sort_keys=True))

    make_config = WORKLOADS[args.workload][0]
    cfg = make_config(random.Random(f"{args.workload}/{args.seed}"))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ops = []
    try:
        cfg_path = work / "config.json"
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        t_start = time.monotonic()
        need = 2 if args.trace else 1
        while len(ops) < need or time.monotonic() - t_start < args.seconds:
            left = HARD_STOP - (time.monotonic() - t_begin)
            if time.monotonic() - t_begin > START_LIMIT and len(ops) >= need:
                break
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(run_op(work / f"op{len(ops)}", cfg_path, cfg, args.workload,
                              traced, max(left, 1.0)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = [op for op in ops if op["problems"]]
    for op in failed:
        sys.stderr.write(f"operation failed: {'; '.join(op['problems'])}\n")
    timed = [op for op in ops if "op_s" in op]
    plain = [op for op in timed if not op["traced"]]
    traced = [op for op in timed if op["traced"]]
    if not plain or (args.trace and not traced):
        sys.stderr.write("error: no operation produced a timing\n")
        return 1
    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} operations "
          f"({len(plain)} untraced, {len(traced)} traced), {len(failed)} failed")
    print(f"fail_ratio {len(failed) / len(ops):.6g} - ({len(failed)} of {len(ops)})")
    print("# op_s per operation (T: traced): " + " ".join(
        f"{op['op_s']:.4f}{'T' if op['traced'] else ''}" for op in timed))

    if args.trace:
        units = _units("per_layer")
        per_op = [_layer_values(op["trace"], op["artifact_bytes"]) for op in traced]
        samples = {name: [v[name] for v in per_op] for name in per_op[0]}
        samples["cli.trace_overhead_s"] = [
            statistics.median(op["op_s"] for op in traced)
            - statistics.median(op["op_s"] for op in plain)]
    else:
        units = _units("end_to_end")
        schemes = sum(op.get("schemes", 0) for op in plain)
        op_total = sum(op["op_s"] for op in plain)
        print(f"# {schemes} scheme runs completed in {op_total:.4f} s of operation time")
        samples = {
            "op_s": [op["op_s"] for op in plain],
            "schemes_per_s": [schemes / op_total],
            "setup_s": [op["setup_s"] for op in plain],
            "peak_rss_mb": [op["peak_rss_mb"] for op in plain],
        }
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        if isinstance(values[0], int):
            # counts are exact and must repeat in every operation
            if len(set(values)) > 1:
                sys.stderr.write(f"warning: {name} differs between operations: {values}\n")
            metrics[name] = values[0]
            print(f"{name} {values[0]} {unit}")
        elif len(values) > 1:
            metrics[name] = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{name} {metrics[name]} {unit} (median of {len(values)} operations, "
                  f"quartiles {q1:.6g} to {q3:.6g})")
        else:
            metrics[name] = values[0]
            print(f"{name} {values[0]} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
