"""Command-line front end.

Subcommands: constants, exponents, oracle, solve (damped by the config's
``alpha_damp``, default 0), sweep, probe.
Every run that writes artifacts also writes its fully-resolved configuration
and that configuration's hash next to them, and reruns from the written
configuration reproduce the outputs byte for byte at a fixed BLAS thread
count (no timestamps, sorted keys, 17-significant-digit floats).

Exit codes: 0 on success (solver BlowUp is a classification, not a
failure), 1 on tolerance failures and internal errors, 2 on domain or
configuration errors (the message names the violated constraint).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, DomainError, GridMismatchError, HardyKPZError
from .specfun import exponents_for, hardy_constant, normalizing_constant
from .util import config_hash, json_text, known, require, value, write_json
from . import construct, radialop, solver, sweep

_MAX_TABLE_ROWS = 100_000   # largest `exponents --table --count`

# the top-level keys of a run config (probe; solve also takes alpha_damp) and
# of a sweep config
_RUN_KEYS = ("problem", "grid", "controls", "source", "supersolution")
_SWEEP_KEYS = ("plan",)


def _emit(obj, path: str | None):
    if path:
        write_json(path, obj)
    sys.stdout.write(json_text(obj))


def _load_config(path: str, keys) -> dict:
    """The JSON object in ``path``, whose top-level keys must be in ``keys``."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, say
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    # a written resolved config can be replayed directly: its embedded hash
    # is not part of the configuration
    cfg.pop("config_hash", None)
    return known(cfg, keys, "config")


def _run_inputs(args, keys=_RUN_KEYS):
    """(config, output dir, problem, grid, controls, source) of a run command."""
    cfg = _load_config(args.config, keys)
    return (cfg, args.output_dir, *solver.run_inputs(cfg))


def _write_resolved(cfg: dict, out: str) -> str:
    """resolved_config.json in ``out``, creating the directory: solve and
    probe write nothing before it, so a refused command leaves none behind."""
    os.makedirs(out, exist_ok=True)
    cfg_hash = config_hash(cfg)
    write_json(os.path.join(out, "resolved_config.json"), {**cfg, "config_hash": cfg_hash})
    return cfg_hash


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    lam = hardy_constant(args.N, args.s)
    a_ns = normalizing_constant(args.N, args.s)
    _emit({"N": args.N, "s": args.s,
           "hardy_constant": float(lam),
           "normalizing_constant": float(a_ns)}, args.out)
    return 0


def cmd_exponents(args) -> int:
    if args.table:
        if args.lambda_min is None or args.lambda_max is None:
            raise ConfigError("--table needs --lambda-min and --lambda-max")
        if not 1 <= args.count <= _MAX_TABLE_ROWS:
            raise ConfigError(f"--count must lie in [1, {_MAX_TABLE_ROWS}], got {args.count}")
        lams = np.linspace(args.lambda_min, args.lambda_max, args.count)
        path = args.out or "exponents.csv"
        sweep.write_exponent_table(path, args.N, args.s, lams)
        sys.stdout.write(f"wrote {path}\n")
        return 0
    if args.lam is None:
        raise ConfigError("provide --lambda or --table")
    rep = exponents_for(args.N, args.s, args.lam)
    _emit(rep.as_dict(), args.out)
    return 0


def cmd_oracle(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise DomainError(f"--tolerance must be a positive finite number, got {args.tolerance}")
    radialop.check_power_exponent(args.theta, args.N, args.s)
    grid = radialop.build_grid(args.R, args.M, args.g, args.N)
    # the refined grid is checked before anything is assembled
    grid2 = radialop.build_grid(args.R, 2 * args.M, args.g, args.N) if args.refine else None
    op = radialop.assemble_operator(grid, args.s)
    r_max = args.r_max if args.r_max is not None else 0.1 * args.R
    err = radialop.oracle_power_test(op, args.theta, r_max)
    result = {"theta": args.theta, "max_rel_error": float(err),
              "tolerance": args.tolerance, "passed": bool(err <= args.tolerance),
              "checked_r_min": float(op.oracle_r_min),
              "checked_r_max": float(r_max)}
    if args.refine:
        op2 = radialop.assemble_operator(grid2, args.s)
        # compare over the window the coarse grid resolves
        r_lo = op.oracle_r_min
        radii2, rel2, _ = radialop.power_test_profile(op2, args.theta, r_max)
        err2 = float(rel2[radii2 >= r_lo].max())
        result["refined_error"] = float(err2)
        result["refinement_ratio"] = float(err / err2)
    _emit(result, args.out)
    return 0 if result["passed"] else 1


def _write_solver_outputs(report: solver.SolverReport, grid, spec, out: str,
                          cfg_hash: str) -> None:
    radialop.save_field(grid, report.field, os.path.join(out, "field.csv"))
    solver.save_trace(report, os.path.join(out, "trace.csv"))
    summary = {
        "config_hash": cfg_hash,
        "status": report.status,
        "monotonicity_violations": report.monotonicity_violations,
        "fixed_point_residual": float(report.fixed_point_residual),
        "gradient_lp_integral": float(report.gradient_lp_integral),
        "hardy_l1_integral": float(report.hardy_l1_integral),
        "sup_norm": report.sup_norm,
        "sup_bound": float(report.sup_bound),
        "supersolution": spec.as_dict() if spec is not None else None,
    }
    write_json(os.path.join(out, "report.json"), summary)


def _auto_supersolution(cfg: dict) -> bool:
    """True for ``"supersolution": "auto"``, False for ``"none"`` (the default)."""
    choice = cfg.get("supersolution", "none")
    if choice not in ("none", "auto"):
        raise ConfigError(f'supersolution must be "none" or "auto", got {choice!r}')
    return choice == "auto"


def cmd_solve(args) -> int:
    cfg, out, params, grid, controls, f = _run_inputs(args, (*_RUN_KEYS, "alpha_damp"))
    params = replace(params, alpha_damp=value(cfg, "alpha_damp", "config", float, 0.0))
    spec = None
    if _auto_supersolution(cfg):
        barrier = construct.damped_supersolution if params.alpha_damp > 0.0 \
            else construct.dirichlet_supersolution
        spec = barrier(params, f.exponent, f.coefficient, R=grid.R)
    op = radialop.assemble_operator(grid, params.s)
    report = solver.solve_damped(params, f, op, controls=controls, supersolution=spec)
    cfg_hash = _write_resolved(cfg, out)
    _write_solver_outputs(report, grid, spec, out, cfg_hash)
    sys.stdout.write(f"status: {report.status}\n")
    return 0


def cmd_probe(args) -> int:
    cfg, out, params, grid, controls, f = _run_inputs(args)
    _auto_supersolution(cfg)  # checked as for solve, but the probe runs without a barrier
    op = radialop.assemble_operator(grid, params.s)
    result = solver.mu_threshold_probe(params, f, op, controls=controls)
    cfg_hash = _write_resolved(cfg, out)
    summary = {
        "config_hash": cfg_hash,
        "status": result.status,
        "mu_lo": float(result.mu_lo),
        "mu_hi": float(result.mu_hi),
        "midpoint": float(result.midpoint) if result.status == "bracketed" else None,
        "note": result.note,
        "evaluations": [[float(m), st] for m, st in result.evaluations],
    }
    write_json(os.path.join(out, "probe.json"), summary)
    sys.stdout.write(f"probe: {result.status}\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, _SWEEP_KEYS)
    plan = sweep.SweepPlan.from_dict(require(cfg, "plan", "config"))
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    region = sweep.run_sweep(plan, out_dir=args.output_dir, workers=args.workers,
                             resume=not args.no_resume)
    _write_resolved(cfg, args.output_dir)
    counts = region.counts()
    sys.stdout.write("cells: " + json.dumps(counts, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardykpz",
        description=(
            "Radial fractional-Laplacian toolkit: Hardy/Gamma-ratio constants, "
            "critical exponents, discrete operator oracles, and the monotone "
            "truncation solver for the gradient problem."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="sharp Hardy constant and the kernel normalizer")
    pc.add_argument("--N", type=int, required=True, help="dimension (integer >= 2, N > 2s)")
    pc.add_argument("--s", type=float, required=True, help="fractional order in (0, 1)")
    pc.add_argument("--out", help="also write the JSON here")
    pc.set_defaults(fn=cmd_constants)

    pe = sub.add_parser("exponents", help="critical exponents for (N, s, lambda)")
    pe.add_argument("--N", type=int, required=True)
    pe.add_argument("--s", type=float, required=True)
    pe.add_argument("--lambda", dest="lam", type=float,
                    help="Hardy coefficient in (0, Lambda]")
    pe.add_argument("--table", action="store_true",
                    help="emit a CSV over a lambda range instead of one point")
    pe.add_argument("--lambda-min", type=float)
    pe.add_argument("--lambda-max", type=float)
    pe.add_argument("--count", type=int, default=20)
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_exponents)

    po = sub.add_parser("oracle", help="power-function oracle of the discrete operator")
    po.add_argument("--N", type=int, required=True)
    po.add_argument("--s", type=float, required=True)
    po.add_argument("--theta", type=float, required=True,
                    help="power exponent in (0, N-2s)")
    po.add_argument("--R", type=float, default=1.0)
    po.add_argument("--M", type=int, default=200)
    po.add_argument("--g", type=float, default=2.0)
    po.add_argument("--tolerance", type=float, default=0.02,
                    help="largest passing relative error, positive and finite")
    po.add_argument("--r-max", type=float, default=None,
                    help="check window upper radius (default R/10)")
    po.add_argument("--refine", action="store_true",
                    help="re-run at 2M and report the error ratio")
    po.add_argument("--out")
    po.set_defaults(fn=cmd_oracle)

    for name, fn, hlp in (
        ("solve", cmd_solve, "run the (damped) truncation scheme from a JSON config"),
        ("probe", cmd_probe, "bracket the source-scale threshold"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output-dir", default=".",
                       help="artifact directory (default: %(default)s)")
        p.set_defaults(fn=fn)

    psw = sub.add_parser("sweep", help="parameter sweep with checkpoint/resume")
    psw.add_argument("--config", required=True)
    psw.add_argument("--output-dir", default=".",
                     help="artifact directory (default: %(default)s)")
    psw.add_argument("--workers", type=int, default=1,
                     help="worker processes, >= 1; the pool takes at most one "
                          "per usable CPU and per cell left")
    psw.add_argument("--no-resume", action="store_true",
                     help="recompute every cell even if a checkpoint exists")
    psw.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if abs(getattr(args, "N", 0)) > sys.float_info.max:
            raise DomainError("--N exceeds the double range")
        return args.fn(args)
    except (DomainError, ConfigError, GridMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except HardyKPZError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
