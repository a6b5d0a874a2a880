"""Parameter-space exploration: existence-region maps and exponent tables.

A sweep runs the solver over a 1D or 2D lattice of values of the problem
keys p, lambda, mu and alpha_damp, records the per-cell classification, and
writes a CSV (one row per cell, in index order regardless of completion
order) plus a JSON sidecar carrying the analytic overlay curves (p_plus,
p_minus, p_star, 2s along the swept axis) and the configuration hash.
Every cell is checked before any runs; one outside the analytic domain is
a configuration error.  Classification is data: a solver error inside a
cell marks it Inconclusive and never aborts the sweep, while an operator
that cannot be assembled or factored ends the sweep as it ends a run.  A
cell whose p lies within 1e-12 of p_plus is Inconclusive by policy
(nothing is proven at p = p_plus).  Each row is appended to the CSV as its
cell finishes, so a killed sweep resumes from the cells it finished.
``plan_input`` is the one reader of a sweep config, whose one top-level key
is ``plan``.

The axes never change N, s or the grid, so a sweep has one operator: the
parent process assembles it and forms its inverse once, before any cell
runs, and every cell solves with it.  Pool workers are forked
(``util.FORK``) and inherit it, with the plan, through the pool
initializer; they only apply the inverse.  Serial and pool sweeps
therefore read the same inverse and write the same bytes.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigError, DomainError, HardyKPZError
from .specfun import exponents_for, hardy_constant
from .util import (config_hash, csv_line, from_block, known, make_output_dir, open_output,
                   require, value, write_csv, write_json)
from . import radialop, solver, util

__all__ = [
    "SweepAxis",
    "SweepPlan",
    "CellResult",
    "plan_input",
    "run_sweep",
    "status_counts",
    "exponent_table",
    "write_exponent_table",
]

_AXIS_NAMES = ("p", "lambda", "mu", "alpha_damp")
_MAX_CELLS = 4096  # the most cells a plan may have


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ConfigError(f"axis must be one of {_AXIS_NAMES}, got {self.name!r}")
        for key in ("start", "stop"):
            value(vars(self), key, "axis", float)
        # the count as checked (2.0 becomes 2); start and stop keep their
        # given values, as the plan hash reads them
        object.__setattr__(self, "count", value(vars(self), "count", "axis", int))
        if self.count < 0:
            raise ConfigError("axis point count must be nonnegative")
        if self.count > 1 and not (self.stop > self.start):
            raise ConfigError("axis range must be increasing")

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class SweepPlan:
    """Declarative description of one sweep.

    ``problem``, ``grid`` and ``source`` take the keys and defaults of a run
    config (see ``solver.run_inputs``); each axis names a ``problem`` key.
    Construction reads them once, with the first cell's swept values, and
    checks every cell: one outside the analytic domain raises ConfigError
    naming it, before any cell runs.  When an axis of count 0 empties the
    lattice, each value of the other axes is checked alone, and one outside
    the domain raises ConfigError naming its axis.  No axis changes
    ``source``, so an error in it names no cell.  ``_cells`` keeps each
    cell's (axis values, params, p_plus), in index order.  Every cell runs
    solve_damped on its params with the source scaled by ``mu``.
    ``n_levels`` is a run config's ``controls`` key, default alike.  A plan
    of more than ``_MAX_CELLS`` cells is refused before its lattice is built.
    """

    problem: dict
    grid: dict
    axes: list
    source: dict
    n_levels: int = solver.SolverControls.n_levels

    def __post_init__(self):
        value(vars(self), "n_levels", "plan", int)
        if not isinstance(self.axes, (list, tuple)) or not (1 <= len(self.axes) <= 2):
            raise ConfigError("plan key 'axes' must list one or two axes")
        self.axes = [a if isinstance(a, SweepAxis) else from_block(SweepAxis, a, "axis")
                     for a in self.axes]
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError("axes must be distinct")
        total = math.prod(a.count for a in self.axes)
        if total > _MAX_CELLS:
            raise ConfigError(f"{total} cells exceed the limit of {_MAX_CELLS}")
        if not isinstance(self.problem, dict):
            raise ConfigError("problem must be a JSON object")
        lattice = [dict(zip(names, map(float, combo)))
                   for combo in product(*(a.points() for a in self.axes))]
        first = lattice[0] if lattice else {}
        # no axis changes the source block, so an error in it names no cell
        solver.source_input({"source": self.source})
        try:
            self._params, self._grid, self._controls, self._source, _ = solver.run_inputs(
                {"problem": {**self.problem, **first}, "grid": self.grid,
                 "source": self.source, "controls": {"n_levels": self.n_levels}})
        except DomainError as exc:
            if not lattice:
                raise
            raise ConfigError(f"sweep cell 0 {first}: {exc}") from None
        self._cells = []
        for index, values in enumerate(lattice):
            try:
                self._cells.append((values, *self._cell(values)))
            except DomainError as exc:
                raise ConfigError(f"sweep cell {index} {values}: {exc}") from None
        if not lattice:
            # no cell checks the axis values, which overlay.json still reads
            for axis in self.axes:
                for v in map(float, axis.points()):
                    try:
                        self._cell({axis.name: v})
                    except DomainError as exc:
                        raise ConfigError(f"sweep axis {axis.name} value {v}: {exc}") from None

    def _cell(self, values: dict):
        """The params of a cell with these axis values, and their p_plus;
        DomainError when they are outside the analytic domain."""
        params = replace(self._params, **{
            {"lambda": "lam"}.get(k, k): v for k, v in values.items()})
        return params, exponents_for(params.N, params.s, params.lam).p_plus


def plan_input(cfg: dict) -> SweepPlan:
    """The plan of a sweep config, whose one top-level key is ``plan``; an
    unknown or missing key raises ConfigError naming it."""
    known(cfg, ("plan",), "config")
    return from_block(SweepPlan, require(cfg, "plan", "config"), "plan")


@dataclass
class CellResult:
    index: int
    values: dict
    status: str
    sup_norm: float
    inner_iters: int
    note: str = ""


def status_counts(cells: list) -> dict:
    """The number of cells of each status, as overlay.json and the CLI print it."""
    return Counter(c.status for c in cells)


def _run_cell(plan: SweepPlan, op: radialop.OperatorMatrix, index: int) -> CellResult:
    values, params, p_plus = plan._cells[index]
    if abs(params.p - p_plus) < 1e-12:
        return CellResult(index, values, "Inconclusive", math.nan, 0,
                          "p equals p_plus: undecided by policy")
    try:
        report = solver.solve_damped(params, plan._source, op, controls=plan._controls)
    except HardyKPZError as exc:
        return CellResult(index, values, "Inconclusive", math.nan, 0,
                          f"{type(exc).__name__}: {exc}")
    iters = int(sum(row.inner_iters for row in report.trace))
    return CellResult(index, values, report.status, report.sup_norm, iters)


# the plan and its operator in a pool worker, set there by the pool
# initializer; the parent process never sets them
_worker_plan = None
_worker_op = None


def _use_plan(plan: SweepPlan, op) -> None:
    """Pool initializer: keep the plan and its operator for this worker's cells."""
    global _worker_plan, _worker_op
    _worker_plan, _worker_op = plan, op


def _pool_cell(index: int) -> CellResult:
    return _run_cell(_worker_plan, _worker_op, index)


def _overlay_for(plan: SweepPlan) -> dict:
    """Analytic exponent curves along the swept axis, recomputed fresh."""
    N, s = plan._params.N, plan._params.s
    lam_axis = next((a for a in plan.axes if a.name == "lambda"), None)
    lams = lam_axis.points() if lam_axis is not None and lam_axis.count > 0 else \
        np.asarray([plan._params.lam])
    rows = [exponents_for(N, s, float(lam)) for lam in lams]
    return {
        "lambda": [float(x) for x in lams],
        "p_plus": [r.p_plus for r in rows],
        "p_minus": [r.p_minus for r in rows],
        "p_star": rows[0].p_star,
        "two_s": 2.0 * s,
        "hardy_constant": hardy_constant(N, s),
    }


_CELLS_FILE = "cells.csv"
_SIDECAR_FILE = "overlay.json"
# the statuses a cell can have: the solver's three, and the sweep's own
_STATUSES = ("Converged", "BlowUp", "MaxIterations", "Inconclusive")


def _cell_row(names: list, c: CellResult) -> list:
    return [c.index, *(c.values[n] for n in names), c.status, c.sup_norm, c.inner_iters,
            c.note]


def _write_cells(path: str, names: list, cells: list) -> None:
    """cells.csv: the header, then one row per cell in the order given."""
    write_csv(path, csv_line(["index", *names, "status", "sup_norm", "inner_iters", "note"]),
              (_cell_row(names, c) for c in cells))


def _load_done(out_dir: str, plan: SweepPlan, plan_hash: str) -> dict:
    """Cells of the checkpoint in out_dir whose rows this plan wrote.

    A checkpoint with no row after its header resumes nothing; one with rows
    must carry this plan's hash in overlay.json, a JSON object.  A row is
    resumed only when it is byte for byte the row this plan writes for the
    cell it names: its index is a cell of the plan, its axis values are the
    plan's, its status is a cell's, and ``csv_line`` gives it back.  Every
    other line is left to be recomputed: a killed sweep's unterminated last
    row, or one with a byte that is not UTF-8 (read as a lone surrogate).
    """
    path = os.path.join(out_dir, _CELLS_FILE)
    try:
        with open(path, errors="surrogateescape") as fh:
            rows = fh.readlines()[1:]
    except FileNotFoundError:
        return {}
    except OSError as exc:  # a directory, say
        raise ConfigError(f"checkpoint {path} cannot be read: {exc.strerror}") from None
    if not rows:
        return {}
    path = os.path.join(out_dir, _SIDECAR_FILE)
    try:
        with open(path) as fh:
            stamp = json.load(fh)
    except (FileNotFoundError, ValueError, RecursionError):  # no JSON it can read
        stamp = None
    except OSError as exc:
        raise ConfigError(f"checkpoint {path} cannot be read: {exc.strerror}") from None
    if not (isinstance(stamp, dict) and stamp.get("plan_hash") == plan_hash):
        raise ConfigError(
            f"{out_dir} holds a sweep checkpoint whose overlay.json does not "
            "match this plan; use --no-resume to recompute every cell"
        )
    names = [a.name for a in plan.axes]
    done: dict = {}
    for line in rows:
        try:
            index, *_, status, sup_norm, iters, note = \
                line.removesuffix("\n").split(",", 4 + len(names))
            index, sup_norm, iters = int(index), float(sup_norm), int(iters)
        except ValueError:
            continue
        if not (0 <= index < len(plan._cells) and status in _STATUSES):
            continue
        cell = CellResult(index, plan._cells[index][0], status, sup_norm, iters, note)
        if csv_line(_cell_row(names, cell)) == line:
            done[index] = cell
    return done


def _finished_cells(plan: SweepPlan, op, todo: list, workers: int):
    """Results of the cells whose indices ``todo`` lists, in the order they finish."""
    if workers <= 1:
        for idx in todo:
            yield _run_cell(plan, op, idx)
        return
    with ProcessPoolExecutor(max_workers=workers, mp_context=util.FORK,
                             initializer=_use_plan, initargs=(plan, op)) as pool:
        futures = [pool.submit(_pool_cell, idx) for idx in todo]
        for fut in as_completed(futures):
            yield fut.result()


def run_sweep(plan: SweepPlan, out_dir: str, workers: int = 1,
              resume: bool = True) -> list:
    """Execute every cell of the plan, checkpointing to out_dir (created if
    missing), and return their CellResults in index order.

    The plan's operator is assembled and factored here, once, when any cell
    is left to run; an error doing so ends the sweep.  With ``workers`` > 1,
    more than one cell left and more than one usable CPU, the cells run in
    a pool of min(workers, cells left, usable CPUs) processes, whose
    initializer hands each one the plan and the operator.

    Before any cell runs, cells.csv is written (header and resumed rows),
    then overlay.json is stamped with the plan hash, so a stamp never stands
    over another plan's rows; each row is appended and flushed as its cell
    finishes.  At the end both are written in full, rows in index order, so
    their bytes do not depend on worker scheduling.
    With ``resume`` (default) a row already in out_dir's cells.csv is kept
    only when it is byte for byte the row this plan writes for its cell;
    every other cell is recomputed.  A checkpoint with no rows resumes
    nothing; one with rows whose overlay.json names another plan hash
    raises ConfigError.
    """
    plan_dict = asdict(plan)
    plan_hash = config_hash(plan_dict)
    names = [a.name for a in plan.axes]
    cells_path, sidecar_path = (os.path.join(out_dir, f) for f in (_CELLS_FILE, _SIDECAR_FILE))
    make_output_dir(out_dir)
    done = _load_done(out_dir, plan, plan_hash) if resume else {}
    todo = [idx for idx in range(len(plan._cells)) if idx not in done]
    results = [done[idx] for idx in sorted(done)]
    _write_cells(cells_path, names, results)
    write_json(sidecar_path, {"plan": plan_dict, "plan_hash": plan_hash})
    with open_output(cells_path, "a") as checkpoint:
        op = None
        if todo:
            op = radialop.assemble_operator(plan._grid, plan._params.s)
            solver.factor_operator(op)
        pool_size = min(workers, len(todo), util.usable_cpus())
        for cell in _finished_cells(plan, op, todo, pool_size):
            results.append(cell)
            checkpoint.write(csv_line(_cell_row(names, cell)))
            checkpoint.flush()
    results.sort(key=lambda c: c.index)
    _write_cells(cells_path, names, results)
    write_json(sidecar_path, {"plan": plan_dict, "plan_hash": plan_hash,
                              "overlay": _overlay_for(plan), "counts": status_counts(results)})
    return results


# the exponent table's columns, as ExponentReport.as_dict names them
_TABLE_KEYS = ("lambda", "alpha", "mu", "mu_bar", "p_minus", "p_plus")


def exponent_table(N: int, s: float, lambda_grid) -> list:
    """Rows (lambda, alpha, mu, mu_bar, p_minus, p_plus, valid, chain_ok).

    Out-of-range lambdas are marked invalid, never dropped, so emitted
    tables keep one row per requested value.
    """
    lam_max = hardy_constant(N, s)
    mid = (N + 2.0 * s) / (N - 2.0 * s + 2.0)
    rows = []
    for lam in lambda_grid:
        lam = float(lam)
        if not (0.0 < lam <= lam_max):
            rows.append({"lambda": lam, "valid": False})
            continue
        rep = exponents_for(N, s, lam)
        chain_ok = (rep.p_star < rep.p_minus <= mid <= rep.p_plus < 2.0 * s) \
            if lam == lam_max else (rep.p_star < rep.p_minus < mid < rep.p_plus < 2.0 * s)
        full = rep.as_dict()
        rows.append({**{key: full[key] for key in _TABLE_KEYS}, "valid": True,
                     "chain_ok": bool(chain_ok)})
    return rows


def write_exponent_table(path: str, N: int, s: float, lambda_grid) -> None:
    """The exponent table as CSV: an invalid row keeps its lambda and
    leaves the exponents and chain_ok empty."""
    write_csv(path, csv_line([*_TABLE_KEYS, "valid", "chain_ok"]), (
        [*(row.get(key) for key in _TABLE_KEYS), "valid" if row["valid"] else "invalid",
         row.get("chain_ok")]
        for row in exponent_table(N, s, lambda_grid)))
