"""Sweeps and exponent tables: classification maps, overlays, checkpointing."""

import functools
import os
import tempfile
from concurrent.futures import Future
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardykpz import radialop as ro
from hardykpz import solver as so
from hardykpz import specfun as sf
from hardykpz import sweep as sw
from hardykpz import util
from hardykpz.errors import ConfigError

N, S = 3, 0.75
LAM_MAX = sf.hardy_constant(N, S)
LAM = LAM_MAX / 2
REP = sf.exponents_for(N, S, LAM)


def _plan(**over):
    base = dict(
        problem={"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
        grid={"R": 1.0, "M": 64, "g": 2.0},
        axes=[{"name": "p", "start": 1.2, "stop": 1.6, "count": 9}],
        source={"coefficient": 0.3, "exponent": 2 * S},
        n_levels=15,
    )
    base.update(over)
    return sw.SweepPlan.from_dict(base)


# ------------------------------------------------------------------ tables

def test_exponent_table_boundary_rows():
    rows = sw.exponent_table(N, S, [LAM_MAX, 1e-9, 2.0])
    top = rows[0]
    common = (N + 2 * S) / (N - 2 * S + 2)
    assert top["valid"] and top["p_minus"] == pytest.approx(common, rel=1e-12)
    assert top["p_plus"] == pytest.approx(common, rel=1e-12)
    small = rows[1]
    assert small["p_plus"] == pytest.approx(2 * S, abs=1e-3)
    assert small["p_minus"] == pytest.approx(N / (N - 2 * S + 1), abs=1e-3)
    assert rows[2] == {"lambda": 2.0, "valid": False}


def test_exponent_table_monotone_columns():
    lams = np.linspace(0.05, 0.95, 16) * LAM_MAX
    rows = sw.exponent_table(N, S, lams)
    p_plus = [r["p_plus"] for r in rows]
    p_minus = [r["p_minus"] for r in rows]
    assert all(b < a for a, b in zip(p_plus, p_plus[1:]))
    assert all(b > a for a, b in zip(p_minus, p_minus[1:]))
    assert all(r["chain_ok"] for r in rows)


def test_exponent_table_csv(tmp_path):
    path = os.path.join(tmp_path, "tab.csv")
    sw.write_exponent_table(path, N, S, [0.1, 2.0])
    lines = open(path).read().strip().splitlines()
    assert lines[0].startswith("lambda,")
    assert len(lines) == 3
    assert "invalid" in lines[2]


# ------------------------------------------------------------------ sweeps

def test_sweep_band_contains_critical_exponent(tmp_path):
    region = sw.run_sweep(_plan(), out_dir=str(tmp_path))
    by_status = {}
    for cell in region.cells:
        by_status.setdefault(cell.status, []).append(cell.values["p"])
    last_conv = max(by_status["Converged"])
    first_blow = min(by_status["BlowUp"])
    assert last_conv < first_blow
    assert last_conv < REP.p_plus <= first_blow
    assert first_blow - last_conv <= 0.1


def test_sweep_policy_inconclusive_at_p_plus(tmp_path):
    plan = _plan(axes=[{"name": "p", "start": REP.p_plus, "stop": REP.p_plus,
                        "count": 1}])
    region = sw.run_sweep(plan, out_dir=str(tmp_path))
    assert region.cells[0].status == "Inconclusive"
    assert "policy" in region.cells[0].note


def test_sweep_deterministic_and_resumable(tmp_path):
    d1 = os.path.join(tmp_path, "a")
    d2 = os.path.join(tmp_path, "b")
    sw.run_sweep(_plan(), out_dir=d1)
    sw.run_sweep(_plan(), out_dir=d2)
    cells1 = open(os.path.join(d1, "cells.csv"), "rb").read()
    assert cells1 == open(os.path.join(d2, "cells.csv"), "rb").read()
    over1 = open(os.path.join(d1, "overlay.json"), "rb").read()
    assert over1 == open(os.path.join(d2, "overlay.json"), "rb").read()
    # resume must not change the bytes
    sw.run_sweep(_plan(), out_dir=d1)
    assert cells1 == open(os.path.join(d1, "cells.csv"), "rb").read()


# a finished M=32 sweep whose middle cell lies on p_plus (Inconclusive by policy)
_RESUME_PLAN = dict(axes=[{"name": "p", "start": REP.p_plus - 0.3,
                           "stop": REP.p_plus + 0.3, "count": 5}],
                    grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=10)


@functools.lru_cache(maxsize=None)
def _finished_sweep():
    """(cells.csv bytes, overlay.json bytes) of the finished resume plan."""
    with tempfile.TemporaryDirectory() as d:
        sw.run_sweep(_plan(**_RESUME_PLAN), out_dir=d)
        return tuple(open(os.path.join(d, name), "rb").read()
                     for name in ("cells.csv", "overlay.json"))


def _with_field(row: str, k: int, text: str) -> str:
    fields = row.split(",")
    fields[k] = text
    return ",".join(fields)


# lines the resume plan never writes, made from its finished rows
# (index, p, status, sup_norm, inner_iters, note); the unterminated one
# comes last, as a killed sweep leaves it
_FOREIGN = {
    "past-the-end": lambda rows: "7,9.5,Converged,1.0,3,\n",
    "negative-index": lambda rows: _with_field(rows[4], 0, "-1"),
    "other-cells-values": lambda rows: _with_field(rows[1], 1, rows[2].split(",")[1]),
    "forged-values": lambda rows: "1,1.2999,BlowUp,2.0,4,forged\n",
    "unknown-status": lambda rows: _with_field(rows[3], 2, "Forged"),
    "unterminated": lambda rows: rows[0].removesuffix("\n"),
}


@settings(max_examples=30, deadline=None)
@given(dropped=st.sets(st.integers(0, 4)), foreign=st.sets(st.sampled_from(sorted(_FOREIGN))))
@example(dropped=set(), foreign=set(_FOREIGN))
@example(dropped={0, 1, 3, 4}, foreign=set(_FOREIGN))
def test_sweep_resume_is_idempotent(dropped, foreign):
    # rows the plan did not write are never resumed: only the cells whose
    # own row is missing run, and the sweep writes the finished bytes
    cells, overlay = _finished_sweep()
    header, *rows = cells.decode().splitlines(keepends=True)
    assert sum("policy" in row for row in rows) == 1
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "cells.csv"), "w") as fh:
            fh.write(header + "".join(r for i, r in enumerate(rows) if i not in dropped)
                     + "".join(_FOREIGN[kind](rows) for kind in _FOREIGN if kind in foreign))
        with open(os.path.join(d, "overlay.json"), "wb") as fh:
            fh.write(overlay)
        with mock.patch.object(so, "solve_damped", wraps=so.solve_damped) as solve:
            sw.run_sweep(_plan(**_RESUME_PLAN), out_dir=d)
        # only the dropped cells run, and the policy cell never reaches the solver
        assert solve.call_count == sum("policy" not in rows[i] for i in dropped)
        for name, expected in (("cells.csv", cells), ("overlay.json", overlay)):
            assert open(os.path.join(d, name), "rb").read() == expected, name


@pytest.mark.parametrize("stamp", [b"[]", b"null", b'"x"', b"\xff{}", b"[" * 100_000],
                         ids=["list", "null", "string", "undecodable", "nested-too-deep"])
def test_unreadable_overlay_counts_as_unstamped(tmp_path, stamp):
    # an overlay.json that holds no JSON object this sweep can read stamps
    # no plan, so the rows under it are refused, not resumed
    cells, _ = _finished_sweep()
    d = str(tmp_path)
    with open(os.path.join(d, "cells.csv"), "wb") as fh:
        fh.write(cells)
    with open(os.path.join(d, "overlay.json"), "wb") as fh:
        fh.write(stamp)
    with pytest.raises(ConfigError, match="does not match this plan"):
        sw.run_sweep(_plan(**_RESUME_PLAN), out_dir=d)
    assert open(os.path.join(d, "cells.csv"), "rb").read() == cells


def test_undecodable_checkpoint_line_is_recomputed(tmp_path):
    # a row with a byte that is not UTF-8 fails the byte-for-byte rule
    cells, overlay = _finished_sweep()
    header, *rows = cells.splitlines(keepends=True)
    assert b"policy" not in rows[1]
    d = str(tmp_path)
    with open(os.path.join(d, "cells.csv"), "wb") as fh:
        fh.write(b"".join([header, rows[0], rows[1].replace(b",", b"\xff,", 1), *rows[2:]]))
    with open(os.path.join(d, "overlay.json"), "wb") as fh:
        fh.write(overlay)
    with mock.patch.object(so, "solve_damped", wraps=so.solve_damped) as solve:
        sw.run_sweep(_plan(**_RESUME_PLAN), out_dir=d)
    assert solve.call_count == 1
    for name, expected in (("cells.csv", cells), ("overlay.json", overlay)):
        assert open(os.path.join(d, name), "rb").read() == expected, name


def test_sweep_resume_refuses_another_plan(tmp_path):
    d = str(tmp_path)
    small = dict(grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=10)
    old = _plan(axes=[{"name": "p", "start": 1.1, "stop": 1.3, "count": 2}], **small)
    new = _plan(axes=[{"name": "p", "start": 1.4, "stop": 1.6, "count": 2}], **small)
    sw.run_sweep(old, out_dir=d)
    old_cells = open(os.path.join(d, "cells.csv"), "rb").read()
    with pytest.raises(ConfigError, match="--no-resume"):
        sw.run_sweep(new, out_dir=d)
    # the refused run leaves the checkpoint untouched
    assert open(os.path.join(d, "cells.csv"), "rb").read() == old_cells
    region = sw.run_sweep(new, out_dir=d, resume=False)
    assert [c.values["p"] for c in region.cells] == [1.4, 1.6]
    assert region.cells == sw.run_sweep(new, os.path.join(d, "fresh")).cells


@pytest.mark.parametrize("torn", [False, True], ids=["before", "torn"])
@pytest.mark.parametrize("k", range(4))
def test_interrupted_switch_of_plans_never_resumes_the_old_rows(tmp_path, k, torn):
    # plan A finishes, then a --no-resume sweep of plan B in the same
    # directory is interrupted at its k-th checkpoint write, before the write
    # or after half of it; resuming B then refuses or writes B's finished
    # bytes, running only the cells whose B row was not yet written
    small = dict(grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=10)
    old = _plan(axes=[{"name": "p", "start": 1.1, "stop": 1.3, "count": 2}], **small)
    new = _plan(axes=[{"name": "p", "start": 1.4, "stop": 1.6, "count": 2}], **small)
    sw.run_sweep(new, os.path.join(tmp_path, "b"))
    finished = [open(os.path.join(tmp_path, "b", name), "rb").read()
                for name in ("cells.csv", "overlay.json")]
    d = os.path.join(tmp_path, "switch")
    sw.run_sweep(old, d)
    old_values = {row.split(",")[1] for row in open(os.path.join(d, "cells.csv"))} - {"p"}
    writes = []

    def interrupted(write):
        def once(path, *args):
            if len(writes) == k:
                if torn:
                    write(path, *args)
                    with open(path, "r+b") as fh:
                        fh.truncate(os.path.getsize(path) // 2)
                raise KeyboardInterrupt
            writes.append(path)
            write(path, *args)
        return once
    with mock.patch.object(sw, "write_csv", interrupted(sw.write_csv)), \
            mock.patch.object(sw, "write_json", interrupted(sw.write_json)), \
            pytest.raises(KeyboardInterrupt):
        sw.run_sweep(new, d, resume=False)
    new_rows = finished[0].decode().splitlines(keepends=True)[1:]
    kept = set(open(os.path.join(d, "cells.csv")).readlines()) & set(new_rows)
    with mock.patch.object(so, "solve_damped", wraps=so.solve_damped) as solve:
        try:
            sw.run_sweep(new, d)
        except ConfigError as exc:
            assert "--no-resume" in str(exc)
            assert solve.call_count == 0
            return
    assert solve.call_count == len(new_rows) - len(kept)
    assert not old_values & {row.split(",")[1] for row in open(os.path.join(d, "cells.csv"))}
    for name, expected in zip(("cells.csv", "overlay.json"), finished):
        assert open(os.path.join(d, name), "rb").read() == expected, name


def test_sweep_axis_count_as_float_is_the_count(tmp_path):
    # JSON may write a count as 2.0; the axis keeps the checked int
    cells = []
    for count in (2, 2.0):
        plan = _plan(axes=[{"name": "p", "start": 1.25, "stop": 1.35, "count": count}],
                     grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=10)
        assert type(plan.axes[0].count) is int
        d = os.path.join(tmp_path, repr(count))
        sw.run_sweep(plan, out_dir=d)
        cells.append(open(os.path.join(d, "cells.csv"), "rb").read())
    assert cells[0] == cells[1]


def test_sweep_empty_range(tmp_path):
    plan = _plan(axes=[{"name": "p", "start": 1.2, "stop": 1.2, "count": 0}])
    region = sw.run_sweep(plan, str(tmp_path))
    assert region.cells == []


def test_sweep_overlay_matches_specfun(tmp_path):
    plan = _plan(axes=[{"name": "lambda", "start": 0.1, "stop": 0.4, "count": 4}])
    region = sw.run_sweep(plan, out_dir=str(tmp_path))
    for lam, pp in zip(region.overlay["lambda"], region.overlay["p_plus"]):
        assert pp == sf.exponents_for(N, S, lam).p_plus
    assert region.overlay["two_s"] == 2 * S
    assert region.overlay["p_star"] == N / (N - 2 * S + 1)


def test_sweep_two_axes_and_mu(tmp_path):
    plan = _plan(axes=[{"name": "p", "start": 1.25, "stop": 1.35, "count": 2},
                       {"name": "mu", "start": 1e-4, "stop": 1e-3, "count": 2}])
    region = sw.run_sweep(plan, str(tmp_path))
    assert len(region.cells) == 4
    assert {c.status for c in region.cells} <= {"Converged", "BlowUp",
                                                "MaxIterations", "Inconclusive"}


def test_sweep_plan_validation():
    with pytest.raises(ConfigError):
        _plan(axes=[])
    # more than 4096 cells are refused before the lattice is built
    with mock.patch.object(sw, "product", side_effect=AssertionError), \
            pytest.raises(ConfigError, match="4160 cells exceed the limit of 4096"):
        _plan(axes=[{"name": "p", "start": 1.2, "stop": 1.6, "count": 65},
                    {"name": "mu", "start": 1e-4, "stop": 1e-3, "count": 64}])
    with pytest.raises(ConfigError):
        _plan(axes=[{"name": "q", "start": 0.0, "stop": 1.0, "count": 3}])
    with pytest.raises(ConfigError):
        _plan(axes=[{"name": "lambda", "start": 0.1, "stop": 0.9, "count": 3}])
    for key in ("kind", "budget"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in plan"):
            _plan(**{key: 4096})
    # a plan without n_levels runs the ladder of a run config without controls
    plain = {k: v for k, v in _plan().as_dict().items() if k != "n_levels"}
    run_cfg = {k: plain[k] for k in ("problem", "grid", "source")}
    assert sw.SweepPlan.from_dict(plain)._controls == so.run_inputs(run_cfg)[2]


def test_sweep_worker_pool_matches_serial(tmp_path):
    p_axis = [{"name": "p", "start": 1.25, "stop": 1.55, "count": 4}]
    plans = {
        "kpz": dict(axes=p_axis),
        "damped": dict(axes=p_axis, alpha_damp=1.0),
        "lambda-mu": dict(axes=[{"name": "lambda", "start": 0.1, "stop": 0.4, "count": 2},
                                {"name": "mu", "start": 1e-4, "stop": 1e-2, "count": 2}]),
    }
    for name, over in plans.items():
        plan = _plan(grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=12, **over)
        d1 = os.path.join(tmp_path, name, "serial")
        d2 = os.path.join(tmp_path, name, "pool")
        sw.run_sweep(plan, out_dir=d1, workers=1)
        sw.run_sweep(plan, out_dir=d2, workers=2)
        assert open(os.path.join(d1, "cells.csv"), "rb").read() == \
            open(os.path.join(d2, "cells.csv"), "rb").read(), name


class _InlinePool:
    """ProcessPoolExecutor stand-in: records max_workers and mp_context, runs
    cells in-process."""

    sizes = []
    contexts = []

    def __init__(self, max_workers, initializer, initargs, mp_context=None):
        self.sizes.append(max_workers)
        self.contexts.append(mp_context)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize("workers, cells, kept, cpus, pool_size", [
    (100_000, 2, 0, 8, 2), (3, 5, 0, 8, 3), (4, 3, 1, 8, 2), (8, 3, 2, 8, None),
    (1, 3, 0, 8, None), (1_000_000, 5, 0, 2, 2), (4, 3, 0, 1, None),
], ids=["huge", "fewer-workers", "resumed", "one-left", "serial", "cpu-capped",
        "one-cpu"])
def test_sweep_pool_is_sized_to_the_cells_left(tmp_path, monkeypatch, workers, cells,
                                               kept, cpus, pool_size):
    # no real pool is started: the stand-in only records the size asked for,
    # and the pool is capped by the forced count of usable CPUs
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(sw, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(sw, "_worker_op", None)
    plan = _plan(axes=[{"name": "p", "start": 1.25, "stop": 1.45, "count": cells}],
                 grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=10)
    path = os.path.join(tmp_path, "cells.csv")
    if kept:
        sw.run_sweep(plan, out_dir=str(tmp_path))
        lines = open(path).readlines()
        open(path, "w").writelines(lines[:1 + kept])
        _InlinePool.sizes.clear()
    region = sw.run_sweep(plan, out_dir=str(tmp_path), workers=workers)
    assert _InlinePool.sizes == ([] if pool_size is None else [pool_size])
    assert len(region.cells) == cells
    assert region.cells == sw.run_sweep(plan, os.path.join(tmp_path, "fresh")).cells


def _no_real_pool(monkeypatch):
    """Run pool sweeps in-process, and undo what the pool initializer sets."""
    monkeypatch.setattr(sw, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "contexts", [])
    monkeypatch.setattr(sw, "_worker_plan", None)
    monkeypatch.setattr(sw, "_worker_op", None)


def test_sweep_pool_forks_its_workers(tmp_path, monkeypatch):
    # the workers inherit the plan and the operator by fork, whatever start
    # method multiprocessing defaults to (forkserver on Linux from Python 3.14)
    _no_real_pool(monkeypatch)
    monkeypatch.setattr(util, "usable_cpus", lambda: 2)
    plan = _plan(axes=[{"name": "p", "start": 1.25, "stop": 1.45, "count": 2}],
                 grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=10)
    sw.run_sweep(plan, str(tmp_path), workers=2)
    assert [ctx.get_start_method() for ctx in _InlinePool.contexts] == ["fork"]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_reads_its_run_inputs_once(tmp_path, monkeypatch, workers):
    _no_real_pool(monkeypatch)
    calls = {"run_inputs": 0, "build_grid": 0}
    for module, name in ((so, "run_inputs"), (ro, "build_grid")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    plan = _plan(axes=[{"name": "p", "start": 1.2, "stop": 1.5, "count": 16}],
                 grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=10)
    region = sw.run_sweep(plan, str(tmp_path), workers=workers)
    assert len(region.cells) == 16
    assert calls == {"run_inputs": 1, "build_grid": 1}


class _StoringPool(_InlinePool):
    """_InlinePool whose futures hold a cell's exception, as a process pool's do."""

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except BaseException as exc:
            done.set_exception(exc)
        return done


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_killed_sweep_keeps_its_finished_cells(tmp_path, monkeypatch, workers, k):
    _no_real_pool(monkeypatch)
    monkeypatch.setattr(sw, "ProcessPoolExecutor", _StoringPool)
    cells, overlay = _finished_sweep()
    header, *rows = cells.decode().splitlines(keepends=True)
    solve_damped, solved = so.solve_damped, []

    def interrupted(*args, **kwargs):
        if len(solved) == k:
            raise KeyboardInterrupt
        solved.append(args)
        return solve_damped(*args, **kwargs)
    d = str(tmp_path)
    with mock.patch.object(so, "solve_damped", interrupted), \
            pytest.raises(KeyboardInterrupt):
        sw.run_sweep(_plan(**_RESUME_PLAN), out_dir=d, workers=workers)
    first, *kept = open(os.path.join(d, "cells.csv")).read().splitlines(keepends=True)
    assert first == header
    assert set(kept) <= set(rows)
    if workers == 1:
        # the cells before the interrupted one, each row in full
        assert kept == rows[:len(kept)]
        assert sum("policy" not in row for row in kept) == k
    # a kill in the middle of a row leaves it unterminated, here with every
    # field but a digit short
    lost = [row for row in rows if row not in kept]
    with open(os.path.join(d, "cells.csv"), "a") as fh:
        fh.write(lost[0][:-3])
    with mock.patch.object(so, "solve_damped", wraps=so.solve_damped) as solve:
        sw.run_sweep(_plan(**_RESUME_PLAN), out_dir=d, workers=workers)
    assert solve.call_count == sum("policy" not in row for row in lost)
    for name, expected in (("cells.csv", cells), ("overlay.json", overlay)):
        assert open(os.path.join(d, name), "rb").read() == expected, name


@pytest.mark.parametrize("alpha", [0.0, 1.0], ids=["kpz", "damped"])
def test_sweep_cell_matches_direct_solve(tmp_path, alpha):
    # a cell is solve_damped on its own params, alpha_damp included
    plan = _plan(axes=[{"name": "p", "start": 1.25, "stop": 1.45, "count": 3}],
                 grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=12, alpha_damp=alpha)
    region = sw.run_sweep(plan, str(tmp_path))
    assert len(region.cells) == 3
    for cell in region.cells:
        cfg = {"problem": {**plan.problem, "p": cell.values["p"]}, "grid": plan.grid,
               "controls": {"n_levels": plan.n_levels}, "source": plan.source}
        params, grid, controls, f = so.run_inputs(cfg)
        op = ro.assemble_operator(grid, params.s)
        rep = so.solve_damped(replace(params, alpha_damp=alpha), f, op, controls=controls)
        assert cell.status == rep.status
        assert cell.sup_norm == rep.sup_norm
        assert cell.inner_iters == sum(row.inner_iters for row in rep.trace)



def test_sweep_cell_carries_its_damping_exponent_in_its_params():
    # an alpha_damp axis sets each cell's params; the plan value is the default
    plan = _plan(axes=[{"name": "alpha_damp", "start": 0.0, "stop": 1.5, "count": 4}],
                 alpha_damp=2.0)
    assert [params.alpha_damp for _, params, _ in plan._cells] == [0.0, 0.5, 1.0, 1.5]
    assert all(params.p == 1.3 for _, params, _ in plan._cells)
    assert [params.alpha_damp for _, params, _ in _plan(alpha_damp=2.0)._cells] == [2.0] * 9


def test_serial_sweep_factors_its_operator_once(tmp_path, monkeypatch):
    calls = []
    lu_factor = so.lu_factor

    def counting(a):
        calls.append(a)
        return lu_factor(a)
    monkeypatch.setattr(so, "lu_factor", counting)
    plan = _plan(axes=[{"name": "p", "start": 1.2, "stop": 1.5, "count": 16}],
                 grid={"R": 1.0, "M": 48, "g": 2.0}, n_levels=12)
    region = sw.run_sweep(plan, str(tmp_path), workers=1)
    assert len(region.cells) == 16
    assert {c.status for c in region.cells} == {"Converged", "BlowUp"}
    assert len(calls) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_assembly_error_marks_cells(tmp_path, monkeypatch, workers):
    calls = []
    assemble = ro.assemble_operator

    def counting(*args):
        calls.append(args)
        return assemble(*args)
    monkeypatch.setattr(ro, "_CHEB_DEGREE", 3)
    monkeypatch.setattr(ro, "assemble_operator", counting)
    plan = _plan(axes=[{"name": "p", "start": REP.p_plus, "stop": REP.p_plus + 0.3,
                        "count": 4}],
                 grid={"R": 1.0, "M": 32, "g": 2.0}, n_levels=12)
    region = sw.run_sweep(plan, str(tmp_path), workers=workers)
    assert [c.status for c in region.cells] == ["Inconclusive"] * 4
    # the cell at p_plus never reaches the operator and keeps its policy note
    assert "policy" in region.cells[0].note
    for cell in region.cells[1:]:
        assert cell.note.startswith("AssemblyError: kernel table")
    assert len(calls) == 1
