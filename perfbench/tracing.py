"""Per-layer spans and counters, recorded from outside the package.

``install`` replaces the module-level names each layer calls through with
timing wrappers.  A span's duration is added to its name; the part of it
not covered by nested wrapped spans is its self time.  Extra counts (kernel
points, inner iterations, LU flops) are taken from the wrapped call's
arguments and results, so the package itself is not changed.

Sweep workers are forked from the operation's process and inherit the
wrappers.  Each worker starts from zero after the fork and writes its totals
to ``<worker_dir>/worker-<pid>.json`` when it exits; ``Tracer.collect``
adds them to the parent's own totals.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util

import numpy as np

from hardykpz import cli, construct, radialop, solver, specfun, sweep


class Tracer:
    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.reset()

    def reset(self) -> None:
        self.calls: dict = defaultdict(int)
        self.secs: dict = defaultdict(float)
        self.self_secs: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.pool_workers = 0
        self._stack: list = []  # [span name, seconds covered by child spans]

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.secs[name] += dt
                self.self_secs[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "secs": dict(self.secs),
                "self_secs": dict(self.self_secs), "counts": dict(self.counts),
                "pool_workers": self.pool_workers}

    def collect(self) -> dict:
        """This process's totals plus those every exited worker wrote."""
        out = self.totals()
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json"))):
            with open(path) as fh:
                part = json.load(fh)
            for key in ("calls", "secs", "self_secs", "counts"):
                for name, value in part[key].items():
                    out[key][name] = out[key].get(name, 0) + value
        return out

    def _after_fork(self) -> None:
        self.reset()
        mp_util.Finalize(None, self._write_worker_totals, exitpriority=0)

    def _write_worker_totals(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.totals(), fh)


def _count_points(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["radialop.hyp2f1.points"] += int(np.size(result))


def _count_assembly(tr: Tracer, args, kwargs, result) -> None:
    if tr.in_span("sweep.cell"):
        tr.counts["sweep.assemblies"] += 1


def _count_factor(tr: Tracer, args, kwargs, result) -> None:
    n = int(np.shape(args[0] if args else kwargs["a"])[0])
    tr.counts["solver.lu.flops"] += 2 * n**3 // 3


def _count_solve(tr: Tracer, args, kwargs, result) -> None:
    n = int(np.shape(result)[0])
    nrhs = 1 if np.ndim(result) == 1 else int(np.shape(result)[1])
    tr.counts["solver.lu.flops"] += 2 * n * n * nrhs


def _scheme_counter(fn):
    sig = inspect.signature(fn)

    def count(tr: Tracer, args, kwargs, report) -> None:
        controls = sig.bind(*args, **kwargs).arguments.get("controls") \
            or solver.SolverControls()
        iters = [row.inner_iters for row in report.trace]
        tr.counts["solver.inner_iters"] += sum(iters)
        tr.counts["solver.levels"] += len(iters)
        tr.counts["solver.capped_levels"] += sum(it >= controls.picard_max for it in iters)
    return count


def _timed_pool(tr: Tracer):
    class TimedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_t0 = time.perf_counter()
            tr.pool_workers = max(tr.pool_workers, self._max_workers)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tr.calls["sweep.pool"] += 1
            tr.secs["sweep.pool"] += time.perf_counter() - self._bench_t0
    return TimedPool


def install(worker_dir: str) -> Tracer:
    """Wrap every traced name in the package and return the recording tracer."""
    tr = Tracer(worker_dir)
    targets = [
        # exponents_for and gamma_multiplier are bound by name in several
        # modules; each binding is wrapped, under one span name
        (specfun, "exponents_for", "specfun.exponents_for", None),
        (solver, "exponents_for", "specfun.exponents_for", None),
        (sweep, "exponents_for", "specfun.exponents_for", None),
        (cli, "exponents_for", "specfun.exponents_for", None),
        (specfun, "gamma_multiplier", "specfun.gamma_multiplier", None),
        (solver, "gamma_multiplier", "specfun.gamma_multiplier", None),
        (construct, "gamma_multiplier", "specfun.gamma_multiplier", None),
        (radialop, "assemble_operator", "radialop.assemble", _count_assembly),
        (radialop, "hyp2f1", "radialop.hyp2f1", _count_points),
        (radialop, "roots_legendre", "radialop.roots_legendre", None),
        (radialop, "nnls", "radialop.nnls", None),
        (radialop, "gradient_values", "radialop.gradient_values", None),
        (construct, "dirichlet_supersolution", "construct.supersolution", None),
        (construct, "damped_supersolution", "construct.supersolution", None),
        (solver, "solve_kpz", "solver.scheme", _scheme_counter(solver.solve_kpz)),
        (solver, "solve_damped", "solver.scheme", _scheme_counter(solver.solve_damped)),
        (solver, "lu_factor", "solver.lu_factor", _count_factor),
        (solver, "lu_solve", "solver.lu_solve", _count_solve),
        (sweep, "_run_cell", "sweep.cell", None),
    ]
    for module, attr, name, after in targets:
        setattr(module, attr, tr.wrap(getattr(module, attr), name, after))
    sweep.ProcessPoolExecutor = _timed_pool(tr)
    mp_util.register_after_fork(tr, Tracer._after_fork)
    return tr
