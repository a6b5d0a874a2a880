"""Monotone approximation scheme for the gradient problem with Hardy term.

The truncated problems saturate the gradient power and the Hardy term at
level n; each level solves the fixed point of the Picard map
G(u) = L^-1 RHS_n(u), warm-started from the previous level, starting from
zero.  The inner iteration is safeguarded Anderson acceleration of G
(Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011), and its certificate is the
plain Picard one: a level converges at the first x whose image G(x) moves
it by at most ``picard_tol`` relative, and G(x), which solves
L G(x) = RHS_n(x) exactly, is the level's result.  Increasing truncation
levels produce an increasing iterate sequence bounded by any valid
supersolution; divergence across levels is classified as blow-up by a fixed
heuristic (threshold against the supersolution bound plus sustained
growth), never proved.  ``run_inputs`` is the one reader of a run config,
for ``solve``, ``probe`` and every sweep plan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    GridMismatchError,
    NumericalDivergenceError,
    SolveError,
)
# exponents_for, gamma_multiplier: unused here, but perfbench/tracing.py wraps both bindings
from .specfun import ProblemParams, exponents_for, gamma_multiplier
from .construct import SupersolutionSpec
from .util import from_block, known, require, value, write_csv
from . import construct, radialop

__all__ = [
    "PowerSource",
    "SolverControls",
    "TraceRow",
    "SolverReport",
    "ProbeResult",
    "solve_damped",
    "mu_threshold_probe",
    "run_inputs",
    "source_input",
    "save_trace",
]


@dataclass(frozen=True)
class PowerSource:
    """Analytic source bound f(r) = coefficient * r^-exponent.

    Using the descriptor instead of nodal data lets a barrier's margin count
    the source exactly rather than sampled.
    """

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not self.coefficient >= 0.0:
            raise DomainError("source coefficient must be nonnegative")

    def values(self, grid: radialop.RadialGrid) -> np.ndarray:
        return self.coefficient * grid.r ** (-self.exponent)


@dataclass(frozen=True)
class SolverControls:
    """Outer truncation ladder: ``n_levels`` levels 2^0..2^(n_levels-1), at
    most 1024 so that the top level is a finite double (a run config's
    ``controls`` key and a sweep plan's key, both with this default).

    The class constants are the inner tolerance and the cap on map
    evaluations per level; the Anderson history depth, which is also the
    number of steps without a new least residual after which a level takes
    plain steps only (``anderson_depth`` = 0 is plain Picard); and the
    blow-up thresholds: a sup-norm above ``blowup_factor`` times the barrier
    bound, ``growth_window`` consecutive increases with no admissible
    barrier, or a sup-norm above ``sup_cap``.
    """

    n_levels: int = 13
    picard_tol: ClassVar[float] = 1e-8
    picard_max: ClassVar[int] = 500
    blowup_factor: ClassVar[float] = 10.0
    anderson_depth: ClassVar[int] = 5
    growth_window: ClassVar[int] = 5
    sup_cap: ClassVar[float] = 1e12

    def __post_init__(self):
        n = value(vars(self), "n_levels", "controls", int)
        if not 1 <= n <= sys.float_info.max_exp:
            raise ConfigError(f"'n_levels' must be at most {sys.float_info.max_exp} "
                              f"(2^(n_levels-1) a finite double) and at least 1, got {n}")
        object.__setattr__(self, "n_levels", n)


@dataclass
class TraceRow:
    outer_n: float
    inner_iters: int
    residual: float
    sup_norm: float
    margin: float  # min(w - u) against the supersolution; nan without one


@dataclass
class SolverReport:
    """Outcome of one scheme run.

    ``status`` is one of Converged / BlowUp / MaxIterations; blow-up is a
    classification, not an error.  ``field`` is the last level's nodal
    solution on the operator's grid and ``sup_norm`` its max |u|, the last
    trace row's.  On convergence the report carries the fixed-point residual
    of the last truncated problem and the finiteness diagnostics (ball
    integrals of |grad u|^p and u |x|^-2s).
    """

    status: str
    field: np.ndarray
    sup_norm: float
    trace: list = field(default_factory=list)
    monotonicity_violations: int = 0
    fixed_point_residual: float = math.nan
    gradient_lp_integral: float = math.nan
    hardy_l1_integral: float = math.nan
    sup_bound: float = math.nan


def run_inputs(cfg: dict) -> tuple[ProblemParams, radialop.RadialGrid,
                                   SolverControls, PowerSource, str]:
    """Problem, grid, controls, source and barrier choice of a run config.

    The one reader of a run config: ``hardykpz solve``/``probe`` pass
    their config file, a sweep plan its first cell's.  Its top-level keys
    are ``problem``, ``grid``, ``controls``, ``source`` and
    ``supersolution``, which is ``"none"`` (the default) or ``"auto"``.
    Defaults: ``mu`` 0, ``alpha_damp`` 0 (the undamped problem), ``R`` 1,
    ``g`` 2, and the SolverControls defaults (``controls`` takes its one
    field, ``n_levels``).  A missing or unknown key, or a value of the wrong
    type or out of range, raises ConfigError naming it: an unknown top-level
    key first, then the blocks in the order above, the barrier choice last.
    """
    known(cfg, ("problem", "grid", "controls", "source", "supersolution"), "config")
    block = known(require(cfg, "problem", "config"),
                  ("N", "s", "lambda", "p", "mu", "alpha_damp"), "problem")
    params = ProblemParams(
        N=value(block, "N", "problem", int),
        s=value(block, "s", "problem", float),
        lam=value(block, "lambda", "problem", float),
        p=value(block, "p", "problem", float),
        mu=value(block, "mu", "problem", float, 0.0),
        alpha_damp=value(block, "alpha_damp", "problem", float, 0.0),
    )
    block = known(require(cfg, "grid", "config"), ("R", "M", "g"), "grid")
    grid = radialop.build_grid(
        R=value(block, "R", "grid", float, 1.0),
        M=value(block, "M", "grid", int),
        g=value(block, "g", "grid", float, 2.0),
        N=params.N,
    )
    controls = from_block(SolverControls, cfg.get("controls", {}), "controls")
    f = source_input(cfg)
    barrier = cfg.get("supersolution", "none")
    if barrier not in ("none", "auto"):
        raise ConfigError(f'supersolution must be "none" or "auto", got {barrier!r}')
    return params, grid, controls, f, barrier


def source_input(cfg: dict) -> PowerSource:
    """The ``source`` block of a run config, as ``run_inputs`` reads it."""
    block = known(require(cfg, "source", "config"), ("coefficient", "exponent"), "source")
    return PowerSource(
        coefficient=value(block, "coefficient", "source", float),
        exponent=value(block, "exponent", "source", float),
    )


def lu_factor(a: np.ndarray) -> np.ndarray:
    """The inverse of ``a``, formed once by LU with partial pivoting
    (``np.linalg.inv``); raises numpy's LinAlgError when ``a`` is singular.

    The scheme applies the operator's inverse once per map evaluation, so a
    matrix-vector product replaces the two triangular solves.
    """
    return np.linalg.inv(a)


def factor_operator(op: radialop.OperatorMatrix) -> np.ndarray:
    """The inverse of ``op.matrix``, formed on first use and kept on ``op``.

    Raises SolveError when the matrix is singular.
    """
    if op.factors is None:
        try:
            op.factors = lu_factor(op.matrix)
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"linear operator factorization failed: {exc}") from exc
    return op.factors


def lu_solve(inverse: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Solution x of A x = b from ``inverse`` = lu_factor(A), written into
    ``out`` (which must not be ``b``) and returned.

    One BLAS matrix-vector product; the inner loop's right-hand sides are
    float vectors of the operator's size, and a non-finite one gives a
    non-finite iterate, which the loop rejects.
    """
    return np.dot(inverse, b, out=out)


@np.errstate(all="ignore")  # a non-finite iterate raises NumericalDivergenceError
def solve_damped(params: ProblemParams, f: PowerSource, op: radialop.OperatorMatrix,
                 controls: SolverControls | None = None,
                 supersolution: SupersolutionSpec | None = None) -> SolverReport:
    """Run the truncation scheme for the problem ``params``, its gradient
    term damped by (1+u)^-alpha, alpha = ``params.alpha_damp`` (0: undamped).

    ``op`` is ``radialop.assemble_operator(grid, params.s)`` for a grid of
    N = ``params.N``, else GridMismatchError before any iteration; its
    inverse is formed on its first run and reused by every later one.  The
    source is the PowerSource ``f`` scaled by ``params.mu``.  The barrier
    ``supersolution`` sets the blow-up threshold and the trace's margin;
    without one (as in the probe) a run is judged against
    ``construct.admissible_bound_sup`` (BlowUp above ``blowup_factor`` times
    it, or by sustained growth where it is 0), which is inf, no bound, for a
    damped run.

    Every step evaluates one plain Picard map G(x) = L^-1 rhs
    (rhs = g/(1+g/n) [/(1+x)^alpha] + lam (x/(1+x/n)) r^-2s + source,
    g = |grad x|^p) from the plain expressions in the same order, in place.
    The next x is then G(x) - sum_i gamma_i dG_i, projected onto x >= 0
    (which keeps the right-hand side finite), where dG_i and dF_i are the
    differences of the last ``anderson_depth`` successive G(x) and residuals
    F(x) = G(x) - x, and gamma solves the normal equations of
    min |F(x) - sum_i gamma_i dF_i|.
    Once ``anderson_depth`` consecutive steps make no new least residual on
    the level, the steps are plain: x = G(x).  A level ends at its first
    certificate |G(x) - x| <= ``picard_tol`` |G(x)| (max norms) and keeps
    G(x), or after ``picard_max`` evaluations.
    """
    controls = controls or SolverControls()
    if (op.grid.N, op.s) != (params.N, params.s):
        raise GridMismatchError(f"operator assembled for (N, s) = ({op.grid.N}, {op.s}), "
                                f"problem has (N, s) = ({params.N}, {params.s})")
    grid = op.grid
    r = grid.r
    hardy_weight = r ** (-2.0 * params.s)
    inverse = factor_operator(op)
    source = params.mu * f.values(grid)

    w_vals = supersolution.evaluate(r) if supersolution is not None else None
    sup_bound = float(np.max(w_vals)) if w_vals is not None \
        else construct.admissible_bound_sup(params, grid.R, grid.r[0])

    M = grid.M
    u = np.zeros(M)        # the iterate x; after each level, its certified G(x)
    g = np.empty(M)        # G(x)
    res = np.empty(M)      # G(x) - x
    g_prev = np.empty(M)
    res_prev = np.empty(M)
    tmp = np.empty(M)
    depth = controls.anderson_depth
    d_g = np.empty((depth, M))    # differences of successive G(x), oldest first
    d_res = np.empty((depth, M))  # differences of successive residuals
    trace: list[TraceRow] = []
    mono_violations = 0
    lam = params.lam
    p = params.p
    tol = controls.picard_tol

    def rhs_of(v: np.ndarray, level: float) -> np.ndarray:
        rhs = radialop.gradient_values(grid, v)
        rhs **= p
        t = np.divide(rhs, level, out=tmp)
        t += 1.0
        rhs /= t
        if params.alpha_damp != 0.0:
            t = np.add(v, 1.0, out=tmp)
            t **= params.alpha_damp
            rhs /= t
        t = np.divide(v, level, out=tmp)
        t += 1.0
        np.divide(v, t, out=t)
        t *= lam
        t *= hardy_weight
        rhs += t
        rhs += source
        return rhs

    for level in (2.0**j for j in range(controls.n_levels)):
        u_prev_outer = u.copy()
        inner_resid = math.inf
        best = math.inf
        stall = 0
        hist = 0
        gamma = None
        for iters in range(1, controls.picard_max + 1):
            if gamma is not None:
                # Anderson step: x = G(x) - sum_i gamma_i dG_i, kept >= 0
                np.dot(gamma, d_g[:hist], out=u)
                np.subtract(g, u, out=u)
                np.maximum(u, 0.0, out=u)
            elif iters > 1:
                np.copyto(u, g)
            lu_solve(inverse, rhs_of(u, level), g)
            # np.max propagates NaN and inf, so this is the finiteness check
            top = float(np.abs(g, out=res).max())
            if not math.isfinite(top):
                raise NumericalDivergenceError(
                    f"non-finite iterate at truncation level {level}"
                )
            np.subtract(g, u, out=res)
            inner_resid = float(np.abs(res, out=tmp).max()) / max(top, 1e-300)
            if inner_resid <= tol:
                break
            gamma = None
            if stall < depth:
                stall = 0 if inner_resid < best else stall + 1
                best = min(best, inner_resid)
            if stall == depth:
                continue  # depth steps with no new least residual: plain from here
            if iters > 1:
                if hist == depth:
                    d_g[:-1] = d_g[1:]
                    d_res[:-1] = d_res[1:]
                    hist -= 1
                np.subtract(g, g_prev, out=d_g[hist])
                np.subtract(res, res_prev, out=d_res[hist])
                hist += 1
            np.copyto(g_prev, g)
            np.copyto(res_prev, res)
            if hist:
                # least-squares weights from the normal equations
                block = d_res[:hist]
                try:
                    gamma = np.linalg.solve(block @ block.T, block @ res)
                except np.linalg.LinAlgError:  # singular: drop the history
                    hist = 0
        u, g = g, u
        sup = float(np.max(np.abs(u)))
        drop = u_prev_outer - u
        tol_abs = 10.0 * controls.picard_tol * max(sup, 1.0)
        mono_violations += int(np.sum(drop > tol_abs))
        margin = math.nan
        if w_vals is not None:
            margin = float(np.min(w_vals - u))
        trace.append(TraceRow(level, iters, inner_resid, sup, margin))

        # classification: iterates exceeding the barrier (or, with no
        # admissible barrier at all, any sustained growth) mean blow-up
        recent = [row.sup_norm for row in trace[-(controls.growth_window + 1):]]
        growing = len(recent) > controls.growth_window and all(
            b > a + tol_abs for a, b in zip(recent, recent[1:]))
        if (math.isfinite(sup_bound) and sup_bound > 0.0
                and sup > controls.blowup_factor * sup_bound) \
                or (sup_bound == 0.0 and sup > 0.0 and growing) \
                or sup > controls.sup_cap:
            status = "BlowUp"
            break
    else:
        # the last level ran without a blow-up call
        if inner_resid > controls.picard_tol:
            status = "MaxIterations"
        elif w_vals is not None and bool(
                np.any(u > w_vals + 1e-6 * sup_bound + 1e-12)):
            status = "MaxIterations"  # barrier violated without threshold
        else:
            status = "Converged"

    report = SolverReport(
        status=status,
        field=u,
        sup_norm=sup,
        trace=trace,
        monotonicity_violations=mono_violations,
        sup_bound=sup_bound,
    )
    if status == "Converged":
        rhs_full = rhs_of(u, level)  # the loop ran to the top level
        denom = max(float(np.max(np.abs(rhs_full))), 1e-300)
        report.fixed_point_residual = float(np.max(np.abs(op.matrix @ u - rhs_full))) / denom
        grad_p = radialop.gradient_values(grid, u) ** p
        report.gradient_lp_integral = grid.integrate(grad_p)
        report.hardy_l1_integral = grid.integrate(np.abs(u) * hardy_weight)
    return report


# kept only because perfbench/tracing.py wraps both names; it goes when the
# benchmark reads an instrumentation record instead (ROADMAP item 1)
solve_kpz = solve_damped


# the probe's search range for mu and the relative width of its final bracket
_MU_FLOOR = 1e-8
_MU_CAP = 1e8
_REL_WIDTH = 0.05


@dataclass
class ProbeResult:
    """Bracketing outcome of the source-scale threshold probe."""

    status: str        # "bracketed" | "inconclusive"
    mu_lo: float = math.nan
    mu_hi: float = math.nan
    evaluations: list = field(default_factory=list)
    note: str = ""

    @property
    def midpoint(self) -> float:
        return math.sqrt(self.mu_lo * self.mu_hi)


def mu_threshold_probe(params: ProblemParams, f: PowerSource,
                       op: radialop.OperatorMatrix,
                       controls: SolverControls | None = None) -> ProbeResult:
    """Bisect the source scale between a Converged run and one that is not
    (BlowUp or MaxIterations).

    Every run is a solve_damped on the operator ``op`` it is given, factored on
    the first run and reused by the rest.  From mu_0 = ``params.mu`` clamped
    to [``_MU_FLOOR``, ``_MU_CAP``] (1 when it is 0), the scale steps by a
    factor 4 (up from a Converged run, down from any other) until the status
    flips, then bisects geometrically to relative width <= ``_REL_WIDTH``.
    The result is inconclusive (reported, not raised) when no bracket exists
    inside [``_MU_FLOOR``, ``_MU_CAP``] - e.g. for a vanishing source, where
    the scale is irrelevant by design.
    """
    controls = controls or SolverControls()
    if f.coefficient == 0.0:
        return ProbeResult(status="inconclusive",
                           note="vanishing source: scale is irrelevant by design")
    evaluations = []

    def converges(mu_val: float) -> bool:
        rep = solve_damped(replace(params, mu=mu_val), f, op, controls)
        evaluations.append((mu_val, rep.status))
        return rep.status == "Converged"

    mu = min(max(params.mu, _MU_FLOOR), _MU_CAP) if params.mu > 0.0 else 1.0
    up = converges(mu)
    while True:
        prev, mu = mu, mu * 4.0 if up else mu / 4.0
        if up and mu > _MU_CAP:
            return ProbeResult(status="inconclusive", evaluations=evaluations,
                               note=f"no blow-up below mu={_MU_CAP}")
        if not up and mu < _MU_FLOOR:
            return ProbeResult(status="inconclusive", evaluations=evaluations,
                               note=f"no convergence above mu={_MU_FLOOR}")
        if converges(mu) != up:
            break
    lo, hi = (prev, mu) if up else (mu, prev)
    while hi / lo > 1.0 + _REL_WIDTH:
        mid = math.sqrt(lo * hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return ProbeResult(status="bracketed", mu_lo=lo, mu_hi=hi,
                       evaluations=evaluations)


def save_trace(report: SolverReport, path: str) -> None:
    """CSV trace: outer_n, inner_iters, residual, sup_norm, margin."""
    write_csv(path, "outer_n,inner_iters,residual,sup_norm,margin\n",
              (astuple(row) for row in report.trace))
