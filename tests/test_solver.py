"""Monotone truncation scheme: dichotomy, invariants, probe."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardykpz import construct as co
from hardykpz import radialop as ro
from hardykpz import solver as so
from hardykpz import specfun as sf
from hardykpz.errors import (ConfigError, ConstructionError, DomainError,
                             GridMismatchError, SolveError)

N, S = 3, 0.75
LAM = sf.hardy_constant(N, S) / 2
REP = sf.exponents_for(N, S, LAM)
M_TEST = 100

CTRL = so.SolverControls(n_levels=17)


@pytest.fixture(scope="module")
def grid():
    return ro.build_grid(1.0, M_TEST, 2.0, N)


@pytest.fixture(scope="module")
def op(grid):
    return ro.assemble_operator(grid, S)


def _params(p, mu):
    return sf.ProblemParams(N=N, s=S, lam=LAM, p=p, mu=mu)


def test_zero_data_converges_to_zero(grid, op):
    rep = so.solve_damped(_params(1.3, 0.0), so.PowerSource(0.0, 2 * S), op, controls=CTRL)
    assert rep.status == "Converged"
    assert rep.sup_norm == 0.0


def test_subcritical_converges_under_barrier(grid, op):
    params = _params(0.9 * REP.p_plus, 1e-3)
    f = so.PowerSource(0.3, 2 * S)
    spec = co.dirichlet_supersolution(params, f.exponent, f.coefficient, R=grid.R)
    rep = so.solve_damped(params, f, op, controls=CTRL, supersolution=spec)
    assert rep.status == "Converged"
    assert rep.monotonicity_violations == 0
    w = spec.evaluate(grid.r)
    assert np.all(rep.field <= w + 1e-10)
    assert rep.fixed_point_residual <= 10 * CTRL.picard_tol
    assert math.isfinite(rep.gradient_lp_integral) and rep.gradient_lp_integral >= 0
    assert math.isfinite(rep.hardy_l1_integral) and rep.hardy_l1_integral >= 0
    # the trace records a positive barrier margin at every outer step
    assert all(row.margin > 0 for row in rep.trace)


def test_supercritical_classified_blow_up(grid, op):
    params = _params(1.1 * REP.p_plus, 1e-3)
    rep = so.solve_damped(params, so.PowerSource(0.3, 2 * S), op,
                          controls=CTRL, supersolution=None)
    assert rep.status == "BlowUp"


def test_outer_sequence_monotone(grid, op):
    params = _params(0.9 * REP.p_plus, 1e-3)
    rep = so.solve_damped(params, so.PowerSource(0.3, 2 * S), op, controls=CTRL)
    sups = [row.sup_norm for row in rep.trace]
    tol = 10 * CTRL.picard_tol * max(sups)
    assert all(b >= a - tol for a, b in zip(sups, sups[1:]))
    assert rep.monotonicity_violations == 0


def test_truncation_path_independence(grid, op):
    # the ladder's field is the fixed point of its top level: the reference
    # scheme run at that one level, from zero, reaches it within 5 tol
    params = _params(0.9 * REP.p_plus, 1e-3)
    f = so.PowerSource(0.3, 2 * S)
    ladder = so.solve_damped(params, f, op, controls=CTRL)
    status, u, *_ = _plain_scheme(params, params.mu, f, grid, op, CTRL, None, [2.0**16])
    assert ladder.status == status == "Converged"
    diff = np.max(np.abs(ladder.field - u))
    assert diff <= 5 * CTRL.picard_tol * max(ladder.sup_norm, 1e-300)


def test_solve_kpz_is_an_alias_of_the_one_entry_point():
    # kept for perfbench/tracing.py only, and not exported
    assert so.solve_kpz is so.solve_damped
    assert "solve_kpz" not in so.__all__ and "solve_damped" in so.__all__


def test_damped_strong_damping_converges(grid):
    p = 2 * S - 0.05
    params = sf.ProblemParams(N=N, s=S, lam=LAM, p=p, mu=1e-3, alpha_damp=2 * S - 1.0 + 0.5)
    op_local = ro.assemble_operator(grid, S)
    f = so.PowerSource(1.0, 2 * S)
    spec = co.damped_supersolution(params, f.exponent, f.coefficient)
    rep = so.solve_damped(params, f, op_local, controls=CTRL, supersolution=spec)
    assert rep.status == "Converged"
    assert np.all(rep.field <= spec.evaluate(grid.r) + 1e-10)


def test_damped_zero_source_is_zero(grid, op):
    params = sf.ProblemParams(N=N, s=S, lam=LAM, p=1.3, alpha_damp=1.0)
    rep = so.solve_damped(params, so.PowerSource(1.0, 0.5), op, controls=CTRL)
    assert rep.status == "Converged"
    assert rep.sup_norm == 0.0


def test_lambda_zero_degeneration_bounded(grid):
    # no Hardy term: plain gradient problem with a smooth source stays
    # bounded, with no singular growth over the innermost decade of nodes
    params = sf.ProblemParams(N=N, s=S, lam=0.0, p=1.15, mu=1e-2)
    op_local = ro.assemble_operator(grid, S)
    rep = so.solve_damped(params, so.PowerSource(1.0, 0.0), op_local, controls=CTRL)
    assert rep.status == "Converged"
    u = rep.field
    inner = u[grid.r <= 10 * grid.r[0]]
    assert inner.max() <= 1.2 * u.max()
    assert u.max() < 1.0


def test_controls_validation():
    for n_levels in (0, -1, 1025):
        with pytest.raises(ConfigError, match="'n_levels'"):
            so.SolverControls(n_levels=n_levels)
    assert so.SolverControls(n_levels=1024).n_levels == 1024


_NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: sf.ProblemParams(N=N, s=S, lam=_NAN, p=1.3),
    lambda: sf.ProblemParams(N=N, s=S, lam=LAM, p=1.3, mu=_NAN),
    lambda: sf.alpha_of_lambda(_NAN, N, S),
    lambda: so.PowerSource(_NAN, 2 * S),
    lambda: sf.ProblemParams(N=N, s=S, lam=LAM, p=1.3, alpha_damp=_NAN),
    lambda: ro.build_grid(_NAN, 32, 2.0, N),
    lambda: ro.build_grid(1.0, 32, _NAN, N),
], ids=["lambda", "mu", "alpha_of_lambda", "source", "damping", "R", "g"])
def test_domain_bounds_refuse_nan(build):
    with pytest.raises((DomainError, ConfigError)):
        build()


def test_n_levels_up_to_the_double_range():
    # the top level 2^(n_levels-1) is a finite double up to n_levels = 1024
    cfg = {"problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3},
           "grid": {"M": 16}, "source": {"coefficient": 0.3, "exponent": 2 * S}}
    controls = so.run_inputs({**cfg, "controls": {"n_levels": 1024}})[2]
    assert controls.n_levels == 1024 and math.isfinite(2.0 ** (controls.n_levels - 1))
    with pytest.raises(ConfigError, match="'n_levels'"):
        so.run_inputs({**cfg, "controls": {"n_levels": 1025}})


def test_power_source_admissibility():
    # a barrier takes a source f = C r^-e only at a theta with e <= 2s + theta:
    # a more singular source moves it up the ladder, or leaves none
    params = _params(1.25, 1e-4)
    spec = co.dirichlet_supersolution(params, 2 * S, 1.0)
    deeper = co.dirichlet_supersolution(params, 2 * S + spec.theta + 1e-3, 1.0)
    assert deeper.theta > spec.theta and deeper.f_bound_exponent <= 2 * S + deeper.theta
    with pytest.raises(ConstructionError):
        co.dirichlet_supersolution(params, 2 * S + spec.window[1], 1.0)
    with pytest.raises(DomainError):
        so.PowerSource(-1.0, 1.0)


# ----------------------------------------------------------------- probe

def test_probe_brackets_and_scales(op):
    params = _params(0.9 * REP.p_plus, 1e-3)
    ctrl = so.SolverControls(n_levels=15)
    f = so.PowerSource(0.3, 2 * S)
    res = so.mu_threshold_probe(params, f, op, controls=ctrl)
    assert res.status == "bracketed"
    assert res.mu_hi / res.mu_lo <= 1.05
    statuses = dict(res.evaluations)
    assert statuses[res.mu_lo] == "Converged"
    assert statuses[res.mu_hi] != "Converged"
    f2 = so.PowerSource(2.0 * f.coefficient, f.exponent)
    res2 = so.mu_threshold_probe(params, f2, op, controls=ctrl)
    # doubling the source exactly halves the threshold (the scheme depends
    # on the product mu * f only)
    assert res2.midpoint == pytest.approx(res.midpoint / 2.0, rel=1e-12)


def _probes_under_f_and_2f(lam, p, mu0, coefficient):
    op = ro.assemble_operator(ro.build_grid(1.0, 32, 2.0, N), S)
    params = sf.ProblemParams(N=N, s=S, lam=lam, p=p, mu=mu0)
    ctrl = so.SolverControls(n_levels=12)
    f = so.PowerSource(coefficient, 2 * S)
    f2 = so.PowerSource(2.0 * f.coefficient, f.exponent)
    return (so.mu_threshold_probe(params, f, op, controls=ctrl),
            so.mu_threshold_probe(params, f2, op, controls=ctrl))


@settings(max_examples=5, deadline=None)
@given(lam_frac=st.floats(0.05, 0.9), p_frac=st.floats(0.2, 1.2),
       log_mu0=st.floats(-5.0, 0.0), coefficient=st.floats(0.05, 2.0))
def test_doubling_the_source_halves_the_probe_bracket(lam_frac, p_frac, log_mu0,
                                                      coefficient):
    # a run at mu with 2f is bitwise the run at 2 mu with f, and the
    # bisection's lattice mu0 * 2^(dyadic) maps onto itself under one octave.
    # The probe counts a MaxIterations run as the blow-up side, so with one
    # the bracket can depend on the path (see the test below).
    lam = lam_frac * sf.hardy_constant(N, S)
    p = 1.0 + p_frac * (sf.exponents_for(N, S, lam).p_plus - 1.0)
    res, res2 = _probes_under_f_and_2f(lam, p, 10.0**log_mu0, coefficient)
    assume(res.status == res2.status == "bracketed")
    assume(all(st != "MaxIterations" for _, st in res.evaluations + res2.evaluations))
    assert (res2.mu_lo, res2.mu_hi) == (res.mu_lo / 2.0, res.mu_hi / 2.0)


def test_doubling_the_source_halves_the_bracket_with_an_undecided_run():
    # both probes meet the run at mu = 0.955 (in the units of f), which is
    # Converged, and bracket [1.910, 1.994]; the bracket's top is
    # MaxIterations in both, and the probe counts it as the blow-up side
    res, res2 = _probes_under_f_and_2f(0.04008335511278975, 1.3632682473578237,
                                       5.8280698893398054e-05, 1.8055417188183465)
    assert res.status == res2.status == "bracketed"
    assert (res2.mu_lo, res2.mu_hi) == (res.mu_lo / 2.0, res.mu_hi / 2.0)


def test_probe_zero_source_inconclusive(op):
    params = _params(0.9 * REP.p_plus, 1e-3)
    res = so.mu_threshold_probe(params, so.PowerSource(0.0, 1.0), op, controls=CTRL)
    assert res.status == "inconclusive"
    assert "by design" in res.note


def _probe_m32(mu0):
    op = ro.assemble_operator(ro.build_grid(1.0, 32, 2.0, N), S)
    ctrl = so.SolverControls(n_levels=12)
    return so.mu_threshold_probe(_params(0.9 * REP.p_plus, mu0), so.PowerSource(0.3, 2 * S),
                                 op, controls=ctrl)


@pytest.mark.parametrize("mu0, up", [(1e-3, True), (100.0, False)],
                         ids=["upward", "downward"])
def test_probe_steps_by_four_then_bisects(mu0, up):
    # mu0 * 4^(+-k) until the status flips, then the geometric midpoints of
    # the running bracket until its relative width is at most _REL_WIDTH
    res = _probe_m32(mu0)
    mus = [mu for mu, _ in res.evaluations]
    conv = [st == "Converged" for _, st in res.evaluations]
    assert conv[0] == up
    k = conv.index(not up)
    assert k >= 2
    assert mus[:k + 1] == [mu0 * (4.0 if up else 0.25) ** j for j in range(k + 1)]
    lo, hi = sorted(mus[k - 1:k + 1])
    for mu, c in zip(mus[k + 1:], conv[k + 1:]):
        assert hi / lo > 1.0 + so._REL_WIDTH
        assert mu == math.sqrt(lo * hi)
        lo, hi = (mu, hi) if c else (lo, mu)
    assert res.status == "bracketed"
    assert (res.mu_lo, res.mu_hi) == (lo, hi)
    assert hi / lo <= 1.0 + so._REL_WIDTH


@pytest.mark.parametrize("bound, value, mu0, status, note", [
    ("_MU_CAP", 2e-3, 1e-3, "Converged", "no blow-up below mu=0.002"),
    ("_MU_FLOOR", 50.0, 100.0, "BlowUp", "no convergence above mu=50.0"),
], ids=["cap", "floor"])
def test_probe_is_inconclusive_past_its_bounds(monkeypatch, bound, value, mu0, status, note):
    monkeypatch.setattr(so, bound, value)
    res = _probe_m32(mu0)
    assert res.status == "inconclusive"
    assert res.evaluations == [(mu0, status)]
    assert res.note == note


def test_probe_bracket_holds_under_uncapped_plain_picard(monkeypatch):
    # the bracket comes from runs that are decided, not from the cap: plain
    # Picard with no practical cap agrees on both ends
    small = ro.assemble_operator(ro.build_grid(1.0, 64, 2.0, N), S)
    p = 0.9 * sf.exponents_for(N, S, _LAM_08).p_plus
    params = sf.ProblemParams(N=N, s=S, lam=_LAM_08, p=p, mu=1e-3)
    f = so.PowerSource(0.3, 1.5)
    ctrl = so.SolverControls(n_levels=15)
    res = so.mu_threshold_probe(params, f, small, controls=ctrl)
    assert res.status == "bracketed"
    monkeypatch.setattr(so.SolverControls, "picard_max", 20_000)
    monkeypatch.setattr(so.SolverControls, "anderson_depth", 0)
    for mu, expected in ((res.mu_lo, "Converged"), (res.mu_hi, "BlowUp")):
        rep = so.solve_damped(sf.ProblemParams(N=N, s=S, lam=_LAM_08, p=p, mu=mu), f,
                              small, controls=ctrl)
        assert rep.status == expected, mu
        assert max(row.inner_iters for row in rep.trace) < 20_000


# ------------------------------------------- the plain scheme, bit for bit

def _plain_gradient(grid, u):
    """|du/dr| by the 3-point stencil, coefficients formed on every call."""
    r = grid.r
    out = np.empty(grid.M)
    out[0] = (u[1] - u[0]) / (r[1] - r[0])
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    out[1:-1] = (
        -hp / (hm * (hm + hp)) * u[:-2]
        + (hp - hm) / (hm * hp) * u[1:-1]
        + hm / (hp * (hm + hp)) * u[2:]
    )
    out[-1] = (0.0 - u[-2]) / (2.0 * (r[-1] - r[-2]))
    return np.abs(out)


def _plain_scheme(params, c, f, grid, op, controls, spec, levels):
    """Reference truncation scheme: plain array expressions, the operator's
    inverse applied by ``@``.

    Each of the increasing ``levels`` runs the safeguarded Anderson
    iteration on the Picard map G(x) = L^-1 rhs_n(x), with the history kept
    in lists and the constants read from ``controls``, and keeps G(x) at its
    first certificate; with ``anderson_depth`` = 0 it is plain Picard.
    Returns (status, u, trace rows, monotonicity violations, sup bound,
    fixed-point residual) with the classification rules of the solver.
    """
    inverse = np.linalg.inv(op.matrix)
    weight = grid.r ** (-2.0 * params.s)
    source = c * f.values(grid)
    w = spec.evaluate(grid.r) if spec is not None else None
    sup_bound = float(np.max(w)) if spec is not None \
        else co.admissible_bound_sup(params, grid.R, grid.r[0])
    tol = controls.picard_tol

    def rhs_of(v, level):
        grad_p = _plain_gradient(grid, v) ** params.p
        grad_term = grad_p / (1.0 + grad_p / level)
        if params.alpha_damp != 0.0:
            grad_term = grad_term / (1.0 + v) ** params.alpha_damp
        return grad_term + params.lam * (v / (1.0 + v / level)) * weight + source

    u = np.zeros(grid.M)
    rows, sups, mono, status = [], [], 0, "MaxIterations"
    for level in levels:
        prev = u.copy()
        x, d_g, d_res, best, stall = u, [], [], math.inf, 0
        depth, gamma = controls.anderson_depth, None
        for iters in range(1, controls.picard_max + 1):
            if gamma is not None:
                x = np.maximum(g - gamma @ np.array(d_g), 0.0)
            elif iters > 1:
                x = g
            g = inverse @ rhs_of(x, level)
            assert np.all(np.isfinite(g))
            res = g - x
            resid = float(np.max(np.abs(res))) / max(float(np.max(np.abs(g))), 1e-300)
            gamma = None
            if resid <= tol:
                break
            if stall == depth:
                continue  # stalled: plain steps to the end of the level
            if resid < best:
                best, stall = resid, 0
            else:
                stall += 1
                if stall == depth:
                    continue
            if iters > 1:
                d_g = (d_g + [g - g_prev])[-depth:]
                d_res = (d_res + [res - res_prev])[-depth:]
            g_prev, res_prev = g, res
            if d_res:
                block = np.array(d_res)
                try:
                    gamma = np.linalg.solve(block @ block.T, block @ res)
                except np.linalg.LinAlgError:
                    d_g, d_res = [], []
        u = g
        sup = float(np.max(np.abs(u)))
        sups.append(sup)
        mono += int(np.sum(prev - u > 10.0 * tol * max(sup, 1.0)))
        rows.append((level, iters, resid, sup,
                     float(np.min(w - u)) if w is not None else math.nan))
        win = controls.growth_window
        recent = sups[-(win + 1):]
        if (math.isfinite(sup_bound) and sup_bound > 0.0
                and sup > controls.blowup_factor * sup_bound) \
                or (sup_bound == 0.0 and sup > 0.0 and len(sups) > win
                    and all(b > a + 10.0 * tol * max(sup, 1.0)
                            for a, b in zip(recent, recent[1:]))) \
                or sup > controls.sup_cap:
            status = "BlowUp"
            break
        if level == levels[-1]:
            if resid > tol or (w is not None and np.any(u > w + 1e-6 * sup_bound + 1e-12)):
                status = "MaxIterations"
            else:
                status = "Converged"
    residual = math.nan
    if status == "Converged":
        rhs = rhs_of(u, levels[-1])
        residual = float(np.max(np.abs(op.matrix @ u - rhs))) / max(
            float(np.max(np.abs(rhs))), 1e-300)
    return status, u, rows, mono, sup_bound, residual


_TRACE_FIELDS = ("outer_n", "inner_iters", "residual", "sup_norm", "margin")


def _assert_same_trace(trace, rows):
    """TraceRows equal to rows of (outer_n, inner_iters, ...) bit for bit."""
    assert len(trace) == len(rows)
    for k, name in enumerate(_TRACE_FIELDS):
        assert np.array_equal([getattr(row, name) for row in trace],
                              [row[k] for row in rows], equal_nan=True), name


_LEVELS10 = so.SolverControls(n_levels=10)
_LAM_08 = 0.8 * sf.hardy_constant(N, S)


_CASES = ["converged", "blowup", "capped", "damped", "projected"]
_EXPECTED = {"converged": "Converged", "blowup": "BlowUp", "capped": "BlowUp",
             "damped": "Converged", "projected": "BlowUp"}


def _case(case):
    """(params, source, controls, barrier) of a named case."""
    f = so.PowerSource(0.3, 2 * S)
    spec, controls = None, CTRL
    if case == "converged":
        params = _params(0.9 * REP.p_plus, 1e-3)
        spec = co.dirichlet_supersolution(params, f_bound_exponent=2 * S, f_bound_coef=0.3)
    elif case == "blowup":
        params = _params(1.1 * REP.p_plus, 1e-3)
    elif case == "capped":
        # near Lambda: the level where the iterate leaves the bounded branch
        # (n = 64) is the slow one, 341 evaluations before the blow-up call
        p_plus = sf.exponents_for(N, S, _LAM_08).p_plus
        params = sf.ProblemParams(N=N, s=S, lam=_LAM_08, p=0.9 * p_plus, mu=1.25e-2)
        f, controls = so.PowerSource(0.3, 1.5), _LEVELS10
    elif case == "projected":
        # supercritical near Lambda: extrapolated iterates go negative and
        # are projected onto u >= 0 on the way to the blow-up call
        p_plus = sf.exponents_for(N, S, _LAM_08).p_plus
        params = sf.ProblemParams(N=N, s=S, lam=_LAM_08, p=1.1 * p_plus, mu=0.1)
        f, controls = so.PowerSource(0.3, 1.5), _LEVELS10
    else:
        params = sf.ProblemParams(N=N, s=S, lam=LAM, p=2 * S - 0.05, mu=1e-3,
                                  alpha_damp=2 * S - 1.0 + 0.5)
        f = so.PowerSource(1.0, 2 * S)
        spec = co.damped_supersolution(params, f.exponent, f.coefficient)
    return params, f, controls, spec


def _solve_case(case, op):
    params, f, controls, spec = _case(case)
    return so.solve_damped(params, f, op, controls=controls, supersolution=spec)


@pytest.mark.parametrize("scale, status", [(0.02, "MaxIterations"), (0.05, "Converged")])
def test_barrier_violated_below_the_threshold_is_max_iterations(scale, status):
    # the Dirichlet barrier shrunk by ``scale``: at 0.02 the last level
    # crosses it (margin -2.8e-4) with a sup of 4.4e-3, below blowup_factor
    # times the barrier's sup (0.130), so no blow-up call decides the run
    grid, op = _small_operator(64)
    p_plus = sf.exponents_for(N, S, LAM).p_plus
    params = _params(0.9 * p_plus, 1e-3)
    f = so.PowerSource(0.3, 1.5)
    spec = co.dirichlet_supersolution(params, f.exponent, f.coefficient)
    spec = replace(spec, amplitude=scale * spec.amplitude)
    rep = so.solve_damped(params, f, op, controls=_LEVELS10, supersolution=spec)
    assert rep.status == status
    w_sup = float(np.max(spec.evaluate(grid.r)))
    assert rep.sup_bound == w_sup
    assert rep.sup_norm <= so.SolverControls.blowup_factor * w_sup
    if status == "MaxIterations":
        assert rep.trace[-1].residual <= so.SolverControls.picard_tol
        assert rep.trace[-1].margin == pytest.approx(-2.8e-4, rel=0.05)
        assert rep.sup_norm == pytest.approx(4.4e-3, rel=0.05)
        assert 10 * w_sup == pytest.approx(0.130, rel=0.01)


@pytest.mark.parametrize("case", _CASES)
def test_scheme_matches_the_plain_formulas_bitwise(grid, op, case, monkeypatch):
    if case == "capped":
        # whether a fold passage reaches the cap rests on trailing digits, so
        # a cap below its 341 evaluations makes it stop there by construction
        monkeypatch.setattr(so.SolverControls, "picard_max", 200)
    rep = _solve_case(case, op)
    params, f, controls, spec = _case(case)
    status, u, rows, mono, sup_bound, residual = _plain_scheme(
        params, params.mu, f, grid, op, controls, spec,
        [2.0**j for j in range(controls.n_levels)])
    assert rep.status == status == _EXPECTED[case]
    if case == "capped":
        assert any(row[1] == controls.picard_max for row in rows)
    assert np.array_equal(rep.field, u)
    _assert_same_trace(rep.trace, rows)
    # the run states its sup-norm once: the last trace row's, max |field|
    assert type(rep.sup_norm) is float
    assert rep.sup_norm == rep.trace[-1].sup_norm == float(np.max(np.abs(u)))
    assert rep.monotonicity_violations == mono
    assert rep.sup_bound == sup_bound
    assert np.array_equal(rep.fixed_point_residual, residual, equal_nan=True)


@pytest.mark.parametrize("case", _CASES)
def test_accelerated_scheme_certifies_the_picard_fixed_point(grid, op, case, monkeypatch):
    rep = _solve_case(case, op)
    params, f, controls, spec = _case(case)
    monkeypatch.setattr(so.SolverControls, "picard_max", 20_000)
    monkeypatch.setattr(so.SolverControls, "anderson_depth", 0)
    status, u, rows, *_ = _plain_scheme(params, params.mu, f, grid, op,
                                        controls, spec, [2.0**j for j in range(controls.n_levels)])
    assert max(row[1] for row in rows) < 20_000
    assert rep.status == status
    # a plain-Picard stop lies up to tol q/(1-q) short of the fixed point, q
    # the Picard map's contraction factor: below 0.99 on every level compared
    # here (at most 349 plain steps), so the two runs agree to 100 tol;
    # measured at most 3.0e-7 (projected case) and 6.7e-9 on the converged
    # fields
    close = 100.0 * controls.picard_tol
    assert len(rep.trace) == len(rows)
    for row, plain in zip(rep.trace[:-1], rows[:-1]):
        assert row.residual <= controls.picard_tol
        assert abs(row.sup_norm - plain[3]) <= close * plain[3]
    if status == "Converged":
        assert rep.trace[-1].residual <= controls.picard_tol
        assert np.max(np.abs(rep.field - u)) <= close * np.max(np.abs(u))


@settings(max_examples=60, deadline=None)
@given(M=st.integers(16, 300), g=st.floats(1.0, 4.0), R=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_gradient_values_equals_the_plain_stencil(M, g, R, seed, scale):
    grid = ro.build_grid(R, M, g, N)
    u = scale * np.random.default_rng(seed).standard_normal(M)
    assert np.array_equal(ro.gradient_values(grid, u), _plain_gradient(grid, u))


# ----------------------------------- invariants of the accelerated scheme

@functools.lru_cache(maxsize=None)
def _small_operator(M):
    grid = ro.build_grid(1.0, M, 2.0, N)
    return grid, ro.assemble_operator(grid, S)


@settings(max_examples=30, deadline=None)
@given(M=st.integers(32, 64), lam_frac=st.floats(0.05, 0.9),
       p_frac=st.floats(0.2, 0.95), log_mu=st.floats(-5.0, -1.0),
       e_frac=st.floats(0.0, 1.0))
def test_accelerated_iterates_stay_monotone_and_under_the_barrier(
        M, lam_frac, p_frac, log_mu, e_frac):
    # the extrapolated iterates may overshoot; the certified ones may not
    lam = lam_frac * sf.hardy_constant(N, S)
    p_plus = sf.exponents_for(N, S, lam).p_plus
    params = sf.ProblemParams(N=N, s=S, lam=lam, p=1.0 + p_frac * (p_plus - 1.0),
                              mu=10.0**log_mu)
    f = so.PowerSource(0.3, e_frac * 2 * S)
    try:
        spec = co.dirichlet_supersolution(params, f.exponent, f.coefficient)
    except ConstructionError:
        assume(False)  # mu too large for this barrier
    grid, op = _small_operator(M)
    rep = so.solve_damped(params, f, op, controls=CTRL, supersolution=spec)
    assert rep.monotonicity_violations == 0
    slack = 1e-6 * rep.sup_bound
    assert all(row.margin >= -slack for row in rep.trace)
    assert np.all(rep.field <= spec.evaluate(grid.r) + slack)


# ------------------------------------------------------ one factorization

@pytest.fixture
def factor_calls(monkeypatch):
    """Number of solver.lu_factor calls made since the fixture was set up."""
    calls = []
    lu_factor = so.lu_factor

    def counting(a):
        calls.append(a)
        return lu_factor(a)
    monkeypatch.setattr(so, "lu_factor", counting)
    return calls


def test_probe_factors_its_operator_once(grid, factor_calls):
    params = _params(0.9 * REP.p_plus, 1e-3)
    ctrl = so.SolverControls(n_levels=12)
    res = so.mu_threshold_probe(params, so.PowerSource(0.3, 2 * S),
                                ro.assemble_operator(grid, S), controls=ctrl)
    assert res.status == "bracketed"
    assert len(res.evaluations) > 1
    assert len(factor_calls) == 1


def test_run_on_factored_operator_matches_fresh_operator(grid, factor_calls):
    params = _params(0.9 * REP.p_plus, 1e-3)
    f = so.PowerSource(0.3, 2 * S)
    used = ro.assemble_operator(grid, S)
    so.solve_damped(params, f, used, controls=CTRL)
    assert used.factors is not None and len(factor_calls) == 1
    again = so.solve_damped(params, f, used, controls=CTRL)
    assert len(factor_calls) == 1
    fresh = so.solve_damped(params, f, ro.assemble_operator(grid, S), controls=CTRL)
    assert len(factor_calls) == 2
    assert again.status == fresh.status
    assert np.array_equal(again.field, fresh.field)
    _assert_same_trace(again.trace, [[getattr(row, name) for name in _TRACE_FIELDS]
                                     for row in fresh.trace])
    for name in ("monotonicity_violations", "fixed_point_residual",
                 "gradient_lp_integral", "hardy_l1_integral", "sup_bound"):
        assert getattr(again, name) == getattr(fresh, name), name


@pytest.mark.parametrize("run", [
    lambda params, f, op: so.solve_damped(params, f, op),
    lambda params, f, op: so.solve_damped(replace(params, alpha_damp=1.0), f, op),
    lambda params, f, op: so.mu_threshold_probe(params, f, op),
], ids=["solve_damped-undamped", "solve_damped", "mu_threshold_probe"])
def test_scheme_refuses_an_operator_of_another_problem(run):
    # an operator assembled for s = 0.75 would run a problem with s = 0.9 on
    # the wrong (-Lap)^s; the refusal comes before the first factorization
    op = ro.assemble_operator(ro.build_grid(1.0, 32, 2.0, N), S)
    s = 0.9
    params = sf.ProblemParams(N=N, s=s, lam=sf.hardy_constant(N, s) / 2, p=1.3, mu=1e-3)
    with pytest.raises(GridMismatchError, match=r"\(3, 0\.75\).*\(3, 0\.9\)"):
        run(params, so.PowerSource(0.3, 2 * s), op)
    assert op.factors is None


@pytest.mark.parametrize("s", [0.75, 0.99])
def test_inverse_apply_matches_lu_solve(s):
    """The scheme's solve, the operator's inverse times the right-hand side,
    agrees with LAPACK's LU solve on assembled operators (condition numbers
    about 1e8 at s = 0.75 and 1e10 at s = 0.99, M = 400)."""
    op = ro.assemble_operator(ro.build_grid(1.0, 400, 2.0, N), s)
    lu = scipy.linalg.lu_factor(op.matrix)
    inverse = so.factor_operator(op)
    rng = np.random.default_rng(16)
    for b in (np.ones(400), op.grid.r ** (-2.0 * s), rng.uniform(0.0, 1.0, 400)):
        want = scipy.linalg.lu_solve(lu, b)
        got = so.lu_solve(inverse, b, np.empty(400))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_singular_operator_raises_solve_error():
    op = ro.assemble_operator(ro.build_grid(1.0, 32, 2.0, N), S)
    op.matrix[:, 3] = 0.0
    with pytest.raises(SolveError, match="factorization failed"):
        so.factor_operator(op)
    assert op.factors is None
