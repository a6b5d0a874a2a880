"""Monotone truncation scheme: dichotomy, invariants, probe."""

import math

import numpy as np
import pytest

from hardykpz import construct as co
from hardykpz import radialop as ro
from hardykpz import solver as so
from hardykpz import specfun as sf
from hardykpz.errors import DomainError, GridMismatchError

N, S = 3, 0.75
LAM = sf.hardy_constant(N, S) / 2
REP = sf.exponents_for(N, S, LAM)
M_TEST = 100

CTRL = so.SolverControls(n_schedule=tuple(2.0**j for j in range(17)))


@pytest.fixture(scope="module")
def grid():
    return ro.build_grid(1.0, M_TEST, 2.0, N)


@pytest.fixture(scope="module")
def op(grid):
    return ro.assemble_operator(grid, N, S)


def _params(p, mu):
    return sf.ProblemParams(N=N, s=S, lam=LAM, p=p, mu=mu)


def test_zero_data_converges_to_zero(grid, op):
    rep = so.solve_kpz(_params(1.3, 0.0), None, grid, controls=CTRL, operator=op)
    assert rep.status == "Converged"
    assert rep.field.sup_norm() == 0.0


def test_subcritical_converges_under_barrier(grid, op):
    params = _params(0.9 * REP.p_plus, 1e-3)
    spec = co.dirichlet_supersolution(params, f_bound_exponent=2 * S, f_bound_coef=0.3)
    f = so.PowerSource(0.3, 2 * S)
    assert f.admissible_for(spec, grid.R)
    rep = so.solve_kpz(params, f, grid, controls=CTRL, supersolution=spec, operator=op)
    assert rep.status == "Converged"
    assert rep.monotonicity_violations == 0
    w = spec.evaluate(grid.r)
    assert np.all(rep.field.values <= w + 1e-10)
    assert rep.fixed_point_residual <= 10 * CTRL.picard_tol
    assert math.isfinite(rep.gradient_lp_integral) and rep.gradient_lp_integral >= 0
    assert math.isfinite(rep.hardy_l1_integral) and rep.hardy_l1_integral >= 0
    # the trace records a positive barrier margin at every outer step
    assert all(row.margin > 0 for row in rep.trace)


def test_supercritical_classified_blow_up(grid, op):
    params = _params(1.1 * REP.p_plus, 1e-3)
    rep = so.solve_kpz(params, so.PowerSource(0.3, 2 * S), grid,
                       controls=CTRL, supersolution=None, operator=op)
    assert rep.status == "BlowUp"


def test_outer_sequence_monotone(grid, op):
    params = _params(0.9 * REP.p_plus, 1e-3)
    rep = so.solve_kpz(params, so.PowerSource(0.3, 2 * S), grid,
                       controls=CTRL, operator=op)
    sups = [row.sup_norm for row in rep.trace]
    tol = 10 * CTRL.picard_tol * max(sups)
    assert all(b >= a - tol for a, b in zip(sups, sups[1:]))
    assert rep.monotonicity_violations == 0


def test_truncation_path_independence(grid, op):
    params = _params(0.9 * REP.p_plus, 1e-3)
    f = so.PowerSource(0.3, 2 * S)
    scheduled = so.solve_kpz(params, f, grid, controls=CTRL, operator=op)
    fixed = so.solve_kpz(params, f, grid, operator=op,
                         controls=so.SolverControls(n_schedule=(CTRL.n_schedule[-1],)))
    diff = np.max(np.abs(scheduled.field.values - fixed.field.values))
    assert diff <= 5 * CTRL.picard_tol * max(scheduled.field.sup_norm(), 1e-300)


def test_damped_zero_alpha_matches_kpz_bitwise(grid, op):
    params = _params(1.25, 1e-3)
    f = so.PowerSource(0.3, 2 * S)
    a = so.solve_kpz(params, f, grid, controls=CTRL, operator=op)
    b = so.solve_damped(params, 0.0, params.mu, f, grid, controls=CTRL, operator=op)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.status == b.status


def test_damped_strong_damping_converges(grid):
    p = 2 * S - 0.05
    alpha = 2 * S - 1.0 + 0.5
    spec = co.damped_supersolution(N, S, LAM, p=p, alpha_damp=alpha)
    c = min(1e-3, 0.5 * spec.c_star)
    params = sf.ProblemParams(N=N, s=S, lam=LAM, p=p, mu=c)
    op_local = ro.assemble_operator(grid, N, S)
    f = so.PowerSource(1.0, spec.f_bound_exponent)
    rep = so.solve_damped(params, alpha, c, f, grid, controls=CTRL,
                          supersolution=spec, operator=op_local)
    assert rep.status == "Converged"
    assert np.all(rep.field.values <= spec.evaluate(grid.r) + 1e-10)


def test_damped_zero_source_is_zero(grid, op):
    params = _params(1.3, 0.0)
    rep = so.solve_damped(params, 1.0, 0.0, so.PowerSource(1.0, 0.5), grid,
                          controls=CTRL, operator=op)
    assert rep.status == "Converged"
    assert rep.field.sup_norm() == 0.0


def test_lambda_zero_degeneration_bounded(grid):
    # no Hardy term: plain gradient problem with a smooth source stays
    # bounded, with no singular growth over the innermost decade of nodes
    params = sf.ProblemParams(N=N, s=S, lam=0.0, p=1.15, mu=1e-2)
    op_local = ro.assemble_operator(grid, N, S)
    rep = so.solve_kpz(params, so.PowerSource(1.0, 0.0), grid,
                       controls=CTRL, operator=op_local)
    assert rep.status == "Converged"
    u = rep.field.values
    inner = u[grid.r <= 10 * grid.r[0]]
    assert inner.max() <= 1.2 * u.max()
    assert u.max() < 1.0


def test_nodal_source_and_grid_mismatch(grid, op):
    params = _params(1.25, 1e-3)
    f_field = ro.RadialField(grid, 0.3 * grid.r ** (-1.0))
    rep = so.solve_kpz(params, f_field, grid, controls=CTRL, operator=op)
    assert rep.status in ("Converged", "BlowUp", "MaxIterations")
    other = ro.build_grid(1.0, 64, 2.0, N)
    with pytest.raises(GridMismatchError):
        so.solve_kpz(params, ro.RadialField(other, np.zeros(64)), grid,
                     controls=CTRL, operator=op)


def test_controls_validation():
    with pytest.raises(DomainError):
        so.SolverControls(n_schedule=())
    with pytest.raises(DomainError):
        so.SolverControls(n_schedule=(4.0, 2.0))


def test_power_source_admissibility():
    spec = co.dirichlet_supersolution(_params(1.25, 0.0), f_bound_exponent=2 * S)
    ok = so.PowerSource(1.0, 2 * S)
    too_singular = so.PowerSource(1.0, 2 * S + spec.theta + 0.1)
    assert ok.admissible_for(spec, 1.0)
    assert not too_singular.admissible_for(spec, 1.0)
    with pytest.raises(DomainError):
        so.PowerSource(-1.0, 1.0)


# ----------------------------------------------------------------- probe

def test_probe_brackets_and_scales(grid):
    params = _params(0.9 * REP.p_plus, 1e-3)
    ctrl = so.SolverControls(n_schedule=tuple(2.0**j for j in range(15)))
    f = so.PowerSource(0.3, 2 * S)
    res = so.mu_threshold_probe(params, f, grid, controls=ctrl)
    assert res.status == "bracketed"
    assert res.mu_hi / res.mu_lo <= 1.05
    statuses = dict(res.evaluations)
    assert statuses[res.mu_lo] == "Converged"
    assert statuses[res.mu_hi] != "Converged"
    res2 = so.mu_threshold_probe(params, f.scaled(2.0), grid, controls=ctrl)
    # doubling the source exactly halves the threshold (the scheme depends
    # on the product mu * f only)
    assert res2.midpoint == pytest.approx(res.midpoint / 2.0, rel=1e-12)


def test_probe_zero_source_inconclusive(grid):
    params = _params(0.9 * REP.p_plus, 1e-3)
    res = so.mu_threshold_probe(params, so.PowerSource(0.0, 1.0), grid, controls=CTRL)
    assert res.status == "inconclusive"
    assert "by design" in res.note
