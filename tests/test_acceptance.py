"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Desk scale throughout: N = 3, s = 3/4, lambda = Lambda/2, unit ball.
Criterion 2 checks the oracle window [r_2, R/10] (the innermost node is the
origin-closure row, excluded from oracle metrics by design) and measures
refinement over the window both grids resolve.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hardykpz import construct as co
from hardykpz import radialop as ro
from hardykpz import solver as so
from hardykpz import specfun as sf
from hardykpz import sweep as sw
from hardykpz.errors import DomainError

N, S = 3, 0.75
LAM_MAX = sf.hardy_constant(N, S)
LAM = LAM_MAX / 2
REP = sf.exponents_for(N, S, LAM)

_OPS = {}


def desk_operator(M):
    if M not in _OPS:
        grid = ro.build_grid(1.0, M, 2.0, N)
        _OPS[M] = ro.assemble_operator(grid, S)
    return _OPS[M]


def report(criterion, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_special_functions():
    t0 = time.time()
    lam0 = sf.gamma_multiplier(0.0, N, S)
    ok = abs(lam0 - LAM_MAX) <= 1e-12 * LAM_MAX
    ok &= sf.gamma_multiplier(0.37, N, S) == sf.gamma_multiplier(-0.37, N, S)
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = float(rng.uniform(1e-5, 1.0)) * LAM_MAX
        back = sf.gamma_multiplier(sf.alpha_of_lambda(lam, N, S), N, S)
        ok &= abs(back - lam) <= 1e-10 * lam
    count = 0
    while count < 50:
        n_dim = int(rng.integers(2, 7))
        s = float(rng.uniform(0.55, 0.95))
        if n_dim <= 2 * s:
            continue
        lam = float(rng.uniform(0.05, 0.95)) * sf.hardy_constant(n_dim, s)
        r = sf.exponents_for(n_dim, s, lam)
        mid = (n_dim + 2 * s) / (n_dim - 2 * s + 2)
        ok &= r.p_star < r.p_minus < mid < r.p_plus < 2 * s
        count += 1
    lams = np.linspace(0.02, 0.98, 20) * LAM_MAX
    reps = [sf.exponents_for(N, S, float(l)) for l in lams]
    ok &= all(b.p_plus < a.p_plus for a, b in zip(reps, reps[1:]))
    ok &= all(b.p_minus > a.p_minus for a, b in zip(reps, reps[1:]))
    s1 = 1.0 - 1e-4
    for lam in np.linspace(0.01, 0.9 * 0.25, 10):
        alpha = sf.alpha_of_lambda(float(lam), 3, s1)
        ok &= abs(alpha - np.sqrt(0.25 - lam)) <= 1e-2
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"special-function suite ({elapsed:.2f}s)")


def test_criterion_2_operator_oracle():
    t0 = time.time()
    op200 = desk_operator(200)
    err200 = ro.oracle_power_test(op200, REP.mu_exp)
    elapsed = time.time() - t0
    op400 = desk_operator(400)
    # refinement measured over the window both grids resolve
    r_lo = op200.oracle_r_min
    radii4, rel4, _ = ro.power_test_profile(op400, REP.mu_exp)
    err400 = float(rel4[radii4 >= r_lo].max())
    ratio = err200 / err400
    ok = err200 <= 0.02 and ratio >= 1.5 and elapsed < 30.0
    report(2, ok, f"oracle error {err200:.2e} (<=2%) in {elapsed:.1f}s; "
                  f"refinement 200->400 ratio {ratio:.2f} (>=1.5)")


def test_criterion_3_hardy_bound():
    op = desk_operator(200)
    grid = op.grid
    rng = np.random.default_rng(7)
    worst = np.inf
    for _ in range(20):
        coef = rng.random(4)
        u = sum(c * (1 - grid.r**2) ** (k + 1) for k, c in enumerate(coef))
        u = u + rng.random() * np.exp(-((grid.r - 0.5) / 0.2) ** 2)
        worst = min(worst, ro.rayleigh_quotient(op, ro.RadialField(grid, u)))
    near = []
    for fac in (0.95, 0.99, 1.0):
        theta = (N - 2 * S) / 2 * fac
        u = grid.r ** (-theta) * (1.0 - grid.r)
        near.append(ro.rayleigh_quotient(op, ro.RadialField(grid, u)))
    ok = worst >= 0.95 * LAM_MAX
    ok &= min(near) >= 0.999 * LAM_MAX and min(near) <= 1.10 * LAM_MAX
    report(3, ok, f"random family min {worst / LAM_MAX:.3f} Lambda (>=0.95); "
                  f"near-optimizer reaches {min(near) / LAM_MAX:.3f} Lambda (<=1.10, from above)")


def test_criterion_4_exact_solution_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    while count < 100:
        n_dim = int(rng.integers(2, 6))
        s = float(rng.uniform(0.55, 0.95))
        if n_dim <= 2 * s:
            continue
        lam = float(rng.uniform(0.1, 0.9)) * sf.hardy_constant(n_dim, s)
        r = sf.exponents_for(n_dim, s, lam)
        p = float(rng.uniform(r.p_minus + 1e-4, r.p_plus - 1e-4))
        spec = co.exact_radial_solution(sf.ProblemParams(N=n_dim, s=s, lam=lam, p=p))
        beta = (n_dim - 2 * s) / 2 - spec.theta
        res = abs(sf.gamma_multiplier(beta, n_dim, s) - lam
                  - spec.amplitude ** (p - 1) * spec.theta**p) / lam
        worst = max(worst, res)
        count += 1
    a_hi = co.exact_radial_solution(
        sf.ProblemParams(N=N, s=S, lam=LAM, p=REP.p_plus - 1e-12)).amplitude
    a_lo = co.exact_radial_solution(
        sf.ProblemParams(N=N, s=S, lam=LAM, p=REP.p_minus + 1e-12)).amplitude
    ok = worst <= 1e-10 and 0 < a_hi < 1e-20 and 0 < a_lo < 1e-20
    report(4, ok, f"identity residual max {worst:.2e} (<=1e-10 rel); "
                  f"edge amplitudes {a_hi:.1e}, {a_lo:.1e} -> 0")


CTRL = so.SolverControls(n_levels=17)
_F = so.PowerSource(0.3, 2 * S)


def test_criterion_5a_subcritical_converges():
    t0 = time.time()
    op = desk_operator(200)
    params = sf.ProblemParams(N=N, s=S, lam=LAM, p=0.9 * REP.p_plus, mu=1e-3)
    spec = co.dirichlet_supersolution(params, _F.exponent, _F.coefficient)
    rep = so.solve_kpz(params, _F, op, controls=CTRL, supersolution=spec)
    elapsed = time.time() - t0
    below = bool(np.all(rep.field.values <= spec.evaluate(op.grid.r) + 1e-10))
    ok = (rep.status == "Converged" and rep.monotonicity_violations == 0
          and below and elapsed < 300.0)
    report("5a", ok, f"p=0.9 p+: {rep.status}, {rep.monotonicity_violations} "
                     f"monotonicity violations, u<=w={below} ({elapsed:.1f}s)")


def test_criterion_5b_supercritical_blows_up():
    t0 = time.time()
    op = desk_operator(200)
    params = sf.ProblemParams(N=N, s=S, lam=LAM, p=1.1 * REP.p_plus, mu=1e-3)
    rep = so.solve_kpz(params, _F, op, controls=CTRL)
    elapsed = time.time() - t0
    ok = rep.status == "BlowUp" and elapsed < 300.0
    report("5b", ok, f"p=1.1 p+: {rep.status} ({elapsed:.1f}s)")


def test_criterion_5c_transition_band():
    t0 = time.time()
    op = desk_operator(200)
    statuses = {}
    for frac in np.arange(0.85, 1.16, 0.025):
        p = float(frac * REP.p_plus)
        params = sf.ProblemParams(N=N, s=S, lam=LAM, p=p, mu=1e-3)
        rep = so.solve_kpz(params, _F, op, controls=CTRL)
        statuses[p] = rep.status
    conv = [p for p, st in statuses.items() if st == "Converged"]
    blow = [p for p, st in statuses.items() if st == "BlowUp"]
    band = (max(conv), min(blow))
    elapsed = time.time() - t0
    ok = band[0] < REP.p_plus <= band[1] and band[1] - band[0] <= 0.1
    report("5c", ok, f"transition band ({band[0]:.4f}, {band[1]:.4f}] contains "
                     f"p+={REP.p_plus:.4f}, width {band[1] - band[0]:.4f} (<=0.1) "
                     f"({elapsed:.1f}s)")


def test_criterion_6_mu_threshold():
    op = ro.assemble_operator(ro.build_grid(1.0, 100, 2.0, N), S)
    params = sf.ProblemParams(N=N, s=S, lam=LAM, p=0.9 * REP.p_plus, mu=1e-3)
    ctrl = so.SolverControls(n_levels=15)
    res = so.mu_threshold_probe(params, _F, op, controls=ctrl)
    f2 = so.PowerSource(2.0 * _F.coefficient, _F.exponent)
    res2 = so.mu_threshold_probe(params, f2, op, controls=ctrl)
    halving = abs(2.0 * res2.midpoint - res.midpoint) / res.midpoint
    ok = (res.status == "bracketed" and res.mu_hi / res.mu_lo <= 1.05
          and res2.status == "bracketed" and halving <= 0.10)
    report(6, ok, f"bracket [{res.mu_lo:.4g}, {res.mu_hi:.4g}]; doubling f "
                  f"moves the midpoint to {res2.midpoint:.4g} "
                  f"(halving error {halving:.1e} <= 10%)")


def test_criterion_7_damped_regime():
    p = 2 * S - 0.05
    alpha = 2 * S - 1.0 + 0.5
    c = 1e-3
    grid = ro.build_grid(1.0, 100, 2.0, N)
    params = sf.ProblemParams(N=N, s=S, lam=LAM, p=p, mu=c)
    f = so.PowerSource(1.0, 2 * S)
    spec = co.damped_supersolution(params, alpha, f.exponent, f.coefficient)
    op = ro.assemble_operator(grid, S)
    rep = so.solve_damped(params, alpha, f, op, controls=CTRL, supersolution=spec)
    rejected = False
    try:
        co.damped_supersolution(sf.ProblemParams(N, S, LAM, p), 2 * S - 1.0, 2 * S)
    except DomainError:
        rejected = True
    ok = rep.status == "Converged" and rejected
    report(7, ok, f"alpha=2s-1+0.5, p=2s-0.05, c={c:.2e}: {rep.status}; "
                  f"alpha=2s-1 rejected={rejected}")


def test_criterion_8_reproducibility(tmp_path):
    cfg = {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 0.9 * REP.p_plus, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 64, "g": 2.0},
        "controls": {"n_levels": 15},
        "source": {"coefficient": 0.3, "exponent": 2 * S},
        "supersolution": "auto",
    }
    cfg_path = os.path.join(tmp_path, "cfg.json")
    open(cfg_path, "w").write(json.dumps(cfg))

    def run(cmd, config, outdir):
        r = subprocess.run([sys.executable, "-m", "hardykpz.cli", cmd,
                            "--config", config, "--output-dir", outdir],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        h = hashlib.sha256()
        for name in sorted(os.listdir(outdir)):
            h.update(name.encode())
            h.update(open(os.path.join(outdir, name), "rb").read())
        return h.hexdigest()

    d1 = os.path.join(tmp_path, "solve1")
    d2 = os.path.join(tmp_path, "solve2")
    h1 = run("solve", cfg_path, d1)
    h2 = run("solve", os.path.join(d1, "resolved_config.json"), d2)
    solve_ok = h1 == h2

    sweep_cfg = {"plan": {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 32, "g": 2.0},
        "axes": [{"name": "p", "start": 1.25, "stop": 1.55, "count": 3}],
        "source": {"coefficient": 0.3, "exponent": 2 * S},
        "n_levels": 12,
    }}
    sweep_path = os.path.join(tmp_path, "sweep.json")
    open(sweep_path, "w").write(json.dumps(sweep_cfg))
    s1 = run("sweep", sweep_path, os.path.join(tmp_path, "sw1"))
    s2 = run("sweep", os.path.join(tmp_path, "sw1", "resolved_config.json"),
             os.path.join(tmp_path, "sw2"))
    sweep_ok = s1 == s2
    ok = solve_ok and sweep_ok
    report(8, ok, f"byte-identical replay: solve={solve_ok}, sweep={sweep_ok}")
