"""Closed-form solutions and supersolutions: identities, windows, margins."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardykpz import construct as co
from hardykpz import radialop as ro
from hardykpz import specfun as sf
from hardykpz.errors import ConstructionError, DomainError

N, S = 3, 0.75
LAM = sf.hardy_constant(N, S) / 2
REP = sf.exponents_for(N, S, LAM)


def _params(p, mu=0.0, lam=LAM):
    return sf.ProblemParams(N=N, s=S, lam=lam, p=p, mu=mu)


def _gap(spec):
    """gamma - lambda at the spec's profile exponent."""
    half = (spec.N - 2 * spec.s) / 2
    return sf.gamma_multiplier(half - spec.theta, spec.N, spec.s) - spec.lam


_SCALES = [2.0**k for k in range(-8, 9)]
_problem_points = dict(
    n_dim=st.integers(2, 5),
    s=st.floats(0.55, 0.95),
    lam_frac=st.floats(0.1, 0.95),
)


# -------------------------------------------------------- exact solution

def test_exact_solution_identity_random_points():
    rng = np.random.default_rng(5)
    count = 0
    while count < 100:
        n_dim = int(rng.integers(2, 6))
        s = float(rng.uniform(0.55, 0.95))
        if n_dim <= 2 * s:
            continue
        lam = float(rng.uniform(0.1, 0.9)) * sf.hardy_constant(n_dim, s)
        rep = sf.exponents_for(n_dim, s, lam)
        p = float(rng.uniform(rep.p_minus + 1e-4, rep.p_plus - 1e-4))
        spec = co.exact_radial_solution(sf.ProblemParams(N=n_dim, s=s, lam=lam, p=p))
        beta = (n_dim - 2 * s) / 2 - spec.theta
        gam = sf.gamma_multiplier(beta, n_dim, s)
        residual = abs(gam - lam - spec.amplitude ** (p - 1) * spec.theta**p)
        assert residual <= 1e-10 * lam
        assert spec.kind == "exact-homogeneous"
        count += 1


def test_exact_solution_amplitude_vanishes_at_edges():
    for p_edge in (REP.p_plus - 1e-12, REP.p_minus + 1e-12):
        spec = co.exact_radial_solution(_params(p_edge))
        assert 0.0 < spec.amplitude < 1e-20


def test_exact_solution_rejects_outside_window():
    with pytest.raises(DomainError) as err:
        co.exact_radial_solution(_params(REP.p_plus + 0.01))
    assert "gamma_beta - lambda" in str(err.value)


def test_exact_solution_is_of_the_undamped_problem():
    params = _params(1.3)
    co.exact_radial_solution(params)
    with pytest.raises(DomainError, match="undamped"):
        co.exact_radial_solution(replace(params, alpha_damp=1.0))


def test_exact_amplitude_is_the_family_balance_root_bitwise():
    # the balance root (gap / (k theta^p R^gp))^(1/(p-1)) at k = 1, R = 1,
    # theta = theta0, and the exact solution's own formula, written out
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_dim, s = int(rng.integers(2, 6)), float(rng.uniform(0.55, 0.95))
        lam = float(rng.uniform(0.05, 0.95)) * sf.hardy_constant(n_dim, s)
        rep = sf.exponents_for(n_dim, s, lam)
        p = float(rng.uniform(rep.p_minus, rep.p_plus))
        spec = co.exact_radial_solution(sf.ProblemParams(N=n_dim, s=s, lam=lam, p=p))
        theta0 = (2.0 * s - p) / (p - 1.0)
        gap = sf.gamma_multiplier((n_dim - 2.0 * s) / 2.0 - theta0, n_dim, s) - lam
        grad_pow = theta0 + 2.0 * s - (theta0 + 1.0) * p
        root = (gap / (1.0 * theta0**p * 1.0**grad_pow)) ** (1.0 / (p - 1.0))
        assert spec.amplitude == root == (gap / theta0**p) ** (1.0 / (p - 1.0))
        assert spec.window == (rep.mu_exp, theta0)


# ------------------------------------------------- Dirichlet supersolution

def test_dirichlet_window_consistency():
    # succeeds on a fine grid strictly below p_plus, fails at and beyond it
    ps = np.linspace(1.05, 1.6, 23)
    outcomes = []
    for p in ps:
        try:
            co.dirichlet_supersolution(_params(float(p)), f_bound_exponent=2 * S)
            outcomes.append(True)
        except (DomainError, ConstructionError):
            outcomes.append(False)
    flips = [i for i in range(1, len(ps)) if outcomes[i] != outcomes[i - 1]]
    assert len(flips) == 1
    transition = 0.5 * (ps[flips[0] - 1] + ps[flips[0]])
    step = ps[1] - ps[0]
    assert abs(transition - REP.p_plus) <= step


def test_dirichlet_rejected_at_p_plus():
    with pytest.raises(DomainError):
        co.dirichlet_supersolution(_params(REP.p_plus), f_bound_exponent=2 * S)


def test_dirichlet_spec_fields_and_margin():
    params = _params(0.9 * REP.p_plus, mu=1e-3)
    spec = co.dirichlet_supersolution(params, f_bound_exponent=2 * S, f_bound_coef=0.3)
    assert spec.margin > 0.0
    lo, hi = spec.window
    assert lo == pytest.approx(REP.mu_exp, rel=1e-12)
    assert lo < spec.theta < hi
    assert spec.amplitude > 0.0


def test_dirichlet_margin_fails_for_large_mu():
    with pytest.raises(ConstructionError):
        co.dirichlet_supersolution(_params(0.9 * REP.p_plus, mu=50.0),
                                   f_bound_exponent=2 * S)


def test_dirichlet_numeric_margin_on_grid():
    params = _params(0.9 * REP.p_plus, mu=1e-3)
    spec = co.dirichlet_supersolution(params, f_bound_exponent=2 * S, f_bound_coef=0.3)
    grid = ro.build_grid(1.0, 128, 2.0, N)
    op = ro.assemble_operator(grid, S)
    # L w - lambda w / r^2s - |grad w|^p - mu f at the nodes, with the
    # analytic gradient of the power profile, over the checked window: the
    # origin-closure node and the outer 5% of the ball excluded
    r = grid.r
    w = spec.evaluate(r)
    grad_w = spec.amplitude * spec.theta * r ** (-spec.theta - 1.0)
    f_vals = 0.3 * r ** (-2 * S)
    slack = op.matrix @ w - (params.lam * w * r ** (-2 * S) + grad_w**params.p
                             + params.mu * f_vals)
    mask = (r >= op.oracle_r_min) & (r <= 0.95 * grid.R)
    margin = float(np.min(slack[mask]))
    assert margin > 0.0


@settings(max_examples=60, deadline=None)
@given(**_problem_points, p_frac=st.floats(0.2, 1.0), mu=st.floats(0.0, 1e-2),
       e_frac=st.sampled_from([0.25, 0.5, 0.75]))
def test_dirichlet_amplitude_maximises_margin(n_dim, s, lam_frac, p_frac, mu, e_frac):
    lam = lam_frac * sf.hardy_constant(n_dim, s)
    p_plus = sf.exponents_for(n_dim, s, lam).p_plus
    p = 1.0 + p_frac * (0.99 * p_plus - 1.0)
    params = sf.ProblemParams(N=n_dim, s=s, lam=lam, p=p, mu=mu)
    e, cf = e_frac * 2 * s, 0.3
    try:
        spec = co.dirichlet_supersolution(params, f_bound_exponent=e, f_bound_coef=cf)
    except ConstructionError:
        assume(False)
    gap = _gap(spec)

    def margin_at(amp):
        return amp * gap - amp**p * spec.theta**p - mu * cf

    assert spec.margin == pytest.approx(margin_at(spec.amplitude), rel=1e-12)
    for fac in _SCALES:
        assert margin_at(spec.amplitude * fac) <= spec.margin + 1e-12 * abs(spec.margin)


# --------------------------------------------------- damped supersolution

def test_damped_rejects_boundary_exponent():
    with pytest.raises(DomainError):
        co.damped_supersolution(sf.ProblemParams(N, S, LAM, 2 * S - 0.05, alpha_damp=2 * S - 1.0),
                                2 * S)


def test_damped_exists_for_strong_damping():
    spec = co.damped_supersolution(
        sf.ProblemParams(N, S, LAM, 2 * S - 0.05, alpha_damp=2 * S - 1.0 + 0.5), 1.0)
    assert spec.kind == "damped-supersolution"
    assert REP.mu_exp < spec.theta < REP.mubar_exp
    assert spec.margin > 0.0
    assert spec.f_bound_exponent == 1.0


def test_damped_window_contains_undamped_and_cstar_monotone():
    # source-free, every alpha takes the first ladder exponent, where the
    # amplitude (2 theta^p / gap)^(1/(1-p+alpha)) tends to 1 monotonically
    p = 1.3
    und = co.dirichlet_supersolution(_params(p), f_bound_exponent=2 * S)
    specs = [co.damped_supersolution(sf.ProblemParams(N, S, LAM, p, alpha_damp=alpha), 2 * S)
             for alpha in (0.6, 1.0, 2.0, 4.0)]
    for spec in specs:
        lo, hi = spec.window
        assert lo <= und.window[0] + 1e-12 and hi >= und.window[1] - 1e-12
        assert spec.theta == specs[0].theta
    logs = [abs(math.log(spec.amplitude)) for spec in specs]
    assert all(b <= a for a, b in zip(logs, logs[1:]))


@settings(max_examples=60, deadline=None)
@given(**_problem_points, p_frac=st.floats(0.05, 0.95), alpha_gap=st.floats(0.01, 3.0),
       log_mu=st.floats(-4.0, 4.0), cf=st.floats(0.01, 2.0), e_frac=st.floats(0.0, 1.0),
       R=st.floats(0.5, 2.0))
def test_damped_amplitude_is_the_closed_form(n_dim, s, lam_frac, p_frac, alpha_gap,
                                             log_mu, cf, e_frac, R):
    """With q = p - alpha < 1 the damped amplitude is
    A = max((2 theta^p R^gp / gap)^(1/(1-q)), 2 mu C R^(theta+2s-e) / gap):
    each half of A gap covers one subtracted term of the margin, so the first
    ladder exponent that admits the source has a positive margin."""
    lam = lam_frac * sf.hardy_constant(n_dim, s)
    p = 1.0 + p_frac * (2 * s - 1.0)
    alpha, mu, e = 2 * s - 1.0 + alpha_gap, 10.0**log_mu, e_frac * 2 * s
    try:
        spec = co.damped_supersolution(sf.ProblemParams(n_dim, s, lam, p, mu, alpha), e, cf,
                                       R=R)
    except ConstructionError as err:
        assert "leaves the double range" in str(err)
        assume(False)
    theta, gap = spec.theta, _gap(spec)
    assert theta == next(t for t in co._theta_ladder(*spec.window) if e <= 2 * s + t)
    grad_pow = theta + 2 * s - ((theta + 1) * p - theta * alpha)
    source = mu * cf * R ** (theta + 2 * s - e)
    amp = max((2 * theta**p * R**grad_pow / gap) ** (1.0 / (1.0 - (p - alpha))),
              2 * source / gap)
    grad_term = amp ** (p - alpha) * theta**p * R**grad_pow
    assert spec.amplitude == amp
    assert spec.margin == amp * gap - grad_term - source > 0.0
    half = amp * gap / 2
    assert grad_term <= half * (1 + 1e-12) and source <= half * (1 + 1e-12)


def test_damped_needs_p_below_two_s():
    with pytest.raises(DomainError):
        co.damped_supersolution(sf.ProblemParams(N, S, LAM, 2 * S, alpha_damp=1.0), 2 * S)


def test_damped_empty_window_near_lambda_is_a_construction_error():
    # at lambda = Lambda (1 - 1e-10) the window mubar - mu is about 1.5e-5,
    # narrower than the least exponent step the construction tries
    lam = sf.hardy_constant(N, S) * (1.0 - 1e-10)
    with pytest.raises(ConstructionError, match="no ladder exponent"):
        co.damped_supersolution(
            sf.ProblemParams(N, S, lam, 2 * S - 0.05, alpha_damp=2 * S - 1.0 + 0.5), 2 * S)


@pytest.mark.parametrize("R", [0.5, 2.0])
@settings(max_examples=40, deadline=None)
@given(**_problem_points, damped=st.booleans(), p_frac=st.floats(0.05, 0.95),
       alpha_gap=st.floats(0.01, 3.0), mu_frac=st.floats(0.01, 2.0),
       cf=st.floats(0.01, 2.0), e_frac=st.floats(0.0, 1.3))
def test_constructions_hold_on_the_ball_of_radius_R(R, n_dim, s, lam_frac, damped, p_frac,
                                                    alpha_gap, mu_frac, cf, e_frac):
    # the margin coefficient A (gamma - lambda) - A^(p-alpha) theta^p r^gp
    # - mu C r^(theta+2s-e), source term included, is nonnegative at every
    # node of (0, R] and recorded at r = R, for both constructions; mu C is
    # mu_frac times the source-free margin, so above 1 the walk goes deeper
    lam = lam_frac * sf.hardy_constant(n_dim, s)
    e = e_frac * 2 * s
    if damped:
        p, alpha = 1.0 + p_frac * (2 * s - 1.0), 2 * s - 1.0 + alpha_gap
        build = co.damped_supersolution
    else:
        p_plus = sf.exponents_for(n_dim, s, lam).p_plus
        p, alpha = 1.0 + p_frac * (p_plus - 1.0), 0.0
        build = co.dirichlet_supersolution
    try:
        free = build(sf.ProblemParams(N=n_dim, s=s, lam=lam, p=p, alpha_damp=alpha), e, cf, R=R)
        mu = mu_frac * free.margin / cf
        spec = build(sf.ProblemParams(N=n_dim, s=s, lam=lam, p=p, mu=mu, alpha_damp=alpha),
                     e, cf, R=R)
    except ConstructionError:
        assume(False)
    assert spec.f_bound_exponent == e <= spec.theta + 2 * s
    r = ro.build_grid(R, 64, 2.0, n_dim).r
    theta, amp, gap = spec.theta, spec.amplitude, _gap(spec)
    grad_pow = theta + 2 * s - ((theta + 1) * p - theta * alpha)
    margin = (amp * gap - amp ** (p - alpha) * theta**p * r**grad_pow
              - mu * cf * r ** (theta + 2 * s - e))
    rounding = 1e-12 * amp * gap
    assert margin.min() >= -rounding
    assert spec.margin == pytest.approx(margin[-1], rel=1e-12, abs=rounding)


def test_dirichlet_spec_matches_the_plain_formulas_bitwise():
    # the ladder walk, the balance amplitude and the margin, written out as
    # the construction evaluates them; the first case is the solve
    # benchmark's problem, which takes the third exponent of the ladder, and
    # the next two round differently if p theta^p R^gp is grouped otherwise
    for lam_frac, p, mu, cf, e, R in ((0.5, 1.27, 1e-3, 0.3, 1.5, 1.0),
                                      (0.5, 1.3, 1e-3, 0.3, 1.5, 2.0),
                                      (0.3, 1.2, 1e-3, 0.3, 1.5, 1.5),
                                      (0.2, 1.4, 1e-2, 0.5, 1.2, 0.5),
                                      (0.8, 1.1, 0.0, 1.0, 0.5, 0.5)):
        lam = lam_frac * sf.hardy_constant(N, S)
        rep = sf.exponents_for(N, S, lam)
        top = min(rep.mubar_exp, (2.0 * S - p) / (p - 1.0))
        for frac in (0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
            theta = rep.mu_exp + max(frac * (top - rep.mu_exp), 1e-4)
            gam = sf.gamma_multiplier((N - 2.0 * S) / 2.0 - theta, N, S)
            grad_pow = theta + 2.0 * S - (theta + 1.0) * p
            amp = ((gam - lam) / (p * theta**p * R**grad_pow)) ** (1.0 / (p - 1.0))
            margin = (amp * (gam - lam) - amp**p * theta**p * R**grad_pow
                      - mu * cf * R ** (theta + 2.0 * S - e))
            if margin > 0.0:
                break
        spec = co.dirichlet_supersolution(_params(p, mu=mu, lam=lam), e, cf, R=R)
        assert (spec.theta, spec.amplitude, spec.margin) == (theta, amp, margin) \
            and margin > 0.0
        assert spec.window == (rep.mu_exp, top)


# ------------------------------------------------ source-free family bound

def _plain_bound(n_dim, s, lam, p, R, r1):
    """The family bound's 128-point scan, written out."""
    rep = sf.exponents_for(n_dim, s, lam)
    top = min(rep.mubar_exp, (2.0 * s - p) / (p - 1.0))
    if top <= rep.mu_exp:
        return 0.0
    best = 0.0
    for theta in np.linspace(rep.mu_exp * (1 + 1e-6), top * (1 - 1e-6), 128):
        gam = sf.gamma_multiplier((n_dim - 2.0 * s) / 2.0 - theta, n_dim, s)
        if gam <= lam:
            continue
        grad_pow = theta + 2.0 * s - (theta + 1.0) * p
        a_max = ((gam - lam) / (theta**p * R**grad_pow)) ** (1.0 / (p - 1.0))
        best = max(best, a_max * r1 ** (-theta))
    return best


def test_admissible_bound_sup_matches_the_plain_scan_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n_dim, s = int(rng.integers(2, 6)), float(rng.uniform(0.55, 0.95))
        lam = float(rng.uniform(0.05, 0.95)) * sf.hardy_constant(n_dim, s)
        p_plus = sf.exponents_for(n_dim, s, lam).p_plus
        p = 1.0 + float(rng.uniform(0.05, 1.3)) * (p_plus - 1.0)
        R, r1 = float(rng.uniform(0.5, 2.0)), float(10.0 ** rng.uniform(-6, -2))
        bound = co.admissible_bound_sup(sf.ProblemParams(n_dim, s, lam, p), R, r1)
        assert bound == _plain_bound(n_dim, s, lam, p, R, r1)
    assert co.admissible_bound_sup(sf.ProblemParams(N, S, 0.0, 1.2), 1.0, 1e-3) == math.inf


@pytest.mark.parametrize("lam_frac", [0.05, 0.3, 0.5, 0.8, 0.99])
def test_family_bound_vanishes_exactly_where_the_dirichlet_window_is_empty(lam_frac):
    # from two ulps below p_plus to one above, the window is empty or
    # narrower than the scan's nudged ends mu (1 + 1e-6) and top (1 - 1e-6),
    # which then cross.  Either way the bound is 0, not a value built from
    # exponents outside the window, and no Dirichlet barrier exists; 0.1%
    # below p_plus both do
    lam = lam_frac * sf.hardy_constant(N, S)
    p_plus = sf.exponents_for(N, S, lam).p_plus
    below = math.nextafter(p_plus, 1.0)
    for p in (math.nextafter(below, 1.0), below, p_plus, math.nextafter(p_plus, 2.0)):
        params = _params(p, lam=lam)
        with pytest.raises((DomainError, ConstructionError)):
            co.dirichlet_supersolution(params, 2 * S)
        assert co.admissible_bound_sup(params, 1.0, 1 / 400**2) == 0.0
    params = _params(p_plus * (1 - 1e-3), lam=lam)
    assert co.dirichlet_supersolution(params, 2 * S).margin > 0.0
    assert co.admissible_bound_sup(params, 1.0, 1 / 400**2) > 0.0


def test_admissible_bound_sup_is_memoized_and_errors_are_not(monkeypatch):
    gammas, failures = [], []
    gamma_multiplier, exponents_for = co.gamma_multiplier, sf.exponents_for

    def counting(*args):
        gammas.append(args)
        return gamma_multiplier(*args)

    def failing(*args):
        failures.append(args)
        raise DomainError("no exponents")
    monkeypatch.setattr(co, "gamma_multiplier", counting)
    monkeypatch.setattr(co.specfun, "exponents_for", failing)
    co._family_bound_sup.cache_clear()
    params = _params(0.9 * REP.p_plus, 1e-3)
    R, r1 = 1.0, 1e-4
    for _ in range(2):
        with pytest.raises(DomainError):
            co.admissible_bound_sup(params, R, r1)
    assert len(failures) == 2
    monkeypatch.setattr(co.specfun, "exponents_for", exponents_for)
    bound = co.admissible_bound_sup(params, R, r1)
    calls = len(gammas)
    assert calls > 0 and bound > 0.0
    # mu does not enter the bound: another mu is a cache hit
    assert co.admissible_bound_sup(_params(0.9 * REP.p_plus, 5e-3), R, r1) == bound
    assert len(gammas) == calls
    assert co.admissible_bound_sup(_params(0.8 * REP.p_plus, 1e-3), R, r1) != bound
    assert len(gammas) > calls


# ---------------------------------------------------------- serialization

def test_spec_json_round_trip():
    params = _params(0.9 * REP.p_plus, mu=1e-3)
    spec = co.dirichlet_supersolution(params, f_bound_exponent=2 * S, f_bound_coef=0.3)
    d = json.loads(json.dumps(spec.as_dict()))
    again = co.SupersolutionSpec(**{**d, "window": tuple(d["window"])})
    assert again == spec
