"""Gamma-ratio core: oracle values, identities, monotonicity, domains."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardykpz import specfun as sf
from hardykpz.errors import DomainError, SolveError

mp.mp.dps = 40

DESK = dict(N=3, s=0.75)


def mp_hardy(N, s):
    N, s = mp.mpf(N), mp.mpf(s)
    return 2 ** (2 * s) * mp.gamma((N + 2 * s) / 4) ** 2 / mp.gamma((N - 2 * s) / 4) ** 2


def mp_norm_constant(N, s):
    N, s = mp.mpf(N), mp.mpf(s)
    return 2 ** (2 * s - 1) * mp.pi ** (-N / 2) * mp.gamma((N + 2 * s) / 2) / abs(mp.gamma(-s))


# ------------------------------------------- constants against the oracle

def mp_sphere_area(N):
    N = mp.mpf(N)
    return 2 * mp.pi ** (N / 2) / mp.gamma(N / 2)


_ORACLE_S = [float(s) for s in np.linspace(0.001, 0.999, 41)] + [1e-6, 0.5 + 1e-9, 1 - 1e-6]


@pytest.mark.parametrize("N", range(2, 9))
def test_constants_against_high_precision_oracle(N):
    """Every Gamma value comes from math.lgamma: the three public constants
    agree with 40-digit mpmath to 1e-14 relative (README records the
    observed errors)."""
    assert sf.sphere_area(N) == pytest.approx(float(mp_sphere_area(N)), rel=1e-14, abs=0)
    for s in _ORACLE_S:
        if N <= 2 * s:
            continue
        assert sf.hardy_constant(N, s) == pytest.approx(float(mp_hardy(N, s)), rel=1e-14, abs=0)
        assert sf.normalizing_constant(N, s) == pytest.approx(
            float(mp_norm_constant(N, s)), rel=1e-14, abs=0)


def test_constants_at_large_dimension():
    """The sphere area is evaluated in log space, so it stays finite (it
    tends to 0); a_{N,s} leaves the double range near N = 440 and says so."""
    for N in (343, 344, 1000, 10**6):
        area = sf.sphere_area(N)
        assert math.isfinite(area) and area >= 0.0
    assert sf.sphere_area(344) == pytest.approx(float(mp_sphere_area(344)), rel=1e-12)
    assert math.isfinite(sf.hardy_constant(1000, 0.75))
    assert math.isfinite(sf.normalizing_constant(400, 0.75))
    with pytest.raises(DomainError, match="N=1000"):
        sf.normalizing_constant(1000, 0.75)


# ---------------------------------------------------------- hardy constant

def test_hardy_constant_classical_limit():
    # s -> 1 recovers ((N-2)/2)^2
    assert abs(sf.hardy_constant(3, 0.9999) - 0.25) <= 1e-2


def test_hardy_constant_equals_ratio_at_zero():
    for N, s in ((3, 0.75), (4, 0.6), (5, 0.9)):
        lam = sf.hardy_constant(N, s)
        assert abs(sf.gamma_multiplier(0.0, N, s) - lam) <= 1e-12 * lam


def test_hardy_constant_oracle_value():
    # arbitrary-precision oracle, frozen: 1.0982219957718282
    got = sf.hardy_constant(4, 0.6)
    assert got == pytest.approx(float(mp_hardy(4, 0.6)), rel=1e-13)
    assert got == pytest.approx(1.0982219957718282, rel=1e-12)


def test_hardy_constant_domain():
    with pytest.raises(DomainError):
        sf.hardy_constant(1, 0.75)
    with pytest.raises(DomainError):
        sf.hardy_constant(3, 1.0)


# ------------------------------------------------------- gamma-ratio map

def test_lambda_of_alpha_even_bitwise():
    v1 = sf.gamma_multiplier(0.3, **DESK)
    v2 = sf.gamma_multiplier(-0.3, **DESK)
    assert v1 == v2  # exact, by symmetric evaluation


def test_lambda_of_alpha_vanishes_at_edge():
    edge = (DESK["N"] - 2 * DESK["s"]) / 2
    assert sf.gamma_multiplier(edge - 1e-8, **DESK) < 1e-6
    with pytest.raises(DomainError):
        sf.gamma_multiplier(edge, **DESK)


def test_lambda_of_alpha_strictly_decreasing():
    edge = (DESK["N"] - 2 * DESK["s"]) / 2
    alphas = np.linspace(0.0, edge * (1 - 1e-9), 100)
    vals = [sf.gamma_multiplier(float(a), **DESK) for a in alphas]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gamma_multiplier_identities():
    lam = sf.hardy_constant(**DESK) / 2
    rep = sf.exponents_for(DESK["N"], DESK["s"], lam)
    # at the root the multiplier reproduces the Hardy coefficient
    assert sf.gamma_multiplier(rep.alpha, **DESK) == pytest.approx(lam, rel=1e-12)
    # at zero it reproduces the sharp constant
    assert sf.gamma_multiplier(0.0, **DESK) == pytest.approx(
        sf.hardy_constant(**DESK), rel=1e-13)


def test_gamma_gap_positive_iff_p_in_window():
    lam = sf.hardy_constant(**DESK) / 2
    rep = sf.exponents_for(DESK["N"], DESK["s"], lam)
    half = (DESK["N"] - 2 * DESK["s"]) / 2
    for p, inside in ((0.5 * (rep.p_minus + rep.p_plus), True),
                      (rep.p_plus + 0.02, False),
                      (rep.p_minus - 0.01, False)):
        theta0 = (2 * DESK["s"] - p) / (p - 1.0)
        if abs(half - theta0) >= half:
            continue
        gap = sf.gamma_multiplier(half - theta0, **DESK) - lam
        assert (gap > 0) == inside


def test_factorization_identity():
    # lambda(alpha) = m(alpha) m(-alpha) with the one-sided ratio; kept as a
    # test identity only
    N, s = DESK["N"], DESK["s"]

    def m(a):
        return 2 ** (a + s) * math.exp(
            math.lgamma((N + 2 * s + 2 * a) / 4) - math.lgamma((N - 2 * s - 2 * a) / 4))

    for a in (0.1, 0.3, 0.6):
        lam = sf.gamma_multiplier(a, N, s)
        assert m(a) * m(-a) == pytest.approx(lam, rel=1e-12)


# ------------------------------------------------------------ root finding

def test_alpha_of_lambda_boundary_values():
    lam_max = sf.hardy_constant(**DESK)
    assert sf.alpha_of_lambda(lam_max, **DESK) == 0.0
    edge = (DESK["N"] - 2 * DESK["s"]) / 2
    assert sf.alpha_of_lambda(1e-9, **DESK) == pytest.approx(edge, abs=1e-3)
    with pytest.raises(DomainError):
        sf.alpha_of_lambda(0.0, **DESK)
    with pytest.raises(DomainError):
        sf.alpha_of_lambda(lam_max * 1.01, **DESK)


def test_alpha_lambda_round_trip():
    rng = np.random.default_rng(42)
    lam_max = sf.hardy_constant(**DESK)
    for _ in range(50):
        lam = float(rng.uniform(1e-6, 1.0)) * lam_max
        alpha = sf.alpha_of_lambda(lam, **DESK)
        back = sf.gamma_multiplier(alpha, **DESK)
        assert abs(back - lam) <= 1e-10 * lam


@example(N=3, s=0.75, e=15.0)
@settings(max_examples=200, deadline=None)
@given(N=st.integers(2, 8),
       s=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       e=st.floats(0.0, 300.0))
def test_exponents_for_reaches_every_lambda(N, s, e):
    """For s in (1/2, 1) every lambda in (0, Lambda] has its root: the
    bisection runs to adjacent doubles below (N-2s)/2, so the residual stays
    within its rule even for lambda = Lambda * 1e-300."""
    lam = sf.hardy_constant(N, s) * 10.0 ** -e
    rep = sf.exponents_for(N, s, lam)
    assert 0.0 <= rep.alpha < (N - 2 * s) / 2
    # p_minus <= p_plus <= 2s, to rounding (all three meet at N = 2, s -> 1/2)
    assert rep.p_minus - 1e-14 <= rep.p_plus <= 2 * s + 1e-14
    if e >= 20:
        assert rep.p_plus == pytest.approx(2 * s, rel=1e-6)


def test_alpha_of_lambda_small_order_residual_raises():
    """Below s ~ 0.12 the ratio is so steep at the edge of the interval that
    one ulp of alpha misses a tiny lambda by more than the residual rule;
    the check stays and raises SolveError (exit 1) instead of an assertion."""
    with pytest.raises(SolveError, match="residual"):
        sf.alpha_of_lambda(1e-20, 8, 0.05)
    assert sf.alpha_of_lambda(1e-20, 3, 0.05) == pytest.approx(1.45, rel=1e-12)


def test_s_to_one_consistency():
    s1 = 1.0 - 1e-4
    for lam in np.linspace(0.01, 0.9 * 0.25, 12):
        alpha = sf.alpha_of_lambda(float(lam), 3, s1)
        assert abs(alpha - math.sqrt(0.25 - lam)) <= 1e-2


# ------------------------------------------------------------- exponents

def test_exponent_chain_random_points():
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(2, 7))
        s = float(rng.uniform(0.55, 0.95))
        if N <= 2 * s:
            continue
        lam = float(rng.uniform(0.05, 0.95)) * sf.hardy_constant(N, s)
        rep = sf.exponents_for(N, s, lam)
        mid = (N + 2 * s) / (N - 2 * s + 2)
        assert rep.p_star < rep.p_minus < mid < rep.p_plus < 2 * s
        assert rep.mu_exp + rep.mubar_exp == pytest.approx(N - 2 * s, rel=1e-13)
        assert 0 < rep.mu_exp < (N - 2 * s) / 2 < rep.mubar_exp < N - 2 * s


def test_exponents_degenerate_at_hardy_constant():
    N, s = DESK["N"], DESK["s"]
    rep = sf.exponents_for(N, s, sf.hardy_constant(N, s))
    common = (N + 2 * s) / (N - 2 * s + 2)
    assert rep.p_plus == pytest.approx(common, rel=1e-12)
    assert rep.p_minus == pytest.approx(common, rel=1e-12)


def test_exponents_small_lambda_limits():
    N, s = DESK["N"], DESK["s"]
    rep = sf.exponents_for(N, s, 1e-10)
    assert rep.p_plus == pytest.approx(2 * s, abs=1e-3)
    assert rep.p_minus == pytest.approx(N / (N - 2 * s + 1), abs=1e-3)


def test_exponents_monotone_in_lambda():
    N, s = DESK["N"], DESK["s"]
    lam_max = sf.hardy_constant(N, s)
    lams = np.linspace(0.02, 0.98, 25) * lam_max
    reps = [sf.exponents_for(N, s, float(l)) for l in lams]
    p_plus = [r.p_plus for r in reps]
    p_minus = [r.p_minus for r in reps]
    assert all(b < a for a, b in zip(p_plus, p_plus[1:]))
    assert all(b > a for a, b in zip(p_minus, p_minus[1:]))


def test_two_forms_of_critical_exponents_agree():
    N, s = DESK["N"], DESK["s"]
    lam = sf.hardy_constant(N, s) / 2
    rep = sf.exponents_for(N, s, lam)
    # algebraic cross-check through the singular exponents
    assert rep.p_plus == pytest.approx((rep.mu_exp + 2 * s) / (rep.mu_exp + 1), rel=1e-12)
    assert rep.p_minus == pytest.approx((rep.mubar_exp + 2 * s) / (rep.mubar_exp + 1), rel=1e-12)


# --------------------------------------------------- normalizing constant

def test_normalizing_constant_oracle_values():
    assert sf.normalizing_constant(3, 0.5) == pytest.approx(
        float(mp_norm_constant(3, 0.5)), rel=1e-13)
    assert sf.normalizing_constant(3, 0.5) == pytest.approx(
        0.050660591821168886, rel=1e-12)
    assert sf.normalizing_constant(3, 0.75) == pytest.approx(
        0.05952528368835091, rel=1e-12)


def test_normalizing_constant_positive_and_finite_near_one():
    for s in (0.1, 0.5, 0.9, 1 - 1e-6):
        v = sf.normalizing_constant(3, s)
        assert math.isfinite(v) and v > 0
    with pytest.raises(DomainError):
        sf.normalizing_constant(3, 1.0)
    with pytest.raises(DomainError):
        sf.normalizing_constant(3, 0.0)


# ----------------------------------------------------------- params type

def test_problem_params_validation():
    lam_max = sf.hardy_constant(3, 0.75)
    sf.ProblemParams(N=3, s=0.75, lam=lam_max / 2, p=1.3, mu=0.1)
    sf.ProblemParams(N=3, s=0.75, lam=0.0, p=1.3, mu=0.0)  # degeneration allowed
    with pytest.raises(DomainError):
        sf.ProblemParams(N=3, s=0.45, lam=0.1, p=1.3, mu=0.0)
    with pytest.raises(DomainError):
        sf.ProblemParams(N=3, s=0.75, lam=lam_max, p=1.3, mu=0.0)
    with pytest.raises(DomainError):
        sf.ProblemParams(N=3, s=0.75, lam=0.1, p=1.0, mu=0.0)
    with pytest.raises(DomainError):
        sf.ProblemParams(N=3, s=0.75, lam=0.1, p=1.3, mu=-1.0)
    with pytest.raises(DomainError):
        sf.ProblemParams(N=1, s=0.75, lam=0.1, p=1.3, mu=0.0)


@pytest.mark.parametrize("alpha", [-0.5, float("nan")], ids=["negative", "nan"])
def test_problem_params_refuse_a_damping_exponent_below_zero(alpha):
    # the damping exponent is a field of the problem, checked with the others
    assert sf.ProblemParams(N=3, s=0.75, lam=0.1, p=1.3).alpha_damp == 0.0
    with pytest.raises(DomainError, match="^damping exponent must be nonnegative$"):
        sf.ProblemParams(N=3, s=0.75, lam=0.1, p=1.3, alpha_damp=alpha)
