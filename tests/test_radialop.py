"""Discrete radial operator: grids, kernel identities, oracles, structure."""

import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1, roots_legendre

from hardykpz import radialop as ro
from hardykpz import specfun as sf
from hardykpz import util
from hardykpz.errors import AssemblyError, ConfigError, DomainError, GridMismatchError

N, S = 3, 0.75
LAM_MAX = sf.hardy_constant(N, S)
REP = sf.exponents_for(N, S, LAM_MAX / 2)


@pytest.fixture(scope="module")
def desk_op():
    grid = ro.build_grid(1.0, 200, 2.0, N)
    return ro.assemble_operator(grid, S)


# ------------------------------------------------------------------ grids

def test_uniform_grid_nodes():
    grid = ro.build_grid(1.0, 100, 1.0, N)
    assert np.allclose(grid.r, np.arange(1, 101) / 100.0, rtol=0, atol=1e-15)


def test_graded_grid_first_node():
    grid = ro.build_grid(1.0, 100, 2.0, N)
    assert grid.r[0] == pytest.approx(1e-4, rel=1e-12)


def test_grid_volume_closed_form():
    # |B_2| in dimension 3 = 32 pi / 3
    grid = ro.build_grid(2.0, 64, 2.0, 3)
    vol = grid.integrate(np.ones(64))
    assert vol == pytest.approx(32.0 * math.pi / 3.0, rel=1e-6)
    assert np.all(grid.weights > 0)


def test_grid_validation():
    with pytest.raises(ConfigError):
        ro.build_grid(1.0, 8, 2.0, N)
    with pytest.raises(ConfigError):
        ro.build_grid(-1.0, 64, 2.0, N)
    with pytest.raises(ConfigError):
        ro.build_grid(1.0, 64, 0.5, N)
    # at M = 16 the first node 16^-g is subnormal from g = 256 (g = 268 also
    # rounds five shell weights to <= 0) and 0.0 from g = 269
    for g in (256.0, 268.0, 269.0):
        with pytest.raises(ConfigError, match=f"g={g}"):
            ro.build_grid(1.0, 16, g, N)
    assert ro.build_grid(1.0, 16, 255.0, N).r[0] == 2.0**-1020
    # the shell weights grow as R^N: 1e360 overflows at N = 3, 1e240 does not at N = 2
    with pytest.raises(ConfigError, match=r"R=1e\+120 is too large for dimension N=3"):
        ro.build_grid(1e120, 64, 2.0, 3)
    assert np.all(np.isfinite(ro.build_grid(1e120, 64, 2.0, 2).weights))


# ------------------------------------------------------------ kernel oracle

def test_closed_angular_form_matches_quadrature():
    # independent check of the hypergeometric closed form
    for n_dim, s in ((2, 0.7), (3, 0.75), (4, 0.8), (5, 0.6)):
        kern = ro._Kernel(n_dim, s)
        base = 2.0 * sf.normalizing_constant(n_dim, s)
        for z in (0.0, 0.25, 0.6, 0.9):
            direct = base * ro.angular_kernel_average(n_dim, s, z, order=200)
            closed = base * kern.closed_angular(z)
            assert direct == pytest.approx(closed, rel=1e-9)


def _power_pv_quadrature(n_dim, s, theta, r=1.0):
    """Independent principal-value quadrature of the whole-space power identity.

    Stable paired evaluation (log-difference form for the odd kernel part)
    entirely separate from the assembly code path: the angular factor comes
    from scipy's hyp2f1, not from the kernel table.
    """
    C = ro._Kernel(n_dim, s).C

    def g2(x):
        return hyp2f1(-s, n_dim / 2 - s - 1, n_dim / 2, x)

    xg, wg = roots_legendre(80)
    xi = 0.5 * (xg + 1)
    wxi = 0.5 * wg
    m = 3.0
    t = r * xi**m
    dt = r * m * xi ** (m - 1) * wxi
    tau = t / r
    rp = r + t
    omz_p = t * (2 * r + t) / rp**2
    omz_m = t * (2 * r - t) / r**2
    kp = C * rp ** (-(n_dim + 2 * s)) * omz_p ** (-(2 * s + 1.0)) * g2(1 - omz_p) * rp ** (n_dim - 1)
    dlog = ((n_dim - 1) * (np.log1p(tau) - np.log1p(-tau))
            - (n_dim + 2 * s) * np.log1p(tau)
            - (2 * s + 1.0) * (np.log(omz_p) - np.log(omz_m))
            + np.log(g2(1 - omz_p) / g2(1 - omz_m)))
    km = kp * np.exp(-dlog)
    ge = 0.5 * (kp + km)
    go = 0.5 * km * np.expm1(dlog)
    ep = np.expm1(-theta * np.log1p(tau))
    em = np.expm1(-theta * np.log1p(-tau))
    D = (ep + em) * r**-theta
    Sodd = (ep - em) * r**-theta
    val = -np.sum((D * ge + Sodd * go) * dt)
    edges = np.geomspace(2 * r, 1e8 * r, 200)
    xg2, wg2 = roots_legendre(16)
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        hw = 0.5 * (b - a)
        rho = mid + hw * xg2
        w = hw * wg2
        mx = np.maximum(rho, r)
        omz = (mx - np.minimum(rho, r)) * (mx + np.minimum(rho, r)) / mx**2
        k2 = C * mx ** (-(n_dim + 2 * s)) * omz ** (-(2 * s + 1.0)) * g2(1 - omz) * rho ** (n_dim - 1)
        val += np.sum((r**-theta - rho**-theta) * k2 * w)
    val += C * r**-theta * (1e8 * r) ** (-2 * s) / (2 * s)
    return val


# y values the table must cover: both ends, every dyadic piece edge (and the
# edges below the last piece), and log-uniform values down to 1e-300
_EDGE_Y = [0.0, 1.0] + [math.ldexp(1.0, -k) for k in range(80)]
_TABLE_Y = st.one_of(st.sampled_from(_EDGE_Y),
                     st.floats(-300.0, 0.0).map(lambda e: 10.0**e))


@functools.lru_cache(maxsize=None)
def _mpmath_g2_at(n_dim, s, y):
    with mpmath.workdps(30):
        a, h = mpmath.mpf(s), mpmath.mpf(n_dim) / 2
        return float(mpmath.hyp2f1(-a, h - a - 1, h, 1 - mpmath.mpf(y)))


def _mpmath_g2(n_dim, s, y):
    """2F1(-s, N/2-s-1; N/2; 1-y) from 30-digit mpmath, 1 - y formed exactly."""
    return np.asarray([_mpmath_g2_at(n_dim, s, float(v)) for v in y])


@settings(max_examples=60, deadline=None)
@given(n_dim=st.integers(2, 8),
       s=st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       ys=st.lists(_TABLE_Y, min_size=1, max_size=40))
@example(n_dim=8, s=0.5 + 1e-12, ys=[1e-3])
def test_kernel_table_matches_hyp2f1(n_dim, s, ys):
    """The table against scipy's hyp2f1, or against mpmath within 1e-6 of
    s = 1/2, where scipy's own error exceeds the bound (README)."""
    kern = ro._Kernel(n_dim, s)
    y = np.asarray(ys + _EDGE_Y)
    if abs(s - 0.5) < 1e-6:
        want = _mpmath_g2(n_dim, s, y)
    else:
        want = hyp2f1(-s, n_dim / 2 - s - 1, n_dim / 2, 1.0 - y)
    got = kern.g2(y)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


# the edges and midpoint of every table piece, y = 1 (where min/max
# underflows in the square) and y below the table's last octave
_PIECE_Y = np.concatenate([ro._piece_nodes(np.asarray([-1.0, 0.0, 1.0])).ravel(),
                           [1.0, math.ldexp(1.0, -61), 1e-300, 0.0]])


@pytest.mark.parametrize("n_dim", [2, 3, 5, 8])
def test_kernel_table_matches_hyp2f1_on_every_piece(n_dim):
    """The table against the module's own hyp2f1 at every piece's edges
    and midpoint, on both sides of s = 1/2 and across (0, 1)."""
    for s in (0.2, 0.5 - 1e-9, 0.5 + 1e-9, 0.55, 0.75, 0.9, 0.99):
        want = ro.hyp2f1(n_dim, s, _PIECE_Y)
        got = ro._Kernel(n_dim, s).g2(_PIECE_Y)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, s


@settings(max_examples=60, deadline=None)
@given(ys=st.lists(st.one_of(st.sampled_from(_EDGE_Y[2:62]),
                             st.floats(-60.0, 0.0).map(lambda e: 2.0**e)),
                   min_size=1, max_size=40))
def test_kernel_piece_read_from_the_bits_holds_y(ys):
    """The piece read from y's bits is the table piece whose interval holds
    y, and its local variable places y in that interval."""
    y = np.minimum(np.asarray(ys), math.nextafter(1.0, 0.0))
    piece, t = ro._locate(y, np.empty(y.shape, np.intp), np.empty(y.shape))
    assert np.all(ro._piece_nodes(-1.0)[piece] <= y)
    assert np.all(y < ro._piece_nodes(1.0)[piece])
    assert np.all((-1.0 <= t) & (t < 1.0))
    assert np.all(ro._piece_nodes(t)[np.arange(len(y)), piece] == y)


# s on both sides of the cancellation at s = 1/2 and across the paper's range;
# y at the table's dyadic piece edges and geometric midpoints, down to 2^-60
_HYP_S = [0.2, 0.5, 0.5 - 1e-15, 0.5 + 1e-15, 0.5 - 1e-9, 0.5 + 1e-9, 0.5 - 1e-6,
          0.5 + 1e-6, 0.5001, 0.51, 0.75, 0.9, 0.99]
_HYP_Y = [math.ldexp(m, -k) for k in range(61) for m in (1.0, math.sqrt(0.5))]


@pytest.mark.parametrize("n_dim", range(2, 9))
def test_hyp2f1_matches_mpmath(n_dim):
    """The package's 2F1(-s, N/2-s-1; N/2; 1-y) against 30-digit mpmath."""
    y = np.asarray(_HYP_Y)
    for s in _HYP_S:
        want = _mpmath_g2(n_dim, s, _HYP_Y)
        got = ro.hyp2f1(n_dim, s, y)
        assert got.shape == y.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, s


def test_power_identity_independent_quadrature():
    # the Gamma-ratio multiplier reproduced by brute quadrature of the kernel
    for n_dim, s in ((3, 0.75), (4, 0.8)):
        for frac in (0.2, 0.5, 0.8):
            theta = frac * (n_dim - 2 * s)
            got = _power_pv_quadrature(n_dim, s, theta)
            want = sf.gamma_multiplier((n_dim - 2 * s) / 2 - theta, n_dim, s)
            assert got == pytest.approx(want, rel=5e-6)


# ----------------------------------------------------------------- oracle

def test_oracle_power_profiles(desk_op):
    mu, mubar = REP.mu_exp, REP.mubar_exp
    p_mid = 0.5 * (REP.p_minus + REP.p_plus)
    theta0 = (2 * S - p_mid) / (p_mid - 1.0)
    assert ro.oracle_power_test(desk_op, mu) <= 0.02
    assert ro.oracle_power_test(desk_op, 0.5 * (mu + mubar)) <= 0.02
    assert ro.oracle_power_test(desk_op, theta0) <= 0.02
    assert ro.oracle_power_test(desk_op, mubar) <= 0.05


def test_oracle_small_exponent_absolute(desk_op):
    # multiplier vanishes as theta -> 0: absolute criterion in coefficient
    # units (normalized by r^-(theta+2s))
    theta = 0.02
    radii, _, abs_err = ro.power_test_profile(desk_op, theta)
    normalized = abs_err * radii ** (theta + 2 * S)
    assert normalized.max() <= 1e-3


def test_oracle_domain(desk_op):
    with pytest.raises(DomainError):
        ro.oracle_power_test(desk_op, 0.0)
    with pytest.raises(DomainError):
        ro.oracle_power_test(desk_op, N - 2 * S)


def test_refinement_common_window():
    grid1 = ro.build_grid(1.0, 100, 2.0, N)
    op1 = ro.assemble_operator(grid1, S)
    grid2 = ro.build_grid(1.0, 200, 2.0, N)
    op2 = ro.assemble_operator(grid2, S)
    r_lo = op1.oracle_r_min
    mu = REP.mu_exp
    _, rel1, _ = ro.power_test_profile(op1, mu)
    radii2, rel2, _ = ro.power_test_profile(op2, mu)
    e1 = rel1.max()
    e2 = rel2[radii2 >= r_lo].max()
    assert e1 / e2 >= 1.5


# ------------------------------------------------------------- application

def test_apply_linear_and_columns(desk_op):
    grid = desk_op.grid
    mat = desk_op.matrix
    assert np.max(np.abs(mat @ np.zeros(grid.M))) == 0.0
    rng = np.random.default_rng(3)
    u = rng.normal(size=grid.M)
    v = rng.normal(size=grid.M)
    a, b = 1.7, -0.3
    lhs = mat @ (a * u + b * v)
    rhs = a * (mat @ u) + b * (mat @ v)
    scale = np.abs(rhs).max()
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
    e7 = np.zeros(grid.M)
    e7[7] = 1.0
    col = mat @ e7
    assert np.array_equal(col, mat[:, 7])


def test_discrete_maximum_principle(desk_op):
    rng = np.random.default_rng(11)
    mat = desk_op.matrix
    scale = np.abs(mat).max()
    for _ in range(100):
        u = rng.random(desk_op.grid.M)
        j = int(np.argmax(u))
        assert (mat @ u)[j] >= -1e-10 * scale


def test_constant_field_row_sums_positive(desk_op):
    # (-Lap)^s 1 > 0 in the ball: the calibrated rows respond positively on
    # every grid of a small family, with no floor under their row sums; so
    # do all rows, except a few uncalibrated ones at N = 2, s = 0.99 on
    # graded grids (down to -1.07 at M = 64, g = 2.5)
    assert (desk_op.matrix @ np.ones(desk_op.grid.M)).min() > 0.0
    for n_dim in (2, 3, 5, 8):
        for s in (0.51, 0.75, 0.99):
            for M in (16, 64):
                for g in (1.0, 2.0, 3.0):
                    op = ro.assemble_operator(ro.build_grid(1.0, M, g, n_dim), s)
                    row_sums = op.matrix @ np.ones(M)
                    i_cal = max(2, math.ceil(ro._CALIB_FRAC * M))
                    assert row_sums[1:i_cal].min() > 0.0, (n_dim, s, M, g)
                    if (n_dim, s) != (2, 0.99):
                        assert row_sums.min() > 0.0, (n_dim, s, M, g)


def test_nonlocal_leakage_sign(desk_op):
    # a positive bump near the boundary pushes the operator negative near 0
    grid = desk_op.grid
    bump = np.exp(-((grid.r - 0.9) / 0.05) ** 2)
    out = desk_op.matrix @ bump
    inner = out[grid.r < 0.05]
    assert inner.min() < 0.0


# ------------------------------------------------------------ Rayleigh

def test_rayleigh_scale_invariance(desk_op):
    grid = desk_op.grid
    u = (1 - grid.r**2) ** 2
    q1 = ro.rayleigh_quotient(desk_op, u)
    q2 = ro.rayleigh_quotient(desk_op, 17.0 * u)
    assert q1 == pytest.approx(q2, rel=1e-13)


def test_rayleigh_lower_bound_random_family(desk_op):
    grid = desk_op.grid
    rng = np.random.default_rng(7)
    for _ in range(20):
        coef = rng.random(4)
        u = sum(c * (1 - grid.r**2) ** (k + 1) for k, c in enumerate(coef))
        u = u + rng.random() * np.exp(-((grid.r - 0.5) / 0.2) ** 2)
        q = ro.rayleigh_quotient(desk_op, u)
        assert q >= 0.95 * LAM_MAX


def test_rayleigh_near_optimizer_family(desk_op):
    # linearly cut-off powers approaching the critical exponent: quotients
    # stay above the sharp constant and get within 10% of it
    grid = desk_op.grid
    qs = []
    for fac in (0.95, 0.99, 1.0):
        theta = (N - 2 * S) / 2 * fac
        u = grid.r ** (-theta) * (1.0 - grid.r)
        qs.append(ro.rayleigh_quotient(desk_op, u))
    assert min(qs) >= 0.999 * LAM_MAX  # approaches from above
    assert min(qs) <= 1.10 * LAM_MAX   # and gets within 10%


def test_rayleigh_zero_field(desk_op):
    with pytest.raises(DomainError):
        ro.rayleigh_quotient(desk_op, np.zeros(200))


def test_rayleigh_refuses_a_field_of_another_length(desk_op):
    with pytest.raises(GridMismatchError, match="M=200"):
        ro.rayleigh_quotient(desk_op, np.ones(199))
    with pytest.raises(GridMismatchError):
        ro.rayleigh_quotient(desk_op, np.ones((200, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rayleigh_refuses_a_non_finite_field(desk_op, bad):
    u = (1 - desk_op.grid.r**2) ** 2
    u[17] = bad
    with pytest.raises(DomainError, match="finite"):
        ro.rayleigh_quotient(desk_op, u)


# ------------------------------------------------------------- gradient

def test_gradient_constant_field():
    grid = ro.build_grid(1.0, 100, 2.0, N)
    g = ro.gradient_values(grid, np.full(100, 3.0))
    assert np.max(g[:-1]) <= 1e-12
    assert g[-1] > 0.0  # jump to the exterior zero


def test_gradient_linear_field():
    grid = ro.build_grid(1.0, 100, 2.0, N)
    g = ro.gradient_values(grid, grid.r.copy())
    assert np.max(np.abs(g[1:-1] - 1.0)) <= 1e-10


def test_gradient_power_field():
    grid = ro.build_grid(1.0, 200, 2.0, N)
    theta = 0.5
    g = ro.gradient_values(grid, grid.r**-theta)
    expect = theta * grid.r ** (-theta - 1.0)
    rel = np.abs(g - expect) / expect
    # away from endpoints: innermost and outermost 5% of nodes excluded
    assert rel[10:190].max() <= 0.05


# --------------------------------------------------------- serialization

def test_field_round_trip(tmp_path, desk_op):
    """field.csv parses back to the grid and the field bit for bit."""
    grid = desk_op.grid
    u = np.sin(grid.r * 5)
    path = os.path.join(tmp_path, "field.csv")
    ro.save_field(grid, u, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# radial field N=3,R=1,M=200,g=2"
    assert lines[1] == "r,value"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert np.array_equal(rows[:, 0], grid.r)
    assert np.array_equal(rows[:, 1], u)


# ------------------------------------------------------------- assembly

def test_assembly_kernel_check_fires(monkeypatch):
    grid = ro.build_grid(1.0, 32, 2.0, N)
    monkeypatch.setattr(ro, "_ANGULAR_ORDER", 2)
    with pytest.raises(AssemblyError):
        ro.assemble_operator(grid, S)


def test_assembly_table_check_fires(monkeypatch):
    grid = ro.build_grid(1.0, 32, 2.0, N)
    monkeypatch.setattr(ro, "_CHEB_DEGREE", 3)
    with pytest.raises(AssemblyError, match="kernel table"):
        ro.assemble_operator(grid, S)


def test_assembly_domain_checks():
    # the dimension is the grid's; s must lie in (0, 1)
    for s in (0.0, 1.0):
        with pytest.raises(DomainError, match="0 < s < 1"):
            ro.assemble_operator(ro.build_grid(1.0, 32, 2.0, N), s)


def _counting(monkeypatch, name, size):
    """Replace ``radialop.<name>`` by a wrapper that counts calls and points."""
    fn = getattr(ro, name)
    seen = {"calls": 0, "points": 0}

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen["calls"] += 1
        seen["points"] += size(out)
        return out

    monkeypatch.setattr(ro, name, wrapper)
    return seen


def test_assembly_work_does_not_grow_with_the_grid(monkeypatch):
    """Kernel samples and quadrature rules are made per (N, s), not per row."""
    seen = []
    for M in (64, 128):
        with monkeypatch.context() as mp:
            hyp = _counting(mp, "hyp2f1", np.size)
            rules = _counting(mp, "roots_legendre", lambda out: 0)
            ro.assemble_operator(ro.build_grid(1.0, M, 2.0, N), S)
        seen.append((hyp["calls"], hyp["points"], rules["calls"]))
    assert seen[0] == seen[1]
    assert seen[0][1] <= 5000
    assert seen[0][2] <= 5


def test_assembly_memory_stays_chunked(monkeypatch):
    """Assembly temporaries are bounded by the chunk size, not by M^2, with
    the rows in one block and split in two."""
    grid = ro.build_grid(1.0, 200, 2.0, N)
    for blocks in (1, 2):
        _split_rows(monkeypatch, blocks)
        tracemalloc.start()
        try:
            ro.assemble_operator(grid, S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, blocks


_SECOND_ASSEMBLY_FAULTS = """
import resource
from hardykpz import radialop as ro, util
util.usable_cpus = lambda: 1
grid = ro.build_grid(1.0, 400, 2.0, 3)
ro.assemble_operator(grid, 0.75)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ro.assemble_operator(grid, 0.75)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor faults are counted by ru_minflt on Linux")
def test_a_second_assembly_faults_few_pages():
    """A block's chunks share one workspace, so the temporaries of one chunk
    are not freed and faulted in again by the next: a second serial M = 400
    assembly takes fewer than 2,000 minor faults (about 360; 4,300 to 11,800
    with fresh temporaries per chunk, as glibc trims them or not).  It runs
    in a fresh interpreter, whose heap is the command line's, not that of
    the test run."""
    r = subprocess.run([sys.executable, "-c", _SECOND_ASSEMBLY_FAULTS],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 2000


@pytest.mark.parametrize("n_exp", [1, ro._CALIB_NTHETA])
def test_tail_integral_does_not_depend_on_its_chunking(monkeypatch, n_exp):
    """The tails are bitwise the same for any chunk size, with one exponent
    (the rows' profile) or the calibration's family, in a fresh or a reused
    workspace."""
    kern = ro._Kernel(N, S)
    r = ro.build_grid(1.0, 200, 2.0, N).r
    span = N - 2 * S
    if n_exp == 1:
        ws = [span / 2]   # the profile exponent w0
    else:
        ws = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_exp) / (n_exp - 1))) * 0.97 * span
    lo = np.full(len(r), 1.0)
    lo[-1] = 1.0 + 0.5 * (1.0 - r[-2])
    scratch = ro._Scratch()
    tails = []
    for chunk in (1 << 9, 1 << 13, len(r) * ro._N_TAIL * ro._N_TAIL_NODES):
        monkeypatch.setattr(ro, "_CHUNK", chunk)
        tails.append(ro._tail_integral(kern, r, ws, lo, 50.0))
        tails.append(ro._tail_integral(kern, r, ws, lo, 50.0, scratch))
    assert all(np.array_equal(t, tails[0]) for t in tails[1:])


# ------------------------------------------------------ row blocks

def _split_rows(monkeypatch, blocks):
    """Assemble in ``blocks`` row blocks, whatever the CPUs and the grid."""
    monkeypatch.setattr(util, "usable_cpus", lambda: blocks)
    monkeypatch.setattr(ro, "_MIN_BLOCK_ROWS", 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_dim", [2, 3, 5])
@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("m", [64, 201])
def test_row_blocks_assemble_the_serial_matrix_bitwise(monkeypatch, n_dim, s, m):
    grid = ro.build_grid(1.0, m, 2.0, n_dim)
    whole = None
    for blocks in (1, 2, 3):
        _split_rows(monkeypatch, blocks)
        matrix = ro.assemble_operator(grid, s).matrix
        if whole is None:
            whole = matrix
        assert np.array_equal(matrix, whole), blocks
    _no_child_left()


@pytest.mark.parametrize("edges", [(0, 1, 15, 16), (0, 2, 14, 16), (0, 8, 16)],
                         ids=["first-and-last-alone", "next-to-the-ends", "halves"])
def test_row_blocks_next_to_the_end_rows_are_bitwise(edges):
    # the end rows take their closure cells only in the block that owns them
    asm = ro._Assembler(ro.build_grid(1.0, 16, 2.0, N), S)
    whole, whole_tail = np.zeros((16, 16)), np.zeros(16)
    asm._rows(whole, whole_tail, 0, 16)
    parts, parts_tail = np.zeros((16, 16)), np.zeros(16)
    for lo, hi in zip(edges[:-1], edges[1:]):
        asm._rows(parts, parts_tail, lo, hi)
    assert np.array_equal(parts, whole)
    assert np.array_equal(parts_tail, whole_tail)


def _fail_in(monkeypatch, where):
    """Make ``_remainder_cells`` raise in the children or in this process."""
    parent = os.getpid()
    real = ro._Assembler._remainder_cells

    def remainder_cells(self, *args):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError(f"remainder cells failed in the {where}")
        return real(self, *args)
    monkeypatch.setattr(ro._Assembler, "_remainder_cells", remainder_cells)
    return parent


def test_a_failed_child_block_raises_and_leaves_no_child(monkeypatch):
    _split_rows(monkeypatch, 3)
    parent = _fail_in(monkeypatch, "child")
    with pytest.raises(AssemblyError, match=r"rows \d+\.\.\d+ ended with exit code 1"):
        ro.assemble_operator(ro.build_grid(1.0, 64, 2.0, N), S)
    assert os.getpid() == parent   # no child returned into the caller
    _no_child_left()


def test_a_failed_parent_block_reaps_every_child_first(monkeypatch):
    _split_rows(monkeypatch, 3)
    parent = _fail_in(monkeypatch, "parent")
    with pytest.raises(RuntimeError, match="in the parent"):
        ro.assemble_operator(ro.build_grid(1.0, 64, 2.0, N), S)
    assert os.getpid() == parent
    _no_child_left()


def test_a_block_whose_fork_fails_runs_in_this_process(monkeypatch):
    grid = ro.build_grid(1.0, 64, 2.0, N)
    whole = ro.assemble_operator(grid, S).matrix

    def no_fork():
        raise OSError("fork refused")
    _split_rows(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert np.array_equal(ro.assemble_operator(grid, S).matrix, whole)


# ---------------------------------------------- reference assembly loop

def _plain_w_sides(asm, ii, eta):
    g, R = asm.g, asm.R
    ti = asm.tau_arr[ii]
    r = asm.r[ii]
    out = []
    for sgn in (+1.0, -1.0):
        taus = ti + sgn * eta
        dr = r * np.expm1(g * np.log1p(sgn * eta / ti))
        rho = r + dr
        if sgn > 0:
            omz = dr * (rho + r) / rho**2
        else:
            omz = (-dr) * (rho + r) / r**2
        jac = R * g * taus ** (g - 1.0)
        out.append(asm.kern.k2(r, rho, omz) * jac)
    return out


def _plain_profile_shapes(asm, ii, eta):
    x = eta / asm.tau_arr[ii]
    ep = np.expm1(-asm.q * np.log1p(x))
    em = np.expm1(-asm.q * np.log1p(-x))
    return -(ep + em), (em - ep)


def _unit_gl(n):
    xg, wg = roots_legendre(n)
    return 0.5 * (xg + 1.0), 0.5 * wg


def _plain_tail(kern, r, w, lo, far):
    xi, wxi = _unit_gl(8)
    t_edges = np.geomspace(lo - r, far - r, 24 + 1)
    a = t_edges[:-1][:, None]
    b = t_edges[1:][:, None]
    t = (a + (b - a) * xi[None, :]).ravel()
    wq = ((b - a) * wxi[None, :]).ravel()
    rho = r + t
    val = np.sum(rho ** (-w) * kern.k2(np.full_like(rho, r), rho) * wq)
    s, n_dim = kern.s, kern.N
    c2 = (1.0 + 2 * s) - s * (n_dim - 2 * s - 2.0) / n_dim
    return val + kern.C * (far ** (-w - 2 * s) / (w + 2 * s)
                           + c2 * r * r * far ** (-w - 2 * s - 2.0) / (w + 2 * s + 2.0))


def _plain_assemble(asm):
    """The assembly written as one plain loop over rows, without calibration.

    Pairing panels k <= 2 take 10 Gauss-Legendre nodes and the two remainder
    cells next to the pairing band 8.  A pairing panel k >= 24, and a
    remainder cell whose nearer node is at least 24 nodes from the row, takes
    2 unless it reaches one of the first 16 nodes or its row is one of the
    first ceil(M / 10); every other panel and cell takes 4.
    """
    M, R, g = asm.M, asm.R, asm.g
    r, rw, tau = asm.r, asm.rw, asm.tau_arr
    s, w0, dlt = asm.s, asm.w0, asm.dlt
    A = np.zeros((M, M))
    xi0, wxi0 = _unit_gl(32)
    mgr = asm.m_grade
    eta0 = dlt * xi0**mgr
    deta0 = dlt * mgr * xi0 ** (mgr - 1.0) * wxi0
    xio, wxio = _unit_gl(16)
    i_cal = max(2, math.ceil(0.1 * M))
    for ii in range(M):
        i1 = ii + 1
        ri = r[ii]
        lo = R if i1 < M else R + 0.5 * (R - r[M - 2])
        A[ii, ii] += asm.gamma_profile * ri ** (-2.0 * s) \
            + rw[ii] * _plain_tail(asm.kern, ri, w0, lo, asm.far)
        K = min(i1 - 1, M - i1)
        if K >= 1:
            wp, wm = _plain_w_sides(asm, ii, eta0)
            we = 0.5 * (wp + wm)
            wo = 0.5 * (wp - wm)
            dsh, ssh = _plain_profile_shapes(asm, ii, eta0)
            dsh_e, ssh_e = _plain_profile_shapes(asm, ii, np.asarray([dlt]))
            cD = np.zeros(K + 1)
            cS = np.zeros(K + 1)
            cD[1] += float(np.sum(deta0 * (dsh / dsh_e[0]) * we))
            cS[1] += float(np.sum(deta0 * (ssh / ssh_e[0]) * wo))
            far = np.arange(3, K)
            distant = (far >= 24) & (ii - far - 1 >= 16) & (ii >= i_cal)
            for ks, (xip, wxip) in ((np.arange(1, min(K, 3)), _unit_gl(10)),
                                    (far[~distant], _unit_gl(4)),
                                    (far[distant], _unit_gl(2))):
                eta = (ks[:, None] + xip[None, :]) * dlt
                wp, wm = _plain_w_sides(asm, ii, eta)
                we = 0.5 * (wp + wm)
                wo = 0.5 * (wp - wm)
                dsh, ssh = _plain_profile_shapes(asm, ii, eta)
                dk, sk = _plain_profile_shapes(asm, ii, ks * dlt)
                dk1, sk1 = _plain_profile_shapes(asm, ii, (ks + 1) * dlt)
                dden = dk - dk1
                sden = sk1 - sk
                bl_d = np.where(np.abs(dden)[:, None] > 1e-300,
                                (dsh - dk1[:, None]) / dden[:, None],
                                1.0 - xip[None, :])
                bl_s = np.where(np.abs(sden)[:, None] > 1e-300,
                                (sk1[:, None] - ssh) / sden[:, None],
                                1.0 - xip[None, :])
                base = dlt * wxip[None, :]
                cD[ks] += np.sum(base * bl_d * we, axis=1)
                cD[ks + 1] += np.sum(base * (1.0 - bl_d) * we, axis=1)
                cS[ks] += np.sum(base * bl_s * wo, axis=1)
                cS[ks + 1] += np.sum(base * (1.0 - bl_s) * wo, axis=1)
            k = np.arange(1, K + 1)
            pp = rw[ii] / rw[ii + k]
            pm = rw[ii] / rw[ii - k]
            A[ii, ii + k] -= cD[1:] + cS[1:]
            A[ii, ii - k] -= cD[1:] - cS[1:]
            A[ii, ii] += float(np.sum(cD[1:] * (pp + pm) + cS[1:] * (pp - pm)))
        if i1 == 1:
            wp, _ = _plain_w_sides(asm, ii, eta0)
            one = float(np.sum(deta0 * xi0 ** (2 * mgr) * wp))
            A[0, 1] -= one
            A[0, 0] += one * rw[0] / rw[1]
        if i1 == M:
            _, wm = _plain_w_sides(asm, ii, eta0)
            one = float(np.sum(deta0 * xi0 ** (2 * mgr) * wm))
            A[M - 1, M - 2] -= one
            A[M - 1, M - 1] += one * rw[M - 1] / rw[M - 2]
        jr0 = i1 + K if K >= 1 else (2 if i1 == 1 else M)
        jl_hi = i1 - K - 1 if K >= 1 else (M - 2 if i1 == M else 0)
        right = np.arange(jr0, M)
        left = np.arange(1, max(jl_hi, 0) + 1)
        near = np.concatenate([right[:2], left[::-1][:2]])
        far = np.concatenate([right[2:], left[::-1][2:]])
        distant = (np.minimum(np.abs(far - 1 - ii), np.abs(far - ii)) >= 24) \
            & (far - 1 >= 16) & (ii >= i_cal)
        for js, (xic, wxic) in ((near, _unit_gl(8)), (far[~distant], _unit_gl(4)),
                                (far[distant], _unit_gl(2))):
            tq = tau[js - 1][:, None] + xic[None, :] * dlt
            rho = R * tq**g
            jac = R * g * tq ** (g - 1.0)
            wgt = asm.kern.k2(np.full_like(rho, ri), rho) * jac * (dlt * wxic[None, :])
            pw = rho ** (-w0)
            pj = r[js - 1] ** (-w0)
            pj1 = r[js] ** (-w0)
            bl = (pw - pj1[:, None]) / (pj - pj1)[:, None]
            c_left = np.sum(wgt * bl, axis=1)
            c_right = np.sum(wgt * (1.0 - bl), axis=1)
            np.add.at(A[ii], js - 1, -c_left)
            np.add.at(A[ii], js, -c_right)
            A[ii, ii] += float(np.sum(c_left * rw[ii] * pj + c_right * rw[ii] * pj1))
        rho = r[0] * xio**2.0
        drho = r[0] * 2.0 * xio * wxio
        kvals = asm.kern.k2(np.full_like(rho, ri), rho) * drho
        A[ii, 0] -= float(np.sum(kvals))
        A[ii, ii] += rw[ii] * float(np.sum(rho ** (-w0) * kvals))
    return A


# (N, s, g, M); the N = 3 cases keep their ids "s-g-M"; only from
# M = 67 does a row have a distant pairing panel
_PLAIN_CASES = [(n_dim, s, g, M) for n_dim in (3, 2, 5) for s in (0.6, 0.75)
                for g in (1.0, 2.0) for M in (32, 64)] + [(3, 0.75, 2.0, 128)]


@pytest.mark.parametrize("n_dim, s, g, M", _PLAIN_CASES,
                         ids=[("" if c[0] == 3 else "N%d-" % c[0]) + "%s-%s-%s" % c[1:]
                              for c in _PLAIN_CASES])
def test_batched_assembly_matches_the_plain_loop(monkeypatch, n_dim, s, g, M):
    """The flat (row, panel) and (row, cell) bookkeeping, with the first cell
    as pairing panel k = 0 and the diagonal from the profile identity, puts
    every weight where the per-row loop does."""
    monkeypatch.setattr(ro._Assembler, "_calibrate", lambda self, A: None)
    asm = ro._Assembler(ro.build_grid(1.0, M, g, n_dim), s)
    got = asm.assemble()
    want = _plain_assemble(asm)
    assert _row_max_relative(got, want).max() <= 1e-11


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("n_dim", [2, 3, 5])
def test_every_row_is_exact_on_the_profile(monkeypatch, n_dim, s):
    """Without the calibration and the origin cell's exact-profile term,
    each row maps the profile r^-w0 to its whole-space image gamma_w0
    r^(-2s-w0) plus its exterior tail, to rounding."""
    monkeypatch.setattr(ro._Assembler, "_calibrate", lambda self, A: None)
    monkeypatch.setattr(ro._Assembler, "_origin_cell", lambda self, A, diag: None)
    M = 64
    asm = ro._Assembler(ro.build_grid(1.0, M, 2.0, n_dim), s)
    A = asm.assemble()
    r, w0 = asm.r, asm.w0
    lo = np.full(M, 1.0)
    lo[-1] = 1.0 + 0.5 * (1.0 - r[-2])
    want = asm.gamma_profile * r ** (-2.0 * s - w0) \
        + ro._tail_integral(asm.kern, r, [w0], lo, asm.far)[:, 0]
    prof = r ** (-w0)
    scale = np.abs(A).max(axis=1) * prof.max()
    assert np.all(np.abs(A @ prof - want) <= 1e-14 * scale)


def _row_max_relative(got, want):
    """Per row, the largest entry change over the row's largest entry."""
    return np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)


def _graded_and_full(monkeypatch, n_dim, s, g, M):
    """The operator, and the same one with every panel and cell near."""
    grid = ro.build_grid(1.0, M, g, n_dim)
    graded = ro.assemble_operator(grid, s).matrix
    with monkeypatch.context() as mp:
        mp.setattr(ro, "_NEAR", M)
        full = ro.assemble_operator(grid, s).matrix
    return _row_max_relative(graded, full), max(2, math.ceil(0.1 * M))


@pytest.mark.parametrize("M", [200, 400])
def test_graded_quadrature_matches_full_order_at_desk_scale(monkeypatch, M):
    """The 4-node far rule moves the rows past the calibrated band by at
    most 1e-8 of their largest entry (README, "Discretization notes")."""
    rel, i_cal = _graded_and_full(monkeypatch, N, S, 2.0, M)
    assert rel[i_cal:].max() <= 1e-8
    assert rel[0] <= 1e-8


@pytest.mark.parametrize("M", [200, 400])
def test_distant_rule_moves_only_rows_past_the_inner_band(monkeypatch, M):
    """Against the operator without the 2-node tier, the rows past the
    first ceil(M / 10) move by at most 1e-9 of their largest entry at desk
    scale (README), and those first rows not at all."""
    grid = ro.build_grid(1.0, M, 2.0, N)
    tiered = ro.assemble_operator(grid, S).matrix
    monkeypatch.setattr(ro, "_DISTANT", M)
    rel = _row_max_relative(tiered, ro.assemble_operator(grid, S).matrix)
    i_cal = max(2, math.ceil(0.1 * M))
    assert rel[i_cal:].max() <= 1e-9
    assert np.all(rel[:i_cal] == 0.0)


@pytest.mark.parametrize("n_dim", [2, 3, 5])
@pytest.mark.parametrize("s", [0.55, 0.75, 0.9])
def test_graded_quadrature_matches_full_order(monkeypatch, n_dim, s):
    """Over dimensions, orders, gradings and sizes, the graded rule moves the
    uncalibrated rows by at most 2e-6 and the calibrated ones by at most 1e-5."""
    for g in (1.0, 2.0):
        for M in (32, 64, 200):
            rel, i_cal = _graded_and_full(monkeypatch, n_dim, s, g, M)
            assert max(rel[0], rel[i_cal:].max()) <= 2e-6, (g, M)
            assert rel[1:i_cal].max() <= 1e-5, (g, M)


@pytest.mark.parametrize("M, bound", [(200, 230_000), (400, 800_000)])
def test_assembly_kernel_points(monkeypatch, M, bound):
    """Kernel points per assembly at desk scale: full-order rules only on the
    near-singular panels and cells (1,544,377 points at M = 400 with full
    order everywhere)."""
    g2 = ro._Kernel.g2
    seen = [0]

    def counting(self, y, **kwargs):
        out = g2(self, y, **kwargs)
        seen[0] += np.size(out)
        return out

    monkeypatch.setattr(ro._Kernel, "g2", counting)
    ro.assemble_operator(ro.build_grid(1.0, M, 2.0, N), S)
    assert seen[0] <= bound


# ------------------------------------------------------- calibration fit

_FIT_CASES = [(n_dim, s, M) for n_dim in (2, 3, 5) for s in (0.55, 0.75, 0.9, 0.99)
              for M in (32, 64, 200)]
_UNCALIBRATED = {}


def _uncalibrated(n_dim, s, M):
    """An assembler and its matrix before the inner-row calibration."""
    key = (n_dim, s, M)
    if key not in _UNCALIBRATED:
        asm = ro._Assembler(ro.build_grid(1.0, M, 2.0, n_dim), s)
        asm._calibrate = lambda A: None
        A = asm.assemble()
        del asm._calibrate
        _UNCALIBRATED[key] = (asm, A)
    return _UNCALIBRATED[key]


def _calibrated(monkeypatch, case, fit):
    """The calibrated matrix of ``case`` with ``fit`` in place of ``nnls``."""
    asm, A = _uncalibrated(*case)
    A = A.copy()
    with monkeypatch.context() as mp:
        mp.setattr(ro, "nnls", fit)
        asm._calibrate(A)
    return A


def _row_relative(got, want):
    return float(np.max(np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)))


def _bvls(G, d, lam, z0):
    """The regularized fit solved by scipy's bounded-variable least squares."""
    from scipy.optimize import lsq_linear
    n = G.shape[1]
    res = lsq_linear(np.vstack([G, math.sqrt(lam) * np.eye(n)]),
                     np.concatenate([d, math.sqrt(lam) * z0]), bounds=(0.0, np.inf),
                     method="bvls", tol=1e-15)
    return res.x, res.nit


@pytest.mark.parametrize("case", _FIT_CASES, ids=lambda c: "N%d-s%g-M%d" % c)
def test_calibration_is_the_unique_fit(monkeypatch, case):
    """The calibrated rows are those of a reference solve of the same
    regularized system, and do not depend on the order of its columns."""
    nnls = ro.nnls
    got = _calibrated(monkeypatch, case, nnls)
    assert _row_relative(got, _calibrated(monkeypatch, case, _bvls)) <= 1e-9

    def reversed_columns(G, d, lam, z0):
        z, steps = nnls(G[:, ::-1], d, lam, z0[::-1])
        return z[::-1], steps

    assert _row_relative(got, _calibrated(monkeypatch, case, reversed_columns)) <= 1e-9


@pytest.mark.parametrize("case", _FIT_CASES, ids=lambda c: "N%d-s%g-M%d" % c)
def test_calibration_fit_stops_by_its_optimality_test(monkeypatch, case):
    """Every row's fit ends at a KKT point, in far fewer solves than the cap."""
    fits = []
    nnls = ro.nnls

    def recording(G, d, lam, z0):
        z, steps = nnls(G, d, lam, z0)
        fits.append((G, d, lam, z0, z, steps))
        return z, steps

    _calibrated(monkeypatch, case, recording)
    assert len(fits) == max(2, math.ceil(0.1 * case[2])) - 1
    for G, d, lam, z0, z, steps in fits:
        assert steps <= 2 * G.shape[1] < ro._FIT_MAX_STEPS
        grad = G.T @ (d - G @ z) + lam * (z0 - z)
        tol = 1e-11 * np.linalg.norm(G.T @ d + lam * z0)
        assert np.all(z >= 0.0)
        assert np.all(np.abs(grad[z > 0.0]) <= tol)
        assert np.all(grad[z == 0.0] <= tol)


def test_calibration_fit_raises_at_its_cap(monkeypatch):
    """A fit that cannot reach its optimality test is an assembly error,
    never a silently truncated row."""
    monkeypatch.setattr(ro, "_FIT_MAX_STEPS", 1)
    with pytest.raises(AssemblyError, match="calibration fit"):
        ro.assemble_operator(ro.build_grid(1.0, 32, 2.0, N), S)


def test_calibration_fit_refuses_an_indefinite_system():
    """Normal equations that are not positive definite (here G^T G - I) are
    an assembly error, never a silently wrong fit."""
    G = 0.1 * np.random.default_rng(16).uniform(0.0, 1.0, (6, 3))
    with pytest.raises(AssemblyError, match="not positive definite"):
        ro.nnls(G, np.ones(6), -1.0, np.zeros(3))


# (N, g, M, s, near): grids on which a step back to the boundary left the
# binding variable a rounding residue of about 1e-18, which kept it free and
# shrank every later step to nothing until the solve cap; the first two
# stalled with every panel and cell near, the third under the graded rule
_STALLED_FITS = [(4, 1.5, 64, 0.51, 64), (5, 1.0, 32, 0.55, 32), (3, 1.5, 48, 0.55, ro._NEAR)]


@pytest.mark.parametrize("case", _STALLED_FITS, ids=lambda c: "N%d-g%g-M%d-s%g-near%d" % c)
def test_calibration_fit_binds_the_variable_that_reaches_zero(monkeypatch, case):
    n_dim, g, M, s, near = case
    steps = []
    nnls = ro.nnls

    def recording(G, d, lam, z0):
        z, k = nnls(G, d, lam, z0)
        steps.append(k <= 2 * G.shape[1])
        return z, k

    monkeypatch.setattr(ro, "nnls", recording)
    monkeypatch.setattr(ro, "_NEAR", near)
    ro.assemble_operator(ro.build_grid(1.0, M, g, n_dim), s)
    assert steps and all(steps)


@pytest.mark.parametrize("M", [200, 400])
def test_recorded_oracle_tolerances(M):
    """README's recorded power-oracle errors at desk scale, to within 10%."""
    op = ro.assemble_operator(ro.build_grid(1.0, M, 2.0, N), S)
    assert ro.oracle_power_test(op, REP.mu_exp) == pytest.approx(1.74e-3, rel=0.1)
    assert ro.oracle_power_test(op, REP.mubar_exp) == pytest.approx(1.59e-2, rel=0.1)


# ------------------------------------------------ exact ball oracle (Dyda)

def _dyda_image(n_dim, s, k, r):
    """(-Lap)^s (1-|x|^2)_+^(s+k) inside the unit ball: 4^s Gamma(s+k+1)
    Gamma(N/2+s) / (k! Gamma(N/2)) 2F1(N/2+s, -k; N/2; |x|^2), a polynomial
    of degree 2k (Dyda, Fract. Calc. Appl. Anal. 15(4), 2012)."""
    a, c, x = n_dim / 2 + s, n_dim / 2, np.asarray(r, float) ** 2
    poly, term = np.zeros_like(x), np.ones_like(x)
    for j in range(k + 1):
        poly += term
        term = term * (a + j) * (j - k) / ((c + j) * (j + 1)) * x
    return 4**s * math.gamma(s + k + 1) * math.gamma(a) \
        / (math.factorial(k) * math.gamma(c)) * poly


def _dyda_errors(n_dim, s, M):
    """Per k = 1, 2: the largest error of the calibrated rows and of the rows
    past the calibrated band, over r in [r_2, 0.5], relative to the image at
    0; one assembly serves both fields."""
    grid = ro.build_grid(1.0, M, 2.0, n_dim)
    A = ro.assemble_operator(grid, s).matrix
    i_cal = max(2, math.ceil(0.1 * M))
    past = grid.r[i_cal:] <= 0.5
    out = {}
    for k in (1, 2):
        err = np.abs(A @ (1.0 - grid.r**2) ** (s + k) - _dyda_image(n_dim, s, k, grid.r)) \
            / _dyda_image(n_dim, s, k, 0.0)
        out[k] = (err[1:i_cal].max(), err[i_cal:][past].max())
    return out


@pytest.mark.parametrize("n_dim, s", [
    (2, 0.6), (2, 0.75), (3, 0.6), (3, 0.75), (5, 0.6), (5, 0.75),
    pytest.param(3, 0.9, marks=pytest.mark.xfail(
        strict=True, reason="the operator diverges on the ball at s >= 0.85, for a "
                            "cause not yet found: 7.8e-2, 1.4e-1, 3.8e-1 past the band")),
])
def test_ball_oracle_converges(n_dim, s):
    """README's ball-oracle tolerances: under M = 100 -> 200 -> 400 the rows
    past the calibrated band shrink by at least 2.5x per doubling, from at
    most 4e-3 at M = 100, and the calibrated rows at least halve, from at
    most 0.12."""
    errs = [_dyda_errors(n_dim, s, M) for M in (100, 200, 400)]
    for k in (1, 2):
        cal, past = zip(*(e[k] for e in errs))
        assert past[0] <= 4e-3, k
        assert past[0] >= 2.5 * past[1] and past[1] >= 2.5 * past[2], (k, past)
        assert cal[0] <= 0.12, k
        assert cal[0] >= 1.9 * cal[1] and cal[1] >= 1.9 * cal[2], (k, cal)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ro.build_grid(1.0, 32, 2.0, 1), ConfigError, "dimension must be >= 2, got N=1"),
    (lambda: ro.angular_kernel_average(N, S, 1.0), DomainError,
     "radius ratio must lie in [0,1), got 1.0"),
    (lambda: ro.angular_kernel_average(N, S, -0.5), DomainError,
     "radius ratio must lie in [0,1), got -0.5"),
    (lambda: ro.oracle_power_test(
        ro.assemble_operator(ro.build_grid(1.0, 16, 2.0, N), S), 0.5, 1e-9),
     DomainError, "no nodes inside the oracle check window"),
], ids=["grid-dimension-one", "ratio-one", "ratio-negative", "empty-oracle-window"])
def test_operator_refusals(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
