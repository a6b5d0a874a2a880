"""Graded radial grids and the discrete radial fractional Laplacian.

The operator acts on radial fields sampled at graded nodes r_i = R (i/M)^g
with the exterior-zero convention (fields vanish on |x| > R).  For a radial
function the nonlocal operator reduces to a one-dimensional principal-value
integral against the angular average of the hypersingular kernel; that
angular average has a closed Gauss-hypergeometric form, 2F1(-s, N/2-s-1;
N/2; 1-y) in y = 1 - (min/max)^2, which is evaluated from a piecewise
Chebyshev table built once per (N, s) and checked during assembly twice:
against the module's own ``hyp2f1`` at every table piece, and (as the closed
angular form) against Gauss-Legendre quadrature in the polar angle.  The
module needs numpy and ``math`` only.  The operator depends only on the grid
(R, M, g and the dimension N) and on s: one ``assemble_operator(grid, s)``
serves every (lambda, p, mu).

Discretization notes
--------------------
* Collocation rows are written against a calibration power profile
  rho^(-w0) with the fixed w0 = (N-2s)/2, the center of the admissible
  singularity range.  One identity builds every diagonal: the analytic
  principal value of the profile (the Gamma-ratio multiplier) plus its
  exterior tail, less the profile values the row's off-diagonal entries
  place, so each row is exact on the profile up to quadrature accuracy.
* Within cells and pairing panels, nodal values are interpolated along the
  profile (a convex blend that reproduces both constants and the profile),
  which keeps every interpolation weight a convex combination: the rows
  stay diagonally dominated by their negative part and the discrete
  maximum-principle check holds by construction.  The singular first cell
  is pairing panel k = 0, on graded nodes.
* The innermost rows cannot resolve power profiles from nodal data alone
  (nothing exists below r_1), so rows in the first ``_CALIB_FRAC`` of the
  index range are moment-fitted to the analytic power-family response under
  the same sign constraints.  The fit is well posed: the free diagonal is
  projected out and recovered by least squares, and a Tikhonov term on the
  correction (in unit-norm columns) makes the off-diagonal fit strictly
  convex, so each row has one calibration, found by the active-set solver
  ``nnls``.  The first row is an origin-closure row: a
  sign-constrained row provably cannot reproduce the non-monotone
  Gamma-ratio response there, so it is kept structure-true and excluded
  from oracle error metrics, which start at the second node r_2
  (``OperatorMatrix.oracle_r_min``).
* The exterior-zero condition enters through the analytically-tailed
  integral of the kernel over (R, infinity); the far field is integrated in
  log-spaced panels out to ``_FAR_FACTOR * R`` and closed with a power-law
  estimate beyond.
* Assembly works on flat lists of (row, panel) and (row, cell) pairs, in
  chunks of at most ``_CHUNK`` kernel points, and scatter-adds the results
  into the matrix, so no temporary grows with M^2.  The exterior tails chunk
  their rows by kernel points too, for one exponent or the calibration's
  41.  The chunks of one process write into one workspace (``_Scratch``),
  made after the fork, so they do not fault their temporaries in anew.
* The quadrature is graded by distance: only the near-singular pieces, the
  pairing panels k <= ``_NEAR`` and the ``_NEAR`` remainder cells next to
  each row's pairing band, take the full rules (``_N_PAIR``, ``_N_CELL``
  nodes); every other panel and cell takes the ``_N_FAR``-node rule.  That
  halves the kernel evaluations and moves the rows past the calibrated band
  by at most 1e-8 of their largest entry at desk scale (README).
* The rows are assembled in contiguous blocks, one per usable CPU
  (``util.usable_cpus``) and at least ``_MIN_BLOCK_ROWS`` rows each.  Every
  block but the first runs in a forked child (``util.FORK``), which writes its
  rows' off-diagonal entries and their profile's exterior tails into one
  anonymous shared mapping that holds the matrix.  No row's arithmetic
  depends on another row, so the matrix is bitwise the same for every
  block count.  The calling process joins every child, then alone runs
  what calls BLAS: the diagonal's profile identity, the origin cell and the
  calibration.  Where fork is missing the assembly is serial.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AssemblyError, ConfigError, DomainError, GridMismatchError
from .util import fmt17
from . import specfun, util

__all__ = [
    "RadialGrid",
    "OperatorMatrix",
    "build_grid",
    "assemble_operator",
    "oracle_power_test",
    "check_power_exponent",
    "power_test_profile",
    "rayleigh_quotient",
    "angular_kernel_average",
    "save_field",
]

# One fixed discretization: quadrature orders, calibration and far field.
_ANGULAR_ORDER = 80   # GL order of the assembly-time angular-kernel check
_FAR_FACTOR = 50.0    # exterior tails are integrated out to _FAR_FACTOR * R
_CALIB_FRAC = 0.1     # share of rows (from the origin) that are moment-fitted
_CALIB_NTHETA = 41    # power exponents in the calibration fit
_CALIB_TIKHONOV = 1e-8  # Tikhonov weight of the calibration fit (unit-norm columns)
_FIT_KKT = 1e-12      # optimality tolerance of ``nnls``, relative to its data
_FIT_MAX_STEPS = 100  # solves ``nnls`` may take before it gives up
_N_FIRST = 32         # GL nodes of the singular first cell
_NEAR = 2             # near-singular: pairing panels k <= _NEAR, and the _NEAR
                      # remainder cells next to the pairing band on each side
_N_PAIR = 10          # GL nodes per near pairing panel
_N_CELL = 8           # GL nodes per near remainder cell
_N_FAR = 4            # GL nodes per far pairing panel and per far remainder cell
_N_ORIGIN = 16        # GL nodes of the origin cell (0, r_1)
_N_TAIL = 24          # log-spaced panels of the exterior tail
_N_TAIL_NODES = 8     # GL nodes per exterior-tail panel
_CHEB_DEGREE = 20     # degree of each Chebyshev piece of the kernel table
_CHEB_PIECES = 60     # dyadic pieces [2^-(k+1), 2^-k] of y = 1 - x, k < 60
_CHUNK = 1 << 13      # kernel points per chunk of the assembly, its tails included
_HYP_SWITCH = 1.0 / 16.0  # y from which hyp2f1 sums its series in 1-y, not in y
_HYP_BAND = 1e-4      # half-width of the band around s = 1/2 that hyp2f1 interpolates
_MAX_NODES = 10_000   # largest grid M: its dense operator holds 800 MB
_MIN_BLOCK_ROWS = 100  # fewest rows a forked assembly block takes: below
                       # that, forking and reaping cost more than the split
                       # saves (M = 100: 20 ms in one block, 25 ms in two)


@lru_cache(maxsize=None)
def roots_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], from numpy's
    ``leggauss``; a rule is computed once per n and shared read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _unit_rule(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


# the quadrature rules never change, so they are built once
_RULE_FIRST = _unit_rule(_N_FIRST)
_RULE_PAIR = _unit_rule(_N_PAIR)
_RULE_CELL = _unit_rule(_N_CELL)
_RULE_FAR = _unit_rule(_N_FAR)
_RULE_ORIGIN = _unit_rule(_N_ORIGIN)
_RULE_TAIL = _unit_rule(_N_TAIL_NODES)


class _Scratch:
    """The workspace of the assembly's chunk loops in one process: named flat
    buffers of at least ``_CHUNK`` values, each made on first use and reused
    by every later chunk.  Fresh temporaries per chunk would be freed at the
    top of the heap, which glibc trims, and the next chunk would fault the
    same pages in again; with one workspace a process faults them in once."""

    def __init__(self):
        self._buffers = {}

    def __call__(self, name: str, shape, dtype=float) -> np.ndarray:
        """A view of ``shape`` on buffer ``name`` (one dtype per name),
        holding stale values."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(max(size, _CHUNK), dtype)
        return buf[:size].reshape(shape)


def _fresh(name: str, shape, dtype=float) -> np.ndarray:
    """The workspace of a call outside the row blocks: a new array each time."""
    return np.empty(shape, dtype)


# --------------------------------------------------------------------------
# graded grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Graded nodes r_i = R (i/M)^g, i = 1..M, with ball-measure weights.

    ``weights[i]`` integrates over the spherical shell owned by node i, so
    that ``sum(weights * f(r))`` approximates the integral of the radial
    function f over the ball of radius R in dimension N.  The shell edges
    telescope, hence ``sum(weights) == |B_R|`` exactly.
    """

    R: float
    M: int
    g: float
    N: int
    r: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def tau(self) -> np.ndarray:
        return np.arange(1, self.M + 1) / self.M

    def integrate(self, values: np.ndarray) -> float:
        """Ball integral of a radial nodal function."""
        return float(np.dot(self.weights, values))

    @cached_property
    def _gradient_stencil(self) -> tuple:
        """Spacings and 3-point coefficients of ``gradient_values``, made once."""
        r = self.r
        hm = r[1:-1] - r[:-2]
        hp = r[2:] - r[1:-1]
        return (r[1] - r[0],
                -hp / (hm * (hm + hp)),
                (hp - hm) / (hm * hp),
                hm / (hp * (hm + hp)),
                2.0 * (r[-1] - r[-2]))


def build_grid(R: float, M: int, g: float, N: int) -> RadialGrid:
    """Graded radial grid on (0, R] with M nodes and grading exponent g; a
    first node R (1/M)^g below the least normal double, or a radius whose
    shell weights overflow, is refused."""
    if not R > 0.0:
        raise ConfigError(f"domain radius must be positive, got R={R}")
    if not 16 <= M <= _MAX_NODES:
        raise ConfigError(f"need 16 to {_MAX_NODES} nodes, got M={M}")
    if not g >= 1.0:
        raise ConfigError(f"grading exponent must satisfy g >= 1, got g={g}")
    if N < 2:
        raise ConfigError(f"dimension must be >= 2, got N={N}")
    M = int(M)
    idx = np.arange(1, M + 1)
    r = R * (idx / M) ** g
    # shell edges at half-integer indices; the first shell reaches r = 0 and
    # the last one reaches R, so the weights sum to the exact ball volume.
    lo = np.where(idx == 1, 0.0, R * ((idx - 0.5) / M) ** g)
    hi = np.where(idx == M, R, R * ((idx + 0.5) / M) ** g)
    sn = specfun.sphere_area(N)
    with np.errstate(over="ignore", invalid="ignore"):
        w = sn * (hi**N - lo**N) / N
    if not r[0] >= np.finfo(float).tiny:
        raise ConfigError(f"grading exponent g={g} is too large for M={M} nodes: the "
                          f"first node R (1/M)^g = {r[0]} is not a normal double")
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"domain radius R={R} is too large for dimension N={N}: "
                          f"the shell weights, of order R^N, are not finite")
    return RadialGrid(R=float(R), M=M, g=float(g), N=int(N), r=r, weights=w)


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------

def _gamma_multiplier_extended(beta: float, N: int, s: float) -> float:
    """Gamma-ratio multiplier extended by continuity to 0 at |beta|=(N-2s)/2."""
    half = (N - 2.0 * s) / 2.0
    if abs(beta) >= half * (1.0 - 1e-12):
        return 0.0
    return specfun.gamma_multiplier(beta, N, s)


def angular_kernel_average(N: int, s: float, z: float, order: int = 80) -> float:
    """Polar-angle average of |x-y|^-(N+2s) on the unit sphere, by GL quadrature.

    x and y have radii with ratio z = min/max (z in [0,1)); the returned value
    omits the max(r,rho)^-(N+2s) scale.  Serves as the independent check of
    the closed hypergeometric form used in assembly.
    """
    if not (0.0 <= z < 1.0):
        raise DomainError(f"radius ratio must lie in [0,1), got {z}")
    x, w = roots_legendre(order)
    phi = 0.5 * math.pi * (x + 1.0)
    wphi = 0.5 * math.pi * w
    vals = np.sin(phi) ** (N - 2) * (1.0 - 2.0 * z * np.cos(phi) + z * z) ** (-(N + 2.0 * s) / 2.0)
    return specfun.sphere_area(N - 1) * float(np.dot(vals, wphi))


def _gauss_series(a: float, b: float, c: float, x: np.ndarray) -> np.ndarray:
    """sum_n (a)_n (b)_n / ((c)_n n!) x^n for 0 <= x < 1, to double precision.

    The ratio of successive terms is formed as ((a+n)/(c+n)) * ((b+n)/(n+1)),
    so that a = -s over c = -2s stays exact even for subnormal s.  Near s = 1
    the second ratio (1-s)/(1-2s) is tiny and the third, (2-s)/(2-2s), huge,
    so the stopping test starts at the fourth term.
    """
    term = np.ones_like(x)
    total = term.copy()
    for n in range(2000):
        term *= ((a + n) / (c + n)) * ((b + n) / (n + 1.0)) * x
        total += term
        if n >= 2 and np.all(np.abs(term) <= 2.0**-53 * np.abs(total)):
            return total
    raise AssemblyError(f"2F1({a}, {b}; {c}; x) series did not converge")


def _rgamma(x: float) -> float:
    """1/Gamma(x), by reflection for x < 1/2 so that it is 0 at the poles."""
    if x < 0.5:
        return math.sin(math.pi * x) * math.gamma(1.0 - x) / math.pi
    return 1.0 / math.gamma(x)


def _hyp2f1_near_origin(N: int, s: float, y: np.ndarray) -> np.ndarray:
    """g2(y) for small y from the connection formula to 1 - x (Abramowitz &
    Stegun 15.3.6, DLMF 15.8.4): two series in y, the second one carrying
    the y^(2s+1) branch.  Gamma(-2s-1) / Gamma(-s) is written by reflection
    as -Gamma(1+s) / (2 cos(pi s) Gamma(2s+2)), with cos(pi s) taken as
    sin(pi (1/2 - s)), which keeps its digits near s = 1/2; both terms have a
    pole there that cancels."""
    h = N / 2.0
    try:
        c1 = math.gamma(h) * math.gamma(2.0 * s + 1.0) / (math.gamma(h + s) * math.gamma(s + 1.0))
        c2 = -math.gamma(h) * math.gamma(1.0 + s) * _rgamma(h - s - 1.0) \
            / (2.0 * math.sin(math.pi * (0.5 - s)) * math.gamma(2.0 * s + 2.0))
    except OverflowError:
        raise AssemblyError(f"kernel connection constants overflow at N={N}") from None
    return c1 * _gauss_series(-s, h - s - 1.0, -2.0 * s, y) \
        + c2 * y ** (2.0 * s + 1.0) * _gauss_series(h + s, s + 1.0, 2.0 * s + 2.0, y)


def hyp2f1(N: int, s: float, y) -> np.ndarray:
    """The kernel's angular factor g2(y) = 2F1(-s, N/2-s-1; N/2; 1-y), one
    value per point, for 0 < s < 1 and y in [0, 1].

    From y = ``_HYP_SWITCH`` up it is the Gauss series in x = 1 - y; below
    it, the connection formula of ``_hyp2f1_near_origin``.  Within
    ``_HYP_BAND`` of s = 1/2, where the two terms of that formula cancel, the
    small-y values are the 4-point Lagrange interpolant in s through
    s = 1/2 +- _HYP_BAND and 1/2 +- 2 _HYP_BAND.  It agrees with 30-digit
    mpmath to about 4e-14 relative (README, "Discretization notes").
    """
    y = np.asarray(y, float)
    out = np.empty_like(y)
    far = y >= _HYP_SWITCH
    out[far] = _gauss_series(-s, N / 2.0 - s - 1.0, N / 2.0, 1.0 - y[far])
    near = y[~far]
    t = (s - 0.5) / _HYP_BAND
    if abs(t) >= 1.0:
        out[~far] = _hyp2f1_near_origin(N, s, near)
        return out
    nodes = (-2.0, -1.0, 1.0, 2.0)
    acc = np.zeros_like(near)
    for tk in nodes:
        weight = math.prod((t - tj) / (tk - tj) for tj in nodes if tj != tk)
        acc += weight * _hyp2f1_near_origin(N, 0.5 + tk * _HYP_BAND, near)
    out[~far] = acc
    return out


class _Kernel:
    """Radial kernel k2(r, rho) = K(r, rho) * rho^(N-1) in closed form.

    Its angular factor g2(y) = 2F1(-s, N/2-s-1; N/2; 1-y), with
    y = 1 - (min/max)^2 in [0, 1], comes from a table built once per kernel.
    Piece k covers y in [2^-(k+1), 2^-k], with local variable
    t = 2^(k+2) y - 3 in [-1, 1], and holds the degree-``_CHEB_DEGREE``
    Chebyshev interpolant of ``hyp2f1`` sampled at its Chebyshev nodes.  The
    pieces are dyadic because g2 has a y^(2s+1) branch point at y = 0: every
    piece then sits at the same relative distance from it, and one degree
    serves them all.  Below the last piece g2 equals 2F1(.; 1) to far below
    double precision, so y is clamped to that piece's lower edge.
    """

    def __init__(self, N: int, s: float):
        self.N, self.s = N, s
        # pointwise constant consistent with the Fourier-multiplier
        # normalization that underlies the Gamma-ratio identities (twice the
        # quadratic-form constant reported by specfun.normalizing_constant).
        self.C = 2.0 * specfun.normalizing_constant(N, s) * specfun.sphere_area(N)
        n = _CHEB_DEGREE + 1
        theta = np.pi * (np.arange(n) + 0.5) / n
        y = np.ldexp((np.cos(theta)[:, None] + 3.0) / 4.0, -np.arange(_CHEB_PIECES))
        to_coef = np.cos(np.outer(np.arange(n), theta)) * (2.0 / n)
        to_coef[0] *= 0.5
        # row j holds the coefficient of T_j on every piece
        self._coef = to_coef @ self.reference(y)
        self._y_min = math.ldexp(1.0, -_CHEB_PIECES)

    def reference(self, y):
        """g2(y) from the module's ``hyp2f1``: the values the table interpolates."""
        return hyp2f1(self.N, self.s, y)

    def g2(self, y, out=None, scratch=_fresh):
        """g2(y) from the table, by Clenshaw's recurrence on y's piece; into
        ``out`` and the buffers of ``scratch`` when given (see ``_Scratch``)."""
        shape = np.shape(y)
        # out holds y, then 2t, until the last step writes g2 there
        y = np.maximum(y, self._y_min, out=np.empty(shape) if out is None else out)
        t = scratch("g2.t", shape)
        ex = scratch("g2.ex", shape, np.intc)
        np.frexp(y, out=(t, ex))
        np.negative(ex, out=ex)
        np.maximum(ex, 0, out=ex)
        piece = scratch("g2.piece", shape, np.intp)
        np.copyto(piece, ex)
        np.ldexp(y, piece, out=t)
        t *= 4.0
        t -= 3.0
        t2 = np.multiply(2.0, t, out=y)
        coef = self._coef
        # every piece lies in [0, _CHEB_PIECES): "clip" only spares take a copy
        b1 = coef[-1].take(piece, out=scratch("g2.b1", shape), mode="clip")
        b2 = scratch("g2.b2", shape)
        b2.fill(0.0)
        b0 = scratch("g2.b0", shape)
        prod = scratch("g2.prod", shape)
        for cj in coef[-2:0:-1]:
            cj.take(piece, out=b0, mode="clip")
            b0 += np.multiply(t2, b1, out=prod)
            b0 -= b2
            b0, b1, b2 = b2, b0, b1
        out = coef[0].take(piece, out=t2, mode="clip")
        out += np.multiply(t, b1, out=prod)
        out -= b2
        return out

    def closed_angular(self, z: float) -> float:
        """Angular average in closed form, same normalization as angular_kernel_average."""
        sn = specfun.sphere_area(self.N)
        omz = (1.0 - z) * (1.0 + z)
        return sn * omz ** (-(2.0 * self.s + 1.0)) * float(self.g2(omz))

    def k2(self, r, rho, omz=None, out=None, scratch=_fresh):
        """k2 at every broadcast pair (r, rho), with omz = 1 - (min/max)^2
        formed here unless given; into ``out`` and the buffers of ``scratch``
        when given, with every product in the order of
        C * mx^-(N+2s) * omz^-(2s+1) * g2(omz) * rho^(N-1)."""
        N, s = self.N, self.s
        r = np.asarray(r, float)
        rho = np.asarray(rho, float)
        shape = np.broadcast_shapes(r.shape, rho.shape)
        mx = np.maximum(r, rho, out=scratch("k2.mx", shape))
        tmp = scratch("k2.tmp", shape)
        if omz is None:
            mn = np.minimum(r, rho, out=tmp)
            omz = np.subtract(mx, mn, out=scratch("k2.omz", shape))
            omz *= np.add(mx, mn, out=mn)
            omz /= np.square(mx, out=tmp)
        out = np.power(mx, -(N + 2 * s), out=out)
        out *= self.C
        out *= np.power(omz, -(2 * s + 1.0), out=tmp)
        out *= self.g2(omz, out=tmp, scratch=scratch)
        out *= np.power(rho, N - 1, out=scratch("k2.tmp", rho.shape))
        return out


# --------------------------------------------------------------------------
# operator container
# --------------------------------------------------------------------------

@dataclass
class OperatorMatrix:
    """Dense collocation matrix of (-Lap)^s on ``grid``, in dimension ``grid.N``."""

    matrix: np.ndarray
    grid: RadialGrid
    s: float
    # the inverse of ``matrix``, set by solver.factor_operator on first use
    # and reused by every later run
    factors: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def oracle_r_min(self) -> float:
        """Innermost radius included in oracle error metrics (origin-closure
        row excluded)."""
        return self.grid.r[1]


def _tail_integral(kern: _Kernel, r: np.ndarray, ws: np.ndarray, lo,
                   far: float, scratch=_fresh) -> np.ndarray:
    """int_lo^inf rho^-w k2(r, rho) drho for every radius r and exponent w.

    Returns shape (len(r), len(ws)); ``lo`` is one lower limit or one per r.
    The rows go in chunks of at most ``_CHUNK`` kernel points (at least one
    row), whatever the number of exponents: the kernel is evaluated once per
    chunk and weighted by each exponent's power in turn.
    """
    r = np.asarray(r, float)
    ws = np.asarray(ws, float)
    lo = np.broadcast_to(np.asarray(lo, float), r.shape)
    xi, wxi = _RULE_TAIL
    s, N = kern.s, kern.N
    c2 = (1.0 + 2 * s) - s * (N - 2 * s - 2.0) / N
    out = np.empty((len(r), len(ws)))
    n_pts = _N_TAIL * _N_TAIL_NODES
    step = max(1, _CHUNK // n_pts)
    for i in range(0, len(r), step):
        ri = r[i:i + step]
        rr = ri[:, None]
        shape = (len(ri), n_pts)
        panels = (len(ri), _N_TAIL, _N_TAIL_NODES)
        t_edges = np.geomspace(lo[i:i + step] - ri, far - ri, _N_TAIL + 1, axis=1)
        a = t_edges[:, :-1, None]
        h = t_edges[:, 1:, None] - a
        rho = scratch("chunk.0", shape)
        t = np.multiply(h, xi, out=rho.reshape(panels))
        t += a
        rho += rr
        base = kern.k2(rr, rho, out=scratch("chunk.1", shape), scratch=scratch)
        pw = scratch("chunk.2", shape)
        base *= np.multiply(h, wxi, out=pw.reshape(panels)).reshape(shape)
        for j, w in enumerate(ws):
            np.power(rho, -w, out=pw)
            pw *= base
            out[i:i + step, j] = pw.sum(axis=1)
    out += kern.C * (
        far ** (-ws - 2 * s) / (ws + 2 * s)
        + c2 * (r * r)[:, None] * far ** (-ws - 2 * s - 2.0) / (ws + 2 * s + 2.0)
    )
    return out


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

def _ragged(first: np.ndarray, count: np.ndarray, width: int, lo: int, hi: int):
    """Every pair (i, first[i] + m), m < count[i], lo <= i < hi, as two flat
    arrays.

    The pairs come in order of i and m, in chunks of at most ``_CHUNK``
    kernel points at ``width`` points per pair.  A row outside [lo, hi)
    counts no pairs.
    """
    i = np.arange(len(count))
    count = np.where((i >= lo) & (i < hi), count, 0)
    ends = np.cumsum(count)
    step = max(1, _CHUNK // width)
    for start in range(0, int(ends[-1]), step):
        flat = np.arange(start, min(start + step, int(ends[-1])))
        rows = np.searchsorted(ends, flat, side="right")
        yield rows, first[rows] + flat - (ends[rows] - count[rows])


class _Assembler:
    def __init__(self, grid: RadialGrid, s: float):
        self.grid = grid
        N = grid.N
        self.N, self.s = N, s
        self.w0 = (N - 2.0 * s) / 2.0
        self.q = grid.g * self.w0          # profile decay exponent in tau
        self.kern = _Kernel(N, s)
        self.R = grid.R
        self.M = grid.M
        self.g = grid.g
        self.tau_arr = grid.tau
        self.r = grid.r
        self.rw = grid.r**self.w0
        self.dlt = 1.0 / grid.M
        self.far = _FAR_FACTOR * grid.R
        self.m_grade = mgr = min(max(2.0, 2.0 / (2.0 - 2.0 * s)), 8.0)
        # graded rule of the singular first cell: nodes xi^m, weights m xi^(m-1) w
        xi0, wxi0 = _RULE_FIRST
        self.graded = (xi0**mgr, self.dlt * mgr * xi0 ** (mgr - 1.0) * wxi0)
        self.gamma_profile = _gamma_multiplier_extended((N - 2 * s) / 2.0 - self.w0, N, s)
        # empty until a block's first chunk, so every forked child fills its
        # own; the calling process reuses its block's for the calibration
        self.scratch = _Scratch()

    # -- kernel helpers --------------------------------------------------
    def _w_sides(self, rows: np.ndarray, eta: np.ndarray, scratch=_fresh):
        """Kernel-with-Jacobian at tau_i +- eta, stable for tiny eta.

        Row n of the result belongs to node ``rows[n]`` and row n of ``eta``
        (or to the one row of offsets that ``eta`` holds).
        """
        g, R = self.g, self.R
        ti = self.tau_arr[rows][:, None]
        r = self.r[rows][:, None]
        shape = np.broadcast_shapes(ti.shape, np.shape(eta))
        out = []
        for sgn, side in ((+1.0, "ws.plus"), (-1.0, "ws.minus")):
            dr = np.multiply(sgn, eta, out=scratch("ws.dr", shape))
            dr /= ti
            np.log1p(dr, out=dr)
            dr *= g
            np.expm1(dr, out=dr)
            dr *= r
            rho = np.add(r, dr, out=scratch("ws.rho", shape))
            omz = np.add(rho, r, out=scratch("ws.omz", shape))
            if sgn > 0:
                omz *= dr
                omz /= np.square(rho, out=dr)
            else:
                omz *= np.negative(dr, out=dr)
                omz /= r**2
            wk = self.kern.k2(r, rho, omz, out=scratch(side, shape), scratch=scratch)
            # the Jacobian R g taus^(g-1) at taus = tau_i + sgn eta
            jac = np.multiply(sgn, eta, out=dr)
            jac += ti
            np.power(jac, g - 1.0, out=jac)
            jac *= R * g
            wk *= jac
            out.append(wk)
        return out

    def _profile_shapes(self, rows: np.ndarray, eta: np.ndarray, scratch=_fresh):
        """Even/odd branches of the profile around each node, in tau offsets."""
        ti = self.tau_arr[rows][:, None]
        shape = np.broadcast_shapes(ti.shape, np.shape(eta))
        x = np.divide(eta, ti, out=scratch("ps.x", shape))
        ep = np.log1p(x, out=scratch("ps.even", shape))
        ep *= -self.q
        np.expm1(ep, out=ep)
        em = np.negative(x, out=scratch("ps.odd", shape))
        np.log1p(em, out=em)
        em *= -self.q
        np.expm1(em, out=em)
        np.subtract(em, ep, out=x)
        ep += em
        return np.negative(ep, out=ep), x

    def _check_kernel(self):
        """Verify the kernel table against hyp2f1, and the closed angular form
        it feeds against direct GL quadrature."""
        # geometric piece midpoints 2^-(k+1/2): never an interpolation node
        y = np.ldexp(math.sqrt(0.5), -np.arange(_CHEB_PIECES))
        ref = self.kern.reference(y)
        worst = float(np.max(np.abs(self.kern.g2(y) - ref) / np.abs(ref)))
        if worst > 1e-12:
            raise AssemblyError(
                f"kernel table (degree {_CHEB_DEGREE}) disagrees with hyp2f1 "
                f"by {worst:.2e} > 1e-12"
            )
        worst = 0.0
        for z in (0.0, 0.2, 0.5, 0.8, 0.95):
            direct = angular_kernel_average(self.N, self.s, z, _ANGULAR_ORDER)
            closed = self.kern.closed_angular(z)
            worst = max(worst, abs(direct - closed) / abs(closed))
        if worst > 1e-8:
            raise AssemblyError(
                f"angular kernel quadrature (order {_ANGULAR_ORDER}) disagrees "
                f"with the closed form by {worst:.2e} > 1e-8"
            )

    # -- assembly ---------------------------------------------------------
    def assemble(self) -> np.ndarray:
        self._check_kernel()
        M, r, rw = self.M, self.r, self.rw
        # A and the profile's exterior tails share one mapping, which the
        # row blocks of forked children write in place
        shared = np.frombuffer(mmap.mmap(-1, 8 * M * (M + 1)))
        A = shared[:M * M].reshape(M, M)
        tail = shared[M * M:]
        idx = np.arange(M)
        # a non-finite entry is refused below, not warned about
        with np.errstate(all="ignore"):
            _on_row_blocks(M, lambda lo, hi: self._rows(A, tail, lo, hi))
            # what calls BLAS runs here, after every block: the analytic
            # principal value of the profile + its exterior tail, less the
            # profile values rho_j^-w0 each row's off-diagonal entries place
            # (A has no diagonal yet), so every row is exact on the profile
            diag = self.gamma_profile * r ** (-2.0 * self.s) + rw * tail
            diag -= rw * (A @ (1.0 / rw))
            self._origin_cell(A, diag)
            A[idx, idx] += diag
        if not np.isfinite(A).all():
            raise AssemblyError(
                f"the assembled operator holds a non-finite entry at N={self.N}, "
                f"M={M}, g={self.g}, r_1={fmt17(r[0])}: the kernel's powers of the first "
                "node leave the double range")
        self._calibrate(A)
        return A

    def _rows(self, A, tail, lo: int, hi: int) -> None:
        """Rows lo..hi-1: their off-diagonal entries into A and their
        profile's exterior tail into ``tail``.  No row's arithmetic depends
        on another row, so a block writes the bits the whole range would."""
        M, R, r = self.M, self.R, self.r
        idx = np.arange(M)
        K = np.minimum(idx, M - 1 - idx)   # pairs (i - k, i + k), k = 1..K
        self._pairing_panels(A, K, lo, hi)
        self._remainder_cells(A, K, lo, hi)
        self._end_cells(A, lo, hi)
        # the boundary row integrates the exterior from half a cell out (its
        # delta^s layer is unresolved by design)
        start = np.full(M, R)
        start[-1] = R + 0.5 * (R - r[M - 2])
        tail[lo:hi] = _tail_integral(self.kern, r[lo:hi], [self.w0], start[lo:hi],
                                     self.far, self.scratch)[:, 0]

    @staticmethod
    def _add_pairs(A, rows, k, cD, cS) -> None:
        """Scatter even/odd weights cD, cS on the nodes row +- k."""
        A[rows, rows + k] -= cD + cS
        A[rows, rows - k] -= cD - cS

    @staticmethod
    def _weighted_sum(base, blend, w, tmp):
        """Per row, sum(base * blend * w), formed in ``tmp``."""
        np.multiply(base, blend, out=tmp)
        tmp *= w
        return tmp.sum(axis=1)

    def _pairing_panels(self, A, K, lo: int, hi: int) -> None:
        """Panels (k, k+1) cells out of each row, paired across the node and
        interpolated along the profile, k = 0..K-1.  Panel k = 0 is the
        singular first cell, on the graded rule; it places only node 1's
        share, since node 0 is the row itself.  Panels k <= ``_NEAR`` take
        ``_RULE_PAIR``, the far ones ``_RULE_FAR``."""
        scratch = self.scratch
        M, dlt = self.M, self.dlt
        xip, wxip = _RULE_PAIR
        xif, wxif = _RULE_FAR
        n_near = np.clip(K - 1, 0, _NEAR)
        for xi, base, first, count in (
                (*self.graded, np.zeros(M, int), np.minimum(K, 1)),
                (xip, dlt * wxip, np.ones(M, int), n_near),
                (xif, dlt * wxif, np.full(M, _NEAR + 1), np.maximum(K - 1, 0) - n_near)):
            for rows, k in _ragged(first, count, len(xi), lo, hi):
                shape = (len(rows), len(xi))
                eta = np.add(k[:, None], xi, out=scratch("chunk.0", shape))
                eta *= dlt
                wp, wm = self._w_sides(rows, eta, scratch)
                we = np.add(wp, wm, out=scratch("chunk.1", shape))
                we *= 0.5
                wo = np.subtract(wp, wm, out=wp)
                wo *= 0.5
                bl_d, bl_s = self._profile_shapes(rows, eta, scratch)
                dk, sk = self._profile_shapes(rows, (k * dlt)[:, None])
                dk1, sk1 = self._profile_shapes(rows, ((k + 1) * dlt)[:, None])
                # node k+1's share of the profile blend; linear where the
                # profile is flat to double precision
                for bl, at_k, at_k1 in ((bl_d, dk, dk1), (bl_s, sk, sk1)):
                    den = at_k1 - at_k
                    bl -= at_k
                    bl /= den
                    np.copyto(bl, xi, where=~(np.abs(den) > 1e-300))
                # node k+1's shares first, then the blends turn into node
                # k's in place; wm is spent, so its buffer takes the products
                d_k1 = self._weighted_sum(base, bl_d, we, wm)
                s_k1 = self._weighted_sum(base, bl_s, wo, wm)
                if k[0] > 0:   # a chunk holds one group; in group k = 0 node k is the row
                    self._add_pairs(
                        A, rows, k,
                        self._weighted_sum(base, np.subtract(1.0, bl_d, out=bl_d), we, wm),
                        self._weighted_sum(base, np.subtract(1.0, bl_s, out=bl_s), wo, wm))
                self._add_pairs(A, rows, k + 1, d_k1, s_k1)

    def _remainder_cells(self, A, K, lo: int, hi: int) -> None:
        """Unpaired cells (nodes j, j+1) beyond each row's pairing band,
        interpolated along the profile; the ``_NEAR`` cells next to the band
        on each side take ``_RULE_CELL``, the others ``_RULE_FAR``."""
        scratch = self.scratch
        M, R, g, dlt, r = self.M, self.R, self.g, self.dlt, self.r
        pn = r ** (-self.w0)
        i1 = np.arange(1, M + 1)
        # right cells j = jr0..M-1 and left cells j = 1..jl_hi (1-based j)
        jr0 = np.where(K >= 1, i1 + K, np.where(i1 == 1, 2, M))
        jl_hi = np.where(K >= 1, i1 - K - 1, np.where(i1 == M, M - 2, 0))
        n_right = np.maximum(M - jr0, 0)
        n_left = np.maximum(jl_hi, 0)
        near_right = np.minimum(n_right, _NEAR)
        near_left = np.minimum(n_left, _NEAR)
        for (xic, wxic), groups in (
                (_RULE_CELL, ((jr0, near_right), (jl_hi - near_left + 1, near_left))),
                (_RULE_FAR, ((jr0 + near_right, n_right - near_right),
                             (np.ones(M, int), n_left - near_left)))):
            # everything but the kernel depends on the cell only
            tq = self.tau_arr[:-1, None] + xic * dlt
            rho = R * tq**g
            wq = R * g * tq ** (g - 1.0) * (dlt * wxic)
            bl = (rho ** (-self.w0) - pn[1:, None]) / (pn[:-1] - pn[1:])[:, None]
            br = 1.0 - bl
            for first, count in groups:
                for rows, j in _ragged(first, count, len(xic), lo, hi):
                    c = j - 1
                    shape = (len(rows), len(xic))
                    # the cells are rows of the tables, so "clip" changes no
                    # index and only spares take a copy
                    rho_c = rho.take(c, axis=0, out=scratch("chunk.0", shape), mode="clip")
                    wgt = self.kern.k2(r[rows][:, None], rho_c,
                                       out=scratch("chunk.1", shape), scratch=scratch)
                    wgt *= wq.take(c, axis=0, out=rho_c, mode="clip")
                    share = bl.take(c, axis=0, out=rho_c, mode="clip")
                    share *= wgt
                    A[rows, c] -= share.sum(axis=1)
                    share = br.take(c, axis=0, out=rho_c, mode="clip")
                    share *= wgt
                    A[rows, j] -= share.sum(axis=1)

    def _end_cells(self, A, lo: int, hi: int) -> None:
        """One-sided closure of the two extreme rows, which have no pairing
        partner: the first cell toward the interior, on the graded rule,
        weighted (eta/delta)^2 onto the neighbour.  Only a row in [lo, hi)
        takes its closure."""
        M = self.M
        xi, base = self.graded
        wp, wm = self._w_sides(np.asarray([0, M - 1]), self.dlt * xi)
        end = base * xi**2
        if lo == 0:
            A[0, 1] -= float(np.sum(end * wp[0]))
        if hi == M:
            A[M - 1, M - 2] -= float(np.sum(end * wm[1]))

    def _origin_cell(self, A, diag) -> None:
        """Origin cell (0, r_1): the field is extended by its innermost value;
        the profile part is integrated exactly so constants reproduce the full
        killing mass."""
        M, r = self.M, self.r
        xio, wxio = _RULE_ORIGIN
        rho = r[0] * xio**2.0
        drho = r[0] * 2.0 * xio * wxio
        prof = rho ** (-self.w0)
        for rows, _ in _ragged(np.zeros(M, int), np.ones(M, int), _N_ORIGIN, 0, M):
            kvals = self.kern.k2(r[rows][:, None], rho) * drho
            A[rows, 0] -= np.sum(kvals, axis=1)
            diag += np.bincount(rows, self.rw[rows] * (kvals @ prof), minlength=M)

    # -- inner-row moment calibration --------------------------------------
    def _calibrate(self, A: np.ndarray) -> None:
        """Fit the innermost rows to the analytic power-family response.

        Each row's correction x on its columns minimizes the weighted relative
        misfit |V x - b| over the power family.  No off-diagonal entry may
        rise above max(entry, 0), so the calibrated rows keep the
        maximum-principle structure, and the zero exponent carries extra
        weight, pinning constant-field row sums to the exterior killing mass.
        The diagonal entry is free: the fit is projected onto the orthogonal
        complement of its column, and the diagonal is recovered afterwards by
        least squares.  On unit-norm columns the projected off-diagonal fit
        carries the Tikhonov term ``_CALIB_TIKHONOV * |x|^2``, so it is
        strictly convex: each row has exactly one calibration, whatever the
        solver or the column order, and it is the smallest correction of the
        assembled row that fits.
        """
        M = self.M
        i_cal = max(2, int(math.ceil(_CALIB_FRAC * M)))
        nth = _CALIB_NTHETA
        span = self.N - 2.0 * self.s
        thetas = 0.5 * (1.0 - np.cos(np.pi * np.arange(nth) / (nth - 1))) * 0.97 * span
        U = self.r[None, :] ** (-thetas[:, None])
        gams = np.asarray([
            _gamma_multiplier_extended(span / 2.0 - th, self.N, self.s) for th in thetas
        ])
        wts = np.where(thetas <= 0.6 * span, 1.0,
                       1.0 - 0.75 * (thetas - 0.6 * span) / (0.4 * span))
        wts[0] = 10.0
        # row 0 stays a pure structural closure: a sign-constrained row has a
        # monotone power response and cannot follow the Gamma-ratio bump, and
        # fitting it anyway drags its local Hardy quotient down to the fitted
        # curve and stalls the solver's Picard iteration.
        tails = _tail_integral(self.kern, self.r[1:i_cal], thetas, self.R, self.far,
                               self.scratch)
        for ii in range(1, i_cal):
            if ii <= 3:
                cols = np.arange(0, min(20, M))
            else:
                cols = np.arange(min(ii + 5, M))
                cols = cols[(cols < 2) | (cols >= ii - 4)]
            target = gams * self.r[ii] ** (-thetas - 2.0 * self.s) + tails[ii - 1]
            resid = target - U @ A[ii]
            scale = np.abs(target)
            V = (U[:, cols] / scale[:, None]) * wts[:, None]
            b = (resid / scale) * wts
            off = cols != ii
            # off-diagonal unknowns y = ub - x >= 0
            ub = np.maximum(0.0, -A[ii, cols[off]])
            G = -V[:, off]
            c = b + G @ ub
            vd = V[:, ~off].ravel()
            vn = math.sqrt(vd @ vd)
            u = vd / vn
            Gp = G - np.outer(u, u @ G)
            gs = np.linalg.norm(Gp, axis=0)
            z, _ = nnls(Gp / gs, c - u * (u @ c), _CALIB_TIKHONOV, ub * gs)
            y = z / gs
            A[ii, cols[off]] -= y - ub
            A[ii, ii] += u @ (c - G @ y) / vn


def nnls(G: np.ndarray, d: np.ndarray, lam: float, z0: np.ndarray):
    """min |G z - d|^2 + lam |z - z0|^2 over z >= 0, by Lawson-Hanson active sets.

    A Tikhonov-regularized nonnegative least squares: with lam > 0 the
    minimizer is unique.  The search starts with every variable free, drops
    those whose unconstrained value is not positive until the rest are, and
    from there runs Lawson & Hanson's active-set loop on the normal equations
    (Solving Least Squares Problems, 1974, ch. 23).  Each solve is refined
    once against the residual of G itself, which recovers the digits the
    normal equations lose.  The loop stops only by its optimality test: no
    bound variable's gradient exceeds ``_FIT_KKT`` times the largest entry of
    G^T d + lam z0.  Returns (z, number of solves); raises AssemblyError
    when the normal equations are not positive definite (possible only for
    lam <= 0) and after ``_FIT_MAX_STEPS`` solves.
    """
    n = G.shape[1]
    H = G.T @ G
    H.flat[::n + 1] += lam
    q = G.T @ d + lam * z0
    eye = np.eye(n)
    tol = _FIT_KKT * np.abs(q).max()
    free = np.ones(n, bool)
    z = None
    for steps in range(1, _FIT_MAX_STEPS + 1):
        try:
            chol = np.linalg.cholesky(np.where(free[:, None] & free, H, eye))
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"calibration fit is not positive definite: {exc}") from exc
        # H^-1 = li^T li on the free block, from the inverse of the factor
        li = np.linalg.inv(chol)
        s = li.T @ (li @ np.where(free, q, 0.0))
        # w is minus the gradient, from G itself; after the refinement step
        # the formed H is accurate enough to update it
        w = G.T @ (d - G @ s) + lam * (z0 - s)
        ds = li.T @ (li @ np.where(free, w, 0.0))
        s += ds
        w -= H @ ds
        neg = free & (s <= 0.0)
        if neg.any():
            if z is None:
                free &= ~neg
            else:
                # step back to the boundary and bind what reached it; the
                # index of the least ratio is bound by name, since rounding
                # can leave it a tiny positive z that would stay free and
                # shrink every later step to nothing
                idx = np.flatnonzero(neg)
                ratio = z[idx] / (z[idx] - s[idx])
                j = ratio.argmin()
                z += ratio[j] * (s - z)
                free &= z > 0.0
                free[idx[j]] = False
                z[~free] = 0.0
            continue
        z = s
        bound = np.where(free, -np.inf, w)
        j = bound.argmax()
        if bound[j] <= tol:
            return z, steps
        free[j] = True
    raise AssemblyError(f"calibration fit not optimal after {_FIT_MAX_STEPS} solves")


def _on_row_blocks(M: int, work) -> None:
    """Run ``work(lo, hi)`` on contiguous blocks [lo, hi) of the rows 0..M-1,
    one block per usable CPU and at least ``_MIN_BLOCK_ROWS`` rows each.

    This process runs the first block; every other one runs in a child
    process of ``util.FORK``, which prints its traceback and exits with
    code 1 if ``work`` raises.  Nothing may call a BLAS routine before the
    join, ``work`` or this process, whose threads would spin against the
    other processes: with the kernel check (``np.dot`` and ``leggauss``'s
    eigensolver) moved after the fork, two blocks at M = 400 took 82-99 ms
    against 48-54 ms.  Every child is joined
    before this returns or raises, whatever this process's own block did; a
    child that failed raises AssemblyError.  A block whose child cannot
    start runs here instead.
    """
    n = max(1, min(util.usable_cpus(), M // _MIN_BLOCK_ROWS))
    edges = [M * b // n for b in range(n + 1)]
    children = []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            child = util.FORK.Process(target=work, args=(lo, hi))
            try:
                child.start()
            except OSError:
                work(lo, hi)
                continue
            children.append((child, lo, hi))
        work(edges[0], edges[1])
    finally:
        for child, _, _ in children:
            child.join()
    for child, lo, hi in children:
        if child.exitcode:
            raise AssemblyError(f"the child assembling rows {lo}..{hi - 1} ended with "
                                f"exit code {child.exitcode}")


def assemble_operator(grid: RadialGrid, s: float) -> OperatorMatrix:
    """Assemble the dense collocation matrix of (-Lap)^s with exterior zero.

    The dimension N is ``grid.N``; callers assemble once per (grid, s) and
    hand the result to the scheme.  The calibration power is rho^(-w0) with
    w0 = (N-2s)/2, the midpoint of the admissible singular range: it keeps
    the discrete Hardy quotient at the singular nodes pinned to the sharp
    constant, so the Picard map contracts at rate about lambda/Lambda; a
    profile matched to mu(lambda) would drive that quotient down to lambda
    itself and stall the iteration.  Raises AssemblyError when the angular
    closed form fails its quadrature check.
    """
    if not (0.0 < s < 1.0) or grid.N <= 2 * s:
        raise DomainError(f"need 0 < s < 1 and N > 2s, got N={grid.N}, s={s}")
    return OperatorMatrix(matrix=_Assembler(grid, s).assemble(), grid=grid, s=s)


# --------------------------------------------------------------------------
# operations on assembled operators
# --------------------------------------------------------------------------

def check_power_exponent(theta: float, N: int, s: float) -> None:
    """DomainError unless r^-theta is an oracle field, 0 < theta < N - 2s
    (NaN fails).  ``hardykpz oracle`` calls it before it assembles."""
    if not 0.0 < theta < N - 2.0 * s:
        raise DomainError(
            f"power exponent must lie in (0, N-2s) = (0, {N - 2 * s}), got {theta}"
        )


def power_test_profile(op: OperatorMatrix, theta: float, r_max_check: float | None = None):
    """Per-node oracle errors of the operator on the power field r^-theta.

    Returns (radii, relative errors, absolute errors) over the checked nodes
    r in [oracle_r_min, r_max_check].  The expected response is the
    Gamma-ratio multiplier plus the analytic exterior tail of the power.
    """
    N, s = op.grid.N, op.s
    check_power_exponent(theta, N, s)
    grid = op.grid
    r_max = 0.1 * grid.R if r_max_check is None else float(r_max_check)
    kern = _Kernel(N, s)
    u = grid.r ** (-theta)
    got = op.matrix @ u
    gam = _gamma_multiplier_extended((N - 2.0 * s) / 2.0 - theta, N, s)
    mask = (grid.r <= min(r_max, 0.999 * grid.R)) & (grid.r >= op.oracle_r_min)
    rows = np.where(mask)[0]
    if len(rows) == 0:
        raise DomainError("no nodes inside the oracle check window")
    rr = grid.r[rows]
    expected = gam * rr ** (-theta - 2.0 * s) \
        + _tail_integral(kern, rr, [theta], grid.R, _FAR_FACTOR * grid.R)[:, 0]
    abs_err = np.abs(got[rows] - expected)
    rel_err = abs_err / np.abs(expected)
    return grid.r[rows], rel_err, abs_err


def oracle_power_test(op: OperatorMatrix, theta: float, r_max_check: float | None = None) -> float:
    """Maximum relative oracle error on r^-theta over the checked window."""
    _, rel, _ = power_test_profile(op, theta, r_max_check)
    return float(rel.max())


def rayleigh_quotient(op: OperatorMatrix, u: np.ndarray) -> float:
    """<Lu, u> / int u^2 |x|^-2s over the ball, with grid quadrature, for the
    nodal values ``u`` on ``op.grid``.

    Both quadratures skip the origin-closure node (index 0), whose
    collocation row is a structural closure rather than an accurate response
    (see the module docstring); its shell carries negligible measure for any
    resolved field.  Values of another length than the grid's raise
    GridMismatchError; a non-finite or all-zero field raises DomainError.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (op.grid.M,):
        raise GridMismatchError(f"field has {u.shape} values for a grid of M={op.grid.M}")
    if not np.all(np.isfinite(u)):
        raise DomainError("field values must be finite")
    if np.max(np.abs(u)) == 0.0:
        raise DomainError("Rayleigh quotient of the zero field")
    grid = op.grid
    w = grid.weights[1:]
    num = float(np.dot(w, (op.matrix @ u)[1:] * u[1:]))
    den = float(np.dot(w, u[1:] * u[1:] * grid.r[1:] ** (-2.0 * op.s)))
    return num / den


def gradient_values(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """|du/dr| at the nodes by nonuniform centered differences.

    One-sided at the first node; the boundary node differences against the
    exterior zero one spacing beyond R.  Evaluates the same expressions, in
    the same order, as the plain formula
    (-hp/(hm(hm+hp)) u[i-1] + (hp-hm)/(hm hp) u[i] + hm/(hp(hm+hp)) u[i+1]),
    with the grid's coefficients computed once, so the result is bitwise equal.
    """
    h_first, c_minus, c_mid, c_plus, two_h_last = grid._gradient_stencil
    out = np.empty(grid.M)
    out[0] = (u[1] - u[0]) / h_first
    inner = out[1:-1]
    np.multiply(c_minus, u[:-2], out=inner)
    term = c_mid * u[1:-1]
    inner += term
    np.multiply(c_plus, u[2:], out=term)
    inner += term
    # ghost value 0 at R + h_last
    out[-1] = (0.0 - u[-2]) / two_h_last
    return np.abs(out, out=out)


# --------------------------------------------------------------------------
# serialization (documented CSV dump)
# --------------------------------------------------------------------------

def save_field(grid: RadialGrid, u: np.ndarray, path: str) -> None:
    """CSV dump of the nodal values ``u`` on ``grid``: one header line with
    grid metadata, then r,value rows."""
    util.write_csv(path, f"# radial field N={grid.N},R={fmt17(grid.R)},M={grid.M},"
                         f"g={fmt17(grid.g)}\nr,value\n", zip(grid.r, u))
