"""Gamma-function core and the closed-form constants and critical exponents.

Everything here is exact arithmetic on Gamma-function ratios, evaluated in
log space with a Lanczos approximation.  No discretization enters: these
values serve as the analytic reference for the radial operator and the
solver modules.

Conventions
-----------
* ``hardy_constant(N, s)`` is the sharp constant of the fractional Hardy
  inequality, the supremum of admissible zero-order coefficients.
* ``gamma_multiplier(beta, N, s)`` is the even, strictly decreasing (on
  beta >= 0) Gamma-ratio map lambda(beta): ``u = |x|**(-(N-2s)/2 + beta)``
  satisfies ``(-Lap)^s u = gamma_multiplier(beta) * |x|**(-2s) * u`` away
  from 0, so its value is the Hardy coefficient for which u solves the pure
  Hardy equation.
* ``exponents_for(N, s, lam)`` packages the derived exponents p-, p+, p*
  for a parameter point, on which the existence/non-existence dichotomy
  turns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "ProblemParams",
    "ExponentReport",
    "log_gamma",
    "hardy_constant",
    "gamma_multiplier",
    "alpha_of_lambda",
    "exponents_for",
    "normalizing_constant",
    "sphere_area",
]

# Lanczos coefficients, g = 7, n = 9 (Godfrey's set).  Relative accuracy of
# the reconstructed Gamma is ~1e-14 over the range used here; verified
# against an arbitrary-precision oracle in the test suite.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Lanczos approximation with reflection below 1/2, evaluated fully in log
    space so that Gamma ratios with large or nearly-polar arguments never
    overflow.  Absolute error of the log (= relative error of Gamma) is
    below 1e-12 on [1e-3, 50].
    """
    x = float(x)
    if not x > 0.0 or math.isinf(x) or math.isnan(x):
        raise DomainError(f"log_gamma requires x > 0, got x={x!r}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x); both factors positive here.
        return _LN_PI - math.log(math.sin(math.pi * x)) - log_gamma(1.0 - x)
    y = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (y + i)
    t = y + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (y + 0.5) * math.log(t) - t + math.log(acc)


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in dimension N."""
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got N={N}")
    return 2.0 * math.pi ** (N / 2.0) / math.exp(log_gamma(N / 2.0))


def _check_order(N: float, s: float) -> None:
    if not (0.0 < s < 1.0):
        raise DomainError(f"fractional order must satisfy 0 < s < 1, got s={s}")
    if not (N > 2.0 * s):
        raise DomainError(f"dimension must satisfy N > 2s, got N={N}, s={s}")


def hardy_constant(N: int, s: float) -> float:
    """Sharp Hardy constant 2^{2s} Gamma^2((N+2s)/4) / Gamma^2((N-2s)/4)."""
    _check_order(N, s)
    return math.exp(
        2.0 * s * _LN_2
        + 2.0 * log_gamma((N + 2.0 * s) / 4.0)
        - 2.0 * log_gamma((N - 2.0 * s) / 4.0)
    )


def _gamma_ratio(a: float, N: float, s: float) -> float:
    """Even Gamma ratio behind gamma_multiplier and alpha_of_lambda.

    Evaluated at |a| so the +a and -a calls are bit-for-bit identical.
    """
    a = abs(float(a))
    half_gap = (N - 2.0 * s) / 2.0
    if a >= half_gap:
        raise DomainError(
            f"exponent offset must satisfy |value| < (N-2s)/2 = {half_gap}, got {a}"
        )
    return math.exp(
        2.0 * s * _LN_2
        + log_gamma((N + 2.0 * s + 2.0 * a) / 4.0)
        + log_gamma((N + 2.0 * s - 2.0 * a) / 4.0)
        - log_gamma((N - 2.0 * s + 2.0 * a) / 4.0)
        - log_gamma((N - 2.0 * s - 2.0 * a) / 4.0)
    )


def gamma_multiplier(beta: float, N: int, s: float) -> float:
    """Multiplier gamma_beta: (-Lap)^s |x|^{-(N-2s)/2+beta} = gamma_beta |x|^{-2s} u.

    gamma_beta is the Hardy coefficient for which |x|^{-(N-2s)/2 +- beta} is a
    radial solution.  Even in beta by construction; strictly decreasing on
    [0, (N-2s)/2) from hardy_constant(N, s) at 0 to the limit 0 at (N-2s)/2.
    """
    _check_order(N, s)
    return _gamma_ratio(beta, N, s)


def alpha_of_lambda(lam: float, N: int, s: float) -> float:
    """Invert gamma_multiplier on [0, (N-2s)/2) by bisection.

    Accepts lam = hardy_constant (returns exactly 0.0) although problem
    parameters keep lambda strictly below it; the boundary value is needed
    for diagnostics.  Residual satisfies |lambda(alpha) - lam| <= 1e-12 lam.
    """
    _check_order(N, s)
    lam = float(lam)
    lam_max = hardy_constant(N, s)
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if lam > lam_max * (1.0 + 1e-14):
        raise DomainError(
            f"lambda={lam} exceeds the Hardy constant {lam_max} for N={N}, s={s}"
        )
    if lam >= lam_max:
        return 0.0
    half_gap = (N - 2.0 * s) / 2.0
    lo, hi = 0.0, half_gap - 1e-14
    # the ratio is decreasing: value(lo) = Lambda > lam > value(hi) ~ 0.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gamma_ratio(mid, N, s) > lam:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * half_gap:
            break
    alpha = 0.5 * (lo + hi)
    residual = abs(_gamma_ratio(alpha, N, s) - lam)
    # the absolute floor covers tiny lam near the edge of the interval, where
    # one ulp of alpha already moves the ratio by ~1e-16 * Lambda
    if residual > 1e-12 * lam + 4e-15 * lam_max:
        raise AssertionError(
            f"bisection residual {residual:.3e} exceeds tolerance for lam={lam}"
        )
    return alpha


def normalizing_constant(N: int, s: float) -> float:
    """Normalizing constant of the integral operator.

    a_{N,s} = 2^{2s-1} pi^{-N/2} Gamma((N+2s)/2) / |Gamma(-s)| with
    |Gamma(-s)| evaluated by reflection: pi / (sin(pi s) Gamma(1+s)).
    """
    if not (0.0 < s < 1.0):
        raise DomainError(f"fractional order must satisfy 0 < s < 1, got s={s}")
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got N={N}")
    log_abs_gamma_minus_s = _LN_PI - math.log(math.sin(math.pi * s)) - log_gamma(1.0 + s)
    return math.exp(
        (2.0 * s - 1.0) * _LN_2
        - 0.5 * N * _LN_PI
        + log_gamma((N + 2.0 * s) / 2.0)
        - log_abs_gamma_minus_s
    )


@dataclass(frozen=True)
class ProblemParams:
    """Parameter tuple (N, s, lambda, p, mu) of the gradient problem.

    lam = 0 is tolerated (the plain problem without the Hardy term) so the
    degeneration regression of the solver can run; everything else follows
    the analytic domain: N > 2s, 1/2 < s < 1, 0 <= lam < Lambda_{N,s},
    p > 1, mu >= 0.
    """

    N: int
    s: float
    lam: float
    p: float
    mu: float = 0.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.N}")
        if not (0.5 < self.s < 1.0):
            raise DomainError(f"s must lie in (1/2, 1), got {self.s}")
        if not (self.N > 2.0 * self.s):
            raise DomainError(f"need N > 2s, got N={self.N}, s={self.s}")
        if not self.lam >= 0.0:
            raise DomainError(f"lambda must be >= 0, got {self.lam}")
        if self.lam > 0.0 and self.lam >= hardy_constant(self.N, self.s):
            raise DomainError(
                f"lambda={self.lam} must stay below the Hardy constant "
                f"{hardy_constant(self.N, self.s)}"
            )
        if not (self.p > 1.0):
            raise DomainError(f"gradient exponent must satisfy p > 1, got {self.p}")
        if not self.mu >= 0.0:
            raise DomainError(f"source scale must satisfy mu >= 0, got {self.mu}")


@dataclass(frozen=True)
class ExponentReport:
    """Derived constants and critical exponents for one parameter point."""

    N: int
    s: float
    lam: float
    hardy: float          # sharp Hardy constant
    norm_constant: float  # a_{N,s}
    alpha: float          # root of the Gamma-ratio equation
    mu_exp: float         # weaker singularity exponent (N-2s)/2 - alpha
    mubar_exp: float      # stronger singularity exponent (N-2s)/2 + alpha
    p_minus: float
    p_plus: float
    p_star: float         # N / (N - 2s + 1)

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "s": self.s,
            "lambda": self.lam,
            "hardy_constant": self.hardy,
            "norm_constant": self.norm_constant,
            "alpha": self.alpha,
            "mu": self.mu_exp,
            "mu_bar": self.mubar_exp,
            "p_minus": self.p_minus,
            "p_plus": self.p_plus,
            "p_star": self.p_star,
        }


@functools.lru_cache(maxsize=256)
def exponents_for(N: int, s: float, lam: float) -> ExponentReport:
    """Full exponent report for (N, s, lambda); lam may equal the Hardy constant.

    Memoized per (N, s, lambda): a sweep asks for the same point once per
    cell, and the report is frozen, so every caller can share it.  A call
    that raises is not remembered.  The memo is bounded because an exponent
    table asks for one new lambda per row.
    """
    _check_order(N, s)
    alpha = alpha_of_lambda(lam, N, s)
    half_gap = (N - 2.0 * s) / 2.0
    mu_exp = half_gap - alpha
    mubar_exp = half_gap + alpha
    p_plus = (N + 2.0 * s - 2.0 * alpha) / (N - 2.0 * s - 2.0 * alpha + 2.0)
    p_minus = (N + 2.0 * s + 2.0 * alpha) / (N - 2.0 * s + 2.0 * alpha + 2.0)
    return ExponentReport(
        N=int(N),
        s=float(s),
        lam=float(lam),
        hardy=hardy_constant(N, s),
        norm_constant=normalizing_constant(N, s),
        alpha=alpha,
        mu_exp=mu_exp,
        mubar_exp=mubar_exp,
        p_minus=p_minus,
        p_plus=p_plus,
        p_star=N / (N - 2.0 * s + 1.0),
    )
