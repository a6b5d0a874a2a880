"""Closed-form constants and critical exponents from Gamma-function ratios.

Everything here is exact arithmetic on Gamma-function ratios, evaluated in
log space with ``math.lgamma``.  No discretization enters: these values
serve as the analytic reference for the radial operator and the solver
modules.

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

import math
from dataclasses import dataclass

from .errors import DomainError, SolveError

__all__ = [
    "ProblemParams",
    "ExponentReport",
    "hardy_constant",
    "gamma_multiplier",
    "alpha_of_lambda",
    "exponents_for",
    "normalizing_constant",
    "sphere_area",
]

_LN_2 = math.log(2.0)


def sphere_area(N: int) -> float:
    """Surface measure 2 pi^{N/2} / Gamma(N/2) of the unit sphere in dimension N.

    Evaluated in log space, so it is finite for every N (it tends to 0).
    """
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got N={N}")
    return math.exp(_LN_2 + 0.5 * N * math.log(math.pi) - math.lgamma(N / 2.0))


def _check_order(N: float, s: float) -> None:
    if not (0.0 < s < 1.0):
        raise DomainError(f"fractional order must satisfy 0 < s < 1, got s={s}")
    if not (N > 2.0 * s):
        raise DomainError(f"dimension must satisfy N > 2s, got N={N}, s={s}")


def _gamma_ratio(a: float, N: float, s: float) -> float:
    """Even Gamma ratio behind hardy_constant, gamma_multiplier and alpha_of_lambda.

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
        + math.lgamma((N + 2.0 * s + 2.0 * a) / 4.0)
        + math.lgamma((N + 2.0 * s - 2.0 * a) / 4.0)
        - math.lgamma((N - 2.0 * s + 2.0 * a) / 4.0)
        - math.lgamma((N - 2.0 * s - 2.0 * a) / 4.0)
    )


def hardy_constant(N: int, s: float) -> float:
    """Sharp Hardy constant 2^{2s} Gamma^2((N+2s)/4) / Gamma^2((N-2s)/4)."""
    _check_order(N, s)
    return _gamma_ratio(0.0, N, s)


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
    for diagnostics.  The bisection runs on [0, the last double below
    (N-2s)/2] until the midpoint equals one of the ends, so alpha is one of
    two adjacent doubles.  The residual |lambda(alpha) - lam| must stay
    within 1e-12 lam + 4e-15 Lambda; the absolute term covers lam below the
    ratio at the last double, where one ulp of alpha moves the ratio by about
    1e-16 Lambda for s in (1/2, 1).  Past it (s below about 0.12, where the
    ratio is steeper at the edge) SolveError is raised.
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
    # the ratio is decreasing: value(lo) = Lambda > lam, value(hi) ~ 0.
    lo, hi = 0.0, math.nextafter((N - 2.0 * s) / 2.0, 0.0)
    alpha = 0.5 * (lo + hi)
    while lo < alpha < hi:
        if _gamma_ratio(alpha, N, s) > lam:
            lo = alpha
        else:
            hi = alpha
        alpha = 0.5 * (lo + hi)
    residual = abs(_gamma_ratio(alpha, N, s) - lam)
    if residual > 1e-12 * lam + 4e-15 * lam_max:
        raise SolveError(
            f"alpha(lambda) bisection residual {residual:.3e} exceeds the "
            f"tolerance for lambda={lam}, N={N}, s={s}"
        )
    return alpha


def normalizing_constant(N: int, s: float) -> float:
    """Normalizing constant a_{N,s} = 2^{2s-1} pi^{-N/2} Gamma((N+2s)/2) / |Gamma(-s)|.

    Raises DomainError where it exceeds the double range (N above about 440).
    """
    if not (0.0 < s < 1.0):
        raise DomainError(f"fractional order must satisfy 0 < s < 1, got s={s}")
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got N={N}")
    try:
        return math.exp(
            (2.0 * s - 1.0) * _LN_2
            - 0.5 * N * math.log(math.pi)
            + math.lgamma((N + 2.0 * s) / 2.0)
            - math.lgamma(-s)
        )
    except OverflowError:
        raise DomainError(
            f"the normalizing constant a_(N,s) exceeds the double range at N={N}, s={s}"
        ) from None


@dataclass(frozen=True)
class ProblemParams:
    """Parameter tuple (N, s, lambda, p, mu, alpha_damp) of the gradient problem.

    ``alpha_damp`` is the damping exponent alpha of the variant whose
    gradient term is |grad u|^p / (1+u)^alpha; 0 is the paper's problem.
    lam = 0 is tolerated (the plain problem without the Hardy term) so the
    degeneration regression of the solver can run; everything else follows
    the analytic domain: integer N >= 2 (so N > 2s), 1/2 < s < 1,
    0 <= lam < Lambda_{N,s}, p > 1, mu >= 0, alpha >= 0.
    """

    N: int
    s: float
    lam: float
    p: float
    mu: float = 0.0
    alpha_damp: float = 0.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.N}")
        if not (0.5 < self.s < 1.0):
            raise DomainError(f"s must lie in (1/2, 1), got {self.s}")
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
        if not self.alpha_damp >= 0.0:
            raise DomainError("damping exponent must be nonnegative")


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


def exponents_for(N: int, s: float, lam: float) -> ExponentReport:
    """Full exponent report for (N, s, lambda); lam may equal the Hardy constant."""
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
