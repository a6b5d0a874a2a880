"""Closed-form radial solutions and supersolutions.

All constructions here are power profiles w = A |x|^-theta whose response
under the fractional Laplacian is available through the Gamma-ratio
multiplier, so admissibility and margins reduce to scalar inequalities on
the ball of radius R; no discrete operator enters.

Margins are recorded as coefficients of r^-(theta+2s): the supersolution
inequality, multiplied through by r^(theta+2s), becomes a scalar inequality
whose worst case over the ball sits at r = R because every correction term
carries a positive power of r.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConstructionError, DomainError
from .specfun import ProblemParams, gamma_multiplier
from . import specfun

__all__ = [
    "SupersolutionSpec",
    "exact_radial_solution",
    "dirichlet_supersolution",
    "damped_supersolution",
]

@dataclass(frozen=True)
class SupersolutionSpec:
    """Power-profile supersolution w = amplitude * |x|^-theta.

    ``window`` is the admissible exponent interval the construction checked
    against; ``margin`` is the verified slack of the defining inequality in
    units of the r^-(theta+2s) coefficient (0 for the exact homogeneous
    solution, which satisfies its equation with equality).
    """

    kind: str
    theta: float
    amplitude: float
    window: tuple[float, float]
    margin: float
    N: int
    s: float
    lam: float
    p: float
    f_bound_exponent: float | None = None

    def evaluate(self, r):
        return self.amplitude * np.asarray(r, dtype=float) ** (-self.theta)

    def as_dict(self) -> dict:
        """Field mapping with the window as a list, as JSON artifacts hold it."""
        return {**asdict(self), "window": list(self.window)}


def _window(params: ProblemParams) -> tuple[float, float, float]:
    """(mu, mubar, theta_line) with theta_line = (2s-p)/(p-1)."""
    rep = specfun.exponents_for(params.N, params.s, params.lam)
    theta_line = (2.0 * params.s - params.p) / (params.p - 1.0)
    return rep.mu_exp, rep.mubar_exp, theta_line


def exact_radial_solution(params: ProblemParams) -> SupersolutionSpec:
    """Whole-space homogeneous solution w = A |x|^-theta0 of the gradient problem.

    theta0 = (2s-p)/(p-1); the amplitude solves
    gamma_beta - lambda = A^(p-1) theta0^p with beta = (N-2s)/2 - theta0,
    positive exactly when p lies strictly between the critical exponents.
    """
    N, s, lam, p = params.N, params.s, params.lam, params.p
    if lam <= 0.0:
        raise DomainError("the exact radial solution needs lambda > 0")
    mu, mubar, theta0 = _window(params)
    if not (mu < theta0 < mubar):
        gam_gap = None
        half = (N - 2.0 * s) / 2.0
        if abs(half - theta0) < half:
            gam_gap = gamma_multiplier(half - theta0, N, s) - lam
        raise DomainError(
            f"gradient exponent p={p} lies outside the admissible window: "
            f"gamma_beta - lambda = {gam_gap}"
        )
    beta = (N - 2.0 * s) / 2.0 - theta0
    gam = gamma_multiplier(beta, N, s)
    amplitude = ((gam - lam) / theta0**p) ** (1.0 / (p - 1.0))
    return SupersolutionSpec(
        kind="exact-homogeneous",
        theta=theta0,
        amplitude=amplitude,
        window=(mu, theta0),
        margin=0.0,
        N=N, s=s, lam=lam, p=p,
    )


def _theta_ladder(mu: float, top: float):
    """Exponents above mu, nearest first: tenth-of-window with floor, then
    deeper into the window when the margin needs more room."""
    width = top - mu
    for frac in (0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
        eps = max(frac * width, 1e-4)
        if eps < width:
            yield mu + eps


def dirichlet_supersolution(params: ProblemParams, f_bound_exponent: float,
                            f_bound_coef: float = 1.0,
                            R: float = 1.0) -> SupersolutionSpec:
    """Radial supersolution of the Dirichlet problem on the ball of radius R
    for sources f <= C |x|^-e.

    Walks theta up from just above mu(lambda) (a tenth of the window first,
    deeper only if needed) and takes the amplitude at the balance point, the
    maximiser of the margin (strictly concave in A) of
        A (gamma - lambda) >= A^p theta^p R^(theta+2s-(theta+1)p)
                              + mu C R^(theta+2s-e).
    Fails with DomainError when the window is empty (p >= p_plus) and with
    ConstructionError when no (theta, amplitude) yields a positive margin
    (mu too large for this construction).
    """
    N, s, lam, p, mu_src = params.N, params.s, params.lam, params.p, params.mu
    if lam <= 0.0:
        raise DomainError("the supersolution construction needs lambda > 0")
    mu, mubar, theta_line = _window(params)
    top = min(mubar, theta_line)
    if top <= mu:
        raise DomainError(
            f"empty supersolution window: p={p} is not below "
            f"p_plus={specfun.exponents_for(N, s, lam).p_plus}"
        )
    e = float(f_bound_exponent)
    cf = float(f_bound_coef)
    if cf < 0.0:
        raise DomainError("source bound coefficient must be nonnegative")
    for theta in _theta_ladder(mu, top):
        if e > 2.0 * s + theta:
            continue  # source too singular for this theta; move up the ladder
        gam = gamma_multiplier((N - 2.0 * s) / 2.0 - theta, N, s)
        grad_pow = theta + 2.0 * s - (theta + 1.0) * p
        src_pow = theta + 2.0 * s - e
        amp = ((gam - lam) / (p * theta**p * R**grad_pow)) ** (1.0 / (p - 1.0))
        margin = (amp * (gam - lam)
                  - amp**p * theta**p * R**grad_pow
                  - mu_src * cf * R**src_pow)
        if margin > 0.0:
            return SupersolutionSpec(
                kind="dirichlet-supersolution",
                theta=theta,
                amplitude=amp,
                window=(mu, top),
                margin=margin,
                N=N, s=s, lam=lam, p=p,
                f_bound_exponent=e,
            )
    raise ConstructionError(
        "no (theta, amplitude) gives a positive supersolution margin "
        f"(mu={mu_src} too large for this construction)"
    )


def damped_supersolution(params: ProblemParams, alpha_damp: float,
                         R: float = 1.0) -> SupersolutionSpec:
    """Supersolution on the ball of radius R for the gradient term of the
    problem ``params`` damped by (1+u)^-alpha (``params.mu`` is not used).

    Requires alpha_damp > 2s - 1 strictly and p < 2s.  Returns the profile
    exponent beta close to mu(lambda), the amplitude, and the margin
        c(A) = A (gamma - lambda) - A^(p-alpha) beta^p R^grad_pow
    for sources f <= |x|^-(beta+2s) (the bound the construction uses).  The
    guards force p - alpha < 1, so c is convex or increasing in A and
    unbounded above: the amplitude is capped to [2^-8, 2^8], c is maximised
    at an end of that range (in practice 2^8), and the margin is set by that
    cap, so it is no source-scale threshold.
    """
    N, s, lam, p = params.N, params.s, params.lam, params.p
    if not (p < 2.0 * s):
        raise DomainError(f"damped construction needs p < 2s, got p={p}, s={s}")
    if not (alpha_damp > 2.0 * s - 1.0):
        raise DomainError(
            f"damping exponent must exceed 2s-1 = {2 * s - 1}, got {alpha_damp}"
        )
    rep = specfun.exponents_for(N, s, lam)
    mu, mubar = rep.mu_exp, rep.mubar_exp
    beta = next(_theta_ladder(mu, mubar), None)
    if beta is None:
        raise ConstructionError(
            f"empty damped window: mubar - mu = {mubar - mu} is too narrow for "
            "the least exponent step (lambda too close to Lambda)"
        )
    gam = gamma_multiplier((N - 2.0 * s) / 2.0 - beta, N, s)
    # positive for every beta > 0, since p < 2s and alpha > 2s - 1 > p - 1
    grad_pow = beta + 2.0 * s - ((beta + 1.0) * p - beta * alpha_damp)
    a_exp = p - alpha_damp

    def c_of(amp: float) -> float:
        return amp * (gam - lam) - amp**a_exp * beta**p * R**grad_pow

    lo_amp, hi_amp = 2.0**-8, 2.0**8
    c_lo, c_hi = c_of(lo_amp), c_of(hi_amp)
    best_amp, best_c = (hi_amp, c_hi) if c_hi > c_lo else (lo_amp, c_lo)
    if best_c <= 0.0:
        raise ConstructionError("no amplitude gives a positive damped margin")
    return SupersolutionSpec(
        kind="damped-supersolution",
        theta=beta,
        amplitude=best_amp,
        window=(mu, mubar),
        margin=best_c,
        N=N, s=s, lam=lam, p=p,
        f_bound_exponent=beta + 2.0 * s,
    )
