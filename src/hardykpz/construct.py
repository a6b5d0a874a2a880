"""Closed-form radial solutions and supersolutions.

All constructions here are power profiles w = A |x|^-theta whose response
under the fractional Laplacian is available through the Gamma-ratio
multiplier, so admissibility and margins reduce to scalar inequalities on
the ball of radius R; no discrete operator enters.

Both supersolutions walk one ladder of exponents above mu(lambda) with one
margin, which counts the gradient term and the source mu C |x|^-e; they
differ in the damping exponent (0 for the Dirichlet problem), the window's
top and the amplitude rule.  Margins are coefficients of r^-(theta+2s): the
inequality, multiplied through by r^(theta+2s), is scalar, and its worst
case over the ball sits at r = R because every correction term carries a
nonnegative power of r.
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


def exact_radial_solution(params: ProblemParams) -> SupersolutionSpec:
    """Whole-space homogeneous solution w = A |x|^-theta0 of the gradient problem.

    theta0 = (2s-p)/(p-1); the amplitude solves
    gamma_beta - lambda = A^(p-1) theta0^p with beta = (N-2s)/2 - theta0,
    positive exactly when p lies strictly between the critical exponents.
    """
    N, s, lam, p = params.N, params.s, params.lam, params.p
    if lam <= 0.0:
        raise DomainError("the exact radial solution needs lambda > 0")
    rep = specfun.exponents_for(N, s, lam)
    theta0 = (2.0 * s - p) / (p - 1.0)
    if not (rep.mu_exp < theta0 < rep.mubar_exp):
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
        window=(rep.mu_exp, theta0),
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


def _ladder_supersolution(kind: str, params: ProblemParams, alpha: float,
                          window: tuple[float, float], f_bound_exponent: float,
                          f_bound_coef: float, R: float, amplitude) -> SupersolutionSpec:
    """The power profile at the first ladder exponent theta of ``window``
    whose margin on the ball of radius R,
        A (gamma - lambda) - A^(p-alpha) theta^p R^grad_pow - mu C R^(theta+2s-e)
    with grad_pow = theta + 2s - ((theta+1) p - theta alpha), is positive for
    sources f <= C |x|^-e.  Exponents with e > 2s + theta are skipped.
    ``amplitude(margin, gap, theta, grad_pow)`` picks A, given the margin as
    a function of A and gap = gamma - lambda.
    """
    N, s, lam, p = params.N, params.s, params.lam, params.p
    e, cf = float(f_bound_exponent), float(f_bound_coef)
    if cf < 0.0:
        raise DomainError("source bound coefficient must be nonnegative")
    for theta in _theta_ladder(*window):
        if e > 2.0 * s + theta:
            continue  # source too singular for this theta; move up the ladder
        gap = gamma_multiplier((N - 2.0 * s) / 2.0 - theta, N, s) - lam
        grad_pow = theta + 2.0 * s - ((theta + 1.0) * p - theta * alpha)
        src_pow = theta + 2.0 * s - e

        def margin(amp: float) -> float:
            return (amp * gap - amp ** (p - alpha) * theta**p * R**grad_pow
                    - params.mu * cf * R**src_pow)

        amp = amplitude(margin, gap, theta, grad_pow)
        if (c := margin(amp)) > 0.0:
            return SupersolutionSpec(kind=kind, theta=theta, amplitude=amp,
                                     window=window, margin=c,
                                     N=N, s=s, lam=lam, p=p, f_bound_exponent=e)
    raise ConstructionError(
        f"no ladder exponent in {window} gives a positive supersolution margin "
        f"for the source {cf} r^-{e} at mu={params.mu} (mu too large, the source "
        "too singular, or the window narrower than the least exponent step 1e-4)"
    )


def dirichlet_supersolution(params: ProblemParams, f_bound_exponent: float,
                            f_bound_coef: float = 1.0,
                            R: float = 1.0) -> SupersolutionSpec:
    """Radial supersolution of the Dirichlet problem on the ball of radius R
    for sources f <= C |x|^-e.

    Walks theta up from just above mu(lambda) below min(mubar, (2s-p)/(p-1))
    and takes the amplitude at the balance point, the maximiser of the margin
    (strictly concave in A) of
        A (gamma - lambda) >= A^p theta^p R^(theta+2s-(theta+1)p)
                              + mu C R^(theta+2s-e).
    Fails with DomainError when the window is empty (p >= p_plus) and with
    ConstructionError when no (theta, amplitude) yields a positive margin
    (mu too large for this construction).
    """
    s, lam, p = params.s, params.lam, params.p
    if lam <= 0.0:
        raise DomainError("the supersolution construction needs lambda > 0")
    rep = specfun.exponents_for(params.N, s, lam)
    top = min(rep.mubar_exp, (2.0 * s - p) / (p - 1.0))
    if top <= rep.mu_exp:
        raise DomainError(
            f"empty supersolution window: p={p} is not below p_plus={rep.p_plus}"
        )
    return _ladder_supersolution(
        "dirichlet-supersolution", params, 0.0, (rep.mu_exp, top),
        f_bound_exponent, f_bound_coef, R,
        lambda margin, gap, theta, grad_pow:
            (gap / (p * theta**p * R**grad_pow)) ** (1.0 / (p - 1.0)))


def damped_supersolution(params: ProblemParams, alpha_damp: float,
                         f_bound_exponent: float, f_bound_coef: float = 1.0,
                         R: float = 1.0) -> SupersolutionSpec:
    """Supersolution on the ball of radius R for the problem ``params`` with
    its gradient term damped by (1+u)^-alpha, for sources f <= C |x|^-e.

    Walks theta up from just above mu(lambda) below mubar.  Requires
    alpha_damp > 2s - 1 strictly and p < 2s, which make the gradient power
    positive and p - alpha < 1: the margin is then convex or increasing in A
    and unbounded above, and the amplitude is the better end of [2^-8, 2^8]
    (in practice 2^8).
    """
    s, p = params.s, params.p
    if not (p < 2.0 * s):
        raise DomainError(f"damped construction needs p < 2s, got p={p}, s={s}")
    if not (alpha_damp > 2.0 * s - 1.0):
        raise DomainError(
            f"damping exponent must exceed 2s-1 = {2 * s - 1}, got {alpha_damp}"
        )
    rep = specfun.exponents_for(params.N, s, params.lam)
    return _ladder_supersolution(
        "damped-supersolution", params, alpha_damp, (rep.mu_exp, rep.mubar_exp),
        f_bound_exponent, f_bound_coef, R,
        lambda margin, *_: max((2.0**-8, 2.0**8), key=margin))
