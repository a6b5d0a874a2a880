"""Closed-form radial solutions, supersolutions and the source-free bound.

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

import functools
import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from .errors import ConstructionError, DomainError
from .specfun import ProblemParams, gamma_multiplier
from . import specfun

__all__ = [
    "SupersolutionSpec",
    "exact_radial_solution",
    "dirichlet_supersolution",
    "damped_supersolution",
    "admissible_bound_sup",
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


def _window(params: ProblemParams):
    """The exponent report, theta0 = (2s-p)/(p-1) and the undamped window
    (mu, min(mubar, theta0)), which is empty exactly when p >= p_plus."""
    s, p = params.s, params.p
    rep = specfun.exponents_for(params.N, s, params.lam)
    theta0 = (2.0 * s - p) / (p - 1.0)
    return rep, theta0, (rep.mu_exp, min(rep.mubar_exp, theta0))


def _member(params: ProblemParams, alpha: float, theta: float) -> tuple[float, float]:
    """Gap gamma - lambda and gradient power of A |x|^-theta, damped by alpha."""
    N, s, p = params.N, params.s, params.p
    gap = gamma_multiplier((N - 2.0 * s) / 2.0 - theta, N, s) - params.lam
    return gap, theta + 2.0 * s - ((theta + 1.0) * p - theta * alpha)


def _balance_root(p: float, k: float, theta: float, gap: float, grad_pow: float,
                  R: float) -> float:
    """The amplitude A of an undamped member with A gap = k A^p theta^p R^grad_pow."""
    return (gap / (k * theta**p * R**grad_pow)) ** (1.0 / (p - 1.0))


def exact_radial_solution(params: ProblemParams) -> SupersolutionSpec:
    """Whole-space homogeneous solution w = A |x|^-theta0 of the gradient problem.

    theta0 = (2s-p)/(p-1); the amplitude, the balance root at k = 1, R = 1,
    solves gamma_beta - lambda = A^(p-1) theta0^p with beta = (N-2s)/2 - theta0,
    positive exactly when p lies strictly between the critical exponents.
    """
    N, s, lam, p = params.N, params.s, params.lam, params.p
    if lam <= 0.0:
        raise DomainError("the exact radial solution needs lambda > 0")
    if params.alpha_damp > 0.0:
        raise DomainError("the exact radial solution is of the undamped problem, alpha = 0")
    rep, theta0, window = _window(params)
    if not (rep.mu_exp < theta0 < rep.mubar_exp):
        half = (N - 2.0 * s) / 2.0
        gam_gap = _member(params, 0.0, theta0)[0] if abs(half - theta0) < half else None
        raise DomainError(
            f"gradient exponent p={p} lies outside the admissible window: "
            f"gamma_beta - lambda = {gam_gap}"
        )
    return SupersolutionSpec(
        kind="exact-homogeneous", theta=theta0, window=window, margin=0.0,
        amplitude=_balance_root(p, 1.0, theta0, *_member(params, 0.0, theta0), 1.0),
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
                          f_bound_coef: float, R: float, amplitude,
                          causes: str) -> SupersolutionSpec:
    """The power profile at the first ladder exponent theta of ``window``
    whose margin on the ball of radius R,
        A gap - A^(p-alpha) theta^p R^grad_pow - mu C R^(theta+2s-e),
    is positive and a finite double for sources f <= C |x|^-e.  Exponents
    with e > 2s + theta are skipped.  ``amplitude(theta, gap, grad_pow,
    source)`` picks A, given the source term mu C R^(theta+2s-e).  When no
    exponent does, ConstructionError offers ``causes``, the barrier's own
    reasons for a refusal.
    """
    N, s, lam, p = params.N, params.s, params.lam, params.p
    e, cf = float(f_bound_exponent), float(f_bound_coef)
    if cf < 0.0:
        raise DomainError("source bound coefficient must be nonnegative")
    overflow = ""
    for theta in _theta_ladder(*window):
        if e > 2.0 * s + theta:
            continue  # source too singular for this theta; move up the ladder
        gap, grad_pow = _member(params, alpha, theta)
        source = params.mu * cf * R ** (theta + 2.0 * s - e)
        try:
            amp = amplitude(theta, gap, grad_pow, source)
            c = amp * gap - amp ** (p - alpha) * theta**p * R**grad_pow - source
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):  # also when A is: A gap is then inf or nan
            overflow = f"; the amplitude leaves the double range at theta={theta}"
        elif c > 0.0:
            return SupersolutionSpec(kind=kind, theta=theta, amplitude=amp,
                                     window=window, margin=c,
                                     N=N, s=s, lam=lam, p=p, f_bound_exponent=e)
    raise ConstructionError(
        f"no ladder exponent in {window} gives a positive supersolution margin "
        f"for the source {cf} r^-{e} at mu={params.mu} ({causes})" + overflow
    )


def dirichlet_supersolution(params: ProblemParams, f_bound_exponent: float,
                            f_bound_coef: float = 1.0,
                            R: float = 1.0) -> SupersolutionSpec:
    """Radial supersolution of the Dirichlet problem on the ball of radius R
    for sources f <= C |x|^-e.

    Walks theta up the undamped window and takes the amplitude at the
    balance root with k = p, the maximiser of the margin (strictly concave
    in A) of
        A (gamma - lambda) >= A^p theta^p R^(theta+2s-(theta+1)p)
                              + mu C R^(theta+2s-e).
    Fails with DomainError when the window is empty (p >= p_plus) and with
    ConstructionError when no (theta, amplitude) yields a positive margin
    (mu too large for this construction).
    """
    p = params.p
    if params.lam <= 0.0:
        raise DomainError("the supersolution construction needs lambda > 0")
    rep, _, window = _window(params)
    if window[1] <= window[0]:
        raise DomainError(
            f"empty supersolution window: p={p} is not below p_plus={rep.p_plus}"
        )
    return _ladder_supersolution(
        "dirichlet-supersolution", params, 0.0, window, f_bound_exponent, f_bound_coef,
        R, lambda theta, gap, grad_pow, _: _balance_root(p, p, theta, gap, grad_pow, R),
        "mu too large, the source too singular, or the window narrower than the "
        "least exponent step 1e-4")


def damped_supersolution(params: ProblemParams, f_bound_exponent: float,
                         f_bound_coef: float = 1.0,
                         R: float = 1.0) -> SupersolutionSpec:
    """Supersolution on the ball of radius R for the problem ``params`` with
    its gradient term damped by (1+u)^-alpha, alpha = ``params.alpha_damp``,
    for sources f <= C |x|^-e.

    Walks theta up from just above mu(lambda) below mubar.  Requires
    alpha > 2s - 1 strictly and p < 2s, which make the gradient power
    positive and q = p - alpha < 1.  The amplitude is
        A = max((2 theta^p R^grad_pow / gap)^(1/(1-q)), 2 mu C R^(theta+2s-e) / gap),
    at which each half of A gap covers one subtracted term of the margin, so
    the first exponent that admits the source has a positive margin unless
    A leaves the double range (q near 1), which moves the walk up the ladder.
    """
    s, p, alpha = params.s, params.p, params.alpha_damp
    if not (p < 2.0 * s):
        raise DomainError(f"damped construction needs p < 2s, got p={p}, s={s}")
    if not (alpha > 2.0 * s - 1.0):
        raise DomainError(
            f"damping exponent must exceed 2s-1 = {2 * s - 1}, got {alpha}"
        )
    rep = specfun.exponents_for(params.N, s, params.lam)
    power = 1.0 / (1.0 - (p - alpha))
    return _ladder_supersolution(
        "damped-supersolution", params, alpha, (rep.mu_exp, rep.mubar_exp),
        f_bound_exponent, f_bound_coef, R,
        lambda theta, gap, grad_pow, source: max(
            (2.0 * theta**p * R**grad_pow / gap) ** power, 2.0 * source / gap),
        "the source too singular, the window narrower than the least exponent "
        "step 1e-4, or the amplitude beyond the double range")


def admissible_bound_sup(params: ProblemParams, R: float, r1: float) -> float:
    """Supremum at r1 (a grid's first node) of the source-free barrier family.

    Every member A r^-theta (theta in the undamped window, A up to the
    balance root at k = 1) bounds the source-free iterates on the ball of
    radius R; the supremum over 128 exponents is the blow-up reference of an
    undamped run without a barrier, so the scheme calls it only at alpha = 0.
    It is inf for lambda <= 0, and 0 when the window is empty (p >= p_plus)
    or narrower than about 2e-6 mu, where the scan's ends mu (1 + 1e-6) and
    top (1 - 1e-6) cross.  Memoized per (N, s, lambda, p, R, r1), mu aside,
    for the probe's bisection; a call that raises is not remembered.
    """
    return _family_bound_sup(replace(params, mu=0.0), R, r1)


@functools.lru_cache(maxsize=256)
def _family_bound_sup(params: ProblemParams, R: float, r1: float) -> float:
    if params.lam <= 0.0:
        return math.inf
    _, _, (mu, top) = _window(params)
    lo, hi = mu * (1 + 1e-6), top * (1 - 1e-6)
    if hi < lo:
        return 0.0
    best = 0.0
    for theta in np.linspace(lo, hi, 128):
        gap, grad_pow = _member(params, 0.0, theta)
        if gap > 0.0:
            amp = _balance_root(params.p, 1.0, theta, gap, grad_pow, R)
            best = max(best, amp * r1 ** (-theta))
    return best
