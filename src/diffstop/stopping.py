"""Optimal stopping of sticky Brownian motion with reward (1+x)^+.

For driftless Brownian motion made sticky at 0 (stickiness c > 0) and
discount rate alpha > 0, the stopping problem

    V(x) = sup over stopping times of E_x[ e^{-alpha tau} (1 + X_tau)^+ ]

has a one-sided solution: stop at the first visit to [x*, oo).  The
threshold x* is the unique root (if any) on (-1, oo) \\ {0} of

    t(x) = g(x) psi'(x) - g'(x) psi(x),

an increasing function that jumps at the sticky point; when t has no root
the threshold sits exactly at the sticky point, x* = 0.  The companion
function s(x) = phi(x) g'(x) - phi'(x) g(x) is decreasing; together they are
the unnormalized tails of the value function's Martin representing measure.

With k = sqrt(2 alpha), the regime thresholds

    alpha1 = (sqrt(1 + 4c) - 1)^2 / (8 c^2),     alpha2 = 1/2

split the parameter range: x* > 0 for alpha < alpha1, x* = 0 for
alpha in [alpha1, alpha2], and x* in (-1, 0) for alpha > alpha2 with the
closed form x* = 1/k - 1.  When x* = 0 the value function fits the reward
with derivative jump k - 1 (zero only at alpha = 1/2), decomposed as

    jump = sigma({0}) - m({0}) alpha V(0),    sigma({0}) = k - 1 + 2 alpha c,

the two competing contributions coming from the representing-measure atom
and the speed atom.  Smooth fit holds automatically whenever x* != 0.

The zero-discount problem is solved separately for strictly negative drift;
its solution does not feel the stickiness at all, because zero-discount
excessive functions are built from the scale function alone and making a
point sticky does not change the scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .diffusion import (DiffusionSpec, FundamentalSolutions, _below, _check_side, _formula,
                        _scalar_aware, fundamental, make_sticky_bm)
from .errors import ConvergenceError, DomainError, ParameterError

if TYPE_CHECKING:
    from .representation import ExcessiveCandidate

_JUMP_TOL = 1e-9      # |jump| below this counts as smooth fit
_BRANCH_TOL = 1e-12   # one-sided t-limits within this of 0 count as 0
_SMOOTH_FIT_RTOL = 1e-6   # relative gap of one-sided F-derivatives that agree


@dataclass(frozen=True)
class Reward:
    """Nonnegative continuous reward with one-sided x-derivatives."""

    value: Callable
    dx_left: Callable
    dx_right: Callable


def _payoff(x):
    """The reward (1 + x)^+ on a float64 array."""
    return np.maximum(1.0 + x, 0.0)


def default_reward() -> Reward:
    def dx(side):
        return _scalar_aware(lambda x: np.where(_below(x, -1.0, side), 0.0, 1.0))

    return Reward(_scalar_aware(_payoff), dx("left"), dx("right"))


def _check_stickiness(c: float):
    if not 0.0 < c < math.inf:
        raise ParameterError(f"stickiness must be positive, got {c}")


def _check_rates(alpha: float, c: float):
    if not (0.0 < alpha < math.inf and 0.0 < c < math.inf):
        raise ParameterError("alpha and c must be positive")


def alpha_thresholds(c: float) -> tuple[float, float]:
    """(alpha1, alpha2): the discount range with threshold at the sticky point.

    alpha1 solves t(0+) = 0, i.e. c k^2 + k - 1 = 0 with k = sqrt(2 alpha):
    alpha1 = (sqrt(1 + 4c) - 1)^2 / (8 c^2).  At c = 1 this is (3 - sqrt 5)/4.
    """
    _check_stickiness(c)
    k1 = (math.sqrt(1.0 + 4.0 * c) - 1.0) / (2.0 * c)
    return 0.5 * k1 * k1, 0.5


def _st_branches(alpha: float, c: float):
    """((s, t) on -1 < x < 0, (s, t) on x > 0): s carries the two-term phi
    on the middle branch and t the two-term psi on the upper one."""
    k = math.sqrt(2.0 * alpha)

    def s_up(x):
        return np.exp(-k * x) * ((1.0 + x) * k + 1.0)

    def t_mid(x):
        return np.exp(k * x) * ((1.0 + x) * k - 1.0)

    def sticky(x):
        # the second term of the two-term solution; the sinh carries a minus
        # sign (the limits s(-1+) = e^k + c k sinh k and s(0-) = k + 1 +
        # 2 alpha c pin it down)
        return c * k * ((1.0 + x) * k * np.cosh(k * x) - np.sinh(k * x))

    return (lambda x: s_up(x) + sticky(x), t_mid), (s_up, lambda x: t_mid(x) + sticky(x))


def st_functions(alpha: float, c: float, x, side: str | None = None) -> tuple:
    """(s(x), t(x)) of the driftless sticky problem: floats for a scalar x, arrays for an array.

    Both functions are discontinuous at the sticky point and at the reward
    kink, so evaluation exactly at 0 or -1 requires ``side`` ("left" or
    "right") selecting the one-sided limit (:func:`_below`).  Each branch is
    evaluated on its own points only, so no branch overflows off its side;
    a NaN x gives NaN.
    """
    x = np.asarray(x, dtype=float)
    if side is not None:
        _check_side(side)
    elif (at := x[np.isin(x, (0.0, -1.0))]).size:
        raise DomainError(f"s and t are discontinuous at {at[0]}; pass side='left' or 'right'")
    _check_rates(alpha, c)
    s, t = np.zeros_like(x), np.zeros_like(x)     # below -1, where g = 0
    below = _below(x, -1.0, side)
    middle = ~below & _below(x, 0.0, side)
    for on, (s_on, t_on) in zip((middle, ~(below | middle)), _st_branches(alpha, c)):
        s[on], t[on] = s_on(x[on]), t_on(x[on])
    return (s, t) if x.ndim else (float(s), float(t))


def st_table(alpha: float, c: float, xs) -> tuple:
    """(s, t) with the right-limit convention at 0 and -1: ``st_functions``
    with ``side="right"``, so floats for a scalar xs and arrays for an array."""
    return st_functions(alpha, c, xs, side="right")


def solve_threshold(alpha: float, c: float) -> float:
    """Optimal threshold x*: root of t on (-1, oo) off the sticky point, else 0.

    t is increasing with a positive jump at 0, so the branch is decided by
    its one-sided limits there: a still-negative right limit forces a root
    above 0 (found by bisection, safe because t is monotone); a positive
    left limit puts the root on (-1, 0) where the closed form 1/k - 1
    applies; otherwise t has no root and the threshold is the sticky point.
    """
    _check_rates(alpha, c)
    k = math.sqrt(2.0 * alpha)
    t_left_limit = k - 1.0
    t_right_limit = k - 1.0 + 2.0 * alpha * c
    if t_right_limit < -_BRANCH_TOL:
        _, (_, t_up) = _st_branches(alpha, c)
        lo, hi = 0.0, 1.0
        while t_up(hi) <= 0.0:       # t -> +inf, so a bracket always appears
            hi *= 2.0
            if hi > 1e9:
                raise ConvergenceError("failed to bracket the threshold")
        while hi - lo > 4.0 * np.finfo(float).eps * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if t_up(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        if abs(t_up(root)) > 1e-13:
            raise ConvergenceError("bisection stalled away from the root",
                                   best=root, achieved=abs(t_up(root)))
        return root
    if t_left_limit > _BRANCH_TOL:
        return 1.0 / k - 1.0
    return 0.0


@functools.lru_cache(maxsize=64)
def _value_setup(alpha: float, c: float) -> tuple[float, FundamentalSolutions, Callable,
                                                  Callable]:
    """(x*, the fundamental solutions, the value, its scale derivative
    ``ds(x, side)``) of the stopping problem: g(x*) psi(x) / psi(x*) below
    x*, g above.  Below x* <= 0,
    where psi(x) is not a normal float, psi(x) / psi(x*) is taken as
    exp((theta - mu)(x - x*)), with no division; once psi(x*) is not normal
    either, that is everywhere below x*.  x is clipped to min(x, x*), so
    that the unused branch cannot overflow."""
    xs = solve_threshold(alpha, c)
    fs = fundamental(make_sticky_bm(0.0, c), alpha)
    psi_xs, up = float(fs.psi(xs)), fs.theta - fs.spec.mu
    # psi(x) = exp(up x) on x <= 0 is not a normal float below x = deep
    deep = math.log(np.finfo(float).tiny) / up if xs <= 0.0 else -math.inf
    coef = (1.0 + xs) / psi_xs if xs >= deep else 0.0

    psi, psi_ds = _formula(fs.psi), _formula(fs.psi_ds)

    def below(x, side=None):
        x = np.minimum(x, xs)
        out = coef * (psi(x) if side is None else psi_ds(x, side))
        far = x < deep
        if far.any():
            ratio = np.exp(up * (x - xs))
            out = np.where(far, (1.0 + xs) * (ratio if side is None else up * ratio), out)
        return out

    @_scalar_aware
    def value(x):
        return np.where(x <= xs, below(x), _payoff(x))

    def ds(x, side):
        return np.where(_below(x, xs, side), below(x, side), 1.0)

    return xs, fs, value, ds


def value_function(alpha: float, c: float, x) -> float | np.ndarray:
    """Stopping value: g(x*) psi(x) / psi(x*) below the threshold, g above."""
    return _value_setup(alpha, c)[2](x)


def value_candidate(alpha: float, c: float, x0: float | None = None) -> ExcessiveCandidate:
    """The stopping value as an excessive candidate with analytic derivatives.

    The default normalization point sits strictly above both the threshold
    and the sticky point, max(0, x*) + 1.
    """
    from .representation import _candidate

    xs, fs, value, ds = _value_setup(alpha, c)
    if x0 is None:
        x0 = max(xs, *fs.spec.atom_locations) + 1.0
    return _candidate(fs.spec, value, ds, float(x0), (xs,), f"value(alpha={alpha}, c={c})")


@dataclass(frozen=True)
class SmoothFitReport:
    """One-sided derivatives of the stopping value at the threshold.

    ``jump = left_deriv - right_deriv`` decomposes exactly as
    ``sigma_atom - speed_term``.  The x-derivatives are also the scale
    derivatives, because the driftless process is in natural scale.
    Verdict is "SmoothFit" iff the jump vanishes (within 1e-9).
    """

    alpha: float
    c: float
    x_star: float
    left_deriv: float
    right_deriv: float
    jump: float
    sigma_atom: float
    speed_term: float
    alpha1: float
    alpha2: float
    verdict: str

    def to_doc(self) -> dict:
        """Every field but the two one-sided derivatives, in field order."""
        doc = dict(vars(self))
        del doc["left_deriv"], doc["right_deriv"]
        return doc


def smooth_fit_report(alpha: float, c: float) -> SmoothFitReport:
    """Classify smooth fit at the optimal threshold.

    The one-sided derivatives are evaluated analytically from the two
    branches of the value function; the speed-atom term is nonzero only
    when the threshold is the sticky point itself.
    """
    xs, fs, _, _ = _value_setup(alpha, c)
    v_at = (1.0 + xs)
    # psi'(x*-)/psi(x*) branch by branch: psi = exp((theta - mu) x) on x <= 0
    # underflows at large alpha, and psi >= 1 on x > 0
    if xs <= 0.0:
        left = v_at * (fs.theta - fs.spec.mu)
    else:
        left = v_at * float(fs.psi_dx_left(xs)) / float(fs.psi(xs))
    right = 1.0                               # reward side, g'(x) = 1 above -1
    jump = left - right
    speed_term = fs.spec.speed_atom_at(xs) * alpha * v_at
    sigma_atom = jump + speed_term
    a1, a2 = alpha_thresholds(c)
    return SmoothFitReport(
        alpha=alpha, c=c, x_star=xs,
        left_deriv=left, right_deriv=right,
        jump=jump, sigma_atom=sigma_atom, speed_term=speed_term,
        alpha1=a1, alpha2=a2,
        verdict="SmoothFit" if abs(jump) <= _JUMP_TOL else "Fails",
    )


def general_smooth_fit_check(spec: DiffusionSpec, alpha: float, g: Callable,
                             z: float, F: Callable) -> str:
    """One-directional smooth-fit criterion at a stopping-region boundary z.

    Verifies numerically that g, psi and phi are all F-differentiable at z,
    that is, that their one-sided F-derivatives agree to 1e-6 relative; when
    they are, smooth fit with respect to F holds and the verdict is
    "SmoothFit".  When any hypothesis fails the criterion is silent, so the
    verdict is "Inconclusive", never "Fails".  An F that does not increase
    near z raises :class:`DomainError` (from :func:`f_derivative`).
    """
    from .representation import f_derivative

    fs = fundamental(spec, alpha)
    for fn in (g, fs.psi, fs.phi):
        try:
            left = f_derivative(fn, F, z, "left")
            right = f_derivative(fn, F, z, "right")
        except ConvergenceError:
            return "Inconclusive"
        if abs(left - right) > _SMOOTH_FIT_RTOL * max(1.0, abs(left), abs(right)):
            return "Inconclusive"
    return "SmoothFit"


@dataclass(frozen=True)
class AlphaZeroSolution:
    """Undiscounted solution for strictly negative drift."""

    mu: float
    threshold: float
    value: Callable


def solve_alpha_zero(mu: float, c: float = 1.0) -> AlphaZeroSolution:
    """Undiscounted stopping problem for drift mu < 0, reward (1+x)^+.

    The zero-discount excessive functions are built from the scale function
    alone, so the sticky point is invisible: the solution is that of the
    plain Brownian motion with drift, and the stickiness parameter enters
    nowhere (it is accepted and validated only so callers can express the
    sticky problem they mean).  The threshold maximizes g / psi_0 over
    (-1, oo), which lands at (1 - 2|mu|) / (2|mu|); smooth fit holds there.
    """
    if not (math.isfinite(mu) and mu < 0.0):
        raise ParameterError(
            f"undiscounted problem needs transience: mu < 0, got {mu}")
    _check_stickiness(c)
    rate = -2.0 * mu
    threshold = 1.0 / rate - 1.0
    g_at = 1.0 + threshold
    psi_at = math.exp(rate * threshold)

    @_scalar_aware
    def value(x):
        return np.where(x <= threshold, g_at * np.exp(rate * x) / psi_at, _payoff(x))

    return AlphaZeroSolution(mu=mu, threshold=threshold, value=value)
