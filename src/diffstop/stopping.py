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

from .diffusion import DiffusionSpec, _scalar_aware, fundamental, make_sticky_bm
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


def default_reward() -> Reward:
    @_scalar_aware
    def value(x):
        return np.maximum(1.0 + x, 0.0)

    @_scalar_aware
    def dx_left(x):
        return np.where(x > -1.0, 1.0, 0.0)

    @_scalar_aware
    def dx_right(x):
        return np.where(x >= -1.0, 1.0, 0.0)

    return Reward(value, dx_left, dx_right)


def alpha_thresholds(c: float) -> tuple[float, float]:
    """(alpha1, alpha2): the discount range with threshold at the sticky point.

    alpha1 solves t(0+) = 0, i.e. c k^2 + k - 1 = 0 with k = sqrt(2 alpha):
    alpha1 = (sqrt(1 + 4c) - 1)^2 / (8 c^2).  At c = 1 this is (3 - sqrt 5)/4.
    """
    if c <= 0:
        raise ParameterError(f"stickiness must be positive, got {c}")
    k1 = (math.sqrt(1.0 + 4.0 * c) - 1.0) / (2.0 * c)
    return 0.5 * k1 * k1, 0.5


def _s_branches(alpha: float, c: float):
    # middle branch: expand s = phi g' - phi' g with the two-term phi; the
    # sinh carries a minus sign (the limits s(-1+) = e^k + c k sinh k and
    # s(0-) = k + 1 + 2 alpha c pin it down)
    k = math.sqrt(2.0 * alpha)

    def middle(x):   # -1 < x < 0
        return np.exp(-k * x) * ((1.0 + x) * k + 1.0) \
            + c * k * ((1.0 + x) * k * np.cosh(k * x) - np.sinh(k * x))

    def upper(x):    # x > 0
        return np.exp(-k * x) * ((1.0 + x) * k + 1.0)

    return middle, upper


def _t_branches(alpha: float, c: float):
    k = math.sqrt(2.0 * alpha)

    def middle(x):   # -1 < x < 0
        return np.exp(k * x) * ((1.0 + x) * k - 1.0)

    def upper(x):    # x > 0
        return np.exp(k * x) * ((1.0 + x) * k - 1.0) \
            + c * k * ((1.0 + x) * k * np.cosh(k * x) - np.sinh(k * x))

    return middle, upper


def st_functions(alpha: float, c: float, x: float,
                 side: str | None = None) -> tuple[float, float]:
    """(s(x), t(x)) for the driftless sticky problem.

    Both functions are discontinuous at the sticky point and at the reward
    kink, so evaluation exactly at 0 or -1 requires ``side`` ("left" or
    "right") selecting the one-sided limit.
    """
    if alpha <= 0 or c <= 0:
        raise ParameterError("alpha and c must be positive")
    s_mid, s_up = _s_branches(alpha, c)
    t_mid, t_up = _t_branches(alpha, c)
    if x in (0.0, -1.0):
        if side not in ("left", "right"):
            raise DomainError(
                f"s and t are discontinuous at {x}; pass side='left' or 'right'")
        if x == 0.0:
            pair = (s_mid, t_mid) if side == "left" else (s_up, t_up)
            return float(pair[0](0.0)), float(pair[1](0.0))
        if side == "left":
            return 0.0, 0.0
        return float(s_mid(-1.0)), float(t_mid(-1.0))
    if x < -1.0:
        return 0.0, 0.0
    if x < 0.0:
        return float(s_mid(x)), float(t_mid(x))
    return float(s_up(x)), float(t_up(x))


def st_table(alpha: float, c: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (s, t) with the right-limit convention at 0 and -1."""
    if alpha <= 0 or c <= 0:
        raise ParameterError("alpha and c must be positive")
    xs = np.asarray(xs, dtype=float)
    s_mid, s_up = _s_branches(alpha, c)
    t_mid, t_up = _t_branches(alpha, c)
    s = np.where(xs < -1.0, 0.0, np.where(xs < 0.0, s_mid(xs), s_up(xs)))
    t = np.where(xs < -1.0, 0.0, np.where(xs < 0.0, t_mid(xs), t_up(xs)))
    return s, t


def solve_threshold(alpha: float, c: float) -> float:
    """Optimal threshold x*: root of t on (-1, oo) off the sticky point, else 0.

    t is increasing with a positive jump at 0, so the branch is decided by
    its one-sided limits there: a still-negative right limit forces a root
    above 0 (found by bisection, safe because t is monotone); a positive
    left limit puts the root on (-1, 0) where the closed form 1/k - 1
    applies; otherwise t has no root and the threshold is the sticky point.
    """
    if alpha <= 0 or c <= 0:
        raise ParameterError("alpha and c must be positive")
    k = math.sqrt(2.0 * alpha)
    t_left_limit = k - 1.0
    t_right_limit = k - 1.0 + 2.0 * alpha * c
    if t_right_limit < -_BRANCH_TOL:
        _, t_up = _t_branches(alpha, c)
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
def _value_setup(alpha: float, c: float) -> tuple[float, Callable, Callable]:
    """(x*, the value, its scale derivative ``ds(x, side)``) of the stopping
    problem: g(x*) psi(x) / psi(x*) below x*, g above.  Below x* <= 0,
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

    def below(x, side=None):
        x = np.minimum(x, xs)
        out = coef * (fs.psi(x) if side is None else fs.psi_ds(x, side))
        far = x < deep
        if far.any():
            ratio = np.exp(up * (x - xs))
            out = np.where(far, (1.0 + xs) * (ratio if side is None else up * ratio), out)
        return out

    @_scalar_aware
    def value(x):
        return np.where(x <= xs, below(x), np.maximum(1.0 + x, 0.0))

    def ds(x, side):
        # the left derivative takes the branch below x* at x* itself
        low = x <= xs if side == "left" else x < xs
        return np.where(low, below(x, side), 1.0)

    return xs, value, ds


def value_function(alpha: float, c: float, x) -> float | np.ndarray:
    """Stopping value: g(x*) psi(x) / psi(x*) below the threshold, g above."""
    return _value_setup(alpha, c)[1](x)


def value_candidate(alpha: float, c: float, x0: float | None = None) -> ExcessiveCandidate:
    """The stopping value as an excessive candidate with analytic derivatives.

    The default normalization point sits strictly above both the threshold
    and the sticky point, max(0, x*) + 1.
    """
    from .representation import ExcessiveCandidate

    xs, value, ds = _value_setup(alpha, c)
    if x0 is None:
        x0 = max(0.0, xs) + 1.0
    kinks = tuple(sorted({0.0, xs}))
    return ExcessiveCandidate(value, _scalar_aware(lambda x: ds(x, "right")),
                              _scalar_aware(lambda x: ds(x, "left")), float(x0), kinks,
                              label=f"value(alpha={alpha}, c={c})")


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
        return {
            "alpha": self.alpha,
            "c": self.c,
            "x_star": self.x_star,
            "jump": self.jump,
            "sigma_atom": self.sigma_atom,
            "speed_term": self.speed_term,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "verdict": self.verdict,
        }


def smooth_fit_report(alpha: float, c: float) -> SmoothFitReport:
    """Classify smooth fit at the optimal threshold.

    The one-sided derivatives are evaluated analytically from the two
    branches of the value function; the speed-atom term is nonzero only
    when the threshold is the sticky point itself.
    """
    xs = solve_threshold(alpha, c)
    fs = fundamental(make_sticky_bm(0.0, c), alpha)
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
    verdict is "Inconclusive", never "Fails".
    """
    from .representation import f_derivative

    probe = 1e-3 * (1.0 + abs(z))
    if not (float(F(z + probe)) > float(F(z)) > float(F(z - probe))):
        raise DomainError(f"F is not increasing near {z}")
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
    if c <= 0:
        raise ParameterError(f"stickiness must be positive, got {c}")
    rate = -2.0 * mu
    threshold = 1.0 / rate - 1.0
    g_at = 1.0 + threshold
    psi_at = math.exp(rate * threshold)

    @_scalar_aware
    def value(x):
        return np.where(x <= threshold,
                        g_at * np.exp(rate * x) / psi_at,
                        np.maximum(1.0 + x, 0.0))

    return AlphaZeroSolution(mu=mu, threshold=threshold, value=value)
