"""One-dimensional regular diffusions: scale, speed, fundamental solutions.

A diffusion on an interval is described here by its scale function S and its
speed measure m = m_ac(x) dx + sum of point masses.  Three closed-form
families are supported:

``sticky_bm``
    Brownian motion with drift mu <= 0 made sticky at the origin: the speed
    measure carries an atom of weight 2c at 0 (stickiness parameter c > 0).
    State space is the whole real line, both endpoints natural.

``reflected_killed_bm``
    Standard Brownian motion on [0, 1), reflected at 0 and killed at 1.

``drift_bm``
    Brownian motion with strictly negative drift (transient).  Used for the
    undiscounted theory: it is the only family for which zero-discount
    fundamental objects are provided.

For a discount rate alpha the fundamental solutions psi (increasing) and phi
(decreasing) solve the generalized ODE associated with the generator, and the
kernel

    G_alpha(x, y) = psi(min(x,y)) * phi(max(x,y)) / wronskian

is the symmetric resolvent density with respect to the speed measure.  At a
speed atom z the one-sided scale derivatives of psi and phi jump by
m({z}) * alpha * value, so derivatives are exposed with an explicit side.
All derivative evaluators are analytic branch derivatives, never finite
differences; the jump at a sticky point must come out exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError


class BoundaryKind(str, Enum):
    NATURAL = "natural"
    KILLING = "killing"
    REFLECTING = "reflecting"


class Family(str, Enum):
    STICKY_BM = "sticky_bm"
    REFLECTED_KILLED_BM = "reflected_killed_bm"
    DRIFT_BM = "drift_bm"


@dataclass(frozen=True)
class Interval:
    """State interval with boundary classification.

    Reflecting endpoints are finite and belong to the state space; natural
    and killing endpoints are excluded.  Absorbing endpoints are not
    representable: a diffusion with an accessible absorbing state is not
    regular and admits discontinuous excessive functions, which breaks every
    representation used in this package.
    """

    left: float
    right: float
    left_kind: BoundaryKind = BoundaryKind.NATURAL
    right_kind: BoundaryKind = BoundaryKind.NATURAL

    def __post_init__(self):
        if not self.left < self.right:
            raise ParameterError(f"empty interval: [{self.left}, {self.right}]")
        for endpoint, kind in ((self.left, self.left_kind), (self.right, self.right_kind)):
            if kind is BoundaryKind.REFLECTING and not math.isfinite(endpoint):
                raise ParameterError("reflecting endpoint must be finite")

    def contains(self, x: float) -> bool:
        """True if x belongs to the state space (not merely the closure)."""
        if self.left < x < self.right:
            return True
        if x == self.left and self.left_kind is BoundaryKind.REFLECTING:
            return True
        if x == self.right and self.right_kind is BoundaryKind.REFLECTING:
            return True
        return False


def _scalar_aware(fn):
    """The package's scalar convention: a scalar gives a float, an array an array.

    The wrapped function receives its positional arguments as float64 arrays,
    except the ``self`` of a method, and a 0-d result comes back as a Python
    float.  Every closed-form evaluator goes through here.
    """
    skip = 1 if fn.__code__.co_varnames[:1] == ("self",) else 0

    def wrapped(*args):
        out = fn(*args[:skip], *[np.asarray(a, dtype=float) for a in args[skip:]])
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)
    return wrapped


def _values(u: Callable, ys: np.ndarray) -> np.ndarray:
    """u on the 1-D float64 array ys, a scalar result broadcast to its shape.

    The package's rule for user callables: u takes a 1-D float array and
    returns a finite array of that shape or a finite scalar.  Any other
    result shape, or a NaN or infinite value, raises :class:`ParameterError`.
    """
    f = np.asarray(u(ys), dtype=float)
    if f.ndim == 0:
        f = np.full(ys.shape, float(f))
    if f.shape != ys.shape:
        raise ParameterError(
            f"a callable returned shape {f.shape} for an array of shape "
            f"{ys.shape}; it must take a 1-D float array and return an array "
            "of that shape or a scalar")
    if not np.all(np.isfinite(f)):
        raise ParameterError("a callable returned a non-finite value")
    return f


@dataclass(frozen=True)
class DiffusionSpec:
    """Closed-form description of one diffusion family instance.

    ``mu`` is the drift (1/time, <= 0 where applicable) and ``c`` the
    stickiness (time/space, > 0 for sticky_bm, 0 otherwise).  ``speed_atoms``
    lists (location, weight) pairs of the point part of the speed measure.
    """

    family: Family
    interval: Interval
    mu: float = 0.0
    c: float = 0.0
    speed_atoms: tuple[tuple[float, float], ...] = ()

    # -- scale ------------------------------------------------------------
    @property
    def identity_scale(self) -> bool:
        """True when the scale function is S(x) = x."""
        return self.family is Family.REFLECTED_KILLED_BM or self.mu == 0.0

    @_scalar_aware
    def scale(self, x):
        if self.identity_scale:
            return x
        return (1.0 - np.exp(-2.0 * self.mu * x)) / (2.0 * self.mu)

    @_scalar_aware
    def _scale_increment(self, a, b):
        """S(b) - S(a), elementwise, without differencing S.

        Under drift S tends to a constant on one side, where differences of
        its values cancel; e^{-2 mu a} (-expm1(-2 mu (b - a))) / (2 mu) keeps
        every digit.
        """
        if self.identity_scale:
            return b - a
        return np.exp(-2.0 * self.mu * a) * -np.expm1(-2.0 * self.mu * (b - a)) \
            / (2.0 * self.mu)

    @_scalar_aware
    def scale_deriv(self, x):
        if self.identity_scale:
            return np.ones(x.shape)
        return np.exp(-2.0 * self.mu * x)

    # -- speed ------------------------------------------------------------
    @_scalar_aware
    def speed_density(self, x):
        if self.family is Family.REFLECTED_KILLED_BM:
            return np.full_like(x, 2.0)
        return 2.0 * np.exp(2.0 * self.mu * x)

    @_scalar_aware
    def speed_density_integral(self, a, b):
        """Exact integral of the speed density over [a, b], elementwise.

        Under drift it is e^{2 mu a} expm1(2 mu (b - a)) / mu, so a short
        interval keeps every digit.
        """
        if np.any(b < a):
            raise ParameterError("integration bounds out of order")
        if self.identity_scale:
            return 2.0 * (b - a)
        return np.exp(2.0 * self.mu * a) * np.expm1(2.0 * self.mu * (b - a)) / self.mu

    @property
    def atom_locations(self) -> tuple[float, ...]:
        """Locations of the speed atoms, in the order of ``speed_atoms``."""
        return tuple(loc for loc, _ in self.speed_atoms)

    def speed_atom_at(self, z: float) -> float:
        """m({z}), found at its exact location (the policy of :func:`_atom_at`)."""
        return _atom_at(self.speed_atoms, z)


def _atom_at(atoms, z: float) -> float:
    """Weight of the (location, weight) atom at z, or 0.0.  The package's
    policy: an atom is found only at its exact float location, the one it
    was declared or probed at; no window merges two nearby atoms."""
    return next((w for loc, w in atoms if loc == z), 0.0)


def make_sticky_bm(mu: float = 0.0, c: float = 1.0) -> DiffusionSpec:
    """Brownian motion with drift mu <= 0, sticky at the origin."""
    if not (math.isfinite(mu) and mu <= 0.0):
        raise ParameterError(f"sticky_bm requires drift mu <= 0, got {mu}")
    if not (math.isfinite(c) and c > 0.0):
        raise ParameterError(f"sticky_bm requires stickiness c > 0, got {c}")
    return DiffusionSpec(
        family=Family.STICKY_BM,
        interval=Interval(-math.inf, math.inf),
        mu=mu,
        c=c,
        speed_atoms=((0.0, 2.0 * c),),
    )


def make_reflected_killed_bm() -> DiffusionSpec:
    """Brownian motion on [0, 1), reflected at 0 and killed at 1."""
    return DiffusionSpec(
        family=Family.REFLECTED_KILLED_BM,
        interval=Interval(0.0, 1.0, BoundaryKind.REFLECTING, BoundaryKind.KILLING),
    )


def make_drift_bm(mu: float) -> DiffusionSpec:
    """Transient Brownian motion with strictly negative drift."""
    if not (math.isfinite(mu) and mu < 0.0):
        raise ParameterError(f"drift_bm requires mu < 0, got {mu}")
    return DiffusionSpec(
        family=Family.DRIFT_BM,
        interval=Interval(-math.inf, math.inf),
        mu=mu,
    )


def make_spec(family: str | Family, *, mu: float = 0.0, c: float = 1.0) -> DiffusionSpec:
    """Construct a diffusion from a family name and its parameters."""
    name = family.value if isinstance(family, Family) else str(family)
    if "absorb" in name:
        raise ParameterError(
            "absorbing endpoints are not representable: a diffusion with an "
            "accessible absorbing state is not regular and has discontinuous "
            "excessive functions"
        )
    if name == Family.STICKY_BM.value:
        return make_sticky_bm(mu=mu, c=c)
    if name == Family.REFLECTED_KILLED_BM.value:
        return make_reflected_killed_bm()
    if name == Family.DRIFT_BM.value:
        return make_drift_bm(mu=mu)
    raise ParameterError(
        f"unknown family {name!r}; supported: "
        f"{[f.value for f in Family]}"
    )


def spec_from_config(config: dict) -> DiffusionSpec:
    """Build a spec from a key-value document, e.g. parsed JSON.

    Recognized keys: ``family`` (required), ``mu``, ``c``.  The same schema
    is used by the command-line interface.
    """
    if "family" not in config:
        raise ParameterError("configuration document is missing 'family'")
    extra = set(config) - {"family", "mu", "c"}
    if extra:
        raise ParameterError(f"unknown configuration keys: {sorted(extra)}")
    return make_spec(
        config["family"],
        mu=float(config.get("mu", 0.0)),
        c=float(config.get("c", 1.0)),
    )


def speed_of_set(spec: DiffusionSpec, a: float, b: float,
                 include_a: bool = True, include_b: bool = True) -> float:
    """Speed measure of an interval from a to b with endpoint-inclusion flags.

    Integrates the density exactly (closed form per family) and adds atom
    weights inside (a, b), honoring the flags at the endpoints.  A degenerate
    closed interval {a} returns the atom weight at a, if any.
    """
    if b < a:
        raise ParameterError(f"bounds out of order: {a} > {b}")
    lo, hi = spec.interval.left, spec.interval.right
    for endpoint in (a, b):
        if not (lo <= endpoint <= hi):
            raise DomainError(f"bound {endpoint} outside interval [{lo}, {hi}]")
    total = spec.speed_density_integral(a, b) if a < b else 0.0
    for loc, w in spec.speed_atoms:
        if a < loc < b:
            total += w
        elif loc == a and include_a and (a < b or include_b):
            total += w
        elif loc == b and include_b and a < b:
            total += w
    return total


@dataclass(frozen=True)
class FundamentalSolutions:
    """Increasing/decreasing positive solutions for one (spec, alpha) pair.

    ``psi`` and ``phi`` are continuous on the closure of the interval; the
    one-sided derivative evaluators carry the exact kink at speed atoms.
    ``theta`` is sqrt(2*alpha + mu^2) and ``gamma`` = c*alpha/theta (zero for
    families without stickiness).  The Wronskian is the constant
    psi_S'(x) phi(x) - psi(x) phi_S'(x) taken with scale derivatives.
    """

    spec: DiffusionSpec
    alpha: float
    theta: float
    gamma: float
    wronskian: float
    psi: Callable
    phi: Callable
    psi_dx_right: Callable
    psi_dx_left: Callable
    phi_dx_right: Callable
    phi_dx_left: Callable

    # scale derivatives: d/dS = (d/dx) / S'(x)
    def psi_ds(self, x, side: str = "right"):
        return self._ds(self.psi_dx_right, self.psi_dx_left, x, side)

    def phi_ds(self, x, side: str = "right"):
        return self._ds(self.phi_dx_right, self.phi_dx_left, x, side)

    def _ds(self, right, left, x, side):
        if side not in ("left", "right"):
            raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
        dx = right(x) if side == "right" else left(x)
        return dx if self.spec.identity_scale else dx / self.spec.scale_deriv(x)

    @_scalar_aware
    def green(self, x, y):
        """Resolvent kernel w.r.t. the speed measure; symmetric, positive."""
        return self.psi(np.minimum(x, y)) * self.phi(np.maximum(x, y)) / self.wronskian

    @_scalar_aware
    def hitting_laplace(self, x, y):
        """E_x[exp(-alpha * hitting time of y)]; in (0, 1], and 1 iff x == y."""
        return np.where(x <= y, self.psi(x) / self.psi(y), self.phi(x) / self.phi(y))


def _sticky_solutions(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    mu, c = spec.mu, spec.c
    theta = math.sqrt(2.0 * alpha + mu * mu)
    gamma = c * alpha / theta
    up = theta - mu     # growth rate of the increasing branch
    dn = theta + mu     # decay rate of the decreasing branch

    # a two-term branch clips x to its side of 0, so it cannot overflow unused
    @_scalar_aware
    def psi(x):
        e = np.exp(up * x)
        return np.where(x <= 0.0, e, (1.0 + gamma) * e - gamma * np.exp(-dn * np.maximum(x, 0.0)))

    @_scalar_aware
    def phi(x):
        e = np.exp(-dn * x)
        return np.where(x >= 0.0, e, (1.0 + gamma) * e - gamma * np.exp(up * np.minimum(x, 0.0)))

    def _psi_d(x, left_branch_closed):
        e = np.exp(up * x)
        low = up * e
        high = (1.0 + gamma) * up * e + gamma * dn * np.exp(-dn * np.maximum(x, 0.0))
        cond = x <= 0.0 if left_branch_closed else x < 0.0
        return np.where(cond, low, high)

    def _phi_d(x, right_branch_closed):
        e = np.exp(-dn * x)
        high = -dn * e
        low = -(1.0 + gamma) * dn * e - gamma * up * np.exp(up * np.minimum(x, 0.0))
        cond = x >= 0.0 if right_branch_closed else x > 0.0
        return np.where(cond, high, low)

    return FundamentalSolutions(
        spec=spec,
        alpha=alpha,
        theta=theta,
        gamma=gamma,
        wronskian=2.0 * theta + 2.0 * c * alpha,
        psi=psi,
        phi=phi,
        # right derivative at 0 uses the x >= 0 branch, left the x <= 0 branch
        psi_dx_right=_scalar_aware(lambda x: _psi_d(x, left_branch_closed=False)),
        psi_dx_left=_scalar_aware(lambda x: _psi_d(x, left_branch_closed=True)),
        phi_dx_right=_scalar_aware(lambda x: _phi_d(x, right_branch_closed=True)),
        phi_dx_left=_scalar_aware(lambda x: _phi_d(x, right_branch_closed=False)),
    )


def _reflected_killed_solutions(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    k = math.sqrt(2.0 * alpha)

    @_scalar_aware
    def psi(x):
        return np.cosh(k * x)

    @_scalar_aware
    def phi(x):
        return np.sinh(k * (1.0 - x))

    @_scalar_aware
    def dpsi(x):
        return k * np.sinh(k * x)

    @_scalar_aware
    def dphi(x):
        return -k * np.cosh(k * (1.0 - x))

    return FundamentalSolutions(
        spec=spec,
        alpha=alpha,
        theta=k,
        gamma=0.0,
        wronskian=k * math.cosh(k),
        psi=psi,
        phi=phi,
        psi_dx_right=dpsi,
        psi_dx_left=dpsi,
        phi_dx_right=dphi,
        phi_dx_left=dphi,
    )


def _drift_zero_solutions(spec: DiffusionSpec) -> FundamentalSolutions:
    # alpha = 0, mu < 0: the increasing solution is S - S(-inf), the
    # decreasing one is constant 1; ratios give hitting probabilities.
    mu = spec.mu
    rate = -2.0 * mu

    @_scalar_aware
    def psi(x):
        return np.exp(rate * x) / rate

    @_scalar_aware
    def phi(x):
        return np.ones_like(x)

    @_scalar_aware
    def dpsi(x):
        return np.exp(rate * x)

    @_scalar_aware
    def zero(x):
        return np.zeros_like(x)

    return FundamentalSolutions(
        spec=spec,
        alpha=0.0,
        theta=abs(mu),
        gamma=0.0,
        wronskian=1.0,
        psi=psi,
        phi=phi,
        psi_dx_right=dpsi,
        psi_dx_left=dpsi,
        phi_dx_right=zero,
        phi_dx_left=zero,
    )


def fundamental(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    """Fundamental solution pair for the given discount rate.

    Positive discount: supported for sticky_bm and reflected_killed_bm.
    Zero discount: supported only for drift_bm (transient); recurrent
    families have no nonconstant 0-excessive functions and are rejected.

    There is one object per (spec, alpha): results are memoised, so callers
    may ask again rather than pass the pair around.
    """
    return _fundamental(spec, float(alpha))


@functools.lru_cache(maxsize=256)
def _fundamental(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ParameterError(f"discount rate must be >= 0, got {alpha}")
    if alpha == 0.0:
        if spec.family is Family.DRIFT_BM:
            return _drift_zero_solutions(spec)
        raise ParameterError(
            "zero discount is only supported for drift_bm; recurrent "
            "families have no nonconstant 0-excessive functions"
        )
    if spec.family is Family.STICKY_BM:
        return _sticky_solutions(spec, alpha)
    if spec.family is Family.REFLECTED_KILLED_BM:
        return _reflected_killed_solutions(spec, alpha)
    raise ParameterError(
        f"family {spec.family.value!r} has no positive-discount fundamental "
        "solutions in this package"
    )


def _require_in_state_space(spec: DiffusionSpec, *points: float):
    for p in points:
        if not spec.interval.contains(p):
            raise DomainError(
                f"point {p} outside state space "
                f"[{spec.interval.left}, {spec.interval.right}]"
            )


def green(spec: DiffusionSpec, alpha: float, x: float, y: float) -> float:
    """G_alpha(x, y), the resolvent kernel w.r.t. the speed measure."""
    _require_in_state_space(spec, x, y)
    return fundamental(spec, alpha).green(x, y)


def hitting_laplace(spec: DiffusionSpec, alpha: float, x: float, y: float) -> float:
    """Laplace transform of the first hitting time of y started from x."""
    _require_in_state_space(spec, x, y)
    return fundamental(spec, alpha).hitting_laplace(x, y)
