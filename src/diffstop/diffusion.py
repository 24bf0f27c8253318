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

A family states four formulas, psi, phi and their x-derivatives as
functions of (x, side), and gives them to :func:`_solutions`, which builds
the :class:`FundamentalSolutions`.  :func:`_below` holds the kink
convention that every one-sided evaluator of the package follows: at a kink
a left derivative takes the branch below it and a right derivative the
branch above it.
"""

from __future__ import annotations

import functools
import math
import types
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

    The wrapped function receives its arguments as float64 arrays, except
    the ``self`` of a method and the arguments that have a default (such as
    ``side``), which pass as given; an argument that already is a float64
    array passes as it is.  A 0-d result comes back as a Python float.
    Every closed-form evaluator goes through here once per public call:
    code of the package that already holds float64 arrays calls the wrapped
    function, ``__wrapped__``, directly (see :func:`_formula`), and the
    public convention is unchanged.
    """
    code = fn.__code__
    skip = 1 if code.co_varnames[:1] == ("self",) else 0
    stop = code.co_argcount - len(fn.__defaults__ or ())
    arrays = code.co_varnames[skip:stop]

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if kwargs:
            kwargs = {k: np.asarray(v, dtype=float) if k in arrays else v
                      for k, v in kwargs.items()}
        out = fn(*args[:skip], *[a if type(a) is np.ndarray and a.dtype is _FLOAT
                                 else np.asarray(a, dtype=float) for a in args[skip:stop]],
                 *args[stop:], **kwargs)
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)
    return wrapped


_FLOAT = np.dtype(float)
_WRAPPER = _scalar_aware(lambda x: x).__code__


def _formula(f: Callable) -> Callable:
    """The array formula behind f: the function that :func:`_scalar_aware`
    wrapped (bound to the instance of a method), or f itself when it is any
    other callable.  Call it only on float64 arrays."""
    if getattr(f, "__code__", None) is not _WRAPPER:
        return f
    if isinstance(f, types.MethodType):
        return f.__wrapped__.__get__(f.__self__)
    return f.__wrapped__


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

    ``mu`` is the drift (1/time, <= 0 where applicable), which scale and speed
    follow alone.  ``speed_atoms`` lists (location, weight) pairs of the point
    part of the speed measure, the one statement of stickiness.
    """

    family: Family
    interval: Interval
    mu: float = 0.0
    speed_atoms: tuple[tuple[float, float], ...] = ()

    @property
    def c(self) -> float:
        """The stickiness (time/space): half the speed atom at 0, or 0.0."""
        return 0.5 * self.speed_atom_at(0.0)

    # -- scale ------------------------------------------------------------
    @property
    def identity_scale(self) -> bool:
        """True when the scale function is S(x) = x."""
        return self.mu == 0.0

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
    if not (c > 0.0 and math.isfinite(2.0 * c)):    # so that c is the atom 2c halved
        raise ParameterError(f"sticky_bm requires stickiness 0 < 2c < inf, got {c}")
    return DiffusionSpec(Family.STICKY_BM, Interval(-math.inf, math.inf), mu, ((0.0, 2.0 * c),))


def make_reflected_killed_bm() -> DiffusionSpec:
    """Brownian motion on [0, 1), reflected at 0 and killed at 1."""
    return DiffusionSpec(Family.REFLECTED_KILLED_BM,
                         Interval(0.0, 1.0, BoundaryKind.REFLECTING, BoundaryKind.KILLING))


def make_drift_bm(mu: float) -> DiffusionSpec:
    """Transient Brownian motion with strictly negative drift."""
    if not (math.isfinite(mu) and mu < 0.0):
        raise ParameterError(f"drift_bm requires mu < 0, got {mu}")
    return DiffusionSpec(Family.DRIFT_BM, Interval(-math.inf, math.inf), mu)


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


def _below(x, z, side: str):
    """The kink convention: True where x takes the branch below z.  At z
    itself a left derivative takes the branch below and a right one the
    branch above, so the two sides at a speed atom differ by exactly its
    jump."""
    return x <= z if side == "left" else x < z


def _check_side(side):
    """The one check of a ``side`` argument."""
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")


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
    psi_ds: Callable        # d/dS = (d/dx) / S'(x), called as (x, side="right")
    phi_ds: Callable

    @_scalar_aware
    def green(self, x, y):
        """Resolvent kernel w.r.t. the speed measure; symmetric, positive."""
        return self.psi.__wrapped__(np.minimum(x, y)) \
            * self.phi.__wrapped__(np.maximum(x, y)) / self.wronskian

    @_scalar_aware
    def hitting_laplace(self, x, y):
        """E_x[exp(-alpha * hitting time of y)]; in (0, 1], and 1 iff x == y.
        Each point takes its own branch's ratio, checked by :func:`_finite`."""
        psi, phi = self.psi.__wrapped__, self.phi.__wrapped__
        with np.errstate(all="ignore"):
            ratio = np.divide(*(np.where(x <= y, psi(p), phi(p)) for p in (x, y)))
        return _finite("hitting transform", ratio, x, y, self.alpha)


def _finite(what: str, out, x, y, alpha: float):
    """``out``, or a DomainError naming alpha and its first non-finite (x, y)."""
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        x, y = (np.broadcast_to(a, np.shape(out)).flat[bad[0]] for a in (x, y))
        raise DomainError(f"{what} at x = {x}, y = {y}, alpha = {alpha:g} is not finite")
    return out


def _solutions(spec: DiffusionSpec, alpha: float, theta: float, gamma: float,
               wronskian: float, psi: Callable, phi: Callable, dpsi: Callable,
               dphi: Callable) -> FundamentalSolutions:
    """A family's :class:`FundamentalSolutions` from its four formulas: psi
    and phi as array functions of x, and their x-derivatives as array
    functions of (x, side) that choose their branch at a kink by
    :func:`_below`.  The scale derivatives divide them by S'(x)."""
    def one_sided(d, side):
        return _scalar_aware(lambda x: d(x, side))

    def per_scale(d):
        scale_deriv = _formula(spec.scale_deriv)

        def ds(x, side="right"):
            _check_side(side)
            dx = d(x, side)
            return dx if spec.identity_scale else dx / scale_deriv(x)
        return _scalar_aware(ds)

    return FundamentalSolutions(
        spec, alpha, theta, gamma, wronskian, _scalar_aware(psi), _scalar_aware(phi),
        *(one_sided(d, side) for d in (dpsi, dphi) for side in ("right", "left")),
        per_scale(dpsi), per_scale(dphi))


def _sticky_solutions(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    mu, c = spec.mu, spec.c
    theta = math.sqrt(2.0 * alpha + mu * mu)
    gamma = c * alpha / theta
    up = theta - mu     # growth rate of the increasing branch
    dn = theta + mu     # decay rate of the decreasing branch

    # a two-term branch clips x to its side of 0, so it cannot overflow unused
    def psi(x):
        e = np.exp(up * x)
        return np.where(x <= 0.0, e, (1.0 + gamma) * e - gamma * np.exp(-dn * np.maximum(x, 0.0)))

    def phi(x):
        e = np.exp(-dn * x)
        return np.where(x >= 0.0, e, (1.0 + gamma) * e - gamma * np.exp(up * np.minimum(x, 0.0)))

    def dpsi(x, side):
        e = np.exp(up * x)
        return np.where(_below(x, 0.0, side), up * e,
                        (1.0 + gamma) * up * e + gamma * dn * np.exp(-dn * np.maximum(x, 0.0)))

    def dphi(x, side):
        e = np.exp(-dn * x)
        return np.where(_below(x, 0.0, side),
                        -(1.0 + gamma) * dn * e - gamma * up * np.exp(up * np.minimum(x, 0.0)),
                        -dn * e)

    return _solutions(spec, alpha, theta, gamma, 2.0 * theta + 2.0 * c * alpha,
                      psi, phi, dpsi, dphi)


def _reflected_killed_solutions(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    k = math.sqrt(2.0 * alpha)
    return _solutions(spec, alpha, k, 0.0, k * math.cosh(k),
                      lambda x: np.cosh(k * x), lambda x: np.sinh(k * (1.0 - x)),
                      lambda x, side: k * np.sinh(k * x),
                      lambda x, side: -k * np.cosh(k * (1.0 - x)))


def _drift_zero_solutions(spec: DiffusionSpec) -> FundamentalSolutions:
    # alpha = 0, mu < 0: the increasing solution is S - S(-inf), the
    # decreasing one is constant 1; ratios give hitting probabilities.
    rate = -2.0 * spec.mu
    return _solutions(spec, 0.0, abs(spec.mu), 0.0, 1.0,
                      lambda x: np.exp(rate * x) / rate, lambda x: np.ones_like(x),
                      lambda x, side: np.exp(rate * x),
                      lambda x, side: np.zeros_like(x))


def fundamental(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    """Fundamental solution pair for the given discount rate.

    Positive discount: supported for sticky_bm and reflected_killed_bm.
    Zero discount: supported only for drift_bm (transient); recurrent
    families have no nonconstant 0-excessive functions and are rejected.
    A spec that ``make_spec`` would not build raises :class:`ParameterError`.

    There is one object per (spec, alpha): results are memoised, so callers
    may ask again rather than pass the pair around.
    """
    return _fundamental(spec, float(alpha))


@functools.lru_cache(maxsize=256)
def _fundamental(spec: DiffusionSpec, alpha: float) -> FundamentalSolutions:
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ParameterError(f"discount rate must be >= 0, got {alpha}")
    try:    # the closed forms read mu and the atom at 0 alone
        built = make_spec(spec.family, mu=spec.mu, c=spec.c)
    except ParameterError:
        built = None
    if built != spec:
        raise ParameterError(f"{spec.family.value!r} has closed forms only for the specs "
                             f"that make_spec builds, not for {spec}")
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
    """G_alpha(x, y), the resolvent kernel w.r.t. the speed measure; see :func:`_finite`."""
    _require_in_state_space(spec, x, y)
    with np.errstate(all="ignore"):
        return _finite("G", fundamental(spec, alpha).green(x, y), x, y, alpha)


def hitting_laplace(spec: DiffusionSpec, alpha: float, x: float, y: float) -> float:
    """Laplace transform of the first hitting time of y started from x."""
    _require_in_state_space(spec, x, y)
    return fundamental(spec, alpha).hitting_laplace(x, y)
