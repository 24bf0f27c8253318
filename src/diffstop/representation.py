"""Martin and Riesz representations of excessive functions.

Every finite alpha-excessive function u of a regular one-dimensional
diffusion can be written two equivalent ways:

* Martin form: after normalizing u (x0) = 1, there is a unique probability
  measure nu on the closed interval [l, r] with

      u(x) = integral of G(x, y) / G(x0, y) over the interior, plus
             (phi(x)/phi(x0)) nu({l}) + (psi(x)/psi(x0)) nu({r}).

  The interior tails of nu are explicit in u and the fundamental solutions:

      nu((x, r]) = (psi(x0)/w) (phi(x) u+(x) - u(x) phi+(x)),   x >= x0,
      nu([l, x)) = (phi(x0)/w) (u(x) psi-(x) - psi(x) u-(x)),   x <= x0,

  with +/- one-sided derivatives taken with respect to the scale function
  and w the Wronskian.

* Riesz form: u(x) = integral of G(x, y) sigma(dy) + c1 phi(x) + c2 psi(x),
  where sigma(dy) = nu(dy) / G(x0, y) on the interior and the boundary
  masses of nu carry the harmonic coefficients.

Atoms of nu (equivalently of sigma) are exactly the jumps of the tail
functions, and they control differentiability: with respect to the scale,

    u-(z) - u+(z) = sigma({z}) - m({z}) * alpha * u(z),

so u is scale-differentiable at z iff sigma({z}) = 0 and z is not a speed
atom.  This module computes the measures, reconstructs functions from them,
and evaluates that decomposition numerically.

Conventions used throughout:

* evaluating a tail formula with right derivatives yields the
  right-continuous variant (nu((x, r]) or nu([l, x])), with left derivatives
  the complementary one; atom weights are differences of the two variants;
* measures produced by :func:`martin_measure` describe the normalized
  candidate u / u(x0); raw-scale quantities multiply back ``normalization``;
* mass sitting at an *excluded* endpoint (natural or killing) is reported in
  ``mass_left_boundary`` / ``mass_right_boundary`` and maps to the harmonic
  part; mass at an *included* reflecting endpoint is an ordinary interior
  atom and is listed in ``atoms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .diffusion import DiffusionSpec, FundamentalSolutions, fundamental
from .errors import ConvergenceError, DomainError, NotExcessiveError, ParameterError

__all__ = [
    "ExcessiveCandidate",
    "RepresentingMeasure",
    "DerivativeJump",
    "ExcessivityReport",
    "green_candidate",
    "psi_candidate",
    "phi_candidate",
    "candidate_from_callable",
    "martin_measure",
    "riesz_from_martin",
    "reconstruct",
    "derivative_jump",
    "f_derivative",
    "excessivity_check",
    "measure_to_doc",
    "measure_from_doc",
]

_ATOM_THRESHOLD = 1e-12     # tail jumps below this fraction of total mass are noise
_MONOTONE_SLACK = 1e-10


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcessiveCandidate:
    """A function u >= 0 with one-sided scale-derivative evaluators.

    ``kinks`` lists every point where the one-sided derivatives may differ;
    the representing-measure machinery probes exactly these points (plus the
    speed atoms) for atoms of the measure.
    """

    value: Callable
    ds_right: Callable
    ds_left: Callable
    x0: float
    kinks: tuple[float, ...] = ()
    label: str = ""


def _atom_locations(spec: DiffusionSpec) -> tuple[float, ...]:
    return tuple(loc for loc, _ in spec.speed_atoms)


def green_candidate(spec: DiffusionSpec, alpha: float, y0: float,
                    x0: float = 0.0) -> ExcessiveCandidate:
    """The potential x -> G_alpha(x, y0), a minimal excessive function."""
    fs = fundamental(spec, alpha)
    if not spec.interval.contains(y0):
        raise DomainError(f"pole {y0} outside the state space")
    w = fs.wronskian

    def value(x):
        return fs.green(x, y0)

    def ds_right(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < y0, fs.psi_ds(x, "right") * fs.phi(y0),
                       fs.psi(y0) * fs.phi_ds(x, "right")) / w
        return float(out) if out.ndim == 0 else out

    def ds_left(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x <= y0, fs.psi_ds(x, "left") * fs.phi(y0),
                       fs.psi(y0) * fs.phi_ds(x, "left")) / w
        return float(out) if out.ndim == 0 else out

    kinks = tuple(sorted({y0, *_atom_locations(spec)}))
    return ExcessiveCandidate(value, ds_right, ds_left, x0, kinks,
                              label=f"green(. , {y0})")


def psi_candidate(spec: DiffusionSpec, alpha: float, x0: float = 0.0) -> ExcessiveCandidate:
    fs = fundamental(spec, alpha)
    return ExcessiveCandidate(
        fs.psi,
        lambda x: fs.psi_ds(x, "right"),
        lambda x: fs.psi_ds(x, "left"),
        x0, _atom_locations(spec), label="psi",
    )


def phi_candidate(spec: DiffusionSpec, alpha: float, x0: float = 0.0) -> ExcessiveCandidate:
    fs = fundamental(spec, alpha)
    return ExcessiveCandidate(
        fs.phi,
        lambda x: fs.phi_ds(x, "right"),
        lambda x: fs.phi_ds(x, "left"),
        x0, _atom_locations(spec), label="phi",
    )


def candidate_from_callable(spec: DiffusionSpec, fn: Callable, x0: float,
                            kinks: tuple[float, ...] = (),
                            label: str = "") -> ExcessiveCandidate:
    """Wrap a plain callable, deriving one-sided scale derivatives numerically."""
    all_kinks = tuple(sorted({*kinks, *_atom_locations(spec)}))

    def ds_side(x, side):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array([f_derivative(fn, spec.scale, float(z), side) for z in xs])
        return float(out[0]) if np.ndim(x) == 0 else out

    return ExcessiveCandidate(
        fn,
        lambda x: ds_side(x, "right"),
        lambda x: ds_side(x, "left"),
        x0, all_kinks, label=label or getattr(fn, "__name__", "candidate"),
    )


# ---------------------------------------------------------------------------
# one-sided derivatives with respect to an arbitrary increasing function
# ---------------------------------------------------------------------------

def f_derivative(u: Callable, F: Callable, z: float, side: str,
                 rtol: float = 1e-9, max_steps: int = 30) -> float:
    """One-sided derivative of u with respect to F at z.

    Evaluates difference quotients on the shrinking-step ladder
    delta_k = 1e-2 (1 + |z|) 2^{-k}, accelerates them with Richardson
    extrapolation, and stops when three successive extrapolated values agree
    to ``rtol`` relative.  Raises :class:`ConvergenceError` (carrying the
    best estimate and the achieved agreement) if the ladder is exhausted.
    """
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    sgn = 1.0 if side == "right" else -1.0
    uz = float(u(z))
    Fz = float(F(z))
    delta0 = 1e-2 * (1.0 + abs(z))

    diag: list[float] = []
    rows: list[list[float]] = []
    best = math.nan
    achieved = math.inf
    for k in range(max_steps):
        d = delta0 * 2.0 ** (-k)
        xk = z + sgn * d
        dF = float(F(xk)) - Fz
        if sgn * dF <= 0.0:
            raise DomainError(f"F is not increasing near {z} (step {d})")
        q = (float(u(xk)) - uz) / dF
        row = [q]
        if rows:
            prev = rows[-1]
            for j in range(len(prev)):
                fac = 2.0 ** (j + 1)
                row.append((fac * row[j] - prev[j]) / (fac - 1.0))
        rows.append(row)
        diag.append(row[-1])
        if len(diag) >= 3:
            a, b, c = diag[-3], diag[-2], diag[-1]
            scale = max(1.0, abs(c))
            err = max(abs(c - b), abs(b - a))
            if err < achieved:
                achieved, best = err, c
            if err <= rtol * scale:
                return c
    raise ConvergenceError(
        f"one-sided derivative at {z} did not stabilize to {rtol:g} "
        f"(achieved {achieved:.3g})", best=best, achieved=achieved)


# ---------------------------------------------------------------------------
# representing measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepresentingMeasure:
    """Martin or Riesz representing measure of a normalized candidate.

    Martin kind: a probability measure; ``left_tail(y)`` is nu([l, y)) for
    y <= x0 and ``right_tail(y)`` is nu((y, r]) for y >= x0, atoms included.

    Riesz kind: ``atoms`` hold sigma-weights; the tail callables store the
    *absolutely continuous* cumulative relative to x0 (sigma_ac((x0, y]) on
    the right, sigma_ac([y, x0)) on the left), since the full sigma-tails
    toward a natural boundary need not be finite.  ``base`` retains the
    source Martin measure, which exact integration routes through.
    """

    kind: str
    x0: float
    normalization: float
    total_mass: float
    mass_left_boundary: float
    mass_right_boundary: float
    atoms: tuple[tuple[float, float], ...]
    kinks: tuple[float, ...]
    interval_left: float
    interval_right: float
    left_tail: Callable
    right_tail: Callable
    base: Optional["RepresentingMeasure"] = None

    def atom_at(self, z: float) -> float:
        for loc, w in self.atoms:
            if loc == z:
                return w
        return 0.0

    def _atoms_below(self, y, strict: bool):
        """Total atom weight at locations < y (or <= y)."""
        if not self.atoms:
            return np.zeros_like(np.asarray(y, dtype=float))
        locs = np.array([a[0] for a in self.atoms])
        cum = np.cumsum([a[1] for a in self.atoms])
        idx = np.searchsorted(locs, np.asarray(y, dtype=float),
                              side="left" if strict else "right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)

    def ac_cdf(self, y):
        """Continuous cumulative of the absolutely continuous part.

        Martin kind: nu_ac mass of [l, y].  Riesz kind: signed cumulative of
        sigma_ac relative to x0.  Only differences of this function are ever
        used, so the additive origin is immaterial.
        """
        y = np.asarray(y, dtype=float)
        if self.kind == "martin":
            below = self.left_tail(y) - self._atoms_below(y, strict=True) \
                - self.mass_left_boundary
            above = self.total_mass - self.right_tail(y) \
                - self._atoms_below(y, strict=False) - self.mass_left_boundary
            out = np.where(y <= self.x0, below, above)
            # the tail formulas are only meaningful strictly inside the
            # interval; at an included endpoint the AC mass so far is zero
            out = np.where(y <= self.interval_left, 0.0, out)
        else:
            out = np.where(y >= self.x0, self.right_tail(y), -self.left_tail(y))
        return float(out) if out.ndim == 0 else out

    def interior_mass(self, a: float, b: float,
                      include_a: bool = False, include_b: bool = True) -> float:
        """Measure of an interval from a to b inside the state space."""
        total = float(self.ac_cdf(b)) - float(self.ac_cdf(a))
        for loc, w in self.atoms:
            if a < loc < b:
                total += w
            elif loc == a and include_a:
                total += w
            elif loc == b and include_b and b > a:
                total += w
        return total


def _exp_rate(fs: FundamentalSolutions) -> float:
    return fs.theta + abs(fs.spec.mu)


def _boundary_limit(tail: Callable, x0: float, endpoint: float,
                    cap: float) -> float:
    """Limit of a monotone tail toward an endpoint, by ladder refinement."""
    vals = []
    for k in range(60):
        if math.isfinite(endpoint):
            x = endpoint + (x0 - endpoint) * 2.0 ** (-(k + 1))
        else:
            x = x0 + math.copysign(2.0 ** k, endpoint)
            if abs(x) > cap:
                break
        v = float(tail(x))
        vals.append(v)
        if len(vals) >= 3 and \
                abs(vals[-1] - vals[-2]) <= 1e-13 * (1.0 + abs(vals[-1])) and \
                abs(vals[-2] - vals[-3]) <= 1e-13 * (1.0 + abs(vals[-2])):
            return vals[-1]
    if not vals:
        return float(tail(x0))
    if abs(vals[-1] - vals[-2]) > 1e-9 * (1.0 + abs(vals[-1])):
        raise ConvergenceError(
            f"tail limit toward {endpoint} did not stabilize", best=vals[-1])
    return vals[-1]


def _check_monotone_tail(tail: Callable, lo: float, hi: float,
                         decreasing: bool, what: str):
    xs = np.linspace(lo, hi, 257)
    vals = np.asarray(tail(xs), dtype=float)
    if np.any(vals < -_MONOTONE_SLACK):
        raise NotExcessiveError(
            f"{what} tail is negative (min {vals.min():.3g}); the candidate "
            "is not excessive at this rate")
    diffs = np.diff(vals)
    bad = diffs > _MONOTONE_SLACK if decreasing else diffs < -_MONOTONE_SLACK
    if np.any(bad):
        worst = float(np.abs(diffs[bad]).max())
        raise NotExcessiveError(
            f"{what} tail is not monotone (violation {worst:.3g}); the "
            "candidate is not excessive at this rate")


def martin_measure(spec: DiffusionSpec, alpha: float,
                   candidate: ExcessiveCandidate) -> RepresentingMeasure:
    """Martin representing measure of the normalized candidate.

    The interior tails come straight from the candidate's one-sided scale
    derivatives; atoms are the tail jumps at the declared kinks and speed
    atoms; boundary masses are tail limits; any mass defect at x0 itself is
    assigned as an atom at x0 (it equals G(x0,x0) sigma({x0})).
    """
    fs = fundamental(spec, alpha)
    x0 = candidate.x0
    if not spec.interval.contains(x0):
        raise DomainError(f"normalization point {x0} outside the state space")
    u0 = float(candidate.value(x0))
    if not (math.isfinite(u0) and u0 > 0.0):
        raise ParameterError(f"candidate must satisfy 0 < u(x0) < inf, got {u0}")

    w = fs.wronskian
    psi_x0, phi_x0 = float(fs.psi(x0)), float(fs.phi(x0))
    u, ur, ul = candidate.value, candidate.ds_right, candidate.ds_left

    l, r = spec.interval.left, spec.interval.right

    # The tail formulas are meaningful strictly inside (l, r).  Exactly at an
    # included endpoint they report the one-sided limit (which carries any
    # endpoint atom), while the set being measured is empty there, so the
    # exposed tails clamp to zero at the endpoints.
    def right_excl(x):   # nu((x, r]) for x >= x0
        x = np.asarray(x, dtype=float)
        raw = (psi_x0 / w) * (fs.phi(x) * ur(x) - u(x) * fs.phi_ds(x, "right")) / u0
        out = np.where(x >= r, 0.0, raw)
        return float(out) if out.ndim == 0 else out

    def right_incl(x):   # nu([x, r])
        return (psi_x0 / w) * (fs.phi(x) * ul(x) - u(x) * fs.phi_ds(x, "left")) / u0

    def left_excl(x):    # nu([l, x)) for x <= x0
        x = np.asarray(x, dtype=float)
        raw = (phi_x0 / w) * (u(x) * fs.psi_ds(x, "left") - fs.psi(x) * ul(x)) / u0
        out = np.where(x <= l, 0.0, raw)
        return float(out) if out.ndim == 0 else out

    def left_incl(x):    # nu([l, x])
        return (phi_x0 / w) * (u(x) * fs.psi_ds(x, "right") - fs.psi(x) * ur(x)) / u0

    cap = 600.0 / _exp_rate(fs)
    # mass below x0 does not exist when x0 sits on an included left endpoint;
    # it surfaces through the x0 defect instead (symmetrically on the right)
    left_limit = _boundary_limit(left_excl, x0, l, cap) if x0 > l else 0.0
    right_limit = _boundary_limit(right_excl, x0, r, cap) if x0 < r else 0.0

    # tail monotonicity scan over the numerically active range
    scan_left = max(l + 1e-9 * (1 + abs(l)) if math.isfinite(l) else x0 - cap, x0 - cap)
    scan_right = min(r - 1e-9 * (1 + abs(r)) if math.isfinite(r) else x0 + cap, x0 + cap)
    if scan_left < x0:
        _check_monotone_tail(left_excl, scan_left, x0, decreasing=False, what="left")
    if scan_right > x0:
        _check_monotone_tail(right_excl, x0, scan_right, decreasing=True, what="right")

    # atoms from tail jumps at declared kink points and speed atoms; kinks
    # at an included endpoint are picked up by the boundary-limit path
    probe = sorted({*candidate.kinks, *_atom_locations(spec)})
    atoms: list[tuple[float, float]] = []
    for z in probe:
        if z == x0 or not (l < z < r):
            continue
        if z < x0:
            jump = float(left_incl(z)) - float(left_excl(z))
        else:
            jump = float(right_incl(z)) - float(right_excl(z))
        if jump < -1e-9:
            raise NotExcessiveError(
                f"negative measure atom {jump:.3g} at {z}; the candidate is "
                "not excessive at this rate")
        if jump > _ATOM_THRESHOLD:
            atoms.append((z, jump))

    # mass balance at x0: whatever the two open tails miss sits at x0 itself
    defect = 1.0 - float(left_excl(x0)) - float(right_excl(x0))
    if defect < -1e-9:
        raise NotExcessiveError(
            f"representing measure overshoots unit mass by {-defect:.3g}")
    if defect > _ATOM_THRESHOLD:
        atoms.append((x0, defect))
    atoms.sort()

    # mass at an included (reflecting) endpoint is an interior atom
    mass_left, mass_right = left_limit, right_limit
    if mass_left > _ATOM_THRESHOLD and spec.interval.contains(l):
        atoms = sorted([(l, mass_left)] + atoms)
        mass_left = 0.0
    if mass_right > _ATOM_THRESHOLD and spec.interval.contains(r):
        atoms = sorted(atoms + [(r, mass_right)])
        mass_right = 0.0
    mass_left = 0.0 if mass_left <= _ATOM_THRESHOLD else mass_left
    mass_right = 0.0 if mass_right <= _ATOM_THRESHOLD else mass_right

    total = float(left_excl(x0)) + float(right_excl(x0)) + max(defect, 0.0)
    kinks = tuple(sorted({*probe, x0, *(a[0] for a in atoms)}))
    return RepresentingMeasure(
        kind="martin", x0=x0, normalization=u0, total_mass=total,
        mass_left_boundary=mass_left, mass_right_boundary=mass_right,
        atoms=tuple(atoms), kinks=kinks,
        interval_left=l, interval_right=r,
        left_tail=left_excl, right_tail=right_excl,
    )


# ---------------------------------------------------------------------------
# Stieltjes quadrature against a measure
# ---------------------------------------------------------------------------

def _romberg_stieltjes(f: Callable, cdf: Callable, a: float, b: float,
                       rtol: float = 1e-12, max_level: int = 12) -> float:
    """Integral of f against the continuous increments of cdf over [a, b].

    Midpoint Stieltjes sums on dyadic meshes carry an even error expansion
    for integrands and cumulatives that are smooth inside the panel, so a
    Richardson table converges fast; panels must be split at kinks first.
    """
    if b <= a:
        return 0.0
    prev: list[float] | None = None
    achieved = math.inf
    for k in range(max_level + 1):
        n = 2 ** k
        xs = np.linspace(a, b, n + 1)
        mids = 0.5 * (xs[1:] + xs[:-1])
        increments = np.diff(np.asarray(cdf(xs), dtype=float))
        s = float(np.dot(np.asarray(f(mids), dtype=float), increments))
        row = [s]
        if prev is not None:
            for j in range(len(prev)):
                fac = 4.0 ** (j + 1)
                row.append((fac * row[j] - prev[j]) / (fac - 1.0))
            achieved = abs(row[-1] - prev[-1])
            if achieved <= rtol * (1.0 + abs(row[-1])):
                return row[-1]
        prev = row
    raise ConvergenceError(
        f"measure quadrature on [{a}, {b}] stalled at error {achieved:.3g}",
        best=prev[-1], achieved=achieved)


def _integrate_ac(measure: RepresentingMeasure, f: Callable, a: float, b: float,
                  extra_kinks: tuple[float, ...] = (), rtol: float = 1e-12) -> float:
    """Integral of f against the AC part of the measure over [a, b]."""
    if b <= a:
        return 0.0
    pts = sorted({a, b, *(p for p in (*measure.kinks, *extra_kinks) if a < p < b)})
    return sum(_romberg_stieltjes(f, measure.ac_cdf, lo, hi, rtol=rtol)
               for lo, hi in zip(pts[:-1], pts[1:]))


def _integrate_interior(measure: RepresentingMeasure, f: Callable,
                        a: float, b: float, include_a: bool, include_b: bool,
                        extra_kinks: tuple[float, ...] = ()) -> float:
    """Integral of f over the interval from a to b: atoms exact + AC panels."""
    total = _integrate_ac(measure, f, a, b, extra_kinks)
    for loc, wt in measure.atoms:
        inside = (a < loc < b) or (loc == a and include_a) or \
            (loc == b and include_b and b > a) or (a == b == loc and include_a and include_b)
        if inside:
            total += float(f(loc)) * wt
    return total


# ---------------------------------------------------------------------------
# Riesz measure and reconstruction
# ---------------------------------------------------------------------------

def riesz_from_martin(measure: RepresentingMeasure, spec: DiffusionSpec,
                      alpha: float) -> RepresentingMeasure:
    """Convert a Martin measure to the Riesz measure sigma = nu / G(x0, .).

    Interior atoms divide by the kernel exactly; masses at excluded
    endpoints stay recorded as boundary masses (they are the harmonic
    coefficients up to the normalization by phi(x0), psi(x0)); the AC
    cumulative is exposed relative to x0.
    """
    if measure.kind != "martin":
        raise ParameterError("riesz_from_martin requires a Martin measure")
    fs = fundamental(spec, alpha)
    x0 = measure.x0
    atoms = tuple((z, wt / float(fs.green(x0, z))) for z, wt in measure.atoms)

    def weight(y):
        return 1.0 / fs.green(x0, y)

    def right_cum(y):   # sigma_ac((x0, y]) for y >= x0
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.array([_integrate_ac(measure, weight, x0, float(t)) for t in ys])
        return float(out[0]) if np.ndim(y) == 0 else out

    def left_cum(y):    # sigma_ac([y, x0)) for y <= x0
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.array([_integrate_ac(measure, weight, float(t), x0) for t in ys])
        return float(out[0]) if np.ndim(y) == 0 else out

    return replace(
        measure, kind="riesz", atoms=atoms, total_mass=math.nan,
        left_tail=left_cum, right_tail=right_cum, base=measure,
    )


def harmonic_coefficients(measure: RepresentingMeasure,
                          fs: FundamentalSolutions) -> tuple[float, float]:
    """(c1, c2) multiplying phi and psi in the Riesz form, normalized scale."""
    c1 = measure.mass_left_boundary / float(fs.phi(measure.x0))
    c2 = measure.mass_right_boundary / float(fs.psi(measure.x0))
    return c1, c2


def reconstruct(measure: RepresentingMeasure, spec: DiffusionSpec,
                alpha: float, x: float) -> float:
    """Evaluate the representation integral at x (normalized scale).

    For a Martin measure of u this returns u(x) / u(x0).  The kernel
    G(x, .) / G(x0, .) is constant outside the segment between x and x0, so
    only that segment needs quadrature; atoms and boundary masses enter
    exactly.
    """
    fs = fundamental(spec, alpha)
    if not spec.interval.contains(x):
        raise DomainError(f"evaluation point {x} outside the state space")
    base = measure.base if (measure.kind == "riesz" and measure.base is not None) \
        else measure
    x0 = measure.x0
    psi_x, phi_x = float(fs.psi(x)), float(fs.phi(x))
    psi_x0, phi_x0 = float(fs.psi(x0)), float(fs.phi(x0))

    def ratio(y):
        y = np.asarray(y, dtype=float)
        num = fs.psi(np.minimum(x, y)) * fs.phi(np.maximum(x, y))
        den = fs.psi(np.minimum(x0, y)) * fs.phi(np.maximum(x0, y))
        return num / den

    if base.kind == "martin":
        a, b = min(x, x0), max(x, x0)
        out = (phi_x / phi_x0) * float(base.left_tail(a))       # nu([l, a))
        out += (psi_x / psi_x0) * float(base.right_tail(b))     # nu((b, r])
        out += _integrate_interior(base, ratio, a, b,
                                   include_a=True, include_b=True,
                                   extra_kinks=(x,))
        return out

    # standalone Riesz measure (e.g. deserialized): integrate G directly
    def kernel(y):
        y = np.asarray(y, dtype=float)
        return fs.green(x, y)

    lo = max(measure.interval_left, min(x, x0) - 600.0 / _exp_rate(fs))
    hi = min(measure.interval_right, max(x, x0) + 600.0 / _exp_rate(fs))
    out = _integrate_interior(measure, kernel, lo, hi, True, True, extra_kinks=(x,))
    c1, c2 = harmonic_coefficients(measure, fs)
    return out + c1 * phi_x + c2 * psi_x


# ---------------------------------------------------------------------------
# derivative jump decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeJump:
    """One-sided scale derivatives of a candidate at z with their split.

    ``jump = left - right`` must equal ``sigma_atom - speed_term`` where
    ``speed_term = m({z}) * alpha * u(z)``; ``residual`` reports how closely
    the numerically integrated derivatives satisfy that identity.
    """

    z: float
    left: float
    right: float
    jump: float
    sigma_atom: float
    speed_term: float
    residual: float


def derivative_jump(spec: DiffusionSpec, alpha: float,
                    candidate: ExcessiveCandidate,
                    measure: RepresentingMeasure, z: float) -> DerivativeJump:
    """Evaluate the one-sided scale derivatives of the candidate at z from
    its Riesz measure and decompose their jump into the sigma-atom and
    speed-atom contributions.  Values are on the raw (unnormalized) scale of
    the candidate.
    """
    if measure.kind != "riesz":
        raise ParameterError("derivative_jump requires the Riesz measure "
                             "(use riesz_from_martin)")
    if measure.base is None:
        raise ParameterError("derivative_jump needs a Riesz measure built "
                             "from a Martin measure")
    if not (measure.interval_left < z < measure.interval_right):
        raise DomainError(f"z = {z} must be an interior point")
    fs = fundamental(spec, alpha)
    nu = measure.base
    x0 = measure.x0
    w = fs.wronskian
    psi_x0, phi_x0 = float(fs.psi(x0)), float(fs.phi(x0))
    scale = measure.normalization
    sigma_z = measure.atom_at(z)

    def psi_weight(y):   # psi(y) / G(x0, y)
        return fs.psi(np.asarray(y, dtype=float)) / fs.green(x0, y)

    def phi_weight(y):   # phi(y) / G(x0, y)
        return fs.phi(np.asarray(y, dtype=float)) / fs.green(x0, y)

    # integral of psi dsigma over (l, z]; below min(z, x0) the weight is
    # constant w / phi(x0), so only [min(z,x0), z] needs quadrature
    a = min(z, x0)
    low_mass = float(nu.left_tail(a)) - nu.mass_left_boundary   # nu over (l, a) incl. atoms
    i1_closed = (w / phi_x0) * low_mass
    i1_closed += _integrate_interior(nu, psi_weight, a, z,
                                     include_a=True, include_b=True,
                                     extra_kinks=(z,))
    i1_open = i1_closed - float(fs.psi(z)) * sigma_z

    # integral of phi dsigma over [z, r); above max(z, x0) the weight is
    # constant w / psi(x0)
    b = max(z, x0)
    high_mass = float(nu.right_tail(b)) - nu.mass_right_boundary
    i2_open = (w / psi_x0) * high_mass
    i2_open += _integrate_interior(nu, phi_weight, z, b,
                                   include_a=False, include_b=True,
                                   extra_kinks=(z,))
    i2_closed = i2_open + float(fs.phi(z)) * sigma_z

    c1, c2 = harmonic_coefficients(nu, fs)
    phi_r, phi_l = fs.phi_ds(z, "right"), fs.phi_ds(z, "left")
    psi_r, psi_l = fs.psi_ds(z, "right"), fs.psi_ds(z, "left")
    right = scale * ((phi_r * i1_closed + psi_r * i2_open) / w
                     + c1 * phi_r + c2 * psi_r)
    left = scale * ((phi_l * i1_open + psi_l * i2_closed) / w
                    + c1 * phi_l + c2 * psi_l)
    jump = left - right
    sigma_atom = scale * sigma_z
    speed_term = spec.speed_atom_at(z) * alpha * float(candidate.value(z))
    residual = abs(jump - sigma_atom + speed_term)
    return DerivativeJump(z=z, left=left, right=right, jump=jump,
                          sigma_atom=sigma_atom, speed_term=speed_term,
                          residual=residual)


# ---------------------------------------------------------------------------
# excessivity via the resolvent inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcessivityReport:
    passed: bool
    max_violation: float
    monotone_ok: bool
    rows: tuple[tuple[float, float, float, float], ...]   # (x, beta, value, bound)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_MESH_MIN_ULPS = 64
_MESH_MAX_PANELS = 1000      # panels halved at one level


def _resolvent_integrals(spec: DiffusionSpec, fsb: FundamentalSolutions,
                         u: Callable, xs: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray, split_points) -> np.ndarray:
    """Integral of G(x, y) u(y) over [lo_x, hi_x] against the AC speed part.

    One panel mesh serves every row x.  Its initial panels run between the
    rows' endpoints and the split points; each holds a 10-point
    Gauss-Legendre rule.  A panel is halved while halving it changes some
    row's sum by more than that row's share, in proportion to the panel's
    length, of max(1e-13, 1e-11 |I_x|).  u is called once per mesh node.
    """
    edges = np.array(sorted({*lo, *hi, *(p for p in split_points
                                          if lo.min() < p < hi.max())}))
    span = hi - lo

    def panel_sums(a, b):
        half = 0.5 * (b - a)
        ys = ((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES).ravel()
        f = np.array([float(u(y)) for y in ys.tolist()])
        f *= np.asarray(spec.speed_density(ys), dtype=float)
        f *= (half[:, None] * _GL_WEIGHTS).ravel()
        kern = fsb.green(xs[:, None], ys[None, :])
        sums = (kern * f).reshape(len(xs), len(a), -1).sum(axis=2)
        inside = (lo[:, None] <= a) & (b <= hi[:, None])
        return np.where(inside, sums, 0.0)

    a, b = edges[:-1], edges[1:]
    whole = panel_sums(a, b)
    total = np.zeros(len(xs))
    while True:
        mid = 0.5 * (a + b)
        halves = panel_sums(np.concatenate((a, mid)), np.concatenate((mid, b)))
        left, right = halves[:, :len(a)], halves[:, len(a):]
        refined = left + right
        change = np.abs(refined - whole)
        tol = np.maximum(1e-13, 1e-11 * np.abs(total + refined.sum(axis=1)))
        bad = np.any(change > tol[:, None] * ((b - a) / span[:, None]), axis=0)
        total += refined[:, ~bad].sum(axis=1)
        if not bad.any():
            return total
        # a panel a few ulps wide cannot be halved any further
        tiny = (b - a)[bad] <= _MESH_MIN_ULPS * np.spacing(np.abs(mid[bad]) + 1.0)
        if tiny.any() or np.count_nonzero(bad) > _MESH_MAX_PANELS:
            raise ConvergenceError(
                f"resolvent mesh on [{lo.min()}, {hi.max()}] at rate "
                f"{fsb.alpha:g} did not converge: {np.count_nonzero(bad)} "
                "panels still change when halved",
                achieved=float(np.max(change[:, bad].sum(axis=1))))
        a, b = np.concatenate((a[bad], mid[bad])), np.concatenate((mid[bad], b[bad]))
        whole = np.concatenate((left[:, bad], right[:, bad]), axis=1)


def excessivity_check(spec: DiffusionSpec, alpha: float, u: Callable,
                      grid, betas, tol: float = 1e-6,
                      kinks: tuple[float, ...] = ()) -> ExcessivityReport:
    """Resolvent test of alpha-excessivity on a grid.

    For each grid point x and each beta checks

        beta * integral of G_{alpha+beta}(x, y) u(y) m(dy)  <=  u(x) + tol,

    with the tolerance scaled by max(1, u(x)), and that the left side is
    nondecreasing in beta (it approaches u(x) from below for excessive u).
    Atoms of the speed measure enter the integral exactly.

    Row x integrates over [x - reach, x + reach] (clipped to the state
    space), where the kernel G_{alpha+beta} has decayed by e^{-60}.  For each
    beta one panel mesh serves all rows: it is split at the grid points, the
    given kinks, the speed atoms and every row's integration ends, and each
    panel carries a 10-point Gauss-Legendre rule.  A panel is halved while
    halving it changes some row by more than that row's share, in proportion
    to the panel's length, of max(1e-13, 1e-11 |I_x|), where I_x is the
    row's integral; these are the absolute and relative tolerances of an
    adaptive quadrature, so kinks of u missing from ``kinks`` are found by
    halving.  G is evaluated as one (rows, nodes) matrix; u is called with
    one float at a time, once per mesh node and once per grid point and
    speed atom.  Raises :class:`ConvergenceError` (``achieved`` is the
    largest row change still unresolved) when a panel that still changes has
    shrunk to a few ulps, as at a jump of u off the mesh, or when more than
    1000 panels need halving at one level, as for an endless oscillation.
    """
    grid = [float(x) for x in grid]
    betas = sorted(float(b) for b in betas)
    if any(b <= 0 for b in betas):
        raise ParameterError("betas must be positive")
    xs = np.array(grid)
    bounds = [float(u(x)) for x in grid]
    atoms = [(loc, wt, float(u(loc))) for loc, wt in spec.speed_atoms]
    split_points = sorted({*kinks, *(loc for loc, _ in spec.speed_atoms), *grid})
    vals = {}
    for beta in betas:
        fsb = fundamental(spec, alpha + beta)
        reach = 60.0 / _exp_rate(fsb) + 1.0
        lo = np.maximum(spec.interval.left, xs - reach)
        hi = np.minimum(spec.interval.right, xs + reach)
        row = _resolvent_integrals(spec, fsb, u, xs, lo, hi, split_points)
        for loc, wt, u_loc in atoms:
            inside = (lo <= loc) & (loc <= hi)
            row = row + np.where(inside, fsb.green(xs, loc) * u_loc * wt, 0.0)
        vals[beta] = beta * row
    rows = []
    max_violation = -math.inf
    monotone_ok = True
    for k, (x, bound) in enumerate(zip(grid, bounds)):
        prev_val = -math.inf
        for beta in betas:
            val = float(vals[beta][k])
            rows.append((x, beta, val, bound))
            # violations are judged relative to max(1, u(x)) pointwise
            max_violation = max(max_violation,
                                (val - bound) / max(1.0, abs(bound)))
            if val < prev_val - 1e-7 * max(1.0, abs(val)):
                monotone_ok = False
            prev_val = val
    passed = (max_violation <= tol) and monotone_ok
    return ExcessivityReport(passed=passed, max_violation=max_violation,
                             monotone_ok=monotone_ok, rows=tuple(rows))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_doc(measure: RepresentingMeasure, tail_points: int = 65) -> dict:
    """Serialize to a plain document.

    Atom locations and weights round-trip exactly.  ``tail_samples`` hold the
    atom-free tail component on a finite sampling range (the absolutely
    continuous part is interpolated on reload, so it is resolution-limited by
    ``tail_points``).
    """
    x0 = measure.x0
    span = max(1.0, abs(x0)) * 8.0
    lo = max(measure.interval_left, x0 - span) if math.isfinite(measure.interval_left) \
        else x0 - span
    hi = min(measure.interval_right, x0 + span) if math.isfinite(measure.interval_right) \
        else x0 + span
    left_xs = np.linspace(lo, x0, tail_points)
    right_xs = np.linspace(x0, hi, tail_points)
    if measure.kind == "martin":
        left_vals = [float(measure.ac_cdf(t)) for t in left_xs]
        right_vals = [float(measure.ac_cdf(t)) for t in right_xs]
    else:
        left_vals = [-float(measure.ac_cdf(t)) for t in left_xs]
        right_vals = [float(measure.ac_cdf(t)) for t in right_xs]
    return {
        "kind": measure.kind,
        "x0": measure.x0,
        "normalization": measure.normalization,
        "total_mass": None if math.isnan(measure.total_mass) else measure.total_mass,
        "mass_left_boundary": measure.mass_left_boundary,
        "mass_right_boundary": measure.mass_right_boundary,
        "atoms": [{"location": z, "weight": wt} for z, wt in measure.atoms],
        "tail_samples": {
            "left": [[float(t), v] for t, v in zip(left_xs, left_vals)],
            "right": [[float(t), v] for t, v in zip(right_xs, right_vals)],
        },
    }


def measure_from_doc(doc: dict, spec: DiffusionSpec) -> RepresentingMeasure:
    """Rebuild a measure from its document.

    Atoms are restored exactly; the absolutely continuous part becomes a
    piecewise-linear interpolant of the stored samples.
    """
    kind = doc["kind"]
    x0 = float(doc["x0"])
    atoms = tuple((float(a["location"]), float(a["weight"])) for a in doc["atoms"])
    mass_left = float(doc["mass_left_boundary"])
    mass_right = float(doc["mass_right_boundary"])
    total = doc.get("total_mass")
    total = math.nan if total is None else float(total)
    left_samples = np.array(doc["tail_samples"]["left"], dtype=float).reshape(-1, 2)
    right_samples = np.array(doc["tail_samples"]["right"], dtype=float).reshape(-1, 2)

    def interp(samples):
        xs, vs = samples[:, 0], samples[:, 1]
        def fn(y):
            return np.interp(np.asarray(y, dtype=float), xs, vs)
        return fn

    ac_left = interp(left_samples)
    ac_right = interp(right_samples)

    locs = np.array([a[0] for a in atoms]) if atoms else np.empty(0)
    cums = np.cumsum([a[1] for a in atoms]) if atoms else np.empty(0)

    def atoms_below(y, strict):
        if len(locs) == 0:
            return np.zeros_like(np.asarray(y, dtype=float))
        idx = np.searchsorted(locs, np.asarray(y, dtype=float),
                              side="left" if strict else "right")
        return np.where(idx > 0, cums[np.maximum(idx - 1, 0)], 0.0)

    if kind == "martin":
        def left_tail(y):   # nu([l, y))
            y = np.asarray(y, dtype=float)
            return ac_left(y) + atoms_below(y, strict=True) + mass_left

        def right_tail(y):  # nu((y, r]) = total - nu([l, y])
            y = np.asarray(y, dtype=float)
            return total - mass_left - ac_right(y) - atoms_below(y, strict=False)
    else:
        def left_tail(y):
            return ac_left(y)

        def right_tail(y):
            return ac_right(y)

    # the interpolated cumulative is piecewise linear, so quadrature panels
    # must split at every sample point
    kinks = tuple(sorted({x0, *(a[0] for a in atoms),
                          *left_samples[:, 0], *right_samples[:, 0]}))
    return RepresentingMeasure(
        kind=kind, x0=x0, normalization=float(doc["normalization"]),
        total_mass=total, mass_left_boundary=mass_left,
        mass_right_boundary=mass_right, atoms=atoms, kinks=kinks,
        interval_left=spec.interval.left, interval_right=spec.interval.right,
        left_tail=left_tail, right_tail=right_tail,
    )
