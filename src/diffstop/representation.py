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
  masses of nu carry the harmonic coefficients.  The generator gives sigma
  without dividing by G:

      sigma = alpha u dm - d(u+),

  so sigma((x0, y]) = u+(x0) - u+(y) + alpha * integral of u dm over (x0, y]
  for y >= x0, and sigma([y, x0)) = u-(y) - u-(x0) + alpha * integral of
  u dm over [y, x0) for y <= x0.

Atoms of nu (equivalently of sigma) are exactly the jumps of the tail
functions, and they control differentiability: the atom part of the
generator identity reads, with respect to the scale,

    u-(z) - u+(z) = sigma({z}) - m({z}) * alpha * u(z),

so u is scale-differentiable at z iff sigma({z}) = 0 and z is not a speed
atom.  This module computes the measures, reconstructs functions from them,
and evaluates that decomposition numerically.

Reconstruction integrates by parts against the tails of nu.  With
L(y) = nu([l, y)), R(y) = nu((y, r]), masses m_l and m_r at excluded
endpoints, total mass T, and d(psi/phi) = w dS / phi^2,

    u(x) = m_l phi(x)/phi(x0) + (T - m_l) psi(x)/psi(x0)
           + (w psi(x)/phi(x0)) * integral over [x, x0] of (L - m_l) dS / psi^2

for x <= x0, and mirrored for x >= x0:

    u(x) = m_r psi(x)/psi(x0) + (T - m_r) phi(x)/phi(x0)
           + (w phi(x)/psi(x0)) * integral over [x0, x] of (R - m_r) dS / phi^2.

Atoms enter through the tail values and boundary masses in closed form,
and the one integral runs on fixed Gauss-Legendre panels, with no
convergence loop.  Either line is u(x) = A phi(x) + B psi(x), and the
one-sided derivatives come from the same coefficient pair:

    u+(z) = A phi+(z) + B psi+(z) + s,
    u-(z) = A phi-(z) + B psi-(z) + s + sigma({z}),

where s, the scale derivative of the by-parts term, is
-w (nu([l, z]) - m_l) / (psi(z) phi(x0)) for z <= x0 and
w (nu((z, r]) - m_r) / (phi(z) psi(x0)) above x0, so the jump identity holds
by construction.  A Riesz measure rebuilt from a document has no Martin
measure behind it: its pair is the Riesz one, A = c1 + (integral of psi
over (l, x] against sigma) / w and B = c2 + (integral of phi over (x, r)
against sigma) / w, and s = 0.

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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .diffusion import (DiffusionSpec, FundamentalSolutions, _atom_at, _below,
                        _check_side, _formula, _scalar_aware, _values, fundamental)
from .errors import ConvergenceError, DomainError, NotExcessiveError, ParameterError

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
    speed atoms, which :func:`_candidate` lists) for atoms of the measure.
    """

    value: Callable
    ds_right: Callable
    ds_left: Callable
    x0: float
    kinks: tuple[float, ...] = ()
    label: str = ""


def _candidate(spec: DiffusionSpec, value: Callable, ds: Callable, x0: float,
               kinks: tuple[float, ...] = (), label: str = "") -> ExcessiveCandidate:
    """The one builder of an :class:`ExcessiveCandidate`: ``ds(x, side)`` gives
    both one-sided scale derivatives, and the speed atoms join ``kinks``."""
    return ExcessiveCandidate(value, *(_scalar_aware(lambda x, s=side: ds(x, s))
                                       for side in ("right", "left")),
                              x0, tuple(sorted({*kinks, *spec.atom_locations})), label)


def green_candidate(spec: DiffusionSpec, alpha: float, y0: float,
                    x0: float = 0.0) -> ExcessiveCandidate:
    """The potential x -> G_alpha(x, y0), a minimal excessive function."""
    fs = fundamental(spec, alpha)
    if not spec.interval.contains(y0):
        raise DomainError(f"pole {y0} outside the state space")
    w, psi_y0, phi_y0 = fs.wronskian, fs.psi(y0), fs.phi(y0)
    green, psi_ds, phi_ds = _formula(fs.green), fs.psi_ds.__wrapped__, fs.phi_ds.__wrapped__

    def ds(x, side):
        return np.where(_below(x, y0, side), psi_ds(x, side) * phi_y0,
                        psi_y0 * phi_ds(x, side)) / w

    return _candidate(spec, _scalar_aware(lambda x: green(x, y0)), ds, x0, (y0,),
                      f"green(. , {y0})")


def psi_candidate(spec: DiffusionSpec, alpha: float, x0: float = 0.0) -> ExcessiveCandidate:
    fs = fundamental(spec, alpha)
    return _candidate(spec, fs.psi, fs.psi_ds.__wrapped__, x0, label="psi")


def phi_candidate(spec: DiffusionSpec, alpha: float, x0: float = 0.0) -> ExcessiveCandidate:
    fs = fundamental(spec, alpha)
    return _candidate(spec, fs.phi, fs.phi_ds.__wrapped__, x0, label="phi")


def candidate_from_callable(spec: DiffusionSpec, fn: Callable, x0: float,
                            kinks: tuple[float, ...] = (),
                            label: str = "") -> ExcessiveCandidate:
    """Wrap a plain callable, deriving one-sided scale derivatives numerically."""
    def ds(x, side):
        return np.reshape([f_derivative(fn, spec.scale, z, side)
                           for z in x.ravel().tolist()], x.shape)

    return _candidate(spec, fn, ds, x0, kinks, label or getattr(fn, "__name__", "candidate"))


# ---------------------------------------------------------------------------
# one-sided derivatives with respect to an arbitrary increasing function
# ---------------------------------------------------------------------------

_DERIV_RTOL = 1e-9
_DERIV_MAX_STEPS = 30


def f_derivative(u: Callable, F: Callable, z: float, side: str) -> float:
    """One-sided derivative of u with respect to F at z.

    Evaluates difference quotients on the shrinking-step ladder
    delta_k = 1e-2 (1 + |z|) 2^{-k}, k < 30, accelerates them with
    Richardson extrapolation, and stops when three successive extrapolated
    values agree to 1e-9 relative (to max(1, |value|)).  Raises
    :class:`ConvergenceError` (carrying the best estimate and the achieved
    agreement) if the 30 steps are exhausted.
    """
    _check_side(side)
    sgn = 1.0 if side == "right" else -1.0
    uz = float(u(z))
    Fz = float(F(z))
    delta0 = 1e-2 * (1.0 + abs(z))

    diag: list[float] = []
    rows: list[list[float]] = []
    best = math.nan
    achieved = math.inf
    for k in range(_DERIV_MAX_STEPS):
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
            if err <= _DERIV_RTOL * scale:
                return c
    raise ConvergenceError(
        f"one-sided derivative at {z} did not stabilize to {_DERIV_RTOL:g} "
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
    source Martin measure, from whose by-parts identity :func:`reconstruct`
    and :func:`derivative_jump` take their coefficients; a Riesz measure
    rebuilt by :func:`measure_from_doc` has none, and they integrate psi and
    phi against its sigma instead.

    ``kinks`` are the points where quadrature panels split: x0, the atoms,
    the speed atoms, the candidate's kinks or a document's sample points.
    ``candidate`` is for this module's use: :func:`martin_measure` keeps the
    source candidate there, from which :func:`riesz_from_martin` builds the
    Riesz tails; a measure rebuilt by :func:`measure_from_doc` has none.
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
    candidate: Optional[ExcessiveCandidate] = field(default=None, repr=False,
                                                    compare=False)

    def atom_at(self, z: float) -> float:
        """Weight of the atom at exactly z, or 0.0, as
        :meth:`DiffusionSpec.speed_atom_at` finds speed atoms."""
        return _atom_at(self.atoms, z)

    @_scalar_aware
    def ac_cdf(self, y):
        """Continuous cumulative of the absolutely continuous part.

        Martin kind: nu_ac mass of [l, y].  Riesz kind: signed cumulative of
        sigma_ac relative to x0.  Only differences of this function are ever
        used, so the additive origin is immaterial.
        """
        # each tail is called on the points of its own side only; a point
        # at x0 takes the left tail for Martin and the right one for Riesz
        flat = y.ravel()
        out = np.empty(flat.shape)
        left_tail, right_tail = _formula(self.left_tail), _formula(self.right_tail)
        if self.kind == "martin":
            low = flat <= self.x0
            if low.any():
                below = flat[low]
                out[low] = left_tail(below) \
                    - _atoms_below(self.atoms, below, strict=True) - self.mass_left_boundary
            if not low.all():
                above = flat[~low]
                out[~low] = self.total_mass - right_tail(above) \
                    - _atoms_below(self.atoms, above, strict=False) - self.mass_left_boundary
            # the tail formulas are only meaningful strictly inside the
            # interval; at an included endpoint the AC mass so far is zero
            out[flat <= self.interval_left] = 0.0
        else:
            high = flat >= self.x0
            if high.any():
                out[high] = right_tail(flat[high])
            if not high.all():
                out[~high] = -left_tail(flat[~high])
        return out.reshape(y.shape)


def _atoms_below(atoms, y, strict: bool):
    """Total weight of the sorted (location, weight) atoms at locations < y
    (``strict``) or <= y."""
    cum = np.concatenate(([0.0], np.cumsum([a[1] for a in atoms])))
    return cum[np.searchsorted([a[0] for a in atoms], np.asarray(y, dtype=float),
                               side="left" if strict else "right")]


def _exp_rate(fs: FundamentalSolutions) -> float:
    return fs.theta + abs(fs.spec.mu)


def _ladder(start: float, endpoint: float, cap: float) -> np.ndarray:
    """Points from ``start`` toward the endpoint: halving the distance to a
    finite one, doubling the step toward an infinite one until |x| > cap."""
    k = np.arange(60)
    if math.isfinite(endpoint):
        return endpoint + (start - endpoint) * np.ldexp(1.0, -(k + 1))
    xs = start + math.copysign(1.0, endpoint) * np.ldexp(1.0, k)
    past = np.flatnonzero(np.abs(xs) > cap)
    return xs[:past[0]] if past.size else xs


def _boundary_limit(vals: list[float], at_start: float, endpoint: float) -> float:
    """Limit of a monotone tail from its values on the :func:`_ladder`: the
    first of three equal values, or ``at_start``, the tail at the ladder's
    start, for an empty ladder.  The ladder starts beyond every kink on its
    side, since a plateau before a kink would pass for the limit."""
    if not vals:
        return at_start
    for i in range(2, len(vals)):
        if abs(vals[i] - vals[i - 1]) <= 1e-13 * (1.0 + abs(vals[i])) and \
                abs(vals[i - 1] - vals[i - 2]) <= 1e-13 * (1.0 + abs(vals[i - 1])):
            return vals[i]
    if len(vals) < 2 or abs(vals[-1] - vals[-2]) > 1e-9 * (1.0 + abs(vals[-1])):
        raise ConvergenceError(
            f"tail limit toward {endpoint} did not stabilize", best=vals[-1])
    return vals[-1]


# scan offsets from x0 grow by 2**(1/8): 101 points from ~0.1/rate to 600/rate
_SCAN_STEPS = np.exp2(np.arange(101) / 8.0) - 1.0


def _check_monotone_tail(vals: np.ndarray, what: str):
    """Raise unless the tail's scan values, outward from x0, are nonnegative
    and do not grow, as nu([l, y)) and nu((y, r]) do."""
    if np.any(vals < -_MONOTONE_SLACK):
        raise NotExcessiveError(
            f"{what} tail is negative (min {vals.min():.3g}); the candidate "
            "is not excessive at this rate")
    worst = np.diff(vals).max(initial=0.0)
    if worst > _MONOTONE_SLACK:
        raise NotExcessiveError(
            f"{what} tail is not monotone (violation {worst:.3g}); the "
            "candidate is not excessive at this rate")


def _read_side(tail: Callable, closed: Callable, x0: float, endpoint: float,
               probe: list[float], cap: float):
    """One side of x0 for :func:`martin_measure`: the open tail (an array
    formula) called once, on the :func:`_ladder` from the outermost kink (or
    x0), the scan, the kinks (points of ``probe`` between x0 and the
    endpoint) and x0, and the closed tail at the kinks.  Returns the
    ladder's values, the tail at its start, the scan's values, the kinks,
    their atom jumps and the tail at x0.  A side from x0 at an included
    endpoint holds no mass: it is not read, and any mass there surfaces
    through the x0 defect."""
    if x0 == endpoint:
        return [], 0.0, np.zeros(0), [], [], 0.0
    sgn = math.copysign(1.0, endpoint - x0)
    kinks = [z for z in probe if min(x0, endpoint) < z < max(x0, endpoint)]
    outer = (kinks[0] if sgn < 0 else kinks[-1]) if kinks else x0
    far = x0 + sgn * cap
    edge = endpoint - sgn * 1e-9 * (1 + abs(endpoint)) if math.isfinite(endpoint) else far
    far = min(far, edge) if sgn > 0 else max(far, edge)
    scan = x0 + (far - x0) * (_SCAN_STEPS / _SCAN_STEPS[-1]) if sgn * (far - x0) > 0 else []
    ladder, near = _ladder(outer, endpoint, cap), [*kinks, x0]
    vals = tail(np.concatenate((ladder, scan, near)))
    n = len(ladder) + len(scan)
    jumps = (closed(np.array(kinks, dtype=float)) - vals[n:-1]).tolist() if kinks else []
    return (vals[:len(ladder)].tolist(), float(vals[n + near.index(outer)]),
            vals[len(ladder):n], kinks, jumps, float(vals[-1]))


def martin_measure(spec: DiffusionSpec, alpha: float,
                   candidate: ExcessiveCandidate) -> RepresentingMeasure:
    """Martin representing measure of the normalized candidate.

    The interior tails come straight from the candidate's one-sided scale
    derivatives; atoms are the tail jumps at the declared kinks and speed
    atoms; boundary masses are tail limits; any mass defect at x0 itself is
    assigned as an atom at x0 (it equals G(x0,x0) sigma({x0})).

    Each side is read from one call of its tail (:func:`_read_side`).  The
    scan there checks sign and monotonicity at 101 points, so a violation
    narrower than ~9 % of its distance from x0 passes;
    :func:`excessivity_check` is the independent test.
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
    psi, phi = fs.psi.__wrapped__, fs.phi.__wrapped__
    psi_ds, phi_ds = fs.psi_ds.__wrapped__, fs.phi_ds.__wrapped__
    u = _formula(candidate.value)
    ds = {"right": _formula(candidate.ds_right), "left": _formula(candidate.ds_left)}
    l, r = spec.interval.left, spec.interval.right

    # With right derivatives the formulas give nu((x, r]) and nu([l, x]),
    # with left ones nu([x, r]) and nu([l, x)).
    def above(x, side):
        return (psi_x0 / w) * (phi(x) * ds[side](x) - u(x) * phi_ds(x, side)) / u0

    def below(x, side):
        return (phi_x0 / w) * (u(x) * psi_ds(x, side) - psi(x) * ds[side](x)) / u0

    # The tail formulas are meaningful strictly inside (l, r).  Exactly at an
    # included endpoint they report the one-sided limit (which carries any
    # endpoint atom), while the set being measured is empty there, so the
    # exposed tails nu((x, r]) and nu([l, x)) clamp to zero at the endpoints.
    def right(x):
        return np.where(x >= r, 0.0, above(x, "right"))

    def left(x):
        return np.where(x <= l, 0.0, below(x, "left"))

    # kinks at an included endpoint are picked up by the boundary limit
    cap = 600.0 / _exp_rate(fs)
    probe = sorted({*candidate.kinks, *spec.atom_locations})
    ladders, starts, scans, inside, jumps, (left_x0, right_x0) = zip(
        _read_side(left, lambda x: below(x, "right"), x0, l, probe, cap),
        _read_side(right, lambda x: above(x, "left"), x0, r, probe, cap))
    limits = list(map(_boundary_limit, ladders, starts, (l, r)))
    for scan, what in zip(scans, ("left", "right")):
        _check_monotone_tail(scan, what)
    zs, jumps = inside[0] + inside[1], jumps[0] + jumps[1]
    for z, jump in zip(zs, jumps):
        if jump < -1e-9:
            raise NotExcessiveError(
                f"negative measure atom {jump:.3g} at {z}; the candidate is "
                "not excessive at this rate")
    atoms = [(z, jump) for z, jump in zip(zs, jumps) if jump > _ATOM_THRESHOLD]

    # mass balance at x0: whatever the two open tails miss sits at x0 itself
    defect = 1.0 - left_x0 - right_x0
    if defect < -1e-9:
        raise NotExcessiveError(
            f"representing measure overshoots unit mass by {-defect:.3g}")
    if defect > _ATOM_THRESHOLD:
        atoms.append((x0, defect))

    # mass at an included (reflecting) endpoint is an interior atom
    ends = [(end, m if m > _ATOM_THRESHOLD else 0.0) for end, m in zip((l, r), limits)]
    atoms += [(end, m) for end, m in ends if m and spec.interval.contains(end)]
    mass_left, mass_right = (0.0 if spec.interval.contains(end) else m for end, m in ends)
    atoms.sort()

    total = left_x0 + right_x0 + max(defect, 0.0)
    kinks = tuple(sorted({*probe, x0, *(a[0] for a in atoms)}))
    return RepresentingMeasure(
        kind="martin", x0=x0, normalization=u0, total_mass=total,
        mass_left_boundary=mass_left, mass_right_boundary=mass_right,
        atoms=tuple(atoms), kinks=kinks,
        interval_left=l, interval_right=r,
        left_tail=_scalar_aware(left), right_tail=_scalar_aware(right), candidate=candidate,
    )


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

# numpy.polynomial.legendre.leggauss(10), written out so that no process
# imports numpy.polynomial at start-up (a test checks them bit for bit)
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814])


def _gap_integrals(f: Callable, pts: np.ndarray, width: float) -> np.ndarray:
    """Integral of f over each gap of the sorted points pts.

    Each gap is cut into equal panels no wider than ``width``, and each
    panel carries the 10-point Gauss-Legendre rule.  f is called once, on
    the 1-D array of all nodes.
    """
    if len(pts) < 2:
        return np.zeros(0)
    gaps = pts[1:] - pts[:-1]
    pieces = np.maximum(1, np.ceil(gaps / width)).astype(int)
    first = pieces.cumsum() - pieces
    step = (gaps / pieces).repeat(pieces)
    starts = pts[:-1].repeat(pieces) + step * (np.arange(len(step)) - first.repeat(pieces))
    half = 0.5 * step
    nodes = (starts + half)[:, None] + half[:, None] * _GL_NODES
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return np.add.reduceat((vals @ _GL_WEIGHTS) * half, first)


def _between(f: Callable, anchor: float, ys, splits, width: float) -> np.ndarray:
    """Integral of f between the anchor and each point of ys.

    The points of ys lie on one side of the anchor; below it the result is
    the integral over [y, anchor].  The panels of :func:`_gap_integrals`
    cover the gaps of the sorted points ys, the anchor and the splits
    between them, and the gap sums accumulate outward from the anchor, so
    that integrals near it keep their digits.
    """
    ys = np.asarray(ys, dtype=float)
    ends = ys.tolist()
    lo, hi = min(anchor, *ends), max(anchor, *ends)
    pts = np.array(sorted({*ends, anchor, *(p for p in splits if lo < p < hi)}))
    sums, cum = _gap_integrals(f, pts, width), np.zeros(len(pts))
    # the anchor's own entry stays 0: last below it, first above it
    if lo < anchor:
        sums[::-1].cumsum(out=cum[-2::-1])
    else:
        sums.cumsum(out=cum[1:])
    return cum[pts.searchsorted(ys)]


# ---------------------------------------------------------------------------
# Riesz measure and reconstruction
# ---------------------------------------------------------------------------

def riesz_from_martin(measure: RepresentingMeasure, spec: DiffusionSpec,
                      alpha: float) -> RepresentingMeasure:
    """Convert a Martin measure to the Riesz measure sigma = nu / G(x0, .).

    Interior atoms divide by the kernel exactly; masses at excluded
    endpoints stay recorded as boundary masses (they are the harmonic
    coefficients up to the normalization by phi(x0), psi(x0)).

    The AC tails apply the generator identity of the module docstring to
    the source candidate, subtract the sigma-atoms in the range and divide
    by u(x0); speed atoms enter exactly as alpha m({z}) u(z).  The integral
    of u against the AC speed part is one :func:`_between` from x0 to all
    requested points, on panels split at the measure's kinks and cut to
    widths of at most 2 / (theta + |mu|), the fastest exponential rate of
    u dm; u and the speed density are each called once on all nodes.  At an
    endpoint of the state space the inside one-sided derivative is used, so
    mass at the endpoint is not AC mass.  There is no division by G and no
    convergence loop.

    Raises :class:`ParameterError` for a Martin measure without its
    candidate, such as one rebuilt by :func:`measure_from_doc`.
    """
    if measure.kind != "martin":
        raise ParameterError("riesz_from_martin requires a Martin measure")
    cand = measure.candidate
    if cand is None:
        raise ParameterError("riesz_from_martin needs the candidate of the "
                             "Martin measure (build it with martin_measure)")
    fs = fundamental(spec, alpha)
    x0, u0 = measure.x0, measure.normalization
    l, r = measure.interval_left, measure.interval_right
    atoms = tuple((z, wt / float(fs.green(x0, z))) for z, wt in measure.atoms)
    inner_atoms = [(z, wt) for z, wt in atoms if l < z < r]
    speed_atoms = sorted((z, alpha * m * float(cand.value(z)))
                         for z, m in spec.speed_atoms if l < z < r)
    kinks = [k for k in measure.kinks if l < k < r]
    width = 2.0 / _exp_rate(fs)

    value, ds_right, ds_left = map(_formula, (cand.value, cand.ds_right, cand.ds_left))
    speed_density = _formula(spec.speed_density)

    def scale_deriv(ys, side):
        # u+ on the right, u- on the left; at an endpoint, the inside one
        usual, inside = (ds_right, ds_left) if side == "right" else (ds_left, ds_right)
        at_end = (ys >= r) if side == "right" else (ys <= l)
        d = np.empty_like(ys)
        for mask, fn in ((~at_end, usual), (at_end, inside)):
            if mask.any():
                d[mask] = fn(ys[mask])
        return d

    def u_dm(y):
        return value(y) * speed_density(y)

    def tail(y, side):
        # sigma_ac((x0, y]) on the right, sigma_ac([y, x0)) on the left; a
        # point on the wrong side of x0 carries an empty range
        if not y.size:
            return y
        sgn, strict = (1.0, False) if side == "right" else (-1.0, True)
        ys = np.maximum(y, x0).ravel() if side == "right" else np.minimum(y, x0).ravel()

        def in_range(atom_list):
            # the atoms' weight from x0 to each of ys, from one lookup
            below = _atoms_below(atom_list, np.append(ys, x0), strict)
            return sgn * (below[:-1] - below[-1])

        d = scale_deriv(np.append(ys, x0), side)
        out = (sgn * (d[-1] - d[:-1]) + alpha * _between(u_dm, x0, ys, kinks, width)
               + in_range(speed_atoms)) / u0 - in_range(inner_atoms)
        return out.reshape(y.shape)

    return replace(
        measure, kind="riesz", atoms=atoms, total_mass=math.nan,
        left_tail=_scalar_aware(lambda y: tail(y, "left")),
        right_tail=_scalar_aware(lambda y: tail(y, "right")),
        base=measure,
    )


def _coefficients(measure: RepresentingMeasure, fs: FundamentalSolutions,
                  x: float) -> tuple[float, float, list[float], list[float]]:
    """(A, B) with u(x) / u(x0) = A phi(x) + B psi(x), as in the module
    docstring, with [psi(x0), psi(x)] and [phi(x0), phi(x)], each from one
    call.  Each integral is one :func:`_between` on panels split at the
    kinks, which hold the speed atoms, and no wider than 0.25 / (theta + |mu|).

    A measure with a Martin source takes the pair from the by-parts
    identity; toward a killing endpoint, where psi or phi vanishes, its
    panels also split where the distance to it halves (:func:`_ladder`), so
    that no panel is closer to the pole of the integrand than its own width.
    A rebuilt Riesz measure sums its atoms and integrates psi from its first
    kink to x and phi from x to its last kink (neither overflows before
    G(x, .) does) against the constant density of its cumulative between
    kinks: x is inserted into its gap, both pieces keep that gap's density,
    and each side is one :func:`_gap_integrals` call dotted with the
    densities.  Beyond the kinks the cumulative is constant, so x is clamped
    into their range.
    """
    nu = measure.base if measure.base is not None else measure
    x0, w = nu.x0, fs.wronskian
    m_l, m_r = nu.mass_left_boundary, nu.mass_right_boundary
    psi, phi = fs.psi.__wrapped__, fs.phi.__wrapped__
    ends = np.array([x0, x])
    psi_at, phi_at = psi(ends).tolist(), phi(ends).tolist()
    psi_x0, phi_x0 = psi_at[0], phi_at[0]
    c1, c2 = m_l / phi_x0, m_r / psi_x0
    width = 0.25 / _exp_rate(fs)
    if nu.kind == "martin":
        low = x <= x0
        end, tail, mass, kernel = (nu.interval_left, nu.left_tail, m_l, psi) if low \
            else (nu.interval_right, nu.right_tail, m_r, phi)
        tail = _formula(tail)
        splits = list(nu.kinks)
        if math.isfinite(end) and not fs.spec.interval.contains(end):
            splits += _ladder(x0, end, math.inf).tolist()
        scale_deriv = None if fs.spec.identity_scale else _formula(fs.spec.scale_deriv)

        def integrand(y):
            # divided by the kernel twice, not by its square, which underflows
            # far from x0 while the quotient is still finite; S' = 1 in
            # natural scale
            k = kernel(y)
            f = (tail(y) - mass) / k / k
            return f if scale_deriv is None else f * scale_deriv(y)
        part = w * float(_between(integrand, x0, [x], splits, width)[0])
        if low:
            A, B = c1, (nu.total_mass - m_l) / psi_x0 + part / phi_x0
        else:
            A, B = (nu.total_mass - m_r) / phi_x0 + part / psi_x0, c2
        return A, B, psi_at, phi_at

    knots = np.asarray(nu.kinks, dtype=float)
    density = np.diff(_formula(nu.ac_cdf)(knots)) / np.diff(knots)
    y = min(max(x, nu.kinks[0]), nu.kinks[-1])
    k = int(knots.searchsorted(y))
    # k = 0 only where y is the first kink, so the piece below y is empty
    pts, density = np.insert(knots, k, y), np.insert(density, k, density[max(k - 1, 0)])
    locs = np.array([z for z, _ in nu.atoms], dtype=float)
    weights = np.array([wt for _, wt in nu.atoms], dtype=float)
    low = locs <= x
    below = float(_gap_integrals(psi, pts[:k + 1], width) @ density[:k]) \
        + sum((weights[low] * psi(locs[low])).tolist())
    above = float(_gap_integrals(phi, pts[k:], width) @ density[k:]) \
        + sum((weights[~low] * phi(locs[~low])).tolist())
    return c1 + below / w, c2 + above / w, psi_at, phi_at


def reconstruct(measure: RepresentingMeasure, spec: DiffusionSpec,
                alpha: float, x: float) -> float:
    """Evaluate the representation integral at x (normalized scale).

    Returns A phi(x) + B psi(x) with the coefficient pair of the module
    docstring: u(x) / u(x0) for a Martin measure of u or a Riesz measure
    built from one.  A Riesz measure rebuilt by :func:`measure_from_doc`
    integrates psi and phi against its sigma as :func:`_coefficients`
    describes; the result is as accurate as the document's piecewise-linear
    cumulative.  psi and phi are formed once per call, at x0 and x together.
    """
    fs = fundamental(spec, alpha)
    if not spec.interval.contains(x):
        raise DomainError(f"evaluation point {x} outside the state space")
    A, B, psi_at, phi_at = _coefficients(measure, fs, x)
    return A * phi_at[1] + B * psi_at[1]


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

    The derivatives are A phi+-(z) + B psi+-(z) + s, plus sigma({z}) on the
    left, with the coefficients and the by-parts slope s of the module
    docstring, times ``normalization``.  On a Riesz measure rebuilt by
    :func:`measure_from_doc` s = 0, and the derivatives are as accurate as
    the document.  The candidate itself enters only through the speed term
    m({z}) alpha u(z).
    """
    if measure.kind != "riesz":
        raise ParameterError("derivative_jump requires the Riesz measure "
                             "(use riesz_from_martin)")
    if not (measure.interval_left < z < measure.interval_right):
        raise DomainError(f"z = {z} must be an interior point")
    fs = fundamental(spec, alpha)
    A, B, (psi_x0, psi_z), (phi_x0, phi_z) = _coefficients(measure, fs, z)
    nu, x0, w = measure.base, measure.x0, fs.wronskian
    at = np.array(z, dtype=float)
    s = 0.0
    if nu is not None and z <= x0:
        below = float(_formula(nu.left_tail)(at)) + nu.atom_at(z) - nu.mass_left_boundary
        s = -w * below / (psi_z * phi_x0)
    elif nu is not None:
        above = float(_formula(nu.right_tail)(at)) - nu.mass_right_boundary
        s = w * above / (phi_z * psi_x0)
    scale = measure.normalization
    sigma_z = measure.atom_at(z)
    psi_ds, phi_ds = fs.psi_ds.__wrapped__, fs.phi_ds.__wrapped__

    def slope(side):
        return A * float(phi_ds(at, side)) + B * float(psi_ds(at, side)) + s

    right = scale * slope("right")
    left = scale * (slope("left") + sigma_z)
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


_MESH_MIN_ULPS = 64
_MESH_MAX_PANELS = 1000      # unresolved panels split at one level
_MESH_SPLIT = 4              # pieces of an unresolved panel


def _resolvent_rows(spec: DiffusionSpec, rates: list[FundamentalSolutions],
                    u: Callable, xs: np.ndarray, split_points) -> np.ndarray:
    """Integral of G(x, y) u(y) over [lo_x, hi_x] against the AC speed part.

    One row per (rate, x), where ``rates`` holds the fundamental solutions
    of each resolvent rate and [lo_x, hi_x] is x +- the rate's reach,
    clipped to the state space; returns an array of shape (rates, xs).  The
    mesh and its refinement rule are those of :func:`excessivity_check`.
    The split points hold every x, so each panel lies on one side of each
    row: per rate and panel the sums P = integral of psi u dm and
    Q = integral of phi u dm give row x phi(x) P / w for a panel left of x
    and psi(x) Q / w for one right of it.
    """
    nb, nx = len(rates), len(xs)
    # the distance past which G(x, .) has decayed by e^{-60}, plus 1
    reach = np.array([[60.0 / _exp_rate(fs) + 1.0] for fs in rates])
    lo = np.maximum(spec.interval.left, xs - reach).ravel()
    hi = np.minimum(spec.interval.right, xs + reach).ravel()
    span = hi - lo
    first, last = lo.min(), hi.max()
    edges = np.array(sorted({*lo, *hi, *(p for p in split_points if first < p < last)}))
    a, b = edges[:-1], edges[1:]
    inside = (lo[:, None] <= a) & (b <= hi[:, None])      # (rows, panels)
    left = b[None, :] <= np.tile(xs, nb)[:, None]
    rate = np.repeat(np.arange(nb), nx)
    by_left = np.concatenate([fs.phi.__wrapped__(xs) / fs.wronskian for fs in rates])[:, None]
    by_right = np.concatenate([fs.psi.__wrapped__(xs) / fs.wronskian for fs in rates])[:, None]
    speed_density = _formula(spec.speed_density)
    cut = np.arange(_MESH_SPLIT + 1) / _MESH_SPLIT

    def pieces(a, b):
        ends = a[:, None] + (b - a)[:, None] * cut
        ends[:, 0], ends[:, -1] = a, b
        return ends[:, :-1].ravel(), ends[:, 1:].ravel()

    def sums(a, b, reached):
        # (P, Q), each of shape (rates, panels); zero where no row reaches
        half = 0.5 * (b - a)
        ys = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        f = (_values(u, ys.ravel()) * speed_density(ys.ravel())).reshape(ys.shape)
        f *= half[:, None] * _GL_WEIGHTS
        P, Q = np.zeros((nb, len(a))), np.zeros((nb, len(a)))
        for i, fs in enumerate(rates):
            m = reached[i]
            if m.any():
                y, fm = ys[m], f[m]
                P[i, m] = (fs.psi.__wrapped__(y.ravel()).reshape(y.shape) * fm).sum(axis=1)
                Q[i, m] = (fs.phi.__wrapped__(y.ravel()).reshape(y.shape) * fm).sum(axis=1)
        return P, Q

    def row_sums(P, Q, use_left, use_right):
        # each row's share of each panel, multiplied only where it is used,
        # so that an unused product can neither overflow nor add a NaN
        out = np.zeros(use_left.shape)
        np.multiply(by_left, P[rate], out=out, where=use_left)
        np.multiply(by_right, Q[rate], out=out, where=use_right)
        return out

    def reached(inside):
        # a rate reaches a panel when the panel is inside some row's window
        return inside.reshape(nb, nx, -1).any(axis=1)

    # the first level evaluates the initial panels with their pieces
    n = len(a)
    ca, cb = pieces(a, b)
    first = reached(inside)
    P, Q = sums(np.concatenate((a, ca)), np.concatenate((b, cb)),
                np.concatenate((first, np.repeat(first, _MESH_SPLIT, axis=1)), axis=1))
    whole_P, whole_Q, P, Q = P[:, :n], Q[:, :n], P[:, n:], Q[:, n:]
    total = np.zeros(nb * nx)
    while True:
        n = len(a)
        split_P = P.reshape(nb, n, _MESH_SPLIT)
        split_Q = Q.reshape(nb, n, _MESH_SPLIT)
        use_left, use_right = inside & left, inside & ~left
        refined = row_sums(split_P.sum(axis=2), split_Q.sum(axis=2), use_left, use_right)
        change = np.abs(refined - row_sums(whole_P, whole_Q, use_left, use_right))
        tol = np.maximum(1e-13, 1e-11 * np.abs(total + refined.sum(axis=1)))
        bad = np.any(change > tol[:, None] * ((b - a) / span[:, None]), axis=0)
        total += refined[:, ~bad].sum(axis=1)
        if not bad.any():
            return total.reshape(nb, nx)
        # a panel a few ulps wide cannot be split any further
        mid = 0.5 * (a[bad] + b[bad])
        tiny = (b - a)[bad] <= _MESH_MIN_ULPS * np.spacing(np.abs(mid) + 1.0)
        if tiny.any() or np.count_nonzero(bad) > _MESH_MAX_PANELS:
            raise ConvergenceError(
                f"resolvent mesh on [{first}, {last}] at rates "
                f"{[fs.alpha for fs in rates]} did not converge: "
                f"{np.count_nonzero(bad)} panels still change when split",
                achieved=float(np.max(change[:, bad].sum(axis=1))))
        # the pieces of the unresolved panels are the next level's panels
        a = ca.reshape(n, _MESH_SPLIT)[bad].ravel()
        b = cb.reshape(n, _MESH_SPLIT)[bad].ravel()
        inside = np.repeat(inside[:, bad], _MESH_SPLIT, axis=1)
        left = np.repeat(left[:, bad], _MESH_SPLIT, axis=1)
        whole_P = split_P[:, bad].reshape(nb, -1)
        whole_Q = split_Q[:, bad].reshape(nb, -1)
        ca, cb = pieces(a, b)
        P, Q = sums(ca, cb, np.repeat(reached(inside), _MESH_SPLIT, axis=1))


def excessivity_check(spec: DiffusionSpec, alpha: float, u: Callable,
                      grid, betas, tol: float = 1e-6,
                      kinks: tuple[float, ...] = ()) -> ExcessivityReport:
    """Resolvent test of alpha-excessivity on a grid.

    For each grid point x and each beta checks

        beta * integral of G_{alpha+beta}(x, y) u(y) m(dy)  <=  u(x) + tol,

    with the tolerance scaled by max(1, u(x)), and that the left side is
    nondecreasing in beta (it approaches u(x) from below for excessive u).
    Each speed atom z adds its exact term G(x, z) u(z) m({z}) to every row.

    Row (beta, x) integrates the rest over [x - reach, x + reach] (clipped
    to the state space), where the kernel G_{alpha+beta} alone has decayed
    by e^{-60}.  u may grow like psi_alpha or phi_alpha, so the integrand
    decays only at rate theta_{alpha+beta} - theta_alpha, and a row can
    fall short: for u = psi_alpha, sticky c = 1, x = 0.5 and beta = 1, the
    row is 3.8e-3 (alpha = 5) and 0.50 (alpha = 50) below u(x) relative.
    Such a row never fails an excessive u, but it can hide a violation
    smaller than its shortfall.
    One panel mesh serves all rows of all betas: it is split at the grid
    points, the given kinks, the speed atoms and every row's integration
    ends, and each panel carries a 10-point Gauss-Legendre rule.  The kernel
    is factored, G(x, y) = psi(min(x, y)) phi(max(x, y)) / w, so a level
    needs the integrals of psi u dm and phi u dm over each panel per beta,
    not a (rows, nodes) matrix, and only over panels that some row of that
    beta reaches.  A panel is split into 4 equal pieces while splitting it
    changes some row by more than that row's share, in proportion to the
    panel's length, of max(1e-13, 1e-11 |I_x|), where I_x is the row's
    integral; these are the absolute and relative tolerances of an adaptive
    quadrature, so kinks of u missing from ``kinks`` are found by
    splitting.  The first level evaluates the initial panels and their
    pieces together.  u is called on 1-D float64 arrays and must return
    a finite array of the same shape (a finite scalar is broadcast): once
    on the grid points and speed atoms together, then once per refinement
    level, for all betas, on that level's mesh nodes.  Any other result
    shape, or a NaN or infinite value, raises :class:`ParameterError`.
    Raises :class:`ConvergenceError` (``achieved`` is the largest row change
    still unresolved) when a panel that still changes has shrunk to a few
    ulps, as at a jump of u off the mesh, or when more than 1000 panels need
    splitting at one level, as for an endless oscillation.  Raises
    :class:`DomainError`, naming beta and x, when a row is not finite, as
    where psi or phi of rate alpha + beta overflows a float at x.  An empty
    ``grid`` or ``betas`` raises :class:`ParameterError`, and a grid point
    outside the state space, or NaN, raises :class:`DomainError`.
    """
    grid = [float(x) for x in grid]
    betas = sorted(float(b) for b in betas)
    if not grid or not betas:
        raise ParameterError("excessivity_check needs at least one grid point "
                             "and one beta")
    if any(b <= 0 for b in betas):
        raise ParameterError("betas must be positive")
    for x in grid:
        if not spec.interval.contains(x):
            raise DomainError(f"grid point {x} outside the state space")
    xs = np.array(grid)
    locs = spec.atom_locations
    u = _formula(u)
    at = _values(u, np.concatenate((xs, locs)))
    bounds = at[:len(grid)]
    rates = [fundamental(spec, alpha + beta) for beta in betas]
    vals = _resolvent_rows(spec, rates, u, xs, sorted({*kinks, *locs, *grid}))
    for (loc, wt), u_loc in zip(spec.speed_atoms, at[len(grid):].tolist()):
        vals = vals + np.array([_formula(fs.green)(xs, loc) for fs in rates]) * u_loc * wt
    vals = np.array(betas)[:, None] * vals          # (beta, x)
    bad = np.argwhere(~np.isfinite(vals.T))
    if bad.size:
        k, i = bad[0]
        raise DomainError(
            f"resolvent row at x = {grid[k]}, beta = {betas[i]} is "
            f"{float(vals[i, k])}: the fundamental solutions of rate "
            f"{alpha + betas[i]:g} overflow a float there")
    # violations are judged relative to max(1, u(x)) pointwise
    max_violation = float(np.max((vals - bounds) / np.maximum(1.0, np.abs(bounds))))
    monotone_ok = not np.any(vals[1:] < vals[:-1] - 1e-7 * np.maximum(1.0, np.abs(vals[1:])))
    rows = tuple(zip(np.repeat(grid, len(betas)).tolist(), betas * len(grid),
                     vals.T.ravel().tolist(), np.repeat(bounds, len(betas)).tolist()))
    return ExcessivityReport(passed=max_violation <= tol and monotone_ok,
                             max_violation=max_violation,
                             monotone_ok=monotone_ok, rows=rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_doc(measure: RepresentingMeasure, tail_points: int = 65) -> dict:
    """Serialize to a plain document.

    Atom locations and weights round-trip exactly.  ``tail_samples`` hold the
    atom-free tail component on a finite sampling range (the absolutely
    continuous part is interpolated on reload, so it is resolution-limited by
    ``tail_points``, the number of samples per side: an int >= 2, or
    :class:`ParameterError`).
    """
    if isinstance(tail_points, bool) or not isinstance(tail_points, (int, np.integer)) \
            or tail_points < 2:
        raise ParameterError(f"tail_points must be an int >= 2, got {tail_points!r}")
    x0 = measure.x0
    span = max(1.0, abs(x0)) * 8.0
    lo, hi = max(measure.interval_left, x0 - span), min(measure.interval_right, x0 + span)
    left_xs = np.linspace(lo, x0, tail_points)
    right_xs = np.linspace(x0, hi, tail_points)
    vals = _formula(measure.ac_cdf)(np.concatenate((left_xs, right_xs)))
    left_vals, right_vals = vals[:tail_points], vals[tail_points:]
    if measure.kind != "martin":
        left_vals = -left_vals
    return {
        "kind": measure.kind,
        "x0": measure.x0,
        "normalization": measure.normalization,
        "total_mass": None if math.isnan(measure.total_mass) else measure.total_mass,
        "mass_left_boundary": measure.mass_left_boundary,
        "mass_right_boundary": measure.mass_right_boundary,
        "atoms": [{"location": z, "weight": wt} for z, wt in measure.atoms],
        "tail_samples": {
            "left": np.column_stack((left_xs, left_vals)).tolist(),
            "right": np.column_stack((right_xs, right_vals)).tolist(),
        },
    }


def measure_from_doc(doc: dict, spec: DiffusionSpec) -> RepresentingMeasure:
    """Rebuild a measure from its document.

    Atoms are restored exactly; the absolutely continuous part becomes a
    piecewise-linear interpolant of the stored samples.  A document with a
    missing field, a ``kind`` other than "martin" and "riesz", a non-finite
    number, an empty side of ``tail_samples``, or decreasing atom or sample
    locations raises :class:`ParameterError` naming the field; an x0 outside the state space
    raises :class:`DomainError`, as in :func:`martin_measure`.
    """
    try:
        kind = doc["kind"]
        x0 = float(doc["x0"])
        normalization = float(doc["normalization"])
        atoms = tuple((float(a["location"]), float(a["weight"])) for a in doc["atoms"])
        mass_left = float(doc["mass_left_boundary"])
        mass_right = float(doc["mass_right_boundary"])
        total = doc.get("total_mass")
        total = math.nan if total is None else float(total)
        left_samples = np.array(doc["tail_samples"]["left"], dtype=float).reshape(-1, 2)
        right_samples = np.array(doc["tail_samples"]["right"], dtype=float).reshape(-1, 2)
    except KeyError as err:
        raise ParameterError(
            f"measure document is missing the field {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise ParameterError(f"malformed measure document: {err}") from None
    if kind not in ("martin", "riesz"):
        raise ParameterError(f"measure document field 'kind' is {kind!r}; "
                             "expected 'martin' or 'riesz'")
    # a Riesz measure has no total mass
    for name, value in (("x0", x0), ("normalization", normalization),
                        ("total_mass", total if kind == "martin" else 0.0),
                        ("mass_left_boundary", mass_left), ("mass_right_boundary", mass_right),
                        ("atoms", np.reshape(atoms, (-1, 2))), ("tail_samples.left", left_samples),
                        ("tail_samples.right", right_samples)):
        if not np.isfinite(value).all():
            raise ParameterError(f"measure document field {name!r} holds a non-finite number")
        if name.startswith("tail_samples") and not value.size:
            raise ParameterError(f"measure document field {name!r} is empty")
        if isinstance(value, np.ndarray) and (value[1:, 0] < value[:-1, 0]).any():
            raise ParameterError(f"measure document field {name!r} has decreasing locations")
    if not spec.interval.contains(x0):
        raise DomainError(f"normalization point {x0} outside the state space")

    def ac_left(y):
        return np.interp(y, left_samples[:, 0], left_samples[:, 1])

    def ac_right(y):
        return np.interp(y, right_samples[:, 0], right_samples[:, 1])

    if kind == "martin":
        @_scalar_aware
        def left_tail(y):   # nu([l, y))
            return ac_left(y) + _atoms_below(atoms, y, strict=True) + mass_left

        @_scalar_aware
        def right_tail(y):  # nu((y, r]) = total - nu([l, y])
            return total - mass_left - ac_right(y) - _atoms_below(atoms, y, strict=False)
    else:
        left_tail, right_tail = _scalar_aware(ac_left), _scalar_aware(ac_right)

    # the interpolated cumulative is piecewise linear, so quadrature panels
    # must split at every sample point, and at the speed atoms
    kinks = tuple(sorted({x0, *(a[0] for a in atoms), *spec.atom_locations,
                          *left_samples[:, 0].tolist(), *right_samples[:, 0].tolist()}))
    return RepresentingMeasure(
        kind=kind, x0=x0, normalization=normalization,
        total_mass=total, mass_left_boundary=mass_left,
        mass_right_boundary=mass_right, atoms=atoms, kinks=kinks,
        interval_left=spec.interval.left, interval_right=spec.interval.right,
        left_tail=left_tail, right_tail=right_tail,
    )
