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
convergence loop.  The integrals of psi and phi against sigma behind the
derivative jump reduce to the same two integrals plus tail values.

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
    source Martin measure, through which :func:`reconstruct` and
    :func:`derivative_jump` integrate.

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
        for loc, w in self.atoms:
            if loc == z:
                return w
        return 0.0

    def ac_cdf(self, y):
        """Continuous cumulative of the absolutely continuous part.

        Martin kind: nu_ac mass of [l, y].  Riesz kind: signed cumulative of
        sigma_ac relative to x0.  Only differences of this function are ever
        used, so the additive origin is immaterial.
        """
        y = np.asarray(y, dtype=float)
        if self.kind == "martin":
            below = self.left_tail(y) - _atoms_below(self.atoms, y, strict=True) \
                - self.mass_left_boundary
            above = self.total_mass - self.right_tail(y) \
                - _atoms_below(self.atoms, y, strict=False) - self.mass_left_boundary
            out = np.where(y <= self.x0, below, above)
            # the tail formulas are only meaningful strictly inside the
            # interval; at an included endpoint the AC mass so far is zero
            out = np.where(y <= self.interval_left, 0.0, out)
        else:
            out = np.where(y >= self.x0, self.right_tail(y), -self.left_tail(y))
        return float(out) if out.ndim == 0 else out


def _atoms_below(atoms, y, strict: bool):
    """Total weight of the sorted (location, weight) atoms at locations < y
    (``strict``) or <= y."""
    if not atoms:
        return np.zeros_like(np.asarray(y, dtype=float))
    locs = np.array([a[0] for a in atoms])
    cum = np.cumsum([a[1] for a in atoms])
    idx = np.searchsorted(locs, np.asarray(y, dtype=float),
                          side="left" if strict else "right")
    return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)


def _exp_rate(fs: FundamentalSolutions) -> float:
    return fs.theta + abs(fs.spec.mu)


def _boundary_limit(tail: Callable, start: float, endpoint: float,
                    cap: float) -> float:
    """Limit of a monotone tail toward an endpoint, by ladder refinement.

    The ladder runs from ``start`` toward the endpoint and stops on three
    equal values, so ``start`` must lie beyond every kink on that side:
    a plateau before a kink would otherwise pass for the limit.
    """
    vals = []
    for k in range(60):
        if math.isfinite(endpoint):
            x = endpoint + (start - endpoint) * 2.0 ** (-(k + 1))
        else:
            x = start + math.copysign(2.0 ** k, endpoint)
            if abs(x) > cap:
                break
        v = float(tail(x))
        vals.append(v)
        if len(vals) >= 3 and \
                abs(vals[-1] - vals[-2]) <= 1e-13 * (1.0 + abs(vals[-1])) and \
                abs(vals[-2] - vals[-3]) <= 1e-13 * (1.0 + abs(vals[-2])):
            return vals[-1]
    if not vals:
        return float(tail(start))
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
    probe = sorted({*candidate.kinks, *_atom_locations(spec)})
    # mass below x0 does not exist when x0 sits on an included left endpoint;
    # it surfaces through the x0 defect instead (symmetrically on the right).
    # Each limit's ladder starts at the outermost kink on its side.
    left_start = min([z for z in probe if l < z < x0], default=x0)
    right_start = max([z for z in probe if x0 < z < r], default=x0)
    left_limit = _boundary_limit(left_excl, left_start, l, cap) if x0 > l else 0.0
    right_limit = _boundary_limit(right_excl, right_start, r, cap) if x0 < r else 0.0

    # tail monotonicity scan over the numerically active range
    scan_left = max(l + 1e-9 * (1 + abs(l)) if math.isfinite(l) else x0 - cap, x0 - cap)
    scan_right = min(r - 1e-9 * (1 + abs(r)) if math.isfinite(r) else x0 + cap, x0 + cap)
    if scan_left < x0:
        _check_monotone_tail(left_excl, scan_left, x0, decreasing=False, what="left")
    if scan_right > x0:
        _check_monotone_tail(right_excl, x0, scan_right, decreasing=True, what="right")

    # atoms from tail jumps at declared kink points and speed atoms; kinks
    # at an included endpoint are picked up by the boundary-limit path
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
        left_tail=left_excl, right_tail=right_excl, candidate=candidate,
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


def _gl_panels(pts: np.ndarray, width: float):
    """10-point Gauss-Legendre panels on the gaps of the sorted points pts.

    Each gap is cut into equal panels no wider than ``width``.  Returns the
    nodes (one row per panel), the panels' half widths, and the index of
    each gap's first panel, so that ``np.add.reduceat(_panel_sums(...),
    first)`` gives one integral per gap.
    """
    gaps = np.diff(pts)
    pieces = np.maximum(1, np.ceil(gaps / width)).astype(int)
    first = np.cumsum(pieces) - pieces
    step = np.repeat(gaps / pieces, pieces)
    starts = np.repeat(pts[:-1], pieces) \
        + step * (np.arange(pieces.sum()) - np.repeat(first, pieces))
    half = 0.5 * step
    nodes = (starts + half)[:, None] + half[:, None] * _GL_NODES
    return nodes, half, first


def _panel_sums(f, nodes: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Integral over each panel of the function with values f at the nodes."""
    return (np.asarray(f, dtype=float).reshape(nodes.shape) @ _GL_WEIGHTS) * half


def _by_parts_integral(nu: RepresentingMeasure, fs: FundamentalSolutions,
                       x: float) -> float:
    """The integral in the by-parts identity of a Martin measure.

    For x <= x0 it is the integral over [x, x0] of (nu([l, y)) - m_l)
    S'(y) / psi(y)^2, for x >= x0 the integral over [x0, x] of
    (nu((y, r]) - m_r) S'(y) / phi(y)^2.  Panels split at the measure's kinks
    and the speed atoms and are cut to widths of at most
    0.25 / (theta + |mu|).  Toward a killing endpoint, where psi or phi
    vanishes, they are also split where the distance to it halves, so that
    no panel is closer to the pole of the integrand than its own width.
    """
    x0 = nu.x0
    a, b = min(x, x0), max(x, x0)
    if a == b:
        return 0.0
    end = nu.interval_left if x < x0 else nu.interval_right
    splits = [*nu.kinks, *_atom_locations(fs.spec)]
    if math.isfinite(end) and not fs.spec.interval.contains(end):
        splits += (end + (x0 - end) * 0.5 ** np.arange(1, 60)).tolist()
    pts = np.array(sorted({a, b, *(p for p in splits if a < p < b)}))
    nodes, half, _ = _gl_panels(pts, 0.25 / _exp_rate(fs))
    y = nodes.ravel()
    if x < x0:
        f = (nu.left_tail(y) - nu.mass_left_boundary) / fs.psi(y) ** 2
    else:
        f = (nu.right_tail(y) - nu.mass_right_boundary) / fs.phi(y) ** 2
    return float(_panel_sums(f * fs.spec.scale_deriv(y), nodes, half).sum())


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
    of u against the AC speed part is a cumulative over 10-point
    Gauss-Legendre panels between consecutive requested points, x0 and the
    measure's kinks, cut to widths of at most 2 / (theta + |mu|), the
    fastest exponential rate of u dm; u and the speed density are each
    called once on all nodes.  At an endpoint of the state space the inside
    one-sided derivative is used, so mass at the endpoint is not AC mass.
    There is no division by G and no convergence loop.

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
    kinks = np.array([k for k in measure.kinks if l < k < r], dtype=float)
    width = 2.0 / _exp_rate(fs)

    def scale_deriv(ys, side):
        # u+ on the right, u- on the left; at an endpoint, the inside one
        usual, inside = (cand.ds_right, cand.ds_left) if side == "right" \
            else (cand.ds_left, cand.ds_right)
        at_end = (ys >= r) if side == "right" else (ys <= l)
        d = np.empty_like(ys)
        for mask, fn in ((~at_end, usual), (at_end, inside)):
            if mask.any():
                d[mask] = fn(ys[mask])
        return d

    def speed_integral(ys, side):
        # integral of u against the AC speed part between x0 and each y
        lo, hi = min(ys.min(), x0), max(ys.max(), x0)
        pts = np.unique(np.concatenate((ys, [x0], kinks[(lo < kinks) & (kinks < hi)])))
        if len(pts) < 2:
            return np.zeros_like(ys)
        nodes, half, first = _gl_panels(pts, width)
        f = np.asarray(cand.value(nodes.ravel()), dtype=float) \
            * np.asarray(spec.speed_density(nodes.ravel()), dtype=float)
        gap_sums = np.add.reduceat(_panel_sums(f, nodes, half), first)
        # accumulate outward from x0, so tails near x0 keep their digits
        if side == "right":
            cum = np.concatenate(([0.0], np.cumsum(gap_sums)))
        else:
            cum = np.concatenate((np.cumsum(gap_sums[::-1])[::-1], [0.0]))
        return cum[np.searchsorted(pts, ys)]

    def tail(y, side):
        # sigma_ac((x0, y]) on the right, sigma_ac([y, x0)) on the left; a
        # point on the wrong side of x0 carries an empty range
        shape = np.shape(y)
        ys = np.asarray(y, dtype=float).ravel()
        sgn, strict = (1.0, False) if side == "right" else (-1.0, True)
        ys = np.maximum(ys, x0) if side == "right" else np.minimum(ys, x0)
        if not ys.size:
            return ys

        def in_range(atom_list):
            return sgn * (_atoms_below(atom_list, ys, strict)
                          - _atoms_below(atom_list, x0, strict))

        d = scale_deriv(np.append(ys, x0), side)
        out = (sgn * (d[-1] - d[:-1]) + alpha * speed_integral(ys, side)
               + in_range(speed_atoms)) / u0 - in_range(inner_atoms)
        return float(out[0]) if not shape else out.reshape(shape)

    return replace(
        measure, kind="riesz", atoms=atoms, total_mass=math.nan,
        left_tail=lambda y: tail(y, "left"), right_tail=lambda y: tail(y, "right"),
        base=measure,
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

    For a Martin measure of u (or a Riesz measure built from one) this
    returns u(x) / u(x0) by the by-parts identity of the module docstring:
    boundary masses and the total mass enter in closed form, atoms through
    the tail values, and the one remaining integral runs over the segment
    between x and x0 on 10-point Gauss-Legendre panels, split at the
    measure's kinks and the speed atoms, cut to widths of at most
    0.25 / (theta + |mu|) and split again where the distance to a killing
    endpoint halves.

    A Riesz measure rebuilt by :func:`measure_from_doc` integrates G(x, .)
    with the same rule and cap, on panels split at x, the speed atoms and
    its sample points, against the constant density of its piecewise-linear
    cumulative between sample points; its atoms and harmonic part enter
    exactly.
    """
    fs = fundamental(spec, alpha)
    if not spec.interval.contains(x):
        raise DomainError(f"evaluation point {x} outside the state space")
    nu = measure.base if measure.base is not None else measure
    if nu.kind == "riesz":
        return _reconstruct_riesz(nu, fs, x)
    x0, w = nu.x0, fs.wronskian
    psi_x, phi_x = float(fs.psi(x)), float(fs.phi(x))
    m_l, m_r = nu.mass_left_boundary, nu.mass_right_boundary
    psi_x0, phi_x0 = float(fs.psi(x0)), float(fs.phi(x0))
    part = w * _by_parts_integral(nu, fs, x)
    if x <= x0:
        return (m_l * phi_x / phi_x0 + (nu.total_mass - m_l) * psi_x / psi_x0
                + part * psi_x / phi_x0)
    return (m_r * psi_x / psi_x0 + (nu.total_mass - m_r) * phi_x / phi_x0
            + part * phi_x / psi_x0)


def _reconstruct_riesz(sigma: RepresentingMeasure, fs: FundamentalSolutions,
                       x: float) -> float:
    """The Riesz representation at x of a measure rebuilt from a document."""
    pts = np.array(sorted({x, *sigma.kinks, *_atom_locations(fs.spec)}))
    nodes, half, first = _gl_panels(pts, 0.25 / _exp_rate(fs))
    kernel = np.add.reduceat(_panel_sums(fs.green(x, nodes.ravel()), nodes, half), first)
    density = np.diff(sigma.ac_cdf(pts)) / np.diff(pts)
    out = float(kernel @ density)
    out += sum(wt * float(fs.green(x, z)) for z, wt in sigma.atoms)
    c1, c2 = harmonic_coefficients(sigma, fs)
    return out + c1 * float(fs.phi(x)) + c2 * float(fs.psi(x))


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

    The derivatives combine the integrals of psi and phi against sigma on
    either side of z.  These come from the source Martin measure: tail
    values and boundary masses in closed form, plus the by-parts integral
    between z and x0 of the module docstring on 10-point Gauss-Legendre
    panels, split and cut as in :func:`reconstruct` (widths of at most
    0.25 / (theta + |mu|)).  The candidate itself enters only through the
    speed term m({z}) alpha u(z).
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
    x0, w = measure.x0, fs.wronskian
    psi_x0, phi_x0 = float(fs.psi(x0)), float(fs.phi(x0))
    psi_z, phi_z = float(fs.psi(z)), float(fs.phi(z))
    scale = measure.normalization
    sigma_z = measure.atom_at(z)

    # i1 = integral of psi dsigma over (l, z], i2 = integral of phi dsigma
    # over (z, r).  psi / G(x0, .) is w / phi(x0) below x0 and phi / G(x0, .)
    # is w / psi(x0) above it; on the other side of x0 the by-parts
    # integral carries the weight, corrected by closed-form tail values.
    inner = nu.total_mass - nu.mass_left_boundary - nu.mass_right_boundary
    part = w * _by_parts_integral(nu, fs, z)
    if z <= x0:
        below = float(nu.left_tail(z)) + nu.atom_at(z) - nu.mass_left_boundary
        i1_closed = (w / phi_x0) * below
        i2_open = (w / psi_x0) * inner + (w / phi_x0) * (part - phi_z / psi_z * below)
    else:
        above = float(nu.right_tail(z)) - nu.mass_right_boundary
        i2_open = (w / psi_x0) * above
        i1_closed = (w / phi_x0) * inner + (w / psi_x0) * (part - psi_z / phi_z * above)
    i1_open = i1_closed - psi_z * sigma_z
    i2_closed = i2_open + phi_z * sigma_z

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


_MESH_MIN_ULPS = 64
_MESH_MAX_PANELS = 1000      # panels halved at one level


def _values(u: Callable, ys: np.ndarray) -> np.ndarray:
    """u on the 1-D float64 array ys, a scalar result broadcast to its shape."""
    f = np.asarray(u(ys), dtype=float)
    if f.ndim == 0:
        return np.full(ys.shape, float(f))
    if f.shape != ys.shape:
        raise ParameterError(
            f"u returned shape {f.shape} for an array of shape {ys.shape}; u "
            "must take a 1-D float array and return an array of that shape "
            "or a scalar")
    return f


def _resolvent_integrals(spec: DiffusionSpec, fsb: FundamentalSolutions,
                         u: Callable, xs: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray, split_points) -> np.ndarray:
    """Integral of G(x, y) u(y) over [lo_x, hi_x] against the AC speed part.

    One panel mesh serves every row x.  Its initial panels run between the
    rows' endpoints and the split points; each holds a 10-point
    Gauss-Legendre rule.  A panel is halved while halving it changes some
    row's sum by more than that row's share, in proportion to the panel's
    length, of max(1e-13, 1e-11 |I_x|).  u is called once per refinement
    level, on the array of that level's nodes.
    """
    edges = np.array(sorted({*lo, *hi, *(p for p in split_points
                                          if lo.min() < p < hi.max())}))
    span = hi - lo

    def panel_sums(a, b):
        half = 0.5 * (b - a)
        ys = ((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES).ravel()
        f = _values(u, ys) * np.asarray(spec.speed_density(ys), dtype=float)
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
    halving.  G is evaluated as one (rows, nodes) matrix.  u is called on
    1-D float64 arrays and must return an array of the same shape (a scalar
    is broadcast): once on the grid points and speed atoms together, then
    once per refinement level on that level's mesh nodes.  Any other result
    shape raises :class:`ParameterError`.  Raises :class:`ConvergenceError`
    (``achieved`` is the largest row change still unresolved) when a panel
    that still changes has shrunk to a few ulps, as at a jump of u off the
    mesh, or when more than 1000 panels need halving at one level, as for an
    endless oscillation.
    """
    grid = [float(x) for x in grid]
    betas = sorted(float(b) for b in betas)
    if any(b <= 0 for b in betas):
        raise ParameterError("betas must be positive")
    xs = np.array(grid)
    locs = _atom_locations(spec)
    at = _values(u, np.concatenate((xs, locs)))
    bounds = at[:len(grid)].tolist()
    atoms = [(loc, wt, u_loc) for (loc, wt), u_loc
             in zip(spec.speed_atoms, at[len(grid):].tolist())]
    split_points = sorted({*kinks, *locs, *grid})
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
    left_vals = np.asarray(measure.ac_cdf(left_xs), dtype=float)
    right_vals = np.asarray(measure.ac_cdf(right_xs), dtype=float)
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
            "left": [[float(t), float(v)] for t, v in zip(left_xs, left_vals)],
            "right": [[float(t), float(v)] for t, v in zip(right_xs, right_vals)],
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

    if kind == "martin":
        def left_tail(y):   # nu([l, y))
            y = np.asarray(y, dtype=float)
            return ac_left(y) + _atoms_below(atoms, y, strict=True) + mass_left

        def right_tail(y):  # nu((y, r]) = total - nu([l, y])
            y = np.asarray(y, dtype=float)
            return total - mass_left - ac_right(y) - _atoms_below(atoms, y, strict=False)
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
