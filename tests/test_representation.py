"""Martin/Riesz measures, reconstruction, derivative jumps, excessivity."""

import math
import re
from collections import Counter
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest

from diffstop import representation
from diffstop.diffusion import (
    _values,
    fundamental,
    green,
    hitting_laplace,
    make_drift_bm,
    make_reflected_killed_bm,
    make_sticky_bm,
)
from diffstop.errors import (
    ConvergenceError,
    DomainError,
    NotExcessiveError,
    ParameterError,
)
from diffstop.representation import (
    ExcessiveCandidate,
    RepresentingMeasure,
    _GL_NODES,
    _GL_WEIGHTS,
    _atoms_below,
    _between,
    _boundary_limit,
    _exp_rate,
    _gap_integrals,
    _ladder,
    candidate_from_callable,
    derivative_jump,
    excessivity_check,
    f_derivative,
    green_candidate,
    martin_measure,
    measure_from_doc,
    measure_to_doc,
    phi_candidate,
    psi_candidate,
    reconstruct,
    riesz_from_martin,
)
from diffstop.stopping import (default_reward, solve_threshold, value_candidate,
                               value_function)

STICKY = make_sticky_bm(0.0, 1.0)


class TestMartinMeasure:
    def test_green_candidate_is_point_mass(self):
        cand = green_candidate(STICKY, 0.5, y0=0.7, x0=0.0)
        m = martin_measure(STICKY, 0.5, cand)
        assert m.atoms == ((0.7, pytest.approx(1.0, abs=1e-12)),)
        assert m.mass_left_boundary == 0.0
        assert m.mass_right_boundary == 0.0
        assert m.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_green_candidate_pole_below_x0(self):
        cand = green_candidate(STICKY, 0.5, y0=-0.3, x0=0.5)
        m = martin_measure(STICKY, 0.5, cand)
        assert len(m.atoms) == 1
        z, w = m.atoms[0]
        assert z == -0.3 and w == pytest.approx(1.0, abs=1e-12)

    def test_green_pole_at_x0_detected_via_mass_defect(self):
        cand = green_candidate(STICKY, 0.5, y0=0.25, x0=0.25)
        m = martin_measure(STICKY, 0.5, cand)
        assert m.atom_at(0.25) == pytest.approx(1.0, abs=1e-12)

    def test_psi_mass_at_right_boundary(self):
        m = martin_measure(STICKY, 0.5, psi_candidate(STICKY, 0.5, x0=0.0))
        assert m.mass_right_boundary == pytest.approx(1.0, abs=1e-10)
        assert m.atoms == () and m.mass_left_boundary == 0.0

    def test_phi_mass_at_left_boundary(self):
        m = martin_measure(STICKY, 0.5, phi_candidate(STICKY, 0.5, x0=0.0))
        assert m.mass_left_boundary == pytest.approx(1.0, abs=1e-10)
        assert m.atoms == () and m.mass_right_boundary == 0.0

    def test_value_function_atom_at_sticky_point(self):
        # alpha = 0.25, c = 1, x0 = 1: unnormalized atom weight
        # (phi(x0)/w)(sqrt(2 alpha) - 1 + 2 alpha c)
        alpha = 0.25
        cand = value_candidate(alpha, 1.0)
        assert cand.x0 == 1.0
        fs = fundamental(STICKY, alpha)
        m = martin_measure(STICKY, alpha, cand)
        raw_atom = m.atom_at(0.0) * m.normalization
        factor = math.sqrt(2 * alpha) - 1.0 + 2 * alpha
        expected = float(fs.phi(1.0)) / fs.wronskian * factor
        assert float(fs.phi(1.0)) / fs.wronskian == pytest.approx(0.257583, abs=5e-7)
        assert expected == pytest.approx(0.0533472, abs=5e-7)
        assert raw_atom == pytest.approx(expected, abs=1e-12)

    def test_value_function_no_mass_below_threshold(self):
        m = martin_measure(STICKY, 0.25, value_candidate(0.25, 1.0))
        assert m.mass_left_boundary == 0.0
        assert float(m.left_tail(-3.0)) == pytest.approx(0.0, abs=1e-14)

    def test_martin_total_mass_is_one(self):
        candidates = [
            green_candidate(STICKY, 0.5, 0.7, x0=0.0),
            psi_candidate(STICKY, 0.5, x0=0.0),
            phi_candidate(STICKY, 0.5, x0=0.0),
            value_candidate(0.5, 1.0),
            value_candidate(0.1, 1.0),
            value_candidate(0.6, 1.0),
        ]
        for cand in candidates:
            m = martin_measure(STICKY, 0.5 if "value" not in cand.label else
                               float(cand.label.split("=")[1].split(",")[0]),
                               cand)
            interior = sum(w for _, w in m.atoms)
            assert m.total_mass == pytest.approx(1.0, abs=1e-10)
            assert interior + m.mass_left_boundary + m.mass_right_boundary <= 1.0 + 1e-9

    def test_raw_reward_rejected_as_not_excessive(self):
        g = default_reward()
        cand = candidate_from_callable(STICKY, g.value, x0=1.0, kinks=(-1.0, 0.0))
        with pytest.raises(NotExcessiveError):
            martin_measure(STICKY, 0.25, cand)

    @pytest.mark.parametrize("u, x0, message", [
        (lambda x: 1.0 + 3.0 * np.exp(-x ** 2), 0.0, "negative"),
        (lambda x: 1.0 + 3.0 * np.exp(-x ** 2), 3.0, "negative"),
        (lambda x: 1.0 + 3.0 * np.exp(-(x - 2.0) ** 2), 0.0, "negative"),
        (lambda x: 1.0 + 3.0 * np.exp(-(x - 4.0) ** 2), 0.0, "negative"),
        (lambda x: 1.0 + 3.0 * np.exp(-(x + 4.0) ** 2), 0.0, "negative"),
        (lambda x: 10.0 + np.exp(-((x - 0.5) / 0.2) ** 2), 0.0, "not monotone"),
    ], ids=["bump-0", "bump-0-x0-3", "bump-2", "bump-4", "bump-minus-4",
            "narrow-bump-0.5"])
    def test_narrow_violation_near_x0_rejected(self, u, x0, message):
        # the resolvent check fails each of these; an even scan of
        # x0 +- 600/rate, 2.3 apart at alpha = 0.5, stepped over the
        # violation and returned a measure with negative density
        assert not excessivity_check(STICKY, 0.5, u, np.linspace(-6, 6, 49),
                                     (1.0, 10.0, 100.0, 1000.0)).passed
        with pytest.raises(NotExcessiveError, match=message):
            martin_measure(STICKY, 0.5, candidate_from_callable(STICKY, u, x0))

    @pytest.mark.parametrize("make", [
        lambda rk: green_candidate(rk, 1.0, 1.5, x0=0.5),
        lambda rk: martin_measure(rk, 1.0, psi_candidate(rk, 1.0, x0=-0.5)),
    ], ids=["green-pole", "martin-x0"])
    def test_point_outside_state_space_rejected(self, make):
        with pytest.raises(DomainError, match="outside the state space"):
            make(make_reflected_killed_bm())

    def test_bad_normalization_point(self):
        g = green_candidate(STICKY, 0.5, 0.7, x0=0.0)
        with pytest.raises(ParameterError):
            martin_measure(STICKY, 0.5, type(g)(
                value=lambda x: 0.0 * np.asarray(x), ds_right=g.ds_right,
                ds_left=g.ds_left, x0=0.0, kinks=g.kinks))


class TestCandidateBuilder:
    @pytest.mark.parametrize("cand, kinks", [
        (green_candidate(STICKY, 0.3, 0.5), (0.0, 0.5)),
        (green_candidate(STICKY, 0.3, 0.0), (0.0,)),
        (green_candidate(make_reflected_killed_bm(), 0.3, 0.5), (0.5,)),
        (psi_candidate(STICKY, 0.3), (0.0,)),
        (phi_candidate(make_reflected_killed_bm(), 0.3, x0=0.5), ()),
        (value_candidate(0.1, 1.0), (0.0, 0.8976069230774729)),
        (value_candidate(0.3, 1.0), (0.0,)),
        (value_candidate(0.8, 1.0), (1.0 / math.sqrt(1.6) - 1.0, 0.0)),
        (candidate_from_callable(STICKY, np.cosh, 0.5, kinks=(1.0, 0.0)), (0.0, 1.0)),
    ], ids=["green", "green-at-atom", "green-rk", "psi", "phi-rk", "value-0.1",
            "value-0.3", "value-0.8", "callable"])
    def test_kinks_hold_the_speed_atoms_once_in_order(self, cand, kinks):
        assert cand.kinks == pytest.approx(kinks, rel=1e-15)
        assert list(cand.kinks) == sorted(set(cand.kinks))


def _combination(a, b, eps, kinks):
    """The candidate a - eps * b, normalized at a's x0, with the given kinks."""
    return ExcessiveCandidate(lambda x: a.value(x) - eps * b.value(x),
                              lambda x: a.ds_right(x) - eps * b.ds_right(x),
                              lambda x: a.ds_left(x) - eps * b.ds_left(x), a.x0, kinks)


def _oscillating_psi():
    """psi (2 + sin log(1 + x^2)): its right tail follows the oscillation at
    the ladder points x0 + 2^k, so its limit never settles."""
    fs = fundamental(STICKY, 0.5)
    h = lambda x: 2.0 + np.sin(np.log1p(x * x))
    dh = lambda x: np.cos(np.log1p(x * x)) * 2.0 * x / (1.0 + x * x)
    return ExcessiveCandidate(
        lambda x: fs.psi(x) * h(x),
        lambda x: fs.psi_ds(x, "right") * h(x) + fs.psi(x) * dh(x),
        lambda x: fs.psi_ds(x, "left") * h(x) + fs.psi(x) * dh(x), 0.0, (0.0,))


class TestMartinErrors:
    """Each rule of martin_measure raises its own class and message.  The
    number in the message is the offending quantity: a value function at
    alpha = 0.25 minus 1e-3 G(., z) has the Martin atom -1e-3 G(x0, z) / u(x0)
    at z, which is a negative atom inside (0, inf) for z = 2 and an overshoot
    of the unit mass for z = x0 = 1."""

    NUMBER = r"(-?[0-9.]+(?:e[-+][0-9]+)?)"

    @pytest.mark.parametrize("alpha, make, error, pattern, want", [
        (0.5, lambda: candidate_from_callable(
            STICKY, lambda x: 1.0 + 3.0 * np.exp(-x ** 2), 0.0),
         NotExcessiveError, r"left tail is negative \(min {}\); the candidate is "
         r"not excessive at this rate", None),
        (0.5, lambda: candidate_from_callable(
            STICKY, lambda x: 10.0 + np.exp(-((x - 0.5) / 0.2) ** 2), 0.0),
         NotExcessiveError, r"right tail is not monotone \(violation {}\); the "
         r"candidate is not excessive at this rate", None),
        (0.25, lambda: _combination(value_candidate(0.25, 1.0),
                                    green_candidate(STICKY, 0.25, 2.0, x0=1.0),
                                    1e-3, (0.0, 2.0)),
         NotExcessiveError, r"negative measure atom {} at 2\.0; the candidate is "
         r"not excessive at this rate", (2.0, -1.0)),
        (0.5, _oscillating_psi, ConvergenceError,
         r"tail limit toward inf did not stabilize", None),
        (0.25, lambda: _combination(value_candidate(0.25, 1.0),
                                    green_candidate(STICKY, 0.25, 1.0, x0=1.0),
                                    1e-3, (0.0,)),
         NotExcessiveError, r"representing measure overshoots unit mass by {}",
         (1.0, 1.0)),
    ], ids=["negative-tail", "not-monotone", "negative-atom", "no-limit", "overshoot"])
    def test_class_and_message(self, alpha, make, error, pattern, want):
        with pytest.raises(error) as err:
            martin_measure(STICKY, alpha, make())
        assert type(err.value) is error
        match = re.fullmatch(pattern.format(self.NUMBER), str(err.value))
        assert match, str(err.value)
        if want is not None:
            z, sign = want
            fs = fundamental(STICKY, alpha)
            atom = 1e-3 * float(fs.green(1.0, z)) / float(value_function(alpha, 1.0, 1.0))
            assert float(match.group(1)) == pytest.approx(sign * atom, rel=5e-3)

    def test_scans_come_before_atoms(self):
        # at eps = 1 the tail grows across the negative atom at 2 by more
        # than the scan's absolutely continuous decrease: the scan's verdict
        # comes first
        v, g = value_candidate(0.25, 1.0), green_candidate(STICKY, 0.25, 2.0, x0=1.0)
        with pytest.raises(NotExcessiveError, match="right tail is not monotone"):
            martin_measure(STICKY, 0.25, _combination(v, g, 1.0, (0.0, 2.0)))


class TestOneReadPerSide:
    """martin_measure calls each side's tail once and the closed tail once
    at that side's interior kinks, so it calls the candidate a fixed number
    of times: u(x0), then u and one derivative per tail call.  That is 7
    calls for the value candidate and 5 for psi, where reading each side up
    to five times took 17 and 13."""

    @pytest.mark.parametrize("alpha, cand, want", [
        # kink 0 below x0 = 1: u(x0), left tail, closed left tail, right tail
        (0.25, value_candidate(0.25, 1.0),
         {"value": 4, "ds_left": 1, "ds_right": 2}),
        # the only kink is x0 itself: u(x0), left tail, right tail
        (0.5, psi_candidate(STICKY, 0.5), {"value": 3, "ds_left": 1, "ds_right": 1}),
        # pole 0.7 above x0 = 0: u(x0), left tail, right tail, closed right tail
        (0.5, green_candidate(STICKY, 0.5, 0.7), {"value": 4, "ds_left": 2, "ds_right": 1}),
    ], ids=["value", "psi", "green"])
    def test_candidate_calls(self, alpha, cand, want):
        calls = Counter()

        def counted(name):
            fn = getattr(cand, name)

            def wrapped(x):
                calls[name] += 1
                return fn(x)
            return wrapped

        wrapped = replace(cand, **{n: counted(n) for n in ("value", "ds_right", "ds_left")})
        m = martin_measure(STICKY, alpha, wrapped)
        assert dict(calls) == want
        assert m.atoms == martin_measure(STICKY, alpha, cand).atoms


class TestRieszConversion:
    def test_point_mass_scales_by_kernel(self):
        fs = fundamental(STICKY, 0.5)
        m = martin_measure(STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7, x0=0.0))
        r = riesz_from_martin(m, STICKY, 0.5)
        assert r.kind == "riesz"
        assert r.atom_at(0.7) == pytest.approx(1.0 / float(fs.green(0.0, 0.7)), rel=1e-12)

    def test_boundary_mass_becomes_harmonic(self):
        fs = fundamental(STICKY, 0.5)
        m = martin_measure(STICKY, 0.5, psi_candidate(STICKY, 0.5, x0=0.0))
        r = riesz_from_martin(m, STICKY, 0.5)
        assert r.mass_left_boundary == 0.0
        assert r.mass_right_boundary == pytest.approx(1.0, rel=1e-9)
        assert r.atoms == ()
        for x in (-2.0, -0.5, 0.7, 2.5):
            want = float(fs.psi(x)) / float(fs.psi(0.0))
            assert reconstruct(r, STICKY, 0.5, x) == pytest.approx(want, rel=1e-9)

    def test_reflected_killed_phi_is_pure_atom_at_origin(self):
        # sigma_phi = wronskian * dirac at the reflecting endpoint
        rk = make_reflected_killed_bm()
        fs = fundamental(rk, 0.5)
        m = martin_measure(rk, 0.5, phi_candidate(rk, 0.5, x0=0.5))
        r = riesz_from_martin(m, rk, 0.5)
        raw = r.atom_at(0.0) * r.normalization
        assert fs.wronskian == pytest.approx(1.543081, abs=5e-7)
        assert raw == pytest.approx(fs.wronskian, rel=1e-9)
        assert r.mass_left_boundary == 0.0     # included endpoint: not harmonic

    def test_requires_martin(self):
        m = martin_measure(STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7, x0=0.0))
        r = riesz_from_martin(m, STICKY, 0.5)
        with pytest.raises(ParameterError):
            riesz_from_martin(r, STICKY, 0.5)


def _doc_samples(doc):
    """(points, values) of a document's tail samples, left then right."""
    s = np.array(doc["tail_samples"]["left"] + doc["tail_samples"]["right"])
    return s[:, 0], s[:, 1]


# Romberg-Stieltjes quadrature against a measure's AC cumulative: an
# independent reference route for the Riesz tails

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


class TestRieszTails:
    """Riesz AC tails from the generator identity sigma = alpha u dm - d(u+)."""

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.8])
    def test_value_function_matches_closed_form(self, alpha):
        # V = 1 + y above x*, so sigma has density 2 alpha (1 + y) there and
        # no AC mass below, where V is harmonic
        x_star = solve_threshold(alpha, 1.0)
        cand = value_candidate(alpha, 1.0)
        x0, u0 = cand.x0, 1.0 + cand.x0
        r = riesz_from_martin(martin_measure(STICKY, alpha, cand), STICKY, alpha)

        def sigma_ac(a, b):
            lo = max(a, x_star)
            return alpha * ((1.0 + b) ** 2 - (1.0 + lo) ** 2) if b > lo else 0.0

        doc = measure_to_doc(r)
        for side in ("left", "right"):
            for t, v in doc["tail_samples"][side]:
                want = (sigma_ac(t, x0) if side == "left" else sigma_ac(x0, t)) / u0
                assert abs(v - want) <= 1e-12 * abs(want) if want else abs(v) <= 1e-14
        assert r.right_tail(4.0) == pytest.approx(sigma_ac(x0, 4.0) / u0, rel=1e-12)
        assert isinstance(r.right_tail(4.0), float)
        # far from x0 the quadrature panels are cut to the exponential rate
        assert r.left_tail(-30.0) == pytest.approx(sigma_ac(-30.0, x0) / u0, rel=1e-12)

    def test_agrees_with_stieltjes_route(self):
        # the Romberg-Stieltjes integral of 1 / G(x0, .) against the Martin
        # measure's AC part is an independent route to the same tails
        cand = value_candidate(0.5, 1.0)
        m = martin_measure(STICKY, 0.5, cand)
        r = riesz_from_martin(m, STICKY, 0.5)
        fs = fundamental(STICKY, 0.5)
        x0 = m.x0

        def weight(y):
            return 1.0 / fs.green(x0, y)

        for t in (1.5, 3.0, 6.0):
            assert r.right_tail(t) == pytest.approx(_integrate_ac(m, weight, x0, t), rel=1e-10)
        for t in (-2.0, -0.5, 0.5):
            assert r.left_tail(t) == pytest.approx(_integrate_ac(m, weight, t, x0),
                                                   rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("spec, alpha, make", [
        (STICKY, 0.5, lambda s, a: psi_candidate(s, a)),
        (STICKY, 0.5, lambda s, a: phi_candidate(s, a)),
        (make_sticky_bm(-0.3, 1.0), 0.5, lambda s, a: phi_candidate(s, a)),
        (make_sticky_bm(-0.3, 1.0), 0.5, lambda s, a: psi_candidate(s, a)),
        (STICKY, 0.5, lambda s, a: green_candidate(s, a, 0.7)),
        (make_sticky_bm(-0.4, 0.8), 1.2, lambda s, a: green_candidate(s, a, -0.9, x0=0.3)),
        (make_reflected_killed_bm(), 1.0, lambda s, a: psi_candidate(s, a, x0=0.2)),
        (make_reflected_killed_bm(), 1.0, lambda s, a: phi_candidate(s, a, x0=0.2)),
        (make_reflected_killed_bm(), 1.0, lambda s, a: green_candidate(s, a, 0.6, x0=0.2)),
    ])
    def test_no_ac_mass_for_harmonic_and_green_candidates(self, spec, alpha, make):
        r = riesz_from_martin(martin_measure(spec, alpha, make(spec, alpha)), spec, alpha)
        _, values = _doc_samples(measure_to_doc(r))
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values)) <= 1e-10

    def test_steep_harmonic_tail_is_rounding_level(self):
        # phi with drift grows fast toward -8: the sample at t is the
        # difference u-(t) - u-(x0) + alpha * integral of u dm, so rounding
        # leaves a few ulps of (|u-(t)| + |u-(x0)|) / u(x0), up to 5e5 here
        spec, alpha = make_sticky_bm(-0.2, 1.71), 0.863
        cand = phi_candidate(spec, alpha)
        r = riesz_from_martin(martin_measure(spec, alpha, cand), spec, alpha)
        samples = np.array(measure_to_doc(r)["tail_samples"]["left"])
        size = (np.abs(cand.ds_left(samples[:, 0])) + abs(cand.ds_left(0.0))) / cand.value(0.0)
        assert np.max(size) > 1e5
        assert np.all(np.abs(samples[:, 1]) <= 16 * np.finfo(float).eps * size)

    def test_reflecting_endpoint_atom_is_not_ac_mass(self):
        # sigma_phi = w * dirac at the included endpoint 0: the tails there
        # carry the AC mass only, which is zero
        rk = make_reflected_killed_bm()
        r = riesz_from_martin(martin_measure(rk, 0.5, phi_candidate(rk, 0.5)), rk, 0.5)
        doc = measure_to_doc(r)
        assert doc["tail_samples"]["left"][0] == [0.0, 0.0]
        r = riesz_from_martin(martin_measure(rk, 0.5, phi_candidate(rk, 0.5, x0=0.5)),
                              rk, 0.5)
        assert r.atom_at(0.0) > 1.0
        t, v = measure_to_doc(r)["tail_samples"]["left"][0]
        assert t == 0.0 and abs(v) <= 1e-14

    @pytest.mark.parametrize("spec, alpha, cand", [
        (STICKY, 0.25, value_candidate(0.25, 1.0)),
        (STICKY, 0.1, value_candidate(0.1, 1.0)),
        (STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7)),
        (make_sticky_bm(-0.3, 1.0), 0.5, phi_candidate(make_sticky_bm(-0.3, 1.0), 0.5)),
        (make_reflected_killed_bm(), 0.5, phi_candidate(make_reflected_killed_bm(), 0.5,
                                                        x0=0.5)),
        (make_reflected_killed_bm(), 1.0, green_candidate(make_reflected_killed_bm(), 1.0,
                                                          0.6, x0=0.2)),
    ])
    def test_martin_samples_match_pointwise_evaluation(self, spec, alpha, cand):
        # measure_to_doc evaluates ac_cdf on whole arrays; the samples are
        # bitwise those of one scalar call per point
        m = martin_measure(spec, alpha, cand)
        points, values = _doc_samples(measure_to_doc(m))
        reference = np.array([float(m.ac_cdf(float(t))) for t in points])
        assert np.array_equal(values, reference)

    def test_measure_from_doc_has_no_candidate(self):
        m = martin_measure(STICKY, 0.5, value_candidate(0.5, 1.0))
        back = measure_from_doc(measure_to_doc(m), STICKY)
        with pytest.raises(ParameterError):
            riesz_from_martin(back, STICKY, 0.5)


class TestReconstruct:
    def test_point_mass_normalizes_at_x0(self):
        m = martin_measure(STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7, x0=0.0))
        assert reconstruct(m, STICKY, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_value_function_at_minus_one(self):
        # V*(-1)/V*(1) = e^{-1}/2 at alpha = 0.5
        m = martin_measure(STICKY, 0.5, value_candidate(0.5, 1.0))
        got = reconstruct(m, STICKY, 0.5, -1.0)
        assert math.exp(-1.0) / 2.0 == pytest.approx(0.183940, abs=5e-7)
        assert got == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-10)

    def test_green_round_trip_on_grid(self):
        cand = green_candidate(STICKY, 0.5, 0.7, x0=0.0)
        m = martin_measure(STICKY, 0.5, cand)
        u0 = cand.value(0.0)
        xs = np.linspace(-2.5, 2.5, 20)
        errs = [abs(reconstruct(m, STICKY, 0.5, float(x)) - cand.value(float(x)) / u0)
                for x in xs]
        assert max(errs) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.6])
    def test_value_function_round_trip(self, alpha):
        cand = value_candidate(alpha, 1.0)
        m = martin_measure(STICKY, alpha, cand)
        u0 = cand.value(cand.x0)
        for x in np.linspace(-3.0, 3.0, 21):
            got = reconstruct(m, STICKY, alpha, float(x))
            assert got == pytest.approx(cand.value(float(x)) / u0, abs=1e-9)

    def test_riesz_reconstruct_matches_martin(self):
        cand = value_candidate(0.5, 1.0)
        m = martin_measure(STICKY, 0.5, cand)
        r = riesz_from_martin(m, STICKY, 0.5)
        for x in (-1.5, 0.0, 0.8):
            assert reconstruct(r, STICKY, 0.5, x) == \
                pytest.approx(reconstruct(m, STICKY, 0.5, x), abs=1e-10)

    def test_reconstructed_functions_are_continuous(self):
        # max adjacent increment shrinks under grid refinement across the
        # atom of the measure and the speed atom
        m = martin_measure(STICKY, 0.5, value_candidate(0.5, 1.0))
        prev = None
        for n in (41, 81, 161):
            xs = np.linspace(-0.5, 0.5, n)
            vals = np.array([reconstruct(m, STICKY, 0.5, float(x)) for x in xs])
            inc = float(np.max(np.abs(np.diff(vals))))
            if prev is not None:
                assert inc <= 0.62 * prev
            prev = inc

    @pytest.mark.parametrize("x0", [0.0, 0.25, 0.7])
    @pytest.mark.parametrize("alpha", [0.2, 4.0])
    def test_reflecting_endpoint_atom_counted_once(self, alpha, x0):
        # the phi measure is a unit atom at the included endpoint; evaluation
        # at and across that endpoint must not double count it
        rk = make_reflected_killed_bm()
        cand = phi_candidate(rk, alpha, x0=x0)
        m = martin_measure(rk, alpha, cand)
        assert m.atom_at(0.0) == pytest.approx(1.0, abs=1e-12)
        for x in (0.0, 0.3, 0.95):
            got = reconstruct(m, rk, alpha, x)
            assert got == pytest.approx(cand.value(x) / cand.value(x0), abs=1e-10)

    def test_out_of_domain(self):
        rk = make_reflected_killed_bm()
        m = martin_measure(rk, 0.5, psi_candidate(rk, 0.5, x0=0.5))
        with pytest.raises(DomainError):
            reconstruct(m, rk, 0.5, 1.0)


RK = make_reflected_killed_bm()

# one case per candidate family of the benchmark's representation workload
FAMILIES = [
    (STICKY, 0.1, value_candidate(0.1, 1.0)),          # x* > 0
    (STICKY, 0.3, value_candidate(0.3, 1.0)),          # x* = 0
    (STICKY, 0.8, value_candidate(0.8, 1.0)),          # x* < 0
    (make_sticky_bm(0.0, 1.7), 0.6, green_candidate(make_sticky_bm(0.0, 1.7), 0.6, -1.2)),
    (make_sticky_bm(0.0, 0.6), 0.9, green_candidate(make_sticky_bm(0.0, 0.6), 0.9, 1.3)),
    (STICKY, 0.4, psi_candidate(STICKY, 0.4)),
    (STICKY, 0.4, phi_candidate(STICKY, 0.4)),
    (make_sticky_bm(-0.45, 1.4), 0.3, psi_candidate(make_sticky_bm(-0.45, 1.4), 0.3)),
    (make_sticky_bm(-0.45, 1.4), 0.3, phi_candidate(make_sticky_bm(-0.45, 1.4), 0.3)),
    (RK, 1.3, psi_candidate(RK, 1.3, x0=0.15)),
    (RK, 0.7, phi_candidate(RK, 0.7, x0=0.25)),
] + [(RK, alpha, green_candidate(RK, alpha, y0, x0=x0))
     for alpha in (0.5, 2.0) for y0 in (0.5, 0.7, 0.85) for x0 in (0.1, 0.3)]


def _family_id(case):
    spec, alpha, cand = case
    return f"{spec.family.value}-mu{spec.mu}-{cand.label}-a{alpha}-x0{cand.x0}"


class TestByPartsRoute:
    """reconstruct and derivative_jump by integration by parts on panels."""

    def test_panel_rule_is_leggauss_bit_for_bit(self):
        # the literals stand in for leggauss(10), so every quadrature result
        # is what the computed rule gives
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("case", FAMILIES, ids=_family_id)
    def test_reconstruct_matches_closed_form(self, case):
        spec, alpha, cand = case
        m = martin_measure(spec, alpha, cand)
        if spec is RK:
            grid = [*np.linspace(0.0, 0.95, 9), 0.99]
        else:
            grid = np.linspace(-3.0, 3.0, 9)
        u0 = float(cand.value(cand.x0))
        for x in grid:
            want = float(cand.value(float(x))) / u0
            got = reconstruct(m, spec, alpha, float(x))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), x

    @pytest.mark.parametrize("case", FAMILIES, ids=_family_id)
    def test_derivative_jump_at_every_kink(self, case):
        # the one-sided derivatives integrated from the measure match the
        # candidate's closed-form ones
        spec, alpha, cand = case
        r = riesz_from_martin(martin_measure(spec, alpha, cand), spec, alpha)
        kinks = [z for z in cand.kinks if spec.interval.left < z < spec.interval.right]
        assert kinks or spec is RK
        for z in kinks:
            dj = derivative_jump(spec, alpha, cand, r, z)
            for got, want in ((dj.left, cand.ds_left(z)), (dj.right, cand.ds_right(z))):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), z
            assert dj.residual <= 1e-9

    def test_no_false_atom_at_reflecting_endpoint(self):
        # the pole at 0.07 sits next to the included endpoint 0: the tail
        # limit there must pass the pole before it settles
        fs = fundamental(RK, 1.0)
        m = martin_measure(RK, 1.0, green_candidate(RK, 1.0, 0.07, x0=0.85))
        assert [z for z, _ in m.atoms] == [0.07]
        want = float(fs.green(0.0, 0.07)) / float(fs.green(0.85, 0.07))
        assert reconstruct(m, RK, 1.0, 0.0) == pytest.approx(want, abs=1e-10)

    def test_no_false_mass_at_natural_endpoint(self):
        m = martin_measure(STICKY, 0.5, green_candidate(STICKY, 0.5, -5.0, x0=0.0))
        assert m.mass_left_boundary == 0.0
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec, alpha, cand", [
        (STICKY, 0.5, value_candidate(0.5, 1.0)),
        (make_sticky_bm(-0.3, 1.0), 0.5, green_candidate(make_sticky_bm(-0.3, 1.0), 0.5, 0.4)),
        (RK, 0.5, phi_candidate(RK, 0.5, x0=0.5)),
    ])
    def test_rebuilt_riesz_measure_matches_stieltjes_route(self, spec, alpha, cand):
        # a Riesz measure rebuilt from its document: panels against the
        # interpolated cumulative agree with Romberg-Stieltjes integration
        r = riesz_from_martin(martin_measure(spec, alpha, cand), spec, alpha)
        back = measure_from_doc(measure_to_doc(r), spec)
        fs = fundamental(spec, alpha)
        lo = max(spec.interval.left, min(back.kinks))
        hi = min(spec.interval.right, max(back.kinks))
        for x in (0.0, 0.3, 0.8):
            def kernel(y):
                return fs.green(x, np.asarray(y, dtype=float))

            want = _integrate_ac(back, kernel, lo, hi, extra_kinks=(x, 0.0))
            want += sum(wt * float(fs.green(x, z)) for z, wt in back.atoms)
            want += back.mass_left_boundary / float(fs.phi(back.x0)) * float(fs.phi(x))
            want += back.mass_right_boundary / float(fs.psi(back.x0)) * float(fs.psi(x))
            assert reconstruct(back, spec, alpha, x) == pytest.approx(want, rel=1e-10,
                                                                       abs=1e-14)


# The parent formulas that reconstruct and derivative_jump replaced with one
# coefficient pair (A, B), kept as references: the by-parts formula of a
# Martin measure, the G(x, .) sum of a rebuilt Riesz document, and the
# i1 / i2 assembly of the derivatives.  Their panels and harmonic
# coefficients are built here, so that a reference does not share the
# package's integrator.

def _panels(pts, width):
    """Gauss-Legendre panels on the gaps of the sorted points pts, each gap
    cut into equal panels no wider than ``width``: the nodes (one row per
    panel), the half widths and each gap's first panel."""
    gaps = np.diff(pts)
    pieces = np.maximum(1, np.ceil(gaps / width)).astype(int)
    first = np.cumsum(pieces) - pieces
    starts, half = [], []
    for a, gap, k in zip(pts[:-1].tolist(), gaps.tolist(), pieces.tolist()):
        step = gap / k
        starts += [a + step * j for j in range(k)]
        half += [0.5 * step] * k
    starts, half = np.array(starts), np.array(half)
    return (starts + half)[:, None] + half[:, None] * _GL_NODES, half, first


def _panel_sums(f, nodes, half):
    return (np.asarray(f, dtype=float).reshape(nodes.shape) @ _GL_WEIGHTS) * half


def _harmonic(nu, fs):
    """(c1, c2) multiplying phi and psi in the Riesz form."""
    return (nu.mass_left_boundary / float(fs.phi(nu.x0)),
            nu.mass_right_boundary / float(fs.psi(nu.x0)))


def _parent_by_parts(nu, fs, x):
    """The by-parts integral of a Martin measure: over [x, x0] of
    (nu([l, y)) - m_l) S'(y) / psi(y)^2 for x <= x0, over [x0, x] of
    (nu((y, r]) - m_r) S'(y) / phi(y)^2 above x0, on panels no wider than
    0.25 / (theta + |mu|) split at the kinks and, toward a killing
    endpoint, where the distance to it halves."""
    x0 = nu.x0
    a, b = min(x, x0), max(x, x0)
    if a == b:
        return 0.0
    end = nu.interval_left if x < x0 else nu.interval_right
    splits = list(nu.kinks)
    if math.isfinite(end) and not fs.spec.interval.contains(end):
        splits += [end + (x0 - end) * 0.5 ** k for k in range(1, 60)]
    pts = np.array(sorted({a, b, *(p for p in splits if a < p < b)}))
    tail, mass, kernel = (nu.left_tail, nu.mass_left_boundary, fs.psi) if x < x0 \
        else (nu.right_tail, nu.mass_right_boundary, fs.phi)
    nodes, half, _ = _panels(pts, 0.25 / _exp_rate(fs))
    y = nodes.ravel()
    f = (tail(y) - mass) / kernel(y) ** 2 * fs.spec.scale_deriv(y)
    return float(_panel_sums(f, nodes, half).sum())


def _parent_reconstruct(measure, spec, alpha, x):
    fs = fundamental(spec, alpha)
    nu = measure.base if measure.base is not None else measure
    if nu.kind == "riesz":
        return _green_sum(nu, fs, x)
    x0, w = nu.x0, fs.wronskian
    psi_x, phi_x = float(fs.psi(x)), float(fs.phi(x))
    m_l, m_r = nu.mass_left_boundary, nu.mass_right_boundary
    psi_x0, phi_x0 = float(fs.psi(x0)), float(fs.phi(x0))
    part = w * _parent_by_parts(nu, fs, x)
    if x <= x0:
        return (m_l * phi_x / phi_x0 + (nu.total_mass - m_l) * psi_x / psi_x0
                + part * psi_x / phi_x0)
    return (m_r * psi_x / psi_x0 + (nu.total_mass - m_r) * phi_x / phi_x0
            + part * phi_x / psi_x0)


def _green_panels(sigma, fs, x):
    """:func:`_panels` on the gaps of x and the kinks (which hold the speed
    atoms), no wider than 0.25 / (theta + |mu|), with the constant density
    of the interpolated cumulative on each gap."""
    pts = np.array(sorted({x, *sigma.kinks}))
    nodes, half, first = _panels(pts, 0.25 / _exp_rate(fs))
    return nodes, half, first, np.diff(sigma.ac_cdf(pts)) / np.diff(pts)


def _green_sum(sigma, fs, x):
    """The Riesz representation at x of a measure rebuilt from a document."""
    nodes, half, first, density = _green_panels(sigma, fs, x)
    kernel = np.add.reduceat(_panel_sums(fs.green(x, nodes.ravel()), nodes, half), first)
    out = float(kernel @ density)
    out += sum(wt * float(fs.green(x, z)) for z, wt in sigma.atoms)
    c1, c2 = _harmonic(sigma, fs)
    return out + c1 * float(fs.phi(x)) + c2 * float(fs.psi(x))


def _green_sum_slopes(sigma, fs, x):
    """(left, right) scale derivatives at x of the G(x, .) sum: the kernel
    is psi(y) phi(x) / w for y left of x and psi(x) phi(y) / w right of it,
    and an atom at x counts on the left for the right derivative and on the
    right for the left one."""
    nodes, half, first, density = _green_panels(sigma, fs, x)
    y = nodes.ravel()
    low = np.add.reduceat(_panel_sums(np.where(y <= x, fs.psi(np.minimum(y, x)), 0.0),
                                      nodes, half), first) @ density
    high = np.add.reduceat(_panel_sums(np.where(y > x, fs.phi(np.maximum(y, x)), 0.0),
                                       nodes, half), first) @ density
    c1, c2 = _harmonic(sigma, fs)
    w = fs.wronskian
    out = []
    for side in ("left", "right"):
        a, b = c1 + low / w, c2 + high / w
        for z, wt in sigma.atoms:
            if z < x or (z == x and side == "right"):
                a += wt * float(fs.psi(z)) / w
            else:
                b += wt * float(fs.phi(z)) / w
        out.append(sigma.normalization * (a * fs.phi_ds(x, side) + b * fs.psi_ds(x, side)))
    return tuple(out)


def _parent_slopes(spec, alpha, measure, z):
    """(left, right) from the integrals i1 of psi against sigma over (l, z]
    and i2 of phi over (z, r), on a Riesz measure built from a Martin one."""
    fs = fundamental(spec, alpha)
    nu = measure.base
    x0, w = measure.x0, fs.wronskian
    psi_x0, phi_x0 = float(fs.psi(x0)), float(fs.phi(x0))
    psi_z, phi_z = float(fs.psi(z)), float(fs.phi(z))
    scale = measure.normalization
    sigma_z = measure.atom_at(z)
    inner = nu.total_mass - nu.mass_left_boundary - nu.mass_right_boundary
    part = w * _parent_by_parts(nu, fs, z)
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
    c1, c2 = _harmonic(nu, fs)
    phi_r, phi_l = fs.phi_ds(z, "right"), fs.phi_ds(z, "left")
    psi_r, psi_l = fs.psi_ds(z, "right"), fs.psi_ds(z, "left")
    right = scale * ((phi_r * i1_closed + psi_r * i2_open) / w + c1 * phi_r + c2 * psi_r)
    left = scale * ((phi_l * i1_open + psi_l * i2_closed) / w + c1 * phi_l + c2 * psi_l)
    return left, right


def _close(got, want, rtol=1e-14):
    return abs(got - want) <= rtol * max(1.0, abs(want))


class TestCoefficients:
    """reconstruct and derivative_jump read one coefficient pair (A, B)."""

    @staticmethod
    def measures(case):
        spec, alpha, cand = case
        m = martin_measure(spec, alpha, cand)
        r = riesz_from_martin(m, spec, alpha)
        return m, r, measure_from_doc(measure_to_doc(r), spec)

    @staticmethod
    def points(case):
        spec, alpha, cand = case
        inner = [z for z in cand.kinks if spec.interval.left < z < spec.interval.right]
        # the fourth right sample of the document, as measure_to_doc places it
        span = 8.0 * max(1.0, abs(cand.x0))
        on_sample = np.linspace(cand.x0, min(spec.interval.right, cand.x0 + span), 65)[3]
        if spec is RK:
            return sorted({*inner, on_sample, 0.05, 0.3, 0.6, 0.9})
        # -20, -9.5, 12 and 25 lie beyond a document's samples
        return sorted({*inner, on_sample, -20.0, -9.5, -2.5, -0.6, 0.4, 1.1, 2.5, 12.0, 25.0})

    @pytest.mark.parametrize("case", FAMILIES, ids=_family_id)
    def test_reconstruct_matches_parent(self, case):
        spec, alpha, cand = case
        m, r, back = self.measures(case)
        for x in self.points(case):
            for nu in (m, r, back):
                want = _parent_reconstruct(nu, spec, alpha, x)
                assert _close(reconstruct(nu, spec, alpha, x), want), (x, nu.kind)

    @pytest.mark.parametrize("case", FAMILIES, ids=_family_id)
    def test_derivative_jump_matches_parent(self, case):
        spec, alpha, cand = case
        _, r, back = self.measures(case)
        fs = fundamental(spec, alpha)
        for z in self.points(case):
            for nu, (left, right) in ((r, _parent_slopes(spec, alpha, r, z)),
                                      (back, _green_sum_slopes(back, fs, z))):
                dj = derivative_jump(spec, alpha, cand, nu, z)
                assert _close(dj.left, left) and _close(dj.right, right), (z, nu.base)
                assert _close(dj.jump, left - right), (z, nu.base)


# A reference reconstruct and derivative_jump built from the public
# evaluators alone: psi, phi, psi_ds, phi_ds, scale_deriv, the measure tails
# and ac_cdf are called through their scalar-convention wrappers, one point
# or one array at a time, on the package's panels (_between, _gap_integrals).
# The package calls the array formulas behind the same evaluators, so the
# two must agree bit for bit.

def _public_coefficients(measure, fs, x):
    nu = measure.base if measure.base is not None else measure
    x0, w = nu.x0, fs.wronskian
    m_l, m_r = nu.mass_left_boundary, nu.mass_right_boundary
    psi_x0, phi_x0 = fs.psi(x0), fs.phi(x0)
    c1, c2 = m_l / phi_x0, m_r / psi_x0
    width = 0.25 / _exp_rate(fs)
    if nu.kind == "martin":
        low = x <= x0
        end, tail, mass, kernel = (nu.interval_left, nu.left_tail, m_l, fs.psi) if low \
            else (nu.interval_right, nu.right_tail, m_r, fs.phi)
        splits = list(nu.kinks)
        if math.isfinite(end) and not fs.spec.interval.contains(end):
            splits += _ladder(x0, end, math.inf).tolist()
        part = w * float(_between(
            lambda y: (tail(y) - mass) / kernel(y) / kernel(y) * fs.spec.scale_deriv(y),
            x0, [x], splits, width)[0])
        if low:
            return c1, (nu.total_mass - m_l) / psi_x0 + part / phi_x0
        return (nu.total_mass - m_r) / phi_x0 + part / psi_x0, c2
    knots = np.asarray(nu.kinks)
    density = np.diff(nu.ac_cdf(knots)) / np.diff(knots)
    y = min(max(x, nu.kinks[0]), nu.kinks[-1])
    k = int(knots.searchsorted(y))
    pts, density = np.insert(knots, k, y), np.insert(density, k, density[max(k - 1, 0)])
    below = float(_gap_integrals(fs.psi, pts[:k + 1], width) @ density[:k]) \
        + sum(wt * fs.psi(z) for z, wt in nu.atoms if z <= x)
    above = float(_gap_integrals(fs.phi, pts[k:], width) @ density[k:]) \
        + sum(wt * fs.phi(z) for z, wt in nu.atoms if z > x)
    return c1 + below / w, c2 + above / w


def _public_reconstruct(measure, spec, alpha, x):
    fs = fundamental(spec, alpha)
    A, B = _public_coefficients(measure, fs, x)
    return A * fs.phi(x) + B * fs.psi(x)


def _public_slopes(spec, alpha, measure, z):
    """(left, right) of derivative_jump."""
    fs = fundamental(spec, alpha)
    A, B = _public_coefficients(measure, fs, z)
    nu, x0, w = measure.base, measure.x0, fs.wronskian
    s = 0.0
    if nu is not None and z <= x0:
        below = nu.left_tail(z) + nu.atom_at(z) - nu.mass_left_boundary
        s = -w * below / (fs.psi(z) * fs.phi(x0))
    elif nu is not None:
        s = w * (nu.right_tail(z) - nu.mass_right_boundary) / (fs.phi(z) * fs.psi(x0))
    slope = {side: A * fs.phi_ds(z, side) + B * fs.psi_ds(z, side) + s
             for side in ("left", "right")}
    scale = measure.normalization
    return scale * (slope["left"] + measure.atom_at(z)), scale * slope["right"]


def _same_bits(got, want):
    return np.array_equal(np.float64(got).view(np.int64), np.float64(want).view(np.int64))


PUBLIC_CASES = FAMILIES + [
    (make_sticky_bm(-0.3, 1.0), 0.5, green_candidate(make_sticky_bm(-0.3, 1.0), 0.5, 0.4)),
    (make_sticky_bm(-0.3, 1.0), 0.5, green_candidate(make_sticky_bm(-0.3, 1.0), 0.5, -1.1)),
]


class TestPublicReference:
    """reconstruct and derivative_jump give the bits of the same formulas
    evaluated through the public, scalar-convention evaluators."""

    @pytest.mark.parametrize("case", PUBLIC_CASES, ids=_family_id)
    def test_reconstruct_bit_for_bit(self, case):
        spec, alpha, cand = case
        m, r, back = TestCoefficients.measures(case)
        martin_doc = measure_from_doc(measure_to_doc(m), spec)
        for x in TestCoefficients.points(case):
            for nu in (m, r, back, martin_doc):
                got = reconstruct(nu, spec, alpha, x)
                assert type(got) is float
                assert _same_bits(got, _public_reconstruct(nu, spec, alpha, x)), (x, nu.kind)

    @pytest.mark.parametrize("case", PUBLIC_CASES, ids=_family_id)
    def test_derivative_jump_bit_for_bit(self, case):
        spec, alpha, cand = case
        _, r, back = TestCoefficients.measures(case)
        for z in TestCoefficients.points(case):
            for nu in (r, back):
                dj = derivative_jump(spec, alpha, cand, nu, z)
                left, right = _public_slopes(spec, alpha, nu, z)
                assert _same_bits(dj.left, left) and _same_bits(dj.right, right), (z, nu.base)
                assert _same_bits(dj.jump, left - right), (z, nu.base)


class TestFarField:
    """The by-parts integrand divides by the kernel twice, so it stays
    finite after the kernel's square underflows: at z = 550 phi(z)^2 is
    below the smallest subnormal, while 1/phi(z)^2 is about 1e338."""

    ALPHA = 0.25
    CAND = value_candidate(0.25, 1.0)     # x* = 0, x0 = 1, u = 1 + x above 0

    @pytest.mark.parametrize("z", [550.0, 800.0])
    def test_reconstruct(self, z):
        m = martin_measure(STICKY, self.ALPHA, self.CAND)
        assert self.CAND.x0 == 1.0
        with np.errstate(all="raise"):
            for nu in (m, riesz_from_martin(m, STICKY, self.ALPHA)):
                assert reconstruct(nu, STICKY, self.ALPHA, z) == \
                    pytest.approx((1.0 + z) / 2.0, rel=1e-13)

    @pytest.mark.parametrize("z", [550.0, 800.0])
    def test_derivative_jump(self, z):
        r = riesz_from_martin(martin_measure(STICKY, self.ALPHA, self.CAND), STICKY, self.ALPHA)
        with np.errstate(all="raise"):
            dj = derivative_jump(STICKY, self.ALPHA, self.CAND, r, z)
        assert dj.left == pytest.approx(1.0, abs=1e-10)
        assert dj.right == pytest.approx(1.0, abs=1e-10)
        assert dj.residual <= 1e-12


def _ladder_limit(tail, start, endpoint, cap):
    """Reference: the boundary-limit ladder evaluated one point at a time."""
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
        raise ConvergenceError("tail limit did not stabilize", best=vals[-1])
    return vals[-1]


def _array_limit(tail, start, endpoint, cap):
    """The boundary limit from one array call of the tail on the ladder."""
    xs = _ladder(start, endpoint, cap)
    vals = np.asarray(tail(xs), dtype=float).tolist() if xs.size else []
    return _boundary_limit(vals, float(tail(start)), endpoint)


class TestBoundaryLimit:
    @pytest.mark.parametrize("case", FAMILIES, ids=_family_id)
    def test_matches_pointwise_ladder(self, case):
        # one array call of the tail on the whole ladder gives the limit of
        # the point-by-point ladder exactly, from every start on each side
        spec, alpha, cand = case
        m = martin_measure(spec, alpha, cand)
        cap = 600.0 / _exp_rate(fundamental(spec, alpha))
        l, r, x0 = spec.interval.left, spec.interval.right, cand.x0
        probe = {*cand.kinks, *(loc for loc, _ in spec.speed_atoms), x0}
        for tail, end, starts in (
                (m.left_tail, l, [z for z in probe if l < z <= x0]),
                (m.right_tail, r, [z for z in probe if x0 <= z < r])):
            for start in starts:
                assert _array_limit(tail, start, end, cap) == \
                    _ladder_limit(tail, start, end, cap), (end, start)

    def test_short_ladder_before_cap(self):
        # the ladder 6, 7, 9, ... stops where it passes the cap: with no
        # point left the tail at the start is the limit; one point cannot
        # show a limit
        tail = lambda x: 2.0 * np.asarray(x)
        assert _ladder(5.0, math.inf, 5.5).size == 0
        assert _array_limit(tail, 5.0, math.inf, 5.5) == 10.0
        assert _ladder(5.0, math.inf, 6.5).tolist() == [6.0]
        with pytest.raises(ConvergenceError):
            _array_limit(tail, 5.0, math.inf, 6.5)
        # two points that agree to 1e-9 give the last one
        flat = lambda x: np.minimum(x, 6.0) + 1e-10 * np.asarray(x)
        assert _array_limit(flat, 5.0, math.inf, 8.0) == float(flat(7.0))


class TestDerivativeJump:
    def _riesz(self, alpha, cand):
        m = martin_measure(STICKY, alpha, cand)
        return riesz_from_martin(m, STICKY, alpha)

    def test_green_no_jump_off_pole(self):
        cand = green_candidate(STICKY, 0.5, 0.7, x0=0.0)
        r = self._riesz(0.5, cand)
        dj = derivative_jump(STICKY, 0.5, cand, r, 0.4)
        assert dj.jump == pytest.approx(0.0, abs=1e-11)
        assert dj.sigma_atom == 0.0

    @pytest.mark.parametrize("y0", [-0.3, 0.7])
    def test_green_unit_jump_at_pole(self, y0):
        cand = green_candidate(STICKY, 0.5, y0, x0=0.0)
        r = self._riesz(0.5, cand)
        dj = derivative_jump(STICKY, 0.5, cand, r, y0)
        assert dj.jump == pytest.approx(1.0, abs=1e-10)
        assert dj.sigma_atom == pytest.approx(1.0, abs=1e-10)
        assert dj.residual <= 1e-9

    def test_value_function_jump_at_sticky_point(self):
        alpha = 0.25
        cand = value_candidate(alpha, 1.0)
        r = self._riesz(alpha, cand)
        dj = derivative_jump(STICKY, alpha, cand, r, 0.0)
        assert dj.jump == pytest.approx(math.sqrt(0.5) - 1.0, abs=1e-10)
        assert dj.sigma_atom == pytest.approx(math.sqrt(0.5) - 0.5, abs=1e-10)
        assert dj.speed_term == pytest.approx(0.5, abs=1e-12)
        assert dj.residual <= 1e-9

    def test_decomposition_residual_everywhere(self):
        for alpha, z in ((0.5, 0.0), (0.25, 0.0), (0.25, 0.5), (0.6, 0.0)):
            cand = value_candidate(alpha, 1.0)
            r = self._riesz(alpha, cand)
            dj = derivative_jump(STICKY, alpha, cand, r, z)
            assert dj.residual <= 1e-9

    def test_jump_sign_for_excessive_candidates(self):
        # off speed atoms the left derivative dominates the right one
        for cand_alpha in ((green_candidate(STICKY, 0.5, 0.7, x0=0.0), 0.5),
                           (value_candidate(0.25, 1.0), 0.25)):
            cand, alpha = cand_alpha
            r = self._riesz(alpha, cand)
            for z in (-0.8, 0.3, 0.7, 1.4):
                dj = derivative_jump(STICKY, alpha, cand, r, z)
                assert dj.jump >= -1e-10

    def test_harmonic_candidates_kink_only_at_speed_atom(self):
        # psi and phi carry no interior measure, so their scale-derivative
        # jump at the sticky point is the speed term alone
        for factory in (psi_candidate, phi_candidate):
            cand = factory(STICKY, 0.5, x0=0.0)
            r = self._riesz(0.5, cand)
            dj = derivative_jump(STICKY, 0.5, cand, r, 0.0)
            assert dj.jump == pytest.approx(-1.0, abs=1e-12)   # -2 c alpha u(0)
            assert dj.sigma_atom == 0.0
            assert dj.residual <= 1e-12
            off = derivative_jump(STICKY, 0.5, cand, r, 0.8)
            assert off.jump == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def rebuilt(spec, alpha, cand):
        r = riesz_from_martin(martin_measure(spec, alpha, cand), spec, alpha)
        return measure_from_doc(measure_to_doc(r), spec)

    @pytest.mark.parametrize("spec, alpha, cand", [
        (STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7)),
        (make_sticky_bm(-0.3, 1.0), 0.5, green_candidate(make_sticky_bm(-0.3, 1.0), 0.5, 0.4)),
        (STICKY, 0.5, psi_candidate(STICKY, 0.5)),
        (STICKY, 0.5, phi_candidate(STICKY, 0.5)),
        (make_sticky_bm(-0.3, 1.0), 0.3, psi_candidate(make_sticky_bm(-0.3, 1.0), 0.3)),
        (make_sticky_bm(-0.3, 1.0), 0.3, phi_candidate(make_sticky_bm(-0.3, 1.0), 0.3)),
    ])
    def test_rebuilt_document_without_ac_part(self, spec, alpha, cand):
        # atoms and harmonic part survive a document exactly, so the slopes
        # are the candidate's closed forms
        back = self.rebuilt(spec, alpha, cand)
        for z in (-3.0, -1.2, -0.3, 0.0, 0.4, 0.7, 1.5, 3.0):
            dj = derivative_jump(spec, alpha, cand, back, z)
            for got, want in ((dj.left, cand.ds_left(z)), (dj.right, cand.ds_right(z))):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), z

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.8])
    def test_rebuilt_value_document(self, alpha):
        cand = value_candidate(alpha, 1.0)
        back = self.rebuilt(STICKY, alpha, cand)
        # off the speed atom the jump is the sigma-atom by construction, at
        # the candidate's kinks and at the document's sample points
        off = {*cand.kinks, *back.kinks[::16]} - {0.0}
        assert off
        for z in sorted(off):
            assert derivative_jump(STICKY, alpha, cand, back, z).residual <= 1e-12, z
        # at the sticky point the speed term reads the candidate, the slopes
        # the document: the residual is the document's error in u(0)
        dj = derivative_jump(STICKY, alpha, cand, back, 0.0)
        error = abs(back.normalization * reconstruct(back, STICKY, alpha, 0.0)
                    - float(cand.value(0.0)))
        assert dj.residual == pytest.approx(STICKY.speed_atom_at(0.0) * alpha * error,
                                            abs=1e-12)

    def test_requires_riesz_and_interior(self):
        cand = green_candidate(STICKY, 0.5, 0.7, x0=0.0)
        m = martin_measure(STICKY, 0.5, cand)
        with pytest.raises(ParameterError):
            derivative_jump(STICKY, 0.5, cand, m, 0.7)
        rk = make_reflected_killed_bm()
        cand = psi_candidate(rk, 1.0, x0=0.5)
        riesz = riesz_from_martin(martin_measure(rk, 1.0, cand), rk, 1.0)
        with pytest.raises(DomainError, match="interior point"):
            derivative_jump(rk, 1.0, cand, riesz, 0.0)    # reflecting end


class TestWithDrift:
    """Nonzero drift separates d/dS from d/dx throughout the machinery."""

    SPEC = make_sticky_bm(-0.3, 1.5)
    ALPHA = 0.4

    @pytest.mark.parametrize("y0", [-0.8, 0.0, 0.6])
    def test_green_round_trip_and_jump(self, y0):
        cand = green_candidate(self.SPEC, self.ALPHA, y0, x0=0.2)
        m = martin_measure(self.SPEC, self.ALPHA, cand)
        assert m.atom_at(y0) == pytest.approx(1.0, abs=1e-12)
        u0 = cand.value(0.2)
        for x in np.linspace(-2.5, 2.5, 15):
            got = reconstruct(m, self.SPEC, self.ALPHA, float(x))
            assert got == pytest.approx(cand.value(float(x)) / u0, abs=1e-10)
        r = riesz_from_martin(m, self.SPEC, self.ALPHA)
        dj = derivative_jump(self.SPEC, self.ALPHA, cand, r, y0)
        fs = fundamental(self.SPEC, self.ALPHA)
        expected = 1.0 - self.SPEC.speed_atom_at(y0) * self.ALPHA * float(fs.green(y0, y0))
        assert dj.jump == pytest.approx(expected, abs=1e-10)
        assert dj.residual <= 1e-10

    def test_minimal_harmonic_candidates(self):
        for factory, side in ((psi_candidate, "right"), (phi_candidate, "left")):
            cand = factory(self.SPEC, self.ALPHA, x0=0.0)
            m = martin_measure(self.SPEC, self.ALPHA, cand)
            mass = m.mass_right_boundary if side == "right" else m.mass_left_boundary
            assert mass == pytest.approx(1.0, abs=1e-10)
            assert m.atoms == ()
            for x in (-1.5, 0.4, 2.0):
                got = reconstruct(m, self.SPEC, self.ALPHA, x)
                assert got == pytest.approx(cand.value(x) / cand.value(0.0), abs=1e-10)


class TestFDerivative:
    def test_identity_quotient(self):
        S = STICKY.scale
        for side in ("left", "right"):
            assert f_derivative(S, S, 0.3, side) == pytest.approx(1.0, abs=1e-10)

    def test_smooth_square(self):
        val = f_derivative(lambda x: x * x, lambda x: x, 1.0, "right")
        assert val == pytest.approx(2.0, abs=1e-8)
        val = f_derivative(lambda x: x * x, lambda x: x, 1.0, "left")
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_value_function_one_sided_slopes(self):
        v = lambda x: value_function(0.25, 1.0, x)
        left = f_derivative(v, lambda x: x, 0.0, "left")
        right = f_derivative(v, lambda x: x, 0.0, "right")
        assert left == pytest.approx(math.sqrt(0.5), abs=1e-6)
        assert right == pytest.approx(1.0, abs=1e-6)

    def test_candidate_derivatives_match_difference_quotients(self):
        cand = value_candidate(0.25, 1.0)
        for x in (-0.7, 0.4, 1.3):   # scale-differentiable points
            num = f_derivative(cand.value, STICKY.scale, x, "right")
            assert cand.ds_right(x) == pytest.approx(num, rel=1e-6)

    def test_oscillating_function_reports_nonconvergence(self):
        wild = lambda x: abs(x) ** 0.5 * math.sin(1.0 / (abs(x) + 1e-30))
        with pytest.raises(ConvergenceError):
            f_derivative(wild, lambda x: x, 0.0, "right")

    def test_decreasing_f_rejected(self):
        with pytest.raises(DomainError):
            f_derivative(lambda x: x, lambda x: -x, 0.0, "right")

    def test_unknown_side_rejected(self):
        with pytest.raises(ParameterError, match="side must be"):
            f_derivative(lambda x: x, lambda x: x, 0.0, "up")


class TestExcessivity:
    GRID = np.linspace(-3.0, 3.0, 21)
    BETAS = (1.0, 10.0, 100.0)

    def test_value_function_passes(self):
        v = lambda x: value_function(0.5, 1.0, x)
        rep = excessivity_check(STICKY, 0.5, v, self.GRID, self.BETAS,
                                kinks=(-1.0, 0.0))
        assert rep.passed, rep.max_violation
        assert rep.monotone_ok

    def test_reward_fails_when_continuation_pays(self):
        g = default_reward().value
        rep = excessivity_check(STICKY, 0.1, g, self.GRID, self.BETAS,
                                kinks=(-1.0, 0.0))
        assert not rep.passed
        assert rep.max_violation > 1e-3

    def test_constants_pass(self):
        rep = excessivity_check(STICKY, 0.3, lambda x: 1.0, self.GRID, self.BETAS)
        assert rep.passed

    def test_green_kernel_is_excessive(self):
        fs = fundamental(STICKY, 0.5)
        for y in (-0.6, 0.0, 0.9):
            u = lambda x, y=y: fs.green(x, y)
            rep = excessivity_check(STICKY, 0.5, u, np.linspace(-2, 2, 9),
                                    (1.0, 10.0), kinks=(0.0, y))
            assert rep.passed, (y, rep.max_violation)

    def test_bad_betas(self):
        with pytest.raises(ParameterError):
            excessivity_check(STICKY, 0.5, lambda x: 1.0, [0.0], [0.0])

    @pytest.mark.parametrize("u, passed, monotone", [
        (lambda y: value_function(0.5, 1.0, y), True, True),
        (lambda y: 2.0 + np.cos(3.0 * y), False, False),
    ])
    def test_verdict_matches_row_loop(self, u, passed, monotone):
        # the per-row loop that the array verdict replaced, as the reference
        betas = (100.0, 1.0, 10.0)
        rep = excessivity_check(STICKY, 0.5, u, self.GRID, betas, kinks=(-1.0, 0.0))
        worst, ok, k = -math.inf, True, 0
        for x in self.GRID:
            prev = -math.inf
            for beta in sorted(betas):
                rx, rbeta, val, bound = rep.rows[k]
                assert (rx, rbeta) == (x, beta)
                worst = max(worst, (val - bound) / max(1.0, abs(bound)))
                ok = ok and not val < prev - 1e-7 * max(1.0, abs(val))
                prev, k = val, k + 1
        assert k == len(rep.rows)
        assert (rep.max_violation, rep.monotone_ok) == (worst, ok)
        assert (rep.passed, rep.monotone_ok) == (passed, monotone)

    @pytest.mark.parametrize("grid, betas", [([], (1.0,)), ([0.0], ())])
    def test_empty_grid_or_betas_rejected(self, grid, betas):
        with pytest.raises(ParameterError, match="at least one"):
            excessivity_check(STICKY, 0.5, lambda x: 1.0, grid, betas)

    @pytest.mark.parametrize("betas", [(math.nan,), (math.inf,), (1.0, math.nan), (0.0,), (-1.0,)])
    def test_beta_must_be_positive_and_finite(self, betas):
        # NaN used to pass and inf to fail inside fundamental, on alpha + beta
        with pytest.raises(ParameterError, match="betas must be positive and finite"):
            excessivity_check(STICKY, 0.5, lambda x: 1.0, [0.0], betas)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # a NaN tol used to fail every u without an error
        with pytest.raises(ParameterError, match=re.escape(
                f"tol must be finite and >= 0, got {tol!r}")):
            excessivity_check(STICKY, 0.5, lambda x: 1.0, [0.0], (1.0,), tol=tol)

    @pytest.mark.parametrize("spec, x", [
        (STICKY, math.nan),
        (make_reflected_killed_bm(), math.nan),
        (make_reflected_killed_bm(), 1.5),
        (make_reflected_killed_bm(), -0.5),
        (make_reflected_killed_bm(), 1.0),      # the killing endpoint
    ])
    def test_grid_point_outside_state_space_rejected(self, spec, x):
        # such a point used to pass: NaN with row 0.0, x = 1.5 or -0.5 on
        # [0, 1) with a negative row
        fs = fundamental(spec, 1.0)
        with pytest.raises(DomainError, match="outside the state space"):
            excessivity_check(spec, 1.0, fs.psi, [0.5, x], (1.0, 10.0))

    def quad_rows(self, alpha, u, kinks):
        """Reference rows: one scipy quad per (x, beta), given every kink
        of u."""
        quad = pytest.importorskip("scipy.integrate").quad
        out = []
        for x in self.GRID:
            for beta in self.BETAS:
                fsb = fundamental(STICKY, alpha + beta)
                reach = 60.0 / _exp_rate(fsb) + 1.0
                pts = sorted(p for p in {*kinks, x} if abs(p - x) < reach)
                val, _ = quad(lambda y: fsb.green(x, y) * float(u(y))
                              * float(STICKY.speed_density(y)),
                              x - reach, x + reach, points=pts, limit=300,
                              epsabs=1e-13, epsrel=1e-11)
                (loc, wt), = STICKY.speed_atoms
                out.append(beta * (val + fsb.green(x, loc) * float(u(loc)) * wt))
        return np.array(out)

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_rows_match_quad_reference(self, alpha):
        # the value function kinks at -1 (reward), 0 (speed atom) and x*;
        # the shared mesh finds the x* kink itself when it is not given
        x_star = solve_threshold(alpha, 1.0)
        u = lambda x: value_function(alpha, 1.0, x)
        ref = self.quad_rows(alpha, u, (-1.0, 0.0, x_star))
        for kinks in ((-1.0, 0.0), (-1.0, 0.0, x_star)):
            rep = excessivity_check(STICKY, alpha, u, self.GRID, self.BETAS,
                                    kinks=kinks)
            got = np.array([row[2] for row in rep.rows])
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, kinks

    def test_calls_u_once_per_node(self):
        # u is called on 1-D float64 arrays, once per refinement level, and
        # evaluates each mesh node once; only the bounds u(x) and the atom's
        # u(0) repeat a point
        calls = []

        def u(y):
            assert isinstance(y, np.ndarray)
            assert y.ndim == 1 and y.dtype == np.float64
            calls.append(y.copy())
            return np.ones_like(y)

        excessivity_check(STICKY, 0.3, u, self.GRID, (10.0,))
        seen = np.concatenate(calls).tolist()
        nodes = [y for y in seen if y not in set(self.GRID)]
        assert len(nodes) == len(set(nodes)) > 100
        # one call for the bounds, then one per refinement level
        assert len(calls) <= 6 and len(seen) > 2000

    @pytest.mark.parametrize("u", [
        lambda y: [1.0, 2.0],                               # fixed length
        lambda y: np.ones((len(y), 1)),                     # one column
    ])
    def test_wrong_result_shape_rejected(self, u):
        with pytest.raises(ParameterError, match="shape"):
            excessivity_check(STICKY, 0.5, u, self.GRID, (1.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_u_rejected(self, bad):
        # Python's max skips NaN, so a NaN u used to pass with -inf violation
        with pytest.raises(ParameterError, match="non-finite"):
            excessivity_check(STICKY, 0.5, lambda y: np.full_like(y, bad),
                              np.linspace(-3.0, 3.0, 7), (1.0, 10.0))

    def test_exception_in_u_propagates(self):
        def u(y):
            raise KeyError("from u")
        with pytest.raises(KeyError, match="from u"):
            excessivity_check(STICKY, 0.5, u, self.GRID, (1.0,))

    @pytest.mark.parametrize("u", [
        lambda y: (y > 0.31).astype(float),                # jump off the mesh
        lambda y: np.sin(1.0 / (y - 0.31)),                # endless oscillation
    ])
    def test_unresolved_integrand_raises(self, u):
        with pytest.raises(ConvergenceError) as err:
            excessivity_check(STICKY, 0.5, u, np.linspace(-2.0, 2.0, 9),
                              (1.0, 10.0))
        assert err.value.achieved > 0.0

    @pytest.mark.parametrize("alpha, most", [(0.5, 4), (0.1, 10)])
    def test_one_mesh_serves_every_beta(self, alpha, most):
        # the value function kinks at x* too, which is not given at
        # alpha = 0.1 (x* = 0.8976); per_beta_rows below calls u 14 and 37
        # times here
        calls = []

        def u(y):
            calls.append(len(y))
            return value_function(alpha, 1.0, y)

        rep = excessivity_check(STICKY, alpha, u, self.GRID, self.BETAS,
                                kinks=(-1.0, 0.0))
        assert rep.passed
        assert len(calls) <= most, calls

    def test_overflowing_row_raises(self):
        # at rate 1e5 psi and phi overflow a float beyond |x| = 1.6, so the
        # rows at x = -3, -2, 2 and 3 are NaN, which Python's max would skip
        u = value_candidate(0.5, 1.0).value
        with pytest.warns(RuntimeWarning), \
                pytest.raises(DomainError, match=r"x = -3\.0, beta = 100000\.0"):
            excessivity_check(STICKY, 0.5, u, np.linspace(-3.0, 3.0, 7), (1e5,))

    @staticmethod
    def per_beta_rows(spec, rates, u, xs, split_points):
        """Reference rows: each rate refines its own mesh by halving, with G
        evaluated as a (rows, nodes) matrix."""
        out = []
        for fsb in rates:
            reach = 60.0 / _exp_rate(fsb) + 1.0
            lo = np.maximum(spec.interval.left, xs - reach)
            hi = np.minimum(spec.interval.right, xs + reach)
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
                return np.where((lo[:, None] <= a) & (b <= hi[:, None]), sums, 0.0)

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
                    break
                a, b = np.concatenate((a[bad], mid[bad])), np.concatenate((mid[bad], b[bad]))
                whole = np.concatenate((left[:, bad], right[:, bad]), axis=1)
            out.append(total)
        return np.array(out)

    def assert_matches_per_beta(self, monkeypatch, spec, alpha, u, grid, kinks):
        rep = excessivity_check(spec, alpha, u, grid, self.BETAS, kinks=kinks)
        with monkeypatch.context() as m:
            m.setattr(representation, "_resolvent_rows", self.per_beta_rows)
            ref = excessivity_check(spec, alpha, u, grid, self.BETAS, kinks=kinks)
        assert (rep.passed, rep.monotone_ok) == (ref.passed, ref.monotone_ok)
        got = np.array([row[2] for row in rep.rows])
        want = np.array([row[2] for row in ref.rows])
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), \
            np.max(np.abs(got - want) / np.abs(want))

    @pytest.mark.parametrize("case", FAMILIES, ids=_family_id)
    def test_rows_match_per_beta_meshes(self, monkeypatch, case):
        spec, alpha, cand = case
        left, right = spec.interval.left, spec.interval.right
        grid = np.linspace(left, 0.9 * right, 7) if math.isfinite(left) \
            else np.linspace(-3.0, 3.0, 7)
        self.assert_matches_per_beta(monkeypatch, spec, alpha, cand.value, grid,
                                     cand.kinks)

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    @pytest.mark.parametrize("u", ["value", "reward"])
    def test_value_rows_match_per_beta_meshes(self, monkeypatch, alpha, u):
        fn = (lambda x: value_function(alpha, 1.0, x)) if u == "value" \
            else default_reward().value
        self.assert_matches_per_beta(monkeypatch, STICKY, alpha, fn, self.GRID,
                                     (-1.0, 0.0))


class TestConverseConstruction:
    def test_synthetic_measure_reconstructs_to_excessive_function(self):
        # any probability measure on the compactified interval defines an
        # excessive function through the representation formula
        x0 = 1.0
        left_xs = np.linspace(-3.0, x0, 41)
        right_xs = np.linspace(x0, 4.0, 41)

        def ac_cdf(y):   # 0.5 mass spread linearly over [0.5, 1.5]
            return 0.5 * np.clip(np.asarray(y, dtype=float) - 0.5, 0.0, 1.0)

        doc = {
            "kind": "martin", "x0": x0, "normalization": 1.0, "total_mass": 1.0,
            "mass_left_boundary": 0.0, "mass_right_boundary": 0.2,
            "atoms": [{"location": -0.4, "weight": 0.3}],
            "tail_samples": {
                "left": [[float(t), float(ac_cdf(t))] for t in left_xs],
                "right": [[float(t), float(ac_cdf(t))] for t in right_xs],
            },
        }
        m = measure_from_doc(doc, STICKY)
        u = lambda x: reconstruct(m, STICKY, 0.5, float(x))
        assert u(x0) == pytest.approx(1.0, abs=1e-10)
        prev = None
        for n in (41, 81, 161):   # continuity across the atom and sticky point
            vals = np.array([u(x) for x in np.linspace(-1.0, 1.8, n)])
            inc = float(np.max(np.abs(np.diff(vals))))
            if prev is not None:
                assert inc <= 0.62 * prev
            prev = inc
        # the reconstruction kinks at the synthetic atom by exactly
        # sigma({z}) = nu({z}) / G(x0, z), scale derivative sense
        fs = fundamental(STICKY, 0.5)
        left = f_derivative(u, STICKY.scale, -0.4, "left")
        right = f_derivative(u, STICKY.scale, -0.4, "right")
        expected = 0.3 / float(fs.green(x0, -0.4))
        assert left - right == pytest.approx(expected, rel=1e-6)


class TestSerialization:
    def test_atoms_round_trip_exactly(self):
        m = martin_measure(STICKY, 0.25, value_candidate(0.25, 1.0))
        doc = measure_to_doc(m)
        back = measure_from_doc(doc, STICKY)
        assert back.atoms == m.atoms      # bitwise identical floats
        assert back.mass_left_boundary == m.mass_left_boundary
        assert back.x0 == m.x0

    @staticmethod
    def doc_from_both_tails(measure):
        """Reference document: ac_cdf called once per side, each call
        evaluating both tails on every point and picking one by np.where."""
        def ac_cdf(y):
            if measure.kind == "martin":
                below = measure.left_tail(y) \
                    - _atoms_below(measure.atoms, y, strict=True) - measure.mass_left_boundary
                above = measure.total_mass - measure.right_tail(y) \
                    - _atoms_below(measure.atoms, y, strict=False) - measure.mass_left_boundary
                out = np.where(y <= measure.x0, below, above)
                return np.where(y <= measure.interval_left, 0.0, out)
            return np.where(y >= measure.x0, measure.right_tail(y), -measure.left_tail(y))

        doc = measure_to_doc(measure)
        sign = {"left": 1.0 if measure.kind == "martin" else -1.0, "right": 1.0}
        for side, samples in doc["tail_samples"].items():
            ts = np.array([t for t, _ in samples])
            doc["tail_samples"][side] = [[float(t), float(v)] for t, v
                                         in zip(ts, sign[side] * ac_cdf(ts))]
        return doc

    @pytest.mark.parametrize("alpha, cand", [
        (0.5, green_candidate(STICKY, 0.5, 0.7)),
        (0.5, psi_candidate(STICKY, 0.5)),
        (0.5, phi_candidate(STICKY, 0.5)),
        (0.5, value_candidate(0.5, 1.0)),
        (0.25, value_candidate(0.25, 1.0)),
        (0.1, value_candidate(0.1, 1.0)),
    ], ids=["green", "psi", "phi", "value-0.5", "value-0.25", "value-0.1"])
    @pytest.mark.parametrize("kind", ["martin", "riesz"])
    def test_doc_calls_each_tail_on_its_side(self, alpha, cand, kind):
        import json
        m = martin_measure(STICKY, alpha, cand)
        if kind == "riesz":
            m = riesz_from_martin(m, STICKY, alpha)
        assert json.dumps(measure_to_doc(m)) == json.dumps(self.doc_from_both_tails(m))

    def test_doc_survives_json(self):
        import json
        m = martin_measure(STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7, x0=0.0))
        doc = json.loads(json.dumps(measure_to_doc(m)))
        back = measure_from_doc(doc, STICKY)
        assert back.atoms == m.atoms

    def test_one_float_type(self):
        # a document holds plain floats, and so do a rebuilt measure's kinks,
        # as martin_measure's do; np.float64 from a sample row is not float
        m = martin_measure(STICKY, 0.5, value_candidate(0.5, 1.0))
        doc = measure_to_doc(m)
        samples = doc["tail_samples"]["left"] + doc["tail_samples"]["right"]
        assert {type(v) for row in samples for v in row} == {float}
        back = measure_from_doc(doc, STICKY)
        assert {type(k) for k in back.kinks} == {type(k) for k in m.kinks} == {float}

    def test_reconstruct_from_doc(self):
        cand = value_candidate(0.5, 1.0)
        m = martin_measure(STICKY, 0.5, cand)
        back = measure_from_doc(measure_to_doc(m, tail_points=161), STICKY)
        u0 = cand.value(cand.x0)
        for x in (-1.0, 0.2, 1.5):
            got = reconstruct(back, STICKY, 0.5, x)
            assert got == pytest.approx(cand.value(x) / u0, abs=5e-4)

    def test_unknown_kind_rejected(self):
        doc = measure_to_doc(martin_measure(STICKY, 0.5, value_candidate(0.5, 1.0)))
        doc["kind"] = "foo"
        with pytest.raises(ParameterError, match="'kind'"):
            measure_from_doc(doc, STICKY)

    @pytest.mark.parametrize("key", ["x0", "total_mass"])
    def test_malformed_value_rejected(self, key):
        doc = measure_to_doc(martin_measure(STICKY, 0.5, value_candidate(0.5, 1.0)))
        doc[key] = "one"
        with pytest.raises(ParameterError):
            measure_from_doc(doc, STICKY)

    @pytest.mark.parametrize("key", ["kind", "x0", "normalization", "atoms",
                                     "mass_left_boundary", "mass_right_boundary",
                                     "tail_samples"])
    def test_missing_field_rejected(self, key):
        doc = measure_to_doc(martin_measure(STICKY, 0.5, value_candidate(0.5, 1.0)))
        del doc[key]
        with pytest.raises(ParameterError, match=f"'{key}'"):
            measure_from_doc(doc, STICKY)

    @staticmethod
    def value_doc(kind="martin"):
        m = martin_measure(STICKY, 0.3, value_candidate(0.3, 1.0))
        return measure_to_doc(m if kind == "martin" else riesz_from_martin(m, STICKY, 0.3))

    @pytest.mark.parametrize("kind", ["martin", "riesz"])
    @pytest.mark.parametrize("field, edit", [
        ("x0", lambda d: d.update(x0=math.nan)),
        ("normalization", lambda d: d.update(normalization=math.inf)),
        ("mass_left_boundary", lambda d: d.update(mass_left_boundary=-math.inf)),
        ("mass_right_boundary", lambda d: d.update(mass_right_boundary=math.nan)),
        ("atoms", lambda d: d["atoms"][0].update(weight=math.nan)),
        ("atoms", lambda d: d["atoms"][0].update(location=math.inf)),
        ("tail_samples.left", lambda d: d["tail_samples"]["left"][5].__setitem__(0, -math.inf)),
        ("tail_samples.right", lambda d: d["tail_samples"]["right"][3].__setitem__(1, math.nan)),
    ], ids=["x0", "normalization", "mass_left", "mass_right", "atom-weight",
            "atom-location", "left-abscissa", "right-value"])
    def test_non_finite_number_rejected(self, kind, field, edit):
        doc = self.value_doc(kind)
        edit(doc)
        with pytest.raises(ParameterError, match=f"'{field}' holds a non-finite number"):
            measure_from_doc(doc, STICKY)

    def test_non_finite_martin_total_rejected(self):
        doc = self.value_doc()
        doc["total_mass"] = math.nan
        with pytest.raises(ParameterError, match="'total_mass' holds a non-finite number"):
            measure_from_doc(doc, STICKY)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_decreasing_sample_locations_rejected(self, side):
        # np.interp would read reversed samples as another cumulative
        doc = self.value_doc()
        doc["tail_samples"][side].reverse()
        with pytest.raises(ParameterError, match=f"'tail_samples.{side}' has decreasing"):
            measure_from_doc(doc, STICKY)

    @pytest.mark.parametrize("tail_points", [0, -1, 1, 2.5, True, "65"])
    def test_tail_points_must_be_an_int_from_2(self, tail_points):
        # 0 once gave a document whose rebuilt measure failed on first use,
        # -1 numpy's ValueError from linspace and 2.5 a TypeError
        m = martin_measure(STICKY, 0.3, value_candidate(0.3, 1.0))
        with pytest.raises(ParameterError, match="tail_points must be an int >= 2"):
            measure_to_doc(m, tail_points=tail_points)

    def test_two_tail_points(self):
        m = martin_measure(STICKY, 0.3, value_candidate(0.3, 1.0))
        doc = measure_to_doc(m, tail_points=np.int64(2))
        assert [len(doc["tail_samples"][side]) for side in ("left", "right")] == [2, 2]
        back = measure_from_doc(doc, STICKY)
        assert math.isfinite(reconstruct(back, STICKY, 0.3, 0.5))

    @pytest.mark.parametrize("kind", ["martin", "riesz"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_empty_tail_samples_rejected(self, kind, side):
        doc = self.value_doc(kind)
        doc["tail_samples"][side] = []
        with pytest.raises(ParameterError, match=f"'tail_samples.{side}' is empty"):
            measure_from_doc(doc, STICKY)

    def test_atoms_out_of_location_order_rejected(self):
        # the atom sums search the locations, so they must be sorted
        doc = self.value_doc()
        assert [a["location"] for a in doc["atoms"]] == [0.0]
        doc["atoms"].append({"location": -0.5, "weight": 0.0})
        with pytest.raises(ParameterError, match="'atoms' has decreasing locations"):
            measure_from_doc(doc, STICKY)

    def test_x0_outside_the_state_space_rejected(self):
        rk = make_reflected_killed_bm()
        doc = measure_to_doc(martin_measure(rk, 0.5, phi_candidate(rk, 0.5, x0=0.5)))
        doc["x0"] = 1.0     # the killing endpoint is not in the state space
        with pytest.raises(DomainError,
                           match=re.escape("normalization point 1.0 outside the state space")):
            measure_from_doc(doc, rk)

    def test_equal_sample_locations_allowed(self):
        # from x0 at an included endpoint, every sample on that side sits there
        rk = make_reflected_killed_bm()
        cand = green_candidate(rk, 0.5, 0.6, x0=0.0)
        doc = measure_to_doc(martin_measure(rk, 0.5, cand))
        assert {t for t, _ in doc["tail_samples"]["left"]} == {0.0}
        back = measure_from_doc(doc, rk)
        assert reconstruct(back, rk, 0.5, 0.3) == \
            pytest.approx(cand.value(0.3) / cand.value(0.0), abs=1e-3)

    def test_riesz_doc_round_trip_pure_atom(self):
        rk = make_reflected_killed_bm()
        m = martin_measure(rk, 0.5, phi_candidate(rk, 0.5, x0=0.5))
        r = riesz_from_martin(m, rk, 0.5)
        back = measure_from_doc(measure_to_doc(r), rk)
        assert back.atoms == r.atoms
        cand = phi_candidate(rk, 0.5, x0=0.5)
        u0 = cand.value(0.5)
        for x in (0.0, 0.3, 0.8):
            assert reconstruct(back, rk, 0.5, x) == \
                pytest.approx(cand.value(x) / u0, abs=1e-8)


def _scalar_convention_cases():
    """(id, callable, arity, base point) over the public evaluators."""
    cases = []
    for mu in (0.0, -0.3):
        spec = make_sticky_bm(mu, 1.0)
        for name in ("scale", "scale_deriv", "speed_density"):
            cases.append((f"{name}[mu={mu}]", getattr(spec, name), 1, 0.5))
        cases.append((f"speed_density_integral[mu={mu}]",
                      spec.speed_density_integral, 2, 0.5))
    rk = make_reflected_killed_bm()
    for label, spec, alpha, x in (("sticky", make_sticky_bm(-0.3, 1.0), 0.5, 0.5),
                                  ("sticky0", STICKY, 0.5, 0.5),
                                  ("reflected_killed", rk, 0.5, 0.4),
                                  ("drift", make_drift_bm(-0.5), 0.0, 0.5)):
        fs = fundamental(spec, alpha)
        for name in ("psi", "phi", "psi_dx_right", "psi_dx_left",
                     "phi_dx_right", "phi_dx_left", "psi_ds", "phi_ds"):
            cases.append((f"{name}[{label}]", getattr(fs, name), 1, x))
        cases.append((f"green[{label}]", fs.green, 2, x))
        cases.append((f"hitting_laplace[{label}]", fs.hitting_laplace, 2, x))
    cases.append(("value_function", lambda x: value_function(0.5, 1.0, x), 1, -0.5))
    reward = default_reward()
    for name in ("value", "dx_left", "dx_right"):
        cases.append((f"reward.{name}", getattr(reward, name), 1, 0.5))
    cands = {
        "value": value_candidate(0.5, 1.0),
        "green": green_candidate(STICKY, 0.5, 0.7),
        "psi": psi_candidate(STICKY, 0.5),
        "phi": phi_candidate(STICKY, 0.5),
    }
    for label, cand in cands.items():
        for name in ("ds_right", "ds_left"):
            cases.append((f"{label}.{name}", getattr(cand, name), 1, -0.5))
    martin = martin_measure(STICKY, 0.5, cands["value"])
    riesz = riesz_from_martin(martin, STICKY, 0.5)
    measures = {
        "martin": martin,
        "riesz": riesz,
        "martin_doc": measure_from_doc(measure_to_doc(martin), STICKY),
        "riesz_doc": measure_from_doc(measure_to_doc(riesz), STICKY),
    }
    for label, m in measures.items():
        for name in ("left_tail", "right_tail", "ac_cdf"):
            cases.append((f"{label}.{name}", getattr(m, name), 1, 0.5))
    return cases


class TestScalarConvention:
    """A Python float, an np.float64 or a 0-d array gives a float; a 1-D
    array gives an array of its shape, elementwise equal to the scalar calls
    (to rounding for the Riesz tails, whose panels run between the requested
    points)."""

    CASES = _scalar_convention_cases()

    @pytest.mark.parametrize("fn, arity, x", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_scalar_in_float_out(self, fn, arity, x):
        points = [x - 0.25 * k for k in range(arity)][::-1]
        expected = fn(*points)
        assert type(expected) is float
        for kind in (np.float64, np.array):
            got = fn(*(kind(p) for p in points))
            assert type(got) is float
            assert got == expected or (math.isnan(got) and math.isnan(expected))

    @pytest.mark.parametrize("fn, arity, x", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_array_in_array_out(self, fn, arity, x):
        offsets = np.array([0.0, 0.05, 0.1])
        points = [x - 0.25 * k for k in range(arity)][::-1]
        got = fn(*(p - offsets for p in points))
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        for i, off in enumerate(offsets):
            assert got[i] == pytest.approx(fn(*(p - off for p in points)),
                                           rel=1e-12, abs=1e-15)
        empty = fn(*(np.empty(0) for _ in points))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_keyword_arguments(self):
        # a point passed by keyword is converted as a positional one; side
        # passes as given
        fs = fundamental(make_sticky_bm(-0.3, 1.0), 0.5)
        xs = [0.5, 0.0, -1.0]
        for name in ("psi_ds", "phi_ds"):
            fn = getattr(fs, name)
            for side in ("left", "right"):
                assert np.array_equal(fn(x=xs, side=side), fn(np.array(xs), side))
            assert type(fn(x=0.0)) is float and fn(x=0.0) == fn(0.0, "right")
        assert np.array_equal(fs.green(x=0.3, y=xs), fs.green(0.3, np.array(xs)))
        assert np.array_equal(fs.psi(x=xs), fs.psi(np.array(xs)))

    @pytest.mark.parametrize("fn, arity, x", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_input_types(self, fn, arity, x):
        # a float, an int, an np.float64 or a 0-d array gives a float; a
        # list, an int array or a float32 array gives a float64 array; each
        # equal to the call on np.asarray(input, dtype=float)
        points = [x - 0.25 * k for k in range(arity)][::-1]
        scalars = (float, int, np.float64, np.array)
        arrays = (lambda p: [p, p - 0.05], lambda p: np.array([0, 1]),
                  lambda p: np.array([p, p - 0.05], dtype=np.float32))
        for form in scalars + arrays:
            args = [form(round(p)) if form is int else form(p) for p in points]
            got = fn(*args)
            want = fn(*(np.asarray(a, dtype=float) for a in args))
            if form in scalars:
                assert type(got) is float
            else:
                assert type(got) is np.ndarray and got.dtype == np.float64
                assert got.shape == (2,)
            assert np.array_equal(got, want, equal_nan=True), form


# ---------------------------------------------------------------------------
# one state-space rule, one point per call
# ---------------------------------------------------------------------------

def _rk_measure():
    return martin_measure(RK, 1.0, psi_candidate(RK, 1.0, x0=0.5))


def _doc_at(x0):
    doc = measure_to_doc(_rk_measure())
    doc["x0"] = x0
    return doc


# (entry point, the name it gives the point); each is called with the point p
_STATE_ENTRIES = {
    "green": (lambda p: green(RK, 1.0, 0.5, p), "point"),
    "hitting_laplace": (lambda p: hitting_laplace(RK, 1.0, p, 0.5), "point"),
    "green_candidate": (lambda p: green_candidate(RK, 1.0, p, x0=0.5), "pole"),
    "martin_measure": (lambda p: martin_measure(RK, 1.0, psi_candidate(RK, 1.0, x0=p)),
                       "normalization point"),
    "reconstruct": (lambda p: reconstruct(_rk_measure(), RK, 1.0, p), "evaluation point"),
    "excessivity_check": (lambda p: excessivity_check(RK, 1.0, fundamental(RK, 1.0).psi,
                                                      [0.5, p], (1.0,)), "grid point"),
    "measure_from_doc": (lambda p: measure_from_doc(_doc_at(p), RK), "normalization point"),
}


@pytest.mark.parametrize("entry, p", [
    (entry, p) for entry in _STATE_ENTRIES for p in (math.nan, 1.0, 1.5, -0.5)
    # a document's NaN x0 is refused earlier, as a non-finite field
    if not (entry == "measure_from_doc" and math.isnan(p))])
def test_one_state_space_message(entry, p):
    call, what = _STATE_ENTRIES[entry]
    with pytest.raises(DomainError) as err:
        call(p)
    assert str(err.value) == f"{what} {p} outside the state space [0.0, 1.0]"


class TestOnePoint:
    """reconstruct and derivative_jump take one point; an array is refused
    with a ParameterError naming the argument, not numpy's ValueError."""

    ALPHA = 0.3
    SPEC = make_sticky_bm(0.0, 1.0)

    @pytest.fixture(scope="class")
    def setup(self):
        cand = value_candidate(self.ALPHA, 1.0)
        nu = martin_measure(self.SPEC, self.ALPHA, cand)
        return cand, nu, riesz_from_martin(nu, self.SPEC, self.ALPHA)

    @pytest.mark.parametrize("x", [np.array([0.1, 0.2]), np.array([0.1]), [0.1], "a", None])
    def test_reconstruct_refuses_anything_but_one_point(self, setup, x):
        with pytest.raises(ParameterError, match="reconstruct takes one point: x must be"):
            reconstruct(setup[1], self.SPEC, self.ALPHA, x)

    @pytest.mark.parametrize("z", [np.array([0.1, 0.2]), np.array([0.1]), [0.1], "a", None])
    def test_derivative_jump_refuses_anything_but_one_point(self, setup, z):
        cand, _, sigma = setup
        with pytest.raises(ParameterError, match="derivative_jump takes one point: z must be"):
            derivative_jump(self.SPEC, self.ALPHA, cand, sigma, z)

    @pytest.mark.parametrize("x", [0, 2, np.float64(0.2), np.array(0.2), np.int64(2)])
    def test_one_point_of_any_real_type(self, setup, x):
        cand, nu, sigma = setup
        assert reconstruct(nu, self.SPEC, self.ALPHA, x) == \
            reconstruct(nu, self.SPEC, self.ALPHA, float(x))
        assert derivative_jump(self.SPEC, self.ALPHA, cand, sigma, x) == \
            derivative_jump(self.SPEC, self.ALPHA, cand, sigma, float(x))
