"""Martin/Riesz measures, reconstruction, derivative jumps, excessivity."""

import math
from typing import Callable

import numpy as np
import pytest

from diffstop.diffusion import (
    fundamental,
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
    RepresentingMeasure,
    _GL_NODES,
    _GL_WEIGHTS,
    _exp_rate,
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

    def test_bad_normalization_point(self):
        g = green_candidate(STICKY, 0.5, 0.7, x0=0.0)
        with pytest.raises(ParameterError):
            martin_measure(STICKY, 0.5, type(g)(
                value=lambda x: 0.0 * np.asarray(x), ds_right=g.ds_right,
                ds_left=g.ds_left, x0=0.0, kinks=g.kinks))


class TestRieszConversion:
    def test_point_mass_scales_by_kernel(self):
        fs = fundamental(STICKY, 0.5)
        m = martin_measure(STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7, x0=0.0))
        r = riesz_from_martin(m, STICKY, 0.5)
        assert r.kind == "riesz"
        assert r.atom_at(0.7) == pytest.approx(1.0 / float(fs.green(0.0, 0.7)), rel=1e-12)

    def test_boundary_mass_becomes_harmonic(self):
        from diffstop.representation import harmonic_coefficients
        fs = fundamental(STICKY, 0.5)
        m = martin_measure(STICKY, 0.5, psi_candidate(STICKY, 0.5, x0=0.0))
        r = riesz_from_martin(m, STICKY, 0.5)
        c1, c2 = harmonic_coefficients(r, fs)
        assert c1 == 0.0
        assert c2 == pytest.approx(1.0 / float(fs.psi(0.0)), rel=1e-9)
        assert r.atoms == ()

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

    def test_requires_riesz_and_interior(self):
        cand = green_candidate(STICKY, 0.5, 0.7, x0=0.0)
        m = martin_measure(STICKY, 0.5, cand)
        with pytest.raises(ParameterError):
            derivative_jump(STICKY, 0.5, cand, m, 0.7)


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

    def test_doc_survives_json(self):
        import json
        m = martin_measure(STICKY, 0.5, green_candidate(STICKY, 0.5, 0.7, x0=0.0))
        doc = json.loads(json.dumps(measure_to_doc(m)))
        back = measure_from_doc(doc, STICKY)
        assert back.atoms == m.atoms

    def test_reconstruct_from_doc(self):
        cand = value_candidate(0.5, 1.0)
        m = martin_measure(STICKY, 0.5, cand)
        back = measure_from_doc(measure_to_doc(m, tail_points=161), STICKY)
        u0 = cand.value(cand.x0)
        for x in (-1.0, 0.2, 1.5):
            got = reconstruct(back, STICKY, 0.5, x)
            assert got == pytest.approx(cand.value(x) / u0, abs=5e-4)

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
