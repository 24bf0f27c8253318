"""Martin/Riesz measures, reconstruction, derivative jumps, excessivity."""

import math

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
            u = lambda x, y=y: float(fs.green(x, y))
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
        # u is called with one float at a time, once per mesh node; only the
        # bounds u(x) and the atom's u(0) repeat a point
        seen = []

        def u(y):
            assert isinstance(y, float)
            seen.append(y)
            return 1.0

        excessivity_check(STICKY, 0.3, u, self.GRID, (10.0,))
        nodes = [y for y in seen if y not in set(self.GRID)]
        assert len(nodes) == len(set(nodes)) > 100

    @pytest.mark.parametrize("u", [
        lambda y: float(y > 0.31),                          # jump off the mesh
        lambda y: math.sin(1.0 / (y - 0.31)),              # endless oscillation
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
