"""Threshold solver, value function, smooth-fit classification."""

import math
import warnings

import numpy as np
import pytest

from diffstop.diffusion import fundamental, make_sticky_bm
from diffstop.errors import DomainError, ParameterError
from diffstop.representation import excessivity_check, f_derivative
from diffstop.stopping import (
    _value_setup,
    alpha_thresholds,
    default_reward,
    general_smooth_fit_check,
    smooth_fit_report,
    solve_alpha_zero,
    solve_threshold,
    st_functions,
    st_table,
    value_candidate,
    value_function,
)

# root of t on (0, oo) for alpha = 0.1, c = 1, frozen from bisection at
# machine tolerance; the figure-level statement is x* ~ 0.90
X_STAR_01 = 0.8976069230774729


class TestSTFunctions:
    def test_one_sided_limits_at_sticky_point(self):
        alpha, c = 0.25, 1.0
        k = math.sqrt(2 * alpha)
        _, t_left = st_functions(alpha, c, 0.0, side="left")
        _, t_right = st_functions(alpha, c, 0.0, side="right")
        s_right, _ = st_functions(alpha, c, 0.0, side="right")
        s_left, _ = st_functions(alpha, c, 0.0, side="left")
        assert t_left == pytest.approx(k - 1.0, abs=1e-14)            # ~ -0.292893
        assert t_right == pytest.approx(k - 1.0 + 0.5, abs=1e-14)     # ~ 0.207107
        assert s_right == pytest.approx(k + 1.0, abs=1e-14)           # ~ 1.707107
        assert s_left == pytest.approx(k + 1.0 + 0.5, abs=1e-14)

    def test_zero_below_reward_support(self):
        assert st_functions(0.25, 1.0, -1.7) == (0.0, 0.0)

    def test_limit_at_reward_kink(self):
        alpha, c = 0.3, 2.0
        k = math.sqrt(2 * alpha)
        _, t_right = st_functions(alpha, c, -1.0, side="right")
        assert t_right == pytest.approx(-math.exp(-k), rel=1e-12)

    def test_side_required_at_discontinuities(self):
        with pytest.raises(DomainError):
            st_functions(0.25, 1.0, 0.0)
        with pytest.raises(DomainError):
            st_functions(0.25, 1.0, -1.0)

    def test_monotonicity_and_limits(self):
        alpha, c = 0.25, 1.0
        xs = np.linspace(-0.999, 14.0, 3000)
        s, t = st_table(alpha, c, xs)
        left = xs < 0.0
        right = xs > 0.0
        assert np.all(np.diff(s[left]) < 0) and np.all(np.diff(s[right]) < 0)
        assert np.all(np.diff(t[left]) > 0) and np.all(np.diff(t[right]) > 0)
        assert s[-1] < 1e-3                  # s -> 0 at +oo
        assert t[-1] > 100.0                 # t -> +oo
        assert t[0] < 0.0                    # t(-1+) < 0

    def test_matches_defining_combination(self):
        # s = phi g' - phi' g and t = g psi' - g' psi, checked off the kinks
        alpha, c = 0.35, 1.5
        spec = make_sticky_bm(0.0, c)
        fs = fundamental(spec, alpha)
        g = default_reward()
        for x in (-0.6, 0.4, 1.7):
            s_val, t_val = st_functions(alpha, c, x)
            s_ref = float(fs.phi(x)) * g.dx_right(x) - float(fs.phi_dx_right(x)) * g.value(x)
            t_ref = g.value(x) * float(fs.psi_dx_right(x)) - g.dx_right(x) * float(fs.psi(x))
            assert s_val == pytest.approx(s_ref, rel=1e-12)
            assert t_val == pytest.approx(t_ref, rel=1e-12)


class TestThreshold:
    def test_sticky_point_regime(self):
        assert solve_threshold(0.25, 1.0) == 0.0

    def test_positive_root_regime(self):
        xs = solve_threshold(0.1, 1.0)
        assert xs == pytest.approx(X_STAR_01, abs=1e-12)
        _, t_at = st_functions(0.1, 1.0, xs)
        assert abs(t_at) <= 1e-12

    def test_negative_branch_closed_form(self):
        xs = solve_threshold(0.6, 1.0)
        assert xs == pytest.approx(1.0 / math.sqrt(1.2) - 1.0, abs=1e-12)

    def test_regime_boundaries(self):
        a1, a2 = alpha_thresholds(1.0)
        assert a1 == pytest.approx((3.0 - math.sqrt(5.0)) / 4.0, abs=1e-15)
        assert solve_threshold(a1, 1.0) == 0.0
        assert solve_threshold(a2, 1.0) == 0.0
        assert solve_threshold(a1 - 1e-4, 1.0) > 0.0
        assert solve_threshold(a2 + 1e-4, 1.0) < 0.0

    @pytest.mark.parametrize("c", [0.1, 1.0, 3.0, 10.0])
    def test_regime_law_on_sweep(self, c):
        a1, a2 = alpha_thresholds(c)
        for alpha in np.linspace(0.2 * a1, a2 + 0.3, 29):
            xs = solve_threshold(float(alpha), c)
            if alpha < a1 - 1e-12:
                assert xs > 0.0
            elif alpha <= a2 + 1e-12:
                assert xs == 0.0
            else:
                assert -1.0 < xs < 0.0

    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0, 10.0])
    def test_alpha1_is_the_regime_boundary(self, c):
        # alpha1 solves t(0+) = 0 for general stickiness
        a1, _ = alpha_thresholds(c)
        _, t_right = st_functions(a1, c, 0.0, side="right")
        assert t_right == pytest.approx(0.0, abs=1e-12)
        assert solve_threshold(a1 * (1.0 - 1e-6), c) > 0.0
        assert solve_threshold(a1 * (1.0 + 1e-6), c) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            solve_threshold(0.0, 1.0)
        with pytest.raises(ParameterError):
            solve_threshold(0.5, -1.0)


class TestValueFunction:
    def test_below_threshold_exponential(self):
        assert value_function(0.5, 1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_stopping_region_equals_reward(self):
        assert value_function(0.5, 1.0, 2.0) == 3.0

    def test_interior_point(self):
        expected = math.exp(-0.5 * math.sqrt(0.5))
        assert expected == pytest.approx(0.702189, abs=5e-7)
        assert value_function(0.25, 1.0, -0.5) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.7])
    def test_setup_is_solved_once(self, alpha):
        # threshold and fundamental solutions are set up once per (alpha, c);
        # the cached values reproduce the formula bit for bit
        _value_setup.cache_clear()
        xs = np.linspace(-3.0, 3.0, 61)
        got = [value_function(alpha, 1.0, x) for x in xs]
        assert _value_setup.cache_info().misses == 1
        x_star = solve_threshold(alpha, 1.0)
        fs = fundamental(make_sticky_bm(0.0, 1.0), alpha)
        coef = (1.0 + x_star) / float(fs.psi(x_star))
        want = np.where(xs <= x_star, coef * fs.psi(xs), np.maximum(1.0 + xs, 0.0))
        assert np.array_equal(got, want)
        assert np.array_equal(value_candidate(alpha, 1.0).value(xs), want)
        assert _value_setup.cache_info().misses == 1

    def test_majorant_strict_in_continuation_region(self):
        # strictness is checked a hair away from the threshold: at a
        # smooth-fit boundary the gap closes quadratically
        for alpha in (0.1, 0.25, 0.5, 0.6):
            xs_star = solve_threshold(alpha, 1.0)
            g = default_reward()
            pts = np.linspace(-0.99, xs_star - 1e-3, 50)
            v = value_function(alpha, 1.0, pts)
            assert np.all(v > np.asarray(g.value(pts)))
            beyond = np.linspace(xs_star, xs_star + 3, 25)
            assert np.allclose(value_function(alpha, 1.0, beyond),
                               g.value(beyond), atol=1e-14)

    def test_reward_over_psi_monotone_below_threshold(self):
        # q = g / psi increases on the continuation region
        alpha, c = 0.1, 1.0
        fs = fundamental(make_sticky_bm(0.0, c), alpha)
        xs_star = solve_threshold(alpha, c)
        xs = np.linspace(-0.95, xs_star - 1e-6, 200)
        q = np.asarray(default_reward().value(xs)) / np.asarray(fs.psi(xs))
        assert np.all(np.diff(q) > 0)

    def test_value_passes_excessivity(self):
        spec = make_sticky_bm(0.0, 1.0)
        rep = excessivity_check(spec, 0.25, lambda x: value_function(0.25, 1.0, x),
                                np.linspace(-3, 3, 11), (1.0, 10.0),
                                kinks=(-1.0, 0.0))
        assert rep.passed


    @pytest.mark.parametrize("alpha", [3e5, 1e6])
    def test_large_alpha_without_division(self, alpha):
        # psi(x*) underflows to 0 here, and the value and its derivatives
        # below x* are (1 + x*) exp(k (x - x*)) and k times it
        xs = solve_threshold(alpha, 1.0)
        k = math.sqrt(2.0 * alpha)
        grid = np.linspace(-3.0, 3.0, 121)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = value_function(alpha, 1.0, grid)
            cand = value_candidate(alpha, 1.0)
            left, right = cand.ds_left(grid), cand.ds_right(grid)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(left))
        low = grid <= xs
        want = (1.0 + xs) * np.exp(k * (grid[low] - xs))
        assert np.array_equal(v[~low], np.maximum(1.0 + grid[~low], 0.0))
        assert np.allclose(v[low], want, rtol=1e-12, atol=1e-300)
        assert np.allclose(left[low], k * want, rtol=1e-12, atol=1e-300)
        assert np.array_equal(right[~low], np.ones(np.count_nonzero(~low)))
        x = xs - 1e-4
        assert value_function(alpha, 1.0, x) == pytest.approx(
            (1.0 + xs) * math.exp(-k * 1e-4), rel=1e-12)
        assert cand.ds_left(xs) == pytest.approx(k * (1.0 + xs), rel=1e-12)

    def test_value_where_psi_underflows(self):
        # psi(x*) is a normal float at this rate, but psi(x) is not below
        # x ~ -1.0015, where the value (1 + x*) exp(k (x - x*)) is not 0
        alpha = 2.5e5
        xs, k = solve_threshold(alpha, 1.0), math.sqrt(2.0 * alpha)
        grid = np.concatenate([[-2.0, -1.5, -1.2], np.linspace(-1.1, xs, 101)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = value_function(alpha, 1.0, grid)
            left = value_candidate(alpha, 1.0).ds_left(grid)
        want = (1.0 + xs) * np.exp(k * (grid - xs))
        assert np.all(want > 0.0)
        assert np.allclose(v, want, rtol=1e-11, atol=0.0)
        assert np.allclose(left, k * want, rtol=1e-11, atol=0.0)
        assert v[:3] == pytest.approx([1.985e-65, 1.479e-157, 4.204e-311], rel=1e-3)
        assert left[2] == pytest.approx(1.403e-62, rel=1e-3)

    def test_unused_branch_does_not_overflow(self):
        # psi's x > 0 branch at x < -0.5 and phi's x < 0 branch at x > 0.5
        # used to overflow inside np.where; the values themselves underflow
        fs = fundamental(make_sticky_bm(0.0, 1.0), 1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in (0.6, 3.0):
                assert 0.0 <= fs.psi(-x) < 1e-300 and 0.0 <= fs.phi(x) < 1e-300
                for side in ("left", "right"):
                    assert 0.0 <= fs.psi_ds(-x, side) < 1e-300
                    assert -1e-300 < fs.phi_ds(x, side) <= 0.0


class TestSmoothFitReport:
    def test_smooth_fit_at_half(self):
        rep = smooth_fit_report(0.5, 1.0)
        assert rep.x_star == 0.0
        assert rep.jump == pytest.approx(0.0, abs=1e-14)
        assert rep.sigma_atom == pytest.approx(1.0, abs=1e-12)
        assert rep.verdict == "SmoothFit"

    def test_failure_with_zero_atom_at_alpha1(self):
        a1, _ = alpha_thresholds(1.0)
        rep = smooth_fit_report(a1, 1.0)
        assert rep.x_star == 0.0
        assert rep.jump == pytest.approx(math.sqrt(5.0) / 2.0 - 1.5, abs=1e-12)
        assert rep.jump == pytest.approx(-0.381966, abs=5e-7)
        assert rep.sigma_atom == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == "Fails"

    def test_smooth_fit_with_positive_threshold(self):
        rep = smooth_fit_report(0.1, 1.0)
        assert rep.x_star == pytest.approx(X_STAR_01, abs=1e-12)
        assert rep.jump == pytest.approx(0.0, abs=1e-12)
        assert rep.speed_term == 0.0
        assert rep.verdict == "SmoothFit"

    def test_large_alpha_is_finite(self):
        # psi(x*) underflows to 0 at x* = 1/sqrt(2e6) - 1
        rep = smooth_fit_report(1e6, 1.0)
        assert rep.x_star == pytest.approx(1.0 / math.sqrt(2e6) - 1.0, abs=1e-15)
        assert math.isfinite(rep.jump) and math.isfinite(rep.sigma_atom)
        assert rep.jump == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == "SmoothFit"

    def test_decomposition_identity(self):
        for alpha in (0.05, 0.190983, 0.25, 0.5, 0.55, 0.6):
            rep = smooth_fit_report(alpha, 1.0)
            assert abs(rep.jump - rep.sigma_atom + rep.speed_term) <= 1e-9

    def test_jump_matches_numeric_one_sided_slopes(self):
        for alpha in np.arange(0.05, 0.66, 0.05):
            alpha = float(alpha)
            rep = smooth_fit_report(alpha, 1.0)
            v = lambda x: value_function(alpha, 1.0, x)
            left = f_derivative(v, lambda x: x, rep.x_star, "left")
            right = f_derivative(v, lambda x: x, rep.x_star, "right")
            assert rep.jump == pytest.approx(left - right, abs=1e-6)

    def test_verdict_regimes(self):
        a1, _ = alpha_thresholds(1.0)
        for alpha in (0.05, 0.1, 0.15, 0.55, 0.6):
            assert smooth_fit_report(alpha, 1.0).verdict == "SmoothFit"
        for alpha in (a1, 0.2, 0.3, 0.45, 0.499):
            assert smooth_fit_report(alpha, 1.0).verdict == "Fails"
        assert smooth_fit_report(0.5, 1.0).verdict == "SmoothFit"

    def test_doc_schema(self):
        doc = smooth_fit_report(0.5, 1.0).to_doc()
        assert set(doc) == {"alpha", "c", "x_star", "jump", "sigma_atom",
                            "speed_term", "alpha1", "alpha2", "verdict"}


class TestGeneralSmoothFitCheck:
    SPEC = make_sticky_bm(0.0, 1.0)
    REWARD = default_reward()

    def test_smooth_at_positive_threshold(self):
        xs = solve_threshold(0.1, 1.0)
        verdict = general_smooth_fit_check(self.SPEC, 0.1, self.REWARD.value,
                                           xs, lambda x: x)
        assert verdict == "SmoothFit"

    def test_inconclusive_at_sticky_point(self):
        verdict = general_smooth_fit_check(self.SPEC, 0.25, self.REWARD.value,
                                           0.0, lambda x: x)
        assert verdict == "Inconclusive"

    def test_scale_and_identity_agree_for_driftless(self):
        xs = solve_threshold(0.1, 1.0)
        verdict = general_smooth_fit_check(self.SPEC, 0.1, self.REWARD.value,
                                           xs, self.SPEC.scale)
        assert verdict == "SmoothFit"

    def test_non_monotone_f_rejected(self):
        with pytest.raises(DomainError):
            general_smooth_fit_check(self.SPEC, 0.1, self.REWARD.value,
                                     0.5, lambda x: -x)


class TestAlphaZero:
    def test_threshold_at_quarter_drift(self):
        sol = solve_alpha_zero(-0.25)
        assert sol.threshold == pytest.approx(1.0, abs=1e-14)

    def test_threshold_hits_zero(self):
        assert solve_alpha_zero(-0.5).threshold == pytest.approx(0.0, abs=1e-14)

    def test_stickiness_invariance(self):
        a = solve_alpha_zero(-0.25, c=1.0)
        b = solve_alpha_zero(-0.25, c=7.0)
        assert a.threshold == b.threshold
        xs = np.linspace(-4, 4, 41)
        assert np.array_equal(a.value(xs), b.value(xs))

    def test_threshold_below_zero_for_strong_drift(self):
        # maximizing g / psi_0 lands below the sticky point; clamping to 0
        # would break the majorant property
        sol = solve_alpha_zero(-0.6)
        assert sol.threshold == pytest.approx(1.0 / 1.2 - 1.0, abs=1e-14)
        xs = np.linspace(-0.999, 4, 300)
        g = np.maximum(1.0 + xs, 0.0)
        assert np.all(np.asarray(sol.value(xs)) >= g - 1e-12)

    def test_smooth_fit_at_threshold(self):
        sol = solve_alpha_zero(-0.25)
        left = f_derivative(sol.value, lambda x: x, sol.threshold, "left")
        right = f_derivative(sol.value, lambda x: x, sol.threshold, "right")
        assert left == pytest.approx(right, abs=1e-6)
        assert right == pytest.approx(1.0, abs=1e-8)

    def test_majorant(self):
        sol = solve_alpha_zero(-0.25)
        xs = np.linspace(-5, 5, 101)
        assert np.all(np.asarray(sol.value(xs)) >=
                      np.maximum(1.0 + xs, 0.0) - 1e-12)

    def test_recurrent_rejected(self):
        with pytest.raises(ParameterError):
            solve_alpha_zero(0.0)
        with pytest.raises(ParameterError):
            solve_alpha_zero(0.3)
