"""Scale/speed/fundamental-solution behavior of the three families."""

import dataclasses
import math

import numpy as np
import pytest

from diffstop.diffusion import (
    BoundaryKind,
    DiffusionSpec,
    Family,
    Interval,
    fundamental,
    green,
    hitting_laplace,
    make_drift_bm,
    make_reflected_killed_bm,
    make_spec,
    make_sticky_bm,
    spec_from_config,
    speed_of_set,
)
from diffstop.errors import DomainError, ParameterError
from diffstop.representation import green_candidate
from diffstop.stopping import (default_reward, solve_threshold, st_functions, st_table,
                               value_candidate)


class TestConstruction:
    def test_sticky_natural_scale(self):
        spec = make_sticky_bm(mu=0.0, c=1.0)
        assert spec.scale(0.7) == 0.7
        assert spec.speed_atoms == ((0.0, 2.0),)

    def test_scale_normalized_at_origin(self):
        assert make_sticky_bm(mu=0.0, c=1.0).scale(0.0) == 0.0
        assert make_sticky_bm(mu=-0.25, c=1.0).scale(0.0) == 0.0

    def test_sticky_scale_with_drift_matches_quadrature(self):
        # S(1) = (e^{0.5} - 1)/0.5 for mu = -0.25; oracle: integrate S'(x) = e^{-2 mu x}
        quad = pytest.importorskip("scipy.integrate").quad
        spec = make_sticky_bm(mu=-0.25, c=1.0)
        closed = (math.exp(0.5) - 1.0) / 0.5
        numeric, err = quad(lambda x: math.exp(0.5 * x), 0.0, 1.0)
        assert abs(closed - 1.2974425414002564) < 1e-12
        assert abs(spec.scale(1.0) - closed) < 1e-14
        assert abs(spec.scale(1.0) - numeric) < 10 * err + 1e-12

    def test_scale_strictly_increasing(self):
        for spec in (make_sticky_bm(-0.4, 2.0), make_drift_bm(-1.0),
                     make_reflected_killed_bm()):
            lo = max(spec.interval.left, -8.0)
            hi = min(spec.interval.right, 8.0)
            xs = np.linspace(lo, hi, 400)
            assert np.all(np.diff(spec.scale(xs)) > 0)

    def test_parameter_rejections(self):
        with pytest.raises(ParameterError):
            make_sticky_bm(mu=0.1)
        with pytest.raises(ParameterError):
            make_sticky_bm(c=0.0)
        with pytest.raises(ParameterError):
            make_sticky_bm(c=-1.0)
        with pytest.raises(ParameterError):
            make_drift_bm(0.0)
        with pytest.raises(ParameterError, match="unknown family 'heston'"):
            make_spec("heston")

    @pytest.mark.parametrize("args, message", [
        ((1.0, 1.0), "empty interval"),
        ((0.0, math.inf, BoundaryKind.NATURAL, BoundaryKind.REFLECTING),
         "reflecting endpoint must be finite"),
    ])
    def test_interval_rejections(self, args, message):
        with pytest.raises(ParameterError, match=message):
            Interval(*args)

    def test_absorbing_request_rejected(self):
        # an accessible absorbing endpoint makes the diffusion non-regular
        with pytest.raises(ParameterError, match="absorbing"):
            make_spec("absorbing_bm")
        with pytest.raises(ParameterError, match="absorbing"):
            spec_from_config({"family": "bm_absorbed_at_zero"})

    def test_config_round_trip(self):
        spec = spec_from_config({"family": "sticky_bm", "mu": -0.5, "c": 2.0})
        assert spec.family is Family.STICKY_BM
        assert spec.mu == -0.5 and spec.c == 2.0
        assert make_spec("drift_bm", mu=-0.5) == make_drift_bm(-0.5)
        with pytest.raises(ParameterError):
            spec_from_config({"mu": -0.5})
        with pytest.raises(ParameterError):
            spec_from_config({"family": "sticky_bm", "seed": 3})

    def test_reflecting_endpoint_membership(self):
        spec = make_reflected_killed_bm()
        assert spec.interval.contains(0.0)       # reflecting, included
        assert not spec.interval.contains(1.0)   # killing, excluded
        assert spec.interval.left_kind is BoundaryKind.REFLECTING
        assert Interval(-1.0, 2.0, right_kind=BoundaryKind.REFLECTING).contains(2.0)


# hand-built driftless Brownian motion with speed atoms at -1 and 1
TWO_ATOMS = DiffusionSpec(Family.STICKY_BM, Interval(-math.inf, math.inf),
                          speed_atoms=((-1.0, 0.8), (1.0, 3.0)))


class TestStickinessInAtoms:
    def test_spec_states_stickiness_only_in_its_atoms(self):
        assert [f.name for f in dataclasses.fields(DiffusionSpec)] == \
            ["family", "interval", "mu", "speed_atoms"]
        assert make_sticky_bm(-0.3, 0.7).c == 0.7
        assert make_reflected_killed_bm().c == 0.0 and make_drift_bm(-1.0).c == 0.0
        assert TWO_ATOMS.c == 0.0

    @pytest.mark.parametrize("c", [5e-324, 1e-300, 0.1, 1.0 / 3.0, 1e300, 8.98e307])
    def test_c_is_half_the_atom_exactly(self, c):
        spec = make_sticky_bm(0.0, c)
        assert spec.speed_atoms == ((0.0, 2.0 * c),) and spec.c == c

    @pytest.mark.parametrize("c", [1e308, math.inf, math.nan])
    def test_stickiness_with_an_infinite_atom_rejected(self, c):
        with pytest.raises(ParameterError, match="stickiness"):
            make_sticky_bm(0.0, c)

    def test_scale_and_speed_follow_mu_alone(self):
        drifting = dataclasses.replace(make_reflected_killed_bm(), mu=-0.5)
        assert not drifting.identity_scale
        assert drifting.speed_density(0.3) == 2.0 * math.exp(-0.3)
        assert drifting.scale(0.3) == math.exp(0.3) - 1.0

    @pytest.mark.parametrize("spec, alpha", [
        (TWO_ATOMS, 0.3),
        (DiffusionSpec(Family.REFLECTED_KILLED_BM, Interval(-math.inf, math.inf)), 0.3),
        (dataclasses.replace(make_reflected_killed_bm(), mu=-0.5), 0.3),
        (dataclasses.replace(make_sticky_bm(0.0, 1.0), mu=0.2), 0.3),
        (dataclasses.replace(make_sticky_bm(0.0, 1.0), speed_atoms=()), 0.3),
        (dataclasses.replace(make_drift_bm(-0.5), speed_atoms=((0.0, 2.0),)), 0.0),
    ], ids=["two-atoms", "reflected-killed-on-line", "reflected-killed-drift",
            "sticky-positive-drift", "sticky-no-atom", "drift-with-atom"])
    def test_fundamental_refuses_a_spec_its_maker_would_not_build(self, spec, alpha):
        # the closed forms read mu and the atom at 0 only, so any other spec
        # would get another diffusion's solutions without a word
        with pytest.raises(ParameterError, match=f"'{spec.family.value}' has closed forms"):
            fundamental(spec, alpha)

    @pytest.mark.parametrize("spec", [make_sticky_bm(-0.3, 2.0), make_reflected_killed_bm(),
                                      make_drift_bm(-0.5)])
    def test_fundamental_accepts_an_equal_hand_built_spec(self, spec):
        alpha = 0.0 if spec.family is Family.DRIFT_BM else 0.4
        twin = DiffusionSpec(spec.family, spec.interval, spec.mu, spec.speed_atoms)
        assert fundamental(twin, alpha).wronskian == fundamental(spec, alpha).wronskian


class TestSpeedOfSet:
    def test_interval_with_atom(self):
        spec = make_sticky_bm(0.0, 1.0)
        # density 2 on a length-2 interval plus the atom 2c = 2
        assert speed_of_set(spec, -1.0, 1.0) == pytest.approx(6.0, abs=1e-14)

    def test_empty_open_interval(self):
        spec = make_sticky_bm(0.0, 1.0)
        assert speed_of_set(spec, 0.0, 0.0, include_a=False, include_b=False) == 0.0

    def test_degenerate_closed_singleton(self):
        spec = make_sticky_bm(0.0, 1.0)
        assert speed_of_set(spec, 0.0, 0.0) == 2.0

    def test_endpoint_inclusion_flags(self):
        spec = make_sticky_bm(0.0, 1.0)
        full = speed_of_set(spec, 0.0, 1.0)
        no_left = speed_of_set(spec, 0.0, 1.0, include_a=False)
        assert full - no_left == pytest.approx(2.0, abs=1e-14)
        full = speed_of_set(spec, -1.0, 0.0)        # the atom at b
        no_right = speed_of_set(spec, -1.0, 0.0, include_b=False)
        assert full - no_right == pytest.approx(2.0, abs=1e-14)

    def test_drift_density_matches_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        spec = make_drift_bm(-0.3)
        numeric, err = quad(lambda y: 2.0 * math.exp(-0.6 * y), -2.0, 1.5)
        assert speed_of_set(spec, -2.0, 1.5) == pytest.approx(numeric, abs=10 * err + 1e-12)

    def test_errors(self):
        spec = make_reflected_killed_bm()
        with pytest.raises(DomainError):
            speed_of_set(spec, -0.5, 0.5)
        with pytest.raises(ParameterError):
            speed_of_set(spec, 0.7, 0.2)
        with pytest.raises(ParameterError, match="out of order"):
            spec.speed_density_integral(0.7, 0.2)


class TestFundamentalSticky:
    def test_wronskian_value(self):
        # 2 sqrt(2 alpha) + 2 alpha c at mu = 0
        fs = fundamental(make_sticky_bm(0.0, 1.0), 0.5)
        assert fs.wronskian == pytest.approx(3.0, abs=1e-14)

    def test_normalization_at_origin(self):
        for alpha in (0.1, 0.5, 2.0):
            fs = fundamental(make_sticky_bm(0.0, 1.0), alpha)
            assert fs.psi(0.0) == pytest.approx(1.0, abs=1e-15)
            assert fs.phi(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_psi_at_one(self):
        # theta = 1, gamma = 0.5: psi(1) = 1.5 e - 0.5 e^{-1}
        fs = fundamental(make_sticky_bm(0.0, 1.0), 0.5)
        expected = 1.5 * math.e - 0.5 / math.e
        assert expected == pytest.approx(3.893483, abs=5e-7)
        assert fs.psi(1.0) == pytest.approx(expected, rel=1e-14)

    def test_theta_gamma(self):
        fs = fundamental(make_sticky_bm(-0.5, 2.0), 0.3)
        assert fs.theta == pytest.approx(math.sqrt(0.6 + 0.25), rel=1e-15)
        assert fs.gamma == pytest.approx(2.0 * 0.3 / fs.theta, rel=1e-15)

    @pytest.mark.parametrize("mu,c,alpha", [(0.0, 1.0, 0.5), (0.0, 3.0, 0.1),
                                            (-0.5, 1.0, 0.25), (-1.0, 0.5, 2.0)])
    def test_wronskian_constant_at_random_points(self, mu, c, alpha):
        fs = fundamental(make_sticky_bm(mu, c), alpha)
        rng = np.random.default_rng(42)
        xs = rng.uniform(-4.0, 4.0, size=100)
        for side in ("right", "left"):
            w = fs.psi_ds(xs, side) * fs.phi(xs) - fs.psi(xs) * fs.phi_ds(xs, side)
            assert np.max(np.abs(w - fs.wronskian)) <= 1e-10 * fs.wronskian

    @pytest.mark.parametrize("mu,c,alpha", [(0.0, 1.0, 0.5), (-0.25, 2.0, 0.7)])
    def test_sticky_jump_condition(self, mu, c, alpha):
        # scale-derivative jump at the atom equals m({0}) alpha u(0)
        fs = fundamental(make_sticky_bm(mu, c), alpha)
        for u, du in ((fs.psi, fs.psi_ds), (fs.phi, fs.phi_ds)):
            jump = du(0.0, "right") - du(0.0, "left")
            assert jump == pytest.approx(2.0 * c * alpha * u(0.0), abs=1e-10)

    def test_monotone(self):
        fs = fundamental(make_sticky_bm(-0.3, 1.5), 0.4)
        xs = np.linspace(-5.0, 5.0, 501)
        assert np.all(np.diff(fs.psi(xs)) > 0)
        assert np.all(np.diff(fs.phi(xs)) < 0)
        assert np.all(fs.psi(xs) > 0) and np.all(fs.phi(xs) > 0)

    def test_derivative_evaluators_match_difference_quotients(self):
        fs = fundamental(make_sticky_bm(-0.5, 1.0), 0.35)
        for x in (-1.3, 0.8, 2.4):   # smooth points
            h = 1e-7
            num = (fs.psi(x + h) - fs.psi(x - h)) / (2 * h)
            assert fs.psi_dx_right(x) == pytest.approx(num, rel=1e-6)
            num = (fs.phi(x + h) - fs.phi(x - h)) / (2 * h)
            assert fs.phi_dx_left(x) == pytest.approx(num, rel=1e-6)


    @pytest.mark.parametrize("side", ["Right", "up", ""])
    def test_unknown_side_rejected(self, side):
        fs = fundamental(make_sticky_bm(0.0, 1.0), 0.5)
        assert fs.psi_ds(0.0, "left") == 1.0 and fs.psi_ds(0.0, "right") == 2.0
        with pytest.raises(ParameterError, match="side"):
            fs.psi_ds(0.0, side)
        with pytest.raises(ParameterError, match="side"):
            fs.phi_ds(0.0, side)


class TestFundamentalReflectedKilled:
    def test_closed_forms(self):
        fs = fundamental(make_reflected_killed_bm(), 0.5)
        x = 0.3
        assert fs.psi(x) == pytest.approx(math.cosh(x), rel=1e-15)
        assert fs.phi(x) == pytest.approx(math.sinh(1.0 - x), rel=1e-15)

    def test_boundary_conditions(self):
        fs = fundamental(make_reflected_killed_bm(), 0.8)
        assert fs.psi_dx_right(0.0) == pytest.approx(0.0, abs=1e-15)  # reflection
        assert fs.phi(1.0) == pytest.approx(0.0, abs=1e-15)           # killing

    def test_wronskian(self):
        fs = fundamental(make_reflected_killed_bm(), 0.5)
        assert fs.wronskian == pytest.approx(math.cosh(1.0), rel=1e-14)
        xs = np.linspace(0.05, 0.95, 100)
        w = fs.psi_ds(xs) * fs.phi(xs) - fs.psi(xs) * fs.phi_ds(xs)
        assert np.max(np.abs(w - fs.wronskian)) <= 1e-10 * fs.wronskian


class TestZeroDiscount:
    def test_drift_zero_objects(self):
        spec = make_drift_bm(-0.25)
        fs = fundamental(spec, 0.0)
        # increasing solution is S - S(-inf) = e^{2|mu| x} / (2|mu|)
        assert fs.psi(1.0) == pytest.approx(math.exp(0.5) / 0.5, rel=1e-14)
        assert fs.phi(-3.0) == 1.0 and fs.phi(4.0) == 1.0
        assert fs.wronskian == 1.0
        # psi_0 = S + const, so its scale derivative is identically 1
        assert fs.psi_ds(0.7) == pytest.approx(1.0, rel=1e-14)
        assert fs.phi_ds(0.7) == 0.0

    def test_zero_discount_rejected_for_recurrent(self):
        with pytest.raises(ParameterError):
            fundamental(make_sticky_bm(0.0, 1.0), 0.0)
        with pytest.raises(ParameterError):
            fundamental(make_reflected_killed_bm(), 0.0)

    def test_positive_discount_rejected_for_drift_family(self):
        with pytest.raises(ParameterError):
            fundamental(make_drift_bm(-0.25), 0.5)

    def test_invalid_alpha(self):
        with pytest.raises(ParameterError):
            fundamental(make_sticky_bm(0.0, 1.0), -0.1)


class TestGreen:
    def test_value_at_origin(self):
        spec = make_sticky_bm(0.0, 1.0)
        assert green(spec, 0.5, 0.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_symmetry_exact(self):
        spec = make_sticky_bm(-0.2, 1.0)
        fs = fundamental(spec, 0.5)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-4, 4, 100)
        ys = rng.uniform(-4, 4, 100)
        assert np.array_equal(fs.green(xs, ys), fs.green(ys, xs))
        assert np.all(fs.green(xs, ys) > 0)

    def test_off_origin_value(self):
        # psi(-1) = e^{-1}, phi(1) = e^{-1} at theta = 1: G = e^{-2} / 3
        spec = make_sticky_bm(0.0, 1.0)
        expected = math.exp(-2.0) / 3.0
        assert expected == pytest.approx(0.045112, abs=5e-7)
        assert green(spec, 0.5, -1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_domain_errors(self):
        spec = make_reflected_killed_bm()
        with pytest.raises(DomainError):
            green(spec, 0.5, -0.1, 0.5)
        with pytest.raises(DomainError):
            green(spec, 0.5, 0.2, 1.0)   # killing endpoint not a state


class TestNonFiniteKernels:
    """At alpha = 200 (theta = 20) psi overflows past x ~ 35 and phi
    underflows: G(40, 41) is inf * 0 and psi(40) / psi(41) is inf / inf.
    Such points raise DomainError naming x, y and alpha; a point whose own
    ratio is finite returns it, whatever the other branch does."""

    SPEC = make_sticky_bm(0.0, 1.0)

    def test_own_branch_only(self):
        # phi(40) underflows to 0, but x = 10 <= y = 40 divides psi by psi;
        # the true value e^{-600} is lost to psi(40) overflowing
        v = hitting_laplace(self.SPEC, 200.0, 10.0, 40.0)
        assert type(v) is float and 0.0 <= v <= 1.0

    @pytest.mark.parametrize("call, message", [
        (lambda spec: hitting_laplace(spec, 200.0, 40.0, 41.0),
         "hitting transform at x = 40.0, y = 41.0, alpha = 200 is not finite"),
        (lambda spec: fundamental(spec, 200.0).hitting_laplace(np.array([1.0, 40.0]), 41.0),
         "hitting transform at x = 40.0, y = 41.0, alpha = 200 is not finite"),
        (lambda spec: green(spec, 200.0, 40.0, 41.0),
         "G at x = 40.0, y = 41.0, alpha = 200 is not finite"),
    ], ids=["hitting-scalar", "hitting-array", "green"])
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError) as err:
            call(self.SPEC)
        assert str(err.value) == message

    @pytest.mark.parametrize("spec", [make_sticky_bm(0.0, 1.0), make_sticky_bm(-0.3, 1.5),
                                      make_reflected_killed_bm()],
                             ids=["sticky", "sticky-drift", "reflected-killed"])
    def test_finite_values_unchanged(self, spec):
        # the former formula divided in both branches at every point
        fs = fundamental(spec, 0.7)
        lo = max(spec.interval.left, -4.0)
        xs = np.linspace(lo, min(spec.interval.right - 0.05, 4.0), 41)
        x, y = xs[:, None], xs[None, :]
        want = np.where(x <= y, fs.psi(x) / fs.psi(y), fs.phi(x) / fs.phi(y))
        assert np.array_equal(fs.hitting_laplace(x, y), want)
        pairs = ((xs[3], xs[9]), (xs[9], xs[3]))
        assert [hitting_laplace(spec, 0.7, a, b) for a, b in pairs] == \
            [want[3, 9], want[9, 3]]
        assert green(spec, 0.7, xs[3], xs[9]) == fs.green(xs[3], xs[9])


class TestHittingLaplace:
    def test_identity_at_same_point(self):
        spec = make_sticky_bm(0.0, 1.0)
        for x in (-2.0, 0.0, 1.3):
            assert hitting_laplace(spec, 0.5, x, x) == 1.0

    def test_upcrossing(self):
        spec = make_sticky_bm(0.0, 1.0)
        expected = 1.0 / (1.5 * math.e - 0.5 / math.e)
        assert expected == pytest.approx(0.256839, abs=5e-7)
        assert hitting_laplace(spec, 0.5, 0.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_downcrossing(self):
        spec = make_sticky_bm(0.0, 1.0)
        assert hitting_laplace(spec, 0.5, 1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_range_and_monotonicity(self):
        spec = make_sticky_bm(-0.4, 2.0)
        vals = [hitting_laplace(spec, 0.3, x, 1.0) for x in (-3.0, -1.0, 0.0, 0.5)]
        assert all(0 < v < 1 for v in vals)
        assert vals == sorted(vals)   # closer in scale => larger transform


def _st_side(alpha, c, i, side):
    """s (i = 0) or t (i = 1) on one side; st_table is the array form of
    the right side, st_functions the scalar form of both."""
    def ev(x):
        if np.ndim(x):
            return st_table(alpha, c, x)[i]
        return st_functions(alpha, c, x, side)[i]
    return ev


def _kink_cases():
    """(id, left evaluator, right evaluator, kink, whether the sides differ
    there): every one-sided evaluator of the package at its kink."""
    cases = []
    for mu in (0.0, -0.3):
        fs = fundamental(make_sticky_bm(mu, 1.0), 0.5)
        for name in ("psi", "phi"):
            ds = getattr(fs, f"{name}_ds")
            cases += [(f"{name}_dx-mu{mu}", getattr(fs, f"{name}_dx_left"),
                       getattr(fs, f"{name}_dx_right"), 0.0, True),
                      (f"{name}_ds-mu{mu}", lambda x, ds=ds: ds(x, "left"),
                       lambda x, ds=ds: ds(x, "right"), 0.0, True)]
    for spec, y0 in ((make_sticky_bm(0.0, 1.0), 0.7), (make_sticky_bm(-0.3, 1.0), 0.0),
                     (make_reflected_killed_bm(), 0.4)):
        g = green_candidate(spec, 0.5, y0)
        cases.append((f"green-{spec.family.value}-pole{y0}", g.ds_left, g.ds_right, y0, True))
    # x* = 0 at alpha = 0.25; at alpha = 0.1 (x* > 0) and 0.8 (x* < 0) smooth
    # fit holds at x*, and at alpha = 0.1 the value kinks at the speed atom
    for alpha, at_atom in ((0.25, True), (0.1, True), (0.1, False), (0.8, False)):
        v = value_candidate(alpha, 1.0)
        z = 0.0 if at_atom else solve_threshold(alpha, 1.0)
        cases.append((f"value-a{alpha}-at{z:.6g}", v.ds_left, v.ds_right, z, at_atom))
    r = default_reward()
    cases.append(("reward", r.dx_left, r.dx_right, -1.0, True))
    for z in (0.0, -1.0):
        for i, name in enumerate("st"):
            cases.append((f"{name}-at{z}", _st_side(0.3, 1.0, i, "left"),
                          _st_side(0.3, 1.0, i, "right"), z, True))
    return cases


_KINK_CASES = _kink_cases()


class TestKinkConvention:
    """At a kink a left derivative takes the branch below it and a right
    derivative the branch above it."""

    @pytest.mark.parametrize("case", _KINK_CASES, ids=lambda case: case[0])
    def test_left_takes_branch_below_right_branch_above(self, case):
        _, left, right, z, differs = case
        h = 1e-9 * (1.0 + abs(z))
        below, above = z - h, z + h
        # off the kink both sides are one branch, bit for bit
        assert left(below) == right(below) and left(above) == right(above)
        assert left(z) == pytest.approx(right(below), rel=1e-6, abs=1e-6)
        assert right(z) == pytest.approx(left(above), rel=1e-6, abs=1e-6)
        assert (abs(left(z) - right(z)) > 1e-3) == differs

    @pytest.mark.parametrize("case", _KINK_CASES, ids=lambda case: case[0])
    def test_scalar_and_array_calls_agree(self, case):
        name, left, right, z, _ = case
        xs = np.array([z - 1e-9 * (1.0 + abs(z)), z, z + 1e-9 * (1.0 + abs(z))])
        # st_functions takes scalars only; st_table holds its right side
        for ev in (right,) if name[:2] in ("s-", "t-") else (left, right):
            got = ev(xs)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [ev(x) for x in xs.tolist()]
            assert type(ev(z)) is float
