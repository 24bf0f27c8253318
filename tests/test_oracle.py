"""Birth-death chain construction, solvers, and agreement with closed forms."""

import dataclasses
import decimal
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from diffstop import oracle
from diffstop.diffusion import (DiffusionSpec, Family, Interval, make_drift_bm,
                                make_reflected_killed_bm, make_sticky_bm)
from diffstop.errors import ConvergenceError, DomainError, ParameterError
from diffstop.oracle import (_continuation, _edge_roots, _harmonic_logs,
                             _majorant_policy, _policy_values, compare,
                             discretize, solve_chain_stopping)
from diffstop.stopping import solve_threshold, value_function

STICKY = make_sticky_bm(0.0, 1.0)


def two_sided_reward(x):
    return np.maximum(np.abs(np.asarray(x, dtype=float)) - 1.0, 0.0)


def sawtooth_reward(x):
    # every other node carries a 5% bump, so the one-step test keeps each
    # bump alone: thousands of one-node runs
    x = np.asarray(x, dtype=float)
    return np.maximum(1.0 + x, 0.0) * (1.0 + 0.05 * (np.arange(len(x)) % 2))


def knots_reward(knots):
    def reward(x):
        return np.interp(x, np.linspace(x[0], x[-1], len(knots)), knots)
    return reward


def denominators(chain, alpha):
    """``alpha + up + down`` at the interior nodes, as the solver forms it."""
    return alpha + chain.up_rate + chain.down_rate


def policy_inputs(chain, alpha):
    """The majorant pass's inputs ``(denom, ratios, logs)``, as the solver
    forms them."""
    roots = _edge_roots(chain, alpha)
    return denominators(chain, alpha), roots[0], _harmonic_logs(chain, alpha, roots)


def residual(chain, v, alpha):
    """Sup-distance of v from one step of the fixed-point map."""
    cont = _continuation(chain, v, denominators(chain, alpha),
                         _edge_roots(chain, alpha)[0])
    return float(np.max(np.abs(v - np.maximum(chain.reward, cont))))


def value_iteration(chain, alpha, sweeps=200_000):
    """Reference: the chain's value by plain value iteration from the reward.

    Sweeps V <- max(g, one step of continuation), at most ``sweeps`` times,
    until the sup-change is at most 1e-11, which leaves roughly
    change / (1 - contraction) distance to the fixed point; the result must
    pass the solver's 1e-10 residual gate as well.
    """
    g = chain.reward
    ratios = _edge_roots(chain, alpha)[0]
    denom = denominators(chain, alpha)
    v = g.copy()
    for _ in range(sweeps):
        new = np.maximum(g, _continuation(chain, v, denom, ratios))
        delta = float(np.max(np.abs(new - v)))
        v = new
        if delta <= 1e-11:
            assert residual(chain, v, alpha) <= 1e-10
            return v
    raise AssertionError(f"value iteration did not converge in {sweeps} sweeps")


def cell_masses_by_loop(spec, nodes):
    """Node masses as one closed-form integral per cell, plus the atoms."""
    edges = np.empty(len(nodes) + 1)
    edges[0], edges[-1] = nodes[0], nodes[-1]
    edges[1:-1] = 0.5 * (nodes[1:] + nodes[:-1])
    mass = []
    for a, b in zip(edges[:-1], edges[1:]):
        if spec.family is Family.REFLECTED_KILLED_BM or spec.mu == 0.0:
            mass.append(2.0 * (b - a))
        else:
            mass.append((math.exp(2.0 * spec.mu * b)
                         - math.exp(2.0 * spec.mu * a)) / spec.mu)
    mass = np.array(mass)
    for loc, w in spec.speed_atoms:
        mass[int(np.argmin(np.abs(nodes - loc)))] += w
    return mass


class TestDiscretize:
    def test_atom_node_mass(self):
        chain = discretize(STICKY, -5.0, 5.0, 2001)
        i = chain.node_index(0.0)
        h = chain.nodes[i + 1] - chain.nodes[i - 1]
        # density 2 over the surrounding half-cells plus the atom 2c
        assert chain.node_mass[i] == pytest.approx(h + 2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [100, 101, 2000, 2001])
    def test_atom_on_grid_for_any_parity(self, n):
        chain = discretize(STICKY, -5.0, 5.0, n)
        assert 0.0 in chain.nodes

    def test_drift_masses_decreasing(self):
        spec = make_drift_bm(-0.25)
        chain = discretize(spec, -5.0, 5.0, 1001)
        interior = chain.node_mass[1:-1]
        assert np.all(np.diff(interior) < 0)

    def test_total_mass_matches_speed_of_set(self):
        from diffstop.diffusion import speed_of_set
        chain = discretize(STICKY, -3.0, 3.0, 301)
        assert chain.node_mass.sum() == pytest.approx(
            speed_of_set(STICKY, -3.0, 3.0), rel=1e-12)

    @pytest.mark.parametrize("spec, lo, hi", [
        (STICKY, -6.0, 6.0),
        (make_reflected_killed_bm(), 0.0, 0.9),
    ])
    def test_masses_equal_per_cell_loop_without_drift(self, spec, lo, hi):
        chain = discretize(spec, lo, hi, 4001)
        assert np.array_equal(chain.node_mass,
                              cell_masses_by_loop(spec, chain.nodes))

    @pytest.mark.parametrize("spec", [make_sticky_bm(-0.3, 0.5),
                                      make_drift_bm(-0.25),
                                      make_drift_bm(-0.6)])
    def test_masses_match_per_cell_loop_with_drift(self, spec):
        chain = discretize(spec, -6.0, 6.0, 4001)
        ref = cell_masses_by_loop(spec, chain.nodes)
        assert np.max(np.abs(chain.node_mass / ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize("spec, lo, hi, n", [
        (make_drift_bm(-0.5), -100.0, 100.0, 501),
        (make_sticky_bm(-0.3, 1.0), -60.0, 60.0, 4001),
        (make_drift_bm(-0.5), -100.0, 800.0, 4001),
        (make_sticky_bm(-0.3, 1.0), -1300.0, 60.0, 4001),
    ])
    def test_wide_drift_window_solves(self, spec, lo, hi, n):
        # far to the left the scale is nearly constant, where differences of
        # its values round to zero; where |2 mu x| > 709 the speed density or
        # the scale overflows a float, though every rate is finite
        sol = solve_chain_stopping(discretize(spec, lo, hi, n), 0.5)
        assert sol.residual <= 1e-10

    def test_drift_increments_match_decimal_reference(self):
        # the chain's masses and rates against 40-digit increments of its
        # own nodes and cell edges
        spec = make_sticky_bm(-0.3, 1.0)
        chain = discretize(spec, -40.0, 40.0, 4001)
        nodes = chain.nodes
        edges = np.concatenate(([nodes[0]], 0.5 * (nodes[1:] + nodes[:-1]), [nodes[-1]]))
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            two_mu = 2 * decimal.Decimal(spec.mu)
            scale = [(1 - (-two_mu * decimal.Decimal(x)).exp()) / two_mu for x in nodes]
            speed = [2 * (two_mu * decimal.Decimal(x)).exp() / two_mu for x in edges]
            mass = [b - a for a, b in zip(speed[:-1], speed[1:])]
            mass[chain.node_index(0.0)] += decimal.Decimal(2.0 * spec.c)
            ds = [b - a for a, b in zip(scale[:-1], scale[1:])]
            up = [1 / (m * d) for m, d in zip(mass[1:-1], ds[1:])]
            down = [1 / (m * d) for m, d in zip(mass[1:-1], ds[:-1])]
        for got, want in ((chain.node_mass, mass), (chain.up_rate, up),
                          (chain.down_rate, down)):
            want = np.array([float(v) for v in want])
            assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    def test_window_and_size_validation(self):
        with pytest.raises(ParameterError):
            discretize(STICKY, -5.0, 5.0, 49)
        with pytest.raises(DomainError, match="speed atom at 0.0 must snap onto an interior"):
            discretize(STICKY, 0.5, 5.0, 101)    # atom outside window
        rk = __import__("diffstop").make_reflected_killed_bm()
        with pytest.raises(DomainError):
            discretize(rk, -1.0, 0.9, 101)
        # refused before the grid is built, so linspace warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in ((-np.inf, 6.0), (-6.0, np.inf), (-np.inf, np.inf)):
                with pytest.raises(DomainError, match="not finite"):
                    discretize(STICKY, lo, hi, 100)
            with pytest.raises(DomainError, match="outside the interval"):
                discretize(STICKY, np.nan, 6.0, 100)

    @pytest.mark.parametrize("lo, hi", [(-0.0005, 6.0), (-6.0, 0.0005)])
    def test_atom_on_a_truncation_node_rejected(self, lo, hi):
        # at n = 4001 the atom at 0 lies nearest the edge node, which has no
        # rates: snapped there it would read as the window's end
        with pytest.raises(DomainError, match=re.escape(
                f"speed atom at 0.0 must snap onto an interior node of window [{lo}, {hi}] "
                "at n = 4001")):
            discretize(STICKY, lo, hi, 4001)

    def test_two_atoms_on_one_node_rejected(self):
        # nearest the same node, the second atom would take the first one's
        # place, and the first atom's location would leave the grid
        spec = DiffusionSpec(Family.STICKY_BM, Interval(-math.inf, math.inf),
                             speed_atoms=((0.0, 1.0), (0.01, 1.0)))
        with pytest.raises(DomainError, match=re.escape(
                "speed atoms at 0.0 and 0.01 snap onto the same node of window "
                "[-6.0, 6.0] at n = 201; increase n")):
            discretize(spec, -6.0, 6.0, 201)
        # a grid fine enough to part them keeps both, each with its weight
        chain = discretize(spec, -6.0, 6.0, 4001)
        for loc, w in spec.speed_atoms:
            i = chain.node_index(loc)
            h = chain.nodes[i + 1] - chain.nodes[i - 1]
            assert chain.node_mass[i] == pytest.approx(h + w, rel=1e-12)

    def test_hand_built_two_atom_spec_solves(self):
        # fundamental refuses this spec, but the chain reads the atoms alone
        spec = DiffusionSpec(Family.STICKY_BM, Interval(-math.inf, math.inf),
                             speed_atoms=((-1.0, 0.8), (1.0, 3.0)))
        chain = discretize(spec, -12.0, 12.0, 2001)
        for loc, w in spec.speed_atoms:
            i = chain.node_index(loc)
            h = chain.nodes[i + 1] - chain.nodes[i - 1]
            assert chain.node_mass[i] == pytest.approx(h + w, rel=1e-12)
        assert solve_chain_stopping(chain, 0.3).residual <= 1e-12

    def test_scalar_reward_broadcast(self):
        # a reward that returns a scalar is one value on every node
        chain = discretize(STICKY, -6.0, 6.0, 201, reward=lambda x: 1.0)
        assert chain.reward.shape == chain.nodes.shape
        assert np.all(chain.reward == 1.0)
        assert np.all(solve_chain_stopping(chain, 0.5).values == 1.0)

    def test_wrong_reward_shape_rejected(self):
        with pytest.raises(ParameterError, match="shape"):
            discretize(STICKY, -6.0, 6.0, 201, reward=lambda x: x[:5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_rejected(self, bad):
        def reward(x):
            g = np.maximum(1.0 + x, 0.0)
            g[100] = bad
            return g
        with pytest.raises(ParameterError):
            discretize(STICKY, -6.0, 6.0, 201, reward=reward)


class TestSolvers:
    def test_zero_reward(self):
        chain = discretize(STICKY, -4.0, 4.0, 201, reward=lambda x: 0.0 * np.asarray(x))
        sol = solve_chain_stopping(chain, 0.5)
        assert np.all(sol.values == 0.0)

    def test_unit_reward_stops_immediately(self):
        chain = discretize(STICKY, -4.0, 4.0, 201,
                           reward=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        sol = solve_chain_stopping(chain, 0.5)
        assert np.all(sol.values == 1.0)

    def test_value_and_policy_iteration_agree(self):
        chain = discretize(STICKY, -6.0, 6.0, 201)
        ref = value_iteration(chain, 0.5)
        b = solve_chain_stopping(chain, 0.5)
        assert np.max(np.abs(ref - b.values)) <= 1e-7

    def test_policy_iteration_on_coarse_grids(self):
        # the contraction factor here is below 0.999, where value iteration
        # would converge quickly; the solver still takes the majorant's pass
        chain = discretize(STICKY, -6.0, 6.0, 201)
        sol = solve_chain_stopping(chain, 0.5)
        assert sol.iterations == 2
        assert sol.residual <= 1e-10

    def test_chain_value_is_superharmonic_majorant(self):
        chain = discretize(STICKY, -6.0, 6.0, 801)
        sol = solve_chain_stopping(chain, 0.25)
        v = sol.values
        assert np.all(v >= chain.reward - 1e-11)
        denom = 0.25 + chain.up_rate + chain.down_rate
        cont = (chain.up_rate * v[2:] + chain.down_rate * v[:-2]) / denom
        assert np.all(cont <= v[1:-1] + 1e-11)

    def test_non_finite_residual_raises(self):
        # chains built around discretize's check: a NaN node, and +inf for
        # x > 0, leave a NaN residual, which must not pass the gate
        chain = discretize(STICKY, -6.0, 6.0, 201)
        nan_node = chain.reward.copy()
        nan_node[100] = np.nan
        inf_right = np.where(chain.nodes > 0.0, np.inf, chain.reward)
        for g in (nan_node, inf_right):
            bad = dataclasses.replace(chain, reward=g)
            with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError):
                solve_chain_stopping(bad, 0.5)

    def test_deterministic_across_runs(self):
        chain = discretize(STICKY, -6.0, 6.0, 501)
        a = solve_chain_stopping(chain, 0.5)
        b = solve_chain_stopping(chain, 0.5)
        assert pickle.dumps(a.values) == pickle.dumps(b.values)


class TestMajorantSeed:
    """The solver's policy is the chain's least F-concave majorant's."""

    @pytest.mark.parametrize("reward, alpha", [
        (None, 0.1), (None, 0.25), (None, 0.6),
        (two_sided_reward, 0.1), (two_sided_reward, 0.8),
    ])
    def test_first_policy_is_optimal(self, reward, alpha):
        # the closed form gives the value, one improvement round confirms it
        chain = discretize(STICKY, -6.0, 6.0, 4001, reward=reward)
        sol = solve_chain_stopping(chain, alpha)
        assert sol.iterations == 2
        assert sol.residual <= 1e-10

    def test_unstable_policy_raises(self, monkeypatch):
        # one stop node turned to continue: the confirming round would stop
        # there again, and the solver reports that instead of re-solving
        exact = oracle._majorant_policy

        def flipped(*args):
            mask = exact(*args)
            mask[np.flatnonzero(~mask)[5]] = True
            return mask

        monkeypatch.setattr(oracle, "_majorant_policy", flipped)
        chain = discretize(STICKY, -6.0, 6.0, 201)
        with pytest.raises(ConvergenceError, match="not stable") as err:
            solve_chain_stopping(chain, 0.5)
        assert err.value.achieved > 1e-10

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_two_sided_stop_rows_equal_reward(self, alpha):
        # stop rows left of the continuation band are not shielded from the
        # banded solve's pivoting; they must still return the reward exactly
        # (both edges, at |x| = 6, lie in the stopping set)
        chain = discretize(STICKY, -6.0, 6.0, 4001, reward=two_sided_reward)
        v = solve_chain_stopping(chain, alpha).values
        g = chain.reward
        denom = alpha + chain.up_rate + chain.down_rate
        cont = (chain.up_rate * v[2:] + chain.down_rate * v[:-2]) / denom
        stop = np.concatenate(([True], cont < g[1:-1], [True]))
        assert stop[:len(g) // 2].any() and stop[len(g) // 2:].any()
        assert np.array_equal(v[stop], g[stop])

    @pytest.mark.parametrize("half_width, n, alpha, tol", [
        (400.0, 401, 0.5, 1e-9), (400.0, 401, 1.0, 1e-9),
        # value iteration's own stopping error is ~1e-9 on this finer grid
        (200.0, 8001, 2.0, 1e-8),
    ])
    @pytest.mark.parametrize("reward", [None, two_sided_reward])
    def test_overflowing_window_takes_two_rounds(self, half_width, n, alpha,
                                                 tol, reward):
        # F = psi/phi grows like exp(2 sqrt(2 alpha) x), so the chord tests
        # of a float hull overflow here; the hull in logs still finds the
        # optimal policy
        chain = discretize(STICKY, -half_width, half_width, n, reward=reward)
        sol = solve_chain_stopping(chain, alpha)
        ref = value_iteration(chain, alpha)
        assert sol.iterations == 2
        assert sol.residual <= 1e-10
        assert np.max(np.abs(sol.values - ref)) <= tol

    @pytest.mark.parametrize("knots", [[5e-324, 0.0], [5e-324, -2.0]])
    def test_subnormal_reward_takes_two_rounds(self, knots):
        # one step of continuation rounds a subnormal reward back to itself,
        # so the pass scales g by a power of two first; found by the
        # hypothesis test below
        chain = discretize(STICKY, -10.0, 10.0, 201, reward=knots_reward(knots))
        sol = solve_chain_stopping(chain, 1.0)
        assert sol.iterations == 2
        assert sol.residual <= 1e-10
        ref = value_iteration(chain, 1.0)
        assert np.max(np.abs(sol.values - ref)) <= 1e-7

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.6, 1.5])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("reward", [None, two_sided_reward])
    def test_log_hull_matches_float_hull(self, alpha, c, reward):
        # same mask, so the same policy values bit for bit
        chain = discretize(make_sticky_bm(0.0, c), -6.0, 6.0, 2001,
                           reward=reward)
        denom, ratios, logs = policy_inputs(chain, alpha)
        mask = _majorant_policy(chain, denom, ratios, logs)
        assert np.array_equal(mask, float_majorant_policy(chain, logs))
        assert np.array_equal(mask, node_majorant_policy(chain, denom, ratios,
                                                         logs))

    @pytest.mark.parametrize("lo, hi, n, alpha, reward", [
        (-6.0, 6.0, 8001, 0.3, sawtooth_reward),
        # F overflows a float here
        (-200.0, 200.0, 8001, 2.0, None),
        (-200.0, 200.0, 8001, 2.0, two_sided_reward),
        (-10.0, 10.0, 201, 1.0, knots_reward([5e-324, 0.0])),
    ], ids=["sawtooth", "wide", "wide-two-sided", "subnormal"])
    def test_run_pass_matches_node_pass(self, lo, hi, n, alpha, reward):
        chain = discretize(STICKY, lo, hi, n, reward=reward)
        denom, ratios, logs = policy_inputs(chain, alpha)
        assert np.array_equal(_majorant_policy(chain, denom, ratios, logs),
                              node_majorant_policy(chain, denom, ratios, logs))
        assert solve_chain_stopping(chain, alpha).iterations == 2
        if reward is sawtooth_reward:
            g = chain.reward
            survivors = np.flatnonzero(g > _continuation(chain, g, denom, ratios))
            assert len(survivors) > 2000
            assert np.all(np.diff(survivors) > 1)

    def test_policy_agrees_with_value_iteration(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(
            knots=st.one_of(
                st.lists(st.floats(0.0, 4.0), min_size=2, max_size=12),
                # signed rewards: vertices with g <= 0 never top the hull
                st.lists(st.floats(-2.0, 4.0), min_size=2, max_size=12)),
            noise=st.lists(st.floats(0.0, 1.0), min_size=201, max_size=201),
            noisy=st.booleans(),
            alpha=st.floats(0.05, 2.0),
            c=st.floats(0.3, 2.0))
        def check(knots, noise, noisy, alpha, c):
            def reward(x):
                g = np.interp(x, np.linspace(x[0], x[-1], len(knots)), knots)
                return g + np.asarray(noise) if noisy else g
            chain = discretize(make_sticky_bm(0.0, c), -10.0, 10.0, 201,
                               reward=reward)
            ref = value_iteration(chain, alpha)
            b = solve_chain_stopping(chain, alpha)
            assert b.residual <= 1e-10
            assert np.max(np.abs(ref - b.values)) <= 1e-7
            denom, ratios, logs = policy_inputs(chain, alpha)
            mask = _majorant_policy(chain, denom, ratios, logs)
            assert np.array_equal(mask, node_majorant_policy(chain, denom,
                                                             ratios, logs))
            # the float reference hull loses subnormal rewards' digits in
            # g/phi, so it is inexact there (the log hull scales them first)
            g = chain.reward
            if np.all((g == 0.0) | (np.abs(g) >= np.finfo(float).tiny)):
                assert np.array_equal(mask, float_majorant_policy(chain, logs))

        check()


def float_majorant_policy(chain, logs):
    """Reference: the majorant's continuation mask from F and g/phi as floats.

    One monotone-chain pass over the origin and the points (F_i, g_i/phi_i),
    cut after the first maximum; valid only where its products fit a float.
    """
    log_psi, log_phi = logs[:2]
    f = np.exp(log_psi - log_phi)
    y = chain.reward * np.exp(-log_phi)
    hx, hy, hk = [0.0], [0.0], [-1]
    for k, (x, z) in enumerate(zip(f.tolist(), y.tolist())):
        while len(hk) > 1 and ((hx[-1] - hx[-2]) * (z - hy[-2])
                               >= (hy[-1] - hy[-2]) * (x - hx[-2])):
            hx.pop()
            hy.pop()
            hk.pop()
        hx.append(x)
        hy.append(z)
        hk.append(k)
    top = hy.index(max(hy))
    continue_mask = np.ones(chain.size, dtype=bool)
    continue_mask[hk[1:top + 1]] = False
    return continue_mask


def node_majorant_policy(chain, denom, ratios, logs):
    """Reference: the majorant's continuation mask by one pass node by node.

    The same log-form chord test as the solver's run pass, applied to every
    surviving node in turn by a monotone-chain pass; a node whose
    predecessor and the one before it are its neighbours is kept by the
    one-step test alone.
    """
    g = chain.reward
    top = g.max()
    if 0.0 < top < np.finfo(float).tiny:
        g = np.ldexp(np.maximum(g, 0.0), -np.frexp(top)[1])
    log_psi, log_phi = logs[:2]
    survivors = np.flatnonzero(g > _continuation(chain, g, denom, ratios))
    reward, lpsi, lphi = g.tolist(), log_psi.tolist(), log_phi.tolist()
    lf, exp, expm1 = (log_psi - log_phi).tolist(), math.exp, math.expm1
    hull = [-1]     # index -1 is the origin
    for k in survivors.tolist():
        gk = reward[k]
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if a + 1 == b == k - 1:
                break
            if a < 0:
                chord = gk * exp(lpsi[b] - lpsi[k])
            else:
                chord = (reward[a] * exp(lphi[b] - lphi[a]) * -expm1(lf[b] - lf[k])
                         + gk * exp(lpsi[b] - lpsi[k]) * -expm1(lf[a] - lf[b])
                         ) / -expm1(lf[a] - lf[k])
            if reward[b] > chord:
                break
            hull.pop()
        hull.append(k)
    vertices = np.array(hull[1:], dtype=np.intp)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.maximum(g[vertices], 0.0)) - log_phi[vertices]
    continue_mask = np.ones(chain.size, dtype=bool)
    if np.any(log_ratio > -np.inf):
        continue_mask[vertices[:np.argmax(log_ratio) + 1]] = False
    return continue_mask


def list_majorant_policy(chain, alpha, ratios, logs):
    """Reference: the solver's run pass with its hull in a Python list.

    Each vertex is a list entry, a pop deletes a slice, and the vertices
    become an array at the end.
    """
    g = chain.reward
    top = g.max()
    if 0.0 < top < np.finfo(float).tiny:
        g = np.ldexp(np.maximum(g, 0.0), -np.frexp(top)[1])
    log_psi, log_phi = logs[:2]
    survivors = np.flatnonzero(
        g > _continuation(chain, g, denominators(chain, alpha), ratios))
    gaps = np.flatnonzero(np.diff(survivors) > 1)
    starts = np.concatenate((survivors[:1], survivors[gaps + 1])).tolist()
    ends = np.concatenate((survivors[gaps], survivors[-1:])).tolist()
    reward, lpsi, lphi, lf = map(memoryview,
                                 (g, log_psi, log_phi, log_psi - log_phi))
    exp, expm1 = math.exp, math.expm1

    def above(a, b, k):
        if a < 0:
            return reward[b] > reward[k] * exp(lpsi[b] - lpsi[k])
        return reward[b] > (
            reward[a] * exp(lphi[b] - lphi[a]) * -expm1(lf[b] - lf[k])
            + reward[k] * exp(lpsi[b] - lpsi[k]) * -expm1(lf[a] - lf[b])
        ) / -expm1(lf[a] - lf[k])

    hull = [-1]

    def settle(k):
        bad = len(hull) - 1
        if bad < 1 or above(hull[-2], hull[-1], k):
            return
        good, step = bad - 1, 1
        while good > 0 and not above(hull[good - 1], hull[good], k):
            bad, step = good, 2 * step
            good = max(bad - step, 0)
        while bad - good > 1:
            mid = (good + bad) // 2
            if above(hull[mid - 1], hull[mid], k):
                good = mid
            else:
                bad = mid
        del hull[bad:]

    def keeps(t):
        settle(t)
        return above(hull[-1], t, t + 1)

    for s, e in zip(starts, ends):
        if s == 0:
            hull.extend(range(e + 1))
            continue
        lo, hi, step = s - 1, s, 1
        while hi < e and not keeps(hi):
            lo, step = hi, 2 * step
            hi = min(hi + step, e)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if keeps(mid):
                hi = mid
            else:
                lo = mid
        settle(hi)
        hull.extend(range(hi, e + 1))
    vertices = np.array(hull[1:], dtype=np.intp)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.maximum(g[vertices], 0.0)) - log_phi[vertices]
    continue_mask = np.ones(chain.size, dtype=bool)
    if np.any(log_ratio > -np.inf):
        continue_mask[vertices[:np.argmax(log_ratio) + 1]] = False
    return continue_mask


def allocating_mobius_scan(a, b, c, start):
    """Reference: the Moebius scan with a new array for every intermediate.

    The same pairwise composition as the solver's scan, written as whole
    array expressions, returning ``x_1, x_2, ...``.
    """
    m = a.shape[-1]
    if m == 1:
        return (a * start + b) / (c * start + 1.0)
    a1, b1, c1 = a[..., :m - 1:2], b[..., :m - 1:2], c[..., :m - 1:2]
    a2, b2, c2 = a[..., 1::2], b[..., 1::2], c[..., 1::2]
    norm = 1.0 / (c2 * b1 + 1.0)
    out = np.empty(a.shape)
    out[..., 1::2] = allocating_mobius_scan((a2 * a1 + b2 * c1) * norm,
                                            (a2 * b1 + b2) * norm,
                                            (c2 * a1 + c1) * norm, start)
    prev = np.concatenate((start, out[..., 1:m - 1:2]), axis=-1)
    out[..., ::2] = (a[..., ::2] * prev + b[..., ::2]) / (c[..., ::2] * prev + 1.0)
    return out


def allocating_harmonic_logs(chain, alpha):
    """Reference: ``(log psi, log phi)`` from whole-array expressions.

    The same recurrences and order of operations as the solver's
    ``_harmonic_logs``, with every coefficient, step and sum a new array.
    """
    up, down = chain.up_rate, chain.down_rate
    ratios, comps = _edge_roots(chain, alpha)
    start = np.array(comps)[:, None]
    lead = np.stack((up, down[::-1]))
    scale = 1.0 / (alpha + lead)
    slope = np.stack((down, up[::-1])) * scale
    comp = np.empty((2, chain.size - 1))
    comp[:, :1] = start
    comp[:, 1:] = allocating_mobius_scan(slope, alpha * scale, slope, start)
    with np.errstate(divide="ignore"):
        steps = -np.log1p(-comp)
    far = comp > 0.5
    if far.any():
        ratio = np.empty_like(comp)
        ratio[:, 0] = ratios
        ratio[:, 1:] = lead * scale / (slope * comp[:, :-1] + 1.0)
        steps[far] = -np.log(ratio[far])
    mid = chain.size // 2
    log_psi = np.concatenate(([0.0], np.cumsum(steps[0])))
    log_phi = np.concatenate(([0.0], np.cumsum(steps[1])))[::-1]
    log_psi -= log_psi[mid]
    log_phi -= log_phi[mid]
    return log_psi, log_phi


def decimal_log_ratios(chain, alpha, digits=40):
    """Reference: ``log(psi_{i+1}/psi_i)`` and ``log(phi_i/phi_{i+1})``.

    The ratio recurrences from the edge rows, run in ``digits``-digit
    decimal arithmetic.  A ratio below 1/2 takes its decimal log; above,
    the complement 1 - ratio is rounded to a float once, and ``-log1p`` of
    it adds a few ulps.
    """
    ctx = decimal.Context(prec=digits)
    dec = ctx.create_decimal_from_float
    a = dec(alpha)
    up = [dec(v) for v in chain.up_rate.tolist()]
    down = [dec(v) for v in chain.down_rate.tolist()]

    def root_pair(u, d):
        disc = ctx.sqrt((u - d) ** 2 + a * (a + 2 * (u + d)))
        return 2 * u / (a + u + d + disc), 2 * d / (a + u + d + disc)

    psi = [root_pair(up[0], down[0])[0]]
    for u, d in zip(up, down):
        psi.append(u / (a + u + d - d * psi[-1]))
    phi = [root_pair(up[-1], down[-1])[1]]
    for u, d in zip(reversed(up), reversed(down)):
        phi.append(d / (a + u + d - u * phi[-1]))
    def step(r):
        return float(-r.ln(ctx)) if r < 0.5 else -math.log1p(-float(1 - r))

    return (np.array([step(r) for r in psi]),
            np.array([step(r) for r in phi[::-1]]))


def random_chain(rng):
    """One chain of the random sweep: the family, window, size, rate and
    reward are drawn from ``rng``; returns (chain, alpha)."""
    family = rng.choice(["sticky", "drifting sticky", "drift", "reflected-killed"])
    if family == "reflected-killed":
        spec, lo, hi = make_reflected_killed_bm(), 0.0, rng.uniform(0.3, 1.0)
    else:
        mu = 0.0 if family == "sticky" else -rng.uniform(0.01, 1.0)
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        spec = make_drift_bm(mu) if family == "drift" else make_sticky_bm(mu, c)
        lo, hi = -(200.0 ** rng.uniform()), 200.0 ** rng.uniform()
    n = int(round(50.0 * (4001.0 / 50.0) ** rng.uniform()))
    alpha = 10.0 ** rng.uniform(-3.0, 4.0)
    noise = rng.uniform(0.0, 1.0, n)
    reward = [None, two_sided_reward, sawtooth_reward,
              knots_reward(rng.uniform(-1.0, 4.0, rng.integers(2, 13))),
              lambda x: np.maximum(1.0 + x, 0.0) + noise][rng.integers(5)]
    return discretize(spec, lo, hi, n, reward=reward), alpha


class TestRandomChains:
    def test_every_chain_solves(self):
        # sticky, drifting sticky, drift and reflected-killed chains with n
        # from 50 to 4001, alpha from 1e-3 to 1e4, windows up to [-200, 200]
        # and one-sided, two-sided, saw-tooth, knot and noisy rewards.  Where
        # n <= 200 and alpha >= 1e-2, value iteration checks the values; it
        # is capped at 20,000 sweeps to keep the test short, and a chain it
        # does not converge on (5 of 58 here) is not compared
        rng = np.random.default_rng(18)
        compared = 0
        for _ in range(200):
            chain, alpha = random_chain(rng)
            sol = solve_chain_stopping(chain, alpha)
            assert sol.iterations == 2 and sol.residual <= 1e-10
            if chain.size <= 200 and alpha >= 1e-2:
                try:
                    ref = value_iteration(chain, alpha, sweeps=20_000)
                except AssertionError as err:
                    if "did not converge" not in str(err):
                        raise
                    continue
                assert np.max(np.abs(ref - sol.values)) <= 1e-7
                compared += 1
        assert compared >= 20


class TestMobiusScan:
    """The scan in its scratch block gives the allocating scan's points."""

    @pytest.mark.parametrize("rows", [1, 2])
    def test_scratch_of_three_per_map_suffices(self, rows):
        # every length up to 130 and a few around powers of two: each
        # level's slots and the way back up fit in 3 m entries per row (a
        # slot cut short fails to reshape or to broadcast), and every point
        # keeps its bits
        rng = np.random.default_rng(rows)
        for m in [*range(1, 131), 255, 256, 257, 1023, 1024, 1025, 7999]:
            a, b, c = rng.uniform(0.01, 1.0, (3, rows, m))
            start = rng.uniform(0.0, 1.0, (rows, 1))
            out = np.full((rows, m), np.nan)
            oracle._mobius_scan(a, b, c, start, out, np.full(3 * m * rows, np.nan))
            assert np.array_equal(out, allocating_mobius_scan(a, b, c, start))


class TestHarmonicLogs:
    """log psi and log phi from the Moebius scan of the ratio complements."""

    @pytest.mark.parametrize("mu, alpha, n", [
        (0.0, 0.1, 8001), (0.0, 1.5, 8001), (-0.3, 0.1, 8001),
        (0.0, 0.1, 8000),
        # ratios far below 1, where the complements lose the digits
        (0.0, 1e8, 201), (0.0, 1e20, 201),
        # the edge roots overflow unless they are formed in units of alpha
        (0.0, 1e200, 201),
    ])
    def test_log_ratios_match_decimal_recurrence(self, mu, alpha, n):
        # the recurrences in ratios near 1 lose ~1e-10 relative at alpha = 0.1
        chain = discretize(make_sticky_bm(mu, 1.0), -6.0, 6.0, n)
        log_psi, log_phi, log_f = _harmonic_logs(chain, alpha,
                                                 _edge_roots(chain, alpha))
        assert np.array_equal(log_f, log_psi - log_phi)
        ref_psi, ref_phi = decimal_log_ratios(chain, alpha)
        assert np.max(np.abs(np.diff(log_psi) / ref_psi - 1.0)) <= 1e-12
        assert np.max(np.abs(-np.diff(log_phi) / ref_phi - 1.0)) <= 1e-12


class TestDiscountRange:
    """Discount rates up to the largest float, and the edge roots' overflow."""

    @pytest.mark.parametrize("alpha", [0.5, 1e150, 1.2e154, 1.4e154, 1e200,
                                       1e308])
    def test_edge_roots_match_decimal(self, alpha):
        # below ~1.3e154 alpha (alpha + 2 (up + down)) is finite and the
        # roots are formed as they are; above it they are formed in units
        # of alpha
        chain = discretize(STICKY, -6.0, 6.0, 201)
        ctx = decimal.Context(prec=40)
        a = ctx.create_decimal_from_float(alpha)
        (r_left, r_right), (c_left, c_right) = _edge_roots(chain, alpha)
        for i, r, comp, which in ((0, r_left, c_left, 0),
                                  (-1, r_right, c_right, 1)):
            u = ctx.create_decimal_from_float(float(chain.up_rate[i]))
            d = ctx.create_decimal_from_float(float(chain.down_rate[i]))
            disc = ctx.sqrt((u - d) ** 2 + a * (a + 2 * (u + d)))
            want = (2 * u, 2 * d)[which] / (a + u + d + disc)
            assert abs(r / float(want) - 1.0) <= 1e-15
            assert abs(comp / float(1 - want) - 1.0) <= 1e-15

    @pytest.mark.parametrize("reward", [None, two_sided_reward])
    def test_huge_discount_stops_wherever_the_reward_is_positive(self, reward):
        chain = discretize(STICKY, -6.0, 6.0, 201, reward=reward)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_chain_stopping(chain, 1e200)
        assert sol.iterations == 2 and sol.residual <= 1e-10
        g = chain.reward
        assert np.array_equal(sol.values[g > 0], g[g > 0])
        assert np.all(sol.values[g == 0] <= 1e-190)


def prefix_policy_values(g, log_psi, log_phi, log_f, continue_mask):
    """Reference: a policy's values with every node's stop neighbours.

    The previous and next stop node of each node come from prefix maxima
    and minima of the stop indices; boolean masks then pick the nodes
    between two stops and the two edge runs, each gathered whole.
    """
    n = len(g)
    idx = np.arange(n)
    stop = ~continue_mask
    prev = np.maximum.accumulate(np.where(stop, idx, -1))
    nxt = np.minimum.accumulate(np.where(stop, idx, n)[::-1])[::-1]
    v = np.where(stop, g, 0.0)
    both = continue_mask & (prev >= 0) & (nxt < n)
    i, j, k = idx[both], prev[both], nxt[both]
    v[both] = (g[j] * np.exp(log_phi[i] - log_phi[j]) * -np.expm1(log_f[i] - log_f[k])
               + g[k] * np.exp(log_psi[i] - log_psi[k]) * -np.expm1(log_f[j] - log_f[i])
               ) / -np.expm1(log_f[j] - log_f[k])
    left = continue_mask & (prev < 0) & (nxt < n)
    i, k = idx[left], nxt[left]
    v[left] = g[k] * np.exp(log_psi[i] - log_psi[k])
    right = continue_mask & (prev >= 0) & (nxt == n)
    i, j = idx[right], prev[right]
    v[right] = g[j] * np.exp(log_phi[i] - log_phi[j])
    return v


def reference_solve(chain, alpha):
    """Reference: logs, mask and values from the allocating scan, the list
    hull and the prefix form of the policy values."""
    log_psi, log_phi = allocating_harmonic_logs(chain, alpha)
    logs = (log_psi, log_phi, log_psi - log_phi)
    mask = list_majorant_policy(chain, alpha, _edge_roots(chain, alpha)[0], logs)
    return logs, mask, prefix_policy_values(chain.reward, *logs, mask)


class TestSolveMatchesReferences:
    """The in-place scan and the buffered hull give the allocating scan's
    and the list hull's logs, masks and values bit for bit."""

    REWARDS = [None, two_sided_reward, sawtooth_reward,
               knots_reward([0.5, 2.0, 0.1, 3.0, 1.0])]
    IDS = ["one-sided", "two-sided", "sawtooth", "knots"]

    @staticmethod
    def check(chain, alpha):
        denom, ratios, logs = policy_inputs(chain, alpha)
        ref_logs, ref_mask, ref_values = reference_solve(chain, alpha)
        for got, want in zip(logs, ref_logs):
            assert np.array_equal(got, want)
        assert np.array_equal(_majorant_policy(chain, denom, ratios, logs),
                              ref_mask)
        assert np.array_equal(solve_chain_stopping(chain, alpha).values,
                              ref_values)

    @pytest.mark.parametrize("reward", REWARDS, ids=IDS)
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mu", [0.0, -0.1])
    def test_sticky_grid(self, mu, c, reward):
        for n in (201, 4001, 8001):
            chain = discretize(make_sticky_bm(mu, c), -6.0, 6.0, n,
                               reward=reward)
            for alpha in (0.1, 0.4, 1.5, 1e3):
                self.check(chain, alpha)

    @pytest.mark.parametrize("reward", REWARDS, ids=IDS)
    @pytest.mark.parametrize("mu", [0.0, -0.1])
    def test_wide_window(self, mu, reward):
        # F overflows a float on [-200, 200]
        chain = discretize(make_sticky_bm(mu, 1.0), -200.0, 200.0, 8001,
                           reward=reward)
        for alpha in (0.1, 0.4, 1.5, 1e3):
            self.check(chain, alpha)

    @pytest.mark.parametrize("reward", REWARDS, ids=IDS)
    @pytest.mark.parametrize("lo, hi", [(-6.0, 6.0), (-200.0, 200.0)])
    def test_policy_values_by_segments(self, lo, hi, reward):
        # the segment form repeats each stop pair where the prefix form
        # gathers it per node; every value keeps its bits, on the
        # majorant's policy, on random stops, and on policies that stop at
        # the edges only or never
        chain = discretize(make_sticky_bm(0.0, 1.0), lo, hi, 8001, reward=reward)
        n = chain.size
        edge_only = [np.ones(n, dtype=bool) for _ in range(4)]
        edge_only[1][0] = edge_only[2][-1] = False
        edge_only[3][[0, -1]] = False
        scattered = np.random.default_rng(5).random(n) < 0.9
        for alpha in (0.1, 0.4, 1.5, 1e3):
            denom, ratios, logs = policy_inputs(chain, alpha)
            for mask in [_majorant_policy(chain, denom, ratios, logs), scattered,
                         *edge_only]:
                got = _policy_values(chain.reward, *logs, mask)
                want = prefix_policy_values(chain.reward, *logs, mask)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_two_sided_solve_working_set(self):
        # one solve's tracemalloc peak measured 849,352 bytes (numpy 2.4;
        # an allocating scan and a list hull take 1,426,088); 25 % above
        # that fails
        chain = discretize(STICKY, -6.0, 6.0, 8001, reward=two_sided_reward)
        solve_chain_stopping(chain, 1.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            solve_chain_stopping(chain, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 849_352


def banded_policy_values(chain, alpha, continue_mask):
    """Reference: the policy's linear system solved by scipy's banded LU.

    Stop rows read V_i = g_i; continuing interior rows
    (alpha + up + down) V_i - up V_{i+1} - down V_{i-1} = 0; continuing
    edges V_0 = r_left V_1 and V_{n-1} = r_right V_{n-2}.
    """
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    n = chain.size
    r_left, r_right = _edge_roots(chain, alpha)[0]
    banded = np.zeros((3, n))
    banded[1, :] = 1.0
    rhs = np.where(continue_mask, 0.0, chain.reward)
    idx = np.nonzero(continue_mask[1:-1])[0] + 1
    banded[1, idx] = alpha + chain.up_rate[idx - 1] + chain.down_rate[idx - 1]
    banded[0, idx + 1] = -chain.up_rate[idx - 1]
    banded[2, idx - 1] = -chain.down_rate[idx - 1]
    if continue_mask[0]:
        banded[0, 1] = -r_left
    if continue_mask[-1]:
        banded[2, n - 2] = -r_right
    return solve_banded((1, 1), banded, rhs)


class TestPolicyValues:
    """A policy's value is phi times the interpolant of g/phi in F."""

    @pytest.mark.parametrize("edges", ["stop", "left", "right", "both"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_banded_solve(self, edges, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.05, 1.5))
        chain = discretize(make_sticky_bm(0.0, float(rng.uniform(0.3, 2.0))),
                           -6.0, 6.0, 801,
                           reward=lambda x: rng.uniform(0.0, 2.0, len(x)))
        continue_mask = rng.random(chain.size) < 0.9
        continue_mask[0] = edges in ("left", "both")
        continue_mask[-1] = edges in ("right", "both")
        v = _policy_values(chain.reward, *policy_inputs(chain, alpha)[2],
                           continue_mask)
        ref = banded_policy_values(chain, alpha, continue_mask)
        assert np.max(np.abs(v - ref)) <= 1e-9
        assert np.array_equal(v[~continue_mask], chain.reward[~continue_mask])

    def test_policy_that_never_stops_is_worth_nothing(self):
        chain = discretize(STICKY, -6.0, 6.0, 801)
        logs = policy_inputs(chain, 0.5)[2]
        v = _policy_values(chain.reward, *logs, np.ones(chain.size, dtype=bool))
        assert np.array_equal(v, np.zeros(chain.size))

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
    def test_residual_at_rounding_level(self, alpha):
        # acceptance criterion 4's chains: no linear solve is left to lose
        # digits, so the fixed-point residual is a few ulps
        chain = discretize(STICKY, -6.0, 6.0, 4001)
        sol = solve_chain_stopping(chain, alpha)
        assert sol.residual <= 1e-14


class TestTruncationEdge:
    def test_transparent_edge_at_low_discount(self):
        # at alpha = 0.1 the left edge lies in the continuation region: the
        # chain continues there by its decaying geometric solution, the root
        # 1/rho_+ of up rho^2 - (alpha + up + down) rho + down = 0 at node 1;
        # the right edge lies in the stopping region and stops
        alpha = 0.1
        chain = discretize(STICKY, -6.0, 6.0, 4001)
        v = solve_chain_stopping(chain, alpha).values
        up, down = chain.up_rate[0], chain.down_rate[0]
        s = alpha + up + down
        r = 1.0 / ((s + math.sqrt(s * s - 4.0 * up * down)) / (2.0 * up))
        assert 0.0 < r < 1.0
        assert v[0] > chain.reward[0]
        assert v[0] == pytest.approx(r * v[1], abs=1e-11)   # solver tolerance
        assert v[-1] == chain.reward[-1]

    def test_edge_leaves_no_truncation_bias(self):
        # with the edge continuing the chain, the [-6, 6] window is as good
        # as the [-14, 6] one: the inner band carries discretisation error only
        chain = discretize(STICKY, -6.0, 6.0, 4001)
        sol = solve_chain_stopping(chain, 0.1)
        rep = compare(chain, sol.values, lambda x: value_function(0.1, 1.0, x),
                      inner_fraction=0.8)
        assert rep.inner_sup_error <= 1e-6


class TestAgreement:
    def test_matches_analytic_value_at_half(self):
        chain = discretize(STICKY, -6.0, 6.0, 4001)
        sol = solve_chain_stopping(chain, 0.5)
        rep = compare(chain, sol.values, lambda x: value_function(0.5, 1.0, x))
        assert rep.sup_error <= 1e-2

    def test_self_comparison_is_exact(self):
        chain = discretize(STICKY, -6.0, 6.0, 501)
        sol = solve_chain_stopping(chain, 0.5)
        interp = lambda x: np.interp(np.asarray(x, dtype=float),
                                     chain.nodes, sol.values)
        rep = compare(chain, sol.values, interp)
        assert rep.sup_error == 0.0

    def test_analytic_follows_the_callable_rule(self):
        chain = discretize(STICKY, -6.0, 6.0, 201)
        sol = solve_chain_stopping(chain, 0.5)
        rep = compare(chain, sol.values, lambda x: 1.0)     # broadcast
        assert rep.sup_error == float(np.max(np.abs(sol.values - 1.0)))
        with pytest.raises(ParameterError, match="non-finite"):
            compare(chain, sol.values, lambda x: np.full_like(x, np.nan))
        with pytest.raises(ParameterError, match="shape"):
            compare(chain, sol.values, lambda x: x[:-1])

    @pytest.mark.parametrize("call, error, message", [
        (lambda chain: chain.node_index(0.01), DomainError, "not a grid node"),
        (lambda chain: solve_chain_stopping(chain, 0.0), ParameterError,
         "discount rate must be positive"),
        (lambda chain: solve_chain_stopping(chain, math.nan), ParameterError,
         "discount rate must be positive and finite"),
        (lambda chain: solve_chain_stopping(chain, math.inf), ParameterError,
         "discount rate must be positive and finite"),
        (lambda chain: compare(chain, chain.reward, lambda x: 1.0, jump_at=-6.0),
         DomainError, "needs an interior node"),
        (lambda chain: compare(chain, chain.reward, lambda x: 1.0,
                               inner_fraction=-0.5),
         ParameterError, "inner_fraction must lie in"),
        (lambda chain: compare(chain, chain.reward, lambda x: 1.0,
                               inner_fraction=0.0),
         ParameterError, "inner_fraction must lie in"),
        (lambda chain: compare(chain, chain.reward, lambda x: 1.0,
                               inner_fraction=math.nan),
         ParameterError, "inner_fraction must lie in"),
        (lambda chain: compare(chain, chain.reward, lambda x: 1.0,
                               inner_fraction=1.5),
         ParameterError, "inner_fraction must lie in"),
        (lambda chain: compare(chain, chain.reward[:-1], lambda x: 1.0),
         ParameterError, "values have shape"),
        (lambda chain: compare(chain, chain.reward[:, None], lambda x: 1.0),
         ParameterError, "values have shape"),
    ], ids=["node_index-off-grid", "solve-alpha-0", "solve-alpha-nan",
            "solve-alpha-inf", "compare-jump-at-edge",
            "compare-inner-fraction-negative", "compare-inner-fraction-0",
            "compare-inner-fraction-nan", "compare-inner-fraction-above-1",
            "compare-values-one-short", "compare-values-2d"])
    def test_rejected_inputs(self, call, error, message):
        chain = discretize(STICKY, -6.0, 6.0, 201)
        with pytest.raises(error, match=message):
            call(chain)

    def test_jump_estimate_at_sticky_point(self):
        chain = discretize(STICKY, -6.0, 6.0, 4001)
        sol = solve_chain_stopping(chain, 0.25)
        rep = compare(chain, sol.values,
                      lambda x: value_function(0.25, 1.0, x), jump_at=0.0)
        assert abs(rep.jump_estimate - (math.sqrt(0.5) - 1.0)) <= 0.05

    def test_stopping_boundary_detection(self):
        chain = discretize(STICKY, -6.0, 6.0, 4001)
        sol = solve_chain_stopping(chain, 0.25)
        rep = compare(chain, sol.values, lambda x: value_function(0.25, 1.0, x))
        step = chain.nodes[1] - chain.nodes[0]
        assert abs(rep.stopping_boundary - 0.0) <= step + 1e-12

    @pytest.mark.parametrize("alpha, c", [(0.1, 1.0), (0.15, 1.0), (0.25, 0.5)])
    def test_boundary_read_from_exact_stop_set(self, alpha, c):
        # stop nodes carry the reward exactly, so no margin pulls the
        # boundary below a smooth-fit threshold x* > 0
        chain = discretize(make_sticky_bm(0.0, c), -6.0, 6.0, 8001)
        sol = solve_chain_stopping(chain, alpha)
        rep = compare(chain, sol.values, lambda x: value_function(alpha, c, x))
        step = chain.nodes[1] - chain.nodes[0]
        assert solve_threshold(alpha, c) > 0.0
        assert abs(rep.stopping_boundary - solve_threshold(alpha, c)) <= step

    def test_positive_threshold_boundary_with_adequate_window(self):
        # a wider, equally fine window: the transparent edge leaves no
        # truncation bias, so the boundary is found on x* here as on [-6, 6]
        chain = discretize(STICKY, -14.0, 6.0, 6001)
        sol = solve_chain_stopping(chain, 0.1)
        rep = compare(chain, sol.values, lambda x: value_function(0.1, 1.0, x))
        step = chain.nodes[1] - chain.nodes[0]
        xs = solve_threshold(0.1, 1.0)
        assert abs(rep.stopping_boundary - xs) <= step + 1e-12

    def test_low_discount_accuracy_with_adequate_window(self):
        chain = discretize(STICKY, -14.0, 6.0, 6001)
        sol = solve_chain_stopping(chain, 0.1)
        rep = compare(chain, sol.values, lambda x: value_function(0.1, 1.0, x))
        # criterion band of the [-6, 6] window, here far from truncation
        band = (chain.nodes >= -4.8) & (chain.nodes <= 4.8)
        err = np.abs(sol.values - value_function(0.1, 1.0, chain.nodes))[band]
        assert err.max() <= 1e-2

    def test_jump_estimate_matches_derivative_theory_at_low_discount(self):
        # with a positive threshold the value kinks at the sticky point by
        # the speed-atom term alone: left - right = -2 c alpha V(0)
        chain = discretize(STICKY, -14.0, 6.0, 6001)
        sol = solve_chain_stopping(chain, 0.1)
        rep = compare(chain, sol.values,
                      lambda x: value_function(0.1, 1.0, x), jump_at=0.0)
        expected = -2.0 * 0.1 * float(value_function(0.1, 1.0, 0.0))
        assert abs(rep.jump_estimate - expected) <= 0.05

    def test_refinement_convergence(self):
        prev = None
        for n in (501, 1001, 2001, 4001):
            chain = discretize(STICKY, -6.0, 6.0, n)
            sol = solve_chain_stopping(chain, 0.5)
            rep = compare(chain, sol.values, lambda x: value_function(0.5, 1.0, x))
            if prev is not None:
                assert rep.inner_sup_error <= 1.1 * prev
            prev = rep.inner_sup_error

    def test_removing_atom_recovers_classical_bm(self):
        # drop the sticky atom from the chain only; the classical threshold
        # solves (1+x) sqrt(2 alpha) = 1
        alpha = 0.5
        spec = STICKY
        plain = discretize(spec, -6.0, 6.0, 2001)
        mass = plain.node_mass.copy()
        i0 = plain.node_index(0.0)
        mass[i0] -= 2.0             # remove the atom weight
        import dataclasses
        scale = np.asarray(spec.scale(plain.nodes), dtype=float)
        up = 1.0 / (mass[1:-1] * (scale[2:] - scale[1:-1]))
        down = 1.0 / (mass[1:-1] * (scale[1:-1] - scale[:-2]))
        nochain = dataclasses.replace(plain, node_mass=mass, up_rate=up,
                                      down_rate=down)
        sol = solve_chain_stopping(nochain, alpha)
        k = math.sqrt(2 * alpha)
        xs = 1.0 / k - 1.0
        def classical(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= xs, (1 + xs) * np.exp(k * (x - xs)),
                            np.maximum(1 + x, 0.0))
        rep = compare(nochain, sol.values, classical)
        assert rep.inner_sup_error <= 1e-2
