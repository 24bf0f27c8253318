"""Birth-death chain construction, solvers, and agreement with closed forms."""

import decimal
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffstop.diffusion import (Family, make_drift_bm,
                                make_reflected_killed_bm, make_sticky_bm)
from diffstop.errors import ConvergenceError, DomainError, ParameterError
from diffstop.oracle import (_continuation, _edge_ratios, _harmonic_logs,
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

    def test_window_and_size_validation(self):
        with pytest.raises(ParameterError):
            discretize(STICKY, -5.0, 5.0, 49)
        with pytest.raises(DomainError):
            discretize(STICKY, 0.5, 5.0, 101)    # atom outside window
        rk = __import__("diffstop").make_reflected_killed_bm()
        with pytest.raises(DomainError):
            discretize(rk, -1.0, 0.9, 101)


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
        # value iteration stops on the sup-change, leaving roughly
        # change/(1 - contraction) distance to the fixed point
        chain = discretize(STICKY, -6.0, 6.0, 201)
        a = solve_chain_stopping(chain, 0.5, method="value")
        b = solve_chain_stopping(chain, 0.5, method="policy")
        assert np.max(np.abs(a.values - b.values)) <= 1e-7

    def test_default_is_policy_iteration_on_coarse_grids(self):
        # the contraction factor here is below 0.999, where value iteration
        # would converge quickly; the default still takes the majorant's pass
        chain = discretize(STICKY, -6.0, 6.0, 201)
        sol = solve_chain_stopping(chain, 0.5)
        assert sol.method == "policy"
        assert sol.iterations == 2
        assert sol.residual <= 1e-10

    def test_unknown_method_rejected(self):
        chain = discretize(STICKY, -6.0, 6.0, 201)
        with pytest.raises(ParameterError):
            solve_chain_stopping(chain, 0.5, method="auto")

    def test_chain_value_is_superharmonic_majorant(self):
        chain = discretize(STICKY, -6.0, 6.0, 801)
        sol = solve_chain_stopping(chain, 0.25)
        v = sol.values
        assert np.all(v >= chain.reward - 1e-11)
        denom = 0.25 + chain.up_rate + chain.down_rate
        cont = (chain.up_rate * v[2:] + chain.down_rate * v[:-2]) / denom
        assert np.all(cont <= v[1:-1] + 1e-11)

    def test_nonconvergence_reported_with_residual(self):
        chain = discretize(STICKY, -6.0, 6.0, 801)
        with pytest.raises(ConvergenceError) as err:
            solve_chain_stopping(chain, 0.25, method="value", max_iter=5)
        assert err.value.achieved is not None

    def test_deterministic_across_runs(self):
        chain = discretize(STICKY, -6.0, 6.0, 501)
        a = solve_chain_stopping(chain, 0.5)
        b = solve_chain_stopping(chain, 0.5)
        assert pickle.dumps(a.values) == pickle.dumps(b.values)


class TestMajorantSeed:
    """Policy iteration starts from the chain's least F-concave majorant."""

    @pytest.mark.parametrize("reward, alpha", [
        (None, 0.1), (None, 0.25), (None, 0.6),
        (two_sided_reward, 0.1), (two_sided_reward, 0.8),
    ])
    def test_first_policy_is_optimal(self, reward, alpha):
        # one banded solve gives the value, the second round confirms it
        chain = discretize(STICKY, -6.0, 6.0, 4001, reward=reward)
        sol = solve_chain_stopping(chain, alpha, method="policy")
        assert sol.iterations == 2
        assert sol.residual <= 1e-10

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_two_sided_stop_rows_equal_reward(self, alpha):
        # stop rows left of the continuation band are not shielded from the
        # banded solve's pivoting; they must still return the reward exactly
        # (both edges, at |x| = 6, lie in the stopping set)
        chain = discretize(STICKY, -6.0, 6.0, 4001, reward=two_sided_reward)
        v = solve_chain_stopping(chain, alpha, method="policy").values
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
        sol = solve_chain_stopping(chain, alpha, method="policy")
        ref = solve_chain_stopping(chain, alpha, method="value")
        assert sol.iterations == 2
        assert sol.residual <= 1e-10
        assert np.max(np.abs(sol.values - ref.values)) <= tol

    @pytest.mark.parametrize("knots", [[5e-324, 0.0], [5e-324, -2.0]])
    def test_subnormal_reward_takes_two_rounds(self, knots):
        # one step of continuation rounds a subnormal reward back to itself,
        # so the pass scales g by a power of two first; found by the
        # hypothesis test below
        chain = discretize(STICKY, -10.0, 10.0, 201, reward=knots_reward(knots))
        sol = solve_chain_stopping(chain, 1.0)
        assert sol.iterations == 2
        assert sol.residual <= 1e-10
        ref = solve_chain_stopping(chain, 1.0, method="value")
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-7

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.6, 1.5])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("reward", [None, two_sided_reward])
    def test_log_hull_matches_float_hull(self, alpha, c, reward):
        # same mask, so the same policy values bit for bit
        chain = discretize(make_sticky_bm(0.0, c), -6.0, 6.0, 2001,
                           reward=reward)
        ratios = _edge_ratios(chain, alpha)
        logs = _harmonic_logs(chain, alpha)
        mask = _majorant_policy(chain, alpha, ratios, logs)
        assert np.array_equal(mask, float_majorant_policy(chain, logs))
        assert np.array_equal(mask, node_majorant_policy(chain, alpha, ratios,
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
        ratios = _edge_ratios(chain, alpha)
        logs = _harmonic_logs(chain, alpha)
        assert np.array_equal(_majorant_policy(chain, alpha, ratios, logs),
                              node_majorant_policy(chain, alpha, ratios, logs))
        assert solve_chain_stopping(chain, alpha).iterations == 2
        if reward is sawtooth_reward:
            g = chain.reward
            survivors = np.flatnonzero(g > _continuation(chain, g, alpha, ratios))
            assert len(survivors) > 2000
            assert np.all(np.diff(survivors) > 1)

    @settings(max_examples=40, deadline=None)
    @given(knots=st.one_of(
               st.lists(st.floats(0.0, 4.0), min_size=2, max_size=12),
               # signed rewards: vertices with g <= 0 never top the hull
               st.lists(st.floats(-2.0, 4.0), min_size=2, max_size=12)),
           noise=st.lists(st.floats(0.0, 1.0), min_size=201, max_size=201),
           noisy=st.booleans(),
           alpha=st.floats(0.05, 2.0),
           c=st.floats(0.3, 2.0))
    def test_policy_agrees_with_value_iteration(self, knots, noise, noisy,
                                                alpha, c):
        def reward(x):
            g = np.interp(x, np.linspace(x[0], x[-1], len(knots)), knots)
            return g + np.asarray(noise) if noisy else g
        chain = discretize(make_sticky_bm(0.0, c), -10.0, 10.0, 201,
                           reward=reward)
        a = solve_chain_stopping(chain, alpha, method="value")
        b = solve_chain_stopping(chain, alpha, method="policy")
        assert b.residual <= 1e-10
        assert np.max(np.abs(a.values - b.values)) <= 1e-7
        ratios = _edge_ratios(chain, alpha)
        logs = _harmonic_logs(chain, alpha)
        mask = _majorant_policy(chain, alpha, ratios, logs)
        assert np.array_equal(mask, node_majorant_policy(chain, alpha, ratios,
                                                         logs))
        # the float reference hull loses subnormal rewards' digits in g/phi,
        # so it is inexact there (the log hull scales them first)
        g = chain.reward
        if np.all((g == 0.0) | (np.abs(g) >= np.finfo(float).tiny)):
            assert np.array_equal(mask, float_majorant_policy(chain, logs))


def float_majorant_policy(chain, logs):
    """Reference: the majorant's continuation mask from F and g/phi as floats.

    One monotone-chain pass over the origin and the points (F_i, g_i/phi_i),
    cut after the first maximum; valid only where its products fit a float.
    """
    log_psi, log_phi = logs
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


def node_majorant_policy(chain, alpha, ratios, logs):
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
    log_psi, log_phi = logs
    survivors = np.flatnonzero(g > _continuation(chain, g, alpha, ratios))
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


class TestHarmonicLogs:
    """log psi and log phi from the Moebius scan of the ratio complements."""

    @pytest.mark.parametrize("mu, alpha, n", [
        (0.0, 0.1, 8001), (0.0, 1.5, 8001), (-0.3, 0.1, 8001),
        (0.0, 0.1, 8000),
        # ratios far below 1, where the complements lose the digits
        (0.0, 1e8, 201), (0.0, 1e20, 201),
    ])
    def test_log_ratios_match_decimal_recurrence(self, mu, alpha, n):
        # the recurrences in ratios near 1 lose ~1e-10 relative at alpha = 0.1
        chain = discretize(make_sticky_bm(mu, 1.0), -6.0, 6.0, n)
        log_psi, log_phi = _harmonic_logs(chain, alpha)
        ref_psi, ref_phi = decimal_log_ratios(chain, alpha)
        assert np.max(np.abs(np.diff(log_psi) / ref_psi - 1.0)) <= 1e-12
        assert np.max(np.abs(-np.diff(log_phi) / ref_phi - 1.0)) <= 1e-12


def banded_policy_values(chain, alpha, continue_mask):
    """Reference: the policy's linear system solved by scipy's banded LU.

    Stop rows read V_i = g_i; continuing interior rows
    (alpha + up + down) V_i - up V_{i+1} - down V_{i-1} = 0; continuing
    edges V_0 = r_left V_1 and V_{n-1} = r_right V_{n-2}.
    """
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    n = chain.size
    r_left, r_right = _edge_ratios(chain, alpha)
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
        ratios = _edge_ratios(chain, alpha)
        v = _policy_values(chain.reward, *_harmonic_logs(chain, alpha),
                           continue_mask)
        ref = banded_policy_values(chain, alpha, continue_mask)
        assert np.max(np.abs(v - ref)) <= 1e-9
        assert np.array_equal(v[~continue_mask], chain.reward[~continue_mask])

    def test_policy_that_never_stops_is_worth_nothing(self):
        chain = discretize(STICKY, -6.0, 6.0, 801)
        logs = _harmonic_logs(chain, 0.5)
        v = _policy_values(chain.reward, *logs, np.ones(chain.size, dtype=bool))
        assert np.array_equal(v, np.zeros(chain.size))

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
    def test_residual_at_rounding_level(self, alpha):
        # acceptance criterion 4's chains: no linear solve is left to lose
        # digits, so the fixed-point residual is a few ulps
        chain = discretize(STICKY, -6.0, 6.0, 4001)
        sol = solve_chain_stopping(chain, alpha)
        assert sol.method == "policy"
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
