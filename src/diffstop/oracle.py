"""Birth-death chain oracle for the discounted stopping problem.

The diffusion is approximated on a finite grid by the standard scale/speed
chain: node i gets the speed mass of its surrounding cell (atoms snapped
onto nodes add their full weight), and jump rates

    up_i   = 1 / (m_i (S(x_{i+1}) - S(x_i))),
    down_i = 1 / (m_i (S(x_i) - S(x_{i-1})))

reproduce the generator d/dm d/dS.  The discounted stopping value of the
chain is the unique fixed point of

    V_i = max(g_i, (up_i V_{i+1} + down_i V_{i-1}) / (alpha + up_i + down_i))

at interior nodes.  The truncation nodes carry a transparent edge: beyond
the window the chain is continued by its own geometric solution
V_i ~ rho^i that decays away from the window, with rho a root of the
characteristic quadratic

    up rho^2 - (alpha + up + down) rho + down = 0

at the adjacent interior node's rates (rho_+ > 1 > rho_- > 0).  So the
edge rows read

    V_0     = max(g_0,     r_left  V_1),      r_left  = 1 / rho_+,
    V_{n-1} = max(g_{n-1}, r_right V_{n-2}),  r_right = rho_-,

which uses chain data only and reduces to stopping at the edge wherever the
edge lies in the stopping region.  Fine grids make the one-step contraction
factor approach 1, so value iteration is only the tests' reference; the
solver finds the optimal policy in one pass, as follows.

The pass rests on the chain's excessive-function geometry (Dayanik &
Karatzas, Stoch. Proc. Appl. 107, 2003).  Let psi and phi be the chain's
increasing and decreasing alpha-harmonic solutions, psi satisfying the left
edge row with equality (psi_0 = r_left psi_1) and phi the right one
(phi_{n-1} = r_right phi_{n-2}), and put F = psi / phi.  Harmonic functions
are the lines of the (F, u/phi) plane.  Two things follow.

A policy's value needs no linear solve.  Between two stop nodes j < k the
value is harmonic with the rewards at both ends, so it is phi times the
chord of g/phi from F_j to F_k; left of the first stop node it is
g_k psi / psi_k (the left edge continues by psi), right of the last one
g_j phi / phi_j, and a policy that never stops is worth 0.  So the value of
any policy is phi times the piecewise-linear interpolant, in F, of g/phi
through its stop nodes.  It is evaluated from log psi and log phi with every
exponent nonpositive, so nothing overflows, and stop nodes carry the reward
exactly.

The majorant's policy is the optimal one.  At an interior node u_i >=
(up u_{i+1} + down u_{i-1}) / (alpha + up + down) says that u_i lies above
the harmonic function through u_{i-1} and u_{i+1}, so u is excessive there
exactly when u/phi is concave in F.  The left edge row u_0 >= r_left u_1
reads (u_0/phi_0)/F_0 >= (u_1/phi_1)/F_1: the chord from the origin does not
steepen, so the origin (0, 0) is one more point of the concave function.
The right edge row u_{n-1} >= r_right u_{n-2} reads u_{n-1}/phi_{n-1} >=
u_{n-2}/phi_{n-2}: the function does not decrease at the end, so it is flat
after its maximum.  The value is therefore phi times the least concave
majorant of {(0, 0)} and the points (F_i, g_i/phi_i), cut flat after its
maximum, and the chain stops exactly at the majorant's vertices.  A hull
pass over runs of nodes finds them, the closed form above evaluates that
policy, and one round of policy improvement confirms that no node would
change its action.  The pass runs in logs, so no window is too wide: a hull
point lies on or below the chord of two others exactly when its reward is at
most the harmonic function through them, evaluated as above, and the maximum
is the argmax of log g - log phi.  log psi and log phi themselves come from
one vectorised scan of the ratio complements, whose recurrences are Moebius
maps with positive coefficients, so nothing cancels.  A solve forms the
edge roots, log F = log psi - log phi and alpha + up + down once each.  Its
working set stays small: the scan takes all of its scratch from one block
and forms its steps in place, the hull pass keeps its vertices in one index
buffer, and the policy's values are read one stop segment at a time, so no
Python object is made per node.
Everything is deterministic: fixed summation order, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffusion import DiffusionSpec, _values
from .errors import ConvergenceError, DomainError, ParameterError


@dataclass(frozen=True)
class ChainModel:
    """Grid, masses, rates and rewards of the approximating chain.

    ``node_mass`` is the speed mass of each node's cell, atoms included; it
    reads inf where the speed density overflows a float, though the rates,
    formed from scaled factors, stay finite there.

    ``up_rate`` and ``down_rate`` cover interior nodes 1..n-2.  The two
    truncation nodes have no rates of their own; their edge condition
    (see the module docstring) is built from the rates of their interior
    neighbours.
    """

    spec: DiffusionSpec
    nodes: np.ndarray
    node_mass: np.ndarray
    up_rate: np.ndarray
    down_rate: np.ndarray
    reward: np.ndarray
    window: tuple[float, float]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node_index(self, z: float) -> int:
        i = int(np.argmin(np.abs(self.nodes - z)))
        if abs(self.nodes[i] - z) > 1e-12 * (1.0 + abs(z)):
            raise DomainError(f"{z} is not a grid node (nearest: {self.nodes[i]})")
        return i


def discretize(spec: DiffusionSpec, lower: float, upper: float, n: int,
               reward: Callable | None = None) -> ChainModel:
    """Uniform-in-x grid of n nodes, snapped so every speed atom is an
    interior node of its own (else :class:`DomainError`).  n is an int
    >= 50 (a numpy integer counts, a bool does not), else
    :class:`ParameterError`.

    Node masses integrate the speed density exactly over the surrounding
    half-cells and add the atom weight at the atom's node; they and the
    scale increments between nodes come from closed-form increments, not
    differences of values, so under drift neither cancels.  Each rate
    1/(m_i dS) is formed from m_i S'(x_i) and dS / S'(x_i), each the size
    of one cell wherever the node lies.  The reward is
    called once on the float64 array of nodes and returns an array of that
    shape or a scalar, which is broadcast.  Any other result shape, or a
    reward that is not finite at every node, raises :class:`ParameterError`.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ParameterError(f"n must be an int >= 50, got {n!r}")
    if n < 50:
        raise ParameterError(f"need at least 50 nodes, got {n}")
    if not (spec.interval.left <= lower < upper <= spec.interval.right):
        raise DomainError(f"window [{lower}, {upper}] outside the interval")
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DomainError(f"window [{lower}, {upper}] is not finite")
    nodes = np.linspace(lower, upper, n)
    at = {}
    for loc, _ in spec.speed_atoms:
        # an atom outside the window or near its end lands on an edge node,
        # which has no rates; a node holds one atom, else the other is lost
        i = int(np.argmin(np.abs(nodes - loc)))
        if i in (0, n - 1):
            raise DomainError(f"speed atom at {loc} must snap onto an interior node of "
                              f"window [{lower}, {upper}] at n = {n}")
        if i in at:
            raise DomainError(f"speed atoms at {at[i]} and {loc} snap onto the same node "
                              f"of window [{lower}, {upper}] at n = {n}; increase n")
        at[i] = nodes[i] = loc
    h = nodes[1:] - nodes[:-1]
    if np.any(h <= 0):
        raise ParameterError("atom snapping collapsed the grid; increase n")

    edges = np.empty(n + 1)
    edges[0], edges[-1] = nodes[0], nodes[-1]
    edges[1:-1] = 0.5 * (nodes[1:] + nodes[:-1])
    with np.errstate(over="ignore"):
        mass = spec.speed_density_integral(edges[:-1], edges[1:])
    # m_i S'(x_i) and the increments of S over S'(x_i), each O(h) however
    # far the node is, so their product cannot overflow where m_i or S does
    scaled = mass.copy() if spec.identity_scale \
        else spec.speed_density_integral(edges[:-1] - nodes, edges[1:] - nodes)
    for i, (loc, w) in zip(at, spec.speed_atoms):
        mass[i] += w
        scaled[i] += w * spec.scale_deriv(loc)
    up = 1.0 / (scaled[1:-1] * spec._scale_increment(0.0, h[1:]))
    down = 1.0 / (scaled[1:-1] * spec._scale_increment(-h[:-1], 0.0))
    if not (np.all(np.isfinite(up)) and np.all(up > 0)
            and np.all(np.isfinite(down)) and np.all(down > 0)):
        raise ParameterError("degenerate chain rates; check the window and n")

    if reward is None:
        def reward(x):
            return np.maximum(1.0 + np.asarray(x, dtype=float), 0.0)
    g = _values(reward, nodes)
    return ChainModel(spec=spec, nodes=nodes, node_mass=mass, up_rate=up,
                      down_rate=down, reward=g, window=(lower, upper))


@dataclass(frozen=True)
class ChainSolution:
    values: np.ndarray
    iterations: int
    residual: float


def _edge_roots(chain: ChainModel, alpha: float
                ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Edge ratios ``(r_left, r_right)`` and their complements ``1 - r``.

    Both ratios lie in (0, 1) and come from the characteristic quadratic at
    the neighbouring interior node: ``1/rho_+ = 2 up / (s + D)`` on the left
    and ``rho_- = 2 down / (s + D)`` on the right, with ``s = alpha + up +
    down`` and ``D = sqrt(s^2 - 4 up down)`` written without cancellation.
    The complements ``1 - 2 up / (s + D) = (alpha + down - up + D) / (s + D)``
    and its mirror take ``D - |up - down|`` as ``rad / (D + |up - down|)``,
    with ``rad = D^2 - (up - down)^2``, so they cancel nothing either.  Where
    ``rad`` overflows (alpha above ~1e154) every term is divided by alpha
    first, which leaves each quotient as it is.
    """
    def roots(up, down):
        a = alpha
        with np.errstate(over="ignore"):
            rad = a * (a + 2.0 * (up + down))
        if rad == math.inf:
            a, up, down = 1.0, up / alpha, down / alpha
            rad = a * (a + 2.0 * (up + down))
        disc = math.sqrt((up - down) ** 2 + rad)
        denom = a + up + down + disc
        gap = abs(up - down)
        near, far = a + rad / (disc + gap), a + disc + gap
        comp_up, comp_down = (near, far) if up >= down else (far, near)
        return (2.0 * up / denom, 2.0 * down / denom,
                comp_up / denom, comp_down / denom)

    r_left, _, c_left, _ = roots(chain.up_rate[0], chain.down_rate[0])
    _, r_right, _, c_right = roots(chain.up_rate[-1], chain.down_rate[-1])
    return ((float(r_left), float(r_right)), (float(c_left), float(c_right)))


def _continuation(chain: ChainModel, v: np.ndarray, denom: np.ndarray,
                  ratios: tuple[float, float]) -> np.ndarray:
    """Value of continuing one step from every node, edges included;
    ``denom`` is ``alpha + up + down`` at the interior nodes."""
    cont = np.empty_like(v)
    cont[1:-1] = (chain.up_rate * v[2:] + chain.down_rate * v[:-2]) / denom
    cont[0] = ratios[0] * v[1]
    cont[-1] = ratios[1] * v[-2]
    return cont


def _mobius_scan(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 start: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """Orbits ``x_i = (a_i x_{i-1} + b_i) / (c_i x_{i-1} + 1)`` of ``x_0 = start``.

    The maps run along the rows of the ``(rows, m)`` coefficient arrays,
    each row its own orbit, and ``x_1, x_2, ...`` are written to ``out``.
    Adjacent maps are composed in pairs and renormalised to a bottom-right
    coefficient of 1, the same scan at half the length gives every second
    point, and one more map fills in the points between: O(m) work in
    log2(m) array steps.  All scratch is the flat array ``work``, which
    needs ``3 m`` entries per row: each level puts its three composed
    coefficient arrays at the front, its normaliser just after them, and
    leaves the rest to the next level; on the way back up, once the level
    below is done, its spent slots hold the even points' previous values
    and denominators.  So the scan allocates nothing of the orbit's length.
    With positive coefficients nothing is subtracted, so no step cancels.
    """
    levels = []
    while a.shape[1] > 1:
        rows, m = a.shape
        size = rows * (m // 2)
        coef = work[:3 * size].reshape(3, rows, m // 2)
        norm = work[3 * size:4 * size].reshape(rows, m // 2)
        pa, pb, pc = coef
        a1, b1, c1 = a[:, :m - 1:2], b[:, :m - 1:2], c[:, :m - 1:2]
        a2, b2, c2 = a[:, 1::2], b[:, 1::2], c[:, 1::2]
        np.multiply(c2, b1, norm)
        norm += 1.0
        np.divide(1.0, norm, norm)
        np.multiply(a2, a1, pa)
        pa += np.multiply(b2, c1, pb)       # pb's slot, before pb is formed
        np.multiply(a2, b1, pb)
        pb += b2
        np.multiply(c2, a1, pc)
        pc += c1
        coef *= norm
        levels.append((a, b, c, out, work))
        a, b, c, out, work = pa, pb, pc, out[:, 1::2], work[3 * size:]
    den = work[:a.shape[0], None]
    np.multiply(a, start, out)
    out += b
    np.multiply(c, start, den)
    den += 1.0
    out /= den
    # back up: each level's even points continue the odd points just found
    for a, b, c, out, work in reversed(levels):
        rows, m = a.shape
        size = rows * ((m + 1) // 2)
        prev = work[:size].reshape(rows, -1)
        den = work[size:2 * size].reshape(rows, -1)
        prev[:, :1] = start
        prev[:, 1:] = out[:, 1:m - 1:2]
        even = out[:, ::2]
        np.multiply(a[:, ::2], prev, even)
        even += b[:, ::2]
        np.multiply(c[:, ::2], prev, den)
        den += 1.0
        even /= den


def _harmonic_logs(chain: ChainModel, alpha: float, roots: tuple
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(log psi, log phi, log F)`` of the chain's harmonic solutions.

    psi satisfies every interior row and the left edge row with equality,
    phi every interior row and the right edge row, and F = psi / phi.
    Their steps come from the complements ``q_i = 1 - psi_i / psi_{i+1}``
    and ``p_i = 1 - phi_{i+1} / phi_i``.  The interior row at node i makes
    each a Moebius map of its neighbour,

        q_i     = (down q_{i-1} + alpha) / (down q_{i-1} + alpha + up),
        p_{i-1} = (up p_i + alpha) / (up p_i + alpha + down),

    starting from the edge rows' ``1 - r_left`` and ``1 - r_right``
    (``roots`` is :func:`_edge_roots`' pair).  Every coefficient is
    positive, so :func:`_mobius_scan` evaluates both orbits at once without
    cancellation, and ``log1p(-q)`` keeps the digits of ratios near 1.
    Ratios below 1/2 (large alpha against the rates) take ``log`` of the
    ratio itself, ``1 - q_i = (up / (alpha + up)) / (down q_{i-1} / (alpha +
    up) + 1)``, which cancels nothing either.  The logs are summed and
    normalised to 0 at the middle node; they stay finite where psi and phi
    themselves would overflow.

    All of the scan's scratch is one block of about 10 n floats, taken
    once and freed before the logs are formed: two rows each of scales and
    slopes, then the scan's composed coefficients.  The steps and their
    sums are formed in place in the two rows of the result.  One block
    that holds most of a solve's scratch also keeps the allocator's heap
    between solves: on glibc, freeing a block this large raises the
    threshold above which memory is mapped afresh and trimmed, so later
    solves reuse pages instead of faulting them in again.
    """
    up, down = chain.up_rate, chain.down_rate
    ratios, comps = roots
    m = chain.size - 2
    block = np.empty(10 * m)
    # psi's maps run left to right, phi's right to left, each divided by
    # alpha + up (alpha + down for phi) so its bottom-right coefficient is 1;
    # scale holds 1 / (alpha + up) and then alpha / (alpha + up)
    scale, slope = block[:4 * m].reshape(2, 2, m)
    scale[0], scale[1] = up, down[::-1]
    np.divide(1.0, np.add(alpha, scale, out=scale), out=scale)
    slope[0], slope[1] = down, up[::-1]
    slope *= scale
    # the complements, then their steps and sums, in the rows of logs
    logs = np.empty((2, chain.size))
    logs[:, 0] = 0.0
    comp = logs[:, 1:]
    comp[:, 0] = comps
    _mobius_scan(slope, np.multiply(alpha, scale, out=scale), slope,
                 comp[:, :1], comp[:, 1:], block[4 * m:])
    far = comp > 0.5
    if far.any():
        lead = np.stack((up, down[::-1]))
        ratio = np.empty_like(comp)
        ratio[:, 0] = ratios
        ratio[:, 1:] = lead * (1.0 / (alpha + lead)) / (slope * comp[:, :-1] + 1.0)
    del block, scale, slope
    with np.errstate(divide="ignore"):     # q = 1 only where far is set
        np.negative(np.log1p(np.negative(comp, out=comp), out=comp), out=comp)
    if far.any():
        comp[far] = -np.log(ratio[far])
    np.cumsum(comp, axis=1, out=comp)
    log_psi, log_phi = logs[0], logs[1, ::-1]
    mid = chain.size // 2
    log_psi -= log_psi[mid]
    log_phi -= log_phi[mid]
    return log_psi, log_phi, log_psi - log_phi


def _majorant_policy(chain: ChainModel, denom: np.ndarray,
                     ratios: tuple[float, float],
                     logs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Continuation mask of the chain's least F-concave majorant of g/phi.

    See the module docstring: the chain stops at the vertices of the upper
    hull of {(0, 0)} and the points (F_i, g_i/phi_i), cut flat after its
    maximum, and continues elsewhere.  ``logs`` are log psi, log phi and
    log F from :func:`_harmonic_logs`, and ``denom`` is alpha + up + down.
    A vertex lies strictly above the chord of its neighbours, which is one
    step of continuation (the edge rows stand for the origin and the flat
    tail), so only nodes where that step loses enter the hull pass.  When every reward is below the smallest normal
    float, g is scaled by an exact power of two first (its values <= 0,
    which never stop, are set to 0 so that none overflows), since one step
    of continuation and the chords would round subnormal values back to g.

    The pass walks runs of consecutive surviving nodes.  A run is concave
    already, since every node of it passed the one-step test, so the hull
    keeps a suffix of it.  That suffix starts at the first node that lies
    strictly above the chord from the hull to its successor; the test is
    monotone along the run, so galloping and bisection find it, and the
    rest of the run joins the hull in one slice.  Every vertex a probe
    pops lies under a chord of two points, so no probe pops a vertex of the
    final hull, and the pops stay amortised over the whole pass.  The hull
    lives in one preallocated index buffer with a length: a run's suffix
    joins it as one slice copied from the survivors, a pop only shrinks the
    length, and probes read the buffer through a memoryview, so the pass
    makes no Python object per vertex.
    """
    g = chain.reward
    top = g.max()
    if 0.0 < top < np.finfo(float).tiny:
        g = np.ldexp(np.maximum(g, 0.0), -np.frexp(top)[1])
    log_psi, log_phi, log_f = logs
    survivors = np.flatnonzero(g > _continuation(chain, g, denom, ratios))
    gaps = np.flatnonzero(np.diff(survivors) > 1)
    starts = np.concatenate((survivors[:1], survivors[gaps + 1])).tolist()
    ends = np.concatenate((survivors[gaps], survivors[-1:])).tolist()
    # memoryviews read only the entries the pass touches
    reward, lpsi, lphi, lf, surv = map(memoryview, (g, log_psi, log_phi, log_f,
                                                    survivors))
    exp, expm1 = math.exp, math.expm1

    def above(a, b, k):
        # b against the harmonic function through a and k, as _policy_values
        if a < 0:
            return reward[b] > reward[k] * exp(lpsi[b] - lpsi[k])
        return reward[b] > (
            reward[a] * exp(lphi[b] - lphi[a]) * -expm1(lf[b] - lf[k])
            + reward[k] * exp(lpsi[b] - lpsi[k]) * -expm1(lf[a] - lf[b])
        ) / -expm1(lf[a] - lf[k])

    # upper hull, F increasing, in buf[:size]; index -1 is the origin;
    # points on or below a chord are dropped, so only vertices stop
    buf = np.empty(len(survivors) + 1, dtype=np.intp)
    buf[0] = -1
    hull, size, done = memoryview(buf), 1, 0

    def settle(k):
        # pop the vertices that the chord to k covers; a vertex survives
        # up to the tangent from k and fails after it, so gallop back from
        # the end and bisect, then drop the failed tail at once
        nonlocal size
        bad = size - 1
        if bad < 1 or above(hull[bad - 1], hull[bad], k):
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
        size = bad

    def keeps(t):
        # whether run node t is a vertex of the hull with its whole run
        settle(t)
        return above(hull[size - 1], t, t + 1)

    for s, e in zip(starts, ends):
        # the first kept node lies in (lo, hi]; the last node e is kept; the
        # left edge row already kept node 0
        done += e + 1 - s               # survivors up to e
        hi = s
        if s > 0:
            lo, step = s - 1, 1
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
        kept = e + 1 - hi
        hull[size:size + kept] = surv[done - kept:done]
        size += kept
    # the flat tail after the maximum stands for the right edge row; with no
    # positive vertex the origin is the maximum and the chain never stops
    vertices = buf[1:size]
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.maximum(g[vertices], 0.0)) - log_phi[vertices]
    continue_mask = np.ones(chain.size, dtype=bool)
    if np.any(log_ratio > -np.inf):
        continue_mask[vertices[:np.argmax(log_ratio) + 1]] = False
    return continue_mask


def _policy_values(g: np.ndarray, log_psi: np.ndarray, log_phi: np.ndarray,
                   log_f: np.ndarray, continue_mask: np.ndarray) -> np.ndarray:
    """Value of the policy that stops where ``continue_mask`` is False.

    Between two stop nodes j < k the value is harmonic, so V/phi is the
    line in F = psi/phi through (F_j, g_j/phi_j) and (F_k, g_k/phi_k):

        V_i = g_j (phi_i/phi_j) (F_k - F_i)/(F_k - F_j)
            + g_k (psi_i/psi_k) (F_i - F_j)/(F_k - F_j).

    With lF = log F each quotient is a ratio of ``-expm1`` of nonpositive
    log differences, so nothing overflows.  A continuing left edge leaves
    only ``g_k psi_i/psi_k``, a continuing right edge only ``g_j phi_i/phi_j``
    (psi and phi satisfy those edge rows), and a policy that never stops has
    value 0.  Stop nodes return the reward exactly.

    The policy is read one stop segment at a time: the stops give the
    segments, every continuing node between two stops takes its segment's
    (j, k) and denominator by repetition, and the two edge runs are slices.
    """
    stops = np.flatnonzero(~continue_mask)
    v = np.where(continue_mask, 0.0, g)
    if not len(stops):
        return v
    first, last = stops[0], stops[-1]
    v[:first] = g[first] * np.exp(log_psi[:first] - log_psi[first])
    v[last + 1:] = g[last] * np.exp(log_phi[last + 1:] - log_phi[last])
    gaps = np.diff(stops) - 1
    seg = np.flatnonzero(gaps)
    if len(seg):
        lengths = gaps[seg]
        j, k = stops[seg], stops[seg + 1]
        chord = np.repeat(-np.expm1(log_f[j] - log_f[k]), lengths)
        j, k = np.repeat(j, lengths), np.repeat(k, lengths)
        i = np.flatnonzero(continue_mask[first:last]) + first
        v[i] = (g[j] * np.exp(log_phi[i] - log_phi[j]) * -np.expm1(log_f[i] - log_f[k])
                + g[k] * np.exp(log_psi[i] - log_psi[k]) * -np.expm1(log_f[j] - log_f[i])
                ) / chord
    return v


def solve_chain_stopping(chain: ChainModel, alpha: float) -> ChainSolution:
    """Discounted stopping value of the chain, in one pass.

    The policy is the stopping set of the chain's least concave majorant of
    g/phi in F = psi/phi, since a chain function is alpha-excessive exactly
    when its ratio to phi is concave in F.  The left edge row becomes the
    point (0, 0) of that majorant and the right edge row its flat tail after
    the maximum (see the module docstring).  Its value is phi times the
    piecewise-linear interpolant, in F, of g/phi through the stop nodes, so
    no linear system is solved and stop nodes return the reward exactly.
    One round of policy improvement confirms the policy: a node stops where
    continuing one step is worth less than its reward, and keeps its action
    on a tie.  ``iterations`` counts the evaluation and that round, so it is
    2.  A round that would change any node, or a fixed-point residual above
    1e-10 (or NaN), raises :class:`ConvergenceError`.
    """
    if not 0.0 < alpha < math.inf:     # NaN fails too
        raise ParameterError(
            f"discount rate must be positive and finite, got {alpha}")
    g = chain.reward
    roots = _edge_roots(chain, alpha)
    ratios = roots[0]
    denom = alpha + chain.up_rate + chain.down_rate
    logs = _harmonic_logs(chain, alpha, roots)
    continue_mask = _majorant_policy(chain, denom, ratios, logs)
    v = _policy_values(g, *logs, continue_mask)
    cont = _continuation(chain, v, denom, ratios)
    res = float(np.max(np.abs(v - np.maximum(g, cont))))
    improved = np.where(cont == g, continue_mask, cont > g)
    changed = np.count_nonzero(improved != continue_mask)
    if changed:
        raise ConvergenceError(
            f"the majorant's policy is not stable: policy improvement "
            f"changes {changed} nodes", achieved=res)
    if not res <= 1e-10:       # a NaN residual fails too
        raise ConvergenceError(f"solver left residual {res:g}", achieved=res)
    return ChainSolution(values=v, iterations=2, residual=res)


@dataclass(frozen=True)
class ComparisonReport:
    sup_error: float
    inner_sup_error: float
    jump_estimate: float | None
    stopping_boundary: float | None


def compare(chain: ChainModel, values: np.ndarray, analytic: Callable,
            jump_at: float | None = None,
            inner_fraction: float = 0.8) -> ComparisonReport:
    """Compare a chain solution against an analytic value function.

    ``inner_sup_error`` restricts the sup to the central ``inner_fraction``
    of the window, away from the truncation edges.  With ``jump_at`` set, the
    one-sided finite-difference slopes around that node estimate the
    derivative jump (left minus right).  The stopping boundary estimate is
    the first node after the last one where the value strictly exceeds the
    reward; the solver returns the reward exactly on stop nodes, so this
    is the first node of the stop set's last stretch.  ``analytic`` is
    called once on the nodes, under the reward's rule (see :func:`discretize`).
    ``values`` must have the nodes' shape and ``inner_fraction`` lie in
    (0, 1]; otherwise :class:`ParameterError` is raised.
    """
    if np.shape(values) != chain.nodes.shape:
        raise ParameterError(f"values have shape {np.shape(values)}, "
                             f"the nodes {chain.nodes.shape}")
    if not 0.0 < inner_fraction <= 1.0:        # NaN fails too
        raise ParameterError(
            f"inner_fraction must lie in (0, 1], got {inner_fraction}")
    exact = _values(analytic, chain.nodes)
    err = np.abs(values - exact)
    lo, hi = chain.window
    margin = 0.5 * (1.0 - inner_fraction) * (hi - lo)
    inner = (chain.nodes >= lo + margin) & (chain.nodes <= hi - margin)
    jump_estimate = None
    if jump_at is not None:
        i = chain.node_index(jump_at)
        if i in (0, chain.size - 1):
            raise DomainError("jump estimate needs an interior node")
        x = chain.nodes
        left_slope = float((values[i] - values[i - 1]) / (x[i] - x[i - 1]))
        right_slope = float((values[i + 1] - values[i]) / (x[i + 1] - x[i]))
        jump_estimate = left_slope - right_slope
    strictly_above = np.nonzero(values > chain.reward)[0]
    boundary = None
    if len(strictly_above) and strictly_above.max() + 1 < chain.size:
        boundary = float(chain.nodes[strictly_above.max() + 1])
    return ComparisonReport(
        sup_error=float(err.max()),
        inner_sup_error=float(err[inner].max()),
        jump_estimate=jump_estimate,
        stopping_boundary=boundary,
    )
