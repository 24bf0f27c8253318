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
factor approach 1, so the solver switches from plain value iteration to
policy iteration.

Policy iteration rests on the chain's excessive-function geometry (Dayanik &
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

The first policy is the optimal one.  At an interior node u_i >= (up u_{i+1}
+ down u_{i-1}) / (alpha + up + down) says that u_i lies above the harmonic
function through u_{i-1} and u_{i+1}, so u is excessive there exactly when
u/phi is concave in F.  The left edge row u_0 >= r_left u_1 reads
(u_0/phi_0)/F_0 >= (u_1/phi_1)/F_1: the chord from the origin does not
steepen, so the origin (0, 0) is one more point of the concave function.
The right edge row u_{n-1} >= r_right u_{n-2} reads u_{n-1}/phi_{n-1} >=
u_{n-2}/phi_{n-2}: the function does not decrease at the end, so it is flat
after its maximum.  The value is therefore phi times the least concave
majorant of {(0, 0)} and the points (F_i, g_i/phi_i), cut flat after its
maximum, and the chain stops exactly at the majorant's vertices.  One
monotone-chain pass finds them; the first round evaluates that policy, and
the second confirms that it is stable.  Only where F or g/phi overflows a
float (2 sqrt(2 alpha) times the window's half-width beyond about 700, for
Brownian motion) does policy iteration start from the policy that continues
wherever one step of continuation does not lose, and move the boundary about
one node per round; its policies are evaluated the same way.
Everything is deterministic: fixed summation order, Jacobi-style sweeps, no
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffusion import DiffusionSpec
from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "ChainModel",
    "ChainSolution",
    "ComparisonReport",
    "discretize",
    "solve_chain_stopping",
    "compare",
]


@dataclass(frozen=True)
class ChainModel:
    """Grid, masses, rates and rewards of the approximating chain.

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
    """Uniform-in-x grid of n nodes, snapped so every speed atom is a node.

    Node masses integrate the speed density exactly over the surrounding
    half-cells and add the atom weight at the atom's node.
    """
    if n < 50:
        raise ParameterError(f"need at least 50 nodes, got {n}")
    if not (spec.interval.left <= lower < upper <= spec.interval.right):
        raise DomainError(f"window [{lower}, {upper}] outside the interval")
    for loc, _ in spec.speed_atoms:
        if not (lower < loc < upper):
            raise DomainError(f"speed atom at {loc} outside window "
                              f"[{lower}, {upper}]")
    nodes = np.linspace(lower, upper, n)
    for loc, _ in spec.speed_atoms:
        nodes[int(np.argmin(np.abs(nodes - loc)))] = loc
    if np.any(np.diff(nodes) <= 0):
        raise ParameterError("atom snapping collapsed the grid; increase n")

    edges = np.empty(n + 1)
    edges[0], edges[-1] = nodes[0], nodes[-1]
    edges[1:-1] = 0.5 * (nodes[1:] + nodes[:-1])
    mass = spec.speed_density_integral(edges[:-1], edges[1:])
    for loc, w in spec.speed_atoms:
        mass[int(np.argmin(np.abs(nodes - loc)))] += w

    scale = np.asarray(spec.scale(nodes), dtype=float)
    ds_up = scale[2:] - scale[1:-1]
    ds_down = scale[1:-1] - scale[:-2]
    up = 1.0 / (mass[1:-1] * ds_up)
    down = 1.0 / (mass[1:-1] * ds_down)
    if not (np.all(np.isfinite(up)) and np.all(up > 0)
            and np.all(np.isfinite(down)) and np.all(down > 0)):
        raise ParameterError("degenerate chain rates; check the window and n")

    if reward is None:
        def reward(x):
            return np.maximum(1.0 + np.asarray(x, dtype=float), 0.0)
    g = np.asarray(reward(nodes), dtype=float)
    return ChainModel(spec=spec, nodes=nodes, node_mass=mass, up_rate=up,
                      down_rate=down, reward=g, window=(lower, upper))


@dataclass(frozen=True)
class ChainSolution:
    values: np.ndarray
    iterations: int
    residual: float
    method: str


def _edge_ratios(chain: ChainModel, alpha: float) -> tuple[float, float]:
    """Decay ratios ``(r_left, r_right)`` of the transparent truncation edges.

    Both lie in (0, 1) and come from the characteristic quadratic at the
    neighbouring interior node: ``1/rho_+ = 2 up / (s + D)`` on the left and
    ``rho_- = 2 down / (s + D)`` on the right, with ``s = alpha + up + down``
    and ``D = sqrt(s^2 - 4 up down)`` written without cancellation.
    """
    def root_pair(up, down):
        disc = np.sqrt((up - down) ** 2 + alpha * (alpha + 2.0 * (up + down)))
        denom = alpha + up + down + disc
        return 2.0 * up / denom, 2.0 * down / denom

    r_left, _ = root_pair(chain.up_rate[0], chain.down_rate[0])
    _, r_right = root_pair(chain.up_rate[-1], chain.down_rate[-1])
    return float(r_left), float(r_right)


def _continuation(chain: ChainModel, v: np.ndarray, alpha: float,
                  ratios: tuple[float, float]) -> np.ndarray:
    """Value of continuing one step from every node, edges included."""
    denom = alpha + chain.up_rate + chain.down_rate
    cont = np.empty_like(v)
    cont[1:-1] = (chain.up_rate * v[2:] + chain.down_rate * v[:-2]) / denom
    cont[0] = ratios[0] * v[1]
    cont[-1] = ratios[1] * v[-2]
    return cont


def _residual(chain: ChainModel, v: np.ndarray, alpha: float) -> float:
    cont = _continuation(chain, v, alpha, _edge_ratios(chain, alpha))
    return float(np.max(np.abs(v - np.maximum(chain.reward, cont))))


def _solve_value_iteration(chain: ChainModel, alpha: float, tol: float,
                           max_iter: int) -> tuple[np.ndarray, int]:
    g = chain.reward
    ratios = _edge_ratios(chain, alpha)
    v = g.copy()
    for it in range(1, max_iter + 1):
        new = np.maximum(g, _continuation(chain, v, alpha, ratios))
        delta = float(np.max(np.abs(new - v)))
        v = new
        if delta <= tol:
            return v, it
    raise ConvergenceError(
        f"value iteration did not reach {tol:g} in {max_iter} sweeps",
        achieved=delta)


def _harmonic_logs(chain: ChainModel, alpha: float,
                   ratios: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """``(log psi, log phi)`` of the chain's harmonic solutions.

    psi satisfies every interior row and the left edge row with equality,
    phi every interior row and the right edge row.  Both come from ratio
    recurrences that start at their edge row, ``psi_i / psi_{i+1}`` from the
    left and ``phi_{i+1} / phi_i`` from the right, summed in logs and
    normalised to 0 at the middle node.  The logs stay finite where psi and
    phi themselves would overflow.
    """
    n = chain.size
    up = chain.up_rate.tolist()
    down = chain.down_rate.tolist()
    psi_ratio = [ratios[0]] * (n - 1)
    for i in range(1, n - 1):
        u, d = up[i - 1], down[i - 1]
        psi_ratio[i] = u / (alpha + u + d - d * psi_ratio[i - 1])
    phi_ratio = [ratios[1]] * (n - 1)
    for i in range(n - 2, 0, -1):
        u, d = up[i - 1], down[i - 1]
        phi_ratio[i - 1] = d / (alpha + u + d - u * phi_ratio[i])
    mid = n // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_psi = np.concatenate(([0.0], -np.cumsum(np.log(psi_ratio))))
        log_phi = np.concatenate(([0.0], np.cumsum(np.log(phi_ratio))))
    log_psi -= log_psi[mid]
    log_phi -= log_phi[mid]
    return log_psi, log_phi


def _majorant_policy(chain: ChainModel, alpha: float,
                     ratios: tuple[float, float],
                     logs: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> np.ndarray | None:
    """Continuation mask of the chain's least F-concave majorant of g/phi.

    See the module docstring: the chain stops at the vertices of the upper
    hull of {(0, 0)} and the points (F_i, g_i/phi_i), cut flat after its
    maximum, and continues elsewhere.  ``logs`` are the harmonic solutions
    from :func:`_harmonic_logs`, computed here when not given.  Returns None
    when F or g/phi does not fit in a float.
    """
    log_psi, log_phi = logs or _harmonic_logs(chain, alpha, ratios)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.exp(log_psi - log_phi)
        y = chain.reward * np.exp(-log_phi)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(y))):
        return None
    # upper hull by one monotone-chain pass (F increases); index -1 is the
    # origin, which stands for the left edge row; collinear points are
    # dropped, so only vertices stop
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
    # the flat tail after the maximum stands for the right edge row
    top = hy.index(max(hy))
    continue_mask = np.ones(chain.size, dtype=bool)
    continue_mask[hk[1:top + 1]] = False
    return continue_mask


def _policy_values(g: np.ndarray, log_psi: np.ndarray, log_phi: np.ndarray,
                   continue_mask: np.ndarray) -> np.ndarray:
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
    """
    n = len(g)
    idx = np.arange(n)
    stop = ~continue_mask
    prev = np.maximum.accumulate(np.where(stop, idx, -1))
    nxt = np.minimum.accumulate(np.where(stop, idx, n)[::-1])[::-1]
    log_f = log_psi - log_phi
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


def _solve_policy_iteration(chain: ChainModel, alpha: float, tol: float,
                            max_iter: int) -> tuple[np.ndarray, int]:
    g = chain.reward
    ratios = _edge_ratios(chain, alpha)
    logs = _harmonic_logs(chain, alpha, ratios)
    v = g.copy()
    previous = None
    for it in range(1, max_iter + 1):
        # the first policy is the majorant's, or, where F overflows, the one
        # that continues wherever one step of continuation does not lose;
        # later ones change a node's action only on strict improvement, so
        # ties cannot make the policies cycle
        if previous is None:
            continue_mask = _majorant_policy(chain, alpha, ratios, logs)
            if continue_mask is None:
                continue_mask = _continuation(chain, v, alpha, ratios) >= g
        else:
            cont = _continuation(chain, v, alpha, ratios)
            continue_mask = np.where(cont == g, previous, cont > g)
            if np.array_equal(continue_mask, previous):
                return v, it
        previous = continue_mask
        v = _policy_values(g, *logs, continue_mask)
    raise ConvergenceError(
        f"policy iteration did not stabilize in {max_iter} rounds",
        achieved=_residual(chain, v, alpha))


def solve_chain_stopping(chain: ChainModel, alpha: float, method: str = "auto",
                         tol: float = 1e-11,
                         max_iter: int | None = None) -> ChainSolution:
    """Discounted stopping value of the chain.

    ``method`` is "value", "policy" or "auto"; auto switches to policy
    iteration when the one-step contraction factor exceeds 0.999, where
    plain value iteration would need millions of sweeps.

    Policy iteration evaluates each policy in closed form: its value is phi
    times the piecewise-linear interpolant, in F = psi/phi, of g/phi through
    the policy's stop nodes, so no linear system is solved and stop nodes
    return the reward exactly.  The first policy is the stopping set of the
    chain's least concave majorant of g/phi in F, since a chain function is
    alpha-excessive exactly when its ratio to phi is concave in F.  The left
    edge row becomes the point (0, 0) of that majorant and the right edge row
    its flat tail after the maximum (see the module docstring).  That policy
    is optimal, so ``iterations`` is 2; the policy rounds, the tie rule and
    the residual check still decide the result.  Where F or g/phi overflows a
    float, the first policy is the one that continues wherever one step of
    continuation does not lose.
    """
    if alpha <= 0:
        raise ParameterError(f"discount rate must be positive, got {alpha}")
    rates = chain.up_rate + chain.down_rate
    contraction = float(np.max(rates / (alpha + rates)))
    if method == "auto":
        method = "policy" if contraction > 0.999 else "value"
    if method == "value":
        v, it = _solve_value_iteration(chain, alpha, tol,
                                       max_iter or 200_000)
    elif method == "policy":
        v, it = _solve_policy_iteration(chain, alpha, tol,
                                        max_iter or max(200, 20 * chain.size))
    else:
        raise ParameterError(f"unknown method {method!r}")
    res = _residual(chain, v, alpha)
    if res > max(tol, 1e-10):
        raise ConvergenceError(f"solver left residual {res:g}", achieved=res)
    return ChainSolution(values=v, iterations=it, residual=res, method=method)


@dataclass(frozen=True)
class ComparisonReport:
    sup_error: float
    inner_sup_error: float
    jump_estimate: float | None
    left_slope: float | None
    right_slope: float | None
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
    reward (tolerance 1e-6).
    """
    exact = np.asarray(analytic(chain.nodes), dtype=float)
    if exact.shape != chain.nodes.shape:
        raise ParameterError("analytic must evaluate on all nodes")
    err = np.abs(values - exact)
    lo, hi = chain.window
    margin = 0.5 * (1.0 - inner_fraction) * (hi - lo)
    inner = (chain.nodes >= lo + margin) & (chain.nodes <= hi - margin)
    jump_estimate = left_slope = right_slope = None
    if jump_at is not None:
        i = chain.node_index(jump_at)
        if i in (0, chain.size - 1):
            raise DomainError("jump estimate needs an interior node")
        x = chain.nodes
        left_slope = float((values[i] - values[i - 1]) / (x[i] - x[i - 1]))
        right_slope = float((values[i + 1] - values[i]) / (x[i + 1] - x[i]))
        jump_estimate = left_slope - right_slope
    strictly_above = np.nonzero(values > chain.reward + 1e-6)[0]
    boundary = None
    if len(strictly_above) and strictly_above.max() + 1 < chain.size:
        boundary = float(chain.nodes[strictly_above.max() + 1])
    return ComparisonReport(
        sup_error=float(err.max()),
        inner_sup_error=float(err[inner].max()),
        jump_estimate=jump_estimate,
        left_slope=left_slope,
        right_slope=right_slope,
        stopping_boundary=boundary,
    )
