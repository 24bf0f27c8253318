"""The four workloads: seeded inputs, the timed operations and their checks.

A workload builds one *round* of operations from the seed; a run repeats
that round until its time is up, so every run attempts whole rounds of the
same operations.  Each operation is a ``run`` callable (the timed part: calls
into diffstop or one cold ``python -m diffstop.cli`` process) and a ``check``
callable that compares its result against the benchmark's own closed forms
(:mod:`closed_forms`) or against properties the method must have.

Input ranges are fixed here; the seed only places the draws inside them.
Draws are stratified (one per equal slice of each range) so that every seed
covers its ranges evenly and one round costs about the same whatever the
seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import closed_forms as cf

WINDOW = (-6.0, 6.0)            # acceptance criterion 4's oracle window
SIZES = (4001, 8001)            # oracle grid sizes
C_RANGE = (0.5, 2.0)            # stickiness
BETAS = (1.0, 10.0, 100.0)      # resolvent rates of the excessivity check
SOLVER_RESIDUAL = 1e-10         # solve_chain_stopping's own residual gate
ORACLE_SUP_TOL = 1e-2           # acceptance criterion 4's sup-error tolerance
COMPARE_MARGIN = 1e-6           # compare()'s absolute "strictly above" margin
ROMBERG_TOL = 1e-9              # Romberg-Stieltjes stops at 1e-12 per panel
CLOSED_FORM_TOL = 1e-12         # the same formula evaluated twice in doubles
JUMP_TOL = 1e-9                 # smooth-fit verdict threshold; criterion 6
EXCESSIVITY_TOL = 1e-6          # criterion 7's resolvent tolerance
EPS = float(np.finfo(float).eps)
ROUNDING_ULPS = 1e3             # rounding allowance where the program divides by G


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, object], None]   # (result, checks)


@dataclass
class Workload:
    ops: list[Op]
    min_rounds: int = 1


def strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws, one uniform in each of k equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / k
    vals = [lo + width * (i + rng.random()) for i in range(k)]
    rng.shuffle(vals)
    return vals


def _regime_alphas(rng: random.Random, k: int) -> list[tuple[str, float, float]]:
    """k (regime, alpha, c) triples per smooth-fit regime of the one-sided problem.

    x* > 0 is drawn as x* in [0.3, 0.9], x* < 0 as x* in [-0.35, -0.1], and
    x* = 0 as a point of [alpha1, 1/2] away from both ends.
    """
    out = []
    for regime in ("x*>0", "x*=0", "x*<0"):
        for c, u in zip(strata(rng, *C_RANGE, k), strata(rng, 0.0, 1.0, k)):
            if regime == "x*>0":
                alpha = cf.alpha_for_threshold(0.3 + 0.6 * u, c)
            elif regime == "x*<0":
                alpha = cf.alpha_for_threshold(-0.35 + 0.25 * u, c)
            else:
                a1 = cf.alpha1(c)
                alpha = a1 + (0.15 + 0.7 * u) * (0.5 - a1)
            out.append((regime, alpha, c))
    return out


# ---------------------------------------------------------------------------
# oracle workloads
# ---------------------------------------------------------------------------

def _oracle_op(tracer, spec, n, alpha, c, two_sided: bool) -> Op:
    from diffstop import compare, discretize, solve_chain_stopping

    exact = cf.TwoSided(alpha, c) if two_sided else cf.OneSided(alpha, c)
    reward = cf.two_sided_reward if two_sided else None

    def run():
        with tracer.span("oracle.discretize"):
            chain = discretize(spec, *WINDOW, n, reward=reward)
        with tracer.span("oracle.solve"):
            sol = solve_chain_stopping(chain, alpha)
        with tracer.span("oracle.compare"):
            rep = compare(chain, sol.values, exact.value, jump_at=0.0)
        return chain, sol, rep

    def check(result, checks):
        chain, sol, rep = result
        tag = "oracle2" if two_sided else "oracle1"
        # the residual is rounding noise that grows with n^2 / alpha; the
        # solver raises above its gate, and traced runs report its maximum
        checks.holds(f"{tag}.residual", sol.residual <= SOLVER_RESIDUAL,
                     f"residual {sol.residual:.3g}")
        checks.close(f"{tag}.sup_error", rep.sup_error, ORACLE_SUP_TOL)
        # one-sided slopes carry a known O(h) bias: the jump estimate should
        # be kink - (hl V''(0-) + hr V''(0+)) / 2, up to the O(h^2) Taylor
        # remainder and the node errors (at most 4 sup_error / h)
        x = chain.nodes
        i = chain.node_index(0.0)
        hl, hr = x[i] - x[i - 1], x[i + 1] - x[i]
        d2l, d2r = exact.second_derivatives_at_zero()
        d3l, d3r = exact.third_derivatives_at_zero()
        target = exact.kink_at_zero() - 0.5 * (hl * d2l + hr * d2r)
        tol = (hl * hl * abs(d3l) + hr * hr * abs(d3r)) / 6.0 \
            + 4.0 * rep.sup_error / min(hl, hr)
        checks.close(f"{tag}.jump", rep.jump_estimate - target, tol)
        # compare() reports the first node where V <= g + 1e-6, which sits
        # sqrt(2e-6 / V'') below a smooth-fit boundary; allow one step more
        # either way for the chain's own boundary
        h = max(hl, hr)
        if two_sided:
            b = exact.b
            delta = math.sqrt(2.0 * COMPARE_MARGIN / exact.curvature_below_boundary())
        else:
            b = exact.x_star
            delta = 0.0 if b == 0.0 else \
                math.sqrt(2.0 * COMPARE_MARGIN / exact.curvature_below_threshold())
        bnd = rep.stopping_boundary
        checks.holds(f"{tag}.boundary", bnd is not None and b - delta - h <= bnd <= b + h,
                     f"boundary {bnd} outside [{b - delta - h}, {b + h}]")
        if two_sided:
            above = np.nonzero(sol.values > chain.reward + COMPARE_MARGIN)[0]
            left = float(x[above.min() - 1]) if len(above) and above.min() > 0 else None
            checks.holds(f"{tag}.left_boundary",
                         left is not None and -b - h <= left <= -b + delta + h,
                         f"left boundary {left} outside [{-b - h}, {-b + delta + h}]")

    regime = ""
    if not two_sided:
        xs = cf.threshold(alpha, c)
        regime = "x*>0" if xs > 0 else ("x*=0" if xs == 0 else "x*<0")
    label = f"{'two' if two_sided else 'one'}-sided n={n} alpha={alpha:.4f} c={c:.3f} {regime}"
    return Op(label, run, check)


def oracle_one_sided(seed: int, tracer) -> Workload:
    from diffstop import make_sticky_bm

    rng = random.Random(seed)
    ops = []
    for n in SIZES:
        for _, alpha, c in _regime_alphas(rng, 2):
            ops.append(_oracle_op(tracer, make_sticky_bm(0.0, c), n, alpha, c, False))
    return Workload(ops)


def oracle_two_sided(seed: int, tracer) -> Workload:
    """Twelve draws at the larger size, alpha log-uniform in [0.1, 1.5].

    One size only: a solve's cost falls steadily with alpha, so the median
    operation comes from the middle strata of alpha.  With both sizes it
    would sit where the dearest n=4001 solves and the cheapest n=8001 solves
    interleave, and move with the extreme draws.
    """
    from diffstop import make_sticky_bm

    rng = random.Random(seed)
    ops = []
    for c, u in zip(strata(rng, *C_RANGE, 12), strata(rng, 0.0, 1.0, 12)):
        alpha = math.exp(math.log(0.1) + u * math.log(15.0))
        ops.append(_oracle_op(tracer, make_sticky_bm(0.0, c), SIZES[-1], alpha, c, True))
    return Workload(ops)


# ---------------------------------------------------------------------------
# representation workload
# ---------------------------------------------------------------------------

@dataclass
class Candidate:
    """A program candidate with the benchmark's own account of it."""

    label: str
    spec: object
    alpha: float
    cand: object                  # diffstop ExcessiveCandidate
    own: Callable                 # closed-form u
    green: Callable               # closed-form G(x, y)
    speed_atom: float             # m({0}); 0 off the sticky family
    sigma_atoms: dict             # raw Riesz atoms of u
    mass_left: float = 0.0        # Martin boundary masses of u / u(x0)
    mass_right: float = 0.0
    sigma_ac: Callable | None = None   # raw Riesz AC mass of (a, b)
    riesz_doc: bool = True
    excessivity_u: Callable | None = None
    excessivity_kinks: tuple = ()
    reward_control: bool = False


def _candidates(seed: int, tracer) -> list[Candidate]:
    from diffstop import (green_candidate, make_reflected_killed_bm, make_sticky_bm,
                          phi_candidate, psi_candidate, value_candidate, value_function)

    rng = random.Random(seed)
    out = []
    for regime, alpha, c in _regime_alphas(rng, 1):
        exact = cf.OneSided(alpha, c)
        with tracer.span("stopping.value_candidate"):
            cand = value_candidate(alpha, c)
        vf = tracer.wrap("stopping.value_function",
                         lambda x, a=alpha, cc=c: value_function(a, cc, x))
        atoms = exact.sigma_atoms()
        out.append(Candidate(
            f"value {regime} alpha={alpha:.4f} c={c:.3f}", make_sticky_bm(0.0, c), alpha,
            cand, exact.value, exact.fs.green, 2.0 * c, atoms,
            sigma_ac=exact.sigma_ac_between,
            # criterion 7 passes the stopping value as a plain callable
            excessivity_u=vf, excessivity_kinks=(-1.0, 0.0),
            reward_control=regime == "x*>0"))

    for side, (lo, hi) in (("left", (-1.5, -0.2)), ("right", (0.2, 1.5))):
        alpha, c, y0 = rng.uniform(0.2, 1.0), rng.uniform(*C_RANGE), rng.uniform(lo, hi)
        fs = cf.Sticky(alpha, c)
        out.append(Candidate(
            f"green pole {side} y0={y0:.3f} alpha={alpha:.3f} c={c:.3f}",
            make_sticky_bm(0.0, c), alpha, green_candidate(make_sticky_bm(0.0, c), alpha, y0),
            lambda x, fs=fs, y0=y0: fs.green(x, y0), fs.green, 2.0 * c, {y0: 1.0}))

    for mu_lo, mu_hi in ((0.0, 0.0), (-0.6, -0.1)):
        for kind in ("psi", "phi"):
            alpha, c = rng.uniform(0.2, 1.0), rng.uniform(*C_RANGE)
            mu = rng.uniform(mu_lo, mu_hi) if mu_hi < 0 else 0.0
            spec = make_sticky_bm(mu, c)
            fs = cf.Sticky(alpha, c, mu)
            make = psi_candidate if kind == "psi" else phi_candidate
            out.append(Candidate(
                f"{kind} mu={mu:.3f} alpha={alpha:.3f} c={c:.3f}", spec, alpha,
                make(spec, alpha), fs.psi if kind == "psi" else fs.phi, fs.green,
                2.0 * c, {},
                mass_left=1.0 if kind == "phi" else 0.0,
                mass_right=1.0 if kind == "psi" else 0.0,
                # measure_to_doc raises ConvergenceError on the Riesz
                # measure of psi or phi for some draws of these ranges, so
                # their Riesz documents are left out
                riesz_doc=False))

    spec = make_reflected_killed_bm()
    for kind in ("psi", "phi", "green"):
        alpha, x0 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.3)
        fs = cf.ReflectedKilled(alpha)
        if kind == "green":
            y0 = rng.uniform(0.5, 0.85)
            cand = green_candidate(spec, alpha, y0, x0=x0)
            own, atoms = (lambda x, fs=fs, y0=y0: fs.green(x, y0)), {y0: 1.0}
        elif kind == "psi":
            cand, own, atoms = psi_candidate(spec, alpha, x0=x0), fs.psi, {}
        else:
            # phi leaves the reflecting end with slope -k cosh 0 = -k: a
            # Riesz atom of weight w at the included endpoint 0
            cand, own, atoms = phi_candidate(spec, alpha, x0=x0), fs.phi, {0.0: fs.wronskian}
        out.append(Candidate(
            f"reflected-killed {kind} alpha={alpha:.3f} x0={x0:.3f}", spec, alpha,
            cand, own, fs.green, 0.0, atoms,
            mass_right=1.0 if kind == "psi" else 0.0,
            # the Riesz document of psi always raises ConvergenceError
            riesz_doc=kind != "psi"))

    for item in out:
        c = item.cand
        item.cand = replace(c, value=tracer.wrap("diffusion.kernel", c.value),
                            ds_right=tracer.wrap("diffusion.kernel", c.ds_right),
                            ds_left=tracer.wrap("diffusion.kernel", c.ds_left))
        if item.excessivity_u is None:
            item.excessivity_u = item.cand.value
            item.excessivity_kinks = tuple(item.cand.kinks)
    return out


def _representation_op(tracer, item: Candidate) -> Op:
    from diffstop import (derivative_jump, excessivity_check, martin_measure,
                          measure_from_doc, measure_to_doc, reconstruct, riesz_from_martin)

    spec, alpha, cand = item.spec, item.alpha, item.cand
    left, right = spec.interval.left, spec.interval.right
    if math.isfinite(left):
        grid = np.linspace(left, 0.95 * right, 9)
        egrid = np.linspace(left, 0.9 * right, 7)
    else:
        grid, egrid = np.linspace(-3.0, 3.0, 9), np.linspace(-3.0, 3.0, 7)
    kinks = [z for z in cand.kinks if left < z < right]

    def run():
        with tracer.span("representation.martin_measure"):
            nu = martin_measure(spec, alpha, cand)
        with tracer.span("representation.riesz_from_martin"):
            sigma = riesz_from_martin(nu, spec, alpha)
        recon = []
        for x in grid:
            with tracer.span("representation.reconstruct"):
                recon.append(reconstruct(nu, spec, alpha, float(x)))
        jumps = []
        for z in kinks:
            with tracer.span("representation.derivative_jump"):
                jumps.append(derivative_jump(spec, alpha, cand, sigma, z))
        docs = {}
        for kind, measure in (("martin", nu), ("riesz", sigma)):
            if kind == "riesz" and not item.riesz_doc:
                continue
            with tracer.span("representation.measure_to_doc"):
                doc = measure_to_doc(measure)
            text = json.dumps(doc)
            with tracer.span("representation.measure_from_doc"):
                back = measure_from_doc(json.loads(text), spec)
            docs[kind] = (doc, back)
        with tracer.span("representation.excessivity_check"):
            exc = excessivity_check(spec, alpha, item.excessivity_u, egrid, BETAS,
                                    tol=EXCESSIVITY_TOL, kinks=item.excessivity_kinks)
        control = None
        if item.reward_control:
            with tracer.span("representation.excessivity_check"):
                control = excessivity_check(spec, alpha, _reward, egrid, BETAS,
                                            tol=EXCESSIVITY_TOL, kinks=(-1.0, 0.0))
        return nu, sigma, recon, jumps, docs, exc, control

    def check(result, checks):
        nu, sigma, recon, jumps, docs, exc, control = result
        x0 = cand.x0
        u0 = float(item.own(x0))
        # Martin measure: a probability measure whose atoms are sigma-atoms
        # weighted by G(x0, z) / u(x0), with the harmonic part at the ends
        checks.close("martin.total_mass", nu.total_mass - 1.0, ROMBERG_TOL)
        want = {z: w * float(item.green(x0, z)) / u0 for z, w in item.sigma_atoms.items()}
        _atoms(checks, "martin.atoms", nu.atoms, want)
        checks.close("martin.mass_left", nu.mass_left_boundary - item.mass_left, ROMBERG_TOL)
        checks.close("martin.mass_right", nu.mass_right_boundary - item.mass_right, ROMBERG_TOL)
        _atoms(checks, "riesz.atoms", sigma.atoms,
               {z: w / u0 for z, w in item.sigma_atoms.items()})
        # reconstruct recovers u / u(x0)
        checks.relative("reconstruct", recon, item.own(grid) / u0, ROMBERG_TOL)
        # u_S'(z-) - u_S'(z+) = sigma({z}) - m({z}) alpha u(z), raw scale
        for dj in jumps:
            sig = item.sigma_atoms.get(dj.z, 0.0)
            speed = item.speed_atom if dj.z == 0.0 else 0.0
            want_jump = sig - speed * alpha * float(item.own(dj.z))
            checks.close("jump.value", dj.jump - want_jump, JUMP_TOL * max(1.0, abs(want_jump)))
            checks.close("jump.sigma_atom", dj.sigma_atom - sig, JUMP_TOL * max(1.0, abs(sig)))
            checks.close("jump.residual", dj.residual, JUMP_TOL)
        # documents: atoms and masses survive JSON exactly, the rebuilt
        # measure re-serializes to the same tail samples
        for kind, (doc, back) in docs.items():
            again = measure_to_doc(back)
            checks.holds(f"doc.{kind}.atoms", again["atoms"] == doc["atoms"]
                         and again["mass_left_boundary"] == doc["mass_left_boundary"]
                         and again["mass_right_boundary"] == doc["mass_right_boundary"])
            for end in ("left", "right"):
                a = np.array(doc["tail_samples"][end])
                b = np.array(again["tail_samples"][end])
                checks.relative(f"doc.{kind}.round_trip", b, a, CLOSED_FORM_TOL)
            if kind == "riesz":
                _riesz_samples(checks, doc, item, u0)
        # resolvent test: excessive candidates pass, the raw reward does not
        checks.holds("excessivity.passed", exc.passed,
                     f"{item.label}: violation {exc.max_violation:.3g}")
        checks.close("excessivity.violation", max(exc.max_violation, 0.0), EXCESSIVITY_TOL)
        if control is not None:
            checks.holds("excessivity.reward_rejected", not control.passed)

    return Op(item.label, run, check)


def _reward(x):
    return np.maximum(1.0 + np.asarray(x, dtype=float), 0.0)


def _atoms(checks, name: str, got, want: dict) -> None:
    locs = sorted(want)
    checks.holds(f"{name}.locations", [z for z, _ in got] == locs,
                 f"atoms at {[z for z, _ in got]}, expected {locs}")
    if [z for z, _ in got] == locs:
        checks.relative(f"{name}.weights", [w for _, w in got], [want[z] for z in locs],
                        ROMBERG_TOL)


def _riesz_samples(checks, doc, item: Candidate, u0: float) -> None:
    """Riesz tail samples are the AC cumulative of sigma / u(x0) from x0.

    The program divides Martin increments (a probability measure, rounded
    at about one ulp) by G(x0, y), so rounding alone leaves about
    eps / G(x0, t) in the sample at t; the allowance is a thousand of those
    on top of the quadrature tolerance.
    """
    x0 = doc["x0"]
    ac = item.sigma_ac or (lambda a, b: 0.0)
    samples = np.array(doc["tail_samples"]["left"] + doc["tail_samples"]["right"])
    n_left = len(doc["tail_samples"]["left"])
    want = np.array([ac(t, x0) if i < n_left else ac(x0, t)
                     for i, t in enumerate(samples[:, 0])]) / u0
    kernel = np.asarray(item.green(x0, samples[:, 0]), dtype=float)
    rounding = np.zeros_like(kernel)      # G vanishes only at a killing end
    np.divide(ROUNDING_ULPS * EPS, kernel, out=rounding, where=kernel > 0.0)
    tol = ROMBERG_TOL * np.maximum(1.0, np.abs(want)) + rounding
    checks.close("doc.riesz.ac_samples", float(np.max(np.abs(samples[:, 1] - want) / tol)), 1.0)


def representation(seed: int, tracer) -> Workload:
    return Workload([_representation_op(tracer, item) for item in _candidates(seed, tracer)])


# ---------------------------------------------------------------------------
# cold command-line processes
# ---------------------------------------------------------------------------

def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _cli_checks_solve(alpha, c):
    exact = cf.OneSided(alpha, c)

    def check(doc, checks):
        doc = json.loads(doc)
        checks.close("cli.solve.x_star", doc["x_star"] - exact.x_star,
                     CLOSED_FORM_TOL * max(1.0, abs(exact.x_star)))
        jump = exact.jump_at_threshold()
        sigma = jump + (2.0 * c * alpha if exact.x_star == 0.0 else 0.0)
        checks.close("cli.solve.jump", doc["jump"] - jump, JUMP_TOL)
        checks.close("cli.solve.sigma_atom", doc["sigma_atom"] - sigma, JUMP_TOL)
        checks.close("cli.solve.alpha1", doc["alpha1"] - cf.alpha1(c), CLOSED_FORM_TOL)
        checks.holds("cli.solve.verdict", doc["verdict"] == exact.verdict(),
                     f"alpha={alpha}: {doc['verdict']}")
    return check


def _cli_checks_sweep(c):
    def check(text, checks):
        header, rows = _read_csv(text)
        alphas = [float(r[0]) for r in rows]
        checks.holds("cli.sweep.rows", header == ["alpha", "x_star", "jump", "sigma_atom",
                                                  "verdict"]
                     and len(rows) == 14 and alphas == sorted(alphas))
        a1 = cf.alpha1(c)
        for r in rows:
            alpha = float(r[0])
            exact = cf.OneSided(alpha, c)
            checks.close("cli.sweep.x_star", float(r[1]) - exact.x_star,
                         CLOSED_FORM_TOL * max(1.0, abs(exact.x_star)))
            checks.close("cli.sweep.jump", float(r[2]) - exact.jump_at_threshold(), JUMP_TOL)
            # smooth fit fails exactly on [alpha1, 1/2)
            checks.holds("cli.sweep.verdict",
                         (r[4] == "Fails") == (a1 <= alpha < 0.5) and r[4] in ("Fails",
                                                                                "SmoothFit"),
                         f"alpha={alpha}: {r[4]}")
    return check


def _cli_checks_plot(alpha, c):
    exact = cf.OneSided(alpha, c)
    fs = exact.fs

    def check(text, checks):
        header, rows = _read_csv(text)
        data = np.array(rows, dtype=float)
        x = data[:, 0]
        g, dg = np.maximum(1.0 + x, 0.0), np.where(x >= -1.0, 1.0, 0.0)
        checks.holds("cli.plot.rows", header == ["x", "t", "s", "value", "reward"]
                     and len(rows) == 500)
        checks.relative("cli.plot.t", data[:, 1], g * fs.dpsi(x) - dg * fs.psi(x),
                        CLOSED_FORM_TOL)
        checks.relative("cli.plot.s", data[:, 2], fs.phi(x) * dg - fs.dphi(x) * g,
                        CLOSED_FORM_TOL)
        checks.relative("cli.plot.value", data[:, 3], exact.value(x), CLOSED_FORM_TOL)
        checks.relative("cli.plot.reward", data[:, 4], g, CLOSED_FORM_TOL)
    return check


def _cli_checks_fundamental(alpha, c):
    fs = cf.Sticky(alpha, c)

    def check(text, checks):
        header, rows = _read_csv(text)
        data = np.array(rows, dtype=float)
        x = data[:, 0]
        checks.holds("cli.fundamental.rows", header == ["x", "psi", "phi", "green_x0"]
                     and len(rows) == 81)
        checks.relative("cli.fundamental.psi", data[:, 1], fs.psi(x), CLOSED_FORM_TOL)
        checks.relative("cli.fundamental.phi", data[:, 2], fs.phi(x), CLOSED_FORM_TOL)
        checks.relative("cli.fundamental.green", data[:, 3], fs.green(0.0, x),
                        CLOSED_FORM_TOL)
    return check


def _cli_checks_measure(alpha, c):
    exact = cf.OneSided(alpha, c)
    item = Candidate("value", None, alpha, None, exact.value, exact.fs.green, 2.0 * c,
                     exact.sigma_atoms(), sigma_ac=exact.sigma_ac_between)

    def check(text, checks):
        doc = json.loads(text)
        x0 = max(0.0, exact.x_star) + 1.0
        u0 = float(exact.value(x0))
        checks.holds("cli.measure.kind", doc["kind"] == "riesz" and doc["total_mass"] is None)
        checks.close("cli.measure.x0", doc["x0"] - x0, CLOSED_FORM_TOL)
        checks.close("cli.measure.normalization", doc["normalization"] / u0 - 1.0,
                     CLOSED_FORM_TOL)
        checks.close("cli.measure.boundary_mass",
                     abs(doc["mass_left_boundary"]) + abs(doc["mass_right_boundary"]),
                     ROMBERG_TOL)
        _atoms(checks, "cli.measure.atoms",
               [(a["location"], a["weight"]) for a in doc["atoms"]],
               {z: w / u0 for z, w in item.sigma_atoms.items()})
        _riesz_samples(checks, doc, item, u0)
    return check


def _cli_checks_verify(alpha, c):
    exact = cf.OneSided(alpha, c)
    n = 4001
    h = (WINDOW[1] - WINDOW[0]) / (n - 1)

    def check(text, checks):
        doc = json.loads(text)
        checks.close("cli.verify.sup_error", doc["sup_error"], ORACLE_SUP_TOL)
        checks.holds("cli.verify.residual", doc["residual"] <= SOLVER_RESIDUAL,
                     f"residual {doc['residual']:.3g}")
        checks.holds("cli.verify.iterations", doc["iterations"] >= 1)
        d2l, d2r = exact.second_derivatives_at_zero()
        d3l, d3r = exact.third_derivatives_at_zero()
        target = exact.kink_at_zero() - 0.5 * h * (d2l + d2r)
        tol = h * h * (abs(d3l) + abs(d3r)) / 6.0 + 4.0 * doc["sup_error"] / h
        checks.close("cli.verify.jump", doc["jump_estimate"] - target, tol)
    return check


def cli_commands(seed: int) -> list[tuple[str, list[str], Callable]]:
    """(label, argv, check) for one round: each subcommand once, README sizes."""
    rng = random.Random(seed)
    c = [rng.uniform(*C_RANGE) for _ in range(6)]
    a = [rng.uniform(0.05, 1.0) for _ in range(6)]

    def f(v: float) -> str:
        return repr(float(v))

    return [
        ("solve", ["solve", "--alpha", f(a[0]), "--c", f(c[0])], _cli_checks_solve(a[0], c[0])),
        ("sweep", ["sweep", "--c", f(c[1]), "--alpha-from", "0.05", "--alpha-to", "0.7",
                   "--step", "0.05"], _cli_checks_sweep(c[1])),
        ("plot_data", ["plot-data", "--alpha", f(a[2]), "--c", f(c[2]), "--from", "-0.99",
                       "--to", "2", "--points", "500"], _cli_checks_plot(a[2], c[2])),
        ("fundamental", ["fundamental", "--alpha", f(a[3]), "--c", f(c[3]), "--from", "-2",
                         "--to", "2", "--points", "81"], _cli_checks_fundamental(a[3], c[3])),
        ("measure", ["measure", "--candidate", "value", "--alpha", f(a[4]), "--c", f(c[4]),
                     "--kind", "riesz"], _cli_checks_measure(a[4], c[4])),
        ("verify", ["verify", "--alpha", f(a[5]), "--c", f(c[5]), "--window", "-6", "6",
                    "--n", "4001"], _cli_checks_verify(a[5], c[5])),
    ]


def cli_cold(seed: int, tracer, env: dict, cwd: str) -> Workload:
    ops = []
    for label, argv, check_doc in cli_commands(seed):
        cmd = [sys.executable, "-m", "diffstop.cli", *argv]
        first: list[bytes] = []

        def run(cmd=cmd, label=label):
            with tracer.span(f"cli.{label}"):
                proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                                      timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: "
                                   f"{proc.stderr.decode(errors='replace')[-300:]}")
            return proc.stdout

        def check(out, checks, check_doc=check_doc, first=first, label=label):
            if first:
                checks.holds("cli.byte_identical", out == first[0],
                             f"{label}: output differs between invocations")
            else:
                first.append(out)
            check_doc(out.decode(), checks)

        ops.append(Op(f"cli {' '.join(argv)}", run, check))
    # two rounds at least, so every command is compared with a repeat
    return Workload(ops, min_rounds=2)


NAMES = ("cli-cold", "oracle-one-sided", "oracle-two-sided", "representation")


def build(name: str, seed: int, tracer, env: dict, cwd: str) -> Workload:
    if name == "cli-cold":
        return cli_cold(seed, tracer, env, cwd)
    if name == "oracle-one-sided":
        return oracle_one_sided(seed, tracer)
    if name == "oracle-two-sided":
        return oracle_two_sided(seed, tracer)
    if name == "representation":
        return representation(seed, tracer)
    raise ValueError(f"unknown workload {name!r}")
