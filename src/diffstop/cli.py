"""Command-line front end: JSON reports and CSV plot data.

Subcommands
-----------
fundamental   tabulate psi, phi and a Green-kernel row on a grid
solve         threshold, smooth-fit report (JSON), optional value samples
measure       representing measure of a named candidate (JSON document)
verify        birth-death-chain oracle run and comparison (JSON)
plot-data     CSV of x, t(x), s(x), V*(x), g(x), one file per alpha
sweep         alpha-grid of threshold / jump / atom / verdict rows

Numeric output uses 17 significant digits with '.' as the decimal mark and
no grouping, so identical invocations produce byte-identical files.  Errors
in numeric domains exit with code 1 and a machine-readable JSON object on
stderr; flag errors exit with code 2.

Each subcommand imports only the layers it runs, so a ``fundamental`` call
never compiles the representation, stopping or oracle modules.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DiffstopError, DomainError

# the most rows one sweep may print: a row costs ~0.03 ms and ~100 bytes
_SWEEP_MAX_ROWS = 100_000


def _fmt(x: float | str) -> str:
    return x if isinstance(x, str) else format(float(x), ".17g")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _spec_from_args(args):
    from .diffusion import spec_from_config

    # flags map one-to-one onto the configuration-document schema
    return spec_from_config({"family": args.family, "mu": args.mu, "c": args.c})


def _cmd_fundamental(args) -> int:
    from .diffusion import fundamental

    spec = _spec_from_args(args)
    fs = fundamental(spec, args.alpha)
    xs = np.linspace(args.range_from, args.range_to, args.points)
    with np.errstate(over="ignore", invalid="ignore"):
        cols = (fs.psi(xs), fs.phi(xs), fs.green(args.x0, xs))
    bad = ~np.isfinite(cols)
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        names = [n for n, b in zip(("psi", "phi", "green_x0"), bad[:, i]) if b]
        raise DomainError(f"{' and '.join(names)} not finite at x={float(xs[i])!r} "
                          f"(alpha={args.alpha!r})")
    rows = list(zip(xs.tolist(), *(col.tolist() for col in cols)))
    if args.format == "json":
        doc = {
            "alpha": args.alpha,
            "theta": fs.theta,
            "gamma": fs.gamma,
            "wronskian": fs.wronskian,
            "rows": [{"x": r[0], "psi": r[1], "phi": r[2], "green_x0": r[3]}
                     for r in rows],
        }
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _write(_csv(["x", "psi", "phi", "green_x0"], rows), args.out)
    return 0


def _cmd_solve(args) -> int:
    from .stopping import default_reward, smooth_fit_report, value_function

    report = smooth_fit_report(args.alpha, args.c)
    _write(json.dumps(report.to_doc(), indent=2) + "\n", args.out)
    if args.samples_out:
        xs = np.linspace(args.range_from, args.range_to, args.points)
        g = default_reward().value
        rows = zip(xs, value_function(args.alpha, args.c, xs), g(xs))
        with open(args.samples_out, "w") as fh:
            fh.write(_csv(["x", "value", "reward"], rows))
    return 0


def _cmd_measure(args) -> int:
    from .representation import (green_candidate, martin_measure, measure_to_doc,
                                 phi_candidate, psi_candidate, riesz_from_martin)
    from .stopping import value_candidate

    spec = _spec_from_args(args)
    x0 = 0.0 if args.x0 is None else args.x0
    if args.candidate == "green":
        cand = green_candidate(spec, args.alpha, args.y0, x0=x0)
    elif args.candidate == "psi":
        cand = psi_candidate(spec, args.alpha, x0=x0)
    elif args.candidate == "phi":
        cand = phi_candidate(spec, args.alpha, x0=x0)
    else:
        if args.family != "sticky_bm" or args.mu != 0.0:
            raise DiffstopError("the value candidate is defined for the "
                                "driftless sticky family only")
        cand = value_candidate(args.alpha, args.c, x0=args.x0)
    measure = martin_measure(spec, args.alpha, cand)
    if args.kind == "riesz":
        measure = riesz_from_martin(measure, spec, args.alpha)
    _write(json.dumps(measure_to_doc(measure), indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import compare, discretize, solve_chain_stopping
    from .stopping import value_function

    if args.family != "sticky_bm" or args.mu != 0.0:
        raise DiffstopError("verify compares against the closed-form value, "
                            "which exists for the driftless sticky family only")
    spec = _spec_from_args(args)
    lo, hi = args.window
    chain = discretize(spec, lo, hi, args.n)
    sol = solve_chain_stopping(chain, args.alpha)
    rep = compare(chain, sol.values,
                  lambda x: value_function(args.alpha, args.c, x), jump_at=0.0)
    doc = {
        "window": [lo, hi],
        "n": args.n,
        "alpha": args.alpha,
        "c": args.c,
        "sup_error": rep.sup_error,
        "jump_estimate": rep.jump_estimate,
        "iterations": sol.iterations,
        "residual": sol.residual,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_plot_data(args) -> int:
    from .stopping import default_reward, st_table, value_function

    alphas = args.alpha
    if len(alphas) > 1 and (not args.out or "{alpha}" not in args.out):
        raise DiffstopError("multiple alphas need --out with an {alpha} "
                            "placeholder")
    g = default_reward().value
    for alpha in alphas:
        xs = np.linspace(args.range_from, args.range_to, args.points)
        s, t = st_table(alpha, args.c, xs)
        v = value_function(alpha, args.c, xs)
        text = _csv(["x", "t", "s", "value", "reward"], zip(xs, t, s, v, g(xs)))
        out = args.out.format(alpha=_fmt(alpha)) if args.out else None
        _write(text, out)
    return 0


def _cmd_sweep(args) -> int:
    from .stopping import smooth_fit_report

    if not all(map(math.isfinite, (args.alpha_from, args.alpha_to, args.step))):
        raise DiffstopError("sweep bounds and step must be finite")
    if args.step <= 0:
        raise DiffstopError("sweep step must be positive")
    # a step that does not advance at all is named by the loop below
    rows = (args.alpha_to - args.alpha_from) / args.step + 1.0
    if rows > _SWEEP_MAX_ROWS and args.alpha_from + args.step > args.alpha_from:
        raise DiffstopError(f"sweep would print {rows:.4g} rows, more than "
                            f"the limit of {_SWEEP_MAX_ROWS}")
    alphas = []
    a = args.alpha_from
    while a <= args.alpha_to + 1e-12:
        alphas.append(round(a, 12))
        if not a + args.step > a:
            raise DiffstopError(f"sweep step {args.step!r} does not advance "
                                f"alpha past {a!r} in floating point")
        a += args.step
    entries = [smooth_fit_report(alpha, args.c).to_doc() for alpha in alphas]
    if args.format == "json":
        _write(json.dumps(entries, indent=2) + "\n", args.out)
    else:
        header = ["alpha", "x_star", "jump", "sigma_atom", "verdict"]
        _write(_csv(header, ([e[k] for k in header] for e in entries)), args.out)
    return 0


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="sticky_bm",
                   help="diffusion family (default: sticky_bm)")
    p.add_argument("--mu", type=float, default=0.0, help="drift (<= 0)")
    p.add_argument("--c", type=float, default=1.0, help="stickiness (> 0)")


def _count(text: str) -> int:
    """argparse type of a point count: a nonnegative int."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _add_range_flags(p: argparse.ArgumentParser, lo: float, hi: float,
                     points: int) -> None:
    p.add_argument("--from", dest="range_from", type=float, default=lo)
    p.add_argument("--to", dest="range_to", type=float, default=hi)
    p.add_argument("--points", type=_count, default=points)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffstop",
        description="Excessive-function representations and smooth-fit "
                    "diagnostics for optimal stopping of 1D diffusions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fundamental", help="tabulate psi, phi, Green row")
    _add_family_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    _add_range_flags(p, -3.0, 3.0, 61)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fundamental)

    p = sub.add_parser("solve", help="threshold and smooth-fit report")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--samples-out", help="also write value samples CSV here")
    _add_range_flags(p, -3.0, 3.0, 121)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("measure", help="representing measure of a candidate")
    _add_family_flags(p)
    p.add_argument("--candidate", choices=("green", "psi", "phi", "value"),
                   required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--y0", type=float, default=0.7,
                   help="pole of the green candidate")
    p.add_argument("--x0", type=float, default=None,
                   help="normalization point (candidate default if omitted)")
    p.add_argument("--kind", choices=("martin", "riesz"), default="martin")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("verify", help="chain-oracle run and comparison")
    _add_family_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--window", type=float, nargs=2, default=(-6.0, 6.0),
                   metavar=("LO", "HI"))
    p.add_argument("--n", type=int, default=4001)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("plot-data", help="CSV of x, t, s, value, reward")
    p.add_argument("--alpha", type=float, action="append", required=True,
                   help="repeatable; one output file per alpha")
    p.add_argument("--c", type=float, default=1.0)
    _add_range_flags(p, -0.99, 2.0, 500)
    p.add_argument("--out", help="path; use {alpha} placeholder for sweeps")
    p.set_defaults(func=_cmd_plot_data)

    p = sub.add_parser("sweep", help="alpha sweep of smooth-fit verdicts")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--alpha-from", type=float, required=True)
    p.add_argument("--alpha-to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiffstopError as err:
        payload = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
