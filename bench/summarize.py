"""Median, quartiles and spread of each metric over a set of saved runs.

    python3 bench/summarize.py .bench_out/oracle-one-sided_seed*_trace0.json

Spread is (q3 - q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``, the figure BENCHMARK.json's bounds
are compared against.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(paths: list[str]) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for path in paths:
        with open(path) as fh:
            out = json.load(fh)
        result, info = out["result"], out["info"]
        runs.append((info["seed"], result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{len(runs)} runs; seeds {[r[0] for r in runs]}; "
          f"all correct: {all(r[1] for r in runs)}; "
          f"failed/attempted: {sum(r[3] for r in runs)}/{sum(r[2] for r in runs)}")
    print("| metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
