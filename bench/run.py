"""Benchmark diffstop end to end (untraced) or layer by layer (traced).

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold, oracle-one-sided, oracle-two-sided, representation.
The package is imported from ``src/``; nothing needs installing.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
seed, the environment and the per-check margins.  A copy of both goes to
``.bench_out/``.  See bench/README.md for the metrics and reference figures.
"""

from __future__ import annotations

import os

# every measured process runs with one BLAS thread; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3          # cold set-ups per run; setup_s is their median
START_PROBES = 5          # cold interpreter / import probes per traced run


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def timed_child(args: list[str], env: dict) -> float:
    """Wall time of one child python process; raises if it fails."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=str(ROOT),
                          capture_output=True, timeout=150)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
    return elapsed


def setup_probe(workload: str, seed: int) -> int:
    """Child mode: import diffstop and build the workload's inputs, then exit."""
    import diffstop  # noqa: F401  (the import is the point)
    import workloads
    from tracing import NullTracer

    workloads.build(workload, seed, NullTracer(), child_env(), str(ROOT))
    return 0


def environment(seed: int, trace: int) -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def per_layer(tracer, first_round: dict, extra: dict) -> dict:
    """The traced run's layer metrics; counts are per round of inputs."""
    def ms(name, self_time=False):
        return {"value": tracer.median_ms(name, self_time), "unit": "ms"}

    def per_round(name):
        return {"value": first_round.get(name, 0), "unit": "count"}

    metrics = {
        "cli.python_start_ms": {"value": extra["python_start_ms"], "unit": "ms"},
        "cli.import_ms": {"value": extra["import_ms"], "unit": "ms"},
    }
    for sub in ("solve", "sweep", "fundamental", "plot_data", "measure", "verify"):
        metrics[f"cli.{sub}_ms"] = ms(f"cli.{sub}")
    metrics.update({
        "oracle.discretize_ms": ms("oracle.discretize"),
        "oracle.solve_ms": ms("oracle.solve"),
        "oracle.compare_ms": ms("oracle.compare"),
        "oracle.policy_rounds": {"value": extra["policy_rounds"], "unit": "count"},
        "oracle.residual_max": {"value": extra["residual_max"], "unit": "1"},
    })
    for name in ("martin_measure", "riesz_from_martin", "reconstruct", "derivative_jump",
                 "measure_to_doc", "measure_from_doc", "excessivity_check"):
        metrics[f"representation.{name}_ms"] = ms(f"representation.{name}")
    metrics["representation.excessivity_self_ms"] = ms("representation.excessivity_check",
                                                      self_time=True)
    metrics["representation.candidate_evals"] = per_round("diffusion.kernel")
    metrics["stopping.value_function_evals"] = per_round("stopping.value_function")
    metrics["stopping.value_function_ms"] = ms("stopping.value_function")
    metrics["diffusion.kernel_ms"] = ms("diffusion.kernel")
    return metrics


def run(args) -> dict:
    import workloads
    from checks import Checks
    from tracing import NullTracer, Tracer

    env = child_env()
    info = environment(args.seed, args.trace)

    setups = [timed_child([str(BENCH_DIR / "run.py"), "--setup-probe", "--workload",
                           args.workload, "--seed", str(args.seed)], env)
              for _ in range(SETUP_PROBES)]
    extra = {"python_start_ms": 0.0, "import_ms": 0.0, "policy_rounds": 0,
             "residual_max": 0.0}
    if args.trace:
        extra["python_start_ms"] = 1e3 * statistics.median(
            timed_child(["-c", "pass"], env) for _ in range(START_PROBES))
        extra["import_ms"] = 1e3 * statistics.median(
            timed_child(["-c", "import diffstop"], env) for _ in range(START_PROBES))

    tracer = Tracer() if args.trace else NullTracer()
    work = workloads.build(args.workload, args.seed, tracer, env, str(ROOT))
    checks = Checks()
    durations: list[float] = []
    errors: list[str] = []
    attempted = failed = rounds = 0
    first_round = None
    seen = tracer.counts() if args.trace else {}
    start = time.perf_counter()
    round_seconds = []
    while rounds < work.min_rounds or time.perf_counter() - start < args.seconds:
        iterations = []
        busy_before = len(durations)
        for op in work.ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:   # the run goes on; the failure is counted
                failed += 1
                if len(errors) < 10:
                    errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                continue
            durations.append(time.perf_counter() - t0)
            op.check(result, checks)
            if args.workload.startswith("oracle"):
                sol = result[1]
                iterations.append(sol.iterations)
                extra["residual_max"] = max(extra["residual_max"], sol.residual)
        counts = {"policy_rounds": sum(iterations)}
        if args.trace:
            for name, total in tracer.counts().items():
                counts[name] = total - seen.get(name, 0)
                seen[name] = total
        rounds += 1
        round_seconds.append(sum(durations[busy_before:]))
        # every round repeats the same deterministic work
        if first_round is None:
            first_round = counts
        checks.holds("rounds.deterministic", counts == first_round,
                     "iteration or call counts differ between rounds")
    extra["policy_rounds"] = first_round["policy_rounds"]

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    busy = sum(durations)
    if args.trace:
        metrics = per_layer(tracer, first_round, extra)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # closed loop, one client: operations per second of busy time
            "ops_per_s": {"value": len(durations) / busy if busy else 0.0, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(durations) if durations else 0.0,
                          "unit": "ms"},
            "peak_rss_mb": {"value": usage / 1024.0, "unit": "MB"},
            "accuracy_margin_digits": {"value": checks.metric, "unit": "digits"},
        }
    info.update({
        "workload": args.workload,
        "seconds": args.seconds,
        "rounds": rounds,
        "ops_per_round": len(work.ops),
        "attempted": attempted,
        "failed": failed,
        "checks": checks.count,
        "check_failures": checks.failures,
        "worst_check": checks.worst,
        "margins": checks.by_name,
        "op_p50_ms": 1e3 * statistics.median(durations) if durations else None,
        "setup_samples_s": setups,
        "round_seconds": round_seconds,
        "errors": errors,
        "ops": [op.label for op in work.ops],
    })
    if args.trace:
        info["spans"] = tracer.summary()
    return {"info": info,
            "result": {"correct": checks.passed and not checks.failures,
                       "attempted": attempted, "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "diffstop" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no diffstop package under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"one of {', '.join(workloads.NAMES)}\n")
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    out = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
