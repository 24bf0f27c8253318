"""Byte-identity corpus of the command line.

Each record in ``tests/golden/`` holds one command of ``CASES``: its argv,
exit code, stdout, stderr, every file it wrote and the warnings it raised.
The test replays every record in-process through ``diffstop.cli.main`` and
compares the bytes exactly.  Run as a script, this module re-records the
whole corpus with the same capture function:

    python tests/test_golden.py

A change that alters output on purpose re-records, and the diff of
``tests/golden/`` shows what moved.
"""

import contextlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from diffstop.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
VERSIONS = GOLDEN / "recorded_with.json"
OUT = "{out}"       # stands for the output directory, in argv and in output


def _sweep_bound(flag, bad):
    bounds = {"--alpha-from": "0.1", "--alpha-to": "0.3", "--step": "0.1",
              flag: bad}
    return ("sweep", "--c", "1", *[f"{k}={v}" for k, v in bounds.items()])


CASES = {
    # fundamental
    "fundamental-csv": ("fundamental", "--alpha", "0.5", "--c", "1", "--from",
                        "-1", "--to", "1", "--points", "5"),
    "fundamental-default": ("fundamental", "--alpha", "0.5"),
    "fundamental-json": ("fundamental", "--alpha", "0.5", "--c", "1",
                         "--format", "json", "--points", "3"),
    "fundamental-json-out": ("fundamental", "--alpha", "0.25", "--c", "2",
                             "--x0", "0.5", "--format", "json", "--points", "7",
                             "--out", f"{OUT}/f.json"),
    "fundamental-mu": ("fundamental", "--mu", "-0.3", "--alpha", "0.5",
                       "--points", "9"),
    "fundamental-reflected": ("fundamental", "--family", "reflected_killed_bm",
                              "--alpha", "1", "--x0", "0.5", "--from", "0",
                              "--to", "3", "--points", "7", "--format", "json"),
    "fundamental-drift-bm": ("fundamental", "--family", "drift_bm", "--mu",
                             "-0.3", "--alpha", "0.5", "--points", "7"),
    "fundamental-drift-bm-zero-alpha": ("fundamental", "--family", "drift_bm",
                                        "--mu", "-0.5", "--alpha", "0",
                                        "--points", "5"),
    "fundamental-points-0": ("fundamental", "--alpha", "0.5", "--points", "0"),
    "fundamental-points-1": ("fundamental", "--alpha", "0.5", "--points", "1"),
    "fundamental-green-underflow": ("fundamental", "--alpha", "200", "--x0",
                                    "-30", "--from", "30", "--to", "34",
                                    "--points", "2"),
    "fundamental-psi-overflow": ("fundamental", "--alpha", "200", "--from",
                                 "40", "--to", "41"),
    "fundamental-phi-overflow-json": ("fundamental", "--alpha", "200", "--from",
                                      "-41", "--to", "-40", "--format", "json"),
    "fundamental-points-negative": ("fundamental", "--alpha", "0.5",
                                    "--points", "-1"),
    "fundamental-bad-family": ("fundamental", "--alpha", "0.5", "--family",
                               "absorbing_bm"),
    "fundamental-drift-bm-zero-mu": ("fundamental", "--family", "drift_bm",
                                     "--alpha", "0.5"),
    "fundamental-no-alpha": ("fundamental",),
    # solve
    "solve-0.5": ("solve", "--alpha", "0.5", "--c", "1"),
    "solve-0.25": ("solve", "--alpha", "0.25", "--c", "1"),
    "solve-0.3": ("solve", "--alpha", "0.3", "--c", "1"),
    "solve-0.7-out": ("solve", "--alpha", "0.7", "--c", "2", "--out",
                      f"{OUT}/r.json"),
    "solve-1e6": ("solve", "--alpha", "1e6", "--c", "1"),
    "solve-samples-0.1": ("solve", "--alpha", "0.1", "--c", "1",
                          "--samples-out", f"{OUT}/v.csv"),
    "solve-samples-0.25": ("solve", "--alpha", "0.25", "--c", "1",
                           "--samples-out", f"{OUT}/v.csv"),
    "solve-samples-range": ("solve", "--alpha", "0.5", "--c", "1",
                            "--samples-out", f"{OUT}/v.csv", "--from", "-2",
                            "--to", "2", "--points", "9"),
    "solve-samples-1e6": ("solve", "--alpha", "1e6", "--c", "1",
                          "--samples-out", f"{OUT}/v.csv"),
    "solve-samples-2.5e5": ("solve", "--alpha", "2.5e5", "--c", "1",
                            "--samples-out", f"{OUT}/v.csv"),
    "solve-negative-alpha": ("solve", "--alpha", "-0.5", "--c", "1"),
    "solve-alpha-missing-value": ("solve", "--alpha"),
    "solve-points-negative": ("solve", "--alpha", "0.5", "--samples-out",
                              f"{OUT}/unused.csv", "--points", "-1"),
    # sweep
    "sweep-csv": ("sweep", "--c", "1", "--alpha-from", "0.05", "--alpha-to",
                  "0.7", "--step", "0.05"),
    "sweep-json": ("sweep", "--c", "1", "--alpha-from", "0.1", "--alpha-to",
                   "0.3", "--step", "0.1", "--format", "json"),
    "sweep-out": ("sweep", "--c", "0.5", "--alpha-from", "0.1", "--alpha-to",
                  "1", "--step", "0.3", "--out", f"{OUT}/s.csv"),
    "sweep-step-0": ("sweep", "--c", "1", "--alpha-from", "0.1", "--alpha-to",
                     "0.2", "--step", "0"),
    "sweep-step-1e-20": ("sweep", "--c", "1", "--alpha-from", "0.1",
                         "--alpha-to", "0.2", "--step", "1e-20"),
    "sweep-rows-over-limit": ("sweep", "--c", "1", "--alpha-from", "0.05",
                              "--alpha-to", "0.7", "--step", "1e-12"),
    **{f"sweep{flag[1:]}-{bad}": _sweep_bound(flag, bad)
       for flag in ("--alpha-from", "--alpha-to", "--step")
       for bad in ("nan", "inf", "-inf")},
    # plot-data
    "plot-data-out": ("plot-data", "--alpha", "0.1", "--c", "1", "--out",
                      f"{OUT}/p.csv"),
    "plot-data-stdout": ("plot-data", "--alpha", "0.6", "--c", "2", "--from",
                         "-0.5", "--to", "1", "--points", "11"),
    "plot-data-two-alphas": ("plot-data", "--alpha", "0.1", "--alpha", "0.25",
                             "--c", "1", "--points", "21", "--out",
                             f"{OUT}/t_{{alpha}}.csv"),
    "plot-data-no-placeholder": ("plot-data", "--alpha", "0.1", "--alpha",
                                 "0.25", "--c", "1"),
    "plot-data-points-negative": ("plot-data", "--alpha", "0.5", "--points",
                                  "-1"),
    # measure: every candidate and kind at one setting, then the families
    **{f"measure-{cand}-{kind}": ("measure", "--candidate", cand, "--alpha",
                                  "0.5", "--c", "1", "--kind", kind)
       for cand in ("green", "psi", "phi", "value")
       for kind in ("martin", "riesz")},
    "measure-value-riesz-0.1": ("measure", "--candidate", "value", "--alpha",
                                "0.1", "--kind", "riesz"),
    "measure-value-martin-x0": ("measure", "--candidate", "value", "--alpha",
                                "0.25", "--x0", "1"),
    "measure-phi-out": ("measure", "--candidate", "phi", "--alpha", "0.3",
                        "--c", "2", "--x0", "-0.4", "--out", f"{OUT}/m.json"),
    "measure-mu-phi-riesz": ("measure", "--mu", "-0.3", "--candidate", "phi",
                             "--alpha", "0.5", "--kind", "riesz"),
    "measure-mu-green": ("measure", "--mu", "-0.3", "--candidate", "green",
                         "--alpha", "0.25", "--y0", "-0.5"),
    "measure-reflected-psi-riesz": ("measure", "--family",
                                    "reflected_killed_bm", "--candidate", "psi",
                                    "--alpha", "1", "--x0", "0.2", "--kind",
                                    "riesz"),
    "measure-reflected-green": ("measure", "--family", "reflected_killed_bm",
                                "--candidate", "green", "--alpha", "1", "--y0",
                                "0.07", "--x0", "0.85"),
    "measure-drift-bm-psi": ("measure", "--family", "drift_bm", "--mu", "-0.3",
                             "--candidate", "psi", "--alpha", "0.5"),
    "measure-value-drift": ("measure", "--mu", "-0.3", "--candidate", "value",
                            "--alpha", "0.5"),
    "measure-value-reflected": ("measure", "--family", "reflected_killed_bm",
                                "--candidate", "value", "--alpha", "0.5"),
    "measure-bad-candidate": ("measure", "--candidate", "cosine", "--alpha",
                              "0.5"),
    # verify
    **{f"verify-{alpha}": ("verify", "--alpha", alpha, "--c", "1", "--window",
                           "-6", "6", "--n", "4001")
       for alpha in ("0.1", "0.25", "0.5")},
    "verify-wide": ("verify", "--alpha", "2", "--c", "1", "--window", "-200",
                    "200", "--n", "8001"),
    "verify-out": ("verify", "--alpha", "0.5", "--n", "501", "--out",
                   f"{OUT}/o.json"),
    "verify-n-2": ("verify", "--alpha", "0.5", "--n", "2"),
    "verify-drift": ("verify", "--alpha", "0.5", "--c", "1", "--mu", "-0.2"),
    # alpha (alpha + 2 (up + down)) overflows, so the edge roots are formed
    # in units of alpha
    "verify-alpha-1e200": ("verify", "--alpha", "1e200", "--c", "1", "--window",
                           "-6", "6", "--n", "201"),
    "verify-alpha-nan": ("verify", "--alpha", "nan", "--c", "1", "--window",
                         "-6", "6", "--n", "201"),
    # the parser
    "no-command": (),
    "unknown-command": ("no-such-command",),
}


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


def capture(argv):
    """Run ``main(argv)`` in-process, with ``OUT`` standing for a fresh
    directory, and return what it did as a record."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main([arg.replace(OUT, tmp) for arg in argv])
            except SystemExit as exc:
                code = exc.code
        files = {path.relative_to(tmp).as_posix(): path.read_bytes().decode()
                 for path in sorted(Path(tmp).rglob("*")) if path.is_file()}

    def lines(text):
        return text.replace(tmp, OUT).split("\n")

    return {
        "argv": list(argv),
        "exit": code,
        "stdout": lines(out.getvalue()),
        "stderr": lines(err.getvalue()),
        "files": {name: lines(text) for name, text in files.items()},
        "warnings": [f"{w.category.__name__}: {w.message}".replace(tmp, OUT)
                     for w in caught],
    }


def _first_difference(expected, actual):
    """Where two line lists first differ: (line number, expected, actual)."""
    missing = "<no such line>"
    for i in range(max(len(expected), len(actual))):
        old = expected[i] if i < len(expected) else missing
        new = actual[i] if i < len(actual) else missing
        if old != new:
            return i + 1, old, new
    return None


def difference(expected, actual):
    """A message naming the first part of the records that differs, or None."""
    for key in ("argv", "exit"):
        if expected[key] != actual[key]:
            return f"{key}: recorded {expected[key]!r}, got {actual[key]!r}"
    parts = [(stream, expected[stream], actual[stream])
             for stream in ("stdout", "stderr", "warnings")]
    old_files, new_files = expected["files"], actual["files"]
    if sorted(old_files) != sorted(new_files):
        return f"files written: recorded {sorted(old_files)}, got {sorted(new_files)}"
    parts += [(f"file {name}", old_files[name], new_files[name])
              for name in sorted(old_files)]
    for part, old, new in parts:
        found = _first_difference(old, new)
        if found:
            line, old_line, new_line = found
            return (f"{part}, line {line}:\n  recorded: {old_line!r}\n"
                    f"  got:      {new_line!r}")
    return None


def _load(path):
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay(name):
    expected = _load(GOLDEN / f"{name}.json")
    found = difference(expected, capture(CASES[name]))
    assert found is None, (f"golden record {name!r} differs in {found}\n"
                           f"recorded with {_load(VERSIONS)}\n"
                           f"running      {versions()}")


def test_corpus_holds_exactly_the_cases():
    on_disk = {p.stem for p in GOLDEN.glob("*.json") if p != VERSIONS}
    assert on_disk == set(CASES)


def test_difference_names_the_first_differing_line():
    record = capture(("fundamental", "--alpha", "0.5", "--points", "3"))
    assert difference(record, record) is None
    changed = json.loads(json.dumps(record))
    changed["stdout"][2] = changed["stdout"][2] + "0"
    assert difference(record, changed) == (
        f"stdout, line 3:\n  recorded: {record['stdout'][2]!r}\n"
        f"  got:      {changed['stdout'][2]!r}")
    del changed["stdout"][2:]
    assert "line 3" in difference(record, changed)
    assert "<no such line>" in difference(record, changed)


def record():
    """Re-record every case, dropping records of cases no longer listed."""
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(capture(argv), indent=1) + "\n")
    VERSIONS.write_text(json.dumps(versions(), indent=1) + "\n")


if __name__ == "__main__":
    record()
    print(f"recorded {len(CASES)} commands in {GOLDEN}", file=sys.stderr)
