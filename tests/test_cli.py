"""Command-line interface: schemas, formats, reproducibility, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diffstop.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=120):
    """``python -m diffstop.cli *argv`` in a separate process, so that an
    uncaught error shows as a traceback and a warning as text on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "diffstop.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestSolve:
    def test_report_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--alpha", "0.5", "--c", "1")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"alpha", "c", "x_star", "jump", "sigma_atom",
                            "speed_term", "alpha1", "alpha2", "verdict"}
        assert doc["x_star"] == 0.0
        assert abs(doc["jump"]) <= 1e-12
        assert doc["sigma_atom"] == pytest.approx(1.0, abs=1e-12)
        assert doc["verdict"] == "SmoothFit"

    def test_failing_regime(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--alpha", "0.25", "--c", "1")
        doc = json.loads(out)
        assert doc["verdict"] == "Fails"
        assert doc["jump"] == pytest.approx(math.sqrt(0.5) - 1.0, abs=1e-12)

    def test_large_alpha_exits_cleanly(self):
        proc = run_process("solve", "--alpha", "1e6", "--c", "1")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert math.isfinite(doc["jump"]) and doc["verdict"] == "SmoothFit"

    def test_large_alpha_samples_file(self, capsys, tmp_path):
        # psi(x*) underflows to 0 at this rate, so the samples below x* are
        # taken without dividing by it
        samples = tmp_path / "v.csv"
        code, _, _ = run_cli(capsys, "solve", "--alpha", "1e6", "--c", "1",
                             "--samples-out", str(samples))
        assert code == 0
        rows = [line.split(",") for line in samples.read_text().splitlines()[1:]]
        assert len(rows) > 100
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_samples_file(self, capsys, tmp_path):
        samples = tmp_path / "v.csv"
        code, out, _ = run_cli(capsys, "solve", "--alpha", "0.5", "--c", "1",
                               "--samples-out", str(samples),
                               "--from", "-2", "--to", "2", "--points", "9")
        assert code == 0
        lines = samples.read_text().splitlines()
        assert lines[0] == "x,value,reward"
        assert len(lines) == 10


class TestPlotData:
    def test_t_changes_sign_only_via_the_jump(self, capsys):
        # threshold at the sticky point: no interior root of t
        code, out, _ = run_cli(capsys, "plot-data", "--alpha", "0.25",
                               "--c", "1", "--from", "-0.99", "--to", "2",
                               "--points", "500")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,t,s,value,reward"
        xs, ts = [], []
        for line in lines[1:]:
            parts = line.split(",")
            xs.append(float(parts[0]))
            ts.append(float(parts[1]))
        for x, t in zip(xs, ts):
            if x < 0:
                assert t < 0
            elif x > 0:
                assert t > 0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "plot-data", "--alpha", "0.1",
                                 "--c", "1", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multiple_alphas_need_placeholder(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "plot-data", "--alpha", "0.1",
                               "--alpha", "0.25", "--c", "1")
        assert code == 1
        assert "error" in json.loads(err)
        out_tpl = str(tmp_path / "t_{alpha}.csv")
        code, _, _ = run_cli(capsys, "plot-data", "--alpha", "0.1",
                             "--alpha", "0.25", "--c", "1", "--out", out_tpl)
        assert code == 0
        assert (tmp_path / "t_0.10000000000000001.csv").exists()


class TestSweep:
    def test_verdict_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--c", "1",
                               "--alpha-from", "0.05", "--alpha-to", "0.7",
                               "--step", "0.05")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,x_star,jump,sigma_atom,verdict"
        failing = []
        for line in lines[1:]:
            parts = line.split(",")
            if parts[-1] == "Fails":
                failing.append(round(float(parts[0]), 10))
        expected = [round(0.05 * k, 10) for k in range(4, 10)]   # 0.20 .. 0.45
        assert failing == expected

    def test_alpha_ascending_and_json(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--c", "1",
                               "--alpha-from", "0.1", "--alpha-to", "0.3",
                               "--step", "0.1", "--format", "json")
        entries = json.loads(out)
        alphas = [e["alpha"] for e in entries]
        assert alphas == sorted(alphas)
        assert len(alphas) == 3


class TestMeasureAndVerify:
    def test_measure_green_doc(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--candidate", "green",
                               "--alpha", "0.5", "--c", "1", "--y0", "0.7")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"kind", "x0", "normalization", "total_mass",
                            "mass_left_boundary", "mass_right_boundary",
                            "atoms", "tail_samples"}
        assert doc["kind"] == "martin"
        assert len(doc["atoms"]) == 1
        assert doc["atoms"][0]["location"] == 0.7
        assert doc["atoms"][0]["weight"] == pytest.approx(1.0, abs=1e-10)

    def test_measure_riesz_value(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--candidate", "value",
                               "--alpha", "0.5", "--c", "1", "--kind", "riesz")
        doc = json.loads(out)
        assert doc["kind"] == "riesz"
        raw = doc["atoms"][0]["weight"] * doc["normalization"]
        assert raw == pytest.approx(1.0, abs=1e-9)   # sigma({0}) at alpha = 1/2

    @pytest.mark.parametrize("argv", [
        ("--mu", "-0.3", "--candidate", "phi", "--alpha", "0.5"),
        ("--family", "reflected_killed_bm", "--candidate", "psi", "--alpha", "1",
         "--x0", "0.2"),
    ])
    def test_measure_riesz_harmonic_candidates(self, capsys, argv):
        # the Riesz measure of psi or phi has no interior mass; its tail
        # samples are finite rounding-level numbers
        code, out, _ = run_cli(capsys, "measure", *argv, "--kind", "riesz")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "riesz" and doc["atoms"] == []
        values = [v for side in ("left", "right") for _, v in doc["tail_samples"][side]]
        assert len(values) == 130
        assert all(math.isfinite(v) and abs(v) <= 1e-10 for v in values)

    def test_verify_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alpha", "0.5", "--c", "1",
                               "--window", "-6", "6", "--n", "501")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"window", "n", "alpha", "c", "sup_error",
                            "jump_estimate", "iterations", "residual"}
        assert doc["sup_error"] <= 5e-2
        assert doc["n"] == 501

    def test_verify_rejects_drift(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--alpha", "0.5", "--c", "1",
                               "--mu", "-0.2")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DiffstopError"


class TestFundamental:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "fundamental", "--alpha", "0.5",
                               "--c", "1", "--from", "-1", "--to", "1",
                               "--points", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,psi,phi,green_x0"
        assert len(lines) == 6
        mid = lines[3].split(",")   # x = 0
        assert float(mid[1]) == 1.0 and float(mid[2]) == 1.0
        assert float(mid[3]) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_json_meta(self, capsys):
        code, out, _ = run_cli(capsys, "fundamental", "--alpha", "0.5",
                               "--c", "1", "--format", "json", "--points", "3")
        doc = json.loads(out)
        assert doc["wronskian"] == pytest.approx(3.0, abs=1e-13)
        assert len(doc["rows"]) == 3

    def test_overflow_exits_one_without_warning(self):
        # psi = exp(20 x) at alpha = 200 overflows a float past x ~ 35.5
        proc = run_process("fundamental", "--alpha", "200", "--from", "40",
                           "--to", "41")
        assert proc.returncode == 1 and proc.stdout == ""
        err = json.loads(proc.stderr)["error"]     # no warning text around it
        assert err["type"] == "DomainError"
        assert err["message"].startswith("psi not finite at x=40.0")
        proc = run_process("fundamental", "--alpha", "200", "--from", "-41",
                           "--to", "-40", "--format", "json")
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["message"].startswith(
            "phi not finite at x=-41.0")

    def test_green_underflow_is_valid_output(self, capsys):
        # G(-30, x) = psi(-30) phi(x) / w underflows to 0; psi and phi are finite
        code, out, _ = run_cli(capsys, "fundamental", "--alpha", "200", "--x0",
                               "-30", "--from", "30", "--to", "34", "--points", "2")
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert [r[3] for r in rows] == [0.0, 0.0]
        assert all(math.isfinite(v) and v > 0.0 for r in rows for v in r[1:3])


class TestErrorPaths:
    def test_numeric_failure_exits_one_with_json(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--alpha", "-0.5", "--c", "1")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "ParameterError"

    def test_flag_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha"])          # missing value
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("fundamental", "--alpha", "0.5"),
        ("plot-data", "--alpha", "0.5"),
        ("solve", "--alpha", "0.5", "--samples-out", "unused.csv"),
    ])
    def test_negative_points_is_flag_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--points", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--points: must be nonnegative" in err

    @pytest.mark.parametrize("flag", ["--alpha-from", "--alpha-to", "--step"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sweep_bounds_rejected(self, capsys, flag, bad):
        # an infinite --alpha-to would make the sweep grow without end
        bounds = {"--alpha-from": "0.1", "--alpha-to": "0.3", "--step": "0.1",
                  flag: bad}
        code, out, err = run_cli(capsys, "sweep", "--c", "1",
                                 *[f"{k}={v}" for k, v in bounds.items()])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "DiffstopError"

    def test_sweep_step_that_cannot_advance_rejected(self):
        # 0.1 + 1e-20 == 0.1 in floats, so the sweep would repeat 0.1 until
        # memory ran out; a separate process, so that a hang is a timeout
        proc = run_process("sweep", "--c", "1", "--alpha-from", "0.1",
                           "--alpha-to", "0.2", "--step", "1e-20", timeout=10)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["type"] == "DiffstopError"

    def test_sweep_over_row_limit_rejected(self, capsys):
        # 0.65 / 1e-12 steps all advance, so the sweep would build ~6.5e11
        # rows until memory ran out; the row count is refused up front
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--c", "1", "--alpha-from",
                                 "0.05", "--alpha-to", "0.7", "--step", "1e-12")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DiffstopError"
        assert "6.5e+11 rows" in error["message"]

    def test_bad_family_is_numeric_error(self, capsys):
        code, _, err = run_cli(capsys, "fundamental", "--alpha", "0.5",
                               "--family", "absorbing_bm")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ParameterError"

    @pytest.mark.parametrize("command", ["solve", "plot-data"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_alpha_stops_at_the_stopping_check(self, command, bad):
        # a separate process, so that a warning shows on stderr
        proc = run_process(command, "--alpha", bad, "--c", "1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr) == {"error": {
            "type": "ParameterError", "message": "alpha and c must be positive"}}
