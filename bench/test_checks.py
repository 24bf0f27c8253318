"""The benchmark's checks pass on the program's results and fail on perturbed ones.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py
Each test runs real operations once (cold CLI processes for the cli-cold
checks), then hands the same check a result with one field perturbed and
expects that check, by name, to fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import Checks  # noqa: E402
from tracing import NullTracer  # noqa: E402

SEED = 1


def failing(op, result) -> set[str]:
    checks = Checks()
    op.check(result, checks)
    return {name for name, margin in checks.by_name.items() if margin <= 0.0}


def ops_named(workload, *prefixes):
    return [op for op in workload.ops if any(op.label.startswith(p) for p in prefixes)]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def one_sided():
    work = workloads.oracle_one_sided(SEED, NullTracer())
    picked = [op for op in work.ops if "n=4001" in op.label]
    return [(op, op.run()) for op in picked]


@pytest.fixture(scope="module")
def two_sided():
    work = workloads.oracle_two_sided(SEED, NullTracer())
    op = max(work.ops, key=lambda op: float(op.label.split("alpha=")[1].split()[0]))
    return op, op.run()


def test_oracle_results_pass(one_sided, two_sided):
    for op, result in [*one_sided, two_sided]:
        assert failing(op, result) == set(), op.label
    assert {op.label.split()[-1] for op, _ in one_sided} == {"x*>0", "x*=0", "x*<0"}


@pytest.mark.parametrize("field, shift, name", [
    ("sup_error", 0.02, "oracle1.sup_error"),
    ("jump_estimate", 0.01, "oracle1.jump"),
    ("stopping_boundary", 0.01, "oracle1.boundary"),
    ("stopping_boundary", -0.01, "oracle1.boundary"),
])
def test_oracle_report_perturbed(one_sided, field, shift, name):
    for op, (chain, sol, rep) in one_sided:
        bad = dataclasses.replace(rep, **{field: getattr(rep, field) + shift})
        assert name in failing(op, (chain, sol, bad)), op.label


def test_oracle_residual_perturbed(one_sided):
    op, (chain, sol, rep) = one_sided[0]
    bad = dataclasses.replace(sol, residual=2e-10)
    assert "oracle1.residual" in failing(op, (chain, bad, rep))


def test_two_sided_boundaries_perturbed(two_sided):
    op, (chain, sol, rep) = two_sided
    bad = dataclasses.replace(rep, stopping_boundary=rep.stopping_boundary + 0.01)
    assert "oracle2.boundary" in failing(op, (chain, sol, bad))
    # lift the values just outside the left boundary above the reward
    values = sol.values.copy()
    above = np.nonzero(values > chain.reward + 1e-6)[0]
    values[above.min() - 4:above.min()] += 1e-3
    bad = dataclasses.replace(sol, values=values)
    assert "oracle2.left_boundary" in failing(op, (chain, bad, rep))


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def representation_ops():
    work = workloads.representation(SEED, NullTracer())
    picked = ops_named(work, "value x*=0", "value x*>0", "green pole left",
                       "phi mu=0.000", "reflected-killed phi")
    assert len(picked) == 5
    return [(op, op.run()) for op in picked]


def test_representation_results_pass(representation_ops):
    for op, result in representation_ops:
        assert failing(op, result) == set(), op.label


def _perturb(result, index, value):
    out = list(result)
    out[index] = value
    return tuple(out)


def test_measures_perturbed(representation_ops):
    for op, result in representation_ops:
        nu, sigma = result[0], result[1]
        bad = dataclasses.replace(nu, total_mass=nu.total_mass + 1e-6)
        assert "martin.total_mass" in failing(op, _perturb(result, 0, bad)), op.label
        bad = dataclasses.replace(nu, mass_left_boundary=nu.mass_left_boundary + 1e-6)
        assert "martin.mass_left" in failing(op, _perturb(result, 0, bad)), op.label
        moved = tuple((z + 0.5, w) for z, w in nu.atoms) or ((0.5, 0.1),)
        bad = dataclasses.replace(nu, atoms=moved)
        assert "martin.atoms.locations" in failing(op, _perturb(result, 0, bad)), op.label
        if sigma.atoms:
            heavier = tuple((z, w * (1.0 + 1e-6)) for z, w in sigma.atoms)
            bad = dataclasses.replace(sigma, atoms=heavier)
            assert "riesz.atoms.weights" in failing(op, _perturb(result, 1, bad)), op.label


def test_reconstruct_and_jumps_perturbed(representation_ops):
    for op, result in representation_ops:
        recon, jumps = result[2], result[3]
        bad = list(recon)
        bad[3] *= 1.0 + 1e-6
        assert "reconstruct" in failing(op, _perturb(result, 2, bad)), op.label
        if jumps:
            for field, name in (("jump", "jump.value"), ("sigma_atom", "jump.sigma_atom"),
                                ("residual", "jump.residual")):
                bad = [dataclasses.replace(dj, **{field: getattr(dj, field) + 1e-6})
                       for dj in jumps]
                assert name in failing(op, _perturb(result, 3, bad)), (op.label, field)


def test_documents_perturbed(representation_ops):
    from diffstop import measure_from_doc

    for op, result in representation_ops:
        docs = result[4]
        for kind, (doc, back) in docs.items():
            # a rebuilt measure whose samples moved
            moved = json.loads(json.dumps(doc))
            for pair in moved["tail_samples"]["right"][1:]:
                pair[1] += 1e-6
            rebuilt = measure_from_doc(moved, spec_of(back))
            bad = dict(docs)
            bad[kind] = (doc, rebuilt)
            assert f"doc.{kind}.round_trip" in failing(op, _perturb(result, 4, bad)), \
                (op.label, kind)
            # a rebuilt measure that lost its atoms
            stripped = json.loads(json.dumps(doc))
            stripped["atoms"] = [{"location": 0.25, "weight": 0.5}]
            rebuilt = measure_from_doc(stripped, spec_of(back))
            bad[kind] = (doc, rebuilt)
            assert f"doc.{kind}.atoms" in failing(op, _perturb(result, 4, bad)), \
                (op.label, kind)
            if kind == "riesz":
                wrong = json.loads(json.dumps(doc))
                for pair in wrong["tail_samples"]["left"][:-1]:
                    pair[1] += 1e-6
                bad[kind] = (wrong, back)
                assert "doc.riesz.ac_samples" in failing(op, _perturb(result, 4, bad)), \
                    op.label


def spec_of(measure):
    """A diffusion on the measure's interval, which is all measure_from_doc reads."""
    from diffstop import make_reflected_killed_bm, make_sticky_bm
    return make_reflected_killed_bm() if measure.interval_left == 0.0 else make_sticky_bm()


def test_excessivity_perturbed(representation_ops):
    for op, result in representation_ops:
        exc, control = result[5], result[6]
        bad = dataclasses.replace(exc, passed=False, max_violation=1e-3)
        names = failing(op, _perturb(result, 5, bad))
        assert {"excessivity.passed", "excessivity.violation"} <= names, op.label
        if control is not None:
            bad = dataclasses.replace(control, passed=True)
            assert "excessivity.reward_rejected" in failing(op, _perturb(result, 6, bad))
    assert any(result[6] is not None for _, result in representation_ops)


# ---------------------------------------------------------------------------
# cold command line
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_outputs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = workloads.cli_cold(SEED, NullTracer(), env, str(ROOT))
    return [(op, op.run()) for op in work.ops]


def _sub(op):
    return op.label.split()[1]


def test_cli_outputs_pass_and_repeat(cli_outputs):
    checks = Checks()
    for op, out in cli_outputs:
        op.check(out, checks)
        op.check(out, checks)           # a byte-identical repeat
    assert checks.passed, checks.failures
    assert "cli.byte_identical" in checks.by_name


def test_cli_repeat_that_differs_fails(cli_outputs):
    op, out = cli_outputs[0]
    checks = Checks()
    op.check(out, checks)
    op.check(out + b" ", checks)
    assert checks.by_name["cli.byte_identical"] < 0


def _json_perturbed(out: bytes, key: str, delta) -> bytes:
    doc = json.loads(out)
    doc[key] = doc[key] + delta if not isinstance(doc[key], str) else delta
    return json.dumps(doc, indent=2).encode() + b"\n"


@pytest.mark.parametrize("sub, key, delta, name", [
    ("solve", "x_star", 1e-9, "cli.solve.x_star"),
    ("solve", "jump", 1e-6, "cli.solve.jump"),
    ("solve", "sigma_atom", 1e-6, "cli.solve.sigma_atom"),
    ("solve", "alpha1", 1e-9, "cli.solve.alpha1"),
    ("verify", "jump_estimate", 1e-2, "cli.verify.jump"),
    ("verify", "sup_error", 0.02, "cli.verify.sup_error"),
    ("verify", "residual", 2e-10, "cli.verify.residual"),
    ("measure", "x0", 1e-6, "cli.measure.x0"),
    ("measure", "normalization", 1e-6, "cli.measure.normalization"),
    ("measure", "mass_right_boundary", 1e-6, "cli.measure.boundary_mass"),
])
def test_cli_json_perturbed(cli_outputs, sub, key, delta, name):
    op, out = next((op, out) for op, out in cli_outputs if _sub(op) == sub)
    assert name in failing(op, _json_perturbed(out, key, delta))


def test_cli_verdicts_perturbed(cli_outputs):
    op, out = next((op, out) for op, out in cli_outputs if _sub(op) == "solve")
    flipped = "Fails" if json.loads(out)["verdict"] == "SmoothFit" else "SmoothFit"
    assert "cli.solve.verdict" in failing(op, _json_perturbed(out, "verdict", flipped))
    op, out = next((op, out) for op, out in cli_outputs if _sub(op) == "sweep")
    text = out.decode()
    swapped = text.replace("SmoothFit", "X").replace("Fails", "SmoothFit").replace("X", "Fails")
    assert "cli.sweep.verdict" in failing(op, swapped.encode())


@pytest.mark.parametrize("sub, column, name", [
    ("plot-data", 1, "cli.plot.t"),
    ("plot-data", 2, "cli.plot.s"),
    ("plot-data", 3, "cli.plot.value"),
    ("plot-data", 4, "cli.plot.reward"),
    ("fundamental", 1, "cli.fundamental.psi"),
    ("fundamental", 2, "cli.fundamental.phi"),
    ("fundamental", 3, "cli.fundamental.green"),
    ("sweep", 1, "cli.sweep.x_star"),
    ("sweep", 2, "cli.sweep.jump"),
])
def test_cli_csv_perturbed(cli_outputs, sub, column, name):
    op, out = next((op, out) for op, out in cli_outputs if _sub(op) == sub)
    lines = out.decode().splitlines()
    cells = lines[5].split(",")
    cells[column] = repr(float(cells[column]) + 1e-6)
    lines[5] = ",".join(cells)
    assert name in failing(op, ("\n".join(lines) + "\n").encode())


def test_cli_measure_atoms_perturbed(cli_outputs):
    op, out = next((op, out) for op, out in cli_outputs if _sub(op) == "measure")
    doc = json.loads(out)
    doc["atoms"] = doc["atoms"] + [{"location": 0.37, "weight": 0.1}]
    assert "cli.measure.atoms.locations" in failing(op, json.dumps(doc).encode())
    doc = json.loads(out)
    for pair in doc["tail_samples"]["right"][1:]:
        pair[1] *= 1.0 + 1e-6
    assert "doc.riesz.ac_samples" in failing(op, json.dumps(doc).encode())
