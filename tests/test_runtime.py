"""The installed runtime needs numpy only: no code path imports scipy.  The
package namespace loads a layer on first use, and each command-line
subcommand loads only the layers it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffstop

SRC = Path(__file__).resolve().parents[1] / "src"

# refuses every scipy import, as an environment without scipy would
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
"""


def run_python(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


# diffstop.cli loads no layer by itself, so these import every one
ALL_LAYERS = "import sys, diffstop.cli; from diffstop import *; "


def test_cli_import_loads_no_scipy():
    proc = run_python(ALL_LAYERS +
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # the panel rule is written out, so no start-up pays for this package
    proc = run_python(ALL_LAYERS +
                      "print(sorted(m for m in sys.modules "
                      "if m.startswith('numpy.polynomial')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked():
    proc = run_python(BLOCK_SCIPY + "import runpy\n"
                      "sys.argv = ['diffstop', *sys.argv[1:]]\n"
                      "runpy.run_module('diffstop.cli', run_name='__main__')\n",
                      "solve", "--alpha", "0.3", "--c", "1")
    assert proc.returncode == 0, proc.stderr
    assert '"verdict"' in proc.stdout


def test_every_public_name_is_its_layers_object():
    for layer, names in diffstop._LAYERS.items():
        module = importlib.import_module(f"diffstop.{layer}")
        for name in names:
            obj = getattr(diffstop, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name   # defined there
    assert set(diffstop.__all__) == {n for names in diffstop._LAYERS.values()
                                     for n in names}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diffstop.no_such_name
    assert not hasattr(diffstop, "_no_such_private")


def test_dir_and_star_import_cover_every_name():
    assert set(diffstop.__all__) <= set(dir(diffstop))
    namespace = {}
    exec("from diffstop import *", namespace)
    assert set(diffstop.__all__) <= set(namespace)


def loaded_after(code):
    proc = run_python(code + "\nimport sys, json\n"
                      "print(json.dumps(sorted(m for m in sys.modules if "
                      "m.startswith('diffstop.') and m != 'diffstop.cli') "
                      "+ ['numpy'] * ('numpy' in sys.modules)), file=sys.stderr)")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_bare_import_loads_no_layer_and_no_numpy():
    assert loaded_after("import diffstop") == set()


def test_layer_attribute_loads_that_layer():
    assert loaded_after("import diffstop\ndiffstop.oracle.discretize") == {
        "diffstop.diffusion", "diffstop.errors", "diffstop.oracle", "numpy"}


BASE = {"diffstop.diffusion", "diffstop.errors", "numpy"}


@pytest.mark.parametrize("argv, extra", [
    (["fundamental", "--alpha", "0.5", "--points", "3"], set()),
    (["solve", "--alpha", "0.3"], {"stopping"}),
    (["sweep", "--alpha-from", "0.1", "--alpha-to", "0.2", "--step", "0.1"],
     {"stopping"}),
    (["plot-data", "--alpha", "0.3", "--points", "3"], {"stopping"}),
    (["measure", "--candidate", "green", "--alpha", "0.5"], {"representation"}),
    (["verify", "--alpha", "0.25", "--n", "201"], {"oracle", "stopping"}),
    (["measure", "--candidate", "value", "--alpha", "0.5"],
     {"representation", "stopping"}),
])
def test_subcommand_loads_only_its_layers(argv, extra):
    code = f"from diffstop.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code) == BASE | {f"diffstop.{m}" for m in extra}
