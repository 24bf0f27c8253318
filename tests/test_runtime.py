"""The installed runtime needs numpy only: no code path imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_scipy():
    proc = run_python("import sys, diffstop.cli; "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # the panel rule is written out, so no start-up pays for this package
    proc = run_python("import sys, diffstop.cli; "
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
