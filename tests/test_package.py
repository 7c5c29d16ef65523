import json
import os
import pkgutil
import subprocess
import sys

import pytest

import stlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(stlab.__path__))
HERE = os.path.dirname(os.path.abspath(__file__))


def loaded_by(module):
    """numpy and the stlab modules a fresh interpreter holds after
    importing stlab.<module> alone."""
    code = (
        "import importlib, sys\n"
        "importlib.import_module('stlab.%s')\n"
        "print(*(m for m in sys.modules if m == 'numpy' or m.startswith('stlab.')))\n" % module
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, os.pardir, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_package_exports_nothing():
    # an imported submodule becomes an attribute of the package
    assert not [n for n in vars(stlab) if not n.startswith("__") and n not in MODULES]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    loaded = loaded_by(module)
    assert "stlab." + module in loaded
    assert "numpy" not in loaded
    if module == "incidence":
        assert loaded == {"stlab.exact", "stlab.incidence"}


NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from stlab.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit("exit status not 0: %s" % args)
"""


def test_cli_runs_without_numpy(tmp_path):
    bundle, regions = str(tmp_path / "bundle.txt"), str(tmp_path / "regions.txt")
    runs = [
        ["verify"],
        ["dirs", "cover-sphere", "--delta", "90", "--check-samples", "2000"],
        ["gen", "bundle", "--m", "27", "--per-point", "1", "--spread", "5", "--seed", "4",
         "--out", bundle],
        ["combine", "--bundle", bundle, "--r", "1", "--out", regions],
        ["verify", "--regions", regions, "--bundle", bundle],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, os.pardir, "src"))
    out = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, json.dumps(runs)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert "self-check failures: 0" in out.stdout and "max_gap=" in out.stdout
