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
    if module in ("exact", "incidence", "covering"):
        assert "numpy" not in loaded
    if module == "incidence":
        assert loaded == {"stlab.exact", "stlab.incidence"}
