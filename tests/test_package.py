import ast
import glob
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import stlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(stlab.__path__))
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src", "stlab")


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


# public names that nothing in src/, tests/test_acceptance.py or perfbench/
# uses, each with the reason it stays in src/
UNCALLED = {
    "diagnostics.apply_map_system": "image of a system under a linear map; unit tests only",
    "diagnostics.is_gamma_point": "the per-point gamma predicate; unit tests only",
    "diagnostics.refine_step": "the refinement round, a step of the paper; unit tests only",
    "diagnostics.SparseInvariant.initial": "starts the refinement round's invariant",
    "directions.DIR_I": "the direction i, named beside DIR_ZERO, DIR_ONE and DIR_INF",
    "exact.intersect_lines": "meet of two complex lines; unit tests only",
    "exact.embed_r4": "tau, the identification of C^2 with R^4; unit tests only",
    "exact.embed_flat": "tau of a complex line, a flat of R^4; unit tests only",
    "fileio.dump_points": "writer of the points format, for round-trip tests",
    "fileio.loads": "reads any format from a string, for the fuzz tests",
    "regions.FlatBundle.check_alignment": "the 10-degree hypothesis of combine, not yet reported",
}


def _references(paths):
    """Every name a file loads, bare or as an attribute, or imports by name."""
    used = set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _public_names(module):
    """Public module-level functions, classes and constants of
    stlab.<module>, and the public methods of its public classes."""
    with open(os.path.join(SRC, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield node.name + "." + sub.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name) and t.id[0] != "_")


def test_every_public_name_has_a_caller():
    root = os.path.join(HERE, os.pardir)
    used = _references(
        glob.glob(os.path.join(SRC, "*.py"))
        + glob.glob(os.path.join(root, "perfbench", "*.py"))
        + [os.path.join(HERE, "test_acceptance.py")]
    )
    uncalled = {
        "%s.%s" % (module, name)
        for module in MODULES
        for name in _public_names(module)
        if name.rsplit(".", 1)[-1] not in used
    }
    assert uncalled == set(UNCALLED)
    assert all(reason.strip() for reason in UNCALLED.values())
