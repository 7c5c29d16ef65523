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
    "diagnostics.is_gamma_point": "the per-point gamma predicate; unit tests only",
    "diagnostics.refine_step": "the refinement round, a step of the paper; unit tests only",
    "diagnostics.SparseInvariant.initial": "starts the refinement round's invariant",
    "fileio.dump_points": "writer of the points format, for round-trip tests",
    "regions.FlatBundle.check_alignment": "the 10-degree hypothesis of combine, not yet reported",
    "regions.Region.contains_interior": "one point against a region; verify_regions builds the test once per region",
}


def _references(paths):
    """The names the files load bare or import by name, the names they
    load as attributes, and the names they load as Class.name, or as
    cls.name inside Class, each as "Class.name"."""
    bare, attrs, through_class = set(), set(), set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    through_class.add(node.value.id + "." + node.attr)
            elif isinstance(node, ast.ImportFrom):
                bare.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ClassDef):
                through_class.update(
                    node.name + "." + sub.attr
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "cls"
                )
    return bare, attrs, through_class


def _public_names(module):
    """Public module-level functions, classes and constants of
    stlab.<module>, and the public methods of its public classes, each
    with whether it is a classmethod or staticmethod."""
    with open(os.path.join(SRC, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    decorators = {getattr(d, "id", None) for d in sub.decorator_list}
                    yield node.name + "." + sub.name, bool(decorators & {"classmethod", "staticmethod"})
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, False) for t in targets if isinstance(t, ast.Name) and t.id[0] != "_")


def test_every_public_name_has_a_caller():
    root = os.path.join(HERE, os.pardir)
    bare, attrs, through_class = _references(
        glob.glob(os.path.join(SRC, "*.py"))
        + glob.glob(os.path.join(root, "perfbench", "*.py"))
        + [os.path.join(HERE, "test_acceptance.py")]
    )
    uncalled = {
        "%s.%s" % (module, name)
        for module in MODULES
        for name, on_class in _public_names(module)
        # a method is used only as an attribute, and a classmethod only
        # through its class; a local variable of its name does not call it
        if not (
            name in through_class
            if on_class
            else name.rsplit(".", 1)[-1] in (attrs if "." in name else bare | attrs)
        )
    }
    assert uncalled == set(UNCALLED)
    assert all(reason.strip() for reason in UNCALLED.values())


def test_no_module_imports_a_name_it_never_loads():
    # an import of __future__ is a compiler directive, not a name
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        imported, loaded = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        unused += ["%s: %s" % (os.path.basename(path), name) for name in imported if name not in loaded]
    assert unused == []
