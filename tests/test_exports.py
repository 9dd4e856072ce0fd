"""Every name the package and its modules export resolves, every
module-level import is used, and every module ships because a command
runs it."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import diffkern2d

MODULES = [m.name for m in pkgutil.iter_modules(diffkern2d.__path__)
           if not m.name.startswith("_")]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"diffkern2d.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing


def test_cli_loads_every_module():
    # test-only code (brute-force references, helpers) lives in tests/, so
    # a fresh process that imports the CLI loads the whole package
    root = str(Path(diffkern2d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([root, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, diffkern2d.cli; print(*sorted(m.split('.', 1)[1] "
            "for m in sys.modules if m.startswith('diffkern2d.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    shipped = {m.name for m in pkgutil.iter_modules(diffkern2d.__path__)} - {"__main__"}
    assert set(out.split()) == shipped


def test_package_reexports_resolve():
    # each `from .module import name` in the package's __init__
    tree = ast.parse(inspect.getsource(diffkern2d))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"diffkern2d.{module}")
        assert getattr(diffkern2d, name) is getattr(source, name)


def _unused_imports(path):
    """Names bound by the module-level imports of ``path`` that nothing in
    the file reads and ``__all__`` does not list."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            listed = set(ast.literal_eval(node.value))
    return sorted(set(bound) - used - listed)


def test_no_unused_module_imports():
    src = Path(diffkern2d.__file__).parent
    files = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(Path(__file__).parent.glob("*.py"))
    unused = {p.name: names for p in files if (names := _unused_imports(p))}
    assert not unused
