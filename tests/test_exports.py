"""Every name the package and its modules export resolves."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import diffkern2d

MODULES = [m.name for m in pkgutil.iter_modules(diffkern2d.__path__)
           if not m.name.startswith("_")]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"diffkern2d.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing


def test_package_reexports_resolve():
    # each `from .module import name` in the package's __init__
    tree = ast.parse(inspect.getsource(diffkern2d))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"diffkern2d.{module}")
        assert getattr(diffkern2d, name) is getattr(source, name)
