"""Public names: every `__all__` entry resolves, has one home, and every package re-export is listed.

A stale `__all__` entry breaks `from qredshift.<module> import *`; a name
that `qredshift/__init__.py` re-exports without its module listing it is
public by accident; a class or function that a module lists but imports
from another module gives that name two public homes.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qredshift

MODULES = sorted(info.name for info in pkgutil.iter_modules(qredshift.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qredshift.{name}")
    assert hasattr(module, "__all__"), f"qredshift.{name} has no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"qredshift.{name}.__all__ lists missing names {missing}"
    namespace: dict = {}
    exec(f"from qredshift.{name} import *", namespace)


@pytest.mark.parametrize("name", MODULES)
def test_listed_classes_and_functions_are_defined_in_their_module(name):
    module = importlib.import_module(f"qredshift.{name}")
    values = {attr: getattr(module, attr) for attr in module.__all__}
    foreign = [attr for attr, value in values.items()
               if (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__ != module.__name__]
    assert foreign == [], f"qredshift.{name}.__all__ lists names defined elsewhere: {foreign}"


def test_reexports_are_listed_in_their_module():
    tree = ast.parse(Path(qredshift.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert len(imports) >= 5
    unlisted = []
    for node in imports:
        source = importlib.import_module(f"qredshift.{node.module}")
        unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in source.__all__]
    assert unlisted == []
