"""Public names: every `__all__` entry resolves, and every package re-export is listed.

A stale `__all__` entry breaks `from qredshift.<module> import *`; a name
that `qredshift/__init__.py` re-exports without its module listing it is
public by accident.
"""

import ast
import importlib
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


def test_reexports_are_listed_in_their_module():
    tree = ast.parse(Path(qredshift.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert len(imports) >= 5
    unlisted = []
    for node in imports:
        source = importlib.import_module(f"qredshift.{node.module}")
        unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in source.__all__]
    assert unlisted == []
