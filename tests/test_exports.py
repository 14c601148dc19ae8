"""Every exported name resolves: stale names left after a deletion fail here.

Each module's ``__all__`` is checked with ``getattr``, and each name that
``teamnets/__init__.py`` imports is read from its source with ``ast`` and
looked up in the module it names.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import teamnets

MODULES = sorted(
    f"teamnets.{m.name}"
    for m in pkgutil.iter_modules(teamnets.__path__)
    if m.name != "__main__"  # running it starts the command line
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(teamnets.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module("." * node.level + (node.module or ""), "teamnets")
        missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []
