"""Every exported name resolves: stale names left after a deletion fail here.

Each module's ``__all__`` is checked with ``getattr``, and each name that
``teamnets/__init__.py`` imports is read from its source with ``ast`` and
looked up in the module it names. The package's sources are also read with
``ast`` to check that one function decodes every JSON input, that one
function forks and that ``multiprocessing`` is imported nowhere.
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


def _callers(module: str, function: str) -> list[str]:
    """Each call of ``module.function`` in the package's sources, named by the
    innermost function whose lines hold it."""
    callers = []
    for path in sorted(Path(teamnets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == function
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == module
        ]
        for call in calls:
            owner = max(
                (f for f in functions if f.lineno <= call.lineno <= f.end_lineno),
                key=lambda f: f.lineno,
                default=None,
            )
            callers.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    return callers


def test_one_function_decodes_json():
    """json.loads is called in one function of the package, so every JSON
    input has the same error rules."""
    assert sorted(set(_callers("json", "loads"))) == ["ingestion.load_json"]


def test_one_function_forks():
    """os.fork is called in one function of the package, and multiprocessing
    is imported nowhere: the season chat stage is the only process pool."""
    assert _callers("os", "fork") == ["report._parse_in_workers"]
    imported = []
    for path in sorted(Path(teamnets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
    assert [m for m in imported if m.split(".")[0] == "multiprocessing"] == []
