"""Every exported name resolves: stale names left after a deletion fail here.

Each module's ``__all__`` is checked with ``getattr``, and each name that
``teamnets/__init__.py`` imports is read from its source with ``ast`` and
looked up in the module it names. The package's sources are also read with
``ast`` to check that one function decodes every JSON input, that one
function opens raw file descriptors and no input path is looked up before it
is opened, that one function pairs the points of every correlation cell,
that one function forks, that neither ``multiprocessing`` nor ``select`` is
imported, that one function takes a season worker's result, that every
command's per-team step and every parser call lives in ``report``, that every
function that counts takes the Diagnostics it counts into, and that the
config format's defaults are written once, in ``config._read_config``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import teamnets
from teamnets.config import AnomalyThresholds, PipelineConfig, load_config

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


def _callers(name: str) -> list[str]:
    """Each call of ``name`` (``module.function`` or a bare function name) in
    the package's sources, named by the innermost function whose lines hold it."""
    callers = []
    for path in sorted(Path(teamnets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _dotted(node.func) == name
        ]
        for call in calls:
            owner = max(
                (f for f in functions if f.lineno <= call.lineno <= f.end_lineno),
                key=lambda f: f.lineno,
                default=None,
            )
            callers.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    return callers


def _dotted(func: ast.expr) -> str | None:
    """A called name as written: ``f`` or ``module.f``; None for any other callee."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def test_one_function_decodes_json():
    """json.loads is called in one function of the package, so every JSON
    input has the same error rules."""
    assert sorted(set(_callers("json.loads"))) == ["ingestion.load_json"]


def test_one_function_opens_file_descriptors():
    """os.open is called in one function of the package, load_json's byte
    reader, which closes every descriptor it opens."""
    assert _callers("os.open") == ["ingestion._read_bytes"]


def test_no_input_path_is_looked_up_before_it_is_opened():
    """Each input file's own open and reads decide what it is: require_file is
    gone, and neither ingestion nor config asks a path whether it is a file, a
    directory or there at all."""
    package = Path(teamnets.__file__).parent
    defined = [
        node.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert "require_file" not in defined
    lookups = [
        f"{name}:{node.lineno}"
        for name in ("ingestion.py", "config.py")
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("is_file", "exists", "is_dir")
    ]
    assert lookups == []


def test_one_function_pairs_correlation_points():
    """pearson is called in one function of the package, the report's _cell,
    so every correlation cell pairs its (team, sprint) points the same way."""
    assert _callers("pearson") == ["report._cell"]


def test_one_function_forks():
    """os.fork is called in one function of the package, and none of
    multiprocessing, select and logging is imported anywhere: the season
    stage is the only process pool, it reads each team's result from its
    worker's pipe in team order, with no multiplexing, and a team's
    diagnostics are the one channel for what its step reports."""
    assert _callers("os.fork") == ["report.season_stage"]
    imported = []
    for path in sorted(Path(teamnets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
    assert [m for m in imported if m.split(".")[0] in ("multiprocessing", "select", "logging")] == []


def test_one_function_takes_team_results():
    """A team's raw step result is taken in one function, the season stage,
    which gives every command (team, value) pairs; no module exports the taker."""
    assert sorted(set(_callers("_team_result"))) == ["report.season_stage"]
    exports = {m: getattr(importlib.import_module(m), "__all__", ()) for m in MODULES}
    assert [m for m, names in exports.items() if "team_result" in names] == []


def _source(module: str) -> ast.Module:
    return ast.parse((Path(teamnets.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))


def test_one_function_parses_the_tables():
    """Each of the three table parsers is called in one function,
    report.parse_tables, so the pipeline and validate parse them alike."""
    for parser in ("parse_outcomes", "parse_feedback", "parse_work_logs"):
        assert _callers(parser) == ["report.parse_tables"], parser


def test_every_step_and_parser_call_is_in_report():
    """Every command passes season_stage a function defined in report.py, and
    a team's chat and repo are parsed only there, where the tests patch the
    parsers; the command line imports no parser from ingestion."""
    defined = {n.name for n in _source("report").body if isinstance(n, ast.FunctionDef)}
    steps = [
        (f"{path.stem}:{node.lineno}", _dotted(node.args[1]))
        for path in sorted(Path(teamnets.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _dotted(node.func) == "season_stage"
    ]
    assert len(steps) == 4
    assert [where for where, step in steps if step not in defined] == []
    parses = _callers("parse_chat_edges") + _callers("parse_repo_weeks")
    assert parses and {c.split(".")[0] for c in parses} == {"report"}
    from_ingestion = [
        alias.name
        for node in ast.walk(_source("cli"))
        if isinstance(node, ast.ImportFrom) and node.module == "ingestion"
        for alias in node.names
    ]
    assert from_ingestion == ["Diagnostics"]


def test_every_counter_takes_the_callers_diagnostics():
    """No parser or scorer builds a Diagnostics of its own, and no parameter
    of the package defaults one: a function that counts counts into the
    Diagnostics its caller passes."""
    built = [c for c in _callers("Diagnostics") if c.split(".")[0] in ("ingestion", "stc")]
    assert built == []
    optional = []
    for path in sorted(Path(teamnets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for arg in positional + a.kwonlyargs:
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                if "Diagnostics" in annotation and (
                    annotation != "Diagnostics" or arg in defaulted
                ):
                    optional.append(f"{path.stem}.{node.name}({arg.arg}: {annotation})")
    assert optional == []


def test_config_defaults_are_written_once():
    """PipelineConfig is built in one function, config._read_config, which
    holds the config format's defaults; the dataclass declares none, and the
    anomaly fractions are written only in AnomalyThresholds."""
    assert _callers("PipelineConfig") == ["config._read_config"]
    defaulted = [
        f.name
        for f in dataclasses.fields(PipelineConfig)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    ]
    assert defaulted == []
    tree = _source("config")
    thresholds = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "AnomalyThresholds"
    )
    inside = {id(n) for n in ast.walk(thresholds)}
    fractions = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in (0.2, 0.3) and id(node) not in inside
    ]
    assert fractions == []


def test_config_without_options_reads_the_defaults(mini_dir, tmp_path):
    """A config that leaves out ``options`` and ``excluded_handles`` reads
    each option's default from _read_config."""
    raw = json.loads((mini_dir / "config.json").read_text())
    del raw["options"], raw["excluded_handles"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = load_config(path)
    assert config.anomaly == AnomalyThresholds()
    assert config.exclude_teams == ()
    assert config.excluded_handles == ()
    assert config.include_lagged_table is False
    assert config.self_dependency is True
