"""Fuzz test of the command line: one hostile input value never crashes it.

Each example copies ``tests/data/mini``, replaces one JSON value or one
delimited-table cell of one file with a hostile value (not-a-number, an
infinity, a 200k-character string, a NUL, a lone surrogate, a value of the
wrong type or an empty value), and runs ``validate``, ``census`` and
``report`` on the copy. The file is drawn by input kind (the config, a repo
file, each table, a day file), so the config is mutated as often as all day
files together. Each run must succeed (exit 0), fail validation (1) or
report an input error (2); an internal error (3) or a Python traceback is a
fault in teamnets.

A second, exhaustive test walks every value of ``mini``'s config, its
containers and the config itself included, with each option at its default:
a value of another JSON type is an input error (exit 2) naming the value's
path, and a number out of range is a validation failure (exit 1). A third
walks every value of ``mini``'s ``repo_alpha.json`` the same way, through
``parse_repo_weeks`` itself.

A fourth draws a structural fault of one input file: the config, a chat day
file, a repo file, each of the three tables, or ``report.json`` read back by
``load_report``. The file becomes a directory, a FIFO, a link to
``/dev/zero``, a sparse file over the 64 MiB input cap, bytes that are not
UTF-8, a truncated or empty file, deeply nested JSON, or JSON with a repeated
key (not for day files and tables). With 1 or 2 workers, ``report`` must fail
validation (1) or the input (2) with the file named, at once, with no worker
left.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teamnets.cli import main
from teamnets.config import load_config
from teamnets.errors import InputError, ValidationError
from teamnets.ingestion import Diagnostics, parse_repo_weeks
from teamnets.report import emit, load_report, run_pipeline

MINI = Path(__file__).parent / "data" / "mini"
FILES = sorted(p.relative_to(MINI).as_posix() for p in MINI.rglob("*") if p.is_file())


def _kind(name: str) -> str:
    if name.startswith("chat/"):
        return "day file"
    return "repo file" if name.startswith("repo_") else name


# mini's files by input kind: the config, the repo files, each table, and the
# day files, which all stand for one kind.
KINDS = {k: [f for f in FILES if _kind(f) == k] for k in sorted({_kind(f) for f in FILES})}

LONG = "x" * 200_000
JSON_VALUES = (
    float("nan"), float("inf"), float("-inf"), LONG, "", None, True, 7, 1.5, -1, "abc", [], {},
    "\u0000", "\ud800",  # a NUL and a lone surrogate: JSON spells both
)
CELL_VALUES = ("nan", "inf", "-inf", LONG, "", "abc", "1.5", "-1")


def _json_paths(node, path=()):
    """The path of every value in a JSON document, the document's own included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _json_paths(child, (*path, i))


@st.composite
def mutations(draw):
    """(file name under mini, its new text) with one value or cell replaced;
    each input kind is drawn as often, so the config is not one file in 17."""
    name = draw(st.sampled_from(KINDS[draw(st.sampled_from(list(KINDS)))]))
    text = (MINI / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        doc = json.loads(text)
        path = draw(st.sampled_from(list(_json_paths(doc))))
        value = draw(st.sampled_from(JSON_VALUES))
        if not path:
            return name, json.dumps(value)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return name, json.dumps(doc)
    rows = list(csv.reader(io.StringIO(text)))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(CELL_VALUES))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return name, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutations())
def test_one_hostile_value_never_crashes_the_cli(mutation):
    name, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "mini"
        shutil.copytree(MINI, work)
        (work / name).write_text(text, encoding="utf-8")
        for command in (["validate"], ["census", "--out", f"{tmp}/census"],
                        ["report", "--out", f"{tmp}/out"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command, "--config", str(work / "config.json")])
            assert code in (0, 1, 2), err.getvalue()[-2000:]
            assert "Traceback" not in err.getvalue()


# One value of each JSON type; an integral float such as 1.0 would be read as
# an integer, so a number stands for both.
JSON_TYPES = {
    "null": None, "boolean": True, "number": 7, "string": "abc", "array": [], "object": {},
}
# Where null means absent, as "" does.
NULL_MEANS_ABSENT = {("feedback",), ("outcomes",)}


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array", dict: "object"}[type(value)]


def _path_name(path, root: str) -> str:
    """The path as errors name it, such as calendar.weeks[0].week_id; the
    document itself is named ``root``."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name or root


def _mini_config() -> dict:
    config = json.loads((MINI / "config.json").read_text(encoding="utf-8"))
    config["options"] = {
        "anomaly_top_fraction": 0.2,
        "anomaly_bottom_fraction": 0.3,
        "exclude_teams": [],
        "include_lagged_table": False,
        "self_dependency": True,
    }
    return config


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run_validate(work: Path, config) -> tuple[int, str]:
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", "--config", str(cfg)])
    return code, err.getvalue()


CONFIG_PATHS = list(_json_paths(_mini_config()))


@pytest.mark.parametrize(
    "path", CONFIG_PATHS, ids=[_path_name(p, "config") for p in CONFIG_PATHS]
)
def test_config_value_of_another_type_names_its_path(path, tmp_path):
    work = tmp_path / "mini"
    shutil.copytree(MINI, work)
    config = _mini_config()
    own = _json_type(_at(config, path))
    cfg = work / "config.json"
    for kind, value in JSON_TYPES.items():
        if kind == own or (kind == "null" and path in NULL_MEANS_ABSENT):
            continue
        code, err = _run_validate(work, _replaced(config, path, value))
        assert code == 2, (kind, err)
        name = _path_name(path, "config")
        assert err.startswith(f"input error: {cfg}: {name} must be "), (kind, err)
    if own == "number":  # below every id and every fraction
        code, err = _run_validate(work, _replaced(config, path, -1))
        assert code == 1, err
        assert err.startswith("validation failure: "), err


# A NUL, a lone surrogate and a NUL inside text: JSON spells each one.
HOSTILE_STRINGS = {"nul": "\u0000", "surrogate": "\ud800", "inner-nul": "a\u0000b"}
CONFIG_LEAVES = [p for p in CONFIG_PATHS if not isinstance(_at(_mini_config(), p), (dict, list))]


@pytest.mark.parametrize("value", HOSTILE_STRINGS.values(), ids=HOSTILE_STRINGS.keys())
def test_hostile_string_in_any_config_leaf_never_crashes(value, tmp_path):
    """The string in each leaf of mini's config in turn, as a path, a handle,
    a team id, a date or in place of a number: validate and report exit 0, 1
    or 2, never 3."""
    work = tmp_path / "mini"
    shutil.copytree(MINI, work)
    cfg = work / "config.json"
    crashed = []
    for path in CONFIG_LEAVES:
        cfg.write_text(json.dumps(_replaced(_mini_config(), path, value)), encoding="utf-8")
        for command in (["validate"], ["report", "--out", str(tmp_path / "out")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command, "--config", str(cfg)])
            if code not in (0, 1, 2) or "Traceback" in err.getvalue():
                crashed.append((_path_name(path, "config"), command[0], err.getvalue()[-500:]))
    assert crashed == []


REPO_DOC = json.loads((MINI / "repo_alpha.json").read_text(encoding="utf-8"))
REPO_PATHS = list(_json_paths(REPO_DOC))


@pytest.mark.parametrize(
    "path", REPO_PATHS, ids=[_path_name(p, "repo activity") for p in REPO_PATHS]
)
def test_repo_value_of_another_type_names_its_path(path, tmp_path):
    config = load_config(MINI / "config.json")
    roster = next(t.roster for t in config.teams if t.team_id == "alpha")
    node = REPO_DOC
    for key in path:
        node = node[key]
    own = _json_type(node)
    repo = tmp_path / "repo_alpha.json"
    for kind, value in JSON_TYPES.items():
        if kind == own or (kind == "number" and path[-1:] == ("id",)):  # an integer id is valid
            continue
        repo.write_text(json.dumps(_replaced(REPO_DOC, path, value)), encoding="utf-8")
        with pytest.raises(InputError) as err:
            parse_repo_weeks(repo, roster, config.calendar, Diagnostics())
        name = _path_name(path, "repo activity")
        assert str(err.value).startswith(f"{repo}: {name} must be "), (kind, str(err.value))


INPUTS = ("config", "day file", "repo file", "feedback", "outcomes", "work_logs", "report.json")
FAULTS = (
    "directory", "FIFO", "endless device", "over the cap", "not UTF-8", "truncated", "empty",
    "deep nesting", "repeated key",
)
TABLES = ("feedback", "outcomes", "work_logs")


@functools.cache
def _mini_report_json() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        emit(run_pipeline(load_config(MINI / "config.json")), "structured-data", tmp)
        return (Path(tmp) / "report.json").read_bytes()


def _input_file(work: Path, kind: str, team: int) -> Path:
    """The file of ``kind`` in a copy of mini whose config adds a work log;
    ``team`` picks alpha's or beta's day file and repo file."""
    config = json.loads((work / "config.json").read_text(encoding="utf-8"))
    config["work_logs"] = "work_logs.csv"
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (work / "work_logs.csv").write_text("team_id,hours\nalpha,4\nbeta,2.5\n", encoding="utf-8")
    (work / "report.json").write_bytes(_mini_report_json())
    entry = sorted(config["teams"], key=lambda t: t["team_id"])[team]
    return {
        "config": work / "config.json",
        "day file": sorted((work / entry["chat_export"]).glob("*/*.json"))[0],
        "repo file": work / entry["repo_activity"],
        "feedback": work / "feedback.csv",
        "outcomes": work / "outcomes.csv",
        "work_logs": work / "work_logs.csv",
        "report.json": work / "report.json",
    }[kind]


@st.composite
def structural_faults(draw):
    """(input kind, team index, fault, the drawn byte position for the faults
    that take one)."""
    kind = draw(st.sampled_from(INPUTS))
    repeatable = kind not in ("day file", *TABLES)
    fault = draw(st.sampled_from([f for f in FAULTS if repeatable or f != "repeated key"]))
    return kind, draw(st.integers(0, 1)), fault, draw(st.floats(0, 1, exclude_max=True))


def _apply(path: Path, kind: str, fault: str, where: float) -> None:
    if fault == "over the cap":
        os.truncate(path, 2**31)  # sparse: it takes no disk
        return
    data = path.read_bytes()
    if fault in ("directory", "FIFO", "endless device"):
        path.unlink()
        {"directory": path.mkdir, "FIFO": lambda: os.mkfifo(path),
         "endless device": lambda: path.symlink_to("/dev/zero")}[fault]()
        return
    if fault == "not UTF-8":
        at = int(where * len(data))
        data = data[:at] + b"\xff" + data[at + 1:]
    elif fault == "truncated":
        if kind in TABLES:  # within the last row, before its last delimiter: a cell short
            body = data.rstrip(b"\n")
            start, end = body.rfind(b"\n") + 2, body.rfind(b",")
        else:  # any proper prefix of an object or array is malformed JSON
            start, end = 1, len(data.rstrip()) - 1
        data = data[:start + int(where * (end - start + 1))]
    elif fault == "empty":
        data = b""
    elif fault == "deep nesting":
        data = b"[" * 100_000 + b"]" * 100_000
    else:
        data = data.replace(b"{", b'{"k": 0, "k": 0, ', 1)
    path.write_bytes(data)


# monkeypatch and within are set up once, and every example sets what it uses.
@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(structural_faults(), st.sampled_from([1, 2]))
def test_structural_fault_names_the_file(monkeypatch, within, fault_case, workers):
    kind, team, fault, where = fault_case
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "mini"
        shutil.copytree(MINI, work)
        path = _input_file(work, kind, team)
        _apply(path, kind, fault, where)
        if kind == "report.json":
            with pytest.raises((InputError, ValidationError)) as err, within(10):
                load_report(path)
            assert str(path) in str(err.value)
            return
        err = io.StringIO()
        argv = ["report", "--config", str(work / "config.json"), "--out", f"{tmp}/out",
                "--format", "structured-data"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with within(10):
                code = main(argv)
        assert code in (1, 2), err.getvalue()[-2000:]
        assert str(path) in err.getvalue(), err.getvalue()[-2000:]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
