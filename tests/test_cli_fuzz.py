"""Fuzz test of the command line: one hostile input value never crashes it.

Each example copies ``tests/data/mini``, replaces one JSON value or one
delimited-table cell with a hostile value (not-a-number, an infinity, a
200k-character string, a value of the wrong type or an empty value), and runs
``validate`` and ``report`` on the copy. Each run must succeed (exit 0), fail
validation (1) or report an input error (2); an internal error (3) or a
Python traceback is a fault in teamnets.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from teamnets.cli import main

MINI = Path(__file__).parent / "data" / "mini"
FILES = sorted(p.relative_to(MINI).as_posix() for p in MINI.rglob("*") if p.is_file())
LONG = "x" * 200_000
JSON_VALUES = (
    float("nan"), float("inf"), float("-inf"), LONG, "", None, True, 7, 1.5, -1, "abc", [], {},
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
    """(file name under mini, its new text) with one value or cell replaced."""
    name = draw(st.sampled_from(FILES))
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
        for command in (["validate"], ["report", "--out", f"{tmp}/out"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command, "--config", str(work / "config.json")])
            assert code in (0, 1, 2), err.getvalue()[-2000:]
            assert "Traceback" not in err.getvalue()
