"""Smoke test of the benchmark's traced path.

``perfbench/tracer.py`` wraps pipeline functions by the names their callers
look them up by, and some of its hooks read the wrapped call's arguments or
result. A function that keeps a traced name but changes its arguments or its
result's shape would crash the traced benchmark run; these tests run every
subcommand on the mini season with every wrapper installed. Each census the
wrappers record is checked against the reference algorithm the tracer names
for it, so the pipeline's closed-form census is compared with enumeration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import teamnets.triad
from teamnets.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def traced_run(argv: list[str]) -> Tracer:
    """Run the command line with the tracer installed; it must exit 0 and
    every census the tracer saw must equal its reference."""
    tracer = Tracer()
    with tracer.installed():
        assert main(argv) == 0
    for net, census, reference in tracer.censuses:
        assert census == getattr(teamnets.triad, reference)(net)
    return tracer


def test_traced_report_runs_and_censuses_agree(mini_dir, tmp_path):
    tracer = traced_run(
        ["report", "--config", str(mini_dir / "config.json"), "--out", str(tmp_path)]
    )
    assert tracer.censuses, "the tracer recorded no census"
    assert "triad_census" in {reference for _, _, reference in tracer.censuses}


@pytest.mark.parametrize(
    "args",
    [
        ["validate"],
        ["stc", "--out", "{out}"],
        ["census", "--out", "{out}"],
        ["correlate", "--out", "{out}"],
        ["report", "--format", "structured-data", "--out", "{out}"],
    ],
    ids=lambda args: "-".join(a for a in args if a != "{out}" and not a.startswith("--")),
)
def test_traced_subcommand_runs(mini_dir, tmp_path, args):
    command, *rest = (a.replace("{out}", str(tmp_path / "out")) for a in args)
    traced_run([command, "--config", str(mini_dir / "config.json"), *rest])
