"""Smoke test of the benchmark's traced path.

``perfbench/tracer.py`` wraps pipeline functions by the names their callers
look them up by, and some of its hooks read the wrapped call's arguments. A
function that keeps a traced name but changes its arguments would crash the
traced benchmark run; this test runs ``teamnets report`` on the mini season
with every wrapper installed. Each census the wrappers record is checked
against the reference algorithm the tracer names for it, so the pipeline's
closed-form census is compared with enumeration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import teamnets.triad
from teamnets.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_traced_report_runs_and_censuses_agree(mini_dir, tmp_path):
    tracer = Tracer()
    with tracer.installed():
        code = main(["report", "--config", str(mini_dir / "config.json"), "--out", str(tmp_path)])
    assert code == 0
    assert tracer.censuses, "the tracer recorded no census"
    for net, census, reference in tracer.censuses:
        assert census.counts == getattr(teamnets.triad, reference)(net).counts
    assert "triad_census" in {reference for _, _, reference in tracer.censuses}
