from __future__ import annotations

import contextlib
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from teamnets.config import load_config

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def team7_dir() -> Path:
    return DATA / "team7"


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    return DATA / "mini"


@pytest.fixture()
def within():
    """``within(seconds)``: a block that fails with TimeoutError where it runs
    over ``seconds``, so a read that would wait forever fails the test."""

    @contextlib.contextmanager
    def block(seconds: int):
        def timeout(signum, frame):
            raise TimeoutError(f"the block did not finish within {seconds} s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return block


@pytest.fixture()
def team7_config(team7_dir):
    return load_config(team7_dir / "config.json")


@pytest.fixture()
def mini_config(mini_dir):
    return load_config(mini_dir / "config.json")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in str(nodeid):
                continue
            if outcome != "skipped" and getattr(rep, "when", "call") != "call":
                continue
            rows.append((str(nodeid).split("::")[-1], outcome.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(set(rows)):
            word = "PASS" if outcome == "PASSED" else ("FAIL" if outcome == "FAILED" else outcome)
            terminalreporter.write_line(f"{word}: {name}")
