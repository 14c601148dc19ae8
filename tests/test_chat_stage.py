"""The season chat stage: forked workers give exactly the serial result.

The worker count is the CPU count this process may use, capped at the number
of teams; these tests force it by patching ``os.sched_getaffinity``, which
the count reads, and count the workers through a patched ``os.fork``. Each
command's exit code, stdout, stderr and output tree with 2 and 3 workers
must equal the in-process run with 1, also under faults in several teams,
and no worker may outlive a command.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import threading
from pathlib import Path

import pytest

import teamnets.report
from teamnets.cli import main
from teamnets.synthetic import make_season

COMMANDS = [
    ["validate"],
    ["stc"],
    ["census"],
    ["correlate"],
    ["report"],
    ["report", "--format", "structured-data"],
]
COMMAND_IDS = ["validate", "stc", "census", "correlate", "report", "report-structured"]


@pytest.fixture(scope="module")
def five_teams(tmp_path_factory) -> Path:
    """A small generated season of five teams, A to E."""
    root = tmp_path_factory.mktemp("five")
    make_season(root, seed=5, n_teams=5, members_per_team=4, n_weeks=8,
                messages_per_team=300, mrs_per_team=20)
    return root


@pytest.fixture()
def forks(monkeypatch) -> list[int]:
    """The pids of the processes forked while the test runs."""
    pids: list[int] = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture(autouse=True)
def no_hang():
    """A command that waits on a worker for over a minute fails the test."""

    def timeout(signum, frame):
        raise TimeoutError("the command did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree(root: Path) -> dict[str, bytes] | None:
    if not root.is_dir():
        return None
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def run(monkeypatch, capsys, tmp_path, config: Path, command: list[str], workers: int):
    """Exit code, stdout, stderr and output tree of one command with the CPU
    count forced to ``workers``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    name, *rest = command
    argv = [name, "--config", str(config), *rest]
    if name != "validate":
        argv += ["--out", str(out)]
    capsys.readouterr()
    code = main(argv)
    stdout, stderr = capsys.readouterr()
    assert_no_child_left()
    return code, stdout, stderr, tree(out)


def copy_season(source: Path, tmp_path: Path) -> Path:
    work = tmp_path / "season"
    shutil.copytree(source, work)
    return work


def team_chat_root(season: Path, index: int) -> Path:
    config = json.loads((season / "config.json").read_text(encoding="utf-8"))
    team = sorted(config["teams"], key=lambda t: t["team_id"])[index]
    return season / team["chat_export"]


def first_day_file(chat_root: Path) -> Path:
    return sorted(chat_root.glob("*/*.json"))[0]


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize("season", ["mini", "team7", "five"])
def test_workers_give_the_serial_result(
    season, command, mini_dir, team7_dir, five_teams, tmp_path, monkeypatch, capsys, forks
):
    config = {"mini": mini_dir, "team7": team7_dir, "five": five_teams}[season] / "config.json"
    n_teams = len(json.loads(config.read_text(encoding="utf-8"))["teams"])
    serial = run(monkeypatch, capsys, tmp_path, config, command, 1)
    assert forks == []
    assert serial[0] == 0, serial[2]
    for workers in (2, 3):
        forks.clear()
        assert run(monkeypatch, capsys, tmp_path, config, command, workers) == serial
        # one team, as in team7, is one worker: parsed in-process
        assert len(forks) == (min(workers, n_teams) if n_teams > 1 else 0)


def test_first_error_in_serial_order_wins(five_teams, tmp_path, monkeypatch, capsys, forks):
    """A bad repo file in team 1 and a malformed day file in team 3 of four:
    every command reports what the serial order reaches first, and census,
    which reads no repo file, reports the day file."""
    work = copy_season(five_teams, tmp_path)
    config = json.loads((work / "config.json").read_text(encoding="utf-8"))
    config["teams"] = config["teams"][:4]
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    repo = work / sorted(config["teams"], key=lambda t: t["team_id"])[0]["repo_activity"]
    repo.write_text("[]", encoding="utf-8")
    day_file = first_day_file(team_chat_root(work, 2))
    day_file.write_text("[{", encoding="utf-8")
    config_path = work / "config.json"
    for command in COMMANDS:
        serial = run(monkeypatch, capsys, tmp_path, config_path, command, 1)
        assert serial[0] == 2
        named = day_file if command == ["census"] else repo
        assert f"input error: {named}: " in serial[2]
        for workers in (2, 3):
            assert run(monkeypatch, capsys, tmp_path, config_path, command, workers) == serial
    assert forks


def test_validation_failure_in_a_worker_keeps_later_teams(
    five_teams, tmp_path, monkeypatch, capsys, forks
):
    """A duplicate ts in team 2's chat fails validate for that team only; the
    later teams' lines and every counter match the serial run."""
    work = copy_season(five_teams, tmp_path)
    day_file = first_day_file(team_chat_root(work, 1))
    messages = json.loads(day_file.read_text(encoding="utf-8"))
    kept = next(m for m in messages if m.get("user") and not m.get("subtype"))
    day_file.write_text(json.dumps(messages + [kept]), encoding="utf-8")
    config_path = work / "config.json"
    serial = run(monkeypatch, capsys, tmp_path, config_path, ["validate"], 1)
    code, stdout, stderr, _ = serial
    assert code == 1
    assert f"team B: VALIDATION FAILURE: {day_file}: " in stderr
    assert [line.split(":")[0] for line in stdout.splitlines() if line.startswith("team")] == [
        "team A", "team C", "team D", "team E"
    ]
    assert "messages_seen" in stdout
    for workers in (2, 3):
        assert run(monkeypatch, capsys, tmp_path, config_path, ["validate"], workers) == serial
    assert forks


def test_worker_killed_mid_parse_is_internal_error(
    mini_dir, tmp_path, monkeypatch, capsys, forks
):
    real_parse = teamnets.report.parse_chat_edges

    def parse_or_die(export_root, roster, *args):
        if roster.team_id == "beta":
            os._exit(9)
        return real_parse(export_root, roster, *args)

    monkeypatch.setattr(teamnets.report, "parse_chat_edges", parse_or_die)
    code, _, stderr, _ = run(
        monkeypatch, capsys, tmp_path, mini_dir / "config.json", ["report"], 2
    )
    assert len(forks) == 2
    assert code == 3
    assert stderr.startswith(
        "internal error: RuntimeError: chat worker of team beta ended with exit code 9"
        " before sending its result\n"
    )


def test_error_raised_in_a_worker_is_internal_error(
    mini_dir, tmp_path, monkeypatch, capsys, forks
):
    def crash(export_root, roster, *args):
        raise KeyError("boom")

    monkeypatch.setattr(teamnets.report, "parse_chat_edges", crash)
    code, _, stderr, _ = run(monkeypatch, capsys, tmp_path, mini_dir / "config.json", ["stc"], 2)
    assert len(forks) == 2
    assert code == 3
    assert stderr.startswith(
        "internal error: RuntimeError: chat worker of team alpha: KeyError: 'boom'\n"
    )


@pytest.mark.parametrize("why", ["thread", "no-fork", "one-cpu"])
def test_stage_runs_in_process(why, mini_dir, tmp_path, monkeypatch, capsys, forks):
    """With another thread running, without os.fork or with one CPU, the
    stage forks nothing and gives the same result."""
    config = mini_dir / "config.json"
    expected = run(monkeypatch, capsys, tmp_path, config, ["report"], 2)
    assert len(forks) == 2
    forks.clear()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    workers = 2
    if why == "thread":
        thread.start()
    elif why == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        workers = 1
    try:
        assert run(monkeypatch, capsys, tmp_path, config, ["report"], workers) == expected
    finally:
        stop.set()
    if why == "thread":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert forks == []


def test_count_falls_back_to_cpu_count(mini_dir, tmp_path, monkeypatch, capsys, forks):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert main(["stc", "--config", str(mini_dir / "config.json"), "--out", str(tmp_path)]) == 0
    assert len(forks) == 2  # one per team of mini
    assert_no_child_left()
