"""The season stage: forked workers give exactly the serial result.

The worker count is the CPU count this process may use, capped at the number
of teams; these tests force it by patching ``os.sched_getaffinity``, which
the count reads, and count the workers through a patched ``os.fork``. Each
command's exit code, stdout, stderr and output tree with 2 and 3 workers
must equal the in-process run with 1, also under faults in several teams
and with notes made in the workers, and no worker may outlive a command,
whatever ends it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import teamnets
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


def team_entry(season: Path, index: int) -> dict:
    """The config entry of the season's team ``index``, in team order."""
    config = json.loads((season / "config.json").read_text(encoding="utf-8"))
    return sorted(config["teams"], key=lambda t: t["team_id"])[index]


def team_chat_root(season: Path, index: int) -> Path:
    return season / team_entry(season, index)["chat_export"]


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


@pytest.mark.parametrize("target", ["config", "repo", "day"])
def test_json_nested_too_deeply_is_an_input_error(
    mini_dir, tmp_path, monkeypatch, capsys, target
):
    """JSON nested past the recursion limit, as the config, a repo file or a
    chat day file, is an input error naming the file, for 1 and 2 workers."""
    work = copy_season(mini_dir, tmp_path)
    named = {
        "config": work / "config.json",
        "repo": work / team_entry(work, 0)["repo_activity"],
        "day": first_day_file(team_chat_root(work, 1)),
    }[target]
    named.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for workers in (1, 2):
        code, _, stderr, _ = run(
            monkeypatch, capsys, tmp_path, work / "config.json", ["report"], workers
        )
        assert code == 2
        assert f"input error: {named}: JSON nested too deeply\n" in stderr


@pytest.mark.parametrize("target", ["config", "repo", "day"])
def test_repeated_json_key(mini_dir, tmp_path, monkeypatch, capsys, target):
    """A key given twice in one object of the config (alpha's identity map) or
    a repo file (a commit's sha) is an input error naming the file, for 1 and
    2 workers; a chat day file is not checked, and its last value counts."""
    work = copy_season(mini_dir, tmp_path)
    named, key, first = {
        "config": (work / "config.json", "HA1", '"HA1": '),
        "repo": (work / team_entry(work, 0)["repo_activity"], "sha", '"sha": '),
        "day": (first_day_file(team_chat_root(work, 1)), "ts", '"ts": '),
    }[target]
    text = named.read_text(encoding="utf-8")
    assert first in text
    # The added value comes first, so the file's own value is the last one.
    named.write_text(text.replace(first, f'{first}"ignored", {first}', 1), encoding="utf-8")
    reference = run(monkeypatch, capsys, tmp_path, mini_dir / "config.json", ["report"], 1)
    for workers in (1, 2):
        result = run(monkeypatch, capsys, tmp_path, work / "config.json", ["report"], workers)
        if target == "day":
            assert result[0] == 0 and result[3] == reference[3]
        else:
            assert result[:3] == (
                2, "", f"input error: {named}: key '{key}' given twice in one object\n"
            )


def test_validation_failure_in_a_worker_keeps_later_teams(
    five_teams, tmp_path, monkeypatch, capsys, forks
):
    """A duplicate ts in team 2's chat and a merge request naming an unknown
    commit in team 4's repo fail validate for those teams only, in team order;
    the other teams' lines and every counter match the serial run."""
    work = copy_season(five_teams, tmp_path)
    day_file = first_day_file(team_chat_root(work, 1))
    messages = json.loads(day_file.read_text(encoding="utf-8"))
    kept = next(m for m in messages if m.get("user") and not m.get("subtype"))
    day_file.write_text(json.dumps(messages + [kept]), encoding="utf-8")
    repo = work / team_entry(work, 3)["repo_activity"]
    activity = json.loads(repo.read_text(encoding="utf-8"))
    activity["merge_requests"][0]["commits"].append("no-such-sha")
    repo.write_text(json.dumps(activity), encoding="utf-8")
    config_path = work / "config.json"
    serial = run(monkeypatch, capsys, tmp_path, config_path, ["validate"], 1)
    code, stdout, stderr, _ = serial
    assert code == 1
    chat_failure, repo_failure = stderr.splitlines()
    assert chat_failure.startswith(f"team B: VALIDATION FAILURE: {day_file}: ")
    assert "has duplicate ts" in chat_failure
    mr_id = activity["merge_requests"][0]["id"]
    assert repo_failure == (
        f"team D: VALIDATION FAILURE: {repo}: merge request {mr_id} references unknown "
        "commit sha(s): no-such-sha"
    )
    assert [line.split(":")[0] for line in stdout.splitlines() if line.startswith("team")] == [
        "team A", "team C", "team E"
    ]
    assert "messages_seen" in stdout
    for workers in (2, 3):
        assert run(monkeypatch, capsys, tmp_path, config_path, ["validate"], workers) == serial
    assert forks


# Each command's step reaches the chat parser through teamnets.report, where
# these tests and stall_in_workers patch it: a step that imported the parser
# elsewhere would run unpatched.
@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_worker_killed_mid_parse_is_internal_error(
    command, mini_dir, tmp_path, monkeypatch, capsys, forks
):
    real_parse = teamnets.report.parse_chat_edges

    def parse_or_die(export_root, roster, *args):
        if roster.team_id == "beta":
            os._exit(9)
        return real_parse(export_root, roster, *args)

    monkeypatch.setattr(teamnets.report, "parse_chat_edges", parse_or_die)
    code, _, stderr, _ = run(monkeypatch, capsys, tmp_path, mini_dir / "config.json", command, 2)
    assert len(forks) == 2
    assert code == 3
    assert stderr.startswith(
        "internal error: RuntimeError: season worker of team beta ended with exit code 9"
        " before sending its result\n"
    )


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_error_raised_in_a_worker_is_internal_error(
    command, mini_dir, tmp_path, monkeypatch, capsys, forks
):
    def crash(export_root, roster, *args):
        raise KeyError("boom")

    monkeypatch.setattr(teamnets.report, "parse_chat_edges", crash)
    code, _, stderr, _ = run(monkeypatch, capsys, tmp_path, mini_dir / "config.json", command, 2)
    assert len(forks) == 2
    assert code == 3
    assert stderr.startswith(
        "internal error: RuntimeError: season worker of team alpha: KeyError: 'boom'\n"
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


@pytest.mark.parametrize(
    "command",
    [["validate"], ["stc"], ["report", "--format", "structured-data"]],
    ids=["validate", "stc", "report-structured"],
)
def test_worker_notes_come_in_team_order(
    command, five_teams, tmp_path, monkeypatch, capsys, forks
):
    """A merge request without changed files in teams B and D gives a note
    naming the team in the worker that parses that repo; the stage adds it at
    the team's turn, so validate's stdout, the notes stc and report print on
    stderr and report.json's notes are the serial run's for any worker count,
    each with the notes in B, D order."""
    work = copy_season(five_teams, tmp_path)
    notes = []
    for index in (1, 3):
        entry = team_entry(work, index)
        repo = work / entry["repo_activity"]
        activity = json.loads(repo.read_text(encoding="utf-8"))
        activity["merge_requests"][2]["files"] = []
        repo.write_text(json.dumps(activity), encoding="utf-8")
        mr_id = activity["merge_requests"][2]["id"]
        notes.append(f"team {entry['team_id']}: merge request {mr_id} has no changed files")
    assert [note.split(":")[0] for note in notes] == ["team B", "team D"]
    config_path = work / "config.json"
    serial = run(monkeypatch, capsys, tmp_path, config_path, command, 1)
    code, stdout, stderr, out = serial
    assert code == 0
    if command == ["validate"]:
        assert stderr == ""
        assert "  mrs_with_empty_files: 2\n" in stdout
        assert [line for line in stdout.splitlines() if "no changed files" in line] == [
            f"  note: {note}" for note in notes
        ]
    else:
        assert [line for line in stderr.splitlines() if "no changed files" in line] == [
            f"note: {note}" for note in notes
        ]
    if command[0] == "report":
        report_notes = json.loads(out["report.json"])["notes"]
        assert [note for note in report_notes if "no changed files" in note] == notes
    for workers in (2, 3):
        forks.clear()
        assert run(monkeypatch, capsys, tmp_path, config_path, command, workers) == serial
        assert len(forks) == workers


def stall_in_workers(monkeypatch, *team_ids: str, seconds: float = 30) -> None:
    """Make the chat parse of the named teams hang for ``seconds`` in a forked
    worker; the in-process run parses them at once."""
    parent = os.getpid()
    real_parse = teamnets.report.parse_chat_edges

    def parse(export_root, roster, *args):
        if os.getpid() != parent and roster.team_id in team_ids:
            time.sleep(seconds)
        return real_parse(export_root, roster, *args)

    monkeypatch.setattr(teamnets.report, "parse_chat_edges", parse)


@pytest.mark.parametrize("command", [["correlate"], ["report"]], ids=["correlate", "report"])
def test_table_error_while_workers_run_kills_them(
    command, five_teams, tmp_path, monkeypatch, capsys, forks
):
    """A malformed feedback.csv, parsed while every worker is still busy,
    gives the serial run's result at once, and no worker is left."""
    work = copy_season(five_teams, tmp_path)
    feedback = work / "feedback.csv"
    lines = feedback.read_text(encoding="utf-8").splitlines()
    feedback.write_text("\n".join([*lines[:3], lines[3] + ",extra", *lines[4:]]) + "\n",
                        encoding="utf-8")
    stall_in_workers(monkeypatch, "A", "B", "C", "D", "E")
    config_path = work / "config.json"
    serial = run(monkeypatch, capsys, tmp_path, config_path, command, 1)
    assert serial[0] == 1
    assert serial[2] == f"validation failure: {feedback}:line 4: 5 cells, the header has 4\n"
    for workers in (2, 3):
        forks.clear()
        started = time.monotonic()
        assert run(monkeypatch, capsys, tmp_path, config_path, command, workers) == serial
        assert time.monotonic() - started < 10
        assert len(forks) == workers


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_error_in_first_team_while_later_teams_run(
    command, five_teams, tmp_path, monkeypatch, capsys, forks
):
    """Team A's result is taken as soon as it arrives, while the workers'
    later teams still hang: its error gives the serial run's result at once,
    and no worker is left."""
    work = copy_season(five_teams, tmp_path)
    if command == ["census"]:  # census reads no repo file
        broken = first_day_file(team_chat_root(work, 0))
    else:
        broken = work / team_entry(work, 0)["repo_activity"]
    broken.write_text("[{", encoding="utf-8")
    stall_in_workers(monkeypatch, "C", "D", "E")
    config_path = work / "config.json"
    serial = run(monkeypatch, capsys, tmp_path, config_path, command, 1)
    assert serial[0] == 2
    assert serial[2].startswith(f"input error: {broken}: malformed JSON")
    for workers in (2, 3):
        forks.clear()
        started = time.monotonic()
        assert run(monkeypatch, capsys, tmp_path, config_path, command, workers) == serial
        assert time.monotonic() - started < 10
        assert len(forks) == workers


@pytest.mark.parametrize("command", [["census"], ["report"]], ids=["census", "report"])
def test_result_larger_than_a_pipe_after_a_running_team(
    command, five_teams, tmp_path, monkeypatch, capsys, forks
):
    """Every team's result outgrows a pipe's 64 KiB buffer, through a week id
    that no window reads, and team B's worker sends it while team A's worker
    still runs: the serial run's result, with no worker left."""
    real_parse = teamnets.report.parse_chat_edges
    unread = frozenset((f"m{i:05}", f"n{i:05}") for i in range(10_000))

    def parse(export_root, roster, *args):
        weekly, kept, replies = real_parse(export_root, roster, *args)
        return {**weekly, -1: unread}, kept, replies

    monkeypatch.setattr(teamnets.report, "parse_chat_edges", parse)
    stall_in_workers(monkeypatch, "A", seconds=1)
    config_path = five_teams / "config.json"
    serial = run(monkeypatch, capsys, tmp_path, config_path, command, 1)
    assert serial[0] == 0, serial[2]
    for workers in (2, 3):
        forks.clear()
        assert run(monkeypatch, capsys, tmp_path, config_path, command, workers) == serial
        assert len(forks) == workers


def test_command_line_leaves_no_file_open(five_teams, tmp_path):
    """``report`` in a fresh interpreter, in development mode with resource
    warnings as errors and the real CPU count (forking where there are two
    or more CPUs), exits 0 without a ResourceWarning."""
    src = str(Path(teamnets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "teamnets", "report",
         "--config", str(five_teams / "config.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
