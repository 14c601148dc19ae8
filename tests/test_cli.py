from __future__ import annotations

import errno
import json
import os
import re
import shutil
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from teamnets.cli import main
from teamnets.config import load_config
from teamnets.ingestion import TEAM_ID
from teamnets.report import _take, load_report, parse_tables, run_pipeline

from oracles import parse_chat_export_oracle, pearson_r_oracle


def _cell(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _mini_with_two_member_beta(mini_dir, tmp_path):
    work = tmp_path / "mini"
    shutil.copytree(mini_dir, work)
    config = json.loads((work / "config.json").read_text())
    beta = next(t for t in config["teams"] if t["team_id"] == "beta")
    beta["members"] = ["b1", "b2"]
    beta["identity_map"] = {"HB1": "b1", "HB2": "b2"}
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return work / "config.json"


def _mini_config_with(mini_dir, tmp_path, path, value):
    """mini's config with the value at ``path`` replaced, written to
    ``tmp_path``, where its input paths name no file."""
    config = json.loads((mini_dir / "config.json").read_text())
    *parents, last = path
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return cfg


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "command",
    [["stc"], ["correlate"], ["report"], ["report", "--format", "structured-data"]],
    ids=["stc", "correlate", "report", "report-structured"],
)
def test_every_command_prints_its_notes(
    team7_dir, tmp_path, capsys, monkeypatch, command, workers
):
    """team7's merge request M05 changes no file: every command that parses
    the repo prints that note on stderr, as validate prints it on stdout."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    name, *rest = command
    argv = [name, "--config", str(team7_dir / "config.json"), "--out", str(tmp_path), *rest]
    capsys.readouterr()
    assert main(argv) == 0
    stdout, stderr = capsys.readouterr()
    assert "note: team X: merge request M05 has no changed files\n" in stderr.splitlines(True)
    assert "note:" not in stdout
    _assert_no_child_left()


# numpy is a test dependency only, and the census needs no rational
# arithmetic: the command line must load neither.
@pytest.mark.parametrize("module", ["numpy", "fractions"])
def test_cli_import_leaves_module_out(module):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, teamnets.cli; print({module!r} in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_closed_stdout_is_an_output_error(command, buffered, mini_dir, team7_dir, tmp_path):
    """validate's lines and report's "wrote" lines sent to a pipe that no
    process reads: exit 2 with one output error line, and no error at exit,
    whether stdout is written at each line or only at its final flush."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    config = (team7_dir if command == "validate" else mini_dir) / "config.json"
    argv = [sys.executable, "-m", "teamnets", command, "--config", str(config)]
    if command == "report":
        argv += ["--out", str(tmp_path / "out")]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1:] == ["output error: standard output closed"]
    assert "input error" not in proc.stderr and "Broken pipe" not in proc.stderr


class TestValidate:
    def test_clean_fixture_exits_zero(self, team7_dir, capsys):
        assert main(["validate", "--config", str(team7_dir / "config.json")]) == 0
        out = capsys.readouterr().out
        assert "120 messages" in out
        assert "40 commits" in out
        assert "37 communication events" in out

    def test_unconfigured_outcome_team_is_noted(self, mini_dir, tmp_path, capsys):
        """validate and report both name a team the config does not list."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        with (work / "outcomes.csv").open("a", encoding="utf-8") as fh:
            fh.write("gamma,2,10,5,50,3,4\ngamma,3,10,5,50,3,4\n")
        note = "team gamma: 2 outcome row(s) of a team not configured; ignored"
        config = str(work / "config.json")
        assert main(["validate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "  outcome_rows_kept: 6\n" in out
        assert f"  note: {note}\n" in out
        out_dir = tmp_path / "out"
        args = ["--config", config, "--out", str(out_dir), "--format", "structured-data"]
        assert main(["report", *args]) == 0
        assert note in load_report(out_dir / "report.json").notes

    def test_unconfigured_work_log_team_is_noted(self, mini_dir, tmp_path, capsys):
        """A mistyped team id in the work log is named, as in the outcomes table."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        (work / "work_logs.csv").write_text("team_id,hours\nalfa,40\nbeta,10\n", encoding="utf-8")
        config = json.loads((work / "config.json").read_text())
        config["work_logs"] = "work_logs.csv"
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["validate", "--config", str(work / "config.json")]) == 0
        out = capsys.readouterr().out
        assert "  work_log_rows: 2\n" in out
        assert "  note: team alfa: 1 work log row(s) of a team not configured; ignored\n" in out
        assert "team beta:" not in out.split("note:", 1)[1]

    def test_rater_on_no_roster_is_noted(self, mini_dir, tmp_path, capsys):
        """validate and report both name a rater the rosters do not list; the
        rows stay counted as kept."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        with (work / "feedback.csv").open("a", encoding="utf-8") as fh:
            fh.write("2,zz,a1,4\n3,zz,b2,5\n")
        note = "rater zz: 2 feedback row(s) of a rater on no roster; ignored"
        config = str(work / "config.json")
        assert main(["validate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "  feedback_rows_kept: 18\n" in out
        assert f"  note: {note}\n" in out
        out_dir = tmp_path / "out"
        args = ["--config", config, "--out", str(out_dir), "--format", "structured-data"]
        assert main(["report", *args]) == 0
        assert note in load_report(out_dir / "report.json").notes

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_rating_of_an_outsider_is_validation_failure(
        self, mini_dir, tmp_path, capsys, command
    ):
        """A rating of someone off the rater's roster would count toward the
        rater's team mean; it names the line, the ratee and the team."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        table = work / "feedback.csv"
        line = len(table.read_text(encoding="utf-8").splitlines()) + 1
        with table.open("a", encoding="utf-8") as fh:
            fh.write("3,a1,zz,2\n")
        args = ["--config", str(work / "config.json")]
        if command == "report":
            args += ["--out", str(tmp_path / "out")]
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert f"feedback.csv:line {line}: ratee zz is not on team alpha\n" in err

    def test_sha_listed_twice_is_no_dropped_link(self, mini_dir, tmp_path, capsys):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        repo_file = work / "repo_alpha.json"
        repo = json.loads(repo_file.read_text())
        repo["merge_requests"][0]["commits"].append(repo["merge_requests"][0]["commits"][0])
        repo_file.write_text(json.dumps(repo), encoding="utf-8")
        assert main(["validate", "--config", str(work / "config.json")]) == 0
        assert "mr_commit_links_dropped" not in capsys.readouterr().out

    def test_missing_config_is_input_error(self):
        assert main(["validate", "--config", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize(
        "name,missing",
        [
            ("config.json", "config file not found"),
            ("feedback.csv", "table not found"),
            ("outcomes.csv", "table not found"),
            ("repo_alpha.json", "repo activity file not found"),
        ],
    )
    def test_directory_in_place_of_an_input_is_not_a_file(
        self, mini_dir, tmp_path, capsys, monkeypatch, within, name, missing
    ):
        """A directory or a FIFO where an input file belongs is named as not a
        file, the FIFO at once and with 1 or 2 workers; a path with nothing
        there keeps its "not found" text."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        path = work / name
        argv = ["report", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
        path.unlink()
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {missing}: {path}\n"
        path.mkdir()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {path}: not a file\n"
        path.rmdir()
        os.mkfifo(path)
        for workers in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                                raising=False)
            with within(10):
                assert main(argv) == 2
            assert capsys.readouterr().err == f"input error: {path}: not a file\n"
            _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_file_in_place_of_a_chat_export_is_not_a_directory(
        self, mini_dir, tmp_path, capsys, monkeypatch, workers
    ):
        """A regular file where a team's chat export belongs is named as not a
        directory, also when a worker parses it; a path with nothing there
        keeps its "not found" text."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        path = work / "chat" / "alpha"
        argv = ["report", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
        shutil.rmtree(path)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: chat export directory not found: {path}\n"
        path.write_text("[]", encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {path}: not a directory\n"
        config = json.loads((work / "config.json").read_text(encoding="utf-8"))
        config["teams"][0]["chat_export"] = "chat/alpha/export"  # under the file
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {path / 'export'}: not a directory\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_directory_in_place_of_a_day_file_cannot_be_read(
        self, mini_dir, tmp_path, capsys, monkeypatch, within, workers
    ):
        """A directory named as a chat day file is not a file, as a directory
        in place of any other input is, and leaves no descriptor open. A FIFO
        there is not a file too, at once: no read waits for a writer."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        path = sorted((work / "chat" / "beta").glob("*/*.json"))[0]
        path.unlink()
        path.mkdir()
        argv = ["report", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
        before = sorted(os.listdir("/proc/self/fd"))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {path}: not a file\n"
        assert sorted(os.listdir("/proc/self/fd")) == before
        path.rmdir()
        os.mkfifo(path)
        with within(10):
            assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {path}: not a file\n"
        assert sorted(os.listdir("/proc/self/fd")) == before
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_device_that_never_ends_in_place_of_a_day_file(
        self, mini_dir, tmp_path, capsys, monkeypatch, within, command, workers
    ):
        """/dev/zero linked in place of a chat day file is not a file, at once
        and not when memory runs out, with no child or descriptor left."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        path = sorted((work / "chat" / "alpha").glob("*/*.json"))[0]
        path.unlink()
        path.symlink_to("/dev/zero")
        argv = [command, "--config", str(work / "config.json")]
        if command == "report":
            argv += ["--out", str(tmp_path / "out")]
        before = sorted(os.listdir("/proc/self/fd"))
        capsys.readouterr()
        with within(10):
            assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {path}: not a file\n"
        assert sorted(os.listdir("/proc/self/fd")) == before
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "kind,workers",
        [("day file", 1), ("day file", 2), ("config", 1), ("repo file", 2), ("table", 2)],
        ids=["day-file-1", "day-file-2", "config-1", "repo-file-2", "table-2"],
    )
    def test_input_over_the_cap_is_too_large(
        self, mini_dir, tmp_path, capsys, monkeypatch, within, kind, workers
    ):
        """A sparse 2 GiB file in place of any input is an input error naming
        it as too large, at once and not when memory runs out, with no child
        or descriptor left."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        path = {
            "day file": sorted((work / "chat" / "alpha").glob("*/*.json"))[0],
            "config": work / "config.json",
            "repo file": work / "repo_beta.json",
            "table": work / "feedback.csv",
        }[kind]
        os.truncate(path, 2**31)  # sparse: it takes no disk
        before = sorted(os.listdir("/proc/self/fd"))
        capsys.readouterr()
        with within(10):
            assert main(["validate", "--config", str(work / "config.json")]) == 2
        assert capsys.readouterr().err == f"input error: {path}: too large: over 67108864 bytes\n"
        assert sorted(os.listdir("/proc/self/fd")) == before
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unreadable_chat_directory_names_it(
        self, mini_dir, tmp_path, capsys, monkeypatch, workers
    ):
        """A chat directory the system will not open or list (root ignores
        file modes, so os.open and os.listdir are made to refuse it) is an
        input error naming it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        channel = str(work / "chat" / "alpha" / "dev")
        real_open, real_listdir = os.open, os.listdir

        def refuse(real):
            def call(path, *args, **kwargs):
                if not isinstance(path, int) and os.fspath(path) == channel:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), channel)
                return real(path, *args, **kwargs)
            return call

        monkeypatch.setattr(os, "open", refuse(real_open))
        monkeypatch.setattr(os, "listdir", refuse(real_listdir))
        assert main(["validate", "--config", str(work / "config.json")]) == 2
        assert capsys.readouterr().err == (
            f"input error: {channel}: cannot read: [Errno 13] Permission denied: '{channel}'\n"
        )
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_read_error_of_a_file_names_it(self, mini_dir, tmp_path, capsys, monkeypatch, workers):
        """A read that fails on a regular file (os.read raises EIO for that
        file's descriptor, once) is an input error naming the file."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        path = sorted((work / "chat" / "beta").glob("*/*.json"))[0]
        target = os.stat(path)
        real_open, real_read = os.open, os.read
        failing: set[int] = set()

        def open_(file, flags, *args, **kwargs):
            fd = real_open(file, flags, *args, **kwargs)
            if os.path.samestat(os.fstat(fd), target):  # by path or in its directory
                failing.add(fd)
            return fd

        def read(fd, n):
            if fd in failing:
                failing.discard(fd)  # the number is free for reuse once closed
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_read(fd, n)

        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(os, "read", read)
        assert main(["validate", "--config", str(work / "config.json")]) == 2
        assert capsys.readouterr().err == (
            f"input error: {path}: cannot read: [Errno 5] Input/output error: '{path}'\n"
        )
        _assert_no_child_left()

    def test_malformed_config_names_line_column_and_char(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{\n  "calendar": oops\n}\n', encoding="utf-8")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"input error: {cfg}: malformed JSON at line 2 column 15 (char 16)\n"
        )

    def test_malformed_chat_file_is_input_error(self, team7_dir, tmp_path, capsys):
        work = tmp_path / "team7"
        shutil.copytree(team7_dir, work)
        day = next((work / "chat" / "general").glob("*.json"))
        day.write_text("{broken", encoding="utf-8")
        assert main(["validate", "--config", str(work / "config.json")]) == 2
        assert day.name in capsys.readouterr().err

    def test_unrepresentable_chat_ts_is_input_error(self, team7_dir, tmp_path, capsys):
        work = tmp_path / "team7"
        shutil.copytree(team7_dir, work)
        day = next((work / "chat" / "general").glob("*.json"))
        messages = json.loads(day.read_text())
        messages[0]["ts"] = "inf"
        day.write_text(json.dumps(messages), encoding="utf-8")
        assert main(["validate", "--config", str(work / "config.json")]) == 2
        assert f"{day.name}: entry 0 has invalid ts" in capsys.readouterr().err

    def test_integrity_violation_is_validation_failure(self, team7_dir, tmp_path):
        work = tmp_path / "team7"
        shutil.copytree(team7_dir, work)
        repo = json.loads((work / "repo.json").read_text())
        repo["merge_requests"][0]["commits"].append("nonexistent")
        (work / "repo.json").write_text(json.dumps(repo), encoding="utf-8")
        assert main(["validate", "--config", str(work / "config.json")]) == 1

    @pytest.mark.parametrize(
        "target,fault",
        [
            ("chat/alpha/general/2024-03-04.json", "utf-16"),
            ("chat/alpha/general/2024-03-04.json", "user-list"),
            ("repo_alpha.json", "utf-16"),
            ("config.json", "utf-16"),
        ],
    )
    def test_unreadable_input_is_named_input_error(
        self, mini_dir, tmp_path, capsys, target, fault
    ):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        path = work / target
        if fault == "utf-16":
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
        else:
            messages = json.loads(path.read_text())
            messages[0]["user"] = [messages[0]["user"]]
            path.write_text(json.dumps(messages), encoding="utf-8")
        assert main(["validate", "--config", str(work / "config.json")]) == 2
        err = capsys.readouterr().err
        assert f"input error: {path}: " in err
        assert "Traceback" not in err

    def test_unexpected_exception_is_internal_error(self, mini_dir, tmp_path, capsys, monkeypatch):
        def crash(config):
            raise RuntimeError("boom")

        monkeypatch.setattr("teamnets.cli.run_pipeline", crash)
        code = main(["report", "--config", str(mini_dir / "config.json"), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: boom\n")
        assert "Traceback (most recent call last)" in err

    @pytest.mark.parametrize(
        "path,value,field",
        [
            (("calendar", "weeks", 0, "week_id"), "one", "calendar.weeks[0].week_id"),
            (("calendar", "weeks", 0, "week_id"), 1.5, "calendar.weeks[0].week_id"),
            (("calendar", "sprints", 1, "weeks", 0), "three", "calendar.sprints[1].weeks"),
            (("calendar", "excluded_sprints"), ["first"], "calendar.excluded_sprints"),
            (("options", "anomaly_top_fraction"), "high", "options.anomaly_top_fraction"),
            (("options", "anomaly_bottom_fraction"), [0.3], "options.anomaly_bottom_fraction"),
            (("teams", 0, "identity_map"), ["HA1", "a1"], "teams[0].identity_map"),
            (("teams", 0, "identity_map"), [["HA1", "a1"]], "teams[0].identity_map"),
            (("options", "exclude_teams"), "alpha", "options.exclude_teams"),
            (("options", "exclude_teams"), 7, "options.exclude_teams"),
            (("teams", 1, "members"), "b1b2b3b4", "teams[1].members"),
            (("teams", 1, "team_id"), ["beta"], "teams[1].team_id"),
            (("teams", 1, "team_id"), "", "teams[1].team_id"),
            (("teams", 1, "team_id"), ".", "teams[1].team_id"),
            (("teams", 1, "team_id"), "..", "teams[1].team_id"),
            (("teams", 1, "team_id"), "be/ta", "teams[1].team_id"),
            (("teams", 1, "team_id"), "../x", "teams[1].team_id"),
            (("teams", 1, "team_id"), "be\\ta", "teams[1].team_id"),
            (("teams", 1, "team_id"), "be,ta", "teams[1].team_id"),
            (("teams", 0, "chat_export"), 3, "teams[0].chat_export"),
            (("teams", 0, "chat_export"), "", "teams[0].chat_export"),
            (("teams", 1, "repo_activity"), "", "teams[1].repo_activity"),
            (("excluded_handles",), "UBOT", "excluded_handles"),
            (("feedback",), ["feedback.csv"], "feedback"),
            (("options", "include_lagged_table"), "false", "options.include_lagged_table"),
            (("options", "self_dependency"), 0, "options.self_dependency"),
            (("calendar", "weeks", 0, "start"), 5, "calendar.weeks[0].start"),
            (("calendar", "weeks", 1, "end"), "next monday", "calendar.weeks[1].end"),
            (("teams",), [], "teams must be a non-empty array"),
        ],
        ids=[
            "week_id-str",
            "week_id-fraction",
            "sprint_weeks-str",
            "excluded_sprints-str",
            "top_fraction-str",
            "bottom_fraction-list",
            "identity_map-list",
            "identity_map-pairs",
            "exclude_teams-str",
            "exclude_teams-int",
            "members-str",
            "team_id-list",
            "team_id-empty",
            "team_id-dot",
            "team_id-dotdot",
            "team_id-slash",
            "team_id-parent",
            "team_id-backslash",
            "team_id-comma",
            "chat_export-int",
            "chat_export-empty",
            "repo_activity-empty",
            "excluded_handles-str",
            "feedback-list",
            "lagged_table-str",
            "self_dependency-int",
            "week_start-int",
            "week_end-str",
            "teams-empty",
        ],
    )
    def test_bad_config_value_is_named_input_error(
        self, mini_dir, tmp_path, capsys, path, value, field
    ):
        cfg = _mini_config_with(mini_dir, tmp_path, path, value)
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"input error: {cfg}: " in err
        assert field in err

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "edits,file,field,kind",
        [
            ({("teams", 0, "team_id"): "al\u0000pha"}, "config.json", "teams[0].team_id", TEAM_ID),
            ({("teams", 0, "team_id"): "\ud800"}, "config.json", "teams[0].team_id", TEAM_ID),
            (
                {("teams", 0, "chat_export"): "chat/al\u0000pha"},
                "config.json",
                "teams[0].chat_export",
                "a non-empty file system path (no NUL)",
            ),
            (
                {("teams", 0, "chat_export"): "chat/\ud800"},
                "config.json",
                "teams[0].chat_export",
                "a non-empty file system path (no NUL)",
            ),
            (
                {("teams", 0, "repo_activity"): "repo_al\u0000pha.json"},
                "config.json",
                "teams[0].repo_activity",
                "a non-empty file system path (no NUL)",
            ),
            (
                {("outcomes",): "out\u0000comes.csv"},
                "config.json",
                "outcomes",
                "a file system path (no NUL) or null",
            ),
            (
                {
                    ("teams", 0, "members", 0): "\ud800",
                    ("teams", 0, "identity_map", "HA1"): "\ud800",
                },
                "config.json",
                "teams[0].members[0]",
                "a UTF-8 string",
            ),
            (
                {("teams", 0, "identity_map", "HA1"): "\ud800"},
                "config.json",
                "teams[0].identity_map.HA1",
                "a UTF-8 string",
            ),
            (
                {("merge_requests", 0, "id"): "MR\ud800", ("merge_requests", 0, "files"): []},
                "repo_alpha.json",
                "merge_requests[0].id",
                "a UTF-8 string or an integer",
            ),
        ],
        ids=[
            "team_id-nul",
            "team_id-surrogate",
            "chat_export-nul",
            "chat_export-surrogate",
            "repo_activity-nul",
            "outcomes-nul",
            "member-surrogate",
            "identity_map-surrogate",
            "mr_id-surrogate",
        ],
    )
    def test_nul_or_lone_surrogate_is_named_input_error(
        self, mini_dir, tmp_path, capsys, monkeypatch, edits, file, field, kind, workers
    ):
        """A NUL or a lone surrogate, which JSON can spell, where a value
        reaches a path, a file name or standard output is an input error naming
        the file and the value's path, for every command that reads it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        doc = json.loads((work / file).read_text())
        for (*parents, last), value in edits.items():
            node = doc
            for key in parents:
                node = node[key]
            node[last] = value
        (work / file).write_text(json.dumps(doc), encoding="utf-8")
        value = edits[next(iter(edits))]
        commands = [["validate"], ["report", "--out", str(tmp_path / "out")]]
        if file == "config.json":  # census reads no repo file
            commands.append(["census", "--out", str(tmp_path / "out")])
        for command in commands:
            capsys.readouterr()
            assert main([*command, "--config", str(work / "config.json")]) == 2, command
            assert capsys.readouterr().err == (
                f"input error: {work / file}: {field} must be {kind}, got {value!r}\n"
            )
            _assert_no_child_left()
        assert not (tmp_path / "out").exists()

    def test_path_of_a_byte_that_is_not_utf8_is_read(self, mini_dir, tmp_path, capsys):
        """A surrogate escape of a byte that is not UTF-8 (os.fsencode's
        "\\udcff") names the file it escapes: the run equals mini's."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        os.rename(work / "chat" / "alpha", os.fsencode(work / "chat") + b"/\xff")
        os.rename(work / "repo_alpha.json", os.fsencode(work) + b"/repo_\xfe.json")
        config = json.loads((work / "config.json").read_text())
        config["teams"][0]["chat_export"] = "chat/\udcff"
        config["teams"][0]["repo_activity"] = "repo_\udcfe.json"
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["validate", "--config", str(mini_dir / "config.json")]) == 0
        expected = capsys.readouterr()
        assert main(["validate", "--config", str(work / "config.json")]) == 0
        assert capsys.readouterr() == expected


    @pytest.mark.parametrize(
        "path,value,text",
        [
            (("calendar", "weeks"), [], "calendar has no weeks"),
            (("teams", 1, "members"), [], "team beta has an empty roster"),
            (
                ("options", "anomaly_top_fraction"),
                1.5,
                "anomaly top fraction must be in (0, 1), got 1.5",
            ),
            (("teams", 1, "team_id"), "alpha", "duplicate team id alpha"),
            (("calendar", "weeks", 1, "week_id"), 1, "duplicate week id 1"),
            (("calendar", "weeks", 0, "end"), "2024-03-04T00:00:00Z", "week 1 has end <= start"),
            (("calendar", "sprints", 1, "sprint_id"), 1, "duplicate sprint id 1"),
        ],
        ids=[
            "no-weeks",
            "empty-roster",
            "top_fraction-range",
            "duplicate-team",
            "duplicate-week",
            "week-ends-at-start",
            "duplicate-sprint",
        ],
    )
    def test_config_validation_failure_names_config(
        self, mini_dir, tmp_path, capsys, path, value, text
    ):
        cfg = _mini_config_with(mini_dir, tmp_path, path, value)
        assert main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"validation failure: {cfg}: {text}\n"

    def test_exclude_sprints_of_no_integer_is_input_error(self, mini_dir, capsys):
        config = str(mini_dir / "config.json")
        assert main(["validate", "--config", config, "--exclude-sprints", "x"]) == 2
        assert capsys.readouterr().err == "input error: --exclude-sprints must be integers: 'x'\n"

    def test_non_numeric_work_log_hours_is_validation_failure(self, mini_dir, tmp_path, capsys):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        logs = work / "work_logs.csv"
        logs.write_text("team_id,hours\nalpha,4\nbeta,lots\n", encoding="utf-8")
        config = json.loads((work / "config.json").read_text())
        config["work_logs"] = "work_logs.csv"
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        for command in (["validate"], ["report", "--out", str(tmp_path / "out")]):
            assert main([*command, "--config", str(work / "config.json")]) == 1
            assert capsys.readouterr().err == (
                f"validation failure: {logs}:line 3: non-numeric hours\n"
            )

    @pytest.mark.parametrize(
        "kind,key,value,text",
        [
            ("commits", "sha", ["alpha001"], "commits[0].sha must be a string, got ['alpha001']"),
            ("commits", "author", ["a1"], "commits[0].author must be a string, got ['a1']"),
            (
                "merge_requests",
                "commits",
                [["alpha001"], "alpha002"],
                "merge_requests[0].commits[0] must be a string, got ['alpha001']",
            ),
            (
                "merge_requests",
                "files",
                [["x.py"], "y.py"],
                "merge_requests[0].files[0] must be a string, got ['x.py']",
            ),
            (
                "merge_requests",
                "files",
                "x.py",
                "merge_requests[0].files must be an array, got 'x.py'",
            ),
            (
                "merge_requests",
                "id",
                ["M1"],
                "merge_requests[0].id must be a UTF-8 string or an integer, got ['M1']",
            ),
            (
                "merge_requests",
                "id",
                {"id": "M1"},
                "merge_requests[0].id must be a UTF-8 string or an integer, got {'id': 'M1'}",
            ),
            (
                "merge_requests",
                "id",
                True,
                "merge_requests[0].id must be a UTF-8 string or an integer, got True",
            ),
        ],
        ids=[
            "commit_sha-list",
            "commit_author-list",
            "mr_commit-list",
            "mr_file-list",
            "mr_files-str",
            "mr_id-list",
            "mr_id-object",
            "mr_id-bool",
        ],
    )
    def test_bad_repo_field_is_named_input_error(
        self, mini_dir, tmp_path, capsys, kind, key, value, text
    ):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        repo_path = work / "repo_alpha.json"
        repo = json.loads(repo_path.read_text())
        repo[kind][0][key] = value
        repo_path.write_text(json.dumps(repo), encoding="utf-8")
        assert main(["validate", "--config", str(work / "config.json")]) == 2
        err = capsys.readouterr().err
        assert f"input error: {repo_path}: {text}" in err
        assert "Traceback" not in err

    def test_table_row_of_another_cell_count_fails_validation(self, mini_dir, tmp_path, capsys):
        """A short row's missing rater once reached the sort of raters as None."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        feedback = work / "feedback.csv"
        feedback.write_text(
            "communication_rating,sprint_id,ratee,rater\n4,2,a2\n4,2,a2,zz\n", encoding="utf-8"
        )
        args = ["report", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"validation failure: {feedback}:line 2: 3 cells, the header has 4\n"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", ["notes", "table-and-team-failure", "table-and-missing-chat"])
    def test_tables_come_after_the_teams(
        self, mini_dir, tmp_path, capsys, monkeypatch, case, workers
    ):
        """validate parses the tables while the teams' steps run, yet gives
        the teams' lines, notes and errors first: a team's note comes before a
        table's, a table's error after every team's line, and a team's input
        error in place of a table's error."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        repo_path = work / "repo_alpha.json"
        repo = json.loads(repo_path.read_text())
        if case == "notes":
            config = json.loads((work / "config.json").read_text())
            config["work_logs"] = "work_logs.csv"
            (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
            (work / "work_logs.csv").write_text(
                "team_id,hours\nalpha,4\ngamma,2\n", encoding="utf-8"
            )
            repo["merge_requests"][1]["files"] = []
        else:
            with (work / "feedback.csv").open("a", encoding="utf-8") as fh:
                fh.write("3,a1,zz,2\n")
            if case == "table-and-team-failure":
                repo["merge_requests"][0]["commits"].append("nonexistent")
            else:
                shutil.rmtree(work / "chat" / "beta")
        repo_path.write_text(json.dumps(repo), encoding="utf-8")
        alpha = "team alpha: 17 messages, 9 commits, 7 merge requests, 10 communication events\n"
        beta = "team beta: 10 messages, 12 commits, 11 merge requests, 5 communication events\n"
        expected = {
            "notes": (0, alpha + beta + (
                "  commits_kept: 21\n"
                "  feedback_rows_excluded_sprint: 2\n"
                "  feedback_rows_kept: 16\n"
                "  messages_dropped_subtype: 4\n"
                "  messages_dropped_unknown_handle: 2\n"
                "  messages_kept: 27\n"
                "  messages_seen: 33\n"
                "  mrs_kept: 18\n"
                "  mrs_with_empty_files: 1\n"
                "  outcome_rows_excluded_sprint: 2\n"
                "  outcome_rows_kept: 4\n"
                "  work_log_rows: 2\n"
                "  note: team alpha: merge request M2 has no changed files\n"
                "  note: team gamma: 1 work log row(s) of a team not configured; ignored\n"
            ), ""),
            "table-and-team-failure": (1, beta, (
                f"team alpha: VALIDATION FAILURE: {repo_path}: merge request M1 references "
                "unknown commit sha(s): nonexistent\n"
                f"validation failure: {work}/feedback.csv:line 20: ratee zz is not on team alpha\n"
            )),
            "table-and-missing-chat": (2, alpha, (
                f"input error: chat export directory not found: {work}/chat/beta\n"
            )),
        }[case]
        capsys.readouterr()
        code = main(["validate", "--config", str(work / "config.json")])
        assert (code, *capsys.readouterr()) == expected
        _assert_no_child_left()

    def test_tables_are_parsed_before_the_first_result_is_read(self, mini_dir, monkeypatch):
        """With two workers the parent parses the tables while they run:
        before it reads the first message, a claim or a result, from a pipe."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        calls = []

        def recorded(name, function):
            def call(*args):
                calls.append(name)
                return function(*args)
            return call

        monkeypatch.setattr("teamnets.cli.parse_tables", recorded("tables", parse_tables))
        monkeypatch.setattr("teamnets.report._take", recorded("take", _take))
        assert main(["validate", "--config", str(mini_dir / "config.json")]) == 0
        # At least a claim and a result for each of the two teams.
        assert calls[0] == "tables" and calls.count("take") == len(calls) - 1 >= 4
        _assert_no_child_left()


class TestSubcommands:
    @pytest.mark.parametrize("command", ["report", "correlate"])
    @pytest.mark.parametrize(
        "key,table", [("outcomes", "outcomes table"), ("feedback", "peer-feedback table")]
    )
    def test_pipeline_without_a_table_is_missing_input(
        self, mini_dir, tmp_path, capsys, command, key, table
    ):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        config = json.loads((work / "config.json").read_text())
        config[key] = None
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(work / "config.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: missing input: no {table} configured\n"
        assert not out.exists()

    def test_mini_outputs_match_golden_files(self, mini_dir, tmp_path, capsys):
        """validate's stdout and every file stc and census write, byte for byte."""
        golden = mini_dir.parent / "mini_golden" / "subcommands"
        config = str(mini_dir / "config.json")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["validate", "--config", config]) == 0
        (out / "validate_stdout.txt").write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["stc", "--config", config, "--out", str(out)]) == 0
        assert main(["census", "--config", config, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        mismatches = [
            ref.name
            for ref in golden.iterdir()
            if (out / ref.name).read_bytes() != ref.read_bytes()
        ]
        assert mismatches == []

    def test_stc_writes_weekly_table(self, team7_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["stc", "--config", str(team7_dir / "config.json"), "--out", str(out)]) == 0
        lines = (out / "stc_weekly.csv").read_text().splitlines()
        assert lines[0] == "team,week,stc_score"
        # weekly rows cover only weeks of included sprints (2, 3, 4)
        assert [l.split(",")[1] for l in lines[1:]] == ["2", "3", "4"]
        week3 = next(l for l in lines[1:] if l.split(",")[1] == "3")
        assert week3.split(",")[2] == "0.333333"

    def test_census_writes_tables_and_edge_lists(self, team7_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["census", "--config", str(team7_dir / "config.json"), "--out", str(out)]) == 0
        census = (out / "census_sprint.csv").read_text().splitlines()
        assert census[0].startswith("team,sprint,rel_0_edges")
        assert len(census) == 3  # sprints 2 and 3 for one team
        edges = (out / "edges_X_sprint2.tsv").read_text().splitlines()
        assert edges == sorted(edges)
        assert all("\t" in line for line in edges)

    def test_census_small_roster_gets_blank_cells(self, mini_dir, tmp_path):
        config = _mini_with_two_member_beta(mini_dir, tmp_path)
        out = tmp_path / "out"
        assert main(["census", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "census_sprint.csv").read_text().splitlines()
        assert rows[3:] == ["beta,2,,,,", "beta,3,,,,"]
        assert rows[1].startswith("alpha,2,0.000000,")
        assert (out / "edges_beta_sprint2.tsv").exists()

    def test_stc_and_census_tables_match_pipeline(self, mini_dir, tmp_path):
        config = str(mini_dir / "config.json")
        out = tmp_path / "out"
        assert main(["stc", "--config", config, "--out", str(out)]) == 0
        assert main(["census", "--config", config, "--out", str(out)]) == 0
        report = run_pipeline(load_config(config))
        stc_rows = ["team,week,stc_score"] + [
            f"{team},{week},{_cell(score)}"
            for team in report.teams
            for week, score in sorted(report.stc_weekly[team].items())
        ]
        census_rows = ["team,sprint,rel_0_edges,rel_1_edges,rel_2_edges,rel_3_edges"] + [
            f"{team},{sprint}," + ",".join(_cell(v) for v in census)
            for team in report.teams
            for sprint, census in sorted(report.sprint_census[team].items())
        ]
        assert (out / "stc_weekly.csv").read_text().splitlines() == stc_rows
        assert (out / "census_sprint.csv").read_text().splitlines() == census_rows

    def test_report_full_run(self, mini_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--config", str(mini_dir / "config.json"), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "stc_correlations.csv" in names
        assert "team_summary.csv" in names
        assert "series_stc_alpha.csv" in names

    def test_report_structured_round_trips(self, mini_dir, tmp_path):
        out = tmp_path / "report"
        code = main(
            [
                "report",
                "--config",
                str(mini_dir / "config.json"),
                "--format",
                "structured-data",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = load_report(out / "report.json")
        assert report.teams == ("alpha", "beta")

    @pytest.mark.parametrize("format", ["delimited-table", "structured-data"])
    def test_lagged_table_is_written_when_asked(self, mini_dir, tmp_path, format):
        """options.include_lagged_table adds lagged_correlations. Its first cell
        has 2 points, since the last sprint has no next one: too few for r. Its
        second pairs each team's year-mean score (85 twice, 65 twice) with its
        sprint ratings (4.5, 4.75, 2.5, 2); with 2 degrees of freedom p = 1 - r."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        config = json.loads((work / "config.json").read_text())
        config["options"]["include_lagged_table"] = True
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["report", "--config", str(work / "config.json"), "--out", str(out)]
        assert main([*argv, "--format", format]) == 0
        r = pearson_r_oracle([85, 85, 65, 65], [4.5, 4.75, 2.5, 2.0])
        if format == "delimited-table":
            assert (out / "lagged_correlations.csv").read_text() == (
                "pair,r,n,p,stars\n"
                "next_sprint_pct_passed~mean_peer_comm_rating,,2,,\n"
                f"mean_team_score_year~mean_peer_comm_rating,{r:.6f},4,{1 - r:.6f},*\n"
            )
            assert f"{r:.6f}" == "0.986431"
            return
        first, second = json.loads((out / "lagged_correlations.json").read_text())
        assert first == {
            "pair": "next_sprint_pct_passed~mean_peer_comm_rating",
            "r": None, "n": 2, "p": None, "stars": "",
        }
        assert second["pair"] == "mean_team_score_year~mean_peer_comm_rating"
        assert (second["n"], second["stars"]) == (4, "*")
        assert second["r"] == pytest.approx(r, abs=1e-12)
        assert second["p"] == pytest.approx(1 - r, abs=1e-12)

    def test_pair_hours_of_work_logs_that_differ_are_noted(self, mini_dir, tmp_path, capsys):
        """alpha's work logs total 107.5 hours against the outcomes table's 120:
        a note names both, and the team summary keeps the outcomes value."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        (work / "work_logs.csv").write_text(
            "team_id,hours\nalpha,100\nalpha,7.5\nbeta,300\n", encoding="utf-8"
        )
        config = json.loads((work / "config.json").read_text())
        config["work_logs"] = "work_logs.csv"
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines() if "pair hours" in line]
        assert notes == [
            "note: team alpha: pair hours differ between outcomes table (120) and work logs "
            "(107.5); using the outcomes value"
        ]
        golden = mini_dir.parent / "mini_golden" / "team_summary.csv"
        assert (out / "team_summary.csv").read_text() == golden.read_text()

    def test_team_with_one_defined_stc_week_has_no_trend(self, mini_dir, tmp_path, capsys):
        """beta keeps only its week-3 merge requests: one defined STC week gives
        no trend, a note, and no place in either U-test group."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        repo_path = work / "repo_beta.json"
        repo = json.loads(repo_path.read_text())
        repo["merge_requests"] = [m for m in repo["merge_requests"] if m["id"] in ("B1", "B2")]
        repo_path.write_text(json.dumps(repo), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
        stderr = capsys.readouterr().err
        assert "note: team beta: no STC trend (fewer than 2 defined weeks)\n" in stderr
        assert "note: team alpha: no STC trend" not in stderr
        assert (out / "series_stc_beta.csv").read_text() == (
            "week,stc_score\n3,1.000000\n4,\n5,\n6,\n"
        )
        assert (out / "trend_utest.csv").read_text() == (
            "increasing_teams,decreasing_teams,u,p,method\nalpha,,,,undefined\n"
        )

    def test_correlate_writes_only_correlation_tables(self, mini_dir, tmp_path):
        """In either format, correlate writes the correlation tables of
        mini_golden, byte for byte, and no other file."""
        golden = mini_dir.parent / "mini_golden"
        config = str(mini_dir / "config.json")
        for fmt, suffix in (("delimited-table", ".csv"), ("structured-data", ".json")):
            out = tmp_path / fmt
            assert main(["correlate", "--config", config, "--format", fmt, "--out", str(out)]) == 0
            names = sorted(p.name for p in out.iterdir())
            assert names == sorted(p.name for p in golden.glob(f"*correlations*{suffix}"))
            assert [n for n in names if (out / n).read_bytes() != (golden / n).read_bytes()] == []

    def test_report_leaves_other_files_in_out(self, mini_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".write_probe").write_text("a file of the user's", encoding="utf-8")
        assert main(["report", "--config", str(mini_dir / "config.json"), "--out", str(out)]) == 0
        assert (out / ".write_probe").read_text(encoding="utf-8") == "a file of the user's"

    def test_correlate_leaves_other_report_files(self, mini_dir, tmp_path):
        config = str(mini_dir / "config.json")
        out = tmp_path / "out"
        assert main(["report", "--config", config, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["correlate", "--config", config, "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_exclude_teams_flag(self, mini_dir, tmp_path):
        out = tmp_path / "excl"
        code = main(
            [
                "report",
                "--config",
                str(mini_dir / "config.json"),
                "--exclude-teams",
                "beta",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        table = (out / "census_sprint_correlations_excluding.csv").read_text()
        assert "beta" in table.splitlines()[1]  # excluded_teams column filled

    @pytest.mark.parametrize("source", ["options", "flag"])
    def test_team_excluded_twice_is_listed_once(self, mini_dir, tmp_path, source):
        """options.exclude_teams and --exclude-teams share one rule: each
        team once, sorted."""
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        args = ["report", "--config", str(work / "config.json"), "--out", str(tmp_path / "out")]
        if source == "options":
            config = json.loads((work / "config.json").read_text())
            config["options"]["exclude_teams"] = ["alpha", "alpha"]
            (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        else:
            args += ["--exclude-teams", "alpha,alpha"]
        assert main(args) == 0
        for table in ("census_sprint", "census_mean_weekly"):
            rows = (tmp_path / "out" / f"{table}_correlations_excluding.csv").read_text()
            lines = rows.splitlines()
            assert lines[0].endswith(",excluded_teams")
            assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"alpha"}

    def test_exclude_unknown_team_fails_validation(self, mini_dir, tmp_path):
        code = main(
            [
                "report",
                "--config",
                str(mini_dir / "config.json"),
                "--exclude-teams",
                "gamma",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1

    def test_exclude_unknown_sprint_names_the_flag(self, mini_dir, capsys):
        config = str(mini_dir / "config.json")
        assert main(["validate", "--config", config, "--exclude-sprints", "9,2,9"]) == 1
        assert capsys.readouterr().err == (
            "validation failure: --exclude-sprints references unknown sprint(s) [9]\n"
        )

    def test_exclude_sprints_flag(self, mini_dir, tmp_path):
        out = tmp_path / "sprints"
        code = main(
            [
                "report",
                "--config",
                str(mini_dir / "config.json"),
                "--exclude-sprints",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        stc_series = (out / "series_stc_alpha.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in stc_series[1:]] == ["3", "4"]  # sprint 3 gone

    @pytest.mark.parametrize(
        "command,fault",
        [
            ("report", "out-is-file"),
            ("stc", "out-is-file"),
            ("census", "out-is-file"),
            ("report", "long-team-id"),
            ("census", "long-team-id"),
        ],
    )
    def test_unusable_output_path_is_input_error(
        self, mini_dir, tmp_path, capsys, command, fault
    ):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        out = tmp_path / "out"
        if fault == "out-is-file":
            out.write_text("", encoding="utf-8")
        else:  # the team's output files get names longer than a file name may be
            config = json.loads((work / "config.json").read_text())
            config["teams"][0]["team_id"] = "a" * 300
            (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(work / "config.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if fault == "out-is-file":
            assert err.startswith(f"input error: output directory not writable: {out}: ")
        else:
            assert err.startswith("input error: ")
        assert "Traceback" not in err

    def test_missing_out_is_input_error(self, mini_dir, capsys):
        assert main(["stc", "--config", str(mini_dir / "config.json")]) == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("validate", "--out=out"),
            ("validate", "--format=structured-data"),
            ("validate", "--exclude-teams=beta"),
            ("stc", "--format=structured-data"),
            ("stc", "--exclude-teams=beta"),
            ("census", "--format=structured-data"),
            ("census", "--exclude-teams=beta"),
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_rejected(
        self, mini_dir, tmp_path, capsys, command, flag
    ):
        argv = [command, "--config", str(mini_dir / "config.json"), flag]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_outcome_row_is_validation_failure(self, mini_dir, tmp_path, capsys):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        outcomes = work / "outcomes.csv"
        with outcomes.open("a", encoding="utf-8") as fh:
            fh.write("alpha,2,20,5,10,30,120\n")
        out = tmp_path / "out"
        assert main(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{outcomes}:line 8: second row for team alpha sprint 2 (first at line 3)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "stories,text",
        [("-30", "negative stories passed total"), ("9" * 401, "stories passed total too large")],
        ids=["negative", "401-digits"],
    )
    def test_bad_stories_total_is_validation_failure(
        self, mini_dir, tmp_path, capsys, stories, text
    ):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        outcomes = work / "outcomes.csv"
        outcomes.write_text(outcomes.read_text().replace(",30,", f",{stories},"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"validation failure: {outcomes}:line 2: {text}\n"

    def test_person_on_two_rosters_is_validation_failure(self, mini_dir, tmp_path, capsys):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        config = json.loads((work / "config.json").read_text())
        beta = next(t for t in config["teams"] if t["team_id"] == "beta")
        beta["members"].append("a1")  # a1 is on alpha's roster too
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        for command in (["validate"], ["report", "--out", str(tmp_path / "out")]):
            assert main([*command, "--config", str(work / "config.json")]) == 1
            assert capsys.readouterr().err == (
                f"validation failure: {work / 'config.json'}: person a1 is on the rosters "
                f"of teams alpha and beta\n"
            )

    def test_overflowing_team_scores_give_blank_cells(self, mini_dir, tmp_path, capsys):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        rows = (work / "outcomes.csv").read_text().splitlines()
        for i, row in enumerate(rows):
            fields = row.split(",")
            if fields[:2] in (["alpha", "2"], ["alpha", "3"]):
                fields[4] = "1e308"  # team_score; their sum overflows
                rows[i] = ",".join(fields)
        (work / "outcomes.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        # only alpha's mean team score changes, to blank
        golden_table = mini_dir.parent / "mini_golden" / "team_summary.csv"
        golden = [row.split(",") for row in golden_table.read_text().splitlines()]
        golden[1][4] = ""
        summary = [row.split(",") for row in (out / "team_summary.csv").read_text().splitlines()]
        assert summary == golden
        for table in ("census_sprint_correlations", "census_mean_weekly_correlations"):
            cells = [
                line.split(",")
                for line in (out / f"{table}.csv").read_text().splitlines()
                if "~team_score" in line
            ]
            assert len(cells) == 4
            assert all(c[1:] == ["", "4", "", ""] for c in cells)

    def test_overflowing_work_log_is_validation_failure(self, mini_dir, tmp_path, capsys):
        work = tmp_path / "mini"
        shutil.copytree(mini_dir, work)
        logs = work / "work_logs.csv"
        logs.write_text("team_id,hours\nalpha,1e308\nalpha,1e308\n", encoding="utf-8")
        config = json.loads((work / "config.json").read_text())
        config["work_logs"] = "work_logs.csv"
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["report", "--config", str(work / "config.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{logs}:line 3: hours total of team alpha overflows" in err
        assert "Traceback" not in err


def test_second_reply_in_thread_and_week_changes_only_the_count(mini_dir, tmp_path, capsys):
    """Edges are presence-only: a repeated reply leaves every report table as
    it was and adds exactly one to validate's communication events."""
    work = tmp_path / "mini"
    shutil.copytree(mini_dir, work)
    config = load_config(work / "config.json")
    team = config.teams[0]
    cal = config.calendar
    log = parse_chat_export_oracle(team.chat_export, team.roster, config.excluded_handles)
    author_of = {m.message_id: m.author for m in log.messages}
    reply = next(
        m
        for m in log.messages
        if m.thread_root in author_of
        and author_of[m.thread_root] != m.author
        and cal.assign_week(m.timestamp) is not None
    )
    channel, ts = reply.message_id.split("/")
    for day in sorted((team.chat_export / channel).glob("*.json")):
        entries = json.loads(day.read_text())
        entry = next((e for e in entries if e["ts"] == ts), None)
        if entry is not None:
            break
    new_ts = f"{float(ts) + 1:.4f}"
    assert cal.assign_week(datetime.fromtimestamp(float(new_ts), timezone.utc)) == (
        cal.assign_week(reply.timestamp)
    )
    assert all(e["ts"] != new_ts for e in entries)
    day.write_text(json.dumps(entries + [dict(entry, ts=new_ts)]), encoding="utf-8")

    def run(root):
        capsys.readouterr()
        assert main(["validate", "--config", str(root / "config.json")]) == 0
        counts = dict(
            re.match(r"team (\S+): .*, (\d+) communication events$", line).groups()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("team ")
        )
        out = tmp_path / f"out_{root.name}"
        assert main(["report", "--config", str(root / "config.json"), "--out", str(out)]) == 0
        return counts, {p.name: p.read_bytes() for p in out.iterdir()}

    before_counts, before_tables = run(mini_dir)
    after_counts, after_tables = run(work)
    assert after_tables == before_tables
    assert int(after_counts.pop(team.team_id)) == int(before_counts.pop(team.team_id)) + 1
    assert after_counts == before_counts


@pytest.mark.parametrize(
    "dataset,when",
    [
        ("team7", datetime(2023, 4, 1, 12, tzinfo=timezone.utc)),  # the mid-season break
        ("mini", datetime(2024, 4, 20, 12, tzinfo=timezone.utc)),  # after the last week
    ],
)
def test_reply_outside_the_calendar_changes_only_the_diagnostics(
    dataset, when, tmp_path, capsys
):
    """A reply sent in no calendar week makes no edge: it is counted as a kept
    message dropped from the calendar, and every table stays as it was."""
    data = Path(__file__).parent / "data" / dataset
    work = tmp_path / dataset
    shutil.copytree(data, work)
    config = json.loads((work / "config.json").read_text())
    team = config["teams"][0]
    people = team["identity_map"]
    day, entries, root = next(
        (day, entries, entry)
        for day in sorted((work / team["chat_export"]).glob("*/*.json"))
        for entries in [json.loads(day.read_text())]
        for entry in entries
        if entry.get("user") in people
        and "subtype" not in entry
        and entry["user"] not in config.get("excluded_handles", ())
        and float(entry["ts"]) < when.timestamp()
    )
    handle = next(h for h, p in sorted(people.items()) if p != people[root["user"]])
    reply = {"user": handle, "ts": f"{when.timestamp():.4f}", "thread_ts": root["ts"]}
    day.write_text(json.dumps(entries + [reply]), encoding="utf-8")

    def run(root_dir):
        cfg = str(root_dir / "config.json")
        capsys.readouterr()
        assert main(["validate", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        out = tmp_path / f"out_{root_dir.parent.name}"
        command = ["report", "--config", cfg, "--format", "structured-data", "--out", str(out)]
        assert main(command) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return lines, json.loads(files.pop("report.json")), files

    before_lines, before_report, before_files = run(data)
    after_lines, after_report, after_files = run(work)
    assert after_files == before_files
    before_diag, after_diag = before_report.pop("diagnostics"), after_report.pop("diagnostics")
    assert after_report == before_report
    bumped = ("events_dropped_out_of_calendar", "messages_kept", "messages_seen")
    assert after_diag == {**before_diag, **{k: before_diag.get(k, 0) + 1 for k in bumped}}
    # validate: one more message for the team, the same communication events
    count = re.compile(rf"team {team['team_id']}: (\d+) messages, (.*)")

    def team_line(lines):
        kept, rest = next(m.groups() for m in map(count.match, lines) if m)
        return int(kept), rest

    kept, rest = team_line(before_lines)
    assert team_line(after_lines) == (kept + 1, rest)


def test_relabelling_roster_members_leaves_every_table_unchanged(mini_dir, tmp_path):
    """Person ids are labels only: renaming every member, in the roster, the
    identity map, the commit authors and the peer feedback, in an order that
    reverses their sorting, leaves every report table byte-identical."""
    work = tmp_path / "mini"
    shutil.copytree(mini_dir, work)
    config = json.loads((work / "config.json").read_text())
    new = {}
    for team in config["teams"]:
        members = sorted(team["members"])
        new.update({p: f"{team['team_id']}-{len(members) - i}" for i, p in enumerate(members)})
        team["members"] = [new[p] for p in team["members"]]
        team["identity_map"] = {h: new[p] for h, p in team["identity_map"].items()}
        repo_path = work / team["repo_activity"]
        repo = json.loads(repo_path.read_text())
        for commit in repo["commits"]:
            commit["author"] = new.get(commit["author"], commit["author"])
        repo_path.write_text(json.dumps(repo), encoding="utf-8")
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    feedback = work / config["feedback"]
    lines = feedback.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    feedback.write_text(
        "\n".join([lines[0]] + [",".join([s, new[a], new[b], r]) for s, a, b, r in rows]) + "\n",
        encoding="utf-8",
    )

    def tables(root):
        out = tmp_path / f"out_{root.parent.name}"
        assert main(["report", "--config", str(root / "config.json"), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    assert tables(work) == tables(mini_dir)


def test_reversing_week_ids_changes_only_the_week_labels(mini_dir, tmp_path):
    """The STC trend follows the calendar, not the week ids: numbering the weeks
    backwards, each keeping its dates, leaves every stc, census and report
    table as it was but for the week labels (ISO week numbers restart in
    January, so a season over two semesters has ids out of time order)."""
    work = tmp_path / "mini"
    shutil.copytree(mini_dir, work)
    config = json.loads((work / "config.json").read_text())
    calendar = config["calendar"]
    relabel = {w["week_id"]: len(calendar["weeks"]) + 1 - w["week_id"] for w in calendar["weeks"]}
    for week in calendar["weeks"]:
        week["week_id"] = relabel[week["week_id"]]
    for sprint in calendar["sprints"]:
        sprint["weeks"] = [relabel[w] for w in sprint["weeks"]]
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")

    def tables(root, out, label):
        for command in ("report", "stc", "census"):
            assert main([command, "--config", str(root / "config.json"), "--out", str(out)]) == 0
        files = {}
        for path in out.iterdir():
            rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
            if rows and "week" in rows[0]:
                column = rows[0].index("week")
                for row in rows[1:]:
                    row[column] = str(label(int(row[column])))
            files[path.name] = rows
        return files

    relabelled = tables(work, tmp_path / "out_reversed", relabel.get)
    assert relabelled == tables(mini_dir, tmp_path / "out", lambda week: week)
    assert any(name.startswith("series_stc_") for name in relabelled)
