from __future__ import annotations

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
from teamnets.report import load_report, run_pipeline

from oracles import parse_chat_export_oracle


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


def test_cli_import_leaves_numpy_out():
    """numpy is a test dependency only: the command line must not load it."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, teamnets.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestValidate:
    def test_clean_fixture_exits_zero(self, team7_dir, capsys):
        assert main(["validate", "--config", str(team7_dir / "config.json")]) == 0
        out = capsys.readouterr().out
        assert "120 messages" in out
        assert "40 commits" in out
        assert "37 communication events" in out

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
            (("teams", 0, "identity_map"), ["HA1", "a1"], "team entry 0 'identity_map'"),
            (("teams", 0, "identity_map"), [["HA1", "a1"]], "team entry 0 'identity_map'"),
            (("options", "exclude_teams"), "alpha", "options.exclude_teams"),
            (("options", "exclude_teams"), 7, "options.exclude_teams"),
            (("teams", 1, "members"), "b1b2b3b4", "team entry 1 'members'"),
            (("teams", 1, "team_id"), ["beta"], "team entry 1 'team_id'"),
            (("teams", 1, "team_id"), "", "team entry 1 'team_id'"),
            (("teams", 1, "team_id"), ".", "team entry 1 'team_id'"),
            (("teams", 1, "team_id"), "..", "team entry 1 'team_id'"),
            (("teams", 1, "team_id"), "be/ta", "team entry 1 'team_id'"),
            (("teams", 1, "team_id"), "../x", "team entry 1 'team_id'"),
            (("teams", 1, "team_id"), "be\\ta", "team entry 1 'team_id'"),
            (("teams", 1, "team_id"), "be,ta", "team entry 1 'team_id'"),
            (("teams", 0, "chat_export"), 3, "team entry 0 'chat_export'"),
            (("excluded_handles",), "UBOT", "'excluded_handles'"),
            (("feedback",), ["feedback.csv"], "'feedback'"),
            (("options", "include_lagged_table"), "false", "options.include_lagged_table"),
            (("options", "self_dependency"), 0, "options.self_dependency"),
            (("calendar", "weeks", 0, "start"), 5, "calendar.weeks[0].start"),
            (("calendar", "weeks", 1, "end"), "next monday", "calendar.weeks[1].end"),
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
            "excluded_handles-str",
            "feedback-list",
            "lagged_table-str",
            "self_dependency-int",
            "week_start-int",
            "week_end-str",
        ],
    )
    def test_bad_config_value_is_named_input_error(
        self, mini_dir, tmp_path, capsys, path, value, field
    ):
        config = json.loads((mini_dir / "config.json").read_text())
        *parents, last = path
        node = config
        for key in parents:
            node = node[key]
        node[last] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"input error: {cfg}: " in err
        assert field in err


    @pytest.mark.parametrize(
        "kind,key,value,text",
        [
            ("commits", "sha", ["alpha001"], "commit entry 0 has invalid sha ['alpha001']"),
            ("commits", "author", ["a1"], "commit entry 0 has invalid author ['a1']"),
            (
                "merge_requests",
                "commits",
                [["alpha001"], "alpha002"],
                "merge request entry 0 has invalid commits entry ['alpha001']",
            ),
            (
                "merge_requests",
                "files",
                [["x.py"], "y.py"],
                "merge request entry 0 has invalid files entry ['x.py']",
            ),
            ("merge_requests", "files", "x.py", "merge request entry 0 has invalid files 'x.py'"),
            ("merge_requests", "id", ["M1"], "merge request entry 0 has invalid id ['M1']"),
            ("merge_requests", "id", {"id": "M1"}, "merge request entry 0 has invalid id {'id': 'M1'}"),
            ("merge_requests", "id", True, "merge request entry 0 has invalid id True"),
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

class TestSubcommands:
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

    def test_correlate_writes_only_correlation_tables(self, mini_dir, tmp_path):
        out = tmp_path / "corr"
        assert main(["correlate", "--config", str(mini_dir / "config.json"), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert all("correlations" in n for n in names)
        assert "stc_correlations.csv" in names

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
