"""Command-line interface.

Subcommands::

    teamnets validate  --config cfg.json
    teamnets stc       --config cfg.json --out out/
    teamnets census    --config cfg.json --out out/
    teamnets correlate --config cfg.json --out out/ [--format ...] [--exclude-teams a,b]
    teamnets report    --config cfg.json --out out/ [--format ...] [--exclude-teams a,b]

Every subcommand also takes ``--exclude-sprints 1``.

Every subcommand parses the teams' chat exports in one stage,
``report.season_events``: in forked worker processes, one per CPU the
process may use and at most one per team, or in-process. The worker count
is worked out, not set, and no output, message or exit code depends on it.

Exit codes: 0 success, 1 validation failure, 2 input error (also an input or
output path the system cannot use), 3 internal error (an unexpected
exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .config import PipelineConfig, excluded_team_ids, load_config
from .errors import InputError, ValidationError
from .ingestion import (
    Diagnostics,
    parse_feedback,
    parse_outcomes,
    parse_repo_weeks,
    parse_work_logs,
)
from .network import write_edge_list
from .report import (
    FORMATS,
    emit,
    run_pipeline,
    season_events,
    sprint_census,
    team_chat,
    team_stc,
    write_tables,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamnets",
        description="Team communication mining: STC scores, triad censuses, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "parse all inputs and print an integrity report"),
        ("stc", "compute weekly STC series"),
        ("census", "compute sprint censuses and edge lists"),
        ("correlate", "compute correlation tables"),
        ("report", "run the full pipeline"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="pipeline config file")
        if name != "validate":
            cmd.add_argument("--out", required=True, help="output directory")
        if name in ("correlate", "report"):
            cmd.add_argument(
                "--format",
                choices=FORMATS,
                default="delimited-table",
                help="output format (default: delimited-table)",
            )
            cmd.add_argument(
                "--exclude-teams",
                default=None,
                help="comma-separated team ids to exclude from census correlation variants",
            )
        cmd.add_argument(
            "--exclude-sprints",
            default=None,
            help="comma-separated sprint ids to exclude in addition to the config",
        )
    return parser


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    if args.exclude_sprints:
        try:
            extra = [int(s) for s in args.exclude_sprints.split(",") if s]
        except ValueError:
            raise InputError(f"--exclude-sprints must be integers: {args.exclude_sprints!r}")
        if unknown := sorted(set(extra) - {s.sprint_id for s in config.calendar.sprints}):
            raise ValidationError(f"--exclude-sprints references unknown sprint(s) {unknown}")
        config.calendar = config.calendar.with_excluded(extra)
    if getattr(args, "exclude_teams", None) is not None:
        wanted = [t for t in args.exclude_teams.split(",") if t]
        config.exclude_teams = excluded_team_ids(wanted, config.team_ids(), "--exclude-teams")
    return config


def _cmd_validate(config: PipelineConfig) -> int:
    diag = Diagnostics()
    failures = 0
    for team_cfg, chat in zip(config.teams, season_events(config)):
        team = team_cfg.team_id
        try:
            _, kept, replies = team_chat(chat, diag)
            _, commits, mrs = parse_repo_weeks(
                team_cfg.repo_activity, team_cfg.roster, config.calendar, diag
            )
            print(
                f"team {team}: {kept} messages, {commits} commits, {mrs} merge requests, "
                f"{replies} communication events"
            )
        except ValidationError as exc:
            failures += 1
            print(f"team {team}: VALIDATION FAILURE: {exc}", file=sys.stderr)
    if config.outcomes_path:
        parse_outcomes(config.outcomes_path, config.calendar, config.team_ids(), diag)
    if config.feedback_path:
        parse_feedback(
            config.feedback_path, config.calendar, [t.roster for t in config.teams], diag
        )
    if config.work_logs_path:
        parse_work_logs(config.work_logs_path, config.team_ids(), diag)
    for key in sorted(diag.counts):
        print(f"  {key}: {diag.counts[key]}")
    for note in diag.notes:
        print(f"  note: {note}")
    return 1 if failures else 0


def _cmd_stc(config: PipelineConfig, out: Path) -> list[Path]:
    weeks = config.calendar.included_weeks()
    rows = []
    for team_cfg, chat in zip(config.teams, season_events(config)):
        scores = team_stc(team_cfg, config, team_chat(chat)[0], weeks)
        rows.extend((team_cfg.team_id, week, scores[week]) for week in weeks)
    return write_tables(out, {"stc_weekly": (("team", "week", "stc_score"), rows)}, "delimited-table")


def _cmd_census(config: PipelineConfig, out: Path) -> list[Path]:
    cal = config.calendar
    rows = []
    edge_lists = {}
    for team_cfg, chat in zip(config.teams, season_events(config)):
        team = team_cfg.team_id
        weekly = team_chat(chat)[0]
        for sprint in cal.included_sprints():
            net, census = sprint_census(weekly, team_cfg.roster, cal, sprint)
            edge_lists[f"edges_{team}_sprint{sprint}.tsv"] = net
            # a roster too small for triads keeps its row with blank cells
            rows.append((team, sprint, *(census or (None,) * 4)))
    table = (("team", "sprint", *(f"rel_{k}_edges" for k in range(4))), rows)
    written = write_tables(out, {"census_sprint": table}, "delimited-table")
    for name, net in edge_lists.items():  # into the directory write_tables made
        write_edge_list(net, out / name)
    return written


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (exit 2, message on stderr) or --help
        return exc.code
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "validate":
            return _cmd_validate(config)
        out = Path(args.out)
        if args.command == "stc":
            written = _cmd_stc(config, out)
        elif args.command == "census":
            written = _cmd_census(config, out)
        else:
            select = (lambda name: "correlations" in name) if args.command == "correlate" else None
            written = emit(run_pipeline(config), args.format, out, select)
        for path in written:
            print(f"wrote {path}")
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path the input names or the output needs is unusable
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other exception is a fault in teamnets, not in its input: its own
        # exit code keeps it apart from a validation failure.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
