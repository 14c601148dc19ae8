"""Command-line interface.

Subcommands::

    teamnets validate  --config cfg.json
    teamnets stc       --config cfg.json --out out/
    teamnets census    --config cfg.json --out out/
    teamnets correlate --config cfg.json --out out/ [--format ...] [--exclude-teams a,b]
    teamnets report    --config cfg.json --out out/ [--format ...] [--exclude-teams a,b]

Every subcommand also takes ``--exclude-sprints 1``.

Every subcommand passes ``report.season_stage`` one per-team step defined in
``report``: ``team_validation``, ``team_scores`` (stc), ``team_chat``
(census) or ``team_stc`` (correlate and report). The stage runs in forked
worker processes, one per CPU the process may use and at most one per team,
or in-process. No output, message or exit code depends on the worker count.
The stage applies each team's diagnostic counts, notes and error itself, and
gives each command (team, value) pairs in team order. ``validate`` parses
the outcomes, feedback and work-log tables while the workers run, and gives
their error, counters and notes after the teams', as a serial run would.
It prints the run's notes on stdout after its counters; every other
subcommand prints them on stderr as ``note: <text>``.

Exit codes: 0 success, 1 validation failure, 2 input error (also an input or
output path the system cannot use, or a closed standard output), 3 internal
error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .config import PipelineConfig, excluded_team_ids, load_config
from .errors import InputError, ValidationError
from .ingestion import Diagnostics
from .network import write_edge_list
from .report import (
    BLANK_CENSUS,
    CENSUS_COLUMNS,
    FORMATS,
    emit,
    parse_tables,
    run_pipeline,
    season_stage,
    sprint_census,
    team_chat,
    team_scores,
    team_validation,
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
    diag, tables = Diagnostics(), Diagnostics()
    failures = 0
    table_error = None
    with season_stage(config, team_validation, diag) as results:
        # The tables are parsed while the workers run the teams' steps; their
        # error, counts and notes come after the teams', as in a serial run.
        try:
            parse_tables(config, tables)
        except (InputError, ValidationError, OSError) as exc:
            table_error = exc
        for _, (valid, line) in results:
            failures += not valid
            print(line, file=sys.stdout if valid else sys.stderr)
    if table_error is not None:
        raise table_error
    diag.counts.update(tables.counts)
    diag.notes += tables.notes
    for key in sorted(diag.counts):
        print(f"  {key}: {diag.counts[key]}")
    for note in diag.notes:
        print(f"  note: {note}")
    return 1 if failures else 0


def _cmd_stc(config: PipelineConfig, out: Path) -> tuple[list[Path], list[str]]:
    weeks = config.calendar.included_weeks()
    diag = Diagnostics()
    with season_stage(config, team_scores, diag) as results:
        rows = [(t.team_id, week, scores[week]) for t, scores in results for week in weeks]
    table = (("team", "week", "stc_score"), rows)
    return write_tables(out, {"stc_weekly": table}, "delimited-table"), diag.notes


def _cmd_census(config: PipelineConfig, out: Path) -> tuple[list[Path], list[str]]:
    cal = config.calendar
    diag = Diagnostics()
    rows = []
    edge_lists = {}
    with season_stage(config, team_chat, diag) as results:
        for team_cfg, weekly in results:
            team = team_cfg.team_id
            for sprint in cal.included_sprints():
                net, census = sprint_census(weekly, team_cfg.roster, cal, sprint, diag)
                edge_lists[f"edges_{team}_sprint{sprint}.tsv"] = net
                # a roster too small for triads keeps its row with blank cells
                rows.append((team, sprint, *(census or BLANK_CENSUS)))
    table = (("team", "sprint", *CENSUS_COLUMNS), rows)
    written = write_tables(out, {"census_sprint": table}, "delimited-table")
    for name, net in edge_lists.items():  # into the directory write_tables made
        write_edge_list(net, out / name)
    return written, diag.notes


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (exit 2, message on stderr) or --help
        return exc.code
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "validate":
            code = _cmd_validate(config)
        else:
            out = Path(args.out)
            if args.command == "stc":
                written, notes = _cmd_stc(config, out)
            elif args.command == "census":
                written, notes = _cmd_census(config, out)
            else:
                report = run_pipeline(config)
                correlate = args.command == "correlate"
                select = (lambda name: "correlations" in name) if correlate else None
                written, notes = emit(report, args.format, out, select), report.notes
            for path in written:
                print(f"wrote {path}")
            for note in notes:
                print(f"note: {note}", file=sys.stderr)
            code = 0
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # no process reads stdout any more
        # what stdout still buffers goes nowhere at exit, without a second error
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("output error: standard output closed", file=sys.stderr)
        return 2
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
