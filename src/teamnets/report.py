"""Season-level orchestration: run every analysis and emit result tables.

The pipeline parses all configured inputs, groups each team's replies into
weekly communication edges, computes weekly STC scores and sprint censuses
per team, correlates them with delivery outcomes, compares increasing-
against decreasing-trend teams, flags anomalous teams, and can write
everything as delimited tables or structured JSON. Output ordering is
bit-stable: teams alphabetical, sprints and weeks in calendar order, fixed
float formatting.

Chat parsing, the costliest step, is one season-level stage for every
command (``season_events``): each team's export is parsed in a forked worker
process, one per CPU this process may use and at most one per team, or
in-process where there is one CPU or team, no ``os.fork``, or another thread
running. Repo parsing, STC, censuses and tables stay in the calling process.
A team's chat diagnostics and error are taken (``team_chat``) where a serial
run reaches that team, so no output, message or exit code depends on the
worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import marshal
import math
import os
import threading
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, NoReturn, Sequence

from .config import AnomalyThresholds, PipelineConfig, TeamConfig
from .errors import InputError, ValidationError
from .ingestion import (
    Diagnostics,
    Roster,
    SprintCalendar,
    load_json,
    parse_chat_edges,
    parse_feedback,
    parse_outcomes,
    parse_repo_weeks,
    parse_work_logs,
    read_value,
    value_path,
)
from .network import (
    CommunicationNetwork,
    WeeklyEdges,
    window_network,
)
from .stats import mann_whitney_u, p_stars, pearson
from .stc import weekly_team_scores, year_summary
from .triad import (
    RelativeCensus,
    census_closed_form,
    mean_weekly_relative_census,
    relative_census,
)

__all__ = [
    "CorrelationCell",
    "TeamSummary",
    "AnomalyFlag",
    "UTestSummary",
    "AnalysisReport",
    "season_events",
    "team_chat",
    "team_stc",
    "sprint_census",
    "run_pipeline",
    "detect_anomalies",
    "emit",
    "write_tables",
    "load_report",
]

KIND_HIGH_STC_LOW_DELIVERY = "high-stc-low-delivery"
KIND_LOW_STC_HIGH_PAIRING = "low-stc-high-pairing"

# A sample series, team -> sprint -> value; an undefined value is None or absent.
Series = Mapping[str, Mapping[int, float | None]]


@dataclass(frozen=True)
class CorrelationCell:
    """One table cell: r with sample size, p-value and significance stars."""

    label: str
    r: float | None
    n: int
    p: float | None
    stars: str


@dataclass(frozen=True)
class TeamSummary:
    team_id: str
    pair_programming_hours: float | None
    mean_stc: float | None
    stories_passed_total: int | None
    mean_team_score: float | None
    trend_slope: float | None


@dataclass(frozen=True)
class AnomalyFlag:
    team_id: str
    kind: str
    stc_rank: int
    evidence_metric: str
    evidence_rank: int


@dataclass(frozen=True)
class UTestSummary:
    increasing_teams: tuple[str, ...]
    decreasing_teams: tuple[str, ...]
    u: float | None
    p: float | None
    method: str


@dataclass(frozen=True)
class AnalysisReport:
    teams: tuple[str, ...]
    weeks: tuple[int, ...]
    sprints: tuple[int, ...]
    stc_weekly: dict[str, dict[int, float | None]]
    stc_sprint_mean: dict[str, dict[int, float | None]]
    sprint_census: dict[str, dict[int, RelativeCensus | None]]
    mean_weekly_census: dict[str, dict[int, RelativeCensus | None]]
    stc_table: tuple[CorrelationCell, ...]
    census_sprint_table: tuple[CorrelationCell, ...]
    census_mean_weekly_table: tuple[CorrelationCell, ...]
    census_sprint_table_excluding: tuple[CorrelationCell, ...]
    census_mean_weekly_table_excluding: tuple[CorrelationCell, ...]
    excluded_teams: tuple[str, ...]
    lagged_table: tuple[CorrelationCell, ...]
    team_summaries: tuple[TeamSummary, ...]
    anomalies: tuple[AnomalyFlag, ...]
    trend_utest: UTestSummary
    diagnostics: dict[str, int]
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# Season chat stage: every team's chat parse, in forked workers
# ---------------------------------------------------------------------------

# A team's chat parse in plain values, as a worker sends it: the weekly edges,
# kept-message and reply counts, diagnostic counts and notes, and the
# (class name, message) of the error the parse raised, or None.
TeamChat = tuple[
    WeeklyEdges | None, int, int, dict[str, int], list[str], tuple[str, str] | None
]

_CHAT_ERRORS = (InputError, ValidationError, OSError)


def _parse_team_chat(team: TeamConfig, config: PipelineConfig) -> TeamChat:
    diag = Diagnostics()
    weekly, kept, replies, error = None, 0, 0, None
    try:
        weekly, kept, replies = parse_chat_edges(
            team.chat_export, team.roster, config.calendar, config.excluded_handles, diag
        )
    except _CHAT_ERRORS as exc:
        error = (next(c.__name__ for c in _CHAT_ERRORS if isinstance(exc, c)), str(exc))
    return weekly, kept, replies, dict(diag.counts), diag.notes, error


def team_chat(chat: TeamChat, diag: Diagnostics | None = None) -> tuple[WeeklyEdges, int, int]:
    """A team's weekly edges, kept-message count and reply count from its chat
    parse. Its diagnostics go into ``diag`` first, and its error is raised here,
    so each team's counters and error come where a serial parse would give them."""
    weekly, kept, replies, counts, notes, error = chat
    if diag is not None:
        for key, n in counts.items():
            diag.bump(key, n)
        diag.notes.extend(notes)
    if error is not None:
        name, message = error
        raise {c.__name__: c for c in _CHAT_ERRORS}.get(name, RuntimeError)(message)
    return weekly, kept, replies


def _chat_workers(n_teams: int) -> int:
    """The chat stage's process count: the CPUs this process may use, at most
    one per team; 1, in-process, where there is no fork or another thread runs
    (a forked thread's locks could be held forever)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(cpus, n_teams)


def season_events(config: PipelineConfig) -> Iterator[TeamChat]:
    """Every team's chat parse, in team order; ``team_chat`` reads each one.

    With one worker the teams are parsed in-process, each when it is asked
    for. Otherwise the first request forks n workers, worker w parsing teams
    w, w + n, ... one at a time, and every worker has ended and been reaped
    before the first result is given.
    """
    jobs = _chat_workers(len(config.teams))
    if jobs <= 1:
        for team in config.teams:
            yield _parse_team_chat(team, config)
    else:
        yield from _parse_in_workers(config, jobs)


def _chat_worker(config: PipelineConfig, indices: range, fd: int) -> NoReturn:
    """Parse each team of ``indices`` and send (index, TeamChat) down the pipe
    ``fd`` as it is done; then end the process, without returning."""
    code = 1
    try:
        with open(fd, "wb") as out:
            for i in indices:
                team = config.teams[i]
                try:
                    chat = _parse_team_chat(team, config)
                except Exception as exc:  # a fault in teamnets: the parent raises it
                    failure = f"chat worker of team {team.team_id}: {type(exc).__name__}: {exc}"
                    chat = (None, 0, 0, {}, [], ("RuntimeError", failure))
                marshal.dump((i, chat), out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _parse_in_workers(config: PipelineConfig, jobs: int) -> list[TeamChat]:
    """Each team's chat parse from ``jobs`` forked workers, one pipe each. A
    team whose worker ended without sending it gets a RuntimeError naming it."""
    import select
    import signal

    teams = config.teams
    config.calendar._thresholds  # built once here, inherited by every worker
    received: dict[int, bytearray] = {}  # read end of each worker's pipe -> its bytes
    pids: list[int] = []
    try:
        for w in range(jobs):
            read_fd, write_fd = os.pipe()
            received[read_fd] = bytearray()
            try:
                if (pid := os.fork()) == 0:
                    _chat_worker(config, range(w, len(teams), jobs), write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        sending = set(received)
        while sending:
            for fd in select.select(list(sending), [], [])[0]:
                if chunk := os.read(fd, 1 << 20):
                    received[fd] += chunk
                else:
                    sending.discard(fd)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in received:
            os.close(fd)
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids}
    chats: list[TeamChat | None] = [None] * len(teams)
    for data in received.values():
        stream = io.BytesIO(data)
        while stream.tell() < len(data):
            try:
                i, chat = marshal.load(stream)
            except (EOFError, ValueError):  # a record cut short when its worker died
                break
            chats[i] = chat
    for i, chat in enumerate(chats):
        if chat is None:
            failure = (
                f"chat worker of team {teams[i].team_id} ended with exit code "
                f"{codes[pids[i % jobs]]} before sending its result"
            )
            chats[i] = (None, 0, 0, {}, [], ("RuntimeError", failure))
    return chats


# ---------------------------------------------------------------------------
# Per-team steps, shared by the pipeline and the single-stage subcommands
# ---------------------------------------------------------------------------


def team_stc(
    team: TeamConfig,
    config: PipelineConfig,
    weekly: WeeklyEdges,
    weeks: Sequence[int],
    diag: Diagnostics | None = None,
) -> dict[int, float | None]:
    """Parse a team's repo activity and score its weekly STC."""
    mrs_by_week = parse_repo_weeks(team.repo_activity, team.roster, config.calendar, diag)[0]
    return weekly_team_scores(
        mrs_by_week, weekly, team.roster, weeks, config.self_dependency, diag
    )


def sprint_census(
    weekly: WeeklyEdges,
    roster: Roster,
    cal: SprintCalendar,
    sprint: int,
    diag: Diagnostics | None = None,
) -> tuple[CommunicationNetwork, RelativeCensus | None]:
    """A sprint's network and relative census; None for rosters under 3 members."""
    net = window_network(weekly, roster, cal.sprint_weeks(sprint))
    if net.n < 3:
        if diag is not None:
            diag.bump("censuses_skipped_small_roster")
        return net, None
    return net, relative_census(census_closed_form(net))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _mean(values: Collection[float]) -> float | None:
    """Mean of the values; None when there are none or their sum overflows."""
    try:
        return math.fsum(values) / len(values) if values else None
    except OverflowError:
        return None


def _cell(
    label: str,
    x_of: Series,
    y_of: Series,
    teams: Sequence[str],
    sprints: Sequence[int],
) -> CorrelationCell:
    """Pearson r of x against y over the (team, sprint) points where both are
    defined, in team-then-sprint order; r and p are None where it is undefined."""
    pairs = [
        (x, y)
        for team in teams
        for sprint in sprints
        if (x := x_of.get(team, {}).get(sprint)) is not None
        and (y := y_of.get(team, {}).get(sprint)) is not None
    ]
    try:
        res = pearson([x for x, _ in pairs], [y for _, y in pairs])
    except ValueError:
        return CorrelationCell(label=label, r=None, n=len(pairs), p=None, stars="")
    return CorrelationCell(
        label=label, r=res.r, n=res.n, p=res.p_two_tailed, stars=p_stars(res.p_two_tailed)
    )


def _census_table(
    census: Mapping[str, Mapping[int, RelativeCensus | None]],
    outcomes: Mapping[str, Series],
    teams: Sequence[str],
    sprints: Sequence[int],
) -> tuple[CorrelationCell, ...]:
    """Each outcome against each census component, over the teams' sprints."""
    components = [
        {t: {s: c[k] for s, c in census[t].items() if c is not None} for t in teams}
        for k in range(4)
    ]
    return tuple(
        _cell(f"rel_{k}_edges~{label}", components[k], series, teams, sprints)
        for label, series in outcomes.items()
        for k in range(4)
    )


def _team_series(
    team_cfg: TeamConfig,
    config: PipelineConfig,
    chat: TeamChat,
    weeks: Sequence[int],
    diag: Diagnostics,
) -> tuple[
    dict[int, float | None],
    dict[int, float | None],
    dict[int, RelativeCensus | None],
    dict[int, RelativeCensus | None],
]:
    """A team's weekly STC, then its sprint-mean STC, sprint censuses and mean
    weekly censuses over the included sprints."""
    cal = config.calendar
    roster = team_cfg.roster
    weekly = team_chat(chat, diag)[0]
    stc = team_stc(team_cfg, config, weekly, weeks, diag)
    stc_mean: dict[int, float | None] = {}
    census: dict[int, RelativeCensus | None] = {}
    mean_weekly: dict[int, RelativeCensus | None] = {}
    for sprint in cal.included_sprints():
        sprint_weeks = cal.sprint_weeks(sprint)
        stc_mean[sprint] = _mean([v for w in sprint_weeks if (v := stc.get(w)) is not None])
        census[sprint] = sprint_census(weekly, roster, cal, sprint, diag)[1]
        if census[sprint] is None:  # a roster too small for triads
            mean_weekly[sprint] = None
            continue
        mean_weekly[sprint] = mean_weekly_relative_census([
            relative_census(census_closed_form(window_network(weekly, roster, (w,))))
            for w in sprint_weeks
        ])
    return stc, stc_mean, census, mean_weekly


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Execute the full analysis for every configured team."""
    diag = Diagnostics()
    cal = config.calendar
    teams = config.team_ids()
    sprints = cal.included_sprints()
    weeks = cal.included_weeks()

    if config.outcomes_path is None:
        raise InputError("missing input: no outcomes table configured")
    if config.feedback_path is None:
        raise InputError("missing input: no peer-feedback table configured")
    outcomes, year_level = parse_outcomes(config.outcomes_path, cal, teams, diag)
    comm_rating = parse_feedback(
        config.feedback_path, cal, [t.roster for t in config.teams], diag
    )
    work_hours = (
        parse_work_logs(config.work_logs_path, teams, diag) if config.work_logs_path else {}
    )

    by_team = {
        t.team_id: _team_series(t, config, chat, weeks, diag)
        for t, chat in zip(config.teams, season_events(config))
    }
    stc_weekly, stc_sprint_mean, sprint_censuses, mean_weekly_census = (
        {team: series[k] for team, series in by_team.items()} for k in range(4)
    )

    pct_passed: dict[str, dict[int, float]] = {team: {} for team in teams}
    score_of: dict[str, dict[int, float]] = {team: {} for team in teams}
    for team in teams:
        for sprint, (committed, passed, score) in outcomes.get(team, {}).items():
            score_of[team][sprint] = score
            if committed == 0:
                diag.bump("sprints_zero_committed_points")
            else:
                pct_passed[team][sprint] = passed / committed

    cell = functools.partial(_cell, teams=teams, sprints=sprints)
    stc_table = (
        cell("pct_story_points_passed~mean_sprint_stc", stc_sprint_mean, pct_passed),
        cell("mean_peer_comm_rating~mean_sprint_stc", stc_sprint_mean, comm_rating),
        cell("mean_peer_comm_rating~pct_story_points_passed", pct_passed, comm_rating),
    )

    census_outcomes = {"pct_story_points_passed": pct_passed, "team_score": score_of}
    census_sprint_table = _census_table(sprint_censuses, census_outcomes, teams, sprints)
    census_mw_table = _census_table(mean_weekly_census, census_outcomes, teams, sprints)

    # the trend runs over calendar positions, since week ids need not follow time
    position = {week: i for i, week in enumerate(cal.week_ids(), 1)}
    summaries = []
    for team in teams:
        summary = year_summary({position[w]: v for w, v in stc_weekly[team].items()})
        stories, pair_from_outcomes = year_level.get(team, (None, None))
        pair_from_logs = work_hours.get(team)
        if (
            pair_from_outcomes is not None
            and pair_from_logs is not None
            and pair_from_outcomes != pair_from_logs
        ):
            diag.note(
                f"team {team}: pair hours differ between outcomes table "
                f"({pair_from_outcomes:g}) and work logs ({pair_from_logs:g}); "
                f"using the outcomes value"
            )
        pair_hours = pair_from_outcomes if pair_from_outcomes is not None else pair_from_logs
        summaries.append(
            TeamSummary(
                team_id=team,
                pair_programming_hours=pair_hours,
                mean_stc=summary.mean_stc,
                stories_passed_total=stories,
                mean_team_score=_mean(score_of[team].values()),
                trend_slope=summary.trend.slope if summary.trend else None,
            )
        )
    team_summaries = tuple(summaries)

    rankable = [
        s
        for s in team_summaries
        if s.pair_programming_hours is not None
        and s.mean_stc is not None
        and s.stories_passed_total is not None
    ]
    notes: list[str] = []
    if len(rankable) >= 3:
        anomalies = tuple(detect_anomalies(rankable, config.anomaly))
    else:
        anomalies = ()
        notes.append(
            f"anomaly detection skipped: only {len(rankable)} team(s) with complete metrics"
        )

    excluded = config.exclude_teams or tuple(sorted(f.team_id for f in anomalies))
    remaining = tuple(t for t in teams if t not in excluded)
    census_sprint_excl = _census_table(sprint_censuses, census_outcomes, remaining, sprints)
    census_mw_excl = _census_table(mean_weekly_census, census_outcomes, remaining, sprints)

    lagged_table: tuple[CorrelationCell, ...] = ()
    if config.include_lagged_table:
        next_pct = {
            team: {s: pct_passed[team].get(nxt) for s, nxt in zip(sprints, sprints[1:])}
            for team in teams
        }
        year_score = {s.team_id: dict.fromkeys(sprints, s.mean_team_score) for s in team_summaries}
        lagged_table = (
            cell("next_sprint_pct_passed~mean_peer_comm_rating", comm_rating, next_pct),
            cell("mean_team_score_year~mean_peer_comm_rating", comm_rating, year_score),
        )

    utest = _trend_utest(team_summaries, notes)

    return AnalysisReport(
        teams=teams,
        weeks=weeks,
        sprints=sprints,
        stc_weekly=stc_weekly,
        stc_sprint_mean=stc_sprint_mean,
        sprint_census=sprint_censuses,
        mean_weekly_census=mean_weekly_census,
        stc_table=stc_table,
        census_sprint_table=census_sprint_table,
        census_mean_weekly_table=census_mw_table,
        census_sprint_table_excluding=census_sprint_excl,
        census_mean_weekly_table_excluding=census_mw_excl,
        excluded_teams=tuple(excluded),
        lagged_table=lagged_table,
        team_summaries=team_summaries,
        anomalies=anomalies,
        trend_utest=utest,
        diagnostics=dict(sorted(diag.counts.items())),
        notes=tuple(notes + diag.notes),
    )


def _trend_utest(summaries: Sequence[TeamSummary], notes: list[str]) -> UTestSummary:
    increasing: list[str] = []
    decreasing: list[str] = []
    stories: dict[str, int] = {}
    for s in summaries:
        if s.trend_slope is None:
            notes.append(f"team {s.team_id}: no STC trend (fewer than 2 defined weeks)")
            continue
        if s.trend_slope == 0:  # -0.0 too: a flat trend is neither direction
            notes.append(f"team {s.team_id}: flat STC trend; excluded from U test")
            continue
        if s.stories_passed_total is None:
            notes.append(f"team {s.team_id}: no stories-passed total; excluded from U test")
            continue
        stories[s.team_id] = s.stories_passed_total
        (increasing if s.trend_slope > 0 else decreasing).append(s.team_id)
    if not increasing or not decreasing:
        return UTestSummary(
            increasing_teams=tuple(increasing),
            decreasing_teams=tuple(decreasing),
            u=None,
            p=None,
            method="undefined",
        )
    res = mann_whitney_u(
        [float(stories[t]) for t in increasing], [float(stories[t]) for t in decreasing]
    )
    return UTestSummary(
        increasing_teams=tuple(increasing),
        decreasing_teams=tuple(decreasing),
        u=res.u,
        p=res.p_two_tailed,
        method=res.method,
    )


# ---------------------------------------------------------------------------
# Anomaly detection
# ---------------------------------------------------------------------------


def _dense_rank_desc(values: Mapping[str, float]) -> dict[str, int]:
    distinct = sorted(set(values.values()), reverse=True)
    rank_of = {v: i + 1 for i, v in enumerate(distinct)}
    return {team: rank_of[v] for team, v in values.items()}


def detect_anomalies(
    summaries: Sequence[TeamSummary],
    thresholds: AnomalyThresholds = AnomalyThresholds(),
) -> list[AnomalyFlag]:
    """Flag teams whose STC rank contradicts their delivery or pairing rank.

    Ranks are dense and descending by value. With T teams, the top band is
    ranks <= ceil(top_fraction * T) and the bottom band is ranks >=
    T - ceil(band * T) + 1. A team in the STC top band whose stories-passed
    rank falls in the bottom band is flagged high-stc-low-delivery; a team
    in the STC bottom band whose pair-programming-hours rank falls in the
    top band is flagged low-stc-high-pairing.
    """
    if len(summaries) < 3:
        raise ValidationError(f"anomaly detection needs >= 3 teams, got {len(summaries)}")
    for s in summaries:
        if s.mean_stc is None or s.stories_passed_total is None or s.pair_programming_hours is None:
            raise ValidationError(f"team {s.team_id} is missing a ranked metric")
    t_count = len(summaries)
    stc_rank = _dense_rank_desc({s.team_id: s.mean_stc for s in summaries})
    stories_rank = _dense_rank_desc(
        {s.team_id: float(s.stories_passed_total) for s in summaries}
    )
    pair_rank = _dense_rank_desc(
        {s.team_id: s.pair_programming_hours for s in summaries}
    )
    top_band = math.ceil(thresholds.top_fraction * t_count)
    bottom_band = math.ceil(thresholds.bottom_fraction * t_count)
    flags: list[AnomalyFlag] = []
    for s in sorted(summaries, key=lambda s: s.team_id):
        team = s.team_id
        if stc_rank[team] <= top_band and stories_rank[team] >= t_count - bottom_band + 1:
            flags.append(
                AnomalyFlag(
                    team_id=team,
                    kind=KIND_HIGH_STC_LOW_DELIVERY,
                    stc_rank=stc_rank[team],
                    evidence_metric="stories_passed",
                    evidence_rank=stories_rank[team],
                )
            )
        if stc_rank[team] >= t_count - top_band + 1 and pair_rank[team] <= top_band:
            flags.append(
                AnomalyFlag(
                    team_id=team,
                    kind=KIND_LOW_STC_HIGH_PAIRING,
                    stc_rank=stc_rank[team],
                    evidence_metric="pair_programming_hours",
                    evidence_rank=pair_rank[team],
                )
            )
    return flags


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

FORMATS = ("delimited-table", "structured-data")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# A result table: its column names and its rows.
Table = tuple[Sequence[str], Sequence[Sequence]]


def write_tables(out_dir: Path | str, tables: Mapping[str, Table], format: str) -> list[Path]:
    """Write each table into ``out_dir``, creating it; returns the paths in name
    order. A delimited table, ``<name>.csv``, is the header, then one line per
    row, each float with six decimals and each None blank; a structured one,
    ``<name>.json``, is a list of objects keyed by the column names."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"output directory not writable: {out}: {exc}") from None
    written: list[Path] = []
    for name in sorted(tables):
        columns, rows = tables[name]
        if format == "delimited-table":
            path = out / f"{name}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows([_fmt(value) for value in row] for row in rows)
        else:
            path = out / f"{name}.json"
            _write_json(path, [dict(zip(columns, row)) for row in rows])
        written.append(path)
    return written


_CELL_COLUMNS = "pair r n p stars"


def _table(columns: str, records: Iterable, *extra) -> Table:
    """The space-separated column names and one row per record: its fields in
    order, each tuple comma-joined, then ``extra``. The columns name the
    record's fields in field order, so a new field needs a new column."""
    rows = [
        tuple(",".join(v) if isinstance(v, tuple) else v for v in dataclasses.astuple(rec))
        + extra
        for rec in records
    ]
    return columns.split(), rows


def _tables(report: AnalysisReport) -> dict[str, Table]:
    """Every result table of the report, by file name."""
    excluded = ",".join(report.excluded_teams)
    excl_columns = _CELL_COLUMNS + " excluded_teams"
    tables = {
        "stc_correlations": _table(_CELL_COLUMNS, report.stc_table),
        "census_sprint_correlations": _table(_CELL_COLUMNS, report.census_sprint_table),
        "census_mean_weekly_correlations": _table(_CELL_COLUMNS, report.census_mean_weekly_table),
        "census_sprint_correlations_excluding": _table(
            excl_columns, report.census_sprint_table_excluding, excluded
        ),
        "census_mean_weekly_correlations_excluding": _table(
            excl_columns, report.census_mean_weekly_table_excluding, excluded
        ),
        "team_summary": _table(
            "team pair_programming_hours mean_stc_score stories_passed mean_team_score"
            " stc_trend_slope",
            report.team_summaries,
        ),
        "trend_utest": _table("increasing_teams decreasing_teams u p method", [report.trend_utest]),
        "anomalies": _table("team kind stc_rank evidence_metric evidence_rank", report.anomalies),
    }
    if report.lagged_table:
        tables["lagged_correlations"] = _table(_CELL_COLUMNS, report.lagged_table)
    return tables


def _series(report: AnalysisReport) -> dict[str, Table]:
    census_cols = ["sprint"] + [f"rel_{k}_edges" for k in range(4)] + [
        f"mean_weekly_rel_{k}_edges" for k in range(4)
    ]
    blank = (None,) * 4
    series: dict[str, Table] = {}
    for team in report.teams:
        series[f"series_stc_{team}"] = (
            ["week", "stc_score"],
            [(w, report.stc_weekly[team].get(w)) for w in report.weeks],
        )
        series[f"series_census_{team}"] = (
            census_cols,
            [
                (
                    sprint,
                    *(report.sprint_census[team].get(sprint) or blank),
                    *(report.mean_weekly_census[team].get(sprint) or blank),
                )
                for sprint in report.sprints
            ],
        )
    return series


def emit(
    report: AnalysisReport,
    format: str,
    out_dir: Path | str,
    select: Callable[[str], bool] | None = None,
) -> list[Path]:
    """Write tables and per-team series files; returns the paths written.

    ``select`` picks the names of the files to write (default: all): the
    tables, the series and, in the structured-data format, ``report``, the
    whole report as ``report.json`` after the tables.
    """
    selected = select or (lambda name: True)
    files = {**_tables(report), **_series(report)}
    written = write_tables(out_dir, {n: t for n, t in files.items() if selected(n)}, format)
    if format == "structured-data" and selected("report"):
        path = Path(out_dir) / "report.json"
        _write_json(path, _to_json(report))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Structured round trip
# ---------------------------------------------------------------------------


def _to_json(value):
    """JSON-ready form of a report value: dataclasses become objects, tuples
    lists, and dict keys strings (json.dumps would sort int keys as numbers)."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _to_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


_type_hints = functools.cache(typing.get_type_hints)

# The kind, as ingestion.KINDS names and tests it, of each leaf type in a report.
_LEAF_KINDS = {str: "a string", int: "an integer", float: "a number"}


@functools.cache
def _shape(tp) -> tuple[bool, type, str, type | None, tuple]:
    """Of annotated type ``tp``: whether it is optional (X | None), then of X
    its kind, its origin and its arguments."""
    optional = typing.get_origin(tp) in (typing.Union, types.UnionType)
    if optional:
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    origin = typing.get_origin(tp)
    if dataclasses.is_dataclass(tp) or origin is dict:
        kind = "an object"
    else:
        kind = "an array" if origin is tuple else _LEAF_KINDS[tp]
    return optional, tp, kind, origin, typing.get_args(tp)


def _dict_key(tp, key: str, where: str):
    """A JSON object key as the dict key type ``tp``; an int key is its decimal text."""
    if tp is str:
        return key
    try:
        if str(number := int(key)) == key:
            return number
    except ValueError:
        pass
    raise InputError(f"{where} keys must be integers, got {key!r}")


def _from_json(tp, node, key, where: str):
    """node[key] rebuilt as annotated type ``tp`` from its ``_to_json`` form.
    A value of another kind, a missing one or None where ``tp`` is not
    optional included, is an InputError naming its path (``where`` is node's)."""
    optional, tp, kind, origin, args = _shape(tp)
    if optional and (node.get(key, ...) if type(node) is dict else node[key]) is None:
        return None
    value = read_value(node, key, where, kind, ...)
    path = value_path(where, key)
    if dataclasses.is_dataclass(tp):
        return _dataclass_from_json(tp, value, path)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_from_json(args[0], value, i, path) for i in range(len(value)))
        if len(value) != len(args):
            raise InputError(f"{path} must be an array of {len(args)} values, got {value!r}")
        return tuple(_from_json(a, value, i, path) for i, a in enumerate(args))
    if origin is dict:
        return {_dict_key(args[0], k, path): _from_json(args[1], value, k, path) for k in value}
    return int(value) if tp is int else value


def _dataclass_from_json(tp, obj: dict, where: str):
    hints = _type_hints(tp)
    fields = dataclasses.fields(tp)
    return tp(**{f.name: _from_json(hints[f.name], obj, f.name, where) for f in fields})


def load_report(path: Path | str) -> AnalysisReport:
    """Re-parse a structured report.json written by emit(); a value of another
    kind than the report holds there is an InputError naming the file and path."""
    data = load_json(path)  # its errors name the file already
    try:
        if type(data) is not dict:
            raise InputError("report must be a JSON object")
        return _dataclass_from_json(AnalysisReport, data, "")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
