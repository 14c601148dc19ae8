"""Season-level orchestration: run every analysis and emit result tables.

The pipeline parses all configured inputs, groups each team's replies into
weekly communication edges and computes weekly STC scores and sprint
censuses per team. It holds them with the delivery outcomes in one frame,
internal and never written: a row per (team, included sprint), in
team-then-sprint order, and a column per predictor and outcome, None where
undefined. A correlation cell is a label, an x and a y column and a team
subset; ``_cell``, the one place that pairs points, takes the rows of those
teams where both columns are defined. The report's sprint series are read
from the same rows. The pipeline also compares increasing- against
decreasing-trend teams, flags anomalous teams, and can write everything as
delimited tables or structured JSON. Output ordering is bit-stable: teams
alphabetical, sprints and weeks in calendar order, fixed float formatting.

Each command has one per-team step, defined here: ``team_validation``
(validate), ``team_scores`` (stc), ``team_chat`` (census) and ``team_stc``
(correlate and report). It runs in one season-level stage
(``season_stage``): in forked worker processes, one per CPU this process may
use and at most one per team, or in-process where there is one CPU or team,
no ``os.fork``, or another thread running. Censuses and tables stay in the
calling process, where the pipeline and ``validate`` parse the tables
(``parse_tables``) while the workers run; ``validate`` raises a table's error
only after every team's result. The workers claim teams from one queue: a
free worker takes the next team and sends its result, tagged with the team,
down its own pipe. The calling process waits on every pipe at once and keeps
the results that come before their turn (``season_stage`` says why no worker
can stall the command). The stage applies each team's result where a serial
run reaches that team: it adds the team's diagnostic counts and notes to the
command's and raises its error, then gives the command the (team, value)
pair. So no output, message or exit code depends on the worker count, and no
command handles a worker's raw result.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
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
    "season_stage",
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

# The census columns of every table and of the frame: a sprint census's
# shares, then (in the frame and series) the mean weekly census's; a roster
# too small for triads leaves them blank.
CENSUS_COLUMNS = tuple(f"rel_{k}_edges" for k in range(4))
_MEAN_WEEKLY = tuple(f"mean_weekly_{c}" for c in CENSUS_COLUMNS)
BLANK_CENSUS = (None,) * 4


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
# Season stage: each team's step of a command, in forked workers
# ---------------------------------------------------------------------------

# A command's per-team step: it reads the team's inputs, counts into the
# diagnostics it is given and returns plain values (of marshal's types).
TeamStep = Callable[[TeamConfig, PipelineConfig, Diagnostics], object]

# A team's step result in plain values, as a worker sends it: the step's
# value, the diagnostic counts and notes, and the (class name, message) of
# the error the step raised, or None.
TeamResult = tuple[object, dict[str, int], list[str], tuple[str, str] | None]

_TEAM_ERRORS = (InputError, ValidationError, OSError)


def _run_step(step: TeamStep, team: TeamConfig, config: PipelineConfig) -> TeamResult:
    diag = Diagnostics()
    value, error = None, None
    try:
        value = step(team, config, diag)
    except _TEAM_ERRORS as exc:
        error = (next(c.__name__ for c in _TEAM_ERRORS if isinstance(exc, c)), str(exc))
    return value, dict(diag.counts), diag.notes, error


def _team_result(result: TeamResult, diag: Diagnostics):
    """The value of a team's step. Its diagnostics go into ``diag`` first and
    its error is raised here, so each team's counters, notes and error come
    where a serial run would give them."""
    value, counts, notes, error = result
    for key, n in counts.items():
        diag.bump(key, n)
    diag.notes.extend(notes)
    if error is not None:
        name, message = error
        raise {c.__name__: c for c in _TEAM_ERRORS}.get(name, RuntimeError)(message)
    return value


def _season_workers(n_teams: int) -> int:
    """The season stage's process count: the CPUs this process may use, at
    most one per team; 1, in-process, where there is no fork or another thread
    runs (a forked thread's locks could be held forever)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(cpus, n_teams)


class _Workers:
    """The calling process's side of the season workers while they run. A
    plain class: a dataclass would add half a millisecond to every command's
    start-up."""

    def __init__(self, teams: Sequence[TeamConfig], queue: int, tokens: bytes):
        self.teams = teams
        self.queue = queue  # the claim pipe's write end, open while tokens are left
        self.tokens = tokens  # the claim tokens not yet written, 4 bytes per team index
        # The read end of each worker's pipe while it is open -> the team its
        # worker has claimed and not sent, or None.
        self.claimed: dict[int, int | None] = {}
        self.pids: dict[int, int] = {}  # read end -> pid, until reaped
        self.early: dict[int, TeamResult] = {}  # results that came before their turn


@contextlib.contextmanager
def season_stage(
    config: PipelineConfig, step: TeamStep, diag: Diagnostics
) -> Iterator[Iterator[tuple[TeamConfig, object]]]:
    """Run ``step`` for every team; the block reads (team, value) pairs in
    team order. Before a team's pair is given, its diagnostic counts and notes
    go into ``diag`` and its error is raised.

    With one worker each team's step runs in-process when its result is asked
    for. Otherwise entering forks n workers and then queues every team index
    on one claim pipe. A worker that is free takes the next index, runs that
    team and sends the result, tagged with the team, down its own pipe; so a
    slow team holds up only its own worker, not the teams queued after it.
    A worker also sends a claim notice as it takes a team, so a worker that
    ends before sending a team it claimed is reaped and named, with its exit
    code, at that team's turn. Team i's result is taken when the block asks
    for it (``_receive``), while later teams still run. No worker can stall
    the command: while the block waits for a team, it reads every message
    that arrives on any pipe and keeps the results that come before their
    turn, at most one per team. So a worker waits for room in its pipe only
    while the command does its own work. Leaving the block kills every worker
    still running and reaps every worker.
    """
    teams = config.teams
    jobs = _season_workers(len(teams))
    if jobs <= 1:
        yield ((team, _team_result(_run_step(step, team, config), diag)) for team in teams)
        return
    import signal

    claims, queue = os.pipe()
    pool = _Workers(teams, queue, b"".join(i.to_bytes(4, "little") for i in range(len(teams))))
    try:
        for _ in range(jobs):
            read_fd, write_fd = os.pipe()
            pool.claimed[read_fd] = None
            try:
                if (pid := os.fork()) == 0:
                    os.close(queue)
                    _season_worker(config, step, claims, write_fd)
                pool.pids[read_fd] = pid
            finally:
                os.close(write_fd)
        os.set_blocking(queue, False)
        _feed(pool)
        yield ((team, _team_result(_receive(i, pool), diag)) for i, team in enumerate(teams))
    finally:
        for pid in pool.pids.values():
            os.kill(pid, signal.SIGKILL)
        for fd in [claims, *pool.claimed, *([queue] if pool.tokens else [])]:
            os.close(fd)
        for pid in pool.pids.values():
            os.waitpid(pid, 0)


def _season_worker(config: PipelineConfig, step: TeamStep, claims: int, fd: int) -> NoReturn:
    """Take team indices from the claim pipe ``claims``, one 4-byte token at a
    time, until it is empty. For each, send a claim notice down the pipe
    ``fd`` at once, then run ``step`` and send the TeamResult. A message is
    the team's token, an 8-byte size and that many bytes of marshal's: none
    in a notice. Then end the process, without returning."""
    code = 1
    try:
        with open(fd, "wb") as out:
            while token := os.read(claims, 4):
                out.write(token + bytes(8))
                out.flush()
                team = config.teams[int.from_bytes(token, "little")]
                try:
                    result = _run_step(step, team, config)
                except Exception as exc:  # a fault in teamnets: the parent raises it
                    failure = f"season worker of team {team.team_id}: {type(exc).__name__}: {exc}"
                    result = (None, {}, [], ("RuntimeError", failure))
                data = marshal.dumps(result)
                out.write(token + len(data).to_bytes(8, "little") + data)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _feed(pool: _Workers) -> None:
    """Write the claim tokens the claim pipe has room for, without waiting,
    and close it after the last. Each write is at most 4096 bytes, which a
    Linux pipe takes whole or not at all, so no worker's read of 4 bytes sees
    part of a token."""
    with contextlib.suppress(BlockingIOError):
        while pool.tokens:
            pool.tokens = pool.tokens[os.write(pool.queue, pool.tokens[:4096]) :]
        os.close(pool.queue)


def _receive(i: int, pool: _Workers) -> TeamResult:
    """Team i's result. Until it is in, wait on every open worker pipe, and on
    room in the claim pipe while tokens are left, and take each message that
    is ready. Where every worker has ended without sending it, the team gets
    a RuntimeError, which ends the command."""
    import select

    while i not in pool.early and pool.claimed:
        # poll, not select.select, which refuses a descriptor numbered 1024 or more.
        ready = select.poll()
        for fd in pool.claimed:
            ready.register(fd, select.POLLIN)
        if pool.tokens:
            ready.register(pool.queue, select.POLLOUT)
        for fd, _ in ready.poll():
            if fd == pool.queue:
                _feed(pool)
            else:
                _take(fd, pool)
    if i in pool.early:
        return pool.early.pop(i)
    failure = f"season workers ended before sending the result of team {pool.teams[i].team_id}"
    return None, {}, [], ("RuntimeError", failure)


def _take(fd: int, pool: _Workers) -> None:
    """Read the next message on the worker pipe ``fd``, a claim notice or a
    team's result; the rest of a message follows its first byte without the
    worker doing anything else. A worker that ended without sending a team it
    claimed is reaped and gives that team a RuntimeError naming it."""
    # A size prefix and os.read, not marshal.load on a file object of the
    # pipe: marshal.load makes one readinto call per marshalled item. For a
    # 40-member team's 63 KB result (30 weeks of 400 pairs) it took 6-25 ms,
    # buffered or not, against 1 ms for these reads and marshal.loads
    # (Python 3.11, 2-CPU Xeon, median of 20).
    head = _read(fd, 12)
    team, size = int.from_bytes(head[:4], "little"), int.from_bytes(head[4:], "little")
    if len(head) == 12 and not size:
        pool.claimed[fd] = team
    elif len(head) == 12 and len(data := _read(fd, size)) == size:
        pool.claimed[fd] = None
        pool.early[team] = marshal.loads(data)
    elif (claimed := pool.claimed.pop(fd)) is None:  # it ended after its last result
        os.close(fd)
    else:
        os.close(fd)
        code = os.waitstatus_to_exitcode(os.waitpid(pool.pids.pop(fd), 0)[1])
        failure = (
            f"season worker of team {pool.teams[claimed].team_id} ended with exit code {code} "
            "before sending its result"
        )
        pool.early[claimed] = None, {}, [], ("RuntimeError", failure)


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from the pipe ``fd``, or fewer where it ends first."""
    chunks = []
    while size and (chunk := os.read(fd, size)):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Each command's per-team step, and the tables of the pipeline and validate
# ---------------------------------------------------------------------------


def team_chat(team: TeamConfig, config: PipelineConfig, diag: Diagnostics) -> WeeklyEdges:
    """A team's weekly reply edges: the step of ``census``."""
    return parse_chat_edges(
        team.chat_export, team.roster, config.calendar, config.excluded_handles, diag
    )[0]


def team_stc(
    team: TeamConfig, config: PipelineConfig, diag: Diagnostics
) -> tuple[WeeklyEdges, dict[int, float | None]]:
    """A team's weekly reply edges and the STC of each included week, from its
    chat and repo activity: the step of ``report`` and ``correlate``."""
    weekly = team_chat(team, config, diag)
    mrs_by_week = parse_repo_weeks(team.repo_activity, team.roster, config.calendar, diag)[0]
    weeks = config.calendar.included_weeks()
    return weekly, weekly_team_scores(
        mrs_by_week, weekly, team.roster, weeks, config.self_dependency, diag
    )


def team_scores(
    team: TeamConfig, config: PipelineConfig, diag: Diagnostics
) -> dict[int, float | None]:
    """A team's weekly STC: the step of ``stc``. The edges stay in the worker,
    so only the scores cross its pipe."""
    return team_stc(team, config, diag)[1]


def team_validation(
    team: TeamConfig, config: PipelineConfig, diag: Diagnostics
) -> tuple[bool, str]:
    """Whether a team's chat and repo activity are valid, and its line: their
    counts, or the validation failure. The step of ``validate``."""
    try:
        _, kept, replies = parse_chat_edges(
            team.chat_export, team.roster, config.calendar, config.excluded_handles, diag
        )
        _, commits, mrs = parse_repo_weeks(team.repo_activity, team.roster, config.calendar, diag)
    except ValidationError as exc:
        return False, f"team {team.team_id}: VALIDATION FAILURE: {exc}"
    return True, (
        f"team {team.team_id}: {kept} messages, {commits} commits, {mrs} merge requests, "
        f"{replies} communication events"
    )


def parse_tables(config: PipelineConfig, diag: Diagnostics) -> tuple[tuple[dict, dict], dict, dict]:
    """The outcomes, peer-feedback and work-log tables, parsed in that order:
    (each team's sprint outcomes, its year-level values), its communication
    ratings and its pair hours, each empty where its table is not configured."""
    cal, teams = config.calendar, config.team_ids()
    rosters = [t.roster for t in config.teams]
    outcomes, feedback, logs = config.outcomes_path, config.feedback_path, config.work_logs_path
    return (
        parse_outcomes(outcomes, cal, teams, diag) if outcomes else ({}, {}),
        parse_feedback(feedback, cal, rosters, diag) if feedback else {},
        parse_work_logs(logs, teams, diag) if logs else {},
    )


def sprint_census(
    weekly: WeeklyEdges,
    roster: Roster,
    cal: SprintCalendar,
    sprint: int,
    diag: Diagnostics,
) -> tuple[CommunicationNetwork, RelativeCensus | None]:
    """A sprint's network and relative census; None for rosters under 3 members."""
    net = window_network(weekly, roster, cal.sprint_weeks(sprint))
    if net.n < 3:
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
    label: str, x: str, y: str, frame: Sequence[dict], teams: Collection[str]
) -> CorrelationCell:
    """Pearson r of column x against column y over the frame rows of ``teams``
    where both are defined, in frame order; r and p are None where it is
    undefined."""
    pairs = [
        (row[x], row[y])
        for row in frame
        if row["team"] in teams and row[x] is not None and row[y] is not None
    ]
    try:
        res = pearson([a for a, _ in pairs], [b for _, b in pairs])
    except ValueError:
        return CorrelationCell(label=label, r=None, n=len(pairs), p=None, stars="")
    return CorrelationCell(
        label=label, r=res.r, n=res.n, p=res.p_two_tailed, stars=p_stars(res.p_two_tailed)
    )


def _census_table(
    frame: Sequence[dict], columns: Sequence[str], teams: Collection[str]
) -> tuple[CorrelationCell, ...]:
    """Each outcome against each census share of ``columns``, over the teams'
    rows; a cell is labelled with its sprint census column."""
    return tuple(
        _cell(f"{name}~{outcome}", x, outcome, frame, teams)
        for outcome in ("pct_story_points_passed", "team_score")
        for name, x in zip(CENSUS_COLUMNS, columns)
    )


def _team_rows(
    team_cfg: TeamConfig,
    config: PipelineConfig,
    weekly: WeeklyEdges,
    stc: Mapping[int, float | None],
    outcomes: Mapping[str, Mapping[int, tuple[float, float, float]]],
    comm_rating: Mapping[str, Mapping[int, float]],
    diag: Diagnostics,
) -> list[dict]:
    """A team's frame rows, from its weekly reply edges and weekly STC: one per
    included sprint, in calendar order."""
    cal = config.calendar
    roster = team_cfg.roster
    outcome_of = outcomes.get(team_cfg.team_id, {})
    rows = []
    for sprint in cal.included_sprints():
        sprint_weeks = cal.sprint_weeks(sprint)
        census = sprint_census(weekly, roster, cal, sprint, diag)[1]
        mean_weekly = None  # a roster too small for triads
        if census is not None:
            mean_weekly = mean_weekly_relative_census([
                relative_census(census_closed_form(window_network(weekly, roster, (w,))))
                for w in sprint_weeks
            ])
        committed, passed, score = outcome_of.get(sprint, (None, None, None))
        if committed == 0:
            diag.bump("sprints_zero_committed_points")
        rows.append({
            "team": team_cfg.team_id,
            "sprint": sprint,
            "mean_sprint_stc": _mean([v for w in sprint_weeks if (v := stc.get(w)) is not None]),
            "pct_story_points_passed": passed / committed if committed else None,
            "team_score": score,
            "mean_peer_comm_rating": comm_rating.get(team_cfg.team_id, {}).get(sprint),
            **dict(zip(CENSUS_COLUMNS, census or BLANK_CENSUS)),
            **dict(zip(_MEAN_WEEKLY, mean_weekly or BLANK_CENSUS)),
        })
    mean_score = _mean([row["team_score"] for row in rows if row["team_score"] is not None])
    for row, following in zip(rows, rows[1:] + [{}]):
        row["next_sprint_pct_passed"] = following.get("pct_story_points_passed")
        row["mean_team_score_year"] = mean_score
    return rows


def _by_team(
    frame: Sequence[dict], teams: Sequence[str], value: Callable[[dict], object]
) -> dict[str, dict]:
    """team -> sprint -> ``value`` of each of the team's frame rows."""
    return {t: {row["sprint"]: value(row) for row in frame if row["team"] == t} for t in teams}


def _census_at(row: dict, columns: Sequence[str]) -> RelativeCensus | None:
    """The census in ``columns`` of a frame row; None where it is undefined."""
    return None if row[columns[0]] is None else tuple(row[c] for c in columns)


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Execute the full analysis for every configured team."""
    diag = Diagnostics()
    cal = config.calendar
    teams = config.team_ids()

    if config.outcomes_path is None:
        raise InputError("missing input: no outcomes table configured")
    if config.feedback_path is None:
        raise InputError("missing input: no peer-feedback table configured")
    # The tables are parsed while the workers run the teams' steps.
    with season_stage(config, team_stc, diag) as results:
        (outcomes, year_level), comm_rating, work_hours = parse_tables(config, diag)
        stc_weekly: dict[str, dict[int, float | None]] = {}
        frame: list[dict] = []
        for t, (weekly, stc) in results:
            stc_weekly[t.team_id] = stc
            frame += _team_rows(t, config, weekly, stc, outcomes, comm_rating, diag)

    def cells(*labels: str) -> tuple[CorrelationCell, ...]:
        """Each label's cell over every team; a label names its two columns."""
        return tuple(_cell(label, *label.split("~"), frame, teams) for label in labels)

    stc_table = cells(
        "pct_story_points_passed~mean_sprint_stc",
        "mean_peer_comm_rating~mean_sprint_stc",
        "mean_peer_comm_rating~pct_story_points_passed",
    )
    census_sprint_table = _census_table(frame, CENSUS_COLUMNS, teams)
    census_mw_table = _census_table(frame, _MEAN_WEEKLY, teams)

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
                mean_team_score=next(
                    (row["mean_team_score_year"] for row in frame if row["team"] == team), None
                ),
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
    census_sprint_excl = _census_table(frame, CENSUS_COLUMNS, remaining)
    census_mw_excl = _census_table(frame, _MEAN_WEEKLY, remaining)
    lagged_table = (
        cells(
            "next_sprint_pct_passed~mean_peer_comm_rating",
            "mean_team_score_year~mean_peer_comm_rating",
        )
        if config.include_lagged_table
        else ()
    )

    utest = _trend_utest(team_summaries, notes)

    return AnalysisReport(
        teams=teams,
        weeks=cal.included_weeks(),
        sprints=cal.included_sprints(),
        stc_weekly=stc_weekly,
        stc_sprint_mean=_by_team(frame, teams, lambda row: row["mean_sprint_stc"]),
        sprint_census=_by_team(frame, teams, lambda row: _census_at(row, CENSUS_COLUMNS)),
        mean_weekly_census=_by_team(frame, teams, lambda row: _census_at(row, _MEAN_WEEKLY)),
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
    u = p = None
    method = "undefined"
    if increasing and decreasing:
        res = mann_whitney_u(
            [float(stories[t]) for t in increasing], [float(stories[t]) for t in decreasing]
        )
        u, p, method = res.u, res.p_two_tailed, res.method
    return UTestSummary(
        increasing_teams=tuple(increasing),
        decreasing_teams=tuple(decreasing),
        u=u,
        p=p,
        method=method,
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
    series: dict[str, Table] = {}
    for team in report.teams:
        series[f"series_stc_{team}"] = (
            ["week", "stc_score"],
            [(w, report.stc_weekly[team].get(w)) for w in report.weeks],
        )
        series[f"series_census_{team}"] = (
            ["sprint", *CENSUS_COLUMNS, *_MEAN_WEEKLY],
            [
                (
                    sprint,
                    *(report.sprint_census[team].get(sprint) or BLANK_CENSUS),
                    *(report.mean_weekly_census[team].get(sprint) or BLANK_CENSUS),
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
    data = load_json(path, "report not found", unique_keys=True)  # names the file
    try:
        if type(data) is not dict:
            raise InputError("report must be a JSON object")
        return _dataclass_from_json(AnalysisReport, data, "")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
