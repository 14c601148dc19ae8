"""Season-level orchestration: run every analysis and emit result tables.

The pipeline parses all configured inputs, groups each team's replies into
weekly communication edges, computes weekly STC scores and sprint censuses
per team, correlates them with delivery outcomes, compares increasing-
against decreasing-trend teams, flags anomalous teams, and can write
everything as delimited tables or structured JSON. Output ordering is bit-stable: teams alphabetical, sprints
and weeks ascending, fixed float formatting.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .config import AnomalyThresholds, PipelineConfig, TeamConfig
from .errors import InputError, ValidationError
from .ingestion import (
    Diagnostics,
    Roster,
    SprintCalendar,
    parse_chat_edges,
    parse_feedback,
    parse_outcomes,
    parse_repo_weeks,
    parse_work_logs,
)
from .network import (
    CommunicationNetwork,
    WeeklyEdges,
    window_network,
)
from .stats import mann_whitney_u, p_stars, pearson
from .stc import weekly_team_scores, year_summary
from .triad import census_closed_form, mean_weekly_relative_census, relative_census

__all__ = [
    "CorrelationCell",
    "TeamSummary",
    "AnomalyFlag",
    "UTestSummary",
    "AnalysisReport",
    "included_weeks",
    "team_events",
    "team_stc",
    "sprint_census",
    "run_pipeline",
    "detect_anomalies",
    "emit",
    "write_table",
    "load_report",
]

KIND_HIGH_STC_LOW_DELIVERY = "high-stc-low-delivery"
KIND_LOW_STC_HIGH_PAIRING = "low-stc-high-pairing"

Census = tuple[float, float, float, float]
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
    sprint_census: dict[str, dict[int, Census | None]]
    mean_weekly_census: dict[str, dict[int, Census | None]]
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
# Per-team steps, shared by the pipeline and the single-stage subcommands
# ---------------------------------------------------------------------------


def included_weeks(cal: SprintCalendar) -> tuple[int, ...]:
    """Weeks of the season's included sprints, ascending."""
    included = set(cal.included_sprints())
    return tuple(w for w in cal.week_ids() if cal.sprint_of_week(w) in included)


def team_events(
    team: TeamConfig, config: PipelineConfig, diag: Diagnostics | None = None
) -> tuple[WeeklyEdges, int, int]:
    """A team's weekly edges, kept-message count and reply count from its chat."""
    return parse_chat_edges(
        team.chat_export, team.roster, config.calendar, config.excluded_handles, diag
    )


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
) -> tuple[CommunicationNetwork, Census | None]:
    """A sprint's network and relative census; None for rosters under 3 members."""
    net = window_network(weekly, roster, cal.sprint_weeks(sprint))
    if net.n < 3:
        if diag is not None:
            diag.bump("censuses_skipped_small_roster")
        return net, None
    return net, relative_census(census_closed_form(net)).freqs


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
    census: Mapping[str, Mapping[int, Census | None]],
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


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Execute the full analysis for every configured team."""
    diag = Diagnostics()
    cal = config.calendar
    sprints = cal.included_sprints()
    weeks = included_weeks(cal)

    if config.outcomes_path is None:
        raise InputError("missing input: no outcomes table configured")
    if config.feedback_path is None:
        raise InputError("missing input: no peer-feedback table configured")
    outcomes, year_level = parse_outcomes(config.outcomes_path, cal, diag)
    comm_rating = parse_feedback(
        config.feedback_path, cal, [t.roster for t in config.teams], diag
    )
    work_hours = (
        parse_work_logs(config.work_logs_path, diag) if config.work_logs_path else {}
    )

    teams = config.team_ids()
    stc_weekly: dict[str, dict[int, float | None]] = {}
    sprint_censuses: dict[str, dict[int, Census | None]] = {}
    mean_weekly_census: dict[str, dict[int, Census | None]] = {}

    for team_cfg in config.teams:
        roster = team_cfg.roster
        team = roster.team_id
        weekly = team_events(team_cfg, config, diag)[0]
        stc_weekly[team] = team_stc(team_cfg, config, weekly, weeks, diag)
        sprint_censuses[team] = {}
        mean_weekly_census[team] = {}
        for sprint in sprints:
            _, census = sprint_census(weekly, roster, cal, sprint, diag)
            sprint_censuses[team][sprint] = census
            if census is None:
                mean_weekly_census[team][sprint] = None
                continue
            weekly_rel = [
                relative_census(census_closed_form(window_network(weekly, roster, (w,))))
                for w in cal.sprint_weeks(sprint)
            ]
            mean_weekly_census[team][sprint] = mean_weekly_relative_census(weekly_rel).freqs

    stc_sprint_mean = {
        team: {
            s: _mean([v for w in cal.sprint_weeks(s) if (v := stc_weekly[team].get(w)) is not None])
            for s in sprints
        }
        for team in teams
    }

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

    summaries = []
    for team in teams:
        summary = year_summary(stc_weekly[team])
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


def write_table(path: Path | str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A delimited table: the header, then one line per row, each float with
    six decimals and each None blank."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(value) for value in row] for row in rows)


Table = tuple[list[str], list[tuple]]

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

    ``select`` picks the table and series names to write (default: all).
    The structured-data format always adds ``report.json``.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise InputError(f"output directory not writable: {out}: {exc}") from None

    files = {**_tables(report), **_series(report)}
    written: list[Path] = []
    for name in sorted(files):
        if select is not None and not select(name):
            continue
        columns, rows = files[name]
        if format == "delimited-table":
            path = out / f"{name}.csv"
            write_table(path, columns, rows)
        else:
            path = out / f"{name}.json"
            objects = [dict(zip(columns, row)) for row in rows]
            path.write_text(
                json.dumps(objects, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        written.append(path)
    if format == "structured-data":
        path = out / "report.json"
        path.write_text(
            json.dumps(_to_json(report), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
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


def _from_json(tp, data):
    """Rebuild a value of annotated type ``tp`` from its ``_to_json`` form."""
    if data is None:
        return None
    if dataclasses.is_dataclass(tp):
        hints = _type_hints(tp)
        fields = dataclasses.fields(tp)
        return tp(**{f.name: _from_json(hints[f.name], data[f.name]) for f in fields})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_from_json(args[0], v) for v in data)
        return tuple(_from_json(a, v) for a, v in zip(args, data))
    if origin is dict:
        return {_from_json(args[0], k): _from_json(args[1], v) for k, v in data.items()}
    if origin in (typing.Union, types.UnionType):  # X | None; None is handled above
        (inner,) = [a for a in args if a is not type(None)]
        return _from_json(inner, data)
    return int(data) if tp is int else data


def load_report(path: Path | str) -> AnalysisReport:
    """Re-parse a structured report.json written by emit()."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load report from {path}: {exc}") from None
    try:
        return _from_json(AnalysisReport, data)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InputError(
            f"cannot load report from {path}: not a report: {type(exc).__name__}: {exc}"
        ) from None
