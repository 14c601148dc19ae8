"""Pipeline configuration: one JSON file describing a whole season.

Schema (paths are resolved relative to the config file's directory)::

    {
      "calendar": {
        "weeks":  [{"week_id": 1, "start": "...Z", "end": "...Z"}, ...],
        "sprints": [{"sprint_id": 1, "weeks": [1, 2]}, ...],
        "excluded_sprints": [1]            // optional
      },
      "teams": [                           // non-empty
        {"team_id": "A",
         "members": ["p1", ...],
         "identity_map": {"U01": "p1", ...},   // optional
         "chat_export": "chat/A",
         "repo_activity": "repo_A.json"}, ...
      ],
      "feedback": "feedback.csv",          // optional
      "outcomes": "outcomes.csv",          // optional
      "work_logs": "work_logs.csv",        // optional
      "excluded_handles": ["UBOT"],        // optional: bots / app accounts
      "options": {                         // optional, as is each option
        "anomaly_top_fraction": 0.2,
        "anomaly_bottom_fraction": 0.3,
        "exclude_teams": [],               // census-table exclusion override
        "include_lagged_table": false,
        "self_dependency": true
      }
    }

Every value is read by one reader and must be of its kind, or it is an
InputError naming its path (``calendar.weeks[0].week_id``, ``teams[1].members``,
``options.self_dependency``). Ids are integers (``1.0`` reads as 1; a string
or a boolean is no integer); ``start`` and ``end`` are ISO-8601 strings;
handles are strings, and members and identity-map values strings that encode
as UTF-8 (no lone surrogate such as ``"\\ud800"``). A team id names files:
it also holds no NUL. ``chat_export`` and ``repo_activity`` are non-empty
paths, strings without NUL that ``os.fsencode`` takes; for the optional paths
``""`` and ``null`` mean absent. Fractions are numbers, flags true or false.
``exclude_teams`` is deduplicated and sorted, and names configured teams.
The defaults shown are the format's, held by ``_read_config`` alone (the
anomaly fractions by ``AnomalyThresholds``); ``PipelineConfig`` has none.
Each error, a ValidationError of the calendar, a roster or the anomaly
thresholds included, starts with the config file's path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable

from .errors import InputError, ValidationError
from .ingestion import FLAG, OPTIONAL_PATH, PATH, TEAM_ID, TEXT, Roster, Sprint, SprintCalendar
from .ingestion import Week, load_json, read_items, read_utc, read_value

__all__ = ["TeamConfig", "AnomalyThresholds", "PipelineConfig", "excluded_team_ids", "load_config"]


@dataclass(frozen=True)
class TeamConfig:
    roster: Roster
    chat_export: Path
    repo_activity: Path

    @property
    def team_id(self) -> str:
        return self.roster.team_id


@dataclass(frozen=True)
class AnomalyThresholds:
    top_fraction: float = 0.2
    bottom_fraction: float = 0.3

    def __post_init__(self) -> None:
        for name, value in (("top", self.top_fraction), ("bottom", self.bottom_fraction)):
            if not 0.0 < value < 1.0:
                raise ValidationError(f"anomaly {name} fraction must be in (0, 1), got {value}")


@dataclass
class PipelineConfig:
    calendar: SprintCalendar
    teams: list[TeamConfig]
    feedback_path: Path | None
    outcomes_path: Path | None
    work_logs_path: Path | None
    excluded_handles: tuple[str, ...]
    anomaly: AnomalyThresholds
    exclude_teams: tuple[str, ...]
    include_lagged_table: bool
    self_dependency: bool

    def team_ids(self) -> tuple[str, ...]:
        return tuple(sorted(t.team_id for t in self.teams))


def excluded_team_ids(wanted: Iterable[str], known: Collection[str], where: str) -> tuple[str, ...]:
    """The teams of ``wanted`` once each, sorted; ``where`` names the list,
    and a team not in ``known`` is a ValidationError."""
    teams = tuple(sorted(set(wanted)))
    unknown = [t for t in teams if t not in known]
    if unknown:
        raise ValidationError(f"{where} references unknown team(s) {unknown}")
    return teams


def _read_calendar(data: dict) -> SprintCalendar:
    cal = read_value(data, "calendar", "", "an object", ...)
    weeks = []
    for i, w in enumerate(read_items(cal, "weeks", "calendar", "an object", ...)):
        where = f"calendar.weeks[{i}]"
        week_id = int(read_value(w, "week_id", where, "an integer", ...))
        weeks.append(Week(week_id, read_utc(w, "start", where), read_utc(w, "end", where)))
    sprints = []
    for i, s in enumerate(read_items(cal, "sprints", "calendar", "an object", ...)):
        where = f"calendar.sprints[{i}]"
        sprint_id = int(read_value(s, "sprint_id", where, "an integer", ...))
        week_ids = tuple(map(int, read_items(s, "weeks", where, "an integer", ...)))
        sprints.append(Sprint(sprint_id, week_ids))
    excluded = read_items(cal, "excluded_sprints", "calendar", "an integer", [])
    return SprintCalendar(tuple(weeks), tuple(sprints), frozenset(map(int, excluded)))


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _read_teams(data: dict, base: Path) -> list[TeamConfig]:
    teams: list[TeamConfig] = []
    team_of: dict[str, str] = {}  # person -> the first team whose roster lists them
    for i, entry in enumerate(read_items(data, "teams", "", "an object", ...)):
        where = f"teams[{i}]"
        team_id = read_value(entry, "team_id", where, TEAM_ID, ...)
        members = read_items(entry, "members", where, TEXT, ...)
        handles = read_value(entry, "identity_map", where, "an object", {})
        where_map = f"{where}.identity_map"
        identity_map = {h: read_value(handles, h, where_map, TEXT, ...) for h in handles}
        chat_export = read_value(entry, "chat_export", where, PATH, ...)
        repo_activity = read_value(entry, "repo_activity", where, PATH, ...)
        if any(t.team_id == team_id for t in teams):
            raise ValidationError(f"duplicate team id {team_id}")
        # one team per person: a peer rating counts for its rater's team
        for person in sorted(set(members)):
            if (other := team_of.setdefault(person, team_id)) != team_id:
                raise ValidationError(
                    f"person {person} is on the rosters of teams {other} and {team_id}"
                )
        roster = Roster(team_id=team_id, members=frozenset(members), identity_map=identity_map)
        teams.append(TeamConfig(roster, _resolve(base, chat_export), _resolve(base, repo_activity)))
    if not teams:
        raise InputError("teams must be a non-empty array")
    teams.sort(key=lambda t: t.team_id)
    return teams


def _read_config(data, base: Path) -> PipelineConfig:
    if type(data) is not dict:
        raise InputError("config must be a JSON object")
    calendar = _read_calendar(data)
    teams = _read_teams(data, base)
    options = read_value(data, "options", "", "an object", {})
    top, bottom = AnomalyThresholds.top_fraction, AnomalyThresholds.bottom_fraction
    anomaly = AnomalyThresholds(
        read_value(options, "anomaly_top_fraction", "options", "a number", top),
        read_value(options, "anomaly_bottom_fraction", "options", "a number", bottom),
    )
    exclude = read_items(options, "exclude_teams", "options", "a string", [])
    exclude_teams = excluded_team_ids(exclude, {t.team_id for t in teams}, "options.exclude_teams")

    def optional_path(key: str) -> Path | None:
        value = read_value(data, key, "", OPTIONAL_PATH, None)
        return _resolve(base, value) if value else None

    return PipelineConfig(
        calendar=calendar,
        teams=teams,
        feedback_path=optional_path("feedback"),
        outcomes_path=optional_path("outcomes"),
        work_logs_path=optional_path("work_logs"),
        excluded_handles=tuple(read_items(data, "excluded_handles", "", "a string", [])),
        anomaly=anomaly,
        exclude_teams=exclude_teams,
        include_lagged_table=read_value(options, "include_lagged_table", "options", FLAG, False),
        self_dependency=read_value(options, "self_dependency", "options", FLAG, True),
    )


def load_config(path: Path | str) -> PipelineConfig:
    """Load and validate a pipeline config file; each of its errors names the file."""
    cfg_path = Path(path)
    data = load_json(cfg_path, "config file not found", unique_keys=True)  # names the file
    try:
        return _read_config(data, cfg_path.parent)
    except (InputError, ValidationError) as exc:
        raise type(exc)(f"{cfg_path}: {exc}") from None
