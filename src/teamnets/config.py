"""Pipeline configuration: one JSON file describing a whole season.

Schema (paths are resolved relative to the config file's directory)::

    {
      "calendar": {
        "weeks":  [{"week_id": 1, "start": "...Z", "end": "...Z"}, ...],
        "sprints": [{"sprint_id": 1, "weeks": [1, 2]}, ...],
        "excluded_sprints": [1]
      },
      "teams": [
        {"team_id": "A",
         "members": ["p1", ...],
         "identity_map": {"U01": "p1", ...},
         "chat_export": "chat/A",
         "repo_activity": "repo_A.json"}, ...
      ],
      "feedback": "feedback.csv",          // optional
      "outcomes": "outcomes.csv",          // optional
      "work_logs": "work_logs.csv",        // optional
      "excluded_handles": ["UBOT"],        // bots / app accounts
      "options": {
        "anomaly_top_fraction": 0.2,
        "anomaly_bottom_fraction": 0.3,
        "exclude_teams": [],               // census-table exclusion override
        "include_lagged_table": false,
        "self_dependency": true
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError, ValidationError
from .ingestion import Roster, SprintCalendar, calendar_from_dict

__all__ = ["TeamConfig", "AnomalyThresholds", "PipelineConfig", "load_config"]


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
    feedback_path: Path | None = None
    outcomes_path: Path | None = None
    work_logs_path: Path | None = None
    excluded_handles: tuple[str, ...] = ()
    anomaly: AnomalyThresholds = field(default_factory=AnomalyThresholds)
    exclude_teams: tuple[str, ...] = ()
    include_lagged_table: bool = False
    self_dependency: bool = True

    def team_ids(self) -> tuple[str, ...]:
        return tuple(sorted(t.team_id for t in self.teams))


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def load_config(path: Path | str) -> PipelineConfig:
    """Load and validate a pipeline config file."""
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise InputError(f"config file not found: {cfg_path}")
    try:
        data = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{cfg_path}: malformed JSON at line {exc.lineno} column {exc.colno}"
        ) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{cfg_path}: not UTF-8: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{cfg_path}: config must be a JSON object")
    if "calendar" not in data:
        raise InputError(f"{cfg_path}: missing 'calendar' section")
    try:
        calendar = calendar_from_dict(data["calendar"])
    except InputError as exc:
        raise InputError(f"{cfg_path}: {exc}") from None

    def expect(ok: bool, field: str, kind: str) -> None:
        if not ok:
            raise InputError(f"{cfg_path}: {field} must be {kind}")

    base = cfg_path.parent
    teams_raw = data.get("teams")
    if not isinstance(teams_raw, list) or not teams_raw:
        raise InputError(f"{cfg_path}: 'teams' must be a non-empty array")
    teams: list[TeamConfig] = []
    seen: set[str] = set()
    team_of: dict[str, str] = {}  # person -> the first team whose roster lists them
    for i, entry in enumerate(teams_raw):
        try:
            team_id = entry["team_id"]
            members = entry["members"]
            identity_map = entry.get("identity_map", {})
            chat_export = entry["chat_export"]
            repo_activity = entry["repo_activity"]
        except (TypeError, KeyError) as exc:
            raise InputError(f"{cfg_path}: team entry {i} missing field {exc}") from None
        where = f"team entry {i}"
        expect(isinstance(team_id, str), f"{where} 'team_id'", "a string")
        # the id names output files, and team lists are joined and split on commas
        expect(
            team_id not in ("", ".", "..") and not any(c in team_id for c in "/\\,"),
            f"{where} 'team_id'",
            "a file name without '/', '\\', ',' (not empty, '.' or '..')",
        )
        expect(_is_strings(members), f"{where} 'members'", "an array of strings")
        expect(
            isinstance(identity_map, dict) and _is_strings(list(identity_map.values())),
            f"{where} 'identity_map'",
            "an object mapping handles to member ids",
        )
        expect(isinstance(chat_export, str), f"{where} 'chat_export'", "a path string")
        expect(isinstance(repo_activity, str), f"{where} 'repo_activity'", "a path string")
        if team_id in seen:
            raise ValidationError(f"{cfg_path}: duplicate team id {team_id}")
        seen.add(team_id)
        # one team per person: a peer rating counts for its rater's team
        for person in sorted(set(members)):
            if (other := team_of.setdefault(person, team_id)) != team_id:
                raise ValidationError(
                    f"{cfg_path}: person {person} is on the rosters of teams {other} and {team_id}"
                )
        roster = Roster(
            team_id=team_id, members=frozenset(members), identity_map=dict(identity_map)
        )
        teams.append(
            TeamConfig(
                roster=roster,
                chat_export=_resolve(base, chat_export),
                repo_activity=_resolve(base, repo_activity),
            )
        )
    teams.sort(key=lambda t: t.team_id)

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise InputError(f"{cfg_path}: 'options' must be an object")

    def fraction(key: str, default: float) -> float:
        value = options.get(key, default)
        try:
            return float(value)
        except (TypeError, ValueError):
            raise InputError(f"{cfg_path}: options.{key} must be a number, got {value!r}") from None

    def flag(key: str, default: bool) -> bool:
        value = options.get(key, default)
        if not isinstance(value, bool):
            raise InputError(f"{cfg_path}: options.{key} must be true or false, got {value!r}")
        return value

    anomaly = AnomalyThresholds(
        top_fraction=fraction("anomaly_top_fraction", 0.2),
        bottom_fraction=fraction("anomaly_bottom_fraction", 0.3),
    )
    exclude_teams = options.get("exclude_teams", [])
    expect(_is_strings(exclude_teams), "options.exclude_teams", "an array of team ids")
    exclude_teams = tuple(sorted(exclude_teams))
    unknown = [t for t in exclude_teams if t not in seen]
    if unknown:
        raise ValidationError(f"{cfg_path}: exclude_teams references unknown team(s) {unknown}")

    def optional_path(key: str) -> Path | None:
        value = data.get(key)
        expect(value is None or isinstance(value, str), f"'{key}'", "a path string")
        return _resolve(base, value) if value else None

    excluded_handles = data.get("excluded_handles", [])
    expect(_is_strings(excluded_handles), "'excluded_handles'", "an array of strings")

    return PipelineConfig(
        calendar=calendar,
        teams=teams,
        feedback_path=optional_path("feedback"),
        outcomes_path=optional_path("outcomes"),
        work_logs_path=optional_path("work_logs"),
        excluded_handles=tuple(excluded_handles),
        anomaly=anomaly,
        exclude_teams=exclude_teams,
        include_lagged_table=flag("include_lagged_table", False),
        self_dependency=flag("self_dependency", True),
    )
