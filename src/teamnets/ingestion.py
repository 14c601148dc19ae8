"""Parsing of raw team artifacts into the series the analyses read.

Input formats
-------------
Chat export (one directory per team workspace):
    <export_root>/<channel>/<YYYY-MM-DD>.json, each file UTF-8 (no byte
    order mark) holding a JSON array of message objects with fields
    ``user`` (raw platform handle, a string), ``ts`` (decimal seconds as a
    string or number, unique per channel; two kept messages with one ``ts``
    are a validation error), optional ``thread_ts`` (the ``ts`` of the
    thread root, a string or number) and optional ``subtype`` (a string).
    ``null`` counts as absent; a ``user``, ``subtype``, ``ts`` or
    ``thread_ts`` of another type, a boolean ``ts`` included, is an input
    error naming the file and entry.
    A message is named ``<channel>/<ts>`` by the text of its ``ts`` (a
    number as Python writes it), and ``thread_ts`` names its root by the
    same text; a message whose ``thread_ts`` names itself is a thread root.

Repo activity (one JSON file per team):
    {"commits": [{"sha", "author", "authored_at"}, ...],
     "merge_requests": [{"id", "created_at", "commits": [sha],
                         "files": [path]}, ...]}
    with ISO-8601 UTC timestamps. ``sha``, ``author`` and the entries of
    the ``commits`` and ``files`` arrays are strings, and ``id`` is a string
    or an integer (not a boolean). Another type or a missing key is an input
    error naming the file and the value's path (``commits[3].sha``).

Feedback / outcomes / work logs are delimited tables with header rows; see
``parse_feedback``, ``parse_outcomes`` and ``parse_work_logs`` for columns.
Every row has the header's cell count, and no column is named twice.

Calendar bounds and repo timestamps are timezone-aware UTC datetimes. A
chat message's time is the float of its ``ts``, compared with the week
bounds through exact thresholds: the least float whose
``datetime.fromtimestamp`` in UTC reaches each bound. Week assignment uses
half-open intervals [start, end). Messages from handles outside a team's
identity map (instructors, bots) are dropped and counted in diagnostics
rather than failing the parse.

A chat export is read straight into what both measures use of it: each
calendar week's set of reply edges (``parse_chat_edges``). Repo activity is
read straight into what STC uses of it: each calendar week's merge requests
as (authors, files) pairs (``parse_repo_weeks``). The outcomes table is read
straight into each team's sprint -> (committed, passed, score) series plus
its year-level values (``parse_outcomes``), and the feedback table into each
team's sprint -> mean communication rating series (``parse_feedback``).
Parsing is pure per input, so per-team inputs can safely be parsed
concurrently.
"""

from __future__ import annotations

import bisect
import csv
import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping

from .errors import InputError, ValidationError

logger = logging.getLogger(__name__)

# Slack-style event subtypes that do not represent human communication.
EXCLUDED_SUBTYPES = frozenset({"channel_join", "channel_leave", "bot_message"})


def parse_utc(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values and 'Z' suffixes mean UTC.
    Inputs are read as ``TIMESTAMP`` values first (see ``is_timestamp``)."""
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def load_json(path: Path | str):
    """The JSON value of a UTF-8 file, for every JSON input (config, chat day
    files, repo activity, report.json); each failure is an InputError naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc}") from None
    try:
        # Decoded explicitly: json.loads(bytes) would also accept UTF-16/32
        # and a UTF-8 byte order mark.
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if "\r" in text:
            # Positions count newlines as text-mode reading translates them.
            try:
                json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
            except json.JSONDecodeError as translated:
                exc = translated
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno} (char {exc.pos})"
        ) from None


def is_timestamp(value) -> bool:
    try:
        return type(value) is str and parse_utc(value) is not None
    except (ValueError, OverflowError):  # OverflowError: out of range once in UTC
        return False


TIMESTAMP = "an ISO-8601 timestamp"
FLAG = "true or false"
TEAM_ID = "a file name without '/', '\\', ',' (not empty, '.' or '..')"

# Each kind of JSON value, as errors name it, and its test. JSON values have
# exact Python types, so a boolean is neither an integer nor a number.
KINDS = {
    "an object": lambda v: type(v) is dict,
    "an array": lambda v: type(v) is list,
    "a string": lambda v: type(v) is str,
    "a non-empty string": lambda v: type(v) is str and v != "",
    "a string or null": lambda v: v is None or type(v) is str,
    "a string or an integer": lambda v: type(v) is str or type(v) is int,
    "an integer": lambda v: type(v) is int or type(v) is float and v.is_integer(),
    "a number": lambda v: type(v) in (int, float),
    FLAG: lambda v: type(v) is bool,
    TIMESTAMP: is_timestamp,
    # a team id names output files, and team lists are joined and split on commas
    TEAM_ID: lambda v: type(v) is str and v not in ("", ".", "..") and set(v).isdisjoint("/\\,"),
}


def value_path(where: str, key) -> str:
    """The path of node[key] in a JSON value, where ``where`` is node's."""
    return f"{where}[{key}]" if type(key) is int else f"{where}.{key}" if where else key


def read_value(node, key, where: str, kind: str, default):
    """node[key] if it is of ``kind``, or ``default`` if the object node has no
    ``key``. Another value, or a missing one whose default is ``...``, is an
    InputError naming its path (``where`` is node's), built only then."""
    try:
        value = node[key]
    except KeyError:
        if default is ...:
            raise InputError(f"{value_path(where, key)} is missing") from None
        return default
    if not KINDS[kind](value):
        raise InputError(f"{value_path(where, key)} must be {kind}, got {value!r}")
    return value


def read_items(node, key, where: str, kind: str, default) -> list:
    """The entries of the array node[key], each of ``kind``, or ``default``."""
    array = read_value(node, key, where, "an array", default)
    if not all(map(KINDS[kind], array)):  # name the first entry of another kind
        for i in range(len(array)):
            read_value(array, i, value_path(where, key), kind, ...)
    return array


@dataclass
class Diagnostics:
    """Counters and notes accumulated while parsing and grouping replies."""

    counts: Counter = field(default_factory=Counter)
    notes: list[str] = field(default_factory=list)

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] += by

    def note(self, text: str) -> None:
        self.notes.append(text)


# ---------------------------------------------------------------------------
# Calendar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Week:
    week_id: int
    start: datetime
    end: datetime


@dataclass(frozen=True)
class Sprint:
    sprint_id: int
    week_ids: tuple[int, ...]


@dataclass(frozen=True)
class SprintCalendar:
    """Ordered, non-overlapping week intervals grouped into sprints."""

    weeks: tuple[Week, ...]
    sprints: tuple[Sprint, ...]
    excluded_sprints: frozenset[int] = frozenset()
    _starts: tuple[datetime, ...] = field(init=False, repr=False, compare=False)
    _ends: tuple[datetime, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.weeks:
            raise ValidationError("calendar has no weeks")
        seen_weeks: set[int] = set()
        prev: Week | None = None
        for week in self.weeks:
            if week.week_id < 1:
                raise ValidationError(f"week ids must be >= 1, got {week.week_id}")
            if week.week_id in seen_weeks:
                raise ValidationError(f"duplicate week id {week.week_id}")
            seen_weeks.add(week.week_id)
            if week.end <= week.start:
                raise ValidationError(f"week {week.week_id} has end <= start")
            if prev is not None and week.start < prev.end:
                raise ValidationError(
                    f"week {week.week_id} overlaps or precedes week {prev.week_id}"
                )
            prev = week
        assigned: set[int] = set()
        seen_sprints: set[int] = set()
        for sprint in self.sprints:
            if sprint.sprint_id in seen_sprints:
                raise ValidationError(f"duplicate sprint id {sprint.sprint_id}")
            seen_sprints.add(sprint.sprint_id)
            if not sprint.week_ids:
                raise ValidationError(f"sprint {sprint.sprint_id} has no weeks")
            for wid in sprint.week_ids:
                if wid not in seen_weeks:
                    raise ValidationError(
                        f"sprint {sprint.sprint_id} references unknown week {wid}"
                    )
                if wid in assigned:
                    raise ValidationError(f"week {wid} belongs to more than one sprint")
                assigned.add(wid)
        for sid in self.excluded_sprints:
            if sid not in seen_sprints:
                raise ValidationError(f"excluded sprint {sid} is not in the calendar")
        # Weeks are ordered and disjoint, so their starts ascend strictly.
        object.__setattr__(self, "_starts", tuple(w.start for w in self.weeks))
        object.__setattr__(self, "_ends", tuple(w.end for w in self.weeks))

    def _week_at(self, starts: tuple, ends: tuple, x: datetime | float) -> int | None:
        """Week i with starts[i] <= x < ends[i], or None; starts ascend."""
        i = bisect.bisect_right(starts, x) - 1
        if i < 0 or x >= ends[i]:
            return None
        return self.weeks[i].week_id

    def assign_week(self, ts: datetime) -> int | None:
        """Week containing ts under [start, end), or None (e.g. break gaps)."""
        return self._week_at(self._starts, self._ends, ts)

    @cached_property
    def _thresholds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Each week's start, and each week's end, as the least float whose
        UTC datetime reaches it (built on first use, not with the calendar)."""
        return (
            tuple(_least_time_at_or_after(w.start) for w in self.weeks),
            tuple(_least_time_at_or_after(w.end) for w in self.weeks),
        )

    def week_of_timestamp(self, ts: float) -> int | None:
        """assign_week of datetime.fromtimestamp(ts, timezone.utc), for any ts
        that fromtimestamp accepts, without building the datetime."""
        return self._week_at(*self._thresholds, ts)

    def week_ids(self) -> tuple[int, ...]:
        return tuple(w.week_id for w in self.weeks)

    def sprint_weeks(self, sprint_id: int) -> tuple[int, ...]:
        for sprint in self.sprints:
            if sprint.sprint_id == sprint_id:
                return sprint.week_ids
        raise ValidationError(f"unknown sprint {sprint_id}")

    def included_sprints(self) -> tuple[int, ...]:
        return tuple(
            s.sprint_id for s in self.sprints if s.sprint_id not in self.excluded_sprints
        )

    def included_weeks(self) -> tuple[int, ...]:
        """Weeks of the included sprints, in calendar order."""
        included = {w for s in self.included_sprints() for w in self.sprint_weeks(s)}
        return tuple(w for w in self.week_ids() if w in included)

    def with_excluded(self, extra: Iterable[int]) -> "SprintCalendar":
        return SprintCalendar(
            weeks=self.weeks,
            sprints=self.sprints,
            excluded_sprints=self.excluded_sprints | frozenset(extra),
        )


def _least_time_at_or_after(bound: datetime) -> float:
    """The least float x with datetime.fromtimestamp(x, timezone.utc) >= bound.

    fromtimestamp rounds half-even to microseconds and never decreases as x
    grows, so fromtimestamp(x, timezone.utc) >= bound holds exactly when x is
    at least the result. A float below the datetime range reads as before
    every bound, one above it as after every bound.
    """

    def reaches(x: float) -> bool:
        try:
            return datetime.fromtimestamp(x, timezone.utc) >= bound
        except (OverflowError, ValueError, OSError):
            return x > 0

    # Bracket the result, lo < result <= hi, then bisect the floats between.
    lo = hi = bound.timestamp()
    step = 1e-6
    while reaches(lo):
        lo = min(lo - step, math.nextafter(lo, -math.inf))
        step *= 2
    while not reaches(hi):
        hi = max(hi + step, math.nextafter(hi, math.inf))
        step *= 2
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    # Midpoints stop short only where they round onto an end; step the rest.
    while reaches(below := math.nextafter(hi, -math.inf)):
        hi = below
    return hi


# ---------------------------------------------------------------------------
# Domain records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Roster:
    """A team's members plus the raw-handle -> person identity map."""

    team_id: str
    members: frozenset[str]
    identity_map: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError(f"team {self.team_id} has an empty roster")
        unknown = {p for p in self.identity_map.values() if p not in self.members}
        if unknown:
            raise ValidationError(
                f"team {self.team_id}: identity map targets outside roster: {sorted(unknown)}"
            )

    def resolve(self, handle: str) -> str | None:
        return self.identity_map.get(handle)


# A merge request as STC reads it: the people who authored its kept commits,
# and the paths it changed.
MrSets = tuple[frozenset[str], frozenset[str]]


# A team's sprint outcome: (story points committed, story points passed, team score).
SprintOutcome = tuple[float, float, float]
# A team's year-level values: (stories passed total, pair programming hours).
YearLevel = tuple[int | None, float | None]


# ---------------------------------------------------------------------------
# Chat export
# ---------------------------------------------------------------------------


def _listdir(path: str) -> list[str]:
    try:
        return sorted(os.listdir(path))
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc}") from None


# datetime.fromtimestamp accepts every float in [0, 2**34] (1970 to 2514), so
# a chat ts in that window is valid without building its datetime.
_TS_ALWAYS_VALID = 2.0**34


def parse_chat_edges(
    export_root: Path | str,
    roster: Roster,
    cal: SprintCalendar,
    excluded_handles: Iterable[str] = (),
    diagnostics: Diagnostics | None = None,
) -> tuple[dict[int, frozenset[tuple[str, str]]], int, int]:
    """Each week's reply edges of a chat workspace export tree, in one walk.

    Walks every channel directory and day file, maps raw handles through the
    roster's identity map, and resolves a channel's thread roots once all of
    its day files are read. Bot/app messages, excluded subtypes, and unknown
    handles are dropped with diagnostics. A reply joins its author and its
    thread root's author, as a pair sorted by name, in the calendar week it
    was sent. A message's time is the float of its ``ts``; its week is found
    through the calendar's exact thresholds (``week_of_timestamp``), so it is
    the week of the UTC datetime that ``datetime.fromtimestamp`` gives.
    Replies to a dropped root, self-replies and replies outside every week
    make no edge; each rule is counted. A reply whose datetime predates its
    root's is a validation error naming the least (timestamp, message_id)
    such reply.

    Returns the edge sets by week id, the number of kept messages and the
    number of replies that made an edge. The counters of the walk are
    updated also when the parse raises, with the counts reached by then;
    replies to a dropped root are counted once every channel is read.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    root = Path(export_root)
    if not root.is_dir():
        raise InputError(f"chat export directory not found: {root}")
    excluded = frozenset(excluded_handles)
    person_of = roster.identity_map.get
    week_of = cal.week_of_timestamp
    utc = timezone.utc
    by_week: dict[int, set[tuple[str, str]]] = {}
    late: tuple[datetime, str, str] | None = None
    seen = dropped_subtype = dropped_excluded = dropped_unknown = dropped_root = 0
    n_kept = orphans = replies = self_reply = out_of_calendar = 0
    try:
        for channel in _listdir(str(root)):
            channel_dir = str(root / channel)
            if not os.path.isdir(channel_dir):
                continue
            # ts text -> (time, author) of every kept message of this channel,
            # since a thread_ts names a root in its own channel only: the
            # duplicate-ts check, the dropped-root rule, the thread-order
            # check and each reply's week and edge all read it.
            kept: dict[str, tuple[float, str]] = {}
            threaded: list[tuple[str, str]] = []  # (reply ts text, root ts text)
            for name in _listdir(channel_dir):
                if not name.endswith(".json"):
                    continue
                day_file = f"{channel_dir}/{name}"
                payload = load_json(day_file)
                if not isinstance(payload, list):
                    raise InputError(f"{day_file}: expected a JSON array of messages")
                for i, obj in enumerate(payload):
                    if not isinstance(obj, dict) or "ts" not in obj:
                        raise InputError(f"{day_file}: entry {i} is not a message object")
                    seen += 1
                    subtype = obj.get("subtype")
                    if subtype is not None:
                        if not isinstance(subtype, str):
                            raise InputError(
                                f"{day_file}: entry {i} has invalid subtype {subtype!r}"
                            )
                        if subtype in EXCLUDED_SUBTYPES:
                            dropped_subtype += 1
                            continue
                    handle = obj.get("user")
                    if handle is not None and not isinstance(handle, str):
                        raise InputError(f"{day_file}: entry {i} has invalid user {handle!r}")
                    if not handle or handle in excluded:
                        dropped_excluded += 1
                        continue
                    person = person_of(handle)
                    if person is None:
                        dropped_unknown += 1
                        logger.debug("%s: unknown handle %s", day_file, handle)
                        continue
                    ts_raw = obj["ts"]
                    try:
                        if type(ts_raw) is bool:  # float(True) is 1.0
                            raise TypeError
                        ts = float(ts_raw)
                        # NaN fails the comparison too, and so is converted.
                        if not 0.0 <= ts <= _TS_ALWAYS_VALID:
                            datetime.fromtimestamp(ts, utc)  # validated, not kept
                    except (TypeError, ValueError, OverflowError, OSError):
                        raise InputError(
                            f"{day_file}: entry {i} has invalid ts {ts_raw!r}"
                        ) from None
                    key = f"{ts_raw}"
                    if key in kept:
                        raise ValidationError(
                            f"{day_file}: entry {i} has duplicate ts {ts_raw!r}"
                        )
                    thread_ts = obj.get("thread_ts")
                    if thread_ts is not None and type(thread_ts) not in (str, int, float):
                        raise InputError(
                            f"{day_file}: entry {i} has invalid thread_ts {thread_ts!r}"
                        )
                    kept[key] = (ts, person)
                    if thread_ts:
                        # Messages are named by text, so a root may spell its
                        # own thread_ts as a number where its ts is a string.
                        thread_key = f"{thread_ts}"
                        if thread_key != key:
                            threaded.append((key, thread_key))

            n_kept += len(kept)
            for key, thread_key in threaded:
                root_msg = kept.get(thread_key)
                if root_msg is None:
                    orphans += 1
                    continue
                ts, author = kept[key]
                root_ts, root_author = root_msg
                # Floats that differ may still round to one microsecond.
                if ts < root_ts and (
                    (at := datetime.fromtimestamp(ts, utc)) < datetime.fromtimestamp(root_ts, utc)
                ):
                    # message_id is unique, so the tuples never compare past it.
                    reply = (at, f"{channel}/{key}", f"{channel}/{thread_key}")
                    if late is None or reply < late:
                        late = reply
                elif root_author == author:
                    self_reply += 1
                elif (week := week_of(ts)) is None:
                    out_of_calendar += 1
                else:
                    replies += 1
                    pair = (author, root_author) if author < root_author else (root_author, author)
                    by_week.setdefault(week, set()).add(pair)
        # An input error in a later channel leaves this counter at 0.
        dropped_root = orphans
        if late is not None:
            raise ValidationError(f"message {late[1]} predates its thread root {late[2]}")
        diag.bump("messages_kept", n_kept)
        for key, n in (
            ("events_skipped_self_reply", self_reply),
            ("events_dropped_out_of_calendar", out_of_calendar),
        ):
            if n:
                diag.bump(key, n)
        return {week: frozenset(edges) for week, edges in by_week.items()}, n_kept, replies
    finally:
        for key, n in (
            ("messages_seen", seen),
            ("messages_dropped_subtype", dropped_subtype),
            ("messages_dropped_excluded_handle", dropped_excluded),
            ("messages_dropped_unknown_handle", dropped_unknown),
            ("replies_to_dropped_root", dropped_root),
        ):
            if n:
                diag.bump(key, n)


# ---------------------------------------------------------------------------
# Repo activity
# ---------------------------------------------------------------------------


def parse_repo_weeks(
    path: Path | str,
    roster: Roster,
    cal: SprintCalendar,
    diagnostics: Diagnostics | None = None,
) -> tuple[dict[int, list[MrSets]], int, int]:
    """Each calendar week's merge requests as (authors, files) pairs, in one walk.

    Validates the normalized repo-activity file and its referential
    integrity. A commit's author is a handle of the identity map or a
    member id; commits by any other author are dropped with a diagnostic. A
    merge request's authors are the people of its kept commits, whatever
    their dates, and each distinct listed sha of a dropped commit counts as
    a dropped link. A merge request referencing a sha absent from the raw
    commit list is an integrity error. Merge requests with no changed files
    stay in their week's list but are counted; STC scoring excludes them. A
    merge request created outside every week is in no list.

    Returns the pairs by week id in file order, the number of kept commits
    and the number of merge requests.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    p = Path(path)
    if not p.is_file():
        raise InputError(f"repo activity file not found: {p}")
    payload = load_json(p)  # its errors name the file already
    try:
        if type(payload) is not dict:
            raise InputError("repo activity must be a JSON object")
        commits = read_items(payload, "commits", "", "an object", ...)
        merge_requests = read_items(payload, "merge_requests", "", "an object", ...)

        # sha -> person of every listed commit; None for a dropped commit.
        author_of: dict[str, str | None] = {}
        kept = 0
        for i, obj in enumerate(commits):
            where = f"commits[{i}]"
            sha = read_value(obj, "sha", where, "a string", ...)
            author = read_value(obj, "author", where, "a string", ...)
            read_value(obj, "authored_at", where, TIMESTAMP, ...)  # validated, not kept
            if sha in author_of:
                raise ValidationError(f"duplicate commit sha {sha}")
            person = roster.resolve(author) or (author if author in roster.members else None)
            author_of[sha] = person
            if person is None:
                diag.bump("commits_dropped_unknown_author")
            else:
                kept += 1

        assign_week = cal.assign_week
        by_week: dict[int, list[MrSets]] = {}
        seen_mrs: set[str] = set()
        for i, obj in enumerate(merge_requests):
            where = f"merge_requests[{i}]"
            mr_id = str(read_value(obj, "id", where, "a string or an integer", ...))
            created_at = parse_utc(read_value(obj, "created_at", where, TIMESTAMP, ...))
            shas = read_items(obj, "commits", where, "a string", ...)
            files = read_items(obj, "files", where, "a string", ...)
            if mr_id in seen_mrs:
                raise ValidationError(f"duplicate merge request id {mr_id}")
            seen_mrs.add(mr_id)
            dangling = [s for s in shas if s not in author_of]
            if dangling:
                raise ValidationError(
                    f"merge request {mr_id} references unknown commit sha(s): "
                    f"{', '.join(sorted(dangling))}"
                )
            dropped = {s for s in shas if author_of[s] is None}
            if dropped:
                diag.bump("mr_commit_links_dropped", len(dropped))
            if not files:
                diag.bump("mrs_with_empty_files")
                logger.warning("%s: merge request %s has no changed files", p, mr_id)
            week = assign_week(created_at)
            if week is not None:
                authors = frozenset(author_of[s] for s in shas if s not in dropped)
                by_week.setdefault(week, []).append((authors, frozenset(files)))
    except (InputError, ValidationError) as exc:
        raise type(exc)(f"{p}: {exc}") from None
    diag.bump("commits_kept", kept)
    diag.bump("mrs_kept", len(seen_mrs))
    return by_week, kept, len(seen_mrs)


# ---------------------------------------------------------------------------
# Delimited tables
# ---------------------------------------------------------------------------


def _read_rows(path: Path, required: tuple[str, ...]):
    if not path.is_file():
        raise InputError(f"table not found: {path}")
    line = 0  # the last line of the records read whole
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
            if twice := [c for c, n in Counter(header).items() if n > 1]:
                raise InputError(f"{path}: column {twice[0]} is named twice")
            line = reader.line_num
            for cells in reader:
                # A row is named by the 1-based file line it ends on: blank
                # lines are skipped, and a quoted field may span lines.
                line = reader.line_num
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise ValidationError(
                        f"{path}:line {line}: {len(cells)} cells, the header has {len(header)}"
                    )
                yield line, dict(zip(header, cells))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise InputError(f"{path}:line {line + 1}: {exc}") from None


def parse_feedback(
    path: Path | str,
    cal: SprintCalendar,
    rosters: Iterable[Roster],
    diagnostics: Diagnostics | None = None,
) -> dict[str, dict[int, float]]:
    """Each team's mean communication rating per sprint, in one walk.

    Columns: sprint_id, rater, ratee, communication_rating (Likert 1..5).
    A rating counts for the team whose roster lists its rater, and its ratee
    must be on that roster too; a kept row whose rater is on no roster counts
    for no team, and each such rater gets a note naming its row count, as in
    ``parse_outcomes``. Rows for excluded sprints are filtered out.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    p = Path(path)
    team_of = {person: roster.team_id for roster in rosters for person in roster.members}
    ratings: dict[str, dict[int, list[int]]] = {}
    kept = 0
    unrostered: Counter = Counter()  # rater on no roster -> row count
    known_sprints = {s.sprint_id for s in cal.sprints}
    for line, row in _read_rows(p, ("sprint_id", "rater", "ratee", "communication_rating")):
        try:
            sprint_id = int(row["sprint_id"])
            rating = int(row["communication_rating"])
        except ValueError:
            raise ValidationError(f"{p}:line {line}: non-integer sprint or rating") from None
        if sprint_id not in known_sprints:
            raise ValidationError(f"{p}:line {line}: unknown sprint {sprint_id}")
        if not 1 <= rating <= 5:
            raise ValidationError(
                f"{p}:line {line}: communication rating {rating} out of range [1, 5]"
            )
        rater, ratee = row["rater"], row["ratee"]
        if rater == ratee:
            raise ValidationError(f"{p}:line {line}: rater equals ratee ({rater})")
        team = team_of.get(rater)
        if team is None:
            unrostered[rater] += 1
        elif team_of.get(ratee) != team:
            raise ValidationError(f"{p}:line {line}: ratee {ratee} is not on team {team}")
        if sprint_id in cal.excluded_sprints:
            diag.bump("feedback_rows_excluded_sprint")
            continue
        kept += 1
        if team is not None:
            ratings.setdefault(team, {}).setdefault(sprint_id, []).append(rating)
    diag.bump("feedback_rows_kept", kept)
    for rater in sorted(unrostered):
        diag.note(
            f"rater {rater}: {unrostered[rater]} feedback row(s) of a rater on no roster; ignored"
        )
    return {
        team: {sprint: sum(r) / len(r) for sprint, r in by_sprint.items()}
        for team, by_sprint in ratings.items()
    }


_OUTCOME_COLS = (
    "team_id",
    "sprint_id",
    "story_points_committed",
    "story_points_passed",
    "team_score",
)


def parse_outcomes(
    path: Path | str,
    cal: SprintCalendar,
    teams: Collection[str],
    diagnostics: Diagnostics | None = None,
) -> tuple[dict[str, dict[int, SprintOutcome]], dict[str, YearLevel]]:
    """Each team's sprint outcomes and year-level values, in one walk.

    Required columns: team_id, sprint_id, story_points_committed,
    story_points_passed, team_score. A team has at most one row per sprint.
    Optional year-level columns stories_passed_total and
    pair_programming_hours may be blank but must be consistent across a
    team's rows. Rows for excluded sprints are filtered. Each team in the
    table but not in the configured ``teams`` gets a note naming its row
    count, since no analysis reads its rows.

    Returns each team's sprint -> (committed, passed, team_score) of its
    kept rows, and the year-level (stories_passed_total,
    pair_programming_hours) of each team with a kept row, taken from all of
    its rows; a value blank on every row is None.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    p = Path(path)
    by_team: dict[str, dict[int, SprintOutcome]] = {}
    known_sprints = {s.sprint_id for s in cal.sprints}
    year_level: dict[str, YearLevel] = {}
    first_line: dict[tuple[str, int], int] = {}  # (team, sprint) -> its row's line
    for line, row in _read_rows(p, _OUTCOME_COLS):
        team = row["team_id"]
        try:
            sprint_id = int(row["sprint_id"])
            committed = float(row["story_points_committed"])
            passed = float(row["story_points_passed"])
            score = float(row["team_score"])
            stories_raw = (row.get("stories_passed_total") or "").strip()
            hours_raw = (row.get("pair_programming_hours") or "").strip()
            stories = int(stories_raw) if stories_raw else None
            hours = float(hours_raw) if hours_raw else None
        except ValueError:
            raise ValidationError(f"{p}:line {line}: non-numeric outcome value") from None
        if not all(map(math.isfinite, (committed, passed, score, hours or 0.0))):
            raise ValidationError(f"{p}:line {line}: non-finite outcome value")
        if sprint_id not in known_sprints:
            raise ValidationError(f"{p}:line {line}: unknown sprint {sprint_id}")
        if (first := first_line.setdefault((team, sprint_id), line)) != line:
            raise ValidationError(
                f"{p}:line {line}: second row for team {team} sprint {sprint_id} "
                f"(first at line {first})"
            )
        if committed < 0 or passed < 0:
            raise ValidationError(f"{p}:line {line}: negative story points")
        if passed > committed:
            raise ValidationError(
                f"{p}:line {line}: story points passed ({passed:g}) exceeds "
                f"committed ({committed:g})"
            )
        if hours is not None and hours < 0:
            raise ValidationError(f"{p}:line {line}: negative pair programming hours")
        if stories is not None:
            if stories < 0:
                raise ValidationError(f"{p}:line {line}: negative stories passed total")
            try:
                float(stories)  # the U test and the anomaly ranks compare floats
            except OverflowError:
                raise ValidationError(
                    f"{p}:line {line}: stories passed total too large"
                ) from None
        # Year-level values may be blank on some of a team's rows, not differ.
        prev = year_level.get(team, (None, None))
        if any(v is not None and old is not None and v != old
               for v, old in zip((stories, hours), prev)):
            raise ValidationError(
                f"{p}:line {line}: year-level values for team {team} disagree "
                f"with earlier rows"
            )
        year_level[team] = tuple(old if v is None else v for v, old in zip((stories, hours), prev))
        if sprint_id in cal.excluded_sprints:
            diag.bump("outcome_rows_excluded_sprint")
            continue
        by_team.setdefault(team, {})[sprint_id] = (committed, passed, score)
    diag.bump("outcome_rows_kept", sum(map(len, by_team.values())))
    rows_of = Counter(team for team, _ in first_line)
    for team in sorted(rows_of.keys() - set(teams)):
        diag.note(f"team {team}: {rows_of[team]} outcome row(s) of a team not configured; ignored")
    return by_team, {team: year_level[team] for team in by_team}


def parse_work_logs(
    path: Path | str,
    teams: Collection[str],
    diagnostics: Diagnostics | None = None,
) -> dict[str, float]:
    """Sum pair-programming hours per team from a granular work log.

    Required columns: team_id, hours. Any extra columns (person_id, week_id,
    activity) are ignored for the totals. A team not in ``teams`` gets a note
    naming its row count, as in ``parse_outcomes``.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    p = Path(path)
    totals: dict[str, float] = {}
    rows_of: Counter = Counter()
    for line, row in _read_rows(p, ("team_id", "hours")):
        try:
            hours = float(row["hours"])
        except ValueError:
            raise ValidationError(f"{p}:line {line}: non-numeric hours") from None
        if not math.isfinite(hours):
            raise ValidationError(f"{p}:line {line}: non-finite hours")
        if hours < 0:
            raise ValidationError(f"{p}:line {line}: negative hours")
        team = row["team_id"]
        total = totals.get(team, 0.0) + hours
        if not math.isfinite(total):
            raise ValidationError(f"{p}:line {line}: hours total of team {team} overflows")
        totals[team] = total
        rows_of[team] += 1
        diag.bump("work_log_rows")
    for team in sorted(rows_of.keys() - set(teams)):
        diag.note(f"team {team}: {rows_of[team]} work log row(s) of a team not configured; ignored")
    return totals
