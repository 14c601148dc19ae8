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
    that encodes as UTF-8 (no lone surrogate) or an integer (not a boolean).
    Another value or a missing key is an input error naming the file and the
    value's path (``commits[3].sha``).

Feedback / outcomes / work logs are delimited tables with header rows; see
``parse_feedback``, ``parse_outcomes`` and ``parse_work_logs`` for columns.
Every row has the header's cell count, and no column is named twice.

Every input file, JSON or table, is read whole by one reader that looks
nothing up before it opens the file: anything but a regular file (a
directory, a FIFO, a device) is ``<path>: not a file``, and a file over
``MAX_INPUT_BYTES`` (64 MiB) is ``<path>: too large: over 67108864 bytes``.

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

import csv
import io
import json
import math
import operator
import os
import stat
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping

from .errors import InputError, ValidationError

# Slack-style event subtypes that do not represent human communication.
EXCLUDED_SUBTYPES = frozenset({"channel_join", "channel_leave", "bot_message"})

# The most bytes of any input file; a generated long season's largest is 430 KB.
MAX_INPUT_BYTES = 64 * 1024 * 1024


def parse_utc(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values and 'Z' suffixes mean UTC.
    Inputs are read as ``TIMESTAMP`` values (see ``read_utc``)."""
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _require_regular(fd: int, path: Path | str) -> None:
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        raise InputError(f"{path}: not a file")


def _read_bytes(path: Path | str, missing: str, dir_fd: int | None = None) -> bytes:
    """The bytes of the regular file ``path``, at most MAX_INPUT_BYTES (more is
    too large); nothing there is ``<missing>: <path>``. With ``dir_fd``, a
    descriptor of the file's directory, ``path`` is a str and its last
    component is opened in that directory, so the open walks one name; every
    error still names the whole path. It reads through a raw descriptor: a
    chat day file holds a few KB, and a buffered ``open()`` costs more than
    reading them. The open does not block, so a FIFO is not a wait for a
    writer. The file's kind costs an fstat, a third of a day file's read: only
    a read that gives no bytes, fails, or fills the first buffer (a device
    that never ends) looks it up."""
    name = path if dir_fd is None else path.rpartition("/")[2]
    try:
        fd = os.open(name, os.O_RDONLY | os.O_NONBLOCK, dir_fd=dir_fd)
    except (FileNotFoundError, NotADirectoryError):
        raise InputError(f"{missing}: {path}") from None
    except OSError as exc:
        exc.filename = os.fspath(path)  # a relative open names the last component only
        raise InputError(f"{path}: cannot read: {exc}") from None
    try:
        chunks, size = [], 0
        try:
            while chunk := os.read(fd, 65536):
                if len(chunk) == 65536 and not chunks:
                    _require_regular(fd, path)
                if (size := size + len(chunk)) > MAX_INPUT_BYTES:
                    raise InputError(f"{path}: too large: over {MAX_INPUT_BYTES} bytes")
                chunks.append(chunk)
        except OSError as exc:  # EISDIR; BlockingIOError: a FIFO with nothing written yet
            _require_regular(fd, path)
            exc.filename = os.fspath(path)  # os.read names no file
            raise InputError(f"{path}: cannot read: {exc}") from None
        if not chunks:
            _require_regular(fd, path)
    finally:
        os.close(fd)
    return b"".join(chunks)


class _RepeatedKey(Exception):
    """A key given twice in one JSON object; its argument is the key."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice raises _RepeatedKey."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return obj


# The decoder of every JSON input read without the repeated-key check: called
# directly, a chat day file skips json.loads's checks of its arguments.
_DECODER = json.JSONDecoder()


def load_json(path: Path | str, missing: str, *, unique_keys: bool, dir_fd: int | None = None):
    """The JSON value of a UTF-8 file, for every JSON input (config, chat day
    files, repo activity, report.json); each failure is an InputError naming
    it, and ``<missing>: <path>`` where nothing is there. ``dir_fd`` is as in
    ``_read_bytes``.

    With ``unique_keys``, a key given twice in one object is an input error;
    without, the last value counts. Chat day files are read without the
    check, which about doubles their decoding time."""
    data = _read_bytes(path, missing, dir_fd)
    try:
        # Decoded explicitly: json.loads(bytes) would also accept UTF-16/32
        # and a UTF-8 byte order mark.
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from None
    try:
        if unique_keys:
            return json.loads(text, object_pairs_hook=_unique_keys)
        return _DECODER.decode(text)
    except _RepeatedKey as exc:
        raise InputError(f"{path}: key '{exc.args[0]}' given twice in one object") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
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


def _utc_or_none(value) -> datetime | None:
    """The UTC datetime of a ``TIMESTAMP`` value, or None for any other value."""
    try:
        return parse_utc(value) if type(value) is str else None
    except (ValueError, OverflowError):  # OverflowError: out of range once in UTC
        return None


def _encodes(text: str, encode) -> bool:
    """Whether ``encode`` takes ``text``: ``str.encode`` (UTF-8) or
    ``os.fsencode`` (a path). JSON can spell a lone surrogate (``"\\ud800"``),
    which neither takes; os.fsencode takes the escape of a byte that is not
    UTF-8 (``"\\udcff"``), as Python names such a file. ASCII needs no encoding."""
    if text.isascii():
        return True
    try:
        encode(text)
    except UnicodeEncodeError:
        return False
    return True


TIMESTAMP = "an ISO-8601 timestamp"
FLAG = "true or false"
TEAM_ID = "a UTF-8 file name without '/', '\\', ',' or NUL (not empty, '.' or '..')"
TEXT = "a UTF-8 string"
MR_ID = "a UTF-8 string or an integer"
PATH = "a non-empty file system path (no NUL)"
OPTIONAL_PATH = "a file system path (no NUL) or null"

# Each kind of JSON value, as errors name it, and its test. JSON values have
# exact Python types, so a boolean is neither an integer nor a number. A
# value that reaches a file name or standard output encodes as UTF-8
# (TEAM_ID, TEXT, MR_ID), and a path holds no NUL and os.fsencode takes it.
KINDS = {
    "an object": lambda v: type(v) is dict,
    "an array": lambda v: type(v) is list,
    "a string": lambda v: type(v) is str,
    TEXT: lambda v: type(v) is str and _encodes(v, str.encode),
    MR_ID: lambda v: type(v) is int or type(v) is str and _encodes(v, str.encode),
    PATH: lambda v: type(v) is str and v != "" and "\0" not in v and _encodes(v, os.fsencode),
    OPTIONAL_PATH: lambda v: v is None or v == "" or KINDS[PATH](v),
    "an integer": lambda v: type(v) is int or type(v) is float and v.is_integer(),
    "a number": lambda v: type(v) in (int, float),
    FLAG: lambda v: type(v) is bool,
    TIMESTAMP: lambda v: _utc_or_none(v) is not None,
    # a team id names output files, and team lists are joined and split on commas
    TEAM_ID: lambda v: (
        type(v) is str and v not in ("", ".", "..") and set(v).isdisjoint("/\\,\0")
        and _encodes(v, str.encode)
    ),
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


def read_utc(node, key, where: str) -> datetime:
    """The UTC datetime of the ``TIMESTAMP`` value node[key] of the object
    node, parsed once; a missing value or another one is read_value's error."""
    ts = _utc_or_none(node.get(key))
    if ts is None:
        read_value(node, key, where, TIMESTAMP, ...)  # raises the error naming it
    return ts


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

    def assign_week(self, ts: datetime) -> int | None:
        """Week containing ts under [start, end), or None (e.g. break gaps)."""
        i = bisect_right(self._starts, ts) - 1
        if i < 0 or ts >= self._ends[i]:
            return None
        return self.weeks[i].week_id

    @cached_property
    def thresholds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Each week's start, and each week's end, as the least float whose
        UTC datetime reaches it (built on first use, not with the calendar):
        a float x lies in week i exactly when ``datetime.fromtimestamp(x,
        timezone.utc)`` does, that is when starts[i] <= x < ends[i]."""
        return (
            tuple(_least_time_at_or_after(w.start) for w in self.weeks),
            tuple(_least_time_at_or_after(w.end) for w in self.weeks),
        )

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


def _listdir(path: str, fd: int | None = None) -> list[str]:
    """The sorted names in the directory ``path``, listed through its
    descriptor ``fd`` where one is given; each error names ``path``."""
    try:
        return sorted(os.listdir(path if fd is None else fd))
    except FileNotFoundError:
        raise InputError(f"chat export directory not found: {path}") from None
    except NotADirectoryError:
        raise InputError(f"{path}: not a directory") from None
    except OSError as exc:
        exc.filename = path  # a listing through a descriptor names no path
        raise InputError(f"{path}: cannot read: {exc}") from None


def _open_dir(path: str) -> int | None:
    """A descriptor of the directory ``path``; None where it is no directory,
    is gone or cannot be looked up. A directory that cannot be opened is
    ``<path>: cannot read: ...``."""
    try:
        return os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError as exc:
        if not os.path.isdir(path):
            return None
        raise InputError(f"{path}: cannot read: {exc}") from None


# datetime.fromtimestamp accepts every float in [0, 2**34] (1970 to 2514), so
# a chat ts in that window is valid without building its datetime.
_TS_ALWAYS_VALID = 2.0**34


def parse_chat_edges(
    export_root: Path | str,
    roster: Roster,
    cal: SprintCalendar,
    excluded_handles: Iterable[str],
    diag: Diagnostics,
) -> tuple[dict[int, frozenset[tuple[str, str]]], int, int]:
    """Each week's reply edges of a chat workspace export tree, in one walk.

    Walks every channel directory and day file, maps raw handles through the
    roster's identity map, and resolves a channel's thread roots once all of
    its day files are read. Each channel directory is opened once, listed
    through its descriptor and its day files opened in it, so each open walks
    one name; errors still name the full path. An entry of the export root
    that is no directory, or is gone, is skipped; a channel that cannot be
    read is an input error. Bot/app messages, excluded subtypes, and unknown
    handles are dropped with diagnostics. A reply joins its author and its
    thread root's author, as a pair sorted by name, in the calendar week it
    was sent. A message's time is the float of its ``ts``; its week is found
    by a bisect over the calendar's exact thresholds (``thresholds``), so it
    is the week of the UTC datetime that ``datetime.fromtimestamp`` gives.
    Replies to a dropped root, self-replies and replies outside every week
    make no edge; each rule is counted. A reply whose datetime predates its
    root's is a validation error naming the least (timestamp, message_id)
    such reply.

    Returns the edge sets by week id, the number of kept messages and the
    number of replies that made an edge. The counters of the walk are
    updated also when the parse raises, with the counts reached by then;
    replies to a dropped root are counted once every channel is read.
    """
    root = Path(export_root)
    excluded = frozenset(excluded_handles)
    # A kept message's handle is found with one lookup: the map holds no
    # handle that is dropped as empty or excluded. A miss is classified after.
    person_of = {
        h: p for h, p in roster.identity_map.items() if h and h not in excluded
    }.get
    starts, ends = cal.thresholds
    week_ids = cal.week_ids()
    utc = timezone.utc
    by_week: defaultdict[int, set[tuple[str, str]]] = defaultdict(set)
    late: tuple[datetime, str, str] | None = None
    seen = dropped_subtype = dropped_excluded = dropped_unknown = dropped_root = 0
    n_kept = orphans = replies = self_reply = out_of_calendar = 0
    try:
        for channel in _listdir(str(root)):
            channel_dir = str(root / channel)
            if (dir_fd := _open_dir(channel_dir)) is None:
                continue
            # ts text -> (time, author) of every kept message of this channel,
            # since a thread_ts names a root in its own channel only: the
            # duplicate-ts check, the dropped-root rule, the thread-order
            # check and each reply's week and edge all read it.
            kept: dict[str, tuple[float, str]] = {}
            threaded: list[tuple[str, str]] = []  # (reply ts text, root ts text)
            try:
                for name in _listdir(channel_dir, dir_fd):
                    if not name.endswith(".json"):
                        continue
                    day_file = f"{channel_dir}/{name}"
                    payload = load_json(
                        day_file, "chat day file not found", unique_keys=False, dir_fd=dir_fd
                    )
                    if not isinstance(payload, list):
                        raise InputError(f"{day_file}: expected a JSON array of messages")
                    for i, obj in enumerate(payload):
                        try:  # of the JSON values, only an object takes a string key
                            ts_raw = obj["ts"]
                        except (KeyError, TypeError):
                            raise InputError(
                                f"{day_file}: entry {i} is not a message object"
                            ) from None
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
                        try:
                            person = person_of(handle)
                        except TypeError:  # an unhashable user: a list or an object
                            person = None
                        if person is None:
                            if handle is not None and not isinstance(handle, str):
                                raise InputError(
                                    f"{day_file}: entry {i} has invalid user {handle!r}"
                                )
                            if not handle or handle in excluded:
                                dropped_excluded += 1
                            else:
                                dropped_unknown += 1
                            continue
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
            finally:
                os.close(dir_fd)

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
                elif (w := bisect_right(starts, ts) - 1) < 0 or ts >= ends[w]:
                    out_of_calendar += 1
                else:
                    replies += 1
                    pair = (author, root_author) if author < root_author else (root_author, author)
                    by_week[week_ids[w]].add(pair)
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
    diag: Diagnostics,
) -> tuple[dict[int, list[MrSets]], int, int]:
    """Each calendar week's merge requests as (authors, files) pairs, in one walk.

    Validates the normalized repo-activity file and its referential
    integrity. A commit's author is a handle of the identity map or a
    member id; commits by any other author are dropped with a diagnostic. A
    merge request's authors are the people of its kept commits, whatever
    their dates, and each distinct listed sha of a dropped commit counts as
    a dropped link. A merge request referencing a sha absent from the raw
    commit list is an integrity error. A merge request with no changed files
    stays in its week's list, counted and noted; STC scoring excludes it. A
    merge request created outside every week is in no list.

    Returns the pairs by week id in file order, the number of kept commits
    and the number of merge requests.
    """
    p = Path(path)
    payload = load_json(p, "repo activity file not found", unique_keys=True)  # names the file
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
            read_utc(obj, "authored_at", where)  # validated, not kept
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
            mr_id = str(read_value(obj, "id", where, MR_ID, ...))
            created_at = read_utc(obj, "created_at", where)
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
                diag.note(f"team {roster.team_id}: merge request {mr_id} has no changed files")
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


def _read_rows(path: Path, columns: tuple[str, ...], optional: tuple[str, ...] = ()):
    """(line, cells) of each row of a delimited table: the cells of ``columns``
    and then of ``optional``, in that order, picked by position; an optional
    column the header lacks reads as "" in every row. The table is read whole
    and decoded once, so a byte that is not UTF-8 is named by its line."""
    data = _read_bytes(path, "table not found")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:line {line}: not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 0  # the last line of the records read whole
    try:
        header = next(reader, [])
        if missing := [c for c in columns if c not in header]:
            raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
        if twice := [c for c, n in Counter(header).items() if n > 1]:
            raise InputError(f"{path}: column {twice[0]} is named twice")
        # an absent optional column reads the "" appended to each row
        index = {name: i for i, name in enumerate(header)}
        pad = any(c not in index for c in optional)
        pick = operator.itemgetter(*(index.get(c, -1) for c in columns + optional))
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
            if pad:
                cells.append("")
            yield line, pick(cells)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise InputError(f"{path}:line {line + 1}: {exc}") from None


def parse_feedback(
    path: Path | str,
    cal: SprintCalendar,
    rosters: Iterable[Roster],
    diag: Diagnostics,
) -> dict[str, dict[int, float]]:
    """Each team's mean communication rating per sprint, in one walk.

    Columns: sprint_id, rater, ratee, communication_rating (Likert 1..5).
    A rating counts for the team whose roster lists its rater, and its ratee
    must be on that roster too; a kept row whose rater is on no roster counts
    for no team, and each such rater gets a note naming its row count, as in
    ``parse_outcomes``. Rows for excluded sprints are filtered out.
    """
    p = Path(path)
    team_of = {person: roster.team_id for roster in rosters for person in roster.members}
    ratings: dict[str, dict[int, list[int]]] = {}
    kept = 0
    unrostered: Counter = Counter()  # rater on no roster -> row count
    known_sprints = {s.sprint_id for s in cal.sprints}
    rows = _read_rows(p, ("sprint_id", "rater", "ratee", "communication_rating"))
    for line, (sprint_cell, rater, ratee, rating_cell) in rows:
        try:
            sprint_id = int(sprint_cell)
            rating = int(rating_cell)
        except ValueError:
            raise ValidationError(f"{p}:line {line}: non-integer sprint or rating") from None
        if sprint_id not in known_sprints:
            raise ValidationError(f"{p}:line {line}: unknown sprint {sprint_id}")
        if not 1 <= rating <= 5:
            raise ValidationError(
                f"{p}:line {line}: communication rating {rating} out of range [1, 5]"
            )
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
    diag: Diagnostics,
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
    p = Path(path)
    by_team: dict[str, dict[int, SprintOutcome]] = {}
    known_sprints = {s.sprint_id for s in cal.sprints}
    year_level: dict[str, YearLevel] = {}
    first_line: dict[tuple[str, int], int] = {}  # (team, sprint) -> its row's line
    rows = _read_rows(p, _OUTCOME_COLS, ("stories_passed_total", "pair_programming_hours"))
    for line, (team, sprint_cell, *point_cells, stories_raw, hours_raw) in rows:
        try:
            sprint_id = int(sprint_cell)
            committed, passed, score = map(float, point_cells)
            stories_raw = stories_raw.strip()
            hours_raw = hours_raw.strip()
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
    diag: Diagnostics,
) -> dict[str, float]:
    """Sum pair-programming hours per team from a granular work log.

    Required columns: team_id, hours. Any extra columns (person_id, week_id,
    activity) are ignored for the totals. A team not in ``teams`` gets a note
    naming its row count, as in ``parse_outcomes``.
    """
    p = Path(path)
    totals: dict[str, float] = {}
    rows_of: Counter = Counter()
    for line, (team, hours_cell) in _read_rows(p, ("team_id", "hours")):
        try:
            hours = float(hours_cell)
        except ValueError:
            raise ValidationError(f"{p}:line {line}: non-numeric hours") from None
        if not math.isfinite(hours):
            raise ValidationError(f"{p}:line {line}: non-finite hours")
        if hours < 0:
            raise ValidationError(f"{p}:line {line}: negative hours")
        total = totals.get(team, 0.0) + hours
        if not math.isfinite(total):
            raise ValidationError(f"{p}:line {line}: hours total of team {team} overflows")
        totals[team] = total
        rows_of[team] += 1
        diag.bump("work_log_rows")
    for team in sorted(rows_of.keys() - set(teams)):
        diag.note(f"team {team}: {rows_of[team]} work log row(s) of a team not configured; ignored")
    return totals
