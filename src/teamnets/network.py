"""Communication events and per-window team networks.

A directed communication event is recorded when one person replies inside a
thread started by another. Networks discard direction and edge weight: an
undirected edge is present iff at least one event connects the pair inside
the window. Every roster member is a node whether or not they communicated,
so triads over silent members are measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .ingestion import Diagnostics, MessageLog, Roster, SprintCalendar

__all__ = [
    "CommEvent",
    "Window",
    "CommunicationNetwork",
    "CoordinationMatrix",
    "week_window",
    "sprint_window",
    "derive_comm_events",
    "build_network",
    "actual_coordination",
    "write_edge_list",
]


@dataclass(frozen=True)
class CommEvent:
    """Reply author -> thread-root author, pinned to a calendar week."""

    sender: str
    recipient: str
    timestamp: datetime
    week_id: int


@dataclass(frozen=True)
class Window:
    kind: str  # "week" | "sprint"
    window_id: int
    week_ids: frozenset[int]

    def label(self) -> str:
        return f"{self.kind}{self.window_id}"


def week_window(week_id: int) -> Window:
    return Window(kind="week", window_id=week_id, week_ids=frozenset({week_id}))


def sprint_window(cal: SprintCalendar, sprint_id: int) -> Window:
    return Window(
        kind="sprint", window_id=sprint_id, week_ids=frozenset(cal.sprint_weeks(sprint_id))
    )


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CommunicationNetwork:
    roster: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # each pair sorted lexicographically
    window: Window

    def __post_init__(self) -> None:
        nodes = set(self.roster)
        for a, b in self.edges:
            if a == b:
                raise ValidationError(f"self-loop on {a}")
            if a not in nodes or b not in nodes:
                raise ValidationError(f"edge ({a}, {b}) leaves the roster")

    @property
    def n(self) -> int:
        return len(self.roster)

    def has_edge(self, a: str, b: str) -> bool:
        return _edge(a, b) in self.edges


def derive_comm_events(
    log: MessageLog,
    roster: Roster,
    cal: SprintCalendar,
    diagnostics: Diagnostics | None = None,
) -> list[CommEvent]:
    """One event per threaded reply toward the thread root's author.

    Self-replies produce no event; replies falling outside every calendar
    week are dropped and counted.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    author_of = {m.message_id: m.author for m in log.messages}
    events: list[CommEvent] = []
    for m in log.messages:
        if m.thread_root is None:
            continue
        root_author = author_of.get(m.thread_root)
        if root_author is None:
            diag.bump("events_dropped_missing_root")
            continue
        if root_author == m.author:
            diag.bump("events_skipped_self_reply")
            continue
        if m.author not in roster.members or root_author not in roster.members:
            diag.bump("events_dropped_non_roster")
            continue
        week = cal.assign_week(m.timestamp)
        if week is None:
            diag.bump("events_dropped_out_of_calendar")
            continue
        events.append(
            CommEvent(sender=m.author, recipient=root_author, timestamp=m.timestamp, week_id=week)
        )
    return events


def build_network(
    events: Iterable[CommEvent], roster: Roster, window: Window
) -> CommunicationNetwork:
    """Undirected presence/absence network over the full roster."""
    edges = {
        _edge(e.sender, e.recipient) for e in events if e.week_id in window.week_ids
    }
    return CommunicationNetwork(
        roster=tuple(sorted(roster.members)), edges=frozenset(edges), window=window
    )


@dataclass
class CoordinationMatrix:
    """Symmetric binary actual-coordination matrix for one week."""

    roster: tuple[str, ...]
    week_id: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = len(self.roster)
        if self.values.shape != (n, n):
            raise ValidationError("coordination matrix shape does not match roster")
        if np.any(np.diag(self.values) != 0):
            raise ValidationError("coordination matrix has a nonzero diagonal")
        if not np.array_equal(self.values, self.values.T):
            raise ValidationError("coordination matrix is not symmetric")


def actual_coordination(
    events: Iterable[CommEvent], roster: Roster, week_id: int
) -> CoordinationMatrix:
    """Entry (x, y) = 1 iff at least one event links x and y that week."""
    people = tuple(sorted(roster.members))
    index = {p: i for i, p in enumerate(people)}
    values = np.zeros((len(people), len(people)), dtype=np.int8)
    for e in events:
        if e.week_id != week_id:
            continue
        i, j = index[e.sender], index[e.recipient]
        values[i, j] = 1
        values[j, i] = 1
    return CoordinationMatrix(roster=people, week_id=week_id, values=values)


def write_edge_list(net: CommunicationNetwork, path) -> None:
    """One tab-separated pair per line, lexicographic order."""
    lines = [f"{a}\t{b}" for a, b in sorted(net.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
