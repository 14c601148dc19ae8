"""Communication events and per-window team networks.

A directed communication event is recorded when one person replies inside a
thread started by another. Networks discard direction and edge weight: an
undirected edge is present iff at least one event connects the pair inside
the window. Events are grouped into per-week edge sets once
(``weekly_edges``); a week's or a sprint's network is the union of its weeks'
edge sets (``window_network``). The weekly network serves both the triad
census and STC's actual coordination. Every roster member is a node whether
or not they communicated, so triads over silent members are measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Mapping

from .errors import ValidationError
from .ingestion import Diagnostics, MessageLog, Roster, SprintCalendar

__all__ = [
    "CommEvent",
    "CommunicationNetwork",
    "derive_comm_events",
    "weekly_edges",
    "window_network",
    "write_edge_list",
]

Edge = tuple[str, str]  # a pair sorted lexicographically
WeeklyEdges = Mapping[int, frozenset[Edge]]  # week id -> that week's edges


@dataclass(frozen=True)
class CommEvent:
    """Reply author -> thread-root author, pinned to a calendar week."""

    sender: str
    recipient: str
    timestamp: datetime
    week_id: int


def _edge(a: str, b: str) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CommunicationNetwork:
    roster: tuple[str, ...]
    edges: frozenset[Edge]

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
    members = roster.members
    assign_week = cal.assign_week
    events: list[CommEvent] = []
    missing_root = self_reply = non_roster = out_of_calendar = 0
    for m in log.messages:
        if m.thread_root is None:
            continue
        root_author = author_of.get(m.thread_root)
        if root_author is None:
            missing_root += 1
            continue
        author = m.author
        if root_author == author:
            self_reply += 1
            continue
        if author not in members or root_author not in members:
            non_roster += 1
            continue
        week = assign_week(m.timestamp)
        if week is None:
            out_of_calendar += 1
            continue
        events.append(CommEvent(author, root_author, m.timestamp, week))
    for key, n in (
        ("events_dropped_missing_root", missing_root),
        ("events_skipped_self_reply", self_reply),
        ("events_dropped_non_roster", non_roster),
        ("events_dropped_out_of_calendar", out_of_calendar),
    ):
        if n:
            diag.bump(key, n)
    return events


def weekly_edges(events: Iterable[CommEvent]) -> dict[int, frozenset[Edge]]:
    """Each week's undirected edge set, from one pass over the events."""
    by_week: dict[int, set[Edge]] = {}
    for e in events:
        by_week.setdefault(e.week_id, set()).add(_edge(e.sender, e.recipient))
    return {week: frozenset(edges) for week, edges in by_week.items()}


def window_network(
    weekly: WeeklyEdges, roster: Roster, week_ids: Iterable[int]
) -> CommunicationNetwork:
    """Presence/absence network of a window of weeks over the full roster."""
    edges = frozenset().union(*(weekly.get(w, ()) for w in week_ids))
    return CommunicationNetwork(roster=tuple(sorted(roster.members)), edges=edges)


def write_edge_list(net: CommunicationNetwork, path) -> None:
    """One tab-separated pair per line, lexicographic order."""
    lines = [f"{a}\t{b}" for a, b in sorted(net.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
