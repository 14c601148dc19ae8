"""Per-week communication edges and per-window team networks.

Two people communicate when one replies inside a thread started by the
other. Networks discard direction, timing and count: an undirected edge is
present iff at least one reply connects the pair inside the window. The
replies go straight into per-week edge sets in one pass over the message log
(``weekly_edges``); a week's or a sprint's network is the union of its
weeks' edge sets (``window_network``). The weekly network serves both the
triad census and STC's actual coordination. Every roster member is a node
whether or not they communicated, so triads over silent members are
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ValidationError
from .ingestion import Diagnostics, MessageLog, Roster, SprintCalendar

__all__ = [
    "CommunicationNetwork",
    "weekly_edges",
    "window_network",
    "write_edge_list",
]

Edge = tuple[str, str]  # a pair sorted lexicographically
WeeklyEdges = Mapping[int, frozenset[Edge]]  # week id -> that week's edges


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


def weekly_edges(
    log: MessageLog,
    roster: Roster,
    cal: SprintCalendar,
    diagnostics: Diagnostics | None = None,
) -> tuple[dict[int, frozenset[Edge]], int]:
    """Each week's undirected edge set, from one pass over the threaded replies.

    A reply joins its author and the thread root's author in the week it was
    sent. Self-replies are skipped; replies to a missing root, with an author
    off the roster, or outside every calendar week are dropped. Each rule is
    counted. Also returns the number of replies that made an edge.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    author_of = {m.message_id: m.author for m in log.messages}
    members = roster.members
    assign_week = cal.assign_week
    by_week: dict[int, set[Edge]] = {}
    replies = missing_root = self_reply = non_roster = out_of_calendar = 0
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
        replies += 1
        edges = by_week.get(week)
        if edges is None:
            edges = by_week[week] = set()
        edges.add(_edge(author, root_author))
    for key, n in (
        ("events_dropped_missing_root", missing_root),
        ("events_skipped_self_reply", self_reply),
        ("events_dropped_non_roster", non_roster),
        ("events_dropped_out_of_calendar", out_of_calendar),
    ):
        if n:
            diag.bump(key, n)
    return {week: frozenset(edges) for week, edges in by_week.items()}, replies


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
