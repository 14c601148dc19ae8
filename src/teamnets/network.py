"""Per-window team networks over a team's weekly communication edges.

Two people communicate when one replies inside a thread started by the
other. Networks discard direction, timing and count: an undirected edge is
present iff at least one reply connects the pair inside the window. The chat
parser (``ingestion.parse_chat_edges``) puts the replies straight into
per-week edge sets; a week's or a sprint's network is the union of its
weeks' edge sets (``window_network``). The weekly network serves both the
triad census and STC's actual coordination. Every roster member is a node
whether or not they communicated, so triads over silent members are
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ValidationError
from .ingestion import Roster

__all__ = [
    "CommunicationNetwork",
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
