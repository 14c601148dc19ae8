"""Undirected triad census over communication networks.

Every 3-node subset of an undirected graph has 0, 1, 2, or 3 edges; the
census counts each class over all C(n, 3) triples. ``census_closed_form``
derives the counts from the edge count, wedge count and triangle count
(Moody 1998; Batagelj & Mrvar 2001) and is what the pipeline uses: its cost
grows with the edges and degrees, not with the C(n, 3) triples.
``triad_census`` enumerates every triple directly and is the reference the
tests check the closed form against. Both give the same integers. The
relative census divides by C(n, 3) using exact rational arithmetic before
rounding to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .network import CommunicationNetwork

__all__ = [
    "TriadCensus",
    "RelativeTriadCensus",
    "triad_census",
    "census_closed_form",
    "relative_census",
    "mean_weekly_relative_census",
]


@dataclass(frozen=True)
class TriadCensus:
    """Counts (c0, c1, c2, c3) indexed by edges in the triad."""

    counts: tuple[int, int, int, int]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class RelativeTriadCensus:
    """Frequencies in [0, 1]; entries sum to 1."""

    freqs: tuple[float, float, float, float]


def _require_triads(net: CommunicationNetwork) -> None:
    if net.n < 3:
        raise ValueError(f"triad census undefined for {net.n} nodes (need >= 3)")


def triad_census(net: CommunicationNetwork) -> TriadCensus:
    """Census by direct enumeration of all C(n, 3) node triples.

    The reference that ``census_closed_form`` is tested against; the
    pipeline does not call it.
    """
    _require_triads(net)
    edges = net.edges
    counts = [0, 0, 0, 0]
    for trio in combinations(net.roster, 3):
        k = 0
        for a, b in combinations(trio, 2):
            if ((a, b) if a < b else (b, a)) in edges:
                k += 1
        counts[k] += 1
    return TriadCensus(counts=(counts[0], counts[1], counts[2], counts[3]))


def census_closed_form(net: CommunicationNetwork) -> TriadCensus:
    """Census from edge, wedge, and triangle counts; the pipeline's census.

    c3 = triangles; c2 = wedges - 3*triangles;
    c1 = m*(n-2) - 2*c2 - 3*c3; c0 = C(n, 3) - c1 - c2 - c3.
    The counts equal ``triad_census``, the enumeration reference.
    """
    _require_triads(net)
    n = net.n
    m = len(net.edges)
    adjacency: dict[str, set[str]] = {v: set() for v in net.roster}
    for a, b in net.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    wedges = sum(math.comb(len(nbrs), 2) for nbrs in adjacency.values())
    # Each triangle is counted once per edge, so three times in total.
    triangle_incidences = sum(
        len(adjacency[a] & adjacency[b]) for a, b in net.edges
    )
    triangles = triangle_incidences // 3
    c3 = triangles
    c2 = wedges - 3 * triangles
    c1 = m * (n - 2) - 2 * c2 - 3 * c3
    c0 = math.comb(n, 3) - c1 - c2 - c3
    return TriadCensus(counts=(c0, c1, c2, c3))


def relative_census(census: TriadCensus) -> RelativeTriadCensus:
    """Each count divided by the triple total, exactly then rounded."""
    total = census.total
    if total <= 0:
        raise ValueError("relative census undefined for an empty census")
    return RelativeTriadCensus(
        freqs=tuple(float(Fraction(c, total)) for c in census.counts)  # type: ignore[arg-type]
    )


def mean_weekly_relative_census(
    weekly: Sequence[RelativeTriadCensus],
) -> RelativeTriadCensus:
    """Component-wise arithmetic mean of weekly relative censuses."""
    if not weekly:
        raise ValueError("mean relative census of an empty week list")
    k = len(weekly)
    return RelativeTriadCensus(
        freqs=tuple(math.fsum(w.freqs[i] for w in weekly) / k for i in range(4))  # type: ignore[arg-type]
    )
