"""Undirected triad census over communication networks.

Every 3-node subset of an undirected graph has 0, 1, 2, or 3 edges; the
census counts each class over all C(n, 3) triples and is the plain tuple
``(c0, c1, c2, c3)``. ``census_closed_form`` derives the counts from the
edge count, wedge count and triangle count (Moody 1998; Batagelj & Mrvar
2001) and is what the pipeline uses: it keeps each member's neighbours as an
int bitmask, so an edge's triangles are one AND and one popcount, and its
cost grows with the edges, not with the C(n, 3) triples. ``triad_census``
enumerates every triple directly and is the reference the tests check the
closed form against. Both give the same integers. The relative census
divides each count by C(n, 3); Python's int division is correctly rounded,
so each frequency is the float nearest the exact ratio.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from .network import CommunicationNetwork

__all__ = [
    "Census",
    "RelativeCensus",
    "triad_census",
    "census_closed_form",
    "relative_census",
    "mean_weekly_relative_census",
]

# Triples with 0, 1, 2 and 3 edges.
Census = tuple[int, int, int, int]
# Each count's share of the triples, in [0, 1]; the shares sum to 1.
RelativeCensus = tuple[float, float, float, float]


def _require_triads(net: CommunicationNetwork) -> None:
    if net.n < 3:
        raise ValueError(f"triad census undefined for {net.n} nodes (need >= 3)")


def triad_census(net: CommunicationNetwork) -> Census:
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
    return counts[0], counts[1], counts[2], counts[3]


def census_closed_form(net: CommunicationNetwork) -> Census:
    """Census from edge, wedge, and triangle counts; the pipeline's census.

    c3 = triangles; c2 = wedges - 3*triangles;
    c1 = m*(n-2) - 2*c2 - 3*c3; c0 = C(n, 3) - c1 - c2 - c3.
    The counts equal ``triad_census``, the enumeration reference.
    """
    _require_triads(net)
    n = net.n
    m = len(net.edges)
    # Each member's neighbours as a bitmask over roster positions: a wedge
    # count is a popcount, and an edge's triangles are its ends' common bits.
    index = {v: i for i, v in enumerate(net.roster)}
    adjacency = [0] * n
    ends = []
    for a, b in net.edges:
        i, j = index[a], index[b]
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
        ends.append((i, j))
    wedges = sum(math.comb(mask.bit_count(), 2) for mask in adjacency)
    # Each triangle is counted once per edge, so three times in total.
    triangle_incidences = sum((adjacency[i] & adjacency[j]).bit_count() for i, j in ends)
    triangles = triangle_incidences // 3
    c3 = triangles
    c2 = wedges - 3 * triangles
    c1 = m * (n - 2) - 2 * c2 - 3 * c3
    c0 = math.comb(n, 3) - c1 - c2 - c3
    return c0, c1, c2, c3


def relative_census(census: Census) -> RelativeCensus:
    """Each count divided by the triple total, correctly rounded."""
    total = sum(census)
    if total <= 0:
        raise ValueError("relative census undefined for an empty census")
    return tuple(c / total for c in census)  # type: ignore[return-value]


def mean_weekly_relative_census(weekly: Sequence[RelativeCensus]) -> RelativeCensus:
    """Component-wise arithmetic mean of weekly relative censuses."""
    if not weekly:
        raise ValueError("mean relative census of an empty week list")
    k = len(weekly)
    return tuple(math.fsum(w[i] for w in weekly) / k for i in range(4))  # type: ignore[return-value]
