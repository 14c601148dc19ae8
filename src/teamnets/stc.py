"""Socio-technical congruence: weekly coordination requirements as pair sets.

A team's merge requests come grouped by the week they were created in, each
as the set of people who authored its kept commits and the set of files it
changed (``ingestion.parse_repo_weeks``). Per week, the coordination
requirements are a set of person pairs (Cataldo et al. 2006): p and q,
p != q, must coordinate when p authored a commit in merge request i, q
authored one in merge request j, and i and j share a changed file or are the
same merge request. Each pair is an ``Edge``, the form of the week's
communication network, the same network the weekly triad census counts; a
required pair is fulfilled when it is an edge there. A person's score is
fulfilled / required over the pairs that name them. A person with no
requirements has an undefined score; the team week score averages the
defined member scores and is undefined when all are.

Self-dependency makes co-authors of one merge request need to coordinate
(same MR implies same files); off is the strict other-MRs-only reading. The
default, on, belongs to ``coordination_requirements`` and the config.
Merge requests with no changed files are excluded from the week's universe,
with a diagnostic. The pair set is the nonzero off-diagonal part of the
binarized matrix product T_A . T_D . T_A^T (assignment, dependency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .ingestion import Diagnostics, MrSets, Roster
from .network import CommunicationNetwork, Edge, WeeklyEdges, _edge, window_network
from .stats import TrendLine, ols

__all__ = [
    "StcScore",
    "YearSummary",
    "coordination_requirements",
    "stc_scores",
    "weekly_team_scores",
    "year_summary",
]


@dataclass(frozen=True)
class StcScore:
    person_id: str
    value: float | None  # fulfilled / required, None when nothing was required
    n_required: int
    n_fulfilled: int


@dataclass(frozen=True)
class YearSummary:
    mean_stc: float | None
    trend: TrendLine | None


def coordination_requirements(
    mrs: Sequence[MrSets], include_self_dependency: bool = True
) -> frozenset[Edge]:
    """The pairs of people who must coordinate over ``mrs``, the
    (authors, files) pairs of a week's merge requests."""
    by_file: dict[str, list[int]] = {}
    for i, (_, files) in enumerate(mrs):
        for path in files:
            by_file.setdefault(path, []).append(i)
    required: set[Edge] = set()
    for i, (mine, files) in enumerate(mrs):
        if not mine:
            continue
        partners = set(mine) if include_self_dependency else set()
        # Sharing a file is symmetric, so each pair of MRs is visited once.
        for path in files:
            for j in by_file[path]:
                if j > i:
                    partners |= mrs[j][0]
        for p in mine:
            for q in partners:
                if p != q:
                    required.add(_edge(p, q))
    return frozenset(required)


def stc_scores(
    required: frozenset[Edge], net: CommunicationNetwork
) -> tuple[list[StcScore], float | None]:
    """Per-person fulfilled/required ratios plus the team week score.

    ``required`` holds sorted pairs, as ``coordination_requirements`` returns
    them. A required pair is fulfilled when it is an edge of ``net``, the
    week's communication network. The team score is the mean of the defined member
    scores, or None when no member had a requirement that week.
    """
    people = net.roster
    n_required = dict.fromkeys(people, 0)
    n_fulfilled = dict.fromkeys(people, 0)
    for pair in required:
        a, b = pair
        if a not in n_required or b not in n_required:
            raise ValidationError("requirement matrix and network are not roster-aligned")
        n_required[a] += 1
        n_required[b] += 1
        if pair in net.edges:
            n_fulfilled[a] += 1
            n_fulfilled[b] += 1
    scores = [
        StcScore(
            person_id=p,
            value=n_fulfilled[p] / n_required[p] if n_required[p] else None,
            n_required=n_required[p],
            n_fulfilled=n_fulfilled[p],
        )
        for p in people
    ]
    defined = [s.value for s in scores if s.value is not None]
    team = math.fsum(defined) / len(defined) if defined else None
    return scores, team


def weekly_team_scores(
    mrs_by_week: Mapping[int, Sequence[MrSets]],
    weekly: WeeklyEdges,
    roster: Roster,
    week_ids: Iterable[int],
    include_self_dependency: bool,
    diag: Diagnostics,
) -> dict[int, float | None]:
    """Score each week's required pairs against its network; return team week scores.

    ``mrs_by_week`` holds each week's merge requests (``parse_repo_weeks``)
    and ``weekly`` its communication edges (``parse_chat_edges``). Merge
    requests without changed files are left out and counted, in the given
    weeks only, in ``diag``.
    """
    out: dict[int, float | None] = {}
    empty = 0
    for week_id in week_ids:
        mrs = mrs_by_week.get(week_id, ())
        with_files = [mr for mr in mrs if mr[1]]
        empty += len(mrs) - len(with_files)
        required = coordination_requirements(with_files, include_self_dependency)
        _, out[week_id] = stc_scores(required, window_network(weekly, roster, (week_id,)))
    if empty:
        diag.bump("mrs_excluded_empty_files", empty)
    return out


def year_summary(weekly: Mapping[int, float | None]) -> YearSummary:
    """Mean of defined weekly team scores and the least-squares trend.

    The trend needs at least two defined weeks; the mean needs one. Weeks
    with undefined scores are skipped, mirroring gaps in the season.
    """
    points = sorted((w, v) for w, v in weekly.items() if v is not None)
    if not points:
        return YearSummary(mean_stc=None, trend=None)
    mean = math.fsum(v for _, v in points) / len(points)
    if len(points) < 2:
        return YearSummary(mean_stc=mean, trend=None)
    xs = [float(w) for w, _ in points]
    ys = [v for _, v in points]
    try:
        trend = ols(xs, ys)
    except ValueError:
        trend = None
    return YearSummary(mean_stc=mean, trend=trend)
