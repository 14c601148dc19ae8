"""Socio-technical congruence: the five-step weekly matrix pipeline.

Merge requests are grouped by the week they were created in, once per team
(``merge_requests_by_week``). Per week: a people-by-MR assignment matrix over
that week's merge requests, an MR-by-MR file-overlap dependency matrix, a
binarized coordination requirements matrix T_A . T_D . T_A^T with zeroed
diagonal, and per-person scores of how many required pairs were fulfilled by
actual communication: a required pair is fulfilled when it is an edge of the
week's communication network, the same network the weekly triad census
counts. A person with no requirements has an undefined score; the team week
score averages the defined member scores and is undefined when all are.

The dependency diagonal is 1 by default so that co-authors of one merge
request count as needing to coordinate (same MR implies same files); pass
``include_self_dependency=False`` for the strict other-MRs-only reading.
Merge requests with no changed files are excluded from the week's matrix
universe, with a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .ingestion import Diagnostics, MergeRequest, RepoActivity, Roster, SprintCalendar
from .network import CommunicationNetwork, WeeklyEdges, window_network
from .stats import TrendLine, ols

__all__ = [
    "AssignmentMatrix",
    "DependencyMatrix",
    "RequirementMatrix",
    "StcScore",
    "YearSummary",
    "merge_requests_by_week",
    "assignment_matrix",
    "dependency_matrix",
    "coordination_requirements",
    "stc_scores",
    "weekly_team_scores",
    "write_weekly_scores",
    "year_summary",
]


@dataclass
class AssignmentMatrix:
    """Binary people x MR matrix: 1 iff the person authored a commit in the MR."""

    people: tuple[str, ...]
    mr_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)


@dataclass
class DependencyMatrix:
    """Symmetric binary MR x MR matrix: 1 iff the MRs share a changed file."""

    mr_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)


@dataclass
class RequirementMatrix:
    """Symmetric binary people x people matrix with zero diagonal."""

    people: tuple[str, ...]
    values: np.ndarray = field(repr=False)


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


def merge_requests_by_week(
    repo: RepoActivity,
    cal: SprintCalendar,
    week_ids: Iterable[int],
    diagnostics: Diagnostics | None = None,
) -> dict[int, list[MergeRequest]]:
    """Each week's matrix universe: MRs created that week with changed files, by id.

    MRs without changed files are left out and counted, in the given weeks only.
    """
    by_week: dict[int, list[MergeRequest]] = {w: [] for w in week_ids}
    empty = 0
    for mr in repo.merge_requests:
        week = cal.assign_week(mr.created_at)
        if week not in by_week:
            continue
        if not mr.changed_files:
            empty += 1
            continue
        by_week[week].append(mr)
    if empty and diagnostics is not None:
        diagnostics.bump("mrs_excluded_empty_files", empty)
    for mrs in by_week.values():
        mrs.sort(key=lambda m: m.mr_id)
    return by_week


def assignment_matrix(
    mrs: Sequence[MergeRequest], commit_author: Mapping[str, str], roster: Roster
) -> AssignmentMatrix:
    """People x the week's MRs; commits from any date assign a person.

    ``commit_author`` maps each commit sha to its author.
    """
    people = tuple(sorted(roster.members))
    values = np.zeros((len(people), len(mrs)), dtype=np.int8)
    index = {p: i for i, p in enumerate(people)}
    for j, mr in enumerate(mrs):
        for sha in mr.commit_shas:
            author = commit_author.get(sha)
            if author in index:
                values[index[author], j] = 1
    return AssignmentMatrix(people=people, mr_ids=tuple(m.mr_id for m in mrs), values=values)


def dependency_matrix(
    mrs: Sequence[MergeRequest], include_self_dependency: bool = True
) -> DependencyMatrix:
    """Symmetric file-overlap matrix over the week's merge requests."""
    k = len(mrs)
    values = np.zeros((k, k), dtype=np.int8)
    for i in range(k):
        for j in range(i + 1, k):
            if mrs[i].changed_files & mrs[j].changed_files:
                values[i, j] = 1
                values[j, i] = 1
    if include_self_dependency:
        np.fill_diagonal(values, 1)
    return DependencyMatrix(mr_ids=tuple(m.mr_id for m in mrs), values=values)


def coordination_requirements(
    ta: AssignmentMatrix, td: DependencyMatrix
) -> RequirementMatrix:
    """Binarized T_A . T_D . T_A^T with the diagonal zeroed."""
    if ta.mr_ids != td.mr_ids:
        raise ValidationError(
            "assignment and dependency matrices cover different merge requests"
        )
    product = ta.values.astype(np.int64) @ td.values.astype(np.int64) @ ta.values.T.astype(np.int64)
    values = (product > 0).astype(np.int8)
    np.fill_diagonal(values, 0)
    return RequirementMatrix(people=ta.people, values=values)


def stc_scores(
    cr: RequirementMatrix, net: CommunicationNetwork
) -> tuple[list[StcScore], float | None]:
    """Per-person fulfilled/required ratios plus the team week score.

    A required pair is fulfilled when it is an edge of ``net``, the week's
    communication network. The team score is the mean of the defined member
    scores, or None when no member had a requirement that week.
    """
    people = net.roster
    if cr.people != people:
        raise ValidationError("requirement matrix and network are not roster-aligned")
    index = {p: i for i, p in enumerate(people)}
    talked = np.zeros((len(people), len(people)), dtype=bool)
    for a, b in net.edges:
        talked[index[a], index[b]] = talked[index[b], index[a]] = True
    scores: list[StcScore] = []
    defined: list[float] = []
    for i, person in enumerate(people):
        required = cr.values[i]
        n_required = int(required.sum())
        if n_required == 0:
            scores.append(StcScore(person_id=person, value=None, n_required=0, n_fulfilled=0))
            continue
        n_fulfilled = int((required & talked[i]).sum())
        value = n_fulfilled / n_required
        defined.append(value)
        scores.append(
            StcScore(
                person_id=person, value=value, n_required=n_required, n_fulfilled=n_fulfilled
            )
        )
    team = math.fsum(defined) / len(defined) if defined else None
    return scores, team


def weekly_team_scores(
    repo: RepoActivity,
    weekly: WeeklyEdges,
    roster: Roster,
    cal: SprintCalendar,
    week_ids: Iterable[int] | None = None,
    include_self_dependency: bool = True,
    diagnostics: Diagnostics | None = None,
) -> dict[int, float | None]:
    """Run the five-step pipeline per week and return team week scores.

    ``weekly`` holds each week's communication edges (``weekly_edges``).
    """
    weeks = tuple(week_ids) if week_ids is not None else cal.week_ids()
    mrs_by_week = merge_requests_by_week(repo, cal, weeks, diagnostics)
    commit_author = {c.sha: c.author for c in repo.commits}
    out: dict[int, float | None] = {}
    for week_id in weeks:
        mrs = mrs_by_week[week_id]
        cr = coordination_requirements(
            assignment_matrix(mrs, commit_author, roster),
            dependency_matrix(mrs, include_self_dependency),
        )
        _, out[week_id] = stc_scores(cr, window_network(weekly, roster, (week_id,)))
    return out


def write_weekly_scores(
    scores_by_team: Mapping[str, Mapping[int, float | None]], path
) -> None:
    """Export weekly team scores as a delimited table: team, week, score-or-blank."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("team,week,stc_score\n")
        for team in sorted(scores_by_team):
            for week in sorted(scores_by_team[team]):
                value = scores_by_team[team][week]
                cell = f"{value:.6f}" if value is not None else ""
                fh.write(f"{team},{week},{cell}\n")


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
