"""Independent oracles used by the tests.

Each oracle deliberately takes a different computational route from the
package code it checks: quadrature instead of the incomplete beta function,
direct pair counting instead of rank sums, chain enumeration and the matrix
product instead of pair sets, numpy instead of the hand-rolled moment
formulas, a message log sorted by key and then a tuple per reply grouped
afterwards instead of one walk from day files into weekly edge sets, and
commit and merge-request records sorted and then grouped by a calendar scan
instead of one walk from the repo file into weekly (authors, files) pairs,
and a record per table row regrouped afterwards instead of one walk from the
outcomes and feedback tables into per-team series.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

import numpy as np

from teamnets.errors import InputError, ValidationError
from teamnets.ingestion import EXCLUDED_SUBTYPES, Diagnostics, _read_rows, parse_utc

_LEGENDRE_NODES = 200


def t_sf_quadrature(t: float, df: int) -> float:
    """Student t survival function by Gauss-Legendre integration of the pdf."""
    if t == 0.0:
        return 0.5
    norm = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(
        df * math.pi
    )

    def pdf(u):
        return norm * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    nodes, weights = np.polynomial.legendre.leggauss(_LEGENDRE_NODES)
    # map [-1, 1] onto [0, t]
    half = t / 2.0
    integral = float(np.sum(weights * pdf(half * nodes + half)) * half)
    return 0.5 - integral


def mw_exact_oracle(a, b) -> tuple[float, float]:
    """Mann-Whitney U and exact two-tailed p by direct pair counting.

    U is computed by counting cross pairs (x > y counts 1, x == y counts
    0.5); the p-value enumerates every group labeling and counts those at
    least as far from n_a*n_b/2 as the observed U.
    """
    pooled = list(a) + list(b)
    n, n_a = len(pooled), len(a)

    def u_of(indices_a) -> float:
        in_a = set(indices_a)
        sample_a = [pooled[i] for i in indices_a]
        sample_b = [pooled[i] for i in range(n) if i not in in_a]
        u = 0.0
        for x in sample_a:
            for y in sample_b:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    u_obs = u_of(tuple(range(n_a)))
    mu = n_a * (n - n_a) / 2.0
    dev = abs(u_obs - mu)
    extreme = total = 0
    for idx in combinations(range(n), n_a):
        if abs(u_of(idx) - mu) >= dev:
            extreme += 1
        total += 1
    return u_obs, extreme / total


def pearson_r_oracle(x, y) -> float:
    return float(np.corrcoef(np.asarray(x, dtype=float), np.asarray(y, dtype=float))[0, 1])


def ols_oracle(x, y) -> tuple[float, float]:
    design = np.column_stack([np.asarray(x, dtype=float), np.ones(len(x))])
    coef, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
    return float(coef[0]), float(coef[1])


def stc_brute_force(
    people,
    mr_people: dict[str, set[str]],
    mr_files: dict[str, set[str]],
    comm_pairs: set[frozenset[str]],
    include_self_dependency: bool = True,
):
    """STC via direct (person, MR, MR, person) chain enumeration.

    Only merge requests with non-empty file sets participate, matching the
    pipeline's universe. Returns ({person: score-or-None}, team_score).
    """
    mrs = [m for m in mr_people if mr_files.get(m)]
    required: dict[str, set[str]] = {p: set() for p in people}
    for m in mrs:
        for m2 in mrs:
            if m == m2:
                dependent = include_self_dependency
            else:
                dependent = bool(mr_files[m] & mr_files[m2])
            if not dependent:
                continue
            for p in mr_people[m]:
                for q in mr_people[m2]:
                    if p != q:
                        required[p].add(q)
    scores: dict[str, float | None] = {}
    defined = []
    for p in people:
        req = required[p]
        if not req:
            scores[p] = None
            continue
        fulfilled = sum(1 for q in req if frozenset((p, q)) in comm_pairs)
        scores[p] = fulfilled / len(req)
        defined.append(scores[p])
    team = sum(defined) / len(defined) if defined else None
    return scores, team


def coordination_requirements_oracle(
    mrs, include_self_dependency: bool = True
) -> frozenset[tuple[str, str]]:
    """coordination_requirements by the matrix route: the binarized product
    T_A . T_D . T_A^T with its diagonal zeroed, where T_A is the people x MR
    assignment matrix and T_D the MR x MR file-overlap matrix (unit diagonal
    with self-dependency on), read back as sorted pairs. ``mrs`` holds
    (authors, files) pairs."""
    people = sorted(set().union(*(authors for authors, _ in mrs)))
    index = {p: i for i, p in enumerate(people)}
    ta = np.zeros((len(people), len(mrs)), dtype=np.int64)
    for j, (authors, _) in enumerate(mrs):
        for author in authors:
            ta[index[author], j] = 1
    td = np.zeros((len(mrs), len(mrs)), dtype=np.int64)
    for i, (_, a) in enumerate(mrs):
        for j, (_, b) in enumerate(mrs):
            if i != j and a & b:
                td[i, j] = 1
    if include_self_dependency:
        np.fill_diagonal(td, 1)
    product = ta @ td @ ta.T
    np.fill_diagonal(product, 0)
    return frozenset(
        (people[i], people[j]) for i, j in zip(*np.nonzero(product)) if i < j
    )


@dataclass(frozen=True)
class Commit:
    sha: str
    author: str  # person_id
    authored_at: datetime


@dataclass(frozen=True)
class MergeRequest:
    mr_id: str
    created_at: datetime
    commit_shas: frozenset[str]
    changed_files: frozenset[str]


def repo_weeks_oracle(path, roster, cal, diagnostics=None):
    """parse_repo_weeks by the record route it replaced: a Commit and a
    MergeRequest record per entry, both lists sorted by time, then each
    merge request's week found by a scan of the calendar and its authors
    read through a sha -> author map. Returns the (authors, files) pairs by
    week, sorted by (created_at, mr_id) within a week, the kept-commit count
    and the merge-request count; the error types and texts and the
    diagnostics counters are the same."""
    diag = diagnostics if diagnostics is not None else Diagnostics()
    p = Path(path)
    if not p.is_file():
        raise InputError(f"repo activity file not found: {p}")
    payload = _load_json_oracle(p)
    if not isinstance(payload, dict):
        raise InputError(f"{p}: expected a JSON object")
    for key in ("commits", "merge_requests"):
        if not isinstance(payload.get(key), list):
            raise InputError(f"{p}: missing or invalid top-level array {key!r}")

    raw_shas: set[str] = set()
    commits: list[Commit] = []
    for i, obj in enumerate(payload["commits"]):
        try:
            sha = obj["sha"]
            author = obj["author"]
            authored_at = parse_utc(obj["authored_at"])
        except (TypeError, KeyError) as exc:
            raise InputError(f"{p}: commit entry {i} missing field {exc}") from None
        except InputError as exc:
            raise InputError(f"{p}: commit entry {i}: {exc}") from None
        for key, value in (("sha", sha), ("author", author)):
            if not isinstance(value, str):
                raise InputError(f"{p}: commit entry {i} has invalid {key} {value!r}")
        if sha in raw_shas:
            raise ValidationError(f"{p}: duplicate commit sha {sha}")
        raw_shas.add(sha)
        person = roster.resolve(author) or (author if author in roster.members else None)
        if person is None:
            diag.bump("commits_dropped_unknown_author")
            continue
        commits.append(Commit(sha=sha, author=person, authored_at=authored_at))
    kept_shas = {c.sha for c in commits}

    merge_requests: list[MergeRequest] = []
    seen_mrs: set[str] = set()
    for i, obj in enumerate(payload["merge_requests"]):
        try:
            mr_id = obj["id"]
            created_at = parse_utc(obj["created_at"])
            shas = obj["commits"]
            files = obj["files"]
        except (TypeError, KeyError) as exc:
            raise InputError(f"{p}: merge request entry {i} missing field {exc}") from None
        except InputError as exc:
            raise InputError(f"{p}: merge request entry {i}: {exc}") from None
        if isinstance(mr_id, bool) or not isinstance(mr_id, (str, int)):
            raise InputError(f"{p}: merge request entry {i} has invalid id {mr_id!r}")
        mr_id = str(mr_id)
        for key, values in (("commits", shas), ("files", files)):
            if not isinstance(values, list):
                raise InputError(f"{p}: merge request entry {i} has invalid {key} {values!r}")
            for value in values:
                if not isinstance(value, str):
                    raise InputError(
                        f"{p}: merge request entry {i} has invalid {key} entry {value!r}"
                    )
        if mr_id in seen_mrs:
            raise ValidationError(f"{p}: duplicate merge request id {mr_id}")
        seen_mrs.add(mr_id)
        dangling = [s for s in shas if s not in raw_shas]
        if dangling:
            raise ValidationError(
                f"{p}: merge request {mr_id} references unknown commit sha(s): "
                f"{', '.join(sorted(dangling))}"
            )
        linked = frozenset(s for s in shas if s in kept_shas)
        dropped = len(set(shas)) - len(linked)
        if dropped:
            diag.bump("mr_commit_links_dropped", dropped)
        if not files:
            diag.bump("mrs_with_empty_files")
        merge_requests.append(
            MergeRequest(
                mr_id=mr_id,
                created_at=created_at,
                commit_shas=linked,
                changed_files=frozenset(files),
            )
        )
    commits.sort(key=lambda c: (c.authored_at, c.sha))
    merge_requests.sort(key=lambda m: (m.created_at, m.mr_id))
    diag.bump("commits_kept", len(commits))
    diag.bump("mrs_kept", len(merge_requests))

    commit_author = {c.sha: c.author for c in commits}
    by_week: dict[int, list] = {}
    for mr in merge_requests:
        week = assign_week_oracle(cal, mr.created_at)
        if week is not None:
            authors = frozenset(commit_author[s] for s in mr.commit_shas)
            by_week.setdefault(week, []).append((authors, mr.changed_files))
    return by_week, len(commits), len(merge_requests)


@dataclass(frozen=True)
class Message:
    message_id: str
    channel_id: str
    author: str  # person_id
    timestamp: datetime
    thread_root: str | None = None


@dataclass(frozen=True)
class MessageLog:
    messages: tuple[Message, ...]


def chat_edges_oracle(export_root, roster, cal, excluded_handles=(), diagnostics=None):
    """parse_chat_edges by the two-step route it replaced: the message log of
    parse_chat_export_oracle, then the reply tuples of comm_events_oracle.
    Returns the weekly edge sets, the kept-message count and the reply count;
    the error types and texts and the diagnostics counters are the same."""
    diag = diagnostics if diagnostics is not None else Diagnostics()
    log = parse_chat_export_oracle(export_root, roster, excluded_handles, diag)
    weekly, events = comm_events_oracle(log, cal, diag)
    return weekly, len(log.messages), len(events)


def comm_events_oracle(log, cal, diagnostics=None):
    """The replies of a parsed message log by a two-step route: a (sender,
    recipient, week) tuple per counted reply, its week found by a scan of the
    calendar, then the tuples grouped into each week's sorted pairs. Returns
    the weekly edge sets and the tuples."""
    diag = diagnostics if diagnostics is not None else Diagnostics()
    author_of = {m.message_id: m.author for m in log.messages}
    events = []
    for m in log.messages:
        if m.thread_root is None:
            continue
        if author_of[m.thread_root] == m.author:
            diag.bump("events_skipped_self_reply")
        elif (week := assign_week_oracle(cal, m.timestamp)) is None:
            diag.bump("events_dropped_out_of_calendar")
        else:
            events.append((m.author, author_of[m.thread_root], week))
    weekly = {
        week: window_edges_oracle(events, (week,)) for week in {w for _, _, w in events}
    }
    return weekly, events


def window_edges_oracle(events, week_ids) -> frozenset[tuple[str, str]]:
    """A window's edges by a scan of every (sender, recipient, week) reply
    tuple instead of per-week groups: the sorted pairs of the replies whose
    week lies in the window."""
    weeks = set(week_ids)
    return frozenset(tuple(sorted((a, b))) for a, b, week in events if week in weeks)


def assign_week_oracle(cal, ts) -> int | None:
    """The week containing ts by a scan of every week under [start, end),
    instead of a bisect over the week starts; None when no week holds it."""
    for week in cal.weeks:
        if week.start <= ts < week.end:
            return week.week_id
    return None


def _load_json_oracle(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno} (char {exc.pos})"
        ) from None


def parse_chat_export_oracle(export_root, roster, excluded_handles=(), diagnostics=None):
    """A chat export tree as a MessageLog, by a slower route than
    parse_chat_edges: pathlib listing and text-mode reads, a counter bump per
    message, a Message per kept message before a key sort, and a separate
    thread-order check over a second index. Replies to a dropped root are
    kept as plain messages. The input checks, error texts and diagnostics
    counters are those of parse_chat_edges."""
    diag = diagnostics if diagnostics is not None else Diagnostics()
    root = Path(export_root)
    if not root.is_dir():
        raise InputError(f"chat export directory not found: {root}")
    excluded = frozenset(excluded_handles)
    kept = []
    kept_ids = set()
    for channel_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        channel = channel_dir.name
        for day_file in sorted(channel_dir.glob("*.json")):
            payload = _load_json_oracle(day_file)
            if not isinstance(payload, list):
                raise InputError(f"{day_file}: expected a JSON array of messages")
            for i, obj in enumerate(payload):
                if not isinstance(obj, dict) or "ts" not in obj:
                    raise InputError(f"{day_file}: entry {i} is not a message object")
                diag.bump("messages_seen")
                subtype = obj.get("subtype")
                if subtype is not None and not isinstance(subtype, str):
                    raise InputError(f"{day_file}: entry {i} has invalid subtype {subtype!r}")
                if subtype in EXCLUDED_SUBTYPES:
                    diag.bump("messages_dropped_subtype")
                    continue
                handle = obj.get("user")
                if handle is not None and not isinstance(handle, str):
                    raise InputError(f"{day_file}: entry {i} has invalid user {handle!r}")
                if not handle or handle in excluded:
                    diag.bump("messages_dropped_excluded_handle")
                    continue
                person = roster.resolve(handle)
                if person is None:
                    diag.bump("messages_dropped_unknown_handle")
                    continue
                ts_raw = obj["ts"]
                try:
                    ts = datetime.fromtimestamp(float(ts_raw), tz=timezone.utc)
                except (TypeError, ValueError, OverflowError, OSError):
                    raise InputError(f"{day_file}: entry {i} has invalid ts {ts_raw!r}") from None
                mid = f"{channel}/{ts_raw}"
                if mid in kept_ids:
                    raise ValidationError(f"{day_file}: entry {i} has duplicate ts {ts_raw!r}")
                thread_ts = obj.get("thread_ts")
                if thread_ts is not None and (
                    isinstance(thread_ts, bool) or not isinstance(thread_ts, (str, int, float))
                ):
                    raise InputError(
                        f"{day_file}: entry {i} has invalid thread_ts {thread_ts!r}"
                    )
                thread_ref = f"{channel}/{thread_ts}" if thread_ts else None
                if thread_ref == mid:
                    thread_ref = None
                kept.append((mid, channel, person, ts, thread_ref))
                kept_ids.add(mid)

    messages = []
    for mid, channel, person, ts, thread_ref in kept:
        if thread_ref is not None and thread_ref not in kept_ids:
            diag.bump("replies_to_dropped_root")
            thread_ref = None
        messages.append(
            Message(
                message_id=mid,
                channel_id=channel,
                author=person,
                timestamp=ts,
                thread_root=thread_ref,
            )
        )
    messages.sort(key=lambda m: (m.timestamp, m.message_id))
    by_id = {m.message_id: m for m in messages}
    for m in messages:
        if m.thread_root is not None and m.timestamp < by_id[m.thread_root].timestamp:
            raise ValidationError(
                f"message {m.message_id} predates its thread root {m.thread_root}"
            )
    diag.bump("messages_kept", len(messages))
    return MessageLog(messages=tuple(messages))


@dataclass(frozen=True)
class FeedbackRecord:
    sprint_id: int
    rater: str
    ratee: str
    communication_rating: int


@dataclass(frozen=True)
class OutcomeRecord:
    team_id: str
    sprint_id: int
    story_points_committed: float
    story_points_passed: float
    team_score: float
    stories_passed_total: int | None = None  # year-level
    pair_programming_hours: float | None = None  # year-level


def feedback_oracle(path, cal, rosters, diagnostics=None):
    """parse_feedback by the record route it replaced: a FeedbackRecord per
    kept row, then a person -> team map built from the rosters (a person on
    two rosters counts for the later one), then the records regrouped by
    their rater's team and sprint and each group averaged with fsum. The rows
    are read by the package's own row reader; the error types and texts and
    the diagnostics counters are the same."""
    diag = diagnostics if diagnostics is not None else Diagnostics()
    p = Path(path)
    records: list[FeedbackRecord] = []
    known_sprints = {s.sprint_id for s in cal.sprints}
    for line, row in _read_rows(p, ("sprint_id", "rater", "ratee", "communication_rating")):
        try:
            sprint_id = int(row["sprint_id"])
            rating = int(row["communication_rating"])
        except (TypeError, ValueError):
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
        if sprint_id in cal.excluded_sprints:
            diag.bump("feedback_rows_excluded_sprint")
            continue
        records.append(FeedbackRecord(sprint_id, rater, ratee, rating))
    diag.bump("feedback_rows_kept", len(records))

    person_team: dict[str, str] = {}
    for roster in rosters:
        for person in roster.members:
            person_team[person] = roster.team_id
    ratings: dict[str, dict[int, list[int]]] = {}
    for rec in records:
        team = person_team.get(rec.rater)
        if team is not None:
            by_sprint = ratings.setdefault(team, {})
            by_sprint.setdefault(rec.sprint_id, []).append(rec.communication_rating)
    return {
        team: {sprint: math.fsum(r) / len(r) for sprint, r in by_sprint.items()}
        for team, by_sprint in ratings.items()
    }


def outcomes_oracle(path, cal, diagnostics=None):
    """parse_outcomes by the record route it replaced: an OutcomeRecord per
    kept row, each filled with its team's year-level values, then the records
    regrouped into each team's sprint -> (committed, passed, score) and each
    team's year-level values read from its first record by a linear search.
    The rows are read by the package's own row reader; the error types and
    texts and the diagnostics counters are the same."""
    diag = diagnostics if diagnostics is not None else Diagnostics()
    p = Path(path)
    kept: list[tuple[str, int, float, float, float]] = []
    known_sprints = {s.sprint_id for s in cal.sprints}
    year_level: dict[str, tuple[int | None, float | None]] = {}
    first_line: dict[tuple[str, int], int] = {}
    for line, row in _read_rows(
        p, ("team_id", "sprint_id", "story_points_committed", "story_points_passed", "team_score")
    ):
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
        except (TypeError, ValueError):
            raise ValidationError(f"{p}:line {line}: non-numeric outcome value") from None
        if not all(map(math.isfinite, (committed, passed, score, hours or 0.0))):
            raise ValidationError(f"{p}:line {line}: non-finite outcome value")
        if sprint_id not in known_sprints:
            raise ValidationError(f"{p}:line {line}: unknown sprint {sprint_id}")
        if (team, sprint_id) in first_line:
            raise ValidationError(
                f"{p}:line {line}: second row for team {team} sprint {sprint_id} "
                f"(first at line {first_line[team, sprint_id]})"
            )
        first_line[team, sprint_id] = line
        if committed < 0 or passed < 0:
            raise ValidationError(f"{p}:line {line}: negative story points")
        if passed > committed:
            raise ValidationError(
                f"{p}:line {line}: story points passed ({passed:g}) exceeds "
                f"committed ({committed:g})"
            )
        if hours is not None and hours < 0:
            raise ValidationError(f"{p}:line {line}: negative pair programming hours")
        if stories is not None and stories < 0:
            raise ValidationError(f"{p}:line {line}: negative stories passed total")
        if stories is not None and stories >= 2**1024 - 2**970:  # rounds past the largest float
            raise ValidationError(f"{p}:line {line}: stories passed total too large")
        prev = year_level.get(team, (None, None))
        for v, old in zip((stories, hours), prev):
            if v is not None and old is not None and v != old:
                raise ValidationError(
                    f"{p}:line {line}: year-level values for team {team} disagree "
                    f"with earlier rows"
                )
        year_level[team] = (
            prev[0] if stories is None else stories,
            prev[1] if hours is None else hours,
        )
        if sprint_id in cal.excluded_sprints:
            diag.bump("outcome_rows_excluded_sprint")
            continue
        kept.append((team, sprint_id, committed, passed, score))
    records = [OutcomeRecord(*row, *year_level[row[0]]) for row in kept]
    diag.bump("outcome_rows_kept", len(records))

    by_team: dict[str, dict[int, tuple[float, float, float]]] = {}
    for o in records:
        by_team.setdefault(o.team_id, {})[o.sprint_id] = (
            o.story_points_committed, o.story_points_passed, o.team_score
        )
    year = {
        team: next(
            (o.stories_passed_total, o.pair_programming_hours)
            for o in records if o.team_id == team
        )
        for team in by_team
    }
    return by_team, year
