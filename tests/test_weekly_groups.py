"""Property tests: windows built from the per-week groups equal a full rescan.

Replies are parsed into per-week edge sets and merge requests into per-week
lists once per team. Over random rosters, calendars (with break gaps), chat
exports and repo files, the weekly edge sets, kept-message and reply counts
and counters must equal the two-step oracle, every week and sprint network
built from the groups must equal the scan oracle, and the weekly STC scores
must equal the brute-force chain enumeration over each week's merge requests
found by a scan of their creation times.
"""

from __future__ import annotations

import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamnets.ingestion import (
    Diagnostics,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    parse_chat_edges,
    parse_repo_weeks,
)
from teamnets.network import window_network
from teamnets.stc import weekly_team_scores

from oracles import (
    chat_edges_oracle,
    comm_events_oracle,
    parse_chat_export_oracle,
    stc_brute_force,
    window_edges_oracle,
)

SEASON_START = datetime(2024, 1, 1, tzinfo=timezone.utc)
FILES = ("a.py", "b.py", "c.py", "d.py")


@st.composite
def seasons(draw):
    people = tuple(f"p{i}" for i in range(draw(st.integers(2, 6))))
    sprint_sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    weeks: list[Week] = []
    start = SEASON_START
    for week_id in range(1, sum(sprint_sizes) + 1):
        start += timedelta(weeks=draw(st.integers(0, 1)))  # a break before the week
        weeks.append(Week(week_id, start, start + timedelta(weeks=1)))
        start += timedelta(weeks=1)
    sprints, first = [], 1
    for sprint_id, size in enumerate(sprint_sizes, start=1):
        sprints.append(Sprint(sprint_id, tuple(range(first, first + size))))
        first += size
    cal = SprintCalendar(weeks=tuple(weeks), sprints=tuple(sprints))

    person = st.sampled_from(people)
    span_hours = int((start - SEASON_START).total_seconds() // 3600)
    hours = st.integers(-48, span_hours + 48)  # some fall outside the calendar

    # One channel of messages in send order. A message is a thread root, or
    # replies to itself or an earlier message (a self-reply when the authors
    # match) or to the ts of no message ("gone"). Messages by "UX", off the
    # identity map, are dropped, so replies to them have a dropped root.
    # Messages share a few send hours, so pairs repeat within a week; the
    # i-th is sent i milliseconds after its hour, so every ts is unique.
    n_messages = draw(st.integers(0, 30))
    send_hours = st.sampled_from(draw(st.lists(hours, min_size=1, max_size=4)))
    sent = sorted(draw(send_hours) for _ in range(n_messages))
    stamps = [
        f"{(SEASON_START + timedelta(hours=h)).timestamp() + i / 1000:.3f}"
        for i, h in enumerate(sent)
    ]
    handles = tuple(f"U{p}" for p in people) + ("UX",)
    chat = []
    for i, stamp in enumerate(stamps):
        entry = {"user": draw(st.sampled_from(handles)), "ts": stamp}
        thread = draw(st.sampled_from(["none", "gone", "earlier", "earlier"]))
        if thread == "gone":
            entry["thread_ts"] = "1.000"
        elif thread == "earlier":
            entry["thread_ts"] = stamps[draw(st.integers(0, i))]
        chat.append(entry)

    mr_specs = draw(
        st.lists(
            st.tuples(
                hours,
                st.sets(person, min_size=1, max_size=3),
                st.frozensets(st.sampled_from(FILES), max_size=3),  # sometimes empty
            ),
            max_size=12,
        )
    )
    # (created_at, authors, files) per merge request, and the repo file's payload
    mrs = [(SEASON_START + timedelta(hours=h), authors, files) for h, authors, files in mr_specs]
    commits, entries = [], []
    for i, (created, authors, files) in enumerate(mrs):
        shas = []
        for author in sorted(authors):
            shas.append(f"c{len(commits)}")
            stamp = (created - timedelta(minutes=5)).isoformat()
            commits.append({"sha": shas[-1], "author": f"U{author}", "authored_at": stamp})
        entries.append(
            {"id": i, "created_at": created.isoformat(), "commits": shas, "files": sorted(files)}
        )
    repo = (mrs, {"commits": commits, "merge_requests": entries})

    scored = draw(st.sets(st.sampled_from([s.sprint_id for s in sprints])))
    week_ids = tuple(w for s in sprints if s.sprint_id in scored for w in s.week_ids)
    roster = Roster(
        team_id="T", members=frozenset(people), identity_map={f"U{p}": p for p in people}
    )
    return roster, cal, chat, repo, week_ids


def with_export(chat, read):
    """``read(export_root)`` on a one-channel export holding the entries."""
    with tempfile.TemporaryDirectory() as tmp:
        day = Path(tmp) / "general" / "2024-01-01.json"
        day.parent.mkdir()
        day.write_text(json.dumps(chat), encoding="utf-8")
        return read(tmp)


def weekly_and_events(chat, roster, cal):
    """The weekly edges of parse_chat_edges and the oracle's reply tuples,
    whose routes count alike."""

    def read(root):
        diag, oracle_diag = Diagnostics(), Diagnostics()
        log = parse_chat_export_oracle(root, roster, (), oracle_diag)
        weekly = parse_chat_edges(root, roster, cal, (), diag)[0]
        events = comm_events_oracle(log, cal, oracle_diag)[1]
        assert dict(diag.counts) == dict(oracle_diag.counts)
        return weekly, events

    return with_export(chat, read)


@settings(max_examples=200, deadline=None)
@given(seasons())
def test_weekly_edges_equal_oracle(season):
    roster, cal, chat, _, _ = season
    diag, oracle_diag = Diagnostics(), Diagnostics()
    got = with_export(chat, lambda root: parse_chat_edges(root, roster, cal, (), diag))
    expected = with_export(
        chat, lambda root: chat_edges_oracle(root, roster, cal, (), oracle_diag)
    )
    assert got == expected
    # Counter equality ignores zero keys; a dict shows a counter added as 0
    assert dict(diag.counts) == dict(oracle_diag.counts)


@settings(max_examples=100, deadline=None)
@given(seasons())
def test_windows_from_weekly_groups_equal_scan(season):
    roster, cal, chat, _, _ = season
    weekly, events = weekly_and_events(chat, roster, cal)
    windows = [(w,) for w in cal.week_ids()] + [s.week_ids for s in cal.sprints]
    for week_ids in windows:
        net = window_network(weekly, roster, week_ids)
        assert net.roster == tuple(sorted(roster.members))
        assert net.edges == window_edges_oracle(events, week_ids)


@settings(max_examples=100, deadline=None)
@given(seasons())
def test_weekly_scores_equal_brute_force(season):
    roster, cal, chat, (mrs, payload), week_ids = season
    weekly, events = weekly_and_events(chat, roster, cal)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "repo.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        mrs_by_week = parse_repo_weeks(path, roster, cal, Diagnostics())[0]
    diag = Diagnostics()
    got = weekly_team_scores(mrs_by_week, weekly, roster, week_ids, True, diag)

    expected, empty = {}, 0
    for week in (w for w in cal.weeks if w.week_id in week_ids):
        created = {i: mr for i, mr in enumerate(mrs) if week.start <= mr[0] < week.end}
        empty += sum(1 for _, _, files in created.values() if not files)
        pairs = {frozenset(e) for e in window_edges_oracle(events, (week.week_id,))}
        _, expected[week.week_id] = stc_brute_force(
            sorted(roster.members),
            {i: set(authors) for i, (_, authors, _) in created.items()},
            {i: set(files) for i, (_, _, files) in created.items()},
            pairs,
        )
    assert list(got) == list(week_ids)
    for week_id, team in expected.items():
        if team is None:
            assert got[week_id] is None
        else:
            assert got[week_id] == pytest.approx(team, abs=1e-12)
    # empty-file MRs are counted in the scored weeks only, and no zero key is added
    assert dict(diag.counts) == ({"mrs_excluded_empty_files": empty} if empty else {})
