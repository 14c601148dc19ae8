from __future__ import annotations

import json
import tempfile
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest

from teamnets.errors import ValidationError
from teamnets.ingestion import (
    Diagnostics,
    Roster,
    Sprint,
    SprintCalendar,
    parse_chat_edges,
)
from teamnets.network import (
    CommunicationNetwork,
    window_network,
    write_edge_list,
)

from oracles import comm_events_oracle, parse_chat_export_oracle, window_edges_oracle


def ts(day, hour=12):
    return datetime(2023, 3, day, hour, tzinfo=timezone.utc)


@pytest.fixture()
def roster():
    members = ("A", "B", "C", "D")
    return Roster(team_id="T", members=frozenset(members), identity_map={p: p for p in members})


@pytest.fixture()
def cal(team7_config):
    return team7_config.calendar


def chat_edges(messages, roster, cal, diag=None):
    """parse_chat_edges over a one-channel export of (author, when, root)
    messages, where root is the list index of the thread root or None. The
    i-th message is sent i milliseconds after its ``when``, so every ts is
    unique. Counts go to ``diag``, or to a fresh one."""
    diag = Diagnostics() if diag is None else diag
    stamps = [f"{when.timestamp() + i / 1000:.3f}" for i, (_, when, _) in enumerate(messages)]
    entries = [
        {"user": author, "ts": stamp, **({} if root is None else {"thread_ts": stamps[root]})}
        for stamp, (author, _, root) in zip(stamps, messages)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        day = Path(tmp) / "general" / "2023-03-06.json"
        day.parent.mkdir()
        day.write_text(json.dumps(entries), encoding="utf-8")
        return parse_chat_edges(tmp, roster, cal, (), diag)


def threads_of(*replies):
    """One thread per (sender, recipient, when): the recipient's root message
    and the sender's reply to it."""
    messages = []
    for sender, recipient, when in replies:
        messages += [(recipient, when, None), (sender, when, len(messages))]
    return messages


def team7_events(config, diag):
    """The team7 fixture's (sender, recipient, week) replies, by the oracle route."""
    team = config.teams[0]
    log = parse_chat_export_oracle(team.chat_export, team.roster, config.excluded_handles, diag)
    return comm_events_oracle(log, config.calendar, diag)[1]


def team7_weekly(config, diag, cal=None):
    team = config.teams[0]
    return parse_chat_edges(
        team.chat_export, team.roster, cal or config.calendar, config.excluded_handles, diag
    )


class TestDeriveEvents:
    def test_two_replies_two_events(self, roster, cal):
        messages = [("B", ts(6), None), ("A", ts(6, 13), 0), ("A", ts(6, 14), 0)]
        assert chat_edges(messages, roster, cal) == ({1: frozenset({("A", "B")})}, 3, 2)

    def test_self_reply_no_event(self, roster, cal):
        diag = Diagnostics()
        messages = [("A", ts(6), None), ("A", ts(6, 13), 0)]
        assert chat_edges(messages, roster, cal, diag) == ({}, 2, 0)
        assert dict(diag.counts) == {
            "messages_seen": 2, "messages_kept": 2, "events_skipped_self_reply": 1
        }

    def test_out_of_calendar_dropped(self, roster, cal):
        diag = Diagnostics()
        # the reply falls in the mid-season gap
        messages = [("B", ts(6), None), ("A", ts(28), 0)]
        assert chat_edges(messages, roster, cal, diag) == ({}, 2, 0)
        assert dict(diag.counts) == {
            "messages_seen": 2, "messages_kept": 2, "events_dropped_out_of_calendar": 1
        }

    def test_fixture_event_count(self, team7_config, team7_dir):
        manifest = json.loads((team7_dir / "manifest.json").read_text())
        cal = team7_config.calendar
        diag, oracle_diag = Diagnostics(), Diagnostics()
        weekly, _, replies = team7_weekly(team7_config, diag)
        events = team7_events(team7_config, oracle_diag)
        assert dict(diag.counts) == dict(oracle_diag.counts)
        assert replies == len(events) == manifest["cross_person_replies"] == 37
        assert weekly == {w: window_edges_oracle(events, (w,)) for w in {e[2] for e in events}}
        per_week = Counter(week for _, _, week in events)
        assert {str(k): v for k, v in per_week.items()} == manifest["cross_replies_per_week"]
        # partition property: a one-week calendar counts exactly that week's replies
        for week in cal.weeks:
            one_week = SprintCalendar(weeks=(week,), sprints=(Sprint(1, (week.week_id,)),))
            assert team7_weekly(team7_config, Diagnostics(), one_week)[2] == per_week[week.week_id]


def week_network(replies, roster, cal, week_id):
    return window_network(chat_edges(threads_of(*replies), roster, cal)[0], roster, (week_id,))


class TestBuildNetwork:
    def test_single_event_single_edge(self, roster, cal):
        net = week_network([("A", "B", ts(13))], roster, cal, 2)
        assert net.edges == frozenset({("A", "B")})
        assert net.roster == ("A", "B", "C", "D")

    def test_symmetrization_idempotent(self, roster, cal):
        forward = [("A", "B", ts(13))]
        both = forward + [("B", "A", ts(13, 14))]
        assert (
            week_network(forward, roster, cal, 2).edges
            == week_network(both, roster, cal, 2).edges
        )

    def test_monotone_under_added_events(self, roster, cal):
        base = [("A", "B", ts(13))]
        more = base + [("C", "D", ts(13, 15))]
        assert week_network(base, roster, cal, 2).edges <= week_network(more, roster, cal, 2).edges

    def test_window_filters_weeks(self, roster, cal):
        replies = [("A", "B", ts(13)), ("C", "D", ts(20))]
        weekly, _, count = chat_edges(threads_of(*replies), roster, cal)
        assert (weekly, count) == ({2: {("A", "B")}, 3: {("C", "D")}}, 2)
        assert week_network(replies, roster, cal, 2).edges == frozenset({("A", "B")})

    def test_figure_network_from_events(self, roster, cal):
        replies = [
            ("C", "A", ts(13)),
            ("D", "A", ts(13, 13)),
            ("D", "C", ts(13, 14)),
            ("D", "B", ts(13, 15)),
        ]
        net = week_network(replies, roster, cal, 2)
        assert net.n == 4
        assert net.edges == frozenset({("A", "C"), ("A", "D"), ("C", "D"), ("B", "D")})

    def test_sprint_equals_union_of_weeks(self, team7_config):
        team = team7_config.teams[0]
        cal = team7_config.calendar
        weekly, _, _ = team7_weekly(team7_config, Diagnostics())
        events = team7_events(team7_config, Diagnostics())
        sprint_net = window_network(weekly, team.roster, cal.sprint_weeks(2))
        assert sprint_net.edges == weekly[2] | weekly[3]
        assert sprint_net.edges == window_edges_oracle(events, (2, 3))

    def test_isolates_stay_in_roster(self, roster, cal):
        net = week_network([], roster, cal, 2)
        assert net.roster == ("A", "B", "C", "D")
        assert net.edges == frozenset()


class TestNetworkValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            CommunicationNetwork(roster=("A", "B"), edges=frozenset({("A", "A")}))

    def test_foreign_node_rejected(self):
        with pytest.raises(ValidationError):
            CommunicationNetwork(roster=("A", "B"), edges=frozenset({("A", "Z")}))


class TestActualCoordination:
    """STC's actual coordination is the week's network."""

    def test_single_event(self, roster, cal):
        net = week_network([("A", "B", ts(13))], roster, cal, 2)
        assert net.edges == frozenset({("A", "B")})
        assert net.has_edge("B", "A")

    def test_no_events_zero_matrix(self, roster, cal):
        assert chat_edges([], roster, cal) == ({}, 0, 0)
        assert not week_network([], roster, cal, 2).edges

    def test_fixture_week3_pairs(self, team7_config, team7_dir):
        manifest = json.loads((team7_dir / "manifest.json").read_text())
        team = team7_config.teams[0]
        events = team7_events(team7_config, Diagnostics())
        for edges in (
            window_network(team7_weekly(team7_config, Diagnostics())[0], team.roster, (3,)).edges,
            window_edges_oracle(events, (3,)),
        ):
            assert sorted(f"{a},{b}" for a, b in edges) == manifest["week3_pairs"]
            assert len(edges) == 3


class TestEdgeList:
    def test_lexicographic_lines(self, roster, cal, tmp_path):
        net = week_network([("D", "B", ts(13)), ("A", "C", ts(13, 13))], roster, cal, 2)
        path = tmp_path / "edges.tsv"
        write_edge_list(net, path)
        assert path.read_text() == "A\tC\nB\tD\n"

    def test_empty_network_empty_file(self, roster, cal, tmp_path):
        net = week_network([], roster, cal, 2)
        path = tmp_path / "edges.tsv"
        write_edge_list(net, path)
        assert path.read_text() == ""
