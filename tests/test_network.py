from __future__ import annotations

import json
from collections import Counter
from datetime import datetime, timezone

import pytest

from teamnets.errors import ValidationError
from teamnets.ingestion import (
    Diagnostics,
    Message,
    MessageLog,
    Roster,
    parse_chat_export,
)
from teamnets.network import (
    CommEvent,
    CommunicationNetwork,
    derive_comm_events,
    weekly_edges,
    window_network,
    write_edge_list,
)

from oracles import window_edges_oracle


def ts(day, hour=12):
    return datetime(2023, 3, day, hour, tzinfo=timezone.utc)


@pytest.fixture()
def roster():
    return Roster(team_id="T", members=frozenset({"A", "B", "C", "D"}), identity_map={})


def msg(mid, author, when, root=None):
    return Message(
        message_id=mid, channel_id="general", author=author, timestamp=when, thread_root=root
    )


@pytest.fixture()
def cal(team7_config):
    return team7_config.calendar


class TestDeriveEvents:
    def test_two_replies_two_events(self, roster, cal):
        log = MessageLog(
            messages=(
                msg("m1", "B", ts(6)),
                msg("m2", "A", ts(6, 13), root="m1"),
                msg("m3", "A", ts(6, 14), root="m1"),
            )
        )
        events = derive_comm_events(log, roster, cal)
        assert [(e.sender, e.recipient) for e in events] == [("A", "B"), ("A", "B")]
        assert all(e.week_id == 1 for e in events)

    def test_self_reply_no_event(self, roster, cal):
        log = MessageLog(
            messages=(msg("m1", "A", ts(6)), msg("m2", "A", ts(6, 13), root="m1"))
        )
        assert derive_comm_events(log, roster, cal) == []

    def test_out_of_calendar_dropped(self, roster, cal):
        diag = Diagnostics()
        log = MessageLog(
            messages=(
                msg("m1", "B", ts(6)),
                msg("m2", "A", ts(28), root="m1"),  # falls in the mid-season gap
            )
        )
        assert derive_comm_events(log, roster, cal, diag) == []
        assert diag.counts["events_dropped_out_of_calendar"] == 1

    def test_fixture_event_count(self, team7_config, team7_dir):
        manifest = json.loads((team7_dir / "manifest.json").read_text())
        team = team7_config.teams[0]
        log = parse_chat_export(team.chat_export, team.roster, team7_config.excluded_handles)
        events = derive_comm_events(log, team.roster, team7_config.calendar)
        assert len(events) == manifest["cross_person_replies"] == 37
        per_week = Counter(e.week_id for e in events)
        assert {str(k): v for k, v in per_week.items()} == manifest["cross_replies_per_week"]
        # partition property: week buckets sum to the in-calendar total
        assert sum(per_week.values()) == len(events)


def week_network(events, roster, week_id):
    return window_network(weekly_edges(events), roster, (week_id,))


class TestBuildNetwork:
    def test_single_event_single_edge(self, roster):
        events = [CommEvent("A", "B", ts(13), 2)]
        net = week_network(events, roster, 2)
        assert net.edges == frozenset({("A", "B")})
        assert net.roster == ("A", "B", "C", "D")

    def test_symmetrization_idempotent(self, roster):
        forward = [CommEvent("A", "B", ts(13), 2)]
        both = forward + [CommEvent("B", "A", ts(13, 14), 2)]
        assert week_network(forward, roster, 2).edges == week_network(both, roster, 2).edges

    def test_monotone_under_added_events(self, roster):
        base = [CommEvent("A", "B", ts(13), 2)]
        more = base + [CommEvent("C", "D", ts(13, 15), 2)]
        assert week_network(base, roster, 2).edges <= week_network(more, roster, 2).edges

    def test_window_filters_weeks(self, roster):
        events = [CommEvent("A", "B", ts(13), 2), CommEvent("C", "D", ts(20), 3)]
        assert weekly_edges(events) == {2: {("A", "B")}, 3: {("C", "D")}}
        net = week_network(events, roster, 2)
        assert net.edges == frozenset({("A", "B")})

    def test_figure_network_from_events(self, roster):
        events = [
            CommEvent("C", "A", ts(13), 2),
            CommEvent("D", "A", ts(13, 13), 2),
            CommEvent("D", "C", ts(13, 14), 2),
            CommEvent("D", "B", ts(13, 15), 2),
        ]
        net = week_network(events, roster, 2)
        assert net.n == 4
        assert net.edges == frozenset({("A", "C"), ("A", "D"), ("C", "D"), ("B", "D")})

    def test_sprint_equals_union_of_weeks(self, team7_config):
        team = team7_config.teams[0]
        cal = team7_config.calendar
        log = parse_chat_export(team.chat_export, team.roster, team7_config.excluded_handles)
        events = derive_comm_events(log, team.roster, cal)
        weekly = weekly_edges(events)
        sprint_net = window_network(weekly, team.roster, cal.sprint_weeks(2))
        assert sprint_net.edges == weekly[2] | weekly[3]
        assert sprint_net.edges == window_edges_oracle(events, (2, 3))

    def test_isolates_stay_in_roster(self, roster):
        net = week_network([], roster, 2)
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

    def test_single_event(self, roster):
        net = week_network([CommEvent("A", "B", ts(13), 2)], roster, 2)
        assert net.edges == frozenset({("A", "B")})
        assert net.has_edge("B", "A")

    def test_no_events_zero_matrix(self, roster):
        assert weekly_edges([]) == {}
        assert not week_network([], roster, 2).edges

    def test_fixture_week3_pairs(self, team7_config, team7_dir):
        manifest = json.loads((team7_dir / "manifest.json").read_text())
        team = team7_config.teams[0]
        log = parse_chat_export(team.chat_export, team.roster, team7_config.excluded_handles)
        events = derive_comm_events(log, team.roster, team7_config.calendar)
        net = week_network(events, team.roster, 3)
        assert sorted(f"{a},{b}" for a, b in net.edges) == manifest["week3_pairs"]
        assert len(net.edges) == 3


class TestEdgeList:
    def test_lexicographic_lines(self, roster, tmp_path):
        net = week_network(
            [CommEvent("D", "B", ts(13), 2), CommEvent("A", "C", ts(13, 13), 2)], roster, 2
        )
        path = tmp_path / "edges.tsv"
        write_edge_list(net, path)
        assert path.read_text() == "A\tC\nB\tD\n"

    def test_empty_network_empty_file(self, roster, tmp_path):
        net = week_network([], roster, 2)
        path = tmp_path / "edges.tsv"
        write_edge_list(net, path)
        assert path.read_text() == ""
