from __future__ import annotations

import math
import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamnets.ingestion import Diagnostics, Roster, Sprint, SprintCalendar, Week
from teamnets.network import CommunicationNetwork, window_network
from teamnets.report import sprint_census
from teamnets.triad import (
    census_closed_form,
    mean_weekly_relative_census,
    relative_census,
    triad_census,
)


def make_net(roster, edges):
    return CommunicationNetwork(
        roster=tuple(roster),
        edges=frozenset(tuple(sorted(e)) for e in edges),
    )


def random_net(rng, n, p):
    roster = [f"v{i}" for i in range(n)]
    edges = {
        (a, b) for a, b in combinations(roster, 2) if rng.random() < p
    }
    return make_net(roster, edges)


FOUR_NODE = make_net("ABCD", [("A", "C"), ("A", "D"), ("C", "D"), ("B", "D")])


class TestCensus:
    def test_four_node_walkthrough(self):
        assert triad_census(FOUR_NODE) == (0, 1, 2, 1)

    def test_empty_network(self):
        net = make_net("ABCD", [])
        assert triad_census(net) == (4, 0, 0, 0)

    def test_complete_network(self):
        roster = "ABCDE"
        net = make_net(roster, combinations(roster, 2))
        assert triad_census(net) == (0, 0, 0, 10)

    def test_too_small(self):
        with pytest.raises(ValueError):
            triad_census(make_net("AB", []))
        with pytest.raises(ValueError):
            census_closed_form(make_net("AB", []))

    def test_total_is_n_choose_3(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(3, 10)
            net = random_net(rng, n, rng.random())
            assert sum(triad_census(net)) == math.comb(n, 3)


class TestClosedForm:
    def test_four_node_walkthrough(self):
        assert census_closed_form(FOUR_NODE) == (0, 1, 2, 1)

    def test_star_has_no_triangles(self):
        # K_{1,4}: the hub pairs give C(4,2) = 6 two-edge triads
        net = make_net("HABCD", [("H", x) for x in "ABCD"])
        expected = (4, 0, 6, 0)
        assert census_closed_form(net) == expected
        assert triad_census(net) == expected

    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(3, 12)
            net = random_net(rng, n, rng.random())
            assert census_closed_form(net) == triad_census(net)

    def test_matches_enumeration_on_wide_rosters(self):
        """Rosters of 40 to 70 members, so the neighbour bitmasks cross 64
        bits: empty, complete and random graphs, members in shuffled order."""
        rng = random.Random(7)
        nets = [make_net([f"v{i}" for i in range(64)], [])]
        roster = [f"v{i}" for i in range(65)]
        nets.append(make_net(roster, combinations(roster, 2)))
        for _ in range(6):
            net = random_net(rng, rng.randint(40, 70), rng.random())
            nets.append(make_net(rng.sample(net.roster, net.n), net.edges))
        censuses = [census_closed_form(net) for net in nets]
        assert censuses[:2] == [(math.comb(64, 3), 0, 0, 0), (0, 0, 0, math.comb(65, 3))]
        assert censuses == [triad_census(net) for net in nets]


class TestRelativeCensus:
    def test_walkthrough(self):
        assert relative_census((0, 1, 2, 1)) == (0.0, 0.25, 0.5, 0.25)

    def test_all_empty(self):
        assert relative_census((4, 0, 0, 0)) == (1.0, 0.0, 0.0, 0.0)

    def test_all_complete(self):
        assert relative_census((0, 0, 0, 10)) == (0.0, 0.0, 0.0, 1.0)

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            relative_census((0, 0, 0, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**80), min_size=4, max_size=4).filter(any))
    @example([2**53 + 1, 1, 0, 2**60 + 3])
    def test_correctly_rounded_beyond_float_integers(self, counts):
        """Counts above 2**53 are not exact as floats; int division still
        rounds each exact ratio once."""
        total = sum(counts)
        assert relative_census(tuple(counts)) == tuple(
            float(Fraction(c, total)) for c in counts
        )

    def test_sums_to_one(self):
        rng = random.Random(9)
        for _ in range(100):
            net = random_net(rng, rng.randint(3, 9), rng.random())
            rel = relative_census(triad_census(net))
            assert math.fsum(rel) == pytest.approx(1.0, abs=1e-12)


class TestMeanWeekly:
    def test_singleton(self):
        one = (1.0, 0.0, 0.0, 0.0)
        assert mean_weekly_relative_census([one]) == (1.0, 0.0, 0.0, 0.0)

    def test_two_extremes(self):
        a = (1.0, 0.0, 0.0, 0.0)
        b = (0.0, 0.0, 0.0, 1.0)
        assert mean_weekly_relative_census([a, b]) == (0.5, 0.0, 0.0, 0.5)

    def test_three_weeks_against_fraction_oracle(self):
        weekly_counts = [(1, 2, 1, 0), (2, 2, 0, 0), (0, 4, 0, 0)]
        weekly = [relative_census(c) for c in weekly_counts]
        got = mean_weekly_relative_census(weekly)
        for k in range(4):
            expected = sum(Fraction(c[k], sum(c)) for c in weekly_counts) / 3
            assert got[k] == pytest.approx(float(expected), abs=1e-12)
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_weekly_relative_census([])


class TestInvariances:
    def test_label_permutation(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(3, 8)
            net = random_net(rng, n, rng.random())
            mapping = dict(zip(net.roster, rng.sample(net.roster, n)))
            relabeled = make_net(
                [mapping[v] for v in net.roster],
                [(mapping[a], mapping[b]) for a, b in net.edges],
            )
            assert triad_census(relabeled) == triad_census(net)

    def test_complement_duality(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(3, 8)
            net = random_net(rng, n, rng.random())
            complement = make_net(
                net.roster,
                [e for e in combinations(net.roster, 2) if e not in net.edges],
            )
            assert triad_census(complement) == tuple(
                reversed(triad_census(net))
            )


@st.composite
def weekly_networks(draw):
    """A roster, a one-sprint calendar and per-week edge sets over it.

    Edges join only the first ``active`` members, so the rest are isolated;
    the edge set is empty, complete, a star or random, and each edge lands in
    one or more of the sprint's weeks.
    """
    people = tuple(f"p{i:02d}" for i in range(draw(st.integers(3, 45))))
    active = people[: draw(st.integers(0, len(people)))]
    pairs = list(combinations(active, 2))
    shape = draw(st.sampled_from(["empty", "complete", "star", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if shape == "empty" or not pairs:
        edges = []
    elif shape == "complete":
        edges = pairs
    elif shape == "star":
        hub = rng.choice(active)
        edges = [tuple(sorted((hub, p))) for p in active if p != hub]
    else:
        density = draw(st.floats(0.0, 1.0))
        edges = [e for e in pairs if rng.random() < density]
    n_weeks = draw(st.integers(1, 3))
    weekly: dict[int, set] = {}
    for edge in edges:
        for week in rng.sample(range(1, n_weeks + 1), rng.randint(1, n_weeks)):
            weekly.setdefault(week, set()).add(edge)
    start = datetime(2024, 1, 1, tzinfo=timezone.utc)
    weeks = tuple(
        Week(w, start + timedelta(weeks=w - 1), start + timedelta(weeks=w))
        for w in range(1, n_weeks + 1)
    )
    cal = SprintCalendar(weeks=weeks, sprints=(Sprint(1, tuple(range(1, n_weeks + 1))),))
    roster = Roster(team_id="T", members=frozenset(people), identity_map={})
    return roster, cal, {w: frozenset(e) for w, e in weekly.items()}


@settings(max_examples=60, deadline=None)
@given(weekly_networks())
def test_closed_form_equals_enumeration_on_pipeline_networks(season):
    roster, cal, weekly = season
    windows = [(w,) for w in cal.week_ids()] + [cal.sprint_weeks(1)]
    for week_ids in windows:
        net = window_network(weekly, roster, week_ids)
        assert census_closed_form(net) == triad_census(net)
    sprint_net, rel = sprint_census(weekly, roster, cal, 1, Diagnostics())
    assert rel == relative_census(triad_census(sprint_net))
