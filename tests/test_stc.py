from __future__ import annotations

import json
import random
from datetime import datetime, timezone
from fractions import Fraction

import pytest

from teamnets.errors import ValidationError
from teamnets.ingestion import (
    Diagnostics,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    parse_chat_edges,
    parse_repo_weeks,
)
from teamnets.cli import main
from teamnets.network import CommunicationNetwork, window_network
from teamnets.stc import (
    coordination_requirements,
    stc_scores,
    weekly_team_scores,
    year_summary,
)

from oracles import coordination_requirements_oracle, stc_brute_force


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def one_week_calendar():
    return SprintCalendar(
        weeks=(Week(1, utc(2023, 3, 6), utc(2023, 3, 13)),),
        sprints=(Sprint(1, (1,)),),
    )


def make_mrs(mrs):
    """mrs: list of (files, people); one week's (authors, files) pairs."""
    return [(frozenset(people), frozenset(files)) for files, people in mrs]


def roster_of(*people):
    return Roster(team_id="T", members=frozenset(people), identity_map={})


def required_of(mrs, include_self_dependency=True):
    """The required pairs of a week's merge requests, as the weekly pipeline
    computes them: merge requests without changed files are left out."""
    with_files = [mr for mr in mrs if mr[1]]
    return coordination_requirements(with_files, include_self_dependency)


def team7_repo(config):
    """The team7 fixture's merge requests by week."""
    team = config.teams[0]
    return parse_repo_weeks(team.repo_activity, team.roster, config.calendar, Diagnostics())[0]


def team7_weekly(config):
    """The team7 fixture's merge requests and communication edges by week."""
    team = config.teams[0]
    weekly, _, _ = parse_chat_edges(
        team.chat_export, team.roster, config.calendar, config.excluded_handles, Diagnostics()
    )
    return team7_repo(config), weekly


def partners(required, person):
    return {q for pair in required if person in pair for q in pair if q != person}


class TestAssignmentMatrix:
    """Who is assigned to which merge request, read through the required pairs."""

    def test_single_mr_two_authors(self):
        required = required_of(make_mrs([(["a.py"], {"P1", "P2"})]))
        assert required == {("P1", "P2")}  # P3 authored nothing

    def test_creation_week_attribution(self, team7_config):
        # M08 was created in week 3 but carries commits authored in week 1 by p4
        by_week = team7_repo(team7_config)
        # M08 shares app/b.py with M07 (p1, p2), so p4 needs both in week 3
        assert partners(required_of(by_week[3], False), "p4") == {"p1", "p2"}
        # and nothing assigns p4 in week 1 but M02 (co-author p3, db.py shared with M01)
        assert partners(required_of(by_week[1]), "p4") == {"p1", "p2", "p3"}

    def test_fixture_week3_hand_table(self, team7_config):
        # M07: p1, p2 (app/a.py, app/b.py); M08: p3, p4 (app/b.py, app/c.py);
        # M09: p5 (docs/readme.md); p6 and p7 authored nothing this week
        by_week = team7_repo(team7_config)
        assert by_week[3] == make_mrs([
            (["app/a.py", "app/b.py"], {"p1", "p2"}),
            (["app/b.py", "app/c.py"], {"p3", "p4"}),
            (["docs/readme.md"], {"p5"}),
        ])
        across = {("p1", "p3"), ("p1", "p4"), ("p2", "p3"), ("p2", "p4")}
        assert required_of(by_week[3], False) == across
        assert required_of(by_week[3]) == across | {("p1", "p2"), ("p3", "p4")}
        # a probe MR by p6 on docs/readme.md shows p5 alone is assigned to M09
        probe = make_mrs([(["docs/readme.md"], {"p6"})])
        assert required_of(by_week[3] + probe, False) == across | {("p5", "p6")}

    def test_week_without_mrs(self):
        assert required_of([]) == frozenset()


class TestDependencyMatrix:
    """Which merge requests depend on each other, read through the required pairs."""

    def test_shared_file(self):
        mrs = make_mrs([(["f1", "f2"], {"P1"}), (["f2"], {"P2"})])
        for self_dependency in (True, False):
            assert required_of(mrs, self_dependency) == {("P1", "P2")}

    def test_disjoint_files(self):
        mrs = make_mrs([(["f1"], {"P1", "P3"}), (["f2"], {"P2", "P4"})])
        assert required_of(mrs) == {("P1", "P3"), ("P2", "P4")}
        assert required_of(mrs, False) == frozenset()

    def test_self_dependency_switch(self):
        mrs = make_mrs([(["f1"], {"P1", "P2"})])
        assert required_of(mrs, True) == {("P1", "P2")}
        assert required_of(mrs, False) == frozenset()

    def test_empty_file_mrs_excluded(self, team7_config):
        team = team7_config.teams[0]
        by_week = team7_repo(team7_config)
        # M04 (p1, p2), M05 (p3, no files), M06 (p1, p4, p5, p6, p7)
        assert [files == frozenset() for _, files in by_week[2]] == [False, True, False]
        diag = Diagnostics()
        scored = weekly_team_scores(by_week, {}, team.roster, (2,), True, diag)
        assert diag.counts["mrs_excluded_empty_files"] == 1
        assert scored == {2: 0.0}  # no edges: every required pair is unfulfilled

    def test_brute_force_pairwise_oracle(self, team7_config):
        by_week = team7_repo(team7_config)
        for week in (1, 2, 3, 4):
            mrs = [mr for mr in by_week[week] if mr[1]]
            for self_dependency in (True, False):
                expected = set()
                for i, (a_people, a_files) in enumerate(mrs):
                    for j, (b_people, b_files) in enumerate(mrs):
                        if i == j and not self_dependency:
                            continue
                        if i != j and not a_files & b_files:
                            continue
                        for p in a_people:
                            for q in b_people:
                                if p < q:
                                    expected.add((p, q))
                assert required_of(mrs, self_dependency) == expected

    def test_symmetry(self):
        # file sharing is symmetric: the MRs' order does not change the pairs
        rng = random.Random(2)
        files = [f"f{i}" for i in range(6)]
        people = [f"P{i}" for i in range(5)]
        for _ in range(25):
            mrs = make_mrs(
                (rng.sample(files, rng.randint(1, 3)), rng.sample(people, 2)) for _ in range(6)
            )
            for self_dependency in (True, False):
                forward = coordination_requirements(mrs, self_dependency)
                backward = coordination_requirements(mrs[::-1], self_dependency)
                assert forward == backward


class TestCoordinationRequirements:
    def test_three_person_hand_case(self):
        # P1, P2 on M1; P3 on M2; M1 and M2 share a file: all pairs required
        mrs = make_mrs([(["shared.py"], {"P1", "P2"}), (["shared.py"], {"P3"})])
        assert required_of(mrs) == {("P1", "P2"), ("P1", "P3"), ("P2", "P3")}

    def test_single_person_all_mrs(self):
        mrs = make_mrs([(["a"], {"P1"}), (["a"], {"P1"})])
        assert required_of(mrs) == frozenset()

    def test_disjoint_no_requirements(self):
        mrs = make_mrs([(["a"], {"P1"}), (["b"], {"P2"})])
        assert required_of(mrs) == frozenset()

    def test_symmetric_zero_diagonal_random(self):
        rng = random.Random(5)
        people = [f"P{i}" for i in range(6)]
        for _ in range(25):
            mrs = make_mrs(
                (rng.sample(["a", "b", "c", "d"], rng.randint(1, 2)),
                 rng.sample(people, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 5))
            )
            # one sorted pair per unordered pair, never a person with themself
            assert all(a < b for a, b in required_of(mrs))

    def test_non_roster_authors_ignored(self, tmp_path):
        # X's commit is dropped at parse time, so only P1 is assigned to M1
        commits = [
            {"sha": sha, "author": author, "authored_at": "2023-03-06T10:00:00Z"}
            for sha, author in (("c1", "P1"), ("c2", "X"), ("c3", "P2"))
        ]
        mrs = [
            {"id": "M1", "created_at": "2023-03-07T10:00:00Z", "commits": ["c1", "c2"],
             "files": ["a"]},
            {"id": "M2", "created_at": "2023-03-07T11:00:00Z", "commits": ["c3"],
             "files": ["a"]},
        ]
        path = tmp_path / "repo.json"
        path.write_text(json.dumps({"commits": commits, "merge_requests": mrs}))
        roster, cal = roster_of("P1", "P2"), one_week_calendar()
        by_week = parse_repo_weeks(path, roster, cal, Diagnostics())[0]
        assert required_of(by_week[1]) == {("P1", "P2")}

    def test_merge_request_of_unknown_authors_adds_no_requirement(self, tmp_path):
        """M1's one commit is by X, on no roster: M1 keeps its files but has no
        author. It shares file a with P1's M2 and file b with P2's M3, which
        share no file: no one must coordinate."""
        commits = [
            {"sha": sha, "author": author, "authored_at": "2023-03-06T10:00:00Z"}
            for sha, author in (("c1", "X"), ("c2", "P1"), ("c3", "P2"))
        ]
        mrs = [
            {"id": f"M{i}", "created_at": f"2023-03-07T1{i}:00:00Z", "commits": [sha],
             "files": files}
            for i, sha, files in ((1, "c1", ["a", "b"]), (2, "c2", ["a"]), (3, "c3", ["b"]))
        ]
        path = tmp_path / "repo.json"
        path.write_text(json.dumps({"commits": commits, "merge_requests": mrs}))
        roster, cal = roster_of("P1", "P2"), one_week_calendar()
        by_week = parse_repo_weeks(path, roster, cal, Diagnostics())[0]
        assert by_week[1][0] == (frozenset(), frozenset({"a", "b"}))
        for self_dependency in (True, False):
            assert required_of(by_week[1], self_dependency) == frozenset()
            assert required_of(by_week[1][1:], self_dependency) == frozenset()


def net_of(people, pairs):
    return CommunicationNetwork(
        roster=people, edges=frozenset(tuple(sorted(p)) for p in pairs)
    )


class TestScores:
    def test_hand_oracle(self):
        people = ("P1", "P2", "P3")
        required = frozenset({("P1", "P2"), ("P1", "P3"), ("P2", "P3")})
        scores, team = stc_scores(required, net_of(people, [("P1", "P2")]))
        by_person = {s.person_id: s.value for s in scores}
        assert by_person == {"P1": 0.5, "P2": 0.5, "P3": 0.0}
        assert team == pytest.approx(1 / 3)

    def test_zero_requirements_undefined(self):
        people = ("P1", "P2")
        scores, team = stc_scores(frozenset(), net_of(people, []))
        assert all(s.value is None for s in scores)
        assert team is None

    def test_full_congruence(self):
        people = ("P1", "P2", "P3")
        required = frozenset({("P1", "P2"), ("P2", "P3")})
        net = net_of(people, [("P1", "P2"), ("P2", "P3"), ("P1", "P3")])
        scores, team = stc_scores(required, net)
        assert team == 1.0
        assert all(s.value == 1.0 for s in scores if s.value is not None)

    def test_pair_outside_roster_rejected(self):
        with pytest.raises(ValidationError, match="not roster-aligned"):
            stc_scores(frozenset({("P1", "P9")}), net_of(("P1", "P2"), []))

    def test_fixture_week3_scores(self, team7_config):
        team = team7_config.teams[0]
        by_week, weekly = team7_weekly(team7_config)
        required = required_of(by_week[3])
        scores, team_score = stc_scores(required, window_network(weekly, team.roster, (3,)))
        by_person = {s.person_id: s.value for s in scores}
        assert by_person["p1"] == pytest.approx(2 / 3)
        assert by_person["p2"] == pytest.approx(1 / 3)
        assert by_person["p3"] == pytest.approx(1 / 3)
        assert by_person["p4"] == 0.0
        assert by_person["p5"] is None and by_person["p6"] is None and by_person["p7"] is None
        assert team_score == pytest.approx(1 / 3)


class TestProperties:
    def _random_instance(self, rng):
        n_people = rng.randint(2, 8)
        people = tuple(f"P{i}" for i in range(n_people))
        n_mrs = rng.randint(0, 10)
        file_pool = [f"f{i}" for i in range(6)]
        mr_people = {}
        mr_files = {}
        for i in range(n_mrs):
            name = f"M{i}"
            mr_people[name] = set(rng.sample(people, rng.randint(1, min(3, n_people))))
            mr_files[name] = set(rng.sample(file_pool, rng.randint(0, 3)))  # sometimes empty
        mrs = make_mrs((mr_files[m], mr_people[m]) for m in mr_people)
        pairs = set()
        for a in people:
            for b in people:
                if a < b and rng.random() < 0.3:
                    pairs.add(frozenset((a, b)))
        return people, mrs, mr_people, mr_files, pairs

    def test_matrix_pipeline_equals_chain_enumeration(self):
        rng = random.Random(77)
        for _ in range(100):
            people, mrs, mr_people, mr_files, pairs = self._random_instance(rng)
            with_files = [mr for mr in mrs if mr[1]]
            for self_dependency in (True, False):
                required = coordination_requirements(with_files, self_dependency)
                assert required == coordination_requirements_oracle(with_files, self_dependency)
                scores, team = stc_scores(required, net_of(people, pairs))
                oracle_scores, oracle_team = stc_brute_force(
                    sorted(people), mr_people, mr_files, pairs, self_dependency
                )
                assert {s.person_id: s.value for s in scores} == oracle_scores
                if team is None:
                    assert oracle_team is None
                else:
                    assert team == pytest.approx(oracle_team, abs=1e-12)

    def test_monotone_in_events(self):
        rng = random.Random(31)
        for _ in range(30):
            people, mrs, _, _, pairs = self._random_instance(rng)
            required = required_of(mrs)
            base_scores, base_team = stc_scores(required, net_of(people, pairs))
            extra = pairs | {frozenset((people[0], people[-1]))} if len(people) > 1 else pairs
            more_scores, more_team = stc_scores(required, net_of(people, extra))
            for b, m in zip(base_scores, more_scores):
                if b.value is not None:
                    assert m.value is not None and m.value >= b.value
            if base_team is not None:
                assert more_team >= base_team

    def test_score_bounds(self):
        rng = random.Random(13)
        for _ in range(30):
            people, mrs, _, _, pairs = self._random_instance(rng)
            scores, team = stc_scores(required_of(mrs), net_of(people, pairs))
            for s in scores:
                if s.value is not None:
                    assert 0.0 <= s.value <= 1.0
            if team is not None:
                assert 0.0 <= team <= 1.0


class TestWeeklyAndYear:
    def test_weekly_scores_fixture(self, team7_config):
        team = team7_config.teams[0]
        by_week, edges = team7_weekly(team7_config)
        weekly = weekly_team_scores(
            by_week, edges, team.roster, team7_config.calendar.week_ids(),
            team7_config.self_dependency, Diagnostics(),
        )
        assert set(weekly) == {1, 2, 3, 4}
        assert weekly[3] == pytest.approx(1 / 3)
        for value in weekly.values():
            if value is not None:
                assert 0.0 <= value <= 1.0

    def test_week_without_mrs_is_undefined(self):
        weeks = one_week_calendar().week_ids()
        weekly = weekly_team_scores({}, {}, roster_of("P1", "P2"), weeks, True, Diagnostics())
        assert weekly == {1: None}

    def test_year_summary_exact_line(self):
        summary = year_summary({1: 0.2, 2: 0.4, 3: 0.6})
        assert summary.mean_stc == pytest.approx(0.4, abs=1e-12)
        assert summary.trend.slope == pytest.approx(0.2, abs=1e-12)

    def test_year_summary_constant(self):
        summary = year_summary({1: 0.5, 2: 0.5})
        assert summary.trend.slope == 0.0

    def test_year_summary_skips_undefined(self):
        summary = year_summary({1: 0.2, 2: None, 3: 0.6})
        assert summary.mean_stc == pytest.approx(0.4, abs=1e-12)
        assert summary.trend.n_points == 2

    def test_year_summary_single_week(self):
        summary = year_summary({1: 0.7})
        assert summary.mean_stc == 0.7
        assert summary.trend is None

    def test_year_summary_empty(self):
        summary = year_summary({1: None})
        assert summary.mean_stc is None and summary.trend is None

    def test_mean_against_fraction_oracle(self, team7_config):
        team = team7_config.teams[0]
        by_week, edges = team7_weekly(team7_config)
        weekly = weekly_team_scores(
            by_week, edges, team.roster, team7_config.calendar.week_ids(),
            team7_config.self_dependency, Diagnostics(),
        )
        summary = year_summary(weekly)
        defined = [v for v in weekly.values() if v is not None]
        oracle = sum(Fraction(v).limit_denominator(10**9) for v in defined) / len(defined)
        assert summary.mean_stc == pytest.approx(float(oracle), abs=1e-12)

    def test_write_weekly_scores(self, mini_dir, tmp_path):
        """The stc subcommand writes teams and weeks in order, undefined scores blank."""
        out = tmp_path / "out"
        assert main(["stc", "--config", str(mini_dir / "config.json"), "--out", str(out)]) == 0
        assert (out / "stc_weekly.csv").read_text() == (
            "team,week,stc_score\n"
            "alpha,3,0.666667\nalpha,4,1.000000\nalpha,5,\nalpha,6,1.000000\n"
            "beta,3,1.000000\nbeta,4,0.500000\nbeta,5,\nbeta,6,0.250000\n"
        )
