from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest

from teamnets.ingestion import (
    Commit,
    Diagnostics,
    MergeRequest,
    RepoActivity,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    parse_chat_export,
    parse_repo_activity,
)
from teamnets.network import (
    CommEvent,
    CommunicationNetwork,
    derive_comm_events,
    weekly_edges,
    window_network,
)
from teamnets.stc import (
    RequirementMatrix,
    assignment_matrix,
    coordination_requirements,
    dependency_matrix,
    merge_requests_by_week,
    stc_scores,
    weekly_team_scores,
    write_weekly_scores,
    year_summary,
)

from oracles import stc_brute_force


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def one_week_calendar():
    return SprintCalendar(
        weeks=(Week(1, utc(2023, 3, 6), utc(2023, 3, 13)),),
        sprints=(Sprint(1, (1,)),),
    )


def make_repo(mrs, week_start=None):
    """mrs: list of (mr_id, files, {person: n_commits}) all created in week 1."""
    start = week_start or utc(2023, 3, 6)
    commits = []
    reqs = []
    seq = 0
    for mr_id, files, people in mrs:
        shas = []
        for person, count in sorted(people.items()):
            for _ in range(count):
                seq += 1
                sha = f"c{seq:03d}"
                commits.append(Commit(sha=sha, author=person, authored_at=start + timedelta(minutes=seq)))
                shas.append(sha)
        reqs.append(
            MergeRequest(
                mr_id=mr_id,
                created_at=start + timedelta(hours=seq),
                commit_shas=frozenset(shas),
                changed_files=frozenset(files),
            )
        )
    return RepoActivity(commits=tuple(commits), merge_requests=tuple(reqs))


def roster_of(*people):
    return Roster(team_id="T", members=frozenset(people), identity_map={})


def week_mrs(repo, cal, week):
    return merge_requests_by_week(repo, cal, (week,))[week]


def ta_of(repo, roster, week, cal):
    """The week's assignment matrix, as the weekly pipeline builds it."""
    commit_author = {c.sha: c.author for c in repo.commits}
    return assignment_matrix(week_mrs(repo, cal, week), commit_author, roster)


def td_of(repo, week, cal, include_self_dependency=True):
    return dependency_matrix(week_mrs(repo, cal, week), include_self_dependency)


def week_net(events, roster, week=1):
    return window_network(weekly_edges(events), roster, (week,))


class TestAssignmentMatrix:
    def test_single_mr_two_authors(self):
        repo = make_repo([("M1", ["a.py"], {"P1": 1, "P2": 1})])
        ta = ta_of(repo, roster_of("P1", "P2", "P3"), 1, one_week_calendar())
        assert ta.mr_ids == ("M1",)
        assert ta.values[:, 0].tolist() == [1, 1, 0]  # rows P1, P2, P3

    def test_creation_week_attribution(self, team7_config):
        # M08 was created in week 3 but carries commits authored in week 1 by p4
        team = team7_config.teams[0]
        repo = parse_repo_activity(team.repo_activity, team.roster)
        ta = ta_of(repo, team.roster, 3, team7_config.calendar)
        row_p4 = ta.people.index("p4")
        col_m08 = ta.mr_ids.index("M08")
        assert ta.values[row_p4, col_m08] == 1
        # and nothing assigns p4 in week 1 (no MRs created then carry p4 commits)
        ta1 = ta_of(repo, team.roster, 1, team7_config.calendar)
        assert ta1.values[ta1.people.index("p4"), :].sum() == 1  # only via M02

    def test_fixture_week3_hand_table(self, team7_config):
        team = team7_config.teams[0]
        repo = parse_repo_activity(team.repo_activity, team.roster)
        ta = ta_of(repo, team.roster, 3, team7_config.calendar)
        assert ta.mr_ids == ("M07", "M08", "M09")
        expected = {
            "p1": [1, 0, 0],
            "p2": [1, 0, 0],
            "p3": [0, 1, 0],
            "p4": [0, 1, 0],
            "p5": [0, 0, 1],
            "p6": [0, 0, 0],
            "p7": [0, 0, 0],
        }
        for person, row in expected.items():
            assert ta.values[ta.people.index(person)].tolist() == row

    def test_week_without_mrs(self):
        repo = make_repo([])
        ta = ta_of(repo, roster_of("P1"), 1, one_week_calendar())
        assert ta.values.shape == (1, 0)


class TestDependencyMatrix:
    def test_shared_file(self):
        repo = make_repo([("M1", ["f1", "f2"], {"P1": 1}), ("M2", ["f2"], {"P2": 1})])
        td = td_of(repo, 1, one_week_calendar())
        assert td.values.tolist() == [[1, 1], [1, 1]]

    def test_disjoint_files(self):
        repo = make_repo([("M1", ["f1"], {"P1": 1}), ("M2", ["f2"], {"P2": 1})])
        td = td_of(repo, 1, one_week_calendar())
        assert td.values.tolist() == [[1, 0], [0, 1]]

    def test_self_dependency_switch(self):
        repo = make_repo([("M1", ["f1"], {"P1": 1})])
        td = td_of(repo, 1, one_week_calendar(), include_self_dependency=False)
        assert td.values.tolist() == [[0]]

    def test_empty_file_mrs_excluded(self, team7_config):
        team = team7_config.teams[0]
        repo = parse_repo_activity(team.repo_activity, team.roster)
        diag = Diagnostics()
        by_week = merge_requests_by_week(repo, team7_config.calendar, (2,), diag)
        assert {w: [m.mr_id for m in mrs] for w, mrs in by_week.items()} == {
            2: ["M04", "M06"]  # M05 has no files
        }
        assert diag.counts["mrs_excluded_empty_files"] == 1

    def test_brute_force_pairwise_oracle(self, team7_config):
        team = team7_config.teams[0]
        repo = parse_repo_activity(team.repo_activity, team.roster)
        cal = team7_config.calendar
        for week in (1, 2, 3, 4):
            td = td_of(repo, week, cal)
            mrs = {m.mr_id: m for m in repo.merge_requests}
            for i, a in enumerate(td.mr_ids):
                for j, b in enumerate(td.mr_ids):
                    if i == j:
                        expected = 1
                    else:
                        expected = int(bool(mrs[a].changed_files & mrs[b].changed_files))
                    assert td.values[i, j] == expected

    def test_symmetry(self):
        rng = random.Random(2)
        files = [f"f{i}" for i in range(6)]
        mrs = [
            (f"M{i}", rng.sample(files, rng.randint(1, 3)), {"P1": 1}) for i in range(6)
        ]
        td = td_of(make_repo(mrs), 1, one_week_calendar())
        assert np.array_equal(td.values, td.values.T)


class TestCoordinationRequirements:
    def test_three_person_hand_case(self):
        # P1, P2 on M1; P3 on M2; M1 and M2 share a file: all pairs required
        repo = make_repo(
            [("M1", ["shared.py"], {"P1": 1, "P2": 1}), ("M2", ["shared.py"], {"P3": 1})]
        )
        cal = one_week_calendar()
        cr = coordination_requirements(
            ta_of(repo, roster_of("P1", "P2", "P3"), 1, cal),
            td_of(repo, 1, cal),
        )
        assert cr.values.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_single_person_all_mrs(self):
        repo = make_repo([("M1", ["a"], {"P1": 1}), ("M2", ["a"], {"P1": 2})])
        cal = one_week_calendar()
        cr = coordination_requirements(
            ta_of(repo, roster_of("P1", "P2"), 1, cal),
            td_of(repo, 1, cal),
        )
        assert not cr.values.any()

    def test_disjoint_no_requirements(self):
        repo = make_repo([("M1", ["a"], {"P1": 1}), ("M2", ["b"], {"P2": 1})])
        cal = one_week_calendar()
        cr = coordination_requirements(
            ta_of(repo, roster_of("P1", "P2"), 1, cal),
            td_of(repo, 1, cal),
        )
        assert not cr.values.any()

    def test_symmetric_zero_diagonal_random(self):
        rng = random.Random(5)
        cal = one_week_calendar()
        people = [f"P{i}" for i in range(6)]
        for _ in range(25):
            mrs = [
                (
                    f"M{i}",
                    rng.sample(["a", "b", "c", "d"], rng.randint(1, 2)),
                    {p: 1 for p in rng.sample(people, rng.randint(1, 3))},
                )
                for i in range(rng.randint(1, 5))
            ]
            repo = make_repo(mrs)
            cr = coordination_requirements(
                ta_of(repo, roster_of(*people), 1, cal),
                td_of(repo, 1, cal),
            )
            assert np.array_equal(cr.values, cr.values.T)
            assert not np.diag(cr.values).any()


def matrix_from_pairs(people, pairs):
    index = {p: i for i, p in enumerate(people)}
    values = np.zeros((len(people), len(people)), dtype=np.int8)
    for a, b in pairs:
        values[index[a], index[b]] = 1
        values[index[b], index[a]] = 1
    return values


def net_of(people, pairs):
    return CommunicationNetwork(
        roster=people, edges=frozenset(tuple(sorted(p)) for p in pairs)
    )


class TestScores:
    def test_hand_oracle(self):
        people = ("P1", "P2", "P3")
        cr = RequirementMatrix(
            people=people,
            values=matrix_from_pairs(people, [("P1", "P2"), ("P1", "P3"), ("P2", "P3")]),
        )
        scores, team = stc_scores(cr, net_of(people, [("P1", "P2")]))
        by_person = {s.person_id: s.value for s in scores}
        assert by_person == {"P1": 0.5, "P2": 0.5, "P3": 0.0}
        assert team == pytest.approx(1 / 3)

    def test_zero_requirements_undefined(self):
        people = ("P1", "P2")
        cr = RequirementMatrix(people=people, values=np.zeros((2, 2), dtype=np.int8))
        scores, team = stc_scores(cr, net_of(people, []))
        assert all(s.value is None for s in scores)
        assert team is None

    def test_full_congruence(self):
        people = ("P1", "P2", "P3")
        req = matrix_from_pairs(people, [("P1", "P2"), ("P2", "P3")])
        cr = RequirementMatrix(people=people, values=req)
        net = net_of(people, [("P1", "P2"), ("P2", "P3"), ("P1", "P3")])
        scores, team = stc_scores(cr, net)
        assert team == 1.0
        assert all(s.value == 1.0 for s in scores if s.value is not None)

    def test_fixture_week3_scores(self, team7_config):
        team = team7_config.teams[0]
        cal = team7_config.calendar
        repo = parse_repo_activity(team.repo_activity, team.roster)
        log = parse_chat_export(team.chat_export, team.roster, team7_config.excluded_handles)
        events = derive_comm_events(log, team.roster, cal)
        cr = coordination_requirements(
            ta_of(repo, team.roster, 3, cal), td_of(repo, 3, cal)
        )
        scores, team_score = stc_scores(cr, week_net(events, team.roster, 3))
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
        mrs = []
        for i in range(n_mrs):
            name = f"M{i}"
            authors = set(rng.sample(people, rng.randint(1, min(3, n_people))))
            files = set(rng.sample(file_pool, rng.randint(0, 3)))  # sometimes empty
            mr_people[name] = authors
            mr_files[name] = files
            mrs.append((name, sorted(files), {a: 1 for a in authors}))
        repo = make_repo(mrs)
        pairs = set()
        events = []
        start = utc(2023, 3, 6, 12)
        for a in people:
            for b in people:
                if a < b and rng.random() < 0.3:
                    pairs.add(frozenset((a, b)))
                    events.append(CommEvent(a, b, start, 1))
        return people, repo, mr_people, mr_files, pairs, events

    def test_matrix_pipeline_equals_chain_enumeration(self):
        rng = random.Random(77)
        cal = one_week_calendar()
        for _ in range(100):
            people, repo, mr_people, mr_files, pairs, events = self._random_instance(rng)
            roster = roster_of(*people)
            cr = coordination_requirements(
                ta_of(repo, roster, 1, cal), td_of(repo, 1, cal)
            )
            scores, team = stc_scores(cr, week_net(events, roster))
            oracle_scores, oracle_team = stc_brute_force(
                sorted(people), mr_people, mr_files, pairs
            )
            assert {s.person_id: s.value for s in scores} == oracle_scores
            if team is None:
                assert oracle_team is None
            else:
                assert team == pytest.approx(oracle_team, abs=1e-12)

    def test_monotone_in_events(self):
        rng = random.Random(31)
        cal = one_week_calendar()
        for _ in range(30):
            people, repo, _, _, _, events = self._random_instance(rng)
            roster = roster_of(*people)
            cr = coordination_requirements(
                ta_of(repo, roster, 1, cal), td_of(repo, 1, cal)
            )
            base_scores, base_team = stc_scores(cr, week_net(events, roster))
            extra = events + [
                CommEvent(people[0], people[-1], utc(2023, 3, 7), 1)
            ] if len(people) > 1 else events
            more_scores, more_team = stc_scores(cr, week_net(extra, roster))
            for b, m in zip(base_scores, more_scores):
                if b.value is not None:
                    assert m.value is not None and m.value >= b.value
            if base_team is not None:
                assert more_team >= base_team

    def test_score_bounds(self):
        rng = random.Random(13)
        cal = one_week_calendar()
        for _ in range(30):
            people, repo, _, _, _, events = self._random_instance(rng)
            roster = roster_of(*people)
            cr = coordination_requirements(
                ta_of(repo, roster, 1, cal), td_of(repo, 1, cal)
            )
            scores, team = stc_scores(cr, week_net(events, roster))
            for s in scores:
                if s.value is not None:
                    assert 0.0 <= s.value <= 1.0
            if team is not None:
                assert 0.0 <= team <= 1.0


class TestWeeklyAndYear:
    def test_weekly_scores_fixture(self, team7_config):
        team = team7_config.teams[0]
        cal = team7_config.calendar
        repo = parse_repo_activity(team.repo_activity, team.roster)
        log = parse_chat_export(team.chat_export, team.roster, team7_config.excluded_handles)
        events = derive_comm_events(log, team.roster, cal)
        weekly = weekly_team_scores(repo, weekly_edges(events), team.roster, cal)
        assert set(weekly) == {1, 2, 3, 4}
        assert weekly[3] == pytest.approx(1 / 3)
        for value in weekly.values():
            if value is not None:
                assert 0.0 <= value <= 1.0

    def test_week_without_mrs_is_undefined(self):
        repo = make_repo([])
        weekly = weekly_team_scores(repo, {}, roster_of("P1", "P2"), one_week_calendar())
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
        cal = team7_config.calendar
        repo = parse_repo_activity(team.repo_activity, team.roster)
        log = parse_chat_export(team.chat_export, team.roster, team7_config.excluded_handles)
        events = derive_comm_events(log, team.roster, cal)
        weekly = weekly_team_scores(repo, weekly_edges(events), team.roster, cal)
        summary = year_summary(weekly)
        defined = [v for v in weekly.values() if v is not None]
        oracle = sum(Fraction(v).limit_denominator(10**9) for v in defined) / len(defined)
        assert summary.mean_stc == pytest.approx(float(oracle), abs=1e-12)

    def test_write_weekly_scores(self, tmp_path):
        path = tmp_path / "stc.csv"
        write_weekly_scores({"B": {2: None, 1: 0.5}, "A": {1: 1.0}}, path)
        assert path.read_text() == "team,week,stc_score\nA,1,1.000000\nB,1,0.500000\nB,2,\n"
