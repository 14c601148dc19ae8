from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest

from teamnets.errors import ValidationError
from teamnets.ingestion import (
    Commit,
    Diagnostics,
    MergeRequest,
    RepoActivity,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    parse_chat_edges,
    parse_repo_activity,
)
from teamnets.cli import main
from teamnets.network import CommunicationNetwork, window_network
from teamnets.stc import (
    coordination_requirements,
    merge_requests_by_week,
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


def required_of(repo, roster, week, cal, include_self_dependency=True, extra_mrs=()):
    """The week's required pairs, as the weekly pipeline computes them."""
    commit_author = {c.sha: c.author for c in repo.commits}
    mrs = week_mrs(repo, cal, week) + list(extra_mrs)
    return coordination_requirements(mrs, commit_author, roster, include_self_dependency)


def team7_weekly(config):
    """The team7 fixture's repo activity and weekly communication edges."""
    team = config.teams[0]
    repo = parse_repo_activity(team.repo_activity, team.roster)
    weekly, _, _ = parse_chat_edges(
        team.chat_export, team.roster, config.calendar, config.excluded_handles
    )
    return repo, weekly


def partners(required, person):
    return {q for pair in required if person in pair for q in pair if q != person}


class TestAssignmentMatrix:
    """Who is assigned to which merge request, read through the required pairs."""

    def test_single_mr_two_authors(self):
        repo = make_repo([("M1", ["a.py"], {"P1": 1, "P2": 1})])
        required = required_of(repo, roster_of("P1", "P2", "P3"), 1, one_week_calendar())
        assert required == {("P1", "P2")}  # P3 authored nothing

    def test_creation_week_attribution(self, team7_config):
        # M08 was created in week 3 but carries commits authored in week 1 by p4
        team = team7_config.teams[0]
        repo = parse_repo_activity(team.repo_activity, team.roster)
        cal = team7_config.calendar
        # M08 shares app/b.py with M07 (p1, p2), so p4 needs both in week 3
        assert partners(required_of(repo, team.roster, 3, cal, False), "p4") == {"p1", "p2"}
        # and nothing assigns p4 in week 1 but M02 (co-author p3, db.py shared with M01)
        assert partners(required_of(repo, team.roster, 1, cal), "p4") == {"p1", "p2", "p3"}

    def test_fixture_week3_hand_table(self, team7_config):
        # M07: p1, p2 (app/a.py, app/b.py); M08: p3, p4 (app/b.py, app/c.py);
        # M09: p5 (docs/readme.md); p6 and p7 authored nothing this week
        team = team7_config.teams[0]
        repo = parse_repo_activity(team.repo_activity, team.roster)
        cal = team7_config.calendar
        assert [m.mr_id for m in week_mrs(repo, cal, 3)] == ["M07", "M08", "M09"]
        across = {("p1", "p3"), ("p1", "p4"), ("p2", "p3"), ("p2", "p4")}
        assert required_of(repo, team.roster, 3, cal, False) == across
        assert required_of(repo, team.roster, 3, cal) == across | {("p1", "p2"), ("p3", "p4")}
        # a probe MR by p6 on docs/readme.md shows p5 alone is assigned to M09
        probe = MergeRequest(
            "M99", utc(2023, 3, 23), frozenset({"c001"}), frozenset({"docs/readme.md"})
        )
        p6_repo = RepoActivity(
            commits=repo.commits + (Commit("c001", "p6", utc(2023, 3, 23)),),
            merge_requests=repo.merge_requests,
        )
        assert required_of(p6_repo, team.roster, 3, cal, False, [probe]) == across | {
            ("p5", "p6")
        }

    def test_week_without_mrs(self):
        repo = make_repo([])
        assert required_of(repo, roster_of("P1"), 1, one_week_calendar()) == frozenset()


class TestDependencyMatrix:
    """Which merge requests depend on each other, read through the required pairs."""

    def test_shared_file(self):
        repo = make_repo([("M1", ["f1", "f2"], {"P1": 1}), ("M2", ["f2"], {"P2": 1})])
        for self_dependency in (True, False):
            required = required_of(
                repo, roster_of("P1", "P2"), 1, one_week_calendar(), self_dependency
            )
            assert required == {("P1", "P2")}

    def test_disjoint_files(self):
        repo = make_repo(
            [("M1", ["f1"], {"P1": 1, "P3": 1}), ("M2", ["f2"], {"P2": 1, "P4": 1})]
        )
        roster = roster_of("P1", "P2", "P3", "P4")
        cal = one_week_calendar()
        assert required_of(repo, roster, 1, cal) == {("P1", "P3"), ("P2", "P4")}
        assert required_of(repo, roster, 1, cal, False) == frozenset()

    def test_self_dependency_switch(self):
        repo = make_repo([("M1", ["f1"], {"P1": 1, "P2": 1})])
        roster = roster_of("P1", "P2")
        cal = one_week_calendar()
        assert required_of(repo, roster, 1, cal, True) == {("P1", "P2")}
        assert required_of(repo, roster, 1, cal, False) == frozenset()

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
        author_of = {c.sha: c.author for c in repo.commits}
        for week in (1, 2, 3, 4):
            mrs = week_mrs(repo, cal, week)
            for self_dependency in (True, False):
                expected = set()
                for a in mrs:
                    for b in mrs:
                        if a is b and not self_dependency:
                            continue
                        if a is not b and not a.changed_files & b.changed_files:
                            continue
                        for p in (author_of[s] for s in a.commit_shas):
                            for q in (author_of[s] for s in b.commit_shas):
                                if p < q:
                                    expected.add((p, q))
                required = required_of(repo, team.roster, week, cal, self_dependency)
                assert required == expected

    def test_symmetry(self):
        # file sharing is symmetric: the MRs' order does not change the pairs
        rng = random.Random(2)
        files = [f"f{i}" for i in range(6)]
        people = [f"P{i}" for i in range(5)]
        cal = one_week_calendar()
        commit_author = {f"c{i}": p for i, p in enumerate(people)}
        for _ in range(25):
            mrs = [
                MergeRequest(
                    f"M{i}",
                    utc(2023, 3, 6),
                    frozenset(f"c{people.index(p)}" for p in rng.sample(people, 2)),
                    frozenset(rng.sample(files, rng.randint(1, 3))),
                )
                for i in range(6)
            ]
            for self_dependency in (True, False):
                forward = coordination_requirements(
                    mrs, commit_author, roster_of(*people), self_dependency
                )
                backward = coordination_requirements(
                    mrs[::-1], commit_author, roster_of(*people), self_dependency
                )
                assert forward == backward


class TestCoordinationRequirements:
    def test_three_person_hand_case(self):
        # P1, P2 on M1; P3 on M2; M1 and M2 share a file: all pairs required
        repo = make_repo(
            [("M1", ["shared.py"], {"P1": 1, "P2": 1}), ("M2", ["shared.py"], {"P3": 1})]
        )
        required = required_of(repo, roster_of("P1", "P2", "P3"), 1, one_week_calendar())
        assert required == {("P1", "P2"), ("P1", "P3"), ("P2", "P3")}

    def test_single_person_all_mrs(self):
        repo = make_repo([("M1", ["a"], {"P1": 1}), ("M2", ["a"], {"P1": 2})])
        assert required_of(repo, roster_of("P1", "P2"), 1, one_week_calendar()) == frozenset()

    def test_disjoint_no_requirements(self):
        repo = make_repo([("M1", ["a"], {"P1": 1}), ("M2", ["b"], {"P2": 1})])
        assert required_of(repo, roster_of("P1", "P2"), 1, one_week_calendar()) == frozenset()

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
            required = required_of(make_repo(mrs), roster_of(*people), 1, cal)
            # one sorted pair per unordered pair, never a person with themself
            assert all(a < b for a, b in required)

    def test_non_roster_authors_ignored(self):
        repo = make_repo([("M1", ["a"], {"P1": 1, "X": 1}), ("M2", ["a"], {"P2": 1})])
        assert required_of(repo, roster_of("P1", "P2"), 1, one_week_calendar()) == {
            ("P1", "P2")
        }


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
        cal = team7_config.calendar
        repo, weekly = team7_weekly(team7_config)
        required = required_of(repo, team.roster, 3, cal)
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
        for a in people:
            for b in people:
                if a < b and rng.random() < 0.3:
                    pairs.add(frozenset((a, b)))
        return people, repo, mr_people, mr_files, pairs

    def test_matrix_pipeline_equals_chain_enumeration(self):
        rng = random.Random(77)
        cal = one_week_calendar()
        for _ in range(100):
            people, repo, mr_people, mr_files, pairs = self._random_instance(rng)
            roster = roster_of(*people)
            commit_author = {c.sha: c.author for c in repo.commits}
            mrs = week_mrs(repo, cal, 1)
            for self_dependency in (True, False):
                required = coordination_requirements(mrs, commit_author, roster, self_dependency)
                assert required == coordination_requirements_oracle(
                    mrs, commit_author, roster, self_dependency
                )
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
        cal = one_week_calendar()
        for _ in range(30):
            people, repo, _, _, pairs = self._random_instance(rng)
            roster = roster_of(*people)
            required = required_of(repo, roster, 1, cal)
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
        cal = one_week_calendar()
        for _ in range(30):
            people, repo, _, _, pairs = self._random_instance(rng)
            roster = roster_of(*people)
            scores, team = stc_scores(required_of(repo, roster, 1, cal), net_of(people, pairs))
            for s in scores:
                if s.value is not None:
                    assert 0.0 <= s.value <= 1.0
            if team is not None:
                assert 0.0 <= team <= 1.0


class TestWeeklyAndYear:
    def test_weekly_scores_fixture(self, team7_config):
        team = team7_config.teams[0]
        repo, edges = team7_weekly(team7_config)
        weekly = weekly_team_scores(repo, edges, team.roster, team7_config.calendar)
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
        repo, edges = team7_weekly(team7_config)
        weekly = weekly_team_scores(repo, edges, team.roster, team7_config.calendar)
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
