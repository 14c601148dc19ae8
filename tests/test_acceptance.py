"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary at the
end lists PASS/FAIL per criterion (see conftest.py).
"""

from __future__ import annotations

import math
import os
import random
import time
from itertools import combinations, product

import numpy as np
import pytest

from teamnets.config import load_config
from teamnets.ingestion import Roster
from teamnets.network import CommunicationNetwork, window_network
from teamnets.report import (
    KIND_HIGH_STC_LOW_DELIVERY,
    KIND_LOW_STC_HIGH_PAIRING,
    detect_anomalies,
    emit,
    run_pipeline,
)
from teamnets.stats import mann_whitney_u, pearson, t_sf
from teamnets.stc import coordination_requirements, stc_scores
from teamnets.synthetic import make_season
from teamnets.triad import census_closed_form, relative_census, triad_census

from oracles import mw_exact_oracle, stc_brute_force, t_sf_quadrature
from test_report import cohort_summaries


def make_net(roster, edges):
    return CommunicationNetwork(
        roster=tuple(roster),
        edges=frozenset(tuple(sorted(e)) for e in edges),
    )


def test_criterion_1_four_node_walkthrough():
    net = make_net("ABCD", [("A", "C"), ("A", "D"), ("C", "D"), ("B", "D")])
    census = triad_census(net)
    assert census == (0, 1, 2, 1)
    assert relative_census(census) == (0.0, 0.25, 0.5, 0.25)
    best = min(
        _timed(lambda: relative_census(triad_census(net))) for _ in range(10)
    )
    assert best < 1e-3, f"census walkthrough took {best * 1e3:.3f} ms"
    print(f"criterion 1: census (0,1,2,1), relative (0,.25,.5,.25), {best * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_census_equivalence_1000_graphs():
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(3, 12)
        roster = [f"v{i}" for i in range(n)]
        edges = {e for e in combinations(roster, 2) if rng.random() < rng.random()}
        net = make_net(roster, edges)
        enumerated = triad_census(net)
        assert enumerated == census_closed_form(net)
        assert sum(enumerated) == math.comb(n, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"1000-graph equivalence took {elapsed:.2f} s"
    print(f"criterion 2: 1000 graphs equivalent in {elapsed:.2f} s")


def _week1_stc(mr_specs, roster, edges):
    """Per-person and team STC of one week's (mr_id, files, authors) specs;
    merge requests without changed files are left out, as in the pipeline."""
    mrs = [(frozenset(authors), frozenset(files)) for _, files, authors in mr_specs if files]
    required = coordination_requirements(mrs)
    return stc_scores(required, window_network({1: frozenset(edges)}, roster, (1,)))


def test_criterion_3_stc_hand_fixture_and_oracle():
    roster = Roster(team_id="T", members=frozenset({"P1", "P2", "P3"}), identity_map={})
    mr_specs = [("M1", ["shared.py"], ["P1", "P2"]), ("M2", ["shared.py"], ["P3"])]
    scores, team = _week1_stc(mr_specs, roster, [("P1", "P2")])
    assert {s.person_id: s.value for s in scores} == {"P1": 0.5, "P2": 0.5, "P3": 0.0}
    assert team == 1 / 3

    rng = random.Random(303)
    for _ in range(200):
        n_people = rng.randint(2, 8)
        people = tuple(f"P{i}" for i in range(n_people))
        file_pool = [f"f{i}" for i in range(6)]
        mr_specs, mr_people, mr_files = [], {}, {}
        for i in range(rng.randint(0, 10)):
            authors = set(rng.sample(people, rng.randint(1, min(3, n_people))))
            files = set(rng.sample(file_pool, rng.randint(0, 3)))
            mr_specs.append((f"M{i}", sorted(files), sorted(authors)))
            mr_people[f"M{i}"] = authors
            mr_files[f"M{i}"] = files
        team_roster = Roster(team_id="T", members=frozenset(people), identity_map={})
        pairs, edges = set(), []
        for a, b in combinations(sorted(people), 2):
            if rng.random() < 0.3:
                pairs.add(frozenset((a, b)))
                edges.append((a, b))
        scores, team = _week1_stc(mr_specs, team_roster, edges)
        oracle_scores, oracle_team = stc_brute_force(sorted(people), mr_people, mr_files, pairs)
        assert {s.person_id: s.value for s in scores} == oracle_scores
        assert (team is None) == (oracle_team is None)
        if team is not None:
            assert team == pytest.approx(oracle_team, abs=1e-12)
    print("criterion 3: hand fixture exact; 200 random instances equal brute force")


def test_criterion_4_statistics_kernel():
    assert pearson([1, 2, 3], [2, 4, 6]).r == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]).r == -1.0

    t_377 = 0.377 * math.sqrt(58 / (1 - 0.377**2))
    p_377 = 2 * t_sf(t_377, 58)
    assert 0.0025 <= p_377 <= 0.0035

    for df in (1, 5, 30, 58):
        for t in np.arange(-6.0, 6.01, 0.25):
            assert abs(t_sf(float(t), df) - t_sf_quadrature(float(t), df)) < 1e-8

    rng = random.Random(404)
    for n_a, n_b in product(range(1, 10), range(1, 10)):
        if n_a + n_b > 10:
            continue
        for _ in range(2):
            a = [rng.randint(0, 5) for _ in range(n_a)]
            b = [rng.randint(0, 5) for _ in range(n_b)]
            res = mann_whitney_u(a, b)
            u_oracle, p_oracle = mw_exact_oracle(a, b)
            assert res.method == "exact"
            assert res.u1 == u_oracle and res.p_two_tailed == p_oracle
    print(f"criterion 4: p(r=.377, n=60) = {p_377:.4f}; t_sf and exact U match oracles")


def test_criterion_5_anomaly_rule_on_cohort_table():
    flags = detect_anomalies(cohort_summaries())
    assert [(f.team_id, f.kind) for f in flags] == [
        ("G", KIND_HIGH_STC_LOW_DELIVERY),
        ("J", KIND_LOW_STC_HIGH_PAIRING),
    ]
    print("criterion 5: cohort table flags exactly G and J")


def test_criterion_6_reference_dataset_conditional():
    config_path = os.environ.get("TEAMNETS_REFERENCE_DATASET")
    if not config_path:
        pytest.skip(
            "reference cohort dataset not supplied; set TEAMNETS_REFERENCE_DATASET "
            "to its pipeline config to enable this check"
        )
    report = run_pipeline(load_config(config_path))
    cell = next(
        c
        for c in report.stc_table
        if c.label == "mean_peer_comm_rating~pct_story_points_passed"
    )
    assert cell.r == pytest.approx(0.377, abs=0.005)
    assert cell.stars != ""
    # sign and significance patterns of the census tables with anomalous
    # teams excluded (sprint-level, then mean-weekly)
    expected_sprint = {
        "rel_1_edges~pct_story_points_passed": (-1, True),
        "rel_1_edges~team_score": (-1, True),
        "rel_3_edges~pct_story_points_passed": (+1, False),
        "rel_3_edges~team_score": (+1, False),
    }
    for cell in report.census_sprint_table_excluding:
        if cell.label in expected_sprint:
            sign, significant = expected_sprint[cell.label]
            assert math.copysign(1, cell.r) == sign
            assert (cell.stars != "") == significant
    expected_mw = {"rel_3_edges~pct_story_points_passed": (+1, True)}
    for cell in report.census_mean_weekly_table_excluding:
        if cell.label in expected_mw:
            sign, significant = expected_mw[cell.label]
            assert math.copysign(1, cell.r) == sign
            assert (cell.stars != "") == significant
    print("criterion 6: reference dataset reproduced")


@pytest.fixture(scope="module")
def synthetic_season(tmp_path_factory):
    root = tmp_path_factory.mktemp("season")
    config_path = make_season(root, seed=7, n_teams=10, members_per_team=8, n_weeks=30,
                              messages_per_team=5000, mrs_per_team=100)
    return config_path


def test_criterion_7_performance_and_determinism(synthetic_season, tmp_path):
    config = load_config(synthetic_season)
    start = time.perf_counter()
    report = run_pipeline(config)
    first = tmp_path / "run1"
    emit(report, "delimited-table", first)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f} s"

    assert report.diagnostics["messages_kept"] >= 45000
    assert report.diagnostics["mrs_kept"] == 1000

    # exclusion consistency: with complete synthetic data every census cell
    # draws exactly (teams x sprints) sample points, before and after exclusion
    n_sprints = len(report.sprints)
    for cell in report.census_sprint_table + report.census_mean_weekly_table:
        assert cell.n == len(report.teams) * n_sprints
    n_remaining = len(report.teams) - len(report.excluded_teams)
    for cell in (
        report.census_sprint_table_excluding + report.census_mean_weekly_table_excluding
    ):
        assert cell.n == n_remaining * n_sprints

    report2 = run_pipeline(load_config(synthetic_season))
    second = tmp_path / "run2"
    emit(report2, "delimited-table", second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"criterion 7: full season pipeline in {elapsed:.2f} s, byte-identical reruns")
