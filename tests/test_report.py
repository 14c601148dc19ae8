from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import replace

import pytest

from teamnets.config import AnomalyThresholds, load_config
from teamnets.errors import InputError, ValidationError
from teamnets.report import (
    KIND_HIGH_STC_LOW_DELIVERY,
    KIND_LOW_STC_HIGH_PAIRING,
    TeamSummary,
    _trend_utest,
    detect_anomalies,
    emit,
    load_report,
    run_pipeline,
)
from teamnets.stats import p_stars
from teamnets.stc import year_summary

from oracles import pearson_r_oracle, t_sf_quadrature

# Year-level metrics for the ten-team reference cohort: pair programming
# hours, mean STC score, stories passed.
COHORT_SUMMARY = {
    "A": (169, 0.18, 46),
    "B": (180, 0.28, 35),
    "C": (261, 0.19, 28),
    "D": (292, 0.23, 46),
    "E": (343, 0.18, 40),
    "F": (426, 0.24, 53),
    "G": (434, 0.53, 23),
    "H": (436, 0.45, 34),
    "I": (493, 0.22, 36),
    "J": (602, 0.11, 29),
}


def cohort_summaries():
    return [
        TeamSummary(
            team_id=team,
            pair_programming_hours=float(hours),
            mean_stc=stc,
            stories_passed_total=stories,
            mean_team_score=None,
            trend_slope=None,
        )
        for team, (hours, stc, stories) in sorted(COHORT_SUMMARY.items())
    ]


def _mini_config(mini_dir, tmp_path, excluded_sprints, **options):
    """A copy of the mini season under ``tmp_path``; returns its raw config."""
    work = tmp_path / "mini"
    shutil.copytree(mini_dir, work)
    raw = json.loads((work / "config.json").read_text())
    raw["calendar"]["excluded_sprints"] = excluded_sprints
    raw["options"].update(options)
    (work / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return raw


@pytest.fixture(scope="module")
def mini_report(mini_dir):
    return run_pipeline(load_config(mini_dir / "config.json"))


class TestMiniPipeline:
    def test_weekly_scores(self, mini_report):
        assert mini_report.stc_weekly["alpha"][3] == pytest.approx(2 / 3)
        assert mini_report.stc_weekly["alpha"][4] == 1.0
        assert mini_report.stc_weekly["alpha"][5] is None
        assert mini_report.stc_weekly["alpha"][6] == 1.0
        assert mini_report.stc_weekly["beta"] == {3: 1.0, 4: 0.5, 5: None, 6: 0.25}

    def test_sprint_means(self, mini_report):
        assert mini_report.stc_sprint_mean["alpha"][2] == pytest.approx(5 / 6)
        assert mini_report.stc_sprint_mean["alpha"][3] == 1.0
        assert mini_report.stc_sprint_mean["beta"] == {2: 0.75, 3: 0.25}

    def test_sprint_censuses(self, mini_report):
        assert mini_report.sprint_census["alpha"][2] == (0.0, 0.5, 0.5, 0.0)
        assert mini_report.sprint_census["alpha"][3] == (0.0, 0.0, 0.5, 0.5)
        assert mini_report.sprint_census["beta"][2] == (0.0, 0.75, 0.0, 0.25)
        assert mini_report.sprint_census["beta"][3] == (0.5, 0.5, 0.0, 0.0)

    def test_mean_weekly_censuses(self, mini_report):
        assert mini_report.mean_weekly_census["alpha"][2] == (0.375, 0.5, 0.125, 0.0)
        assert mini_report.mean_weekly_census["alpha"][3] == (0.0, 0.625, 0.25, 0.125)
        assert mini_report.mean_weekly_census["beta"][2] == (0.25, 0.625, 0.0, 0.125)
        assert mini_report.mean_weekly_census["beta"][3] == (0.75, 0.25, 0.0, 0.0)

    def test_stc_table_against_oracles(self, mini_report):
        stc = [5 / 6, 1.0, 0.75, 0.25]  # alpha s2, s3, beta s2, s3
        pct = [0.75, 1.0, 0.5, 0.25]
        comm = [4.5, 4.75, 2.5, 2.0]
        expected = {
            "pct_story_points_passed~mean_sprint_stc": (stc, pct),
            "mean_peer_comm_rating~mean_sprint_stc": (stc, comm),
            "mean_peer_comm_rating~pct_story_points_passed": (pct, comm),
        }
        for cell in mini_report.stc_table:
            xs, ys = expected[cell.label]
            assert cell.n == 4
            assert cell.r == pytest.approx(pearson_r_oracle(xs, ys), abs=1e-12)
            r = cell.r
            t = r * math.sqrt((cell.n - 2) / (1 - r * r))
            assert cell.p == pytest.approx(2 * t_sf_quadrature(abs(t), cell.n - 2), abs=1e-9)
            assert cell.stars == p_stars(cell.p)

    def test_census_table_against_oracle(self, mini_report):
        pct = {"alpha": {2: 0.75, 3: 1.0}, "beta": {2: 0.5, 3: 0.25}}
        for k in range(4):
            cell = mini_report.census_sprint_table[k]
            assert cell.label == f"rel_{k}_edges~pct_story_points_passed"
            xs, ys = [], []
            for team in ("alpha", "beta"):
                for sprint in (2, 3):
                    xs.append(mini_report.sprint_census[team][sprint][k])
                    ys.append(pct[team][sprint])
            if cell.r is not None:
                assert cell.r == pytest.approx(pearson_r_oracle(xs, ys), abs=1e-12)
            assert cell.n == 4

    def test_utest_groups(self, mini_report):
        assert mini_report.trend_utest.increasing_teams == ("alpha",)
        assert mini_report.trend_utest.decreasing_teams == ("beta",)
        assert mini_report.trend_utest.p == 1.0

    def test_team_summaries(self, mini_report):
        alpha, beta = mini_report.team_summaries
        assert alpha.mean_stc == pytest.approx(8 / 9)
        assert beta.mean_stc == pytest.approx(7 / 12)
        assert alpha.trend_slope == pytest.approx(2 / 21)
        assert beta.trend_slope == pytest.approx(-13 / 56)
        assert (alpha.pair_programming_hours, beta.pair_programming_hours) == (120.0, 300.0)
        assert (alpha.stories_passed_total, beta.stories_passed_total) == (30, 22)
        assert (alpha.mean_team_score, beta.mean_team_score) == (85.0, 65.0)

    def test_flat_trend_is_left_out_of_the_u_test(self):
        flat = year_summary({1: 0.5, 2: 0.5, 3: 0.5}).trend.slope
        assert flat == 0.0
        # Rounded means would leave a slope of about -2.6e-33 across this gap.
        assert year_summary({3: 0.1, 4: 0.1, 5: None, 6: 0.1}).trend.slope == 0.0
        slopes = {"a": 0.25, "b": -0.25, "c": flat, "d": -0.0, "e": 0.5, "f": -0.5}
        summaries = [
            TeamSummary(team, None, None, 10 + i, None, slope)
            for i, (team, slope) in enumerate(slopes.items())
        ]
        notes: list[str] = []
        utest = _trend_utest(summaries, notes)
        assert (utest.increasing_teams, utest.decreasing_teams) == (("a", "e"), ("b", "f"))
        assert notes == [
            "team c: flat STC trend; excluded from U test",
            "team d: flat STC trend; excluded from U test",
        ]

    def test_too_few_teams_for_anomalies(self, mini_report):
        assert mini_report.anomalies == ()
        assert any("anomaly detection skipped" in n for n in mini_report.notes)

    def test_exclusion_plumbing(self, mini_dir):
        config = load_config(mini_dir / "config.json")
        config.exclude_teams = ("beta",)
        report = run_pipeline(config)
        assert report.excluded_teams == ("beta",)
        # with a single remaining team there are only 2 sample points: undefined r
        for cell in report.census_sprint_table_excluding:
            assert cell.n == 2
            assert cell.r is None and cell.stars == ""

    def test_lagged_table(self, mini_dir):
        config = load_config(mini_dir / "config.json")
        config.include_lagged_table = True
        report = run_pipeline(config)
        labels = [c.label for c in report.lagged_table]
        assert labels == [
            "next_sprint_pct_passed~mean_peer_comm_rating",
            "mean_team_score_year~mean_peer_comm_rating",
        ]
        # one lagged pair per team (the last sprint contributes none)
        assert report.lagged_table[0].n == 2
        assert report.lagged_table[1].n == 4

    @pytest.mark.parametrize("excluded_sprints", [[1], []], ids=["sprint-1-excluded", "all"])
    def test_lagged_table_values(self, mini_dir, tmp_path, excluded_sprints):
        """Both lagged cells against pairs read straight from the mini tables."""
        raw = _mini_config(mini_dir, tmp_path, excluded_sprints, include_lagged_table=True)
        report = run_pipeline(load_config(tmp_path / "mini" / "config.json"))

        sprints = [s for s in (1, 2, 3) if s not in excluded_sprints]
        team_of = {m: t["team_id"] for t in raw["teams"] for m in t["members"]}
        with (mini_dir / "outcomes.csv").open(newline="") as fh:
            outcomes = {(r["team_id"], int(r["sprint_id"])): r for r in csv.DictReader(fh)}
        ratings: dict[tuple[str, int], list[int]] = {}
        with (mini_dir / "feedback.csv").open(newline="") as fh:
            for r in csv.DictReader(fh):
                key = (team_of[r["rater"]], int(r["sprint_id"]))
                ratings.setdefault(key, []).append(int(r["communication_rating"]))
        teams = ["alpha", "beta"]
        rating = {k: sum(v) / len(v) for k, v in ratings.items()}
        pct = {
            k: int(r["story_points_passed"]) / int(r["story_points_committed"])
            for k, r in outcomes.items()
        }
        year_score = {
            t: sum(float(outcomes[(t, s)]["team_score"]) for s in sprints) / len(sprints)
            for t in teams
        }
        lagged = [
            (rating[(t, s)], pct[(t, nxt)]) for t in teams for s, nxt in zip(sprints, sprints[1:])
        ]
        year = [(rating[(t, s)], year_score[t]) for t in teams for s in sprints]

        for cell, pairs in zip(report.lagged_table, (lagged, year)):
            assert cell.n == len(pairs)
            if len(pairs) < 3:
                assert cell.r is None and cell.p is None and cell.stars == ""
            else:
                xs, ys = zip(*pairs)
                assert cell.r == pytest.approx(pearson_r_oracle(xs, ys), abs=1e-12)
        assert [c.n for c in report.lagged_table] == (
            [2, 4] if excluded_sprints else [4, 6]
        )

    def test_sprint_without_defined_stc_week_has_no_mean(self, mini_dir, tmp_path):
        # with sprint 1 included, neither team has a defined STC week in it
        _mini_config(mini_dir, tmp_path, excluded_sprints=[])
        report = run_pipeline(load_config(tmp_path / "mini" / "config.json"))
        assert report.stc_sprint_mean["alpha"][1] is None
        assert report.stc_sprint_mean["beta"][1] is None
        assert [c.n for c in report.stc_table] == [4, 4, 6]

    def test_missing_outcomes_is_named(self, mini_dir):
        config = load_config(mini_dir / "config.json")
        config.outcomes_path = None
        with pytest.raises(InputError) as err:
            run_pipeline(config)
        assert "outcomes" in str(err.value)


class TestAnomalies:
    def test_cohort_flags_g_and_j(self):
        flags = detect_anomalies(cohort_summaries())
        assert [(f.team_id, f.kind) for f in flags] == [
            ("G", KIND_HIGH_STC_LOW_DELIVERY),
            ("J", KIND_LOW_STC_HIGH_PAIRING),
        ]
        g, j = flags
        assert g.stc_rank == 1 and g.evidence_rank == 9
        assert j.stc_rank == 9 and j.evidence_rank == 1
        assert g.evidence_metric == "stories_passed"
        assert j.evidence_metric == "pair_programming_hours"

    def test_identical_teams_no_flags(self):
        summaries = [
            TeamSummary(f"T{i}", 100.0, 0.5, 30, None, None) for i in range(5)
        ]
        assert detect_anomalies(summaries) == []

    def test_three_team_extreme(self):
        summaries = [
            TeamSummary("A", 10.0, 0.9, 5, None, None),   # top STC, fewest stories
            TeamSummary("B", 20.0, 0.5, 30, None, None),
            TeamSummary("C", 5.0, 0.4, 40, None, None),
        ]
        flags = detect_anomalies(summaries)
        assert [(f.team_id, f.kind) for f in flags] == [("A", KIND_HIGH_STC_LOW_DELIVERY)]

    def test_requires_three_teams(self):
        with pytest.raises(ValidationError):
            detect_anomalies(cohort_summaries()[:2])

    def test_requires_complete_metrics(self):
        broken = cohort_summaries()
        broken[0] = replace(broken[0], mean_stc=None)
        with pytest.raises(ValidationError):
            detect_anomalies(broken)

    def test_threshold_config(self):
        # a stricter bottom band stops flagging G (stories rank 9 needs >= 10)
        flags = detect_anomalies(
            cohort_summaries(), AnomalyThresholds(top_fraction=0.2, bottom_fraction=0.05)
        )
        assert [(f.team_id, f.kind) for f in flags] == [("J", KIND_LOW_STC_HIGH_PAIRING)]


class TestEmission:
    def test_deterministic_bytes(self, mini_report, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        emit(mini_report, "delimited-table", first)
        emit(mini_report, "delimited-table", second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_expected_table_files(self, mini_report, tmp_path):
        written = emit(mini_report, "delimited-table", tmp_path)
        names = {p.name for p in written}
        expected_tables = {
            "stc_correlations.csv",
            "census_sprint_correlations.csv",
            "census_mean_weekly_correlations.csv",
            "census_sprint_correlations_excluding.csv",
            "census_mean_weekly_correlations_excluding.csv",
            "team_summary.csv",
            "trend_utest.csv",
            "anomalies.csv",
        }
        assert expected_tables <= names
        for team in ("alpha", "beta"):
            assert f"series_stc_{team}.csv" in names
            assert f"series_census_{team}.csv" in names
        assert len(names) == len(expected_tables) + 4

    def test_matches_golden_files(self, mini_report, tmp_path, mini_dir):
        golden = mini_dir.parent / "mini_golden"
        assert golden.is_dir(), "the checked-in golden files are missing"
        emit(mini_report, "delimited-table", tmp_path)
        emit(mini_report, "structured-data", tmp_path)
        mismatches = []
        for ref in sorted([*golden.glob("*.csv"), *golden.glob("*.json")]):
            produced = tmp_path / ref.name
            if not produced.exists() or produced.read_bytes() != ref.read_bytes():
                mismatches.append(ref.name)
        assert not mismatches

    def test_structured_round_trip(self, mini_report, tmp_path):
        emit(mini_report, "structured-data", tmp_path)
        assert load_report(tmp_path / "report.json") == mini_report

    def test_load_report_not_utf8_is_input_error(self, mini_report, tmp_path):
        emit(mini_report, "structured-data", tmp_path)
        path = tmp_path / "report.json"
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(InputError) as err:
            load_report(path)
        assert str(err.value).startswith(f"{path}: not UTF-8: 'utf-8' codec can't decode")

    @pytest.mark.parametrize(
        "source,error",
        [
            ("{}", "teams is missing"),
            ("[]", "report must be a JSON object"),
            (lambda r: r["stc_weekly"]["alpha"].update({"week-1": None}),
             "stc_weekly.alpha keys must be integers, got 'week-1'"),
            (lambda r: r.update(teams=None), "teams must be an array, got None"),
            (lambda r: r.update(stc_weekly=[]), "stc_weekly must be an object, got []"),
            (lambda r: r.update(weeks="abc"), "weeks must be an array, got 'abc'"),
            (lambda r: r.pop("teams"), "teams is missing"),
            (lambda r: r["weeks"].append(True), "weeks[4] must be an integer, got True"),
            (lambda r: r["stc_table"][0].update(n=None),
             "stc_table[0].n must be an integer, got None"),
            (lambda r: r["sprint_census"]["alpha"].update({"1": [0.5, 0.5]}),
             "sprint_census.alpha.1 must be an array of 4 values, got [0.5, 0.5]"),
        ],
        ids=[
            "object", "array", "week-key", "teams-null", "stc-weekly-array", "weeks-text",
            "teams-missing", "week-true", "cell-n-null", "census-short",
        ],
    )
    def test_load_report_wrong_shape_is_input_error(self, mini_report, tmp_path, source, error):
        """The JSON text, or an edit of mini's report.json, and the path it names."""
        path = tmp_path / "report.json"
        if isinstance(source, str):
            path.write_text(source, encoding="utf-8")
        else:
            emit(mini_report, "structured-data", tmp_path)
            data = json.loads(path.read_text())
            source(data)
            path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_report(path)
        assert str(err.value) == f"{path}: {error}"

    def test_load_report_takes_none_where_optional(self, mini_report, tmp_path):
        emit(mini_report, "structured-data", tmp_path)
        path = tmp_path / "report.json"
        data = json.loads(path.read_text())
        data["stc_table"][0]["r"] = None
        path.write_text(json.dumps(data), encoding="utf-8")
        assert load_report(path).stc_table[0].r is None

    def test_unknown_format(self, mini_report, tmp_path):
        with pytest.raises(ValueError):
            emit(mini_report, "yaml", tmp_path)

    def test_star_legend_consistency(self, mini_report):
        all_cells = (
            mini_report.stc_table
            + mini_report.census_sprint_table
            + mini_report.census_mean_weekly_table
            + mini_report.census_sprint_table_excluding
            + mini_report.census_mean_weekly_table_excluding
        )
        for cell in all_cells:
            assert cell.stars == p_stars(cell.p)

    def test_series_content(self, mini_report, tmp_path):
        emit(mini_report, "delimited-table", tmp_path)
        stc_alpha = (tmp_path / "series_stc_alpha.csv").read_text().splitlines()
        assert stc_alpha[0] == "week,stc_score"
        assert stc_alpha[1] == "3,0.666667"
        assert stc_alpha[3] == "5,"  # undefined week stays blank
        census_beta = (tmp_path / "series_census_beta.csv").read_text().splitlines()
        assert census_beta[1].startswith("2,0.000000,0.750000,0.000000,0.250000")
