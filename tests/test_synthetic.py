from __future__ import annotations

import json

from teamnets.synthetic import make_season


def test_weeks_past_the_sprint_plan_join_the_last_sprint(tmp_path):
    """The sprint sizes partition 30 weeks; weeks 31-33 of a 33-week season
    join the last sprint, so every week is in exactly one sprint."""
    config = make_season(tmp_path, seed=1, n_teams=1, members_per_team=3, n_weeks=33,
                         messages_per_team=20, mrs_per_team=2)
    calendar = json.loads(config.read_text())["calendar"]
    sprints = calendar["sprints"]
    assert [s["weeks"] for s in sprints][-1] == [24, 25, 26, 27, 28, 29, 30, 31, 32, 33]
    assert sorted(w for s in sprints for w in s["weeks"]) == list(range(1, 34))
    assert [w["week_id"] for w in calendar["weeks"]] == list(range(1, 34))
