"""
Socio-technical congruence, step by step
========================================

Runs the weekly STC pipeline on a tiny in-memory team: task assignments
from merge-request authorship, task dependencies from file overlap,
coordination requirements as the pairs of people whose merge requests
depend on each other, actual coordination from the week's network of
threaded chat replies, and finally per-person scores.
"""

import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from teamnets import (
    Commit,
    MergeRequest,
    RepoActivity,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    coordination_requirements,
    merge_requests_by_week,
    parse_chat_edges,
    stc_scores,
    window_network,
)

start = datetime(2023, 3, 6, tzinfo=timezone.utc)
cal = SprintCalendar(
    weeks=(Week(1, start, start + timedelta(days=7)),),
    sprints=(Sprint(1, (1,)),),
)
roster = Roster(
    team_id="demo",
    members=frozenset({"ana", "ben", "cal"}),
    identity_map={"U_ANA": "ana", "U_BEN": "ben", "U_CAL": "cal"},  # chat handle -> person
)

# ana and ben committed to MR-1; cal committed to MR-2; both MRs touch api.py
repo = RepoActivity(
    commits=(
        Commit("c1", "ana", start + timedelta(hours=1)),
        Commit("c2", "ben", start + timedelta(hours=2)),
        Commit("c3", "cal", start + timedelta(hours=3)),
    ),
    merge_requests=(
        MergeRequest("MR-1", start + timedelta(hours=4), frozenset({"c1", "c2"}),
                     frozenset({"api.py", "ui.py"})),
        MergeRequest("MR-2", start + timedelta(hours=5), frozenset({"c3"}),
                     frozenset({"api.py"})),
    ),
)

# the week's merge requests, grouped by creation week once
mrs = merge_requests_by_week(repo, cal, cal.week_ids())[1]
commit_author = {c.sha: c.author for c in repo.commits}

print("step 1, task assignments (who authored a commit in each MR):")
for mr in mrs:
    authors = sorted({commit_author[sha] for sha in mr.commit_shas})
    print(f"    {mr.mr_id}: {', '.join(authors)}")

print("\nstep 2, task dependencies (MR pairs that share a changed file):")
for i, a in enumerate(mrs):
    for b in mrs[i + 1:]:
        shared = a.changed_files & b.changed_files
        if shared:
            print(f"    {a.mr_id} -- {b.mr_id} ({', '.join(sorted(shared))})")

required = coordination_requirements(mrs, commit_author, roster)
print("\nstep 3, coordination requirements (pairs of people who must coordinate):")
for a, b in sorted(required):
    print(f"    {a} -- {b}")

# step 4: only ana and ben actually talked (ben replied in ana's thread), as
# a chat export holds it: one JSON array of messages per channel and day
root_ts = str((start + timedelta(hours=6)).timestamp())
day = [
    {"user": "U_ANA", "ts": root_ts},
    {"user": "U_BEN", "ts": str((start + timedelta(hours=7)).timestamp()), "thread_ts": root_ts},
]
with tempfile.TemporaryDirectory() as export:
    day_file = Path(export) / "general" / "2023-03-06.json"
    day_file.parent.mkdir()
    day_file.write_text(json.dumps(day), encoding="utf-8")
    # also the number of kept messages and of replies counted
    weekly, _, _ = parse_chat_edges(export, roster, cal)
net = window_network(weekly, roster, (1,))
print("\nstep 4, actual coordination (the week's network of threaded replies):")
for a, b in sorted(net.edges):
    print(f"    {a} -- {b}")

scores, team = stc_scores(required, net)
print("\nstep 5, scores (fulfilled requirements / requirements):")
for s in scores:
    shown = "undefined" if s.value is None else f"{s.value:.3f} ({s.n_fulfilled}/{s.n_required})"
    print(f"    {s.person_id}: {shown}")
print(f"    team week score: {team:.3f}")
