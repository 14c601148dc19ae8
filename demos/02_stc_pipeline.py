"""
Socio-technical congruence, step by step
========================================

Runs the weekly STC pipeline on a tiny team whose repo activity and chat
export are written to a temporary directory: task assignments
from merge-request authorship, task dependencies from file overlap,
coordination requirements as the pairs of people whose merge requests
depend on each other, actual coordination from the week's network of
threaded chat replies, and finally per-person scores. Both parsers count
what they keep and drop into one Diagnostics, printed at the end.
"""

import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from teamnets import (
    Diagnostics,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    coordination_requirements,
    parse_chat_edges,
    parse_repo_weeks,
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
diag = Diagnostics()  # the counters both parsers bump


def at(hours: int) -> str:
    return (start + timedelta(hours=hours)).isoformat()


# ana and ben committed to MR-1; cal committed to MR-2; both MRs touch api.py
repo = {
    "commits": [
        {"sha": "c1", "author": "ana", "authored_at": at(1)},
        {"sha": "c2", "author": "ben", "authored_at": at(2)},
        {"sha": "c3", "author": "cal", "authored_at": at(3)},
    ],
    "merge_requests": [
        {"id": "MR-1", "created_at": at(4), "commits": ["c1", "c2"], "files": ["api.py", "ui.py"]},
        {"id": "MR-2", "created_at": at(5), "commits": ["c3"], "files": ["api.py"]},
    ],
}
with tempfile.TemporaryDirectory() as tmp:
    repo_file = Path(tmp) / "repo.json"
    repo_file.write_text(json.dumps(repo), encoding="utf-8")
    # each week's merge requests as (authors, files) pairs, in file order; also
    # the number of kept commits and of merge requests
    by_week, _, _ = parse_repo_weeks(repo_file, roster, cal, diag)
mrs = by_week[1]
names = [mr["id"] for mr in repo["merge_requests"]]  # both were created in week 1

print("step 1, task assignments (who authored a commit in each MR):")
for name, (authors, _) in zip(names, mrs):
    print(f"    {name}: {', '.join(sorted(authors))}")

print("\nstep 2, task dependencies (MR pairs that share a changed file):")
for i, (_, a) in enumerate(mrs):
    for j in range(i + 1, len(mrs)):
        shared = a & mrs[j][1]
        if shared:
            print(f"    {names[i]} -- {names[j]} ({', '.join(sorted(shared))})")

required = coordination_requirements(mrs)
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
    weekly, _, _ = parse_chat_edges(export, roster, cal, (), diag)  # () excludes no handle
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

print("\nwhat the parsers counted (the report's diagnostics):")
for key, n in sorted(diag.counts.items()):
    print(f"    {key}: {n}")
