"""
Socio-technical congruence, step by step
========================================

Runs the five-step weekly STC pipeline on a tiny in-memory team: task
assignments from merge-request authorship, task dependencies from file
overlap, coordination requirements from the matrix product, actual
coordination from the week's network of threaded chat replies, and finally
per-person scores.
"""

from datetime import datetime, timedelta, timezone

from teamnets import (
    Commit,
    CommEvent,
    MergeRequest,
    RepoActivity,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    assignment_matrix,
    coordination_requirements,
    dependency_matrix,
    merge_requests_by_week,
    stc_scores,
    weekly_edges,
    window_network,
)

start = datetime(2023, 3, 6, tzinfo=timezone.utc)
cal = SprintCalendar(
    weeks=(Week(1, start, start + timedelta(days=7)),),
    sprints=(Sprint(1, (1,)),),
)
roster = Roster(team_id="demo", members=frozenset({"ana", "ben", "cal"}), identity_map={})

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

ta = assignment_matrix(mrs, commit_author, roster)
print("step 1, task assignments (people x MRs):")
print("   ", ta.mr_ids)
for person, row in zip(ta.people, ta.values):
    print("   ", person, row)

td = dependency_matrix(mrs)
print("\nstep 2, task dependencies (MRs x MRs, shared files):")
for mr, row in zip(td.mr_ids, td.values):
    print("   ", mr, row)

cr = coordination_requirements(ta, td)
print("\nstep 3, coordination requirements (people x people):")
for person, row in zip(cr.people, cr.values):
    print("   ", person, row)

# step 4: only ana and ben actually talked (ben replied in ana's thread)
events = [CommEvent(sender="ben", recipient="ana", timestamp=start + timedelta(hours=6), week_id=1)]
net = window_network(weekly_edges(events), roster, (1,))
print("\nstep 4, actual coordination (the week's network of threaded replies):")
for a, b in sorted(net.edges):
    print(f"    {a} -- {b}")

scores, team = stc_scores(cr, net)
print("\nstep 5, scores (fulfilled requirements / requirements):")
for s in scores:
    shown = "undefined" if s.value is None else f"{s.value:.3f} ({s.n_fulfilled}/{s.n_required})"
    print(f"    {s.person_id}: {shown}")
print(f"    team week score: {team:.3f}")
