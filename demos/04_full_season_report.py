"""
A full synthetic season, end to end
===================================

Generates a complete synthetic season (10 teams, 8 members each, 30 weeks
of chat and merge requests), runs the whole analysis pipeline, and writes
every result table. The same seed always produces byte-identical output.
"""

import tempfile
import time
from pathlib import Path

from teamnets import emit, load_config, run_pipeline
from teamnets.synthetic import make_season

workdir = Path(tempfile.mkdtemp(prefix="teamnets_demo_"))
print(f"generating season under {workdir} ...")
config_path = make_season(workdir / "season", seed=7, n_teams=10, members_per_team=8,
                          n_weeks=30, messages_per_team=5000, mrs_per_team=100)

config = load_config(config_path)
start = time.perf_counter()
report = run_pipeline(config)
elapsed = time.perf_counter() - start
print(f"pipeline finished in {elapsed:.2f} s "
      f"({report.diagnostics['messages_kept']} messages, "
      f"{report.diagnostics['mrs_kept']} merge requests)")

print("\nteam summaries (pair hours, mean STC, stories passed):")
for s in report.team_summaries:
    print(f"    {s.team_id}: {s.pair_programming_hours:6.0f} h   "
          f"{s.mean_stc:.3f}   {s.stories_passed_total}")

utest = report.trend_utest
p = "undefined" if utest.p is None else f"{utest.p:.3f}"
print(f"\nSTC trend groups: {len(utest.increasing_teams)} increasing vs "
      f"{len(utest.decreasing_teams)} decreasing; "
      f"stories-passed U = {utest.u}, p = {p} ({utest.method})")

print("\ncorrelation table (per-sprint means):")
for cell in report.stc_table:
    r = "undefined" if cell.r is None else f"{cell.r:+.3f}{cell.stars}"
    print(f"    {cell.label}: r = {r} (n = {cell.n})")

if report.anomalies:
    print("\nanomalous teams:")
    for flag in report.anomalies:
        print(f"    {flag.team_id}: {flag.kind} "
              f"(stc rank {flag.stc_rank}, {flag.evidence_metric} rank {flag.evidence_rank})")
else:
    print("\nno anomalous teams flagged")

out_dir = workdir / "report"
written = emit(report, "delimited-table", out_dir)
print(f"\nwrote {len(written)} files to {out_dir}")
