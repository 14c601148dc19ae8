"""Workload definitions and seeded input generation.

Every workload runs the same command mix; they differ in the shape of the
season, so that a change to one layer shows on the workload that stresses it
and not on the others:

* ``cohort`` is the criterion-7 season (10 teams x 8 members, 5k messages and
  100 merge requests per team): many small day files, the paper's traffic,
  and the only workload where report glue and statistics get a visible share.
* ``long-season`` has 50k messages and 1000 merge requests per team, so every
  per-window rescan of events and merge requests is at its heaviest.
* ``wide-roster`` has 40 members per team, where the O(n^3) enumeration
  census dominates (C(40, 3) = 9880 triples per network against 56 at 8).

``long-season`` and ``wide-roster`` have two teams each. The per-team load
sets what they stress; with five and four teams one command took 2-3 s, a
run held two or three samples of each, and the run medians spread by up to
30% on a shared 2-CPU machine.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

DEFAULT_SEED = 7
KEEP_INPUT_SETS = 12  # generated seasons kept on disk, least recently used evicted

WORKLOADS: dict[str, dict[str, int]] = {
    "cohort": dict(n_teams=10, members_per_team=8, n_weeks=30,
                   messages_per_team=5000, mrs_per_team=100),
    "long-season": dict(n_teams=2, members_per_team=8, n_weeks=30,
                        messages_per_team=50000, mrs_per_team=1000),
    "wide-roster": dict(n_teams=2, members_per_team=40, n_weeks=30,
                        messages_per_team=20000, mrs_per_team=300),
}


def _measure(season: Path) -> dict:
    """Input size of a generated season, counted from its files."""
    config = json.loads((season / "config.json").read_text(encoding="utf-8"))
    teams = {}
    for team in config["teams"]:
        chat_root = season / team["chat_export"]
        day_files = sorted(chat_root.glob("*/*.json"))
        messages = sum(len(json.loads(p.read_text(encoding="utf-8"))) for p in day_files)
        repo = json.loads((season / team["repo_activity"]).read_text(encoding="utf-8"))
        teams[team["team_id"]] = {
            "chat_export": team["chat_export"],
            "members": len(team["members"]),
            "day_files": len(day_files),
            "messages_seen": messages,
            "mrs_kept": len(repo["merge_requests"]),
        }
    size = sum(p.stat().st_size for p in season.rglob("*") if p.is_file())
    return {
        "teams": len(teams),
        "members": sum(t["members"] for t in teams.values()),
        "day_files": sum(t["day_files"] for t in teams.values()),
        "bytes": size,
        "messages_seen": sum(t["messages_seen"] for t in teams.values()),
        "mrs_kept": sum(t["mrs_kept"] for t in teams.values()),
        "per_team": teams,
    }


def season_inputs(work: Path, workload: str, seed: int) -> tuple[Path, dict]:
    """Config path and input-size manifest of the season for (workload, seed).

    Seasons are generated once with ``teamnets.synthetic.make_season`` and
    cached under ``work``; a season is complete once its manifest exists.
    """
    from teamnets.synthetic import make_season

    cache = work / "inputs"
    season = cache / f"{workload}-seed{seed}"
    manifest_path = season / "manifest.json"
    if not manifest_path.is_file():
        shutil.rmtree(season, ignore_errors=True)
        partial = cache / f".partial-{workload}-seed{seed}-{os.getpid()}"
        shutil.rmtree(partial, ignore_errors=True)
        make_season(partial, seed=seed, **WORKLOADS[workload])
        (partial / "manifest.json").write_text(
            json.dumps(_measure(partial), indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        partial.rename(season)
    os.utime(manifest_path)
    sets = sorted(cache.glob("*/manifest.json"), key=lambda p: p.stat().st_mtime)
    for old in sets[:-KEEP_INPUT_SETS]:
        shutil.rmtree(old.parent, ignore_errors=True)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return season / "config.json", manifest
