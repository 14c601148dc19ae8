"""Outside-in tracing of teamnets layers.

The tracer replaces a layer function at the attribute its caller looks it up
by (``teamnets.report.parse_chat_export``, ``SprintCalendar.assign_week`` on
the class, ...) with a wrapper that records a span: name, start, end, parent
and the team being processed. Self time is a span's duration minus the time
its child spans cover. Spans stay in memory; the caller writes them out.

A lookup that no longer exists (a later refactor removed or renamed the
function) is listed in ``Tracer.missing`` and traced as absent; nothing
crashes. Work done outside every wrapped function stays visible as the self
time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    team: str | None
    start: float
    end: float
    self_s: float


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


# Hooks run after the wrapped call returns; their time is excluded from every
# span's self time, so counting never inflates a layer.

def _on_chat(tracer, args, kwargs, result):
    root = str(Path(_arg(args, kwargs, 0, "export_root")).resolve())
    files, seen = tracer.chat_sizes.get(root, (0, 0))
    tracer.counts["ingestion.chat_files"] += files
    tracer.counts["ingestion.messages_seen"] += seen
    tracer.counts["ingestion.messages_kept"] += len(result.messages)


def _on_repo(tracer, args, kwargs, result):
    tracer.counts["ingestion.mrs_kept"] += len(result.merge_requests)


def _on_events(tracer, args, kwargs, result):
    tracer.counts["network.events"] += len(result)
    tracer.week_events[tracer.team] = (len(result), Counter(e.week_id for e in result))


def _in_window(tracer, events, week_ids) -> tuple[int, int]:
    """(events scanned, events inside the window) for one window scan."""
    known = tracer.week_events.get(tracer.team)
    if known is not None and known[0] == len(events):
        return known[0], sum(known[1][w] for w in week_ids)
    return len(events), sum(1 for e in events if e.week_id in week_ids)


def _on_build(tracer, args, kwargs, result):
    window = _arg(args, kwargs, 2, "window")
    scanned, hit = _in_window(tracer, _arg(args, kwargs, 0, "events"), window.week_ids)
    tracer.counts["network.build_scanned"] += scanned
    tracer.counts["network.build_in_window"] += hit


def _on_coord(tracer, args, kwargs, result):
    week_id = _arg(args, kwargs, 2, "week_id")
    scanned, hit = _in_window(tracer, _arg(args, kwargs, 0, "events"), (week_id,))
    tracer.counts["network.coord_scanned"] += scanned
    tracer.counts["network.coord_in_window"] += hit


def _on_week_mrs(tracer, args, kwargs, result):
    tracer.counts["stc.mrs_scanned"] += len(_arg(args, kwargs, 0, "repo").merge_requests)
    tracer.counts["stc.mrs_picked"] += len(result)


def _on_weekly(tracer, args, kwargs, result):
    tracer.counts["stc.weeks_undefined"] += sum(1 for v in result.values() if v is None)


def _census_hook(reference: str):
    """Count triples and keep (network, census, algorithm to check it against)."""

    def hook(tracer, args, kwargs, result):
        net = _arg(args, kwargs, 0, "net")
        tracer.counts["triad.triples"] += comb(len(net.roster), 3)
        tracer.censuses.append((net, result, reference))

    return hook


_on_enumerated = _census_hook("census_closed_form")
_on_closed_form = _census_hook("triad_census")


# (module, attribute path at the caller's lookup, span name, hook, flags)
# flags: "start" opens a team (its roster is the second argument), "team"
# clears the current team (season-level work starts), "leaf" aggregates calls
# without keeping a span each (hot functions).
WRAPS: tuple[tuple[str, str, str, Callable | None, str], ...] = (
    ("teamnets.cli", "main", "cli.main", None, ""),
    ("teamnets.cli", "load_config", "config.load_config", None, ""),
    ("teamnets.cli", "run_pipeline", "report.run_pipeline", None, ""),
    ("teamnets.cli", "emit", "report.emit", None, "team"),
    ("teamnets.cli", "parse_chat_export", "ingestion.parse_chat_export", _on_chat, "start"),
    ("teamnets.cli", "parse_repo_activity", "ingestion.parse_repo_activity", _on_repo, ""),
    ("teamnets.cli", "parse_outcomes", "ingestion.parse_outcomes", None, "team"),
    ("teamnets.cli", "parse_feedback", "ingestion.parse_feedback", None, "team"),
    ("teamnets.cli", "parse_work_logs", "ingestion.parse_work_logs", None, "team"),
    ("teamnets.cli", "derive_comm_events", "network.derive_comm_events", _on_events, ""),
    ("teamnets.cli", "build_network", "network.build_network", _on_build, ""),
    ("teamnets.cli", "write_edge_list", "network.write_edge_list", None, ""),
    ("teamnets.cli", "weekly_team_scores", "stc.weekly_team_scores", _on_weekly, ""),
    ("teamnets.cli", "write_weekly_scores", "stc.write_weekly_scores", None, "team"),
    ("teamnets.cli", "triad_census", "triad.census", _on_enumerated, ""),
    ("teamnets.cli", "relative_census", "triad.relative_census", None, ""),
    ("teamnets.report", "parse_chat_export", "ingestion.parse_chat_export", _on_chat, "start"),
    ("teamnets.report", "parse_repo_activity", "ingestion.parse_repo_activity", _on_repo, ""),
    ("teamnets.report", "parse_outcomes", "ingestion.parse_outcomes", None, "team"),
    ("teamnets.report", "parse_feedback", "ingestion.parse_feedback", None, "team"),
    ("teamnets.report", "parse_work_logs", "ingestion.parse_work_logs", None, "team"),
    ("teamnets.report", "derive_comm_events", "network.derive_comm_events", _on_events, ""),
    ("teamnets.report", "build_network", "network.build_network", _on_build, ""),
    ("teamnets.report", "weekly_team_scores", "stc.weekly_team_scores", _on_weekly, ""),
    ("teamnets.report", "year_summary", "stc.year_summary", None, "team"),
    ("teamnets.report", "triad_census", "triad.census", _on_enumerated, ""),
    ("teamnets.report", "census_closed_form", "triad.census", _on_closed_form, ""),
    ("teamnets.report", "relative_census", "triad.relative_census", None, ""),
    ("teamnets.report", "mean_weekly_relative_census", "triad.mean_weekly_relative_census", None, ""),
    ("teamnets.report", "pearson", "stats.pearson", None, "team"),
    ("teamnets.report", "mann_whitney_u", "stats.mann_whitney_u", None, "team"),
    ("teamnets.report", "detect_anomalies", "report.detect_anomalies", None, "team"),
    ("teamnets.report", "report_to_dict", "report.report_to_dict", None, "team"),
    ("teamnets.report", "report_from_dict", "report.report_from_dict", None, ""),
    ("teamnets.report", "load_report", "report.load_report", None, "team"),
    ("teamnets.stc", "week_merge_requests", "stc.week_merge_requests", _on_week_mrs, ""),
    ("teamnets.stc", "assignment_matrix", "stc.assignment_matrix", None, ""),
    ("teamnets.stc", "dependency_matrix", "stc.dependency_matrix", None, ""),
    ("teamnets.stc", "coordination_requirements", "stc.coordination_requirements", None, ""),
    ("teamnets.stc", "stc_scores", "stc.stc_scores", None, ""),
    ("teamnets.stc", "actual_coordination", "network.actual_coordination", _on_coord, ""),
    ("teamnets.stc", "ols", "stats.ols", None, ""),
    ("teamnets.ingestion", "SprintCalendar.assign_week", "ingestion.assign_week", None, "leaf"),
)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self, wraps=WRAPS, clock: Callable[[], float] = time.perf_counter,
                 chat_sizes: dict[str, tuple[int, int]] | None = None):
        self.clock = clock
        self.chat_sizes = chat_sizes or {}  # export root -> (day files, messages)
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.censuses: list = []  # (network, census, reference) seen by the wrappers
        self.week_events: dict = {}
        self.team: str | None = None
        self.missing: list[str] = []
        self.names: set[str] = set()  # span names with at least one lookup found
        self._stack: list[list] = []  # [span_id, start, child_s]
        self._next_id = 0
        self._patches = []
        for module_name, path, name, hook, flags in wraps:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self.names.add(name)
            self._patches.append((owner, attr, fn, self.wrap(fn, name, hook, flags)))

    def reset(self) -> None:
        """Start a new operation: clear totals, counters and seen censuses."""
        self.totals = {}
        self.counts = Counter()
        self.censuses = []
        self.week_events = {}
        self.team = None

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn, _ in self._patches:
                setattr(owner, attr, fn)

    def wrap(self, fn, name: str, hook=None, flags: str = ""):
        tracer = self
        keep_span = "leaf" not in flags
        clears_team = "team" in flags
        starts_team = "start" in flags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if clears_team:
                tracer.team = None
            elif starts_team:
                tracer.team = getattr(_arg(args, kwargs, 1, "roster"), "team_id", None)
            team = tracer.team
            parent = tracer._stack[-1][0] if tracer._stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, tracer.clock(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                duration = end - frame[1]
                self_s = duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                total = tracer.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration
                total[2] += self_s
                if keep_span:
                    tracer.spans.append(
                        Span(span_id, parent, name, team, frame[1], end, self_s)
                    )
            if hook is not None:
                started = tracer.clock()
                hook(tracer, args, kwargs, result)
                if tracer._stack:
                    tracer._stack[-1][2] += tracer.clock() - started
            return result

        return traced

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]


def team_seconds(spans) -> dict[str, float]:
    """Wall time per team: from its first span's start to its last span's end."""
    bounds: dict[str, list[float]] = {}
    for s in spans:
        if s.team is None:
            continue
        b = bounds.setdefault(s.team, [s.start, s.end])
        b[0] = min(b[0], s.start)
        b[1] = max(b[1], s.end)
    return {team: end - start for team, (start, end) in bounds.items()}
