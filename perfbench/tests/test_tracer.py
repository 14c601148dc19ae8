import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, team_seconds  # noqa: E402


class Roster:
    def __init__(self, team_id):
        self.team_id = team_id


@pytest.fixture()
def fake(monkeypatch):
    """A module whose functions advance a fake clock by fixed amounts."""
    now = [0.0]
    mod = types.ModuleType("fake_layers")

    def leaf():
        now[0] += 2.0

    def parse(root, roster):
        now[0] += 1.0
        mod.leaf()

    def outer():
        now[0] += 1.0
        mod.leaf()
        mod.leaf()
        now[0] += 3.0

    def season():
        now[0] += 0.5

    def run(teams):
        for team in teams:
            mod.parse("root", Roster(team))
            now[0] += 1.0
        mod.season()

    mod.leaf, mod.parse, mod.outer, mod.season, mod.run = leaf, parse, outer, season, run
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod, now


def make_tracer(now, extra=(), hook=None):
    wraps = (
        ("fake_layers", "outer", "outer", hook, ""),
        ("fake_layers", "leaf", "leaf", None, ""),
        ("fake_layers", "parse", "parse", None, "start"),
        ("fake_layers", "season", "season", None, "team"),
        ("fake_layers", "run", "run", None, ""),
    ) + tuple(extra)
    return Tracer(wraps=wraps, clock=lambda: now[0])


def test_self_time_is_duration_minus_children(fake):
    mod, now = fake
    tracer = make_tracer(now)
    with tracer.installed():
        mod.outer()
    assert tracer.totals["outer"] == [1, 8.0, 4.0]
    assert tracer.totals["leaf"] == [2, 4.0, 4.0]
    outer = next(s for s in tracer.spans if s.name == "outer")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert [s.parent for s in leaves] == [outer.span_id, outer.span_id]
    assert outer.parent is None
    assert outer.end - outer.start == 8.0 and outer.self_s == 4.0


def test_hook_time_is_excluded_from_every_self_time(fake):
    mod, now = fake

    def slow_hook(tracer, args, kwargs, result):
        now[0] += 5.0

    tracer = make_tracer(now, extra=(("fake_layers", "season", "season2", None, ""),),
                         hook=slow_hook)
    wrapped_outer = tracer.wrap(lambda: mod.outer(), "caller")
    with tracer.installed():
        wrapped_outer()
    # the hook ran inside "caller", after "outer" returned
    assert tracer.totals["caller"] == [1, 13.0, 0.0]
    assert tracer.self_s("outer", "leaf") == 8.0


def test_wrappers_are_removed_after_the_block(fake):
    mod, now = fake
    original = mod.outer
    tracer = make_tracer(now)
    with tracer.installed():
        assert mod.outer is not original
    assert mod.outer is original
    mod.outer()
    assert tracer.totals == {}


def test_missing_function_is_reported_not_fatal(fake):
    mod, now = fake
    tracer = make_tracer(now, extra=(("fake_layers", "gone", "gone", None, ""),
                                     ("fake_layers", "Nope.method", "nope", None, "")))
    assert tracer.missing == ["fake_layers.gone", "fake_layers.Nope.method"]
    assert "gone" not in tracer.names and "outer" in tracer.names
    with tracer.installed():
        mod.outer()
    assert tracer.self_s("gone") == 0.0 and tracer.calls("gone") == 0


def test_leaf_flag_counts_calls_without_spans(fake):
    mod, now = fake
    wraps = (("fake_layers", "leaf", "leaf", None, "leaf"),
             ("fake_layers", "outer", "outer", None, ""))
    tracer = Tracer(wraps=wraps, clock=lambda: now[0])
    with tracer.installed():
        mod.outer()
    assert tracer.calls("leaf") == 2 and tracer.self_s("leaf") == 4.0
    assert [s.name for s in tracer.spans] == ["outer"]
    assert tracer.totals["outer"][2] == 4.0


def test_class_method_wrapped_on_the_class(monkeypatch):
    now = [0.0]
    mod = types.ModuleType("fake_cls")

    class Calendar:
        def week(self, x):
            now[0] += 1.0
            return x + 1

    mod.Calendar = Calendar
    monkeypatch.setitem(sys.modules, "fake_cls", mod)
    tracer = Tracer(wraps=(("fake_cls", "Calendar.week", "week", None, "leaf"),),
                    clock=lambda: now[0])
    with tracer.installed():
        assert Calendar().week(1) == 2
    assert tracer.totals["week"] == [1, 1.0, 1.0]


def test_spans_share_their_team_and_team_time_falls_out(fake):
    mod, now = fake
    tracer = make_tracer(now)
    with tracer.installed():
        mod.run(["A", "B"])
    by_name = {(s.name, s.team) for s in tracer.spans}
    assert ("parse", "A") in by_name and ("leaf", "B") in by_name
    assert ("season", None) in by_name and ("run", None) in by_name
    # each team: parse (1 + leaf 2), the glue after it is outside every span
    assert team_seconds(tracer.spans) == {"A": 3.0, "B": 3.0}
    assert tracer.totals["run"] == [1, 8.5, 2.0]
