from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamnets import ingestion
from teamnets.errors import InputError, ValidationError
from teamnets.ingestion import (
    Diagnostics,
    Roster,
    Sprint,
    SprintCalendar,
    Week,
    load_json,
    parse_chat_edges,
    parse_feedback,
    parse_outcomes,
    parse_repo_weeks,
    parse_work_logs,
)

from oracles import (
    assign_week_oracle,
    chat_edges_oracle,
    feedback_oracle,
    outcomes_oracle,
    parse_chat_export_oracle,
    repo_weeks_oracle,
)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def simple_calendar():
    weeks = tuple(
        Week(week_id=i, start=utc(2023, 3, 6 + 7 * (i - 1)), end=utc(2023, 3, 13 + 7 * (i - 1)))
        for i in (1, 2)
    )
    return SprintCalendar(
        weeks=weeks, sprints=(Sprint(1, (1,)), Sprint(2, (2,))), excluded_sprints=frozenset({1})
    )


class TestCalendar:
    def test_assign_week_start_inclusive(self):
        cal = simple_calendar()
        assert cal.assign_week(utc(2023, 3, 6)) == 1

    def test_assign_week_end_exclusive(self):
        cal = simple_calendar()
        assert cal.assign_week(utc(2023, 3, 13)) == 2  # contiguous weeks
        assert cal.assign_week(utc(2023, 3, 20)) is None

    def test_gap_returns_none(self, team7_config):
        # the fixture calendar has a two-week break after week 3
        assert team7_config.calendar.assign_week(utc(2023, 4, 1)) is None

    def test_overlapping_weeks_rejected(self):
        weeks = (
            Week(1, utc(2023, 3, 6), utc(2023, 3, 14)),
            Week(2, utc(2023, 3, 13), utc(2023, 3, 20)),
        )
        with pytest.raises(ValidationError):
            SprintCalendar(weeks=weeks, sprints=(Sprint(1, (1, 2)),))

    def test_week_in_two_sprints_rejected(self):
        weeks = (Week(1, utc(2023, 3, 6), utc(2023, 3, 13)),)
        with pytest.raises(ValidationError):
            SprintCalendar(weeks=weeks, sprints=(Sprint(1, (1,)), Sprint(2, (1,))))

    def test_empty_sprint_rejected(self):
        weeks = (Week(1, utc(2023, 3, 6), utc(2023, 3, 13)),)
        with pytest.raises(ValidationError):
            SprintCalendar(weeks=weeks, sprints=(Sprint(1, ()),))

    def test_weeks_of_unknown_sprint_rejected(self):
        with pytest.raises(ValidationError) as err:
            simple_calendar().sprint_weeks(99)
        assert str(err.value) == "unknown sprint 99"

    def test_unknown_excluded_sprint_rejected(self):
        weeks = (Week(1, utc(2023, 3, 6), utc(2023, 3, 13)),)
        with pytest.raises(ValidationError):
            SprintCalendar(
                weeks=weeks, sprints=(Sprint(1, (1,)),), excluded_sprints=frozenset({9})
            )


@st.composite
def calendars_and_times(draw):
    """A calendar of weeks of varied length with optional gaps, and times
    on and next to every boundary plus random times around the season."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(1, 99), min_size=n, max_size=n, unique=True))
    weeks, start = [], datetime(2024, 1, 1, tzinfo=timezone.utc)
    for week_id in ids:
        start += timedelta(hours=draw(st.sampled_from([0, 0, 1, 24 * 14])))  # a gap
        end = start + timedelta(hours=draw(st.integers(1, 24 * 7)))
        weeks.append(Week(week_id, start, end))
        start = end
    cal = SprintCalendar(weeks=tuple(weeks), sprints=(Sprint(1, tuple(ids)),))
    tick = timedelta(microseconds=1)
    times = [t + d for w in weeks for t in (w.start, w.end) for d in (-tick, 0 * tick, tick)]
    around = timedelta(weeks=2)
    times += draw(
        st.lists(
            st.datetimes(
                min_value=(weeks[0].start - around).replace(tzinfo=None),
                max_value=(weeks[-1].end + around).replace(tzinfo=None),
                timezones=st.just(timezone.utc),
            ),
            max_size=20,
        )
    )
    return cal, times


@settings(max_examples=200, deadline=None)
@given(calendars_and_times())
def test_assign_week_equals_scan(season):
    cal, times = season
    for ts in times:
        assert cal.assign_week(ts) == assign_week_oracle(cal, ts)


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# Bounds at the edges of the float -> datetime mapping: the first and last
# instants a datetime holds, the epoch and the instants around it (negative
# epochs), and instants beyond 2**34 s, where a float is coarser than 1 us.
EDGE_BOUNDS = (
    datetime.min.replace(tzinfo=timezone.utc),
    datetime.min.replace(tzinfo=timezone.utc) + timedelta(microseconds=1),
    EPOCH - timedelta(seconds=1, microseconds=1),
    EPOCH - timedelta(microseconds=1),
    EPOCH,
    EPOCH + timedelta(microseconds=1),
    EPOCH + timedelta(seconds=2**34, microseconds=1),
    datetime(9999, 12, 31, tzinfo=timezone.utc),
    datetime.max.replace(tzinfo=timezone.utc),
)


@st.composite
def calendars_and_timestamps(draw):
    """A calendar whose bounds are drawn from the whole datetime range and
    from EDGE_BOUNDS, with optional gaps, and floats on, next to and half a
    microsecond either side of every bound, plus random floats."""
    bounds = sorted(
        draw(
            st.lists(
                st.one_of(
                    st.sampled_from(EDGE_BOUNDS),
                    st.datetimes(timezones=st.just(timezone.utc)),
                ),
                min_size=2,
                max_size=10,
                unique=True,
            )
        )
    )
    weeks, i = [], 0
    while i + 1 < len(bounds):
        weeks.append(Week(len(weeks) + 1, bounds[i], bounds[i + 1]))
        i += draw(st.sampled_from([1, 2]))  # the next week is contiguous, or after a gap
    cal = SprintCalendar(
        weeks=tuple(weeks), sprints=(Sprint(1, tuple(w.week_id for w in weeks)),)
    )
    times = []
    for bound in bounds:
        t = bound.timestamp()
        for x in (t - 5e-7, t, t + 5e-7):
            times += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    times += draw(st.lists(st.floats(allow_nan=False), max_size=10))
    return cal, times


@settings(max_examples=200, deadline=None)
@given(calendars_and_timestamps())
def test_week_thresholds_are_exact(season):
    """The thresholds the chat parser compares a ts with are exact: every
    float that datetime.fromtimestamp accepts reaches a week's start or end
    threshold exactly when its datetime reaches that bound, so it lands in
    the week of its datetime."""
    cal, times = season
    starts, ends = cal.thresholds
    for x in times:
        try:
            at = datetime.fromtimestamp(x, timezone.utc)
        except (OverflowError, ValueError, OSError):
            continue  # an invalid chat ts, rejected before any week lookup
        for week, start, end in zip(cal.weeks, starts, ends):
            assert (x >= start) == (at >= week.start), (x, week)
            assert (x >= end) == (at >= week.end), (x, week)


class TestRoster:
    def test_identity_targets_must_be_members(self):
        with pytest.raises(ValidationError):
            Roster(team_id="T", members=frozenset({"a"}), identity_map={"H1": "zz"})

    def test_empty_roster_rejected(self):
        with pytest.raises(ValidationError):
            Roster(team_id="T", members=frozenset(), identity_map={})


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


MISSING = "value not found"  # load_json's text for a path with nothing there


class TestLoadJson:
    """load_json reads through a raw descriptor; ``-X dev`` warns of no raw
    descriptor left open, so the tests count the process's open ones."""

    @pytest.mark.parametrize("size", [0, 65_535, 65_536, 200_000])
    def test_reads_the_whole_file(self, tmp_path, size):
        path = tmp_path / "value.json"
        text = json.dumps("x" * (size - 2)) if size else ""  # size bytes
        path.write_text(text, encoding="utf-8")
        before = open_fds()
        if size:
            assert load_json(path, MISSING, unique_keys=True) == json.loads(text)
            assert load_json(str(path), MISSING, unique_keys=False) == json.loads(text)
        else:
            with pytest.raises(InputError, match="malformed JSON at line 1 column 1"):
                load_json(path, MISSING, unique_keys=True)
        assert open_fds() == before

    @pytest.mark.parametrize(
        "fault", ["missing", "under a file", "directory", "endless device", "loop"]
    )
    def test_each_fault_names_the_file(self, tmp_path, within, fault):
        """Nothing there, or a path under a regular file, is the caller's "not
        found" text. A directory, which os.open accepts and os.read rejects,
        is not a file, and so is /dev/zero linked in place of the file, once
        its first read fills the buffer rather than when memory runs out. Any
        other open error, such as a symbolic link loop, gives its errno text
        with the path."""
        (tmp_path / "file.json").write_text("{}", encoding="utf-8")
        (tmp_path / "dir.json").mkdir()
        (tmp_path / "zero.json").symlink_to("/dev/zero")
        (tmp_path / "loop.json").symlink_to(tmp_path / "loop.json")
        path, text = {
            "missing": (tmp_path / "none.json", "{missing}: {path}"),
            "under a file": (tmp_path / "file.json" / "x.json", "{missing}: {path}"),
            "directory": (tmp_path / "dir.json", "{path}: not a file"),
            "endless device": (tmp_path / "zero.json", "{path}: not a file"),
            "loop": (
                tmp_path / "loop.json",
                "{path}: cannot read: [Errno 40] Too many levels of symbolic links: '{path}'",
            ),
        }[fault]
        before = open_fds()
        for spelling in (path, str(path)):
            with pytest.raises(InputError) as err, within(10):
                load_json(spelling, MISSING, unique_keys=True)
            assert str(err.value) == text.format(missing=MISSING, path=path)
        assert open_fds() == before

    def test_file_over_the_cap_is_too_large(self, tmp_path, monkeypatch, within):
        """A file of MAX_INPUT_BYTES is read whole and one byte more is too
        large. A sparse 2 GiB file is too large at once: the reader takes at
        most one read past the cap, and closes its descriptor."""
        cap = 3 * 65536 + 5
        monkeypatch.setattr(ingestion, "MAX_INPUT_BYTES", cap)
        path = tmp_path / "big.json"
        path.write_bytes(b"[" + b" " * (cap - 2) + b"]")
        assert load_json(path, MISSING, unique_keys=True) == []
        path.write_bytes(b"[" + b" " * (cap - 1) + b"]")
        before = open_fds()
        with pytest.raises(InputError) as err:
            load_json(path, MISSING, unique_keys=True)
        assert str(err.value) == f"{path}: too large: over {cap} bytes"
        os.truncate(path, 2**31)
        sizes = []
        real_read = os.read

        def read(fd, n):
            sizes.append(len(chunk := real_read(fd, n)))
            return chunk

        monkeypatch.setattr(os, "read", read)
        with pytest.raises(InputError) as err, within(10):
            load_json(path, MISSING, unique_keys=False)
        assert str(err.value) == f"{path}: too large: over {cap} bytes"
        assert cap < sum(sizes) <= cap + 65536
        assert open_fds() == before

    @pytest.mark.parametrize("writer", ["none", "silent", "wrote"])
    def test_fifo_is_not_a_file(self, tmp_path, within, writer):
        """A FIFO is not a file, with no writer (the read ends at once), with a
        writer that has written nothing (the read would block) and with one
        that has written part of a value."""
        path = tmp_path / "fifo.json"
        os.mkfifo(path)
        held = None if writer == "none" else os.open(path, os.O_RDWR)
        try:
            if writer == "wrote":
                os.write(held, b'[{"ts": "1"')
            before = open_fds()
            with pytest.raises(InputError) as err, within(10):
                load_json(path, MISSING, unique_keys=False)
            assert str(err.value) == f"{path}: not a file"
            assert open_fds() == before
        finally:
            if held is not None:
                os.close(held)

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"a": 1, "a": 1}', "a"),
            ('[{"b": [], "c": {"d": 0, "e": 1, "d": 2}}]', "d"),
            ('{"f": 1, "g": 2, "g": 3, "f": 4}', "g"),
        ],
    )
    def test_repeated_key(self, tmp_path, text, key):
        path = tmp_path / "value.json"
        path.write_text(text, encoding="utf-8")
        before = open_fds()
        with pytest.raises(InputError) as err:
            load_json(path, MISSING, unique_keys=True)
        assert str(err.value) == f"{path}: key '{key}' given twice in one object"
        assert load_json(path, MISSING, unique_keys=False) == json.loads(text)
        assert open_fds() == before


def write_channel(root: Path, channel: str, day: str, messages: list[dict]) -> None:
    path = root / channel / f"{day}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(messages), encoding="utf-8")


@pytest.fixture()
def two_person_roster():
    return Roster(
        team_id="T",
        members=frozenset({"alice", "bob"}),
        identity_map={"UA": "alice", "UB": "bob"},
    )


def parse(root, roster, excluded=(), diag=None):
    """parse_chat_edges over ``simple_calendar``: week 1 starts 2023-03-06,
    week 2 ends 2023-03-20. Counts go to ``diag``, or to a fresh one."""
    diag = Diagnostics() if diag is None else diag
    return parse_chat_edges(root, roster, simple_calendar(), excluded, diag)


class TestChatParser:
    def test_minimal_thread(self, tmp_path, two_person_roster):
        write_channel(
            tmp_path,
            "general",
            "2023-03-06",
            [
                {"user": "UB", "ts": "1678100000.0001", "thread_ts": "1678100000.0001"},
                {"user": "UA", "ts": "1678100100.0002", "thread_ts": "1678100000.0001"},
            ],
        )
        assert parse(tmp_path, two_person_roster) == ({1: {("alice", "bob")}}, 2, 1)

    def test_non_threaded_message(self, tmp_path, two_person_roster):
        write_channel(
            tmp_path, "general", "2023-03-06", [{"user": "UA", "ts": "1678100000.0001"}]
        )
        assert parse(tmp_path, two_person_roster) == ({}, 1, 0)

    def test_fixture_counts(self, team7_config, team7_dir):
        manifest = json.loads((team7_dir / "manifest.json").read_text())
        team = team7_config.teams[0]
        diag = Diagnostics()
        _, kept, _ = parse_chat_edges(
            team.chat_export, team.roster, team7_config.calendar,
            team7_config.excluded_handles, diag,
        )
        assert kept == manifest["messages_kept"] == 120
        log = parse_chat_export_oracle(
            team.chat_export, team.roster, team7_config.excluded_handles
        )
        roots = {m.thread_root for m in log.messages if m.thread_root is not None}
        assert len(roots) == manifest["distinct_thread_roots"] == 14
        assert diag.counts["messages_seen"] == manifest["raw_messages"]
        assert diag.counts["messages_dropped_unknown_handle"] == 2
        assert diag.counts["messages_dropped_excluded_handle"] == 3
        assert diag.counts["messages_dropped_subtype"] == 2

    def test_identity_mapping_total_over_retained(self, team7_config):
        team = team7_config.teams[0]
        weekly, _, replies = parse_chat_edges(
            team.chat_export, team.roster, team7_config.calendar, team7_config.excluded_handles,
            Diagnostics(),
        )
        assert replies
        assert all({a, b} <= team.roster.members for edges in weekly.values() for a, b in edges)

    def test_malformed_file_names_file_and_offset(self, tmp_path, two_person_roster):
        bad = tmp_path / "general" / "2023-03-06.json"
        bad.parent.mkdir(parents=True)
        bad.write_text('[{"user": "UA", "ts": }]', encoding="utf-8")
        with pytest.raises(InputError) as err:
            parse(tmp_path, two_person_roster)
        message = str(err.value)
        assert "2023-03-06.json" in message
        assert "column" in message

    @pytest.mark.parametrize("ts", ["inf", "1e20", "nan", None])
    def test_unrepresentable_ts_names_file_and_entry(self, tmp_path, two_person_roster, ts):
        write_channel(
            tmp_path,
            "general",
            "2023-03-06",
            [{"user": "UA", "ts": "1678100000.0"}, {"user": "UB", "ts": ts}],
        )
        with pytest.raises(InputError) as err:
            parse(tmp_path, two_person_roster)
        assert "2023-03-06.json: entry 1 has invalid ts" in str(err.value)

    @pytest.mark.parametrize(
        "days,where",
        [
            ({"2023-03-06": ["X", "Y", "X"]}, "2023-03-06.json: entry 2"),
            ({"2023-03-06": ["X"], "2023-03-07": ["Y", "X"]}, "2023-03-07.json: entry 1"),
        ],
        ids=["same-file", "two-files"],
    )
    def test_duplicate_ts_names_file_and_ts(self, tmp_path, two_person_roster, days, where):
        stamps = {"X": "1678100000.0001", "Y": "1678100050.0"}
        for day, keys in days.items():
            write_channel(
                tmp_path, "general", day, [{"user": "UA", "ts": stamps[k]} for k in keys]
            )
        with pytest.raises(ValidationError) as err:
            parse(tmp_path, two_person_roster)
        assert f"{where} has duplicate ts '1678100000.0001'" in str(err.value)

    def test_same_ts_in_two_channels_allowed(self, tmp_path, two_person_roster):
        for channel in ("general", "dev"):
            write_channel(tmp_path, channel, "2023-03-06", [{"user": "UA", "ts": "1678100000.0"}])
        assert parse(tmp_path, two_person_roster) == ({}, 2, 0)

    def test_missing_directory(self, two_person_roster, tmp_path):
        with pytest.raises(InputError):
            parse(tmp_path / "nope", two_person_roster)

    def test_reply_before_root_rejected(self, tmp_path, two_person_roster):
        """The error names the earliest reply that predates its root, wherever
        it stands in the files; the counters of the walk are kept."""
        write_channel(
            tmp_path,
            "general",
            "2023-03-06",
            [
                {"user": "UB", "ts": "1678100500.0", "thread_ts": "1678100500.0"},
                {"user": "UA", "ts": "1678100400.0", "thread_ts": "1678100500.0"},
                {"user": "UA", "ts": "1678100000.0", "thread_ts": "1678100500.0"},
                {"user": "UA", "ts": "1678100600.0", "thread_ts": "1678100050.0"},
            ],
        )
        diag = Diagnostics()
        with pytest.raises(ValidationError) as err:
            parse(tmp_path, two_person_roster, (), diag)
        assert str(err.value) == (
            "message general/1678100000.0 predates its thread root general/1678100500.0"
        )
        assert dict(diag.counts) == {"messages_seen": 4, "replies_to_dropped_root": 1}

    def test_reply_in_its_roots_microsecond_is_not_late(self, tmp_path, two_person_roster):
        """Two times are compared as datetimes: a reply whose float ts is
        below its root's but rounds to the same microsecond is a reply."""
        reply_ts, root_ts = "1678100000.0000001", "1678100000.0000002"
        assert float(reply_ts) < float(root_ts)
        write_channel(
            tmp_path,
            "general",
            "2023-03-06",
            [
                {"user": "UB", "ts": root_ts},
                {"user": "UA", "ts": reply_ts, "thread_ts": root_ts},
            ],
        )
        assert parse(tmp_path, two_person_roster) == ({1: {("alice", "bob")}}, 2, 1)

    def test_input_error_in_a_later_channel_counts_no_dropped_root(
        self, tmp_path, two_person_roster
    ):
        """Replies to a dropped root are counted once every channel is read."""
        stray = {"user": "UA", "ts": "1678100100.0", "thread_ts": "1678100000.0"}
        write_channel(tmp_path, "a", "2023-03-06", [stray])
        write_channel(tmp_path, "b", "2023-03-06", [{"user": "UA", "ts": "nan"}])
        diag = Diagnostics()
        with pytest.raises(InputError, match="entry 0 has invalid ts 'nan'"):
            parse(tmp_path, two_person_roster, (), diag)
        assert dict(diag.counts) == {"messages_seen": 2}

    def test_reply_to_dropped_root_becomes_plain(self, tmp_path, two_person_roster):
        write_channel(
            tmp_path,
            "general",
            "2023-03-06",
            [
                {"user": "UBOT", "ts": "1678100000.0", "thread_ts": "1678100000.0"},
                {"user": "UA", "ts": "1678100100.0", "thread_ts": "1678100000.0"},
            ],
        )
        diag = Diagnostics()
        assert parse(tmp_path, two_person_roster, ("UBOT",), diag) == ({}, 1, 0)
        assert diag.counts["replies_to_dropped_root"] == 1

    def test_self_reply_and_replies_outside_the_calendar_make_no_edge(
        self, tmp_path, two_person_roster
    ):
        write_channel(
            tmp_path,
            "general",
            "2023-03-06",
            [
                {"user": "UA", "ts": "1678100000.0"},
                {"user": "UA", "ts": "1678100100.0", "thread_ts": "1678100000.0"},
                {"user": "UB", "ts": "1679400000.0", "thread_ts": "1678100000.0"},  # Mar 21
                {"user": "UB", "ts": "1678700000.0", "thread_ts": "1678100000.0"},  # week 2
            ],
        )
        diag = Diagnostics()
        assert parse(tmp_path, two_person_roster, (), diag) == ({2: {("alice", "bob")}}, 4, 1)
        assert dict(diag.counts) == {
            "messages_seen": 4,
            "messages_kept": 4,
            "events_skipped_self_reply": 1,
            "events_dropped_out_of_calendar": 1,
        }

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig", "latin-1"])
    def test_day_file_not_utf8_is_input_error(self, tmp_path, two_person_roster, encoding):
        day = tmp_path / "general" / "2023-03-06.json"
        day.parent.mkdir()
        day.write_bytes(json.dumps([{"user": "UA", "ts": "1678100000.0", "x": "é"}],
                                   ensure_ascii=False).encode(encoding))
        with pytest.raises(InputError) as err:
            parse(tmp_path, two_person_roster)
        assert str(err.value).startswith(f"{day}: ")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("user", ["UA"]),
            ("user", 7),
            ("subtype", ["bot_message"]),
            ("thread_ts", ["1678100000.0"]),
            ("thread_ts", {"ts": "1678100000.0"}),
            ("thread_ts", True),
            ("ts", True),
            ("ts", False),
        ],
    )
    def test_field_of_wrong_type_names_file_and_entry(
        self, tmp_path, two_person_roster, field, value
    ):
        reply = {"user": "UB", "ts": "1678100100.0", "thread_ts": "1678100000.0", field: value}
        write_channel(
            tmp_path, "general", "2023-03-06", [{"user": "UA", "ts": "1678100000.0"}, reply]
        )
        with pytest.raises(InputError) as err:
            parse(tmp_path, two_person_roster)
        assert f"2023-03-06.json: entry 1 has invalid {field} {value!r}" in str(err.value)

    def test_number_thread_ts_names_its_root(self, tmp_path, two_person_roster):
        thread = [
            {"user": "UA", "ts": "1678100000.5"},
            {"user": "UB", "ts": 1678100100, "thread_ts": 1678100000.5},
        ]
        write_channel(tmp_path, "general", "2023-03-06", thread)
        assert parse(tmp_path, two_person_roster) == ({1: {("alice", "bob")}}, 2, 1)
        # the error text shows the names: a number ts as Python writes it
        late = {"user": "UB", "ts": 1678099999, "thread_ts": 1678100000.5}
        write_channel(tmp_path, "general", "2023-03-06", thread + [late])
        with pytest.raises(ValidationError) as err:
            parse(tmp_path, two_person_roster)
        assert str(err.value) == (
            "message general/1678099999 predates its thread root general/1678100000.5"
        )

    @pytest.mark.parametrize(
        "ts,thread_ts", [(1678100000, "1678100000"), ("1678100000.5", 1678100000.5)]
    )
    def test_thread_ts_naming_itself_is_a_root(self, tmp_path, two_person_roster, ts, thread_ts):
        write_channel(
            tmp_path,
            "general",
            "2023-03-06",
            [
                {"user": "UA", "ts": ts, "thread_ts": thread_ts},
                {"user": "UB", "ts": "1678100100", "thread_ts": thread_ts},
            ],
        )
        diag = Diagnostics()
        assert parse(tmp_path, two_person_roster, (), diag) == ({1: {("alice", "bob")}}, 2, 1)
        assert "events_skipped_self_reply" not in diag.counts  # the root replies to nothing


# Message timestamps as an export writes them: strings and numbers, two
# strings that round to one microsecond, two spellings of one instant, and a
# number that names the same message as a string. The last three take the
# parser's slow path, where a ts is converted to a datetime to be validated
# or compared: a negative ts, one beyond 2**34 s, and one that rounds up onto
# a week end; the bad-ts fault adds a ts that is not valid. STRAY is the ts of no message, so a
# reply to it has a dropped root.
TS_POOL = (
    "1678100000.0000001",
    "1678100000.0000002",
    "1678100000.5",
    "1678100000.50",
    1678100000.5,
    "1678100100",
    1678100100,
    "1678100200.000001",
    "1678100200.0000012",
    "1678099000.25",
    1678100300,
    "1678100400.75",
    "-1.5",
    "17179869200.5",
    "1678100200.0000008",
)
STRAY = "1678100050.0"
CHAT_MAP = {"UA": "alice", "UB": "bob", "UC": "carol"}
# An identity map may also name the excluded handle UBOT or the empty handle;
# their messages are dropped as excluded all the same.
CHAT_ROSTERS = tuple(
    Roster(team_id="T", members=frozenset({"alice", "bob", "carol"}),
           identity_map={**CHAT_MAP, **extra})
    for extra in ({}, {"UBOT": "alice"}, {"": "bob"}, {"UBOT": "carol", "": "alice"})
)
ENTRY_FAULTS = (
    "duplicate-ts", "not-object", "entry-string", "entry-number", "no-ts", "bad-ts",
    "user-list", "user-object", "user-int", "user-bool",
    "subtype-list", "thread-list", "thread-object", "thread-bool",
)
FILE_FAULTS = ("bom", "utf-16", "latin-1", "crlf-truncated", "not-array", "dir")


def _break_entry(draw, entries: list, at: int, fault: str) -> None:
    entry = entries[at]
    if fault == "duplicate-ts":
        entries.append({**entry, "ts": entries[0]["ts"]})
    elif fault == "not-object":
        entries[at] = [entry]
    elif fault == "entry-string":
        entries[at] = "ts"
    elif fault == "entry-number":
        entries[at] = 7
    elif fault == "no-ts":
        del entry["ts"]
    elif fault == "bad-ts":
        entry["ts"] = draw(st.sampled_from(["inf", "nan", "-inf"]))
    elif fault == "user-list":
        entry["user"] = ["UA"]
    elif fault == "user-object":
        entry["user"] = {}
    elif fault == "user-int":
        entry["user"] = 7
    elif fault == "user-bool":
        entry["user"] = True
    elif fault == "subtype-list":
        entry["subtype"] = ["bot_message"]
    else:
        entry["thread_ts"] = {"thread-list": [STRAY], "thread-object": {}}.get(fault, True)


def _day_bytes(payload: list, fault: str | None, crlf: bool) -> bytes | None:
    text = json.dumps(payload, indent=1)
    if crlf or fault == "crlf-truncated":
        text = text.replace("\n", "\r\n")
    if fault == "bom":
        return text.encode("utf-8-sig")
    if fault == "utf-16":
        return text.encode("utf-16")
    if fault == "latin-1":
        return text[:1].encode() + "\u00e9".encode("latin-1") + text[1:].encode()
    if fault == "crlf-truncated":
        return text[:-3].encode()
    if fault == "not-array":
        return json.dumps({"messages": payload}).encode()
    if fault == "dir":
        return None
    return text.encode()


@st.composite
def export_trees(draw):
    """{channel: {file name: bytes, or None for a directory}}: a few channels
    and day files, one message per distinct ts, and at most one fault."""
    late_replies = draw(st.booleans())  # do replies name later roots where they can?
    fault = draw(st.sampled_from((None,) * 12 + ENTRY_FAULTS + FILE_FAULTS))
    channels = draw(
        st.lists(st.sampled_from(["dev", "general", ".ops", "x.json"]),
                 min_size=1, max_size=3, unique=True)
    )
    tree = {}
    for channel in channels:
        stamps = draw(st.lists(st.sampled_from(TS_POOL), max_size=9, unique_by=str))
        days: dict[str, list] = {}
        for ts in stamps:
            entry: dict = {"ts": ts}
            user = draw(st.sampled_from(["UA", "UB", "UC", "UA", "UBOT", "UX", "", None]))
            if user is not None:
                entry["user"] = user
            subtype = draw(st.sampled_from([None] * 5 + ["channel_join", "me_message"]))
            if subtype is not None:
                entry["subtype"] = subtype
            later = [s for s in stamps if float(s) > float(ts)]
            roots = later if late_replies and later else [s for s in stamps if s not in later]
            threads = ["none", "self", "self-text", "root", "root", "stray"]
            thread = draw(st.sampled_from(threads + ["root"] * (4 if late_replies else 0)))
            if thread == "self":
                entry["thread_ts"] = ts
            elif thread == "self-text":
                entry["thread_ts"] = str(ts)
            elif thread == "root":
                entry["thread_ts"] = draw(st.sampled_from(roots))
            elif thread == "stray":
                entry["thread_ts"] = STRAY
            day = draw(st.sampled_from(["2023-03-06.json", "2023-03-07.json", ".x.json"]))
            days.setdefault(day, []).append(entry)
        if fault in ENTRY_FAULTS and days:
            entries = days[draw(st.sampled_from(sorted(days)))]
            _break_entry(draw, entries, draw(st.integers(0, len(entries) - 1)), fault)
            fault = None
        files = {"notes.txt": b"not a day file"}
        broken = draw(st.sampled_from(sorted(days))) if fault in FILE_FAULTS and days else None
        for day, payload in days.items():
            files[day] = _day_bytes(payload, fault if day == broken else None, draw(st.booleans()))
        if broken:
            fault = None
        tree[channel] = files
    return tree


def _at(ts: float) -> datetime:
    return datetime.fromtimestamp(ts, timezone.utc)


# Calendars over TS_POOL: two weeks with a gap, whose bounds fall on pool
# times (a start includes its time, an end excludes it, "1678100200.0000012"
# rounds down onto an end and "1678100200.0000008" rounds up onto it), so
# some times lie before, between and after the weeks; one week holding every
# time from 1678099000.25 to 1678100400.75; one week holding none; two weeks
# that hold the negative ts and the one beyond 2**34 s.
CHAT_CALENDARS = (
    SprintCalendar(
        weeks=(
            Week(1, _at(1678100000.5), _at(1678100200.000001)),
            Week(2, _at(1678100300), _at(1678100400.75)),
        ),
        sprints=(Sprint(1, (1, 2)),),
    ),
    SprintCalendar(weeks=(Week(5, _at(1678099000), _at(1678101000)),), sprints=(Sprint(1, (5,)),)),
    SprintCalendar(weeks=(Week(1, _at(1678200000), _at(1678300000)),), sprints=(Sprint(1, (1,)),)),
    SprintCalendar(
        weeks=(
            Week(1, _at(-2), _at(1678100000.5)),
            Week(2, _at(1678100400.75), _at(17179869300)),
        ),
        sprints=(Sprint(1, (1,)), Sprint(2, (2,))),
    ),
)


def _parse_outcome(parse, root, roster, cal) -> tuple:
    diag = Diagnostics()
    try:
        result = parse(root, roster, cal, ("UBOT",), diag)
    except (InputError, ValidationError) as exc:
        result = (type(exc), str(exc))
    # dict, not Counter: Counter equality ignores zero-count keys
    return result, dict(diag.counts)


@settings(max_examples=300, deadline=None)
@given(
    export_trees(),
    st.sampled_from(CHAT_ROSTERS),
    st.sampled_from(CHAT_CALENDARS),
    st.sampled_from(["path", "str", "slash"]),
)
def test_chat_parser_equals_oracle(tree, roster, cal, spelling):
    """parse_chat_edges equals the message log then reply tuples route: the
    weekly edge sets, kept-message and reply counts and counters, or the
    error type, text and the counters reached by then."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "export"
        root.mkdir()
        (root / "README").write_text("not a channel", encoding="utf-8")
        for channel, files in tree.items():
            for name, data in files.items():
                path = root / channel / name
                if data is None:
                    path.mkdir(parents=True)
                else:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(data)
        given_root = {"path": root, "str": str(root), "slash": f"{root}/"}[spelling]
        assert _parse_outcome(parse_chat_edges, given_root, roster, cal) == _parse_outcome(
            chat_edges_oracle, given_root, roster, cal
        )


class _CountingDatetime(datetime):
    """datetime whose fromtimestamp calls are recorded."""

    calls: list = []

    @classmethod
    def fromtimestamp(cls, *args, **kwargs):
        cls.calls.append(args)
        return datetime.fromtimestamp(*args, **kwargs)


def test_chat_parse_makes_no_datetime_per_message(mini_config, tmp_path, monkeypatch):
    """A message's time stays the float of its ts: once the calendar's week
    thresholds are built, parsing mini converts no ts to a datetime. A ts
    outside the window that needs no check is still converted, which shows
    that the count sees the parser's calls."""
    cal = mini_config.calendar
    cal.thresholds  # builds the thresholds, once per calendar
    monkeypatch.setattr(ingestion, "datetime", _CountingDatetime)
    monkeypatch.setattr(_CountingDatetime, "calls", [])
    for team in mini_config.teams:
        parse_chat_edges(
            team.chat_export, team.roster, cal, mini_config.excluded_handles, Diagnostics()
        )
    assert _CountingDatetime.calls == []
    team = mini_config.teams[0]
    handle = next(iter(team.roster.identity_map))
    write_channel(tmp_path, "general", "1969-12-31", [{"user": handle, "ts": "-1.5"}])
    assert parse_chat_edges(tmp_path, team.roster, cal, (), Diagnostics()) == ({}, 1, 0)
    assert len(_CountingDatetime.calls) == 1


THREAD = [
    {"user": "UB", "ts": "1678100000.0001", "thread_ts": "1678100000.0001"},
    {"user": "UA", "ts": "1678100100.0002", "thread_ts": "1678100000.0001"},
]
WEEK_2_THREAD = [  # a thread of week 2, 2023-03-13 to 2023-03-20
    {"user": "UA", "ts": "1678800000.0001", "thread_ts": "1678800000.0001"},
    {"user": "UB", "ts": "1678800100.0002", "thread_ts": "1678800000.0001"},
]


@pytest.mark.parametrize("day", ["read", "malformed", "directory"])
def test_chat_parse_closes_every_descriptor(tmp_path, two_person_roster, day):
    """The parse opens each channel directory once and its day files in it:
    the process's open descriptors are the same after the parse, when it
    succeeds and when the second channel's day file is malformed or a
    directory."""
    write_channel(tmp_path, "general", "2023-03-06", THREAD)
    write_channel(tmp_path, "random", "2023-03-13", WEEK_2_THREAD)
    bad = tmp_path / "random" / "2023-03-14.json"
    if day == "malformed":
        bad.write_text("[{", encoding="utf-8")
    elif day == "directory":
        bad.mkdir()
    before = open_fds()
    if day == "read":
        assert parse(tmp_path, two_person_roster) == (
            {1: {("alice", "bob")}, 2: {("alice", "bob")}}, 4, 2
        )
    else:
        with pytest.raises(InputError) as err:
            parse(tmp_path, two_person_roster)
        assert str(err.value) == {
            "malformed": f"{bad}: malformed JSON at line 1 column 3 (char 2)",
            "directory": f"{bad}: not a file",
        }[day]
    assert open_fds() == before


@pytest.mark.parametrize(
    "entry",
    ["file", "dangling link", "link to a directory", "no read permission", "no search permission"],
)
def test_channel_entry_outcomes(tmp_path, two_person_roster, entry):
    """Beside a readable channel, a regular file or a dangling link in the
    export root is skipped, and a link to a directory is a channel whose day
    files are named through the link. A channel that cannot be listed, or
    whose day files cannot be opened, is an input error naming it."""
    if entry.startswith("no ") and os.geteuid() == 0:
        pytest.skip("root ignores file modes")
    root = tmp_path / "export"
    write_channel(root, "general", "2023-03-06", THREAD)
    other = root / "other"
    if entry == "file":
        other.write_text("[]", encoding="utf-8")
    elif entry == "dangling link":
        other.symlink_to(tmp_path / "none")
    elif entry == "link to a directory":
        write_channel(tmp_path, "elsewhere", "2023-03-13", WEEK_2_THREAD)
        other.symlink_to(tmp_path / "elsewhere")
    else:
        write_channel(root, "other", "2023-03-13", WEEK_2_THREAD)
        other.chmod(0o300 if entry == "no read permission" else 0o600)
    try:
        if entry.startswith("no "):
            with pytest.raises(InputError) as err:
                parse(root, two_person_roster)
            named = other if entry == "no read permission" else other / "2023-03-13.json"
            assert str(err.value) == f"{named}: cannot read: [Errno 13] Permission denied: '{named}'"
        elif entry == "link to a directory":
            assert parse(root, two_person_roster) == (
                {1: {("alice", "bob")}, 2: {("alice", "bob")}}, 4, 2
            )
            (tmp_path / "elsewhere" / "2023-03-14.json").write_text("[{", encoding="utf-8")
            with pytest.raises(InputError) as err:
                parse(root, two_person_roster)
            assert str(err.value) == (
                f"{other}/2023-03-14.json: malformed JSON at line 1 column 3 (char 2)"
            )
        else:
            assert parse(root, two_person_roster) == ({1: {("alice", "bob")}}, 2, 1)
    finally:
        if entry.startswith("no "):
            other.chmod(0o700)


def write_repo(path: Path, commits: list, merge_requests: list) -> Path:
    path.write_text(json.dumps({"commits": commits, "merge_requests": merge_requests}))
    return path


class TestRepoParser:
    def test_trivial(self, tmp_path, two_person_roster):
        path = write_repo(
            tmp_path / "repo.json",
            [
                {"sha": "c1", "author": "alice", "authored_at": "2023-03-06T10:00:00Z"},
                {"sha": "c2", "author": "bob", "authored_at": "2023-03-06T11:00:00Z"},
            ],
            [
                {
                    "id": "M1",
                    "created_at": "2023-03-07T10:00:00Z",
                    "commits": ["c1", "c2"],
                    "files": ["a.py"],
                }
            ],
        )
        by_week, commits, mrs = parse_repo_weeks(
            path, two_person_roster, simple_calendar(), Diagnostics()
        )
        assert by_week == {1: [(frozenset({"alice", "bob"}), frozenset({"a.py"}))]}
        assert (commits, mrs) == (2, 1)

    def test_integer_id_named_by_digits(self, tmp_path, two_person_roster):
        mr = {"id": 7, "created_at": "2023-03-07T10:00:00Z", "commits": [], "files": []}
        path = write_repo(tmp_path / "repo.json", [], [mr, dict(mr, id="7")])
        with pytest.raises(ValidationError, match="duplicate merge request id 7"):
            parse_repo_weeks(path, two_person_roster, simple_calendar(), Diagnostics())
        write_repo(path, [], [dict(mr, commits=["gone"])])
        with pytest.raises(ValidationError, match="merge request 7 references unknown"):
            parse_repo_weeks(path, two_person_roster, simple_calendar(), Diagnostics())

    def test_not_utf8_is_input_error(self, tmp_path, two_person_roster):
        path = tmp_path / "repo.json"
        path.write_bytes(b"\xff\xfe" + json.dumps({"commits": [], "merge_requests": []}).encode())
        with pytest.raises(InputError) as err:
            parse_repo_weeks(path, two_person_roster, simple_calendar(), Diagnostics())
        assert str(err.value).startswith(f"{path}: not UTF-8: ")

    def test_dangling_sha_names_mr(self, tmp_path, two_person_roster):
        mr = {
            "id": "M7",
            "created_at": "2023-03-07T10:00:00Z",
            "commits": ["missing"],
            "files": ["a.py"],
        }
        path = write_repo(tmp_path / "repo.json", [], [mr])
        with pytest.raises(ValidationError) as err:
            parse_repo_weeks(path, two_person_roster, simple_calendar(), Diagnostics())
        assert "M7" in str(err.value)

    # the last one is ISO-8601 but leaves the datetime range once moved to UTC
    @pytest.mark.parametrize(
        "stamp", [1678100000, None, ["2023-03-06"], "yesterday", "0001-01-01T00:00:00+01:00"]
    )
    @pytest.mark.parametrize("entry", ["commit", "merge request"])
    def test_bad_timestamp_names_file_and_entry(self, tmp_path, two_person_roster, entry, stamp):
        commit = {"sha": "c1", "author": "alice", "authored_at": "2023-03-06T10:00:00Z"}
        mr = {"id": "M1", "created_at": "2023-03-07T10:00:00Z", "commits": [], "files": []}
        if entry == "commit":
            commit["authored_at"] = stamp
        else:
            mr["created_at"] = stamp
        path = write_repo(tmp_path / "repo.json", [commit], [mr])
        with pytest.raises(InputError) as err:
            parse_repo_weeks(path, two_person_roster, simple_calendar(), Diagnostics())
        field = "commits[0].authored_at" if entry == "commit" else "merge_requests[0].created_at"
        assert str(err.value) == (
            f"{path}: {field} must be an ISO-8601 timestamp, got {stamp!r}"
        )

    def test_fixture_totals_match_manifest(self, team7_config, team7_dir):
        manifest = json.loads((team7_dir / "manifest.json").read_text())
        team = team7_config.teams[0]
        diag = Diagnostics()
        by_week, commits, mrs = parse_repo_weeks(
            team.repo_activity, team.roster, team7_config.calendar, diag
        )
        assert commits == manifest["commits_kept"] == 40
        assert mrs == manifest["merge_requests"] == 12
        assert sum(map(len, by_week.values())) == 12  # every MR lies in a week
        assert diag.counts["commits_dropped_unknown_author"] == 1
        assert diag.counts["mr_commit_links_dropped"] == 1
        assert diag.counts["mrs_with_empty_files"] == 1

    def test_empty_files_mr_kept_with_diagnostic(self, team7_config):
        # M05, created in week 2, changed no files
        team = team7_config.teams[0]
        by_week = parse_repo_weeks(
            team.repo_activity, team.roster, team7_config.calendar, Diagnostics()
        )[0]
        assert [authors for authors, files in by_week[2] if not files] == [frozenset({"p3"})]

    def test_empty_files_mr_is_counted_and_noted(self, tmp_path, two_person_roster):
        """Each merge request with no changed files is counted and gets a
        note naming the team, not the file, in file order."""
        commits = [{"sha": "c1", "author": "alice", "authored_at": "2023-03-06T10:00:00Z"}]
        mrs = [
            {"id": mr_id, "created_at": "2023-03-07T10:00:00Z", "commits": ["c1"], "files": files}
            for mr_id, files in (("M2", []), ("M1", ["a.py"]), (7, []))
        ]
        path = write_repo(tmp_path / "repo.json", commits, mrs)
        diag = Diagnostics()
        parse_repo_weeks(path, two_person_roster, simple_calendar(), diag)
        assert diag.counts["mrs_with_empty_files"] == 2
        assert diag.notes == [
            "team T: merge request M2 has no changed files",
            "team T: merge request 7 has no changed files",
        ]

    @pytest.mark.parametrize("listed, dropped", [
        (["c1", "c1"], 0),  # a kept commit listed twice
        (["c1", "cx", "cx"], 1),  # a dropped commit listed twice
        (["cx", "cy", "cx"], 2),
    ])
    def test_sha_listed_twice_counts_once(self, tmp_path, two_person_roster, listed, dropped):
        commits = [
            {"sha": sha, "author": author, "authored_at": "2023-03-06T10:00:00Z"}
            for sha, author in (("c1", "alice"), ("cx", "UX"), ("cy", "UY"))
        ]
        mr = {"id": "M1", "created_at": "2023-03-07T10:00:00Z", "commits": listed,
              "files": ["a.py"]}
        path = write_repo(tmp_path / "repo.json", commits, [mr])
        diag = Diagnostics()
        by_week = parse_repo_weeks(path, two_person_roster, simple_calendar(), diag)[0]
        assert diag.counts["mr_commit_links_dropped"] == dropped
        authors = frozenset({"alice"}) if "c1" in listed else frozenset()
        assert by_week == {1: [(authors, frozenset({"a.py"}))]}
        assert repo_weeks_oracle(path, two_person_roster, simple_calendar())[0] == by_week

    def test_mr_outside_every_week_is_counted_but_in_no_week(self, tmp_path, two_person_roster):
        commit = {"sha": "c1", "author": "UA", "authored_at": "2023-01-02T10:00:00Z"}
        mrs = [
            {"id": i, "created_at": created, "commits": ["c1"], "files": ["a.py"]}
            for i, created in enumerate(("2023-03-01T00:00:00Z", "2023-03-13T00:00:00Z"))
        ]
        path = write_repo(tmp_path / "repo.json", [commit], mrs)
        by_week, commits, n_mrs = parse_repo_weeks(
            path, two_person_roster, simple_calendar(), Diagnostics()
        )
        # the commit predates the calendar but still assigns alice to M1
        assert by_week == {2: [(frozenset({"alice"}), frozenset({"a.py"}))]}
        assert (commits, n_mrs) == (1, 2)


REPO_HANDLES = ("UA", "UB", "alice", "UX", "carol")  # UX is off the roster
REPO_FAULTS = (
    "not-object", "not-array", "bad-json", "not-utf8",
    "commit-not-object", "commit-no-sha", "commit-int-sha", "commit-bad-author",
    "commit-bad-time", "mr-not-object", "mr-no-files", "mr-bool-id", "mr-list-id",
    "mr-files-string", "mr-int-file", "mr-bad-time",
)
REPO_CALENDAR = SprintCalendar(
    weeks=(
        Week(1, utc(2023, 3, 6), utc(2023, 3, 13)),
        Week(2, utc(2023, 3, 20), utc(2023, 3, 27)),  # a break week before it
    ),
    sprints=(Sprint(1, (1, 2)),),
)


@st.composite
def repo_files(draw):
    """The bytes of a repo-activity file: commits from roster and unknown
    authors (some shas repeated), merge requests created before, inside,
    between and after the calendar's weeks (some ids repeated, some shas
    listed twice or dangling, some file lists empty), and at most one fault."""
    sha = st.sampled_from(["c1", "c2", "c3", "c4", "c5", "c6"])
    hours = st.integers(-48, 24 * 24)
    commits = [
        {"sha": draw(sha), "author": draw(st.sampled_from(REPO_HANDLES)),
         "authored_at": (utc(2023, 3, 6) + timedelta(hours=draw(hours))).isoformat()}
        for _ in range(draw(st.integers(0, 6)))
    ]
    if draw(st.integers(0, 3)):  # mostly distinct shas, so most parses get through
        commits = list({c["sha"]: c for c in commits}.values())
    listed = [c["sha"] for c in commits] * 8 + ["gone"]
    merge_requests = [
        {"id": draw(st.sampled_from(["M1", "M2", "M3", "M4", 1, 2])),
         "created_at": (utc(2023, 3, 6) + timedelta(hours=draw(hours))).strftime(
             draw(st.sampled_from(["%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S"]))),
         "commits": draw(st.lists(st.sampled_from(listed), max_size=4 if commits else 0)),
         "files": draw(st.lists(st.sampled_from(["a.py", "b.py", "c.py"]), max_size=3))}
        for _ in range(draw(st.integers(0, 6)))
    ]
    if draw(st.integers(0, 3)):
        merge_requests = list({str(m["id"]): m for m in merge_requests}.values())
    payload: object = {"commits": commits, "merge_requests": merge_requests}
    fault = draw(st.sampled_from((None,) * 10 + REPO_FAULTS))
    entries = commits if fault and fault.startswith("commit-") else merge_requests
    if fault and fault.startswith(("commit-", "mr-")):
        if not entries:
            fault = None
        else:
            at = draw(st.integers(0, len(entries) - 1))
            entry = entries[at]
            if fault.endswith("not-object"):
                entries[at] = [entry]
            elif fault == "commit-no-sha":
                del entry["sha"]
            elif fault == "commit-int-sha":
                entry["sha"] = 1
            elif fault == "commit-bad-author":
                entry["author"] = draw(st.sampled_from([7, None]))
            elif fault == "commit-bad-time":
                entry["authored_at"] = draw(st.sampled_from([None, 5, "yesterday"]))
            elif fault == "mr-no-files":
                del entry["files"]
            elif fault == "mr-bool-id":
                entry["id"] = True
            elif fault == "mr-list-id":
                entry["id"] = ["M1"]
            elif fault == "mr-files-string":
                entry["files"] = "a.py"
            elif fault == "mr-int-file":
                entry["files"] = entry["files"] + [3]
            else:
                entry["created_at"] = "2023-13-01"
    elif fault == "not-object":
        payload = [payload]
    elif fault == "not-array":
        payload["merge_requests"] = {}
    text = json.dumps(payload, indent=1).encode()
    if fault == "bad-json":
        return text[:-2]
    if fault == "not-utf8":
        return b"\xff" + text
    return text


def _repo_outcome(parse, path, roster) -> tuple:
    diag = Diagnostics()
    try:
        by_week, commits, mrs = parse(path, roster, REPO_CALENDAR, diag)
        # a week's merge requests as a multiset: the oracle sorts them by time
        result = ({w: Counter(pairs) for w, pairs in by_week.items()}, commits, mrs)
    except (InputError, ValidationError) as exc:
        result = (type(exc), str(exc))
    # dict, not Counter: Counter equality ignores zero-count keys
    return result, dict(diag.counts), diag.notes


@settings(max_examples=300, deadline=None)
@given(repo_files())
def test_repo_parser_equals_oracle(data):
    """parse_repo_weeks equals the record route: the week groups, commit and
    merge-request counts, counters and notes, or the error type, text and the
    counters and notes reached by then."""
    roster = Roster(
        team_id="T",
        members=frozenset({"alice", "bob", "carol"}),
        identity_map={"UA": "alice", "UB": "bob"},
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "repo.json"
        path.write_bytes(data)
        assert _repo_outcome(parse_repo_weeks, path, roster) == _repo_outcome(
            repo_weeks_oracle, path, roster
        )


# Feedback raters A and C are on team X, B and D on team Y, and Q is on no roster.
TABLE_ROSTERS = (
    Roster(team_id="X", members=frozenset({"A", "C"}), identity_map={}),
    Roster(team_id="Y", members=frozenset({"B", "D"}), identity_map={}),
)
TABLE_TEAMS = tuple(roster.team_id for roster in TABLE_ROSTERS)


def _work_logs(path):
    return parse_work_logs(path, TABLE_TEAMS, Diagnostics())


class TestTables:
    def test_feedback_roundtrip_row(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text(
            "sprint_id,rater,ratee,communication_rating\n2,A,C,4\n", encoding="utf-8"
        )
        # the rating counts for its rater's team
        feedback = parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics())
        assert feedback == {"X": {2: 4.0}}

    def test_rater_on_no_roster_is_noted(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text(
            "sprint_id,rater,ratee,communication_rating\n2,A,C,4\n2,Q,A,2\n1,Q,B,5\n2,R,A,1\n",
            encoding="utf-8",
        )
        diag = Diagnostics()
        # the rows count as kept, for no team; an excluded sprint's row is named too
        assert parse_feedback(path, simple_calendar(), TABLE_ROSTERS, diag) == {"X": {2: 4.0}}
        assert diag.counts["feedback_rows_kept"] == 3
        assert diag.notes == [
            "rater Q: 2 feedback row(s) of a rater on no roster; ignored",
            "rater R: 1 feedback row(s) of a rater on no roster; ignored",
        ]

    @pytest.mark.parametrize("ratee,team", [("B", "X"), ("Q", "X"), ("A", "Y")])
    def test_ratee_off_the_raters_roster_names_line(self, tmp_path, ratee, team):
        rater = "B" if team == "Y" else "A"
        path = tmp_path / "fb.csv"
        path.write_text(
            f"sprint_id,rater,ratee,communication_rating\n2,A,C,4\n1,{rater},{ratee},4\n",
            encoding="utf-8",
        )
        # an excluded sprint's row is checked too
        with pytest.raises(ValidationError) as err:
            parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics())
        assert str(err.value) == f"{path}:line 3: ratee {ratee} is not on team {team}"

    def test_rating_out_of_bounds_names_row(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text(
            "sprint_id,rater,ratee,communication_rating\n2,A,C,4\n2,C,A,6\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError) as err:
            parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics())
        assert "line 3" in str(err.value)

    def test_self_rating_rejected(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text(
            "sprint_id,rater,ratee,communication_rating\n2,A,A,4\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError):
            parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics())

    def test_excluded_sprints_filtered(self, team7_config, team7_dir):
        diag = Diagnostics()
        rosters = [t.roster for t in team7_config.teams]
        series = parse_feedback(team7_dir / "feedback.csv", team7_config.calendar, rosters, diag)
        assert series == {"X": {2: 4.0, 3: 4.0}}
        assert diag.counts["feedback_rows_kept"] == 4
        assert diag.counts["feedback_rows_excluded_sprint"] == 1

    def test_outcomes_fixture(self, team7_config, team7_dir):
        diag = Diagnostics()
        by_team, year_level = parse_outcomes(
            team7_dir / "outcomes.csv", team7_config.calendar, team7_config.team_ids(), diag
        )
        assert by_team == {"X": {2: (20.0, 15.0, 80.0), 3: (22.0, 20.0, 85.0)}}  # 1 excluded
        assert year_level == {"X": (25, 100.0)}
        assert diag.counts["outcome_rows_kept"] == 2
        assert diag.counts["outcome_rows_excluded_sprint"] == 1

    def test_outcomes_passed_exceeds_committed(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(
            "team_id,sprint_id,story_points_committed,story_points_passed,team_score\n"
            "X,2,10,11,70\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as err:
            parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics())
        assert "line 2" in str(err.value)

    def test_outcomes_table3_team_g(self, team7_config, team7_dir):
        year_level = parse_outcomes(
            team7_dir / "outcomes_table3.csv", team7_config.calendar, team7_config.team_ids(),
            Diagnostics(),
        )[1]
        assert year_level["G"] == (23, 434)

    def test_outcomes_inconsistent_year_level(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(
            "team_id,sprint_id,story_points_committed,story_points_passed,team_score,"
            "stories_passed_total,pair_programming_hours\n"
            "X,1,10,5,70,20,100\nX,2,10,5,70,21,100\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics())

    @pytest.mark.parametrize("sprint", [1, 2])  # sprint 1 is excluded
    def test_outcomes_second_row_for_team_sprint_names_line(self, tmp_path, sprint):
        path = tmp_path / "o.csv"
        path.write_text(
            "team_id,sprint_id,story_points_committed,story_points_passed,team_score\n"
            f"X,{sprint},10,5,70\nY,{sprint},10,5,70\nX,{sprint},10,6,50\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as err:
            parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics())
        assert str(err.value) == (
            f"{path}:line 4: second row for team X sprint {sprint} (first at line 2)"
        )

    @pytest.mark.parametrize(
        "stories,hours,text",
        [
            pytest.param("twenty", "100", "non-numeric outcome value", id="twenty-100"),
            pytest.param("20.5", "100", "non-numeric outcome value", id="20.5-100"),
            pytest.param("20", "lots", "non-numeric outcome value", id="20-lots"),
            # the U test and the anomaly ranks compare these totals as floats
            pytest.param("-30", "100", "negative stories passed total", id="-30-100"),
            pytest.param("9" * 401, "100", "stories passed total too large", id="huge-100"),
        ],
    )
    def test_outcomes_bad_year_level_names_line(self, tmp_path, stories, hours, text):
        path = tmp_path / "o.csv"
        path.write_text(
            "team_id,sprint_id,story_points_committed,story_points_passed,team_score,"
            "stories_passed_total,pair_programming_hours\n"
            "X,1,10,5,70,20,100\n"
            f"X,2,10,5,70,{stories},{hours}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as err:
            parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics())
        assert str(err.value) == f"{path}:line 3: {text}"

    # A row is named by the file line it ends on: a blank line is skipped but
    # counted, and a quoted field may span lines.
    @pytest.mark.parametrize(
        "table,parse,line",
        [
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score\nX,1",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
                2,
            ),
            (
                "sprint_id,rater,ratee,communication_rating\n1,A",
                lambda path: parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics()),
                2,
            ),
            ("team_id,person_id,hours\nX,p1", _work_logs, 2),
            (
                "sprint_id,rater,ratee,communication_rating\n2,A,C,4\n\n1,A",
                lambda path: parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics()),
                4,
            ),
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score\n"
                '"X\nY",2,10,5,70\nX,1',
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
                4,
            ),
        ],
        ids=["outcomes", "feedback", "work_logs", "feedback-blank-line", "outcomes-quoted-newline"],
    )
    def test_short_table_row_names_line(self, tmp_path, table, parse, line):
        path = tmp_path / "t.csv"
        path.write_text(table + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            parse(path)
        assert f"{path}:line {line}:" in str(err.value)

    # A short row would read its missing cells as None, a long row would lose
    # its extra cells; a repeated column would keep its last cell only.
    @pytest.mark.parametrize(
        "header,row,parse",
        [
            (
                "sprint_id,story_points_committed,story_points_passed,team_score,team_id",
                "2,10,5,70",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
            ),
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score",
                "X,2,10,5,70,9",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
            ),
            (
                "communication_rating,sprint_id,ratee,rater",
                "4,2,C",
                lambda path: parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics()),
            ),
            (
                "sprint_id,rater,ratee,communication_rating",
                "2,A,C,4,9",
                lambda path: parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics()),
            ),
            ("hours,team_id", "3", _work_logs),
            ("team_id,hours", "X,3,9", _work_logs),
        ],
        ids=[
            "outcomes-text-cell-missing",
            "outcomes-extra-cell",
            "feedback-text-cell-missing",
            "feedback-extra-cell",
            "work_logs-text-cell-missing",
            "work_logs-extra-cell",
        ],
    )
    def test_row_of_another_cell_count_names_line(self, tmp_path, header, row, parse):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            parse(path)
        cells, columns = row.count(",") + 1, header.count(",") + 1
        assert str(err.value) == f"{path}:line 2: {cells} cells, the header has {columns}"

    @pytest.mark.parametrize(
        "table,parse,column",
        [
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score,"
                "team_score\nX,2,10,5,70,80",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
                "team_score",
            ),
            (
                "sprint_id,rater,ratee,rater,communication_rating\n2,A,C,Q,4",
                lambda path: parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics()),
                "rater",
            ),
            ("team_id,hours,hours\nX,3,9", _work_logs, "hours"),
        ],
        ids=["outcomes", "feedback", "work_logs"],
    )
    def test_column_named_twice_is_input_error(self, tmp_path, table, parse, column):
        path = tmp_path / "t.csv"
        path.write_text(table + "\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            parse(path)
        assert str(err.value) == f"{path}: column {column} is named twice"

    @pytest.mark.parametrize(
        "table,parse,text",
        [
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score\n"
                "X,2,nan,15,80",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
                "non-finite outcome value",
            ),
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score\n"
                "X,2,20,15,inf",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
                "non-finite outcome value",
            ),
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score,"
                "pair_programming_hours\nX,2,20,15,80,NaN",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
                "non-finite outcome value",
            ),
            ("team_id,hours\nX,-inf", _work_logs, "non-finite hours"),
            ("team_id,hours\nX,nan", _work_logs, "non-finite hours"),
            ("team_id,hours\n\nX,nan", _work_logs, "non-finite hours"),
            ('team_id,hours\n"X\nY",1\nX,nan', _work_logs, "non-finite hours"),
        ],
        ids=[
            "committed-nan",
            "score-inf",
            "pair-hours-nan",
            "work-log-minus-inf",
            "work-log-nan",
            "work-log-nan-after-blank-line",
            "work-log-nan-after-quoted-newline",
        ],
    )
    def test_non_finite_value_names_line(self, tmp_path, table, parse, text):
        path = tmp_path / "t.csv"
        path.write_text(table + "\n", encoding="utf-8")
        line = table.count("\n") + 1  # the faulty row is the table's last line
        with pytest.raises(ValidationError) as err:
            parse(path)
        assert str(err.value) == f"{path}:line {line}: {text}"

    @pytest.mark.parametrize(
        "header,parse",
        [
            (
                "team_id,sprint_id,story_points_committed,story_points_passed,team_score",
                lambda path: parse_outcomes(path, simple_calendar(), TABLE_TEAMS, Diagnostics()),
            ),
            (
                "sprint_id,rater,ratee,communication_rating",
                lambda path: parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics()),
            ),
            ("team_id,hours", _work_logs),
        ],
        ids=["outcomes", "feedback", "work_logs"],
    )
    def test_oversized_field_is_input_error(self, tmp_path, header, parse):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n{'9' * 200_000}\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            parse(path)
        assert str(err.value) == f"{path}:line 2: field larger than field limit (131072)"

    def test_table_not_utf8_is_input_error(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_bytes("team_id,hours\nÄ,1\n".encode("latin-1"))
        with pytest.raises(InputError) as err:
            parse_work_logs(path, TABLE_TEAMS, Diagnostics())
        assert str(err.value).startswith(f"{path}:line 2: not UTF-8: ")

    def test_table_not_utf8_names_the_line_past_the_first_chunk(self, tmp_path):
        """A bad byte far into a table is named by its file line, and by its
        offset in the file, not in the chunk the stream was decoding."""
        path = tmp_path / "fb.csv"
        rows = [b"sprint_id,rater,ratee,communication_rating"] + [b"2,A,C,4"] * 1500
        rows[1234] = b"2,A,C\xff,4"
        data = b"\n".join(rows) + b"\n"
        assert len(data) > 8192
        path.write_bytes(data)
        with pytest.raises(InputError) as err:
            parse_feedback(path, TABLE_CALENDAR, TABLE_ROSTERS, Diagnostics())
        offset = data.index(b"\xff")
        assert str(err.value) == (
            f"{path}:line 1235: not UTF-8: 'utf-8' codec can't decode byte 0xff "
            f"in position {offset}: invalid start byte"
        )

    def test_work_logs_sum_per_team(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text(
            "team_id,person_id,week_id,hours\nX,p1,1,2.5\nX,p2,1,1.5\nY,q1,2,3\n",
            encoding="utf-8",
        )
        assert parse_work_logs(path, TABLE_TEAMS, Diagnostics()) == {"X": 4.0, "Y": 3.0}

    def test_work_logs_unconfigured_team_is_noted(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("team_id,hours\nX,40\nZ,10\nZ,5\n", encoding="utf-8")
        diag = Diagnostics()
        assert parse_work_logs(path, TABLE_TEAMS, diag) == {"X": 40.0, "Z": 15.0}
        assert diag.counts["work_log_rows"] == 3
        assert diag.notes == ["team Z: 2 work log row(s) of a team not configured; ignored"]

    def test_work_logs_overflowing_total_names_line(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("team_id,hours\nX,1e308\nY,1e308\nX,1e308\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            parse_work_logs(path, TABLE_TEAMS, Diagnostics())
        assert str(err.value) == f"{path}:line 4: hours total of team X overflows"

    def test_work_logs_negative_hours(self, tmp_path):
        path = tmp_path / "wl.csv"
        path.write_text("team_id,hours\nX,-1\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            parse_work_logs(path, TABLE_TEAMS, Diagnostics())

    def test_missing_column(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text("sprint_id,rater\n1,A\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            parse_feedback(path, simple_calendar(), TABLE_ROSTERS, Diagnostics())
        assert "communication_rating" in str(err.value)



# Sprint 1 is excluded; a table may also name sprints 0 and 4, which are unknown.
TABLE_CALENDAR = SprintCalendar(
    weeks=tuple(Week(i, utc(2023, 3, 7 * i), utc(2023, 3, 7 * i + 7)) for i in (1, 2, 3)),
    sprints=(Sprint(1, (1,)), Sprint(2, (2,)), Sprint(3, (3,))),
    excluded_sprints=frozenset({1}),
)
OUTCOME_FAULTS = (
    "blank-cell", "bad-number", "nan", "inf", "unknown-sprint", "short-row",
    "negative-points", "passed-exceeds", "negative-hours", "negative-stories",
    "huge-stories", "float-stories", "year-disagree",
)
FEEDBACK_FAULTS = (
    "blank-cell", "bad-number", "float-rating", "rating-range", "unknown-sprint",
    "short-row", "self-rating", "outsider-ratee",
)


def _csv_text(draw, header: list[str], rows: list[list[str]]) -> str:
    """The table's text, with a blank line drawn in at some row boundaries."""
    lines = [",".join(header)]
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@st.composite
def outcome_tables(draw):
    """An outcomes table: rows of teams X, Y and Z for sprints 1-3 (sprint 1
    excluded), optional year-level columns, each filled consistently per team
    or blank, some (team, sprint) rows repeated, and at most one fault."""
    year_cols = ["stories_passed_total", "pair_programming_hours"][
        : draw(st.sampled_from([0, 1, 2, 2]))
    ]
    header = ["team_id", "sprint_id", "story_points_committed", "story_points_passed",
              "team_score", *year_cols]
    year = {team: (draw(st.sampled_from(["0", "25", "30"])), draw(st.sampled_from(["0", "12.5"])))
            for team in "XYZ"}
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        team = draw(st.sampled_from("XYZ"))
        committed = draw(st.sampled_from(["0", "10", "20.5"]))
        passed = draw(st.sampled_from(["0", committed, " 5"])) if committed != "0" else "0"
        row = [team, draw(st.sampled_from(["1", "2", "3", " 2"])), committed, passed,
               draw(st.sampled_from(["70", "85.5", "-3"]))]
        row += [v if draw(st.integers(0, 3)) else "" for v in year[team][: len(year_cols)]]
        rows.append(row)
    if draw(st.integers(0, 3)):  # mostly one row per team and sprint
        rows = list({(r[0], r[1].strip()): r for r in rows}.values())
    fault = draw(st.sampled_from((None,) * 4 + OUTCOME_FAULTS))
    if fault is not None and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault in ("blank-cell", "bad-number"):
            row[draw(st.integers(1, 4))] = "" if fault == "blank-cell" else "x7"
        elif fault in ("nan", "inf"):
            row[draw(st.integers(2, len(row) - 1))] = fault
        elif fault == "unknown-sprint":
            row[1] = draw(st.sampled_from(["0", "4"]))
        elif fault == "short-row":
            del row[draw(st.integers(1, len(row) - 1)):]
        elif fault == "negative-points":
            row[draw(st.integers(2, 3))] = "-1"
        elif fault == "passed-exceeds":
            row[2], row[3] = "5", "6"
        elif fault == "year-disagree" and year_cols:
            # a later row of the team, for a sprint it has no row for
            used = {r[1].strip() for r in rows if r[0] == row[0]}
            if free := [sprint for sprint in "123" if sprint not in used]:
                row[5:] = year[row[0]][: len(year_cols)]
                rows.append([row[0], free[0], "10", "5", "70", *["31"] * len(year_cols)])
        elif year_cols:
            at = 5 if fault.endswith("stories") else len(row) - 1
            row[at] = {"negative-hours": "-2", "negative-stories": "-30",
                       "huge-stories": "9" * 401, "float-stories": "2.5"}[fault]
    return _csv_text(draw, header, rows)


@st.composite
def feedback_tables(draw):
    """A feedback table: ratings by the people of TABLE_ROSTERS of a teammate
    and by Q, who is on no roster, of anyone, for sprints 1-3 (sprint 1
    excluded), rows repeated freely, and at most one fault."""
    ratees = {"A": ["C"], "C": ["A"], "B": ["D"], "D": ["B"], "Q": ["A", "B", "C", "D"]}
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        rater = draw(st.sampled_from(sorted(ratees)))
        ratee = draw(st.sampled_from(ratees[rater]))
        rows.append([draw(st.sampled_from(["1", "2", "3", "3 "])), rater, ratee,
                     draw(st.sampled_from(["1", "2", "3", "4", "5"]))])
    fault = draw(st.sampled_from((None,) * 4 + FEEDBACK_FAULTS))
    if fault is not None and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "blank-cell":
            row[draw(st.sampled_from([0, 3]))] = ""
        elif fault == "bad-number":
            row[draw(st.sampled_from([0, 3]))] = "four"
        elif fault == "float-rating":
            row[3] = "4.0"
        elif fault == "rating-range":
            row[3] = draw(st.sampled_from(["0", "6", "-1"]))
        elif fault == "unknown-sprint":
            row[0] = draw(st.sampled_from(["0", "4"]))
        elif fault == "short-row":
            del row[draw(st.integers(1, 3)):]
        elif fault == "outsider-ratee":
            row[1:3] = draw(st.sampled_from([["A", "B"], ["C", "Q"], ["D", "A"], ["B", "Q"]]))
        else:
            row[2] = row[1]
    return _csv_text(draw, ["sprint_id", "rater", "ratee", "communication_rating"], rows)


def _table_outcome(parse, path, *args) -> tuple:
    diag = Diagnostics()
    try:
        result = parse(path, TABLE_CALENDAR, *args, diag)
    except (InputError, ValidationError) as exc:
        result = (type(exc), str(exc))
    return result, dict(diag.counts), diag.notes


@settings(max_examples=300, deadline=None)
@given(outcome_tables())
def test_outcomes_parser_equals_oracle(text):
    """parse_outcomes equals the record route: each team's sprint outcomes and
    year-level values, the counters and the notes, or the error type, text
    and the counters reached by then."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outcomes.csv"
        path.write_text(text, encoding="utf-8")
        # Z is in the table but not configured, so its rows get a note.
        assert _table_outcome(parse_outcomes, path, TABLE_TEAMS) == _table_outcome(
            outcomes_oracle, path, TABLE_TEAMS
        )


@settings(max_examples=300, deadline=None)
@given(feedback_tables())
def test_feedback_parser_equals_oracle(text):
    """parse_feedback equals the record route: each team's mean rating per
    sprint and the counters, or the error type, text and the counters reached
    by then."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feedback.csv"
        path.write_text(text, encoding="utf-8")
        assert _table_outcome(parse_feedback, path, TABLE_ROSTERS) == _table_outcome(
            feedback_oracle, path, TABLE_ROSTERS
        )
