"""The one JSONL writer and reader every append-only artifact shares.

Three contracts, pinned over all six formats through each format's own
writer and loader: a file cut at any byte loads as exactly its complete
lines (and an append after the cut lands on a line of its own); each
format keeps its durability policy (fsync or flush per line, one fsync
at close, on the error path too); and the header-first formats refuse a
file without their header.
"""

import asyncio
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import JournalError, SweepStreamError
from repro.common.jsonl import JsonlWriter, iter_jsonl
from repro.engine.stream import STREAM_SCHEMA, load_stream, open_stream
from repro.obs.manifest import build_manifest
from repro.obs.observatory import (
    ObservatoryError,
    append_history,
    history_row,
    load_history,
)
from repro.obs.spans import SpanSchemaError, SpanWriter, load_spans
from repro.obs.trace import INTERVAL_FIELDS, TraceSchemaError, TraceWriter
from repro.serve.journal import JournalWriter, journal_header, load_journal
from repro.serve.server import PredictorServer, ServeOptions, open_events
from repro.stats.analysis import load_trace


def test_append_line_writes_one_flushed_line(tmp_path):
    target = tmp_path / "rows.jsonl"
    with JsonlWriter(target) as writer:
        writer.write({"row": 1})
        # Flushed through to the OS before close: another handle on the
        # same file sees the complete line already.
        assert target.read_text() == '{"row":1}\n'
        writer.write({"row": 2})
    assert [json.loads(line) for line in target.read_text().splitlines()] \
        == [{"row": 1}, {"row": 2}]


# ----------------------------------------------------------------------
# The six formats, each through its own writer and loader
# ----------------------------------------------------------------------


class StreamFormat:
    name = "stream"
    header_first = False
    appends = False
    error = SweepStreamError

    def write(self, path, count):
        with open_stream(path, manifest=build_manifest("sweep")) as writer:
            for index in range(count):
                writer.write({"schema": STREAM_SCHEMA, "cell": {"index": index}})

    def load(self, path, strict):
        return load_stream(path, strict=strict)

    def view(self, records):
        return records[1:]  # the loader skips the manifest line


class JournalFormat:
    name = "journal"
    header_first = True
    appends = True
    error = JournalError

    def _writer(self, path):
        return JournalWriter(path, journal_header("t0", "z15", "object"))

    def write(self, path, count):
        with self._writer(path) as writer:
            for seq in range(count):
                writer.append({"type": "batch", "seq": seq, "branches": []})

    def append(self, path, seq):
        with self._writer(path) as writer:
            writer.append({"type": "batch", "seq": seq, "branches": []})

    def load(self, path, strict):
        header, events = load_journal(path, strict=strict)
        return [header] + events

    def view(self, records):
        return records


class EventsFormat:
    name = "events"
    header_first = False
    appends = True
    error = ValueError

    def write(self, path, count):
        with open_events(os.path.dirname(path)) as writer:
            for index in range(count):
                writer.write(self._event(index))

    def append(self, path, index):
        with open_events(os.path.dirname(path)) as writer:
            writer.write(self._event(index))

    def _event(self, index):
        return {"type": "open", "tenant": f"t{index}", "shard": 0}

    def load(self, path, strict):
        return [row for _, _, row in iter_jsonl(path, strict=strict)]

    def view(self, records):
        return records


class HistoryFormat:
    name = "history"
    header_first = False
    appends = True
    error = ObservatoryError

    def write(self, path, count):
        for index in range(count):
            self.append(path, index)

    def append(self, path, index):
        append_history(path, history_row("fleet", {"fleet.speedup": index}))

    def load(self, path, strict):
        return load_history(path, strict=strict)

    def view(self, records):
        return records


class SpansFormat:
    name = "spans"
    header_first = True
    appends = False
    error = SpanSchemaError

    def write(self, path, count):
        with SpanWriter(path, kind="sweep") as writer:
            for index in range(count):
                writer.write({"type": "span", "name": "execute",
                              "wall": index / 8, "cpu": None})

    def load(self, path, strict):
        document = load_spans(path, strict=strict)
        return [document["header"]] + document["spans"]

    def view(self, records):
        return records


class TraceFormat:
    name = "trace"
    header_first = True
    appends = False
    error = TraceSchemaError

    def write(self, path, count):
        with TraceWriter(path) as writer:
            writer.write_header(workload="w", predictor="p", seed=1,
                                branches=count, interval=1)
            for index in range(count):
                sample = {field: index for field in INTERVAL_FIELDS}
                del sample["type"]
                writer.write_interval(sample)

    def load(self, path, strict):
        document = load_trace(path, strict=strict)
        return [document.header] + document.intervals

    def view(self, records):
        return records


FORMATS = [StreamFormat(), JournalFormat(), EventsFormat(),
           HistoryFormat(), SpansFormat(), TraceFormat()]
FILE_NAMES = {"events": "events.jsonl"}


def _line_ends(data):
    """Byte offset just past each line's newline."""
    return [index + 1 for index, byte in enumerate(data) if byte == 0x0A]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fmt=st.sampled_from(FORMATS), count=st.integers(1, 3),
       data=st.data())
def test_a_cut_at_any_byte_loads_as_its_complete_lines(tmp_path_factory,
                                                       fmt, count, data):
    directory = tmp_path_factory.mktemp(fmt.name)
    path = str(directory / FILE_NAMES.get(fmt.name, "artifact.jsonl"))
    fmt.write(path, count)
    with open(path, "rb") as stream:
        full = stream.read()
    records = [json.loads(line) for line in full.splitlines()]
    cut = data.draw(st.integers(0, len(full)), label="cut")
    os.truncate(path, cut)
    complete = sum(1 for end in _line_ends(full) if end <= cut)
    partial = cut > (_line_ends(full)[complete - 1] if complete else 0)
    survivors = records[:complete]

    if fmt.header_first and not survivors:
        with pytest.raises(fmt.error, match="no header"):
            fmt.load(path, strict=False)
    else:
        assert fmt.load(path, strict=False) == fmt.view(survivors)
        if partial:
            with pytest.raises(fmt.error, match="torn final line"):
                fmt.load(path, strict=True)
        else:
            assert fmt.load(path, strict=True) == fmt.view(survivors)

    if fmt.appends:
        fmt.append(path, count)
        with open(path, "rb") as stream:
            added = json.loads(stream.read().splitlines()[-1])
        if fmt.header_first and not survivors:
            survivors = records[:1]  # the reopened writer's own header
        assert fmt.load(path, strict=True) == fmt.view(survivors + [added])


# ----------------------------------------------------------------------
# Durability policies
# ----------------------------------------------------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls."""
    calls = []
    real = os.fsync

    def counted(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counted)
    return calls


def _writers(tmp_path):
    """(name, writer factory, write one record, fsync per line)."""
    return [
        ("stream", lambda: open_stream(str(tmp_path / "s.jsonl")),
         lambda w: w.write({"schema": STREAM_SCHEMA}), True),
        ("journal", lambda: JournalWriter(
            tmp_path / "j.jsonl", journal_header("t0", "z15", "object")),
         lambda w: w.append({"type": "batch", "seq": 0, "branches": []}),
         True),
        ("events", lambda: open_events(tmp_path),
         lambda w: w.write({"type": "boot"}), True),
        ("spans", lambda: SpanWriter(str(tmp_path / "sp.jsonl")),
         lambda w: w.write({"type": "event", "name": "x", "seq": 0}), False),
        ("trace", lambda: TraceWriter(str(tmp_path / "t.jsonl")),
         lambda w: w.write_header(workload="w", predictor="p", seed=1,
                                  branches=1, interval=0), False),
    ]


@pytest.mark.parametrize("index", range(5))
def test_each_writer_keeps_its_line_policy_and_closes_durably(
        tmp_path, fsyncs, index):
    name, make, write_one, per_line = _writers(tmp_path)[index]
    writer = make()
    for _ in range(3):
        write_one(writer)
    # Every line so far (a header included) is fsynced, or none is.
    assert len(fsyncs) == (writer.records_written if per_line else 0), name
    before = len(fsyncs)
    writer.close()
    assert len(fsyncs) == before + 1, name


@pytest.mark.parametrize("index", range(5))
def test_each_writer_closes_durably_on_the_error_path(tmp_path, fsyncs,
                                                      index):
    name, make, write_one, per_line = _writers(tmp_path)[index]
    with pytest.raises(RuntimeError):
        with make() as writer:
            write_one(writer)
            before = len(fsyncs)
            raise RuntimeError("killed mid-run")
    assert len(fsyncs) == before + 1, name


def test_history_fsyncs_its_row_then_closes(tmp_path, fsyncs):
    path = str(tmp_path / "h.jsonl")
    for index in range(3):
        append_history(path, history_row("fleet", {"m": index}))
        # One append: the row's fsync, then the close's.
        assert len(fsyncs) == 2 * (index + 1)


# ----------------------------------------------------------------------
# An append after a torn tail starts a line of its own
# ----------------------------------------------------------------------


def test_history_appends_after_a_torn_row_load(tmp_path):
    path = str(tmp_path / "h.jsonl")
    append_history(path, history_row("fleet", {"a": 1.0}))
    with open(path, "a") as stream:
        stream.write('{"schema": "repro-bench-history/v1", "kin')
    append_history(path, history_row("fleet", {"a": 2.0}))
    append_history(path, history_row("fleet", {"a": 3.0}))
    rows = load_history(path, strict=True)
    assert [row["metrics"]["a"] for row in rows] == [1.0, 2.0, 3.0]


def test_server_boot_after_a_torn_event_keeps_the_log_loadable(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "events.jsonl").write_text('{"type":"boot"}\n{"type":"op')

    async def boot_and_stop():
        server = PredictorServer(spool, ServeOptions(shards=1))
        await server.start()
        await server.stop(reason="test")

    asyncio.run(boot_and_stop())
    rows = [row for _, _, row in iter_jsonl(spool / "events.jsonl",
                                            strict=True)]
    assert [row["type"] for row in rows] == ["boot", "boot", "final"]
