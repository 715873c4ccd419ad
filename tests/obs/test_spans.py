"""Span tracer/writer/loader: timing capture and crash contract."""

import json

import pytest

from repro.obs.spans import (
    LATENCY_BOUNDS_MS,
    SPAN_SCHEMA,
    SpanSchemaError,
    SpanTracer,
    SpanWriter,
    load_spans,
)


class TestSpanTracer:
    def test_truthy_for_hot_path_guards(self):
        # The engines time a phase only under `if spans:`.
        assert bool(SpanTracer())

    def test_span_block_records_wall_and_cpu(self):
        tracer = SpanTracer()
        with tracer.span("serialize", chunk=3):
            sum(range(1000))
        (record,) = tracer.spans
        assert record["name"] == "serialize"
        assert record["chunk"] == 3
        assert record["wall"] >= 0.0
        assert record["cpu"] >= 0.0

    def test_observe_folds_external_durations(self):
        tracer = SpanTracer()
        tracer.observe("execute", 0.025, label="z15/object")
        (record,) = tracer.spans
        assert record["wall"] == 0.025
        assert record["cpu"] is None
        assert record["label"] == "z15/object"

    def test_span_recorded_even_when_block_raises(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("merge"):
                raise RuntimeError("boom")
        assert [span["name"] for span in tracer.spans] == ["merge"]

    def test_events_are_sequenced(self):
        tracer = SpanTracer()
        tracer.event("cell.retry", label="a")
        tracer.event("pool.break", pending=4)
        assert [event["seq"] for event in tracer.events] == [0, 1]
        assert tracer.events[1]["pending"] == 4

    def test_phase_latency_histograms_in_milliseconds(self):
        tracer = SpanTracer()
        tracer.observe("execute", 0.010)   # 10 ms
        tracer.observe("execute", 0.200)   # 200 ms
        tracer.observe("merge", 0.0002)    # 0.2 ms
        latency = tracer.phase_latency()
        assert sorted(latency) == ["execute", "merge"]
        assert latency["execute"]["count"] == 2
        assert latency["execute"]["bounds"] == list(LATENCY_BOUNDS_MS)
        assert latency["merge"]["p50"] == pytest.approx(0.2, rel=0.5)

    def test_to_dict_summarizes(self):
        tracer = SpanTracer()
        tracer.observe("execute", 0.01)
        tracer.event("cell.timeout", label="x")
        payload = tracer.to_dict()
        assert payload["schema"] == SPAN_SCHEMA
        assert payload["spans"] == 1
        assert payload["events"][0]["name"] == "cell.timeout"
        assert "execute" in payload["phase_latency"]


class TestWriterAndLoader:
    def traced_file(self, tmp_path, name="spans.jsonl"):
        path = str(tmp_path / name)
        with SpanWriter(path, kind="sweep",
                        context={"command": "sweep"}) as writer:
            tracer = SpanTracer(writer=writer)
            tracer.observe("serialize", 0.004)
            tracer.observe("execute", 0.120, label="z15/object")
            tracer.event("cell.retry", label="z15/object", attempt=1)
            writer.write_summary(tracer)
        return path

    def test_round_trip(self, tmp_path):
        document = load_spans(self.traced_file(tmp_path))
        assert document["header"]["kind"] == "sweep"
        assert document["header"]["context"] == {"command": "sweep"}
        assert [span["name"] for span in document["spans"]] == [
            "serialize", "execute",
        ]
        assert document["events"][0]["name"] == "cell.retry"
        assert document["summary"]["spans"] == 2
        assert "execute" in document["summary"]["phase_latency"]

    def test_writer_closes_on_error_path(self, tmp_path):
        path = str(tmp_path / "crash.jsonl")
        with pytest.raises(RuntimeError):
            with SpanWriter(path) as writer:
                SpanTracer(writer=writer).observe("execute", 0.01)
                raise RuntimeError("killed mid-run")
        # The error-path close left a loadable file.
        document = load_spans(path)
        assert len(document["spans"]) == 1
        assert document["summary"] is None

    def test_write_after_close_raises(self, tmp_path):
        writer = SpanWriter(str(tmp_path / "closed.jsonl"))
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write({"type": "event", "name": "late"})

    def test_torn_tail_is_dropped(self, tmp_path):
        path = self.traced_file(tmp_path)
        with open(path, "a") as stream:
            stream.write('{"type": "span", "name": "trunc')
        document = load_spans(path)
        assert [span["name"] for span in document["spans"]] == [
            "serialize", "execute",
        ]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = self.traced_file(tmp_path)
        lines = open(path).read().splitlines()
        lines[1] = '{"type": "span", "name": "trunc'
        with open(path, "w") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(SpanSchemaError,
                           match=r":2 \(byte offset \d+\): malformed"):
            load_spans(path)

    def test_record_before_header_rejected(self, tmp_path):
        path = str(tmp_path / "headless.jsonl")
        with open(path, "w") as stream:
            stream.write(json.dumps({"type": "span", "name": "x",
                                     "wall": 1.0}) + "\n")
        with pytest.raises(SpanSchemaError, match="before header"):
            load_spans(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "wrong.jsonl")
        with open(path, "w") as stream:
            stream.write(json.dumps({"type": "header",
                                     "schema": "repro-spans/v9"}) + "\n")
        with pytest.raises(SpanSchemaError, match="unsupported span schema"):
            load_spans(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = self.traced_file(tmp_path)
        with open(path, "a") as stream:
            stream.write(json.dumps({"type": "mystery"}) + "\n")
            stream.write("\n")  # trailing newline: not a torn tail
        with pytest.raises(SpanSchemaError, match="unknown record type"):
            load_spans(path)
