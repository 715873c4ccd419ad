"""Span tracing: wall/CPU timing of pipeline phases, off by default.

The warm-pool sweep runner (PR 7) reports *what* happened through
``pool_stats`` — chunks submitted, retries, pool breaks — but not *where
the time went*: a hung worker, a slow serialize, or merge overhead all
look the same from outside.  This module adds the missing axis: a
:class:`SpanTracer` records named phases (``serialize``, ``transfer``,
``execute``, ``merge``, engine ``warmup``/``counted``/``finalize``) with
wall and CPU durations, plus point events (``cell.retry``,
``cell.timeout``, ``pool.break``) so rare incidents are visible in
order.

The tracer follows the telemetry null-object discipline exactly:
:data:`NULL_SPANS` is falsy and every method a no-op, so instrumented
code guards with ``if spans:`` and the off path pays one truthiness
check.  Spans never influence simulation results — they only observe —
so all committed fingerprints are byte-identical with tracing on or off.

On-disk format (:data:`SPAN_SCHEMA`, ``repro-spans/v1``): JSONL, a
header line then one object per span/event, written by
:class:`SpanWriter` with the same crash contract as the trace writer
(flush per record and on error-path exit; a torn tail line is dropped by
:func:`load_spans`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, IO, List, Optional

from repro.obs.telemetry import Histogram

#: Version tag in every span-file header.
SPAN_SCHEMA = "repro-spans/v1"

#: Histogram bounds for phase latencies, in milliseconds.  Phases span
#: sub-millisecond merges to multi-second chunk executions, so the
#: buckets are geometric.
LATENCY_BOUNDS_MS = (0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
                     500, 1000, 2500, 5000, 10000)


class SpanSchemaError(ValueError):
    """A span file violates the schema."""


class SpanTracer:
    """Collects phase spans and point events for one invocation.

    Spans are recorded two ways: :meth:`span` times a ``with`` block
    (wall via ``perf_counter``, CPU via ``process_time``), and
    :meth:`observe` folds in a duration measured elsewhere (e.g. a
    worker-side elapsed time that crossed the process boundary as a
    float).  Both feed the same per-phase latency histograms, exported
    by :meth:`phase_latency` into ``pool_stats`` and reports.
    """

    def __init__(self, writer: Optional["SpanWriter"] = None):
        self.writer = writer
        self.spans: List[Dict[str, object]] = []
        self.events: List[Dict[str, object]] = []
        self._histograms: Dict[str, Histogram] = {}

    def __bool__(self) -> bool:
        return True

    # -- recording -------------------------------------------------------

    def _observe_latency(self, name: str, wall_seconds: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, LATENCY_BOUNDS_MS
            )
        histogram.observe(wall_seconds * 1000.0)

    @contextmanager
    def span(self, name: str, **fields):
        """Time a block as one span named *name*; extra fields pass
        through to the record (chunk index, cell label, ...)."""
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall_start
            cpu = time.process_time() - cpu_start
            self.observe(name, wall, cpu=cpu, **fields)

    def observe(self, name: str, wall: float,
                cpu: Optional[float] = None, **fields) -> None:
        """Record one completed span with a pre-measured duration."""
        record: Dict[str, object] = {"type": "span", "name": name,
                                     "wall": wall, "cpu": cpu}
        if fields:
            record.update(fields)
        self.spans.append(record)
        self._observe_latency(name, wall)
        if self.writer is not None:
            self.writer.write(record)

    def event(self, name: str, **fields) -> None:
        """Record a point event (retry, timeout, pool break, ...)."""
        record: Dict[str, object] = {"type": "event", "name": name,
                                     "seq": len(self.events)}
        if fields:
            record.update(fields)
        self.events.append(record)
        if self.writer is not None:
            self.writer.write(record)

    # -- export ----------------------------------------------------------

    def histograms(self) -> Dict[str, Histogram]:
        """The live per-phase latency histograms (milliseconds)."""
        return dict(self._histograms)

    def phase_latency(self) -> Dict[str, Dict[str, object]]:
        """Per-phase latency summaries, name-sorted, for ``pool_stats``
        and reports (histogram dicts carry p50/p95/p99)."""
        return {
            name: self._histograms[name].to_dict()
            for name in sorted(self._histograms)
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SPAN_SCHEMA,
            "spans": len(self.spans),
            "events": list(self.events),
            "phase_latency": self.phase_latency(),
        }


class NullSpanTracer:
    """The off-mode tracer: falsy, every operation a no-op."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    @contextmanager
    def span(self, name: str, **fields):
        yield

    def observe(self, name: str, wall: float,
                cpu: Optional[float] = None, **fields) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        pass

    def histograms(self) -> Dict[str, Histogram]:
        return {}

    def phase_latency(self) -> Dict[str, Dict[str, object]]:
        return {}

    def to_dict(self) -> Dict[str, object]:
        return {"schema": SPAN_SCHEMA, "spans": 0, "events": [],
                "phase_latency": {}}


#: The shared off-mode singleton (stateless, safe to share everywhere).
NULL_SPANS = NullSpanTracer()


class SpanWriter:
    """Streams span/event records to a JSONL file.

    Same crash contract as :class:`~repro.obs.trace.TraceWriter`: the
    header goes first, every record is flushed as it is written (span
    volume is low — per phase, not per branch — so durability beats
    batching here), and context-manager exit closes on the error path
    too, so a crashed run leaves a loadable file with at most one torn
    tail line.
    """

    def __init__(self, path: str, kind: str = "run",
                 context: Optional[Dict[str, object]] = None):
        self.path = str(path)
        self.records_written = 0
        self._stream: Optional[IO[str]] = open(self.path, "w")
        header: Dict[str, object] = {"type": "header", "schema": SPAN_SCHEMA,
                                     "kind": kind}
        if context:
            header["context"] = context
        self.write(header)

    def write(self, record: Dict[str, object]) -> None:
        stream = self._stream
        if stream is None:
            raise ValueError(f"span writer for {self.path} is closed")
        stream.write(json.dumps(record, separators=(",", ":")))
        stream.write("\n")
        stream.flush()
        self.records_written += 1

    def write_summary(self, tracer: SpanTracer) -> None:
        """Append the tracer's aggregate view (phase latency rollup)."""
        record: Dict[str, object] = {"type": "summary"}
        record.update(tracer.to_dict())
        record.pop("events", None)  # already on disk as individual records
        self.write(record)

    def close(self) -> None:
        if self._stream is not None:
            from repro.common.atomic import durable_flush

            # Durable close: everything written is on the device before
            # the handle drops, so only a mid-record kill can tear.
            durable_flush(self._stream)
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # Close on both paths so a crash still leaves the file loadable.
        self.close()


def load_spans(path: str, strict: bool = False) -> Dict[str, object]:
    """Parse a span file into header/spans/events/summary.

    A malformed *final* line — the torn tail of a killed writer — is
    dropped (unless *strict*, which makes it an error like any other);
    any other malformed line raises :class:`SpanSchemaError` naming the
    line number and byte offset.
    """
    from repro.common.jsonl import format_location, iter_jsonl

    header: Optional[Dict[str, object]] = None
    spans: List[Dict[str, object]] = []
    events: List[Dict[str, object]] = []
    summary: Optional[Dict[str, object]] = None
    for line_number, offset, obj in iter_jsonl(path, strict=strict,
                                               error=SpanSchemaError):
        where = format_location(path, line_number, offset)
        if not isinstance(obj, dict) or "type" not in obj:
            raise SpanSchemaError(f"{where}: expected an object with a type")
        kind = obj["type"]
        if kind == "header":
            if obj.get("schema") != SPAN_SCHEMA:
                raise SpanSchemaError(
                    f"{where}: unsupported span schema "
                    f"{obj.get('schema')!r} (expected {SPAN_SCHEMA!r})"
                )
            if header is not None:
                raise SpanSchemaError(f"{where}: duplicate header record")
            header = obj
        elif header is None:
            raise SpanSchemaError(f"{where}: {kind} record before header")
        elif kind == "span":
            spans.append(obj)
        elif kind == "event":
            events.append(obj)
        elif kind == "summary":
            summary = obj
        else:
            raise SpanSchemaError(f"{where}: unknown record type {kind!r}")
    if header is None:
        raise SpanSchemaError(f"{path}: no header record")
    return {"path": str(path), "header": header, "spans": spans,
            "events": events, "summary": summary}


__all__ = [
    "LATENCY_BOUNDS_MS",
    "NULL_SPANS",
    "NullSpanTracer",
    "SPAN_SCHEMA",
    "SpanSchemaError",
    "SpanTracer",
    "SpanWriter",
    "load_spans",
]
