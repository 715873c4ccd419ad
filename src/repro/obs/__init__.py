"""Observability: telemetry, sampling, tracing, manifests, spans, export.

The structured counterpart of the one-shot :class:`~repro.stats.metrics.
RunStats` aggregate.  Attach a :class:`TelemetrySession` to an engine
(the ``telemetry=`` constructor parameter, or pass ``session.observe``
as the ``observer``) to get per-component counters, an interval time
series and — optionally — a schema-versioned JSONL branch trace that
``repro run --trace-out PATH --validate`` and
:func:`repro.stats.analysis.load_trace` can round-trip and reconcile
against the run's stats.

On top of the per-run layer sit the fleet-level pieces:

* :mod:`repro.obs.manifest` — the run manifest, a schema-versioned
  provenance record attached to every invocation;
* :mod:`repro.obs.spans` — phase span tracing through the warm-pool
  runner and the engines (wall/CPU, latency histograms, incident
  events);
* :mod:`repro.obs.export` — OpenMetrics / canonical-JSON rendering and
  cross-cell per-(backend, engine-mode, workload) rollups;
* :mod:`repro.obs.observatory` — the ``repro report`` dashboard over
  BENCH artifacts, streams, manifests, spans and bench history.

Telemetry and spans off is the default everywhere and costs nothing:
the engines take ``telemetry=None`` and ``spans=None``, keep their
``observer is None`` fast paths and guard each phase with ``if
spans:``.
"""

from repro.obs.collect import TelemetryCollector, harvest_components
from repro.obs.export import (
    OpenMetricsError,
    parse_openmetrics,
    rollup_results,
    to_canonical_json,
    to_openmetrics,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    ManifestError,
    build_manifest,
    host_info,
    validate_manifest,
)
from repro.obs.observatory import (
    HISTORY_SCHEMA,
    ObservatoryError,
    append_history,
    collect_artifacts,
    history_row,
    load_history,
    render_dashboard,
)
from repro.obs.report import render_report
from repro.obs.sampler import IntervalSampler
from repro.obs.session import TelemetrySession
from repro.obs.spans import (
    SPAN_SCHEMA,
    SpanSchemaError,
    SpanTracer,
    SpanWriter,
    load_spans,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceSchemaError,
    TraceWriter,
    aggregate_branch_records,
    branch_record,
    reconcile,
    reconcile_with_stats,
    validate_record,
)

__all__ = [
    "Counter",
    "Gauge",
    "HISTORY_SCHEMA",
    "Histogram",
    "IntervalSampler",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "ObservatoryError",
    "OpenMetricsError",
    "SPAN_SCHEMA",
    "SpanSchemaError",
    "SpanTracer",
    "SpanWriter",
    "TELEMETRY_SCHEMA",
    "TRACE_SCHEMA",
    "Telemetry",
    "TelemetryCollector",
    "TelemetrySession",
    "TraceSchemaError",
    "TraceWriter",
    "aggregate_branch_records",
    "append_history",
    "branch_record",
    "build_manifest",
    "collect_artifacts",
    "harvest_components",
    "history_row",
    "host_info",
    "load_history",
    "load_spans",
    "parse_openmetrics",
    "reconcile",
    "reconcile_with_stats",
    "render_dashboard",
    "render_report",
    "rollup_results",
    "to_canonical_json",
    "to_openmetrics",
    "validate_manifest",
]
