"""The JSONL branch-trace sink: schema, writer, validation, reconcile.

A trace file is one JSON object per line, four record types:

* ``header`` — first line; schema version plus run identity (workload,
  predictor, seed, planned branches, sampling settings).
* ``branch`` — one counted branch (compact keys, see
  :data:`BRANCH_FIELDS`); written every ``every``-th branch.
* ``interval`` — one :class:`~repro.obs.sampler.IntervalSampler` window.
* ``summary`` — last line; the run's
  :func:`~repro.verification.differential.comparable_stats` slice and
  the final telemetry registry export.

The schema is versioned (:data:`TRACE_SCHEMA`); loaders reject files
whose header claims a different version.  When a trace is unsampled
(``every == 1``) :func:`reconcile` recomputes every shared accuracy
invariant from the branch records and diffs it against the summary —
the cross-check ``repro run --trace-out PATH --validate`` and the CI
trace smoke job run.

Timestamps are deliberately absent: a trace of a seeded run is
byte-reproducible, which is what lets tests pin round-trips.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.jsonl import JsonlWriter
from repro.core.predictor import PredictionOutcome
from repro.stats.metrics import (
    MISPREDICT_CLASSES,
    MispredictClass,
    RunStats,
    classify,
)

#: Version tag in every trace header.
TRACE_SCHEMA = "repro-trace/v1"

#: Required keys per record type ("branch" keys are compact: one or two
#: letters, decoded below).
HEADER_FIELDS = ("type", "schema", "workload", "predictor", "seed",
                 "branches", "interval", "every")
BRANCH_FIELDS = (
    "type",
    "i",     # counted-branch index (0-based)
    "seq",   # global sequence number
    "addr",  # branch address
    "dyn",   # dynamically predicted (BTB1 hit)
    "pt",    # predicted taken
    "ptgt",  # predicted target (null when none)
    "taken", # resolved direction
    "tgt",   # resolved target (null when not taken)
    "cls",   # mispredict class (MispredictClass.value)
    "dp",    # direction provider (DirectionProvider.value)
    "tp",    # target provider (TargetProvider.value)
    "ls",    # lines searched reaching this branch
    "es",    # empty searches
    "sk",    # lines skipped by SKOOT
    "so",    # SKOOT overshoot flag
    "b2",    # BTB2 searches triggered
    "bpr",   # bad predictions removed
    "btr",   # bad-taken restarts
    "cpa",   # CPRED-accelerated stream exit flag
)
INTERVAL_FIELDS = ("type", "index", "branch_start", "branch_end", "branches",
                   "mispredicts", "accuracy", "mpki_approx",
                   "dynamic_coverage", "taken_rate", "provider_share")
SUMMARY_FIELDS = ("type", "stats", "telemetry")

_REQUIRED = {
    "header": HEADER_FIELDS,
    "branch": BRANCH_FIELDS,
    "interval": INTERVAL_FIELDS,
    "summary": SUMMARY_FIELDS,
}

#: Mispredict-class values that count as mispredicted branches.
_MISPREDICT_VALUES = frozenset(klass.value for klass in MISPREDICT_CLASSES)


class TraceSchemaError(ValueError):
    """A trace line violates the schema."""


def branch_record(index: int, outcome: PredictionOutcome) -> Dict[str, object]:
    """Encode one counted outcome as a compact branch record."""
    record = outcome.record
    trace = outcome.trace
    return {
        "type": "branch",
        "i": index,
        "seq": record.sequence,
        "addr": record.address,
        "dyn": record.dynamic,
        "pt": record.predicted_taken,
        "ptgt": record.predicted_target,
        "taken": bool(record.actual_taken),
        "tgt": record.actual_target,
        "cls": classify(outcome).value,
        "dp": record.direction_provider.value,
        "tp": record.target_provider.value,
        "ls": trace.lines_searched,
        "es": trace.empty_searches,
        "sk": trace.lines_skipped_by_skoot,
        "so": trace.skoot_overshoot,
        "b2": trace.btb2_triggers,
        "bpr": trace.bad_predictions_removed,
        "btr": trace.bad_taken_restarts,
        "cpa": trace.cpred_accelerated,
    }


def validate_record(obj: object, line_number: int = 0) -> Dict[str, object]:
    """Check one decoded trace line against the schema; returns it."""
    where = f"line {line_number}" if line_number else "record"
    if not isinstance(obj, dict):
        raise TraceSchemaError(f"{where}: expected a JSON object, "
                               f"got {type(obj).__name__}")
    kind = obj.get("type")
    required = _REQUIRED.get(kind)
    if required is None:
        raise TraceSchemaError(f"{where}: unknown record type {kind!r}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise TraceSchemaError(
            f"{where}: {kind} record missing fields {missing}"
        )
    if kind == "header" and obj["schema"] != TRACE_SCHEMA:
        raise TraceSchemaError(
            f"{where}: unsupported trace schema {obj['schema']!r} "
            f"(expected {TRACE_SCHEMA!r})"
        )
    return obj


class TraceWriter(JsonlWriter):
    """Streams trace records to a JSONL file: the shared
    :class:`~repro.common.jsonl.JsonlWriter`, truncating, with a flush
    per line.

    Use as a context manager, or call :meth:`close` explicitly.  The
    header must be written first (:meth:`write_header`); the summary
    (:meth:`write_summary`) is normally last.

    Crash contract: every record is flushed as it is written, and the
    writer closes durably on context-manager exit *including the error
    path*, so a run that dies mid-trace loses at most its final line,
    which :func:`repro.stats.analysis.load_trace` drops on reload
    instead of refusing the whole file.
    """

    def __init__(self, path: str, every: int = 1):
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        super().__init__(str(path))
        self.every = every
        self.branches_seen = 0

    def write_header(self, *, workload: str, predictor: str, seed: int,
                     branches: int, interval: int) -> None:
        self.write({
            "type": "header",
            "schema": TRACE_SCHEMA,
            "workload": workload,
            "predictor": predictor,
            "seed": seed,
            "branches": branches,
            "interval": interval,
            "every": self.every,
        })

    def observe(self, outcome: PredictionOutcome) -> None:
        """Record one counted branch (subject to ``every`` sampling)."""
        index = self.branches_seen
        self.branches_seen += 1
        if index % self.every == 0:
            self.write(branch_record(index, outcome))

    def write_interval(self, sample: Dict[str, object]) -> None:
        record = {"type": "interval"}
        record.update(sample)
        self.write(record)

    def write_summary(self, stats: Dict[str, object],
                      telemetry: Dict[str, object]) -> None:
        self.write({"type": "summary", "stats": stats,
                    "telemetry": telemetry})


# ----------------------------------------------------------------------
# Reconciliation: branch records vs the summary aggregate
# ----------------------------------------------------------------------


def aggregate_branch_records(
    branches: List[Dict[str, object]]
) -> Dict[str, object]:
    """Recompute the shared accuracy invariants from branch records.

    Produces the same shape as :func:`~repro.verification.differential.
    comparable_stats` minus ``instructions`` (not derivable from a
    branch stream).
    """
    classes: Dict[str, int] = {}
    direction_providers: Dict[str, List[int]] = {}
    target_providers: Dict[str, List[int]] = {}
    totals = {
        "branches": 0,
        "dynamic_predictions": 0,
        "surprise_branches": 0,
        "taken_branches": 0,
        "mispredicted_branches": 0,
        "direction_wrong": 0,
        "target_wrong": 0,
        "lines_searched": 0,
        "empty_searches": 0,
        "lines_skipped_by_skoot": 0,
        "skoot_overshoots": 0,
        "btb2_triggers": 0,
        "bad_predictions_removed": 0,
        "bad_taken_restarts": 0,
        "cpred_accelerated_streams": 0,
        "predicted_taken_dynamic": 0,
    }
    for record in branches:
        totals["branches"] += 1
        dynamic = record["dyn"]
        taken = record["taken"]
        predicted_taken = record["pt"]
        if dynamic:
            totals["dynamic_predictions"] += 1
        else:
            totals["surprise_branches"] += 1
        if taken:
            totals["taken_branches"] += 1
        klass = record["cls"]
        classes[klass] = classes.get(klass, 0) + 1
        if klass in _MISPREDICT_VALUES:
            totals["mispredicted_branches"] += 1
        if klass == MispredictClass.DIRECTION_WRONG.value:
            totals["direction_wrong"] += 1
        elif klass == MispredictClass.TARGET_WRONG.value:
            totals["target_wrong"] += 1
        provider = record["dp"]
        stats = direction_providers.get(provider)
        if stats is None:
            stats = direction_providers[provider] = [0, 0]
        stats[0] += 1
        if predicted_taken == taken:
            stats[1] += 1
        if dynamic and predicted_taken:
            totals["predicted_taken_dynamic"] += 1
            if taken:
                target = record["tp"]
                tstats = target_providers.get(target)
                if tstats is None:
                    tstats = target_providers[target] = [0, 0]
                tstats[0] += 1
                if record["ptgt"] == record["tgt"]:
                    tstats[1] += 1
        totals["lines_searched"] += record["ls"]
        totals["empty_searches"] += record["es"]
        totals["lines_skipped_by_skoot"] += record["sk"]
        if record["so"]:
            totals["skoot_overshoots"] += 1
        totals["btb2_triggers"] += record["b2"]
        totals["bad_predictions_removed"] += record["bpr"]
        totals["bad_taken_restarts"] += record["btr"]
        if record["cpa"]:
            totals["cpred_accelerated_streams"] += 1
    aggregate: Dict[str, object] = dict(totals)
    aggregate["classes"] = {k: v for k, v in sorted(classes.items()) if v}
    aggregate["direction_providers"] = {
        k: v for k, v in sorted(direction_providers.items())
    }
    aggregate["target_providers"] = {
        k: v for k, v in sorted(target_providers.items())
    }
    return aggregate


def reconcile(header: Dict[str, object],
              branches: List[Dict[str, object]],
              summary: Dict[str, object]) -> List[str]:
    """Diff the branch-record aggregate against the summary stats.

    Returns human-readable mismatch strings (empty means the trace's
    per-branch records and its aggregate agree exactly).  Sampled traces
    (``every > 1``) cannot reconcile; one explanatory message comes back.
    """
    if header.get("every", 1) != 1:
        return [
            f"trace is sampled (every={header.get('every')}); "
            f"per-branch reconciliation requires every=1"
        ]
    recomputed = aggregate_branch_records(branches)
    stats = summary.get("stats", {})
    mismatches = []
    for key, value in recomputed.items():
        expected = stats.get(key)
        if expected != value:
            mismatches.append(
                f"{key}: summary={expected!r} recomputed={value!r}"
            )
    return mismatches


def reconcile_with_stats(branches: List[Dict[str, object]],
                         stats: RunStats) -> List[str]:
    """Diff the branch-record aggregate against a live RunStats."""
    from repro.verification.differential import comparable_stats

    recomputed = aggregate_branch_records(branches)
    reference = comparable_stats(stats)
    mismatches = []
    for key, value in recomputed.items():
        if reference.get(key) != value:
            mismatches.append(
                f"{key}: stats={reference.get(key)!r} trace={value!r}"
            )
    return mismatches
