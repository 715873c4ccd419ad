"""Per-branch misprediction analysis and trace-file loading.

Section V motivates the tiny 32-entry perceptron with the observation
that "it is often the case that a small subset of branch instruction
addresses is responsible for a disproportionately larger proportion of
the total mispredictions in a workload".  This module measures exactly
that: per-address execution/misprediction counts, concentration curves,
and the hot-branch list.

It is also the analysis-side entry point for JSONL traces written by
:class:`repro.obs.trace.TraceWriter`: :func:`load_trace` parses and
schema-validates a trace file into a :class:`TraceDocument`, which can
re-run the per-branch/summary reconciliation offline and rebuild the
run's telemetry registry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.predictor import PredictionOutcome
from repro.stats.metrics import MISPREDICT_CLASSES, classify


@dataclass
class HotBranch:
    """One address's misprediction record."""

    address: int
    executions: int
    mispredicts: int

    @property
    def mispredict_rate(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.mispredicts / self.executions


class MispredictProfile:
    """Collects per-branch-address misprediction statistics."""

    def __init__(self) -> None:
        self._executions: Counter = Counter()
        self._mispredicts: Counter = Counter()
        self.total_branches = 0
        self.total_mispredicts = 0

    def record(self, outcome: PredictionOutcome) -> None:
        address = outcome.record.address
        self._executions[address] += 1
        self.total_branches += 1
        if classify(outcome) in MISPREDICT_CLASSES:
            self._mispredicts[address] += 1
            self.total_mispredicts += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def distinct_addresses(self) -> int:
        return len(self._executions)

    @property
    def mispredicting_addresses(self) -> int:
        return len(self._mispredicts)

    def top(self, count: int) -> List[HotBranch]:
        """The *count* worst branches by absolute mispredicts."""
        worst = self._mispredicts.most_common(count)
        return [
            HotBranch(
                address=address,
                executions=self._executions[address],
                mispredicts=mispredicts,
            )
            for address, mispredicts in worst
        ]

    def concentration(self, top_fraction: float) -> float:
        """Share of all mispredicts caused by the top *top_fraction* of
        static branch addresses (by mispredict count).

        ``concentration(0.1) == 0.8`` reads: 10% of the branches cause
        80% of the mispredicts.
        """
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.total_mispredicts == 0:
            return 0.0
        count = max(1, int(round(self.distinct_addresses * top_fraction)))
        covered = sum(
            mispredicts
            for _, mispredicts in self._mispredicts.most_common(count)
        )
        return covered / self.total_mispredicts

    def concentration_curve(
        self, fractions: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.25, 0.5)
    ) -> List[Tuple[float, float]]:
        """(fraction of branches, share of mispredicts) sample points."""
        return [
            (fraction, self.concentration(fraction)) for fraction in fractions
        ]

    def report(self, title: str = "mispredict profile", top: int = 8) -> str:
        lines = [
            f"== {title} ==",
            f"distinct branch addresses: {self.distinct_addresses}",
            f"addresses ever mispredicting: {self.mispredicting_addresses}",
            f"total mispredicts: {self.total_mispredicts}",
            "concentration:",
        ]
        for fraction, share in self.concentration_curve():
            lines.append(
                f"  top {fraction:5.1%} of branches -> {share:6.1%} of mispredicts"
            )
        lines.append(f"worst {top} branches:")
        for hot in self.top(top):
            lines.append(
                f"  {hot.address:#010x}  {hot.mispredicts:>6} mispredicts "
                f"/ {hot.executions:>7} executions ({hot.mispredict_rate:6.1%})"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace loading
# ----------------------------------------------------------------------


@dataclass
class TraceDocument:
    """A parsed, schema-validated JSONL trace file.

    Record order is preserved per type; ``header`` is the first line and
    ``summary`` (when the run finished cleanly) the last.
    """

    path: str
    header: Dict[str, object]
    branches: List[Dict[str, object]] = field(default_factory=list)
    intervals: List[Dict[str, object]] = field(default_factory=list)
    summary: Optional[Dict[str, object]] = None

    @property
    def sampled(self) -> bool:
        """True when only every N-th branch was recorded (``every > 1``)."""
        return self.header.get("every", 1) != 1

    @property
    def stats(self) -> Dict[str, object]:
        """The summary's ``comparable_stats`` slice (empty when absent)."""
        if self.summary is None:
            return {}
        return dict(self.summary.get("stats", {}))

    def telemetry(self):
        """Rebuild the run's telemetry registry from the summary."""
        from repro.obs.telemetry import Telemetry

        if self.summary is None:
            return Telemetry()
        return Telemetry.from_dict(self.summary.get("telemetry", {}))

    def aggregate(self) -> Dict[str, object]:
        """Recompute the accuracy invariants from the branch records."""
        from repro.obs.trace import aggregate_branch_records

        return aggregate_branch_records(self.branches)

    def reconcile(self) -> List[str]:
        """Diff the branch records against the summary (see
        :func:`repro.obs.trace.reconcile`); empty means clean."""
        from repro.obs.trace import reconcile

        if self.summary is None:
            return ["trace has no summary record (run did not finish?)"]
        return reconcile(self.header, self.branches, self.summary)


def load_trace(path: str, strict: bool = False) -> TraceDocument:
    """Parse and schema-validate a ``TraceWriter`` JSONL file.

    Raises :class:`repro.obs.trace.TraceSchemaError` on any malformed
    line (naming the line number and byte offset), a header/schema
    mismatch, or a missing header — except the torn tail of a killed or
    crashed writer (a final line without its newline), which is
    silently dropped (the writer flushes every line and closes on the
    error path, so that torn tail is the only damage a crash can
    leave).  With *strict* — the CLI ``--strict`` mode — the torn tail
    raises too.
    """
    from repro.common.jsonl import load_headed_jsonl
    from repro.obs.trace import TRACE_SCHEMA, TraceSchemaError, \
        validate_record

    rows = load_headed_jsonl(path, TRACE_SCHEMA, "trace", strict=strict,
                             error=TraceSchemaError)
    document = TraceDocument(path=str(path), header=rows[0][2])
    for line_number, _offset, obj in rows:
        record = validate_record(obj, line_number)
        kind = record["type"]
        if kind == "branch":
            document.branches.append(record)
        elif kind == "interval":
            document.intervals.append(record)
        elif kind == "summary":
            document.summary = record
    return document
