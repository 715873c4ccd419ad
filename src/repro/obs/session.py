"""One run's telemetry bundle: one fold, collector, sampler, trace writer.

A :class:`TelemetrySession` is the single object callers attach to an
engine.  It owns a fresh :class:`~repro.obs.telemetry.Telemetry`
registry, exposes one per-branch :meth:`observe` entry point (usable
directly as the engines' ``observer`` hook or through their
``telemetry=`` parameter), folds each counted outcome once into a
:class:`~repro.stats.metrics.RunStats` of its own, and fans it into:

* the :class:`~repro.obs.collect.TelemetryCollector` (the component
  counters ``RunStats`` does not hold; at :meth:`finish` it sets the
  ones it does from the fold),
* the :class:`~repro.obs.sampler.IntervalSampler` (time series, read
  off the fold), and
* the :class:`~repro.obs.trace.TraceWriter` (JSONL sink), when a trace
  path was given.

The session folds for itself because observers run before the engine
records an outcome: at a window's last branch the engine's own
``RunStats`` is one branch behind.

``skip`` mirrors the engines' warmup handling: the engines hand the
observer *every* branch, warmup included, but
:class:`~repro.stats.metrics.RunStats` only aggregates the counted
phase — so a session skips the first ``skip`` outcomes to stay exactly
reconcilable with the run's stats.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.predictor import LookaheadBranchPredictor, PredictionOutcome
from repro.obs.collect import TelemetryCollector
from repro.obs.report import render_report
from repro.obs.sampler import IntervalSampler
from repro.obs.telemetry import Telemetry
from repro.obs.trace import TraceWriter
from repro.stats.metrics import RunStats


class TelemetrySession:
    """Everything observability-related about one simulation run."""

    def __init__(
        self,
        predictor: Optional[LookaheadBranchPredictor] = None,
        interval: int = 2000,
        trace_path: Optional[str] = None,
        trace_every: int = 1,
        skip: int = 0,
    ):
        self.telemetry = Telemetry()
        #: Every counted outcome, folded once; the registry's derived
        #: counters and the interval samples read this.
        self.stats = RunStats()
        self.collector = TelemetryCollector(self.telemetry, predictor)
        self.sampler = (IntervalSampler(interval, self.stats)
                        if interval else None)
        self.writer = (
            TraceWriter(trace_path, every=trace_every) if trace_path else None
        )
        self._skip = skip
        self.finished = False

    # -- lifecycle -------------------------------------------------------

    def begin(self, *, workload: str, predictor: str, seed: int,
              branches: int) -> "TelemetrySession":
        """Write the trace header (no-op without a trace sink)."""
        if self.writer is not None:
            self.writer.write_header(
                workload=workload,
                predictor=predictor,
                seed=seed,
                branches=branches,
                interval=self.sampler.interval if self.sampler else 0,
            )
        return self

    def observe(self, outcome: PredictionOutcome) -> None:
        """The per-branch entry point (an engine ``observer``)."""
        if self._skip > 0:
            self._skip -= 1
            return
        self.stats.record(outcome)
        self.collector.observe(outcome)
        writer = self.writer
        if self.sampler is not None:
            sample = self.sampler.poll()
            if sample is not None and writer is not None:
                writer.write_interval(sample)
        if writer is not None:
            writer.observe(outcome)

    def finish(self, stats: Optional[RunStats] = None) -> "TelemetrySession":
        """End of run: harvest the fold's and the components' counters,
        flush the trailing interval window, write the trace summary
        (with *stats*, the engine's, when given), close the sink."""
        if self.finished:
            return self
        self.finished = True
        self.collector.harvest(self.stats)
        writer = self.writer
        if self.sampler is not None:
            tail = self.sampler.flush_partial()
            if tail is not None and writer is not None:
                writer.write_interval(tail)
        if writer is not None:
            stats_payload: Dict[str, object] = {}
            if stats is not None:
                from repro.verification.differential import comparable_stats

                stats_payload = comparable_stats(stats)
            writer.write_summary(stats_payload, self.telemetry.to_dict())
            writer.close()
        return self

    # -- output ----------------------------------------------------------

    @property
    def samples(self) -> List[Dict[str, object]]:
        return self.sampler.samples if self.sampler is not None else []

    def report(self, title: str = "telemetry") -> str:
        """The per-component text report."""
        return render_report(self.telemetry, title=title,
                             samples=self.samples)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable export: registry plus the time series."""
        payload = self.telemetry.to_dict()
        payload["samples"] = list(self.samples)
        return payload
