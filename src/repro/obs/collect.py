"""Folding prediction outcomes and component state into the registry.

Three sources feed the :class:`~repro.obs.telemetry.Telemetry`
registry:

* **The run's own fold** — a telemetry session folds every counted
  branch once, with :meth:`~repro.stats.metrics.RunStats.record`, and
  at harvest the :class:`TelemetryCollector` sets the counters that
  fold already holds (:func:`stats_counters`: BTB1 hits and surprises,
  the search walk, SKOOT, CPRED, BTB2 triggers, direction and target
  provider use and correctness, taken branches and mispredict classes).

* **Per-branch events** — the collector is also an engine ``observer``
  for what ``RunStats`` does not count: walk-capped searches, the TAGE
  provider/alternate split, perceptron overrides, power gating, and the
  lines-per-branch and GPQ-occupancy histograms.  This path only runs
  when telemetry is attached, preserving the engines' ``observer is
  None`` fast paths.

* **Component harvest** — at snapshot time :func:`harvest_components`
  pulls every core structure's native plain-int statistics (via the
  ``component_counters()`` methods the structures already maintain at
  zero cost) into gauges, so the report can show transfer-queue dedup
  rates, write-backs, occupancy and the rest without any per-branch
  bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.predictor import LookaheadBranchPredictor, PredictionOutcome
from repro.core.providers import DirectionProvider
from repro.obs.telemetry import Telemetry
from repro.stats.metrics import RunStats

#: GPQ occupancy histogram buckets (the z15 GPQ holds tens of entries).
GPQ_BOUNDS = (0, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64)

#: Lines-searched-per-branch histogram buckets.
SEARCH_BOUNDS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 32)

#: Registry counters that are plain ``RunStats`` fields: (counter, field).
STATS_FIELDS = (
    ("btb1.dynamic_hits", "dynamic_predictions"),
    ("btb1.surprise_misses", "surprise_branches"),
    ("btb1.bad_predictions_removed", "bad_predictions_removed"),
    ("btb1.bad_taken_restarts", "bad_taken_restarts"),
    ("btb2.search_triggers", "btb2_triggers"),
    ("cpred.accelerated_streams", "cpred_accelerated_streams"),
    ("direction.predicted_taken_dynamic", "predicted_taken_dynamic"),
    ("engine.mispredicted_branches", "mispredicted_branches"),
    ("engine.taken_branches", "taken_branches"),
    ("search.empty", "empty_searches"),
    ("search.lines_searched", "lines_searched"),
    ("skoot.lines_skipped", "lines_skipped_by_skoot"),
    ("skoot.overshoots", "skoot_overshoots"),
)


def stats_counters(stats: RunStats) -> Dict[str, int]:
    """The registry counters a ``RunStats`` fold holds, by name.

    A counter is present only when nonzero, as per-branch increments
    would have created it; ``engine.branches``, which a registry always
    carries, is the caller's.
    """
    counts = {name: getattr(stats, field) for name, field in STATS_FIELDS}
    for provider, (uses, correct) in stats.direction_providers.items():
        counts[f"direction.provider.{provider.value}"] = uses
        counts[f"direction.correct.{provider.value}"] = correct
    for provider, (uses, correct) in stats.target_providers.items():
        counts[f"target.provider.{provider.value}"] = uses
        counts[f"target.correct.{provider.value}"] = correct
    for klass, count in stats.classes.items():
        counts[f"mispredict.{klass.value}"] = count
    return {name: value for name, value in counts.items() if value}


class TelemetryCollector:
    """An engine observer for what ``RunStats`` does not count, and the
    harvest of what it does."""

    def __init__(
        self,
        telemetry: Telemetry,
        predictor: Optional[LookaheadBranchPredictor] = None,
    ):
        self.telemetry = telemetry
        self.predictor = predictor
        # Instruments the per-branch path touches, bound once: observe()
        # runs for every branch of a telemetry-on run.
        self._gpq_occupancy = telemetry.histogram("gpq.occupancy", GPQ_BOUNDS)
        self._lines_per_branch = telemetry.histogram(
            "search.lines_per_branch", SEARCH_BOUNDS
        )

    def observe(self, outcome: PredictionOutcome) -> None:
        """Fold one outcome's events that ``RunStats`` does not count."""
        record = outcome.record
        trace = outcome.trace
        inc = self.telemetry.inc
        self._lines_per_branch.observe(trace.lines_searched)
        if trace.walk_capped:
            inc("search.walk_capped")
        predicted_taken = record.predicted_taken
        correct = predicted_taken == record.actual_taken

        # TAGE provider / alternate-provider split (§V): which PHT table
        # provided, and what the tracked alternate would have done.
        snapshot = record.tage
        if snapshot is not None and snapshot.provider is not None:
            inc(f"tage.provider.{snapshot.provider}")
            alternate = record.alternate_taken
            if alternate is not None and alternate != predicted_taken:
                inc("tage.alternate_disagreed")
                if correct:
                    inc("tage.provider_beat_alternate")
                elif alternate == record.actual_taken:
                    inc("tage.alternate_beat_provider")

        # Perceptron overrides (§V): the perceptron only ever *overrides*
        # the figure-8 chain, so provider==perceptron is an override.
        if record.direction_provider is DirectionProvider.PERCEPTRON:
            inc("perceptron.overrides")
            if correct:
                inc("perceptron.overrides_correct")
            alternate = record.alternate_taken
            if alternate is not None and alternate != predicted_taken:
                if correct:
                    inc("perceptron.override_saves")
                else:
                    inc("perceptron.override_damage")

        # --- Power gating (§VI) ----------------------------------------
        if not record.pht_powered:
            inc("power.pht_gated")
        if not record.perceptron_powered:
            inc("power.perceptron_gated")
        if not record.ctb_powered:
            inc("power.ctb_gated")

        # --- GPQ occupancy (sampled after this branch's push/retire) ---
        predictor = self.predictor
        if predictor is not None:
            self._gpq_occupancy.observe(len(predictor.gpq))

    def harvest(self, stats: RunStats) -> None:
        """Set the counters *stats* folds and pull component-native
        statistics into gauges (snapshot time)."""
        counter = self.telemetry.counter
        counter("engine.branches").value = stats.branches
        for name, value in stats_counters(stats).items():
            counter(name).value = value
        if self.predictor is not None:
            harvest_components(self.telemetry, self.predictor)


def harvest_components(
    telemetry: Telemetry, predictor: LookaheadBranchPredictor
) -> None:
    """Fold every core structure's native counters into the registry.

    The structures keep these as plain-int attributes whether or not
    telemetry is attached (the PR-2 hot paths are untouched); this just
    snapshots them under the component's dotted prefix.
    """
    for component, counts in predictor.component_counters().items():
        telemetry.merge_counts(component, counts)
