"""Run statistics: accuracy, provider breakdowns, MPKI.

The conclusion's headline metric is "the average number of mispredicted
branches per thousand instructions" (MPKI); a mispredicted branch is one
whose predicted direction was wrong or whose agreed-taken target was
wrong.  Everything else here is the supporting breakdown the paper's
figures discuss: provider distribution (figures 8/9), surprise-branch
classes (section IV), search behaviour (SKOOT/CPRED/BTB2, sections
III-IV).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.predictor import PredictionOutcome
from repro.core.providers import DirectionProvider, TargetProvider


class MispredictClass(enum.Enum):
    """Why (or whether) a branch disrupted the pipeline."""

    # Identity hash (a C-level slot) instead of Enum's Python-level
    # name hash: the per-branch class Counter hashes these constantly.
    __hash__ = object.__hash__

    #: Correct dynamic prediction, or a correctly-ignored surprise.
    NONE = "none"
    #: Dynamic prediction, wrong direction — full restart.
    DIRECTION_WRONG = "direction-wrong"
    #: Dynamic taken prediction, wrong target — full restart.
    TARGET_WRONG = "target-wrong"
    #: Surprise guessed not-taken that resolved taken — full restart.
    SURPRISE_TAKEN = "surprise-taken"
    #: Surprise guessed taken (relative): decode-time restart only.
    SURPRISE_GUESSED_TAKEN_RELATIVE = "surprise-guessed-taken-relative"
    #: Surprise guessed taken (indirect): front end waits for execution.
    SURPRISE_GUESSED_TAKEN_INDIRECT = "surprise-guessed-taken-indirect"
    #: Surprise guessed taken that resolved not taken — full restart.
    SURPRISE_GUESS_WRONG = "surprise-guess-wrong"


def classify(outcome: PredictionOutcome) -> MispredictClass:
    """Classify one prediction outcome for penalty accounting."""
    record = outcome.record
    actual = record.actual_taken
    if record.dynamic:
        # Field-level restatement of record.direction_wrong /
        # record.target_wrong (both gate on the branch being resolved).
        if actual is not None:
            if record.predicted_taken != actual:
                return MispredictClass.DIRECTION_WRONG
            if actual and record.predicted_target != record.actual_target:
                return MispredictClass.TARGET_WRONG
        return MispredictClass.NONE
    # Surprise branch.
    guessed_taken = record.predicted_taken
    actual_taken = bool(actual)
    if not guessed_taken:
        if actual_taken:
            return MispredictClass.SURPRISE_TAKEN
        return MispredictClass.NONE
    if not actual_taken:
        return MispredictClass.SURPRISE_GUESS_WRONG
    if record.predicted_target is None:
        return MispredictClass.SURPRISE_GUESSED_TAKEN_INDIRECT
    if record.predicted_target != record.actual_target:
        return MispredictClass.SURPRISE_GUESS_WRONG
    return MispredictClass.SURPRISE_GUESSED_TAKEN_RELATIVE


#: Classes that count as *mispredicted branches* for MPKI.
MISPREDICT_CLASSES = frozenset(
    {
        MispredictClass.DIRECTION_WRONG,
        MispredictClass.TARGET_WRONG,
        MispredictClass.SURPRISE_TAKEN,
        MispredictClass.SURPRISE_GUESS_WRONG,
    }
)


@dataclass
class RunStats:
    """Aggregated statistics for one simulation run."""

    branches: int = 0
    instructions: int = 0
    #: True when ``instructions`` was derived from the branch count via
    #: :data:`repro.engine.functional.INSTRUCTIONS_PER_BRANCH` rather
    #: than actually counted — MPKI is then an approximation too.
    instructions_approximate: bool = False
    dynamic_predictions: int = 0
    surprise_branches: int = 0
    taken_branches: int = 0
    mispredicted_branches: int = 0
    direction_wrong: int = 0
    target_wrong: int = 0
    classes: Counter = field(default_factory=Counter)
    #: Per direction provider: [predictions, correct].
    direction_providers: Dict[DirectionProvider, list] = field(default_factory=dict)
    #: Per target provider (on agreed-taken dynamic branches): [uses, correct].
    target_providers: Dict[TargetProvider, list] = field(default_factory=dict)
    # Search-pipeline behaviour.
    lines_searched: int = 0
    empty_searches: int = 0
    lines_skipped_by_skoot: int = 0
    skoot_overshoots: int = 0
    btb2_triggers: int = 0
    bad_predictions_removed: int = 0
    bad_taken_restarts: int = 0
    cpred_accelerated_streams: int = 0
    predicted_taken_dynamic: int = 0

    def record(self, outcome: PredictionOutcome) -> MispredictClass:
        """Fold one prediction outcome in; returns the class it folded,
        so a caller that needs it (the cycle engine's restart
        accounting) need not classify the outcome again."""
        record = outcome.record
        trace = outcome.trace
        dynamic = record.dynamic
        predicted_taken = record.predicted_taken
        actual_taken = record.actual_taken
        self.branches += 1
        if dynamic:
            self.dynamic_predictions += 1
        else:
            self.surprise_branches += 1
        if actual_taken:
            self.taken_branches += 1

        # classify() inlined for the dominant dynamic case; the
        # mispredict-set membership test becomes an identity chain
        # (MISPREDICT_CLASSES restated branch by branch).
        if dynamic:
            if actual_taken is None:
                klass = MispredictClass.NONE
            elif predicted_taken != actual_taken:
                klass = MispredictClass.DIRECTION_WRONG
            elif actual_taken and record.predicted_target != record.actual_target:
                klass = MispredictClass.TARGET_WRONG
            else:
                klass = MispredictClass.NONE
        else:
            klass = classify(outcome)
        self.classes[klass] += 1
        if klass is MispredictClass.DIRECTION_WRONG:
            self.mispredicted_branches += 1
            self.direction_wrong += 1
        elif klass is MispredictClass.TARGET_WRONG:
            self.mispredicted_branches += 1
            self.target_wrong += 1
        elif (
            klass is MispredictClass.SURPRISE_TAKEN
            or klass is MispredictClass.SURPRISE_GUESS_WRONG
        ):
            self.mispredicted_branches += 1

        providers = self.direction_providers
        provider_stats = providers.get(record.direction_provider)
        if provider_stats is None:
            provider_stats = providers[record.direction_provider] = [0, 0]
        provider_stats[0] += 1
        if predicted_taken == actual_taken:
            provider_stats[1] += 1

        if dynamic and predicted_taken:
            self.predicted_taken_dynamic += 1
            if actual_taken:
                targets = self.target_providers
                target_stats = targets.get(record.target_provider)
                if target_stats is None:
                    target_stats = targets[record.target_provider] = [0, 0]
                target_stats[0] += 1
                if record.predicted_target == record.actual_target:
                    target_stats[1] += 1

        self.lines_searched += trace.lines_searched
        self.empty_searches += trace.empty_searches
        self.lines_skipped_by_skoot += trace.lines_skipped_by_skoot
        self.btb2_triggers += trace.btb2_triggers
        self.bad_predictions_removed += trace.bad_predictions_removed
        self.bad_taken_restarts += trace.bad_taken_restarts
        if trace.skoot_overshoot:
            self.skoot_overshoots += 1
        if trace.cpred_accelerated:
            self.cpred_accelerated_streams += 1
        return klass

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def mpki(self) -> float:
        """Mispredicted branches per thousand instructions."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredicted_branches / self.instructions

    @property
    def branch_mpki(self) -> float:
        """Mispredicted branches per thousand *branches*."""
        if self.branches == 0:
            return 0.0
        return 1000.0 * self.mispredicted_branches / self.branches

    @property
    def direction_accuracy(self) -> float:
        """Fraction of branches whose direction was predicted correctly."""
        if self.branches == 0:
            return 0.0
        wrong = self.classes[MispredictClass.DIRECTION_WRONG] + self.classes[
            MispredictClass.SURPRISE_TAKEN
        ] + self.classes[MispredictClass.SURPRISE_GUESS_WRONG]
        return 1.0 - wrong / self.branches

    @property
    def dynamic_coverage(self) -> float:
        """Fraction of executed branches found in the BTB1 at search time."""
        if self.branches == 0:
            return 0.0
        return self.dynamic_predictions / self.branches

    def provider_share(self, provider: DirectionProvider) -> float:
        stats = self.direction_providers.get(provider)
        if stats is None or self.branches == 0:
            return 0.0
        return stats[0] / self.branches

    def provider_accuracy(self, provider: DirectionProvider) -> Optional[float]:
        stats = self.direction_providers.get(provider)
        if stats is None or stats[0] == 0:
            return None
        return stats[1] / stats[0]

    def target_provider_accuracy(self, provider: TargetProvider) -> Optional[float]:
        stats = self.target_providers.get(provider)
        if stats is None or stats[0] == 0:
            return None
        return stats[1] / stats[0]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self, title: str = "run") -> str:
        """A human-readable multi-line summary.

        Degenerate runs (zero branches, zero instructions) report the
        undefined ratios as ``n/a`` rather than a misleading 0.00%.
        """
        approx = " (approximate)" if self.instructions_approximate else ""
        if self.branches:
            coverage = f"{self.dynamic_coverage:6.2%}"
            accuracy = f"{self.direction_accuracy:6.2%}"
        else:
            coverage = accuracy = "   n/a"
        if self.instructions:
            mpki = f"{self.mpki:8.3f}{approx}"
        else:
            mpki = "     n/a"
        lines = [
            f"== {title} ==",
            f"branches:            {self.branches}",
            f"instructions:        {self.instructions}{approx}",
            f"dynamic coverage:    {coverage}",
            f"direction accuracy:  {accuracy}",
            f"mispredicts:         {self.mispredicted_branches}"
            f"  (direction {self.direction_wrong}, target {self.target_wrong})",
            f"MPKI:                {mpki}",
        ]
        lines.append("direction providers:")
        for provider, (count, correct) in sorted(
            self.direction_providers.items(), key=lambda kv: -kv[1][0]
        ):
            accuracy = correct / count if count else 0.0
            lines.append(
                f"  {provider.value:<14} {count:>8}  ({accuracy:6.2%} correct)"
            )
        if self.target_providers:
            lines.append("target providers (agreed-taken):")
            for provider, (count, correct) in sorted(
                self.target_providers.items(), key=lambda kv: -kv[1][0]
            ):
                accuracy = correct / count if count else 0.0
                lines.append(
                    f"  {provider.value:<14} {count:>8}  ({accuracy:6.2%} correct)"
                )
        return "\n".join(lines)
