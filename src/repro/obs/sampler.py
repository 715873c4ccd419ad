"""Interval time-series sampling: MPKI / accuracy / provider share.

"Branch Prediction Is Not a Solved Problem" localises accuracy problems
by *windowing* the run — a predictor that looks fine in aggregate can be
terrible in one phase.  The :class:`IntervalSampler` implements that
view: every ``interval`` counted branches it closes a window and emits
one sample with the window's misprediction rate, direction accuracy,
dynamic coverage and direction-provider share.  It reads the windows
off the session's :class:`~repro.stats.metrics.RunStats` fold.

MPKI inside a window is necessarily approximate when the stream carries
no per-branch instruction counts; the sampler derives it through the
engine's :data:`~repro.engine.functional.INSTRUCTIONS_PER_BRANCH`
density (the same approximation :class:`~repro.stats.metrics.RunStats`
flags via ``instructions_approximate``) and labels the field
``mpki_approx`` to keep that visible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.functional import INSTRUCTIONS_PER_BRANCH
from repro.stats.metrics import RunStats


def _window_counts(stats: RunStats) -> Tuple[int, int, int, int, int,
                                              Dict[str, int]]:
    """The fields a sample reads, as *stats* holds them now: branches,
    mispredicts, target-wrong mispredicts, dynamic predictions, taken
    branches and uses per direction provider."""
    return (
        stats.branches,
        stats.mispredicted_branches,
        stats.target_wrong,
        stats.dynamic_predictions,
        stats.taken_branches,
        {provider.value: uses
         for provider, (uses, _) in stats.direction_providers.items()},
    )


class IntervalSampler:
    """Windows a ``RunStats`` fold and emits per-interval samples.

    The sampler folds nothing itself: each window is the difference
    between two snapshots of *stats*, which the caller folds.
    """

    def __init__(self, interval: int = 1000,
                 stats: Optional[RunStats] = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.stats = stats if stats is not None else RunStats()
        self.samples: List[Dict[str, object]] = []
        self._start = _window_counts(self.stats)

    def poll(self) -> Optional[Dict[str, object]]:
        """Close the window once *stats* has folded a full interval past
        its start; returns the sample it closed, else None."""
        if self.stats.branches - self._start[0] >= self.interval:
            return self._flush()
        return None

    def _flush(self) -> Dict[str, object]:
        start = self._start
        end = self._start = _window_counts(self.stats)
        branches, mispredicts, target_wrong, dynamic, taken = (
            after - before for after, before in zip(end[:5], start[:5])
        )
        providers = {provider: uses - start[5].get(provider, 0)
                     for provider, uses in end[5].items()}
        instructions = branches * INSTRUCTIONS_PER_BRANCH
        sample: Dict[str, object] = {
            "index": len(self.samples),
            "branch_start": start[0],
            "branch_end": end[0],
            "branches": branches,
            "mispredicts": mispredicts,
            "accuracy": 1.0 - (mispredicts - target_wrong) / branches,
            "mpki_approx": 1000.0 * mispredicts / instructions,
            "dynamic_coverage": dynamic / branches,
            "taken_rate": taken / branches,
            "provider_share": {
                provider: uses / branches
                for provider, uses in sorted(providers.items()) if uses
            },
        }
        self.samples.append(sample)
        return sample

    def flush_partial(self) -> Optional[Dict[str, object]]:
        """Close a trailing partial window at end of run, if any."""
        if self.stats.branches == self._start[0]:
            return None
        return self._flush()
