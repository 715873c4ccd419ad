"""The functional simulation engine.

Drives any predictor implementing the *branch predictor protocol* (the
:class:`~repro.core.predictor.LookaheadBranchPredictor`, the array
backend in :mod:`repro.engine.array`, or one of the baselines) over a
workload, collecting :class:`~repro.stats.RunStats`.  This engine
measures *accuracy* (coverage, direction/target correctness, MPKI); the
cycle engine in :mod:`repro.engine.cycle` measures time.

The per-branch consume sequence lives in :mod:`repro.engine.kernel`,
shared with the cycle engine, so every backend runs one semantics
definition.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Iterable, Optional, Union

from repro.core.predictor import LookaheadBranchPredictor, PredictionOutcome
from repro.engine.kernel import (
    INSTRUCTIONS_PER_BRANCH,
    _chain_observers,
    drive_counted,
    run_warmup,
)
from repro.engine.specialize import effective_engine_mode, kernels_for
from repro.isa.dynamic import DynamicBranch
from repro.stats.metrics import RunStats
from repro.workloads.executor import Executor, StreamRecording, StreamReplay
from repro.workloads.multi import ContextSwitch, InterleavedRun
from repro.workloads.program import Program

__all__ = [
    "FunctionalEngine",
    "INSTRUCTIONS_PER_BRANCH",
    "_chain_observers",
]


class FunctionalEngine:
    """Feeds executed branches to a predictor and aggregates statistics.

    An optional *profile* (:class:`repro.stats.analysis.MispredictProfile`)
    receives every counted outcome for per-address analysis.  An optional
    *observer* callable receives every :class:`PredictionOutcome` —
    including warmup branches — in prediction order; the differential
    verification harness uses it to compare engines branch by branch.
    An optional *telemetry* session (:class:`repro.obs.session.
    TelemetrySession`, or anything with an ``observe(outcome)`` method)
    rides the same hook: its observe is chained after any explicit
    observer, so telemetry-off runs keep the ``observer is None`` fast
    path untouched.  An optional fault *injector*
    (:class:`repro.resilience.FaultInjector`, or anything with an
    ``observe(outcome)`` method) rides the same seam, chained last, so
    fault-off runs are byte-identical to pre-resilience builds.
    """

    def __init__(self, predictor: LookaheadBranchPredictor, profile=None,
                 observer=None, telemetry=None, injector=None,
                 engine_mode: str = "reference", spans=None):
        self.predictor = predictor
        self.stats = RunStats()
        self.profile = profile
        self.telemetry = telemetry
        self.injector = injector
        #: Optional :class:`repro.obs.spans.SpanTracer` receiving
        #: ``engine.warmup``/``engine.counted``/``engine.finalize`` phase
        #: timings from :meth:`run_program`.  Spans only observe — the
        #: default off path pays one truthiness check per phase and
        #: results stay byte-identical either way.
        self.spans = spans
        self.observer = _chain_observers(observer, telemetry, injector)
        #: The mode actually driving this engine: ``fast`` compiles (or
        #: fetches from cache) the config-specialized kernels; baseline
        #: predictors have no specialized kernel and silently fall back
        #: to ``reference``.
        self.engine_mode = effective_engine_mode(engine_mode, predictor)
        self._kernels = (
            kernels_for(predictor) if self.engine_mode == "fast" else None
        )

    def _record(self, outcome) -> None:
        self.stats.record(outcome)
        if self.profile is not None:
            self.profile.record(outcome)

    def run_program(
        self,
        program: Program,
        max_branches: int,
        seed: int = 1,
        warmup_branches: int = 0,
    ) -> RunStats:
        """Execute *program* and predict every branch.

        With *warmup_branches* the first that many branches train the
        predictor without being counted (steady-state measurement).
        """
        return self._drive(Executor(program, seed=seed), program.entry_point,
                           max_branches, warmup_branches)

    def run_recording(
        self,
        recording: StreamRecording,
        max_branches: int,
        warmup_branches: int = 0,
    ) -> RunStats:
        """Predict a taped executor run exactly as :meth:`run_program`
        predicts the live one: the same warmup split, the same stats,
        ``instructions`` included.  The recording must hold
        ``warmup_branches + max_branches`` branches or more."""
        return self._drive(StreamReplay(recording), recording.entry_point,
                           max_branches, warmup_branches)

    def _drive(self, executor, entry_point: int, max_branches: int,
               warmup_branches: int) -> RunStats:
        """The warmup and counted phases over *executor*: a live
        :class:`Executor` or a :class:`StreamReplay`."""
        self.predictor.restart(entry_point, context=0)
        observer = self.observer
        profile = self.profile
        spans = self.spans
        counted_instructions_start = 0
        stream = executor.run(max_branches=warmup_branches + max_branches)
        kernels = self._kernels
        if kernels is not None:
            predictor = self.predictor
            if warmup_branches > 0:
                if spans:
                    phase_start = time.perf_counter()
                if observer is None:
                    consumed = kernels.warmup_bare(
                        predictor, stream, warmup_branches
                    )
                else:
                    consumed = kernels.warmup_observed(
                        predictor, stream, warmup_branches, observer
                    )
                if spans:
                    spans.observe("engine.warmup",
                                  time.perf_counter() - phase_start,
                                  branches=warmup_branches)
                if consumed == warmup_branches:
                    counted_instructions_start = executor.instructions_executed
            if spans:
                phase_start = time.perf_counter()
            if observer is None and profile is None:
                kernels.counted_bare(predictor, stream, self.stats)
            else:
                kernels.counted_observed(
                    predictor,
                    stream,
                    self.stats,
                    observer,
                    profile.record if profile is not None else None,
                )
            if spans:
                spans.observe("engine.counted",
                              time.perf_counter() - phase_start,
                              branches=max_branches)
        else:
            predict = self.predictor.predict_and_resolve
            if warmup_branches > 0:
                if spans:
                    phase_start = time.perf_counter()
                consumed = run_warmup(
                    predict, stream, warmup_branches, observer
                )
                if spans:
                    spans.observe("engine.warmup",
                                  time.perf_counter() - phase_start,
                                  branches=warmup_branches)
                if consumed == warmup_branches:
                    counted_instructions_start = executor.instructions_executed
            if spans:
                phase_start = time.perf_counter()
            drive_counted(
                predict,
                stream,
                self.stats.record,
                observer=observer,
                extra=profile.record if profile is not None else None,
            )
            if spans:
                spans.observe("engine.counted",
                              time.perf_counter() - phase_start,
                              branches=max_branches)
        if spans:
            with spans.span("engine.finalize"):
                self.predictor.finalize()
        else:
            self.predictor.finalize()
        self.stats.instructions = (
            executor.instructions_executed - counted_instructions_start
        )
        return self.stats

    def run_branches(
        self,
        branches: Iterable[DynamicBranch],
        instructions: Optional[int] = None,
        restart_at: Optional[int] = None,
    ) -> RunStats:
        """Predict a pre-recorded branch stream (e.g. a loaded trace)."""
        observer = self.observer
        profile = self.profile
        kernels = self._kernels
        if kernels is not None:
            count = 0
            iterator = iter(branches)
            head = next(iterator, None)
            if head is not None:
                start = restart_at if restart_at is not None else head.address
                self.predictor.restart(start, context=head.context)
                stream = chain((head,), iterator)
                if observer is None and profile is None:
                    count = kernels.counted_bare(
                        self.predictor, stream, self.stats
                    )
                else:
                    count = kernels.counted_observed(
                        self.predictor,
                        stream,
                        self.stats,
                        observer,
                        profile.record if profile is not None else None,
                    )
            self.predictor.finalize()
            if instructions is not None:
                self.stats.instructions = instructions
            else:
                self.stats.instructions = count * INSTRUCTIONS_PER_BRANCH
                self.stats.instructions_approximate = True
            return self.stats
        predict = self.predictor.predict_and_resolve
        record = self.stats.record
        fast = observer is None and profile is None
        first = True
        count = 0
        for branch in branches:
            if first:
                start = restart_at if restart_at is not None else branch.address
                self.predictor.restart(start, context=branch.context)
                first = False
            outcome = predict(branch)
            if fast:
                record(outcome)
            else:
                if observer is not None:
                    observer(outcome)
                self._record(outcome)
            count += 1
        self.predictor.finalize()
        if instructions is not None:
            self.stats.instructions = instructions
        else:
            # Without real instruction counts, approximate with the
            # paper's branch density and flag the derived MPKI.
            self.stats.instructions = count * INSTRUCTIONS_PER_BRANCH
            self.stats.instructions_approximate = True
        return self.stats

    def run_events(
        self,
        events: Iterable[Union[DynamicBranch, ContextSwitch]],
        instructions: Optional[int] = None,
    ) -> RunStats:
        """Drive an interleaved multi-context event stream."""
        observer = self.observer
        profile = self.profile
        kernels = self._kernels
        if kernels is not None:
            if observer is None and profile is None:
                count = kernels.events_bare(self.predictor, events, self.stats)
            else:
                count = kernels.events_observed(
                    self.predictor,
                    events,
                    self.stats,
                    observer,
                    profile.record if profile is not None else None,
                )
            self.predictor.finalize()
            if instructions is not None:
                self.stats.instructions = instructions
            else:
                self.stats.instructions = count * INSTRUCTIONS_PER_BRANCH
                self.stats.instructions_approximate = True
            return self.stats
        predict = self.predictor.predict_and_resolve
        record = self.stats.record
        fast = observer is None and profile is None
        count = 0
        for event in events:
            if isinstance(event, ContextSwitch):
                self.predictor.context_switch(
                    event.entry_point, event.context, event.thread
                )
                continue
            outcome = predict(event)
            if fast:
                record(outcome)
            else:
                if observer is not None:
                    observer(outcome)
                self._record(outcome)
            count += 1
        self.predictor.finalize()
        if instructions is not None:
            self.stats.instructions = instructions
        else:
            self.stats.instructions = count * INSTRUCTIONS_PER_BRANCH
            self.stats.instructions_approximate = True
        return self.stats

    def run_interleaved(
        self, run: InterleavedRun, total_branches: int
    ) -> RunStats:
        """Convenience wrapper for :class:`InterleavedRun`."""
        stats = self.run_events(run.run(total_branches))
        stats.instructions = run.instructions_executed
        stats.instructions_approximate = False
        return stats
