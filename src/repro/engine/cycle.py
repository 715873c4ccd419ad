"""The cycle-level engine.

A trace-driven timing model of the z15 front end around the functional
predictor: it reproduces the pipeline behaviours the paper quantifies —
the 6-cycle b0..b5 search pipeline and its taken-branch intervals
(5 ST / 6 SMT2 / 2 with CPRED, figures 4-7), the 64B-per-cycle search
versus 32B-per-cycle fetch race (section IV), restart penalties (~26
cycles, ~35 statistical, section II.D), and lookahead I-cache
prefetching that hides miss latency (sections II.C, IV).

It is a cycle-*level* model, not RTL-exact: the out-of-order back end is
summarised by the paper's own statistical penalties.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

from repro.common.slots import add_slots
from repro.configs.timing import TimingConfig
from repro.core.predictor import LookaheadBranchPredictor, PredictionOutcome
from repro.engine.kernel import _chain_observers
from repro.engine.specialize import effective_engine_mode, kernels_for
from repro.frontend.icache import (
    InstructionCacheHierarchy,
    z15_hierarchy_configs,
)
from repro.stats.metrics import MispredictClass, RunStats
from repro.workloads.executor import Executor
from repro.workloads.program import Program

_NONE = MispredictClass.NONE
_GUESSED_TAKEN_RELATIVE = MispredictClass.SURPRISE_GUESSED_TAKEN_RELATIVE
_GUESSED_TAKEN_INDIRECT = MispredictClass.SURPRISE_GUESSED_TAKEN_INDIRECT


@dataclass
class CycleStats:
    """Timing results of one cycle-level run."""

    cycles: int = 0
    instructions: int = 0
    branches: int = 0
    #: Cycles the dispatch stage waited on branch prediction delivery.
    bpl_wait_cycles: int = 0
    #: Cycles dispatch waited on instruction fetch (exposed I-miss etc).
    fetch_wait_cycles: int = 0
    #: Restart penalties (all flavours).
    restart_cycles: int = 0
    #: Exposed I-cache miss cycles after prefetch overlap.
    exposed_miss_cycles: int = 0
    #: I-cache miss cycles hidden by lookahead prefetch.
    hidden_miss_cycles: int = 0
    #: Taken-branch redirects that ran at the CPRED-accelerated interval.
    cpred_redirects: int = 0
    taken_redirects: int = 0
    restarts: int = 0
    accuracy: RunStats = field(default_factory=RunStats)
    cache_levels: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def report(self, title: str = "cycle run") -> str:
        lines = [
            f"== {title} ==",
            f"instructions:        {self.instructions}",
            f"branches:            {self.branches}",
            f"cycles:              {self.cycles}",
            f"CPI:                 {self.cpi:6.3f}",
            f"restart cycles:      {self.restart_cycles}"
            f"  ({self.restarts} restarts)",
            f"BPL wait cycles:     {self.bpl_wait_cycles}",
            f"fetch wait cycles:   {self.fetch_wait_cycles}",
            f"exposed miss cycles: {self.exposed_miss_cycles}",
            f"hidden miss cycles:  {self.hidden_miss_cycles}",
            f"taken redirects:     {self.taken_redirects}"
            f"  (CPRED-accelerated {self.cpred_redirects})",
            f"MPKI:                {self.accuracy.mpki:8.3f}",
        ]
        return "\n".join(lines)


@add_slots
@dataclass
class _Clocks:
    """Per-thread front-end clocks."""

    now: float = 0.0
    bpl_ready: float = 0.0
    fetch_clock: float = 0.0
    fetch_point: int = 0


class CycleEngine:
    """Drives a program through the predictor with front-end timing."""

    def __init__(
        self,
        predictor: LookaheadBranchPredictor,
        icache: Optional[InstructionCacheHierarchy] = None,
        timing: Optional[TimingConfig] = None,
        smt2: bool = False,
        lookahead_prefetch: bool = True,
        observer=None,
        telemetry=None,
        injector=None,
        engine_mode: str = "reference",
        spans=None,
    ):
        self.predictor = predictor
        self.timing = (timing if timing is not None else TimingConfig()).validate()
        self.icache = (
            icache if icache is not None
            else InstructionCacheHierarchy(
                z15_hierarchy_configs(timing=self.timing))
        )
        self.smt2 = smt2
        self.lookahead_prefetch = lookahead_prefetch
        self._bind_timing()
        #: Optional callable receiving every PredictionOutcome in
        #: prediction order (differential cross-engine checking); an
        #: optional telemetry session and fault injector ride the same
        #: hook (see :class:`repro.engine.functional.FunctionalEngine`).
        self.telemetry = telemetry
        self.injector = injector
        #: Optional :class:`repro.obs.spans.SpanTracer` receiving the
        #: ``engine.counted``/``engine.finalize`` phase timings of
        #: :meth:`run_program` (the cycle engine has no warmup phase).
        #: Spans only observe; results are identical with tracing off.
        self.spans = spans
        self.observer = _chain_observers(observer, telemetry, injector)
        self.stats = CycleStats()
        #: Timing needs every per-branch outcome, so ``fast`` here swaps
        #: the reference ``predict_and_resolve`` pyramid for the flat
        #: single-branch specialized kernel (same outcome objects, same
        #: state transitions, fewer Python frames per branch).
        self.engine_mode = effective_engine_mode(engine_mode, predictor)
        self._kernels = (
            kernels_for(predictor) if self.engine_mode == "fast" else None
        )
        # Per-thread clocks (thread 0 for single-thread runs).
        self._clocks: Dict[int, _Clocks] = {}

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------

    def _bind_timing(self) -> None:
        """Bind every rate and cost the per-branch timing reads.

        Like the predictor's gate flags (INTERNALS §9), these are read
        once: changing ``smt2``, ``timing`` or ``lookahead_prefetch`` on
        a live engine has no effect.
        """
        timing = self.timing
        smt2 = self.smt2
        #: Cycles per sequential search (SMT2 shares the one port).
        self._search_interval = 2 if smt2 else 1
        self._taken_interval = (
            timing.taken_interval_smt2 if smt2 else timing.taken_interval_st
        )
        self._cpred_interval = timing.taken_interval_cpred
        rate = timing.fetch_bytes_per_cycle
        self._fetch_bytes_per_cycle = rate / 2 if smt2 else rate
        self._search_bytes = timing.search_bytes_per_cycle
        #: A prediction searched at b0 delivers at the pipe's last stage.
        self._delivery_lag = timing.bpl_pipeline_depth - 1
        self._dispatch_width = timing.dispatch_width
        self._decode_penalty = timing.decode_restart_penalty
        self._indirect_penalty = (timing.decode_restart_penalty
                                  + timing.indirect_resolution_delay)
        self._statistical_penalty = timing.statistical_restart_penalty
        self._l1i_latency = timing.l1i_latency
        self._line_size = self.icache.line_size
        self._prefetch = self.lookahead_prefetch

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run_program(
        self, program: Program, max_branches: int, seed: int = 1
    ) -> CycleStats:
        executor = Executor(program, seed=seed)
        self.predictor.restart(program.entry_point, context=0)
        clocks = self._clocks_for(0)
        clocks.fetch_point = program.entry_point
        instructions_before = 0
        predict = self._predict_callable()
        observer = self.observer
        record = self.stats.accuracy.record
        advance = self._advance
        spans = self.spans
        if spans:
            phase_start = time.perf_counter()
        # The engines' consume order: predict, observer, record; then
        # the timing advance, which takes the class record folded.
        for branch in executor.run(max_branches=max_branches):
            executed = executor.instructions_executed
            gap = executed - instructions_before - 1
            instructions_before = executed
            outcome = predict(branch)
            if observer is not None:
                observer(outcome)
            advance(clocks, branch, outcome, gap, record(outcome))
        if spans:
            spans.observe("engine.counted",
                          time.perf_counter() - phase_start,
                          branches=max_branches)
            with spans.span("engine.finalize"):
                self.predictor.finalize()
        else:
            self.predictor.finalize()
        self.stats.instructions = executor.instructions_executed
        self.stats.branches = executor.branches_executed
        self.stats.accuracy.instructions = executor.instructions_executed
        self.stats.cycles = int(clocks.now)
        for name, accesses, hits in self.icache.level_stats():
            self.stats.cache_levels[name] = {"accesses": accesses, "hits": hits}
        return self.stats

    def run_smt2(
        self, program_a: Program, program_b: Program,
        max_branches: int, seed: int = 1,
    ) -> CycleStats:
        """Two SMT threads through the shared predictor and I-cache.

        Each thread keeps its own clocks; the shared-port cost is the
        SMT2 search/fetch rates (construct the engine with ``smt2=True``).
        Total cycles = the slower thread's clock.
        """
        from repro.workloads.multi import ContextSwitch, Smt2Run

        run = Smt2Run(program_a, program_b, seed=seed)
        instructions_before = {0: 0, 1: 0}
        predict = self._predict_callable()
        observer = self.observer
        record = self.stats.accuracy.record
        for event in run.run(max_branches):
            if isinstance(event, ContextSwitch):
                self.predictor.restart(event.entry_point,
                                       context=event.context,
                                       thread=event.thread)
                self._clocks_for(event.thread).fetch_point = event.entry_point
                continue
            thread = event.thread
            executor = run._executors[thread]
            gap = (executor.instructions_executed
                   - instructions_before[thread] - 1)
            instructions_before[thread] = executor.instructions_executed
            outcome = predict(event)
            if observer is not None:
                observer(outcome)
            self._advance(self._clocks_for(thread), event, outcome,
                          max(0, gap), record(outcome))
        self.predictor.finalize()
        self.stats.instructions = run.instructions_executed
        self.stats.branches = max_branches
        self.stats.accuracy.instructions = run.instructions_executed
        self.stats.cycles = int(max(c.now for c in self._clocks.values()))
        for name, accesses, hits in self.icache.level_stats():
            self.stats.cache_levels[name] = {"accesses": accesses, "hits": hits}
        return self.stats

    def _predict_callable(self):
        """The per-branch predict entry point for the selected mode."""
        if self._kernels is None:
            return self.predictor.predict_and_resolve
        return partial(self._kernels.predict_flat, self.predictor)

    def _clocks_for(self, thread: int) -> _Clocks:
        clocks = self._clocks.get(thread)
        if clocks is None:
            clocks = _Clocks()
            self._clocks[thread] = clocks
        return clocks

    # ------------------------------------------------------------------
    # Per-branch timing
    # ------------------------------------------------------------------

    def _advance(self, clocks: _Clocks, branch, outcome: PredictionOutcome,
                 gap: int, klass: MispredictClass) -> None:
        """Advance one thread's clocks across one branch (plus its
        leading non-branch instructions); *klass* is the outcome's
        class, as ``RunStats.record`` returned it."""
        trace = outcome.trace
        record = outcome.record
        stats = self.stats

        # --- BPL side: when was this branch's prediction delivered? ---
        b0_time = clocks.bpl_ready
        if trace.lines_searched > 1:
            b0_time += (trace.lines_searched - 1) * self._search_interval
        delivered = b0_time + self._delivery_lag
        if record.dynamic and record.predicted_taken:
            stats.taken_redirects += 1
            if trace.cpred_accelerated:
                stats.cpred_redirects += 1
                clocks.bpl_ready = b0_time + self._cpred_interval
            else:
                clocks.bpl_ready = b0_time + self._taken_interval
        else:
            clocks.bpl_ready = b0_time + self._search_interval

        # --- Fetch side: deliver bytes up to the end of the branch. ---
        fetch_end = branch.next_sequential
        fetch_point = clocks.fetch_point
        if fetch_end > fetch_point:
            self._fetch_lines(clocks, fetch_point, fetch_end, b0_time)
            clocks.fetch_clock += (
                (fetch_end - fetch_point) / self._fetch_bytes_per_cycle
            )
        clocks.fetch_point = fetch_end

        # --- Dispatch: strict synchronisation with prediction. ---
        base = clocks.now + gap / self._dispatch_width
        fetch_clock = clocks.fetch_clock
        ready = max(base, fetch_clock)
        if delivered > ready:
            stats.bpl_wait_cycles += int(delivered - ready)
            clocks.now = delivered
        else:
            if fetch_clock > base:
                stats.fetch_wait_cycles += int(fetch_clock - base)
            clocks.now = ready

        # --- Bad predictions found during the walk. ---
        if trace.bad_taken_restarts:
            penalty = trace.bad_taken_restarts * self._decode_penalty
            self._apply_restart(clocks, penalty, resync_to=None)

        # --- Resolution ---
        if klass is _NONE:
            if branch.taken:
                # Correct taken prediction: fetch redirects to the target;
                # the redirect is free when the BPL ran ahead.
                if delivered > clocks.fetch_clock:
                    clocks.fetch_clock = delivered
                clocks.fetch_point = branch.target
            return
        if klass is _GUESSED_TAKEN_RELATIVE:
            penalty = self._decode_penalty
        elif klass is _GUESSED_TAKEN_INDIRECT:
            penalty = self._indirect_penalty
        else:
            penalty = self._statistical_penalty
        self._apply_restart(clocks, penalty, branch.next_address)

    def _fetch_lines(self, clocks: _Clocks, start: int, end: int,
                     bpl_b0_time: float) -> None:
        """Access every I-cache line fetch touches in [start, end).

        The BPL searched these lines earlier (64B/cycle versus fetch's
        32B/cycle) and prefetched them; the exposed latency is whatever
        the accumulated lead could not cover.  L1 hits pipeline at full
        fetch bandwidth: only latency beyond the L1 hit can stall.
        """
        if end <= start:
            return
        access = self.icache.access
        stats = self.stats
        l1i_latency = self._l1i_latency
        line_size = self._line_size
        line = (start // line_size) * line_size
        if not self._prefetch:
            while line < end:
                extra = access(line).latency - l1i_latency
                if extra > 0:
                    stats.exposed_miss_cycles += extra
                    clocks.fetch_clock += extra
                line += line_size
            return
        while line < end:
            effective = access(line).latency - l1i_latency
            if effective > 0:
                # The BPL search of this line preceded the branch's b0
                # by one search interval per search block of remaining
                # stream; the lead it built hides what it covered.
                lines_ahead = (end - line) // self._search_bytes
                bpl_time = bpl_b0_time - lines_ahead * self._search_interval
                fetch_clock = clocks.fetch_clock
                arrival = max(
                    fetch_clock,
                    (line - start) / self._fetch_bytes_per_cycle + fetch_clock,
                )
                lead = arrival - bpl_time
                exposed = max(0.0, effective - max(0.0, lead))
                stats.exposed_miss_cycles += int(exposed)
                stats.hidden_miss_cycles += int(effective - exposed)
                clocks.fetch_clock = fetch_clock + exposed
            line += line_size

    def _apply_restart(self, clocks: _Clocks, penalty: float,
                       resync_to: Optional[int]) -> None:
        self.stats.restart_cycles += int(penalty)
        self.stats.restarts += 1
        clocks.now += penalty
        clocks.bpl_ready = clocks.now
        clocks.fetch_clock = clocks.now
        if resync_to is not None:
            clocks.fetch_point = resync_to
