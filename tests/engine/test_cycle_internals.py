"""Unit tests for the cycle engine's internal timing math."""

import pytest

from repro.configs import TimingConfig, z15_config
from repro.core import LookaheadBranchPredictor
from repro.engine.cycle import CycleEngine, _Clocks
from repro.frontend.icache import CacheLevelConfig, InstructionCacheHierarchy


def tiny_icache(memory_latency=100):
    return InstructionCacheHierarchy(
        levels=[
            CacheLevelConfig("L1I", 2048, line_size=128, associativity=2,
                             latency=4),
        ],
        memory_latency=memory_latency,
    )


def make_engine(**kwargs):
    return CycleEngine(LookaheadBranchPredictor(z15_config()),
                       icache=tiny_icache(), **kwargs)


class TestClocks:
    def test_clocks_created_per_thread(self):
        engine = make_engine()
        a = engine._clocks_for(0)
        b = engine._clocks_for(1)
        assert a is not b
        assert engine._clocks_for(0) is a

    def test_restart_resyncs_all_clocks_of_thread(self):
        engine = make_engine()
        clocks = engine._clocks_for(0)
        clocks.now = 100.0
        clocks.bpl_ready = 50.0
        clocks.fetch_clock = 60.0
        engine._apply_restart(clocks, penalty=35, resync_to=0x2000)
        assert clocks.now == 135.0
        assert clocks.bpl_ready == 135.0
        assert clocks.fetch_clock == 135.0
        assert clocks.fetch_point == 0x2000
        assert engine.stats.restart_cycles == 35
        assert engine.stats.restarts == 1

    def test_restart_without_resync_keeps_fetch_point(self):
        engine = make_engine()
        clocks = engine._clocks_for(0)
        clocks.fetch_point = 0x1234
        engine._apply_restart(clocks, penalty=8, resync_to=None)
        assert clocks.fetch_point == 0x1234


class TestFetchLines:
    def test_cold_miss_fully_exposed_when_bpl_not_ahead(self):
        engine = make_engine()
        clocks = engine._clocks_for(0)
        # BPL b0 at the same time fetch arrives: no lead, full exposure.
        engine._fetch_lines(clocks, 0x1000, 0x1004, bpl_b0_time=0.0)
        # Memory latency 100 beyond the 4-cycle L1 hit; one line touched.
        assert engine.stats.exposed_miss_cycles == 96
        assert engine.stats.hidden_miss_cycles == 0
        assert clocks.fetch_clock == pytest.approx(96.0)

    def test_lead_hides_latency(self):
        engine = make_engine()
        clocks = engine._clocks_for(0)
        clocks.fetch_clock = 150.0  # fetch arrives late; BPL searched at 0
        engine._fetch_lines(clocks, 0x1000, 0x1004, bpl_b0_time=10.0)
        # Lead = 150 - 10 = 140 >= effective latency 96: fully hidden.
        assert engine.stats.exposed_miss_cycles == 0
        assert engine.stats.hidden_miss_cycles == 96
        assert clocks.fetch_clock == pytest.approx(150.0)

    def test_hit_costs_nothing_extra(self):
        engine = make_engine()
        clocks = engine._clocks_for(0)
        engine.icache.access(0x1000)  # warm the line
        before = clocks.fetch_clock
        engine._fetch_lines(clocks, 0x1000, 0x1004, bpl_b0_time=0.0)
        assert clocks.fetch_clock == before
        assert engine.stats.exposed_miss_cycles == 0

    def test_prefetch_disabled_charges_beyond_l1(self):
        engine = make_engine(lookahead_prefetch=False)
        clocks = engine._clocks_for(0)
        engine._fetch_lines(clocks, 0x1000, 0x1004, bpl_b0_time=1000.0)
        # Exposure is latency minus the L1 hit cost, regardless of lead.
        timing = TimingConfig()
        assert engine.stats.exposed_miss_cycles == 100 - timing.l1i_latency

    def test_empty_range_is_noop(self):
        engine = make_engine()
        clocks = engine._clocks_for(0)
        engine._fetch_lines(clocks, 0x1000, 0x1000, bpl_b0_time=0.0)
        assert engine.icache.demand_accesses == 0


class TestRates:
    def test_intervals_by_mode(self):
        st = make_engine(smt2=False)
        smt = make_engine(smt2=True)
        assert st._search_interval == 1
        assert smt._search_interval == 2
        assert st._taken_interval == 5
        assert smt._taken_interval == 6
        assert st._fetch_bytes_per_cycle == 32
        assert smt._fetch_bytes_per_cycle == 16


class TestTimingBinding:
    def test_default_icache_follows_the_timing(self):
        engine = CycleEngine(LookaheadBranchPredictor(z15_config()),
                             timing=TimingConfig(l2i_extra_latency=20),
                             lookahead_prefetch=False)
        l1i = engine.icache.levels[0].config
        # One line more than the L1I's ways, all in one L1I set but in
        # distinct L2I sets: the first one now hits only in the L2I.
        stride = l1i.sets * l1i.line_size
        for way in range(l1i.associativity + 1):
            engine.icache.access(0x100000 + way * stride)
        l2i = engine.icache.levels[1]
        hits_before = l2i.hits
        engine._fetch_lines(engine._clocks_for(0), 0x100000, 0x100004,
                            bpl_b0_time=0.0)
        assert l2i.hits == hits_before + 1
        assert engine.stats.exposed_miss_cycles == 20

    @pytest.mark.parametrize("search_bytes,hidden", [(64, 2), (128, 1)])
    def test_lookahead_counts_the_timing_search_blocks(self, search_bytes,
                                                       hidden):
        engine = make_engine(
            timing=TimingConfig(search_bytes_per_cycle=search_bytes))
        # One cold 128B line fetched to its end: the BPL searched it
        # 128 // search_bytes intervals before b0, and that lead hides
        # as many of the 96 cycles its miss costs beyond an L1 hit.
        engine._fetch_lines(engine._clocks_for(0), 0x1000, 0x1080,
                            bpl_b0_time=0.0)
        assert engine.stats.hidden_miss_cycles == hidden
        assert engine.stats.exposed_miss_cycles == 96 - hidden
