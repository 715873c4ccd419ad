"""The recency-list I-cache against the table-backed one it replaced.

``ReferenceLevel`` below is the level built on
``SetAssociativeTable(policy="lru")`` (a way array, a ``TrueLru`` per
set, a match callback per probe).  Random access/fill/probe sequences
on small geometries must get the same answers and the same counters
from both, after every step; the hierarchy's demand and prefetch ports
likewise.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frontend.icache import (
    AccessResult,
    CacheLevel,
    CacheLevelConfig,
    InstructionCacheHierarchy,
)
from repro.structures.assoc import SetAssociativeTable


class ReferenceLevel:
    """One tag-only level on a true-LRU set-associative table."""

    def __init__(self, config: CacheLevelConfig):
        config.validate()
        self.config = config
        sets = config.sets
        self._set_bits = sets.bit_length() - 1
        self._table = SetAssociativeTable(
            rows=sets, ways=config.associativity, policy="lru"
        )
        self.accesses = 0
        self.hits = 0
        self.fills = 0

    def _set_of(self, address):
        return ((address // self.config.line_size)
                & ((1 << self._set_bits) - 1))

    def _tag_of(self, address):
        return (address // self.config.line_size) >> self._set_bits

    def probe(self, address):
        tag = self._tag_of(address)
        return self._table.find(self._set_of(address),
                                lambda t: t == tag) is not None

    def access(self, address):
        self.accesses += 1
        row = self._set_of(address)
        tag = self._tag_of(address)
        found = self._table.find(row, lambda t: t == tag)
        if found is not None:
            self.hits += 1
            self._table.touch(row, found[0])
            return True
        return False

    def fill(self, address):
        row = self._set_of(address)
        tag = self._tag_of(address)
        if self._table.find(row, lambda t: t == tag) is not None:
            return
        self._table.install(row, tag)
        self.fills += 1


class ReferenceHierarchy:
    """The inclusive demand/prefetch walk over reference levels."""

    def __init__(self, configs, memory_latency):
        self.levels = [ReferenceLevel(config) for config in configs]
        self.memory_latency = memory_latency
        self.demand_accesses = 0
        self.prefetches = 0
        self.useless_prefetch_filter = 0

    def access(self, address):
        self.demand_accesses += 1
        for depth, level in enumerate(self.levels):
            if level.access(address):
                for upper in self.levels[:depth]:
                    upper.fill(address)
                return level.config.latency, level.config.name
        for level in self.levels:
            level.fill(address)
        return self.memory_latency, "memory"

    def prefetch(self, address):
        if self.levels[0].probe(address):
            self.useless_prefetch_filter += 1
            return None
        self.prefetches += 1
        for depth, level in enumerate(self.levels[1:], start=1):
            if level.probe(address):
                for upper in self.levels[:depth]:
                    upper.fill(address)
                return level.config.latency, level.config.name
        for level in self.levels:
            level.fill(address)
        return self.memory_latency, "memory"


@st.composite
def level_configs(draw, name="L"):
    line_size = draw(st.sampled_from((16, 64, 128)))
    ways = draw(st.integers(min_value=1, max_value=4))
    sets = draw(st.sampled_from((1, 2, 4, 8)))
    return CacheLevelConfig(name, sets * ways * line_size,
                            line_size=line_size, associativity=ways,
                            latency=draw(st.integers(1, 60)))


def counters(level):
    return level.accesses, level.hits, level.fills


@given(config=level_configs(), data=st.data())
def test_level_matches_table_backed_lru(config, data):
    level = CacheLevel(config)
    reference = ReferenceLevel(config)
    # About three lines per way, so sets fill, evict and re-hit.
    span = config.size_bytes * 3
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(("access", "fill", "probe")),
                  st.integers(0, span)),
        max_size=200,
    ))
    for op, address in ops:
        assert getattr(level, op)(address) == getattr(reference, op)(address)
        assert counters(level) == counters(reference)


@given(configs=st.lists(level_configs(), min_size=1, max_size=3),
       memory_latency=st.integers(1, 300), data=st.data())
def test_hierarchy_matches_table_backed_walk(configs, memory_latency, data):
    configs = [dataclasses.replace(config, name=f"L{depth}")
               for depth, config in enumerate(configs)]
    hierarchy = InstructionCacheHierarchy(levels=configs,
                                          memory_latency=memory_latency)
    reference = ReferenceHierarchy(configs, memory_latency)
    span = max(config.size_bytes for config in configs) * 3
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(("access", "prefetch")),
                  st.integers(0, span)),
        max_size=200,
    ))
    for op, address in ops:
        result = getattr(hierarchy, op)(address)
        expected = getattr(reference, op)(address)
        got = None if result is None else (result.latency, result.level)
        assert got == expected
        assert ((hierarchy.demand_accesses, hierarchy.prefetches,
                 hierarchy.useless_prefetch_filter)
                == (reference.demand_accesses, reference.prefetches,
                    reference.useless_prefetch_filter))
        assert ([counters(level) for level in hierarchy.levels]
                == [counters(level) for level in reference.levels])


def test_access_results_are_shared_and_frozen():
    hierarchy = InstructionCacheHierarchy(
        levels=[CacheLevelConfig("L1I", 2048, line_size=128,
                                 associativity=2, latency=4)],
        memory_latency=100,
    )
    cold = hierarchy.access(0x1000)
    assert cold is hierarchy.access(0x9000)  # both miss to memory
    warm = hierarchy.access(0x1000)
    assert warm is hierarchy.access(0x1040)  # same line, L1 hit
    assert isinstance(warm, AccessResult)
    for result in (cold, warm):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.latency = 0
    assert (cold.latency, warm.latency) == (100, 4)
