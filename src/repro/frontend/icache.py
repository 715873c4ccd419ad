"""The instruction-cache hierarchy.

The z15 has a private L1 I-cache, a 4 MB private L2 I-cache at a minimum
of 8 cycles over the L1, and a shared L3 at ~45 cycles over an L1 hit
(sections I-II).  The model is a tag-only hierarchy — only hit/miss and
latency matter to the front end — with an explicit prefetch port so the
lookahead branch predictor can act as "an effective cache prefetcher"
(section IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigError


@dataclass
class CacheLevelConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    line_size: int = 128
    associativity: int = 8
    #: Total access latency in cycles when this level hits.
    latency: int = 4

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % (
            self.line_size * self.associativity
        ):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible into "
                f"{self.associativity}-way sets of {self.line_size}B lines"
            )

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_size * self.associativity)


class CacheLevel:
    """One tag-only cache level with exact LRU replacement.

    Each set is a list of the line tags it holds, least recently used
    first: a hit moves its tag to the end, a fill into a full set drops
    the first.  That is true LRU with the hits, misses and fills of a
    ``SetAssociativeTable(policy="lru")`` row (no level ever invalidates
    a line, so a set's empty ways are always the ones it has not filled
    yet), without a way array, a policy object or a match callback per
    probe.  A set's list is built on its first fill: the z15's L3
    backstop has 65,536 sets, and a short run touches few of them.
    """

    def __init__(self, config: CacheLevelConfig):
        config.validate()
        self.config = config
        sets = config.sets
        if sets & (sets - 1):
            raise ConfigError(f"{config.name}: set count {sets} not a power of two")
        self._set_bits = sets.bit_length() - 1
        self._set_mask = sets - 1
        self._line_size = config.line_size
        self._ways = config.associativity
        self._sets: List[Optional[List[int]]] = [None] * sets
        self.accesses = 0
        self.hits = 0
        self.fills = 0

    def probe(self, address: int) -> bool:
        """Hit/miss without statistics (used by prefetch filtering)."""
        line = address // self._line_size
        tags = self._sets[line & self._set_mask]
        return tags is not None and line >> self._set_bits in tags

    def access(self, address: int) -> bool:
        """Demand access: returns hit, touching LRU."""
        self.accesses += 1
        line = address // self._line_size
        tags = self._sets[line & self._set_mask]
        if tags is None:
            return False
        tag = line >> self._set_bits
        if tag not in tags:
            return False
        self.hits += 1
        if tags[-1] != tag:
            tags.remove(tag)
            tags.append(tag)
        return True

    def fill(self, address: int) -> None:
        """Bring the line in (demand fill or prefetch)."""
        line = address // self._line_size
        index = line & self._set_mask
        tag = line >> self._set_bits
        tags = self._sets[index]
        if tags is None:
            tags = self._sets[index] = []
        elif tag in tags:
            return
        elif len(tags) == self._ways:
            del tags[0]
        tags.append(tag)
        self.fills += 1

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.hits / self.accesses


def z15_hierarchy_configs(
    l1i_kib: int = 128, l2i_kib: int = 4096, timing=None
) -> List[CacheLevelConfig]:
    """The z15-like I-side hierarchy (L3 modelled as a large backstop)."""
    l1_latency = timing.l1i_latency if timing else 4
    l2_extra = timing.l2i_extra_latency if timing else 8
    l3_extra = timing.l3_extra_latency if timing else 45
    return [
        CacheLevelConfig("L1I", l1i_kib * 1024, latency=l1_latency),
        CacheLevelConfig("L2I", l2i_kib * 1024, latency=l1_latency + l2_extra),
        CacheLevelConfig("L3", 64 * 1024 * 1024, latency=l1_latency + l3_extra),
    ]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access.

    Frozen: a hierarchy builds one per level (and one for memory) and
    returns the same object on every access that ends there.
    """

    latency: int
    level: str


class InstructionCacheHierarchy:
    """An inclusive multi-level I-side hierarchy with a prefetch port.

    Level latencies and ``memory_latency`` are bound into the shared
    :class:`AccessResult` objects at construction.
    """

    def __init__(
        self,
        levels: Optional[List[CacheLevelConfig]] = None,
        memory_latency: int = 250,
    ):
        configs = levels if levels is not None else z15_hierarchy_configs()
        if not configs:
            raise ConfigError("at least one cache level is required")
        self.levels = [CacheLevel(config) for config in configs]
        self.memory_latency = memory_latency
        #: Per level, in walk order: (level, its result, the levels
        #: above it that a hit there fills).
        self._walk = tuple(
            (level,
             AccessResult(latency=level.config.latency,
                          level=level.config.name),
             tuple(self.levels[:depth]))
            for depth, level in enumerate(self.levels)
        )
        self._memory_result = AccessResult(latency=memory_latency,
                                           level="memory")
        self.demand_accesses = 0
        self.prefetches = 0
        self.useless_prefetch_filter = 0

    @property
    def line_size(self) -> int:
        return self.levels[0].config.line_size

    def access(self, address: int) -> AccessResult:
        """Demand access: the first hitting level's latency; all upper
        levels are filled (inclusive)."""
        self.demand_accesses += 1
        for level, result, uppers in self._walk:
            if level.access(address):
                for upper in uppers:
                    upper.fill(address)
                return result
        for level in self.levels:
            level.fill(address)
        return self._memory_result

    def prefetch(self, address: int) -> Optional[AccessResult]:
        """Prefetch a line toward the L1I.

        Returns the fill latency the prefetch will take (None when the
        line is already L1-resident, making the prefetch a no-op).
        """
        if self.levels[0].probe(address):
            self.useless_prefetch_filter += 1
            return None
        self.prefetches += 1
        for level, result, uppers in self._walk[1:]:
            if level.probe(address):
                for upper in uppers:
                    upper.fill(address)
                return result
        for level in self.levels:
            level.fill(address)
        return self._memory_result

    def level_stats(self) -> List[Tuple[str, int, int]]:
        """Per level: (name, accesses, hits)."""
        return [
            (level.config.name, level.accesses, level.hits)
            for level in self.levels
        ]
