"""Every ``CycleStats`` field, pinned exactly.

The other cycle tests assert inequalities, and the fast/reference
cross-mode tests cannot see a fault in the timing half because both
modes share it.  The digests were recorded before the engine's executor
drive, bound timing constants and recency-list I-cache went in, so any
later change to the timing model, the drive or the I-cache that moves
one statistic fails here.
"""

import pytest

from repro.configs import z15_config
from repro.core import LookaheadBranchPredictor
from repro.engine import CycleEngine
from repro.frontend.icache import CacheLevelConfig, InstructionCacheHierarchy
from repro.verification.differential import stats_fingerprint
from repro.workloads import get_workload

SEED = 1234
BRANCHES = 3000

#: (workload, engine mode, lookahead prefetch) -> the run's digest.
PINNED = {
    ("dispatch", "fast", False): dict(
        cycles=14094, instructions=18000, branches=3000,
        bpl_wait_cycles=8156, fetch_wait_cycles=2205, restart_cycles=726,
        restarts=33, exposed_miss_cycles=2214, hidden_miss_cycles=0,
        cpred_redirects=1483, taken_redirects=2981,
        cache_levels={"L1I": [3375, 3366], "L2I": [9, 0], "L3": [9, 0]},
        accuracy="1b2eac62431096dd"),
    ("dispatch", "fast", True): dict(
        cycles=14094, instructions=18000, branches=3000,
        bpl_wait_cycles=8156, fetch_wait_cycles=2205, restart_cycles=726,
        restarts=33, exposed_miss_cycles=2214, hidden_miss_cycles=0,
        cpred_redirects=1483, taken_redirects=2981,
        cache_levels={"L1I": [3375, 3366], "L2I": [9, 0], "L3": [9, 0]},
        accuracy="1b2eac62431096dd"),
    ("dispatch", "reference", False): dict(
        cycles=14094, instructions=18000, branches=3000,
        bpl_wait_cycles=8156, fetch_wait_cycles=2205, restart_cycles=726,
        restarts=33, exposed_miss_cycles=2214, hidden_miss_cycles=0,
        cpred_redirects=1483, taken_redirects=2981,
        cache_levels={"L1I": [3375, 3366], "L2I": [9, 0], "L3": [9, 0]},
        accuracy="1b2eac62431096dd"),
    ("dispatch", "reference", True): dict(
        cycles=14094, instructions=18000, branches=3000,
        bpl_wait_cycles=8156, fetch_wait_cycles=2205, restart_cycles=726,
        restarts=33, exposed_miss_cycles=2214, hidden_miss_cycles=0,
        cpred_redirects=1483, taken_redirects=2981,
        cache_levels={"L1I": [3375, 3366], "L2I": [9, 0], "L3": [9, 0]},
        accuracy="1b2eac62431096dd"),
    ("footprint-large", "fast", False): dict(
        cycles=254600, instructions=10160, branches=3000,
        bpl_wait_cycles=3060, fetch_wait_cycles=225385,
        restart_cycles=23857, restarts=1433, exposed_miss_cycles=225614,
        hidden_miss_cycles=0, cpred_redirects=0, taken_redirects=19,
        cache_levels={"L1I": [3287, 2366], "L2I": [921, 4], "L3": [917, 0]},
        accuracy="7a3863888e4fcbc9"),
    ("footprint-large", "fast", True): dict(
        cycles=210759, instructions=10160, branches=3000,
        bpl_wait_cycles=3060, fetch_wait_cycles=181485,
        restart_cycles=23857, restarts=1433, exposed_miss_cycles=181671,
        hidden_miss_cycles=43764, cpred_redirects=0, taken_redirects=19,
        cache_levels={"L1I": [3287, 2366], "L2I": [921, 4], "L3": [917, 0]},
        accuracy="7a3863888e4fcbc9"),
    ("footprint-large", "reference", False): dict(
        cycles=254600, instructions=10160, branches=3000,
        bpl_wait_cycles=3060, fetch_wait_cycles=225385,
        restart_cycles=23857, restarts=1433, exposed_miss_cycles=225614,
        hidden_miss_cycles=0, cpred_redirects=0, taken_redirects=19,
        cache_levels={"L1I": [3287, 2366], "L2I": [921, 4], "L3": [917, 0]},
        accuracy="7a3863888e4fcbc9"),
    ("footprint-large", "reference", True): dict(
        cycles=210759, instructions=10160, branches=3000,
        bpl_wait_cycles=3060, fetch_wait_cycles=181485,
        restart_cycles=23857, restarts=1433, exposed_miss_cycles=181671,
        hidden_miss_cycles=43764, cpred_redirects=0, taken_redirects=19,
        cache_levels={"L1I": [3287, 2366], "L2I": [921, 4], "L3": [917, 0]},
        accuracy="7a3863888e4fcbc9"),
    ("patterned", "fast", False): dict(
        cycles=10106, instructions=12000, branches=3000,
        bpl_wait_cycles=5192, fetch_wait_cycles=246, restart_cycles=1669,
        restarts=50, exposed_miss_cycles=246, hidden_miss_cycles=0,
        cpred_redirects=962, taken_redirects=1942,
        cache_levels={"L1I": [3000, 2999], "L2I": [1, 0], "L3": [1, 0]},
        accuracy="c670fc235af3e8d7"),
    ("patterned", "fast", True): dict(
        cycles=10106, instructions=12000, branches=3000,
        bpl_wait_cycles=5192, fetch_wait_cycles=246, restart_cycles=1669,
        restarts=50, exposed_miss_cycles=246, hidden_miss_cycles=0,
        cpred_redirects=962, taken_redirects=1942,
        cache_levels={"L1I": [3000, 2999], "L2I": [1, 0], "L3": [1, 0]},
        accuracy="c670fc235af3e8d7"),
    ("patterned", "reference", False): dict(
        cycles=10106, instructions=12000, branches=3000,
        bpl_wait_cycles=5192, fetch_wait_cycles=246, restart_cycles=1669,
        restarts=50, exposed_miss_cycles=246, hidden_miss_cycles=0,
        cpred_redirects=962, taken_redirects=1942,
        cache_levels={"L1I": [3000, 2999], "L2I": [1, 0], "L3": [1, 0]},
        accuracy="c670fc235af3e8d7"),
    ("patterned", "reference", True): dict(
        cycles=10106, instructions=12000, branches=3000,
        bpl_wait_cycles=5192, fetch_wait_cycles=246, restart_cycles=1669,
        restarts=50, exposed_miss_cycles=246, hidden_miss_cycles=0,
        cpred_redirects=962, taken_redirects=1942,
        cache_levels={"L1I": [3000, 2999], "L2I": [1, 0], "L3": [1, 0]},
        accuracy="c670fc235af3e8d7"),
    ("transactions", "fast", False): dict(
        cycles=44229, instructions=12924, branches=3000,
        bpl_wait_cycles=5215, fetch_wait_cycles=18268,
        restart_cycles=17756, restarts=646, exposed_miss_cycles=18450,
        hidden_miss_cycles=0, cpred_redirects=970, taken_redirects=1483,
        cache_levels={"L1I": [3374, 3299], "L2I": [75, 0], "L3": [75, 0]},
        accuracy="5e1e7394e2f36f11"),
    ("transactions", "fast", True): dict(
        cycles=43489, instructions=12924, branches=3000,
        bpl_wait_cycles=5215, fetch_wait_cycles=17526,
        restart_cycles=17756, restarts=646, exposed_miss_cycles=17704,
        hidden_miss_cycles=736, cpred_redirects=970, taken_redirects=1483,
        cache_levels={"L1I": [3374, 3299], "L2I": [75, 0], "L3": [75, 0]},
        accuracy="5e1e7394e2f36f11"),
    ("transactions", "reference", False): dict(
        cycles=44229, instructions=12924, branches=3000,
        bpl_wait_cycles=5215, fetch_wait_cycles=18268,
        restart_cycles=17756, restarts=646, exposed_miss_cycles=18450,
        hidden_miss_cycles=0, cpred_redirects=970, taken_redirects=1483,
        cache_levels={"L1I": [3374, 3299], "L2I": [75, 0], "L3": [75, 0]},
        accuracy="5e1e7394e2f36f11"),
    ("transactions", "reference", True): dict(
        cycles=43489, instructions=12924, branches=3000,
        bpl_wait_cycles=5215, fetch_wait_cycles=17526,
        restart_cycles=17756, restarts=646, exposed_miss_cycles=17704,
        hidden_miss_cycles=736, cpred_redirects=970, taken_redirects=1483,
        cache_levels={"L1I": [3374, 3299], "L2I": [75, 0], "L3": [75, 0]},
        accuracy="5e1e7394e2f36f11"),
}

#: ``run_smt2(transactions, dispatch)`` on an SMT2 engine.
PINNED_SMT2 = dict(
    cycles=34713, instructions=15501, branches=3000, bpl_wait_cycles=7289,
    fetch_wait_cycles=19806, restart_cycles=12367, restarts=503,
    exposed_miss_cycles=19917, hidden_miss_cycles=739,
    cpred_redirects=1015, taken_redirects=2083,
    cache_levels={"L1I": [3376, 3292], "L2I": [84, 0], "L3": [84, 0]},
    accuracy="379ae18e1f1c9f9c")

#: ``footprint-medium`` on a 4 KiB L1I over a 512 KiB L2I.
PINNED_TINY_ICACHE = dict(
    cycles=81853, instructions=10126, branches=3000, bpl_wait_cycles=2894,
    fetch_wait_cycles=52159, restart_cycles=24487, restarts=1451,
    exposed_miss_cycles=52318, hidden_miss_cycles=11064, cpred_redirects=0,
    taken_redirects=22,
    cache_levels={"L1I": [3340, 2337], "L2I": [1003, 372]},
    accuracy="2921ad90485591e5")


def digest(stats):
    """Every ``CycleStats`` field; the accuracy stats as a fingerprint."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "branches": stats.branches,
        "bpl_wait_cycles": stats.bpl_wait_cycles,
        "fetch_wait_cycles": stats.fetch_wait_cycles,
        "restart_cycles": stats.restart_cycles,
        "restarts": stats.restarts,
        "exposed_miss_cycles": stats.exposed_miss_cycles,
        "hidden_miss_cycles": stats.hidden_miss_cycles,
        "cpred_redirects": stats.cpred_redirects,
        "taken_redirects": stats.taken_redirects,
        "cache_levels": {name: [level["accesses"], level["hits"]]
                         for name, level in stats.cache_levels.items()},
        "accuracy": stats_fingerprint(stats.accuracy)[:16],
    }


@pytest.mark.parametrize("workload,mode,prefetch", sorted(PINNED))
def test_cycle_stats_pinned(workload, mode, prefetch):
    engine = CycleEngine(LookaheadBranchPredictor(z15_config()),
                         lookahead_prefetch=prefetch, engine_mode=mode)
    stats = engine.run_program(get_workload(workload, SEED),
                               max_branches=BRANCHES, seed=SEED)
    assert digest(stats) == PINNED[workload, mode, prefetch]


def test_smt2_cycle_stats_pinned():
    engine = CycleEngine(LookaheadBranchPredictor(z15_config()), smt2=True)
    stats = engine.run_smt2(get_workload("transactions", SEED),
                            get_workload("dispatch", SEED),
                            max_branches=BRANCHES, seed=SEED)
    assert digest(stats) == PINNED_SMT2


def test_tiny_icache_cycle_stats_pinned():
    icache = InstructionCacheHierarchy(
        levels=[
            CacheLevelConfig("L1I", 4 * 1024, line_size=128,
                             associativity=2, latency=4),
            CacheLevelConfig("L2I", 512 * 1024, line_size=128,
                             associativity=8, latency=12),
        ],
        memory_latency=100,
    )
    engine = CycleEngine(LookaheadBranchPredictor(z15_config()),
                         icache=icache)
    stats = engine.run_program(get_workload("footprint-medium", SEED),
                               max_branches=BRANCHES, seed=SEED)
    assert digest(stats) == PINNED_TINY_ICACHE
