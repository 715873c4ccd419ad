"""X6 — simulator throughput (the library's own performance).

Not a paper experiment: measures the model's simulation speed so
regressions in the hot paths (the search walk, figure-8 selection, the
update pipeline) are caught.  Uses real pytest-benchmark rounds, unlike
the reproduction benches which run once and print tables.  Beyond
loose order-of-magnitude floors, the gate here is a ratio measured on
the runner itself: the compiled fast mode must beat the reference
interpreter by 1.5x, for one run and for a fleet-shaped sweep.
Numbers for comparing commits come from ``perfbench/``.
"""

import time
from dataclasses import replace

import pytest
from common import print_table

from repro.configs import z15_config
from repro.engine import (
    BACKENDS,
    ENGINE_MODES,
    CycleEngine,
    FunctionalEngine,
    SweepCell,
    build_fleet_grid,
    create_predictor,
    run_cells,
)
from repro.workloads import get_workload

BRANCHES = 3000
CYCLE_BRANCHES = 2000
SWEEP_CELLS = 8
SWEEP_BRANCHES = 1500


def _simulate(program_name: str, backend: str = "object",
              engine_mode: str = "reference") -> float:
    engine = FunctionalEngine(create_predictor(z15_config(), backend),
                              engine_mode=engine_mode)
    stats = engine.run_program(get_workload(program_name),
                               max_branches=BRANCHES, warmup_branches=0)
    return stats.mpki


def _simulate_cycles(program_name: str, backend: str = "object") -> int:
    engine = CycleEngine(create_predictor(z15_config(), backend))
    stats = engine.run_program(get_workload(program_name),
                               max_branches=CYCLE_BRANCHES)
    return stats.cycles


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_functional_throughput(benchmark, workload, backend):
    result = benchmark.pedantic(
        _simulate, args=(workload, backend), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert result >= 0.0
    # Floor: the hot-path optimisation pass roughly doubled the engine's
    # speed, so the regression floor doubles too — 6K branches/second,
    # which still leaves ~1.5-2x headroom for machine noise below the
    # slowest numbers observed on a loaded box.  The array backend gets
    # the same floor: it must never fall behind the object model enough
    # to matter, or it has no reason to exist.
    seconds = benchmark.stats.stats.mean
    branches_per_second = BRANCHES / seconds
    print(f"\n{workload} [{backend}]: "
          f"{branches_per_second:,.0f} branches/second")
    assert branches_per_second > 6000


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_fast_mode_throughput(benchmark, workload, backend):
    # Warm the process-wide kernel cache outside the timed rounds, so
    # the bench measures steady state (the one-off compile is ~the cost
    # of a few thousand simulated branches).
    _simulate(workload, backend, "fast")
    result = benchmark.pedantic(
        _simulate, args=(workload, backend, "fast"), rounds=3,
        iterations=1, warmup_rounds=1,
    )
    assert result >= 0.0
    # The specialized kernels target >= 1.5x the reference interpreter;
    # the committed floor leaves the same noise headroom as above
    # (observed ~27-31K branches/s on the baseline box).
    seconds = benchmark.stats.stats.mean
    branches_per_second = BRANCHES / seconds
    print(f"\n{workload} [{backend}/fast]: "
          f"{branches_per_second:,.0f} branches/second")
    assert branches_per_second > 9000


#: Fast mode must run at least this many times the reference
#: interpreter's branches/second on the same runner.  Five runs of the
#: five ratios below on a shared 2-vCPU host read 1.62-2.11x with the
#: kernels reading BTB1 and TAGE rows inline; the floor keeps the
#: headroom the old 1.3x floor kept below its measured 1.4x (7-8%), so
#: a change that gives the inline reads back fails here.
SPEEDUP_FLOOR = 1.5
SPEEDUP_REPEATS = 5


def _best_seconds_interleaved(run) -> dict:
    """Best-of-N wall time of ``run(mode)`` per engine mode, the modes
    alternating inside each repeat and swapping order every other
    repeat, so a host speed drift lands on both modes instead of on
    whichever ran last."""
    best = {mode: float("inf") for mode in ENGINE_MODES}
    for repeat in range(SPEEDUP_REPEATS):
        order = ENGINE_MODES if repeat % 2 == 0 else ENGINE_MODES[::-1]
        for mode in order:
            start = time.perf_counter()
            run(mode)
            best[mode] = min(best[mode], time.perf_counter() - start)
    return best


def _check_speedup(best: dict, what: str, branches: int) -> None:
    ratio = best["reference"] / best["fast"]
    print_table(
        f"X6 fast/reference = {ratio:.2f}x (floor {SPEEDUP_FLOOR}x): {what}",
        ["mode", f"best of {SPEEDUP_REPEATS} s", "branches/s"],
        [[mode, f"{best[mode]:.4f}", f"{branches / best[mode]:,.0f}"]
         for mode in ENGINE_MODES],
    )
    assert ratio >= SPEEDUP_FLOOR


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_fast_mode_speedup_floor(benchmark, workload, backend):
    # The kernel compile is cached process-wide; pay it before timing.
    _simulate(workload, backend, "fast")
    best = benchmark.pedantic(
        _best_seconds_interleaved,
        args=(lambda mode: _simulate(workload, backend, mode),),
        rounds=1, iterations=1)
    _check_speedup(best, f"{workload} [{backend}]", BRANCHES)


def _run_sweep(cells) -> None:
    results = run_cells(cells, workers=1)
    assert all(result.stats is not None for result in results)


def test_fast_sweep_speedup_floor(benchmark):
    # The sweep path's default: a fleet-shaped grid (the CLI's default
    # axes at one seed, 64 cells) in-process as built (fast), against
    # the same cells on the reference pipeline.  Both replay recorded
    # streams, so the ratio is the kernel's.
    grids = {"fast": build_fleet_grid(seeds=(1,))}
    grids["reference"] = [replace(cell, engine_mode="reference")
                          for cell in grids["fast"]]
    _run_sweep(grids["fast"])  # compile outside the timed region
    best = benchmark.pedantic(
        _best_seconds_interleaved,
        args=(lambda mode: _run_sweep(grids[mode]),),
        rounds=1, iterations=1)
    _check_speedup(best, f"{len(grids['fast'])}-cell fleet grid, workers=1",
                   sum(c.branches + c.warmup for c in grids["fast"]))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_cycle_throughput(benchmark, workload, backend):
    result = benchmark.pedantic(
        _simulate_cycles, args=(workload, backend), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert result > 0
    # The cycle engine models the search pipe cycle by cycle, so it is
    # legitimately slower than the functional engine; the floor only
    # catches order-of-magnitude regressions.
    seconds = benchmark.stats.stats.mean
    branches_per_second = CYCLE_BRANCHES / seconds
    print(f"\n{workload} (cycle) [{backend}]: "
          f"{branches_per_second:,.0f} branches/second")
    assert branches_per_second > 1000


def _sweep_cells():
    # One shared Program across every cell: the serialize-once registry
    # should collapse the whole grid's payload traffic to two blobs
    # (program + config).
    program = get_workload("compute-kernel", 1)
    config = z15_config()
    return [
        SweepCell(label="warm", config=config, workload=program,
                  seed=seed, branches=SWEEP_BRANCHES, warmup=500)
        for seed in range(1, SWEEP_CELLS + 1)
    ]


def _run_warm_sweep(workers: int, chunk_size: int) -> dict:
    stats: dict = {}
    results = run_cells(_sweep_cells(), workers=workers,
                        chunk_size=chunk_size, pool_stats=stats)
    assert all(r.stats is not None for r in results)
    return stats


@pytest.mark.parametrize("workers,chunk_size", [(1, 1), (2, 4)])
def test_warm_pool_sweep_throughput(benchmark, workers, chunk_size):
    stats = benchmark.pedantic(
        _run_warm_sweep, args=(workers, chunk_size), rounds=3,
        iterations=1, warmup_rounds=1,
    )
    seconds = benchmark.stats.stats.mean
    branches = SWEEP_CELLS * (SWEEP_BRANCHES + 500)
    print(f"\nwarm sweep [workers={workers} chunk={chunk_size} "
          f"mode={stats['mode']}]: {branches / seconds:,.0f} branches/second")
    # Serialize-once microbench contract: however the sweep is fanned
    # out, the parent pickles each distinct payload object exactly once
    # (one Program + one config here), and each worker process receives
    # the blob cache exactly once — never once per cell or per chunk.
    assert stats["parent_pickle_calls"] == 2
    assert stats["payload_blobs"] == 2
    for pid, worker in stats["workers"].items():
        assert worker["installs"] == 1, (
            f"worker {pid} re-received payloads {worker['installs']} times"
        )
    # Floor only guards order-of-magnitude regressions: pool spawn costs
    # dominate a grid this small on a loaded 1-core box.
    assert branches / seconds > 1500
