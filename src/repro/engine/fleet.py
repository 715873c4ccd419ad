"""Fleet sweeps: thousand-cell design-space grids over the warm pool.

The z15 design space (generation configs × workloads × seeds ×
fault plans × predictor backends) is evaluated as one flat grid of
independent cells.  This module builds that grid — sharing each
workload Program across every cell that uses it, so the serialize-once
registry ships it to each worker exactly once — and runs it twice
(sequential reference, then warm-pool parallel) to produce the merged
``repro-fleet/v1`` payload: throughput both ways, the measured
speedup, and the byte-identical equivalence verdict that makes the
speedup trustworthy.  It is the only path that times sequential
against parallel; performance numbers themselves come from
``perfbench/``.

``python -m repro fleet`` is the CLI front end; the CI fleet-smoke job
runs a reduced grid, fails unless the two passes are equivalent, and
gates on ``speedup >= 1.0`` whenever the runner has at least two cores.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.configs import GENERATIONS
from repro.engine.parallel import CellError, SweepCell, run_cells
from repro.engine.stream import run_checkpointed
from repro.workloads import get_workload

#: Default workload axis: two dense kernels, a branchy dispatcher and a
#: pattern chain — the suite's structural corners.
DEFAULT_FLEET_WORKLOADS = (
    "compute-kernel", "transactions", "dispatch", "patterned",
)

#: Schema of the merged fleet artifact.
FLEET_SCHEMA = "repro-fleet/v1"


def build_fleet_grid(
    configs: Optional[Sequence[str]] = None,
    workloads: Sequence[str] = DEFAULT_FLEET_WORKLOADS,
    seeds: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    backends: Sequence[str] = ("object", "array"),
    fault_rates: Sequence[float] = (0.0, 0.01),
    branches: int = 300,
    warmup: int = 100,
    fault_seed: int = 101,
    engine_modes: Sequence[str] = ("reference",),
) -> List[SweepCell]:
    """Cross (config × workload × seed × fault plan × backend ×
    engine mode) into one flat cell list, config-major order.

    Each (workload, seed) Program is built **once** and shared by every
    cell that runs it — the serialize-once registry then transfers it
    to each worker exactly once regardless of how many of the ~1000
    cells reference it.  A fault rate of 0.0 means a genuinely
    fault-free cell (no injector attached); non-zero rates share one
    deterministic :class:`~repro.resilience.FaultPlan` per rate.
    """
    from repro.resilience import FaultPlan

    config_names = list(configs) if configs else list(GENERATIONS)
    pairs: List[Tuple[str, object]] = []
    for name in config_names:
        factory, _ = GENERATIONS[name]
        pairs.append((name, factory()))
    programs = {
        (workload, seed): get_workload(workload, seed)
        for workload in workloads
        for seed in seeds
    }
    plans = {
        rate: (FaultPlan(seed=fault_seed, rate=rate).validate()
               if rate > 0 else None)
        for rate in fault_rates
    }
    cells = []
    for name, config in pairs:
        for backend in backends:
            for engine_mode in engine_modes:
                mode_suffix = "" if engine_mode == "reference" else "/fast"
                for rate in fault_rates:
                    suffix = f"/f{rate:g}" if rate > 0 else ""
                    label = f"{name}/{backend}{mode_suffix}{suffix}"
                    for workload in workloads:
                        for seed in seeds:
                            cells.append(SweepCell(
                                label=label,
                                config=config,
                                workload=programs[(workload, seed)],
                                seed=seed,
                                branches=branches,
                                warmup=warmup,
                                backend=backend,
                                engine_mode=engine_mode,
                                fault_plan=plans[rate],
                            ))
    return cells


def _rollup(results: Sequence, key) -> Dict[str, dict]:
    """Group in-worker elapsed/branches by a cell attribute."""
    groups: Dict[str, dict] = {}
    for result in results:
        if result.stats is None:
            continue
        bucket = groups.setdefault(key(result), {"branches": 0, "seconds": 0.0})
        bucket["branches"] += result.branches + result.warmup
        bucket["seconds"] += result.elapsed
    return {
        name: {
            "branches": bucket["branches"],
            "branches_per_second": (bucket["branches"] / bucket["seconds"]
                                    if bucket["seconds"] else 0.0),
        }
        for name, bucket in sorted(groups.items())
    }


def run_fleet(
    cells: Sequence[SweepCell],
    workers: int = 2,
    chunk_size: int = 16,
    timeout: Optional[float] = None,
    retries: int = 1,
    stream_out: Optional[str] = None,
    resume: Optional[str] = None,
    strict: bool = False,
    grid_info: Optional[dict] = None,
    spans=None,
    shutdown=None,
) -> Tuple[dict, list, list]:
    """Run the fleet grid sequentially and in parallel; return the
    merged ``repro-fleet/v1`` payload plus both result lists.

    The sequential pass is the reference for both timing (speedup
    denominator) and correctness (the parallel pass must match it
    fingerprint-for-fingerprint).  The parallel pass runs through
    :func:`~repro.engine.stream.run_checkpointed`: ``stream_out``
    checkpoints its rows to JSONL as they complete (with the fleet's
    run manifest embedded as the first line); ``resume`` pre-loads
    such a stream, skipping its completed cells (*strict* makes a torn
    resume tail an error instead of silently dropping it; the reported
    parallel wall then covers only the remaining work —
    ``resumed_cells`` in the payload says how many rows were
    inherited); *shutdown* drains it on a signal.  *spans*, when given
    a :class:`~repro.obs.spans.SpanTracer`, traces the parallel pass's
    pool lifecycle (see :func:`~repro.engine.parallel.stream_cells`).
    """
    from repro.obs.manifest import build_manifest

    cells = list(cells)
    hardening = {"timeout": timeout, "retries": retries}
    seq_stats: dict = {}
    start = time.perf_counter()
    seq_results = run_cells(cells, workers=1, pool_stats=seq_stats,
                            **hardening)
    seq_wall = time.perf_counter() - start

    par_stats: dict = {}
    grid = dict(grid_info or {}, cells=len(cells))
    manifest = build_manifest(
        "fleet",
        grid=grid,
        extra={"workers": workers, "chunk_size": chunk_size},
    )
    start = time.perf_counter()
    par_results = run_checkpointed(
        cells, manifest, stream_out=stream_out, resume=resume,
        strict=strict, shutdown=shutdown, workers=workers,
        chunk_size=chunk_size, pool_stats=par_stats, spans=spans,
        **hardening,
    )
    par_wall = time.perf_counter() - start

    total_branches = sum(cell.branches + cell.warmup for cell in cells)
    equivalent = ([r.fingerprint for r in seq_results]
                  == [r.fingerprint for r in par_results])
    failed = sum(1 for r in par_results if isinstance(r, CellError))
    manifest["timings"] = {
        "wall_seconds": seq_wall + par_wall,
        "cpu_seconds": None,
    }
    payload = {
        "schema": FLEET_SCHEMA,
        #: Interprets the speedup: with one core the pool can only add
        #: overhead, so speedup ~<= 1 is the expected reading there.
        "cpu_count": os.cpu_count(),
        "manifest": manifest,
        "grid": grid,
        "payloads": {
            "distinct_blobs": par_stats.get("payload_blobs", 0),
            "bytes": par_stats.get("payload_bytes", 0),
            "parent_pickle_calls": par_stats.get("parent_pickle_calls", 0),
        },
        "results": {
            "blobs": par_stats.get("result_blobs", 0),
            "bytes": par_stats.get("result_bytes", 0),
            "bytes_unbatched": par_stats.get("result_bytes_unbatched", 0),
            "bytes_saved": par_stats.get("result_bytes_saved", 0),
        },
        "sequential": {
            "wall_seconds": seq_wall,
            "branches_per_second": total_branches / seq_wall,
        },
        "parallel": {
            "workers": workers,
            "chunk_size": chunk_size,
            "wall_seconds": par_wall,
            "branches_per_second": total_branches / par_wall,
            "chunks_dispatched": par_stats.get("chunks_dispatched", 0),
            "pool_breaks": par_stats.get("pool_breaks", 0),
            "worker_installs": {
                str(pid): stats.get("installs", 0)
                for pid, stats in sorted(
                    par_stats.get("workers", {}).items()
                )
            },
            "phase_latency": par_stats.get("phase_latency", {}),
        },
        "resumed_cells": par_stats.get("resumed_cells", 0),
        "speedup": seq_wall / par_wall if par_wall else 0.0,
        "equivalent": equivalent,
        "failed_cells": failed,
        "rollups": {
            "by_backend": _rollup(
                seq_results,
                lambda r: r.label.split("/")[1] if "/" in r.label else "object",
            ),
            "by_workload": _rollup(seq_results, lambda r: r.workload),
            "by_engine_mode": _rollup(
                seq_results,
                lambda r: "fast" if "/fast" in r.label else "reference",
            ),
        },
    }
    return payload, seq_results, par_results
