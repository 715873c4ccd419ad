"""Shared helpers for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the ISCA 2020 z15
branch predictor paper (see DESIGN.md's experiment index).  Absolute
numbers come from synthetic workloads on a functional/cycle-level model,
so every benchmark prints the *shape* it validates next to the paper's
claim, and asserts that shape.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.workers import usable_cpus
from repro.configs import PredictorConfig
from repro.core import LookaheadBranchPredictor
from repro.engine import CycleEngine, CycleStats, FunctionalEngine
from repro.engine.parallel import SweepCell, run_cells
from repro.stats import RunStats
from repro.workloads import get_workload
from repro.workloads.program import Program

#: Every reproduced table is also appended here (pytest capture hides
#: stdout unless -s is passed); truncated at session start by conftest.
#: Overridable so CI can collect the file as an artifact from a
#: writable scratch path.
RESULTS_PATH = os.environ.get(
    "REPRO_BENCH_RESULTS",
    os.path.join(os.path.dirname(__file__), "results", "latest.txt"),
)


def run_functional(
    config: PredictorConfig,
    workload,
    branches: int = 8000,
    warmup: int = 4000,
    seed: int = 1,
) -> RunStats:
    """Run a workload (name or Program) through the functional engine."""
    program = workload if isinstance(workload, Program) else get_workload(
        workload, seed
    )
    engine = FunctionalEngine(LookaheadBranchPredictor(config))
    return engine.run_program(program, max_branches=branches,
                              warmup_branches=warmup, seed=seed)


def sweep_functional(
    jobs: Sequence[Tuple],
    branches: int = 8000,
    warmup: int = 4000,
    seed: int = 1,
    workers: Optional[int] = None,
) -> Dict[str, RunStats]:
    """Fan independent ``(label, config, workload)`` jobs over worker
    processes; returns ``{label: RunStats}`` in job order.

    A job may carry a fourth element — a dict overriding ``branches``,
    ``warmup`` or ``seed`` for that job.  The parallel runner's
    determinism contract makes this a drop-in for a sequential
    :func:`run_functional` loop: per-job stats are byte-identical at any
    worker count.  ``REPRO_BENCH_WORKERS`` (or ``workers=``) sets the
    fan-out; 1 keeps everything in-process.
    """
    if workers is None:
        workers = int(
            os.environ.get("REPRO_BENCH_WORKERS", min(4, usable_cpus()))
        )
    cells = []
    for job in jobs:
        label, config, workload = job[:3]
        overrides = job[3] if len(job) > 3 else {}
        cells.append(
            SweepCell(
                label=label,
                config=config,
                workload=workload,
                seed=overrides.get("seed", seed),
                branches=overrides.get("branches", branches),
                warmup=overrides.get("warmup", warmup),
            )
        )
    return {
        result.label: result.stats for result in run_cells(cells, workers=workers)
    }


def run_cycle(
    config: PredictorConfig,
    workload,
    branches: int = 6000,
    seed: int = 1,
    smt2: bool = False,
    icache=None,
    lookahead_prefetch: bool = True,
) -> CycleStats:
    """Run a workload through the cycle-level engine."""
    program = workload if isinstance(workload, Program) else get_workload(
        workload, seed
    )
    engine = CycleEngine(
        LookaheadBranchPredictor(config),
        smt2=smt2,
        icache=icache,
        lookahead_prefetch=lookahead_prefetch,
    )
    return engine.run_program(program, max_branches=branches, seed=seed)


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    paper_note: Optional[str] = None,
) -> None:
    """Print one paper-style table."""
    widths = [
        max(len(str(headers[col])), *(len(str(row[col])) for row in rows))
        for col in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    output = ["", f"=== {title} ==="]
    if paper_note:
        output.append(f"paper: {paper_note}")
    output.append(line)
    output.append("-" * len(line))
    for row in rows:
        output.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    text = "\n".join(output)
    print(text)
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "a") as stream:
        stream.write(text + "\n")


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def pct(value: float) -> str:
    return f"{value:6.2%}"
