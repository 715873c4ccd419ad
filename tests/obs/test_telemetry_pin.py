"""Every telemetry byte, pinned exactly.

``test_session.py`` reconciles a chosen few counters with ``RunStats``.
This file pins everything a telemetry session exports: the SHA-256 of
``session.to_dict()`` (every counter, gauge, histogram and interval
sample, in export order) and of the trace file (every header, branch,
interval and summary line).  It covers both engines, both engine modes,
two generations (z13 has one TAGE table and no perceptron) and a sweep
grid.  The digests were recorded before the session folded each branch
once into a ``RunStats`` of its own, so any later change to the
collector, the sampler, the trace writer or the fold they read that
moves one byte fails here.
"""

import hashlib
import json

import pytest

from repro.configs import z13_config, z15_config
from repro.core import LookaheadBranchPredictor
from repro.engine import CycleEngine, FunctionalEngine
from repro.engine.parallel import SweepCell, run_cells
from repro.obs import TelemetrySession
from repro.workloads import get_workload

SEED = 1234
CONFIGS = {"z15": z15_config, "z13": z13_config}
MODES = ("reference", "fast")

#: Functional runs: 4,000 counted branches after a 1,000-branch warmup
#: the session skips.
BRANCHES = 4000
WARMUP = 1000

#: (config, workload, sampler interval) -> (registry digest, trace
#: digest); both engine modes must produce the same bytes.
PINNED = {
    ("z13", "footprint-medium", 0): (
        "80836377ebb608c1", "9f58eb54ffd16ada"),
    ("z13", "footprint-medium", 700): (
        "0bd1c7ae7a8ce26c", "8ac2cecb3e87ccaa"),
    ("z13", "transactions", 0): (
        "dce43c1b90242e6b", "b400d7575ac13000"),
    ("z13", "transactions", 700): (
        "10422a24364794f2", "1003c91f1f4fb9f9"),
    ("z15", "footprint-medium", 0): (
        "81d8736ea3216c74", "af377d9a2d133407"),
    ("z15", "footprint-medium", 700): (
        "c90a601ad4c7d4e8", "0ebb753001b65306"),
    ("z15", "transactions", 0): (
        "3a641f469f03915c", "6c7f86bf09aada10"),
    ("z15", "transactions", 700): (
        "f926d332578bfe06", "d49a3de68db8f805"),
}

#: The cycle engine on ``footprint-large``: 3,000 branches, a 900-branch
#: interval, finished without stats (the trace summary's stats are {}).
CYCLE_BRANCHES = 3000
PINNED_CYCLE = ("a435626025ecea03", "b1c36efc7f7a8228")

#: ``run_cells(workers=1)`` over :func:`grid_cells`, one registry
#: digest per ``SweepResult.telemetry``, in cell order.
PINNED_GRID = [
    "b109246777d63073",
    "52fb605516326069",
    "b8a64add93c0fe2b",
    "c636d64977fbcd6e",
    "0aa6cf088d6cc7d6",
    "0e0db609222cf200",
    "9ac1e3726420c61c",
    "5e6f1a190ec120dc",
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def registry_digest(payload) -> str:
    """The export's bytes, key order included (no sort_keys)."""
    return digest(json.dumps(payload).encode())


def session_for(predictor, trace_path, interval, skip=0):
    return TelemetrySession(predictor=predictor, interval=interval,
                            trace_path=str(trace_path), skip=skip)


def run_functional(tmp_path, config, workload, mode, interval):
    predictor = LookaheadBranchPredictor(CONFIGS[config]())
    trace_path = tmp_path / "trace.jsonl"
    session = session_for(predictor, trace_path, interval, skip=WARMUP)
    session.begin(workload=workload, predictor=config, seed=SEED,
                  branches=BRANCHES)
    engine = FunctionalEngine(predictor, telemetry=session, engine_mode=mode)
    stats = engine.run_program(get_workload(workload, SEED),
                               max_branches=BRANCHES, seed=SEED,
                               warmup_branches=WARMUP)
    session.finish(stats)
    return (registry_digest(session.to_dict()),
            digest(trace_path.read_bytes()))


def run_cycle(tmp_path, mode):
    predictor = LookaheadBranchPredictor(z15_config())
    trace_path = tmp_path / "trace.jsonl"
    session = session_for(predictor, trace_path, 900)
    session.begin(workload="footprint-large", predictor="z15", seed=SEED,
                  branches=CYCLE_BRANCHES)
    engine = CycleEngine(predictor, telemetry=session, engine_mode=mode)
    engine.run_program(get_workload("footprint-large", SEED),
                       max_branches=CYCLE_BRANCHES, seed=SEED)
    session.finish()
    return (registry_digest(session.to_dict()),
            digest(trace_path.read_bytes()))


def grid_cells():
    """Telemetry cells on both engines, both generations and two
    workloads (functional cells skip their warmup)."""
    return [
        SweepCell(label=f"{config}/{engine}", config=CONFIGS[config](),
                  workload=workload, seed=SEED, branches=1500, warmup=500,
                  engine=engine, telemetry=True, telemetry_interval=400)
        for engine in ("functional", "cycle")
        for config in CONFIGS
        for workload in ("transactions", "dispatch")
    ]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config,workload,interval", sorted(PINNED))
def test_functional_telemetry_pinned(tmp_path, config, workload, interval,
                                     mode):
    assert run_functional(tmp_path, config, workload, mode, interval) == \
        PINNED[config, workload, interval]


@pytest.mark.parametrize("mode", MODES)
def test_cycle_telemetry_pinned(tmp_path, mode):
    assert run_cycle(tmp_path, mode) == PINNED_CYCLE


def test_sweep_telemetry_pinned():
    results = run_cells(grid_cells(), workers=1)
    assert [registry_digest(result.telemetry) for result in results] == \
        PINNED_GRID
