"""The backends × engine-modes differential battery.

Fast mode (``engine_mode="fast"``) claims byte-identical behaviour to
the reference interpreter: same committed branch stream, same
:class:`~repro.stats.metrics.RunStats` invariants, same learned table
fingerprints, byte-identical ``state_io`` checkpoints — on every
backend, every generation config, with telemetry, fault injection and
observers on or off, through every run entry point (``run_program``,
``run_branches``, ``run_events``/``run_interleaved``, the cycle
engine).  This module is the proof, and — like the cross-backend
battery — it also proves the *detector* detects, so a clean run means
equivalence rather than a broken comparison.

Workload Programs are stateful (behaviours carry loop counters and
pattern positions), so every run here builds its workload fresh; a
shared Program diverges even reference-vs-reference.
"""

import pickle

import pytest

from repro.configs import GENERATIONS, z15_config
from repro.core.entries import BtbEntry
from repro.engine import (
    ENGINE_MODES,
    CycleEngine,
    FunctionalEngine,
    create_predictor,
)
from repro.isa.instructions import BranchKind
from repro.obs import TelemetrySession
from repro.resilience import FaultInjector, FaultPlan
from repro.structures.saturating import TwoBitDirectionCounter
from repro.verification.differential import (
    comparable_stats,
    cross_backend_report,
    cross_engine_report,
    cross_mode_report,
    observer_into,
    predictor_fingerprint,
    replay_report,
)
from repro.workloads import STANDARD_WORKLOADS, get_workload
from repro.workloads.executor import Executor
from repro.workloads.multi import InterleavedRun
from tests.conftest import DEFAULT_TEST_SEED


def _run_mode(mode, backend="object", workload="transactions",
              branches=1500, config_factory=z15_config, telemetry=False,
              fault_plan=None, observe=False, warmup=0):
    """One functional run in *mode* with optional attachments; returns
    (observations, stats, predictor).  The workload is built fresh —
    Programs are stateful and must never be shared across runs."""
    observations = []
    predictor = create_predictor(config_factory(), backend)
    session = None
    if telemetry:
        session = TelemetrySession(predictor=predictor, interval=500,
                                   skip=warmup).begin(
            workload=workload, predictor="z15", seed=DEFAULT_TEST_SEED,
            branches=branches,
        )
    injector = FaultInjector(predictor, fault_plan) if fault_plan else None
    engine = FunctionalEngine(
        predictor,
        observer=observer_into(observations) if observe else None,
        telemetry=session,
        injector=injector,
        engine_mode=mode,
    )
    stats = engine.run_program(
        get_workload(workload, DEFAULT_TEST_SEED), max_branches=branches,
        warmup_branches=warmup, seed=DEFAULT_TEST_SEED,
    )
    return observations, stats, predictor


# ----------------------------------------------------------------------
# The matrix: workloads × backends × generations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize("workload",
                         ["transactions", "footprint-medium", "dispatch"])
def test_reads_build_no_state(backend, workload):
    """The kernels read BTB1 and TAGE rows inline; a read must leave
    nothing behind that the reference path does not.  A lazily built
    row or replacement policy is state too, so after the same stream
    the two predictors must pickle to the same bytes."""
    blobs = []
    for mode in ENGINE_MODES:
        predictor = create_predictor(z15_config(), backend)
        FunctionalEngine(predictor, engine_mode=mode).run_program(
            get_workload(workload, 3), max_branches=3000,
            warmup_branches=500, seed=3,
        )
        blobs.append(pickle.dumps(predictor))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("workload", sorted(STANDARD_WORKLOADS))
def test_suite_workload_cross_mode_equivalence(workload):
    """Every standard workload, object backend: identical stream,
    invariants, fingerprints and byte-identical checkpoints."""
    report = cross_mode_report(
        workload, branches=1200, seed=DEFAULT_TEST_SEED
    )
    assert report.clean, report.summary()
    assert report.branches_compared == 1200


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize("generation", sorted(GENERATIONS))
def test_generation_cross_mode_equivalence(generation, backend):
    """Every generation preset on both backends — including configs with
    no BTB2, no SKOOT and no speculative overrides, which compile to
    genuinely different kernel shapes."""
    factory, _ = GENERATIONS[generation]
    report = cross_mode_report(
        "transactions", branches=1200, seed=DEFAULT_TEST_SEED,
        config_factory=factory, backend=backend,
    )
    assert report.clean, report.summary()


@pytest.mark.parametrize("generation", sorted(GENERATIONS))
def test_fast_mode_cross_backend_equivalence(generation):
    """The other diagonal of the matrix: object vs array compared while
    *both* run fast mode."""
    factory, _ = GENERATIONS[generation]
    report = cross_backend_report(
        "compute-kernel", branches=1200, seed=DEFAULT_TEST_SEED,
        config_factory=factory, engine_mode="fast",
    )
    assert report.clean, report.summary()


def test_fast_mode_replay_is_deterministic():
    report = replay_report("dispatch", branches=1200,
                           seed=DEFAULT_TEST_SEED, engine_mode="fast")
    assert report.clean, report.summary()


# ----------------------------------------------------------------------
# Attachments: observer, telemetry, fault injector, warmup
# ----------------------------------------------------------------------


def test_observed_kernels_match_reference_with_observer():
    obs_ref, stats_ref, pred_ref = _run_mode("reference", observe=True)
    obs_fast, stats_fast, pred_fast = _run_mode("fast", observe=True)
    assert obs_ref == obs_fast
    assert comparable_stats(stats_ref) == comparable_stats(stats_fast)
    assert predictor_fingerprint(pred_ref) == predictor_fingerprint(pred_fast)


def test_telemetry_session_matches_reference():
    """Telemetry harvests component counters mid-run, so the observed
    kernels must keep per-branch attribute updates visible — locals-only
    counter caching would silently zero every interval."""
    _, stats_ref, pred_ref = _run_mode("reference", telemetry=True,
                                       warmup=300)
    _, stats_fast, pred_fast = _run_mode("fast", telemetry=True, warmup=300)
    assert comparable_stats(stats_ref) == comparable_stats(stats_fast)
    assert predictor_fingerprint(pred_ref) == predictor_fingerprint(pred_fast)


def test_fault_injection_matches_reference():
    """The injector rides the observer seam and mutates tables between
    branches; the deterministic plan must fire identically in both
    modes, fault for fault."""
    plan = FaultPlan(seed=77, rate=0.02).validate()
    _, stats_ref, pred_ref = _run_mode(
        "reference", fault_plan=FaultPlan(seed=77, rate=0.02).validate()
    )
    _, stats_fast, pred_fast = _run_mode("fast", fault_plan=plan)
    assert comparable_stats(stats_ref) == comparable_stats(stats_fast)
    assert predictor_fingerprint(pred_ref) == predictor_fingerprint(pred_fast)


def test_warmup_split_matches_reference():
    """Warmup branches train but are not counted; the fast warmup kernel
    must hand the stream to the counted kernel at exactly the same
    branch."""
    _, stats_ref, pred_ref = _run_mode("reference", warmup=700,
                                       branches=1000)
    _, stats_fast, pred_fast = _run_mode("fast", warmup=700, branches=1000)
    assert stats_ref.branches == stats_fast.branches == 1000
    assert comparable_stats(stats_ref) == comparable_stats(stats_fast)
    assert predictor_fingerprint(pred_ref) == predictor_fingerprint(pred_fast)


# ----------------------------------------------------------------------
# The other entry points: run_branches, run_events, cycle engine
# ----------------------------------------------------------------------


def _recorded_branches(workload="services", count=800):
    """Materialise a branch list once, straight off the executor."""
    executor = Executor(get_workload(workload, DEFAULT_TEST_SEED),
                        seed=DEFAULT_TEST_SEED)
    return list(executor.run(max_branches=count))


def test_run_branches_matches_reference():
    branches = _recorded_branches()
    results = []
    for mode in ("reference", "fast"):
        predictor = create_predictor(z15_config(), "object")
        engine = FunctionalEngine(predictor, engine_mode=mode)
        stats = engine.run_branches(list(branches))
        results.append((comparable_stats(stats),
                        stats.instructions_approximate,
                        predictor_fingerprint(predictor)))
    assert results[0] == results[1]


def test_run_interleaved_matches_reference():
    """The events kernel handles ContextSwitch records inline; an
    interleaved multi-context run must commit identically."""
    results = []
    for mode in ("reference", "fast"):
        progs = [get_workload("compute-kernel", DEFAULT_TEST_SEED),
                 get_workload("dispatch", DEFAULT_TEST_SEED)]
        run = InterleavedRun(progs, quantum_branches=150,
                             seed=DEFAULT_TEST_SEED)
        predictor = create_predictor(z15_config(), "object")
        engine = FunctionalEngine(predictor, engine_mode=mode)
        stats = engine.run_interleaved(run, total_branches=900)
        results.append((comparable_stats(stats),
                        predictor_fingerprint(predictor)))
    assert results[0] == results[1]


@pytest.mark.parametrize("backend", ["object", "array"])
def test_cycle_engine_fast_mode_matches_reference(backend):
    results = []
    for mode in ("reference", "fast"):
        predictor = create_predictor(z15_config(), backend)
        engine = CycleEngine(predictor, engine_mode=mode)
        stats = engine.run_program(
            get_workload("transactions", DEFAULT_TEST_SEED),
            max_branches=900, seed=DEFAULT_TEST_SEED,
        )
        results.append((stats.cycles, comparable_stats(stats.accuracy),
                        predictor_fingerprint(predictor)))
    assert results[0] == results[1]


def test_cycle_cross_engine_report_in_fast_mode():
    report = cross_engine_report("compute-kernel", branches=600,
                                 seed=DEFAULT_TEST_SEED, engine_mode="fast")
    assert report.clean, report.summary()


# ----------------------------------------------------------------------
# The detector detects
# ----------------------------------------------------------------------


def _poison(predictor):
    """Preload one wrong BTB1 entry so the two runs genuinely diverge."""
    entry = BtbEntry(
        tag=0,
        offset=0,
        length=4,
        kind=BranchKind.UNCONDITIONAL_RELATIVE,
        target=0x9999,
        bht=TwoBitDirectionCounter(TwoBitDirectionCounter.STRONG_TAKEN),
    )
    predictor.btb1.install(0x4000, 0, entry)


def test_cross_mode_report_detects_divergence():
    report = cross_mode_report(
        "transactions", branches=800, seed=DEFAULT_TEST_SEED,
        prepare_right=_poison,
    )
    assert not report.clean
    assert (report.first_divergence is not None
            or report.aggregate_mismatches)
