"""Parallel sweep runner: deterministic warm-worker fan-out over cells.

The multi-config experiments (Table 1 generations, Figure 3 ablations,
design-choice sweeps) are embarrassingly parallel: every (config,
workload, seed) cell is an independent simulation.  This module fans a
list of :class:`SweepCell` over warm worker processes — each a
:class:`repro.common.workers.Worker`, the one supervised-process core
the serve shards run on too — and merges the results back **in
submission order**, so a parallel sweep is byte-identical to a
sequential one.

The warm-pool architecture (the fix for the ``speedup: 0.87`` baseline,
where per-cell pickling of deep-copied Programs dominated the fan-out):

* **Serialize-once transfer.**  A :class:`PayloadRegistry` pickles each
  distinct heavy payload (Program, PredictorConfig, FaultPlan) exactly
  once in the parent, keyed by a content fingerprint.  Workers receive
  the whole blob cache once, at start, as their factory's argument —
  chunk messages afterwards carry only fingerprints and scalars.
* **Local per-cell copies.**  A worker materialises a pristine config
  (and fault plan) per cell with ``pickle.loads`` on its cached blob —
  the moral equivalent of the old per-cell ``copy.deepcopy``, but from
  bytes that crossed the pipe once.  The sequential path installs the
  same blob cache in-process and runs the identical materialisation
  code.
* **Record each stream once.**  A functional cell's branch stream
  depends only on (program, seed, length), so a worker records it
  (:class:`~repro.workloads.executor.StreamRecording`) for the first
  cell with that key and replays it to every later one, which then
  materialises no program at all.  The first recordings are kept up to
  :data:`_RECORDING_BUDGET` taped branches; cycle cells step their own
  executor.
* **Compile once.**  Fast cells (the default) run the config-specialized
  kernels; the parent compiles each config shape before it starts the
  workers, so fork-started workers inherit the kernel cache.
* **Chunking.**  Cells are dispatched in chunks of ``chunk_size`` to
  amortise dispatch and result IPC; a cell failure inside a chunk is
  caught per cell, so one bad cell never poisons chunkmates.  Each
  worker holds at most one chunk, and a freed worker gets its next
  chunk before any row is yielded.
* **Streaming.**  :func:`stream_cells` is an incremental iterator: it
  yields each :class:`SweepResult`/:class:`CellError` row as soon as
  every earlier row is definitive — merged into submission order, so
  consumers can checkpoint partial progress (see
  :mod:`repro.engine.stream`) without giving up the byte-identical
  contract.  :func:`run_cells` is the collect-into-a-list wrapper.

Determinism contract:

* ``_run_spec`` is the single cell body.  The sequential path
  (``workers <= 1``) calls it in-process; the parallel path ships it to
  worker processes inside :func:`_run_chunk`.  Both paths execute
  identical code over identically-materialised payloads, and settle
  every attempt's outcome through the same helper.
* Results are slotted by submission index, so they line up with cells
  regardless of which worker finished first — including across retries.
* Every result carries the :func:`~repro.verification.differential.
  stats_fingerprint` of its :class:`~repro.stats.metrics.RunStats`, so
  equivalence between worker counts is a string comparison.

Failure contract:

* ``_run_spec`` is pure per cell, so a retry after a transient failure
  reproduces the exact result a clean first run would have produced —
  determinism survives retries by construction.
* A cell that keeps failing yields a structured :class:`CellError` in
  its result slot instead of killing the sweep; its ``fingerprint``
  property encodes the failure kind (``cell-error:<kind>``).
* An optional per-cell ``timeout`` bounds each attempt; a chunk of *k*
  cells gets a ``k * timeout`` budget from its dispatch.  A worker that
  dies or overruns is killed and replaced.  A single-cell chunk spends
  an attempt of its cell; a multi-cell chunk goes back on the queue as
  single-cell chunks, so the crash is attributed to exactly one cell
  while its innocent chunkmates — and every other chunk — run on warm
  workers as before.

``python -m repro sweep`` and ``python -m repro fleet`` are the CLI
front ends.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import SimulationError
from repro.common.workers import Worker
from repro.configs.predictor import PredictorConfig
from repro.engine.functional import FunctionalEngine
from repro.engine.specialize import config_shape, kernels_for_config
from repro.workloads.executor import StreamRecording
from repro.workloads.program import Program
from repro.workloads.suite import get_workload

#: Cap on one exponential-backoff sleep (seconds).
_BACKOFF_CAP = 5.0


@dataclass
class SweepCell:
    """One independent (config, workload, seed) simulation.

    ``workload`` is either a standard-suite name (resolved per cell with
    the cell's seed) or a concrete :class:`Program` (materialised from a
    serialize-once blob before running).  Cells must pickle: configs are
    plain dataclasses and programs carry only deterministic state.
    """

    label: str
    config: PredictorConfig
    workload: Union[str, Program]
    seed: int = 1
    branches: int = 8000
    warmup: int = 4000
    #: "functional" (RunStats) or "cycle" (CycleStats; warmup ignored —
    #: the cycle engine has no warmup phase).
    engine: str = "functional"
    #: Predictor backend ("object" or "array") — cells on either backend
    #: produce identical stats and fingerprints, so mixing backends
    #: across a sweep is legal and the equivalence check still holds.
    backend: str = "object"
    #: Engine mode ("fast" or "reference") — fast cells drive the
    #: config-specialized compiled kernels (:mod:`repro.engine.
    #: specialize`); stats and fingerprints are byte-identical across
    #: modes, so mixing modes across a sweep is legal too.
    engine_mode: str = "fast"
    #: Attach a telemetry session to the cell's run.  Telemetry is an
    #: observer — it must not (and, by the tier-1 equivalence tests,
    #: does not) change the cell's stats or fingerprint; the session's
    #: registry export comes back in ``SweepResult.telemetry``.
    telemetry: bool = False
    #: Interval-sampler window for telemetry cells (0 disables sampling).
    telemetry_interval: int = 0
    #: Optional deterministic fault campaign
    #: (:class:`repro.resilience.FaultPlan`) riding the cell's engine;
    #: the injector's counters come back in ``SweepResult.faults``.
    #: None keeps the cell byte-identical to a fault-free build.
    fault_plan: Optional[object] = None
    #: Test-only hook: a module-level (hence picklable) callable invoked
    #: with the cell's spec inside the worker before the run.  The
    #: hardening tests use it to crash or hang a worker on purpose
    #: (specs expose ``label``/``seed``/... like the cell); production
    #: sweeps leave it None.
    prelude: Optional[Callable] = None

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, Program):
            return self.workload.name
        return self.workload


@dataclass
class SweepResult:
    """Stats for one completed cell, in the cell's submission slot."""

    label: str
    workload: str
    seed: int
    branches: int
    warmup: int
    #: RunStats for functional cells; CycleStats for cycle cells.  A
    #: result restored from a checkpoint stream carries a read-only
    #: :class:`repro.engine.stream.RestoredStats` view instead.
    stats: object
    #: ``stats_fingerprint`` of the cell's accuracy RunStats — two
    #: sweeps agree iff these do.
    fingerprint: str
    #: Wall-clock seconds inside the worker: the engine's construction
    #: and run, generating or recording the branch stream included.
    #: Materialising payloads and building the predictor (and any
    #: telemetry session or fault injector) happen before the clock.
    elapsed: float
    #: Telemetry registry export (``Telemetry.to_dict()`` plus samples)
    #: for telemetry cells; None otherwise.
    telemetry: Optional[dict] = None
    #: Fault-injector counters for cells run under a fault plan.
    faults: Optional[dict] = None


@dataclass
class CellError:
    """Structured failure filling the result slot of a cell that could
    not be completed.

    Mirrors :class:`SweepResult`'s identity fields so report code can
    render mixed result lists; ``stats`` is always None and the
    ``fingerprint`` property encodes the failure kind instead of a
    stats digest.
    """

    label: str
    workload: str
    seed: int
    branches: int
    warmup: int
    #: "error" (exception in the cell body), "timeout" (no result
    #: within the per-cell timeout) or "crash" (worker process died).
    kind: str
    message: str
    #: Attempts consumed before giving up.
    attempts: int
    elapsed: float = 0.0
    stats: object = None
    telemetry: Optional[dict] = None
    faults: Optional[dict] = None

    @property
    def fingerprint(self) -> str:
        return f"cell-error:{self.kind}"


# ----------------------------------------------------------------------
# Serialize-once payload transfer
# ----------------------------------------------------------------------


class PayloadRegistry:
    """Content-addressed pickle cache: each distinct payload object is
    pickled exactly once, no matter how many cells reference it or how
    many workers run them.

    ``register`` memoises by object identity (strong references are
    kept, so ids stay valid) and dedups by content fingerprint — two
    equal-but-distinct Programs share one blob on the wire.
    ``pickle_calls`` counts actual ``pickle.dumps`` invocations; the
    serialize-once regression tests pin it to the number of distinct
    payload objects.
    """

    def __init__(self) -> None:
        self._fingerprints: Dict[int, str] = {}
        self._keepalive: List[object] = []
        #: fingerprint -> pickled bytes; shipped to each worker once,
        #: as it starts.
        self.blobs: Dict[str, bytes] = {}
        #: ``pickle.dumps`` calls made by this registry.
        self.pickle_calls = 0

    def register(self, payload: Optional[object]) -> Optional[str]:
        """Pickle *payload* (once) and return its content fingerprint."""
        if payload is None:
            return None
        key = id(payload)
        fingerprint = self._fingerprints.get(key)
        if fingerprint is not None:
            return fingerprint
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.pickle_calls += 1
        fingerprint = hashlib.sha256(blob).hexdigest()
        self.blobs.setdefault(fingerprint, blob)
        self._fingerprints[key] = fingerprint
        self._keepalive.append(payload)
        return fingerprint

    @property
    def payload_bytes(self) -> int:
        return sum(len(blob) for blob in self.blobs.values())


#: Worker-process blob cache, installed once per worker as it starts
#: (the sequential path installs it in-process).
_PAYLOAD_CACHE: Dict[str, bytes] = {}

#: Worker-side instrumentation, keyed to the owning pid so a forked
#: child never inherits its parent's counters as its own.
#: ``setup_seconds`` sums each cell's time before its ``elapsed`` clock
#: starts (payloads, predictor, telemetry session, injector).
_WORKER_STATS: Dict[str, float] = {}

#: Recorded branch streams, keyed by (program fingerprint or suite
#: name, seed, warmup + branches); emptied with each blob-cache install,
#: so a worker records each stream at most once per sweep.
_RECORDINGS: Dict[Tuple[str, int, int], StreamRecording] = {}

#: Taped branches a process keeps for replay (~225 B each, ~30 MB).
#: Grids are config-major, so a stream comes back once per config: the
#: first recordings are kept and later ones are used once and dropped,
#: where an LRU would evict each stream just before it comes back.
_RECORDING_BUDGET = 1 << 17


def _install_payloads(blobs: Mapping[str, bytes]) -> None:
    """Receive the serialize-once blob cache.

    Runs exactly once per worker process — every later chunk message
    references payloads by fingerprint only.
    """
    pid = os.getpid()
    if _WORKER_STATS.get("pid") != pid:
        _WORKER_STATS.clear()
        _WORKER_STATS.update(
            pid=pid, installs=0, materializations=0,
            payload_blobs=0, payload_bytes=0, cells_run=0, recordings=0,
            setup_seconds=0.0,
        )
    _PAYLOAD_CACHE.clear()
    _PAYLOAD_CACHE.update(blobs)
    _RECORDINGS.clear()
    _WORKER_STATS["installs"] += 1
    _WORKER_STATS["payload_blobs"] = len(blobs)
    _WORKER_STATS["payload_bytes"] = sum(len(b) for b in blobs.values())


def _materialize(fingerprint: str) -> object:
    """A pristine local copy of a registered payload: ``pickle.loads``
    on the cached blob — per-cell isolation without per-cell IPC."""
    blob = _PAYLOAD_CACHE.get(fingerprint)
    if blob is None:
        raise SimulationError(
            f"payload {fingerprint[:12]} missing from worker cache "
            f"(pool initialised with {len(_PAYLOAD_CACHE)} blobs)"
        )
    _WORKER_STATS["materializations"] = (
        _WORKER_STATS.get("materializations", 0) + 1
    )
    return pickle.loads(blob)


@dataclass
class _CellSpec:
    """The light, chunk-shippable form of a cell: heavy payloads are
    replaced by registry fingerprints; everything else is scalars."""

    label: str
    workload_name: str
    #: Registry fingerprint of a concrete Program, or None for a
    #: standard-suite workload rebuilt per cell from (name, seed).
    workload_ref: Optional[str]
    config_ref: str
    fault_ref: Optional[str]
    seed: int
    branches: int
    warmup: int
    engine: str
    backend: str
    engine_mode: str
    telemetry: bool
    telemetry_interval: int
    prelude: Optional[Callable]


def _spec_for(cell: SweepCell, registry: PayloadRegistry) -> _CellSpec:
    workload_ref = None
    if isinstance(cell.workload, Program):
        workload_ref = registry.register(cell.workload)
    return _CellSpec(
        label=cell.label,
        workload_name=cell.workload_name,
        workload_ref=workload_ref,
        config_ref=registry.register(cell.config),
        fault_ref=registry.register(cell.fault_plan),
        seed=cell.seed,
        branches=cell.branches,
        warmup=cell.warmup,
        engine=cell.engine,
        backend=cell.backend,
        engine_mode=cell.engine_mode,
        telemetry=cell.telemetry,
        telemetry_interval=cell.telemetry_interval,
        prelude=cell.prelude,
    )


def cell_fingerprint(cell: SweepCell,
                     registry: Optional[PayloadRegistry] = None) -> str:
    """A stable content digest of a cell's identity (payloads included,
    test-only prelude excluded) — the key a checkpoint stream uses to
    prove a resumed sweep is the same sweep."""
    spec = _spec_for(cell, registry if registry is not None
                     else PayloadRegistry())
    identity = (
        spec.label, spec.workload_name, spec.workload_ref, spec.config_ref,
        spec.fault_ref, spec.seed, spec.branches, spec.warmup, spec.engine,
        spec.backend, spec.telemetry, spec.telemetry_interval,
        spec.engine_mode,
    )
    return hashlib.sha256(repr(identity).encode()).hexdigest()


# ----------------------------------------------------------------------
# The cell body
# ----------------------------------------------------------------------


def _recording(key: Tuple[str, int, int],
               program: Optional[Program]) -> StreamRecording:
    """The recorded stream for *key*: the kept one, or a new recording
    of *program*, kept while the budget allows."""
    recording = _RECORDINGS.get(key)
    if recording is not None:
        return recording
    _, seed, length = key
    recording = StreamRecording(program, seed, length)
    _WORKER_STATS["recordings"] = _WORKER_STATS.get("recordings", 0) + 1
    held = sum(len(kept) for kept in _RECORDINGS.values())
    if held + len(recording) <= _RECORDING_BUDGET:
        _RECORDINGS[key] = recording
    return recording


def _run_spec(spec: _CellSpec) -> SweepResult:
    """Run one cell from its spec.  Module-level so it pickles to worker
    processes; the sequential path calls the same function (over the
    same in-process blob cache) for path parity."""
    from repro.verification.differential import stats_fingerprint

    if spec.prelude is not None:
        spec.prelude(spec)
    entry = time.perf_counter()
    key = (spec.workload_ref or spec.workload_name, spec.seed,
           spec.warmup + spec.branches)
    program = None
    if spec.engine == "cycle" or key not in _RECORDINGS:
        # Behaviours are stateful — every run starts from a pristine
        # copy, materialised locally from the serialize-once blob.
        program = (_materialize(spec.workload_ref)
                   if spec.workload_ref is not None
                   else get_workload(spec.workload_name, spec.seed))
    config = _materialize(spec.config_ref)
    from repro.engine.array import create_predictor

    predictor = create_predictor(config, spec.backend)
    session = None
    if spec.telemetry:
        from repro.obs.session import TelemetrySession

        # The cycle engine has no warmup phase, so only functional cells
        # skip their warmup outcomes (keeping telemetry reconcilable
        # with the counted-phase RunStats).
        session = TelemetrySession(
            predictor=predictor,
            interval=spec.telemetry_interval,
            skip=spec.warmup if spec.engine != "cycle" else 0,
        )
    injector = None
    if spec.fault_ref is not None:
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(predictor, _materialize(spec.fault_ref))
    start = time.perf_counter()
    _WORKER_STATS["setup_seconds"] = (
        _WORKER_STATS.get("setup_seconds", 0.0) + start - entry
    )
    if spec.engine == "cycle":
        from repro.engine.cycle import CycleEngine

        engine = CycleEngine(predictor, telemetry=session, injector=injector,
                             engine_mode=spec.engine_mode)
        stats = engine.run_program(
            program, max_branches=spec.branches, seed=spec.seed
        )
        accuracy = stats.accuracy
    else:
        engine = FunctionalEngine(predictor, telemetry=session,
                                  injector=injector,
                                  engine_mode=spec.engine_mode)
        stats = engine.run_recording(
            _recording(key, program),
            max_branches=spec.branches,
            warmup_branches=spec.warmup,
        )
        accuracy = stats
    elapsed = time.perf_counter() - start
    telemetry = None
    if session is not None:
        session.finish()
        telemetry = session.to_dict()
    _WORKER_STATS["cells_run"] = _WORKER_STATS.get("cells_run", 0) + 1
    return SweepResult(
        label=spec.label,
        workload=spec.workload_name,
        seed=spec.seed,
        branches=spec.branches,
        warmup=spec.warmup,
        stats=stats,
        fingerprint=stats_fingerprint(accuracy),
        elapsed=elapsed,
        telemetry=telemetry,
        faults=injector.component_counters() if injector is not None else None,
    )


def _attempt(tasks: List[Tuple[int, _CellSpec]]
             ) -> List[Tuple[int, str, object]]:
    """Run cells one by one, catching failures *per cell*: a raising
    cell yields an ``(index, "error", message)`` outcome while its
    chunkmates complete normally — only a crash or hang takes a whole
    chunk down."""
    outcomes: List[Tuple[int, str, object]] = []
    for index, spec in tasks:
        try:
            outcomes.append((index, "ok", _run_spec(spec)))
        except Exception as error:
            outcomes.append(
                (index, "error", f"{type(error).__name__}: {error}")
            )
    return outcomes


def _run_chunk(tasks: List[Tuple[int, _CellSpec]]) -> Tuple[bytes, dict]:
    """Run a chunk of cells inside a warm worker.

    Result IPC is *batched*: the whole outcome list crosses the pipe as
    one ``pickle.dumps`` blob, so the RunStats of chunkmates share one
    pickle memo (interned class descriptors, provider-name keys, the
    framing overhead) instead of paying it per cell.  The worker also
    measures what the same outcomes would have cost pickled one by one,
    so ``pool_stats`` can account the bytes the batching saved.
    Returns (outcome blob, worker instrumentation snapshot).
    """
    outcomes = _attempt(tasks)
    blob = pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL)
    unbatched = sum(
        len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        for outcome in outcomes
    )
    stats = dict(_WORKER_STATS)
    stats["chunk_result_bytes"] = len(blob)
    stats["chunk_result_bytes_unbatched"] = unbatched
    return blob, stats


def _sweep_worker(blobs: Mapping[str, bytes]) -> Callable:
    """Worker-core factory: install the serialize-once blob cache, once
    per worker process; every message after that is one chunk to run."""
    _install_payloads(blobs)
    return lambda _op, tasks: _run_chunk(tasks)


# ----------------------------------------------------------------------
# Hardened execution
# ----------------------------------------------------------------------


def _cell_error(cell: SweepCell, kind: str, message: str,
                attempts: int) -> CellError:
    return CellError(
        label=cell.label,
        workload=cell.workload_name,
        seed=cell.seed,
        branches=cell.branches,
        warmup=cell.warmup,
        kind=kind,
        message=message,
        attempts=attempts,
    )


def _fresh_pool_stats() -> dict:
    return {
        "mode": None,
        "workers_requested": 0,
        "chunk_size": 1,
        "payload_blobs": 0,
        "payload_bytes": 0,
        "parent_pickle_calls": 0,
        "chunks_dispatched": 0,
        "result_blobs": 0,
        "result_bytes": 0,
        "result_bytes_unbatched": 0,
        "result_bytes_saved": 0,
        "pool_breaks": 0,
        "isolation_attempts": 0,
        "resumed_cells": 0,
        #: Latest instrumentation snapshot per worker pid.
        "workers": {},
    }


def _phase(spans, name: str, **fields):
    """A span around one pool phase, or nothing when tracing is off."""
    return spans.span(name, **fields) if spans else nullcontext()


def stream_cells(
    cells: Iterable[SweepCell],
    workers: int = 1,
    chunk_size: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.25,
    completed: Optional[Mapping[int, Union[SweepResult, CellError]]] = None,
    pool_stats: Optional[dict] = None,
    spans=None,
) -> Iterator[Union[SweepResult, CellError]]:
    """Incrementally run every cell, yielding results in cell order.

    Rows are yielded as soon as every earlier row is definitive — a
    consumer writing each row to disk therefore checkpoints a strict,
    never-reordered prefix of the final result list.  ``completed``
    pre-fills result slots (by submission index) from a previous
    partial run; those cells are not re-run (see
    :func:`repro.engine.stream.restore_completed`).

    ``workers <= 1`` runs in-process over the same serialize-once blob
    cache and cell body as the worker path — per-cell stats and
    fingerprints are identical either way; only wall-clock changes.
    Otherwise each of up to *workers* warm :class:`~repro.common.
    workers.Worker` processes holds at most one chunk at a time.
    *timeout* bounds each attempt of each cell (a chunk of *k* cells
    gets ``k * timeout``, counted from dispatch); *retries* is how many
    times a failed cell is re-attempted (alone, after an exponential
    *backoff*) before its slot is filled with a :class:`CellError`.  A
    worker that dies or hangs is replaced: a single-cell chunk spends
    an attempt of its cell, a multi-cell chunk goes back on the queue
    as single-cell chunks, spending none.  ``pool_stats``, when given a
    dict, is populated with transfer/instrumentation counters
    (serialize-once accounting, per-worker install counts, chunk
    dispatch totals, worker breaks).

    *spans*, when given a :class:`~repro.obs.spans.SpanTracer`, records
    the submission lifecycle: ``serialize``/``transfer``/``execute``/
    ``merge`` phase spans (worker execute time harvested from each
    result's in-worker ``elapsed``), plus ``cell.retry``/
    ``cell.timeout``/``cell.error``/``pool.break`` incident events, and
    leaves per-phase latency histograms in ``pool_stats
    ["phase_latency"]``.  Spans only observe — results and fingerprints
    are byte-identical with tracing on or off — and the default off
    path pays one truthiness check per phase.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    cells = list(cells)
    stats = pool_stats if pool_stats is not None else {}
    stats.update(_fresh_pool_stats())
    registry = PayloadRegistry()
    with _phase(spans, "serialize", cells=len(cells)):
        specs = [_spec_for(cell, registry) for cell in cells]
    results: List[object] = [None] * len(cells)
    for index, result in (completed or {}).items():
        if not 0 <= index < len(cells):
            raise ValueError(
                f"completed index {index} outside grid of {len(cells)} cells"
            )
        results[index] = result
    stats.update(
        workers_requested=workers,
        chunk_size=chunk_size,
        payload_blobs=len(registry.blobs),
        payload_bytes=registry.payload_bytes,
        parent_pickle_calls=registry.pickle_calls,
        resumed_cells=sum(1 for r in results if r is not None),
    )
    pending = [i for i in range(len(cells)) if results[i] is None]
    sequential = workers <= 1 or len(pending) <= 1
    size = 1 if sequential else chunk_size  # in-process: row by row
    #: (not-before time, cell indices) in dispatch order: fresh chunks,
    #: with retries and the single-cell remains of broken chunks put
    #: in front of them.
    queue = [(0.0, pending[i:i + size])
             for i in range(0, len(pending), size)]
    attempts = [0] * len(cells)
    emitted = 0

    def settle(index: int, kind: str, payload) -> None:
        """Fill the cell's slot with one attempt's outcome, or queue
        the cell alone behind its backoff while attempts remain."""
        attempts[index] += 1
        label = cells[index].label
        if kind == "ok":
            results[index] = payload
            if spans:  # the in-worker run time is the execute phase
                spans.observe("execute", payload.elapsed, label=label)
        elif attempts[index] > retries:
            results[index] = _cell_error(cells[index], kind, str(payload),
                                         attempts[index])
            if spans:
                spans.event("cell.error", label=label, kind=kind,
                            attempts=attempts[index])
        else:
            if spans:
                spans.event("cell.retry", label=label, kind=kind,
                            attempt=attempts[index])
            delay = min(backoff * 2 ** (attempts[index] - 1), _BACKOFF_CAP)
            queue.insert(0, (time.monotonic() + delay, [index]))

    def emit_ready():
        nonlocal emitted
        while emitted < len(cells) and results[emitted] is not None:
            yield results[emitted]
            emitted += 1

    pool: List[Worker] = []
    try:
        yield from emit_ready()  # a resumed prefix needs no run
        if sequential:
            stats["mode"] = "sequential"
            with _phase(spans, "transfer",
                        payload_bytes=registry.payload_bytes):
                _install_payloads(registry.blobs)
            while queue:
                not_before, chunk = queue.pop(0)
                time.sleep(max(0.0, not_before - time.monotonic()))
                for outcome in _attempt([(i, specs[i]) for i in chunk]):
                    settle(*outcome)
                yield from emit_ready()
            return
        stats["mode"] = "warm-pool"
        _compile_kernels(cells[i] for i in pending)
        pool.extend(Worker(_sweep_worker, (registry.blobs,),
                           name=f"repro-sweep-{n}")
                    for n in range(min(workers, len(queue))))
        with _phase(spans, "transfer", payload_bytes=registry.payload_bytes,
                    workers=len(pool)):
            for worker in pool:
                worker.start()
        for _ in _supervise(pool, queue, specs, settle, timeout, stats,
                            spans):
            yield from emit_ready()
    finally:
        # Workers hold nothing to flush: finished or abandoned (the
        # consumer stopped early), the sweep kills them.
        for worker in pool:
            worker.kill()
        _RECORDINGS.clear()  # the sequential path's, held in-process
        if spans:
            stats["phase_latency"] = spans.phase_latency()


def _compile_kernels(cells: Iterable[SweepCell]) -> None:
    """Compile the kernels of each config shape the fast *cells* use,
    once, in this process: fork-started workers inherit the cache
    instead of each compiling every shape again (other start methods
    compile in the worker, as a sequential run does)."""
    shapes = {config_shape(cell.config): cell.config
              for cell in cells if cell.engine_mode == "fast"}
    for config in shapes.values():
        kernels_for_config(config)


def _supervise(pool: List[Worker], queue: List, specs: List[_CellSpec],
               settle: Callable, timeout: Optional[float], stats: dict,
               spans) -> Iterator[None]:
    """Drain *queue* over the started *pool*, each worker holding at
    most one chunk, and pause (yield) whenever rows may have become
    ready.  A worker that dies or overruns its chunk's deadline is
    replaced on the spot."""
    idle = list(pool)
    #: worker -> (cell indices, deadline or None)
    busy: Dict[Worker, Tuple[List[int], Optional[float]]] = {}

    def dispatch() -> None:
        now = time.monotonic()
        while idle:
            item = next((item for item in queue if item[0] <= now), None)
            if item is None:
                return
            queue.remove(item)
            chunk = item[1]
            worker = idle.pop()
            busy[worker] = (chunk, now + timeout * len(chunk)
                            if timeout is not None else None)
            stats["chunks_dispatched"] += 1
            try:
                worker.send(stats["chunks_dispatched"], "run",
                            [(i, specs[i]) for i in chunk])
            except OSError:
                pass  # died while idle: its EOF reads as a crash below

    def lost(chunk: List[int], kind: str, message: str) -> None:
        """Account a chunk whose worker died or overran."""
        stats["pool_breaks"] += 1
        if spans:
            spans.event("pool.break", kind=kind, cells=len(chunk))
        if len(chunk) > 1:
            # The culprit is unknown: every chunkmate re-runs alone on
            # the warm workers, and none spends an attempt here.
            stats["isolation_attempts"] += len(chunk)
            queue[:0] = [(0.0, [index]) for index in chunk]
            return
        if spans and kind == "timeout":
            spans.event("cell.timeout", label=specs[chunk[0]].label)
        settle(chunk[0], kind, message)

    dispatch()
    while busy or queue:
        wakeups = [deadline for _, deadline in busy.values()
                   if deadline is not None]
        if idle:
            wakeups += [not_before for not_before, _ in queue]
        ready = wait([worker.conn for worker in busy],
                     max(0.0, min(wakeups) - time.monotonic())
                     if wakeups else None)
        now = time.monotonic()
        for worker, (chunk, deadline) in list(busy.items()):
            if worker.conn in ready:
                try:
                    _, (blob, worker_stats) = worker.recv()
                except (EOFError, OSError):
                    kind, message = "crash", "worker process died mid-cell"
                else:
                    del busy[worker]
                    idle.append(worker)
                    dispatch()
                    with _phase(spans, "merge", cells=len(chunk)):
                        outcomes = pickle.loads(blob)
                    stats["workers"][worker_stats["pid"]] = worker_stats
                    stats["result_blobs"] += 1
                    stats["result_bytes"] += len(blob)
                    stats["result_bytes_unbatched"] += worker_stats[
                        "chunk_result_bytes_unbatched"]
                    stats["result_bytes_saved"] = (
                        stats["result_bytes_unbatched"]
                        - stats["result_bytes"])
                    for outcome in outcomes:
                        settle(*outcome)
                    continue
            elif deadline is not None and now >= deadline:
                kind, message = "timeout", f"no result within {timeout}s"
            else:
                continue
            del busy[worker]
            worker.restart()
            idle.append(worker)
            lost(chunk, kind, message)
        # Freed workers take their next chunk before the consumer
        # sees a row, so a slow consumer never idles a worker.
        dispatch()
        yield


def run_cells(
    cells: Iterable[SweepCell],
    workers: int = 1,
    chunk_size: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.25,
    completed: Optional[Mapping[int, Union[SweepResult, CellError]]] = None,
    pool_stats: Optional[dict] = None,
    spans=None,
) -> List[Union[SweepResult, CellError]]:
    """Run every cell; results are returned in cell order.

    The collect-into-a-list wrapper over :func:`stream_cells` — see
    there for the determinism, chunking and failure contracts.
    ``chunk_size`` sets how many cells ride one dispatch to a warm
    worker; 1 keeps the exact cell-at-a-time semantics of the
    pre-warm-pool runner.
    """
    return list(
        stream_cells(
            cells,
            workers=workers,
            chunk_size=chunk_size,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            completed=completed,
            pool_stats=pool_stats,
            spans=spans,
        )
    )


def make_grid(
    configs: Sequence[Tuple[str, PredictorConfig]],
    workloads: Sequence[Union[str, Program]],
    seeds: Sequence[int] = (1,),
    branches: int = 8000,
    warmup: int = 4000,
    backend: str = "object",
) -> List[SweepCell]:
    """Cross (config × workload × seed) into cells, config-major order."""
    return [
        SweepCell(
            label=label,
            config=config,
            workload=workload,
            seed=seed,
            branches=branches,
            warmup=warmup,
            backend=backend,
        )
        for label, config in configs
        for workload in workloads
        for seed in seeds
    ]
