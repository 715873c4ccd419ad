"""The benchmark's workloads: inputs from the seed, timed calls, oracles.

Each workload builds its inputs from ``--seed`` in :meth:`setup` (the
program receives only those generated inputs), then
:meth:`run_window` times calls into ``repro``'s public entry points
from outside until ``--seconds`` of timed calls have run.  Garbage is
collected right before each timed call, so the collector's schedule
inside a call depends only on that call's own allocations.
:meth:`check` verifies every output against an oracle that does not
share the timed path, plus the workload-validity assertions that keep
each workload exercising the layer it was chosen for.
:meth:`run_traced` repeats the window under :mod:`tracing` wrappers for
the per-layer metrics.

This module is imported inside the measured child process only: its
``repro`` imports are part of ``setup_s``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import repro  # noqa: F401  (timed as part of setup_s)
from repro.configs import z15_config
from repro.engine import CycleEngine, FunctionalEngine, create_predictor
from repro.engine import cycle as cycle_module
from repro.engine import functional as functional_module
from repro.verification.differential import stats_fingerprint
from repro.workloads import get_workload
from repro.workloads.executor import Executor

import tracing
from tracing import Recorder, merge_counters, median, percentile, ratio

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: How long a ``repro serve`` SIGTERM drain may take before the server
#: is taken for hung and killed (a drain normally takes about a second).
DRAIN_TIMEOUT_S = 15.0
#: A supervisor ping period longer than any run: no heartbeats.
NO_HEARTBEAT_S = 3600.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def corrupted(text: str) -> str:
    """A digest that cannot match (the smoke test's oracle probe)."""
    return text[:-1] + ("0" if text[-1:] != "0" else "1")


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


class Workload:
    """Shared shape: setup, timed window, oracle check, traced window."""

    name = ""
    #: The seed whose oracle digests are recorded in ``digests.json``.
    default_seed = 1

    def __init__(self, seed: int, seconds: float, scratch: Path,
                 corrupt: Optional[str] = None, probe: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.corrupt = corrupt
        #: A set-up probe: it reports setup_s and makes no timed call.
        self.probe = probe
        self.build_s = 0.0
        #: Set-up seconds spent building the load the benchmark sends,
        #: which a user of the program would not pay: not in setup_s.
        self.untimed_setup_s = 0.0
        #: Per timed call: seconds, branches predicted, output digest.
        self.ops: List[dict] = []
        self.failed = 0

    def close(self) -> None:
        pass

    def attempted(self) -> int:
        return len(self.ops)

    def window(self) -> dict:
        """End-to-end figures of the untraced window."""
        window_s = sum(op["s"] for op in self.ops)
        return {
            "window_s": window_s,
            "branches": sum(op["branches"] for op in self.ops),
            "latencies_ms": [op["s"] * 1000.0 for op in self.ops],
        }


# ----------------------------------------------------------------------
# Single-process simulation workloads
# ----------------------------------------------------------------------


class _SimWorkload(Workload):
    """One simulation run per timed call, on a fresh predictor and a
    pristine copy of the program (behaviours are stateful)."""

    program_name = ""
    branches = 0
    engine_mode = "reference"

    def setup(self) -> None:
        self.config = z15_config()
        start = time.perf_counter()
        program = get_workload(self.program_name, self.seed)
        self.build_s = time.perf_counter() - start
        self.blob = pickle.dumps(program)
        self._next = self._prepare()

    def _prepare(self, backend: str = "object", engine_mode=None):
        predictor = create_predictor(self.config, backend)
        engine = self._engine(predictor, engine_mode or self.engine_mode)
        return predictor, engine, pickle.loads(self.blob)

    def _timed_call(self, recorder: Optional[Recorder] = None,
                    span_name: str = "sim.run"):
        predictor, engine, program = self._next
        gc.collect()
        if recorder is None:
            start = time.perf_counter()
            stats = self._run(engine, program)
            elapsed = time.perf_counter() - start
        else:
            with recorder.span(span_name) as span:
                stats = self._run(engine, program)
            elapsed = span[4] - span[3]
        op = {"s": elapsed, "branches": self.predicted,
              "digest": self._digest(stats)}
        self._next = self._prepare()
        return op, predictor, stats

    def run_window(self) -> None:
        total = 0.0
        while total < self.seconds:
            op, predictor, stats = self._timed_call()
            self.ops.append(op)
            total += op["s"]
            self.last_counters = predictor.component_counters()
            self.last_stats = stats

    def check(self) -> dict:
        expected = self._expected_digest()
        if self.corrupt == "digest":
            expected = corrupted(expected)
        mismatched = sum(1 for op in self.ops if op["digest"] != expected)
        self.failed += mismatched
        return {"oracle": mismatched == 0, "expected": expected,
                "validity": self._validity()}

    # -- traced run --------------------------------------------------------

    def run_traced(self, recorder: Recorder) -> Dict[str, float]:
        """Alternate untraced and traced runs of the same input, so the
        tracing overhead is measured pairwise rather than across
        separate windows."""
        counters: dict = {}
        untraced_s = traced_s = 0.0
        while untraced_s + traced_s < self.seconds:
            op, predictor, stats = self._timed_call()
            self.ops.append(op)
            untraced_s += op["s"]
            self.last_counters = predictor.component_counters()
            self.last_stats = stats
            predictor, engine, _program = self._next
            tracing.wrap_predictor(recorder, predictor)
            self._wrap_engine(recorder, engine)
            op, predictor, stats = self._timed_call(recorder)
            recorder.unwrap_all()
            self.ops.append(op)
            traced_s += op["s"]
            merge_counters(counters, predictor.component_counters())
        runs = recorder.spans_named("sim.run")
        count = len(runs)
        untraced_op = untraced_s / count
        traced_op = traced_s / count
        metrics = tracing.structure_metrics(recorder, counters, count)
        executor_alone_s = self._drain_alone()
        # Every wrapped call inside a run falls in one layer, so the
        # layers' self times and the runs' own self time partition the
        # traced runs, less the calibrated wrapper cost.
        per_run = {layer: recorder.self_s(layer) / count
                   for layer in recorder.layers}
        run_self = sum(span[5] for span in runs) / count
        predictor_self = per_run.get("core.predictor.predict_and_resolve",
                                     0.0)
        metrics.update(self._engine_metrics(recorder, run_self,
                                            untraced_op, count))
        metrics.update({
            "workloads.build_s": self.build_s,
            "workloads.executor_s": executor_alone_s,
            "workloads.executor_share": executor_alone_s / untraced_op,
            "core.predictor.self_share": predictor_self / untraced_op,
            "stats.record.calls": recorder.calls("stats.record") / count,
            "stats.record.us": recorder.us_per_call("stats.record"),
            "trace.overhead_ratio": untraced_s / traced_s,
        })
        metrics.update(self._array_twin(recorder))
        # The Amdahl check: executor + structures + engine self time,
        # each measured inside the traced runs and corrected by the
        # wrapper cost calibrated on trivial calls, must account for
        # the untraced run within the tracing overhead.
        executor_s = per_run.pop("workloads.executor", 0.0)
        structures_s = sum(value for layer, value in per_run.items()
                           if layer.startswith("core."))
        engine_s = run_self + sum(value for layer, value in per_run.items()
                                  if not layer.startswith("core."))
        total = executor_s + structures_s + engine_s
        gap = total - untraced_op
        self.amdahl = {
            "untraced_op_s": untraced_op,
            "traced_op_s": traced_op,
            "executor_s": executor_s,
            "executor_alone_s": executor_alone_s,
            "structures_s": structures_s,
            "engine_self_s": engine_s,
            "sum_s": total,
            "gap_s": gap,
            "gap_share": gap / untraced_op,
            "wrapper_costs_us": {kind: [cost * 1e6 for cost in costs]
                                 for kind, costs in recorder.costs.items()},
            "accounted": abs(gap) <= traced_op - untraced_op,
        }
        return metrics

    def _drain_alone(self) -> float:
        """The same stream, drained alone (the executor layer)."""
        program = pickle.loads(self.blob)
        executor = Executor(program, seed=self.seed)
        gc.collect()
        start = time.perf_counter()
        self._drain(executor)
        return time.perf_counter() - start

    def _array_twin(self, parent: Recorder) -> Dict[str, float]:
        """Drive the same stream on the array backend (the comparison
        that decides that backend's fate); its output must match the
        object backend's."""
        recorder = Recorder()
        recorder.costs = dict(parent.costs)
        self._next = self._prepare(backend="array")
        predictor, engine, _program = self._next
        tracing.wrap_predictor(recorder, predictor)
        op, _predictor, _stats = self._timed_call(recorder,
                                                  span_name="sim.array")
        recorder.unwrap_all()
        if op["digest"] != self.ops[0]["digest"]:
            self.failed += 1
        run = recorder.spans_named("sim.array")[0]
        metrics = {}
        probes_s = 0.0
        for layer in tracing.ARRAY_PROBES:
            metrics["core.array." + layer[len("core."):] + ".us"] = \
                recorder.us_per_call(layer)
            probes_s += recorder.inclusive_s(layer)
        metrics["core.array.probe_share"] = probes_s / (run[4] - run[3]
                                                        - run[6])
        return metrics

    # -- hooks -------------------------------------------------------------

    def _wrap_engine(self, recorder: Recorder, engine) -> None:
        raise NotImplementedError


class SimLspr(_SimWorkload):
    """Fast-mode functional runs of the LSPR-like transaction mix."""

    name = "sim-lspr"
    program_name = "transactions"
    #: The ``repro run`` CLI's default run: 30K counted + 10K warmup.
    branches = 30_000
    warmup = 10_000
    engine_mode = "fast"

    @property
    def predicted(self) -> int:
        return self.branches + self.warmup

    def _engine(self, predictor, engine_mode):
        return FunctionalEngine(predictor, engine_mode=engine_mode)

    def _run(self, engine, program):
        return engine.run_program(program, max_branches=self.branches,
                                  warmup_branches=self.warmup,
                                  seed=self.seed)

    def _digest(self, stats) -> str:
        return stats_fingerprint(stats)

    def _expected_digest(self) -> str:
        """Oracle: the reference engine mode on the same input."""
        _predictor, engine, program = self._prepare(engine_mode="reference")
        return self._digest(self._run(engine, program))

    def _validity(self) -> dict:
        btb1 = self.last_counters["btb1"]
        predictions = self.last_counters["predictor"]["predictions"]
        return {
            "no_btb1_evictions": btb1["evictions"] == 0,
            "tage_lookups_on_most_branches":
                self.last_counters["tage"]["lookups"] > predictions / 2,
        }

    def _drain(self, executor) -> None:
        for _branch in executor.run(max_branches=self.predicted):
            pass

    def _wrap_engine(self, recorder, engine) -> None:
        recorder.wrap(engine.stats, "record", "stats.record")

        def traced_executor(*args, **kwargs):
            # The kernels consume executor.run(): time each step of it.
            executor = Executor(*args, **kwargs)
            run = executor.run
            executor.run = lambda *a, **k: recorder.stream(
                run(*a, **k), "workloads.executor")
            return executor

        recorder.patch(functional_module, "Executor", traced_executor)

    def _engine_metrics(self, recorder, run_self_s, op_s, count):
        return {
            "engine.kernel.self_s": run_self_s,
            "engine.kernel.self_share": run_self_s / op_s,
        }


class SimFootprint(_SimWorkload):
    """Cycle-engine runs of the 8K-block footprint ring (BTB2, I-cache)."""

    name = "sim-footprint"
    program_name = "footprint-large"
    branches = 40_000
    engine_mode = "reference"

    @property
    def predicted(self) -> int:
        return self.branches

    def _engine(self, predictor, engine_mode):
        return CycleEngine(predictor, engine_mode=engine_mode)

    def _run(self, engine, program):
        return engine.run_program(program, max_branches=self.branches,
                                  seed=self.seed)

    def _digest(self, stats) -> str:
        return (f"{stats.cycles}:{stats.instructions}:"
                f"{stats_fingerprint(stats.accuracy)}")

    def _expected_digest(self) -> str:
        """Oracle: the digest recorded for the default seed, else an
        untimed recomputation on the fast engine mode (the specialized
        flat kernel instead of the reference pipeline)."""
        if self.seed == self.default_seed:
            recorded = load_digests()[self.name]
            if recorded["branches"] == self.branches:
                return recorded["digest"]
        _predictor, engine, program = self._prepare(engine_mode="fast")
        return self._digest(self._run(engine, program))

    def _validity(self) -> dict:
        levels = self.last_stats.cache_levels
        return {
            "btb1_evictions": self.last_counters["btb1"]["evictions"] > 0,
            "btb2_transfers":
                self.last_counters["btb2"]["transfers_staged"] > 0,
            "l2i_accesses": levels["L2I"]["accesses"] > 0,
            "l3_accesses": levels["L3"]["accesses"] > 0,
        }

    def _drain(self, executor) -> None:
        # The cycle engine steps instruction by instruction.
        step = executor.step
        while executor.branches_executed < self.branches:
            step()

    def _wrap_engine(self, recorder, engine) -> None:
        recorder.wrap(engine.stats.accuracy, "record", "stats.record")
        recorder.wrap(engine, "_advance", "engine.cycle.advance")
        recorder.wrap(engine.icache, "access", "frontend.icache.access")

        def traced_executor(*args, **kwargs):
            # The cycle engine steps instruction by instruction.
            executor = Executor(*args, **kwargs)
            recorder.wrap(executor, "step", "workloads.executor")
            return executor

        recorder.patch(cycle_module, "Executor", traced_executor)

    def _engine_metrics(self, recorder, run_self_s, op_s, count):
        # The cycle engine's own time: its run loop (the run span's self
        # time) plus _advance less the I-cache.
        advance_self = recorder.self_s("engine.cycle.advance") / count
        levels = self.last_stats.cache_levels
        return {
            "engine.cycle.self_share": (run_self_s + advance_self) / op_s,
            "frontend.icache.access.calls":
                recorder.calls("frontend.icache.access") / count,
            "frontend.icache.access.us":
                recorder.us_per_call("frontend.icache.access"),
            "frontend.icache.l1i_hit_ratio":
                ratio(levels["L1I"]["hits"], levels["L1I"]["accesses"]),
            "frontend.icache.l2i_hit_ratio":
                ratio(levels["L2I"]["hits"], levels["L2I"]["accesses"]),
        }


# ----------------------------------------------------------------------
# Fleet grid over the warm pool
# ----------------------------------------------------------------------


class FleetGrid(Workload):
    """``stream_cells`` over the CLI's default fleet axes on nproc
    workers; one timed call is one whole sweep of the grid."""

    name = "fleet-grid"
    chunk_size = 16
    #: Every 5th cell (co-prime with every axis length) is replayed
    #: in-process under the structure wrappers in the traced run.
    replay_stride = 5

    @property
    def seeds(self):
        return (self.seed, self.seed + 1)

    def setup(self) -> None:
        from repro.engine.fleet import build_fleet_grid
        from repro.engine.parallel import stream_cells

        self._stream_cells = stream_cells
        self.workers = nproc()
        start = time.perf_counter()
        self.cells = build_fleet_grid(seeds=self.seeds)
        self.build_s = time.perf_counter() - start
        self.cell_branches = sum(c.branches + c.warmup for c in self.cells)
        #: Per sweep: every cell's fingerprint and the pool's stats.
        self.sweeps = []

    def _sweep(self, spans=None):
        pool_stats: dict = {}
        gc.collect()
        start = time.perf_counter()
        results = list(self._stream_cells(
            self.cells, workers=self.workers, chunk_size=self.chunk_size,
            pool_stats=pool_stats, spans=spans,
        ))
        elapsed = time.perf_counter() - start
        return elapsed, results, pool_stats

    def run_window(self) -> None:
        total = 0.0
        while total < self.seconds:
            elapsed, results, pool_stats = self._sweep()
            self._record_sweep(elapsed, results, pool_stats)
            total += elapsed

    def _record_sweep(self, elapsed, results, pool_stats) -> None:
        self.ops.append({"s": elapsed, "branches": self.cell_branches,
                         "cells": len(results)})
        self.sweeps.append(([r.fingerprint for r in results], pool_stats))

    def attempted(self) -> int:
        return sum(op["cells"] for op in self.ops)

    def check(self) -> dict:
        expected = self._expected()
        mismatched = 0
        errors = 0
        for fingerprints, _stats in self.sweeps:
            errors += sum(1 for f in fingerprints if f.startswith("cell-error"))
            mismatched += sum(1 for got, want in zip(fingerprints, expected)
                              if got != want)
        self.failed += mismatched
        workers_ok = all(self._ran_on_all_workers(stats)
                         for _f, stats in self.sweeps)
        return {
            "oracle": mismatched == 0 and errors == 0,
            "cell_errors": errors,
            "validity": {
                "ran_on_nproc_workers": workers_ok,
                "no_pool_break": all(stats.get("pool_breaks", 0) == 0
                                     for _f, stats in self.sweeps),
            },
        }

    def _ran_on_all_workers(self, stats) -> bool:
        if self.workers <= 1:
            return stats.get("mode") == "sequential"
        return (stats.get("mode") == "warm-pool"
                and len(stats.get("workers", {})) == self.workers)

    def _expected(self) -> List[str]:
        """Oracle: the recorded digest of the sequential path for the
        default seed, else the in-process sequential path itself."""
        from repro.engine.parallel import run_cells

        recorded = load_digests()[self.name]
        if self.seed == self.default_seed and recorded["cells"] == len(
                self.cells) and self.sweeps:
            fingerprints = self.sweeps[0][0]
            digest = hashlib.sha256(
                "\n".join(fingerprints).encode()).hexdigest()
            want = recorded["digest"]
            if self.corrupt == "digest":
                want = corrupted(want)
            if digest == want:
                return fingerprints
            return ["recorded-digest-mismatch"] * len(self.cells)
        expected = [r.fingerprint for r in run_cells(self.cells, workers=1)]
        if self.corrupt == "digest":
            expected = [corrupted(f) for f in expected]
        return expected

    def run_traced(self, recorder: Recorder) -> Dict[str, float]:
        """Alternate untraced sweeps with sweeps traced through the
        ``spans=`` tracer ``stream_cells`` accepts (pool phases), then
        replay a sample of cells in-process for the structure layers."""
        from repro.obs.spans import SpanTracer

        phases = {"serialize": 0.0, "transfer": 0.0, "merge": 0.0}
        executes: List[float] = []
        elapsed_by_plan: Dict[bool, List[float]] = {True: [], False: []}
        busy_shares = []
        retried = breaks = 0
        untraced_s = traced_s = 0.0
        sweeps = 0
        while untraced_s + traced_s < self.seconds:
            elapsed, results, pool_stats = self._sweep()
            self._record_sweep(elapsed, results, pool_stats)
            untraced_s += elapsed
            tracer = SpanTracer()
            with recorder.span("fleet.sweep"):
                elapsed, results, pool_stats = self._sweep(spans=tracer)
            self._record_sweep(elapsed, results, pool_stats)
            traced_s += elapsed
            sweeps += 1
            sweep_execute = 0.0
            for span in tracer.spans:
                if span["name"] in phases:
                    phases[span["name"]] += span["wall"]
                elif span["name"] == "execute":
                    executes.append(span["wall"])
                    sweep_execute += span["wall"]
            busy_shares.append(sweep_execute / (self.workers * elapsed))
            retried += sum(1 for e in tracer.events
                           if e["name"] == "cell.retry")
            breaks += pool_stats.get("pool_breaks", 0)
            for cell, result in zip(self.cells, results):
                if result.stats is not None:
                    elapsed_by_plan[cell.fault_plan is not None].append(
                        result.elapsed)
        faulted, clean = elapsed_by_plan[True], elapsed_by_plan[False]
        metrics = {
            "engine.parallel.serialize_ms": phases["serialize"] * 1e3 / sweeps,
            "engine.parallel.transfer_ms": phases["transfer"] * 1e3 / sweeps,
            "engine.parallel.merge_ms": phases["merge"] * 1e3 / sweeps,
            "engine.parallel.execute_ms.p50": percentile(executes, 0.5) * 1e3,
            "engine.parallel.execute_ms.p90": percentile(executes, 0.9) * 1e3,
            "engine.parallel.worker_busy_share": median(busy_shares),
            "engine.parallel.payload_bytes": pool_stats.get("payload_bytes", 0),
            "engine.parallel.result_bytes": pool_stats.get("result_bytes", 0),
            "engine.parallel.cells_retried": retried,
            "engine.parallel.pool_breaks": breaks,
            "resilience.fault_overhead_ratio": ratio(
                sum(faulted) / max(1, len(faulted)),
                sum(clean) / max(1, len(clean))),
            "workloads.build_s": self.build_s,
            "trace.overhead_ratio": untraced_s / traced_s,
        }
        metrics.update(self._replay(recorder))
        return metrics

    def _replay(self, recorder: Recorder) -> Dict[str, float]:
        """Replay a sample of cells in-process, as a worker runs them,
        once plain and once under the structure wrappers; each must
        reproduce the pool's fingerprint for its cell."""
        counters: dict = {}
        executor_s = untraced_s = 0.0
        expected = self.sweeps[-1][0]
        for index in range(0, len(self.cells), self.replay_stride):
            cell = self.cells[index]
            predictor, engine, program = self._replay_cell(cell)
            gc.collect()
            start = time.perf_counter()
            stats = self._run_cell(engine, program, cell)
            untraced_s += time.perf_counter() - start
            predictor, engine, program = self._replay_cell(cell)
            tracing.wrap_predictor(recorder, predictor)
            recorder.wrap(engine.stats, "record", "stats.record")
            gc.collect()
            with recorder.span("fleet.cell"):
                traced = self._run_cell(engine, program, cell)
            recorder.unwrap_all()
            for run in (stats, traced):
                if stats_fingerprint(run) != expected[index]:
                    self.failed += 1
            merge_counters(counters, predictor.component_counters())
            executor = Executor(pickle.loads(pickle.dumps(cell.workload)),
                                seed=cell.seed)
            start = time.perf_counter()
            for _branch in executor.run(
                    max_branches=cell.branches + cell.warmup):
                pass
            executor_s += time.perf_counter() - start
        cells = recorder.spans_named("fleet.cell")
        metrics = tracing.structure_metrics(recorder, counters, len(cells))
        metrics.update({
            "workloads.executor_s": executor_s / len(cells),
            "workloads.executor_share": executor_s / untraced_s,
            "core.predictor.self_share": recorder.self_s(
                "core.predictor.predict_and_resolve") / untraced_s,
            "stats.record.calls": recorder.calls("stats.record") / len(cells),
            "stats.record.us": recorder.us_per_call("stats.record"),
        })
        return metrics

    @staticmethod
    def _replay_cell(cell):
        """A cell's predictor, engine and pristine program, built the
        way a pool worker builds them."""
        from repro.resilience.faults import FaultInjector

        predictor = create_predictor(pickle.loads(pickle.dumps(cell.config)),
                                     cell.backend)
        injector = (FaultInjector(predictor, cell.fault_plan)
                    if cell.fault_plan is not None else None)
        engine = FunctionalEngine(predictor, injector=injector,
                                  engine_mode=cell.engine_mode)
        return predictor, engine, pickle.loads(pickle.dumps(cell.workload))

    @staticmethod
    def _run_cell(engine, program, cell):
        return engine.run_program(program, max_branches=cell.branches,
                                  warmup_branches=cell.warmup, seed=cell.seed)


# ----------------------------------------------------------------------
# Multi-tenant prediction service
# ----------------------------------------------------------------------


class ServeTenants(Workload):
    """A closed loop of tenants against ``python -m repro serve``."""

    name = "serve-tenants"
    #: The traffic of ``repro loadgen`` at its defaults: 3 tenants
    #: cycling these workloads with seeds N, N+1, ..., in 40-branch
    #: batches, one batch outstanding per tenant.
    tenants = 3
    batch_size = 40
    suite = ("transactions", "dispatch", "services", "correlated")
    #: Batches built per tenant, a fixed count.  The window ends after
    #: --seconds or when a tenant has sent all of them, whichever comes
    #: first, so a faster server shortens the window instead of
    #: running out of input.
    batches_per_tenant = 2048
    #: Snapshot + journal rotation period per tenant (``repro serve
    #: --checkpoint-every``).  At the server's default of 4, every
    #: fourth round holds three back-to-back snapshots (a pickle of the
    #: predictor and four fsyncs each): turning snapshots off raised
    #: throughput 14-31% in two paired runs, and they are the noisiest
    #: part of shard time.  Over five runs of each, interleaved on a
    #: 2-vCPU host, the spread (IQR/median) of branches/s, p50 and p99
    #: was 0.12/0.11/0.20 at 4 and 0.08/0.06/0.10 at 16.  At 16, snapshot
    #: rounds are still 6% of the batches, so snapshots still set p99_ms.
    checkpoint_every = 16
    loop = None
    server = None
    clients = ()

    def setup(self) -> None:
        from repro.serve import TenantPlan
        from repro.serve.client import ServeClient

        self.loop = asyncio.new_event_loop()
        self._client_cls = ServeClient
        self.shards = max(1, nproc() - 1)
        self.connections = min(nproc(), self.tenants)
        self.plans = [
            TenantPlan(f"t{index}", workload=self.suite[index % len(self.suite)],
                       seed=self.seed + index,
                       branches=self.batches_per_tenant * self.batch_size,
                       batch_size=self.batch_size)
            for index in range(self.tenants)
        ]
        # Building the load is the client's work, not the server's: it
        # is kept off the setup_s clock (see ``untimed_setup_s``), and
        # done before the server starts so the two never overlap.  A
        # set-up probe sends nothing, so it builds nothing.
        start = time.perf_counter()
        self.batches = {} if self.probe else {
            plan.tenant: plan.batches() for plan in self.plans}
        self.build_s = self.untimed_setup_s = time.perf_counter() - start
        self.spool = self.scratch / f"spool-{os.getpid()}"
        shutil.rmtree(self.spool, ignore_errors=True)
        self.server = self._start_server()
        self.port = self._await_port()
        self.loop.run_until_complete(self._connect_and_open())
        # The client is the benchmark's own process: keep its large,
        # long-lived batch lists out of the collector's full passes so
        # client pauses do not land in the server's latency tail.
        gc.collect()
        gc.freeze()

    def _start_server(self) -> subprocess.Popen:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--spool", str(self.spool), "--shards", str(self.shards),
             "--checkpoint-every", str(self.checkpoint_every),
             "--port", "0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
        )

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.server.stdout.readline().decode()
            if not line:
                break
            if line.startswith("serving on "):
                return int(line.split()[2].rsplit(":", 1)[1])
        raise RuntimeError("serve did not report its port")

    async def _connect_and_open(self, port: Optional[int] = None) -> None:
        port = port or self.port
        self.clients = [await self._client_cls.connect("127.0.0.1", port)
                        for _ in range(self.connections)]
        opened = await asyncio.gather(*(
            self._client_for(index).open(plan.tenant)
            for index, plan in enumerate(self.plans)))
        for reply in opened:
            if reply.get("status") != "ok":
                raise RuntimeError(f"open failed: {reply}")

    def _client_for(self, index: int):
        return self.clients[index % len(self.clients)]

    async def _tenant_loop(self, index: int, deadline: list) -> dict:
        from repro.serve import protocol

        plan = self.plans[index]
        client = self._client_for(index)
        latencies = []
        responses = []
        failed = 0
        for seq, rows in enumerate(self.batches[plan.tenant]):
            if time.perf_counter() >= deadline[0]:
                break
            start = time.perf_counter()
            response = await client.predict(plan.tenant, seq, rows)
            elapsed = time.perf_counter() - start
            if response.get("status") != "ok":
                # A rejected or failed batch misses every latency limit.
                latencies.append(float("inf"))
                failed += 1
                break
            latencies.append(elapsed)
            responses.append(response)
        else:
            # This tenant sent its whole stream: the window ends for all.
            deadline[0] = min(deadline[0], time.perf_counter())
        # The client-side chain is folded after the window, so the
        # client spends no CPU inside it beyond the wire.
        chain = protocol.GENESIS_FINGERPRINT
        for seq, response in enumerate(responses):
            records = response["records"]
            if self.corrupt == "chain" and index == 0 and seq == 0:
                records = records[1:]
            chain = protocol.fold_fingerprint(chain, records)
        return {"latencies": latencies, "answered": len(responses),
                "chain": chain, "failed": failed,
                "last": responses[-1]["fingerprint"] if responses else None}

    async def _window(self) -> float:
        gc.collect()
        start = time.perf_counter()
        deadline = [start + self.seconds]
        self.tenant_results = await asyncio.gather(*(
            self._tenant_loop(index, deadline)
            for index in range(len(self.plans))))
        self.exhausted = deadline[0] < start + self.seconds
        return time.perf_counter() - start

    def run_window(self) -> None:
        window_s = self.loop.run_until_complete(self._window())
        self._record_window(window_s)
        self.window_results = self.tenant_results
        self.view = self.loop.run_until_complete(self._server_view())

    def _record_window(self, window_s: float) -> None:
        latencies = [lat for result in self.tenant_results
                     for lat in result["latencies"]]
        answered = sum(r["answered"] for r in self.tenant_results)
        self.failed += sum(r["failed"] for r in self.tenant_results)
        self.serve_window = {
            "window_s": window_s,
            "branches": answered * self.batch_size,
            "latencies_ms": [lat * 1000.0 for lat in latencies],
        }
        self.batch_count = len(latencies)

    def window(self) -> dict:
        return self.serve_window

    def attempted(self) -> int:
        return self.batch_count

    async def _server_view(self) -> dict:
        client = self.clients[0]
        fingerprints = {}
        for plan in self.plans:
            reply = await client.stats(plan.tenant)
            fingerprints[plan.tenant] = reply.get("fingerprint")
        metrics = (await client.metrics())["metrics"]
        return {"fingerprints": fingerprints, "metrics": metrics}

    def check(self) -> dict:
        from repro.serve import TenantPlan, reference_fingerprint

        view = self.view
        chains_ok = True
        for plan, result in zip(self.plans, self.window_results):
            prefix = TenantPlan(plan.tenant, plan.workload, plan.seed,
                                result["answered"] * self.batch_size,
                                self.batch_size)
            oracle = reference_fingerprint(prefix)["fingerprint"]
            server = view["fingerprints"][plan.tenant]
            if not (result["chain"] == server == oracle
                    and (result["last"] in (None, server))):
                chains_ok = False
                self.failed += result["answered"]
        metrics = view["metrics"]
        return {
            "oracle": chains_ok and metrics["accounted"],
            "validity": {
                "no_evictions": metrics["evictions"] == 0,
                "no_sheds_or_rejections": metrics["rejected_total"] == 0,
                "no_restarts": metrics["restarts"] == 0,
                "ten_batches_beyond_p99": self.batch_count >= 1000,
            },
            "input_used_up": self.exhausted,
        }

    async def _close_clients(self) -> None:
        for client in self.clients:
            await client.aclose()
        self.clients = []

    def _stop_server(self) -> None:
        """Close the connections, then drain the server (SIGTERM
        checkpoints every tenant) and wait for it to exit.  A drain
        takes about a second; one that has not ended after
        ``DRAIN_TIMEOUT_S`` is hung (see ``_traced_window``) and the
        server is killed.  Its shards exit when their pipe closes."""
        if self.clients:
            self.loop.run_until_complete(self._close_clients())
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.communicate(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
                print("serve: drain hung; server killed", file=sys.stderr)
            self.server = None

    def close(self) -> None:
        if self.loop is None:
            return
        self._stop_server()
        self.loop.close()
        shutil.rmtree(self.spool, ignore_errors=True)

    # -- traced run --------------------------------------------------------

    def run_traced(self, recorder: Recorder) -> Dict[str, float]:
        """Run the server in-process (so ``ShardHandle.request`` and the
        wire codecs can be wrapped), then replay the same batches through
        ``TenantState`` for the shard-side stages.  The untraced window
        against the ``repro serve`` process comes first: it is the
        baseline of ``trace.overhead_ratio``."""
        self.run_window()
        untraced = self.serve_window
        self._stop_server()
        codec = {"decode": [0, 0.0], "encode": [0, 0.0]}
        rtts: List[float] = []
        metrics_view = self.loop.run_until_complete(
            self._traced_window(codec, rtts))
        latencies = self.serve_window["latencies_ms"]
        client_p50 = percentile(latencies, 0.5)
        rtt_ms = [r * 1e3 for r in rtts]
        replay = self._replay(recorder)
        rtt_p50 = percentile(rtt_ms, 0.5)
        metrics = {
            "serve.protocol.decode_us": ratio(codec["decode"][1],
                                              codec["decode"][0]) * 1e6,
            "serve.protocol.encode_us": ratio(codec["encode"][1],
                                              codec["encode"][0]) * 1e6,
            "serve.shard.rtt_ms.p50": rtt_p50,
            "serve.shard.rtt_ms.p99": percentile(rtt_ms, 0.99),
            "serve.shard.queue_ms": rtt_p50 - replay.pop("_service_p50_ms"),
            "serve.frontend_ms": client_p50 - rtt_p50,
            "serve.requests.retried": metrics_view["retries_signalled"],
            "serve.requests.rejected": metrics_view["rejected_total"],
            "workloads.build_s": self.build_s,
            "trace.overhead_ratio": ratio(
                self.serve_window["branches"] / self.serve_window["window_s"],
                untraced["branches"] / untraced["window_s"]),
        }
        metrics.update(replay)
        return metrics

    async def _traced_window(self, codec, rtts) -> dict:
        from repro.serve import PredictorServer, ServeOptions, protocol

        spool = self.spool.with_name(self.spool.name + "-traced")
        shutil.rmtree(spool, ignore_errors=True)
        # No heartbeat supervisor here: on Python 3.11, stop() can hang
        # for good when its cancel of the supervisor lands while a ping
        # reply is being delivered (asyncio.wait_for returns the reply
        # and swallows the cancellation, so the supervisor never ends).
        # That hung about one traced run in five.  The pings it skips
        # are four tiny requests a second, outside every traced layer.
        server = PredictorServer(spool, ServeOptions(
            shards=self.shards, checkpoint_every=self.checkpoint_every,
            heartbeat_interval=NO_HEARTBEAT_S))
        await server.start()
        try:
            decode, encode = protocol.decode_message, protocol.encode_message
            clock = time.perf_counter

            def timed_decode(line):
                start = clock()
                message = decode(line)
                if "op" in message:  # a request: the server's side
                    codec["decode"][0] += 1
                    codec["decode"][1] += clock() - start
                return message

            def timed_encode(message):
                start = clock()
                line = encode(message)
                if "status" in message:  # a response: the server's side
                    codec["encode"][0] += 1
                    codec["encode"][1] += clock() - start
                return line

            protocol.decode_message = timed_decode
            protocol.encode_message = timed_encode
            for shard in server.shards:
                self._wrap_request(shard, rtts)
            await self._connect_and_open(server.port)
            # Each tenant restarts its stream from seq 0 on a fresh spool.
            self._record_window(await self._window())
            ledger = server.metrics.to_dict()
            await self._close_clients()
        finally:
            protocol.decode_message, protocol.encode_message = decode, encode
            await server.stop()
            shutil.rmtree(spool, ignore_errors=True)
        return ledger

    @staticmethod
    def _wrap_request(shard, rtts: List[float]) -> None:
        request = shard.request

        async def timed_request(op, payload, timeout=None):
            start = time.perf_counter()
            try:
                return await request(op, payload, timeout=timeout)
            finally:
                if op == "predict":
                    rtts.append(time.perf_counter() - start)

        shard.request = timed_request

    def _replay(self, recorder: Recorder) -> Dict[str, float]:
        """The shard-side stages, from the same batches replayed through
        ``TenantState`` in-process (journal, fsync and snapshots on the
        same disk as the live spool)."""
        from repro.serve import shard as shard_module
        from repro.serve.shard import TenantState
        from repro.stats import RunStats

        spool = self.spool.with_name(self.spool.name + "-replay")
        shutil.rmtree(spool, ignore_errors=True)
        counters: dict = {}
        journal_bytes = 0
        batches = 0
        service: List[float] = []
        recorder.wrap(shard_module, "compute_batch", "serve.shard.compute")
        # Snapshots pickle the predictor and stats: wrap their classes.
        recorder.wrap(RunStats, "record", "stats.record")
        wrapped_classes = False
        try:
            for plan, result in zip(self.plans, self.tenant_results):
                state = TenantState(plan.tenant, "z15", "object", spool,
                                    self.checkpoint_every)
                state.open_fresh()
                if not wrapped_classes:
                    tracing.wrap_predictor(recorder, state.predictor,
                                           class_level=True)
                    wrapped_classes = True
                recorder.wrap(state.journal, "append", "serve.journal.append")
                recorder.wrap(state, "checkpoint", "serve.journal.snapshot")
                journal_size = self._journal_meter(recorder, state)
                rows_by_seq = self.batches[plan.tenant]
                answered = result["answered"]
                for seq in range(answered):
                    rows = rows_by_seq[seq]
                    with recorder.span("serve.batch") as span:
                        state.predict(seq, rows)
                    service.append(span[4] - span[3] - span[6])
                    batches += 1
                journal_bytes += journal_size()
                if state.fingerprint != result["chain"]:
                    # The traced window's chain must replay exactly too.
                    self.failed += answered
                merge_counters(counters, state.predictor.component_counters())
                if answered < len(rows_by_seq):
                    # One demotion and re-warm per tenant, for the
                    # evict/restore tier (the live run never evicts).
                    recorder.wrap(state, "evict", "serve.journal.evict")
                    recorder.wrap(state, "_apply_restore",
                                  "serve.journal.restore")
                    state.evict()
                    state.predict(answered, rows_by_seq[answered])
                state.close()
        finally:
            recorder.unwrap_all()
            shutil.rmtree(spool, ignore_errors=True)
        batch_spans = recorder.spans_named("serve.batch")
        wall = sum(span[4] - span[3] - span[6] for span in batch_spans)
        metrics = tracing.structure_metrics(recorder, counters,
                                            len(batch_spans))

        def ms_per_call(layer):
            return tracing.ratio(recorder.inclusive_s(layer),
                                 recorder.calls(layer)) * 1e3

        metrics.update({
            "serve.shard.compute_ms": ms_per_call("serve.shard.compute"),
            "serve.journal.append_ms": ms_per_call("serve.journal.append"),
            "serve.journal.snapshot_ms": ms_per_call("serve.journal.snapshot"),
            "serve.journal.evict_ms": ms_per_call("serve.journal.evict"),
            "serve.journal.restore_ms": ms_per_call("serve.journal.restore"),
            "serve.journal.bytes_per_batch": ratio(journal_bytes, batches),
            "core.predictor.self_share": recorder.self_s(
                "core.predictor.predict_and_resolve") / wall,
            "stats.record.calls":
                recorder.calls("stats.record") / len(batch_spans),
            "stats.record.us": recorder.us_per_call("stats.record"),
            "_service_p50_ms": percentile(service, 0.5) * 1e3,
        })
        return metrics

    @staticmethod
    def _journal_meter(recorder: Recorder, state):
        """Bytes appended to a tenant's journal from now on, read from
        the file: its size before each rotation plus its size when read,
        less the header every rotation leaves."""
        path = state.paths.journal
        header = path.stat().st_size
        rotated = [0]
        rotate = state.journal.rotate

        def measured_rotate():
            rotated[0] += path.stat().st_size - header
            rotate()

        recorder.patch(state.journal, "rotate", measured_rotate)
        return lambda: rotated[0] + path.stat().st_size - header


WORKLOADS = {cls.name: cls for cls in
             (SimLspr, SimFootprint, FleetGrid, ServeTenants)}
