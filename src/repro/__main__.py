"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — run one predictor over one workload on the functional
  engine (accuracy report; ``--hot-branches`` adds the per-branch
  mispredict profile) or, with ``--engine cycle``, the cycle-level
  engine (timing report).  ``--telemetry`` attaches a telemetry
  session; ``--trace-out`` streams a schema-versioned JSONL branch
  trace, which ``--validate`` re-loads, schema-checks and reconciles
  against the run's stats.
* ``verify`` — run the white-box verification environment.
* ``verify-diff`` — run the differential verification suite (cross-
  engine equivalence, deterministic replay, baseline cross-validation).
* ``sweep`` — fan a (config × workload × seed) grid over warm worker
  processes (serialize-once payload transfer, ``--chunk-size`` cell
  chunking) in one pass; ``--workloads W`` with several ``--configs``
  compares the generation presets on one workload.  Failing cells
  surface as structured error rows instead of aborting the sweep.
  ``--stream-out`` checkpoints results to JSONL as they complete;
  ``--resume`` restarts a killed sweep from such a stream.
* ``fleet`` — run a full design-space fleet grid (configs × workloads ×
  seeds × fault plans × backends, ~1000 cells) sequentially and over
  the warm pool, and emit the merged ``repro-fleet/v1`` payload
  (throughput both ways, measured speedup, equivalence verdict).
  Benchmark numbers come from ``perfbench/``; fleet is the only
  command that times sequential against parallel.
* ``faults`` — run a deterministic fault-injection campaign and prove
  the committed branch stream is identical to the fault-free run (the
  predictor is a hint engine: faults may only cost accuracy).
* ``export`` — render a telemetry artifact (``run --telemetry
  --stats-json`` payload, sweep telemetry dump or checkpoint stream) as
  OpenMetrics text or canonical JSON, with per-(backend, engine-mode,
  workload) rollups for multi-cell inputs.
* ``report`` — the observatory: classify fleet payloads, sweep
  streams, manifests, span files and bench history, and render one
  markdown dashboard with trend deltas and regression highlights.
* ``serve`` — the prediction service: an asyncio front end multiplexing
  tenant branch streams over supervised warm predictor shard processes,
  with per-tenant journaling, LRU warm-state eviction, backpressure,
  deadlines and crash recovery (SIGTERM/SIGINT drains and writes the
  final manifest).
* ``loadgen`` — replay workload-suite traffic against a running
  ``serve`` instance, retrying clean rejections, and audit that the
  client-folded fingerprint chain matches the server's.
* ``serve-chaos`` — seeded fault-injection scenarios (shard kill/hang/
  slow, torn checkpoints, queue floods, eviction churn, a kill while a
  snapshot is being written) against a live server, with liveness /
  exactness / accounting audits.
* ``workloads`` — list the standard workloads.

Every run, sweep, fleet and fault campaign drives the compiled fast
kernels (:mod:`repro.engine.specialize`); ``verify-diff
--engine-modes`` is the one switch between the modes, and checks the
kernels against the reference pipeline they are derived from.

``sweep --resume``, ``fleet --resume``, ``export`` and ``report``
accept ``--strict``: a torn JSONL tail (the signature of a killed
writer) becomes a located error instead of being silently dropped.

``run``/``sweep``/``fleet`` share ``--telemetry``, ``--metrics-out``
(OpenMetrics export, implies telemetry) and ``--spans-out`` (phase
span tracing); ``fleet --history`` appends a bench-history row the
``report`` dashboard turns into trend deltas.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import pstats
import sys
import time
from functools import partial

from repro.baselines import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GsharePredictor,
    LTagePredictor,
    StaticBtfntPredictor,
)
from repro.common.atomic import atomic_write_json, atomic_write_text
from repro.common.errors import ReproError
from repro.common.signals import GracefulShutdown
from repro.configs import GENERATIONS, z15_config
from repro.core import LookaheadBranchPredictor, load_state, save_state
from repro.engine import (
    BACKENDS,
    ENGINE_MODES,
    CycleEngine,
    FunctionalEngine,
    build_fleet_grid,
    create_predictor,
    load_stream,
    make_grid,
    run_checkpointed,
    run_fleet,
    stats_to_dict,
)
from repro.obs import TelemetrySession
from repro.stats import MispredictProfile, load_trace
from repro.verification import StimulusConstraints, VerificationEnvironment
from repro.verification.differential import (
    DEFAULT_WORKLOAD_FAMILIES,
    run_differential_suite,
)
from repro.workloads import STANDARD_WORKLOADS, get_workload

BASELINES = {
    "always-taken": AlwaysTakenPredictor,
    "static-btfnt": StaticBtfntPredictor,
    "bimodal": BimodalPredictor,
    "gshare": GsharePredictor,
    "l-tage": LTagePredictor,
}


def _predictor_for(name: str, backend: str = "object"):
    if name in GENERATIONS:
        factory, _ = GENERATIONS[name]
        return create_predictor(factory(), backend)
    if name in BASELINES:
        if backend != "object":
            raise SystemExit(
                f"--backend {backend} requires a generation preset; "
                f"{name!r} is a baseline predictor"
            )
        return BASELINES[name]()
    known = ", ".join(list(GENERATIONS) + list(BASELINES))
    raise SystemExit(f"unknown predictor {name!r}; known: {known}")


def _write_json(path: str, payload) -> None:
    # Atomic (write-fsync-rename): a kill mid-report leaves the old
    # artifact, never a torn JSON that downstream tooling chokes on.
    atomic_write_json(path, payload, indent=2, trailing_newline=True)
    print(f"wrote {path}")


def _write_text(path, text) -> None:
    atomic_write_text(path, text)
    print(f"wrote {path}")


def _write_metrics(path: str, source) -> None:
    """Render *source* (Telemetry payload or rollup group list) as
    OpenMetrics text."""
    from repro.obs.export import to_openmetrics

    _write_text(path, to_openmetrics(source))


def _span_tracer(args, kind: str):
    """(SpanWriter, SpanTracer) when ``--spans-out`` is set, else
    (None, None) — the engines and pool treat a None tracer as off."""
    if not args.spans_out:
        return None, None
    from repro.obs.spans import SpanTracer, SpanWriter

    writer = SpanWriter(args.spans_out, kind=kind,
                        context={"command": kind})
    return writer, SpanTracer(writer=writer)


def _finish_spans(writer, tracer) -> None:
    if writer is not None:
        writer.write_summary(tracer)
        writer.close()
        print(f"wrote {writer.path} ({len(tracer.spans)} spans, "
              f"{len(tracer.events)} events)")


#: Rows per cProfile table when ``--profile-top`` is not given.
PROFILE_TOP = 15

#: Telemetry sampling window (branches) when ``--interval`` is not given.
TELEMETRY_INTERVAL = 2_000


def _profiled(args, work):
    """Run *work* under cProfile when ``--profile`` is set, printing a
    top-N table sorted by cumulative and by total time afterwards."""
    if not getattr(args, "profile", False):
        return work()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return work()
    finally:
        profiler.disable()
        top = PROFILE_TOP if args.profile_top is None else args.profile_top
        for sort in ("cumulative", "tottime"):
            print(f"\n-- cProfile top {top} by {sort} --")
            pstats.Stats(profiler, stream=sys.stdout) \
                .strip_dirs().sort_stats(sort).print_stats(top)


def _check_profile_flags(args: argparse.Namespace) -> None:
    if args.profile_top is not None and not args.profile:
        raise SystemExit("--profile-top requires --profile")


def _check_run_flags(args: argparse.Namespace) -> None:
    """Exit with a one-line message on a flag the run would ignore."""
    _check_profile_flags(args)
    if args.interval is not None and not (
        args.telemetry or args.trace_out or args.metrics_out
    ):
        raise SystemExit("--interval requires --telemetry, --trace-out or "
                         "--metrics-out")
    if args.engine == "cycle":
        if args.warmup:
            raise SystemExit("--warmup: the cycle engine has no warmup "
                             "phase")
        if args.predictor in BASELINES:
            raise SystemExit("the cycle engine requires a generation preset")
    elif args.smt2 or args.no_prefetch:
        flag = "--smt2" if args.smt2 else "--no-prefetch"
        raise SystemExit(f"{flag} requires --engine cycle")
    if not args.trace_out and (args.validate or args.every != 1):
        flag = "--validate" if args.validate else "--every"
        raise SystemExit(f"{flag} requires --trace-out")


def _validate_trace(path: str, stats) -> None:
    """Re-load the trace at *path*, schema-check every line and reconcile
    it against the run's RunStats; exit 1 on a mismatch."""
    from repro.obs.trace import reconcile_with_stats

    # The writer closed the file with an fsync, so a torn tail here is
    # corruption, not a killed writer: strict.
    document = load_trace(path, strict=True)
    problems = document.reconcile()
    if not document.sampled:
        problems += reconcile_with_stats(document.branches, stats)
    if problems:
        for problem in problems:
            print(f"RECONCILE: {problem}")
        # A sampled trace legitimately can't reconcile per-branch;
        # only full traces make mismatches fatal.
        if not document.sampled:
            sys.exit(1)
    else:
        print(f"validated {path}: {len(document.branches)} branch records, "
              f"{len(document.intervals)} intervals, reconciled clean "
              f"against run stats")


def cmd_run(args: argparse.Namespace) -> None:
    cycle = args.engine == "cycle"
    if args.warmup is None:
        args.warmup = 0 if cycle else 10_000
    _check_run_flags(args)
    predictor = _predictor_for(args.predictor, args.backend)
    if args.load_state:
        if not isinstance(predictor, LookaheadBranchPredictor):
            raise SystemExit("--load-state requires a generation preset")
        loaded = load_state(predictor, args.load_state)
        print(f"restored state: {loaded}")
    profile = MispredictProfile() if args.hot_branches else None
    session = None
    if args.telemetry or args.trace_out or args.metrics_out:
        # The session skips the warmup, so telemetry aggregates exactly
        # the counted phase (like RunStats).
        session = TelemetrySession(
            predictor=predictor
            if isinstance(predictor, LookaheadBranchPredictor) else None,
            interval=TELEMETRY_INTERVAL if args.interval is None
            else args.interval,
            trace_path=args.trace_out,
            trace_every=args.every,
            skip=args.warmup,
        ).begin(workload=args.workload, predictor=args.predictor,
                seed=args.seed, branches=args.branches)
    span_writer, spans = _span_tracer(args, "run")
    if cycle:
        # Every branch is counted, so the profile rides the observer seam.
        engine = CycleEngine(predictor, smt2=args.smt2,
                             lookahead_prefetch=not args.no_prefetch,
                             observer=profile.record if profile else None,
                             telemetry=session, engine_mode="fast",
                             spans=spans)
        run_program = engine.run_program
    else:
        engine = FunctionalEngine(predictor, profile=profile,
                                  telemetry=session, engine_mode="fast",
                                  spans=spans)
        run_program = partial(engine.run_program,
                              warmup_branches=args.warmup)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    stats = _profiled(args, lambda: run_program(
        get_workload(args.workload, args.seed),
        max_branches=args.branches,
        seed=args.seed,
    ))
    wall_seconds = time.perf_counter() - wall_start
    cpu_seconds = time.process_time() - cpu_start
    accuracy = stats.accuracy if cycle else stats
    if session is not None:
        session.finish(accuracy)
    _finish_spans(span_writer, spans)
    print(stats.report(f"{args.predictor} / {args.workload}"))
    if profile is not None:
        print()
        print(profile.report(f"{args.workload} hot branches"))
    if session is not None:
        print()
        print(session.report(f"{args.predictor} / {args.workload} telemetry"))
        if args.trace_out:
            print(f"wrote {args.trace_out} "
                  f"({session.writer.records_written} records)")
        if args.validate:
            _validate_trace(args.trace_out, accuracy)
        if args.metrics_out:
            _write_metrics(args.metrics_out, session.telemetry)
    if args.stats_json:
        from repro.obs.manifest import build_manifest
        from repro.verification.differential import predictor_fingerprint

        payload = stats_to_dict(stats, args.engine)
        if session is not None:
            # Top-level registry and samples: what `repro export` reads.
            payload.update(session.to_dict())
        payload["manifest"] = build_manifest(
            "run",
            config=getattr(predictor, "config", None),
            config_name=args.predictor,
            backend=args.backend,
            engine_mode=engine.engine_mode,
            workload=args.workload,
            seed=args.seed,
            branches=args.branches,
            warmup=args.warmup,
            stats=stats,
            state_fingerprint=(
                predictor_fingerprint(predictor)
                if isinstance(predictor, LookaheadBranchPredictor) else None
            ),
            wall_seconds=wall_seconds,
            cpu_seconds=cpu_seconds,
            extra={"engine": args.engine},
        )
        _write_json(args.stats_json, payload)
    if args.save_state:
        if not isinstance(predictor, LookaheadBranchPredictor):
            raise SystemExit("--save-state requires a generation preset")
        saved = save_state(predictor, args.save_state)
        print(f"saved state: {saved} -> {args.save_state}")


def cmd_verify(args: argparse.Namespace) -> None:
    dut = LookaheadBranchPredictor(z15_config())
    env = VerificationEnvironment(
        dut,
        StimulusConstraints(seed=args.seed),
        checkpoint_interval=args.checkpoint_interval,
    )
    report = env.run(branches=args.branches, preload_entries=args.preload)
    print(report.summary())
    if not report.clean:
        sys.exit(1)


def cmd_verify_diff(args: argparse.Namespace) -> None:
    result = run_differential_suite(
        seed=args.seed,
        branches=args.branches,
        workloads=args.workloads or DEFAULT_WORKLOAD_FAMILIES,
        backends=tuple(args.backends),
        engine_modes=tuple(args.engine_modes),
    )
    print(result.summary())
    if not result.clean:
        sys.exit(1)


def _check_grid_names(configs=(), workloads=()) -> None:
    """Exit with the known names when a config or workload is unknown."""
    for name in configs:
        if name not in GENERATIONS:
            known = ", ".join(GENERATIONS)
            raise SystemExit(f"unknown config {name!r}; known: {known}")
    for name in workloads:
        if name not in STANDARD_WORKLOADS:
            known = ", ".join(sorted(STANDARD_WORKLOADS))
            raise SystemExit(f"unknown workload {name!r}; known: {known}")


def _graceful_drain(args):
    """SIGTERM/SIGINT drain gracefully only while ``--stream-out``
    checkpoints rows (see :func:`repro.engine.run_checkpointed`);
    without it the default signal behaviour (abort) is the right one."""
    return GracefulShutdown() if args.stream_out else contextlib.nullcontext()


def _exit_if_interrupted(shutdown, results, cells, stream_out) -> None:
    if shutdown is not None and shutdown.requested:
        print(f"interrupted by signal {shutdown.signum}: flushed "
              f"{len(results)} of {len(cells)} row(s) to {stream_out}; "
              f"resume with --resume {stream_out}")
        sys.exit(shutdown.exit_code)


def cmd_sweep(args: argparse.Namespace) -> None:
    _check_profile_flags(args)
    _check_grid_names(args.configs, args.workloads)
    configs = [(name, GENERATIONS[name][0]()) for name in args.configs]
    cells = make_grid(configs, args.workloads, args.seeds,
                      branches=args.branches, warmup=args.warmup,
                      backend=args.backend)
    if args.telemetry or args.metrics_out or args.telemetry_json:
        for cell in cells:
            cell.telemetry = True

    from repro.obs.manifest import build_manifest

    manifest = build_manifest(
        "sweep",
        backend=args.backend,
        branches=args.branches,
        warmup=args.warmup,
        grid={
            "configs": list(args.configs),
            "workloads": list(args.workloads),
            "seeds": list(args.seeds),
            "cells": len(cells),
        },
        extra={"workers": args.workers, "chunk_size": args.chunk_size},
    )
    span_writer, spans = _span_tracer(args, "sweep")
    pool_stats: dict = {}
    start = time.perf_counter()
    with _graceful_drain(args) as shutdown:
        results = _profiled(args, lambda: run_checkpointed(
            cells, manifest, stream_out=args.stream_out,
            resume=args.resume, strict=args.strict, shutdown=shutdown,
            workers=args.workers, chunk_size=args.chunk_size,
            timeout=args.cell_timeout, retries=args.cell_retries,
            pool_stats=pool_stats, spans=spans,
        ))
    wall = time.perf_counter() - start
    manifest["timings"] = {"wall_seconds": wall, "cpu_seconds": None}
    _finish_spans(span_writer, spans)
    if args.resume:
        print(f"resumed {pool_stats['resumed_cells']} completed "
              f"cell(s) from {args.resume}")
    _exit_if_interrupted(shutdown, results, cells, args.stream_out)
    if args.stream_out:
        print(f"streamed {len(results)} rows to {args.stream_out}")

    header = (f"{'config':<8} {'workload':<18} {'seed':>4} {'coverage':>9} "
              f"{'accuracy':>9} {'MPKI':>8}  fingerprint")
    print(header)
    print("-" * len(header))
    failed = 0
    for result in results:
        stats = result.stats
        if stats is None:  # CellError row: the cell failed, sweep survived
            failed += 1
            print(
                f"{result.label:<8} {result.workload:<18} {result.seed:>4} "
                f"FAILED {result.kind} after {result.attempts} attempt(s): "
                f"{result.message}"
            )
            continue
        print(
            f"{result.label:<8} {result.workload:<18} {result.seed:>4} "
            f"{stats.dynamic_coverage:>8.2%} {stats.direction_accuracy:>8.2%} "
            f"{stats.mpki:>8.3f}  {result.fingerprint[:12]}"
        )
    total_branches = sum(result.branches for result in results)
    print(
        f"\n{len(results)} cells, {total_branches} branches: "
        f"{wall:.2f}s ({total_branches / wall:,.0f} branches/s, "
        f"workers={args.workers})"
    )
    if args.telemetry_json:
        _write_json(args.telemetry_json, {
            "schema": "repro-sweep-telemetry/v1",
            "manifest": manifest,
            "cells": [
                {
                    "label": result.label,
                    "workload": result.workload,
                    "seed": result.seed,
                    "telemetry": result.telemetry,
                }
                for result in results
            ],
        })
    if args.metrics_out:
        from repro.obs.export import rollup_results

        _write_metrics(args.metrics_out, rollup_results(cells, results))

    if failed:
        print(f"\n{failed} cell(s) failed; see FAILED rows above")
        sys.exit(1)


def cmd_fleet(args: argparse.Namespace) -> None:
    _check_grid_names(args.configs, args.workloads)
    seeds = list(range(1, args.seed_count + 1))
    fault_rates = [0.0] + ([args.fault_rate] if args.fault_rate > 0 else [])
    cells = build_fleet_grid(
        configs=args.configs,
        workloads=args.workloads,
        seeds=seeds,
        backends=args.backends,
        fault_rates=fault_rates,
        branches=args.branches,
        warmup=args.warmup,
    )
    grid_info = {
        "configs": list(args.configs),
        "workloads": list(args.workloads),
        "seeds": seeds,
        "backends": list(args.backends),
        "fault_plans": ["none"] + (
            [f"rate={args.fault_rate:g}"] if args.fault_rate > 0 else []
        ),
        "branches_per_cell": args.branches,
        "warmup_per_cell": args.warmup,
    }
    print(f"fleet sweep: {len(cells)} cells "
          f"({len(args.configs)} configs x {len(args.workloads)} workloads "
          f"x {len(seeds)} seeds x {len(fault_rates)} fault plans "
          f"x {len(args.backends)} backends), "
          f"{args.branches}+{args.warmup} branches/cell")
    if args.telemetry or args.metrics_out:
        for cell in cells:
            cell.telemetry = True
    span_writer, spans = _span_tracer(args, "fleet")
    with _graceful_drain(args) as shutdown:
        payload, seq_results, par_results = run_fleet(
            cells,
            workers=args.workers,
            chunk_size=args.chunk_size,
            timeout=args.cell_timeout,
            retries=args.cell_retries,
            stream_out=args.stream_out,
            resume=args.resume,
            strict=args.strict,
            grid_info=grid_info,
            spans=spans,
            shutdown=shutdown,
        )
    _finish_spans(span_writer, spans)
    _exit_if_interrupted(shutdown, par_results, cells, args.stream_out)
    print(f"sequential: {payload['sequential']['wall_seconds']:.2f}s "
          f"({payload['sequential']['branches_per_second']:,.0f} branches/s)")
    print(f"parallel (workers={args.workers}, chunk={args.chunk_size}): "
          f"{payload['parallel']['wall_seconds']:.2f}s "
          f"({payload['parallel']['branches_per_second']:,.0f} branches/s, "
          f"{payload['parallel']['chunks_dispatched']} chunks)")
    parallel = payload["parallel"]
    if parallel["setup_seconds"]:  # zero when no worker process ran
        worker_seconds = parallel["workers"] * parallel["wall_seconds"]
        print(f"cell set-up in workers: {parallel['setup_seconds']:.2f}s "
              f"({parallel['setup_seconds'] / worker_seconds:.1%} of "
              f"{worker_seconds:.2f}s worker time)")
    print(f"speedup {payload['speedup']:.2f}x on {payload['cpu_count']} "
          f"core(s), equivalent={payload['equivalent']}, "
          f"failed_cells={payload['failed_cells']}")
    print(f"payload transfer: {payload['payloads']['distinct_blobs']} "
          f"distinct blobs, {payload['payloads']['bytes']:,} bytes, "
          f"{payload['payloads']['parent_pickle_calls']} parent pickles "
          f"for {len(cells)} cells")
    print(f"result transfer: {payload['results']['blobs']} chunk blobs, "
          f"{payload['results']['bytes']:,} bytes "
          f"({payload['results']['bytes_saved']:,} saved vs per-cell "
          f"pickling)")
    if args.json:
        _write_json(args.json, payload)
    if args.metrics_out:
        from repro.obs.export import rollup_results

        _write_metrics(args.metrics_out,
                       rollup_results(cells, par_results))
    if args.history:
        from repro.obs.observatory import (
            append_history,
            fleet_metrics,
            history_row,
        )

        append_history(args.history, history_row(
            "fleet", fleet_metrics(payload),
            manifest=payload.get("manifest"),
        ))
        print(f"appended fleet history row to {args.history}")
    failed = [r for r in par_results if r.stats is None]
    for result in failed[:10]:
        print(f"FAILED {result.label}/{result.workload}/seed {result.seed}: "
              f"{result.kind} after {result.attempts} attempt(s): "
              f"{result.message}")
    if not payload["equivalent"]:
        print("FAIL: parallel results diverge from sequential")
        sys.exit(1)
    if failed:
        print(f"\n{len(failed)} cell(s) failed; see FAILED rows above")
        sys.exit(1)
    if args.require_speedup is not None:
        cores = payload["cpu_count"]
        if cores >= 2 and args.workers >= 2:
            if payload["speedup"] < args.require_speedup:
                print(f"FAIL: speedup {payload['speedup']:.2f}x below "
                      f"required {args.require_speedup:.2f}x "
                      f"on {cores} cores")
                sys.exit(1)
            print(f"speedup gate passed: {payload['speedup']:.2f}x >= "
                  f"{args.require_speedup:.2f}x")
        else:
            print(f"speedup gate skipped: {cores} core(s) available — "
                  f"a process pool cannot beat sequential without "
                  f"parallel hardware")


def cmd_faults(args: argparse.Namespace) -> None:
    from repro.resilience import FAULT_KINDS, FaultPlan, fault_equivalence_report

    kinds = tuple(args.fault_kinds) if args.fault_kinds else FAULT_KINDS
    plan = FaultPlan(
        seed=args.fault_seed,
        rate=args.fault_rate,
        kinds=kinds,
        parity=args.parity,
        audit_interval=args.audit_interval,
    ).validate()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    impact = fault_equivalence_report(
        args.workload,
        plan,
        branches=args.branches,
        seed=args.seed,
        warmup=args.warmup,
        engine_mode="fast",
    )
    wall_seconds = time.perf_counter() - wall_start
    cpu_seconds = time.process_time() - cpu_start
    counters = impact.fault_counters
    parity = "on" if plan.parity else "off"
    print(f"fault campaign: {args.workload} x {args.branches} branches "
          f"(rate={plan.rate}, kinds={','.join(plan.kinds)}, "
          f"parity={parity}, fault-seed={plan.seed})")
    print(f"  injected  {counters['injected']:>6} "
          f"(detected {counters['detected']}, silent {counters['silent']}, "
          f"recovered {counters['recovered']})")
    print(f"  no-ops    {counters['attempts_empty']:>6} "
          f"(fault fired on an empty structure)")
    print(f"  audits    {counters['audits']:>6} clean")
    print(f"  fault-free  MPKI {impact.baseline_mpki:>8.3f}  "
          f"accuracy {impact.baseline_accuracy:>7.2%}")
    print(f"  faulted     MPKI {impact.faulted_mpki:>8.3f}  "
          f"accuracy {impact.faulted_accuracy:>7.2%}  "
          f"(delta {impact.mpki_delta:+.3f} MPKI)")
    if args.stats_json:
        from repro.obs.manifest import build_manifest

        _write_json(args.stats_json, {
            "schema": "repro-faults/v1",
            "workload": args.workload,
            "seed": args.seed,
            "branches": args.branches,
            "warmup": args.warmup,
            "plan": {
                "seed": plan.seed,
                "rate": plan.rate,
                "kinds": list(plan.kinds),
                "parity": plan.parity,
                "audit_interval": plan.audit_interval,
            },
            "counters": counters,
            "baseline": {
                "mpki": impact.baseline_mpki,
                "direction_accuracy": impact.baseline_accuracy,
                "fingerprint": impact.baseline_fingerprint,
            },
            "faulted": {
                "mpki": impact.faulted_mpki,
                "direction_accuracy": impact.faulted_accuracy,
                "fingerprint": impact.faulted_fingerprint,
            },
            "mpki_delta": impact.mpki_delta,
            "architecturally_equivalent": impact.report.clean,
            "manifest": build_manifest(
                "faults",
                config=z15_config(),
                engine_mode="fast",
                workload=args.workload,
                seed=args.seed,
                branches=args.branches,
                warmup=args.warmup,
                fault_plan=plan,
                wall_seconds=wall_seconds,
                cpu_seconds=cpu_seconds,
            ),
        })
    if impact.report.clean:
        print("  architectural equivalence: CLEAN — committed branch stream "
              "identical to the fault-free run")
    else:
        print(impact.report.summary())
        sys.exit(1)


def _load_export_source(path: str, strict: bool = False):
    """Classify a telemetry artifact for ``repro export``.

    Accepts a ``run --telemetry --stats-json`` payload (one Telemetry
    ``to_dict`` document at top level), a ``repro-sweep-telemetry/v1``
    dump (grouped per (label, workload)), an OpenMetrics text file
    written by
    ``--metrics-out`` (re-parsed, so ``export x.om --format json``
    converts back to canonical JSON), or a sweep/fleet checkpoint
    stream whose cells ran with ``--telemetry`` (grouped per (backend,
    engine-mode, workload)).  Returns whatever :func:`repro.obs.
    export.to_openmetrics` accepts.
    """
    from repro.obs.export import parse_openmetrics
    from repro.obs.telemetry import Telemetry

    with open(path) as stream:
        text = stream.read()
    stripped = text.lstrip()
    if stripped.startswith(("# HELP", "# TYPE", "# EOF")):
        return parse_openmetrics(text)
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and document.get("schema") not in (
        "repro-sweep-stream/v1", "repro-manifest/v1",
    ):
        if document.get("schema") == "repro-sweep-telemetry/v1":
            groups = {}
            for cell in document.get("cells", []):
                payload = cell.get("telemetry")
                if not payload:
                    continue
                labels = (("label", str(cell.get("label"))),
                          ("workload", str(cell.get("workload"))))
                groups.setdefault(labels, Telemetry()).merge(payload)
            if not groups:
                raise SystemExit(
                    f"{path}: sweep telemetry dump carries no telemetry "
                    f"registries"
                )
            return sorted(groups.items())
        if any(key in document
               for key in ("counters", "gauges", "histograms")):
            return document
        raise SystemExit(
            f"{path}: not a telemetry artifact (expected a telemetry "
            f"JSON payload, a repro-sweep-telemetry/v1 dump or a "
            f"checkpoint stream)"
        )
    # JSONL checkpoint stream (possibly manifest-headed).
    rows = load_stream(path, strict=strict)
    groups = {}
    for row in rows:
        payload = row.get("telemetry")
        if not payload:
            continue
        cell = row["cell"]
        labels = (("backend", str(cell.get("backend"))),
                  ("engine_mode", str(cell.get("engine_mode"))),
                  ("workload", str(cell.get("workload"))))
        groups.setdefault(labels, Telemetry()).merge(payload)
    if not groups:
        raise SystemExit(
            f"{path}: stream carries no telemetry — re-run the sweep "
            f"with --telemetry to export metrics from it"
        )
    return sorted(groups.items())


def cmd_export(args: argparse.Namespace) -> None:
    from repro.obs.export import to_canonical_json, to_openmetrics

    source = _load_export_source(args.input, strict=args.strict)
    if args.format == "json":
        text = to_canonical_json(source)
    else:
        text = to_openmetrics(source)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_report(args: argparse.Namespace) -> None:
    from repro.obs.observatory import collect_artifacts, render_dashboard

    artifacts = collect_artifacts(args.paths)
    text = render_dashboard(artifacts, title=args.title, strict=args.strict)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text)


def _serve_options(args: argparse.Namespace):
    from repro.serve import ServeOptions

    return ServeOptions(
        shards=args.shards,
        queue_depth=args.queue_depth,
        warm_tenants=args.warm_tenants,
        shed_highwater=args.shed_highwater,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        request_timeout=args.request_timeout,
        checkpoint_every=args.checkpoint_every,
        default_deadline_ms=args.deadline_ms,
    )


def cmd_serve(args: argparse.Namespace) -> None:
    import asyncio

    from repro.serve import PredictorServer

    options = _serve_options(args)

    async def _run(shutdown: GracefulShutdown) -> None:
        server = PredictorServer(args.spool, options,
                                 host=args.host, port=args.port)
        await server.start()
        print(f"serving on {server.host}:{server.port} "
              f"({options.shards} shard(s), spool {args.spool}); "
              f"SIGINT/SIGTERM drains, checkpoints warm tenants and "
              f"writes the final manifest")
        try:
            while not shutdown.requested:
                await asyncio.sleep(0.1)
        finally:
            reason = (f"signal:{shutdown.signum}"
                      if shutdown.requested else "shutdown")
            metrics = (await server.stop(reason=reason))["serve"]["metrics"]
            print(f"stopped ({reason}): {metrics['received']} received, "
                  f"{metrics['answered']} answered, "
                  f"{metrics['restarts']} shard restart(s), "
                  f"accounted={metrics['accounted']}; manifest at "
                  f"{os.path.join(args.spool, 'manifest.json')}")

    with GracefulShutdown() as shutdown:
        asyncio.run(_run(shutdown))
    if shutdown.requested:
        sys.exit(shutdown.exit_code)


def cmd_loadgen(args: argparse.Namespace) -> None:
    import asyncio

    from repro.obs.manifest import build_manifest
    from repro.serve import LoadGenerator, TenantPlan

    _check_grid_names(workloads=args.workloads)
    plans = [
        TenantPlan(
            f"{args.tenant_prefix}{index}",
            workload=args.workloads[index % len(args.workloads)],
            seed=args.seed + index,
            branches=args.branches,
            batch_size=args.batch_size,
            config=args.config,
            backend=args.backend,
            deadline_ms=args.deadline_ms,
            burst=args.burst,
            pace=args.pace,
        )
        for index in range(args.tenants)
    ]
    start = time.perf_counter()
    report = asyncio.run(LoadGenerator(args.host, args.port).run(plans))
    wall = time.perf_counter() - start
    for tenant in report["tenants"]:
        rejections = ",".join(f"{code}={count}" for code, count
                              in tenant["rejections"].items()) or "-"
        print(f"{tenant['tenant']:<16} {tenant['answered']:>4}/"
              f"{tenant['batches']:<4} batches  "
              f"attempts={tenant['attempts']:<5} retries={tenant['retries']:<3} "
              f"rejections={rejections:<24} "
              f"chains_agree={tenant['chains_agree']}")
    answered = sum(tenant["answered"] for tenant in report["tenants"])
    print(f"{len(plans)} tenant(s), {answered} batch(es) answered in "
          f"{wall:.2f}s; complete={report['complete']} "
          f"chains_agree={report['chains_agree']}")
    if args.json:
        _write_json(args.json, build_manifest(
            "loadgen",
            config_name=args.config,
            backend=args.backend,
            branches=args.branches,
            seed=args.seed,
            wall_seconds=wall,
            extra={"loadgen": {
                "host": args.host,
                "port": args.port,
                "plans": [plan.to_dict() for plan in plans],
                "report": report,
            }},
        ))
    if not (report["complete"] and report["chains_agree"]):
        print("FAIL: load was not fully answered with matching "
              "fingerprint chains")
        sys.exit(1)


def cmd_serve_chaos(args: argparse.Namespace) -> None:
    import tempfile

    from repro.serve import SCENARIOS, run_chaos

    scenarios = list(args.scenarios) if args.scenarios else list(SCENARIOS)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    with contextlib.ExitStack() as stack:
        spool = args.spool
        if spool is None:
            spool = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-chaos-")
            )
        report = run_chaos(scenarios, args.seed, spool,
                           tenants=args.tenants, branches=args.branches,
                           batch=args.batch_size)
    wall_seconds = time.perf_counter() - wall_start
    cpu_seconds = time.process_time() - cpu_start
    for scenario in report["scenarios"]:
        verdict = "PASS" if scenario["passed"] else "FAIL"
        injected = {key: value for key, value
                    in scenario["injected"].items() if value}
        print(f"{verdict} {scenario['scenario']:<10} "
              f"injected={injected or 'none'}")
        for check in scenario["checks"]:
            mark = "ok  " if check["passed"] else "FAIL"
            detail = f"  ({check['detail']})" if (check["detail"] and
                                                 not check["passed"]) else ""
            print(f"    [{mark}] {check['name']}{detail}")
    if args.json:
        from repro.obs.manifest import build_manifest

        report["manifest"] = build_manifest(
            "chaos",
            seed=args.seed,
            branches=args.branches,
            wall_seconds=wall_seconds,
            cpu_seconds=cpu_seconds,
            extra={"scenarios": scenarios, "tenants": args.tenants,
                   "batch_size": args.batch_size},
        )
        _write_json(args.json, report)
    if not report["passed"]:
        print("FAIL: at least one chaos scenario failed its checks")
        sys.exit(1)
    print(f"chaos clean: {len(report['scenarios'])} scenario(s) passed "
          f"(seed {args.seed})")


def cmd_workloads(_args: argparse.Namespace) -> None:
    for spec in STANDARD_WORKLOADS.values():
        print(f"{spec.name:<20} {spec.description}")


def _obs_options() -> argparse.ArgumentParser:
    """The observability options ``run``, ``sweep`` and ``fleet`` share,
    as an argparse parent.  None of them changes a result."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--telemetry", action="store_true",
                        help="attach a telemetry session: run prints its "
                             "per-component report; sweep and fleet cells "
                             "carry their registries back on the results")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the telemetry as OpenMetrics text, "
                             "rolled up per (backend, engine-mode, "
                             "workload) for sweep and fleet (implies "
                             "--telemetry)")
    parser.add_argument("--spans-out", metavar="PATH",
                        help="write phase spans as JSONL (repro-spans/v1): "
                             "the engine phases of a run, the pool phases "
                             "(serialize/transfer/execute/merge) of a grid")
    return parser


def _profile_options() -> argparse.ArgumentParser:
    """``--profile`` and ``--profile-top``, shared by ``run`` and
    ``sweep`` as an argparse parent."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-N "
                             "table (cumulative + tottime)")
    parser.add_argument("--profile-top", type=int, metavar="N",
                        help=f"rows per cProfile table (default "
                             f"{PROFILE_TOP}; requires --profile)")
    return parser


def _grid_options() -> argparse.ArgumentParser:
    """The options ``sweep`` and ``fleet`` share, as an argparse parent.

    Built fresh for each command: parents share their action objects,
    so one command's ``set_defaults(workers=...)`` would otherwise
    rewrite the other's default."""
    parser = argparse.ArgumentParser(add_help=False,
                                     parents=[_obs_options()])
    parser.add_argument("--configs", nargs="*", metavar="GEN",
                        default=list(GENERATIONS),
                        help="generation presets (default: all four)")
    parser.add_argument("--workers", type=int,
                        help="warm worker processes (default %(default)s)")
    parser.add_argument("--chunk-size", type=int,
                        help="cells per warm-worker dispatch (default "
                             "%(default)s; larger chunks amortise pool "
                             "round-trips on big grids)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell attempt timeout; a hung worker is "
                             "terminated and the cell retried (default: "
                             "unbounded)")
    parser.add_argument("--cell-retries", type=int, default=1,
                        help="re-attempts for a failing cell before its "
                             "slot becomes an error row (default 1)")
    parser.add_argument("--stream-out", metavar="PATH",
                        help="checkpoint each (parallel) result row to this "
                             "JSONL file as it completes (submission "
                             "order; resumable with --resume)")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume from a partial --stream-out file: "
                             "completed cells are not re-run")
    parser.add_argument("--strict", action="store_true",
                        help="refuse a torn final line in the --resume "
                             "stream instead of silently dropping it")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IBM z15 branch predictor model (ISCA 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", parents=[_obs_options(), _profile_options()],
        help="run one predictor over one workload: accuracy on the "
             "functional engine, timing on the cycle engine")
    run_parser.add_argument("workload", nargs="?", default="transactions")
    run_parser.add_argument("--predictor", default="z15",
                            help="generation preset or baseline predictor "
                                 "(default z15)")
    run_parser.add_argument("--engine", choices=("functional", "cycle"),
                            default="functional",
                            help="functional (accuracy report) or cycle "
                                 "(front-end timing report); default "
                                 "functional")
    run_parser.add_argument("--backend", choices=sorted(BACKENDS),
                            default="object",
                            help="predictor backend (generation presets "
                                 "only; default object)")
    run_parser.add_argument("--branches", type=int, default=30_000)
    run_parser.add_argument("--warmup", type=int,
                            help="uncounted warmup branches (default 10000 "
                                 "on the functional engine; the cycle "
                                 "engine has no warmup phase)")
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--smt2", action="store_true",
                            help="cycle engine: SMT2 search and fetch rates "
                                 "(two threads share the port)")
    run_parser.add_argument("--no-prefetch", action="store_true",
                            help="cycle engine: no lookahead I-cache "
                                 "prefetch")
    run_parser.add_argument("--hot-branches", action="store_true",
                            help="print the hot-branch mispredict profile")
    run_parser.add_argument("--trace-out", metavar="PATH",
                            help="write a JSONL branch trace "
                                 "(repro-trace/v1; implies --telemetry)")
    run_parser.add_argument("--every", type=int, default=1, metavar="N",
                            help="trace every N-th branch (default 1; >1 "
                                 "disables per-branch reconciliation)")
    run_parser.add_argument("--validate", action="store_true",
                            help="re-load the written trace, schema-check "
                                 "every line and reconcile it against the "
                                 "run's stats (exit 1 on a mismatch)")
    run_parser.add_argument("--interval", type=int, metavar="N",
                            help=f"telemetry sampling window in branches "
                                 f"(default {TELEMETRY_INTERVAL}; 0 "
                                 f"disables; requires --telemetry, "
                                 f"--trace-out or --metrics-out)")
    run_parser.add_argument("--stats-json", metavar="PATH",
                            help="write the run stats, the telemetry "
                                 "registry and samples when attached, and "
                                 "the run manifest as JSON")
    run_parser.add_argument("--save-state", metavar="PATH",
                            help="save the learned BTB/CTB state after the run")
    run_parser.add_argument("--load-state", metavar="PATH",
                            help="preload saved state before the run")
    run_parser.set_defaults(func=cmd_run)

    verify_parser = sub.add_parser("verify",
                                   help="white-box verification run")
    verify_parser.add_argument("--branches", type=int, default=5_000)
    verify_parser.add_argument("--preload", type=int, default=200)
    verify_parser.add_argument("--seed", type=int, default=1234)
    verify_parser.add_argument("--checkpoint-interval", type=int, default=500)
    verify_parser.set_defaults(func=cmd_verify)

    diff_parser = sub.add_parser(
        "verify-diff",
        help="differential verification: engines, replay, baselines")
    diff_parser.add_argument("--branches", type=int, default=3_000)
    diff_parser.add_argument("--seed", type=int, default=1234)
    diff_parser.add_argument(
        "--workloads", nargs="*", metavar="NAME",
        help=f"workload families to cross-check "
             f"(default: {' '.join(DEFAULT_WORKLOAD_FAMILIES)})")
    diff_parser.add_argument(
        "--backends", nargs="*", choices=sorted(BACKENDS),
        default=["object", "array"], metavar="BACKEND",
        help="predictor backends to verify; the first is the reference "
             "the others are differentially compared against "
             "(default: object array)")
    diff_parser.add_argument(
        "--engine-modes", nargs="*", choices=ENGINE_MODES,
        default=["reference", "fast"], metavar="MODE",
        help="engine modes to verify as a matrix against the backends; "
             "the first is the reference mode (default: reference fast)")
    diff_parser.set_defaults(func=cmd_verify_diff)

    sweep_parser = sub.add_parser(
        "sweep", parents=[_grid_options(), _profile_options()],
        help="parallel (config x workload x seed) sweep, checkpointable "
             "to a resumable stream")
    sweep_parser.set_defaults(workers=1, chunk_size=1)
    sweep_parser.add_argument("--workloads", nargs="*", metavar="NAME",
                              default=["compute-kernel", "transactions"])
    sweep_parser.add_argument("--seeds", nargs="*", type=int, default=[1])
    sweep_parser.add_argument("--backend", choices=sorted(BACKENDS),
                              default="object",
                              help="predictor backend every cell runs on "
                                   "(default object)")
    sweep_parser.add_argument("--branches", type=int, default=6_000)
    sweep_parser.add_argument("--warmup", type=int, default=2_000)
    sweep_parser.add_argument("--telemetry-json", metavar="PATH",
                              help="write every cell's telemetry registry "
                                   "as JSON (implies --telemetry)")
    sweep_parser.set_defaults(func=cmd_sweep)

    fleet_parser = sub.add_parser(
        "fleet", parents=[_grid_options()],
        help="fleet-scale (config x workload x seed x fault-plan x "
             "backend) sweep run sequentially and in parallel; emits the "
             "merged repro-fleet/v1 payload with the measured speedup")
    fleet_parser.set_defaults(workers=2, chunk_size=16)
    fleet_parser.add_argument("--workloads", nargs="*", metavar="NAME",
                              default=["compute-kernel", "transactions",
                                       "dispatch", "patterned"])
    fleet_parser.add_argument("--seed-count", type=int, default=8,
                              help="seeds 1..N per (config, workload) "
                                   "(default 8 -> ~1000 cells on the "
                                   "default axes)")
    fleet_parser.add_argument("--backends", nargs="*",
                              choices=sorted(BACKENDS),
                              default=["object", "array"], metavar="BACKEND")
    fleet_parser.add_argument("--fault-rate", type=float, default=0.01,
                              help="fault-plan axis: every cell runs clean "
                                   "and again under a deterministic plan at "
                                   "this rate (0 drops the fault axis; "
                                   "default 0.01)")
    fleet_parser.add_argument("--branches", type=int, default=300)
    fleet_parser.add_argument("--warmup", type=int, default=100)
    fleet_parser.add_argument("--json", metavar="PATH",
                              help="write the merged repro-fleet/v1 "
                                   "payload")
    fleet_parser.add_argument("--require-speedup", type=float, default=None,
                              metavar="X",
                              help="exit 1 unless speedup >= X (enforced "
                                   "only with >= 2 usable CPUs and >= 2 "
                                   "workers; the CI gate)")
    fleet_parser.add_argument("--history", metavar="PATH",
                              help="append a fleet bench-history row to "
                                   "this JSONL (repro report renders trend "
                                   "deltas from it)")
    fleet_parser.set_defaults(func=cmd_fleet)

    faults_parser = sub.add_parser(
        "faults",
        help="fault-injection campaign with architectural-equivalence "
             "check against the fault-free run")
    faults_parser.add_argument("workload", nargs="?", default="transactions")
    faults_parser.add_argument("--branches", type=int, default=5_000)
    faults_parser.add_argument("--warmup", type=int, default=0)
    faults_parser.add_argument("--seed", type=int, default=1234,
                               help="workload seed (default 1234)")
    faults_parser.add_argument("--fault-seed", type=int, default=1,
                               help="seed for the injector's private RNG")
    faults_parser.add_argument("--fault-rate", type=float, default=0.01,
                               help="per-branch fault probability "
                                    "(default 0.01)")
    faults_parser.add_argument("--fault-kinds", nargs="*", metavar="KIND",
                               help="fault kinds to enable (default: all; "
                                    "see repro.resilience.FAULT_KINDS)")
    faults_parser.add_argument("--parity", action="store_true", default=True,
                               help="model per-entry parity detection + "
                                    "invalidate-on-error recovery (default)")
    faults_parser.add_argument("--no-parity", dest="parity",
                               action="store_false",
                               help="disable parity: every corruption is "
                                    "silent")
    faults_parser.add_argument("--audit-interval", type=int, default=1_000,
                               help="structural audit every N branches "
                                    "(0 disables; default 1000)")
    faults_parser.add_argument("--stats-json", metavar="PATH",
                               help="write the campaign report as "
                                    "machine-readable JSON")
    faults_parser.set_defaults(func=cmd_faults)

    export_parser = sub.add_parser(
        "export",
        help="render a telemetry artifact as OpenMetrics text or "
             "canonical JSON")
    export_parser.add_argument("input", metavar="PATH",
                               help="run --telemetry --stats-json payload, "
                                    "repro-sweep-telemetry/v1 dump or "
                                    "checkpoint stream with telemetry rows")
    export_parser.add_argument("--format", choices=("openmetrics", "json"),
                               default="openmetrics",
                               help="output format (default openmetrics)")
    export_parser.add_argument("--out", metavar="PATH",
                               help="output file (default: stdout)")
    export_parser.add_argument("--strict", action="store_true",
                               help="refuse torn JSONL tails in checkpoint-"
                                    "stream inputs instead of dropping them")
    export_parser.set_defaults(func=cmd_export)

    report_parser = sub.add_parser(
        "report",
        help="observatory dashboard over BENCH artifacts, streams, "
             "manifests, spans and bench history")
    report_parser.add_argument("paths", nargs="+", metavar="PATH",
                               help="artifact files or directories "
                                    "(directories scanned one level deep)")
    report_parser.add_argument("--title", default="repro observatory",
                               help="dashboard title")
    report_parser.add_argument("--out", metavar="PATH",
                               help="write the markdown here "
                                    "(default: stdout)")
    report_parser.add_argument("--strict", action="store_true",
                               help="refuse torn tails in JSONL artifacts "
                                    "(streams, spans, history) instead of "
                                    "dropping them")
    report_parser.set_defaults(func=cmd_report)

    serve_parser = sub.add_parser(
        "serve",
        help="multi-tenant prediction service over supervised warm "
             "predictor shards")
    serve_parser.add_argument("--spool", default="serve-spool",
                              metavar="DIR",
                              help="durable state root: per-tenant "
                                   "journals/snapshots, events.jsonl, "
                                   "final manifest.json (default "
                                   "serve-spool)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="listen port (default 0: pick a free "
                                   "one and print it)")
    serve_parser.add_argument("--shards", type=int, default=2,
                              help="warm predictor worker processes "
                                   "(default 2)")
    serve_parser.add_argument("--queue-depth", type=int, default=8,
                              help="outstanding batches per tenant before "
                                   "queue-full rejections (default 8)")
    serve_parser.add_argument("--warm-tenants", type=int, default=64,
                              help="tenants kept warm before LRU eviction "
                                   "to the lossy state tier (default 64)")
    serve_parser.add_argument("--shed-highwater", type=int, default=256,
                              help="total outstanding batches before load "
                                   "shedding (default 256)")
    serve_parser.add_argument("--heartbeat-interval", type=float,
                              default=0.25, metavar="SECONDS",
                              help="supervisor ping period (default 0.25)")
    serve_parser.add_argument("--heartbeat-timeout", type=float,
                              default=3.0, metavar="SECONDS",
                              help="unresponsive-shard threshold before a "
                                   "restart from journals (default 3)")
    serve_parser.add_argument("--request-timeout", type=float, default=60.0,
                              metavar="SECONDS",
                              help="hard cap on any one request "
                                   "(default 60)")
    serve_parser.add_argument("--checkpoint-every", type=int, default=4,
                              help="snapshot + journal rotation period in "
                                   "batches per tenant (default 4)")
    serve_parser.add_argument("--deadline-ms", type=int, default=None,
                              help="default per-request deadline when the "
                                   "client sends none")
    serve_parser.set_defaults(func=cmd_serve)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="replay workload-suite traffic against a running serve "
             "instance and audit the fingerprint chains")
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, required=True,
                                help="port of the running serve instance")
    loadgen_parser.add_argument("--tenants", type=int, default=3)
    loadgen_parser.add_argument("--tenant-prefix", default="tenant-",
                                help="tenant ids are PREFIX0..PREFIXn-1 "
                                     "(default tenant-)")
    loadgen_parser.add_argument("--workloads", nargs="+",
                                default=["transactions", "dispatch",
                                         "services", "correlated"],
                                metavar="NAME",
                                help="cycled across tenants")
    loadgen_parser.add_argument("--config", default="z15")
    loadgen_parser.add_argument("--backend", choices=sorted(BACKENDS),
                                default="object")
    loadgen_parser.add_argument("--seed", type=int, default=1)
    loadgen_parser.add_argument("--branches", type=int, default=240,
                                help="branches per tenant (default 240)")
    loadgen_parser.add_argument("--batch-size", type=int, default=40)
    loadgen_parser.add_argument("--burst", type=int, default=1,
                                help="batches sent concurrently per wave "
                                     "(default 1)")
    loadgen_parser.add_argument("--pace", type=float, default=0.0,
                                metavar="SECONDS",
                                help="think time between waves (default 0)")
    loadgen_parser.add_argument("--deadline-ms", type=int, default=None,
                                help="per-request deadline attached to "
                                     "every predict (default: none)")
    loadgen_parser.add_argument("--json", metavar="PATH",
                                help="write the loadgen manifest + per-"
                                     "tenant report as JSON")
    loadgen_parser.set_defaults(func=cmd_loadgen)

    chaos_parser = sub.add_parser(
        "serve-chaos",
        help="seeded fault-injection scenarios against a live server: "
             "kill/hang/slow/torn/flood/churn/snapshot-kill with "
             "liveness, exactness and accounting audits")
    chaos_parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                              help="scenario names (default: all of "
                                   "baseline, kill, hang, slow, torn, "
                                   "flood, churn, snapshot-kill)")
    chaos_parser.add_argument("--seed", type=int, default=1,
                              help="seeds fault timing, targets and "
                                   "tenant traffic (default 1)")
    chaos_parser.add_argument("--spool", default=None, metavar="DIR",
                              help="keep spools under this directory "
                                   "(default: a temporary directory, "
                                   "removed afterwards)")
    chaos_parser.add_argument("--tenants", type=int, default=3)
    chaos_parser.add_argument("--branches", type=int, default=240,
                              help="branches per tenant (default 240)")
    chaos_parser.add_argument("--batch-size", type=int, default=40)
    chaos_parser.add_argument("--json", metavar="PATH",
                              help="write the repro-chaos/v1 report here")
    chaos_parser.set_defaults(func=cmd_serve_chaos)

    workloads_parser = sub.add_parser("workloads",
                                      help="list standard workloads")
    workloads_parser.set_defaults(func=cmd_workloads)
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ReproError as error:
        # Library errors (bad config, malformed trace/state file, audit
        # failure...) are user-facing: one line on stderr, exit code 2 —
        # distinct from verification failures (1) and argparse usage
        # errors (argparse's own 2 with usage text).
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
