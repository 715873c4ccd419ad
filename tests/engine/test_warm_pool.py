"""The warm-pool rebuild's own contract: serialize-once transfer,
chunked dispatch, ordered streaming, and failure attribution at
chunk sizes the legacy runner never had.

`test_parallel.py` pins the original sweep contract (which the rebuild
must keep verbatim at ``chunk_size=1``); this module locks down what
the warm pool *adds* — each distinct payload pickled once in the
parent and installed once per worker, multi-cell chunks whose failures
are caught per cell, an incremental result stream that never reorders
or drops a row, and resume via pre-filled ``completed`` slots.
"""

import copy

import pytest

from repro.configs import z15_config
from repro.engine.parallel import (
    CellError,
    PayloadRegistry,
    SweepCell,
    SweepResult,
    make_grid,
    run_cells,
    stream_cells,
)

from tests.conftest import (
    build_medium_program,
    build_small_program,
    small_predictor_config,
)
from tests.engine.test_parallel import (
    _baseline_fingerprints,
    _boom_prelude,
    _crash_prelude,
    _hang_prelude,
    _tiny_cells,
)


def _grid(seeds=(1, 2, 3, 4)):
    return make_grid(
        configs=[("tiny", small_predictor_config()), ("z15", z15_config())],
        workloads=[build_small_program(), "compute-kernel"],
        seeds=seeds,
        branches=300,
        warmup=100,
    )


# ----------------------------------------------------------------------
# Chunked dispatch: equivalence does not depend on chunk geometry
# ----------------------------------------------------------------------


@pytest.mark.parametrize("chunk_size", [2, 3, 16])
def test_chunked_parallel_matches_sequential(chunk_size):
    cells = _grid()
    sequential = run_cells(copy.deepcopy(cells), workers=1)
    parallel = run_cells(cells, workers=2, chunk_size=chunk_size)
    assert [r.fingerprint for r in parallel] == [
        r.fingerprint for r in sequential
    ]
    assert [(r.label, r.workload, r.seed) for r in parallel] == [
        (c.label, c.workload_name, c.seed) for c in cells
    ]


def test_chunk_size_must_be_positive():
    with pytest.raises(ValueError):
        run_cells(_tiny_cells(), workers=2, chunk_size=0)


# ----------------------------------------------------------------------
# Serialize-once transfer accounting
# ----------------------------------------------------------------------


def test_shared_program_is_pickled_once_in_parent():
    # 8 cells all referencing the SAME Program object: the registry must
    # pickle it once, not once per cell.
    program = build_medium_program()
    config = small_predictor_config()
    cells = [
        SweepCell(label="shared", config=config, workload=program,
                  seed=seed, branches=300, warmup=100)
        for seed in range(1, 9)
    ]
    stats: dict = {}
    results = run_cells(cells, workers=2, chunk_size=4, pool_stats=stats)
    assert all(isinstance(r, SweepResult) for r in results)
    # One Program + one PredictorConfig = two parent pickles, two blobs.
    assert stats["parent_pickle_calls"] == 2
    assert stats["payload_blobs"] == 2
    assert stats["payload_bytes"] > 0


def test_equal_content_programs_share_one_blob():
    # Distinct objects with identical content dedup on the wire: two
    # pickle calls (identity memo misses) but a single transferred blob.
    registry = PayloadRegistry()
    first = registry.register(build_medium_program(seed=7))
    second = registry.register(build_medium_program(seed=7))
    assert first == second
    assert registry.pickle_calls == 2
    assert len(registry.blobs) == 1


def test_each_worker_installs_payloads_exactly_once():
    program = build_medium_program()
    cells = [
        SweepCell(label="w", config=small_predictor_config(),
                  workload=program, seed=seed, branches=300, warmup=100)
        for seed in range(1, 7)
    ]
    stats: dict = {}
    run_cells(cells, workers=2, chunk_size=2, pool_stats=stats)
    assert stats["mode"] == "warm-pool"
    assert stats["workers"], "no worker instrumentation captured"
    for pid, worker in stats["workers"].items():
        assert worker["installs"] == 1, (
            f"worker {pid} re-received the payload cache "
            f"{worker['installs']} times"
        )
        assert worker["payload_blobs"] == stats["payload_blobs"]
    # Every cell materialised its own pristine copies in some worker.
    total_cells = sum(w["cells_run"] for w in stats["workers"].values())
    assert total_cells == len(cells)


def test_sequential_path_reports_same_transfer_accounting():
    program = build_medium_program()
    config = small_predictor_config()
    cells = [
        SweepCell(label="s", config=config, workload=program,
                  seed=seed, branches=300, warmup=100)
        for seed in (1, 2, 3)
    ]
    stats: dict = {}
    run_cells(cells, workers=1, pool_stats=stats)
    assert stats["mode"] == "sequential"
    assert stats["parent_pickle_calls"] == 2
    assert stats["payload_blobs"] == 2


# ----------------------------------------------------------------------
# Failure attribution inside multi-cell chunks
# ----------------------------------------------------------------------


def test_error_in_chunk_spares_chunkmates():
    # chunk_size=3 packs the failing seed-2 cell WITH its neighbours in
    # one chunk; the per-cell catch inside _run_chunk must confine the
    # error to its own slot.
    cells = _tiny_cells()
    cells[1].prelude = _boom_prelude
    stats: dict = {}
    results = run_cells(cells, workers=2, chunk_size=3, retries=1,
                        backoff=0.0, pool_stats=stats)
    assert results[1].kind == "error"
    assert results[1].attempts == 2
    assert "injected cell failure" in results[1].message
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]
    # The error never broke the pool: no isolation rounds were needed.
    assert stats["pool_breaks"] == 0
    assert stats["isolation_attempts"] == 0


def test_crash_in_chunk_is_attributed_by_isolation_rounds():
    cells = _tiny_cells()
    cells[1].prelude = _crash_prelude
    stats: dict = {}
    results = run_cells(cells, workers=2, chunk_size=3, retries=1,
                        backoff=0.0, pool_stats=stats)
    assert results[1].kind == "crash"
    assert results[1].stats is None
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]
    # The crash took the chunk down; isolation rounds assigned blame.
    assert stats["pool_breaks"] >= 1
    assert stats["isolation_attempts"] >= 1


def test_crash_re_dispatches_only_the_broken_chunk():
    # Eight cells in chunks of two: the seed-2 crash takes down the
    # first chunk only.  Its two cells re-run alone on the warm workers;
    # every other chunk keeps its chunkmates and spends no attempt.
    cells = [
        SweepCell(label="z15", config=z15_config(),
                  workload="compute-kernel", seed=seed, branches=400,
                  warmup=100)
        for seed in range(1, 9)
    ]
    baseline = [r.fingerprint
                for r in run_cells(copy.deepcopy(cells), workers=1)]
    cells[1].prelude = _crash_prelude
    stats: dict = {}
    results = run_cells(cells, workers=2, chunk_size=2, retries=0,
                        backoff=0.0, pool_stats=stats)
    assert results[1].kind == "crash"
    assert results[1].attempts == 1
    assert stats["isolation_attempts"] == 2
    assert stats["pool_breaks"] == 2  # the chunk, then the cell alone
    assert [r.fingerprint for i, r in enumerate(results) if i != 1] == [
        f for i, f in enumerate(baseline) if i != 1
    ]


def test_hang_in_chunk_is_attributed_by_isolation_rounds():
    cells = _tiny_cells()
    cells[1].prelude = _hang_prelude
    results = run_cells(cells, workers=2, chunk_size=3, timeout=3.0,
                        retries=0, backoff=0.0)
    assert results[1].kind == "timeout"
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]


# ----------------------------------------------------------------------
# Streaming: ordered, lossless, resumable
# ----------------------------------------------------------------------


def test_stream_yields_rows_in_submission_order():
    cells = _grid(seeds=(1, 2, 3))
    expected = [r.fingerprint for r in run_cells(copy.deepcopy(cells),
                                                 workers=1)]
    streamed = []
    for row in stream_cells(cells, workers=2, chunk_size=2):
        streamed.append(row)
    assert [r.fingerprint for r in streamed] == expected
    assert [(r.label, r.workload, r.seed) for r in streamed] == [
        (c.label, c.workload_name, c.seed) for c in cells
    ]


def test_stream_with_failing_cell_never_drops_or_reorders():
    cells = _tiny_cells()
    cells[1].prelude = _boom_prelude
    rows = list(stream_cells(cells, workers=2, chunk_size=2, retries=0,
                             backoff=0.0))
    assert len(rows) == len(cells)
    assert isinstance(rows[1], CellError)
    assert [r.seed for r in rows] == [c.seed for c in cells]


def test_stream_completed_slots_are_not_rerun():
    cells = _tiny_cells()
    full = run_cells(copy.deepcopy(cells), workers=1)
    # Pre-fill slot 0 and 2; poison their preludes so any re-run would
    # blow up the results.
    cells[0].prelude = _boom_prelude_always
    cells[2].prelude = _boom_prelude_always
    stats: dict = {}
    rows = run_cells(cells, workers=2, retries=0, backoff=0.0,
                     completed={0: full[0], 2: full[2]}, pool_stats=stats)
    assert stats["resumed_cells"] == 2
    assert [r.fingerprint for r in rows] == [r.fingerprint for r in full]
    assert rows[0] is full[0] and rows[2] is full[2]


def test_stream_rejects_out_of_range_completed_index():
    with pytest.raises(ValueError):
        list(stream_cells(_tiny_cells(), completed={17: None}))


def test_abandoned_stream_tears_down_its_pool():
    cells = _grid()
    stream = stream_cells(cells, workers=2, chunk_size=1)
    first = next(stream)
    assert isinstance(first, SweepResult)
    # Closing mid-sweep must terminate the warm workers promptly rather
    # than joining queued chunks (the killed-sweep scenario).
    stream.close()


def _boom_prelude_always(spec):
    raise RuntimeError("resumed slot must not re-run")


# ----------------------------------------------------------------------
# Batched result IPC: one pickled blob per chunk
# ----------------------------------------------------------------------


def test_chunk_results_cross_the_pipe_as_one_blob():
    """Each dispatched chunk returns exactly one pickled outcome blob;
    the accounting shows what per-cell pickling would have cost."""
    cells = _grid()
    stats: dict = {}
    results = run_cells(cells, workers=2, chunk_size=4, pool_stats=stats)
    assert all(isinstance(r, SweepResult) for r in results)
    assert stats["result_blobs"] == stats["chunks_dispatched"]
    assert stats["result_blobs"] < len(cells)
    assert stats["result_bytes"] > 0
    assert stats["result_bytes_unbatched"] >= stats["result_bytes"]
    assert stats["result_bytes_saved"] == (
        stats["result_bytes_unbatched"] - stats["result_bytes"]
    )


def test_multi_cell_chunks_save_result_bytes():
    """Chunkmates share one pickle memo (class descriptors, provider
    keys, framing), so batching must genuinely shrink the transfer."""
    cells = _grid()
    stats: dict = {}
    run_cells(cells, workers=2, chunk_size=8, pool_stats=stats)
    assert stats["result_bytes_saved"] > 0


def test_single_cell_chunks_still_account_blobs():
    """chunk_size=1 degenerates to one-cell blobs: accounting stays
    coherent (a blob per cell, ~zero savings — the list framing can even
    cost a few bytes) rather than vanishing."""
    cells = _tiny_cells()
    stats: dict = {}
    results = run_cells(cells, workers=2, chunk_size=1, pool_stats=stats)
    assert len(results) == len(cells)
    assert stats["result_blobs"] == len(cells)
    assert stats["result_bytes_saved"] == (
        stats["result_bytes_unbatched"] - stats["result_bytes"]
    )
    assert abs(stats["result_bytes_saved"]) < 64 * len(cells)


def test_error_rows_attribute_through_chunked_blobs():
    """Per-cell attribution survives the batched return path: an error
    outcome lands in its own submission slot, chunkmates in theirs."""
    cells = _tiny_cells()
    cells[1].prelude = _boom_prelude
    stats: dict = {}
    results = run_cells(cells, workers=2, chunk_size=3, retries=1,
                        backoff=0.0, pool_stats=stats)
    assert isinstance(results[1], CellError)
    assert results[1].kind == "error"
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]
    # The mixed ok/error chunk still crossed as blobs.
    assert stats["result_blobs"] >= 1


def test_sequential_path_has_no_result_blob_accounting():
    """workers=1 runs cells in-process — nothing crosses a pipe, so the
    result-IPC counters must stay zero rather than invent traffic."""
    stats: dict = {}
    run_cells(_tiny_cells(), workers=1, pool_stats=stats)
    assert stats["result_blobs"] == 0
    assert stats["result_bytes"] == 0
    assert stats["result_bytes_saved"] == 0
