"""The checkpoint stream contract: a killed sweep resumed from its
partial JSONL stream reproduces the uninterrupted run exactly.

Covers the row codec (SweepResult and CellError round trips), the torn
tail left by a killed writer, stream validation on resume (wrong sweep,
conflicting duplicates, out-of-grid indices) and the end-to-end
kill/resume equivalence that makes streaming safe to rely on for
thousand-cell fleets.
"""

import copy
import json

import pytest

from repro.common.errors import SweepStreamError
from repro.engine.parallel import (
    CellError,
    PayloadRegistry,
    SweepCell,
    run_cells,
    stream_cells,
)
from repro.engine.stream import (
    STREAM_SCHEMA,
    RestoredStats,
    load_stream,
    open_stream,
    restore_completed,
    result_to_row,
    row_to_result,
    run_checkpointed,
)

from tests.conftest import build_medium_program, small_predictor_config
from tests.engine.test_parallel import _tiny_cells


def _cells():
    program = build_medium_program(seed=3)
    config = small_predictor_config()
    return [
        SweepCell(label="ckpt", config=config, workload=program,
                  seed=seed, branches=300, warmup=100)
        for seed in (1, 2, 3, 4)
    ]


def _comparable_row(row):
    """A stream row minus the fields that legitimately differ between
    the run that produced a cell and the run that resumed past it."""
    row = json.loads(json.dumps(row))  # deep copy
    row.pop("elapsed", None)
    return row


# ----------------------------------------------------------------------
# Row codec
# ----------------------------------------------------------------------


def test_ok_row_round_trips():
    cells = _cells()[:1]
    result = run_cells(cells, workers=1)[0]
    registry = PayloadRegistry()
    row = result_to_row(0, cells[0], result, registry)
    assert row["schema"] == STREAM_SCHEMA
    assert row["status"] == "ok"
    restored = row_to_result(row)
    assert restored.fingerprint == result.fingerprint
    assert isinstance(restored.stats, RestoredStats)
    assert restored.stats.branches == result.stats.branches
    assert restored.stats.mpki == result.stats.mpki
    # Re-encoding the restored result reproduces the identical row.
    assert (_comparable_row(result_to_row(0, cells[0], restored, registry))
            == _comparable_row(row))


def test_cycle_row_round_trips_with_nested_accuracy():
    cell = SweepCell(label="cyc", config=small_predictor_config(),
                     workload="compute-kernel", seed=2, branches=300,
                     engine="cycle")
    result = run_cells([cell], workers=1)[0]
    row = result_to_row(0, cell, result)
    restored = row_to_result(row)
    assert restored.stats.cycles == result.stats.cycles
    assert restored.stats.cpi == result.stats.cpi
    assert isinstance(restored.stats.accuracy, RestoredStats)
    assert (restored.stats.accuracy.mispredicted_branches
            == result.stats.accuracy.mispredicted_branches)


def test_error_row_round_trips():
    cells = _tiny_cells()[:1]
    error = CellError(label="tiny", workload="compute-kernel", seed=1,
                      branches=400, warmup=100, kind="timeout",
                      message="no result within 3.0s", attempts=2)
    row = result_to_row(0, cells[0], error)
    assert row["status"] == "error"
    restored = row_to_result(row)
    assert isinstance(restored, CellError)
    assert restored.kind == "timeout"
    assert restored.attempts == 2
    assert restored.fingerprint == "cell-error:timeout"


# ----------------------------------------------------------------------
# Stream file tolerance and validation
# ----------------------------------------------------------------------


def test_load_stream_drops_torn_tail(tmp_path):
    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    path = str(tmp_path / "stream.jsonl")
    registry = PayloadRegistry()
    with open_stream(path) as writer:
        for index in (0, 1):
            writer.write(result_to_row(index, cells[index], results[index],
                                       registry))
    with open(path, "a") as stream:
        stream.write('{"schema": "repro-sweep-str')  # killed mid-write
    rows = load_stream(path)
    assert len(rows) == 2
    assert [row["cell"]["index"] for row in rows] == [0, 1]


def test_load_stream_rejects_mid_stream_corruption(tmp_path):
    path = str(tmp_path / "stream.jsonl")
    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    good = json.dumps(result_to_row(0, cells[0], results[0]))
    with open(path, "w") as stream:
        stream.write("not json at all\n")
        stream.write(good + "\n")
    with pytest.raises(SweepStreamError):
        load_stream(path)


def test_load_stream_rejects_foreign_schema(tmp_path):
    path = str(tmp_path / "stream.jsonl")
    with open(path, "w") as stream:
        stream.write(json.dumps({"schema": "other/v1"}) + "\n")
    with pytest.raises(SweepStreamError):
        load_stream(path)


def test_restore_rejects_stream_from_different_sweep(tmp_path):
    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    rows = [result_to_row(0, cells[0], results[0])]
    other = _cells()
    other[0].seed = 40  # same slot, different cell identity
    with pytest.raises(SweepStreamError) as excinfo:
        restore_completed(rows, other)
    assert "different sweep" in str(excinfo.value)


def test_restore_rejects_out_of_grid_index():
    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    rows = [result_to_row(3, cells[3], results[3])]
    with pytest.raises(SweepStreamError):
        restore_completed(rows, cells[:2])


def test_restore_rejects_conflicting_duplicates():
    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    row = result_to_row(0, cells[0], results[0])
    conflicting = json.loads(json.dumps(row))
    conflicting["fingerprint"] = "something-else"
    with pytest.raises(SweepStreamError):
        restore_completed([row, conflicting], cells)


def test_restore_accepts_agreeing_duplicates():
    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    row = result_to_row(0, cells[0], results[0])
    completed = restore_completed([row, row], cells)
    assert set(completed) == {0}


# ----------------------------------------------------------------------
# Kill / resume end to end
# ----------------------------------------------------------------------


def test_killed_sweep_resumed_from_stream_matches_uninterrupted(tmp_path):
    cells = _cells()
    registry = PayloadRegistry()
    path = str(tmp_path / "stream.jsonl")

    # Uninterrupted reference: all rows, streamed to a full checkpoint.
    reference = run_cells(copy.deepcopy(cells), workers=1)
    reference_rows = [
        _comparable_row(result_to_row(i, cells[i], reference[i], registry))
        for i in range(len(cells))
    ]

    # "Killed" run: the consumer dies after two rows; the writer has
    # flushed those rows plus a torn tail from the in-flight write.
    writer = open_stream(path)
    stream = stream_cells(copy.deepcopy(cells), workers=2, chunk_size=1)
    for index, result in enumerate(stream):
        writer.write(result_to_row(index, cells[index], result, registry))
        if index == 1:
            stream.close()
            break
    writer.close()
    with open(path, "a") as handle:
        handle.write('{"schema": "repro-sweep-stream/v1", "cell": {"ind')

    # Resume from the partial stream.
    completed = restore_completed(load_stream(path), cells, registry)
    assert set(completed) == {0, 1}
    stats: dict = {}
    resumed = run_cells(cells, workers=2, completed=completed,
                        pool_stats=stats)
    assert stats["resumed_cells"] == 2
    resumed_rows = [
        _comparable_row(result_to_row(i, cells[i], resumed[i], registry))
        for i in range(len(cells))
    ]
    assert resumed_rows == reference_rows
    assert [r.fingerprint for r in resumed] == [
        r.fingerprint for r in reference
    ]


def test_fully_streamed_sweep_resumes_to_a_no_op(tmp_path):
    cells = _cells()
    registry = PayloadRegistry()
    path = str(tmp_path / "stream.jsonl")
    results = run_cells(copy.deepcopy(cells), workers=1)
    with open_stream(path) as writer:
        for index, result in enumerate(results):
            writer.write(result_to_row(index, cells[index], result,
                                       registry))
    # Poison every prelude: any re-run would produce error rows.
    for cell in cells:
        cell.prelude = _forbidden_rerun
    completed = restore_completed(load_stream(path), cells, registry)
    stats: dict = {}
    resumed = run_cells(cells, workers=2, completed=completed,
                        pool_stats=stats)
    assert stats["resumed_cells"] == len(cells)
    assert [r.fingerprint for r in resumed] == [
        r.fingerprint for r in results
    ]


def _forbidden_rerun(spec):
    raise RuntimeError("fully-checkpointed sweep must not re-run cells")


def test_signalled_run_drains_then_resumes_to_the_full_result(tmp_path):
    from repro.common.signals import GracefulShutdown
    from repro.obs.manifest import build_manifest

    cells = _cells()
    reference = run_cells(copy.deepcopy(cells), workers=1)
    path = str(tmp_path / "stream.jsonl")
    manifest = build_manifest("sweep", grid={"cells": len(cells)})
    shutdown = GracefulShutdown()
    shutdown.request(15)  # arrives while the first row is in flight
    partial = run_checkpointed(copy.deepcopy(cells), manifest,
                               stream_out=path, shutdown=shutdown)
    # The row in flight is flushed, then a manifest line records why
    # the stream stops there; loaders skip it, so the stream resumes.
    assert len(partial) == 1
    last = json.loads(open(path).read().splitlines()[-1])
    assert last["interrupted"] == {"signal": 15, "rows_written": 1,
                                   "cells_total": len(cells)}
    assert len(load_stream(path)) == 1
    stats: dict = {}
    resumed = run_checkpointed(cells, manifest, resume=path,
                               pool_stats=stats, workers=2)
    assert stats["resumed_cells"] == 1
    assert [r.fingerprint for r in resumed] == [
        r.fingerprint for r in reference
    ]


# ----------------------------------------------------------------------
# Embedded run manifests
# ----------------------------------------------------------------------


def test_manifest_embeds_as_first_line_and_is_skipped(tmp_path):
    from repro.engine.stream import load_stream_manifest
    from repro.obs.manifest import build_manifest

    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    path = str(tmp_path / "stream.jsonl")
    registry = PayloadRegistry()
    manifest = build_manifest("sweep", grid={"cells": len(cells)})
    with open_stream(path, manifest=manifest) as writer:
        for index, result in enumerate(results):
            writer.write(result_to_row(index, cells[index], result,
                                       registry))
    first = json.loads(open(path).readline())
    assert first["schema"] == "repro-manifest/v1"
    # Result consumers never see the manifest row...
    rows = load_stream(path)
    assert len(rows) == len(cells)
    assert all(row["schema"] == STREAM_SCHEMA for row in rows)
    # ...and the manifest reader returns exactly it.
    recovered = load_stream_manifest(path)
    assert recovered == json.loads(json.dumps(manifest))


def test_manifest_headed_stream_resumes(tmp_path):
    from repro.obs.manifest import build_manifest

    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    path = str(tmp_path / "stream.jsonl")
    registry = PayloadRegistry()
    with open_stream(path,
                           manifest=build_manifest("sweep")) as writer:
        for index in (0, 1):
            writer.write(result_to_row(index, cells[index], results[index],
                                       registry))
    completed = restore_completed(load_stream(path), cells, registry)
    assert sorted(completed) == [0, 1]


def test_load_stream_manifest_none_for_plain_streams(tmp_path):
    from repro.engine.stream import load_stream_manifest

    cells = _cells()
    results = run_cells(copy.deepcopy(cells), workers=1)
    path = str(tmp_path / "plain.jsonl")
    with open_stream(path) as writer:
        writer.write(result_to_row(0, cells[0], results[0]))
    assert load_stream_manifest(path) is None


def test_load_stream_manifest_tolerates_torn_single_line(tmp_path):
    from repro.engine.stream import load_stream_manifest

    path = str(tmp_path / "torn.jsonl")
    with open(path, "w") as stream:
        stream.write('{"schema": "repro-manif')
    assert load_stream_manifest(path) is None


def test_writer_rejects_invalid_manifest(tmp_path):
    from repro.obs.manifest import ManifestError

    with pytest.raises(ManifestError):
        open_stream(str(tmp_path / "bad.jsonl"),
                          manifest={"schema": "nope"})
