"""Sweep checkpoint streams: JSONL result rows, written as they
complete, loadable to resume a killed sweep.

:func:`~repro.engine.parallel.stream_cells` yields results merged into
submission order, so writing each row as it arrives checkpoints a
strict prefix of the final result list.  This module is the row codec
around that contract:

* :func:`result_to_row` / :func:`row_to_result` — lossless-for-the-
  contract JSON encoding of :class:`~repro.engine.parallel.SweepResult`
  and :class:`~repro.engine.parallel.CellError` rows.  Stats objects
  are flattened to their engine-independent invariant slice (the same
  ``comparable_stats`` dict the fingerprint hashes) plus the derived
  headline metrics; a restored row exposes them through a read-only
  :class:`RestoredStats` view.
* :func:`open_stream` — the stream's writer: the shared
  :class:`~repro.common.jsonl.JsonlWriter`, one fsynced line per row,
  so a killed process loses at most the torn tail line.
* :func:`load_stream` — re-reads a stream, tolerating exactly that torn
  tail (a partial final line is dropped; corruption anywhere else
  raises :class:`~repro.common.errors.SweepStreamError`).
* :func:`restore_completed` — validates loaded rows against the grid
  being resumed (every row must sit at its submission index and match
  the cell's content fingerprint) and returns the ``completed`` mapping
  ``stream_cells`` accepts.
* :func:`run_checkpointed` — the one resume → run → checkpoint → drain
  loop that ``repro sweep`` and the fleet's parallel pass share.

The determinism contract extends through the stream: resuming a killed
sweep from its partial stream produces the identical merged result set
(fingerprints, stats, ordering; only per-row wall-clock ``elapsed``
reflects whichever run actually executed the cell).

Schema: ``repro-sweep-stream/v1``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.common.errors import SweepStreamError
from repro.common.jsonl import JsonlWriter, format_location, iter_jsonl
from repro.engine.parallel import (
    CellError,
    PayloadRegistry,
    SweepCell,
    SweepResult,
    cell_fingerprint,
    stream_cells,
)

STREAM_SCHEMA = "repro-sweep-stream/v1"


class RestoredStats:
    """Read-only attribute view over a checkpointed stats row.

    Exposes the flattened invariant slice (``branches``, ``mpki``,
    ``dynamic_coverage``, ...; ``cycles``/``accuracy`` for cycle cells)
    by attribute, like the live RunStats/CycleStats it replaces — enough
    for report tables and payload assembly.  It is *not* a RunStats: it
    cannot be re-fingerprinted or folded into; the row's recorded
    fingerprint is the identity a resumed sweep carries forward.
    """

    def __init__(self, data: Mapping[str, object]) -> None:
        fields = dict(data)
        if isinstance(fields.get("accuracy"), dict):
            fields["accuracy"] = RestoredStats(fields["accuracy"])
        self._data = fields

    def __getattr__(self, name: str):
        try:
            return self._data[name]
        except KeyError:
            raise AttributeError(
                f"restored stats row has no field {name!r}"
            ) from None

    def __eq__(self, other) -> bool:
        if isinstance(other, RestoredStats):
            return self._data == other._data
        return NotImplemented

    def __repr__(self) -> str:
        return f"RestoredStats({sorted(self._data)})"

    def to_dict(self) -> dict:
        data = dict(self._data)
        if isinstance(data.get("accuracy"), RestoredStats):
            data["accuracy"] = data["accuracy"].to_dict()
        return data


def _accuracy_dict(stats) -> dict:
    """The invariant slice plus derived headline metrics of a RunStats."""
    from repro.verification.differential import comparable_stats

    payload = comparable_stats(stats)
    payload["instructions_approximate"] = stats.instructions_approximate
    payload["dynamic_coverage"] = stats.dynamic_coverage
    payload["direction_accuracy"] = stats.direction_accuracy
    payload["branch_mpki"] = stats.branch_mpki
    payload["mpki"] = stats.mpki
    return payload


#: CycleStats scalar fields carried verbatim into a cycle row.
_CYCLE_FIELDS = (
    "cycles", "instructions", "branches", "bpl_wait_cycles",
    "fetch_wait_cycles", "restart_cycles", "exposed_miss_cycles",
    "hidden_miss_cycles", "cpred_redirects", "taken_redirects", "restarts",
)


def stats_to_dict(stats, engine: str) -> dict:
    """The machine-readable stats of one run or cell: ``repro run
    --stats-json`` writes it, and each stream row carries it.

    A functional run gives the invariant slice plus the derived
    headline metrics; a cycle run (*engine* ``"cycle"``) gives the
    ``CycleStats`` scalars and cache levels, with the same accuracy
    dict under ``accuracy``.
    """
    if isinstance(stats, RestoredStats):
        return stats.to_dict()
    if engine == "cycle":
        payload = {name: getattr(stats, name) for name in _CYCLE_FIELDS}
        payload["cpi"] = stats.cpi
        payload["ipc"] = stats.ipc
        payload["cache_levels"] = stats.cache_levels
        payload["accuracy"] = _accuracy_dict(stats.accuracy)
        return payload
    return _accuracy_dict(stats)


def _cell_identity(index: int, cell: SweepCell,
                   registry: Optional[PayloadRegistry]) -> dict:
    return {
        "index": index,
        "key": cell_fingerprint(cell, registry),
        "label": cell.label,
        "workload": cell.workload_name,
        "seed": cell.seed,
        "branches": cell.branches,
        "warmup": cell.warmup,
        "engine": cell.engine,
        "backend": cell.backend,
        "engine_mode": cell.engine_mode,
    }


def result_to_row(
    index: int,
    cell: SweepCell,
    result: Union[SweepResult, CellError],
    registry: Optional[PayloadRegistry] = None,
) -> dict:
    """Encode one result (at its submission *index*) as a JSONL row.

    Pass a shared :class:`PayloadRegistry` when encoding a whole sweep
    so each distinct Program is pickled once for its content key rather
    than once per row.
    """
    row = {
        "schema": STREAM_SCHEMA,
        "cell": _cell_identity(index, cell, registry),
        "fingerprint": result.fingerprint,
        "elapsed": result.elapsed,
        "telemetry": result.telemetry,
        "faults": result.faults,
    }
    if isinstance(result, CellError):
        row["status"] = "error"
        row["stats"] = None
        row["error"] = {
            "kind": result.kind,
            "message": result.message,
            "attempts": result.attempts,
        }
    else:
        row["status"] = "ok"
        row["stats"] = stats_to_dict(result.stats, cell.engine)
        row["error"] = None
    return row


def row_to_result(row: Mapping) -> Union[SweepResult, CellError]:
    """Decode one stream row back into its result object.

    An "ok" row's ``stats`` comes back as a :class:`RestoredStats`
    view; its ``fingerprint`` is the recorded digest, so sweep
    equivalence checks over restored rows remain string comparisons.
    """
    cell = row["cell"]
    identity = {
        "label": cell["label"],
        "workload": cell["workload"],
        "seed": cell["seed"],
        "branches": cell["branches"],
        "warmup": cell["warmup"],
    }
    if row["status"] == "error":
        error = row["error"]
        return CellError(
            kind=error["kind"],
            message=error["message"],
            attempts=error["attempts"],
            elapsed=row.get("elapsed", 0.0),
            telemetry=row.get("telemetry"),
            faults=row.get("faults"),
            **identity,
        )
    result = SweepResult(
        stats=RestoredStats(row["stats"]),
        fingerprint=row["fingerprint"],
        elapsed=row.get("elapsed", 0.0),
        telemetry=row.get("telemetry"),
        faults=row.get("faults"),
        **identity,
    )
    return result


def open_stream(path: str, manifest: Optional[dict] = None) -> JsonlWriter:
    """A writer for a new checkpoint stream at *path*: one fsynced line
    per row, so a killed sweep loses at most the torn final line, which
    :func:`load_stream` drops on reload.

    Pass a run *manifest* (:func:`repro.obs.manifest.build_manifest`)
    to validate it and embed it as the stream's first line;
    :func:`load_stream` skips it (so result-row consumers are
    unaffected) and :func:`load_stream_manifest` retrieves it.
    """
    if manifest is not None:
        from repro.obs.manifest import validate_manifest

        validate_manifest(manifest)
    return JsonlWriter(path, header=manifest, fsync=True)


def load_stream(path: str, strict: bool = False) -> List[dict]:
    """Load a (possibly truncated) checkpoint stream.

    A torn *final* line — the signature of a killed writer — is
    silently dropped, unless *strict* is set (the CLI ``--strict``
    mode), in which case it raises like any other corruption.  An
    embedded run-manifest row (the optional first line,
    ``repro-manifest/v1``) is skipped — result consumers see only
    result rows; use :func:`load_stream_manifest` for the manifest.  A
    malformed line anywhere else, or a row of the wrong schema, raises
    :class:`SweepStreamError` naming the line number and byte offset.
    """
    from repro.obs.manifest import is_manifest

    rows: List[dict] = []
    for lineno, offset, row in iter_jsonl(path, strict=strict,
                                          error=SweepStreamError):
        if is_manifest(row):
            continue
        if not isinstance(row, dict) or row.get("schema") != STREAM_SCHEMA:
            raise SweepStreamError(
                f"{format_location(path, lineno, offset)}: "
                f"not a {STREAM_SCHEMA} row"
            )
        rows.append(row)
    return rows


def load_stream_manifest(path: str) -> Optional[dict]:
    """The run manifest embedded in a stream's first line, or None for
    streams written without one (pre-manifest files stay loadable)."""
    from repro.obs.manifest import is_manifest

    for _, _, row in iter_jsonl(path, error=SweepStreamError):
        return row if is_manifest(row) else None
    return None


def restore_completed(
    rows: Sequence[Mapping],
    cells: Sequence[SweepCell],
    registry: Optional[PayloadRegistry] = None,
) -> Dict[int, Union[SweepResult, CellError]]:
    """Validate loaded rows against the grid being resumed and build the
    ``completed`` mapping for :func:`~repro.engine.parallel.
    stream_cells`.

    Every row must sit inside the grid and carry the content fingerprint
    of the cell at its index — a stream from a different sweep (other
    configs, workload payloads, seeds or grid order) is rejected rather
    than silently merged.  Duplicate indices must agree.
    """
    registry = registry if registry is not None else PayloadRegistry()
    keys = [cell_fingerprint(cell, registry) for cell in cells]
    completed: Dict[int, Union[SweepResult, CellError]] = {}
    seen: Dict[int, str] = {}
    for row in rows:
        identity = row["cell"]
        index = identity["index"]
        if not 0 <= index < len(cells):
            raise SweepStreamError(
                f"stream row index {index} outside grid of "
                f"{len(cells)} cells"
            )
        if identity["key"] != keys[index]:
            raise SweepStreamError(
                f"stream row {index} ({identity['label']}/"
                f"{identity['workload']}/seed {identity['seed']}) does "
                f"not match this sweep's cell at that slot — resuming a "
                f"different sweep?"
            )
        if index in seen and seen[index] != row["fingerprint"]:
            raise SweepStreamError(
                f"stream contains conflicting rows for cell {index}"
            )
        seen[index] = row["fingerprint"]
        completed[index] = row_to_result(row)
    return completed


def run_checkpointed(
    cells: Sequence[SweepCell],
    manifest: dict,
    stream_out: Optional[str] = None,
    resume: Optional[str] = None,
    strict: bool = False,
    shutdown=None,
    **options,
) -> List[Union[SweepResult, CellError]]:
    """Run *cells* through :func:`~repro.engine.parallel.stream_cells`,
    resuming from and checkpointing to JSONL streams; return the
    results in cell order.

    *resume* pre-loads a previous partial stream (*strict* makes its
    torn tail an error), whose cells are not re-run.  *stream_out*
    writes every row as it completes behind *manifest* as the first
    line.  *shutdown* (a :class:`~repro.common.signals.GracefulShutdown`)
    is polled between streamed rows: when it fires, the row in flight
    is flushed, a trailing manifest line records the interruption
    (loaders skip manifest rows, so the stream stays resumable) and the
    partial results are returned for the caller to exit ``128+signum``.
    The remaining *options* (``workers``, ``chunk_size``, ``timeout``,
    ``retries``, ``pool_stats``, ``spans``) go to ``stream_cells``.
    """
    registry = PayloadRegistry()
    completed: Dict[int, Union[SweepResult, CellError]] = {}
    if resume:
        completed = restore_completed(load_stream(resume, strict=strict),
                                      cells, registry)
    stream = stream_cells(cells, completed=completed, **options)
    if not stream_out:
        return list(stream)
    results: List[Union[SweepResult, CellError]] = []
    with open_stream(stream_out, manifest=manifest) as writer:
        for index, result in enumerate(stream):
            writer.write(result_to_row(index, cells[index], result, registry))
            results.append(result)
            if shutdown is not None and shutdown.requested:
                writer.write(dict(manifest, interrupted={
                    "signal": shutdown.signum,
                    "rows_written": len(results),
                    "cells_total": len(cells),
                }))
                break
    return results
