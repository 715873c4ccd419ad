"""Append-only JSONL artifacts: one writer, one reader, one crash contract.

The z15 sends every BTB1 install through one write queue, whatever its
source.  This module is that queue for the repo's append-only files:
sweep checkpoint streams, serve tenant journals, the serve events log,
bench history, span files and branch traces.

Writing.  :class:`JsonlWriter` is the only code in :mod:`repro` that
opens a JSONL file for writing.  It opens the file to truncate it or to
append to it, writes a header when the file is empty, and encodes every
record one way (:func:`encode_line`: compact separators, keys in the
caller's order, one newline-terminated line per write call).  It has
two line policies, flush each line or flush and fsync each line, and it
always closes with flush plus fsync, on the error path too.  The
formats use it like this::

    artifact        opens     header                      each line
    sweep stream    truncate  run manifest                fsync
    tenant journal  append    journal header              fsync
    serve events    append    none                        fsync
    bench history   append    none                        fsync
    spans           truncate  span header                 flush
    branch trace    truncate  TraceWriter.write_header    flush

A kill therefore tears at most the line being written.  Each format
keeps only what is its own on top: the journal's event check, chaos
tear hook, mark and rotate; the trace's sampling and record builders;
the span header and summary; the stream's manifest check; the history
schema check.

One appender per file.  Opening to append first cuts a torn tail (the
bytes after the last newline, which a killed writer leaves) and fsyncs
the cut, so the next record starts a line of its own instead of merging
into the torn one.  That is only safe while no other process appends to
the same file, which the repo keeps: one shard owns a tenant's journal,
one server owns a spool's events log, one CLI run writes a history
file at a time.

Reading.  Every loader shares :func:`iter_jsonl`:

* a line is complete when its newline is on disk.  The bytes after the
  last newline are the torn tail of a killed writer, and by default
  they are dropped silently, even when they happen to parse;
* malformed JSON on a complete line is real corruption and raises, and
  the error says exactly where: ``path:line`` plus the byte offset of
  the offending line, so the damage can be inspected with
  ``dd``/``head -c`` instead of guessing;
* ``strict=True`` upgrades even the torn tail to an error: the mode
  CLIs expose as ``--strict`` for pipelines where a partial artifact
  must fail loudly rather than load quietly.

:func:`load_headed_jsonl` adds the header-first rule of the journal,
span and trace formats; each loader keeps its own schema validation on
top.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union


def encode_line(record: dict) -> bytes:
    """One record as its JSONL line, newline included."""
    return json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"


class JsonlWriter:
    """Writes one JSONL file under the module's crash contract.

    *append* opens an existing file to append to it (cutting a torn
    tail first) instead of truncating it; *header* is written first
    when the file is empty; *fsync* fsyncs every line instead of only
    flushing it.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, path: Union[str, Path], *, append: bool = False,
                 header: Optional[dict] = None, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        #: Lines this writer wrote, its header included.
        self.records_written = 0
        self._open(append)
        if header is not None and self._stream.tell() == 0:
            self.write(header)

    def _open(self, append: bool) -> None:
        self._stream = stream = open(self.path, "a+b" if append else "wb")
        size = stream.seek(0, os.SEEK_END)
        if not size:
            return
        stream.seek(size - 1)
        if stream.read(1) == b"\n":
            return
        # A killed writer's torn tail: cut it, durably, before the first
        # append can land on it.
        stream.seek(0)
        stream.truncate(stream.read().rfind(b"\n") + 1)
        stream.flush()
        os.fsync(stream.fileno())
        stream.seek(0, os.SEEK_END)

    def write(self, record: dict) -> None:
        stream = self._stream
        if stream is None:
            raise ValueError(f"JSONL writer for {self.path} is closed")
        stream.write(encode_line(record))
        stream.flush()
        if self.fsync:
            os.fsync(stream.fileno())
        self.records_written += 1

    def close(self) -> None:
        stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.flush()
                os.fsync(stream.fileno())
            finally:
                stream.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def format_location(path: str, line_number: int, offset: int) -> str:
    """The standard corruption coordinate string: path:line @ byte."""
    return f"{path}:{line_number} (byte offset {offset})"


def iter_jsonl(
    path: str,
    *,
    strict: bool = False,
    error: Callable[[str], Exception] = ValueError,
) -> Iterator[Tuple[int, int, object]]:
    """Yield ``(line_number, byte_offset, decoded_object)`` per line.

    *line_number* is 1-based; *byte_offset* is the offset of the line's
    first byte in the file (as encoded on disk).  Blank lines are
    skipped.  Corruption handling follows the module contract above,
    raising ``error(message)`` — pass the loader's own exception type so
    callers keep their established ``except`` surfaces.
    """
    with open(path, "rb") as stream:
        data = stream.read()
    lines = data.split(b"\n")
    torn = lines.pop()  # the bytes after the last newline
    offset = 0
    for line_number, raw in enumerate(lines, start=1):
        line_offset = offset
        offset += len(raw) + 1
        text = raw.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            where = format_location(path, line_number, line_offset)
            raise error(
                f"{where}: malformed JSONL row: {exc.msg}"
            ) from exc
        yield line_number, line_offset, obj
    if strict and torn.strip():
        where = format_location(path, len(lines) + 1, offset)
        raise error(
            f"{where}: torn final line (killed writer?) rejected by "
            f"strict loading: no newline after {len(torn)} bytes"
        )


def load_headed_jsonl(
    path: str,
    schema: str,
    name: str,
    *,
    strict: bool = False,
    error: Callable[[str], Exception] = ValueError,
) -> List[Tuple[int, int, dict]]:
    """The rows of a header-first JSONL file, as :func:`iter_jsonl`
    triples; the first is the header.

    The first record must be ``{"type": "header", "schema": schema}``.
    A record before it, a second header, a wrong schema (named
    ``unsupported {name} schema``), a row that is not an object and a
    file with no header each raise ``error``, located.
    """
    rows: List[Tuple[int, int, dict]] = []
    for line_number, offset, obj in iter_jsonl(path, strict=strict,
                                               error=error):
        where = format_location(path, line_number, offset)
        if not isinstance(obj, dict):
            raise error(f"{where}: expected a JSON object, "
                        f"got {type(obj).__name__}")
        kind = obj.get("type")
        if kind == "header":
            if rows:
                raise error(f"{where}: duplicate header record")
            if obj.get("schema") != schema:
                raise error(
                    f"{where}: unsupported {name} schema "
                    f"{obj.get('schema')!r} (expected {schema!r})"
                )
        elif not rows:
            raise error(f"{where}: {kind} record before header")
        rows.append((line_number, offset, obj))
    if not rows:
        raise error(f"{path}: no header record")
    return rows


__all__ = ["JsonlWriter", "encode_line", "format_location", "iter_jsonl",
           "load_headed_jsonl"]
