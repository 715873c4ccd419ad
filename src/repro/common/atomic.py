"""Crash-consistent file writing: whole-file documents.

The z15 predictor survives array corruption because every entry is
parity-protected and recovery is invalidate-and-relearn (§VI); the
software analogue for this repo's on-disk artifacts is that *no writer
may ever leave a torn file that a loader mistakes for a good one*.
Two disciplines cover every artifact we write:

* **Whole-file documents** (predictor state, BENCH reports, stats/
  metrics exports, serve snapshots): :func:`atomic_write_text` /
  :func:`atomic_write_bytes` / :func:`atomic_write_json` write to a
  temporary sibling, flush, ``fsync``, then atomically ``os.replace``
  onto the target (and fsync the directory so the rename itself is
  durable).  A kill at any byte offset leaves either the complete old
  file or the complete new file — never a hybrid.  Leftover ``*.tmp.*``
  siblings from a killed writer are ignored by every loader and
  harvested by :func:`discard_stale_temps`.

* **Append-only JSONL streams** (sweep checkpoints, traces, spans,
  bench history, serve journals and events) live in
  :mod:`repro.common.jsonl`: rewriting the whole file per row would
  defeat their purpose, so their contract is *bounded tearing* instead,
  kept by its one writer.  The journal's compaction still replaces the
  whole file through :func:`atomic_write_bytes`.

Everything here is dependency-free (``repro.common`` policy) and safe
on any POSIX filesystem; on platforms without ``os.fsync`` on
directories (Windows), directory syncs degrade to a no-op rather than
an error.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Tuple, Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "commit_temp",
    "discard_stale_temps",
    "fsync_directory",
    "temp_sibling",
]

#: Infix marking the temporary siblings of in-flight atomic writes.
#: Loaders and directory scans must skip names containing it.
TMP_MARKER = ".tmp."


def fsync_directory(path: Union[str, Path]) -> None:
    """fsync a directory so a just-completed rename inside it is
    durable.  Platforms that cannot open directories (Windows) skip
    silently — the rename is still atomic there, just not yet flushed.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def temp_sibling(path: Union[str, Path]) -> Tuple[int, str]:
    """Create the temporary sibling an atomic write of *path* goes
    through: ``(fd, name)``, the name carrying :data:`TMP_MARKER`.  The
    first half of :func:`atomic_write_bytes`, for writers that fill the
    temp elsewhere (a forked child) and :func:`commit_temp` it later.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    return tempfile.mkstemp(prefix=target.name + TMP_MARKER,
                            dir=str(directory))


def commit_temp(tmp_name: str, path: Union[str, Path]) -> Path:
    """Rename a written and fsynced temp sibling onto *path*, then fsync
    the directory so the rename itself is durable.  The second half of
    :func:`atomic_write_bytes`."""
    target = Path(path)
    os.replace(tmp_name, str(target))
    fsync_directory(target.parent if str(target.parent) else Path("."))
    return target


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write *data* to *path* atomically: temp sibling, fsync, rename.

    Returns the target path.  A kill at any point leaves either the
    previous file content or the new one, never a mix; the temp file
    uses :data:`TMP_MARKER` so a stale leftover is recognisable.
    """
    fd, tmp_name = temp_sibling(path)
    try:
        with os.fdopen(fd, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        return commit_temp(tmp_name, path)
    except BaseException:
        # The write never happened as far as readers are concerned;
        # remove the orphan so it cannot be mistaken for anything.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str,
                      encoding: str = "utf-8") -> Path:
    """:func:`atomic_write_bytes` for text content."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: Union[str, Path], payload, *,
                      indent=None, sort_keys: bool = True,
                      separators=None, trailing_newline: bool = False) -> Path:
    """Serialize *payload* as JSON and write it atomically.

    Defaults mirror the repo's canonical-JSON policy (sorted keys); the
    CLI report writers pass ``indent=2, trailing_newline=True``.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys,
                      separators=separators)
    if trailing_newline:
        text += "\n"
    return atomic_write_text(path, text)


def discard_stale_temps(directory: Union[str, Path]) -> int:
    """Remove leftover :data:`TMP_MARKER` siblings from killed atomic
    writes in *directory* (non-recursive).  Returns the count removed.
    Safe to call concurrently with live writers: an in-flight temp that
    vanishes underneath its writer only fails that single write.
    """
    removed = 0
    try:
        names = os.listdir(str(directory))
    except OSError:
        return 0
    for name in names:
        if TMP_MARKER in name:
            try:
                os.unlink(os.path.join(str(directory), name))
                removed += 1
            except OSError:
                pass
    return removed
