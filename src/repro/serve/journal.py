"""Per-tenant crash-recovery artifacts: journal, snapshot, evict state.

The service keeps **two tiers** of durable state per tenant, mirroring
the paper's two-level BTB hierarchy:

* The *evict tier* rides :mod:`repro.core.state_io` — the BTB2-style
  semi-inclusive save (BTB1/BTB2/CTB only; TAGE, perceptron and other
  aux state are deliberately dropped).  Eviction is lossy by contract:
  a re-warmed tenant predicts a little worse for a while, exactly like
  a line refetched from BTB2.  It never loses *answers*.

* The *crash-recovery tier* is exact.  Every accepted batch is appended
  to the tenant journal **before** it is computed or answered
  (journal-before-respond).  Prediction is deterministic, so replaying
  the journal on top of the last snapshot reproduces the predictor,
  the stats, and the chained stream fingerprint bit for bit — including
  evictions and re-warms, which are journaled too (a save → load round
  trip of identical state is itself deterministic).

Snapshots compact the journal, and they are written off the request
path, like the z15's lookahead, which never stalls a search on a table
write.  :class:`SnapshotWrite` forks: the child pickles the snapshot
into a temp sibling, fsyncs it and leaves through ``os._exit``, while
the shard keeps serving, with :meth:`JournalWriter.mark` noting where
the journal stood at the fork.  Only the shard commits: once the child
has exited cleanly it renames the temp onto the snapshot, fsyncs the
directory, and :meth:`JournalWriter.rotate` cuts the journal down to
its header plus the lines appended after the mark.  A crash before the
rename leaves the previous snapshot and the full journal (plus a
stranded temp, which recovery deletes); a crash between rename and
rotation leaves events recovery skips by sequence number.  A crash
mid-append tears at most the final journal line, which the loader
drops and the writer reopened by recovery cuts off before its first
append: a torn batch was by construction never answered, so dropping
it is the only correct reading.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.common.atomic import atomic_write_bytes, commit_temp, temp_sibling
from repro.common.errors import JournalError
from repro.common.jsonl import (
    JsonlWriter,
    encode_line,
    format_location,
    load_headed_jsonl,
)

JOURNAL_SCHEMA = "repro-serve-journal/v1"
SNAPSHOT_SCHEMA = "repro-serve-snapshot/v1"

JOURNAL_EVENT_TYPES = ("batch", "evict", "restore")

#: Descriptors a snapshot child closes run up to this bound (read in
#: the parent: the child makes no call it does not need).
_MAX_FD = os.sysconf("SC_OPEN_MAX") if hasattr(os, "sysconf") else 256


class TenantPaths:
    """Where one tenant's durable artifacts live under the spool."""

    def __init__(self, spool_dir: Union[str, Path], tenant: str):
        self.directory = Path(spool_dir) / "tenants" / tenant
        self.journal = self.directory / "journal.jsonl"
        self.snapshot = self.directory / "snapshot.pickle"
        self.evict_state = self.directory / "evict-state.json"

    def ensure(self) -> "TenantPaths":
        self.directory.mkdir(parents=True, exist_ok=True)
        return self

    def exists(self) -> bool:
        return self.journal.exists() or self.snapshot.exists()


def journal_header(tenant: str, config: str, backend: str) -> Dict:
    return {"type": "header", "schema": JOURNAL_SCHEMA, "tenant": tenant,
            "config": config, "backend": backend}


class JournalWriter(JsonlWriter):
    """One tenant journal: the shared JSONL writer, appending with an
    fsync per event, plus the journal's own event check, :meth:`mark`
    and :meth:`rotate`.

    ``tear_after_bytes`` is the chaos hook: when set, the next append
    writes only that many bytes of its line and hard-kills the process
    — a faithful torn write, the exact artifact a power cut mid-append
    leaves behind.
    """

    def __init__(self, path: Union[str, Path], header: Dict):
        self.header = dict(header)
        self.tear_after_bytes: Optional[int] = None
        #: Byte length of the journal at the last :meth:`mark`: the
        #: next :meth:`rotate` keeps what was appended beyond it.
        self._mark: Optional[int] = None
        super().__init__(Path(path), append=True, header=self.header,
                         fsync=True)

    def append(self, event: Dict) -> None:
        """Durably record one event (fsync before returning)."""
        if event.get("type") not in JOURNAL_EVENT_TYPES:
            raise JournalError(f"unknown journal event {event.get('type')!r}")
        if self.tear_after_bytes is not None:
            # Chaos: emulate dying mid-append.  Write a prefix of the
            # line (never its newline), make it durable so recovery
            # really sees the torn tail, then die the way a crashed
            # process dies — no unwinding, no atexit.
            self._stream.write(encode_line(event)[:-1][:self.tear_after_bytes])
            self.close()
            os._exit(70)
        self.write(event)

    def mark(self) -> None:
        """Note where the journal ends: a snapshot of the state up to
        here is being written.  Every append is flushed, so the file's
        size is the end."""
        self._mark = os.fstat(self._stream.fileno()).st_size

    def rotate(self) -> None:
        """Compact: replace the journal with its header plus the lines
        appended since the last :meth:`mark` (none without a mark).

        Called *after* the snapshot taken at the mark landed; the lines
        kept are the ones that snapshot does not hold.  The replacement
        is atomic, so a crash leaves either journal, and the old one
        holds only extra events recovery skips by sequence number.  The
        header goes through the shared encoder, so it is byte-identical
        to the one written at creation.
        """
        tail = b""
        if self._mark is not None:
            with open(self.path, "rb") as stream:
                stream.seek(self._mark)
                tail = stream.read()
        atomic_write_bytes(self.path, encode_line(self.header) + tail)
        self._mark = None
        self.close()
        self._open(append=True)


def load_journal(
    path: Union[str, Path], strict: bool = False
) -> Tuple[Dict, List[Dict]]:
    """Read one tenant journal: ``(header, events)``.

    The torn final line a crashed writer leaves is dropped (strict mode
    refuses it instead); corruption anywhere else is a real error.
    """
    (_, _, header), *rows = load_headed_jsonl(
        path, JOURNAL_SCHEMA, "journal", strict=strict, error=JournalError)
    events: List[Dict] = []
    for line_number, offset, obj in rows:
        where = format_location(path, line_number, offset)
        kind = obj.get("type")
        if kind not in JOURNAL_EVENT_TYPES:
            raise JournalError(f"{where}: unknown journal event {kind!r}")
        if not isinstance(obj.get("seq"), int):
            raise JournalError(f"{where}: journal event without int seq")
        events.append(obj)
    return header, events


def dump_snapshot(fd: int, payload: Dict) -> None:
    """Pickle one snapshot into the open file *fd*, fsync and close it."""
    with os.fdopen(fd, "wb") as stream:
        pickle.dump(dict(payload, schema=SNAPSHOT_SCHEMA), stream,
                    protocol=4)
        stream.flush()
        os.fsync(stream.fileno())


class SnapshotWrite:
    """One snapshot being written by a forked child.

    The constructor creates the temp sibling and forks.  The child has
    a copy-on-write image of *payload* as of the fork, so the caller
    may go on mutating its state at once.  The child closes every
    descriptor it inherited but the temp's (a child that outlives a
    killed shard must not hold the shard's pipe open, or the server
    would not see the death), disables the cyclic collector (its
    passes would copy every page of the heap), drops to the lowest CPU
    priority (under contention the shard's requests win the CPU),
    pickles, fsyncs and leaves through ``os._exit``: no ``atexit``, no
    flush, no return into the shard's loop.  The shard may not be
    strictly single-threaded (numpy's OpenBLAS starts threads), so the
    child touches no lock another thread may have held at the fork.

    :meth:`poll` reaps the child; the caller then calls :meth:`commit`,
    or, for a failed child, finds its temp already gone.  ``stall_s``
    is a chaos hook: the child sleeps that long before it writes, so a
    kill can land while it is in flight.
    """

    def __init__(self, path: Union[str, Path], payload: Dict,
                 stall_s: float = 0.0):
        self.path = Path(path)
        fd, self.temp = temp_sibling(self.path)
        try:
            pid = os.fork()
        except BaseException:
            os.close(fd)
            os.unlink(self.temp)
            raise
        if pid == 0:
            _write_in_child(fd, payload, stall_s)
        os.close(fd)
        self.pid = pid

    def poll(self, block: bool) -> Optional[bool]:
        """``None`` while the child runs (only when not *block*); else
        whether it wrote the whole temp.  A failed child's temp is
        unlinked here."""
        try:
            pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
        except ChildProcessError:
            pid, status = self.pid, -1  # reaped elsewhere: outcome unknown
        if pid == 0:
            return None
        if status == 0:
            return True
        try:
            os.unlink(self.temp)
        except OSError:
            pass
        return False

    def commit(self) -> None:
        """Rename the landed temp onto the snapshot (directory fsynced)."""
        commit_temp(self.temp, self.path)


def _write_in_child(fd: int, payload: Dict, stall_s: float) -> None:
    """The snapshot child's whole life; it never returns."""
    code = 1
    try:
        os.closerange(3, fd)
        os.closerange(fd + 1, _MAX_FD)
        gc.disable()
        os.nice(19)
        if stall_s:
            time.sleep(stall_s)
        dump_snapshot(fd, payload)
        code = 0
    except BaseException:
        # Straight to the descriptor: sys.stderr's lock may have been
        # held by a thread that does not exist in this process.
        os.write(2, f"snapshot writer: {traceback.format_exc()}".encode())
        raise
    finally:
        os._exit(code)


def write_snapshot(path: Union[str, Path], payload: Dict) -> None:
    """Persist one snapshot and wait for it: a :class:`SnapshotWrite`
    plus a blocking reap and the commit."""
    write = SnapshotWrite(path, payload)
    if not write.poll(block=True):
        raise JournalError(f"{path}: snapshot writer failed")
    write.commit()


def read_snapshot(path: Union[str, Path]) -> Optional[Dict]:
    """Load a snapshot; ``None`` when absent.

    Snapshots are written atomically, so an unreadable one is genuine
    corruption, not a crash artifact — :class:`JournalError`.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = pickle.loads(path.read_bytes())
    except Exception as exc:  # pickle raises a zoo of types
        raise JournalError(f"{path}: unreadable snapshot: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
        raise JournalError(
            f"{path}: unsupported snapshot schema "
            f"{payload.get('schema') if isinstance(payload, dict) else None!r}"
        )
    return payload
