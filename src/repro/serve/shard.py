"""Worker shards: the processes that own warm predictor instances.

A shard is one OS process holding the warm :class:`TenantState` for a
subset of tenants.  It runs on the worker core
(:class:`repro.common.workers.Worker`, the same core sweep workers run
on): the parent sends ``(id, op, payload)`` over the pipe, and
:func:`shard_main` builds the handler whose reply comes back
``(id, payload)``.  The asyncio side wraps each shard in a
:class:`ShardHandle` whose reader thread pumps replies back into the
event loop.

:class:`TenantState` is deliberately process-agnostic — the chaos
harness replays spools through it offline, and recovery replays
journals through the very same compute path that served them, so
"replay equals live" is structural rather than aspirational.  That path
(:func:`compute_batch`) runs the config-specialized kernel; the
uninterrupted oracle in :mod:`repro.serve.client` runs the reference
pipeline instead, so "served equals oracle" also pins kernel ==
reference.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import JournalError, ServeError
from repro.common.workers import Worker
from repro.configs import GENERATIONS
from repro.core.state_io import load_state, save_state
from repro.engine import create_predictor
from repro.engine.specialize import kernels_for
from repro.serve import protocol
from repro.serve.journal import (
    JournalWriter,
    TenantPaths,
    journal_header,
    load_journal,
    read_snapshot,
    write_snapshot,
)
from repro.stats import RunStats
from repro.verification.differential import comparable_stats

#: Exit code a shard uses for a chaos-injected crash (os._exit).
CRASH_EXIT_CODE = 71


def config_factory(name: str):
    try:
        factory, _info = GENERATIONS[name]
    except KeyError:
        known = ", ".join(GENERATIONS)
        raise ServeError(f"unknown config {name!r}; known: {known}") from None
    return factory


def compute_batch(predictor, stats: RunStats, branches,
                  needs_restart: bool) -> Tuple[List, bool]:
    """Predict one batch; the single compute path live serving and
    journal replay share.  Returns ``(records, False)`` — the restart
    debt, if any, has been paid to the first branch.

    Drives the config-specialized kernel the ``fast`` engine mode runs
    (:func:`~repro.engine.specialize.kernels_for` compiles it on the
    first batch of a config shape); the oracle,
    :func:`~repro.serve.client.reference_fingerprint`, drives
    ``predict_and_resolve`` instead.
    """
    if needs_restart and branches:
        first = branches[0]
        predictor.restart(first.address, context=first.context,
                          thread=first.thread)
    records = []
    append = records.append
    encode = protocol.encode_record
    kernels_for(predictor).counted_observed(
        predictor, branches, stats, None,
        lambda outcome: append(encode(outcome)),
    )
    return records, False


class TenantState:
    """One tenant's full serving state: predictor, stats, fingerprint
    chain, journal, and the warm/cold + restart-pending flags."""

    def __init__(self, tenant: str, config: str, backend: str,
                 spool_dir: Union[str, Path], checkpoint_every: int = 0):
        protocol.validate_tenant(tenant)
        config_factory(config)  # validate early
        self.tenant = tenant
        self.config = config
        self.backend = backend
        self.checkpoint_every = checkpoint_every
        self.paths = TenantPaths(spool_dir, tenant).ensure()
        self.predictor = None
        self.stats = RunStats()
        self.next_seq = 0
        self.fingerprint = protocol.GENESIS_FINGERPRINT
        self.warm = False
        #: The predictor must be restarted at the next batch's first
        #: branch — set on creation and after every evict/re-warm
        #: (lookahead search state does not survive either).
        self.needs_restart = True
        self.last_response: Optional[Dict] = None
        self.journal: Optional[JournalWriter] = None

    # -- lifecycle -------------------------------------------------------

    def open_fresh(self) -> None:
        self.journal = JournalWriter(
            self.paths.journal,
            journal_header(self.tenant, self.config, self.backend),
        )
        self.predictor = create_predictor(config_factory(self.config)(),
                                          self.backend)
        self.warm = True
        self.needs_restart = True

    @classmethod
    def recover(cls, tenant: str, spool_dir: Union[str, Path],
                checkpoint_every: int = 0) -> "TenantState":
        """Rebuild from the spool: snapshot, then journal replay.

        The replayed state answers the same retries the crashed shard
        would have — ``last_response`` is reconstructed too.
        """
        paths = TenantPaths(spool_dir, tenant)
        if not paths.exists():
            raise JournalError(f"{paths.directory}: nothing to recover")
        header, events = load_journal(paths.journal)
        state = cls(tenant, header["config"], header["backend"],
                    spool_dir, checkpoint_every)
        snapshot = read_snapshot(paths.snapshot)
        if snapshot is not None:
            if snapshot.get("tenant") != tenant:
                raise JournalError(
                    f"{paths.snapshot}: snapshot belongs to "
                    f"{snapshot.get('tenant')!r}, not {tenant!r}"
                )
            state.predictor = snapshot["predictor"]
            state.stats = snapshot["stats"]
            state.next_seq = snapshot["seq"]
            state.fingerprint = snapshot["fingerprint"]
            state.warm = snapshot["predictor"] is not None
            state.needs_restart = snapshot["needs_restart"]
            state.last_response = snapshot["last_response"]
        else:
            state.predictor = create_predictor(
                config_factory(state.config)(), state.backend
            )
            state.warm = True
        base_seq = state.next_seq
        for event in events:
            seq = event["seq"]
            if seq < base_seq or (event["type"] == "batch"
                                  and seq < state.next_seq):
                continue  # compacted into (or at) the snapshot
            state._replay(event)
        # Reopen for appends only now: replay must never double-journal.
        state.journal = JournalWriter(
            paths.journal,
            journal_header(tenant, state.config, state.backend),
        )
        return state

    def _replay(self, event: Dict) -> None:
        kind = event["type"]
        if kind == "batch":
            if event["seq"] != self.next_seq:
                raise JournalError(
                    f"{self.paths.journal}: journal gap — batch seq "
                    f"{event['seq']} but expected {self.next_seq}"
                )
            branches = [protocol.decode_branch(row)
                        for row in event["branches"]]
            self._apply_batch(event["seq"], branches)
        elif kind == "evict":
            self._apply_evict()
        elif kind == "restore":
            self._apply_restore()

    # -- the deterministic core (shared by live + replay) ----------------

    def _apply_batch(self, seq: int, branches) -> Dict:
        records, self.needs_restart = compute_batch(
            self.predictor, self.stats, branches, self.needs_restart
        )
        self.fingerprint = protocol.fold_fingerprint(self.fingerprint,
                                                     records)
        self.next_seq = seq + 1
        self.last_response = {
            "seq": seq,
            "records": records,
            "fingerprint": self.fingerprint,
            "next_seq": self.next_seq,
        }
        return self.last_response

    def _apply_evict(self) -> None:
        # The save is part of the deterministic story: identical state
        # saves identical bytes, so replaying an evict regenerates the
        # very evict-state file the live run wrote.
        save_state(self.predictor, self.paths.evict_state)
        self.predictor = None
        self.warm = False

    def _apply_restore(self) -> None:
        self.predictor = create_predictor(config_factory(self.config)(),
                                          self.backend)
        load_state(self.predictor, self.paths.evict_state)
        self.warm = True
        self.needs_restart = True

    # -- live operations (journal-before-act) ----------------------------

    def predict(self, seq: object, rows: List) -> Dict:
        if not isinstance(seq, int) or seq < 0:
            return {"rejected": protocol.REJECT_BAD_SEQ,
                    "detail": f"sequence must be a non-negative int, got {seq!r}"}
        if seq == self.next_seq - 1 and self.last_response is not None:
            # Idempotent retry of the batch we just answered (or
            # computed without managing to answer, pre-crash).
            return dict(self.last_response, cached=True, restored=False)
        if seq != self.next_seq:
            return {"rejected": protocol.REJECT_BAD_SEQ,
                    "detail": f"expected seq {self.next_seq}, got {seq}"}
        branches = [protocol.decode_branch(row) for row in rows]
        restored = False
        if not self.warm:
            self.journal.append({"type": "restore", "seq": seq})
            self._apply_restore()
            restored = True
        # Journal-before-respond: once this append returns, the batch
        # is owed an answer across any number of crashes.
        self.journal.append({"type": "batch", "seq": seq,
                             "branches": rows})
        response = dict(self._apply_batch(seq, branches),
                        cached=False, restored=restored)
        if self.checkpoint_every and self.next_seq % self.checkpoint_every == 0:
            self.checkpoint()
        return response

    def evict(self) -> bool:
        """Demote to the lossy tier (semi-inclusion: BTB/CTB survive,
        aux predictors re-learn).  No-op when already cold."""
        if not self.warm:
            return False
        self.journal.append({"type": "evict", "seq": self.next_seq})
        self._apply_evict()
        return True

    def checkpoint(self) -> None:
        """Snapshot-then-rotate compaction (crash-safe in that order)."""
        write_snapshot(self.paths.snapshot, {
            "tenant": self.tenant,
            "config": self.config,
            "backend": self.backend,
            "seq": self.next_seq,
            "fingerprint": self.fingerprint,
            "predictor": self.predictor,
            "stats": self.stats,
            "needs_restart": self.needs_restart,
            "last_response": self.last_response,
        })
        self.journal.rotate()

    def stats_payload(self) -> Dict:
        return {
            "stats": comparable_stats(self.stats),
            "next_seq": self.next_seq,
            "fingerprint": self.fingerprint,
            "warm": self.warm,
        }

    def close(self) -> None:
        self.checkpoint()
        if self.journal is not None:
            self.journal.close()
            self.journal = None


# -- the worker process --------------------------------------------------


def shard_main(spool_dir: str, shard_index: int,
               checkpoint_every: int) -> Callable[[str, Dict], Dict]:
    """Worker-core factory of one shard process: returns the handler
    that answers each ``(op, payload)`` against the shard's tenants."""
    tenants: Dict[str, TenantState] = {}
    slow_delay = 0.0

    def get_tenant(payload) -> TenantState:
        name = payload.get("tenant")
        state = tenants.get(name)
        if state is None:
            raise ServeError(f"tenant {name!r} not open on shard "
                             f"{shard_index}")
        return state

    def handle(op: str, payload: Dict) -> Dict:
        nonlocal slow_delay
        try:
            if op == "predict":
                if slow_delay:
                    time.sleep(slow_delay)
                state = get_tenant(payload)
                result = state.predict(payload.get("seq"),
                                       payload.get("branches") or [])
                if "rejected" in result:
                    reply = {"status": "rejected",
                             "code": result["rejected"],
                             "detail": result.get("detail", "")}
                else:
                    reply = {"status": "ok", **result}
            elif op == "open":
                name = protocol.validate_tenant(payload.get("tenant"))
                if name in tenants:
                    state = tenants[name]
                    reply = {"status": "ok", "recovered": False,
                             "next_seq": state.next_seq,
                             "fingerprint": state.fingerprint}
                elif TenantPaths(spool_dir, name).exists():
                    state = TenantState.recover(name, spool_dir,
                                                checkpoint_every)
                    tenants[name] = state
                    reply = {"status": "ok", "recovered": True,
                             "next_seq": state.next_seq,
                             "fingerprint": state.fingerprint}
                else:
                    state = TenantState(name, payload.get("config", "z15"),
                                        payload.get("backend", "object"),
                                        spool_dir, checkpoint_every)
                    state.open_fresh()
                    tenants[name] = state
                    reply = {"status": "ok", "recovered": False,
                             "next_seq": 0,
                             "fingerprint": state.fingerprint}
            elif op == "evict":
                reply = {"status": "ok",
                         "evicted": get_tenant(payload).evict()}
            elif op == "stats":
                reply = {"status": "ok", **get_tenant(payload).stats_payload()}
            elif op == "checkpoint":
                for state in tenants.values():
                    state.checkpoint()
                reply = {"status": "ok", "tenants": len(tenants)}
            elif op == "close":
                state = tenants.pop(payload.get("tenant"), None)
                if state is not None:
                    state.close()
                reply = {"status": "ok", "closed": state is not None}
            elif op == "ping":
                reply = {"status": "ok", "shard": shard_index,
                         "tenants": sorted(tenants),
                         "warm": sorted(n for n, s in tenants.items()
                                        if s.warm)}
            elif op == "chaos":
                reply = _chaos_op(tenants, payload)
                if "slow_delay" in reply:
                    slow_delay = reply.pop("slow_delay")
            elif op == "shutdown":
                for state in tenants.values():
                    state.close()
                reply = {"status": "ok", "tenants": len(tenants)}
            else:
                reply = {"status": "error", "code": "protocol",
                         "detail": f"unknown shard op {op!r}"}
        except ServeError as exc:
            reply = {"status": "rejected",
                     "code": protocol.REJECT_UNKNOWN_TENANT
                     if "not open" in str(exc) else "invalid",
                     "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 — shard must not die silently
            reply = {"status": "error", "code": "internal",
                     "detail": f"{type(exc).__name__}: {exc}"}
        return reply

    return handle


def _chaos_op(tenants: Dict[str, TenantState], payload: Dict) -> Dict:
    """Fault-injection hooks the chaos harness drives (loopback only)."""
    mode = payload.get("mode")
    if mode == "crash":
        os._exit(CRASH_EXIT_CODE)
    if mode == "hang":
        time.sleep(float(payload.get("seconds", 3600.0)))
        return {"status": "ok", "detail": "woke up"}
    if mode == "slow":
        return {"status": "ok", "slow_delay": float(payload.get("delay", 0.05))}
    if mode == "clear":
        return {"status": "ok", "slow_delay": 0.0}
    if mode == "torn":
        state = tenants.get(payload.get("tenant"))
        if state is None or state.journal is None:
            return {"status": "error", "code": "internal",
                    "detail": "tenant not open for torn injection"}
        state.journal.tear_after_bytes = int(payload.get("bytes", 24))
        return {"status": "ok", "detail": "next journal append tears"}
    return {"status": "error", "code": "protocol",
            "detail": f"unknown chaos mode {mode!r}"}


# -- the asyncio-side handle ---------------------------------------------


class ShardUnavailable(ServeError):
    """The owning shard died (or was killed) with requests in flight."""


class ShardHandle:
    """Parent-side wrapper: a worker-core process, a reader thread and
    future-based requests."""

    def __init__(self, index: int, spool_dir: Union[str, Path],
                 checkpoint_every: int, mp_context):
        self.index = index
        self.spool_dir = str(spool_dir)
        self.checkpoint_every = checkpoint_every
        self._worker = Worker(shard_main,
                              (self.spool_dir, index, checkpoint_every),
                              context=mp_context,
                              name=f"repro-shard-{index}")
        self._ids = itertools.count()
        self._pending: Dict[int, asyncio.Future] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.alive = False

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._worker.start()
        self.alive = True
        threading.Thread(target=self._pump, args=(self._worker.conn,),
                         daemon=True,
                         name=f"repro-shard-{self.index}-reader").start()

    def _pump(self, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            self._loop.call_soon_threadsafe(self._resolve, message)
        # The staleness check must run in the loop thread at callback
        # time: checking the conn is current here races with a
        # kill()+start() restart — the old conn is still current while
        # the killed process's EOF arrives, and the queued mark-dead
        # would then execute after start(), condemning the fresh shard.
        self._loop.call_soon_threadsafe(self._mark_dead_if_current, conn)

    def _resolve(self, message) -> None:
        msg_id, reply = message
        future = self._pending.pop(msg_id, None)
        if future is not None and not future.done():
            future.set_result(reply)

    def _mark_dead_if_current(self, conn) -> None:
        if conn is self._worker.conn:
            self._mark_dead()

    def _mark_dead(self) -> None:
        if not self.alive:
            return
        self.alive = False
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ShardUnavailable(f"shard {self.index} died")
                )

    async def request(self, op: str, payload: Dict,
                      timeout: Optional[float] = None) -> Dict:
        """Send one op and await its reply.

        Raises :class:`ShardUnavailable` when the shard is (or goes)
        down, and :class:`asyncio.TimeoutError` on deadline — in which
        case the shard may still complete the work; the idempotent
        retry path makes that safe.
        """
        msg_id = self.post(op, payload)
        # The reply resolves in this loop thread, so it cannot land
        # before its future is registered here.
        future = self._pending[msg_id] = self._loop.create_future()
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(msg_id, None)

    def post(self, op: str, payload: Dict) -> int:
        """Send one op without awaiting a reply (chaos crash/hang: none
        will ever come); returns its message id."""
        if not self.alive:
            raise ShardUnavailable(f"shard {self.index} is down")
        msg_id = next(self._ids)
        try:
            self._worker.send(msg_id, op, payload)
        except (OSError, ValueError) as exc:
            self._mark_dead()
            raise ShardUnavailable(f"shard {self.index} pipe broken") from exc
        return msg_id

    def kill(self) -> None:
        self._worker.kill()
        self._mark_dead()

    async def stop(self, timeout: float = 10.0) -> bool:
        """Graceful drain: checkpoint everything, then exit."""
        try:
            await self.request("shutdown", {}, timeout=timeout)
        except (ShardUnavailable, asyncio.TimeoutError):
            self.kill()
            return False
        self._worker.join(timeout=5)
        self._mark_dead()
        return True
