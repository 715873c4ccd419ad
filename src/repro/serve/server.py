"""The asyncio front end: sessions, backpressure, LRU, supervision.

One :class:`PredictorServer` multiplexes any number of client
connections over a small pool of shard processes.  The design borrows
the paper's recovery posture wholesale: every structure the service
keeps is either *rebuildable* (warm predictor state — the evict tier)
or *journaled* (accepted work — the crash-recovery tier), so the answer
to any failure is the same as the z15's answer to a parity error —
invalidate, restore, carry on — never a wrong answer.

Admission control happens in arrival order on the connection's read
loop: per-tenant outstanding batches are capped (``queue_depth``), and
above a global high-water mark the heaviest tenants are shed first.
Every accepted request produces exactly one response — ``ok``,
``rejected`` or ``retry`` — and the metrics ledger accounts for each,
which the chaos harness audits to zero.

A supervisor task heartbeats every shard; a dead or hung shard is
killed and respawned, and its tenants are recovered from their journals
before new work is accepted for them.  In-flight requests on the dead
shard fail over to a ``retry`` response; the journal-before-respond
discipline plus idempotent retry-by-sequence makes the resend exact.
"""

from __future__ import annotations

import asyncio
import io
import json
import multiprocessing
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common.atomic import append_line, atomic_write_json, \
    discard_stale_temps
from repro.common.errors import ServeError
from repro.obs.manifest import build_manifest
from repro.serve import protocol
from repro.serve.shard import ShardHandle, ShardUnavailable

EVENTS_SCHEMA = "repro-serve-events/v1"


class ServeOptions:
    """Tunables for one server instance."""

    def __init__(self, *, shards: int = 2, queue_depth: int = 8,
                 warm_tenants: int = 64, shed_highwater: int = 256,
                 heartbeat_interval: float = 0.25,
                 heartbeat_timeout: float = 3.0,
                 request_timeout: float = 60.0,
                 checkpoint_every: int = 4,
                 default_deadline_ms: Optional[int] = None):
        if shards < 1:
            raise ServeError(f"need at least one shard, got {shards}")
        if queue_depth < 1:
            raise ServeError(f"queue depth must be positive, got {queue_depth}")
        self.shards = shards
        self.queue_depth = queue_depth
        self.warm_tenants = warm_tenants
        self.shed_highwater = shed_highwater
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.request_timeout = request_timeout
        self.checkpoint_every = checkpoint_every
        self.default_deadline_ms = default_deadline_ms

    def to_dict(self) -> Dict:
        return {
            "shards": self.shards,
            "queue_depth": self.queue_depth,
            "warm_tenants": self.warm_tenants,
            "shed_highwater": self.shed_highwater,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
            "request_timeout": self.request_timeout,
            "checkpoint_every": self.checkpoint_every,
            "default_deadline_ms": self.default_deadline_ms,
        }


class ServerMetrics:
    """The accounting ledger: every request lands in exactly one bucket."""

    def __init__(self):
        self.received = 0
        self.answered = 0
        self.rejected: Dict[str, int] = {}
        self.retries_signalled = 0
        self.cancelled = 0
        self.evictions = 0
        self.restores = 0
        self.restarts = 0
        self.recoveries = 0
        self.opened = 0
        self.closed = 0
        self.per_tenant: Dict[str, Dict[str, int]] = {}

    def tenant(self, name: str) -> Dict[str, int]:
        bucket = self.per_tenant.get(name)
        if bucket is None:
            bucket = self.per_tenant[name] = {
                "received": 0, "answered": 0, "rejected": 0, "retries": 0,
                "cancelled": 0, "evictions": 0, "restores": 0,
            }
        return bucket

    def reject(self, tenant: Optional[str], code: str) -> None:
        self.rejected[code] = self.rejected.get(code, 0) + 1
        if tenant:
            self.tenant(tenant)["rejected"] += 1

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def accounted(self) -> bool:
        """Does every received request have exactly one outcome?"""
        return self.received == (self.answered + self.rejected_total +
                                 self.retries_signalled + self.cancelled)

    def to_dict(self) -> Dict:
        return {
            "received": self.received,
            "answered": self.answered,
            "rejected": dict(sorted(self.rejected.items())),
            "rejected_total": self.rejected_total,
            "retries_signalled": self.retries_signalled,
            "cancelled": self.cancelled,
            "evictions": self.evictions,
            "restores": self.restores,
            "restarts": self.restarts,
            "recoveries": self.recoveries,
            "opened": self.opened,
            "closed": self.closed,
            "accounted": self.accounted(),
            "per_tenant": {name: dict(bucket) for name, bucket
                           in sorted(self.per_tenant.items())},
        }


class TenantSession:
    """Server-side view of one tenant: placement, load, warmth, recency."""

    def __init__(self, tenant: str, config: str, backend: str,
                 shard_index: int):
        self.tenant = tenant
        self.config = config
        self.backend = backend
        self.shard_index = shard_index
        self.outstanding = 0
        self.warm = True
        self.last_used = 0
        self.open = True


class PredictorServer:
    """The multi-tenant prediction service."""

    def __init__(self, spool_dir: Union[str, Path],
                 options: Optional[ServeOptions] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.spool_dir = Path(spool_dir)
        self.options = options or ServeOptions()
        self.host = host
        self.port = port
        self.metrics = ServerMetrics()
        self.sessions: Dict[str, TenantSession] = {}
        self.shards: List[ShardHandle] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._events: Optional[io.TextIOWrapper] = None
        self._tick = 0
        self._started = None
        self._restarting: Dict[int, asyncio.Event] = {}
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        discard_stale_temps(self.spool_dir)
        self._started = time.monotonic()
        self._events = open(self.spool_dir / "events.jsonl", "a",
                            encoding="utf-8")
        self._event("boot", schema=EVENTS_SCHEMA,
                    options=self.options.to_dict())
        # fork would inherit the event loop's locks mid-state from the
        # reader threads; forkserver children start from a clean server.
        ctx = multiprocessing.get_context("forkserver")
        self.shards = [
            ShardHandle(index, self.spool_dir, self.options.checkpoint_every,
                        ctx)
            for index in range(self.options.shards)
        ]
        for shard in self.shards:
            shard.start(loop)
        # Cold boot must not read as a hang: wait out each shard's first
        # ping under the generous request timeout before the supervisor
        # starts judging liveness by heartbeat_timeout.
        await asyncio.gather(*(self._await_ready(shard)
                               for shard in self.shards))
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._supervisor = asyncio.create_task(self._supervise(),
                                               name="serve-supervisor")

    async def stop(self, reason: str = "shutdown") -> Dict:
        """Drain, checkpoint, stop shards, write the final manifest."""
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            # asyncio.wait absorbs the supervisor's own cancellation but
            # not one aimed at stop(); a cancel the supervisor swallowed
            # (a ping reply landing with it) ends its loop on _stopping.
            await asyncio.wait({self._supervisor})
            if not self._supervisor.cancelled():
                self._supervisor.result()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for shard in self.shards:
            await shard.stop()
        manifest = build_manifest(
            "serve",
            wall_seconds=(time.monotonic() - self._started
                          if self._started else None),
            extra={
                "serve": {
                    "reason": reason,
                    "options": self.options.to_dict(),
                    "metrics": self.metrics.to_dict(),
                    "tenants": sorted(self.sessions),
                },
            },
        )
        atomic_write_json(self.spool_dir / "manifest.json", manifest,
                          indent=2, trailing_newline=True)
        self._event("final", reason=reason, metrics=self.metrics.to_dict())
        if self._events is not None:
            self._events.close()
            self._events = None
        return manifest

    def _event(self, kind: str, **fields) -> None:
        if self._events is None:
            return
        row = {"type": kind}
        row.update(fields)
        append_line(self._events, json.dumps(row, sort_keys=True),
                    fsync=True)

    # -- supervision -----------------------------------------------------

    async def _await_ready(self, shard: ShardHandle) -> None:
        try:
            await shard.request("ping", {},
                                timeout=self.options.request_timeout)
        except (ShardUnavailable, asyncio.TimeoutError):
            pass  # genuinely broken: the supervisor will restart it

    async def _supervise(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.options.heartbeat_interval)
            for shard in self.shards:
                if not shard.alive:
                    await self._restart_shard(shard, "died")
                    continue
                try:
                    await shard.request(
                        "ping", {}, timeout=self.options.heartbeat_timeout
                    )
                except asyncio.TimeoutError:
                    await self._restart_shard(shard, "hung")
                except ShardUnavailable:
                    await self._restart_shard(shard, "died")

    async def _restart_shard(self, shard: ShardHandle, why: str) -> None:
        if shard.index in self._restarting:
            return
        gate = self._restarting[shard.index] = asyncio.Event()
        try:
            self.metrics.restarts += 1
            self._event("restart", shard=shard.index, why=why)
            shard.kill()
            shard.start(asyncio.get_running_loop())
            await self._await_ready(shard)
            for session in self.sessions.values():
                if session.shard_index != shard.index or not session.open:
                    continue
                try:
                    reply = await shard.request(
                        "open",
                        {"tenant": session.tenant,
                         "config": session.config,
                         "backend": session.backend},
                        timeout=self.options.request_timeout,
                    )
                except (ShardUnavailable, asyncio.TimeoutError):
                    continue  # next heartbeat tries again
                if reply.get("status") == "ok":
                    self.metrics.recoveries += 1
                    session.warm = True
                    self._event("recover", shard=shard.index,
                                tenant=session.tenant,
                                next_seq=reply.get("next_seq"))
        finally:
            self._restarting.pop(shard.index, None)
            gate.set()

    # -- placement + LRU -------------------------------------------------

    def _place(self) -> int:
        loads = [0] * len(self.shards)
        for session in self.sessions.values():
            if session.open:
                loads[session.shard_index] += 1
        return loads.index(min(loads))

    def _touch(self, session: TenantSession) -> None:
        self._tick += 1
        session.last_used = self._tick

    async def _enforce_warm_cap(self) -> None:
        """BTB2-style demotion: least-recently-used warm tenants spill
        to the lossy evict tier until the warm set fits."""
        while True:
            warm = [s for s in self.sessions.values() if s.warm and s.open]
            if len(warm) <= self.options.warm_tenants:
                return
            idle = [s for s in warm if s.outstanding == 0]
            if not idle:
                return  # everyone is busy; next admission retries
            victim = min(idle, key=lambda s: s.last_used)
            shard = self.shards[victim.shard_index]
            try:
                reply = await shard.request(
                    "evict", {"tenant": victim.tenant},
                    timeout=self.options.request_timeout,
                )
            except (ShardUnavailable, asyncio.TimeoutError):
                return
            victim.warm = False
            if reply.get("evicted"):
                self.metrics.evictions += 1
                self.metrics.tenant(victim.tenant)["evictions"] += 1
                self._event("evict", tenant=victim.tenant,
                            shard=victim.shard_index)

    # -- the client loop -------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                try:
                    message = protocol.decode_message(line)
                except ServeError as exc:
                    await self._send(writer, lock, protocol.error(None,
                                                                  str(exc)))
                    continue
                task = asyncio.create_task(
                    self._serve_one(message, writer, lock)
                )
                task.is_predict = message.get("op") == "predict"
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
                    # Only admitted predicts sit in the ledger's
                    # "received" column; other ops aren't counted.
                    if task.is_predict:
                        self.metrics.cancelled += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer, lock, message: Dict) -> None:
        async with lock:
            writer.write(protocol.encode_message(message))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, message: Dict, writer, lock) -> None:
        request_id = message.get("id")
        op = message.get("op")
        try:
            if op == "predict":
                response = await self._op_predict(message)
            elif op == "open":
                response = await self._op_open(message)
            elif op == "stats":
                response = await self._forward_session_op(message, "stats")
            elif op == "close":
                response = await self._op_close(message)
            elif op == "metrics":
                response = protocol.ok(request_id,
                                       metrics=self.metrics.to_dict())
            elif op == "hello":
                from repro.configs import GENERATIONS
                response = protocol.ok(
                    request_id, schema=protocol.PROTOCOL_SCHEMA,
                    configs=list(GENERATIONS), shards=len(self.shards),
                )
            elif op == "chaos":
                response = await self._op_chaos(message)
            else:
                response = protocol.error(request_id,
                                          f"unknown op {op!r}")
        except asyncio.CancelledError:
            raise
        except ServeError as exc:
            response = protocol.error(request_id, str(exc))
        except Exception as exc:  # noqa: BLE001 — a bug must not drop a reply
            response = protocol.error(
                request_id, f"internal: {type(exc).__name__}: {exc}"
            )
        response["id"] = request_id
        await self._send(writer, lock, response)

    # -- ops -------------------------------------------------------------

    async def _op_open(self, message: Dict) -> Dict:
        request_id = message.get("id")
        tenant = protocol.validate_tenant(message.get("tenant"))
        session = self.sessions.get(tenant)
        if session is not None and session.open:
            return protocol.ok(request_id, existing=True,
                               shard=session.shard_index)
        shard_index = self._place()
        if shard_index in self._restarting:
            return protocol.retry(request_id, protocol.RETRY_SHARD_RESTART,
                                  f"shard {shard_index} restarting")
        try:
            reply = await self.shards[shard_index].request(
                "open",
                {"tenant": tenant,
                 "config": message.get("config", "z15"),
                 "backend": message.get("backend", "object")},
                timeout=self.options.request_timeout,
            )
        except (ShardUnavailable, asyncio.TimeoutError):
            # The shard died (or was culled) with our open in flight;
            # the client's resend lands after the supervisor's restart.
            return protocol.retry(request_id, protocol.RETRY_SHARD_RESTART,
                                  f"shard {shard_index} unavailable")
        if reply.get("status") != "ok":
            return dict(reply, id=request_id)
        session = TenantSession(tenant, message.get("config", "z15"),
                                message.get("backend", "object"),
                                shard_index)
        self.sessions[tenant] = session
        self._touch(session)
        self.metrics.opened += 1
        if reply.get("recovered"):
            self.metrics.recoveries += 1
        self._event("open", tenant=tenant, shard=shard_index,
                    recovered=bool(reply.get("recovered")))
        await self._enforce_warm_cap()
        return protocol.ok(request_id, existing=False, shard=shard_index,
                           recovered=bool(reply.get("recovered")),
                           next_seq=reply.get("next_seq"),
                           fingerprint=reply.get("fingerprint"))

    async def _op_predict(self, message: Dict) -> Dict:
        request_id = message.get("id")
        tenant = message.get("tenant")
        self.metrics.received += 1
        session = self.sessions.get(tenant)
        if session is None or not session.open:
            self.metrics.reject(tenant if isinstance(tenant, str) else None,
                                protocol.REJECT_UNKNOWN_TENANT)
            return protocol.rejected(request_id,
                                     protocol.REJECT_UNKNOWN_TENANT,
                                     f"tenant {tenant!r} has no session")
        bucket = self.metrics.tenant(tenant)
        bucket["received"] += 1
        if session.shard_index in self._restarting:
            self.metrics.retries_signalled += 1
            bucket["retries"] += 1
            return protocol.retry(
                request_id, protocol.RETRY_SHARD_RESTART,
                f"shard {session.shard_index} restarting"
            )
        # Admission control, in arrival order.
        if session.outstanding >= self.options.queue_depth:
            self.metrics.reject(tenant, protocol.REJECT_QUEUE_FULL)
            return protocol.rejected(
                request_id, protocol.REJECT_QUEUE_FULL,
                f"{session.outstanding} batches already queued"
            )
        total_outstanding = sum(s.outstanding
                                for s in self.sessions.values())
        if (total_outstanding >= self.options.shed_highwater
                and session.outstanding > 0):
            # Overload: shed from tenants that already have work queued;
            # a tenant's *first* outstanding batch is never shed.
            self.metrics.reject(tenant, protocol.REJECT_SHED)
            return protocol.rejected(
                request_id, protocol.REJECT_SHED,
                f"server over high-water mark ({total_outstanding})"
            )
        deadline_ms = message.get("deadline_ms",
                                  self.options.default_deadline_ms)
        timeout = self.options.request_timeout
        if deadline_ms is not None:
            timeout = min(timeout, deadline_ms / 1000.0)
        session.outstanding += 1
        self._touch(session)
        shard = self.shards[session.shard_index]
        try:
            reply = await shard.request(
                "predict",
                {"tenant": tenant, "seq": message.get("seq"),
                 "branches": message.get("branches") or []},
                timeout=timeout,
            )
        except asyncio.TimeoutError:
            # The shard may still finish the batch; the client's resend
            # of the same seq hits the idempotent cache and stays exact.
            self.metrics.reject(tenant, protocol.REJECT_DEADLINE)
            return protocol.rejected(
                request_id, protocol.REJECT_DEADLINE,
                f"deadline of {deadline_ms} ms exceeded"
            )
        except ShardUnavailable:
            self.metrics.retries_signalled += 1
            bucket["retries"] += 1
            return protocol.retry(
                request_id, protocol.RETRY_SHARD_RESTART,
                f"shard {session.shard_index} restarting"
            )
        finally:
            session.outstanding -= 1
        if reply.get("status") != "ok":
            self.metrics.reject(tenant, reply.get("code", "invalid"))
            return dict(reply, id=request_id)
        self.metrics.answered += 1
        bucket["answered"] += 1
        if reply.get("restored"):
            session.warm = True
            self.metrics.restores += 1
            bucket["restores"] += 1
            self._event("restore", tenant=tenant,
                        shard=session.shard_index)
            await self._enforce_warm_cap()
        return dict(reply, id=request_id)

    async def _forward_session_op(self, message: Dict, op: str) -> Dict:
        request_id = message.get("id")
        tenant = message.get("tenant")
        session = self.sessions.get(tenant)
        if session is None or not session.open:
            return protocol.rejected(request_id,
                                     protocol.REJECT_UNKNOWN_TENANT,
                                     f"tenant {tenant!r} has no session")
        try:
            reply = await self.shards[session.shard_index].request(
                op, {"tenant": tenant},
                timeout=self.options.request_timeout,
            )
        except (ShardUnavailable, asyncio.TimeoutError):
            return protocol.retry(request_id, protocol.RETRY_SHARD_RESTART,
                                  f"shard {session.shard_index} unavailable")
        return dict(reply, id=request_id)

    async def _op_close(self, message: Dict) -> Dict:
        response = await self._forward_session_op(message, "close")
        session = self.sessions.get(message.get("tenant"))
        if session is not None and response.get("status") == "ok":
            session.open = False
            self.metrics.closed += 1
            self._event("close", tenant=session.tenant)
        return response

    async def _op_chaos(self, message: Dict) -> Dict:
        """Fault injection (the chaos harness's admin surface)."""
        request_id = message.get("id")
        shard_index = message.get("shard", 0)
        if not isinstance(shard_index, int) or \
                not 0 <= shard_index < len(self.shards):
            return protocol.error(request_id,
                                  f"no shard {shard_index!r}")
        shard = self.shards[shard_index]
        mode = message.get("mode")
        payload = {key: value for key, value in message.items()
                   if key not in ("id", "op", "shard")}
        if mode == "kill":
            shard.kill()  # SIGKILL from outside: no goodbye at all
            return protocol.ok(request_id, injected="kill")
        if mode in ("crash", "hang"):
            try:
                shard.post("chaos", payload)
            except ShardUnavailable:
                pass
            return protocol.ok(request_id, injected=mode)
        try:
            reply = await shard.request("chaos", payload,
                                        timeout=self.options.request_timeout)
        except (ShardUnavailable, asyncio.TimeoutError):
            return protocol.retry(request_id, protocol.RETRY_SHARD_RESTART,
                                  "shard unavailable for chaos op")
        return dict(reply, id=request_id)
