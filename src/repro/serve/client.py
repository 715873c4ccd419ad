"""Client library and load generator for the prediction service.

:class:`ServeClient` is a thin pipelining wrapper over one connection:
requests get monotonic ids, a reader task routes responses back to
their futures, so any number of coroutines can share the connection.

:class:`LoadGenerator` replays workload-suite traffic through the
service the way the sweep engines replay it locally: each tenant is a
seeded :class:`~repro.workloads.executor.Executor` stream chopped into
batches.  The generator retries every clean rejection (queue-full,
shed, deadline, shard-restart) until the batch is answered, folds the
returned records into its own fingerprint chain, and finally checks its
chain against the server's — the client-side half of the byte-identical
contract.  :func:`reference_fingerprint` computes the same chain
locally with no server at all and through the reference pipeline
rather than the shards' specialized kernel: the uninterrupted oracle
the chaos harness compares against.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ServeError
from repro.serve import protocol
from repro.serve.shard import config_factory
from repro.stats import RunStats
from repro.engine import create_predictor
from repro.workloads import get_workload
from repro.workloads.executor import Executor


class TenantPlan:
    """One tenant's traffic: a seeded workload stream in fixed batches."""

    def __init__(self, tenant: str, workload: str, seed: int,
                 branches: int, batch_size: int, *, config: str = "z15",
                 backend: str = "object",
                 deadline_ms: Optional[int] = None, burst: int = 1,
                 pace: float = 0.0):
        self.tenant = protocol.validate_tenant(tenant)
        self.workload = workload
        self.seed = seed
        self.branches = branches
        self.batch_size = batch_size
        self.config = config
        self.backend = backend
        self.deadline_ms = deadline_ms
        self.burst = max(1, burst)
        #: Seconds between waves — stretches the run so injected
        #: faults land mid-flight (chaos) or to model think time.
        self.pace = pace

    def batches(self) -> List[List]:
        """The encoded wire batches, computed deterministically."""
        executor = Executor(get_workload(self.workload, self.seed),
                            seed=self.seed)
        rows = [protocol.encode_branch(branch)
                for branch in executor.run(max_branches=self.branches)]
        return [rows[i:i + self.batch_size]
                for i in range(0, len(rows), self.batch_size)]

    def to_dict(self) -> Dict:
        return {"tenant": self.tenant, "workload": self.workload,
                "seed": self.seed, "branches": self.branches,
                "batch_size": self.batch_size, "config": self.config,
                "backend": self.backend, "deadline_ms": self.deadline_ms,
                "burst": self.burst, "pace": self.pace}


def reference_batch(predictor, stats: RunStats, branches,
                    needs_restart: bool) -> Tuple[List, bool]:
    """:func:`~repro.serve.shard.compute_batch`'s contract, computed by
    the reference pipeline: ``predict_and_resolve`` branch by branch,
    never a generated kernel."""
    if needs_restart and branches:
        first = branches[0]
        predictor.restart(first.address, context=first.context,
                          thread=first.thread)
    records = []
    record = stats.record
    resolve = predictor.predict_and_resolve
    encode = protocol.encode_record
    for branch in branches:
        outcome = resolve(branch)
        record(outcome)
        records.append(encode(outcome))
    return records, False


def reference_fingerprint(plan: TenantPlan) -> Dict:
    """Serve *plan* locally, uninterrupted — the chaos oracle.

    Runs every batch through :func:`reference_batch`, the readable
    reference pipeline, while the shards serve through the specialized
    kernel (:func:`~repro.serve.shard.compute_batch`).  Identity here
    means the service layer added nothing and lost nothing, and that
    the kernel answered exactly what the reference pipeline would.
    """
    predictor = create_predictor(config_factory(plan.config)(),
                                 plan.backend)
    stats = RunStats()
    fingerprint = protocol.GENESIS_FINGERPRINT
    needs_restart = True
    for rows in plan.batches():
        branches = [protocol.decode_branch(row) for row in rows]
        records, needs_restart = reference_batch(predictor, stats,
                                                 branches, needs_restart)
        fingerprint = protocol.fold_fingerprint(fingerprint, records)
    return {"fingerprint": fingerprint, "branches": stats.branches,
            "mispredicted": stats.mispredicted_branches}


class ServeClient:
    """One pipelined connection to a :class:`PredictorServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._pending: Dict[int, asyncio.Future] = {}
        self._lock = asyncio.Lock()
        self._pump = asyncio.create_task(self._read_loop(),
                                         name="serve-client-reader")

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = protocol.decode_message(line)
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            pending, self._pending = self._pending, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(
                        ServeError("connection closed mid-request")
                    )

    async def call(self, op: str, **payload) -> Dict:
        request_id = next(self._ids)
        message = {"op": op, "id": request_id}
        message.update(payload)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        async with self._lock:
            self._writer.write(protocol.encode_message(message))
            await self._writer.drain()
        return await future

    # Convenience wrappers -----------------------------------------------

    async def open(self, tenant: str, config: str = "z15",
                   backend: str = "object") -> Dict:
        return await self.call("open", tenant=tenant, config=config,
                               backend=backend)

    async def predict(self, tenant: str, seq: int, branches: Sequence,
                      deadline_ms: Optional[int] = None) -> Dict:
        payload = {"tenant": tenant, "seq": seq,
                   "branches": list(branches)}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return await self.call("predict", **payload)

    async def stats(self, tenant: str) -> Dict:
        return await self.call("stats", tenant=tenant)

    async def close_tenant(self, tenant: str) -> Dict:
        return await self.call("close", tenant=tenant)

    async def metrics(self) -> Dict:
        return await self.call("metrics")

    async def chaos(self, **payload) -> Dict:
        return await self.call("chaos", **payload)

    async def aclose(self) -> None:
        self._pump.cancel()
        try:
            await self._pump
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TenantReport:
    """What one tenant's replay observed: retries, rejections, chains."""

    def __init__(self, plan: TenantPlan):
        self.plan = plan
        self.batches = 0
        self.answered = 0
        self.attempts = 0
        self.rejections: Dict[str, int] = {}
        self.retries = 0
        self.restores_seen = 0
        self.cached_hits = 0
        self.client_fingerprint = protocol.GENESIS_FINGERPRINT
        self.server_fingerprint: Optional[str] = None
        self.error: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.error is None and self.answered == self.batches

    @property
    def chains_agree(self) -> bool:
        return self.server_fingerprint == self.client_fingerprint

    def to_dict(self) -> Dict:
        return {
            "tenant": self.plan.tenant,
            "batches": self.batches,
            "answered": self.answered,
            "attempts": self.attempts,
            "rejections": dict(sorted(self.rejections.items())),
            "retries": self.retries,
            "restores_seen": self.restores_seen,
            "cached_hits": self.cached_hits,
            "client_fingerprint": self.client_fingerprint,
            "server_fingerprint": self.server_fingerprint,
            "complete": self.complete,
            "chains_agree": self.chains_agree,
            "error": self.error,
        }


class LoadGenerator:
    """Drive a set of tenant plans against one server."""

    def __init__(self, host: str, port: int, *,
                 max_attempts: int = 200, backoff: float = 0.01):
        self.host = host
        self.port = port
        self.max_attempts = max_attempts
        self.backoff = backoff

    async def run(self, plans: Sequence[TenantPlan]) -> Dict:
        reports = await asyncio.gather(
            *(self._run_tenant(plan) for plan in plans)
        )
        return {
            "tenants": [report.to_dict() for report in reports],
            "complete": all(report.complete for report in reports),
            "chains_agree": all(report.chains_agree for report in reports),
        }

    async def _run_tenant(self, plan: TenantPlan) -> TenantReport:
        report = TenantReport(plan)
        batches = plan.batches()
        report.batches = len(batches)
        client = await ServeClient.connect(self.host, self.port)
        try:
            await self._call_until_ok(client, report, "open",
                                      tenant=plan.tenant,
                                      config=plan.config,
                                      backend=plan.backend)
            responses: Dict[int, Dict] = {}
            for start in range(0, len(batches), plan.burst):
                wave = list(range(start, min(start + plan.burst,
                                             len(batches))))
                results = await asyncio.gather(
                    *(self._predict_until_answered(client, plan, report,
                                                   seq, batches[seq])
                      for seq in wave)
                )
                for seq, response in zip(wave, results):
                    responses[seq] = response
                if plan.pace:
                    await asyncio.sleep(plan.pace)
            # Fold in sequence order (waves may answer out of order).
            for seq in range(len(batches)):
                report.client_fingerprint = protocol.fold_fingerprint(
                    report.client_fingerprint, responses[seq]["records"]
                )
                report.answered += 1
            if batches:
                report.server_fingerprint = \
                    responses[len(batches) - 1]["fingerprint"]
            else:
                report.server_fingerprint = report.client_fingerprint
        except ServeError as exc:
            report.error = str(exc)
        finally:
            await client.aclose()
        return report

    async def _call_until_ok(self, client: ServeClient,
                             report: TenantReport, op: str,
                             **payload) -> Dict:
        for attempt in range(self.max_attempts):
            report.attempts += 1
            response = await client.call(op, **payload)
            status = response.get("status")
            if status == "ok":
                return response
            if status == "retry":
                report.retries += 1
            elif status == "rejected":
                code = response.get("code", "?")
                report.rejections[code] = report.rejections.get(code, 0) + 1
                if code not in (protocol.REJECT_QUEUE_FULL,
                                protocol.REJECT_SHED,
                                protocol.REJECT_DEADLINE,
                                protocol.REJECT_BAD_SEQ,
                                protocol.REJECT_UNKNOWN_TENANT):
                    raise ServeError(
                        f"{op} rejected with {code}: "
                        f"{response.get('detail')}"
                    )
            else:
                raise ServeError(f"{op} failed: {response.get('detail')}")
            await asyncio.sleep(self.backoff * min(attempt + 1, 10))
        raise ServeError(f"{op} still unanswered after "
                         f"{self.max_attempts} attempts")

    async def _predict_until_answered(self, client: ServeClient,
                                      plan: TenantPlan,
                                      report: TenantReport, seq: int,
                                      rows: List) -> Dict:
        for attempt in range(self.max_attempts):
            report.attempts += 1
            response = await client.predict(plan.tenant, seq, rows,
                                            deadline_ms=plan.deadline_ms)
            status = response.get("status")
            if status == "ok":
                if response.get("cached"):
                    report.cached_hits += 1
                if response.get("restored"):
                    report.restores_seen += 1
                return response
            if status == "retry":
                report.retries += 1
            elif status == "rejected":
                code = response.get("code", "?")
                report.rejections[code] = report.rejections.get(code, 0) + 1
                if code == protocol.REJECT_UNKNOWN_TENANT:
                    # The owning shard restarted and its recovery lost a
                    # race with us; re-open (recovers the journal) and
                    # resend.
                    await client.open(plan.tenant, plan.config,
                                      plan.backend)
                elif code not in (protocol.REJECT_QUEUE_FULL,
                                  protocol.REJECT_SHED,
                                  protocol.REJECT_DEADLINE,
                                  protocol.REJECT_BAD_SEQ):
                    raise ServeError(
                        f"predict seq {seq} rejected with {code}: "
                        f"{response.get('detail')}"
                    )
            else:
                raise ServeError(
                    f"predict seq {seq} failed: {response.get('detail')}"
                )
            await asyncio.sleep(self.backoff * min(attempt + 1, 10))
        raise ServeError(
            f"predict seq {seq} still unanswered after "
            f"{self.max_attempts} attempts"
        )
