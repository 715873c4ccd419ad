"""The asyncio front end over real shard processes.

These tests boot a real :class:`PredictorServer` (worker processes via
the spawn-family start method — safe under pytest, whose main module is
importable) and speak the wire protocol through :class:`ServeClient`.
Kept deliberately small: one short stream per test; the heavy fault
matrix lives in the chaos harness.
"""

import asyncio

import pytest

from repro.serve import protocol
from repro.serve.client import (
    LoadGenerator,
    ServeClient,
    TenantPlan,
    reference_fingerprint,
)
from repro.serve.server import PredictorServer, ServeOptions


def _options(**overrides):
    base = dict(shards=1, heartbeat_interval=0.1, heartbeat_timeout=2.0,
                checkpoint_every=2)
    base.update(overrides)
    return ServeOptions(**base)


def _run(coro):
    return asyncio.run(coro)


async def _with_server(tmp_path, options, body):
    server = PredictorServer(tmp_path / "spool", options)
    await server.start()
    try:
        client = await ServeClient.connect("127.0.0.1", server.port)
        try:
            return await body(server, client)
        finally:
            await client.aclose()
    finally:
        await server.stop(reason="test")


def test_served_stream_matches_local_oracle(tmp_path):
    plan = TenantPlan("t0", workload="transactions", seed=9, branches=90,
                      batch_size=30)

    async def body(server, client):
        opened = await client.open("t0")
        assert opened["status"] == "ok"
        fingerprint = protocol.GENESIS_FINGERPRINT
        last = None
        for seq, rows in enumerate(plan.batches()):
            last = await client.predict("t0", seq, rows)
            assert last["status"] == "ok", last
            fingerprint = protocol.fold_fingerprint(fingerprint,
                                                    last["records"])
            assert last["fingerprint"] == fingerprint
        stats = await client.stats("t0")
        assert stats["status"] == "ok"
        metrics = await client.metrics()
        return last, stats, metrics

    last, stats, metrics = _run(_with_server(tmp_path, _options(), body))
    oracle = reference_fingerprint(plan)
    assert last["fingerprint"] == oracle["fingerprint"]
    assert stats["stats"]["branches"] == oracle["branches"]
    assert metrics["metrics"]["answered"] == 3
    assert metrics["metrics"]["accounted"]


def test_unknown_tenant_and_bad_sequence_reject_cleanly(tmp_path):
    plan = TenantPlan("t0", workload="dispatch", seed=2, branches=30,
                      batch_size=30)

    async def body(server, client):
        rows = plan.batches()[0]
        ghost = await client.predict("ghost", 0, rows)
        await client.open("t0")
        await client.predict("t0", 0, rows)
        stale = await client.predict("t0", 7, rows)
        bogus = await client.call("frobnicate")
        return ghost, stale, bogus, server.metrics.accounted()

    ghost, stale, bogus, accounted = _run(
        _with_server(tmp_path, _options(), body))
    assert ghost["status"] == "rejected"
    assert ghost["code"] == protocol.REJECT_UNKNOWN_TENANT
    assert stale["status"] == "rejected"
    assert stale["code"] == protocol.REJECT_BAD_SEQ
    assert bogus["status"] == "error"
    assert accounted


def test_shard_kill_recovers_from_journal_exactly(tmp_path):
    plan = TenantPlan("t0", workload="services", seed=4, branches=120,
                      batch_size=30)

    async def body(server, client):
        await client.open("t0")
        batches = plan.batches()
        fingerprint = protocol.GENESIS_FINGERPRINT
        for seq, rows in enumerate(batches):
            if seq == 2:
                await client.chaos(mode="kill", shard=0)
            for _attempt in range(200):
                response = await client.predict("t0", seq, rows)
                if response["status"] == "ok":
                    break
                assert response["status"] == "retry" or (
                    response["status"] == "rejected"
                    and response["code"] == protocol.REJECT_UNKNOWN_TENANT
                ), response
                if response.get("code") == protocol.REJECT_UNKNOWN_TENANT:
                    await client.open("t0")
                await asyncio.sleep(0.02)
            assert response["status"] == "ok", response
            fingerprint = protocol.fold_fingerprint(fingerprint,
                                                    response["records"])
        return response, fingerprint, server.metrics.restarts

    response, fingerprint, restarts = _run(
        _with_server(tmp_path, _options(), body))
    assert restarts >= 1
    # Chains agree with each other AND with the uninterrupted oracle:
    # the kill cost latency, never a byte of the stream.
    assert response["fingerprint"] == fingerprint
    assert fingerprint == reference_fingerprint(plan)["fingerprint"]


def test_concurrent_opens_spread_over_the_shards(tmp_path):
    """Tenants that open together take distinct shards: placement counts
    the opens still awaiting their shard's reply, a repeated open joins
    its tenant's shard, and a failed open gives its reservation back."""

    async def body(server, client):
        replies = await asyncio.gather(
            client.open("t0"), client.open("t1"), client.open("t2"),
            client.open("t0"), client.open("bad", config="no-such-config"),
        )
        placed = {tenant: session.shard_index
                  for tenant, session in server.sessions.items()}
        return replies, placed, server

    replies, placed, server = _run(
        _with_server(tmp_path, _options(shards=3), body))
    assert [reply["status"] for reply in replies[:4]] == ["ok"] * 4
    assert replies[4]["status"] == "rejected"
    assert sorted(placed) == ["t0", "t1", "t2"]
    assert sorted(placed.values()) == [0, 1, 2]
    assert replies[3]["shard"] == replies[0]["shard"] == placed["t0"]
    assert [reply["existing"] for reply in replies[:4]] == [
        False, False, False, True]
    assert server.metrics.opened == 3
    assert server._opening == {}


def test_queue_depth_backpressure_rejects_then_drains(tmp_path):
    plan = TenantPlan("t0", workload="correlated", seed=6, branches=240,
                      batch_size=20, burst=12)

    async def body(server, client):
        report = await LoadGenerator(
            "127.0.0.1", server.port).run([plan])
        return report, server.metrics.to_dict()

    report, metrics = _run(_with_server(
        tmp_path, _options(queue_depth=2, shed_highwater=4), body))
    assert report["complete"]
    assert report["chains_agree"]
    rejected = metrics["rejected"].get("queue-full", 0) + \
        metrics["rejected"].get("shed", 0)
    assert rejected > 0
    assert metrics["accounted"]


def test_lru_eviction_under_warm_cap_still_serves_exact_chains(tmp_path):
    plans = [
        TenantPlan(f"t{i}", workload="transactions", seed=10 + i,
                   branches=60, batch_size=20)
        for i in range(3)
    ]

    async def body(server, client):
        report = await LoadGenerator(
            "127.0.0.1", server.port).run(plans)
        return report, server.metrics.to_dict()

    report, metrics = _run(_with_server(
        tmp_path, _options(warm_tenants=1), body))
    assert report["complete"]
    assert report["chains_agree"]
    assert metrics["evictions"] > 0
    assert metrics["restores"] > 0
    assert metrics["accounted"]


def test_final_manifest_accounts_for_the_run(tmp_path):
    plan = TenantPlan("t0", workload="patterned", seed=3, branches=60,
                      batch_size=30)

    async def body(server, client):
        await client.open("t0")
        for seq, rows in enumerate(plan.batches()):
            response = await client.predict("t0", seq, rows)
            assert response["status"] == "ok"
        return None

    async def run():
        server = PredictorServer(tmp_path / "spool", _options())
        await server.start()
        client = await ServeClient.connect("127.0.0.1", server.port)
        try:
            await body(server, client)
        finally:
            await client.aclose()
        return await server.stop(reason="test-shutdown")

    manifest = _run(run())
    assert manifest["kind"] == "serve"
    assert manifest["serve"]["reason"] == "test-shutdown"
    assert manifest["serve"]["metrics"]["answered"] == 2
    assert manifest["serve"]["metrics"]["accounted"]
    assert (tmp_path / "spool" / "manifest.json").exists()
    assert (tmp_path / "spool" / "events.jsonl").exists()


def test_stop_returns_when_the_supervisor_swallows_its_cancel(tmp_path):
    """``asyncio.wait_for`` returns a ping reply that lands with the
    supervisor's cancel and swallows the cancel; ``stop()`` must still
    return."""
    async def run():
        server = PredictorServer(tmp_path / "spool", _options())
        await server.start()
        shard = server.shards[0]
        request = shard.request
        blocked = asyncio.Event()
        swallowed = []

        async def ping_swallowing_cancel(op, payload, timeout=None):
            if op != "ping" or swallowed:
                return await request(op, payload, timeout=timeout)
            blocked.set()
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                swallowed.append(True)
            return {"status": "ok"}

        shard.request = ping_swallowing_cancel
        await asyncio.wait_for(blocked.wait(), 10)
        stop = asyncio.create_task(server.stop(reason="test"))
        done, _ = await asyncio.wait({stop}, timeout=5)
        if not done:
            stop.cancel()
            await asyncio.wait({stop})
        return stop in done, server._supervisor.done()

    stopped, supervisor_done = _run(run())
    assert stopped
    assert supervisor_done


def test_cancelling_stop_is_not_absorbed_as_the_supervisors(tmp_path):
    """A cancel aimed at ``stop()`` propagates while it waits for a
    supervisor that ignores its own cancellation."""
    async def run():
        server = PredictorServer(tmp_path / "spool", _options())
        await server.start()
        shard = server.shards[0]
        request = shard.request
        release = asyncio.Event()
        blocked = asyncio.Event()

        async def ping_ignoring_cancel(op, payload, timeout=None):
            if op != "ping" or release.is_set():
                return await request(op, payload, timeout=timeout)
            blocked.set()
            while not release.is_set():
                try:
                    await release.wait()
                except asyncio.CancelledError:
                    pass
            return {"status": "ok"}

        shard.request = ping_ignoring_cancel
        await asyncio.wait_for(blocked.wait(), 10)
        stop = asyncio.create_task(server.stop(reason="test"))
        await asyncio.sleep(0.2)  # stop() is now waiting on the supervisor
        stop.cancel()
        await asyncio.wait({stop}, timeout=5)
        cancelled = stop.cancelled()
        release.set()
        if cancelled:
            await server.stop(reason="test")
        return cancelled

    assert _run(run())
