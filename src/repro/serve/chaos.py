"""Seeded chaos scenarios against a live in-process server.

Each scenario boots a real :class:`PredictorServer` (real shard
processes, real spool), replays workload-suite traffic through the
:class:`LoadGenerator`, and injects one class of fault while the run is
in flight.  Afterwards it audits three invariants:

* **Liveness** — every batch the loadgen offered was eventually
  answered; every individual request got exactly one of
  ok/rejected/retry, and the server's ledger balances to zero.
* **Exactness** — the client-folded fingerprint chain equals the
  server's chain, and (whenever eviction was disabled) equals the
  chain of a local, uninterrupted run of the same plan.  Identical
  chains ⇔ byte-identical prediction streams.
* **Accounting** — the events journal carries one line per evict,
  restore and restart, matching the ledger's counters; injected faults
  show up as observed restarts.

The ``churn`` scenario intentionally enables eviction, where the
uninterrupted oracle no longer applies (the evict tier is lossy by
contract); there the oracle is *offline journal replay* — recovering
every tenant from the spool after shutdown must land on the exact chain
the client saw.
"""

from __future__ import annotations

import asyncio
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.common.atomic import TMP_MARKER
from repro.common.errors import ServeError
from repro.common.jsonl import iter_jsonl
from repro.serve.client import (
    LoadGenerator,
    ServeClient,
    TenantPlan,
    reference_fingerprint,
)
from repro.serve.server import PredictorServer, ServeOptions
from repro.serve.shard import TenantState

CHAOS_SCHEMA = "repro-chaos/v1"

SCENARIOS = ("baseline", "kill", "hang", "slow", "torn", "flood", "churn",
             "snapshot-kill")

#: How long the armed snapshot child of ``snapshot-kill`` sleeps before
#: it writes: the kill lands well inside this window.
_SNAPSHOT_STALL_S = 1.5

#: Workloads cycled across tenants (diverse branch behaviour).
_WORKLOADS = ("transactions", "dispatch", "services", "correlated")


def _plans(name: str, seed: int, tenants: int, branches: int,
           batch: int) -> List[TenantPlan]:
    deadline = 40 if name == "slow" else None
    burst = 8 if name == "flood" else 1
    # Pace the fault scenarios so the injection window is real: an
    # unpaced run finishes in milliseconds and the fault lands on a
    # drained server.
    pace = {"kill": 0.03, "hang": 0.05, "torn": 0.03,
            "snapshot-kill": 0.05}.get(name, 0.0)
    return [
        TenantPlan(
            f"tenant-{index}",
            workload=_WORKLOADS[index % len(_WORKLOADS)],
            seed=seed + index,
            branches=branches,
            batch_size=batch,
            deadline_ms=deadline if index % 2 == 0 else None,
            burst=burst,
            pace=pace,
        )
        for index in range(tenants)
    ]


def _options(name: str) -> ServeOptions:
    base = dict(shards=2, queue_depth=8, warm_tenants=64,
                shed_highwater=256, heartbeat_interval=0.15,
                heartbeat_timeout=2.0, checkpoint_every=3)
    if name == "flood":
        base.update(queue_depth=2, shed_highwater=6)
    elif name == "churn":
        base.update(warm_tenants=2)
    elif name == "slow":
        base.update(heartbeat_timeout=5.0)
    elif name == "hang":
        base.update(heartbeat_timeout=0.6)
    return ServeOptions(**base)


async def _wait_for_answers(server: PredictorServer, count: int,
                            done: asyncio.Event, limit: float = 30.0) -> bool:
    """Block until the server answered *count* predicts (or load ended)."""
    elapsed = 0.0
    while server.metrics.answered < count and not done.is_set():
        await asyncio.sleep(0.02)
        elapsed += 0.02
        if elapsed > limit:
            return False
    return not done.is_set()


async def _drive(name: str, server: PredictorServer, rng: random.Random,
                 plans: Sequence[TenantPlan],
                 done: asyncio.Event) -> Dict:
    """Inject this scenario's faults while the loadgen runs."""
    injected = {"kills": 0, "hangs": 0, "torn": 0, "slowed": 0,
                "snapshot_kills": 0}
    if name in ("baseline", "flood", "churn"):
        return injected
    admin = await ServeClient.connect("127.0.0.1", server.port)
    try:
        if name == "kill":
            for threshold in (3, 9):
                if not await _wait_for_answers(server, threshold, done):
                    break
                shard = rng.randrange(len(server.shards))
                await admin.chaos(mode="kill", shard=shard)
                injected["kills"] += 1
                # Hold until the supervisor replaces the corpse before
                # injecting again — a second kill aimed at a shard that
                # is still down would be a no-op, and the audit demands
                # one observed restart per injected kill.
                waited = 0.0
                while (server.metrics.restarts < injected["kills"]
                       and waited < 15.0):
                    await asyncio.sleep(0.05)
                    waited += 0.05
        elif name == "hang":
            if await _wait_for_answers(server, 3, done):
                shard = rng.randrange(len(server.shards))
                await admin.chaos(mode="hang", shard=shard)
                injected["hangs"] += 1
                # Hold until the supervisor notices and restarts —
                # the detection is the thing under test, and it must
                # be counted even if the traffic drained meanwhile.
                waited = 0.0
                while server.metrics.restarts == 0 and waited < 15.0:
                    await asyncio.sleep(0.05)
                    waited += 0.05
        elif name == "slow":
            if await _wait_for_answers(server, 2, done):
                for shard in range(len(server.shards)):
                    await admin.chaos(mode="slow", shard=shard,
                                      delay=0.08)
                injected["slowed"] = len(server.shards)
                await asyncio.sleep(rng.uniform(0.4, 0.7))
                for shard in range(len(server.shards)):
                    try:
                        await admin.chaos(mode="clear", shard=shard)
                    except ServeError:
                        pass
        elif name == "snapshot-kill":
            if await _wait_for_answers(server, 1, done):
                plan = plans[rng.randrange(len(plans))]
                session = server.sessions.get(plan.tenant)
                if session is not None and await _kill_during_snapshot(
                        server, admin, plan.tenant, session.shard_index):
                    injected["kills"] += 1
                    injected["snapshot_kills"] += 1
        elif name == "torn":
            if await _wait_for_answers(server, 3, done):
                plan = plans[rng.randrange(len(plans))]
                session = server.sessions.get(plan.tenant)
                if session is not None:
                    await admin.chaos(
                        mode="torn", shard=session.shard_index,
                        tenant=plan.tenant,
                        bytes=rng.randrange(8, 48),
                    )
                    injected["torn"] += 1
    finally:
        await admin.aclose()
    return injected


async def _kill_during_snapshot(server: PredictorServer, admin: ServeClient,
                               tenant: str, shard: int,
                               limit: float = 15.0) -> bool:
    """Stall *tenant*'s next snapshot child, wait until it is in flight,
    then SIGKILL its shard and hold until the supervisor restarted it.
    False when no snapshot started within *limit* seconds."""
    await admin.chaos(mode="stall-snapshot", shard=shard, tenant=tenant,
                      seconds=_SNAPSHOT_STALL_S)
    waited = 0.0
    while waited < limit:
        reply = await admin.stats(tenant)
        if reply.get("snapshots", {}).get("in_flight"):
            break
        await asyncio.sleep(0.01)
        waited += 0.01
    else:
        return False
    restarts = server.metrics.restarts
    await admin.chaos(mode="kill", shard=shard)
    while server.metrics.restarts == restarts and waited < limit:
        await asyncio.sleep(0.05)
        waited += 0.05
    return True


def _stranded_temps(spool_dir: Path) -> List[str]:
    return sorted(path.name for path in spool_dir.glob("tenants/*/*")
                  if TMP_MARKER in path.name)


def _audit_events(spool_dir: Path) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    path = spool_dir / "events.jsonl"
    if path.exists():
        for _line, _offset, row in iter_jsonl(path):
            if isinstance(row, dict):
                kind = row.get("type", "?")
                counts[kind] = counts.get(kind, 0) + 1
    return counts


def _check(checks: List[Dict], name: str, passed: bool,
           detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


async def run_scenario(name: str, seed: int,
                       spool_dir: Path, *, tenants: int = 3,
                       branches: int = 240, batch: int = 40) -> Dict:
    """Run one scenario end to end; returns its report dict."""
    if name not in SCENARIOS:
        raise ServeError(f"unknown scenario {name!r}; known: {SCENARIOS}")
    if name == "churn":
        tenants = max(tenants, 4)
    rng = random.Random(f"{name}/{seed}")
    plans = _plans(name, seed, tenants, branches, batch)
    spool = Path(spool_dir) / name
    server = PredictorServer(spool, _options(name))
    await server.start()
    done = asyncio.Event()
    driver = asyncio.create_task(_drive(name, server, rng, plans, done))
    try:
        load_report = await LoadGenerator(
            "127.0.0.1", server.port
        ).run(plans)
    finally:
        done.set()
        injected = await driver
    metrics = server.metrics.to_dict()
    await server.stop(reason=f"chaos:{name}")

    checks: List[Dict] = []
    # (a) liveness: everything offered was answered, ledger balances.
    _check(checks, "all-batches-answered", load_report["complete"],
           json.dumps({t["tenant"]: [t["answered"], t["batches"]]
                       for t in load_report["tenants"]}))
    _check(checks, "ledger-balances", metrics["accounted"],
           f"received={metrics['received']} answered={metrics['answered']} "
           f"rejected={metrics['rejected_total']} "
           f"retries={metrics['retries_signalled']} "
           f"cancelled={metrics['cancelled']}")
    # (b) exactness: client chain == server chain, and == the
    # uninterrupted local oracle wherever eviction was off.
    _check(checks, "client-server-chains-agree",
           load_report["chains_agree"])
    if name != "churn":
        mismatches = []
        for plan, tenant_report in zip(plans, load_report["tenants"]):
            oracle = reference_fingerprint(plan)
            if oracle["fingerprint"] != tenant_report["client_fingerprint"]:
                mismatches.append(plan.tenant)
        _check(checks, "stream-identical-to-uninterrupted",
               not mismatches, ",".join(mismatches))
    else:
        # Eviction is lossy on purpose; the exactness oracle is offline
        # journal replay instead.
        mismatches = []
        for plan, tenant_report in zip(plans, load_report["tenants"]):
            replayed = TenantState.recover(plan.tenant, spool)
            if replayed.fingerprint != tenant_report["client_fingerprint"]:
                mismatches.append(plan.tenant)
            replayed.close()
        _check(checks, "journal-replay-matches-served-stream",
               not mismatches, ",".join(mismatches))
        _check(checks, "evictions-happened", metrics["evictions"] > 0,
               f"evictions={metrics['evictions']}")
        _check(checks, "restores-happened", metrics["restores"] > 0,
               f"restores={metrics['restores']}")
    # (c) accounting: the events journal matches the ledger and the
    # injected faults were observed.
    events = _audit_events(spool)
    _check(checks, "evictions-journaled",
           events.get("evict", 0) == metrics["evictions"],
           f"events={events.get('evict', 0)} "
           f"ledger={metrics['evictions']}")
    _check(checks, "restores-journaled",
           events.get("restore", 0) == metrics["restores"],
           f"events={events.get('restore', 0)} "
           f"ledger={metrics['restores']}")
    _check(checks, "restarts-journaled",
           events.get("restart", 0) == metrics["restarts"],
           f"events={events.get('restart', 0)} "
           f"ledger={metrics['restarts']}")
    faults = injected["kills"] + injected["hangs"] + injected["torn"]
    if faults:
        _check(checks, "injected-faults-caused-restarts",
               metrics["restarts"] >= faults,
               f"injected={faults} restarts={metrics['restarts']}")
    if name == "snapshot-kill":
        _check(checks, "kill-landed-during-snapshot",
               injected["snapshot_kills"] > 0,
               f"snapshot_kills={injected['snapshot_kills']}")
        # Recovery deleted the killed child's temp, and nothing the
        # child did afterwards could recreate it.
        stranded = _stranded_temps(spool)
        _check(checks, "no-stranded-snapshot-temps", not stranded,
               ",".join(stranded))
    if name == "flood":
        flood_rejects = metrics["rejected"].get("queue-full", 0) + \
            metrics["rejected"].get("shed", 0)
        _check(checks, "backpressure-engaged", flood_rejects > 0,
               f"queue-full+shed={flood_rejects}")
    if name == "slow":
        _check(checks, "deadlines-enforced",
               metrics["rejected"].get("deadline", 0) > 0,
               f"deadline={metrics['rejected'].get('deadline', 0)}")

    return {
        "scenario": name,
        "seed": seed,
        "injected": injected,
        "passed": all(check["passed"] for check in checks),
        "checks": checks,
        "metrics": metrics,
        "loadgen": load_report,
    }


def run_chaos(scenarios: Sequence[str], seed: int,
              spool_dir, *, tenants: int = 3, branches: int = 240,
              batch: int = 40) -> Dict:
    """Run *scenarios* in order; returns the aggregate report."""
    for name in scenarios:
        if name not in SCENARIOS:
            raise ServeError(
                f"unknown scenario {name!r}; known: {SCENARIOS}"
            )
    results = []
    for name in scenarios:
        results.append(asyncio.run(run_scenario(
            name, seed, Path(spool_dir), tenants=tenants,
            branches=branches, batch=batch,
        )))
    return {
        "schema": CHAOS_SCHEMA,
        "seed": seed,
        "passed": all(result["passed"] for result in results),
        "scenarios": results,
    }
