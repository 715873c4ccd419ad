"""Prediction-as-a-service: a supervised multi-tenant predictor server.

The paper's predictor serves one core's instruction stream; this
package serves *many* streams — thousands of tenant sessions
multiplexed over a small pool of warm predictor shards, with the same
recovery philosophy the hardware uses: state is either rebuildable
(the lossy, BTB2-style evict tier) or journaled (the exact
crash-recovery tier), so no failure ever produces a wrong answer —
only a slower or re-learned one.

Modules
-------
``protocol``
    Newline-delimited JSON wire format, branch/record codecs, and the
    chained stream fingerprint.
``journal``
    Per-tenant durable artifacts: journal-before-respond event log,
    atomic snapshots, lossy evict state.
``shard``
    Worker processes owning warm predictors; ``TenantState`` (live
    serving and journal replay share one compute path, the
    config-specialized kernel); the asyncio-side handle.
``server``
    The asyncio front end: admission control, LRU eviction, deadlines,
    shard supervision and restart, the metrics ledger.
``client``
    Pipelining client, the workload-replaying load generator, and the
    uninterrupted oracle, which computes through the reference
    pipeline rather than the shards' kernel.
``chaos``
    Seeded fault-injection scenarios with liveness / exactness /
    accounting audits.
"""

from repro.serve.chaos import CHAOS_SCHEMA, SCENARIOS, run_chaos, run_scenario
from repro.serve.client import (
    LoadGenerator,
    ServeClient,
    TenantPlan,
    reference_fingerprint,
)
from repro.serve.journal import (
    JOURNAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    JournalWriter,
    TenantPaths,
    load_journal,
    read_snapshot,
    write_snapshot,
)
from repro.serve.protocol import (
    GENESIS_FINGERPRINT,
    PROTOCOL_SCHEMA,
    decode_branch,
    decode_message,
    encode_branch,
    encode_message,
    fold_fingerprint,
)
from repro.serve.server import PredictorServer, ServeOptions, ServerMetrics
from repro.serve.shard import ShardHandle, TenantState, compute_batch

__all__ = [
    "CHAOS_SCHEMA",
    "GENESIS_FINGERPRINT",
    "JOURNAL_SCHEMA",
    "JournalWriter",
    "LoadGenerator",
    "PROTOCOL_SCHEMA",
    "PredictorServer",
    "SCENARIOS",
    "SNAPSHOT_SCHEMA",
    "ServeClient",
    "ServeOptions",
    "ServerMetrics",
    "ShardHandle",
    "TenantPaths",
    "TenantPlan",
    "TenantState",
    "compute_batch",
    "decode_branch",
    "decode_message",
    "encode_branch",
    "encode_message",
    "fold_fingerprint",
    "load_journal",
    "read_snapshot",
    "reference_fingerprint",
    "run_chaos",
    "run_scenario",
    "write_snapshot",
]
