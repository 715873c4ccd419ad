"""Kernel-served batches against the reference pipeline.

Shards serve every batch through the config-specialized kernel
(:func:`repro.serve.shard.compute_batch`); the oracle computes the same
batches with ``predict_and_resolve``
(:func:`repro.serve.client.reference_batch`).  Here a
:class:`TenantState` and its reference twin — the same class with
``compute_batch`` swapped for the reference pipeline, so journaling,
eviction and recovery stay shared — serve one stream in lockstep and
must agree after every batch on the response, the stats and the
predictor's pickled bytes.
"""

import pickle
import sys
from unittest import mock

import pytest

from repro.serve import shard
from repro.serve.client import TenantPlan, reference_batch, reference_fingerprint
from repro.serve.shard import TenantState
from repro.verification.differential import comparable_stats

#: repro loadgen's default workload cycle.
WORKLOADS = ("transactions", "dispatch", "services", "correlated")


def _as_reference(call):
    """Run *call* with the reference pipeline as the compute path."""
    with mock.patch.object(shard, "compute_batch", reference_batch):
        return call()


def _assert_same_state(served, twin):
    assert served.fingerprint == twin.fingerprint
    assert comparable_stats(served.stats) == comparable_stats(twin.stats)
    assert pickle.dumps(served.predictor) == pickle.dumps(twin.predictor)


@pytest.mark.parametrize("batch_size", [1, 7, 40])
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("backend", ["object", "array"])
def test_kernel_serves_what_the_reference_pipeline_serves(
        tmp_path, backend, workload, batch_size):
    plan = TenantPlan("t0", workload, seed=17, branches=160,
                      batch_size=batch_size, backend=backend)
    batches = plan.batches()
    count = len(batches)
    evict_at, snapshot_at, crash_at = count // 4, count // 2, 3 * count // 4
    served_spool, twin_spool = tmp_path / "served", tmp_path / "twin"
    served = TenantState("t0", "z15", backend, served_spool)
    twin = TenantState("t0", "z15", backend, twin_spool)
    served.open_fresh()
    twin.open_fresh()
    for seq, rows in enumerate(batches):
        if seq == evict_at:
            # Demote both: the next batch restores from the lossy tier.
            assert served.evict() and twin.evict()
        if seq == snapshot_at:
            served.checkpoint()
            twin.checkpoint()
        if seq == crash_at:
            # Crash without a closing checkpoint: recovery replays the
            # batches since the snapshot, each through its own path.
            served.journal.close()
            twin.journal.close()
            served = TenantState.recover("t0", served_spool)
            twin = _as_reference(
                lambda: TenantState.recover("t0", twin_spool))
            _assert_same_state(served, twin)
        response = served.predict(seq, rows)
        assert "rejected" not in response, response
        assert response == _as_reference(lambda: twin.predict(seq, rows))
        _assert_same_state(served, twin)
    served.close()
    twin.close()


def _kernel_calls(call):
    """Names of the generated-kernel functions *call* entered."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(
                "<repro-specialized-"):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def test_reference_fingerprint_never_runs_a_generated_kernel(tmp_path):
    plan = TenantPlan("t0", "transactions", seed=3, branches=60,
                      batch_size=20)
    assert _kernel_calls(lambda: reference_fingerprint(plan)) == []
    # The detector detects: the served path does run the kernel.
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    assert "counted_observed" in _kernel_calls(
        lambda: state.predict(0, plan.batches()[0]))
    state.close()
