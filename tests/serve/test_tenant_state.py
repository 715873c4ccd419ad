"""TenantState: the exactness contract, in-process.

Live serving, idempotent retries, crash recovery by journal replay and
the lossy evict tier are all exercised here without any processes or
sockets — the same compute path the shard workers run.
"""

import pytest

from repro.common.errors import JournalError
from repro.serve import protocol
from repro.serve.client import TenantPlan, reference_fingerprint
from repro.serve.shard import TenantState

PLAN = TenantPlan("t0", workload="transactions", seed=5, branches=120,
                  batch_size=30)


def _serve_all(state, batches, start=0):
    response = None
    for seq in range(start, len(batches)):
        response = state.predict(seq, batches[seq])
        assert "rejected" not in response, response
    return response


def test_live_stream_matches_uninterrupted_oracle(tmp_path):
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    last = _serve_all(state, PLAN.batches())
    oracle = reference_fingerprint(PLAN)
    assert last["fingerprint"] == oracle["fingerprint"]
    assert state.stats.branches == oracle["branches"]
    state.close()


def test_retry_of_last_batch_is_cached_and_identical(tmp_path):
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    batches = PLAN.batches()
    first = state.predict(0, batches[0])
    retried = state.predict(0, batches[0])
    assert retried["cached"] and not first["cached"]
    assert retried["records"] == first["records"]
    assert retried["fingerprint"] == first["fingerprint"]
    # And the retry did not advance the chain.
    second = state.predict(1, batches[1])
    assert second["next_seq"] == 2
    state.close()


def test_out_of_window_sequence_is_rejected(tmp_path):
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    batches = PLAN.batches()
    state.predict(0, batches[0])
    for bad in (5, -1, "0", None):
        response = state.predict(bad, batches[0])
        assert response["rejected"] == protocol.REJECT_BAD_SEQ
    # The rejection changed nothing.
    response = state.predict(1, batches[1])
    assert "rejected" not in response
    state.close()


def test_recover_after_clean_close_resumes_exactly(tmp_path):
    batches = PLAN.batches()
    half = len(batches) // 2
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    for seq in range(half):
        state.predict(seq, batches[seq])
    state.close()

    recovered = TenantState.recover("t0", tmp_path)
    assert recovered.next_seq == half
    # The pre-crash retry contract survives recovery too.
    cached = recovered.predict(half - 1, batches[half - 1])
    assert cached["cached"]
    last = _serve_all(recovered, batches, start=half)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()


def test_recover_from_journal_only_no_snapshot(tmp_path):
    batches = PLAN.batches()
    state = TenantState("t0", "z15", "object", tmp_path)  # no checkpointing
    state.open_fresh()
    for seq in range(2):
        state.predict(seq, batches[seq])
    state.journal.close()  # crash: no close(), no snapshot written

    recovered = TenantState.recover("t0", tmp_path)
    assert recovered.next_seq == 2
    last = _serve_all(recovered, batches, start=2)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()


def test_recover_with_torn_journal_tail_replays_prefix(tmp_path):
    batches = PLAN.batches()
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    for seq in range(3):
        state.predict(seq, batches[seq])
    state.journal.close()
    with open(state.paths.journal, "a") as stream:
        stream.write('{"type": "batch", "seq": 3, "branch')  # killed mid-append

    recovered = TenantState.recover("t0", tmp_path)
    # The torn batch was never acknowledged; the client resends it.
    assert recovered.next_seq == 3
    last = _serve_all(recovered, batches, start=3)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()


def test_evict_restore_chain_is_replayable(tmp_path):
    """The evict tier is lossy for accuracy but the *served* stream is
    still exact: offline replay of the journal reproduces it bit for
    bit, evictions included."""
    batches = PLAN.batches()
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    state.predict(0, batches[0])
    assert state.evict()
    assert not state.warm
    assert not state.evict()  # idempotent when cold
    # Next predict re-warms from the lossy tier (journaled as restore).
    response = state.predict(1, batches[1])
    assert response["restored"]
    for seq in range(2, len(batches)):
        state.predict(seq, batches[seq])
    served = state.fingerprint
    state.close()

    replayed = TenantState.recover("t0", tmp_path)
    assert replayed.fingerprint == served
    assert replayed.next_seq == len(batches)
    replayed.close()


def test_checkpoint_rotation_bounds_replay(tmp_path):
    from repro.serve.journal import load_journal

    batches = PLAN.batches()
    state = TenantState("t0", "z15", "object", tmp_path, checkpoint_every=2)
    state.open_fresh()
    for seq in range(len(batches)):
        state.predict(seq, batches[seq])
    served = state.fingerprint
    state.journal.close()  # crash without the closing checkpoint
    # Rotation kept the journal to at most checkpoint_every batches.
    _, events = load_journal(state.paths.journal)
    assert len([e for e in events if e["type"] == "batch"]) <= 2

    recovered = TenantState.recover("t0", tmp_path, checkpoint_every=2)
    assert recovered.fingerprint == served
    recovered.close()


def test_recover_unknown_tenant_raises(tmp_path):
    with pytest.raises(JournalError, match="nothing to recover"):
        TenantState.recover("ghost", tmp_path)


# -- background snapshots ----------------------------------------------

LONG_PLAN = TenantPlan("t0", workload="transactions", seed=5, branches=240,
                       batch_size=30)


def _temps(paths):
    from repro.common.atomic import TMP_MARKER

    return [path for path in paths.directory.iterdir()
            if TMP_MARKER in path.name]


def _batch_seqs(paths):
    from repro.serve.journal import load_journal

    _, events = load_journal(paths.journal)
    return [event["seq"] for event in events if event["type"] == "batch"]


def test_recover_discards_stranded_snapshot_temps(tmp_path):
    from repro.common.atomic import TMP_MARKER

    batches = PLAN.batches()
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    for seq in range(2):
        state.predict(seq, batches[seq])
    state.close()
    snapshot = state.paths.snapshot
    intact = snapshot.read_bytes()
    planted = snapshot.with_name(snapshot.name + TMP_MARKER + "dead")
    planted.write_bytes(b"half a pickle")

    recovered = TenantState.recover("t0", tmp_path)
    assert not planted.exists()
    assert snapshot.read_bytes() == intact
    assert recovered.next_seq == 2
    last = _serve_all(recovered, batches, start=2)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()


def test_shard_dropped_mid_snapshot_keeps_the_previous_one(tmp_path):
    """A shard that dies with a snapshot child in flight never commits
    it: the child's finished temp is not the snapshot, and recovery
    replays the previous snapshot plus the whole journal since."""
    import os

    from repro.serve.journal import read_snapshot

    batches = LONG_PLAN.batches()
    state = TenantState("t0", "z15", "object", tmp_path, checkpoint_every=3)
    state.open_fresh()
    for seq in range(6):
        response = state.predict(seq, batches[seq])
        assert "rejected" not in response
    # The due point after batch 5 waited for the seq-3 snapshot,
    # committed it, and forked the seq-6 writer, which is in flight.
    child = state._snapshot
    assert child is not None
    assert state.snapshots == {"committed": 1, "failed": 0}
    state.journal.close()  # the shard dies: nothing commits the child
    _, status = os.waitpid(child.pid, 0)
    assert status == 0  # the child itself finished its temp
    assert read_snapshot(state.paths.snapshot)["seq"] == 3
    assert _temps(state.paths)
    assert _batch_seqs(state.paths) == [3, 4, 5]

    recovered = TenantState.recover("t0", tmp_path, checkpoint_every=3)
    assert not _temps(recovered.paths)
    assert recovered.next_seq == 6
    last = _serve_all(recovered, batches, start=6)
    assert last["fingerprint"] == \
        reference_fingerprint(LONG_PLAN)["fingerprint"]
    recovered.close()


def test_failed_snapshot_child_never_fails_the_batch(tmp_path, monkeypatch):
    """A child that exits non-zero leaves the journal whole, loses its
    temp, is counted, and the next due point snapshots again."""
    from repro.serve import journal
    from repro.serve.shard import shard_main

    write = journal.dump_snapshot

    def fail_at_seq_2(fd, payload):
        if payload["seq"] == 2:
            raise RuntimeError("injected pickle failure")
        write(fd, payload)

    monkeypatch.setattr(journal, "dump_snapshot", fail_at_seq_2)
    paths = journal.TenantPaths(tmp_path, "t0")
    handle = shard_main(str(tmp_path), 0, 2)
    assert handle("open", {"tenant": "t0"})["status"] == "ok"
    batches = LONG_PLAN.batches()
    for seq in range(4):
        reply = handle("predict", {"tenant": "t0", "seq": seq,
                                   "branches": batches[seq]})
        assert reply["status"] == "ok", reply
    # Batch 3's due point reaped the failed seq-2 child and forked the
    # seq-4 writer: the failed temp is gone, nothing was committed and
    # the journal was not rotated.
    assert len(_temps(paths)) == 1
    assert not paths.snapshot.exists()
    assert _batch_seqs(paths) == [0, 1, 2, 3]
    assert handle("stats", {"tenant": "t0"})["snapshots"]["failed"] == 1
    # The checkpoint op commits the due seq-4 snapshot, then its own.
    assert handle("checkpoint", {})["status"] == "ok"
    snapshots = handle("stats", {"tenant": "t0"})["snapshots"]
    assert snapshots == {"committed": 2, "failed": 1, "in_flight": 0}
    assert journal.read_snapshot(paths.snapshot)["seq"] == 4
    assert not _temps(paths)
    assert _batch_seqs(paths) == []
    handle("shutdown", {})


def test_evict_held_by_a_cold_snapshot_is_not_replayed(tmp_path):
    """A shard that commits a snapshot taken after an evict and dies
    before rotating leaves that evict in the journal at the snapshot's
    own sequence number; recovery must not apply it twice."""
    batches = PLAN.batches()
    twin = TenantState("t0", "z15", "object", tmp_path / "twin")
    state = TenantState("t0", "z15", "object", tmp_path / "live")
    for tenant in (twin, state):
        tenant.open_fresh()
        for seq in range(2):
            tenant.predict(seq, batches[seq])
        assert tenant.evict()
    unrotated = state.paths.journal.read_bytes()
    state.checkpoint()  # snapshot at seq 2 holds the evict
    state.journal.close()
    state.paths.journal.write_bytes(unrotated)  # died before the rotation

    recovered = TenantState.recover("t0", tmp_path / "live")
    assert recovered.next_seq == 2 and not recovered.warm
    assert _serve_all(recovered, batches, start=2) == \
        _serve_all(twin, batches, start=2)
    recovered.close()
    twin.close()


@pytest.mark.parametrize("between", [1, 2])
def test_appends_after_a_torn_tail_survive_a_second_crash(tmp_path,
                                                          between):
    """The writer reopened by recovery cuts the torn tail before its
    first append, so the batches answered after the first crash are
    still journaled, on lines of their own, at the second."""
    batches = LONG_PLAN.batches()
    state = TenantState("t0", "z15", "object", tmp_path)
    state.open_fresh()
    _serve_all(state, batches[:3])
    state.journal.close()  # crash: no close(), no snapshot written
    with open(state.paths.journal, "a") as stream:
        stream.write('{"type":"batch","seq":3,"branch')  # killed mid-append

    recovered = TenantState.recover("t0", tmp_path)
    assert recovered.next_seq == 3
    _serve_all(recovered, batches[:3 + between], start=3)
    recovered.journal.close()  # crash again

    again = TenantState.recover("t0", tmp_path)
    assert again.next_seq == 3 + between
    last = _serve_all(again, batches, start=3 + between)
    assert last["fingerprint"] == \
        reference_fingerprint(LONG_PLAN)["fingerprint"]
    again.close()
