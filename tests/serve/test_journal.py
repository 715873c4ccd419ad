"""Per-tenant durable artifacts: journal, snapshot, rotation, tearing."""

import pytest

from repro.common.errors import JournalError
from repro.serve.journal import (
    JOURNAL_SCHEMA,
    JournalWriter,
    TenantPaths,
    journal_header,
    load_journal,
    read_snapshot,
    write_snapshot,
)


def _writer(tmp_path, tenant="t0"):
    paths = TenantPaths(tmp_path, tenant).ensure()
    return paths, JournalWriter(paths.journal,
                                journal_header(tenant, "z15", "object"))


def test_journal_roundtrip(tmp_path):
    paths, writer = _writer(tmp_path)
    writer.append({"type": "batch", "seq": 0, "branches": [[1, 2]]})
    writer.append({"type": "evict", "seq": 1})
    writer.append({"type": "restore", "seq": 1})
    writer.close()
    header, events = load_journal(paths.journal)
    assert header["schema"] == JOURNAL_SCHEMA
    assert header["tenant"] == "t0"
    assert header["config"] == "z15"
    assert [event["type"] for event in events] == \
        ["batch", "evict", "restore"]


def test_reopen_appends_without_second_header(tmp_path):
    paths, writer = _writer(tmp_path)
    writer.append({"type": "batch", "seq": 0, "branches": []})
    writer.close()
    again = JournalWriter(paths.journal,
                          journal_header("t0", "z15", "object"))
    again.append({"type": "batch", "seq": 1, "branches": []})
    again.close()
    header, events = load_journal(paths.journal)
    assert [event["seq"] for event in events] == [0, 1]


def test_append_rejects_unknown_event_type(tmp_path):
    _, writer = _writer(tmp_path)
    with pytest.raises(JournalError):
        writer.append({"type": "frobnicate", "seq": 0})
    writer.close()


def test_rotate_compacts_to_header_only(tmp_path):
    paths, writer = _writer(tmp_path)
    for seq in range(5):
        writer.append({"type": "batch", "seq": seq, "branches": []})
    writer.rotate()
    writer.append({"type": "batch", "seq": 5, "branches": []})
    writer.close()
    header, events = load_journal(paths.journal)
    assert header["tenant"] == "t0"
    assert [event["seq"] for event in events] == [5]


def test_torn_tail_dropped_leniently_refused_strictly(tmp_path):
    paths, writer = _writer(tmp_path)
    writer.append({"type": "batch", "seq": 0, "branches": []})
    writer.close()
    with open(paths.journal, "a") as stream:
        stream.write('{"type": "batch", "seq": 1, "bra')  # killed writer
    _, events = load_journal(paths.journal)
    assert [event["seq"] for event in events] == [0]
    with pytest.raises(JournalError, match=r"torn final line"):
        load_journal(paths.journal, strict=True)


def test_corruption_mid_file_is_always_fatal(tmp_path):
    paths, writer = _writer(tmp_path)
    writer.append({"type": "batch", "seq": 0, "branches": []})
    writer.close()
    with open(paths.journal, "a") as stream:
        stream.write("{broken}\n")
        stream.write('{"type": "batch", "seq": 1, "branches": []}\n')
    with pytest.raises(JournalError, match=r":3 \(byte offset \d+\)"):
        load_journal(paths.journal)


def test_journal_without_header_is_fatal(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"type": "batch", "seq": 0, "branches": []}\n')
    with pytest.raises(JournalError, match="before header"):
        load_journal(path)


def test_snapshot_roundtrip_and_missing(tmp_path):
    target = tmp_path / "snapshot.pickle"
    assert read_snapshot(target) is None
    write_snapshot(target, {"tenant": "t0", "seq": 4, "blob": [1, 2, 3]})
    snapshot = read_snapshot(target)
    assert snapshot["tenant"] == "t0"
    assert snapshot["seq"] == 4


def test_snapshot_corruption_is_fatal_not_silent(tmp_path):
    target = tmp_path / "snapshot.pickle"
    target.write_bytes(b"\x80\x04 definitely not a pickle")
    with pytest.raises(JournalError, match="unreadable snapshot"):
        read_snapshot(target)


def test_snapshot_schema_mismatch_is_fatal(tmp_path):
    import pickle

    target = tmp_path / "snapshot.pickle"
    target.write_bytes(pickle.dumps({"schema": "something-else/v9"}))
    with pytest.raises(JournalError, match="unsupported snapshot schema"):
        read_snapshot(target)


def test_tenant_paths_layout(tmp_path):
    paths = TenantPaths(tmp_path, "tenant-7")
    assert not paths.exists()
    paths.ensure()
    assert paths.directory == tmp_path / "tenants" / "tenant-7"
    assert paths.journal.parent == paths.directory
    assert paths.snapshot.parent == paths.directory


def test_rotate_keeps_the_lines_appended_after_the_mark(tmp_path):
    paths, writer = _writer(tmp_path)
    for seq in range(3):
        writer.append({"type": "batch", "seq": seq, "branches": []})
    writer.mark()  # a snapshot of seq 0-2 is being written
    writer.append({"type": "evict", "seq": 3})
    writer.append({"type": "batch", "seq": 3, "branches": [[1, 2]]})
    writer.rotate()
    header, events = load_journal(paths.journal, strict=True)
    assert header["tenant"] == "t0"
    assert [(event["type"], event["seq"]) for event in events] == \
        [("evict", 3), ("batch", 3)]
    assert events[1]["branches"] == [[1, 2]]
    # Appends go on after the tail; a rotation without a new mark
    # compacts to the header alone.
    writer.append({"type": "batch", "seq": 4, "branches": []})
    writer.rotate()
    writer.append({"type": "batch", "seq": 5, "branches": []})
    writer.close()
    _, events = load_journal(paths.journal, strict=True)
    assert [event["seq"] for event in events] == [5]


def test_snapshot_child_failure_raises_and_strands_nothing(tmp_path,
                                                           monkeypatch):
    from repro.serve import journal

    def unpicklable(fd, payload):
        raise TypeError("cannot pickle")

    monkeypatch.setattr(journal, "dump_snapshot", unpicklable)
    target = tmp_path / "snapshot.pickle"
    with pytest.raises(JournalError, match="snapshot writer failed"):
        write_snapshot(target, {"tenant": "t0", "seq": 1})
    assert list(tmp_path.iterdir()) == []
