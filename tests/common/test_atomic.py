"""The atomic-write discipline: never a torn whole-file document."""

import json
import os

import pytest

from repro.common.atomic import (
    TMP_MARKER,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    discard_stale_temps,
)


def test_atomic_write_text_roundtrip(tmp_path):
    target = tmp_path / "doc.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    # Overwrite lands completely, and no temp siblings survive.
    atomic_write_text(target, "goodbye\n")
    assert target.read_text() == "goodbye\n"
    assert [p for p in tmp_path.iterdir()] == [target]


def test_atomic_write_bytes_roundtrip(tmp_path):
    target = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 3
    atomic_write_bytes(target, payload)
    assert target.read_bytes() == payload


def test_atomic_write_json_sorted_and_newline_terminated(tmp_path):
    target = tmp_path / "doc.json"
    atomic_write_json(target, {"b": 2, "a": 1}, indent=None,
                      trailing_newline=True)
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": 2}
    assert text.index('"a"') < text.index('"b"')


def test_temp_sibling_never_matches_target_name(tmp_path):
    """A killed writer strands only ``*.tmp.*`` siblings, which loaders
    skip by name; the target itself is either old or new, never mixed."""
    target = tmp_path / "doc.txt"
    atomic_write_text(target, "v1")
    # Simulate the stranded temp of a writer killed before replace.
    stranded = tmp_path / f"doc.txt{TMP_MARKER}1234"
    stranded.write_text("half-writ")
    assert target.read_text() == "v1"
    removed = discard_stale_temps(tmp_path)
    assert removed == 1
    assert not stranded.exists()
    assert target.read_text() == "v1"


def test_discard_stale_temps_ignores_real_files(tmp_path):
    (tmp_path / "keep.json").write_text("{}")
    (tmp_path / "keep2.jsonl").write_text("")
    assert discard_stale_temps(tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "keep.json", "keep2.jsonl",
    ]


def test_atomic_write_into_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        atomic_write_text(tmp_path / "no" / "such" / "dir.txt", "x")


def test_atomic_write_preserves_other_directory_entries(tmp_path):
    for name in ("a.txt", "b.txt"):
        atomic_write_text(tmp_path / name, name)
    atomic_write_text(tmp_path / "a.txt", "rewritten")
    assert (tmp_path / "a.txt").read_text() == "rewritten"
    assert (tmp_path / "b.txt").read_text() == "b.txt"
    assert len(os.listdir(tmp_path)) == 2


def test_temp_sibling_then_commit_is_an_atomic_write(tmp_path):
    from repro.common.atomic import TMP_MARKER, commit_temp, temp_sibling

    target = tmp_path / "snapshot.pickle"
    target.write_bytes(b"old")
    fd, tmp_name = temp_sibling(target)
    assert TMP_MARKER in os.path.basename(tmp_name)
    with os.fdopen(fd, "wb") as stream:
        stream.write(b"new")
    # Until the commit, readers see only the old content.
    assert target.read_bytes() == b"old"
    assert commit_temp(tmp_name, target) == target
    assert target.read_bytes() == b"new"
    assert sorted(os.listdir(tmp_path)) == ["snapshot.pickle"]
