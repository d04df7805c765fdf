"""Durable state: every crash prefix of a journal, and atomic writes.

A crash can cut an append-only journal at any byte. Whatever the cut,
a reader must return exactly the records whose newline made it to
disk, and the next append must be readable too: the appender fences
the torn tail off instead of gluing its record onto it. The same
offsets run through every journal user's own loader.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import telemetry
from repro.durable import Journal, atomic_write
from repro.experiments.queue import WorkQueue
from repro.experiments.resilience import append_checkpoint, load_checkpoint
from repro.experiments.server import SessionJournal
from repro.telemetry.registry import RunRegistry

#: Records written before the file is cut.
RECORDS = 4

USERS = ("journal", "checkpoint", "queue", "session", "registry")


def _users(root):
    """name -> (journal path, append record i, ids a fresh loader sees)."""
    plain = root / "plain.journal"
    checkpoint = root / "figures.journal"
    return {
        "journal": (
            plain,
            lambda i: Journal(plain).append({"id": i}),
            lambda: [r["id"] for r in Journal(plain).records()]),
        "checkpoint": (
            checkpoint,
            lambda i: append_checkpoint(checkpoint, {"figure": f"fig{i}",
                                                     "quick": True}),
            lambda: [int(name[3:]) for name in load_checkpoint(checkpoint)]),
        "queue": (
            WorkQueue(root / "queue").journal_path,
            lambda i: WorkQueue(root / "queue").append_result(
                {"cell": f"c{i}", "result": ""}),
            lambda: [int(cell[1:])
                     for cell in WorkQueue(root / "queue").results()]),
        "session": (
            SessionJournal(root / "serve").path,
            lambda i: SessionJournal(root / "serve").append(
                {"type": "request", "key": f"k{i}"}),
            lambda: [int(key[1:])
                     for key in SessionJournal(root / "serve").load()[0]]),
        "registry": (
            RunRegistry(root / "registry").runs_path,
            lambda i: RunRegistry(root / "registry").append(
                {"kind": "run", "command": f"r{i}"}),
            lambda: [int(r["command"][1:])
                     for r in RunRegistry(root / "registry").records()]),
    }


def _newlines(data: bytes) -> list[int]:
    return [i for i, byte in enumerate(data) if byte == ord("\n")]


@pytest.mark.parametrize("user", USERS)
def test_every_crash_prefix_recovers_exactly_the_committed_records(
        tmp_path, user):
    telemetry.enable()  # the registry writes only with telemetry on
    path, append, load = _users(tmp_path)[user]
    for i in range(RECORDS):
        append(i)
    data = path.read_bytes()
    ends = _newlines(data)
    assert len(ends) == RECORDS
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        committed = [i for i, end in enumerate(ends) if end < cut]
        assert load() == committed, f"cut at byte {cut}"
        append(RECORDS)
        # Cut exactly at its newline, a record is whole; the fence
        # newline completes it, so it may come back. Nothing else may.
        revived = [len(committed)] if cut in ends else []
        assert load() in (committed + [RECORDS],
                          committed + revived + [RECORDS]), \
            f"append after a cut at byte {cut}"


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_incremental_reader_follows_a_growing_file(tmp_path, chunk):
    source = tmp_path / "source.journal"
    for i in range(RECORDS):
        Journal(source).append({"id": i, "pad": "x" * i})
    data = source.read_bytes()
    ends = _newlines(data)
    path = tmp_path / "growing.journal"
    path.touch()
    journal = Journal(path)
    queue = WorkQueue(tmp_path / "queue")
    queue.journal_path.parent.mkdir()
    queue.journal_path.touch()
    cells = b"".join(
        json.dumps({"cell": f"c{i}", "pad": "x" * i}).encode() + b"\n"
        for i in range(RECORDS))
    cell_ends = _newlines(cells)
    for start in range(0, max(len(data), len(cells)), chunk):
        with open(path, "ab") as handle:
            handle.write(data[start:start + chunk])
        with open(queue.journal_path, "ab") as handle:
            handle.write(cells[start:start + chunk])
        cut = start + chunk
        assert [r["id"] for r in journal.records()] \
            == [i for i, end in enumerate(ends) if end < cut]
        assert list(queue.results()) \
            == [f"c{i}" for i, end in enumerate(cell_ends) if end < cut]


def test_blank_and_foreign_lines_are_skipped(tmp_path):
    path = tmp_path / "j.journal"
    path.write_bytes(b'{"id": 0}\n\n[1, 2]\n"text"\n\xff\xfe\n{"id": 1}\n')
    assert Journal(path).records() == [{"id": 0}, {"id": 1}]


def test_atomic_write_replaces_whole_or_not_at_all(tmp_path):
    path = tmp_path / "state.json"
    atomic_write(path, b"old", fsync=True)

    def broken(tmp):
        tmp.write_bytes(b"half")
        raise OSError("disk full")

    with pytest.raises(OSError):
        atomic_write(path, broken)
    assert path.read_bytes() == b"old"
    atomic_write(path, lambda tmp: tmp.write_bytes(b"new"))
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_threads_heartbeating_one_worker_never_collide(tmp_path):
    """A worker's heartbeat thread and its main thread both renew
    ``heartbeats/<worker>.json``; each write needs its own temp name."""
    queue = WorkQueue(tmp_path / "campaign").ensure()
    path = queue.directory / "heartbeats" / "w1.json"
    errors = []

    def beat():
        try:
            for _ in range(200):
                queue.heartbeat("w1")
                assert json.loads(path.read_text())["worker"] == "w1"
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=beat) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [p.name for p in path.parent.iterdir()] == ["w1.json"]
