"""The two durability primitives every on-disk writer shares.

:func:`atomic_write` replaces a file whole: the bytes go to a temp name
unique to the call, beside the target, and are renamed into place.
Readers see the old file or the new one, never a mix. The temp name
contains ``.tmp``, so the disk cache's tmp sweep finds what a killed
writer leaves behind.

:class:`Journal` is an append-only JSON-lines file. A record is one
line, committed by its newline and fsynced before ``append`` returns.
A crash mid-append leaves a torn tail without a newline; readers skip
it, and the next ``append`` fences it off with a newline first, so the
new record starts a line of its own. Two appenders fencing the same
torn tail leave one blank line, which readers skip as well.

Neither primitive knows what its records mean: each caller folds the
records into its own view (first record per key, latest record per
key, or ordered by a sequence number). Standard library only.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def _fsync(fd: int) -> None:
    try:
        os.fsync(fd)
    except OSError:
        pass  # a filesystem without fsync still gets the rename


def atomic_write(path: str | Path, data, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` through a unique temp name.

    ``data`` is bytes, or a callable that writes the file at the temp
    path it is given (for writers that open the path themselves).
    ``fsync=True`` flushes the temp file to disk before the rename.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{os.urandom(4).hex()}")
    try:
        if callable(data):
            data(tmp)
        else:
            tmp.write_bytes(data)
        if fsync:
            fd = os.open(tmp, os.O_RDONLY)
            try:
                _fsync(fd)
            finally:
                os.close(fd)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class Journal:
    """Append-only, fsynced JSON-lines file of dict records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Incremental read state: which file, how far it was parsed,
        #: and the records found up to there.
        self._inode = None
        self._offset = 0
        self._records: list[dict] = []

    @staticmethod
    def _line(record: dict) -> bytes:
        return json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=str).encode("utf-8") + b"\n"

    def append(self, record: dict) -> None:
        """Commit one record as a newline-terminated, fsynced line."""
        line = self._line(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    line = b"\n" + line  # fence off a torn tail
            handle.write(line)
            handle.flush()
            _fsync(handle.fileno())

    def rewrite(self, records) -> None:
        """Atomically replace the whole journal with ``records``."""
        atomic_write(self.path, b"".join(map(self._line, records)),
                     fsync=True)

    def records(self) -> list[dict]:
        """Every complete, parseable dict record, in append order.

        Each call parses only what was appended since the last one, up
        to the last newline: a tail still being written, or torn by a
        crash, is read again next time. A file that shrank or was
        replaced is read again from the start.
        """
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if stat.st_ino != self._inode \
                        or stat.st_size < self._offset:
                    self._inode = stat.st_ino
                    self._offset = 0
                    self._records = []
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return list(self._records)
        end = chunk.rfind(b"\n") + 1
        self._offset += end
        for line in chunk[:end].split(b"\n"):
            try:
                record = json.loads(line)
            except ValueError:
                continue  # blank, torn, or not JSON
            if isinstance(record, dict):
                self._records.append(record)
        return list(self._records)
