"""Compressed columnar trace codec (the ``v2`` on-disk trace format).

A canonical trace row is 35 bytes. The disk cache instead stores each
trace in a frame-structured columnar encoding that exploits how trace
columns actually behave:

``pc`` / ``addr`` / ``origin`` (int64)
    delta + zigzag + varint (``dzv``): consecutive program counters
    and effective addresses are near each other, so deltas are small
    and most values take 1-2 bytes instead of 8.
``size`` / ``dep`` (int32)
    zigzag + varint (``zv``): access sizes and dependence distances
    are tiny non-negative integers — almost always one byte.
``kind`` / ``category`` / ``flags`` (int8)
    raw ``uint8`` (``u8``): already minimal, stored as-is so a single
    column (e.g. ``category`` for a breakdown) can be sliced without
    any arithmetic.

Rows are grouped into **frames** (:data:`FRAME_ROWS` rows each); every
frame encodes its columns independently (delta chains restart per
frame) and a JSON directory at the end of the file records each
column segment's byte range. A reader memory-maps the file, and the
OS page cache shares the mapped bytes between every process on the
host. A loaded trace (:meth:`~repro.host.trace.InstructionTrace.load`)
decodes each column it is asked for in full, with
:meth:`FrameReader.column`, and keeps it; its ``arrays()`` decodes all
eight. A decode allocates the column once and fills it frame by frame:
each ``u8`` segment is copied into its slice, and each ``zv``/``dzv``
segment is decoded straight into its slice. Every decoded column is a
copy, so once the last one is decoded the trace closes its reader and
the mapping goes (a later decode maps the file again).
:meth:`FrameReader.decode_range` decodes only the frames that cover a
row range; it runs when ``slice_view`` is called on a loaded trace
whose columns are not all decoded, which no figure or query does.

File layout::

    [0:24)    header: b"RPTC", u32 version=2, u64 meta_off, u64 meta_len
    [24:...)  frame segments, frame-major then column-major
    [meta_off:meta_off+meta_len)  JSON meta + frame directory

Durability follows the disk cache's commit protocol (the encoder
writes to a temp name, the cache renames and records a SHA-256), so a
truncated or bit-flipped file is either caught by the checksum on
load or rejected here with a typed :class:`~repro.errors.TraceError`
(varint streams validate their value count, byte count, and length
bounds; an int32 column's values must fit int32; the directory
validates segment ranges).

The varint encode loop, and the whole decode of a ``zv``/``dzv``
segment (varint, unzigzag, running sum, narrowing), dispatch to the
compiled C kernels of :mod:`repro.host._codec_kernel` when a C
compiler built them. The pure-NumPy reference here is the oracle and
the engine without a compiler; both give the same bytes and columns,
and reject the same inputs with a ``TraceError`` — LEB128 is
canonical, one encoding per value.
"""

from __future__ import annotations

import json
import struct
import time
from pathlib import Path

import numpy as np

from ..errors import TraceError
from . import _codec_kernel

#: Canonical trace column order and dtypes. ``repro.host.trace`` keeps
#: the matching ``array`` typecodes; the two are cross-checked there.
COLUMNS = ("pc", "kind", "category", "addr", "size", "dep", "flags",
           "origin")
DTYPES = tuple(np.dtype(name) for name in
               ("int64", "int8", "int8", "int64", "int32", "int32",
                "int8", "int64"))

#: Bytes one row occupies in canonical (decoded) column form.
RAW_ROW_BYTES = sum(dtype.itemsize for dtype in DTYPES)

#: Rows per frame. 64K rows keeps a full-frame decode comfortably in
#: L2-resident working sets while bounding the cost of a one-row
#: ``slice_view`` on a 100M-row trace to a single frame.
FRAME_ROWS = 1 << 16

MAGIC = b"RPTC"
VERSION = 2
_HEADER = struct.Struct("<4sIQQ")

#: Encoding id per column, fixed by dtype (see module docstring).
_ENCODINGS = {np.dtype("int64"): "dzv", np.dtype("int32"): "zv",
              np.dtype("int8"): "u8"}

_INT32 = np.iinfo(np.int32)

_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U7 = np.uint64(7)
_U63 = np.uint64(63)
_U7F = np.uint64(0x7F)


# ----------------------------------------------------------------------
# Varint / zigzag / delta primitives (NumPy reference + kernel dispatch)
# ----------------------------------------------------------------------


def _zigzag(u: np.ndarray) -> np.ndarray:
    """Zigzag-map a uint64 view of signed values (small magnitudes of
    either sign become small unsigned values)."""
    return (u << _U1) ^ (_U0 - (u >> _U63))


def _unzigzag(z: np.ndarray) -> np.ndarray:
    return (z >> _U1) ^ (_U0 - (z & _U1))


def _varint_encode_numpy(u: np.ndarray) -> np.ndarray:
    n = u.size
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    lengths = np.ones(n, dtype=np.int64)
    for k in range(1, 10):
        lengths += u >= np.uint64(1 << (7 * k))
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    out = np.zeros(int(lengths.sum()), dtype=np.uint8)
    shifted = u.copy()
    for k in range(10):
        active = np.flatnonzero(lengths > k)
        if active.size == 0:
            break
        byte = (shifted[active] & _U7F).astype(np.uint8)
        cont = (lengths[active] > k + 1).astype(np.uint8)
        out[starts[active] + k] = byte | (cont << 7)
        shifted >>= _U7
    return out


def _varint_decode_numpy(buf: np.ndarray, count: int) -> np.ndarray:
    terminals = np.flatnonzero((buf & 0x80) == 0)
    if terminals.size != count:
        raise TraceError(
            f"varint stream holds {terminals.size} values, "
            f"expected {count} (truncated or corrupt frame)")
    if count == 0:
        if buf.size:
            raise TraceError("varint stream has trailing bytes")
        return np.zeros(0, dtype=np.uint64)
    if int(terminals[-1]) != buf.size - 1:
        raise TraceError("varint stream has trailing bytes")
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = terminals[:-1] + 1
    lengths = terminals - starts + 1
    max_len = int(lengths.max())
    if max_len > 10:
        raise TraceError(
            f"varint value spans {max_len} bytes (not a 64-bit varint)")
    out = np.zeros(count, dtype=np.uint64)
    for k in range(max_len):
        active = np.flatnonzero(lengths > k)
        byte = buf[starts[active] + k].astype(np.uint64)
        out[active] |= (byte & _U7F) << np.uint64(7 * k)
    return out


def _varint_encode(u: np.ndarray) -> np.ndarray:
    kernel = _codec_kernel.get_kernel()
    if kernel is None or u.size == 0:
        return _varint_encode_numpy(u)
    out = np.empty(u.size * 10, dtype=np.uint8)
    written = kernel.encode(np.ascontiguousarray(u), out)
    return out[:written].copy()


# ----------------------------------------------------------------------
# Column segment encode / decode
# ----------------------------------------------------------------------


def _encode_column(values: np.ndarray, dtype: np.dtype) -> bytes:
    encoding = _ENCODINGS[dtype]
    if encoding == "u8":
        return np.ascontiguousarray(values, dtype=np.int8) \
            .view(np.uint8).tobytes()
    u = np.ascontiguousarray(values, dtype=np.int64).view(np.uint64)
    if encoding == "dzv" and u.size:
        deltas = u.copy()
        deltas[1:] = u[1:] - u[:-1]  # mod-2^64: exact inverse of cumsum
        u = deltas
    return _varint_encode(_zigzag(u)).tobytes()


def _decode_column(seg: np.ndarray, rows: int, dtype: np.dtype,
                   ) -> np.ndarray:
    """NumPy reference: one frame's segment of a column, decoded."""
    encoding = _ENCODINGS[dtype]
    if encoding == "u8":
        if seg.size != rows:
            raise TraceError(
                f"u8 segment holds {seg.size} rows, expected {rows}")
        return seg.astype(np.uint8).view(np.int8)
    signed = _unzigzag(_varint_decode_numpy(seg, rows))
    if encoding == "dzv":
        return np.cumsum(signed, dtype=np.uint64).view(np.int64)
    signed = signed.view(np.int64)
    if signed.size and (signed.min() < _INT32.min
                        or signed.max() > _INT32.max):
        raise TraceError("zv segment holds a value outside int32")
    return signed.astype(np.int32)


def _decode_into(seg: np.ndarray, out: np.ndarray) -> None:
    """Decode one frame's segment of a column into ``out``, the frame's
    slice of the column (its dtype says how the segment is encoded)."""
    encoding = _ENCODINGS[out.dtype]
    if encoding == "u8":
        if seg.size != out.size:
            raise TraceError(
                f"u8 segment holds {seg.size} rows, expected {out.size}")
        out[:] = seg.view(np.int8)
        return
    kernel = _codec_kernel.get_kernel()
    if kernel is None:
        out[:] = _decode_column(seg, out.size, out.dtype)
        return
    consumed = kernel.decode_segment(seg, out)
    if consumed == -2:
        raise TraceError("zv segment holds a value outside int32")
    if consumed != seg.size:
        raise TraceError(
            "varint stream is truncated, overlong, or has trailing "
            f"bytes ({consumed} of {seg.size} bytes consumed for "
            f"{out.size} values)")


# ----------------------------------------------------------------------
# File writer
# ----------------------------------------------------------------------


def encode_file(path: str | Path, block_fn, rows: int,
                frame_rows: int = FRAME_ROWS) -> int:
    """Write a v2 trace file; returns the encoded byte count.

    ``block_fn(start, stop)`` must return a dict of the canonical
    columns for rows ``[start, stop)`` — the encoder pulls one frame
    at a time, so a trace hands over slices of the columns it holds
    (:meth:`~repro.host.trace.InstructionTrace.slice_view`) and no
    second copy of them is built.
    """
    if frame_rows < 1:
        raise TraceError(f"frame_rows must be >= 1, got {frame_rows}")
    t0 = time.perf_counter()
    frames = []
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, 0, 0))
        offset = _HEADER.size
        for start in range(0, rows, frame_rows):
            stop = min(start + frame_rows, rows)
            block = block_fn(start, stop)
            segments = {}
            for name, dtype in zip(COLUMNS, DTYPES):
                column = block[name]
                if len(column) != stop - start:
                    raise TraceError(
                        f"block [{start}, {stop}) returned "
                        f"{len(column)} rows for column {name!r}")
                payload = _encode_column(column, dtype)
                handle.write(payload)
                segments[name] = [offset, len(payload)]
                offset += len(payload)
            frames.append({"rows": stop - start, "segments": segments})
        meta = {
            "rows": rows,
            "frame_rows": frame_rows,
            "columns": list(COLUMNS),
            "dtypes": [dtype.name for dtype in DTYPES],
            "frames": frames,
        }
        blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        handle.write(blob)
        total = offset + len(blob)
        handle.seek(0)
        handle.write(_HEADER.pack(MAGIC, VERSION, offset, len(blob)))
    elapsed = time.perf_counter() - t0
    if elapsed > 0 and rows:
        from ..telemetry import TELEMETRY
        TELEMETRY.metrics.gauge("trace.codec.bytes_per_second",
                                op="encode").set(
            rows * RAW_ROW_BYTES / elapsed)
    return total


def encode_arrays(path: str | Path, arrays: dict,
                  frame_rows: int = FRAME_ROWS) -> int:
    """Encode fully materialized columns (test/tool convenience)."""
    missing = [name for name in COLUMNS if name not in arrays]
    if missing:
        raise TraceError(f"trace columns missing: {missing}")
    rows = len(arrays[COLUMNS[0]])

    def block(start: int, stop: int) -> dict:
        return {name: arrays[name][start:stop] for name in COLUMNS}

    return encode_file(path, block, rows, frame_rows=frame_rows)


# ----------------------------------------------------------------------
# Reader: mmap + per-frame, per-column lazy decode
# ----------------------------------------------------------------------


class FrameReader:
    """Zero-copy view of one encoded trace file.

    The file is memory-mapped once; every decode touches only the
    byte ranges of the requested frames and columns. Any structural
    problem — bad magic, malformed directory, out-of-range segment,
    truncated varint stream — raises :class:`TraceError` carrying the
    path, and fires ``on_corrupt`` once so the owning cache can
    quarantine the entry before a retry.
    """

    def __init__(self, path: str | Path, on_corrupt=None) -> None:
        self.path = Path(path)
        self._on_corrupt = on_corrupt
        self._corrupt_reported = False
        self._mm: np.ndarray | None = None
        try:
            size = self.path.stat().st_size
            with open(self.path, "rb") as handle:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    raise TraceError(
                        f"trace file too short for a header: {self.path}")
                magic, version, meta_off, meta_len = _HEADER.unpack(header)
                if magic != MAGIC:
                    raise TraceError(
                        f"not a v2 trace file (bad magic): {self.path}")
                if version != VERSION:
                    raise TraceError(
                        f"unsupported trace format version {version} "
                        f"in {self.path}")
                if meta_off < _HEADER.size \
                        or meta_off + meta_len > size:
                    raise TraceError(
                        f"trace directory out of range in {self.path}")
                handle.seek(meta_off)
                blob = handle.read(meta_len)
            meta = json.loads(blob.decode("utf-8"))
        except TraceError:
            self._report_corrupt()
            raise
        except (OSError, ValueError, UnicodeDecodeError, struct.error) \
                as exc:
            self._report_corrupt()
            raise TraceError(
                f"unreadable v2 trace file {self.path}: {exc!r}") from exc
        self._payload_end = meta_off
        self._validate_meta(meta)

    def _validate_meta(self, meta: dict) -> None:
        try:
            columns = tuple(meta["columns"])
            dtypes = tuple(meta["dtypes"])
            rows = int(meta["rows"])
            frame_rows = int(meta["frame_rows"])
            frames = list(meta["frames"])
        except (KeyError, TypeError, ValueError) as exc:
            self._report_corrupt()
            raise TraceError(
                f"malformed trace directory in {self.path}: "
                f"{exc!r}") from exc
        missing = [name for name in COLUMNS if name not in columns]
        extra = [name for name in columns if name not in COLUMNS]
        if missing or extra:
            self._report_corrupt()
            raise TraceError(
                f"trace file {self.path} has wrong column set: "
                f"missing {missing}, unexpected {extra}")
        if dtypes != tuple(dtype.name for dtype in DTYPES):
            self._report_corrupt()
            raise TraceError(
                f"trace file {self.path} has wrong column dtypes: "
                f"{dtypes}")
        if rows < 0 or frame_rows < 1:
            self._report_corrupt()
            raise TraceError(
                f"trace file {self.path} declares invalid shape "
                f"(rows={rows}, frame_rows={frame_rows})")
        covered = 0
        for frame in frames:
            try:
                frame_count = int(frame["rows"])
                segments = frame["segments"]
                spans = [(int(segments[name][0]), int(segments[name][1]))
                         for name in COLUMNS]
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self._report_corrupt()
                raise TraceError(
                    f"malformed frame directory in {self.path}: "
                    f"{exc!r}") from exc
            for off, length in spans:
                if off < _HEADER.size or length < 0 \
                        or off + length > self._payload_end:
                    self._report_corrupt()
                    raise TraceError(
                        f"frame segment [{off}, {off + length}) out of "
                        f"range in {self.path}")
            if frame_count < 0:
                self._report_corrupt()
                raise TraceError(
                    f"frame declares {frame_count} rows in {self.path}")
            covered += frame_count
        if covered != rows:
            self._report_corrupt()
            raise TraceError(
                f"frame directory covers {covered} rows, file declares "
                f"{rows}: {self.path}")
        self.rows = rows
        self.frame_rows = frame_rows
        self._frames = frames

    # -- raw access ----------------------------------------------------

    def _data(self) -> np.ndarray:
        if self._mm is None:
            self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        return self._mm

    def _report_corrupt(self) -> None:
        if self._corrupt_reported:
            return
        self._corrupt_reported = True
        if self._on_corrupt is not None:
            try:
                self._on_corrupt()
            except Exception:  # pragma: no cover - callback safety net
                pass

    def _decode_frame(self, index: int, name: str,
                      out: np.ndarray) -> None:
        """Decode frame ``index`` of column ``name`` into ``out``."""
        offset, length = self._frames[index]["segments"][name]
        try:
            _decode_into(self._data()[offset:offset + length], out)
        except TraceError as exc:
            self._report_corrupt()
            raise TraceError(
                f"corrupt column {name!r} in frame {index} of "
                f"{self.path}: {exc}") from exc

    # -- decoded views -------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Decode one full column (all frames, nothing else)."""
        column = np.empty(self.rows, dtype=DTYPES[COLUMNS.index(name)])
        t0 = time.perf_counter()
        start = 0
        for index, frame in enumerate(self._frames):
            stop = start + frame["rows"]
            self._decode_frame(index, name, column[start:stop])
            start = stop
        self._note_decode(column.nbytes, time.perf_counter() - t0)
        return column

    def decode_range(self, start: int, stop: int) -> dict:
        """Decode all columns of rows ``[start, stop)`` — touching only
        the frames that cover the range."""
        if not (0 <= start <= stop <= self.rows):
            raise TraceError(
                f"slice [{start}, {stop}) out of range for trace of "
                f"length {self.rows}")
        arrays = {name: np.empty(stop - start, dtype=dtype)
                  for name, dtype in zip(COLUMNS, DTYPES)}
        t0 = time.perf_counter()
        frame_start = 0
        for index, frame in enumerate(self._frames):
            if frame_start >= stop:
                break
            frame_stop = frame_start + frame["rows"]
            lo, hi = max(start, frame_start), min(stop, frame_stop)
            if lo < hi:
                for name, column in arrays.items():
                    dest = column[lo - start:hi - start]
                    if hi - lo == frame["rows"]:
                        self._decode_frame(index, name, dest)
                        continue
                    # A frame the range cuts: its deltas run from the
                    # frame's first row, so decode it whole.
                    whole = np.empty(frame["rows"], dtype=column.dtype)
                    self._decode_frame(index, name, whole)
                    dest[:] = whole[lo - frame_start:hi - frame_start]
            frame_start = frame_stop
        self._note_decode(sum(a.nbytes for a in arrays.values()),
                          time.perf_counter() - t0)
        return arrays

    @staticmethod
    def _note_decode(nbytes: int, elapsed: float) -> None:
        if elapsed <= 0 or not nbytes:
            return
        from ..telemetry import TELEMETRY
        TELEMETRY.metrics.gauge("trace.codec.bytes_per_second",
                                op="decode").set(nbytes / elapsed)

    def close(self) -> None:
        self._mm = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrameReader({self.path}, rows={self.rows}, "
                f"frames={len(self._frames)})")
