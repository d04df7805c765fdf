"""Columnar instruction traces.

A trace is the interface between the run-time models (producers) and the
microarchitecture models (consumers). It has two forms.

**Live**, while a guest runs. Committed rows land in a fixed-size
row-major NumPy buffer (``int64``, shape ``(rows, 8)``) behind an
explicit cursor; each time it fills, its rows move into one growable
region per column, in the canonical narrow dtypes, so a live trace costs
35 bytes per row plus the buffer, never a 64 B/row image of the whole
run. A region is an anonymous private memory mapping that doubles with
``mmap.resize`` (``mremap`` moves page tables, not bytes; where it is
unavailable the region is copied into a larger mapping). Two *staging*
paths feed the buffer:

* the scalar append path — eight flat ``array`` columns the
  :class:`~repro.host.machine.HostMachine` appends to directly, drained
  into the buffer in bulk; and
* the burst path — a deferred emission queue owned by
  :class:`~repro.host.burst.BurstEngine`, registered here as a *flusher*
  so length queries and readers always see a consistent trace.

A region cannot grow while a view of it is alive, so a live trace's
readers hand out copies.

**Finished**, once :meth:`InstructionTrace.freeze` has run (the
experiment runner freezes every trace as its guest run ends) or when the
trace was loaded from an encoded file. A finished trace is one dict of
decoded columns in the canonical narrow dtypes, 35 bytes per row.
Freezing moves the last buffered rows out, trims each region to the
trace's length and keeps it as the column (no join, no copy: a column
is unmapped when the last array over it goes), and drops the buffer,
the staging columns and the flusher, and with the flusher the machine
and burst engine that produced the trace. A loaded trace decodes its
columns from the file (:mod:`.codec`) into the same dict on first use,
and unmaps the file once the last one is decoded, so it too costs
35 bytes per row.

Columns
-------
pc        static program counter of the host instruction
kind      :class:`~repro.host.isa.InstrKind` value
category  :class:`~repro.categories.OverheadCategory` value
addr      effective address (memory ops) or branch target (control ops)
size      access size in bytes (memory ops only)
dep       distance, in instructions, back to the producer this instruction
          depends on (0 = no register dependence)
flags     FLAG_TAKEN / FLAG_INDIRECT / FLAG_COND bits
origin    origin PC for caller-dependent annotation (Section IV-B.1)
"""

from __future__ import annotations

import mmap
from array import array
from pathlib import Path

import numpy as np

from ..errors import TraceError
from . import codec as _codec

_COLUMNS = ("pc", "kind", "category", "addr", "size", "dep", "flags",
            "origin")

#: Canonical on-disk / consumer-facing dtype per column (matches the
#: ``array`` typecodes the original implementation used).
_TYPECODES = ("q", "b", "b", "q", "i", "i", "b", "q")
_DTYPES = tuple(np.dtype(code) for code in _TYPECODES)

# The codec owns the persisted format; the column schemas must agree.
assert _COLUMNS == _codec.COLUMNS and _DTYPES == _codec.DTYPES

#: Rows the live buffer holds before they move into the column regions.
#: A single burst flush larger than this widens the buffer to fit it.
_BUFFER_ROWS = 1 << 17

#: Drain the scalar staging columns into the buffer past this many rows.
_STAGE_DRAIN_ROWS = 1 << 15


def _anonymous_map(size: int) -> mmap.mmap:
    """A private anonymous mapping: zero pages that cost nothing until
    written, and that ``mremap`` can grow (a shared one cannot)."""
    size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)


class _Region:
    """One column's committed rows of a live trace, in one mapping."""

    __slots__ = ("dtype", "map", "rows")

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = dtype
        self.map: mmap.mmap | None = None
        self.rows = 0

    def append(self, values: np.ndarray) -> None:
        """Cast ``values`` into the next rows, growing the mapping."""
        itemsize = self.dtype.itemsize
        used = self.rows * itemsize
        need = used + len(values) * itemsize
        if self.map is None:
            self.map = _anonymous_map(need)
        elif need > len(self.map):
            size = max(need, 2 * len(self.map))
            try:
                self.map.resize(size)
            except SystemError:  # no mremap: copy into a larger map
                fresh = _anonymous_map(size)
                fresh[:used] = self.map[:used]
                self.map.close()
                self.map = fresh
        np.frombuffer(self.map, self.dtype, count=len(values),
                      offset=used)[:] = values
        self.rows += len(values)

    def copy(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows ``[start, stop)`` as a fresh array (the map can still
        grow)."""
        stop = self.rows if stop is None else stop
        if self.map is None or start >= stop:
            return np.empty(0, dtype=self.dtype)
        return np.frombuffer(self.map, self.dtype, count=stop - start,
                             offset=start * self.dtype.itemsize).copy()

    def finish(self) -> np.ndarray:
        """The rows as one array over the mapping, trimmed to fit.

        The region must not be appended to afterwards.
        """
        if self.map is None:
            return np.empty(0, dtype=self.dtype)
        try:
            self.map.resize(self.rows * self.dtype.itemsize)
        except SystemError:  # no mremap: the untouched tail stays
            pass
        return np.frombuffer(self.map, self.dtype, count=self.rows)


class InstructionTrace:
    """Columnar host-instruction trace: appendable while live, read-only
    once finished (see the module docstring)."""

    def __init__(self) -> None:
        #: Live row buffer; None once the trace is finished. Rows past
        #: the cursor are written before they are ever read, so it is
        #: left uninitialized.
        self._buf: np.ndarray | None = np.empty((_BUFFER_ROWS, 8),
                                                dtype=np.int64)
        #: Rows of ``_buf`` in use.
        self._fill = 0
        #: Committed rows: the regions' and the buffer's while live, the
        #: whole trace once finished.
        self._n = 0
        #: Live only: per column, the rows moved out of the buffer.
        self._regions: tuple[_Region, ...] | None = tuple(
            _Region(dtype) for dtype in _DTYPES)
        # Scalar staging columns: the machine's emit helpers bind and
        # append to these directly (array.append is far cheaper than a
        # per-row numpy assignment); they are drained in bulk.
        self._stage = tuple(array(code) for code in _TYPECODES)
        #: Optional deferred-emission queue (burst engine). Must expose
        #: ``pending_rows`` and ``flush()``.
        self._flusher = None
        #: Finished only: the decoded canonical columns (a loaded trace
        #: fills them column by column).
        self._columns: dict[str, np.ndarray] = {}
        #: Lazy v2 reader backing a loaded trace (see :meth:`_from_reader`).
        self._reader: _codec.FrameReader | None = None

    # ------------------------------------------------------------------
    # Length and synchronization
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._buf is None:
            return self._n
        n = self._n + len(self._stage[0])
        flusher = self._flusher
        if flusher is not None:
            n += flusher.pending_rows
        return n

    def _sync(self) -> None:
        """Drain staging and the burst queue into the committed rows."""
        if self._buf is None:
            return
        flusher = self._flusher
        if flusher is not None and flusher.pending_rows:
            flusher.flush()
        if len(self._stage[0]):
            self._drain_stage()

    def _drain_stage(self) -> None:
        stage = self._stage
        k = len(stage[0])
        if not k:
            return
        start = self.alloc_rows(k)
        buf = self._buf
        for j, (column, dtype) in enumerate(zip(stage, _DTYPES)):
            buf[start:start + k, j] = np.frombuffer(column, dtype=dtype)
            del column[:]

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------

    def append(self, pc: int, kind: int, category: int, addr: int = 0,
               size: int = 0, dep: int = 1, flags: int = 0,
               origin: int = 0) -> None:
        """Append one instruction. Hot path: keep argument handling flat."""
        if self._buf is None:
            raise TraceError("trace is frozen; append is invalid")
        flusher = self._flusher
        if flusher is not None and flusher.pending_rows:
            flusher.flush()  # keep row order across emission paths
        stage = self._stage
        stage[0].append(pc)
        stage[1].append(kind)
        stage[2].append(category)
        stage[3].append(addr)
        stage[4].append(size)
        stage[5].append(dep)
        stage[6].append(flags)
        stage[7].append(origin)
        if len(stage[0]) >= _STAGE_DRAIN_ROWS:
            self._drain_stage()

    def alloc_rows(self, count: int) -> int:
        """Reserve ``count`` committed rows; return their start index in
        :meth:`buffer`.

        The caller must fill ``buffer()[start:start+count]`` completely
        before the next reservation. Used by the staging drain and the
        burst engine's flush.
        """
        buf = self._buf
        if buf is None:
            raise TraceError("trace is frozen; appending rows is invalid")
        if self._fill + count > buf.shape[0]:
            self._move_buffer()
            if count > buf.shape[0]:
                self._buf = np.empty((count, 8), dtype=np.int64)
        start = self._fill
        self._fill += count
        self._n += count
        return start

    def buffer(self) -> np.ndarray | None:
        """The live row-major buffer (rows in use: ``[:start+count]`` of
        the last reservation); None once the trace is finished."""
        return self._buf

    def _move_buffer(self) -> None:
        """Move the buffered rows into the narrow column regions."""
        k = self._fill
        if not k:
            return
        buf = self._buf
        for j, region in enumerate(self._regions):
            region.append(buf[:k, j])
        self._fill = 0

    def _committed_regions(self) -> tuple[_Region, ...]:
        """A live trace's regions, holding every committed row."""
        self._sync()
        self._move_buffer()
        return self._regions

    def close(self) -> None:
        """Release a loaded trace's file mapping (it re-maps on use).

        Decoding the last column calls it.
        """
        if self._reader is not None:
            self._reader.close()

    # ------------------------------------------------------------------
    # Freeze
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Finish the trace: seal every append path, keep only columns.

        Drains the burst queue and the staging columns, moves the last
        buffered rows into the regions, keeps each trimmed region as its
        column, and drops the row buffer, the staging arrays and the
        flusher, so the trace no longer keeps the machine and burst
        engine that produced it alive. Idempotent.
        """
        if self._buf is None:
            return
        regions = self._committed_regions()
        self._buf = None
        self._columns = {name: region.finish()
                         for name, region in zip(_COLUMNS, regions)}
        self._regions = None
        self._stage = None
        self._flusher = None

    @property
    def frozen(self) -> bool:
        return self._buf is None

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Return the trace as numpy arrays in the canonical dtypes.

        A finished trace returns its columns, decoding any a loaded
        trace has not touched yet. A live trace moves its buffered rows
        out and returns copies of its regions.
        """
        if self._buf is not None:
            return {name: region.copy() for name, region
                    in zip(_COLUMNS, self._committed_regions())}
        columns = self._columns
        if len(columns) < len(_COLUMNS):
            self._columns = columns = {
                name: self.column(name) for name in _COLUMNS}
        return columns

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise TraceError(f"unknown trace column: {name!r}")
        if self._buf is not None:
            return self._committed_regions()[_COLUMNS.index(name)].copy()
        cached = self._columns.get(name)
        if cached is None:
            # Per-column lazy decode: a consumer that only needs
            # ``category`` never pays for the pc/addr varint streams.
            cached = self._columns[name] = self._reader.column(name)
            if len(self._columns) == len(_COLUMNS):
                # Every column is a decoded copy now: unmap the file,
                # whose pages would otherwise add 10 B/row to the
                # 35 B/row the columns cost.
                self.close()
        return cached

    def category_counts(self) -> np.ndarray:
        """Instruction count per category value (index = category)."""
        if len(self) == 0:
            return np.zeros(32, dtype=np.int64)
        return np.bincount(self.column("category"), minlength=32)

    def save(self, path: str | Path) -> None:
        """Persist the trace as v2 columnar frames (:mod:`.codec`).

        Live or finished, the frames encode the same canonical columns,
        so a live trace and the same trace frozen save identical bytes.
        """
        self._sync()
        _codec.encode_file(path, self.slice_view, len(self))

    @classmethod
    def _from_reader(cls, reader: "_codec.FrameReader",
                     ) -> "InstructionTrace":
        """A finished trace lazily backed by an encoded file — columns
        and row ranges decode on demand; the full ``(n, 8)`` row-major
        buffer is never materialized."""
        trace = cls.__new__(cls)
        trace._buf = None
        trace._fill = 0
        trace._n = reader.rows
        trace._regions = None
        trace._stage = None
        trace._flusher = None
        trace._columns = {}
        trace._reader = reader
        return trace

    @classmethod
    def load(cls, path: str | Path) -> "InstructionTrace":
        """Load a trace stored with :meth:`save`, reader-backed (lazy).

        A file that is not a v2 trace raises a :class:`TraceError`
        naming the path.
        """
        return cls._from_reader(_codec.FrameReader(path))

    def slice_view(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Read-only view of rows ``[start, stop)`` as numpy arrays.

        On a loaded trace whose columns are not all decoded this decodes
        only the frames covering the range — block-mapped access, never
        the whole file.
        """
        if not (0 <= start <= stop <= len(self)):
            raise TraceError(
                f"slice [{start}, {stop}) out of range for trace of "
                f"length {len(self)}")
        if self._buf is not None:
            return {name: region.copy(start, stop) for name, region
                    in zip(_COLUMNS, self._committed_regions())}
        if len(self._columns) < len(_COLUMNS):
            return self._reader.decode_range(start, stop)
        return {name: arr[start:stop]
                for name, arr in self.arrays().items()}
