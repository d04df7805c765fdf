"""Columnar instruction traces.

A trace is the interface between the run-time models (producers) and the
microarchitecture models (consumers). Committed rows live in one
preallocated row-major NumPy buffer (``int64``, shape ``(capacity, 8)``)
that grows by doubling behind an explicit cursor; two *staging* paths
feed it:

* the scalar append path — eight flat ``array`` columns the
  :class:`~repro.host.machine.HostMachine` appends to directly, drained
  into the buffer in bulk; and
* the burst path — a deferred emission queue owned by
  :class:`~repro.host.burst.BurstEngine`, registered here as a *flusher*
  so length queries and readers always see a consistent trace.

Traces past the ``REPRO_TRACE_SPILL_MB`` threshold migrate the buffer to
a memory-mapped file under the disk cache's ``spill/`` directory, so
10–100M-instruction traces stream through the page cache instead of
living wholly in RAM. Consumers then receive ``int64`` memmap-backed
column views; :meth:`InstructionTrace.save` always casts back to the
canonical column dtypes, so persisted bytes are identical with spill on
or off.

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

import os
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

#: Initial committed-buffer capacity in rows. 128K rows (8 MB) covers
#: small-to-medium traces outright, so most runs never pay a growth
#: copy; larger traces grow geometrically from here.
_INITIAL_ROWS = 1 << 17

#: Drain the scalar staging columns into the buffer past this many rows.
_STAGE_DRAIN_ROWS = 1 << 15

SPILL_ENV = "REPRO_TRACE_SPILL_MB"

_ROW_BYTES = 8 * 8  # eight int64 cells per row

_spill_seq = 0


def _spill_threshold_bytes() -> int | None:
    """Spill threshold from ``REPRO_TRACE_SPILL_MB`` (None = disabled)."""
    raw = os.environ.get(SPILL_ENV, "").strip()
    if not raw:
        return None
    try:
        mb = float(raw)
    except ValueError:
        return None
    if mb <= 0:
        return None
    return int(mb * 1024 * 1024)


def _spill_directory() -> Path | None:
    """The disk cache's ``spill/`` dir, or None when caching is off.

    Imported lazily: the host layer must stay importable without the
    experiments package, and spill is pointless without a cache root to
    govern the files (``repro cache gc`` evicts orphans).
    """
    try:
        from ..experiments.diskcache import DiskCache
    except ImportError:  # pragma: no cover - packaging safety net
        return None
    root = DiskCache().root
    if root is None:
        return None
    return Path(root) / "spill"


class InstructionTrace:
    """Append-only columnar buffer of host instructions."""

    def __init__(self) -> None:
        self._buf = np.zeros((_INITIAL_ROWS, 8), dtype=np.int64)
        self._n = 0  # committed rows in self._buf
        # Scalar staging columns: the machine's emit helpers bind and
        # append to these directly (array.append is far cheaper than a
        # per-row numpy assignment); they are drained in bulk.
        self._stage = tuple(array(code) for code in _TYPECODES)
        #: Optional deferred-emission queue (burst engine). Must expose
        #: ``pending_rows`` and ``flush()``.
        self._flusher = None
        self._sealed = False
        self._spill_bytes = _spill_threshold_bytes()
        self._spill_path: Path | None = None
        self._frozen: dict[str, np.ndarray] | None = None
        self._frozen_len = -1
        #: Lazy v2 reader backing this trace (see :meth:`_from_reader`).
        self._reader: _codec.FrameReader | None = None
        self._col_cache: dict[str, np.ndarray] = {}
        #: On-disk file known to hold exactly this trace's bytes; when
        #: live, pickling ships the path instead of the arrays.
        self._ref_path: Path | None = None
        self._ref_rows = -1

    # ------------------------------------------------------------------
    # Length and synchronization
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._reader is not None:
            return self._reader.rows
        n = self._n + len(self._stage[0])
        flusher = self._flusher
        if flusher is not None:
            n += flusher.pending_rows
        return n

    def _sync(self) -> None:
        """Drain staging and the burst queue into the committed buffer."""
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
        if self._sealed:
            raise TraceError("trace is frozen; late appends are invalid")
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
        if self._sealed:
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
        """Reserve ``count`` committed rows; return the start index.

        The caller must fill ``buffer()[start:start+count]`` completely.
        Used by the staging drain and the burst engine's flush.
        """
        if self._sealed:
            raise TraceError("trace is frozen; appending rows is invalid")
        needed = self._n + count
        if needed > self._buf.shape[0]:
            self._grow(needed)
        start = self._n
        self._n = needed
        return start

    def buffer(self) -> np.ndarray:
        """The committed row-major buffer (valid rows: ``[:alloc'd]``)."""
        return self._buf

    def _grow(self, needed_rows: int) -> None:
        # Grow 8x: geometric growth keeps total copy volume at ~1/7 of
        # the final capacity (vs ~1x for doubling), and the copies are
        # the only real cost here — rows past the cursor are written
        # before they are ever read, so the buffer is left uninitialized.
        cap = self._buf.shape[0]
        new_cap = max(cap * 8, needed_rows)
        spill = self._spill_bytes
        if (self._spill_path is None and spill is not None
                and new_cap * _ROW_BYTES >= spill):
            if self._spill_to_disk(new_cap):
                return
        if self._spill_path is not None:
            self._remap(new_cap)
            return
        grown = np.empty((new_cap, 8), dtype=np.int64)
        grown[:self._n] = self._buf[:self._n]
        self._buf = grown

    # ------------------------------------------------------------------
    # Spill-to-disk storage
    # ------------------------------------------------------------------

    def _spill_to_disk(self, cap_rows: int) -> bool:
        """Move the buffer to a memmap under the cache's spill dir."""
        global _spill_seq
        directory = _spill_directory()
        if directory is None:
            self._spill_bytes = None  # caching off: stay in memory
            return False
        try:
            directory.mkdir(parents=True, exist_ok=True)
            _spill_seq += 1
            stem = f"trace-{os.getpid()}-{_spill_seq}"
            path = directory / f"{stem}.bin"
            mm = np.memmap(path, dtype=np.int64, mode="w+",
                           shape=(cap_rows, 8))
            # Sidecar-last: the .json marks the spill file as live and
            # complete, mirroring the cache's commit protocol so gc can
            # treat sidecar-less files as partial writes.
            sidecar = directory / f"{stem}.json"
            sidecar.write_text(
                '{"kind": "trace_spill", "pid": %d}\n' % os.getpid(),
                encoding="utf-8")
        except OSError:
            self._spill_bytes = None  # unwritable spill dir: stay in RAM
            return False
        mm[:self._n] = self._buf[:self._n]
        self._buf = mm
        self._spill_path = path
        from ..telemetry import TELEMETRY
        TELEMETRY.metrics.counter("trace.spilled").inc()
        return True

    def _remap(self, cap_rows: int) -> None:
        """Grow the spill file in place and re-map the buffer."""
        path = self._spill_path
        assert path is not None
        old = self._buf
        if isinstance(old, np.memmap):
            old.flush()
        del old
        self._buf = np.memmap(path, dtype=np.int64, mode="r+",
                              shape=(cap_rows, 8))

    @property
    def spill_path(self) -> Path | None:
        """Backing spill file, when the trace has migrated to disk."""
        return self._spill_path

    def close(self) -> None:
        """Release the backing spill file and/or reader mapping."""
        reader = self._reader
        if reader is not None:
            reader.close()
        path = self._spill_path
        if path is None:
            return
        self._spill_path = None
        buf = self._buf
        # Detach from the memmap before unlinking; keep the committed
        # rows readable afterwards by pulling them back into memory.
        self._buf = np.array(buf[:self._n], dtype=np.int64, copy=True)
        del buf
        for victim in (path, path.with_suffix(".json")):
            try:
                victim.unlink()
            except OSError:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Pickling (cross-process fan-out)
    # ------------------------------------------------------------------

    def attach_cache_ref(self, path: str | Path) -> None:
        """Record that ``path`` holds exactly this trace's bytes.

        The disk cache calls this after a store or load; from then on
        pickling this trace (fan-out IPC) ships the path instead of
        the arrays, as long as the trace has not grown since and the
        file still exists. Receivers re-open the file — for v2 payloads
        that is a lazy mmap, so N same-host workers share one set of
        page-cache bytes instead of deserializing N private copies.
        """
        self._ref_path = Path(path)
        self._ref_rows = len(self)

    def _pickle_ref(self) -> Path | None:
        path = self._ref_path
        if path is None or self._ref_rows != len(self):
            return None
        if not path.exists():
            return None
        return path

    def _materialize(self) -> None:
        """Pull a reader-backed trace fully into memory (drops the
        reader). Used when the backing file may not outlive a pickle."""
        reader = self._reader
        if reader is None:
            return
        arrays = {name: self.column(name) for name in _COLUMNS}
        count = reader.rows
        self._reader = None
        self._col_cache = {}
        self._buf = np.zeros((max(count, 1), 8), dtype=np.int64)
        self._n = count
        for j, name in enumerate(_COLUMNS):
            self._buf[:count, j] = arrays[name]
        self._frozen = None
        self._frozen_len = -1

    def __getstate__(self) -> dict:
        # Drain staging and the burst queue first — the flusher holds
        # the (unpicklable) compiled kernel and its queues are
        # meaningless in another process.
        self._sync()
        ref = self._pickle_ref()
        if ref is not None:
            from ..telemetry import TELEMETRY
            TELEMETRY.metrics.counter("trace.pickle_refs").inc()
            return {"_pickle_ref": str(ref), "_pickle_rows": len(self)}
        if self._reader is not None:
            self._materialize()
        state = self.__dict__.copy()
        state["_flusher"] = None
        state["_reader"] = None
        state["_col_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        ref = state.get("_pickle_ref")
        if ref is None:
            self.__dict__.update(state)
            return
        # By-reference pickle: re-open the cache/trace file. If it was
        # evicted in flight this raises TraceError, which the supervised
        # fan-out treats like any worker failure and recomputes.
        loaded = type(self).load(ref)
        if len(loaded) != state["_pickle_rows"]:
            raise TraceError(
                f"trace reference {ref} holds {len(loaded)} rows, "
                f"expected {state['_pickle_rows']} (file changed "
                "between pickle and unpickle)")
        self.__dict__.update(loaded.__dict__)

    # ------------------------------------------------------------------
    # Freeze
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Seal the trace: further appends (any path) fail loudly."""
        self._sync()
        self._sealed = True

    @property
    def frozen(self) -> bool:
        return self._sealed

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Return the trace as numpy arrays (cached by length).

        Producers append through staging buffers for speed, so the cache
        is keyed on trace length rather than invalidated on every
        append. In-memory traces are returned with the canonical narrow
        dtypes; spilled traces return ``int64`` memmap-backed column
        views so reading a 100M-row trace does not materialize it.
        """
        self._sync()
        reader = self._reader
        if reader is not None:
            if self._frozen is None:
                self._frozen = {name: self.column(name)
                                for name in _COLUMNS}
                self._frozen_len = reader.rows
            return self._frozen
        if self._frozen is None or self._frozen_len != self._n:
            self._frozen_len = self._n
            n = self._n
            buf = self._buf
            if self._spill_path is not None:
                self._frozen = {name: buf[:n, j]
                                for j, name in enumerate(_COLUMNS)}
            else:
                self._frozen = {
                    name: np.ascontiguousarray(buf[:n, j], dtype=dtype)
                    for j, (name, dtype) in
                    enumerate(zip(_COLUMNS, _DTYPES))
                }
        return self._frozen

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise TraceError(f"unknown trace column: {name!r}")
        reader = self._reader
        if reader is not None and self._frozen is None:
            # Per-column lazy decode: a consumer that only needs
            # ``category`` never pays for the pc/addr varint streams.
            cached = self._col_cache.get(name)
            if cached is None:
                cached = reader.column(name)
                self._col_cache[name] = cached
            return cached
        return self.arrays()[name]

    def category_counts(self) -> np.ndarray:
        """Instruction count per category value (index = category)."""
        if len(self) == 0:
            return np.zeros(32, dtype=np.int64)
        return np.bincount(self.column("category"), minlength=32)

    def _block(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Canonical-dtype columns for rows ``[start, stop)`` read
        straight from the committed buffer — one frame's worth at a
        time, so encoding a spilled trace streams through the memmap
        without materializing full columns."""
        buf = self._buf
        return {name: np.ascontiguousarray(buf[start:stop, j],
                                           dtype=dtype)
                for j, (name, dtype) in
                enumerate(zip(_COLUMNS, _DTYPES))}

    def save(self, path: str | Path) -> None:
        """Persist the trace as v2 columnar frames (:mod:`.codec`).

        Columns are always cast to the canonical dtypes, so the bytes
        on disk are identical whether or not the trace spilled.
        """
        self._sync()
        reader = self._reader
        if reader is not None and self._frozen is None:
            _codec.encode_file(path, reader.decode_range, reader.rows)
        else:
            _codec.encode_file(path, self._block, len(self))

    @classmethod
    def _from_reader(cls, reader: "_codec.FrameReader",
                     ) -> "InstructionTrace":
        """A sealed trace lazily backed by an encoded file — columns
        and row ranges decode on demand; the full ``(n, 8)`` row-major
        buffer is never materialized."""
        trace = cls.__new__(cls)
        trace._buf = np.zeros((0, 8), dtype=np.int64)
        trace._n = 0
        trace._stage = tuple(array(code) for code in _TYPECODES)
        trace._flusher = None
        trace._sealed = True
        trace._spill_bytes = None
        trace._spill_path = None
        trace._frozen = None
        trace._frozen_len = -1
        trace._reader = reader
        trace._col_cache = {}
        trace._ref_path = Path(reader.path)
        trace._ref_rows = reader.rows
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

        On a reader-backed (v2-loaded) trace this decodes only the
        frames covering the range — block-mapped access, never the
        whole file.
        """
        if not (0 <= start <= stop <= len(self)):
            raise TraceError(
                f"slice [{start}, {stop}) out of range for trace of "
                f"length {len(self)}")
        if self._reader is not None and self._frozen is None:
            return self._reader.decode_range(start, stop)
        return {name: arr[start:stop]
                for name, arr in self.arrays().items()}
