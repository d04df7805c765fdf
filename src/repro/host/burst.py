"""Deferred burst emission: queue, template recorder, vectorized flush.

The scalar emit path costs one Python method call plus eight
``array.append`` calls *per host instruction*. The burst engine turns
each hot emit helper into roughly two list appends *per helper call*
(one template id, a few dynamic operands), and materializes rows later
in large vectorized batches — NumPy slice stamping, or the optional
compiled kernel in :mod:`repro.host._emit_kernel`.

Templates are not hand-written: they are **recorded from the scalar
emission code itself**. At first use, the engine temporarily swaps the
machine's ``_emit`` for a collector, runs the helper's emission-only
body a handful of times while varying each declared dynamic input by a
large delta, and solves the per-cell integer-linear coefficients
(``cell = static + coef * dyn``). A final probe run verifies the
reconstruction; any nonlinearity refuses the template and the helper
permanently falls back to the scalar path. Because recording happens
lazily at the first real call, site interning order — and therefore
every PC in the trace — is identical to a scalar run, which is what
makes the backends bit-identical by construction.

Ordering is hazard-free by construction as well: in burst mode *every*
emission goes through the queue. Templated helpers enqueue a template
id; irregular emissions (``HostMachine._emit``) enqueue a RAW entry
carrying all eight row values. The queue drains in FIFO order into the
trace's committed buffer, so interleavings like dealloc cascades behind
a decref burst land exactly where the scalar path would put them.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..errors import TraceError

#: Reserved template id for raw (pre-computed) rows.
RAW_TID = 0

#: Flush the queue once this many *entries* are queued. The hot
#: enqueue path only checks ``len(order)`` — the exact row count is
#: computed once per flush from the template table instead of being
#: tracked per enqueue. Entries average a handful of rows each, so
#: 16K entries is a few MB of output: large enough to amortize the
#: per-flush fixed cost, small next to the committed buffer.
FLUSH_ENTRIES = 16384

#: Probe delta for coefficient solving (large, so small additive
#: constants in the emission code cannot alias a coefficient).
_DELTA = 1 << 22

#: Synthetic base values for implicit machine-attribute inputs.
_IMPLICIT_BASE = {"origin": 1 << 33, "sp": (1 << 34) + 4096}


class Template:
    """One recorded burst shape: static rows plus linear fixups."""

    __slots__ = ("tid", "rows", "arity", "static", "fixups", "implicit")

    def __init__(self, tid: int, static: np.ndarray,
                 fixups: list[tuple[int, int, int, int]],
                 arity: int, implicit: tuple[str, ...] = ()) -> None:
        self.tid = tid
        self.rows = int(static.shape[0])
        self.arity = arity
        self.static = static
        self.fixups = fixups  # (row, col, dyn_index, coefficient)
        #: The implicit machine inputs the rows read, in queue order.
        self.implicit = implicit


class BurstEngine:
    """Per-machine deferred emission queue and template registry."""

    def __init__(self, machine, use_kernel: bool = True) -> None:
        self.machine = machine
        self.trace = machine.trace
        # Machine-width queues: ``array('q')`` appends as fast as a
        # list, and the flush converts to NumPy zero-copy via
        # ``np.frombuffer`` instead of walking a list of PyObjects.
        self.order = array("q")
        self.dyn = array("q")
        raw = Template(RAW_TID, np.zeros((1, 8), dtype=np.int64),
                       [(0, j, j, 1) for j in range(8)], arity=8)
        self.templates: list[Template] = [raw]
        self._rows_tab = np.array([1], dtype=np.int64)
        self._arity_tab = np.array([8], dtype=np.int64)
        self._tabs_dirty = False
        self._kernel = None
        if use_kernel:
            from ._emit_kernel import get_kernel
            self._kernel = get_kernel()
        self._packed = None  # packed template tables for the kernel
        self.trace._flusher = self

    def __getstate__(self) -> dict:
        # The compiled kernel (ctypes handles) cannot cross a process
        # boundary; it is re-acquired lazily on the other side.
        state = self.__dict__.copy()
        state["_kernel"] = self._kernel is not None
        state["_packed"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        want_kernel = state.pop("_kernel")
        self.__dict__.update(state)
        self._kernel = None
        if want_kernel:
            from ._emit_kernel import get_kernel
            self._kernel = get_kernel()

    @property
    def pending_rows(self) -> int:
        """Exact queued-row count (computed on demand, never tracked)."""
        order = self.order
        if not order:
            return 0
        if self._tabs_dirty:
            self._rebuild_tabs()
        return int(self._rows_tab[
            np.frombuffer(order, dtype=np.int64)].sum())

    # ------------------------------------------------------------------
    # Template recording
    # ------------------------------------------------------------------

    def record(self, thunk, dyn_base: list[int],
               implicit: tuple[str, ...] = ()) -> int | None:
        """Record ``thunk`` into a template; return its id (or None).

        ``thunk(values)`` must run the helper's *emission-only* body
        with the declared dynamic inputs ``values`` (same length as
        ``dyn_base``) — no semantic side effects. ``implicit`` names
        machine attributes (``origin``, ``sp``) that the emission reads;
        they become trailing dynamic inputs the caller appends at queue
        time — only those the rows actually read, which the template's
        ``implicit`` lists. Returns None when the emission is not
        integer-linear in the inputs, in which case the caller must
        keep using the scalar path for this shape.
        """
        machine = self.machine
        saved_emit = machine._emit
        saved_origin = machine.origin
        saved_sp = machine.sp
        # Recording must run the *scalar* emission code: pop the
        # burst-mode instance shadows (c_call helpers, raw single-row
        # emitters) so the thunk's rows reach the collector through the
        # class-level bodies instead of the raw queue.
        from .machine import BURST_SHADOWED
        saved_shadows = {}
        for name in BURST_SHADOWED:
            if name in machine.__dict__:
                saved_shadows[name] = machine.__dict__.pop(name)
        n_decl = len(dyn_base)
        names = list(implicit)
        base = [int(v) for v in dyn_base] + \
            [_IMPLICIT_BASE[name] for name in names]
        n_inputs = len(base)

        def run(values: list[int]) -> list[list[int]]:
            rows: list[list[int]] = []

            def collect(pc, kind, cat, addr, size, dep, flags):
                rows.append([pc, kind, cat, addr, size, dep, flags,
                             machine.origin])

            for name, value in zip(names, values[n_decl:]):
                setattr(machine, name, value)
            machine._emit = collect
            try:
                thunk(values[:n_decl])
            finally:
                machine._emit = saved_emit
                machine.origin = saved_origin
                machine.sp = saved_sp
            return rows

        try:
            rows0 = run(base)
            k = len(rows0)
            coefs: dict[tuple[int, int], list[int]] = {}
            ok = True
            for j in range(n_inputs):
                probe = list(base)
                probe[j] += _DELTA
                rows_j = run(probe)
                if len(rows_j) != k:
                    ok = False
                    break
                for r in range(k):
                    for c in range(8):
                        diff = rows_j[r][c] - rows0[r][c]
                        if diff == 0:
                            continue
                        if diff % _DELTA:
                            ok = False
                            break
                        coefs.setdefault((r, c), [0] * n_inputs)[j] = \
                            diff // _DELTA
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                return None
            # Verify with a distinct multiplier per input to catch
            # cross-talk between inputs.
            verify = [value + (j + 2) * _DELTA
                      for j, value in enumerate(base)]
            rows_v = run(verify)
            if len(rows_v) != k:
                return None
            static = np.zeros((k, 8), dtype=np.int64)
            fixups: list[tuple[int, int, int, int]] = []
            for r in range(k):
                for c in range(8):
                    cell_coefs = coefs.get((r, c))
                    value = rows0[r][c]
                    if cell_coefs is not None:
                        for j, coef in enumerate(cell_coefs):
                            value -= coef * base[j]
                            if coef:
                                fixups.append((r, c, j, coef))
                    static[r, c] = value
                    predicted = value
                    if cell_coefs is not None:
                        for j, coef in enumerate(cell_coefs):
                            predicted += coef * verify[j]
                    if predicted != rows_v[r][c]:
                        return None
        finally:
            machine._emit = saved_emit
            machine.origin = saved_origin
            machine.sp = saved_sp
            machine.__dict__.update(saved_shadows)
        # Implicit inputs no row reads are dropped, so the queue never
        # carries them.
        read = {j for _, _, j, _ in fixups}
        keep = list(range(n_decl)) + [j for j in range(n_decl, n_inputs)
                                      if j in read]
        index = {j: i for i, j in enumerate(keep)}
        fixups = [(r, c, index[j], coef) for r, c, j, coef in fixups]
        tid = len(self.templates)
        self.templates.append(Template(
            tid, static, fixups, len(keep),
            tuple(names[j - n_decl] for j in keep[n_decl:])))
        self._tabs_dirty = True
        return tid

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------

    def _rebuild_tabs(self) -> None:
        self._rows_tab = np.array(
            [t.rows for t in self.templates], dtype=np.int64)
        self._arity_tab = np.array(
            [t.arity for t in self.templates], dtype=np.int64)
        self._packed = None
        self._tabs_dirty = False

    def flush(self) -> None:
        """Materialize every queued entry into the trace buffer."""
        order = self.order
        if not order:
            return
        trace = self.trace
        if trace.frozen:
            raise TraceError(
                "trace is frozen; flushing queued burst emissions is "
                "invalid")
        trace._drain_stage()  # staged rows predate the queued entries
        if self._tabs_dirty:
            self._rebuild_tabs()
        order_arr = np.frombuffer(order, dtype=np.int64)
        dyn_arr = np.frombuffer(self.dyn, dtype=np.int64)
        total = int(self._rows_tab[order_arr].sum())
        start = trace.alloc_rows(total)
        buf = trace.buffer()
        if self._kernel is not None:
            self._flush_kernel(order_arr, dyn_arr, buf, start, total)
        else:
            self._flush_numpy(order_arr, dyn_arr, buf, start)
        # Clear in place (the frombuffer views must be dropped first —
        # an array cannot resize while exporting its buffer). Keeping
        # the array objects' identity stable lets hot enqueue sites
        # cache the bound ``append``/``extend`` methods across flushes.
        del order_arr, dyn_arr
        del order[:]
        del self.dyn[:]

    def _flush_numpy(self, order_arr: np.ndarray, dyn_arr: np.ndarray,
                     buf: np.ndarray, start: int) -> None:
        rows_per = self._rows_tab[order_arr]
        starts = np.empty(len(order_arr), dtype=np.int64)
        starts[0] = start
        np.cumsum(rows_per[:-1], out=starts[1:])
        starts[1:] += start
        dstarts = np.empty(len(order_arr), dtype=np.int64)
        dstarts[0] = 0
        arity_per = self._arity_tab[order_arr]
        np.cumsum(arity_per[:-1], out=dstarts[1:])
        for tid in np.unique(order_arr):
            template = self.templates[tid]
            sel = np.nonzero(order_arr == tid)[0]
            entry_starts = starts[sel]
            entry_dyn = dstarts[sel]
            if tid == RAW_TID:
                buf[entry_starts] = \
                    dyn_arr[entry_dyn[:, None] + np.arange(8)]
                continue
            k = template.rows
            idx = (entry_starts[:, None]
                   + np.arange(k, dtype=np.int64)).ravel()
            buf[idx] = np.broadcast_to(
                template.static,
                (len(entry_starts), k, 8)).reshape(-1, 8)
            for row, col, dyn_index, coef in template.fixups:
                values = dyn_arr[entry_dyn + dyn_index]
                if coef == 1:
                    buf[entry_starts + row, col] += values
                else:
                    buf[entry_starts + row, col] += coef * values

    def _flush_kernel(self, order_arr: np.ndarray, dyn_arr: np.ndarray,
                      buf: np.ndarray, start: int, total: int) -> None:
        if self._packed is None:
            self._pack_templates()
        statics, offs, rows, arity, fix_off, fix_cnt, fixups = \
            self._packed
        out = buf[start:start + total]
        written = self._kernel.burst_flush(
            order_arr, len(order_arr), dyn_arr, statics, offs, rows,
            arity, fix_off, fix_cnt, fixups, out)
        if written != total:  # pragma: no cover - defensive
            raise TraceError(
                f"burst kernel wrote {written} rows, expected {total}")

    def _pack_templates(self) -> None:
        """Concatenate template tables into flat kernel-ready arrays."""
        statics_parts: list[np.ndarray] = []
        offs, rows, arity, fix_off, fix_cnt = [], [], [], [], []
        fixups_parts: list[int] = []
        row_cursor = 0
        fix_cursor = 0
        for template in self.templates:
            offs.append(row_cursor)
            rows.append(template.rows)
            arity.append(template.arity)
            statics_parts.append(template.static)
            row_cursor += template.rows
            fix_off.append(fix_cursor)
            fix_cnt.append(len(template.fixups))
            for fixup in template.fixups:
                fixups_parts.extend(fixup)
            fix_cursor += len(template.fixups)
        self._packed = (
            np.ascontiguousarray(np.concatenate(statics_parts)),
            np.array(offs, dtype=np.int64),
            np.array(rows, dtype=np.int64),
            np.array(arity, dtype=np.int64),
            np.array(fix_off, dtype=np.int64),
            np.array(fix_cnt, dtype=np.int64),
            np.array(fixups_parts or [0], dtype=np.int64),
        )
