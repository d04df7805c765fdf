"""Generational garbage collector for the PyPy-model runtime.

The design follows Section II-C and the PyPy documentation the paper
cites: objects are bump-allocated in a *nursery* of configurable size;
when it fills, a copying minor collection moves the survivors to the old
space and resets the bump pointer; the old space is collected by a
mark-sweep major collection when it has grown enough.

Every collector action emits real memory traffic at real simulated
addresses — tracing loads walk the reachable objects, copies read the
nursery and write the old space. This is the mechanism behind Figures
10-17: a nursery larger than the LLC is swept by the allocator faster
than the cache can retain it, so allocation stores miss; a small nursery
stays cache-resident but forces frequent collections.
"""

from __future__ import annotations

from ...categories import OverheadCategory
from ...config import GCConfig
from ...errors import AllocationError
from ...telemetry import TELEMETRY
from ...objects.model import (
    GuestObject,
    PyDict,
    PyInstance,
    PyList,
    gc_children,
)

_GC = int(OverheadCategory.GARBAGE_COLLECTION)
_ALLOC = int(OverheadCategory.OBJECT_ALLOCATION)

#: Objects larger than this fraction of the nursery go straight to the
#: old space (the standard "large object" escape hatch).
_LARGE_FRACTION = 8


class GenerationalGC:
    """Nursery + old space with copying minor and mark-sweep major GC."""

    def __init__(self, vm, config: GCConfig) -> None:
        self.vm = vm
        self.config = config
        machine = vm.machine
        self.machine = machine
        self.nursery = machine.space.nursery
        self.old = machine.space.old
        if self.nursery.size != config.nursery_size:
            raise AllocationError(
                "address space nursery size does not match GCConfig "
                f"({self.nursery.size} != {config.nursery_size})")
        #: Guest objects currently allocated in the nursery.
        self.nursery_objects: list[GuestObject] = []
        #: Old objects written since the last minor GC (remembered set).
        self.remembered: dict[int, GuestObject] = {}
        self._last_major_live = 0
        self._major_threshold = config.major_initial_threshold
        self.s_alloc = machine.site("gc.nursery_alloc")
        self.s_barrier = machine.site("gc.write_barrier")
        self.s_trace = machine.site("gc.trace")
        self.s_copy = machine.site("gc.copy")
        self.s_major = machine.site("gc.major")
        #: Cycle-level accounting for the analysis layer.
        self.minor_gc_count = 0
        self.major_gc_count = 0
        self.copied_bytes = 0
        self.promoted_objects = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc_object(self, obj: GuestObject, category: int = _ALLOC) -> None:
        size = obj.size_bytes()
        obj.addr = self.alloc_bytes(size, category)
        if self.nursery.contains(obj.addr):
            self.nursery_objects.append(obj)
        stats = self.vm.stats
        stats.allocations += 1
        stats.allocated_bytes += size

    def alloc_bytes(self, size: int, category: int = _ALLOC) -> int:
        """Bump-allocate; runs a minor collection when the nursery fills."""
        if size * _LARGE_FRACTION > self.nursery.size:
            return self._alloc_old(size, category)
        try:
            addr = self.nursery.bump(size)
        except AllocationError:
            self.minor_collect()
            addr = self.nursery.bump(size)
        self._emit_bump(addr, size, category)
        return addr

    def _alloc_old(self, size: int, category: int) -> int:
        addr = self.old.bump(size)
        self._emit_bump(addr, size, category)
        return addr

    def _emit_bump(self, addr: int, size: int, category: int) -> None:
        m = self.machine
        if m.suppressed:
            jit = getattr(self.vm, "jit", None)
            if jit is not None:
                jit.pending_allocs.append((addr, size))
            return
        # Inline bump: add, compare against nursery top, branch.
        m.alu(self.s_alloc, category, n=2)
        m.branch(self.s_alloc + 8, category, taken=False)
        # Object initialization sweeps the fresh memory.
        m.touch_range(self.s_alloc + 12, category, addr, size, write=True)

    # ------------------------------------------------------------------
    # Write barrier
    # ------------------------------------------------------------------

    def write_barrier(self, obj: GuestObject) -> None:
        m = self.machine
        if not m.suppressed:
            m.load(self.s_barrier, _GC, obj.addr)
            m.branch(self.s_barrier + 8, _GC, taken=False)
        if not self.nursery.contains(obj.addr) and id(obj) not in \
                self.remembered:
            self.remembered[id(obj)] = obj
            if not m.suppressed:
                m.store(self.s_barrier + 12, _GC, obj.addr)

    # ------------------------------------------------------------------
    # Minor collection
    # ------------------------------------------------------------------

    def _roots(self) -> list[GuestObject]:
        roots: list[GuestObject] = []
        m = self.machine
        for frame in self.vm.frames:
            m.touch_range(self.s_trace, _GC, frame.addr,
                          frame.size_bytes())
            for obj in frame.locals:
                if obj is not None:
                    roots.append(obj)
            roots.extend(frame.stack)
        for obj in self.vm.globals.values():
            m.load(self.s_trace + 4, _GC, obj.addr)
            roots.append(obj)
        for obj in self.remembered.values():
            m.load(self.s_trace + 8, _GC, obj.addr)
            roots.append(obj)
        return roots

    def minor_collect(self) -> None:
        """Copying collection of the nursery.

        Survivors (objects reachable from frames, globals, and the
        remembered set) are copied to the old space; everything else in
        the nursery dies for free when the bump pointer resets.
        """
        m = self.machine
        telemetry = TELEMETRY if TELEMETRY.enabled else None
        if telemetry is not None:
            copied_before = self.copied_bytes
        saved = m.suppressed
        m.suppressed = False
        try:
            self._minor_collect_inner()
        finally:
            m.suppressed = saved
        if telemetry is not None:
            bytes_promoted = self.copied_bytes - copied_before
            telemetry.metrics.counter(
                "gc.minor_collections",
                runtime=self.vm.runtime_name).inc()
            telemetry.metrics.histogram(
                "gc.bytes_promoted",
                runtime=self.vm.runtime_name).observe(bytes_promoted)

    def _minor_collect_inner(self) -> None:
        m = self.machine
        nursery = self.nursery
        visited: set[int] = set()
        queue = self._roots()
        copied = 0
        while queue:
            obj = queue.pop()
            key = id(obj)
            if key in visited:
                continue
            visited.add(key)
            in_nursery = nursery.contains(obj.addr)
            if in_nursery:
                copied += self._copy_to_old(obj)
                obj.gc_age += 1
                self.promoted_objects += 1
            # Expand through nursery objects and one hop from roots;
            # unwritten old objects cannot point into the nursery, so the
            # traversal is bounded by the live nursery plus the root set.
            for child in gc_children(obj):
                if id(child) not in visited and (
                        nursery.contains(child.addr) or in_nursery):
                    m.load(self.s_trace + 12, _GC, obj.addr + 8)
                    queue.append(child)
        # Frames themselves live in the nursery until a GC proves them
        # long-lived; move any live frame storage out.
        for frame in self.vm.frames:
            if nursery.contains(frame.addr):
                size = frame.size_bytes()
                new_addr = self.old.bump(size)
                m.touch_range(self.s_copy, _GC, frame.addr, size)
                m.touch_range(self.s_copy + 4, _GC, new_addr, size,
                              write=True)
                frame.addr = new_addr
                copied += size
        self.copied_bytes += copied
        self.vm.stats.gc_copied_bytes += copied
        self.vm.stats.minor_gcs += 1
        self.minor_gc_count += 1
        self.nursery_objects.clear()
        self.remembered.clear()
        nursery.reset()
        if self.old.used - self._last_major_live > self._major_threshold:
            self.major_collect()

    def _copy_to_old(self, obj: GuestObject) -> int:
        """Copy one survivor (and its out-of-line buffers) to old space."""
        m = self.machine
        size = obj.size_bytes()
        new_addr = self.old.bump(size)
        m.touch_range(self.s_copy + 8, _GC, obj.addr, size)
        m.touch_range(self.s_copy + 12, _GC, new_addr, size, write=True)
        # Forwarding pointer write at the old location.
        m.store(self.s_copy + 16, _GC, obj.addr)
        obj.addr = new_addr
        moved = size
        if isinstance(obj, PyList) and self.nursery.contains(
                obj.buffer_addr):
            buf_size = obj.buffer_bytes()
            new_buf = self.old.bump(buf_size)
            m.touch_range(self.s_copy + 20, _GC, obj.buffer_addr, buf_size)
            m.touch_range(self.s_copy + 24, _GC, new_buf, buf_size,
                          write=True)
            obj.buffer_addr = new_buf
            moved += buf_size
        elif isinstance(obj, PyDict) and self.nursery.contains(
                obj.table_addr):
            table_size = obj.table_bytes()
            new_table = self.old.bump(table_size)
            m.touch_range(self.s_copy + 28, _GC, obj.table_addr, table_size)
            m.touch_range(self.s_copy + 32, _GC, new_table, table_size,
                          write=True)
            obj.table_addr = new_table
            moved += table_size
        elif isinstance(obj, PyInstance):
            moved += obj.attrs_bytes()
        return moved

    # ------------------------------------------------------------------
    # Major collection
    # ------------------------------------------------------------------

    def major_collect(self) -> None:
        """Mark-sweep over the old space (run incrementally by real PyPy;
        modeled as one pass here — the paper's figures do not depend on
        incrementality)."""
        m = self.machine
        visited: set[int] = set()
        live_bytes = 0
        queue = [obj for frame in self.vm.frames
                 for obj in list(frame.stack) + [
                     o for o in frame.locals if o is not None]]
        queue.extend(self.vm.globals.values())
        while queue:
            obj = queue.pop()
            key = id(obj)
            if key in visited:
                continue
            visited.add(key)
            # Mark: read the header, set the mark bit.
            m.load(self.s_major, _GC, obj.addr)
            m.store(self.s_major + 4, _GC, obj.addr)
            live_bytes += obj.size_bytes()
            for child in gc_children(obj):
                if id(child) not in visited:
                    queue.append(child)
        # Sweep: walk the old space at page granularity.
        page = 4096
        used = self.old.used
        for offset in range(0, used, page):
            m.load(self.s_major + 8, _GC, self.old.base + offset)
            m.alu(self.s_major + 12, _GC, n=1)
        self._last_major_live = self.old.used
        self._major_threshold = max(
            self.config.major_initial_threshold,
            int(live_bytes * (self.config.major_growth_factor - 1.0)))
        self.vm.stats.major_gcs += 1
        self.major_gc_count += 1
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                "gc.major_collections",
                runtime=self.vm.runtime_name).inc()
