"""CPython-2.7-model runtime: reference counting + freelist allocator.

This is the paper's baseline interpreter. Its memory-management signature
is what Section V-A observes: freed blocks are recycled LIFO by the
``obmalloc``-style freelist, so the hot allocation working set stays tiny
and the runtime performs well even with small caches.
"""

from __future__ import annotations

from ..categories import OverheadCategory
from ..frontend.compiler import Program
from ..host.address_space import AddressSpace, FreelistAllocator
from ..host.machine import HostMachine
from ..objects.model import GuestObject, PyDict, PyList, gc_children
from ..telemetry import TELEMETRY
from .base import BaseVM, Frame

_ALLOC = int(OverheadCategory.OBJECT_ALLOCATION)
_GC = int(OverheadCategory.GARBAGE_COLLECTION)
_FUNC_SETUP = int(OverheadCategory.FUNCTION_SETUP_CLEANUP)

#: Sentinel refcount marking an object whose storage was already freed.
_FREED = -(1 << 40)

#: Refcount above which an object is treated as immortal.
_IMMORTAL = 1 << 29

#: Dealloc cascades at least this long are worth a telemetry event
#: (container teardown bursts the paper's allocation category captures).
_CASCADE_EVENT_THRESHOLD = 16


class CPythonVM(BaseVM):
    """Interpreter-only runtime with CPython-style memory management."""

    runtime_name = "cpython"
    refcounting = True

    def __init__(self, machine: HostMachine, program: Program, *,
                 recycle_freelist: bool = True,
                 global_cache: bool = False) -> None:
        self.allocator = FreelistAllocator(machine.space.heap,
                                           recycle=recycle_freelist)
        #: Size-class freelist heads live in the VM data region.
        self._freelists = machine.space.vm_data.base + 0x4000
        super().__init__(machine, program)
        self.global_cache_enabled = global_cache
        self._s_malloc = machine.site("obmalloc.pool")
        self._s_free = machine.site("obmalloc.free")

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    # The allocator bookkeeping happens before emission (it writes no
    # rows), and each emission body is linear in ``(head, addr)`` for a
    # fixed category, so every allocator path is one template per
    # category.

    def _rows_malloc(self, category: int, head: int, addr: int) -> None:
        m = self.machine
        with m.c_call("obmalloc.call_malloc", "obmalloc.malloc",
                      indirect=False, args=1, saves=1):
            # Freelist pop: load head, load next, store head.
            m.load(self._s_malloc, category, head)
            m.alu(self._s_malloc + 8, category, n=2)
            m.load(self._s_malloc + 12, category, addr)
            m.store(self._s_malloc + 16, category, head)

    def _rows_alloc_object(self, category: int, head: int,
                           addr: int) -> None:
        m = self.machine
        self._rows_malloc(category, head, addr)
        # Initialize the header: type pointer and refcount.
        m.store(self.s_alloc + 4, category, addr)
        m.store(self.s_alloc + 8, category, addr + 8)

    def alloc_object(self, obj: GuestObject, category: int = _ALLOC,
                     ) -> GuestObject:
        size = obj.size_bytes()
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("cpython.mallocs").inc()
        obj.addr = self.allocator.alloc(size)
        self.emit_rows(("_rows_alloc_object", category),
                       [self._freelists + (size & 0x1F8), obj.addr])
        self.stats.allocations += 1
        self.stats.allocated_bytes += size
        return obj

    def alloc_buffer(self, nbytes: int, category: int = _ALLOC) -> int:
        return self._malloc(nbytes, category)

    def _malloc(self, size: int, category: int) -> int:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("cpython.mallocs").inc()
        addr = self.allocator.alloc(size)
        self.emit_rows(("_rows_malloc", category),
                       [self._freelists + (size & 0x1F8), addr])
        return addr

    def free_buffer(self, addr: int, nbytes: int) -> None:
        self._free(addr, nbytes, _ALLOC)

    def _rows_free(self, category: int, addr: int, head: int) -> None:
        m = self.machine
        with m.c_call("obmalloc.call_free", "obmalloc.free_fn",
                      indirect=False, args=1, saves=1):
            # Freelist push: store next pointer into the block, update head.
            m.store(self._s_free, category, addr)
            m.store(self._s_free + 4, category, head)

    def _free(self, addr: int, size: int, category: int) -> None:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("cpython.frees").inc()
        self.emit_rows(("_rows_free", category),
                       [addr, self._freelists + (size & 0x1F8)])
        self.allocator.free(addr, size)

    # ------------------------------------------------------------------
    # Reference counting
    # ------------------------------------------------------------------

    def retain(self, obj: GuestObject) -> None:
        if obj.refcount < _IMMORTAL and obj.refcount != _FREED:
            obj.refcount += 1

    def release(self, obj: GuestObject) -> None:
        if obj.refcount >= _IMMORTAL or obj.refcount == _FREED:
            return
        obj.refcount -= 1
        if obj.refcount <= 0:
            self._dealloc(obj)

    def _dealloc(self, root: GuestObject) -> None:
        """Free an object; children are released iteratively.

        Container deallocation decrefs every element — the O(n) teardown
        cost the paper's object allocation category captures.
        """
        worklist = [root]
        freed_objects = 0
        freed_bytes = 0
        while worklist:
            obj = worklist.pop()
            if obj.refcount == _FREED or obj.refcount >= _IMMORTAL:
                continue
            obj.refcount = _FREED
            for child in gc_children(obj):
                if child.refcount >= _IMMORTAL or child.refcount == _FREED:
                    continue
                self._emit_gc_child(child.addr)
                child.refcount -= 1
                if child.refcount <= 0:
                    worklist.append(child)
            if isinstance(obj, PyList) and obj.buffer_addr:
                self._free(obj.buffer_addr, obj.buffer_bytes(), _GC)
                freed_bytes += obj.buffer_bytes()
            elif isinstance(obj, PyDict) and obj.table_addr:
                self._free(obj.table_addr, obj.table_bytes(), _GC)
                freed_bytes += obj.table_bytes()
            self._free(obj.addr, obj.size_bytes(), _GC)
            freed_objects += 1
            freed_bytes += obj.size_bytes()
        if freed_objects >= _CASCADE_EVENT_THRESHOLD and TELEMETRY.enabled:
            TELEMETRY.events.emit("cpython.dealloc_cascade",
                                  objects=freed_objects,
                                  bytes=freed_bytes)

    def _rows_gc_child(self, child_addr: int) -> None:
        m = self.machine
        m.load(self.s_gc + 36, _GC, child_addr)
        m.store(self.s_gc + 40, _GC, child_addr)

    def _emit_gc_child(self, child_addr: int) -> None:
        """Visit one contained reference during container teardown."""
        self.emit_rows(("_rows_gc_child",), [child_addr])

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------

    def alloc_frame(self, frame: Frame) -> int:
        m = self.machine
        size = frame.size_bytes()
        addr = self._malloc(size, _FUNC_SETUP)
        # Zero the fast-locals area the way frame_alloc does.
        m.touch_range(self.s_funcsetup + 28, _FUNC_SETUP,
                      addr + 64, 8 * max(1, len(frame.locals)), write=True)
        return addr

    def free_frame(self, frame: Frame) -> None:
        self._free(frame.addr, frame.size_bytes(), _FUNC_SETUP)


def run_cpython(program: Program, machine: HostMachine | None = None,
                max_instructions: int = 200_000_000):
    """Convenience: run ``program`` on a fresh CPython-model runtime.

    Returns ``(vm, machine)`` after the program completes.
    """
    if machine is None:
        machine = HostMachine(AddressSpace(),
                              max_instructions=max_instructions)
    vm = CPythonVM(machine, program)
    vm.run()
    return vm, machine
