"""V8-analog runtime: hidden-class inline caches + method JIT.

The paper uses Google V8 4.2 to show that its Python findings — C
function call overhead (Figure 6), memory-system sensitivity (Figure 9),
and the nursery/cache trade-off (Figure 16) — generalize to other
JIT-based dynamic-language run-times.

Modeling choice (documented in DESIGN.md): JavaScript and MiniPy are
close enough at the bytecode level that the V8 model executes the same
guest IR with a distinctly V8-flavored cost profile:

* property access goes through *hidden-class inline caches* (a map check
  plus a fixed-offset load) instead of dictionary lookups;
* the optimizing compiler is method-oriented: functions get hot quickly
  and whole-function traces are preferred over loop traces;
* the generational GC is the same scavenger design PyPy uses, which both
  engines share in spirit (V8's new space is a copying scavenger too).
"""

from __future__ import annotations

from ...categories import OverheadCategory
from ...config import RuntimeConfig, v8_runtime
from ...errors import GuestNameError
from ...frontend.compiler import Program
from ...host.address_space import AddressSpace
from ...host.machine import HostMachine
from ...objects.model import PyBoundMethod, PyInstance
from ...telemetry import TELEMETRY
from ..base import _NEXT, _OP_LOAD_GLOBAL, Frame
from ..stablehash import stable_hash
from ..pypy.interp import PyPyVM

_NAME = int(OverheadCategory.NAME_RESOLUTION)
_TYPE = int(OverheadCategory.TYPE_CHECK)


class V8VM(PyPyVM):
    """V8 4.2 analog built on the generational-GC/JIT substrate."""

    runtime_name = "v8"
    refcounting = False

    def __init__(self, machine: HostMachine, program: Program,
                 config: RuntimeConfig | None = None) -> None:
        if config is None:
            config = v8_runtime()
        super().__init__(machine, program, config)
        self.s_ic = machine.site("v8.inline_cache")

    # ------------------------------------------------------------------
    # Hidden-class inline caches
    # ------------------------------------------------------------------

    def _emit_ic_hit(self, obj) -> None:
        """Monomorphic IC: load the map, compare, load the slot."""
        m = self.machine
        m.load(self.s_ic, _TYPE, obj.addr)           # hidden class (map)
        m.branch(self.s_ic + 4, _TYPE, taken=False)  # map check guard
        m.load(self.s_ic + 8, _NAME, obj.addr + 16)  # fixed-offset slot
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("v8.ic.hit").inc()

    def _note_ic_generic(self, name: str) -> None:
        """A non-instance receiver fell back to the megamorphic path."""
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("v8.ic.megamorphic").inc()
            TELEMETRY.events.emit("v8.ic.megamorphic", name=name)

    def _rows_global_ic(self, cell_addr: int) -> None:
        """Global-property cell IC: load the cell, check it is valid."""
        m = self.machine
        m.origin = self._handler_site_by_op[_OP_LOAD_GLOBAL]
        m.load(self.s_ic + 12, _NAME, cell_addr)
        m.branch(self.s_ic + 16, _NAME, taken=False)

    def op_load_global(self, frame: Frame, arg: int) -> int:
        """Globals resolve through a global-property cell IC."""
        name = frame.code.names[arg]
        self.emit_rows(("_rows_global_ic",), [
            self.machine.space.vm_data.base + 0x1000
            + (stable_hash(name) & 0x3FF8)])
        obj = self.globals.get(name)
        if obj is None:
            obj = self.builtins.get(name)
        if obj is None:
            raise GuestNameError(f"name {name!r} is not defined")
        self.emit_push(frame, obj)
        return _NEXT

    def op_load_attr(self, frame: Frame, arg: int) -> int:
        name = frame.code.names[arg]
        obj = self.emit_pop(frame)
        if isinstance(obj, PyInstance):
            self._emit_ic_hit(obj)
            attr = obj.attrs.get(name)
            if attr is not None:
                self.emit_push(frame, attr)
                return _NEXT
            func = obj.cls.methods.get(name)
            if func is None:
                raise GuestNameError(
                    f"{obj.cls.name!r} object has no attribute {name!r}")
            method = PyBoundMethod(obj, func)
            self.alloc_object(method)
            self.emit_push(frame, method)
            return _NEXT
        # Non-instance receivers: restore the stack and use the generic
        # (megamorphic) path of the base handler.
        self._note_ic_generic(name)
        self.emit_push(frame, obj)
        return super().op_load_attr(frame, arg)

    def op_store_attr(self, frame: Frame, arg: int) -> int:
        name = frame.code.names[arg]
        obj = self.emit_pop(frame)
        value = self.emit_pop(frame)
        if isinstance(obj, PyInstance):
            self._emit_ic_hit(obj)
            self.emit_write_barrier(obj)
            self.machine.store(self.s_ic + 20, _NAME, obj.addr + 24)
            obj.attrs[name] = value
            return _NEXT
        # Restore the stack and defer to the generic handler.
        self._note_ic_generic(name)
        self.emit_push(frame, value)
        self.emit_push(frame, obj)
        return super().op_store_attr(frame, arg)


def run_v8(program: Program, config: RuntimeConfig | None = None,
           machine: HostMachine | None = None,
           max_instructions: int = 200_000_000):
    """Convenience: run ``program`` on a fresh V8-analog runtime."""
    if config is None:
        config = v8_runtime()
    if machine is None:
        space = AddressSpace(nursery_size=config.gc.nursery_size)
        machine = HostMachine(space, max_instructions=max_instructions)
    vm = V8VM(machine, program, config)
    vm.run()
    return vm, machine
