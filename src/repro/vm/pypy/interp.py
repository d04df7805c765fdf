"""PyPy-model runtime: generational GC + optional tracing JIT.

The interpreter reuses the shared MiniPy semantics and choreography of
:class:`~repro.vm.base.BaseVM`, with the memory-management hooks swapped:
no reference counting (tracing GC instead, with a write barrier), bump
allocation in a nursery, and frames allocated in the GC heap. With the
JIT enabled, hot loops and functions are traced, compiled, and replayed
as compact machine code (see :mod:`~repro.vm.pypy.jit`).
"""

from __future__ import annotations

from ...categories import OverheadCategory
from ...config import RuntimeConfig, pypy_runtime
from ...frontend.compiler import Program
from ...host.address_space import AddressSpace
from ...host.machine import HostMachine
from ...objects.model import GuestObject
from ..base import BaseVM, Frame
from .gc import GenerationalGC
from .jit import NullJIT, TraceJIT

_ALLOC = int(OverheadCategory.OBJECT_ALLOCATION)
_FUNC_SETUP = int(OverheadCategory.FUNCTION_SETUP_CLEANUP)


class PyPyVM(BaseVM):
    """The PyPy 5.3 analog, with or without JIT."""

    runtime_name = "pypy"
    refcounting = False
    #: The tracing JIT's recorder emits rows between dispatch and the
    #: handler, so this loop emits every dispatch itself.
    handlers_emit_dispatch = False

    def __init__(self, machine: HostMachine, program: Program,
                 config: RuntimeConfig | None = None) -> None:
        self.config = config if config is not None else pypy_runtime()
        super().__init__(machine, program)
        self.gc = GenerationalGC(self, self.config.gc)
        if self.config.jit.enabled:
            self.jit = TraceJIT(self, self.config.jit)
        else:
            self.jit = NullJIT(self, self.config.jit)

    # ------------------------------------------------------------------
    # Memory-management hooks
    # ------------------------------------------------------------------

    def alloc_object(self, obj: GuestObject, category: int = _ALLOC,
                     ) -> GuestObject:
        self.gc.alloc_object(obj, category)
        return obj

    def alloc_buffer(self, nbytes: int, category: int = _ALLOC) -> int:
        return self.gc.alloc_bytes(nbytes, category)

    def emit_write_barrier(self, container: GuestObject) -> None:
        self.gc.write_barrier(container)

    def alloc_frame(self, frame: Frame) -> int:
        return self.gc.alloc_bytes(frame.size_bytes(), _FUNC_SETUP)

    def free_frame(self, frame: Frame) -> None:
        """Frames are garbage-collected; dead ones vanish with the nursery."""

    # ------------------------------------------------------------------
    # JIT hooks
    # ------------------------------------------------------------------

    def on_backedge(self, frame: Frame, target: int) -> None:
        self.jit.on_backedge(frame, target)

    def _call_guest(self, frame, func, args, discard_return=False,
                    push_value=None):
        self.jit.on_call(func.code)
        return super()._call_guest(frame, func, args, discard_return,
                                   push_value)

    def execute_frame(self, frame: Frame) -> None:
        """Interpreter loop with tracing/compiled-execution hooks."""
        handlers = self._handlers
        ops = frame.code.ops
        args = frame.code.args
        bc_base = frame.bc_base
        stats = self.stats
        machine = self.machine
        jit = self.jit
        while True:
            pc = frame.pc
            op = ops[pc]
            mode = jit.mode
            if mode == 2:  # compiled execution
                if not jit.before_op(frame, op):
                    # Guard exit: resume interpretation of this very op.
                    self.emit_dispatch(op, bc_base + 2 * pc)
            else:
                self.emit_dispatch(op, bc_base + 2 * pc)
                if mode == 1:  # recording
                    jit.record_op(frame, op)
            frame.pc = pc + 1
            stats.bytecodes += 1
            if not (stats.bytecodes & 0x3FF):
                machine.check_budget()
            signal = handlers[op](frame, args[pc])
            if signal:
                return


def run_pypy(program: Program, config: RuntimeConfig | None = None,
             machine: HostMachine | None = None,
             max_instructions: int = 200_000_000):
    """Convenience: run ``program`` on a fresh PyPy-model runtime.

    Builds an address space whose nursery matches the GC configuration.
    Returns ``(vm, machine)``.
    """
    if config is None:
        config = pypy_runtime()
    if machine is None:
        space = AddressSpace(nursery_size=config.gc.nursery_size)
        machine = HostMachine(space, max_instructions=max_instructions)
    vm = PyPyVM(machine, program, config)
    vm.run()
    return vm, machine
