"""The instrumented host machine that run-time models emit instructions to.

A run-time model performs its semantic work in ordinary Python; for every
micro-operation it also calls one of the ``HostMachine`` emit helpers,
which appends a host instruction — PC, kind, overhead category, address —
to the columnar trace. Static code locations are modeled as *sites*: a
site name is interned once to a block of PCs inside the simulated
interpreter binary, so repeated executions of the same interpreter code
re-use the same PCs exactly as a real statically compiled interpreter
would. This is what lets the pintool annotate "the interpreter" once and
reuse the annotation for every guest program (Section IV-B of the paper).

The C calling convention is modeled explicitly because C function call
overhead is the paper's headline new finding: every interpreter-internal
helper call goes through :meth:`HostMachine.c_call`, which emits argument
moves, the call itself (direct or indirect), frame setup, register spills,
and the matching epilogue — all tagged ``C_FUNCTION_CALL``.
"""

from __future__ import annotations

import os

from ..categories import OverheadCategory
from ..errors import VMError
from .address_space import AddressSpace, C_STACK_TOP
from .isa import (
    FLAG_COND,
    FLAG_INDIRECT,
    FLAG_TAKEN,
    INSTR_BYTES,
    InstrKind,
)
from .burst import FLUSH_ENTRIES as _FLUSH_ENTRIES
from .trace import InstructionTrace

#: Bytes of simulated static code reserved per site (32 instruction slots).
SITE_BLOCK = 32 * INSTR_BYTES

#: Granularity of bulk memory touches (one access per this many bytes).
TOUCH_GRANULARITY = 64

_C_CALL = int(OverheadCategory.C_FUNCTION_CALL)
_C_LIBRARY = int(OverheadCategory.C_LIBRARY)
_GC_CAT = int(OverheadCategory.GARBAGE_COLLECTION)

_ALU = int(InstrKind.ALU)
_FPU = int(InstrKind.FPU)
_LOAD = int(InstrKind.LOAD)
_STORE = int(InstrKind.STORE)
_BRANCH = int(InstrKind.BRANCH)
_CALL = int(InstrKind.CALL)
_ICALL = int(InstrKind.ICALL)
_RET = int(InstrKind.RET)
_MUL = int(InstrKind.MUL)
_DIV = int(InstrKind.DIV)

#: Environment switch for the emission backend: ``auto`` (default)
#: selects the deferred burst engine, ``scalar`` the original per-row
#: append path. Both are bit-identical; ``scalar`` remains as the
#: reference implementation and slow-path fallback.
BACKEND_ENV = "REPRO_EMIT_BACKEND"

#: Emit helpers shadowed per-instance by ``_<name>_burst`` variants in
#: burst mode. The template recorder (:meth:`BurstEngine.record`) pops
#: these instance attributes for the duration of a recording run so the
#: scalar class bodies — which emit through ``self._emit`` — feed its
#: row collector instead of the raw queue.
BURST_SHADOWED = ("c_call_enter", "c_call_exit", "alu", "fpu", "mul",
                  "div", "load", "store", "branch", "indirect_branch",
                  "touch_range")


def resolve_backend(backend: str | None = None) -> str:
    """Normalize a backend request (arg wins over the environment)."""
    choice = (backend or os.environ.get(BACKEND_ENV, "auto")).lower()
    if choice in ("auto", "burst", ""):
        return "burst"
    if choice == "scalar":
        return "scalar"
    raise VMError(f"unknown {BACKEND_ENV} value: {choice!r} "
                  "(expected auto|burst|scalar)")


class HostMachine:
    """Emit API used by the run-time models; owns PCs, trace, and C stack."""

    def __init__(self, space: AddressSpace | None = None,
                 trace: InstructionTrace | None = None,
                 max_instructions: int = 200_000_000,
                 backend: str | None = None) -> None:
        self.space = space if space is not None else AddressSpace()
        self.trace = trace if trace is not None else InstructionTrace()
        self.max_instructions = max_instructions
        #: site name -> base PC (interpreter binary code region)
        self.site_table: dict[str, int] = {}
        self._site_cursor = self.space.code.base
        self._jit_cursor = self.space.jit_code.base
        self.origin = 0
        self.sp = C_STACK_TOP
        self._frames: list[tuple[int, int]] = []  # (saved sp, saves count)
        #: When True, emit helpers record nothing. The PyPy model's JIT
        #: sets this while replaying a compiled trace: semantic execution
        #: stays silent and the JIT emits its own compact code instead.
        self.suppressed = False
        #: Ablation knob: treat every indirect call as direct (perfect
        #: devirtualization, the related-work BTB optimizations taken to
        #: their limit).
        self.devirtualize = False
        #: Depth of modeled C library calls. While positive, emissions
        #: are re-tagged C_LIBRARY (except collector work): the paper
        #: measures "time in C library code" at function granularity, so
        #: everything a C extension does — including its allocations and
        #: internal calls — counts as C library time (Section IV-C.1).
        self.clib_depth = 0
        # Bind the trace's staging columns locally: emit helpers are the
        # hottest code in the package, and attribute lookups dominate
        # otherwise. The trace drains these into its committed buffer in
        # bulk; the array objects themselves are stable across drains.
        (self._pc, self._kind, self._cat, self._addr, self._size,
         self._dep, self._flags, self._origin_col) = self.trace._stage
        self.backend = resolve_backend(backend)
        self._engine = None
        if self.backend == "burst":
            from .burst import BurstEngine
            self._engine = BurstEngine(self)
            # Instance-attribute shadowing: the scalar class methods stay
            # reachable (template recording and the slow path use them).
            self._emit = self._emit_burst
            self._cc_enter_tids: dict[tuple, tuple | None] = {}
            self._cc_exit_tids: dict[tuple, tuple | None] = {}
            # The single-row helpers enqueue RAW rows directly instead
            # of going through ``_emit_burst`` — one Python call per row
            # instead of two on the hottest path in the package. The
            # engine's recorder pops these shadows while a template is
            # being recorded so the scalar bodies reach its collector.
            for name in BURST_SHADOWED:
                setattr(self, name, getattr(self, "_" + name + "_burst"))

    # ------------------------------------------------------------------
    # Sites (static code locations)
    # ------------------------------------------------------------------

    def site(self, name: str) -> int:
        """Intern ``name`` and return its base PC in the code region."""
        pc = self.site_table.get(name)
        if pc is None:
            pc = self._site_cursor
            self._site_cursor += SITE_BLOCK
            if self._site_cursor > self.space.code.end:
                raise VMError("simulated interpreter code region exhausted")
            self.site_table[name] = pc
        return pc

    def jit_site(self, name: str, code_bytes: int = SITE_BLOCK) -> int:
        """Allocate a block of PCs in the JIT code region.

        Unlike interpreter sites, JIT sites are *not* deduplicated: each
        compiled trace gets fresh code, which is why JIT execution touches
        far more instruction-cache space than the interpreter loop.
        """
        pc = self._jit_cursor
        self._jit_cursor += max(code_bytes, INSTR_BYTES)
        if self._jit_cursor > self.space.jit_code.end:
            raise VMError("simulated JIT code region exhausted")
        self.site_table[name] = pc
        return pc

    def instruction_count(self) -> int:
        return len(self.trace)

    def check_budget(self) -> None:
        """Abort the simulation if the trace has grown past the budget."""
        if len(self.trace) > self.max_instructions:
            raise VMError(
                f"instruction budget exceeded "
                f"({self.max_instructions} host instructions); "
                "reduce the workload size or raise max_instructions")

    # ------------------------------------------------------------------
    # Emit helpers (hot path)
    # ------------------------------------------------------------------

    def _emit(self, pc: int, kind: int, cat: int, addr: int, size: int,
              dep: int, flags: int) -> None:
        if self.suppressed:
            return
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        self._pc.append(pc)
        self._kind.append(kind)
        self._cat.append(cat)
        self._addr.append(addr)
        self._size.append(size)
        self._dep.append(dep)
        self._flags.append(flags)
        self._origin_col.append(self.origin)

    def _emit_burst(self, pc: int, kind: int, cat: int, addr: int,
                    size: int, dep: int, flags: int) -> None:
        """Burst-backend ``_emit``: enqueue one RAW row for the flush."""
        if self.suppressed:
            return
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        engine = self._engine
        engine.order.append(0)
        engine.dyn.extend(
            (pc, kind, cat, addr, size, dep, flags, self.origin))
        if len(engine.order) >= _FLUSH_ENTRIES:
            engine.flush()

    def _raw_burst(self, pc: int, kind: int, cat: int, addr: int,
                   size: int, dep: int, flags: int) -> None:
        """Enqueue one RAW row (burst backend, suppression pre-checked)."""
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        engine = self._engine
        engine.order.append(0)
        engine.dyn.extend(
            (pc, kind, cat, addr, size, dep, flags, self.origin))
        if len(engine.order) >= _FLUSH_ENTRIES:
            engine.flush()

    def _alu_burst(self, site: int, cat: int, n: int = 1,
                   dep: int = 1) -> None:
        if self.suppressed:
            return
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        engine = self._engine
        order = engine.order
        dyn = engine.dyn
        origin = self.origin
        if n == 1:
            order.append(0)
            dyn.extend((site, _ALU, cat, 0, 0, dep, 0, origin))
        else:
            for i in range(n):
                order.append(0)
                dyn.extend((site + INSTR_BYTES * (i & 31), _ALU, cat,
                            0, 0, dep, 0, origin))
        if len(engine.order) >= _FLUSH_ENTRIES:
            engine.flush()

    def _fpu_burst(self, site: int, cat: int, n: int = 1,
                   dep: int = 1) -> None:
        if self.suppressed:
            return
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        engine = self._engine
        order = engine.order
        dyn = engine.dyn
        origin = self.origin
        for i in range(n):
            order.append(0)
            dyn.extend((site + INSTR_BYTES * (i & 31), _FPU, cat,
                        0, 0, dep, 0, origin))
        if len(engine.order) >= _FLUSH_ENTRIES:
            engine.flush()

    def _mul_burst(self, site: int, cat: int, dep: int = 1) -> None:
        if not self.suppressed:
            self._raw_burst(site, _MUL, cat, 0, 0, dep, 0)

    def _div_burst(self, site: int, cat: int, dep: int = 1) -> None:
        if not self.suppressed:
            self._raw_burst(site, _DIV, cat, 0, 0, dep, 0)

    def _load_burst(self, site: int, cat: int, addr: int, size: int = 8,
                    dep: int = 1) -> None:
        if self.suppressed:
            return
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        engine = self._engine
        engine.order.append(0)
        engine.dyn.extend(
            (site, _LOAD, cat, addr, size, dep, 0, self.origin))
        if len(engine.order) >= _FLUSH_ENTRIES:
            engine.flush()

    def _store_burst(self, site: int, cat: int, addr: int, size: int = 8,
                     dep: int = 1) -> None:
        if self.suppressed:
            return
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        engine = self._engine
        engine.order.append(0)
        engine.dyn.extend(
            (site, _STORE, cat, addr, size, dep, 0, self.origin))
        if len(engine.order) >= _FLUSH_ENTRIES:
            engine.flush()

    def _branch_burst(self, site: int, cat: int, taken: bool,
                      conditional: bool = True, target: int = 0,
                      dep: int = 1) -> None:
        if self.suppressed:
            return
        flags = (FLAG_TAKEN if taken else 0) | \
                (FLAG_COND if conditional else 0)
        self._raw_burst(site, _BRANCH, cat, target, 0, dep, flags)

    def _indirect_branch_burst(self, site: int, cat: int, target: int,
                               dep: int = 1) -> None:
        if not self.suppressed:
            self._raw_burst(site, _BRANCH, cat, target, 0, dep,
                            FLAG_TAKEN | FLAG_INDIRECT)

    def _touch_range_burst(self, site: int, cat: int, addr: int,
                           nbytes: int, write: bool = False,
                           dep: int = 1) -> None:
        if nbytes <= 0 or self.suppressed:
            return
        if self.clib_depth and cat != _GC_CAT:
            cat = _C_LIBRARY
        kind = _STORE if write else _LOAD
        engine = self._engine
        order = engine.order
        dyn = engine.dyn
        origin = self.origin
        first = addr - (addr % TOUCH_GRANULARITY)
        last = addr + nbytes - 1
        count = (last - first) // TOUCH_GRANULARITY + 1
        for i in range(count):
            order.append(0)
            dyn.extend((site + INSTR_BYTES * (i & 31), kind, cat,
                        first + i * TOUCH_GRANULARITY, TOUCH_GRANULARITY,
                        dep, 0, origin))
        if len(engine.order) >= _FLUSH_ENTRIES:
            engine.flush()

    def alu(self, site: int, cat: int, n: int = 1, dep: int = 1) -> None:
        """Emit ``n`` single-cycle ALU operations at ``site``."""
        emit = self._emit
        for i in range(n):
            emit(site + INSTR_BYTES * (i & 31), _ALU, cat, 0, 0, dep, 0)

    def fpu(self, site: int, cat: int, n: int = 1, dep: int = 1) -> None:
        """Emit ``n`` floating-point operations."""
        emit = self._emit
        for i in range(n):
            emit(site + INSTR_BYTES * (i & 31), _FPU, cat, 0, 0, dep, 0)

    def mul(self, site: int, cat: int, dep: int = 1) -> None:
        self._emit(site, _MUL, cat, 0, 0, dep, 0)

    def div(self, site: int, cat: int, dep: int = 1) -> None:
        self._emit(site, _DIV, cat, 0, 0, dep, 0)

    def load(self, site: int, cat: int, addr: int, size: int = 8,
             dep: int = 1) -> None:
        """Emit one memory read of ``size`` bytes at ``addr``."""
        self._emit(site, _LOAD, cat, addr, size, dep, 0)

    def store(self, site: int, cat: int, addr: int, size: int = 8,
              dep: int = 1) -> None:
        """Emit one memory write of ``size`` bytes at ``addr``."""
        self._emit(site, _STORE, cat, addr, size, dep, 0)

    def branch(self, site: int, cat: int, taken: bool,
               conditional: bool = True, target: int = 0,
               dep: int = 1) -> None:
        """Emit one direct branch; the predictor models its direction."""
        flags = (FLAG_TAKEN if taken else 0) | \
                (FLAG_COND if conditional else 0)
        self._emit(site, _BRANCH, cat, target, 0, dep, flags)

    def indirect_branch(self, site: int, cat: int, target: int,
                        dep: int = 1) -> None:
        """Emit one indirect jump (e.g. a computed-goto dispatch)."""
        self._emit(site, _BRANCH, cat, target, 0, dep,
                   FLAG_TAKEN | FLAG_INDIRECT)

    def touch_range(self, site: int, cat: int, addr: int, nbytes: int,
                    write: bool = False, dep: int = 1) -> None:
        """Emit one access per 64-byte chunk of ``[addr, addr+nbytes)``.

        Used for object initialization, GC copying/tracing, and C library
        buffer traffic. The 64-byte granularity matches the smallest cache
        line the sweeps use, so spatial locality is still visible to the
        line-size sweep (Fig 7d).
        """
        if nbytes <= 0:
            return
        kind = _STORE if write else _LOAD
        emit = self._emit
        first = addr - (addr % TOUCH_GRANULARITY)
        last = addr + nbytes - 1
        count = (last - first) // TOUCH_GRANULARITY + 1
        for i in range(count):
            emit(site + INSTR_BYTES * (i & 31), kind, cat,
                 first + i * TOUCH_GRANULARITY, TOUCH_GRANULARITY, dep, 0)

    # ------------------------------------------------------------------
    # C calling convention (the paper's new overhead source)
    # ------------------------------------------------------------------

    def c_call_enter(self, site: int, callee: int, *, indirect: bool = False,
                     args: int = 2, saves: int = 2,
                     frame_bytes: int = 64,
                     category: int = _C_CALL) -> None:
        """Emit a C call: argument moves, call, prologue, register spills.

        Everything here is tagged ``C_FUNCTION_CALL`` by default; the call
        instruction is marked indirect when invoked through a function
        pointer, which the paper's BTB analysis (Section IV-C.1)
        distinguishes. Calls *inside* modeled C library code pass
        ``category=C_LIBRARY`` — the paper accounts them as C library time
        and detects the calling-convention instructions within it
        automatically (Section IV-C.1's "still significant even in the C
        library code").
        """
        if self.devirtualize:
            indirect = False
        sp = self.sp
        self._rows_c_enter(site, callee, indirect, args, saves, category,
                           sp)
        self.sp = sp - frame_bytes
        self._frames.append((sp, saves, category))

    def _rows_c_enter(self, site: int, callee: int, indirect: bool,
                      args: int, saves: int, cat: int, sp: int) -> None:
        """Emission-only body of :meth:`c_call_enter` (no side effects)."""
        emit = self._emit
        # Argument setup: independent register moves.
        for i in range(args):
            emit(site + INSTR_BYTES * (i & 31), _ALU, cat, 0, 0, 0, 0)
        # The call pushes the return address.
        call_kind = _ICALL if indirect else _CALL
        call_flags = (FLAG_TAKEN | FLAG_INDIRECT) if indirect else FLAG_TAKEN
        emit(site + 15 * INSTR_BYTES, call_kind, cat, callee, 0, 1,
             call_flags)
        emit(callee, _STORE, cat, sp - 8, 8, 1, 0)
        # Prologue: push rbp; mov rbp, rsp; sub rsp, frame.
        emit(callee + INSTR_BYTES, _STORE, cat, sp - 16, 8, 1, 0)
        emit(callee + 2 * INSTR_BYTES, _ALU, cat, 0, 0, 1, 0)
        emit(callee + 3 * INSTR_BYTES, _ALU, cat, 0, 0, 1, 0)
        # Callee-saved register spills.
        for i in range(saves):
            emit(callee + (4 + i) * INSTR_BYTES, _STORE, cat,
                 sp - 24 - 8 * i, 8, 0, 0)

    def c_call_exit(self, callee: int) -> None:
        """Emit the matching C epilogue: register restores, leave, ret."""
        if not self._frames:
            raise VMError("c_call_exit without matching c_call_enter")
        sp, saves, cat = self._frames.pop()
        self._rows_c_exit(callee, saves, cat, sp)
        self.sp = sp

    def _rows_c_exit(self, callee: int, saves: int, cat: int,
                     sp: int) -> None:
        """Emission-only body of :meth:`c_call_exit` (no side effects)."""
        emit = self._emit
        for i in range(saves):
            emit(callee + (10 + i) * INSTR_BYTES, _LOAD, cat,
                 sp - 24 - 8 * i, 8, 0, 0)
        # leave: mov rsp, rbp; pop rbp.
        emit(callee + 20 * INSTR_BYTES, _ALU, cat, 0, 0, 1, 0)
        emit(callee + 21 * INSTR_BYTES, _LOAD, cat, sp - 16, 8, 1, 0)
        emit(callee + 22 * INSTR_BYTES, _RET, cat, sp - 8, 0, 1,
             FLAG_TAKEN)

    def _c_call_enter_burst(self, site: int, callee: int, *,
                            indirect: bool = False, args: int = 2,
                            saves: int = 2, frame_bytes: int = 64,
                            category: int = _C_CALL) -> None:
        """Burst-backend :meth:`c_call_enter`: one queued template."""
        if self.devirtualize:
            indirect = False
        sp = self.sp
        if self.suppressed or self.clib_depth:
            # The raw queue applies suppression / C-library re-tagging.
            self._rows_c_enter(site, callee, indirect, args, saves,
                               category, sp)
        else:
            key = (site, callee, indirect, args, saves, category)
            entry = self._cc_enter_tids.get(key, ())
            if entry == ():
                entry = self._record_c_enter(key)
            if entry is None:
                self._rows_c_enter(site, callee, indirect, args, saves,
                                   category, sp)
            else:
                tid, rows = entry
                engine = self._engine
                engine.order.append(tid)
                engine.dyn.extend((self.origin, sp))
        self.sp = sp - frame_bytes
        self._frames.append((sp, saves, category))

    def _record_call_template(self, thunk) -> tuple | None:
        """Record a C-call half; its queue entry appends origin and sp."""
        tid = self._engine.record(thunk, [], implicit=("origin", "sp"))
        if tid is None:
            return None
        template = self._engine.templates[tid]
        if template.implicit != ("origin", "sp"):
            return None
        return (tid, template.rows)

    def _record_c_enter(self, key: tuple) -> tuple | None:
        site, callee, indirect, args, saves, category = key

        def thunk(_values):
            self._rows_c_enter(site, callee, indirect, args, saves,
                               category, self.sp)

        entry = self._record_call_template(thunk)
        self._cc_enter_tids[key] = entry
        return entry

    def _c_call_exit_burst(self, callee: int) -> None:
        """Burst-backend :meth:`c_call_exit`: one queued template."""
        if not self._frames:
            raise VMError("c_call_exit without matching c_call_enter")
        sp, saves, cat = self._frames.pop()
        if self.suppressed or self.clib_depth:
            self._rows_c_exit(callee, saves, cat, sp)
        else:
            key = (callee, saves, cat)
            entry = self._cc_exit_tids.get(key, ())
            if entry == ():
                entry = self._record_c_exit(key)
            if entry is None:
                self._rows_c_exit(callee, saves, cat, sp)
            else:
                tid, rows = entry
                engine = self._engine
                engine.order.append(tid)
                engine.dyn.extend((self.origin, sp))
        self.sp = sp

    def _record_c_exit(self, key: tuple) -> tuple | None:
        callee, saves, cat = key

        def thunk(_values):
            self._rows_c_exit(callee, saves, cat, self.sp)

        entry = self._record_call_template(thunk)
        self._cc_exit_tids[key] = entry
        return entry

    def c_call(self, site_name: str, callee_name: str, *,
               indirect: bool = False, args: int = 2, saves: int = 2,
               frame_bytes: int = 64,
               category: int = _C_CALL) -> "_CCallScope":
        """Context manager bracketing a modeled C helper call."""
        return _CCallScope(self, self.site(site_name),
                           self.site(callee_name), indirect, args, saves,
                           frame_bytes, category)

    def c_stack_slot(self, offset: int = 0) -> int:
        """Address of a local variable slot in the current C frame."""
        return self.sp + 16 + offset

    def clib_scope(self) -> "_ClibScope":
        """Context manager marking execution inside a C library function."""
        return _ClibScope(self)

    def unsuppressed(self) -> "_Unsuppressed":
        """Context manager that re-enables emission inside suppression.

        Used for work that must stay visible while a compiled trace
        replays: garbage collection and modeled C library calls.
        """
        return _Unsuppressed(self)

    @property
    def c_call_depth(self) -> int:
        return len(self._frames)


class _ClibScope:
    """``with machine.clib_scope():`` — emissions become C library time."""

    __slots__ = ("_machine",)

    def __init__(self, machine: HostMachine) -> None:
        self._machine = machine

    def __enter__(self) -> HostMachine:
        self._machine.clib_depth += 1
        return self._machine

    def __exit__(self, exc_type, exc, tb) -> None:
        self._machine.clib_depth -= 1


class _Unsuppressed:
    """``with machine.unsuppressed():`` — temporarily re-enable emission."""

    __slots__ = ("_machine", "_saved")

    def __init__(self, machine: HostMachine) -> None:
        self._machine = machine
        self._saved = False

    def __enter__(self) -> HostMachine:
        self._saved = self._machine.suppressed
        self._machine.suppressed = False
        return self._machine

    def __exit__(self, exc_type, exc, tb) -> None:
        self._machine.suppressed = self._saved


class _CCallScope:
    """``with machine.c_call(...):`` — emits call on enter, return on exit."""

    __slots__ = ("_machine", "_site", "_callee", "_indirect", "_args",
                 "_saves", "_frame_bytes", "_category")

    def __init__(self, machine: HostMachine, site: int, callee: int,
                 indirect: bool, args: int, saves: int,
                 frame_bytes: int, category: int = _C_CALL) -> None:
        self._machine = machine
        self._site = site
        self._callee = callee
        self._indirect = indirect
        self._args = args
        self._saves = saves
        self._frame_bytes = frame_bytes
        self._category = category

    def __enter__(self) -> int:
        self._machine.c_call_enter(
            self._site, self._callee, indirect=self._indirect,
            args=self._args, saves=self._saves,
            frame_bytes=self._frame_bytes, category=self._category)
        return self._callee

    def __exit__(self, exc_type, exc, tb) -> None:
        # Unwind even on guest exceptions so the C stack stays balanced.
        self._machine.c_call_exit(self._callee)
