"""Shared interpreter core for the modeled run-times.

``BaseVM`` implements the complete MiniPy semantics plus the *emission
choreography*: for every bytecode it emits the host instructions a
CPython-like interpreter would execute, each tagged with its Table II
overhead category. Memory-management behavior (refcounting vs.
generational GC) is delegated to hooks that :class:`~repro.vm.cpython.
CPythonVM` and the PyPy model override.

The choreography is the calibration surface of the whole reproduction:
dispatch reads and decodes the bytecode and jumps indirectly through the
handler table; stack traffic goes to real simulated frame addresses;
binary operators type-check, resolve a function pointer, make an indirect
C call, unbox, execute, error-check, box, and adjust reference counts —
the same structural work Section IV attributes.
"""

from __future__ import annotations

from functools import partial

from ..categories import OverheadCategory
from ..errors import (
    GuestIndexError,
    GuestKeyError,
    GuestNameError,
    GuestTypeError,
    GuestValueError,
    GuestZeroDivisionError,
    VMError,
)
from ..frontend.bytecode import COMPARE_OPS, CodeObject, Op
from ..frontend.compiler import Program
from ..host.burst import FLUSH_ENTRIES as _FLUSH_ENTRIES
from ..host.machine import HostMachine
from .stablehash import stable_hash
from ..objects.model import (
    FALSE,
    NONE,
    TRUE,
    GuestObject,
    PyBool,
    PyBoundMethod,
    PyBuiltin,
    PyClass,
    PyDict,
    PyFloat,
    PyFunc,
    PyInstance,
    PyInt,
    PyIterator,
    PyList,
    PyNone,
    PyRange,
    PySlice,
    PyStr,
    PyTuple,
    raw_key,
)

_C = OverheadCategory
_DISPATCH = int(_C.DISPATCH)
_STACK = int(_C.STACK)
_CONST = int(_C.CONST_LOAD)
_TYPE = int(_C.TYPE_CHECK)
_BOX = int(_C.BOXING_UNBOXING)
_NAME = int(_C.NAME_RESOLUTION)
_FUNC_RES = int(_C.FUNCTION_RESOLUTION)
_FUNC_SETUP = int(_C.FUNCTION_SETUP_CLEANUP)
_ERROR = int(_C.ERROR_CHECK)
_GC = int(_C.GARBAGE_COLLECTION)
_RICH = int(_C.RICH_CONTROL_FLOW)
_ALLOC = int(_C.OBJECT_ALLOCATION)
_REG = int(_C.REG_TRANSFER)
_EXEC = int(_C.EXECUTE)
_UNRESOLVED = int(_C.UNRESOLVED)

#: Small integers CPython caches and never allocates.
SMALL_INT_MIN = -5
SMALL_INT_MAX = 256

_FRAME_HEADER = 64
_FRAME_STACK_SLOTS = 48

#: Control signals returned by handlers to the frame loop.
_NEXT = 0
_FRAME_PUSHED = 1
_FRAME_RETURNED = 2

#: Opcode ints the hot handlers use (enum lookups are slow).
_OP_LOAD_FAST = int(Op.LOAD_FAST)
_OP_STORE_FAST = int(Op.STORE_FAST)
_OP_LOAD_CONST = int(Op.LOAD_CONST)
_OP_LOAD_ATTR = int(Op.LOAD_ATTR)
_OP_STORE_ATTR = int(Op.STORE_ATTR)
_OP_FOR_ITER = int(Op.FOR_ITER)
_OP_POP_TOP = int(Op.POP_TOP)
_OP_JUMP_ABSOLUTE = int(Op.JUMP_ABSOLUTE)
_OP_LOAD_METHOD = int(Op.LOAD_METHOD)
_OP_CALL_METHOD = int(Op.CALL_METHOD)
_OP_CALL_FUNCTION = int(Op.CALL_FUNCTION)
_OP_LOAD_GLOBAL = int(Op.LOAD_GLOBAL)
_OP_RETURN_VALUE = int(Op.RETURN_VALUE)
_OP_BINARY_SUBSCR = int(Op.BINARY_SUBSCR)
_OP_POP_JUMP_IF_FALSE = int(Op.POP_JUMP_IF_FALSE)
_OP_POP_JUMP_IF_TRUE = int(Op.POP_JUMP_IF_TRUE)

#: Numeric binary opcodes (one shared handler) and their C helpers.
_NUMERIC_OPS = {
    int(Op.BINARY_ADD): "add", int(Op.BINARY_SUB): "sub",
    int(Op.BINARY_MUL): "mul", int(Op.BINARY_TRUEDIV): "truediv",
    int(Op.BINARY_FLOORDIV): "floordiv", int(Op.BINARY_MOD): "mod",
    int(Op.BINARY_POW): "pow", int(Op.BINARY_AND): "and",
    int(Op.BINARY_OR): "or", int(Op.BINARY_XOR): "xor",
    int(Op.BINARY_LSHIFT): "lshift", int(Op.BINARY_RSHIFT): "rshift",
}

#: Opcodes whose handler emits one template for its common shape, with
#: the bytecode's dispatch rows inside it (see ``handlers_emit_dispatch``):
#: one queue entry per bytecode is where the burst backend's speed is.
_TEMPLATED_OPS = frozenset({
    _OP_LOAD_FAST, _OP_STORE_FAST, _OP_LOAD_CONST, _OP_LOAD_ATTR,
    _OP_STORE_ATTR, _OP_FOR_ITER, _OP_POP_TOP, _OP_JUMP_ABSOLUTE,
    _OP_LOAD_METHOD, _OP_CALL_METHOD, _OP_CALL_FUNCTION, _OP_LOAD_GLOBAL,
    _OP_RETURN_VALUE, _OP_BINARY_SUBSCR, _OP_POP_JUMP_IF_FALSE,
    _OP_POP_JUMP_IF_TRUE, *_NUMERIC_OPS,
})

#: Machine attributes a template can take as implicit inputs, and the
#: queue-time code for each subset a recorded template keeps.
_BOTH = ("origin", "sp")
_IMPLICIT_MASK = {(): 0, ("origin",): 1, ("sp",): 2, _BOTH: 3}


class Frame:
    """One guest call frame: locals, value stack, block stack."""

    __slots__ = ("code", "pc", "stack", "locals", "blocks", "addr",
                 "return_to", "bc_base")

    def __init__(self, code: CodeObject, addr: int) -> None:
        self.code = code
        self.pc = 0
        self.stack: list[GuestObject] = []
        self.locals: list[GuestObject | None] = [None] * len(code.varnames)
        self.blocks: list[int] = []
        self.addr = addr
        #: Index in the parent's stack where the return value lands; kept
        #: implicit (parent stack append), stored for diagnostics only.
        self.return_to = -1

    def size_bytes(self) -> int:
        return (_FRAME_HEADER
                + 8 * (len(self.locals) + _FRAME_STACK_SLOTS))

    def stack_addr(self, depth_from_top: int = 0) -> int:
        index = len(self.stack) - 1 - depth_from_top
        return self.addr + _FRAME_HEADER + 8 * (index % _FRAME_STACK_SLOTS)

    def local_addr(self, slot: int) -> int:
        return (self.addr + _FRAME_HEADER + 8 * _FRAME_STACK_SLOTS
                + 8 * slot)


class RunStats:
    """Counters a run accumulates for the analysis layer."""

    __slots__ = ("bytecodes", "guest_calls", "c_library_calls",
                 "allocations", "allocated_bytes", "minor_gcs", "major_gcs",
                 "gc_copied_bytes", "deopts", "traces_compiled",
                 "compiled_ops", "bridges_compiled")

    def __init__(self) -> None:
        self.bytecodes = 0
        self.guest_calls = 0
        self.c_library_calls = 0
        self.allocations = 0
        self.allocated_bytes = 0
        self.minor_gcs = 0
        self.major_gcs = 0
        self.gc_copied_bytes = 0
        self.deopts = 0
        self.traces_compiled = 0
        self.compiled_ops = 0
        self.bridges_compiled = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready view (telemetry manifests, reports)."""
        return {name: getattr(self, name) for name in self.__slots__}


class BaseVM:
    """MiniPy interpreter with categorized host-instruction emission."""

    runtime_name = "base"
    #: True for runtimes that maintain per-object reference counts
    #: (CPython model); the PyPy model relies on tracing GC instead.
    refcounting = True
    #: True when :meth:`execute_frame` leaves the dispatch rows of the
    #: ``_TEMPLATED_OPS`` to their handlers, which fold them into their
    #: template. A loop that emits rows between dispatch and handler
    #: (the PyPy JIT's recorder) emits every dispatch itself instead.
    handlers_emit_dispatch = True

    def __init__(self, machine: HostMachine, program: Program) -> None:
        self.machine = machine
        self.program = program
        self.stats = RunStats()
        #: Optional optimization (paper ref [20]): cache global lookups
        #: per call site instead of probing the dict every time.
        self.global_cache_enabled = False
        #: Per-call plan: (discard_return, value_to_push_instead).
        self._return_plans: list[tuple[bool, GuestObject | None]] = []
        self._module_result: GuestObject | None = None
        self.globals: dict[str, GuestObject] = {}
        self.frames: list[Frame] = []
        self._small_ints: dict[int, PyInt] = {}
        self._code_addrs: dict[int, int] = {}
        self._interned_strs: dict[str, PyStr] = {}
        self._init_sites()
        self._init_immortals()
        self._bind_emitter()
        self._handlers = self._build_handler_table()
        from .builtins import install_builtins
        self.builtins: dict[str, PyBuiltin] = {}
        install_builtins(self)
        self._install_program()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _init_sites(self) -> None:
        m = self.machine
        self.s_dispatch = m.site("ceval.dispatch")
        self.s_regxfer = m.site("ceval.reg_transfer")
        self.s_stack = m.site("ceval.stack")
        self.s_const = m.site("ceval.const_load")
        self.s_type = m.site("ceval.type_check")
        self.s_box = m.site("ceval.boxing")
        self.s_err = m.site("ceval.error_check")
        self.s_gc = m.site("gcmodule.refcount")
        self.s_rich = m.site("ceval.rich_control")
        self.s_name = m.site("ceval.name_resolution")
        self.s_funcres = m.site("ceval.function_resolution")
        self.s_funcsetup = m.site("ceval.function_setup")
        self.s_alloc = m.site("obmalloc.alloc")
        self.s_exec = m.site("ceval.execute")
        self.s_dict_lookup = m.site("dictobject.lookdict")
        self._handler_sites = {
            op: m.site(f"ceval.handler.{op.name}") for op in Op
        }
        self._handler_site_by_op = [0] * 96
        for op, site in self._handler_sites.items():
            self._handler_site_by_op[int(op)] = site
        # Pre-intern every remaining static interpreter site so PCs are
        # identical for every guest program, the way a compiled
        # interpreter binary's addresses are (the annotate-once reuse of
        # Section IV-B.3 depends on this).
        for op_name in _NUMERIC_OPS.values():
            m.site(f"ceval.call_binop_{op_name}")
            m.site(f"abstract.binary_{op_name}")
        for name in ("ceval.call_lookdict", "ceval.call_cmp",
                     "object.richcompare", "ceval.call_getiter",
                     "object.getiter", "ceval.call_iternext",
                     "object.iternext", "ceval.call_getitem",
                     "abstract.getitem", "ceval.call_setitem",
                     "abstract.setitem", "ceval.call_cfunction",
                     "ceval.handler.BINARY_SUBSCR.dict",
                     "ceval.handler.STORE_SUBSCR.dict",
                     "ceval.handler.COMPARE_OP.contains"):
            m.site(name)

    def _init_immortals(self) -> None:
        """Place singletons and caches in the VM data region."""
        space = self.machine.space
        # The singletons are module-global objects; restore their pristine
        # state (fresh address, unit refcount) for every VM so a run's
        # trace depends only on its own inputs. Carrying addr/refcount
        # over from a previous VM in the same process made the first run
        # lay out vm_data — and free objects at teardown — differently
        # from every later one, breaking byte-for-byte reproducibility
        # across processes and disk-cache hits.
        for obj in (NONE, TRUE, FALSE):
            obj.addr = space.vm_data.bump(obj.size_bytes())
            obj.refcount = 1
            obj.gc_age = 0
        for value in range(SMALL_INT_MIN, SMALL_INT_MAX + 1):
            boxed = PyInt(value)
            boxed.addr = space.vm_data.bump(boxed.size_bytes())
            self._small_ints[value] = boxed

    def _install_program(self) -> None:
        """Register compiled functions and classes as immortal globals."""
        for name, code in self.program.functions.items():
            func = PyFunc(code)
            self._make_immortal(func)
            self.globals[name] = func
        for name, spec in self.program.classes.items():
            methods = {}
            for method_name, code in spec.methods.items():
                func = PyFunc(code)
                self._make_immortal(func)
                methods[method_name] = func
            cls = PyClass(name, methods)
            self._make_immortal(cls)
            self.globals[name] = cls

    def _make_immortal(self, obj: GuestObject) -> None:
        obj.addr = self.machine.space.vm_data.bump(obj.size_bytes())
        obj.refcount = 1 << 30

    def code_addr(self, code: CodeObject) -> int:
        """Simulated address of a code object's bytecode array."""
        addr = self._code_addrs.get(id(code))
        if addr is None:
            size = 64 + 2 * len(code.ops) + 8 * len(code.consts)
            addr = self.machine.space.vm_data.bump(size)
            self._code_addrs[id(code)] = addr
        return addr

    def intern_str(self, value: str) -> PyStr:
        """Immortal interned string (names, const strings)."""
        obj = self._interned_strs.get(value)
        if obj is None:
            obj = PyStr(value)
            self._make_immortal(obj)
            self._interned_strs[value] = obj
        return obj

    # ------------------------------------------------------------------
    # Memory-management hooks (overridden per runtime)
    # ------------------------------------------------------------------

    def alloc_object(self, obj: GuestObject, category: int = _ALLOC,
                     ) -> GuestObject:
        """Assign a simulated address to ``obj`` and emit allocation work."""
        raise NotImplementedError

    def alloc_buffer(self, nbytes: int, category: int = _ALLOC) -> int:
        """Allocate an out-of-line buffer (list items, dict table)."""
        raise NotImplementedError

    def retain(self, obj: GuestObject) -> None:
        """Reference-count increment (CPython model) or no-op (PyPy)."""

    def release(self, obj: GuestObject) -> None:
        """Reference-count decrement, possibly freeing (CPython model)."""

    def gc_poll(self) -> None:
        """Give the collector a chance to run (PyPy model)."""

    # ------------------------------------------------------------------
    # Emission: one generic call, bound per backend
    # ------------------------------------------------------------------

    # Every hot emission is an *emission-only* ``_rows_*`` body plus the
    # dynamic operands its caller computes from the semantics. A body
    # only writes trace rows; the one piece of machine state it may set
    # is ``machine.origin`` (dispatch re-targets it at the handler), and
    # every C call it makes returns before it does. ``emit_rows`` is
    # bound once at init: the scalar backend runs the body eagerly; the
    # burst backend records the body into a template at its first use
    # (see :mod:`repro.host.burst`) and from then on enqueues the
    # template id plus the operands. Both backends execute the same body
    # — eagerly or at record time — so their traces are bit-identical.
    #
    # ``key`` is a tuple: the body's name, then its static leading
    # arguments (opcode, branch count, category...), which pick the
    # template. ``dyn`` is a fresh list of the remaining arguments;
    # they, plus whichever of the machine's ``origin`` and ``sp`` the
    # rows read, are the template's linear inputs.

    def _bind_emitter(self) -> None:
        machine = self.machine
        if machine.backend != "burst":
            self.emit_rows = self._emit_eager
            return
        engine = machine._engine
        self._eng = engine
        # The engine clears its queues in place, so the array objects —
        # and these bound methods — stay valid across flushes.
        self._q_order = engine.order
        self._q_append = engine.order.append
        self._q_fromlist = engine.dyn.fromlist  # far cheaper than extend
        #: key -> (tid, implicit inputs as an ``_IMPLICIT_MASK`` code,
        #: origin the body leaves or None) | False.
        self._entries: dict[tuple, tuple | bool] = {}
        self.emit_rows = self._emit_queued

    def _emit_eager(self, key: tuple, dyn: list) -> None:
        getattr(self, key[0])(*key[1:], *dyn)

    def _emit_queued(self, key: tuple, dyn: list) -> None:
        m = self.machine
        entry = self._entries.get(key)
        if entry is None:
            entry = self._record(key, dyn)
        if entry is False or m.clib_depth:
            # Non-linear bodies and C-library re-tagging go row by row
            # through the machine's raw queue.
            getattr(self, key[0])(*key[1:], *dyn)
            return
        tid, implicit, origin_out = entry
        if not m.suppressed:
            if implicit:
                if implicit == 1:
                    dyn.append(m.origin)
                elif implicit == 2:
                    dyn.append(m.sp)
                else:
                    dyn += (m.origin, m.sp)
            self._q_append(tid)
            self._q_fromlist(dyn)
            if len(self._q_order) >= _FLUSH_ENTRIES:
                self._eng.flush()
        # Suppressed rows vanish either way; the origin change is the
        # only effect left to replay.
        if origin_out is not None:
            m.origin = origin_out

    def _record(self, key: tuple, dyn: list) -> tuple | bool:
        """Record ``key``'s body and cache its queue entry.

        The recording also tells whether the body leaves ``origin`` as
        it found it (``origin_out`` None) or always sets one value; a
        body that does neither, or moves ``sp``, stays eager.
        """
        m = self.machine
        body = getattr(self, key[0])
        static = key[1:]
        exits: set[tuple] = set()

        def thunk(values: list[int]) -> None:
            origin, sp = m.origin, m.sp
            body(*static, *values)
            exits.add((m.origin == origin, m.origin, m.sp == sp))

        entry: tuple | bool = False
        tid = self._eng.record(thunk, list(dyn), implicit=_BOTH)
        if tid is not None and all(same_sp for _, _, same_sp in exits):
            implicit = _IMPLICIT_MASK[self._eng.templates[tid].implicit]
            if all(kept for kept, _, _ in exits):
                entry = (tid, implicit, None)
            elif len({origin for _, origin, _ in exits}) == 1:
                entry = (tid, implicit, exits.pop()[1])
        self._entries[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Emission helpers (hot path)
    # ------------------------------------------------------------------

    def _rows_dispatch(self, op: int, bc_addr: int) -> None:
        m = self.machine
        handler = self._handler_site_by_op[op]
        m.origin = handler
        m.load(self.s_dispatch, _DISPATCH, bc_addr, 2)
        m.alu(self.s_dispatch + 8, _DISPATCH, n=2)
        # Switch dispatch: bounds check plus indirect jump via jump table.
        m.branch(self.s_dispatch + 16, _DISPATCH, taken=False)
        m.indirect_branch(self.s_dispatch + 20, _DISPATCH, target=handler)
        # Residual handler work the annotation cannot attribute to any
        # overhead category; the paper's breakdown counts such
        # instructions as program execution (Section IV-B).
        m.alu(handler, _EXEC, n=4)

    def emit_dispatch(self, op: int, bc_addr: int) -> None:
        """Fetch, decode and jump to ``op``'s handler (``bc_addr``)."""
        self.emit_rows(("_rows_dispatch", op), [bc_addr])

    def _handler_dispatch(self, frame: Frame, op: int) -> None:
        """Dispatch rows for a templated handler's untemplated paths.

        A templated handler (``_TEMPLATED_OPS``) carries its dispatch
        rows inside its template when ``handlers_emit_dispatch``; on
        its other paths it emits them here, before anything else.
        """
        if self.handlers_emit_dispatch:
            self.emit_dispatch(op, frame.bc_base + 2 * (frame.pc - 1))

    def _rows_push(self, slot_addr: int) -> None:
        m = self.machine
        m.alu(self.s_regxfer, _REG, n=1)
        m.store(self.s_stack, _STACK, slot_addr)
        m.alu(self.s_stack + 8, _STACK, n=1)

    def emit_push(self, frame: Frame, obj: GuestObject) -> None:
        stack = frame.stack
        stack.append(obj)
        self.emit_rows(("_rows_push",), [
            frame.addr + _FRAME_HEADER
            + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS)])

    def _rows_pop(self, slot_addr: int) -> None:
        m = self.machine
        m.alu(self.s_regxfer, _REG, n=1)
        m.load(self.s_stack + 16, _STACK, slot_addr)
        m.alu(self.s_stack + 24, _STACK, n=1)

    def emit_pop(self, frame: Frame) -> GuestObject:
        stack = frame.stack
        self.emit_rows(("_rows_pop",), [
            frame.addr + _FRAME_HEADER
            + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS)])
        return stack.pop()

    def _rows_peek(self, slot_addr: int) -> None:
        m = self.machine
        m.alu(self.s_regxfer, _REG, n=1)
        m.load(self.s_stack + 32, _STACK, slot_addr)

    def emit_peek(self, frame: Frame, depth: int = 0) -> GuestObject:
        self.emit_rows(("_rows_peek",), [frame.stack_addr(depth)])
        return frame.stack[-1 - depth]

    def _rows_typecheck(self, n_branches: int, obj_addr: int) -> None:
        m = self.machine
        m.load(self.s_type, _TYPE, obj_addr)  # ob_type
        m.alu(self.s_type + 8, _TYPE, n=1)
        for i in range(n_branches):
            m.branch(self.s_type + 12 + 4 * i, _TYPE, taken=(i == 0))

    def emit_typecheck(self, obj: GuestObject, n_branches: int = 1) -> None:
        self.emit_rows(("_rows_typecheck", n_branches), [obj.addr])

    def emit_unbox(self, obj: GuestObject) -> None:
        self.machine.load(self.s_box, _BOX, obj.addr + 16)

    def emit_box_store(self, obj: GuestObject) -> None:
        self.machine.store(self.s_box + 8, _BOX, obj.addr + 16)

    def _rows_error_check(self, taken: bool) -> None:
        m = self.machine
        m.alu(self.s_err, _ERROR, n=1)
        m.branch(self.s_err + 4, _ERROR, taken=taken)

    def emit_error_check(self, taken: bool = False) -> None:
        self.emit_rows(("_rows_error_check", taken), [])

    def _rows_incref(self, obj_addr: int) -> None:
        m = self.machine
        # Read-modify-write on ob_refcnt (one inc-to-memory on x86).
        m.alu(self.s_gc + 8, _GC, n=1)
        m.store(self.s_gc + 12, _GC, obj_addr)

    def emit_incref(self, obj: GuestObject) -> None:
        if not self.refcounting:
            return
        self.emit_rows(("_rows_incref",), [obj.addr])
        self.retain(obj)

    def _rows_decref(self, obj_addr: int) -> None:
        m = self.machine
        m.load(self.s_gc + 16, _GC, obj_addr)
        m.alu(self.s_gc + 24, _GC, n=1)
        m.store(self.s_gc + 28, _GC, obj_addr)
        m.branch(self.s_gc + 32, _GC, taken=False)

    def emit_decref(self, obj: GuestObject) -> None:
        if not self.refcounting:
            return
        # The decref rows precede any dealloc cascade ``release`` runs.
        self.emit_rows(("_rows_decref",), [obj.addr])
        self.release(obj)

    def emit_write_barrier(self, container: GuestObject) -> None:
        """Generational-GC write barrier; no-op under refcounting."""

    def _rows_execute_alu(self, n: int) -> None:
        self.machine.alu(self.s_exec, _EXEC, n=n)

    def emit_execute_alu(self, n: int = 1) -> None:
        self.emit_rows(("_rows_execute_alu", n), [])

    def _rows_dict_lookup(self, probe: int) -> None:
        m = self.machine
        # lookdict is reached through the dict's ma_lookup pointer.
        with m.c_call("ceval.call_lookdict", "dictobject.lookdict",
                      indirect=True, args=2, saves=2):
            m.alu(self.s_dict_lookup, _UNRESOLVED, n=3)  # hash mixing
            m.load(self.s_dict_lookup + 12, _UNRESOLVED, probe)
            m.alu(self.s_dict_lookup + 16, _UNRESOLVED, n=1)
            m.branch(self.s_dict_lookup + 20, _UNRESOLVED, taken=False)
            m.load(self.s_dict_lookup + 24, _UNRESOLVED, probe + 8)

    def dict_lookup_emit(self, d_table_addr: int, slot_hint: int) -> None:
        """The shared ``lookdict`` helper (function-granularity site).

        Emitted with the UNRESOLVED category: the pintool resolves it to
        NAME_RESOLUTION or EXECUTE based on the recorded origin PC, which
        is exactly the caller-dependent case Section IV-B describes.
        """
        self.emit_rows(("_rows_dict_lookup",),
                       [d_table_addr + 24 * (slot_hint & 1023)])

    # ------------------------------------------------------------------
    # Boxing
    # ------------------------------------------------------------------

    def make_int(self, value: int) -> PyInt:
        if SMALL_INT_MIN <= value <= SMALL_INT_MAX:
            cached = self._small_ints[value]
            self.machine.alu(self.s_box + 16, _BOX, n=1)
            return cached
        obj = PyInt(value)
        self.alloc_object(obj)
        self.emit_box_store(obj)
        return obj

    def make_float(self, value: float) -> PyFloat:
        obj = PyFloat(value)
        self.alloc_object(obj)
        self.emit_box_store(obj)
        return obj

    def make_bool(self, value: bool) -> PyBool:
        self.machine.alu(self.s_box + 20, _BOX, n=1)
        return TRUE if value else FALSE

    def make_str(self, value: str) -> PyStr:
        obj = PyStr(value)
        self.alloc_object(obj)
        if value:
            self.machine.touch_range(self.s_exec + 16, _EXEC,
                                     obj.addr + 32, len(value), write=True)
        return obj

    def make_list(self, items: list[GuestObject]) -> PyList:
        obj = PyList(items)
        self.alloc_object(obj)
        obj.buffer_addr = self.alloc_buffer(obj.buffer_bytes())
        m = self.machine
        for i, item in enumerate(items):
            m.store(self.s_exec + 20, _EXEC, obj.buffer_addr + 8 * i)
            _ = item
        return obj

    def make_tuple(self, items: tuple[GuestObject, ...]) -> PyTuple:
        obj = PyTuple(items)
        self.alloc_object(obj)
        m = self.machine
        for i in range(len(items)):
            m.store(self.s_exec + 24, _EXEC, obj.addr + 24 + 8 * i)
        return obj

    def make_dict(self) -> PyDict:
        obj = PyDict()
        self.alloc_object(obj)
        obj.table_addr = self.alloc_buffer(obj.table_bytes())
        return obj

    def box_const(self, value: object) -> GuestObject:
        """Box a compile-time constant (interned, immortal)."""
        if isinstance(value, bool):
            return TRUE if value else FALSE
        if value is None:
            return NONE
        if isinstance(value, int):
            if SMALL_INT_MIN <= value <= SMALL_INT_MAX:
                return self._small_ints[value]
            obj = PyInt(value)
            self._make_immortal(obj)
            return obj
        if isinstance(value, float):
            obj = PyFloat(value)
            self._make_immortal(obj)
            return obj
        if isinstance(value, str):
            return self.intern_str(value)
        raise VMError(f"cannot box constant {value!r}")

    # ------------------------------------------------------------------
    # Frames and the main loop
    # ------------------------------------------------------------------

    def make_frame(self, code: CodeObject) -> Frame:
        frame = Frame(code, 0)
        frame.bc_base = self.code_addr(code)
        frame.addr = self.alloc_frame(frame)
        return frame

    def alloc_frame(self, frame: Frame) -> int:
        """Allocate frame storage; emission tagged function setup/cleanup."""
        raise NotImplementedError

    def free_frame(self, frame: Frame) -> None:
        """Release frame storage on return."""
        raise NotImplementedError

    def run(self) -> RunStats:
        """Execute the program's module code to completion."""
        const_objects = {}
        for code in self.program.code_objects():
            const_objects[id(code)] = [
                self.box_const(value) for value in code.consts]
        self._const_objects = const_objects
        module_frame = self.make_frame(self.program.module)
        self.frames.append(module_frame)
        self.run_frames()
        return self.stats

    def run_frames(self) -> None:
        """Drive the frame stack until the bottom frame returns."""
        base_depth = len(self.frames) - 1
        while len(self.frames) > base_depth:
            frame = self.frames[-1]
            self.execute_frame(frame)

    def execute_frame(self, frame: Frame) -> None:
        """Run one frame until it pushes a callee frame or returns.

        The handlers of ``_TEMPLATED_OPS`` emit their own dispatch rows
        (inside their template); the loop emits it for every other op.
        """
        handlers = self._handlers
        loop_dispatch = self._loop_dispatch
        ops = frame.code.ops
        args = frame.code.args
        bc_base = frame.bc_base
        stats = self.stats
        machine = self.machine
        # The counter lives in a local during the loop (handlers never
        # read it) and is synced on every exit path.
        n = stats.bytecodes
        try:
            while True:
                pc = frame.pc
                op = ops[pc]
                if loop_dispatch[op]:
                    self.emit_dispatch(op, bc_base + 2 * pc)
                frame.pc = pc + 1
                n += 1
                if not (n & 0x3FF):
                    stats.bytecodes = n
                    machine.check_budget()
                if handlers[op](frame, args[pc]):
                    return
        finally:
            stats.bytecodes = n

    def _build_handler_table(self) -> list:
        table: list = [None] * 96
        for op in Op:
            if int(op) in _NUMERIC_OPS:
                method = partial(self._binary_op, int(op))
            else:
                method = getattr(self, f"op_{op.name.lower()}", None)
            if method is None:
                raise VMError(f"missing handler for {op.name}")
            table[int(op)] = method
        self._loop_dispatch = [
            not (self.handlers_emit_dispatch and op in _TEMPLATED_OPS)
            for op in range(96)]
        return table

    # ------------------------------------------------------------------
    # Handlers: stack and constants
    # ------------------------------------------------------------------

    def _rows_op_load_const(self, bc_addr: int, const_addr: int,
                            obj_addr: int, slot_addr: int) -> None:
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_LOAD_CONST, bc_addr)
        m.alu(self.s_regxfer + 4, _REG, n=1)
        m.load(self.s_const, _CONST, const_addr)
        if self.refcounting:
            self._rows_incref(obj_addr)
        self._rows_push(slot_addr)

    def op_load_const(self, frame: Frame, arg: int) -> int:
        obj = self._const_objects[id(frame.code)][arg]
        stack = frame.stack
        bc_base = frame.bc_base
        self.emit_rows(("_rows_op_load_const",), [
            bc_base + 2 * (frame.pc - 1), bc_base + 64 + 8 * arg, obj.addr,
            frame.addr + _FRAME_HEADER
            + 8 * (len(stack) % _FRAME_STACK_SLOTS)])
        stack.append(obj)
        if self.refcounting:
            self.retain(obj)
        return _NEXT

    def _rows_op_pop_top(self, bc_addr: int, pop_slot: int,
                         obj_addr: int) -> None:
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_POP_TOP, bc_addr)
        self._rows_pop(pop_slot)
        if self.refcounting:
            self._rows_decref(obj_addr)

    def op_pop_top(self, frame: Frame, arg: int) -> int:
        stack = frame.stack
        obj = stack[-1]
        self.emit_rows(("_rows_op_pop_top",), [
            frame.bc_base + 2 * (frame.pc - 1),
            frame.addr + _FRAME_HEADER
            + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS), obj.addr])
        stack.pop()
        if self.refcounting:
            # A zero refcount cascades through the dealloc path, whose
            # rows land after the decref rows just emitted.
            self.release(obj)
        return _NEXT

    def op_dup_top(self, frame: Frame, arg: int) -> int:
        obj = self.emit_peek(frame)
        self.emit_incref(obj)
        self.emit_push(frame, obj)
        return _NEXT

    def op_rot_two(self, frame: Frame, arg: int) -> int:
        m = self.machine
        m.load(self.s_stack + 40, _STACK, frame.stack_addr(0))
        m.load(self.s_stack + 44, _STACK, frame.stack_addr(1))
        m.store(self.s_stack + 48, _STACK, frame.stack_addr(0))
        m.store(self.s_stack + 52, _STACK, frame.stack_addr(1))
        stack = frame.stack
        stack[-1], stack[-2] = stack[-2], stack[-1]
        return _NEXT

    # ------------------------------------------------------------------
    # Handlers: variables
    # ------------------------------------------------------------------

    def _rows_op_load_fast(self, bc_addr: int, local_addr: int,
                           obj_addr: int, slot_addr: int) -> None:
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_LOAD_FAST, bc_addr)
        m.alu(self.s_regxfer + 8, _REG, n=1)
        m.load(self.s_stack + 56, _STACK, local_addr)
        self._rows_error_check(False)
        if self.refcounting:
            self._rows_incref(obj_addr)
        self._rows_push(slot_addr)

    def op_load_fast(self, frame: Frame, arg: int) -> int:
        obj = frame.locals[arg]
        if obj is None:
            self._handler_dispatch(frame, _OP_LOAD_FAST)
            m = self.machine
            m.alu(self.s_regxfer + 8, _REG, n=1)
            m.load(self.s_stack + 56, _STACK, frame.local_addr(arg))
            name = frame.code.varnames[arg]
            raise GuestNameError(
                f"local variable {name!r} referenced before assignment")
        stack = frame.stack
        base_addr = frame.addr + _FRAME_HEADER
        self.emit_rows(("_rows_op_load_fast",), [
            frame.bc_base + 2 * (frame.pc - 1),
            base_addr + 8 * _FRAME_STACK_SLOTS + 8 * arg, obj.addr,
            base_addr + 8 * (len(stack) % _FRAME_STACK_SLOTS)])
        stack.append(obj)
        if self.refcounting:
            self.retain(obj)
        return _NEXT

    def _rows_op_store_fast(self, bc_addr: int, pop_slot: int,
                            local_addr: int) -> None:
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_STORE_FAST, bc_addr)
        self._rows_pop(pop_slot)
        m.alu(self.s_regxfer + 12, _REG, n=1)
        m.store(self.s_stack + 60, _STACK, local_addr)

    def op_store_fast(self, frame: Frame, arg: int) -> int:
        stack = frame.stack
        base_addr = frame.addr + _FRAME_HEADER
        self.emit_rows(("_rows_op_store_fast",), [
            frame.bc_base + 2 * (frame.pc - 1),
            base_addr + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS),
            base_addr + 8 * _FRAME_STACK_SLOTS + 8 * arg])
        obj = stack.pop()
        old = frame.locals[arg]
        frame.locals[arg] = obj
        if old is not None:
            self.emit_decref(old)
        return _NEXT

    def _rows_global_lookup(self, miss: bool, name_cell: int,
                            globals_probe: int,
                            builtins_probe: int) -> None:
        """Uncached global lookup: globals, then builtins on a miss."""
        m = self.machine
        m.origin = self._handler_site_by_op[_OP_LOAD_GLOBAL]
        # Fetch the interned name object and mix its cached hash.
        m.alu(self.s_name, _NAME, n=4)
        m.load(self.s_name + 16, _NAME, name_cell)
        self._rows_dict_lookup(globals_probe)
        if miss:
            m.branch(self.s_name + 8, _NAME, taken=True)
            self._rows_dict_lookup(builtins_probe)

    def _rows_op_load_global(self, miss: bool, bc_addr: int,
                             name_cell: int, globals_probe: int,
                             builtins_probe: int, obj_addr: int,
                             slot_addr: int) -> None:
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_LOAD_GLOBAL, bc_addr)
        self._rows_global_lookup(miss, name_cell, globals_probe,
                                 builtins_probe)
        if self.refcounting:
            self._rows_incref(obj_addr)
        self._rows_push(slot_addr)

    def op_load_global(self, frame: Frame, arg: int) -> int:
        """Globals then builtins, through the shared lookdict helper."""
        name = frame.code.names[arg]
        m = self.machine
        obj = self.globals.get(name)
        miss = obj is None
        if miss:
            obj = self.builtins.get(name)
        name_hash = stable_hash(name)
        data = m.space.vm_data.base
        if self.global_cache_enabled:
            self._handler_dispatch(frame, _OP_LOAD_GLOBAL)
            m.origin = self._handler_site_by_op[_OP_LOAD_GLOBAL]
            # Inline cache: version check plus a direct cell load — the
            # optimization Chandra et al. propose and the paper cites as
            # the fix for name-resolution overhead.
            m.load(self.s_name + 24, _NAME,
                   data + 0x800 + (name_hash & 0xF8))
            m.branch(self.s_name + 28, _NAME, taken=False)
            m.load(self.s_name + 32, _NAME,
                   data + 0x840 + (name_hash & 0xF8))
            if obj is None:
                raise GuestNameError(f"name {name!r} is not defined")
            self.emit_incref(obj)
            self.emit_push(frame, obj)
            return _NEXT
        table = data + 0x1000 + 24 * (name_hash & 1023)
        lookup = [data + 0x900 + (name_hash & 0xFF8), table,
                  table + 0x8000]
        if obj is None:
            self._handler_dispatch(frame, _OP_LOAD_GLOBAL)
            self.emit_rows(("_rows_global_lookup", True), lookup)
            raise GuestNameError(f"name {name!r} is not defined")
        stack = frame.stack
        self.emit_rows(("_rows_op_load_global", miss), [
            frame.bc_base + 2 * (frame.pc - 1), *lookup, obj.addr,
            frame.addr + _FRAME_HEADER
            + 8 * (len(stack) % _FRAME_STACK_SLOTS)])
        if self.refcounting:
            self.retain(obj)
        stack.append(obj)
        return _NEXT

    def op_store_global(self, frame: Frame, arg: int) -> int:
        name = frame.code.names[arg]
        obj = self.emit_pop(frame)
        m = self.machine
        m.alu(self.s_name + 12, _NAME, n=2)
        table = self.machine.space.vm_data.base + 0x1000
        self.dict_lookup_emit(table, stable_hash(name))
        m.store(self.s_name + 20, _NAME, table + 24 * (stable_hash(name) & 1023))
        old = self.globals.get(name)
        self.globals[name] = obj
        if old is not None:
            self.emit_decref(old)
        return _NEXT

    # ------------------------------------------------------------------
    # Handlers: binary and unary operators
    # ------------------------------------------------------------------

    def _rows_binop_prefix(self, pop_r_slot: int, pop_l_slot: int,
                           left_addr: int, right_addr: int) -> None:
        """Operand pops, type checks and the ``nb_<op>`` slot load."""
        m = self.machine
        self._rows_pop(pop_r_slot)
        self._rows_pop(pop_l_slot)
        # Type checks on both operands to select the operation.
        self._rows_typecheck(1, left_addr)
        self._rows_typecheck(1, right_addr)
        # Function resolution: load tp_as_number->nb_<op> pointer.
        m.load(self.s_funcres, _FUNC_RES, left_addr)
        m.load(self.s_funcres + 8, _FUNC_RES,
               self.machine.space.vm_data.base + 0x2000)
        m.alu(self.s_funcres + 12, _FUNC_RES, n=1)

    def _rows_int_binop(self, left_addr: int, right_addr: int) -> None:
        """Small-int arithmetic: unbox both, overflow check, cached box."""
        m = self.machine
        m.load(self.s_box, _BOX, left_addr + 16)
        m.load(self.s_box, _BOX, right_addr + 16)
        self._rows_error_check(False)
        m.alu(self.s_box + 16, _BOX, n=1)

    def _rows_op_binary(self, op: int, bc_addr: int, pop_r_slot: int,
                        pop_l_slot: int, left_addr: int, right_addr: int,
                        slot_addr: int) -> None:
        """A whole small-int binary op, ``abstract.binary_*`` included."""
        m = self.machine
        op_name = _NUMERIC_OPS[op]
        if self.handlers_emit_dispatch:
            self._rows_dispatch(op, bc_addr)
        self._rows_binop_prefix(pop_r_slot, pop_l_slot, left_addr,
                                right_addr)
        with m.c_call(f"ceval.call_binop_{op_name}",
                      f"abstract.binary_{op_name}", indirect=True,
                      args=2, saves=2):
            self._rows_int_binop(left_addr, right_addr)
        if self.refcounting:
            self._rows_decref(left_addr)
            self._rows_decref(right_addr)
        self._rows_push(slot_addr)

    def _binary_op(self, op: int, frame: Frame, arg: int) -> int:
        """Numeric binary opcode: one template for small-int results.

        Operands a decref would free take the general path, so their
        dealloc rows land between the decref and the push.
        """
        stack = frame.stack
        left = stack[-2]
        right = stack[-1]
        result = self._small_int_result(left, right, _NUMERIC_OPS[op])
        if result is not None and not (
                self.refcounting
                and (left.refcount == 1 or right.refcount == 1)):
            idx = len(stack) - 1
            base_addr = frame.addr + _FRAME_HEADER
            pop_l = base_addr + 8 * ((idx - 1) % _FRAME_STACK_SLOTS)
            self.emit_rows(("_rows_op_binary", op), [
                frame.bc_base + 2 * (frame.pc - 1),
                base_addr + 8 * (idx % _FRAME_STACK_SLOTS), pop_l,
                left.addr, right.addr, pop_l])
            del stack[-2:]
            if self.refcounting:
                self.release(left)
                self.release(right)
            stack.append(result)
            return _NEXT
        self._handler_dispatch(frame, op)
        return self._binary_common(frame, _NUMERIC_OPS[op])

    def _binary_common(self, frame: Frame, op_name: str) -> int:
        """Shared implementation of all binary numeric/sequence operators."""
        stack = frame.stack
        idx = len(stack) - 1
        base_addr = frame.addr + _FRAME_HEADER
        self.emit_rows(("_rows_binop_prefix",), [
            base_addr + 8 * (idx % _FRAME_STACK_SLOTS),
            base_addr + 8 * ((idx - 1) % _FRAME_STACK_SLOTS),
            stack[-2].addr, stack[-1].addr])
        right = stack.pop()
        left = stack.pop()
        m = self.machine
        result = None
        with m.c_call(f"ceval.call_binop_{op_name}",
                      f"abstract.binary_{op_name}", indirect=True,
                      args=2, saves=2):
            result = self._binary_semantics(left, right, op_name)
        self.emit_decref(left)
        self.emit_decref(right)
        self.emit_push(frame, result)
        return _NEXT

    def _small_int_result(self, left: GuestObject, right: GuestObject,
                          op_name: str) -> PyInt | None:
        """The cached small int ``left <op> right`` gives, else None.

        None covers non-int operands, true division, operations that
        raise or return a float, and results outside the small-int
        cache (which allocate).
        """
        if (op_name == "truediv" or not isinstance(left, (PyInt, PyBool))
                or not isinstance(right, (PyInt, PyBool))):
            return None
        rv = int(right.value)
        if ((rv < 0 and op_name in ("lshift", "rshift", "pow"))
                or (rv == 0 and op_name in ("floordiv", "mod"))):
            return None
        value = self._int_op(op_name, int(left.value), rv)
        if type(value) is int and SMALL_INT_MIN <= value <= SMALL_INT_MAX:
            return self._small_ints[value]
        return None

    def _binary_semantics(self, left: GuestObject, right: GuestObject,
                          op_name: str) -> GuestObject:
        """Perform the real operation and emit its core-work instructions."""
        m = self.machine
        small = self._small_int_result(left, right, op_name)
        if small is not None:
            self.emit_rows(("_rows_int_binop",), [left.addr, right.addr])
            return small
        if isinstance(left, (PyInt, PyBool)) and \
                isinstance(right, (PyInt, PyBool)):
            self.emit_unbox(left)
            self.emit_unbox(right)
            lv = int(left.value)
            rv = int(right.value)
            value = self._int_op(op_name, lv, rv)
            self.emit_error_check(taken=False)  # overflow check
            if op_name == "truediv":
                return self.make_float(value)
            return self.make_int(value)
        if isinstance(left, (PyFloat, PyInt, PyBool)) and \
                isinstance(right, (PyFloat, PyInt, PyBool)):
            self.emit_unbox(left)
            self.emit_unbox(right)
            lv = float(left.value)
            rv = float(right.value)
            value = self._float_op(op_name, lv, rv)
            self.emit_error_check(taken=False)
            return self.make_float(value)
        if isinstance(left, PyStr) and isinstance(right, PyStr) and \
                op_name == "add":
            result = PyStr(left.value + right.value)
            self.alloc_object(result)
            m.touch_range(self.s_exec + 28, _EXEC, result.addr + 32,
                          len(result.value), write=True)
            m.touch_range(self.s_exec + 32, _EXEC, left.addr + 32,
                          len(left.value))
            m.touch_range(self.s_exec + 32, _EXEC, right.addr + 32,
                          len(right.value))
            return result
        if isinstance(left, PyStr) and isinstance(right, (PyInt, PyBool)) \
                and op_name == "mul":
            result = PyStr(left.value * int(right.value))
            self.alloc_object(result)
            m.touch_range(self.s_exec + 28, _EXEC, result.addr + 32,
                          len(result.value), write=True)
            return result
        if isinstance(left, PyList) and isinstance(right, PyList) and \
                op_name == "add":
            items = list(left.items) + list(right.items)
            for item in items:
                self.emit_incref(item)
            return self.make_list(items)
        if isinstance(left, PyList) and isinstance(right, (PyInt, PyBool)) \
                and op_name == "mul":
            items = list(left.items) * int(right.value)
            for item in items:
                self.emit_incref(item)
            return self.make_list(items)
        if isinstance(left, PyTuple) and isinstance(right, PyTuple) and \
                op_name == "add":
            items = tuple(left.items) + tuple(right.items)
            for item in items:
                self.emit_incref(item)
            return self.make_tuple(items)
        raise GuestTypeError(
            f"unsupported operand types for {op_name}: "
            f"{left.type_name!r} and {right.type_name!r}")

    @staticmethod
    def _int_op(op_name: str, lv: int, rv: int):
        if op_name == "add":
            return lv + rv
        if op_name == "sub":
            return lv - rv
        if op_name == "mul":
            return lv * rv
        if op_name == "truediv":
            if rv == 0:
                raise GuestZeroDivisionError("division by zero")
            return lv / rv
        if op_name == "floordiv":
            if rv == 0:
                raise GuestZeroDivisionError("integer division by zero")
            return lv // rv
        if op_name == "mod":
            if rv == 0:
                raise GuestZeroDivisionError("integer modulo by zero")
            return lv % rv
        if op_name == "pow":
            return lv ** rv
        if op_name == "and":
            return lv & rv
        if op_name == "or":
            return lv | rv
        if op_name == "xor":
            return lv ^ rv
        if op_name == "lshift":
            return lv << rv
        if op_name == "rshift":
            return lv >> rv
        raise VMError(f"unknown int op {op_name}")

    @staticmethod
    def _float_op(op_name: str, lv: float, rv: float) -> float:
        if op_name == "add":
            return lv + rv
        if op_name == "sub":
            return lv - rv
        if op_name == "mul":
            return lv * rv
        if op_name == "truediv":
            if rv == 0.0:
                raise GuestZeroDivisionError("float division by zero")
            return lv / rv
        if op_name == "floordiv":
            if rv == 0.0:
                raise GuestZeroDivisionError("float division by zero")
            return lv // rv
        if op_name == "mod":
            if rv == 0.0:
                raise GuestZeroDivisionError("float modulo by zero")
            return lv % rv
        if op_name == "pow":
            return lv ** rv
        raise GuestTypeError(f"unsupported float operation: {op_name}")

    def op_unary_neg(self, frame: Frame, arg: int) -> int:
        obj = self.emit_pop(frame)
        self.emit_typecheck(obj)
        self.emit_unbox(obj)
        self.emit_execute_alu(1)
        if isinstance(obj, (PyInt, PyBool)):
            result = self.make_int(-int(obj.value))
        elif isinstance(obj, PyFloat):
            result = self.make_float(-obj.value)
        else:
            raise GuestTypeError(
                f"bad operand type for unary -: {obj.type_name!r}")
        self.emit_decref(obj)
        self.emit_push(frame, result)
        return _NEXT

    def op_unary_not(self, frame: Frame, arg: int) -> int:
        obj = self.emit_pop(frame)
        truthy = self.emit_truthiness(obj)
        self.emit_decref(obj)
        self.emit_push(frame, self.make_bool(not truthy))
        return _NEXT

    def emit_truthiness(self, obj: GuestObject) -> bool:
        """PyObject_IsTrue: type check plus a value/size load."""
        m = self.machine
        self.emit_typecheck(obj, n_branches=2)
        m.load(self.s_rich, _RICH, obj.addr + 16)
        m.alu(self.s_rich + 8, _RICH, n=1)
        return obj.is_truthy()

    def op_compare_op(self, frame: Frame, arg: int) -> int:
        symbol = COMPARE_OPS[arg]
        right = self.emit_pop(frame)
        left = self.emit_pop(frame)
        m = self.machine
        self.emit_typecheck(left)
        self.emit_typecheck(right)
        with m.c_call("ceval.call_cmp", "object.richcompare",
                      indirect=True, args=3, saves=2):
            result = self._compare_semantics(left, right, symbol)
        self.emit_decref(left)
        self.emit_decref(right)
        self.emit_push(frame, self.make_bool(result))
        return _NEXT

    def _compare_semantics(self, left: GuestObject, right: GuestObject,
                           symbol: str) -> bool:
        self.emit_unbox(left)
        self.emit_unbox(right)
        self.emit_execute_alu(1)
        if symbol == "is":
            return left is right or (
                isinstance(left, PyNone) and isinstance(right, PyNone))
        if symbol == "is not":
            return not self._compare_semantics(left, right, "is")
        if symbol in ("in", "not in"):
            contains = self._contains_semantics(right, left)
            return contains if symbol == "in" else not contains
        lv = self._comparable_value(left)
        rv = self._comparable_value(right)
        try:
            if symbol == "<":
                return lv < rv
            if symbol == "<=":
                return lv <= rv
            if symbol == ">":
                return lv > rv
            if symbol == ">=":
                return lv >= rv
            if symbol == "==":
                return lv == rv
            if symbol == "!=":
                return lv != rv
        except TypeError as exc:
            raise GuestTypeError(str(exc)) from exc
        raise VMError(f"unknown comparison {symbol}")

    def _comparable_value(self, obj: GuestObject):
        if isinstance(obj, (PyInt, PyFloat, PyStr)):
            return obj.value
        if isinstance(obj, PyBool):
            return int(obj.value)
        if isinstance(obj, PyNone):
            return None
        if isinstance(obj, (PyList, PyTuple)):
            m = self.machine
            m.touch_range(self.s_exec + 36, _EXEC,
                          obj.addr, min(64, 8 * len(obj.items) + 24))
            container = list if isinstance(obj, PyList) else tuple
            return container(self._comparable_value(i) for i in obj.items)
        return ("id", id(obj))

    def _contains_semantics(self, container: GuestObject,
                            item: GuestObject) -> bool:
        m = self.machine
        if isinstance(container, PyDict):
            m.origin = m.site("ceval.handler.COMPARE_OP.contains")
            self.dict_lookup_emit(container.table_addr,
                                  stable_hash(str(raw_key(item))))
            return raw_key(item) in container.entries
        if isinstance(container, (PyList, PyTuple)):
            key = self._comparable_value(item)
            for i, element in enumerate(container.items):
                m.load(self.s_exec + 40, _EXEC,
                       (container.buffer_addr if isinstance(
                           container, PyList) else container.addr + 24)
                       + 8 * i)
                m.branch(self.s_exec + 44, _EXEC, taken=False)
                if self._comparable_value(element) == key:
                    return True
            return False
        if isinstance(container, PyStr) and isinstance(item, PyStr):
            m.touch_range(self.s_exec + 48, _EXEC, container.addr + 32,
                          len(container.value))
            return item.value in container.value
        raise GuestTypeError(
            f"argument of type {container.type_name!r} is not iterable")

    # ------------------------------------------------------------------
    # Handlers: control flow
    # ------------------------------------------------------------------

    def _rows_op_jump_absolute(self, bc_addr: int) -> None:
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_JUMP_ABSOLUTE, bc_addr)
        self.machine.branch(self.s_rich + 12, _DISPATCH, taken=True,
                            conditional=False)

    def op_jump_absolute(self, frame: Frame, arg: int) -> int:
        self.emit_rows(("_rows_op_jump_absolute",),
                       [frame.bc_base + 2 * (frame.pc - 1)])
        if arg < frame.pc:
            self.on_backedge(frame, arg)
        frame.pc = arg
        return _NEXT

    def on_backedge(self, frame: Frame, target: int) -> None:
        """Loop back-edge hook; the PyPy JIT overrides this."""

    def _rows_op_pop_jump(self, op: int, taken: bool, bc_addr: int,
                          pop_slot: int, obj_addr: int) -> None:
        """Pop, ``PyObject_IsTrue``, decref and the conditional branch."""
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(op, bc_addr)
        self._rows_pop(pop_slot)
        self._rows_typecheck(2, obj_addr)
        m.load(self.s_rich, _RICH, obj_addr + 16)
        m.alu(self.s_rich + 8, _RICH, n=1)
        if self.refcounting:
            self._rows_decref(obj_addr)
        m.branch(self.s_rich + 16, _RICH, taken=taken)

    def _conditional_jump(self, frame: Frame, arg: int,
                          jump_if: bool) -> int:
        op = _OP_POP_JUMP_IF_TRUE if jump_if else _OP_POP_JUMP_IF_FALSE
        stack = frame.stack
        obj = stack[-1]
        taken = obj.is_truthy() == jump_if
        if self.refcounting and obj.refcount == 1:
            # The decref frees the object: its dealloc rows must land
            # between the decref and the branch.
            self._handler_dispatch(frame, op)
            self.emit_truthiness(self.emit_pop(frame))
            self.emit_decref(obj)
            self.machine.branch(self.s_rich + 16, _RICH, taken=taken)
        else:
            self.emit_rows(("_rows_op_pop_jump", op, taken), [
                frame.bc_base + 2 * (frame.pc - 1),
                frame.addr + _FRAME_HEADER
                + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS), obj.addr])
            stack.pop()
            if self.refcounting:
                self.release(obj)
        if taken:
            if arg < frame.pc:
                self.on_backedge(frame, arg)
            frame.pc = arg
        return _NEXT

    def op_pop_jump_if_false(self, frame: Frame, arg: int) -> int:
        return self._conditional_jump(frame, arg, jump_if=False)

    def op_pop_jump_if_true(self, frame: Frame, arg: int) -> int:
        return self._conditional_jump(frame, arg, jump_if=True)

    def _short_circuit(self, frame: Frame, arg: int, jump_if: bool) -> int:
        obj = self.emit_peek(frame)
        truthy = self.emit_truthiness(obj)
        taken = truthy == jump_if
        self.machine.branch(self.s_rich + 20, _RICH, taken=taken)
        if taken:
            frame.pc = arg
        else:
            popped = self.emit_pop(frame)
            self.emit_decref(popped)
        return _NEXT

    def op_jump_if_false_or_pop(self, frame: Frame, arg: int) -> int:
        return self._short_circuit(frame, arg, jump_if=False)

    def op_jump_if_true_or_pop(self, frame: Frame, arg: int) -> int:
        return self._short_circuit(frame, arg, jump_if=True)

    def op_setup_loop(self, frame: Frame, arg: int) -> int:
        m = self.machine
        # Push a block: write the block-stack entry (type, handler, level).
        base = frame.addr + 32
        m.store(self.s_rich + 24, _RICH, base + 16 * len(frame.blocks))
        m.store(self.s_rich + 28, _RICH, base + 16 * len(frame.blocks) + 8)
        m.alu(self.s_rich + 32, _RICH, n=1)
        frame.blocks.append((arg, len(frame.stack)))
        return _NEXT

    def op_pop_block(self, frame: Frame, arg: int) -> int:
        m = self.machine
        m.load(self.s_rich + 36, _RICH,
               frame.addr + 32 + 16 * (len(frame.blocks) - 1))
        m.alu(self.s_rich + 40, _RICH, n=1)
        if not frame.blocks:
            raise VMError("POP_BLOCK with empty block stack")
        frame.blocks.pop()
        return _NEXT

    def op_break_loop(self, frame: Frame, arg: int) -> int:
        m = self.machine
        if not frame.blocks:
            raise VMError("BREAK_LOOP outside loop")
        m.load(self.s_rich + 44, _RICH,
               frame.addr + 32 + 16 * (len(frame.blocks) - 1))
        m.alu(self.s_rich + 48, _RICH, n=2)
        m.branch(self.s_rich + 56, _RICH, taken=True, conditional=False)
        target, level = frame.blocks.pop()
        # Unwind the value stack to the block's level (CPython pops the
        # loop iterator and any partial expression state on break).
        while len(frame.stack) > level:
            leftover = self.emit_pop(frame)
            self.emit_decref(leftover)
        frame.pc = target
        return _NEXT

    def op_get_iter(self, frame: Frame, arg: int) -> int:
        obj = self.emit_pop(frame)
        m = self.machine
        self.emit_typecheck(obj, n_branches=2)
        m.load(self.s_funcres + 16, _FUNC_RES, obj.addr)  # tp_iter
        with m.c_call("ceval.call_getiter", "object.getiter",
                      indirect=True, args=1, saves=1):
            iterator = self._make_iterator(obj)
        self.emit_decref(obj)
        self.emit_push(frame, iterator)
        return _NEXT

    def _make_iterator(self, obj: GuestObject) -> PyIterator:
        if isinstance(obj, PyList):
            iterator = PyIterator("list", obj)
        elif isinstance(obj, PyTuple):
            iterator = PyIterator("tuple", obj)
        elif isinstance(obj, PyRange):
            iterator = PyIterator("range", obj)
        elif isinstance(obj, PyStr):
            iterator = PyIterator("str", obj)
        elif isinstance(obj, PyDict):
            iterator = PyIterator("dict", obj)
        elif isinstance(obj, PyIterator):
            return obj
        else:
            raise GuestTypeError(
                f"{obj.type_name!r} object is not iterable")
        self.alloc_object(iterator)
        return iterator

    def _rows_op_for_iter(self, seq: bool, bc_addr: int, peek_slot: int,
                          iter_addr: int, item_addr: int,
                          slot_addr: int) -> None:
        """FOR_ITER yielding an item: a list/tuple element (``seq``) or
        a small int from a range (``item_addr`` unused)."""
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_FOR_ITER, bc_addr)
        self._rows_peek(peek_slot)
        m.load(self.s_funcres + 20, _FUNC_RES, iter_addr)
        with m.c_call("ceval.call_iternext", "object.iternext",
                      indirect=True, args=1, saves=1):
            if not seq:
                m.alu(self.s_box + 16, _BOX, n=1)  # make_int (small cache)
            elif self.refcounting:
                self._rows_incref(item_addr)
            m.load(self.s_exec + 52, _EXEC, iter_addr + 16)
            m.alu(self.s_exec + 56, _EXEC, n=1)
        m.branch(self.s_rich + 60, _RICH, taken=False)
        self._rows_push(slot_addr)

    def op_for_iter(self, frame: Frame, arg: int) -> int:
        stack = frame.stack
        iterator = stack[-1]
        item = None
        if isinstance(iterator, PyIterator):
            kind = iterator.kind
            source = iterator.source
            index = iterator.index
            if kind == "range":
                value = source.start + index * source.step
                if ((value < source.stop if source.step > 0
                     else value > source.stop)
                        and SMALL_INT_MIN <= value <= SMALL_INT_MAX):
                    item = self._small_ints[value]
            elif (kind == "list" or kind == "tuple") \
                    and index < len(source.items):
                item = source.items[index]
        if item is not None:
            seq = kind != "range"
            idx = len(stack) - 1
            base_addr = frame.addr + _FRAME_HEADER
            self.emit_rows(("_rows_op_for_iter", seq), [
                frame.bc_base + 2 * (frame.pc - 1),
                base_addr + 8 * (idx % _FRAME_STACK_SLOTS), iterator.addr,
                item.addr, base_addr + 8 * ((idx + 1) % _FRAME_STACK_SLOTS)])
            iterator.index = index + 1
            if seq and self.refcounting:
                self.retain(item)
            stack.append(item)
            return _NEXT
        self._handler_dispatch(frame, _OP_FOR_ITER)
        iterator = self.emit_peek(frame)
        if not isinstance(iterator, PyIterator):
            raise VMError("FOR_ITER on non-iterator")
        m = self.machine
        m.load(self.s_funcres + 20, _FUNC_RES, iterator.addr)
        with m.c_call("ceval.call_iternext", "object.iternext",
                      indirect=True, args=1, saves=1):
            value = self._iterator_next(iterator)
            m.load(self.s_exec + 52, _EXEC, iterator.addr + 16)
            m.alu(self.s_exec + 56, _EXEC, n=1)
        exhausted = value is None
        m.branch(self.s_rich + 60, _RICH, taken=exhausted)
        if exhausted:
            popped = self.emit_pop(frame)
            self.emit_decref(popped)
            frame.pc = arg
        else:
            self.emit_push(frame, value)
        return _NEXT

    def _iterator_next(self, iterator: PyIterator) -> GuestObject | None:
        kind = iterator.kind
        source = iterator.source
        index = iterator.index
        if kind == "range":
            assert isinstance(source, PyRange)
            value = source.start + index * source.step
            in_range = (value < source.stop if source.step > 0
                        else value > source.stop)
            if not in_range:
                return None
            iterator.index += 1
            return self.make_int(value)
        if kind in ("list", "tuple"):
            items = source.items
            if index >= len(items):
                return None
            iterator.index += 1
            item = items[index]
            self.emit_incref(item)
            return item
        if kind == "str":
            text = source.value
            if index >= len(text):
                return None
            iterator.index += 1
            return self.make_str(text[index])
        if kind == "dict":
            entries = list(source.entries.values())
            if index >= len(entries):
                return None
            iterator.index += 1
            key_obj = entries[index][0]
            self.emit_incref(key_obj)
            return key_obj
        raise VMError(f"unknown iterator kind {kind!r}")

    # ------------------------------------------------------------------
    # Handlers: calls
    # ------------------------------------------------------------------

    def _rows_call(self, op: int, n_pops: int, incref: bool,
                   bc_addr: int, *values: int) -> None:
        """A call op's operand pops and callee type check.

        ``values`` holds the popped slots (callee's last), the callee's
        address and, with ``incref``, its bound instance's address.
        """
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(op, bc_addr)
        for slot_addr in values[:n_pops]:
            self._rows_pop(slot_addr)
        # Determine the function type (Python vs C vs class vs method).
        if op == _OP_CALL_METHOD:
            m.alu(self.s_funcsetup + 24, _FUNC_SETUP, n=2)
            self._rows_typecheck(1, values[n_pops])
        else:
            m.alu(self.s_funcsetup, _FUNC_SETUP, n=2)
            self._rows_typecheck(2, values[n_pops])
        if incref and self.refcounting:
            self._rows_incref(values[n_pops + 1])

    def _pop_call(self, frame: Frame, op: int, arg: int,
                  bound: bool) -> tuple[GuestObject, list[GuestObject]]:
        """Pop a call's callee and ``arg`` arguments behind one template."""
        stack = frame.stack
        top = len(stack)
        callee = stack[top - 1 - arg]
        base_addr = frame.addr + _FRAME_HEADER
        dyn = [frame.bc_base + 2 * (frame.pc - 1)]
        dyn += [base_addr + 8 * ((top - 1 - i) % _FRAME_STACK_SLOTS)
                for i in range(arg + 1)]
        dyn.append(callee.addr)
        if bound:
            dyn.append(callee.instance.addr)
        self.emit_rows(("_rows_call", op, arg + 1, bound), dyn)
        args = stack[top - arg:]
        del stack[top - arg - 1:]
        return callee, args

    def op_call_function(self, frame: Frame, arg: int) -> int:
        callee, args = self._pop_call(frame, _OP_CALL_FUNCTION, arg, False)
        return self._call_object(frame, callee, args)

    def _call_object(self, frame: Frame, callee: GuestObject,
                     args: list[GuestObject]) -> int:
        m = self.machine
        if isinstance(callee, PyFunc):
            return self._call_guest(frame, callee, args)
        if isinstance(callee, PyBuiltin):
            self.stats.c_library_calls += 1
            if m.suppressed and callee.inline_ok:
                # A compiled trace inlines core object-protocol helpers:
                # only the handler's own data traffic is emitted.
                with m.unsuppressed():
                    result = callee.handler(self, args)
            elif callee.clib:
                # External C library call: everything inside is C library
                # time; the boundary call itself is C-call overhead. The
                # JIT cannot inline it (Section IV-C.2), so it stays
                # visible from compiled code too.
                with m.unsuppressed():
                    m.alu(self.s_funcsetup + 8, _FUNC_SETUP,
                          n=2 + len(args))
                    with m.c_call("ceval.call_cfunction",
                                  f"clib.{callee.name}", indirect=True,
                                  args=len(args) + 1, saves=3):
                        with m.clib_scope():
                            result = callee.handler(self, args)
            else:
                # Core object-protocol helper through the C extension
                # interface (list.append, len, str...).
                with m.unsuppressed():
                    m.alu(self.s_funcsetup + 8, _FUNC_SETUP,
                          n=2 + len(args))
                    with m.c_call("ceval.call_cfunction",
                                  f"clib.{callee.name}", indirect=True,
                                  args=len(args) + 1, saves=3):
                        result = callee.handler(self, args)
            self.emit_error_check(taken=False)
            for passed in args:
                self.emit_decref(passed)
            self.emit_decref(callee)
            self.emit_push(frame, result)
            return _NEXT
        if isinstance(callee, PyClass):
            instance = PyInstance(callee)
            self.alloc_object(instance)
            init = callee.methods.get("__init__")
            self.emit_decref(callee)
            if init is not None:
                self.emit_incref(instance)
                signal = self._call_guest(frame, init,
                                          [instance] + args,
                                          discard_return=True,
                                          push_value=instance)
                return signal
            if args:
                raise GuestTypeError(
                    f"{callee.name}() takes no arguments")
            self.emit_push(frame, instance)
            return _NEXT
        if isinstance(callee, PyBoundMethod):
            self.emit_incref(callee.instance)
            signal = self._call_guest(frame, callee.func,
                                      [callee.instance] + args)
            self.emit_decref(callee)
            return signal
        raise GuestTypeError(f"{callee.type_name!r} object is not callable")

    def _rows_call_setup(self, argcount: int, frame_addr: int) -> None:
        """Argument copies into callee locals plus the frame-link ALU."""
        m = self.machine
        local0 = frame_addr + _FRAME_HEADER + 8 * _FRAME_STACK_SLOTS
        for i in range(argcount):
            m.store(self.s_funcsetup + 12, _FUNC_SETUP, local0 + 8 * i)
        m.alu(self.s_funcsetup + 16, _FUNC_SETUP, n=3)

    def _call_guest(self, frame: Frame, func: PyFunc,
                    args: list[GuestObject], discard_return: bool = False,
                    push_value: GuestObject | None = None) -> int:
        code = func.code
        if len(args) != code.argcount:
            raise GuestTypeError(
                f"{code.name}() takes {code.argcount} arguments "
                f"({len(args)} given)")
        self.stats.guest_calls += 1
        callee_frame = self.make_frame(code)
        # Copy arguments into the callee's locals.
        callee_frame.locals[:len(args)] = args
        self.emit_rows(("_rows_call_setup", len(args)), [callee_frame.addr])
        callee_frame.return_to = len(frame.stack)
        self._return_plans.append((discard_return, push_value))
        self.frames.append(callee_frame)
        return _FRAME_PUSHED

    def _rows_op_return_value(self, bc_addr: int, pop_slot: int) -> None:
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_RETURN_VALUE, bc_addr)
        self._rows_pop(pop_slot)

    def op_return_value(self, frame: Frame, arg: int) -> int:
        stack = frame.stack
        self.emit_rows(("_rows_op_return_value",), [
            frame.bc_base + 2 * (frame.pc - 1),
            frame.addr + _FRAME_HEADER
            + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS)])
        result = stack.pop()
        m = self.machine
        # Cleanup: release locals and remaining stack, free the frame.
        for obj in frame.locals:
            if obj is not None:
                self.emit_decref(obj)
        for obj in stack:
            self.emit_decref(obj)
        stack.clear()
        m.alu(self.s_funcsetup + 20, _FUNC_SETUP, n=3)
        self.free_frame(frame)
        self.frames.pop()
        if not self.frames:
            self._module_result = result
            return _FRAME_RETURNED
        caller = self.frames[-1]
        discard_return, push_value = self._return_plans.pop()
        if discard_return:
            self.emit_decref(result)
            if push_value is not None:
                self.emit_push(caller, push_value)
        else:
            self.emit_push(caller, result)
        self.gc_poll()
        return _FRAME_RETURNED

    # ------------------------------------------------------------------
    # Handlers: method calls
    # ------------------------------------------------------------------

    def _rows_op_load_method(self, on_instance: bool, bc_addr: int,
                             pop_slot: int, obj_addr: int, obj_probe: int,
                             found: int) -> None:
        """LOAD_METHOD on an instance. ``found`` is the attribute's
        address when the instance dict has the name (``on_instance``),
        else the class-dict probe that finds the method."""
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_LOAD_METHOD, bc_addr)
        self._rows_pop(pop_slot)
        self._rows_typecheck(2, obj_addr)
        # Instance attribute, then class dict, via lookdict.
        m.origin = self._handler_site_by_op[_OP_LOAD_METHOD]
        m.alu(self.s_name + 24, _NAME, n=2)
        self._rows_dict_lookup(obj_probe)
        if on_instance:
            if self.refcounting:
                self._rows_incref(found)
        else:
            m.branch(self.s_name + 28, _NAME, taken=True)
            self._rows_dict_lookup(found)

    def op_load_method(self, frame: Frame, arg: int) -> int:
        name = frame.code.names[arg]
        stack = frame.stack
        obj = stack[-1]
        if isinstance(obj, PyInstance):
            name_hash = stable_hash(name)
            attr = obj.attrs.get(name)
            on_instance = attr is not None
            self.emit_rows(("_rows_op_load_method", on_instance), [
                frame.bc_base + 2 * (frame.pc - 1),
                frame.addr + _FRAME_HEADER
                + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS), obj.addr,
                obj.addr + 16 + 24 * (name_hash & 1023),
                attr.addr if on_instance
                else obj.cls.addr + 16 + 24 * (name_hash & 1023)])
            stack.pop()
            if on_instance:
                if self.refcounting:
                    self.retain(attr)
                self.emit_push(frame, attr)
                self.emit_decref(obj)
                return _NEXT
            func = obj.cls.methods.get(name)
            if func is None:
                raise GuestNameError(
                    f"{obj.cls.name!r} object has no attribute {name!r}")
            method = PyBoundMethod(obj, func)
            self.alloc_object(method)
            self.emit_push(frame, method)
            return _NEXT
        self._handler_dispatch(frame, _OP_LOAD_METHOD)
        obj = self.emit_pop(frame)
        m = self.machine
        self.emit_typecheck(obj, n_branches=2)
        # Builtin-type method: resolve through the type's method table.
        m.load(self.s_funcres + 24, _FUNC_RES, obj.addr)
        m.alu(self.s_funcres + 28, _FUNC_RES, n=2)
        from .builtins import PyModule, lookup_type_method
        handler = lookup_type_method(obj, name)
        if handler is None:
            raise GuestNameError(
                f"{obj.type_name!r} object has no attribute {name!r}")
        m.origin = m.site("ceval.handler.LOAD_METHOD")
        self.dict_lookup_emit(
            self.machine.space.vm_data.base + 0x3000, stable_hash(name))
        # Container/str methods inline into compiled traces; module
        # functions are external C library entry points and never do.
        bound = PyBuiltin(f"{obj.type_name}.{name}",
                          lambda vm, args, _h=handler, _o=obj:
                          _h(vm, _o, args),
                          inline_ok=not isinstance(obj, PyModule),
                          clib=isinstance(obj, PyModule))
        bound.addr = obj.addr  # method descriptor rides on the object
        self.emit_push(frame, bound)
        return _NEXT

    def op_call_method(self, frame: Frame, arg: int) -> int:
        callee = frame.stack[-1 - arg]
        if not isinstance(callee, PyBoundMethod):
            callee, args = self._pop_call(frame, _OP_CALL_METHOD, arg,
                                          False)
            return self._call_object(frame, callee, args)
        # The bound-method case of ``_call_object``, with the instance
        # incref folded into the call template.
        callee, args = self._pop_call(frame, _OP_CALL_METHOD, arg, True)
        if self.refcounting:
            self.retain(callee.instance)
        signal = self._call_guest(frame, callee.func,
                                  [callee.instance] + args)
        self.emit_decref(callee)
        return signal

    # ------------------------------------------------------------------
    # Handlers: containers
    # ------------------------------------------------------------------

    def op_build_list(self, frame: Frame, arg: int) -> int:
        items = [self.emit_pop(frame) for _ in range(arg)]
        items.reverse()
        obj = self.make_list(items)
        self.emit_push(frame, obj)
        return _NEXT

    def op_build_tuple(self, frame: Frame, arg: int) -> int:
        items = [self.emit_pop(frame) for _ in range(arg)]
        items.reverse()
        obj = self.make_tuple(tuple(items))
        self.emit_push(frame, obj)
        return _NEXT

    def op_build_map(self, frame: Frame, arg: int) -> int:
        obj = self.make_dict()
        pairs = []
        for _ in range(arg):
            value = self.emit_pop(frame)
            key = self.emit_pop(frame)
            pairs.append((key, value))
        for key, value in reversed(pairs):
            self.dict_set(obj, key, value)
        self.emit_push(frame, obj)
        return _NEXT

    def dict_set(self, d: PyDict, key: GuestObject,
                 value: GuestObject) -> None:
        m = self.machine
        m.origin = m.site("ceval.handler.STORE_SUBSCR.dict")
        self.emit_write_barrier(d)
        raw = raw_key(key)
        self.dict_lookup_emit(d.table_addr, stable_hash(str(raw)) & 0x7FFFFFFF)
        m.store(self.s_exec + 60, _EXEC,
                d.table_addr + 24 * (stable_hash(str(raw)) & 1023))
        old = d.entries.get(raw)
        d.entries[raw] = (key, value)
        if old is not None:
            self.emit_decref(old[0])
            self.emit_decref(old[1])
        if len(d.entries) * 3 > d.table_slots * 2:
            self._grow_dict(d)

    def _grow_dict(self, d: PyDict) -> None:
        old_bytes = d.table_bytes()
        d.table_slots *= 4
        new_addr = self.alloc_buffer(d.table_bytes())
        m = self.machine
        m.touch_range(self.s_alloc + 16, _ALLOC, d.table_addr, old_bytes)
        m.touch_range(self.s_alloc + 20, _ALLOC, new_addr,
                      old_bytes, write=True)
        self.free_buffer(d.table_addr, old_bytes)
        d.table_addr = new_addr

    def free_buffer(self, addr: int, nbytes: int) -> None:
        """Release an out-of-line buffer (CPython model recycles it)."""

    def dict_get(self, d: PyDict, key: GuestObject) -> GuestObject | None:
        m = self.machine
        m.origin = m.site("ceval.handler.BINARY_SUBSCR.dict")
        raw = raw_key(key)
        self.dict_lookup_emit(d.table_addr, stable_hash(str(raw)) & 0x7FFFFFFF)
        entry = d.entries.get(raw)
        return entry[1] if entry is not None else None

    def _rows_op_binary_subscr(self, bc_addr: int, index_slot: int,
                               container_slot: int, container_addr: int,
                               index_addr: int, elem_addr: int,
                               result_addr: int, slot_addr: int) -> None:
        """Sequence subscript by an in-range int: one ``getitem`` call."""
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_BINARY_SUBSCR, bc_addr)
        self._rows_pop(index_slot)
        self._rows_pop(container_slot)
        self._rows_typecheck(1, container_addr)
        with m.c_call("ceval.call_getitem", "abstract.getitem",
                      indirect=True, args=2, saves=2):
            m.load(self.s_box, _BOX, index_addr + 16)  # unbox the index
            self._rows_error_check(False)  # bounds check
            m.load(self.s_exec + 64, _EXEC, elem_addr)
        if self.refcounting:
            self._rows_incref(result_addr)
            self._rows_decref(container_addr)
            self._rows_decref(index_addr)
        self._rows_push(slot_addr)

    def op_binary_subscr(self, frame: Frame, arg: int) -> int:
        stack = frame.stack
        index = stack[-1]
        container = stack[-2]
        # Operands a decref would free take the general path, so their
        # dealloc rows land right after their own decref rows.
        if (isinstance(container, (PyList, PyTuple))
                and isinstance(index, (PyInt, PyBool))
                and not (self.refcounting and (container.refcount == 1
                                               or index.refcount == 1))):
            items = container.items
            i = int(index.value)
            if i < 0:
                i += len(items)
            if 0 <= i < len(items):
                result = items[i]
                elem_base = (container.buffer_addr
                             if isinstance(container, PyList)
                             else container.addr + 24)
                idx = len(stack) - 1
                base_addr = frame.addr + _FRAME_HEADER
                container_slot = base_addr + 8 * (
                    (idx - 1) % _FRAME_STACK_SLOTS)
                self.emit_rows(("_rows_op_binary_subscr",), [
                    frame.bc_base + 2 * (frame.pc - 1),
                    base_addr + 8 * (idx % _FRAME_STACK_SLOTS),
                    container_slot, container.addr, index.addr,
                    elem_base + 8 * i, result.addr, container_slot])
                del stack[-2:]
                if self.refcounting:
                    self.retain(result)
                    self.release(container)
                    self.release(index)
                stack.append(result)
                return _NEXT
        self._handler_dispatch(frame, _OP_BINARY_SUBSCR)
        index = self.emit_pop(frame)
        container = self.emit_pop(frame)
        m = self.machine
        self.emit_typecheck(container, n_branches=1)
        result = None
        with m.c_call("ceval.call_getitem", "abstract.getitem",
                      indirect=True, args=2, saves=2):
            result = self._subscr_semantics(container, index)
        self.emit_incref(result)
        self.emit_decref(container)
        self.emit_decref(index)
        self.emit_push(frame, result)
        return _NEXT

    def _subscr_semantics(self, container: GuestObject,
                          index: GuestObject) -> GuestObject:
        m = self.machine
        if isinstance(container, (PyList, PyTuple)):
            if isinstance(index, PySlice):
                return self._slice_sequence(container, index)
            if not isinstance(index, (PyInt, PyBool)):
                raise GuestTypeError(
                    f"indices must be integers, not {index.type_name!r}")
            self.emit_unbox(index)
            i = int(index.value)
            items = container.items
            if i < 0:
                i += len(items)
            self.emit_error_check(taken=False)  # bounds check
            if not 0 <= i < len(items):
                raise GuestIndexError(
                    f"{container.type_name} index out of range")
            base = (container.buffer_addr
                    if isinstance(container, PyList)
                    else container.addr + 24)
            m.load(self.s_exec + 64, _EXEC, base + 8 * i)
            return items[i]
        if isinstance(container, PyDict):
            value = self.dict_get(container, index)
            self.emit_error_check(taken=value is None)
            if value is None:
                raise GuestKeyError(f"key not found: {raw_key(index)!r}")
            return value
        if isinstance(container, PyStr):
            if isinstance(index, PySlice):
                return self._slice_str(container, index)
            if not isinstance(index, (PyInt, PyBool)):
                raise GuestTypeError(
                    f"string indices must be integers")
            self.emit_unbox(index)
            i = int(index.value)
            if i < 0:
                i += len(container.value)
            self.emit_error_check(taken=False)
            if not 0 <= i < len(container.value):
                raise GuestIndexError("string index out of range")
            m.load(self.s_exec + 68, _EXEC, container.addr + 32 + i)
            return self.make_str(container.value[i])
        raise GuestTypeError(
            f"{container.type_name!r} object is not subscriptable")

    def _slice_bounds(self, length: int, slc: PySlice) -> tuple[int, int]:
        start = (int(slc.start.value)
                 if isinstance(slc.start, (PyInt, PyBool)) else 0)
        stop = (int(slc.stop.value)
                if isinstance(slc.stop, (PyInt, PyBool)) else length)
        if start < 0:
            start += length
        if stop < 0:
            stop += length
        start = max(0, min(start, length))
        stop = max(start, min(stop, length))
        return start, stop

    def _slice_sequence(self, container, slc: PySlice) -> GuestObject:
        start, stop = self._slice_bounds(len(container.items), slc)
        taken = container.items[start:stop]
        for item in taken:
            self.emit_incref(item)
        if isinstance(container, PyTuple):
            return self.make_tuple(tuple(taken))
        return self.make_list(list(taken))

    def _slice_str(self, container: PyStr, slc: PySlice) -> PyStr:
        start, stop = self._slice_bounds(len(container.value), slc)
        self.machine.touch_range(self.s_exec + 72, _EXEC,
                                 container.addr + 32 + start,
                                 max(1, stop - start))
        return self.make_str(container.value[start:stop])

    def op_store_subscr(self, frame: Frame, arg: int) -> int:
        index = self.emit_pop(frame)
        container = self.emit_pop(frame)
        value = self.emit_pop(frame)
        m = self.machine
        self.emit_typecheck(container, n_branches=1)
        with m.c_call("ceval.call_setitem", "abstract.setitem",
                      indirect=True, args=3, saves=2):
            if isinstance(container, PyList):
                if not isinstance(index, (PyInt, PyBool)):
                    raise GuestTypeError("list indices must be integers")
                self.emit_unbox(index)
                i = int(index.value)
                if i < 0:
                    i += len(container.items)
                self.emit_error_check(taken=False)
                if not 0 <= i < len(container.items):
                    raise GuestIndexError("list assignment out of range")
                old = container.items[i]
                self.emit_write_barrier(container)
                m.store(self.s_exec + 76, _EXEC,
                        container.buffer_addr + 8 * i)
                container.items[i] = value
                self.emit_decref(old)
            elif isinstance(container, PyDict):
                self.dict_set(container, index, value)
            else:
                raise GuestTypeError(
                    f"{container.type_name!r} does not support item "
                    "assignment")
        self.emit_decref(container)
        self.emit_decref(index)
        return _NEXT

    def op_build_slice(self, frame: Frame, arg: int) -> int:
        stop = self.emit_pop(frame)
        start = self.emit_pop(frame)
        obj = PySlice(start, stop)
        self.alloc_object(obj)
        self.emit_push(frame, obj)
        return _NEXT

    def op_unpack_sequence(self, frame: Frame, arg: int) -> int:
        obj = self.emit_pop(frame)
        self.emit_typecheck(obj, n_branches=1)
        if not isinstance(obj, (PyList, PyTuple)):
            raise GuestTypeError(
                f"cannot unpack {obj.type_name!r} object")
        items = obj.items
        self.emit_error_check(taken=len(items) != arg)
        if len(items) != arg:
            raise GuestValueError(
                f"expected {arg} values to unpack, got {len(items)}")
        m = self.machine
        for item in reversed(list(items)):
            m.load(self.s_exec + 80, _EXEC, obj.addr + 24)
            self.emit_incref(item)
            self.emit_push(frame, item)
        self.emit_decref(obj)
        return _NEXT

    # ------------------------------------------------------------------
    # Handlers: attributes
    # ------------------------------------------------------------------

    def _rows_op_load_attr(self, on_instance: bool, bc_addr: int,
                           pop_slot: int, obj_addr: int, obj_probe: int,
                           found: int) -> None:
        """LOAD_ATTR on an instance. ``found`` is the attribute's
        address when the instance dict has the name (``on_instance``),
        else the class-dict probe that looks for a method."""
        m = self.machine
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_LOAD_ATTR, bc_addr)
        self._rows_pop(pop_slot)
        self._rows_typecheck(1, obj_addr)
        m.origin = self._handler_site_by_op[_OP_LOAD_ATTR]
        m.alu(self.s_name + 32, _NAME, n=2)
        self._rows_dict_lookup(obj_probe)
        if on_instance:
            if self.refcounting:
                self._rows_incref(found)
        else:
            m.branch(self.s_name + 36, _NAME, taken=True)
            self._rows_dict_lookup(found)

    def op_load_attr(self, frame: Frame, arg: int) -> int:
        name = frame.code.names[arg]
        stack = frame.stack
        obj = stack[-1]
        if not isinstance(obj, PyInstance):
            self._handler_dispatch(frame, _OP_LOAD_ATTR)
            self.emit_typecheck(self.emit_pop(frame), n_branches=1)
            raise GuestTypeError(
                f"{obj.type_name!r} object has no attribute {name!r}")
        name_hash = stable_hash(name)
        attr = obj.attrs.get(name)
        on_instance = attr is not None
        self.emit_rows(("_rows_op_load_attr", on_instance), [
            frame.bc_base + 2 * (frame.pc - 1),
            frame.addr + _FRAME_HEADER
            + 8 * ((len(stack) - 1) % _FRAME_STACK_SLOTS), obj.addr,
            obj.addr + 16 + 24 * (name_hash & 1023),
            attr.addr if on_instance
            else obj.cls.addr + 16 + 24 * (name_hash & 1023)])
        stack.pop()
        if on_instance:
            if self.refcounting:
                self.retain(attr)
            self.emit_decref(obj)
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

    def _rows_op_store_attr(self, barrier: bool, bc_addr: int,
                            obj_slot: int, value_slot: int,
                            obj_addr: int, probe: int,
                            store_addr: int) -> None:
        """STORE_ATTR on an instance; with a write ``barrier``, only the
        part before it (the barrier's rows and the store follow)."""
        if self.handlers_emit_dispatch:
            self._rows_dispatch(_OP_STORE_ATTR, bc_addr)
        self._rows_pop(obj_slot)
        self._rows_pop(value_slot)
        self._rows_typecheck(1, obj_addr)
        self.machine.origin = self._handler_site_by_op[_OP_STORE_ATTR]
        if not barrier:
            self._rows_store_attr(probe, store_addr)

    def _rows_store_attr(self, probe: int, store_addr: int) -> None:
        m = self.machine
        m.alu(self.s_name + 40, _NAME, n=2)
        self._rows_dict_lookup(probe)
        m.store(self.s_name + 44, _NAME, store_addr)

    def op_store_attr(self, frame: Frame, arg: int) -> int:
        name = frame.code.names[arg]
        stack = frame.stack
        obj = stack[-1]
        if not isinstance(obj, PyInstance):
            self._handler_dispatch(frame, _OP_STORE_ATTR)
            self.emit_pop(frame)
            self.emit_pop(frame)
            self.emit_typecheck(obj, n_branches=1)
            raise GuestTypeError(
                f"cannot set attribute on {obj.type_name!r} object")
        # A tracing collector's write barrier emits data-dependent rows
        # mid-handler, which splits the handler's template in two.
        barrier = not self.refcounting
        idx = len(stack) - 1
        base_addr = frame.addr + _FRAME_HEADER
        name_hash = stable_hash(name)
        store = [obj.addr + 16 + 24 * (name_hash & 1023),
                 obj.addr + 16 + (name_hash & 63)]
        self.emit_rows(("_rows_op_store_attr", barrier), [
            frame.bc_base + 2 * (frame.pc - 1),
            base_addr + 8 * (idx % _FRAME_STACK_SLOTS),
            base_addr + 8 * ((idx - 1) % _FRAME_STACK_SLOTS), obj.addr,
            *store])
        value = stack[-2]
        del stack[-2:]
        if barrier:
            self.emit_write_barrier(obj)
            self.emit_rows(("_rows_store_attr",), store)
        old = obj.attrs.get(name)
        obj.attrs[name] = value
        if old is not None:
            self.emit_decref(old)
        self.emit_decref(obj)
        return _NEXT
