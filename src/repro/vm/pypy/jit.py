"""Meta-tracing JIT for the PyPy-model runtime (Section II-B).

Life cycle, following Figure 2 of the paper:

1. **Counters** — every loop back-edge and guest call increments a
   counter; crossing the hot threshold starts tracing.
2. **Tracing / profiling** — the interpreter keeps running (full
   interpreter emission) while the meta-interpreter records each executed
   operation, which costs extra ``JIT_COMPILING`` work per op.
3. **Compilation** — when the trace closes (back at the loop header, or
   the traced function returns), compile-time work proportional to the
   trace length is emitted and machine code is placed in the JIT code
   region.
4. **Compiled execution** — subsequent iterations replay the trace: the
   semantic interpreter runs silently (machine emission suppressed) while
   the JIT emits a compact ``JIT_COMPILED_CODE`` pattern per operation:
   an ALU op and a guard branch instead of dispatch/stack/boxing
   choreography. Allocations recorded during the silent execution are
   flushed as inline nursery bumps, so GC and cache behavior stay real.
5. **Deoptimization** — when execution diverges from the recorded path a
   guard fails: the first failures pay an expensive state-reconstruction
   exit; a guard that keeps failing gets a *bridge* and becomes a cheap
   side exit.
"""

from __future__ import annotations

from ...categories import OverheadCategory
from ...config import JITConfig
from ...frontend.bytecode import Op
from ...telemetry import TELEMETRY

_COMPILING = int(OverheadCategory.JIT_COMPILING)
_COMPILED = int(OverheadCategory.JIT_COMPILED_CODE)

_IDLE = 0
_RECORDING = 1
_EXECUTING = 2

#: Opcodes that read/write guest data structures in compiled code.
_MEM_LOAD_OPS = frozenset({
    int(Op.BINARY_SUBSCR), int(Op.LOAD_ATTR), int(Op.LOAD_METHOD),
})
_MEM_STORE_OPS = frozenset({
    int(Op.STORE_SUBSCR), int(Op.STORE_ATTR),
})
_GUARD_OPS = frozenset({
    int(Op.POP_JUMP_IF_FALSE), int(Op.POP_JUMP_IF_TRUE),
    int(Op.JUMP_IF_FALSE_OR_POP), int(Op.JUMP_IF_TRUE_OR_POP),
    int(Op.FOR_ITER), int(Op.COMPARE_OP),
})
_PURE_STACK_OPS = frozenset({
    int(Op.LOAD_FAST), int(Op.STORE_FAST), int(Op.LOAD_CONST),
    int(Op.POP_TOP), int(Op.DUP_TOP), int(Op.ROT_TWO),
})


class CompiledTrace:
    """One compiled loop or function trace.

    ``bridges`` maps a guard index to the compiled side-path taken when
    that guard fails (Section II-B: "optimize a portion of a function or
    loop if a certain guard continues to fail"). A bridge is itself a
    CompiledTrace; ``None`` marks a bridge that failed to compile.
    """

    __slots__ = ("key", "ops", "code_base", "is_loop", "executions",
                 "bridges")

    def __init__(self, key, ops, code_base: int, is_loop: bool) -> None:
        self.key = key
        self.ops = ops
        self.code_base = code_base
        self.is_loop = is_loop
        self.executions = 0
        self.bridges: dict[int, "CompiledTrace | None"] = {}

    def __len__(self) -> int:
        return len(self.ops)


class TraceJIT:
    """Counter, recorder, compiler, and replayer for one VM instance."""

    def __init__(self, vm, config: JITConfig) -> None:
        self.vm = vm
        self.machine = vm.machine
        self.config = config
        self.mode = _IDLE
        self.loop_counters: dict[tuple, int] = {}
        self.call_counters: dict[int, int] = {}
        #: Loop-header key -> modeled hot-counter slot offset, assigned
        #: in first-touch order. Keys contain ``id(code)``, so deriving
        #: the modeled address from ``hash(key)`` (as an earlier
        #: revision did) made the trace differ from run to run.
        self._counter_slots: dict[tuple, int] = {}
        #: key -> CompiledTrace, or None when blacklisted.
        self.traces: dict[tuple, CompiledTrace | None] = {}
        self.guard_fails: dict[tuple, int] = {}
        self.pending_allocs: list[tuple[int, int]] = []
        # Recording state.
        self._rec_key: tuple | None = None
        self._rec_ops: list[tuple] = []
        self._rec_is_loop = True
        self._rec_return_depth = 0
        #: When recording a bridge: (parent trace, guard index).
        self._rec_bridge_of: tuple | None = None
        # Execution state.
        self._exec_trace: CompiledTrace | None = None
        self._exec_index = 0
        self._trace_count = 0
        self.s_record = self.machine.site("jit.metainterp.record")
        self.s_compile = self.machine.site("jit.compile")
        self.s_deopt = self.machine.site("jit.deopt")

    # ------------------------------------------------------------------
    # Hot-path detection
    # ------------------------------------------------------------------

    def on_backedge(self, frame, target: int) -> None:
        if self.mode == _EXECUTING:
            return
        key = (id(frame.code), target)
        if self.mode == _RECORDING:
            if self._rec_bridge_of is not None:
                parent, _ = self._rec_bridge_of
                if key == parent.key:
                    # The side path rejoined the loop header: the bridge
                    # is complete; compile and resume compiled execution.
                    self._finish_recording()
                    self._start_executing(parent)
                elif len(self._rec_ops) >= self.config.trace_limit:
                    self._abort_recording()
                return
            if key == self._rec_key:
                self._finish_recording()
                self._start_executing(self.traces[key])
            elif len(self._rec_ops) >= self.config.trace_limit:
                self._abort_recording()
            return
        trace = self.traces.get(key, -1)
        if trace is None:
            return  # blacklisted
        if isinstance(trace, CompiledTrace):
            self._start_executing(trace)
            return
        count = self.loop_counters.get(key, 0) + 1
        self.loop_counters[key] = count
        # Counter bookkeeping: a load, an increment, a threshold compare.
        m = self.machine
        slot = self._counter_slots.setdefault(
            key, 8 * len(self._counter_slots))
        m.load(self.s_record + 20, _COMPILING, m.space.vm_data.base
               + 0x6000 + (slot & 0xFFF8))
        m.alu(self.s_record + 24, _COMPILING, n=1)
        m.branch(self.s_record + 28, _COMPILING,
                 taken=count >= self.config.hot_loop_threshold)
        if count >= self.config.hot_loop_threshold:
            self._start_recording(key, is_loop=True)

    def on_call(self, code) -> None:
        """Guest-call hook: functions get hot too (method JIT behavior)."""
        if self.mode != _IDLE:
            return
        key = (id(code), -1)
        trace = self.traces.get(key, -1)
        if trace is None:
            return
        if isinstance(trace, CompiledTrace):
            self._start_executing(trace)
            return
        count = self.call_counters.get(id(code), 0) + 1
        self.call_counters[id(code)] = count
        if count >= self.config.hot_call_threshold:
            self._start_recording(key, is_loop=False)
            self._rec_return_depth = len(self.vm.frames) + 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _start_recording(self, key: tuple, is_loop: bool,
                         bridge_of: tuple | None = None) -> None:
        self.mode = _RECORDING
        self._rec_key = key
        self._rec_ops = []
        self._rec_is_loop = is_loop
        self._rec_bridge_of = bridge_of

    def record_op(self, frame, op: int) -> None:
        """Meta-interpreter overhead while tracing (per executed op)."""
        m = self.machine
        m.alu(self.s_record, _COMPILING, n=4)
        m.load(self.s_record + 16, _COMPILING,
               m.space.jit_code.base + 16 * (len(self._rec_ops) & 0xFFFF))
        m.store(self.s_record + 18, _COMPILING,
                m.space.jit_code.base + 16 * (len(self._rec_ops) & 0xFFFF))
        self._rec_ops.append((id(frame.code), frame.pc, op))
        if len(self._rec_ops) > self.config.trace_limit:
            self._abort_recording()
            return
        if not self._rec_is_loop and op == int(Op.RETURN_VALUE) and \
                len(self.vm.frames) == self._rec_return_depth:
            self._finish_recording()

    def _abort_recording(self) -> None:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                "jit.trace_aborts", runtime=self.vm.runtime_name).inc()
        if self._rec_bridge_of is not None:
            parent, index = self._rec_bridge_of
            parent.bridges[index] = None  # blacklist this side exit
        else:
            self.traces[self._rec_key] = None  # blacklist
        self.mode = _IDLE
        self._rec_key = None
        self._rec_ops = []
        self._rec_bridge_of = None

    def _finish_recording(self) -> None:
        ops = self._rec_ops
        key = self._rec_key
        m = self.machine
        # Compilation cost scales with trace length (optimization passes).
        per_op = self.config.compile_cost_per_op
        for i in range(len(ops)):
            m.alu(self.s_compile, _COMPILING, n=per_op - 2)
            m.load(self.s_compile + 16, _COMPILING,
                   m.space.jit_code.base + 16 * i)
            m.store(self.s_compile + 20, _COMPILING,
                    m.space.jit_code.base + 16 * i)
        self._trace_count += 1
        code_base = m.jit_site(f"jit.trace.{self._trace_count}",
                               16 * max(1, len(ops)))
        trace = CompiledTrace(key, ops, code_base, self._rec_is_loop)
        is_bridge = self._rec_bridge_of is not None
        if is_bridge:
            parent, index = self._rec_bridge_of
            parent.bridges[index] = trace
            self.vm.stats.bridges_compiled += 1
        else:
            self.traces[key] = trace
        self.vm.stats.traces_compiled += 1
        self.vm.stats.compiled_ops += len(ops)
        if TELEMETRY.enabled:
            kind = "bridge" if is_bridge else (
                "loop" if self._rec_is_loop else "function")
            TELEMETRY.metrics.counter(
                "jit.traces_compiled", runtime=self.vm.runtime_name,
                kind=kind).inc()
            TELEMETRY.metrics.histogram(
                "jit.trace_ops",
                runtime=self.vm.runtime_name).observe(len(ops))
        self.mode = _IDLE
        self._rec_key = None
        self._rec_ops = []
        self._rec_bridge_of = None

    # ------------------------------------------------------------------
    # Compiled execution
    # ------------------------------------------------------------------

    def _start_executing(self, trace: CompiledTrace) -> None:
        self.mode = _EXECUTING
        self._exec_trace = trace
        self._exec_index = 0
        trace.executions += 1
        self.pending_allocs.clear()
        self.machine.suppressed = True

    def before_op(self, frame, op: int) -> bool:
        """Check one op against the trace; emit its compiled-code cost.

        Returns True when compiled execution continues, False when it
        exited (guard failure or clean end) and the interpreter resumes.
        """
        trace = self._exec_trace
        index = self._exec_index
        expected = trace.ops[index]
        actual = (id(frame.code), frame.pc, op)
        if actual != expected:
            bridge = trace.bridges.get(index)
            if isinstance(bridge, CompiledTrace) and \
                    bridge.ops and bridge.ops[0] == actual:
                # Take the compiled side path: stay in machine code.
                self._exec_trace = bridge
                self._exec_index = 0
                trace = bridge
                index = 0
            else:
                self._guard_exit(frame, index, actual, bridge)
                return False
        m = self.machine
        m.suppressed = False
        site = trace.code_base + 16 * (index & 0x3FFF)
        if self.pending_allocs:
            self._flush_allocs(site)
        if op in _PURE_STACK_OPS:
            pass  # register-allocated: no machine code at all
        elif op in _GUARD_OPS:
            m.alu(site, _COMPILED, n=1)
            m.branch(site + 4, _COMPILED, taken=False)
        elif op in _MEM_LOAD_OPS:
            target = frame.stack[-1] if frame.stack else None
            addr = target.addr if target is not None else site
            m.load(site, _COMPILED, addr + 16)
            m.branch(site + 4, _COMPILED, taken=False)  # bounds/shape guard
        elif op in _MEM_STORE_OPS:
            target = frame.stack[-2] if len(frame.stack) >= 2 else None
            addr = target.addr if target is not None else site
            m.store(site, _COMPILED, addr + 16)
            m.alu(site + 4, _COMPILED, n=1)
        elif op == int(Op.JUMP_ABSOLUTE):
            m.branch(site, _COMPILED, taken=True, conditional=False)
        else:
            # Arithmetic and everything else: one real operation plus an
            # overflow/type guard.
            m.alu(site, _COMPILED, n=1)
            m.branch(site + 4, _COMPILED, taken=False)
        m.suppressed = True
        self._exec_index = index + 1
        if self._exec_index >= len(trace.ops):
            if trace.is_loop:
                self._exec_index = 0
            else:
                self._clean_exit()
        return True

    def _flush_allocs(self, site: int) -> None:
        m = self.machine
        for addr, size in self.pending_allocs:
            m.alu(site + 8, _COMPILED, n=2)
            m.branch(site + 12, _COMPILED, taken=False)
            m.touch_range(site + 16, _COMPILED, addr, size, write=True)
        self.pending_allocs.clear()

    def _clean_exit(self) -> None:
        m = self.machine
        m.suppressed = False
        if self.pending_allocs:
            self._flush_allocs(self._exec_trace.code_base)
        m.alu(self._exec_trace.code_base + 20, _COMPILED, n=2)
        self.mode = _IDLE
        self._exec_trace = None

    def _guard_exit(self, frame, index: int, actual: tuple,
                    bridge) -> None:
        trace = self._exec_trace
        m = self.machine
        m.suppressed = False
        if self.pending_allocs:
            self._flush_allocs(trace.code_base)
        fail_key = (trace.key, index)
        fails = self.guard_fails.get(fail_key, 0) + 1
        self.guard_fails[fail_key] = fails
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                "jit.guard_fails", runtime=self.vm.runtime_name).inc()
        m.branch(trace.code_base + 16 * (index & 0x3FFF) + 4, _COMPILED,
                 taken=True)
        self._exec_trace = None
        if bridge is not None:
            # A bridge exists but this exit took yet another path, or
            # the bridge was blacklisted: leave through a cheap stub.
            m.alu(trace.code_base + 24, _COMPILED, n=2)
            self.mode = _IDLE
            return
        if fails <= self.config.guard_bridge_threshold:
            # Deoptimization: reconstruct the interpreter state from the
            # guard's resume data — expensive (Section II-B).
            live = len(frame.stack) + len(frame.locals)
            m.alu(self.s_deopt, _COMPILING, n=24)
            for i in range(live):
                m.store(self.s_deopt + 16, _COMPILING,
                        frame.addr + 64 + 8 * (i % 48))
            m.load(self.s_deopt + 20, _COMPILING, trace.code_base)
            self.vm.stats.deopts += 1
            if TELEMETRY.enabled:
                TELEMETRY.metrics.counter(
                    "jit.deopts", runtime=self.vm.runtime_name).inc()
            self.mode = _IDLE
            return
        # This guard keeps failing: record a bridge starting at the
        # divergent operation; iterations stay interpreted while the
        # bridge is being traced.
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                "jit.bridges_started", runtime=self.vm.runtime_name).inc()
        self._start_recording(("bridge", trace.key, index),
                              is_loop=False, bridge_of=(trace, index))
        self._rec_ops.append(actual)
        m.alu(self.s_record + 32, _COMPILING, n=6)


class NullJIT:
    """Stand-in when the JIT is disabled (PyPy w/o JIT configuration)."""

    mode = _IDLE
    pending_allocs: list = []

    def __init__(self, vm, config: JITConfig) -> None:
        self.vm = vm
        self.config = config

    def on_backedge(self, frame, target: int) -> None:
        pass

    def on_call(self, code) -> None:
        pass

    def record_op(self, frame, op: int) -> None:
        pass

    def before_op(self, frame, op: int) -> bool:
        return False
