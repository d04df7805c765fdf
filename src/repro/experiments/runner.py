"""Workload execution with trace caching.

Experiments sweep microarchitecture parameters over fixed traces (cache,
branch, and core models re-run; the guest does not), and sweep run-time
parameters (nursery size, JIT on/off) by re-running the guest. The
runner keeps recent traces and memory-side states in memory, least
recently used first out, within one byte budget
(:attr:`ExperimentRunner.CACHE_BUDGET_BYTES`), so figure harnesses can
loop workload-outer / config-inner without re-interpreting. Every trace
is frozen as its guest run ends: it holds only its narrow columns, not
the row buffer or the machine that produced it.

A trace is held from its second read in the process on. Most figures
read each trace once, and holding those would only crowd out what is
read again, so a first read is handed to the caller and not kept,
unless nothing could give it back: the disk cache is off, or storing the
run failed. A trace loaded from disk is charged what a computed one is,
its decoded columns, because it releases the file mapping once every
column is decoded. Memory-side states are held at their first read,
keyed by content: the run's key and the machine's memory-side
geometry, so a trace read again finds the states of its first read.

The in-memory cache is backed by a write-through persistent
:class:`~repro.experiments.diskcache.DiskCache`: every fresh guest run
and memory-side state is also stored on disk, and a memory miss
consults disk before re-computing. Repeated benchmark invocations —
and parallel figure workers, which share the cache directory —
therefore skip double interpretation entirely. ``REPRO_CACHE=off``
restores the purely in-memory behavior.

Disk entries are untrusted input: the cache verifies checksums and
quarantines corrupt entries itself, and the runner additionally
shape-checks loaded memory-side states against the trace they claim to
describe — every failure is a recomputable miss, never an exception.
"""

from __future__ import annotations

import gc
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..config import (
    MachineConfig,
    RuntimeConfig,
    cpython_runtime,
    pypy_runtime,
    v8_runtime,
)
from ..errors import ExperimentError
from ..frontend.compiler import Program, compile_source
from ..host.address_space import AddressSpace
from ..host.codec import RAW_ROW_BYTES
from ..host.machine import HostMachine
from ..host.trace import InstructionTrace
from ..telemetry import TELEMETRY
from ..uarch.system import MemorySideState, SimulatedSystem
from ..vm.cpython import CPythonVM
from ..vm.pypy import PyPyVM
from ..vm.v8 import V8VM
from ..vm.v8.workloads import js_source
from ..workloads import get_workload
from .diskcache import DiskCache, content_key

_MB = 1024 * 1024

#: A guest run that emits more host instructions than this fails. The
#: limit is part of every trace's disk-cache key (``max_instructions``).
MAX_INSTRUCTIONS = 120_000_000


def memory_side_key(config: MachineConfig) -> tuple:
    """Everything a :class:`MemorySideState` depends on.

    The cache simulation reads each level's geometry (size, ways, line
    size) and the branch simulation reads the predictor table shapes;
    latencies, bandwidth, and core parameters only enter the *core*
    models, so they are deliberately excluded — a latency sweep over one
    trace reuses a single memory-side state.
    """
    branch = config.branch
    return tuple(
        (level.size, level.ways, level.line_size)
        for level in (config.l1i, config.l1d, config.l2, config.l3)
    ) + ((branch.l1_entries, branch.history_bits, branch.l2_entries,
          branch.btb_entries, branch.scale),)


@dataclass
class RunHandle:
    """A finished guest run: trace, site table, and run statistics."""

    workload: str
    runtime: str
    jit: bool
    nursery: int
    trace: InstructionTrace
    site_table: dict[str, int]
    bytecodes: int
    allocations: int
    allocated_bytes: int
    minor_gcs: int
    major_gcs: int
    traces_compiled: int
    deopts: int
    output: list[str]
    #: Trace row where the measured (post-warmup) execution begins.
    measure_start: int = 0
    #: Warmup executions that preceded the measured run (disk-cache key).
    warmup_runs: int = 0
    #: Host wall-clock seconds the guest run took (warmup included).
    wall_seconds: float = 0.0
    #: Total host instructions emitted (warmup included); benchmarks
    #: derive simulator throughput as host_instructions / wall_seconds.
    host_instructions: int = 0

    def measured_arrays(self):
        """Trace columns restricted to the measured window."""
        return self.trace.slice_view(self.measure_start, len(self.trace))


def _runtime_config(runtime: str, jit: bool, nursery: int) -> RuntimeConfig:
    if runtime == "cpython":
        return cpython_runtime()
    if runtime == "pypy":
        return pypy_runtime(jit=jit, nursery_size=nursery)
    if runtime == "v8":
        return v8_runtime(nursery_size=nursery)
    raise ExperimentError(f"unknown runtime {runtime!r}")


class ExperimentRunner:
    """Runs workloads and caches (trace, memory-side) results."""

    #: Bytes of traces and memory-side states held in memory. A trace is
    #: charged its decoded columns (35 B per row; a loaded one costs no
    #: more, since it unmaps its file once decoded), a state the bytes
    #: of its arrays. Only traces read a second time are held, so the
    #: budget fills with what is re-read: 512 MiB keeps the sweep
    #: server's working set of figures resident, and larger grids, such
    #: as the nursery figures', cycle through it least recently used
    #: first, with the disk cache behind it.
    CACHE_BUDGET_BYTES = 512 * _MB

    def __init__(self, scale: int = 1,
                 disk_cache: DiskCache | None = None) -> None:
        self.scale = scale
        self.disk_cache = disk_cache if disk_cache is not None \
            else DiskCache()
        #: ("trace", run key) -> RunHandle and ("state", state key) ->
        #: MemorySideState, least recently used first, with the bytes
        #: each is charged.
        self._held: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        #: Sum of the charges in ``_held``.
        self.cache_bytes = 0
        #: Run keys :meth:`run` has returned: a trace is held from its
        #: second read on. One key per point of the figure grids a
        #: process runs (hundreds at most), so it is left unbounded.
        self._seen: set[tuple] = set()
        self._programs: dict[tuple, Program] = {}

    # ------------------------------------------------------------------
    # Guest execution
    # ------------------------------------------------------------------

    def _program(self, workload: str, runtime: str) -> Program:
        key = (workload, runtime == "v8")
        program = self._programs.get(key)
        if program is None:
            if runtime == "v8":
                source = js_source(workload)
            else:
                source = get_workload(workload).source(self.scale)
            program = compile_source(source, workload)
            self._programs[key] = program
        return program

    def run(self, workload: str, runtime: str = "cpython",
            jit: bool = True, nursery: int = 1 * _MB,
            warmup_runs: int = 0) -> RunHandle:
        """Execute (or fetch from cache) one guest run.

        ``warmup_runs`` follows the paper's Section III protocol: the
        program is executed that many extra times on the *same* VM
        before the measured run, so the JIT enters the measured window
        already warm. ``measure_start`` marks where the measured trace
        begins.
        """
        if runtime == "cpython":
            jit = False
            nursery = 0
        key = self._run_key(workload, runtime, jit, nursery, warmup_runs)
        handle = self._lookup("trace", key)
        metrics = TELEMETRY.metrics
        if handle is not None:
            metrics.counter("runner.trace_cache.hit", runtime=runtime).inc()
            return handle
        read_before = key in self._seen
        self._seen.add(key)
        trace_params = self._trace_key_params(workload, runtime, jit,
                                              nursery, warmup_runs)
        disk_key = content_key(trace_params)
        cached = self.disk_cache.load_run(disk_key)
        if cached is not None:
            metrics.counter("runner.trace_cache.hit", runtime=runtime).inc()
            metrics.counter("runner.disk_cache.hit", kind="trace").inc()
            self._keep_trace(key, cached, hold=read_before)
            return cached
        metrics.counter("runner.trace_cache.miss", runtime=runtime).inc()
        if self.disk_cache.enabled:
            metrics.counter("runner.disk_cache.miss", kind="trace").inc()
        program = self._program(workload, runtime)
        space = AddressSpace(nursery_size=max(nursery, 16 * 1024))
        machine = HostMachine(space, max_instructions=MAX_INSTRUCTIONS)
        config = _runtime_config(runtime, jit, max(nursery, 16 * 1024))
        start = time.perf_counter()
        with TELEMETRY.tracer.span("guest.run", workload=workload,
                                   runtime=runtime, jit=jit,
                                   nursery=nursery):
            if runtime == "cpython":
                vm = CPythonVM(machine, program)
            elif runtime == "pypy":
                vm = PyPyVM(machine, program, config)
            else:
                vm = V8VM(machine, program, config)
            for _ in range(warmup_runs):
                vm.run()
                vm.output.clear()
            measure_start = len(machine.trace)
            vm.run()
        wall_seconds = time.perf_counter() - start
        trace = machine.trace
        trace.freeze()
        stats = vm.stats
        handle = RunHandle(
            workload=workload, runtime=runtime, jit=jit, nursery=nursery,
            trace=trace, site_table=dict(machine.site_table),
            bytecodes=stats.bytecodes, allocations=stats.allocations,
            allocated_bytes=stats.allocated_bytes,
            minor_gcs=stats.minor_gcs, major_gcs=stats.major_gcs,
            traces_compiled=stats.traces_compiled, deopts=stats.deopts,
            output=list(vm.output), measure_start=measure_start,
            warmup_runs=warmup_runs, wall_seconds=wall_seconds,
            host_instructions=len(trace))
        metrics.counter("guest.instructions", runtime=runtime).inc(len(trace))
        if wall_seconds > 0:
            metrics.gauge("guest.instructions_per_second",
                          runtime=runtime).set(len(trace) / wall_seconds)
        stored = self.disk_cache.store_run(disk_key, handle,
                                           key_params=trace_params)
        self._keep_trace(key, handle, hold=read_before or not stored)
        # A finished VM is a reference cycle that holds the whole guest
        # heap; collect it here (~10 ms per run) instead of whenever the
        # cyclic collector next runs, so peak memory does not depend on
        # allocation timing. The frozen trace no longer reaches it.
        del vm, machine
        gc.collect()
        return handle

    def _trace_key_params(self, workload: str, runtime: str, jit: bool,
                          nursery: int, warmup_runs: int) -> dict:
        """Disk-cache identity of one guest run (see diskcache docs)."""
        return {
            "kind": "trace", "workload": workload, "runtime": runtime,
            "jit": jit, "nursery": nursery, "scale": self.scale,
            "warmup_runs": warmup_runs,
            "max_instructions": MAX_INSTRUCTIONS,
        }

    def _run_key(self, workload: str, runtime: str, jit: bool,
                 nursery: int, warmup_runs: int) -> tuple:
        """In-memory identity of one guest run: the key its trace is
        held under, and the first half of its states' keys."""
        return (workload, runtime, jit, nursery, self.scale, warmup_runs)

    def _keep_trace(self, key: tuple, handle: RunHandle,
                    hold: bool) -> None:
        """Hold a trace that is read again or cannot be loaded back;
        count the first reads handed out without being held."""
        if hold:
            self._admit("trace", key, handle,
                        len(handle.trace) * RAW_ROW_BYTES)
        else:
            TELEMETRY.metrics.counter("runner.cache.not_held",
                                      kind="trace").inc()

    # ------------------------------------------------------------------
    # In-memory cache: one LRU over traces and states, bounded in bytes
    # ------------------------------------------------------------------

    def _lookup(self, kind: str, key: tuple):
        """The held entry, now most recently used; None on a miss."""
        held = self._held.get((kind, key))
        if held is None:
            return None
        self._held.move_to_end((kind, key))
        return held[0]

    def _admit(self, kind: str, key: tuple, entry, nbytes: int) -> None:
        """Hold ``entry``, then evict least recently used entries until
        the held bytes fit the budget. The newest entry always stays, so
        the runner never holds more than the budget plus one entry."""
        held = self._held
        held[(kind, key)] = (entry, nbytes)
        self.cache_bytes += nbytes
        metrics = TELEMETRY.metrics
        while self.cache_bytes > self.CACHE_BUDGET_BYTES and len(held) > 1:
            (evicted_kind, _), (_, evicted_bytes) = held.popitem(last=False)
            self.cache_bytes -= evicted_bytes
            metrics.counter("runner.cache.evicted", kind=evicted_kind).inc()
        metrics.gauge("runner.cache.bytes").set(self.cache_bytes)
        metrics.gauge("runner.cache.budget_bytes").set(
            self.CACHE_BUDGET_BYTES)

    # ------------------------------------------------------------------
    # Microarchitecture simulation
    # ------------------------------------------------------------------

    def _state_key_params(self, handle: RunHandle,
                          config: MachineConfig) -> dict:
        params = self._trace_key_params(
            handle.workload, handle.runtime, handle.jit, handle.nursery,
            handle.warmup_runs)
        params["kind"] = "state"
        params["machine"] = memory_side_key(config)
        return params

    def memory_side(self, handle: RunHandle, config: MachineConfig,
                    ) -> MemorySideState:
        """Cache + branch simulation for one (run, machine) pair.

        Held under the run's key, not the handle: every read of a trace
        finds the states an earlier read simulated or loaded.
        """
        key = (self._run_key(handle.workload, handle.runtime, handle.jit,
                             handle.nursery, handle.warmup_runs),
               memory_side_key(config))
        state = self._lookup("state", key)
        metrics = TELEMETRY.metrics
        if state is not None:
            metrics.counter("runner.state_cache.hit").inc()
            return state
        state_params = self._state_key_params(handle, config)
        disk_key = content_key(state_params)
        state = self.disk_cache.load_state(disk_key)
        if state is not None and len(state.dlevel) != len(handle.trace):
            # Checksums catch bit rot, not a state that parses cleanly
            # but belongs to a different-length trace (e.g. a cache dir
            # hand-copied across incompatible checkouts). Shape-check
            # against the trace we are about to simulate and quarantine
            # mismatches rather than poisoning the core models.
            metrics.counter("cache.shape_mismatch", kind="states").inc()
            self.disk_cache.quarantine("states", disk_key)
            state = None
        if state is not None:
            metrics.counter("runner.state_cache.hit").inc()
            metrics.counter("runner.disk_cache.hit", kind="state").inc()
            self._admit("state", key, state, _state_bytes(state))
            return state
        metrics.counter("runner.state_cache.miss").inc()
        if self.disk_cache.enabled:
            metrics.counter("runner.disk_cache.miss", kind="state").inc()
        with TELEMETRY.tracer.span("sim.memory_side",
                                   workload=handle.workload,
                                   runtime=handle.runtime):
            system = SimulatedSystem(config)
            state = system.memory_side(handle.trace)
        self._admit("state", key, state, _state_bytes(state))
        self.disk_cache.store_state(disk_key, state, key_params=state_params)
        return state

    def simulate(self, handle: RunHandle, config: MachineConfig,
                 core: str = "ooo"):
        """End-to-end timing for one run on one machine configuration."""
        state = self.memory_side(handle, config)
        with TELEMETRY.tracer.span("sim.core", workload=handle.workload,
                                   runtime=handle.runtime, core=core):
            system = SimulatedSystem(config)
            return system.run(handle.trace, core=core, state=state)

    def simulate_many_configs(self, handle: RunHandle, configs,
                              core: str = "ooo") -> list:
        """Timing results for one run under many machine configurations.

        Memory-side states are computed (or fetched) once per distinct
        memory-side geometry, then the whole batch goes through
        :meth:`SimulatedSystem.run_many_configs`, which walks every
        (state, config) pair over the stored columns, copying nothing
        per state.
        Results are bit-identical to per-config :meth:`simulate` calls,
        in input order.
        """
        states = [self.memory_side(handle, config) for config in configs]
        with TELEMETRY.tracer.span("sim.core_batch",
                                   workload=handle.workload,
                                   runtime=handle.runtime, core=core,
                                   configs=len(configs)):
            return SimulatedSystem.run_many_configs(
                handle.trace, configs, states, core=core)

    # ------------------------------------------------------------------
    # Parallel fan-out
    # ------------------------------------------------------------------

    def spawn_params(self) -> dict:
        """Constructor kwargs for a worker-process clone of this runner.

        The disk cache is shared so worker results persist where the
        parent and later invocations will look for them.
        """
        return {"scale": self.scale, "disk_cache": self.disk_cache}

    def queue_params(self) -> dict:
        """JSON-able clone parameters for a *cross-process* worker.

        Like :meth:`spawn_params` but serializable into a queue cell:
        the disk-cache object is dropped — a queue worker builds its
        own :class:`~repro.experiments.diskcache.DiskCache` rooted at
        the campaign's shared cache directory, which is the whole
        rendezvous mechanism.
        """
        return {"scale": self.scale}


def _state_bytes(state: MemorySideState) -> int:
    """What a held state is charged: the bytes of its arrays."""
    return (state.dlevel.nbytes + state.ilevel.nbytes
            + state.mispredicted.nbytes)
