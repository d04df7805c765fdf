"""Approximate out-of-order core model for the Figure 7-9 sweeps.

A single in-order pass computes, for every instruction, the earliest cycle
it can issue and finish under five constraints:

1. **Issue bandwidth** — the front end delivers ``issue_width``
   instructions per cycle.
2. **Register dependences** — an instruction cannot start before the
   producer recorded in the trace's ``dep`` column has finished. This is
   what gives interpreters their characteristically low ILP: the dispatch
   loop is one long serial chain.
3. **ROB window** — instruction *i* cannot issue before instruction
   *i - rob_entries* has finished (retirement frees the slot).
4. **Branch mispredictions** — a mispredicted branch restarts the front
   end ``mispredict_penalty`` cycles after it resolves.
5. **Memory bandwidth** — off-chip line transfers (fills and writebacks)
   occupy the bus under a token-bucket envelope; when the envelope is
   exhausted, memory-serviced accesses are delayed.
6. **Outstanding misses (MSHRs)** — at most ``MSHRS`` off-chip misses
   may be in flight; a streaming miss sequence is therefore throttled to
   ``MSHRS / memory_latency`` lines per cycle, which is what makes
   memory *latency* matter even for store streams (Figure 7e).

Loads see the full load-to-use latency of whichever cache level serviced
them. Stores retire through a write buffer (latency 1) but their fills
occupy an MSHR for the full memory latency and consume bus bandwidth.
Independent misses overlap up to the MSHR limit — memory-level
parallelism falls out of the dependence model rather than being a
parameter.

Two bit-identical engines implement the model:

* the **scalar** engine below walks the trace one instruction at a time
  (the reference and test oracle), and
* the **compiled kernel** in :mod:`~repro.uarch._ooo_kernel` runs the
  same loop in C whenever a C compiler is present. It reads the trace
  and memory-side columns as they are stored, so a config sweep
  (:func:`ooo_cycles_many`) copies nothing per state: it sizes one
  finish ring for the call and walks every (state, config) pair in
  turn.

Both index latency tables by instruction kind and service level, so
both check those columns first and raise the same ``ValueError`` for a
kind outside :data:`KIND_LATENCY_TICKS` or a level outside
``SERVICE_NONE..SERVICE_MEM``: a NumPy min/max per column, once per
call for the kinds and once per memory-side state for the levels.

Both do all time arithmetic in integer **ticks** (``TICKS`` per cycle,
a power of two), so every sum and max is exact — the same discipline
the memory-side engines use, extended to the core model's fractional
issue intervals. :func:`ooo_cycles` and :func:`ooo_cycles_many` run
the kernel when one was built and the scalar loop otherwise; tests
call :func:`ooo_cycles_scalar` by name as the oracle.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import ReproError
from ..host.isa import KIND_LATENCY, InstrKind
from ..telemetry import TELEMETRY
from .cache import SCALAR_CHUNK_ROWS, SERVICE_MEM, SERVICE_NONE

#: Integer time resolution: ticks per clock cycle (power of two, so
#: ``ticks / TICKS`` is an exact float division). 1/65536 of a cycle is
#: far below any physical effect the model resolves.
TICK_BITS = 16
TICKS = 1 << TICK_BITS

#: Maximum off-chip misses in flight (miss status holding registers).
MSHRS = 10

#: Floor for the engines' finish ring. The ring grows past this
#: whenever the ROB or the largest dependence distance needs it (the
#: seed engine silently *ignored* deps >= 4096 and corrupted the ROB
#: constraint for rob_entries >= 4096).
_RING = 4096

_LOAD = int(InstrKind.LOAD)
_STORE = int(InstrKind.STORE)

#: Execution latency in ticks per instruction kind, derived from the ISA
#: table so a new :class:`InstrKind` member can never index out of range.
KIND_LATENCY_TICKS = np.zeros(max(int(k) for k in InstrKind) + 1,
                              dtype=np.int64)
for _kind in InstrKind:
    KIND_LATENCY_TICKS[int(_kind)] = KIND_LATENCY[_kind] * TICKS
del _kind


def _check_range(name: str, column: np.ndarray, low: int,
                 high: int) -> None:
    """Raise ``ValueError`` unless every value of ``column`` is in
    ``[low, high]`` (the walks index tables with them)."""
    if len(column) and (np.min(column) < low or np.max(column) > high):
        raise ValueError(f"{name} holds values outside {low}..{high}")


def _check_kinds(kind: np.ndarray) -> None:
    """Every kind indexes :data:`KIND_LATENCY_TICKS`."""
    _check_range("kind", kind, 0, len(KIND_LATENCY_TICKS) - 1)


def _check_levels(dlevel: np.ndarray, ilevel: np.ndarray) -> None:
    """Every service level indexes the load and fetch latency tables."""
    _check_range("dlevel", dlevel, SERVICE_NONE, SERVICE_MEM)
    _check_range("ilevel", ilevel, SERVICE_NONE, SERVICE_MEM)


def _load_latencies(config: MachineConfig) -> list[int]:
    """Load-to-use latency in ticks per service level (SERVICE_* index)."""
    l1 = config.l1d.latency
    l2 = l1 + config.l2.latency
    l3 = l2 + config.l3.latency
    mem = l3 + config.memory.latency
    return [l1 * TICKS, l2 * TICKS, l3 * TICKS, mem * TICKS]


def _fetch_penalties(config: MachineConfig) -> list[int]:
    """Front-end bubble in ticks per instruction-fetch service level."""
    l2 = config.l2.latency
    l3 = l2 + config.l3.latency
    mem = l3 + config.memory.latency
    return [0, l2 * TICKS, l3 * TICKS, mem * TICKS]


def front_interval_ticks(config: MachineConfig) -> int:
    """Ticks between front-end deliveries (issue- or fetch-limited)."""
    issue = round(TICKS / config.core.issue_width)
    # Instructions are ~4 bytes, so the fetch side delivers
    # fetch_bytes / 4 instructions per cycle.
    fetch = round(4 * TICKS / config.core.fetch_bytes)
    return max(1, issue, fetch)


def ticks_per_byte(config: MachineConfig) -> int:
    """Bus occupancy in ticks per byte of off-chip traffic."""
    return max(1, round(TICKS / config.memory.bytes_per_cycle))


def ring_size(rob: int, dep: np.ndarray) -> int:
    """Finish-ring size covering both the ROB and every dependence.

    The ring must hold at least ``max(rob, largest dep distance)``
    finished instructions of a walk over ``dep``, or lookups would read
    slots that were already overwritten (or, worse, not yet written).
    No distance past the trace length can be dereferenced, so the need
    is clipped to it. The dep bound is a plain ``max``, which may count
    distances the walk never follows; a larger ring changes no bit.
    """
    need = min(max(rob, int(np.max(dep, initial=0))), max(len(dep) - 1, 0))
    size = _RING
    while size <= need:
        size <<= 1
    return size


def ooo_cycles_scalar(trace_arrays: dict[str, np.ndarray],
                      dlevel: np.ndarray, ilevel: np.ndarray,
                      mispredicted: np.ndarray,
                      config: MachineConfig) -> float:
    """Total cycles on the approximate OOO core (reference engine).

    The walk turns :data:`~repro.uarch.cache.SCALAR_CHUNK_ROWS` rows of
    each column into Python lists at a time, so no list spans the
    whole trace.
    """
    n = len(trace_arrays["pc"])
    columns = (trace_arrays["kind"], trace_arrays["dep"], dlevel, ilevel,
               mispredicted)
    if any(len(column) != n for column in columns):
        raise ValueError("trace columns differ in length")
    if n == 0:
        return 0.0
    _check_kinds(trace_arrays["kind"])
    _check_levels(dlevel, ilevel)

    front_interval = front_interval_ticks(config)
    rob = config.core.rob_entries
    penalty = config.branch.mispredict_penalty * TICKS
    load_lat = _load_latencies(config)
    fetch_pen = _fetch_penalties(config)
    kind_lat = KIND_LATENCY_TICKS.tolist()
    line_size = config.l1d.line_size
    tpb = ticks_per_byte(config)
    mem_latency = config.memory.latency * TICKS

    ring = ring_size(rob, trace_arrays["dep"])
    fin = [0] * ring
    front = 0             # next front-end delivery time (ticks)
    mem_bytes = 0         # cumulative off-chip traffic (bytes)
    miss_ring = [0] * MSHRS
    miss_count = 0
    last_finish = 0

    for begin in range(0, n, SCALAR_CHUNK_ROWS):
        end = min(begin + SCALAR_CHUNK_ROWS, n)
        for i, kind, dep, service, level, misp in zip(
                range(begin, end),
                *(column[begin:end].tolist() for column in columns)):
            start = front
            front += front_interval

            if level > 0:
                bubble = fetch_pen[level]
                front += bubble
                start += bubble
                if level == 3:
                    mem_bytes += line_size

            if 0 < dep <= i:
                producer = fin[(i - dep) % ring]
                if producer > start:
                    start = producer
            if i >= rob:
                oldest = fin[(i - rob) % ring]
                if oldest > start:
                    start = oldest

            if kind == _LOAD:
                if service == 3:
                    mem_bytes += line_size
                    bus_ready = mem_bytes * tpb - mem_latency
                    if bus_ready > start:
                        start = bus_ready
                    mshr_free = miss_ring[miss_count % MSHRS]
                    if mshr_free > start:
                        start = mshr_free
                    miss_ring[miss_count % MSHRS] = start + mem_latency
                    miss_count += 1
                latency = load_lat[service] if service >= 0 \
                    else kind_lat[kind]
            elif kind == _STORE:
                if service == 3:
                    mem_bytes += line_size
                    bus_ready = mem_bytes * tpb - mem_latency
                    if bus_ready > start:
                        start = bus_ready
                    mshr_free = miss_ring[miss_count % MSHRS]
                    if mshr_free > start:
                        start = mshr_free
                    # The store itself retires via the write buffer, but
                    # its fill occupies an MSHR for the full memory
                    # latency.
                    miss_ring[miss_count % MSHRS] = start + mem_latency
                    miss_count += 1
                latency = TICKS
            else:
                latency = kind_lat[kind]

            finish = start + latency
            fin[i % ring] = finish
            if finish > last_finish:
                last_finish = finish

            if misp:
                restart = finish + penalty
                if restart > front:
                    front = restart

    return max(last_finish, front) / TICKS


def _use_kernel() -> bool:
    from . import _ooo_kernel
    return _ooo_kernel.kernel_available()


def _kernel_walks(trace_arrays: dict[str, np.ndarray], memory,
                  configs) -> list[float]:
    """Compiled walks of the trace, one per (memory side, config) pair.

    ``memory`` holds a ``(dlevel, ilevel, mispredicted)`` triple per
    config. Every walk reads the columns as they are stored, through
    one finish ring size for the whole call. The kinds are checked once
    per call, and the levels once per memory side.
    """
    from . import _ooo_kernel
    if not configs:
        return []
    if TELEMETRY.enabled:
        TELEMETRY.metrics.counter("sim.ooo.kernel_calls").inc(len(configs))
    kind, dep = trace_arrays["kind"], trace_arrays["dep"]
    _check_kinds(kind)
    checked = set()
    for dlevel, ilevel, _ in memory:
        if (id(dlevel), id(ilevel)) not in checked:
            checked.add((id(dlevel), id(ilevel)))
            _check_levels(dlevel, ilevel)
    ring = ring_size(max(config.core.rob_entries for config in configs),
                     dep)
    return [_ooo_kernel.ooo_walk(kind, dep, dlevel, ilevel, mispredicted,
                                 config, ring)
            for (dlevel, ilevel, mispredicted), config
            in zip(memory, configs)]


def ooo_cycles(trace_arrays: dict[str, np.ndarray], dlevel: np.ndarray,
               ilevel: np.ndarray, mispredicted: np.ndarray,
               config: MachineConfig) -> float:
    """Total cycles to execute the trace on the approximate OOO core.

    Runs the compiled kernel when one was built, else the scalar loop;
    both are bit-identical.
    """
    if _use_kernel():
        return _kernel_walks(trace_arrays,
                             [(dlevel, ilevel, mispredicted)], [config])[0]
    return ooo_cycles_scalar(trace_arrays, dlevel, ilevel, mispredicted,
                             config)


def ooo_cycles_many(trace_arrays: dict[str, np.ndarray], states,
                    configs) -> list[float]:
    """OOO cycles for many configs, one walk per (state, config) pair.

    ``states`` and ``configs`` are parallel sequences; each state is a
    :class:`~repro.uarch.system.MemorySideState` (or anything with
    ``dlevel``/``ilevel``/``mispredicted`` arrays) matching its config's
    memory-side geometry, so configs that share a state object must
    share its line size. With the kernel, every pair walks the stored
    columns, copying nothing per state. Results come back in input
    order and are bit-identical to per-config :func:`ooo_cycles`
    calls, with or without the kernel.
    """
    if len(states) != len(configs):
        raise ValueError("states and configs must be parallel sequences")
    line_sizes: dict[int, int] = {}
    for state, config in zip(states, configs):
        line_size = config.l1d.line_size
        if line_sizes.setdefault(id(state), line_size) != line_size:
            raise ReproError(
                "ooo_cycles_many: configs sharing one memory-side state "
                "must share its geometry (line size differs)")
    if not _use_kernel():
        return [ooo_cycles_scalar(trace_arrays, state.dlevel, state.ilevel,
                                  state.mispredicted, config)
                for state, config in zip(states, configs)]
    return _kernel_walks(
        trace_arrays,
        [(state.dlevel, state.ilevel, state.mispredicted)
         for state in states], configs)
