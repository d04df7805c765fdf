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

Two interchangeable engines implement the model:

* the **scalar** engine below walks the trace one instruction at a time
  (the reference), and
* the **vectorized** engine in :mod:`~repro.uarch.ooo_vector` processes
  the trace in blocks, solving each block's timing recurrences by
  fixed-point relaxation built from exact prefix scans, and can batch a
  whole config sweep through one walk of the trace
  (:func:`ooo_cycles_many`).

Both engines do all time arithmetic in integer **ticks** (``TICKS`` per
cycle, a power of two), so every sum and max is exact and the two
engines are bit-identical for any block size — the same discipline the
memory-side engines use, extended to the core model's fractional issue
intervals. ``REPRO_SIM_BACKEND=auto|vector|scalar`` (or the ``backend``
argument) selects the engine, exactly as for the cache and branch
simulations.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..host.isa import KIND_LATENCY, InstrKind

#: Integer time resolution: ticks per clock cycle (power of two, so
#: ``ticks / TICKS`` is an exact float division). 1/65536 of a cycle is
#: far below any physical effect the model resolves.
TICK_BITS = 16
TICKS = 1 << TICK_BITS

#: Maximum off-chip misses in flight (miss status holding registers).
MSHRS = 10
_MSHRS = MSHRS  # backwards-compatible alias

#: Floor for the scalar engine's finish ring. The ring grows past this
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

    The ring must hold at least ``max(rob, max dep distance)`` finished
    instructions or lookups would read slots that were already
    overwritten (or, worse, not yet written). ``dep`` is the trace's dep
    column; distances beyond the instruction index can never be
    dereferenced, so they do not force growth.
    """
    n = len(dep)
    need = min(rob, max(n - 1, 0))
    if n:
        d = np.asarray(dep, dtype=np.int64)
        valid = (d > 0) & (d <= np.arange(n, dtype=np.int64))
        if valid.any():
            need = max(need, int(d[valid].max()))
    size = _RING
    while size <= need:
        size <<= 1
    return size


def ooo_cycles_scalar(trace_arrays: dict[str, np.ndarray],
                      dlevel: np.ndarray, ilevel: np.ndarray,
                      mispredicted: np.ndarray,
                      config: MachineConfig) -> float:
    """Total cycles on the approximate OOO core (reference engine)."""
    n = len(trace_arrays["pc"])
    if n == 0:
        return 0.0

    kinds = trace_arrays["kind"].tolist()
    deps = trace_arrays["dep"].tolist()
    dlev = dlevel.tolist()
    ilev = ilevel.tolist()
    misp = mispredicted.tolist()

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

    for i in range(n):
        start = front
        front += front_interval

        level = ilev[i]
        if level > 0:
            bubble = fetch_pen[level]
            front += bubble
            start += bubble
            if level == 3:
                mem_bytes += line_size

        dep = deps[i]
        if 0 < dep <= i:
            producer = fin[(i - dep) % ring]
            if producer > start:
                start = producer
        if i >= rob:
            oldest = fin[(i - rob) % ring]
            if oldest > start:
                start = oldest

        kind = kinds[i]
        if kind == _LOAD:
            service = dlev[i]
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
            latency = load_lat[service] if service >= 0 else kind_lat[kind]
        elif kind == _STORE:
            if dlev[i] == 3:
                mem_bytes += line_size
                bus_ready = mem_bytes * tpb - mem_latency
                if bus_ready > start:
                    start = bus_ready
                mshr_free = miss_ring[miss_count % MSHRS]
                if mshr_free > start:
                    start = mshr_free
                # The store itself retires via the write buffer, but its
                # fill occupies an MSHR for the full memory latency.
                miss_ring[miss_count % MSHRS] = start + mem_latency
                miss_count += 1
            latency = TICKS
        else:
            latency = kind_lat[kind]

        finish = start + latency
        fin[i % ring] = finish
        if finish > last_finish:
            last_finish = finish

        if misp[i]:
            restart = finish + penalty
            if restart > front:
                front = restart

    return max(last_finish, front) / TICKS


def ooo_cycles(trace_arrays: dict[str, np.ndarray], dlevel: np.ndarray,
               ilevel: np.ndarray, mispredicted: np.ndarray,
               config: MachineConfig, backend: str | None = None) -> float:
    """Total cycles to execute the trace on the approximate OOO core.

    ``backend`` selects the engine (``auto``/``vector``/``scalar``); by
    default the ``REPRO_SIM_BACKEND`` environment variable decides,
    falling back to ``auto``. All engines are bit-identical.
    """
    from .cache import _resolve_backend
    if _resolve_backend(backend) == "scalar":
        return ooo_cycles_scalar(trace_arrays, dlevel, ilevel,
                                 mispredicted, config)
    from .ooo_vector import ooo_cycles_many_vector
    return ooo_cycles_many_vector(trace_arrays, dlevel, ilevel,
                                  mispredicted, [config])[0]


def ooo_cycles_many(trace_arrays: dict[str, np.ndarray], states,
                    configs, backend: str | None = None) -> list[float]:
    """OOO cycles for many configs in (at most) one walk of the trace.

    ``states`` and ``configs`` are parallel sequences; each state is a
    :class:`~repro.uarch.system.MemorySideState` (or anything with
    ``dlevel``/``ilevel``/``mispredicted`` arrays) matching its config's
    memory-side geometry. Configs that share a state object — a latency
    or issue-width sweep over one trace — are evaluated together by the
    batched engine, which walks the trace once with a config axis
    instead of once per point. Results come back in input order and are
    bit-identical to per-config :func:`ooo_cycles` calls for every
    backend.
    """
    if len(states) != len(configs):
        raise ValueError("states and configs must be parallel sequences")
    from .cache import _resolve_backend
    out: list[float | None] = [None] * len(configs)
    if _resolve_backend(backend) == "scalar":
        for i, (state, config) in enumerate(zip(states, configs)):
            out[i] = ooo_cycles_scalar(trace_arrays, state.dlevel,
                                       state.ilevel, state.mispredicted,
                                       config)
        return out
    from .ooo_vector import ooo_cycles_many_vector
    groups: dict[int, tuple] = {}
    for i, (state, config) in enumerate(zip(states, configs)):
        positions, _, cfgs = groups.setdefault(
            id(state), ([], state, []))
        positions.append(i)
        cfgs.append(config)
    for positions, state, cfgs in groups.values():
        cycles = ooo_cycles_many_vector(trace_arrays, state.dlevel,
                                        state.ilevel, state.mispredicted,
                                        cfgs)
        for pos, value in zip(positions, cycles):
            out[pos] = value
    return out
