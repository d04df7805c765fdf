"""Set-associative cache hierarchy with LRU replacement.

The hierarchy mirrors Table I: split L1I/L1D backed by a unified L2 and a
last-level cache. Lookups walk down the levels; a miss at the LLC is
serviced by memory. Lines written at any level are tracked so evictions
of dirty lines can be charged as writeback traffic for the bandwidth
model.

Service levels returned by the simulation functions are encoded as:

====  =================================
-1    not a memory access
 0    L1 hit
 1    L2 hit
 2    L3 (LLC) hit
 3    serviced by main memory
====  =================================

The hierarchy has two engines:

* the **scalar** engine walks one access at a time through MRU-ordered
  tag lists (the original implementation, kept as the reference), and
* the **vectorized** engine batches accesses with NumPy: each level
  keeps per-set tag/recency-stamp/dirty matrices, accesses to
  *different* sets are processed together in "waves" (an access lands
  in wave ``k`` if it is the ``k``-th access to its set), and runs of
  consecutive same-line accesses within a set collapse to one state
  update plus guaranteed hits. Both produce bit-identical service
  levels and :class:`CacheStats`; ``tests/test_vectorized_equivalence.
  py`` enforces that on randomized traces.

:func:`simulate_cache_hierarchy` always runs the vectorized engine, and
each level picks its own walk from its input: waves, or a scalar walk
when the trace offers too little set-level parallelism to pay for the
batched bookkeeping (tiny scaled caches, or streams dominated by a few
hot sets); even then the run-collapse preprocessing applies, so the
scalar walk only touches run heads. Tests call the scalar engine by
name as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CacheConfig, MachineConfig
from ..host.isa import InstrKind

SERVICE_NONE = -1
SERVICE_L1 = 0
SERVICE_L2 = 1
SERVICE_L3 = 2
SERVICE_MEM = 3


@dataclass
class CacheStats:
    """Per-level access/miss counters plus traffic for the DRAM model."""

    name: str
    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _Level:
    """One cache level. Sets are MRU-ordered lists of tags."""

    __slots__ = ("config", "stats", "sets", "set_mask", "line_bits",
                 "ways", "dirty")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats(config.name)
        num_sets = config.num_sets
        self.sets: list[list[int]] = [[] for _ in range(num_sets)]
        self.set_mask = num_sets - 1
        self.line_bits = config.line_size.bit_length() - 1
        self.ways = config.ways
        self.dirty: set[int] = set()

    def access(self, line: int, write: bool) -> bool:
        """Look up one line; returns True on hit. Updates LRU and dirty."""
        stats = self.stats
        stats.accesses += 1
        set_idx = line & self.set_mask
        # The line number is its own tag, so no two lines of a set can
        # alias, even when the level has one set.
        ways = self.sets[set_idx]
        try:
            pos = ways.index(line)
        except ValueError:
            stats.misses += 1
            ways.insert(0, line)
            if len(ways) > self.ways:
                victim = ways.pop()
                stats.evictions += 1
                if (set_idx, victim) in self.dirty:
                    self.dirty.discard((set_idx, victim))
                    stats.writebacks += 1
            if write:
                self.dirty.add((set_idx, line))
            return False
        if pos:
            ways.insert(0, ways.pop(pos))
        if write:
            self.dirty.add((set_idx, line))
        return True


class CacheHierarchy:
    """L1I + L1D + unified L2 + LLC, non-inclusive."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1i = _Level(config.l1i)
        self.l1d = _Level(config.l1d)
        self.l2 = _Level(config.l2)
        self.l3 = _Level(config.l3)
        self.line_size = config.l1d.line_size
        self.line_bits = self.line_size.bit_length() - 1

    def data_access(self, line: int, write: bool) -> int:
        """Walk the data path for one line; return the service level."""
        if self.l1d.access(line, write):
            return SERVICE_L1
        if self.l2.access(line, write):
            return SERVICE_L2
        if self.l3.access(line, write):
            return SERVICE_L3
        return SERVICE_MEM

    def fetch_access(self, line: int) -> int:
        """Walk the instruction-fetch path for one line."""
        if self.l1i.access(line, False):
            return SERVICE_L1
        if self.l2.access(line, False):
            return SERVICE_L2
        if self.l3.access(line, False):
            return SERVICE_L3
        return SERVICE_MEM

    def stats(self) -> dict[str, CacheStats]:
        return {"L1I": self.l1i.stats, "L1D": self.l1d.stats,
                "L2": self.l2.stats, "L3": self.l3.stats}


@dataclass
class HierarchySimResult:
    """Per-instruction service levels plus per-level counters."""

    dlevel: np.ndarray   # int8, SERVICE_* per instruction (-1 if not mem)
    ilevel: np.ndarray   # int8, fetch service level (0 if same-line fetch)
    stats: dict[str, CacheStats] = field(default_factory=dict)
    mem_lines: int = 0   # lines transferred from memory (fills + writebacks)

    @property
    def llc_miss_rate(self) -> float:
        llc = self.stats["L3"]
        return llc.miss_rate


def simulate_cache_hierarchy_scalar(trace_arrays: dict[str, np.ndarray],
                                    config: MachineConfig,
                                    ) -> HierarchySimResult:
    """Reference engine: one Python-level ``access()`` call per line.

    Instruction fetch is simulated at line granularity: consecutive
    instructions on the same line share one fetch access, the way a fetch
    buffer would.
    """
    hierarchy = CacheHierarchy(config)
    n = len(trace_arrays["pc"])
    dlevel = np.full(n, SERVICE_NONE, dtype=np.int8)
    ilevel = np.zeros(n, dtype=np.int8)
    if n == 0:
        return HierarchySimResult(dlevel, ilevel, hierarchy.stats(), 0)

    line_bits = hierarchy.line_bits
    kinds = trace_arrays["kind"]
    addrs = trace_arrays["addr"]

    # --- data path -----------------------------------------------------
    mem_mask = (kinds == int(InstrKind.LOAD)) | \
               (kinds == int(InstrKind.STORE))
    mem_idx = np.nonzero(mem_mask)[0]
    if len(mem_idx):
        mem_lines = (addrs[mem_idx] >> line_bits).tolist()
        mem_writes = (kinds[mem_idx] == int(InstrKind.STORE)).tolist()
        access = hierarchy.data_access
        results = [access(line, write)
                   for line, write in zip(mem_lines, mem_writes)]
        dlevel[mem_idx] = results

    # --- instruction fetch path -----------------------------------------
    pc_lines = trace_arrays["pc"] >> line_bits
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(pc_lines[1:], pc_lines[:-1], out=change[1:])
    fetch_idx = np.nonzero(change)[0]
    fetch_lines = pc_lines[fetch_idx].tolist()
    fetch = hierarchy.fetch_access
    ilevel[fetch_idx] = [fetch(line) for line in fetch_lines]

    stats = hierarchy.stats()
    mem_lines_moved = (stats["L3"].misses + stats["L3"].writebacks)
    return HierarchySimResult(dlevel, ilevel, stats, mem_lines_moved)


# ----------------------------------------------------------------------
# Vectorized engine
# ----------------------------------------------------------------------

#: An adaptive level falls back to a scalar walk over collapsed run
#: heads when a stream offers fewer concurrently-processable sets than
#: this (breakeven between the fixed NumPy cost per wave and ~1 us per
#: scalar access).
_MIN_PARALLELISM = 12


@dataclass
class _Runs:
    """Collapsed access runs scheduled into set-parallel waves.

    Arrays are in wave-major order: ``wave_sizes[k]`` consecutive
    entries form wave ``k``, and within a wave every run targets a
    distinct set.
    """

    set: np.ndarray
    tag: np.ndarray
    write: np.ndarray
    orig: np.ndarray     # original index of each run's head access
    wave_sizes: np.ndarray
    nruns: int

    @property
    def parallelism(self) -> float:
        """Mean number of distinct sets available per wave."""
        return self.nruns / max(len(self.wave_sizes), 1)


class _VecLevel:
    """One cache level processed in set-parallel waves.

    State lives in flat ``num_sets * ways`` arrays: the resident tag,
    a recency stamp (-1 = empty way; larger = more recently used), and
    a dirty bit per way. Because LRU order only compares stamps within
    one set, a single monotonically increasing wave clock serves every
    set. Exactly equivalent to :class:`_Level` fed the same stream.
    """

    __slots__ = ("config", "stats", "num_sets", "set_mask", "ways",
                 "adaptive", "_tags", "_stamps", "_dirty", "_clock",
                 "_mode", "_slists", "_sdirty")

    def __init__(self, config: CacheConfig, adaptive: bool) -> None:
        self.config = config
        self.stats = CacheStats(config.name)
        self.num_sets = config.num_sets
        self.set_mask = self.num_sets - 1
        self.ways = config.ways
        self.adaptive = adaptive
        self._tags: np.ndarray | None = None
        self._stamps: np.ndarray | None = None
        self._dirty: np.ndarray | None = None
        self._clock = 1
        #: "vector" or "scalar"; chosen on the first non-empty stream
        #: and sticky afterwards (the two representations differ).
        self._mode: str | None = None
        self._slists: list[list[int]] | None = None
        self._sdirty: set[tuple[int, int]] | None = None

    # -- preprocessing --------------------------------------------------

    def _prepare(self, lines: np.ndarray, writes: np.ndarray):
        """Sort into per-set runs and schedule them into waves."""
        # Stage 1: collapse temporally-consecutive same-line accesses
        # (interpreter stack traffic) before paying for the sort.
        n = len(lines)
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        k_idx = np.nonzero(keep)[0]
        any_writes = bool(writes.any())
        if len(k_idx) != n:
            lines = lines[k_idx]
            if any_writes:
                writes = np.logical_or.reduceat(writes, k_idx)
        m = len(lines)
        # Stage 2: sort by set; collapse runs of consecutive same-tag
        # accesses within a set. Only each run's head touches LRU
        # state; the tail accesses are guaranteed hits that merely OR
        # their write bit into dirty. 16-bit sort keys take NumPy's
        # radix path, ~5x faster than the 32-bit merge sort.
        set_dtype = np.uint16 if self.num_sets <= 65536 else np.int32
        sets = (lines & self.set_mask).astype(set_dtype)
        order = np.argsort(sets, kind="stable")
        s_sets = sets[order]
        s_tags = lines[order]  # the line is its own tag, as in _Level
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.logical_or(s_sets[1:] != s_sets[:-1],
                      s_tags[1:] != s_tags[:-1], out=head[1:])
        run_start = np.nonzero(head)[0]
        if any_writes:
            run_write = np.logical_or.reduceat(writes[order], run_start)
        else:
            run_write = np.zeros(len(run_start), dtype=bool)
        run_set = s_sets[run_start]
        run_tag = s_tags[run_start]
        run_orig = k_idx[order[run_start]]
        nruns = len(run_start)
        # Wave id = occurrence rank of the run within its set.
        idx = np.arange(nruns)
        set_head = np.empty(nruns, dtype=bool)
        set_head[0] = True
        np.not_equal(run_set[1:], run_set[:-1], out=set_head[1:])
        starts = idx[set_head]
        counts = np.diff(np.append(starts, nruns))
        rank = (idx - np.repeat(starts, counts)).astype(np.int32)
        worder = np.argsort(rank, kind="stable")
        wave_sizes = np.bincount(rank)
        return _Runs(run_set[worder], run_tag[worder], run_write[worder],
                     run_orig[worder], wave_sizes, nruns)

    # -- engines --------------------------------------------------------

    def _run_scalar(self, rsets: np.ndarray, rtags: np.ndarray,
                    rwrites: np.ndarray) -> np.ndarray:
        """MRU-list walk over run heads; same algorithm as _Level."""
        if self._slists is None:
            self._slists = [[] for _ in range(self.num_sets)]
            self._sdirty = set()
        slists, dirty, capacity = self._slists, self._sdirty, self.ways
        misses = evictions = writebacks = 0
        out = np.empty(len(rsets), dtype=bool)
        i = 0
        for set_idx, tag, write in zip(rsets.tolist(), rtags.tolist(),
                                       rwrites.tolist()):
            ways = slists[set_idx]
            try:
                pos = ways.index(tag)
            except ValueError:
                misses += 1
                ways.insert(0, tag)
                if len(ways) > capacity:
                    victim = ways.pop()
                    evictions += 1
                    key = (set_idx, victim)
                    if key in dirty:
                        dirty.discard(key)
                        writebacks += 1
                if write:
                    dirty.add((set_idx, tag))
                out[i] = False
            else:
                if pos:
                    ways.insert(0, ways.pop(pos))
                if write:
                    dirty.add((set_idx, tag))
                out[i] = True
            i += 1
        stats = self.stats
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return out

    def _run_waves(self, w_set, w_tag, w_write, wave_sizes) -> np.ndarray:
        ways = self.ways
        if self._tags is None:
            size = self.num_sets * ways
            self._tags = np.full(size, -1, dtype=np.int64)
            self._stamps = np.full(size, -1, dtype=np.int64)
            self._dirty = np.zeros(size, dtype=bool)
        tagf, stampf, dirtyf = self._tags, self._stamps, self._dirty
        arange_ways = np.arange(ways)
        hits_out = np.empty(len(w_set), dtype=bool)
        misses = evictions = writebacks = 0
        clock = self._clock
        pos = 0
        for size in wave_sizes.tolist():
            end = pos + size
            st = w_set[pos:end]
            tg = w_tag[pos:end]
            wr = w_write[pos:end]
            base = st.astype(np.int64) * ways
            rows = base[:, None] + arange_ways
            row_tags = tagf.take(rows)
            row_stamps = stampf.take(rows)
            eq = row_tags == tg[:, None]
            eq &= row_stamps >= 0
            hit = eq.any(axis=1)
            way = np.where(hit, eq.argmax(axis=1),
                           row_stamps.argmin(axis=1))
            flat = base + way
            victim_stamp = stampf.take(flat)
            old_dirty = dirtyf.take(flat)
            evict = ~hit
            evict &= victim_stamp >= 0
            wb = evict & old_dirty
            misses += size - int(np.count_nonzero(hit))
            evictions += int(np.count_nonzero(evict))
            writebacks += int(np.count_nonzero(wb))
            tagf[flat] = tg
            stampf[flat] = clock
            dirtyf[flat] = (hit & old_dirty) | wr
            hits_out[pos:end] = hit
            pos = end
            clock += 1
        self._clock = clock
        stats = self.stats
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return hits_out

    def access_many(self, lines: np.ndarray, writes: np.ndarray,
                    ) -> np.ndarray:
        """Process a stream of line accesses; returns per-access hits."""
        n = len(lines)
        if n == 0:
            return np.zeros(0, dtype=bool)
        runs = self._prepare(lines, writes)
        self.stats.accesses += n
        if self._mode is None:
            low = (self.num_sets < _MIN_PARALLELISM
                   or runs.parallelism < _MIN_PARALLELISM)
            self._mode = "scalar" if self.adaptive and low else "vector"
        if self._mode == "scalar":
            # Hot-set streams offer too few concurrent sets for waves to
            # pay off; walk just the collapsed run heads scalar instead.
            torder = np.argsort(runs.orig)
            head_idx = runs.orig[torder]
            head_hits = self._run_scalar(runs.set[torder],
                                         runs.tag[torder],
                                         runs.write[torder])
        else:
            head_idx = runs.orig
            head_hits = self._run_waves(runs.set, runs.tag, runs.write,
                                        runs.wave_sizes)
        hits = np.ones(n, dtype=bool)  # collapsed tail accesses all hit
        hits[head_idx] = head_hits
        return hits


def simulate_cache_hierarchy_vectorized(
        trace_arrays: dict[str, np.ndarray], config: MachineConfig,
        adaptive: bool = True) -> HierarchySimResult:
    """Batched engine; bit-identical outputs to the scalar reference.

    ``adaptive=False`` makes every level run waves whatever its set
    parallelism, which tests use to check the wave engine on its own.
    The phase order matches the scalar engine exactly: the whole data
    path is simulated first, then the instruction-fetch path, so the
    shared L2/L3 levels observe the same access sequence.
    """
    n = len(trace_arrays["pc"])
    dlevel = np.full(n, SERVICE_NONE, dtype=np.int8)
    ilevel = np.zeros(n, dtype=np.int8)
    l1i = _VecLevel(config.l1i, adaptive)
    l1d = _VecLevel(config.l1d, adaptive)
    l2 = _VecLevel(config.l2, adaptive)
    l3 = _VecLevel(config.l3, adaptive)
    stats = {"L1I": l1i.stats, "L1D": l1d.stats,
             "L2": l2.stats, "L3": l3.stats}
    if n == 0:
        return HierarchySimResult(dlevel, ilevel, stats, 0)
    line_bits = config.l1d.line_size.bit_length() - 1
    kinds = trace_arrays["kind"]
    addrs = trace_arrays["addr"]

    def walk(first: _VecLevel, lines: np.ndarray, writes: np.ndarray,
             out: np.ndarray, out_idx: np.ndarray) -> None:
        """Send a stream through ``first`` -> L2 -> L3, filling ``out``."""
        levels = ((first, SERVICE_L1), (l2, SERVICE_L2), (l3, SERVICE_L3))
        idx = out_idx
        for level, service in levels:
            hits = level.access_many(lines, writes)
            out[idx[hits]] = service
            miss = ~hits
            idx = idx[miss]
            lines = lines[miss]
            writes = writes[miss]
        out[idx] = SERVICE_MEM

    # --- data path -----------------------------------------------------
    mem_mask = (kinds == int(InstrKind.LOAD)) | \
               (kinds == int(InstrKind.STORE))
    mem_idx = np.nonzero(mem_mask)[0]
    if len(mem_idx):
        mem_lines = addrs[mem_idx] >> line_bits
        mem_writes = kinds[mem_idx] == int(InstrKind.STORE)
        walk(l1d, mem_lines, mem_writes, dlevel, mem_idx)

    # --- instruction fetch path ----------------------------------------
    pc_lines = trace_arrays["pc"] >> line_bits
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(pc_lines[1:], pc_lines[:-1], out=change[1:])
    fetch_idx = np.nonzero(change)[0]
    walk(l1i, pc_lines[fetch_idx], np.zeros(len(fetch_idx), dtype=bool),
         ilevel, fetch_idx)

    mem_lines_moved = stats["L3"].misses + stats["L3"].writebacks
    return HierarchySimResult(dlevel, ilevel, stats, mem_lines_moved)


def simulate_cache_hierarchy(trace_arrays: dict[str, np.ndarray],
                             config: MachineConfig) -> HierarchySimResult:
    """Run the whole trace through a fresh cache hierarchy.

    Each level runs waves or the run-head walk, whichever its stream's
    set parallelism pays for; the result is bit-identical to
    :func:`simulate_cache_hierarchy_scalar`.
    """
    return simulate_cache_hierarchy_vectorized(trace_arrays, config)
