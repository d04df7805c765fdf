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

The hierarchy has two engines, both walking one access at a time in
program order, the whole data path first and then the instruction-fetch
path:

* the **scalar** engine feeds MRU-ordered tag lists
  (:func:`simulate_cache_hierarchy_scalar`, the reference and test
  oracle), and
* the **compiled** walk in :mod:`~repro.uarch._ooo_kernel` keeps flat
  per-level tag, recency-stamp and dirty arrays in C. Besides its two
  int8 outputs it allocates only those tables.

:func:`simulate_cache_hierarchy` runs the compiled walk when a C
compiler built it and the scalar engine otherwise; both produce
bit-identical service levels and :class:`CacheStats`, which
``tests/test_vectorized_equivalence.py`` enforces on randomized traces.
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

#: Rows the scalar engines (here and in :mod:`.branch`) turn into Python
#: lists at a time, so the lists stay a few MB however long the trace.
SCALAR_CHUNK_ROWS = 1 << 16


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
    buffer would. Both paths walk the trace in chunks of
    :data:`SCALAR_CHUNK_ROWS` rows, so no list spans the whole trace.
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
    pcs = trace_arrays["pc"]
    chunks = range(0, n, SCALAR_CHUNK_ROWS)

    # --- data path -----------------------------------------------------
    access = hierarchy.data_access
    for start in chunks:
        stop = start + SCALAR_CHUNK_ROWS
        chunk_kinds = kinds[start:stop]
        writes = chunk_kinds == int(InstrKind.STORE)
        rows = np.flatnonzero(writes | (chunk_kinds == int(InstrKind.LOAD)))
        if not len(rows):
            continue
        lines = (addrs[start:stop][rows] >> line_bits).tolist()
        dlevel[start + rows] = [
            access(line, write)
            for line, write in zip(lines, writes[rows].tolist())]

    # --- instruction fetch path -----------------------------------------
    fetch = hierarchy.fetch_access
    previous = None  # the line of the row before the chunk
    for start in chunks:
        pc_lines = pcs[start:start + SCALAR_CHUNK_ROWS] >> line_bits
        change = np.empty(len(pc_lines), dtype=bool)
        change[0] = previous is None or pc_lines[0] != previous
        np.not_equal(pc_lines[1:], pc_lines[:-1], out=change[1:])
        previous = pc_lines[-1]
        rows = np.flatnonzero(change)
        ilevel[start + rows] = [fetch(line)
                                for line in pc_lines[rows].tolist()]

    stats = hierarchy.stats()
    mem_lines_moved = (stats["L3"].misses + stats["L3"].writebacks)
    return HierarchySimResult(dlevel, ilevel, stats, mem_lines_moved)


def simulate_cache_hierarchy(trace_arrays: dict[str, np.ndarray],
                             config: MachineConfig) -> HierarchySimResult:
    """Run the whole trace through a fresh cache hierarchy.

    The compiled walk runs when one was built, else
    :func:`simulate_cache_hierarchy_scalar`; both are bit-identical.
    """
    from . import _ooo_kernel
    if not _ooo_kernel.kernel_available():
        return simulate_cache_hierarchy_scalar(trace_arrays, config)
    levels = (config.l1i, config.l1d, config.l2, config.l3)
    dlevel, ilevel, counts = _ooo_kernel.cache_walk(
        trace_arrays["pc"], trace_arrays["kind"], trace_arrays["addr"],
        config.l1d.line_size.bit_length() - 1,
        [value for level in levels
         for value in (level.num_sets, level.ways)])
    stats = {name: CacheStats(level.name, *counts[4 * j:4 * j + 4])
             for j, (name, level)
             in enumerate(zip(("L1I", "L1D", "L2", "L3"), levels))}
    mem_lines = stats["L3"].misses + stats["L3"].writebacks
    return HierarchySimResult(dlevel, ilevel, stats, mem_lines)
