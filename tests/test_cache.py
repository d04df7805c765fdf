"""Cache hierarchy: LRU behavior, service levels, miss accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CACHE_ENGINES, interpreter_like_trace, traced_peak

from repro.config import CacheConfig, MachineConfig, skylake_config
from repro.host.isa import InstrKind
from repro.uarch.cache import (
    SERVICE_L1,
    SERVICE_L2,
    SERVICE_L3,
    SERVICE_MEM,
    SERVICE_NONE,
    CacheHierarchy,
    _Level,
    simulate_cache_hierarchy,
    simulate_cache_hierarchy_scalar,
)


def small_level(size=1024, ways=2, line=64):
    return _Level(CacheConfig("t", size=size, ways=ways, line_size=line))


def test_cold_miss_then_hit():
    level = small_level()
    assert level.access(5, False) is False
    assert level.access(5, False) is True
    assert level.stats.accesses == 2
    assert level.stats.misses == 1


def test_lru_eviction_order():
    # 2-way set: third distinct line in one set evicts the least recent.
    level = small_level(size=1024, ways=2, line=64)  # 8 sets
    a, b, c = 0, 8, 16  # all map to set 0
    level.access(a, False)
    level.access(b, False)
    level.access(a, False)         # a is now MRU
    level.access(c, False)         # evicts b
    assert level.access(a, False) is True
    assert level.access(b, False) is False


def test_dirty_eviction_counts_writeback():
    level = small_level(size=1024, ways=2, line=64)
    level.access(0, True)          # dirty
    level.access(8, False)
    level.access(16, False)        # evicts line 0 (dirty)
    assert level.stats.writebacks == 1


def test_hierarchy_service_levels():
    hierarchy = CacheHierarchy(skylake_config())
    line = 0x1234
    assert hierarchy.data_access(line, False) == SERVICE_MEM
    assert hierarchy.data_access(line, False) == SERVICE_L1
    # Touch enough lines to push it out of L1 but not out of L2.
    l1_lines = hierarchy.l1d.config.size // 64
    for i in range(l1_lines * 2):
        hierarchy.data_access(0x100000 + i, False)
    assert hierarchy.data_access(line, False) in (SERVICE_L2, SERVICE_L3)


def make_mem_trace(addrs, write=False):
    arrays = {
        "pc": np.arange(len(addrs), dtype=np.int64) * 4 + 0x400000,
        "kind": np.full(len(addrs),
                        int(InstrKind.STORE if write else InstrKind.LOAD),
                        dtype=np.int8),
        "addr": np.array(addrs, dtype=np.int64),
    }
    return arrays


@pytest.mark.parametrize("engine", sorted(CACHE_ENGINES))
def test_one_set_level_keeps_adjacent_lines_apart(engine):
    """With one set every line shares set 0, so the tag alone tells
    lines apart: loading line 2 must not make line 3 a hit."""
    one_set = CacheConfig("L1D", size=512, ways=8, line_size=64)
    assert one_set.num_sets == 1
    result = CACHE_ENGINES[engine](make_mem_trace([2 * 64, 3 * 64]),
                                   MachineConfig(l1d=one_set))
    assert result.dlevel.tolist() == [SERVICE_MEM, SERVICE_MEM]
    assert result.stats["L1D"].misses == 2


def test_simulate_assigns_dlevel_only_to_memory_ops():
    arrays = {
        "pc": np.array([0x400000, 0x400004], dtype=np.int64),
        "kind": np.array([int(InstrKind.ALU), int(InstrKind.LOAD)],
                         dtype=np.int8),
        "addr": np.array([0, 0x10000], dtype=np.int64),
    }
    result = simulate_cache_hierarchy(arrays, skylake_config())
    assert result.dlevel[0] == SERVICE_NONE
    assert result.dlevel[1] == SERVICE_MEM


def test_working_set_that_fits_hits():
    # Repeatedly touching 128 lines (8 kB) must be nearly all L1 hits.
    addrs = [0x100000 + 64 * (i % 128) for i in range(2048)]
    result = simulate_cache_hierarchy(make_mem_trace(addrs),
                                      skylake_config())
    hits = (result.dlevel == SERVICE_L1).sum()
    assert hits >= 2048 - 128


def test_streaming_misses_when_larger_than_llc():
    config = skylake_config().with_llc_size(256 * 1024)
    # Stream 4 MB twice: the second pass must still miss the 256 kB LLC.
    lines = (4 * 1024 * 1024) // 64
    addrs = [0x2000_0000 + 64 * i for i in range(lines)] * 2
    result = simulate_cache_hierarchy(make_mem_trace(addrs), config)
    assert result.stats["L3"].miss_rate > 0.9


def test_instruction_fetch_line_sharing():
    # 16 sequential PCs on one line cost a single I-cache access.
    arrays = {
        "pc": np.arange(16, dtype=np.int64) * 4 + 0x400000,
        "kind": np.full(16, int(InstrKind.ALU), dtype=np.int8),
        "addr": np.zeros(16, dtype=np.int64),
    }
    result = simulate_cache_hierarchy(arrays, skylake_config())
    assert result.stats["L1I"].accesses == 1


def test_larger_llc_reduces_misses():
    lines = (1024 * 1024) // 64
    addrs = [0x2000_0000 + 64 * i for i in range(lines)] * 3
    small = simulate_cache_hierarchy(
        make_mem_trace(addrs), skylake_config().with_llc_size(256 * 1024))
    big = simulate_cache_hierarchy(
        make_mem_trace(addrs), skylake_config().with_llc_size(4 * 1024 * 1024))
    assert big.stats["L3"].misses < small.stats["L3"].misses


def test_larger_lines_help_sequential_streams():
    addrs = [0x3000_0000 + 64 * i for i in range(4096)]
    base = simulate_cache_hierarchy(make_mem_trace(addrs),
                                    skylake_config())
    wide = simulate_cache_hierarchy(make_mem_trace(addrs),
                                    skylake_config().with_line_size(256))
    assert wide.stats["L1D"].misses < base.stats["L1D"].misses


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_miss_invariants(line_ids):
    level = small_level(size=2048, ways=4, line=64)
    for line in line_ids:
        level.access(line, False)
    stats = level.stats
    assert 0 <= stats.misses <= stats.accesses
    assert stats.misses >= len(set(line_ids)) - level.config.num_sets \
        * level.ways
    # Evictions can never exceed fills (= misses).
    assert stats.evictions <= stats.misses


def test_scalar_walk_allocates_a_bounded_chunk():
    """The scalar oracle turns one chunk of rows at a time into Python
    lists: on a 1M-row trace it allocates at most 24 B/row, its two int8
    outputs included, where whole-column lists took over 40 B/row."""
    rows = 1 << 20
    trace = interpreter_like_trace(rows)
    result, peak = traced_peak(
        lambda: simulate_cache_hierarchy_scalar(trace, skylake_config()))
    assert result.stats["L1D"].accesses > rows // 4
    assert peak / rows <= 24.0, peak / rows
