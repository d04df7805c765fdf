"""Simple and OOO core timing models."""

import numpy as np

from conftest import interpreter_like_trace, traced_peak

from repro.categories import OverheadCategory as C
from repro.config import skylake_config
from repro.host import AddressSpace, HostMachine
from repro.uarch.branch import simulate_branches
from repro.uarch.cache import SCALAR_CHUNK_ROWS, simulate_cache_hierarchy
from repro.uarch.ooo_core import ooo_cycles, ooo_cycles_scalar
from repro.uarch.simple_core import simple_core_cycles
from repro.uarch.system import SimulatedSystem


def build_machine(n_ops=2000, serial=True, loads=False):
    m = HostMachine(AddressSpace())
    site = m.site("kernel")
    for i in range(n_ops):
        if loads and i % 4 == 0:
            m.load(site, int(C.EXECUTE), addr=0x2000_0000 + 64 * i,
                   dep=1 if serial else 0)
        else:
            m.alu(site, int(C.EXECUTE), dep=1 if serial else 0)
    return m


def test_simple_core_one_cycle_per_hit():
    m = build_machine(100)
    config = skylake_config()
    result = simulate_cache_hierarchy(m.trace.arrays(), config)
    cycles = simple_core_cycles(result.dlevel, result.ilevel, config)
    # ALU instructions on warm I-cache lines cost exactly one cycle.
    assert cycles[50] == 1.0


def test_simple_core_adds_miss_penalties():
    m = build_machine(400, loads=True)
    config = skylake_config()
    result = simulate_cache_hierarchy(m.trace.arrays(), config)
    cycles = simple_core_cycles(result.dlevel, result.ilevel, config)
    # Cold streaming loads pay the full memory penalty. (Median, not all:
    # the very first instruction also pays an instruction-fetch miss.)
    load_cycles = cycles[result.dlevel == 3]
    expected = 1 + config.l2.latency + config.l3.latency \
        + config.memory.latency
    assert np.median(load_cycles) == expected


def _run_ooo(machine, config):
    arrays = machine.trace.arrays()
    cache = simulate_cache_hierarchy(arrays, config)
    mispredicted = np.zeros(len(arrays["pc"]), dtype=bool)
    return ooo_cycles(arrays, cache.dlevel, cache.ilevel, mispredicted,
                      config)


def test_serial_chain_is_issue_insensitive():
    m = build_machine(3000, serial=True)
    narrow = _run_ooo(m, skylake_config().with_issue_width(2))
    wide = _run_ooo(m, skylake_config().with_issue_width(16))
    # A dep-1 chain executes one op per cycle regardless of width.
    assert abs(narrow - wide) / narrow < 0.02


def test_independent_stream_scales_with_width():
    m = build_machine(3000, serial=False)
    narrow = _run_ooo(m, skylake_config().with_issue_width(2))
    wide = _run_ooo(m, skylake_config().with_issue_width(8))
    # Width 8 is fetch-limited at 4 instructions/cycle (16B fetch), so
    # the best case over width 2 is ~2x.
    assert wide < narrow * 0.6


def test_memory_latency_hurts_dependent_loads():
    m = build_machine(2000, serial=True, loads=True)
    fast = _run_ooo(m, skylake_config().with_memory_latency(50))
    slow = _run_ooo(m, skylake_config().with_memory_latency(400))
    assert slow > fast * 1.5


def test_bandwidth_throttles_streams():
    m = HostMachine(AddressSpace())
    site = m.site("stream")
    for i in range(4000):
        m.store(site, int(C.EXECUTE), addr=0x2000_0000 + 64 * i, dep=0)
    fat = _run_ooo(m, skylake_config().with_memory_bandwidth(25600))
    thin = _run_ooo(m, skylake_config().with_memory_bandwidth(200))
    assert thin > fat * 2


def test_mispredicts_add_cycles():
    m = build_machine(2000)
    config = skylake_config()
    arrays = m.trace.arrays()
    cache = simulate_cache_hierarchy(arrays, config)
    none = np.zeros(len(arrays["pc"]), dtype=bool)
    some = none.copy()
    some[::10] = True
    clean = ooo_cycles(arrays, cache.dlevel, cache.ilevel, none, config)
    dirty = ooo_cycles(arrays, cache.dlevel, cache.ilevel, some, config)
    assert dirty > clean


def test_system_run_both_cores():
    m = build_machine(500, loads=True)
    system = SimulatedSystem()
    simple = system.run(m.trace, core="simple")
    ooo = system.run(m.trace, core="ooo")
    assert simple.cpi > 0
    assert ooo.cpi > 0
    assert simple.core_model == "simple"
    assert ooo.core_model == "ooo"
    # The simple core never reorders, so it is at least as slow.
    assert simple.cycles >= ooo.cycles * 0.9


def test_empty_trace():
    m = HostMachine(AddressSpace())
    system = SimulatedSystem()
    result = system.run(m.trace, core="ooo")
    assert result.cycles == 0.0
    assert result.cpi == 0.0


def test_scalar_walk_allocates_a_bounded_chunk():
    """The scalar OOO oracle turns one chunk of rows at a time into
    Python lists: on a four-chunk trace it allocates at most 48 B per
    chunk row (five lists of 8 B pointers, and its finish ring), however
    long the trace. Whole-column lists took over 50 B per trace row.
    The walk allocates a Python int per row, which tracemalloc makes
    slow, so the trace is four chunks long, not 1M rows."""
    rows = 4 * SCALAR_CHUNK_ROWS
    trace = interpreter_like_trace(rows)
    trace["dep"][1::3] = 1
    trace["dep"][2::5] = 7
    config = skylake_config()
    memory = simulate_cache_hierarchy(trace, config)
    mispredicted, _ = simulate_branches(trace, config.branch)
    cycles, peak = traced_peak(lambda: ooo_cycles_scalar(
        trace, memory.dlevel, memory.ilevel, mispredicted, config))
    assert cycles * 4 >= rows
    assert peak <= 48 * SCALAR_CHUNK_ROWS, peak / SCALAR_CHUNK_ROWS
