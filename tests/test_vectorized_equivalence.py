"""Compiled walks must match the scalar references bit for bit.

Property-style checks: randomized traces (hot/cold address mixes,
conditional/indirect branch patterns, dependence forests with long
edges) run through both the scalar oracles and the compiled walks of
the cache hierarchy, the branch predictor and the OOO core, and
every output the rest of the pipeline consumes — per-instruction
service levels, mispredict flags, aggregate statistics, core cycle
counts — must be bit-identical for single- and batched-config walks
alike. Every engine also faces invariants that need no reference:
LRU inclusion and access conservation for the caches, mispredicts only
on predicted branches, and front-end, dependence and mispredict bounds
for the OOO core.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import BRANCH_ENGINES, CACHE_ENGINES

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    MachineConfig,
    scaled_config,
    skylake_config,
)
from repro.host.isa import (
    FLAG_COND,
    FLAG_INDIRECT,
    FLAG_TAKEN,
    KIND_LATENCY,
    InstrKind,
)
from repro.uarch import _ooo_kernel
from repro.uarch.branch import simulate_branches, simulate_branches_scalar
from repro.uarch.cache import (
    SCALAR_CHUNK_ROWS,
    SERVICE_L1,
    SERVICE_L3,
    simulate_cache_hierarchy,
    simulate_cache_hierarchy_scalar,
)
from repro.errors import ReproError
from repro.uarch.ooo_core import (
    KIND_LATENCY_TICKS,
    MSHRS,
    TICKS,
    front_interval_ticks,
    ooo_cycles,
    ooo_cycles_many,
    ooo_cycles_scalar,
    ring_size,
)

_KINDS = (InstrKind.ALU, InstrKind.LOAD, InstrKind.STORE,
          InstrKind.BRANCH, InstrKind.ICALL, InstrKind.CALL,
          InstrKind.RET, InstrKind.FPU)
_KIND_P = (0.30, 0.25, 0.10, 0.20, 0.05, 0.04, 0.04, 0.02)


def random_trace(seed: int, n: int) -> dict[str, np.ndarray]:
    """A trace with hot and cold addresses and mixed branch behavior."""
    rng = np.random.default_rng(seed)
    kind = rng.choice([int(k) for k in _KINDS], size=n,
                      p=_KIND_P).astype(np.int8)
    # PCs: a small pool so branch sites repeat and predictors can learn,
    # with enough spread to alias on scaled-down tables.
    pc = (0x400000 + 4 * rng.integers(0, 512, size=n)).astype(np.int64)
    # Data addresses: 70% from a hot working set, 30% cold.
    hot = 0x10000 + 64 * rng.integers(0, 64, size=n)
    cold = 0x800000 + 64 * rng.integers(0, 1 << 16, size=n)
    use_hot = rng.random(n) < 0.7
    addr = np.where(use_hot, hot, cold).astype(np.int64)
    is_mem = (kind == int(InstrKind.LOAD)) | (kind == int(InstrKind.STORE))
    addr[~is_mem] = 0
    flags = np.zeros(n, dtype=np.int8)
    is_branch = kind == int(InstrKind.BRANCH)
    cond = is_branch & (rng.random(n) < 0.8)
    # Taken bias per PC: some sites strongly biased, some noisy.
    bias = rng.random(512)[((pc - 0x400000) // 4) % 512]
    taken = rng.random(n) < bias
    flags[cond] |= FLAG_COND
    flags[is_branch & taken] |= FLAG_TAKEN
    is_icall = kind == int(InstrKind.ICALL)
    flags[is_icall] |= FLAG_INDIRECT | FLAG_TAKEN
    # Indirect-call targets: mono- and polymorphic sites.
    addr[is_icall] = (0x500000
                      + 0x1000 * rng.integers(0, 3, size=int(is_icall.sum())))
    return {"pc": pc, "kind": kind, "addr": addr, "flags": flags,
            "size": np.full(n, 8, dtype=np.int8)}


def tiny_config() -> MachineConfig:
    """A deliberately cramped machine: constant evictions and aliasing."""
    return scaled_config(6)


_CONFIGS = {
    "skylake": skylake_config,
    "scaled4": lambda: scaled_config(4),
    "scaled5": lambda: scaled_config(5),
    "tiny": tiny_config,
}


def _assert_same_cache_result(ref, out) -> None:
    assert np.array_equal(ref.dlevel, out.dlevel)
    assert np.array_equal(ref.ilevel, out.ilevel)
    assert ref.mem_lines == out.mem_lines
    assert set(ref.stats) == set(out.stats)
    for name in ref.stats:
        assert ref.stats[name] == out.stats[name], name


@pytest.mark.parametrize("engine", ["vector", "auto"])
@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cache_engines_bit_identical(seed, config_name, engine):
    arrays = random_trace(seed, 6000)
    config = _CONFIGS[config_name]()
    _assert_same_cache_result(simulate_cache_hierarchy_scalar(arrays, config),
                              CACHE_ENGINES[engine](arrays, config))


@pytest.mark.parametrize("engine", ["vector", "auto"])
@pytest.mark.parametrize("scale", [1.0, 1 / 64, 0.5, 8.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_branch_engines_bit_identical(seed, scale, engine):
    arrays = random_trace(seed, 6000)
    config = BranchPredictorConfig(scale=scale)
    ref_mis, ref_stats = simulate_branches_scalar(arrays, config)
    out_mis, out_stats = BRANCH_ENGINES[engine](arrays, config)
    assert out_mis.dtype == np.bool_
    assert np.array_equal(ref_mis, out_mis)
    assert ref_stats == out_stats


def test_empty_trace_all_backends():
    arrays = random_trace(0, 0)
    config = skylake_config()
    for engine in ("scalar", "auto"):
        result = CACHE_ENGINES[engine](arrays, config)
        assert len(result.dlevel) == 0
        assert result.stats["L1D"].accesses == 0
        mis, _ = BRANCH_ENGINES[engine](arrays, config.branch)
        assert len(mis) == 0


# ----------------------------------------------------------------------
# Memory side: invariants that need no reference engine
# ----------------------------------------------------------------------

_ENGINES = ["scalar", "vector", "auto"]
_LOAD = int(InstrKind.LOAD)
_STORE = int(InstrKind.STORE)


def _level(name: str, sets: int, ways: int,
           latency: int = 4) -> CacheConfig:
    return CacheConfig(name, size=sets * ways * 64, ways=ways,
                       latency=latency)


def _memory_configs() -> list[MachineConfig]:
    """Generated geometries, from one set per level to many."""
    rng = np.random.default_rng(11)
    configs = [MachineConfig(l1i=_level("L1I", 1, 4),
                             l1d=_level("L1D", 1, 8),
                             l2=_level("L2", 1, 16),
                             l3=_level("L3", 1, 32))]
    for _ in range(5):
        sets = [int(1 << rng.integers(0, 8)) for _ in range(4)]
        ways = [int(rng.choice([1, 2, 4, 8])) for _ in range(4)]
        configs.append(MachineConfig(
            l1i=_level("L1I", sets[0], ways[0]),
            l1d=_level("L1D", sets[1], ways[1]),
            l2=_level("L2", sets[2], ways[2]),
            l3=_level("L3", sets[3], ways[3])))
    return configs


_MEMORY_INPUTS = [(seed, 1 + (seed * 1187) % 2000) for seed in range(4)]


@pytest.mark.parametrize("engine", ["vector", "auto"])
def test_cache_engines_bit_identical_on_generated_geometries(engine):
    """One set per level up to many, random ways: every level of every
    geometry equals the oracle, service levels stay int8."""
    for seed, n in _MEMORY_INPUTS:
        arrays = random_trace(seed, n)
        for config in _memory_configs():
            out = CACHE_ENGINES[engine](arrays, config)
            assert out.dlevel.dtype == out.ilevel.dtype == np.int8
            _assert_same_cache_result(
                simulate_cache_hierarchy_scalar(arrays, config), out)


@pytest.mark.parametrize("engine", ["vector", "auto"])
@pytest.mark.parametrize("config_name", ["skylake", "scaled5", "tiny"])
def test_store_only_stream_writes_back_dirty_lines(engine, config_name):
    """A stream of stores over more lines than L1D and L2 hold evicts
    dirty lines from both; the writebacks equal the oracle's."""
    rng = np.random.default_rng(7)
    n = 20_000
    arrays = random_trace(0, n)
    arrays["kind"] = np.full(n, _STORE, dtype=np.int8)
    arrays["addr"] = (0x800000 + 64 * rng.integers(0, 1 << 15, size=n)
                      ).astype(np.int64)
    config = _CONFIGS[config_name]()
    ref = simulate_cache_hierarchy_scalar(arrays, config)
    assert ref.stats["L1D"].writebacks > 0 and ref.stats["L2"].writebacks > 0
    _assert_same_cache_result(ref, CACHE_ENGINES[engine](arrays, config))


@pytest.mark.parametrize("engine", _ENGINES)
def test_more_ways_never_add_misses(engine):
    """Mattson inclusion: at a fixed set count, an LRU level with more
    ways hits on every access the smaller one hit on. L1D sees the data
    stream and L3 the L2 misses, neither of which its own ways change."""
    for seed, n in _MEMORY_INPUTS:
        arrays = random_trace(seed, n)
        for config in _memory_configs():
            for field, name, hit in (("l1d", "L1D", SERVICE_L1),
                                     ("l3", "L3", SERVICE_L3)):
                sets = getattr(config, field).num_sets
                previous = None
                for ways in (1, 2, 4, 16):
                    result = CACHE_ENGINES[engine](
                        arrays, dataclasses.replace(
                            config, **{field: _level(name, sets, ways)}))
                    if previous is not None:
                        assert result.stats[name].misses <= \
                            previous.stats[name].misses, (seed, ways)
                        for column in ("dlevel", "ilevel"):
                            was_hit = (getattr(previous, column) >= 0) \
                                & (getattr(previous, column) <= hit)
                            assert (getattr(result, column)[was_hit]
                                    <= hit).all(), (seed, name, ways)
                    previous = result


@pytest.mark.parametrize("engine", _ENGINES)
def test_cache_accesses_are_conserved_between_levels(engine):
    """Every miss is the next level's access, and the service levels
    count exactly the misses the statistics report."""
    for seed, n in _MEMORY_INPUTS:
        arrays = random_trace(seed, n)
        for config in _memory_configs():
            result = CACHE_ENGINES[engine](arrays, config)
            stats, dl, il = result.stats, result.dlevel, result.ilevel
            memory = np.isin(arrays["kind"], (_LOAD, _STORE))
            assert stats["L1D"].accesses == np.count_nonzero(memory)
            assert np.array_equal(dl >= 0, memory)
            assert stats["L1D"].misses == np.count_nonzero(dl >= 1)
            assert stats["L1I"].misses == np.count_nonzero(il >= 1)
            assert stats["L2"].accesses == \
                stats["L1I"].misses + stats["L1D"].misses
            assert stats["L2"].misses == \
                np.count_nonzero(dl >= 2) + np.count_nonzero(il >= 2)
            assert stats["L3"].accesses == stats["L2"].misses
            assert stats["L3"].misses == \
                np.count_nonzero(dl == 3) + np.count_nonzero(il == 3)


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("scale", [1.0, 1 / 64])
def test_mispredicts_fall_only_on_predicted_branches(engine, scale):
    """Only conditional and indirect branches can mispredict, and the
    flags add up to the statistics."""
    config = BranchPredictorConfig(scale=scale)
    for seed, n in _MEMORY_INPUTS:
        arrays = random_trace(seed, n)
        kind, flags = arrays["kind"], arrays["flags"]
        indirect = np.isin(kind, (int(InstrKind.ICALL),
                                  int(InstrKind.BRANCH))) \
            & ((flags & FLAG_INDIRECT) != 0)
        conditional = (kind == int(InstrKind.BRANCH)) \
            & ((flags & FLAG_COND) != 0) & ~indirect
        mispredicted, stats = BRANCH_ENGINES[engine](arrays, config)
        assert not mispredicted[~(conditional | indirect)].any()
        assert np.count_nonzero(mispredicted) == stats.total_mispredicts
        assert stats.conditional == np.count_nonzero(conditional)
        assert stats.indirect == np.count_nonzero(indirect)
        assert stats.conditional_mispredicts == \
            np.count_nonzero(mispredicted & conditional)


# ----------------------------------------------------------------------
# OOO core: scalar reference vs compiled kernel, plus invariants
# ----------------------------------------------------------------------

def random_ooo_inputs(seed: int, n: int, max_dep: int = 300):
    """Synthetic OOO-core inputs (dep forests, misses, mispredicts) in
    the dtypes a trace and a memory-side state store: int8 kinds and
    service levels, int32 deps and bool mispredict flags."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, len(InstrKind), n).astype(np.int8)
    dep = rng.integers(0, 4, n).astype(np.int32)
    big = rng.random(n) < 0.03
    dep[big] = rng.integers(1, max_dep, int(big.sum()))
    dl = np.where(rng.random(n) < 0.1,
                  rng.integers(0, 4, n), -1).astype(np.int8)
    kinds[dl >= 0] = _LOAD
    stores = rng.random(n) < 0.05
    kinds[stores] = _STORE
    dl[stores] = np.where(rng.random(int(stores.sum())) < 0.3, 3, 0)
    il = np.where(rng.random(n) < 0.05,
                  rng.integers(1, 4, n), 0).astype(np.int8)
    misp = rng.random(n) < 0.03
    trace = {"pc": np.arange(n, dtype=np.int64), "kind": kinds,
             "dep": dep}
    return trace, dl, il, misp


@dataclasses.dataclass
class _State:
    """The memory-side arrays ``ooo_cycles_many`` reads from a state."""

    dlevel: np.ndarray
    ilevel: np.ndarray
    mispredicted: np.ndarray


def _ooo_sweep_configs() -> list[MachineConfig]:
    base = skylake_config()
    small_rob = dataclasses.replace(
        base, core=dataclasses.replace(base.core, rob_entries=64))
    return [base, scaled_config(2), small_rob, base.with_issue_width(8),
            base.with_memory_latency(400),
            base.with_memory_bandwidth(200)]


def test_ooo_kernel_bit_identical():
    """Compiled kernel path == scalar loop (single and batched)."""
    if not _ooo_kernel.kernel_available():
        pytest.skip("no C compiler available")
    configs = _ooo_sweep_configs()
    for seed, n in ((0, 2500), (1, 5000)):
        trace, dl, il, misp = random_ooo_inputs(seed, n)
        state = _State(dl, il, misp)
        ref = [ooo_cycles_scalar(trace, dl, il, misp, c) for c in configs]
        got = ooo_cycles_many(trace, [state] * len(configs), configs)
        assert got == ref
        one = [ooo_cycles(trace, dl, il, misp, c) for c in configs]
        assert one == ref


def _edge_ooo_inputs(case: str):
    """Inputs at the edges of the kernel's rings and guards."""
    if case == "dep_one_at_row_zero":
        # Row 0 has no producer: a dep of 1 there must be ignored.
        trace, dl, il, misp = random_ooo_inputs(7, 600)
        trace["dep"][0] = 1
        trace["dep"][1] = 2
        return trace, dl, il, misp
    if case == "deps_past_the_ring":
        # Chains of dep == 1 broken by producers 4096 and more rows
        # back, past the ring's 4096-slot floor.
        n = 12_000
        trace, dl, il, misp = random_ooo_inputs(8, n)
        dep = np.ones(n, dtype=np.int32)
        far = np.arange(4096, n, 61)
        dep[far] = np.random.default_rng(8).integers(4096, far + 1)
        dep[[4096, 4097, n - 1]] = (4096, 4097, n - 1)
        trace["dep"] = dep
        return trace, dl, il, misp
    if case == "more_misses_than_mshrs":
        # Runs of 3 * MSHRS loads and stores that miss to memory in a
        # row, some independent and some chained.
        trace, dl, il, misp = random_ooo_inputs(9, 3000)
        for begin in (100, 1000, 2000):
            rows = slice(begin, begin + 3 * MSHRS)
            trace["kind"][rows] = _LOAD
            trace["kind"][begin + 1:begin + 3 * MSHRS:3] = _STORE
            dl[rows] = 3
            trace["dep"][rows] = 0 if begin < 2000 else 1
        return trace, dl, il, misp
    if case == "across_scalar_chunks":
        # The scalar oracle's chunk boundary, with deps, misses and a
        # mispredict reaching across it.
        n = SCALAR_CHUNK_ROWS + 3000
        trace, dl, il, misp = random_ooo_inputs(10, n)
        edge = slice(SCALAR_CHUNK_ROWS - 40, SCALAR_CHUNK_ROWS + 40)
        trace["kind"][edge] = _LOAD
        dl[edge] = 3
        trace["dep"][edge] = 5
        misp[SCALAR_CHUNK_ROWS - 1] = True
        return trace, dl, il, misp
    raise ValueError(case)


_EDGE_CASES = ["dep_one_at_row_zero", "deps_past_the_ring",
               "more_misses_than_mshrs", "across_scalar_chunks"]


@pytest.mark.parametrize("case", _EDGE_CASES)
def test_ooo_kernel_bit_identical_at_the_edges(case):
    """Kernel == scalar where a ring, a guard or a chunk decides: a dep
    that points before row 0, producers past the ring's floor, more
    misses in a row than there are MSHRs (each of which waits for the
    miss MSHRS before it), and the scalar oracle's chunk boundary."""
    if not _ooo_kernel.kernel_available():
        pytest.skip("no C compiler available")
    trace, dl, il, misp = _edge_ooo_inputs(case)
    configs = _ooo_sweep_configs()
    ref = [ooo_cycles_scalar(trace, dl, il, misp, c) for c in configs]
    state = _State(dl, il, misp)
    assert ooo_cycles_many(trace, [state] * len(configs), configs) == ref
    assert [ooo_cycles(trace, dl, il, misp, c) for c in configs] == ref
    if case == "more_misses_than_mshrs":
        for config, cycles in zip(configs, ref):
            assert cycles >= 2 * config.memory.latency, config


def test_ooo_kernel_reads_the_stored_columns():
    """Stored dtypes reach the kernel as they are; other dtypes are
    converted with the same result, and a value that does not fit its
    column raises instead of wrapping."""
    if not _ooo_kernel.kernel_available():
        pytest.skip("no C compiler available")
    trace, dl, il, misp = random_ooo_inputs(10, 3000)
    stored = (trace["kind"], trace["dep"], dl, il, misp)
    columns = _ooo_kernel._columns(*zip(stored, (
        np.int8, np.int32, np.int8, np.int8, np.bool_)))
    assert all(got is column for got, column in zip(columns, stored))
    config = skylake_config()
    ref = ooo_cycles(trace, dl, il, misp, config)
    wide = {"pc": trace["pc"], "kind": trace["kind"].astype(np.int64),
            "dep": trace["dep"].astype(np.int64)}
    assert ooo_cycles(wide, dl.astype(np.int64), il.astype(np.int64),
                      misp.astype(np.uint8), config) == ref
    wide["dep"][5] = 1 << 32  # would wrap to 0 in int32
    with pytest.raises(ValueError, match="int32"):
        ooo_cycles(wide, dl, il, misp, config)


def test_ooo_many_rejects_line_sizes_that_share_a_state():
    """One memory-side state is one geometry: configs of two line sizes
    cannot share it, on either engine."""
    trace, dl, il, misp = random_ooo_inputs(11, 100)
    state = _State(dl, il, misp)
    base = skylake_config()
    with pytest.raises(ReproError, match="line size"):
        ooo_cycles_many(trace, [state, state],
                        [base, base.with_line_size(128)])


def _out_of_range_ooo_inputs(case: str):
    """2000 random rows with one kind of value the latency tables have
    no entry for."""
    trace, dl, il, misp = random_ooo_inputs(12, 2000)
    if case == "five_loads_at_dlevel_9":
        dl[np.flatnonzero(trace["kind"] == _LOAD)[:5]] = 9
        return trace, dl, il, misp, "dlevel"
    if case == "ilevel_4":
        il[17] = 4
        return trace, dl, il, misp, "ilevel"
    if case == "negative_kind":
        trace["kind"][3] = -1
        return trace, dl, il, misp, "kind"
    if case == "kind_past_the_table":
        trace["kind"][3] = len(KIND_LATENCY_TICKS)
        return trace, dl, il, misp, "kind"
    raise ValueError(case)


@pytest.mark.parametrize("engine", ["scalar", "kernel"])
@pytest.mark.parametrize("case", ["five_loads_at_dlevel_9", "ilevel_4",
                                  "negative_kind", "kind_past_the_table"])
def test_ooo_out_of_range_kind_or_level_raises(engine, case):
    """Both engines raise the same ValueError for a kind or service
    level their latency tables do not cover. The kernel read past its
    tables there (five loads at dlevel 9 gave 2.1e9 cycles), and the
    oracle raised IndexError, or for a negative kind wrapped."""
    walk = _ooo_engine(engine)
    trace, dl, il, misp, column = _out_of_range_ooo_inputs(case)
    config = skylake_config()
    message = f"{column} holds values outside"
    with pytest.raises(ValueError, match=message):
        walk(trace, dl, il, misp, config)
    if engine == "kernel":
        with pytest.raises(ValueError, match=message):
            ooo_cycles_many(trace, [_State(dl, il, misp)] * 2,
                            [config, config.with_issue_width(8)])


def _ooo_engine(name: str):
    """The scalar oracle, or the kernel (skipped without a compiler)."""
    if name == "scalar":
        return ooo_cycles_scalar
    if not _ooo_kernel.kernel_available():
        pytest.skip("no C compiler available")
    return ooo_cycles


#: (seed, length) of the randomized inputs the invariants run on.
_INVARIANT_INPUTS = [(seed, 1 + (seed * 389) % 3000) for seed in range(40)]


@pytest.mark.parametrize("engine", ["scalar", "kernel"])
def test_ooo_cycles_respect_front_end_bandwidth(engine):
    """No engine finishes faster than the front end can deliver."""
    walk = _ooo_engine(engine)
    configs = _ooo_sweep_configs()
    for seed, n in _INVARIANT_INPUTS:
        trace, dl, il, misp = random_ooo_inputs(seed, n)
        for config in configs:
            cycles = walk(trace, dl, il, misp, config)
            assert cycles * TICKS >= n * front_interval_ticks(config), \
                (seed, n, config)


def _critical_path(kinds: np.ndarray, dep: np.ndarray) -> int:
    """Longest dep chain, in cycles, summed over KIND_LATENCY."""
    path = [0] * len(kinds)
    for i, (kind, d) in enumerate(zip(kinds.tolist(), dep.tolist())):
        path[i] = KIND_LATENCY[InstrKind(kind)] + (
            path[i - d] if 0 < d <= i else 0)
    return max(path, default=0)


@pytest.mark.parametrize("engine", ["scalar", "kernel"])
def test_ooo_cycles_cover_the_dependence_critical_path(engine):
    """Without memory operations, cycles >= the longest dep chain."""
    walk = _ooo_engine(engine)
    configs = _ooo_sweep_configs()
    for seed, n in _INVARIANT_INPUTS:
        trace, _, _, misp = random_ooo_inputs(seed, n)
        memory = (trace["kind"] == _LOAD) | (trace["kind"] == _STORE)
        trace["kind"][memory] = int(InstrKind.ALU)
        dl = np.full(n, -1, dtype=np.int8)
        il = np.zeros(n, dtype=np.int8)
        floor = _critical_path(trace["kind"], trace["dep"])
        for config in configs:
            assert walk(trace, dl, il, misp, config) >= floor, \
                (seed, n, config)


@pytest.mark.parametrize("engine", ["scalar", "kernel"])
def test_ooo_one_more_mispredict_never_lowers_cycles(engine):
    """A front-end restart can only delay every later instruction."""
    walk = _ooo_engine(engine)
    configs = _ooo_sweep_configs()
    for seed, n in _INVARIANT_INPUTS:
        trace, dl, il, misp = random_ooo_inputs(seed, n)
        correct = np.flatnonzero(~misp)
        if not correct.size:
            continue
        worse = misp.copy()
        worse[np.random.default_rng(seed).choice(correct)] = True
        for config in configs:
            assert walk(trace, dl, il, worse, config) >= \
                walk(trace, dl, il, misp, config), (seed, n, config)


@pytest.mark.parametrize("backend", ["scalar", "vector", "auto"])
def test_ooo_backend_arg_dispatch(backend, monkeypatch):
    """Both entry points equal the scalar oracle, one config at a time
    and as a batch, on each engine they dispatch to. The ids are what
    the retired ``backend`` argument ran: ``scalar`` the loop (here: no
    kernel built, so they fall back to it), ``vector`` the kernel, and
    ``auto`` whichever this process built."""
    if backend == "scalar":
        monkeypatch.setattr(_ooo_kernel, "get_kernel", lambda: None)
    elif backend == "vector" and not _ooo_kernel.kernel_available():
        pytest.skip("no C compiler available")
    trace, dl, il, misp = random_ooo_inputs(3, 4000)
    configs = _ooo_sweep_configs()
    ref = [ooo_cycles_scalar(trace, dl, il, misp, c) for c in configs]
    assert [ooo_cycles(trace, dl, il, misp, c) for c in configs] == ref
    states = [_State(dl, il, misp)] * len(configs)
    assert ooo_cycles_many(trace, states, configs) == ref


def test_ooo_many_configs_matches_per_config_runs():
    """Batched walk == per-config walks, in input order, shared or
    distinct states, mixed ROB sizes included."""
    trace, dl, il, misp = random_ooo_inputs(4, 6000)
    shared = _State(dl, il, misp)
    dl2, il2, misp2 = dl.copy(), il.copy(), misp.copy()
    dl2[::7] = 3
    other = _State(dl2, il2, misp2)
    configs = _ooo_sweep_configs()
    states = [shared, shared, shared, other, shared, other]
    ref = [ooo_cycles_scalar(trace, s.dlevel, s.ilevel, s.mispredicted, c)
           for s, c in zip(states, configs)]
    assert ooo_cycles_many(trace, states, configs) == ref


def test_ooo_long_dependence_and_large_rob_regression():
    """Dep distances and ROBs beyond the old 4096-slot ring stay exact.

    The seed engine's fixed ring silently dropped dependences >= 4096
    instructions back and corrupted the ROB constraint for
    rob_entries >= 4096; the ring now grows to cover both.
    """
    n = 10_000
    trace, dl, il, misp = random_ooo_inputs(5, n)
    # A slow producer feeding a consumer 6000 instructions later.
    trace["dep"] = trace["dep"].copy()
    trace["kind"][2000] = _LOAD
    dl[2000] = 3
    trace["dep"][8000] = 6000
    assert ring_size(224, trace["dep"]) > 6000
    base = skylake_config()
    huge_rob = dataclasses.replace(
        base, core=dataclasses.replace(base.core, rob_entries=8192))
    assert ring_size(8192, trace["dep"]) > 8192
    for config in (base, huge_rob):
        ref = ooo_cycles_scalar(trace, dl, il, misp, config)
        assert ooo_cycles(trace, dl, il, misp, config) == ref


def test_kind_latency_table_derived_from_isa():
    """Every InstrKind indexes the tick table at its ISA latency."""
    assert len(KIND_LATENCY_TICKS) == max(int(k) for k in InstrKind) + 1
    for kind in InstrKind:
        assert KIND_LATENCY_TICKS[int(kind)] == KIND_LATENCY[kind] * TICKS


def test_ooo_empty_and_tiny_traces(monkeypatch):
    config = skylake_config()
    empty = {"pc": np.zeros(0, dtype=np.int64),
             "kind": np.zeros(0, dtype=np.int8),
             "dep": np.zeros(0, dtype=np.int32)}
    zeros = np.zeros(0, dtype=np.int8)
    state = _State(zeros, zeros, zeros.astype(bool))
    trace, dl, il, misp = random_ooo_inputs(6, 1)
    ref = ooo_cycles_scalar(trace, dl, il, misp, config)
    for kernel in (True, False):
        with monkeypatch.context() as patch:
            if not kernel:
                patch.setattr(_ooo_kernel, "get_kernel", lambda: None)
            assert ooo_cycles_many(empty, [state], [config]) == [0.0]
            assert ooo_cycles_many(empty, [], []) == []
            assert ooo_cycles_many(trace, [_State(dl, il, misp)],
                                   [config]) == [ref]


def test_real_guest_trace_bit_identical(pypy_run):
    """End-to-end: a real VM trace, not just synthetic columns."""
    _, machine = pypy_run(
        "total = 0\n"
        "for i in range(400):\n"
        "    total = total + i * i\n"
        "print(total)\n")
    arrays = machine.trace.arrays()
    config = skylake_config()
    _assert_same_cache_result(simulate_cache_hierarchy_scalar(arrays, config),
                              simulate_cache_hierarchy(arrays, config))
    ref_mis, ref_stats = simulate_branches_scalar(arrays, config.branch)
    out_mis, out_stats = simulate_branches(arrays, config.branch)
    assert np.array_equal(ref_mis, out_mis)
    assert ref_stats == out_stats
