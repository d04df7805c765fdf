"""Vectorized engine speedups on a 1M-instruction guest trace.

Acceptance targets for the vectorization work, all on the same
million-instruction deltablue trace with bit-identical outputs: the
batched memory-side engines at least 5x over the scalar reference, the
OOO core at least 3x, and a warm Figure 7 sweep axis at least 2x via
the batched config walk. The measured numbers land in
``benchmarks/results/vectorized_speed.txt``; in-test assertion floors
sit below the targets so shared-runner noise does not flake the suite.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import append_text, save_text

from repro.analysis.sweeps import axis_config
from repro.config import skylake_config
from repro.experiments.runner import ExperimentRunner
from repro.uarch.branch import simulate_branches, simulate_branches_scalar
from repro.uarch.cache import (
    simulate_cache_hierarchy,
    simulate_cache_hierarchy_scalar,
)
from repro.uarch.ooo_core import ooo_cycles, ooo_cycles_scalar

_64K = 64 * 1024


def _best_of(n, fn):
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_vectorized_speedup_on_megainstruction_trace():
    # deltablue on CPython at scale 2 emits a ~1.08M-instruction trace.
    runner = ExperimentRunner(scale=2)
    handle = runner.run("deltablue", runtime="cpython")
    arrays = handle.trace.arrays()
    config = skylake_config()
    n = len(handle.trace)
    assert n >= 1_000_000

    scalar_s, scalar_cache = _best_of(
        2, lambda: simulate_cache_hierarchy_scalar(arrays, config))
    vector_s, vector_cache = _best_of(
        3, lambda: simulate_cache_hierarchy(arrays, config,
                                            backend="auto"))
    scalar_bs, scalar_branch = _best_of(
        2, lambda: simulate_branches_scalar(arrays, config.branch))
    vector_bs, vector_branch = _best_of(
        3, lambda: simulate_branches(arrays, config.branch,
                                     backend="auto"))

    # Identical outputs first: speed means nothing if the bits differ.
    assert np.array_equal(scalar_cache.dlevel, vector_cache.dlevel)
    assert np.array_equal(scalar_cache.ilevel, vector_cache.ilevel)
    for name in scalar_cache.stats:
        assert scalar_cache.stats[name] == vector_cache.stats[name]
    assert np.array_equal(scalar_branch[0], vector_branch[0])
    assert scalar_branch[1] == vector_branch[1]

    total_scalar = scalar_s + scalar_bs
    total_vector = vector_s + vector_bs
    speedup = total_scalar / total_vector
    cache_speedup = scalar_s / vector_s
    branch_speedup = scalar_bs / vector_bs
    save_text("vectorized_speed", "\n".join([
        "vectorized memory-side speedup (deltablue, cpython, scale 2)",
        f"trace length        : {n:,} instructions",
        f"cache  scalar/vector: {scalar_s:.3f}s / {vector_s:.3f}s "
        f"({cache_speedup:.1f}x)",
        f"branch scalar/vector: {scalar_bs:.3f}s / {vector_bs:.3f}s "
        f"({branch_speedup:.1f}x)",
        f"combined            : {total_scalar:.3f}s / "
        f"{total_vector:.3f}s ({speedup:.1f}x)",
        "outputs             : bit-identical "
        "(service levels, stats, mispredicts)",
        "acceptance          : >= 5x target; assertion floor 3x "
        "for machine noise",
    ]))
    assert speedup >= 3.0, f"memory-side speedup regressed: {speedup:.2f}x"


def test_ooo_core_speedup_on_megainstruction_trace():
    """OOO core: vector backend >= 3x the scalar walk, same bits."""
    runner = ExperimentRunner(scale=2)
    handle = runner.run("deltablue", runtime="cpython")
    arrays = handle.trace.arrays()
    config = skylake_config()
    state = runner.memory_side(handle, config)
    n = len(handle.trace)
    assert n >= 1_000_000

    scalar_s, scalar_cycles = _best_of(
        2, lambda: ooo_cycles_scalar(arrays, state.dlevel, state.ilevel,
                                     state.mispredicted, config))
    vector_s, vector_cycles = _best_of(
        3, lambda: ooo_cycles(arrays, state.dlevel, state.ilevel,
                              state.mispredicted, config,
                              backend="vector"))
    assert vector_cycles == scalar_cycles
    speedup = scalar_s / vector_s
    append_text("vectorized_speed", "\n".join([
        "",
        "OOO-core speedup (deltablue, cpython, scale 2)",
        f"trace length        : {n:,} instructions",
        f"core   scalar/vector: {scalar_s:.3f}s / {vector_s:.3f}s "
        f"({speedup:.1f}x)",
        "outputs             : bit-identical cycle counts",
        "acceptance          : >= 3x on a 1M-instruction trace",
    ]))
    assert speedup >= 3.0, f"OOO-core speedup regressed: {speedup:.2f}x"


def test_config_sweep_axis_batching_speedup():
    """A warm Figure 7 axis through the batched walk >= 2x serial."""
    runner = ExperimentRunner(scale=2)
    handle = runner.run("deltablue", runtime="cpython")
    base = skylake_config()
    values = (2, 4, 8, 16, 32)
    configs = [axis_config(base, "issue_width", value)
               for value in values]
    # Warm the memory-side state (shared by the whole axis) so both
    # timings measure only the core walks, as in a warm fig7 cell.
    runner.memory_side(handle, base)

    serial_s, serial = _best_of(
        2, lambda: [runner.simulate(handle, config, core="ooo").cycles
                    for config in configs])
    batched_s, batched = _best_of(
        3, lambda: [sim.cycles for sim in runner.simulate_many_configs(
            handle, configs, core="ooo")])
    assert batched == serial
    speedup = serial_s / batched_s
    append_text("vectorized_speed", "\n".join([
        "",
        "config-axis batching (issue_width axis, warm states)",
        f"axis points         : {len(configs)}",
        f"serial / batched    : {serial_s:.3f}s / {batched_s:.3f}s "
        f"({speedup:.1f}x)",
        "outputs             : bit-identical cycle counts",
        "acceptance          : >= 2x for a warm fig7 sweep axis; "
        "assertion floor 1.5x for machine noise",
    ]))
    assert speedup >= 1.5, f"axis batching regressed: {speedup:.2f}x"


def test_guest_emission_speedup(monkeypatch):
    """Burst emission >= 5x scalar on a cache-bypassed guest run.

    Both backends interpret the same deltablue program from scratch
    (disk cache disabled, fresh runner per run) and must produce the
    same number of trace rows; the byte-level identity matrix lives in
    tests/test_emit_equivalence.py. PyPy (JIT) and V8 rows follow,
    report-only: their interpreter loops emit dispatch themselves, so
    they batch less per bytecode than CPython does.
    """
    from repro.experiments.diskcache import DiskCache

    def fresh_run(backend, workload, runtime, scale):
        monkeypatch.setenv("REPRO_EMIT_BACKEND", backend)
        runner = ExperimentRunner(scale=scale, disk_cache=DiskCache(None))
        handle = runner.run(workload, runtime=runtime)
        return handle

    def timed(n, backend, workload="deltablue", runtime="cpython",
              scale=2):
        best = float("inf")
        handle = None
        for _ in range(n):
            start = time.perf_counter()
            handle = fresh_run(backend, workload, runtime, scale)
            best = min(best, time.perf_counter() - start)
        return best, handle

    scalar_s, scalar_handle = timed(2, "scalar")
    burst_s, burst_handle = timed(3, "burst")
    assert len(scalar_handle.trace) == len(burst_handle.trace)
    n = len(burst_handle.trace)
    speedup = scalar_s / burst_s
    rate = n / burst_s
    lines = [
        "",
        "guest emission speedup (deltablue, cpython, scale 2, "
        "cache-bypassed)",
        f"trace length        : {n:,} instructions",
        f"scalar / burst      : {scalar_s:.3f}s / {burst_s:.3f}s "
        f"({speedup:.1f}x)",
        f"burst throughput    : {rate:,.0f} instr/s emitted",
        "outputs             : identical row counts; bit identity "
        "gated in tests/test_emit_equivalence.py",
        "acceptance          : >= 5x target; assertion floor 3x "
        "for machine noise",
    ]
    for workload, runtime in (("chaos", "pypy"), ("richards", "v8")):
        other_scalar, scalar_run = timed(2, "scalar", workload, runtime, 1)
        other_burst, burst_run = timed(3, "burst", workload, runtime, 1)
        assert len(scalar_run.trace) == len(burst_run.trace)
        lines.append(
            f"{workload + ' ' + runtime + ' (jit)':20s}: "
            f"{other_scalar:.3f}s / {other_burst:.3f}s "
            f"({other_scalar / other_burst:.2f}x, "
            f"{len(burst_run.trace):,} instructions, report-only)")
    append_text("vectorized_speed", "\n".join(lines))
    assert speedup >= 3.0, f"guest emission speedup regressed: " \
        f"{speedup:.2f}x"
