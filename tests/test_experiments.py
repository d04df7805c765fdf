"""Experiment runner and figure harnesses (tiny configurations)."""

import gc

import numpy as np
import pytest

from repro.analysis.nursery import (
    best_nursery_improvement,
    normalized,
    nursery_sweep,
    paper_equivalent_label,
)
from repro.analysis.report import format_percent, render_series, render_table
from repro.analysis.sweeps import SWEEP_AXES, axis_config, quick_axes
from repro.config import scaled_config, skylake_config
from repro.errors import ExperimentError
from repro.experiments.diskcache import DiskCache
from repro.experiments.runner import ExperimentRunner
from repro.experiments import figures
from repro.vm.base import BaseVM


def _counter(prefix):
    from repro import telemetry
    return sum(v for k, v in telemetry.TELEMETRY.metrics.snapshot().items()
               if k.startswith(prefix))


def test_runner_caches_traces():
    """A trace is held from its second read on. The first is handed out
    and left to the disk cache, which gives it back on the second."""
    from repro import telemetry
    telemetry.enable()
    runner = ExperimentRunner(scale=1)
    first = runner.run("sym_sum", runtime="cpython")
    assert _counter("runner.cache.not_held{kind=trace}") == 1
    second = runner.run("sym_sum", runtime="cpython")
    assert second is not first
    assert _counter("runner.disk_cache.hit{kind=trace}") == 1
    ours, theirs = first.trace.arrays(), second.trace.arrays()
    assert all(np.array_equal(ours[name], theirs[name]) for name in ours)
    assert runner.run("sym_sum", runtime="cpython") is second
    # With no disk cache nothing could give a trace back: the first
    # read is held.
    runner = ExperimentRunner(scale=1, disk_cache=DiskCache(None))
    first = runner.run("sym_sum", runtime="cpython")
    assert runner.run("sym_sum", runtime="cpython") is first
    assert _counter("runner.cache.not_held") == 1


def test_runner_distinguishes_runtime_params():
    runner = ExperimentRunner(scale=1)
    interp = runner.run("sym_sum", runtime="pypy", jit=False)
    jit = runner.run("sym_sum", runtime="pypy", jit=True)
    assert interp is not jit
    assert len(jit.trace) < len(interp.trace)


def test_finished_guest_run_is_collected():
    """A finished VM is a reference cycle holding the guest heap; the
    runner frees it when the run ends instead of leaving it to the next
    cyclic collection."""
    runner = ExperimentRunner(scale=1, disk_cache=DiskCache(None))
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, BaseVM)}
    gc.disable()
    try:
        runner.run("sym_sum", runtime="cpython")
        left = [o for o in gc.get_objects()
                if isinstance(o, BaseVM) and id(o) not in before]
    finally:
        gc.enable()
    assert left == []


def test_runner_rejects_unknown_runtime():
    runner = ExperimentRunner()
    with pytest.raises(ExperimentError):
        runner.run("sym_sum", runtime="jython")


def test_memory_side_reuse():
    runner = ExperimentRunner(scale=1)
    handle = runner.run("sym_sum", runtime="cpython")
    config = skylake_config()
    a = runner.memory_side(handle, config)
    b = runner.memory_side(handle, config)
    assert a is b
    other = runner.memory_side(handle, config.with_llc_size(512 * 1024))
    assert other is not a


def test_simulate_cores():
    runner = ExperimentRunner(scale=1)
    handle = runner.run("sym_sum", runtime="cpython")
    simple = runner.simulate(handle, skylake_config(), core="simple")
    ooo = runner.simulate(handle, skylake_config(), core="ooo")
    # The models charge different events (the OOO core pays branch
    # mispredicts and load-to-use latency; the simple core only cache
    # misses), so only sanity bounds are meaningful here.
    assert simple.cycles > 0 and ooo.cycles > 0
    assert 0.2 < ooo.cycles / simple.cycles < 5.0


def test_simulate_many_configs_matches_serial():
    runner = ExperimentRunner(scale=1)
    handle = runner.run("sym_sum", runtime="cpython")
    base = skylake_config()
    # Mixed memory geometries: some configs share a memory-side state
    # (issue width / latency), some need their own (LLC / line size).
    configs = [base, base.with_issue_width(8),
               base.with_memory_latency(400),
               base.with_llc_size(512 * 1024), base.with_line_size(128),
               base.with_memory_bandwidth(200)]
    serial = [runner.simulate(handle, config, core="ooo")
              for config in configs]
    batched = runner.simulate_many_configs(handle, configs, core="ooo")
    assert [sim.cycles for sim in batched] \
        == [sim.cycles for sim in serial]
    assert [sim.cpi for sim in batched] == [sim.cpi for sim in serial]


def test_adaptive_capacity_keeps_grid_resident():
    """A grid that fits the byte budget stays hot, however many entries.

    The first pass is left to the disk cache and the second pass holds
    the grid. Telemetry hit counters prove it: a third pass over the
    same (workload, nursery) points re-misses nothing — the regression
    the nursery figures would otherwise hit.
    """
    from repro import telemetry
    runner = ExperimentRunner(scale=1)
    nurseries = [64 * 1024 * (i + 1) for i in range(4)]

    def grid_pass():
        return [runner.run("sym_sum", runtime="pypy", jit=True, nursery=nb)
                for nb in nurseries]

    grid_pass()
    second = grid_pass()
    assert runner.cache_bytes <= ExperimentRunner.CACHE_BUDGET_BYTES
    telemetry.enable()
    telemetry.reset()
    third = grid_pass()
    assert all(a is b for a, b in zip(second, third))
    snapshot = telemetry.TELEMETRY.metrics.snapshot()
    misses = sum(v for k, v in snapshot.items()
                 if k.startswith("runner.trace_cache.miss"))
    hits = sum(v for k, v in snapshot.items()
               if k.startswith("runner.trace_cache.hit"))
    assert misses == 0 and hits == len(nurseries)
    telemetry.disable()


def test_byte_budget_bounds_a_nursery_sweep(monkeypatch):
    """A budget smaller than the grid bounds what the runner holds to
    the budget plus the entry just admitted, and changes no result."""
    from repro import telemetry
    sweep = dict(workload="sym_sum", jit=True, ratios=(0.25, 0.5, 1.0),
                 config=scaled_config(5))
    unbounded = ExperimentRunner(disk_cache=DiskCache(None))
    want = nursery_sweep(unbounded, **sweep)
    # Three traces and three states; a third of their bytes must evict.
    budget = unbounded.cache_bytes // 3
    monkeypatch.setattr(ExperimentRunner, "CACHE_BUDGET_BYTES", budget)
    runner = ExperimentRunner(disk_cache=DiskCache(None))
    held = []
    admit = runner._admit

    def recording_admit(kind, key, entry, nbytes):
        admit(kind, key, entry, nbytes)
        held.append((runner.cache_bytes, nbytes))

    monkeypatch.setattr(runner, "_admit", recording_admit)
    telemetry.enable()
    telemetry.reset()
    got = nursery_sweep(runner, **sweep)
    assert got == want
    assert held and all(total <= budget + newest for total, newest in held)
    snapshot = telemetry.TELEMETRY.metrics.snapshot()
    assert sum(v for k, v in snapshot.items()
               if k.startswith("runner.cache.evicted")) > 0
    assert snapshot["runner.cache.budget_bytes"] == budget
    telemetry.disable()


def test_axis_config_errors():
    with pytest.raises(ExperimentError):
        axis_config(skylake_config(), "voltage", 1.0)


def test_quick_axes_trim():
    axes = quick_axes()
    assert set(axes) == set(SWEEP_AXES)
    for axis, values in axes.items():
        full = SWEEP_AXES[axis][0]
        assert values[0] == full[0]
        assert values[-1] == full[-1]
        assert len(values) <= 3


def test_nursery_sweep_points():
    runner = ExperimentRunner(scale=1)
    config = scaled_config(5)
    points = nursery_sweep(runner, "tuple_gc", jit=False,
                           ratios=(0.25, 1.0), config=config)
    assert [p.ratio for p in points] == [0.25, 1.0]
    assert points[0].minor_gcs >= points[1].minor_gcs
    assert all(p.simple_cycles > 0 for p in points)
    assert all(p.gc_cycles + p.nongc_cycles == p.simple_cycles
               for p in points)


def test_normalized_baseline():
    runner = ExperimentRunner(scale=1)
    points = nursery_sweep(runner, "sym_sum", jit=False,
                           ratios=(0.25, 0.5, 1.0),
                           config=scaled_config(5))
    norm = normalized(points, baseline_ratio=0.5)
    assert norm[1] == 1.0


def test_best_nursery_improvement_summary():
    runner = ExperimentRunner(scale=1)
    sweeps = {
        "tuple_gc": nursery_sweep(runner, "tuple_gc", jit=True,
                                  ratios=(0.25, 0.5, 1.0),
                                  config=scaled_config(5)),
    }
    summary = best_nursery_improvement(sweeps)
    assert 0.0 <= summary["per_workload"]["tuple_gc"] <= 1.001
    assert summary["best_improvement"] >= summary.get(
        "max_nursery_improvement", -1.0) - 1e-9


def test_paper_equivalent_labels():
    assert paper_equivalent_label(0.25) == "512k"
    assert paper_equivalent_label(0.5) == "1M"
    assert paper_equivalent_label(1.0) == "2M"
    assert paper_equivalent_label(64.0) == "128M"


def test_report_rendering():
    table = render_table(["a", "b"], [["x", 1], ["yy", 22]], title="T")
    assert "T" in table and "yy" in table
    series = render_series("S", ["1", "2"], {"s1": [0.5, 1.5]})
    assert "s1" in series and "1.500" in series
    assert format_percent(0.123) == "12.3%"


def test_tables_render():
    t1 = figures.table1()
    assert "2 MB" in t1.rendered
    assert "DDR4" in t1.rendered
    t2 = figures.table2()
    assert "C function call" in t2.rendered
    assert "NEW" in t2.rendered


def test_all_figures_registry():
    assert set(figures.ALL_FIGURES) == {
        "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17"}
