"""The paper's two-stage pipeline: collect once, post-process offline.

Section IV-B: the Pin tool exports statistics files; post-processing
runs separately with the (reusable) interpreter annotations. These tests
prove the same separation works here: a trace saved to disk plus the
site table is sufficient to reproduce breakdowns and timing without the
original VM.
"""

import json

import numpy as np

from conftest import run_source
from repro.categories import OverheadCategory as C
from repro.config import skylake_config
from repro.host.trace import InstructionTrace
from repro.pintool import StatsCollector, resolve_categories
from repro.uarch import SimulatedSystem
from repro.uarch.simple_core import simple_core_cycles
from repro.uarch.cache import simulate_cache_hierarchy

SOURCE = """
g = 3

def work(n):
    table = {}
    total = 0
    for i in range(n):
        table[i % 8] = i * g
        total = total + table[i % 8]
    return total

print(work(60))
"""


def test_trace_roundtrip_preserves_simulation(tmp_path):
    vm, machine = run_source(SOURCE)
    path = tmp_path / "run.rpt"
    machine.trace.save(path)
    reloaded = InstructionTrace.load(path)

    system = SimulatedSystem(skylake_config())
    original = system.run(machine.trace, core="ooo")
    offline = system.run(reloaded, core="ooo")
    assert offline.cycles == original.cycles
    assert offline.instructions == original.instructions


def test_offline_breakdown_matches_online(tmp_path):
    vm, machine = run_source(SOURCE)
    trace_path = tmp_path / "run.rpt"
    sites_path = tmp_path / "sites.json"
    machine.trace.save(trace_path)
    sites_path.write_text(json.dumps(machine.site_table))

    # Offline: nothing from the VM except the two files.
    reloaded = InstructionTrace.load(trace_path)
    site_table = json.loads(sites_path.read_text())
    config = skylake_config()
    cache_result = simulate_cache_hierarchy(reloaded.arrays(), config)
    cycles = simple_core_cycles(cache_result.dlevel, cache_result.ilevel,
                                config)
    categories = resolve_categories(reloaded, site_table)
    offline_sums = np.bincount(categories, weights=cycles, minlength=32)

    online_categories = resolve_categories(machine.trace,
                                           machine.site_table)
    online_sums = np.bincount(online_categories, weights=cycles,
                              minlength=32)
    assert np.allclose(offline_sums, online_sums)
    assert offline_sums[int(C.DISPATCH)] > 0
    assert offline_sums[int(C.UNRESOLVED)] == 0


def test_collector_export_supports_separate_postprocess(tmp_path):
    vm, machine = run_source(SOURCE)
    config = skylake_config()
    cache_result = simulate_cache_hierarchy(machine.trace.arrays(),
                                            config)
    cycles = simple_core_cycles(cache_result.dlevel, cache_result.ilevel,
                                config)
    collector = StatsCollector()
    collector.collect(machine.trace, cycles)
    stats_path = tmp_path / "stats.json"
    collector.export(stats_path)

    loaded = StatsCollector.load(stats_path)
    assert loaded.total_cycles == collector.total_cycles
    # The lookdict helper's per-origin split survives the round trip —
    # the information post-processing needs for caller-dependent sites.
    lookdict_pc = machine.site_table["dictobject.lookdict"]
    assert loaded.stats[lookdict_pc].by_origin


def test_annotations_are_reusable_across_programs():
    # "We only need to annotate the CPython interpreter once and not for
    # each Python program" — the statically initialized interpreter
    # sites get identical PCs for every guest, so one annotation binding
    # serves any program. (Helper sites interned lazily at first use may
    # differ in PC; the annotation table is keyed by *name* to stay
    # program-independent.)
    vm_a, machine_a = run_source("x = {}\nx['k'] = 1\nprint(x['k'])\n")
    vm_b, machine_b = run_source(SOURCE)
    static_names = [name for name in machine_a.site_table
                    if name.startswith("ceval.")
                    or name.startswith("gcmodule.")
                    or name.startswith("dictobject.")]
    assert "ceval.dispatch" in static_names
    assert len(static_names) > 50  # every bytecode handler and helper
    for name in static_names:
        assert machine_a.site_table[name] == machine_b.site_table[name], \
            name
    # And the caller-dependent resolution works identically on both.
    for machine in (machine_a, machine_b):
        categories = resolve_categories(machine.trace,
                                        machine.site_table)
        assert (categories == int(C.UNRESOLVED)).sum() == 0
