"""Ablation: inline caching for global name resolution.

The paper cites caching variable look-ups (ref [20]) as the fix for the
name resolution overhead it measures at 9.1% average. This ablation
enables a per-site global inline cache in the CPython model and
quantifies how much of the category it removes.
"""

from conftest import save_result
from repro.analysis.report import format_percent, render_table
from repro.categories import OverheadCategory as C
from repro.experiments.figures import FigureResult
from repro.frontend import compile_source
from repro.host import AddressSpace, HostMachine
from repro.pintool import attribute
from repro.uarch import SimulatedSystem
from repro.vm.cpython import CPythonVM
from repro.workloads import get_workload

WORKLOADS = ("richards", "deltablue", "go", "logging_format")


def _run(name, global_cache):
    program = compile_source(get_workload(name).source(1), name)
    machine = HostMachine(AddressSpace(), max_instructions=30_000_000)
    vm = CPythonVM(machine, program, global_cache=global_cache)
    vm.run()
    state = SimulatedSystem().memory_side(machine.trace)
    return attribute(machine.trace, machine.site_table,
                     state).breakdown(workload=name)


def ablation():
    rows = []
    data = {}
    for name in WORKLOADS:
        base = _run(name, global_cache=False)
        cached = _run(name, global_cache=True)
        base_share = base.share(C.NAME_RESOLUTION)
        cached_share = cached.share(C.NAME_RESOLUTION)
        speedup = base.total_cycles / cached.total_cycles
        data[name] = (base_share, cached_share, speedup)
        rows.append([name, format_percent(base_share),
                     format_percent(cached_share), f"{speedup:.3f}x"])
    rendered = render_table(
        ["workload", "name res (baseline)", "name res (inline cache)",
         "total speedup"],
        rows, title="Ablation: global-lookup inline caching (paper [20])")
    return FigureResult("ablation_name_resolution",
                        "inline caching ablation", rendered, data)


def test_ablation_name_resolution(benchmark):
    result = benchmark.pedantic(ablation, rounds=1, iterations=1)
    save_result(result)
    print(result)
    for name, (base_share, cached_share, speedup) in result.data.items():
        # Caching must shrink the category and never slow the program.
        assert cached_share < base_share, name
        assert speedup > 1.0, name
