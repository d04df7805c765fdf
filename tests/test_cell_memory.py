"""A breakdown cell costs its trace: per-step memory bounds.

A fig4 cell runs a guest, freezes its trace (35 B/row), simulates the
memory side and attributes simple-core cycles. Each step after the
guest run must stay a small fraction of the trace it works on, so the
cell's peak is the trace plus a few bytes per row. A figure costs its
largest cell: the runner holds no trace its figure reads only once.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest
from conftest import interpreter_like_trace, traced_peak

from repro.analysis.sweeps import axis_config
from repro.config import skylake_config
from repro.experiments.runner import ExperimentRunner
from repro.pintool.postprocess import attribute
from repro.uarch import _ooo_kernel
from repro.uarch.branch import simulate_branches
from repro.uarch.cache import simulate_cache_hierarchy
from repro.uarch.ooo_core import ooo_cycles_many
from repro.uarch.system import SimulatedSystem


def test_memory_side_and_attribution_stay_narrow():
    """On the eparse fig4 trace (2.2M rows), the memory side allocates at
    most 4 B/row, its outputs included, and the attribution at most
    10 B/row."""
    if not _ooo_kernel.kernel_available():
        pytest.skip("no C compiler: the memory side runs the scalar oracle")
    runner = ExperimentRunner()
    handle = runner.run("eparse", runtime="cpython")
    rows = len(handle.trace)
    assert rows > 2_000_000
    config = skylake_config()
    handle.trace.arrays()  # decode outside the measured steps
    state, side_peak = traced_peak(
        lambda: SimulatedSystem(config).memory_side(handle.trace))
    attribution, attribute_peak = traced_peak(
        lambda: attribute(handle.trace, handle.site_table, state, config))
    assert side_peak / rows <= 4.0, side_peak / rows
    assert attribute_peak / rows <= 10.0, attribute_peak / rows
    assert attribution.breakdown().total_cycles \
        == float(attribution.cycles.sum())


def test_ooo_sweep_copies_no_column():
    """Nine configs sharing one memory-side state of a 1M-row trace (a
    Figure 7 issue-width, latency and bandwidth axis) walk the stored
    columns: the sweep allocates less than 1 B/row, its finish rings
    included. Int64 copies of the columns for the state took 43 B/row."""
    if not _ooo_kernel.kernel_available():
        pytest.skip("no C compiler: the OOO core runs the scalar oracle")
    rows = 1 << 20
    trace = interpreter_like_trace(rows)
    trace["dep"][1::3] = 1
    base = skylake_config()
    memory = simulate_cache_hierarchy(trace, base)
    mispredicted, _ = simulate_branches(trace, base.branch)
    state = SimpleNamespace(dlevel=memory.dlevel, ilevel=memory.ilevel,
                            mispredicted=mispredicted)
    configs = [axis_config(base, axis, value)
               for axis, values in (("issue_width", (2, 4, 8)),
                                    ("memory_latency", (50, 200, 400)),
                                    ("memory_bandwidth", (200, 1600, 25600)))
               for value in values]
    cycles, peak = traced_peak(
        lambda: ooo_cycles_many(trace, [state] * len(configs), configs))
    assert len(set(cycles)) > 1
    assert peak / rows < 1.0, peak / rows


_STATUS_KB = textwrap.dedent("""
    def status_kb(field):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
""")

#: Run in a fresh process: the eparse guest on CPython, whose live
#: trace (2.2M rows) is then frozen. VmHWM, unlike ``ru_maxrss``,
#: belongs to the process image, so it does not carry the forking
#: parent's peak.
_FREEZE_PROBE = _STATUS_KB + textwrap.dedent("""
    from repro.frontend import compile_source
    from repro.host import AddressSpace, HostMachine
    from repro.vm.cpython import CPythonVM
    from repro.workloads import get_workload

    program = compile_source(get_workload("eparse").source(1), "eparse")
    machine = HostMachine(AddressSpace(nursery_size=16 * 1024))
    CPythonVM(machine, program).run()
    trace = machine.trace
    before = status_kb("VmRSS")
    trace.freeze()
    print(len(trace), (status_kb("VmHWM") - before) * 1024)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_freeze_does_not_copy_the_trace():
    """Freezing a 2.2M-row live trace raises the process's peak RSS by
    less than 8 B/row: the column regions become the columns, rather
    than being joined into fresh copies (35 B/row)."""
    done = subprocess.run([sys.executable, "-c", _FREEZE_PROBE],
                          capture_output=True, text=True, check=True)
    rows, grew = map(int, done.stdout.split())
    assert rows >= 1_000_000
    assert grew / rows < 8.0, grew / rows


#: Run in a fresh process on the test's empty disk cache: quick fig4,
#: whose seven traces (6.4M rows, 223 MiB of columns) are each read
#: once.
_FIG4_PROBE = _STATUS_KB + textwrap.dedent("""
    from repro.experiments.figures import fig4
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner()
    before = status_kb("VmRSS")
    fig4(runner, quick=True, jobs=1)
    print(runner.cache_bytes, (status_kb("VmHWM") - before) * 1024)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_fig4_holds_no_trace_it_reads_once():
    """Quick fig4 raises a fresh process's peak RSS by less than
    160 MiB, about its largest cell, since each trace is stored on disk
    and let go after its one read. Holding every trace took 250 MiB."""
    done = subprocess.run([sys.executable, "-c", _FIG4_PROBE],
                          capture_output=True, text=True, check=True)
    held, grew = map(int, done.stdout.split())
    assert held < 32 * 2**20, held  # memory-side states only
    assert grew < 160 * 2**20, grew / 2**20
