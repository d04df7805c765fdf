"""A breakdown cell costs its trace: per-step memory bounds.

A fig4 cell runs a guest, freezes its trace (35 B/row), simulates the
memory side and attributes simple-core cycles. Each step after the
guest run must stay a small fraction of the trace it works on, so the
cell's peak is the trace plus a few bytes per row.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from repro.config import skylake_config
from repro.experiments.runner import ExperimentRunner
from repro.pintool.postprocess import attribute
from repro.uarch import _ooo_kernel
from repro.uarch.system import SimulatedSystem


def _traced_peak(fn):
    """(result, peak bytes ``fn`` allocated over what was live before)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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
    state, side_peak = _traced_peak(
        lambda: SimulatedSystem(config).memory_side(handle.trace))
    attribution, attribute_peak = _traced_peak(
        lambda: attribute(handle.trace, handle.site_table, state, config))
    assert side_peak / rows <= 4.0, side_peak / rows
    assert attribute_peak / rows <= 10.0, attribute_peak / rows
    assert attribution.breakdown().total_cycles \
        == float(attribution.cycles.sum())


#: Run in a fresh process: the eparse guest on CPython, whose live
#: trace (2.2M rows) is then frozen. VmHWM, unlike ``ru_maxrss``,
#: belongs to the process image, so it does not carry the forking
#: parent's peak.
_FREEZE_PROBE = textwrap.dedent("""
    from repro.frontend import compile_source
    from repro.host import AddressSpace, HostMachine
    from repro.vm.cpython import CPythonVM
    from repro.workloads import get_workload

    def status_kb(field):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])

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
