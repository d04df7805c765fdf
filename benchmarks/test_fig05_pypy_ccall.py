"""Figure 5: C function call overhead persists under PyPy's JIT.

Shape targets: the average C-call share on the PyPy model is positive
but clearly below the CPython model's (paper: 7.5% vs 18.4%) — the JIT
inlines interpreter helpers but cannot inline external C functions.
"""

from conftest import save_result
from repro.analysis.breakdown import breakdown_for_run
from repro.experiments import figures
from repro.workloads import BREAKDOWN_QUICK_SUITE


def test_fig5(benchmark, breakdown_runner):
    result = benchmark.pedantic(
        figures.fig5, kwargs={"runner": breakdown_runner, "quick": True},
        rounds=1, iterations=1)
    save_result(result)
    print(result)
    pypy_avg = result.data["average"]
    assert 0.005 < pypy_avg < 0.25

    cpython_total = 0.0
    for name in BREAKDOWN_QUICK_SUITE:
        handle = breakdown_runner.run(name, runtime="cpython")
        cpython_total += breakdown_for_run(
            breakdown_runner, handle).c_function_call_share
    cpython_avg = cpython_total / len(BREAKDOWN_QUICK_SUITE)
    assert pypy_avg < cpython_avg
