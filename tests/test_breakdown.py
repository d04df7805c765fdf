"""Breakdown analysis: shares, aggregation, paper-shape assertions."""

import pytest

from repro.analysis.breakdown import (
    attribute_run,
    average_shares,
    breakdown_for_run,
    indirect_call_fraction,
    suite_breakdowns,
)
from repro.categories import (
    INTERPRETER_CATEGORIES,
    LANGUAGE_FEATURE_CATEGORIES,
    OverheadCategory as C,
)
from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner
from repro.uarch import system
from repro.workloads import BREAKDOWN_QUICK_SUITE


def make_runner():
    return ExperimentRunner(scale=1)


def test_breakdown_shares_sum_to_one():
    runner = make_runner()
    handle = runner.run("nqueens", runtime="cpython")
    breakdown = breakdown_for_run(runner, handle)
    assert abs(sum(breakdown.share(c) for c in C) - 1.0) < 1e-9
    assert breakdown.overhead_share == pytest.approx(
        breakdown.language_share + breakdown.interpreter_share)


def test_c_function_call_is_a_top_interpreter_category():
    # The paper's headline: C function calls are the largest interpreter
    # operation overhead (18.4% average).
    runner = make_runner()
    handle = runner.run("richards", runtime="cpython")
    breakdown = breakdown_for_run(runner, handle)
    interp = {c: breakdown.share(c) for c in INTERPRETER_CATEGORIES}
    assert max(interp, key=interp.get) == C.C_FUNCTION_CALL
    assert interp[C.C_FUNCTION_CALL] > 0.10


def test_dispatch_is_significant():
    runner = make_runner()
    handle = runner.run("nqueens", runtime="cpython")
    breakdown = breakdown_for_run(runner, handle)
    assert breakdown.share(C.DISPATCH) > 0.08


def test_clib_benchmark_is_c_library_dominated():
    runner = make_runner()
    handle = runner.run("pickle_list", runtime="cpython")
    breakdown = breakdown_for_run(runner, handle)
    assert breakdown.c_library_share > 0.5
    # And overhead categories correspondingly shrink (paper IV-C.1).
    assert breakdown.overhead_share < 0.5


def test_compute_benchmark_is_overhead_dominated():
    runner = make_runner()
    handle = runner.run("nqueens", runtime="cpython")
    breakdown = breakdown_for_run(runner, handle)
    assert breakdown.overhead_share > 0.6


def test_pypy_jit_reduces_c_call_share():
    # Figure 5: the JIT removes most interpreter C calls but the
    # overhead survives (paper: 18.4% CPython -> 7.5% PyPy).
    runner = make_runner()
    cpython = breakdown_for_run(runner,
                                runner.run("chaos", runtime="cpython"))
    pypy = breakdown_for_run(
        runner, runner.run("chaos", runtime="pypy", jit=True))
    assert pypy.c_function_call_share < cpython.c_function_call_share
    assert pypy.c_function_call_share > 0.0


def test_suite_breakdowns_and_averages():
    runner = make_runner()
    breakdowns = suite_breakdowns(runner, ["nqueens", "mako"],
                                  runtime="cpython")
    assert set(breakdowns) == {"nqueens", "mako"}
    averages = average_shares(breakdowns)
    assert abs(sum(averages.values()) - 1.0) < 1e-6
    for category in LANGUAGE_FEATURE_CATEGORIES:
        assert averages.get(category, 0.0) >= 0.0


def test_indirect_call_fraction_bounds():
    runner = make_runner()
    handle = runner.run("richards", runtime="cpython")
    of_ccall, of_total = indirect_call_fraction(
        handle, attribute_run(runner, handle))
    assert 0.0 < of_total < of_ccall < 0.5


def test_gc_share_grows_with_jit():
    # Figure 13: the JIT shrinks non-GC work, so the GC *share* grows.
    runner = ExperimentRunner(scale=1)
    nursery = 128 * 1024
    nojit = breakdown_for_run(
        runner, runner.run("tuple_gc", runtime="pypy", jit=False,
                           nursery=nursery))
    jit = breakdown_for_run(
        runner, runner.run("tuple_gc", runtime="pypy", jit=True,
                           nursery=nursery))
    assert jit.gc_share > nojit.gc_share


def test_warm_fig4_simulates_no_caches(monkeypatch):
    """fig4 reads each run's cache service levels from the runner's
    memory side: one simulation per trace on an empty cache, none once
    the states are on disk."""
    calls = []
    simulate = system.simulate_cache_hierarchy
    monkeypatch.setattr(
        system, "simulate_cache_hierarchy",
        lambda *args, **kwargs: calls.append(1) or simulate(*args, **kwargs))
    cold = figures.fig4(runner=ExperimentRunner(), quick=True)
    assert len(calls) == len(BREAKDOWN_QUICK_SUITE)
    calls.clear()
    warm = figures.fig4(runner=ExperimentRunner(), quick=True)
    assert calls == []
    assert warm.rendered == cold.rendered
