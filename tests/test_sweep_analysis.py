"""Sweep analysis layer: axis configs, result structure, phases."""

import pytest

from repro.analysis.sweeps import (
    RUNTIME_VARIANTS,
    SWEEP_AXES,
    SweepResult,
    axis_config,
    phase_cpis,
    quick_axes,
    run_sweep,
)
from repro.config import skylake_config
from repro.experiments.diskcache import DiskCache
from repro.experiments.runner import ExperimentRunner
from repro.uarch import _ooo_kernel
from repro.uarch import system as system_module
from repro.uarch.branch import simulate_branches_scalar
from repro.uarch.cache import simulate_cache_hierarchy_scalar


def test_axes_match_paper_grids():
    assert SWEEP_AXES["issue_width"][0] == (2, 4, 8, 16, 32)
    assert SWEEP_AXES["branch_scale"][0] == (0.5, 1.0, 2.0, 4.0, 8.0)
    assert len(SWEEP_AXES["cache_size"][0]) == 7      # 256k .. 16M
    assert len(SWEEP_AXES["line_size"][0]) == 7       # 64 .. 4096
    assert SWEEP_AXES["memory_latency"][0] == (50, 100, 200, 400)
    assert len(SWEEP_AXES["memory_bandwidth"][0]) == 8  # 200 .. 25600


def test_axis_config_transforms():
    base = skylake_config()
    assert axis_config(base, "issue_width", 16).core.issue_width == 16
    assert axis_config(base, "cache_size", 512 * 1024).l3.size \
        == 512 * 1024
    assert axis_config(base, "line_size", 256).l1d.line_size == 256
    assert axis_config(base, "memory_latency", 50).memory.latency == 50
    assert axis_config(base, "branch_scale", 4.0).branch.scale == 4.0


def test_runtime_variants():
    labels = [label for label, _, _ in RUNTIME_VARIANTS]
    assert labels == ["cpython", "pypy-nojit", "pypy-jit"]


def test_run_sweep_tiny():
    runner = ExperimentRunner(scale=1)
    axes = {"memory_latency": (50, 400)}
    result = run_sweep(runner, ["sym_sum"], axes=axes)
    assert isinstance(result, SweepResult)
    assert result.axis_values("memory_latency") == (50, 400)
    series = result.series("memory_latency")
    assert set(series) == {"cpython", "pypy-nojit", "pypy-jit"}
    for values in series.values():
        assert len(values) == 2
        assert values[1] >= values[0]  # slower memory never helps


def test_run_sweep_identical_across_backends_and_jobs(monkeypatch,
                                                     tmp_path):
    """The Figure 7/9 engine: same grid bytes for every engine and jobs.

    Covers the batched ``simulate_many_configs`` path (with the compiled
    kernel and with the kernel unavailable) against an all-scalar
    pipeline (the cache and branch oracles patched into the system
    module, no kernel), and the ``jobs`` fan-out against the serial
    loop — all must agree exactly. Each pipeline has a disk cache of
    its own, so each computes its memory-side states itself.
    """
    axes = quick_axes()
    results = {}
    for name, scalar_memory, kernel in (("scalar", True, False),
                                        ("no-kernel", False, False),
                                        ("kernel", False, True)):
        with monkeypatch.context() as patch:
            if scalar_memory:
                patch.setattr(system_module, "simulate_cache_hierarchy",
                              simulate_cache_hierarchy_scalar)
                patch.setattr(system_module, "simulate_branches",
                              simulate_branches_scalar)
            if not kernel:
                patch.setattr(_ooo_kernel, "get_kernel", lambda: None)
            runner = ExperimentRunner(
                scale=1, disk_cache=DiskCache(tmp_path / name))
            results[name] = run_sweep(runner, ["sym_sum"], axes=axes).cpi
    assert results["scalar"] == results["no-kernel"] == results["kernel"]
    parallel = run_sweep(
        ExperimentRunner(scale=1, disk_cache=DiskCache(tmp_path / "jobs")),
        ["sym_sum"], axes=axes, jobs=2)
    assert parallel.cpi == results["kernel"]


def test_phase_cpis_cover_execution():
    runner = ExperimentRunner(scale=1)
    handle = runner.run("crypto_pyaes", runtime="pypy", jit=True)
    phases = phase_cpis(runner, handle)
    assert phases["jit_compiled_code"] > 0
    assert phases["garbage_collection"] >= 0
    assert phases["bytecode_interpreter"] > 0
    assert phases["overall"] > 0
    # Overall CPI is a weighted mix, so it lies within phase extremes.
    values = [phases[k] for k in ("bytecode_interpreter",
                                  "garbage_collection",
                                  "jit_compiled_code") if phases[k] > 0]
    assert min(values) <= phases["overall"] <= max(values) * 1.01


def test_interpreter_has_no_compiled_phase():
    runner = ExperimentRunner(scale=1)
    handle = runner.run("sym_sum", runtime="pypy", jit=False)
    phases = phase_cpis(runner, handle)
    assert phases["jit_compiled_code"] == 0.0
