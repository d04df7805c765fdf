"""Microarchitecture parameter sweeps (Figures 7, 8, 9).

Each axis modifies one Table I parameter; CPI is measured on the
approximate OOO core. PyPy-with-JIT runs are additionally broken into
execution phases (bytecode interpreter / garbage collection / JIT
compiled code) using the category column, the way the paper annotates
PyPy at function granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..categories import OverheadCategory
from ..config import MachineConfig, skylake_config
from ..errors import ExperimentError
from ..experiments.runner import ExperimentRunner, RunHandle
from .breakdown import attribute_run

KB = 1024
MB = 1024 * KB

#: Figure 7 sweep axes: name -> (x values, config transform).
SWEEP_AXES: dict[str, tuple] = {
    "issue_width": (
        (2, 4, 8, 16, 32),
        lambda base, v: base.with_issue_width(v)),
    "branch_scale": (
        (0.5, 1.0, 2.0, 4.0, 8.0),
        lambda base, v: base.with_branch_scale(v)),
    "cache_size": (
        (256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB, 8 * MB, 16 * MB),
        lambda base, v: base.with_llc_size(v)),
    "line_size": (
        (64, 128, 256, 512, 1024, 2048, 4096),
        lambda base, v: base.with_line_size(v)),
    "memory_latency": (
        (50, 100, 200, 400),
        lambda base, v: base.with_memory_latency(v)),
    "memory_bandwidth": (
        (200, 400, 800, 1600, 3200, 6400, 12800, 25600),
        lambda base, v: base.with_memory_bandwidth(v)),
}

#: The three run-time variants compared throughout Figure 7.
RUNTIME_VARIANTS = (
    ("cpython", "cpython", False),
    ("pypy-nojit", "pypy", False),
    ("pypy-jit", "pypy", True),
)

_GC = int(OverheadCategory.GARBAGE_COLLECTION)
_JIT_CODE = int(OverheadCategory.JIT_COMPILED_CODE)


@dataclass
class SweepResult:
    """CPI grids: axis -> variant -> list of CPI values along the axis."""

    axes: dict[str, tuple] = field(default_factory=dict)
    cpi: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def axis_values(self, axis: str) -> tuple:
        return self.axes[axis]

    def series(self, axis: str) -> dict[str, list[float]]:
        return self.cpi[axis]


def axis_config(base: MachineConfig, axis: str, value) -> MachineConfig:
    entry = SWEEP_AXES.get(axis)
    if entry is None:
        raise ExperimentError(
            f"unknown sweep axis {axis!r}; known: {sorted(SWEEP_AXES)}")
    return entry[1](base, value)


def quick_axes(points: int = 3) -> dict[str, tuple]:
    """Trimmed axes (first/middle/last values) for fast runs."""
    trimmed = {}
    for axis, (values, _) in SWEEP_AXES.items():
        if len(values) <= points:
            trimmed[axis] = values
        else:
            middle = values[len(values) // 2]
            trimmed[axis] = (values[0], middle, values[-1])
    return trimmed


def _variant_cell(runner: ExperimentRunner, label: str, runtime: str,
                  jit: bool, workload: str, axes: dict, base: MachineConfig,
                  nursery: int) -> dict[tuple, float]:
    """One (runtime variant, workload) sweep cell: CPI per axis point.

    The guest trace is generated once and reused across every axis
    point. Module-level so the parallel fan-out can pickle it.
    """
    handle = runner.run(workload, runtime=runtime, jit=jit,
                        nursery=nursery)
    points = [(axis, value)
              for axis, values in axes.items() for value in values]
    configs = [axis_config(base, axis, value) for axis, value in points]
    sims = runner.simulate_many_configs(handle, configs, core="ooo")
    return {(axis, label, value): sim.cpi
            for (axis, value), sim in zip(points, sims)}


def run_sweep(runner: ExperimentRunner, workloads,
              variants=RUNTIME_VARIANTS,
              axes: dict[str, tuple] | None = None,
              base: MachineConfig | None = None,
              nursery: int = 1 * MB,
              jobs: int | None = None) -> SweepResult:
    """Average CPI for each (axis value, runtime variant) pair.

    Independent (variant, workload) cells either run serially
    (workload-outer, so each guest trace is generated once and reused
    across every axis point) or fan out over ``jobs`` processes; the
    per-key accumulation order is identical either way, so the result
    is bit-for-bit independent of ``jobs``.
    """
    if base is None:
        base = skylake_config()
    if axes is None:
        axes = {name: values for name, (values, _) in SWEEP_AXES.items()}
    from ..experiments.parallel import fan_out
    result = SweepResult(axes=dict(axes))
    cells = [(label, runtime, jit, workload, dict(axes), base, nursery)
             for label, runtime, jit in variants
             for workload in workloads]
    sums: dict[tuple, float] = {}
    for cell_cpis in fan_out(runner, _variant_cell, cells, jobs):
        for key, cpi in cell_cpis.items():
            sums[key] = sums.get(key, 0.0) + cpi
    n = len(list(workloads))
    for axis, values in axes.items():
        result.cpi[axis] = {}
        for label, _, _ in variants:
            result.cpi[axis][label] = [
                sums[(axis, label, value)] / n for value in values]
    return result


def phase_cpis(runner: ExperimentRunner, handle: RunHandle,
               config: MachineConfig | None = None) -> dict[str, float]:
    """Simple-core CPI per PyPy execution phase (Figure 7 legend).

    Phases follow the paper: the bytecode interpreter (including the
    meta-interpreter/tracing work), the garbage collector, and JIT
    compiled code.
    """
    attribution = attribute_run(runner, handle, config)
    cycles, categories = attribution.cycles, attribution.categories
    gc_mask = categories == _GC
    jit_mask = categories == _JIT_CODE
    interp_mask = ~(gc_mask | jit_mask)
    phases = {}
    for name, mask in (("bytecode_interpreter", interp_mask),
                       ("garbage_collection", gc_mask),
                       ("jit_compiled_code", jit_mask)):
        count = int(mask.sum())
        phases[name] = float(cycles[mask].sum()) / count if count else 0.0
    phases["overall"] = float(cycles.sum()) / max(1, len(categories))
    return phases
