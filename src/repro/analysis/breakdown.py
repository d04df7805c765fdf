"""Execution-time breakdowns (Figures 4, 5, 6 and the C-library split).

Breakdowns use the simple core model so that every cycle belongs to one
instruction and hence one category (Section IV-B.2), and resolve
caller-dependent sites through the pintool's origin rules.
"""

from __future__ import annotations

from ..categories import OverheadCategory
from ..config import MachineConfig, skylake_config
from ..host.isa import InstrKind
from ..pintool.postprocess import Attribution, Breakdown, attribute
from ..experiments.runner import ExperimentRunner, RunHandle

_CCALL = int(OverheadCategory.C_FUNCTION_CALL)


def attribute_run(runner: ExperimentRunner, handle: RunHandle,
                  config: MachineConfig | None = None) -> Attribution:
    """Simple-core attribution of one finished run.

    The cache service levels come from ``runner.memory_side``, so one
    (run, memory geometry) pair is simulated once and then served from
    the runner's memory and disk caches.
    """
    if config is None:
        config = skylake_config()
    return attribute(handle.trace, handle.site_table,
                     runner.memory_side(handle, config), config)


def breakdown_for_run(runner: ExperimentRunner, handle: RunHandle,
                      config: MachineConfig | None = None) -> Breakdown:
    """Category breakdown of one finished run."""
    return attribute_run(runner, handle, config).breakdown(
        handle.runtime, handle.workload)


def suite_breakdowns(runner: ExperimentRunner, workloads,
                     runtime: str = "cpython", jit: bool = True,
                     nursery: int = 1024 * 1024,
                     config: MachineConfig | None = None,
                     ) -> dict[str, Breakdown]:
    """Breakdowns for a list of workloads on one runtime."""
    results: dict[str, Breakdown] = {}
    for name in workloads:
        handle = runner.run(name, runtime=runtime, jit=jit,
                            nursery=nursery)
        results[name] = breakdown_for_run(runner, handle, config)
    return results


def average_shares(breakdowns: dict[str, Breakdown],
                   ) -> dict[OverheadCategory, float]:
    """Arithmetic mean of per-workload category shares (paper style)."""
    if not breakdowns:
        return {}
    totals: dict[OverheadCategory, float] = {}
    for breakdown in breakdowns.values():
        for category in OverheadCategory:
            totals[category] = totals.get(category, 0.0) \
                + breakdown.share(category)
    count = len(breakdowns)
    return {category: value / count for category, value in totals.items()
            if value > 0}


def indirect_call_fraction(handle: RunHandle,
                           attribution: Attribution) -> tuple:
    """(indirect share of C-call cycles, indirect share of all cycles).

    Section IV-C.1 reports indirect calls as 11.9% of the C function
    call overhead and ~1.9% of overall execution on average.
    """
    cycles = attribution.cycles
    ccall_mask = attribution.categories == _CCALL
    indirect_mask = ccall_mask & (handle.trace.column("kind")
                                  == int(InstrKind.ICALL))
    ccall_cycles = float(cycles[ccall_mask].sum())
    indirect_cycles = float(cycles[indirect_mask].sum())
    total = float(cycles.sum())
    if ccall_cycles == 0 or total == 0:
        return 0.0, 0.0
    return indirect_cycles / ccall_cycles, indirect_cycles / total
