"""Whole-system simulation: trace in, cycles and statistics out.

:class:`SimulatedSystem` wires the cache hierarchy, branch predictor, DRAM
model, and a core model together. The memory-side state (cache service
levels, branch mispredict flags) is computed once per (trace, machine
config) and can be reused across core-model parameters — the experiment
sweeps exploit this so that, say, an issue-width sweep does not re-run the
cache simulation. :meth:`SimulatedSystem.memory_side` is the only place
the cache hierarchy is simulated: every core model and every breakdown
reads its cache service levels from a :class:`MemorySideState`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import MachineConfig, skylake_config
from ..host.trace import InstructionTrace
from ..telemetry import TELEMETRY
from .branch import BranchStats, simulate_branches
from .cache import CacheStats, simulate_cache_hierarchy
from .ooo_core import ooo_cycles, ooo_cycles_many
from .simple_core import simple_core_cycles


@dataclass
class MemorySideState:
    """Cache and branch simulation outputs for one (trace, config) pair."""

    dlevel: np.ndarray
    ilevel: np.ndarray
    cache_stats: dict[str, CacheStats]
    mem_lines: int
    mispredicted: np.ndarray
    branch_stats: BranchStats

    @property
    def llc_miss_rate(self) -> float:
        return self.cache_stats["L3"].miss_rate


@dataclass
class SimResult:
    """Timing result for one trace on one machine configuration."""

    instructions: int
    cycles: float
    core_model: str
    cache_stats: dict[str, CacheStats]
    branch_stats: BranchStats

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def llc_miss_rate(self) -> float:
        return self.cache_stats["L3"].miss_rate


class SimulatedSystem:
    """The paper's Zsim-analog: Table I machine by default."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config if config is not None else skylake_config()

    @staticmethod
    def _note_throughput(stage: str, instructions: int,
                         elapsed: float) -> None:
        """Gauge: simulated instructions per host second, per stage."""
        if elapsed > 0:
            TELEMETRY.metrics.gauge(
                "sim.instructions_per_second",
                stage=stage).set(instructions / elapsed)

    def memory_side(self, trace: InstructionTrace) -> MemorySideState:
        """Run cache hierarchy and branch predictor over the trace."""
        start = time.perf_counter() if TELEMETRY.enabled else 0.0
        arrays = trace.arrays()
        cache_result = simulate_cache_hierarchy(arrays, self.config)
        mispredicted, branch_stats = simulate_branches(
            arrays, self.config.branch)
        if TELEMETRY.enabled:
            self._note_throughput("memory_side", len(trace),
                                  time.perf_counter() - start)
        return MemorySideState(
            dlevel=cache_result.dlevel,
            ilevel=cache_result.ilevel,
            cache_stats=cache_result.stats,
            mem_lines=cache_result.mem_lines,
            mispredicted=mispredicted,
            branch_stats=branch_stats)

    def run(self, trace: InstructionTrace, core: str = "ooo",
            state: MemorySideState | None = None) -> SimResult:
        """Simulate the trace end to end.

        ``core`` selects the timing model: ``"simple"`` (Section IV-B.2;
        its per-category attribution is
        :func:`repro.pintool.postprocess.attribute`) or ``"ooo"`` for
        the sweeps.
        A precomputed ``state`` may be passed to reuse memory-side
        results.
        """
        if state is None:
            state = self.memory_side(trace)
        start = time.perf_counter() if TELEMETRY.enabled else 0.0
        if core == "simple":
            cycles = float(simple_core_cycles(
                state.dlevel, state.ilevel, self.config).sum())
            if TELEMETRY.enabled:
                self._note_throughput("core.simple", len(trace),
                                      time.perf_counter() - start)
            return SimResult(
                instructions=len(trace), cycles=cycles, core_model="simple",
                cache_stats=state.cache_stats,
                branch_stats=state.branch_stats)
        if core == "ooo":
            cycles = ooo_cycles(trace.arrays(), state.dlevel,
                                state.ilevel, state.mispredicted,
                                self.config)
            if TELEMETRY.enabled:
                self._note_throughput("core.ooo", len(trace),
                                      time.perf_counter() - start)
            return SimResult(
                instructions=len(trace), cycles=cycles, core_model="ooo",
                cache_stats=state.cache_stats,
                branch_stats=state.branch_stats)
        raise ValueError(f"unknown core model: {core!r}")

    @staticmethod
    def run_many_configs(trace: InstructionTrace, configs,
                         states, core: str = "ooo") -> list[SimResult]:
        """Simulate one trace under many configs in batched walks.

        ``configs`` and ``states`` are parallel sequences, each state
        the :class:`MemorySideState` of its config's memory-side
        geometry; configs of a latency/bandwidth/issue-width axis share
        one state object. The OOO kernel walks every (state, config)
        pair over the stored columns in turn, copying nothing per
        state. Results are bit-identical to per-config :meth:`run`
        calls, in input order.
        """
        if len(states) != len(configs):
            raise ValueError("states and configs must be parallel "
                             "sequences")
        if core != "ooo":
            return [SimulatedSystem(config).run(trace, core=core,
                                                state=state)
                    for config, state in zip(configs, states)]
        arrays = trace.arrays()
        start = time.perf_counter() if TELEMETRY.enabled else 0.0
        cycles = ooo_cycles_many(arrays, states, configs)
        if TELEMETRY.enabled and cycles:
            SimulatedSystem._note_throughput(
                "core.ooo", len(trace) * len(configs),
                time.perf_counter() - start)
        return [SimResult(instructions=len(trace), cycles=c,
                          core_model="ooo",
                          cache_stats=state.cache_stats,
                          branch_stats=state.branch_stats)
                for c, state in zip(cycles, states)]
