"""Zsim-analog microarchitecture models.

The package consumes :class:`~repro.host.trace.InstructionTrace` columns
and produces cycle counts, CPI, and cache/branch statistics. Following the
paper (Section IV-B.2), two core models are provided:

* :mod:`~repro.uarch.simple_core` — every instruction takes one cycle plus
  instruction- and data-cache miss penalties. Cycles map one-to-one to
  instructions, which is what makes per-category attribution exact.
* :mod:`~repro.uarch.ooo_core` — an approximate out-of-order model with
  issue width, ROB-window, dependence-chain, branch-mispredict, and
  memory-bandwidth constraints; used for the Figure 7-9 sweeps.
"""

from .cache import CacheHierarchy, CacheStats, simulate_cache_hierarchy
from .branch import BranchPredictor, BranchStats, simulate_branches
from .dram import DramModel
from .simple_core import simple_core_cycles
from .ooo_core import ooo_cycles
from .system import SimulatedSystem, SimResult, MemorySideState

__all__ = [
    "CacheHierarchy", "CacheStats", "simulate_cache_hierarchy",
    "BranchPredictor", "BranchStats", "simulate_branches",
    "DramModel", "simple_core_cycles", "ooo_cycles",
    "SimulatedSystem", "SimResult", "MemorySideState",
]
