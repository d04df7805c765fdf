"""Simple core timing model (Section IV-B.2).

"In the simple core model, instruction latency is only affected by misses
in the instruction and data caches. Otherwise, an instruction takes a
single cycle." Because every cycle belongs to exactly one instruction,
cycles can be attributed to overhead categories exactly — this model backs
all of the breakdown figures (Figs 4, 5, 6, 11, 13) through
:func:`repro.pintool.postprocess.attribute`.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from .cache import SERVICE_L1, SERVICE_MEM


def _service_penalties(config: MachineConfig) -> np.ndarray:
    """Extra cycles per service level beyond the single base cycle.

    Index by service level + 1 so that SERVICE_NONE (-1) maps to zero.
    """
    return np.array([
        0.0,                                         # not a memory access
        0.0,                                         # L1 hit: the 1 cycle
        float(config.l2.latency),                    # L2 hit
        float(config.l2.latency + config.l3.latency),  # LLC hit
        float(config.l2.latency + config.l3.latency
              + config.memory.latency),              # memory
    ])


def simple_core_cycles(dlevel: np.ndarray, ilevel: np.ndarray,
                       config: MachineConfig) -> np.ndarray:
    """Per-instruction cycle counts under the simple core model."""
    penalties = _service_penalties(config)
    cycles = np.ones(len(dlevel), dtype=np.float64)
    cycles += penalties[dlevel.astype(np.int64) + 1]
    cycles += penalties[ilevel.astype(np.int64) + 1]
    return cycles


__all__ = ["simple_core_cycles", "SERVICE_L1", "SERVICE_MEM"]
