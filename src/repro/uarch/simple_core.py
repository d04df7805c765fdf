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


#: Rows per chunk: ``take`` widens its indices to intp, so chunks bound
#: that temporary at 2 MB whatever the trace length.
_CHUNK_ROWS = 1 << 18


def _service_penalties(config: MachineConfig) -> np.ndarray:
    """Extra cycles per service level beyond the single base cycle.

    Index by service level + 1 so that SERVICE_NONE (-1) maps to zero.
    """
    return np.array([
        0,                                           # not a memory access
        0,                                           # L1 hit: the 1 cycle
        config.l2.latency,                           # L2 hit
        config.l2.latency + config.l3.latency,       # LLC hit
        config.l2.latency + config.l3.latency
        + config.memory.latency,                     # memory
    ], dtype=np.int32)


def simple_core_cycles(dlevel: np.ndarray, ilevel: np.ndarray,
                       config: MachineConfig) -> np.ndarray:
    """Per-instruction cycle counts (int32) under the simple core model.

    One lookup per row into a 25-entry table indexed by (data, fetch)
    service level, in bounded chunks; every count is a whole number,
    so sums of them are exact.
    """
    penalties = _service_penalties(config)
    table = (1 + penalties[:, None] + penalties[None, :]).ravel()
    n = len(dlevel)
    cycles = np.empty(n, dtype=np.int32)
    for start in range(0, n, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        index = dlevel[start:stop] + 1
        index *= len(penalties)
        index += ilevel[start:stop]
        index += 1
        table.take(index, out=cycles[start:stop])
    return cycles


__all__ = ["simple_core_cycles", "SERVICE_L1", "SERVICE_MEM"]
