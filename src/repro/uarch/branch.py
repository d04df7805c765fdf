"""Two-level branch predictor with 2-bit counters, plus a BTB.

Table I: "2-level 2-bit BP with 2048x18b L1, 16384x2b L2". The first-level
table holds per-address branch history registers; the second level holds
2-bit saturating counters indexed by the history XORed with the branch PC.
Scaling both tables is the Figure 7(b) sweep axis.

Indirect calls and jumps are predicted by a direct-mapped branch target
buffer; returns are assumed to be predicted perfectly by a return address
stack, and unconditional direct branches/calls are always correct. This
separation lets the analysis quantify the *indirect* share of the C
function call overhead the way Section IV-C.1 does.

Like the cache model, the predictor has two engines, both feeding one
branch at a time in program order: a scalar reference that drives
:class:`BranchPredictor` (:func:`simulate_branches_scalar`, which tests
call as the oracle), and the compiled walk in
:mod:`~repro.uarch._ooo_kernel`, which keeps the same tables in C.
:func:`simulate_branches` runs the compiled walk when a C compiler built
it and the scalar engine otherwise; both produce bit-identical
mispredict flags and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import BranchPredictorConfig
from ..host.isa import FLAG_COND, FLAG_INDIRECT, FLAG_TAKEN, InstrKind
from .cache import SCALAR_CHUNK_ROWS


@dataclass
class BranchStats:
    """Outcome counters for one simulated trace."""

    conditional: int = 0
    conditional_mispredicts: int = 0
    indirect: int = 0
    indirect_mispredicts: int = 0

    @property
    def conditional_accuracy(self) -> float:
        if not self.conditional:
            return 1.0
        return 1.0 - self.conditional_mispredicts / self.conditional

    @property
    def indirect_accuracy(self) -> float:
        if not self.indirect:
            return 1.0
        return 1.0 - self.indirect_mispredicts / self.indirect

    @property
    def total_mispredicts(self) -> int:
        return self.conditional_mispredicts + self.indirect_mispredicts


class BranchPredictor:
    """Stateful predictor; feed it branches in program order."""

    def __init__(self, config: BranchPredictorConfig) -> None:
        self.config = config
        self._l1_mask = _pow2_mask(config.scaled_l1_entries)
        self._l2_mask = _pow2_mask(config.scaled_l2_entries)
        self._btb_mask = _pow2_mask(config.scaled_btb_entries)
        self._history = [0] * (self._l1_mask + 1)
        # 2-bit counters, initialized weakly taken.
        self._counters = bytearray([2] * (self._l2_mask + 1))
        self._btb_tag = [-1] * (self._btb_mask + 1)
        self._btb_target = [0] * (self._btb_mask + 1)
        self._history_mask = (1 << config.history_bits) - 1
        self.stats = BranchStats()

    def predict_conditional(self, pc: int, taken: bool) -> bool:
        """Predict + train one conditional branch; True if mispredicted."""
        stats = self.stats
        stats.conditional += 1
        l1_idx = (pc >> 2) & self._l1_mask
        history = self._history[l1_idx]
        l2_idx = (history ^ (pc >> 2)) & self._l2_mask
        counter = self._counters[l2_idx]
        predicted_taken = counter >= 2
        mispredicted = predicted_taken != taken
        if mispredicted:
            stats.conditional_mispredicts += 1
        if taken:
            if counter < 3:
                self._counters[l2_idx] = counter + 1
        elif counter > 0:
            self._counters[l2_idx] = counter - 1
        self._history[l1_idx] = \
            ((history << 1) | taken) & self._history_mask
        return mispredicted

    def predict_indirect(self, pc: int, target: int) -> bool:
        """Predict + train one indirect call/jump via the BTB."""
        stats = self.stats
        stats.indirect += 1
        idx = (pc >> 2) & self._btb_mask
        mispredicted = (self._btb_tag[idx] != pc or
                        self._btb_target[idx] != target)
        if mispredicted:
            stats.indirect_mispredicts += 1
            self._btb_tag[idx] = pc
            self._btb_target[idx] = target
        return mispredicted


def _pow2_mask(entries: int) -> int:
    """Mask for the largest power of two not exceeding ``entries``."""
    size = 1 << max(2, (entries.bit_length() - 1))
    if size * 2 <= entries:
        size *= 2
    return size - 1


def _control_masks(trace_arrays: dict[str, np.ndarray],
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(conditional, indirect) masks; indirect wins when both are set."""
    kinds = trace_arrays["kind"]
    flags = trace_arrays["flags"]
    ind_mask = (((kinds == int(InstrKind.ICALL)) |
                 (kinds == int(InstrKind.BRANCH))) &
                ((flags & FLAG_INDIRECT) != 0))
    cond_mask = (kinds == int(InstrKind.BRANCH)) & \
                ((flags & FLAG_COND) != 0) & ~ind_mask
    return cond_mask, ind_mask


def simulate_branches_scalar(trace_arrays: dict[str, np.ndarray],
                             config: BranchPredictorConfig,
                             ) -> tuple[np.ndarray, BranchStats]:
    """Reference engine: one predictor call per control instruction,
    fed from chunks of :data:`~repro.uarch.cache.SCALAR_CHUNK_ROWS`
    rows."""
    kinds = trace_arrays["kind"]
    flags = trace_arrays["flags"]
    addrs = trace_arrays["addr"]
    pcs = trace_arrays["pc"]
    n = len(kinds)
    mispredicted = np.zeros(n, dtype=bool)
    predictor = BranchPredictor(config)
    predict_cond = predictor.predict_conditional
    predict_ind = predictor.predict_indirect
    for start in range(0, n, SCALAR_CHUNK_ROWS):
        stop = start + SCALAR_CHUNK_ROWS
        chunk_flags = flags[start:stop]
        cond_mask, ind_mask = _control_masks(
            {"kind": kinds[start:stop], "flags": chunk_flags})
        rows = np.flatnonzero(cond_mask | ind_mask)
        if not len(rows):
            continue
        mispredicted[start + rows] = [
            predict_ind(pc, target) if indirect else predict_cond(pc, taken)
            for pc, target, taken, indirect in zip(
                pcs[start:stop][rows].tolist(),
                addrs[start:stop][rows].tolist(),
                ((chunk_flags[rows] & FLAG_TAKEN) != 0).tolist(),
                ind_mask[rows].tolist())
        ]
    return mispredicted, predictor.stats


def simulate_branches(trace_arrays: dict[str, np.ndarray],
                      config: BranchPredictorConfig,
                      ) -> tuple[np.ndarray, BranchStats]:
    """Run every control instruction through a fresh predictor.

    Returns a per-instruction boolean mispredict array (aligned with the
    full trace) and the aggregate statistics, from the compiled walk
    when one was built, else from :func:`simulate_branches_scalar`.
    """
    from . import _ooo_kernel
    if not _ooo_kernel.kernel_available():
        return simulate_branches_scalar(trace_arrays, config)
    masks = (_pow2_mask(config.scaled_l1_entries),
             _pow2_mask(config.scaled_l2_entries),
             _pow2_mask(config.scaled_btb_entries),
             (1 << config.history_bits) - 1)
    mispredicted, counts = _ooo_kernel.branch_walk(
        trace_arrays["pc"], trace_arrays["kind"], trace_arrays["flags"],
        trace_arrays["addr"], masks)
    return mispredicted, BranchStats(*counts)
