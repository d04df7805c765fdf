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

Like the cache model, the predictor has two engines: a scalar reference
that feeds one branch at a time through :class:`BranchPredictor`, which
tests call as the oracle, and the vectorized engine behind
:func:`simulate_branches`, which computes per-branch histories with
grouped window sums and resolves the saturating counters with a
segmented prefix scan of clamped-add functions (saturation composes:
the composition of ``c -> clip(c + a, lo, hi)`` maps is again such a
map). Both produce bit-identical mispredict flags and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import BranchPredictorConfig
from ..host.isa import FLAG_COND, FLAG_INDIRECT, FLAG_TAKEN, InstrKind


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
    """Reference engine: one predictor call per control instruction."""
    n = len(trace_arrays["kind"])
    flags = trace_arrays["flags"]
    addrs = trace_arrays["addr"]
    pcs = trace_arrays["pc"]
    mispredicted = np.zeros(n, dtype=bool)
    predictor = BranchPredictor(config)

    cond_mask, ind_mask = _control_masks(trace_arrays)
    ctrl_idx = np.nonzero(cond_mask | ind_mask)[0]
    if len(ctrl_idx) == 0:
        return mispredicted, predictor.stats

    ctrl_pcs = pcs[ctrl_idx].tolist()
    ctrl_targets = addrs[ctrl_idx].tolist()
    ctrl_taken = ((flags[ctrl_idx] & FLAG_TAKEN) != 0).tolist()
    ctrl_indirect = (ind_mask[ctrl_idx]).tolist()

    predict_cond = predictor.predict_conditional
    predict_ind = predictor.predict_indirect
    results = [
        predict_ind(pc, target) if indirect else predict_cond(pc, taken)
        for pc, target, taken, indirect
        in zip(ctrl_pcs, ctrl_targets, ctrl_taken, ctrl_indirect)
    ]
    mispredicted[ctrl_idx] = results
    return mispredicted, predictor.stats


def _sort_key(values: np.ndarray, limit: int) -> np.ndarray:
    """Cast table indices so argsort takes NumPy's radix path."""
    dtype = np.uint16 if limit <= 65536 else np.int64
    return values.astype(dtype)


def _grouped_positions(sorted_keys: np.ndarray) -> np.ndarray:
    """Occurrence rank of each element within its (contiguous) group."""
    m = len(sorted_keys)
    head = np.empty(m, dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    idx = np.arange(m, dtype=np.int32)
    starts = idx[head]
    counts = np.diff(np.append(starts, m))
    return idx - np.repeat(starts, counts)


def _vec_conditional(pcs: np.ndarray, taken: np.ndarray,
                     config: BranchPredictorConfig) -> np.ndarray:
    """Exact vectorized 2-level predictor; returns mispredict flags."""
    m = len(pcs)
    if m == 0:
        return np.zeros(0, dtype=bool)
    l1_mask = _pow2_mask(config.scaled_l1_entries)
    l2_mask = _pow2_mask(config.scaled_l2_entries)
    hist_mask = (1 << config.history_bits) - 1
    pcs2 = (pcs >> 2).astype(np.int64)
    l1_idx = pcs2 & l1_mask

    # History before each branch = bits of the previous accesses to the
    # same L1 entry: group by entry, then sum windowed shifted copies.
    o1 = np.argsort(_sort_key(l1_idx, l1_mask + 1), kind="stable")
    g_taken = taken[o1].astype(np.int32)
    pos = _grouped_positions(l1_idx[o1])
    history = np.zeros(m, dtype=np.int32)
    contrib = np.zeros(m, dtype=np.int32)
    for k in range(1, min(config.history_bits, int(pos.max())) + 1):
        np.left_shift(g_taken[:-k], k - 1, out=contrib[k:])
        contrib[:k] = 0
        contrib[pos < k] = 0
        history += contrib
    history &= hist_mask
    hist = np.empty(m, dtype=np.int64)
    hist[o1] = history

    # Counter before each branch: group by L2 entry (histories are
    # independent of the counters, so every index is known up front) and
    # run a segmented inclusive scan composing clamped-add functions
    # c -> clip(c + A, L, H); evaluate the prefix of the *previous*
    # element at the initial counter value 2 (weakly taken). Because the
    # counter domain is [0, 3], any |A| >= 4 already saturates, so the
    # whole scan state fits in int8 with A clamped to [-4, 4] each step.
    l2_idx = (hist ^ pcs2) & l2_mask
    o2 = np.argsort(_sort_key(l2_idx, l2_mask + 1), kind="stable")
    taken2 = taken[o2]
    pos2 = _grouped_positions(l2_idx[o2])
    add = np.where(taken2, 1, -1).astype(np.int8)
    lo = np.zeros(m, dtype=np.int8)
    hi = np.full(m, 3, dtype=np.int8)
    new_add = np.empty(m, dtype=np.int8)
    new_lo = np.empty(m, dtype=np.int8)
    new_hi = np.empty(m, dtype=np.int8)
    can = np.empty(m, dtype=bool)
    max_pos = int(pos2.max())
    off = 1
    while off <= max_pos:
        # predecessor at i-off is in the same group iff pos2 >= off
        np.greater_equal(pos2, off, out=can)
        np.add(add[:-off], add[off:], out=new_add[off:])
        np.minimum(new_add, 4, out=new_add)
        np.maximum(new_add, -4, out=new_add)
        np.add(lo[:-off], add[off:], out=new_lo[off:])
        np.maximum(new_lo[off:], lo[off:], out=new_lo[off:])
        np.minimum(new_lo[off:], hi[off:], out=new_lo[off:])
        np.add(hi[:-off], add[off:], out=new_hi[off:])
        np.maximum(new_hi[off:], lo[off:], out=new_hi[off:])
        np.minimum(new_hi[off:], hi[off:], out=new_hi[off:])
        np.copyto(add, new_add, where=can)
        np.copyto(lo, new_lo, where=can)
        np.copyto(hi, new_hi, where=can)
        off *= 2
    counter = np.full(m, 2, dtype=np.int8)
    inner = pos2 > 0
    prev = np.nonzero(inner)[0] - 1
    counter[inner] = np.clip(2 + add[prev], lo[prev], hi[prev])
    mis_sorted = (counter >= 2) != taken2
    mispredicted = np.empty(m, dtype=bool)
    mispredicted[o2] = mis_sorted
    return mispredicted


def _vec_indirect(pcs: np.ndarray, targets: np.ndarray,
                  config: BranchPredictorConfig) -> np.ndarray:
    """Exact vectorized BTB: after any access the entry holds that
    access's (pc, target), so a branch mispredicts iff it is the first
    access to its entry or differs from the immediately preceding one."""
    m = len(pcs)
    if m == 0:
        return np.zeros(0, dtype=bool)
    btb_mask = _pow2_mask(config.scaled_btb_entries)
    bidx = ((pcs >> 2).astype(np.int64)) & btb_mask
    o = np.argsort(_sort_key(bidx, btb_mask + 1), kind="stable")
    g = bidx[o]
    p = pcs[o]
    t = targets[o]
    mis_sorted = np.empty(m, dtype=bool)
    mis_sorted[0] = True
    mis_sorted[1:] = ((g[1:] != g[:-1]) | (p[1:] != p[:-1]) |
                      (t[1:] != t[:-1]))
    mispredicted = np.empty(m, dtype=bool)
    mispredicted[o] = mis_sorted
    return mispredicted


def simulate_branches_vectorized(trace_arrays: dict[str, np.ndarray],
                                 config: BranchPredictorConfig,
                                 ) -> tuple[np.ndarray, BranchStats]:
    """Batched engine; bit-identical outputs to the scalar reference."""
    n = len(trace_arrays["kind"])
    flags = trace_arrays["flags"]
    addrs = trace_arrays["addr"]
    pcs = trace_arrays["pc"]
    mispredicted = np.zeros(n, dtype=bool)
    stats = BranchStats()

    cond_mask, ind_mask = _control_masks(trace_arrays)
    cond_idx = np.nonzero(cond_mask)[0]
    ind_idx = np.nonzero(ind_mask)[0]

    if len(cond_idx):
        taken = (flags[cond_idx] & FLAG_TAKEN) != 0
        cond_mis = _vec_conditional(pcs[cond_idx], taken, config)
        mispredicted[cond_idx] = cond_mis
        stats.conditional = len(cond_idx)
        stats.conditional_mispredicts = int(np.count_nonzero(cond_mis))
    if len(ind_idx):
        ind_mis = _vec_indirect(pcs[ind_idx], addrs[ind_idx], config)
        mispredicted[ind_idx] = ind_mis
        stats.indirect = len(ind_idx)
        stats.indirect_mispredicts = int(np.count_nonzero(ind_mis))
    return mispredicted, stats


def simulate_branches(trace_arrays: dict[str, np.ndarray],
                      config: BranchPredictorConfig,
                      ) -> tuple[np.ndarray, BranchStats]:
    """Run every control instruction through a fresh predictor.

    Returns a per-instruction boolean mispredict array (aligned with the
    full trace) and the aggregate statistics, from the vectorized
    engine.
    """
    return simulate_branches_vectorized(trace_arrays, config)
