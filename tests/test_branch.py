"""Branch predictor: learning, aliasing, BTB, sweep scaling."""

import numpy as np
from conftest import interpreter_like_trace, traced_peak

from repro.config import BranchPredictorConfig
from repro.host.isa import FLAG_COND, FLAG_INDIRECT, FLAG_TAKEN, InstrKind
from repro.uarch.branch import (
    BranchPredictor,
    simulate_branches,
    simulate_branches_scalar,
)


def test_always_taken_is_learned():
    predictor = BranchPredictor(BranchPredictorConfig())
    mispredicts = sum(predictor.predict_conditional(0x400000, True)
                      for _ in range(100))
    assert mispredicts <= 2


def test_alternating_pattern_is_learned_by_history():
    predictor = BranchPredictor(BranchPredictorConfig())
    outcomes = [bool(i % 2) for i in range(400)]
    mispredicts = sum(predictor.predict_conditional(0x400000, t)
                      for t in outcomes)
    # A 2-level predictor learns strict alternation almost perfectly.
    assert mispredicts < 40


def test_loop_exit_pattern():
    predictor = BranchPredictor(BranchPredictorConfig())
    # taken x7 then not-taken, repeated: history captures the period.
    outcomes = ([True] * 7 + [False]) * 60
    mispredicts = sum(predictor.predict_conditional(0x400100, t)
                      for t in outcomes)
    assert mispredicts / len(outcomes) < 0.15


def test_btb_monomorphic_indirect():
    predictor = BranchPredictor(BranchPredictorConfig())
    first = predictor.predict_indirect(0x400000, 0x500000)
    rest = sum(predictor.predict_indirect(0x400000, 0x500000)
               for _ in range(50))
    assert first is True
    assert rest == 0


def test_btb_polymorphic_indirect_mispredicts():
    predictor = BranchPredictor(BranchPredictorConfig())
    targets = [0x500000, 0x600000]
    mispredicts = sum(predictor.predict_indirect(0x400000, targets[i % 2])
                      for i in range(100))
    assert mispredicts > 90


def test_tiny_tables_alias():
    big = BranchPredictor(BranchPredictorConfig())
    tiny = BranchPredictor(BranchPredictorConfig(scale=1 / 256))
    # Many branch sites with conflicting biases: the tiny table aliases.
    big_miss = tiny_miss = 0
    for i in range(2000):
        pc = 0x400000 + 4 * (i % 64)
        taken = (i % 64) % 2 == 0
        big_miss += big.predict_conditional(pc, taken)
        tiny_miss += tiny.predict_conditional(pc, taken)
    assert tiny_miss > big_miss


def test_simulate_branches_alignment():
    n = 6
    arrays = {
        "pc": np.arange(n, dtype=np.int64) * 4,
        "kind": np.array([int(InstrKind.ALU), int(InstrKind.BRANCH),
                          int(InstrKind.BRANCH), int(InstrKind.ICALL),
                          int(InstrKind.ALU), int(InstrKind.BRANCH)],
                         dtype=np.int8),
        "flags": np.array([0, FLAG_COND | FLAG_TAKEN, FLAG_COND,
                           FLAG_TAKEN | FLAG_INDIRECT, 0,
                           FLAG_COND | FLAG_TAKEN], dtype=np.int8),
        "addr": np.array([0, 0, 0, 0x500000, 0, 0], dtype=np.int64),
    }
    mispredicted, stats = simulate_branches(arrays,
                                            BranchPredictorConfig())
    assert len(mispredicted) == n
    assert not mispredicted[0] and not mispredicted[4]
    assert stats.conditional == 3
    assert stats.indirect == 1


def test_unconditional_direct_branches_are_free():
    arrays = {
        "pc": np.zeros(4, dtype=np.int64),
        "kind": np.full(4, int(InstrKind.BRANCH), dtype=np.int8),
        "flags": np.full(4, FLAG_TAKEN, dtype=np.int8),  # not FLAG_COND
        "addr": np.zeros(4, dtype=np.int64),
    }
    mispredicted, stats = simulate_branches(arrays,
                                            BranchPredictorConfig())
    assert stats.conditional == 0
    assert stats.total_mispredicts == 0
    assert not mispredicted.any()


def test_stats_accuracy_properties():
    predictor = BranchPredictor(BranchPredictorConfig())
    for i in range(50):
        predictor.predict_conditional(0x400000, True)
    stats = predictor.stats
    assert 0.9 <= stats.conditional_accuracy <= 1.0
    assert stats.indirect_accuracy == 1.0


def test_scalar_walk_allocates_a_bounded_chunk():
    """The scalar oracle feeds the predictor one chunk of rows at a
    time: on a 1M-row trace it allocates at most 8 B/row, its bool
    output included, where whole-column lists took over 15 B/row."""
    rows = 1 << 20
    trace = interpreter_like_trace(rows)
    (_, stats), peak = traced_peak(
        lambda: simulate_branches_scalar(trace, BranchPredictorConfig()))
    assert stats.conditional + stats.indirect > rows // 10
    assert peak / rows <= 8.0, peak / rows
