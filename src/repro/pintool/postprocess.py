"""Post-processing: origin resolution and cycle attribution (IV-B.3).

Takes a finished trace, the machine's site table and the trace's
memory-side state, resolves every UNRESOLVED instruction to a concrete
category using the annotation table's origin rules, and charges each
instruction its simple-core cycles (:func:`attribute`). Every breakdown
— Figures 4, 5, 6, 7's phase CPIs, 11 and 13, ``repro run`` and
``repro breakdown`` — derives from that one :class:`Attribution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..categories import (
    C_LIBRARY_SHARE_CATEGORIES,
    LANGUAGE_FEATURE_CATEGORIES,
    INTERPRETER_CATEGORIES,
    OVERHEAD_CATEGORIES,
    OverheadCategory,
    label_of,
)
from ..config import MachineConfig, skylake_config
from ..host.trace import InstructionTrace
from ..uarch.simple_core import simple_core_cycles
from ..uarch.system import MemorySideState
from .annotate import AnnotationTable, default_annotations

_UNRESOLVED = int(OverheadCategory.UNRESOLVED)

#: Rows per chunk of :meth:`Attribution.breakdown`.
_CHUNK_ROWS = 1 << 18


def resolve_categories(trace: InstructionTrace,
                       site_table: dict[str, int],
                       annotations: AnnotationTable | None = None,
                       ) -> np.ndarray:
    """Return the category column with UNRESOLVED entries resolved.

    Resolution uses the recorded origin PC and the annotation table, the
    way the paper's post-processing maps (function, origin PC) pairs to
    categories. Only the ``category`` and ``origin`` columns are read.
    """
    if annotations is None:
        annotations = default_annotations()
    categories = trace.column("category").copy()
    unresolved = categories == _UNRESOLVED
    if not unresolved.any():
        return categories
    bound = annotations.bind(site_table)
    origins = trace.column("origin")[unresolved]
    resolved = np.full(len(origins), int(annotations.default_category),
                       dtype=categories.dtype)
    for origin_pc, category in bound.items():
        resolved[origins == origin_pc] = category
    categories[unresolved] = resolved
    return categories


@dataclass
class Breakdown:
    """Per-category cycle attribution for one run."""

    runtime: str
    workload: str
    cycles: dict[OverheadCategory, float] = field(default_factory=dict)

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles.values())

    def share(self, category: OverheadCategory) -> float:
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.cycles.get(category, 0.0) / total

    def group_share(self, categories) -> float:
        total = self.total_cycles
        if total == 0:
            return 0.0
        return sum(self.cycles.get(c, 0.0) for c in categories) / total

    @property
    def overhead_share(self) -> float:
        """Fraction of cycles in Table II overhead categories."""
        return self.group_share(OVERHEAD_CATEGORIES)

    @property
    def language_share(self) -> float:
        """Figure 4(a): additional + dynamic language features."""
        return self.group_share(LANGUAGE_FEATURE_CATEGORIES)

    @property
    def interpreter_share(self) -> float:
        """Figure 4(b): interpreter operations."""
        return self.group_share(INTERPRETER_CATEGORIES)

    @property
    def c_library_share(self) -> float:
        return self.group_share(C_LIBRARY_SHARE_CATEGORIES)

    @property
    def c_function_call_share(self) -> float:
        return self.share(OverheadCategory.C_FUNCTION_CALL)

    @property
    def gc_share(self) -> float:
        return self.share(OverheadCategory.GARBAGE_COLLECTION)

    def top_categories(self, n: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.cycles.items(), key=lambda kv: -kv[1])
        return [(label_of(cat), self.share(cat)) for cat, _ in ranked[:n]]


@dataclass
class Attribution:
    """Simple-core cycles (int32) and resolved category (int8) of every
    instruction.

    Every simple-core cycle is a whole number, so any sum over any
    subset of instructions is exact in float64 and does not depend on
    summation order.
    """

    cycles: np.ndarray
    categories: np.ndarray

    def breakdown(self, runtime: str = "cpython",
                  workload: str = "<unknown>") -> Breakdown:
        """Cycles per category, in category order, empty ones dropped.

        Bincounts in chunks, so its float64 weights and intp indices
        stay bounded whatever the trace length.
        """
        sums = np.zeros(len(OverheadCategory))
        for start in range(0, len(self.cycles), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            sums += np.bincount(self.categories[start:stop],
                                weights=self.cycles[start:stop],
                                minlength=len(sums))
        breakdown = Breakdown(runtime=runtime, workload=workload)
        for category in OverheadCategory:
            value = float(sums[int(category)])
            if value > 0:
                breakdown.cycles[category] = value
        return breakdown


def attribute(trace: InstructionTrace, site_table: dict[str, int],
              state: MemorySideState,
              config: MachineConfig | None = None,
              annotations: AnnotationTable | None = None,
              ) -> Attribution:
    """Charge every instruction its simple-core cycles (Section IV-B.2)
    and its origin-resolved category.

    ``state`` is the trace's memory-side result for ``config``'s cache
    geometry (``SimulatedSystem.memory_side`` or the experiment
    runner's cached ``memory_side``); ``config`` supplies the miss
    latencies.
    """
    if config is None:
        config = skylake_config()
    return Attribution(
        cycles=simple_core_cycles(state.dlevel, state.ilevel, config),
        categories=resolve_categories(trace, site_table, annotations))
