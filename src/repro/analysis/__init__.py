"""Analysis layer: breakdowns, parameter sweeps, nursery studies."""

from .report import render_table, render_series, format_percent
from .breakdown import (
    attribute_run,
    breakdown_for_run,
    suite_breakdowns,
    average_shares,
    indirect_call_fraction,
)
from .sweeps import SWEEP_AXES, SweepResult, run_sweep, phase_cpis
from .nursery import (
    NURSERY_RATIOS,
    NurseryPoint,
    nursery_sweep,
    paper_equivalent_label,
)

__all__ = [
    "render_table", "render_series", "format_percent",
    "attribute_run", "breakdown_for_run", "suite_breakdowns",
    "average_shares",
    "indirect_call_fraction",
    "SWEEP_AXES", "SweepResult", "run_sweep", "phase_cpis",
    "NURSERY_RATIOS", "NurseryPoint", "nursery_sweep",
    "paper_equivalent_label",
]
