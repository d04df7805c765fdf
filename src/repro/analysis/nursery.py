"""Nursery-size studies (Figures 10 through 17).

The paper sweeps the PyPy nursery from 512 kB to 128 MB against a 2 MB
LLC. Simulating those absolute sizes under double interpretation is
intractable, and the trade-off depends only on the *ratio* between
nursery, LLC, and allocation volume — so the harness runs on a
proportionally scaled Table I machine (:func:`repro.config.
scaled_config`) and reports each point with its paper-equivalent label
(ratio x 2 MB). EXPERIMENTS.md documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..categories import OverheadCategory
from ..config import MachineConfig, scaled_config
from ..experiments.runner import ExperimentRunner
from ..pintool.postprocess import attribute

MB = 1024 * 1024

#: Nursery sizes as fractions/multiples of the LLC. Against the paper's
#: 2 MB LLC these are exactly its 512k .. 128M axis.
NURSERY_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Trimmed ratio axis for quick runs: keeps both sides of the crossover.
QUICK_RATIOS = (0.25, 0.5, 1.0, 2.0, 8.0)

_GC = int(OverheadCategory.GARBAGE_COLLECTION)


def paper_equivalent_label(ratio: float) -> str:
    """Label a ratio point in the paper's units (ratio x 2 MB LLC)."""
    bytes_equiv = ratio * 2 * MB
    if bytes_equiv >= MB:
        value = bytes_equiv / MB
        return f"{value:g}M"
    return f"{bytes_equiv / 1024:g}k"


@dataclass
class NurseryPoint:
    """Measurements at one nursery size."""

    ratio: float
    nursery_bytes: int
    label: str
    llc_miss_rate: float
    ooo_cycles: float
    simple_cycles: float
    gc_cycles: float
    nongc_cycles: float
    minor_gcs: int
    major_gcs: int

    @property
    def gc_fraction(self) -> float:
        if self.simple_cycles == 0:
            return 0.0
        return self.gc_cycles / self.simple_cycles


def sweep_memo_key(workload: str, jit: bool = True, runtime: str = "pypy",
                   ratios=NURSERY_RATIOS,
                   config: MachineConfig | None = None,
                   shift: int = 4,
                   ratio_base: int | None = None) -> tuple:
    """Memo key of one :func:`nursery_sweep` call (same signature).

    Exposed so the parallel figure harness can seed the runner's memo
    with worker-computed sweeps before the serial aggregation loops run.
    """
    if config is None:
        config = scaled_config(shift)
    llc = ratio_base if ratio_base is not None else config.l3.size
    return (workload, jit, runtime, tuple(ratios), llc,
            config.l3.size, config.l2.size, config.l1d.size)


def sweep_memo(runner: ExperimentRunner) -> dict:
    """The runner's nursery-sweep memo, created on first use."""
    cache = getattr(runner, "_nursery_sweeps", None)
    if cache is None:
        cache = {}
        runner._nursery_sweeps = cache
    return cache


def nursery_sweep(runner: ExperimentRunner, workload: str,
                  jit: bool = True, runtime: str = "pypy",
                  ratios=NURSERY_RATIOS,
                  config: MachineConfig | None = None,
                  shift: int = 4,
                  ratio_base: int | None = None) -> list[NurseryPoint]:
    """Run one workload across nursery sizes on a scaled machine.

    ``shift`` selects the machine scale (see
    :func:`repro.config.scaled_config`); nursery sizes are ratios of the
    scaled LLC so the paper's 512k..128M axis maps one-to-one.
    ``ratio_base`` overrides the LLC size the ratios refer to — used
    when sweeping *cache sizes* at fixed nursery points (Figs 12, 16).
    """
    if config is None:
        config = scaled_config(shift)
    llc = ratio_base if ratio_base is not None else config.l3.size
    # Figures 10/11/14/17 request identical sweeps; cache on the runner.
    cache = sweep_memo(runner)
    key = sweep_memo_key(workload, jit, runtime, ratios, config, shift,
                         ratio_base)
    cached = cache.get(key)
    if cached is not None:
        return cached
    points: list[NurseryPoint] = []
    for ratio in ratios:
        nursery = max(16 * 1024, int(llc * ratio))
        handle = runner.run(workload, runtime=runtime, jit=jit,
                            nursery=nursery)
        state = runner.memory_side(handle, config)
        ooo = runner.simulate(handle, config, core="ooo")
        attribution = attribute(handle.trace, handle.site_table, state,
                                config)
        cycles = attribution.cycles
        gc_cycles = float(cycles[attribution.categories == _GC].sum())
        simple_total = float(cycles.sum())
        points.append(NurseryPoint(
            ratio=ratio, nursery_bytes=nursery,
            label=paper_equivalent_label(ratio),
            llc_miss_rate=state.llc_miss_rate,
            ooo_cycles=ooo.cycles,
            simple_cycles=simple_total,
            gc_cycles=gc_cycles,
            nongc_cycles=simple_total - gc_cycles,
            minor_gcs=handle.minor_gcs,
            major_gcs=handle.major_gcs))
    cache[key] = points
    return points


def normalized(points: list[NurseryPoint], baseline_ratio: float = 0.5,
               metric: str = "ooo_cycles") -> list[float]:
    """Execution time normalized to the half-LLC nursery (paper baseline:
    1 MB nursery for the 2 MB cache)."""
    baseline = None
    for point in points:
        if point.ratio == baseline_ratio:
            baseline = getattr(point, metric)
            break
    if baseline is None or baseline == 0:
        baseline = getattr(points[0], metric)
    return [getattr(p, metric) / baseline for p in points]


def best_nursery_improvement(sweeps: dict[str, list[NurseryPoint]],
                             baseline_ratio: float = 0.5) -> dict:
    """Figure 17: pick the best nursery per application.

    Returns per-workload normalized best times plus the two aggregate
    numbers the paper reports: average improvement from per-app best
    sizing, and from simply using the maximum nursery everywhere.
    """
    per_workload: dict[str, float] = {}
    max_ratio_times: list[float] = []
    for name, points in sweeps.items():
        norm = normalized(points, baseline_ratio)
        per_workload[name] = min(norm)
        max_ratio_times.append(norm[-1])
    n = len(per_workload) or 1
    best_avg = sum(per_workload.values()) / n
    max_avg = sum(max_ratio_times) / n
    return {
        "per_workload": per_workload,
        "best_improvement": 1.0 - best_avg,
        "max_nursery_improvement": 1.0 - max_avg,
    }
