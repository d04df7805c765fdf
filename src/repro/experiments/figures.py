"""One regeneration entry point per paper table and figure.

Every function returns a :class:`FigureResult` whose ``rendered`` field
is the plain-text equivalent of the paper's plot (same rows/series) and
whose ``data`` field holds the raw numbers for assertions in the bench
suite. ``quick=True`` (the default) trims workload sets and sweep grids
to bench-friendly sizes; ``quick=False`` reproduces the full grids.

Absolute magnitudes differ from the paper (our substrate is a
first-order model, theirs was Zsim on x86 traces); the *shapes* — which
categories dominate, who is sensitive to what, where the nursery
crossovers fall — are the reproduction targets recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..analysis.breakdown import (
    attribute_run,
    average_shares,
    breakdown_for_run,
    indirect_call_fraction,
)
from ..analysis.nursery import (
    NURSERY_RATIOS,
    QUICK_RATIOS,
    best_nursery_improvement,
    normalized,
    nursery_sweep,
    paper_equivalent_label,
    sweep_memo,
    sweep_memo_key,
)
from ..analysis.report import format_percent, render_series, render_table
from ..analysis.sweeps import (
    SWEEP_AXES,
    axis_config,
    phase_cpis,
    quick_axes,
    run_sweep,
)
from ..categories import (
    CATEGORY_INFO,
    INTERPRETER_CATEGORIES,
    LANGUAGE_FEATURE_CATEGORIES,
    OverheadCategory,
    label_of,
)
from ..config import scaled_config, skylake_config
from ..telemetry import TELEMETRY
from ..vm.v8.workloads import JS_SUITE
from ..workloads import (
    BREAKDOWN_QUICK_SUITE,
    NURSERY_BENCHMARKS,
    PYTHON_SUITE,
    SWEEP_BENCHMARKS,
)
from .parallel import fan_out
from .runner import ExperimentRunner

MB = 1024 * 1024

#: Default machine scale for the nursery studies (LLC = 64 kB; the
#: paper's 512k..128M nursery axis maps to ratios of this LLC).
NURSERY_SHIFT = 5

#: Guest workload scale for the nursery studies: allocation volumes must
#: comfortably exceed the scaled LLC.
NURSERY_SCALE = 2

_JS_QUICK = ("richards", "splay", "hash-map", "crypto", "n-body",
             "tagcloud", "delta-blue", "quicksort.c")


@dataclass
class FigureResult:
    """Rendered text plus raw data for one regenerated table/figure."""

    figure_id: str
    title: str
    rendered: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.figure_id}: {self.title} ==\n{self.rendered}"


def _runner(runner: ExperimentRunner | None, scale: int = 1,
            ) -> ExperimentRunner:
    return runner if runner is not None else ExperimentRunner(scale=scale)


def _traced(func):
    """Wrap a figure entry point in one telemetry span (``figure.<id>``)."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with TELEMETRY.tracer.span(f"figure.{func.__name__}"):
            return func(*args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# Parallel fan-out cells
#
# Each figure's grid loop stays serial (that is where floats are summed,
# so its order fixes the output bytes); with jobs > 1 the independent
# (workload, config) cells below are computed first, in worker
# processes, and their results seeded into the runner's memo/caches.
# Cells return plain picklable values and are module-level functions so
# the process pool can ship them.
# ----------------------------------------------------------------------

def _sweep_cell(runner: ExperimentRunner, kwargs: dict):
    return nursery_sweep(runner, **kwargs)


def _prefetch_sweeps(runner: ExperimentRunner, cells: list[dict],
                     jobs: int | None) -> None:
    """Compute nursery sweeps in parallel and seed the runner's memo.

    After this, the figure's serial ``nursery_sweep`` calls are memo
    hits, so aggregation order — and therefore output bytes — are
    identical to a fully serial run.
    """
    from .parallel import active_executor, resolve_jobs
    if resolve_jobs(jobs) <= 1 and active_executor() is None:
        return
    memo = sweep_memo(runner)
    pending = [cell for cell in cells
               if sweep_memo_key(**cell) not in memo]
    results = fan_out(runner, _sweep_cell, [(c,) for c in pending], jobs)
    for cell, points in zip(pending, results):
        memo[sweep_memo_key(**cell)] = points


def _breakdown_cell(runner: ExperimentRunner, workload: str,
                    runtime: str):
    """(C-call share) of one workload — Figures 5 and 6."""
    handle = runner.run(workload, runtime=runtime, jit=True,
                        nursery=1 * MB)
    return breakdown_for_run(runner, handle).c_function_call_share


def _fig4_cell(runner: ExperimentRunner, workload: str):
    """(breakdown, indirect share of C-call cycles, of all cycles), both
    from one attribution of the run."""
    handle = runner.run(workload, runtime="cpython")
    attribution = attribute_run(runner, handle)
    return (attribution.breakdown(handle.runtime, handle.workload),
            *indirect_call_fraction(handle, attribution))


def _fig7_phase_cell(runner: ExperimentRunner, workload: str):
    handle = runner.run(workload, runtime="pypy", jit=True,
                        nursery=1 * MB)
    return phase_cpis(runner, handle)


def _fig8_cell(runner: ExperimentRunner, workload: str, axis: str,
               values: tuple, base):
    handle = runner.run(workload, runtime="pypy", jit=True,
                        nursery=1 * MB)
    configs = [axis_config(base, axis, value) for value in values]
    return [sim.cpi
            for sim in runner.simulate_many_configs(handle, configs,
                                                    core="ooo")]


def _fig13_cell(runner: ExperimentRunner, workload: str, jit: bool,
                nursery: int, config):
    handle = runner.run(workload, runtime="pypy", jit=jit,
                        nursery=nursery)
    return breakdown_for_run(runner, handle, config).gc_share


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

@_traced
def table1() -> FigureResult:
    """Table I: the simulated machine configuration."""
    config = skylake_config()
    rows = [
        ["Core", f"{config.core.issue_width}-way OOO, "
                 f"{config.core.fetch_bytes}B fetch, "
                 f"{config.memory.frequency_ghz}GHz"],
        ["", f"{config.core.rob_entries} ROB, "
             f"{config.core.load_queue} Load-Q, "
             f"{config.core.store_queue} Store-Q"],
        ["Branch", "2-level 2-bit BP with "
                   f"{config.branch.l1_entries}x"
                   f"{config.branch.history_bits}b L1, "
                   f"{config.branch.l2_entries}x2b L2"],
        ["L1I", f"{config.l1i.size // 1024} kB, {config.l1i.ways}-way, "
                f"{config.l1i.latency}-cycle latency"],
        ["L1D", f"{config.l1d.size // 1024} kB, {config.l1d.ways}-way, "
                f"{config.l1d.latency}-cycle latency"],
        ["L2", f"{config.l2.size // 1024} kB, {config.l2.ways}-way, "
               f"{config.l2.latency}-cycle latency"],
        ["L3", f"{config.l3.size // MB} MB, {config.l3.ways}-way, "
               f"{config.l3.latency}-cycle latency"],
        ["Memory", f"DDR4, {config.memory.bandwidth_mbps} MBps, "
                   f"{config.memory.latency}-cycle latency"],
    ]
    rendered = render_table(["component", "configuration"], rows,
                            title="ZSim-analog configuration (Table I)")
    return FigureResult("table1", "machine configuration", rendered,
                        {"config": config})


@_traced
def table2() -> FigureResult:
    """Table II: the overhead taxonomy."""
    rows = []
    for category, info in CATEGORY_INFO.items():
        if category in (OverheadCategory.UNRESOLVED,
                        OverheadCategory.JIT_COMPILING,
                        OverheadCategory.JIT_COMPILED_CODE):
            continue
        rows.append([info.group.value, info.label,
                     "NEW" if info.new_in_paper else "",
                     info.description])
    rendered = render_table(["group", "category", "new", "description"],
                            rows, title="Sources of overhead (Table II)")
    return FigureResult("table2", "overhead taxonomy", rendered,
                        {"categories": list(CATEGORY_INFO)})


# ----------------------------------------------------------------------
# Figures 4-6: breakdowns
# ----------------------------------------------------------------------

@_traced
def fig4(runner: ExperimentRunner | None = None, quick: bool = True,
         jobs: int | None = None) -> FigureResult:
    """Figure 4: CPython overhead breakdown (language + interpreter)."""
    runner = _runner(runner)
    workloads = BREAKDOWN_QUICK_SUITE if quick else PYTHON_SUITE
    cells = fan_out(runner, _fig4_cell, [(name,) for name in workloads],
                    jobs)
    breakdowns = {name: cell[0]
                  for name, cell in zip(workloads, cells)}
    averages = average_shares(breakdowns)

    def table_for(categories, title):
        headers = ["workload"] + [label_of(c) for c in categories] \
            + ["group total"]
        rows = []
        for name, bd in breakdowns.items():
            rows.append([name]
                        + [format_percent(bd.share(c)) for c in categories]
                        + [format_percent(bd.group_share(categories))])
        avg_row = ["AVG"] + [
            format_percent(averages.get(c, 0.0)) for c in categories]
        avg_row.append(format_percent(
            sum(averages.get(c, 0.0) for c in categories)))
        rows.append(avg_row)
        return render_table(headers, rows, title=title)

    part_a = table_for(LANGUAGE_FEATURE_CATEGORIES,
                       "Figure 4(a): language features, % of execution")
    part_b = table_for(INTERPRETER_CATEGORIES,
                       "Figure 4(b): interpreter operations, "
                       "% of execution")
    overhead_avg = sum(averages.get(c, 0.0)
                       for c in LANGUAGE_FEATURE_CATEGORIES
                       + INTERPRETER_CATEGORIES)
    clib_avg = sum(bd.c_library_share for bd in breakdowns.values()) \
        / len(breakdowns)
    # Indirect-call share of the C function call overhead (IV-C.1).
    ind_of_ccall = ind_of_total = 0.0
    for _, of_ccall, of_total in cells:
        ind_of_ccall += of_ccall
        ind_of_total += of_total
    ind_of_ccall /= len(workloads)
    ind_of_total /= len(workloads)
    summary = (
        f"identified overhead: {format_percent(overhead_avg)} of execution "
        f"(paper: 64.9%) -> >= {1.0 / max(1e-9, 1 - overhead_avg):.1f}x "
        "over a C-like program\n"
        f"C library time: {format_percent(clib_avg)} average "
        "(paper: 7.0%)\n"
        f"indirect calls: {format_percent(ind_of_ccall)} of C-call "
        f"overhead, {format_percent(ind_of_total)} of total "
        "(paper: 11.9% / 1.9%)")
    rendered = "\n\n".join([part_a, part_b, summary])
    return FigureResult("fig4", "CPython overhead breakdown", rendered, {
        "breakdowns": breakdowns,
        "averages": averages,
        "overhead_avg": overhead_avg,
        "c_library_avg": clib_avg,
        "indirect_of_ccall": ind_of_ccall,
        "indirect_of_total": ind_of_total,
    })


def _ccall_figure(figure_id: str, title: str, runner: ExperimentRunner,
                  workloads, runtime: str,
                  jobs: int | None = None) -> FigureResult:
    values = fan_out(runner, _breakdown_cell,
                     [(name, runtime) for name in workloads], jobs)
    shares = dict(zip(workloads, values))
    average = sum(shares.values()) / len(shares)
    rows = [[name, format_percent(share)]
            for name, share in shares.items()]
    rows.append(["AVG", format_percent(average)])
    rendered = render_table(["workload", "C function call overhead"],
                            rows, title=title)
    return FigureResult(figure_id, title, rendered,
                        {"shares": shares, "average": average})


@_traced
def fig5(runner: ExperimentRunner | None = None, quick: bool = True,
         jobs: int | None = None) -> FigureResult:
    """Figure 5: C function call overhead for PyPy (with JIT)."""
    runner = _runner(runner)
    workloads = BREAKDOWN_QUICK_SUITE if quick else PYTHON_SUITE
    return _ccall_figure(
        "fig5", "C function call overhead for PyPy (paper avg: 7.5%)",
        runner, workloads, "pypy", jobs=jobs)


@_traced
def fig6(runner: ExperimentRunner | None = None, quick: bool = True,
         jobs: int | None = None) -> FigureResult:
    """Figure 6: C function call overhead for V8."""
    runner = _runner(runner)
    workloads = _JS_QUICK if quick else JS_SUITE
    return _ccall_figure(
        "fig6", "C function call overhead for V8 (paper avg: 5.6%)",
        runner, workloads, "v8", jobs=jobs)


# ----------------------------------------------------------------------
# Figures 7-9: microarchitecture sweeps
# ----------------------------------------------------------------------

@_traced
def fig7(runner: ExperimentRunner | None = None, quick: bool = True,
         jobs: int | None = None) -> FigureResult:
    """Figure 7: average CPI vs microarchitecture parameters."""
    runner = _runner(runner)
    workloads = SWEEP_BENCHMARKS[:4] if quick else SWEEP_BENCHMARKS
    axes = quick_axes() if quick else None
    sweep = run_sweep(runner, workloads, axes=axes, jobs=jobs)
    sections = []
    for axis in sweep.axes:
        labels = [str(v) for v in sweep.axis_values(axis)]
        sections.append(render_series(
            f"Figure 7 ({axis}): average CPI", labels,
            sweep.series(axis)))
    # PyPy-with-JIT phase breakdown at the baseline machine.
    phase_sums: dict[str, float] = {}
    for per_workload in fan_out(runner, _fig7_phase_cell,
                                [(name,) for name in workloads], jobs):
        for phase, cpi in per_workload.items():
            phase_sums[phase] = phase_sums.get(phase, 0.0) + cpi
    phases = {k: v / len(workloads) for k, v in phase_sums.items()}
    sections.append(render_table(
        ["phase", "simple-core CPI"],
        [[k, f"{v:.3f}"] for k, v in phases.items()],
        title="PyPy w/ JIT execution phases (baseline machine)"))
    rendered = "\n\n".join(sections)
    return FigureResult("fig7", "CPI microarchitecture sweeps", rendered,
                        {"sweep": sweep, "phases": phases})


@_traced
def fig8(runner: ExperimentRunner | None = None, quick: bool = True,
         jobs: int | None = None) -> FigureResult:
    """Figure 8: per-benchmark CPI sweeps for PyPy with JIT."""
    runner = _runner(runner)
    workloads = SWEEP_BENCHMARKS[:4] if quick else SWEEP_BENCHMARKS
    axes = quick_axes() if quick else {
        name: values for name, (values, _) in SWEEP_AXES.items()}
    base = skylake_config()
    cells = [(workload, axis, values, base)
             for axis, values in axes.items()
             for workload in workloads]
    results = fan_out(runner, _fig8_cell, cells, jobs)
    cpis_by_cell = {(axis, workload): cpis
                    for (workload, axis, _, _), cpis
                    in zip(cells, results)}
    sections = []
    data: dict[str, dict[str, list[float]]] = {}
    for axis, values in axes.items():
        series = {workload: cpis_by_cell[(axis, workload)]
                  for workload in workloads}
        data[axis] = series
        sections.append(render_series(
            f"Figure 8 ({axis}): per-benchmark CPI, PyPy w/ JIT",
            [str(v) for v in values], series))
    return FigureResult("fig8", "per-benchmark CPI sweeps",
                        "\n\n".join(sections), {"series": data})


@_traced
def fig9(runner: ExperimentRunner | None = None, quick: bool = True,
         jobs: int | None = None) -> FigureResult:
    """Figure 9: average CPI sweeps for V8."""
    runner = _runner(runner)
    workloads = _JS_QUICK[:4] if quick else JS_SUITE
    axes = quick_axes() if quick else None
    sweep = run_sweep(runner, workloads,
                      variants=(("v8", "v8", True),), axes=axes,
                      jobs=jobs)
    sections = []
    for axis in sweep.axes:
        labels = [str(v) for v in sweep.axis_values(axis)]
        sections.append(render_series(
            f"Figure 9 ({axis}): V8 average CPI", labels,
            sweep.series(axis)))
    return FigureResult("fig9", "V8 CPI sweeps", "\n\n".join(sections),
                        {"sweep": sweep})


# ----------------------------------------------------------------------
# Figures 10-17: nursery studies
# ----------------------------------------------------------------------

def _nursery_runner(runner: ExperimentRunner | None) -> ExperimentRunner:
    if runner is not None:
        return runner
    return ExperimentRunner(scale=NURSERY_SCALE)


def _nursery_ratios(quick: bool):
    return QUICK_RATIOS if quick else NURSERY_RATIOS


def _nursery_workloads(quick: bool):
    return NURSERY_BENCHMARKS[:4] if quick else NURSERY_BENCHMARKS


@_traced
def fig10(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 10: LLC miss rate as a function of nursery size."""
    runner = _nursery_runner(runner)
    ratios = _nursery_ratios(quick)
    workloads = _nursery_workloads(quick)
    config = scaled_config(NURSERY_SHIFT)
    _prefetch_sweeps(runner,
                     [dict(workload=w, jit=True, ratios=ratios,
                           config=config) for w in workloads], jobs)
    sums = [0.0] * len(ratios)
    for workload in workloads:
        points = nursery_sweep(runner, workload, jit=True, ratios=ratios,
                               config=config)
        for i, point in enumerate(points):
            sums[i] += point.llc_miss_rate
    rates = [s / len(workloads) for s in sums]
    labels = [paper_equivalent_label(r) for r in ratios]
    rendered = render_series(
        "Figure 10: LLC miss rate vs nursery size "
        "(paper-equivalent labels; 2M = one LLC)",
        labels, {"miss_rate_%": [100 * r for r in rates]},
        value_format="{:.1f}")
    small = [r for ratio, r in zip(ratios, rates) if ratio <= 0.5]
    large = [r for ratio, r in zip(ratios, rates) if ratio >= 2.0]
    jump = (sum(large) / len(large)) / max(1e-9, sum(small) / len(small)) \
        if small and large else 0.0
    return FigureResult("fig10", "LLC miss rate vs nursery size",
                        rendered + f"\nmiss-rate jump past LLC: "
                        f"{jump:.1f}x (paper: ~2.4x)",
                        {"ratios": ratios, "rates": rates, "jump": jump})


@_traced
def fig11(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 11: GC / non-GC / overall time vs nursery size."""
    runner = _nursery_runner(runner)
    ratios = _nursery_ratios(quick)
    workloads = _nursery_workloads(quick)
    config = scaled_config(NURSERY_SHIFT)
    _prefetch_sweeps(runner,
                     [dict(workload=w, jit=True, ratios=ratios,
                           config=config) for w in workloads], jobs)
    gc = [0.0] * len(ratios)
    nongc = [0.0] * len(ratios)
    overall = [0.0] * len(ratios)
    for workload in workloads:
        points = nursery_sweep(runner, workload, jit=True, ratios=ratios,
                               config=config)
        base = next((p.simple_cycles for p in points if p.ratio == 0.5),
                    points[0].simple_cycles)
        for i, point in enumerate(points):
            gc[i] += point.gc_cycles / base
            nongc[i] += point.nongc_cycles / base
            overall[i] += point.simple_cycles / base
    n = len(workloads)
    series = {"GC": [v / n for v in gc],
              "Non-GC": [v / n for v in nongc],
              "Overall": [v / n for v in overall]}
    labels = [paper_equivalent_label(r) for r in ratios]
    rendered = render_series(
        "Figure 11: execution breakdown vs nursery size "
        "(normalized to the half-LLC nursery)", labels, series)
    return FigureResult("fig11", "GC/non-GC breakdown vs nursery",
                        rendered, {"ratios": ratios, "series": series})


@_traced
def fig12(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 12: nursery sweep for run-time configs and LLC sizes."""
    runner = _nursery_runner(runner)
    ratios = _nursery_ratios(quick)
    workloads = _nursery_workloads(quick)
    base_llc = scaled_config(NURSERY_SHIFT).l3.size
    configs = [
        ("w/o JIT 2MB LLC", False, scaled_config(NURSERY_SHIFT)),
        ("w/ JIT 2MB LLC", True, scaled_config(NURSERY_SHIFT)),
        ("w/ JIT 4MB LLC", True,
         scaled_config(NURSERY_SHIFT).with_llc_size(base_llc * 2)),
        ("w/ JIT 8MB LLC", True,
         scaled_config(NURSERY_SHIFT).with_llc_size(base_llc * 4)),
    ]
    _prefetch_sweeps(runner,
                     [dict(workload=w, jit=jit, ratios=ratios,
                           config=config, ratio_base=base_llc)
                      for _, jit, config in configs
                      for w in workloads], jobs)
    series: dict[str, list[float]] = {}
    for label, jit, config in configs:
        sums = [0.0] * len(ratios)
        for workload in workloads:
            # Nursery sizes stay relative to the *baseline* LLC so larger
            # caches shift the crossover, exactly as in the paper.
            points = nursery_sweep(
                runner, workload, jit=jit, ratios=ratios, config=config,
                ratio_base=base_llc)
            norm = normalized(points)
            for i, value in enumerate(norm):
                sums[i] += value
        series[label] = [s / len(workloads) for s in sums]
    labels = [paper_equivalent_label(r) for r in ratios]
    rendered = render_series(
        "Figure 12: normalized time vs nursery size per configuration",
        labels, series)
    return FigureResult("fig12", "nursery sweep per configuration",
                        rendered, {"ratios": ratios, "series": series})


@_traced
def fig13(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 13: GC time as a percentage of execution, w/o vs w/ JIT."""
    runner = _nursery_runner(runner)
    workloads = _nursery_workloads(quick) if quick else PYTHON_SUITE
    config = scaled_config(NURSERY_SHIFT)
    nursery = config.l3.size // 2
    variants = (("nojit", False), ("jit", True))
    cells = [(workload, jit, nursery, config)
             for workload in workloads
             for _, jit in variants]
    gc_shares = fan_out(runner, _fig13_cell, cells, jobs)
    rows = []
    shares = {"nojit": {}, "jit": {}}
    for (workload, _, _, _), (key, _), gc_share in zip(
            cells, list(variants) * len(workloads), gc_shares):
        shares[key][workload] = gc_share
    for workload in workloads:
        rows.append([workload,
                     format_percent(shares["nojit"][workload]),
                     format_percent(shares["jit"][workload])])
    avg_nojit = sum(shares["nojit"].values()) / len(workloads)
    avg_jit = sum(shares["jit"].values()) / len(workloads)
    rows.append(["AVG", format_percent(avg_nojit),
                 format_percent(avg_jit)])
    rendered = render_table(
        ["workload", "GC % (w/o JIT)", "GC % (w/ JIT)"], rows,
        title="Figure 13: garbage collection share of execution "
              "(paper: 3% -> 14% average)")
    return FigureResult("fig13", "GC share w/o vs w/ JIT", rendered, {
        "shares": shares, "avg_nojit": avg_nojit, "avg_jit": avg_jit})


def _per_benchmark_nursery(figure_id: str, title: str, jit: bool,
                           runner: ExperimentRunner | None,
                           quick: bool,
                           jobs: int | None = None) -> FigureResult:
    runner = _nursery_runner(runner)
    ratios = _nursery_ratios(quick)
    workloads = _nursery_workloads(quick)
    config = scaled_config(NURSERY_SHIFT)
    _prefetch_sweeps(runner,
                     [dict(workload=w, jit=jit, ratios=ratios,
                           config=config) for w in workloads], jobs)
    series: dict[str, list[float]] = {}
    for workload in workloads:
        points = nursery_sweep(runner, workload, jit=jit, ratios=ratios,
                               config=config)
        series[workload] = normalized(points)
    labels = [paper_equivalent_label(r) for r in ratios]
    rendered = render_series(title, labels, series)
    return FigureResult(figure_id, title, rendered,
                        {"ratios": ratios, "series": series})


@_traced
def fig14(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 14: per-benchmark nursery sweep, PyPy with JIT."""
    return _per_benchmark_nursery(
        "fig14", "Figure 14: normalized time vs nursery (PyPy w/ JIT)",
        True, runner, quick, jobs=jobs)


@_traced
def fig15(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 15: per-benchmark nursery sweep, PyPy without JIT."""
    return _per_benchmark_nursery(
        "fig15", "Figure 15: normalized time vs nursery (PyPy w/o JIT)",
        False, runner, quick, jobs=jobs)


@_traced
def fig16(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 16: nursery sweep for V8 with different LLC sizes."""
    runner = _runner(runner, scale=1)
    ratios = _nursery_ratios(quick)
    workloads = _JS_QUICK[:4] if quick else _JS_QUICK
    base_llc = scaled_config(NURSERY_SHIFT).l3.size
    llc_points = (("2MB LLC", 1), ("4MB LLC", 2), ("8MB LLC", 4))
    _prefetch_sweeps(runner,
                     [dict(workload=w, jit=True, runtime="v8",
                           ratios=ratios,
                           config=scaled_config(NURSERY_SHIFT)
                           .with_llc_size(base_llc * multiplier),
                           ratio_base=base_llc)
                      for _, multiplier in llc_points
                      for w in workloads], jobs)
    series: dict[str, list[float]] = {}
    for label, multiplier in llc_points:
        config = scaled_config(NURSERY_SHIFT).with_llc_size(
            base_llc * multiplier)
        sums = [0.0] * len(ratios)
        for workload in workloads:
            points = nursery_sweep(runner, workload, jit=True,
                                   runtime="v8", ratios=ratios,
                                   config=config, ratio_base=base_llc)
            norm = normalized(points)
            for i, value in enumerate(norm):
                sums[i] += value
        series[label] = [s / len(workloads) for s in sums]
    labels = [paper_equivalent_label(r) for r in ratios]
    rendered = render_series(
        "Figure 16: V8 normalized time vs nursery size per LLC size",
        labels, series)
    return FigureResult("fig16", "V8 nursery sweep", rendered,
                        {"ratios": ratios, "series": series})


@_traced
def fig17(runner: ExperimentRunner | None = None, quick: bool = True,
          jobs: int | None = None) -> FigureResult:
    """Figure 17: best nursery size per application."""
    runner = _nursery_runner(runner)
    ratios = _nursery_ratios(quick)
    workloads = _nursery_workloads(quick)
    config = scaled_config(NURSERY_SHIFT)
    _prefetch_sweeps(runner,
                     [dict(workload=w, jit=True, ratios=ratios,
                           config=config) for w in workloads], jobs)
    sweeps = {}
    for workload in workloads:
        sweeps[workload] = nursery_sweep(runner, workload, jit=True,
                                         ratios=ratios, config=config)
    summary = best_nursery_improvement(sweeps)
    rows = [[name, f"{value:.3f}"]
            for name, value in summary["per_workload"].items()]
    rows.append(["AVG best-per-app improvement",
                 format_percent(summary["best_improvement"])])
    rows.append(["AVG max-nursery improvement",
                 format_percent(summary["max_nursery_improvement"])])
    rendered = render_table(
        ["workload", "best normalized time"], rows,
        title="Figure 17: best nursery per app vs static half-cache "
              "sizing (paper: 21.4% vs 9.8%)")
    return FigureResult("fig17", "best nursery per application", rendered,
                        {"summary": summary, "sweeps": sweeps})


#: Every regeneration entry point, keyed by id.
ALL_FIGURES = {
    "table1": table1, "table2": table2,
    "fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7,
    "fig8": fig8, "fig9": fig9, "fig10": fig10, "fig11": fig11,
    "fig12": fig12, "fig13": fig13, "fig14": fig14, "fig15": fig15,
    "fig16": fig16, "fig17": fig17,
}

#: Runner scale each figure builds its default runner with (None for
#: the tables, which take no runner). The ``figures --all`` campaign
#: driver shares one runner per scale across figures, so a trace that a
#: later figure of the same family reads again (fig8 re-reads fig7's)
#: is held from that second read on; a trace read once is not held.
FIGURE_SCALES = {
    "table1": None, "table2": None,
    "fig4": 1, "fig5": 1, "fig6": 1, "fig7": 1, "fig8": 1, "fig9": 1,
    "fig10": NURSERY_SCALE, "fig11": NURSERY_SCALE,
    "fig12": NURSERY_SCALE, "fig13": NURSERY_SCALE,
    "fig14": NURSERY_SCALE, "fig15": NURSERY_SCALE,
    "fig16": 1, "fig17": NURSERY_SCALE,
}


def figure_scale(name: str) -> int | None:
    """Runner scale for one figure id (None = takes no runner)."""
    return FIGURE_SCALES.get(name)
