"""Perf-regression sentinel: ``python -m repro perf check|diff``.

``check`` runs a small fixed probe on one reference workload — fresh
(cache-bypassing) guest runs, the two gated simulation stages, and an
encode and decode through the trace codec — reads the throughput gauges
the production pipeline updates (the best of the probe's repeats for
each), appends a ``perf_probe`` record to the run registry, and
compares the result against the checked-in baseline in
``benchmarks/baselines/perf.json``. A gauge below
``baseline / threshold`` (default threshold 2.0: a 2x degradation) or a
category share drifting more than :data:`SHARE_TOLERANCE` fails the
check with a nonzero exit — the CI-able guardrail, which
``benchmarks/test_throughput_gate.py`` runs with the bench suite.

``diff`` compares the last two ``perf_probe`` records in the registry
(no new measurement, exit 0 always): the trajectory view.

Refresh the baseline on the target machine with ``repro perf check
--update``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..telemetry import TELEMETRY

#: Baseline file shared with the bench suite's conventions.
DEFAULT_BASELINE = Path(__file__).resolve().parents[3] \
    / "benchmarks" / "baselines" / "perf.json"

PROBE_SCHEMA = 1

#: Reference cell: small enough for a CI smoke, big enough that the
#: compiled and batched stages dominate interpreter noise.
PROBE_WORKLOAD = "deltablue"
PROBE_RUNTIME = "cpython"
PROBE_SCALE = 2

#: Fail when a gauge drops below ``baseline / threshold``.
DEFAULT_THRESHOLD = 2.0

#: Fail when a category's share of cycles drifts more than this
#: (absolute) from the baseline breakdown.
SHARE_TOLERANCE = 0.15


#: Gated gauge -> the telemetry gauge the pipeline sets. Codec gauges
#: are canonical bytes per second; the others instructions per second.
GAUGES = {
    "guest": f"guest.instructions_per_second{{runtime={PROBE_RUNTIME}}}",
    "sim.memory_side": "sim.instructions_per_second{stage=memory_side}",
    "sim.core.ooo": "sim.instructions_per_second{stage=core.ooo}",
    "trace.codec.encode": "trace.codec.bytes_per_second{op=encode}",
    "trace.codec.decode": "trace.codec.bytes_per_second{op=decode}",
}


def run_probe(repeats: int = 3) -> dict:
    """Measure the gated gauges (best of ``repeats`` each); append a
    registry record.

    Uses cache-*disabled* runners so the guest runs and both simulation
    stages actually execute (a disk hit would leave the gauges unset).
    Returns the probe record (also appended to the registry when
    telemetry is enabled).
    """
    import tempfile

    from ..config import skylake_config
    from ..host.trace import InstructionTrace
    from ..pintool.postprocess import attribute
    from ..uarch.system import SimulatedSystem
    from .diskcache import DiskCache
    from .parallel import load_kernels
    from .runner import ExperimentRunner

    snapshot = TELEMETRY.metrics.snapshot
    gauges = dict.fromkeys(GAUGES, 0.0)

    def keep_best(name: str) -> None:
        gauges[name] = max(gauges[name], snapshot().get(GAUGES[name], 0.0))

    config = skylake_config()
    system = SimulatedSystem(config)
    # Build the C kernels before the timed loops, so that no gauge times
    # a build: with repeats=1 there is no later repeat to keep instead.
    load_kernels()
    with TELEMETRY.tracer.span("perf.probe", workload=PROBE_WORKLOAD), \
            tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            # A fresh runner per repeat: only a run that interprets
            # sets the guest gauge.
            handle = ExperimentRunner(
                scale=PROBE_SCALE, disk_cache=DiskCache(None)).run(
                    PROBE_WORKLOAD, runtime=PROBE_RUNTIME)
            keep_best("guest")
        for _ in range(repeats):
            state = system.memory_side(handle.trace)
            keep_best("sim.memory_side")
        for _ in range(repeats):
            SimulatedSystem.run_many_configs(
                handle.trace, [config], [state])
            keep_best("sim.core.ooo")
        path = Path(tmp) / "probe.rpt"
        for _ in range(repeats):
            handle.trace.save(path)
            keep_best("trace.codec.encode")
        for _ in range(repeats):
            loaded = InstructionTrace.load(path)
            loaded.arrays()
            keep_best("trace.codec.decode")
        breakdown = attribute(handle.trace, handle.site_table, state,
                              config).breakdown()
    categories = {str(category.name).lower(): breakdown.share(category)
                  for category in breakdown.cycles}

    record = {
        "schema": PROBE_SCHEMA,
        "kind": "perf_probe",
        "created_unix": time.time(),
        "command": "perf",
        "config": {"workload": PROBE_WORKLOAD, "runtime": PROBE_RUNTIME,
                   "scale": PROBE_SCALE, "repeats": repeats},
        "stats": {"host_instructions": handle.host_instructions,
                  "wall_seconds": handle.wall_seconds},
        "gauges": gauges,
        "categories": categories,
    }
    if TELEMETRY.enabled:
        from ..telemetry.registry import RunRegistry
        try:
            RunRegistry().append(record)
        except OSError:
            TELEMETRY.metrics.counter("registry.write_errors").inc()
    return record


def _delta_rows(current: dict, reference: dict,
                threshold: float) -> tuple[list[list[str]], list[str]]:
    """Delta table rows plus failure messages vs. a reference record."""
    rows: list[list[str]] = []
    failures: list[str] = []
    ref_gauges = reference.get("gauges", {}) or {}
    cur_gauges = current.get("gauges", {}) or {}
    for name in sorted(ref_gauges):
        base = float(ref_gauges[name])
        value = float(cur_gauges.get(name, 0.0))
        ratio = value / base if base else float("inf")
        status = "ok"
        if base and value < base / threshold:
            status = "FAIL"
            unit = "B/s" if name.startswith("trace.codec.") else "instr/s"
            failures.append(
                f"gauge {name}: {value:,.0f} {unit} is below "
                f"1/{threshold:g} of baseline {base:,.0f}")
        rows.append([name, f"{base:,.0f}", f"{value:,.0f}",
                     f"{ratio:.2f}x", status])
    ref_shares = reference.get("categories", {}) or {}
    cur_shares = current.get("categories", {}) or {}
    for name in sorted(set(ref_shares) | set(cur_shares)):
        base = float(ref_shares.get(name, 0.0))
        value = float(cur_shares.get(name, 0.0))
        drift = value - base
        status = "ok"
        if abs(drift) > SHARE_TOLERANCE:
            status = "FAIL"
            failures.append(
                f"category {name}: share drifted {drift:+.1%} "
                f"(tolerance ±{SHARE_TOLERANCE:.0%})")
        rows.append([f"share:{name}", f"{base:.1%}", f"{value:.1%}",
                     f"{drift:+.1%}", status])
    return rows, failures


def check(baseline_path: str | Path | None = None,
          threshold: float = DEFAULT_THRESHOLD,
          update: bool = False, probe: bool = True,
          emit=print) -> int:
    """Probe, compare against the checked-in baseline, exit-code style.

    ``update=True`` rewrites the baseline from the measurement instead
    of gating. ``probe=False`` reuses the registry's most recent
    ``perf_probe`` record.
    """
    from ..analysis.report import render_table
    path = Path(baseline_path) if baseline_path is not None \
        else DEFAULT_BASELINE
    if probe:
        record = run_probe()
    else:
        from ..telemetry.registry import RunRegistry
        record = RunRegistry().last(kind="perf_probe")
        if record is None:
            emit("perf check: no perf_probe record in the registry; "
             "run without --no-probe first")
            return 1
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        baseline = {key: record[key] for key in
                    ("schema", "config", "gauges", "categories")}
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        emit(f"perf check: baseline refreshed at {path}")
        return 0
    if not path.exists():
        emit(f"perf check: no baseline at {path}; "
             "create one with --update")
        return 1
    baseline = json.loads(path.read_text(encoding="utf-8"))
    rows, failures = _delta_rows(record, baseline, threshold)
    emit(render_table(
        ["metric", "baseline", "measured", "ratio/drift", "status"],
        rows, title=f"perf check vs {path.name} "
                    f"(gate: 1/{threshold:g} of baseline)"))
    if failures:
        for failure in failures:
            emit(f"FAIL: {failure}")
        emit(f"refresh with `repro perf check --update` if this "
             f"machine legitimately changed")
        return 1
    emit("perf check: all gauges within threshold")
    return 0


def diff(emit=print) -> int:
    """Compare the two most recent probes in the registry (exit 0)."""
    from ..analysis.report import render_table
    from ..telemetry.registry import RunRegistry
    records = [record for record in RunRegistry().records()
               if record.get("kind") == "perf_probe"]
    if len(records) < 2:
        emit(f"perf diff: need two perf_probe records, have "
             f"{len(records)}; run `repro perf check` to add one")
        return 0
    previous, current = records[-2], records[-1]
    rows, _ = _delta_rows(current, previous,
                          threshold=float("inf"))
    emit(render_table(
        ["metric", f"seq {previous.get('seq')}",
         f"seq {current.get('seq')}", "ratio/drift", "status"],
        rows, title="perf diff: last two probes"))
    return 0
