"""Telemetry smoke targets: span tree, faulted campaign, perf gate.

Writes ``benchmarks/results/telemetry_smoke.txt`` in three sections:

* the span self-time tree and key metrics of a quick PyPy ``chaos``
  run, so simulator-side perf regressions (guest emission, cache sim,
  core sim) become diffable run to run;
* a faulted ``fig5`` fan-out (worker crashes + cache corruption) with
  the resilience/cache-integrity counters and the unified Chrome
  trace's worker-lane census — the observability plane exercised under
  the exact conditions it exists for;
* the perf-regression sentinel run against the committed baseline.
"""

from __future__ import annotations

import json
import os

from conftest import append_text, save_text

from repro import telemetry
from repro.analysis.report import render_span_tree
from repro.config import skylake_config
from repro.experiments.runner import ExperimentRunner
from repro.telemetry import TELEMETRY
from repro.telemetry.export import build_chrome_trace, build_manifest

_64K = 64 * 1024


def _hit_rate(metrics: dict, prefix: str) -> str:
    hits = sum(v for k, v in metrics.items()
               if k.startswith(f"{prefix}.hit"))
    misses = sum(v for k, v in metrics.items()
                 if k.startswith(f"{prefix}.miss"))
    total = hits + misses
    if total == 0:
        return "no accesses"
    return f"{hits}/{total} ({100 * hits / total:.0f}% hit)"


def test_telemetry_smoke(tmp_path, monkeypatch):
    # Start from a clean slate inside the session-wide enablement. A
    # fresh cache root keeps the run cold: a previous invocation's disk
    # entries would otherwise satisfy the first run and elide the
    # guest.run span this file exists to measure.
    from repro.experiments.diskcache import CACHE_DIR_ENV
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "smoke-cache"))
    telemetry.reset()
    runner = ExperimentRunner()
    with TELEMETRY.tracer.span("telemetry_smoke"):
        handle = runner.run("chaos", runtime="pypy", jit=True,
                            nursery=_64K)
        sim = runner.simulate(handle, skylake_config(), core="ooo")
        # Same run again: in-memory hits. A fresh runner sharing the
        # cache directory: disk hits (no re-interpretation).
        runner.run("chaos", runtime="pypy", jit=True, nursery=_64K)
        runner.simulate(handle, skylake_config(), core="ooo")
        second = ExperimentRunner(disk_cache=runner.disk_cache)
        warm = second.run("chaos", runtime="pypy", jit=True,
                          nursery=_64K)
        second.simulate(warm, skylake_config(), core="ooo")

    tree = render_span_tree(TELEMETRY.tracer.tree(),
                            title="telemetry smoke: quick chaos run "
                                  "(pypy, 64 kB nursery)")
    metrics = TELEMETRY.metrics.snapshot()
    minor_gcs = metrics.get("gc.minor_collections{runtime=pypy}", 0)
    traces = sum(value for key, value in metrics.items()
                 if key.startswith("jit.traces_compiled{"))
    throughput = handle.host_instructions / handle.wall_seconds
    lines = [
        tree,
        "",
        f"host instructions : {handle.host_instructions}",
        f"simulated cycles  : {sim.cycles:.0f} (CPI {sim.cpi:.2f})",
        f"guest throughput  : {throughput:,.0f} instr/s (host wall)",
        f"minor GCs         : {minor_gcs}",
        f"JIT traces        : {traces}",
        f"guard fails       : "
        f"{metrics.get('jit.guard_fails{runtime=pypy}', 0)}",
        "",
        "runner caches (1 fresh run + repeat + fresh-runner repeat):",
        f"  trace cache : {_hit_rate(metrics, 'runner.trace_cache')}",
        f"  state cache : {_hit_rate(metrics, 'runner.state_cache')}",
        f"  disk cache  : {_hit_rate(metrics, 'runner.disk_cache')}",
        "",
        "metrics snapshot (excerpt):",
    ]
    for key, value in metrics.items():
        if isinstance(value, dict):  # histograms: count/sum only
            lines.append(f"  {key}: count={value['count']}")
        elif key.startswith("sim.instructions_per_second"):
            lines.append(f"  {key}: {value:,.0f}")
        else:
            lines.append(f"  {key}: {value}")
    path = save_text("telemetry_smoke", "\n".join(lines))

    # Shape assertions: the whole pipeline showed up.
    assert "guest.run" in tree
    assert "sim.memory_side" in tree
    assert "sim.core" in tree
    assert minor_gcs >= 1
    assert traces >= 1
    # The repeat hit memory; the fresh runner hit disk (when enabled).
    assert metrics.get("runner.trace_cache.hit{runtime=pypy}", 0) >= 2
    if runner.disk_cache.enabled:
        assert metrics.get("runner.disk_cache.hit{kind=trace}", 0) >= 1
        assert metrics.get("runner.disk_cache.hit{kind=state}", 0) >= 1
    manifest = build_manifest(command="benchmarks.telemetry_smoke")
    assert json.loads(json.dumps(manifest)) == manifest
    assert path.exists()


def test_faulted_campaign_smoke(tmp_path, monkeypatch):
    """One faulted figure fan-out; worker lanes + recovery counters.

    Crashes hit ~30% of cell attempts and every disk-cache store is
    corrupted, so this drives pool rebuilds (possibly down to the
    isolation rung), checksum quarantines, and the cross-worker trace
    merge in a single quick run.
    """
    from repro.experiments.diskcache import CACHE_DIR_ENV
    from repro.experiments.figures import fig5
    from repro.experiments.resilience import FAULTS_ENV

    telemetry.reset()
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "faulted-cache"))
    monkeypatch.setenv(FAULTS_ENV,
                       "worker_crash:p=0.3;cache_corrupt:p=1")
    result = fig5(ExperimentRunner(), quick=True, jobs=4)
    assert result.data["shares"]

    # fig5's cells all have distinct cache keys, so its corrupted
    # stores are never read back within the run. One store + fresh-
    # runner re-read drives detection: checksum mismatch, quarantine,
    # recompute.
    ExperimentRunner().run("chaos", runtime="pypy", nursery=_64K)
    ExperimentRunner().run("chaos", runtime="pypy", nursery=_64K)

    metrics = TELEMETRY.metrics.snapshot()
    events = build_chrome_trace(build_manifest())["traceEvents"]
    parent = os.getpid()
    worker_lanes = sorted({e["pid"] for e in events
                           if e["ph"] == "X" and e["pid"] != parent})
    rebuilds = [e for e in events
                if e["name"] == "resilience.pool_rebuild"]
    cells = [e for e in events if e["name"] == "cell"]

    def count(prefix: str) -> int:
        return int(sum(v for k, v in metrics.items()
                       if k.startswith(prefix)))

    lines = [
        "",
        "faulted campaign (fig5 --jobs 4, worker_crash:p=0.3 + "
        "cache_corrupt:p=1):",
        f"  worker lanes      : {len(worker_lanes)} "
        f"(+ parent {parent})",
        f"  cells shipped     : {TELEMETRY.workers.snapshot()['cells']}",
        f"  cell spans        : {len(cells)}",
        f"  retries           : {count('resilience.retries')}",
        f"  pool rebuilds     : {count('resilience.pool_rebuilds')} "
        f"({len(rebuilds)} trace spans)",
        f"  isolated cells    : {count('resilience.isolated_cells')}",
        f"  serial cells      : {count('resilience.serial_cells')}",
        f"  cache.faults_injected  : {count('cache.faults_injected')}",
        f"  cache.checksum_mismatch: "
        f"{count('cache.checksum_mismatch')}",
        f"  cache.quarantined      : {count('cache.quarantined')}",
    ]
    append_text("telemetry_smoke", "\n".join(lines))

    # The unified trace shows the fan-out: several distinct worker
    # lanes with real spans, every pool rebuild as a parent span.
    assert len(worker_lanes) >= 2
    assert len(cells) >= 1
    assert count("resilience.retries") >= 1
    assert len(rebuilds) == count("resilience.pool_rebuilds")
    # Corrupt stores were detected on read-back, never trusted.
    assert count("cache.faults_injected") >= 1
    assert count("cache.checksum_mismatch") >= 1
    assert count("cache.quarantined") >= 1


def test_perf_check_smoke(tmp_path, monkeypatch):
    """The sentinel passes on the committed baseline, fails on a 2x
    degradation (simulated by doubling the baseline's expectations)."""
    from repro.experiments import perf

    telemetry.reset()
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
    record = perf.run_probe(repeats=1)
    lines: list[str] = []
    code = perf.check(probe=False, emit=lines.append)
    append_text("telemetry_smoke", "\n" + "\n".join(lines))
    assert code == 0, "\n".join(lines)

    inflated = {"schema": 1, "config": record["config"],
                "gauges": {k: v * 2.5
                           for k, v in record["gauges"].items()},
                "categories": record["categories"]}
    bad = tmp_path / "inflated.json"
    bad.write_text(json.dumps(inflated), encoding="utf-8")
    assert perf.check(bad, probe=False, emit=lambda *_: None) == 1
