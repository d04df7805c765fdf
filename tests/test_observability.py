"""The observability plane: run registry, unified traces, status, perf."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import telemetry
from repro.experiments import perf as perf_mod
from repro.experiments.parallel import fan_out
from repro.experiments.resilience import FAULTS_ENV, RetryPolicy, _decide
from repro.experiments.runner import ExperimentRunner
from repro.experiments.status import render_status, watch_status
from repro.telemetry import TELEMETRY
from repro.telemetry.export import (
    build_chrome_trace,
    build_manifest,
    load_last_manifest,
    write_manifest,
)
from repro.telemetry.registry import (
    LOCK_NAME,
    MANIFEST_KEEP,
    REGISTRY_DIR_ENV,
    LockTimeout,
    RunRegistry,
    registry_dir,
    summarize_manifest,
)


def _record(kind: str = "run", **extra) -> dict:
    return {"schema": 1, "kind": kind, "created_unix": time.time(),
            "command": "test", **extra}


# ----------------------------------------------------------------------
# Run registry
# ----------------------------------------------------------------------

def test_registry_assigns_monotonic_seqs(tmp_path):
    telemetry.enable()
    registry = RunRegistry(tmp_path / "reg")
    seqs = [registry.append(_record())["seq"] for _ in range(3)]
    assert seqs == [1, 2, 3]
    assert [r["seq"] for r in registry.records()] == [1, 2, 3]
    assert registry.last()["seq"] == 3


def test_registry_last_filters_by_kind(tmp_path):
    telemetry.enable()
    registry = RunRegistry(tmp_path / "reg")
    registry.append(_record(kind="run"))
    registry.append(_record(kind="perf_probe"))
    registry.append(_record(kind="run"))
    assert registry.last(kind="perf_probe")["seq"] == 2
    assert registry.last(kind="figure") is None


def test_registry_disabled_is_zero_cost(tmp_path):
    telemetry.disable()
    registry = RunRegistry(tmp_path / "reg")
    assert registry.append(_record()) is None
    assert not (tmp_path / "reg").exists()
    assert registry.records() == []


def test_registry_tolerates_torn_lines(tmp_path):
    telemetry.enable()
    registry = RunRegistry(tmp_path / "reg")
    registry.append(_record())
    registry.append(_record())
    with open(registry.runs_path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "kind": "run", "seq"')  # torn write
        handle.write("\n[1, 2]\n")                          # not a record
    assert [r["seq"] for r in registry.records()] == [1, 2]
    # The next append still advances past the valid maximum.
    assert registry.append(_record())["seq"] == 3


def test_registry_prune_drops_oldest(tmp_path):
    telemetry.enable()
    registry = RunRegistry(tmp_path / "reg")
    for _ in range(5):
        registry.append(_record())
    assert registry.prune(max_records=2) == 3
    assert [r["seq"] for r in registry.records()] == [4, 5]
    assert registry.prune(max_records=2) == 0


def test_registry_keeps_newest_manifest_copies(tmp_path):
    telemetry.enable()
    registry = RunRegistry(tmp_path / "reg")
    for i in range(MANIFEST_KEEP + 3):
        registry.append(_record(), manifest={"i": i})
    copies = sorted((tmp_path / "reg").glob("manifest-*.json"),
                    key=RunRegistry._manifest_seq)
    assert len(copies) == MANIFEST_KEEP
    assert RunRegistry._manifest_seq(copies[-1]) == MANIFEST_KEEP + 3


def test_registry_lock_timeout_drops_the_write_not_the_process(tmp_path):
    """A wedged appender elsewhere must bound, not block, this writer:
    the record is dropped, counted, and the next append succeeds."""
    import fcntl
    telemetry.enable()
    telemetry.reset()
    registry = RunRegistry(tmp_path / "reg", lock_timeout=0.2,
                           lock_poll=0.02)
    assert registry.append(_record())["seq"] == 1
    holder = open(tmp_path / "reg" / LOCK_NAME, "a+")
    try:
        fcntl.flock(holder, fcntl.LOCK_EX)  # the wedged "other host"
        start = time.monotonic()
        assert registry.append(_record()) is None
        assert registry.prune(max_records=0) == 0
        assert time.monotonic() - start < 5.0  # bounded, both paths
        with pytest.raises(LockTimeout):
            with registry._locked():
                pass
    finally:
        fcntl.flock(holder, fcntl.LOCK_UN)
        holder.close()
    snapshot = TELEMETRY.metrics.snapshot()
    assert snapshot.get("registry.lock_timeouts", 0) >= 3
    # Reads never needed the lock; writes recover once it frees up.
    assert [r["seq"] for r in registry.records()] == [1]
    assert registry.append(_record())["seq"] == 2


def test_registry_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv(REGISTRY_DIR_ENV, str(tmp_path / "override"))
    assert registry_dir() == tmp_path / "override"
    monkeypatch.delenv(REGISTRY_DIR_ENV)
    # The autouse fixture points REPRO_CACHE_DIR at tmp: the registry
    # lives inside the cache root so one dir holds the whole campaign.
    from repro.experiments.diskcache import cache_root
    assert registry_dir() == cache_root() / "telemetry"


def test_registry_usage_counts_records(tmp_path):
    telemetry.enable()
    registry = RunRegistry(tmp_path / "reg")
    registry.append(_record(), manifest={"x": 1})
    usage = registry.usage()
    assert usage["records"] == 1
    assert usage["entries"] >= 2  # runs.jsonl + manifest copy (+ lock)
    assert usage["bytes"] > 0


def test_summarize_manifest_splits_gauges_and_counters():
    manifest = {
        "command": "run",
        "config": {"workload": "chaos"},
        "stats": {"wall_seconds": 1.5, "cycles": 100,
                  "category_cycles": {"DISPATCH": 40, "EXECUTE": 60}},
        "metrics": {
            "guest.instructions_per_second{runtime=cpython}": 5.0,
            "resilience.retries{reason=crash}": 2,
            "cache.quarantined": 1,
            "span.self_seconds": 0.2,  # neither gauge nor counter prefix
        },
        "workers": {"cells": 3, "pids": [11, 12]},
    }
    record = summarize_manifest(manifest, kind="run")
    assert record["config"] == {"workload": "chaos"}
    assert record["gauges"] == {
        "guest.instructions_per_second{runtime=cpython}": 5.0}
    assert record["counters"] == {
        "resilience.retries{reason=crash}": 2, "cache.quarantined": 1}
    assert record["categories"] == {"DISPATCH": 40, "EXECUTE": 60}
    assert record["workers"] == 3
    assert record["stats"]["wall_seconds"] == 1.5


# ----------------------------------------------------------------------
# load_last_manifest: registry sequence beats filesystem mtime
# ----------------------------------------------------------------------

def test_load_last_manifest_orders_by_seq_not_mtime(tmp_path):
    telemetry.enable()
    telemetry.reset()
    write_manifest(command="first")
    write_manifest(command="second")
    # Force identical (coarse) timestamps on every candidate file: mtime
    # ordering would now tie arbitrarily, the seq ordering cannot.
    stamp = time.time() - 60
    for path in registry_dir().glob("manifest-*.json"):
        os.utime(path, (stamp, stamp))
    manifest = load_last_manifest()
    assert manifest is not None
    assert manifest["command"] == "second"


def test_write_manifest_survives_readonly_registry(tmp_path, monkeypatch):
    telemetry.enable()
    telemetry.reset()
    # A plain file where the registry dir should go: mkdir raises
    # OSError even for root (chmod-based denial would not).
    blocked = tmp_path / "blocked"
    blocked.write_text("", encoding="utf-8")
    monkeypatch.setenv(REGISTRY_DIR_ENV, str(blocked / "registry"))
    explicit = tmp_path / "out" / "m.json"
    assert write_manifest(explicit, command="still-works") is None
    assert TELEMETRY.metrics.snapshot().get("registry.write_errors") == 1
    assert json.loads(explicit.read_text())["command"] == "still-works"
    assert load_last_manifest() is None


# ----------------------------------------------------------------------
# Cross-worker trace unification
# ----------------------------------------------------------------------

def _square_cell(runner, value):
    time.sleep(0.05)  # long enough that both pool workers take cells
    return value * value


def test_unified_trace_has_worker_lanes_and_cell_spans():
    telemetry.enable()
    telemetry.reset()
    runner = ExperimentRunner()
    results = fan_out(runner, _square_cell, [(v,) for v in range(4)],
                      jobs=2)
    assert results == [0, 1, 4, 9]
    snapshot = TELEMETRY.workers.snapshot()
    assert snapshot["cells"] == 4
    parent = os.getpid()
    assert snapshot["pids"] and parent not in snapshot["pids"]

    events = build_chrome_trace(build_manifest())["traceEvents"]
    # One lane and one process_name row per worker pid.
    lanes = {e["pid"] for e in events if e["ph"] == "X"}
    assert lanes == set(snapshot["pids"])
    rows = [e for e in events if e["ph"] == "M"]
    assert sorted(e["pid"] for e in rows) == \
        sorted([parent, *snapshot["pids"]])
    names = {e["args"]["name"] for e in rows}
    assert f"repro parent (pid {parent})" in names
    # Worker span timestamps are rebased onto the parent's wall clock:
    # every cell span starts after the parent's tracer began.
    cell_spans = [e for e in events
                  if e["ph"] == "X" and e["name"] == "cell"]
    assert len(cell_spans) == 4
    assert all(e["ts"] >= 0 for e in cell_spans)


def _counting_cell(runner, value):
    TELEMETRY.metrics.counter("obs.cell_executions").inc()
    return value * 10


_FAST = RetryPolicy(max_retries=2, backoff_base=0.005, backoff_max=0.01,
                    max_pool_rebuilds=2)


def test_serial_degrade_merges_telemetry_exactly_once(monkeypatch):
    """Satellite: no double-count when the pool dies and cells rerun
    serial — crashed attempts never ship a payload, and the in-process
    fallback writes straight into the parent registry."""
    telemetry.enable()
    telemetry.reset()
    monkeypatch.setenv(FAULTS_ENV, "worker_crash:p=1")
    runner = ExperimentRunner()
    results = fan_out(runner, _counting_cell, [(v,) for v in range(5)],
                      jobs=2, policy=_FAST)
    assert results == [0, 10, 20, 30, 40]
    snapshot = TELEMETRY.metrics.snapshot()
    # Every crashed worker attempt died before its cell body ran; the
    # only executions that count are the five serial in-parent ones.
    assert snapshot.get("obs.cell_executions") == 5
    assert TELEMETRY.workers.snapshot()["cells"] == 0
    assert snapshot.get("resilience.serial_fallbacks") == 1
    assert snapshot.get("resilience.serial_cells") == 5
    # The recoveries are on the parent's timeline: pool teardowns, and
    # the serial cells as ``cell`` spans on the parent lane.
    parent = os.getpid()
    events = build_chrome_trace(build_manifest())["traceEvents"]
    rebuilds = [e for e in events if e["name"] == "resilience.pool_rebuild"]
    assert len(rebuilds) == snapshot["resilience.pool_rebuilds"] >= 1
    assert {e["pid"] for e in rebuilds} == {parent}
    serial = [e for e in events if e["ph"] == "X" and e["name"] == "cell"]
    assert len(serial) == 5 and {e["pid"] for e in serial} == {parent}
    isolated = [e for e in events if e["name"] == "resilience.isolated"]
    assert isolated and all(e["dur"] > 0 for e in isolated)


def _isolation_sites(n):
    return [f"{_counting_cell.__module__}."
            f"{_counting_cell.__qualname__}#{i}" for i in range(n)]


def test_isolation_rung_ships_worker_telemetry(monkeypatch):
    """After the pool-rebuild budget, cells run isolated (one fresh
    single-worker pool each) — their telemetry still comes back."""
    telemetry.enable()
    telemetry.reset()
    # A seed that crashes >=1 of 4 cells at attempt 0 and none at
    # attempt 1: the isolated retries (attempt 1) must succeed.
    seed = next(
        s for s in range(500)
        if any(_decide(s, "worker_crash", site, 0, 0.5)
               for site in _isolation_sites(4))
        and not any(_decide(s, "worker_crash", site, 1, 0.5)
                    for site in _isolation_sites(4)))
    monkeypatch.setenv(FAULTS_ENV, f"worker_crash:p=0.5,seed={seed}")
    policy = RetryPolicy(max_retries=2, backoff_base=0.005,
                         backoff_max=0.01, max_pool_rebuilds=0)
    runner = ExperimentRunner()
    results = fan_out(runner, _counting_cell, [(v,) for v in range(4)],
                      jobs=2, policy=policy)
    assert results == [0, 10, 20, 30]
    snapshot = TELEMETRY.metrics.snapshot()
    assert snapshot.get("resilience.isolation_fallbacks") == 1
    assert snapshot.get("resilience.isolated_cells", 0) >= 1
    assert snapshot.get("resilience.serial_fallbacks") is None
    # Every cell executed exactly once in some worker, and every
    # payload shipped: harvested from the broken pool or isolated.
    assert snapshot.get("obs.cell_executions") == 4
    assert TELEMETRY.workers.snapshot()["cells"] == 4


# ----------------------------------------------------------------------
# repro status
# ----------------------------------------------------------------------

def test_status_renders_all_three_sections(tmp_path):
    telemetry.enable()
    telemetry.reset()
    TELEMETRY.metrics.counter("runner.disk_cache.hit").inc(3)
    TELEMETRY.metrics.counter("runner.disk_cache.miss").inc()
    TELEMETRY.metrics.gauge("runner.cache.bytes").set(128 * 1024 * 1024)
    TELEMETRY.metrics.gauge("runner.cache.budget_bytes").set(
        512 * 1024 * 1024)
    write_manifest(command="run chaos")
    text = render_status(checkpoint=tmp_path / "journal")
    assert "campaign" in text
    assert "disk cache" in text
    assert "registry   : 1 records" in text
    assert "seq 1 [run] run chaos" in text
    assert "75.0% hit rate" in text
    assert "128.0 MiB held of 512.0 MiB budget (25%)" in text


def test_status_renders_serve_panel_from_the_session_journal(tmp_path):
    from repro.experiments.client import serve_root
    from repro.experiments.server import SessionJournal
    journal = SessionJournal(serve_root())
    journal.append({"type": "request", "key": "answered-1",
                    "tenant": "alice",
                    "spec": {"type": "bench", "cells": 1}})
    journal.append({"type": "result", "key": "answered-1",
                    "tenant": "alice", "status": "ok"})
    journal.append({"type": "request", "key": "pending-1",
                    "tenant": "bob",
                    "spec": {"type": "bench", "cells": 1}})
    text = render_status(checkpoint=tmp_path / "journal")
    assert "serve      : 1 answered, 1 pending" in text
    assert "alice (1)" in text and "bob (1)" in text
    assert "pending-1" in text
    assert "resumed on next serve start" in text


def test_status_is_read_only_when_disabled(tmp_path):
    telemetry.disable()
    text = render_status(checkpoint=tmp_path / "journal")
    assert "registry   : empty" in text
    assert not registry_dir().joinpath("runs.jsonl").exists()
    assert not TELEMETRY.enabled


def test_status_watch_respects_max_iterations(tmp_path):
    frames = []
    watch_status(interval=0.0, checkpoint=tmp_path / "journal",
                 emit=frames.append, clear=False, max_iterations=2)
    assert len(frames) == 2
    assert all("repro campaign status" in frame for frame in frames)


# ----------------------------------------------------------------------
# Perf-regression sentinel
# ----------------------------------------------------------------------

_PROBE = {"kind": "perf_probe", "schema": 1, "command": "perf",
          "created_unix": 0.0,
          "config": {"workload": "deltablue"},
          "gauges": {"guest": 1000.0, "sim.core.ooo": 50000.0},
          "categories": {"dispatch": 0.4, "execute": 0.6}}


def _seed_probe(gauges=None, categories=None):
    record = dict(_PROBE)
    if gauges is not None:
        record["gauges"] = gauges
    if categories is not None:
        record["categories"] = categories
    return RunRegistry().append(record)


def _baseline(tmp_path, gauges, categories):
    path = tmp_path / "perf.json"
    path.write_text(json.dumps({"schema": 1, "config": {},
                                "gauges": gauges,
                                "categories": categories}),
                    encoding="utf-8")
    return path


def test_perf_check_passes_within_threshold(tmp_path):
    telemetry.enable()
    _seed_probe()
    path = _baseline(tmp_path, _PROBE["gauges"], _PROBE["categories"])
    lines = []
    assert perf_mod.check(path, probe=False, emit=lines.append) == 0
    assert any("all gauges within threshold" in line for line in lines)


def test_perf_check_fails_on_2x_gauge_regression(tmp_path):
    telemetry.enable()
    _seed_probe()
    inflated = {name: value * 3 for name, value
                in _PROBE["gauges"].items()}
    path = _baseline(tmp_path, inflated, _PROBE["categories"])
    lines = []
    assert perf_mod.check(path, probe=False, emit=lines.append) == 1
    assert any(line.startswith("FAIL: gauge") for line in lines)


def test_perf_check_fails_on_share_drift(tmp_path):
    telemetry.enable()
    _seed_probe()
    drifted = {"dispatch": 0.8, "execute": 0.2}
    path = _baseline(tmp_path, _PROBE["gauges"], drifted)
    lines = []
    assert perf_mod.check(path, probe=False, emit=lines.append) == 1
    assert any(line.startswith("FAIL: category") for line in lines)


def test_perf_check_threshold_is_tunable(tmp_path):
    telemetry.enable()
    _seed_probe()
    inflated = {name: value * 3 for name, value
                in _PROBE["gauges"].items()}
    path = _baseline(tmp_path, inflated, _PROBE["categories"])
    assert perf_mod.check(path, threshold=4.0, probe=False,
                          emit=lambda *_: None) == 0


def test_perf_check_update_writes_baseline(tmp_path):
    telemetry.enable()
    _seed_probe()
    path = tmp_path / "fresh" / "perf.json"
    assert perf_mod.check(path, update=True, probe=False,
                          emit=lambda *_: None) == 0
    baseline = json.loads(path.read_text(encoding="utf-8"))
    assert baseline["gauges"] == _PROBE["gauges"]
    assert baseline["categories"] == _PROBE["categories"]
    # And the fresh baseline gates green against its own measurement.
    assert perf_mod.check(path, probe=False, emit=lambda *_: None) == 0


def test_perf_check_without_baseline_or_probe(tmp_path):
    telemetry.enable()
    lines = []
    assert perf_mod.check(tmp_path / "none.json", probe=False,
                          emit=lines.append) == 1
    assert any("no perf_probe record" in line for line in lines)
    _seed_probe()
    lines.clear()
    assert perf_mod.check(tmp_path / "none.json", probe=False,
                          emit=lines.append) == 1
    assert any("--update" in line for line in lines)


def test_perf_diff_compares_last_two_probes():
    telemetry.enable()
    lines = []
    assert perf_mod.diff(emit=lines.append) == 0
    assert any("need two perf_probe records" in line for line in lines)
    _seed_probe()
    _seed_probe(gauges={"guest": 2000.0, "sim.core.ooo": 50000.0})
    lines.clear()
    assert perf_mod.diff(emit=lines.append) == 0
    joined = "\n".join(lines)
    assert "seq 1" in joined and "seq 2" in joined
    assert "2.00x" in joined


def test_committed_perf_baseline_is_well_formed():
    """The checked-in baseline must carry every gated gauge."""
    baseline = json.loads(
        perf_mod.DEFAULT_BASELINE.read_text(encoding="utf-8"))
    assert set(baseline["gauges"]) == set(perf_mod.GAUGES)
    assert all(value > 0 for value in baseline["gauges"].values())
    shares = baseline["categories"]
    assert shares and abs(sum(shares.values()) - 1.0) < 0.05


# ----------------------------------------------------------------------
# Zero-cost when disabled
# ----------------------------------------------------------------------

def test_disabled_telemetry_has_null_sinks_and_no_registry():
    telemetry.disable()
    runner = ExperimentRunner()
    results = fan_out(runner, _counting_cell, [(v,) for v in range(3)],
                      jobs=2)
    assert results == [0, 10, 20]
    assert TELEMETRY.metrics.snapshot() == {}
    assert TELEMETRY.workers.snapshot()["cells"] == 0
    assert not registry_dir().joinpath("runs.jsonl").exists()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_telemetry_registry_tail(capsys):
    from repro.__main__ import main
    assert main(["telemetry", "--registry"]) == 1
    telemetry.enable()
    RunRegistry().append(_record(command="seeded"))
    telemetry.disable()
    assert main(["telemetry", "--registry", "--tail", "5"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out.strip().splitlines()[-1])
    assert record["command"] == "seeded"
    assert record["seq"] == 1


def test_cli_status_runs(capsys):
    from repro.__main__ import main
    assert main(["status"]) == 0
    assert "repro campaign status" in capsys.readouterr().out
