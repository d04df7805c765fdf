"""The ``repro.telemetry`` subsystem: metrics, spans, export."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.__main__ import main
from repro.analysis.report import render_span_tree
from repro.config import skylake_config
from repro.experiments.runner import ExperimentRunner
from repro.telemetry import (
    TELEMETRY,
    MetricError,
    MetricsRegistry,
    Tracer,
)
from repro.telemetry.export import (
    SCHEMA,
    build_chrome_trace,
    build_manifest,
    load_last_manifest,
    write_manifest,
)
from repro.telemetry.registry import registry_dir
from repro.telemetry.tracing import MAX_ROOTS, spans_to_chrome

_64K = 64 * 1024


class FakeClock:
    """Deterministic clock for span/self-time assertions."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_counter_semantics():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counter("hits") is counter
    with pytest.raises(MetricError):
        counter.inc(-1)


def test_labeled_children_are_distinct_series():
    registry = MetricsRegistry()
    pypy = registry.counter("guest.instructions", runtime="pypy")
    v8 = registry.counter("guest.instructions", runtime="v8")
    assert pypy is not v8
    pypy.inc(10)
    v8.inc(3)
    snap = registry.snapshot()
    assert snap["guest.instructions{runtime=pypy}"] == 10
    assert snap["guest.instructions{runtime=v8}"] == 3


def test_gauge_set_and_move():
    registry = MetricsRegistry()
    gauge = registry.gauge("ips", stage="core")
    gauge.set(1000.0)
    gauge.inc(24.0)
    gauge.dec(4.0)
    assert gauge.value == 1020.0
    assert registry.snapshot()["ips{stage=core}"] == 1020.0


def test_histogram_log_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("bytes")
    for value in (0, 1, 2, 3, 900):
        hist.observe(value)
    assert hist.count == 5
    assert hist.sum == 906
    snap = hist.snapshot()
    # 0 and 1 share the <=1 bucket; 2 is <=2; 3 is <=4; 900 is <=1024.
    assert snap["buckets"] == {"le_1": 2, "le_2": 1, "le_4": 1,
                               "le_1024": 1}
    assert hist.mean == pytest.approx(906 / 5)


def test_metric_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(MetricError):
        registry.gauge("x")
    # Same name with different labels keeps the original kind.
    registry.counter("x", shard="a")


def test_registry_reset_and_get():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    assert registry.get("a").value == 1
    assert registry.get("missing") is None
    registry.reset()
    assert registry.snapshot() == {}


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def test_span_nesting_and_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer", workload="chaos"):
        clock.advance(0.010)
        with tracer.span("inner"):
            clock.advance(0.030)
        clock.advance(0.002)
    (outer,) = tracer.tree()
    assert outer["name"] == "outer"
    assert outer["attrs"] == {"workload": "chaos"}
    assert outer["duration_us"] == pytest.approx(42_000, abs=1)
    assert outer["self_us"] == pytest.approx(12_000, abs=1)
    (inner,) = outer["children"]
    assert inner["name"] == "inner"
    assert inner["duration_us"] == pytest.approx(30_000, abs=1)
    assert inner["children"] == []


def test_sibling_spans_attach_to_common_parent():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    (root,) = tracer.tree()
    assert [c["name"] for c in root["children"]] == ["a", "b"]


def test_chrome_trace_schema():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.advance(0.001)
        with tracer.span("inner", k=1):
            clock.advance(0.004)
    events = spans_to_chrome(tracer.tree(), pid=1)
    assert [e["name"] for e in events] == ["outer", "inner"]
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["ts"], float)
        assert isinstance(event["dur"], float)
        assert {"pid", "tid", "cat", "args"} <= set(event)
    inner = events[1]
    assert inner["ts"] == pytest.approx(1000, abs=1)
    assert inner["dur"] == pytest.approx(4000, abs=1)
    # Valid JSON end to end.
    assert json.loads(json.dumps(events)) == events


def test_render_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("guest.run", runtime="pypy"):
        clock.advance(0.5)
        with tracer.span("sim.memory_side"):
            clock.advance(0.25)
    text = render_span_tree(tracer.tree())
    assert "guest.run" in text
    assert "  sim.memory_side" in text
    assert "runtime=pypy" in text
    assert render_span_tree([]).endswith("(no spans recorded)")


def test_tracer_keeps_a_bounded_number_of_roots():
    """A long-lived process opens one root per request or cell; past
    MAX_ROOTS the oldest finished roots go, and their spans are
    counted."""
    with telemetry.session():
        tracer = TELEMETRY.tracer
        for i in range(5000):
            with tracer.span("request", i=i):
                pass
        assert MAX_ROOTS == 4096
        assert len(tracer.roots) == 4096
        assert tracer.roots[0].attrs == {"i": 904}
        assert TELEMETRY.metrics.get(
            "telemetry.spans_dropped").value == 904
        # A dropped root takes its children with it.
        for _ in range(2):
            with tracer.span("request"):
                with tracer.span("child"):
                    pass
        assert TELEMETRY.metrics.get(
            "telemetry.spans_dropped").value == 906


# ----------------------------------------------------------------------
# Global state / zero-cost default
# ----------------------------------------------------------------------

def test_disabled_by_default_records_nothing():
    assert not TELEMETRY.enabled
    TELEMETRY.metrics.counter("x").inc()
    with TELEMETRY.tracer.span("s"):
        pass
    assert TELEMETRY.metrics.snapshot() == {}
    assert TELEMETRY.tracer.tree() == []


def test_session_restores_prior_state():
    assert not TELEMETRY.enabled
    with telemetry.session():
        assert TELEMETRY.enabled
        TELEMETRY.metrics.counter("x").inc()
        assert TELEMETRY.metrics.snapshot() == {"x": 1}
    assert not TELEMETRY.enabled
    # Nested sessions keep the outer one alive.
    telemetry.enable()
    with telemetry.session():
        pass
    assert TELEMETRY.enabled
    telemetry.disable()


def test_reset_clears_data_but_not_enablement():
    with telemetry.session():
        TELEMETRY.metrics.counter("x").inc()
        with TELEMETRY.tracer.span("s"):
            pass
        telemetry.reset()
        assert TELEMETRY.enabled
        assert TELEMETRY.metrics.snapshot() == {}
        assert TELEMETRY.tracer.tree() == []


# ----------------------------------------------------------------------
# Integration: instrumented pipeline
# ----------------------------------------------------------------------

def test_pypy_run_emits_gc_and_jit_events():
    with telemetry.session():
        runner = ExperimentRunner()
        handle = runner.run("chaos", runtime="pypy", jit=True,
                            nursery=_64K)
        metrics = TELEMETRY.metrics.snapshot()
    assert handle.minor_gcs >= 1
    assert handle.traces_compiled >= 1
    # The handle's stats agree with the counters.
    assert metrics["gc.minor_collections{runtime=pypy}"] == \
        handle.minor_gcs
    promoted = metrics["gc.bytes_promoted{runtime=pypy}"]
    assert promoted["count"] == handle.minor_gcs and promoted["sum"] > 0
    compiled = {key: value for key, value in metrics.items()
                if key.startswith("jit.traces_compiled{")}
    assert compiled and all("runtime=pypy" in key for key in compiled)
    assert sum(compiled.values()) == handle.traces_compiled
    assert metrics["jit.trace_ops{runtime=pypy}"]["sum"] > 0


def test_runner_spans_and_cache_counters():
    with telemetry.session():
        runner = ExperimentRunner()
        handle = runner.run("chaos", runtime="pypy", jit=True,
                            nursery=_64K)
        runner.run("chaos", runtime="pypy", jit=True, nursery=_64K)
        config = skylake_config()
        runner.simulate(handle, config)
        runner.simulate(handle, config)
        metrics = TELEMETRY.metrics
        assert metrics.get("runner.trace_cache.miss",
                           runtime="pypy").value == 1
        assert metrics.get("runner.trace_cache.hit",
                           runtime="pypy").value == 1
        assert metrics.get("runner.state_cache.miss").value == 1
        assert metrics.get("runner.state_cache.hit").value == 1
        assert metrics.get("guest.instructions",
                           runtime="pypy").value == len(handle.trace)
        names = [s["name"] for s in TELEMETRY.tracer.tree()]
        assert "guest.run" in names
        assert "sim.memory_side" in names
        assert "sim.core" in names
        ips = metrics.get("sim.instructions_per_second",
                          stage="memory_side")
        assert ips is not None and ips.value > 0


def test_run_handle_throughput_fields():
    runner = ExperimentRunner()
    handle = runner.run("sym_sum", runtime="cpython")
    assert handle.wall_seconds > 0
    assert handle.host_instructions == len(handle.trace)


def test_state_cache_keys_on_run_key_not_trace_id():
    runner = ExperimentRunner()
    config = skylake_config()
    h1 = runner.run("sym_sum", runtime="cpython")
    h2 = runner.run("sym_sum", runtime="pypy", jit=False)
    keys = [runner._run_key(h.workload, h.runtime, h.jit, h.nursery,
                            h.warmup_runs) for h in (h1, h2)]
    assert keys[0] != keys[1]
    s1 = runner.memory_side(h1, config)
    s2 = runner.memory_side(h2, config)
    assert s1 is not s2
    # Cached: same handle + config returns the identical state.
    assert runner.memory_side(h1, config) is s1


def test_trace_read_again_finds_its_held_state():
    """A second read of a trace is a new handle (its first read was not
    held), yet its memory-side state is the one already held: the state
    is not loaded from disk again."""
    with telemetry.session():
        runner = ExperimentRunner()
        config = skylake_config()
        first = runner.run("richards", runtime="v8")
        state = runner.memory_side(first, config)
        again = runner.run("richards", runtime="v8")
        assert again is not first
        assert runner.memory_side(again, config) is state
        metrics = TELEMETRY.metrics
        assert metrics.get("runner.disk_cache.hit", kind="trace").value == 1
        assert metrics.get("runner.disk_cache.hit", kind="state") is None
        assert metrics.get("runner.state_cache.hit").value == 1


def test_cpython_run_counts_allocator_traffic():
    with telemetry.session():
        runner = ExperimentRunner()
        runner.run("sym_sum", runtime="cpython")
        assert TELEMETRY.metrics.get("cpython.mallocs").value > 0
        assert TELEMETRY.metrics.get("cpython.frees").value > 0


def test_v8_run_counts_inline_caches():
    with telemetry.session():
        runner = ExperimentRunner()
        runner.run("richards", runtime="v8")
        hits = TELEMETRY.metrics.get("v8.ic.hit")
        assert hits is not None and hits.value > 0


# ----------------------------------------------------------------------
# Manifest export
# ----------------------------------------------------------------------

def test_manifest_round_trips_through_json(tmp_path):
    with telemetry.session():
        handle = ExperimentRunner().run("chaos", runtime="pypy", jit=True,
                                        nursery=_64K)
        path = write_manifest(str(tmp_path / "manifest.json"),
                              command="run",
                              stats={"workload": handle.workload,
                                     "wall_seconds": handle.wall_seconds})
        loaded = json.loads(path.read_text())
    rebuilt = json.loads(json.dumps(loaded))
    assert rebuilt == loaded
    assert rebuilt["schema"] == SCHEMA == "repro-telemetry/3"
    assert "events" not in rebuilt and "chrome_trace" not in rebuilt
    assert rebuilt["command"] == "run"
    assert rebuilt["stats"]["workload"] == "chaos"
    assert rebuilt["stats"]["wall_seconds"] > 0
    assert rebuilt["metrics"]["gc.minor_collections{runtime=pypy}"] >= 1
    assert rebuilt["metrics"]["jit.traces_compiled{kind=loop,"
                              "runtime=pypy}"] >= 1
    assert any(s["name"] == "guest.run" for s in rebuilt["spans"])
    # The unified trace derives from the stored copy: complete spans on
    # the recorded parent pid, plus lane metadata.
    events = build_chrome_trace(rebuilt)["traceEvents"]
    assert {e["ph"] for e in events} == {"X", "M"}
    assert {e["pid"] for e in events} == {rebuilt["pid"]}
    for event in events:
        if event["ph"] == "X":
            assert "ts" in event and "dur" in event


def test_write_manifest_mirrors_last_run(tmp_path):
    """The registry's copy is the one copy: ``load_last_manifest``
    reads it back, and no ``last_run.json`` mirror is written."""
    with telemetry.session():
        with TELEMETRY.tracer.span("s"):
            pass
        stored = write_manifest(command="test")
        manifest = load_last_manifest()
    assert stored == registry_dir() / "manifest-1.json"
    assert json.loads(stored.read_text()) == manifest
    assert manifest["command"] == "test"
    assert manifest["spans"][0]["name"] == "s"
    assert not list(tmp_path.rglob("last_run.json"))


def test_build_manifest_disabled_is_empty_but_valid():
    manifest = build_manifest(command="noop")
    assert manifest["metrics"] == {}
    assert manifest["spans"] == []
    assert manifest["workers"]["dumps"] == []
    json.dumps(manifest)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_metrics_out_writes_manifest(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["run", "chaos", "--runtime", "pypy",
                 "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads(out.read_text())
    assert manifest["command"] == "run"
    assert manifest["config"]["runtime"] == "pypy"
    assert any(s["name"] == "guest.run" for s in manifest["spans"])
    assert manifest["metrics"]["guest.instructions{runtime=pypy}"] > 0
    assert manifest["stats"]["bytecodes"] > 0
    # The explicit copy equals the one the registry stores.
    assert load_last_manifest() == manifest
    # The CLI leaves library defaults untouched.
    assert not TELEMETRY.enabled


def test_cli_telemetry_dumps_last_manifest(capsys):
    assert main(["run", "sym_sum"]) == 0
    capsys.readouterr()
    assert main(["telemetry"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["command"] == "run"
    assert manifest["config"]["file"] == "sym_sum"


def test_cli_telemetry_tree_and_chrome_out(tmp_path, capsys):
    """``--trace-out`` and ``telemetry --chrome-out`` are one builder
    over one stored manifest."""
    direct = tmp_path / "a.json"
    assert main(["run", "sym_sum", "--trace-out", str(direct)]) == 0
    capsys.readouterr()
    assert main(["telemetry", "--tree"]) == 0
    assert "guest.run" in capsys.readouterr().out
    chrome = tmp_path / "trace.json"
    assert main(["telemetry", "--chrome-out", str(chrome)]) == 0
    capsys.readouterr()
    trace = json.loads(chrome.read_text())
    assert trace["traceEvents"]
    assert all(e["ph"] in ("X", "M") for e in trace["traceEvents"])
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    assert trace["traceEvents"] == \
        json.loads(direct.read_text())["traceEvents"]


def test_cli_telemetry_without_manifest_fails(capsys):
    # The isolation fixture points the registry at an empty dir.
    assert main(["telemetry"]) == 1
    assert "no telemetry manifest" in capsys.readouterr().err


def test_cli_stores_one_manifest_that_a_figure_record_does_not_hide(
        tmp_path, capsys, monkeypatch):
    from repro.experiments.diskcache import cache_root
    from repro.experiments.resilience import _register_figure
    monkeypatch.delenv("REPRO_REGISTRY_DIR")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "sym_sum"]) == 0
    capsys.readouterr()
    stored = cache_root() / "telemetry" / "manifest-1.json"
    assert stored.exists()
    assert not list(tmp_path.rglob("last_run.json"))
    with telemetry.session():
        _register_figure("table1", quick=True, wall=0.1)
    assert main(["telemetry"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest == json.loads(stored.read_text())
    assert manifest["config"]["file"] == "sym_sum"


def test_cli_telemetry_names_a_torn_manifest(capsys):
    assert main(["run", "sym_sum"]) == 0
    capsys.readouterr()
    stored = registry_dir() / "manifest-1.json"
    stored.write_bytes(stored.read_bytes()[:40])
    assert main(["telemetry"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert str(stored) in line and "does not parse" in line


def test_cli_reports_a_registry_that_cannot_store_the_run(
        tmp_path, capsys, monkeypatch):
    blocked = tmp_path / "blocked"
    blocked.write_text("", encoding="utf-8")
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(blocked / "registry"))
    out = tmp_path / "m.json"
    assert main(["run", "sym_sum", "--metrics-out", str(out)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "run registry" in line]
    assert len(warnings) == 1
    assert "did not store this run's manifest" in warnings[0]
    assert json.loads(out.read_text())["config"]["file"] == "sym_sum"
