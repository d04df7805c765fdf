"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import driver
import run
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_times_of_nested_spans_add_up_to_the_wall():
    nested = [("a", 0, 100, 1), ("b", 10, 40, 1), ("c", 50, 60, 1),
              ("d", 20, 30, 1)]
    layers, unattributed = spans.self_times(nested, 0, 120)
    assert layers == pytest.approx({"a": 60e-9, "b": 20e-9, "c": 10e-9,
                                    "d": 10e-9})
    assert unattributed == pytest.approx(20e-9)


def test_self_times_split_overlap_between_two_threads():
    two = [("x", 0, 100, 1), ("y", 50, 150, 2), ("z", 60, 70, 2)]
    layers, unattributed = spans.self_times(two, 0, 200)
    # [50, 100): x and y/z share; z's 10 ns are halved like y's.
    assert layers == pytest.approx({"x": 75e-9, "y": 70e-9, "z": 5e-9})
    assert unattributed == pytest.approx(50e-9)
    assert sum(layers.values()) + unattributed == pytest.approx(200e-9)


def test_self_times_clip_to_a_window():
    layers, unattributed = spans.self_times([("s", 0, 100, 1)], 40, 60)
    assert layers == pytest.approx({"s": 20e-9})
    assert unattributed == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(range(100)) == (90, 89)
    assert spans.tail_percentile(range(50)) == (80, 39)
    assert spans.tail_percentile(range(20)) == (50, 9)
    assert spans.tail_percentile(range(10)) is None


def test_figure_blocks_split_campaign_output():
    text = ("-- distributed campaign x\n== a: first ==\nrow 1\n\nrow 2\n"
            "== b: second ==\nonly\nfigure campaign summary\nfigure ...\n")
    assert run.figure_blocks(text) == {
        "a": "== a: first ==\nrow 1\n\nrow 2", "b": "== b: second ==\nonly"}


def test_serve_blocks_keep_the_figure_order_on_every_seed():
    kinds = sorted(["fresh"] * len(run.SERVE_FIGURES)
                   + ["reask", "reask", "table"])
    for seed in range(4):
        stream = run.Serve(None, None, None, seed).schedule("a")
        for _ in range(3):
            block = [next(stream) for _ in range(run.Serve.BLOCK)]
            assert sorted(kind for kind, _, _ in block) == kinds
            assert [figure for kind, figure, _ in block
                    if kind == "fresh"] == list(run.SERVE_FIGURES)


def _declared(kind: str) -> dict[str, dict]:
    return {m["name"]: m for m in CONFIG[kind]}


def _check_declared(emitted: dict, kind: str) -> None:
    declared = _declared(kind)
    assert set(emitted) == set(declared)
    for name, (value, unit) in emitted.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert declared[name]["unit"] == unit, name


def test_every_emitted_metric_is_declared(tmp_path):
    campaign = run.Campaign("cold", None, tmp_path, None, 0)
    campaign.ops = [{"latency_s": 7.5 + i, "cpu_s": 7.0, "rss_mb": 512.0,
                     "cache_mb": 110.0, "traced": i == 1,
                     "figure_s": {f: 2.0 for f in run.FIGURES}}
                    for i in range(2)]
    result = campaign.summarize([0.3, 0.4, 0.35], traced=True)
    _check_declared(result["e2e"], "end_to_end")

    serve = run.Serve(None, tmp_path, None, 0)
    samples = [{"kind": kind, "figure": figure, "latency_s": 0.3,
                "block": 0, "response": {"ok": True, "wall_seconds": 0.2}}
               for kind in ("fresh", "reask", "table")
               for figure in run.FIGURES]
    result = serve.summarize([0.3], 9.0, samples, 10.0, 2.0, 512.0, 150.0,
                             (0, 1), samples)
    _check_declared(result["e2e"], "end_to_end")

    waterfall = {"pid": 1, "argv": [], "wall_s": 1.0,
                 "layers": {"vm": 0.5}, "unattributed_s": 0.5,
                 "spans": [["vm", 0, 5, -1, 1, 10]]}
    layer = spans.layer_metrics([waterfall])
    layer.update(result["layer"])
    _check_declared(layer, "per_layer")


def test_summaries_skip_what_failed_everywhere(tmp_path):
    campaign = run.Campaign("cold", None, tmp_path, None, 0)
    campaign.ops = [{"latency_s": 7.5, "cpu_s": 7.0, "rss_mb": 512.0,
                     "cache_mb": 110.0, "traced": traced,
                     "figure_s": {"fig4": 2.0}}
                    for traced in (False, True)]
    result = campaign.summarize([0.3], traced=True)
    assert result["layer"]["figure.fig9_s"][0] is None
    assert result["layer"]["figure.fig4_s"][0] == 2.0

    serve = run.Serve(None, tmp_path, None, 0)
    samples = [{"kind": kind, "figure": "fig4", "latency_s": 0.3,
                "block": 0, "response": {"ok": False}}
               for kind in ("fresh", "reask", "table")]
    result = serve.summarize([0.3], 9.0, samples, 10.0, 2.0, 512.0, 150.0,
                             (0, 1), samples)
    assert result["e2e"]["latency_ms"][0] is None
    assert result["extra"]["table_p50_ms"][0] is None
    assert result["layer"]["trace_overhead_share"][0] is None


def test_a_broken_workload_still_prints_a_failed_result(tmp_path, capsys,
                                                        monkeypatch):
    def broken(self, seconds, traced):
        raise RuntimeError("serve did not start")

    monkeypatch.setattr(run.Serve, "run", broken)
    assert not run.run_workload("serve", 0, 1.0, False, tmp_path, {})
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}


def test_benchmark_json_follows_its_limits():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for metric in CONFIG["end_to_end"] + CONFIG["per_layer"]:
        assert metric["better"] in ("lower", "higher")


def test_every_wrapper_target_resolves():
    names = {target[2] for target in driver.TARGETS} | {"setup.import"}
    assert names == set(spans.LAYERS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        for module, qualname, *_ in driver.TARGETS:
            driver.resolve(module, qualname)
        with pytest.raises(LookupError):
            driver.resolve("repro.experiments.runner",
                           "ExperimentRunner.no_such_method")
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_traced_tables_attribute_their_whole_wall(tmp_path):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"),
               TMPDIR=str(tmp_path), BENCH_SPAN_DIR=str(tmp_path / "spans"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "driver.py"), "figures", "table1",
         "table2"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    reference = json.loads((BENCH / "reference.json").read_text())
    for name, text in run.figure_blocks(proc.stdout).items():
        assert run.digest(text) == reference["figures"][name]
    (record,) = spans.load_processes(tmp_path / "spans")
    names = {span[0] for span in record["spans"]}
    assert {"setup.import", "telemetry", "resilience.checkpoint"} <= names
    waterfall = spans.process_waterfall(record)
    total = sum(waterfall["layers"].values()) + waterfall["unattributed_s"]
    assert total == pytest.approx(waterfall["wall_s"], rel=0.01)
