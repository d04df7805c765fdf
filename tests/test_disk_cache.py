"""Persistent on-disk run cache: round trips, keys, and corruption."""

from __future__ import annotations

import errno
import json
import os
import time

import numpy as np
import pytest

from repro.config import scaled_config, skylake_config
from repro.experiments.diskcache import (
    CACHE_DIR_ENV,
    CACHE_TOGGLE_ENV,
    QUARANTINE_DIR,
    DiskCache,
    cache_root,
    content_key,
    file_sha256,
)
from repro.experiments.resilience import FaultPlan, FaultSpec
from repro.experiments.runner import ExperimentRunner, memory_side_key
from repro.telemetry import TELEMETRY


def fresh_runner(tmp_path, name="cache"):
    return ExperimentRunner(disk_cache=DiskCache(tmp_path / name))


def test_content_key_is_order_insensitive_and_value_sensitive():
    a = content_key({"x": 1, "y": 2})
    b = content_key({"y": 2, "x": 1})
    c = content_key({"x": 1, "y": 3})
    assert a == b
    assert a != c


def test_cache_root_env_knobs(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "explicit"))
    assert cache_root() == tmp_path / "explicit"
    monkeypatch.setenv(CACHE_TOGGLE_ENV, "off")
    assert cache_root() is None
    assert not DiskCache().enabled
    monkeypatch.setenv(CACHE_TOGGLE_ENV, "0")
    assert cache_root() is None


def test_run_round_trip_is_bit_identical(tmp_path):
    writer = fresh_runner(tmp_path)
    original = writer.run("chaos", runtime="pypy", jit=True,
                          nursery=64 * 1024)
    reader = fresh_runner(tmp_path)
    cached = reader.run("chaos", runtime="pypy", jit=True,
                        nursery=64 * 1024)
    assert cached is not original
    for name, column in original.trace.arrays().items():
        assert np.array_equal(column, cached.trace.arrays()[name]), name
    assert cached.output == original.output
    assert cached.site_table == original.site_table
    assert cached.measure_start == original.measure_start
    assert cached.bytecodes == original.bytecodes
    assert cached.minor_gcs == original.minor_gcs


def test_state_round_trip_is_bit_identical(tmp_path):
    config = skylake_config()
    writer = fresh_runner(tmp_path)
    handle = writer.run("chaos", runtime="pypy", jit=True,
                        nursery=64 * 1024)
    original = writer.memory_side(handle, config)
    reader = fresh_runner(tmp_path)
    cached_handle = reader.run("chaos", runtime="pypy", jit=True,
                               nursery=64 * 1024)
    cached = reader.memory_side(cached_handle, config)
    assert np.array_equal(original.dlevel, cached.dlevel)
    assert np.array_equal(original.ilevel, cached.ilevel)
    assert np.array_equal(original.mispredicted, cached.mispredicted)
    assert original.mem_lines == cached.mem_lines
    assert original.cache_stats == cached.cache_stats
    assert original.branch_stats == cached.branch_stats


def test_disk_hits_are_counted(tmp_path):
    from repro import telemetry
    telemetry.enable()
    runner = fresh_runner(tmp_path)
    runner.run("chaos", runtime="pypy", jit=True, nursery=64 * 1024)
    reader = fresh_runner(tmp_path)
    reader.run("chaos", runtime="pypy", jit=True, nursery=64 * 1024)
    snapshot = TELEMETRY.metrics.snapshot()
    hits = [v for k, v in snapshot.items()
            if k.startswith("runner.disk_cache.hit") and "trace" in k]
    assert hits and hits[0] >= 1


def test_key_covers_run_parameters(tmp_path):
    runner = fresh_runner(tmp_path)
    base = dict(workload="chaos", runtime="pypy", jit=True,
                nursery=64 * 1024)
    key = content_key(runner._trace_key_params(
        base["workload"], base["runtime"], base["jit"], base["nursery"],
        0))
    for variation in (dict(base, jit=False),
                      dict(base, nursery=128 * 1024),
                      dict(base, workload="nbody"),
                      dict(base, runtime="cpython")):
        other = content_key(runner._trace_key_params(
            variation["workload"], variation["runtime"],
            variation["jit"], variation["nursery"], 0))
        assert other != key, variation


def test_state_key_covers_geometry_but_not_latency():
    base = skylake_config()
    assert memory_side_key(base) == memory_side_key(
        base.with_memory_latency(400))
    assert memory_side_key(base) != memory_side_key(
        base.with_llc_size(base.l3.size * 2))
    assert memory_side_key(base) != memory_side_key(
        base.with_line_size(128))
    assert memory_side_key(base) != memory_side_key(
        base.with_branch_scale(0.5))
    assert memory_side_key(base) != memory_side_key(scaled_config(4))


def test_corrupt_entries_fall_back_to_recompute(tmp_path):
    writer = fresh_runner(tmp_path)
    original = writer.run("chaos", runtime="pypy", jit=True,
                          nursery=64 * 1024)
    root = tmp_path / "cache"
    for path in (root / "traces").iterdir():
        if path.suffix == ".npz":
            path.write_bytes(b"not an npz")
        else:
            path.write_text("{corrupt")
    reader = fresh_runner(tmp_path)
    recomputed = reader.run("chaos", runtime="pypy", jit=True,
                            nursery=64 * 1024)
    for name, column in original.trace.arrays().items():
        assert np.array_equal(column, recomputed.trace.arrays()[name])


def test_disabled_cache_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_TOGGLE_ENV, "off")
    runner = ExperimentRunner()
    assert not runner.disk_cache.enabled
    runner.run("chaos", runtime="pypy", jit=True, nursery=64 * 1024)
    assert not any(os.scandir(tmp_path))


def test_atomic_writes_leave_no_tmp_litter(tmp_path):
    runner = fresh_runner(tmp_path)
    handle = runner.run("chaos", runtime="pypy", jit=True,
                        nursery=64 * 1024)
    runner.memory_side(handle, skylake_config())
    leftovers = [p for p in (tmp_path / "cache").rglob("*")
                 if ".tmp" in p.name]
    assert leftovers == []


def test_schema_salt_changes_every_key(monkeypatch):
    key = content_key({"x": 1})
    monkeypatch.setattr("repro.experiments.diskcache.CACHE_SCHEMA", 99)
    assert content_key({"x": 1}) != key


def test_sidecar_is_compact_json(tmp_path):
    runner = fresh_runner(tmp_path)
    runner.run("chaos", runtime="pypy", jit=True, nursery=64 * 1024)
    sidecars = list((tmp_path / "cache" / "traces").glob("*.json"))
    assert len(sidecars) == 1
    meta = json.loads(sidecars[0].read_text())
    assert meta["workload"] == "chaos"
    assert meta["runtime"] == "pypy"
    assert "site_table" in meta
    assert len(meta["npz_sha256"]) == 64  # the pair's commit record


# ----------------------------------------------------------------------
# Corruption: quarantine exactly once, then recompute correctly
# ----------------------------------------------------------------------

_RUN = dict(workload="chaos", runtime="pypy", jit=True,
            nursery=64 * 1024)


def _counter(prefix):
    return sum(v for k, v in TELEMETRY.metrics.snapshot().items()
               if k.startswith(prefix))


def _entry_paths(tmp_path, kind):
    """The single (payload, sidecar) pair under one kind directory."""
    directory = tmp_path / "cache" / kind
    (payload,) = [p for p in directory.iterdir()
                  if p.suffix in (".rpt", ".npz")]
    (meta,) = directory.glob("*.json")
    return payload, meta


def _quarantined_files(tmp_path):
    quarantine = tmp_path / "cache" / QUARANTINE_DIR
    return sorted(p.name for p in quarantine.iterdir()) \
        if quarantine.is_dir() else []


def _populate_trace(tmp_path):
    writer = fresh_runner(tmp_path)
    return writer.run(**_RUN)


def _populate_state(tmp_path):
    writer = fresh_runner(tmp_path)
    handle = writer.run(**_RUN)
    return writer.memory_side(handle, skylake_config())


def test_truncated_trace_npz_quarantined_once_and_recomputed(tmp_path):
    from repro import telemetry
    original = _populate_trace(tmp_path)
    npz, _ = _entry_paths(tmp_path, "traces")
    npz.write_bytes(npz.read_bytes()[:100])
    telemetry.enable()
    telemetry.reset()
    recomputed = fresh_runner(tmp_path).run(**_RUN)
    for name, column in original.trace.arrays().items():
        assert np.array_equal(column, recomputed.trace.arrays()[name])
    assert _counter("cache.checksum_mismatch{kind=traces}") == 1
    assert _counter("cache.quarantined{kind=traces}") == 1
    assert len(_quarantined_files(tmp_path)) == 2  # npz + sidecar moved
    # The recompute re-stored a clean entry: the next reader hits it
    # without tripping quarantine again.
    fresh_runner(tmp_path).run(**_RUN)
    assert _counter("cache.quarantined{kind=traces}") == 1


def test_truncated_payload_with_matching_checksum_quarantined(tmp_path):
    """A payload committed corrupt passes its checksum; the decoder
    still rejects it, so the entry is quarantined and recomputed."""
    from repro import telemetry
    original = _populate_trace(tmp_path)
    payload, meta = _entry_paths(tmp_path, "traces")
    payload.write_bytes(payload.read_bytes()[:100])
    record = json.loads(meta.read_text())
    record["npz_sha256"] = file_sha256(payload)
    meta.write_text(json.dumps(record), encoding="utf-8")
    telemetry.enable()
    telemetry.reset()
    recomputed = fresh_runner(tmp_path).run(**_RUN)
    assert np.array_equal(original.trace.arrays()["pc"],
                          recomputed.trace.arrays()["pc"])
    # The checksum matched, so the trace decoder caught it instead.
    assert _counter("cache.checksum_mismatch") == 0
    assert _counter("cache.quarantined{kind=traces}") == 1


def test_invalid_json_sidecar_quarantined_once(tmp_path):
    from repro import telemetry
    original = _populate_trace(tmp_path)
    _, meta = _entry_paths(tmp_path, "traces")
    meta.write_text("{definitely not json", encoding="utf-8")
    telemetry.enable()
    telemetry.reset()
    recomputed = fresh_runner(tmp_path).run(**_RUN)
    assert recomputed.output == original.output
    assert _counter("cache.quarantined{kind=traces}") == 1
    assert len(_quarantined_files(tmp_path)) == 2


def test_flipped_byte_in_state_npz_quarantined_and_recomputed(tmp_path):
    from repro import telemetry
    original = _populate_state(tmp_path)
    npz, _ = _entry_paths(tmp_path, "states")
    payload = bytearray(npz.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    npz.write_bytes(bytes(payload))
    telemetry.enable()
    telemetry.reset()
    reader = fresh_runner(tmp_path)
    recomputed = reader.memory_side(reader.run(**_RUN),
                                    skylake_config())
    assert np.array_equal(original.dlevel, recomputed.dlevel)
    assert original.cache_stats == recomputed.cache_stats
    assert _counter("cache.checksum_mismatch{kind=states}") == 1
    assert _counter("cache.quarantined{kind=states}") == 1


def test_orphaned_npz_is_removed_not_quarantined(tmp_path):
    from repro import telemetry
    original = _populate_trace(tmp_path)
    npz, meta = _entry_paths(tmp_path, "traces")
    meta.unlink()  # simulate a writer killed before the commit record
    telemetry.enable()
    telemetry.reset()
    recomputed = fresh_runner(tmp_path).run(**_RUN)
    assert recomputed.bytecodes == original.bytecodes
    assert _counter("cache.orphans_removed{kind=traces}") == 1
    assert _counter("cache.quarantined") == 0
    assert _quarantined_files(tmp_path) == []


def test_orphaned_sidecar_is_dropped(tmp_path):
    from repro import telemetry
    _populate_state(tmp_path)
    npz, meta = _entry_paths(tmp_path, "states")
    npz.unlink()
    telemetry.enable()
    telemetry.reset()
    reader = fresh_runner(tmp_path)
    state = reader.memory_side(reader.run(**_RUN), skylake_config())
    assert state is not None
    assert _counter("cache.orphans_removed{kind=states}") == 1
    assert not meta.exists() or json.loads(meta.read_text())


def test_sidecar_hash_tamper_detected(tmp_path):
    """Every load checks the payload against its sidecar's SHA-256."""
    from repro import telemetry
    _populate_trace(tmp_path)
    _, meta = _entry_paths(tmp_path, "traces")
    record = json.loads(meta.read_text())
    record["npz_sha256"] = "0" * 64
    meta.write_text(json.dumps(record), encoding="utf-8")
    telemetry.enable()
    telemetry.reset()
    fresh_runner(tmp_path).run(**_RUN)
    assert _counter("cache.checksum_mismatch{kind=traces}") == 1
    assert _counter("cache.quarantined{kind=traces}") == 1


def test_injected_cache_corruption_round_trip(tmp_path):
    from repro import telemetry
    telemetry.enable()
    telemetry.reset()
    plan = FaultPlan({"cache_corrupt": FaultSpec("cache_corrupt", 1.0)})
    writer = ExperimentRunner(
        disk_cache=DiskCache(tmp_path / "cache", fault_plan=plan))
    original = writer.run(**_RUN)
    assert _counter("cache.faults_injected{kind=traces}") >= 1
    npz, meta = _entry_paths(tmp_path, "traces")
    assert file_sha256(npz) != json.loads(meta.read_text())["npz_sha256"]
    recomputed = fresh_runner(tmp_path).run(**_RUN)
    for name, column in original.trace.arrays().items():
        assert np.array_equal(column, recomputed.trace.arrays()[name])
    assert _counter("cache.quarantined{kind=traces}") == 1


def test_stale_tmp_litter_is_swept(tmp_path):
    from repro import telemetry
    _populate_state(tmp_path)
    root = tmp_path / "cache"
    stale_a = root / "traces" / "dead.npz.tmp123"
    stale_b = root / "states" / "dead.json.tmp9"
    fresh = root / "traces" / "live.npz.tmp7"
    for path in (stale_a, stale_b, fresh):
        path.write_bytes(b"partial")
    old = time.time() - 7200
    os.utime(stale_a, (old, old))
    os.utime(stale_b, (old, old))
    telemetry.enable()
    telemetry.reset()
    cache = DiskCache(root)
    assert cache.sweep_tmp() == 2
    assert not stale_a.exists() and not stale_b.exists()
    assert fresh.exists()  # young enough to belong to a live writer
    assert _counter("cache.tmp_swept") == 2
    # gc's sweep is unconditional: the survivor goes too.
    assert cache.gc(max_bytes=1 << 40)["tmp_removed"] == 1


def test_gc_evicts_least_recently_used_first(tmp_path):
    writer = fresh_runner(tmp_path)
    writer.run(**_RUN)
    writer.run("nbody", runtime="pypy", jit=True, nursery=64 * 1024)
    cache = DiskCache(tmp_path / "cache")
    sidecars = sorted((tmp_path / "cache" / "traces").glob("*.json"))
    old = time.time() - 1000
    os.utime(sidecars[0], (old, old))  # make one entry cold
    hot = sidecars[1]
    (hot_payload,) = [hot.with_suffix(ext) for ext in (".rpt", ".npz")
                      if hot.with_suffix(ext).exists()]
    keep = hot.stat().st_size + hot_payload.stat().st_size + 1024
    stats = cache.gc(max_bytes=keep)
    assert stats["evicted"] == 1
    assert stats["kept_entries"] == 1
    assert not sidecars[0].exists() and sidecars[1].exists()
    assert cache.gc(max_bytes=0)["evicted"] == 1  # evicts the rest
    assert cache.usage()["entries"] == 0


def test_usage_counts_entries_and_quarantine(tmp_path):
    _populate_state(tmp_path)
    cache = DiskCache(tmp_path / "cache")
    usage = cache.usage()
    assert usage["traces"]["entries"] == 1
    assert usage["states"]["entries"] == 1
    assert usage["entries"] == 2
    assert usage["bytes"] > 0
    npz, _ = _entry_paths(tmp_path, "traces")
    key = npz.stem
    assert cache.quarantine("traces", key)
    assert cache.usage()["quarantined_files"] == 2
    assert cache.usage()["traces"]["entries"] == 0


# ----------------------------------------------------------------------
# The runner's in-memory LRU in front of the disk cache
# ----------------------------------------------------------------------


def test_eviction_and_disk_refetch_are_counted(tmp_path, monkeypatch):
    from repro import telemetry
    telemetry.enable()
    # A one-byte budget holds only the newest entry.
    monkeypatch.setattr(ExperimentRunner, "CACHE_BUDGET_BYTES", 1)
    runner = ExperimentRunner(disk_cache=DiskCache(tmp_path / "cache"))
    point = dict(runtime="pypy", jit=True, nursery=64 * 1024)
    # First reads are stored on disk and not held.
    runner.run("chaos", **point)
    runner.run("nbody", **point)
    assert _counter("runner.cache.not_held{kind=trace}") == 2
    assert _counter("runner.cache.evicted") == 0
    # Second reads come back from disk and are held, the newest
    # evicting the one before it.
    runner.run("chaos", **point)
    runner.run("nbody", **point)
    assert _counter("runner.disk_cache.hit{kind=trace}") == 2
    assert _counter("runner.cache.evicted{kind=trace}") == 1
    # Re-running the evicted workload reads it back from disk.
    handle = runner.run("chaos", **point)
    assert _counter("runner.disk_cache.hit{kind=trace}") == 3
    assert _counter("runner.cache.evicted{kind=trace}") == 2
    state_a = runner.memory_side(handle, skylake_config())
    runner.memory_side(handle, scaled_config(1))
    assert _counter("runner.cache.evicted{kind=state}") == 1
    refetched = runner.memory_side(handle, skylake_config())
    assert _counter("runner.disk_cache.hit{kind=state}") == 1
    assert refetched.mem_lines == state_a.mem_lines
    assert runner.cache_bytes == _counter("runner.cache.bytes")


def test_trace_whose_store_fails_is_held_at_first_read(tmp_path,
                                                       monkeypatch):
    """A run the disk cache did not commit cannot be loaded back, so the
    runner holds it from its first read."""
    from repro import telemetry
    from repro.experiments import diskcache

    def full_disk(path, data, fsync=False):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    telemetry.enable()
    monkeypatch.setattr(diskcache, "atomic_write", full_disk)
    runner = fresh_runner(tmp_path)
    first = runner.run("sym_sum", runtime="cpython")
    assert _counter("cache.write_errors{kind=traces}") == 1
    assert _counter("runner.cache.not_held") == 0
    assert runner.run("sym_sum", runtime="cpython") is first
    assert _counter("runner.disk_cache.hit") == 0


def test_eviction_without_disk_cache_recomputes(tmp_path, monkeypatch):
    from repro import telemetry
    telemetry.enable()
    monkeypatch.setattr(ExperimentRunner, "CACHE_BUDGET_BYTES", 1)
    runner = ExperimentRunner(disk_cache=DiskCache(None))
    first = runner.run("chaos", runtime="pypy", jit=True, nursery=64 * 1024)
    runner.run("nbody", runtime="pypy", jit=True, nursery=64 * 1024)
    assert _counter("runner.cache.evicted{kind=trace}") == 1
    # With no disk tier behind it, an evicted trace is interpreted again.
    again = runner.run("chaos", runtime="pypy", jit=True, nursery=64 * 1024)
    assert again is not first
    assert _counter("runner.trace_cache.miss") == 3
    assert _counter("runner.disk_cache") == 0
    assert np.array_equal(again.trace.arrays()["pc"],
                          first.trace.arrays()["pc"])


# -- verify_entries: the `repro cache verify` audit --------------------


def test_verify_entries_clean_cache_passes(tmp_path):
    _populate_state(tmp_path)  # stores one trace + one state
    cache = DiskCache(tmp_path / "cache")
    stats = cache.verify_entries()
    assert stats["checked"] == 2
    assert stats["ok"] == 2
    assert stats["checksum_mismatches"] == 0
    assert stats["key_mismatches"] == 0
    # Fresh entries always record their key_params sidecar field.
    assert stats["unkeyed"] == 0
    assert _quarantined_files(tmp_path) == []


def test_verify_entries_quarantines_checksum_mismatch(tmp_path):
    from repro import telemetry
    _populate_trace(tmp_path)
    npz, _ = _entry_paths(tmp_path, "traces")
    npz.write_bytes(npz.read_bytes()[:-7])
    telemetry.enable()
    telemetry.reset()
    stats = DiskCache(tmp_path / "cache").verify_entries()
    assert stats["checked"] == 1
    assert stats["checksum_mismatches"] == 1
    assert stats["ok"] == 0
    assert len(_quarantined_files(tmp_path)) == 2  # npz + sidecar
    # And the entry is gone, so a reader recomputes cleanly.
    recomputed = fresh_runner(tmp_path).run(**_RUN)
    assert recomputed.output


def test_verify_entries_quarantines_key_mismatch(tmp_path):
    from repro import telemetry
    _populate_trace(tmp_path)
    npz, meta_path = _entry_paths(tmp_path, "traces")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert isinstance(meta["key_params"], dict)
    # Sidecar claims parameters that hash to a different key: the
    # payload is intact but was filed under the wrong name.
    meta["key_params"]["workload"] = "nbody"
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    telemetry.enable()
    telemetry.reset()
    stats = DiskCache(tmp_path / "cache").verify_entries()
    assert stats["key_mismatches"] == 1
    assert stats["checksum_mismatches"] == 0
    assert _counter("cache.key_mismatch{kind=traces}") == 1
    assert len(_quarantined_files(tmp_path)) == 2


def test_verify_entries_tolerates_legacy_unkeyed_sidecars(tmp_path):
    _populate_trace(tmp_path)
    _, meta_path = _entry_paths(tmp_path, "traces")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta.pop("key_params")  # entry written before the audit existed
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    stats = DiskCache(tmp_path / "cache").verify_entries()
    assert stats["unkeyed"] == 1
    assert stats["ok"] == 1
    assert stats["key_mismatches"] == 0
    assert _quarantined_files(tmp_path) == []


def test_verify_entries_sampling_is_deterministic(tmp_path):
    writer = fresh_runner(tmp_path)
    for workload in ("chaos", "nbody", "richards"):
        writer.run(workload=workload, runtime="pypy", jit=True,
                   nursery=64 * 1024)
    cache = DiskCache(tmp_path / "cache")
    stats = cache.verify_entries(sample=2)
    assert stats["checked"] == 2
    assert stats["skipped"] == 1
    assert stats == cache.verify_entries(sample=2)  # same stride, same pick
    full = cache.verify_entries()
    assert full["checked"] == 3
    assert full["skipped"] == 0


def test_verify_entries_disabled_cache_is_a_noop(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_TOGGLE_ENV, "off")
    stats = DiskCache().verify_entries()
    assert stats["checked"] == 0
    assert stats["ok"] == 0


# ----------------------------------------------------------------------
# Codec era: orphaned frames, footprint stats
# ----------------------------------------------------------------------


def test_gc_sweeps_orphaned_halfwritten_codec_frames(tmp_path):
    from repro import telemetry
    _populate_trace(tmp_path)
    traces = tmp_path / "cache" / "traces"
    # A killed encoder leaves two kinds of litter: an old atomic-write
    # temp name, and a committed-looking payload whose sidecar (the
    # commit record) never landed.
    half_written = traces / "dead.rpt.tmp4242"
    half_written.write_bytes(b"RPTC" + b"\x00" * 40)
    old = time.time() - 7200
    os.utime(half_written, (old, old))
    orphan = traces / ("f" * 64 + ".rpt")
    orphan.write_bytes(b"RPTC" + b"\x00" * 512)
    telemetry.enable()
    telemetry.reset()
    stats = DiskCache(tmp_path / "cache").gc(max_bytes=1 << 40)
    assert stats["tmp_removed"] == 1
    assert not half_written.exists()
    assert not orphan.exists()
    assert _counter("cache.orphans_removed{kind=traces}") == 1
    # The real entry survived.
    payload, meta = _entry_paths(tmp_path, "traces")
    assert payload.exists() and meta.exists()


def test_npz_trace_payload_is_a_miss_and_gc_sweeps_it(tmp_path):
    from repro import telemetry
    original = _populate_trace(tmp_path)
    payload, _ = _entry_paths(tmp_path, "traces")
    # A trace payload in npz form is not one the cache reads: its
    # sidecar finds no payload, so the load is a miss and recomputes.
    stale = payload.rename(payload.with_suffix(".npz"))
    telemetry.enable()
    telemetry.reset()
    again = fresh_runner(tmp_path).run(**_RUN)
    assert again.output == original.output
    assert _counter("runner.disk_cache.miss") == 1
    DiskCache(tmp_path / "cache").gc(max_bytes=1 << 40)
    assert not stale.exists()
    payload, meta = _entry_paths(tmp_path, "traces")
    assert payload.suffix == ".rpt" and meta.exists()


def test_usage_reports_codec_footprint(tmp_path):
    _populate_trace(tmp_path)
    usage = DiskCache(tmp_path / "cache").usage()
    traces = usage["traces"]
    assert traces["rows"] > 0
    assert traces["payload_bytes"] > 0
    assert traces["bytes_per_instruction"] \
        == traces["payload_bytes"] / traces["rows"]
    # The whole point of the codec: well under the canonical 35 B/row.
    assert traces["compression_ratio"] > 3.0
