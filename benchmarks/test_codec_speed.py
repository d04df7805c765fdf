"""Columnar trace codec: footprint and encode/decode throughput.

Measures the v2 frame codec on a ~1M-instruction deltablue trace:
bytes per instruction, compression ratio vs the canonical 35-byte row,
and encode/decode bandwidth (canonical bytes per second, the same unit
the ``trace.codec.bytes_per_second`` gauges report). Numbers land in
``benchmarks/results/codec_speed.txt``; assertion floors sit well
below the targets so shared-runner noise does not flake the suite.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import save_text

from repro.experiments.runner import ExperimentRunner
from repro.host.codec import RAW_ROW_BYTES, FrameReader
from repro.host.trace import InstructionTrace


def _best_of(n, fn):
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_codec_footprint_and_bandwidth(tmp_path):
    runner = ExperimentRunner(scale=2)
    handle = runner.run("deltablue", runtime="cpython")
    trace = handle.trace
    n = len(trace)
    assert n >= 1_000_000
    raw_bytes = n * RAW_ROW_BYTES

    v2_path = tmp_path / "trace.rpt"
    encode_s, _ = _best_of(3, lambda: trace.save(v2_path))
    v2_bytes = v2_path.stat().st_size

    def decode_all():
        return InstructionTrace.load(v2_path).arrays()

    decode_s, arrays = _best_of(3, decode_all)
    for name, column in trace.arrays().items():
        assert np.array_equal(column, arrays[name]), name

    # Lazy single-column read: the per-frame directory means touching
    # one int8 column decodes ~1/35th of the canonical bytes.
    def one_column():
        reader = FrameReader(v2_path)
        column = reader.column("category")
        reader.close()
        return column

    column_s, _ = _best_of(3, one_column)

    v2_ratio = raw_bytes / v2_bytes
    save_text("codec_speed", "\n".join([
        "columnar trace codec (deltablue, cpython, scale 2)",
        f"trace length   : {n:,} instructions "
        f"({raw_bytes / 1e6:.1f} MB canonical at {RAW_ROW_BYTES} B/row)",
        f"v2 frames      : {v2_bytes / 1e6:.2f} MB "
        f"({v2_bytes / n:.2f} B/instr, {v2_ratio:.1f}x smaller)",
        f"v2 encode      : {encode_s * 1e3:.1f} ms "
        f"({raw_bytes / encode_s / 1e6:.0f} MB/s canonical)",
        f"v2 decode      : {decode_s * 1e3:.1f} ms "
        f"({raw_bytes / decode_s / 1e6:.0f} MB/s canonical, "
        "all 8 columns)",
        f"single column  : {column_s * 1e3:.2f} ms "
        "(category, lazy per-frame read)",
        "outputs        : bit-identical columns after round trip",
        "acceptance     : >= 3x footprint shrink; floor asserted here",
    ]))
    assert v2_ratio >= 3.0, \
        f"v2 footprint shrink regressed: {v2_ratio:.2f}x"
    assert column_s < decode_s, \
        "single-column read should undercut a full decode"
