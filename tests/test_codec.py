"""Columnar trace codec: round trips, laziness, corruption, identity.

Covers the v2 frame format end to end — varint/zigzag/delta
primitives, kernel-vs-NumPy bit parity, property round-trips over
random and adversarial column contents, lazy reader-backed loads, and
figure byte-identity between a cold render and one served from the
disk cache.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.errors import TraceError
from repro.experiments.runner import ExperimentRunner
from repro.host import _codec_kernel, codec
from repro.host.trace import InstructionTrace


def _random_arrays(rng, n):
    return {
        "pc": rng.integers(0, 1 << 48, n, dtype=np.int64),
        "kind": rng.integers(0, 12, n, dtype=np.int8),
        "category": rng.integers(0, 24, n, dtype=np.int8),
        "addr": rng.integers(-(2 ** 63), 2 ** 63 - 1, n,
                             dtype=np.int64),
        "size": rng.integers(0, 2 ** 31 - 1, n, dtype=np.int32),
        "dep": rng.integers(0, 1 << 16, n, dtype=np.int32),
        "flags": rng.integers(0, 8, n, dtype=np.int8),
        "origin": rng.integers(0, 1 << 40, n, dtype=np.int64),
    }


def _assert_arrays_equal(want, got):
    for name, column in want.items():
        assert np.array_equal(column, got[name]), name
        assert got[name].dtype == codec.DTYPES[
            codec.COLUMNS.index(name)], name


def _trace_from_arrays(arrays):
    trace = InstructionTrace()
    n = len(arrays["pc"])
    if n:
        start = trace.alloc_rows(n)
        buf = trace.buffer()
        for j, name in enumerate(codec.COLUMNS):
            buf[start:start + n, j] = arrays[name]
    return trace


# ----------------------------------------------------------------------
# Varint / zigzag primitives
# ----------------------------------------------------------------------


def test_varint_roundtrip_covers_every_length_boundary():
    values = [0, 1, 127, 128]
    for k in range(1, 10):
        edge = 1 << (7 * k)
        values += [edge - 1, edge, edge + 1]
    values.append(2 ** 64 - 1)
    u = np.array(values, dtype=np.uint64)
    buf = codec._varint_encode_numpy(u)
    back = codec._varint_decode_numpy(buf, u.size)
    assert np.array_equal(u, back)


def test_varint_decode_rejects_truncation_and_trailing_bytes():
    u = np.array([300, 5, 2 ** 40], dtype=np.uint64)
    buf = codec._varint_encode_numpy(u)
    with pytest.raises(TraceError):
        codec._varint_decode_numpy(buf[:-1], u.size)
    with pytest.raises(TraceError):
        codec._varint_decode_numpy(
            np.concatenate([buf, np.array([7], dtype=np.uint8)]),
            u.size)
    with pytest.raises(TraceError):
        codec._varint_decode_numpy(buf, u.size + 1)


def test_varint_decode_rejects_overlong_values():
    # Eleven continuation bytes: no 64-bit varint is that long.
    bad = np.array([0x80] * 11 + [0x01], dtype=np.uint8)
    with pytest.raises(TraceError):
        codec._varint_decode_numpy(bad, 1)


def test_zigzag_is_involutive_at_the_int64_extremes():
    v = np.array([0, -1, 1, 2 ** 63 - 1, -(2 ** 63)], dtype=np.int64)
    u = v.view(np.uint64)
    assert np.array_equal(
        codec._unzigzag(codec._zigzag(u)).view(np.int64), v)


def test_kernel_matches_numpy_bit_for_bit():
    kernel = _codec_kernel.get_kernel()
    if kernel is None:
        pytest.skip("no C compiler available")
    rng = np.random.default_rng(7)
    exponents = rng.integers(0, 64, 4096)
    u = (rng.integers(0, 2 ** 63, 4096, dtype=np.int64)
         .astype(np.uint64) >> exponents.astype(np.uint64))
    reference = codec._varint_encode_numpy(u)
    out = np.empty(u.size * 10, dtype=np.uint8)
    written = kernel.encode(np.ascontiguousarray(u), out)
    assert np.array_equal(out[:written], reference)
    # Decoded as a dzv segment: unzigzag and running sum, into int64.
    decoded = np.empty(u.size, dtype=np.int64)
    assert kernel.decode_segment(reference, decoded) == reference.size
    assert np.array_equal(decoded, codec._decode_column(
        reference, u.size, np.dtype(np.int64)))
    # Malformed input: the kernel reports, never over-reads.
    assert kernel.decode_segment(reference[:-1].copy(), decoded) == -1


def _boundary_values(dtype):
    """Signed values whose zigzag codes sit on every varint length
    boundary that ``dtype`` can hold, and the dtype's extremes."""
    info = np.iinfo(dtype)
    values = {0, -1, 1, info.min, info.max}
    for k in range(1, 10):
        edge = 1 << (7 * k)
        for code in (edge - 1, edge, edge + 1):
            value = code >> 1 if code % 2 == 0 else -(code >> 1) - 1
            if info.min <= value <= info.max:
                values.add(value)
    return np.array(sorted(values), dtype=dtype)


def _columns_both_ways(path, monkeypatch):
    """Every column of ``path`` decoded by the kernel and by NumPy."""
    fused = codec.FrameReader(path)
    with_kernel = {name: fused.column(name) for name in codec.COLUMNS}
    window = fused.decode_range(fused.rows // 3, fused.rows)
    with monkeypatch.context() as patch:
        patch.setattr(_codec_kernel, "get_kernel", lambda: None)
        reference = codec.FrameReader(path)
        without = {name: reference.column(name)
                   for name in codec.COLUMNS}
        for name, column in reference.decode_range(
                reference.rows // 3, reference.rows).items():
            assert np.array_equal(window[name], column), name
    return with_kernel, without


def test_fused_decode_equals_numpy_reference(tmp_path, monkeypatch):
    """The one-pass segment decode gives the NumPy reference's columns
    on each varint length boundary, multi-frame traces and extreme
    addresses."""
    if _codec_kernel.get_kernel() is None:
        pytest.skip("no C compiler available")
    rng = np.random.default_rng(13)
    small = _boundary_values(np.int32)
    large = _boundary_values(np.int64)
    n = 4 * large.size
    boundaries = _random_arrays(rng, n)
    boundaries["size"] = np.resize(small, n)
    boundaries["dep"] = np.resize(small[::-1], n)
    boundaries["addr"] = np.resize(large, n)
    # Deltas of pc on every boundary: cumulative sums of the values.
    boundaries["pc"] = np.cumsum(np.resize(large, n).view(np.uint64),
                                 dtype=np.uint64).view(np.int64)
    extreme = _random_arrays(rng, 64)
    extreme["addr"] = np.array([2 ** 63 - 1, -(2 ** 63), 0, -1] * 16,
                               dtype=np.int64)
    cases = [(boundaries, 1 << 16), (boundaries, 5),
             (_random_arrays(rng, 1000), 64), (extreme, 7)]
    for i, (arrays, frame_rows) in enumerate(cases):
        path = tmp_path / f"case{i}.rpt"
        codec.encode_arrays(path, arrays, frame_rows=frame_rows)
        with_kernel, without = _columns_both_ways(path, monkeypatch)
        _assert_arrays_equal(arrays, with_kernel)
        _assert_arrays_equal(without, with_kernel)


def test_kernel_env_switch_disables(monkeypatch):
    """``CC=false`` is the one switch: no compiler, no kernel."""
    monkeypatch.setenv("CC", "false")
    assert _codec_kernel._build() is None


# ----------------------------------------------------------------------
# File round trips (property + edge cases)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 1023, 70_000])
def test_encode_arrays_roundtrip(tmp_path, n):
    rng = np.random.default_rng(n)
    arrays = _random_arrays(rng, n)
    path = tmp_path / "trace.rpt"
    codec.encode_arrays(path, arrays)
    reader = codec.FrameReader(path)
    assert reader.rows == n
    _assert_arrays_equal(arrays, {name: reader.column(name)
                                  for name in codec.COLUMNS})


def test_multi_frame_roundtrip_and_range_decode(tmp_path):
    rng = np.random.default_rng(3)
    arrays = _random_arrays(rng, 1000)
    path = tmp_path / "trace.rpt"
    codec.encode_arrays(path, arrays, frame_rows=64)
    reader = codec.FrameReader(path)
    for start, stop in [(0, 1000), (0, 0), (63, 65), (64, 128),
                        (999, 1000), (130, 900)]:
        window = reader.decode_range(start, stop)
        _assert_arrays_equal(
            {name: column[start:stop]
             for name, column in arrays.items()}, window)
    with pytest.raises(TraceError):
        reader.decode_range(500, 1001)


def test_extreme_addresses_roundtrip(tmp_path):
    # Max-magnitude int64 values stress the mod-2^64 delta arithmetic.
    n = 64
    arrays = _random_arrays(np.random.default_rng(0), n)
    arrays["addr"] = np.array(
        [2 ** 63 - 1, -(2 ** 63), 0, -1] * (n // 4), dtype=np.int64)
    arrays["pc"] = np.array(
        [0, 2 ** 63 - 1] * (n // 2), dtype=np.int64)
    path = tmp_path / "trace.rpt"
    codec.encode_arrays(path, arrays, frame_rows=7)
    reader = codec.FrameReader(path)
    _assert_arrays_equal(arrays, {name: reader.column(name)
                                  for name in codec.COLUMNS})


def test_numpy_and_kernel_encodings_are_identical(tmp_path,
                                                  monkeypatch):
    if _codec_kernel.get_kernel() is None:
        pytest.skip("no C compiler available")
    arrays = _random_arrays(np.random.default_rng(11), 10_000)
    with_kernel = tmp_path / "kernel.rpt"
    codec.encode_arrays(with_kernel, arrays)
    monkeypatch.setattr(_codec_kernel, "get_kernel", lambda: None)
    without = tmp_path / "numpy.rpt"
    codec.encode_arrays(without, arrays)
    assert with_kernel.read_bytes() == without.read_bytes()


def test_frozen_trace_roundtrip_through_save_load(tmp_path):
    trace = InstructionTrace()
    for i in range(3000):
        trace.append(i * 4, 1, i % 5, addr=0x1000 + 8 * i, size=8,
                     dep=i % 3, flags=i % 2, origin=i)
    trace.freeze()
    path = tmp_path / "frozen.rpt"
    trace.save(path)
    loaded = InstructionTrace.load(path)
    assert loaded.frozen
    _assert_arrays_equal(trace.arrays(), loaded.arrays())


def test_frozen_trace_saves_identically(tmp_path):
    # Saving a live trace joins its blocks as they stand; a frozen one
    # encodes the columns freeze joined. The file bytes must not differ.
    arrays = _random_arrays(np.random.default_rng(5), 200_000)
    trace = _trace_from_arrays(arrays)
    live = tmp_path / "live.rpt"
    trace.save(live)
    trace.freeze()
    assert trace.buffer() is None
    frozen = tmp_path / "frozen.rpt"
    trace.save(frozen)
    assert live.read_bytes() == frozen.read_bytes()


# ----------------------------------------------------------------------
# Corruption and validation
# ----------------------------------------------------------------------


def _encoded_file(tmp_path, n=500, frame_rows=64):
    arrays = _random_arrays(np.random.default_rng(1), n)
    path = tmp_path / "t.rpt"
    codec.encode_arrays(path, arrays, frame_rows=frame_rows)
    return path


def test_truncated_file_is_rejected(tmp_path):
    path = _encoded_file(tmp_path)
    data = path.read_bytes()
    for cut in (0, 3, 10, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(TraceError):
            codec.FrameReader(path)


def test_truncated_frame_segment_is_rejected_lazily(tmp_path):
    path = _encoded_file(tmp_path)
    data = bytearray(path.read_bytes())
    # Zero a span in the middle of the payload region: the directory
    # still parses, but some frame's varint stream is now garbage.
    magic, version, meta_off, meta_len = struct.unpack_from(
        "<4sIQQ", data)
    start = 24 + (meta_off - 24) // 3
    data[start:start + 64] = bytes(64)
    path.write_bytes(bytes(data))
    reader = codec.FrameReader(path)  # header+directory still valid
    with pytest.raises(TraceError):
        for name in codec.COLUMNS:
            reader.column(name)


def test_corrupt_decode_fires_on_corrupt_callback_once(tmp_path):
    path = _encoded_file(tmp_path)
    data = bytearray(path.read_bytes())
    data[30:200] = bytes(170)
    path.write_bytes(bytes(data))
    fired = []
    reader = codec.FrameReader(path, on_corrupt=lambda: fired.append(1))
    for name in codec.COLUMNS:
        try:
            reader.column(name)
        except TraceError:
            pass
    assert fired == [1]


def _single_frame_file(path, rows, segments):
    """A v2 file of one frame whose column segments are given bytes."""
    payload, spans = b"", {}
    for name in codec.COLUMNS:
        spans[name] = [24 + len(payload), len(segments[name])]
        payload += segments[name]
    meta = {"rows": rows, "frame_rows": codec.FRAME_ROWS,
            "columns": list(codec.COLUMNS),
            "dtypes": [dtype.name for dtype in codec.DTYPES],
            "frames": [{"rows": rows, "segments": spans}]}
    blob = json.dumps(meta).encode()
    path.write_bytes(struct.pack("<4sIQQ", codec.MAGIC, codec.VERSION,
                                 24 + len(payload), len(blob))
                     + payload + blob)


@pytest.mark.parametrize("engine", ["kernel", "numpy"])
@pytest.mark.parametrize("name", ["size", "dep"])
@pytest.mark.parametrize("value", [2 ** 31, -(2 ** 31) - 1])
def test_int32_column_value_out_of_range_is_corruption(
        tmp_path, monkeypatch, engine, name, value):
    """A zv value that does not fit int32 raises on both engines
    instead of wrapping, and reports the file corrupt once."""
    if engine == "numpy":
        monkeypatch.setattr(_codec_kernel, "get_kernel", lambda: None)
    elif _codec_kernel.get_kernel() is None:
        pytest.skip("no C compiler available")
    arrays = _random_arrays(np.random.default_rng(4), 3)
    segments = {column: codec._encode_column(arrays[column], dtype)
                for column, dtype in zip(codec.COLUMNS, codec.DTYPES)}
    hand = np.array([1, value, 2], dtype=np.int64).view(np.uint64)
    segments[name] = codec._varint_encode_numpy(
        codec._zigzag(hand)).tobytes()
    path = tmp_path / "wide.rpt"
    _single_frame_file(path, 3, segments)
    fired = []
    reader = codec.FrameReader(path, on_corrupt=lambda: fired.append(1))
    for _ in range(2):
        with pytest.raises(TraceError, match="int32"):
            reader.column(name)
    with pytest.raises(TraceError, match="int32"):
        reader.decode_range(0, 1)
    assert fired == [1]


def test_wrong_column_set_is_rejected_loudly(tmp_path):
    path = _encoded_file(tmp_path, n=10, frame_rows=16)
    data = bytearray(path.read_bytes())
    _, _, meta_off, meta_len = struct.unpack_from("<4sIQQ", data)
    meta = json.loads(bytes(data[meta_off:meta_off + meta_len]))
    meta["columns"] = ["pc", "bogus"] + meta["columns"][2:]
    blob = json.dumps(meta, separators=(",", ":")).encode()
    data = data[:meta_off] + blob
    struct.pack_into("<4sIQQ", data, 0, codec.MAGIC, codec.VERSION,
                     meta_off, len(blob))
    path.write_bytes(bytes(data))
    with pytest.raises(TraceError) as err:
        codec.FrameReader(path)
    assert "kind" in str(err.value)  # the missing column is named
    assert "bogus" in str(err.value)  # ... and so is the unexpected one
    assert str(path) in str(err.value)


def test_unreadable_file_is_a_typed_error(tmp_path):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"this is not a trace in any format")
    # An npz archive is just another file without the v2 magic.
    npz = tmp_path / "legacy.npz"
    np.savez(npz, **_random_arrays(np.random.default_rng(2), 16))
    for path in (junk, npz):
        with pytest.raises(TraceError) as err:
            InstructionTrace.load(path)
        assert str(path) in str(err.value)


# ----------------------------------------------------------------------
# Lazy loads
# ----------------------------------------------------------------------


def test_v2_load_is_lazy_per_column(tmp_path):
    path = _encoded_file(tmp_path, n=300, frame_rows=64)
    trace = InstructionTrace.load(path)
    assert trace._reader is not None
    assert len(trace) == 300
    trace.column("category")
    assert set(trace._columns) == {"category"}  # nothing else decoded
    window = trace.slice_view(10, 20)
    assert len(window["pc"]) == 10
    assert set(trace._columns) == {"category"}
    counts = trace.category_counts()
    assert counts.sum() == 300


def test_v2_loaded_trace_rejects_appends(tmp_path):
    trace = InstructionTrace.load(_encoded_file(tmp_path))
    with pytest.raises(TraceError):
        trace.append(1, 1, 1)


# ----------------------------------------------------------------------
# Figure byte-identity through the codec's load path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("figure_name", ["fig4", "fig5"])
def test_figures_identical_across_codecs(tmp_path, monkeypatch,
                                         figure_name):
    from repro.experiments import figures
    figure = getattr(figures, figure_name)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cold = figure(ExperimentRunner(), quick=True)
    # The cold pass warmed the cache; a second, disk-served pass must
    # render the same bytes through the codec's load path.
    warm = figure(ExperimentRunner(), quick=True)
    assert warm.rendered == cold.rendered

