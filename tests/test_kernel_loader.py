"""The shared kernel loader: every build works and leaves no files.

Forked pool workers build their own kernels and exit through
``os._exit``, which skips ``atexit`` hooks, so a build directory that
outlives ``_build()`` leaks into ``TMPDIR``. Each kernel must already
be loaded, usable and gone from disk when ``_build()`` returns.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.config import skylake_config
from repro.host import _codec_kernel, _emit_kernel, codec
from repro.host.kernel_loader import KernelSlot
from repro.uarch import _ooo_kernel
from repro.uarch.ooo_core import ooo_cycles, ooo_cycles_scalar


def _probe_ooo(kernel, monkeypatch) -> None:
    monkeypatch.setattr(_ooo_kernel, "get_kernel", lambda: kernel)
    rng = np.random.default_rng(3)
    n = 500
    trace = {"pc": np.arange(n, dtype=np.int64),
             "kind": rng.integers(0, 3, n).astype(np.int64),
             "dep": rng.integers(0, 4, n).astype(np.int64)}
    dl = np.full(n, -1, dtype=np.int64)
    il = np.zeros(n, dtype=np.int64)
    misp = rng.random(n) < 0.05
    config = skylake_config()
    assert ooo_cycles(trace, dl, il, misp, config) == \
        ooo_cycles_scalar(trace, dl, il, misp, config)


def _probe_emit(kernel, monkeypatch) -> None:
    # One RAW entry (template id 0): the eight operands are the row.
    i64 = np.int64
    out = np.zeros(8, dtype=i64)
    written = kernel.burst_flush(
        np.zeros(1, dtype=i64), 1, np.arange(8, dtype=i64),
        np.zeros(8, dtype=i64), np.zeros(1, dtype=i64),
        np.ones(1, dtype=i64), np.full(1, 8, dtype=i64),
        np.zeros(1, dtype=i64), np.zeros(1, dtype=i64),
        np.zeros(4, dtype=i64), out)
    assert written == 1
    assert out.tolist() == list(range(8))


def _probe_codec(kernel, monkeypatch) -> None:
    values = np.array([0, 1, 127, 128, 300, 2 ** 64 - 1], dtype=np.uint64)
    out = np.empty(values.size * 10, dtype=np.uint8)
    written = kernel.encode(values, out)
    assert np.array_equal(out[:written],
                          codec._varint_encode_numpy(values))


@pytest.mark.parametrize("module, probe", [
    (_ooo_kernel, _probe_ooo),
    (_emit_kernel, _probe_emit),
    (_codec_kernel, _probe_codec),
], ids=["ooo", "emit", "codec"])
def test_build_loads_a_working_kernel_and_leaves_no_files(
        module, probe, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    kernel = module._build()
    if kernel is None:
        pytest.skip("no C compiler available")
    assert list(tmp_path.iterdir()) == []
    probe(kernel, monkeypatch)


@pytest.mark.parametrize("module", [_ooo_kernel, _emit_kernel,
                                    _codec_kernel],
                         ids=["ooo", "emit", "codec"])
def test_failed_compiler_means_no_kernel_and_no_files(
        module, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("CC", "false")
    assert module._build() is None
    assert list(tmp_path.iterdir()) == []


def test_slot_builds_once():
    calls = []
    slot = KernelSlot()

    def build():
        calls.append(1)
        return None

    assert slot.get(build) is None
    assert slot.get(build) is None
    assert calls == [1]
