"""The shared kernel loader: one build per disk cache, and every build
works and leaves no files.

A built library is an entry of the disk cache, under
``<cache-root>/kernels/``. A later build on the same cache loads it
without running the compiler, once its checksum matches and only while
the directory and the file are the current user's alone; the cache
switch, a missing cache root and ``CC=false`` all mean no entry is
used. The parent of a pool loads every kernel before it forks, so its
workers never run the compiler. A compile runs in a temporary
directory that must be gone when ``_build()`` returns: a forked worker
exits through ``os._exit``, which skips ``atexit`` hooks.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile

import numpy as np
import pytest

from repro import telemetry
from repro.config import skylake_config
from repro.experiments.diskcache import DiskCache, content_key
from repro.experiments.parallel import fan_out
from repro.experiments.runner import ExperimentRunner
from repro.host import _codec_kernel, _emit_kernel, codec, kernel_loader
from repro.host.kernel_loader import KernelSlot
from repro.telemetry import TELEMETRY
from repro.uarch import _ooo_kernel
from repro.uarch.ooo_core import ooo_cycles, ooo_cycles_scalar

MODULES = (_ooo_kernel, _emit_kernel, _codec_kernel)
IDS = ["ooo", "emit", "codec"]


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


PROBES = {_ooo_kernel: _probe_ooo, _emit_kernel: _probe_emit,
          _codec_kernel: _probe_codec}


@pytest.fixture
def cache_root(tmp_path):
    """The test's cache root (``REPRO_CACHE_DIR``), made to exist: a
    kernel build never creates it."""
    root = tmp_path / "repro-cache"
    root.mkdir()
    return root


def _entry_files(root) -> list[str]:
    directory = root / "kernels"
    return sorted(path.name for path in directory.iterdir()) \
        if directory.is_dir() else []


def _count_compiles(monkeypatch) -> list:
    """Record every compiler run (and still run it)."""
    calls = []
    real_run = subprocess.run

    def run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    return calls


def _record_loads(monkeypatch) -> list:
    """Record the path of every library ``ctypes`` loads."""
    loads = []
    real_cdll = ctypes.CDLL

    def cdll(path, *args, **kwargs):
        loads.append(str(path))
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return loads


def _built(module):
    kernel = module._build()
    if kernel is None:
        pytest.skip("no C compiler available")
    return kernel


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_build_loads_a_working_kernel_and_leaves_no_files(
        module, cache_root, tmp_path, monkeypatch):
    private_tmp = tmp_path / "tmp"
    private_tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private_tmp))
    kernel = _built(module)
    assert list(private_tmp.iterdir()) == []
    (library, sidecar) = sorted(_entry_files(cache_root),
                                key=lambda name: name.endswith(".json"))
    assert library.endswith(".so")
    assert sidecar == library[:-3] + ".json"
    PROBES[module](kernel, monkeypatch)


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_failed_compiler_means_no_kernel_and_no_files(
        module, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("CC", "false")
    assert module._build() is None
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_second_build_on_the_same_cache_runs_no_compiler(
        module, cache_root, monkeypatch):
    _built(module)

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    kernel = KernelSlot().get(module._build)
    assert kernel is not None
    PROBES[module](kernel, monkeypatch)


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_library_with_a_flipped_byte_is_quarantined_and_rebuilt(
        module, cache_root, monkeypatch):
    _built(module)
    (library,) = (cache_root / "kernels").glob("*.so")
    data = bytearray(library.read_bytes())
    data[len(data) // 2] ^= 0xFF
    library.write_bytes(bytes(data))
    telemetry.enable()
    telemetry.reset()
    compiles = _count_compiles(monkeypatch)
    loads = _record_loads(monkeypatch)
    kernel = module._build()
    assert kernel is not None
    assert len(compiles) == 1
    assert str(library) not in loads
    assert TELEMETRY.metrics.snapshot().get(
        "cache.quarantined{kind=kernels}") == 1
    assert (cache_root / "quarantine" / f"kernels-{library.name}").exists()
    PROBES[module](kernel, monkeypatch)
    # The rebuild is committed again, and it verifies.
    assert DiskCache(cache_root).verify_entries()["ok"] == 1


@pytest.mark.parametrize("case", ["group_writable_dir",
                                  "group_writable_file",
                                  "foreign_owner"])
def test_a_shared_entry_is_never_loaded(case, cache_root, monkeypatch):
    """Loading a library runs it: an entry whose directory or file
    someone else owns or may write is never loaded, and the kernel is
    compiled privately."""
    _built(_codec_kernel)
    kernels = cache_root / "kernels"
    (library,) = kernels.glob("*.so")
    if case == "group_writable_dir":
        kernels.chmod(0o775)
    elif case == "group_writable_file":
        library.chmod(0o664)
    else:
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    compiles = _count_compiles(monkeypatch)
    loads = _record_loads(monkeypatch)
    kernel = _codec_kernel._build()
    assert kernel is not None
    assert len(compiles) == 1
    assert str(library) not in loads
    _probe_codec(kernel, monkeypatch)


def test_cache_maintenance_covers_kernel_entries(cache_root):
    """Kernel entries are disk-cache entries: stats count them, verify
    re-derives their keys, gc sweeps their litter and evicts them."""
    _built(_codec_kernel)
    kernels = cache_root / "kernels"
    (kernels / "0f.so.tmp1-dead").write_bytes(b"partial")
    (kernels / "0e.so").write_bytes(b"orphan")
    cache = DiskCache(cache_root)
    assert cache.usage()["kernels"]["entries"] == 1
    stats = cache.verify_entries()
    assert (stats["checked"], stats["ok"], stats["unkeyed"]) == (1, 1, 0)
    assert not (kernels / "0e.so").exists()
    assert cache.gc(max_bytes=1 << 40)["tmp_removed"] == 1
    assert cache.gc(max_bytes=0)["evicted"] == 1
    assert _entry_files(cache_root) == []


def test_cache_off_stores_and_loads_no_kernel(cache_root, monkeypatch):
    _built(_codec_kernel)
    before = {name: (cache_root / "kernels" / name).read_bytes()
              for name in _entry_files(cache_root)}
    monkeypatch.setenv("REPRO_CACHE", "off")
    compiles = _count_compiles(monkeypatch)
    loads = _record_loads(monkeypatch)
    kernel = _codec_kernel._build()
    assert kernel is not None
    assert len(compiles) == 1
    assert not any(path.startswith(str(cache_root)) for path in loads)
    assert {name: (cache_root / "kernels" / name).read_bytes()
            for name in _entry_files(cache_root)} == before


def test_build_never_creates_a_missing_cache_root(tmp_path, monkeypatch):
    root = tmp_path / "absent" / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    _probe_codec(_built(_codec_kernel), monkeypatch)
    assert not (tmp_path / "absent").exists()


def _plant_entry(module, cache_root, monkeypatch):
    """Commit a stand-in library for ``module`` under the key that a
    build with the compiler on ``PATH`` looks up; its path."""
    monkeypatch.delenv("CC", raising=False)
    cc = kernel_loader._compiler()
    if cc is None:
        pytest.skip("no compiler on PATH to key an entry by")
    # The name and source the module builds, without compiling them.
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(module, "compile_library",
                      lambda name, source: built.append((name, source)))
        assert module._build() is None
    (name, source), = built
    params = kernel_loader.kernel_key_params(name, source, cc)
    stand_in = cache_root / "stand-in.so"
    stand_in.write_bytes(b"\x7fELF: not a library")
    key = content_key(params)
    DiskCache(cache_root).store_kernel(key, stand_in, params)
    return cache_root / "kernels" / f"{key}.so"


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_cc_false_loads_no_kernel_even_with_entries(
        module, cache_root, monkeypatch):
    """``CC=false`` turns a kernel off even when the cache holds an
    entry that a build with the compiler on ``PATH`` would load."""
    _plant_entry(module, cache_root, monkeypatch)
    assert len(_entry_files(cache_root)) == 2
    monkeypatch.setenv("CC", "false")
    loads = _record_loads(monkeypatch)
    assert module._build() is None
    assert loads == []
    assert len(_entry_files(cache_root)) == 2


def test_entry_that_does_not_load_is_compiled_around(cache_root,
                                                     monkeypatch):
    """A committed entry that passes its checks but does not load (the
    cache sits where libraries cannot load) is left alone, not
    quarantined by every process: the kernel is compiled privately."""
    planted = _plant_entry(_codec_kernel, cache_root, monkeypatch)
    before = _entry_files(cache_root)
    compiles = _count_compiles(monkeypatch)
    loads = _record_loads(monkeypatch)
    kernel = _codec_kernel._build()
    assert loads[0] == str(planted)
    if kernel is None:
        pytest.skip("no C compiler available")
    assert len(loads) == 2 and len(compiles) == 1
    assert _entry_files(cache_root) == before
    assert not (cache_root / "quarantine").exists()
    _probe_codec(kernel, monkeypatch)


def _kernels_in_worker(runner, index):
    return os.getpid(), [module.get_kernel() is not None
                         for module in MODULES]


def test_pool_workers_run_no_compiler(tmp_path, monkeypatch):
    """``fan_out`` loads every kernel before it forks, so a ``--jobs 2``
    pool's workers inherit them and never run the compiler."""
    if _codec_kernel.get_kernel() is None:
        pytest.skip("no C compiler available")
    for module in MODULES:
        monkeypatch.setattr(module, "_slot", KernelSlot())
    log = tmp_path / "compiles.log"
    real_run = subprocess.run

    def logged_run(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", logged_run)
    results = fan_out(ExperimentRunner(), _kernels_in_worker,
                      [(i,) for i in range(4)], jobs=2)
    parent = os.getpid()
    assert all(pid != parent and all(loaded) for pid, loaded in results)
    assert set(log.read_text(encoding="utf-8").split()) == {str(parent)}


def test_slot_builds_once():
    calls = []
    slot = KernelSlot()

    def build():
        calls.append(1)
        return None

    assert slot.get(build) is None
    assert slot.get(build) is None
    assert calls == [1]
