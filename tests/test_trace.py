"""Columnar instruction traces: append, views, persistence, freezing."""

import mmap
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner
from repro.host import trace as trace_module
from repro.host.isa import InstrKind
from repro.host.machine import HostMachine
from repro.host.trace import InstructionTrace


def make_trace(n=10):
    trace = InstructionTrace()
    for i in range(n):
        trace.append(pc=0x400000 + 4 * i, kind=int(InstrKind.ALU),
                     category=i % 5, addr=0x1000 * i, size=8, dep=1,
                     flags=0, origin=7)
    return trace


def test_append_and_len():
    trace = make_trace(10)
    assert len(trace) == 10


def test_arrays_views_match_appends():
    trace = make_trace(4)
    arrays = trace.arrays()
    assert arrays["pc"].tolist() == [0x400000, 0x400004, 0x400008,
                                     0x40000C]
    assert arrays["category"].tolist() == [0, 1, 2, 3]
    assert arrays["origin"].tolist() == [7, 7, 7, 7]


def test_arrays_cache_tracks_growth():
    trace = make_trace(2)
    first = trace.arrays()
    assert len(first["pc"]) == 2
    trace.append(1, 0, 0)
    assert len(trace.arrays()["pc"]) == 3


def test_column_validates_name():
    trace = make_trace(1)
    with pytest.raises(TraceError):
        trace.column("nonsense")


def test_category_counts():
    trace = make_trace(10)
    counts = trace.category_counts()
    assert counts[0] == 2  # categories cycle 0..4 over 10 instructions
    assert counts[4] == 2
    assert counts.sum() == 10


def test_empty_trace_counts():
    trace = InstructionTrace()
    assert trace.category_counts().sum() == 0


def test_save_load_roundtrip(tmp_path):
    trace = make_trace(32)
    path = tmp_path / "trace.rpt"
    trace.save(path)
    loaded = InstructionTrace.load(path)
    assert len(loaded) == len(trace)
    for column in ("pc", "kind", "category", "addr", "size", "dep",
                   "flags", "origin"):
        assert np.array_equal(loaded.column(column),
                              trace.column(column)), column


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/maps")
def test_loaded_trace_unmaps_its_file_once_decoded(tmp_path):
    """Decoding the last column releases the file mapping: the columns
    are copies, so a held loaded trace costs its columns alone."""
    trace = make_trace(3 * 4096)
    path = tmp_path / "trace.rpt"
    trace.save(path)

    def mapped():
        with open("/proc/self/maps") as maps:
            return any(line.rstrip().endswith(str(path)) for line in maps)

    loaded = InstructionTrace.load(path)
    loaded.column("category")
    assert mapped()
    columns = loaded.arrays()
    assert not mapped()
    assert all(np.array_equal(columns[name], trace.column(name))
               for name in columns)
    # A later range decode maps the file again.
    assert np.array_equal(loaded._reader.decode_range(5, 9)["pc"],
                          trace.column("pc")[5:9])


def test_slice_view():
    trace = make_trace(10)
    view = trace.slice_view(2, 5)
    assert len(view["pc"]) == 3
    assert view["pc"][0] == 0x400008
    with pytest.raises(TraceError):
        trace.slice_view(5, 50)


@given(st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 9),
              st.integers(0, 18), st.integers(0, 2**40)),
    min_size=0, max_size=60))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(tmp_path_factory, rows):
    trace = InstructionTrace()
    for pc, kind, category, addr in rows:
        trace.append(pc, kind, category, addr)
    path = tmp_path_factory.mktemp("traces") / "t.rpt"
    trace.save(path)
    loaded = InstructionTrace.load(path)
    assert np.array_equal(loaded.column("pc"), trace.column("pc"))
    assert np.array_equal(loaded.column("addr"), trace.column("addr"))


def test_live_trace_keeps_full_buffers_as_narrow_blocks(monkeypatch):
    """Rows that fill the live buffer move into the narrow column
    regions: the buffer keeps its size, one reservation wider than the
    buffer widens it, and every row reads back in order through either
    append path, live and frozen."""
    monkeypatch.setattr(trace_module, "_BUFFER_ROWS", 8)
    monkeypatch.setattr(trace_module, "_STAGE_DRAIN_ROWS", 3)
    trace = InstructionTrace()
    for i in range(30):
        trace.append(pc=i, kind=int(InstrKind.ALU), category=i % 5,
                     addr=-i, size=8, dep=1, flags=0, origin=7)
    trace.arrays()  # drain staging before reserving rows directly
    assert trace.buffer().shape == (8, 8)
    start = trace.alloc_rows(20)
    trace.buffer()[start:start + 20] = [
        [i, int(InstrKind.LOAD), i % 5, -i, 4, 2, 1, 9]
        for i in range(30, 50)]
    assert trace.buffer().shape == (20, 8)
    for i in range(50, 55):
        trace.append(pc=i, kind=int(InstrKind.ALU), category=i % 5,
                     addr=-i, size=8, dep=1, flags=0, origin=7)
    assert len(trace) == 55
    live = {name: column.copy() for name, column in trace.arrays().items()}
    assert live["pc"].tolist() == list(range(55))
    assert live["addr"].tolist() == [-i for i in range(55)]
    assert live["size"][30:50].tolist() == [4] * 20
    trace.freeze()
    for name, column in trace.arrays().items():
        assert column.dtype == live[name].dtype, name
        assert np.array_equal(column, live[name]), name


class _NoRemapMap(mmap.mmap):
    """A mapping whose resize fails as it does where mremap is absent."""

    def resize(self, newsize):
        raise SystemError("mmap: resizing not available--no mremap()")


@pytest.mark.parametrize("grow", ["remap", "copy"])
def test_regions_grow_past_their_first_mapping(monkeypatch, grow):
    """Column regions grow many times over (in place by mremap, or by
    copying where it is missing); live reads are copies the next growth
    cannot invalidate, and freeze keeps every row."""
    if grow == "copy":
        monkeypatch.setattr(
            trace_module, "_anonymous_map",
            lambda size: _NoRemapMap(
                -1, -(-size // mmap.PAGESIZE) * mmap.PAGESIZE,
                flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS))
    monkeypatch.setattr(trace_module, "_BUFFER_ROWS", 64)
    trace = InstructionTrace()
    held = []
    for i in range(5000):
        trace.append(pc=i, kind=int(InstrKind.LOAD), category=i % 7,
                     addr=3 * i, size=8, dep=1, flags=0, origin=i)
        if i % 1000 == 999:
            held.append(trace.column("pc"))
    assert [len(column) for column in held] == [1000, 2000, 3000, 4000,
                                                5000]
    assert held[0].tolist() == list(range(1000))
    trace.freeze()
    columns = trace.arrays()
    assert columns["pc"].tolist() == list(range(5000))
    assert columns["addr"].tolist() == [3 * i for i in range(5000)]
    assert columns["category"].dtype == np.int8
    assert columns["origin"][-1] == 4999


# ----------------------------------------------------------------------
# A finished run's trace is its narrow columns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cache", ["on", "off"])
def test_run_freezes_trace_and_releases_machine(monkeypatch, cache):
    """After a guest run the trace holds its columns and nothing else:
    no row buffer, and no path back to the HostMachine (and so to the
    burst engine and the guest heap) that produced it."""
    if cache == "off":
        monkeypatch.setenv("REPRO_CACHE", "off")
    machines = []

    class RecordedMachine(HostMachine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(weakref.ref(self))

    monkeypatch.setattr(runner_module, "HostMachine", RecordedMachine)
    runner = ExperimentRunner()
    assert runner.disk_cache.enabled == (cache == "on")
    handle = runner.run("chaos", runtime="pypy", jit=True,
                        nursery=64 * 1024)
    trace = handle.trace
    assert trace.frozen
    assert trace.buffer() is None
    assert len(machines) == 1
    assert machines[0]() is None, "the finished trace pins its machine"
    assert len(trace) == handle.host_instructions
    assert len(trace.arrays()["pc"]) == len(trace)

