"""Columnar instruction traces: append, views, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.host.isa import InstrKind
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
