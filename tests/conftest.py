"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.config import pypy_runtime, v8_runtime
from repro.frontend import compile_source
from repro.host import AddressSpace, HostMachine
from repro.host.codec import COLUMNS, DTYPES
from repro.host.isa import FLAG_COND, FLAG_INDIRECT, FLAG_TAKEN, InstrKind
from repro.uarch import _ooo_kernel
from repro.uarch.branch import simulate_branches, simulate_branches_scalar
from repro.uarch.cache import (
    simulate_cache_hierarchy,
    simulate_cache_hierarchy_scalar,
)
from repro.vm.cpython import CPythonVM
from repro.vm.pypy import PyPyVM
from repro.vm.v8 import V8VM


def _compiled(entry_point):
    """``entry_point`` on the compiled walk; skips without a compiler."""
    def walk(*args, **kwargs):
        if not _ooo_kernel.kernel_available():
            pytest.skip("no C compiler available")
        return entry_point(*args, **kwargs)
    return walk


#: The memory-side engines tests compare, by the id they are
#: parametrized with: the scalar oracle, the compiled walk (``vector``
#: is the id of the NumPy engines it replaced; it skips where no
#: compiler builds the walk), and the production entry point, which
#: runs whichever of the two this process has.
CACHE_ENGINES = {
    "scalar": simulate_cache_hierarchy_scalar,
    "vector": _compiled(simulate_cache_hierarchy),
    "auto": simulate_cache_hierarchy,
}
BRANCH_ENGINES = {
    "scalar": simulate_branches_scalar,
    "vector": _compiled(simulate_branches),
    "auto": simulate_branches,
}


def traced_peak(fn):
    """(result, peak bytes ``fn`` allocated over what was live before)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def interpreter_like_trace(rows: int, seed: int = 0,
                           ) -> dict[str, np.ndarray]:
    """Canonical trace columns shaped like an interpreter's: a third of
    the rows load or store, mostly within a 16 KiB hot set of a 4 MiB
    heap; an eighth branch, a quarter of those indirectly to one of four
    targets; and the pc steps through short basic blocks of a 32 KiB
    handler region."""
    rng = np.random.default_rng(seed)
    columns = {name: np.zeros(rows, dtype=dtype)
               for name, dtype in zip(COLUMNS, DTYPES)}
    draw = rng.random(rows)
    memory = draw < 0.33
    branches = (draw >= 0.33) & (draw < 0.46)
    indirect = branches & (rng.random(rows) < 0.25)
    kind = columns["kind"]
    kind[memory] = int(InstrKind.LOAD)
    kind[draw < 0.08] = int(InstrKind.STORE)
    kind[branches] = int(InstrKind.BRANCH)
    flags = columns["flags"]
    flags[branches] = FLAG_COND
    flags[indirect] = FLAG_INDIRECT
    flags[branches & (rng.random(rows) < 0.6)] |= FLAG_TAKEN
    block_start = rng.random(rows) < 0.125
    blocks = rng.integers(0, 128, rows)[np.cumsum(block_start)]
    columns["pc"][:] = 0x400000 + 256 * blocks \
        + 4 * (np.arange(rows) % 16)
    accesses = int(memory.sum())
    heap = np.where(rng.random(accesses) < 0.9, 1 << 11, 1 << 19)
    columns["addr"][memory] = 0x7F00_0000_0000 \
        + 8 * rng.integers(0, heap)
    columns["addr"][branches] = 0x400000 + 256 * rng.integers(
        0, 128, int(branches.sum()))
    columns["addr"][indirect] = 0x500000 + 64 * rng.integers(
        0, 4, int(indirect.sum()))
    columns["size"][memory] = 8
    return columns


@pytest.fixture(autouse=True)
def _telemetry_isolation(tmp_path, monkeypatch):
    """Keep manifests and the disk cache in tmp; disable telemetry after.

    Pointing REPRO_CACHE_DIR at a per-test directory keeps tests
    hermetic: no reuse of (possibly stale) cached runs from a
    developer's working tree, and no ``.repro-cache`` litter. The run
    registry gets its own tmp directory, so a test that turns the disk
    cache off still stores no manifest in the working directory. Every
    other ``REPRO_*`` variable of the calling shell is cleared; a test
    that needs one sets it itself.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    yield
    telemetry.disable()


def run_source(source: str, runtime: str = "cpython", jit: bool = True,
               nursery: int = 1 << 20,
               max_instructions: int = 20_000_000,
               backend: str = "burst"):
    """Compile and run MiniPy source; returns (vm, machine).

    ``backend`` is the machine's emission backend: ``scalar`` runs the
    reference path the burst engine is checked against.
    """
    program = compile_source(source, "<test>")
    space = AddressSpace(nursery_size=nursery)
    machine = HostMachine(space, max_instructions=max_instructions,
                          backend=backend)
    if runtime == "cpython":
        vm = CPythonVM(machine, program)
    elif runtime == "pypy":
        vm = PyPyVM(machine, program,
                    pypy_runtime(jit=jit, nursery_size=nursery))
    elif runtime == "v8":
        vm = V8VM(machine, program, v8_runtime(nursery_size=nursery))
    else:
        raise ValueError(runtime)
    vm.run()
    return vm, machine


def guest_output(source: str, runtime: str = "cpython", **kwargs):
    """Run source and return the captured print lines."""
    vm, _ = run_source(source, runtime=runtime, **kwargs)
    return vm.output


@pytest.fixture
def cpython_run():
    return lambda src, **kw: run_source(src, "cpython", **kw)


@pytest.fixture
def pypy_run():
    return lambda src, **kw: run_source(src, "pypy", **kw)
