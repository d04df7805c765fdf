"""Emission-path equivalence: every backend produces the same bytes.

The burst engine and the compiled flush kernel are pure performance
features: traces, category breakdowns, and cache keys must be
byte-identical across every emission backend (``HostMachine``'s
``backend``: ``scalar`` or ``burst``) x kernel (on, or ``get_kernel``
patched to ``None``) combination — and across
interpreter hash-seed randomization, since nothing observable may
depend on ``hash()``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import run_source

from repro.analysis.breakdown import breakdown_for_run
from repro.errors import TraceError
from repro.experiments import runner as runner_module
from repro.experiments.diskcache import DiskCache, content_key
from repro.experiments.runner import ExperimentRunner
from repro.host import _emit_kernel
from repro.host.machine import HostMachine
from repro.host.trace import InstructionTrace

WORKLOAD = "richards"

#: The unpatched kernel accessor (``None`` when no compiler builds it).
_BUILT_KERNEL = _emit_kernel.get_kernel

#: (backend, kernel on). The scalar path never consults the kernel or
#: the burst queues, so its kernel axis is not enumerated.
COMBOS = [
    ("scalar", False),
    ("burst", False),
    ("burst", True),
]


def _emit_with(monkeypatch, backend: str) -> None:
    """Make the runner build every machine with ``backend`` emission."""
    monkeypatch.setattr(runner_module, "HostMachine",
                        functools.partial(HostMachine, backend=backend))


def _run_combo(monkeypatch, tmp_path, backend: str, kernel: bool):
    _emit_with(monkeypatch, backend)
    monkeypatch.setattr(_emit_kernel, "get_kernel",
                        _BUILT_KERNEL if kernel else lambda: None)
    # A disabled disk cache isolates the combos from one another: every
    # run interprets from scratch.
    runner = ExperimentRunner(disk_cache=DiskCache(None))
    handle = runner.run(WORKLOAD, "cpython", jit=False)
    return runner, handle


def _cache_key(runner) -> str:
    """Disk-cache content key of the CPython run of :data:`WORKLOAD`."""
    return content_key(runner._trace_key_params(WORKLOAD, "cpython",
                                                False, 0, 0))


def _trace_digest(handle) -> str:
    # Every column is hashed widened to int64, so the pinned digests
    # below do not depend on the column dtypes.
    digest = hashlib.sha256()
    for name, column in sorted(handle.trace.arrays().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column, dtype=np.int64)
                      .tobytes())
    return digest.hexdigest()


def test_all_emission_combos_are_bit_identical(monkeypatch, tmp_path):
    reference = None
    for backend, kernel in COMBOS:
        runner, handle = _run_combo(monkeypatch, tmp_path, backend,
                                    kernel)
        result = (_trace_digest(handle), _cache_key(runner),
                  handle.site_table, handle.bytecodes,
                  handle.allocations)
        if reference is None:
            reference = result
        else:
            assert result == reference, (backend, kernel)


#: Seeded program generator: each snippet leans on a different fused
#: emitter family (int ALU + jumps, dict/global lookup, list subscript
#: + method calls, class construction + attribute traffic, dealloc
#: cascades), so backend divergence in any one template shows up.
_PROGRAMS = [
    """
total = 0
i = 0
while i < 40:
    if i % 3 == 0:
        total = total + i * 2
    else:
        total = total - 1
    i = i + 1
print(total)
""",
    """
limit = 25


def collatz(n):
    steps = 0
    while n != 1 and steps < limit:
        if n % 2 == 0:
            n = n // 2
        else:
            n = 3 * n + 1
        steps = steps + 1
    return steps


acc = 0
for seed in range(2, 30):
    acc = acc + collatz(seed)
print(acc)
""",
    """
values = []
for i in range(30):
    values.append(i * i % 17)
pairs = {}
for v in values:
    if v in pairs:
        pairs[v] = pairs[v] + 1
    else:
        pairs[v] = 1
total = 0
for v in values:
    total = total + values[v % len(values)] + pairs[v]
print(total)
""",
    """
class Node:
    def __init__(self, value):
        self.value = value
        self.next = None


head = None
for i in range(25):
    node = Node(i)
    node.next = head
    head = node
total = 0
cursor = head
while cursor is not None:
    total = total + cursor.value
    cursor = cursor.next
print(total)
""",
    """
def churn(n):
    keep = []
    for i in range(n):
        scratch = [i, i + 1, i + 2]
        if i % 4 == 0:
            keep.append(scratch)
    return len(keep)


print(churn(60))
print(churn(31))
""",
]


@pytest.mark.parametrize("runtime", ["cpython", "pypy"])
def test_generated_programs_equivalent_across_backends(monkeypatch,
                                                       runtime):
    for index, source in enumerate(_PROGRAMS):
        digests = set()
        outputs = set()
        for backend in ("scalar", "burst"):
            vm, machine = run_source(source, runtime=runtime,
                                     backend=backend)
            digest = hashlib.sha256()
            for name, column in sorted(machine.trace.arrays().items()):
                digest.update(np.ascontiguousarray(
                    column, dtype=np.int64).tobytes())
            digests.add(digest.hexdigest())
            outputs.add(tuple(vm.output))
        assert len(digests) == 1, (runtime, index)
        assert len(outputs) == 1, (runtime, index)


#: Golden trace digests. Both backends run the same ``_rows_*`` bodies
#: (eagerly or through recorded templates), so cross-backend agreement
#: alone cannot catch a change to the emission choreography itself;
#: these pins do. Re-pin only with a change that is allowed to move
#: figure bytes (``bench/reference.json``).
_GOLDEN = [
    ("richards", "cpython", False,
     "73f43b91e34f998d16e8414d8e3ee29ad8800d37c88d3f5b8935e9e4596e5cd1"),
    ("nqueens", "cpython", False,
     "2887d79090492320145bd52186498619ec8ac569a763c80431a08dd0193b9de1"),
    ("chaos", "pypy", True,
     "539389d42c580634b5ba0bae8ea37ab31d8add459aaa3690e087ea753ab1a733"),
    ("richards", "v8", True,
     "5cf9794f9b6e51f9ca596455f6357c689d5583e6bdc4c9b1843ddfb94298154f"),
    ("richards", "pypy", False,
     "037545df45cdb8532cc1ef9e5b7f7e2478d4a29a4f6dfe596675abdad00d0c87"),
]


@pytest.mark.parametrize(
    "workload,runtime,jit,golden",
    [pytest.param(*cell, id="-".join(map(str, cell[:3])))
     for cell in _GOLDEN])
def test_workload_sample_equivalent_across_backends(monkeypatch, tmp_path,
                                                    workload, runtime,
                                                    jit, golden):
    digests = set()
    for backend in ("scalar", "burst"):
        _emit_with(monkeypatch, backend)
        runner = ExperimentRunner(disk_cache=DiskCache(None))
        handle = runner.run(workload, runtime, jit=jit,
                            nursery=64 * 1024)
        digest = _trace_digest(handle)
        digests.add(digest)
        assert digest == golden, backend
    assert len(digests) == 1


def test_category_breakdowns_match_across_backends(monkeypatch, tmp_path):
    cycles = None
    for backend, kernel in (("scalar", False), ("burst", True)):
        runner, handle = _run_combo(monkeypatch, tmp_path, backend,
                                    kernel)
        breakdown = breakdown_for_run(runner, handle)
        if cycles is None:
            cycles = breakdown.cycles
        else:
            assert breakdown.cycles == cycles


_CHILD_SCRIPT = """
import hashlib, sys
from repro.experiments.diskcache import DiskCache, content_key
from repro.experiments.runner import ExperimentRunner

assert sys.flags.hash_randomization, "hash randomization must be live"
runner = ExperimentRunner(disk_cache=DiskCache(None))
handle = runner.run({workload!r}, "cpython", jit=False)
import numpy as np
digest = hashlib.sha256()
for name, column in sorted(handle.trace.arrays().items()):
    digest.update(np.ascontiguousarray(column, dtype="int64").tobytes())
print(digest.hexdigest(), content_key(runner._trace_key_params(
    {workload!r}, "cpython", False, 0, 0)))
"""


def test_traces_are_stable_across_hash_seeds(tmp_path):
    """Two fresh interpreters with different PYTHONHASHSEEDs agree.

    Guest "addresses" derived from identifier names go through the
    FNV-1a ``stable_hash``, never the builtin ``hash``; if that ever
    regresses, the two children print different digests.
    """
    outputs = []
    for seed in ("1", "987654321"):
        env = dict(os.environ,
                   PYTHONHASHSEED=seed,
                   REPRO_CACHE="off")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             _CHILD_SCRIPT.format(workload=WORKLOAD)],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]
    digest, cache_key = outputs[0].split()
    assert len(digest) == 64 and len(cache_key) == 64


def test_frozen_trace_rejects_all_append_paths(monkeypatch):
    """freeze() seals every emission path, including queued bursts."""
    trace = InstructionTrace()
    trace.append(1, 0, 0)
    trace.freeze()
    with pytest.raises(TraceError):
        trace.append(2, 0, 0)
    with pytest.raises(TraceError):
        trace.alloc_rows(4)


def test_frozen_trace_rejects_burst_flush(tmp_path):
    """A burst VM's frozen trace fails loudly on any further flush."""
    runner = ExperimentRunner(disk_cache=DiskCache(None))
    handle = runner.run(WORKLOAD, "cpython", jit=False)
    trace = handle.trace
    trace.freeze()
    with pytest.raises(TraceError):
        trace.alloc_rows(1)
    # Frozen columns stay readable after sealing.
    assert len(trace.arrays()["pc"]) == len(trace)
