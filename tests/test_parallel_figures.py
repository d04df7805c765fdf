"""Parallel fan-out: jobs semantics, determinism, telemetry merging."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.errors import ExperimentError
from repro.experiments.figures import fig5
from repro.experiments.parallel import fan_out, resolve_jobs
from repro.experiments.runner import ExperimentRunner
from repro.telemetry import TELEMETRY

_64K = 64 * 1024

_REQUESTS = (
    {"workload": "chaos", "runtime": "pypy", "jit": True,
     "nursery": _64K},
    {"workload": "nbody", "runtime": "pypy", "jit": True,
     "nursery": _64K},
    {"workload": "chaos", "runtime": "cpython"},
)


def test_resolve_jobs_defaults():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # 0 = one per CPU
    with pytest.raises(ExperimentError):
        resolve_jobs(-2)


def _square_cell(runner, value):
    return value * value


def test_fan_out_preserves_submission_order():
    runner = ExperimentRunner()
    items = [(v,) for v in range(8)]
    assert fan_out(runner, _square_cell, items, jobs=1) \
        == fan_out(runner, _square_cell, items, jobs=3) \
        == [v * v for v in range(8)]


def _guest_run_cell(runner, request):
    return runner.run(**request).host_instructions


def test_worker_metrics_merge_into_parent():
    telemetry.enable()
    telemetry.reset()
    emitted = fan_out(ExperimentRunner(), _guest_run_cell,
                      [(request,) for request in _REQUESTS], jobs=2)
    snapshot = TELEMETRY.metrics.snapshot()
    guest = {k: v for k, v in snapshot.items()
             if k.startswith("guest.instructions{")}
    assert guest, snapshot
    # Every guest ran in a worker; its counter reached the parent.
    assert sum(guest.values()) == sum(emitted) > 0


def test_figure_output_identical_across_jobs():
    runner_serial = ExperimentRunner()
    serial = fig5(runner_serial, quick=True, jobs=1)
    runner_parallel = ExperimentRunner()
    parallel = fig5(runner_parallel, quick=True, jobs=2)
    assert serial.rendered == parallel.rendered
    assert serial.data["shares"] == parallel.data["shares"]
    assert serial.data["average"] == parallel.data["average"]
