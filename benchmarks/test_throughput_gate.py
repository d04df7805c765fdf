"""Throughput regression gate: ``repro perf check`` in the bench suite.

Fails when a gauge of the perf probe (:mod:`repro.experiments.perf`) —
``guest`` (trace emission by the interpreter models),
``sim.memory_side`` (cache + branch simulation), ``sim.core.ooo`` (the
batched OOO core), or ``trace.codec.encode``/``decode`` (the columnar
trace codec, in canonical bytes per second) — falls below half of its
value in ``benchmarks/baselines/perf.json``, so a change that quietly
de-vectorizes a hot loop or de-fuses the burst emitter cannot land
unnoticed.

Refresh the baseline on the target machine with one command:

    PYTHONPATH=src python -m repro perf check --update
"""

from __future__ import annotations

from conftest import save_text

from repro.experiments import perf


def test_simulation_throughput_gates():
    lines: list[str] = []
    status = perf.check(emit=lines.append)
    save_text("throughput_gate", "\n".join(lines))
    assert status == 0, "\n".join(lines)
