"""``repro.telemetry`` — spans and metrics.

One process-wide :data:`TELEMETRY` state object holds the sinks:

* ``TELEMETRY.metrics`` — :class:`~repro.telemetry.metrics.MetricsRegistry`
* ``TELEMETRY.tracer`` — :class:`~repro.telemetry.tracing.Tracer`
* ``TELEMETRY.workers`` — :class:`~repro.telemetry.tracing.WorkerTraceStore`
  (span-tree dumps shipped back by fan-out worker processes)

The default (library use) is **disabled**: every sink is a null object
and instrumentation costs a no-op call at most; simulation hot loops
additionally guard on ``TELEMETRY.enabled`` so they pay one attribute
read. The CLI and the benchmark suite call :func:`enable`;
:func:`session` scopes enablement for tests.

Instrumented code must read the sinks *through* ``TELEMETRY`` at use
time (``TELEMETRY.metrics.counter(...)``), never cache them at import or
construction time — :func:`enable`/:func:`disable` swap the attributes
in place.
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from .tracing import (
    NullTracer,
    NULL_TRACER,
    NullWorkerTraceStore,
    NULL_WORKER_TRACES,
    Span,
    Tracer,
    WorkerTraceStore,
)

__all__ = [
    "TELEMETRY", "TelemetryState", "enable", "disable", "reset",
    "session", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MetricError", "NullRegistry", "Tracer", "NullTracer", "Span",
    "WorkerTraceStore", "NullWorkerTraceStore",
]


class TelemetryState:
    """Holder whose attributes are swapped by enable()/disable()."""

    __slots__ = ("enabled", "metrics", "tracer", "workers")

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        self.workers = NULL_WORKER_TRACES


#: The process-wide telemetry state. Disabled (null sinks) by default.
TELEMETRY = TelemetryState()


def enable() -> TelemetryState:
    """Install live sinks. Idempotent (keeps existing data if already on)."""
    if not TELEMETRY.enabled:
        TELEMETRY.metrics = MetricsRegistry()
        TELEMETRY.tracer = Tracer()
        TELEMETRY.workers = WorkerTraceStore()
        TELEMETRY.enabled = True
    return TELEMETRY


def disable() -> None:
    """Restore the zero-cost null sinks (discards recorded data)."""
    TELEMETRY.enabled = False
    TELEMETRY.metrics = NULL_REGISTRY
    TELEMETRY.tracer = NULL_TRACER
    TELEMETRY.workers = NULL_WORKER_TRACES


def reset() -> None:
    """Clear recorded data without changing enablement."""
    TELEMETRY.metrics.reset()
    TELEMETRY.tracer.reset()
    TELEMETRY.workers.reset()


@contextmanager
def session():
    """Enable telemetry for a ``with`` block, then restore prior state."""
    was_enabled = TELEMETRY.enabled
    enable()
    try:
        yield TELEMETRY
    finally:
        if not was_enabled:
            disable()
