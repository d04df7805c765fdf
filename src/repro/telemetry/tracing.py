"""Nested wall-clock spans and their Chrome trace-event rendering.

A :class:`Tracer` records a forest of :class:`Span` objects via a
context manager::

    with tracer.span("guest.run", workload="chaos", runtime="pypy"):
        with tracer.span("sim.memory_side"):
            ...

``tree()`` exports the forest as plain nested dicts: the manifest's
``spans``, rendered as an ASCII self-time tree by
:func:`repro.analysis.report.render_span_tree`, and as Trace Event
Format "complete" events (``ph="X"``, microsecond ``ts``/``dur``) by
:func:`spans_to_chrome`.

Timestamps are microseconds relative to the tracer's creation so
manifests diff cleanly across runs. The clock is injectable for tests.
A tracer keeps at most :data:`MAX_ROOTS` root spans: a long-lived
process (``repro serve``, ``repro work``) opens one root per request or
cell, so past that the oldest roots are dropped and their spans counted
in ``telemetry.spans_dropped``.

Cross-process unification: every tracer also remembers the wall-clock
instant of its epoch (``epoch_unix``), so span forests recorded in
*worker processes* — shipped back as :meth:`Tracer.export_state` dumps
and collected in a :class:`WorkerTraceStore` — can be rebased onto the
parent's timeline and rendered as per-worker pid lanes in one merged
Chrome trace (:func:`repro.telemetry.export.build_chrome_trace`).
"""

from __future__ import annotations

import time

#: Root spans a :class:`Tracer` keeps before it drops the oldest.
MAX_ROOTS = 4096


class Span:
    """One timed region: name, attributes, children."""

    __slots__ = ("name", "attrs", "start_us", "end_us", "children")

    def __init__(self, name: str, attrs: dict | None,
                 start_us: float) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.start_us = start_us
        self.end_us = start_us
        self.children: list[Span] = []

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def self_us(self) -> float:
        """Time spent in this span excluding its children."""
        return self.duration_us - sum(c.duration_us for c in self.children)

    def size(self) -> int:
        """Spans in this subtree, this one included."""
        return 1 + sum(child.size() for child in self.children)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_us": round(self.start_us, 3),
            "duration_us": round(self.duration_us, 3),
            "self_us": round(self.self_us, 3),
            "children": [c.to_dict() for c in self.children],
        }


class _SpanContext:
    """Context manager that closes its span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.span)


class Tracer:
    """Records a forest of nested spans against one wall clock."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        #: Wall-clock instant of the epoch — the anchor that lets span
        #: forests from different processes share one merged timeline.
        self.epoch_unix = time.time()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a span nested under the innermost live span."""
        span = Span(name, attrs, self._now_us())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
            if len(self.roots) > MAX_ROOTS:
                self._drop_oldest_root()
        self._stack.append(span)
        return _SpanContext(self, span)

    def _drop_oldest_root(self) -> None:
        # A root opens on an empty stack, so every earlier root is
        # finished. Imported here: the package imports this module.
        from . import TELEMETRY
        dropped = self.roots.pop(0)
        TELEMETRY.metrics.counter("telemetry.spans_dropped").inc(
            dropped.size())

    def _close(self, span: Span) -> None:
        span.end_us = self._now_us()
        # Unwind to the closed span; tolerates a child left open by an
        # exception between two spans.
        while self._stack:
            if self._stack.pop() is span:
                break

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._epoch = self._clock()
        self.epoch_unix = time.time()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def tree(self) -> list[dict]:
        """The whole forest as nested plain dicts (manifest `spans`)."""
        return [root.to_dict() for root in self.roots]

    def export_state(self) -> dict:
        """The forest plus its wall-clock anchor, JSON/pickle-ready.

        This is the cross-process wire format: a worker exports its
        state after each cell, the parent rebases the spans onto its
        own timeline via ``epoch_unix`` (see :func:`spans_to_chrome`).
        """
        return {"epoch_unix": self.epoch_unix, "spans": self.tree()}


def spans_to_chrome(spans: list[dict], pid: int, tid: int = 1,
                    offset_us: float = 0.0) -> list[dict]:
    """Span dicts (:meth:`Span.to_dict` shape) as Chrome complete events.

    ``offset_us`` shifts every timestamp — the merged-trace builder
    passes ``(epoch_unix - base_unix) * 1e6`` so spans recorded against
    another process's epoch land at the right wall-clock position.
    """
    events: list[dict] = []

    def visit(span: dict) -> None:
        events.append({
            "name": span["name"],
            "ph": "X",
            "ts": round(span["start_us"] + offset_us, 3),
            "dur": round(span["duration_us"], 3),
            "pid": pid,
            "tid": tid,
            "cat": "repro",
            "args": dict(span.get("attrs", {})),
        })
        for child in span.get("children", ()):
            visit(child)

    for root in spans:
        visit(root)
    return events


class WorkerTraceStore:
    """Parent-side collection of worker span-tree dumps.

    The supervised fan-out appends one entry per completed cell, in
    submission order: ``{"pid": ..., "site": ..., "attempt": ...,
    "trace": Tracer.export_state()}``. Only the final successful dump
    of each cell is kept — spans from a crashed worker died with it,
    exactly like its metrics.
    """

    def __init__(self) -> None:
        self.dumps: list[dict] = []

    def add(self, dump: dict) -> None:
        self.dumps.append(dump)

    def pids(self) -> list[int]:
        """Distinct worker pids, in first-appearance order."""
        seen: dict[int, None] = {}
        for dump in self.dumps:
            seen.setdefault(dump.get("pid", 0), None)
        return list(seen)

    def reset(self) -> None:
        self.dumps = []

    def snapshot(self) -> dict:
        """Manifest block: per-worker span forests with anchors."""
        return {
            "cells": len(self.dumps),
            "pids": self.pids(),
            "dumps": [dict(dump) for dump in self.dumps],
        }


class NullWorkerTraceStore:
    """Default store when telemetry is disabled: records nothing."""

    __slots__ = ()
    dumps: list = []

    def add(self, dump: dict) -> None:
        pass

    def pids(self) -> list:
        return []

    def reset(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {"cells": 0, "pids": [], "dumps": []}


NULL_WORKER_TRACES = NullWorkerTraceStore()


class _NullSpanContext:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()
    span = None

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Default tracer when telemetry is disabled: records nothing."""

    __slots__ = ()
    roots: list = []
    epoch_unix = 0.0

    def span(self, name: str, **attrs) -> _NullSpanContext:
        return _NULL_SPAN

    def reset(self) -> None:
        pass

    def tree(self) -> list:
        return []

    def export_state(self) -> dict:
        return {"epoch_unix": 0.0, "spans": []}


NULL_TRACER = NullTracer()
