"""Span arithmetic for the benchmark: self times, waterfalls, statistics.

Pure functions over the span files :mod:`driver` writes; nothing here
imports the program under test.

Self time follows one rule. Every instant of a process's wall time goes
to the innermost open span of each thread that has one, split evenly
between those threads, or to ``unattributed`` when no thread has a span
open. The layer self times plus ``unattributed`` therefore add up to the
process's wall time exactly, with any number of threads.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

UNATTRIBUTED = "unattributed"

#: Layers of the waterfall, in the order the program reaches them.
LAYERS = (
    "setup.import", "setup.kernel_build", "frontend", "vm", "codec.encode",
    "codec.decode", "diskcache.load", "diskcache.store", "uarch.memory_side",
    "uarch.cache_resim", "uarch.core", "uarch.simple_core", "pintool",
    "analysis", "runner", "parallel", "queue.publish", "queue.claim",
    "queue.complete", "queue.wait", "server.journal_append",
    "server.admission", "resilience.checkpoint", "telemetry",
)


def _top_segments(spans, lo: int, hi: int) -> list[tuple[int, int, str]]:
    """One thread's timeline as (start, end, innermost span name) pieces.

    ``spans`` are (name, start, end) of one thread, properly nested, as
    synchronous wrappers produce them; a child is clipped to its parent.
    """
    segments = []
    stack: list[tuple[str, int]] = []   # (name, end)
    cursor = lo
    for name, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        while stack and stack[-1][1] <= start:
            top_name, top_end = stack.pop()
            if top_end > cursor:
                segments.append((cursor, top_end, top_name))
                cursor = top_end
        if stack:
            end = min(end, stack[-1][1])
            if start > cursor:
                segments.append((cursor, start, stack[-1][0]))
        cursor = max(cursor, start)
        stack.append((name, end))
    while stack:
        top_name, top_end = stack.pop()
        if top_end > cursor:
            segments.append((cursor, top_end, top_name))
            cursor = top_end
    return segments


def self_times(spans, lo: int, hi: int) -> tuple[dict[str, float], float]:
    """Self seconds per span name and unattributed seconds in [lo, hi].

    ``spans`` are (name, start_ns, end_ns, tid) tuples of one process.
    """
    by_thread: dict[int, list] = {}
    for name, start, end, tid in spans:
        by_thread.setdefault(tid, []).append((name, start, end))
    events = []
    for tid, thread_spans in by_thread.items():
        for start, end, name in _top_segments(thread_spans, lo, hi):
            events.append((start, 1, tid, name))
            events.append((end, 0, tid, name))
    events.sort(key=lambda e: (e[0], e[1]))
    result: dict[str, float] = {}
    unattributed = 0.0
    active: dict[int, str] = {}
    previous = lo
    for time_ns, is_start, tid, name in events:
        if time_ns > previous:
            dt = (time_ns - previous) / 1e9
            if active:
                share = dt / len(active)
                for open_name in active.values():
                    result[open_name] = result.get(open_name, 0.0) + share
            else:
                unattributed += dt
            previous = time_ns
        if is_start:
            active[tid] = name
        elif active.get(tid) == name:
            del active[tid]
    unattributed += max(hi - previous, 0) / 1e9
    return result, unattributed


def load_processes(span_dir: str | Path) -> list[dict]:
    """Every span file in ``span_dir``, oldest process first."""
    records = [json.loads(path.read_text(encoding="utf-8"))
               for path in sorted(Path(span_dir).glob("*.json"))]
    return sorted(records, key=lambda r: r["start_ns"])


def process_waterfall(record: dict, lo: int | None = None,
                      hi: int | None = None) -> dict:
    """Wall, layer self times, unattributed and counts for one process,
    restricted to [lo, hi] when given (a window inside a long server)."""
    lo = record["start_ns"] if lo is None else max(lo, record["start_ns"])
    hi = record["end_ns"] if hi is None else min(hi, record["end_ns"])
    spans = [(s[0], s[1], s[2], s[4]) for s in record["spans"]]
    layers, unattributed = self_times(spans, lo, hi)
    inside = [s for s in record["spans"] if lo <= s[1] and s[2] <= hi]
    return {"pid": record["pid"], "argv": record["argv"],
            "wall_s": max(hi - lo, 0) / 1e9, "layers": layers,
            "unattributed_s": unattributed, "spans": inside}


def layer_metrics(waterfalls: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a set of process waterfalls.

    Busy times are reported as shares of the summed process wall time,
    so they do not depend on how many operations fit into a run; work
    is reported as counts and as rates over the layer's inclusive time.
    """
    wall = sum(w["wall_s"] for w in waterfalls) or 1e-9
    busy = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for w in waterfalls:
        unattributed += w["unattributed_s"]
        for layer, seconds in w["layers"].items():
            busy[layer] = busy.get(layer, 0.0) + seconds
    spans = [s for w in waterfalls for s in w["spans"]]

    def counts(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def total_span_s(name):
        # Inclusive time: a rate divides the work by the whole call.
        return sum((s[2] - s[1]) / 1e9 for s in spans if s[0] == name)

    def rate(name):
        seconds = total_span_s(name)
        return sum(counts(name)) / seconds if seconds > 0 else 0.0

    loads = counts("diskcache.load")
    claims = counts("queue.claim")
    metrics: dict[str, tuple[float, str]] = {
        f"{layer}.share": (busy[layer] / wall, "ratio") for layer in LAYERS}
    metrics.update({
        "unattributed_share": (unattributed / wall, "ratio"),
        "vm.instructions": (sum(counts("vm")), "count"),
        "vm.instr_per_s": (rate("vm"), "1/s"),
        "uarch.memory_side_instr_per_s": (rate("uarch.memory_side"),
                                          "1/s"),
        "uarch.core_instr_per_s": (rate("uarch.core"), "1/s"),
        "uarch.cache_resim_calls": (
            sum(1 for s in spans if s[0] == "uarch.cache_resim"), "count"),
        "diskcache.hits": (sum(loads), "count"),
        "diskcache.misses": (len(loads) - sum(loads), "count"),
        "diskcache.hit_ratio": (sum(loads) / len(loads) if loads else 0.0,
                                "ratio"),
        "parallel.cells": (sum(counts("parallel")), "count"),
        "queue.claims": (sum(1 for c in claims if c > 0), "count"),
        "queue.reclaims": (sum(1 for c in claims if c > 1), "count"),
        "server.journal_appends": (
            sum(1 for s in spans if s[0] == "server.journal_append"),
            "count"),
        "processes": (len(waterfalls), "count"),
    })
    return metrics


def render_waterfall(waterfalls: list[dict], title: str) -> str:
    """Text waterfall: one block per process, one row per layer."""
    lines = [title]
    for w in waterfalls:
        command = " ".join(w["argv"][:4])
        lines.append(f"  pid {w['pid']}: {command}  wall "
                     f"{w['wall_s']:.3f} s")
        rows = sorted(w["layers"].items(), key=lambda kv: -kv[1])
        rows.append((UNATTRIBUTED, w["unattributed_s"]))
        total = sum(seconds for _, seconds in rows)
        for layer, seconds in rows:
            share = seconds / w["wall_s"] if w["wall_s"] else 0.0
            lines.append(f"    {layer:<24} {seconds:9.3f} s  "
                         f"{100 * share:5.1f}%")
        lines.append(f"    {'sum':<24} {total:9.3f} s  "
                     f"{100 * total / (w['wall_s'] or 1e-9):5.1f}%")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, beyond: int = 10,
                    cap: int = 90) -> tuple[int, float] | None:
    """The highest whole percentile, at most ``cap``, with at least
    ``beyond`` samples above it (nearest rank), or None if none has."""
    ordered = sorted(values)
    n = len(ordered)
    for level in range(cap, 0, -1):
        index = math.ceil(level / 100 * n) - 1
        if index >= 0 and n - 1 - index >= beyond:
            return level, ordered[index]
    return None
