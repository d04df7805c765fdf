"""Live campaign view: journal + cache usage + run registry, joined.

``python -m repro status`` renders one snapshot of everything the
observability plane records: how far the figure campaign has gotten
(from the checkpoint journal), what the disk cache holds (from
:meth:`~repro.experiments.diskcache.DiskCache.usage`), and what the run
registry says about the most recent runs (hit rates, the runner's
in-memory bytes against its budget, resilience recoveries, throughput
gauges). ``--watch`` redraws the same snapshot
on an interval until interrupted.

Everything here is **read-only**: status never enables telemetry,
never appends to the registry, and never touches cache entries — it is
safe to point at a campaign that is mid-flight in another process.
"""

from __future__ import annotations

import time
from pathlib import Path


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"


def _fmt_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s ago"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m ago"
    return f"{seconds / 3600:.1f}h ago"


def _hit_rate(counters: dict, prefix: str) -> float | None:
    """hit / (hit + miss) over every labeled child of one counter pair."""
    hits = sum(value for name, value in counters.items()
               if name.split("{", 1)[0] == f"{prefix}.hit")
    misses = sum(value for name, value in counters.items()
                 if name.split("{", 1)[0] == f"{prefix}.miss")
    total = hits + misses
    return hits / total if total else None


def _campaign_lines(checkpoint: str | Path | None) -> list[str]:
    from .figures import ALL_FIGURES
    from .resilience import default_checkpoint_path, load_checkpoint
    path = Path(checkpoint) if checkpoint is not None \
        else default_checkpoint_path()
    done = load_checkpoint(path)
    total = len(ALL_FIGURES)
    finished = [name for name in ALL_FIGURES if name in done]
    remaining = [name for name in ALL_FIGURES if name not in done]
    lines = [f"campaign   : {len(finished)}/{total} figures "
             f"checkpointed ({path})"]
    if finished:
        walls = [done[name].get("wall_seconds", 0.0) for name in finished]
        mean_wall = sum(walls) / len(walls)
        lines.append(f"  done     : {', '.join(finished)}")
        if remaining:
            eta = mean_wall * len(remaining)
            lines.append(
                f"  remaining: {', '.join(remaining)}")
            lines.append(
                f"  eta      : ~{eta:.0f}s at the observed "
                f"{mean_wall:.1f}s/figure")
        else:
            lines.append("  remaining: none — campaign complete")
    elif remaining:
        lines.append(f"  remaining: all {total}")
    return lines


def _cache_lines() -> list[str]:
    from .diskcache import DiskCache
    usage = DiskCache().usage()
    if usage["root"] is None:
        return ["disk cache : off (REPRO_CACHE=off)"]
    lines = [f"disk cache : {usage['entries']} entries, "
             f"{_fmt_bytes(usage['bytes'])} at {usage['root']}"]
    for kind in ("traces", "states", "kernels"):
        block = usage.get(kind)
        if block:
            lines.append(f"  {kind:9s}: {block['entries']} entries, "
                         f"{_fmt_bytes(block['bytes'])}")
    traces = usage.get("traces") or {}
    if traces.get("rows"):
        lines.append(
            f"  codec    : {traces['bytes_per_instruction']:.2f} B/instr, "
            f"{traces['compression_ratio']:.1f}x vs canonical")
    if usage.get("quarantined_files"):
        lines.append(f"  quarantine: {usage['quarantined_files']} files")
    telemetry = usage.get("telemetry")
    if telemetry:
        lines.append(f"  telemetry: {telemetry['entries']} files, "
                     f"{_fmt_bytes(telemetry['bytes'])}")
    return lines


def _queue_lines() -> list[str]:
    """Distributed-campaign panel: cells by state, live workers by
    heartbeat age, reclaim/poison counts. Read-only like the rest."""
    from .queue import WorkQueue, discover_campaigns
    directories = discover_campaigns(active_only=False)
    active = [path for path in directories
              if (WorkQueue(path).manifest() or {}).get("state")
              == "active"]
    if not directories:
        return []
    lines = [f"queue      : {len(active)} active campaign(s), "
             f"{len(directories) - len(active)} closed"]
    for path in directories:
        queue = WorkQueue(path)
        manifest = queue.manifest() or {}
        state = manifest.get("state", "?")
        counts = queue.counts()
        done = len(queue.results())
        lines.append(
            f"  {queue.campaign} [{state}]: "
            f"{counts['pending']} pending, {counts['leased']} leased, "
            f"{done} done, {counts['poison']} poisoned")
        if state != "active":
            continue
        workers = queue.worker_ages()
        ttl = queue.ttl
        if workers:
            parts = []
            for name, age in sorted(workers.items(),
                                    key=lambda item: item[1]):
                tag = "" if age < ttl else " (stale)"
                parts.append(f"{name} {_fmt_age(age)}{tag}")
            lines.append(f"    workers: {', '.join(parts)}")
        else:
            lines.append("    workers: none seen")
        reclaims = queue.total_reclaims()
        if reclaims or counts["poison"]:
            lines.append(f"    recovery: {reclaims} lease reclaim(s), "
                         f"{counts['poison']} poisoned cell(s)")
    return lines


def _serve_lines() -> list[str]:
    """Sweep-server panel: session-journal requests/results by tenant.

    Reads the serve journal the same torn-tail-tolerant way the server
    does on restart; absent journal = no panel. Read-only."""
    from .client import serve_root
    from .server import SessionJournal
    journal = SessionJournal(serve_root())
    if not journal.path.exists():
        return []
    requests, results = journal.load()
    pending = [key for key in requests if key not in results]
    by_status: dict[str, int] = {}
    for record in results.values():
        status = str(record.get("status", "?"))
        by_status[status] = by_status.get(status, 0) + 1
    lines = [f"serve      : {len(results)} answered, "
             f"{len(pending)} pending ({journal.path})"]
    if by_status:
        parts = [f"{count} {status}"
                 for status, count in sorted(by_status.items())]
        lines.append(f"  results  : {', '.join(parts)}")
    tenants: dict[str, int] = {}
    for record in requests.values():
        tenant = str(record.get("tenant", "default"))
        tenants[tenant] = tenants.get(tenant, 0) + 1
    if tenants:
        parts = [f"{name} ({count})"
                 for name, count in sorted(tenants.items())]
        lines.append(f"  tenants  : {', '.join(parts)}")
    if pending:
        lines.append(f"  pending  : {', '.join(sorted(pending)[:8])}"
                     + (" ..." if len(pending) > 8 else "")
                     + " — resumed on next serve start")
    return lines


def _registry_lines() -> list[str]:
    from ..telemetry.registry import RunRegistry
    registry = RunRegistry()
    records = registry.records()
    if not records:
        return [f"registry   : empty ({registry.root})"]
    last = records[-1]
    lines = [f"registry   : {len(records)} records at {registry.root}"]
    created = last.get("created_unix")
    age = f", {_fmt_age(time.time() - created)}" \
        if isinstance(created, (int, float)) else ""
    lines.append(f"  last run : seq {last.get('seq')} "
                 f"[{last.get('kind')}] {last.get('command')}{age}")
    counters = last.get("counters", {}) or {}
    for label, prefix in (("trace cache", "runner.trace_cache"),
                          ("disk cache", "runner.disk_cache"),
                          ("state cache", "runner.state_cache")):
        rate = _hit_rate(counters, prefix)
        if rate is not None:
            lines.append(f"  {label:9s}: {rate:6.1%} hit rate")
    held = counters.get("runner.cache.bytes")
    budget = counters.get("runner.cache.budget_bytes")
    if held is not None and budget:
        lines.append(f"  in memory: {_fmt_bytes(held)} held of "
                     f"{_fmt_bytes(budget)} budget ({held / budget:.0%})")
    retries = sum(value for name, value in counters.items()
                  if name.startswith("resilience.retries"))
    rebuilds = sum(value for name, value in counters.items()
                   if name.startswith("resilience.pool_rebuilds"))
    if retries or rebuilds:
        lines.append(f"  resilience: {int(retries)} retries, "
                     f"{int(rebuilds)} pool rebuilds")
    gauges = last.get("gauges", {}) or {}
    for name, value in sorted(gauges.items()):
        unit = "B/s" if "bytes_per_second" in name else "instr/s"
        lines.append(f"  {name}: {value:,.0f} {unit}")
    return lines


def render_status(checkpoint: str | Path | None = None) -> str:
    """One status snapshot as printable text."""
    sections = [
        ["repro campaign status — "
         + time.strftime("%Y-%m-%d %H:%M:%S")],
        _campaign_lines(checkpoint),
        _queue_lines(),
        _serve_lines(),
        _cache_lines(),
        _registry_lines(),
    ]
    return "\n".join("\n".join(section)
                     for section in sections if section)


def watch_status(interval: float = 2.0,
                 checkpoint: str | Path | None = None,
                 emit=print, clear: bool = True,
                 max_iterations: int | None = None) -> None:
    """Redraw :func:`render_status` every ``interval`` seconds.

    Runs until ``KeyboardInterrupt`` (or ``max_iterations``, for
    tests). ``clear`` wipes the terminal between frames.
    """
    iterations = 0
    try:
        while True:
            frame = render_status(checkpoint)
            if clear:
                frame = "\x1b[2J\x1b[H" + frame
            emit(frame)
            iterations += 1
            if max_iterations is not None \
                    and iterations >= max_iterations:
                return
            time.sleep(interval)
    except KeyboardInterrupt:
        return
