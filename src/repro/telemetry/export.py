"""Per-run JSON manifest: config, stats, metrics, spans, and events.

One manifest fully describes one run: what was asked for (``command``,
``config``), what the guest did (``stats``, ``events``), and where the
simulator spent its own time (``metrics``, ``spans``, ``workers``,
``chrome_trace``). The CLI and :class:`~repro.experiments.runner.
ExperimentRunner` write one after every telemetry-enabled run; the
latest one is mirrored to ``<telemetry-dir>/last_run.json`` and
summarized into the run registry
(:class:`~repro.telemetry.registry.RunRegistry`), whose monotonic
sequence numbers — not filesystem mtimes — decide which run is newest.

``chrome_trace`` is the **unified** trace: the parent's span forest on
its own pid lane, every fan-out worker's shipped span forest on that
worker's pid lane (rebased onto the parent's wall clock via each
tracer's ``epoch_unix`` anchor), instant events for cell boundaries and
resilience recoveries, and ``process_name`` metadata so
``chrome://tracing`` / Perfetto label the lanes.

The telemetry directory defaults to ``.repro-telemetry`` under the
current working directory and is overridable with the
``REPRO_TELEMETRY_DIR`` environment variable.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from . import TELEMETRY
from .tracing import spans_to_chrome

#: Manifest schema identifier, bumped on incompatible layout changes.
SCHEMA = "repro-telemetry/2"

LAST_RUN_NAME = "last_run.json"

#: Event kinds surfaced as instant markers in the unified Chrome trace.
_INSTANT_PREFIXES = ("resilience.", "campaign.", "cell.", "figure.")


def telemetry_dir() -> Path:
    return Path(os.environ.get("REPRO_TELEMETRY_DIR", ".repro-telemetry"))


#: The fault-injection spec, recorded verbatim in every manifest when
#: set, so a run that survived injected faults is distinguishable from
#: a clean one after the fact.
_FAULTS_ENV = "REPRO_FAULTS"


def build_chrome_trace() -> dict:
    """One merged Trace Event JSON covering parent and workers.

    The parent's spans render on its real pid lane; each worker dump in
    ``TELEMETRY.workers`` renders on the worker's pid lane, its
    timestamps shifted by the difference between the two tracers'
    wall-clock epochs. Event-log rows whose kind matches
    :data:`_INSTANT_PREFIXES` become instant events on the parent lane.
    """
    pid = os.getpid()
    base_unix = TELEMETRY.tracer.epoch_unix
    events: list[dict] = []

    def name_lane(lane_pid: int, label: str) -> None:
        events.append({"name": "process_name", "ph": "M", "pid": lane_pid,
                       "tid": 0, "args": {"name": label}})

    parent_spans = TELEMETRY.tracer.to_chrome_trace()
    if parent_spans or TELEMETRY.workers.dumps:
        name_lane(pid, f"repro parent (pid {pid})")
    for event in parent_spans:
        events.append({**event, "pid": pid})

    for worker_pid in TELEMETRY.workers.pids():
        name_lane(worker_pid, f"repro worker (pid {worker_pid})")
    for dump in TELEMETRY.workers.dumps:
        trace = dump.get("trace") or {}
        offset_us = (trace.get("epoch_unix", base_unix) - base_unix) * 1e6
        events.extend(spans_to_chrome(trace.get("spans", []),
                                      pid=dump.get("pid", 0),
                                      offset_us=offset_us))

    event_offset_us = (TELEMETRY.events.epoch_unix - base_unix) * 1e6
    for row in TELEMETRY.events:
        kind = row["kind"]
        if not kind.startswith(_INSTANT_PREFIXES):
            continue
        args = {key: value for key, value in row.items()
                if key not in ("ts_us", "kind")}
        events.append({"name": kind, "ph": "i", "s": "p",
                       "ts": round(row["ts_us"] + event_offset_us, 3),
                       "pid": pid, "tid": 1, "cat": "repro",
                       "args": args})

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def build_manifest(command: str | None = None,
                   config: dict | None = None,
                   stats: dict | None = None) -> dict:
    """Snapshot the live telemetry state into one JSON-ready dict."""
    faults = os.environ.get(_FAULTS_ENV)
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "command": command,
        "config": config or {},
        "resilience": {_FAULTS_ENV: faults} if faults else {},
        "stats": stats or {},
        "metrics": TELEMETRY.metrics.snapshot(),
        "spans": TELEMETRY.tracer.tree(),
        "events": TELEMETRY.events.snapshot(),
        "workers": TELEMETRY.workers.snapshot(),
        "chrome_trace": build_chrome_trace(),
    }


def write_manifest(path: str | Path | None = None,
                   command: str | None = None,
                   config: dict | None = None,
                   stats: dict | None = None,
                   manifest: dict | None = None,
                   kind: str = "run") -> Path:
    """Write a manifest to ``path`` and mirror it to ``last_run.json``.

    With ``path=None`` only the ``last_run.json`` mirror is written.
    When telemetry is enabled the manifest is also summarized into the
    run registry (with a full per-seq copy), which is what
    :func:`load_last_manifest` consults first. Returns the primary
    path written.
    """
    if manifest is None:
        manifest = build_manifest(command=command, config=config,
                                  stats=stats)
    text = json.dumps(manifest, indent=2, sort_keys=False, default=str)
    last_run = telemetry_dir() / LAST_RUN_NAME
    last_run.parent.mkdir(parents=True, exist_ok=True)
    last_run.write_text(text + "\n", encoding="utf-8")
    primary = last_run
    if path is not None:
        primary = Path(path)
        if primary.parent != Path(""):
            primary.parent.mkdir(parents=True, exist_ok=True)
        primary.write_text(text + "\n", encoding="utf-8")
    if TELEMETRY.enabled:
        from .registry import RunRegistry, summarize_manifest
        try:
            RunRegistry().append(summarize_manifest(manifest, kind=kind),
                                 manifest=manifest)
        except OSError:
            # A read-only registry dir must not fail the run that
            # produced the manifest; the mirror above still exists.
            TELEMETRY.metrics.counter("registry.write_errors").inc()
    return primary


def load_last_manifest() -> dict | None:
    """The most recently written manifest, or None if there isn't one.

    Consults the run registry first: its monotonic sequence numbers
    order runs even when filesystem timestamps tie. Falls back to the
    ``last_run.json`` mirror (registry empty, pruned, or telemetry was
    written by an older schema).
    """
    from .registry import RunRegistry
    record = RunRegistry().last()
    if record is not None:
        manifest_path = record.get("manifest_path")
        if manifest_path and Path(manifest_path).exists():
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    return json.load(handle)
            except (OSError, ValueError):
                pass
    path = telemetry_dir() / LAST_RUN_NAME
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def write_chrome_trace(path: str | Path,
                       manifest: dict | None = None) -> Path:
    """Write just the Chrome trace-event JSON (``chrome://tracing``).

    With ``manifest=None`` the unified builder runs against the live
    telemetry state (parent + worker lanes + instants).
    """
    if manifest is None:
        trace = build_chrome_trace()
    else:
        trace = manifest.get("chrome_trace",
                             {"traceEvents": [], "displayTimeUnit": "ms"})
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, indent=2) + "\n", encoding="utf-8")
    return path
