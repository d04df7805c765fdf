"""Per-run JSON manifest: config, stats, metrics, and spans.

One manifest fully describes one run: what was asked for (``command``,
``config``), what the guest did (``stats``), and where the simulator
spent its own time (``metrics``, ``spans``, ``workers``). The CLI
writes one after every telemetry-enabled command into the run registry
(:class:`~repro.telemetry.registry.RunRegistry`), whose monotonic
sequence numbers — not filesystem mtimes — decide which run is newest.

The Chrome trace is derived, not stored: :func:`build_chrome_trace`
renders the parent's ``spans`` on its ``pid`` lane and every fan-out
worker's shipped span forest on that worker's pid lane, rebased onto
the parent's wall clock via each tracer's ``epoch_unix`` anchor, with
``process_name`` metadata so ``chrome://tracing`` / Perfetto label the
lanes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..durable import atomic_write
from ..errors import ReproError
from . import TELEMETRY
from .registry import RunRegistry, manifest_bytes, summarize_manifest
from .tracing import spans_to_chrome

#: Manifest schema identifier, bumped on incompatible layout changes.
SCHEMA = "repro-telemetry/3"

#: The fault-injection spec, recorded verbatim in every manifest when
#: set, so a run that survived injected faults is distinguishable from
#: a clean one after the fact.
_FAULTS_ENV = "REPRO_FAULTS"


def build_chrome_trace(manifest: dict) -> dict:
    """One merged Trace Event JSON covering a manifest's processes.

    The parent's spans render on its ``pid`` lane; each worker dump in
    ``workers`` renders on the worker's pid lane, its timestamps
    shifted by the difference between the two tracers' wall-clock
    epochs.
    """
    if manifest.get("schema") != SCHEMA:
        raise ReproError(
            f"a {manifest.get('schema')} manifest has no trace anchors; "
            f"only {SCHEMA} manifests render as a Chrome trace")
    pid = manifest["pid"]
    base_unix = manifest["epoch_unix"]
    workers = manifest["workers"]
    events: list[dict] = []

    def name_lane(lane_pid: int, label: str) -> None:
        events.append({"name": "process_name", "ph": "M", "pid": lane_pid,
                       "tid": 0, "args": {"name": label}})

    parent_spans = spans_to_chrome(manifest["spans"], pid=pid)
    if parent_spans or workers["dumps"]:
        name_lane(pid, f"repro parent (pid {pid})")
    events.extend(parent_spans)

    for worker_pid in workers["pids"]:
        name_lane(worker_pid, f"repro worker (pid {worker_pid})")
    for dump in workers["dumps"]:
        trace = dump["trace"]
        offset_us = (trace["epoch_unix"] - base_unix) * 1e6
        events.extend(spans_to_chrome(trace["spans"], pid=dump["pid"],
                                      offset_us=offset_us))

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
        "pid": os.getpid(),
        "epoch_unix": TELEMETRY.tracer.epoch_unix,
        "spans": TELEMETRY.tracer.tree(),
        "workers": TELEMETRY.workers.snapshot(),
    }


def write_manifest(path: str | Path | None = None,
                   command: str | None = None,
                   config: dict | None = None,
                   stats: dict | None = None,
                   manifest: dict | None = None,
                   kind: str = "run") -> Path | None:
    """Store a manifest in the run registry, and write it to ``path``.

    Returns the registry's copy, or None when the registry did not
    store it: telemetry is off, the registry lock timed out, or the
    directory is unwritable (counted in ``registry.write_errors``).
    Both copies are replaced atomically, so a killed writer never
    leaves a torn manifest.
    """
    if manifest is None:
        manifest = build_manifest(command=command, config=config,
                                  stats=stats)
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, manifest_bytes(manifest))
    try:
        record = RunRegistry().append(
            summarize_manifest(manifest, kind=kind), manifest=manifest)
    except OSError:
        # An unwritable registry must not fail the run that produced
        # the manifest.
        TELEMETRY.metrics.counter("registry.write_errors").inc()
        return None
    return Path(record["manifest_path"]) if record else None


def load_last_manifest() -> dict | None:
    """The manifest of the newest registry record that has one.

    Records without a stored manifest (per-figure and perf-probe
    records) and copies already pruned are passed over. A stored copy
    that does not parse raises :class:`~repro.errors.ReproError`
    naming the file.
    """
    for record in reversed(RunRegistry().records()):
        path = record.get("manifest_path")
        if not path:
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            continue
        except ValueError as exc:
            raise ReproError(
                f"stored manifest {path} does not parse: {exc}") from None
    return None


def write_chrome_trace(path: str | Path, manifest: dict) -> Path:
    """Write the unified Chrome trace-event JSON of ``manifest``
    (``chrome://tracing``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(build_chrome_trace(manifest), indent=2)
                    + "\n", encoding="utf-8")
    return path
