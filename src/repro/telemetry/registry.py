"""Append-only JSONL time-series of run records (the run registry).

Every telemetry-enabled run appends one *record* — a compact summary of
its manifest: the command, config, wall/host-instruction gauges,
per-category cycle breakdown, and resilience counters — to
``runs.jsonl`` under the registry directory, and stores the manifest
itself beside it, the one copy the run keeps. Records carry a
**monotonic sequence number** assigned under an exclusive file lock, so
"which run is newest" never depends on filesystem mtimes (which tie
under coarse timestamp granularity; see
:func:`repro.telemetry.export.load_last_manifest`).

The registry lives *inside* the disk-cache root by default
(``.repro-cache/telemetry/``) so one directory holds everything a
campaign produced — but ``repro cache gc`` never evicts it: the cache's
collector only walks its ``traces/``/``states/`` kinds, and registry
retention is its own explicit knob (:meth:`RunRegistry.prune`, wired
into ``repro cache gc``).

Layout::

    <registry-dir>/
        runs.jsonl          # one record per line, seq-ordered
        runs.lock           # flock target serializing appenders
        manifest-<seq>.json # the runs' manifests (newest few kept)

Overridable with ``REPRO_REGISTRY_DIR``; falls back to
``.repro-telemetry`` under the working directory when the disk cache is
off. All writes are gated on ``TELEMETRY.enabled`` — disabled telemetry
stays zero-cost.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..durable import Journal, atomic_write
from . import TELEMETRY

#: Bump when the record layout changes incompatibly.
REGISTRY_SCHEMA = 1

REGISTRY_DIR_ENV = "REPRO_REGISTRY_DIR"

RUNS_NAME = "runs.jsonl"
LOCK_NAME = "runs.lock"

#: Manifests kept alongside the JSONL (newest first).
MANIFEST_KEEP = 8

#: Default record cap applied by ``repro cache gc``.
DEFAULT_MAX_RECORDS = 4096

#: Gauge-name prefixes summarized into each record.
_GAUGE_PREFIXES = ("sim.instructions_per_second",
                   "guest.instructions_per_second")

#: Counter-name prefixes summarized into each record.
_COUNTER_PREFIXES = ("resilience.", "cache.", "runner.", "campaign.")


def registry_dir() -> Path:
    """Resolve the registry directory from the environment.

    ``REPRO_REGISTRY_DIR`` wins; otherwise ``<cache-root>/telemetry``;
    with the disk cache off, ``.repro-telemetry``.
    """
    override = os.environ.get(REGISTRY_DIR_ENV)
    if override:
        return Path(override)
    # Imported lazily: experiments.diskcache imports repro.telemetry at
    # module level, so a top-level import here would cycle.
    from ..experiments.diskcache import cache_root
    root = cache_root()
    if root is not None:
        return root / "telemetry"
    return Path(".repro-telemetry")


def manifest_bytes(manifest: dict) -> bytes:
    """A manifest as the JSON document every stored copy holds."""
    return (json.dumps(manifest, indent=2, default=str) + "\n").encode(
        "utf-8")


def summarize_manifest(manifest: dict, kind: str = "run") -> dict:
    """Boil one manifest down to a registry record (no ``seq`` yet)."""
    metrics = manifest.get("metrics", {})
    stats = manifest.get("stats", {}) or {}
    config = manifest.get("config", {}) or {}

    gauges = {}
    counters = {}
    categories = {}
    for name, value in metrics.items():
        base = name.split("{", 1)[0]
        if base in _GAUGE_PREFIXES:
            gauges[name] = value
        elif base.startswith(_COUNTER_PREFIXES):
            counters[name] = value
    for category, cycles in (stats.get("category_cycles") or {}).items():
        categories[category] = cycles

    record = {
        "schema": REGISTRY_SCHEMA,
        "kind": kind,
        "created_unix": manifest.get("created_unix"),
        "command": manifest.get("command"),
        "config": config,
        "resilience": manifest.get("resilience", {}),
        "stats": {key: stats[key] for key in
                  ("wall_seconds", "host_instructions", "cycles")
                  if key in stats},
        "categories": categories,
        "gauges": gauges,
        "counters": counters,
        "workers": (manifest.get("workers") or {}).get("cells", 0),
    }
    return record


class LockTimeout(OSError):
    """The registry lock stayed held past the acquisition budget."""


class RunRegistry:
    """Seq-ordered JSONL store of run records under one directory.

    ``lock_timeout`` bounds how long a writer waits for the exclusive
    lock. The registry serves long-lived daemons (``repro serve``), so
    a wedged appender on another host must not hang every other
    writer forever: acquisition is a non-blocking retry loop, and on
    timeout the write is *dropped* (counted in
    ``registry.lock_timeouts``) rather than blocking the caller.
    """

    def __init__(self, root: str | Path | None = None,
                 lock_timeout: float = 5.0,
                 lock_poll: float = 0.05) -> None:
        self.root = Path(root) if root is not None else registry_dir()
        self.lock_timeout = lock_timeout
        self.lock_poll = lock_poll

    @property
    def runs_path(self) -> Path:
        return self.root / RUNS_NAME

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------

    def _locked(self):
        """Exclusive advisory lock context over the registry.

        Bounded: raises :class:`LockTimeout` (after counting
        ``registry.lock_timeouts``) when the lock cannot be taken
        within ``lock_timeout`` seconds.
        """
        import fcntl
        import time
        from contextlib import contextmanager

        @contextmanager
        def hold():
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.root / LOCK_NAME, "a+") as handle:
                deadline = time.monotonic() + max(self.lock_timeout, 0.0)
                while True:
                    try:
                        fcntl.flock(handle,
                                    fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            TELEMETRY.metrics.counter(
                                "registry.lock_timeouts").inc()
                            raise LockTimeout(
                                f"registry lock {self.root / LOCK_NAME} "
                                f"held past {self.lock_timeout:g}s; "
                                "dropping the write") from None
                        time.sleep(self.lock_poll)
                try:
                    yield
                finally:
                    fcntl.flock(handle, fcntl.LOCK_UN)

        return hold()

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------

    def append(self, record: dict,
               manifest: dict | None = None) -> dict | None:
        """Append one record; returns it with its assigned ``seq``.

        With ``manifest``, the manifest is stored as
        ``manifest-<seq>.json`` (replaced atomically) and the record
        carries its ``manifest_path``. Gated on telemetry being
        enabled: with null sinks installed the registry never touches
        disk (zero-cost guarantee). The sequence number is
        ``max(existing) + 1``, computed and written under the exclusive
        lock, so concurrent appenders (parallel campaigns) cannot
        collide and ordering never consults mtimes.
        """
        if not TELEMETRY.enabled:
            return None
        record = dict(record)
        try:
            with self._locked():
                seq = self._max_seq_unlocked() + 1
                record["seq"] = seq
                if manifest is not None:
                    copy = self.root / f"manifest-{seq}.json"
                    atomic_write(copy, manifest_bytes(manifest))
                    record["manifest_path"] = str(copy)
                    self._prune_manifests_unlocked()
                Journal(self.runs_path).append(record)
        except LockTimeout:
            # A wedged appender elsewhere must not hang this process;
            # one dropped summary record is the cheaper failure.
            return None
        return record

    def _max_seq_unlocked(self) -> int:
        best = 0
        for record in self._read_unlocked():
            seq = record.get("seq", 0)
            if isinstance(seq, int) and seq > best:
                best = seq
        return best

    def _prune_manifests_unlocked(self, keep: int = MANIFEST_KEEP) -> None:
        copies = sorted(self.root.glob("manifest-*.json"),
                        key=self._manifest_seq, reverse=True)
        for path in copies[keep:]:
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _manifest_seq(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def _read_unlocked(self) -> list[dict]:
        """Every committed record (torn tails skipped), by ``seq``."""
        return sorted(Journal(self.runs_path).records(),
                      key=lambda r: r.get("seq", 0))

    def records(self) -> list[dict]:
        """All valid records, ascending by sequence number."""
        return self._read_unlocked()

    def last(self, kind: str | None = None) -> dict | None:
        """The highest-seq record (optionally of one ``kind``)."""
        records = self._read_unlocked()
        if kind is not None:
            records = [r for r in records if r.get("kind") == kind]
        return records[-1] if records else None

    def tail(self, n: int) -> list[dict]:
        return self._read_unlocked()[-n:]

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def prune(self, max_records: int = DEFAULT_MAX_RECORDS) -> int:
        """Drop the oldest records beyond ``max_records``; return count.

        Rewrites the JSONL atomically under the lock. This is the
        registry's *only* retention path — ``repro cache gc`` calls it
        explicitly rather than sweeping the directory by size.
        """
        if not self.runs_path.exists():
            return 0
        try:
            with self._locked():
                records = self._read_unlocked()
                excess = len(records) - max_records
                if excess <= 0:
                    return 0
                Journal(self.runs_path).rewrite(records[excess:])
                return excess
        except LockTimeout:
            return 0

    def usage(self) -> dict:
        """Entry count and byte total (for ``cache usage`` reporting)."""
        entries = bytes_total = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                try:
                    bytes_total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {"root": str(self.root), "entries": entries,
                "bytes": bytes_total,
                "records": len(self._read_unlocked())}
