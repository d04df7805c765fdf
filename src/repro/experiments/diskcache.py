"""Persistent content-addressed cache for guest runs and sim states.

The in-memory cache on :class:`~repro.experiments.runner.
ExperimentRunner` is bounded, so the nursery figure family (Figures
10-17), which revisits the same (workload, nursery) grid across several
machine configurations and across *separate* benchmark invocations,
used to re-interpret every evicted guest. This module stores both
artifact kinds on disk:

``traces/``
    one finished guest run per entry: the instruction trace as a
    compressed columnar ``.rpt`` file (:mod:`repro.host.codec`) plus a
    JSON sidecar with the :class:`~repro.experiments.runner.RunHandle`
    metadata (VM stats, site table, captured output, measured window).

``states/``
    one :class:`~repro.uarch.system.MemorySideState` per entry: service
    level and mispredict arrays in a compressed ``.npz`` (long runs of
    equal levels deflate to well under 0.1 B per instruction),
    cache/branch counters in the sidecar.

``kernels/``
    one compiled C kernel per entry (:mod:`repro.host.kernel_loader`):
    the shared library as a ``.so`` file, and a sidecar holding only
    its checksum and key parameters. A library is loaded, so it runs:
    :meth:`DiskCache.load_kernel` and :meth:`DiskCache.store_kernel`
    use an entry only while ``kernels/`` and the library belong to the
    current user and are writable by no one else.

Entries are content-addressed: the file name is the SHA-256 of the
canonical JSON of every parameter that determines the artifact (run
parameters for traces; run parameters plus the full machine geometry
for states; the kernel's source, flags, compiler and platform for
kernels) salted with :data:`CACHE_SCHEMA`. Anything that would
change the bytes changes the key, so there is no invalidation protocol
beyond "bump the schema when the serialized layout changes" and
"delete the directory when the simulator's behavior changes".

**Durability and self-healing.** Each file is written with
:func:`~repro.durable.atomic_write` (a unique temp name, then a rename;
no fsync: an entry can always be recomputed), the payload is written
*first*, and the JSON sidecar — which carries the payload's SHA-256
(field name ``npz_sha256`` for historical compatibility, whatever the
payload format) — is written *last*: the sidecar is the commit record
for the pair. A SIGKILL at any point therefore leaves either a complete entry
or a payload orphan, which the next load deletes and treats as a miss.
Entries that fail integrity checks on load (unparseable sidecar,
checksum mismatch, truncated/undecodable payload) are *quarantined* —
moved to ``quarantine/`` for post-mortems, never silently retried
forever — counted as ``cache.quarantined``, and recomputed. Stale
``.tmp*`` litter from killed writers is swept by :meth:`sweep_tmp`,
and :meth:`gc` bounds the store's size, evicting least-recently-used
entries (sidecar mtime, refreshed on every hit).

Environment knobs:

``REPRO_CACHE_DIR``
    cache root (default ``.repro-cache`` under the working directory).
``REPRO_CACHE=off``
    disable the disk cache entirely (``0``/``no``/``false`` also work).

Fault injection: when a :class:`~repro.experiments.resilience.
FaultPlan` arms ``cache_corrupt``, the cache deterministically flips
bytes in payloads it just stored so tests can prove the
quarantine-and-recompute path end to end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from ..durable import atomic_write
from ..host import codec as tracecodec
from ..host.trace import InstructionTrace
from ..telemetry import TELEMETRY
from ..uarch.branch import BranchStats
from ..uarch.cache import CacheStats
from ..uarch.system import MemorySideState
from .resilience import FaultPlan

#: Bump when the on-disk layout (or anything it captures) changes shape.
#: 2: sidecars carry the paired payload's SHA-256 (``npz_sha256``).
#: 3: trace payloads use the v2 columnar codec (``.rpt``); sidecars
#:    record the trace ``rows``.
CACHE_SCHEMA = 3

#: Payload extension per artifact kind.
_PAYLOAD_EXT = {"traces": ".rpt", "states": ".npz", "kernels": ".so"}

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_TOGGLE_ENV = "REPRO_CACHE"
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory corrupt entries are moved to (never read back).
QUARANTINE_DIR = "quarantine"

#: ``sweep_tmp`` default: temp files younger than this may belong to a
#: live writer in another process and are left alone.
TMP_MAX_AGE_SECONDS = 3600.0

_OFF_VALUES = frozenset({"off", "0", "no", "false"})

#: MemorySideState array fields stored in the ``.npz`` entry.
_STATE_ARRAYS = ("dlevel", "ilevel", "mispredicted")

_KINDS = tuple(_PAYLOAD_EXT)


def cache_root() -> Path | None:
    """Resolve the cache directory from the environment (None = off)."""
    toggle = os.environ.get(CACHE_TOGGLE_ENV, "").strip().lower()
    if toggle in _OFF_VALUES:
        return None
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def kernel_cache() -> DiskCache | None:
    """The disk cache compiled kernels are kept in (None: build them
    privately). None when the cache is off or its root does not exist:
    building a kernel never creates the cache root."""
    root = cache_root()
    if root is None or not root.is_dir():
        return None
    return DiskCache(root)


def _private(path: Path) -> bool:
    """True when ``path`` is the current user's and no one else may
    write it (what a library must be before it is loaded)."""
    try:
        stat = path.stat()
    except OSError:
        return False
    return stat.st_uid == os.getuid() and not stat.st_mode & 0o022


def content_key(params: dict) -> str:
    """SHA-256 over the canonical JSON of ``params`` plus the schema."""
    payload = json.dumps({"schema": CACHE_SCHEMA, **params},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    """Streaming SHA-256 of one file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class DiskCache:
    """Content-addressed trace/state store rooted at one directory."""

    def __init__(self, root: str | Path | None | object = "auto",
                 fault_plan: FaultPlan | None = None) -> None:
        if root == "auto":
            root = cache_root()
        self.root = Path(root) if root is not None else None
        self.fault_plan = fault_plan if fault_plan is not None \
            else FaultPlan.from_env()
        #: (kind, key) -> stores seen; the injection site includes the
        #: occurrence so a recomputed entry is not re-corrupted forever.
        self._store_counts: dict[tuple[str, str], int] = {}

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _paths(self, kind: str, key: str) -> tuple[Path, Path]:
        """(payload path, sidecar path) of one entry."""
        directory = self.root / kind
        return (directory / f"{key}{_PAYLOAD_EXT[kind]}",
                directory / f"{key}.json")

    # ------------------------------------------------------------------
    # Integrity: orphans, quarantine, verification
    # ------------------------------------------------------------------

    def quarantine(self, kind: str, key: str) -> bool:
        """Move a corrupt entry's files to ``quarantine/``.

        Returns True when at least one file was moved; the entry then
        reads as a clean miss, so it is recomputed (and re-stored) at
        most once rather than tripping every future load.
        """
        if not self.enabled:
            return False
        quarantine = self.root / QUARANTINE_DIR
        moved = False
        for path in self._paths(kind, key):
            if not path.exists():
                continue
            target = quarantine / f"{kind}-{path.name}"
            serial = 0
            while target.exists():
                serial += 1
                target = quarantine / f"{kind}-{path.name}.{serial}"
            try:
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(path, target)
                moved = True
            except OSError:
                # Quarantine dir unwritable: deleting still self-heals.
                try:
                    path.unlink(missing_ok=True)
                    moved = True
                except OSError:
                    pass
        if moved:
            TELEMETRY.metrics.counter("cache.quarantined",
                                      kind=kind).inc()
        return moved

    def _drop_orphan(self, kind: str, path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
            TELEMETRY.metrics.counter("cache.orphans_removed",
                                      kind=kind).inc()
        except OSError:
            pass

    def _load_sidecar(self, kind: str,
                      key: str) -> tuple[dict, Path] | None:
        """Read and validate the commit record; heal what it finds.

        Returns ``(meta, payload_path)`` on a committed entry. No
        sidecar + a payload means a writer died between the two writes:
        the orphan is deleted and the entry is a miss.
        """
        payload, meta_path = self._paths(kind, key)
        if not meta_path.exists():
            if payload.exists():
                self._drop_orphan(kind, payload)
            return None
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError, UnicodeDecodeError):
            self.quarantine(kind, key)
            return None
        if not isinstance(meta, dict):
            self.quarantine(kind, key)
            return None
        if not payload.exists():
            # Sidecar without payload (quarantined file, manual delete).
            self._drop_orphan(kind, meta_path)
            return None
        want = meta.get("npz_sha256")
        if want is None or file_sha256(payload) != want:
            TELEMETRY.metrics.counter("cache.checksum_mismatch",
                                      kind=kind).inc()
            self.quarantine(kind, key)
            return None
        return meta, payload

    def _touch(self, kind: str, key: str) -> None:
        """Refresh the sidecar mtime: :meth:`gc` evicts LRU by it."""
        _, meta_path = self._paths(kind, key)
        try:
            os.utime(meta_path)
        except OSError:
            pass

    def _finish_store(self, kind: str, key: str, payload_path: Path,
                      meta_path: Path, meta: dict) -> None:
        """Commit one entry: checksum the payload, then the sidecar."""
        meta["npz_sha256"] = file_sha256(payload_path)

        # Streamed with json.dump, not built with json.dumps: the
        # pure-Python encoder's allocations trigger the cyclic collector
        # sooner, and a long-lived server's peak RSS, which holds
        # garbage only that collector frees, rose 12% without them.
        def write_sidecar(tmp: Path) -> None:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(meta, handle, separators=(",", ":"))

        atomic_write(meta_path, write_sidecar)
        self._maybe_corrupt(kind, key, payload_path)

    def _maybe_corrupt(self, kind: str, key: str,
                       payload_path: Path) -> None:
        """Injected ``cache_corrupt`` fault: flip bytes post-commit."""
        plan = self.fault_plan
        if not plan or plan.spec("cache_corrupt") is None:
            return
        occurrence = self._store_counts.get((kind, key), 0)
        self._store_counts[(kind, key)] = occurrence + 1
        if not plan.should_fire("cache_corrupt", f"{kind}:{key}",
                                occurrence):
            return
        try:
            size = payload_path.stat().st_size
            with open(payload_path, "r+b") as handle:
                handle.seek(max(0, size // 2))
                handle.write(b"\xde\xad\xbe\xef" * 8)
        except OSError:
            return
        TELEMETRY.metrics.counter("cache.faults_injected",
                                  kind=kind).inc()

    # ------------------------------------------------------------------
    # Guest runs
    # ------------------------------------------------------------------

    def _delete_entry(self, kind: str, key: str) -> None:
        """Remove an entry, sidecar (the commit record) first."""
        for path in reversed(self._paths(kind, key)):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def load_run(self, key: str):
        """Rebuild a RunHandle from disk (None on miss or corruption)."""
        if not self.enabled:
            return None
        from .runner import RunHandle
        loaded = self._load_sidecar("traces", key)
        if loaded is None:
            return None
        meta, payload = loaded
        # Sidecar-only fields (``payload_format`` is in entries written
        # while a second trace format existed).
        for name in ("npz_sha256", "key_params", "payload_format", "rows"):
            meta.pop(name, None)
        try:
            # Reader-backed lazy trace; a decode failure after the
            # checksum passed (a payload stored corrupt, or changed
            # since) still quarantines the entry.
            reader = tracecodec.FrameReader(
                payload, on_corrupt=lambda: self.quarantine("traces", key))
            trace = InstructionTrace._from_reader(reader)
            meta["site_table"] = {name: int(pc) for name, pc
                                  in meta.get("site_table", {}).items()}
            handle = RunHandle(trace=trace, **meta)
        except Exception:
            # Undecodable payload / sidecar shaped wrong for RunHandle:
            # any parse failure means the entry is corrupt, not the
            # caller.
            self.quarantine("traces", key)
            return None
        self._touch("traces", key)
        TELEMETRY.metrics.counter("cache.decode_hits",
                                  kind="traces").inc()
        return handle

    def store_run(self, key: str, handle,
                  key_params: dict | None = None) -> bool:
        """Store one finished run; True when the entry was committed.

        False means :meth:`load_run` cannot give the run back: the cache
        is disabled, or a write failed.
        """
        if not self.enabled:
            return False
        payload_path, meta_path = self._paths("traces", key)
        meta = {
            "rows": len(handle.trace),
            "workload": handle.workload,
            "runtime": handle.runtime,
            "jit": handle.jit,
            "nursery": handle.nursery,
            "site_table": dict(handle.site_table),
            "bytecodes": handle.bytecodes,
            "allocations": handle.allocations,
            "allocated_bytes": handle.allocated_bytes,
            "minor_gcs": handle.minor_gcs,
            "major_gcs": handle.major_gcs,
            "traces_compiled": handle.traces_compiled,
            "deopts": handle.deopts,
            "output": list(handle.output),
            "measure_start": handle.measure_start,
            "warmup_runs": handle.warmup_runs,
            "wall_seconds": handle.wall_seconds,
            "host_instructions": handle.host_instructions,
        }
        if key_params is not None:
            # Recorded so ``repro cache verify`` can recompute the key
            # from first principles and assert key/content agreement
            # across the hosts sharing this cache.
            meta["key_params"] = key_params
        try:
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(payload_path, handle.trace.save)
            self._finish_store("traces", key, payload_path, meta_path,
                               meta)
            TELEMETRY.metrics.counter("cache.encode_bytes",
                                      kind="traces").inc(
                payload_path.stat().st_size)
        except OSError:
            # A full/readonly disk must not kill the run that computed
            # the artifact; the entry simply stays a miss.
            TELEMETRY.metrics.counter("cache.write_errors",
                                      kind="traces").inc()
            return False
        return True

    # ------------------------------------------------------------------
    # Memory-side states
    # ------------------------------------------------------------------

    def load_state(self, key: str) -> MemorySideState | None:
        if not self.enabled:
            return None
        loaded = self._load_sidecar("states", key)
        if loaded is None:
            return None
        meta, npz_path = loaded
        try:
            with np.load(npz_path) as data:
                arrays = {name: data[name] for name in _STATE_ARRAYS}
            cache_stats = {name: CacheStats(**counts)
                           for name, counts in meta["cache_stats"].items()}
            state = MemorySideState(
                dlevel=arrays["dlevel"],
                ilevel=arrays["ilevel"],
                cache_stats=cache_stats,
                mem_lines=meta["mem_lines"],
                mispredicted=arrays["mispredicted"],
                branch_stats=BranchStats(**meta["branch_stats"]))
        except Exception:
            # Same contract as load_run: parse failure == corruption.
            self.quarantine("states", key)
            return None
        self._touch("states", key)
        TELEMETRY.metrics.counter("cache.decode_hits",
                                  kind="states").inc()
        return state

    def store_state(self, key: str, state: MemorySideState,
                    key_params: dict | None = None) -> None:
        if not self.enabled:
            return
        npz_path, meta_path = self._paths("states", key)
        meta = {
            "mem_lines": state.mem_lines,
            "cache_stats": {name: dataclasses.asdict(stats)
                            for name, stats in state.cache_stats.items()},
            "branch_stats": dataclasses.asdict(state.branch_stats),
        }
        if key_params is not None:
            meta["key_params"] = key_params

        def writer(tmp: Path) -> None:
            with open(tmp, "wb") as handle:
                np.savez_compressed(handle, dlevel=state.dlevel,
                                    ilevel=state.ilevel,
                                    mispredicted=state.mispredicted)

        try:
            npz_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(npz_path, writer)
            self._finish_store("states", key, npz_path, meta_path, meta)
        except OSError:
            TELEMETRY.metrics.counter("cache.write_errors",
                                      kind="states").inc()

    # ------------------------------------------------------------------
    # Compiled kernels
    # ------------------------------------------------------------------

    def load_kernel(self, key: str) -> Path | None:
        """The library of a committed kernel entry, checksum verified
        (None on a miss, on corruption, or when it is not private)."""
        if not self.enabled:
            return None
        payload, _ = self._paths("kernels", key)
        if not (_private(payload.parent) and _private(payload)):
            return None
        loaded = self._load_sidecar("kernels", key)
        if loaded is None:
            return None
        self._touch("kernels", key)
        return loaded[1]

    def store_kernel(self, key: str, library: Path,
                     key_params: dict) -> None:
        """Commit a built library; skipped when ``kernels/`` is not
        private. Never creates the cache root."""
        if not self.enabled:
            return
        payload_path, meta_path = self._paths("kernels", key)

        def writer(tmp: Path) -> None:
            # Mode 0o644, which a umask can only narrow: the entry stays
            # private.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            with os.fdopen(fd, "wb") as handle:
                handle.write(library.read_bytes())

        try:
            payload_path.parent.mkdir(mode=0o755, exist_ok=True)
            if not _private(payload_path.parent):
                return
            atomic_write(payload_path, writer)
            self._finish_store("kernels", key, payload_path, meta_path,
                               {"key_params": key_params})
        except OSError:
            TELEMETRY.metrics.counter("cache.write_errors",
                                      kind="kernels").inc()

    # ------------------------------------------------------------------
    # Maintenance: tmp sweeping, size-bounded gc, usage
    # ------------------------------------------------------------------

    def sweep_tmp(self, max_age: float = TMP_MAX_AGE_SECONDS) -> int:
        """Delete ``.tmp*`` litter older than ``max_age`` seconds.

        A writer killed between creating its temp file and the rename
        leaves one behind; anything older than ``max_age`` cannot
        belong to a live writer.
        """
        if not self.enabled:
            return 0
        removed = 0
        now = time.time()
        for kind in _KINDS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in directory.glob("*.tmp*"):
                try:
                    if now - path.stat().st_mtime >= max_age:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue
        if removed:
            TELEMETRY.metrics.counter("cache.tmp_swept").inc(removed)
        return removed

    def _entries(self):
        """All committed pairs: (mtime, bytes, kind, key) per entry.

        Orphans discovered along the way are deleted on the spot: a
        sidecar without its payload, and any other file (temp names
        aside) that is not half of a committed pair, such as a payload
        whose sidecar never landed or one in a format no longer read.
        """
        entries = []
        for kind in _KINDS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            paired = set()
            for meta_path in sorted(directory.glob("*.json")):
                payload_path = meta_path.with_suffix(_PAYLOAD_EXT[kind])
                paired.add(payload_path.name)
                try:
                    size = meta_path.stat().st_size \
                        + payload_path.stat().st_size
                    mtime = meta_path.stat().st_mtime
                except FileNotFoundError:
                    self._drop_orphan(kind, meta_path)
                    continue
                except OSError:
                    continue
                entries.append((mtime, size, kind, meta_path.stem))
            for path in directory.iterdir():
                if path.suffix != ".json" and ".tmp" not in path.name \
                        and path.name not in paired:
                    self._drop_orphan(kind, path)
        return entries

    def verify_entries(self, sample: int | None = None) -> dict:
        """Cross-host determinism audit: re-derive keys and checksums.

        For each committed entry (or a deterministic every-N-th sample
        of them), recompute the payload SHA-256 against the sidecar's
        ``npz_sha256``, and — for entries whose sidecar recorded its
        ``key_params`` — recompute :func:`content_key` from those
        parameters and assert it matches the file name. A cache shared
        over NFS by several hosts passes only when every host derives
        identical keys for identical content, which is exactly the
        FNV-1a stable-hashing guarantee this audit gates.

        Corrupt entries found along the way are quarantined (same
        contract as a load). Returns ``{"checked", "ok",
        "checksum_mismatches", "key_mismatches", "unkeyed",
        "skipped"}`` — ``unkeyed`` counts healthy entries from before
        sidecars carried ``key_params``; ``key_mismatches`` counts
        genuine disagreements, which are quarantined too.
        """
        stats = {"checked": 0, "ok": 0, "checksum_mismatches": 0,
                 "key_mismatches": 0, "unkeyed": 0, "skipped": 0}
        if not self.enabled:
            return stats
        entries = sorted((kind, key) for _, _, kind, key
                         in self._entries())
        if sample is not None and sample > 0 \
                and len(entries) > sample:
            stride = len(entries) / sample
            picked = [entries[int(i * stride)] for i in range(sample)]
            stats["skipped"] = len(entries) - len(picked)
            entries = picked
        for kind, key in entries:
            stats["checked"] += 1
            payload_path, meta_path = self._paths(kind, key)
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
                actual = file_sha256(payload_path)
            except (OSError, ValueError, UnicodeDecodeError):
                stats["checksum_mismatches"] += 1
                self.quarantine(kind, key)
                continue
            if not isinstance(meta, dict) \
                    or meta.get("npz_sha256") != actual:
                stats["checksum_mismatches"] += 1
                TELEMETRY.metrics.counter("cache.checksum_mismatch",
                                          kind=kind).inc()
                self.quarantine(kind, key)
                continue
            key_params = meta.get("key_params")
            if not isinstance(key_params, dict):
                stats["unkeyed"] += 1
                stats["ok"] += 1
                continue
            if content_key(key_params) != key:
                stats["key_mismatches"] += 1
                TELEMETRY.metrics.counter("cache.key_mismatch",
                                          kind=kind).inc()
                self.quarantine(kind, key)
                continue
            stats["ok"] += 1
        TELEMETRY.metrics.counter("cache.verified").inc(
            stats["checked"])
        return stats

    def gc(self, max_bytes: int) -> dict:
        """Bound the store to ``max_bytes``, evicting LRU entries.

        Also sweeps all ``.tmp*`` litter and deletes orphans. Returns a
        stats dict (``evicted``, ``bytes_freed``, ``kept_entries``,
        ``kept_bytes``, ``tmp_removed``, and the ``queue_*`` sweep
        counts).

        Size-based LRU covers the artifact kinds (``traces/``,
        ``states/``, ``kernels/``). The run registry under
        ``telemetry/`` is never evicted by size — its retention is
        record-count based and explicit
        (:meth:`repro.telemetry.registry.RunRegistry.prune`, invoked by
        ``repro cache gc``).
        """
        stats = {"evicted": 0, "bytes_freed": 0, "kept_entries": 0,
                 "kept_bytes": 0, "tmp_removed": 0,
                 "queue_campaigns_removed": 0,
                 "queue_leases_reclaimed": 0,
                 "queue_heartbeats_removed": 0}
        if not self.enabled:
            return stats
        stats["tmp_removed"] = self.sweep_tmp(max_age=0.0)
        from .queue import sweep_queues
        queue_stats = sweep_queues(self.root)
        stats["queue_campaigns_removed"] = \
            queue_stats["campaigns_removed"]
        stats["queue_leases_reclaimed"] = \
            queue_stats["leases_reclaimed"]
        stats["queue_heartbeats_removed"] = \
            queue_stats["heartbeats_removed"]
        entries = self._entries()
        total = sum(size for _, size, _, _ in entries)
        entries.sort()  # oldest sidecar mtime first
        for mtime, size, kind, key in entries:
            if total <= max_bytes:
                stats["kept_entries"] += 1
                continue
            # Sidecar (the commit record) goes first: a crash
            # mid-eviction leaves an orphan payload, not a
            # valid-looking sidecar pointing at nothing.
            self._delete_entry(kind, key)
            total -= size
            stats["evicted"] += 1
            stats["bytes_freed"] += size
        stats["kept_bytes"] = total
        if stats["evicted"]:
            TELEMETRY.metrics.counter("cache.gc_evicted").inc(
                stats["evicted"])
        return stats

    def usage(self) -> dict:
        """Entry counts and byte totals per kind, plus quarantine."""
        usage = {"root": str(self.root) if self.enabled else None,
                 "entries": 0, "bytes": 0, "quarantined_files": 0}
        if not self.enabled:
            return usage
        for kind in _KINDS:
            count = size = 0
            payload_bytes = rows = 0
            directory = self.root / kind
            if directory.is_dir():
                for meta_path in directory.glob("*.json"):
                    try:
                        pbytes = meta_path.with_suffix(
                            _PAYLOAD_EXT[kind]).stat().st_size
                        size += meta_path.stat().st_size + pbytes
                    except OSError:
                        continue
                    count += 1
                    if kind != "traces":
                        continue
                    payload_bytes += pbytes
                    try:
                        meta = json.loads(
                            meta_path.read_text(encoding="utf-8"))
                        rows += int(meta.get("rows", 0))
                    except (OSError, ValueError, TypeError):
                        pass
            usage[kind] = {"entries": count, "bytes": size}
            if kind == "traces":
                # Codec footprint: payload bytes per traced
                # instruction, and the shrink vs the canonical 35 B/row
                # columnar layout the consumers decode into.
                usage[kind]["payload_bytes"] = payload_bytes
                usage[kind]["rows"] = rows
                if payload_bytes and rows:
                    usage[kind]["bytes_per_instruction"] = \
                        payload_bytes / rows
                    usage[kind]["compression_ratio"] = \
                        rows * tracecodec.RAW_ROW_BYTES / payload_bytes
            usage["entries"] += count
            usage["bytes"] += size
        from .queue import queue_usage
        usage["queue"] = queue_usage(self.root)
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            usage["quarantined_files"] = sum(
                1 for _ in quarantine.iterdir())
        telemetry_dir = self.root / "telemetry"
        if telemetry_dir.is_dir():
            entries = bytes_total = 0
            for path in telemetry_dir.iterdir():
                try:
                    bytes_total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            usage["telemetry"] = {"entries": entries,
                                  "bytes": bytes_total}
        return usage
