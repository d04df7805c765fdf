"""Crash-safe distributed campaign fabric: a lease-based work queue.

The figure campaigns are embarrassingly parallel, but
:func:`~repro.experiments.parallel.fan_out` dies with its single host
process. This module turns a campaign into *claimable cells* in a
file-based queue living under ``<cache-root>/queue/<campaign-id>/`` so
that any number of peer workers — started at any time, on any host
sharing the cache directory — cooperatively finish it, and none of them
(including the coordinator) is a single point of failure.

Layout of one campaign directory::

    <cache-root>/queue/<campaign-id>/
        manifest.json        # campaign commit record (state, cache root)
        pending/<cell>.json  # published cells waiting for a claimer
        leased/<cell>.json   # cells somebody claimed (the cell spec)
        reclaiming/<cell>.*  # private staging during a reclaim
        done/<cell>.json     # completion markers
        poison/<cell>.json   # cells that burned every reclaim generation
        leases/<cell>.json   # lease metadata (worker, pid, generation)
        heartbeats/<w>.json  # fsynced per-worker liveness files
        results.journal      # append-only JSONL of completed results

Every state transition is an ``os.rename`` of the cell file between
those directories, so exactly one mover wins even on shared
filesystems, and a SIGKILL at any point leaves the cell in a
well-defined state:

* **claim** — rename ``pending/X`` → ``leased/X``; the winner then
  writes fsynced lease metadata. Losers get ``FileNotFoundError`` and
  move on.
* **heartbeat** — each worker renews its own ``heartbeats/<w>.json``
  (atomic replace + fsync) and *touches the lease file of every cell it
  is executing* on the same cadence. A lease is live while its file
  mtime is younger than the TTL; long cells stay safe because their
  leases keep getting touched.
* **reclaim** — anyone who finds an expired lease renames ``leased/X``
  to a private ``reclaiming/`` name (single winner), bumps the cell's
  reclaim ``generation``, and either republishes it to ``pending/`` or
  — once ``max_generations`` is exhausted — quarantines it to
  ``poison/`` so a cell that kills every claimer cannot stall the
  campaign forever. Reclaimers that die mid-move are themselves healed:
  stale ``reclaiming/`` entries are swept back to ``pending/``.
* **complete** — the worker appends the pickled result to the fsynced
  ``results.journal`` *first* (the journal is the commit record; torn
  final lines are skipped on read) and then renames ``leased/X`` →
  ``done/X``. A cell reclaimed out from under a slow-but-alive worker
  may therefore complete twice; execution goes through the
  content-addressed disk cache, so at-least-once still yields
  byte-identical results and the journal's first record per cell wins.

The coordinator side (:class:`QueueExecutor`) plugs in behind the same
``fan_out`` signature the process pool uses: it publishes one cell per
``(fn, args)`` item, waits on the journal, sweeps expired leases while
it waits, and — when no live worker heartbeat has been seen for a grace
period — degrades to the existing in-process supervised fan-out so a
campaign with no fleet behaves exactly like today's ``--jobs`` runs.
A coordinator that crashes resumes from the same queue directory: the
campaign id is a pure function of the work, published cells with
journal records are simply not re-executed.

Chaos-testability: :data:`~repro.experiments.resilience.FAULTS_ENV`
gains three queue fault kinds. ``worker_exit`` makes a worker
``os._exit`` right after claiming (dead-worker reclaim path),
``lease_stall`` makes it silently abandon a claimed cell without
heartbeating it (hung-worker reclaim path, process still alive), and
``heartbeat_stop`` freezes all of a worker's renewals while it keeps
executing (duplicate-completion path). All decisions are the pure
``(seed, kind, site, attempt)`` hash of the existing harness, with the
cell's reclaim generation as the attempt, so a retried cell makes
progress.
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import json
import os
import pickle
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..durable import Journal, atomic_write
from ..errors import ExperimentError
from ..telemetry import TELEMETRY
from .resilience import FaultPlan

#: Bump when the on-disk queue layout changes incompatibly.
QUEUE_SCHEMA = 1

#: Lease/heartbeat time-to-live in seconds a new campaign records in
#: its manifest; every worker that joins the campaign enforces it.
DEFAULT_TTL = 30.0

#: Coordinator grace period before degrading to in-process fan-out
#: (``--grace-seconds`` overrides it).
DEFAULT_GRACE = 20.0

#: Reclaim generations per cell before it is poisoned.
DEFAULT_MAX_GENERATIONS = 3

#: Campaign directories with no write activity for this long are dead
#: (their coordinator and workers are gone) and swept by ``cache gc``.
CAMPAIGN_MAX_AGE_SECONDS = 24 * 3600.0

_PENDING = "pending"
_LEASED = "leased"
_RECLAIMING = "reclaiming"
_DONE = "done"
_POISON = "poison"
_LEASES = "leases"
_HEARTBEATS = "heartbeats"
_CELL_DIRS = (_PENDING, _LEASED, _RECLAIMING, _DONE, _POISON)

JOURNAL_NAME = "results.journal"
MANIFEST_NAME = "manifest.json"


def queue_root() -> Path | None:
    """Queue base directory: ``<cache-root>/queue`` (None = cache off)."""
    from .diskcache import cache_root
    root = cache_root()
    if root is None:
        return None
    return root / "queue"


def campaign_id(names, quick: bool) -> str:
    """Deterministic campaign identity: a resumed coordinator (or a
    worker started before it) lands on the same queue directory."""
    payload = json.dumps({"names": sorted(names), "quick": quick},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _write_json_sync(path: Path, payload: dict) -> None:
    """Atomic-replace JSON write, fsynced: survives SIGKILL mid-write."""
    atomic_write(path, json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8"),
                 fsync=True)


def _read_json(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _mtime_age(path: Path, now: float | None = None) -> float | None:
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return None
    return (now if now is not None else time.time()) - mtime


def seeded_jitter(token: str, purpose: str, low: float,
                  high: float) -> float:
    """Deterministic per-worker jitter factor in ``[low, high)``.

    Many workers sharing one cache directory must not synchronize
    their heartbeat fsyncs and idle polls (a thundering herd on NFS);
    hashing the worker id keeps the spread reproducible, so faulted
    chaos runs stay deterministic.
    """
    digest = hashlib.sha256(
        f"{purpose}|{token}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return low + (high - low) * unit


def encode_args(args: tuple) -> str:
    return base64.b64encode(
        pickle.dumps(tuple(args), protocol=4)).decode("ascii")


def decode_args(text: str) -> tuple:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def encode_result(value) -> str:
    return base64.b64encode(
        pickle.dumps(value, protocol=4)).decode("ascii")


def decode_result(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def fn_spec(fn) -> str:
    """``module:qualname`` of a module-level cell function."""
    return f"{fn.__module__}:{fn.__qualname__}"


def resolve_fn(spec: str):
    """Inverse of :func:`fn_spec` (workers import the coordinator's
    cell functions by name; both sides run the same codebase)."""
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname or "." in qualname:
        raise ExperimentError(f"bad cell function spec {spec!r}")
    module = importlib.import_module(module_name)
    fn = getattr(module, qualname, None)
    if fn is None or not callable(fn):
        raise ExperimentError(
            f"cell function {spec!r} does not resolve to a callable")
    return fn


def make_cell(fn, args: tuple, runner_params: dict) -> dict:
    """One claimable cell record. The id is a pure hash of the work, so
    a resumed coordinator republishes identical ids and cells already
    journaled are recognized instead of re-executed."""
    spec = fn_spec(fn)
    encoded = encode_args(args)
    digest = hashlib.sha256()
    digest.update(spec.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(encoded.encode("ascii"))
    digest.update(b"\x00")
    digest.update(json.dumps(runner_params, sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))
    return {
        "schema": QUEUE_SCHEMA,
        "cell": digest.hexdigest()[:24],
        "fn": spec,
        "args": encoded,
        "runner": dict(runner_params),
        "generation": 0,
    }


@dataclass
class Claim:
    """A successfully claimed cell: spec plus the lease we now hold."""

    cell: dict
    lease_path: Path
    leased_path: Path

    @property
    def cell_id(self) -> str:
        return self.cell["cell"]

    @property
    def generation(self) -> int:
        return int(self.cell.get("generation", 0))


class WorkQueue:
    """One campaign's queue directory: publish, claim, complete, heal."""

    def __init__(self, directory: str | Path, ttl: float | None = None,
                 max_generations: int | None = None) -> None:
        self.directory = Path(directory)
        self.campaign = self.directory.name
        # Policy resolution: explicit argument > the manifest the
        # coordinator committed > default. Workers opening an existing
        # campaign therefore enforce the coordinator's TTL and reclaim
        # budget.
        manifest = _read_json(self.manifest_path) or {}
        if ttl is None:
            ttl = manifest.get("ttl")
        self.ttl = float(ttl) if ttl is not None else DEFAULT_TTL
        if max_generations is None:
            max_generations = manifest.get("max_generations")
        self.max_generations = int(max_generations) \
            if max_generations is not None else DEFAULT_MAX_GENERATIONS
        self._journal = Journal(self.journal_path)

    # -- paths ---------------------------------------------------------

    def _dir(self, name: str) -> Path:
        return self.directory / name

    def _cell_path(self, state: str, cell_id: str) -> Path:
        return self._dir(state) / f"{cell_id}.json"

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # -- lifecycle -----------------------------------------------------

    def ensure(self, extra: dict | None = None) -> "WorkQueue":
        """Create the directory skeleton + manifest if absent (opening
        an existing campaign directory is how a coordinator resumes)."""
        for name in _CELL_DIRS + (_LEASES, _HEARTBEATS):
            self._dir(name).mkdir(parents=True, exist_ok=True)
        if not self.manifest_path.exists():
            manifest = {
                "schema": QUEUE_SCHEMA,
                "campaign": self.campaign,
                "state": "active",
                "created_unix": time.time(),
                "coordinator_pid": os.getpid(),
                "coordinator_host": socket.gethostname(),
                "ttl": self.ttl,
                "max_generations": self.max_generations,
            }
            manifest.update(extra or {})
            _write_json_sync(self.manifest_path, manifest)
        return self

    def manifest(self) -> dict | None:
        return _read_json(self.manifest_path)

    @property
    def exists(self) -> bool:
        return self.manifest_path.exists()

    def is_active(self) -> bool:
        manifest = self.manifest()
        return bool(manifest) and manifest.get("state") == "active"

    def close(self, state: str = "complete") -> None:
        """Mark the campaign finished; ``cache gc`` sweeps it later."""
        manifest = self.manifest() or {"schema": QUEUE_SCHEMA,
                                       "campaign": self.campaign}
        manifest["state"] = state
        manifest["closed_unix"] = time.time()
        _write_json_sync(self.manifest_path, manifest)

    def cache_root(self) -> Path:
        """Disk-cache root the campaign's artifacts live in.

        Recorded in the manifest by the coordinator; the directory
        layout (``<cache-root>/queue/<campaign>``) is the fallback so a
        hand-built queue still points somewhere sensible.
        """
        manifest = self.manifest() or {}
        recorded = manifest.get("cache_dir")
        if recorded:
            return Path(recorded)
        return self.directory.parent.parent

    # -- publishing ----------------------------------------------------

    def publish(self, cells) -> int:
        """Enqueue cells that are not already somewhere in the queue.

        Returns how many were actually published. A cell whose id
        already has a journal record, a state file, or a poison marker
        is skipped — that is what makes coordinator resume idempotent.
        """
        journal = self.results()
        published = 0
        for cell in cells:
            cell_id = cell["cell"]
            if cell_id in journal:
                continue
            if any(self._cell_path(state, cell_id).exists()
                   for state in _CELL_DIRS):
                continue
            _write_json_sync(self._cell_path(_PENDING, cell_id), cell)
            published += 1
        if published:
            TELEMETRY.metrics.counter("queue.published").inc(published)
        return published

    # -- worker side ---------------------------------------------------

    def register_worker(self, worker_id: str) -> None:
        self._dir(_HEARTBEATS).mkdir(parents=True, exist_ok=True)
        self.heartbeat(worker_id)

    def heartbeat(self, worker_id: str,
                  held: tuple[Path, ...] = ()) -> None:
        """Renew one worker's liveness file and touch its held leases."""
        _write_json_sync(self._dir(_HEARTBEATS) / f"{worker_id}.json", {
            "schema": QUEUE_SCHEMA,
            "worker": worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "time_unix": time.time(),
        })
        for leased_path in held:
            try:
                os.utime(leased_path)
            except OSError:
                pass

    def claim(self, worker_id: str) -> Claim | None:
        """Claim one pending cell (None when nothing is claimable).

        The rename is the atomic claim; the lease metadata written
        after it only serves observers (status, reclaimers logging who
        died). A cell that already has a done marker — its previous
        claimer completed after being reclaimed — is settled instead of
        re-executed.
        """
        pending = self._dir(_PENDING)
        try:
            names = sorted(p.name for p in pending.glob("*.json"))
        except OSError:
            return None
        for name in names:
            source = pending / name
            target = self._dir(_LEASED) / name
            try:
                os.rename(source, target)
            except OSError:
                continue  # somebody else won this cell
            cell = _read_json(target)
            if cell is None:
                # Unparseable spec: nobody can ever run it.
                self._poison_file(target, reason="unreadable cell spec")
                continue
            cell_id = cell["cell"]
            if self._cell_path(_DONE, cell_id).exists():
                target.unlink(missing_ok=True)
                continue
            lease_path = self._dir(_LEASES) / f"{cell_id}.json"
            _write_json_sync(lease_path, {
                "schema": QUEUE_SCHEMA,
                "cell": cell_id,
                "worker": worker_id,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "generation": cell.get("generation", 0),
                "acquired_unix": time.time(),
            })
            try:
                os.utime(target)  # lease clock starts at the claim
            except OSError:
                pass
            TELEMETRY.metrics.counter("queue.claimed").inc()
            return Claim(cell=cell, lease_path=lease_path,
                         leased_path=target)
        return None

    def complete(self, claim: Claim, result, worker_id: str,
                 wall_seconds: float = 0.0) -> None:
        """Commit one result: journal first, then the done marker.

        The journal append is the commit record — a crash between the
        two leaves a journaled result plus a reclaimable lease, which
        at worst re-executes an idempotent cell.
        """
        self.append_result({
            "schema": QUEUE_SCHEMA,
            "cell": claim.cell_id,
            "worker": worker_id,
            "pid": os.getpid(),
            "generation": claim.generation,
            "wall_seconds": round(wall_seconds, 3),
            "completed_unix": time.time(),
            "result": encode_result(result),
        })
        done = self._cell_path(_DONE, claim.cell_id)
        try:
            os.rename(claim.leased_path, done)
        except OSError:
            # The cell was reclaimed while we executed; whoever holds
            # it now (or the coordinator) will settle the marker. Our
            # journal record already landed, which is what counts.
            pass
        claim.lease_path.unlink(missing_ok=True)
        TELEMETRY.metrics.counter("queue.completed").inc()

    def abandon(self, claim: Claim) -> None:
        """Walk away from a claim without completing it (the lease goes
        stale and reclamation takes over) — the ``lease_stall`` fault."""
        TELEMETRY.metrics.counter("queue.abandoned").inc()

    # -- results journal -----------------------------------------------

    def append_result(self, record: dict) -> None:
        self._journal.append(record)

    def results(self) -> dict[str, dict]:
        """Journal records by cell id (first completion wins).

        The coordinator polls this, so each call parses only the newly
        appended records; a torn tail from a crash mid-append is
        skipped, and reclamation re-executes its cell.
        """
        records: dict[str, dict] = {}
        for record in self._journal.records():
            cell_id = record.get("cell")
            if isinstance(cell_id, str):
                records.setdefault(cell_id, record)
        return records

    def settle(self, cell_ids) -> int:
        """Move journaled-but-unmarked cells to ``done/``.

        Covers the worker that completed a cell *after* losing its
        lease: the journal has the result but the cell file sits in
        ``pending/`` (or ``leased/``) where it would be claimed again.
        """
        settled = 0
        for cell_id in cell_ids:
            done = self._cell_path(_DONE, cell_id)
            if done.exists():
                continue
            for state in (_PENDING, _LEASED):
                try:
                    os.rename(self._cell_path(state, cell_id), done)
                except OSError:
                    continue
                settled += 1
                break
        return settled

    # -- liveness + reclamation ----------------------------------------

    def live_workers(self, now: float | None = None) -> dict[str, float]:
        """worker id -> heartbeat age (seconds), fresh ones only."""
        now = now if now is not None else time.time()
        workers: dict[str, float] = {}
        directory = self._dir(_HEARTBEATS)
        if not directory.is_dir():
            return workers
        for path in directory.glob("*.json"):
            age = _mtime_age(path, now)
            # Symmetric window: a slightly-ahead clock still counts as
            # live, but a far-future heartbeat (> one TTL ahead) is as
            # untrustworthy as a stale one — it must not read as "live
            # forever".
            if age is not None and -self.ttl < age < self.ttl:
                workers[path.stem] = age
        return workers

    def worker_ages(self) -> dict[str, float]:
        """Every registered worker's heartbeat age (stale ones too)."""
        ages: dict[str, float] = {}
        directory = self._dir(_HEARTBEATS)
        if not directory.is_dir():
            return ages
        now = time.time()
        for path in directory.glob("*.json"):
            age = _mtime_age(path, now)
            if age is not None:
                ages[path.stem] = age
        return ages

    def _lease_stale(self, path: Path, now: float) -> bool:
        """Clock-skew-tolerant staleness test on a lease/staging file.

        A *near*-future mtime (less than one TTL ahead) is ordinary
        skew between hosts sharing the cache — the lease is honored so
        a live worker is not robbed early. A *far*-future mtime is as
        untrustworthy as an expired one and is reclaimed immediately:
        without that, a skewed writer's lease would never expire and a
        dead worker could wedge the campaign forever.
        """
        age = _mtime_age(path, now)
        if age is None:
            return False
        return age >= self.ttl or age <= -self.ttl

    def _poison_file(self, source: Path, reason: str,
                     cell: dict | None = None) -> None:
        cell = cell or _read_json(source) or {}
        cell_id = cell.get("cell", source.stem)
        record = dict(cell)
        record["poisoned_unix"] = time.time()
        record["reason"] = reason
        _write_json_sync(self._cell_path(_POISON, str(cell_id)), record)
        source.unlink(missing_ok=True)
        self._dir(_LEASES).joinpath(f"{cell_id}.json").unlink(
            missing_ok=True)
        TELEMETRY.metrics.counter("queue.poisoned").inc()

    def reclaim_expired(self, now: float | None = None) -> dict:
        """Recover cells whose leases went stale; heal stuck reclaims.

        Returns ``{"reclaimed", "poisoned", "healed"}``. Safe to call
        from any process at any time: every transition is a
        single-winner rename.
        """
        stats = {"reclaimed": 0, "poisoned": 0, "healed": 0}
        now = now if now is not None else time.time()
        leased = self._dir(_LEASED)
        if leased.is_dir():
            for path in sorted(leased.glob("*.json")):
                if not self._lease_stale(path, now):
                    continue
                self._reclaim_one(path, stats)
        # A reclaimer killed mid-move leaves the cell in reclaiming/;
        # anything older than a TTL there cannot have a live mover.
        reclaiming = self._dir(_RECLAIMING)
        if reclaiming.is_dir():
            for path in sorted(reclaiming.iterdir()):
                if not self._lease_stale(path, now):
                    continue
                cell = _read_json(path)
                if cell is None:
                    path.unlink(missing_ok=True)
                    continue
                try:
                    os.rename(path,
                              self._cell_path(_PENDING, cell["cell"]))
                    stats["healed"] += 1
                except OSError:
                    continue
        if stats["reclaimed"]:
            TELEMETRY.metrics.counter("queue.reclaimed").inc(
                stats["reclaimed"])
        return stats

    def _reclaim_one(self, leased_path: Path, stats: dict) -> None:
        staging = self._dir(_RECLAIMING) / (
            f"{leased_path.stem}.{os.getpid()}")
        try:
            os.rename(leased_path, staging)
        except OSError:
            return  # another reclaimer (or the owner finishing) won
        cell = _read_json(staging)
        if cell is None:
            self._poison_file(staging, reason="unreadable cell spec")
            stats["poisoned"] += 1
            return
        lease = _read_json(
            self._dir(_LEASES) / f"{cell['cell']}.json") or {}
        if self._cell_path(_DONE, cell["cell"]).exists():
            # Completed by a worker that lost the rename race.
            staging.unlink(missing_ok=True)
            return
        cell["generation"] = int(cell.get("generation", 0)) + 1
        history = cell.setdefault("reclaim_history", [])
        history.append({
            "worker": lease.get("worker"),
            "generation": cell["generation"] - 1,
            "reclaimed_unix": time.time(),
        })
        if cell["generation"] > self.max_generations:
            self._poison_file(staging, cell=cell,
                              reason=f"exhausted {self.max_generations} "
                                     "reclaim generations")
            stats["poisoned"] += 1
            return
        _write_json_sync(staging, cell)
        try:
            os.rename(staging, self._cell_path(_PENDING, cell["cell"]))
        except OSError:
            return
        self._dir(_LEASES).joinpath(f"{cell['cell']}.json").unlink(
            missing_ok=True)
        stats["reclaimed"] += 1

    def sweep_heartbeats(self, max_age: float | None = None) -> int:
        """Delete heartbeat files of workers gone for ``max_age``
        (default: 4 TTLs) — dead workers stop cluttering status."""
        if max_age is None:
            max_age = 4 * self.ttl
        removed = 0
        directory = self._dir(_HEARTBEATS)
        if not directory.is_dir():
            return 0
        now = time.time()
        for path in directory.glob("*.json"):
            age = _mtime_age(path, now)
            if age is not None and age >= max_age:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    # -- introspection -------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {}
        for state in _CELL_DIRS:
            directory = self._dir(state)
            out[state] = sum(1 for _ in directory.glob("*.json")) \
                if directory.is_dir() else 0
        return out

    def poisoned(self) -> dict[str, dict]:
        """Poison records by cell id (reason + reclaim history)."""
        out = {}
        directory = self._dir(_POISON)
        if not directory.is_dir():
            return out
        for path in directory.glob("*.json"):
            record = _read_json(path)
            if record is not None:
                out[path.stem] = record
        return out

    def total_reclaims(self) -> int:
        """Cumulative reclaim generations across every cell file."""
        total = 0
        for state in _CELL_DIRS:
            directory = self._dir(state)
            if not directory.is_dir():
                continue
            for path in directory.glob("*.json"):
                cell = _read_json(path)
                if cell:
                    total += int(cell.get("generation", 0))
        return total


# ----------------------------------------------------------------------
# Coordinator: the fan_out-shaped executor
# ----------------------------------------------------------------------

class QueueExecutor:
    """Distributed executor plugged in behind ``fan_out``.

    One instance serves a whole campaign (every figure's fan-outs reuse
    it); :meth:`run` publishes one cell per item, polls the results
    journal, sweeps expired leases while waiting, and degrades to the
    ordinary in-process supervised fan-out when no worker heartbeat has
    been fresh for ``grace_seconds``.
    """

    def __init__(self, queue: WorkQueue,
                 grace_seconds: float | None = None,
                 poll_seconds: float = 0.25,
                 local_jobs: int | None = None) -> None:
        self.queue = queue
        self.grace_seconds = grace_seconds if grace_seconds is not None \
            else DEFAULT_GRACE
        self.poll_seconds = poll_seconds
        #: ``--jobs`` for the degraded local fan-out (None = serial).
        self.local_jobs = local_jobs

    def run(self, runner, fn, items) -> list:
        from .parallel import fan_out, use_executor
        metrics = TELEMETRY.metrics
        params = runner.queue_params()
        cells = [make_cell(fn, args, params) for args in items]
        order = [cell["cell"] for cell in cells]
        wanted = set(order)
        self.queue.ensure()
        self.queue.publish(cells)
        index_of = {cell_id: i for i, cell_id in enumerate(order)}
        last_live = time.monotonic()
        while True:
            records = self.queue.results()
            missing = [cell_id for cell_id in order
                       if cell_id not in records]
            self._update_gauges(len(missing))
            if not missing:
                break
            poisoned = self.queue.poisoned()
            bad = sorted(wanted & set(poisoned))
            if bad:
                details = "; ".join(
                    f"{cell_id} ({poisoned[cell_id].get('reason', '?')}, "
                    f"fn {poisoned[cell_id].get('fn', '?')})"
                    for cell_id in bad)
                raise ExperimentError(
                    f"queue campaign {self.queue.campaign}: "
                    f"{len(bad)} cell(s) poisoned after repeated "
                    f"reclaims: {details}. Inspect "
                    f"{self.queue.directory / _POISON} and re-publish "
                    "with --fresh once the cause is fixed.")
            self.queue.reclaim_expired()
            if self.queue.live_workers():
                last_live = time.monotonic()
            elif time.monotonic() - last_live >= self.grace_seconds:
                # No fleet (or the whole fleet died): finish the rest
                # exactly the way a --jobs run would, journaling the
                # results so late workers and resumed coordinators see
                # them as done.
                self._run_locally(runner, fn, items, index_of,
                                  [cell_id for cell_id in missing],
                                  fan_out, use_executor)
                continue
            time.sleep(self.poll_seconds)
        self.queue.settle(order)
        results = [None] * len(order)
        for cell_id, record in records.items():
            if cell_id in index_of:
                results[index_of[cell_id]] = decode_result(
                    record["result"])
        metrics.counter("queue.cells_merged").inc(len(order))
        return results

    def _run_locally(self, runner, fn, items, index_of, missing,
                     fan_out, use_executor) -> None:
        metrics = TELEMETRY.metrics
        metrics.counter("queue.degraded_fanouts").inc()
        metrics.counter("queue.degraded_cells").inc(len(missing))
        pending = [(cell_id, items[index_of[cell_id]])
                   for cell_id in missing]
        start = time.perf_counter()
        with use_executor(None):  # bypass ourselves: supervised pool
            values = fan_out(runner, fn,
                             [args for _, args in pending],
                             jobs=self.local_jobs)
        wall = time.perf_counter() - start
        for (cell_id, _), value in zip(pending, values):
            self.queue.append_result({
                "schema": QUEUE_SCHEMA,
                "cell": cell_id,
                "worker": "coordinator",
                "pid": os.getpid(),
                "generation": -1,
                "wall_seconds": round(wall / max(1, len(pending)), 3),
                "completed_unix": time.time(),
                "result": encode_result(value),
            })

    def _update_gauges(self, missing: int) -> None:
        metrics = TELEMETRY.metrics
        counts = self.queue.counts()
        for state in (_PENDING, _LEASED, _DONE, _POISON):
            metrics.gauge("queue.depth", state=state).set(counts[state])
        metrics.gauge("queue.missing").set(missing)
        metrics.gauge("queue.workers").set(
            len(self.queue.live_workers()))


# ----------------------------------------------------------------------
# Worker: ``python -m repro work``
# ----------------------------------------------------------------------

@dataclass
class WorkerReport:
    """What one worker loop did before exiting."""

    worker_id: str = ""
    completed: int = 0
    claims: int = 0
    stalled: int = 0
    campaigns: list[str] = field(default_factory=list)
    reason: str = ""


class _HeartbeatThread(threading.Thread):
    """Renews the worker heartbeat + held leases every ``~ttl / 3``.

    The renewal cadence carries deterministic per-worker jitter (a
    factor in [0.6, 1.0) of ``ttl / 3``): a fleet started by one
    orchestrator would otherwise fsync its heartbeats in lockstep
    against the shared cache directory. Jittering *downward* keeps
    every worker safely under the lease TTL.

    Setting :attr:`interval` wakes the thread, so a worker that joins
    a campaign with a shorter TTL renews at the new cadence at once,
    not after the interval it was waiting out.

    The ``heartbeat_stop`` fault freezes renewals permanently — the
    worker keeps executing, its leases go stale, and reclamation takes
    the cells away; at-least-once + idempotence keeps the campaign's
    bytes identical.
    """

    def __init__(self, queues: dict[str, WorkQueue], worker_id: str,
                 ttl: float, faults: FaultPlan) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}")
        self.queues = queues
        self.worker_id = worker_id
        self.jitter = seeded_jitter(worker_id, "heartbeat", 0.6, 1.0)
        self._wake = threading.Event()
        self._stopped = False
        self.interval = max(0.05, ttl / 3.0 * self.jitter)
        self.faults = faults
        self.held: dict[str, tuple[Path, ...]] = {}
        self._lock = threading.Lock()
        self._renewals = 0
        self.frozen = False

    @property
    def interval(self) -> float:
        return self._interval

    @interval.setter
    def interval(self, seconds: float) -> None:
        self._interval = seconds
        self._wake.set()

    def stop(self) -> None:
        self._stopped = True
        self._wake.set()

    def set_held(self, campaign: str, paths: tuple[Path, ...]) -> None:
        with self._lock:
            if paths:
                self.held[campaign] = paths
            else:
                self.held.pop(campaign, None)

    def beat_once(self) -> None:
        if self.faults.should_fire("heartbeat_stop", self.worker_id,
                                   self._renewals):
            if not self.frozen:
                self.frozen = True
                TELEMETRY.metrics.counter(
                    "queue.heartbeats_frozen").inc()
            return
        self._renewals += 1
        with self._lock:
            held = dict(self.held)
        for campaign, queue in list(self.queues.items()):
            try:
                queue.heartbeat(self.worker_id,
                                held=held.get(campaign, ()))
            except OSError:
                continue

    def run(self) -> None:
        last = time.monotonic()
        while True:
            self._wake.wait(max(0.0, last + self._interval
                                - time.monotonic()))
            self._wake.clear()
            if self._stopped:
                return
            if time.monotonic() - last >= self._interval:
                self.beat_once()
                last = time.monotonic()


def discover_campaigns(root: str | Path | None = None,
                       campaign: str | None = None,
                       active_only: bool = True) -> list[Path]:
    """Campaign directories under a queue root, newest manifest first."""
    base = Path(root) if root is not None else queue_root()
    if base is None or not base.is_dir():
        return []
    found = []
    for path in sorted(base.iterdir()):
        if not path.is_dir():
            continue
        if campaign is not None and path.name != campaign:
            continue
        manifest = _read_json(path / MANIFEST_NAME)
        if manifest is None:
            continue
        if active_only and manifest.get("state") != "active":
            continue
        found.append(path)
    return found


def work_loop(root: str | Path | None = None,
              campaign: str | None = None,
              worker_id: str | None = None,
              poll_seconds: float = 0.25,
              max_cells: int | None = None,
              idle_exit_seconds: float | None = None,
              faults: FaultPlan | None = None,
              emit=print) -> WorkerReport:
    """The ``python -m repro work`` loop: claim, execute, complete.

    Scans every active campaign under the queue root (or one named
    campaign), claims cells via the rename protocol, executes them on
    a per-params-cached :class:`~repro.experiments.runner.
    ExperimentRunner` whose disk cache is the campaign's own, and
    journals the results. Exits when ``max_cells`` is reached, when no
    work has been claimable for ``idle_exit_seconds``, or when every
    known campaign has closed.
    """
    from .runner import ExperimentRunner
    from .diskcache import DiskCache
    if faults is None:
        faults = FaultPlan.from_env()
    worker_id = worker_id or \
        f"{socket.gethostname()}-{os.getpid()}"
    # Desynchronize idle polls across the fleet (deterministically per
    # worker) so N workers don't stat the queue directory in lockstep.
    poll_jitter = seeded_jitter(worker_id, "idle-poll", 0.75, 1.25)
    report = WorkerReport(worker_id=worker_id)
    metrics = TELEMETRY.metrics
    queues: dict[str, WorkQueue] = {}
    runners: dict[tuple, ExperimentRunner] = {}
    heart = _HeartbeatThread(queues, worker_id, DEFAULT_TTL, faults)
    heart.start()
    idle_since = time.monotonic()
    try:
        while True:
            if max_cells is not None and report.completed >= max_cells:
                report.reason = "max-cells"
                return report
            directories = discover_campaigns(root, campaign)
            for path in directories:
                if path.name not in queues:
                    # The campaign's manifest carries its coordinator's
                    # TTL and reclaim budget; renew fast enough for the
                    # tightest TTL of any campaign we are serving.
                    queue = WorkQueue(path)
                    queues[path.name] = queue
                    heart.interval = min(
                        heart.interval,
                        max(0.05, queue.ttl / 3.0 * heart.jitter))
                    queue.register_worker(worker_id)
                    report.campaigns.append(path.name)
                    emit(f"-- worker {worker_id}: joined campaign "
                         f"{path.name}")
            # Drop campaigns that closed underneath us.
            for name in [n for n in queues
                         if campaign is None
                         and not queues[n].is_active()]:
                del queues[name]
            if not directories and not queues:
                if idle_exit_seconds is not None and \
                        time.monotonic() - idle_since >= idle_exit_seconds:
                    report.reason = "no campaigns"
                    return report
                time.sleep(poll_seconds * poll_jitter)
                continue
            claimed = False
            for name, queue in list(queues.items()):
                claim = queue.claim(worker_id)
                if claim is None:
                    # Nothing pending: help recover other workers'
                    # stale leases before going back to sleep.
                    queue.reclaim_expired()
                    continue
                claimed = True
                report.claims += 1
                handled = _execute_claim(
                    queue, claim, worker_id, heart, runners, faults,
                    metrics, report, emit)
                # Idle time starts when the cell is done, not when it
                # was claimed: a campaign publishes the next figure's
                # cells only once this figure's have all landed.
                idle_since = time.monotonic()
                if not handled:
                    break
            if not claimed:
                if idle_exit_seconds is not None and \
                        time.monotonic() - idle_since >= idle_exit_seconds:
                    report.reason = "idle"
                    return report
                time.sleep(poll_seconds * poll_jitter)
    finally:
        heart.stop()
        heart.join(timeout=2 * heart.interval)
    return report


def _execute_claim(queue: WorkQueue, claim: Claim, worker_id: str,
                   heart: _HeartbeatThread, runners: dict,
                   faults: FaultPlan, metrics, report: WorkerReport,
                   emit) -> bool:
    """Run one claimed cell through the fault gauntlet. Returns False
    when the cell was deliberately abandoned (``lease_stall``)."""
    from .runner import ExperimentRunner
    from .diskcache import DiskCache
    cell = claim.cell
    site = cell["cell"]
    if faults.should_fire("worker_exit", site, claim.generation):
        # Simulated kill -9 right after the claim: the lease dangles
        # until its TTL expires and a peer reclaims the cell.
        os._exit(23)
    if faults.should_fire("lease_stall", site, claim.generation):
        spec = faults.spec("lease_stall")
        report.stalled += 1
        metrics.counter("queue.stalls_injected").inc()
        queue.abandon(claim)
        time.sleep(min(spec.sleep_seconds, 3600.0))
        return False
    heart.set_held(queue.campaign, (claim.leased_path,))
    start = time.perf_counter()
    try:
        fn = resolve_fn(cell["fn"])
        args = decode_args(cell["args"])
        params = dict(cell.get("runner", {}))
        key = (queue.campaign,
               tuple(sorted(params.items())))
        runner = runners.get(key)
        if runner is None:
            runner = ExperimentRunner(
                **params, disk_cache=DiskCache(queue.cache_root()))
            runners[key] = runner
        with TELEMETRY.tracer.span("queue.cell", cell=site,
                                   campaign=queue.campaign,
                                   generation=claim.generation):
            result = fn(runner, *args)
    except Exception as exc:  # noqa: BLE001 — a bad cell must not
        # kill the worker; leave the lease to expire so the cell goes
        # back through reclaim accounting (and eventually poison).
        metrics.counter("queue.cell_errors").inc()
        emit(f"-- worker {worker_id}: cell {site} failed: {exc!r}")
        return True
    finally:
        heart.set_held(queue.campaign, ())
    queue.complete(claim, result, worker_id,
                   wall_seconds=time.perf_counter() - start)
    report.completed += 1
    emit(f"-- worker {worker_id}: completed {site} "
         f"(gen {claim.generation}, "
         f"{time.perf_counter() - start:.1f}s)")
    return True


# ----------------------------------------------------------------------
# Maintenance: campaign sweeping for ``repro cache gc`` / usage
# ----------------------------------------------------------------------

def sweep_queues(root: str | Path,
                 max_age: float = CAMPAIGN_MAX_AGE_SECONDS,
                 now: float | None = None) -> dict:
    """Garbage-collect the queue tree under one cache root.

    * campaign directories whose manifest is closed (``complete`` /
      ``failed``), or with no file activity for ``max_age`` seconds,
      are deleted outright;
    * inside live campaigns, expired leases are reclaimed (the normal
      protocol — generations bump, poison applies) and heartbeat files
      of long-gone workers are removed.

    Returns ``{"campaigns_removed", "leases_reclaimed",
    "heartbeats_removed", "poisoned"}``.
    """
    stats = {"campaigns_removed": 0, "leases_reclaimed": 0,
             "heartbeats_removed": 0, "poisoned": 0}
    base = Path(root) / "queue"
    if not base.is_dir():
        return stats
    now = now if now is not None else time.time()
    for path in sorted(base.iterdir()):
        if not path.is_dir():
            continue
        manifest = _read_json(path / MANIFEST_NAME)
        closed = manifest is not None \
            and manifest.get("state") != "active"
        if manifest is None or closed \
                or _campaign_idle_for(path, now) >= max_age:
            try:
                shutil.rmtree(path)
                stats["campaigns_removed"] += 1
            except OSError:
                pass
            continue
        queue = WorkQueue(path)
        reclaim = queue.reclaim_expired(now=now)
        stats["leases_reclaimed"] += reclaim["reclaimed"]
        stats["poisoned"] += reclaim["poisoned"]
        stats["heartbeats_removed"] += queue.sweep_heartbeats()
    return stats


def _campaign_idle_for(path: Path, now: float) -> float:
    """Seconds since the newest write anywhere in one campaign dir."""
    newest = 0.0
    for child in path.rglob("*"):
        try:
            newest = max(newest, child.stat().st_mtime)
        except OSError:
            continue
    try:
        newest = max(newest, path.stat().st_mtime)
    except OSError:
        pass
    return now - newest if newest else float("inf")


def queue_usage(root: str | Path) -> dict:
    """Entry counts and byte totals for the queue tree (for
    :meth:`~repro.experiments.diskcache.DiskCache.usage`)."""
    usage = {"campaigns": 0, "cells": 0, "bytes": 0}
    base = Path(root) / "queue"
    if not base.is_dir():
        return usage
    for path in sorted(base.iterdir()):
        if not path.is_dir():
            continue
        usage["campaigns"] += 1
        for child in path.rglob("*"):
            try:
                if child.is_file():
                    usage["bytes"] += child.stat().st_size
            except OSError:
                continue
        for state in _CELL_DIRS:
            directory = path / state
            if directory.is_dir():
                usage["cells"] += sum(
                    1 for _ in directory.glob("*.json"))
    return usage
