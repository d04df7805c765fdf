"""``python -m repro serve`` — a crash-safe multi-tenant sweep server.

Turns the batch reproduction into a long-lived daemon: clients submit
figure/sweep queries over a Unix or TCP socket (newline-delimited
JSON, see :mod:`~repro.experiments.client` for the protocol), warm
queries are answered straight from the content-addressed disk cache in
milliseconds, and cold cells run through the same
:func:`~repro.experiments.parallel.fan_out` path every other driver
uses. A warm trace hit loads an mmap-backed encoded file
(:mod:`repro.host.codec`): the loaded trace decodes each column in
full the first time a sweep asks for it and keeps it, and concurrent
tenants hitting the same trace share the encoded bytes through the
page cache. Robustness is the design center:

**Admission control.** Each tenant owns a token bucket (``rate``
tokens/second up to ``burst``); a request that finds the bucket empty
is shed immediately with a typed ``RETRY_AFTER`` (reason ``quota``)
carrying the exact wait. Total accepted-but-unfinished work is bounded
by ``max_inflight``; past it every tenant gets ``RETRY_AFTER``
(reason ``backpressure``) instead of an unbounded queue.

**Fair-share scheduling.** Accepted requests wait in per-tenant FIFOs
drained by deficit round-robin: each visit grants a tenant ``quantum``
cost units of deficit, and its head request runs only once the deficit
covers the request's cost (estimated in cells). A tenant flooding
hundred-cell sweeps therefore cannot starve a tenant asking for
one-cell probes — the light tenant's requests interleave after at most
a bounded number of heavy cells.

**Deadlines.** A request may carry ``deadline_seconds``; the executor
checks the deadline *between cells* (cooperative cancellation — a cell
is the cancellation grain) and answers ``DEADLINE_EXCEEDED``, which is
journaled as terminal so a re-ask cannot resurrect expired work.

**Crash safety.** Every accepted request is fsynced to an append-only
session journal under ``<cache-root>/serve/`` *before* it is queued,
and every outcome is journaled before it is answered (a
:class:`~repro.durable.Journal`, like the work queue's results
journal). A server that is SIGKILLed mid-campaign restarts, replays the
journal, re-enqueues accepted-but-unfinished requests, and clients
simply re-ask by request key: they get the journaled answer, a seat
waiting on the re-run, or at worst a recomputation that is
byte-identical because execution flows through the content-addressed
disk cache.

**Graceful drain.** ``SIGTERM`` (or a ``drain`` request) stops
admission (``RETRY_AFTER`` reason ``draining``), lets the in-flight
request finish within ``drain_grace`` seconds (after which it is
cooperatively aborted between cells), answers queued waiters with
``draining`` — their requests stay journaled and resume on restart —
and exits cleanly so the CLI can flush the telemetry manifest.

Scheduling is single-threaded on purpose: one scheduler thread owns
all execution (and the process-global executor slot in
:mod:`~repro.experiments.parallel`) and runs every cell itself, so
results are as deterministic as the batch drivers.

Chaos-testability: the :data:`~repro.experiments.resilience.FAULTS_ENV`
kinds ``server_crash`` (``os._exit`` between cells), ``slow_tenant``
(per-tenant cell slowdown), and ``client_disconnect`` (client drops
the connection after sending) let the acceptance tests kill the server
mid-campaign and byte-compare the resumed answers against a serial
in-process run.
"""

from __future__ import annotations

import json
import os
import socket as socketlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from ..durable import Journal
from ..errors import ExperimentError
from ..telemetry import TELEMETRY
from .client import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INTERNAL,
    RETRY_AFTER,
    SERVE_SCHEMA,
    default_socket_path,
    request_key,
    serve_root,
)
from .resilience import FaultPlan

#: Exit status of the injected ``server_crash`` fault (a simulated
#: ``kill -9`` mid-campaign; distinguishable from real failures).
CRASH_EXIT = 43

#: Session journal filename under :func:`~repro.experiments.client.
#: serve_root`.
JOURNAL_NAME = "session.journal"

#: AF_UNIX's sun_path is ~108 bytes; refuse early with a clear message
#: instead of a cryptic bind error.
_MAX_UNIX_PATH = 100

#: Static scheduling weights (in cells) for figure requests — only the
#: *ratio* matters for deficit round-robin; bench requests use their
#: actual cell count.
_TABLE_COST = 1.0
_QUICK_COST = 8.0
_FULL_COST = 48.0


def estimate_cost(spec: dict) -> float:
    """Scheduling weight of one request, in cells."""
    if spec.get("type") == "bench":
        return float(max(1, int(spec.get("cells", 1))))
    name = str(spec.get("figure", ""))
    if name.startswith("table"):
        return _TABLE_COST
    return _QUICK_COST if spec.get("quick", True) else _FULL_COST


class _DeadlineExceeded(Exception):
    """Raised between cells once a request's deadline has passed."""


class _DrainAbort(Exception):
    """Raised between cells when drain gave up waiting on a request."""


def _bench_cell(runner, seconds: float) -> float:
    """One synthetic scheduling-probe cell (no simulation involved)."""
    if seconds > 0:
        time.sleep(seconds)
    return seconds


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = max(float(rate), 1e-9)
        self.burst = max(float(burst), 1.0)
        self.tokens = self.burst
        self._updated = time.monotonic()

    def take(self, cost: float = 1.0, now: float | None = None) -> float:
        """Try to take ``cost`` tokens. Returns 0.0 on success, else
        the seconds until enough tokens accrue (nothing is taken)."""
        now = time.monotonic() if now is None else now
        self.tokens = min(self.burst,
                          self.tokens + (now - self._updated) * self.rate)
        self._updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate


class SessionJournal:
    """The request/result :class:`~repro.durable.Journal` a restarted
    server resumes from."""

    def __init__(self, directory: str | Path) -> None:
        self.path = Path(directory) / JOURNAL_NAME
        self._journal = Journal(self.path)

    def append(self, record: dict) -> None:
        self._journal.append({"schema": SERVE_SCHEMA, **record})

    def load(self) -> tuple[dict[str, dict], dict[str, dict]]:
        """Replay the journal: ``(requests, results)`` by key.

        First record per key wins (results are idempotent; a duplicate
        acceptance after a resume changes nothing). A torn tail from a
        crash mid-append is skipped and costs at most one request's
        worth of recomputation.
        """
        by_type: dict[str, dict[str, dict]] = {"request": {}, "result": {}}
        for record in self._journal.records():
            key = record.get("key")
            if record.get("schema") == SERVE_SCHEMA \
                    and isinstance(key, str) \
                    and record.get("type") in by_type:
                by_type[record["type"]].setdefault(key, record)
        return by_type["request"], by_type["result"]


class _Responder:
    """One client connection's write side (thread-safe, failure-soft)."""

    __slots__ = ("conn", "lock", "closed")

    def __init__(self, conn: socketlib.socket) -> None:
        self.conn = conn
        self.lock = threading.Lock()
        self.closed = False

    def send(self, payload: dict) -> bool:
        """Send one response line; False when the client went away."""
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        with self.lock:
            if self.closed:
                return False
            try:
                self.conn.sendall(data)
                return True
            except OSError:
                self.closed = True
                return False


@dataclass
class _Request:
    """One accepted (journaled) compute request."""

    key: str
    tenant: str
    spec: dict
    cost: float
    deadline_unix: float | None
    accepted_unix: float
    resumed: bool = False
    enqueued_monotonic: float = field(default_factory=time.monotonic)
    waiters: list[_Responder] = field(default_factory=list)


class _TenantState:
    """One tenant's admission bucket, FIFO, and DRR deficit."""

    def __init__(self, name: str, rate: float, burst: float) -> None:
        self.name = name
        self.bucket = TokenBucket(rate, burst)
        self.queue: deque[_Request] = deque()
        self.deficit = 0.0


class _RequestExecutor:
    """Fan-out executor for one request: per-cell fault injection,
    deadline checks, drain aborts, and per-tenant cost accounting.

    Installed behind :func:`~repro.experiments.parallel.fan_out` via
    ``use_executor`` for the duration of the figure call, so every
    cold cell of the figure runs in the scheduler thread through these
    checkpoints.
    """

    def __init__(self, server: "SweepServer", request: _Request) -> None:
        self.server = server
        self.request = request
        self.cells = 0

    def run(self, runner, fn, items) -> list:
        values = []
        for args in items:
            self.checkpoint(self.cells)
            values.append(fn(runner, *args))
            self._account(1)
        return values

    def checkpoint(self, index: int) -> None:
        """Between-cells checkpoint: faults, drain, deadline."""
        request = self.request
        faults = self.server.faults
        if faults.should_fire("server_crash", f"{request.key}#{index}"):
            # Simulated kill -9 mid-campaign: no journal record lands,
            # so a restarted server re-runs this request from its
            # acceptance record.
            os._exit(CRASH_EXIT)
        spec = faults.spec("slow_tenant")
        if spec is not None and faults.should_fire("slow_tenant",
                                                   request.tenant):
            time.sleep(spec.sleep_seconds)
        if self.server.abort_requested:
            raise _DrainAbort
        if request.deadline_unix is not None \
                and time.time() > request.deadline_unix:
            raise _DeadlineExceeded

    def _account(self, cells: int) -> None:
        self.cells += cells
        TELEMETRY.metrics.counter("serve.cells",
                                  tenant=self.request.tenant).inc(cells)


class SweepServer:
    """The long-lived multi-tenant sweep server (see module docstring).

    Threads: one acceptor, one reader per connection, and exactly one
    scheduler that owns all execution. All shared state is guarded by
    ``self._lock``; journal appends happen under it so acceptance
    order on disk matches acceptance order in memory.
    """

    def __init__(self, socket_path: str | os.PathLike | None = None,
                 tcp: str | None = None,
                 tenant_rate: float = 2.0, tenant_burst: float = 8.0,
                 max_inflight: int = 16, quantum: float = 4.0,
                 drain_grace: float = 30.0,
                 default_deadline: float | None = None,
                 serve_dir: str | Path | None = None,
                 faults: FaultPlan | None = None) -> None:
        from .client import parse_endpoint
        self.kind, self.address = parse_endpoint(socket_path, tcp)
        self.tenant_rate = float(tenant_rate)
        self.tenant_burst = float(tenant_burst)
        self.max_inflight = int(max_inflight)
        self.quantum = max(float(quantum), 1e-9)
        self.drain_grace = float(drain_grace)
        self.default_deadline = default_deadline
        directory = Path(serve_dir) if serve_dir is not None \
            else serve_root()
        self.journal = SessionJournal(directory)
        self.faults = faults if faults is not None else FaultPlan.from_env()

        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}
        self._rr_index = 0
        #: key -> queued-or-running request (the backpressure bound).
        self._known: dict[str, _Request] = {}
        #: key -> journaled result record (loaded + appended).
        self._results: dict[str, dict] = {}
        self._current: _Request | None = None
        self._connections: set[socketlib.socket] = set()
        self._stats = {"served": 0, "errors": 0, "deadline": 0,
                       "resumed": 0, "journal_hits": 0, "rejected": 0,
                       "disconnects": 0}
        self._started_monotonic = time.monotonic()
        self._work = threading.Event()
        self._drain_requested = threading.Event()
        self._draining = False
        self._stopping = False
        self.abort_requested = False
        self._listener: socketlib.socket | None = None
        self._scheduler: threading.Thread | None = None
        self._runners: dict[int, object] = {}

    # -- lifecycle -----------------------------------------------------

    @property
    def endpoint(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.address}"
        host, port = self.address
        return f"tcp:{host}:{port}"

    def start(self) -> "SweepServer":
        """Resume from the journal, bind, and start serving."""
        self._resume_from_journal()
        self._bind()
        self._scheduler = threading.Thread(target=self._scheduler_loop,
                                           name="serve-scheduler",
                                           daemon=True)
        self._scheduler.start()
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="serve-accept", daemon=True)
        acceptor.start()
        return self

    def _bind(self) -> None:
        if self.kind == "unix":
            path = Path(self.address)
            if len(str(path)) > _MAX_UNIX_PATH:
                raise ExperimentError(
                    f"unix socket path {path} exceeds the AF_UNIX "
                    f"{_MAX_UNIX_PATH}-char limit; pass a shorter "
                    "--socket or use --tcp HOST:PORT")
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                # Stale socket from a crash, or a live peer? Probe it.
                probe = socketlib.socket(socketlib.AF_UNIX,
                                         socketlib.SOCK_STREAM)
                probe.settimeout(0.5)
                try:
                    probe.connect(str(path))
                except OSError:
                    path.unlink(missing_ok=True)
                else:
                    raise ExperimentError(
                        f"a sweep server is already listening on "
                        f"{path}; stop it or pass a different --socket")
                finally:
                    probe.close()
            listener = socketlib.socket(socketlib.AF_UNIX,
                                        socketlib.SOCK_STREAM)
            listener.bind(str(path))
        else:
            host, port = self.address
            listener = socketlib.socket(socketlib.AF_INET,
                                        socketlib.SOCK_STREAM)
            listener.setsockopt(socketlib.SOL_SOCKET,
                                socketlib.SO_REUSEADDR, 1)
            listener.bind((host, port))
            # Port 0 asked the kernel; report what it granted.
            self.address = (host, listener.getsockname()[1])
        listener.listen(64)
        self._listener = listener

    def _resume_from_journal(self) -> None:
        requests, results = self.journal.load()
        self._results = results
        now = time.time()
        for key, record in requests.items():
            if key in results:
                continue
            deadline = record.get("deadline_unix")
            if deadline is not None and now > float(deadline):
                # Too late to honor; make the expiry terminal so a
                # re-ask cannot resurrect it.
                expired = self._result_record(
                    key, str(record.get("tenant", "default")),
                    dict(record.get("spec") or {}), "deadline",
                    rendered=None, error=None, wall=0.0, cells=0)
                self.journal.append(expired)
                self._results[key] = expired
                continue
            request = _Request(
                key=key,
                tenant=str(record.get("tenant", "default")),
                spec=dict(record.get("spec") or {}),
                cost=estimate_cost(dict(record.get("spec") or {})),
                deadline_unix=deadline,
                accepted_unix=float(record.get("accepted_unix", now)),
                resumed=True)
            with self._lock:
                self._enqueue_locked(request)
            self._stats["resumed"] += 1
        if self._stats["resumed"]:
            TELEMETRY.metrics.counter("serve.resumed").inc(
                self._stats["resumed"])
            self._work.set()

    # -- socket plumbing -----------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._connections.add(conn)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            thread.start()

    def _serve_connection(self, conn: socketlib.socket) -> None:
        responder = _Responder(conn)
        buffer = b""
        try:
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        self._handle_line(line, responder)
        except OSError:
            pass
        finally:
            responder.closed = True
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_line(self, line: bytes, responder: _Responder) -> None:
        try:
            message = json.loads(line.decode("utf-8"))
            if not isinstance(message, dict):
                raise ValueError("not an object")
        except (ValueError, UnicodeDecodeError):
            responder.send({"ok": False, "error": BAD_REQUEST,
                            "message": "each request must be one JSON "
                                       "object per line"})
            return
        rtype = message.get("type")
        TELEMETRY.metrics.counter("serve.requests",
                                  type=str(rtype)).inc()
        if rtype == "ping":
            responder.send({"ok": True, "type": "pong",
                            "pid": os.getpid(),
                            "uptime_seconds": round(
                                time.monotonic()
                                - self._started_monotonic, 3)})
        elif rtype == "ready":
            with self._lock:
                ready = not (self._draining or self._stopping)
            responder.send({"ok": True, "type": "ready", "ready": ready,
                            "draining": not ready})
        elif rtype == "status":
            responder.send(self._status_response())
        elif rtype == "drain":
            # Answer after admission stops and before the drain starts:
            # the drain closes every connection, this one included.
            self._stop_admission()
            responder.send({"ok": True, "type": "drain",
                            "message": "draining"})
            self.request_drain()
        elif rtype in ("figure", "bench"):
            self._admit(message, responder)
        else:
            responder.send({"ok": False, "error": BAD_REQUEST,
                            "message": f"unknown request type {rtype!r} "
                                       "(ping, ready, status, drain, "
                                       "figure, bench)"})

    # -- admission -----------------------------------------------------

    def _normalize_spec(self, message: dict) -> dict:
        if message["type"] == "bench":
            try:
                cells = int(message.get("cells", 1))
                seconds = float(message.get("cell_seconds", 0.0))
            except (TypeError, ValueError):
                raise ExperimentError(
                    "bench needs integer cells and float "
                    "cell_seconds") from None
            if not 1 <= cells <= 100_000 or seconds < 0:
                raise ExperimentError(
                    "bench cells must be in [1, 100000] and "
                    "cell_seconds >= 0")
            return {"type": "bench", "cells": cells,
                    "cell_seconds": seconds}
        from .figures import ALL_FIGURES
        name = message.get("figure")
        if name not in ALL_FIGURES:
            raise ExperimentError(
                f"unknown figure {name!r}; choose from "
                f"{', '.join(ALL_FIGURES)}")
        return {"type": "figure", "figure": name,
                "quick": bool(message.get("quick", True))}

    def _reject(self, responder: _Responder, tenant: str, key: str,
                reason: str, retry_after: float, message: str) -> None:
        self._stats["rejected"] += 1
        TELEMETRY.metrics.counter("serve.rejected", tenant=tenant,
                                  reason=reason).inc()
        responder.send({"ok": False, "error": RETRY_AFTER,
                        "reason": reason, "key": key,
                        "retry_after": round(max(retry_after, 0.0), 3),
                        "message": message})

    def _admit(self, message: dict, responder: _Responder) -> None:
        tenant = str(message.get("tenant") or "default")
        try:
            spec = self._normalize_spec(message)
        except ExperimentError as exc:
            responder.send({"ok": False, "error": BAD_REQUEST,
                            "message": str(exc)})
            return
        key = str(message.get("key") or request_key(tenant, spec))
        deadline_raw = message.get("deadline_seconds",
                                   self.default_deadline)
        try:
            deadline_seconds = None if deadline_raw is None \
                else float(deadline_raw)
        except (TypeError, ValueError):
            responder.send({"ok": False, "error": BAD_REQUEST,
                            "message": "deadline_seconds must be a "
                                       "number"})
            return
        now_unix = time.time()
        with self._lock:
            record = self._results.get(key)
            if record is not None:
                # The idempotent re-ask path: answer from the journal
                # without charging the tenant's bucket or running
                # anything.
                self._stats["journal_hits"] += 1
                TELEMETRY.metrics.counter("serve.journal_hits").inc()
                responder.send(self._response_from_result(record))
                return
            known = self._known.get(key)
            if known is not None:
                # Same key is queued or running: wait on its outcome.
                known.waiters.append(responder)
                return
            if self._draining or self._stopping:
                self._reject(responder, tenant, key, "draining",
                             self.drain_grace,
                             "server is draining; accepted work is "
                             "journaled — re-ask by key after restart")
                return
            if len(self._known) >= self.max_inflight:
                self._reject(responder, tenant, key, "backpressure",
                             1.0,
                             f"{len(self._known)} requests already in "
                             f"flight (bound {self.max_inflight})")
                return
            state = self._tenants.get(tenant)
            if state is None:
                state = _TenantState(tenant, self.tenant_rate,
                                     self.tenant_burst)
                self._tenants[tenant] = state
            wait = state.bucket.take(1.0)
            if wait > 0.0:
                self._reject(responder, tenant, key, "quota", wait,
                             f"tenant {tenant!r} is over its "
                             f"{state.bucket.rate:g}/s admission rate")
                return
            request = _Request(
                key=key, tenant=tenant, spec=spec,
                cost=estimate_cost(spec),
                deadline_unix=(now_unix + deadline_seconds
                               if deadline_seconds is not None else None),
                accepted_unix=now_unix)
            request.waiters.append(responder)
            # Fsync the acceptance before queueing: once the client can
            # observe "accepted", a crash cannot lose the request.
            self.journal.append({
                "type": "request", "key": key, "tenant": tenant,
                "spec": spec, "deadline_unix": request.deadline_unix,
                "accepted_unix": now_unix, "cost": request.cost})
            self._enqueue_locked(request)
            TELEMETRY.metrics.counter("serve.admitted",
                                      tenant=tenant).inc()
        self._work.set()

    def _enqueue_locked(self, request: _Request) -> None:
        state = self._tenants.get(request.tenant)
        if state is None:
            state = _TenantState(request.tenant, self.tenant_rate,
                                 self.tenant_burst)
            self._tenants[request.tenant] = state
        state.queue.append(request)
        self._known[request.key] = request
        TELEMETRY.metrics.gauge("serve.inflight").set(len(self._known))

    # -- deficit round-robin scheduling --------------------------------

    def _pick_locked(self) -> _Request | None:
        """Deficit round-robin over the per-tenant FIFOs.

        Each visit grants a tenant ``quantum`` deficit; its head runs
        once the deficit covers the head's cost. Idle tenants forfeit
        their deficit, so a returning tenant cannot burst past the
        backlog it skipped.
        """
        active = [t for t in self._tenants.values() if t.queue]
        if not active:
            return None
        for state in self._tenants.values():
            if not state.queue:
                state.deficit = 0.0
        rounds = max(int(state.queue[0].cost / self.quantum)
                     for state in active) + 2
        for _ in range(rounds):
            names = list(self._tenants)
            for _ in range(len(names)):
                state = self._tenants[names[self._rr_index % len(names)]]
                self._rr_index += 1
                if not state.queue:
                    continue
                state.deficit += self.quantum
                if state.queue[0].cost <= state.deficit:
                    request = state.queue.popleft()
                    state.deficit -= request.cost
                    if not state.queue:
                        state.deficit = 0.0
                    return request
        # Unreachable with quantum > 0, but never wedge the scheduler.
        for state in active:
            if state.queue:
                return state.queue.popleft()
        return None

    def _scheduler_loop(self) -> None:
        while True:
            self._work.wait(timeout=0.05)
            with self._lock:
                if self._stopping:
                    return
                if self._draining:
                    # Stop starting new work; whatever is still queued
                    # is journaled and resumes on restart.
                    return
                request = self._pick_locked()
                if request is None:
                    self._work.clear()
                    continue
                self._current = request
            try:
                self._execute(request)
            finally:
                with self._lock:
                    self._current = None

    # -- execution -----------------------------------------------------

    def _runner_for(self, scale: int):
        runner = self._runners.get(scale)
        if runner is None:
            from .runner import ExperimentRunner
            runner = ExperimentRunner(scale=scale)
            self._runners[scale] = runner
        return runner

    def _execute(self, request: _Request) -> None:
        metrics = TELEMETRY.metrics
        start = time.perf_counter()
        waited = start - request.enqueued_monotonic \
            if not request.resumed else 0.0
        metrics.histogram("serve.wait_seconds",
                          tenant=request.tenant).observe(max(waited, 0.0))
        executor = _RequestExecutor(self, request)
        status, rendered, error = "ok", None, None
        try:
            executor.checkpoint(0)
            rendered = self._run_spec(request, executor)
        except _DeadlineExceeded:
            status = "deadline"
        except _DrainAbort:
            # Deliberately NOT journaled as a result: the acceptance
            # record makes the restarted server re-run it.
            metrics.counter("serve.aborted",
                            tenant=request.tenant).inc()
            return
        except Exception as exc:  # noqa: BLE001 — one bad request
            # must never take the daemon down with it.
            status, error = "error", repr(exc)
        wall = time.perf_counter() - start
        record = self._result_record(request.key, request.tenant,
                                     request.spec, status, rendered,
                                     error, wall, executor.cells)
        with self._lock:
            self.journal.append(record)
            self._results[request.key] = record
            self._known.pop(request.key, None)
            waiters = list(request.waiters)
            request.waiters.clear()
            metrics.gauge("serve.inflight").set(len(self._known))
        self._stats["served" if status == "ok" else
                    "deadline" if status == "deadline" else
                    "errors"] += 1
        metrics.counter("serve.results", status=status,
                        tenant=request.tenant).inc()
        metrics.counter("serve.wall_seconds",
                        tenant=request.tenant).inc(round(wall, 4))
        response = self._response_from_result(record)
        for responder in waiters:
            if not responder.send(response):
                self._stats["disconnects"] += 1
                metrics.counter("serve.client_disconnects").inc()

    def _run_spec(self, request: _Request,
                  executor: _RequestExecutor) -> str:
        spec = request.spec
        if spec["type"] == "bench":
            cells = int(spec["cells"])
            seconds = float(spec.get("cell_seconds", 0.0))
            executor.run(None, _bench_cell, [(seconds,)] * cells)
            return f"bench: {cells} cells x {seconds:g}s"
        from .figures import ALL_FIGURES, figure_scale
        from .parallel import use_executor
        name = spec["figure"]
        func = ALL_FIGURES[name]
        scale = figure_scale(name)
        with TELEMETRY.tracer.span("serve.request", key=request.key,
                                   tenant=request.tenant, figure=name):
            if scale is None:
                result = func()
            else:
                runner = self._runner_for(scale)
                with use_executor(executor):
                    result = func(runner,
                                  quick=bool(spec.get("quick", True)),
                                  jobs=1)
        # str(FigureResult) is exactly what `repro figure` prints — the
        # byte-compare target for the chaos acceptance test.
        return str(result)

    def _result_record(self, key: str, tenant: str, spec: dict,
                       status: str, rendered: str | None,
                       error: str | None, wall: float,
                       cells: int) -> dict:
        return {"type": "result", "key": key, "tenant": tenant,
                "spec": spec, "status": status, "rendered": rendered,
                "error": error, "wall_seconds": round(wall, 4),
                "cells": cells, "completed_unix": time.time()}

    def _response_from_result(self, record: dict) -> dict:
        status = record.get("status")
        if status == "ok":
            return {"ok": True, "type": "result",
                    "key": record["key"],
                    "tenant": record.get("tenant"),
                    "spec": record.get("spec"),
                    "rendered": record.get("rendered"),
                    "wall_seconds": record.get("wall_seconds"),
                    "cells": record.get("cells")}
        if status == "deadline":
            return {"ok": False, "error": DEADLINE_EXCEEDED,
                    "key": record["key"],
                    "message": "deadline passed before the request "
                               "finished (terminal for this key)"}
        return {"ok": False, "error": INTERNAL, "key": record["key"],
                "message": str(record.get("error"))}

    # -- status / stats ------------------------------------------------

    def _status_response(self) -> dict:
        with self._lock:
            tenants = {
                name: {"queued": len(state.queue),
                       "deficit": round(state.deficit, 3),
                       "tokens": round(state.bucket.tokens, 3)}
                for name, state in self._tenants.items()}
            return {"ok": True, "type": "status",
                    "endpoint": self.endpoint,
                    "pid": os.getpid(),
                    "draining": self._draining,
                    "inflight": len(self._known),
                    "running": self._current.key
                    if self._current else None,
                    "max_inflight": self.max_inflight,
                    "tenants": tenants,
                    "journal": {"path": str(self.journal.path),
                                "results": len(self._results)},
                    "stats": dict(self._stats)}

    def stats_snapshot(self) -> dict:
        with self._lock:
            return dict(self._stats)

    # -- drain / shutdown ----------------------------------------------

    def request_drain(self) -> None:
        """Flip into draining (idempotent; safe from signal handlers)."""
        self._stop_admission()
        self._work.set()
        self._drain_requested.set()

    def _stop_admission(self) -> None:
        with self._lock:
            self._draining = True

    def wait_for_drain_request(self, timeout: float | None = None) -> bool:
        return self._drain_requested.wait(timeout)

    def drain(self, grace: float | None = None) -> int:
        """Finish the in-flight request (within ``grace`` seconds, then
        abort it between cells), answer queued waiters with
        ``draining``, journal a drain marker, and tear down. Queued
        work stays journaled and resumes on the next start. Returns 0
        on a clean drain, 1 if the scheduler had to be abandoned."""
        grace = self.drain_grace if grace is None else grace
        self.request_drain()
        scheduler = self._scheduler
        clean = True
        if scheduler is not None:
            scheduler.join(timeout=max(grace, 0.0))
            if scheduler.is_alive():
                # Grace expired mid-request: cancel between cells.
                self.abort_requested = True
                self._work.set()
                scheduler.join(timeout=10.0)
                clean = not scheduler.is_alive()
        with self._lock:
            leftovers = list(self._known.values())
            self._known.clear()
            self._stopping = True
        response_base = {
            "ok": False, "error": RETRY_AFTER, "reason": "draining",
            "retry_after": 1.0,
            "message": "server drained before this request ran; it is "
                       "journaled and resumes on restart — re-ask by "
                       "key"}
        for request in leftovers:
            for responder in request.waiters:
                responder.send({**response_base, "key": request.key})
        self.journal.append({"type": "drain", "key": "",
                             "clean": clean,
                             "pending": len(leftovers),
                             "completed_unix": time.time()})
        self._teardown()
        return 0 if clean else 1

    def _teardown(self) -> None:
        with self._lock:
            self._stopping = True
            connections = list(self._connections)
            self._connections.clear()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        if self.kind == "unix":
            Path(self.address).unlink(missing_ok=True)
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self) -> None:
        """Hard stop for tests: no drain marker, no waiter notices."""
        with self._lock:
            self._stopping = True
        self._work.set()
        self._drain_requested.set()
        self._teardown()
        if self._scheduler is not None:
            self._scheduler.join(timeout=5.0)
