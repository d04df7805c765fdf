"""Sweep server: admission, fairness, deadlines, crash-safe journal."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro import telemetry
from repro.errors import ExperimentError, ReproError
from repro.experiments.client import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    RETRY_AFTER,
    ServeClient,
    ServeUnavailable,
    parse_endpoint,
    request_key,
    serve_root,
    wait_until_ready,
)
from repro.experiments.figures import fig5
from repro.experiments.resilience import FAULTS_ENV, FaultPlan, _decide
from repro.experiments.runner import ExperimentRunner
from repro.experiments.server import (
    CRASH_EXIT,
    SessionJournal,
    SweepServer,
    TokenBucket,
    _Responder,
    estimate_cost,
)
from repro.telemetry import TELEMETRY

_SRC = str(Path(repro.__file__).resolve().parents[1])

_NO_FAULTS = FaultPlan()


def counter_sum(prefix: str) -> float:
    snapshot = TELEMETRY.metrics.snapshot()
    return sum(v for k, v in snapshot.items() if k.startswith(prefix))


def _start(tmp_path, **kwargs) -> SweepServer:
    kwargs.setdefault("tcp", "127.0.0.1:0")
    kwargs.setdefault("serve_dir", tmp_path / "serve")
    # Generous admission defaults so individual tests exercise exactly
    # one mechanism at a time.
    kwargs.setdefault("tenant_rate", 1000.0)
    kwargs.setdefault("tenant_burst", 1000.0)
    kwargs.setdefault("faults", _NO_FAULTS)
    return SweepServer(**kwargs).start()


@contextmanager
def _server(tmp_path, **kwargs):
    server = _start(tmp_path, **kwargs)
    try:
        yield server
    finally:
        server.stop()


def _client(server: SweepServer, **kwargs) -> ServeClient:
    host, port = server.address
    kwargs.setdefault("timeout", 60.0)
    kwargs.setdefault("faults", _NO_FAULTS)
    return ServeClient(tcp=f"{host}:{port}", **kwargs)


def _wait_for_result(server: SweepServer, key: str,
                     timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with server._lock:
            record = server._results.get(key)
        if record is not None:
            return record
        time.sleep(0.02)
    raise AssertionError(f"no journaled result for key {key!r}")


def _wait_for_inflight(server: SweepServer, count: int,
                       timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with server._lock:
            if len(server._known) >= count:
                return
        time.sleep(0.01)
    raise AssertionError(f"never saw {count} requests in flight")


def _wait_for_running(server: SweepServer, key: str,
                      timeout: float = 10.0) -> None:
    """Wait until the scheduler has picked ``key`` up. Admission alone
    (``_wait_for_inflight``) leaves a window in which a drain finds the
    request still queued rather than running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with server._lock:
            if server._current is not None and server._current.key == key:
                return
        time.sleep(0.01)
    raise AssertionError(f"request {key!r} never started running")


# ---------------------------------------------------------------------------
# Units: token bucket, cost model, keys, endpoints, journal
# ---------------------------------------------------------------------------


def test_token_bucket_burst_then_wait_then_refill():
    bucket = TokenBucket(rate=2.0, burst=4.0)
    t0 = bucket._updated
    for _ in range(4):
        assert bucket.take(1.0, now=t0) == 0.0
    wait = bucket.take(1.0, now=t0)
    assert wait == pytest.approx(0.5)  # 1 token / 2 per second
    # Nothing was taken on failure; one second refills two tokens.
    assert bucket.take(1.0, now=t0 + 1.0) == 0.0
    assert bucket.take(1.0, now=t0 + 1.0) == 0.0
    assert bucket.take(1.0, now=t0 + 1.0) > 0.0


def test_token_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate=10.0, burst=3.0)
    # Long idle: the refill clamps at burst instead of accumulating.
    bucket.take(0.0, now=bucket._updated + 500.0)
    assert bucket.tokens == pytest.approx(3.0)


def test_estimate_cost_scales_with_request_weight():
    assert estimate_cost({"type": "bench", "cells": 7}) == 7.0
    assert estimate_cost({"type": "figure", "figure": "table1"}) == 1.0
    quick = estimate_cost({"type": "figure", "figure": "fig5",
                           "quick": True})
    full = estimate_cost({"type": "figure", "figure": "fig5",
                          "quick": False})
    assert quick < full


def test_request_key_is_deterministic_and_tenant_scoped():
    spec = {"type": "figure", "figure": "fig5", "quick": True}
    assert request_key("alice", spec) == request_key("alice", dict(spec))
    assert request_key("alice", spec) != request_key("bob", spec)
    assert len(request_key("alice", spec)) == 16


def test_parse_endpoint_resolution_order(tmp_path):
    assert parse_endpoint(None, "127.0.0.1:9000") == \
        ("tcp", ("127.0.0.1", 9000))
    # Explicit TCP wins over an explicit socket path.
    assert parse_endpoint(tmp_path / "s.sock", "h:1")[0] == "tcp"
    kind, address = parse_endpoint(tmp_path / "s.sock", None)
    assert kind == "unix" and address == str(tmp_path / "s.sock")
    with pytest.raises(ReproError):
        parse_endpoint(None, "no-port-here")
    with pytest.raises(ReproError):
        parse_endpoint(None, "host:notaport")


def test_session_journal_replay_skips_torn_tail_first_record_wins(tmp_path):
    journal = SessionJournal(tmp_path / "serve")
    journal.append({"type": "request", "key": "k1", "tenant": "a",
                    "spec": {"type": "bench", "cells": 1}})
    journal.append({"type": "result", "key": "k1", "status": "ok",
                    "rendered": "first"})
    # Duplicate result for the same key: the first one wins on replay.
    journal.append({"type": "result", "key": "k1", "status": "ok",
                    "rendered": "second"})
    # A torn tail (killed mid-append) must not poison the replay.
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "type": "result", "key": "k2"')
    requests, results = journal.load()
    assert set(requests) == {"k1"}
    assert results["k1"]["rendered"] == "first"
    assert "k2" not in results


# ---------------------------------------------------------------------------
# Probes and request validation
# ---------------------------------------------------------------------------


def test_ping_ready_and_status_probes(tmp_path):
    with _server(tmp_path) as server:
        cli = _client(server)
        assert wait_until_ready(cli, timeout=10.0)
        pong = cli.probe("ping")
        assert pong["ok"] and pong["type"] == "pong"
        assert pong["pid"] == os.getpid()
        status = cli.probe("status")
        assert status["ok"] and not status["draining"]
        assert status["endpoint"] == server.endpoint
        assert status["inflight"] == 0
        assert status["journal"]["path"] == str(server.journal.path)


def test_bad_requests_get_typed_errors(tmp_path):
    with _server(tmp_path) as server:
        cli = _client(server)
        assert cli.request({"type": "nonsense"})["error"] == BAD_REQUEST
        assert cli.request({"type": "figure", "figure": "nope"}
                           )["error"] == BAD_REQUEST
        assert cli.request({"type": "bench", "cells": -3}
                           )["error"] == BAD_REQUEST
        assert cli.request({"type": "bench", "cells": 1,
                            "deadline_seconds": "soon"}
                           )["error"] == BAD_REQUEST
        # A non-JSON line must be answered, not crash the reader.
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("r").readline()
        finally:
            sock.close()
        assert json.loads(line)["error"] == BAD_REQUEST


# ---------------------------------------------------------------------------
# Execution, journaling, idempotent re-ask
# ---------------------------------------------------------------------------


def test_bench_runs_journals_and_counts_cells(tmp_path):
    telemetry.enable()
    with _server(tmp_path) as server:
        cli = _client(server)
        response = cli.bench(cells=3, key="bench-3")
        assert response["ok"] and response["cells"] == 3
        assert response["rendered"] == "bench: 3 cells x 0s"
        requests, results = server.journal.load()
        assert "bench-3" in requests and "bench-3" in results
        assert results["bench-3"]["status"] == "ok"
        assert counter_sum("serve.cells") == 3


def test_reask_by_key_is_answered_from_the_journal(tmp_path):
    with _server(tmp_path) as server:
        cli = _client(server)
        first = cli.bench(cells=2, key="idem")
        again = cli.bench(cells=2, key="idem")
        assert first["ok"] and again["ok"]
        assert again["rendered"] == first["rendered"]
        stats = server.stats_snapshot()
        assert stats["served"] == 1
        assert stats["journal_hits"] == 1


def test_same_key_while_running_attaches_as_waiter(tmp_path):
    with _server(tmp_path) as server:
        responses = {}

        def ask(slot):
            responses[slot] = _client(server).bench(
                cells=10, cell_seconds=0.05, key="shared")

        first = threading.Thread(target=ask, args=("first",))
        first.start()
        _wait_for_inflight(server, 1)
        second = threading.Thread(target=ask, args=("second",))
        second.start()
        first.join(timeout=30)
        second.join(timeout=30)
        assert responses["first"]["ok"] and responses["second"]["ok"]
        assert responses["first"]["key"] == responses["second"]["key"]
        # One execution served both askers.
        assert server.stats_snapshot()["served"] == 1


# ---------------------------------------------------------------------------
# Admission control: quota and backpressure
# ---------------------------------------------------------------------------


def test_quota_exhaustion_sheds_with_retry_after(tmp_path):
    with _server(tmp_path, tenant_rate=0.1, tenant_burst=1.0) as server:
        cli = _client(server)
        assert cli.bench(cells=1, key="q1")["ok"]
        shed = cli.bench(cells=1, key="q2")
        assert shed["error"] == RETRY_AFTER
        assert shed["reason"] == "quota"
        assert shed["retry_after"] > 0
        assert server.stats_snapshot()["rejected"] == 1
        # Tenants are isolated: another tenant's bucket is untouched.
        other = _client(server, tenant="other")
        assert other.bench(cells=1, key="q3", tenant="other")["ok"]


def test_backpressure_bounds_inflight_requests(tmp_path):
    with _server(tmp_path, max_inflight=1) as server:
        done = {}

        def ask():
            done["slow"] = _client(server).bench(
                cells=20, cell_seconds=0.05, key="occupant")

        thread = threading.Thread(target=ask)
        thread.start()
        _wait_for_inflight(server, 1)
        shed = _client(server).bench(cells=1, key="overflow")
        assert shed["error"] == RETRY_AFTER
        assert shed["reason"] == "backpressure"
        thread.join(timeout=30)
        assert done["slow"]["ok"]


# ---------------------------------------------------------------------------
# Deadlines: cooperative cancellation between cells
# ---------------------------------------------------------------------------


def test_deadline_cancels_between_cells_and_is_terminal(tmp_path):
    with _server(tmp_path) as server:
        cli = _client(server)
        response = cli.bench(cells=50, cell_seconds=0.05,
                             key="late", deadline_seconds=0.12)
        assert response["error"] == DEADLINE_EXCEEDED
        _, results = server.journal.load()
        record = results["late"]
        assert record["status"] == "deadline"
        assert record["cells"] < 50  # cancelled partway, not run out
        # Terminal: the re-ask gets the journaled expiry, no re-run.
        again = cli.bench(cells=50, cell_seconds=0.05, key="late")
        assert again["error"] == DEADLINE_EXCEEDED
        assert server.stats_snapshot()["deadline"] == 1


def test_restart_expires_requests_whose_deadline_passed(tmp_path):
    journal = SessionJournal(tmp_path / "serve")
    journal.append({"type": "request", "key": "expired", "tenant": "a",
                    "spec": {"type": "bench", "cells": 1},
                    "deadline_unix": time.time() - 5.0,
                    "accepted_unix": time.time() - 10.0})
    with _server(tmp_path) as server:
        record = _wait_for_result(server, "expired", timeout=5.0)
        assert record["status"] == "deadline"
        response = _client(server).bench(cells=1, key="expired")
        assert response["error"] == DEADLINE_EXCEEDED


# ---------------------------------------------------------------------------
# Crash safety: journal resume across restarts
# ---------------------------------------------------------------------------


def test_restart_resumes_journaled_unfinished_request(tmp_path):
    journal = SessionJournal(tmp_path / "serve")
    journal.append({"type": "request", "key": "orphan", "tenant": "a",
                    "spec": {"type": "bench", "cells": 2,
                             "cell_seconds": 0.0},
                    "deadline_unix": None,
                    "accepted_unix": time.time()})
    with _server(tmp_path) as server:
        assert server.stats_snapshot()["resumed"] == 1
        record = _wait_for_result(server, "orphan")
        assert record["status"] == "ok"
        # The original client re-asks by key and gets the answer.
        response = _client(server).bench(cells=2, key="orphan")
        assert response["ok"]
        assert response["rendered"] == "bench: 2 cells x 0s"


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


def test_drain_finishes_inflight_sheds_queued_and_resumes(tmp_path):
    responses = {}
    with _server(tmp_path) as server:
        def ask(slot, key):
            responses[slot] = _client(server).bench(
                cells=10, cell_seconds=0.05, key=key)

        running = threading.Thread(target=ask, args=("running", "r1"))
        running.start()
        _wait_for_running(server, "r1")
        queued = threading.Thread(target=ask, args=("queued", "r2"))
        queued.start()
        _wait_for_inflight(server, 2)
        drain_ack = _client(server).drain()
        assert drain_ack["ok"]
        # New work is shed immediately while draining.
        late = _client(server).bench(cells=1, key="r3")
        assert late["error"] == RETRY_AFTER
        assert late["reason"] == "draining"
        assert server.drain(grace=30.0) == 0
        running.join(timeout=30)
        queued.join(timeout=30)
    # The in-flight request finished inside the grace window; the
    # queued one was answered with a typed draining shed.
    assert responses["running"]["ok"]
    assert responses["queued"]["error"] == RETRY_AFTER
    assert responses["queued"]["reason"] == "draining"
    # Restart on the same journal: the queued request resumes and its
    # client gets the answer by re-asking with the same key.
    with _server(tmp_path) as reborn:
        assert reborn.stats_snapshot()["resumed"] == 1
        record = _wait_for_result(reborn, "r2")
        assert record["status"] == "ok"
        response = _client(reborn).bench(cells=10, key="r2")
        assert response["ok"]


def test_drain_past_grace_aborts_between_cells_then_resumes(tmp_path):
    telemetry.enable()
    responses = {}
    with _server(tmp_path) as server:
        def ask():
            responses["victim"] = _client(server).bench(
                cells=40, cell_seconds=0.03, key="long")

        thread = threading.Thread(target=ask)
        thread.start()
        _wait_for_running(server, "long")
        assert server.drain(grace=0.05) == 0
        thread.join(timeout=30)
        assert responses["victim"]["error"] == RETRY_AFTER
        assert responses["victim"]["reason"] == "draining"
        # The abort is deliberately NOT journaled as a result...
        _, results = server.journal.load()
        assert "long" not in results
        assert counter_sum("serve.aborted") >= 1
    # ...so a restart re-runs it from the acceptance record.
    with _server(tmp_path) as reborn:
        record = _wait_for_result(reborn, "long")
        assert record["status"] == "ok"
        assert record["cells"] == 40


def test_drain_request_is_answered_before_teardown(tmp_path, monkeypatch):
    """``repro serve`` drains, closing every connection, as soon as a
    drain is requested. The client that asked must get its answer
    first, however late its connection thread sends it, and admission
    must already be closed when that answer arrives."""
    send = _Responder.send
    admitting = []

    def late_drain_ack(self, payload):
        if payload.get("type") == "drain":
            admitting.append(not server._draining)
            time.sleep(0.3)
        return send(self, payload)

    monkeypatch.setattr(_Responder, "send", late_drain_ack)
    server = _start(tmp_path)
    drained = []

    def serve_main():
        # What the ``serve`` command's main thread does.
        server.wait_for_drain_request()
        drained.append(server.drain())

    main = threading.Thread(target=serve_main)
    main.start()
    try:
        ack = _client(server).drain()
    finally:
        server.request_drain()
        main.join(timeout=30)
    assert ack["ok"] and ack["type"] == "drain"
    assert admitting == [False]
    assert drained == [0]


# ---------------------------------------------------------------------------
# Fair-share scheduling (deficit round-robin)
# ---------------------------------------------------------------------------


def test_drr_interleaves_light_tenant_through_heavy_backlog(tmp_path):
    heavy_n, light_n = 5, 4
    with _server(tmp_path, quantum=4.0) as server:
        threads = []

        def ask(tenant, key, cells):
            _client(server, tenant=tenant).bench(
                cells=cells, cell_seconds=0.03, key=key, tenant=tenant)

        for i in range(heavy_n):
            thread = threading.Thread(
                target=ask, args=("heavy", f"h{i}", 6))
            thread.start()
            threads.append(thread)
        _wait_for_inflight(server, heavy_n)
        for i in range(light_n):
            thread = threading.Thread(
                target=ask, args=("light", f"l{i}", 1))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=60)
        lines = server.journal.path.read_text().splitlines()
    order = [json.loads(line)["tenant"] for line in lines
             if json.loads(line).get("type") == "result"]
    assert order.count("heavy") == heavy_n
    assert order.count("light") == light_n
    # FIFO would run every heavy request before any light one. DRR
    # must interleave: the first light completion happens while most
    # of the heavy backlog is still pending, and the light tenant is
    # fully served before the heavy tenant finishes.
    first_light = order.index("light")
    assert order[:first_light].count("heavy") <= 3
    last_light = len(order) - 1 - order[::-1].index("light")
    last_heavy = len(order) - 1 - order[::-1].index("heavy")
    assert last_light < last_heavy


# ---------------------------------------------------------------------------
# Warm queries come straight from the disk cache
# ---------------------------------------------------------------------------


def test_warm_figure_query_skips_the_simulator(tmp_path):
    telemetry.enable()
    with _server(tmp_path) as server:
        cli = _client(server)
        cold = cli.query_figure("fig5", quick=True, key="cold")
        assert cold["ok"]
        executed = counter_sum("guest.instructions")
        assert executed > 0  # the cold pass really simulated
        warm = cli.query_figure("fig5", quick=True, key="warm")
        assert warm["ok"]
        assert warm["rendered"] == cold["rendered"]
        # Byte-identical answer without a single guest instruction:
        # every cell was a content-addressed cache hit.
        assert counter_sum("guest.instructions") == executed
        assert server.stats_snapshot()["journal_hits"] == 0


# ---------------------------------------------------------------------------
# Fault injection: slow tenants and vanishing clients
# ---------------------------------------------------------------------------


def test_slow_tenant_fault_stretches_that_tenants_cells(tmp_path):
    plan = FaultPlan.from_env("slow_tenant:p=1,sleep=0.05")
    with _server(tmp_path, faults=plan) as server:
        response = _client(server).bench(cells=3, key="slowed")
        assert response["ok"]
        # One checkpoint on entry plus one per cell, 0.05s each.
        assert response["wall_seconds"] >= 0.15


def test_client_disconnect_fault_still_journals_the_answer(tmp_path):
    plan = FaultPlan.from_env("client_disconnect:p=1")
    with _server(tmp_path) as server:
        flaky = _client(server, faults=plan)
        assert flaky.bench(cells=3, cell_seconds=0.1, key="gone") is None
        record = _wait_for_result(server, "gone")
        assert record["status"] == "ok"
        # The vanished client re-asks by key and gets the answer.
        response = _client(server).bench(cells=3, key="gone")
        assert response["ok"]
        assert server.stats_snapshot()["disconnects"] >= 1


# ---------------------------------------------------------------------------
# Unix socket hygiene
# ---------------------------------------------------------------------------


def test_unix_socket_path_length_is_checked_early(tmp_path):
    server = SweepServer(socket_path="/tmp/" + "x" * 120,
                         serve_dir=tmp_path / "serve",
                         faults=_NO_FAULTS)
    with pytest.raises(ExperimentError, match="AF_UNIX"):
        server.start()


def test_unix_stale_socket_reclaimed_live_socket_refused(tmp_path):
    import tempfile
    short_dir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    path = short_dir / "s.sock"
    try:
        path.touch()  # stale leftover from a crashed server
        with _server(tmp_path, tcp=None, socket_path=path) as server:
            cli = ServeClient(socket_path=path, timeout=10.0,
                              faults=_NO_FAULTS)
            assert wait_until_ready(cli, timeout=10.0)
            # A second server must refuse the *live* socket.
            rival = SweepServer(socket_path=path,
                                serve_dir=tmp_path / "serve2",
                                faults=_NO_FAULTS)
            with pytest.raises(ExperimentError, match="already"):
                rival.start()
            assert server.endpoint == f"unix:{path}"
        assert not path.exists()  # teardown unlinked it
    finally:
        path.unlink(missing_ok=True)
        short_dir.rmdir()


# ---------------------------------------------------------------------------
# CLI round trips (subprocess)
# ---------------------------------------------------------------------------


def _spawn_server(extra_env: dict | None = None,
                  *args: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    env.pop(FAULTS_ENV, None)
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--tcp", "127.0.0.1:0", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    line = proc.stdout.readline()
    assert "listening on tcp:" in line, line
    endpoint = line.split("listening on tcp:")[1].split()[0]
    return proc, endpoint


def _query(endpoint: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    env.pop(FAULTS_ENV, None)
    return subprocess.run(
        [sys.executable, "-m", "repro", "query",
         "--tcp", endpoint, *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_cli_serve_answers_queries_and_drains_on_sigterm():
    proc, endpoint = _spawn_server()
    try:
        probe = _query(endpoint, "--probe", "ping")
        assert probe.returncode == 0, probe.stdout + probe.stderr
        answer = _query(endpoint, "table1")
        assert answer.returncode == 0, answer.stdout + answer.stderr
        assert answer.stdout.strip()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        tail = proc.stdout.read()
        assert "drained" in tail
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _crash_seed(key: str, probability: float) -> int:
    """A seed whose first server_crash firing lands mid-campaign
    (cell index 2..6 of fig5-quick's 8 cells)."""
    for seed in range(1, 500):
        fired = [i for i in range(8)
                 if _decide(seed, "server_crash", f"{key}#{i}", 0,
                            probability)]
        if fired and 2 <= fired[0] <= 6:
            return seed
    raise AssertionError("no crash seed found")


def test_server_crash_mid_campaign_resume_is_byte_identical():
    """The chaos acceptance test: kill the server between cells of a
    figure campaign, restart it, and prove the resumed answer is
    byte-identical to a serial in-process run."""
    serial = str(fig5(ExperimentRunner(), quick=True, jobs=1))
    key = "chaos-fig5"
    seed = _crash_seed(key, probability=0.5)

    crashy, endpoint = _spawn_server(
        {FAULTS_ENV: f"server_crash:p=0.5,seed={seed}"})
    try:
        # The in-flight query dies with the server.
        asked = _query(endpoint, "fig5", "--key", key)
        assert asked.returncode != 0
        assert crashy.wait(timeout=30) == CRASH_EXIT
    finally:
        if crashy.poll() is None:
            crashy.kill()
            crashy.wait(timeout=10)
    # The acceptance record survived the crash; no result did.
    journal = SessionJournal(serve_root())
    requests, results = journal.load()
    assert key in requests and key not in results

    reborn, endpoint = _spawn_server()
    try:
        # The restarted server re-runs the journaled request; the
        # client just re-asks by key.
        answer = _query(endpoint, "fig5", "--key", key)
        assert answer.returncode == 0, answer.stdout + answer.stderr
        assert answer.stdout.rstrip("\n") == serial.rstrip("\n")
        reborn.send_signal(signal.SIGTERM)
        assert reborn.wait(timeout=30) == 0
    finally:
        if reborn.poll() is None:
            reborn.kill()
            reborn.wait(timeout=10)
