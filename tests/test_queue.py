"""Lease-based distributed work queue: protocol, executor, chaos."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import telemetry
from repro.errors import ExperimentError
from repro.experiments.diskcache import CACHE_DIR_ENV, DiskCache, cache_root
from repro.experiments.parallel import active_executor, fan_out, use_executor
from repro.experiments.queue import (
    DEFAULT_TTL,
    QueueExecutor,
    WorkQueue,
    _HeartbeatThread,
    campaign_id,
    decode_result,
    discover_campaigns,
    fn_spec,
    make_cell,
    queue_root,
    queue_usage,
    resolve_fn,
    seeded_jitter,
    sweep_queues,
    work_loop,
)
from repro.experiments.resilience import (
    FaultPlan,
    FaultSpec,
    _decide,
    parse_faults,
    run_campaign,
)
from repro.experiments.runner import ExperimentRunner
from repro.telemetry import TELEMETRY

_SRC = str(Path(repro.__file__).resolve().parents[1])


def counter_sum(prefix: str) -> float:
    snapshot = TELEMETRY.metrics.snapshot()
    return sum(v for k, v in snapshot.items() if k.startswith(prefix))


def _double_cell(runner, value):
    return value * 2


def _slow_cell(runner, value):
    time.sleep(0.05)
    return value + 100


def _failing_cell(runner, value):
    raise ValueError(f"cell {value} is broken")


def _next_wave_cell(runner, queue_dir, seconds, delay):
    """Run for ``seconds``, then publish the next cell ``delay`` seconds
    after returning, the way a coordinator publishes the next figure's
    cells once the last one of this figure has landed."""
    time.sleep(seconds)
    threading.Timer(delay, WorkQueue(queue_dir).publish,
                    ([make_cell(_double_cell, (7,), _PARAMS)],)).start()
    return 0


_PARAMS = {"scale": 1}


def _queue(tmp_path, **kwargs) -> WorkQueue:
    return WorkQueue(tmp_path / "queue" / "camp", **kwargs).ensure()


def _cells(n, fn=_double_cell):
    return [make_cell(fn, (i,), _PARAMS) for i in range(n)]


def _backdate(path: Path, seconds: float) -> None:
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


# ----------------------------------------------------------------------
# Identity: campaigns, cells, fn specs
# ----------------------------------------------------------------------

def test_campaign_id_is_deterministic_and_order_insensitive():
    a = campaign_id(["fig5", "fig6"], quick=True)
    assert a == campaign_id(["fig6", "fig5"], quick=True)
    assert a != campaign_id(["fig5", "fig6"], quick=False)
    assert a != campaign_id(["fig5"], quick=True)


def test_cell_id_covers_fn_args_and_runner_params():
    base = make_cell(_double_cell, (1,), _PARAMS)
    assert base == make_cell(_double_cell, (1,), _PARAMS)
    assert base["cell"] != make_cell(_double_cell, (2,), _PARAMS)["cell"]
    assert base["cell"] != make_cell(_slow_cell, (1,), _PARAMS)["cell"]
    assert base["cell"] != make_cell(_double_cell, (1,),
                                     {"scale": 2})["cell"]
    assert base["generation"] == 0


def test_fn_spec_round_trip():
    spec = fn_spec(_double_cell)
    assert resolve_fn(spec) is _double_cell


@pytest.mark.parametrize("spec", [
    "no-colon", "missing:", ":missing", "repro.experiments.queue:nope",
    "repro.experiments.queue:WorkQueue.claim",  # nested qualname
    "repro.experiments.queue:QUEUE_SCHEMA",     # not callable
])
def test_resolve_fn_rejects_bad_specs(spec):
    with pytest.raises((ExperimentError, ModuleNotFoundError)):
        resolve_fn(spec)


# ----------------------------------------------------------------------
# Claim / complete protocol
# ----------------------------------------------------------------------

def test_publish_claim_complete_round_trip(tmp_path):
    queue = _queue(tmp_path)
    cells = _cells(3)
    assert queue.publish(cells) == 3
    assert queue.counts()["pending"] == 3

    claim = queue.claim("w1")
    assert claim is not None
    assert queue.counts() == {"pending": 2, "leased": 1,
                              "reclaiming": 0, "done": 0, "poison": 0}
    assert claim.lease_path.exists()

    queue.complete(claim, {"answer": 42}, "w1", wall_seconds=0.5)
    records = queue.results()
    assert decode_result(records[claim.cell_id]["result"]) == \
        {"answer": 42}
    assert records[claim.cell_id]["worker"] == "w1"
    assert queue.counts()["done"] == 1
    assert not claim.lease_path.exists()

    # Drain the rest; a fourth claim finds nothing.
    assert queue.claim("w1") is not None
    assert queue.claim("w1") is not None
    assert queue.claim("w1") is None


def test_publish_is_idempotent_across_states(tmp_path):
    queue = _queue(tmp_path)
    cells = _cells(2)
    assert queue.publish(cells) == 2
    assert queue.publish(cells) == 0          # still pending
    claim = queue.claim("w1")
    assert queue.publish(cells) == 0          # one leased
    queue.complete(claim, 0, "w1")
    assert queue.publish(cells) == 0          # journaled + done marker


def test_claim_has_exactly_one_winner(tmp_path):
    queue_a = _queue(tmp_path)
    queue_b = WorkQueue(queue_a.directory)
    queue_a.publish(_cells(1))
    first = queue_a.claim("a")
    second = queue_b.claim("b")
    assert first is not None
    assert second is None


def test_results_journal_tolerates_torn_tail_and_dedups(tmp_path):
    queue = _queue(tmp_path)
    queue.append_result({"cell": "abc", "result": "Z0Y=", "worker": "w1"})
    queue.append_result({"cell": "abc", "result": "Z0Y=", "worker": "w2"})
    with open(queue.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"cell": "torn')   # no newline: a crashed append
    records = queue.results()
    assert set(records) == {"abc"}
    assert records["abc"]["worker"] == "w1"  # first completion wins
    # The torn tail is not consumed; finishing the line surfaces it.
    with open(queue.journal_path, "a", encoding="utf-8") as handle:
        handle.write('", "result": "Z0Y="}\n')
    assert set(queue.results()) == {"abc", "torn"}


def test_claim_settles_cell_already_done(tmp_path):
    """A republished cell whose done marker exists is not re-run."""
    queue = _queue(tmp_path)
    cell = _cells(1)[0]
    queue.publish([cell])
    claim = queue.claim("w1")
    queue.complete(claim, 7, "w1")
    # Simulate a reclaim race republishing the same id.
    (queue.directory / "pending" / f"{cell['cell']}.json").write_text(
        json.dumps(cell), encoding="utf-8")
    assert queue.claim("w2") is None
    assert queue.counts()["pending"] == 0


def test_settle_moves_journaled_cells_to_done(tmp_path):
    queue = _queue(tmp_path)
    cell = _cells(1)[0]
    queue.publish([cell])
    queue.append_result({"cell": cell["cell"], "result": "Z0Y="})
    assert queue.settle([cell["cell"]]) == 1
    assert queue.counts() == {"pending": 0, "leased": 0,
                              "reclaiming": 0, "done": 1, "poison": 0}
    assert queue.settle([cell["cell"]]) == 0


# ----------------------------------------------------------------------
# Heartbeats, lease expiry, reclamation, poison
# ----------------------------------------------------------------------

def test_heartbeats_track_liveness(tmp_path):
    queue = _queue(tmp_path, ttl=5.0)
    queue.register_worker("w1")
    assert "w1" in queue.live_workers()
    _backdate(queue.directory / "heartbeats" / "w1.json", 10.0)
    assert queue.live_workers() == {}
    assert "w1" in queue.worker_ages()           # stale but listed
    assert queue.sweep_heartbeats(max_age=5.0) == 1
    assert queue.worker_ages() == {}


def test_heartbeat_touches_held_leases(tmp_path):
    queue = _queue(tmp_path, ttl=5.0)
    queue.publish(_cells(1))
    claim = queue.claim("w1")
    _backdate(claim.leased_path, 10.0)
    queue.heartbeat("w1", held=(claim.leased_path,))
    assert queue.reclaim_expired() == {"reclaimed": 0, "poisoned": 0,
                                       "healed": 0}


def test_reclaim_expired_bumps_generation(tmp_path):
    queue = _queue(tmp_path, ttl=1.0)
    queue.publish(_cells(1))
    claim = queue.claim("dead-worker")
    assert queue.reclaim_expired()["reclaimed"] == 0  # lease still fresh
    _backdate(claim.leased_path, 5.0)
    stats = queue.reclaim_expired()
    assert stats["reclaimed"] == 1
    assert queue.counts()["pending"] == 1
    assert not claim.lease_path.exists()
    reclaimed = queue.claim("w2")
    assert reclaimed.generation == 1
    history = reclaimed.cell["reclaim_history"]
    assert history[0]["worker"] == "dead-worker"


def test_reclaim_expired_counts_what_it_reclaims(tmp_path):
    """``queue.reclaimed`` counts the leases this process reclaimed."""
    telemetry.enable()
    telemetry.reset()
    queue = _queue(tmp_path, ttl=1.0)
    queue.publish(_cells(1))
    claim = queue.claim("dead-worker")
    _backdate(claim.leased_path, 5.0)
    assert counter_sum("queue.reclaimed") == 0
    assert queue.reclaim_expired()["reclaimed"] == 1
    assert counter_sum("queue.reclaimed") == 1


def test_reclaim_poisons_after_max_generations(tmp_path):
    queue = _queue(tmp_path, ttl=1.0, max_generations=1)
    queue.publish(_cells(1))
    for round_ in range(2):
        claim = queue.claim(f"w{round_}")
        assert claim is not None
        _backdate(claim.leased_path, 5.0)
        queue.reclaim_expired()
    assert queue.counts()["poison"] == 1
    assert queue.claim("w9") is None
    (record,) = queue.poisoned().values()
    assert "reclaim generations" in record["reason"]
    assert len(record["reclaim_history"]) == 2


def test_queue_opened_on_a_campaign_enforces_recorded_policy(tmp_path):
    """A worker learns the TTL and reclaim budget only from the manifest
    its coordinator wrote, and reclaims by them."""
    assert WorkQueue(tmp_path / "default").ensure().manifest()["ttl"] \
        == DEFAULT_TTL
    coordinator = _queue(tmp_path, ttl=0.7, max_generations=1)
    worker = WorkQueue(coordinator.directory)
    assert worker.ttl == 0.7
    assert worker.max_generations == 1
    worker.publish(_cells(1))
    claim = worker.claim("w0")
    _backdate(claim.leased_path, 0.4)
    assert worker.reclaim_expired()["reclaimed"] == 0   # younger than 0.7 s
    _backdate(claim.leased_path, 0.4)
    assert worker.reclaim_expired()["reclaimed"] == 1
    claim = worker.claim("w1")
    assert claim.generation == 1
    _backdate(claim.leased_path, 0.8)
    assert worker.reclaim_expired()["poisoned"] == 1    # one reclaim only


def test_reclaim_heals_stuck_reclaiming_entries(tmp_path):
    queue = _queue(tmp_path, ttl=1.0)
    cell = _cells(1)[0]
    staging = queue.directory / "reclaiming" / f"{cell['cell']}.999"
    staging.write_text(json.dumps(cell), encoding="utf-8")
    _backdate(staging, 5.0)
    assert queue.reclaim_expired()["healed"] == 1
    assert queue.counts()["pending"] == 1


def test_completion_after_reclaim_is_deduplicated(tmp_path):
    """A slow-but-alive worker finishing a reclaimed cell is harmless."""
    queue = _queue(tmp_path, ttl=1.0)
    queue.publish(_cells(1))
    slow = queue.claim("slow")
    _backdate(slow.leased_path, 5.0)
    queue.reclaim_expired()                      # cell back in pending
    queue.complete(slow, "slow-result", "slow")  # journal lands anyway
    fast = queue.claim("fast")
    queue.complete(fast, "fast-result", "fast")
    (record,) = queue.results().values()
    assert decode_result(record["result"]) == "slow-result"  # first wins
    assert queue.settle([fast.cell_id]) == 0     # done marker present


def test_unreadable_cell_spec_is_poisoned_on_claim(tmp_path):
    queue = _queue(tmp_path)
    (queue.directory / "pending" / "garbage.json").write_text(
        "{not json", encoding="utf-8")
    assert queue.claim("w1") is None
    assert queue.counts()["poison"] == 1


# ----------------------------------------------------------------------
# Clock skew: future mtimes on leases and heartbeats
# ----------------------------------------------------------------------

def test_near_future_lease_is_not_reclaimed_early(tmp_path):
    """A lease half a TTL *ahead* of the reclaimer's clock is ordinary
    inter-host skew: the live worker keeps its cell."""
    queue = _queue(tmp_path, ttl=4.0)
    queue.publish(_cells(1))
    claim = queue.claim("skewed")
    _backdate(claim.leased_path, -2.0)
    assert queue.reclaim_expired()["reclaimed"] == 0
    assert queue.counts()["leased"] == 1


def test_far_future_lease_is_reclaimed_not_wedged(tmp_path):
    """A lease many TTLs in the future can never age out naturally —
    it must be treated as stale now, or the campaign wedges forever."""
    queue = _queue(tmp_path, ttl=1.0)
    queue.publish(_cells(1))
    claim = queue.claim("time-traveler")
    _backdate(claim.leased_path, -10.0)
    assert queue.reclaim_expired()["reclaimed"] == 1
    assert queue.counts()["pending"] == 1
    reclaimed = queue.claim("w2")
    assert reclaimed is not None
    assert reclaimed.generation == 1


def test_far_future_reclaiming_entry_heals(tmp_path):
    queue = _queue(tmp_path, ttl=1.0)
    cell = _cells(1)[0]
    staging = queue.directory / "reclaiming" / f"{cell['cell']}.999"
    staging.write_text(json.dumps(cell), encoding="utf-8")
    _backdate(staging, -10.0)
    assert queue.reclaim_expired()["healed"] == 1
    assert queue.counts()["pending"] == 1


def test_far_future_heartbeat_does_not_read_as_live(tmp_path):
    queue = _queue(tmp_path, ttl=5.0)
    queue.register_worker("near")
    queue.register_worker("far")
    _backdate(queue.directory / "heartbeats" / "near.json", -2.0)
    _backdate(queue.directory / "heartbeats" / "far.json", -50.0)
    live = queue.live_workers()
    assert "near" in live                 # within one TTL of skew
    assert "far" not in live              # not "live forever"
    assert "far" in queue.worker_ages()   # still listed for operators


# ----------------------------------------------------------------------
# Deterministic worker jitter (heartbeats + idle polls)
# ----------------------------------------------------------------------

def test_seeded_jitter_is_deterministic_bounded_and_spread():
    first = seeded_jitter("worker-1", "heartbeat", 0.6, 1.0)
    assert first == seeded_jitter("worker-1", "heartbeat", 0.6, 1.0)
    assert 0.6 <= first < 1.0
    fleet = {seeded_jitter(f"worker-{i}", "heartbeat", 0.6, 1.0)
             for i in range(16)}
    assert len(fleet) == 16               # the herd does not thunder
    assert seeded_jitter("worker-1", "idle-poll", 0.75, 1.25) != first


def test_heartbeat_interval_carries_per_worker_jitter():
    a = _HeartbeatThread({}, "w-a", 30.0, FaultPlan())
    b = _HeartbeatThread({}, "w-b", 30.0, FaultPlan())
    expected = max(0.05, 30.0 / 3.0
                   * seeded_jitter("w-a", "heartbeat", 0.6, 1.0))
    assert a.interval == expected
    assert a.interval != b.interval
    # Jitter points *downward* so renewals never outrun the TTL.
    assert 0.6 * 10.0 <= a.interval <= 10.0


def test_heartbeat_takes_a_shorter_interval_at_once(tmp_path):
    """A worker started at the default TTL that joins a 0.6 s campaign
    renews the lease it holds there within 0.6 s, not after the 6-10 s
    wait it began under."""
    queue = _queue(tmp_path, ttl=0.6)
    queue.publish(_cells(1))
    claim = queue.claim("wH")
    heart = _HeartbeatThread({}, "wH", DEFAULT_TTL, FaultPlan())
    heart.start()
    try:
        time.sleep(0.1)              # now waiting out the long interval
        heart.queues["camp"] = queue
        heart.set_held("camp", (claim.leased_path,))
        _backdate(claim.leased_path, 10.0)
        stale = claim.leased_path.stat().st_mtime
        heart.interval = max(0.05, queue.ttl / 3.0 * heart.jitter)
        deadline = time.monotonic() + queue.ttl
        while claim.leased_path.stat().st_mtime == stale \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert claim.leased_path.stat().st_mtime > stale
    finally:
        heart.stop()
        heart.join(timeout=1.0)
    assert not heart.is_alive()


# ----------------------------------------------------------------------
# Executor: fan_out delegation, merge order, degrade, poison errors
# ----------------------------------------------------------------------

class _RecordingExecutor:
    def __init__(self):
        self.calls = []

    def run(self, runner, fn, items):
        self.calls.append((fn, items))
        return [fn(runner, *args) for args in items]


def test_fan_out_delegates_to_active_executor():
    executor = _RecordingExecutor()
    runner = ExperimentRunner()
    assert active_executor() is None
    with use_executor(executor):
        assert active_executor() is executor
        results = fan_out(runner, _double_cell,
                          [(1,), (2,), (3,)], jobs=1)
    assert results == [2, 4, 6]
    assert len(executor.calls) == 1
    assert active_executor() is None


def test_use_executor_none_restores_local_path():
    outer = _RecordingExecutor()
    runner = ExperimentRunner()
    with use_executor(outer):
        with use_executor(None):
            assert fan_out(runner, _double_cell, [(5,)]) == [10]
    assert outer.calls == []


def test_executor_degrades_to_local_run_without_workers(tmp_path):
    telemetry.enable()
    telemetry.reset()
    queue = _queue(tmp_path, ttl=1.0)
    executor = QueueExecutor(queue, grace_seconds=0.0,
                             poll_seconds=0.01)
    runner = ExperimentRunner()
    results = executor.run(runner, _double_cell, [(i,) for i in range(4)])
    assert results == [0, 2, 4, 6]
    assert counter_sum("queue.degraded_cells") == 4
    # Results were journaled: a resumed coordinator replays, not re-runs.
    executor2 = QueueExecutor(queue, grace_seconds=0.0,
                              poll_seconds=0.01)
    assert executor2.run(runner, _double_cell,
                         [(i,) for i in range(4)]) == [0, 2, 4, 6]
    assert counter_sum("queue.degraded_cells") == 4  # unchanged


def test_executor_raises_clear_error_on_poisoned_cell(tmp_path):
    queue = _queue(tmp_path, ttl=1.0, max_generations=0)
    executor = QueueExecutor(queue, grace_seconds=120.0,
                             poll_seconds=0.01)
    runner = ExperimentRunner()

    def doom_first_claim():
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            claim = queue.claim("doomed")
            if claim is not None:
                _backdate(claim.leased_path, 5.0)
                queue.register_worker("doomed")  # keep grace alive
                return
            time.sleep(0.005)

    thread = threading.Thread(target=doom_first_claim)
    thread.start()
    try:
        with pytest.raises(ExperimentError) as err:
            executor.run(runner, _double_cell, [(1,)])
    finally:
        thread.join()
    message = str(err.value)
    assert "poisoned" in message
    assert queue.campaign in message


def test_worker_loop_completes_cells_in_process(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    queue = WorkQueue(queue_root() / "camp-a", ttl=5.0).ensure()
    queue.publish(_cells(3))
    report = work_loop(campaign="camp-a", worker_id="wA",
                       poll_seconds=0.01, max_cells=3,
                       idle_exit_seconds=5.0,
                       faults=FaultPlan(), emit=lambda *_: None)
    assert report.completed == 3
    assert report.campaigns == ["camp-a"]
    assert report.reason == "max-cells"
    records = queue.results()
    assert sorted(decode_result(r["result"])
                  for r in records.values()) == [0, 2, 4]


def test_worker_idle_clock_starts_when_its_cell_is_done(tmp_path,
                                                       monkeypatch):
    """A cell longer than the idle window must not count as idle time:
    the worker stays for the next wave of cells published just after."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    queue = WorkQueue(queue_root() / "camp-w", ttl=5.0).ensure()
    queue.publish([make_cell(_next_wave_cell,
                             (str(queue.directory), 0.6, 0.1), _PARAMS)])
    report = work_loop(campaign="camp-w", worker_id="wW",
                       poll_seconds=0.01, max_cells=2,
                       idle_exit_seconds=0.5,
                       faults=FaultPlan(), emit=lambda *_: None)
    assert report.reason == "max-cells"
    assert report.completed == 2
    assert sorted(decode_result(r["result"])
                  for r in queue.results().values()) == [0, 14]


def test_worker_loop_ignores_closed_campaigns(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    queue = WorkQueue(queue_root() / "camp-b", ttl=5.0).ensure()
    queue.publish(_cells(1))
    queue.close("complete")
    report = work_loop(worker_id="wB", poll_seconds=0.01,
                       idle_exit_seconds=0.05,
                       faults=FaultPlan(), emit=lambda *_: None)
    assert report.completed == 0
    assert report.reason == "no campaigns"


def test_worker_survives_failing_cell_and_lease_recovers(tmp_path,
                                                         monkeypatch):
    """A cell that raises must not kill the worker; its lease expires
    and reclaim accounting (eventually poison) takes over."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    telemetry.enable()
    telemetry.reset()
    queue = WorkQueue(queue_root() / "camp-c", ttl=0.2,
                      max_generations=0).ensure()
    queue.publish([make_cell(_failing_cell, (1,), _PARAMS),
                   make_cell(_double_cell, (2,), _PARAMS)])
    report = work_loop(campaign="camp-c", worker_id="wC",
                       poll_seconds=0.01, max_cells=2,
                       idle_exit_seconds=0.5,
                       faults=FaultPlan(), emit=lambda *_: None)
    assert report.completed == 1          # the healthy cell
    assert report.claims == 2
    assert counter_sum("queue.cell_errors") == 1
    # The failed cell's lease expires; reclaim accounting poisons it
    # (max_generations=0) whether the worker or this sweep gets there.
    time.sleep(0.3)
    queue.reclaim_expired()
    assert queue.counts()["poison"] == 1


# ----------------------------------------------------------------------
# Fault kinds: lease_stall and heartbeat_stop semantics
# ----------------------------------------------------------------------

def test_new_fault_kinds_parse():
    specs = parse_faults("worker_exit:p=1;lease_stall:p=0.5,sleep=1;"
                         "heartbeat_stop:p=1,seed=3")
    assert specs["worker_exit"].probability == 1.0
    assert specs["lease_stall"].sleep_seconds == 1.0
    assert specs["heartbeat_stop"].seed == 3


def test_lease_stall_abandons_then_reclaim_recovers(tmp_path,
                                                    monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    telemetry.enable()
    telemetry.reset()
    queue = WorkQueue(queue_root() / "camp-d", ttl=0.2).ensure()
    cell = make_cell(_double_cell, (21,), _PARAMS)
    queue.publish([cell])
    # Deterministic single stall: fires at generation 0, not at 1.
    seed = next(
        s for s in range(500)
        if _decide(s, "lease_stall", cell["cell"], 0, 0.5)
        and not _decide(s, "lease_stall", cell["cell"], 1, 0.5))
    plan = FaultPlan({"lease_stall": FaultSpec(
        "lease_stall", 0.5, seed=seed, sleep_seconds=0.01)})
    report = work_loop(campaign="camp-d", worker_id="wD",
                       poll_seconds=0.01, max_cells=1,
                       idle_exit_seconds=10.0, faults=plan,
                       emit=lambda *_: None)
    assert report.stalled == 1
    assert report.completed == 1
    (record,) = queue.results().values()
    assert record["generation"] == 1       # recovered via reclamation
    assert decode_result(record["result"]) == 42
    assert counter_sum("queue.stalls_injected") == 1


def test_heartbeat_stop_freezes_renewals(tmp_path):
    from repro.experiments.queue import _HeartbeatThread
    telemetry.enable()
    telemetry.reset()
    queue = _queue(tmp_path, ttl=5.0)
    queue.register_worker("wE")
    beat_path = queue.directory / "heartbeats" / "wE.json"
    _backdate(beat_path, 60.0)
    stopped = FaultPlan({"heartbeat_stop": FaultSpec(
        "heartbeat_stop", 1.0)})
    heart = _HeartbeatThread({"camp": queue}, "wE", ttl=5.0,
                             faults=stopped)
    heart.beat_once()
    assert heart.frozen
    assert queue.live_workers() == {}            # never renewed
    assert counter_sum("queue.heartbeats_frozen") == 1
    healthy = _HeartbeatThread({"camp": queue}, "wE", ttl=5.0,
                               faults=FaultPlan())
    healthy.beat_once()
    assert "wE" in queue.live_workers()


# ----------------------------------------------------------------------
# Maintenance: sweeping and usage
# ----------------------------------------------------------------------

def test_sweep_queues_removes_closed_and_heals_live(tmp_path):
    root = tmp_path / "cache"
    closed = WorkQueue(root / "queue" / "closed", ttl=1.0).ensure()
    closed.close("complete")
    live = WorkQueue(root / "queue" / "live", ttl=1.0).ensure()
    live.publish(_cells(1))
    claim = live.claim("dead")
    _backdate(claim.leased_path, 5.0)
    live.register_worker("dead")
    _backdate(live.directory / "heartbeats" / "dead.json", 500.0)
    (root / "queue" / "not-a-campaign").mkdir()

    stats = sweep_queues(root)
    assert stats["campaigns_removed"] == 2   # closed + manifest-less
    assert stats["leases_reclaimed"] == 1
    assert stats["heartbeats_removed"] == 1
    assert not closed.directory.exists()
    assert live.counts()["pending"] == 1     # reclaimed, not deleted


def test_sweep_queues_removes_idle_campaigns(tmp_path):
    root = tmp_path / "cache"
    stale = WorkQueue(root / "queue" / "stale", ttl=1.0).ensure()
    for path in [stale.directory, *stale.directory.rglob("*")]:
        _backdate(path, 100.0)
    assert sweep_queues(root, max_age=50.0)["campaigns_removed"] == 1
    assert not stale.directory.exists()


def test_queue_usage_counts_campaigns_and_cells(tmp_path):
    root = tmp_path / "cache"
    assert queue_usage(root) == {"campaigns": 0, "cells": 0, "bytes": 0}
    queue = WorkQueue(root / "queue" / "camp", ttl=1.0).ensure()
    queue.publish(_cells(2))
    usage = queue_usage(root)
    assert usage["campaigns"] == 1
    assert usage["cells"] == 2
    assert usage["bytes"] > 0


def test_gc_sweeps_queue_tree(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    queue = WorkQueue(queue_root() / "old", ttl=1.0).ensure()
    queue.close("complete")
    stats = DiskCache().gc(max_bytes=1 << 30)
    assert stats["queue_campaigns_removed"] == 1
    assert not queue.directory.exists()


def test_discover_campaigns_filters(tmp_path):
    root = tmp_path / "queues"
    WorkQueue(root / "a", ttl=1.0).ensure()
    b = WorkQueue(root / "b", ttl=1.0).ensure()
    b.close("complete")
    found = discover_campaigns(root)
    assert [p.name for p in found] == ["a"]
    found = discover_campaigns(root, active_only=False)
    assert [p.name for p in found] == ["a", "b"]
    assert discover_campaigns(root, campaign="b",
                              active_only=False)[0].name == "b"
    assert discover_campaigns(tmp_path / "missing") == []


def test_status_renders_queue_panel(tmp_path, monkeypatch):
    from repro.experiments.status import render_status
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    queue = WorkQueue(queue_root() / "deadbeef0123", ttl=30.0).ensure()
    queue.publish(_cells(2))
    queue.claim("w1")
    queue.register_worker("w1")
    text = render_status()
    assert "deadbeef0123" in text
    assert "1 pending, 1 leased" in text
    assert "w1" in text


# ----------------------------------------------------------------------
# Distributed campaign: coordinator + subprocess worker fleet
# ----------------------------------------------------------------------

def _spawn_worker(queue_dir: Path, *, faults: str = "",
                  extra_env: dict | None = None) -> subprocess.Popen:
    # The worker takes its TTL (2 s in these tests) from the manifest
    # its coordinator wrote.
    env = {**os.environ,
           "PYTHONPATH": _SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                 if os.environ.get("PYTHONPATH") else "")}
    if faults:
        env["REPRO_FAULTS"] = faults
    else:
        env.pop("REPRO_FAULTS", None)
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "work",
         "--queue", str(queue_dir), "--idle-exit", "120"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def test_fig5_campaign_survives_killing_every_worker(tmp_path,
                                                     monkeypatch):
    """Acceptance: 3 workers all die (worker_exit:p=1) right after
    claiming; respawned heartbeat-stopped workers finish via lease
    reclamation; the figure bytes match the serial run exactly."""
    from repro.experiments.figures import fig5
    serial = fig5(ExperimentRunner(), quick=True, jobs=1)

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "dist-cache"))
    telemetry.enable()
    telemetry.reset()
    queue = WorkQueue(queue_root() / campaign_id(["fig5"], True),
                      ttl=2.0).ensure(
        extra={"cache_dir": str(cache_root())})

    doomed = [_spawn_worker(queue.directory, faults="worker_exit:p=1")
              for _ in range(3)]
    outcome = {}

    def coordinate():
        executor = QueueExecutor(queue, grace_seconds=300.0,
                                 poll_seconds=0.05)
        with use_executor(executor):
            outcome["figure"] = fig5(ExperimentRunner(), quick=True,
                                     jobs=1)

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    fleet = []
    try:
        # Every doomed worker must die mid-claim (exit 23), at least
        # once each — that is the acceptance condition.
        for proc in doomed:
            assert proc.wait(timeout=120) == 23
        # The respawned fleet also runs with frozen heartbeats: cells
        # may be reclaimed out from under live workers, and the journal
        # dedups the duplicate completions.
        fleet = [_spawn_worker(queue.directory,
                               faults="heartbeat_stop:p=1")
                 for _ in range(3)]
        coordinator.join(timeout=240)
        assert not coordinator.is_alive()
    finally:
        for proc in doomed + fleet:
            if proc.poll() is None:
                proc.terminate()
        for proc in fleet:
            proc.wait(timeout=30)

    assert outcome["figure"].rendered == serial.rendered
    assert outcome["figure"].data == serial.data
    # Recovery actually happened: at least one journaled completion
    # carries a bumped reclaim generation. Which process reclaimed it
    # is a race (idle peers reclaim too), so the coordinator's own
    # ``queue.reclaimed`` counter is checked in
    # test_reclaim_expired_counts_what_it_reclaims instead.
    generations = [record.get("generation", 0)
                   for record in queue.results().values()]
    assert max(generations) >= 1
    assert queue.counts()["poison"] == 0


def test_distributed_campaign_degrades_without_workers(tmp_path,
                                                       monkeypatch):
    """No fleet ever shows up: the coordinator finishes alone and the
    run is byte-identical to a serial campaign."""
    from repro.experiments.figures import fig5
    serial = fig5(ExperimentRunner(), quick=True, jobs=1)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "solo-cache"))
    telemetry.enable()
    telemetry.reset()
    lines = []
    report = run_campaign(names=["fig5"], quick=True, distributed=True,
                          grace_seconds=0.0, emit=lines.append)
    assert report.completed == ["fig5"]
    assert report.failed == []
    assert report.queue_dir
    assert counter_sum("queue.degraded_cells") > 0
    assert serial.rendered in "\n".join(lines)
    # The campaign closed its queue; gc reaps the directory.
    queue = WorkQueue(report.queue_dir)
    assert not queue.is_active()
    stats = DiskCache().gc(max_bytes=1 << 30)
    assert stats["queue_campaigns_removed"] == 1


def test_distributed_campaign_reports_poisoned_figure(tmp_path,
                                                      monkeypatch):
    """A figure whose cells poison is recorded as failed, loudly, and
    does not stall the rest of the campaign."""
    from repro.experiments import figures as figures_mod
    from repro.experiments import resilience as resilience_mod

    def bad_figure(runner, quick=True, jobs=None):
        return fan_out(runner, _double_cell, [(1,)], jobs=jobs)

    def good_figure(runner, quick=True, jobs=None):
        return fan_out(runner, _double_cell, [(2,)], jobs=jobs)

    monkeypatch.setattr(figures_mod, "ALL_FIGURES",
                        {"bad": bad_figure, "good": good_figure})
    monkeypatch.setattr(figures_mod, "FIGURE_SCALES",
                        {"bad": 1, "good": 1})
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))

    real_executor_run = QueueExecutor.run

    def sabotaged_run(self, runner, fn, items):
        if items == [(1,)]:
            cell = make_cell(fn, (1,), runner.queue_params())
            self.queue.ensure()
            self.queue._poison_file(
                self.queue.directory / "pending" / "nonexistent.json",
                reason="synthetic", cell=cell)
        return real_executor_run(self, runner, fn, items)

    monkeypatch.setattr(QueueExecutor, "run", sabotaged_run)
    lines = []
    report = run_campaign(names=["bad", "good"], quick=True,
                          distributed=True, grace_seconds=0.0,
                          checkpoint=tmp_path / "journal",
                          emit=lines.append)
    assert report.failed == ["bad"]
    assert report.completed == ["good"]
    assert any("FAILED" in line and "poisoned" in line
               for line in lines)
    # The failed figure was not checkpointed: a rerun retries it.
    from repro.experiments.resilience import load_checkpoint
    assert set(load_checkpoint(tmp_path / "journal")) == {"good"}
