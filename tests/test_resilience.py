"""Fault injection, supervised fan-out recovery, and checkpoint/resume."""

from __future__ import annotations

import os
import pickle

import pytest

from repro import telemetry
from repro.errors import ExperimentError
from repro.experiments import figures as figures_mod
from repro.experiments.diskcache import CACHE_DIR_ENV
from repro.experiments.parallel import (
    fan_out,
    jobs_cap,
    resolve_jobs,
)
from repro.experiments.resilience import (
    FAULTS_ENV,
    CampaignReport,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    _decide,
    append_checkpoint,
    load_checkpoint,
    parse_faults,
    run_campaign,
)
from repro.experiments.runner import ExperimentRunner
from repro.telemetry import TELEMETRY


def counter_sum(prefix: str) -> float:
    """Total of every metric whose key starts with ``prefix``."""
    snapshot = TELEMETRY.metrics.snapshot()
    return sum(v for k, v in snapshot.items() if k.startswith(prefix))


# ----------------------------------------------------------------------
# Fault grammar
# ----------------------------------------------------------------------

def test_parse_faults_full_grammar():
    specs = parse_faults("worker_crash:p=0.3,seed=7;"
                         "cell_timeout:p=0.2,seed=2,sleep=5;"
                         "cache_corrupt:p=1")
    assert specs["worker_crash"] == FaultSpec("worker_crash", 0.3, seed=7)
    assert specs["cell_timeout"].sleep_seconds == 5.0
    assert specs["cell_timeout"].seed == 2
    assert specs["cache_corrupt"].probability == 1.0
    assert specs["cache_corrupt"].seed == 0  # default


def test_parse_faults_tolerates_whitespace_and_empty_clauses():
    specs = parse_faults("  worker_crash : p=1 , seed=3 ; ;")
    assert specs == {"worker_crash": FaultSpec("worker_crash", 1.0,
                                               seed=3)}
    assert parse_faults("") == {}
    assert parse_faults("  ;  ") == {}


@pytest.mark.parametrize("text", [
    "disk_on_fire:p=1",            # unknown kind
    "worker_crash:p=1,foo=2",      # unknown parameter
    "worker_crash:seed=1",         # p is required
    "worker_crash:p=nope",         # p must be a float
    "worker_crash:p=1.5",          # p out of range
    "worker_crash:p=-0.1",
    "worker_crash:p=1,seed=x",     # seed must be an int
    "cell_timeout:p=1,sleep=soon",
    "worker_crash:p",              # not key=value
])
def test_parse_faults_rejects_bad_grammar(text):
    with pytest.raises(ExperimentError):
        parse_faults(text)


def test_fault_plan_from_env(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    assert not FaultPlan.from_env()
    monkeypatch.setenv(FAULTS_ENV, "worker_crash:p=0.5,seed=9")
    plan = FaultPlan.from_env()
    assert plan
    assert plan.spec("worker_crash").seed == 9
    assert plan.spec("cell_timeout") is None


def test_fault_plan_pickles():
    plan = FaultPlan({"worker_crash": FaultSpec("worker_crash", 0.25,
                                                seed=4)})
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.should_fire("worker_crash", "site", 0) \
        == plan.should_fire("worker_crash", "site", 0)


def test_decide_is_deterministic_with_exact_edges():
    assert not _decide(0, "worker_crash", "s", 0, 0.0)
    assert _decide(0, "worker_crash", "s", 0, 1.0)
    first = _decide(3, "worker_crash", "cell#0", 0, 0.5)
    assert _decide(3, "worker_crash", "cell#0", 0, 0.5) == first
    # With p=0.5 some attempt must fire and some must not: a retried
    # cell makes progress instead of re-hitting the same injection.
    outcomes = {_decide(3, "worker_crash", "cell#0", attempt, 0.5)
                for attempt in range(64)}
    assert outcomes == {True, False}


def test_should_fire_defaults_to_false_without_spec():
    assert not FaultPlan().should_fire("worker_crash", "anywhere")


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

def test_backoff_grows_exponentially_and_saturates():
    policy = RetryPolicy(backoff_base=0.1, backoff_max=0.5)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.4)
    assert policy.backoff(4) == pytest.approx(0.5)  # capped
    assert policy.backoff(40) == pytest.approx(0.5)


def test_retry_policy_defaults():
    # What fan_out supervises with when its caller passes no policy.
    policy = RetryPolicy()
    assert policy.max_retries == 3
    assert policy.timeout is None


def test_resolve_jobs_rejects_fork_bombs():
    cap = jobs_cap()
    assert resolve_jobs(cap) == cap
    with pytest.raises(ExperimentError, match="sane cap"):
        resolve_jobs(cap + 1)


# ----------------------------------------------------------------------
# Supervised fan-out
# ----------------------------------------------------------------------

_FAST = RetryPolicy(max_retries=2, backoff_base=0.005, backoff_max=0.01,
                    max_pool_rebuilds=2)


def _tenfold_cell(runner, value):
    return value * 10


def _crash_sites(n):
    return [f"{_tenfold_cell.__module__}.{_tenfold_cell.__qualname__}#{i}"
            for i in range(n)]


def _seed_with_single_round_of_crashes(kind, n, probability):
    """A seed where >=1 cell faults at attempt 0 and none at attempt 1.

    Exists because decisions are a pure hash; searching for it keeps the
    test meaningful (a crash definitely happens) yet guaranteed to
    recover in exactly one pool rebuild.
    """
    for seed in range(500):
        plan = FaultPlan({kind: FaultSpec(kind, probability, seed=seed,
                                          sleep_seconds=5.0)})
        fires = [[plan.should_fire(kind, site, attempt)
                  for site in _crash_sites(n)] for attempt in (0, 1)]
        if any(fires[0]) and not any(fires[1]):
            return seed
    raise AssertionError("no suitable seed in range")


def test_fan_out_recovers_lost_cells_after_worker_crash(monkeypatch):
    telemetry.enable()
    telemetry.reset()
    seed = _seed_with_single_round_of_crashes("worker_crash", 4, 0.5)
    monkeypatch.setenv(FAULTS_ENV, f"worker_crash:p=0.5,seed={seed}")
    runner = ExperimentRunner()
    results = fan_out(runner, _tenfold_cell, [(v,) for v in range(4)],
                      jobs=2, policy=_FAST)
    assert results == [0, 10, 20, 30]
    assert counter_sum("resilience.pool_rebuilds") == 1
    assert counter_sum("resilience.retries{reason=crash}") >= 1
    assert counter_sum("resilience.serial_fallbacks") == 0


def test_fan_out_degrades_to_serial_when_pool_keeps_dying(monkeypatch):
    telemetry.enable()
    telemetry.reset()
    monkeypatch.setenv(FAULTS_ENV, "worker_crash:p=1")
    runner = ExperimentRunner()
    results = fan_out(runner, _tenfold_cell, [(v,) for v in range(5)],
                      jobs=2, policy=_FAST)
    assert results == [0, 10, 20, 30, 40]
    assert counter_sum("resilience.serial_fallbacks") == 1
    assert counter_sum("resilience.serial_cells") == 5
    assert counter_sum("resilience.pool_rebuilds") \
        == _FAST.max_pool_rebuilds + 1


def test_fan_out_retries_hung_cell_after_timeout(monkeypatch):
    telemetry.enable()
    telemetry.reset()
    seed = _seed_with_single_round_of_crashes("cell_timeout", 2, 0.5)
    monkeypatch.setenv(FAULTS_ENV,
                       f"cell_timeout:p=0.5,seed={seed},sleep=30")
    policy = RetryPolicy(max_retries=2, backoff_base=0.005,
                         backoff_max=0.01, timeout=0.5)
    runner = ExperimentRunner()
    results = fan_out(runner, _tenfold_cell, [(v,) for v in range(2)],
                      jobs=2, policy=policy)
    assert results == [0, 10]
    assert counter_sum("resilience.timeouts") == 1
    assert counter_sum("resilience.retries{reason=timeout}") == 1


def test_fan_out_gives_up_after_timeout_budget(monkeypatch):
    telemetry.enable()
    telemetry.reset()
    monkeypatch.setenv(FAULTS_ENV, "cell_timeout:p=1,sleep=30")
    policy = RetryPolicy(max_retries=1, backoff_base=0.005,
                         backoff_max=0.01, timeout=0.2)
    runner = ExperimentRunner()
    with pytest.raises(ExperimentError, match="timeout"):
        fan_out(runner, _tenfold_cell, [(v,) for v in range(2)],
                jobs=2, policy=policy)
    assert counter_sum("resilience.timeouts") == 2


_RECOVERY_FLAGS = {}


def _flaky_cell(runner, value, flag_dir):
    flag = os.path.join(flag_dir, f"attempted-{value}")
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        raise ValueError(f"transient failure for {value}")
    return value * 10


def test_fan_out_retries_cell_exceptions_with_backoff(tmp_path):
    telemetry.enable()
    telemetry.reset()
    runner = ExperimentRunner()
    items = [(v, str(tmp_path)) for v in range(3)]
    results = fan_out(runner, _flaky_cell, items, jobs=2, policy=_FAST)
    assert results == [0, 10, 20]
    assert counter_sum("resilience.retries{reason=error}") == 3
    assert counter_sum("resilience.cell_failures") == 0


def _doomed_cell(runner, value):
    raise ValueError(f"cell {value} always fails")


def test_fan_out_gives_up_after_retry_budget():
    telemetry.enable()
    telemetry.reset()
    runner = ExperimentRunner()
    with pytest.raises(ExperimentError, match="giving up"):
        fan_out(runner, _doomed_cell, [(v,) for v in range(2)],
                jobs=2, policy=_FAST)
    assert counter_sum("resilience.cell_failures") == 1


def _interrupting_cell(runner, value):
    if value == 1:
        raise KeyboardInterrupt
    return value


def test_fan_out_propagates_keyboard_interrupt():
    telemetry.enable()
    telemetry.reset()
    runner = ExperimentRunner()
    with pytest.raises(KeyboardInterrupt):
        fan_out(runner, _interrupting_cell, [(v,) for v in range(4)],
                jobs=2, policy=_FAST)
    assert counter_sum("resilience.interrupted") == 1


def test_faulted_figure_matches_fault_free_serial_run(monkeypatch,
                                                      tmp_path):
    """Acceptance: crashes + corruption leave figure output unchanged."""
    from repro.experiments.figures import _breakdown_cell, fig5
    telemetry.enable()
    telemetry.reset()
    serial = fig5(ExperimentRunner(), quick=True, jobs=1)
    sites = [f"{_breakdown_cell.__module__}."
             f"{_breakdown_cell.__qualname__}#{i}" for i in range(8)]
    seed = next(
        s for s in range(500)
        if any(_decide(s, "worker_crash", site, 0, 0.5)
               for site in sites)
        and not any(_decide(s, "worker_crash", site, 1, 0.5)
                    for site in sites))
    # A fresh cache root so the faulted run stores (and corrupts) its
    # own entries instead of hitting the serial run's clean ones.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "faulted-cache"))
    monkeypatch.setenv(FAULTS_ENV, f"worker_crash:p=0.5,seed={seed};"
                                   "cache_corrupt:p=1")
    faulted = fig5(ExperimentRunner(), quick=True, jobs=2)
    assert faulted.rendered == serial.rendered
    assert faulted.data["shares"] == serial.data["shares"]
    assert faulted.data["average"] == serial.data["average"]
    assert counter_sum("resilience.pool_rebuilds") == 1
    assert counter_sum("resilience.retries{reason=crash}") >= 1
    assert counter_sum("cache.faults_injected") >= 1


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "figures.journal"
    assert load_checkpoint(path) == {}
    append_checkpoint(path, {"figure": "fig5", "quick": True,
                             "wall_seconds": 1.25})
    append_checkpoint(path, {"figure": "fig6", "quick": False,
                             "wall_seconds": 2.0})
    records = load_checkpoint(path)
    assert set(records) == {"fig5", "fig6"}
    assert records["fig5"]["quick"] is True
    assert records["fig6"]["wall_seconds"] == 2.0


def test_checkpoint_tolerates_torn_and_foreign_lines(tmp_path):
    path = tmp_path / "figures.journal"
    append_checkpoint(path, {"figure": "fig5", "quick": True})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"figure": "fig6", "quick": true, "schema"')  # torn
        handle.write("\n[1, 2, 3]\n")              # not a record
        handle.write('{"figure": "fig7", "schema": 999}\n')  # future schema
    records = load_checkpoint(path)
    assert set(records) == {"fig5"}


def test_checkpoint_keeps_latest_record_per_figure(tmp_path):
    path = tmp_path / "figures.journal"
    append_checkpoint(path, {"figure": "fig5", "quick": True,
                             "wall_seconds": 1.0})
    append_checkpoint(path, {"figure": "fig5", "quick": False,
                             "wall_seconds": 9.0})
    records = load_checkpoint(path)
    assert records["fig5"]["quick"] is False


# ----------------------------------------------------------------------
# Figure campaign (checkpoint/resume driver)
# ----------------------------------------------------------------------

@pytest.fixture
def fake_figures(monkeypatch):
    """Replace the figure registry with two instant fakes."""
    calls = []
    monkeypatch.setattr(figures_mod, "ALL_FIGURES", {
        "fakeA": lambda: calls.append("fakeA") or "A rendered",
        "fakeB": lambda: calls.append("fakeB") or "B rendered",
    })
    monkeypatch.setattr(figures_mod, "FIGURE_SCALES",
                        {"fakeA": None, "fakeB": None})
    return calls


def test_campaign_runs_then_resumes_from_checkpoint(tmp_path,
                                                    fake_figures):
    journal = tmp_path / "campaign.journal"
    report = run_campaign(checkpoint=journal, emit=lambda *_: None)
    assert report.completed == ["fakeA", "fakeB"]
    assert report.skipped == []
    again = run_campaign(checkpoint=journal, emit=lambda *_: None)
    assert again.completed == []
    assert again.skipped == ["fakeA", "fakeB"]
    assert fake_figures == ["fakeA", "fakeB"]  # each ran exactly once


def test_campaign_resumes_after_interrupt(tmp_path, monkeypatch,
                                          fake_figures):
    journal = tmp_path / "campaign.journal"
    registry = dict(figures_mod.ALL_FIGURES)

    def dies_first_time():
        if not (tmp_path / "survived").exists():
            (tmp_path / "survived").touch()
            raise KeyboardInterrupt
        fake_figures.append("fakeB")
        return "B rendered"

    registry["fakeB"] = dies_first_time
    monkeypatch.setattr(figures_mod, "ALL_FIGURES", registry)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(checkpoint=journal, emit=lambda *_: None)
    assert set(load_checkpoint(journal)) == {"fakeA"}
    report = run_campaign(checkpoint=journal, emit=lambda *_: None)
    assert report.skipped == ["fakeA"]
    assert report.completed == ["fakeB"]
    assert fake_figures == ["fakeA", "fakeB"]


def test_campaign_quick_and_full_checkpoints_are_distinct(tmp_path,
                                                          fake_figures):
    journal = tmp_path / "campaign.journal"
    run_campaign(quick=True, checkpoint=journal, emit=lambda *_: None)
    report = run_campaign(quick=False, checkpoint=journal,
                          emit=lambda *_: None)
    assert report.completed == ["fakeA", "fakeB"]  # not skipped
    assert report.skipped == []


def test_campaign_fresh_discards_checkpoint(tmp_path, fake_figures):
    journal = tmp_path / "campaign.journal"
    run_campaign(checkpoint=journal, emit=lambda *_: None)
    report = run_campaign(checkpoint=journal, fresh=True,
                          emit=lambda *_: None)
    assert report.completed == ["fakeA", "fakeB"]
    assert fake_figures == ["fakeA", "fakeB"] * 2


def test_campaign_flags_over_budget_figures(tmp_path, fake_figures):
    telemetry.enable()
    telemetry.reset()
    journal = tmp_path / "campaign.journal"
    report = run_campaign(names=["fakeA"], checkpoint=journal,
                          budget_seconds=0.0, emit=lambda *_: None)
    assert report.over_budget == ["fakeA"]
    assert counter_sum("campaign.over_budget") == 1
    rows = report.summary_rows()
    assert rows[0][1] == "over budget"


def test_campaign_rejects_unknown_figures(tmp_path, fake_figures):
    with pytest.raises(ExperimentError, match="unknown figure"):
        run_campaign(names=["fakeA", "fig99"],
                     checkpoint=tmp_path / "j", emit=lambda *_: None)


def test_campaign_report_summary_rows():
    report = CampaignReport(completed=["fig5"], skipped=["table1"],
                            wall_seconds={"fig5": 1.234})
    rows = report.summary_rows()
    assert rows[0] == ["table1", "checkpointed", "-"]
    assert rows[1] == ["fig5", "done", "1.2s"]


def test_parse_faults_accepts_queue_fault_kinds():
    specs = parse_faults("worker_exit:p=1,seed=3;"
                         "lease_stall:p=0.5,sleep=2;"
                         "heartbeat_stop:p=1")
    assert set(specs) == {"worker_exit", "lease_stall", "heartbeat_stop"}
    assert specs["worker_exit"].seed == 3
    assert specs["lease_stall"].sleep_seconds == 2.0
    assert specs["heartbeat_stop"].probability == 1.0


def test_campaign_report_summary_rows_lists_failed_figures():
    report = CampaignReport(completed=["fig5"], failed=["fig6"],
                            wall_seconds={"fig5": 1.0, "fig6": 2.5})
    rows = report.summary_rows()
    assert ["fig6", "failed (poisoned cells)", "2.5s"] in rows
