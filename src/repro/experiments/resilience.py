"""Fault tolerance for long experiment campaigns.

The figure families are multi-minute simulation campaigns; this module
holds the pieces that let them survive crashed workers, hung cells,
corrupt cache entries, and interrupted runs:

* :class:`RetryPolicy` — how the supervised pool in
  :mod:`~repro.experiments.parallel` retries: per-cell timeout, bounded
  retries with exponential backoff, and how many pool rebuilds are
  tolerated before degrading to in-process serial execution.
* :class:`FaultPlan` / :class:`FaultSpec` — the deterministic
  fault-injection harness behind the :data:`FAULTS_ENV` grammar. Tests
  and the resilience smoke bench use it to *prove* every recovery path;
  production runs never set it.
* :func:`run_campaign` — the ``python -m repro figures --all`` driver:
  regenerates every table/figure in one process through the shared
  disk cache, journals per-figure completion to a checkpoint file so an
  interrupted campaign resumes where it died, and records a wall-clock
  budget per figure.

Fault grammar (:data:`FAULTS_ENV`)::

    REPRO_FAULTS=worker_crash:p=0.3,seed=7;cell_timeout:p=0.2,seed=2,sleep=5;cache_corrupt:p=0.25,seed=1

Semicolon-separated fault kinds, each with ``key=value`` parameters:
``p`` (probability, required), ``seed`` (default 0), and ``sleep``
(``cell_timeout`` only: how long the injected hang lasts, seconds).
Injection decisions are *deterministic*: whether a fault fires is a
pure hash of ``(seed, kind, site, attempt)``, so a faulted run is
reproducible and a retried cell makes progress (the retry is a
different ``attempt``). Kinds:

``worker_crash``
    the worker process ``os._exit``\\ s before running its cell,
    breaking the pool (exercises rebuild + lost-cell re-run).
``cell_timeout``
    the worker sleeps ``sleep`` seconds before its cell (under a
    :class:`RetryPolicy` whose ``timeout`` is shorter, exercises the
    per-cell timeout, pool kill, and retry path).
``cache_corrupt``
    :class:`~repro.experiments.diskcache.DiskCache` flips bytes in the
    payload it just stored (exercises checksum verification,
    quarantine, and recompute).
``worker_exit``
    a queue worker (``python -m repro work``) ``os._exit``\\ s right
    after claiming a cell — a simulated ``kill -9`` (exercises lease
    expiry + reclamation by a peer). Site is the cell id, attempt the
    cell's reclaim generation.
``lease_stall``
    a queue worker silently abandons a claimed cell without completing
    or heartbeating it, then sleeps ``sleep`` seconds — a hung worker
    whose *process* stays alive (exercises per-lease staleness, not
    just worker death).
``heartbeat_stop``
    a queue worker's heartbeat thread freezes permanently while the
    worker keeps executing (exercises reclamation of live-but-presumed-
    dead workers and journal-level duplicate-completion dedup). Site is
    the worker id, attempt the renewal count.
``server_crash``
    the sweep server (``python -m repro serve``) ``os._exit``\\ s
    between two cells of an accepted request — a simulated ``kill -9``
    mid-campaign (exercises session-journal resume: a restarted server
    re-runs accepted-but-unfinished requests and clients re-ask by
    key). Site is ``<request-key>#<cell-index>``.
``client_disconnect``
    a :class:`~repro.experiments.client.ServeClient` drops its
    connection right after sending a request (exercises the server
    finishing and journaling work whose asker went away; the re-ask by
    key finds the journaled answer). Site is the request key.
``slow_tenant``
    every cell of one tenant's requests sleeps ``sleep`` seconds
    before running on the sweep server (exercises deficit-round-robin
    fairness: the slow tenant must not starve the others). Site is the
    tenant name, so the decision is per-tenant and constant.

Recovery is observable: the supervised pool and the disk cache count
``resilience.retries``, ``resilience.pool_rebuilds``,
``resilience.timeouts``, ``resilience.serial_fallbacks``,
``cache.quarantined``, ``cache.orphans_removed`` and friends into the
telemetry registry, so every manifest shows what was survived.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..durable import Journal
from ..errors import ExperimentError
from ..telemetry import TELEMETRY

#: Fault-injection grammar (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Journal filename for ``figures --all`` (lives under the cache root).
CHECKPOINT_NAME = "figures.journal"
#: Journal record schema; bump on incompatible layout changes.
CHECKPOINT_SCHEMA = 1

_FAULT_KINDS = frozenset({"worker_crash", "cell_timeout", "cache_corrupt",
                          "worker_exit", "lease_stall", "heartbeat_stop",
                          "server_crash", "client_disconnect",
                          "slow_tenant"})


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """One fault kind's injection parameters."""

    kind: str
    probability: float
    seed: int = 0
    #: ``cell_timeout`` / ``lease_stall``: how long the injected hang
    #: sleeps.
    sleep_seconds: float = 30.0


def _decide(seed: int, kind: str, site: str, attempt: int,
            probability: float) -> bool:
    """Pure decision: does this fault fire at this site and attempt?"""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    payload = f"{seed}|{kind}|{site}|{attempt}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64 < probability


class FaultPlan:
    """A parsed :data:`FAULTS_ENV` value: zero or more armed faults."""

    def __init__(self, specs: dict[str, FaultSpec] | None = None) -> None:
        self.specs = dict(specs or {})

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.specs == other.specs

    def __reduce__(self):
        return (FaultPlan, (self.specs,))

    def spec(self, kind: str) -> FaultSpec | None:
        return self.specs.get(kind)

    def should_fire(self, kind: str, site: str, attempt: int = 0) -> bool:
        spec = self.specs.get(kind)
        if spec is None:
            return False
        return _decide(spec.seed, kind, site, attempt, spec.probability)

    @classmethod
    def from_env(cls, text: str | None = None) -> "FaultPlan":
        """Parse ``text`` (default: the :data:`FAULTS_ENV` variable)."""
        if text is None:
            text = os.environ.get(FAULTS_ENV, "")
        return cls(parse_faults(text))


def parse_faults(text: str) -> dict[str, FaultSpec]:
    """Parse the :data:`FAULTS_ENV` grammar into specs (may be empty)."""
    specs: dict[str, FaultSpec] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, params_text = clause.partition(":")
        kind = kind.strip()
        if kind not in _FAULT_KINDS:
            raise ExperimentError(
                f"{FAULTS_ENV}: unknown fault kind {kind!r} "
                f"(choose from {', '.join(sorted(_FAULT_KINDS))})")
        params: dict[str, str] = {}
        for item in filter(None, (p.strip()
                                  for p in params_text.split(","))):
            name, sep, value = item.partition("=")
            if not sep:
                raise ExperimentError(
                    f"{FAULTS_ENV}: expected key=value in {item!r}")
            params[name.strip()] = value.strip()
        unknown = set(params) - {"p", "seed", "sleep"}
        if unknown:
            raise ExperimentError(
                f"{FAULTS_ENV}: unknown parameter(s) "
                f"{', '.join(sorted(unknown))} for {kind}")
        try:
            probability = float(params.get("p", ""))
        except ValueError:
            raise ExperimentError(
                f"{FAULTS_ENV}: {kind} needs p=<float> "
                f"(got {params.get('p')!r})") from None
        if not 0.0 <= probability <= 1.0:
            raise ExperimentError(
                f"{FAULTS_ENV}: {kind} p must be in [0, 1], "
                f"got {probability}")
        try:
            seed = int(params.get("seed", "0"))
            sleep_seconds = float(params.get("sleep", "30"))
        except ValueError as exc:
            raise ExperimentError(f"{FAULTS_ENV}: {kind}: {exc}") from None
        specs[kind] = FaultSpec(kind=kind, probability=probability,
                                seed=seed, sleep_seconds=sleep_seconds)
    return specs


# ----------------------------------------------------------------------
# Supervision policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How supervised fan-out retries failing cells.

    ``timeout`` is the per-cell wall-clock limit (None = unlimited); a
    timed-out cell's pool is killed and rebuilt, because a process-pool
    worker cannot be cancelled in place. ``max_retries`` bounds retries
    *per cell* for cell exceptions and timeouts; pool crashes are
    instead bounded by ``max_pool_rebuilds``, after which remaining
    cells degrade to in-process serial execution.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    timeout: float | None = None
    max_pool_rebuilds: int = 3

    def backoff(self, attempt: int) -> float:
        """Exponential backoff delay before retry number ``attempt``."""
        return min(self.backoff_base * (2.0 ** max(0, attempt - 1)),
                   self.backoff_max)


# ----------------------------------------------------------------------
# Checkpointed figure campaign (``python -m repro figures --all``)
# ----------------------------------------------------------------------

def default_checkpoint_path() -> Path:
    """Journal location: under the cache root, or the cwd if cache off."""
    from .diskcache import cache_root
    root = cache_root()
    if root is None:
        return Path(".repro-figures.journal")
    return root / CHECKPOINT_NAME


def load_checkpoint(path: str | Path) -> dict[str, dict]:
    """Read a journal: figure id -> most recent completion record.

    A torn final record (a crash mid-append) is skipped, so it costs at
    most one figure's worth of recomputation.
    """
    records: dict[str, dict] = {}
    for record in Journal(path).records():
        figure = record.get("figure")
        if record.get("schema") == CHECKPOINT_SCHEMA \
                and isinstance(figure, str):
            records[figure] = record
    return records


def append_checkpoint(path: str | Path, record: dict) -> None:
    """Append one completion record: the commit record an interrupted
    campaign resumes from."""
    Journal(path).append({"schema": CHECKPOINT_SCHEMA, **record})


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` invocation did."""

    completed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    over_budget: list[str] = field(default_factory=list)
    #: Distributed mode only: figures abandoned because one of their
    #: cells was poisoned (serial mode raises instead).
    failed: list[str] = field(default_factory=list)
    wall_seconds: dict[str, float] = field(default_factory=dict)
    checkpoint: str = ""
    #: Queue campaign directory when the run was distributed.
    queue_dir: str = ""

    def summary_rows(self) -> list[list[str]]:
        rows = []
        for name in self.skipped:
            rows.append([name, "checkpointed", "-"])
        for name in self.completed:
            status = "over budget" if name in self.over_budget else "done"
            rows.append([name, status,
                         f"{self.wall_seconds.get(name, 0.0):.1f}s"])
        for name in self.failed:
            rows.append([name, "failed (poisoned cells)",
                         f"{self.wall_seconds.get(name, 0.0):.1f}s"])
        return rows


def run_campaign(names=None, quick: bool = True, jobs: int | None = None,
                 checkpoint: str | Path | None = None, fresh: bool = False,
                 budget_seconds: float | None = None,
                 distributed: bool = False,
                 queue_dir: str | Path | None = None,
                 grace_seconds: float | None = None,
                 emit=print) -> CampaignReport:
    """Regenerate figures in one process, checkpointing each completion.

    Completed figures (matching ``quick``) recorded in the journal are
    skipped, so re-running after an interruption (SIGINT, crash, OOM
    kill) resumes where the campaign died — everything the dead run
    *did* finish is also warm in the shared disk cache. ``fresh=True``
    discards the journal first. ``budget_seconds`` is a per-figure
    wall-clock budget: exceeding it does not abort, but is flagged in
    the summary and counted (``campaign.over_budget``).

    ``distributed=True`` turns this process into the *coordinator* of a
    lease-based work queue (see :mod:`~repro.experiments.queue`): every
    fan-out inside the figure functions publishes claimable cells that
    ``python -m repro work`` peers execute; with no live workers for
    ``grace_seconds`` the coordinator finishes cells itself through the
    ordinary supervised pool. A figure whose cells end up poisoned is
    recorded in ``report.failed`` (and not checkpointed) instead of
    aborting the figures that remain.
    """
    from .diskcache import DiskCache
    from .figures import ALL_FIGURES, figure_scale
    names = list(names) if names else list(ALL_FIGURES)
    unknown = [name for name in names if name not in ALL_FIGURES]
    if unknown:
        raise ExperimentError(
            f"unknown figure(s): {', '.join(unknown)}; "
            f"choose from {', '.join(ALL_FIGURES)}")
    path = Path(checkpoint) if checkpoint is not None \
        else default_checkpoint_path()
    if fresh:
        path.unlink(missing_ok=True)
    done = load_checkpoint(path)
    # Self-heal before the long campaign: orphaned .tmp files from a
    # previous kill never age into permanent litter.
    DiskCache().sweep_tmp()
    if distributed:
        return _run_distributed_campaign(
            names, quick, jobs, path, done, budget_seconds,
            queue_dir, grace_seconds, emit)
    metrics = TELEMETRY.metrics
    report = CampaignReport(checkpoint=str(path))
    runners: dict[int, object] = {}
    for name in names:
        if _checkpointed(name, done, quick, report, metrics, emit):
            continue
        _run_one_figure(name, quick, jobs, runners, budget_seconds,
                        path, report, metrics, emit)
    return report


def _checkpointed(name: str, done: dict, quick: bool,
                  report: CampaignReport, metrics, emit) -> bool:
    record = done.get(name)
    if record is None or record.get("quick") != quick:
        return False
    report.skipped.append(name)
    metrics.counter("campaign.figures_skipped").inc()
    emit(f"-- {name}: done at checkpoint "
         f"({record.get('wall_seconds', 0.0):.1f}s last time), "
         "skipping")
    return True


def _run_one_figure(name: str, quick: bool, jobs: int | None,
                    runners: dict, budget_seconds: float | None,
                    path: Path, report: CampaignReport, metrics,
                    emit) -> None:
    from .figures import ALL_FIGURES, figure_scale
    func = ALL_FIGURES[name]
    scale = figure_scale(name)
    runner = None
    if scale is not None:
        if scale not in runners:
            from .runner import ExperimentRunner
            runners[scale] = ExperimentRunner(scale=scale)
        runner = runners[scale]
    start = time.perf_counter()
    with TELEMETRY.tracer.span("campaign.figure", figure=name):
        if runner is None:
            result = func()
        else:
            result = func(runner, quick=quick, jobs=jobs)
    wall = time.perf_counter() - start
    emit(str(result))
    report.completed.append(name)
    report.wall_seconds[name] = wall
    metrics.counter("campaign.figures_run").inc()
    over = budget_seconds is not None and wall > budget_seconds
    if over:
        report.over_budget.append(name)
        metrics.counter("campaign.over_budget").inc()
        emit(f"-- {name}: {wall:.1f}s exceeded the "
             f"{budget_seconds:.1f}s budget")
    append_checkpoint(path, {
        "figure": name,
        "quick": quick,
        "wall_seconds": round(wall, 3),
        "budget_seconds": budget_seconds,
        "over_budget": over,
        "completed_unix": time.time(),
    })
    _register_figure(name, quick, wall)


def _run_distributed_campaign(names, quick: bool, jobs: int | None,
                              path: Path, done: dict,
                              budget_seconds: float | None,
                              queue_dir, grace_seconds,
                              emit) -> CampaignReport:
    """Coordinator side of a distributed campaign: every fan-out in the
    figure functions routes through one :class:`~repro.experiments.
    queue.QueueExecutor` for the campaign's queue directory."""
    from .diskcache import cache_root
    from .parallel import use_executor
    from .queue import (QueueExecutor, WorkQueue, campaign_id,
                        queue_root)
    metrics = TELEMETRY.metrics
    if queue_dir is not None:
        directory = Path(queue_dir)
    else:
        base = queue_root()
        if base is None:
            raise ExperimentError(
                "figures --distributed needs the disk cache (workers "
                "rendezvous under <cache-root>/queue); unset "
                "REPRO_CACHE=off or pass --queue DIR")
        directory = base / campaign_id(names, quick)
    root = cache_root()
    queue = WorkQueue(directory).ensure(
        extra={"cache_dir": str(root) if root else "",
               "figures": sorted(names), "quick": quick})
    executor = QueueExecutor(queue, grace_seconds=grace_seconds,
                             local_jobs=jobs)
    report = CampaignReport(checkpoint=str(path),
                            queue_dir=str(directory))
    runners: dict[int, object] = {}
    emit(f"-- distributed campaign {queue.campaign}: queue at "
         f"{directory} (workers: python -m repro work)")
    try:
        with use_executor(executor):
            for name in names:
                if _checkpointed(name, done, quick, report, metrics,
                                 emit):
                    continue
                try:
                    _run_one_figure(name, quick, jobs, runners,
                                    budget_seconds, path, report,
                                    metrics, emit)
                except ExperimentError as exc:
                    # Poisoned cells (or another dead end) must not
                    # stall the figures that remain; the failure is
                    # loud in the summary and the journal is NOT
                    # checkpointed for this figure.
                    report.failed.append(name)
                    metrics.counter("campaign.figures_failed").inc()
                    emit(f"-- {name}: FAILED: {exc}")
    finally:
        queue.close("failed" if report.failed else "complete")
    return report


def _register_figure(name: str, quick: bool, wall: float) -> None:
    """Append one per-figure record to the run registry.

    Gated on telemetry: with null sinks nothing touches disk. Registry
    errors never abort a campaign mid-flight.
    """
    if not TELEMETRY.enabled:
        return
    from ..telemetry.registry import RunRegistry, REGISTRY_SCHEMA
    record = {
        "schema": REGISTRY_SCHEMA,
        "kind": "figure",
        "created_unix": time.time(),
        "command": "figures",
        "config": {"figure": name, "quick": quick},
        "stats": {"wall_seconds": round(wall, 3)},
        "counters": TELEMETRY.metrics.filtered_snapshot(
            ("resilience.", "cache.", "runner.", "campaign.")),
    }
    try:
        RunRegistry().append(record)
    except OSError:
        TELEMETRY.metrics.counter("registry.write_errors").inc()
