"""Supervised process-pool fan-out for independent experiment cells.

The figure harnesses iterate grids of independent (workload, config)
cells; :func:`fan_out` distributes those cells over a
``ProcessPoolExecutor`` while keeping three invariants the serial loops
rely on:

* **Determinism** — results come back in submission order, and each
  cell function is a pure function of its arguments plus the runner's
  construction parameters, so figure aggregation code sees exactly the
  sequence a serial loop would produce — whatever faults were survived
  along the way.
* **Telemetry** — each worker resets the sinks it inherited over
  ``fork`` (otherwise the parent's pre-fork counts would be merged back
  in again, double-counting, and the parent's open spans would be
  re-shipped under every cell), runs its cell inside a ``cell`` span,
  then ships a :data:`WIRE_SCHEMA` payload back with the result: the
  :meth:`~repro.telemetry.metrics.MetricsRegistry.dump`, the span
  forest (:meth:`~repro.telemetry.tracing.Tracer.export_state`), and
  the worker's pid. The parent merges the final successful payload of
  every cell, in submission order — metrics into its registry, span
  trees into ``TELEMETRY.workers`` — so the run manifest and the
  unified Chrome trace cover the whole fan-out. (Work lost to a
  crashed worker is not counted: its sinks died with it.)
* **Kernels** — the parent loads or builds every compiled C kernel
  (:mod:`repro.host.kernel_loader`) before its first fork, so the
  workers inherit the loaded libraries and never run the compiler.
* **Cache sharing** — workers build their own
  :class:`~repro.experiments.runner.ExperimentRunner` from
  :meth:`~repro.experiments.runner.ExperimentRunner.spawn_params`, so
  they inherit the parent's scale and its disk-cache root. Guest runs
  and memory-side states a worker computes are write-through persisted,
  which is how parallel work becomes visible to the parent (and to the
  next invocation) without shipping multi-megabyte traces over pipes.
  It is also what makes retries cheap: a cell that crashed *after*
  computing expensive sub-results finds them in the cache on re-run.

Cells are supervised (see :class:`~repro.experiments.resilience.
RetryPolicy`): each one is an individual future with an optional
wall-clock timeout; cell exceptions and timeouts are retried with
exponential backoff up to a bounded budget; a broken pool
(``BrokenProcessPool`` — a worker was OOM-killed, segfaulted, or had a
fault injected) is rebuilt after *harvesting* whichever futures already
completed, and only the lost cells re-run. After ``max_pool_rebuilds``
rebuilds the remaining cells run **isolated** — one at a time, each in
a fresh single-worker pool, so a crash costs one cell-attempt instead
of the whole wave and the worker-side telemetry of every completed
cell still ships back. Cells whose isolated attempts also exhaust the
crash budget degrade to in-process serial execution rather than
aborting the campaign. ``KeyboardInterrupt`` cancels all pending
futures, terminates the workers, and propagates (the CLI turns it into
exit status 130). Every recovery is counted:
``resilience.retries{reason=...}``, ``resilience.timeouts``,
``resilience.pool_rebuilds``, ``resilience.isolation_fallbacks``,
``resilience.isolated_cells``, ``resilience.serial_fallbacks``,
``resilience.interrupted``. The recoveries that take time run inside
parent spans, so they sit on the unified Chrome trace's timeline: a
pool teardown and its backoff (``resilience.pool_rebuild``), a retry's
backoff (``resilience.retry``), each isolated attempt
(``resilience.isolated``) and each serial-fallback cell (``cell``).

Cell functions must be module-level (picklable) and take the worker's
runner as their first argument: ``fn(runner, *args)``.

``--jobs`` semantics: ``1`` (the default, also for None) runs serial in
the calling process, ``N > 1`` uses ``N`` workers, ``0`` means one
worker per CPU. Values beyond a sane cap (``max(16, 4 x cpu_count)``)
are rejected rather than silently spawning hundreds of workers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool

from ..errors import ExperimentError
from ..telemetry import TELEMETRY
from .resilience import FaultPlan, RetryPolicy

#: ``resolve_jobs`` rejects requests beyond ``max(MIN_JOBS_CAP,
#: MAX_JOBS_FACTOR * cpu_count)`` — fork bombs are a config error.
MAX_JOBS_FACTOR = 4
MIN_JOBS_CAP = 16

#: Exit status an injected ``worker_crash`` fault dies with.
CRASH_EXIT = 11

#: Version of the worker → parent telemetry payload. Bumped when the
#: shape of :func:`_run_cell`'s return value changes; the parent only
#: merges payloads whose schema it understands.
WIRE_SCHEMA = 2

#: Process-global pluggable executor. When set (see :func:`use_executor`),
#: :func:`fan_out` delegates whole item batches to it instead of the
#: local pool — this is how ``figures --distributed`` routes cells into
#: the lease-based work queue without changing any call site.
_ACTIVE_EXECUTOR = None

#: Worker-global runner, built once per process by :func:`_init_worker`.
_WORKER_RUNNER = None
#: Worker-global fault plan (None in the parent: injected worker faults
#: must never fire in the supervising process).
_WORKER_FAULTS: FaultPlan | None = None


def jobs_cap() -> int:
    """Largest accepted ``--jobs`` value on this machine."""
    return max(MIN_JOBS_CAP, MAX_JOBS_FACTOR * (os.cpu_count() or 1))


def resolve_jobs(jobs: int | None) -> int:
    """Turn a ``--jobs`` value (None = 1) into a worker count."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    cap = jobs_cap()
    if jobs > cap:
        raise ExperimentError(
            f"jobs={jobs} exceeds the sane cap of {cap} for this "
            f"machine ({os.cpu_count() or 1} CPUs); use 0 for one "
            "worker per CPU")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _init_worker(runner_params: dict, telemetry_on: bool,
                 fault_plan: FaultPlan) -> None:
    global _WORKER_RUNNER, _WORKER_FAULTS
    from .. import telemetry as telemetry_mod
    if telemetry_on:
        telemetry_mod.enable()
    # Forked workers inherit the parent's registry contents and the
    # parent's open span stack; reset so the payload shipped back
    # contains only this worker's own increments and spans.
    TELEMETRY.metrics.reset()
    TELEMETRY.tracer.reset()
    from .runner import ExperimentRunner
    _WORKER_RUNNER = ExperimentRunner(**runner_params)
    _WORKER_FAULTS = fault_plan


def _run_cell(payload):
    fn, args, site, attempt = payload
    plan = _WORKER_FAULTS
    if plan:
        if plan.should_fire("worker_crash", site, attempt):
            os._exit(CRASH_EXIT)
        spec = plan.spec("cell_timeout")
        if spec is not None and plan.should_fire("cell_timeout", site,
                                                 attempt):
            time.sleep(spec.sleep_seconds)
    with TELEMETRY.tracer.span("cell", site=site, attempt=attempt):
        result = fn(_WORKER_RUNNER, *args)
    payload = {
        "schema": WIRE_SCHEMA,
        "result": result,
        "pid": os.getpid(),
        "site": site,
        "attempt": attempt,
        "metrics": TELEMETRY.metrics.dump(),
        "trace": TELEMETRY.tracer.export_state(),
    }
    TELEMETRY.metrics.reset()
    TELEMETRY.tracer.reset()
    return payload


@contextlib.contextmanager
def use_executor(executor):
    """Route every :func:`fan_out` in this process through ``executor``
    (an object with ``run(runner, fn, items) -> list``, e.g.
    :class:`~repro.experiments.queue.QueueExecutor` or the sweep
    server's per-request executor, which adds deadline/drain
    checkpoints between cells). ``None`` restores the local pool — the
    queue and serve executors use that to degrade to an ordinary
    supervised fan-out without recursing into themselves. The slot is
    process-global, so only one thread at a time may execute figure
    code under an installed executor (the sweep server guarantees this
    with its single scheduler thread)."""
    global _ACTIVE_EXECUTOR
    previous = _ACTIVE_EXECUTOR
    _ACTIVE_EXECUTOR = executor
    try:
        yield executor
    finally:
        _ACTIVE_EXECUTOR = previous


def active_executor():
    """The executor installed by :func:`use_executor`, or None."""
    return _ACTIVE_EXECUTOR


def fan_out(runner, fn, items, jobs: int | None = None,
            policy: RetryPolicy | None = None) -> list:
    """Run ``fn(runner, *args)`` for each args-tuple in ``items``.

    With one job (or one item) this is a plain serial loop on the
    caller's runner — no processes, no pickling, no fault injection.
    Otherwise cells run in a supervised fork-context pool (see the
    module docstring) and results return in submission order. An
    installed :func:`use_executor` executor takes precedence over both
    paths — even the serial one, because distributed cells should go to
    the fleet regardless of the local ``--jobs`` value.
    """
    items = [tuple(args) for args in items]
    if _ACTIVE_EXECUTOR is not None and items:
        return _ACTIVE_EXECUTOR.run(runner, fn, items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(runner, *args) for args in items]
    if policy is None:
        policy = RetryPolicy()
    load_kernels()
    supervisor = _Supervisor(runner, fn, items, jobs, policy,
                             FaultPlan.from_env())
    return supervisor.run()


def load_kernels() -> None:
    """Load or build every compiled C kernel in this process (before a
    pool forks, so that its workers inherit them)."""
    from ..host import _codec_kernel, _emit_kernel
    from ..uarch import _ooo_kernel
    for module in (_codec_kernel, _emit_kernel, _ooo_kernel):
        module.get_kernel()


class _PoolLost(Exception):
    """Internal: the pool died or was killed; rebuild and continue."""


def _terminate_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut a pool down; ``kill`` terminates possibly-hung workers."""
    if not kill:
        pool.shutdown(wait=True)
        return
    # A worker may be hung (or mid-cell): cancel whatever has not
    # started and terminate the processes rather than joining them.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):
            pass
    for process in processes:
        try:
            process.join(timeout=5)
        except (OSError, ValueError, AssertionError):
            pass


class _Supervisor:
    """Drives one fan-out to completion through crashes and timeouts."""

    def __init__(self, runner, fn, items, jobs: int,
                 policy: RetryPolicy, faults: FaultPlan) -> None:
        self.runner = runner
        self.fn = fn
        self.items = items
        self.jobs = jobs
        self.policy = policy
        self.faults = faults
        self.params = runner.spawn_params()
        n = len(items)
        self.results: list = [None] * n
        self.dumps: list = [None] * n
        self.done = [False] * n
        #: Injection-site attempt counter (crashes and timeouts bump it
        #: so a deterministic fault does not re-fire forever).
        self.attempts = [0] * n
        self.error_counts = [0] * n
        self.timeout_counts = [0] * n
        self.pool: ProcessPoolExecutor | None = None
        self.rebuilds = 0

    # -- lifecycle -----------------------------------------------------

    def run(self) -> list:
        metrics = TELEMETRY.metrics
        try:
            while not all(self.done):
                if self.rebuilds > self.policy.max_pool_rebuilds:
                    self._finish_isolated()
                    break
                try:
                    self._round()
                except _PoolLost:
                    continue
        except KeyboardInterrupt:
            metrics.counter("resilience.interrupted").inc()
            raise
        finally:
            self._shutdown(kill=not all(self.done))
        # Merge telemetry in submission order so gauge last-writer-wins
        # matches what a serial run would have produced. Span forests go
        # to the worker-trace store for the unified Chrome trace; cells
        # finished by the serial fallback ran in-process on the parent's
        # own sinks and have no payload to merge.
        for payload in self.dumps:
            if not payload or payload.get("schema") != WIRE_SCHEMA:
                continue
            metrics.merge(payload["metrics"])
            TELEMETRY.workers.add({
                "pid": payload["pid"],
                "site": payload["site"],
                "attempt": payload["attempt"],
                "trace": payload["trace"],
            })
        return self.results

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            context = multiprocessing.get_context("fork")
            self.pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(self.items)),
                mp_context=context, initializer=_init_worker,
                initargs=(self.params, TELEMETRY.enabled, self.faults))
        return self.pool

    def _shutdown(self, kill: bool) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            _terminate_pool(pool, kill)

    # -- one submission round ------------------------------------------

    def _site(self, index: int) -> str:
        fn = self.fn
        return f"{fn.__module__}.{fn.__qualname__}#{index}"

    def _payload(self, index: int):
        return (self.fn, self.items[index], self._site(index),
                self.attempts[index])

    def _submit(self, pool, index: int):
        try:
            return pool.submit(_run_cell, self._payload(index))
        except (BrokenProcessPool, RuntimeError) as exc:
            self._pool_lost(reason=repr(exc))
            raise _PoolLost from exc

    def _record(self, index: int, payload: dict) -> None:
        """Accept one cell's payload (result + worker telemetry)."""
        self.results[index] = payload["result"]
        self.dumps[index] = payload
        self.done[index] = True

    def _harvest(self, futures: dict) -> None:
        """Record every future that finished before the pool died.

        A single crashed worker breaks the whole pool, but results that
        already crossed the pipe are intact — collecting them means a
        rebuild re-runs only the genuinely lost cells.
        """
        for index, future in futures.items():
            if self.done[index] or not future.done():
                continue
            if future.cancelled() or future.exception() is not None:
                continue
            self._record(index, future.result())

    def _round(self) -> None:
        pool = self._ensure_pool()
        pending = [i for i, finished in enumerate(self.done)
                   if not finished]
        futures = {i: self._submit(pool, i) for i in pending}
        for i in pending:
            while not self.done[i]:
                try:
                    payload = futures[i].result(
                        timeout=self.policy.timeout)
                except FuturesTimeout:
                    self._harvest(futures)
                    self._on_timeout(i)  # raises _PoolLost
                except BrokenProcessPool as exc:
                    self._harvest(futures)
                    self._pool_lost(reason=repr(exc))
                    raise _PoolLost from exc
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    self._on_error(i, exc)  # raises when out of budget
                    futures[i] = self._submit(pool, i)
                else:
                    self._record(i, payload)

    # -- failure handling ----------------------------------------------

    def _on_timeout(self, index: int) -> None:
        metrics = TELEMETRY.metrics
        metrics.counter("resilience.timeouts").inc()
        self.timeout_counts[index] += 1
        self.attempts[index] += 1
        if self.timeout_counts[index] > self.policy.max_retries:
            raise ExperimentError(
                f"cell {self._site(index)} exceeded its "
                f"{self.policy.timeout}s timeout "
                f"{self.timeout_counts[index]} times; giving up")
        metrics.counter("resilience.retries", reason="timeout").inc()
        # The hung worker cannot be cancelled in place: kill the pool
        # and re-run every lost cell on a fresh one.
        self._pool_lost(reason="cell timeout", bump_attempts=False)
        raise _PoolLost

    def _on_error(self, index: int, exc: Exception) -> None:
        metrics = TELEMETRY.metrics
        self.error_counts[index] += 1
        self.attempts[index] += 1
        if self.error_counts[index] > self.policy.max_retries:
            metrics.counter("resilience.cell_failures").inc()
            raise ExperimentError(
                f"cell {self._site(index)} failed "
                f"{self.error_counts[index]} times "
                f"(last error: {exc!r}); giving up") from exc
        metrics.counter("resilience.retries", reason="error").inc()
        with TELEMETRY.tracer.span("resilience.retry", reason="error",
                                   site=self._site(index)):
            time.sleep(self.policy.backoff(self.error_counts[index]))

    def _pool_lost(self, reason: str, bump_attempts: bool = True) -> None:
        """Kill the (possibly broken) pool; schedule lost cells."""
        metrics = TELEMETRY.metrics
        metrics.counter("resilience.pool_rebuilds").inc()
        self.rebuilds += 1
        if bump_attempts:
            for i, finished in enumerate(self.done):
                if not finished:
                    self.attempts[i] += 1
                    metrics.counter("resilience.retries",
                                    reason="crash").inc()
        with TELEMETRY.tracer.span("resilience.pool_rebuild",
                                   reason=reason):
            self._shutdown(kill=True)
            time.sleep(self.policy.backoff(self.rebuilds))

    # -- graceful degradation ------------------------------------------

    def _isolated_attempt(self, index: int) -> dict | None:
        """Run one cell alone in a fresh single-worker pool.

        Returns the payload, or None when the worker crashed or hung
        (the pool is torn down either way). Cell exceptions propagate:
        isolation is a crash-containment rung, not extra error budget.
        """
        context = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(
            max_workers=1, mp_context=context, initializer=_init_worker,
            initargs=(self.params, TELEMETRY.enabled, self.faults))
        lost = True
        try:
            payload = pool.submit(
                _run_cell,
                self._payload(index)).result(timeout=self.policy.timeout)
            lost = False
            return payload
        except FuturesTimeout:
            TELEMETRY.metrics.counter("resilience.timeouts").inc()
            return None
        except (BrokenProcessPool, RuntimeError):
            return None
        finally:
            _terminate_pool(pool, kill=lost)

    def _finish_isolated(self) -> None:
        """Full-width pools keep dying: isolate the remaining cells.

        One cell per fresh single-worker pool, so an injected crash
        costs one cell-attempt instead of the whole wave — and the
        worker telemetry of every cell that does complete still ships
        back. A cell whose isolated attempts exhaust the crash budget
        degrades to in-process serial execution (worker-side fault
        injection never fires in the parent: ``_WORKER_FAULTS`` stays
        None there), so even a 100%-crash plan completes.
        """
        metrics = TELEMETRY.metrics
        metrics.counter("resilience.isolation_fallbacks").inc()
        serial_started = False
        for i, finished in enumerate(self.done):
            if finished:
                continue
            crashes = 0
            while not self.done[i] and crashes <= self.policy.max_retries:
                with TELEMETRY.tracer.span("resilience.isolated",
                                           site=self._site(i)):
                    payload = self._isolated_attempt(i)
                if payload is None:
                    crashes += 1
                    self.attempts[i] += 1
                    metrics.counter("resilience.retries",
                                    reason="crash").inc()
                    with TELEMETRY.tracer.span("resilience.retry",
                                               reason="crash",
                                               site=self._site(i)):
                        time.sleep(self.policy.backoff(crashes))
                else:
                    metrics.counter("resilience.isolated_cells").inc()
                    self._record(i, payload)
            if self.done[i]:
                continue
            if not serial_started:
                serial_started = True
                metrics.counter("resilience.serial_fallbacks").inc()
            metrics.counter("resilience.serial_cells").inc()
            with TELEMETRY.tracer.span("cell", site=self._site(i),
                                       attempt=self.attempts[i]):
                self.results[i] = self.fn(self.runner, *self.items[i])
            self.done[i] = True
