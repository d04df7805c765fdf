"""Run the ``repro`` CLI with span recorders at its layer boundaries.

Usage (from a checkout root, with ``src`` on ``PYTHONPATH``)::

    BENCH_SPAN_DIR=spans python3 bench/driver.py figures table1 table2

The driver imports the program, wraps every callable in :data:`TARGETS`
with a recorder, then runs ``repro.__main__.main`` on its arguments.
Each process it starts, and each process forked from one, writes its
spans to ``$BENCH_SPAN_DIR/<pid>.json`` when it exits. A span is
``[name, start_ns, end_ns, parent, tid, count]``; ``parent`` is the
index of the enclosing span on the same thread (-1 at top level) and
``count`` is the work the call did (instructions, cells, hits) where a
target defines one. Times come from ``time.monotonic_ns``, which is
one clock for every process on the host.

Nothing inside ``src/`` changes: the spans are recorded from outside,
around calls into each layer. Per-instruction functions are never
wrapped, so the cost is a few microseconds per boundary call.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time

#: Environment variable naming the directory span files go to.
SPAN_DIR_ENV = "BENCH_SPAN_DIR"


def _count_len_first(args, result):
    return len(args[1])


def _count_many(args, result):
    return len(args[0]) * len(args[1])


def _count_len_result(args, result):
    return len(result)


def _count_hit(args, result):
    return 0 if result is None else 1


def _count_claim(args, result):
    """0: nothing claimable; 1: a fresh lease; 2 or more: a reclaim."""
    return 0 if result is None else result.generation + 1


class _CountEmitted:
    """Host instructions one ``BaseVM.run`` appended to its trace."""

    @staticmethod
    def before(args):
        return len(args[0].machine.trace)

    @staticmethod
    def after(args, result, before):
        return len(args[0].machine.trace) - before


#: (module, qualified name, span name, count function or None, spans
#: to stay silent inside). One row per public callable at a layer
#: boundary. Every row must resolve: a renamed target fails the run
#: instead of silently dropping a layer from the waterfall.
TARGETS = (
    ("repro.uarch._ooo_kernel", "_build", "setup.kernel_build", None, ()),
    ("repro.host._emit_kernel", "_build", "setup.kernel_build", None, ()),
    ("repro.host._codec_kernel", "_build", "setup.kernel_build", None, ()),
    ("repro.frontend.compiler", "compile_source", "frontend", None, ()),
    ("repro.vm.base", "BaseVM.run", "vm", _CountEmitted, ()),
    ("repro.host.codec", "encode_file", "codec.encode", None, ()),
    ("repro.host.codec", "FrameReader.column", "codec.decode", None, ()),
    ("repro.host.codec", "FrameReader.decode_range", "codec.decode", None,
     ()),
    ("repro.experiments.diskcache", "DiskCache.load_run", "diskcache.load",
     _count_hit, ()),
    ("repro.experiments.diskcache", "DiskCache.load_state",
     "diskcache.load", _count_hit, ()),
    ("repro.experiments.diskcache", "DiskCache.store_run",
     "diskcache.store", None, ()),
    ("repro.experiments.diskcache", "DiskCache.store_state",
     "diskcache.store", None, ()),
    ("repro.uarch.system", "SimulatedSystem.memory_side",
     "uarch.memory_side", _count_len_first, ()),
    # Cache simulations the memory side runs are its own work; the rest
    # (breakdown, pintool, phase CPIs) re-simulate a state that exists.
    ("repro.uarch.cache", "simulate_cache_hierarchy", "uarch.cache_resim",
     None, ("uarch.memory_side",)),
    ("repro.uarch.system", "SimulatedSystem.run", "uarch.core",
     _count_len_first, ()),
    ("repro.uarch.system", "SimulatedSystem.run_many_configs",
     "uarch.core", _count_many, ()),
    ("repro.uarch.simple_core", "simple_core_cycles", "uarch.simple_core",
     None, ()),
    ("repro.pintool.postprocess", "resolve_categories", "pintool", None,
     ()),
    ("repro.analysis.breakdown", "breakdown_for_run", "analysis", None, ()),
    ("repro.analysis.breakdown", "indirect_call_fraction", "analysis", None,
     ()),
    ("repro.analysis.nursery", "nursery_sweep", "analysis", None, ()),
    ("repro.analysis.sweeps", "run_sweep", "analysis", None, ()),
    ("repro.analysis.sweeps", "phase_cpis", "analysis", None, ()),
    ("repro.analysis.report", "render_table", "analysis", None, ()),
    ("repro.analysis.report", "render_series", "analysis", None, ()),
    ("repro.experiments.runner", "ExperimentRunner.run", "runner", None,
     ()),
    ("repro.experiments.runner", "ExperimentRunner.memory_side", "runner",
     None, ()),
    ("repro.experiments.runner", "ExperimentRunner.simulate", "runner",
     None, ()),
    ("repro.experiments.runner", "ExperimentRunner.simulate_many_configs",
     "runner", None, ()),
    ("repro.experiments.parallel", "fan_out", "parallel", _count_len_result,
     ()),
    ("repro.experiments.queue", "WorkQueue.publish", "queue.publish", None,
     ()),
    ("repro.experiments.queue", "WorkQueue.claim", "queue.claim",
     _count_claim, ()),
    ("repro.experiments.queue", "WorkQueue.complete", "queue.complete",
     None, ()),
    # Self time of both is waiting: the coordinator for results, a peer
    # for a claimable cell.
    ("repro.experiments.queue", "QueueExecutor.run", "queue.wait", None,
     ()),
    ("repro.experiments.queue", "work_loop", "queue.wait", None, ()),
    ("repro.experiments.server", "SessionJournal.append",
     "server.journal_append", None, ()),
    ("repro.experiments.server", "TokenBucket.take", "server.admission",
     None, ()),
    ("repro.experiments.resilience", "append_checkpoint",
     "resilience.checkpoint", None, ()),
    ("repro.experiments.resilience", "load_checkpoint",
     "resilience.checkpoint", None, ()),
    ("repro.telemetry.export", "write_manifest", "telemetry", None, ()),
    ("repro.telemetry.registry", "RunRegistry.append", "telemetry", None,
     ()),
)

#: Modules the CLI imports lazily; importing them up front puts their
#: import cost under ``setup.import`` and lets every target resolve.
EAGER_MODULES = (
    "repro.__main__", "repro.experiments.figures",
    "repro.experiments.resilience", "repro.experiments.queue",
    "repro.experiments.server", "repro.experiments.client",
    "repro.telemetry.registry",
)


class SpanRecorder:
    """Per-process span buffer; one stack of open spans per thread."""

    def __init__(self, span_dir: str | None) -> None:
        self.span_dir = span_dir
        self.spans: list[list] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.start_ns = time.monotonic_ns()
        self.argv = list(sys.argv[1:])
        self.flushed = False

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(self, name: str, start: int, end: int) -> None:
        """Record a span that is not a wrapped call (the import)."""
        self.spans.append([name, start, end, -1, threading.get_ident(),
                           None])

    def wrap(self, func, name: str, count_fn, silent_inside: tuple):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder.stack()
            if silent_inside and any(recorder.spans[i][0] in silent_inside
                                     for i in stack):
                return func(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, time.monotonic_ns(), 0, parent,
                    threading.get_ident(), None]
            with recorder.lock:
                stack.append(len(recorder.spans))
                recorder.spans.append(span)
            before = count_fn.before(args) \
                if hasattr(count_fn, "before") else None
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                stack.pop()
            if before is not None:
                span[5] = count_fn.after(args, result, before)
            elif count_fn is not None:
                span[5] = count_fn(args, result)
            return result

        return wrapper

    def after_fork(self) -> None:
        """Forget the parent's spans in a freshly forked child."""
        self.spans = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.start_ns = time.monotonic_ns()
        self.argv = ["<fork>"] + self.argv
        self.flushed = False

    def arm_finalizer(self) -> None:
        # multiprocessing children leave through os._exit, which skips
        # atexit; its finalizers still run at a clean worker exit.
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        if self.flushed or not self.span_dir:
            return
        self.flushed = True
        end = time.monotonic_ns()
        os.makedirs(self.span_dir, exist_ok=True)
        path = os.path.join(self.span_dir, f"{os.getpid()}.json")
        # Spans still open (daemon threads at exit) have no end.
        spans = [s for s in self.spans if s[2]]
        record = {"pid": os.getpid(), "argv": self.argv,
                  "start_ns": self.start_ns, "end_ns": end,
                  "spans": spans}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
        os.replace(tmp, path)


def resolve(module_name: str, qualname: str):
    """(owner, attribute, function) for one target; raises if missing."""
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    func = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if func is None or not callable(func):
        raise LookupError(f"wrapper target {module_name}.{qualname} "
                          "does not exist")
    return owner, parts[-1], func


def install(recorder: SpanRecorder) -> None:
    """Wrap every target where it is defined and under every name a
    loaded ``repro`` module imported it by."""
    for module_name, qualname, name, count_fn, silent in TARGETS:
        owner, attr, func = resolve(module_name, qualname)
        if isinstance(func, staticmethod):
            setattr(owner, attr, staticmethod(recorder.wrap(
                func.__func__, name, count_fn, silent)))
            continue
        wrapped = recorder.wrap(func, name, count_fn, silent)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        # `from x import f` copied the reference: patch each copy too.
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    recorder = SpanRecorder(os.environ.get(SPAN_DIR_ENV))
    os.register_at_fork(after_in_child=recorder.after_fork)
    multiprocessing.util.register_after_fork(
        recorder, SpanRecorder.arm_finalizer)
    try:
        start = time.monotonic_ns()
        for module in EAGER_MODULES:
            importlib.import_module(module)
        recorder.add("setup.import", start, time.monotonic_ns())
        install(recorder)
        cli = sys.modules["repro.__main__"]
        return cli.main(argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.argv[0] = "repro"
    raise SystemExit(main(sys.argv[1:]))
