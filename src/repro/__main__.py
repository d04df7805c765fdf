"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        execute a MiniPy file on a modeled runtime, print its output
breakdown  Table II overhead breakdown for a MiniPy file
workloads  list the built-in benchmark suites
figure     regenerate one of the paper's tables/figures
figures    regenerate many figures with checkpoint/resume (``--all``);
           ``--distributed`` coordinates a lease-based work queue
work       claim and execute queue cells published by a distributed
           campaign (any number of peers, any host sharing the cache)
cache      disk-cache maintenance (``gc``, ``stats``, ``verify``)
telemetry  dump the last run's telemetry manifest
status     one-shot (or ``--watch``) campaign progress view
perf       perf-regression sentinel (``check``, ``diff``)
serve      long-lived multi-tenant sweep server (admission control,
           fair-share scheduling, deadlines, crash-safe session
           journal, SIGTERM graceful drain)
query      client for ``serve``: figure queries and health probes

``run``, ``breakdown``, ``figure``, ``figures``, and ``perf`` execute
with telemetry enabled and store a per-run manifest in the run registry
under ``<cache-root>/telemetry/``, which the ``telemetry`` command reads
back (``--metrics-out PATH`` adds an explicit copy, ``--trace-out
PATH`` writes the unified Chrome trace with per-worker lanes derived
from it).

``figures --all`` journals each completed figure to a checkpoint file
(default: ``<cache-root>/figures.journal``); an interrupted campaign —
Ctrl-C exits with status 130 after flushing telemetry — resumes where
it died and skips every figure the journal already records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import telemetry
from .analysis.report import format_percent, render_span_tree, render_table
from .categories import label_of
from .config import pypy_runtime, v8_runtime
from .errors import ReproError
from .frontend import compile_source
from .host import AddressSpace, HostMachine
from .pintool import attribute
from .telemetry import TELEMETRY
from .telemetry.export import (
    build_manifest,
    load_last_manifest,
    write_chrome_trace,
    write_manifest,
)
from .telemetry.registry import RunRegistry, registry_dir
from .uarch import SimulatedSystem
from .vm.cpython import CPythonVM
from .vm.pypy import PyPyVM
from .vm.v8 import V8VM
from .vm.v8.workloads import JS_SUITE
from .workloads import PYTHON_SUITE, get_workload

_MB = 1024 * 1024

#: Subcommands that run guest code: telemetry is enabled around them
#: and a manifest is written when they finish.
_TELEMETRY_COMMANDS = frozenset({"run", "breakdown", "figure", "figures",
                                 "work", "perf", "serve"})

#: Conventional exit status for SIGINT (128 + 2).
EXIT_INTERRUPTED = 130


def _build_vm(runtime: str, machine: HostMachine, program,
              jit: bool, nursery: int):
    if runtime == "cpython":
        return CPythonVM(machine, program)
    if runtime == "pypy":
        return PyPyVM(machine, program,
                      pypy_runtime(jit=jit, nursery_size=nursery))
    if runtime == "v8":
        return V8VM(machine, program, v8_runtime(nursery_size=nursery))
    raise ReproError(f"unknown runtime {runtime!r}")


def _load_program(path: str):
    if path in PYTHON_SUITE:
        return compile_source(get_workload(path).source(1), path)
    with open(path, "r", encoding="utf-8") as handle:
        return compile_source(handle.read(), path)


def _run_guest(args):
    """Execute the guest file or workload; returns (vm, machine)."""
    program = _load_program(args.file)
    machine = HostMachine(AddressSpace(nursery_size=args.nursery * _MB))
    with TELEMETRY.tracer.span("guest.run", workload=args.file,
                               runtime=args.runtime,
                               jit=not args.no_jit):
        vm = _build_vm(args.runtime, machine, program,
                       jit=not args.no_jit, nursery=args.nursery * _MB)
        vm.run()
    TELEMETRY.metrics.counter(
        "guest.instructions", runtime=args.runtime).inc(len(machine.trace))
    args._manifest_stats = vm.stats.as_dict()
    return vm, machine


def _breakdown(args, machine, system: SimulatedSystem, state):
    """Origin-resolved simple-core breakdown of the guest run; its
    cycles per category go into the manifest."""
    with TELEMETRY.tracer.span("analysis.breakdown", workload=args.file):
        breakdown = attribute(machine.trace, machine.site_table, state,
                              system.config).breakdown(args.runtime,
                                                       args.file)
    args._manifest_stats["category_cycles"] = {
        label_of(category): cycles
        for category, cycles in breakdown.cycles.items()}
    return breakdown


def cmd_run(args) -> int:
    vm, machine = _run_guest(args)
    for line in vm.output:
        print(line)
    system = SimulatedSystem()
    # Memory-side state is core-independent: compute it once and share
    # it between the OOO timing run and the simple-core attribution.
    with TELEMETRY.tracer.span("sim.memory_side", workload=args.file):
        state = system.memory_side(machine.trace)
    with TELEMETRY.tracer.span("sim.core", workload=args.file,
                               core="ooo"):
        timing = system.run(machine.trace, core="ooo", state=state)
    _breakdown(args, machine, system, state)
    args._manifest_stats["host_instructions"] = len(machine.trace)
    args._manifest_stats["cycles"] = timing.cycles
    print(f"-- {args.runtime}: {vm.stats.bytecodes} bytecodes, "
          f"{len(machine.trace)} host instructions, "
          f"{timing.cycles:.0f} cycles (CPI {timing.cpi:.2f})",
          file=sys.stderr)
    return 0


def cmd_breakdown(args) -> int:
    _, machine = _run_guest(args)
    system = SimulatedSystem()
    with TELEMETRY.tracer.span("sim.memory_side", workload=args.file):
        state = system.memory_side(machine.trace)
    breakdown = _breakdown(args, machine, system, state)
    rows = [[label, format_percent(share)]
            for label, share in breakdown.top_categories(20)]
    print(render_table(["category", "share of cycles"], rows,
                       title=f"Overhead breakdown: {args.file} "
                             f"on {args.runtime}"))
    print(f"\nidentified overhead: "
          f"{format_percent(breakdown.overhead_share)}"
          f" (C library: {format_percent(breakdown.c_library_share)})")
    return 0


def cmd_workloads(_args) -> int:
    rows = [[name, get_workload(name).tag,
             get_workload(name).description]
            for name in PYTHON_SUITE]
    print(render_table(["workload", "class", "description"], rows,
                       title="Python suite (48 benchmarks)"))
    print(f"\nJetStream-analog suite (37): {', '.join(JS_SUITE)}")
    return 0


def cmd_figure(args) -> int:
    from .experiments.figures import ALL_FIGURES
    func = ALL_FIGURES.get(args.name)
    if func is None:
        print(f"unknown figure {args.name!r}; "
              f"choose from {', '.join(ALL_FIGURES)}", file=sys.stderr)
        return 1
    if args.name.startswith("table"):
        print(func())
    else:
        print(func(quick=not args.full, jobs=args.jobs))
    return 0


def cmd_figures(args) -> int:
    from .analysis.report import render_table as _render
    from .experiments.resilience import run_campaign
    if not args.all and not args.names:
        print("figures: name at least one figure or pass --all",
              file=sys.stderr)
        return 1
    report = run_campaign(
        names=args.names or None, quick=not args.full, jobs=args.jobs,
        checkpoint=args.checkpoint, fresh=args.fresh,
        budget_seconds=args.budget_seconds,
        distributed=args.distributed, queue_dir=args.queue,
        grace_seconds=args.grace_seconds)
    rows = report.summary_rows()
    total = sum(report.wall_seconds.values())
    summary = (f"{len(report.completed)} run, "
               f"{len(report.skipped)} checkpointed")
    if report.failed:
        summary += f", {len(report.failed)} failed"
    rows.append(["TOTAL", summary, f"{total:.1f}s"])
    print(_render(["figure", "status", "wall clock"], rows,
                  title="figure campaign summary"))
    print(f"checkpoint journal: {report.checkpoint}", file=sys.stderr)
    if report.queue_dir:
        print(f"queue directory: {report.queue_dir}", file=sys.stderr)
    return 1 if report.failed else 0


def cmd_work(args) -> int:
    from .experiments.queue import work_loop
    root = None
    campaign = args.campaign
    if args.queue:
        queue_dir = args.queue
        if os.path.isfile(os.path.join(queue_dir, "manifest.json")):
            # A campaign directory was named directly.
            root = os.path.dirname(os.path.abspath(queue_dir)) or "."
            campaign = os.path.basename(os.path.abspath(queue_dir))
        else:
            root = queue_dir
    report = work_loop(
        root=root, campaign=campaign, worker_id=args.worker_id,
        max_cells=args.max_cells, idle_exit_seconds=args.idle_exit)
    print(f"-- worker {report.worker_id}: {report.completed} cells "
          f"completed over {len(report.campaigns)} campaign(s)"
          + (f" (exit: {report.reason})" if report.reason else ""))
    args._manifest_stats = {
        "completed": report.completed,
        "claims": report.claims,
        "campaigns": len(report.campaigns),
    }
    return 0


def cmd_cache(args) -> int:
    from .experiments.diskcache import DiskCache
    cache = DiskCache(args.dir if args.dir else "auto")
    if not cache.enabled:
        print("disk cache is disabled (REPRO_CACHE=off)", file=sys.stderr)
        return 1
    if args.action == "gc":
        stats = cache.gc(max_bytes=int(args.max_mb * 1024 * 1024))
        print(f"evicted {stats['evicted']} entries "
              f"({stats['bytes_freed'] / 1e6:.1f} MB), "
              f"swept {stats['tmp_removed']} tmp files; "
              f"{stats['kept_entries']} entries "
              f"({stats['kept_bytes'] / 1e6:.1f} MB) remain "
              f"under {cache.root}")
        # The registry is never size-evicted with the artifacts; its
        # retention is an explicit record-count prune here.
        registry = RunRegistry(registry_dir())
        pruned = registry.prune(max_records=args.max_registry_records)
        if pruned:
            print(f"pruned {pruned} registry records "
                  f"(keeping newest {args.max_registry_records})")
        if stats["queue_campaigns_removed"] \
                or stats["queue_leases_reclaimed"] \
                or stats["queue_heartbeats_removed"]:
            print(f"queue: removed "
                  f"{stats['queue_campaigns_removed']} dead campaigns, "
                  f"reclaimed {stats['queue_leases_reclaimed']} expired "
                  f"leases, swept {stats['queue_heartbeats_removed']} "
                  "orphaned heartbeats")
        return 0
    if args.action == "verify":
        stats = cache.verify_entries(sample=args.sample)
        print(f"verified {stats['checked']} entries: {stats['ok']} ok "
              f"({stats['unkeyed']} without recorded key params), "
              f"{stats['checksum_mismatches']} checksum mismatches, "
              f"{stats['key_mismatches']} key mismatches"
              + (f"; {stats['skipped']} entries not sampled"
                 if stats["skipped"] else ""))
        bad = stats["checksum_mismatches"] + stats["key_mismatches"]
        if bad:
            print(f"{bad} corrupt entries quarantined under "
                  f"{cache.root}/quarantine", file=sys.stderr)
        return 1 if bad else 0
    usage = cache.usage()
    rows = [[kind,
             str(usage.get(kind, {}).get("entries", 0)),
             f"{usage.get(kind, {}).get('bytes', 0) / 1e6:.1f} MB"]
            for kind in ("traces", "states", "kernels", "telemetry")]
    queue = usage.get("queue", {})
    rows.append(["queue",
                 f"{queue.get('campaigns', 0)} campaigns / "
                 f"{queue.get('cells', 0)} cells",
                 f"{queue.get('bytes', 0) / 1e6:.1f} MB"])
    rows.append(["quarantined files", str(usage["quarantined_files"]),
                 ""])
    print(render_table(["kind", "entries", "size"], rows,
                       title=f"disk cache: {usage['root']}"))
    traces = usage.get("traces", {})
    if traces.get("rows"):
        print(f"trace codec: {traces['rows']} instructions in "
              f"{traces['payload_bytes'] / 1e6:.1f} MB "
              f"({traces['bytes_per_instruction']:.2f} B/instr, "
              f"{traces['compression_ratio']:.1f}x vs canonical "
              "columns)")
    return 0


def cmd_status(args) -> int:
    from .experiments.status import render_status, watch_status
    if args.watch:
        watch_status(interval=args.interval,
                     checkpoint=args.checkpoint)
        return 0
    print(render_status(args.checkpoint))
    return 0


def cmd_perf(args) -> int:
    from .experiments.perf import check, diff
    if args.action == "diff":
        return diff()
    return check(baseline_path=args.baseline,
                 threshold=args.threshold, update=args.update,
                 probe=not args.no_probe)


def cmd_serve(args) -> int:
    import signal

    from .experiments.server import SweepServer
    server = SweepServer(
        socket_path=args.socket, tcp=args.tcp,
        tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst,
        max_inflight=args.max_inflight, quantum=args.quantum,
        drain_grace=args.drain_grace,
        default_deadline=args.default_deadline)
    server.start()
    print(f"-- serve: listening on {server.endpoint} "
          f"(journal: {server.journal.path})", flush=True)
    signal.signal(signal.SIGTERM,
                  lambda *_: server.request_drain())
    try:
        server.wait_for_drain_request()
    except KeyboardInterrupt:
        server.request_drain()
    rc = server.drain()
    stats = server.stats_snapshot()
    print(f"-- serve: drained ({stats['served']} served, "
          f"{stats['journal_hits']} journal hits, "
          f"{stats['rejected']} shed, {stats['resumed']} resumed)",
          flush=True)
    args._manifest_stats = stats
    return rc


def cmd_query(args) -> int:
    from .experiments.client import ServeClient
    client = ServeClient(socket_path=args.socket, tcp=args.tcp,
                         timeout=args.timeout, tenant=args.tenant)
    if args.probe:
        response = client.probe(args.probe)
    elif args.drain:
        response = client.drain()
    elif args.name:
        response = client.query_figure(
            args.name, quick=not args.full, key=args.key,
            deadline_seconds=args.deadline)
    else:
        print("query: name a figure or pass --probe/--drain",
              file=sys.stderr)
        return 1
    if response is None:
        # The client_disconnect fault dropped the connection on
        # purpose; the server still finishes and journals the work.
        print("-- query: disconnected after send (injected fault); "
              "re-ask by key for the journaled answer",
              file=sys.stderr)
        return 0
    if response.get("ok"):
        rendered = response.get("rendered")
        if rendered is not None:
            print(rendered)
        else:
            print(json.dumps(response, sort_keys=True))
        return 0
    print(f"error: {response.get('error')}: "
          f"{response.get('message', '')}", file=sys.stderr)
    if response.get("error") == "RETRY_AFTER":
        print(f"retry after {response.get('retry_after')}s "
              f"(reason: {response.get('reason')}, "
              f"key: {response.get('key')})", file=sys.stderr)
        # EX_TEMPFAIL: shed load is a retryable condition, not a bug.
        return 75
    return 1


def cmd_telemetry(args) -> int:
    if args.registry:
        records = RunRegistry().tail(args.tail)
        if not records:
            print("run registry is empty", file=sys.stderr)
            return 1
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    manifest = load_last_manifest()
    if manifest is None:
        print("no telemetry manifest found; run a command first "
              "(e.g. `python -m repro run chaos`)", file=sys.stderr)
        return 1
    if args.chrome_out:
        path = write_chrome_trace(args.chrome_out, manifest)
        print(f"wrote Chrome trace-event JSON to {path} "
              "(load it in chrome://tracing)")
        return 0
    if args.tree:
        print(render_span_tree(manifest.get("spans", []),
                               title="span self-time tree (last run)"))
        return 0
    json.dump(manifest, sys.stdout, indent=2)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantitative overhead analysis for Python "
                    "(IISWC 2018 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func in (("run", cmd_run), ("breakdown", cmd_breakdown)):
        p = sub.add_parser(name)
        p.add_argument("file",
                       help="MiniPy source file or built-in workload name")
        p.add_argument("--runtime", default="cpython",
                       choices=("cpython", "pypy", "v8"))
        p.add_argument("--no-jit", action="store_true",
                       help="disable the JIT (pypy runtime)")
        p.add_argument("--nursery", type=int, default=1,
                       help="nursery size in MB (pypy/v8)")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="write the telemetry manifest (JSON) here")
        p.add_argument("--trace-out", metavar="PATH",
                       help="write the unified Chrome trace-event "
                            "JSON here")
        p.set_defaults(func=func)

    p = sub.add_parser("workloads")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("figure")
    p.add_argument("name", help="table1, table2, fig4 ... fig17")
    p.add_argument("--full", action="store_true",
                   help="full grids instead of quick ones")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for independent cells "
                        "(default: 1; 0 = all cores)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the telemetry manifest (JSON) here")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the unified Chrome trace-event JSON "
                        "here (per-worker lanes, resilience markers)")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "figures",
        help="regenerate many figures with checkpoint/resume")
    p.add_argument("names", nargs="*",
                   help="figure ids (default: --all)")
    p.add_argument("--all", action="store_true",
                   help="regenerate every table and figure")
    p.add_argument("--full", action="store_true",
                   help="full grids instead of quick ones")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for independent cells "
                        "(default: 1; 0 = all cores)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="journal file (default: "
                        "<cache-root>/figures.journal)")
    p.add_argument("--fresh", action="store_true",
                   help="discard the checkpoint journal and start over")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="per-figure wall-clock budget; exceeding it is "
                        "flagged, not fatal")
    p.add_argument("--distributed", action="store_true",
                   help="coordinate a lease-based work queue under "
                        "<cache-root>/queue; peers run `repro work`")
    p.add_argument("--queue", metavar="DIR", default=None,
                   help="--distributed: explicit campaign queue "
                        "directory (default: derived from the figure "
                        "set under <cache-root>/queue)")
    p.add_argument("--grace-seconds", type=float, default=None,
                   help="--distributed: degrade to in-process fan-out "
                        "after this long without a live worker "
                        "(default: 20)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the telemetry manifest (JSON) here")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the unified Chrome trace-event JSON "
                        "here (per-worker lanes, resilience markers)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "work",
        help="execute queue cells for distributed campaigns")
    p.add_argument("--queue", metavar="DIR", default=None,
                   help="queue root, or one campaign directory "
                        "(default: <cache-root>/queue)")
    p.add_argument("--campaign", metavar="ID", default=None,
                   help="serve only this campaign id")
    p.add_argument("--worker-id", metavar="NAME", default=None,
                   help="stable worker name (default: host-pid)")
    p.add_argument("--max-cells", type=int, default=None,
                   help="exit after completing this many cells")
    p.add_argument("--idle-exit", type=float, default=None,
                   help="exit after this long with nothing claimable "
                        "(default: run until interrupted)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the telemetry manifest (JSON) here")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the unified Chrome trace-event "
                        "JSON here")
    p.set_defaults(func=cmd_work)

    p = sub.add_parser(
        "cache",
        help="disk-cache maintenance: size-bounded gc, usage stats, "
             "cross-host key/content verification")
    p.add_argument("action", choices=("gc", "stats", "verify"))
    p.add_argument("--max-mb", type=float, default=2048.0,
                   help="gc: keep at most this many megabytes "
                        "(default: 2048)")
    p.add_argument("--dir", metavar="PATH", default=None,
                   help="cache root (default: $REPRO_CACHE_DIR or "
                        ".repro-cache)")
    p.add_argument("--max-registry-records", type=int, default=4096,
                   help="gc: keep at most this many run-registry "
                        "records (default: 4096)")
    p.add_argument("--sample", type=int, default=None,
                   help="verify: audit a deterministic sample of at "
                        "most N entries (default: all)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "status",
        help="campaign progress: journal + cache + registry, joined")
    p.add_argument("--watch", action="store_true",
                   help="redraw until interrupted")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between --watch redraws (default: 2)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="journal file (default: "
                        "<cache-root>/figures.journal)")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "perf",
        help="perf-regression sentinel against checked-in baselines")
    p.add_argument("action", choices=("check", "diff"))
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="baseline JSON (default: "
                        "benchmarks/baselines/perf.json)")
    p.add_argument("--threshold", type=float, default=2.0,
                   help="check: fail when a gauge drops below "
                        "baseline/threshold (default: 2.0)")
    p.add_argument("--update", action="store_true",
                   help="check: rewrite the baseline from this "
                        "machine's measurement")
    p.add_argument("--no-probe", action="store_true",
                   help="check: reuse the registry's last probe "
                        "instead of measuring")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser(
        "serve",
        help="long-lived multi-tenant sweep server over a Unix/TCP "
             "socket (drain with SIGTERM)")
    p.add_argument("--socket", metavar="PATH", default=None,
                   help="Unix socket path (default: "
                        "<cache-root>/serve/serve.sock)")
    p.add_argument("--tcp", metavar="HOST:PORT", default=None,
                   help="listen on TCP instead (port 0 = ephemeral)")
    p.add_argument("--tenant-rate", type=float, default=2.0,
                   help="admission tokens per second per tenant "
                        "(default: 2)")
    p.add_argument("--tenant-burst", type=float, default=8.0,
                   help="admission token-bucket burst per tenant "
                        "(default: 8)")
    p.add_argument("--max-inflight", type=int, default=16,
                   help="bound on accepted-but-unfinished requests "
                        "before shedding with RETRY_AFTER "
                        "(default: 16)")
    p.add_argument("--quantum", type=float, default=4.0,
                   help="deficit-round-robin quantum in cells "
                        "(default: 4)")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   help="seconds to let the in-flight request finish "
                        "on drain before cancelling between cells "
                        "(default: 30)")
    p.add_argument("--default-deadline", type=float, default=None,
                   help="deadline_seconds applied to requests that "
                        "carry none (default: unlimited)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the telemetry manifest (JSON) here")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the unified Chrome trace-event JSON "
                        "here")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query",
        help="query a running sweep server")
    p.add_argument("name", nargs="?", default=None,
                   help="figure id to request (table1, fig4, ...)")
    p.add_argument("--socket", metavar="PATH", default=None,
                   help="Unix socket path (default: "
                        "<cache-root>/serve/serve.sock)")
    p.add_argument("--tcp", metavar="HOST:PORT", default=None,
                   help="connect over TCP instead")
    p.add_argument("--tenant", default="default",
                   help="tenant name for admission/fair-share "
                        "accounting (default: default)")
    p.add_argument("--key", default=None,
                   help="idempotency key (default: derived from "
                        "tenant + request; reuse it to re-ask)")
    p.add_argument("--full", action="store_true",
                   help="full grids instead of quick ones")
    p.add_argument("--deadline", type=float, default=None,
                   help="deadline_seconds for this request")
    p.add_argument("--timeout", type=float, default=None,
                   help="socket timeout in seconds (default: wait)")
    p.add_argument("--probe", choices=("ping", "ready", "status"),
                   default=None,
                   help="health/readiness/status probe instead of a "
                        "figure query")
    p.add_argument("--drain", action="store_true",
                   help="ask the server to drain (same as SIGTERM)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "telemetry",
        help="dump the last run's telemetry manifest")
    p.add_argument("--tree", action="store_true",
                   help="print the ASCII span self-time tree instead")
    p.add_argument("--chrome-out", metavar="PATH",
                   help="write the Chrome trace-event JSON here")
    p.add_argument("--registry", action="store_true",
                   help="print run-registry records (JSONL) instead")
    p.add_argument("--tail", type=int, default=10,
                   help="--registry: newest N records (default: 10)")
    p.set_defaults(func=cmd_telemetry)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with_telemetry = args.command in _TELEMETRY_COMMANDS
    if with_telemetry:
        telemetry.enable()
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # fan_out has already cancelled its futures and terminated its
        # workers on the way up; the finally block below still flushes
        # the telemetry manifest, so a checkpointed campaign resumes
        # cleanly after Ctrl-C.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # `repro status | head` and friends: the reader went away.
        # Point stdout at devnull so the interpreter's exit flush
        # doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if with_telemetry:
            config = {k: v for k, v in vars(args).items()
                      if not k.startswith("_") and k != "func"}
            manifest = build_manifest(
                command=args.command, config=config,
                stats=getattr(args, "_manifest_stats", None))
            if write_manifest(getattr(args, "metrics_out", None) or None,
                              manifest=manifest) is None:
                print(f"warning: the run registry at {registry_dir()} "
                      "did not store this run's manifest (lock timeout "
                      "or unwritable directory)", file=sys.stderr)
            trace_out = getattr(args, "trace_out", None)
            if trace_out:
                # Written in the finally block so even an interrupted
                # campaign leaves its unified trace behind.
                write_chrome_trace(trace_out, manifest)
            telemetry.disable()


if __name__ == "__main__":
    raise SystemExit(main())
