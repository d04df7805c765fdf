"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.categories import OverheadCategory
from repro.frontend import compile_source
from repro.host import AddressSpace, HostMachine
from repro.telemetry.registry import RunRegistry
from repro.uarch import SimulatedSystem
from repro.vm.cpython import CPythonVM


def test_run_builtin_workload(capsys):
    assert main(["run", "sym_sum"]) == 0
    captured = capsys.readouterr()
    assert "8 -7" in captured.out
    assert "bytecodes" in captured.err


def test_run_source_file(tmp_path, capsys):
    path = tmp_path / "prog.py"
    path.write_text("print(6 * 7)\n")
    assert main(["run", str(path)]) == 0
    assert "42" in capsys.readouterr().out


def test_run_on_pypy_without_jit(capsys):
    assert main(["run", "sym_sum", "--runtime", "pypy", "--no-jit"]) == 0
    assert "8 -7" in capsys.readouterr().out


def test_breakdown_command(capsys):
    assert main(["breakdown", "nqueens"]) == 0
    out = capsys.readouterr().out
    assert "Dispatch" in out
    assert "C function call" in out
    assert "identified overhead" in out


#: Global and attribute lookups reach ``lookdict`` from name-binding
#: opcodes, dict subscripts reach it from guest code: both origins.
_CALLER_DEPENDENT = """
g = 5

def f():
    return g + 1

items = []
d = {}
for i in range(40):
    items.append(i)
    d[i] = f()
print(len(items) + d[3])
"""


def test_run_manifest_cycles_match_breakdown(tmp_path, capsys):
    """``run`` and ``breakdown`` charge cycles through one attribution:
    origin-resolved, with nothing left Unresolved, same total."""
    path = tmp_path / "prog.py"
    path.write_text(_CALLER_DEPENDENT)
    cycles = {}
    for command in ("run", "breakdown"):
        out = tmp_path / f"{command}.json"
        assert main([command, str(path), "--metrics-out", str(out)]) == 0
        cycles[command] = json.loads(
            out.read_text())["stats"]["category_cycles"]
    capsys.readouterr()
    assert cycles["run"] == cycles["breakdown"]
    assert "Unresolved" not in cycles["run"]
    machine = HostMachine(AddressSpace(nursery_size=1 << 20))
    CPythonVM(machine, compile_source(_CALLER_DEPENDENT, str(path))).run()
    assert (machine.trace.column("category")
            == int(OverheadCategory.UNRESOLVED)).any()
    assert sum(cycles["run"].values()) == \
        SimulatedSystem().run(machine.trace, core="simple").cycles


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "fannkuch" in out
    assert "richards" in out
    assert "splay" in out  # JS suite


def test_figure_command(capsys):
    assert main(["figure", "table1"]) == 0
    assert "2 MB" in capsys.readouterr().out


def test_figure_unknown(capsys):
    assert main(["figure", "fig99"]) == 1
    assert "unknown figure" in capsys.readouterr().err


def test_compile_error_is_reported(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text("x = [i for i in range(3)]\n")
    assert main(["run", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_figures_campaign_runs_and_resumes(tmp_path, capsys):
    journal = tmp_path / "campaign.journal"
    argv = ["figures", "table1", "table2", "--checkpoint", str(journal)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "2 run, 0 checkpointed" in captured.out
    assert str(journal) in captured.err
    assert main(argv) == 0
    assert "0 run, 2 checkpointed" in capsys.readouterr().out


def test_figures_requires_names_or_all(capsys):
    assert main(["figures"]) == 1
    assert "--all" in capsys.readouterr().err


def test_figures_interrupt_exits_130(monkeypatch, capsys):
    def interrupt(**_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.experiments.resilience.run_campaign",
                        interrupt)
    assert main(["figures", "--all"]) == 130
    assert "interrupted" in capsys.readouterr().err


def test_cache_stats_and_gc(capsys):
    assert main(["figure", "table1"]) == 0  # warms the per-test cache
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    assert "disk cache:" in capsys.readouterr().out
    assert main(["cache", "gc", "--max-mb", "0"]) == 0
    assert "remain under" in capsys.readouterr().out


def test_cache_gc_prunes_the_registry_the_runs_went_to(tmp_path, monkeypatch,
                                                        capsys):
    """With ``REPRO_REGISTRY_DIR`` away from the cache root, gc prunes
    that registry, not ``<cache-root>/telemetry``."""
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "reg"))
    for _ in range(3):
        assert main(["run", "sym_sum"]) == 0
    registry = RunRegistry()
    assert registry.root == tmp_path / "reg"
    assert len(registry.tail(10)) == 3
    capsys.readouterr()
    assert main(["cache", "gc", "--max-registry-records", "1"]) == 0
    assert "pruned 2 registry records (keeping newest 1)" \
        in capsys.readouterr().out
    assert len(registry.tail(10)) == 1


def test_cache_commands_report_disabled_cache(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert main(["cache", "stats"]) == 1
    assert "disabled" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- distributed-campaign commands -------------------------------------


def _publish_one_cell(campaign_dir):
    """A one-cell campaign whose fn is this module's `_cli_probe`."""
    from repro.experiments.diskcache import DiskCache
    from repro.experiments.queue import WorkQueue, make_cell
    root = DiskCache().root
    queue = WorkQueue(campaign_dir, ttl=5.0)
    queue.ensure(extra={"cache_dir": str(root)})
    queue.publish([make_cell(_cli_probe, (21,), {"scale": 1})])
    return queue


def _cli_probe(runner, value):
    return value * 2


def test_work_command_drains_a_campaign(tmp_path, capsys):
    campaign_dir = tmp_path / "queue" / "cli-smoke"
    queue = _publish_one_cell(campaign_dir)
    assert main(["work", "--queue", str(campaign_dir),
                 "--max-cells", "1", "--idle-exit", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 cells completed" in out
    assert len(queue.results()) == 1


def test_work_command_idle_exits_on_empty_root(tmp_path, capsys):
    assert main(["work", "--queue", str(tmp_path / "empty"),
                 "--idle-exit", "0.1"]) == 0
    assert "0 cells completed" in capsys.readouterr().out


def test_figures_distributed_degrades_to_local(tmp_path, capsys):
    journal = tmp_path / "campaign.journal"
    queue_dir = tmp_path / "queue" / "solo"
    assert main(["figures", "table1", "--distributed",
                 "--grace-seconds", "0",
                 "--queue", str(queue_dir),
                 "--checkpoint", str(journal)]) == 0
    captured = capsys.readouterr()
    assert "1 run, 0 checkpointed" in captured.out
    assert str(queue_dir) in captured.err


def _warm_cache(workloads=("chaos",)):
    """Store real trace entries in the per-test cache root."""
    from repro.experiments.diskcache import DiskCache
    from repro.experiments.runner import ExperimentRunner
    cache = DiskCache()
    runner = ExperimentRunner(disk_cache=cache)
    for workload in workloads:
        runner.run(workload=workload, runtime="pypy", jit=True,
                   nursery=64 * 1024)
    return cache


def test_cache_verify_command(capsys):
    _warm_cache(("chaos", "nbody"))
    assert main(["cache", "verify"]) == 0
    out = capsys.readouterr().out
    assert "verified 2 entries" in out
    assert "0 checksum mismatches" in out
    assert main(["cache", "verify", "--sample", "1"]) == 0
    assert "not sampled" in capsys.readouterr().out


def test_cache_verify_flags_corruption(capsys):
    cache = _warm_cache()
    payload = next(p for p in (cache.root / "traces").iterdir()
                   if p.suffix in (".rpt", ".npz"))
    payload.write_bytes(payload.read_bytes()[:-5])
    assert main(["cache", "verify"]) == 1
    captured = capsys.readouterr()
    assert "1 checksum mismatches" in captured.out
    assert "quarantine" in captured.err


# -- sweep-server commands ---------------------------------------------


def test_serve_parser_defaults_and_overrides():
    args = build_parser().parse_args(["serve"])
    assert args.socket is None and args.tcp is None
    assert args.tenant_rate == 2.0 and args.tenant_burst == 8.0
    assert args.max_inflight == 16 and args.quantum == 4.0
    assert args.drain_grace == 30.0 and args.default_deadline is None
    args = build_parser().parse_args(
        ["serve", "--tcp", "127.0.0.1:0",
         "--tenant-rate", "0.5", "--tenant-burst", "2",
         "--max-inflight", "3", "--quantum", "8",
         "--drain-grace", "5", "--default-deadline", "60"])
    assert args.tcp == "127.0.0.1:0"
    assert args.tenant_rate == 0.5 and args.tenant_burst == 2.0
    assert args.max_inflight == 3 and args.quantum == 8.0
    assert args.drain_grace == 5.0 and args.default_deadline == 60.0


def test_query_parser_round_trip():
    args = build_parser().parse_args(
        ["query", "fig5", "--tcp", "127.0.0.1:7000", "--tenant",
         "alice", "--key", "k-1", "--full", "--deadline", "30",
         "--timeout", "5"])
    assert args.name == "fig5" and args.tenant == "alice"
    assert args.key == "k-1" and args.full
    assert args.deadline == 30.0 and args.timeout == 5.0
    args = build_parser().parse_args(["query", "--probe", "status"])
    assert args.name is None and args.probe == "status"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["query", "--probe", "bogus"])


def test_query_without_figure_or_probe_errors(capsys):
    assert main(["query"]) == 1
    assert "name a figure" in capsys.readouterr().err


def test_query_against_no_server_reports_unavailable(capsys):
    assert main(["query", "table1", "--tcp", "127.0.0.1:1",
                 "--timeout", "0.2"]) == 1
    assert "no sweep server" in capsys.readouterr().err
