"""Interpreter anatomy: follow one program through the whole pipeline.

Shows each layer of the reproduction working on a single benchmark:
compilation to MiniPy bytecode, categorized host-instruction emission,
Pin-style per-PC statistics with origin resolution, and both core
timing models across two cache configurations.

Run:  python examples/interpreter_anatomy.py
"""

from repro import compile_source, disassemble, run_cpython
from repro.analysis.report import render_table
from repro.config import skylake_config
from repro.pintool import StatsCollector, attribute
from repro.uarch import SimulatedSystem
from repro.workloads import get_workload

WORKLOAD = "deltablue"


def main():
    spec = get_workload(WORKLOAD)
    print(f"workload: {spec.name} — {spec.description}\n")
    source = spec.source(1)
    program = compile_source(source, spec.name)

    # 1. Guest bytecode (first lines of one method).
    method = program.classes["EqualityConstraint"].methods["execute"]
    print("compiled guest bytecode (EqualityConstraint.execute):")
    print("\n".join(disassemble(method).splitlines()[:12]))
    print("  ...\n")

    # 2. Execute on the CPython model.
    vm, machine = run_cpython(program)
    print(f"guest output: {vm.output}")
    print(f"{vm.stats.bytecodes} guest bytecodes -> "
          f"{len(machine.trace)} host instructions "
          f"({len(machine.trace) / vm.stats.bytecodes:.1f} per bytecode)\n")

    # 3. Pin-style statistics: hottest static instruction sites.
    collector = StatsCollector()
    collector.collect(machine.trace)
    pc_to_site = {pc: name for name, pc in machine.site_table.items()}
    hottest = sorted(collector.stats.values(), key=lambda s: -s.count)[:6]
    rows = []
    for entry in hottest:
        site = pc_to_site.get(entry.pc - entry.pc % 128, "")
        rows.append([hex(entry.pc), entry.count,
                     site or "(interior pc)"])
    print(render_table(["pc", "count", "site"], rows,
                       title="hottest static instructions (Pin export)"))

    # 4. Breakdown with origin-resolved categories.
    state = SimulatedSystem().memory_side(machine.trace)
    breakdown = attribute(machine.trace, machine.site_table,
                          state).breakdown("cpython", spec.name)
    print("\nexecution-time breakdown (simple core, Table II):")
    for label, share in breakdown.top_categories(8):
        print(f"    {label:<24s} {share:6.1%}")
    print(f"    {'-- total overhead':<24s} "
          f"{breakdown.overhead_share:6.1%}")

    # 5. Timing under two cache configurations.
    print("\ncache sensitivity (OOO core):")
    for name, config in (("Table I (2MB LLC)", skylake_config()),
                         ("256kB LLC", skylake_config()
                          .with_llc_size(256 * 1024))):
        result = SimulatedSystem(config).run(machine.trace, core="ooo")
        print(f"    {name:<20s} CPI {result.cpi:.3f}  "
              f"LLC miss rate {result.llc_miss_rate:.1%}")


if __name__ == "__main__":
    main()
