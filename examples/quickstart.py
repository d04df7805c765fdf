"""Quickstart: where do a Python program's cycles actually go?

Compiles a small MiniPy program, runs it on the CPython-model
interpreter and on the PyPy model with JIT, and prints the Table II
overhead breakdown for each — the paper's Figure 4 methodology applied
to your own code.

Run:  python examples/quickstart.py
"""

from repro import (
    SimulatedSystem,
    attribute,
    compile_source,
    run_cpython,
    run_pypy,
)
from repro.config import pypy_runtime

SOURCE = """
def score(words):
    table = {}
    for w in words:
        table[w] = table.get(w, 0) + len(w)
    best = ""
    best_score = -1
    for w in table.keys():
        if table[w] > best_score:
            best_score = table[w]
            best = w
    return best

words = []
for i in range(300):
    words.append("word" + str(i % 7))
print(score(words))
"""


def report(name, vm, machine):
    system = SimulatedSystem()
    # One memory-side result serves both core models.
    state = system.memory_side(machine.trace)
    breakdown = attribute(machine.trace, machine.site_table, state,
                          system.config).breakdown(runtime=name)
    timing = system.run(machine.trace, core="ooo", state=state)
    print(f"--- {name} ---")
    print(f"guest output:        {vm.output}")
    print(f"guest bytecodes:     {vm.stats.bytecodes}")
    print(f"host instructions:   {len(machine.trace)}")
    print(f"OOO cycles:          {timing.cycles:.0f} (CPI {timing.cpi:.2f})")
    print(f"identified overhead: {breakdown.overhead_share:.1%}")
    print("top categories:")
    for label, share in breakdown.top_categories(6):
        print(f"    {label:<24s} {share:6.1%}")
    print()
    return timing.cycles


def main():
    program = compile_source(SOURCE, "quickstart")
    vm, machine = run_cpython(program)
    cpython_cycles = report("CPython model", vm, machine)

    program = compile_source(SOURCE, "quickstart")
    vm, machine = run_pypy(program, pypy_runtime(jit=True))
    pypy_cycles = report("PyPy model (JIT)", vm, machine)

    print(f"JIT speedup on this program: "
          f"{cpython_cycles / pypy_cycles:.1f}x")
    print(f"compiled traces: {vm.stats.traces_compiled}, "
          f"deopts: {vm.stats.deopts}")


if __name__ == "__main__":
    main()
