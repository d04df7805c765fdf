"""repro — a reproduction of *Quantitative Overhead Analysis for Python*
(Ismail & Suh, IISWC 2018).

The package models the paper's full measurement pipeline in pure Python:

* :mod:`repro.frontend` — MiniPy, a Python-subset guest language
  compiled to CPython-2.7-style stack bytecode;
* :mod:`repro.vm` — three modeled run-times (CPython interpreter with
  refcounting, PyPy with generational GC and a tracing JIT, a V8 analog)
  that execute guests while emitting categorized host instructions;
* :mod:`repro.pintool` — Pin-analog statistics collection and the
  origin-PC annotation pipeline of Section IV-B;
* :mod:`repro.uarch` — Zsim-analog cache/branch/DRAM and core models;
* :mod:`repro.workloads` — the 48 Python-suite benchmarks (plus 37
  JetStream analogs under :mod:`repro.vm.v8.workloads`);
* :mod:`repro.analysis` / :mod:`repro.experiments` — breakdowns, sweeps,
  nursery studies, and one regeneration entry point per paper figure.

Quick start::

    from repro import SimulatedSystem, attribute, compile_source, run_cpython

    program = compile_source(open("my_bench.py").read())
    vm, machine = run_cpython(program)
    state = SimulatedSystem().memory_side(machine.trace)
    breakdown = attribute(machine.trace, machine.site_table,
                          state).breakdown()
    print(breakdown.top_categories())
"""

from .categories import OverheadCategory, Group, label_of
from .config import (
    MachineConfig,
    RuntimeConfig,
    GCConfig,
    JITConfig,
    skylake_config,
    scaled_config,
    cpython_runtime,
    pypy_runtime,
    v8_runtime,
)
from .errors import ReproError, CompileError, GuestError
from .frontend import compile_source, Program, disassemble
from .host import HostMachine, AddressSpace, InstructionTrace
from .pintool import Attribution, Breakdown, attribute, StatsCollector
from .uarch import SimulatedSystem, SimResult
from .vm.cpython import CPythonVM, run_cpython
from .vm.pypy import PyPyVM, run_pypy
from .vm.v8 import V8VM, run_v8
from .workloads import PYTHON_SUITE, get_workload
from .experiments import ExperimentRunner, figures

__version__ = "1.0.0"

__all__ = [
    "OverheadCategory", "Group", "label_of",
    "MachineConfig", "RuntimeConfig", "GCConfig", "JITConfig",
    "skylake_config", "scaled_config", "cpython_runtime", "pypy_runtime",
    "v8_runtime",
    "ReproError", "CompileError", "GuestError",
    "compile_source", "Program", "disassemble",
    "HostMachine", "AddressSpace", "InstructionTrace",
    "Attribution", "Breakdown", "attribute", "StatsCollector",
    "SimulatedSystem", "SimResult",
    "CPythonVM", "run_cpython", "PyPyVM", "run_pypy", "V8VM", "run_v8",
    "PYTHON_SUITE", "get_workload",
    "ExperimentRunner", "figures",
    "__version__",
]
