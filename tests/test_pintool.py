"""Pin-analog statistics collection and origin-PC resolution."""

from conftest import run_source
from repro.categories import OverheadCategory as C
from repro.pintool import (
    StatsCollector,
    attribute,
    default_annotations,
    resolve_categories,
)
from repro.uarch import SimulatedSystem


def test_collector_aggregates_per_pc(tmp_path):
    vm, machine = run_source("x = 1 + 2\nprint(x)\n")
    collector = StatsCollector()
    collector.collect(machine.trace)
    assert collector.total_instructions == len(machine.trace)
    # The dispatch site must be among the hottest PCs.
    dispatch_pc = machine.site_table["ceval.dispatch"]
    assert dispatch_pc in collector.stats
    assert collector.stats[dispatch_pc].count > 0


def test_collector_export_load_roundtrip(tmp_path):
    vm, machine = run_source("total = 0\nfor i in range(20):\n"
                             "    total = total + i\nprint(total)\n")
    collector = StatsCollector()
    collector.collect(machine.trace)
    path = tmp_path / "stats.json"
    collector.export(path)
    loaded = StatsCollector.load(path)
    assert loaded.total_instructions == collector.total_instructions
    assert loaded.total_cycles == collector.total_cycles
    sample_pc = next(iter(collector.stats))
    assert loaded.stats[sample_pc].count == \
        collector.stats[sample_pc].count


def test_collector_tracks_origins():
    vm, machine = run_source("x = 1\ny = x + 1\nprint(y)\n")
    collector = StatsCollector()
    collector.collect(machine.trace)
    lookdict_pc = machine.site_table["dictobject.lookdict"]
    entry = collector.stats.get(lookdict_pc)
    assert entry is not None
    assert entry.by_origin  # reached from at least one origin


def test_origin_resolution_is_caller_dependent():
    # The same lookdict helper must resolve to NAME_RESOLUTION when
    # reached from LOAD_GLOBAL and to EXECUTE when reached from a guest
    # dict subscript — the paper's Section IV-B example.
    source = """
g = 5

def f():
    return g + 1

d = {}
d["k"] = 1
x = d["k"]
y = f()
print(x + y)
"""
    vm, machine = run_source(source)
    categories = resolve_categories(machine.trace, machine.site_table)
    assert (categories == int(C.UNRESOLVED)).sum() == 0
    arrays = machine.trace.arrays()
    raw = arrays["category"]
    unresolved = raw == int(C.UNRESOLVED)
    resolved = categories[unresolved]
    origins = arrays["origin"][unresolved]
    load_global = machine.site_table["ceval.handler.LOAD_GLOBAL"]
    subscr = machine.site_table["ceval.handler.BINARY_SUBSCR.dict"]
    assert (resolved[origins == load_global]
            == int(C.NAME_RESOLUTION)).all()
    assert (resolved[origins == subscr] == int(C.EXECUTE)).all()
    assert (origins == load_global).any()
    assert (origins == subscr).any()


def test_unknown_origins_fall_back_to_default():
    annotations = default_annotations()
    vm, machine = run_source("d = {}\nd[1] = 2\nx = d[1]\nprint(x)\n")
    categories = resolve_categories(machine.trace, machine.site_table,
                                    annotations)
    assert (categories == int(C.UNRESOLVED)).sum() == 0


def test_attribute_totals_match_simple_core():
    vm, machine = run_source("total = 0\nfor i in range(50):\n"
                             "    total = total + i * i\nprint(total)\n")
    system = SimulatedSystem()
    state = system.memory_side(machine.trace)
    attribution = attribute(machine.trace, machine.site_table, state)
    assert len(attribution.cycles) == len(attribution.categories) \
        == len(machine.trace)
    assert (attribution.categories != int(C.UNRESOLVED)).all()
    breakdown = attribution.breakdown()
    # Every cycle lands in exactly one category, and the total is the
    # simple core's, exactly: each cycle is a whole number.
    assert breakdown.total_cycles == attribution.cycles.sum() \
        == system.run(machine.trace, core="simple", state=state).cycles
    assert breakdown.cycles[C.EXECUTE] > 0
    assert C.UNRESOLVED not in breakdown.cycles
    shares = [breakdown.share(c) for c in C]
    assert abs(sum(shares) - 1.0) < 1e-9
    assert breakdown.share(C.DISPATCH) > 0.02
    assert breakdown.share(C.C_FUNCTION_CALL) > 0.05


def test_breakdown_top_categories():
    vm, machine = run_source("total = 0\nfor i in range(80):\n"
                             "    total = total + i\nprint(total)\n")
    state = SimulatedSystem().memory_side(machine.trace)
    breakdown = attribute(machine.trace, machine.site_table,
                          state).breakdown()
    top = breakdown.top_categories(3)
    assert len(top) == 3
    assert all(isinstance(label, str) and 0 < share <= 1
               for label, share in top)


def test_annotation_binding_requires_machine_sites():
    annotations = default_annotations()
    bound = annotations.bind({"ceval.handler.LOAD_GLOBAL": 0x4000})
    assert bound == {0x4000: int(C.NAME_RESOLUTION)}
    assert annotations.bind({}) == {}
