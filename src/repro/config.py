"""Machine and run-time configuration (Table I of the paper).

The defaults mirror the paper's ZSim configuration, which mimics an Intel
Skylake processor: a 4-way out-of-order core at 3.4 GHz, a 2-level 2-bit
branch predictor, 64 kB L1 caches, a 256 kB L2, a 2 MB last-level cache
slice (one quarter of the 8 MB shared L3), and DDR4-2400 memory.

All configuration objects are frozen dataclasses; experiment sweeps create
modified copies with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

KB = 1024
MB = 1024 * KB


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: size, associativity, line size, and hit latency."""

    name: str
    size: int
    ways: int
    line_size: int = 64
    latency: int = 4

    def __post_init__(self) -> None:
        _require(self.size > 0, f"{self.name}: size must be positive")
        _require(self.ways > 0, f"{self.name}: ways must be positive")
        _require(_is_pow2(self.line_size),
                 f"{self.name}: line size must be a power of two")
        _require(self.size % (self.ways * self.line_size) == 0,
                 f"{self.name}: size must be divisible by ways * line size")
        _require(_is_pow2(self.num_sets),
                 f"{self.name}: number of sets must be a power of two")
        _require(self.latency >= 1, f"{self.name}: latency must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size // (self.ways * self.line_size)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Two-level branch predictor with 2-bit counters, plus a BTB.

    Table I: "2-level 2-bit BP with 2048x18b L1, 16384x2b L2". The ``scale``
    knob multiplies both table sizes, matching the relative sweep axis of
    Figure 7(b) (0.5x .. 8x).
    """

    l1_entries: int = 2048
    history_bits: int = 18
    l2_entries: int = 16384
    btb_entries: int = 4096
    mispredict_penalty: int = 17
    scale: float = 1.0

    def __post_init__(self) -> None:
        _require(self.l1_entries > 0, "BP: l1_entries must be positive")
        _require(self.l2_entries > 0, "BP: l2_entries must be positive")
        _require(0 < self.history_bits <= 32,
                 "BP: history_bits must be in (0, 32]")
        _require(self.scale > 0, "BP: scale must be positive")
        _require(self.mispredict_penalty >= 1,
                 "BP: mispredict penalty must be >= 1")

    @property
    def scaled_l1_entries(self) -> int:
        return max(4, int(self.l1_entries * self.scale))

    @property
    def scaled_l2_entries(self) -> int:
        return max(16, int(self.l2_entries * self.scale))

    @property
    def scaled_btb_entries(self) -> int:
        return max(16, int(self.btb_entries * self.scale))

    def scaled(self, factor: float) -> "BranchPredictorConfig":
        """Return a copy with the sweep scale set to ``factor``."""
        return dataclasses.replace(self, scale=factor)


@dataclass(frozen=True)
class MemoryConfig:
    """DDR4-2400-like main memory: fixed latency plus finite bandwidth."""

    latency: int = 173
    bandwidth_mbps: int = 19200
    frequency_ghz: float = 3.4

    def __post_init__(self) -> None:
        _require(self.latency >= 1, "memory: latency must be >= 1")
        _require(self.bandwidth_mbps > 0,
                 "memory: bandwidth must be positive")
        _require(self.frequency_ghz > 0,
                 "memory: core frequency must be positive")

    @property
    def bytes_per_cycle(self) -> float:
        """Sustainable memory bytes per CPU cycle at the core frequency."""
        bytes_per_second = self.bandwidth_mbps * 1e6
        cycles_per_second = self.frequency_ghz * 1e9
        return bytes_per_second / cycles_per_second


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table I)."""

    issue_width: int = 4
    fetch_bytes: int = 16
    rob_entries: int = 224
    load_queue: int = 72
    store_queue: int = 56

    def __post_init__(self) -> None:
        _require(self.issue_width >= 1, "core: issue width must be >= 1")
        _require(self.fetch_bytes >= 4, "core: fetch bytes must be >= 4")
        _require(self.rob_entries >= self.issue_width,
                 "core: ROB must hold at least one issue group")
        _require(self.load_queue >= 1, "core: load queue must be >= 1")
        _require(self.store_queue >= 1, "core: store queue must be >= 1")


@dataclass(frozen=True)
class MachineConfig:
    """Complete simulated machine: core, predictor, caches, memory."""

    core: CoreConfig = CoreConfig()
    branch: BranchPredictorConfig = BranchPredictorConfig()
    l1i: CacheConfig = CacheConfig("L1I", 64 * KB, 8, latency=4)
    l1d: CacheConfig = CacheConfig("L1D", 64 * KB, 8, latency=4)
    l2: CacheConfig = CacheConfig("L2", 256 * KB, 4, latency=12)
    l3: CacheConfig = CacheConfig("L3", 2 * MB, 16, latency=42)
    memory: MemoryConfig = MemoryConfig()

    def __post_init__(self) -> None:
        line = self.l1d.line_size
        for cache in (self.l1i, self.l2, self.l3):
            _require(cache.line_size == line,
                     "all cache levels must share one line size")

    def with_llc_size(self, size: int) -> "MachineConfig":
        """Return a copy with the last-level cache resized (Fig 7c)."""
        ways = self.l3.ways
        while size % (ways * self.l3.line_size) != 0 and ways > 1:
            ways //= 2
        return dataclasses.replace(
            self, l3=dataclasses.replace(self.l3, size=size, ways=ways))

    def with_line_size(self, line_size: int) -> "MachineConfig":
        """Return a copy with every cache level using ``line_size`` (Fig 7d)."""
        def resize(cache: CacheConfig) -> CacheConfig:
            ways = cache.ways
            while cache.size % (ways * line_size) != 0 and ways > 1:
                ways //= 2
            sets = cache.size // (ways * line_size)
            while sets & (sets - 1):  # force power-of-two sets
                ways *= 2
                sets = cache.size // (ways * line_size)
            return dataclasses.replace(cache, line_size=line_size, ways=ways)

        return dataclasses.replace(
            self, l1i=resize(self.l1i), l1d=resize(self.l1d),
            l2=resize(self.l2), l3=resize(self.l3))

    def with_memory_latency(self, latency: int) -> "MachineConfig":
        """Return a copy with a different memory latency (Fig 7e)."""
        return dataclasses.replace(
            self, memory=dataclasses.replace(self.memory, latency=latency))

    def with_memory_bandwidth(self, mbps: int) -> "MachineConfig":
        """Return a copy with a different memory bandwidth (Fig 7f)."""
        return dataclasses.replace(
            self,
            memory=dataclasses.replace(self.memory, bandwidth_mbps=mbps))

    def with_issue_width(self, width: int) -> "MachineConfig":
        """Return a copy with a different issue width (Fig 7a)."""
        rob = max(self.core.rob_entries, width)
        return dataclasses.replace(
            self, core=dataclasses.replace(
                self.core, issue_width=width, rob_entries=rob))

    def with_branch_scale(self, scale: float) -> "MachineConfig":
        """Return a copy with branch predictor tables scaled (Fig 7b)."""
        return dataclasses.replace(self, branch=self.branch.scaled(scale))


def skylake_config() -> MachineConfig:
    """The paper's baseline machine (Table I).

    The 2 MB L3 models the one-quarter slice of the 8 MB shared LLC that
    the paper assumes is available to each physical core.
    """
    return MachineConfig()


def scaled_config(shift: int = 0) -> MachineConfig:
    """Table I machine with every cache level scaled down by ``2**shift``.

    The memory-management experiments (Figures 10-17) depend only on the
    *ratio* between nursery and cache sizes, so scaled runs keep the
    paper's shapes while shrinking simulation volume. ``shift=0`` is the
    full Table I machine; ``shift=3`` gives an 8 kB L1 / 32 kB L2 /
    256 kB LLC machine whose "paper-equivalent" nursery axis is scaled
    the same way by the experiment harness.
    """
    if shift < 0 or shift > 6:
        raise ConfigError("scaled_config shift must be in [0, 6]")
    base = MachineConfig()

    def scale(cache: CacheConfig) -> CacheConfig:
        size = cache.size >> shift
        ways = cache.ways
        while size < ways * cache.line_size:
            ways //= 2
        return dataclasses.replace(cache, size=size, ways=max(1, ways))

    return dataclasses.replace(
        base, l1i=scale(base.l1i), l1d=scale(base.l1d),
        l2=scale(base.l2), l3=scale(base.l3))


@dataclass(frozen=True)
class GCConfig:
    """Generational GC parameters for the PyPy-model runtime.

    ``nursery_size`` is the swept axis of Figures 10-17. The paper's
    baseline statically sizes the nursery at half the LLC (1 MB for the
    2 MB cache).
    """

    nursery_size: int = 1 * MB
    #: Minor collections promote objects that survived this many minor GCs.
    promotion_age: int = 1
    #: A major (old-space) collection runs when the old space has grown by
    #: this factor since the last major collection.
    major_growth_factor: float = 1.82
    #: Initial old-space threshold before the first major collection.
    major_initial_threshold: int = 16 * MB

    def __post_init__(self) -> None:
        _require(self.nursery_size >= 16 * KB,
                 "GC: nursery must be at least 16 kB")
        _require(self.promotion_age >= 1, "GC: promotion age must be >= 1")
        _require(self.major_growth_factor > 1.0,
                 "GC: major growth factor must exceed 1.0")


@dataclass(frozen=True)
class JITConfig:
    """Tracing-JIT parameters for the PyPy-model runtime."""

    enabled: bool = True
    #: A loop header becomes hot after this many executions.
    hot_loop_threshold: int = 30
    #: A function becomes hot after this many calls.
    hot_call_threshold: int = 60
    #: A guard that fails this many times triggers a bridge compilation.
    guard_bridge_threshold: int = 20
    #: Abort tracing beyond this many recorded operations.
    trace_limit: int = 4000
    #: Host instructions of compiler work modeled per recorded operation.
    compile_cost_per_op: int = 60

    def __post_init__(self) -> None:
        _require(self.hot_loop_threshold >= 1,
                 "JIT: hot loop threshold must be >= 1")
        _require(self.hot_call_threshold >= 1,
                 "JIT: hot call threshold must be >= 1")
        _require(self.guard_bridge_threshold >= 1,
                 "JIT: guard bridge threshold must be >= 1")
        _require(self.trace_limit >= 16, "JIT: trace limit must be >= 16")
        _require(self.compile_cost_per_op >= 1,
                 "JIT: compile cost must be >= 1")


@dataclass(frozen=True)
class RuntimeConfig:
    """Which runtime to model, and with what parameters.

    ``kind`` selects between the CPython-model interpreter, the PyPy model
    (with the JIT enabled or disabled), and the V8-analog runtime.
    """

    kind: str = "cpython"
    gc: GCConfig = GCConfig()
    jit: JITConfig = JITConfig()

    _KINDS = ("cpython", "pypy", "v8")

    def __post_init__(self) -> None:
        _require(self.kind in self._KINDS,
                 f"runtime kind must be one of {self._KINDS}")

    @property
    def uses_jit(self) -> bool:
        return self.kind in ("pypy", "v8") and self.jit.enabled

    def with_nursery(self, nursery_size: int) -> "RuntimeConfig":
        """Return a copy with a different nursery size (Figs 10-17)."""
        return dataclasses.replace(
            self, gc=dataclasses.replace(self.gc, nursery_size=nursery_size))


def cpython_runtime() -> RuntimeConfig:
    """The CPython 2.7-model interpreter-only runtime."""
    return RuntimeConfig(kind="cpython")


def pypy_runtime(jit: bool = True, nursery_size: int = 1 * MB,
                 ) -> RuntimeConfig:
    """The PyPy 5.3-model runtime, with or without JIT."""
    return RuntimeConfig(
        kind="pypy",
        gc=GCConfig(nursery_size=nursery_size),
        jit=JITConfig(enabled=jit))


def v8_runtime(nursery_size: int = 1 * MB) -> RuntimeConfig:
    """The V8 4.2-analog JavaScript runtime.

    V8's CrankShaft-era compiler is method-oriented: functions get hot
    faster than PyPy's loops do, and per-op compile cost is higher.
    """
    return RuntimeConfig(
        kind="v8",
        gc=GCConfig(nursery_size=nursery_size),
        jit=JITConfig(hot_loop_threshold=50, hot_call_threshold=20,
                      compile_cost_per_op=80))
