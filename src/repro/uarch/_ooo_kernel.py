"""Optional compiled kernels for the uarch walks.

Three models are sequential walks over a trace, so short C loops
reproduce them bit for bit at memory speed:

* the OOO core, a pure forward max-plus recurrence over integer ticks
  (:func:`~repro.uarch.ooo_core.ooo_cycles_scalar`);
* the cache hierarchy, each level a flat tag/stamp/dirty array per way
  that is walked in program order, data rows first and then the
  fetch-line changes
  (:func:`~repro.uarch.cache.simulate_cache_hierarchy_scalar`);
* the 2-level branch predictor and its BTB
  (:func:`~repro.uarch.branch.simulate_branches_scalar`).

When a C compiler is available, :mod:`repro.host.kernel_loader` builds
all three into one shared library once per disk cache (one compiler
run, one slot per process), and :func:`~repro.uarch.ooo_core.ooo_cycles`,
:func:`~repro.uarch.cache.simulate_cache_hierarchy` and
:func:`~repro.uarch.branch.simulate_branches` run through it, releasing
the GIL while they walk. Every walk reads the trace
columns and the memory-side outputs in the dtypes they are stored in
(int8 kinds and service levels, int32 deps, bool mispredict flags), so
a walk copies no column. The memory-side walks keep their state in C,
so besides its outputs (one byte per row each) a walk allocates only
the cache and predictor tables; an OOO walk allocates only its finish
ring. Without a compiler the scalar oracles run instead; both return
the same bits for every trace and config, and the OOO engines reject
the same out-of-range kinds and service levels
(:func:`~repro.uarch.ooo_core.ooo_cycles_scalar`).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..host.isa import FLAG_COND, FLAG_INDIRECT, FLAG_TAKEN, InstrKind
from ..host.kernel_loader import KernelSlot, compile_library
from .ooo_core import (KIND_LATENCY_TICKS, MSHRS, TICKS, _LOAD, _STORE,
                       _fetch_penalties, _load_latencies,
                       front_interval_ticks, ticks_per_byte)

_MAX_MSHRS = 64

_SOURCE = r"""
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_MSHRS 64

void ooo_kernel(int64_t n,
                const int8_t *kind, const int32_t *dep,
                const int8_t *dlev, const int8_t *ilev,
                const bool *misp,
                int64_t front_interval, int64_t rob, int64_t penalty,
                const int64_t *load_lat,   /* 4 entries */
                const int64_t *fetch_pen,  /* 4 entries */
                const int64_t *kind_lat,   /* per-kind latency */
                int64_t kind_load, int64_t kind_store,
                int64_t store_latency,
                int64_t line_size, int64_t tpb, int64_t mem_latency,
                int64_t mshrs,
                int64_t ring_mask, int64_t *fin,  /* ring_mask + 1 */
                int64_t *out /* [1]: total ticks */)
{
    int64_t front = 0, mem_bytes = 0, last_finish = 0;
    int64_t miss_ring[MAX_MSHRS] = {0};
    int64_t miss_count = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t start = front;
        front += front_interval;
        int64_t level = ilev[i];
        if (level > 0) {
            int64_t bubble = fetch_pen[level];
            front += bubble;
            start += bubble;
            if (level == 3) mem_bytes += line_size;
        }
        int64_t d = dep[i];
        if (d > 0 && d <= i) {
            int64_t p = fin[(i - d) & ring_mask];
            if (p > start) start = p;
        }
        if (i >= rob) {
            int64_t o = fin[(i - rob) & ring_mask];
            if (o > start) start = o;
        }
        int64_t k = kind[i];
        int64_t latency;
        if (k == kind_load || k == kind_store) {
            int64_t service = dlev[i];
            if (service == 3) {
                mem_bytes += line_size;
                int64_t bus_ready = mem_bytes * tpb - mem_latency;
                if (bus_ready > start) start = bus_ready;
                int64_t slot = miss_count % mshrs;
                if (miss_ring[slot] > start) start = miss_ring[slot];
                miss_ring[slot] = start + mem_latency;
                miss_count++;
            }
            if (k == kind_store)
                latency = store_latency;
            else
                latency = service >= 0 ? load_lat[service] : kind_lat[k];
        } else {
            latency = kind_lat[k];
        }
        int64_t finish = start + latency;
        fin[i & ring_mask] = finish;
        if (finish > last_finish) last_finish = finish;
        if (misp[i]) {
            int64_t restart = finish + penalty;
            if (restart > front) front = restart;
        }
    }
    out[0] = last_finish > front ? last_finish : front;
}

/* ---- cache hierarchy: one LRU level per struct ---------------------- */

typedef struct {
    int64_t set_mask, ways, clock;
    int64_t *tag, *stamp;      /* per way; stamp -1 = empty way */
    uint8_t *dirty;
    int64_t *stats;            /* accesses, misses, evictions, writebacks */
} level_t;

static int level_access(level_t *lv, int64_t line, int write)
{
    int64_t base = (line & lv->set_mask) * lv->ways;
    int64_t *tag = lv->tag + base, *stamp = lv->stamp + base;
    uint8_t *dirty = lv->dirty + base;
    int64_t victim = 0;
    lv->stats[0]++;
    for (int64_t w = 0; w < lv->ways; w++) {
        if (stamp[w] >= 0 && tag[w] == line) {
            stamp[w] = lv->clock++;
            if (write) dirty[w] = 1;
            return 1;
        }
        if (stamp[w] < stamp[victim]) victim = w;
    }
    lv->stats[1]++;
    if (stamp[victim] >= 0) {
        lv->stats[2]++;
        if (dirty[victim]) lv->stats[3]++;
    }
    tag[victim] = line;
    stamp[victim] = lv->clock++;
    dirty[victim] = (uint8_t)write;
    return 0;
}

static int8_t hierarchy_access(level_t *first, level_t *lv, int64_t line,
                               int write)
{
    if (level_access(first, line, write)) return 0;
    if (level_access(&lv[2], line, write)) return 1;
    if (level_access(&lv[3], line, write)) return 2;
    return 3;
}

/* Levels in geom/stats order: L1I, L1D, L2, L3. geom holds (sets, ways)
   per level, stats 4 counters per level. Returns -1 if out of memory. */
int cache_walk(int64_t n, const int64_t *pc, const int8_t *kind,
               const int64_t *addr, int64_t kind_load, int64_t kind_store,
               int64_t line_bits, const int64_t *geom, int64_t *stats,
               int8_t *dlevel, int8_t *ilevel)
{
    level_t lv[4];
    int64_t ways = 0, off = 0;
    for (int j = 0; j < 4; j++) ways += geom[2 * j] * geom[2 * j + 1];
    int64_t *words = malloc(2 * ways * sizeof(int64_t));
    uint8_t *dirty = calloc(ways, 1);
    if (!words || !dirty) {
        free(words);
        free(dirty);
        return -1;
    }
    memset(words + ways, 0xff, ways * sizeof(int64_t));
    for (int j = 0; j < 4; off += geom[2 * j] * geom[2 * j + 1], j++) {
        lv[j].set_mask = geom[2 * j] - 1;
        lv[j].ways = geom[2 * j + 1];
        lv[j].clock = 0;
        lv[j].tag = words + off;
        lv[j].stamp = words + ways + off;
        lv[j].dirty = dirty + off;
        lv[j].stats = stats + 4 * j;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t k = kind[i];
        dlevel[i] = k == kind_load || k == kind_store
            ? hierarchy_access(&lv[1], lv, addr[i] >> line_bits,
                               k == kind_store)
            : -1;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t line = pc[i] >> line_bits;
        ilevel[i] = i == 0 || line != (pc[i - 1] >> line_bits)
            ? hierarchy_access(&lv[0], lv, line, 0) : 0;
    }
    free(words);
    free(dirty);
    return 0;
}

/* ---- 2-level predictor with 2-bit counters, plus a BTB -------------- */

/* stats: conditional, conditional mispredicts, indirect, indirect
   mispredicts. Returns -1 if out of memory. */
int branch_walk(int64_t n, const int64_t *pc, const int8_t *kind,
                const int8_t *flags, const int64_t *target,
                int64_t kind_branch, int64_t kind_icall, int64_t flag_taken,
                int64_t flag_indirect, int64_t flag_cond,
                int64_t l1_mask, int64_t l2_mask, int64_t btb_mask,
                int64_t history_mask, uint8_t *misp, int64_t *stats)
{
    int64_t *history = calloc(l1_mask + 1, sizeof(int64_t));
    uint8_t *counter = malloc(l2_mask + 1);
    int64_t *btb = malloc(2 * (btb_mask + 1) * sizeof(int64_t));
    if (!history || !counter || !btb) {
        free(history);
        free(counter);
        free(btb);
        return -1;
    }
    memset(counter, 2, l2_mask + 1);          /* weakly taken */
    for (int64_t e = 0; e <= btb_mask; e++) {
        btb[2 * e] = -1;                       /* tag: no branch */
        btb[2 * e + 1] = 0;                    /* target */
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t k = kind[i], f = flags[i], p = pc[i] >> 2;
        if ((k == kind_icall || k == kind_branch) && (f & flag_indirect)) {
            int64_t *entry = btb + 2 * (p & btb_mask);
            stats[2]++;
            if (entry[0] != pc[i] || entry[1] != target[i]) {
                stats[3]++;
                misp[i] = 1;
                entry[0] = pc[i];
                entry[1] = target[i];
            }
        } else if (k == kind_branch && (f & flag_cond)) {
            int taken = (f & flag_taken) != 0;
            int64_t h = history[p & l1_mask];
            uint8_t *c = counter + ((h ^ p) & l2_mask);
            stats[0]++;
            if ((*c >= 2) != taken) {
                stats[1]++;
                misp[i] = 1;
            }
            if (taken) {
                if (*c < 3) (*c)++;
            } else if (*c > 0) {
                (*c)--;
            }
            history[p & l1_mask] = ((h << 1) | taken) & history_mask;
        }
    }
    free(history);
    free(counter);
    free(btb);
    return 0;
}
"""

_P64 = ctypes.POINTER(ctypes.c_int64)
_PI32 = ctypes.POINTER(ctypes.c_int32)
_PU8 = ctypes.POINTER(ctypes.c_uint8)
_PI8 = ctypes.POINTER(ctypes.c_int8)
_PBOOL = ctypes.POINTER(ctypes.c_bool)


def _build() -> ctypes.CDLL | None:
    dll = compile_library("ooo_kernel", _SOURCE)
    if dll is None:
        return None
    i64 = ctypes.c_int64
    dll.ooo_kernel.restype = None
    dll.ooo_kernel.argtypes = [
        i64, _PI8, _PI32, _PI8, _PI8, _PBOOL,
        i64, i64, i64, _P64, _P64, _P64,
        i64, i64, i64, i64, i64, i64, i64,
        i64, _P64, _P64,
    ]
    dll.cache_walk.restype = ctypes.c_int
    dll.cache_walk.argtypes = [
        i64, _P64, _PI8, _P64, i64, i64, i64, _P64, _P64, _PI8, _PI8,
    ]
    dll.branch_walk.restype = ctypes.c_int
    dll.branch_walk.argtypes = [
        i64, _P64, _PI8, _PI8, _P64, i64, i64, i64, i64, i64,
        i64, i64, i64, i64, _PU8, _P64,
    ]
    return dll


_slot: KernelSlot[ctypes.CDLL] = KernelSlot()


def get_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, building it on first use (or ``None``)."""
    return _slot.get(_build)


def kernel_available() -> bool:
    return get_kernel() is not None


def _columns(*columns: tuple[np.ndarray, np.dtype]) -> list[np.ndarray]:
    """Equal-length trace columns as contiguous arrays of the given dtypes.

    A column that already is one is passed on as it is. Any other is
    copied, and a value the copy cannot hold raises instead of wrapping
    (to bool, any nonzero value is True, as the walks read it).
    """
    out = []
    for arr, dtype in columns:
        arr = np.asarray(arr)
        column = np.ascontiguousarray(arr, dtype=dtype)
        if column.dtype != arr.dtype and column.dtype != np.bool_ \
                and not np.array_equal(column, arr):
            raise ValueError(
                f"trace column values do not fit {column.dtype.name}")
        out.append(column)
    if len({len(column) for column in out}) > 1:
        raise ValueError("trace columns differ in length")
    return out


def cache_walk(pc: np.ndarray, kind: np.ndarray, addr: np.ndarray,
               line_bits: int, geometry: list[int],
               ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """One compiled walk of the cache hierarchy; == the scalar oracle.

    ``geometry`` is (sets, ways) for L1I, L1D, L2 and L3. Returns the
    int8 data and fetch service levels, and accesses, misses, evictions
    and writebacks per level, in the same order. Callers must check
    :func:`kernel_available` first.
    """
    pc, kind, addr = _columns((pc, np.int64), (kind, np.int8),
                              (addr, np.int64))
    n = len(pc)
    dlevel = np.empty(n, dtype=np.int8)
    ilevel = np.empty(n, dtype=np.int8)
    geom = np.array(geometry, dtype=np.int64)
    stats = np.zeros(16, dtype=np.int64)
    if get_kernel().cache_walk(
            n, pc.ctypes.data_as(_P64), kind.ctypes.data_as(_PI8),
            addr.ctypes.data_as(_P64), _LOAD, _STORE, line_bits,
            geom.ctypes.data_as(_P64), stats.ctypes.data_as(_P64),
            dlevel.ctypes.data_as(_PI8), ilevel.ctypes.data_as(_PI8)):
        raise MemoryError("cache walk: no memory for the level tables")
    return dlevel, ilevel, stats.tolist()


def branch_walk(pc: np.ndarray, kind: np.ndarray, flags: np.ndarray,
                target: np.ndarray, masks: tuple[int, int, int, int],
                ) -> tuple[np.ndarray, list[int]]:
    """One compiled walk of the branch predictor; == the scalar oracle.

    ``masks`` are the L1, L2, BTB and history masks. Returns the bool
    mispredict flag per row, and the conditional,
    conditional-mispredict, indirect and indirect-mispredict counts.
    Callers must check :func:`kernel_available` first.
    """
    pc, kind, flags, target = _columns(
        (pc, np.int64), (kind, np.int8), (flags, np.int8),
        (target, np.int64))
    mispredicted = np.zeros(len(pc), dtype=bool)
    stats = np.zeros(4, dtype=np.int64)
    if get_kernel().branch_walk(
            len(pc), pc.ctypes.data_as(_P64), kind.ctypes.data_as(_PI8),
            flags.ctypes.data_as(_PI8), target.ctypes.data_as(_P64),
            int(InstrKind.BRANCH), int(InstrKind.ICALL), FLAG_TAKEN,
            FLAG_INDIRECT, FLAG_COND, *masks,
            mispredicted.ctypes.data_as(_PU8), stats.ctypes.data_as(_P64)):
        raise MemoryError("branch walk: no memory for the predictor tables")
    return mispredicted, stats.tolist()


def ooo_walk(kind: np.ndarray, dep: np.ndarray, dlevel: np.ndarray,
             ilevel: np.ndarray, mispredicted: np.ndarray, config,
             ring: int) -> float:
    """One compiled walk of the OOO core; == the scalar oracle.

    The columns are read as they are stored: ``kind``, ``dlevel`` and
    ``ilevel`` int8, ``dep`` int32 and ``mispredicted`` bool (other
    dtypes are converted first, see :func:`_columns`). ``ring`` is the
    finish ring's size, from :func:`~repro.uarch.ooo_core.ring_size`.
    Callers must check :func:`kernel_available` first, and the kinds
    and service levels against the tables they index (as
    :func:`~repro.uarch.ooo_core.ooo_cycles_many` does).
    """
    kind, dep, dlevel, ilevel, mispredicted = _columns(
        (kind, np.int8), (dep, np.int32), (dlevel, np.int8),
        (ilevel, np.int8), (mispredicted, np.bool_))
    n = len(kind)
    if n == 0:
        return 0.0
    if MSHRS > _MAX_MSHRS:  # pragma: no cover - compile-time constant
        raise ValueError("MSHRS exceeds the kernel's ring capacity")
    load_lat = np.array(_load_latencies(config), dtype=np.int64)
    fetch_pen = np.array(_fetch_penalties(config), dtype=np.int64)
    fin = np.zeros(ring, dtype=np.int64)
    out = np.zeros(1, dtype=np.int64)

    def p(a):
        return a.ctypes.data_as(_P64)

    get_kernel().ooo_kernel(
        n, kind.ctypes.data_as(_PI8), dep.ctypes.data_as(_PI32),
        dlevel.ctypes.data_as(_PI8), ilevel.ctypes.data_as(_PI8),
        mispredicted.ctypes.data_as(_PBOOL),
        front_interval_ticks(config), config.core.rob_entries,
        config.branch.mispredict_penalty * TICKS,
        p(load_lat), p(fetch_pen), p(KIND_LATENCY_TICKS),
        _LOAD, _STORE, TICKS,
        config.l1d.line_size, ticks_per_byte(config),
        config.memory.latency * TICKS, MSHRS,
        ring - 1, p(fin), p(out))
    return out[0] / TICKS
