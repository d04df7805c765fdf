"""Optional compiled kernel for the OOO-core recurrence.

The OOO model is a pure forward max-plus recurrence over integer ticks
(:func:`~repro.uarch.ooo_core.ooo_cycles_scalar`), so a ~60-line C loop
reproduces it bit for bit at memory speed. When a C compiler is
available, :mod:`repro.host.kernel_loader` builds that loop into a
per-process shared library and :func:`~repro.uarch.ooo_core.ooo_cycles`
runs every walk through it, releasing the GIL so config sweeps can
also thread. Without a compiler the scalar loop runs instead; both
return the same bits for every trace and config.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..host.kernel_loader import KernelSlot, compile_library
from .ooo_core import (KIND_LATENCY_TICKS, MSHRS, TICKS, _LOAD, _STORE,
                       _fetch_penalties, _load_latencies,
                       front_interval_ticks, max_dep_distance, ring_size,
                       ticks_per_byte)

_MAX_MSHRS = 64

_SOURCE = r"""
#include <stdint.h>

#define MAX_MSHRS 64

void ooo_kernel(int64_t n,
                const int64_t *kind, const int64_t *dep,
                const int64_t *dlev, const int64_t *ilev,
                const uint8_t *misp,
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
"""

_P64 = ctypes.POINTER(ctypes.c_int64)
_PU8 = ctypes.POINTER(ctypes.c_uint8)


def _build() -> ctypes.CDLL | None:
    dll = compile_library("ooo_kernel", _SOURCE)
    if dll is None:
        return None
    i64 = ctypes.c_int64
    dll.ooo_kernel.restype = None
    dll.ooo_kernel.argtypes = [
        i64, _P64, _P64, _P64, _P64, _PU8,
        i64, i64, i64, _P64, _P64, _P64,
        i64, i64, i64, i64, i64, i64, i64,
        i64, _P64, _P64,
    ]
    return dll


_slot: KernelSlot[ctypes.CDLL] = KernelSlot()


def get_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, building it on first use (or ``None``)."""
    return _slot.get(_build)


def kernel_available() -> bool:
    return get_kernel() is not None


def _as_i64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


class PreparedTrace:
    """Kernel-ready int64 views of one trace + memory-side state.

    Conversions and the dep-column scan cost a few milliseconds on a
    million-instruction trace; preparing once lets a batched config
    sweep pay them once instead of once per config.
    """

    __slots__ = ("n", "kind", "dep", "dlev", "ilev", "misp", "max_dep")

    def __init__(self, trace_arrays, dlevel, ilevel,
                 mispredicted) -> None:
        self.n = len(trace_arrays["pc"])
        self.kind = _as_i64(trace_arrays["kind"])
        self.dep = _as_i64(trace_arrays["dep"])
        self.dlev = _as_i64(dlevel)
        self.ilev = _as_i64(ilevel)
        self.misp = np.ascontiguousarray(mispredicted, dtype=np.uint8)
        self.max_dep = max_dep_distance(self.dep)


def run_prepared(prep: PreparedTrace, config) -> float:
    """One compiled walk of a prepared trace; == the scalar loop.

    Callers must check :func:`kernel_available` first.
    """
    n = prep.n
    if n == 0:
        return 0.0
    if MSHRS > _MAX_MSHRS:  # pragma: no cover - compile-time constant
        raise ValueError("MSHRS exceeds the kernel's ring capacity")
    rob = config.core.rob_entries
    load_lat = _as_i64(_load_latencies(config))
    fetch_pen = _as_i64(_fetch_penalties(config))
    fin = np.zeros(ring_size(rob, n, prep.max_dep), dtype=np.int64)
    out = np.zeros(1, dtype=np.int64)

    def p(a):
        return a.ctypes.data_as(_P64)

    get_kernel().ooo_kernel(
        n, p(prep.kind), p(prep.dep), p(prep.dlev), p(prep.ilev),
        prep.misp.ctypes.data_as(_PU8),
        front_interval_ticks(config), rob,
        config.branch.mispredict_penalty * TICKS,
        p(load_lat), p(fetch_pen), p(KIND_LATENCY_TICKS),
        _LOAD, _STORE, TICKS,
        config.l1d.line_size, ticks_per_byte(config),
        config.memory.latency * TICKS, MSHRS,
        len(fin) - 1, p(fin), p(out))
    return out[0] / TICKS
