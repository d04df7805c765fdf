"""Optional compiled kernel for the burst-emission flush.

The burst engine's flush is a deterministic expansion: walk the queue of
template ids, copy each template's static rows into the trace buffer,
and add the linear fixups from the flat dynamic-operand stream. That is
a ~40-line C loop, so — exactly like the OOO core's
:mod:`repro.uarch._ooo_kernel` — :mod:`repro.host.kernel_loader`
builds it into a shared library once per disk cache, loads it at first
use, and the engine dispatches flushes to it. No compiler or a failed build leaves
the batched-NumPy flush, and both paths stamp bit-identical rows (the
kernel is an evaluation order change, not a model change).
"""

from __future__ import annotations

import ctypes

import numpy as np

from .kernel_loader import KernelSlot, compile_library

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Expand the deferred emission queue into row-major int64 trace rows.

   order      queue of template ids (n_entries)
   dyn        flat stream of dynamic operands, arity[tid] per entry
   statics    concatenated template rows (8 cells each)
   static_off per-tid row offset into statics
   rows       per-tid row count
   arity      per-tid dynamic-operand count
   fix_off    per-tid offset into fixups (in fixup records)
   fix_cnt    per-tid fixup record count
   fixups     packed (row, col, dyn_index, coefficient) records
   out        destination rows (caller-reserved, row-major, 8 cells)

   Template id 0 is RAW: arity 8, the operands are the row itself. */

int64_t burst_flush(const int64_t *order, int64_t n_entries,
                    const int64_t *dyn,
                    const int64_t *statics,
                    const int64_t *static_off,
                    const int64_t *rows, const int64_t *arity,
                    const int64_t *fix_off, const int64_t *fix_cnt,
                    const int64_t *fixups,
                    int64_t *out)
{
    int64_t d = 0, r = 0;
    for (int64_t e = 0; e < n_entries; e++) {
        int64_t tid = order[e];
        int64_t k = rows[tid];
        int64_t *dst = out + r * 8;
        if (tid == 0) {
            memcpy(dst, dyn + d, 8 * sizeof(int64_t));
        } else {
            memcpy(dst, statics + static_off[tid] * 8,
                   (size_t)k * 8 * sizeof(int64_t));
            const int64_t *fx = fixups + fix_off[tid] * 4;
            for (int64_t f = fix_cnt[tid]; f > 0; f--, fx += 4)
                dst[fx[0] * 8 + fx[1]] += fx[3] * dyn[d + fx[2]];
        }
        d += arity[tid];
        r += k;
    }
    return r;
}
"""

_P64 = ctypes.POINTER(ctypes.c_int64)


def _build() -> _FlushKernel | None:
    dll = compile_library("emit_kernel", _SOURCE)
    if dll is None:
        return None
    dll.burst_flush.restype = ctypes.c_int64
    dll.burst_flush.argtypes = [
        _P64, ctypes.c_int64, _P64,
        _P64, _P64, _P64, _P64, _P64, _P64, _P64, _P64,
    ]
    return _FlushKernel(dll)


class _FlushKernel:
    """Thin numpy-aware wrapper around the compiled entry point."""

    __slots__ = ("_dll",)

    def __init__(self, dll: ctypes.CDLL) -> None:
        self._dll = dll

    def burst_flush(self, order, n_entries, dyn, statics, static_off,
                    rows, arity, fix_off, fix_cnt, fixups, out) -> int:
        def p(arr: np.ndarray):
            return arr.ctypes.data_as(_P64)

        return int(self._dll.burst_flush(
            p(order), n_entries, p(dyn), p(statics), p(static_off),
            p(rows), p(arity), p(fix_off), p(fix_cnt), p(fixups),
            p(out)))


_slot: KernelSlot[_FlushKernel] = KernelSlot()


def get_kernel() -> _FlushKernel | None:
    """The compiled flush kernel, building on first use (or ``None``)."""
    return _slot.get(_build)

