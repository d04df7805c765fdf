"""Optional compiled kernel for the trace codec's varint hot loop.

The v2 trace codec (:mod:`repro.host.codec`) spends essentially all of
its time turning uint64 zigzag values into LEB128 varint bytes and
back. Both directions are tight byte-at-a-time loops over buffers the
delta/zigzag stages have already prepared, so — exactly like the OOO
core's :mod:`repro.uarch._ooo_kernel` and the burst flush's
:mod:`repro.host._emit_kernel` — :mod:`repro.host.kernel_loader`
builds them into a per-process shared library at first use. No
compiler or a failed build leaves the pure-NumPy reference in
``codec.py``, and both paths produce bit-identical bytes (LEB128 is
canonical: one encoding per value, so the kernel is an
evaluation-order change, not a format change).
"""

from __future__ import annotations

import ctypes

import numpy as np

from .kernel_loader import KernelSlot, compile_library

_SOURCE = r"""
#include <stdint.h>

/* Canonical LEB128: 7 payload bits per byte, high bit = continuation.
   Returns the number of bytes written; the caller sizes `out` at
   10 * n (the int64 worst case). */

int64_t varint_encode(const uint64_t *vals, int64_t n, uint8_t *out)
{
    int64_t w = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t v = vals[i];
        while (v >= 0x80) {
            out[w++] = (uint8_t)(v & 0x7F) | 0x80;
            v >>= 7;
        }
        out[w++] = (uint8_t)v;
    }
    return w;
}

/* Decode exactly `count` values from `buf`. Returns the number of
   bytes consumed, or -1 when the stream is truncated or a value runs
   past 10 bytes (not a canonical int64 varint). The caller treats any
   return != nbytes as corruption. */

int64_t varint_decode(const uint8_t *buf, int64_t nbytes,
                      uint64_t *out, int64_t count)
{
    int64_t r = 0;
    for (int64_t i = 0; i < count; i++) {
        uint64_t v = 0;
        int shift = 0;
        for (;;) {
            if (r >= nbytes || shift >= 70)
                return -1;
            uint8_t b = buf[r++];
            v |= (uint64_t)(b & 0x7F) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
        }
        out[i] = v;
    }
    return r;
}
"""

_PU64 = ctypes.POINTER(ctypes.c_uint64)
_PU8 = ctypes.POINTER(ctypes.c_uint8)


def _build() -> _CodecKernel | None:
    dll = compile_library("codec_kernel", _SOURCE)
    if dll is None:
        return None
    i64 = ctypes.c_int64
    dll.varint_encode.restype = i64
    dll.varint_encode.argtypes = [_PU64, i64, _PU8]
    dll.varint_decode.restype = i64
    dll.varint_decode.argtypes = [_PU8, i64, _PU64, i64]
    return _CodecKernel(dll)


class _CodecKernel:
    """Thin numpy-aware wrapper around the compiled entry points."""

    __slots__ = ("_dll",)

    def __init__(self, dll: ctypes.CDLL) -> None:
        self._dll = dll

    def encode(self, values: np.ndarray, out: np.ndarray) -> int:
        """Write varints for ``values`` into ``out``; bytes written."""
        return int(self._dll.varint_encode(
            values.ctypes.data_as(_PU64), values.size,
            out.ctypes.data_as(_PU8)))

    def decode(self, buf: np.ndarray, out: np.ndarray) -> int:
        """Decode ``out.size`` varints from ``buf``; bytes consumed
        (-1 on malformed input)."""
        return int(self._dll.varint_decode(
            buf.ctypes.data_as(_PU8), buf.size,
            out.ctypes.data_as(_PU64), out.size))


_slot: KernelSlot[_CodecKernel] = KernelSlot()


def get_kernel() -> _CodecKernel | None:
    """The compiled codec kernel, building on first use (or ``None``)."""
    return _slot.get(_build)

