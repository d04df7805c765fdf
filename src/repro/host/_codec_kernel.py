"""Optional compiled kernels for the trace codec's hot loops.

The v2 trace codec (:mod:`repro.host.codec`) spends essentially all of
its time turning uint64 zigzag values into LEB128 varint bytes and
back. Both directions are tight byte-at-a-time loops, so — exactly
like the OOO core's :mod:`repro.uarch._ooo_kernel` and the burst
flush's :mod:`repro.host._emit_kernel` — they are a short C source
that :mod:`repro.host.kernel_loader` builds once per disk cache and
loads in every process that uses it:

* ``varint_encode`` writes the varints of values the delta/zigzag
  stages have already prepared;
* ``segment_decode`` decodes a whole ``zv``/``dzv`` column segment in
  one pass, straight into its slice of the preallocated column:
  varint, unzigzag, the running sum for ``dzv``, and for ``zv`` the
  narrowing to int32 with a range check.

No compiler or a failed build leaves the pure-NumPy reference in
``codec.py``, and both paths produce bit-identical bytes and columns
(LEB128 is canonical: one encoding per value, so the kernel is an
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

/* Decode one column segment of exactly `count` values into `out`:
   zigzag varints, plus a running sum (mod 2^64) into int64 values when
   `delta` is set (dzv), else int32 values that must fit (zv). Returns
   the number of bytes consumed, -1 when the stream is truncated or a
   value runs past 10 bytes (not a canonical int64 varint), and -2 when
   a zv value does not fit int32. The caller treats any return !=
   nbytes as corruption. */

int64_t segment_decode(const uint8_t *buf, int64_t nbytes,
                       int64_t count, int delta, void *out)
{
    int64_t *out64 = out;
    int32_t *out32 = out;
    uint64_t sum = 0;
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
        v = (v >> 1) ^ (0 - (v & 1));
        if (delta) {
            sum += v;
            out64[i] = (int64_t)sum;
        } else {
            int64_t s = (int64_t)v;
            if (s < INT32_MIN || s > INT32_MAX)
                return -2;
            out32[i] = (int32_t)s;
        }
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
    dll.segment_decode.restype = i64
    dll.segment_decode.argtypes = [_PU8, i64, i64, ctypes.c_int,
                                   ctypes.c_void_p]
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

    def decode_segment(self, seg: np.ndarray, out: np.ndarray) -> int:
        """Decode one ``zv`` (int32 ``out``) or ``dzv`` (int64 ``out``)
        segment into ``out``; bytes consumed (-1 on a malformed stream,
        -2 on a ``zv`` value outside int32)."""
        if seg.dtype != np.uint8 or out.dtype not in (np.int32, np.int64) \
                or not (seg.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("segment_decode needs contiguous uint8 bytes "
                             "and a contiguous int32 or int64 column")
        return int(self._dll.segment_decode(
            seg.ctypes.data_as(_PU8), seg.size, out.size,
            out.dtype == np.int64, out.ctypes.data))


_slot: KernelSlot[_CodecKernel] = KernelSlot()


def get_kernel() -> _CodecKernel | None:
    """The compiled codec kernel, building on first use (or ``None``)."""
    return _slot.get(_build)

