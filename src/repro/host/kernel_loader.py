"""One loader for the optional compiled C kernels.

The OOO core (:mod:`repro.uarch._ooo_kernel`), the burst flush
(:mod:`repro.host._emit_kernel`) and the trace codec
(:mod:`repro.host._codec_kernel`) each carry a short C source. This
module turns such a source into a loaded library: it finds the
compiler (``$CC``, else ``cc``/``gcc``/``clang`` on ``PATH``), compiles
in a fresh temporary directory, loads the library with ``ctypes`` and
removes the directory at once — POSIX keeps a loaded object mapped
after its file is unlinked, so nothing is left behind even by workers
that exit through ``os._exit``. A kernel is on exactly when a compiler
builds it; ``CC=false`` turns every kernel off.

This is deliberately *not* a build-time extension: the repository must
stay importable from source with nothing but numpy, so every kernel
has a bit-identical Python path and a failed build just returns
``None``.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Callable, Generic, TypeVar

T = TypeVar("T")


def compile_library(name: str, source: str) -> ctypes.CDLL | None:
    """Compile ``source`` with ``cc -O2 -shared`` and load it (or ``None``)."""
    cc = (os.environ.get("CC") or shutil.which("cc")
          or shutil.which("gcc") or shutil.which("clang"))
    if cc is None:
        return None
    tmpdir = tempfile.mkdtemp(prefix=f"repro-{name}-")
    try:
        src = os.path.join(tmpdir, name + ".c")
        suffix = ".dylib" if sys.platform == "darwin" else ".so"
        lib = os.path.join(tmpdir, name + suffix)
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(source)
        subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", lib, src],
                       check=True, capture_output=True, timeout=120)
        return ctypes.CDLL(lib)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


class KernelSlot(Generic[T]):
    """Holds one kernel, built at most once per process."""

    __slots__ = ("_lock", "_tried", "_kernel")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tried = False
        self._kernel: T | None = None

    def get(self, build: Callable[[], T | None]) -> T | None:
        """The kernel, calling ``build`` on first use (``None`` if it
        failed)."""
        with self._lock:
            if not self._tried:
                self._tried = True
                self._kernel = build()
        return self._kernel
