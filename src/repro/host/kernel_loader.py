"""One loader for the optional compiled C kernels.

The OOO core (:mod:`repro.uarch._ooo_kernel`), the burst flush
(:mod:`repro.host._emit_kernel`) and the trace codec
(:mod:`repro.host._codec_kernel`) each carry a short C source. This
module turns such a source into a loaded library, at most once per
disk cache:

* It finds the compiler (``$CC``, else ``cc``/``gcc``/``clang`` on
  ``PATH``). A kernel is on exactly when a compiler is found that
  builds it; ``CC=false`` turns every kernel off.
* A built library is an entry of the disk cache
  (:mod:`repro.experiments.diskcache`), under ``<cache-root>/kernels/``.
  Its key is a SHA-256 over the kernel name, its C source, the
  compiler flags, the compiler's resolved path with its size and
  mtime, ``sys.platform`` and ``platform.machine()``, so a changed
  source or compiler is a new entry. A hit is loaded with ``ctypes``
  after its SHA-256 matches the entry's sidecar; the disk cache's
  quarantine, orphan removal, tmp sweep, ``gc``, ``stats`` and
  ``verify`` cover kernel entries like any other.
* Loading a library runs its code, so an entry is used only when the
  ``kernels/`` directory and the library file belong to the current
  user and are writable by no one else. Otherwise, and when the cache
  is off (``REPRO_CACHE=off``) or its root does not exist (a build
  never creates it), the kernel is compiled privately.
* An entry that passes its checks but does not load means the cache's
  location cannot load libraries: the kernel is compiled privately and
  the entry is left as it is.
* On a miss it compiles in a fresh temporary directory, loads the
  library from there, commits a copy to the cache and removes the
  directory at once. POSIX keeps a loaded object mapped after its file
  is unlinked, so nothing is left behind even by workers that exit
  through ``os._exit``.

This is deliberately *not* a build-time extension: the repository must
stay importable from source with nothing but numpy, so every kernel
has a bit-identical Python path and a failed build just returns
``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Generic, TypeVar

T = TypeVar("T")

#: Compiler flags of every kernel (part of each kernel's cache key).
FLAGS = ("-O2", "-shared", "-fPIC")


def _compiler() -> str | None:
    """Path of ``$CC``, else of the first of cc/gcc/clang on ``PATH``."""
    names = [os.environ["CC"]] if os.environ.get("CC") \
        else ["cc", "gcc", "clang"]
    for name in names:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def kernel_key_params(name: str, source: str, cc: str) -> dict:
    """What determines a built library: its cache key's parameters."""
    resolved = os.path.realpath(cc)
    stat = os.stat(resolved)
    return {
        "kernel": name,
        "source_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "flags": list(FLAGS),
        "compiler": [resolved, stat.st_size, stat.st_mtime_ns],
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def compile_library(name: str, source: str) -> ctypes.CDLL | None:
    """Load ``source`` built with ``cc -O2 -shared`` (or ``None``).

    The library comes from the disk cache when a committed entry
    matches, and is compiled (and committed) otherwise.
    """
    cc = _compiler()
    if cc is None:
        return None
    # Function-level import: repro.host does not import
    # repro.experiments when it is loaded.
    from ..experiments.diskcache import content_key, kernel_cache
    cache = kernel_cache()
    key = params = None
    if cache is not None:
        params = kernel_key_params(name, source, cc)
        key = content_key(params)
        cached = cache.load_kernel(key)
        if cached is not None:
            try:
                return ctypes.CDLL(str(cached))
            except OSError:
                # Its bytes are the ones committed, so the cache cannot
                # load libraries here (a noexec mount, another host's
                # libc): build privately, and leave the entry alone
                # rather than quarantine it once per process.
                cache = None
    tmpdir = tempfile.mkdtemp(prefix=f"repro-{name}-")
    try:
        src = os.path.join(tmpdir, name + ".c")
        suffix = ".dylib" if sys.platform == "darwin" else ".so"
        lib = os.path.join(tmpdir, name + suffix)
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(source)
        subprocess.run([cc, *FLAGS, "-o", lib, src],
                       check=True, capture_output=True, timeout=120)
        dll = ctypes.CDLL(lib)
        if cache is not None:
            cache.store_kernel(key, Path(lib), params)
        return dll
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
