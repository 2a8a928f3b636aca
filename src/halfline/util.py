"""Small shared helpers."""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache

from .errors import ConfigError

__all__ = ["thread_count", "parallel_map"]


def thread_count() -> int:
    """Worker count for batch loops: the UTM_THREADS variable when set,
    else the core count up to 8.  Raises :class:`ConfigError` unless
    UTM_THREADS is unset, blank or a positive integer."""
    env = os.environ.get("UTM_THREADS", "").strip()
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"UTM_THREADS must be a positive integer, got {env!r}")
    return count


@lru_cache(maxsize=1)
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when numpy's install holds no loaded OpenBLAS exporting them.

    numpy's wheels bundle OpenBLAS in ``numpy.libs`` beside the package,
    its symbols prefixed and suffixed by the build.  Only a library that
    is already loaded is used, never a second copy.
    """
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _BlasPin:
    """Holds BLAS at one thread while any holder is inside :meth:`held`.

    The OpenBLAS thread count is process-wide, and ``parallel_map`` may be
    called from several threads at once, so holders are counted under a
    lock: the first one in saves the count and sets 1, the last one out
    restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    @contextmanager
    def held(self):
        blas = _openblas()
        if blas is None:
            yield
            return
        get, set_ = blas
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                set_(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    set_(self._saved)


_BLAS_PIN = _BlasPin()


def parallel_map(fn, items):
    """Ordered map over items, threaded when UTM_THREADS allows.

    Work items run under numpy, which releases the GIL in inner kernels;
    results are returned in input order so output stays deterministic.
    Library paths call it only from the caller's thread, never from a
    worker, where a nested call would start a pool of its own.  While
    workers run, the OpenBLAS that numpy loaded runs single-threaded, and
    its thread count is restored when the last threaded call, of any
    thread, returns or raises.
    """
    items = list(items)
    k = thread_count()
    if k <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with _BLAS_PIN.held(), \
            ThreadPoolExecutor(max_workers=min(k, len(items))) as ex:
        return list(ex.map(fn, items))
