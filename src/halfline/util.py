"""Small shared helpers."""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


class _Pool:
    """The process's one :class:`ThreadPoolExecutor` for :func:`parallel_map`.

    It is created on the first threaded call, with ``thread_count()``
    workers, and kept: its workers wait between calls, so no call starts or
    joins threads.  When the count changes, the pool is replaced under the
    lock, and items are submitted under the same lock, so no caller submits
    to a pool that was already shut down; a replaced pool finishes the items
    it holds.  Its workers are marked through the executor's initializer.
    After a fork the child drops the pool, whose threads it did not inherit.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._executor = None
        self._size = 0
        self._worker = threading.local()

    def _mark(self):
        self._worker.marked = True

    def on_worker(self) -> bool:
        """Whether the calling thread is one of the pool's workers."""
        return getattr(self._worker, "marked", False)

    def submit(self, fn, items, size: int) -> list:
        """Futures of fn over items on a pool of ``size`` workers."""
        with self._lock:
            if self._size != size:
                if self._executor is not None:
                    self._executor.shutdown(wait=False)
                self._executor = ThreadPoolExecutor(max_workers=size,
                                                    initializer=self._mark)
                self._size = size
            return [self._executor.submit(fn, it) for it in items]

    def drop(self):
        self._lock = threading.Lock()
        self._executor = None
        self._size = 0


_POOL = _Pool()
os.register_at_fork(after_in_child=_POOL.drop)


def parallel_map(fn, items):
    """Ordered map over items, threaded when UTM_THREADS allows.

    Work items run under numpy, which releases the GIL in inner kernels;
    results are returned in input order so output stays deterministic.
    Threaded calls share one pool of ``thread_count()`` workers that lives
    for the process (see :class:`_Pool`); a call on one of its workers runs
    serially there, as do single items and UTM_THREADS=1.  No item of a
    call still runs when the call returns or raises.  While workers run,
    the OpenBLAS that numpy loaded runs single-threaded, and its thread
    count is restored when the last threaded call, of any thread, returns
    or raises.
    """
    items = list(items)
    k = thread_count()
    if k <= 1 or len(items) <= 1 or _POOL.on_worker():
        return [fn(it) for it in items]
    with _BLAS_PIN.held():
        futures = _POOL.submit(fn, items, k)
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()
            wait(futures)
