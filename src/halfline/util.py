"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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


def parallel_map(fn, items):
    """Ordered map over items, threaded when UTM_THREADS allows.

    Work items run under numpy, which releases the GIL in inner kernels;
    results are returned in input order so output stays deterministic.
    """
    items = list(items)
    k = thread_count()
    if k <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(k, len(items))) as ex:
        return list(ex.map(fn, items))
