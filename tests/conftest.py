"""Shared fixtures.

Transform pairs are costly to build and cache transform evaluations per
datum, so tests share one pair and one maximal-kernel datum per catalog
problem across the whole session.
"""

import mpmath
import numpy as np
import pytest

from halfline.datum import make_datum
from halfline.problems import builtin_catalog
from halfline.transforms import TransformPair
from halfline.util import _openblas

_pairs: dict = {}
_data: dict = {}
_SESSION_DPS = mpmath.mp.dps
_BLAS = _openblas()
_SESSION_BLAS_THREADS = _BLAS[0]() if _BLAS else None


@pytest.fixture(autouse=True)
def _process_settings_are_restored():
    """Fail a test that leaves mpmath's working precision or the BLAS
    thread count changed.  No library path calls mpmath: the tests'
    references (``quadrature.ray_monomial_tail``, ``mpmath.quad``) run at
    that precision and scope any other with ``mpmath.workdps``.
    ``parallel_map`` holds BLAS at one thread only while its workers run."""
    yield
    left = mpmath.mp.dps
    mpmath.mp.dps = _SESSION_DPS  # later tests start clean
    threads = _SESSION_BLAS_THREADS
    if _BLAS:
        threads = _BLAS[0]()
        _BLAS[1](_SESSION_BLAS_THREADS)
    assert left == _SESSION_DPS, (
        f"mpmath.mp.dps left at {left}, session started at {_SESSION_DPS}")
    assert threads == _SESSION_BLAS_THREADS, (
        f"BLAS threads left at {threads}, session started at "
        f"{_SESSION_BLAS_THREADS}")


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def get_pair(catalog):
    def _get(name: str) -> TransformPair:
        if name not in _pairs:
            _pairs[name] = TransformPair(catalog[name])
        return _pairs[name]

    return _get


@pytest.fixture(scope="session")
def get_datum(catalog):
    def _get(name: str):
        if name not in _data:
            prob = catalog[name]
            _data[name] = make_datum(prob, prob.datum_kernel, seed=0)
        return _data[name]

    return _get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)
