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

_pairs: dict = {}
_data: dict = {}
_SESSION_DPS = mpmath.mp.dps


@pytest.fixture(autouse=True)
def _mpmath_precision_is_restored():
    """Fail a test that leaves mpmath's working precision changed: the
    library's exponential-integral tails run at that precision, and users
    get mpmath's default.  Reference computations scope theirs with
    ``mpmath.workdps``."""
    yield
    left = mpmath.mp.dps
    mpmath.mp.dps = _SESSION_DPS  # later tests start clean
    assert left == _SESSION_DPS, (
        f"mpmath.mp.dps left at {left}, session started at {_SESSION_DPS}")


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
