"""Shared fixtures, the inverse kernel, the tests' transform of a
derivative and their adaptive Simpson reference.

Transform pairs are costly to build and cache transform evaluations per
datum, so tests share one pair and one maximal-kernel datum per catalog
problem across the whole session.
"""

import dataclasses

import mpmath
import numpy as np
import pytest

from halfline.datum import make_datum
from halfline.oracles import OracleResult
from halfline.problems import builtin_catalog
from halfline.transforms import SupportTransform, TransformPair
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


def inverse_kernel(pair, k: int, lam, x):
    """Inverse-side kernel of component k at (lam, x): exp(-i lam x) / 2 pi
    for k = 0, else sum_l w_l exp(-i mult_l lam x) from the pair's
    ``kernel_weights``."""
    lam = np.asarray(lam, dtype=complex)
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.exp(-1j * lam * x) / (2.0 * np.pi)
    mults, weights = pair.kernel_weights(k, lam)
    return (weights * np.exp(-1j * mults * lam * x)).sum(axis=0)


def on_stack_rule(datum, stack):
    """``datum`` held to ``stack``'s quadrature rule: the datum itself when
    its transform's base rate is the stack's, else a copy whose transform
    has the stack's base rate, so its own inversion runs on the same
    panels as the stack's row of it."""
    if datum._hat.base >= stack._hat.base:
        return datum
    copy = dataclasses.replace(datum)
    object.__setattr__(copy, "_hat", SupportTransform(
        copy.value, copy.support, base_rate=stack.bandwidth))
    return copy


def derivative_transform(datum, n: int) -> SupportTransform:
    """The tests' reference for int_0^L exp(-i mu x) f(n)(x) dx: a Gauss
    sum of f(n) itself, which no library path builds (the library derives
    the transform of f(n) from fhat by parts).  Each derivative sharpens
    the integrand, so the base rate grows with n: at 4 (1 + n) bandwidths
    robin-4's f(4) is resolved on the remainder circle to its rounding,
    which at (1 + n) bandwidths it is not."""
    return SupportTransform(lambda x: datum.derivative(n, x), datum.support,
                            base_rate=4.0 * datum.bandwidth * (1.0 + n))


# -- adaptive Simpson reference ------------------------------------------

def _simpson(fa, fm, fb, h: complex) -> complex:
    return h * (fa + 4.0 * fm + fb) / 6.0


def _adapt(f, a: complex, b: complex, fa, fm, fb, whole: complex,
           tol: float, depth: int, log) -> tuple[complex, float]:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if log is not None:
        log.extend((lm, rm))
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    diff = left + right - whole
    if depth <= 0 or abs(diff) <= 15.0 * tol:
        return left + right + diff / 15.0, abs(diff) / 15.0
    lv, le = _adapt(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1, log)
    rv, re = _adapt(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1, log)
    return lv + rv, le + re


def adaptive_reference(f, path, *, tol: float = 1e-12, max_depth: int = 48,
                       node_log: list | None = None) -> OracleResult:
    """Adaptive Simpson integral of ``f`` along straight segments in C.

    ``path`` is either a pair (z0, z1) or a sequence of waypoints; the
    integral is taken along the polyline.  ``node_log``, when given, collects
    every interior evaluation point in order, so tests can confirm this rule
    shares no node sequence with the production quadrature.
    """
    pts = [complex(z) for z in path]
    if len(pts) < 2:
        raise ValueError("path needs at least two points")
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    for z0, z1 in zip(pts[:-1], pts[1:]):
        m = 0.5 * (z0 + z1)
        fa, fm, fb = f(z0), f(m), f(z1)
        if node_log is not None:
            node_log.extend((z0, m, z1))
        whole = _simpson(fa, fm, fb, z1 - z0)
        before = len(node_log) if node_log is not None else 0
        val, e = _adapt(f, z0, z1, fa, fm, fb, whole,
                        tol / max(1, len(pts) - 1), max_depth, node_log)
        total += val
        err += e
        evals += 3 + ((len(node_log) - before) if node_log is not None else 0)
    return OracleResult(value=total, est_error=err, method="adaptive_quad",
                        meta={"segments": len(pts) - 1, "evals": evals})
