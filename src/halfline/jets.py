"""Truncated Taylor-jet arithmetic.

A jet of order ``m`` at points ``x`` is the array of Taylor coefficients

    jet[k, i] = f(k)(x_i) / k!,   k = 0..m,

stored as a numpy array of shape ``(m+1, npoints)``.  Sums, products,
reciprocals and exponentials of jets follow the usual convolution
recurrences, which lets the initial-datum module evaluate exact high-order
derivatives of compactly supported bump functions without symbolic algebra
or finite differencing.

All operations are vectorized over the point axis.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "variable",
    "constant",
    "mul",
    "reciprocal",
    "divide",
    "exp",
    "polyval",
]


def variable(x: np.ndarray, order: int) -> np.ndarray:
    """Jet of the identity function at the points ``x``."""
    x = np.asarray(x, dtype=float)
    jet = np.zeros((order + 1, x.size))
    jet[0] = x
    if order >= 1:
        jet[1] = 1.0
    return jet


def constant(c: float, order: int, npoints: int) -> np.ndarray:
    jet = np.zeros((order + 1, npoints))
    jet[0] = c
    return jet


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product jet, truncated to the common order."""
    m = a.shape[0] - 1
    out = np.zeros_like(a)
    for k in range(m + 1):
        # out[k] = sum_{j=0..k} a[j] * b[k-j]
        out[k] = np.einsum("ji,ji->i", a[: k + 1], b[k::-1])
    return out


def reciprocal(a: np.ndarray) -> np.ndarray:
    """Jet of 1/f.  Requires f to be nonzero at every point."""
    m = a.shape[0] - 1
    out = np.zeros_like(a)
    inv0 = 1.0 / a[0]
    out[0] = inv0
    for k in range(1, m + 1):
        acc = np.einsum("ji,ji->i", a[1 : k + 1], out[k - 1 :: -1][: k])
        out[k] = -inv0 * acc
    return out


def divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return mul(a, reciprocal(b))


def exp(a: np.ndarray) -> np.ndarray:
    """Jet of exp(f) via e' = f' e."""
    m = a.shape[0] - 1
    out = np.zeros_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, m + 1):
        # k*e_k = sum_{j=1..k} j * a_j * e_{k-j}
        j = np.arange(1, k + 1)
        acc = np.einsum("j,ji,ji->i", j.astype(float), a[1 : k + 1], out[k - 1 :: -1][: k])
        out[k] = acc / k
    return out


def polyval(coeffs, xjet: np.ndarray) -> np.ndarray:
    """Jet of a polynomial sum_j coeffs[j] x^j evaluated on a jet (Horner)."""
    m = xjet.shape[0] - 1
    npts = xjet.shape[1]
    out = constant(0.0, m, npts)
    for c in reversed(list(coeffs)):
        out = mul(out, xjet)
        out[0] += c
    return out

