"""Boundary-form linear algebra at the left endpoint.

For the operator S = a(-i d/dx)^n on the half line, integration by parts of
S f against conj(phi) leaves the bilinear concomitant

    [f phi](0) = u(f)^T C conj(u(phi)),

where u(g) = (g(0), g'(0), ..., g(n-1)(0)) and C is the antidiagonal matrix
computed by :func:`concomitant_matrix`.  Given N independent boundary forms
B (rows of coefficients acting on u), this module constructs

* the adjoint forms B*: a normalized real basis of forms vanishing exactly
  on the concomitant-orthogonal complement of ker B,
* complementary forms B_c and B_c* completing both systems so that

      -C = B^T conj(B_c*) + B_c^T conj(B*),

  which is the matrix form of the boundary Green identity
  -[f phi](0) = (Bf) . (B_c* phi) + (B_c f) . (B* phi)
  with the sesquilinear dot product x . y = sum x_j conj(y_j).

Rows of B* are normalized so the highest-order nonzero coefficient is 1;
for real B this makes every adjoint row real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletionFailed, KernelComputationFailed

__all__ = [
    "concomitant_matrix",
    "concomitant_value",
    "rref",
    "kernel_basis",
    "maximal_kernel",
    "complementary_forms",
    "CompletedForms",
]

PIVOT_TOL = 1e-12


def concomitant_matrix(n: int) -> np.ndarray:
    """Matrix C with C[p, q] = (-i)^n (-1)^q when p + q = n - 1, else 0."""
    C = np.zeros((n, n), dtype=complex)
    for q in range(n):
        C[n - 1 - q, q] = (-1j) ** n * (-1) ** q
    return C


def concomitant_value(n: int, u, v) -> complex:
    """[f phi](0) for boundary-derivative vectors u = u(f), v = u(phi)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return complex(u @ concomitant_matrix(n) @ np.conj(v))


def rref(mat: np.ndarray, tol: float = PIVOT_TOL):
    """Reduced row echelon form by partial pivoting.

    Returns (R, pivot_columns).  Entries below ``tol`` times the largest
    magnitude in the working column are treated as zero.
    """
    R = np.array(mat, dtype=complex)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = np.abs(R[r:, c])
        p = int(np.argmax(col)) + r
        scale = max(np.abs(R).max(), 1.0)
        if np.abs(R[p, c]) <= tol * scale:
            continue
        R[[r, p]] = R[[p, r]]
        R[r] = R[r] / R[r, c]
        for i in range(rows):
            if i != r:
                R[i] -= R[i, c] * R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def kernel_basis(B: np.ndarray, tol: float = PIVOT_TOL) -> np.ndarray:
    """Basis of ker B as columns, one per free variable.

    Columns are ordered by descending free-variable index; each column has a
    1 in its free-variable slot.  This fixed ordering makes the adjoint
    construction deterministic.
    """
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    rows, n = B.shape
    R, pivots = rref(B, tol)
    if len(pivots) < rows:
        raise KernelComputationFailed(
            f"boundary matrix has rank {len(pivots)} < {rows} rows")
    free = [c for c in range(n) if c not in pivots]
    K = np.zeros((n, len(free)), dtype=complex)
    for col, fvar in enumerate(sorted(free, reverse=True)):
        K[fvar, col] = 1.0
        for row, pcol in enumerate(pivots):
            K[pcol, col] = -R[row, fvar]
    return K


def maximal_kernel(B: np.ndarray) -> tuple:
    """Boundary Taylor coefficients in ker B with every admissible
    derivative nonzero: the sum of the :func:`kernel_basis` columns, scaled
    to max modulus 1, and real when B is."""
    vec = kernel_basis(B).sum(axis=1)
    if np.abs(vec.imag).max() < 1e-12:
        vec = vec.real
    return tuple((vec / np.abs(vec).max()).tolist())


def _normalize_rows(raw: np.ndarray, tol: float = PIVOT_TOL):
    """Divide each row by its highest-order nonzero coefficient.

    Returns (normalized, gammas).  For real boundary matrices the
    normalized rows are real; any residual imaginary part below roundoff
    is dropped.
    """
    rows = []
    gammas = []
    scale = max(np.abs(raw).max(), 1.0)
    for row in raw:
        nz = np.nonzero(np.abs(row) > tol * scale)[0]
        if nz.size == 0:
            raise KernelComputationFailed("adjoint construction produced a zero row")
        gamma = row[nz[-1]]
        r = row / gamma
        if np.abs(r.imag).max() < 1e-13 * max(np.abs(r.real).max(), 1.0):
            r = r.real.astype(complex)
        rows.append(r)
        gammas.append(gamma)
    return np.array(rows), np.array(gammas)


@dataclass(frozen=True)
class CompletedForms:
    """Completion of a boundary system and its adjoint.

    ``T = [[B], [B_c]]`` is invertible and the Green identity
    ``-C = B^T conj(B_c_star) + B_c^T conj(B_star)`` holds to roundoff.
    """

    B: np.ndarray
    B_star: np.ndarray
    B_c: np.ndarray
    B_c_star: np.ndarray
    T: np.ndarray


def complementary_forms(n: int, B: np.ndarray) -> CompletedForms:
    """Adjoint forms B*, shape (n - rank B, n), and the completion of B and B*.

    Row j of B* applied to u(phi) equals, up to the recorded normalization,
    the concomitant [k_j phi](0) of the j-th kernel basis vector of B.
    """
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    C = concomitant_matrix(n)
    K = kernel_basis(B)
    raw = np.conj(K.T @ C)
    B_star, gammas = _normalize_rows(raw)
    D = np.diag(np.conj(gammas))
    B_c = -D @ np.linalg.pinv(K)
    T = np.vstack([B, B_c])
    if np.linalg.cond(T) > 1e12:
        raise CompletionFailed("completed boundary system is numerically singular")
    S = -np.linalg.solve(T.T, C)
    N = B.shape[0]
    B_c_star = np.conj(S[:N])
    # bottom block of S must reproduce the adjoint forms; this is the
    # consistency condition B_c K = -diag(conj(gamma))
    err = np.abs(S[N:] - np.conj(B_star)).max()
    if err > 1e-10 * max(1.0, np.abs(B_star).max()):
        raise CompletionFailed(f"completion is inconsistent with adjoint forms (err={err:.2e})")
    return CompletedForms(B=B, B_star=B_star, B_c=B_c, B_c_star=B_c_star, T=T)
