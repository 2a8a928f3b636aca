"""Compactly supported initial data with exact boundary derivatives.

A datum is

    f(x) = chi(x) * p(x) + b(x),

where p is the polynomial with prescribed Taylor coefficients at x = 0,
chi is a smooth cutoff equal to 1 on [0, support/2] and 0 beyond the
support bound, and b is a seeded sum of smooth bumps supported inside
[support/4, support].  Because chi and b are identically constant near
x = 0, the boundary derivatives f(j)(0) equal the prescribed coefficients
exactly, and every derivative of order >= len(coeffs) vanishes at 0.

Values and derivatives are evaluated with truncated Taylor jets
(:mod:`halfline.jets`), so high-order derivatives carry no finite-difference
noise.  All evaluation is vectorized over x.  A datum also owns its one
half-line Fourier transform (:meth:`InitialDatum.fhat`), whose resolution
levels fill on first use and are freed with it; the transform of any
derivative follows from it by parts
(:meth:`~halfline.transforms.TransformPair.forward`).  A
:class:`DataStack` of data with one support owns one transform for all of
them, whose exponentials serve every datum.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import CoeffsNotInKernel, SupportMismatch
from .transforms import SupportTransform

__all__ = ["DataStack", "InitialDatum", "make_datum"]

# below this, exp(-1/s) underflows double precision to an exact 0.0, so the
# cutoff and bump jets are constant there
_EDGE = 1e-3


def _bump_params(support: float, seed):
    """Seeded bump components (amplitude, center, halfwidth)."""
    if seed is None:
        return []
    rng = np.random.default_rng(seed)
    lo = support / 4.0
    out = []
    # halfwidths below ~0.25*support slow both the spectral tail and the
    # support quadrature badly; keep bumps wide and well inside the support
    for _ in range(2):
        w = support * rng.uniform(0.26, 0.34)
        c = rng.uniform(lo + w, support - w)
        amp = rng.uniform(0.4, 1.0) * rng.choice([-1.0, 1.0])
        out.append((float(amp), float(c), float(w)))
    return out


def _smoothstep_jet(s: np.ndarray, order: int) -> np.ndarray:
    """Jet of the standard smooth step g(1-s)/(g(s)+g(1-s)), g(s)=exp(-1/s).

    Equals 1 at s<=0 and 0 at s>=1; callers must pass s in (_EDGE, 1-_EDGE).
    """
    sj = jets.variable(s, order)
    one_minus = -sj
    one_minus[0] += 1.0
    g_s = jets.exp(-jets.reciprocal(sj))
    g_1ms = jets.exp(-jets.reciprocal(one_minus))
    return jets.divide(g_1ms, g_s + g_1ms)


def _bump_jet(u: np.ndarray, order: int) -> np.ndarray:
    """Jet of exp(1 - 1/(1-u^2)), normalized to peak value 1 at u=0."""
    uj = jets.variable(u, order)
    s = -jets.mul(uj, uj)
    s[0] += 1.0
    arg = -jets.reciprocal(s)
    arg[0] += 1.0
    return jets.exp(arg)


@dataclass(frozen=True)
class InitialDatum:
    """Smooth compactly supported datum on [0, infinity).

    Parameters
    ----------
    kernel_coeffs:
        Taylor coefficients at the origin, ``f(j)(0) = kernel_coeffs[j]``.
    support:
        Support bound L; the datum vanishes identically for x >= L.
    seed:
        Seed for the bump component, or None for no bump.
    amplitude:
        Factor on the whole datum.
    """

    kernel_coeffs: tuple
    support: float = 1.0
    seed: int | None = 0
    amplitude: float = 1.0
    _bumps: tuple = field(init=False, repr=False, compare=False)
    _hat: SupportTransform = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel_coeffs", tuple(float(c) for c in self.kernel_coeffs))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "_bumps", tuple(_bump_params(self.support, self.seed)))
        # the integrand holds the datum by a weak reference, so the datum
        # and its transform form no cycle
        ref = weakref.ref(self)
        object.__setattr__(self, "_hat", SupportTransform(
            lambda x: ref().value(x), self.support, base_rate=self.bandwidth))

    # -- region boundaries ---------------------------------------------
    @property
    def _x1(self) -> float:
        return self.support / 2.0

    def boundary_derivatives(self, m: int) -> np.ndarray:
        """Exact vector (f(0), f'(0), ..., f(m-1)(0))."""
        out = np.zeros(m)
        k = min(m, len(self.kernel_coeffs))
        out[:k] = self.kernel_coeffs[:k]
        return out * self.amplitude

    @property
    def bandwidth(self) -> float:
        """Minimum phase-rate resolution (rad per unit x) a quadrature of
        this datum needs; sized so composite Gauss panels resolve the
        sharpest bump to near machine precision."""
        if not self._bumps:
            return 0.0
        w_min = min(w for _, _, w in self._bumps)
        return 100.0 / w_min

    # -- evaluation ------------------------------------------------------
    def jet(self, x, order: int) -> np.ndarray:
        """Taylor jet of f at the points x, shape (order+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((order + 1, x.size))
        L, x1 = self.support, self._x1
        width = L - x1

        s_all = (x - x1) / width
        flat = s_all <= _EDGE  # cutoff identically 1
        trans = (s_all > _EDGE) & (s_all < 1.0 - _EDGE)
        inside = x >= 0.0

        poly = [c / math.factorial(j) for j, c in enumerate(self.kernel_coeffs)]
        with np.errstate(under="ignore"):
            m = flat & inside
            if m.any():
                out[:, m] = jets.polyval(poly, jets.variable(x[m], order))
            m = trans & inside
            if m.any():
                pj = jets.polyval(poly, jets.variable(x[m], order))
                cj = _smoothstep_jet(s_all[m], order)
                # rescale cutoff derivative: d/dx = (1/width) d/ds
                cscale = (1.0 / width) ** np.arange(order + 1)
                out[:, m] = jets.mul(cj * cscale[:, None], pj)
            for amp, c, w in self._bumps:
                u = (x - c) / w
                m = (np.abs(u) < 1.0 - _EDGE) & inside
                if m.any():
                    bj = amp * _bump_jet(u[m], order)
                    # rescale interior derivative: d/dx = (1/w) d/du
                    scale = (1.0 / w) ** np.arange(order + 1)
                    out[:, m] += bj * scale[:, None]
        if self.amplitude != 1.0:
            out *= self.amplitude
        return out

    def value(self, x) -> np.ndarray:
        """f(x), vectorized; scalar in, scalar out."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        v = self.jet(x, order=0)[0]
        return float(v[0]) if scalar else v

    def derivative(self, k: int, x) -> np.ndarray:
        """Exact k-th derivative values."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        j = self.jet(x, order=k)
        v = j[k] * math.factorial(k)
        return float(v[0]) if scalar else v

    def fhat(self, mu) -> np.ndarray:
        """int_0^L exp(-i mu x) f(x) dx, vectorized over mu.

        The datum's :class:`~halfline.transforms.SupportTransform` fills its
        resolution levels on first use, under its own lock, and lives as
        long as the datum."""
        return self._hat(mu)


class DataStack:
    """Initial data of one support, transformed as one.

    The stack reads like a datum with a leading data axis: ``value(x)``
    has shape (d, len(x)), ``boundary_derivatives(m)`` (d, m) and
    ``fhat(mu)`` (d,) + mu.shape, so :class:`~halfline.transforms.
    TransformPair` inverts all d data in one pass.  Its one
    :class:`~halfline.transforms.SupportTransform` builds each
    exponential table once per mu for every datum, at the largest
    bandwidth of the data: a datum whose own floor is lower is integrated
    on a finer rule than its own transform's.  Data of different supports
    raise :class:`SupportMismatch`.
    """

    def __init__(self, data):
        self.data = tuple(data)
        supports = sorted({d.support for d in self.data})
        if len(supports) != 1:
            raise SupportMismatch(
                f"a stack needs data of one support, got {supports}")
        self.support = supports[0]
        # the integrand holds the data, not the stack: no cycle
        data = self.data
        self._hat = SupportTransform(
            lambda x: np.stack([d.value(x) for d in data]), self.support,
            base_rate=self.bandwidth)

    @property
    def bandwidth(self) -> float:
        return max(d.bandwidth for d in self.data)

    def boundary_derivatives(self, m: int) -> np.ndarray:
        return np.stack([d.boundary_derivatives(m) for d in self.data])

    def value(self, x) -> np.ndarray:
        return self._hat.g(np.atleast_1d(np.asarray(x, dtype=float)))

    def fhat(self, mu) -> np.ndarray:
        """int_0^L exp(-i mu x) f_i(x) dx for every datum i, shape (d,) +
        mu.shape, from one quadrature."""
        return self._hat(mu)


def make_datum(problem, kernel_coeffs, support: float = 1.0, seed: int | None = 0,
               amplitude: float = 1.0) -> InitialDatum:
    """Build a datum compatible with the boundary forms of ``problem``.

    ``kernel_coeffs`` (length <= n) must satisfy every homogeneous boundary
    form; otherwise :class:`CoeffsNotInKernel` is raised.
    """
    n = problem.order
    u = np.zeros(n)
    coeffs = np.asarray(kernel_coeffs, dtype=float)
    if coeffs.size > n:
        raise CoeffsNotInKernel(
            f"got {coeffs.size} boundary coefficients for an order-{n} problem")
    u[: coeffs.size] = coeffs
    resid = problem.boundary_matrix @ u
    scale = max(1.0, float(np.abs(problem.boundary_matrix).max()) * max(1.0, float(np.abs(u).max())))
    if np.abs(resid).max() > 1e-12 * scale:
        raise CoeffsNotInKernel(
            f"boundary forms give {resid} on the requested coefficients, expected 0")
    return InitialDatum(tuple(coeffs), float(support), seed, amplitude=amplitude)
